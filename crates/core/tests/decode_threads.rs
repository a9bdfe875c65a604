//! `rt::download_file_with` decodes each chunk beside its receive loop when
//! there is a second thread to do it on, and on the caller's thread when
//! `ASYMSHARE_THREADS` says there is not; the bytes may not depend on
//! which.
//!
//! One test in a file of its own: it sets `ASYMSHARE_THREADS`, which is
//! process-wide, and an integration-test file is its own process.

use asymshare::rt::{download_file, Reactor, ReactorConfig, RtNetwork};
use asymshare::{Identity, Peer, User};
use asymshare_gf::{FieldKind, Gf2p32};
use asymshare_obs::{EventSink, Registry, Value};
use asymshare_rlnc::{ChunkedEncoder, DigestKind, FileId};
use std::time::Duration;

#[test]
fn fetch_is_the_same_on_one_thread_and_on_two() {
    // Six chunks, the last one short with a cut piece.
    const LEN: usize = 5 * 16 * 1024 + 1001;
    let data: Vec<u8> = (0..LEN).map(|i| (i * 41 % 251) as u8).collect();
    let owner = Identity::from_seed(b"decode-threads");
    // `inline` of every chunk_decoded event of one fetch at this setting.
    let fetch = |threads: &str, base: u64| -> Vec<bool> {
        std::env::set_var("ASYMSHARE_THREADS", threads);
        let mut enc = ChunkedEncoder::<Gf2p32>::with_chunk_size(
            FieldKind::Gf2p32,
            4,
            DigestKind::Md5,
            owner.coding_secret().clone(),
            FileId(5),
            &data,
            16 * 1024,
        )
        .expect("encoder");
        let batches = enc.encode_for_peers(2).expect("batches");
        let network = RtNetwork::with_observability(Registry::new(), EventSink::new());
        let mut reactor = Reactor::new(&network, ReactorConfig::default());
        let mut peers = Vec::new();
        for (i, batch) in batches.into_iter().enumerate() {
            let identity = Identity::from_seed(&[b'd', b't', i as u8]);
            let key = identity.public_key().to_bytes();
            let mut peer = Peer::new(identity, 1_000.0);
            peer.add_subscriber(owner.public_key().to_bytes());
            for msg in batch {
                peer.store_mut().insert(msg);
            }
            reactor.add_peer(base + i as u64, peer, 1 << 30);
            peers.push((base + i as u64, key));
        }
        let mut user = User::<Gf2p32>::new(owner.clone(), enc.manifest().clone()).expect("user");
        let got = download_file(
            &network,
            base + 9,
            &mut user,
            &peers,
            base,
            Duration::from_secs(30),
        )
        .expect("download completes");
        assert_eq!(got, data, "threads={threads}");
        reactor.shutdown();
        let events = network.events().events();
        let decoded = events
            .iter()
            .filter(|e| e.component == "rt.download" && e.kind == "chunk_decoded");
        decoded
            .map(|e| {
                let inline = e.fields.iter().find(|(name, _)| *name == "inline");
                matches!(inline, Some((_, Value::Bool(true))))
            })
            .collect()
    };
    assert_eq!(fetch("1", 100), [true; 6], "one thread decodes inline");
    // Two, even on one core: a worker takes the chunks that complete before
    // the file does; the one that completes it (and whatever is still queued
    // then) stays with the caller.
    let two = fetch("2", 200);
    assert_eq!(two.len(), 6);
    assert!(two.contains(&true), "{two:?}");
    std::env::remove_var("ASYMSHARE_THREADS");
}
