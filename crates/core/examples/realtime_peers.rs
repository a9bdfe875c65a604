//! Real-time deployment: peers hosted on the event-loop reactor, wall-clock
//! rate limiting, serialized wire messages on every hop — the paper's
//! §VI-A future work ("implement the proposed system in a dynamic real-time
//! environment").
//!
//! Four peers shape their uplinks to 2 MB/s each; the user thread
//! authenticates to all of them and pulls a 4 MB file. Watch the aggregate
//! beat any single shaped uplink in *wall-clock* time.
//!
//! Run with: `cargo run --release --example realtime_peers`

use asymshare::rt::{download_file, Reactor, ReactorConfig, RtNetwork};
use asymshare::{Identity, Peer, User};
use asymshare_gf::{FieldKind, Gf2p32};
use asymshare_rlnc::{ChunkedEncoder, DigestKind, FileId};
use std::time::{Duration, Instant};

fn main() {
    const N_PEERS: usize = 4;
    const UPLINK_BYTES_PER_SEC: u64 = 2 << 20; // 2 MB/s per peer
    const FILE_SIZE: usize = 4 << 20; // 4 MB

    let owner = Identity::from_seed(b"rt-example-owner");
    let file: Vec<u8> = (0..FILE_SIZE).map(|i| (i % 251) as u8).collect();

    // Owner-side encoding (normally done once, offline).
    let t0 = Instant::now();
    let mut enc = ChunkedEncoder::<Gf2p32>::with_chunk_size(
        FieldKind::Gf2p32,
        8,
        DigestKind::Md5,
        owner.coding_secret().clone(),
        FileId(1),
        &file,
        512 * 1024,
    )
    .expect("encode");
    let batches = enc.encode_for_peers(N_PEERS).expect("batches");
    let manifest = enc.manifest().clone();
    println!(
        "encoded {} MB into {} coded messages in {:.2} s",
        FILE_SIZE >> 20,
        batches.iter().map(Vec::len).sum::<usize>(),
        t0.elapsed().as_secs_f64()
    );

    // Host the peers, each holding one decodable batch.
    let network = RtNetwork::new();
    let mut reactor = Reactor::new(&network, ReactorConfig::default());
    let mut peer_addrs = Vec::new();
    for (i, batch) in batches.into_iter().enumerate() {
        let identity = Identity::from_seed(&[b'x', i as u8]);
        let key = identity.public_key().to_bytes();
        let mut peer = Peer::new(identity, 1_000.0);
        peer.add_subscriber(owner.public_key().to_bytes());
        for m in batch {
            peer.store_mut().insert(m);
        }
        let addr = 100 + i as u64;
        reactor.add_peer(addr, peer, UPLINK_BYTES_PER_SEC);
        peer_addrs.push((addr, key));
    }
    println!(
        "{N_PEERS} peers serving at {} MB/s each",
        UPLINK_BYTES_PER_SEC >> 20
    );

    // The user thread downloads from all of them at once.
    let mut user = User::<Gf2p32>::new(owner, manifest).expect("user");
    let t0 = Instant::now();
    let data = download_file(
        &network,
        1,
        &mut user,
        &peer_addrs,
        peer_addrs[0].0,
        Duration::from_secs(60),
    )
    .expect("download");
    let elapsed = t0.elapsed().as_secs_f64();
    assert_eq!(data, file, "decoded bytes match the original");

    let single_peer_secs = FILE_SIZE as f64 / UPLINK_BYTES_PER_SEC as f64;
    println!(
        "downloaded + decoded {} MB in {elapsed:.2} s wall clock ({:.1} MB/s)",
        FILE_SIZE >> 20,
        FILE_SIZE as f64 / elapsed / (1 << 20) as f64
    );
    println!(
        "single shaped uplink would need >= {single_peer_secs:.2} s; speedup {:.1}x",
        single_peer_secs / elapsed
    );
    println!(
        "innovative messages: {}, redundant: {}",
        user.innovative_count(),
        user.redundant_count()
    );
    reactor.shutdown();
}
