//! `encode_for_peers` hashes each message on the worker that produced it;
//! the manifest must not depend on how many workers there were.
//!
//! One test in a file of its own: it sets `ASYMSHARE_THREADS`, which is
//! process-wide, and an integration-test file is its own process.

use asymshare_crypto::rng::SecretKey;
use asymshare_gf::{FieldKind, Gf2p32};
use asymshare_rlnc::{
    AuthManifest, ChunkedEncoder, DigestKind, EncodedMessage, FileId, MessageDigest,
};

fn encode(kind: DigestKind, data: &[u8]) -> (Vec<Vec<EncodedMessage>>, Vec<u8>) {
    let mut enc = ChunkedEncoder::<Gf2p32>::with_chunk_size(
        FieldKind::Gf2p32,
        4,
        kind,
        SecretKey::from_passphrase("encode threads"),
        FileId(21),
        data,
        2048,
    )
    .expect("encoder");
    let peers = enc.encode_for_peers(3).expect("batches");
    (peers, enc.manifest().auth().to_bytes())
}

#[test]
fn manifest_bytes_identical_for_every_thread_count() {
    // 7 chunks × 3 peers = 21 work items, so 2, 4 and 5 workers all split
    // the batches unevenly.
    let data: Vec<u8> = (0..13_000u32).map(|i| (i * 29 % 251) as u8).collect();
    let kind = DigestKind::Md5;
    std::env::set_var("ASYMSHARE_THREADS", "1");
    let (seq_peers, seq_manifest) = encode(kind, &data);
    for threads in ["2", "4", "5"] {
        std::env::set_var("ASYMSHARE_THREADS", threads);
        let (peers, manifest) = encode(kind, &data);
        assert_eq!(peers, seq_peers, "{kind:?} threads={threads}");
        assert_eq!(manifest, seq_manifest, "{kind:?} threads={threads}");
    }
    std::env::remove_var("ASYMSHARE_THREADS");
    let (peers, manifest) = encode(kind, &data);
    assert_eq!(peers, seq_peers, "{kind:?} default threads");
    assert_eq!(manifest, seq_manifest, "{kind:?} default threads");

    // And the recorded digests are the per-message ones: a manifest
    // filled one `MessageDigest::compute` at a time serializes the same.
    let mut expect = AuthManifest::new(FileId(21), kind);
    for msg in seq_peers.iter().flatten() {
        expect.record_digest(msg.message_id(), MessageDigest::compute(kind, msg));
    }
    assert_eq!(seq_manifest, expect.to_bytes(), "{kind:?} per-message");
}
