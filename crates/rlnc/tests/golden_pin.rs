//! Coded payloads are part of the stored format: messages disseminated by
//! one build must decode under every later one. The manifest lists the
//! digest of every coded message, so a hash of its bytes pins them all.
//! The constants were computed at commit cc22fc2 (per-coefficient
//! `axpy_slice` encoder), before the block kernel replaced it.

use asymshare_crypto::md5::Md5;
use asymshare_crypto::rng::SecretKey;
use asymshare_gf::{Field, Gf256, Gf2p32};
use asymshare_rlnc::{ChunkedDecoder, ChunkedEncoder, DigestKind, FileId};

/// Encodes `len` patterned bytes for two peers, checks that peer 1's batch
/// alone decodes to them, and returns the manifest's MD5 in hex.
fn manifest_pin<F: Field>(k: usize, chunk_size: usize, len: usize) -> String {
    let secret = SecretKey::from_passphrase("golden pin");
    let data: Vec<u8> = (0..len as u64)
        .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8)
        .collect();
    let mut enc = ChunkedEncoder::<F>::with_chunk_size(
        F::KIND,
        k,
        DigestKind::Md5,
        secret.clone(),
        FileId(14),
        &data,
        chunk_size,
    )
    .expect("encoder");
    let peers = enc.encode_for_peers(2).expect("batches");
    let mut dec = ChunkedDecoder::<F>::new(enc.manifest().clone(), secret).expect("decoder");
    for msg in &peers[1] {
        dec.add_message(msg.clone()).expect("verified message");
    }
    assert_eq!(dec.decode().expect("decode"), data);
    Md5::digest(&enc.manifest().to_bytes()).to_hex()
}

#[test]
fn gf2p32_k8_one_mib_chunks() {
    // Two whole chunks and a 300 001-byte tail (partial last piece).
    assert_eq!(
        manifest_pin::<Gf2p32>(8, 1 << 20, (2 << 20) + 300_001),
        "0a43ede38c72b87cfecb9ccf234a463d"
    );
}

#[test]
fn gf256_k32_64_kib_chunks() {
    // Two whole chunks and a 1 000-byte tail: 32 pieces of 32 bytes, the
    // last one with 8 bytes of data.
    assert_eq!(
        manifest_pin::<Gf256>(32, 64 << 10, (128 << 10) + 1_000),
        "0c3079158c2d08aed0725d567ccedaef"
    );
}
