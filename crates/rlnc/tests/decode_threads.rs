//! `ChunkedDecoder::decode` hands each chunk its slice of one output buffer
//! across `par` workers; neither the bytes nor the error it reports may
//! depend on how many workers there were.
//!
//! One test in a file of its own: it sets `ASYMSHARE_THREADS`, which is
//! process-wide, and an integration-test file is its own process.

use asymshare_crypto::rng::SecretKey;
use asymshare_gf::{FieldKind, Gf2p32};
use asymshare_rlnc::{
    ChunkedDecoder, ChunkedEncoder, CodecError, DigestKind, FileId, FileManifest,
};

#[test]
fn decode_is_the_same_for_every_thread_count() {
    // Six chunks, the last one short with a cut piece: 4 workers split
    // them 2 + 2 + 2.
    let secret = SecretKey::from_passphrase("decode threads");
    let data: Vec<u8> = (0..11_001u32).map(|i| (i * 31 % 251) as u8).collect();
    let mut enc = ChunkedEncoder::<Gf2p32>::with_chunk_size(
        FieldKind::Gf2p32,
        4,
        DigestKind::Md5,
        secret.clone(),
        FileId(22),
        &data,
        2048,
    )
    .expect("encoder");
    let batch = enc.encode_for_peers(1).expect("batch").remove(0);
    let decoder_without = |withheld: &[(u32, usize)]| {
        let mut dec =
            ChunkedDecoder::<Gf2p32>::new(enc.manifest().clone(), secret.clone()).expect("decoder");
        let mut fed = [0usize; 6];
        for msg in &batch {
            let chunk = FileManifest::chunk_of(msg.message_id());
            fed[chunk as usize] += 1;
            if !withheld.contains(&(chunk, fed[chunk as usize])) {
                dec.add_message(msg.clone()).expect("verified message");
            }
        }
        dec
    };
    let complete = decoder_without(&[]);
    // Chunk 2 is one message short, chunk 4 three: they land on different
    // workers, and chunk 2's error is the one to report.
    let short = decoder_without(&[(2, 4), (4, 2), (4, 3), (4, 4)]);
    for threads in ["1", "4"] {
        std::env::set_var("ASYMSHARE_THREADS", threads);
        assert_eq!(
            complete.decode().expect("decode"),
            data,
            "threads={threads}"
        );
        assert_eq!(
            short.decode(),
            Err(CodecError::NotEnoughMessages { have: 3, need: 4 }),
            "threads={threads}"
        );
    }
    std::env::remove_var("ASYMSHARE_THREADS");
}
