//! One adversarial-input property for every parser of bytes that arrive
//! from the network or the disk: wire frames, coded messages, file and
//! digest manifests, Schnorr keys and signatures.
//!
//! Each case starts from generated *valid* encodings, then hands each
//! parser every truncation of its encoding, the encoding with one byte
//! flipped at a generated offset, and the encoding with a generated
//! suffix. No input may panic, and the frame parsers never report
//! consuming more bytes than they were given. The per-parser tests beside
//! each parser stay; this is the shared floor under all of them.

use asymshare::{FeedbackEntry, FeedbackReport, Wire};
use asymshare_crypto::chacha20::ChaChaRng;
use asymshare_crypto::schnorr::{KeyPair, PublicKey, Signature};
use asymshare_crypto::u256::U256;
use asymshare_gf::{FieldKind, Gf2p32};
use asymshare_netsim::SplitMix64;
use asymshare_rlnc::{
    AuthManifest, ChunkedEncoder, DigestKind, EncodedMessage, FileId, FileManifest, MessageId,
};
use bytes::Bytes;
use proptest::prelude::*;
use std::panic::catch_unwind;

/// A parser under test. It returns whether its output respects the input's
/// bounds (always `true` for parsers that report no length).
type Parser = fn(&[u8]) -> bool;

fn wire_frames(b: &[u8]) -> bool {
    let _ = Wire::decode(b);
    let prefix_ok = Wire::decode_prefix(b).map_or(true, |(_, n)| n <= b.len());
    // The frame sits at an offset in a shared buffer, as in a datagram.
    let mut datagram = vec![0xA5; 3];
    datagram.extend_from_slice(b);
    let shared_ok =
        Wire::decode_shared(&Bytes::from(datagram), 3).map_or(true, |(_, n)| n <= b.len());
    prefix_ok && shared_ok
}

fn coded_message(b: &[u8]) -> bool {
    let _ = EncodedMessage::from_wire(b);
    let _ = EncodedMessage::from_wire_shared(&Bytes::from(b.to_vec()));
    true
}

fn file_manifest(b: &[u8]) -> bool {
    let _ = FileManifest::from_bytes(b);
    true
}

fn auth_manifest(b: &[u8]) -> bool {
    let _ = AuthManifest::from_bytes(b);
    true
}

fn public_key(b: &[u8]) -> bool {
    let _ = PublicKey::from_bytes(b);
    true
}

fn signature(b: &[u8]) -> bool {
    let _ = Signature::from_bytes(b);
    true
}

fn fill<const N: usize>(rng: &mut SplitMix64) -> [u8; N] {
    std::array::from_fn(|_| rng.next_u64() as u8)
}

fn below(rng: &mut SplitMix64, n: u64) -> u64 {
    rng.next_u64() % n
}

/// One valid encoding per wire variant.
fn wire_encodings(rng: &mut SplitMix64, keys: &KeyPair, chacha: &mut ChaChaRng) -> Vec<Vec<u8>> {
    let file_id = rng.next_u64();
    let chunk = rng.next_u64() as u32;
    let payload: Vec<u8> = (0..below(rng, 200)).map(|_| rng.next_u64() as u8).collect();
    let entries = (0..below(rng, 4))
        .map(|_| FeedbackEntry {
            contributor: fill(rng),
            bytes: rng.next_u64(),
        })
        .collect();
    let frames = [
        Wire::AuthCommit {
            commitment: fill(rng),
            claimed_key: keys.public_key().to_bytes(),
        },
        Wire::AuthChallenge {
            challenge: fill(rng),
        },
        Wire::AuthResponse { s: fill(rng) },
        Wire::AuthResult {
            ok: rng.next_u64() & 1 == 1,
            ack: fill(rng),
        },
        Wire::FileRequest { file_id },
        Wire::MessageData(EncodedMessage::new(
            FileId(file_id),
            MessageId(rng.next_u64()),
            payload,
        )),
        Wire::StopTransmission { file_id },
        Wire::StopChunk { file_id, chunk },
        Wire::ReplacementRequest { file_id, chunk },
        Wire::Feedback(FeedbackReport::sign(keys, rng.next_u64(), entries, chacha)),
    ];
    frames.iter().map(|w| w.encode().to_vec()).collect()
}

/// A small file's manifest, with the digests of one batch recorded.
fn manifest_encoding(rng: &mut SplitMix64) -> Vec<u8> {
    let data: Vec<u8> = (0..1 + below(rng, 2048))
        .map(|_| rng.next_u64() as u8)
        .collect();
    let chunk = 64 + below(rng, 1024) as usize;
    let k = 1 + below(rng, 4) as usize;
    let secret = asymshare_crypto::rng::SecretKey::from_bytes(fill(rng));
    let mut enc = ChunkedEncoder::<Gf2p32>::with_chunk_size(
        FieldKind::Gf2p32,
        k,
        DigestKind::Md5,
        secret,
        FileId(rng.next_u64()),
        &data,
        chunk,
    )
    .unwrap();
    enc.encode_for_peers(1).unwrap();
    enc.manifest().to_bytes()
}

fn auth_encoding(rng: &mut SplitMix64) -> Vec<u8> {
    let file_id = FileId(rng.next_u64());
    let mut auth = AuthManifest::new(file_id, DigestKind::Md5);
    for _ in 0..below(rng, 5) {
        let payload: Vec<u8> = (0..below(rng, 64)).map(|_| rng.next_u64() as u8).collect();
        auth.record(&EncodedMessage::new(
            file_id,
            MessageId(rng.next_u64()),
            payload,
        ));
    }
    auth.to_bytes()
}

/// Every truncation of `valid` (itself included), `valid` with the byte at
/// `flip_at` xored with `mask`, and `valid` followed by `suffix`.
fn mutations(valid: &[u8], flip_at: usize, mask: u8, suffix: &[u8]) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = (0..=valid.len()).map(|cut| valid[..cut].to_vec()).collect();
    if !valid.is_empty() {
        let mut flipped = valid.to_vec();
        flipped[flip_at % valid.len()] ^= mask;
        out.push(flipped);
    }
    out.push([valid, suffix].concat());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_parser_survives_mutated_valid_encodings(
        seed in any::<u64>(),
        flip_at in any::<usize>(),
        mask in 1u8..=255,
        suffix in proptest::collection::vec(any::<u8>(), 1..48),
    ) {
        let mut rng = SplitMix64::new(seed);
        let mut chacha = ChaChaRng::new(fill(&mut rng), [0u8; 12]);
        let keys = KeyPair::from_secret(U256::from_le_bytes(&fill::<32>(&mut rng)));
        let mut cases: Vec<(&str, Parser, Vec<u8>)> = wire_encodings(&mut rng, &keys, &mut chacha)
            .into_iter()
            .map(|frame| ("wire", wire_frames as Parser, frame))
            .collect();
        let message = EncodedMessage::new(
            FileId(rng.next_u64()),
            MessageId(rng.next_u64()),
            (0..below(&mut rng, 200)).map(|_| rng.next_u64() as u8).collect::<Vec<u8>>(),
        );
        cases.push(("coded message", coded_message, message.to_wire().to_vec()));
        cases.push(("file manifest", file_manifest, manifest_encoding(&mut rng)));
        cases.push(("auth manifest", auth_manifest, auth_encoding(&mut rng)));
        cases.push(("public key", public_key, keys.public_key().to_bytes().to_vec()));
        let signed = keys.sign(&suffix, &mut chacha);
        cases.push(("signature", signature, signed.to_bytes().to_vec()));

        for (name, parse, valid) in cases {
            for input in mutations(&valid, flip_at, mask, &suffix) {
                let outcome = catch_unwind(|| parse(&input));
                prop_assert!(
                    matches!(outcome, Ok(true)),
                    "{name} parser on {input:02x?}: {}",
                    if outcome.is_ok() { "consumed past its input" } else { "panicked" }
                );
            }
        }
    }
}
