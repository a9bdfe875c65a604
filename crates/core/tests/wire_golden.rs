//! Wire-format golden tests: pin the exact byte layout of every [`Wire`]
//! variant, so the zero-copy data plane (and any future refactor) cannot
//! change what goes on the socket. The expected buffers are built
//! field-by-field from the documented layout — tag byte, little-endian
//! integers, raw arrays — independently of `Wire::encode`'s implementation.
//!
//! Also proves the coalescing identity (a batched send's bytes are exactly
//! the concatenation of individual encodings) and round-trips `MessageData`
//! over arbitrary payload lengths with proptest.

use asymshare::{FeedbackEntry, FeedbackReport, Wire};
use asymshare_crypto::chacha20::ChaChaRng;
use asymshare_crypto::schnorr::KeyPair;
use asymshare_crypto::u256::U256;
use asymshare_rlnc::{EncodedMessage, FileId, MessageId};
use proptest::prelude::*;

/// Builds the expected on-wire bytes for a `MessageData` frame from the
/// documented layout: tag 6, u32-le message length, u64-le file id,
/// u64-le message id, payload.
fn golden_message_data(file_id: u64, message_id: u64, payload: &[u8]) -> Vec<u8> {
    let mut expect = vec![6u8];
    expect.extend_from_slice(&(16 + payload.len() as u32).to_le_bytes());
    expect.extend_from_slice(&file_id.to_le_bytes());
    expect.extend_from_slice(&message_id.to_le_bytes());
    expect.extend_from_slice(payload);
    expect
}

#[test]
fn auth_commit_layout() {
    let wire = Wire::AuthCommit {
        commitment: [0x11; 64],
        claimed_key: [0x22; 64],
    };
    let mut expect = vec![1u8];
    expect.extend_from_slice(&[0x11; 64]);
    expect.extend_from_slice(&[0x22; 64]);
    assert_eq!(&wire.encode()[..], &expect[..]);
}

#[test]
fn auth_challenge_layout() {
    let wire = Wire::AuthChallenge {
        challenge: [0x33; 32],
    };
    let mut expect = vec![2u8];
    expect.extend_from_slice(&[0x33; 32]);
    assert_eq!(&wire.encode()[..], &expect[..]);
}

#[test]
fn auth_response_layout() {
    let wire = Wire::AuthResponse { s: [0x44; 32] };
    let mut expect = vec![3u8];
    expect.extend_from_slice(&[0x44; 32]);
    assert_eq!(&wire.encode()[..], &expect[..]);
}

#[test]
fn auth_result_layout() {
    let wire = Wire::AuthResult {
        ok: true,
        ack: [0x55; 96],
    };
    let mut expect = vec![4u8, 1u8];
    expect.extend_from_slice(&[0x55; 96]);
    assert_eq!(&wire.encode()[..], &expect[..]);

    let refused = Wire::AuthResult {
        ok: false,
        ack: [0u8; 96],
    };
    assert_eq!(refused.encode()[1], 0, "verdict byte encodes false as 0");
}

#[test]
fn file_request_layout() {
    let wire = Wire::FileRequest {
        file_id: 0x0102_0304_0506_0708,
    };
    let mut expect = vec![5u8];
    expect.extend_from_slice(&0x0102_0304_0506_0708u64.to_le_bytes());
    assert_eq!(&wire.encode()[..], &expect[..]);
}

#[test]
fn message_data_layout() {
    let payload = [0xAB, 0xCD, 0xEF];
    let wire = Wire::MessageData(EncodedMessage::new(
        FileId(0xDEAD_BEEF),
        MessageId(42),
        payload.to_vec(),
    ));
    let expect = golden_message_data(0xDEAD_BEEF, 42, &payload);
    assert_eq!(&wire.encode()[..], &expect[..]);
}

#[test]
fn message_data_empty_payload_layout() {
    let wire = Wire::MessageData(EncodedMessage::new(FileId(1), MessageId(2), vec![]));
    let expect = golden_message_data(1, 2, &[]);
    assert_eq!(&wire.encode()[..], &expect[..]);
    assert_eq!(expect.len(), 21, "tag + length + 16-byte header");
}

#[test]
fn stop_transmission_layout() {
    let wire = Wire::StopTransmission { file_id: 7 };
    let mut expect = vec![7u8];
    expect.extend_from_slice(&7u64.to_le_bytes());
    assert_eq!(&wire.encode()[..], &expect[..]);
}

#[test]
fn stop_chunk_layout() {
    let wire = Wire::StopChunk {
        file_id: 9,
        chunk: 0x0A0B_0C0D,
    };
    let mut expect = vec![9u8];
    expect.extend_from_slice(&9u64.to_le_bytes());
    expect.extend_from_slice(&0x0A0B_0C0Du32.to_le_bytes());
    assert_eq!(&wire.encode()[..], &expect[..]);
}

#[test]
fn replacement_request_layout() {
    let wire = Wire::ReplacementRequest {
        file_id: 9,
        chunk: 3,
    };
    let mut expect = vec![10u8];
    expect.extend_from_slice(&9u64.to_le_bytes());
    expect.extend_from_slice(&3u32.to_le_bytes());
    assert_eq!(&wire.encode()[..], &expect[..]);
}

#[test]
fn ack_layout() {
    let wire = Wire::Ack {
        newest: 0x0102_0304_0506_0708,
        taken: 77,
    };
    let mut expect = vec![11u8];
    expect.extend_from_slice(&0x0102_0304_0506_0708u64.to_le_bytes());
    expect.extend_from_slice(&77u64.to_le_bytes());
    assert_eq!(&wire.encode()[..], &expect[..]);
    assert_eq!(Wire::decode(&expect).unwrap(), wire);
}

#[test]
fn feedback_layout() {
    let keys = KeyPair::from_secret(U256::from_u64(4242));
    let mut rng = ChaChaRng::new([9u8; 32], *b"golden-wire!");
    let report = FeedbackReport::sign(
        &keys,
        3600,
        vec![
            FeedbackEntry {
                contributor: [0x66; 64],
                bytes: 1_000_000,
            },
            FeedbackEntry {
                contributor: [0x77; 64],
                bytes: 42,
            },
        ],
        &mut rng,
    );
    let mut expect = vec![8u8];
    expect.extend_from_slice(&report.reporter);
    expect.extend_from_slice(&3600u64.to_le_bytes());
    expect.extend_from_slice(&2u32.to_le_bytes());
    expect.extend_from_slice(&[0x66; 64]);
    expect.extend_from_slice(&1_000_000u64.to_le_bytes());
    expect.extend_from_slice(&[0x77; 64]);
    expect.extend_from_slice(&42u64.to_le_bytes());
    expect.extend_from_slice(&report.signature.to_bytes());
    assert_eq!(&Wire::Feedback(report).encode()[..], &expect[..]);
}

/// A coalesced batch is byte-identical to the concatenation of individual
/// encodings — the transport's batching changes datagram boundaries, never
/// frame bytes.
#[test]
fn coalesced_batch_equals_concatenation() {
    let frames = [
        Wire::FileRequest { file_id: 1 },
        Wire::MessageData(EncodedMessage::new(FileId(1), MessageId(0), vec![1u8; 5])),
        Wire::MessageData(EncodedMessage::new(FileId(1), MessageId(1), vec![2u8; 9])),
        Wire::StopChunk {
            file_id: 1,
            chunk: 0,
        },
    ];
    let mut batch = Vec::new();
    for f in &frames {
        f.encode_into(&mut batch);
    }
    let concat: Vec<u8> = frames.iter().flat_map(|f| f.encode().to_vec()).collect();
    assert_eq!(batch, concat);
    // And the batch walks back into the original frames.
    let mut off = 0;
    for f in &frames {
        let (wire, consumed) = Wire::decode_prefix(&batch[off..]).expect("frame");
        assert_eq!(&wire, f);
        off += consumed;
    }
    assert_eq!(off, batch.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `MessageData` frames round-trip (encode → decode and encode →
    /// decode_shared) for arbitrary ids and payload lengths, and always
    /// match the field-built golden bytes.
    #[test]
    fn message_data_round_trips_any_payload(
        file_id in any::<u64>(),
        message_id in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        let msg = EncodedMessage::new(FileId(file_id), MessageId(message_id), payload.clone());
        let wire = Wire::MessageData(msg.clone());
        let encoded = wire.encode();
        prop_assert_eq!(&encoded[..], &golden_message_data(file_id, message_id, &payload)[..]);
        prop_assert_eq!(encoded.len(), wire.encoded_len());
        prop_assert_eq!(Wire::decode(&encoded).unwrap(), wire.clone());
        let (shared, consumed) = Wire::decode_shared(&encoded, 0).unwrap();
        prop_assert_eq!(shared, wire);
        prop_assert_eq!(consumed, encoded.len());
    }
}
