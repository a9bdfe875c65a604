//! Property-based tests for the random linear codec: round-trips, subset
//! decodability, authentication, and secrecy under random parameters.

use asymshare_crypto::rng::SecretKey;
use asymshare_gf::{Field, FieldKind, Gf16, Gf256, Gf2p32, Gf65536};
use asymshare_rlnc::{
    BlockDecoder, ChunkedDecoder, ChunkedEncoder, CodingParams, DigestKind, Encoder, FileId,
    ProgressiveDecoder,
};
use proptest::prelude::*;

fn secret(tag: u64) -> SecretKey {
    SecretKey::from_passphrase(&format!("prop-{tag}"))
}

fn arb_data() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 1..2048)
}

fn round_trip_generic<F: Field>(data: &[u8], k: usize, tag: u64) {
    let params = CodingParams::for_data_len(F::KIND, k, data.len()).expect("valid params");
    let enc = Encoder::<F>::new(params, secret(tag), FileId(tag), data).expect("encoder");
    let msgs = enc.encode_batch(0, k).expect("batch");
    let mut dec = BlockDecoder::<F>::new(params, secret(tag), FileId(tag), data.len());
    for m in msgs {
        assert!(dec.add_message(m).expect("accept"));
    }
    assert_eq!(dec.decode().expect("decode"), data);
}

/// Block and progressive decoders against each other and the data, for
/// parameters whose capacity exceeds the data: `data_len` decides how many
/// pieces are whole, whether one is cut short, and how many are padding
/// only (which the block decoder does not compute).
fn block_matches_progressive_with_padding<F: Field>(m: usize, k: usize, tag: u64) {
    let params = CodingParams::new(F::KIND, m, k).expect("valid params");
    let (piece, capacity) = (params.payload_bytes(), params.capacity_bytes());
    let mut lens = vec![
        1,
        piece - 1,
        piece,
        piece + 1,
        capacity - piece,
        capacity - 1,
        capacity,
    ];
    lens.sort_unstable();
    lens.dedup(); // one-byte pieces make neighbours coincide
    for data_len in lens.into_iter().filter(|n| (1..=capacity).contains(n)) {
        let data: Vec<u8> = (0..data_len).map(|i| (i * 29 + 3) as u8).collect();
        let enc = Encoder::<F>::new(params, secret(tag), FileId(tag), &data).expect("encoder");
        let mut prog = ProgressiveDecoder::<F>::new(params, secret(tag), FileId(tag), data_len);
        let mut block = BlockDecoder::<F>::new(params, secret(tag), FileId(tag), data_len);
        for msg in enc.encode_batch(0, k).expect("batch") {
            prog.add_message(msg.clone()).expect("progressive accepts");
            block.add_message(msg).expect("block accepts");
        }
        let what = format!("{} m={m} k={k} data_len={data_len}", F::KIND);
        assert_eq!(prog.decode().expect("progressive decode"), data, "{what}");
        assert_eq!(block.decode().expect("block decode"), data, "{what}");
    }
}

#[test]
fn block_matches_progressive_with_partial_and_padding_pieces() {
    // 24-byte pieces in every field; k below, at and above a row group.
    for k in [1, 5, 8, 11, 33] {
        block_matches_progressive_with_padding::<Gf16>(48, k, 41);
        block_matches_progressive_with_padding::<Gf256>(24, k, 42);
        block_matches_progressive_with_padding::<Gf65536>(12, k, 43);
        block_matches_progressive_with_padding::<Gf2p32>(6, k, 44);
    }
    // Table II's extreme corner at the smallest legal `m`: the largest
    // `k × k` inversion the paper bins run, on one-byte pieces.
    block_matches_progressive_with_padding::<Gf16>(2, 256, 45);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn round_trips_any_data_gf2p32(data in arb_data(), k in 1usize..12, tag in any::<u64>()) {
        round_trip_generic::<Gf2p32>(&data, k, tag);
    }

    #[test]
    fn round_trips_any_data_gf256(data in arb_data(), k in 1usize..12, tag in any::<u64>()) {
        round_trip_generic::<Gf256>(&data, k, tag);
    }

    #[test]
    fn round_trips_any_data_gf16(data in arb_data(), k in 1usize..12, tag in any::<u64>()) {
        round_trip_generic::<Gf16>(&data, k, tag);
    }

    #[test]
    fn round_trips_any_data_gf65536(data in arb_data(), k in 1usize..12, tag in any::<u64>()) {
        round_trip_generic::<Gf65536>(&data, k, tag);
    }

    /// Progressive and block decoders agree on arbitrary message orderings.
    #[test]
    fn progressive_matches_block_any_order(
        data in arb_data(),
        k in 2usize..10,
        order_seed in any::<u64>(),
        tag in any::<u64>(),
    ) {
        let params = CodingParams::for_data_len(FieldKind::Gf2p32, k, data.len()).unwrap();
        let enc = Encoder::<Gf2p32>::new(params, secret(tag), FileId(1), &data).unwrap();
        let mut msgs = enc.encode_batch(0, k).unwrap();
        // Fisher–Yates with a simple xorshift.
        let mut s = order_seed | 1;
        for i in (1..msgs.len()).rev() {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            msgs.swap(i, (s % (i as u64 + 1)) as usize);
        }
        let mut prog = ProgressiveDecoder::<Gf2p32>::new(params, secret(tag), FileId(1), data.len());
        let mut block = BlockDecoder::<Gf2p32>::new(params, secret(tag), FileId(1), data.len());
        for m in msgs {
            prog.add_message(m.clone()).unwrap();
            block.add_message(m).unwrap();
        }
        prop_assert_eq!(prog.decode().unwrap(), data.clone());
        prop_assert_eq!(block.decode().unwrap(), data);
    }

    /// Any k-subset of a larger dissemination set decodes (GF(2^32): random
    /// square submatrices are nonsingular with overwhelming probability, and
    /// the decoder reports rather than corrupts in the rare singular case).
    #[test]
    fn random_k_subset_decodes(
        data in proptest::collection::vec(any::<u8>(), 64..512),
        pick_seed in any::<u64>(),
        tag in any::<u64>(),
    ) {
        let k = 4usize;
        let params = CodingParams::for_data_len(FieldKind::Gf2p32, k, data.len()).unwrap();
        let enc = Encoder::<Gf2p32>::new(params, secret(tag), FileId(1), &data).unwrap();
        let all: Vec<_> = enc.encode_for_peers(3).unwrap().into_iter().flatten().collect();
        let mut s = pick_seed | 1;
        let mut picked = std::collections::BTreeSet::new();
        while picked.len() < k {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            picked.insert((s % all.len() as u64) as usize);
        }
        let mut dec = BlockDecoder::<Gf2p32>::new(params, secret(tag), FileId(1), data.len());
        for &i in &picked {
            dec.add_message(all[i].clone()).unwrap();
        }
        if dec.is_complete() {
            prop_assert_eq!(dec.decode().unwrap(), data);
        }
    }

    /// Chunked pipeline round-trips with authentication for arbitrary sizes.
    #[test]
    fn chunked_round_trip(
        data in proptest::collection::vec(any::<u8>(), 1..6000),
        chunk_size in 512usize..2048,
        tag in any::<u64>(),
    ) {
        let mut enc = ChunkedEncoder::<Gf2p32>::with_chunk_size(
            FieldKind::Gf2p32, 4, DigestKind::Md5, secret(tag), FileId(tag), &data, chunk_size,
        ).unwrap();
        let peers = enc.encode_for_peers(1).unwrap();
        let mut dec = ChunkedDecoder::<Gf2p32>::new(enc.manifest().clone(), secret(tag)).unwrap();
        for m in peers.into_iter().next().unwrap() {
            dec.add_message(m).unwrap();
        }
        prop_assert_eq!(dec.decode().unwrap(), data);
    }

    /// Flipping any single byte of any message is always caught by the
    /// digest check.
    #[test]
    fn any_single_byte_tamper_detected(
        data in proptest::collection::vec(any::<u8>(), 64..256),
        victim in any::<u64>(),
        byte in any::<u64>(),
        bit in 0u8..8,
        tag in any::<u64>(),
    ) {
        let mut enc = ChunkedEncoder::<Gf2p32>::with_chunk_size(
            FieldKind::Gf2p32, 4, DigestKind::Md5, secret(tag), FileId(tag), &data, 4096,
        ).unwrap();
        let msgs = enc.encode_chunk_batch(0, 4).unwrap();
        let mut dec = ChunkedDecoder::<Gf2p32>::new(enc.manifest().clone(), secret(tag)).unwrap();
        let v = (victim % msgs.len() as u64) as usize;
        let mut payload = msgs[v].payload().to_vec();
        let b = (byte % payload.len() as u64) as usize;
        payload[b] ^= 1 << bit;
        let forged = asymshare_rlnc::EncodedMessage::new(
            FileId(tag), msgs[v].message_id(), payload,
        );
        prop_assert!(dec.add_message(forged).is_err());
    }

    /// Decoding with the wrong secret never reveals the plaintext.
    #[test]
    fn wrong_secret_never_reveals_plaintext(
        data in proptest::collection::vec(any::<u8>(), 64..256),
        tag in any::<u64>(),
        wrong in any::<u64>(),
    ) {
        prop_assume!(tag != wrong);
        let k = 4usize;
        let params = CodingParams::for_data_len(FieldKind::Gf2p32, k, data.len()).unwrap();
        let enc = Encoder::<Gf2p32>::new(params, secret(tag), FileId(1), &data).unwrap();
        let msgs = enc.encode_batch(0, k).unwrap();
        let mut dec = BlockDecoder::<Gf2p32>::new(params, secret(wrong), FileId(1), data.len());
        for m in msgs {
            let _ = dec.add_message(m);
        }
        if dec.is_complete() {
            prop_assert_ne!(dec.decode().unwrap(), data);
        }
    }
}
