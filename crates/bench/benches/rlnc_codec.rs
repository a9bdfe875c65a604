//! Criterion version of Table II: 1 MB encode/decode at the paper's
//! recommended parameters, plus the GF(2³²) column sweep. The `table2`
//! binary prints the full 24-cell grid; this bench gives statistically
//! solid numbers for the headline cells.

use asymshare_crypto::rng::SecretKey;
use asymshare_gf::{block, Field, FieldKind, Gf16, Gf256, Gf2p32, Gf65536};
use asymshare_rlnc::{
    BlockDecoder, ChunkedDecoder, ChunkedEncoder, CodingParams, DigestKind, EncodedMessage,
    Encoder, FileId, MessageDigest, MessageId, MEGABYTE,
};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

fn data_1mb() -> Vec<u8> {
    (0..MEGABYTE).map(|i| (i * 131 % 251) as u8).collect()
}

fn bench_cell<F: Field>(c: &mut Criterion, m: usize) {
    let params = CodingParams::for_1mb(F::KIND, m).expect("valid cell");
    let k = params.k();
    let name = format!("rlnc/1MB/{}/m2e{}", F::KIND, m.trailing_zeros());
    let data = data_1mb();
    let secret = SecretKey::from_passphrase("bench");
    let encoder = Encoder::<F>::new(params, secret.clone(), FileId(1), &data).expect("encoder");
    let batch = encoder.encode_batch(0, k).expect("batch");

    let mut group = c.benchmark_group(name);
    group.sample_size(10);
    group.throughput(Throughput::Bytes(MEGABYTE as u64));
    group.bench_function("encode", |b| {
        b.iter(|| black_box(encoder.encode_batch(0, k).expect("batch")))
    });
    group.bench_function("decode", |b| {
        b.iter(|| {
            let mut dec = BlockDecoder::<F>::new(params, secret.clone(), FileId(1), data.len());
            for msg in batch.clone() {
                dec.add_message(msg).expect("accept");
            }
            black_box(dec.decode().expect("decode"))
        })
    });
    group.finish();
}

/// One coding block at the shape every benchmark workload uses — GF(2³²),
/// `k = 8` — at the 64 KiB rung, where building the kernel's tables rivals
/// the product, and at 1 MiB, where it is noise. `decode` keeps one
/// `block::Scratch` and one output buffer across iterations, as the chunk
/// pipeline's workers do; `encode` is the public `encode_batch`, which
/// allocates its scratch per call.
fn bench_block(c: &mut Criterion) {
    let mut group = c.benchmark_group("rlnc/block/2^32/k8");
    for (label, len) in [("64KiB", 64 << 10), ("1MiB", MEGABYTE)] {
        let params = CodingParams::for_data_len(FieldKind::Gf2p32, 8, len).expect("valid shape");
        let data: Vec<u8> = (0..len).map(|i| (i * 131 % 251) as u8).collect();
        let secret = SecretKey::from_passphrase("bench");
        let encoder =
            Encoder::<Gf2p32>::new(params, secret.clone(), FileId(1), &data).expect("encoder");
        let mut decoder = BlockDecoder::<Gf2p32>::new(params, secret, FileId(1), len);
        for msg in encoder.encode_batch(0, 8).expect("batch") {
            decoder.add_message(msg).expect("accept");
        }
        let mut out = vec![0u8; len];
        let mut scratch = block::Scratch::new();
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_function(format!("decode/{label}"), |b| {
            b.iter(|| {
                decoder
                    .decode_into(black_box(&mut out), &mut scratch)
                    .expect("decode")
            })
        });
        group.bench_function(format!("encode/{label}"), |b| {
            b.iter(|| black_box(encoder.encode_batch(0, 8).expect("batch")))
        });
    }
    group.finish();
}

/// The chunked end-to-end pipeline (the parallel encode/decode fan-out):
/// a 4 MB file in 1 MB chunks at GF(2⁸), k = 32, encoded for one peer and
/// decoded chunk-by-chunk.
fn bench_chunked_pipeline(c: &mut Criterion) {
    const FILE_LEN: usize = 4 * MEGABYTE;
    let data: Vec<u8> = (0..FILE_LEN).map(|i| (i * 131 % 251) as u8).collect();
    let secret = SecretKey::from_passphrase("bench");
    let build = || {
        ChunkedEncoder::<Gf256>::new(
            FieldKind::Gf256,
            32,
            DigestKind::Md5,
            secret.clone(),
            FileId(1),
            &data,
        )
        .expect("encoder")
    };
    let mut enc = build();
    let msgs: Vec<_> = enc
        .encode_for_peers(1)
        .expect("batches")
        .into_iter()
        .flatten()
        .collect();
    let manifest = enc.manifest().clone();

    let mut group = c.benchmark_group("rlnc/chunked/4MB/2^8/k32");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(FILE_LEN as u64));
    group.bench_function("encode", |b| {
        b.iter(|| black_box(build().encode_for_peers(1).expect("batches")))
    });
    group.bench_function("decode", |b| {
        b.iter(|| {
            let mut dec =
                ChunkedDecoder::<Gf256>::new(manifest.clone(), secret.clone()).expect("decoder");
            for msg in msgs.clone() {
                dec.add_message(msg).expect("accept");
            }
            black_box(dec.decode().expect("decode"))
        })
    });
    group.finish();
}

/// The per-message MD5 digest (§III-C) of four equally long messages —
/// half a datagram, half an encoded batch — hashed one after another and
/// in the four lanes of one kernel, at the payload sizes of the 64 KiB and
/// 1 MiB chunk rungs (`k = 8`).
fn bench_digest(c: &mut Criterion) {
    for (label, len) in [("8KiB", 8 << 10), ("128KiB", 128 << 10)] {
        let msgs: Vec<EncodedMessage> = (0..4u64)
            .map(|id| {
                let payload: Vec<u8> = (0..len).map(|i| (i as u64 * 131 + id) as u8).collect();
                EncodedMessage::new(FileId(1), MessageId(id), payload)
            })
            .collect();
        let mut group = c.benchmark_group(format!("rlnc/digest/{label}"));
        group.throughput(Throughput::Bytes(4 * len as u64));
        group.bench_function("scalar", |b| {
            b.iter(|| {
                for msg in &msgs {
                    black_box(MessageDigest::compute(DigestKind::Md5, black_box(msg)));
                }
            })
        });
        group.bench_function("4-lane", |b| {
            b.iter(|| MessageDigest::compute_many(DigestKind::Md5, black_box(&msgs)))
        });
        group.finish();
    }
}

fn benches(c: &mut Criterion) {
    // The paper's recommended operating point: q = 2^32, m = 2^15, k = 8.
    bench_cell::<Gf2p32>(c, 1 << 15);
    // One representative cell per field at m = 2^15 (Table II column 3).
    bench_cell::<Gf65536>(c, 1 << 15);
    bench_cell::<Gf256>(c, 1 << 15);
    bench_cell::<Gf16>(c, 1 << 15);
    // GF(2^32) fast corner and slow corner.
    bench_cell::<Gf2p32>(c, 1 << 18);
    bench_cell::<Gf2p32>(c, 1 << 13);
    bench_block(c);
    bench_chunked_pipeline(c);
    bench_digest(c);
}

criterion_group!(rlnc_codec, benches);
criterion_main!(rlnc_codec);
