//! Microbenchmarks of the finite-field symbol operations: multiply,
//! inversion, and the per-symbol `axpy_slice` the `k × k` linear algebra
//! runs on (payload bytes go through `block::combine`; see `rlnc_codec`).

use asymshare_gf::{Field, Gf16, Gf256, Gf2p32, Gf65536};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

fn bench_field<F: Field>(c: &mut Criterion, name: &str) {
    let mut group = c.benchmark_group(format!("gf/{name}"));

    // Deterministic "random" operands.
    let xs: Vec<F> = (1..=4096u64)
        .map(|i| {
            let v = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            F::from_u64(v)
        })
        .collect();
    let coeff = F::from_u64(0xDEAD_BEEF_1234_5677 & (F::ORDER - 1)).max(F::ONE);

    group.throughput(Throughput::Elements(xs.len() as u64));
    group.bench_function("mul", |b| {
        b.iter(|| {
            let mut acc = F::ONE;
            for &x in &xs {
                acc *= black_box(x) + F::ONE;
            }
            black_box(acc)
        })
    });

    group.throughput(Throughput::Elements(256));
    group.bench_function("inv", |b| {
        b.iter(|| {
            let mut acc = F::ONE;
            for &x in xs.iter().take(256) {
                if !x.is_zero() {
                    acc += black_box(x).inv();
                }
            }
            black_box(acc)
        })
    });

    group.throughput(Throughput::Elements(xs.len() as u64));
    group.bench_function("axpy_4096", |b| {
        let mut y = vec![F::ZERO; xs.len()];
        b.iter(|| {
            F::axpy_slice(black_box(coeff), &xs, &mut y);
            black_box(y[0])
        })
    });

    group.finish();
}

fn benches(c: &mut Criterion) {
    bench_field::<Gf16>(c, "2^4");
    bench_field::<Gf256>(c, "2^8");
    bench_field::<Gf65536>(c, "2^16");
    bench_field::<Gf2p32>(c, "2^32");
}

criterion_group!(gf_ops, benches);
criterion_main!(gf_ops);
