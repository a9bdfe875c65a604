//! Differential tests for `block::combine`: in all four fields it must
//! equal the formulation it replaced in the codec — unpack every input to
//! symbols, one `Field::axpy_slice` per coefficient, pack the sums — for
//! any number of inputs, for output counts that leave a partial group of
//! rows, fill exactly one, or span several, and for lengths of zero, one
//! unit, and ends that fall inside a tile.

use asymshare_gf::{block, bytes, Field, Gf16, Gf256, Gf2p32, Gf65536};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Unit indices per tile in `block.rs`.
const TILE: usize = 256;

/// Bytes per unit and rows per group of `F`.
fn shape<F: Field>() -> (usize, usize) {
    let unit = (F::BITS as usize / 8).max(1);
    (unit, 32 / unit)
}

/// One `r × k` block over `units` units of seeded bytes; a quarter of the
/// coefficients are zero or one, the values `axpy_slice` special-cases.
fn check<F: Field>(r: usize, k: usize, units: usize, seed: u64, scratch: &mut block::Scratch) {
    let (unit, _) = shape::<F>();
    let len = units * unit;
    let mut rng = StdRng::seed_from_u64(seed);
    let inputs: Vec<Vec<u8>> = (0..k)
        .map(|_| {
            let mut input = vec![0u8; len];
            rng.fill_bytes(&mut input);
            input
        })
        .collect();
    let coeffs: Vec<F> = (0..r * k)
        .map(|_| match rng.next_u64() % 8 {
            0 => F::ZERO,
            1 => F::ONE,
            _ => F::from_u64(rng.next_u64()),
        })
        .collect();

    let mut outputs = vec![vec![0xA5u8; len]; r];
    let ins: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
    let mut outs: Vec<&mut [u8]> = outputs.iter_mut().map(Vec::as_mut_slice).collect();
    block::combine(&coeffs, &ins, &mut outs, scratch);

    let symbols: Vec<Vec<F>> = inputs
        .iter()
        .map(|input| bytes::symbols_from_bytes(input))
        .collect();
    for (j, out) in outputs.iter().enumerate() {
        let mut want = vec![F::ZERO; symbols[0].len()];
        for (i, x) in symbols.iter().enumerate() {
            F::axpy_slice(coeffs[j * k + i], x, &mut want);
        }
        assert_eq!(
            *out,
            bytes::symbols_to_bytes(&want),
            "{} r={r} k={k} units={units} seed={seed:#x} row {j}",
            F::KIND
        );
    }
}

/// The named edges, exhaustively: every row count around the group
/// boundaries against every length around the tile boundaries.
fn edges<F: Field>() {
    let (_, group) = shape::<F>();
    let mut scratch = block::Scratch::new();
    for r in [1, group - 1, group, group + 1, 2 * group, 2 * group + 3] {
        for units in [0, 1, TILE - 1, TILE, TILE + 1, 2 * TILE + 5] {
            for k in [1, 8] {
                check::<F>(r, k, units, (r * 1000 + units) as u64, &mut scratch);
            }
        }
    }
}

#[test]
fn group_and_tile_edges_gf16() {
    edges::<Gf16>();
}

#[test]
fn group_and_tile_edges_gf256() {
    edges::<Gf256>();
}

#[test]
fn group_and_tile_edges_gf65536() {
    edges::<Gf65536>();
}

#[test]
fn group_and_tile_edges_gf2p32() {
    edges::<Gf2p32>();
}

/// Row counts `1..=2G+3` as a fraction, so one strategy serves every field.
fn rows<F: Field>(fraction: u64) -> usize {
    let (_, group) = shape::<F>();
    1 + (fraction % (2 * group as u64 + 3)) as usize
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn matches_axpy_gf16(k in 1usize..=40, r in any::<u64>(), units in 0usize..=600, seed in any::<u64>()) {
        check::<Gf16>(rows::<Gf16>(r), k, units, seed, &mut block::Scratch::new());
    }

    #[test]
    fn matches_axpy_gf256(k in 1usize..=40, r in any::<u64>(), units in 0usize..=600, seed in any::<u64>()) {
        check::<Gf256>(rows::<Gf256>(r), k, units, seed, &mut block::Scratch::new());
    }

    #[test]
    fn matches_axpy_gf65536(k in 1usize..=40, r in any::<u64>(), units in 0usize..=600, seed in any::<u64>()) {
        check::<Gf65536>(rows::<Gf65536>(r), k, units, seed, &mut block::Scratch::new());
    }

    #[test]
    fn matches_axpy_gf2p32(k in 1usize..=40, r in any::<u64>(), units in 0usize..=600, seed in any::<u64>()) {
        check::<Gf2p32>(rows::<Gf2p32>(r), k, units, seed, &mut block::Scratch::new());
    }
}
