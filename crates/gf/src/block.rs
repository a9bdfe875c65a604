//! The block kernel for the paper's Eq. (1): all outputs of a coding block
//! from all of its inputs in one pass, `out_j = Σ_i c_ji · in_i`, over the
//! packed little-endian payload bytes the codec stores and sends.
//!
//! Encoding a batch (`r` coefficient rows over the `k` pieces of a chunk)
//! and decoding a chunk (`β⁻¹` over the `k` held payloads) are the same
//! computation, and every output reads the same inputs. Multiplication by a
//! constant is GF(2)-linear, so the contribution of one input *byte* to a
//! whole group of outputs is a fixed 32-byte vector: one lookup indexed by
//! that byte replaces one lookup per output.
//!
//! A *unit* is the `u` bytes holding one symbol (GF(2⁴) packs two symbols
//! into a one-byte unit, which is still GF(2)-linear in the byte). Up to
//! `G = 32 / u` output rows form a group. For a group, every input `i` and
//! byte position `p < u` get a 256-entry table whose entry `b` is the
//! concatenation, over the group's rows `j`, of the unit `c_ji · (b << 8p)`.
//! The inner loop XORs `k · u` entries into a 32-byte accumulator per unit
//! index and scatters its `G` units to the output slices: `k · u` lookups
//! per 32 output bytes, against `k` lookups per `u` output bytes for `k`
//! separate `axpy_slice` passes per output.
//!
//! The table set is `k · u · 8 KiB` (256 KiB at `k = 8` in GF(2³²) and at
//! `k = 32` in GF(2⁸)) and lives in L2; unit indices are processed in tiles
//! with the input loop outside the index loop, so the accumulator tile
//! (8 KiB) and one input's `u` tables (≤ 32 KiB) stay in L1.
//!
//! Set-up per group is that fill and little else: each coefficient's
//! single-bit products `c · x^j` come from `c` by doubling (a shift and a
//! conditional XOR; one field multiplication per group, for the constant a
//! doubling folds in), 8 of them seed each table and 247 XORs of entries
//! complete it. On a 64 KiB GF(2³²) `k = 8` block the fill is about a
//! third of the call; on 1 MiB it is noise.
//!
//! The tables are functions of the coefficients. The codec's coefficients
//! are secret (β rows, β⁻¹), so a [`Scratch`] belongs to the owner-side
//! caller and is never serialized — like `axpy_slice`'s per-call tables.
//!
//! # Example
//!
//! ```rust
//! use asymshare_gf::{block, Gf256};
//!
//! // out = 1·a + 2·b over two 3-byte payloads.
//! let (a, b) = ([1u8, 2, 3], [4u8, 5, 6]);
//! let mut out = [0u8; 3];
//! block::combine(
//!     &[Gf256::new(1), Gf256::new(2)],
//!     &[&a, &b],
//!     &mut [&mut out],
//!     &mut block::Scratch::new(),
//! );
//! assert_eq!(out, [1 ^ 8, 2 ^ 10, 3 ^ 12]);
//! ```

use crate::Field;

/// Bytes per table entry and per accumulator: one group's outputs for one
/// unit index.
const ENTRY_BYTES: usize = 32;

/// Unit indices per tile. 256 accumulators are 8 KiB, which together with
/// the `u` tables of the input being applied fits a 48 KiB L1.
const TILE: usize = 256;

/// One table entry or accumulator: the units of up to `G` output rows, row
/// `r` at byte offset `r · u`, little-endian within and across the lanes.
/// Aligned so that no entry straddles a cache line.
#[derive(Clone, Copy)]
#[repr(C, align(32))]
struct Entry([u64; ENTRY_BYTES / 8]);

impl Entry {
    const ZERO: Entry = Entry([0; ENTRY_BYTES / 8]);

    #[inline(always)]
    fn xor(&mut self, other: &Entry) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a ^= b;
        }
    }
}

/// The lookup tables of [`combine`], kept by the caller so that a worker
/// combining many blocks allocates them once.
///
/// Holds values derived from the coefficients of the last call.
#[derive(Default)]
pub struct Scratch {
    tables: Vec<[Entry; 256]>,
}

impl Scratch {
    /// An empty scratch; the first [`combine`] sizes it.
    pub fn new() -> Scratch {
        Scratch::default()
    }
}

impl core::fmt::Debug for Scratch {
    /// Sizes only: the contents are coefficient-derived.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Scratch")
            .field("tables", &self.tables.len())
            .finish()
    }
}

/// Computes `outputs[j] = Σ_i coeffs[j · k + i] · inputs[i]` for every `j`,
/// where `k = inputs.len()`, `coeffs` is the row-major `r × k` coefficient
/// matrix with `r = outputs.len()`, and every slice holds the same number
/// of packed little-endian symbols of `F`. Outputs are overwritten.
///
/// # Panics
///
/// Panics if `coeffs.len() != r · k`, if the slices differ in length, or
/// if that length is not a whole number of symbols.
pub fn combine<F: Field>(
    coeffs: &[F],
    inputs: &[&[u8]],
    outputs: &mut [&mut [u8]],
    scratch: &mut Scratch,
) {
    match F::BITS {
        4 | 8 => combine_units::<F, 1>(coeffs, inputs, outputs, scratch),
        16 => combine_units::<F, 2>(coeffs, inputs, outputs, scratch),
        32 => combine_units::<F, 4>(coeffs, inputs, outputs, scratch),
        bits => unreachable!("unsupported symbol width: {bits}"),
    }
}

/// [`combine`] for units of `U` bytes.
fn combine_units<F: Field, const U: usize>(
    coeffs: &[F],
    inputs: &[&[u8]],
    outputs: &mut [&mut [u8]],
    scratch: &mut Scratch,
) {
    let k = inputs.len();
    assert_eq!(
        coeffs.len(),
        outputs.len() * k,
        "coefficient matrix must be outputs × inputs"
    );
    let Some(len) = outputs.first().map(|out| out.len()) else {
        return;
    };
    assert!(
        inputs.iter().all(|input| input.len() == len) && outputs.iter().all(|out| out.len() == len),
        "combine slices must have equal length"
    );
    assert!(
        len.is_multiple_of(U),
        "combine length must be a whole number of {U}-byte symbols"
    );
    if k == 0 {
        outputs.iter_mut().for_each(|out| out.fill(0));
        return;
    }
    let group = ENTRY_BYTES / U;
    scratch.tables.resize(k * U, [Entry::ZERO; 256]);
    for (rows, outs) in coeffs.chunks(group * k).zip(outputs.chunks_mut(group)) {
        build_tables::<F, U>(rows, k, &mut scratch.tables);
        let mut acc = [Entry::ZERO; TILE];
        for start in (0..len).step_by(TILE * U) {
            let end = (start + TILE * U).min(len);
            let acc = &mut acc[..(end - start) / U];
            acc.fill(Entry::ZERO);
            for (input, tables) in inputs.iter().zip(scratch.tables.chunks_exact(U)) {
                let tables: &[[Entry; 256]; U] = tables.try_into().expect("U tables per input");
                for (a, unit) in acc.iter_mut().zip(input[start..end].chunks_exact(U)) {
                    // One load of the unit, then a shift per byte.
                    let mut bytes = [0u8; 4];
                    bytes[..U].copy_from_slice(unit);
                    let word = u32::from_le_bytes(bytes);
                    for (p, table) in tables.iter().enumerate() {
                        a.xor(&table[(word >> (8 * p)) as usize & 0xff]);
                    }
                }
            }
            for (r, out) in outs.iter_mut().enumerate() {
                let (lane, shift) = (r * U / 8, r * U % 8 * 8);
                for (dst, a) in out[start..end].chunks_exact_mut(U).zip(acc.iter()) {
                    dst.copy_from_slice(&(a.0[lane] >> shift).to_le_bytes()[..U]);
                }
            }
        }
    }
}

/// `x^BITS` reduced by the field's modulus: what a doubling folds back in
/// when the top bit leaves. The one multiplication of a table set-up.
fn fold_constant<F: Field>() -> u64 {
    (F::from_u64(1 << (F::BITS - 1)) * F::from_u64(2)).to_u64()
}

/// Writes `c · x^j` to `products[j]` for every `j < products.len()`, each
/// from the one before by doubling: shift, and when the top bit leaves,
/// XOR `fold` ([`fold_constant`]) back in.
fn doublings<F: Field>(c: F, fold: u64, products: &mut [u64]) {
    let top = 1u64 << (F::BITS - 1);
    let mut v = c.to_u64();
    for product in products {
        *product = v;
        v = ((v & !top) << 1) ^ if v & top != 0 { fold } else { 0 };
    }
}

/// Fills `tables[i · U + p][b]` for the group whose `g × k` coefficient
/// rows are `rows`: the `BITS` single-bit products of each coefficient by
/// doubling, 8 of them per row and table, the other 247 entries by XOR of
/// those (multiplication is linear over GF(2)).
fn build_tables<F: Field, const U: usize>(rows: &[F], k: usize, tables: &mut [[Entry; 256]]) {
    let fold = fold_constant::<F>();
    let bits = F::BITS as usize;
    // A group is at most `32 / U` rows of `BITS ≤ 8 · U` products each.
    let mut products = [0u64; 8 * ENTRY_BYTES];
    let products = &mut products[..rows.len() / k * bits];
    for (i, tables) in tables.chunks_exact_mut(U).enumerate() {
        for (row, products) in rows.chunks_exact(k).zip(products.chunks_exact_mut(bits)) {
            doublings(row[i], fold, products);
        }
        for (p, table) in tables.iter_mut().enumerate() {
            table[0] = Entry::ZERO;
            for bit in 0..8 {
                let mut entry = Entry::ZERO;
                for (r, products) in products.chunks_exact(bits).enumerate() {
                    let unit = if F::BITS == 4 {
                        // Two symbols per byte: bits 4..8 are the second one.
                        products[bit % 4] << (bit / 4 * 4)
                    } else {
                        products[8 * p + bit]
                    };
                    entry.0[r * U / 8] |= unit << (r * U % 8 * 8);
                }
                table[1 << bit] = entry;
            }
            for b in 1..256usize {
                let low = b & b.wrapping_neg();
                if b != low {
                    let mut entry = table[b ^ low];
                    entry.xor(&table[low]);
                    table[b] = entry;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    // The differential tests against `axpy_slice` are in
    // `tests/block_equiv.rs`; these are the shapes that have no oracle.
    use super::*;
    use crate::{Gf16, Gf256, Gf2p32, Gf65536};

    /// The table set-up's two ingredients against the field's own
    /// multiplication: every doubling, and the constant it folds in.
    fn doublings_are_products_by_powers_of_x<F: Field>(modulus: u64) {
        let fold = fold_constant::<F>();
        assert_eq!(fold, modulus ^ (1 << F::BITS), "x^BITS mod the modulus");
        let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ modulus;
        for _ in 0..200 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let c = F::from_u64(state);
            let mut products = [0u64; 32];
            let products = &mut products[..F::BITS as usize];
            doublings(c, fold, products);
            for (j, &product) in products.iter().enumerate() {
                assert_eq!(product, (c * F::from_u64(1 << j)).to_u64(), "{c:?}·x^{j}");
            }
        }
    }

    #[test]
    fn doubling_matches_field_multiplication_in_all_four_fields() {
        doublings_are_products_by_powers_of_x::<Gf16>(crate::gf16::MODULUS.into());
        doublings_are_products_by_powers_of_x::<Gf256>(crate::gf256::MODULUS.into());
        doublings_are_products_by_powers_of_x::<Gf65536>(crate::gf65536::MODULUS);
        doublings_are_products_by_powers_of_x::<Gf2p32>(crate::gf2p32::MODULUS);
    }

    #[test]
    fn no_inputs_is_zero_and_no_outputs_is_a_no_op() {
        let mut out = [7u8; 8];
        combine::<Gf2p32>(&[], &[], &mut [&mut out], &mut Scratch::new());
        assert_eq!(out, [0; 8], "an empty sum is zero");
        combine::<Gf2p32>(&[], &[&out[..]], &mut [], &mut Scratch::new());
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn unequal_lengths_panic() {
        let mut out = [0u8; 4];
        combine(
            &[Gf256::ONE],
            &[&[1u8, 2, 3][..]],
            &mut [&mut out],
            &mut Scratch::new(),
        );
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn ragged_symbols_panic() {
        let mut out = [0u8; 6];
        combine(
            &[Gf2p32::ONE],
            &[&[0u8; 6][..]],
            &mut [&mut out],
            &mut Scratch::new(),
        );
    }
}
