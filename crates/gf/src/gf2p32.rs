//! GF(2³²) — 32-bit symbols, modulus x³² + x²² + x² + x + 1, windowed
//! carry-less multiplication, shift-xor fold reduction and extended-Euclid
//! inversion.
//!
//! This is the field the paper recommends for the fastest decoding of 1 MB
//! data blocks (Table II): the largest symbols give the smallest `k`, and the
//! cost of wider field operations is more than repaid by the k² factor in
//! decoding work.

use crate::field::{Field, FieldKind};
use crate::impl_field_ops;
use crate::poly;

/// The primitive polynomial x³² + x²² + x² + x + 1 (maximal-length LFSR taps
/// 32, 22, 2, 1), including the leading term.
pub const MODULUS: u64 = 0x1_0040_0007;

/// An element of GF(2³²).
///
/// # Example
///
/// ```rust
/// use asymshare_gf::{Field, Gf2p32};
///
/// let a = Gf2p32::new(0xdead_beef);
/// let b = Gf2p32::new(0x0bad_f00d);
/// assert_eq!((a * b) / b, a);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Gf2p32(u32);

impl Gf2p32 {
    /// Constructs an element from a 32-bit pattern.
    pub fn new(v: u32) -> Self {
        Gf2p32(v)
    }

    /// The raw 32-bit pattern.
    pub fn raw(self) -> u32 {
        self.0
    }

    #[inline]
    fn mul_internal(self, rhs: Self) -> Self {
        Gf2p32(mul32(self.0, rhs.0))
    }
}

/// The 4-bit multiplication window of `c`: entry `i` is the carry-less
/// product `c · i`, of degree ≤ 34. Sixteen shifts and xors to build; the
/// slice kernels build one per coefficient, not per symbol.
#[inline]
fn window(c: u32) -> [u64; 16] {
    let mut table = [0u64; 16];
    for i in 1..16usize {
        table[i] = (table[i >> 1] << 1) ^ if i & 1 == 1 { c as u64 } else { 0 };
    }
    table
}

/// The field product `c · x` from `c`'s window: eight lookups, one per
/// nibble of `x`, give the carry-less product (degree ≤ 62), and
/// [`reduce64`] folds it.
#[inline]
fn mul_window(table: &[u64; 16], x: u32) -> u32 {
    reduce64((0..8).fold(0, |acc, nibble| {
        acc ^ (table[((x >> (4 * nibble)) & 0xf) as usize] << (4 * nibble))
    }))
}

/// Reduces a ≤ 62-degree product to a field element.
///
/// Folds the bits above x³¹ down with x³² ≡ x²² + x² + x + 1, a shift-xor per
/// term. Each fold lowers the excess degree by ten (30 → 20 → 10 → 0 → none),
/// so four folds always suffice and none branches on the value.
#[inline]
fn reduce64(mut v: u64) -> u32 {
    for _ in 0..4 {
        let hi = v >> 32;
        v = (v & 0xffff_ffff) ^ (hi << 22) ^ (hi << 2) ^ (hi << 1) ^ hi;
    }
    v as u32
}

#[inline]
fn mul32(a: u32, b: u32) -> u32 {
    mul_window(&window(a), b)
}

/// Byte-sliced multiplication tables for a fixed coefficient: entry
/// `t[j][b]` is `c · (b << 8j)` in the field, so a full product is four
/// lookups and three xors. Building costs 32 field multiplications plus
/// ~1 K xors (multiplication is linear over GF(2), so non-power-of-two
/// entries are xor combinations of the single-bit ones); the bulk kernels
/// amortize that over whole symbol slices.
fn split_table(c: u32) -> [[u32; 256]; 4] {
    let mut t = [[0u32; 256]; 4];
    for (j, table) in t.iter_mut().enumerate() {
        for i in 0..8 {
            table[1usize << i] = mul32(c, 1u32 << (8 * j + i));
        }
        for b in 1..256usize {
            let low = b & b.wrapping_neg();
            if b != low {
                table[b] = table[b ^ low] ^ table[low];
            }
        }
    }
    t
}

#[inline]
fn split_mul(t: &[[u32; 256]; 4], x: u32) -> u32 {
    t[0][(x & 0xff) as usize]
        ^ t[1][((x >> 8) & 0xff) as usize]
        ^ t[2][((x >> 16) & 0xff) as usize]
        ^ t[3][(x >> 24) as usize]
}

/// Below this many symbols the split-table build does not pay for itself.
const SPLIT_TABLE_THRESHOLD: usize = 64;

impl Field for Gf2p32 {
    const ZERO: Self = Gf2p32(0);
    const ONE: Self = Gf2p32(1);
    const BITS: u32 = 32;
    const ORDER: u64 = 1 << 32;
    const KIND: FieldKind = FieldKind::Gf2p32;

    fn from_u64(v: u64) -> Self {
        Gf2p32((v & 0xffff_ffff) as u32)
    }

    fn to_u64(self) -> u64 {
        self.0 as u64
    }

    fn inv(self) -> Self {
        assert!(self.0 != 0, "inverse of zero in GF(2^32)");
        let inv = poly::invmod(self.0 as u64, MODULUS).expect("nonzero element is invertible");
        Gf2p32(inv as u32)
    }

    fn axpy_slice(c: Self, x: &[Self], y: &mut [Self]) {
        assert_eq!(x.len(), y.len(), "axpy slices must have equal length");
        if c.0 == 0 {
            return;
        }
        if c.0 == 1 {
            for (yi, &xi) in y.iter_mut().zip(x) {
                yi.0 ^= xi.0;
            }
            return;
        }
        if x.len() >= SPLIT_TABLE_THRESHOLD {
            let t = split_table(c.0);
            for (yi, &xi) in y.iter_mut().zip(x) {
                yi.0 ^= split_mul(&t, xi.0);
            }
            return;
        }
        let w = window(c.0);
        for (yi, &xi) in y.iter_mut().zip(x) {
            yi.0 ^= mul_window(&w, xi.0);
        }
    }

    fn scale_slice(c: Self, y: &mut [Self]) {
        if c.0 == 1 {
            return;
        }
        if y.len() >= SPLIT_TABLE_THRESHOLD {
            let t = split_table(c.0);
            for yi in y.iter_mut() {
                yi.0 = split_mul(&t, yi.0);
            }
            return;
        }
        let w = window(c.0);
        for yi in y.iter_mut() {
            yi.0 = mul_window(&w, yi.0);
        }
    }
}

impl_field_ops!(Gf2p32);

impl From<u32> for Gf2p32 {
    fn from(v: u32) -> Self {
        Gf2p32(v)
    }
}

impl From<Gf2p32> for u32 {
    fn from(v: Gf2p32) -> Self {
        v.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn modulus_is_irreducible() {
        assert!(poly::is_irreducible(MODULUS));
    }

    #[test]
    fn mul_matches_generic_poly_mul() {
        let samples = [
            0u64,
            1,
            2,
            3,
            0xdead_beef,
            0xffff_ffff,
            0x8000_0000,
            0x0001_0001,
            0x7fff_ffff,
        ];
        for &a in &samples {
            for &b in &samples {
                let expect = poly::mulmod(a, b, MODULUS);
                let got = (Gf2p32::from_u64(a) * Gf2p32::from_u64(b)).to_u64();
                assert_eq!(got, expect, "a={a:#x} b={b:#x}");
            }
        }
    }

    #[test]
    fn inverses_round_trip() {
        for &a in &[1u32, 2, 3, 0xdead_beef, 0xffff_ffff, 0x1234_5678] {
            let x = Gf2p32::new(a);
            assert_eq!(x * x.inv(), Gf2p32::ONE, "a={a:#x}");
        }
    }

    #[test]
    fn mul_by_x_is_shift_then_reduce() {
        let x = Gf2p32::new(2);
        let top = Gf2p32::new(0x8000_0000);
        // x * x^31 = x^32 = x^22 + x^2 + x + 1
        assert_eq!(x * top, Gf2p32::new(0x0040_0007));
    }

    #[test]
    fn distributivity_sampled() {
        let vals = [0x1u32, 0xdead_beef, 0x8000_0001, 0x7777_7777];
        for &a in &vals {
            for &b in &vals {
                for &c in &vals {
                    let (a, b, c) = (Gf2p32::new(a), Gf2p32::new(b), Gf2p32::new(c));
                    assert_eq!(a * (b + c), a * b + a * c);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "inverse of zero")]
    fn zero_inverse_panics() {
        Gf2p32::ZERO.inv();
    }

    #[test]
    fn split_table_matches_mul_exhaustively_per_byte_lane() {
        for &c in &[1u32, 2, 0xdead_beef, u32::MAX, 0x8000_0001] {
            let t = split_table(c);
            for &x in &[
                0u32,
                1,
                0xff,
                0x100,
                0x1_0000,
                0x0100_0000,
                0x1234_5678,
                u32::MAX,
            ] {
                assert_eq!(split_mul(&t, x), mul32(c, x), "c={c:#x} x={x:#x}");
            }
        }
    }

    /// Operands that every case mixes in: the identities, and the all-ones
    /// and top-bit patterns, whose products reach degree 62, the most a
    /// fold ever sees.
    const EDGES: [u32; 5] = [0, 1, 0xffff_ffff, 0x8000_0000, 0x8000_0001];

    fn oracle(c: u32, x: u32) -> u32 {
        poly::mulmod(c as u64, x as u64, MODULUS) as u32
    }

    proptest! {
        #[test]
        fn products_match_mulmod(
            c in (0..2 * EDGES.len(), any::<u32>())
                .prop_map(|(i, random)| EDGES.get(i).copied().unwrap_or(random)),
            xs in proptest::collection::vec(any::<u32>(), SPLIT_TABLE_THRESHOLD..3 * SPLIT_TABLE_THRESHOLD),
            y0 in any::<u32>(),
        ) {
            let xs: Vec<u32> = EDGES.iter().copied().chain(xs).collect();
            for &x in &xs {
                prop_assert_eq!((Gf2p32(c) * Gf2p32(x)).0, oracle(c, x));
            }
            // A prefix below the threshold takes the window kernel, the
            // whole slice the split table.
            for len in [SPLIT_TABLE_THRESHOLD - 1, xs.len()] {
                let x: Vec<Gf2p32> = xs[..len].iter().map(|&v| Gf2p32(v)).collect();
                let mut y: Vec<Gf2p32> = (0..len as u32).map(|i| Gf2p32(y0.rotate_left(i))).collect();
                let axpy: Vec<u32> = y.iter().zip(&xs).map(|(yi, &xi)| yi.0 ^ oracle(c, xi)).collect();
                Gf2p32::axpy_slice(Gf2p32(c), &x, &mut y);
                prop_assert_eq!(y.iter().map(|v| v.0).collect::<Vec<_>>(), axpy);
                let mut scaled = x;
                Gf2p32::scale_slice(Gf2p32(c), &mut scaled);
                let want: Vec<u32> = xs[..len].iter().map(|&xi| oracle(c, xi)).collect();
                prop_assert_eq!(scaled.iter().map(|v| v.0).collect::<Vec<_>>(), want);
            }
        }
    }

    #[test]
    fn long_axpy_uses_split_path_and_matches_scalar() {
        let c = Gf2p32::new(0xCAFE_BABE);
        let xs: Vec<Gf2p32> = (0..SPLIT_TABLE_THRESHOLD as u32 * 3)
            .map(|i| Gf2p32::new(i.wrapping_mul(0x9E37_79B9) | 1))
            .collect();
        let mut fast = vec![Gf2p32::ZERO; xs.len()];
        Gf2p32::axpy_slice(c, &xs, &mut fast);
        let slow: Vec<Gf2p32> = xs.iter().map(|&x| c * x).collect();
        assert_eq!(fast, slow);
    }
}
