//! GF(2⁴) — 4-bit symbols, modulus x⁴ + x + 1, full compile-time tables.

use crate::field::{Field, FieldKind};
use crate::impl_field_ops;

/// The irreducible (and primitive) polynomial x⁴ + x + 1.
pub const MODULUS: u16 = 0b1_0011;

const ORDER: usize = 16;
const GROUP: usize = ORDER - 1;

const fn build_exp() -> [u8; GROUP * 2] {
    let mut exp = [0u8; GROUP * 2];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < GROUP {
        exp[i] = x as u8;
        exp[i + GROUP] = x as u8;
        x <<= 1;
        if x & (1 << 4) != 0 {
            x ^= MODULUS;
        }
        i += 1;
    }
    exp
}

const fn build_log(exp: &[u8; GROUP * 2]) -> [u8; ORDER] {
    let mut log = [0u8; ORDER];
    let mut i = 0;
    while i < GROUP {
        log[exp[i] as usize] = i as u8;
        i += 1;
    }
    log
}

const EXP: [u8; GROUP * 2] = build_exp();
const LOG: [u8; ORDER] = build_log(&EXP);

/// An element of GF(2⁴).
///
/// Stored in the low 4 bits of a byte. Two symbols pack into one byte in the
/// codec's buffers (see [`crate::bytes`]).
///
/// # Example
///
/// ```rust
/// use asymshare_gf::{Field, Gf16};
///
/// let a = Gf16::new(0x9);
/// assert_eq!(a * a.inv(), Gf16::ONE);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Gf16(u8);

impl Gf16 {
    /// Constructs an element from the low 4 bits of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= 16`.
    pub fn new(v: u8) -> Self {
        assert!(v < 16, "Gf16 symbol out of range: {v}");
        Gf16(v)
    }

    /// The raw 4-bit pattern.
    pub fn raw(self) -> u8 {
        self.0
    }

    fn mul_internal(self, rhs: Self) -> Self {
        if self.0 == 0 || rhs.0 == 0 {
            return Gf16(0);
        }
        Gf16(EXP[LOG[self.0 as usize] as usize + LOG[rhs.0 as usize] as usize])
    }
}

impl Field for Gf16 {
    const ZERO: Self = Gf16(0);
    const ONE: Self = Gf16(1);
    const BITS: u32 = 4;
    const ORDER: u64 = 16;
    const KIND: FieldKind = FieldKind::Gf16;

    fn from_u64(v: u64) -> Self {
        Gf16((v & 0xf) as u8)
    }

    fn to_u64(self) -> u64 {
        self.0 as u64
    }

    fn inv(self) -> Self {
        assert!(self.0 != 0, "inverse of zero in GF(2^4)");
        Gf16(EXP[GROUP - LOG[self.0 as usize] as usize])
    }
}

impl_field_ops!(Gf16);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_table_is_a_full_cycle() {
        let mut seen = [false; ORDER];
        for &e in EXP.iter().take(GROUP) {
            let v = e as usize;
            assert!(!seen[v], "exp table repeats before covering the group");
            seen[v] = true;
        }
        assert!(!seen[0], "exp never produces zero");
    }

    #[test]
    fn modulus_is_irreducible() {
        assert!(crate::poly::is_irreducible(MODULUS as u64));
    }

    #[test]
    fn multiplication_matches_polynomial_arithmetic() {
        for a in 0..16u64 {
            for b in 0..16u64 {
                let expect = crate::poly::mulmod(a, b, MODULUS as u64);
                let got = (Gf16::from_u64(a) * Gf16::from_u64(b)).to_u64();
                assert_eq!(got, expect, "a={a} b={b}");
            }
        }
    }

    #[test]
    fn every_nonzero_element_has_inverse() {
        for a in 1..16u8 {
            let x = Gf16::new(a);
            assert_eq!(x * x.inv(), Gf16::ONE);
            assert_eq!(x / x, Gf16::ONE);
        }
    }

    #[test]
    #[should_panic(expected = "inverse of zero")]
    fn zero_inverse_panics() {
        Gf16::ZERO.inv();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_symbol_panics() {
        Gf16::new(16);
    }

    #[test]
    fn addition_is_xor() {
        assert_eq!(Gf16::new(0b1010) + Gf16::new(0b0110), Gf16::new(0b1100));
        assert_eq!(Gf16::new(7) - Gf16::new(7), Gf16::ZERO);
    }
}
