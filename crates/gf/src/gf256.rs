//! GF(2⁸) — byte symbols, AES modulus x⁸ + x⁴ + x³ + x + 1, compile-time
//! log/exp tables with generator 3.

use crate::field::{Field, FieldKind};
use crate::impl_field_ops;

/// The irreducible polynomial x⁸ + x⁴ + x³ + x + 1 (the AES field modulus).
pub const MODULUS: u16 = 0x11B;

/// Generator of the multiplicative group (0x03; `x` itself is not primitive
/// for this modulus).
const GENERATOR: u8 = 0x03;

const ORDER: usize = 256;
const GROUP: usize = ORDER - 1;

const fn mul_slow(a: u8, b: u8) -> u8 {
    // Russian-peasant carry-less multiply with inline reduction; used only at
    // compile time to build the tables.
    let mut acc: u16 = 0;
    let mut a = a as u16;
    let mut b = b as u16;
    while b != 0 {
        if b & 1 == 1 {
            acc ^= a;
        }
        a <<= 1;
        if a & 0x100 != 0 {
            a ^= MODULUS;
        }
        b >>= 1;
    }
    acc as u8
}

const fn build_exp() -> [u8; GROUP * 2] {
    let mut exp = [0u8; GROUP * 2];
    let mut x: u8 = 1;
    let mut i = 0;
    while i < GROUP {
        exp[i] = x;
        exp[i + GROUP] = x;
        x = mul_slow(x, GENERATOR);
        i += 1;
    }
    exp
}

const fn build_log(exp: &[u8; GROUP * 2]) -> [u16; ORDER] {
    let mut log = [0u16; ORDER];
    let mut i = 0;
    while i < GROUP {
        log[exp[i] as usize] = i as u16;
        i += 1;
    }
    log
}

const EXP: [u8; GROUP * 2] = build_exp();
const LOG: [u16; ORDER] = build_log(&EXP);

/// An element of GF(2⁸).
///
/// # Example
///
/// ```rust
/// use asymshare_gf::{Field, Gf256};
///
/// // The classic AES example: 0x57 * 0x83 = 0xc1.
/// assert_eq!(Gf256::new(0x57) * Gf256::new(0x83), Gf256::new(0xc1));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Gf256(u8);

impl Gf256 {
    /// Constructs an element from a byte.
    pub fn new(v: u8) -> Self {
        Gf256(v)
    }

    /// The raw byte.
    pub fn raw(self) -> u8 {
        self.0
    }

    #[inline]
    fn mul_internal(self, rhs: Self) -> Self {
        if self.0 == 0 || rhs.0 == 0 {
            return Gf256(0);
        }
        Gf256(EXP[LOG[self.0 as usize] as usize + LOG[rhs.0 as usize] as usize])
    }
}

impl Field for Gf256 {
    const ZERO: Self = Gf256(0);
    const ONE: Self = Gf256(1);
    const BITS: u32 = 8;
    const ORDER: u64 = 256;
    const KIND: FieldKind = FieldKind::Gf256;

    fn from_u64(v: u64) -> Self {
        Gf256((v & 0xff) as u8)
    }

    fn to_u64(self) -> u64 {
        self.0 as u64
    }

    fn inv(self) -> Self {
        assert!(self.0 != 0, "inverse of zero in GF(2^8)");
        Gf256(EXP[GROUP - LOG[self.0 as usize] as usize])
    }
}

impl_field_ops!(Gf256);

impl From<u8> for Gf256 {
    fn from(v: u8) -> Self {
        Gf256(v)
    }
}

impl From<Gf256> for u8 {
    fn from(v: Gf256) -> Self {
        v.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_cycle_covers_group() {
        let mut seen = [false; ORDER];
        for &e in EXP.iter().take(GROUP) {
            let v = e as usize;
            assert!(!seen[v], "generator 0x03 must be primitive");
            seen[v] = true;
        }
    }

    #[test]
    fn modulus_is_irreducible() {
        assert!(crate::poly::is_irreducible(MODULUS as u64));
    }

    #[test]
    fn table_mul_matches_polynomial_mul_exhaustively() {
        for a in 0..256u64 {
            for b in 0..256u64 {
                let expect = crate::poly::mulmod(a, b, MODULUS as u64);
                let got = (Gf256::from_u64(a) * Gf256::from_u64(b)).to_u64();
                assert_eq!(got, expect, "a={a:#x} b={b:#x}");
            }
        }
    }

    #[test]
    fn aes_known_answer() {
        assert_eq!(Gf256::new(0x57) * Gf256::new(0x83), Gf256::new(0xc1));
        assert_eq!(Gf256::new(0x57) * Gf256::new(0x13), Gf256::new(0xfe));
    }

    #[test]
    fn all_inverses_round_trip() {
        for a in 1..=255u8 {
            let x = Gf256::new(a);
            assert_eq!(x * x.inv(), Gf256::ONE, "a={a:#x}");
        }
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        let g = Gf256::new(GENERATOR);
        let mut acc = Gf256::ONE;
        for e in 0..equiv_limit() {
            assert_eq!(g.pow(e as u64), acc);
            acc *= g;
        }
        assert_eq!(g.pow(255), Gf256::ONE); // Lagrange
    }

    fn equiv_limit() -> usize {
        40
    }
}
