//! GF(2¹⁶) — 16-bit symbols, primitive modulus x¹⁶ + x¹⁵ + x¹³ + x⁴ + 1,
//! lazily-built 64 Ki-entry log/exp tables.

use std::sync::OnceLock;

use crate::field::{Field, FieldKind};
use crate::impl_field_ops;

/// The primitive polynomial x¹⁶ + x¹⁵ + x¹³ + x⁴ + 1 (maximal-length LFSR
/// taps 16, 15, 13, 4), so `x` itself generates the multiplicative group.
pub const MODULUS: u64 = 0x1A011;

const ORDER: usize = 1 << 16;
const GROUP: usize = ORDER - 1;

struct Tables {
    exp: Vec<u16>, // length 2 * GROUP so log-sum lookups need no modulo
    log: Vec<u16>,
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut exp = vec![0u16; GROUP * 2];
        let mut log = vec![0u16; ORDER];
        let mut x: u32 = 1;
        for i in 0..GROUP {
            debug_assert!(i == 0 || x != 1, "x must be primitive for {MODULUS:#x}");
            exp[i] = x as u16;
            exp[i + GROUP] = x as u16;
            log[x as usize] = i as u16;
            x <<= 1;
            if x & (1 << 16) != 0 {
                x ^= MODULUS as u32;
            }
        }
        assert_eq!(x, 1, "multiplicative group cycle must close at 2^16 - 1");
        Tables { exp, log }
    })
}

/// An element of GF(2¹⁶).
///
/// # Example
///
/// ```rust
/// use asymshare_gf::{Field, Gf65536};
///
/// let a = Gf65536::new(0xbeef);
/// assert_eq!(a / a, Gf65536::ONE);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Gf65536(u16);

impl Gf65536 {
    /// Constructs an element from a 16-bit pattern.
    pub fn new(v: u16) -> Self {
        Gf65536(v)
    }

    /// The raw 16-bit pattern.
    pub fn raw(self) -> u16 {
        self.0
    }

    #[inline]
    fn mul_internal(self, rhs: Self) -> Self {
        if self.0 == 0 || rhs.0 == 0 {
            return Gf65536(0);
        }
        let t = tables();
        Gf65536(t.exp[t.log[self.0 as usize] as usize + t.log[rhs.0 as usize] as usize])
    }
}

impl Field for Gf65536 {
    const ZERO: Self = Gf65536(0);
    const ONE: Self = Gf65536(1);
    const BITS: u32 = 16;
    const ORDER: u64 = 1 << 16;
    const KIND: FieldKind = FieldKind::Gf65536;

    fn from_u64(v: u64) -> Self {
        Gf65536((v & 0xffff) as u16)
    }

    fn to_u64(self) -> u64 {
        self.0 as u64
    }

    fn inv(self) -> Self {
        assert!(self.0 != 0, "inverse of zero in GF(2^16)");
        let t = tables();
        Gf65536(t.exp[GROUP - t.log[self.0 as usize] as usize])
    }
}

impl_field_ops!(Gf65536);

impl From<u16> for Gf65536 {
    fn from(v: u16) -> Self {
        Gf65536(v)
    }
}

impl From<Gf65536> for u16 {
    fn from(v: Gf65536) -> Self {
        v.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modulus_is_irreducible() {
        assert!(crate::poly::is_irreducible(MODULUS));
    }

    #[test]
    fn table_mul_matches_polynomial_mul_sampled() {
        let samples: Vec<u64> = (0..64)
            .map(|i| (i * 0x9E37 + 0x79B9) & 0xffff)
            .chain([0u64, 1, 2, 0xffff, 0x8000])
            .collect();
        for &a in &samples {
            for &b in &samples {
                let expect = crate::poly::mulmod(a, b, MODULUS);
                let got = (Gf65536::from_u64(a) * Gf65536::from_u64(b)).to_u64();
                assert_eq!(got, expect, "a={a:#x} b={b:#x}");
            }
        }
    }

    #[test]
    fn inverses_round_trip_sampled() {
        for a in (1..=0xffffu32).step_by(257) {
            let x = Gf65536::new(a as u16);
            assert_eq!(x * x.inv(), Gf65536::ONE, "a={a:#x}");
        }
    }

    #[test]
    fn lagrange_exponent() {
        let a = Gf65536::new(0x1234);
        assert_eq!(a.pow(GROUP as u64), Gf65536::ONE);
    }
}
