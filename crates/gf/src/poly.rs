//! Carry-less polynomial arithmetic over GF(2)\[x\].
//!
//! These helpers back the wide fields (GF(2¹⁶), GF(2³²)): carry-less
//! multiplication, reduction modulo an irreducible polynomial, and inversion
//! by the binary extended Euclidean algorithm. `mulmod` is the tests' oracle;
//! GF(2³²) inverts with `invmod`. Polynomials are represented as
//! bit patterns: bit `i` is the coefficient of `x^i`.
//!
//! # Example
//!
//! ```rust
//! use asymshare_gf::poly;
//!
//! // (x + 1)(x + 1) = x^2 + 1 over GF(2), reduced modulo x^4 + x + 1
//! assert_eq!(poly::mulmod(0b11, 0b11, 0b10011), 0b101);
//! ```

/// Carry-less multiplication of two 64-bit polynomials, full 128-bit result.
///
/// Uses a 4-bit windowed shift-and-xor schoolbook: the reference product
/// behind [`mulmod`].
fn clmul64(a: u64, b: u64) -> u128 {
    let mut table = [0u128; 16];
    for i in 1..16usize {
        table[i] = (table[i >> 1] << 1) ^ if i & 1 == 1 { b as u128 } else { 0 };
    }
    let mut acc = 0u128;
    let mut a = a;
    let mut shift = 0u32;
    while a != 0 {
        acc ^= table[(a & 0xf) as usize] << shift;
        a >>= 4;
        shift += 4;
    }
    acc
}

/// Degree of the polynomial `a` (position of the highest set bit), or `None`
/// for the zero polynomial.
pub fn degree(a: u128) -> Option<u32> {
    if a == 0 {
        None
    } else {
        Some(127 - a.leading_zeros())
    }
}

/// Reduces `a` modulo the polynomial `modulus` (which must include its
/// leading term, e.g. `0x1_0040_0007` for x³² + x²² + x² + x + 1).
///
/// # Panics
///
/// Panics if `modulus` is zero.
fn reduce(mut a: u128, modulus: u64) -> u64 {
    let md = degree(modulus as u128).expect("modulus must be nonzero");
    while let Some(d) = degree(a) {
        if d < md {
            break;
        }
        a ^= (modulus as u128) << (d - md);
    }
    a as u64
}

/// Multiplication in GF(2)\[x\] / (modulus).
pub fn mulmod(a: u64, b: u64, modulus: u64) -> u64 {
    reduce(clmul64(a, b), modulus)
}

/// Multiplicative inverse of `a` in GF(2)\[x\] / (modulus) via the binary
/// extended Euclidean algorithm.
///
/// Returns `None` when `a` is zero (or not invertible, which cannot happen
/// for an irreducible modulus and nonzero `a`).
pub fn invmod(a: u64, modulus: u64) -> Option<u64> {
    if a == 0 {
        return None;
    }
    // Invariants: u_pol * a ≡ r (mod modulus), v_pol * a ≡ s (mod modulus).
    let mut r = a as u128;
    let mut s = modulus as u128;
    let mut u_pol: u128 = 1;
    let mut v_pol: u128 = 0;
    while let Some(dr) = degree(r) {
        if r == 1 {
            return Some(reduce(u_pol, modulus));
        }
        let ds = degree(s).expect("s cannot reach zero before r reaches one");
        if dr < ds {
            core::mem::swap(&mut r, &mut s);
            core::mem::swap(&mut u_pol, &mut v_pol);
            continue;
        }
        let shift = dr - ds;
        r ^= s << shift;
        u_pol ^= v_pol << shift;
    }
    None
}

/// Whether `modulus` (with leading term set) is irreducible over GF(2).
///
/// Uses trial division by all polynomials up to half the degree — fine for
/// the degrees (≤ 32) used in this crate's tests.
pub fn is_irreducible(modulus: u64) -> bool {
    let Some(deg) = degree(modulus as u128) else {
        return false;
    };
    if deg == 0 {
        return false;
    }
    // Even number of terms ⇒ divisible by (x + 1); no constant term ⇒ by x.
    if modulus & 1 == 0 {
        return false;
    }
    for d in 1..=(deg / 2) {
        for cand in (1u64 << d)..(1u64 << (d + 1)) {
            if poly_rem(modulus as u128, cand) == 0 {
                return false;
            }
        }
    }
    true
}

fn poly_rem(mut a: u128, b: u64) -> u64 {
    let db = degree(b as u128).expect("divisor must be nonzero");
    while let Some(da) = degree(a) {
        if da < db {
            break;
        }
        a ^= (b as u128) << (da - db);
    }
    a as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clmul_basic_identities() {
        assert_eq!(clmul64(0, 12345), 0);
        assert_eq!(clmul64(1, 12345), 12345);
        assert_eq!(clmul64(2, 0b1011), 0b10110); // multiply by x is shift
        assert_eq!(clmul64(0b11, 0b11), 0b101);
    }

    #[test]
    fn clmul_is_commutative_and_distributive() {
        let cases = [0u64, 1, 2, 3, 0xdead_beef, u32::MAX as u64, 0x8000_0001];
        for &a in &cases {
            for &b in &cases {
                assert_eq!(clmul64(a, b), clmul64(b, a));
                for &c in &cases {
                    assert_eq!(clmul64(a ^ b, c), clmul64(a, c) ^ clmul64(b, c));
                }
            }
        }
    }

    #[test]
    fn reduce_below_modulus_is_identity() {
        assert_eq!(reduce(0x1234, 0x1_0040_0007), 0x1234);
    }

    #[test]
    fn invmod_round_trips() {
        let modulus = 0x1_0040_0007u64; // x^32 + x^22 + x^2 + x + 1
        for a in [1u64, 2, 3, 0xdead_beef, 0xffff_ffff, 0x8000_0000] {
            let inv = invmod(a, modulus).expect("nonzero element invertible");
            assert_eq!(mulmod(a, inv, modulus), 1, "a = {a:#x}");
        }
        assert_eq!(invmod(0, modulus), None);
    }

    #[test]
    fn known_irreducibles() {
        assert!(is_irreducible(0b10011)); // x^4 + x + 1
        assert!(is_irreducible(0x11B)); // AES polynomial
        assert!(!is_irreducible(0b101)); // x^2 + 1 = (x+1)^2
        assert!(!is_irreducible(0b110)); // divisible by x
        assert!(!is_irreducible(0));
    }
}
