//! Arithmetic in the prime field GF(2²⁵⁵ − 19), the coordinate field of the
//! Ed25519 group used by the Schnorr challenge–response identification.
//!
//! Built on [`U256`] with the classic fold reduction:
//! 2²⁵⁶ ≡ 38 (mod p), so a 512-bit product reduces with two cheap folds.
//! Squaring has its own kernel (10 limb products where a multiplication
//! needs 16 — point doubling is mostly squarings) and inversion is the
//! standard 254-squaring, 11-multiplication addition chain for p − 2.

use crate::u256::U256;

/// The prime p = 2²⁵⁵ − 19, little-endian limbs.
pub const P: U256 = U256::from_limbs([
    0xffff_ffff_ffff_ffed,
    0xffff_ffff_ffff_ffff,
    0xffff_ffff_ffff_ffff,
    0x7fff_ffff_ffff_ffff,
]);

/// An element of GF(2²⁵⁵ − 19), kept fully reduced.
///
/// # Example
///
/// ```rust
/// use asymshare_crypto::fe25519::Fe;
///
/// let a = Fe::from_u64(1234567);
/// assert_eq!(a * a.inv(), Fe::ONE);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Fe(U256);

impl Fe {
    /// Zero.
    pub const ZERO: Fe = Fe(U256::ZERO);
    /// One.
    pub const ONE: Fe = Fe(U256::from_limbs([1, 0, 0, 0]));

    /// Wraps a value the caller has already checked (or, for a constant,
    /// knows) to be below p.
    pub(crate) const fn from_reduced(v: U256) -> Fe {
        Fe(v)
    }

    /// Constructs from a small integer.
    pub fn from_u64(v: u64) -> Fe {
        Fe(U256::from_u64(v))
    }

    /// Constructs from an arbitrary 256-bit value, reducing mod p.
    pub fn from_u256(v: U256) -> Fe {
        Fe(v.reduce_mod(&P))
    }

    /// Constructs from 32 little-endian bytes, reducing mod p.
    pub fn from_le_bytes(bytes: &[u8]) -> Fe {
        Fe::from_u256(U256::from_le_bytes(bytes))
    }

    /// The canonical (fully reduced) 32-byte little-endian encoding.
    pub fn to_le_bytes(self) -> [u8; 32] {
        self.0.to_le_bytes()
    }

    /// Whether this is zero.
    pub fn is_zero(self) -> bool {
        self.0.is_zero()
    }

    /// Field addition.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, rhs: Fe) -> Fe {
        Fe(self.0.add_mod(&rhs.0, &P))
    }

    /// Field subtraction.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, rhs: Fe) -> Fe {
        Fe(self.0.sub_mod(&rhs.0, &P))
    }

    /// Field negation.
    #[allow(clippy::should_implement_trait)]
    pub fn neg(self) -> Fe {
        Fe(U256::ZERO.sub_mod(&self.0, &P))
    }

    /// Field multiplication with fold reduction (2²⁵⁶ ≡ 38 mod p).
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, rhs: Fe) -> Fe {
        Fe::reduce_wide(self.0.widening_mul(&rhs.0).limbs())
    }

    /// Squaring: the six cross products aᵢ·aⱼ (i < j) are computed once and
    /// doubled, then the four squares aᵢ² are added on the even limbs.
    pub fn square(self) -> Fe {
        let a = self.0.limbs();
        let mut w = [0u64; 8];
        for i in 0..3 {
            let mut carry: u128 = 0;
            for j in i + 1..4 {
                let acc = w[i + j] as u128 + a[i] as u128 * a[j] as u128 + carry;
                w[i + j] = acc as u64;
                carry = acc >> 64;
            }
            w[i + 4] = carry as u64;
        }
        // The cross sum is below 2⁵¹⁰ (a < 2²⁵⁵), so doubling cannot carry
        // out of eight limbs; w[0] is still zero.
        for i in (1..8).rev() {
            w[i] = (w[i] << 1) | (w[i - 1] >> 63);
        }
        let mut carry: u128 = 0;
        for i in 0..4 {
            let sq = a[i] as u128 * a[i] as u128;
            let lo = w[2 * i] as u128 + (sq as u64) as u128 + carry;
            w[2 * i] = lo as u64;
            let hi = w[2 * i + 1] as u128 + (sq >> 64) + (lo >> 64);
            w[2 * i + 1] = hi as u64;
            carry = hi >> 64;
        }
        debug_assert_eq!(carry, 0, "a square of a value below p fits 512 bits");
        Fe::reduce_wide(w)
    }

    /// Reduces a 512-bit product of two reduced elements.
    fn reduce_wide(w: [u64; 8]) -> Fe {
        // r (5 limbs) = lo + 38 * hi
        let mut r = [0u64; 5];
        let mut carry: u128 = 0;
        for i in 0..4 {
            let acc = w[i] as u128 + 38u128 * w[i + 4] as u128 + carry;
            r[i] = acc as u64;
            carry = acc >> 64;
        }
        r[4] = carry as u64;
        // Fold the ≤ 6-bit overflow limb and the top bit of r[3]:
        // value = r4·2²⁵⁶ + top·2²⁵⁵ + low255  ≡  low255 + 38·r4 + 19·top.
        let top = r[3] >> 63;
        r[3] &= 0x7fff_ffff_ffff_ffff;
        let mut acc = r[0] as u128 + 38u128 * r[4] as u128 + 19u128 * top as u128;
        let mut out = [0u64; 4];
        out[0] = acc as u64;
        let mut c = acc >> 64;
        for i in 1..4 {
            acc = r[i] as u128 + c;
            out[i] = acc as u64;
            c = acc >> 64;
        }
        debug_assert_eq!(c, 0, "second fold cannot carry");
        let mut v = U256::from_limbs(out);
        // v < 2^255 + small; at most one subtraction of p remains.
        if v >= P {
            v = v.overflowing_sub(&P).0;
        }
        Fe(v)
    }

    /// `self^(2^n)`: `n` squarings.
    fn square_times(self, n: u32) -> Fe {
        (0..n).fold(self, |acc, _| acc.square())
    }

    /// Exponentiation by square-and-multiply.
    pub fn pow(self, e: &U256) -> Fe {
        let mut acc = Fe::ONE;
        let Some(high) = e.highest_bit() else {
            return acc;
        };
        for i in (0..=high).rev() {
            acc = acc.square();
            if e.bit(i) {
                acc = acc.mul(self);
            }
        }
        acc
    }

    /// Multiplicative inverse via Fermat (a^(p−2)), by the addition chain
    /// for 2²⁵⁵ − 21 = (2²⁵⁰ − 1)·2⁵ + 11: 254 squarings and 11
    /// multiplications, against ≈ 509 multiplications for [`pow`](Fe::pow).
    ///
    /// # Panics
    ///
    /// Panics if `self` is zero.
    pub fn inv(self) -> Fe {
        assert!(!self.is_zero(), "inverse of zero in GF(2^255 - 19)");
        #[cfg(test)]
        INV_CALLS.with(|calls| calls.set(calls.get() + 1));
        // `x_n` is self^(2ⁿ − 1).
        let z2 = self.square();
        let z9 = z2.square_times(2) * self;
        let z11 = z9 * z2;
        let x5 = z11.square() * z9;
        let x10 = x5.square_times(5) * x5;
        let x20 = x10.square_times(10) * x10;
        let x40 = x20.square_times(20) * x20;
        let x50 = x40.square_times(10) * x10;
        let x100 = x50.square_times(50) * x50;
        let x200 = x100.square_times(100) * x100;
        let x250 = x200.square_times(50) * x50;
        x250.square_times(5) * z11
    }
}

#[cfg(test)]
thread_local! {
    /// How many times this thread has called [`Fe::inv`]: the tests pin the
    /// number of inversions each protocol move performs.
    static INV_CALLS: core::cell::Cell<u64> = const { core::cell::Cell::new(0) };
}

/// This thread's count of [`Fe::inv`] calls so far.
#[cfg(test)]
pub(crate) fn inv_calls() -> u64 {
    INV_CALLS.with(core::cell::Cell::get)
}

impl core::ops::Add for Fe {
    type Output = Fe;
    fn add(self, rhs: Fe) -> Fe {
        Fe::add(self, rhs)
    }
}

impl core::ops::Sub for Fe {
    type Output = Fe;
    fn sub(self, rhs: Fe) -> Fe {
        Fe::sub(self, rhs)
    }
}

impl core::ops::Mul for Fe {
    type Output = Fe;
    fn mul(self, rhs: Fe) -> Fe {
        Fe::mul(self, rhs)
    }
}

impl core::ops::Neg for Fe {
    type Output = Fe;
    fn neg(self) -> Fe {
        Fe::neg(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn small_arithmetic() {
        let a = Fe::from_u64(7);
        let b = Fe::from_u64(5);
        assert_eq!(a.mul(b), Fe::from_u64(35));
        assert_eq!(a.add(b), Fe::from_u64(12));
        assert_eq!(a.sub(b), Fe::from_u64(2));
        assert_eq!(b.sub(a).add(a.sub(b)), Fe::ZERO);
    }

    #[test]
    fn p_reduces_to_zero() {
        assert_eq!(Fe::from_u256(P), Fe::ZERO);
        let (p_plus_1, _) = P.overflowing_add(&U256::ONE);
        assert_eq!(Fe::from_u256(p_plus_1), Fe::ONE);
    }

    #[test]
    fn two_to_the_256_is_38() {
        // (2^128)^2 = 2^256 ≡ 38 (mod p)
        let two128 = Fe(U256::from_limbs([0, 0, 1, 0]));
        assert_eq!(two128.square(), Fe::from_u64(38));
    }

    #[test]
    fn mul_matches_generic_division_reduction() {
        let vals = [
            U256::from_limbs([0xdead_beef, 0x1234, 0xffff_ffff_ffff_ffff, 0x7fff]),
            U256::from_limbs([1, 2, 3, 4]),
            U256::from_limbs([u64::MAX; 4]).reduce_mod(&P),
            U256::from_u64(19),
        ];
        for &a in &vals {
            for &b in &vals {
                let fast = Fe::from_u256(a).mul(Fe::from_u256(b)).0;
                let slow = a.reduce_mod(&P).mul_mod(&b.reduce_mod(&P), &P);
                assert_eq!(fast, slow);
            }
        }
    }

    #[test]
    fn inversion_round_trips() {
        for v in [1u64, 2, 19, 0xdead_beef] {
            let a = Fe::from_u64(v);
            assert_eq!(a.mul(a.inv()), Fe::ONE, "v={v}");
        }
        let big = Fe(U256::from_limbs([5, 6, 7, 0x1fff]));
        assert_eq!(big.mul(big.inv()), Fe::ONE);
    }

    #[test]
    fn fermat_little_theorem() {
        let a = Fe::from_u64(123_456_789);
        let p_minus_1 = P.overflowing_sub(&U256::ONE).0;
        assert_eq!(a.pow(&p_minus_1), Fe::ONE);
    }

    #[test]
    fn neg_is_additive_inverse() {
        let a = Fe::from_u64(0xabcdef);
        assert_eq!(a.add(a.neg()), Fe::ZERO);
        assert_eq!(Fe::ZERO.neg(), Fe::ZERO);
    }

    #[test]
    #[should_panic(expected = "inverse of zero")]
    fn zero_inverse_panics() {
        Fe::ZERO.inv();
    }

    /// `square` and the addition-chain `inv` against the generic `mul` and
    /// `pow` they replaced.
    fn check_square_and_inv(a: Fe) {
        assert_eq!(a.square(), a.mul(a), "square of {a:?}");
        if !a.is_zero() {
            let p_minus_2 = P.overflowing_sub(&U256::from_u64(2)).0;
            let inv = a.inv();
            assert_eq!(inv, a.pow(&p_minus_2), "inverse of {a:?}");
            assert_eq!(a.mul(inv), Fe::ONE);
        }
    }

    #[test]
    fn square_and_inv_match_mul_and_pow_at_the_edges() {
        let p_minus_1 = P.overflowing_sub(&U256::ONE).0; // 2^255 − 20
        for v in [
            U256::ZERO,
            U256::ONE,
            U256::from_u64(2),
            p_minus_1,
            U256::from_limbs([u64::MAX, 0, u64::MAX, 0]),
            U256::from_limbs([0, 0, 0, 1 << 62]),
        ] {
            check_square_and_inv(Fe::from_u256(v));
        }
    }

    #[test]
    fn inv_calls_counts_this_threads_inversions() {
        let before = inv_calls();
        Fe::from_u64(3).inv();
        Fe::from_u64(5).inv();
        assert_eq!(inv_calls() - before, 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn square_and_inv_match_mul_and_pow(bytes in any::<[u8; 32]>()) {
            check_square_and_inv(Fe::from_le_bytes(&bytes));
        }
    }
}
