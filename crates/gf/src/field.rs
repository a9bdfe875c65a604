//! The [`Field`] trait abstracting over the binary extension fields used by
//! the codec, plus the runtime [`FieldKind`] selector.

use core::fmt::Debug;
use core::hash::Hash;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// An element of a binary extension field GF(2^p).
///
/// All four concrete fields ([`Gf16`](crate::Gf16), [`Gf256`](crate::Gf256),
/// [`Gf65536`](crate::Gf65536), [`Gf2p32`](crate::Gf2p32)) implement this
/// trait. Addition and subtraction coincide (characteristic 2) and are XOR of
/// the underlying bit patterns.
///
/// # Example
///
/// ```rust
/// use asymshare_gf::{Field, Gf16};
///
/// fn dot<F: Field>(a: &[F], b: &[F]) -> F {
///     a.iter().zip(b).fold(F::ZERO, |acc, (&x, &y)| acc + x * y)
/// }
///
/// let a = [Gf16::new(1), Gf16::new(2)];
/// let b = [Gf16::new(3), Gf16::new(4)];
/// assert_eq!(dot(&a, &b), Gf16::new(3) + Gf16::new(8));
/// ```
pub trait Field:
    Copy
    + Clone
    + Debug
    + Default
    + Eq
    + PartialEq
    + Hash
    + Ord
    + PartialOrd
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + AddAssign
    + Sub<Output = Self>
    + SubAssign
    + Mul<Output = Self>
    + MulAssign
    + Div<Output = Self>
    + DivAssign
    + Neg<Output = Self>
{
    /// The additive identity.
    const ZERO: Self;
    /// The multiplicative identity.
    const ONE: Self;
    /// Number of bits per symbol (the `p` in GF(2^p)).
    const BITS: u32;
    /// Field order `q = 2^p` as a `u64` (saturates for p = 64, unused here).
    const ORDER: u64;
    /// Which runtime [`FieldKind`] this type corresponds to.
    const KIND: FieldKind;

    /// Constructs an element from the low `Self::BITS` bits of `v`.
    fn from_u64(v: u64) -> Self;

    /// Returns the element's bit pattern zero-extended to a `u64`.
    fn to_u64(self) -> u64;

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if `self` is zero.
    fn inv(self) -> Self;

    /// Raises `self` to the power `e` by square-and-multiply.
    fn pow(self, mut e: u64) -> Self {
        let mut base = self;
        let mut acc = Self::ONE;
        while e > 0 {
            if e & 1 == 1 {
                acc *= base;
            }
            base *= base;
            e >>= 1;
        }
        acc
    }

    /// Whether this element is zero.
    fn is_zero(self) -> bool {
        self == Self::ZERO
    }

    /// Bulk fused multiply-accumulate: `y[i] += c * x[i]` for all `i`.
    ///
    /// The per-symbol reference for Eq. (1): the `k × k` linear algebra and
    /// the progressive decoder run on it, and `block::combine` — the path
    /// every payload byte takes — is tested against it.
    ///
    /// # Panics
    ///
    /// Panics if `x` and `y` differ in length.
    fn axpy_slice(c: Self, x: &[Self], y: &mut [Self]) {
        assert_eq!(x.len(), y.len(), "axpy slices must have equal length");
        if c == Self::ZERO {
            return;
        }
        if c == Self::ONE {
            for (yi, &xi) in y.iter_mut().zip(x) {
                *yi += xi;
            }
            return;
        }
        for (yi, &xi) in y.iter_mut().zip(x) {
            *yi += c * xi;
        }
    }

    /// Bulk in-place scaling: `y[i] *= c` for all `i`.
    fn scale_slice(c: Self, y: &mut [Self]) {
        if c == Self::ONE {
            return;
        }
        for yi in y.iter_mut() {
            *yi *= c;
        }
    }
}

/// Runtime selector for the four supported fields.
///
/// The codec is generic over [`Field`]; `FieldKind` is the value-level
/// counterpart used in configuration, wire formats and the parameter tables
/// of the paper (Tables I and II).
///
/// # Example
///
/// ```rust
/// use asymshare_gf::FieldKind;
///
/// assert_eq!(FieldKind::Gf2p32.bits_per_symbol(), 32);
/// assert_eq!(FieldKind::Gf16.bytes_for_symbols(2), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FieldKind {
    /// GF(2⁴), 4-bit symbols (two symbols per byte).
    Gf16,
    /// GF(2⁸), one byte per symbol.
    Gf256,
    /// GF(2¹⁶), two bytes per symbol.
    Gf65536,
    /// GF(2³²), four bytes per symbol.
    Gf2p32,
}

impl FieldKind {
    /// All four field kinds, in increasing symbol width (the row order of the
    /// paper's Tables I and II).
    pub const ALL: [FieldKind; 4] = [
        FieldKind::Gf16,
        FieldKind::Gf256,
        FieldKind::Gf65536,
        FieldKind::Gf2p32,
    ];

    /// Bits per symbol (`p` in GF(2^p)).
    pub fn bits_per_symbol(self) -> u32 {
        match self {
            FieldKind::Gf16 => 4,
            FieldKind::Gf256 => 8,
            FieldKind::Gf65536 => 16,
            FieldKind::Gf2p32 => 32,
        }
    }

    /// Symbols per byte as a `(numerator, denominator)` pair.
    ///
    /// GF(2⁴) packs 2 symbols per byte; wider fields span multiple bytes per
    /// symbol, e.g. GF(2³²) yields `(1, 4)`.
    fn symbols_per_byte_num_den(self) -> (usize, usize) {
        match self {
            FieldKind::Gf16 => (2, 1),
            FieldKind::Gf256 => (1, 1),
            FieldKind::Gf65536 => (1, 2),
            FieldKind::Gf2p32 => (1, 4),
        }
    }

    /// Number of bytes spanned by `n_symbols` symbols.
    ///
    /// # Panics
    ///
    /// Panics for an odd symbol count in GF(2⁴) (half a byte).
    pub fn bytes_for_symbols(self, n_symbols: usize) -> usize {
        let (num, den) = self.symbols_per_byte_num_den();
        let total = n_symbols * den;
        assert!(
            total.is_multiple_of(num),
            "{n_symbols} {self:?} symbols do not pack into whole bytes"
        );
        total / num
    }

    /// Human-readable name matching the paper's notation, e.g. `GF(2^8)`.
    pub fn name(self) -> &'static str {
        match self {
            FieldKind::Gf16 => "GF(2^4)",
            FieldKind::Gf256 => "GF(2^8)",
            FieldKind::Gf65536 => "GF(2^16)",
            FieldKind::Gf2p32 => "GF(2^32)",
        }
    }
}

impl core::fmt::Display for FieldKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_per_symbol_match_orders() {
        assert_eq!(FieldKind::Gf16.bits_per_symbol(), 4);
        assert_eq!(FieldKind::Gf256.bits_per_symbol(), 8);
        assert_eq!(FieldKind::Gf65536.bits_per_symbol(), 16);
        assert_eq!(FieldKind::Gf2p32.bits_per_symbol(), 32);
    }

    #[test]
    fn symbol_byte_round_trip() {
        for kind in FieldKind::ALL {
            let bytes = 1024usize;
            let syms = bytes * 8 / kind.bits_per_symbol() as usize;
            assert_eq!(kind.bytes_for_symbols(syms), bytes);
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(FieldKind::Gf16.to_string(), "GF(2^4)");
        assert_eq!(FieldKind::Gf2p32.to_string(), "GF(2^32)");
    }
}
