//! Finite-field arithmetic and dense linear algebra for random linear coding.
//!
//! This crate provides the algebraic substrate of the *asymshare* system: the
//! four binary extension fields used in the paper's evaluation —
//! GF(2⁴), GF(2⁸), GF(2¹⁶) and GF(2³²) — together with the dense
//! linear-algebra kernels (Gaussian elimination, matrix inversion,
//! matrix–vector products over packed symbol buffers) that the random linear
//! codec in [`asymshare-rlnc`] is built on.
//!
//! The paper's reference implementation used NTL + GMP; this crate replaces
//! them with self-contained Rust:
//!
//! * GF(2⁴) and GF(2⁸) use full log/exp tables computed at compile time.
//! * GF(2¹⁶) uses lazily-built 64 Ki-entry log/exp tables.
//! * GF(2³²) uses windowed carry-less multiplication, reduced modulo the
//!   irreducible polynomial x³² + x²² + x² + x + 1 by four shift-xor folds,
//!   and inversion by binary extended Euclid over GF(2)\[x\].
//!
//! # Example
//!
//! ```rust
//! use asymshare_gf::{Field, Gf256};
//!
//! let a = Gf256::new(0x57);
//! let b = Gf256::new(0x83);
//! assert_eq!(a * b, Gf256::new(0xc1)); // AES field example product
//! assert_eq!((a / b) * b, a);
//! ```
//!
//! [`asymshare-rlnc`]: https://example.org/asymshare

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod field;
mod macros;
pub(crate) use macros::impl_field_ops;
mod gf16;
mod gf256;
mod gf2p32;
mod gf65536;

pub mod block;
pub mod bytes;
pub mod linalg;
pub mod poly;

pub use field::{Field, FieldKind};
pub use gf16::Gf16;
pub use gf256::Gf256;
pub use gf2p32::Gf2p32;
pub use gf65536::Gf65536;
