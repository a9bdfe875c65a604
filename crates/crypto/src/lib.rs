//! Self-contained cryptographic primitives for the *asymshare* system.
//!
//! The paper's design leans on four cryptographic ingredients, each
//! implemented here from its specification with no external dependencies:
//!
//! * [`md5`] — the per-message 128-bit authentication digests of §III-C
//!   (RFC 1321), kept for fidelity; [`sha256`] is the modern alternative.
//! * [`sha256`] — seed derivation; [`ct_eq`] compares digests in
//!   constant time.
//! * [`chacha20`] + [`rng`] — the "cryptographically strong random number
//!   generator seeded with a cryptographic hash of *i* and a secret key"
//!   that produces coding coefficients (§III-A).
//! * [`schnorr`] over [`ed25519`]/[`fe25519`]/[`u256`] — the "classic
//!   public-key challenge response" authentication of §III-B.
//!
//! # Security posture
//!
//! These implementations are written for a research reproduction running
//! against simulated networks: they are correct against published test
//! vectors and safe for that purpose, but they are **not** hardened
//! side-channel-free production cryptography: MD5 is retained deliberately,
//! there is no zeroization of secrets, and scalar multiplication is
//! variable-time. The last was true of the bit-at-a-time double-and-add the
//! crate started with and is just as true of the fixed-base table and wNAF
//! window that replaced it — a table indexed by nonce digits is no better
//! than a branch on nonce bits.
//!
//! # Example
//!
//! ```rust
//! use asymshare_crypto::rng::SecretKey;
//!
//! // The owner's secret key deterministically regenerates any coefficient
//! // row; peers without the key cannot.
//! let key = SecretKey::from_passphrase("owner secret");
//! let file = key.coefficient_key(/*file*/ 9);
//! let c1 = file.rng(/*message*/ 0).next_u64();
//! let c2 = key.coefficient_key(9).rng(0).next_u64();
//! assert_eq!(c1, c2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chacha20;
pub mod ed25519;
pub mod fe25519;
pub mod md5;
pub mod rng;
pub mod schnorr;
pub mod sha256;
pub mod u256;

/// Constant-time equality of two byte strings.
///
/// Returns `false` for different lengths without inspecting contents.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b) {
        acc |= x ^ y;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ct_eq_behaviour() {
        assert!(ct_eq(b"same", b"same"));
        assert!(!ct_eq(b"same", b"sam"));
        assert!(!ct_eq(b"same", b"sane"));
        assert!(ct_eq(b"", b""));
    }
}
