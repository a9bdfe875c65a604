//! Secret keys and the keyed coefficient-seed derivation scheme.
//!
//! The paper (§III-A) derives each coding-coefficient row from a
//! cryptographically strong PRNG "seeded with a cryptographic hash of *i*,
//! and a secret key known only to the encoding peer". This module implements
//! exactly that derivation: a per-file ChaCha20 key, the [`CoefficientKey`],
//! is derived once from the owner's [`SecretKey`] and the file-id via SHA-256
//! (domain-separated), and the message-id selects the per-message stream
//! nonce.

use crate::chacha20::ChaChaRng;
use crate::sha256::Sha256;

const COEFF_DOMAIN: &[u8] = b"asymshare.coeff.v1";

/// An owner's 256-bit secret encoding key.
///
/// Knowing this key is what lets a user reconstruct the coefficient matrix β
/// at decode time; peers that merely store messages never learn it, which is
/// the system's confidentiality argument (§III-C).
///
/// # Example
///
/// ```rust
/// use asymshare_crypto::rng::SecretKey;
///
/// let key = SecretKey::from_passphrase("correct horse battery staple");
/// let file = key.coefficient_key(42);
/// assert_eq!(file.rng(7).next_u64(), key.coefficient_key(42).rng(7).next_u64());
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct SecretKey([u8; 32]);

impl SecretKey {
    /// Wraps raw key bytes.
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        SecretKey(bytes)
    }

    /// Derives a key from a passphrase by hashing (demo-grade KDF; a real
    /// deployment would use a memory-hard KDF).
    pub fn from_passphrase(phrase: &str) -> Self {
        SecretKey(Sha256::digest_parts(&[b"asymshare.kdf.v1", phrase.as_bytes()]).0)
    }

    /// Derives a fresh random key from a caller-provided entropy source.
    pub fn generate(entropy: &mut ChaChaRng) -> Self {
        let mut bytes = [0u8; 32];
        entropy.fill_bytes(&mut bytes);
        SecretKey(bytes)
    }

    /// The raw key bytes.
    ///
    /// Exposed for serialization into the owner's local key store only; the
    /// key must never be sent to peers.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// The coefficient key of file `file_id`: one SHA-256, after which
    /// every message's row is a ChaCha20 stream under it.
    pub fn coefficient_key(&self, file_id: u64) -> CoefficientKey {
        CoefficientKey(Sha256::digest_parts(&[COEFF_DOMAIN, &self.0, &file_id.to_le_bytes()]).0)
    }
}

impl core::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print key material.
        f.write_str("SecretKey(..)")
    }
}

/// The ChaCha20 key behind one file's coefficient rows.
///
/// Derived from the owner's [`SecretKey`] and the file-id, so it is as
/// secret as the key it came from: it has no byte accessor and no
/// serialisation, and its `Debug` prints no key material.
#[derive(Clone)]
pub struct CoefficientKey([u8; 32]);

impl CoefficientKey {
    /// The coefficient PRNG for message `message_id`.
    ///
    /// Deterministic: the same `(secret, file_id, message_id)` triple always
    /// yields the same stream, so the owner can regenerate any β row without
    /// storing it.
    pub fn rng(&self, message_id: u64) -> ChaChaRng {
        let mut nonce = [0u8; 12];
        nonce[..8].copy_from_slice(&message_id.to_le_bytes());
        nonce[8..].copy_from_slice(b"coef");
        ChaChaRng::new(self.0, nonce)
    }
}

impl core::fmt::Debug for CoefficientKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("CoefficientKey(..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_inputs_same_stream() {
        let k = SecretKey::from_passphrase("p");
        let a: Vec<u64> = {
            let mut r = k.coefficient_key(1).rng(2);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = k.coefficient_key(1).rng(2);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn streams_separate_by_file_and_message() {
        let k = SecretKey::from_passphrase("p");
        let v = |f, m| k.coefficient_key(f).rng(m).next_u64();
        assert_ne!(v(1, 2), v(1, 3));
        assert_ne!(v(1, 2), v(2, 2));
    }

    #[test]
    fn streams_separate_by_secret() {
        let k1 = SecretKey::from_passphrase("alice");
        let k2 = SecretKey::from_passphrase("bob");
        assert_ne!(
            k1.coefficient_key(1).rng(1).next_u64(),
            k2.coefficient_key(1).rng(1).next_u64()
        );
    }

    #[test]
    fn generate_uses_entropy() {
        let mut e1 = ChaChaRng::new([1u8; 32], [0u8; 12]);
        let mut e2 = ChaChaRng::new([2u8; 32], [0u8; 12]);
        assert_ne!(
            SecretKey::generate(&mut e1).as_bytes(),
            SecretKey::generate(&mut e2).as_bytes()
        );
    }

    #[test]
    fn debug_does_not_leak() {
        let k = SecretKey::from_bytes([0x42; 32]);
        assert_eq!(format!("{k:?}"), "SecretKey(..)");
        assert_eq!(format!("{:?}", k.coefficient_key(7)), "CoefficientKey(..)");
    }

    /// The streams every disseminated file's rows were drawn from: the
    /// per-file key and the per-message nonce must reproduce them exactly.
    #[test]
    fn coefficient_key_keeps_the_per_message_streams() {
        let k = SecretKey::from_passphrase("coefficient pin");
        let pinned: [(u64, u64, [u64; 4]); 3] = [
            (
                0,
                0,
                [
                    0xd3a1cedfbce6465c,
                    0x9624d662bff7a682,
                    0x56bd2f86ee5c5cfa,
                    0x98262a8b856f0eab,
                ],
            ),
            (
                7,
                3,
                [
                    0x636335afa807fabd,
                    0x0abeda4ba9a0363e,
                    0x80ce47ee5b435dc3,
                    0x2a96c85061da4200,
                ],
            ),
            (
                u64::MAX,
                1 << 40,
                [
                    0x8775b4d669baea28,
                    0x6dc3c716c35daba6,
                    0xa52ac7b356647d20,
                    0xb150d3ce3140651f,
                ],
            ),
        ];
        for (f, m, want) in pinned {
            let mut rng = k.coefficient_key(f).rng(m);
            assert_eq!(want.map(|_| rng.next_u64()), want, "file {f} message {m}");
        }
    }
}
