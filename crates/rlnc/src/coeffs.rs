//! Deterministic coefficient-row generation from the owner's secret key.
//!
//! A row β_i = [β_i1 … β_ik] is the expansion of a ChaCha20 stream keyed by
//! `SHA-256(secret ‖ file-id)` (the file's [`CoefficientKey`], derived once)
//! with nonce `message-id` — exactly the paper's
//! "βij randomly chosen from F_q using a cryptographically strong random
//! number generator seeded with a cryptographic hash of i, and a secret key
//! known only to the encoding peer" (§III-A). Anyone holding the secret can
//! regenerate any row from the plaintext ids; nobody else can.

use crate::message::{FileId, MessageId};
use asymshare_crypto::rng::{CoefficientKey, SecretKey};
use asymshare_gf::Field;

/// Generates coefficient rows for one file under one secret key.
///
/// # Example
///
/// ```rust
/// use asymshare_crypto::rng::{CoefficientKey, SecretKey};
/// use asymshare_gf::Gf256;
/// use asymshare_rlnc::{FileId, MessageId, RowGenerator};
///
/// let gen = RowGenerator::<Gf256>::new(SecretKey::from_passphrase("s"), FileId(1), 4);
/// let row = gen.row(MessageId(0));
/// assert_eq!(row.len(), 4);
/// assert_eq!(row, gen.row(MessageId(0))); // deterministic
/// ```
#[derive(Debug, Clone)]
pub struct RowGenerator<F> {
    key: CoefficientKey,
    k: usize,
    _field: core::marker::PhantomData<F>,
}

impl<F: Field> RowGenerator<F> {
    /// A generator for rows of length `k` for `file_id` under `secret`.
    pub fn new(secret: SecretKey, file_id: FileId, k: usize) -> Self {
        RowGenerator {
            key: secret.coefficient_key(file_id.0),
            k,
            _field: core::marker::PhantomData,
        }
    }

    /// Row length `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The coefficient row for `message_id`.
    ///
    /// Symbols are drawn by masking the keyed stream to the field width —
    /// exact uniformity because every field order is a power of two.
    pub fn row(&self, message_id: MessageId) -> Vec<F> {
        let mut out = Vec::with_capacity(self.k);
        self.row_into(message_id, &mut out);
        out
    }

    /// Appends the coefficient row for `message_id` to `out` — the
    /// scratch-buffer form of [`row`](Self::row) for hot loops that
    /// regenerate rows repeatedly.
    pub fn row_into(&self, message_id: MessageId, out: &mut Vec<F>) {
        let mut rng = self.key.rng(message_id.0);
        out.reserve(self.k);
        out.extend((0..self.k).map(|_| {
            let raw = rng.next_u64();
            F::from_u64(raw & (F::ORDER - 1))
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asymshare_gf::{Gf16, Gf2p32};

    fn secret(tag: &str) -> SecretKey {
        SecretKey::from_passphrase(tag)
    }

    #[test]
    fn rows_are_deterministic() {
        let g = RowGenerator::<Gf2p32>::new(secret("a"), FileId(1), 8);
        assert_eq!(g.row(MessageId(5)), g.row(MessageId(5)));
    }

    #[test]
    fn rows_differ_across_messages_files_secrets() {
        let g1 = RowGenerator::<Gf2p32>::new(secret("a"), FileId(1), 8);
        let g2 = RowGenerator::<Gf2p32>::new(secret("a"), FileId(2), 8);
        let g3 = RowGenerator::<Gf2p32>::new(secret("b"), FileId(1), 8);
        assert_ne!(g1.row(MessageId(0)), g1.row(MessageId(1)));
        assert_ne!(g1.row(MessageId(0)), g2.row(MessageId(0)));
        assert_ne!(g1.row(MessageId(0)), g3.row(MessageId(0)));
    }

    #[test]
    fn symbols_cover_small_field() {
        // In GF(2^4) all 16 symbol values should appear in a long row.
        let g = RowGenerator::<Gf16>::new(secret("cover"), FileId(1), 2048);
        let row = g.row(MessageId(0));
        let mut seen = [false; 16];
        for s in row {
            seen[s.to_u64() as usize] = true;
        }
        assert!(seen.iter().all(|&b| b), "all 16 symbols appear");
    }

    /// A row of the kind every disseminated GF(2³²) file was encoded with;
    /// how the key is derived and held must not move one coefficient.
    #[test]
    fn gf2p32_row_is_pinned() {
        let g = RowGenerator::<Gf2p32>::new(secret("coefficient pin"), FileId(7), 8);
        let row: Vec<u64> = g.row(MessageId(3)).iter().map(|s| s.to_u64()).collect();
        assert_eq!(
            row,
            [
                0xa807fabd, 0xa9a0363e, 0x5b435dc3, 0x61da4200, 0x16b638a5, 0x29173dd6, 0x90d2b729,
                0x34bc6387
            ]
        );
    }

    #[test]
    fn row_length_matches_k() {
        for k in [1usize, 2, 7, 64] {
            let g = RowGenerator::<Gf2p32>::new(secret("len"), FileId(1), k);
            assert_eq!(g.row(MessageId(3)).len(), k);
        }
    }
}
