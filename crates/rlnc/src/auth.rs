//! Per-message digest authentication (§III-C).
//!
//! A malicious peer cannot *decode* stored messages without the secret, but
//! it could *inject* forged ones. The owner therefore computes a 128-bit MD5
//! digest of every uploaded message and keeps the digest list; a downloader
//! verifies each received message against it before feeding the decoder.
//! The paper's arithmetic: with `k = 8` messages per 1 MB, that is
//! `8 × 16 = 128` hash bytes per megabyte. SHA-256 is offered as the modern
//! alternative (double the overhead, actual collision resistance).

use crate::error::CodecError;
use crate::message::EncodedMessage;
use asymshare_crypto::md5::{Digest128, Md5};
use asymshare_crypto::sha256::{Digest256, Sha256};
use std::collections::BTreeMap;

/// Which digest algorithm a manifest uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DigestKind {
    /// 128-bit MD5 (the paper's choice; 16 bytes per message).
    Md5,
    /// 256-bit SHA-256 (32 bytes per message).
    Sha256,
}

impl DigestKind {
    /// Digest length in bytes.
    pub fn len(self) -> usize {
        match self {
            DigestKind::Md5 => 16,
            DigestKind::Sha256 => 32,
        }
    }

    /// Always false; digests are never empty (satisfies the `len`/`is_empty`
    /// lint convention).
    pub fn is_empty(self) -> bool {
        false
    }
}

/// A digest of one encoded message (computed over its full wire form, so
/// id tampering is detected as well as payload tampering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageDigest {
    /// MD5 digest.
    Md5(Digest128),
    /// SHA-256 digest.
    Sha256(Digest256),
}

impl MessageDigest {
    /// Computes the digest of `msg` with the given algorithm.
    ///
    /// Hashes the 16-byte wire header and the payload incrementally, so the
    /// verify path never materializes the full wire form. Equivalent to
    /// digesting `msg.to_wire()`.
    pub fn compute(kind: DigestKind, msg: &EncodedMessage) -> MessageDigest {
        let mut header = [0u8; crate::message::HEADER_LEN];
        header[..8].copy_from_slice(&msg.file_id().0.to_le_bytes());
        header[8..].copy_from_slice(&msg.message_id().0.to_le_bytes());
        match kind {
            DigestKind::Md5 => {
                let mut h = Md5::new();
                h.update(&header);
                h.update(msg.payload());
                MessageDigest::Md5(h.finalize())
            }
            DigestKind::Sha256 => {
                let mut h = Sha256::new();
                h.update(&header);
                h.update(msg.payload());
                MessageDigest::Sha256(h.finalize())
            }
        }
    }

    /// The algorithm of this digest.
    pub fn kind(&self) -> DigestKind {
        match self {
            MessageDigest::Md5(_) => DigestKind::Md5,
            MessageDigest::Sha256(_) => DigestKind::Sha256,
        }
    }

    /// The digest bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match self {
            MessageDigest::Md5(d) => &d.0,
            MessageDigest::Sha256(d) => &d.0,
        }
    }
}

/// The owner's digest list for one file: message-id → digest.
///
/// # Example
///
/// ```rust
/// use asymshare_rlnc::{AuthManifest, DigestKind, EncodedMessage, FileId, MessageId};
///
/// let msg = EncodedMessage::new(FileId(1), MessageId(0), vec![9u8; 64]);
/// let mut manifest = AuthManifest::new(FileId(1), DigestKind::Md5);
/// manifest.record(&msg);
/// assert!(manifest.verify(&msg).is_ok());
///
/// let forged = EncodedMessage::new(FileId(1), MessageId(0), vec![8u8; 64]);
/// assert!(manifest.verify(&forged).is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuthManifest {
    file_id: crate::FileId,
    kind: DigestKind,
    digests: BTreeMap<u64, MessageDigest>,
}

impl AuthManifest {
    /// An empty manifest for `file_id`.
    pub fn new(file_id: crate::FileId, kind: DigestKind) -> Self {
        AuthManifest {
            file_id,
            kind,
            digests: BTreeMap::new(),
        }
    }

    /// The file this manifest covers.
    pub fn file_id(&self) -> crate::FileId {
        self.file_id
    }

    /// The digest algorithm.
    pub fn kind(&self) -> DigestKind {
        self.kind
    }

    /// Number of recorded messages.
    pub fn len(&self) -> usize {
        self.digests.len()
    }

    /// Whether no digests are recorded.
    pub fn is_empty(&self) -> bool {
        self.digests.is_empty()
    }

    /// Records the digest of a freshly encoded message.
    pub fn record(&mut self, msg: &EncodedMessage) {
        self.record_digest(msg.message_id(), MessageDigest::compute(self.kind, msg));
    }

    /// Records a digest the caller already computed for message `id` (the
    /// parallel encoder hashes each message on the worker that produced it).
    ///
    /// # Panics
    ///
    /// Panics if the digest's algorithm is not this manifest's.
    pub fn record_digest(&mut self, id: crate::MessageId, digest: MessageDigest) {
        assert_eq!(digest.kind(), self.kind, "digest of a different kind");
        self.digests.insert(id.0, digest);
    }

    /// Verifies a received message against the recorded digest.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::AuthenticationFailed`] if the digest is absent
    /// (unknown message-id — possibly an injected message) or mismatched
    /// (tampered content).
    pub fn verify(&self, msg: &EncodedMessage) -> Result<(), CodecError> {
        let id = msg.message_id().0;
        let Some(expected) = self.digests.get(&id) else {
            return Err(CodecError::AuthenticationFailed { id });
        };
        let actual = MessageDigest::compute(self.kind, msg);
        if asymshare_crypto::hmac::ct_eq(expected.as_bytes(), actual.as_bytes()) {
            Ok(())
        } else {
            Err(CodecError::AuthenticationFailed { id })
        }
    }

    /// Total manifest overhead in bytes (the data a user must carry when the
    /// owning peer is offline, §III-C).
    pub fn overhead_bytes(&self) -> usize {
        self.digests.len() * self.kind.len()
    }

    /// Iterates over `(message_id, digest)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &MessageDigest)> {
        self.digests.iter().map(|(&id, d)| (id, d))
    }

    /// Serializes to bytes: file-id, digest kind, count, then sorted
    /// `(message-id, digest)` pairs. This is the digest list a user carries
    /// when the owning peer is offline (§III-C).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 1 + 4 + self.digests.len() * (8 + self.kind.len()));
        out.extend_from_slice(&self.file_id.0.to_le_bytes());
        out.push(match self.kind {
            DigestKind::Md5 => 0,
            DigestKind::Sha256 => 1,
        });
        out.extend_from_slice(&(self.digests.len() as u32).to_le_bytes());
        for (id, d) in self.digests.iter() {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(d.as_bytes());
        }
        out
    }

    /// Parses a manifest serialized by [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Malformed`] on truncated or invalid input.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, CodecError> {
        fn take<'a>(buf: &mut &'a [u8], n: usize, what: &str) -> Result<&'a [u8], CodecError> {
            if buf.len() < n {
                return Err(CodecError::Malformed {
                    reason: format!("truncated auth manifest: {what}"),
                });
            }
            let (head, tail) = buf.split_at(n);
            *buf = tail;
            Ok(head)
        }
        let mut buf = buf;
        let file_id = crate::FileId(u64::from_le_bytes(
            take(&mut buf, 8, "file id")?.try_into().expect("8 bytes"),
        ));
        let kind = match take(&mut buf, 1, "digest kind")?[0] {
            0 => DigestKind::Md5,
            1 => DigestKind::Sha256,
            other => {
                return Err(CodecError::Malformed {
                    reason: format!("unknown digest kind {other}"),
                })
            }
        };
        let count = u32::from_le_bytes(take(&mut buf, 4, "count")?.try_into().expect("4 bytes"));
        let mut digests = BTreeMap::new();
        for _ in 0..count {
            let id = u64::from_le_bytes(
                take(&mut buf, 8, "message id")?
                    .try_into()
                    .expect("8 bytes"),
            );
            let raw = take(&mut buf, kind.len(), "digest")?;
            let digest = match kind {
                DigestKind::Md5 => MessageDigest::Md5(Digest128(raw.try_into().expect("16 bytes"))),
                DigestKind::Sha256 => {
                    MessageDigest::Sha256(Digest256(raw.try_into().expect("32 bytes")))
                }
            };
            digests.insert(id, digest);
        }
        Ok(AuthManifest {
            file_id,
            kind,
            digests,
        })
    }

    /// Merges another manifest's digests into this one.
    ///
    /// # Panics
    ///
    /// Panics if file-ids or digest kinds disagree.
    pub fn merge(&mut self, other: &AuthManifest) {
        assert_eq!(self.file_id, other.file_id, "manifests for different files");
        assert_eq!(
            self.kind, other.kind,
            "manifests with different digest kinds"
        );
        for (id, d) in other.iter() {
            self.digests.insert(id, *d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{FileId, MessageId};

    fn msg(id: u64, fill: u8) -> EncodedMessage {
        EncodedMessage::new(FileId(7), MessageId(id), vec![fill; 128])
    }

    #[test]
    fn verify_accepts_genuine() {
        let mut m = AuthManifest::new(FileId(7), DigestKind::Md5);
        m.record(&msg(0, 1));
        m.record(&msg(1, 2));
        assert!(m.verify(&msg(0, 1)).is_ok());
        assert!(m.verify(&msg(1, 2)).is_ok());
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn incremental_digest_matches_wire_digest() {
        let m = msg(3, 7);
        assert_eq!(
            MessageDigest::compute(DigestKind::Md5, &m),
            MessageDigest::Md5(Md5::digest(&m.to_wire()))
        );
        assert_eq!(
            MessageDigest::compute(DigestKind::Sha256, &m),
            MessageDigest::Sha256(Sha256::digest(&m.to_wire()))
        );
    }

    #[test]
    fn verify_rejects_tampered_payload() {
        let mut m = AuthManifest::new(FileId(7), DigestKind::Md5);
        m.record(&msg(0, 1));
        assert!(matches!(
            m.verify(&msg(0, 9)),
            Err(CodecError::AuthenticationFailed { id: 0 })
        ));
    }

    #[test]
    fn verify_rejects_unknown_id() {
        let m = AuthManifest::new(FileId(7), DigestKind::Sha256);
        assert!(m.verify(&msg(5, 1)).is_err());
    }

    #[test]
    fn verify_rejects_id_swap() {
        // Same payload under a different id must fail (digest covers the header).
        let mut m = AuthManifest::new(FileId(7), DigestKind::Md5);
        m.record(&msg(0, 1));
        m.record(&msg(1, 1));
        let swapped = EncodedMessage::new(FileId(8), MessageId(0), vec![1; 128]);
        assert!(m.verify(&swapped).is_err());
    }

    #[test]
    fn paper_overhead_arithmetic() {
        // k = 8 MD5 digests per 1 MB = 128 bytes (§III-C).
        let mut m = AuthManifest::new(FileId(1), DigestKind::Md5);
        for i in 0..8 {
            m.record(&msg(i, i as u8));
        }
        assert_eq!(m.overhead_bytes(), 128);
    }

    #[test]
    fn sha256_doubles_overhead() {
        let mut m = AuthManifest::new(FileId(1), DigestKind::Sha256);
        for i in 0..8 {
            m.record(&msg(i, i as u8));
        }
        assert_eq!(m.overhead_bytes(), 256);
    }

    #[test]
    fn merge_combines_ids() {
        let mut a = AuthManifest::new(FileId(1), DigestKind::Md5);
        let mut b = AuthManifest::new(FileId(1), DigestKind::Md5);
        a.record(&EncodedMessage::new(FileId(1), MessageId(0), vec![1]));
        b.record(&EncodedMessage::new(FileId(1), MessageId(1), vec![2]));
        a.merge(&b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn serialization_round_trips() {
        let mut m = AuthManifest::new(FileId(0xAB), DigestKind::Md5);
        for i in 0..5 {
            m.record(&msg(i, i as u8));
        }
        let bytes = m.to_bytes();
        let back = AuthManifest::from_bytes(&bytes).unwrap();
        assert_eq!(back, m);
        // And for SHA-256.
        let mut m = AuthManifest::new(FileId(1), DigestKind::Sha256);
        m.record(&msg(9, 3));
        assert_eq!(AuthManifest::from_bytes(&m.to_bytes()).unwrap(), m);
    }

    #[test]
    fn truncated_serialization_rejected() {
        let mut m = AuthManifest::new(FileId(1), DigestKind::Md5);
        m.record(&msg(0, 1));
        let bytes = m.to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                AuthManifest::from_bytes(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "different files")]
    fn merge_rejects_foreign_file() {
        let mut a = AuthManifest::new(FileId(1), DigestKind::Md5);
        let b = AuthManifest::new(FileId(2), DigestKind::Md5);
        a.merge(&b);
    }
}
