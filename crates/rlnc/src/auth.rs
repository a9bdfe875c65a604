//! Per-message digest authentication (§III-C).
//!
//! A malicious peer cannot *decode* stored messages without the secret, but
//! it could *inject* forged ones. The owner therefore computes a 128-bit MD5
//! digest of every uploaded message and keeps the digest list; a downloader
//! verifies each received message against it before feeding the decoder.
//! The paper's arithmetic: with `k = 8` messages per 1 MB, that is
//! `8 × 16 = 128` hash bytes per megabyte.

use crate::error::CodecError;
use crate::message::EncodedMessage;
use asymshare_crypto::md5::{Digest128, Md5, Md5x4};
use std::collections::BTreeMap;

/// Which digest algorithm a manifest uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DigestKind {
    /// 128-bit MD5 (the paper's choice; 16 bytes per message).
    Md5,
}

impl DigestKind {
    /// Digest length in bytes.
    pub fn len(self) -> usize {
        match self {
            DigestKind::Md5 => 16,
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
}

impl MessageDigest {
    /// Computes the digest of `msg` with the given algorithm.
    ///
    /// Hashes the 16-byte wire header and the payload incrementally, so the
    /// verify path never materializes the full wire form. Equivalent to
    /// digesting `msg.to_wire()`.
    pub fn compute(kind: DigestKind, msg: &EncodedMessage) -> MessageDigest {
        let header = wire_header(msg);
        match kind {
            DigestKind::Md5 => {
                let mut h = Md5::new();
                h.update(&header);
                h.update(msg.payload());
                MessageDigest::Md5(h.finalize())
            }
        }
    }

    /// Computes the digest of every message of `msgs`, in order: element
    /// `i` of the result is [`compute`](Self::compute) of message `i`.
    ///
    /// MD5 digests of neighbouring messages with equal payload length —
    /// the frames of one datagram, the `k` messages of one encoded batch —
    /// are computed in groups of up to four; a group of three or four
    /// shares the lanes of one [`Md5x4`], and a shorter one is hashed a
    /// message at a time.
    pub fn compute_many<'a>(
        kind: DigestKind,
        msgs: impl IntoIterator<Item = &'a EncodedMessage>,
    ) -> Vec<MessageDigest> {
        let msgs = msgs.into_iter();
        let mut digests = Vec::with_capacity(msgs.size_hint().0);
        digest_each(kind, msgs, |msg| msg, |_, digest| digests.push(digest));
        digests
    }

    /// The algorithm of this digest.
    pub fn kind(&self) -> DigestKind {
        match self {
            MessageDigest::Md5(_) => DigestKind::Md5,
        }
    }

    /// The digest bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match self {
            MessageDigest::Md5(d) => &d.0,
        }
    }
}

/// The 16-byte wire header of `msg` (Figure 3), the first bytes its digest
/// covers.
fn wire_header(msg: &EncodedMessage) -> [u8; crate::message::HEADER_LEN] {
    let mut header = [0u8; crate::message::HEADER_LEN];
    header[..8].copy_from_slice(&msg.file_id().0.to_le_bytes());
    header[8..].copy_from_slice(&msg.message_id().0.to_le_bytes());
    header
}

/// Hands every item of `items`, in order, to `emit` together with the
/// digest of the message `msg_of` finds in it.
///
/// Consecutive items whose payloads are equally long are held back until
/// four are in hand (or the run ends); a group of three or four is hashed
/// in the lanes of one [`Md5x4`], a group of one or two one message at a
/// time. Nothing is allocated.
pub(crate) fn digest_each<T>(
    kind: DigestKind,
    items: impl Iterator<Item = T>,
    msg_of: impl Fn(&T) -> &EncodedMessage,
    mut emit: impl FnMut(T, MessageDigest),
) {
    let mut group: [Option<T>; 4] = [None, None, None, None];
    let mut held = 0;
    let mut flush = |held: &mut [Option<T>]| {
        // Four lanes run at 1.4-1.8x the one-lane rate (independent
        // scalar chains, not SIMD): three or four messages in use beat as
        // many one-lane passes, but a pair padded to four lanes is slower
        // than two, so one or two messages go alone.
        if held.len() <= 2 {
            for item in held.iter_mut().map(|item| item.take().expect("held item")) {
                let digest = MessageDigest::compute(kind, msg_of(&item));
                emit(item, digest);
            }
            return;
        }
        // A group of three repeats its last message in the fourth lane.
        let last = held.len() - 1;
        let lanes: [&EncodedMessage; 4] =
            core::array::from_fn(|lane| msg_of(held[lane.min(last)].as_ref().expect("held item")));
        let headers = lanes.map(wire_header);
        let mut hasher = Md5x4::new();
        hasher.update(headers.each_ref().map(|header| &header[..]));
        hasher.update(lanes.map(EncodedMessage::payload));
        for (item, digest) in held.iter_mut().zip(hasher.finalize()) {
            emit(item.take().expect("held item"), MessageDigest::Md5(digest));
        }
    };
    for item in items {
        let len = msg_of(&item).payload().len();
        let joins = group[0]
            .as_ref()
            .is_none_or(|first| msg_of(first).payload().len() == len);
        if !joins || held == group.len() {
            flush(&mut group[..held]);
            held = 0;
        }
        group[held] = Some(item);
        held += 1;
    }
    flush(&mut group[..held]);
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

    /// Whether a digest is recorded for message `id`.
    pub fn contains(&self, id: crate::MessageId) -> bool {
        self.digests.contains_key(&id.0)
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
        self.verify_counting(msg, &mut 0)
    }

    /// [`verify`](Self::verify), adding one to `hashed` if the message had
    /// to be hashed here. A digest the message carries is one this crate
    /// computed from the message itself, so comparing it is the same check;
    /// there is no way to hand in a digest computed elsewhere.
    pub(crate) fn verify_counting(
        &self,
        msg: &EncodedMessage,
        hashed: &mut u64,
    ) -> Result<(), CodecError> {
        let id = msg.message_id().0;
        let Some(expected) = self.digests.get(&id) else {
            return Err(CodecError::AuthenticationFailed { id });
        };
        let actual = match msg.cached_digest() {
            Some(cached) => *cached,
            None => {
                *hashed += 1;
                MessageDigest::compute(self.kind, msg)
            }
        };
        if asymshare_crypto::ct_eq(expected.as_bytes(), actual.as_bytes()) {
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
            };
            digests.insert(id, digest);
        }
        Ok(AuthManifest {
            file_id,
            kind,
            digests,
        })
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
        let m = AuthManifest::new(FileId(7), DigestKind::Md5);
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
    fn serialization_round_trips() {
        let mut m = AuthManifest::new(FileId(0xAB), DigestKind::Md5);
        for i in 0..5 {
            m.record(&msg(i, i as u8));
        }
        let bytes = m.to_bytes();
        let back = AuthManifest::from_bytes(&bytes).unwrap();
        assert_eq!(back, m);
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

    /// Kind byte 1 named SHA-256, which is gone: it parses as any other
    /// unknown kind does.
    #[test]
    fn retired_digest_kind_rejected() {
        let mut m = AuthManifest::new(FileId(1), DigestKind::Md5);
        m.record(&msg(0, 1));
        for kind in [1u8, 2, 0xFF] {
            let mut bytes = m.to_bytes();
            bytes[8] = kind;
            assert_eq!(
                AuthManifest::from_bytes(&bytes),
                Err(CodecError::Malformed {
                    reason: format!("unknown digest kind {kind}")
                })
            );
        }
    }

    fn sized(id: u64, len: usize) -> EncodedMessage {
        let payload: Vec<u8> = (0..len).map(|i| (i as u64 * 31 + id * 7) as u8).collect();
        EncodedMessage::new(FileId(7), MessageId(id), payload)
    }

    /// What `ChunkedDecoder::prehash` does to a datagram's messages.
    fn prehash(kind: DigestKind, msgs: &mut [EncodedMessage]) {
        digest_each(
            kind,
            msgs.iter_mut(),
            |msg| msg,
            |msg, d| msg.cache_digest(d),
        );
    }

    #[test]
    fn compute_many_matches_compute() {
        // Run lengths of 1, 2, 3, 4 and 5+ equal payloads, in every order
        // the patterns below put them in, cut off after 0..=9 messages.
        let patterns: [[usize; 9]; 4] = [
            [128; 9],
            [128, 128, 128, 64, 64, 200, 7, 7, 7],
            [0, 0, 1, 64, 64, 64, 64, 64, 3],
            [5, 6, 7, 8, 9, 10, 11, 12, 13],
        ];
        let kind = DigestKind::Md5;
        for lens in patterns {
            for n in 0..=lens.len() {
                let msgs: Vec<EncodedMessage> = (0..n).map(|i| sized(i as u64, lens[i])).collect();
                let expect: Vec<MessageDigest> = msgs
                    .iter()
                    .map(|m| MessageDigest::compute(kind, m))
                    .collect();
                assert_eq!(
                    MessageDigest::compute_many(kind, &msgs),
                    expect,
                    "{lens:?} n={n}"
                );
            }
        }
    }

    /// One bad message anywhere in a laned group is rejected alone: for
    /// every group size a datagram can carry and every position in it, with
    /// the digests computed four at a time and carried by the messages.
    #[test]
    fn tamper_in_any_lane_rejected_alone() {
        for size in 2..=8usize {
            let genuine: Vec<EncodedMessage> = (0..size).map(|i| sized(i as u64, 256)).collect();
            let mut manifest = AuthManifest::new(FileId(7), DigestKind::Md5);
            genuine.iter().for_each(|m| manifest.record(m));
            for pos in 0..size {
                let victim = &genuine[pos];
                let neighbour = &genuine[(pos + 1) % size];
                let mut flipped = victim.payload().to_vec();
                flipped[pos * 31] ^= 0x10;
                // (replacement for `pos`, replacement for its neighbour)
                let cases = [
                    (
                        EncodedMessage::new(FileId(7), victim.message_id(), flipped),
                        neighbour.clone(),
                    ),
                    (
                        EncodedMessage::new(FileId(7), MessageId(999), victim.payload().to_vec()),
                        neighbour.clone(),
                    ),
                    (
                        EncodedMessage::new(
                            FileId(7),
                            neighbour.message_id(),
                            victim.payload().to_vec(),
                        ),
                        EncodedMessage::new(
                            FileId(7),
                            victim.message_id(),
                            neighbour.payload().to_vec(),
                        ),
                    ),
                ];
                for (case, (bad, beside)) in cases.into_iter().enumerate() {
                    let mut received = genuine.clone();
                    received[pos] = bad;
                    received[(pos + 1) % size] = beside;
                    let digests = MessageDigest::compute_many(DigestKind::Md5, &received);
                    prehash(DigestKind::Md5, &mut received);
                    for (i, msg) in received.iter().enumerate() {
                        let tampered = *msg != genuine[i];
                        assert_eq!(
                            manifest.verify(msg).is_err(),
                            tampered,
                            "size {size} pos {pos} case {case} message {i}"
                        );
                        assert_eq!(msg.cached_digest(), Some(&digests[i]));
                        assert_eq!(
                            digests[i] != MessageDigest::compute(DigestKind::Md5, &genuine[i]),
                            tampered
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn carried_digest_is_compared_not_trusted() {
        let mut received = [sized(0, 64), sized(1, 64)];
        prehash(DigestKind::Md5, &mut received);
        let [carrier, _] = &received;
        assert!(carrier.cached_digest().is_some());
        // The manifest's entry for this id describes other bytes.
        let mut manifest = AuthManifest::new(FileId(7), DigestKind::Md5);
        manifest.record(&msg(0, 9));
        assert!(manifest.verify(carrier).is_err());
        // A carried digest that matches is compared, not recomputed.
        let mut manifest = AuthManifest::new(FileId(7), DigestKind::Md5);
        manifest.record(carrier);
        let mut hashed = 0;
        assert!(manifest.verify_counting(carrier, &mut hashed).is_ok());
        assert_eq!(hashed, 0);
        // The carried digest is no part of the message's identity.
        let plain = sized(0, 64);
        assert_eq!(*carrier, plain);
        assert_eq!(format!("{carrier:?}"), format!("{plain:?}"));
        let hash_of = |m: &EncodedMessage| {
            use core::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            m.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash_of(carrier), hash_of(&plain));
    }
}
