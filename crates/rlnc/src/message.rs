//! Encoded messages and their wire format.
//!
//! The paper's Figure 3: a stored message is an 8-byte file-id, an 8-byte
//! message-id, and an `m`-symbol encoded payload. Peers store these
//! "pre-fabricated" messages and forward them verbatim — so the payload is
//! held as an [`Bytes`] handle: cloning a message (store → peer → frame)
//! shares one allocation instead of copying payload bytes.

use crate::auth::MessageDigest;
use crate::error::CodecError;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Identifier of an encoded file (or of one 1 MB chunk of a larger file).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u64);

impl core::fmt::Display for FileId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "file:{:#x}", self.0)
    }
}

/// Identifier of one encoded message within a file.
///
/// The message-id is transmitted in plain text alongside the payload; it is
/// what lets the owner (who knows the secret key) reconstruct the
/// coefficient row β_i, and it reveals nothing to anyone else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MessageId(pub u64);

impl core::fmt::Display for MessageId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "msg:{}", self.0)
    }
}

/// Wire header length: 8-byte file-id + 8-byte message-id (Figure 3).
pub const HEADER_LEN: usize = 16;

/// One encoded message `Y_i` with its plaintext identifiers.
///
/// Cloning is cheap: the payload is a shared handle, so a clone references
/// the same bytes rather than copying them.
///
/// # Example
///
/// ```rust
/// use asymshare_rlnc::{EncodedMessage, FileId, MessageId};
///
/// let msg = EncodedMessage::new(FileId(1), MessageId(2), vec![0xAB; 32]);
/// let wire = msg.to_wire();
/// assert_eq!(EncodedMessage::from_wire(&wire)?, msg);
/// # Ok::<(), asymshare_rlnc::CodecError>(())
/// ```
#[derive(Clone)]
pub struct EncodedMessage {
    file_id: FileId,
    message_id: MessageId,
    payload: Bytes,
    /// The digest of this message's wire form, once this crate has hashed
    /// it ahead of verification ([`ChunkedDecoder::prehash`]). No
    /// constructor and no caller can set it: it is only ever computed from
    /// the three fields above, which never change, so it cannot describe
    /// other bytes than the ones it travels with. It is a cache, not part
    /// of the message: equality, hashing and `Debug` ignore it.
    ///
    /// [`ChunkedDecoder::prehash`]: crate::ChunkedDecoder::prehash
    digest: Option<MessageDigest>,
}

impl PartialEq for EncodedMessage {
    fn eq(&self, other: &Self) -> bool {
        (self.file_id, self.message_id, &self.payload)
            == (other.file_id, other.message_id, &other.payload)
    }
}

impl Eq for EncodedMessage {}

impl core::hash::Hash for EncodedMessage {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        (self.file_id, self.message_id, &self.payload).hash(state);
    }
}

impl core::fmt::Debug for EncodedMessage {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("EncodedMessage")
            .field("file_id", &self.file_id)
            .field("message_id", &self.message_id)
            .field("payload", &self.payload)
            .finish()
    }
}

impl EncodedMessage {
    /// Assembles a message from parts. Accepts a `Vec<u8>` (wrapped without
    /// copying) or an existing [`Bytes`] handle.
    pub fn new(file_id: FileId, message_id: MessageId, payload: impl Into<Bytes>) -> Self {
        EncodedMessage {
            file_id,
            message_id,
            payload: payload.into(),
            digest: None,
        }
    }

    /// The digest cached by [`cache_digest`](Self::cache_digest), if any.
    pub(crate) fn cached_digest(&self) -> Option<&MessageDigest> {
        self.digest.as_ref()
    }

    /// Stores `digest`, which the caller has just computed from this very
    /// message.
    pub(crate) fn cache_digest(&mut self, digest: MessageDigest) {
        self.digest = Some(digest);
    }

    /// The file this message belongs to.
    pub fn file_id(&self) -> FileId {
        self.file_id
    }

    /// This message's id.
    pub fn message_id(&self) -> MessageId {
        self.message_id
    }

    /// The encoded payload (packed `m` symbols).
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// The payload as a shared handle; cloning the result shares the
    /// underlying allocation.
    pub fn payload_bytes(&self) -> &Bytes {
        &self.payload
    }

    /// Total wire size in bytes (header + payload).
    pub fn wire_len(&self) -> usize {
        HEADER_LEN + self.payload.len()
    }

    /// Serializes to the Figure-3 wire format.
    pub fn to_wire(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.wire_len());
        buf.put_u64_le(self.file_id.0);
        buf.put_u64_le(self.message_id.0);
        buf.put_slice(&self.payload);
        buf.freeze()
    }

    /// Parses a message from its wire format, copying the payload.
    ///
    /// When the source buffer is a shared [`Bytes`], prefer
    /// [`from_wire_shared`](Self::from_wire_shared), which borrows the
    /// payload instead.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Malformed`] when the buffer is shorter than the
    /// 16-byte header.
    pub fn from_wire(mut wire: &[u8]) -> Result<Self, CodecError> {
        if wire.len() < HEADER_LEN {
            return Err(CodecError::Malformed {
                reason: format!("{} bytes is shorter than the 16-byte header", wire.len()),
            });
        }
        let file_id = FileId(wire.get_u64_le());
        let message_id = MessageId(wire.get_u64_le());
        Ok(EncodedMessage {
            file_id,
            message_id,
            payload: Bytes::from(wire.to_vec()),
            digest: None,
        })
    }

    /// Parses a message from a shared wire buffer without copying the
    /// payload: the resulting message's payload is a sub-slice handle into
    /// `wire`'s allocation.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Malformed`] when the buffer is shorter than the
    /// 16-byte header.
    pub fn from_wire_shared(wire: &Bytes) -> Result<Self, CodecError> {
        if wire.len() < HEADER_LEN {
            return Err(CodecError::Malformed {
                reason: format!("{} bytes is shorter than the 16-byte header", wire.len()),
            });
        }
        let mut head: &[u8] = wire;
        let file_id = FileId(head.get_u64_le());
        let message_id = MessageId(head.get_u64_le());
        Ok(EncodedMessage {
            file_id,
            message_id,
            payload: wire.slice(HEADER_LEN..),
            digest: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_round_trip() {
        let msg = EncodedMessage::new(FileId(0xDEAD), MessageId(42), vec![1, 2, 3, 4, 5]);
        let wire = msg.to_wire();
        assert_eq!(wire.len(), 16 + 5);
        assert_eq!(EncodedMessage::from_wire(&wire).unwrap(), msg);
    }

    #[test]
    fn empty_payload_round_trips() {
        let msg = EncodedMessage::new(FileId(1), MessageId(2), vec![]);
        assert_eq!(EncodedMessage::from_wire(&msg.to_wire()).unwrap(), msg);
    }

    #[test]
    fn short_buffer_is_malformed() {
        let err = EncodedMessage::from_wire(&[0u8; 15]).unwrap_err();
        assert!(matches!(err, CodecError::Malformed { .. }));
        let err = EncodedMessage::from_wire_shared(&Bytes::from(vec![0u8; 15])).unwrap_err();
        assert!(matches!(err, CodecError::Malformed { .. }));
    }

    #[test]
    fn header_is_little_endian_ids() {
        let msg = EncodedMessage::new(FileId(0x0102_0304), MessageId(0x0A0B), vec![0xFF]);
        let wire = msg.to_wire();
        assert_eq!(&wire[..8], &0x0102_0304u64.to_le_bytes());
        assert_eq!(&wire[8..16], &0x0A0Bu64.to_le_bytes());
        assert_eq!(wire[16], 0xFF);
    }

    #[test]
    fn clone_shares_payload_storage() {
        let msg = EncodedMessage::new(FileId(1), MessageId(2), vec![7u8; 64]);
        let dup = msg.clone();
        assert_eq!(
            msg.payload().as_ptr(),
            dup.payload().as_ptr(),
            "clone must not copy payload bytes"
        );
    }

    #[test]
    fn from_wire_shared_borrows_payload() {
        let msg = EncodedMessage::new(FileId(3), MessageId(4), vec![5u8; 32]);
        let wire = msg.to_wire();
        let parsed = EncodedMessage::from_wire_shared(&wire).unwrap();
        assert_eq!(parsed, msg);
        assert_eq!(
            parsed.payload().as_ptr(),
            wire[HEADER_LEN..].as_ptr(),
            "payload must view the wire buffer, not copy it"
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(FileId(255).to_string(), "file:0xff");
        assert_eq!(MessageId(7).to_string(), "msg:7");
    }
}
