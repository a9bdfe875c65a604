//! A peer's encoded-message store.
//!
//! Peers cache other users' pre-fabricated messages and forward them
//! verbatim — zero computation at serve time (§III-A). A peer may cap its
//! per-file storage at `k' < k` messages (§III-D), in which case
//! downloaders make up the deficit from other peers.

use asymshare_rlnc::{EncodedMessage, FileId};
use std::collections::{HashMap, HashSet};

/// Per-peer storage of encoded messages, grouped by file.
///
/// # Example
///
/// ```rust
/// use asymshare::MessageStore;
/// use asymshare_rlnc::{EncodedMessage, FileId, MessageId};
///
/// let mut store = MessageStore::unbounded();
/// store.insert(EncodedMessage::new(FileId(1), MessageId(0), vec![0; 16]));
/// assert_eq!(store.message_count(FileId(1)), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MessageStore {
    per_file_cap: Option<usize>,
    files: HashMap<u64, FileEntry>,
    total_bytes: u64,
}

/// One file's stored messages plus a running wire-byte tally, so both
/// per-file and whole-store byte accounting stay O(1). `ids` mirrors the
/// message ids in `messages` so the duplicate check does not scan the
/// vector, which alone keeps insertion order.
#[derive(Debug, Clone, Default)]
struct FileEntry {
    messages: Vec<EncodedMessage>,
    ids: HashSet<u64>,
    bytes: u64,
}

impl MessageStore {
    /// A store with unlimited capacity (the paper's analytical assumption of
    /// infinite disk).
    pub fn unbounded() -> MessageStore {
        MessageStore::default()
    }

    /// A store keeping at most `cap` messages per file (`k' < k` mode).
    pub fn with_per_file_cap(cap: usize) -> MessageStore {
        MessageStore {
            per_file_cap: Some(cap),
            ..MessageStore::default()
        }
    }

    /// Inserts a message; returns `false` if dropped (per-file cap reached
    /// or duplicate id). Stores the message's payload *handle* — the caller
    /// keeps sharing the same allocation, and serving later hands out more
    /// handles to it, never copies.
    pub fn insert(&mut self, msg: EncodedMessage) -> bool {
        let entry = self.files.entry(msg.file_id().0).or_default();
        if let Some(cap) = self.per_file_cap {
            if entry.messages.len() >= cap {
                return false;
            }
        }
        if !entry.ids.insert(msg.message_id().0) {
            return false;
        }
        let len = msg.wire_len() as u64;
        self.total_bytes += len;
        entry.bytes += len;
        entry.messages.push(msg);
        true
    }

    /// Messages stored for a file, in insertion order.
    pub fn messages(&self, file: FileId) -> &[EncodedMessage] {
        self.files.get(&file.0).map_or(&[], |e| &e.messages)
    }

    /// Number of messages stored for a file.
    pub fn message_count(&self, file: FileId) -> usize {
        self.messages(file).len()
    }

    /// Whether any messages of this file are stored.
    pub fn has_file(&self, file: FileId) -> bool {
        self.message_count(file) > 0
    }

    /// Total stored bytes (wire size) — the disk cost of participating,
    /// which the paper prices at "under a dollar per gigabyte". O(1): a
    /// running counter maintained by `insert`/`remove_file`.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Stored bytes (wire size) of one file, O(1).
    pub fn file_bytes(&self, file: FileId) -> u64 {
        self.files.get(&file.0).map_or(0, |e| e.bytes)
    }

    /// Drops all messages of a file (owner revoked or re-encoded it).
    /// O(1) byte accounting via the per-file tally.
    pub fn remove_file(&mut self, file: FileId) -> usize {
        match self.files.remove(&file.0) {
            Some(entry) => {
                self.total_bytes -= entry.bytes;
                entry.messages.len()
            }
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asymshare_rlnc::MessageId;

    fn msg(file: u64, id: u64, len: usize) -> EncodedMessage {
        EncodedMessage::new(FileId(file), MessageId(id), vec![0xCD; len])
    }

    #[test]
    fn insert_and_lookup() {
        let mut s = MessageStore::unbounded();
        assert!(s.insert(msg(1, 0, 10)));
        assert!(s.insert(msg(1, 1, 10)));
        assert!(s.insert(msg(2, 0, 10)));
        assert_eq!(s.message_count(FileId(1)), 2);
        assert_eq!(s.message_count(FileId(2)), 1);
        assert_eq!(s.message_count(FileId(3)), 0);
        assert!(s.has_file(FileId(1)));
        assert!(!s.has_file(FileId(3)));
    }

    #[test]
    fn duplicates_rejected() {
        let mut s = MessageStore::unbounded();
        assert!(s.insert(msg(1, 0, 10)));
        assert!(!s.insert(msg(1, 0, 10)));
        assert_eq!(s.message_count(FileId(1)), 1);
    }

    #[test]
    fn removed_file_forgets_its_ids() {
        let mut s = MessageStore::unbounded();
        assert!(s.insert(msg(1, 0, 10)));
        assert_eq!(s.remove_file(FileId(1)), 1);
        assert!(s.insert(msg(1, 0, 10)), "re-encoded file may reuse ids");
        assert_eq!(s.total_bytes(), 16 + 10);
    }

    #[test]
    fn per_file_cap_enforced() {
        let mut s = MessageStore::with_per_file_cap(2);
        assert!(s.insert(msg(1, 0, 10)));
        assert!(s.insert(msg(1, 1, 10)));
        assert!(!s.insert(msg(1, 2, 10)), "k' cap reached");
        assert!(s.insert(msg(2, 0, 10)), "other files unaffected");
    }

    #[test]
    fn byte_accounting() {
        let mut s = MessageStore::unbounded();
        s.insert(msg(1, 0, 100));
        s.insert(msg(1, 1, 50));
        s.insert(msg(2, 0, 30));
        assert_eq!(s.total_bytes(), (16 + 100) + (16 + 50) + (16 + 30));
        assert_eq!(s.file_bytes(FileId(1)), (16 + 100) + (16 + 50));
        assert_eq!(s.file_bytes(FileId(2)), 16 + 30);
        assert_eq!(s.file_bytes(FileId(9)), 0);
        assert_eq!(s.remove_file(FileId(1)), 2);
        assert_eq!(s.total_bytes(), 16 + 30);
        assert_eq!(s.file_bytes(FileId(1)), 0);
        assert_eq!(s.remove_file(FileId(1)), 0);
    }

    #[test]
    fn rejected_inserts_do_not_count_bytes() {
        let mut s = MessageStore::with_per_file_cap(1);
        assert!(s.insert(msg(1, 0, 10)));
        assert!(!s.insert(msg(1, 1, 10)), "cap");
        assert!(!s.insert(msg(1, 0, 10)), "duplicate");
        assert_eq!(s.total_bytes(), 16 + 10);
        assert_eq!(s.file_bytes(FileId(1)), 16 + 10);
    }

    #[test]
    fn stored_messages_share_payload_allocations() {
        let mut s = MessageStore::unbounded();
        let m = msg(1, 0, 64);
        let ptr = m.payload().as_ptr();
        s.insert(m);
        let served = s.messages(FileId(1))[0].clone();
        assert_eq!(
            served.payload().as_ptr(),
            ptr,
            "store keeps and serves handles, not copies"
        );
    }

    #[test]
    fn insertion_order_preserved() {
        let mut s = MessageStore::unbounded();
        for id in [5u64, 3, 9] {
            s.insert(msg(1, id, 4));
        }
        let ids: Vec<u64> = s
            .messages(FileId(1))
            .iter()
            .map(|m| m.message_id().0)
            .collect();
        assert_eq!(ids, vec![5, 3, 9]);
    }
}
