//! The peer node: stores other users' encoded messages, authenticates
//! connecting users, and serves stored messages with Eq.-2 upload weights
//! derived from locally observed contributions.

use crate::error::SystemError;
use crate::identity::Identity;
use crate::protocol::Wire;
use crate::session::Verifier;
use crate::store::MessageStore;
use asymshare_crypto::chacha20::ChaChaRng;
use asymshare_rlnc::{EncodedMessage, FileId, MessageId};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

/// Chunk index encoded in a message id (high 32 bits; see
/// `asymshare_rlnc::FileManifest::message_id`).
fn chunk_of(id: u64) -> u32 {
    (id >> 32) as u32
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Serialized public key bytes (the peer's notion of "who").
pub type KeyBytes = [u8; 64];

/// A peer node's full serving state.
///
/// The peer is a pure message-driven state machine: the runtime (simulated
/// or threaded) feeds it [`Wire`] messages per connection and transports
/// whatever it returns. All of its allocation inputs are local: the credit
/// map is built from its own user's signed feedback plus directly observed
/// receipts, never from peers' claims — the property that makes Eq. 2
/// robust.
#[derive(Debug)]
pub struct Peer {
    identity: Identity,
    store: MessageStore,
    subscribers: HashSet<KeyBytes>,
    credit_bytes: HashMap<KeyBytes, f64>,
    initial_credit: f64,
    sessions: HashMap<u64, PeerSession>,
    /// The connections whose session has `serving.is_some()`, in order.
    /// Sessions outlive their transfer (`transfer_schedule`, a re-request
    /// after a heal), so a serve pass walks this set, not every session
    /// the peer ever authenticated.
    serving_conns: BTreeSet<u64>,
    /// Last accepted feedback window end per reporter: a signed report is
    /// valid forever, so without this high-water mark anyone who captured
    /// one could replay it to re-credit the same bytes indefinitely.
    feedback_high_water: HashMap<KeyBytes, u64>,
}

#[derive(Debug, Default)]
struct PeerSession {
    verifier: Verifier,
    /// The authenticated user's key, in the byte form the subscriber set,
    /// the credit map and the serve pass all key on.
    verified: Option<KeyBytes>,
    serving: Option<FileId>,
    /// The file `order` was planned for. Outlives `serving` (which a
    /// [`Wire::StopTransmission`] clears) so the planned schedule stays
    /// inspectable after the transfer ends — see
    /// [`Peer::transfer_schedule`].
    order_file: Option<FileId>,
    /// Store indices in serving order: chunks permuted by a per-peer offset
    /// and stride so concurrent peers sweep the file in decorrelated orders
    /// (minimizing cross-peer redundancy at the user), messages in stored
    /// order within each chunk.
    order: Vec<usize>,
    /// Position within `order`.
    served: usize,
    /// Chunks the user has declared complete — their messages are skipped.
    stopped_chunks: HashSet<u32>,
    /// Store indices queued for re-serving after the user reported a
    /// digest-rejected (corrupted) message; drained before the sweep.
    resend: VecDeque<usize>,
    /// Round-robin cursor over a chunk's messages for replacement picks.
    replace_cursor: usize,
}

impl Peer {
    /// A peer with unbounded storage and the paper's small equal initial
    /// credit (in bytes) for every party.
    pub fn new(identity: Identity, initial_credit: f64) -> Peer {
        Peer {
            identity,
            store: MessageStore::unbounded(),
            subscribers: HashSet::new(),
            credit_bytes: HashMap::new(),
            initial_credit,
            sessions: HashMap::new(),
            serving_conns: BTreeSet::new(),
            feedback_high_water: HashMap::new(),
        }
    }

    /// Replaces the message store (e.g. one with a `k'` cap).
    pub fn with_store(mut self, store: MessageStore) -> Peer {
        self.store = store;
        self
    }

    /// This peer's identity.
    pub fn identity(&self) -> &Identity {
        &self.identity
    }

    /// Grants `key` the right to authenticate and download.
    pub fn add_subscriber(&mut self, key: KeyBytes) {
        self.subscribers.insert(key);
    }

    /// Mutable access to the message store (dissemination deposits go here).
    pub fn store_mut(&mut self) -> &mut MessageStore {
        &mut self.store
    }

    /// The message store.
    pub fn store(&self) -> &MessageStore {
        &self.store
    }

    /// Eq.-2 upload weight for a user: initial credit plus everything that
    /// user's peer has verifiably contributed to this peer's user.
    pub fn upload_weight(&self, user: &KeyBytes) -> f64 {
        self.initial_credit + self.credit_bytes.get(user).copied().unwrap_or(0.0)
    }

    /// Records directly observed receipt of `bytes` from `contributor`.
    pub fn credit_direct(&mut self, contributor: KeyBytes, bytes: f64) {
        *self.credit_bytes.entry(contributor).or_insert(0.0) += bytes;
    }

    /// Whether a connection has completed authentication.
    pub fn is_authenticated(&self, conn: u64) -> bool {
        self.sessions
            .get(&conn)
            .is_some_and(|s| s.verified.is_some())
    }

    /// The verified user key of a connection.
    pub fn session_user(&self, conn: u64) -> Option<KeyBytes> {
        self.sessions.get(&conn).and_then(|s| s.verified)
    }

    /// Handles one protocol message on `conn`, returning replies to send
    /// back on the same connection.
    ///
    /// # Errors
    ///
    /// Propagates authentication, state-machine and feedback errors; the
    /// runtime decides whether to drop the connection.
    pub fn on_message(
        &mut self,
        conn: u64,
        wire: Wire,
        rng: &mut ChaChaRng,
    ) -> Result<Vec<Wire>, SystemError> {
        match wire {
            Wire::AuthCommit { .. } => {
                let commit = wire;
                let Wire::AuthCommit { claimed_key, .. } = &commit else {
                    unreachable!()
                };
                if !self.subscribers.contains(claimed_key) {
                    return Ok(vec![Wire::AuthResult {
                        ok: false,
                        ack: [0u8; 96],
                    }]);
                }
                let session = self.sessions.entry(conn).or_default();
                let challenge = session.verifier.on_commit(&commit, rng)?;
                Ok(vec![challenge])
            }
            Wire::AuthResponse { s: response_s } => {
                let Some(session) = self.sessions.get_mut(&conn) else {
                    return Err(SystemError::UnknownParty {
                        who: format!("connection {conn}"),
                    });
                };
                match session.verifier.on_response(&wire) {
                    Ok(key) => {
                        session.verified = Some(key.to_bytes());
                        // Countersign the transcript: mutual authentication
                        // (the user checks this against our known key).
                        let transcript = crate::protocol::auth_ack_transcript(&response_s, true);
                        let ack = self.identity.auth_keys().sign(&transcript, rng);
                        Ok(vec![Wire::AuthResult {
                            ok: true,
                            ack: ack.to_bytes(),
                        }])
                    }
                    Err(SystemError::AuthenticationRejected { .. }) => {
                        self.disconnect(conn);
                        Ok(vec![Wire::AuthResult {
                            ok: false,
                            ack: [0u8; 96],
                        }])
                    }
                    Err(e) => Err(e),
                }
            }
            Wire::FileRequest { file_id } => {
                let Some(session) = self.sessions.get_mut(&conn) else {
                    return Err(SystemError::UnknownParty {
                        who: format!("connection {conn}"),
                    });
                };
                if session.verified.is_none() {
                    return Err(SystemError::AuthenticationRejected {
                        context: "file request before authentication".to_owned(),
                    });
                }
                if !self.store.has_file(FileId(file_id)) {
                    return Err(SystemError::UnknownFile { file_id });
                }
                session.serving = Some(FileId(file_id));
                self.serving_conns.insert(conn);
                session.order_file = Some(FileId(file_id));
                session.served = 0;
                session.stopped_chunks.clear();
                session.resend.clear();
                session.replace_cursor = 0;
                let order = self.serving_order(FileId(file_id), conn);
                let session = self.sessions.get_mut(&conn).expect("session exists");
                session.order = order;
                Ok(vec![])
            }
            Wire::StopChunk { file_id, chunk } => {
                if let Some(session) = self.sessions.get_mut(&conn) {
                    if session.serving == Some(FileId(file_id)) {
                        session.stopped_chunks.insert(chunk);
                    }
                }
                Ok(vec![])
            }
            Wire::ReplacementRequest { file_id, chunk } => {
                if let Some(session) = self.sessions.get_mut(&conn) {
                    if session.serving == Some(FileId(file_id))
                        && !session.stopped_chunks.contains(&chunk)
                    {
                        let msgs = self.store.messages(FileId(file_id));
                        // Any stored message of the chunk works as a
                        // replacement (RLNC: coded messages are fungible);
                        // rotate through them so repeated corruption of the
                        // same payload cannot starve the chunk.
                        let candidates: Vec<usize> = session
                            .order
                            .iter()
                            .copied()
                            .filter(|&i| chunk_of(msgs[i].message_id().0) == chunk)
                            .collect();
                        if !candidates.is_empty() {
                            let pick = candidates[session.replace_cursor % candidates.len()];
                            session.replace_cursor = session.replace_cursor.wrapping_add(1);
                            session.resend.push_back(pick);
                        }
                    }
                }
                Ok(vec![])
            }
            Wire::StopTransmission { file_id } => {
                if let Some(session) = self.sessions.get_mut(&conn) {
                    if session.serving == Some(FileId(file_id)) {
                        session.serving = None;
                        self.serving_conns.remove(&conn);
                    }
                }
                Ok(vec![])
            }
            Wire::Feedback(report) => {
                // The set lookup goes first: verifying a signature is the
                // most expensive thing this loop does, and a stranger must
                // not be able to make it do so.
                if !self.subscribers.contains(&report.reporter) {
                    return Err(SystemError::UnknownParty {
                        who: "feedback from non-subscriber".to_owned(),
                    });
                }
                report.verify()?;
                // Replay protection: each reporter's windows must strictly
                // advance; a re-sent (captured) report credits nothing.
                if let Some(&last) = self.feedback_high_water.get(&report.reporter) {
                    if report.window_end_secs <= last {
                        return Err(SystemError::StaleFeedback {
                            last,
                            got: report.window_end_secs,
                        });
                    }
                }
                self.feedback_high_water
                    .insert(report.reporter, report.window_end_secs);
                let own = self.identity.public_key().to_bytes();
                for entry in &report.entries {
                    if entry.contributor != own {
                        self.credit_direct(entry.contributor, entry.bytes as f64);
                    }
                }
                Ok(vec![])
            }
            other => Err(SystemError::UnexpectedMessage {
                got: format!("{other:?}"),
                expected: "client-to-peer message".to_owned(),
            }),
        }
    }

    /// The next stored message to send on `conn`, advancing the cursor, or
    /// `None` when the session is idle or this peer's stock is exhausted.
    pub fn next_message(&mut self, conn: u64) -> Option<EncodedMessage> {
        let (next, consumed) = self.walk(conn)?;
        let next = next.cloned();
        let session = self.sessions.get_mut(&conn)?;
        let resent = consumed.min(session.resend.len());
        session.resend.drain(..resent);
        session.served += consumed - resent;
        next
    }

    /// One walk over `conn`'s send queue — replacements for corrupted
    /// messages first, then the sweep — past messages of stopped chunks:
    /// the next message, if any, and how many queue entries taking it
    /// consumes. `None` when `conn` serves nothing.
    fn walk(&self, conn: u64) -> Option<(Option<&EncodedMessage>, usize)> {
        let session = self.sessions.get(&conn)?;
        let msgs = self.store.messages(session.serving?);
        let sweep = &session.order[session.served.min(session.order.len())..];
        let live = session
            .resend
            .iter()
            .chain(sweep)
            .map(|&idx| &msgs[idx])
            .enumerate()
            .find(|(_, msg)| {
                !session
                    .stopped_chunks
                    .contains(&chunk_of(msg.message_id().0))
            });
        Some(match live {
            Some((at, msg)) => (Some(msg), at + 1),
            None => (None, session.resend.len() + sweep.len()),
        })
    }

    /// Builds the serving order for a session: chunks visited starting at a
    /// per-peer pseudo-random offset with a pseudo-random odd stride
    /// (coprime behaviour for typical chunk counts), messages in stored
    /// order within each chunk.
    fn serving_order(&self, file: FileId, conn: u64) -> Vec<usize> {
        let msgs = self.store.messages(file);
        if msgs.is_empty() {
            return Vec::new();
        }
        // Group message indices by chunk, preserving store order.
        let mut chunk_groups: Vec<(u32, Vec<usize>)> = Vec::new();
        for (i, m) in msgs.iter().enumerate() {
            let c = chunk_of(m.message_id().0);
            match chunk_groups.last_mut() {
                Some((last, group)) if *last == c => group.push(i),
                _ => chunk_groups.push((c, vec![i])),
            }
        }
        let n = chunk_groups.len();
        let own = self.identity.public_key().to_bytes();
        let seed = own.iter().fold(conn.wrapping_mul(0x9E37_79B9), |a, &b| {
            a.wrapping_mul(31).wrapping_add(b as u64)
        }) as usize;
        let offset = seed % n;
        // An odd stride hits every chunk when n is a power of two and most
        // other n; fall back to 1 only when it would cycle early.
        let mut stride = ((seed / n) % n) | 1;
        if n > 0 && gcd(stride, n) != 1 {
            stride = 1;
        }
        let mut order = Vec::with_capacity(msgs.len());
        let mut visited = 0usize;
        let mut pos = offset;
        while visited < n {
            order.extend_from_slice(&chunk_groups[pos].1);
            pos = (pos + stride) % n;
            visited += 1;
        }
        order
    }

    /// The message ids `conn`'s last [`Wire::FileRequest`] planned to
    /// send, in planned order — the transfer schedule. Pure in the peer's
    /// public key, the connection id, and the store's insertion order, so
    /// the sim and rt runtimes must agree on it byte-for-byte for matching
    /// `(key, conn, store)` triples; the golden schedule-identity test
    /// pins exactly that. Unlike [`serving`](Peer::serving) it survives a
    /// [`Wire::StopTransmission`], so it can be read after the download.
    pub fn transfer_schedule(&self, conn: u64) -> Option<Vec<MessageId>> {
        let session = self.sessions.get(&conn)?;
        let file = session.order_file?;
        let msgs = self.store.messages(file);
        Some(
            session
                .order
                .iter()
                .map(|&idx| msgs[idx].message_id())
                .collect(),
        )
    }

    /// The message [`next_message`](Peer::next_message) would return on
    /// `conn`, without advancing anything.
    fn peek_next(&self, conn: u64) -> Option<&EncodedMessage> {
        self.walk(conn)?.0
    }

    /// Whether `conn` has more stored messages to send.
    fn has_pending(&self, conn: u64) -> bool {
        self.peek_next(conn).is_some()
    }

    /// The wire length of the frame the next message on `conn` will make,
    /// exact (stopped chunks skipped), or `None` when
    /// [`next_message`](Peer::next_message) would return nothing.
    pub(crate) fn next_message_len(&self, conn: u64) -> Option<usize> {
        self.peek_next(conn).map(Wire::message_data_frame_len)
    }

    /// Connections that are authenticated, serving a file, and still have
    /// messages to send (the reactor's scheduling set), in connection
    /// order.
    pub fn active_conns(&self) -> impl Iterator<Item = u64> + '_ {
        self.serving_conns
            .iter()
            .copied()
            .filter(|&c| self.is_authenticated(c) && self.has_pending(c))
    }

    /// Drops a connection's session state.
    pub fn disconnect(&mut self, conn: u64) {
        self.sessions.remove(&conn);
        self.serving_conns.remove(&conn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Prover;
    use asymshare_rlnc::MessageId;

    fn rng(seed: u8) -> ChaChaRng {
        ChaChaRng::new([seed; 32], [0u8; 12])
    }

    fn authed_peer_and_conn(seed: u8) -> (Peer, u64, Identity, ChaChaRng) {
        let mut r = rng(seed);
        let peer_id = Identity::from_seed(b"peer");
        let user_id = Identity::from_seed(b"user");
        let mut peer = Peer::new(peer_id, 1.0);
        peer.add_subscriber(user_id.public_key().to_bytes());
        let conn = 1u64;
        let mut prover = Prover::new(user_id.auth_keys().clone());
        let commit = prover.start(&mut r);
        let challenge = peer.on_message(conn, commit, &mut r).unwrap().remove(0);
        let response = prover.on_challenge(&challenge).unwrap();
        let result = peer.on_message(conn, response, &mut r).unwrap().remove(0);
        assert!(matches!(result, Wire::AuthResult { ok: true, .. }));
        (peer, conn, user_id, r)
    }

    fn stock(peer: &mut Peer, file: u64, count: u64) {
        for id in 0..count {
            peer.store_mut().insert(EncodedMessage::new(
                FileId(file),
                MessageId(id),
                vec![1; 64],
            ));
        }
    }

    #[test]
    fn full_handshake_then_serving() {
        let (mut peer, conn, _, mut r) = authed_peer_and_conn(1);
        assert!(peer.is_authenticated(conn));
        stock(&mut peer, 9, 3);
        let out = peer
            .on_message(conn, Wire::FileRequest { file_id: 9 }, &mut r)
            .unwrap();
        assert!(out.is_empty());
        assert!(peer.has_pending(conn));
        let mut served = 0;
        while let Some(m) = peer.next_message(conn) {
            assert_eq!(m.file_id(), FileId(9));
            served += 1;
        }
        assert_eq!(served, 3);
        assert!(!peer.has_pending(conn));
    }

    #[test]
    fn session_user_is_the_key_the_handshake_verified() {
        let (peer, conn, user, _) = authed_peer_and_conn(13);
        assert_eq!(
            peer.session_user(conn),
            Some(user.public_key().to_bytes()),
            "the cached bytes are the identity's own serialization"
        );
        assert_eq!(peer.session_user(conn + 1), None);
    }

    #[test]
    fn next_message_len_reads_ahead_without_consuming() {
        let (mut peer, conn, _, mut r) = authed_peer_and_conn(14);
        assert_eq!(peer.next_message_len(conn), None, "nothing requested");
        // Two chunks whose messages differ in length.
        for (chunk, len) in [(0u64, 64usize), (1, 100)] {
            for i in 0..2 {
                peer.store_mut().insert(EncodedMessage::new(
                    FileId(9),
                    MessageId(chunk << 32 | i),
                    vec![1; len],
                ));
            }
        }
        peer.on_message(conn, Wire::FileRequest { file_id: 9 }, &mut r)
            .unwrap();
        let mut seen = 0;
        while let Some(len) = peer.next_message_len(conn) {
            assert_eq!(peer.next_message_len(conn), Some(len), "peeking is idle");
            if seen == 0 {
                // Stopping the chunk at the head moves the answer on to
                // the other chunk, as `next_message` will.
                let head = peer.transfer_schedule(conn).unwrap()[0];
                let chunk = chunk_of(head.0);
                peer.on_message(conn, Wire::StopChunk { file_id: 9, chunk }, &mut r)
                    .unwrap();
                assert_ne!(peer.next_message_len(conn), Some(len));
            }
            let len = peer.next_message_len(conn).unwrap();
            let msg = peer.next_message(conn).unwrap();
            assert_eq!(Wire::message_data_frame_len(&msg), len);
            seen += 1;
        }
        assert_eq!(seen, 2, "the stopped chunk's two messages were skipped");
        assert!(peer.next_message(conn).is_none());
    }

    #[test]
    fn unknown_subscriber_refused() {
        let mut r = rng(2);
        let mut peer = Peer::new(Identity::from_seed(b"peer"), 1.0);
        let stranger = Identity::from_seed(b"stranger");
        let mut prover = Prover::new(stranger.auth_keys().clone());
        let commit = prover.start(&mut r);
        let out = peer.on_message(5, commit, &mut r).unwrap();
        assert!(matches!(out[0], Wire::AuthResult { ok: false, .. }));
        assert!(!peer.is_authenticated(5));
    }

    #[test]
    fn request_before_auth_rejected() {
        let mut r = rng(3);
        let user = Identity::from_seed(b"user");
        let mut peer = Peer::new(Identity::from_seed(b"peer"), 1.0);
        peer.add_subscriber(user.public_key().to_bytes());
        // Open a session with just the commit, then request early.
        let mut prover = Prover::new(user.auth_keys().clone());
        let commit = prover.start(&mut r);
        peer.on_message(7, commit, &mut r).unwrap();
        let err = peer
            .on_message(7, Wire::FileRequest { file_id: 1 }, &mut r)
            .unwrap_err();
        assert!(matches!(err, SystemError::AuthenticationRejected { .. }));
    }

    #[test]
    fn missing_file_reported() {
        let (mut peer, conn, _, mut r) = authed_peer_and_conn(4);
        let err = peer
            .on_message(conn, Wire::FileRequest { file_id: 404 }, &mut r)
            .unwrap_err();
        assert_eq!(err, SystemError::UnknownFile { file_id: 404 });
    }

    #[test]
    fn stop_halts_serving() {
        let (mut peer, conn, _, mut r) = authed_peer_and_conn(5);
        stock(&mut peer, 9, 5);
        peer.on_message(conn, Wire::FileRequest { file_id: 9 }, &mut r)
            .unwrap();
        let _ = peer.next_message(conn);
        peer.on_message(conn, Wire::StopTransmission { file_id: 9 }, &mut r)
            .unwrap();
        assert!(peer.next_message(conn).is_none());
        assert!(!peer.has_pending(conn));
    }

    #[test]
    fn active_conns_walks_only_serving_sessions() {
        let (mut peer, first, _, mut r) = authed_peer_and_conn(12);
        let active = |peer: &Peer| peer.active_conns().collect::<Vec<u64>>();
        stock(&mut peer, 9, 2);
        let key = peer.sessions[&first].verified;
        for conn in first..first + 1000 {
            // Sessions past the first are planted already verified: the
            // handshake is not what is under test.
            peer.sessions.entry(conn).or_default().verified = key;
            peer.on_message(conn, Wire::FileRequest { file_id: 9 }, &mut r)
                .unwrap();
            assert_eq!(active(&peer), vec![conn]);
            while peer.next_message(conn).is_some() {}
            assert!(active(&peer).is_empty(), "stock exhausted");
            peer.on_message(conn, Wire::StopTransmission { file_id: 9 }, &mut r)
                .unwrap();
        }
        assert_eq!(peer.sessions.len(), 1000, "completed sessions are kept");
        assert!(peer.transfer_schedule(first + 500).is_some());
        assert!(active(&peer).is_empty());
        assert!(
            peer.serving_conns.is_empty(),
            "a serve pass has no stopped session left to inspect"
        );

        // A re-request on a stopped connection is active again, and the
        // scheduling set comes out in connection order.
        for conn in [first + 700, first + 3] {
            peer.on_message(conn, Wire::FileRequest { file_id: 9 }, &mut r)
                .unwrap();
        }
        assert_eq!(active(&peer), vec![first + 3, first + 700]);
        peer.disconnect(first + 3);
        assert_eq!(active(&peer), vec![first + 700]);
        assert_eq!(peer.serving_conns.len(), 1);
    }

    #[test]
    fn feedback_credits_other_contributors_only() {
        use crate::protocol::{FeedbackEntry, FeedbackReport};
        let (mut peer, _conn, user, mut r) = authed_peer_and_conn(6);
        let own_key = peer.identity().public_key().to_bytes();
        let other = [9u8; 64];
        let report = FeedbackReport::sign(
            user.auth_keys(),
            60,
            vec![
                FeedbackEntry {
                    contributor: other,
                    bytes: 1000,
                },
                FeedbackEntry {
                    contributor: own_key,
                    bytes: 5000,
                },
            ],
            &mut r,
        );
        peer.on_message(2, Wire::Feedback(report), &mut r).unwrap();
        assert_eq!(peer.upload_weight(&other), 1.0 + 1000.0);
        assert_eq!(peer.upload_weight(&own_key), 1.0, "self-reports ignored");
    }

    #[test]
    fn forged_feedback_rejected() {
        use crate::protocol::{FeedbackEntry, FeedbackReport};
        let (mut peer, _conn, user, mut r) = authed_peer_and_conn(7);
        let mut report = FeedbackReport::sign(
            user.auth_keys(),
            60,
            vec![FeedbackEntry {
                contributor: [9u8; 64],
                bytes: 10,
            }],
            &mut r,
        );
        report.entries[0].bytes = 1_000_000; // inflate after signing
        let err = peer
            .on_message(2, Wire::Feedback(report), &mut r)
            .unwrap_err();
        assert_eq!(err, SystemError::BadFeedbackSignature);
        assert_eq!(peer.upload_weight(&[9u8; 64]), 1.0);
    }

    /// The order of the three feedback checks: subscriber lookup, then the
    /// signature, then the replay mark. A stranger is answered by the
    /// lookup whatever its report's signature is worth — so it cannot make
    /// the event loop run a verification — and a window end is compared or
    /// stored only once its signature has been checked.
    #[test]
    fn feedback_checks_run_lookup_then_signature_then_replay() {
        use crate::protocol::{FeedbackEntry, FeedbackReport};
        let (mut peer, _conn, user, mut r) = authed_peer_and_conn(15);
        let stranger = Identity::from_seed(b"stranger");
        let entry = |bytes| {
            vec![FeedbackEntry {
                contributor: [9u8; 64],
                bytes,
            }]
        };
        let unknown = |err| matches!(err, SystemError::UnknownParty { .. });

        let signed = FeedbackReport::sign(stranger.auth_keys(), 60, entry(10), &mut r);
        let mut inflated = signed.clone();
        inflated.entries[0].bytes = 1_000_000;
        // Neither the reporter nor the commitment is even a curve point.
        let mut junk = signed.clone();
        junk.reporter = [0xFF; 64];
        junk.signature.commitment = [0xFF; 64];
        assert_eq!(inflated.verify(), Err(SystemError::BadFeedbackSignature));
        assert_eq!(junk.verify(), Err(SystemError::BadFeedbackSignature));
        for report in [signed, inflated, junk] {
            let err = peer
                .on_message(2, Wire::Feedback(report), &mut r)
                .unwrap_err();
            assert!(unknown(err), "a stranger's report is refused by the lookup");
        }
        assert!(peer.feedback_high_water.is_empty());
        assert_eq!(peer.upload_weight(&[9u8; 64]), 1.0);

        // A subscriber's report with a bad signature fails on the signature
        // wherever its claimed window lies, and moves no mark.
        let good = FeedbackReport::sign(user.auth_keys(), 60, entry(10), &mut r);
        peer.on_message(2, Wire::Feedback(good), &mut r).unwrap();
        for window_end in [30, 60, 90] {
            let mut forged = FeedbackReport::sign(user.auth_keys(), window_end, entry(10), &mut r);
            forged.entries[0].bytes = 1_000_000;
            let err = peer
                .on_message(2, Wire::Feedback(forged), &mut r)
                .unwrap_err();
            assert_eq!(
                err,
                SystemError::BadFeedbackSignature,
                "window {window_end}"
            );
        }
        let reporter = user.public_key().to_bytes();
        assert_eq!(peer.feedback_high_water[&reporter], 60);
        let next = FeedbackReport::sign(user.auth_keys(), 61, entry(5), &mut r);
        peer.on_message(2, Wire::Feedback(next), &mut r).unwrap();
        assert_eq!(peer.upload_weight(&[9u8; 64]), 1.0 + 15.0);
    }

    #[test]
    fn replayed_feedback_credits_nothing() {
        use crate::protocol::{FeedbackEntry, FeedbackReport};
        let (mut peer, _conn, user, mut r) = authed_peer_and_conn(9);
        let other = [7u8; 64];
        let entry = |bytes| {
            vec![FeedbackEntry {
                contributor: other,
                bytes,
            }]
        };
        let report = FeedbackReport::sign(user.auth_keys(), 60, entry(500), &mut r);
        peer.on_message(2, Wire::Feedback(report.clone()), &mut r)
            .unwrap();
        assert_eq!(peer.upload_weight(&other), 1.0 + 500.0);
        // The exact captured report replays for nothing.
        let err = peer
            .on_message(2, Wire::Feedback(report), &mut r)
            .unwrap_err();
        assert_eq!(err, SystemError::StaleFeedback { last: 60, got: 60 });
        assert_eq!(peer.upload_weight(&other), 1.0 + 500.0);
        // So does any report from an already-covered window.
        let old = FeedbackReport::sign(user.auth_keys(), 30, entry(500), &mut r);
        assert!(peer.on_message(2, Wire::Feedback(old), &mut r).is_err());
        assert_eq!(peer.upload_weight(&other), 1.0 + 500.0);
        // A genuinely newer window still credits.
        let fresh = FeedbackReport::sign(user.auth_keys(), 61, entry(100), &mut r);
        peer.on_message(2, Wire::Feedback(fresh), &mut r).unwrap();
        assert_eq!(peer.upload_weight(&other), 1.0 + 600.0);
    }

    #[test]
    fn replacement_request_reserves_a_chunk_message() {
        let (mut peer, conn, _, mut r) = authed_peer_and_conn(8);
        stock(&mut peer, 9, 3); // ids 0..3 all live in chunk 0
        peer.on_message(conn, Wire::FileRequest { file_id: 9 }, &mut r)
            .unwrap();
        while peer.next_message(conn).is_some() {}
        assert!(!peer.has_pending(conn), "sweep exhausted");
        peer.on_message(
            conn,
            Wire::ReplacementRequest {
                file_id: 9,
                chunk: 0,
            },
            &mut r,
        )
        .unwrap();
        assert!(peer.has_pending(conn), "replacement queued");
        let m = peer.next_message(conn).unwrap();
        assert_eq!(chunk_of(m.message_id().0), 0);
        assert!(peer.next_message(conn).is_none());
        // A completed chunk ignores further replacement requests.
        peer.on_message(
            conn,
            Wire::StopChunk {
                file_id: 9,
                chunk: 0,
            },
            &mut r,
        )
        .unwrap();
        peer.on_message(
            conn,
            Wire::ReplacementRequest {
                file_id: 9,
                chunk: 0,
            },
            &mut r,
        )
        .unwrap();
        assert!(peer.next_message(conn).is_none());
    }

    #[test]
    fn per_file_cap_store_integrates() {
        let peer = Peer::new(Identity::from_seed(b"peer"), 1.0)
            .with_store(MessageStore::with_per_file_cap(2));
        assert_eq!(peer.store().message_count(FileId(1)), 0);
    }
}
