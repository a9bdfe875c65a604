//! The downloading user: connects to many peers in parallel, authenticates,
//! streams coded messages into the decoder, stops everyone once `k` messages
//! per chunk are in, and reports contributions back to its home peer.

use crate::error::SystemError;
use crate::identity::Identity;
use crate::peer::KeyBytes;
use crate::protocol::{FeedbackEntry, FeedbackReport, Wire};
use crate::session::Prover;
use asymshare_crypto::chacha20::ChaChaRng;
use asymshare_gf::Field;
use asymshare_rlnc::{ChunkedDecoder, CodecError, FileManifest, SealedBlock};
use std::collections::{BTreeMap, HashMap};

/// Fault and recovery counters for one download session.
///
/// Filled in by the user core (corruptions, duplicates, cumulative bytes)
/// and by the client engine both runtimes drive (retries, reassignments,
/// replacements, quarantines), so tests and benches can assert recovery
/// behavior instead of eyeballing logs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionStats {
    /// Messages rejected by per-message digest authentication (bit
    /// corruption or tampering).
    pub corruptions: u64,
    /// Exact-duplicate messages rejected by the decoder (typically re-sent
    /// after a reconnect).
    pub duplicates: u64,
    /// Reconnect attempts made to stalled or dropped peers.
    pub retries: u64,
    /// Times demand was re-planned from a dead peer onto a survivor.
    pub reassignments: u64,
    /// Replacement requests sent for digest-rejected messages.
    pub replacements: u64,
    /// Serving peers this session banned on its own evidence of
    /// pollution, replay or selective serving.
    pub quarantines: u64,
    /// Extra wall-clock (µs) the download loop spent sleeping past its
    /// base poll cadence because every live peer was inside its retry
    /// backoff — honored backoff instead of busy re-polling.
    pub backoff_wait_us: u64,
    /// Cumulative payload bytes per contributing peer (unlike the feedback
    /// window tallies, never reset).
    pub bytes_by_peer: HashMap<KeyBytes, u64>,
}

/// Per-connection download state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnStage {
    /// Handshake in flight.
    Authenticating,
    /// Authenticated and requested; messages flowing.
    Downloading,
    /// Peer refused authentication.
    Refused,
    /// We sent stop (or the download finished).
    Stopped,
}

#[derive(Debug)]
struct Conn {
    peer_key: KeyBytes,
    prover: Prover,
    stage: ConnStage,
    /// The response scalar we sent, kept to verify the peer's countersigned
    /// acknowledgement (mutual authentication).
    sent_response: Option<[u8; 32]>,
}

/// A remote download session for one (chunked) file.
///
/// Generic over the coding field `F`; the paper's recommended instantiation
/// is GF(2³²). Drive it by calling [`connect`](Self::connect) once per peer
/// and routing every inbound message through [`on_message`](Self::on_message).
#[derive(Debug)]
pub struct User<F: Field> {
    identity: Identity,
    file_id: u64,
    decoder: ChunkedDecoder<F>,
    // Conn id -> connection state. Ordered: stop-control fan-outs iterate
    // this map, and the order those frames hit the wire pairs them with the
    // fault injector's RNG stream — hash order would make seeded runs
    // diverge between otherwise-identical sessions.
    conns: BTreeMap<u64, Conn>,
    received_from: HashMap<KeyBytes, u64>,
    /// Digest-rejected bytes per peer in the current feedback window —
    /// debited from that peer's entry when the report is built, so garbage
    /// never nets Eq.-2 credit.
    rejected_from: HashMap<KeyBytes, u64>,
    innovative: u64,
    redundant: u64,
    stats: SessionStats,
    /// Scratch of [`prehash`](Self::prehash): `(frame index, chunk)` of the
    /// frames picked from the datagram in hand.
    picked: Vec<(usize, u32)>,
}

impl<F: Field> User<F> {
    /// Starts a session for the file described by `manifest`, decoding with
    /// the user's own coding secret.
    ///
    /// # Errors
    ///
    /// Propagates manifest/field mismatches from the decoder.
    pub fn new(identity: Identity, manifest: FileManifest) -> Result<Self, SystemError> {
        let file_id = manifest.file_id().0;
        let decoder = ChunkedDecoder::new(manifest, identity.coding_secret().clone())?;
        Ok(User {
            identity,
            file_id,
            decoder,
            conns: BTreeMap::new(),
            received_from: HashMap::new(),
            rejected_from: HashMap::new(),
            innovative: 0,
            redundant: 0,
            stats: SessionStats::default(),
            picked: Vec::new(),
        })
    }

    /// The session's file id.
    pub fn file_id(&self) -> u64 {
        self.file_id
    }

    /// Opens a connection to a peer, producing the first handshake message.
    pub fn connect(&mut self, conn: u64, peer_key: KeyBytes, rng: &mut ChaChaRng) -> Wire {
        let mut prover = Prover::new(self.identity.auth_keys().clone());
        let commit = prover.start(rng);
        self.conns.insert(
            conn,
            Conn {
                peer_key,
                prover,
                stage: ConnStage::Authenticating,
                sent_response: None,
            },
        );
        commit
    }

    /// Connection `conn`'s state. Runs once per frame, so the error for a
    /// stranger is built only when it happens.
    fn conn(&mut self, conn: u64) -> Result<&mut Conn, SystemError> {
        let who = || format!("connection {conn}");
        let unknown = || SystemError::UnknownParty { who: who() };
        self.conns.get_mut(&conn).ok_or_else(unknown)
    }

    /// A connection's stage.
    pub fn stage(&self, conn: u64) -> Option<ConnStage> {
        self.conns.get(&conn).map(|c| c.stage)
    }

    /// Hashes ahead of time, four at a time, the coded messages at the head
    /// of one datagram from `conn` that [`on_message`](Self::on_message) is
    /// certain to hash when they are fed to it, in order, right after this
    /// call. It changes when those digests are computed and nothing else:
    /// each frame is still admitted or rejected by `on_message`, which finds
    /// the digest already in the message and compares it.
    ///
    /// A frame is picked iff the connection is downloading, the file is
    /// incomplete, the manifest knows the message id, and its chunk still
    /// lacks more messages than frames already picked for it. Fewer picked
    /// predecessors than the chunk lacks means the chunk — and so the file —
    /// cannot have completed by the time the frame is reached, which is
    /// exactly when `on_message` hashes it. Every other frame is left for
    /// `on_message` to decide, as are all frames after the first that is not
    /// a coded message (it may change the connection's stage).
    pub fn prehash(&mut self, conn: u64, frames: &mut [Wire]) {
        let downloading = self.stage(conn) == Some(ConnStage::Downloading);
        if !downloading || self.decoder.is_complete() {
            return;
        }
        self.picked.clear();
        for (index, frame) in frames.iter().enumerate() {
            let Wire::MessageData(msg) = frame else {
                break;
            };
            let chunk = FileManifest::chunk_of(msg.message_id());
            let taken = self.picked.iter().filter(|&&(_, c)| c == chunk).count();
            let lacks_more = self.decoder.chunk_needed(chunk).is_ok_and(|n| n > taken);
            if lacks_more && self.decoder.manifest().auth().contains(msg.message_id()) {
                self.picked.push((index, chunk));
            }
        }
        let mut picked = self.picked.iter().map(|&(index, _)| index).peekable();
        let msgs = frames.iter_mut().enumerate().filter_map(|(index, frame)| {
            let Wire::MessageData(msg) = frame else {
                return None;
            };
            picked.next_if_eq(&index).map(|_| msg)
        });
        self.decoder.prehash(msgs);
    }

    /// Handles an inbound message; returns `(connection, message)` pairs to
    /// send (stop messages fan out to every live connection).
    ///
    /// # Errors
    ///
    /// Codec errors (including failed per-message digest authentication)
    /// and protocol-state errors. A digest failure poisons only the one
    /// message — the caller can keep the connection or drop it.
    pub fn on_message(
        &mut self,
        conn: u64,
        wire: Wire,
        _rng: &mut ChaChaRng,
    ) -> Result<Vec<(u64, Wire)>, SystemError> {
        match wire {
            Wire::AuthChallenge { .. } => {
                let c = self.conn(conn)?;
                let response = c.prover.on_challenge(&wire)?;
                if let Wire::AuthResponse { s } = &response {
                    c.sent_response = Some(*s);
                }
                Ok(vec![(conn, response)])
            }
            Wire::AuthResult { ok, ack } => {
                let file_id = self.file_id;
                let c = self.conn(conn)?;
                if ok {
                    // An acceptance before this attempt answered any
                    // challenge cannot be its reply: it is the late result
                    // of a handshake since re-run. The attempt goes on.
                    let Some(s) = c.sent_response else {
                        return Err(SystemError::UnexpectedMessage {
                            got: "AuthResult".to_owned(),
                            expected: "AuthChallenge (no response outstanding)".to_owned(),
                        });
                    };
                    // Mutual authentication: the acceptance must be signed
                    // by the peer key we intended to talk to.
                    let transcript = crate::protocol::auth_ack_transcript(&s, true);
                    let verified = asymshare_crypto::schnorr::PublicKey::from_bytes(&c.peer_key)
                        .zip(asymshare_crypto::schnorr::Signature::from_bytes(&ack))
                        .is_some_and(|(key, sig)| {
                            asymshare_crypto::schnorr::verify(&key, &transcript, &sig)
                        });
                    if !verified {
                        c.stage = ConnStage::Refused;
                        return Err(SystemError::AuthenticationRejected {
                            context: "peer acknowledgement signature invalid (possible MITM)"
                                .to_owned(),
                        });
                    }
                    c.stage = ConnStage::Downloading;
                    Ok(vec![(conn, Wire::FileRequest { file_id })])
                } else {
                    c.stage = ConnStage::Refused;
                    Ok(vec![])
                }
            }
            Wire::MessageData(msg) => {
                let c = self.conn(conn)?;
                // Nothing from a peer that has not completed the mutual
                // handshake reaches the decoder or earns credit.
                if matches!(c.stage, ConnStage::Authenticating | ConnStage::Refused) {
                    return Err(SystemError::UnexpectedMessage {
                        got: "MessageData".to_owned(),
                        expected: "handshake reply (connection not authenticated)".to_owned(),
                    });
                }
                let peer_key = c.peer_key;
                if self.decoder.is_complete() {
                    self.redundant += 1;
                    return Ok(vec![]);
                }
                // Admission order: a message is hashed iff it can still
                // reach a decoder, and credited iff it was hashed and
                // accepted. A complete chunk's decoder takes nothing more,
                // so its stragglers are dropped unverified and uncredited
                // like those of a complete file — except a replayed id,
                // which stays visible to the replay detector.
                let chunk = FileManifest::chunk_of(msg.message_id());
                if self.decoder.chunk_complete(chunk).unwrap_or(false) {
                    if self.decoder.has_seen(msg.message_id()) {
                        self.stats.duplicates += 1;
                        return Err(CodecError::DuplicateMessage {
                            id: msg.message_id().0,
                        }
                        .into());
                    }
                    self.redundant += 1;
                    return Ok(vec![]);
                }
                let wire_len = Wire::message_data_frame_len(&msg) as u64;
                let innovative = match self.decoder.add_message(msg) {
                    Ok(innovative) => innovative,
                    Err(e) => {
                        match &e {
                            CodecError::AuthenticationFailed { .. } => {
                                self.stats.corruptions += 1;
                                *self.rejected_from.entry(peer_key).or_insert(0) += wire_len;
                            }
                            CodecError::DuplicateMessage { .. } => self.stats.duplicates += 1,
                            _ => {}
                        }
                        return Err(e.into());
                    }
                };
                *self.received_from.entry(peer_key).or_insert(0) += wire_len;
                *self.stats.bytes_by_peer.entry(peer_key).or_insert(0) += wire_len;
                if innovative {
                    self.innovative += 1;
                } else {
                    self.redundant += 1;
                }
                // Chunk-granular stop (§III-D): the moment a chunk becomes
                // decodable, tell every downloading peer to skip it; once the
                // file is, stop everyone still sending (transmission "5").
                let (file_id, done) = (self.file_id, self.decoder.is_complete());
                let stop = if done {
                    Wire::StopTransmission { file_id }
                } else if self.decoder.chunk_complete(chunk).unwrap_or(false) {
                    Wire::StopChunk { file_id, chunk }
                } else {
                    return Ok(vec![]);
                };
                let downloading = self
                    .conns
                    .iter_mut()
                    .filter(|(_, c)| c.stage == ConnStage::Downloading);
                Ok(downloading
                    .map(|(&id, c)| {
                        if done {
                            c.stage = ConnStage::Stopped;
                        }
                        (id, stop.clone())
                    })
                    .collect())
            }
            other => Err(SystemError::UnexpectedMessage {
                got: format!("{other:?}"),
                expected: "peer-to-user message".to_owned(),
            }),
        }
    }

    /// Whether the file can be fully decoded.
    pub fn is_complete(&self) -> bool {
        self.decoder.is_complete()
    }

    /// Download progress in `[0, 1]` (independent messages / needed).
    pub fn progress(&self) -> f64 {
        self.decoder.progress()
    }

    /// Count of innovative messages absorbed.
    pub fn innovative_count(&self) -> u64 {
        self.innovative
    }

    /// Count of redundant (dependent or late) messages received —
    /// the overhead of parallel downloading without coordination.
    pub fn redundant_count(&self) -> u64 {
        self.redundant
    }

    /// Count of received messages whose digest was computed — the ones that
    /// could still reach a decoder when they arrived.
    pub fn hashed_count(&self) -> u64 {
        self.decoder.hashed_count()
    }

    /// Decodes and returns the file.
    ///
    /// # Errors
    ///
    /// [`asymshare_rlnc::CodecError::NotEnoughMessages`] until complete;
    /// [`asymshare_rlnc::CodecError::ChunkSealed`] once
    /// [`seal_chunk`](Self::seal_chunk) has moved a chunk out, as
    /// [`rt::download_file_with`](crate::rt::download_file_with) does.
    pub fn decode(&self) -> Result<Vec<u8>, SystemError> {
        Ok(self.decoder.decode()?)
    }

    /// [`ChunkedDecoder::seal_chunk`]: the rows of a chunk at rank `k`,
    /// once, for a caller that decodes it beside the session — which goes
    /// on treating the chunk as complete (stragglers dropped unhashed, a
    /// replayed id a duplicate, listed by `completed_chunks`).
    pub fn seal_chunk(&mut self, index: u32) -> Option<SealedBlock<F>> {
        self.decoder.seal_chunk(index)
    }

    /// The manifest of the file being downloaded.
    pub fn manifest(&self) -> &FileManifest {
        self.decoder.manifest()
    }

    /// Builds the signed periodic feedback report for the home peer and
    /// resets the window counters. Digest-rejected bytes are debited from
    /// the offender's window entry (saturating at zero): a peer that pushed
    /// garbage alongside good messages nets credit only for the difference.
    pub fn make_feedback(&mut self, window_end_secs: u64, rng: &mut ChaChaRng) -> FeedbackReport {
        let mut rejected = std::mem::take(&mut self.rejected_from);
        let entries: Vec<FeedbackEntry> = self
            .received_from
            .drain()
            .map(|(contributor, bytes)| FeedbackEntry {
                contributor,
                bytes: bytes.saturating_sub(rejected.remove(&contributor).unwrap_or(0)),
            })
            .collect();
        FeedbackReport::sign(self.identity.auth_keys(), window_end_secs, entries, rng)
    }

    /// Bytes received per contributor in the current feedback window.
    pub fn window_bytes(&self) -> &HashMap<KeyBytes, u64> {
        &self.received_from
    }

    /// Fault and recovery counters for this session.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// Mutable access for the client engine, which records the retries,
    /// reassignments and replacements it performs on the user's behalf.
    pub fn stats_mut(&mut self) -> &mut SessionStats {
        &mut self.stats
    }

    /// Forgets a connection (the peer died or stalled past its deadline).
    /// Returns the peer key it pointed at, if the connection existed.
    pub fn drop_conn(&mut self, conn: u64) -> Option<KeyBytes> {
        self.conns.remove(&conn).map(|c| c.peer_key)
    }

    /// Chunks that are already decodable — a reconnecting peer is told to
    /// skip these immediately instead of re-streaming them.
    pub fn completed_chunks(&self) -> Vec<u32> {
        (0..self.chunk_count())
            .filter(|&i| self.chunk_complete(i))
            .collect()
    }

    /// Whether chunk `index` is decodable (a sealed chunk counts).
    pub(crate) fn chunk_complete(&self, index: u32) -> bool {
        self.decoder.chunk_complete(index).unwrap_or(false)
    }

    /// Linearly independent messages received so far.
    pub fn independent_count(&self) -> usize {
        self.decoder.independent_count()
    }

    /// Independent messages required to decode the whole file.
    pub fn messages_needed(&self) -> usize {
        self.decoder.messages_needed()
    }

    /// Number of chunks in the file being downloaded.
    pub fn chunk_count(&self) -> u32 {
        self.decoder.manifest().chunk_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peer::Peer;
    use asymshare_gf::{FieldKind, Gf2p32};
    use asymshare_rlnc::{ChunkedEncoder, DigestKind, EncodedMessage, FileId};

    fn rng(seed: u8) -> ChaChaRng {
        ChaChaRng::new([seed; 32], [0u8; 12])
    }

    /// Full in-memory protocol exchange between one user and two peers.
    #[test]
    fn end_to_end_two_peer_download() {
        let mut r = rng(1);
        let owner = Identity::from_seed(b"owner");
        let data: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
        let mut enc = ChunkedEncoder::<Gf2p32>::with_chunk_size(
            FieldKind::Gf2p32,
            4,
            DigestKind::Md5,
            owner.coding_secret().clone(),
            FileId(7),
            &data,
            2048,
        )
        .unwrap();
        let batches = enc.encode_for_peers(2).unwrap();
        let manifest = enc.manifest().clone();

        let mut peers: Vec<Peer> = (0..2u8)
            .map(|i| {
                let mut p = Peer::new(Identity::from_seed(&[b'p', i]), 1.0);
                p.add_subscriber(owner.public_key().to_bytes());
                p
            })
            .collect();
        for (p, batch) in peers.iter_mut().zip(batches) {
            for m in batch {
                p.store_mut().insert(m);
            }
        }

        let mut user = User::<Gf2p32>::new(owner, manifest).unwrap();
        // Handshake both peers (conn id = peer index).
        for (i, p) in peers.iter_mut().enumerate() {
            let conn = i as u64;
            let commit = user.connect(conn, p.identity().public_key().to_bytes(), &mut r);
            let challenge = p.on_message(conn, commit, &mut r).unwrap().remove(0);
            let response = user
                .on_message(conn, challenge, &mut r)
                .unwrap()
                .remove(0)
                .1;
            let result = p.on_message(conn, response, &mut r).unwrap().remove(0);
            let request = user.on_message(conn, result, &mut r).unwrap().remove(0).1;
            assert!(p.on_message(conn, request, &mut r).unwrap().is_empty());
            assert_eq!(user.stage(conn), Some(ConnStage::Downloading));
        }

        // Round-robin serving until the user stops us.
        let mut stopped = [false; 2];
        while !user.is_complete() {
            let mut any = false;
            for i in 0..peers.len() {
                let conn = i as u64;
                if stopped[i] {
                    continue;
                }
                let Some(msg) = peers[i].next_message(conn) else {
                    continue;
                };
                any = true;
                let replies = user
                    .on_message(conn, Wire::MessageData(msg), &mut r)
                    .unwrap();
                for (target, reply) in replies {
                    if let Wire::StopTransmission { .. } = reply {
                        peers[target as usize]
                            .on_message(target, reply, &mut r)
                            .unwrap();
                        stopped[target as usize] = true;
                    }
                }
                if user.is_complete() {
                    break;
                }
            }
            assert!(any, "peers ran dry before completion");
        }
        assert_eq!(user.decode().unwrap(), data);
        assert!(user.innovative_count() > 0);

        // Feedback drains the window.
        let report = user.make_feedback(60, &mut r);
        assert!(report.verify().is_ok());
        assert_eq!(report.entries.len(), 2, "both peers contributed");
        assert!(user.window_bytes().is_empty());
    }

    /// A user mid-download from one authenticated peer on connection 0,
    /// that peer's key, and every coded message of a two-chunk file (k = 4,
    /// two rank-checked batches per chunk) grouped by chunk.
    fn downloading_user(r: &mut ChaChaRng) -> (User<Gf2p32>, KeyBytes, Vec<Vec<EncodedMessage>>) {
        let owner = Identity::from_seed(b"owner5");
        let data: Vec<u8> = (0..4096u32).map(|i| (i % 241) as u8).collect();
        let mut enc = ChunkedEncoder::<Gf2p32>::with_chunk_size(
            FieldKind::Gf2p32,
            4,
            DigestKind::Md5,
            owner.coding_secret().clone(),
            FileId(7),
            &data,
            2048,
        )
        .unwrap();
        let mut by_chunk = vec![Vec::new(); 2];
        for msg in enc.encode_for_peers(2).unwrap().into_iter().flatten() {
            by_chunk[FileManifest::chunk_of(msg.message_id()) as usize].push(msg);
        }
        let mut peer = Peer::new(Identity::from_seed(b"p5"), 1.0);
        peer.add_subscriber(owner.public_key().to_bytes());
        let peer_key = peer.identity().public_key().to_bytes();
        let mut user = User::<Gf2p32>::new(owner, enc.manifest().clone()).unwrap();
        let commit = user.connect(0, peer_key, r);
        let challenge = peer.on_message(0, commit, r).unwrap().remove(0);
        let response = user.on_message(0, challenge, r).unwrap().remove(0).1;
        let result = peer.on_message(0, response, r).unwrap().remove(0);
        user.on_message(0, result, r).unwrap();
        assert_eq!(user.stage(0), Some(ConnStage::Downloading));
        (user, peer_key, by_chunk)
    }

    fn corrupted(msg: &EncodedMessage) -> EncodedMessage {
        let mut payload = msg.payload().to_vec();
        payload[0] ^= 0xFF;
        EncodedMessage::new(msg.file_id(), msg.message_id(), payload)
    }

    #[test]
    fn straggler_of_complete_chunk_dropped_unhashed_and_uncredited() {
        let mut r = rng(5);
        let (mut user, peer_key, by_chunk) = downloading_user(&mut r);
        for msg in by_chunk[0][..4].iter().cloned() {
            user.on_message(0, Wire::MessageData(msg), &mut r).unwrap();
        }
        assert_eq!(user.completed_chunks(), vec![0]);
        let stats = user.stats().clone();
        let window = user.window_bytes().clone();
        let redundant = user.redundant_count();
        // Were it hashed, the flipped payload byte would be a corruption.
        let replies = user
            .on_message(0, Wire::MessageData(corrupted(&by_chunk[0][4])), &mut r)
            .unwrap();
        assert!(replies.is_empty());
        assert_eq!(user.redundant_count(), redundant + 1);
        assert_eq!(user.stats(), &stats, "no corruption, no bytes_by_peer");
        assert_eq!(user.window_bytes(), &window, "no credit");
        assert!(user.rejected_from.is_empty(), "no debit either");
        assert_eq!(window.len(), 1);
        assert!(window.contains_key(&peer_key));
    }

    #[test]
    fn replay_on_complete_chunk_still_reported_as_duplicate() {
        let mut r = rng(6);
        let (mut user, _, by_chunk) = downloading_user(&mut r);
        for msg in by_chunk[0][..4].iter().cloned() {
            user.on_message(0, Wire::MessageData(msg), &mut r).unwrap();
        }
        let window = user.window_bytes().clone();
        let replay = by_chunk[0][1].clone();
        let id = replay.message_id().0;
        let err = user
            .on_message(0, Wire::MessageData(replay), &mut r)
            .unwrap_err();
        assert!(
            matches!(err, SystemError::Codec(CodecError::DuplicateMessage { id: got }) if got == id),
            "got {err}"
        );
        assert_eq!(user.stats().duplicates, 1);
        assert_eq!(user.window_bytes(), &window, "a replay earns nothing");
    }

    /// [`downloading_user`] with chunk 0 complete and sealed, chunk 1
    /// untouched.
    fn half_sealed_user(r: &mut ChaChaRng) -> (User<Gf2p32>, Vec<Vec<EncodedMessage>>) {
        let (mut user, _, by_chunk) = downloading_user(r);
        assert!(user.seal_chunk(0).is_none(), "nothing to seal at rank 0");
        for msg in by_chunk[0][..4].iter().cloned() {
            user.on_message(0, Wire::MessageData(msg), r).unwrap();
        }
        assert!(user.seal_chunk(0).is_some());
        assert!(user.seal_chunk(0).is_none(), "a chunk seals once");
        (user, by_chunk)
    }

    #[test]
    fn decode_after_sealing_is_a_typed_error() {
        let mut r = rng(12);
        let (mut user, by_chunk) = half_sealed_user(&mut r);
        let sealed = SystemError::Codec(CodecError::ChunkSealed { index: 0 });
        assert_eq!(user.decode(), Err(sealed.clone()));
        for msg in by_chunk[1][..4].iter().cloned() {
            user.on_message(0, Wire::MessageData(msg), &mut r).unwrap();
        }
        assert!(user.is_complete());
        assert_eq!(user.decode(), Err(sealed), "complete, and still sealed");
    }

    #[test]
    fn completed_chunks_lists_a_sealed_chunk() {
        let mut r = rng(13);
        let (user, _) = half_sealed_user(&mut r);
        assert_eq!(user.completed_chunks(), vec![0]);
        assert_eq!(user.independent_count(), 4);
        assert!((user.progress() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sealed_chunk_drops_stragglers_unhashed_and_reports_replays() {
        let mut r = rng(14);
        let (mut user, by_chunk) = half_sealed_user(&mut r);
        let (hashed, redundant) = (user.hashed_count(), user.redundant_count());
        let straggler = Wire::MessageData(corrupted(&by_chunk[0][4]));
        assert!(user.on_message(0, straggler, &mut r).unwrap().is_empty());
        assert_eq!(user.hashed_count(), hashed, "dropped before the digest");
        assert_eq!(user.redundant_count(), redundant + 1);
        let replay = by_chunk[0][2].clone();
        let id = replay.message_id().0;
        assert_eq!(
            user.on_message(0, Wire::MessageData(replay), &mut r),
            Err(SystemError::Codec(CodecError::DuplicateMessage { id }))
        );
        assert_eq!(user.stats().duplicates, 1);
    }

    #[test]
    fn forgery_for_incomplete_chunk_rejected_then_genuine_accepted() {
        let mut r = rng(7);
        let (mut user, peer_key, by_chunk) = downloading_user(&mut r);
        // Chunk 0 complete, chunk 1 still open: the shortcut must not leak
        // from one chunk to another.
        for msg in by_chunk[0][..4].iter().cloned() {
            user.on_message(0, Wire::MessageData(msg), &mut r).unwrap();
        }
        let genuine = by_chunk[1][0].clone();
        let err = user
            .on_message(0, Wire::MessageData(corrupted(&genuine)), &mut r)
            .unwrap_err();
        assert!(
            matches!(
                err,
                SystemError::Codec(CodecError::AuthenticationFailed { .. })
            ),
            "got {err}"
        );
        assert_eq!(user.stats().corruptions, 1);
        assert!(user.rejected_from[&peer_key] > 0);
        // The forged id never entered the seen-set, so the genuine message
        // is innovative rather than a "duplicate".
        let innovative = user.innovative_count();
        user.on_message(0, Wire::MessageData(genuine), &mut r)
            .unwrap();
        assert_eq!(user.innovative_count(), innovative + 1);
        assert_eq!(user.stats().duplicates, 0);
    }

    /// A user over a three-chunk file (k = 4; chunks of 2048, 2048 and 904
    /// bytes, twelve coded messages each) holding a connection in every
    /// stage one can be in while the file is incomplete — 0 and 1
    /// downloading from two peers, 2 authenticating, 3 refused — and the
    /// coded messages by chunk. Deterministic: two calls build twins.
    fn user_with_conns_in_every_stage() -> (User<Gf2p32>, Vec<Vec<EncodedMessage>>) {
        let mut r = rng(9);
        let owner = Identity::from_seed(b"owner9");
        let data: Vec<u8> = (0..5000u32).map(|i| (i % 239) as u8).collect();
        let mut enc = ChunkedEncoder::<Gf2p32>::with_chunk_size(
            FieldKind::Gf2p32,
            4,
            DigestKind::Md5,
            owner.coding_secret().clone(),
            FileId(7),
            &data,
            2048,
        )
        .unwrap();
        let mut by_chunk = vec![Vec::new(); 3];
        for msg in enc.encode_for_peers(3).unwrap().into_iter().flatten() {
            by_chunk[FileManifest::chunk_of(msg.message_id()) as usize].push(msg);
        }
        let mut user = User::<Gf2p32>::new(owner.clone(), enc.manifest().clone()).unwrap();
        for conn in 0..4u64 {
            let mut peer = Peer::new(Identity::from_seed(&[b'q', conn as u8]), 1.0);
            peer.add_subscriber(owner.public_key().to_bytes());
            let commit = user.connect(conn, peer.identity().public_key().to_bytes(), &mut r);
            if conn == 2 {
                continue;
            }
            let challenge = peer.on_message(conn, commit, &mut r).unwrap().remove(0);
            let response = user
                .on_message(conn, challenge, &mut r)
                .unwrap()
                .remove(0)
                .1;
            let mut result = peer.on_message(conn, response, &mut r).unwrap().remove(0);
            if conn == 3 {
                result = Wire::AuthResult {
                    ok: false,
                    ack: [0u8; 96],
                };
            }
            user.on_message(conn, result, &mut r).unwrap();
        }
        let stages: Vec<_> = (0..4).map(|conn| user.stage(conn).unwrap()).collect();
        assert_eq!(
            stages,
            [
                ConnStage::Downloading,
                ConnStage::Downloading,
                ConnStage::Authenticating,
                ConnStage::Refused
            ]
        );
        (user, by_chunk)
    }

    /// Everything about a session that a feed of frames can change.
    fn observable(user: &User<Gf2p32>) -> impl PartialEq + core::fmt::Debug {
        (
            user.stats().clone(),
            (
                user.innovative_count(),
                user.redundant_count(),
                user.hashed_count(),
            ),
            user.window_bytes().clone(),
            user.rejected_from.clone(),
            user.completed_chunks(),
            (0..4).map(|conn| user.stage(conn)).collect::<Vec<_>>(),
            user.decode(),
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// Hashing a datagram's coded messages ahead of time is invisible:
        /// a user fed whole datagrams through `prehash` and then frame by
        /// frame, and its twin fed frame by frame only, return the same
        /// result and replies for every frame and end in the same state —
        /// digests computed included — whatever the datagrams hold: frames
        /// for untouched, nearly complete and complete chunks (the last
        /// one's payloads shorter), exact duplicates, forged payloads,
        /// swapped, unknown and out-of-range ids, control frames in the
        /// middle, on connections in every stage and on none.
        #[test]
        fn prehashed_datagrams_equal_frame_by_frame_feed(
            held in (0usize..=4, 0usize..=4, 0usize..=4),
            datagrams in proptest::collection::vec(
                (0usize..7, proptest::collection::vec((0u8..10, 0usize..3, 0usize..12), 0..=8)),
                1..=10,
            ),
        ) {
            let mut r = rng(10);
            let (mut batched, by_chunk) = user_with_conns_in_every_stage();
            let (mut single, _) = user_with_conns_in_every_stage();
            for user in [&mut batched, &mut single] {
                for (chunk, &n) in [held.0, held.1, held.2].iter().enumerate() {
                    for msg in by_chunk[chunk][..n].iter().cloned() {
                        user.on_message(0, Wire::MessageData(msg), &mut r).unwrap();
                    }
                }
            }
            for (conn, specs) in datagrams {
                let conn = [0, 0, 0, 1, 2, 3, 9][conn];
                let mut frames: Vec<Wire> = specs
                    .into_iter()
                    .map(|(kind, chunk, index)| {
                        let msg = &by_chunk[chunk][index];
                        let forged = |id, payload: &[u8]| {
                            Wire::MessageData(EncodedMessage::new(msg.file_id(), id, payload.to_vec()))
                        };
                        match kind {
                            0..=3 => Wire::MessageData(msg.clone()),
                            4 => Wire::MessageData(corrupted(msg)),
                            5 => forged(FileManifest::message_id(chunk as u32, 900), msg.payload()),
                            6 => forged(FileManifest::message_id(7, index as u32), msg.payload()),
                            7 => forged(by_chunk[chunk][(index + 1) % 12].message_id(), msg.payload()),
                            8 => Wire::FileRequest { file_id: 7 },
                            _ => Wire::AuthResult { ok: false, ack: [0u8; 96] },
                        }
                    })
                    .collect();
                let expect: Vec<_> = frames
                    .iter()
                    .map(|frame| single.on_message(conn, frame.clone(), &mut r))
                    .collect();
                batched.prehash(conn, &mut frames);
                let got: Vec<_> = frames
                    .into_iter()
                    .map(|frame| batched.on_message(conn, frame, &mut r))
                    .collect();
                proptest::prop_assert_eq!(got, expect);
                proptest::prop_assert_eq!(observable(&batched), observable(&single));
            }
        }
    }

    /// `prehash` picks no more frames per chunk than the chunk lacks, and a
    /// frame it left alone is hashed on arrival if an earlier one fell out.
    #[test]
    fn prehash_picks_what_the_chunk_lacks_and_the_rest_falls_back() {
        let mut r = rng(11);
        let (mut user, by_chunk) = user_with_conns_in_every_stage();
        user.on_message(0, Wire::MessageData(by_chunk[1][0].clone()), &mut r)
            .unwrap();
        assert_eq!(user.hashed_count(), 1);
        // Chunk 1 lacks three: of six candidates, three are picked — one of
        // them forged, so a fourth is hashed when its turn comes, the chunk
        // completes, and the last two are dropped unhashed.
        let mut frames: Vec<Wire> = by_chunk[1][1..7]
            .iter()
            .cloned()
            .map(Wire::MessageData)
            .collect();
        frames[1] = Wire::MessageData(corrupted(&by_chunk[1][2]));
        user.prehash(0, &mut frames);
        assert_eq!(user.hashed_count(), 4);
        let results: Vec<_> = frames
            .into_iter()
            .map(|frame| user.on_message(0, frame, &mut r).is_ok())
            .collect();
        assert_eq!(results, [true, false, true, true, true, true]);
        assert_eq!(user.hashed_count(), 5);
        assert_eq!(user.completed_chunks(), vec![1]);
        assert_eq!((user.innovative_count(), user.redundant_count()), (4, 2));
        assert_eq!(user.stats().corruptions, 1);
        // Not downloading, nothing to pick: frames on an unauthenticated
        // connection are never hashed.
        let mut frames: Vec<Wire> = by_chunk[0][..4]
            .iter()
            .cloned()
            .map(Wire::MessageData)
            .collect();
        user.prehash(2, &mut frames);
        user.prehash(3, &mut frames);
        user.prehash(9, &mut frames);
        assert_eq!(user.hashed_count(), 5);
    }

    #[test]
    fn refused_auth_marks_connection() {
        let mut r = rng(2);
        let owner = Identity::from_seed(b"owner2");
        let data = vec![1u8; 256];
        let mut enc = ChunkedEncoder::<Gf2p32>::with_chunk_size(
            FieldKind::Gf2p32,
            2,
            DigestKind::Md5,
            owner.coding_secret().clone(),
            FileId(1),
            &data,
            1024,
        )
        .unwrap();
        let _ = enc.encode_for_peers(1).unwrap();
        let mut user = User::<Gf2p32>::new(owner, enc.manifest().clone()).unwrap();
        let _commit = user.connect(0, [1u8; 64], &mut r);
        let out = user
            .on_message(
                0,
                Wire::AuthResult {
                    ok: false,
                    ack: [0u8; 96],
                },
                &mut r,
            )
            .unwrap();
        assert!(out.is_empty());
        assert_eq!(user.stage(0), Some(ConnStage::Refused));
    }

    #[test]
    fn forged_acceptance_rejected_as_mitm() {
        // A man-in-the-middle relaying "ok" without the peer's signature
        // must not trick the user into downloading from it.
        let mut r = rng(4);
        let owner = Identity::from_seed(b"owner4");
        let data = vec![1u8; 256];
        let mut enc = ChunkedEncoder::<Gf2p32>::with_chunk_size(
            FieldKind::Gf2p32,
            2,
            DigestKind::Md5,
            owner.coding_secret().clone(),
            FileId(1),
            &data,
            1024,
        )
        .unwrap();
        let _ = enc.encode_for_peers(1).unwrap();
        let honest_peer = Identity::from_seed(b"honest-peer");
        let mut user = User::<Gf2p32>::new(owner, enc.manifest().clone()).unwrap();
        let _commit = user.connect(0, honest_peer.public_key().to_bytes(), &mut r);
        // Drive past the challenge so a response exists.
        let challenge = Wire::AuthChallenge {
            challenge: [7u8; 32],
        };
        let _resp = user.on_message(0, challenge, &mut r).unwrap();
        // Attacker fabricates acceptance with a garbage signature.
        let err = user
            .on_message(
                0,
                Wire::AuthResult {
                    ok: true,
                    ack: [9u8; 96],
                },
                &mut r,
            )
            .unwrap_err();
        assert!(matches!(err, SystemError::AuthenticationRejected { .. }));
        assert_eq!(user.stage(0), Some(ConnStage::Refused));
    }

    #[test]
    fn unexpected_message_errors() {
        let mut r = rng(3);
        let owner = Identity::from_seed(b"owner3");
        let data = vec![1u8; 64];
        let mut enc = ChunkedEncoder::<Gf2p32>::with_chunk_size(
            FieldKind::Gf2p32,
            2,
            DigestKind::Md5,
            owner.coding_secret().clone(),
            FileId(1),
            &data,
            1024,
        )
        .unwrap();
        let _ = enc.encode_for_peers(1).unwrap();
        let mut user = User::<Gf2p32>::new(owner, enc.manifest().clone()).unwrap();
        let err = user
            .on_message(0, Wire::FileRequest { file_id: 1 }, &mut r)
            .unwrap_err();
        assert!(matches!(err, SystemError::UnexpectedMessage { .. }));
    }
}
