//! The client engine: the bookkeeping of one download around its [`User`]
//! (the paper's §III client), with no clock, socket, thread or event sink.
//!
//! [`Fetch`] owns the `User`, its [`RecoveryLadder`], the open replacement
//! round trips and a [`Tally`] per connection. A driver feeds it datagrams
//! with their arrival time, failed sends and the passing of time, and
//! carries out, in order, the [`Out`]s each call appends to a caller-owned
//! buffer. Time is `f64` seconds on the driver's epoch: since the fetch
//! began in
//! [`rt::download_file_with`](crate::rt::download_file_with), simulated in
//! [`SimRuntime`](crate::SimRuntime).
//!
//! The engine is also the client's only Byzantine defense (DESIGN.md §11):
//! from the outcomes it already sorts each datagram into, it convicts a
//! connection of pollution, replay or selective serving by the rules
//! below, and the ladder bans it — a write-off the client chose, for the
//! rest of the fetch. The rules are constants, not options, and run
//! whether or not anyone is watching.

use crate::error::SystemError;
use crate::peer::KeyBytes;
use crate::protocol::Wire;
use crate::recovery::{Action, LadderConfig, RecoveryLadder};
use crate::user::{ConnStage, User};
use asymshare_crypto::chacha20::ChaChaRng;
use asymshare_gf::Gf2p32;
use asymshare_rlnc::{CodecError, FileManifest, MessageId};
use std::borrow::BorrowMut;
use std::collections::HashMap;

/// Coded datagrams in one evidence window of the pollution and replay
/// rules. The unit is the datagram because both transports damage,
/// lose and replay whole datagrams (a sim flow carries one frame, an rt
/// datagram up to eight), so a polluter that spoils one frame per datagram
/// is seen at the rate it acts.
const EVIDENCE_DATAGRAMS: u32 = 16;
/// Pollution: a window in which at least this many datagrams carried a
/// frame that failed its digest (half; honest corruption of 8 % reaches it
/// about once in 10⁵ windows).
const POLLUTE_DATAGRAMS: u32 = 8;
/// Replay: a window in which at least this many datagrams carried a
/// duplicate the engine did not ask for. A replacement is asked for; so is
/// a re-send after the engine re-swept or re-planned onto the connection,
/// which restarts the peer's sweep — up to as many frames as it had
/// delivered before.
const REPLAY_DATAGRAMS: u32 = 8;
/// Selective serving: a silence is judged only once the connection has
/// delivered this many datagrams, its own history.
const SELECTIVE_HISTORY: u32 = 8;
/// A silence is withholding when, at the connection's recent share of the
/// datagrams, it should have delivered at least this many while the other
/// live connections delivered theirs...
const SILENT_DATAGRAMS: f64 = 8.0;
/// ...and it lasted at least this share of the stall timeout (an rt serve
/// pass interleaves its peers' bursts within milliseconds).
const SILENCE_OF_STALL: f64 = 0.0625;
/// Withholding silences that convict.
const SELECTIVE_SILENCES: u32 = 2;
/// What one coded datagram weighs in the decayed delivery shares (a
/// memory of about 64 datagrams).
const SHARE_STEP: f64 = 1.0 / 64.0;
/// A downloading connection quiet for this share of the stall timeout
/// gets its latest ack again (the persist timer of a sliding window).
const PERSIST_OF_STALL: f64 = 0.25;

/// One thing for the driver to do or report, in order. Every variant but
/// `Send` is a note, counted in the user's `SessionStats` where a counter
/// exists; the driver turns it into its own events.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Out {
    /// Put a frame on `conn`; report a failed send with [`Fetch::lost`].
    Send(u64, Wire),
    /// A coded frame of `chunk` failed its digest; `replaced` when the
    /// limiter let a `ReplacementRequest` go (the next `Send`).
    DigestReject {
        conn: u64,
        chunk: u32,
        replaced: bool,
    },
    /// A coded frame whose message the user already holds.
    Duplicate { conn: u64 },
    /// A coded frame closed the replacement round trip opened at `requested`.
    Served {
        conn: u64,
        chunk: u32,
        requested: f64,
        at: f64,
    },
    /// A protocol error on a connection that is not downloading (a stale
    /// handshake reply, a written-off peer's late frame): not fatal.
    Stale { conn: u64 },
    /// `chunk` reached rank `k`; `last` when it completed the file.
    Ranked { chunk: u32, last: bool },
    /// A stalled connection was re-swept or re-handshaken.
    Retry { conn: u64, attempt: u32 },
    /// A dead connection was dropped from the user.
    WriteOff { conn: u64 },
    /// `target` took a dead or banned connection's demand.
    Reassign { target: u64 },
    /// The client banned the peer behind `conn` for `strategy` (`"pollute"`,
    /// `"replay"` or `"selective"`): a stop follows, then the connection is
    /// dropped from the user and its demand re-planned.
    Quarantine { conn: u64, strategy: &'static str },
}

/// One connection's counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Tally {
    /// Coded frames that arrived, whatever became of them.
    pub frames: u64,
    /// Wire bytes of the coded frames the user took — digest-checked, or
    /// dropped unhashed as surplus to a complete chunk.
    pub bytes: u64,
}

/// What the attribution rules know of one connection.
#[derive(Debug, Default)]
struct Evidence {
    /// The current window: coded datagrams, those with a digest reject,
    /// those with a duplicate nobody asked for.
    datagrams: u32,
    rejected: u32,
    replayed: u32,
    /// Duplicates still owed to the engine's last (re-)sweep.
    resends: u64,
    /// Coded datagrams delivered; the instant of the last, and the fetch's
    /// datagram count just after it.
    delivered: u32,
    last_at: f64,
    last_mark: u64,
    /// Its decayed share of the fetch's recent coded datagrams.
    share: f64,
    /// Since the last delivery the engine asked the peer for something: a
    /// silence that ends is not withholding.
    excused: bool,
    silences: u32,
    /// Convicted: its frames are dropped unread.
    banned: bool,
}

/// A connection: its peer's key (for a re-run handshake), its counts since
/// the fetch began, the coded frames the user took since the last
/// [`Fetch::drain_window`], when it was last acked (never, before its
/// first coded datagram), and the evidence against it.
#[derive(Debug)]
struct PeerState {
    conn: u64,
    key: KeyBytes,
    tally: Tally,
    window_msgs: u64,
    acked_at: Option<f64>,
    evidence: Evidence,
}

/// See the [module docs](self). `U` is the user, owned (the sim) or
/// borrowed from the caller (the rt).
#[derive(Debug)]
pub(crate) struct Fetch<U = User<Gf2p32>> {
    user: U,
    ladder: RecoveryLadder,
    /// Sorted by connection id.
    peers: Vec<PeerState>,
    /// `(conn, chunk)` → when its first unanswered replacement request went.
    replacements: HashMap<(u64, u32), f64>,
    /// The ladder's actions, reused.
    actions: Vec<Action>,
    /// Coded datagrams delivered by live connections.
    delivered: u64,
    /// The shortest silence that can count as withholding, and the
    /// persist timer's period.
    silence_floor: f64,
    persist: f64,
}

impl<U: BorrowMut<User<Gf2p32>>> Fetch<U> {
    /// Connects `user` to every peer `(conn, key)` in the order given — the
    /// handshake commits are the first sends — and watches them from `now`.
    pub(crate) fn new(
        mut user: U,
        peers: &[(u64, KeyBytes)],
        cfg: LadderConfig,
        now: f64,
        rng: &mut ChaChaRng,
        out: &mut Vec<Out>,
    ) -> Fetch<U> {
        let mut states = Vec::with_capacity(peers.len());
        for &(conn, key) in peers {
            out.push(Out::Send(conn, user.borrow_mut().connect(conn, key, rng)));
            states.push(PeerState {
                conn,
                key,
                tally: Tally::default(),
                window_msgs: 0,
                acked_at: None,
                evidence: Evidence::default(),
            });
        }
        states.sort_unstable_by_key(|p| p.conn);
        Fetch {
            user,
            ladder: RecoveryLadder::new(cfg, states.iter().map(|p| p.conn), now),
            peers: states,
            replacements: HashMap::new(),
            actions: Vec::new(),
            delivered: 0,
            silence_floor: cfg.stall_secs * SILENCE_OF_STALL,
            persist: cfg.stall_secs * PERSIST_OF_STALL,
        }
    }

    /// The session's user.
    pub(crate) fn user(&self) -> &User<Gf2p32> {
        self.user.borrow()
    }

    /// The session's user, for feedback, sealing and the driver's counters.
    pub(crate) fn user_mut(&mut self) -> &mut User<Gf2p32> {
        self.user.borrow_mut()
    }

    fn index(&self, conn: u64) -> Option<usize> {
        self.peers.binary_search_by_key(&conn, |p| p.conn).ok()
    }

    /// Takes one datagram from `conn` that arrived at `at`, draining
    /// `frames`: the arrival is activity on the connection, its coded
    /// frames are hashed together, then each frame is admitted in turn, and
    /// what became of them is evidence. A datagram that carried coded
    /// frames is answered with one ack, the user's newest. A banned
    /// connection's datagram is dropped unread.
    ///
    /// # Errors
    ///
    /// A protocol or decoder error on a downloading connection, which ends
    /// the fetch; the frames after it are dropped, the `Out`s before it
    /// stand.
    pub(crate) fn on_datagram(
        &mut self,
        conn: u64,
        frames: &mut Vec<Wire>,
        at: f64,
        rng: &mut ChaChaRng,
        out: &mut Vec<Out>,
    ) -> Result<(), SystemError> {
        let i = self.index(conn);
        if i.is_some_and(|i| self.peers[i].evidence.banned) {
            frames.clear();
            return Ok(());
        }
        // Anything arriving on the connection — even a rejected message —
        // proves the peer alive.
        self.ladder.on_activity(conn, at);
        let user = self.user.borrow_mut();
        // Four digests per pass of the MD5 kernel.
        let coded = frames.iter().filter(|w| matches!(w, Wire::MessageData(_)));
        let coded = coded.count();
        if coded >= 2 {
            user.prehash(conn, frames);
        }
        let file_id = user.file_id();
        let sent = out.len();
        let (mut rejected, mut replayed) = (false, false);
        let mut resends = i.map_or(0, |i| self.peers[i].evidence.resends);
        let mut counts = i.map(|i| {
            let p = &mut self.peers[i];
            (&mut p.tally, &mut p.window_msgs)
        });
        for wire in frames.drain(..) {
            let mut data = None;
            let mut asked = false;
            if let Wire::MessageData(msg) = &wire {
                let chunk = FileManifest::chunk_of(msg.message_id());
                data = Some((chunk, wire.encoded_len() as u64, user.chunk_complete(chunk)));
                if let Some((tally, _)) = &mut counts {
                    tally.frames += 1;
                }
                // A message of the chunk closes the round trip its sender
                // owes.
                if !self.replacements.is_empty() {
                    if let Some(requested) = self.replacements.remove(&(conn, chunk)) {
                        asked = true;
                        out.push(Out::Served {
                            conn,
                            chunk,
                            requested,
                            at,
                        });
                    }
                }
            }
            match user.on_message(conn, wire, rng) {
                Ok(replies) => {
                    if let Some((chunk, bytes, was_ranked)) = data {
                        if let Some((tally, window_msgs)) = &mut counts {
                            tally.bytes += bytes;
                            **window_msgs += 1;
                        }
                        if !was_ranked && user.chunk_complete(chunk) {
                            let last = user.is_complete();
                            out.push(Out::Ranked { chunk, last });
                        }
                    }
                    let replies = replies
                        .into_iter()
                        .filter(|(_, r)| !matches!(r, Wire::Ack { .. }));
                    out.extend(replies.map(|(to, reply)| Out::Send(to, reply)));
                }
                // Corrupted or tampered in transit: ask the sender for
                // another message of the chunk, through the limiter. The
                // rejected bytes never count toward its credit.
                Err(SystemError::Codec(CodecError::AuthenticationFailed { id })) => {
                    rejected = true;
                    let chunk = FileManifest::chunk_of(MessageId(id));
                    let replaced = self.ladder.admit_replacement(conn, chunk, at);
                    out.push(Out::DigestReject {
                        conn,
                        chunk,
                        replaced,
                    });
                    if replaced {
                        user.stats_mut().replacements += 1;
                        self.replacements.entry((conn, chunk)).or_insert(at);
                        out.push(Out::Send(conn, Wire::ReplacementRequest { file_id, chunk }));
                    }
                }
                // Harmless to the decoder; the replay rule's evidence
                // unless it answered the engine's own request.
                Err(SystemError::Codec(CodecError::DuplicateMessage { .. })) => {
                    if !asked && resends == 0 {
                        replayed = true;
                    }
                    resends = resends.saturating_sub(u64::from(!asked));
                    out.push(Out::Duplicate { conn });
                }
                // Nothing of it was trusted; a wedged handshake stalls and
                // the ladder re-runs it or writes the peer off.
                Err(_) if user.stage(conn) != Some(ConnStage::Downloading) => {
                    out.push(Out::Stale { conn });
                }
                Err(e) => return Err(e),
            }
        }
        if let Some(i) = i {
            self.peers[i].evidence.resends = resends;
            if let Some(ack) = user.ack(conn).filter(|_| coded > 0) {
                self.peers[i].acked_at = Some(at);
                out.push(Out::Send(conn, ack));
            }
        }
        self.watch(&out[sent..]);
        if let Some(i) = i.filter(|_| coded > 0 && !self.ladder.is_dead(conn)) {
            self.judge(i, at, rejected, replayed);
        }
        self.persist(at, out);
        Ok(())
    }

    /// Re-sends its latest ack to each downloading connection quiet since
    /// `now − persist`: a window whose frames or acks were all lost cannot
    /// stay shut. Any call that hands the engine time checks it. A
    /// connection never acked has nothing to re-send; if its first window
    /// is lost, the ladder's re-sweep empties it.
    fn persist(&mut self, now: f64, out: &mut Vec<Out>) {
        let user = self.user.borrow();
        for p in &mut self.peers {
            if p.acked_at.is_some_and(|at| now - at >= self.persist) {
                if let Some(ack) = user.ack(p.conn) {
                    p.acked_at = Some(now);
                    out.push(Out::Send(p.conn, ack));
                }
            }
        }
    }

    /// Weighs a coded datagram from live connection `i`, which arrived at
    /// `at`, against the rules; a conviction goes to the ladder, which
    /// carries it out at the next poll.
    fn judge(&mut self, i: usize, at: f64, rejected: bool, replayed: bool) {
        let mut verdict = None;
        let e = &mut self.peers[i].evidence;
        // Selective serving, judged on the silence this datagram ends: the
        // others kept delivering, and at its own recent share it should
        // have too.
        if e.delivered >= SELECTIVE_HISTORY && !e.excused && at - e.last_at >= self.silence_floor {
            let others = (self.delivered - e.last_mark) as f64;
            if others * e.share / (1.0 - e.share) >= SILENT_DATAGRAMS {
                e.silences += 1;
                if e.silences >= SELECTIVE_SILENCES {
                    verdict = Some("selective");
                }
            }
        }
        self.delivered += 1;
        (e.delivered, e.last_at, e.last_mark) = (e.delivered + 1, at, self.delivered);
        e.excused = false;
        e.datagrams += 1;
        e.rejected += rejected as u32;
        e.replayed += replayed as u32;
        if e.datagrams == EVIDENCE_DATAGRAMS {
            if e.rejected >= POLLUTE_DATAGRAMS {
                verdict = Some("pollute");
            } else if e.replayed >= REPLAY_DATAGRAMS {
                verdict = Some("replay");
            }
            (e.datagrams, e.rejected, e.replayed) = (0, 0, 0);
        }
        for (j, p) in self.peers.iter_mut().enumerate() {
            let e = &mut p.evidence;
            e.share += (f64::from(u8::from(i == j)) - e.share) * SHARE_STEP;
        }
        if let Some(strategy) = verdict {
            let p = &mut self.peers[i];
            p.evidence.banned = true;
            self.ladder.ban(p.conn, strategy);
        }
    }

    /// Notes what the engine asked of each peer in `sent`: a silence after
    /// a request is not withholding, and what a (re-)sweep makes the peer
    /// re-send is no replay.
    fn watch(&mut self, sent: &[Out]) {
        for item in sent {
            let Out::Send(conn, wire) = item else {
                continue;
            };
            let Some(i) = self.index(*conn) else {
                continue;
            };
            let PeerState {
                tally, evidence, ..
            } = &mut self.peers[i];
            match wire {
                Wire::FileRequest { .. } => {
                    evidence.resends = tally.frames;
                    evidence.excused = true;
                }
                Wire::ReplacementRequest { .. } | Wire::AuthCommit { .. } => {
                    evidence.excused = true;
                }
                _ => {}
            }
        }
    }

    /// A send to `conn` failed (its address is gone): the next
    /// [`poll`](Self::poll) writes it off.
    pub(crate) fn lost(&mut self, conn: u64) {
        self.ladder.lost(conn);
    }

    /// Carries out the recovery due at `now`: re-sweeps and re-handshakes
    /// of stalled connections, write-offs, bans and re-plans, then the ack
    /// of each downloading connection quiet for the persist period.
    ///
    /// # Errors
    ///
    /// [`SystemError::AuthenticationRejected`] when every peer refused,
    /// [`SystemError::AllPeersUnavailable`] once every connection is
    /// written off or banned; the `Out`s of the poll stand.
    pub(crate) fn poll(
        &mut self,
        now: f64,
        rng: &mut ChaChaRng,
        out: &mut Vec<Out>,
    ) -> Result<(), SystemError> {
        let user = self.user.borrow_mut();
        let refused = |p: &PeerState| user.stage(p.conn) == Some(ConnStage::Refused);
        if !self.peers.is_empty() && self.peers.iter().all(refused) {
            return Err(SystemError::AuthenticationRejected {
                context: "all peers refused".to_owned(),
            });
        }
        self.ladder
            .poll(now, &|conn| user.stage(conn), &mut self.actions);
        let file_id = user.file_id();
        let sent = out.len();
        for action in self.actions.drain(..) {
            let stats = user.stats_mut();
            match action {
                // The stream dried up or its messages were lost: restart
                // the sweep. Finished chunks are not re-declared: the
                // sweep re-sends them and the user drops them unhashed.
                Action::Resweep { conn, attempt } => {
                    stats.retries += 1;
                    out.push(Out::Retry { conn, attempt });
                    out.push(Out::Send(conn, Wire::FileRequest { file_id }));
                }
                // A control message was lost: re-run the handshake.
                Action::Rehandshake { conn, attempt } => {
                    stats.retries += 1;
                    out.push(Out::Retry { conn, attempt });
                    let i = self.peers.binary_search_by_key(&conn, |p| p.conn);
                    let key = self.peers[i.expect("the ladder watches the peers")].key;
                    out.push(Out::Send(conn, user.connect(conn, key, rng)));
                }
                Action::WriteOff { conn } => {
                    user.drop_conn(conn);
                    out.push(Out::WriteOff { conn });
                }
                // A write-off the client chose: tell the peer to stop, then
                // forget it.
                Action::Quarantined { conn, strategy } => {
                    stats.quarantines += 1;
                    out.push(Out::Quarantine { conn, strategy });
                    out.push(Out::Send(conn, Wire::StopTransmission { file_id }));
                    user.drop_conn(conn);
                }
                // Restart the survivor's sweep, skipping finished chunks, so
                // what only the dead or banned peer had sent is re-covered.
                Action::Reassign { target } => {
                    stats.reassignments += 1;
                    out.push(Out::Reassign { target });
                    out.push(Out::Send(target, Wire::FileRequest { file_id }));
                    let held = (0..user.chunk_count()).filter(|&c| user.chunk_complete(c));
                    out.extend(
                        held.map(|chunk| Out::Send(target, Wire::StopChunk { file_id, chunk })),
                    );
                }
            }
        }
        self.watch(&out[sent..]);
        self.persist(now, out);
        if self.ladder.all_dead() {
            let user = self.user.borrow();
            return Err(SystemError::AllPeersUnavailable {
                have: user.independent_count(),
                need: user.messages_needed(),
            });
        }
        Ok(())
    }

    /// [`RecoveryLadder::next_deadline`], or sooner when a persist ack is
    /// due first.
    pub(crate) fn next_deadline(&self, now: f64) -> (f64, bool) {
        let (wait, backing_off) = self.ladder.next_deadline(now);
        let user = self.user.borrow();
        let acking = self.peers.iter().filter(|p| user.ack(p.conn).is_some());
        match acking
            .filter_map(|p| p.acked_at)
            .map(|at| at + self.persist - now)
            .reduce(f64::min)
        {
            Some(persist) if persist < wait => (persist.max(0.0), false),
            _ => (wait, backing_off),
        }
    }

    /// `conn`'s counts since the fetch began (zero for a stranger).
    pub(crate) fn tally(&self, conn: u64) -> Tally {
        self.index(conn)
            .map_or(Tally::default(), |i| self.peers[i].tally)
    }

    /// Hands `f` the coded frames each connection's user took since the
    /// last drain (a health window's `msgs`: no digest reject or duplicate
    /// among them), in connection order, skipping those that took none.
    pub(crate) fn drain_window(&mut self, mut f: impl FnMut(u64, u64)) {
        for peer in &mut self.peers {
            let msgs = std::mem::take(&mut peer.window_msgs);
            if msgs > 0 {
                f(peer.conn, msgs);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identity::Identity;
    use crate::peer::Peer;
    use asymshare_gf::FieldKind;
    use asymshare_rlnc::{ChunkedEncoder, DigestKind, EncodedMessage, FileId};
    use std::collections::VecDeque;

    /// Stall 1 s, backoff base 1/2 s, replacement base 1/8 s: every instant
    /// the tests reach is a multiple of 1/8 s, exact in binary on either
    /// epoch.
    const LADDER: LadderConfig = LadderConfig {
        stall_secs: 1.0,
        retry_backoff_secs: 0.5,
        max_retries: 2,
        replacement_base_secs: 0.125,
    };

    fn rng(seed: u8) -> ChaChaRng {
        ChaChaRng::new([seed; 32], [0u8; 12])
    }

    fn original() -> Vec<u8> {
        file_of(5000)
    }

    fn file_of(len: u32) -> Vec<u8> {
        (0..len).map(|i| (i * 7 % 253) as u8).collect()
    }

    /// One download of a file of 2048-byte chunks (k = 4) from four
    /// in-memory peers on connections 0–3, built the same way whatever the
    /// clock's epoch. Each peer's batch holds four messages of every chunk,
    /// chunk by chunk.
    struct Rig {
        fetch: Fetch,
        /// Each connection's coded messages.
        batches: Vec<Vec<EncodedMessage>>,
        /// Each connection's genuine acceptance, to replay as a stale one.
        acks: Vec<Wire>,
        rng: ChaChaRng,
        out: Vec<Out>,
    }

    /// A [`Rig`] for the three-chunk file (chunks of 2048, 2048 and 904
    /// bytes) whose four handshakes completed at `epoch`.
    fn connected(epoch: f64) -> Rig {
        connected_with(epoch, 5000)
    }

    /// A [`Rig`] for a file of `len` bytes whose four handshakes completed
    /// at `epoch`.
    fn connected_with(epoch: f64, len: u32) -> Rig {
        let owner = Identity::from_seed(b"fetch-owner");
        let mut enc = ChunkedEncoder::<Gf2p32>::with_chunk_size(
            FieldKind::Gf2p32,
            4,
            DigestKind::Md5,
            owner.coding_secret().clone(),
            FileId(8),
            &file_of(len),
            2048,
        )
        .unwrap();
        let batches = enc.encode_for_peers(4).unwrap();
        let mut peers: Vec<Peer> = (0..4u8)
            .map(|i| {
                let mut peer = Peer::new(Identity::from_seed(&[b'f', i]), 1.0);
                peer.add_subscriber(owner.public_key().to_bytes());
                peer
            })
            .collect();
        for (peer, batch) in peers.iter_mut().zip(&batches) {
            for m in batch {
                peer.store_mut().insert(m.clone());
            }
        }
        let keys: Vec<(u64, KeyBytes)> = (0..4)
            .map(|i| (i as u64, peers[i].identity().public_key().to_bytes()))
            .collect();
        let user = User::new(owner, enc.manifest().clone()).unwrap();
        let (mut r, mut peer_rng) = (rng(1), rng(2));
        let mut out = Vec::new();
        let mut fetch = Fetch::new(user, &keys, LADDER, epoch, &mut r, &mut out);
        let mut acks = vec![None; 4];
        let mut wire: VecDeque<Out> = out.drain(..).collect();
        while let Some(item) = wire.pop_front() {
            let Out::Send(conn, frame) = item else {
                continue;
            };
            let peer = &mut peers[conn as usize];
            for reply in peer.on_message(conn, frame, &mut peer_rng).unwrap() {
                if let Wire::AuthResult { .. } = reply {
                    acks[conn as usize] = Some(reply.clone());
                }
                let mut frames = vec![reply];
                fetch
                    .on_datagram(conn, &mut frames, epoch, &mut r, &mut out)
                    .unwrap();
                wire.extend(out.drain(..));
            }
        }
        for conn in 0..4 {
            assert_eq!(fetch.user().stage(conn), Some(ConnStage::Downloading));
        }
        Rig {
            fetch,
            batches,
            acks: acks.into_iter().map(Option::unwrap).collect(),
            rng: r,
            out,
        }
    }

    /// One step of a generated run: after `dt` eighths of a second, a
    /// datagram from `conn` (kinds 0–6), nothing (7), a failed send to
    /// `conn` (8, written off at the poll that follows) or a forged
    /// acceptance from `conn` (9); then a poll, unless the file is whole.
    type Step = (u8, usize, Vec<(u8, usize)>, u8);

    /// The frame of a datagram from `conn`: `index` into its batch — as
    /// sent (kinds 0–8), with a payload bit flipped (9–11), as another
    /// peer's message (12, 13) — or its genuine acceptance again (14).
    fn frame(rig: &Rig, conn: usize, (kind, index): (u8, usize)) -> Wire {
        let batch = &rig.batches[if kind >= 12 { (conn + 1) % 4 } else { conn }];
        let msg = &batch[index % batch.len()];
        match kind {
            0..=8 | 12 | 13 => Wire::MessageData(msg.clone()),
            9..=11 => {
                let mut payload = msg.payload().to_vec();
                let at = index % payload.len();
                payload[at] ^= 1 << (kind - 9);
                Wire::MessageData(EncodedMessage::new(
                    msg.file_id(),
                    msg.message_id(),
                    payload,
                ))
            }
            _ => rig.acks[conn].clone(),
        }
    }

    /// An `Out` with its instants taken relative to `epoch`.
    fn relative(item: Out, epoch: f64) -> Out {
        match item {
            Out::Served {
                conn,
                chunk,
                requested,
                at,
            } => Out::Served {
                conn,
                chunk,
                requested: requested - epoch,
                at: at - epoch,
            },
            other => other,
        }
    }

    /// What one run did: every `Out` (relative to the epoch) and fatal
    /// error, each tagged with the step's instant since the epoch; then the
    /// session's stats, tallies and decode.
    type Transcript = (
        Vec<(f64, Result<Out, SystemError>)>,
        crate::user::SessionStats,
        Vec<Tally>,
        Result<Vec<u8>, SystemError>,
    );

    fn run(steps: &[Step], epoch: f64) -> Transcript {
        let mut rig = connected(epoch);
        let mut log = Vec::new();
        let mut t = 0.0;
        for (kind, conn, frames, dt) in steps {
            t += f64::from(*dt) / 8.0;
            let (conn, now) = (*conn % 4, epoch + t);
            let mut frames: Vec<Wire> = match kind {
                0..=6 => frames.iter().map(|&f| frame(&rig, conn, f)).collect(),
                9 => vec![Wire::AuthResult {
                    ok: true,
                    ack: [9; 96],
                }],
                _ => Vec::new(),
            };
            if *kind == 8 {
                rig.fetch.lost(conn as u64);
            }
            let Rig {
                fetch, rng, out, ..
            } = &mut rig;
            let mut result = Ok(());
            if !frames.is_empty() {
                result = fetch.on_datagram(conn as u64, &mut frames, now, rng, out);
            }
            // As the drivers do: no recovery once the file is whole.
            let complete = fetch.user().is_complete();
            if result.is_ok() && !complete {
                result = fetch.poll(now, rng, out);
            }
            log.extend(out.drain(..).map(|item| (t, Ok(relative(item, epoch)))));
            if let Err(e) = result {
                log.push((t, Err(e)));
                break;
            }
            if complete {
                break;
            }
        }
        let user = rig.fetch.user();
        let tallies = (0..4).map(|conn| rig.fetch.tally(conn)).collect();
        (log, user.stats().clone(), tallies, user.decode())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// The engine has no clock of its own: one generated datagram
        /// sequence — valid frames, flipped payloads, duplicates and
        /// another peer's replays, stale and forged acceptances, frames
        /// from a written-off connection — gives the same bans, sends,
        /// notes, errors, stats and bytes on the sim's epoch (0) and the
        /// rt's (1000); and no connection is asked for a chunk's
        /// replacement faster than the limiter allows.
        #[test]
        fn one_engine_either_clock(
            steps in proptest::collection::vec(
                (
                    0u8..10,
                    0usize..4,
                    proptest::collection::vec((0u8..15, 0usize..64), 1..=8),
                    0u8..5,
                ),
                1..=40,
            ),
        ) {
            let sim = run(&steps, 0.0);
            let rt = run(&steps, 1000.0);
            // The verdicts first: the same bans, at the same instants.
            let bans = |log: &[(f64, Result<Out, SystemError>)]| -> Vec<(f64, Out)> {
                log.iter()
                    .filter_map(|(t, item)| match item {
                        Ok(ban @ Out::Quarantine { .. }) => Some((*t, ban.clone())),
                        _ => None,
                    })
                    .collect()
            };
            proptest::prop_assert_eq!(bans(&sim.0), bans(&rt.0));
            proptest::prop_assert_eq!(&sim, &rt);
            let (log, _, _, decoded) = sim;
            if let Ok(bytes) = decoded {
                proptest::prop_assert_eq!(bytes, original());
            }
            // Request `n` of a (connection, chunk) holds the next one back
            // for 2^min(n-1, 5) replacement bases.
            let mut sent: HashMap<(u64, u32), Vec<f64>> = HashMap::new();
            for (t, item) in &log {
                if let Ok(Out::Send(conn, Wire::ReplacementRequest { chunk, .. })) = item {
                    sent.entry((*conn, *chunk)).or_default().push(*t);
                }
            }
            for ((conn, chunk), times) in sent {
                for (n, pair) in times.windows(2).enumerate() {
                    let hold = LADDER.replacement_base_secs * f64::from(1u32 << n.min(5));
                    proptest::prop_assert!(
                        pair[1] - pair[0] >= hold,
                        "conn {} chunk {}: requests at {:?}", conn, chunk, times
                    );
                }
            }
        }
    }

    /// A datagram is activity when it arrived, not when the driver got to
    /// it: one that landed before the stall deadline but is fed after it
    /// draws no re-sweep of its sender, while the silent peers are swept.
    #[test]
    fn activity_is_stamped_at_arrival() {
        let mut rig = connected(0.0);
        let msg = rig.batches[0][0].clone();
        let Rig {
            fetch, rng, out, ..
        } = &mut rig;
        let mut frames = vec![Wire::MessageData(msg)];
        fetch.on_datagram(0, &mut frames, 0.75, rng, out).unwrap();
        out.clear();
        fetch.poll(1.25, rng, out).unwrap();
        let swept: Vec<u64> = out
            .iter()
            .filter_map(|item| match item {
                Out::Retry { conn, .. } => Some(*conn),
                _ => None,
            })
            .collect();
        assert_eq!(swept, [1, 2, 3]);
    }

    /// Feeds each `(conn, frames)` datagram at `t`, then polls at `t`, as
    /// the drivers do; returns what came out.
    fn at(rig: &mut Rig, t: f64, datagrams: Vec<(u64, Vec<Wire>)>) -> Vec<Out> {
        let Rig {
            fetch, rng, out, ..
        } = rig;
        for (conn, mut frames) in datagrams {
            fetch.on_datagram(conn, &mut frames, t, rng, out).unwrap();
        }
        fetch.poll(t, rng, out).unwrap();
        std::mem::take(out)
    }

    /// Message `index` of `conn`'s batch, as sent.
    fn coded(rig: &Rig, conn: usize, index: usize) -> Wire {
        frame(rig, conn, (0, index))
    }

    /// The bans in `outs`.
    fn bans(outs: &[Out]) -> Vec<(u64, &'static str)> {
        outs.iter()
            .filter_map(|item| match item {
                Out::Quarantine { conn, strategy } => Some((*conn, *strategy)),
                _ => None,
            })
            .collect()
    }

    /// A peer that spoils one frame of every two-frame datagram is banned
    /// at the close of its first evidence window: the ban, then the stop,
    /// then the re-plan; it is dropped from the user, and its later
    /// datagrams are dropped before they are hashed.
    #[test]
    fn a_polluter_is_banned() {
        let mut rig = connected_with(0.0, 64 * 1024);
        let mut outs = Vec::new();
        for n in 0..16 {
            let datagrams = (0..4)
                .map(|conn| {
                    let first = match conn {
                        0 => frame(&rig, 0, (9, 2 * n)),
                        _ => coded(&rig, conn, 2 * n),
                    };
                    (conn as u64, vec![first, coded(&rig, conn, 2 * n + 1)])
                })
                .collect();
            outs = at(&mut rig, n as f64 / 8.0, datagrams);
            if n < 15 {
                assert_eq!(bans(&outs), [], "datagram {n}");
            }
        }
        let ban = outs
            .iter()
            .position(|item| matches!(item, Out::Quarantine { .. }))
            .expect("banned at the poll after the window closed");
        let file_id = rig.fetch.user().file_id();
        assert_eq!(
            outs[ban..ban + 3],
            [
                Out::Quarantine {
                    conn: 0,
                    strategy: "pollute"
                },
                Out::Send(0, Wire::StopTransmission { file_id }),
                Out::Reassign { target: 1 },
            ]
        );
        let user = rig.fetch.user();
        assert_eq!((user.stage(0), user.stats().quarantines), (None, 1));
        let (tally, hashed) = (rig.fetch.tally(0), user.hashed_count());
        let late = vec![(0, vec![coded(&rig, 0, 40), coded(&rig, 0, 41)])];
        assert_eq!(at(&mut rig, 2.0, late), []);
        assert_eq!(rig.fetch.tally(0), tally);
        assert_eq!(rig.fetch.user().hashed_count(), hashed, "dropped unhashed");
    }

    /// The acks in `outs`, as `(conn, newest, taken)`.
    fn acks(outs: &[Out]) -> Vec<(u64, u64, u64)> {
        outs.iter()
            .filter_map(|item| match item {
                Out::Send(conn, Wire::Ack { newest, taken }) => Some((*conn, *newest, *taken)),
                _ => None,
            })
            .collect()
    }

    /// A coded datagram is answered with one ack, the user's newest; a
    /// downloading connection quiet for a quarter of the stall timeout
    /// gets it again, and the driver is woken for it; a connection never
    /// acked, or written off, gets none.
    #[test]
    fn a_quiet_connection_gets_its_ack_again() {
        let mut rig = connected(0.0);
        let id = |w: &Wire| match w {
            Wire::MessageData(m) => m.message_id().0,
            _ => unreachable!(),
        };
        let datagram = vec![coded(&rig, 0, 0), coded(&rig, 0, 1)];
        let (first, other) = (id(&datagram[1]), coded(&rig, 1, 0));
        let second = id(&other);
        let outs = at(&mut rig, 0.125, vec![(0, datagram), (1, vec![other])]);
        assert_eq!(
            acks(&outs),
            [(0, first, 2), (1, second, 1)],
            "one per datagram"
        );
        let outs = at(&mut rig, 0.25, vec![]);
        assert_eq!(
            acks(&outs),
            [],
            "nobody quiet for a quarter of the stall (1 s)"
        );
        assert_eq!(rig.fetch.next_deadline(0.25), (0.125, false));
        let outs = at(&mut rig, 0.375, vec![]);
        assert_eq!(
            acks(&outs),
            [(0, first, 2), (1, second, 1)],
            "the same acks"
        );
        rig.fetch.lost(1);
        let outs = at(&mut rig, 0.5, vec![]);
        assert!(outs.contains(&Out::WriteOff { conn: 1 }));
        let outs = at(&mut rig, 0.75, vec![]);
        assert_eq!(
            acks(&outs),
            [(0, first, 2)],
            "2 and 3 took nothing, 1 is gone"
        );
    }

    /// A peer the engine re-swept re-sends what it sent before: a window
    /// of nothing but those duplicates draws no replay strike. The same
    /// duplicates again, unasked, are replay.
    #[test]
    fn replay_is_not_struck_right_after_the_engines_own_resweep() {
        let mut rig = connected_with(0.0, 256 * 1024);
        // Connections 1–3 keep delivering fresh messages at every step.
        let mut fresh = 16;
        let mut step = |rig: &mut Rig, t: f64, from_0: Vec<Wire>| {
            let mut datagrams: Vec<(u64, Vec<Wire>)> = (1..4)
                .map(|c| (c as u64, vec![coded(rig, c, fresh)]))
                .collect();
            fresh += 1;
            datagrams.extend(from_0.into_iter().map(|w| (0, vec![w])));
            at(rig, t, datagrams)
        };
        // Connection 0 completes chunks 0–3 on its own, one evidence window
        // of sixteen datagrams...
        let held: Vec<Wire> = (0..16).map(|i| coded(&rig, 0, i)).collect();
        step(&mut rig, 0.0, held.clone());
        // ...then falls silent until the engine re-sweeps it.
        let mut t = 0.0;
        loop {
            t += 0.125;
            let outs = step(&mut rig, t, vec![]);
            if outs.contains(&Out::Retry {
                conn: 0,
                attempt: 1,
            }) {
                break;
            }
        }
        // The re-sweep re-sends all sixteen: a window of duplicates, no
        // strike.
        t += 0.125;
        let outs = step(&mut rig, t, held.clone());
        let duplicates = outs.iter().filter(|o| **o == Out::Duplicate { conn: 0 });
        assert_eq!(duplicates.count(), 16);
        assert_eq!(bans(&outs), []);
        // Sixteen more, unasked: replay.
        t += 0.125;
        let outs = step(&mut rig, t, held);
        assert_eq!(bans(&outs), [(0, "replay")]);
        assert_eq!(rig.fetch.user().stats().quarantines, 1);
    }

    /// Four peers, three delivering a datagram every eighth of a second.
    /// The fourth either serves three datagrams a step for a second and
    /// then withholds for most of one, over and over, or delivers one
    /// datagram every second — a link eight times slower than the others.
    /// The first is banned for selective serving, the second never.
    #[test]
    fn a_withholding_peer_is_banned_but_a_slow_link_is_not() {
        let run = |fourth: fn(usize) -> usize| -> Vec<(u64, &'static str)> {
            let mut rig = connected_with(0.0, 256 * 1024);
            let mut sent = 0;
            let mut all = Vec::new();
            for step in 0..60 {
                let mut datagrams: Vec<(u64, Vec<Wire>)> = (0..3)
                    .map(|c| (c as u64, vec![coded(&rig, c, step)]))
                    .collect();
                for _ in 0..fourth(step) {
                    datagrams.push((3, vec![coded(&rig, 3, sent)]));
                    sent += 1;
                }
                let outs = at(&mut rig, step as f64 / 8.0, datagrams);
                assert!(!outs.iter().any(|o| matches!(o, Out::Retry { .. })));
                all.extend(bans(&outs));
            }
            all
        };
        // On for eight steps, off for seven (0.875 s, under the stall).
        let withholding = run(|step| if step % 15 < 8 { 4 } else { 0 });
        assert_eq!(withholding, [(3, "selective")]);
        let slow = run(|step| usize::from(step % 8 == 0));
        assert_eq!(slow, []);
    }

    /// Honest links that corrupt 8 % of datagrams, drawn at random, are
    /// never banned.
    #[test]
    fn honest_corruption_of_eight_percent_is_never_banned() {
        let mut rig = connected_with(0.0, 256 * 1024);
        let mut draws = asymshare_netsim::SplitMix64::new(8);
        for step in 0..120 {
            let datagrams = (0..4)
                .map(|c| {
                    let kind = if draws.next_f64() < 0.08 { 9 } else { 0 };
                    (c as u64, vec![frame(&rig, c, (kind, step))])
                })
                .collect();
            let outs = at(&mut rig, step as f64 / 8.0, datagrams);
            assert_eq!(bans(&outs), [], "step {step}");
        }
        let stats = rig.fetch.user().stats();
        assert!(stats.corruptions > 0 && stats.quarantines == 0, "{stats:?}");
    }
}
