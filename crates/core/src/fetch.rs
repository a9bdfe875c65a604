//! The client engine: the bookkeeping of one download around its [`User`]
//! (the paper's §III client), with no clock, socket, thread or event sink.
//!
//! [`Fetch`] owns the `User`, its [`RecoveryLadder`], the open replacement
//! round trips and a [`Tally`] per connection. A driver feeds it datagrams
//! with their arrival time, frames that never arrived, failed sends and the
//! passing of time, and carries out, in order, the [`Out`]s each call
//! appends to a caller-owned buffer. Time is `f64` seconds on the driver's
//! epoch: since the fetch began in
//! [`rt::download_file_with`](crate::rt::download_file_with), simulated in
//! [`SimRuntime`](crate::SimRuntime).

use crate::error::SystemError;
use crate::peer::KeyBytes;
use crate::protocol::Wire;
use crate::recovery::{Action, LadderConfig, LadderView, RecoveryLadder};
use crate::user::{ConnStage, User};
use asymshare_crypto::chacha20::ChaChaRng;
use asymshare_gf::Gf2p32;
use asymshare_rlnc::{CodecError, FileManifest, MessageId};
use std::borrow::BorrowMut;
use std::collections::HashMap;

/// One thing for the driver to do or report, in order. Every variant but
/// `Send` is a note, counted in the user's `SessionStats` where a counter
/// exists; the driver turns it into its own events.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Out {
    /// Put a frame on `conn`; report a failed send with [`Fetch::lost`].
    Send(u64, Wire),
    /// The user took a coded frame of `bytes` on the wire: digest-checked,
    /// or dropped unhashed as surplus to a complete chunk.
    Accepted { conn: u64, bytes: u64 },
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
    Reassign { target: u64, deprioritized: usize },
    /// The peer behind `conn` entered quarantine and was told to stop.
    Quarantine { conn: u64 },
    /// The ban on `conn` lapsed; its stall clock runs again.
    BanLapsed { conn: u64 },
}

/// One connection's counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Tally {
    /// Coded frames that arrived, whatever became of them.
    pub frames: u64,
    /// Coded frames the user took ([`Out::Accepted`]), and their bytes.
    pub msgs: u64,
    pub bytes: u64,
    /// Frames lost in transit.
    pub drops: u64,
}

/// A connection: its peer's key (for a re-run handshake), and its counts
/// since the fetch began and since the last [`Fetch::drain_window`].
#[derive(Debug)]
struct PeerState {
    conn: u64,
    key: KeyBytes,
    tallies: [Tally; 2],
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
            let tallies = Default::default();
            states.push(PeerState { conn, key, tallies });
        }
        states.sort_unstable_by_key(|p| p.conn);
        Fetch {
            user,
            ladder: RecoveryLadder::new(cfg, states.iter().map(|p| p.conn), now),
            peers: states,
            replacements: HashMap::new(),
            actions: Vec::new(),
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
    /// frames are hashed together, then each frame is admitted in turn.
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
        // Anything arriving on the connection — even a rejected message —
        // proves the peer alive.
        self.ladder.on_activity(conn, at);
        let i = self.index(conn);
        let user = self.user.borrow_mut();
        // Four digests per pass of the MD5 kernel.
        let coded = frames.iter().filter(|w| matches!(w, Wire::MessageData(_)));
        if coded.count() >= 2 {
            user.prehash(conn, frames);
        }
        let file_id = user.file_id();
        let tallies = i.map_or(&mut [][..], |i| &mut self.peers[i].tallies[..]);
        for wire in frames.drain(..) {
            let mut coded = None;
            if let Wire::MessageData(msg) = &wire {
                let chunk = FileManifest::chunk_of(msg.message_id());
                coded = Some((chunk, wire.encoded_len() as u64, user.chunk_complete(chunk)));
                tallies.iter_mut().for_each(|t| t.frames += 1);
                // A message of the chunk closes the round trip its sender
                // owes.
                if !self.replacements.is_empty() {
                    if let Some(requested) = self.replacements.remove(&(conn, chunk)) {
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
                    if let Some((chunk, bytes, was_ranked)) = coded {
                        for t in tallies.iter_mut() {
                            (t.msgs, t.bytes) = (t.msgs + 1, t.bytes + bytes);
                        }
                        out.push(Out::Accepted { conn, bytes });
                        if !was_ranked && user.chunk_complete(chunk) {
                            let last = user.is_complete();
                            out.push(Out::Ranked { chunk, last });
                        }
                    }
                    out.extend(replies.into_iter().map(|(to, reply)| Out::Send(to, reply)));
                }
                // Corrupted or tampered in transit: ask the sender for
                // another message of the chunk, through the limiter. The
                // rejected bytes never count toward its credit.
                Err(SystemError::Codec(CodecError::AuthenticationFailed { id })) => {
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
                // Harmless to the decoder; the replay detector's signal.
                Err(SystemError::Codec(CodecError::DuplicateMessage { .. })) => {
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
        Ok(())
    }

    /// A frame for the user from `conn` never reached it: lost in transit
    /// (`link`: a drop on the connection's tally) or garbled past parsing.
    pub(crate) fn on_drop(&mut self, conn: u64, link: bool) {
        self.user_mut().stats_mut().drops += 1;
        if let Some(i) = self.index(conn).filter(|_| link) {
            self.peers[i].tallies.iter_mut().for_each(|t| t.drops += 1);
        }
    }

    /// A send to `conn` failed (its address is gone): the next
    /// [`poll`](Self::poll) writes it off.
    pub(crate) fn lost(&mut self, conn: u64) {
        self.ladder.lost(conn);
    }

    /// Carries out the recovery due at `now`: re-sweeps and re-handshakes
    /// of stalled connections, write-offs and re-plans, a quarantine's
    /// stop. `verdicts` says who is banned or sick.
    ///
    /// # Errors
    ///
    /// [`SystemError::AuthenticationRejected`] when every peer refused,
    /// [`SystemError::AllPeersUnavailable`] once every connection is
    /// written off; the `Out`s of the poll stand.
    pub(crate) fn poll(
        &mut self,
        now: f64,
        verdicts: &impl LadderView,
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
            .poll(now, &|conn| user.stage(conn), verdicts, &mut self.actions);
        let file_id = user.file_id();
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
                // Restart the survivor's sweep, skipping finished chunks, so
                // what only the dead or banned peer had sent is re-covered.
                Action::Reassign {
                    target,
                    deprioritized,
                } => {
                    stats.reassignments += 1;
                    out.push(Out::Reassign {
                        target,
                        deprioritized,
                    });
                    out.push(Out::Send(target, Wire::FileRequest { file_id }));
                    let held = (0..user.chunk_count()).filter(|&c| user.chunk_complete(c));
                    out.extend(
                        held.map(|chunk| Out::Send(target, Wire::StopChunk { file_id, chunk })),
                    );
                }
                Action::Quarantined { conn } => {
                    stats.quarantines += 1;
                    out.push(Out::Quarantine { conn });
                    out.push(Out::Send(conn, Wire::StopTransmission { file_id }));
                }
                Action::BanLapsed { conn } => out.push(Out::BanLapsed { conn }),
            }
        }
        if self.ladder.all_dead() {
            return Err(SystemError::AllPeersUnavailable {
                have: user.independent_count(),
                need: user.messages_needed(),
            });
        }
        Ok(())
    }

    /// [`RecoveryLadder::next_deadline`].
    pub(crate) fn next_deadline(&self, now: f64) -> (f64, bool) {
        self.ladder.next_deadline(now)
    }

    /// Whether `conn` was written off.
    pub(crate) fn is_dead(&self, conn: u64) -> bool {
        self.ladder.is_dead(conn)
    }

    /// `conn`'s counts since the fetch began (zero for a stranger).
    pub(crate) fn tally(&self, conn: u64) -> Tally {
        self.index(conn)
            .map_or(Tally::default(), |i| self.peers[i].tallies[0])
    }

    /// Hands `f` each connection's counts since the last drain, in
    /// connection order, skipping those with nothing new.
    pub(crate) fn drain_window(&mut self, mut f: impl FnMut(u64, Tally)) {
        for peer in self
            .peers
            .iter_mut()
            .filter(|p| p.tallies[1] != Tally::default())
        {
            f(peer.conn, std::mem::take(&mut peer.tallies[1]));
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

    /// Nobody is banned or sick.
    struct Healthy;

    impl LadderView for Healthy {
        fn quarantined(&self, _conn: u64, _now: f64) -> bool {
            false
        }
        fn sick(&self, _conn: u64) -> bool {
            false
        }
    }

    fn rng(seed: u8) -> ChaChaRng {
        ChaChaRng::new([seed; 32], [0u8; 12])
    }

    fn original() -> Vec<u8> {
        (0..5000u32).map(|i| (i * 7 % 253) as u8).collect()
    }

    /// One download of a three-chunk file (k = 4; chunks of 2048, 2048 and
    /// 904 bytes) from four in-memory peers on connections 0–3, built the
    /// same way whatever the clock's epoch.
    struct Rig {
        fetch: Fetch,
        /// Each connection's coded messages.
        batches: Vec<Vec<EncodedMessage>>,
        /// Each connection's genuine acceptance, to replay as a stale one.
        acks: Vec<Wire>,
        rng: ChaChaRng,
        out: Vec<Out>,
    }

    /// A [`Rig`] whose four handshakes completed at `epoch`.
    fn connected(epoch: f64) -> Rig {
        let owner = Identity::from_seed(b"fetch-owner");
        let mut enc = ChunkedEncoder::<Gf2p32>::with_chunk_size(
            FieldKind::Gf2p32,
            4,
            DigestKind::Md5,
            owner.coding_secret().clone(),
            FileId(8),
            &original(),
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
                result = fetch.poll(now, &Healthy, rng, out);
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
        /// from a written-off connection — gives the same sends, notes,
        /// errors, stats and bytes on the sim's epoch (0) and the rt's
        /// (1000); and no connection is asked for a chunk's replacement
        /// faster than the limiter allows.
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
        fetch.poll(1.25, &Healthy, rng, out).unwrap();
        let swept: Vec<u64> = out
            .iter()
            .filter_map(|item| match item {
                Out::Retry { conn, .. } => Some(*conn),
                _ => None,
            })
            .collect();
        assert_eq!(swept, [1, 2, 3]);
    }
}
