//! The recovery ladder: when a silent connection is nudged, re-handshaken
//! or written off, whose demand moves where, and how often a rejected
//! message may be re-requested.
//!
//! [`RecoveryLadder`] is the one implementation of that policy. It holds
//! per-connection liveness (`last_activity`, `next_attempt`, `retries`,
//! `dead`), the round-robin re-plan cursor and the per-`(connection,
//! chunk)` replacement limiter — and no clock, socket, thread, `User`, RNG
//! or event sink. Time is `f64` seconds on an epoch the driver picks:
//! simulated seconds in [`SimRuntime`](crate::SimRuntime), seconds since
//! the fetch began in [`rt::download_file_with`](crate::rt::download_file_with).
//!
//! Its one caller is the client engine, [`Fetch`](crate::fetch::Fetch),
//! which tells the ladder what happened ([`on_activity`], [`lost`],
//! [`ban`], [`admit_replacement`]) and asks it what to do ([`poll`], which
//! appends [`Action`]s to a caller-owned buffer, and [`next_deadline`]).
//! The ladder decides *when and whom*; what goes on the wire for each
//! action and the stats counters stay with the engine, the events with its
//! drivers.
//!
//! [`on_activity`]: RecoveryLadder::on_activity
//! [`lost`]: RecoveryLadder::lost
//! [`ban`]: RecoveryLadder::ban
//! [`admit_replacement`]: RecoveryLadder::admit_replacement
//! [`poll`]: RecoveryLadder::poll
//! [`next_deadline`]: RecoveryLadder::next_deadline

use crate::user::ConnStage;
use std::collections::HashMap;

/// The ladder's timing rules, in seconds on the driver's clock.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LadderConfig {
    /// Silence after which a connection counts as stalled (`≥`).
    pub stall_secs: f64,
    /// Base delay before the next attempt on a stalled connection; the
    /// `n`-th consecutive attempt waits `2^min(n, 3)` times this.
    pub retry_backoff_secs: f64,
    /// Consecutive fruitless attempts before a connection is written off.
    pub max_retries: u32,
    /// Base delay between replacement requests for one `(connection,
    /// chunk)`; doubles per request up to `2^5`, so a polluting sender
    /// cannot turn each rejected message into a fresh request.
    pub replacement_base_secs: f64,
}

/// One decision for the driver to carry out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Action {
    /// A downloading connection stalled: restart the peer's sweep. This is
    /// the `attempt`-th consecutive recovery of the connection.
    Resweep { conn: u64, attempt: u32 },
    /// A connection stalled mid-handshake: run the handshake again.
    Rehandshake { conn: u64, attempt: u32 },
    /// The connection is dead: forget it. A `Reassign` follows when a
    /// survivor can take its demand.
    WriteOff { conn: u64 },
    /// Restart `target`'s sweep so it re-covers what a dead or banned
    /// connection had been sending.
    Reassign { target: u64 },
    /// The client banned the peer behind `conn` for `strategy`: stop it and
    /// forget it, for the rest of the fetch. A `Reassign` follows as for
    /// `WriteOff`.
    Quarantined { conn: u64, strategy: &'static str },
}

/// How a connection ends at the next poll.
#[derive(Debug, Clone, Copy)]
enum End {
    /// A send to it failed.
    Lost,
    /// The engine's evidence convicted it of `strategy`.
    Banned(&'static str),
}

#[derive(Debug)]
struct ConnState {
    conn: u64,
    last_activity: f64,
    next_attempt: f64,
    retries: u32,
    dead: bool,
    /// Reported by [`RecoveryLadder::lost`] or [`RecoveryLadder::ban`],
    /// carried out at the next poll.
    end: Option<End>,
}

/// See the [module docs](self).
#[derive(Debug)]
pub(crate) struct RecoveryLadder {
    cfg: LadderConfig,
    /// Sorted by connection id: recovery and re-plan order.
    conns: Vec<ConnState>,
    replan_cursor: usize,
    /// `(conn, chunk)` → (next allowed instant, requests so far).
    replacements: HashMap<(u64, u32), (f64, u32)>,
}

impl RecoveryLadder {
    /// Tracks `conns`, all live and last heard from at `now`.
    pub(crate) fn new(
        cfg: LadderConfig,
        conns: impl IntoIterator<Item = u64>,
        now: f64,
    ) -> RecoveryLadder {
        let mut conns: Vec<ConnState> = conns
            .into_iter()
            .map(|conn| ConnState {
                conn,
                last_activity: now,
                next_attempt: now,
                retries: 0,
                dead: false,
                end: None,
            })
            .collect();
        conns.sort_unstable_by_key(|c| c.conn);
        RecoveryLadder {
            cfg,
            conns,
            replan_cursor: 0,
            replacements: HashMap::new(),
        }
    }

    fn index(&self, conn: u64) -> Option<usize> {
        self.conns.binary_search_by_key(&conn, |c| c.conn).ok()
    }

    fn get_mut(&mut self, conn: u64) -> Option<&mut ConnState> {
        self.index(conn).map(|i| &mut self.conns[i])
    }

    /// Anything arrived on `conn` — even a rejected or redundant message
    /// proves the peer alive, so its retry budget refills.
    pub(crate) fn on_activity(&mut self, conn: u64, now: f64) {
        if let Some(c) = self.get_mut(conn) {
            c.last_activity = now;
            c.retries = 0;
        }
    }

    /// A send to `conn` failed (its address is gone): the next
    /// [`poll`](Self::poll) writes it off and re-plans its demand.
    pub(crate) fn lost(&mut self, conn: u64) {
        self.end(conn, End::Lost);
    }

    /// The engine convicted `conn` of `strategy`: the next
    /// [`poll`](Self::poll) bans it — a write-off the client chose — and
    /// re-plans its demand.
    pub(crate) fn ban(&mut self, conn: u64, strategy: &'static str) {
        self.end(conn, End::Banned(strategy));
    }

    /// The first end reported for a live connection stands.
    fn end(&mut self, conn: u64, end: End) {
        if let Some(c) = self.get_mut(conn).filter(|c| !c.dead) {
            c.end.get_or_insert(end);
        }
    }

    /// Whether `conn` was written off or banned.
    pub(crate) fn is_dead(&self, conn: u64) -> bool {
        self.index(conn).is_some_and(|i| self.conns[i].dead)
    }

    /// Whether every connection has been written off or banned — with the
    /// driver's deadline, the only way a fetch ends short of success.
    pub(crate) fn all_dead(&self) -> bool {
        self.conns.iter().all(|c| c.dead)
    }

    /// Whether a replacement for a rejected message of `chunk` may be
    /// requested from `conn` now; a `true` counts as the request.
    pub(crate) fn admit_replacement(&mut self, conn: u64, chunk: u32, now: f64) -> bool {
        let base = self.cfg.replacement_base_secs;
        let gate = self
            .replacements
            .entry((conn, chunk))
            .or_insert((f64::NEG_INFINITY, 0));
        if now < gate.0 {
            return false;
        }
        gate.1 = gate.1.saturating_add(1);
        gate.0 = now + base * (1u32 << (gate.1 - 1).min(5)) as f64;
        true
    }

    /// Appends every action due at `now`, in the order the driver must
    /// carry them out: lost and banned connections, then refusals, then
    /// stalls, each in connection order. `stage` is the user's
    /// handshake/download stage on a connection (`None` once dropped).
    /// Steady state appends nothing and allocates nothing.
    pub(crate) fn poll(
        &mut self,
        now: f64,
        stage: &impl Fn(u64) -> Option<ConnStage>,
        actions: &mut Vec<Action>,
    ) {
        for i in 0..self.conns.len() {
            let c = &mut self.conns[i];
            let conn = c.conn;
            match c.end.take() {
                Some(End::Lost) => self.write_off(i, Action::WriteOff { conn }, stage, actions),
                Some(End::Banned(strategy)) => {
                    let ban = Action::Quarantined { conn, strategy };
                    self.write_off(i, ban, stage, actions);
                }
                None => {}
            }
        }
        for c in self.conns.iter_mut().filter(|c| !c.dead) {
            if stage(c.conn) == Some(ConnStage::Refused) {
                // Terminal, and nothing to re-plan: a refusing peer never
                // served a byte.
                c.dead = true;
            }
        }
        for i in 0..self.conns.len() {
            let c = &mut self.conns[i];
            if c.dead || now - c.last_activity < self.cfg.stall_secs || now < c.next_attempt {
                continue;
            }
            if c.retries >= self.cfg.max_retries {
                let conn = c.conn;
                self.write_off(i, Action::WriteOff { conn }, stage, actions);
                continue;
            }
            c.retries += 1;
            c.next_attempt = now + self.cfg.retry_backoff_secs * (1u32 << c.retries.min(3)) as f64;
            let (conn, attempt) = (c.conn, c.retries);
            actions.push(if stage(conn) == Some(ConnStage::Downloading) {
                Action::Resweep { conn, attempt }
            } else {
                Action::Rehandshake { conn, attempt }
            });
        }
    }

    /// Marks connection `i` dead, reports `why`, and re-plans its demand.
    fn write_off(
        &mut self,
        i: usize,
        why: Action,
        stage: &impl Fn(u64) -> Option<ConnStage>,
        actions: &mut Vec<Action>,
    ) {
        self.conns[i].dead = true;
        actions.push(why);
        self.reassign(stage, actions);
    }

    /// Picks the survivor that absorbs a dead or banned connection's
    /// demand, round-robin over the live (not dead, downloading) ones.
    fn reassign(&mut self, stage: &impl Fn(u64) -> Option<ConnStage>, actions: &mut Vec<Action>) {
        let live = |c: &&ConnState| !c.dead && stage(c.conn) == Some(ConnStage::Downloading);
        let n_live = self.conns.iter().filter(live).count();
        if n_live == 0 {
            return;
        }
        let target = self
            .conns
            .iter()
            .filter(live)
            .nth(self.replan_cursor % n_live)
            .expect("the pool was just counted")
            .conn;
        self.replan_cursor += 1;
        actions.push(Action::Reassign { target });
    }

    /// How long the driver may sleep before the next [`poll`](Self::poll)
    /// can produce an action, and whether that wait honors a backoff — the
    /// earliest deadline is a scheduled retry rather than a stall deadline
    /// — as opposed to ordinary waiting for a healthy peer's next message.
    /// Zero when an action is due now; at most the stall timeout.
    pub(crate) fn next_deadline(&self, now: f64) -> (f64, bool) {
        let cap = self.cfg.stall_secs;
        let mut next: Option<(f64, bool)> = None;
        for c in self.conns.iter().filter(|c| !c.dead) {
            let stall_due = c.last_activity + cap;
            let due = stall_due.max(c.next_attempt);
            if c.end.is_some() || due <= now {
                return (0.0, false);
            }
            if next.is_none_or(|(n, _)| due < n) {
                next = Some((due, c.next_attempt > stall_due));
            }
        }
        match next {
            Some((due, retry)) => ((due - now).min(cap), retry),
            None => (cap, false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Action::*;
    use super::*;
    use crate::error::SystemError;
    use crate::identity::Identity;
    use crate::peer::Peer;
    use crate::protocol::Wire;
    use crate::user::User;
    use asymshare_crypto::chacha20::ChaChaRng;
    use asymshare_gf::{FieldKind, Gf2p32};
    use asymshare_rlnc::{ChunkedEncoder, DigestKind, FileId};
    use std::collections::BTreeMap;
    use ConnStage::{Authenticating, Downloading, Refused};

    /// The world as a table: stages set by hand.
    struct World {
        stages: BTreeMap<u64, ConnStage>,
    }

    impl World {
        fn poll(&self, ladder: &mut RecoveryLadder, now: f64, actions: &mut Vec<Action>) {
            ladder.poll(now, &|conn| self.stages.get(&conn).copied(), actions);
        }
    }

    /// What happens at a row's instant, before the ladder is polled.
    #[derive(Debug, Clone, Copy)]
    enum Ev {
        Tick,
        Heard(u64),
        Lost(u64),
        Ban(u64),
        Stage(u64, ConnStage),
    }
    use Ev::*;

    /// Stall 1 s, backoff base 0.5 s, replacement base 1/8 s: every instant
    /// in the tables is exact in binary.
    fn cfg(max_retries: u32) -> LadderConfig {
        LadderConfig {
            stall_secs: 1.0,
            retry_backoff_secs: 0.5,
            max_retries,
            replacement_base_secs: 0.125,
        }
    }

    fn setup(max_retries: u32, conns: &[(u64, ConnStage)]) -> (RecoveryLadder, World) {
        let world = World {
            stages: conns.iter().copied().collect(),
        };
        let ladder = RecoveryLadder::new(cfg(max_retries), conns.iter().map(|c| c.0), 0.0);
        (ladder, world)
    }

    /// Applies each row's event at its instant, polls, and compares.
    fn run(ladder: &mut RecoveryLadder, world: &mut World, rows: &[(f64, Ev, &[Action])]) {
        let mut actions = Vec::new();
        for (i, &(now, ev, want)) in rows.iter().enumerate() {
            match ev {
                Tick => {}
                Heard(conn) => ladder.on_activity(conn, now),
                Lost(conn) => ladder.lost(conn),
                Ban(conn) => ladder.ban(conn, "pollute"),
                Stage(conn, stage) => drop(world.stages.insert(conn, stage)),
            }
            world.poll(ladder, now, &mut actions);
            assert_eq!(actions, want, "row {i}: t = {now}, {ev:?}");
            actions.clear();
        }
    }

    #[test]
    fn stall_fires_at_exactly_the_timeout_and_backs_off() {
        let (mut ladder, mut world) = setup(10, &[(1, Downloading), (2, Authenticating)]);
        run(
            &mut ladder,
            &mut world,
            &[
                (0.5, Heard(2), &[]),
                // `≥`: silent for exactly the stall timeout.
                (
                    1.0,
                    Tick,
                    &[Resweep {
                        conn: 1,
                        attempt: 1,
                    }],
                ),
                // A wedged handshake is re-run instead.
                (
                    1.5,
                    Tick,
                    &[Rehandshake {
                        conn: 2,
                        attempt: 1,
                    }],
                ),
                // Attempt n waits 2^min(n, 3) × 0.5 s: 1, 2, 4, 4, ...
                (1.75, Tick, &[]),
                (
                    2.0,
                    Tick,
                    &[Resweep {
                        conn: 1,
                        attempt: 2,
                    }],
                ),
                (
                    2.5,
                    Tick,
                    &[Rehandshake {
                        conn: 2,
                        attempt: 2,
                    }],
                ),
                (3.75, Tick, &[]),
                (
                    4.0,
                    Tick,
                    &[Resweep {
                        conn: 1,
                        attempt: 3,
                    }],
                ),
                (7.75, Heard(2), &[]),
                (
                    8.0,
                    Tick,
                    &[Resweep {
                        conn: 1,
                        attempt: 4,
                    }],
                ),
                (11.75, Heard(2), &[]),
                (
                    12.0,
                    Tick,
                    &[Resweep {
                        conn: 1,
                        attempt: 5,
                    }],
                ),
            ],
        );
    }

    #[test]
    fn any_activity_refills_the_retry_budget() {
        let (mut ladder, mut world) = setup(2, &[(1, Downloading)]);
        run(
            &mut ladder,
            &mut world,
            &[
                (
                    1.0,
                    Tick,
                    &[Resweep {
                        conn: 1,
                        attempt: 1,
                    }],
                ),
                (
                    2.0,
                    Tick,
                    &[Resweep {
                        conn: 1,
                        attempt: 2,
                    }],
                ),
                // One more silent deadline would write it off; it speaks.
                (3.0, Heard(1), &[]),
                // Stalled again at 4.0, which is also when the backoff of
                // attempt 2 ends — and the count starts over.
                (3.75, Tick, &[]),
                (
                    4.0,
                    Tick,
                    &[Resweep {
                        conn: 1,
                        attempt: 1,
                    }],
                ),
            ],
        );
        assert!(!ladder.all_dead());
    }

    #[test]
    fn write_off_after_max_retries_and_on_loss() {
        let (mut ladder, mut world) =
            setup(1, &[(1, Downloading), (2, Downloading), (3, Downloading)]);
        run(
            &mut ladder,
            &mut world,
            &[
                (0.75, Heard(2), &[]),
                (0.75, Heard(3), &[]),
                (
                    1.0,
                    Tick,
                    &[Resweep {
                        conn: 1,
                        attempt: 1,
                    }],
                ),
                (1.5, Heard(2), &[]),
                (1.5, Heard(3), &[]),
                // Budget of one spent and still silent past the backoff.
                (2.0, Tick, &[WriteOff { conn: 1 }, Reassign { target: 2 }]),
                // A failed send is a write-off at once, whatever the clock
                // says; the cursor moves on to the next survivor.
                (
                    2.0,
                    Lost(2),
                    &[WriteOff { conn: 2 }, Reassign { target: 3 }],
                ),
                (2.0, Lost(2), &[]),
                // Nobody left to take the last one's demand.
                (2.25, Lost(3), &[WriteOff { conn: 3 }]),
            ],
        );
        assert!(ladder.all_dead() && ladder.is_dead(1));
    }

    #[test]
    fn refusal_is_terminal_and_moves_no_demand() {
        let (mut ladder, mut world) = setup(3, &[(1, Authenticating), (2, Downloading)]);
        run(
            &mut ladder,
            &mut world,
            &[
                (0.5, Stage(1, Refused), &[]),
                (0.75, Heard(2), &[]),
                (1.5, Tick, &[]),
            ],
        );
        assert!(ladder.is_dead(1) && !ladder.is_dead(2));
    }

    /// A re-plan goes round-robin over the live connections: downloading,
    /// and neither written off nor banned.
    #[test]
    fn replan_is_round_robin_over_live_connections() {
        let (mut ladder, mut world) = setup(
            3,
            &[
                (1, Downloading),
                (2, Downloading),
                (3, Downloading),
                (7, Authenticating),
                (8, Authenticating),
            ],
        );
        let reassign = |target| Reassign { target };
        run(
            &mut ladder,
            &mut world,
            &[
                (0.25, Lost(7), &[WriteOff { conn: 7 }, reassign(1)]),
                (
                    0.25,
                    Ban(2),
                    &[
                        Quarantined {
                            conn: 2,
                            strategy: "pollute",
                        },
                        reassign(3),
                    ],
                ),
                // Cursor 2 over the two survivors {1, 3}.
                (0.5, Lost(8), &[WriteOff { conn: 8 }, reassign(1)]),
            ],
        );
    }

    /// A ban is a write-off the client chose: reported once, its demand
    /// re-planned, and the connection is never nudged, re-banned or lost
    /// again, however long it stays silent.
    #[test]
    fn a_ban_is_a_write_off_reported_once() {
        let (mut ladder, mut world) = setup(1, &[(1, Downloading), (2, Downloading)]);
        run(
            &mut ladder,
            &mut world,
            &[
                (
                    0.5,
                    Ban(1),
                    &[
                        Quarantined {
                            conn: 1,
                            strategy: "pollute",
                        },
                        Reassign { target: 2 },
                    ],
                ),
                (0.75, Heard(2), &[]),
                (1.5, Heard(2), &[]),
                (2.25, Heard(2), &[]),
                (2.25, Ban(1), &[]),
                (3.0, Heard(2), &[]),
                (3.0, Lost(1), &[]),
            ],
        );
        assert!(ladder.is_dead(1) && !ladder.all_dead());
    }

    /// With every peer banned there is no fallback tier: the fetch has
    /// nobody left.
    #[test]
    fn every_peer_banned_ends_the_fetch() {
        let (mut ladder, mut world) = setup(3, &[(1, Downloading), (2, Downloading)]);
        run(
            &mut ladder,
            &mut world,
            &[
                (
                    0.25,
                    Ban(1),
                    &[
                        Quarantined {
                            conn: 1,
                            strategy: "pollute",
                        },
                        Reassign { target: 2 },
                    ],
                ),
                (
                    0.5,
                    Ban(2),
                    &[Quarantined {
                        conn: 2,
                        strategy: "pollute",
                    }],
                ),
            ],
        );
        assert!(ladder.all_dead());
        assert_eq!(ladder.next_deadline(0.5), (1.0, false));
    }

    #[test]
    fn replacement_requests_back_off_per_connection_and_chunk() {
        let (mut ladder, _) = setup(3, &[(1, Downloading), (2, Downloading)]);
        // Waits of 1, 2, 4, 8, 16, 32, 32 eighths of a second.
        let mut now = 0.0;
        for wait in [1, 2, 4, 8, 16, 32, 32] {
            assert!(ladder.admit_replacement(1, 7, now), "t = {now}");
            let next = now + wait as f64 * 0.125;
            assert!(!ladder.admit_replacement(1, 7, now), "t = {now}, again");
            assert!(
                !ladder.admit_replacement(1, 7, next - 0.0625),
                "before {next}"
            );
            now = next;
        }
        // Other chunks and other connections are not held back by it.
        assert!(ladder.admit_replacement(1, 8, 0.0));
        assert!(ladder.admit_replacement(2, 7, 0.0));
        assert!(!ladder.admit_replacement(2, 7, 0.0625));
    }

    #[test]
    fn next_deadline_tells_backoff_from_ordinary_waiting() {
        let (mut ladder, world) = setup(3, &[(1, Downloading), (2, Downloading)]);
        let mut actions = Vec::new();
        // A healthy peer between messages (the clean slow link): wait for
        // its stall deadline, and that is not backoff.
        ladder.on_activity(1, 0.25);
        ladder.on_activity(2, 0.5);
        assert_eq!(ladder.next_deadline(0.75), (0.5, false));
        // An action is due now: no wait (the driver polls at its base
        // cadence).
        assert_eq!(ladder.next_deadline(1.25), (0.0, false));
        world.poll(&mut ladder, 1.25, &mut actions);
        assert_eq!(
            actions,
            [Resweep {
                conn: 1,
                attempt: 1
            }]
        );
        // Connection 2's stall deadline (1.5) comes before 1's retry.
        assert_eq!(ladder.next_deadline(1.25), (0.25, false));
        // With 2 just heard from, 1's scheduled retry (2.25) is the next
        // deadline: honored backoff.
        ladder.on_activity(2, 1.5);
        assert_eq!(ladder.next_deadline(1.5), (0.75, true));
        // A reported loss is due at once.
        ladder.lost(2);
        assert_eq!(ladder.next_deadline(1.5), (0.0, false));
        actions.clear();
        world.poll(&mut ladder, 1.5, &mut actions);
        assert_eq!(actions, [WriteOff { conn: 2 }, Reassign { target: 1 }]);
        // A reported ban is due at once too.
        ladder.ban(1, "replay");
        assert_eq!(ladder.next_deadline(1.75), (0.0, false));
        // Nobody left at all.
        world.poll(&mut ladder, 2.0, &mut actions);
        assert!(ladder.all_dead());
        assert_eq!(ladder.next_deadline(2.0), (1.0, false));
    }

    // -- A stale handshake reply costs that peer, not the fetch ------------

    fn rng(seed: u8) -> ChaChaRng {
        ChaChaRng::new([seed; 32], [0u8; 12])
    }

    /// A user with one connection (0) to a stocked peer, the first
    /// handshake's commit already sent, and a ladder watching it.
    fn fetch(r: &mut ChaChaRng) -> (User<Gf2p32>, Peer, RecoveryLadder, Wire) {
        let owner = Identity::from_seed(b"stale-owner");
        let data: Vec<u8> = (0..4096u32).map(|i| (i % 239) as u8).collect();
        let mut enc = ChunkedEncoder::<Gf2p32>::with_chunk_size(
            FieldKind::Gf2p32,
            4,
            DigestKind::Md5,
            owner.coding_secret().clone(),
            FileId(3),
            &data,
            2048,
        )
        .unwrap();
        let mut peer = Peer::new(Identity::from_seed(b"stale-peer"), 1.0);
        peer.add_subscriber(owner.public_key().to_bytes());
        for m in enc.encode_for_peers(1).unwrap().remove(0) {
            peer.store_mut().insert(m);
        }
        let mut user = User::<Gf2p32>::new(owner, enc.manifest().clone()).unwrap();
        let commit = user.connect(0, peer.identity().public_key().to_bytes(), r);
        let ladder = RecoveryLadder::new(cfg(2), [0], 0.0);
        (user, peer, ladder, commit)
    }

    /// The one reply a protocol message draws from the peer.
    fn reply(peer: &mut Peer, wire: Wire, r: &mut ChaChaRng) -> Wire {
        peer.on_message(0, wire, r).unwrap().remove(0)
    }

    /// The driver's rule: an error on a connection that is not downloading
    /// is that connection's problem.
    fn dropped(user: &User<Gf2p32>, result: Result<Vec<(u64, Wire)>, SystemError>) -> bool {
        result.is_err() && user.stage(0) != Some(Downloading)
    }

    #[test]
    fn late_result_of_a_rerun_handshake_is_ignored() {
        let mut r = rng(31);
        let (mut user, mut peer, mut ladder, commit1) = fetch(&mut r);
        let challenge1 = reply(&mut peer, commit1, &mut r);
        let response1 = user.on_message(0, challenge1, &mut r).unwrap().remove(0).1;
        // The acceptance is on its way, queued behind coded frames...
        let result1 = reply(&mut peer, response1, &mut r);
        // ...when the connection stalls and the ladder re-runs the handshake.
        let mut actions = Vec::new();
        ladder.poll(1.0, &|conn| user.stage(conn), &mut actions);
        assert_eq!(
            actions,
            [Rehandshake {
                conn: 0,
                attempt: 1
            }]
        );
        let commit2 = user.connect(0, peer.identity().public_key().to_bytes(), &mut r);
        // The first attempt's acceptance arrives: not this attempt's.
        let stale = user.on_message(0, result1, &mut r);
        assert!(dropped(&user, stale), "costs the connection, not the fetch");
        assert_eq!(user.stage(0), Some(Authenticating), "attempt 2 goes on");
        // The second handshake completes and the peer serves.
        let challenge2 = reply(&mut peer, commit2, &mut r);
        let response2 = user.on_message(0, challenge2, &mut r).unwrap().remove(0).1;
        let result2 = reply(&mut peer, response2, &mut r);
        let request = user.on_message(0, result2, &mut r).unwrap().remove(0).1;
        assert_eq!(user.stage(0), Some(Downloading));
        peer.on_message(0, request, &mut r).unwrap();
        while let Some(msg) = peer.next_message(0) {
            user.on_message(0, Wire::MessageData(msg), &mut r).unwrap();
        }
        assert!(user.is_complete());
    }

    #[test]
    fn late_challenge_of_a_rerun_handshake_costs_only_that_peer() {
        let mut r = rng(32);
        let (mut user, mut peer, mut ladder, commit1) = fetch(&mut r);
        let challenge1 = reply(&mut peer, commit1, &mut r);
        // The challenge is still queued when the handshake is re-run.
        let commit2 = user.connect(0, peer.identity().public_key().to_bytes(), &mut r);
        let challenge2 = reply(&mut peer, commit2, &mut r);
        // It answers the new commitment with the old challenge; the real
        // challenge then finds the nonce spent.
        let bogus = user.on_message(0, challenge1, &mut r).unwrap().remove(0).1;
        let second = user.on_message(0, challenge2, &mut r);
        assert!(
            dropped(&user, second),
            "costs the connection, not the fetch"
        );
        // The peer cannot verify that response and refuses: terminal for
        // this peer, silently, and never a byte from it.
        let refusal = reply(&mut peer, bogus, &mut r);
        assert!(user.on_message(0, refusal, &mut r).unwrap().is_empty());
        assert_eq!(user.stage(0), Some(Refused));
        let mut actions = Vec::new();
        ladder.poll(0.5, &|conn| user.stage(conn), &mut actions);
        assert!(actions.is_empty() && ladder.all_dead());
    }

    #[test]
    fn bad_acknowledgement_is_a_typed_error_and_never_bytes() {
        let mut r = rng(33);
        let (mut user, mut peer, mut ladder, commit) = fetch(&mut r);
        let challenge = reply(&mut peer, commit, &mut r);
        user.on_message(0, challenge, &mut r).unwrap();
        // A man in the middle says "ok" without the peer's signature.
        let forged = Wire::AuthResult {
            ok: true,
            ack: [9u8; 96],
        };
        let err = user.on_message(0, forged, &mut r).unwrap_err();
        assert!(matches!(err, SystemError::AuthenticationRejected { .. }));
        assert_eq!(user.stage(0), Some(Refused));
        // Whatever it sends next stays outside the decoder.
        peer.store_mut()
            .messages(FileId(3))
            .to_vec()
            .into_iter()
            .for_each(|msg| {
                let pushed = user.on_message(0, Wire::MessageData(msg), &mut r);
                assert!(dropped(&user, pushed));
            });
        assert_eq!(user.independent_count(), 0);
        assert!(user.stats().bytes_by_peer.is_empty() && user.window_bytes().is_empty());
        // The only peer is gone: the fetch ends in a typed error.
        let mut actions = Vec::new();
        ladder.poll(0.5, &|conn| user.stage(conn), &mut actions);
        assert!(actions.is_empty() && ladder.all_dead());
    }
}
