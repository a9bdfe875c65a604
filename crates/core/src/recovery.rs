//! The recovery ladder: when a silent connection is nudged, re-handshaken
//! or written off, whose demand moves where, how a quarantine is answered,
//! and how often a rejected message may be re-requested.
//!
//! [`RecoveryLadder`] is the one implementation of that policy. It holds
//! per-connection liveness (`last_activity`, `next_attempt`, `retries`,
//! `dead`), which connections are under a ban, the round-robin re-plan
//! cursor and the per-`(connection, chunk)` replacement limiter — and no
//! clock, socket, thread, `User`, RNG or event sink. Time is `f64` seconds
//! on an epoch the driver picks: simulated seconds in
//! [`SimRuntime`](crate::SimRuntime), seconds since the fetch began in
//! [`rt::download_file_with`](crate::rt::download_file_with).
//!
//! A driver tells the ladder what happened ([`on_activity`], [`lost`],
//! [`admit_replacement`]) and asks it what to do ([`poll`], which appends
//! [`Action`]s to a caller-owned buffer, and [`next_deadline`]). The ladder
//! decides *when and whom*; what goes on the wire for each action, the
//! stats counters and the events stay with the driver.
//!
//! [`on_activity`]: RecoveryLadder::on_activity
//! [`lost`]: RecoveryLadder::lost
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

/// What the ladder reads of the world, per connection.
pub(crate) trait LadderView {
    /// The user's handshake/download stage on `conn` (`None` once dropped).
    fn stage(&self, conn: u64) -> Option<ConnStage>;
    /// Whether the peer behind `conn` is under a quarantine ban at `now`.
    fn quarantined(&self, conn: u64, now: f64) -> bool;
    /// Whether the health engine marks the peer behind `conn` sick.
    fn sick(&self, conn: u64) -> bool;
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
    /// connection had been sending; `deprioritized` live connections were
    /// passed over as banned or sick.
    Reassign { target: u64, deprioritized: usize },
    /// The peer behind `conn` entered quarantine: stop its transmission.
    /// Reported once per ban; a `Reassign` follows as for `WriteOff`.
    Quarantined { conn: u64 },
    /// The ban on `conn` lapsed (once per lapse); its stall clock runs
    /// again from the last poll of the ban.
    BanLapsed { conn: u64 },
}

#[derive(Debug)]
struct ConnState {
    conn: u64,
    last_activity: f64,
    next_attempt: f64,
    retries: u32,
    dead: bool,
    /// Reported by [`RecoveryLadder::lost`], written off at the next poll.
    lost: bool,
    banned: bool,
    /// The ban lapsed in the current poll: no stall check until the next.
    lapsed: bool,
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
                lost: false,
                banned: false,
                lapsed: false,
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
        if let Some(c) = self.get_mut(conn) {
            c.lost = !c.dead;
        }
    }

    /// Whether `conn` was written off.
    pub(crate) fn is_dead(&self, conn: u64) -> bool {
        self.index(conn).is_some_and(|i| self.conns[i].dead)
    }

    /// Whether every connection has been written off — with the driver's
    /// deadline, the only way a fetch ends short of success.
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
    /// carry them out: lost connections, then ban entries and lapses, then
    /// stalls, each in connection order. Steady state appends nothing and
    /// allocates nothing.
    pub(crate) fn poll(&mut self, now: f64, view: &impl LadderView, actions: &mut Vec<Action>) {
        for i in 0..self.conns.len() {
            let c = &mut self.conns[i];
            if c.lost {
                c.lost = false;
                self.write_off(i, now, view, actions);
            }
        }
        for i in 0..self.conns.len() {
            let c = &mut self.conns[i];
            if c.dead {
                continue;
            }
            let conn = c.conn;
            if view.stage(conn) == Some(ConnStage::Refused) {
                // Terminal, and nothing to re-plan: a refusing peer never
                // served a byte.
                c.dead = true;
                continue;
            }
            if view.quarantined(conn, now) {
                // Neither nudged nor written off, and no retries burned:
                // the ban is timed, and the stall clock is paused for it.
                c.last_activity = now;
                c.retries = 0;
                if !c.banned {
                    c.banned = true;
                    actions.push(Action::Quarantined { conn });
                    self.reassign(now, view, actions);
                }
            } else if c.banned {
                c.banned = false;
                c.lapsed = true;
                actions.push(Action::BanLapsed { conn });
            }
        }
        for i in 0..self.conns.len() {
            let c = &mut self.conns[i];
            let lapsed = std::mem::take(&mut c.lapsed);
            if c.dead
                || c.banned
                || lapsed
                || now - c.last_activity < self.cfg.stall_secs
                || now < c.next_attempt
            {
                continue;
            }
            if c.retries >= self.cfg.max_retries {
                self.write_off(i, now, view, actions);
                continue;
            }
            c.retries += 1;
            c.next_attempt = now + self.cfg.retry_backoff_secs * (1u32 << c.retries.min(3)) as f64;
            let (conn, attempt) = (c.conn, c.retries);
            actions.push(if view.stage(conn) == Some(ConnStage::Downloading) {
                Action::Resweep { conn, attempt }
            } else {
                Action::Rehandshake { conn, attempt }
            });
        }
    }

    fn write_off(&mut self, i: usize, now: f64, view: &impl LadderView, actions: &mut Vec<Action>) {
        self.conns[i].dead = true;
        actions.push(Action::WriteOff {
            conn: self.conns[i].conn,
        });
        self.reassign(now, view, actions);
    }

    /// Picks the survivor that absorbs a dead or banned connection's
    /// demand, round-robin over the best non-empty pool: live (not dead,
    /// downloading) → not banned → not sick. Banned peers serve only when
    /// every survivor is banned, sick ones only when every remaining one is
    /// sick, so the download cannot strand itself.
    fn reassign(&mut self, now: f64, view: &impl LadderView, actions: &mut Vec<Action>) {
        let live = |c: &ConnState| !c.dead && view.stage(c.conn) == Some(ConnStage::Downloading);
        // Pool sizes by tier: [live, unbanned, unbanned healthy, live healthy].
        let mut n = [0usize; 4];
        for c in self.conns.iter().filter(|c| live(c)) {
            let unbanned = !view.quarantined(c.conn, now);
            let healthy = !view.sick(c.conn);
            n[0] += 1;
            n[1] += unbanned as usize;
            n[2] += (unbanned && healthy) as usize;
            n[3] += healthy as usize;
        }
        let [n_live, n_unbanned, n_unbanned_healthy, n_live_healthy] = n;
        if n_live == 0 {
            return;
        }
        let skip_banned = n_unbanned > 0;
        let n_base = if skip_banned { n_unbanned } else { n_live };
        let n_healthy = if skip_banned {
            n_unbanned_healthy
        } else {
            n_live_healthy
        };
        let skip_sick = n_healthy > 0;
        let len = if skip_sick { n_healthy } else { n_base };
        let target = self
            .conns
            .iter()
            .filter(|c| live(c))
            .filter(|c| !(skip_banned && view.quarantined(c.conn, now)))
            .filter(|c| !(skip_sick && view.sick(c.conn)))
            .nth(self.replan_cursor % len)
            .expect("the pool was just counted")
            .conn;
        self.replan_cursor += 1;
        actions.push(Action::Reassign {
            target,
            deprioritized: n_live - len,
        });
    }

    /// How long the driver may sleep before the next [`poll`](Self::poll)
    /// can produce an action, and whether that wait honors a backoff — the
    /// earliest deadline is a scheduled retry rather than a stall deadline,
    /// or only banned connections are left — as opposed to ordinary waiting
    /// for a healthy peer's next message. Zero when an action is due now;
    /// at most the stall timeout, so lapsing bans are still re-checked.
    pub(crate) fn next_deadline(&self, now: f64) -> (f64, bool) {
        let cap = self.cfg.stall_secs;
        let mut next: Option<(f64, bool)> = None;
        let mut banned = false;
        for c in self.conns.iter().filter(|c| !c.dead) {
            if c.lost {
                return (0.0, false);
            }
            if c.banned {
                banned = true;
                continue;
            }
            let stall_due = c.last_activity + cap;
            let due = stall_due.max(c.next_attempt);
            if due <= now {
                return (0.0, false);
            }
            if next.is_none_or(|(n, _)| due < n) {
                next = Some((due, c.next_attempt > stall_due));
            }
        }
        match next {
            Some((due, retry)) => ((due - now).min(cap), retry),
            None => (cap, banned),
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
    use std::collections::{BTreeMap, BTreeSet};
    use ConnStage::{Authenticating, Downloading, Refused};

    /// The world as a table: stages, bans and sick marks set by hand.
    #[derive(Default)]
    struct World {
        stages: BTreeMap<u64, ConnStage>,
        banned: BTreeSet<u64>,
        sick: BTreeSet<u64>,
    }

    impl LadderView for World {
        fn stage(&self, conn: u64) -> Option<ConnStage> {
            self.stages.get(&conn).copied()
        }
        fn quarantined(&self, conn: u64, _now: f64) -> bool {
            self.banned.contains(&conn)
        }
        fn sick(&self, conn: u64) -> bool {
            self.sick.contains(&conn)
        }
    }

    /// What happens at a row's instant, before the ladder is polled.
    #[derive(Debug, Clone, Copy)]
    enum Ev {
        Tick,
        Heard(u64),
        Lost(u64),
        Ban(u64),
        Lift(u64),
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
            ..World::default()
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
                Ban(conn) => drop(world.banned.insert(conn)),
                Lift(conn) => drop(world.banned.remove(&conn)),
                Stage(conn, stage) => drop(world.stages.insert(conn, stage)),
            }
            ladder.poll(now, world, &mut actions);
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
                (
                    2.0,
                    Tick,
                    &[
                        WriteOff { conn: 1 },
                        Reassign {
                            target: 2,
                            deprioritized: 0,
                        },
                    ],
                ),
                // A failed send is a write-off at once, whatever the clock
                // says; the cursor moves on to the next survivor.
                (
                    2.0,
                    Lost(2),
                    &[
                        WriteOff { conn: 2 },
                        Reassign {
                            target: 3,
                            deprioritized: 0,
                        },
                    ],
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

    /// The re-plan pool is live → not banned → not sick, each step falling
    /// back to the wider pool when it would leave nobody.
    #[test]
    fn replan_pool_prefers_unbanned_then_healthy() {
        // (banned, sick, [(target, deprioritized); 3]) over three losses;
        // connections 1–3 download, 7–9 are there to be lost.
        type Case = (&'static [u64], &'static [u64], [(u64, usize); 3]);
        let cases: [Case; 6] = [
            (&[], &[], [(1, 0), (2, 0), (3, 0)]),
            (&[], &[2], [(1, 1), (3, 1), (1, 1)]),
            (&[], &[1, 2, 3], [(1, 0), (2, 0), (3, 0)]),
            (&[1], &[], [(3, 1), (2, 1), (3, 1)]),
            (&[1], &[2, 3], [(3, 1), (2, 1), (3, 1)]),
            (&[1], &[3], [(2, 2), (2, 2), (2, 2)]),
        ];
        for (banned, sick, want) in cases {
            let (mut ladder, mut world) = setup(
                3,
                &[
                    (1, Downloading),
                    (2, Downloading),
                    (3, Downloading),
                    (7, Authenticating),
                    (8, Authenticating),
                    (9, Authenticating),
                ],
            );
            world.banned = banned.iter().copied().collect();
            world.sick = sick.iter().copied().collect();
            let mut actions = Vec::new();
            // Entering the ban is itself a re-plan (cursor 0).
            ladder.poll(0.0, &world, &mut actions);
            assert_eq!(actions.len(), 2 * banned.len(), "{banned:?} {sick:?}");
            for (lost, (target, deprioritized)) in [7, 8, 9].into_iter().zip(want) {
                actions.clear();
                ladder.lost(lost);
                ladder.poll(0.25, &world, &mut actions);
                assert_eq!(
                    actions,
                    [
                        WriteOff { conn: lost },
                        Reassign {
                            target,
                            deprioritized
                        }
                    ],
                    "banned {banned:?}, sick {sick:?}, losing {lost}"
                );
            }
        }
    }

    #[test]
    fn every_survivor_banned_still_serves() {
        let (mut ladder, mut world) = setup(3, &[(1, Downloading), (2, Downloading)]);
        world.sick.insert(1);
        run(
            &mut ladder,
            &mut world,
            &[
                (
                    0.25,
                    Ban(1),
                    &[
                        Quarantined { conn: 1 },
                        Reassign {
                            target: 2,
                            deprioritized: 1,
                        },
                    ],
                ),
                // Both banned: the full live pool, then its healthy part.
                (
                    0.5,
                    Ban(2),
                    &[
                        Quarantined { conn: 2 },
                        Reassign {
                            target: 2,
                            deprioritized: 1,
                        },
                    ],
                ),
            ],
        );
    }

    #[test]
    fn a_ban_pauses_the_clock_and_is_reported_once_each_way() {
        let (mut ladder, mut world) = setup(1, &[(1, Downloading), (2, Downloading)]);
        let entry: &[Action] = &[
            Quarantined { conn: 1 },
            Reassign {
                target: 2,
                deprioritized: 1,
            },
        ];
        run(
            &mut ladder,
            &mut world,
            &[
                (0.5, Ban(1), entry),
                (0.75, Heard(2), &[]),
                // Neither nudged nor written off, however long the ban.
                (1.5, Heard(2), &[]),
                (2.25, Heard(2), &[]),
                (3.0, Heard(2), &[]),
                (3.75, Heard(2), &[]),
                (4.0, Tick, &[]),
                // Reported once; not stall-checked in the same poll.
                (4.5, Lift(1), &[BanLapsed { conn: 1 }]),
                (4.5, Heard(2), &[]),
                // The clock runs on from the last poll of the ban (4.0),
                // with a full retry budget.
                (4.75, Tick, &[]),
                (
                    5.0,
                    Tick,
                    &[Resweep {
                        conn: 1,
                        attempt: 1,
                    }],
                ),
                (5.25, Heard(2), &[]),
                // A repeat offence is a new ban.
                (5.5, Ban(1), entry),
                (6.0, Heard(2), &[]),
                (6.25, Lift(1), &[BanLapsed { conn: 1 }]),
            ],
        );
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
        let (mut ladder, mut world) = setup(3, &[(1, Downloading), (2, Downloading)]);
        let mut actions = Vec::new();
        // A healthy peer between messages (the clean slow link): wait for
        // its stall deadline, and that is not backoff.
        ladder.on_activity(1, 0.25);
        ladder.on_activity(2, 0.5);
        assert_eq!(ladder.next_deadline(0.75), (0.5, false));
        // An action is due now: no wait (the driver polls at its base
        // cadence).
        assert_eq!(ladder.next_deadline(1.25), (0.0, false));
        ladder.poll(1.25, &world, &mut actions);
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
        ladder.poll(1.5, &world, &mut actions);
        assert_eq!(
            actions,
            [
                WriteOff { conn: 2 },
                Reassign {
                    target: 1,
                    deprioritized: 0
                }
            ]
        );
        // Only a banned peer left: the cap, so the lapse is noticed, and
        // the wait counts as backoff.
        world.banned.insert(1);
        ladder.poll(1.5, &world, &mut actions);
        assert_eq!(ladder.next_deadline(1.75), (1.0, true));
        // Nobody left at all.
        ladder.lost(1);
        ladder.poll(2.0, &world, &mut actions);
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

    struct Stages<'a>(&'a User<Gf2p32>);

    impl LadderView for Stages<'_> {
        fn stage(&self, conn: u64) -> Option<ConnStage> {
            self.0.stage(conn)
        }
        fn quarantined(&self, _conn: u64, _now: f64) -> bool {
            false
        }
        fn sick(&self, _conn: u64) -> bool {
            false
        }
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
        ladder.poll(1.0, &Stages(&user), &mut actions);
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
        ladder.poll(0.5, &Stages(&user), &mut actions);
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
        ladder.poll(0.5, &Stages(&user), &mut actions);
        assert!(actions.is_empty() && ladder.all_dead());
    }
}
