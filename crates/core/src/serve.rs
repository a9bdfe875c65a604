//! The serve pass: how a peer's uplink budget becomes frames on each
//! connection (§IV, Eq. 2), as deficit round robin.
//!
//! [`ServePass`] is the one implementation of that rule. It holds a
//! per-connection *deficit* — bytes a connection has been granted and has
//! not yet sent — and no clock, token bucket, queue, `Peer`, network or
//! event sink. A driver
//!
//! 1. [`grant`]s each connection its Eq.-2 [`share`] of the budget the pass
//!    has to give away. A connection banks at most `cap` bytes; what would
//!    exceed the cap is handed back to the driver, so a connection that
//!    cannot send (full window, full pipe) neither forfeits its share nor
//!    hoards the link;
//! 2. sends on a connection while [`try_send`] covers the next frame. The
//!    remainder carries to the next pass, which is what makes the long-run
//!    byte split follow the weights however small a pass's budget is next
//!    to a frame: a deficit never goes negative, so nothing is ever sent
//!    that was not granted first;
//! 3. takes back what departed connections had banked ([`retain`]).
//!
//! Its one driver is the serving engine's pass,
//! [`Host::pass`](crate::host::Host::pass); the runtimes drive the `Host`.
//!
//! [`grant`]: ServePass::grant
//! [`share`]: share
//! [`try_send`]: ServePass::try_send
//! [`retain`]: ServePass::retain

use std::collections::HashMap;

/// Eq. 2: the fraction of a budget owed to a connection of `weight` among
/// connections weighing `total` together (nothing when nobody has weight).
pub(crate) fn share(weight: f64, total: f64) -> f64 {
    if total > 0.0 {
        weight / total
    } else {
        0.0
    }
}

/// What a connection may bank when its driver's budget source hands over at
/// most `burst` bytes a pass: its share of one burst, plus the frame it is
/// waiting to send. A connection that sends whatever its deficit covers
/// never meets this cap — it carries less than a frame into a pass and is
/// granted at most `burst · share` — so the cap costs a backlogged
/// connection nothing, however long its frames are next to the burst; it
/// binds only on one that is stalled, which then holds a burst's worth of
/// its share and no more.
pub(crate) fn bank_cap(burst: f64, share: f64, frame_len: f64) -> f64 {
    burst * share + frame_len
}

/// Per-connection deficits of one serving peer (see module docs).
#[derive(Debug, Default)]
pub(crate) struct ServePass {
    deficits: HashMap<u64, f64>,
}

impl ServePass {
    /// Credits `bytes` to `conn`, banking at most `cap` in total. Returns
    /// the overflow: the bytes (granted now or banked earlier under a
    /// larger cap) that the connection may not keep.
    pub fn grant(&mut self, conn: u64, bytes: f64, cap: f64) -> f64 {
        let deficit = self.deficits.entry(conn).or_insert(0.0);
        let owed = *deficit + bytes;
        *deficit = owed.min(cap);
        owed - *deficit
    }

    /// Debits a frame of `frame_len` bytes iff `conn`'s deficit covers it.
    pub fn try_send(&mut self, conn: u64, frame_len: f64) -> bool {
        match self.deficits.get_mut(&conn) {
            Some(deficit) if *deficit >= frame_len => {
                *deficit -= frame_len;
                true
            }
            _ => false,
        }
    }

    /// Forgets every connection `keep` rejects, returning what they had
    /// banked together.
    pub fn retain(&mut self, keep: impl Fn(u64) -> bool) -> f64 {
        let mut released = 0.0;
        self.deficits.retain(|&conn, deficit| {
            let kept = keep(conn);
            if !kept {
                released += *deficit;
            }
            kept
        });
        released
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl ServePass {
        /// Bytes `conn` has been granted and not sent.
        pub(crate) fn deficit(&self, conn: u64) -> f64 {
            self.deficits.get(&conn).copied().unwrap_or(0.0)
        }

        /// Connections holding a deficit entry.
        fn len(&self) -> usize {
            self.deficits.len()
        }
    }

    const KIB: f64 = 1024.0;
    /// The model link: 1 MB/s with the reactor's tenth-of-a-second burst,
    /// so the longest generated frames (128 KiB) are longer than a burst.
    const RATE: f64 = 1e6;
    const BURST: f64 = 1e5;

    #[test]
    fn grant_banks_up_to_the_cap_and_hands_back_the_rest() {
        let mut engine = ServePass::default();
        assert_eq!(engine.grant(7, 300.0, 1_000.0), 0.0);
        assert_eq!(engine.grant(7, 900.0, 1_000.0), 200.0);
        assert_eq!(engine.deficit(7), 1_000.0);
        // A cap that shrank (a connection joined, the share fell) hands
        // back what was banked under the larger one.
        assert_eq!(engine.grant(7, 0.0, 400.0), 600.0);
        assert_eq!(engine.deficit(7), 400.0);
        assert_eq!(engine.deficit(8), 0.0, "unknown connections hold nothing");
    }

    #[test]
    fn a_frame_goes_out_only_when_covered_and_the_remainder_carries() {
        let mut engine = ServePass::default();
        assert!(!engine.try_send(1, 100.0), "nothing granted yet");
        engine.grant(1, 250.0, 1_000.0);
        assert!(engine.try_send(1, 100.0));
        assert!(engine.try_send(1, 100.0));
        assert!(!engine.try_send(1, 100.0), "50 left: not a whole frame");
        assert_eq!(engine.deficit(1), 50.0, "never negative, never lost");
        engine.grant(1, 50.0, 1_000.0);
        assert!(engine.try_send(1, 100.0), "the carry completes the frame");
        assert_eq!(engine.deficit(1), 0.0);
    }

    #[test]
    fn forgotten_connections_drop_their_bank_and_say_how_much() {
        let mut engine = ServePass::default();
        for conn in 1..=4 {
            engine.grant(conn, 100.0 * conn as f64, 1_000.0);
        }
        assert_eq!(engine.retain(|conn| conn != 2), 200.0);
        assert_eq!(engine.retain(|conn| conn != 2), 0.0);
        assert!(!engine.try_send(2, 1.0), "a forgotten bank buys nothing");
        assert_eq!(engine.retain(|conn| conn == 3), 100.0 + 400.0);
        assert_eq!(engine.len(), 1);
        assert_eq!(engine.deficit(3), 300.0);
    }

    /// One connection of the model link: a cyclic list of frame lengths
    /// standing in for its stored messages, a window that is open or not,
    /// and how many frames it still has to send.
    struct Conn {
        id: u64,
        weight: f64,
        frames: Vec<f64>,
        cursor: usize,
        open: bool,
        stock: usize,
        sent: f64,
    }

    impl Conn {
        fn backlogged(id: u64, weight: u32, frames_kib: &[u32]) -> Conn {
            Conn {
                id,
                weight: weight as f64,
                frames: frames_kib.iter().map(|&f| f as f64 * KIB).collect(),
                cursor: 0,
                open: true,
                stock: usize::MAX,
                sent: 0.0,
            }
        }

        fn next_len(&self) -> f64 {
            self.frames[self.cursor % self.frames.len()]
        }

        fn max_frame(&self) -> f64 {
            self.frames.iter().copied().fold(0.0, f64::max)
        }
    }

    /// The reactor's serve pass with its collaborators replaced by
    /// numbers: a `RATE`/`BURST` bucket that starts full, is drained into
    /// the engine every pass and takes the refund back.
    struct Link {
        engine: ServePass,
        conns: Vec<Conn>,
        tokens: f64,
        /// Every token the bucket took in: `BURST + RATE · t` less
        /// `spilled`, what it had no room for.
        accrued: f64,
        spilled: f64,
    }

    impl Link {
        fn new(conns: Vec<Conn>) -> Link {
            Link {
                engine: ServePass::default(),
                conns,
                tokens: BURST,
                accrued: BURST,
                spilled: 0.0,
            }
        }

        /// One pass `dt` seconds after the last; returns the budget it
        /// drained and the refund it put back.
        fn pass(&mut self, dt: f64) -> (f64, f64) {
            let room = BURST - self.tokens;
            let fresh = (dt * RATE).min(room);
            self.spilled += dt * RATE - fresh;
            self.accrued += fresh;
            let budget = self.tokens + fresh;
            let total: f64 = self.active().map(|c| c.weight).sum();
            let mut refund = 0.0;
            for c in self.conns.iter_mut().filter(|c| c.stock > 0) {
                let share = share(c.weight, total);
                let cap = bank_cap(BURST, share, c.next_len());
                refund += self.engine.grant(c.id, budget * share, cap);
                while c.open && c.stock > 0 && self.engine.try_send(c.id, c.next_len()) {
                    c.sent += c.next_len();
                    c.cursor += 1;
                    c.stock -= 1;
                }
            }
            let conns = &self.conns;
            refund += self
                .engine
                .retain(|id| conns.iter().any(|c| c.id == id && c.stock > 0));
            // A refund can hold banks from earlier passes; what does not fit
            // in the bucket is gone, as what arrives while it is full.
            self.tokens = refund.min(BURST);
            self.spilled += refund - self.tokens;
            self.accrued -= refund - self.tokens;
            (budget, refund)
        }

        fn active(&self) -> impl Iterator<Item = &Conn> {
            self.conns.iter().filter(|c| c.stock > 0)
        }

        fn sent(&self) -> f64 {
            self.conns.iter().map(|c| c.sent).sum()
        }

        fn banked(&self) -> f64 {
            self.conns.iter().map(|c| self.engine.deficit(c.id)).sum()
        }
    }

    fn arb_conns() -> impl Strategy<Value = Vec<Conn>> {
        proptest::collection::vec(
            (1u32..=100, proptest::collection::vec(1u32..=128, 1..4)),
            2..=8,
        )
        .prop_map(|rows| {
            rows.iter()
                .enumerate()
                .map(|(i, (weight, frames))| Conn::backlogged(i as u64, *weight, frames))
                .collect()
        })
    }

    /// Gaps between passes from 1 µs to 100 ms, spread evenly over the
    /// decades: budgets from one byte to a whole burst.
    fn arb_gaps(passes: usize) -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec(
            (0i32..5, 1.0f64..10.0).prop_map(|(decade, m)| 1e-6 * 10f64.powi(decade) * m),
            passes..=passes,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Eq. 2 over sent bytes: a connection that always has a frame to
        /// send and a window to send it in has sent its share of every
        /// token the link ever drained, less the part of a frame it is
        /// still saving for — however small a pass's budget is next to a
        /// frame, and however long a frame is next to the burst.
        #[test]
        fn backlogged_connections_send_their_weight_share(
            conns in arb_conns(),
            gaps in arb_gaps(1500),
        ) {
            let mut link = Link::new(conns);
            let total_weight: f64 = link.conns.iter().map(|c| c.weight).sum();
            let mut drained = 0.0;
            for dt in gaps {
                let (budget, refund) = link.pass(dt);
                prop_assert_eq!(refund, 0.0, "no cap binds on a sending connection");
                drained += budget;
                let slack = 1e-9 * drained;
                for c in &link.conns {
                    let owed = drained * c.weight / total_weight;
                    prop_assert!(c.sent <= owed + slack, "conn {} overdrew", c.id);
                    prop_assert!(
                        c.sent > owed - c.max_frame() - slack,
                        "conn {} is a frame or more short: sent {} of {owed}", c.id, c.sent
                    );
                }
            }
        }

        /// Nothing is sent that the bucket did not hold first, whatever
        /// the windows and stocks do: bytes by time `t` never exceed
        /// `RATE · t + BURST`, and every token is either sent, banked
        /// under its cap, or back in the bucket.
        #[test]
        fn no_token_is_minted_or_lost(
            conns in arb_conns(),
            gaps in arb_gaps(800),
            flips in proptest::collection::vec((0usize..8, 0u32..4), 800..=800),
            stocks in proptest::collection::vec(1usize..40, 8..=8),
        ) {
            let mut link = Link::new(conns);
            for (c, &stock) in link.conns.iter_mut().zip(&stocks).skip(1).step_by(2) {
                c.stock = stock;
            }
            for (dt, (who, flip)) in gaps.into_iter().zip(flips) {
                let n = link.conns.len();
                if flip == 0 {
                    link.conns[who % n].open ^= true;
                }
                link.pass(dt);
                let held = link.sent() + link.banked() + link.tokens;
                prop_assert!((held - link.accrued).abs() <= 1e-9 * link.accrued);
                prop_assert!(link.tokens <= BURST + 1e-6);
                let total: f64 = link.active().map(|c| c.weight).sum();
                for c in link.active() {
                    let cap = bank_cap(BURST, share(c.weight, total), c.next_len());
                    prop_assert!(link.engine.deficit(c.id) <= cap + 1e-6);
                }
                for c in link.conns.iter().filter(|c| c.stock == 0) {
                    prop_assert_eq!(link.engine.deficit(c.id), 0.0, "a finished connection keeps no bank");
                }
            }
        }

        /// Work conservation (Theorem 1's "plus a share of idle
        /// capacity"): with one connection's window shut, the others take
        /// the whole link — no token spills from a full bucket — and the
        /// shut one holds its cap and no more, which is also all it can
        /// burst when the window reopens. Holds while a pass's accrual
        /// fits in the open connections' share of a burst (a refund is
        /// granted again by weight the next pass, so the open ones see
        /// their share of it): the reactor's 1 ms tick against its 100 ms
        /// burst, down to an open share of one in a hundred.
        #[test]
        fn a_shut_window_yields_the_link_and_keeps_a_capped_bank(
            conns in arb_conns(),
            gaps in arb_gaps(3000),
            shut in 0usize..8,
        ) {
            let mut link = Link::new(conns);
            let shut = shut % link.conns.len();
            link.conns[shut].open = false;
            let total: f64 = link.conns.iter().map(|c| c.weight).sum();
            let shut_share = share(link.conns[shut].weight, total);
            let cap = bank_cap(BURST, shut_share, link.conns[shut].next_len());
            // The bucket starts full: let the first pass empty it.
            link.pass(0.0);
            let mut elapsed = 0.0;
            for dt in gaps {
                let dt = dt.min(BURST * (1.0 - shut_share) / RATE);
                elapsed += dt;
                link.pass(dt);
                prop_assert!(link.spilled <= 1e-6, "the link idled: {} spilled", link.spilled);
                prop_assert!(link.engine.deficit(shut as u64) <= cap + 1e-6);
            }
            let frames: f64 = link.conns.iter().map(Conn::max_frame).sum();
            prop_assert_eq!(link.conns[shut].sent, 0.0);
            // All that is not yet sent is in plain sight: one burst in the
            // bucket at most, the capped bank, a part-frame per connection.
            prop_assert!(link.sent() >= RATE * elapsed - cap - frames - 1e-6);
            link.conns[shut].open = true;
            let before = link.conns[shut].sent;
            let (budget, _) = link.pass(1e-6);
            prop_assert!(link.conns[shut].sent - before <= cap + budget * shut_share + 1e-6);
        }
    }

    #[test]
    fn a_frame_longer_than_the_burst_still_goes_out_at_the_right_rate() {
        // A 1:100 connection with 128 KiB frames: its share of a burst is
        // under 1 KB, a hundred times less than one frame.
        let mut link = Link::new(vec![
            Conn::backlogged(0, 1, &[128]),
            Conn::backlogged(1, 100, &[8]),
        ]);
        let secs = 30.0;
        for _ in 0..(secs * 1e3) as usize {
            link.pass(1e-3);
        }
        let owed = (BURST + RATE * secs) / 101.0;
        let light = &link.conns[0];
        assert!(light.sent >= 128.0 * KIB, "the long frame was never sent");
        assert!(light.sent <= owed && light.sent > owed - 128.0 * KIB);
    }

    #[test]
    fn a_connection_out_of_stock_leaves_its_bank_to_the_others() {
        let mut link = Link::new(vec![
            Conn::backlogged(0, 3, &[8]),
            Conn::backlogged(1, 1, &[8]),
        ]);
        link.conns[0].stock = 10;
        link.pass(0.0);
        let secs = 2.0;
        for _ in 0..(secs * 1e3) as usize {
            link.pass(1e-3);
        }
        assert_eq!(link.conns[0].sent, 10.0 * 8.0 * KIB);
        assert_eq!(link.engine.len(), 1, "the finished connection is forgotten");
        // The survivor is alone on the link from then on: everything the
        // bucket accrued went out, bar the frame it is saving for.
        assert!(link.spilled <= 1e-6);
        assert!(link.sent() > BURST + RATE * secs - 8.0 * KIB - 1e-6);
    }
}
