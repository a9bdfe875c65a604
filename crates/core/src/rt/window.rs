//! Adaptive per-connection in-flight windows for the event-loop reactor.
//!
//! Each serving connection is bounded by an [`AdaptiveWindow`]: at most
//! `size` frames may be in flight (submitted to the transport but not yet
//! retired). The window follows classic AIMD driven by the signals the
//! obs/health layer already measures — no new acknowledgement machinery:
//!
//! * **Additive increase** — a batch retired with no loss signal since its
//!   submission widens the window by [`WindowConfig::additive_step`].
//! * **Multiplicative decrease** — an observed transport drop, a
//!   digest-rejected message, or replacement round-trip time inflating past
//!   [`WindowConfig::rtt_inflation`]× the smoothed floor halves the window
//!   (floored at `min_frames`).
//! * **Close / reopen** — a quarantine verdict from the health engine
//!   closes the window outright (`available() == 0`); when the timed ban
//!   lapses the window reopens at `min_frames` and must re-earn its depth,
//!   the congestion-control analogue of slow start after an outage.
//!
//! RTT samples feed a small EWMA ladder (the adaptation pattern of
//! per-provider link profiles): the smoothed estimate rides an
//! `ewma` while the lowest sample seen anchors the inflation baseline, so
//! a link that degrades gradually still trips the narrow path.

use std::time::Duration;

/// Tuning knobs for one [`AdaptiveWindow`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowConfig {
    /// Floor: the window never narrows below this many frames, so a peer
    /// in the penalty box still trickles instead of starving outright.
    pub min_frames: u32,
    /// Ceiling: the window never widens past this many frames; also the
    /// per-peer contribution to [`BufferPool`](super::BufferPool) sizing.
    pub max_frames: u32,
    /// Frames added per clean batch retirement (additive increase).
    pub additive_step: u32,
    /// Multiplier applied on loss/rejection/RTT inflation, in `(0, 1)`
    /// (multiplicative decrease; 0.5 is the classic halving).
    pub decrease_factor: f64,
    /// EWMA smoothing factor for RTT samples, in `(0, 1]`.
    pub rtt_alpha: f64,
    /// A smoothed RTT above `rtt_inflation ×` the observed floor counts as
    /// congestion and narrows the window.
    pub rtt_inflation: f64,
    /// Frames submitted longer ago than this retire as clean completions
    /// when no loss signal arrived in the meantime (the transport is
    /// datagram-like and unacknowledged, so age is the completion proxy;
    /// kept well above the reactor tick).
    pub retire_after: Duration,
}

impl Default for WindowConfig {
    fn default() -> WindowConfig {
        WindowConfig {
            min_frames: 2,
            max_frames: 64,
            additive_step: 1,
            decrease_factor: 0.5,
            rtt_alpha: 0.25,
            rtt_inflation: 2.0,
            retire_after: Duration::from_millis(2),
        }
    }
}

impl WindowConfig {
    /// Panics unless the knobs are internally consistent.
    pub fn validate(&self) {
        assert!(self.min_frames >= 1, "min_frames must be at least 1");
        assert!(
            self.max_frames >= self.min_frames,
            "max_frames below min_frames"
        );
        assert!(self.additive_step >= 1, "additive_step must be at least 1");
        assert!(
            self.decrease_factor > 0.0 && self.decrease_factor < 1.0,
            "decrease_factor in (0, 1)"
        );
        assert!(
            self.rtt_alpha > 0.0 && self.rtt_alpha <= 1.0,
            "rtt_alpha in (0, 1]"
        );
        assert!(self.rtt_inflation > 1.0, "rtt_inflation must exceed 1");
    }
}

/// A bounded in-flight window with AIMD adaptation (see module docs).
#[derive(Debug, Clone)]
pub struct AdaptiveWindow {
    cfg: WindowConfig,
    size: u32,
    in_flight: u32,
    closed: bool,
    rtt_ewma_us: Option<f64>,
    rtt_floor_us: Option<f64>,
    /// Retirements that exceeded the in-flight count (a double-retired
    /// completion batch). Previously masked by `saturating_sub`; now
    /// counted and surfaced as `rt.window.retire_underflow`.
    retire_underflows: u64,
}

impl AdaptiveWindow {
    /// A window starting at `min_frames` (depth is earned, not granted).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is inconsistent (see [`WindowConfig::validate`]).
    pub fn new(cfg: WindowConfig) -> AdaptiveWindow {
        cfg.validate();
        AdaptiveWindow {
            size: cfg.min_frames,
            cfg,
            in_flight: 0,
            closed: false,
            rtt_ewma_us: None,
            rtt_floor_us: None,
            retire_underflows: 0,
        }
    }

    /// Current window size in frames.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Frames currently in flight (submitted, not yet retired).
    pub fn in_flight(&self) -> u32 {
        self.in_flight
    }

    /// Frames that may be submitted right now: `size - in_flight`, or zero
    /// while the window is closed. A zero here is the backpressure signal —
    /// the producer leaves its token-bucket budget unspent and yields.
    pub fn available(&self) -> u32 {
        if self.closed {
            0
        } else {
            self.size.saturating_sub(self.in_flight)
        }
    }

    /// Whether a quarantine verdict has closed the window.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Smoothed replacement round-trip estimate, if any sample arrived.
    pub fn rtt_ewma_us(&self) -> Option<f64> {
        self.rtt_ewma_us
    }

    /// Retirements that tried to retire more frames than were in flight
    /// (a double-retired completion batch — an accounting bug upstream).
    pub fn retire_underflows(&self) -> u64 {
        self.retire_underflows
    }

    /// Records `n` frames handed to the transport.
    pub fn submit(&mut self, n: u32) {
        self.in_flight = self.in_flight.saturating_add(n);
    }

    /// Retires `n` in-flight frames without adapting (used when a loss
    /// signal already accounted for the batch).
    ///
    /// Retiring more than is in flight means a completion batch was
    /// counted twice. The old `saturating_sub` silently masked that; the
    /// window now tallies the mismatch (see
    /// [`retire_underflows`](Self::retire_underflows)) so the reactor can
    /// surface it, and asserts in debug builds so tests catch the
    /// double-retire at its source.
    pub fn retire(&mut self, n: u32) {
        if n > self.in_flight {
            debug_assert!(
                false,
                "retire({n}) exceeds in-flight {} — completion batch retired twice",
                self.in_flight
            );
            self.retire_underflows += 1;
            self.in_flight = 0;
        } else {
            self.in_flight -= n;
        }
    }

    /// Retires `n` frames as a clean completion: additive increase.
    pub fn retire_clean(&mut self, n: u32) {
        self.retire(n);
        if !self.closed && self.size < self.cfg.max_frames {
            self.size = (self.size + self.cfg.additive_step).min(self.cfg.max_frames);
        }
    }

    fn decrease(&mut self) {
        let next = (self.size as f64 * self.cfg.decrease_factor).floor() as u32;
        // The floored product of a small window and a small factor lands
        // at 0; the clamp keeps every decrease at or above the configured
        // floor so a penalized peer trickles instead of starving.
        self.size = next.max(self.cfg.min_frames);
    }

    /// An observed transport loss attributed to this connection:
    /// multiplicative decrease. Call once per loss *burst* (the reactor
    /// batches the signals it drains each cycle), so a single noisy pass
    /// cannot collapse the window straight to the floor.
    pub fn on_loss(&mut self) {
        self.decrease();
    }

    /// A digest-rejected (corrupted or polluted) message attributed to this
    /// connection: multiplicative decrease.
    pub fn on_reject(&mut self) {
        self.decrease();
    }

    /// Feeds a replacement round-trip sample (microseconds). Returns `true`
    /// — after also narrowing — when the smoothed estimate inflated past
    /// `rtt_inflation ×` the observed floor.
    pub fn observe_rtt(&mut self, rtt_us: f64) -> bool {
        if !rtt_us.is_finite() || rtt_us < 0.0 {
            return false;
        }
        let ewma = match self.rtt_ewma_us {
            Some(prev) => prev + self.cfg.rtt_alpha * (rtt_us - prev),
            None => rtt_us,
        };
        self.rtt_ewma_us = Some(ewma);
        let floor = match self.rtt_floor_us {
            Some(f) => f.min(rtt_us),
            None => rtt_us,
        };
        self.rtt_floor_us = Some(floor);
        if ewma > floor * self.cfg.rtt_inflation && floor > 0.0 {
            self.decrease();
            true
        } else {
            false
        }
    }

    /// Closes the window (quarantine verdict): nothing more may be
    /// submitted until [`reopen`](Self::reopen).
    pub fn close(&mut self) {
        self.closed = true;
    }

    /// Reopens a closed window at `min_frames` — slow restart: a healed
    /// peer re-earns its depth instead of resuming a stale deep window.
    pub fn reopen(&mut self) {
        if self.closed {
            self.closed = false;
            self.size = self.cfg.min_frames;
            self.in_flight = 0;
        }
    }

    /// The frames-submitted age beyond which a batch retires as clean.
    pub fn retire_after(&self) -> Duration {
        // An inflated RTT estimate stretches the retirement horizon so a
        // slow link is not credited with early clean completions.
        match self.rtt_ewma_us {
            Some(us) => self.cfg.retire_after.max(Duration::from_micros(us as u64)),
            None => self.cfg.retire_after,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn starts_at_floor_and_widens_on_clean_retirements() {
        let mut w = AdaptiveWindow::new(WindowConfig::default());
        assert_eq!(w.size(), 2);
        w.submit(2);
        assert_eq!(w.available(), 0, "window full: producer must yield");
        w.retire_clean(2);
        assert_eq!(w.size(), 3, "clean batch widens additively");
        assert_eq!(w.available(), 3);
    }

    #[test]
    fn loss_halves_and_floors() {
        let mut w = AdaptiveWindow::new(WindowConfig::default());
        for _ in 0..30 {
            w.retire_clean(0);
        }
        assert_eq!(w.size(), 32);
        w.on_loss();
        assert_eq!(w.size(), 16, "multiplicative decrease");
        for _ in 0..10 {
            w.on_reject();
        }
        assert_eq!(w.size(), 2, "never underflows min_frames");
    }

    #[test]
    fn ceiling_is_respected() {
        let mut w = AdaptiveWindow::new(WindowConfig {
            max_frames: 8,
            ..WindowConfig::default()
        });
        for _ in 0..100 {
            w.retire_clean(0);
        }
        assert_eq!(w.size(), 8, "never exceeds max_frames");
    }

    #[test]
    fn close_blocks_and_reopen_slow_restarts() {
        let mut w = AdaptiveWindow::new(WindowConfig::default());
        for _ in 0..10 {
            w.retire_clean(0);
        }
        assert_eq!(w.size(), 12);
        w.close();
        assert_eq!(w.available(), 0, "closed window backpressures fully");
        w.retire_clean(0);
        assert_eq!(w.size(), 12, "no widening while closed");
        w.reopen();
        assert_eq!(w.size(), 2, "reopen restarts from the floor");
        assert!(!w.is_closed());
    }

    #[test]
    fn rtt_inflation_narrows() {
        let mut w = AdaptiveWindow::new(WindowConfig::default());
        for _ in 0..20 {
            w.retire_clean(0);
        }
        let wide = w.size();
        assert!(!w.observe_rtt(100.0), "first sample sets the floor");
        assert!(!w.observe_rtt(110.0), "mild jitter tolerated");
        // Sustained inflation drags the EWMA past 2x the floor.
        let mut tripped = false;
        for _ in 0..20 {
            tripped |= w.observe_rtt(400.0);
        }
        assert!(tripped, "sustained inflation trips the narrow path");
        assert!(w.size() < wide);
        assert!(w.retire_after() >= Duration::from_micros(200));
    }

    #[test]
    fn decrease_never_lands_below_floor() {
        // Even an aggressive factor from the floor itself stays clamped:
        // floor(2 * 0.1) = 0 would otherwise zero the window for good.
        let mut w = AdaptiveWindow::new(WindowConfig {
            decrease_factor: 0.1,
            ..WindowConfig::default()
        });
        for _ in 0..5 {
            w.on_loss();
            assert_eq!(w.size(), 2, "decrease clamped at min_frames");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "retired twice")]
    fn double_retire_asserts_in_debug() {
        let mut w = AdaptiveWindow::new(WindowConfig::default());
        w.submit(2);
        w.retire(2);
        w.retire(1); // nothing left in flight: double-retire
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn double_retire_counts_in_release() {
        let mut w = AdaptiveWindow::new(WindowConfig::default());
        w.submit(2);
        w.retire(2);
        assert_eq!(w.retire_underflows(), 0);
        w.retire(1);
        assert_eq!(w.retire_underflows(), 1, "mismatch surfaced, not masked");
        assert_eq!(w.in_flight(), 0);
        w.submit(3);
        w.retire(5);
        assert_eq!(w.retire_underflows(), 2);
        assert_eq!(w.in_flight(), 0, "in-flight clamped, never wraps");
    }

    #[test]
    fn exact_retire_does_not_count_underflow() {
        let mut w = AdaptiveWindow::new(WindowConfig::default());
        w.submit(2);
        w.retire(1);
        w.retire_clean(1);
        assert_eq!(w.retire_underflows(), 0);
        assert_eq!(w.in_flight(), 0);
    }

    #[test]
    #[should_panic(expected = "max_frames below min_frames")]
    fn inconsistent_config_panics() {
        AdaptiveWindow::new(WindowConfig {
            min_frames: 8,
            max_frames: 4,
            ..WindowConfig::default()
        });
    }

    /// A random adaptation signal for the property tests.
    #[derive(Debug, Clone, Copy)]
    enum Sig {
        Submit(u32),
        RetireClean(u32),
        Retire(u32),
        Loss,
        Reject,
        Rtt(f64),
        Close,
        Reopen,
    }

    fn arb_sig() -> impl Strategy<Value = Sig> {
        (0u32..8, 0u32..16, 0.0f64..1e6).prop_map(|(kind, n, rtt)| match kind {
            0 => Sig::Submit(n),
            1 => Sig::RetireClean(n),
            2 => Sig::Retire(n),
            3 => Sig::Loss,
            4 => Sig::Reject,
            5 => Sig::Rtt(rtt),
            6 => Sig::Close,
            _ => Sig::Reopen,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Under any signal sequence the window stays inside its bounds
        /// and `available` never exceeds `size`.
        #[test]
        fn bounds_hold_under_any_signal_sequence(
            sigs in proptest::collection::vec(arb_sig(), 1..200)
        ) {
            let cfg = WindowConfig::default();
            let mut w = AdaptiveWindow::new(cfg);
            for sig in sigs {
                match sig {
                    Sig::Submit(n) => w.submit(n.min(w.available())),
                    // Retirement is clamped to what is actually in flight:
                    // over-retiring is an upstream accounting bug that the
                    // window now debug-asserts on (pinned separately).
                    Sig::RetireClean(n) => w.retire_clean(n.min(w.in_flight())),
                    Sig::Retire(n) => w.retire(n.min(w.in_flight())),
                    Sig::Loss => w.on_loss(),
                    Sig::Reject => w.on_reject(),
                    Sig::Rtt(us) => { w.observe_rtt(us); }
                    Sig::Close => w.close(),
                    Sig::Reopen => w.reopen(),
                }
                prop_assert!(w.size() >= cfg.min_frames, "underflow: {}", w.size());
                prop_assert!(w.size() <= cfg.max_frames, "overflow: {}", w.size());
                prop_assert!(w.available() <= w.size());
                if w.is_closed() {
                    prop_assert_eq!(w.available(), 0);
                }
            }
        }

        /// On a clean link (only submissions and clean retirements) the
        /// window widens monotonically until it parks at the ceiling.
        #[test]
        fn clean_link_widens_monotonically(batches in proptest::collection::vec(1u32..8, 1..100)) {
            let cfg = WindowConfig::default();
            let mut w = AdaptiveWindow::new(cfg);
            let mut prev = w.size();
            for n in batches {
                let take = n.min(w.available());
                w.submit(take);
                w.retire_clean(take);
                prop_assert!(w.size() >= prev, "narrowed on a clean link");
                prop_assert!(w.size() <= cfg.max_frames);
                prev = w.size();
            }
        }

        /// A loss burst halves the window (down to the floor) from
        /// whatever depth the clean phase earned.
        #[test]
        fn loss_burst_halves(clean in 0usize..40, bursts in 1usize..6) {
            let cfg = WindowConfig::default();
            let mut w = AdaptiveWindow::new(cfg);
            for _ in 0..clean {
                w.retire_clean(0);
            }
            let mut expect = w.size();
            for _ in 0..bursts {
                w.on_loss();
                expect = ((expect as f64 * cfg.decrease_factor).floor() as u32)
                    .max(cfg.min_frames);
                prop_assert_eq!(w.size(), expect);
            }
        }
    }
}
