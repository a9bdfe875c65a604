//! Per-connection in-flight windows for the event-loop reactor.
//!
//! Each serving connection is bounded by an [`AdaptiveWindow`]: at most
//! `size` frames may be in flight (submitted to the transport but not yet
//! retired). The window is a ramp, fed only by what the serving reactor
//! itself sees — it reads nothing from the obs layer, so a traced and an
//! untraced run pace their links identically. A batch older than
//! [`WindowConfig::retire_after`] retires clean and widens the window by
//! [`WindowConfig::additive_step`], from `min_frames` up to `max_frames`;
//! [`restart`](AdaptiveWindow::restart) sends it back to the floor, where
//! it must re-earn its depth.
//!
//! The floor is load-bearing: the ramp is what bounds a client's early
//! backlog (a window started at its ceiling serves faster but raises peak
//! memory beyond the benchmark's bound; EXPERIMENTS.md).
//!
//! Quarantine is not the window's business: the reactor's slot gate
//! serves a banned peer nothing, and restarts its windows when the ban
//! lapses. The transport is unacknowledged, so age is the completion
//! proxy; losses are repaired end to end by the downloader's recovery
//! ladder.

use std::time::Duration;

/// Tuning knobs for one [`AdaptiveWindow`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowConfig {
    /// Floor: a new or restarted window starts at this many frames.
    pub min_frames: u32,
    /// Ceiling: the window never widens past this many frames; also the
    /// per-peer contribution to [`BufferPool`](super::BufferPool) sizing.
    pub max_frames: u32,
    /// Frames added per clean batch retirement.
    pub additive_step: u32,
    /// Frames submitted longer ago than this retire as clean completions
    /// (the transport is datagram-like and unacknowledged, so age is the
    /// completion proxy; kept well above the reactor tick).
    pub retire_after: Duration,
}

impl Default for WindowConfig {
    fn default() -> WindowConfig {
        WindowConfig {
            min_frames: 2,
            max_frames: 64,
            additive_step: 1,
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
    }
}

/// A bounded in-flight window that ramps on clean retirements (see module
/// docs).
#[derive(Debug, Clone)]
pub struct AdaptiveWindow {
    cfg: WindowConfig,
    size: u32,
    in_flight: u32,
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

    /// Frames that may be submitted right now: `size - in_flight`. A zero
    /// here is the backpressure signal — the producer leaves its
    /// token-bucket budget unspent and yields.
    pub fn available(&self) -> u32 {
        self.size.saturating_sub(self.in_flight)
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

    /// Retires `n` in-flight frames without widening.
    ///
    /// Retiring more than is in flight means a completion batch was
    /// counted twice. The old `saturating_sub` silently masked that; the
    /// window now tallies the mismatch (see
    /// [`retire_underflows`](Self::retire_underflows)) so the reactor can
    /// surface it, and asserts in debug builds so tests catch the
    /// double-retire at its source.
    fn retire(&mut self, n: u32) {
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
        if self.size < self.cfg.max_frames {
            self.size = (self.size + self.cfg.additive_step).min(self.cfg.max_frames);
        }
    }

    /// Returns the window to `min_frames` with nothing in flight — slow
    /// restart: a peer whose ban lapsed re-earns its depth instead of
    /// resuming a stale deep window.
    pub fn restart(&mut self) {
        self.size = self.cfg.min_frames;
        self.in_flight = 0;
    }

    /// The frames-submitted age beyond which a batch retires as clean.
    pub fn retire_after(&self) -> Duration {
        self.cfg.retire_after
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
    fn restart_returns_to_the_floor() {
        let mut w = AdaptiveWindow::new(WindowConfig::default());
        for _ in 0..10 {
            w.retire_clean(0);
        }
        assert_eq!(w.size(), 12);
        w.submit(5);
        w.restart();
        assert_eq!(w.size(), 2, "restart returns to the floor");
        assert_eq!(w.in_flight(), 0, "and forgets what was in flight");
        assert_eq!(w.available(), 2);
        w.retire_clean(0);
        assert_eq!(w.size(), 3, "depth is re-earned on the ramp");
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

    /// A random window operation for the property tests.
    #[derive(Debug, Clone, Copy)]
    enum Sig {
        Submit(u32),
        RetireClean(u32),
        Retire(u32),
        Restart,
    }

    fn arb_sig() -> impl Strategy<Value = Sig> {
        (0u32..4, 0u32..16).prop_map(|(kind, n)| match kind {
            0 => Sig::Submit(n),
            1 => Sig::RetireClean(n),
            2 => Sig::Retire(n),
            _ => Sig::Restart,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Under any operation sequence the window stays inside its bounds
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
                    Sig::Restart => w.restart(),
                }
                prop_assert!(w.size() >= cfg.min_frames, "underflow: {}", w.size());
                prop_assert!(w.size() <= cfg.max_frames, "overflow: {}", w.size());
                prop_assert!(w.available() <= w.size());
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
    }
}
