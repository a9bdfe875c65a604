//! Health analytics over the obs event log: a report, read by no policy.
//!
//! [`replay`] folds a log into a [`HealthReport`]: every event is
//! observed, and each `health`/`window` heartbeat the runtimes write
//! closes a window, running a bank of per-peer detectors over what the
//! window accumulated:
//!
//! * **EWMA z-score detectors** keep an exponentially-weighted mean and
//!   variance per `(peer, signal)` and raise an alert when a window's value
//!   sits more than `Z_THRESHOLD` (4) deviations above its own baseline.
//!   Covered signals: digest-rejection rate, drop rate, corruption rate,
//!   heal retry rate, replacement RTT, and Eq.-2 credit-balance drift.
//! * A **Jain-fairness floor detector** computes Jain's index over the
//!   per-connection `slot_share` budgets seen in the window and alerts on
//!   the largest-share peer when the index falls below `JAIN_FLOOR` (0.55).
//!
//! Every alert subtracts from the peer's 0–100 [`HealthScore`]; clean
//! active windows slowly restore it. The detectors' settings are
//! constants, so the report is a pure, deterministic function of the log
//! alone — no clocks, no randomness, nothing to set — the same whoever
//! folds it, whenever: `/health`, `asymshare trace` and `asymshare top`
//! all compute it from the log rather than keep it.
//!
//! The Byzantine defense is not here: each client convicts and bans its
//! own peers from the evidence of its own fetch (`asymshare::fetch`,
//! DESIGN.md §11).
//!
//! [`HealthScore`]: PeerHealth::score

use crate::{Event, Value};
use std::collections::BTreeMap;

// The detector bank's settings. They are deliberately conservative: a
// detector should page on a misbehaving peer, not on an honest peer having
// a bursty second.

/// EWMA smoothing factor in `(0, 1]` for baselines and variance.
const EWMA_ALPHA: f64 = 0.25;
/// Alert when a window value exceeds `baseline + Z_THRESHOLD * std`.
const Z_THRESHOLD: f64 = 4.0;
/// Windows a `(peer, signal)` baseline must see before it may alert.
const WARMUP_WINDOWS: u32 = 4;
/// Jain-index floor; a window below it alerts on the largest consumer.
const JAIN_FLOOR: f64 = 0.55;
/// Windows with ≥2 share consumers before the Jain detector may alert.
const JAIN_WARMUP_WINDOWS: u32 = 4;
/// Scores at or above this are "healthy" (reports, `/health`).
const HEALTHY_SCORE: f64 = 70.0;
/// Score subtracted per alert.
const ALERT_PENALTY: f64 = 12.0;
/// Score restored per clean active window.
const RECOVERY_PER_WINDOW: f64 = 1.5;

/// The signals the EWMA detector bank watches, with their alert names and
/// absolute standard-deviation floors (a baseline that has only ever seen
/// zeros would otherwise alert on any nonzero value, however tiny).
const DETECTORS: &[(&str, f64)] = &[
    ("digest_reject_rate", 0.02),
    ("drop_rate", 0.03),
    ("corruption_rate", 0.02),
    ("retry_rate", 0.5),
    ("replacement_rtt_us", 10_000.0),
    ("credit_drift", 4096.0),
];

const D_REJECT: usize = 0;
const D_DROP: usize = 1;
const D_CORRUPT: usize = 2;
const D_RETRY: usize = 3;
const D_RTT: usize = 4;
const D_CREDIT: usize = 5;

/// Detector name used by the Jain floor alert.
const JAIN_DETECTOR: &str = "jain_fairness";

/// One raised alert: which peer, which detector.
#[derive(Debug, PartialEq)]
struct Alert {
    peer: u64,
    detector: &'static str,
}

/// EWMA mean/variance baseline with update-after-test semantics.
#[derive(Debug, Clone, Default)]
struct Baseline {
    mean: f64,
    var: f64,
    n: u32,
}

impl Baseline {
    /// Tests `x` against the current baseline, then folds `x` in. Returns
    /// `x`'s deviation `z` from the mean before, over a floored standard
    /// deviation; `None` while warming up.
    fn test_and_update(&mut self, x: f64, std_floor: f64) -> Option<f64> {
        let result = if self.n >= WARMUP_WINDOWS {
            let std = self.var.sqrt().max(std_floor).max(0.25 * self.mean.abs());
            Some((x - self.mean) / std)
        } else {
            None
        };
        if self.n == 0 {
            self.mean = x;
            self.var = 0.0;
        } else {
            let d = x - self.mean;
            self.mean += EWMA_ALPHA * d;
            self.var = (1.0 - EWMA_ALPHA) * (self.var + EWMA_ALPHA * d * d);
        }
        self.n = self.n.saturating_add(1);
        result
    }
}

/// Per-peer accumulators for the current window, cleared at every
/// [`HealthEngine::evaluate`].
#[derive(Debug, Clone, Default)]
struct Window {
    msgs: u64,
    rejects: u64,
    drops: u64,
    corruptions: u64,
    retries: u64,
    duplicates: u64,
    rtt_sum: f64,
    rtt_n: u64,
    credit_drift: Option<f64>,
}

impl Window {
    fn active(&self) -> bool {
        self.msgs
            + self.rejects
            + self.drops
            + self.corruptions
            + self.retries
            + self.duplicates
            + self.rtt_n
            > 0
            || self.credit_drift.is_some()
    }
}

/// Per-peer score state.
#[derive(Debug, Clone)]
struct ScoreState {
    score: f64,
    alerts: u64,
}

impl Default for ScoreState {
    fn default() -> ScoreState {
        ScoreState {
            score: 100.0,
            alerts: 0,
        }
    }
}

/// One peer's line in a [`HealthReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct PeerHealth {
    /// Peer id (sim participant index, rt peer address).
    pub peer: u64,
    /// 0–100 health score; 100 is pristine.
    pub score: f64,
    /// Alerts raised against this peer so far.
    pub alerts: u64,
    /// Whether the score clears the healthy band (70).
    pub healthy: bool,
}

/// The health of a log: every scored peer plus totals.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HealthReport {
    /// Per-peer state, peer ids ascending.
    pub peers: Vec<PeerHealth>,
    /// Evaluation windows processed.
    pub windows: u64,
    /// Alerts raised in total.
    pub total_alerts: u64,
}

impl HealthReport {
    /// Whether every scored peer is healthy (vacuously true when none).
    pub fn all_healthy(&self) -> bool {
        self.peers.iter().all(|p| p.healthy)
    }

    /// Serializes to one JSON object (used by the `/health` endpoint).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"status\": ");
        out.push_str(if self.all_healthy() {
            "\"ok\""
        } else {
            "\"sick\""
        });
        out.push_str(&format!(
            ", \"windows\": {}, \"alerts\": {}, \"peers\": [",
            self.windows, self.total_alerts
        ));
        for (i, p) in self.peers.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"peer\": {}, \"score\": {:.1}, \"alerts\": {}, \"healthy\": {}}}",
                p.peer, p.score, p.alerts, p.healthy
            ));
        }
        out.push_str("]}");
        out
    }
}

/// The streaming detector bank [`replay`] folds a log into. See the
/// module docs for the model; the engine is deterministic and clock-free.
#[derive(Debug, Default)]
struct HealthEngine {
    windows: BTreeMap<u64, Window>,
    /// Per-connection slot-share budgets seen this window, plus the serving
    /// peer each connection maps to (for alert attribution).
    shares: BTreeMap<u64, (f64, u64)>,
    baselines: BTreeMap<(u64, usize), Baseline>,
    jain_windows: u32,
    scores: BTreeMap<u64, ScoreState>,
    evaluations: u64,
    total_alerts: u64,
}

impl HealthEngine {
    fn field_u64(event: &Event, name: &str) -> Option<u64> {
        event
            .fields
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| match v {
                Value::U64(x) => Some(*x),
                Value::I64(x) if *x >= 0 => Some(*x as u64),
                _ => None,
            })
    }

    fn field_f64(event: &Event, name: &str) -> Option<f64> {
        event
            .fields
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| match v {
                Value::F64(x) => Some(*x),
                Value::U64(x) => Some(*x as f64),
                Value::I64(x) => Some(*x as f64),
                _ => None,
            })
    }

    /// Feeds one event into the current window. Events without a `peer`
    /// field, or of a kind no detector reads, are ignored, so the engine
    /// can safely be pointed at a whole event log.
    fn observe_event(&mut self, event: &Event) {
        let Some(peer) = Self::field_u64(event, "peer") else {
            return;
        };
        match event.kind {
            "window" => {
                let msgs = Self::field_u64(event, "msgs").unwrap_or(0);
                self.windows.entry(peer).or_default().msgs += msgs;
            }
            // Rejections are counted on the `digest_reject` event only:
            // `replacement_request` now marks an actually *sent* (rate-
            // limited) request, so counting both would double-charge.
            "digest_reject" => {
                self.windows.entry(peer).or_default().rejects += 1;
            }
            "drop" => self.windows.entry(peer).or_default().drops += 1,
            "corruption" => self.windows.entry(peer).or_default().corruptions += 1,
            "retry" => self.windows.entry(peer).or_default().retries += 1,
            "duplicate" => self.windows.entry(peer).or_default().duplicates += 1,
            "replacement_served" => {
                if let Some(rtt) = Self::field_f64(event, "rtt_us") {
                    let w = self.windows.entry(peer).or_default();
                    w.rtt_sum += rtt;
                    w.rtt_n += 1;
                }
            }
            "balance" => {
                if let Some(drift) = Self::field_f64(event, "drift") {
                    self.windows.entry(peer).or_default().credit_drift = Some(drift);
                }
            }
            "slot_share" => {
                let conn = Self::field_u64(event, "conn").unwrap_or(peer);
                let budget = Self::field_f64(event, "budget_bytes")
                    .or_else(|| Self::field_f64(event, "share"))
                    .unwrap_or(0.0);
                let entry = self.shares.entry(conn).or_insert((0.0, peer));
                entry.0 += budget;
                entry.1 = peer;
            }
            _ => {}
        }
    }

    /// Closes the current window: every active peer's signals are tested
    /// against their baselines, scores are updated, and the raised alerts
    /// are returned (deterministically ordered by peer then detector).
    fn evaluate(&mut self) -> Vec<Alert> {
        self.evaluations += 1;
        let mut alerts = Vec::new();
        let mut active_peers: Vec<u64> = Vec::new();
        for (peer, w) in std::mem::take(&mut self.windows) {
            if !w.active() {
                continue;
            }
            active_peers.push(peer);
            let denom = (w.msgs + w.rejects + w.drops + w.corruptions + w.duplicates) as f64;
            let mut signals: Vec<(usize, f64)> = Vec::with_capacity(DETECTORS.len());
            if denom > 0.0 {
                signals.push((D_REJECT, w.rejects as f64 / denom));
                signals.push((D_DROP, w.drops as f64 / denom));
                signals.push((D_CORRUPT, w.corruptions as f64 / denom));
            }
            signals.push((D_RETRY, w.retries as f64));
            if w.rtt_n > 0 {
                signals.push((D_RTT, w.rtt_sum / w.rtt_n as f64));
            }
            if let Some(drift) = w.credit_drift {
                signals.push((D_CREDIT, drift));
            }
            for (idx, value) in signals {
                let (detector, floor) = DETECTORS[idx];
                let baseline = self.baselines.entry((peer, idx)).or_default();
                if baseline
                    .test_and_update(value, floor)
                    .is_some_and(|z| z > Z_THRESHOLD)
                {
                    alerts.push(Alert { peer, detector });
                }
            }
        }

        // Jain fairness across the window's per-connection budgets.
        if self.shares.len() >= 2 {
            self.jain_windows += 1;
            let values: Vec<f64> = self.shares.values().map(|&(v, _)| v).collect();
            let sum: f64 = values.iter().sum();
            let sq: f64 = values.iter().map(|v| v * v).sum();
            if sum > 0.0 && sq > 0.0 {
                let jain = sum * sum / (values.len() as f64 * sq);
                if self.jain_windows > JAIN_WARMUP_WINDOWS && jain < JAIN_FLOOR {
                    let (_, &(_, hog_peer)) = self
                        .shares
                        .iter()
                        .max_by(|a, b| a.1 .0.partial_cmp(&b.1 .0).expect("finite shares"))
                        .expect("non-empty shares");
                    if !active_peers.contains(&hog_peer) {
                        active_peers.push(hog_peer);
                    }
                    alerts.push(Alert {
                        peer: hog_peer,
                        detector: JAIN_DETECTOR,
                    });
                }
            }
        }
        self.shares.clear();

        // Scoring: penalties for alerted peers, slow recovery for clean
        // active ones.
        for &peer in &active_peers {
            let state = self.scores.entry(peer).or_default();
            match alerts.iter().filter(|a| a.peer == peer).count() as u64 {
                0 => state.score = (state.score + RECOVERY_PER_WINDOW).min(100.0),
                n => {
                    state.score = (state.score - ALERT_PENALTY * n as f64).max(0.0);
                    state.alerts += n;
                }
            }
        }
        self.total_alerts += alerts.len() as u64;
        alerts
    }

    /// A point-in-time report over every scored peer.
    fn report(&self) -> HealthReport {
        HealthReport {
            peers: self
                .scores
                .iter()
                .map(|(&peer, s)| PeerHealth {
                    peer,
                    score: s.score,
                    alerts: s.alerts,
                    healthy: s.score >= HEALTHY_SCORE,
                })
                .collect(),
            windows: self.evaluations,
            total_alerts: self.total_alerts,
        }
    }
}

/// The health report of an event log: a fresh engine fed every event of
/// `events` in order, with a window closed at each `health`/`window`
/// heartbeat the runtimes write — the sim at every slot boundary, the rt
/// client every quarter second of a traced fetch. A pure function of the
/// log, so the report is derived on demand and never stored; it covers
/// only what the sink's ring still retains.
pub fn replay(events: &[Event]) -> HealthReport {
    let mut engine = HealthEngine::default();
    for event in events {
        if event.component == "health" && event.kind == "window" {
            engine.evaluate();
        } else {
            engine.observe_event(event);
        }
    }
    engine.report()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window_event(peer: u64, msgs: u64) -> Event {
        Event {
            ts: 0.0,
            component: "sim.deliver",
            kind: "window",
            fields: vec![("peer", peer.into()), ("msgs", msgs.into())],
        }
    }

    fn reject_event(peer: u64) -> Event {
        Event {
            ts: 0.0,
            component: "sim.deliver",
            kind: "digest_reject",
            fields: vec![("peer", peer.into()), ("chunk", 0u64.into())],
        }
    }

    fn drop_event(peer: u64) -> Event {
        Event {
            ts: 0.0,
            component: "sim.deliver",
            kind: "drop",
            fields: vec![("peer", peer.into())],
        }
    }

    fn score(engine: &HealthEngine, peer: u64) -> Option<f64> {
        engine.scores.get(&peer).map(|s| s.score)
    }

    fn share_event(peer: u64, conn: u64, budget: f64) -> Event {
        Event {
            ts: 0.0,
            component: "sim.alloc",
            kind: "slot_share",
            fields: vec![
                ("peer", peer.into()),
                ("conn", conn.into()),
                ("budget_bytes", budget.into()),
            ],
        }
    }

    /// A step change in the digest-rejection rate alerts once warmed up,
    /// and the peer's score drops while a clean peer's does not.
    #[test]
    fn step_change_raises_alert_and_sinks_score() {
        let mut engine = HealthEngine::default();
        for _ in 0..10 {
            engine.observe_event(&window_event(1, 100));
            engine.observe_event(&window_event(2, 100));
            assert!(engine.evaluate().is_empty(), "clean warmup");
        }
        // Peer 1 turns malicious: 40% of its messages now fail the digest.
        let mut alerted = false;
        for _ in 0..4 {
            engine.observe_event(&window_event(1, 60));
            for _ in 0..40 {
                engine.observe_event(&reject_event(1));
            }
            engine.observe_event(&window_event(2, 100));
            for alert in engine.evaluate() {
                assert_eq!(alert.peer, 1);
                assert_eq!(alert.detector, "digest_reject_rate");
                alerted = true;
            }
        }
        assert!(alerted, "step change must alert");
        // One penalty minus the recovery of the post-step windows where the
        // adapted baseline no longer alerts.
        assert!(score(&engine, 1).unwrap() < 95.0);
        assert_eq!(score(&engine, 2), Some(100.0));
        let report = engine.report();
        assert!(report.total_alerts >= 1);
        assert!(report.to_json().contains("\"peer\": 1"));
    }

    /// A slow drift stays inside the moving baseline: no alerts.
    #[test]
    fn slow_drift_tracks_without_alert() {
        let mut engine = HealthEngine::default();
        for t in 0..60 {
            // Drop rate creeps up by 0.25% per window — the EWMA follows.
            let drops = t / 4;
            engine.observe_event(&window_event(1, 100 - drops));
            for _ in 0..drops {
                engine.observe_event(&drop_event(1));
            }
            let alerts = engine.evaluate();
            assert!(alerts.is_empty(), "drift alerted at window {t}: {alerts:?}");
        }
        assert_eq!(score(&engine, 1), Some(100.0));
    }

    /// Bursty but honest: traffic volume swings wildly, fault rates stay
    /// flat — no alerts, pristine score.
    #[test]
    fn bursty_honest_peer_stays_clean() {
        let mut engine = HealthEngine::default();
        for t in 0..40 {
            let msgs = if t % 2 == 0 { 10 } else { 1000 };
            engine.observe_event(&window_event(7, msgs));
            engine.observe_event(&share_event(7, 70, msgs as f64 * 100.0));
            engine.observe_event(&share_event(8, 80, msgs as f64 * 90.0));
            assert!(engine.evaluate().is_empty(), "burst alerted at {t}");
        }
        assert_eq!(score(&engine, 7), Some(100.0));
    }

    /// Scores recover slowly on clean windows after an alert.
    #[test]
    fn score_recovers_after_alert() {
        let mut engine = HealthEngine::default();
        for _ in 0..8 {
            engine.observe_event(&window_event(1, 100));
            engine.evaluate().is_empty().then_some(()).unwrap();
        }
        engine.observe_event(&window_event(1, 10));
        for _ in 0..50 {
            engine.observe_event(&reject_event(1));
        }
        assert!(!engine.evaluate().is_empty());
        let low = score(&engine, 1).unwrap();
        assert!(low < 100.0);
        engine.observe_event(&window_event(1, 100));
        engine.evaluate();
        assert!((score(&engine, 1).unwrap() - (low + RECOVERY_PER_WINDOW)).abs() < 1e-9);
    }

    /// A starved share distribution trips the Jain floor and blames the
    /// peer hogging the budget: the hog's window reads 1020² / (3 ·
    /// 1 000 200) ≈ 0.35, under the 0.55 floor.
    #[test]
    fn jain_floor_blames_the_hog() {
        let mut engine = HealthEngine::default();
        for _ in 0..6 {
            engine.observe_event(&share_event(1, 10, 100.0));
            engine.observe_event(&share_event(2, 20, 100.0));
            engine.observe_event(&share_event(3, 30, 100.0));
            assert!(engine.evaluate().is_empty());
        }
        engine.observe_event(&share_event(1, 10, 1000.0));
        engine.observe_event(&share_event(2, 20, 10.0));
        engine.observe_event(&share_event(3, 30, 10.0));
        let alerts = engine.evaluate();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].detector, JAIN_DETECTOR);
        assert_eq!(alerts[0].peer, 1, "largest consumer is blamed");
    }

    /// The fold closes one window per `health`/`window` heartbeat and
    /// agrees with driving the engine by hand.
    #[test]
    fn replay_closes_a_window_per_heartbeat() {
        let heartbeat = |ts: f64| Event {
            ts,
            component: "health",
            kind: "window",
            fields: vec![],
        };
        let mut log = Vec::new();
        let mut by_hand = HealthEngine::default();
        for t in 0..12 {
            let mut window = vec![window_event(1, 60)];
            if t >= 8 {
                window.extend((0..40).map(|_| reject_event(1)));
            }
            for e in &window {
                by_hand.observe_event(e);
            }
            by_hand.evaluate();
            log.extend(window);
            log.push(heartbeat(t as f64));
        }
        // Events after the last heartbeat sit in an open window.
        log.push(reject_event(1));
        let folded = replay(&log);
        assert_eq!(folded, by_hand.report());
        assert_eq!(folded.windows, 12);
        assert!(folded.total_alerts >= 1);
        assert_eq!(replay(&[]), HealthReport::default());
    }

    /// Determinism: the same event sequence with the same heartbeats
    /// produces identical alert sequences.
    #[test]
    fn engine_is_deterministic() {
        let run = || {
            let mut engine = HealthEngine::default();
            let mut all = Vec::new();
            for t in 0..20 {
                engine.observe_event(&window_event(1, 50 + (t % 3)));
                if t > 12 {
                    for _ in 0..30 {
                        engine.observe_event(&reject_event(1));
                    }
                }
                engine.observe_event(&drop_event(2));
                engine.observe_event(&window_event(2, 40));
                all.extend(engine.evaluate());
            }
            all
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }
}
