//! Streaming health analytics over the obs event stream.
//!
//! A [`HealthEngine`] consumes [`Event`]s incrementally ([`observe_event`])
//! and, at a cadence the caller chooses ([`evaluate`]), runs a bank of
//! per-peer detectors over the accumulated window:
//!
//! * **EWMA z-score detectors** keep an exponentially-weighted mean and
//!   variance per `(peer, signal)` and raise an alert when a window's value
//!   sits more than `z_threshold` deviations above its own baseline. Covered
//!   signals: digest-rejection rate, drop rate, corruption rate, heal
//!   retry rate, replacement RTT, and Eq.-2 credit-balance drift.
//! * A **Jain-fairness floor detector** computes Jain's index over the
//!   per-connection `slot_share` budgets seen in the window and alerts on
//!   the largest-share peer when the index falls below `jain_floor`.
//!
//! Every alert subtracts from the peer's 0–100 [`HealthScore`]; clean
//! active windows slowly restore it. The engine is a pure, deterministic
//! function of the observed event sequence and the evaluation instants —
//! no clocks, no randomness — which is what makes the sim-vs-rt golden
//! test possible: replaying one runtime's event log through the other
//! runtime's evaluation cadence must produce the identical alert sequence.
//!
//! # Attack attribution and quarantine
//!
//! On top of the anomaly bank sits an **attack-attribution layer** (the
//! Byzantine defense of DESIGN.md §11). Where the plain detectors ask "is
//! this peer behaving unusually?", the attribution rules ask "does the
//! deviation match a known adversary strategy?" and are gated far more
//! strictly — a higher z bar ([`HealthConfig::attack_z_threshold`]) *and*
//! absolute floors — so they never fire on honest peers under mere loss or
//! jitter (pinned by a property test). Verdicts map signals to strategies:
//! sustained digest-rejection rate → `pollute`; replay-duplicate rate with
//! no heal churn → `replay`; positive served-vs-credited ledger divergence
//! → `inflate_credit`; budget granted but nothing delivered, or inflated
//! replacement RTT → `selective`. Each verdict raises a typed
//! [`AttackAlert`] and adds a strike; enough strikes put the peer in
//! **quarantine** — a timed ban with exponentially growing duration and
//! slow decay on clean windows — which the runtimes' heal paths consult via
//! [`is_quarantined`](HealthEngine::is_quarantined) to stop scheduling the
//! peer and re-plan its chunks.
//!
//! [`observe_event`]: HealthEngine::observe_event
//! [`evaluate`]: HealthEngine::evaluate
//! [`HealthScore`]: PeerHealth::score

use crate::stream::EventCursor;
use crate::{Event, EventSink, Registry, Value};
use std::collections::BTreeMap;

/// Tuning knobs for the detector bank. The defaults are deliberately
/// conservative: a detector should page on a misbehaving peer, not on an
/// honest peer having a bursty second.
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// EWMA smoothing factor in `(0, 1]` for baselines and variance.
    pub ewma_alpha: f64,
    /// Alert when a window value exceeds `baseline + z_threshold * std`.
    pub z_threshold: f64,
    /// Windows a `(peer, signal)` baseline must see before it may alert.
    pub warmup_windows: u32,
    /// Jain-index floor; a window below it alerts on the largest consumer.
    pub jain_floor: f64,
    /// Windows with ≥2 share consumers before the Jain detector may alert.
    pub jain_warmup_windows: u32,
    /// Scores at or above this are "healthy" (reports, `/health`).
    pub healthy_score: f64,
    /// Scores strictly below this are "sick": the heal path deprioritizes
    /// (but does not ban) such peers during reassignment.
    pub sick_score: f64,
    /// Score subtracted per alert.
    pub alert_penalty: f64,
    /// Score restored per clean active window.
    pub recovery_per_window: f64,
    /// z bar a signal must clear before an attack verdict may blame it on a
    /// strategy — deliberately above `z_threshold`, so every attack alert
    /// implies an anomaly alert but not vice versa.
    pub attack_z_threshold: f64,
    /// Absolute digest-reject-rate floor for a `pollute` verdict.
    pub attack_reject_floor: f64,
    /// Absolute replay-duplicate-rate floor for a `replay` verdict.
    pub attack_duplicate_floor: f64,
    /// Minimum duplicate events in a window for a `replay` verdict.
    pub attack_min_duplicates: u64,
    /// Minimum positive credit drift (bytes) for an `inflate_credit`
    /// verdict.
    pub attack_drift_floor_bytes: f64,
    /// Replacement-RTT multiple over baseline for a `selective` verdict.
    pub attack_rtt_factor: f64,
    /// Minimum granted budget (bytes) for a window to count as starved when
    /// nothing was delivered.
    pub attack_starve_min_budget: f64,
    /// Consecutive starved windows before a `selective` verdict.
    pub attack_starve_windows: u32,
    /// Attack-verdict windows (strikes) before quarantine begins.
    pub quarantine_strikes: u32,
    /// First quarantine duration in seconds; doubles per repeat offense.
    pub quarantine_base_secs: f64,
    /// Cap on the duration-doubling level.
    pub quarantine_max_level: u32,
    /// Clean windows that shed one strike / one escalation level, so a
    /// reformed peer is eventually trusted again ("timed ban with decay").
    pub quarantine_decay_windows: u32,
}

impl Default for HealthConfig {
    fn default() -> HealthConfig {
        HealthConfig {
            ewma_alpha: 0.25,
            z_threshold: 4.0,
            warmup_windows: 4,
            jain_floor: 0.55,
            jain_warmup_windows: 4,
            healthy_score: 70.0,
            sick_score: 40.0,
            alert_penalty: 12.0,
            recovery_per_window: 1.5,
            attack_z_threshold: 6.0,
            attack_reject_floor: 0.10,
            attack_duplicate_floor: 0.10,
            attack_min_duplicates: 6,
            attack_drift_floor_bytes: 8192.0,
            attack_rtt_factor: 4.0,
            attack_starve_min_budget: 16_384.0,
            attack_starve_windows: 3,
            quarantine_strikes: 2,
            quarantine_base_secs: 60.0,
            quarantine_max_level: 4,
            quarantine_decay_windows: 8,
        }
    }
}

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
    ("replay_duplicate_rate", 0.05),
];

const D_REJECT: usize = 0;
const D_DROP: usize = 1;
const D_CORRUPT: usize = 2;
const D_RETRY: usize = 3;
const D_RTT: usize = 4;
const D_CREDIT: usize = 5;
const D_DUP: usize = 6;

/// Detectors below this index raise plain anomaly alerts; the rest only
/// feed baselines for the attack-attribution layer (a duplicate burst after
/// an honest heal re-request must not sink an honest peer's score).
const SCORED_DETECTORS: usize = 6;

/// Detector name used by the Jain floor alert.
pub const JAIN_DETECTOR: &str = "jain_fairness";

/// One raised alert: which peer, which detector, the offending window value
/// against its baseline, and the peer's score after the penalty.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthAlert {
    /// Evaluation instant (the caller's timeline).
    pub ts: f64,
    /// The implicated peer.
    pub peer: u64,
    /// Detector name, e.g. `"digest_reject_rate"`.
    pub detector: &'static str,
    /// The window value that tripped the detector.
    pub value: f64,
    /// The EWMA baseline at test time (the Jain index's floor for
    /// [`JAIN_DETECTOR`]).
    pub baseline: f64,
    /// Standardized deviation from baseline (0 for [`JAIN_DETECTOR`]).
    pub z: f64,
    /// The peer's health score after this alert's penalty.
    pub score: f64,
}

impl HealthAlert {
    /// This alert as event fields, for emission as a `health`/`alert`
    /// event.
    pub fn to_fields(&self) -> Vec<(&'static str, Value)> {
        vec![
            ("peer", self.peer.into()),
            ("detector", self.detector.into()),
            ("value", self.value.into()),
            ("baseline", self.baseline.into()),
            ("z", self.z.into()),
            ("score", self.score.into()),
        ]
    }
}

/// Detector name used by the starved-budget selective-serving verdict
/// (counter-based — no EWMA baseline behind it).
pub const STARVE_DETECTOR: &str = "starved_budget";

/// One attack verdict: which peer, the suspected adversary strategy, the
/// signal that triggered it, and the quarantine state after the strike.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackAlert {
    /// Evaluation instant (the caller's timeline).
    pub ts: f64,
    /// The implicated peer.
    pub peer: u64,
    /// Suspected strategy: `"pollute"`, `"replay"`, `"selective"`, or
    /// `"inflate_credit"` (matching `AdversaryStrategy::name`).
    pub strategy: &'static str,
    /// The signal that produced the verdict, e.g. `"digest_reject_rate"`.
    pub detector: &'static str,
    /// The window value of that signal.
    pub value: f64,
    /// Its standardized deviation (0 for the counter-based
    /// [`STARVE_DETECTOR`]).
    pub z: f64,
    /// Strikes accumulated against this peer, including this one.
    pub strikes: u32,
    /// When the peer's quarantine ends, if this strike triggered (or the
    /// peer already was in) one.
    pub quarantined_until: Option<f64>,
}

impl AttackAlert {
    /// This alert as event fields, for emission as a `health`/`attack`
    /// event.
    pub fn to_fields(&self) -> Vec<(&'static str, Value)> {
        vec![
            ("peer", self.peer.into()),
            ("strategy", self.strategy.into()),
            ("detector", self.detector.into()),
            ("value", self.value.into()),
            ("z", self.z.into()),
            ("strikes", (self.strikes as u64).into()),
            (
                "quarantined_until",
                self.quarantined_until.unwrap_or(-1.0).into(),
            ),
        ]
    }
}

/// Per-peer attack/quarantine state.
#[derive(Debug, Clone, Default)]
struct AttackState {
    /// Attack-verdict windows seen; reset when quarantine begins.
    strikes: u32,
    /// Escalation level: each quarantine entry doubles the ban duration.
    level: u32,
    /// End of the current (or most recent) quarantine.
    until: Option<f64>,
    /// Attack alerts ever raised against this peer.
    attacks: u64,
    /// Consecutive verdict-free windows, for strike/level decay.
    clean_windows: u32,
    /// Consecutive windows with granted budget and zero deliveries.
    starved_windows: u32,
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
    /// `(mean_before, z)` where `z` uses a floored standard deviation;
    /// `None` while warming up.
    fn test_and_update(
        &mut self,
        x: f64,
        alpha: f64,
        warmup: u32,
        std_floor: f64,
    ) -> Option<(f64, f64)> {
        let result = if self.n >= warmup {
            let std = self.var.sqrt().max(std_floor).max(0.25 * self.mean.abs());
            Some((self.mean, (x - self.mean) / std))
        } else {
            None
        };
        if self.n == 0 {
            self.mean = x;
            self.var = 0.0;
        } else {
            let d = x - self.mean;
            self.mean += alpha * d;
            self.var = (1.0 - alpha) * (self.var + alpha * d * d);
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
    /// Serving budget granted to this peer's connections this window (from
    /// `slot_share` events); drives the starved-budget selective verdict,
    /// deliberately excluded from `active()` so a budget grant alone does
    /// not earn score recovery.
    budget_bytes: f64,
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
    last_alert_ts: Option<f64>,
}

impl Default for ScoreState {
    fn default() -> ScoreState {
        ScoreState {
            score: 100.0,
            alerts: 0,
            last_alert_ts: None,
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
    /// Attack verdicts raised against this peer so far.
    pub attacks: u64,
    /// Whether the score clears [`HealthConfig::healthy_score`].
    pub healthy: bool,
    /// Whether the peer was under quarantine at the last evaluation.
    pub quarantined: bool,
}

/// Point-in-time summary of the engine: every scored peer plus totals.
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
                "{{\"peer\": {}, \"score\": {:.1}, \"alerts\": {}, \"attacks\": {}, \
                 \"healthy\": {}, \"quarantined\": {}}}",
                p.peer, p.score, p.alerts, p.attacks, p.healthy, p.quarantined
            ));
        }
        out.push_str("]}");
        out
    }
}

/// The streaming detector bank. See the module docs for the model; the
/// engine itself is deterministic and clock-free.
#[derive(Debug)]
pub struct HealthEngine {
    cfg: HealthConfig,
    windows: BTreeMap<u64, Window>,
    /// Per-connection slot-share budgets seen this window, plus the serving
    /// peer each connection maps to (for alert attribution).
    shares: BTreeMap<u64, (f64, u64)>,
    baselines: BTreeMap<(u64, usize), Baseline>,
    jain_windows: u32,
    scores: BTreeMap<u64, ScoreState>,
    attack: BTreeMap<u64, AttackState>,
    last_attacks: Vec<AttackAlert>,
    last_eval_ts: f64,
    evaluations: u64,
    total_alerts: u64,
    total_attacks: u64,
}

impl HealthEngine {
    /// A fresh engine with the given configuration.
    pub fn new(cfg: HealthConfig) -> HealthEngine {
        HealthEngine {
            cfg,
            windows: BTreeMap::new(),
            shares: BTreeMap::new(),
            baselines: BTreeMap::new(),
            jain_windows: 0,
            scores: BTreeMap::new(),
            attack: BTreeMap::new(),
            last_attacks: Vec::new(),
            last_eval_ts: 0.0,
            evaluations: 0,
            total_alerts: 0,
            total_attacks: 0,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &HealthConfig {
        &self.cfg
    }

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
    /// field, and the engine's own `health` events, are ignored, so the
    /// engine can safely be pointed at a whole event log.
    pub fn observe_event(&mut self, event: &Event) {
        if event.component == "health" {
            return;
        }
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
                self.windows.entry(peer).or_default().budget_bytes += budget;
            }
            _ => {}
        }
    }

    /// Closes the current window at `ts`: every active peer's signals are
    /// tested against their baselines, attack attribution runs over the
    /// same evidence, scores are updated, and the raised anomaly alerts are
    /// returned (deterministically ordered by peer then detector). Attack
    /// verdicts raised by this window are available from
    /// [`last_attacks`](Self::last_attacks) until the next evaluation.
    pub fn evaluate(&mut self, ts: f64) -> Vec<HealthAlert> {
        self.evaluations += 1;
        self.last_eval_ts = ts;
        let mut alerts = Vec::new();
        let mut attacks: Vec<AttackAlert> = Vec::new();
        let alpha = self.cfg.ewma_alpha;
        let warmup = self.cfg.warmup_windows;
        let z_thresh = self.cfg.z_threshold;

        let windows = std::mem::take(&mut self.windows);
        let mut alerted: BTreeMap<u64, u64> = BTreeMap::new();
        let mut active_peers: Vec<u64> = Vec::new();
        // Per-peer evidence this window: for each detector, the warmed-up
        // `(value, z, baseline mean)` triple, feeding both the plain alert
        // test and the attribution rules below.
        struct PeerEval {
            peer: u64,
            vals: [Option<(f64, f64, f64)>; DETECTORS.len()],
            duplicates: u64,
            retries: u64,
            starved_now: bool,
        }
        let mut evals: Vec<PeerEval> = Vec::new();
        for (&peer, w) in &windows {
            // Starved-budget tracking runs first: a selective adversary's
            // window is budget-only (and therefore "inactive") by
            // construction.
            let starved_now = w.budget_bytes >= self.cfg.attack_starve_min_budget && w.msgs == 0;
            {
                let st = self.attack.entry(peer).or_default();
                if starved_now {
                    st.starved_windows = st.starved_windows.saturating_add(1);
                } else {
                    st.starved_windows = 0;
                }
            }
            if !w.active() {
                if starved_now {
                    evals.push(PeerEval {
                        peer,
                        vals: [None; DETECTORS.len()],
                        duplicates: 0,
                        retries: 0,
                        starved_now,
                    });
                }
                continue;
            }
            active_peers.push(peer);
            let denom = (w.msgs + w.rejects + w.drops + w.corruptions + w.duplicates) as f64;
            let mut signals: Vec<(usize, f64)> = Vec::with_capacity(DETECTORS.len());
            if denom > 0.0 {
                signals.push((D_REJECT, w.rejects as f64 / denom));
                signals.push((D_DROP, w.drops as f64 / denom));
                signals.push((D_CORRUPT, w.corruptions as f64 / denom));
                signals.push((D_DUP, w.duplicates as f64 / denom));
            }
            signals.push((D_RETRY, w.retries as f64));
            if w.rtt_n > 0 {
                signals.push((D_RTT, w.rtt_sum / w.rtt_n as f64));
            }
            if let Some(drift) = w.credit_drift {
                signals.push((D_CREDIT, drift));
            }
            let mut vals: [Option<(f64, f64, f64)>; DETECTORS.len()] = [None; DETECTORS.len()];
            for (idx, value) in signals {
                let (name, floor) = DETECTORS[idx];
                let baseline = self.baselines.entry((peer, idx)).or_default();
                if let Some((mean, z)) = baseline.test_and_update(value, alpha, warmup, floor) {
                    vals[idx] = Some((value, z, mean));
                    if idx < SCORED_DETECTORS && z > z_thresh {
                        *alerted.entry(peer).or_default() += 1;
                        alerts.push(HealthAlert {
                            ts,
                            peer,
                            detector: name,
                            value,
                            baseline: mean,
                            z,
                            score: 0.0, // filled in after scoring below
                        });
                    }
                }
            }
            evals.push(PeerEval {
                peer,
                vals,
                duplicates: w.duplicates,
                retries: w.retries,
                starved_now,
            });
        }

        // Attack attribution: map this window's evidence onto adversary
        // strategies, gated by the stricter attack z bar plus absolute
        // floors so honest loss/jitter can never produce a verdict. One
        // verdict per peer per window, in fixed priority order.
        let az = self.cfg.attack_z_threshold;
        for ev in &evals {
            // A verdict needs the window value over the absolute floor AND
            // either an onset deviation (z above the attack bar) or a
            // baseline that has itself adapted past the floor — the latter
            // keeps a *sustained* attack striking after the EWMA absorbs it.
            let above = |slot: Option<(f64, f64, f64)>, floor: f64| {
                slot.filter(|&(v, z, mean)| v >= floor && (z > az || mean >= floor))
            };
            let starved_run = self.attack.get(&ev.peer).map_or(0, |st| st.starved_windows);
            let verdict: Option<(&'static str, &'static str, f64, f64)> =
                if let Some((v, z, _)) = above(ev.vals[D_REJECT], self.cfg.attack_reject_floor) {
                    Some(("pollute", DETECTORS[D_REJECT].0, v, z))
                } else if ev.duplicates >= self.cfg.attack_min_duplicates && ev.retries == 0 {
                    // Honest duplicate floods always follow heal churn (a
                    // retry or re-request in the same window); a replay
                    // adversary's do not.
                    above(ev.vals[D_DUP], self.cfg.attack_duplicate_floor)
                        .map(|(v, z, _)| ("replay", DETECTORS[D_DUP].0, v, z))
                } else if let Some((v, z, _)) =
                    above(ev.vals[D_CREDIT], self.cfg.attack_drift_floor_bytes)
                {
                    Some(("inflate_credit", DETECTORS[D_CREDIT].0, v, z))
                } else if let Some((v, z, _)) = ev.vals[D_RTT].filter(|&(v, z, mean)| {
                    mean > 0.0 && v >= self.cfg.attack_rtt_factor * mean && z > az
                }) {
                    Some(("selective", DETECTORS[D_RTT].0, v, z))
                } else if ev.starved_now && starved_run >= self.cfg.attack_starve_windows {
                    Some(("selective", STARVE_DETECTOR, starved_run as f64, 0.0))
                } else {
                    None
                };
            let Some((strategy, detector, value, z)) = verdict else {
                continue;
            };
            let st = self.attack.entry(ev.peer).or_default();
            st.clean_windows = 0;
            st.strikes = st.strikes.saturating_add(1);
            st.attacks += 1;
            let strikes_now = st.strikes;
            let in_quarantine = st.until.is_some_and(|u| ts < u);
            if !in_quarantine && st.strikes >= self.cfg.quarantine_strikes {
                st.level = (st.level + 1).min(self.cfg.quarantine_max_level.max(1));
                let dur = self.cfg.quarantine_base_secs * (1u64 << (st.level - 1).min(62)) as f64;
                st.until = Some(ts + dur);
                st.strikes = 0;
            }
            *alerted.entry(ev.peer).or_default() += 1;
            if !active_peers.contains(&ev.peer) {
                active_peers.push(ev.peer);
            }
            attacks.push(AttackAlert {
                ts,
                peer: ev.peer,
                strategy,
                detector,
                value,
                z,
                strikes: strikes_now,
                quarantined_until: st.until.filter(|&u| ts < u),
            });
        }

        // Strike/level decay for every verdict-free peer with attack state,
        // including peers silenced by their own quarantine.
        for (peer, st) in self.attack.iter_mut() {
            if attacks.iter().any(|a| a.peer == *peer) {
                continue;
            }
            st.clean_windows = st.clean_windows.saturating_add(1);
            if st.clean_windows >= self.cfg.quarantine_decay_windows {
                st.clean_windows = 0;
                st.strikes = st.strikes.saturating_sub(1);
                if st.until.is_none_or(|u| ts >= u) {
                    st.level = st.level.saturating_sub(1);
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
                if self.jain_windows > self.cfg.jain_warmup_windows && jain < self.cfg.jain_floor {
                    let (_, &(_, hog_peer)) = self
                        .shares
                        .iter()
                        .max_by(|a, b| a.1 .0.partial_cmp(&b.1 .0).expect("finite shares"))
                        .expect("non-empty shares");
                    *alerted.entry(hog_peer).or_default() += 1;
                    if !active_peers.contains(&hog_peer) {
                        active_peers.push(hog_peer);
                    }
                    alerts.push(HealthAlert {
                        ts,
                        peer: hog_peer,
                        detector: JAIN_DETECTOR,
                        value: jain,
                        baseline: self.cfg.jain_floor,
                        z: 0.0,
                        score: 0.0,
                    });
                }
            }
        }
        self.shares.clear();

        // Scoring: penalties for alerted peers, slow recovery for clean
        // active ones.
        for &peer in &active_peers {
            let state = self.scores.entry(peer).or_default();
            match alerted.get(&peer) {
                Some(&n) => {
                    state.score = (state.score - self.cfg.alert_penalty * n as f64).max(0.0);
                    state.alerts += n;
                    state.last_alert_ts = Some(ts);
                }
                None => state.score = (state.score + self.cfg.recovery_per_window).min(100.0),
            }
        }
        for alert in &mut alerts {
            alert.score = self.scores[&alert.peer].score;
        }
        self.total_alerts += alerts.len() as u64;
        self.total_attacks += attacks.len() as u64;
        self.last_attacks = attacks;
        alerts
    }

    /// Attack verdicts raised by the most recent [`evaluate`](Self::evaluate)
    /// call (empty if it raised none).
    pub fn last_attacks(&self) -> &[AttackAlert] {
        &self.last_attacks
    }

    /// Whether `peer` is under quarantine at `now`. The heal paths consult
    /// this before scheduling: quarantined peers receive no budget, serve no
    /// chunks, and their in-flight plan is redistributed to honest peers.
    pub fn is_quarantined(&self, peer: u64, now: f64) -> bool {
        self.attack
            .get(&peer)
            .and_then(|st| st.until)
            .is_some_and(|u| now < u)
    }

    /// When `peer`'s current or most recent quarantine ends, if it was ever
    /// quarantined.
    pub fn quarantined_until(&self, peer: u64) -> Option<f64> {
        self.attack.get(&peer).and_then(|st| st.until)
    }

    /// Attack alerts ever raised against `peer`.
    pub fn attack_count(&self, peer: u64) -> u64 {
        self.attack.get(&peer).map_or(0, |st| st.attacks)
    }

    /// Attack alerts ever raised across all peers.
    pub fn total_attacks(&self) -> u64 {
        self.total_attacks
    }

    /// The current score of `peer`, if it has ever been active.
    pub fn score(&self, peer: u64) -> Option<f64> {
        self.scores.get(&peer).map(|s| s.score)
    }

    /// Whether `peer` is in the sick band (strictly below
    /// [`HealthConfig::sick_score`]). Unknown peers are not sick.
    pub fn is_sick(&self, peer: u64) -> bool {
        self.score(peer).is_some_and(|s| s < self.cfg.sick_score)
    }

    /// A point-in-time report over every scored peer.
    pub fn report(&self) -> HealthReport {
        HealthReport {
            peers: self
                .scores
                .iter()
                .map(|(&peer, s)| PeerHealth {
                    peer,
                    score: s.score,
                    alerts: s.alerts,
                    attacks: self.attack_count(peer),
                    healthy: s.score >= self.cfg.healthy_score,
                    quarantined: self.is_quarantined(peer, self.last_eval_ts),
                })
                .collect(),
            windows: self.evaluations,
            total_alerts: self.total_alerts,
        }
    }
}

/// A [`HealthEngine`] fed from an [`EventSink`] through its own cursor:
/// the one place a health window is closed, shared by the simulated and
/// the real-time runtime.
#[derive(Debug)]
pub struct HealthStream {
    engine: HealthEngine,
    cursor: EventCursor,
}

impl HealthStream {
    /// A fresh engine reading `sink` from the start of its retained history.
    pub fn new(cfg: HealthConfig, sink: &EventSink) -> HealthStream {
        HealthStream {
            engine: HealthEngine::new(cfg),
            cursor: EventCursor::new(sink),
        }
    }

    /// The engine, for score and quarantine queries.
    pub fn engine(&self) -> &HealthEngine {
        &self.engine
    }

    /// Closes the current window at `ts`: feeds the engine every event
    /// emitted since the previous close, runs the detector bank, emits one
    /// `health`/`alert` event per alert, one `health`/`attack` per verdict
    /// and a `health`/`window` heartbeat (`leading` fields first, then
    /// `alerts`), and refreshes the `health.score.p{peer}` gauges. Returns
    /// the number of alerts raised.
    pub fn close_window(
        &mut self,
        ts: f64,
        sink: &EventSink,
        metrics: &Registry,
        leading: &[(&'static str, Value)],
    ) -> usize {
        for event in self.cursor.drain() {
            self.engine.observe_event(&event);
        }
        let alerts = self.engine.evaluate(ts);
        for alert in &alerts {
            sink.emit_at(ts, "health", "alert", &alert.to_fields());
        }
        for attack in self.engine.last_attacks() {
            sink.emit_at(ts, "health", "attack", &attack.to_fields());
        }
        let mut window = leading.to_vec();
        window.push(("alerts", alerts.len().into()));
        sink.emit_at(ts, "health", "window", &window);
        for peer in self.engine.report().peers {
            metrics
                .gauge(&format!("health.score.p{}", peer.peer))
                .set(peer.score);
        }
        alerts.len()
    }
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

    fn duplicate_event(peer: u64) -> Event {
        Event {
            ts: 0.0,
            component: "sim.deliver",
            kind: "duplicate",
            fields: vec![("peer", peer.into())],
        }
    }

    fn retry_event(peer: u64) -> Event {
        Event {
            ts: 0.0,
            component: "sim.heal",
            kind: "retry",
            fields: vec![("peer", peer.into())],
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
        let mut engine = HealthEngine::new(HealthConfig::default());
        for t in 0..10 {
            engine.observe_event(&window_event(1, 100));
            engine.observe_event(&window_event(2, 100));
            assert!(engine.evaluate(t as f64).is_empty(), "clean warmup");
        }
        // Peer 1 turns malicious: 40% of its messages now fail the digest.
        let mut alerted = false;
        for t in 10..14 {
            engine.observe_event(&window_event(1, 60));
            for _ in 0..40 {
                engine.observe_event(&reject_event(1));
            }
            engine.observe_event(&window_event(2, 100));
            for alert in engine.evaluate(t as f64) {
                assert_eq!(alert.peer, 1);
                assert_eq!(alert.detector, "digest_reject_rate");
                assert!(alert.z > 4.0, "strong deviation: z {}", alert.z);
                alerted = true;
            }
        }
        assert!(alerted, "step change must alert");
        // One penalty minus the recovery of the post-step windows where the
        // adapted baseline no longer alerts.
        assert!(engine.score(1).unwrap() < 95.0);
        assert_eq!(engine.score(2), Some(100.0));
        assert!(engine.is_sick(1) || engine.score(1).unwrap() < 100.0);
        let report = engine.report();
        assert!(report.total_alerts >= 1);
        assert!(report.to_json().contains("\"peer\": 1"));
    }

    /// A slow drift stays inside the moving baseline: no alerts.
    #[test]
    fn slow_drift_tracks_without_alert() {
        let mut engine = HealthEngine::new(HealthConfig::default());
        for t in 0..60 {
            // Drop rate creeps up by 0.25% per window — the EWMA follows.
            let drops = t / 4;
            engine.observe_event(&window_event(1, 100 - drops));
            for _ in 0..drops {
                engine.observe_event(&drop_event(1));
            }
            let alerts = engine.evaluate(t as f64);
            assert!(alerts.is_empty(), "drift alerted at window {t}: {alerts:?}");
        }
        assert_eq!(engine.score(1), Some(100.0));
    }

    /// Bursty but honest: traffic volume swings wildly, fault rates stay
    /// flat — no alerts, pristine score.
    #[test]
    fn bursty_honest_peer_stays_clean() {
        let mut engine = HealthEngine::new(HealthConfig::default());
        for t in 0..40 {
            let msgs = if t % 2 == 0 { 10 } else { 1000 };
            engine.observe_event(&window_event(7, msgs));
            engine.observe_event(&share_event(7, 70, msgs as f64 * 100.0));
            engine.observe_event(&share_event(8, 80, msgs as f64 * 90.0));
            assert!(engine.evaluate(t as f64).is_empty(), "burst alerted at {t}");
        }
        assert_eq!(engine.score(7), Some(100.0));
    }

    /// Scores recover slowly on clean windows after an alert.
    #[test]
    fn score_recovers_after_alert() {
        let cfg = HealthConfig::default();
        let recovery = cfg.recovery_per_window;
        let mut engine = HealthEngine::new(cfg);
        for t in 0..8 {
            engine.observe_event(&window_event(1, 100));
            engine.evaluate(t as f64).is_empty().then_some(()).unwrap();
        }
        engine.observe_event(&window_event(1, 10));
        for _ in 0..50 {
            engine.observe_event(&reject_event(1));
        }
        assert!(!engine.evaluate(8.0).is_empty());
        let low = engine.score(1).unwrap();
        assert!(low < 100.0);
        engine.observe_event(&window_event(1, 100));
        engine.evaluate(9.0);
        assert!((engine.score(1).unwrap() - (low + recovery)).abs() < 1e-9);
    }

    /// A starved share distribution trips the Jain floor and blames the
    /// peer hogging the budget.
    #[test]
    fn jain_floor_blames_the_hog() {
        let mut engine = HealthEngine::new(HealthConfig {
            jain_floor: 0.7,
            ..HealthConfig::default()
        });
        for t in 0..6 {
            engine.observe_event(&share_event(1, 10, 100.0));
            engine.observe_event(&share_event(2, 20, 100.0));
            engine.observe_event(&share_event(3, 30, 100.0));
            assert!(engine.evaluate(t as f64).is_empty());
        }
        engine.observe_event(&share_event(1, 10, 1000.0));
        engine.observe_event(&share_event(2, 20, 10.0));
        engine.observe_event(&share_event(3, 30, 10.0));
        let alerts = engine.evaluate(6.0);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].detector, JAIN_DETECTOR);
        assert_eq!(alerts[0].peer, 1, "largest consumer is blamed");
        assert!(alerts[0].value < 0.7);
        assert!(!alerts[0].to_fields().is_empty());
    }

    /// Sustained pollution gets a typed `pollute` verdict and, after enough
    /// strikes, a quarantine whose duration doubles per offense and decays
    /// back on clean windows.
    #[test]
    fn pollution_is_attributed_and_quarantined() {
        let mut engine = HealthEngine::new(HealthConfig::default());
        for t in 0..8 {
            engine.observe_event(&window_event(1, 100));
            engine.evaluate(t as f64);
            assert!(engine.last_attacks().is_empty(), "clean warmup");
        }
        let mut quarantined_at = None;
        for t in 8..16 {
            engine.observe_event(&window_event(1, 50));
            for _ in 0..50 {
                engine.observe_event(&reject_event(1));
            }
            engine.evaluate(t as f64);
            for attack in engine.last_attacks() {
                assert_eq!(attack.peer, 1);
                assert_eq!(attack.strategy, "pollute");
                assert_eq!(attack.detector, "digest_reject_rate");
                assert!(!attack.to_fields().is_empty());
                if attack.quarantined_until.is_some() && quarantined_at.is_none() {
                    quarantined_at = Some(t);
                }
            }
        }
        let entered = quarantined_at.expect("sustained pollution must quarantine");
        assert!(engine.is_quarantined(1, entered as f64 + 1.0));
        let until = engine.quarantined_until(1).unwrap();
        assert!(until > entered as f64, "timed ban, not permanent");
        assert!(!engine.is_quarantined(1, until), "ban expires at `until`");
        assert!(engine.attack_count(1) >= 2);
        assert!(engine.total_attacks() >= 2);
        let report = engine.report();
        let p1 = report.peers.iter().find(|p| p.peer == 1).unwrap();
        assert!(p1.attacks >= 2);
        assert!(report.to_json().contains("\"attacks\""));
    }

    /// A duplicate flood with heal churn in the same window (the honest
    /// post-reassignment signature) is NOT attributed to replay; the same
    /// flood without churn is.
    #[test]
    fn replay_verdict_requires_no_heal_churn() {
        let mut engine = HealthEngine::new(HealthConfig::default());
        for t in 0..8 {
            engine.observe_event(&window_event(1, 100));
            engine.evaluate(t as f64);
        }
        // Flood with a retry in the window: honest churn, no verdict.
        engine.observe_event(&window_event(1, 20));
        for _ in 0..40 {
            engine.observe_event(&duplicate_event(1));
        }
        engine.observe_event(&retry_event(1));
        engine.evaluate(8.0);
        assert!(
            engine.last_attacks().is_empty(),
            "churned duplicate flood must not be blamed on replay"
        );
        // Rebuild the baseline, then flood without churn: replay verdict.
        let mut engine = HealthEngine::new(HealthConfig::default());
        for t in 0..8 {
            engine.observe_event(&window_event(1, 100));
            engine.evaluate(t as f64);
        }
        engine.observe_event(&window_event(1, 20));
        for _ in 0..40 {
            engine.observe_event(&duplicate_event(1));
        }
        engine.evaluate(8.0);
        let attacks = engine.last_attacks();
        assert_eq!(attacks.len(), 1);
        assert_eq!(attacks[0].strategy, "replay");
        assert_eq!(attacks[0].detector, "replay_duplicate_rate");
    }

    /// Positive credit drift above the byte floor is attributed to ledger
    /// inflation; honest near-zero drift is not.
    #[test]
    fn credit_inflation_verdict() {
        let drift_event = |peer: u64, drift: f64| Event {
            ts: 0.0,
            component: "sim.credit",
            kind: "balance",
            fields: vec![("peer", peer.into()), ("drift", drift.into())],
        };
        let mut engine = HealthEngine::new(HealthConfig::default());
        for t in 0..8 {
            engine.observe_event(&window_event(1, 100));
            engine.observe_event(&drift_event(1, 0.0));
            engine.evaluate(t as f64);
            assert!(engine.last_attacks().is_empty());
        }
        engine.observe_event(&window_event(1, 100));
        engine.observe_event(&drift_event(1, 500_000.0));
        engine.evaluate(8.0);
        let attacks = engine.last_attacks();
        assert_eq!(attacks.len(), 1);
        assert_eq!(attacks[0].strategy, "inflate_credit");
        assert_eq!(attacks[0].detector, "credit_drift");
    }

    /// Budget granted with nothing delivered, for enough consecutive
    /// windows, yields a `selective` verdict via the starve counter.
    #[test]
    fn starved_budget_flags_selective_serving() {
        let mut engine = HealthEngine::new(HealthConfig::default());
        for t in 0..4 {
            engine.observe_event(&window_event(1, 50));
            engine.observe_event(&share_event(1, 10, 100_000.0));
            engine.evaluate(t as f64);
        }
        let mut flagged = false;
        for t in 4..12 {
            // Budget keeps flowing, deliveries stop entirely.
            engine.observe_event(&share_event(1, 10, 100_000.0));
            engine.evaluate(t as f64);
            for attack in engine.last_attacks() {
                assert_eq!(attack.strategy, "selective");
                assert_eq!(attack.detector, STARVE_DETECTOR);
                flagged = true;
            }
        }
        assert!(flagged, "sustained starvation must flag selective serving");
        assert!(engine.is_quarantined(1, 11.0));
    }

    /// Determinism: the same event sequence with the same evaluation
    /// instants produces bit-identical alert sequences.
    #[test]
    fn engine_is_deterministic() {
        let run = || {
            let mut engine = HealthEngine::new(HealthConfig::default());
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
                all.extend(engine.evaluate(t as f64 * 0.5));
            }
            all
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }
}
