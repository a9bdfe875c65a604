//! Deterministic, seeded fault injection — the one fault schedule of both
//! runtimes.
//!
//! A [`FaultPlan`] describes the misbehaviour to impose on the network:
//! per-link loss probability, payload bit-corruption probability, latency
//! jitter, scheduled node outages (including permanent "churn" kills) and
//! Byzantine strategies. The simulator installs one with
//! [`SimNet::set_fault_plan`](crate::SimNet::set_fault_plan) and realises
//! it per flow; the real-time transport installs the same value and
//! realises it per datagram. Every decision is drawn from a seeded
//! [`SplitMix64`] stream or an [`adversary_draw`] hash, so a given
//! `(plan, workload)` pair replays byte-for-byte.
//!
//! The simulator itself only marks flows as lost or corrupted — the
//! application layer above decides what a lost or corrupted payload means
//! (a discarded wire message, a flipped payload bit that fails digest
//! authentication, ...). Outages zero a node's link capacities for the
//! scheduled window, stalling its flows without destroying them, which is
//! exactly how a crashed or partitioned host looks from the outside.

use crate::node::NodeId;
use std::collections::HashMap;

/// Loss/corruption/jitter knobs for flows leaving one node (or, as the
/// plan-wide default, any node).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinkFault {
    /// Probability in `[0, 1]` that a flow's payload is lost in transit.
    /// The bytes still traverse (and congest) the links; the receiver just
    /// never gets a usable payload — a checksum-failing transfer.
    pub loss_prob: f64,
    /// Probability in `[0, 1]` that the payload arrives bit-corrupted.
    pub corrupt_prob: f64,
    /// Maximum extra one-way delay in seconds, drawn uniformly per flow
    /// (per datagram on the real-time transport).
    pub jitter_secs: f64,
}

impl LinkFault {
    fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.loss_prob) && (0.0..=1.0).contains(&self.corrupt_prob),
            "fault probabilities must lie in [0, 1]"
        );
        assert!(
            self.jitter_secs.is_finite() && self.jitter_secs >= 0.0,
            "jitter must be finite and non-negative"
        );
    }
}

/// A deterministic malicious-peer behaviour assigned to one node.
///
/// Strategies model the Byzantine attacks of the threat model (DESIGN.md
/// §11): the node still speaks the protocol — frames parse, handshakes
/// succeed — but the *content* or *schedule* of what it serves is hostile.
/// Both runtimes apply it once, where the node sends (their serving
/// engine); the flow simulator itself stays attack-agnostic, exactly as
/// it stays loss-agnostic.
///
/// Every decision is derived from an order-independent hash of
/// `(plan seed, message or decision identity)` via [`adversary_draw`], never from the
/// shared fault RNG stream, so installing an adversary perturbs *nothing*
/// about honest peers' loss/corruption/jitter draws and a given plan
/// replays byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdversaryStrategy {
    /// Payload pollution: serve well-formed frames whose coded payload was
    /// tampered with probability `prob` — valid framing, garbage data that
    /// fails the owner's MD5 digest at the receiver.
    Pollute {
        /// Probability in `[0, 1]` that a served message is polluted.
        prob: f64,
    },
    /// Stale serving: with probability `prob`, re-serve the previously sent
    /// message instead of a fresh one — the receiver sees replayed
    /// duplicates that decode to nothing new.
    Replay {
        /// Probability in `[0, 1]` that a send is a replay of the last one.
        prob: f64,
    },
    /// Selective serving: accept requests, but actually deliver only
    /// `serve_fraction` of the messages owed — the rest are silently
    /// withheld while the sender still occupies a connection slot.
    SelectiveServe {
        /// Fraction in `[0, 1]` of owed messages actually served.
        serve_fraction: f64,
    },
}

impl AdversaryStrategy {
    /// Asserts the strategy's knobs are in range.
    ///
    /// # Panics
    ///
    /// Panics for probabilities or fractions outside `[0, 1]`.
    fn validate(&self) {
        match *self {
            AdversaryStrategy::Pollute { prob } | AdversaryStrategy::Replay { prob } => {
                assert!(
                    (0.0..=1.0).contains(&prob),
                    "adversary probability must lie in [0, 1]"
                );
            }
            AdversaryStrategy::SelectiveServe { serve_fraction } => {
                assert!(
                    (0.0..=1.0).contains(&serve_fraction),
                    "serve fraction must lie in [0, 1]"
                );
            }
        }
    }

    /// Short stable name of the strategy, used in events and reports.
    pub fn name(&self) -> &'static str {
        match self {
            AdversaryStrategy::Pollute { .. } => "pollute",
            AdversaryStrategy::Replay { .. } => "replay",
            AdversaryStrategy::SelectiveServe { .. } => "selective",
        }
    }
}

/// An order-independent uniform draw in `[0, 1)` keyed by `(seed, salt)`.
///
/// Adversary decisions use this instead of the plan's sequential fault RNG:
/// hashing `(seed, message identity)` makes each decision independent of
/// evaluation order, so an adversarial node changes only its own behaviour
/// — honest peers' fault draws, and therefore the honest schedule, replay
/// untouched.
pub fn adversary_draw(seed: u64, salt: u64) -> f64 {
    SplitMix64::new(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_f64()
}

/// A scheduled node outage: the node's uplink and downlink are zero for
/// `[from_secs, until_secs)`. An infinite `until_secs` models churn — the
/// node leaves and never comes back.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Outage {
    /// The affected node.
    node: NodeId,
    /// Outage start, seconds of simulated time (on the real-time
    /// transport, seconds since the plan was installed).
    from_secs: f64,
    /// Outage end (exclusive); `f64::INFINITY` for a permanent kill.
    until_secs: f64,
}

/// Counters of faults actually realized (not merely configured): flows in
/// the simulator, datagrams on the real-time transport.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Payloads dropped in transit (on the transport, also the datagrams
    /// dropped because an end was inside an outage window).
    pub dropped: u64,
    /// Payloads delivered corrupted.
    pub corrupted: u64,
    /// Payloads that received extra jitter delay.
    pub delayed: u64,
}

/// A deterministic, seeded description of network misbehaviour.
///
/// # Example
///
/// ```rust
/// use asymshare_netsim::{FaultPlan, LinkSpeed, SimNet};
///
/// let mut net = SimNet::new();
/// let a = net.add_node(LinkSpeed::kbps(256.0), LinkSpeed::kbps(3000.0));
/// let b = net.add_node(LinkSpeed::kbps(256.0), LinkSpeed::kbps(3000.0));
/// net.set_fault_plan(
///     FaultPlan::new(42)
///         .with_loss(0.05)
///         .with_corruption(0.01)
///         .with_jitter(0.02)
///         .with_kill(b, 30.0), // b churns out of the system at t = 30 s
/// );
/// net.start_flow(a, b, 10_000, 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    default: LinkFault,
    per_node: HashMap<usize, LinkFault>,
    outages: Vec<Outage>,
    adversaries: HashMap<usize, AdversaryStrategy>,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given RNG seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Sets the default per-flow loss probability.
    ///
    /// # Panics
    ///
    /// Panics for probabilities outside `[0, 1]`.
    #[must_use]
    pub fn with_loss(mut self, prob: f64) -> FaultPlan {
        self.default.loss_prob = prob;
        self.default.validate();
        self
    }

    /// Sets the default per-flow payload corruption probability.
    ///
    /// # Panics
    ///
    /// Panics for probabilities outside `[0, 1]`.
    #[must_use]
    pub fn with_corruption(mut self, prob: f64) -> FaultPlan {
        self.default.corrupt_prob = prob;
        self.default.validate();
        self
    }

    /// Sets the default maximum per-flow jitter in seconds.
    ///
    /// # Panics
    ///
    /// Panics for a negative or non-finite jitter.
    #[must_use]
    pub fn with_jitter(mut self, max_secs: f64) -> FaultPlan {
        self.default.jitter_secs = max_secs;
        self.default.validate();
        self
    }

    /// Overrides the fault knobs for flows *leaving* `node` (a per-link
    /// fault: this node's uplink path is lossier/noisier than the rest).
    ///
    /// # Panics
    ///
    /// Panics for invalid probabilities or jitter.
    #[must_use]
    pub fn with_node_fault(mut self, node: NodeId, fault: LinkFault) -> FaultPlan {
        fault.validate();
        self.per_node.insert(node.index(), fault);
        self
    }

    /// Schedules an outage window for `node`.
    ///
    /// # Panics
    ///
    /// Panics for a negative start or an end before the start.
    #[must_use]
    pub fn with_outage(mut self, node: NodeId, from_secs: f64, until_secs: f64) -> FaultPlan {
        assert!(
            from_secs.is_finite() && from_secs >= 0.0 && until_secs > from_secs,
            "outage window must be non-negative and non-empty"
        );
        self.outages.push(Outage {
            node,
            from_secs,
            until_secs,
        });
        self
    }

    /// Kills `node` permanently at `at_secs` (peer churn).
    ///
    /// # Panics
    ///
    /// Panics for a negative or non-finite kill time.
    #[must_use]
    pub fn with_kill(self, node: NodeId, at_secs: f64) -> FaultPlan {
        self.with_outage(node, at_secs, f64::INFINITY)
    }

    /// Marks `node` as a malicious peer following `strategy`.
    ///
    /// # Panics
    ///
    /// Panics for out-of-range strategy parameters.
    #[must_use]
    pub fn with_adversary(mut self, node: NodeId, strategy: AdversaryStrategy) -> FaultPlan {
        strategy.validate();
        self.adversaries.insert(node.index(), strategy);
        self
    }

    /// The adversary strategy assigned to `node`, if any.
    pub fn adversary_for(&self, node: NodeId) -> Option<AdversaryStrategy> {
        self.adversaries.get(&node.index()).copied()
    }

    /// The RNG seed the plan replays from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The fault knobs that apply to flows leaving `src`.
    pub fn fault_for(&self, src: NodeId) -> LinkFault {
        self.per_node
            .get(&src.index())
            .copied()
            .unwrap_or(self.default)
    }

    /// Whether `node` is inside an outage window at time `now`.
    pub fn node_down(&self, node: NodeId, now_secs: f64) -> bool {
        self.outages
            .iter()
            .any(|o| o.node == node && o.from_secs <= now_secs && now_secs < o.until_secs)
    }

    /// Whether any outage is active at `now` (capacities need masking).
    pub(crate) fn any_outage_active(&self, now_secs: f64) -> bool {
        self.outages
            .iter()
            .any(|o| o.from_secs <= now_secs && now_secs < o.until_secs)
    }

    /// The next instant strictly after `now` at which an outage begins or
    /// ends — a point where flow rates must be recomputed.
    pub(crate) fn next_transition_after(&self, now_secs: f64) -> Option<f64> {
        self.outages
            .iter()
            .flat_map(|o| [o.from_secs, o.until_secs])
            .filter(|&t| t.is_finite() && t > now_secs)
            .min_by(|a, b| a.partial_cmp(b).expect("finite transition times"))
    }
}

/// SplitMix64 — the tiny deterministic PRNG driving fault decisions.
///
/// Not cryptographic (the coding RNG elsewhere in the workspace is
/// ChaCha20-based); fault injection only needs replayable uniform draws.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// The stream seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_uniformish() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        let draws: Vec<f64> = (0..1000).map(|_| a.next_f64()).collect();
        assert!(draws.iter().all(|&x| (0.0..1.0).contains(&x)));
        assert!((0..1000).all(|i| b.next_f64() == draws[i]));
        let mean = draws.iter().sum::<f64>() / draws.len() as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean} far from 0.5");
    }

    #[test]
    fn plan_selects_per_node_overrides() {
        let node = NodeId(3);
        let other = NodeId(4);
        let plan = FaultPlan::new(1).with_loss(0.1).with_node_fault(
            node,
            LinkFault {
                loss_prob: 0.9,
                ..LinkFault::default()
            },
        );
        assert_eq!(plan.fault_for(node).loss_prob, 0.9);
        assert_eq!(plan.fault_for(other).loss_prob, 0.1);
    }

    #[test]
    fn outage_windows_and_transitions() {
        let n = NodeId(0);
        let plan = FaultPlan::new(2)
            .with_outage(n, 10.0, 20.0)
            .with_kill(NodeId(1), 15.0);
        assert!(!plan.node_down(n, 9.99));
        assert!(plan.node_down(n, 10.0));
        assert!(plan.node_down(n, 19.99));
        assert!(!plan.node_down(n, 20.0));
        assert!(plan.node_down(NodeId(1), 1e12), "kill is permanent");
        assert_eq!(plan.next_transition_after(0.0), Some(10.0));
        assert_eq!(plan.next_transition_after(10.0), Some(15.0));
        assert_eq!(plan.next_transition_after(15.0), Some(20.0));
        assert_eq!(plan.next_transition_after(20.0), None, "infinity excluded");
    }

    #[test]
    #[should_panic(expected = "probabilities must lie in [0, 1]")]
    fn invalid_probability_panics() {
        let _ = FaultPlan::new(0).with_loss(1.5);
    }

    #[test]
    fn adversary_assignment_and_noop() {
        let node = NodeId(2);
        let plan = FaultPlan::new(9).with_adversary(node, AdversaryStrategy::Pollute { prob: 0.5 });
        assert_eq!(
            plan.adversary_for(node),
            Some(AdversaryStrategy::Pollute { prob: 0.5 })
        );
        assert_eq!(plan.adversary_for(NodeId(0)), None);
    }

    #[test]
    fn adversary_draw_is_order_independent_and_uniformish() {
        // Same (seed, salt) always yields the same draw, regardless of any
        // other draws made before it — the property that keeps honest
        // schedules untouched by adversary decisions.
        let a = adversary_draw(7, 1234);
        let _ = adversary_draw(7, 999); // unrelated draw in between
        assert_eq!(adversary_draw(7, 1234), a);
        assert_ne!(adversary_draw(8, 1234), a, "seed-sensitive");
        let draws: Vec<f64> = (0..1000).map(|i| adversary_draw(7, i)).collect();
        assert!(draws.iter().all(|&x| (0.0..1.0).contains(&x)));
        let mean = draws.iter().sum::<f64>() / draws.len() as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean} far from 0.5");
    }

    #[test]
    #[should_panic(expected = "serve fraction must lie in [0, 1]")]
    fn invalid_serve_fraction_panics() {
        let _ = FaultPlan::new(0).with_adversary(
            NodeId(0),
            AdversaryStrategy::SelectiveServe {
                serve_fraction: 2.0,
            },
        );
    }
}
