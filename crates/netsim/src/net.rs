//! The discrete-event engine.

use crate::fault::{FaultPlan, FaultStats, SplitMix64};
use crate::flow::{assign_max_min_rates, Flow, FlowId, FlowProgress};
use crate::node::{LinkSpeed, Node, NodeId, NodeStats};
use crate::time::SimTime;

/// What happened at an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A flow delivered all its bytes.
    FlowCompleted,
    /// A flow finished transferring but fault injection dropped the
    /// payload in transit: the receiver gets nothing usable.
    FlowLost,
    /// A flow finished transferring but fault injection corrupted the
    /// payload: the receiver gets damaged bytes.
    FlowCorrupted,
}

/// A simulation event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// When it happened.
    pub at: SimTime,
    /// What happened.
    pub kind: EventKind,
    /// The flow concerned.
    pub flow: FlowId,
    /// Flow sender.
    pub src: NodeId,
    /// Flow receiver.
    pub dst: NodeId,
    /// Total bytes the flow carried.
    pub bytes: u64,
    /// Caller-supplied tag (e.g. an index into the caller's message table).
    pub tag: u64,
}

/// Whole-network aggregate counters, for observability snapshots: what the
/// per-node [`NodeStats`] cannot answer without a full scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetTotals {
    /// Flows ever started.
    pub flows_started: u64,
    /// Flows that delivered all their bytes intact.
    pub flows_completed: u64,
    /// Flows whose payload was lost by fault injection.
    pub flows_lost: u64,
    /// Flows whose payload was corrupted by fault injection.
    pub flows_corrupted: u64,
    /// Flows cancelled mid-transfer.
    pub flows_cancelled: u64,
    /// Bytes booked at receivers (including partial bytes of cancelled
    /// flows, and the link-congesting bytes of lost/corrupted ones).
    pub bytes_delivered: u64,
}

/// The simulated network: nodes with asymmetric links plus active flows.
///
/// Rates are max-min fair and recomputed whenever the flow set changes;
/// between changes the engine advances directly to the next completion.
/// See the crate-level example.
#[derive(Debug, Default)]
pub struct SimNet {
    nodes: Vec<Node>,
    flows: Vec<Flow>,
    now: SimTime,
    next_flow_id: u64,
    rates_dirty: bool,
    /// Installed fault plan plus its RNG stream and realized-fault counters.
    fault: Option<FaultState>,
    /// Aggregate lifetime counters (pure bookkeeping: never read by the
    /// engine, so enabling observability cannot change a schedule).
    totals: NetTotals,
}

#[derive(Debug)]
struct FaultState {
    plan: FaultPlan,
    rng: SplitMix64,
    stats: FaultStats,
}

impl SimNet {
    /// An empty network at time zero.
    pub fn new() -> SimNet {
        SimNet::default()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Installs a [`FaultPlan`]: flows started from now on may be lost,
    /// corrupted, or jittered, and scheduled outages zero the affected
    /// node's links for their window. Replaces any previous plan (and
    /// restarts its RNG stream from the plan's seed); realized-fault
    /// counters reset. With no plan installed the engine draws no random
    /// numbers at all, so fault-free runs are byte-identical to runs on a
    /// build without fault injection.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        let rng = SplitMix64::new(plan.seed());
        self.fault = Some(FaultState {
            plan,
            rng,
            stats: FaultStats::default(),
        });
        self.rates_dirty = true;
    }

    /// Removes the fault plan; in-flight fault decisions (already-sampled
    /// lost/corrupted flows) still play out.
    pub fn clear_fault_plan(&mut self) {
        self.fault = None;
        self.rates_dirty = true;
    }

    /// Counters of faults realized so far (zero if no plan installed).
    pub fn fault_stats(&self) -> FaultStats {
        self.fault.as_ref().map(|f| f.stats).unwrap_or_default()
    }

    /// The installed fault plan, if any — what the layer above reads its
    /// nodes' adversary strategies from.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref().map(|f| &f.plan)
    }

    /// Whole-network aggregate counters since construction.
    pub fn totals(&self) -> NetTotals {
        self.totals
    }

    /// Whether `node` is currently inside a scheduled outage window.
    pub fn node_down(&self, node: NodeId) -> bool {
        self.fault
            .as_ref()
            .is_some_and(|f| f.plan.node_down(node, self.now.as_secs()))
    }

    /// Adds a node with the given uplink and downlink capacities.
    pub fn add_node(&mut self, up: LinkSpeed, down: LinkSpeed) -> NodeId {
        self.nodes.push(Node {
            up: up.bps(),
            down: down.bps(),
            stats: NodeStats::default(),
        });
        NodeId(self.nodes.len() - 1)
    }

    /// A node's transfer counters.
    ///
    /// # Panics
    ///
    /// Panics for an unknown node.
    pub fn stats(&self, node: NodeId) -> NodeStats {
        self.nodes[node.0].stats
    }

    /// Changes a node's link capacities mid-simulation (models the Fig. 8(b)
    /// capacity drop). Active flows are re-rated from now on.
    ///
    /// # Panics
    ///
    /// Panics for an unknown node.
    pub fn set_link(&mut self, node: NodeId, up: LinkSpeed, down: LinkSpeed) {
        self.settle_progress();
        self.nodes[node.0].up = up.bps();
        self.nodes[node.0].down = down.bps();
        self.rates_dirty = true;
    }

    /// Starts a byte flow from `src` to `dst`.
    ///
    /// # Panics
    ///
    /// Panics for unknown nodes, `src == dst`, or zero bytes.
    pub fn start_flow(&mut self, src: NodeId, dst: NodeId, bytes: u64, tag: u64) -> FlowId {
        assert!(
            src.0 < self.nodes.len() && dst.0 < self.nodes.len(),
            "unknown node"
        );
        assert_ne!(src, dst, "flows must connect distinct nodes");
        assert!(bytes > 0, "flow must carry at least one byte");
        self.settle_progress();
        let id = FlowId(self.next_flow_id);
        self.next_flow_id += 1;
        let mut starts_at = self.now.as_secs();
        let mut lost = false;
        let mut corrupted = false;
        // Fault decisions are sampled once, at flow start, from the plan's
        // seeded stream — the whole run replays from the seed.
        if let Some(fault) = &mut self.fault {
            let knobs = fault.plan.fault_for(src);
            if knobs.jitter_secs > 0.0 {
                starts_at += fault.rng.next_f64() * knobs.jitter_secs;
                fault.stats.delayed += 1;
            }
            if knobs.loss_prob > 0.0 && fault.rng.next_f64() < knobs.loss_prob {
                lost = true;
                fault.stats.dropped += 1;
            }
            if !lost && knobs.corrupt_prob > 0.0 && fault.rng.next_f64() < knobs.corrupt_prob {
                corrupted = true;
                fault.stats.corrupted += 1;
            }
        }
        self.flows.push(Flow {
            id,
            src,
            dst,
            total_bytes: bytes,
            remaining: bytes as f64,
            rate: 0.0,
            starts_at,
            tag,
            lost,
            corrupted,
        });
        self.totals.flows_started += 1;
        self.rates_dirty = true;
        id
    }

    /// Cancels an active flow (the paper's "stop transmission" message).
    /// Bytes already delivered stay counted. Returns `false` if the flow was
    /// already gone.
    pub fn cancel_flow(&mut self, id: FlowId) -> bool {
        self.settle_progress();
        let Some(idx) = self.flows.iter().position(|f| f.id == id) else {
            return false;
        };
        let flow = self.flows.swap_remove(idx);
        let delivered = (flow.total_bytes as f64 - flow.remaining).round() as u64;
        self.nodes[flow.src.0].stats.bytes_sent += delivered;
        self.nodes[flow.dst.0].stats.bytes_received += delivered;
        self.totals.flows_cancelled += 1;
        self.totals.bytes_delivered += delivered;
        self.rates_dirty = true;
        true
    }

    /// Progress snapshot of an active flow.
    pub fn progress(&mut self, id: FlowId) -> Option<FlowProgress> {
        self.settle_progress();
        self.refresh_rates();
        self.flows
            .iter()
            .find(|f| f.id == id)
            .map(|f| FlowProgress {
                id: f.id,
                src: f.src,
                dst: f.dst,
                remaining_bytes: f.remaining,
                rate_bps: f.rate,
                tag: f.tag,
            })
    }

    /// Seconds until the next flow completion at current rates, with the
    /// completing flow's index.
    fn next_completion(&self) -> Option<(usize, f64)> {
        self.flows
            .iter()
            .enumerate()
            .filter(|(_, f)| f.rate > 0.0)
            .map(|(i, f)| (i, f.remaining * 8.0 / f.rate))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite etas"))
    }

    /// Seconds until the next instant at which rates must be recomputed for
    /// a reason other than a completion: a pending flow leaving its
    /// jitter-delay window, or a scheduled outage beginning/ending.
    fn next_start(&self) -> Option<f64> {
        let now = self.now.as_secs();
        let flow_wake = self
            .flows
            .iter()
            .filter(|f| f.starts_at > now)
            .map(|f| f.starts_at - now)
            .min_by(|a, b| a.partial_cmp(b).expect("finite starts"));
        // Outage boundaries only matter while flows exist to re-rate.
        let outage_wake = match &self.fault {
            Some(f) if !self.flows.is_empty() => f.plan.next_transition_after(now).map(|t| t - now),
            _ => None,
        };
        [flow_wake, outage_wake]
            .into_iter()
            .flatten()
            .min_by(|a, b| a.partial_cmp(b).expect("finite wakes"))
    }

    /// Advances to the next flow completion and returns it, or `None` when
    /// no flows are active or the remaining flows have zero rate.
    pub fn step(&mut self) -> Option<Event> {
        self.advance(None)
    }

    /// Advances to the next flow completion only if it happens at or before
    /// `deadline`; otherwise advances the clock exactly to `deadline` and
    /// returns `None`. This is the primitive for interleaving application
    /// logic with network events (react to each event, possibly starting
    /// new flows, without overshooting a slot boundary).
    pub fn step_until(&mut self, deadline: SimTime) -> Option<Event> {
        self.advance(Some(deadline))
    }

    /// The one stepping loop: moves from wake to wake (a pending flow
    /// starting, an outage boundary) until the next completion, which it
    /// returns, a completion winning a tie. Past `deadline`, or with
    /// nothing left to happen, it stops at `deadline` instead (a clock
    /// that is already there, or has none, stays put).
    fn advance(&mut self, deadline: Option<SimTime>) -> Option<Event> {
        loop {
            self.settle_progress();
            self.refresh_rates();
            let next = match (self.next_completion(), self.next_start()) {
                (Some((idx, eta)), start) if start.is_none_or(|s| eta <= s) => {
                    Some((Some(idx), eta))
                }
                (_, start) => start.map(|s| (None, s)),
            };
            let next = next.map(|(done, secs)| (done, self.now.advance(secs)));
            let Some((done, at)) = next.filter(|&(_, at)| deadline.is_none_or(|d| at <= d)) else {
                if let Some(d) = deadline.filter(|&d| d > self.now) {
                    self.advance_progress_to(d);
                    self.now = d;
                }
                return None;
            };
            self.advance_progress_to(at);
            self.now = at;
            self.rates_dirty = true;
            let Some(idx) = done else {
                continue;
            };
            let flow = self.flows.swap_remove(idx);
            self.nodes[flow.src.0].stats.bytes_sent += flow.total_bytes;
            self.nodes[flow.dst.0].stats.bytes_received += flow.total_bytes;
            self.totals.bytes_delivered += flow.total_bytes;
            // Lost/corrupted payloads still traversed (and congested)
            // the links; only the delivered event kind differs.
            let kind = if flow.lost {
                self.totals.flows_lost += 1;
                EventKind::FlowLost
            } else if flow.corrupted {
                self.totals.flows_corrupted += 1;
                EventKind::FlowCorrupted
            } else {
                self.totals.flows_completed += 1;
                EventKind::FlowCompleted
            };
            return Some(Event {
                at,
                kind,
                flow: flow.id,
                src: flow.src,
                dst: flow.dst,
                bytes: flow.total_bytes,
                tag: flow.tag,
            });
        }
    }

    /// Processes completions until `deadline`, returning them in order, and
    /// leaves the clock exactly at `deadline` (or at the last event if no
    /// flows remain).
    pub fn run_until(&mut self, deadline: SimTime) -> Vec<Event> {
        let mut events = Vec::new();
        while let Some(e) = self.step_until(deadline) {
            events.push(e);
        }
        events
    }

    /// Applies in-flight progress at the current rates up to `to`.
    fn advance_progress_to(&mut self, to: SimTime) {
        let dt = (to - self.now).as_secs();
        if dt <= 0.0 {
            return;
        }
        for f in &mut self.flows {
            f.remaining = (f.remaining - f.rate * dt / 8.0).max(0.0);
        }
    }

    /// Books progress at current rates up to `now` before any mutation that
    /// changes rates (no-op when rates were never assigned).
    fn settle_progress(&mut self) {
        // Progress is continuously booked by `advance_progress_to` from
        // `step`/`run_until`; mutations happen at `self.now`, so there is
        // nothing further to integrate here. The hook exists so every
        // mutating entry point shares one settlement point.
    }

    fn refresh_rates(&mut self) {
        if !self.rates_dirty {
            return;
        }
        let now = self.now.as_secs();
        match &self.fault {
            // A node in outage has zero effective capacity: its flows stall
            // at rate 0 (but stay queued) until the window ends.
            Some(f) if f.plan.any_outage_active(now) => {
                let masked: Vec<Node> = self
                    .nodes
                    .iter()
                    .enumerate()
                    .map(|(i, nd)| {
                        if f.plan.node_down(NodeId(i), now) {
                            Node {
                                up: 0.0,
                                down: 0.0,
                                stats: nd.stats,
                            }
                        } else {
                            nd.clone()
                        }
                    })
                    .collect();
                assign_max_min_rates(&masked, &mut self.flows, now);
            }
            _ => assign_max_min_rates(&self.nodes, &mut self.flows, now),
        }
        self.rates_dirty = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kbps(v: f64) -> LinkSpeed {
        LinkSpeed::kbps(v)
    }

    /// The Figure-1 arithmetic: a 1-hour TV-resolution MPEG-2 home video
    /// (~1 GB) takes ~9 hours up a 256 kbps cable uplink but ~45 minutes
    /// down a 3 Mbps downlink.
    #[test]
    fn figure1_cable_modem_times() {
        let gb = 1u64 << 30;
        // Upload-limited direction.
        let mut net = SimNet::new();
        let home = net.add_node(kbps(256.0), kbps(3000.0));
        let remote = net.add_node(kbps(256.0), kbps(3000.0));
        net.start_flow(home, remote, gb, 0);
        let up_secs = net.step().unwrap().at.as_secs();
        assert!(
            (up_secs / 3600.0 - 9.32).abs() < 0.1,
            "≈9.3 hours, got {}h",
            up_secs / 3600.0
        );

        // Download-limited direction (e.g. served from many peers).
        let mut net = SimNet::new();
        let fat = net.add_node(LinkSpeed::mbps(100.0), LinkSpeed::mbps(100.0));
        let user = net.add_node(kbps(256.0), kbps(3000.0));
        net.start_flow(fat, user, gb, 0);
        let down_secs = net.step().unwrap().at.as_secs();
        assert!(
            (down_secs / 60.0 - 47.7).abs() < 1.0,
            "≈45–48 minutes, got {}m",
            down_secs / 60.0
        );
    }

    /// The headline mechanism: aggregating 4 slow uplinks beats any single
    /// uplink by ~4x.
    #[test]
    fn parallel_peers_fill_the_downlink() {
        let mb = 1u64 << 20;
        let mut net = SimNet::new();
        let user = net.add_node(kbps(256.0), kbps(3000.0));
        let peers: Vec<NodeId> = (0..4)
            .map(|_| net.add_node(kbps(256.0), kbps(3000.0)))
            .collect();
        for (i, &p) in peers.iter().enumerate() {
            net.start_flow(p, user, mb, i as u64);
        }
        let mut events = Vec::new();
        while let Some(e) = net.step() {
            events.push(e);
        }
        assert_eq!(events.len(), 4);
        let finish = events.last().unwrap().at.as_secs();
        let single_peer_time = (4.0 * mb as f64 * 8.0) / 256_000.0;
        assert!(
            (finish - single_peer_time / 4.0).abs() < 1.0,
            "4 parallel uplinks ≈ 4x faster: {finish}s vs {single_peer_time}s alone"
        );
        assert_eq!(net.stats(user).bytes_received, 4 * mb);
    }

    #[test]
    fn completions_are_ordered_and_exact() {
        let mut net = SimNet::new();
        let a = net.add_node(kbps(100.0), kbps(10_000.0));
        let b = net.add_node(kbps(100.0), kbps(10_000.0));
        let c = net.add_node(kbps(100.0), kbps(10_000.0));
        // a→b: 12.5 KB at 100 kbps = 1 s; c→b: 25 KB = 2 s.
        net.start_flow(a, b, 12_500, 1);
        net.start_flow(c, b, 25_000, 2);
        let e1 = net.step().unwrap();
        let e2 = net.step().unwrap();
        assert_eq!(e1.tag, 1);
        assert!((e1.at.as_secs() - 1.0).abs() < 1e-9);
        assert_eq!(e2.tag, 2);
        assert!((e2.at.as_secs() - 2.0).abs() < 1e-9);
        assert!(net.step().is_none());
    }

    #[test]
    fn rates_rebalance_when_a_flow_finishes() {
        // Two flows share a 100 kbps uplink; when the short one finishes the
        // long one speeds up to the full link.
        let mut net = SimNet::new();
        let src = net.add_node(kbps(100.0), kbps(10_000.0));
        let d1 = net.add_node(kbps(100.0), kbps(10_000.0));
        let d2 = net.add_node(kbps(100.0), kbps(10_000.0));
        net.start_flow(src, d1, 6_250, 1); // 50 kbit at 50 kbps = 1 s
        net.start_flow(src, d2, 12_500, 2); // 100 kbit: 1 s at 50 kbps + 0.5 s at 100 kbps
        let e1 = net.step().unwrap();
        assert!((e1.at.as_secs() - 1.0).abs() < 1e-9);
        let e2 = net.step().unwrap();
        assert!(
            (e2.at.as_secs() - 1.5).abs() < 1e-9,
            "got {}",
            e2.at.as_secs()
        );
    }

    #[test]
    fn cancel_books_partial_bytes() {
        let mut net = SimNet::new();
        let a = net.add_node(kbps(80.0), kbps(10_000.0));
        let b = net.add_node(kbps(80.0), kbps(10_000.0));
        let id = net.start_flow(a, b, 100_000, 0);
        net.run_until(SimTime::from_secs(1.0)); // 10 KB delivered
        assert!(net.cancel_flow(id));
        assert_eq!(net.stats(b).bytes_received, 10_000);
        assert!(!net.cancel_flow(id), "second cancel is a no-op");
        assert!(net.flows.is_empty());
    }

    #[test]
    fn run_until_advances_clock_exactly() {
        let mut net = SimNet::new();
        let a = net.add_node(kbps(100.0), kbps(100.0));
        let b = net.add_node(kbps(100.0), kbps(100.0));
        net.start_flow(a, b, 1_250, 0); // 0.1 s
        let events = net.run_until(SimTime::from_secs(5.0));
        assert_eq!(events.len(), 1);
        assert_eq!(net.now(), SimTime::from_secs(5.0));
    }

    #[test]
    fn link_change_rerates_flows() {
        let mut net = SimNet::new();
        let a = net.add_node(kbps(100.0), kbps(10_000.0));
        let b = net.add_node(kbps(100.0), kbps(10_000.0));
        net.start_flow(a, b, 25_000, 0); // 200 kbit
        net.run_until(SimTime::from_secs(1.0)); // 100 kbit left
        net.set_link(a, kbps(50.0), kbps(10_000.0));
        let e = net.step().unwrap();
        // Remaining 100 kbit at 50 kbps = 2 s more.
        assert!(
            (e.at.as_secs() - 3.0).abs() < 1e-9,
            "got {}",
            e.at.as_secs()
        );
    }

    #[test]
    fn progress_reports_rate_and_remaining() {
        let mut net = SimNet::new();
        let a = net.add_node(kbps(100.0), kbps(10_000.0));
        let b = net.add_node(kbps(100.0), kbps(10_000.0));
        let id = net.start_flow(a, b, 12_500, 7);
        let p = net.progress(id).unwrap();
        assert_eq!(p.rate_bps, 100_000.0);
        assert_eq!(p.remaining_bytes, 12_500.0);
        assert_eq!(p.tag, 7);
        net.run_until(SimTime::from_secs(0.5));
        let p = net.progress(id).unwrap();
        assert!((p.remaining_bytes - 6_250.0).abs() < 1e-6);
    }

    #[test]
    fn delayed_flow_does_not_steal_capacity_early() {
        let mut net = SimNet::new();
        let a = net.add_node(kbps(100.0), kbps(10_000.0));
        let b = net.add_node(kbps(100.0), kbps(10_000.0));
        // Active flow: 1 s of transfer at the full link.
        net.start_flow(a, b, 12_500, 1);
        // Second flow is jittered past the first one's completion (the
        // plan's first draw, replayed here): the first must still finish at
        // exactly t = 1 s.
        let delay = SplitMix64::new(1).next_f64() * 4.0;
        assert!(delay > 1.0, "seed 1 delays by {delay} s");
        net.set_fault_plan(FaultPlan::new(1).with_jitter(4.0));
        net.start_flow(a, b, 12_500, 2);
        let e1 = net.step().unwrap();
        assert_eq!(e1.tag, 1);
        assert!((e1.at.as_secs() - 1.0).abs() < 1e-9);
        // The second starts at t = delay and takes 1 s.
        let e2 = net.step().unwrap();
        assert_eq!(e2.tag, 2);
        assert!(
            (e2.at.as_secs() - (delay + 1.0)).abs() < 1e-9,
            "got {}",
            e2.at.as_secs()
        );
    }

    #[test]
    fn step_until_respects_deadline() {
        let mut net = SimNet::new();
        let a = net.add_node(kbps(100.0), kbps(100.0));
        let b = net.add_node(kbps(100.0), kbps(100.0));
        net.start_flow(a, b, 25_000, 0); // completes at t = 2 s
        assert!(net.step_until(SimTime::from_secs(1.0)).is_none());
        assert_eq!(net.now(), SimTime::from_secs(1.0));
        let e = net.step_until(SimTime::from_secs(3.0)).unwrap();
        assert!((e.at.as_secs() - 2.0).abs() < 1e-9);
        // No flows left: clock still advances to the deadline.
        assert!(net.step_until(SimTime::from_secs(3.0)).is_none());
        assert_eq!(net.now(), SimTime::from_secs(3.0));
    }

    #[test]
    fn totals_track_flow_lifecycle() {
        let mut net = SimNet::new();
        let a = net.add_node(kbps(100.0), kbps(10_000.0));
        let b = net.add_node(kbps(100.0), kbps(10_000.0));
        net.start_flow(a, b, 12_500, 0); // completes
        let cancelled = net.start_flow(a, b, 100_000, 1);
        net.run_until(SimTime::from_secs(0.5));
        net.cancel_flow(cancelled); // ~3125 bytes delivered at half rate
        while net.step().is_some() {}
        let t = net.totals();
        assert_eq!(t.flows_started, 2);
        assert_eq!(t.flows_completed, 1);
        assert_eq!(t.flows_cancelled, 1);
        assert_eq!((t.flows_lost, t.flows_corrupted), (0, 0));
        assert_eq!(t.bytes_delivered, 12_500 + 3_125);
    }

    #[test]
    #[should_panic(expected = "distinct nodes")]
    fn self_flow_panics() {
        let mut net = SimNet::new();
        let a = net.add_node(kbps(1.0), kbps(1.0));
        net.start_flow(a, a, 1, 0);
    }

    #[test]
    fn certain_loss_marks_every_flow_lost() {
        let mut net = SimNet::new();
        let a = net.add_node(kbps(100.0), kbps(10_000.0));
        let b = net.add_node(kbps(100.0), kbps(10_000.0));
        net.set_fault_plan(FaultPlan::new(1).with_loss(1.0));
        net.start_flow(a, b, 12_500, 0);
        let e = net.step().unwrap();
        assert_eq!(e.kind, EventKind::FlowLost);
        assert_eq!(net.fault_stats().dropped, 1);
        // Lost bytes still congested the links, so they are still booked.
        assert_eq!(net.stats(b).bytes_received, 12_500);
    }

    #[test]
    fn certain_corruption_marks_flows_corrupted() {
        let mut net = SimNet::new();
        let a = net.add_node(kbps(100.0), kbps(10_000.0));
        let b = net.add_node(kbps(100.0), kbps(10_000.0));
        net.set_fault_plan(FaultPlan::new(1).with_corruption(1.0));
        net.start_flow(a, b, 12_500, 0);
        assert_eq!(net.step().unwrap().kind, EventKind::FlowCorrupted);
        assert_eq!(net.fault_stats().corrupted, 1);
    }

    #[test]
    fn fault_runs_replay_from_the_seed() {
        let run = |seed: u64| {
            let mut net = SimNet::new();
            let a = net.add_node(kbps(100.0), kbps(10_000.0));
            let b = net.add_node(kbps(100.0), kbps(10_000.0));
            net.set_fault_plan(
                FaultPlan::new(seed)
                    .with_loss(0.3)
                    .with_corruption(0.2)
                    .with_jitter(0.05),
            );
            let mut events = Vec::new();
            for i in 0..50 {
                net.start_flow(a, b, 1_000 + i, i);
            }
            while let Some(e) = net.step() {
                events.push((e.tag, e.kind, e.at));
            }
            (events, net.fault_stats())
        };
        assert_eq!(run(7), run(7), "same seed, same schedule");
        assert_ne!(run(7).0, run(8).0, "different seed, different schedule");
        let (_, stats) = run(7);
        assert!(stats.dropped > 0 && stats.corrupted > 0);
        assert_eq!(stats.delayed, 50, "every flow drew jitter");
    }

    #[test]
    fn outage_stalls_flows_until_the_window_ends() {
        let mut net = SimNet::new();
        let a = net.add_node(kbps(100.0), kbps(10_000.0));
        let b = net.add_node(kbps(100.0), kbps(10_000.0));
        // 2 s of transfer, but the sender is down for t ∈ [1, 4): the flow
        // runs 1 s, stalls 3 s, then finishes its last second at t = 5.
        net.set_fault_plan(FaultPlan::new(3).with_outage(a, 1.0, 4.0));
        net.start_flow(a, b, 25_000, 0);
        assert!(net.node_down(a) || net.now().as_secs() < 1.0);
        let e = net.step().unwrap();
        assert!(
            (e.at.as_secs() - 5.0).abs() < 1e-9,
            "got {}",
            e.at.as_secs()
        );
    }

    #[test]
    fn killed_node_never_finishes_its_flow() {
        let mut net = SimNet::new();
        let a = net.add_node(kbps(100.0), kbps(10_000.0));
        let b = net.add_node(kbps(100.0), kbps(10_000.0));
        let c = net.add_node(kbps(100.0), kbps(10_000.0));
        net.set_fault_plan(FaultPlan::new(4).with_kill(a, 0.5));
        net.start_flow(a, b, 25_000, 1); // would finish at t = 2
        net.start_flow(c, b, 25_000, 2); // finishes at t = 2 regardless
        let e = net.step().unwrap();
        assert_eq!(e.tag, 2, "only the live sender completes");
        assert!(net.step().is_none(), "dead sender's flow is stuck");
        assert!(net.node_down(a));
        assert_eq!(net.flows.len(), 1);
    }
}
