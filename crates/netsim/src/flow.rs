//! Flows and the max-min fair rate computation.

use crate::node::{Node, NodeId};

/// Identifier of a flow (unique for the lifetime of the net).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub(crate) u64);

impl core::fmt::Display for FlowId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "flow{}", self.0)
    }
}

/// A snapshot of one flow's progress.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowProgress {
    /// The flow.
    pub id: FlowId,
    /// Sender.
    pub src: NodeId,
    /// Receiver.
    pub dst: NodeId,
    /// Bytes still to transfer.
    pub remaining_bytes: f64,
    /// Current max-min fair rate, bits per second.
    pub rate_bps: f64,
    /// Caller-supplied tag.
    pub tag: u64,
}

#[derive(Debug, Clone)]
pub(crate) struct Flow {
    pub id: FlowId,
    pub src: NodeId,
    pub dst: NodeId,
    pub total_bytes: u64,
    pub remaining: f64, // bytes
    pub rate: f64,      // bits per second, set by the allocator
    /// Propagation delay: the flow carries no bytes before this time.
    pub starts_at: f64, // seconds
    pub tag: u64,
    /// Fault injection decided the payload is dropped in transit.
    pub lost: bool,
    /// Fault injection decided the payload arrives bit-corrupted.
    pub corrupted: bool,
}

/// Computes max-min fair rates by progressive filling.
///
/// Resources are each node's uplink (shared by its outgoing flows) and
/// downlink (shared by its incoming flows). Repeatedly: find the resource
/// whose equal share among its unfrozen flows is smallest, freeze those
/// flows at that share, remove the spent capacity, repeat.
pub(crate) fn assign_max_min_rates(nodes: &[Node], flows: &mut [Flow], now: f64) {
    let n = nodes.len();
    if flows.is_empty() {
        return;
    }
    // Flows still in their jitter-delay window carry nothing and
    // consume no capacity.
    for f in flows.iter_mut() {
        if f.starts_at > now {
            f.rate = 0.0;
        }
    }
    // Residual capacities per resource: [uplinks.., downlinks..].
    let mut residual: Vec<f64> = nodes
        .iter()
        .map(|nd| nd.up)
        .chain(nodes.iter().map(|nd| nd.down))
        .collect();
    // Unfrozen flow count per resource.
    let mut active = vec![0usize; 2 * n];
    let mut frozen = vec![false; flows.len()];
    let mut remaining_flows = 0usize;
    for (idx, f) in flows.iter().enumerate() {
        if f.starts_at > now {
            frozen[idx] = true;
            continue;
        }
        active[f.src.0] += 1;
        active[n + f.dst.0] += 1;
        remaining_flows += 1;
    }

    while remaining_flows > 0 {
        // Find the bottleneck resource.
        let mut best: Option<(usize, f64)> = None;
        for (r, &cnt) in active.iter().enumerate() {
            if cnt == 0 {
                continue;
            }
            let share = residual[r] / cnt as f64;
            if best.is_none_or(|(_, s)| share < s) {
                best = Some((r, share));
            }
        }
        let Some((bottleneck, share)) = best else {
            break;
        };
        let share = share.max(0.0);
        // Freeze every unfrozen flow crossing the bottleneck.
        for (idx, f) in flows.iter_mut().enumerate() {
            if frozen[idx] {
                continue;
            }
            let uses = f.src.0 == bottleneck || n + f.dst.0 == bottleneck;
            if !uses {
                continue;
            }
            f.rate = share;
            frozen[idx] = true;
            remaining_flows -= 1;
            // Spend capacity on both of the flow's resources.
            residual[f.src.0] = (residual[f.src.0] - share).max(0.0);
            residual[n + f.dst.0] = (residual[n + f.dst.0] - share).max(0.0);
            active[f.src.0] -= 1;
            active[n + f.dst.0] -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeStats;

    fn node(up: f64, down: f64) -> Node {
        Node {
            up,
            down,
            stats: NodeStats::default(),
        }
    }

    fn flow(id: u64, src: usize, dst: usize) -> Flow {
        Flow {
            id: FlowId(id),
            src: NodeId(src),
            dst: NodeId(dst),
            total_bytes: 1000,
            remaining: 1000.0,
            rate: 0.0,
            starts_at: 0.0,
            tag: 0,
            lost: false,
            corrupted: false,
        }
    }

    #[test]
    fn delayed_flows_consume_no_capacity() {
        let nodes = vec![node(100_000.0, 1e9), node(1e9, 1e9)];
        let mut active = flow(0, 0, 1);
        active.starts_at = 0.0;
        let mut pending = flow(1, 0, 1);
        pending.starts_at = 5.0;
        let mut flows = vec![active, pending];
        assign_max_min_rates(&nodes, &mut flows, 1.0);
        assert_eq!(flows[0].rate, 100_000.0, "active flow gets the whole link");
        assert_eq!(flows[1].rate, 0.0, "pending flow is silent");
        // Once time passes the start, both share.
        assign_max_min_rates(&nodes, &mut flows, 6.0);
        assert_eq!(flows[0].rate, 50_000.0);
        assert_eq!(flows[1].rate, 50_000.0);
    }

    #[test]
    fn single_flow_is_bottlenecked_by_slower_end() {
        let nodes = vec![node(256_000.0, 3_000_000.0), node(256_000.0, 3_000_000.0)];
        let mut flows = vec![flow(0, 0, 1)];
        assign_max_min_rates(&nodes, &mut flows, 0.0);
        assert_eq!(flows[0].rate, 256_000.0, "uplink is the bottleneck");
    }

    #[test]
    fn two_flows_share_a_common_uplink() {
        let nodes = vec![node(100_000.0, 1e9), node(1e9, 1e9), node(1e9, 1e9)];
        let mut flows = vec![flow(0, 0, 1), flow(1, 0, 2)];
        assign_max_min_rates(&nodes, &mut flows, 0.0);
        assert!((flows[0].rate - 50_000.0).abs() < 1e-6);
        assert!((flows[1].rate - 50_000.0).abs() < 1e-6);
    }

    #[test]
    fn downlink_aggregates_multiple_uplinks() {
        // The paper's core scenario: several slow uplinks fill one fast
        // downlink. 4 peers at 256 kbps up → one 3 Mbps downlink: each flow
        // runs at its full uplink rate.
        let mut nodes = vec![node(1e9, 3_000_000.0)];
        for _ in 0..4 {
            nodes.push(node(256_000.0, 1e9));
        }
        let mut flows = (1..=4).map(|i| flow(i as u64, i, 0)).collect::<Vec<_>>();
        assign_max_min_rates(&nodes, &mut flows, 0.0);
        for f in &flows {
            assert!((f.rate - 256_000.0).abs() < 1e-6, "{:?}", f.id);
        }
    }

    #[test]
    fn saturated_downlink_splits_fairly() {
        // 4 × 1 Mbps uplinks into a 2 Mbps downlink → 500 kbps each.
        let mut nodes = vec![node(1e9, 2_000_000.0)];
        for _ in 0..4 {
            nodes.push(node(1_000_000.0, 1e9));
        }
        let mut flows = (1..=4).map(|i| flow(i as u64, i, 0)).collect::<Vec<_>>();
        assign_max_min_rates(&nodes, &mut flows, 0.0);
        for f in &flows {
            assert!((f.rate - 500_000.0).abs() < 1e-6);
        }
    }

    #[test]
    fn max_min_protects_small_flows() {
        // Node 0's downlink 3 Mbps shared by: one flow from a 256 kbps
        // uplink and one from a 10 Mbps uplink. Max-min: small flow gets its
        // full 256 kbps, big flow gets the rest (2.744 Mbps).
        let nodes = vec![
            node(1e9, 3_000_000.0),
            node(256_000.0, 1e9),
            node(10_000_000.0, 1e9),
        ];
        let mut flows = vec![flow(0, 1, 0), flow(1, 2, 0)];
        assign_max_min_rates(&nodes, &mut flows, 0.0);
        assert!((flows[0].rate - 256_000.0).abs() < 1e-6);
        assert!((flows[1].rate - 2_744_000.0).abs() < 1e-6);
    }

    #[test]
    fn rate_sums_respect_capacities() {
        // Random-ish mesh: totals at each resource never exceed capacity.
        let nodes: Vec<Node> = (0..5)
            .map(|i| node(100_000.0 * (i + 1) as f64, 150_000.0 * (i + 1) as f64))
            .collect();
        let mut flows = Vec::new();
        let mut id = 0u64;
        for s in 0..5usize {
            for d in 0..5usize {
                if s != d && (s + d) % 2 == 0 {
                    flows.push(flow(id, s, d));
                    id += 1;
                }
            }
        }
        assign_max_min_rates(&nodes, &mut flows, 0.0);
        for (i, node) in nodes.iter().enumerate() {
            let up: f64 = flows.iter().filter(|f| f.src.0 == i).map(|f| f.rate).sum();
            let down: f64 = flows.iter().filter(|f| f.dst.0 == i).map(|f| f.rate).sum();
            assert!(up <= node.up * (1.0 + 1e-9), "uplink {i} exceeded");
            assert!(down <= node.down * (1.0 + 1e-9), "downlink {i} exceeded");
        }
        assert!(flows.iter().all(|f| f.rate > 0.0));
    }
}
