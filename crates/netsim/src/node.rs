//! Nodes and their asymmetric access links.

/// Identifier of a node in the simulated network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The node with raw id `index`: how a [`FaultPlan`](crate::FaultPlan)
    /// names a node of a runtime that has no [`SimNet`](crate::SimNet),
    /// such as an address of the real-time transport.
    pub fn new(index: usize) -> NodeId {
        NodeId(index)
    }

    /// The node's index (stable for the lifetime of the net).
    pub fn index(self) -> usize {
        self.0
    }
}

impl core::fmt::Display for NodeId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// A link speed in bits per second.
///
/// # Example
///
/// ```rust
/// use asymshare_netsim::LinkSpeed;
///
/// assert_eq!(LinkSpeed::kbps(256.0).bps(), 256_000.0);
/// assert_eq!(LinkSpeed::mbps(3.0).bps(), 3_000_000.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct LinkSpeed(f64);

impl LinkSpeed {
    /// From bits per second.
    ///
    /// # Panics
    ///
    /// Panics if `bps` is negative or not finite.
    pub fn bps(self) -> f64 {
        self.0
    }

    /// From bits per second.
    ///
    /// # Panics
    ///
    /// Panics if negative or not finite.
    fn from_bps(bps: f64) -> LinkSpeed {
        assert!(
            bps.is_finite() && bps >= 0.0,
            "link speed must be finite and non-negative"
        );
        LinkSpeed(bps)
    }

    /// From kilobits per second (the paper quotes all capacities in kbps).
    pub fn kbps(v: f64) -> LinkSpeed {
        LinkSpeed::from_bps(v * 1_000.0)
    }

    /// From megabits per second.
    pub fn mbps(v: f64) -> LinkSpeed {
        LinkSpeed::from_bps(v * 1_000_000.0)
    }

    /// Kilobits per second.
    pub fn as_kbps(self) -> f64 {
        self.0 / 1_000.0
    }
}

impl core::fmt::Display for LinkSpeed {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.0 >= 1_000_000.0 {
            write!(f, "{:.3} Mbps", self.0 / 1_000_000.0)
        } else {
            write!(f, "{:.1} kbps", self.0 / 1_000.0)
        }
    }
}

/// Per-node transfer counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NodeStats {
    /// Total bytes this node has finished sending.
    pub bytes_sent: u64,
    /// Total bytes this node has finished receiving.
    pub bytes_received: u64,
}

#[derive(Debug, Clone)]
pub(crate) struct Node {
    pub up: f64,   // uplink bits per second
    pub down: f64, // downlink bits per second
    pub stats: NodeStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_conversions() {
        assert_eq!(LinkSpeed::kbps(28.0).bps(), 28_000.0);
        assert_eq!(LinkSpeed::mbps(3.0).as_kbps(), 3000.0);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(LinkSpeed::kbps(256.0).to_string(), "256.0 kbps");
        assert_eq!(LinkSpeed::mbps(3.0).to_string(), "3.000 Mbps");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_speed_panics() {
        LinkSpeed::from_bps(-1.0);
    }
}
