//! Time-slotted bandwidth-allocation engine — §IV of the paper.
//!
//! `n` peers share upload bandwidth in discrete one-second slots. User `j`
//! requests downloads at slot `t` with probability `γ_j` (or per an explicit
//! duty-cycle schedule); peer `i` has uplink capacity `μ_i`. The engine
//! implements the paper's allocation rules:
//!
//! * **Peer-wise proportional (Eq. 2, the contribution)** — peer `i` splits
//!   `μ_i` among requesting users `j` in proportion to the *cumulative
//!   bandwidth it has received from peer `j`* so far. Purely local
//!   measurement, no declared values to game, no control traffic.
//! * **Global proportional (Eq. 3, the motivating baseline)** — split
//!   proportional to requesters' *declared* uplink capacities. Fair in the
//!   mean-field limit but trivially gameable by inflating one's declaration.
//! * **Equal split** — credit-blind baseline.
//!
//! plus the adversarial behaviours the evaluation exercises (free-riders,
//! late joiners, capacity inflation) and the metrics used by the figures
//! (running-average smoothing, Jain index, pairwise-fairness residue).
//!
//! # Example
//!
//! ```rust
//! use asymshare_alloc::{Demand, PeerConfig, RuleKind, SimConfig, SlotSimulator};
//!
//! // Three saturated peers, paper Fig. 5(b): fairness despite a dominant peer.
//! let peers = vec![
//!     PeerConfig::honest(128.0, Demand::Saturated),
//!     PeerConfig::honest(256.0, Demand::Saturated),
//!     PeerConfig::honest(1024.0, Demand::Saturated),
//! ];
//! let trace = SlotSimulator::new(SimConfig::new(peers, RuleKind::PeerWise))
//!     .run(3600);
//! let avg = trace.mean_download_rate(2, 3000..3600);
//! assert!((avg - 1024.0).abs() < 64.0, "dominant peer earns its own rate back");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bounds;
mod demand;
mod ledger;
mod metrics;
mod rules;
mod sim;
mod strategy;
mod trace;

pub use bounds::theorem1_lower_bound;
pub use demand::{random_hour_windows, Demand};
pub use ledger::ContributionLedger;
pub use metrics::{gain_over_isolation, jain_index, pairwise_unfairness};
pub use rules::{allocate_into, AllocScratch, AllocationInputs, RuleKind};
pub use sim::{InitialCredit, SimConfig, SlotSimulator};
pub use strategy::{CapacityProfile, PeerConfig, Strategy};
pub use trace::SimTrace;

/// Slots per simulated hour.
pub const SLOTS_PER_HOUR: u64 = 3600;
