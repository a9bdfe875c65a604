//! Flow-level discrete-event network simulator.
//!
//! This crate is the substrate the end-to-end *asymshare* runtime executes
//! on: a population of nodes, each with an **asymmetric** access link
//! (independent uplink and downlink capacities — the asymmetry the paper
//! exists to overcome), exchanging byte flows whose rates are set by
//! **max-min fair sharing** (progressive filling), the standard fluid
//! approximation of many TCP flows sharing access links.
//!
//! Between events every flow's rate is constant; the engine advances from
//! event to event exactly, so simulations are deterministic and fast (cost
//! scales with the number of flow starts/completions, not with simulated
//! time or bytes).
//!
//! # Example
//!
//! ```rust
//! use asymshare_netsim::{LinkSpeed, SimNet};
//!
//! let mut net = SimNet::new();
//! // A cable-modem home peer: 256 kbps up, 3 Mbps down.
//! let home = net.add_node(LinkSpeed::kbps(256.0), LinkSpeed::kbps(3000.0));
//! let remote = net.add_node(LinkSpeed::kbps(256.0), LinkSpeed::kbps(3000.0));
//!
//! // 1 MB from home to remote is limited by the 256 kbps uplink.
//! net.start_flow(home, remote, 1 << 20, 0);
//! let event = net.step().expect("flow completes");
//! assert!((event.at.as_secs() - (8.0 * 1048576.0) / 256_000.0).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fault;
mod flow;
mod net;
mod node;
mod time;

pub use fault::{adversary_draw, AdversaryStrategy, FaultPlan, FaultStats, LinkFault, SplitMix64};
pub use flow::{FlowId, FlowProgress};
pub use net::{Event, EventKind, NetTotals, SimNet};
pub use node::{LinkSpeed, NodeId, NodeStats};
pub use time::SimTime;
