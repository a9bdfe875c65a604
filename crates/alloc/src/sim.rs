//! The discrete-time slot simulator (the paper's §V simulator, rebuilt).

use crate::ledger::ContributionLedger;
use crate::rules::{allocate_into, AllocScratch, AllocationInputs, RuleKind};
use crate::strategy::{EffectiveRule, PeerConfig, Strategy};
use crate::trace::SimTrace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How the ledger is seeded at slot 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InitialCredit {
    /// Equal small positive credit between every pair (§V: "a small and
    /// equal non-zero contribution between every two peers").
    Equal(f64),
    /// Independent uniform credit per ordered pair (Fig. 5(a)'s "peer-wise
    /// random initial allocation").
    Uniform {
        /// Lower bound (inclusive), kbps-slots.
        min: f64,
        /// Upper bound (exclusive), kbps-slots.
        max: f64,
    },
}

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    peers: Vec<PeerConfig>,
    initial_credit: InitialCredit,
    seed: u64,
    /// Per-slot multiplicative history discount (1.0 = the paper's plain
    /// cumulative rule; < 1.0 is its suggested dynamics speed-up).
    discount: f64,
}

impl SimConfig {
    /// A configuration over `peers`, rewriting every rule-following
    /// strategy (`Honest`, `JoinAt`) to use `rule` so rule-comparison
    /// sweeps need only change this one argument.
    pub fn new(mut peers: Vec<PeerConfig>, rule: RuleKind) -> Self {
        for p in &mut peers {
            p.strategy = match p.strategy {
                Strategy::Honest(_) => Strategy::Honest(rule),
                Strategy::JoinAt { start, .. } => Strategy::JoinAt { start, then: rule },
                other => other,
            };
        }
        SimConfig {
            peers,
            initial_credit: InitialCredit::Equal(1.0),
            seed: 0xA5A5_5A5A,
            discount: 1.0,
        }
    }

    /// Sets the initial ledger seeding.
    pub fn with_initial_credit(mut self, credit: InitialCredit) -> Self {
        self.initial_credit = credit;
        self
    }

    /// Sets the RNG seed (demand sampling and random initial credit).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-slot history discount factor in `(0, 1]`.
    pub fn with_discount(mut self, discount: f64) -> Self {
        assert!(
            discount > 0.0 && discount <= 1.0,
            "discount must be in (0, 1]"
        );
        self.discount = discount;
        self
    }

    /// The peer configurations.
    pub fn peers(&self) -> &[PeerConfig] {
        &self.peers
    }
}

/// Runs the time-slotted allocation system and records rate series.
///
/// Each slot (1 second): sample demand indicators, resolve each peer's
/// strategy, divide its current uplink among requesters per its rule, apply
/// download caps, then credit the ledger with the realized transfers.
///
/// See the crate-level example for typical use.
#[derive(Debug)]
pub struct SlotSimulator {
    config: SimConfig,
    ledger: ContributionLedger,
    rng: StdRng,
}

impl SlotSimulator {
    /// Builds a simulator (seeds the ledger immediately).
    ///
    /// # Panics
    ///
    /// Panics if `config` has no peers.
    pub fn new(config: SimConfig) -> Self {
        let n = config.peers.len();
        assert!(n > 0, "simulator needs at least one peer");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let ledger = match config.initial_credit {
            InitialCredit::Equal(v) => ContributionLedger::new(n, v),
            InitialCredit::Uniform { min, max } => {
                assert!(min >= 0.0 && max > min, "invalid uniform credit range");
                let mut ledger = ContributionLedger::new(n, 0.0);
                for i in 0..n {
                    for j in 0..n {
                        ledger.credit(i, j, rng.gen_range(min..max));
                    }
                }
                ledger
            }
        };
        SlotSimulator {
            config,
            ledger,
            rng,
        }
    }

    /// Runs for `slots` slots and returns the trace.
    pub fn run(mut self, slots: u64) -> SimTrace {
        let n = self.config.peers.len();
        let mut downloads = vec![Vec::with_capacity(slots as usize); n];
        let mut uploads = vec![Vec::with_capacity(slots as usize); n];
        let mut requesting_log = vec![Vec::with_capacity(slots as usize); n];

        let mut requesting = vec![false; n];
        let mut capacity = vec![0.0f64; n];
        let mut declared = vec![0.0f64; n];
        let mut alloc = vec![vec![0.0f64; n]; n];
        let mut scratch = AllocScratch::new();

        for t in 0..slots {
            for (j, peer) in self.config.peers.iter().enumerate() {
                requesting[j] = peer.demand.requests(t, &mut self.rng);
                capacity[j] = peer.capacity.at(t);
                declared[j] = capacity[j] * peer.declared_factor;
            }

            for (i, peer) in self.config.peers.iter().enumerate() {
                let row = &mut alloc[i];
                row.iter_mut().for_each(|v| *v = 0.0);
                match peer.strategy.rule_at(t) {
                    Some(EffectiveRule::SelfOnly) if requesting[i] => {
                        row[i] = capacity[i];
                    }
                    None | Some(EffectiveRule::SelfOnly) => {}
                    Some(EffectiveRule::Rule(rule)) => {
                        // Written straight into this peer's allocation row.
                        allocate_into(
                            rule,
                            &AllocationInputs {
                                allocator: i,
                                capacity: capacity[i],
                                requesting: &requesting,
                                declared: &declared,
                                ledger: &self.ledger,
                            },
                            &mut scratch,
                            row,
                        );
                    }
                }
            }

            // Download caps: scale each user's inbound column if it exceeds
            // the cap (the excess is lost, mirroring a saturated downlink).
            for (j, peer) in self.config.peers.iter().enumerate() {
                if let Some(cap) = peer.download_cap {
                    let inbound: f64 = (0..n).map(|i| alloc[i][j]).sum();
                    if inbound > cap && inbound > 0.0 {
                        let scale = cap / inbound;
                        for row in alloc.iter_mut() {
                            row[j] *= scale;
                        }
                    }
                }
            }

            // Realize transfers: record series, credit the ledger.
            for j in 0..n {
                let inbound: f64 = (0..n).map(|i| alloc[i][j]).sum();
                downloads[j].push(inbound);
                requesting_log[j].push(requesting[j]);
            }
            for i in 0..n {
                let outbound: f64 = alloc[i].iter().sum();
                uploads[i].push(outbound);
                for (j, &given) in alloc[i].iter().enumerate() {
                    if given > 0.0 {
                        self.ledger.credit(i, j, given);
                    }
                }
            }
            self.ledger.discount(self.config.discount);
        }

        SimTrace::new(downloads, uploads, requesting_log, self.ledger)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::Demand;

    fn saturated(capacities: &[f64]) -> Vec<PeerConfig> {
        capacities
            .iter()
            .map(|&c| PeerConfig::honest(c, Demand::Saturated))
            .collect()
    }

    #[test]
    fn saturated_peers_converge_to_own_capacity() {
        // Fig. 5(a) in miniature: heterogeneous saturated peers end up
        // downloading at their own upload rate.
        let caps = [100.0, 200.0, 300.0, 400.0];
        let trace =
            SlotSimulator::new(SimConfig::new(saturated(&caps), RuleKind::PeerWise)).run(2000);
        for (j, &c) in caps.iter().enumerate() {
            let avg = trace.mean_download_rate(j, 1500..2000);
            assert!(
                (avg - c).abs() / c < 0.05,
                "peer {j}: avg {avg} vs capacity {c}"
            );
        }
    }

    #[test]
    fn dominant_peer_still_treated_fairly() {
        // Fig. 5(b): no non-dominance condition needed.
        let caps = [128.0, 256.0, 1024.0];
        let trace =
            SlotSimulator::new(SimConfig::new(saturated(&caps), RuleKind::PeerWise)).run(3000);
        for (j, &c) in caps.iter().enumerate() {
            let avg = trace.mean_download_rate(j, 2500..3000);
            assert!(
                (avg - c).abs() / c < 0.05,
                "peer {j}: avg {avg} vs capacity {c}"
            );
        }
    }

    #[test]
    fn bandwidth_is_conserved_every_slot() {
        let caps = [100.0, 250.0, 400.0];
        let trace =
            SlotSimulator::new(SimConfig::new(saturated(&caps), RuleKind::PeerWise)).run(100);
        let total_cap: f64 = caps.iter().sum();
        for t in 0..100 {
            let demand_sum: f64 = (0..3).map(|j| trace.download_series(j)[t]).sum();
            let supply_sum: f64 = (0..3).map(|i| trace.upload_series(i)[t]).sum();
            assert!((demand_sum - supply_sum).abs() < 1e-9);
            assert!(supply_sum <= total_cap + 1e-9);
        }
    }

    #[test]
    fn idle_users_bandwidth_is_recycled() {
        // One pure contributor + two saturated users: the contributor's
        // capacity flows to the others, who each exceed their own rate.
        let peers = vec![
            PeerConfig::honest(600.0, Demand::Never),
            PeerConfig::honest(300.0, Demand::Saturated),
            PeerConfig::honest(300.0, Demand::Saturated),
        ];
        let trace = SlotSimulator::new(SimConfig::new(peers, RuleKind::PeerWise)).run(2000);
        let r1 = trace.mean_download_rate(1, 1500..2000);
        let r2 = trace.mean_download_rate(2, 1500..2000);
        assert!((r1 + r2 - 1200.0).abs() < 1.0, "all capacity delivered");
        assert!(r1 > 400.0 && r2 > 400.0, "both exceed isolation (300)");
    }

    #[test]
    fn free_rider_starves_under_peer_wise() {
        let peers = vec![
            PeerConfig::honest(500.0, Demand::Saturated),
            PeerConfig::honest(500.0, Demand::Saturated),
            PeerConfig::honest(500.0, Demand::Saturated).with_strategy(Strategy::FreeRider),
        ];
        let trace = SlotSimulator::new(SimConfig::new(peers, RuleKind::PeerWise)).run(3000);
        let honest = trace.mean_download_rate(0, 2500..3000);
        let rider = trace.mean_download_rate(2, 2500..3000);
        assert!(
            rider < honest * 0.05,
            "free rider ({rider}) must starve next to honest ({honest})"
        );
    }

    #[test]
    fn free_rider_prospers_under_global_proportional() {
        // The motivating weakness of Eq. 3: declared capacity earns service
        // without any actual contribution.
        let peers = vec![
            PeerConfig::honest(500.0, Demand::Saturated),
            PeerConfig::honest(500.0, Demand::Saturated),
            PeerConfig::honest(500.0, Demand::Saturated)
                .with_strategy(Strategy::FreeRider)
                .with_declared_factor(4.0),
        ];
        let trace =
            SlotSimulator::new(SimConfig::new(peers, RuleKind::GlobalProportional)).run(2000);
        let honest = trace.mean_download_rate(0, 1500..2000);
        let rider = trace.mean_download_rate(2, 1500..2000);
        assert!(
            rider > honest,
            "under Eq. 3 the inflated free rider ({rider}) beats honest peers ({honest})"
        );
    }

    #[test]
    fn download_cap_limits_inbound() {
        let peers = vec![
            PeerConfig::honest(600.0, Demand::Never),
            PeerConfig::honest(600.0, Demand::Never),
            PeerConfig::honest(10.0, Demand::Saturated).with_download_cap(100.0),
        ];
        let trace = SlotSimulator::new(SimConfig::new(peers, RuleKind::EqualSplit)).run(50);
        for t in 0..50 {
            assert!(trace.download_series(2)[t] <= 100.0 + 1e-9);
        }
    }

    #[test]
    fn runs_are_reproducible_by_seed() {
        let mk = |seed| {
            let peers = vec![
                PeerConfig::honest(300.0, Demand::Bernoulli { gamma: 0.4 }),
                PeerConfig::honest(700.0, Demand::Bernoulli { gamma: 0.7 }),
            ];
            SlotSimulator::new(SimConfig::new(peers, RuleKind::PeerWise).with_seed(seed)).run(200)
        };
        let a = mk(7);
        let b = mk(7);
        let c = mk(8);
        assert_eq!(a.download_series(0), b.download_series(0));
        assert_ne!(a.download_series(0), c.download_series(0));
    }

    #[test]
    fn random_initial_credit_converges_too() {
        let caps = [100.0, 1000.0];
        let config = SimConfig::new(saturated(&caps), RuleKind::PeerWise).with_initial_credit(
            InitialCredit::Uniform {
                min: 0.1,
                max: 50.0,
            },
        );
        let trace = SlotSimulator::new(config).run(4000);
        for (j, &c) in caps.iter().enumerate() {
            let avg = trace.mean_download_rate(j, 3500..4000);
            assert!((avg - c).abs() / c < 0.08, "peer {j}: {avg} vs {c}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one peer")]
    fn empty_config_panics() {
        SlotSimulator::new(SimConfig::new(vec![], RuleKind::PeerWise));
    }
}
