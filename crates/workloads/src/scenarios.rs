//! Ready-made simulator configurations for each evaluation figure.
//!
//! Every builder returns a [`Scenario`] carrying the exact parameters the
//! paper states for that figure; the bench harness runs it and prints the
//! corresponding series.

use asymshare_alloc::{
    random_hour_windows, CapacityProfile, Demand, InitialCredit, PeerConfig, RuleKind, SimConfig,
    Strategy, SLOTS_PER_HOUR,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A fully parameterized experiment.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Figure identifier, e.g. `"fig5a"`.
    pub id: &'static str,
    /// What the figure demonstrates.
    pub title: &'static str,
    /// Simulator configuration.
    pub config: SimConfig,
    /// Number of slots (seconds) to run.
    pub slots: u64,
    /// Per-peer labels for the output series.
    pub labels: Vec<String>,
    /// Smoothing window in slots (the paper uses a 10 s running average).
    pub smoothing: usize,
}

/// The paper's smoothing window: 10-second running average.
const SMOOTHING_WINDOW: usize = 10;

/// Fig. 5(a): ten saturated users with uploads 100…1000 kbps and random
/// initial credit converge to download at their own upload rate.
pub fn fig5a(seed: u64) -> Scenario {
    let caps: Vec<f64> = (1..=10).map(|i| i as f64 * 100.0).collect();
    let peers: Vec<PeerConfig> = caps
        .iter()
        .map(|&c| PeerConfig::honest(c, Demand::Saturated))
        .collect();
    Scenario {
        id: "fig5a",
        title: "ten saturated users converge to their own upload rates",
        config: SimConfig::new(peers, RuleKind::PeerWise)
            .with_seed(seed)
            .with_initial_credit(InitialCredit::Uniform {
                min: 0.1,
                max: 100.0,
            }),
        slots: 3_600,
        labels: caps
            .iter()
            .map(|c| format!("Peer U/L = {c:.0}kbps"))
            .collect(),
        smoothing: SMOOTHING_WINDOW,
    }
}

/// Fig. 5(b): three peers, one dominating all others combined
/// (128/256/1024 kbps) — fairness without the non-dominance condition.
pub fn fig5b(seed: u64) -> Scenario {
    let caps = [128.0, 256.0, 1024.0];
    let peers: Vec<PeerConfig> = caps
        .iter()
        .map(|&c| PeerConfig::honest(c, Demand::Saturated))
        .collect();
    Scenario {
        id: "fig5b",
        title: "fair shares despite a dominant peer",
        config: SimConfig::new(peers, RuleKind::PeerWise).with_seed(seed),
        slots: 3_600,
        labels: caps
            .iter()
            .map(|c| format!("Peer U/L = {c:.0}kbps"))
            .collect(),
        smoothing: SMOOTHING_WINDOW,
    }
}

fn video_day_peers(seed: u64) -> Vec<PeerConfig> {
    let caps = [256.0, 512.0, 1024.0];
    let mut rng = StdRng::seed_from_u64(seed);
    caps.iter()
        .map(|&c| PeerConfig::honest(c, random_hour_windows(&mut rng, 12, 24, SLOTS_PER_HOUR)))
        .collect()
}

/// Fig. 6: three peers (256/512/1024 kbps) stream home videos for 12 random
/// hours of a 24-hour day; cooperation beats the single-user baseline.
pub fn fig6(seed: u64) -> Scenario {
    Scenario {
        id: "fig6",
        title: "24-hour home-video day: gains over isolation",
        config: SimConfig::new(video_day_peers(seed), RuleKind::PeerWise).with_seed(seed),
        slots: 24 * SLOTS_PER_HOUR,
        labels: vec!["Peer 0".into(), "Peer 1".into(), "Peer 2".into()],
        smoothing: SMOOTHING_WINDOW,
    }
}

/// Fig. 7: the Fig. 6 day, but peer 1 only starts contributing after the
/// first 3 hours — it is penalized, then recovers.
pub fn fig7(seed: u64) -> Scenario {
    let mut peers = video_day_peers(seed);
    peers[1] = peers[1].clone().with_strategy(Strategy::JoinAt {
        start: 3 * SLOTS_PER_HOUR,
        then: RuleKind::PeerWise,
    });
    Scenario {
        id: "fig7",
        title: "late contributor penalized then recovers",
        config: SimConfig::new(peers, RuleKind::PeerWise).with_seed(seed),
        slots: 24 * SLOTS_PER_HOUR,
        labels: vec![
            "Peer 0".into(),
            "Peer 1 (joins at 3h)".into(),
            "Peer 2".into(),
        ],
        smoothing: SMOOTHING_WINDOW,
    }
}

/// Fig. 8(a): ten 1024 kbps peers. Peers 0 and 1 idle until t = 1000 s;
/// peer 0 contributes from t = 0, peer 1 only from t = 1000 s. Contributing
/// while idle earns credit that pays off later.
pub fn fig8a(seed: u64) -> Scenario {
    let mut peers: Vec<PeerConfig> = (0..10)
        .map(|_| PeerConfig::honest(1024.0, Demand::Saturated))
        .collect();
    peers[0].demand = Demand::SaturatedFrom { start: 1_000 };
    peers[1].demand = Demand::SaturatedFrom { start: 1_000 };
    peers[1] = peers[1].clone().with_strategy(Strategy::JoinAt {
        start: 1_000,
        then: RuleKind::PeerWise,
    });
    let mut labels = vec![
        "Peer 0 (contributes from t=0, downloads from t=1000)".to_owned(),
        "Peer 1 (contributes from t=1000, downloads from t=1000)".to_owned(),
    ];
    labels.extend((2..10).map(|i| format!("Peer {i}")));
    Scenario {
        id: "fig8a",
        title: "incentive for contributing while idle",
        config: SimConfig::new(peers, RuleKind::PeerWise).with_seed(seed),
        slots: 3_600,
        labels,
        smoothing: SMOOTHING_WINDOW,
    }
}

/// Fig. 8(b): ten 1024 kbps saturated peers; one drops to 512 kbps at
/// t = 1000 s and recovers at t = 3000 s. The system adapts, slowly.
pub fn fig8b(seed: u64) -> Scenario {
    let mut peers: Vec<PeerConfig> = (0..10)
        .map(|_| PeerConfig::honest(1024.0, Demand::Saturated))
        .collect();
    peers[0] = peers[0]
        .clone()
        .with_capacity_profile(CapacityProfile::Piecewise(vec![
            (0, 1024.0),
            (1_000, 512.0),
            (3_000, 1024.0),
        ]));
    let mut labels = vec!["Peer 0 (drops to 512 kbps at t=1000)".to_owned()];
    labels.extend((1..10).map(|i| format!("Peer {i}")));
    Scenario {
        id: "fig8b",
        title: "adaptation to an upload-capacity drop and recovery",
        config: SimConfig::new(peers, RuleKind::PeerWise).with_seed(seed),
        slots: 10_000,
        labels,
        smoothing: SMOOTHING_WINDOW,
    }
}

/// All figure scenarios, in paper order.
pub fn all(seed: u64) -> Vec<Scenario> {
    vec![
        fig5a(seed),
        fig5b(seed),
        fig6(seed),
        fig7(seed),
        fig8a(seed),
        fig8b(seed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use asymshare_alloc::SlotSimulator;

    #[test]
    fn builders_have_consistent_shapes() {
        for s in all(7) {
            assert_eq!(s.labels.len(), s.config.peers().len(), "{}", s.id);
            assert!(s.slots > 0);
        }
    }

    #[test]
    fn fig5a_converges_to_capacities() {
        let s = fig5a(3);
        let trace = SlotSimulator::new(s.config).run(s.slots);
        for (j, cap) in (1..=10).map(|i| i as f64 * 100.0).enumerate() {
            let tail = trace.mean_download_rate(j, 3_000..3_600);
            assert!((tail - cap).abs() / cap < 0.08, "peer {j}: {tail} vs {cap}");
        }
    }

    #[test]
    fn fig8a_early_contributor_wins_at_join() {
        let s = fig8a(5);
        let trace = SlotSimulator::new(s.config).run(2_000);
        let p0 = trace.download_series(0)[1_000];
        let p1 = trace.download_series(1)[1_000];
        assert!(p0 > p1 * 1.5, "at t=1000: peer0 {p0} vs peer1 {p1}");
        // Before t=1000 the other peers exceed their own capacity thanks to
        // peer 0's donated bandwidth.
        let other = trace.mean_download_rate(5, 500..1_000);
        assert!(
            other > 1024.0,
            "others benefit from idle contribution: {other}"
        );
    }

    #[test]
    fn fig8b_drop_and_recovery_visible() {
        let s = fig8b(5);
        let trace = SlotSimulator::new(s.config).run(s.slots);
        let before = trace.mean_download_rate(0, 800..1_000);
        let during = trace.mean_download_rate(0, 2_500..3_000);
        let after = trace.mean_download_rate(0, 9_000..10_000);
        assert!(before > 1_000.0, "full service before the drop: {before}");
        assert!(during < before - 200.0, "visible degradation: {during}");
        assert!(after > during + 100.0, "recovery under way: {after}");
    }

    #[test]
    fn fig7_late_joiner_recovers_by_day_end() {
        let s = fig7(11);
        let trace = SlotSimulator::new(s.config).run(s.slots);
        // Averaged over its requesting slots late in the day, peer 1 gets at
        // least its isolated rate back.
        let horizon = s.slots as usize;
        let late = trace.mean_rate_while_requesting(1, horizon / 2..horizon);
        assert!(late >= 512.0 * 0.9, "late-day rate {late}");
    }
}
