//! Integration tests validating the paper's analytical claims (§IV) against
//! the slot simulator: Theorem 1 (incentive to join and cooperate) and
//! Corollary 1 (pairwise fairness in the saturated regime), plus the
//! adversary-resilience claims.

use asymshare_alloc::{
    gain_over_isolation, jain_index, pairwise_unfairness, Demand, PeerConfig, RuleKind, SimConfig,
    SlotSimulator, Strategy,
};

const T: u64 = 20_000;
const TAIL: std::ops::Range<usize> = 15_000..20_000;

/// Theorem 1, the join incentive: every user's long-run download rate is at
/// least its isolated baseline γ_i·μ_i (up to sampling noise).
#[test]
fn theorem1_join_incentive_under_bernoulli_demand() {
    let gammas = [0.2, 0.4, 0.5, 0.7, 0.9];
    let caps = [100.0, 300.0, 500.0, 700.0, 900.0];
    let peers: Vec<PeerConfig> = gammas
        .iter()
        .zip(&caps)
        .map(|(&gamma, &c)| PeerConfig::honest(c, Demand::Bernoulli { gamma }))
        .collect();
    let trace = SlotSimulator::new(SimConfig::new(peers, RuleKind::PeerWise).with_seed(1)).run(T);
    for (j, (&gamma, &c)) in gammas.iter().zip(&caps).enumerate() {
        let rate = trace.long_run_rate(j);
        let gain = gain_over_isolation(rate, gamma, c);
        assert!(
            gain >= 0.97,
            "user {j}: long-run rate {rate:.1} below isolation {:.1}",
            gamma * c
        );
    }
}

/// Theorem 1's second leg: with idle time in the system (γ < 1), users get
/// strictly more than isolation — the free bandwidth is actually recycled.
#[test]
fn theorem1_strict_gain_with_free_bandwidth() {
    let peers: Vec<PeerConfig> = (0..6)
        .map(|_| PeerConfig::honest(400.0, Demand::Bernoulli { gamma: 0.3 }))
        .collect();
    let trace = SlotSimulator::new(SimConfig::new(peers, RuleKind::PeerWise).with_seed(2)).run(T);
    for j in 0..6 {
        let gain = gain_over_isolation(trace.long_run_rate(j), 0.3, 400.0);
        assert!(
            gain > 1.5,
            "user {j} gain {gain:.2} should be well above 1 with 70% idle time"
        );
    }
}

/// Corollary 1: in the saturated regime the ledger becomes pairwise
/// symmetric, μ̄_ij = μ̄_ji.
#[test]
fn corollary1_pairwise_fairness_when_saturated() {
    let caps = [128.0, 256.0, 512.0, 1024.0];
    let peers: Vec<PeerConfig> = caps
        .iter()
        .map(|&c| PeerConfig::honest(c, Demand::Saturated))
        .collect();
    let trace = SlotSimulator::new(SimConfig::new(peers, RuleKind::PeerWise).with_seed(3)).run(T);
    let residue = pairwise_unfairness(trace.ledger());
    assert!(
        residue < 0.02,
        "pairwise residue {residue:.4} should vanish in saturation"
    );
}

/// Saturated peers' download rates equal their own upload capacities
/// (the equilibrium of Fig. 5), hence Jain fairness of rate/capacity = 1.
#[test]
fn saturated_equilibrium_returns_own_capacity() {
    let caps: Vec<f64> = (1..=10).map(|i| i as f64 * 100.0).collect();
    let peers: Vec<PeerConfig> = caps
        .iter()
        .map(|&c| PeerConfig::honest(c, Demand::Saturated))
        .collect();
    let trace = SlotSimulator::new(SimConfig::new(peers, RuleKind::PeerWise).with_seed(4)).run(T);
    let normalized: Vec<f64> = caps
        .iter()
        .enumerate()
        .map(|(j, &c)| trace.mean_download_rate(j, TAIL) / c)
        .collect();
    let fairness = jain_index(&normalized);
    assert!(
        fairness > 0.999,
        "normalized rates {normalized:?} must be equal (jain = {fairness})"
    );
}

/// Theorem 1's robustness: a coalition of adversaries (free riders with
/// inflated declarations) cannot push an honest user below its isolated
/// baseline under Eq. 2.
#[test]
fn honest_user_protected_from_coalition() {
    let mut peers = vec![PeerConfig::honest(500.0, Demand::Saturated)];
    for _ in 0..4 {
        peers.push(
            PeerConfig::honest(500.0, Demand::Saturated)
                .with_strategy(Strategy::FreeRider)
                .with_declared_factor(100.0),
        );
    }
    let trace = SlotSimulator::new(SimConfig::new(peers, RuleKind::PeerWise).with_seed(5)).run(T);
    let honest_rate = trace.mean_download_rate(0, TAIL);
    assert!(
        honest_rate >= 500.0 * 0.98,
        "honest user's rate {honest_rate:.1} must not fall below isolation (500)"
    );
}

/// Under the Eq. 3 baseline, the same coalition *does* hurt the honest user
/// — the contrast that motivates the peer-wise rule.
#[test]
fn coalition_succeeds_against_global_proportional() {
    let mut peers = vec![PeerConfig::honest(500.0, Demand::Saturated)];
    for _ in 0..4 {
        peers.push(
            PeerConfig::honest(500.0, Demand::Saturated)
                .with_strategy(Strategy::FreeRider)
                .with_declared_factor(100.0),
        );
    }
    let trace =
        SlotSimulator::new(SimConfig::new(peers, RuleKind::GlobalProportional).with_seed(5)).run(T);
    let honest_rate = trace.mean_download_rate(0, TAIL);
    assert!(
        honest_rate < 500.0 * 0.25,
        "under Eq. 3 the coalition should capture the honest peer's bandwidth \
         (honest rate = {honest_rate:.1})"
    );
}

/// A self-only defector neither gains nor loses relative to isolation, and
/// cooperators are unaffected asymptotically.
#[test]
fn self_only_defector_gets_isolation_rate() {
    let peers = vec![
        PeerConfig::honest(400.0, Demand::Saturated),
        PeerConfig::honest(400.0, Demand::Saturated),
        PeerConfig::honest(400.0, Demand::Saturated).with_strategy(Strategy::SelfOnly),
    ];
    let trace = SlotSimulator::new(SimConfig::new(peers, RuleKind::PeerWise).with_seed(6)).run(T);
    let defector = trace.mean_download_rate(2, TAIL);
    assert!(
        (defector - 400.0).abs() < 8.0,
        "self-only defector rate {defector:.1} ≈ its own capacity"
    );
    for j in 0..2 {
        let rate = trace.mean_download_rate(j, TAIL);
        assert!(
            (rate - 400.0).abs() < 8.0,
            "cooperator {j} rate {rate:.1} unaffected"
        );
    }
}

/// A late joiner is penalized relative to an equal peer that contributed
/// from the start, but recovers eventually (Fig. 7 / Fig. 8(a) behaviour).
#[test]
fn late_joiner_penalized_then_recovers() {
    let join = 5_000u64;
    let peers = vec![
        PeerConfig::honest(512.0, Demand::SaturatedFrom { start: join }),
        PeerConfig::honest(512.0, Demand::SaturatedFrom { start: join }).with_strategy(
            Strategy::JoinAt {
                start: join,
                then: RuleKind::PeerWise,
            },
        ),
        PeerConfig::honest(512.0, Demand::Saturated),
        PeerConfig::honest(512.0, Demand::Saturated),
    ];
    let trace = SlotSimulator::new(SimConfig::new(peers, RuleKind::PeerWise).with_seed(7)).run(T);
    // At the joining instant the credited contributor gets more than twice
    // the late joiner's service; the gap then decays but persists.
    let at_join0 = trace.download_series(0)[join as usize];
    let at_join1 = trace.download_series(1)[join as usize];
    assert!(
        at_join0 > at_join1 * 2.0,
        "at join: credited {at_join0:.1} vs late {at_join1:.1}"
    );
    let early_window = join as usize..join as usize + 1_000;
    let early0 = trace.mean_download_rate(0, early_window.clone());
    let early1 = trace.mean_download_rate(1, early_window);
    assert!(
        early0 > early1 * 1.05,
        "credited contributor ({early0:.1}) should beat the late joiner ({early1:.1})"
    );
    let tail0 = trace.mean_download_rate(0, TAIL);
    let tail1 = trace.mean_download_rate(1, TAIL);
    assert!(
        tail0 > tail1,
        "ordering persists asymptotically ({tail0:.1} vs {tail1:.1})"
    );
    // Long after, both settle near their capacity.
    let late1 = trace.mean_download_rate(1, TAIL);
    assert!(
        late1 > 512.0 * 0.80,
        "late joiner recovers most of its fair share ({late1:.1})"
    );
}

/// History discounting speeds up adaptation to a capacity drop (the paper's
/// suggested fix for its "slow dynamics").
#[test]
fn discounting_speeds_adaptation() {
    use asymshare_alloc::CapacityProfile;
    let build = |discount: f64| {
        let mut peers: Vec<PeerConfig> = (0..5)
            .map(|_| PeerConfig::honest(1024.0, Demand::Saturated))
            .collect();
        peers[0] = peers[0]
            .clone()
            .with_capacity_profile(CapacityProfile::Piecewise(vec![
                (0, 1024.0),
                (4_000, 256.0),
            ]));
        SlotSimulator::new(
            SimConfig::new(peers, RuleKind::PeerWise)
                .with_seed(8)
                .with_discount(discount),
        )
        .run(8_000)
    };
    let plain = build(1.0);
    let discounted = build(0.999);
    // 2000 slots after the drop, the discounted system has pushed peer 0
    // closer to its new fair share (256) than the plain cumulative system.
    let window = 5_500..6_000;
    let plain_rate = plain.mean_download_rate(0, window.clone());
    let discounted_rate = discounted.mean_download_rate(0, window);
    assert!(
        discounted_rate < plain_rate,
        "discounted ({discounted_rate:.1}) adapts down faster than plain ({plain_rate:.1})"
    );
}

/// Fairness among the users actually contending for a slot, under the
/// paper's model (credit earned by *uploading*): 64 equal peers each
/// requesting with γ = 0.3 must split every slot's bandwidth evenly among
/// that slot's requesters, from slot 0 onward. A stepper that credits
/// bytes *received* locks in whoever asked first (slot-0 requesters then
/// hold hundreds of times the initial credit of everyone else) and fails
/// this from slot 1.
#[test]
fn jain_over_requesters_holds_under_contention() {
    const N: usize = 64;
    const SLOTS: usize = 400;
    let peers: Vec<PeerConfig> = (0..N)
        .map(|_| PeerConfig::honest(1000.0, Demand::Bernoulli { gamma: 0.3 }))
        .collect();
    let trace = SlotSimulator::new(SimConfig::new(peers, RuleKind::PeerWise).with_seed(9))
        .run(SLOTS as u64);
    let mut contended = 0;
    for t in 0..SLOTS {
        let shares: Vec<f64> = (0..N)
            .filter(|&j| trace.was_requesting(j, t))
            .map(|j| trace.download_series(j)[t])
            .collect();
        if shares.len() < 2 {
            continue;
        }
        contended += 1;
        let jain = jain_index(&shares);
        assert!(
            jain >= 0.99,
            "slot {t}: Jain {jain:.4} over {} requesters",
            shares.len()
        );
    }
    assert!(contended > SLOTS / 2, "only {contended} contended slots");
}
