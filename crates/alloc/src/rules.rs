//! The allocation rules: Eq. 2 (peer-wise proportional), Eq. 3 (global
//! proportional) and an equal-split baseline.

use crate::ledger::ContributionLedger;

/// Which allocation rule a peer runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleKind {
    /// The paper's Equation (2): proportional to cumulative bandwidth
    /// *received from* each requesting peer — local, unforgeable history.
    PeerWise,
    /// The motivating baseline, Equation (3): proportional to requesters'
    /// *declared* upload capacities. Gameable by over-declaring.
    GlobalProportional,
    /// Equal split among requesters (credit-blind).
    EqualSplit,
}

/// Per-slot inputs an allocator sees when dividing peer `i`'s uplink.
#[derive(Debug, Clone)]
pub struct AllocationInputs<'a> {
    /// Index of the allocating peer.
    pub allocator: usize,
    /// The allocator's available upload capacity this slot (kbps).
    pub capacity: f64,
    /// `requesting[j]` — whether user `j` has a request this slot (`I_j(t)`).
    pub requesting: &'a [bool],
    /// Every peer's *declared* capacity (used by Eq. 3 only; honest peers
    /// declare their true μ, adversaries may inflate).
    pub declared: &'a [f64],
    /// The global contribution ledger (each peer only ever reads the column
    /// of transfers it received, preserving the locality property).
    pub ledger: &'a ContributionLedger,
}

/// Caller-owned scratch for [`allocate_into`]: a reusable weight row that
/// settles at its high-water mark after the first slot.
#[derive(Debug, Clone, Default)]
pub struct AllocScratch {
    /// Dense per-user weight row (`w_j` for the active rule, zero for a
    /// non-requester).
    pub weights: Vec<f64>,
}

impl AllocScratch {
    /// Empty scratch; the row grows on first use.
    pub fn new() -> AllocScratch {
        AllocScratch::default()
    }
}

/// Computes peer `i`'s allocation for one slot into caller-owned storage:
/// `out[j]` is the bandwidth devoted to user `j`, with `Σ_j out[j] ≤
/// capacity` and equality whenever at least one requester has positive
/// weight. Returns `true` exactly when the full capacity was divided
/// (otherwise `out` is all zeros — the bandwidth is simply unused that
/// slot, the "use it or lose it" the system exists to recycle).
///
/// The rule's weights go into `scratch`, with non-requesters (and negative
/// Eq.-3 declarations, the legacy `.max(0.0)` clamp) zeroed; then
/// `out[j] = w_j · (capacity / Σ w)`, the sum taken in a pinned 4-lane
/// order.
///
/// # Panics
///
/// Panics if `declared`, the ledger, or `out` disagree with
/// `requesting.len()`, or if `allocator` is out of range (for `n > 0`).
pub fn allocate_into(
    rule: RuleKind,
    inputs: &AllocationInputs<'_>,
    scratch: &mut AllocScratch,
    out: &mut [f64],
) -> bool {
    let n = inputs.requesting.len();
    assert_eq!(
        inputs.declared.len(),
        n,
        "declared capacities length mismatch"
    );
    assert_eq!(inputs.ledger.len(), n, "ledger size mismatch");
    assert_eq!(out.len(), n, "output length mismatch");
    if n == 0 {
        return false;
    }
    let weights = &mut scratch.weights;
    weights.clear();
    match rule {
        // Σ_{k<t} μ_ji(k): what each j has given this allocator — one
        // contiguous ledger row.
        RuleKind::PeerWise => {
            weights.resize(n, 0.0);
            inputs
                .ledger
                .write_weights_for_allocator(inputs.allocator, weights);
        }
        RuleKind::GlobalProportional => weights.extend_from_slice(inputs.declared),
        RuleKind::EqualSplit => weights.resize(n, 1.0),
    }
    for (w, &requesting) in weights.iter_mut().zip(inputs.requesting) {
        if !requesting || *w < 0.0 {
            *w = 0.0;
        }
    }
    let total = lane_sum(weights);
    // Written as negated comparisons on purpose: a NaN total (poisoned
    // credit row) must take the zeroing branch, which `total <= 0.0` or a
    // `partial_cmp` rewrite would silently stop doing.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(total > 0.0) || !(inputs.capacity > 0.0) || !total.is_finite() {
        out.fill(0.0);
        return false;
    }
    let scale = inputs.capacity / total;
    for (o, &w) in out.iter_mut().zip(weights.iter()) {
        *o = w * scale;
    }
    true
}

/// `Σ x` in the one order the committed figure CSVs carry the bits of:
/// element `i` adds into lane `i mod 4`, and the lanes are reduced as
/// `(acc0 + acc1) + (acc2 + acc3)`. Floating-point addition does not
/// associate, so a running sum would move the figures' last bits.
fn lane_sum(x: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    for (i, &v) in x.iter().enumerate() {
        acc[i % 4] += v;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`allocate_into`] with fresh scratch and a fresh output row.
    fn allocate(rule: RuleKind, inputs: &AllocationInputs<'_>) -> Vec<f64> {
        let mut out = vec![0.0f64; inputs.requesting.len()];
        allocate_into(rule, inputs, &mut AllocScratch::new(), &mut out);
        out
    }

    fn ledger_3() -> ContributionLedger {
        let mut ledger = ContributionLedger::new(3, 0.0);
        // Peer 1 has given peer 0 a total of 300; peer 2 has given 100.
        ledger.credit(1, 0, 300.0);
        ledger.credit(2, 0, 100.0);
        ledger
    }

    #[test]
    fn peer_wise_splits_by_received_history() {
        let ledger = ledger_3();
        let requesting = [false, true, true];
        let declared = [100.0, 100.0, 100.0];
        let out = allocate(
            RuleKind::PeerWise,
            &AllocationInputs {
                allocator: 0,
                capacity: 400.0,
                requesting: &requesting,
                declared: &declared,
                ledger: &ledger,
            },
        );
        assert_eq!(out, vec![0.0, 300.0, 100.0]);
    }

    #[test]
    fn peer_wise_ignores_non_requesters() {
        let ledger = ledger_3();
        let requesting = [false, false, true];
        let declared = [100.0; 3];
        let out = allocate(
            RuleKind::PeerWise,
            &AllocationInputs {
                allocator: 0,
                capacity: 400.0,
                requesting: &requesting,
                declared: &declared,
                ledger: &ledger,
            },
        );
        assert_eq!(
            out,
            vec![0.0, 0.0, 400.0],
            "entire capacity to the sole requester"
        );
    }

    #[test]
    fn global_proportional_uses_declared() {
        let ledger = ContributionLedger::new(3, 0.0);
        let requesting = [true, true, false];
        let declared = [100.0, 300.0, 999.0];
        let out = allocate(
            RuleKind::GlobalProportional,
            &AllocationInputs {
                allocator: 2,
                capacity: 800.0,
                requesting: &requesting,
                declared: &declared,
                ledger: &ledger,
            },
        );
        assert_eq!(out, vec![200.0, 600.0, 0.0]);
    }

    #[test]
    fn equal_split_is_uniform() {
        let ledger = ContributionLedger::new(4, 0.0);
        let requesting = [true, false, true, true];
        let declared = [1.0; 4];
        let out = allocate(
            RuleKind::EqualSplit,
            &AllocationInputs {
                allocator: 1,
                capacity: 300.0,
                requesting: &requesting,
                declared: &declared,
                ledger: &ledger,
            },
        );
        assert_eq!(out, vec![100.0, 0.0, 100.0, 100.0]);
    }

    #[test]
    fn no_requesters_no_allocation() {
        let ledger = ledger_3();
        let requesting = [false; 3];
        let declared = [100.0; 3];
        for rule in [
            RuleKind::PeerWise,
            RuleKind::GlobalProportional,
            RuleKind::EqualSplit,
        ] {
            let out = allocate(
                rule,
                &AllocationInputs {
                    allocator: 0,
                    capacity: 500.0,
                    requesting: &requesting,
                    declared: &declared,
                    ledger: &ledger,
                },
            );
            assert_eq!(out, vec![0.0; 3]);
        }
    }

    #[test]
    fn zero_weight_requesters_get_nothing_even_alone() {
        // A free-rider with zero accumulated credit gets nothing under Eq. 2
        // once its initial credit is exhausted.
        let ledger = ContributionLedger::new(2, 0.0);
        let requesting = [false, true];
        let declared = [100.0; 2];
        let out = allocate(
            RuleKind::PeerWise,
            &AllocationInputs {
                allocator: 0,
                capacity: 100.0,
                requesting: &requesting,
                declared: &declared,
                ledger: &ledger,
            },
        );
        assert_eq!(out, vec![0.0, 0.0]);
    }

    #[test]
    fn allocate_into_reuses_scratch_and_matches_wrapper() {
        let ledger = ledger_3();
        let requesting = [false, true, true];
        let declared = [100.0, -5.0, 100.0];
        let mut scratch = AllocScratch::new();
        let mut out = [f64::NAN; 3];
        for rule in [
            RuleKind::PeerWise,
            RuleKind::GlobalProportional,
            RuleKind::EqualSplit,
        ] {
            let inputs = AllocationInputs {
                allocator: 0,
                capacity: 400.0,
                requesting: &requesting,
                declared: &declared,
                ledger: &ledger,
            };
            let full = allocate_into(rule, &inputs, &mut scratch, &mut out);
            let legacy = allocate(rule, &inputs);
            assert_eq!(out.as_slice(), legacy.as_slice(), "{rule:?}");
            assert!(full, "{rule:?} has a positive-weight requester");
        }
    }

    #[test]
    fn lane_sum_keeps_the_four_lane_order() {
        // 1e16 absorbs a lone 1.0 but not 2.0, so the lane order (which
        // pairs lanes 2 and 3 first) and a running sum end on different bits.
        let x = [1e16, 1.0, 1.0, 1.0, 1.0];
        let lanes = ((1e16f64 + 1.0) + 1.0) + (1.0 + 1.0);
        assert_eq!(lane_sum(&x).to_bits(), lanes.to_bits());
        assert_ne!(lanes, x.iter().sum::<f64>());
    }

    #[test]
    fn negative_declared_capacity_is_clamped_out() {
        let ledger = ContributionLedger::new(2, 0.0);
        let requesting = [true, true];
        let declared = [-50.0, 100.0];
        let out = allocate(
            RuleKind::GlobalProportional,
            &AllocationInputs {
                allocator: 0,
                capacity: 300.0,
                requesting: &requesting,
                declared: &declared,
                ledger: &ledger,
            },
        );
        assert_eq!(out, vec![0.0, 300.0]);
    }

    #[test]
    fn allocation_conserves_capacity() {
        let ledger = ledger_3();
        let requesting = [true, true, true];
        let declared = [10.0, 20.0, 30.0];
        for rule in [
            RuleKind::PeerWise,
            RuleKind::GlobalProportional,
            RuleKind::EqualSplit,
        ] {
            let out = allocate(
                rule,
                &AllocationInputs {
                    allocator: 0,
                    capacity: 123.0,
                    requesting: &requesting,
                    declared: &declared,
                    ledger: &ledger,
                },
            );
            let total: f64 = out.iter().sum();
            assert!((total - 123.0).abs() < 1e-9, "{rule:?} total {total}");
            assert!(out.iter().all(|&v| v >= 0.0));
        }
    }
}
