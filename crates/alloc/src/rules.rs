//! The allocation rules: Eq. 2 (peer-wise proportional), Eq. 3 (global
//! proportional) and an equal-split baseline.

use crate::kernels;
use crate::ledger::ContributionLedger;
use crate::mask::RequestMask;

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

/// Caller-owned scratch for [`allocate_into`]: a reusable weight row and
/// request mask that settle at their high-water marks after the first slot.
#[derive(Debug, Clone, Default)]
pub struct AllocScratch {
    /// Dense per-user weight row (`w_j` for the active rule).
    pub weights: Vec<f64>,
    /// Packed request mask for the slot.
    pub mask: RequestMask,
}

impl AllocScratch {
    /// Empty scratch; buffers grow on first use.
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
/// This is the zero-allocation hot path: weights and the packed request
/// mask live in `scratch` (which settles at its high-water mark after the
/// first call), and the masked weighted normalize runs through
/// [`kernels`](crate::kernels).
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
    scratch.mask.fill_from_bools(inputs.requesting);
    scratch.weights.clear();
    match rule {
        RuleKind::PeerWise => {
            // Σ_{k<t} μ_ji(k): what each j has given this allocator — one
            // contiguous ledger row, no per-pair lookups.
            scratch.weights.resize(n, 0.0);
            inputs
                .ledger
                .write_weights_for_allocator(inputs.allocator, &mut scratch.weights);
        }
        RuleKind::GlobalProportional => {
            scratch.weights.extend_from_slice(inputs.declared);
            // A negative declaration contributes nothing (the legacy
            // `.max(0.0)` clamp), expressed as a cleared mask bit so the
            // kernels only ever see non-negative selected weights.
            for (j, &d) in inputs.declared.iter().enumerate() {
                if d < 0.0 {
                    scratch.mask.unset(j);
                }
            }
        }
        RuleKind::EqualSplit => {
            scratch.weights.resize(n, 1.0);
        }
    }
    kernels::normalize_masked_into(&scratch.weights, scratch.mask.words(), inputs.capacity, out)
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
