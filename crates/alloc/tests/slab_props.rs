//! Differential property tests for the Eq.-2 oracle: [`allocate_into`]
//! must agree with a straight-line reimplementation of the legacy
//! per-slot allocator to floating-point tolerance (`allocate_into` sums
//! in a fixed 4-lane order, the legacy loop with a single accumulator, so
//! sums differ in the last ulps).
//!
//! Also pinned here: the allocation invariant `Σ_j out[j] ≤ capacity`
//! with equality exactly when some requester carries positive weight, and
//! the receiver-major [`ContributionLedger`] against a plain `n × n`
//! shadow matrix, bit for bit, under random credit/discount
//! interleavings.

use asymshare_alloc::{
    allocate_into, AllocScratch, AllocationInputs, ContributionLedger, RuleKind,
};
use proptest::prelude::*;

/// The pre-slab allocator, re-derived from Eq. 2/3 as straight-line code:
/// select weights by rule, zero non-requesters, single-accumulator sum,
/// proportional split. Kept deliberately naive — it is the semantic oracle
/// the optimized path is measured against.
fn legacy_allocate(rule: RuleKind, inputs: &AllocationInputs<'_>) -> Vec<f64> {
    let n = inputs.requesting.len();
    let weights: Vec<f64> = (0..n)
        .map(|j| {
            if !inputs.requesting[j] {
                return 0.0;
            }
            match rule {
                RuleKind::PeerWise => inputs.ledger.cumulative(j, inputs.allocator),
                RuleKind::GlobalProportional => inputs.declared[j].max(0.0),
                RuleKind::EqualSplit => 1.0,
            }
        })
        .collect();
    let total: f64 = weights.iter().sum();
    // Negated on purpose, mirroring the kernel: NaN must zero the row.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(total > 0.0) || !(inputs.capacity > 0.0) || !total.is_finite() {
        return vec![0.0; n];
    }
    weights
        .iter()
        .map(|&w| inputs.capacity * w / total)
        .collect()
}

#[derive(Debug, Clone)]
struct Instance {
    capacity: f64,
    requesting: Vec<bool>,
    declared: Vec<f64>,
    /// Sparse credit entries `(from, to, amount)` applied to the ledger.
    credits: Vec<(usize, usize, f64)>,
    allocator: usize,
}

fn arb_instance() -> impl Strategy<Value = Instance> {
    (1usize..96).prop_flat_map(|n| {
        (
            // Roughly one instance in eight gets zero capacity, so the
            // degenerate "nothing to divide" branch is always exercised.
            0u8..8,
            0.0f64..5_000.0,
            proptest::collection::vec(any::<bool>(), n),
            // Mix in negative declarations to exercise the weight-zeroing
            // equivalent of the legacy `.max(0.0)` clamp.
            proptest::collection::vec(-200.0f64..2_000.0, n),
            proptest::collection::vec((0..n, 0..n, 0.0f64..500.0), 0..32),
            0..n,
        )
            .prop_map(
                |(zero_cap, capacity, requesting, declared, credits, allocator)| Instance {
                    capacity: if zero_cap == 0 { 0.0 } else { capacity },
                    requesting,
                    declared,
                    credits,
                    allocator,
                },
            )
    })
}

fn build_ledger(inst: &Instance) -> ContributionLedger {
    let mut ledger = ContributionLedger::new(inst.requesting.len(), 0.0);
    for &(from, to, amount) in &inst.credits {
        if from != to {
            ledger.credit(from, to, amount);
        }
    }
    ledger
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `allocate_into` agrees with the legacy oracle across all three rules, arbitrary request masks,
    /// sparse credit histories, negative declarations, and degenerate
    /// capacities — to relative FP tolerance, since the kernels commit to
    /// a 4-lane accumulation order the legacy loop never had.
    #[test]
    fn allocate_into_matches_legacy_oracle(inst in arb_instance()) {
        let ledger = build_ledger(&inst);
        let inputs = AllocationInputs {
            allocator: inst.allocator,
            capacity: inst.capacity,
            requesting: &inst.requesting,
            declared: &inst.declared,
            ledger: &ledger,
        };
        let mut scratch = AllocScratch::new();
        for rule in [RuleKind::PeerWise, RuleKind::GlobalProportional, RuleKind::EqualSplit] {
            let oracle = legacy_allocate(rule, &inputs);
            let mut out = vec![f64::NAN; inst.requesting.len()];
            let divided = allocate_into(rule, &inputs, &mut scratch, &mut out);
            for j in 0..out.len() {
                let tol = 1e-9 * oracle[j].abs().max(1.0);
                prop_assert!(
                    (out[j] - oracle[j]).abs() <= tol,
                    "{rule:?} user {j}: slab {} vs legacy {}",
                    out[j], oracle[j]
                );
            }
            // `divided` reports whether capacity was split, which happens
            // exactly when the oracle hands out positive bandwidth.
            prop_assert_eq!(divided, oracle.iter().any(|&v| v > 0.0));
        }
    }

    /// The allocation invariant: `Σ_j out[j] ≤ capacity`, with equality
    /// (to FP tolerance) exactly when the rule found positive weight among
    /// requesters — otherwise the row is identically zero.
    #[test]
    fn allocation_conserves_capacity(inst in arb_instance()) {
        let ledger = build_ledger(&inst);
        let inputs = AllocationInputs {
            allocator: inst.allocator,
            capacity: inst.capacity,
            requesting: &inst.requesting,
            declared: &inst.declared,
            ledger: &ledger,
        };
        let mut scratch = AllocScratch::new();
        for rule in [RuleKind::PeerWise, RuleKind::GlobalProportional, RuleKind::EqualSplit] {
            let mut out = vec![0.0f64; inst.requesting.len()];
            let divided = allocate_into(rule, &inputs, &mut scratch, &mut out);
            let total: f64 = out.iter().sum();
            let slack = 1e-9 * inst.capacity.max(1.0);
            prop_assert!(total <= inst.capacity + slack, "{rule:?}: {total} > {}", inst.capacity);
            prop_assert!(out.iter().all(|&v| v >= 0.0), "{rule:?}: negative allocation");
            for (j, &req) in inst.requesting.iter().enumerate() {
                if !req {
                    prop_assert_eq!(out[j], 0.0, "{:?}: unrequested service to {}", rule, j);
                }
            }
            if divided {
                prop_assert!(
                    (total - inst.capacity).abs() <= slack,
                    "{rule:?}: divided but {total} != {}", inst.capacity
                );
            } else {
                prop_assert!(out.iter().all(|&v| v == 0.0), "{rule:?}: partial division");
            }
        }
    }

    /// The receiver-major ledger reads, cell for cell and bit for bit, what
    /// a plain `n × n` matrix holds under arbitrary interleavings of
    /// credits and discounts.
    #[test]
    fn ledger_matches_dense_shadow(
        n in 1usize..24,
        initial in 0.0f64..10.0,
        ops in proptest::collection::vec((any::<u16>(), any::<u16>(), 0.0f64..100.0, any::<bool>()), 0..64),
    ) {
        let mut ledger = ContributionLedger::new(n, initial);
        let mut dense = vec![vec![initial; n]; n];
        for &(from, to, amount, is_discount) in &ops {
            if is_discount {
                // Discount factors in (0, 1]: reuse `amount` as a fraction.
                let factor = 1.0 - (amount / 100.0) * 0.5;
                ledger.discount(factor);
                for row in &mut dense {
                    for cell in row.iter_mut() {
                        *cell *= factor;
                    }
                }
            } else {
                let from = from as usize % n;
                let to = to as usize % n;
                if from == to {
                    continue;
                }
                ledger.credit(from, to, amount);
                dense[from][to] += amount;
            }
        }
        for (from, dense_row) in dense.iter().enumerate() {
            for (to, &cell) in dense_row.iter().enumerate() {
                prop_assert_eq!(
                    ledger.cumulative(from, to).to_bits(),
                    cell.to_bits(),
                    "cell ({}, {})", from, to
                );
            }
        }
    }
}

#[test]
fn empty_population_allocates_nothing() {
    let ledger = ContributionLedger::new(0, 0.0);
    let inputs = AllocationInputs {
        allocator: 0,
        capacity: 100.0,
        requesting: &[],
        declared: &[],
        ledger: &ledger,
    };
    let mut out = [0.0f64; 0];
    assert!(!allocate_into(
        RuleKind::PeerWise,
        &inputs,
        &mut AllocScratch::new(),
        &mut out
    ));
}

#[test]
fn zero_capacity_and_no_requesters_zero_out() {
    let ledger = ContributionLedger::new(3, 1.0);
    let declared = [10.0, 10.0, 10.0];
    let mut scratch = AllocScratch::new();
    let mut out = [f64::NAN; 3];
    // Zero capacity: weights exist but there is nothing to divide.
    assert!(!allocate_into(
        RuleKind::PeerWise,
        &AllocationInputs {
            allocator: 0,
            capacity: 0.0,
            requesting: &[true, true, true],
            declared: &declared,
            ledger: &ledger,
        },
        &mut scratch,
        &mut out
    ));
    assert_eq!(out, [0.0; 3]);
    // No requesters: capacity exists but nobody asked.
    let mut out = [f64::NAN; 3];
    assert!(!allocate_into(
        RuleKind::GlobalProportional,
        &AllocationInputs {
            allocator: 0,
            capacity: 500.0,
            requesting: &[false, false, false],
            declared: &declared,
            ledger: &ledger,
        },
        &mut scratch,
        &mut out
    ));
    assert_eq!(out, [0.0; 3]);
}
