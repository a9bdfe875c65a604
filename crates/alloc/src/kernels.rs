//! The Eq.-2 inner loop: a masked weighted normalize over a contiguous
//! weight row `w` and a packed request bitmask `I`,
//!
//! ```text
//! total  = Σ_j I_j · w_j                (masked sum)
//! out_j  = I_j · w_j · (capacity/total) (masked scale)
//! ```
//!
//! Floating-point addition is not associative, and the committed figure
//! CSVs carry the bits of one particular summation order, so that order is
//! the spec: four independent lane accumulators, element `i` adding
//! `select(I_i, w_i, 0.0)` into lane `i mod 4`, reduced as
//! `(acc0 + acc1) + (acc2 + acc3)`. The scale is elementwise
//! `select(I_i, w_i, 0.0) * scale`, with no reassociation anywhere.
//!
//! **Input contract:** weights must be non-negative and non-NaN (ledger
//! credits are asserted non-negative and finite at the API layer; negative
//! declared capacities are masked out by the caller, never fed through).

use crate::mask::words_for;

/// Number of independent accumulator lanes in the canonical sum order.
const LANES: usize = 4;

#[inline(always)]
fn bit(mask: &[u64], i: usize) -> bool {
    (mask[i >> 6] >> (i & 63)) & 1 == 1
}

#[inline(always)]
fn check_mask_coverage(len: usize, mask: &[u64]) {
    assert!(
        mask.len() >= words_for(len),
        "mask too short: {} words for {len} elements",
        mask.len()
    );
}

/// Masked sum in the canonical 4-lane order.
fn masked_sum(x: &[f64], mask: &[u64]) -> f64 {
    check_mask_coverage(x.len(), mask);
    let mut acc = [0.0f64; LANES];
    for (i, &v) in x.iter().enumerate() {
        acc[i % LANES] += if bit(mask, i) { v } else { 0.0 };
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Masked scale: `out[i] = select(I_i, x[i], 0.0) * scale`. The one
/// caller has already checked the lengths and the mask coverage.
fn masked_scale(x: &[f64], mask: &[u64], scale: f64, out: &mut [f64]) {
    for (i, (&v, o)) in x.iter().zip(out.iter_mut()).enumerate() {
        *o = (if bit(mask, i) { v } else { 0.0 }) * scale;
    }
}

/// One whole Eq.-2 slot for one allocator, writing into caller-owned
/// storage and never allocating: `out[j] = I_j · w_j · capacity / Σ I·w`.
/// Returns `false` (zeroing `out`) when nothing can be allocated — zero or
/// non-finite total weight, or non-positive capacity — and `true` when the
/// full capacity was divided.
///
/// # Panics
///
/// Panics if lengths mismatch or the mask is too short.
pub(crate) fn normalize_masked_into(
    weights: &[f64],
    mask: &[u64],
    capacity: f64,
    out: &mut [f64],
) -> bool {
    assert_eq!(weights.len(), out.len(), "normalize length mismatch");
    let total = masked_sum(weights, mask);
    // Written as negated comparisons on purpose: a NaN total (poisoned
    // credit row) must take the zeroing branch, which `total <= 0.0` or a
    // `partial_cmp` rewrite would silently stop doing.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(total > 0.0) || !(capacity > 0.0) || !total.is_finite() {
        out.fill(0.0);
        return false;
    }
    masked_scale(weights, mask, capacity / total, out);
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masked_sum_keeps_the_four_lane_order() {
        // 1e16 absorbs a lone 1.0 but not 2.0, so the lane order (which
        // pairs lanes 2 and 3 first) and a running sum end on different bits.
        let x = [1e16, 1.0, 1.0, 1.0, 1.0];
        let lanes = ((1e16f64 + 1.0) + 1.0) + (1.0 + 1.0);
        assert_eq!(masked_sum(&x, &[0b11111]).to_bits(), lanes.to_bits());
        assert_ne!(lanes, x.iter().sum::<f64>());
        // A cleared bit contributes +0.0 to its lane.
        assert_eq!(masked_sum(&x, &[0b11110]), 4.0);
    }

    #[test]
    fn normalize_divides_full_capacity() {
        let x = [3.0, 1.0, 4.0, 0.0, 2.0];
        let mask = [0b10111u64]; // users 0, 1, 2, 4
        let mut out = [f64::NAN; 5];
        assert!(normalize_masked_into(&x, &mask, 100.0, &mut out));
        assert_eq!(out[0], 30.0);
        assert_eq!(out[1], 10.0);
        assert_eq!(out[2], 40.0);
        assert_eq!(out[3], 0.0);
        assert_eq!(out[4], 20.0);
    }

    #[test]
    fn normalize_degenerate_cases_zero_out() {
        let x = [1.0, 2.0];
        let mut out = [f64::NAN; 2];
        assert!(!normalize_masked_into(&x, &[0u64], 100.0, &mut out));
        assert_eq!(out, [0.0, 0.0]);
        out = [f64::NAN; 2];
        assert!(!normalize_masked_into(&x, &[0b11u64], 0.0, &mut out));
        assert_eq!(out, [0.0, 0.0]);
        out = [f64::NAN; 2];
        assert!(!normalize_masked_into(
            &[0.0, 0.0],
            &[0b11u64],
            5.0,
            &mut out
        ));
        assert_eq!(out, [0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "mask too short")]
    fn short_mask_panics() {
        masked_sum(&[1.0; 65], &[0u64]);
    }
}
