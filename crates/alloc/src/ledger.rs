//! The contribution ledger: every peer's local record of received bandwidth.
//!
//! `cumulative(i, j)` is `Σ_{k<t} μ_ij(k)` — the total bandwidth peer `i`
//! has uploaded to user `j` so far, in kbps-slots (= kilobits when slots are
//! seconds). Peer `i`'s Eq.-2 weight for user `j` is the *transpose* entry
//! `cumulative(j, i)`: what `j` has given `i`. Each peer can measure its
//! row's incoming transfers locally, which is exactly why the rule needs no
//! control traffic and cannot be lied to.

/// An `n × n` cumulative-contribution matrix, stored receiver-major, so
/// the Eq.-2 weight row (`weight[j] = cumulative(j, i)`) is receiver `i`'s
/// contiguous row.
///
/// # Example
///
/// ```rust
/// use asymshare_alloc::ContributionLedger;
///
/// let mut ledger = ContributionLedger::new(2, 0.0);
/// ledger.credit(0, 1, 256.0);
/// assert_eq!(ledger.cumulative(0, 1), 256.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ContributionLedger {
    n: usize,
    /// `cells[to * n + from]`: what `from` has uploaded to `to`.
    cells: Vec<f64>,
}

impl ContributionLedger {
    /// A ledger for `n` peers, every pair seeded with `initial_credit`
    /// (the paper's "arbitrary small positive initial values for μ_ji(0)").
    ///
    /// # Panics
    ///
    /// Panics if `initial_credit` is negative or not finite.
    pub fn new(n: usize, initial_credit: f64) -> Self {
        assert!(
            initial_credit >= 0.0 && initial_credit.is_finite(),
            "initial credit must be a finite non-negative value"
        );
        ContributionLedger {
            n,
            cells: vec![initial_credit; n * n],
        }
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the ledger tracks zero peers.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The cell index of `from → to`; panics on out-of-range indices.
    #[inline]
    fn cell(&self, from: usize, to: usize) -> usize {
        assert!(from < self.n && to < self.n, "peer index out of range");
        to * self.n + from
    }

    /// Total bandwidth peer `from` has uploaded to user `to`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    #[inline]
    pub fn cumulative(&self, from: usize, to: usize) -> f64 {
        self.cells[self.cell(from, to)]
    }

    /// Records `amount` of `from` → `to` transfer during one slot.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices or a negative/non-finite amount.
    #[inline]
    pub fn credit(&mut self, from: usize, to: usize, amount: f64) {
        let cell = self.cell(from, to);
        assert!(
            amount >= 0.0 && amount.is_finite(),
            "credit must be finite and non-negative"
        );
        self.cells[cell] += amount;
    }

    /// Writes peer `i`'s Eq.-2 weight vector into `out`: `out[j] =
    /// cumulative(j, i)`, what each peer `j` has contributed *to* `i`
    /// historically — receiver `i`'s row.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or `out` is not `n` long.
    pub fn write_weights_for_allocator(&self, i: usize, out: &mut [f64]) {
        assert!(i < self.n, "peer index out of range");
        out.copy_from_slice(&self.cells[i * self.n..(i + 1) * self.n]);
    }

    /// Applies exponential discounting to all history (the "disproportionately
    /// weighing newer contributions over older ones" speed-up the paper
    /// suggests for its slow dynamics, §V-A): every entry is multiplied by
    /// `factor ∈ (0, 1]` once per slot.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < factor <= 1`.
    pub fn discount(&mut self, factor: f64) {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "discount factor must be in (0, 1]"
        );
        if factor == 1.0 {
            return;
        }
        for cell in &mut self.cells {
            *cell *= factor;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_credit_fills_all_pairs() {
        let ledger = ContributionLedger::new(3, 0.5);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(ledger.cumulative(i, j), 0.5);
            }
        }
    }

    #[test]
    fn credit_accumulates() {
        let mut ledger = ContributionLedger::new(2, 0.0);
        ledger.credit(0, 1, 100.0);
        ledger.credit(0, 1, 28.0);
        assert_eq!(ledger.cumulative(0, 1), 128.0);
        assert_eq!(ledger.cumulative(1, 0), 0.0);
    }

    #[test]
    fn weights_are_the_transpose_row() {
        let mut ledger = ContributionLedger::new(3, 0.0);
        ledger.credit(1, 0, 7.0); // peer 1 gave user 0
        ledger.credit(2, 0, 3.0); // peer 2 gave user 0
        let mut row = vec![f64::NAN; 3];
        ledger.write_weights_for_allocator(0, &mut row);
        assert_eq!(row, vec![0.0, 7.0, 3.0]);
    }

    #[test]
    fn discount_scales_everything() {
        let mut ledger = ContributionLedger::new(2, 1.0);
        ledger.credit(0, 1, 1.0);
        ledger.discount(0.5);
        assert_eq!(ledger.cumulative(0, 1), 1.0);
        assert_eq!(ledger.cumulative(1, 0), 0.5);
    }

    #[test]
    fn equality_is_logical_not_structural() {
        let mut a = ContributionLedger::new(3, 2.0);
        let b = ContributionLedger::new(3, 2.0);
        a.credit(0, 1, 0.0);
        assert_eq!(a, b, "a zero credit changes no cell");
        a.credit(0, 1, 1.0);
        assert_ne!(a, b);
    }

    #[test]
    fn equality_across_different_baselines() {
        // All-pairs 1.0 via the initial credit vs via explicit credits.
        let a = ContributionLedger::new(2, 1.0);
        let mut b = ContributionLedger::new(2, 0.0);
        for i in 0..2 {
            for j in 0..2 {
                b.credit(i, j, 1.0);
            }
        }
        assert_eq!(a, b);
        b.credit(0, 0, 0.5);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        ContributionLedger::new(2, 0.0).cumulative(2, 0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_credit_panics() {
        ContributionLedger::new(2, 0.0).credit(0, 1, -1.0);
    }
}
