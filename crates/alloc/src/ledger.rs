//! The contribution ledger: every peer's local record of received bandwidth.
//!
//! `cumulative(i, j)` is `Σ_{k<t} μ_ij(k)` — the total bandwidth peer `i`
//! has uploaded to user `j` so far, in kbps-slots (= kilobits when slots are
//! seconds). Peer `i`'s Eq.-2 weight for user `j` is the *transpose* entry
//! `cumulative(j, i)`: what `j` has given `i`. Each peer can measure its
//! row's incoming transfers locally, which is exactly why the rule needs no
//! control traffic and cannot be lied to.
//!
//! Storage is O(active pairs), not O(n²): each receiver keeps a sorted
//! `SparseRow` of the peers that actually credited it, and every
//! non-materialized pair carries a shared `baseline` value (the paper's
//! uniform initial credit). A freshly seeded ledger therefore stores
//! nothing at all, and [`discount`](ContributionLedger::discount)
//! scales the baseline alongside the materialized entries — the exact same
//! multiply the dense matrix applied to every cell.

/// A sparse row: parallel sorted arrays of `u32` indices and `f64` values.
/// Indices not present carry an implicit caller-supplied baseline value
/// (the ledger's uniform initial credit).
#[derive(Debug, Clone, Default)]
struct SparseRow {
    idx: Vec<u32>,
    val: Vec<f64>,
}

impl SparseRow {
    /// Number of materialized entries.
    fn len(&self) -> usize {
        self.idx.len()
    }

    /// The materialized indices, ascending.
    fn indices(&self) -> &[u32] {
        &self.idx
    }

    /// The values parallel to [`indices`](Self::indices).
    fn values(&self) -> &[f64] {
        &self.val
    }

    /// The value at `i`, or `baseline` if `i` is not materialized.
    #[inline]
    fn get(&self, i: u32, baseline: f64) -> f64 {
        match self.idx.binary_search(&i) {
            Ok(pos) => self.val[pos],
            Err(_) => baseline,
        }
    }

    /// Adds `amount` to entry `i`, materializing it at `baseline` first if
    /// absent.
    #[inline]
    fn add(&mut self, i: u32, baseline: f64, amount: f64) {
        match self.idx.binary_search(&i) {
            Ok(pos) => self.val[pos] += amount,
            Err(pos) => {
                self.idx.insert(pos, i);
                self.val.insert(pos, baseline + amount);
            }
        }
    }

    /// Multiplies every materialized value by `factor` (the baseline is the
    /// caller's to scale).
    fn scale(&mut self, factor: f64) {
        for v in &mut self.val {
            *v *= factor;
        }
    }
}

/// Logically an `n × n` cumulative-contribution matrix; physically one
/// sparse row per *receiver* plus a baseline for untouched pairs, so the
/// Eq.-2 weight row (`weight[j] = cumulative(j, i)`) is a single contiguous
/// row read.
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
#[derive(Debug, Clone)]
pub struct ContributionLedger {
    n: usize,
    /// The value of every pair no `credit` call has touched.
    baseline: f64,
    /// `recv[to]`: sparse row mapping `from` → cumulative transfer.
    recv: Vec<SparseRow>,
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
            baseline: initial_credit,
            recv: vec![SparseRow::default(); n],
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

    /// Number of materialized (explicitly credited) pairs; everything else
    /// sits at the shared baseline.
    pub fn active_pairs(&self) -> usize {
        self.recv.iter().map(SparseRow::len).sum()
    }

    /// Total bandwidth peer `from` has uploaded to user `to`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    #[inline]
    pub fn cumulative(&self, from: usize, to: usize) -> f64 {
        assert!(from < self.n && to < self.n, "peer index out of range");
        self.recv[to].get(from as u32, self.baseline)
    }

    /// Records `amount` of `from` → `to` transfer during one slot.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices or a negative/non-finite amount.
    #[inline]
    pub fn credit(&mut self, from: usize, to: usize, amount: f64) {
        assert!(from < self.n && to < self.n, "peer index out of range");
        assert!(
            amount >= 0.0 && amount.is_finite(),
            "credit must be finite and non-negative"
        );
        self.recv[to].add(from as u32, self.baseline, amount);
    }

    /// Writes peer `i`'s Eq.-2 weight vector into `out`: `out[j] =
    /// cumulative(j, i)`, what each peer `j` has contributed *to* `i`
    /// historically. Fills the baseline, then overwrites the materialized
    /// entries of receiver `i`'s row.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or `out` is not `n` long.
    pub fn write_weights_for_allocator(&self, i: usize, out: &mut [f64]) {
        assert!(i < self.n, "peer index out of range");
        assert_eq!(out.len(), self.n, "weight row length mismatch");
        out.fill(self.baseline);
        let row = &self.recv[i];
        for (&j, &v) in row.indices().iter().zip(row.values()) {
            out[j as usize] = v;
        }
    }

    /// Applies exponential discounting to all history (the "disproportionately
    /// weighing newer contributions over older ones" speed-up the paper
    /// suggests for its slow dynamics, §V-A): every entry is multiplied by
    /// `factor ∈ (0, 1]` once per slot — one baseline multiply plus one per
    /// materialized pair, never n².
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
        self.baseline *= factor;
        for row in &mut self.recv {
            row.scale(factor);
        }
    }
}

/// Logical (cell-wise) equality: two ledgers are equal when every
/// `cumulative(i, j)` agrees, regardless of which pairs happen to be
/// materialized (e.g. a `credit(i, j, 0.0)` materializes a pair at the
/// baseline without changing any value).
impl PartialEq for ContributionLedger {
    fn eq(&self, other: &Self) -> bool {
        if self.n != other.n {
            return false;
        }
        if self.baseline == other.baseline {
            // Same baseline: only materialized pairs can differ.
            for (a, b) in self.recv.iter().zip(&other.recv) {
                for &from in a.indices().iter().chain(b.indices()) {
                    if a.get(from, self.baseline) != b.get(from, other.baseline) {
                        return false;
                    }
                }
            }
            true
        } else {
            (0..self.n).all(|to| {
                (0..self.n).all(|from| self.cumulative(from, to) == other.cumulative(from, to))
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_row_baseline_and_materialization() {
        let mut row = SparseRow::default();
        assert_eq!(row.get(7, 1.5), 1.5, "absent entries read the baseline");
        row.add(7, 1.5, 2.0);
        assert_eq!(row.get(7, 1.5), 3.5, "baseline + amount on first touch");
        row.add(3, 1.5, 0.5);
        assert_eq!(row.indices(), &[3, 7], "kept sorted");
        row.add(7, 1.5, 1.0);
        assert_eq!(row.get(7, 1.5), 4.5);
        assert_eq!(row.len(), 2);
    }

    #[test]
    fn sparse_row_scale_touches_only_materialized() {
        let mut row = SparseRow::default();
        row.add(0, 2.0, 2.0);
        row.scale(0.5);
        assert_eq!(row.get(0, 2.0), 2.0);
        assert_eq!(row.get(1, 2.0), 2.0, "baseline untouched by row scale");
    }

    #[test]
    fn initial_credit_fills_all_pairs() {
        let ledger = ContributionLedger::new(3, 0.5);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(ledger.cumulative(i, j), 0.5);
            }
        }
        assert_eq!(ledger.active_pairs(), 0, "seeding materializes nothing");
    }

    #[test]
    fn credit_accumulates() {
        let mut ledger = ContributionLedger::new(2, 0.0);
        ledger.credit(0, 1, 100.0);
        ledger.credit(0, 1, 28.0);
        assert_eq!(ledger.cumulative(0, 1), 128.0);
        assert_eq!(ledger.cumulative(1, 0), 0.0);
        assert_eq!(ledger.active_pairs(), 1);
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
        a.credit(0, 1, 0.0); // materializes (0, 1) at the baseline
        assert_eq!(a.active_pairs(), 1);
        assert_eq!(b.active_pairs(), 0);
        assert_eq!(a, b, "zero-credit materialization is invisible");
        a.credit(0, 1, 1.0);
        assert_ne!(a, b);
    }

    #[test]
    fn equality_across_different_baselines() {
        // All-pairs 1.0 via baseline vs via explicit credits.
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
