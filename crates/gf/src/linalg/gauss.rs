//! Gaussian elimination: inversion, rank, solving, and incremental rank
//! tracking for coefficient-row admission at encode time.

use super::Matrix;
use crate::Field;

/// Inverts a square matrix by Gauss–Jordan elimination with partial
/// pivoting, returning `None` if the matrix is singular.
///
/// This is the `O(k³)` step of block decoding; for the paper's parameters
/// (`k ≤ 256`) it is negligible next to the `O(mk²)` payload combination.
///
/// # Panics
///
/// Panics if the matrix is not square.
pub fn invert<F: Field>(m: &Matrix<F>) -> Option<Matrix<F>> {
    let n = m.nrows();
    assert_eq!(n, m.ncols(), "can only invert a square matrix");
    let mut a = m.clone();
    let mut inv = Matrix::identity(n);
    for col in 0..n {
        let pivot = (col..n).find(|&r| a.get(r, col) != F::ZERO)?;
        a.swap_rows(col, pivot);
        inv.swap_rows(col, pivot);
        let p = a.get(col, col).inv();
        a.scale_row(col, p);
        inv.scale_row(col, p);
        for r in 0..n {
            if r != col {
                let factor = a.get(r, col);
                if factor != F::ZERO {
                    a.row_axpy(r, factor, col); // subtraction == addition in GF(2^p)
                    inv.row_axpy(r, factor, col);
                }
            }
        }
    }
    Some(inv)
}

/// Rank of an arbitrary matrix by forward elimination.
pub fn rank<F: Field>(m: &Matrix<F>) -> usize {
    let mut a = m.clone();
    let (nr, nc) = (a.nrows(), a.ncols());
    let mut r = 0usize;
    for c in 0..nc {
        if r == nr {
            break;
        }
        let Some(pivot) = (r..nr).find(|&row| a.get(row, c) != F::ZERO) else {
            continue;
        };
        a.swap_rows(r, pivot);
        let pinv = a.get(r, c).inv();
        a.scale_row(r, pinv);
        for row in (r + 1)..nr {
            let f = a.get(row, c);
            if f != F::ZERO {
                a.row_axpy(row, f, r);
            }
        }
        r += 1;
    }
    r
}

/// Solves `A x = b` for square `A`, returning `None` when `A` is singular.
///
/// # Panics
///
/// Panics if dimensions disagree.
pub fn solve<F: Field>(a: &Matrix<F>, b: &[F]) -> Option<Vec<F>> {
    assert_eq!(a.nrows(), b.len(), "rhs length must match rows");
    let inv = invert(a)?;
    Some(inv.mul_vec(b))
}

/// Incrementally tracks the rank of a growing set of rows.
///
/// The encoder uses this to guarantee the paper's property that *exactly*
/// `k` messages suffice to decode: each freshly drawn coefficient row is
/// admitted only if it is linearly independent of all rows admitted so far
/// ("simply testing generated rows for linear independence before
/// encoding", §III-A).
///
/// # Example
///
/// ```rust
/// use asymshare_gf::{linalg::RankTracker, Field, Gf256};
///
/// let mut t = RankTracker::new(2);
/// assert!(t.try_add(&[Gf256::new(1), Gf256::new(2)]));
/// assert!(!t.try_add(&[Gf256::new(2), Gf256::new(4)])); // dependent: 2 * row0
/// assert!(t.try_add(&[Gf256::new(0), Gf256::new(1)]));
/// assert!(t.is_full());
/// ```
#[derive(Debug, Clone)]
pub struct RankTracker<F> {
    width: usize,
    /// Reduced rows in echelon form, keyed by pivot column.
    echelon: Vec<Option<Vec<F>>>,
    rank: usize,
}

impl<F: Field> RankTracker<F> {
    /// A tracker for rows of `width` columns.
    pub fn new(width: usize) -> Self {
        RankTracker {
            width,
            echelon: vec![None; width],
            rank: 0,
        }
    }

    /// Current rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Whether the tracked rows already span the full space.
    pub fn is_full(&self) -> bool {
        self.rank == self.width
    }

    /// Attempts to add `row`; returns `true` iff it was linearly independent
    /// of the rows added so far (and is now incorporated).
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != width`.
    pub fn try_add(&mut self, row: &[F]) -> bool {
        assert_eq!(row.len(), self.width, "row width mismatch");
        let mut v = row.to_vec();
        for col in 0..self.width {
            if v[col] == F::ZERO {
                continue;
            }
            match &self.echelon[col] {
                Some(basis) => {
                    // v -= v[col] * basis  (basis has a 1 pivot at `col`)
                    let f = v[col];
                    F::axpy_slice(f, basis, &mut v);
                    debug_assert_eq!(v[col], F::ZERO);
                }
                None => {
                    let pinv = v[col].inv();
                    F::scale_slice(pinv, &mut v);
                    self.echelon[col] = Some(v);
                    self.rank += 1;
                    return true;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Gf16, Gf256, Gf2p32};

    fn g(v: u8) -> Gf256 {
        Gf256::new(v)
    }

    #[test]
    fn invert_identity() {
        let id = Matrix::<Gf256>::identity(5);
        assert_eq!(invert(&id).unwrap(), id);
    }

    #[test]
    fn invert_round_trips() {
        let m = Matrix::from_rows(&[
            vec![g(1), g(2), g(3)],
            vec![g(4), g(5), g(6)],
            vec![g(7), g(8), g(10)],
        ]);
        let inv = invert(&m).expect("matrix is nonsingular");
        assert_eq!(m.mul_mat(&inv), Matrix::identity(3));
        assert_eq!(inv.mul_mat(&m), Matrix::identity(3));
    }

    #[test]
    fn singular_matrix_returns_none() {
        let m = Matrix::from_rows(&[vec![g(1), g(2)], vec![g(2), g(4)]]); // row1 = 2*row0
        assert!(invert(&m).is_none());
        assert_eq!(rank(&m), 1);
    }

    #[test]
    fn zero_matrix_rank_zero() {
        let m = Matrix::<Gf16>::zeros(3, 4);
        assert_eq!(rank(&m), 0);
        assert!(invert(&Matrix::<Gf16>::zeros(3, 3)).is_none());
    }

    #[test]
    fn rank_of_wide_matrix() {
        let m = Matrix::from_rows(&[vec![g(1), g(0), g(1), g(1)], vec![g(0), g(1), g(1), g(0)]]);
        assert_eq!(rank(&m), 2);
    }

    #[test]
    fn solve_recovers_vector() {
        let a = Matrix::from_rows(&[vec![g(3), g(1)], vec![g(1), g(2)]]);
        let x = vec![g(0xAA), g(0x55)];
        let b = a.mul_vec(&x);
        assert_eq!(solve(&a, &b).unwrap(), x);
    }

    #[test]
    fn tracker_accepts_exactly_width_independent_rows() {
        let mut t = RankTracker::<Gf2p32>::new(3);
        assert!(t.try_add(&[1, 2, 3].map(Gf2p32::new)));
        assert!(t.try_add(&[0, 1, 7].map(Gf2p32::new)));
        assert!(!t.is_full());
        assert!(t.try_add(&[5, 0, 11].map(Gf2p32::new)));
        assert!(t.is_full());
        // Everything is dependent now.
        assert!(!t.try_add(&[9, 9, 9].map(Gf2p32::new)));
        assert_eq!(t.rank(), 3);
    }

    #[test]
    fn tracker_rejects_zero_row() {
        let mut t = RankTracker::<Gf256>::new(4);
        assert!(!t.try_add(&[Gf256::ZERO; 4]));
        assert_eq!(t.rank(), 0);
    }

    #[test]
    fn tracker_agrees_with_batch_rank() {
        // Pseudo-random rows; tracker rank must equal batch Gaussian rank.
        let mut rows: Vec<Vec<Gf256>> = Vec::new();
        let mut seed = 0x12345678u32;
        for _ in 0..10 {
            let row: Vec<Gf256> = (0..6)
                .map(|_| {
                    seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
                    g((seed >> 24) as u8)
                })
                .collect();
            rows.push(row);
        }
        let mut t = RankTracker::new(6);
        for row in &rows {
            t.try_add(row);
        }
        assert_eq!(t.rank(), rank(&Matrix::from_rows(&rows)));
    }
}
