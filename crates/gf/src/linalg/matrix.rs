//! Row-major dense matrix over a field.

use crate::Field;

/// A dense row-major matrix over field `F`.
///
/// Used for the `k × k` coefficient matrices of the codec (`β` in the
/// paper's Equation (1)) and for small dense solves in tests. Payload
/// matrices (`k × m` symbol blocks) are handled as flat slices via
/// [`Field::axpy_slice`] instead, to keep the hot path allocation-free.
///
/// # Example
///
/// ```rust
/// use asymshare_gf::{linalg::Matrix, Field, Gf256};
///
/// let id = Matrix::<Gf256>::identity(3);
/// let v = vec![Gf256::new(7), Gf256::new(8), Gf256::new(9)];
/// assert_eq!(id.mul_vec(&v), v);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Matrix<F> {
    nrows: usize,
    ncols: usize,
    data: Vec<F>,
}

impl<F: Field> Matrix<F> {
    /// An `nrows × ncols` matrix of zeros.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Matrix {
            nrows,
            ncols,
            data: vec![F::ZERO; nrows * ncols],
        }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, F::ONE);
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have unequal lengths or `rows` is empty.
    pub fn from_rows(rows: &[Vec<F>]) -> Self {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        let ncols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * ncols);
        for row in rows {
            assert_eq!(row.len(), ncols, "all rows must have equal length");
            data.extend_from_slice(row);
        }
        Matrix {
            nrows: rows.len(),
            ncols,
            data,
        }
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != nrows * ncols`.
    pub fn from_flat(nrows: usize, ncols: usize, data: Vec<F>) -> Self {
        assert_eq!(data.len(), nrows * ncols, "flat buffer size mismatch");
        Matrix { nrows, ncols, data }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> F {
        assert!(r < self.nrows && c < self.ncols, "index out of bounds");
        self.data[r * self.ncols + c]
    }

    /// Sets element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: F) {
        assert!(r < self.nrows && c < self.ncols, "index out of bounds");
        self.data[r * self.ncols + c] = v;
    }

    /// Borrow of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[F] {
        &self.data[r * self.ncols..(r + 1) * self.ncols]
    }

    /// Mutable borrow of row `r`.
    #[inline]
    fn row_mut(&mut self, r: usize) -> &mut [F] {
        &mut self.data[r * self.ncols..(r + 1) * self.ncols]
    }

    /// Swaps rows `a` and `b`.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let (head, tail) = self.data.split_at_mut(hi * self.ncols);
        head[lo * self.ncols..(lo + 1) * self.ncols].swap_with_slice(&mut tail[..self.ncols]);
    }

    /// Adds `c ×` row `src` into row `dst` (`dst += c * src`).
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` or either is out of bounds.
    pub fn row_axpy(&mut self, dst: usize, c: F, src: usize) {
        assert!(src != dst, "source and destination rows must differ");
        assert!(src < self.nrows && dst < self.nrows, "row out of bounds");
        let (s, d) = if src < dst {
            let (head, tail) = self.data.split_at_mut(dst * self.ncols);
            (
                &head[src * self.ncols..(src + 1) * self.ncols],
                &mut tail[..self.ncols],
            )
        } else {
            let (head, tail) = self.data.split_at_mut(src * self.ncols);
            (
                &tail[..self.ncols],
                &mut head[dst * self.ncols..(dst + 1) * self.ncols],
            )
        };
        F::axpy_slice(c, s, d);
    }

    /// Scales row `r` by `c`.
    pub fn scale_row(&mut self, r: usize, c: F) {
        F::scale_slice(c, self.row_mut(r));
    }

    /// Matrix–vector product.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.ncols()`.
    pub fn mul_vec(&self, v: &[F]) -> Vec<F> {
        assert_eq!(v.len(), self.ncols, "vector length must match columns");
        (0..self.nrows)
            .map(|r| {
                self.row(r)
                    .iter()
                    .zip(v)
                    .fold(F::ZERO, |acc, (&a, &b)| acc + a * b)
            })
            .collect()
    }

    /// Matrix–matrix product `self × rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn mul_mat(&self, rhs: &Matrix<F>) -> Matrix<F> {
        assert_eq!(self.ncols, rhs.nrows, "inner dimensions must agree");
        let mut out = Matrix::zeros(self.nrows, rhs.ncols);
        for r in 0..self.nrows {
            for inner in 0..self.ncols {
                let c = self.get(r, inner);
                if c != F::ZERO {
                    F::axpy_slice(c, rhs.row(inner), out.row_mut(r));
                }
            }
        }
        out
    }

    /// The transpose.
    pub fn transpose(&self) -> Matrix<F> {
        let mut out = Matrix::zeros(self.ncols, self.nrows);
        for r in 0..self.nrows {
            for c in 0..self.ncols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Iterator over rows as slices.
    pub fn rows(&self) -> impl Iterator<Item = &[F]> {
        self.data.chunks_exact(self.ncols)
    }

    /// Consumes the matrix, returning the flat row-major buffer.
    pub fn into_flat(self) -> Vec<F> {
        self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gf256;

    fn g(v: u8) -> Gf256 {
        Gf256::new(v)
    }

    #[test]
    fn identity_mul_vec_is_noop() {
        let id = Matrix::<Gf256>::identity(4);
        let v: Vec<Gf256> = (1..=4u8).map(g).collect();
        assert_eq!(id.mul_vec(&v), v);
    }

    #[test]
    fn mul_mat_identity() {
        let m = Matrix::from_rows(&[vec![g(1), g(2)], vec![g(3), g(4)]]);
        let id = Matrix::<Gf256>::identity(2);
        assert_eq!(m.mul_mat(&id), m);
        assert_eq!(id.mul_mat(&m), m);
    }

    #[test]
    fn transpose_twice_is_identity() {
        let m = Matrix::from_rows(&[vec![g(1), g(2), g(3)], vec![g(4), g(5), g(6)]]);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().nrows(), 3);
    }

    #[test]
    fn swap_rows_exchanges_contents() {
        let mut m = Matrix::from_rows(&[vec![g(1), g(2)], vec![g(3), g(4)], vec![g(5), g(6)]]);
        m.swap_rows(0, 2);
        assert_eq!(m.row(0), &[g(5), g(6)]);
        assert_eq!(m.row(2), &[g(1), g(2)]);
        m.swap_rows(1, 1); // no-op
        assert_eq!(m.row(1), &[g(3), g(4)]);
    }

    #[test]
    fn row_axpy_in_both_directions() {
        let mut m = Matrix::from_rows(&[vec![g(1), g(2)], vec![g(4), g(8)]]);
        m.row_axpy(1, g(1), 0); // row1 += row0
        assert_eq!(m.row(1), &[g(5), g(10)]);
        m.row_axpy(0, g(1), 1); // row0 += row1
        assert_eq!(m.row(0), &[g(4), g(8)]);
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn row_axpy_same_row_panics() {
        let mut m = Matrix::<Gf256>::identity(2);
        m.row_axpy(0, g(1), 0);
    }

    #[test]
    fn mul_associates_with_vec() {
        let a = Matrix::from_rows(&[vec![g(2), g(3)], vec![g(5), g(7)]]);
        let b = Matrix::from_rows(&[vec![g(11), g(13)], vec![g(17), g(19)]]);
        let v = vec![g(23), g(29)];
        assert_eq!(a.mul_mat(&b).mul_vec(&v), a.mul_vec(&b.mul_vec(&v)));
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn from_flat_validates_size() {
        Matrix::from_flat(2, 2, vec![g(0); 3]);
    }
}
