//! Dense row-major matrix type used throughout the reproduction.
//!
//! The matrix is deliberately simple: a contiguous `Vec<f64>` in row-major
//! order. All distributed algorithms in this workspace move *tiles* of these
//! matrices between simulated ranks, so the only operations that need to be
//! fast are block copies and the kernels in [`mod@crate::gemm`] / [`crate::trsm`].

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::SplitMix64;

/// A dense, row-major `f64` matrix.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Create a matrix from a generator function `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Create a matrix that takes ownership of `data` (row-major).
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
        Self { rows, cols, data }
    }

    /// Create a matrix with entries drawn uniformly from `[-1, 1]`.
    pub fn random(rng: &mut SplitMix64, rows: usize, cols: usize) -> Self {
        Self::from_fn(rows, cols, |_, _| rng.symmetric())
    }

    /// Create a random diagonally dominant matrix (always admits LU without
    /// pivoting; useful for conditioning-insensitive tests).
    pub fn random_diagonally_dominant(rng: &mut SplitMix64, n: usize) -> Self {
        let mut m = Self::random(rng, n, n);
        for i in 0..n {
            m[(i, i)] += n as f64;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True iff the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the backing row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the backing row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i` as a slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Exchange rows `a` and `b` in place.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let cols = self.cols;
        let (lo, hi) = (a.min(b), a.max(b));
        let (head, tail) = self.data.split_at_mut(hi * cols);
        head[lo * cols..(lo + 1) * cols].swap_with_slice(&mut tail[..cols]);
    }

    /// Split into disjoint mutable row bands of at most `band_rows` rows each.
    ///
    /// Used by the parallel GEMM to hand each worker thread its own slice of
    /// the output without locking.
    pub fn row_bands_mut(&mut self, band_rows: usize) -> Vec<&mut [f64]> {
        assert!(band_rows > 0);
        self.data.chunks_mut(band_rows * self.cols).collect()
    }

    /// Copy of column `j`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Copy out the `nr x nc` block whose top-left corner is `(r0, c0)`.
    pub fn block(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> Matrix {
        assert!(
            r0 + nr <= self.rows && c0 + nc <= self.cols,
            "block out of bounds"
        );
        let mut out = Matrix::zeros(nr, nc);
        for i in 0..nr {
            out.row_mut(i)
                .copy_from_slice(&self.row(r0 + i)[c0..c0 + nc]);
        }
        out
    }

    /// Overwrite the block at `(r0, c0)` with `b`.
    pub fn set_block(&mut self, r0: usize, c0: usize, b: &Matrix) {
        assert!(
            r0 + b.rows <= self.rows && c0 + b.cols <= self.cols,
            "block out of bounds"
        );
        for i in 0..b.rows {
            let cols = self.cols;
            self.data[(r0 + i) * cols + c0..(r0 + i) * cols + c0 + b.cols]
                .copy_from_slice(b.row(i));
        }
    }

    /// Add `b` into the block at `(r0, c0)`.
    pub fn add_block(&mut self, r0: usize, c0: usize, b: &Matrix) {
        assert!(
            r0 + b.rows <= self.rows && c0 + b.cols <= self.cols,
            "block out of bounds"
        );
        for i in 0..b.rows {
            let dst = &mut self.row_mut(r0 + i)[c0..c0 + b.cols];
            for (d, s) in dst.iter_mut().zip(b.row(i)) {
                *d += s;
            }
        }
    }

    /// Copy out the rows whose indices are listed in `idx` (in that order).
    pub fn gather_rows(&self, idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(idx.len(), self.cols);
        for (k, &i) in idx.iter().enumerate() {
            out.row_mut(k).copy_from_slice(self.row(i));
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Max-absolute-value norm.
    pub fn max_norm(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// Element-wise `self - other`.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape());
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Element-wise `self + other`.
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape());
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Scaled copy `alpha * self`.
    pub fn scale(&self, alpha: f64) -> Matrix {
        let data = self.data.iter().map(|x| alpha * x).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Naive `self * other` (reference implementation; use [`mod@crate::gemm`]
    /// for anything performance sensitive).
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimensions must match");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                let brow = other.row(k);
                let orow = out.row_mut(i);
                for j in 0..other.cols {
                    orow[j] += aik * brow[j];
                }
            }
        }
        out
    }

    /// True iff every element of `self` is within `tol` of `other`.
    pub fn allclose(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Extract the strictly-lower-triangular part with a unit diagonal
    /// (the `L` factor convention used by LU routines here).
    pub fn unit_lower(&self) -> Matrix {
        let n = self.rows.min(self.cols);
        Matrix::from_fn(self.rows, n, |i, j| {
            if i == j {
                1.0
            } else if i > j {
                self[(i, j)]
            } else {
                0.0
            }
        })
    }

    /// Extract the upper-triangular part (including the diagonal).
    pub fn upper(&self) -> Matrix {
        let n = self.rows.min(self.cols);
        Matrix::from_fn(n, self.cols, |i, j| if j >= i { self[(i, j)] } else { 0.0 })
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for i in 0..show_rows {
            write!(f, "  [")?;
            let show_cols = self.cols.min(8);
            for j in 0..show_cols {
                write!(f, "{:10.4}", self[(i, j)])?;
                if j + 1 < show_cols {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 8 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(3, 4);
        assert_eq!(z.shape(), (3, 4));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i.frobenius_norm(), 3.0_f64.sqrt());
    }

    #[test]
    fn from_fn_row_major_layout() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
        assert_eq!(m.col(2), vec![2.0, 12.0]);
    }

    #[test]
    fn block_roundtrip() {
        let m = Matrix::from_fn(5, 5, |i, j| (i * 5 + j) as f64);
        let b = m.block(1, 2, 3, 2);
        assert_eq!(b.shape(), (3, 2));
        assert_eq!(b[(0, 0)], m[(1, 2)]);
        assert_eq!(b[(2, 1)], m[(3, 3)]);
        let mut m2 = Matrix::zeros(5, 5);
        m2.set_block(1, 2, &b);
        assert_eq!(m2[(1, 2)], m[(1, 2)]);
        assert_eq!(m2[(3, 3)], m[(3, 3)]);
        assert_eq!(m2[(0, 0)], 0.0);
    }

    #[test]
    fn add_block_accumulates() {
        let mut m = Matrix::zeros(3, 3);
        let b = Matrix::from_fn(2, 2, |_, _| 1.0);
        m.add_block(1, 1, &b);
        m.add_block(1, 1, &b);
        assert_eq!(m[(1, 1)], 2.0);
        assert_eq!(m[(2, 2)], 2.0);
        assert_eq!(m[(0, 0)], 0.0);
    }

    #[test]
    fn gather_rows_orders_rows() {
        let m = Matrix::from_fn(4, 2, |i, _| i as f64);
        let g = m.gather_rows(&[3, 1]);
        assert_eq!(g[(0, 0)], 3.0);
        assert_eq!(g[(1, 0)], 1.0);
    }

    #[test]
    fn transpose_involution() {
        let mut rng = SplitMix64::new(1);
        let m = Matrix::random(&mut rng, 4, 7);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_identity() {
        let mut rng = SplitMix64::new(2);
        let m = Matrix::random(&mut rng, 5, 5);
        let i = Matrix::identity(5);
        assert!(m.matmul(&i).allclose(&m, 1e-12));
        assert!(i.matmul(&m).allclose(&m, 1e-12));
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn unit_lower_and_upper_reconstruct_triangular_split() {
        let mut rng = SplitMix64::new(3);
        let m = Matrix::random(&mut rng, 4, 4);
        let l = m.unit_lower();
        let u = m.upper();
        // l*u has the right shape and the strictly-lower part of l matches m
        assert_eq!(l.shape(), (4, 4));
        assert_eq!(u.shape(), (4, 4));
        assert_eq!(l[(2, 2)], 1.0);
        assert_eq!(l[(3, 1)], m[(3, 1)]);
        assert_eq!(u[(1, 3)], m[(1, 3)]);
        assert_eq!(u[(3, 1)], 0.0);
    }

    #[test]
    fn norms() {
        let m = Matrix::from_vec(1, 3, vec![3.0, -4.0, 0.0]);
        assert_eq!(m.frobenius_norm(), 5.0);
        assert_eq!(m.max_norm(), 4.0);
    }

    #[test]
    fn row_bands_cover_all_rows() {
        let mut m = Matrix::from_fn(5, 2, |i, _| i as f64);
        let bands = m.row_bands_mut(2);
        assert_eq!(bands.len(), 3);
        assert_eq!(bands[0].len(), 4);
        assert_eq!(bands[2].len(), 2);
    }

    #[test]
    #[should_panic(expected = "block out of bounds")]
    fn block_out_of_bounds_panics() {
        let m = Matrix::zeros(2, 2);
        let _ = m.block(1, 1, 2, 1);
    }
}
