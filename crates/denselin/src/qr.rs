//! QR factorization: Householder QR and communication-avoiding TSQR.
//!
//! The paper names QR as another kernel its method covers (Section 2.2) and
//! cites CAQR/3D-QR in related work. This module provides the serial
//! substrate: unblocked Householder QR, and the *tall-skinny QR* (TSQR)
//! reduction-tree building blocks whose communication pattern is the same
//! playoff tree tournament pivoting uses — `local_qr` per owner, pairwise
//! `stack two R factors and re-factor` merges up the tree.

use crate::gemm::{gemm_with, GemmConfig};
use crate::matrix::Matrix;

/// `A·B` through the serial packed GEMM.
fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm_with(&mut c, (0, 0), 1.0, a, b, 0.0, &GemmConfig::serial());
    c
}

/// Result of a QR factorization `A = Q·R`.
#[derive(Clone, Debug)]
pub struct QrFactorization {
    /// Orthonormal columns, `m x n` (thin/reduced form).
    pub q: Matrix,
    /// Upper triangular `n x n`.
    pub r: Matrix,
}

impl QrFactorization {
    /// Relative residual `‖A − Q·R‖_F / ‖A‖_F`.
    pub fn residual(&self, a: &Matrix) -> f64 {
        let recon = matmul(&self.q, &self.r);
        a.sub(&recon).frobenius_norm() / a.frobenius_norm().max(f64::MIN_POSITIVE)
    }

    /// How far `Qᵀ·Q` is from the identity (orthogonality check).
    pub fn orthogonality_error(&self) -> f64 {
        let qtq = matmul(&self.q.transpose(), &self.q);
        qtq.sub(&Matrix::identity(self.q.cols())).frobenius_norm()
    }
}

/// Householder QR of an `m x n` matrix with `m ≥ n` (thin factorization).
///
/// ```
/// use denselin::{matrix::Matrix, qr::qr_householder, SplitMix64};
/// let mut rng = SplitMix64::new(2);
/// let a = Matrix::random(&mut rng, 20, 5);
/// let f = qr_householder(&a);
/// assert!(f.residual(&a) < 1e-12);
/// assert!(f.orthogonality_error() < 1e-12);
/// ```
pub fn qr_householder(a: &Matrix) -> QrFactorization {
    let (m, n) = a.shape();
    assert!(m >= n, "thin QR needs m >= n");
    let mut r = a.clone();
    // accumulate Q by applying the reflectors to the identity
    let mut q = Matrix::from_fn(m, n, |i, j| if i == j { 1.0 } else { 0.0 });
    let mut vs: Vec<Vec<f64>> = Vec::with_capacity(n);

    for k in 0..n {
        // Householder vector for column k, rows k..m
        let mut x: Vec<f64> = (k..m).map(|i| r[(i, k)]).collect();
        let norm = x.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm == 0.0 {
            vs.push(vec![0.0; m - k]);
            continue;
        }
        let alpha = if x[0] >= 0.0 { -norm } else { norm };
        x[0] -= alpha;
        let vnorm2: f64 = x.iter().map(|v| v * v).sum();
        if vnorm2 == 0.0 {
            vs.push(x);
            continue;
        }
        // apply (I - 2 v v^T / v^T v) to R[k.., k..]
        apply_reflector(&mut r, &x, vnorm2, k, k);
        vs.push(x);
    }
    // Q = H_0 H_1 ... H_{n-1} * I_thin: apply reflectors in reverse
    for k in (0..n).rev() {
        let x = &vs[k];
        let vnorm2: f64 = x.iter().map(|v| v * v).sum();
        if vnorm2 == 0.0 {
            continue;
        }
        apply_reflector(&mut q, x, vnorm2, k, 0);
    }
    // zero out the sub-diagonal garbage of R and truncate
    let r_thin = Matrix::from_fn(n, n, |i, j| if j >= i { r[(i, j)] } else { 0.0 });
    QrFactorization { q, r: r_thin }
}

/// Apply the Householder reflector `I - 2 v vᵀ / vᵀv` (with `v` spanning
/// rows `row0..m`) to columns `col0..` of `a`, traversing row slices so the
/// row-major storage is streamed contiguously: first accumulate
/// `w = vᵀ · A[row0.., col0..]`, then the rank-1 update `A -= (2/vᵀv) v wᵀ`.
fn apply_reflector(a: &mut Matrix, v: &[f64], vnorm2: f64, row0: usize, col0: usize) {
    let (m, n) = a.shape();
    let mut w = vec![0.0; n - col0];
    for i in row0..m {
        let vi = v[i - row0];
        if vi != 0.0 {
            let arow = &a.row(i)[col0..];
            for (wj, av) in w.iter_mut().zip(arow) {
                *wj += vi * av;
            }
        }
    }
    let s = 2.0 / vnorm2;
    for i in row0..m {
        let vi = s * v[i - row0];
        if vi != 0.0 {
            let arow = &mut a.row_mut(i)[col0..];
            for (av, wj) in arow.iter_mut().zip(&w) {
                *av -= vi * wj;
            }
        }
    }
}

/// One TSQR merge: stack two `n x n` R factors, factor the `2n x n` stack,
/// return the merged `R`. (The Q updates are implicit; callers needing the
/// full Q apply the tree in reverse, which distributed TSQR consumers like
/// CAQR do lazily.)
pub fn tsqr_merge(r1: &Matrix, r2: &Matrix) -> Matrix {
    assert_eq!(r1.cols(), r2.cols());
    let n = r1.cols();
    let mut stacked = Matrix::zeros(r1.rows() + r2.rows(), n);
    stacked.set_block(0, 0, r1);
    stacked.set_block(r1.rows(), 0, r2);
    qr_householder(&stacked).r
}

/// Serial reference TSQR over `parts` row blocks: local QR per block, then
/// a binary merge tree. Returns the final `R` (equal to the direct QR's `R`
/// up to column signs).
pub fn tsqr(a: &Matrix, parts: usize) -> Matrix {
    let m = a.rows();
    let parts = parts.max(1);
    let chunk = m.div_ceil(parts);
    let mut rs: Vec<Matrix> = Vec::new();
    let mut r0 = 0;
    while r0 < m {
        let rows = chunk.min(m - r0);
        let block = a.block(r0, 0, rows, a.cols());
        if rows >= a.cols() {
            rs.push(qr_householder(&block).r);
        } else {
            // short block: carry it raw into the merge
            rs.push(block);
        }
        r0 += rows;
    }
    while rs.len() > 1 {
        let mut next = Vec::with_capacity(rs.len().div_ceil(2));
        let mut it = rs.into_iter();
        while let Some(a1) = it.next() {
            match it.next() {
                Some(a2) => next.push(tsqr_merge(&a1, &a2)),
                None => next.push(a1),
            }
        }
        rs = next;
    }
    rs.pop().expect("non-empty input")
}

/// Compare two upper-triangular factors up to per-row sign (QR's `R` is
/// unique only up to the signs of its rows).
pub fn r_factors_match(r1: &Matrix, r2: &Matrix, tol: f64) -> bool {
    if r1.shape() != r2.shape() {
        return false;
    }
    let n = r1.rows();
    for i in 0..n {
        // determine the sign from the diagonal
        let (d1, d2) = (r1[(i, i)], r2[(i, i)]);
        let sign = if (d1 - d2).abs() <= (d1 + d2).abs() {
            1.0
        } else {
            -1.0
        };
        for j in 0..r1.cols() {
            if (r1[(i, j)] - sign * r2[(i, j)]).abs() > tol {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    #[test]
    fn householder_reconstructs() {
        let mut rng = SplitMix64::new(90);
        for (m, n) in [(4, 4), (10, 4), (30, 7), (64, 16)] {
            let a = Matrix::random(&mut rng, m, n);
            let f = qr_householder(&a);
            assert!(f.residual(&a) < 1e-12, "m={m} n={n}: {}", f.residual(&a));
            assert!(f.orthogonality_error() < 1e-12, "m={m} n={n}");
            // R upper triangular
            for i in 0..n {
                for j in 0..i {
                    assert_eq!(f.r[(i, j)], 0.0);
                }
            }
        }
    }

    #[test]
    fn tsqr_r_matches_direct_qr() {
        let mut rng = SplitMix64::new(91);
        for parts in [1, 2, 4, 7] {
            let a = Matrix::random(&mut rng, 64, 6);
            let direct = qr_householder(&a).r;
            let tree = tsqr(&a, parts);
            assert!(
                r_factors_match(&direct, &tree, 1e-9),
                "parts={parts}: R factors differ"
            );
        }
    }

    #[test]
    fn tsqr_preserves_column_norms() {
        // ||A e_j|| relationships are encoded in R: A^T A = R^T R
        let mut rng = SplitMix64::new(92);
        let a = Matrix::random(&mut rng, 48, 5);
        let r = tsqr(&a, 4);
        let ata = matmul(&a.transpose(), &a);
        let rtr = matmul(&r.transpose(), &r);
        assert!(ata.allclose(&rtr, 1e-9));
    }

    #[test]
    fn merge_of_identical_factors() {
        let mut rng = SplitMix64::new(93);
        let a = Matrix::random(&mut rng, 8, 3);
        let r = qr_householder(&a).r;
        let merged = tsqr_merge(&r, &r);
        // R^T R doubles: merged^T merged = 2 R^T R
        let lhs = matmul(&merged.transpose(), &merged);
        let rhs = matmul(&r.transpose(), &r).scale(2.0);
        assert!(lhs.allclose(&rhs, 1e-9));
    }

    #[test]
    fn rank_deficient_column_is_tolerated() {
        // a zero column should not crash (norm == 0 path)
        let mut rng = SplitMix64::new(94);
        let mut a = Matrix::random(&mut rng, 10, 3);
        for i in 0..10 {
            a[(i, 1)] = 0.0;
        }
        let f = qr_householder(&a);
        assert!(f.residual(&a) < 1e-10);
    }
}
