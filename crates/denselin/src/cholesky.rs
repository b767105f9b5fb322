//! Cholesky factorization (`A = L·Lᵀ` for symmetric positive definite `A`).
//!
//! The paper's conclusion calls for extending the COnfLUX schedule to
//! Cholesky; this module provides the serial kernel (unblocked + blocked
//! right-looking) that the distributed 2.5D Cholesky in the `conflux` crate
//! builds on, mirroring the role [`crate::lu`] plays for LU.

use crate::gemm::gemm_auto;
use crate::matrix::Matrix;

/// Error: the matrix is not positive definite (a non-positive diagonal
/// pivot appeared at the given index).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NotPositiveDefinite {
    /// Pivot index at which the factorization broke down.
    pub index: usize,
}

impl std::fmt::Display for NotPositiveDefinite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix is not positive definite (pivot {})", self.index)
    }
}

impl std::error::Error for NotPositiveDefinite {}

/// Unblocked Cholesky: returns the lower-triangular `L` with `A = L·Lᵀ`.
pub fn cholesky_unblocked(a: &Matrix) -> Result<Matrix, NotPositiveDefinite> {
    let n = a.rows();
    assert_eq!(a.cols(), n, "Cholesky needs a square matrix");
    let mut l = Matrix::zeros(n, n);
    for j in 0..n {
        let mut d = a[(j, j)];
        for k in 0..j {
            d -= l[(j, k)] * l[(j, k)];
        }
        if d <= 0.0 {
            return Err(NotPositiveDefinite { index: j });
        }
        let djj = d.sqrt();
        l[(j, j)] = djj;
        for i in j + 1..n {
            let mut s = a[(i, j)];
            for k in 0..j {
                s -= l[(i, k)] * l[(j, k)];
            }
            l[(i, j)] = s / djj;
        }
    }
    Ok(l)
}

/// Blocked right-looking Cholesky with panel width `nb`.
pub fn cholesky_blocked(a: &Matrix, nb: usize) -> Result<Matrix, NotPositiveDefinite> {
    assert!(nb > 0);
    let n = a.rows();
    assert_eq!(a.cols(), n, "Cholesky needs a square matrix");
    let mut work = a.clone();
    let mut l = Matrix::zeros(n, n);
    let mut k = 0;
    while k < n {
        let b = nb.min(n - k);
        // factor the diagonal block
        let l00 = cholesky_unblocked(&work.block(k, k, b, b))
            .map_err(|e| NotPositiveDefinite { index: k + e.index })?;
        l.set_block(k, k, &l00);
        if k + b < n {
            // panel solve: L10 = A10 * L00^{-T}
            let mut a10 = work.block(k + b, k, n - k - b, b);
            let l00t = l00.transpose();
            // X * L00^T = A10  <=>  X = A10 * (L00^T)^{-1}: upper-right solve
            crate::trsm::trsm_upper_right(&mut a10, &l00t, false);
            l.set_block(k + b, k, &a10);
            // symmetric trailing update: A11 -= L10 * L10^T (packed
            // kernel, tile-parallel for large trailing blocks)
            let mut a11 = work.block(k + b, k + b, n - k - b, n - k - b);
            gemm_auto(&mut a11, -1.0, &a10, &a10.transpose(), 1.0);
            work.set_block(k + b, k + b, &a11);
        }
        k += b;
    }
    Ok(l)
}

/// Relative reconstruction residual `‖A − L·Lᵀ‖_F / ‖A‖_F`.
pub fn cholesky_residual(a: &Matrix, l: &Matrix) -> f64 {
    let recon = l.matmul(&l.transpose());
    a.sub(&recon).frobenius_norm() / a.frobenius_norm().max(f64::MIN_POSITIVE)
}

/// Solve `A x = b` given the Cholesky factor (`L·Lᵀ x = b`).
pub fn cholesky_solve(l: &Matrix, b: &Matrix) -> Matrix {
    let mut y = b.clone();
    crate::trsm::trsm_lower_left(l, &mut y, false);
    crate::trsm::trsm_upper_left(&l.transpose(), &mut y, false);
    y
}

/// Build a random SPD matrix `G·Gᵀ + n·I` for testing.
pub fn random_spd(rng: &mut crate::SplitMix64, n: usize) -> Matrix {
    let g = Matrix::random(rng, n, n);
    let mut a = g.matmul(&g.transpose());
    for i in 0..n {
        a[(i, i)] += n as f64;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::test_blocking::{force_blocking, TEST_BLOCKINGS};
    use crate::SplitMix64;

    #[test]
    fn unblocked_reconstructs() {
        let mut rng = SplitMix64::new(60);
        for n in [1, 2, 5, 20, 64] {
            let a = random_spd(&mut rng, n);
            let l = cholesky_unblocked(&a).unwrap();
            assert!(cholesky_residual(&a, &l) < 1e-12, "n={n}");
            // L is lower triangular with positive diagonal
            for i in 0..n {
                assert!(l[(i, i)] > 0.0);
                for j in i + 1..n {
                    assert_eq!(l[(i, j)], 0.0);
                }
            }
        }
    }

    #[test]
    fn blocked_matches_unblocked() {
        let mut rng = SplitMix64::new(61);
        for (n, nb) in [(16, 4), (50, 8), (65, 16)] {
            let a = random_spd(&mut rng, n);
            let lu = cholesky_unblocked(&a).unwrap();
            for blk in TEST_BLOCKINGS {
                let _blk = force_blocking(blk);
                let lb = cholesky_blocked(&a, nb).unwrap();
                assert!(lb.allclose(&lu, 1e-8), "n={n} nb={nb} {blk:?}");
            }
        }
    }

    #[test]
    fn solve_roundtrip() {
        let mut rng = SplitMix64::new(62);
        let n = 30;
        let a = random_spd(&mut rng, n);
        let x = Matrix::random(&mut rng, n, 3);
        let b = a.matmul(&x);
        let l = cholesky_blocked(&a, 8).unwrap();
        assert!(cholesky_solve(&l, &b).allclose(&x, 1e-8));
    }

    #[test]
    fn indefinite_detected() {
        let mut a = Matrix::identity(4);
        a[(2, 2)] = -1.0;
        assert_eq!(cholesky_unblocked(&a).unwrap_err().index, 2);
        assert_eq!(cholesky_blocked(&a, 2).unwrap_err().index, 2);
    }

    #[test]
    fn not_square_panics() {
        let a = Matrix::zeros(3, 4);
        assert!(std::panic::catch_unwind(|| cholesky_unblocked(&a)).is_err());
    }
}
