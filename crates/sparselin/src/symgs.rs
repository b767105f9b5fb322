//! Symmetric Gauss–Seidel: the sweep smoother and the SPD preconditioner
//! built from it.
//!
//! Splitting `A = L + D + U` (strict lower / diagonal / strict upper), one
//! symmetric sweep is a forward Gauss–Seidel pass followed by a backward
//! pass. Algebraically the pair is a stationary iteration with matrix
//! `M = (D + L)·D⁻¹·(D + U)`, which is symmetric positive definite whenever
//! `A` is — so `M⁻¹` is a legal CG preconditioner (HPCG's choice).
//!
//! Both the sweeps and the preconditioner application are expressed as
//! solves against two cached [`SparseTriangle`]s, so the level analysis
//! (and the triangles' level-ordered storage) is paid once at
//! [`SymGs::new`] and every application inherits the bitwise thread-count
//! independence of [`crate::trsv`]. That construction cost is the
//! "preconditioner setup" the serving layer caches and amortizes. An
//! application runs both solves in place on its output and allocates
//! nothing.

use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::spmv::spmv_parallel;
use crate::trsv::SparseTriangle;

/// Cached symmetric Gauss–Seidel setup: the two triangular factors of
/// `A = L + D + U` with their level schedules, plus the diagonal.
#[derive(Clone, Debug)]
pub struct SymGs {
    lower: SparseTriangle,
    upper: SparseTriangle,
    diag: Vec<f64>,
    scratch_len: usize,
}

impl SymGs {
    /// Extract `D + L` and `D + U` from `A` and run the level analysis on
    /// both. Errors if `A` is non-square or has a missing/zero diagonal.
    pub fn new(a: &CsrMatrix) -> Result<Self, SparseError> {
        let (r, c) = a.shape();
        if r != c {
            return Err(SparseError::DimensionMismatch {
                expected: r,
                got: c,
            });
        }
        let diag = a.diagonal()?;
        let lower = SparseTriangle::lower(a.lower_triangle())?;
        let upper = SparseTriangle::upper(a.upper_triangle())?;
        Ok(SymGs {
            lower,
            upper,
            diag,
            scratch_len: r,
        })
    }

    /// Problem dimension.
    pub fn n(&self) -> usize {
        self.scratch_len
    }

    /// Resident bytes of the cached setup (both triangles, schedules, and
    /// the diagonal) — what the serving cache charges its byte budget.
    pub fn bytes(&self) -> usize {
        self.lower.bytes() + self.upper.bytes() + self.diag.len() * std::mem::size_of::<f64>()
    }

    /// Flops of one [`SymGs::apply`]: both triangle solves plus the
    /// diagonal scale, counted from the stored entries.
    pub fn apply_flops(&self) -> u64 {
        self.lower.solve_flops() + self.upper.solve_flops() + self.diag.len() as u64
    }

    /// Apply the preconditioner: `z = M⁻¹·r` with
    /// `M = (D + L)·D⁻¹·(D + U)`, via forward solve, diagonal scale,
    /// backward solve, all in place on `z`. Bitwise deterministic at every
    /// `threads`.
    pub fn apply(&self, r: &[f64], z: &mut [f64], threads: usize) -> Result<(), SparseError> {
        let n = self.scratch_len;
        if r.len() != n || z.len() != n {
            return Err(SparseError::DimensionMismatch {
                expected: n,
                got: if r.len() != n { r.len() } else { z.len() },
            });
        }
        self.lower.solve(r, z, threads)?;
        for (zi, d) in z.iter_mut().zip(&self.diag) {
            *zi *= d;
        }
        self.upper.solve_in_place(z, threads);
        Ok(())
    }

    /// One forward Gauss–Seidel sweep on the iterate:
    /// `x ← x + (D + L)⁻¹·(b − A·x)`.
    pub fn forward_sweep(
        &self,
        a: &CsrMatrix,
        b: &[f64],
        x: &mut [f64],
        threads: usize,
    ) -> Result<(), SparseError> {
        self.half_sweep(a, b, x, threads, true)
    }

    /// One backward Gauss–Seidel sweep:
    /// `x ← x + (D + U)⁻¹·(b − A·x)`.
    pub fn backward_sweep(
        &self,
        a: &CsrMatrix,
        b: &[f64],
        x: &mut [f64],
        threads: usize,
    ) -> Result<(), SparseError> {
        self.half_sweep(a, b, x, threads, false)
    }

    /// One full symmetric sweep (forward then backward) — the smoother HPCG
    /// runs pre/post restriction.
    pub fn sweep(
        &self,
        a: &CsrMatrix,
        b: &[f64],
        x: &mut [f64],
        threads: usize,
    ) -> Result<(), SparseError> {
        self.forward_sweep(a, b, x, threads)?;
        self.backward_sweep(a, b, x, threads)
    }

    fn half_sweep(
        &self,
        a: &CsrMatrix,
        b: &[f64],
        x: &mut [f64],
        threads: usize,
        forward: bool,
    ) -> Result<(), SparseError> {
        let n = self.scratch_len;
        if b.len() != n || x.len() != n || a.rows() != n {
            return Err(SparseError::DimensionMismatch {
                expected: n,
                got: b.len(),
            });
        }
        // residual r = b − A·x
        let mut r = vec![0.0f64; n];
        spmv_parallel(a, x, &mut r, threads)?;
        for i in 0..n {
            r[i] = b[i] - r[i];
        }
        // correction: the triangle solve against the cached schedule,
        // in place on the residual
        let tri = if forward { &self.lower } else { &self.upper };
        tri.solve_in_place(&mut r, threads);
        for i in 0..n {
            x[i] += r[i];
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::{banded, spd_laplacian};

    /// M⁻¹ applied to r, checked against densely forming M and solving.
    #[test]
    fn apply_matches_dense_m() {
        let a = banded(24, 2, 31);
        let gs = SymGs::new(&a).unwrap();
        let n = a.rows();
        // dense M = (D+L)·D⁻¹·(D+U)
        let dl = a.lower_triangle().to_dense();
        let du = a.upper_triangle().to_dense();
        let mut dinv = denselin::Matrix::zeros(n, n);
        for i in 0..n {
            dinv[(i, i)] = 1.0 / a.get(i, i);
        }
        let m = dl.matmul(&dinv).matmul(&du);
        let r: Vec<f64> = (0..n).map(|i| ((i * 3 + 1) as f64).sin()).collect();
        let mut z = vec![0.0; n];
        gs.apply(&r, &mut z, 1).unwrap();
        // check M·z ≈ r
        for i in 0..n {
            let mz: f64 = (0..n).map(|j| m[(i, j)] * z[j]).sum();
            assert!((mz - r[i]).abs() < 1e-9, "row {i}: {mz} vs {}", r[i]);
        }
    }

    #[test]
    fn apply_is_bitwise_across_threads() {
        let a = spd_laplacian(13, 9, 0.5);
        let gs = SymGs::new(&a).unwrap();
        let r: Vec<f64> = (0..a.rows()).map(|i| ((i + 2) as f64).cos()).collect();
        let mut serial = vec![0.0; a.rows()];
        gs.apply(&r, &mut serial, 1).unwrap();
        for threads in [2, 3, 4, 8] {
            let mut par = vec![f64::NAN; a.rows()];
            gs.apply(&r, &mut par, threads).unwrap();
            for (s, p) in serial.iter().zip(&par) {
                assert_eq!(s.to_bits(), p.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn sweeps_reduce_the_residual() {
        let a = spd_laplacian(8, 8, 0.1);
        let gs = SymGs::new(&a).unwrap();
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) as f64).sin()).collect();
        let mut x = vec![0.0; n];
        let res = |x: &[f64]| -> f64 {
            let mut ax = vec![0.0; n];
            crate::spmv::spmv(&a, x, &mut ax).unwrap();
            b.iter()
                .zip(&ax)
                .map(|(bi, axi)| (bi - axi) * (bi - axi))
                .sum::<f64>()
                .sqrt()
        };
        let r0 = res(&x);
        let mut prev = r0;
        for _ in 0..8 {
            gs.sweep(&a, &b, &mut x, 1).unwrap();
            let r = res(&x);
            assert!(r < prev, "sweep failed to contract: {r} vs {prev}");
            prev = r;
        }
        assert!(
            prev < 0.05 * r0,
            "8 sweeps should contract hard: {prev} vs {r0}"
        );
    }

    #[test]
    fn dimension_errors() {
        let a = banded(6, 1, 2);
        let gs = SymGs::new(&a).unwrap();
        let r = vec![0.0; 5];
        let mut z = vec![0.0; 6];
        assert!(gs.apply(&r, &mut z, 1).is_err());
        assert!(gs.bytes() > a.bytes());
        assert_eq!(gs.n(), 6);
    }
}
