//! Preconditioned conjugate gradients with explicit work accounting.
//!
//! Plain CG plus two preconditioners from this crate: Jacobi (diagonal
//! scaling, setup is one pass over the diagonal) and symmetric
//! Gauss–Seidel (setup runs two level analyses; application is two
//! triangle solves per iteration). The split between [`PrecondSetup::prepare`]
//! and [`PrecondSetup::apply`] is deliberate: setup is the expensive,
//! pattern-dependent part, so the serving layer caches the prepared object
//! keyed by matrix fingerprint and repeat solves skip straight to the
//! iteration — the sparse analogue of caching a dense LU factor.
//!
//! Everything downstream of the inputs is bitwise deterministic at any
//! thread count (see [`crate::spmv()`] and [`crate::trsv`]); dot products
//! are accumulated serially in index order for the same reason.

use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::spmv::{spmv_bytes, spmv_flops, spmv_parallel};
use crate::symgs::SymGs;

/// Which preconditioner to prepare for a matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Preconditioner {
    /// No preconditioning: `z = r`.
    None,
    /// Jacobi: `z = D⁻¹·r`.
    Jacobi,
    /// Symmetric Gauss–Seidel: `z = M⁻¹·r`, `M = (D+L)·D⁻¹·(D+U)`.
    SymGs,
}

impl Preconditioner {
    /// Stable lowercase token (scenario DSL, bench JSON, stats).
    pub fn token(self) -> &'static str {
        match self {
            Preconditioner::None => "none",
            Preconditioner::Jacobi => "jacobi",
            Preconditioner::SymGs => "symgs",
        }
    }
}

/// A prepared preconditioner: the cacheable product of the setup phase.
#[derive(Clone, Debug)]
pub enum PrecondSetup {
    /// Identity.
    None,
    /// Reciprocal diagonal.
    Jacobi(Vec<f64>),
    /// Cached triangles + level schedules (boxed: far larger than the
    /// other variants).
    SymGs(Box<SymGs>),
}

impl PrecondSetup {
    /// Run the setup phase for `kind` on `a`.
    pub fn prepare(kind: Preconditioner, a: &CsrMatrix) -> Result<Self, SparseError> {
        match kind {
            Preconditioner::None => Ok(PrecondSetup::None),
            Preconditioner::Jacobi => {
                let d = a.diagonal()?;
                Ok(PrecondSetup::Jacobi(d.iter().map(|&v| 1.0 / v).collect()))
            }
            Preconditioner::SymGs => Ok(PrecondSetup::SymGs(Box::new(SymGs::new(a)?))),
        }
    }

    /// Which preconditioner this is a setup for.
    pub fn kind(&self) -> Preconditioner {
        match self {
            PrecondSetup::None => Preconditioner::None,
            PrecondSetup::Jacobi(_) => Preconditioner::Jacobi,
            PrecondSetup::SymGs(_) => Preconditioner::SymGs,
        }
    }

    /// Resident bytes of the prepared state (cache budget accounting).
    pub fn bytes(&self) -> usize {
        match self {
            PrecondSetup::None => 0,
            PrecondSetup::Jacobi(d) => d.len() * std::mem::size_of::<f64>(),
            PrecondSetup::SymGs(gs) => gs.bytes(),
        }
    }

    /// `z = M⁻¹·r`.
    pub fn apply(&self, r: &[f64], z: &mut [f64], threads: usize) -> Result<(), SparseError> {
        match self {
            PrecondSetup::None => {
                z.copy_from_slice(r);
                Ok(())
            }
            PrecondSetup::Jacobi(dinv) => {
                if r.len() != dinv.len() || z.len() != dinv.len() {
                    return Err(SparseError::DimensionMismatch {
                        expected: dinv.len(),
                        got: r.len(),
                    });
                }
                for i in 0..r.len() {
                    z[i] = r[i] * dinv[i];
                }
                Ok(())
            }
            PrecondSetup::SymGs(gs) => gs.apply(r, z, threads),
        }
    }

    /// Flops of one application, counted from the stored entries.
    fn apply_flops(&self) -> u64 {
        match self {
            PrecondSetup::None => 0,
            PrecondSetup::Jacobi(d) => d.len() as u64,
            PrecondSetup::SymGs(gs) => gs.apply_flops(),
        }
    }
}

/// Knobs for a CG run.
#[derive(Clone, Copy, Debug)]
pub struct CgConfig {
    /// Relative residual target `‖b − A·x‖₂ / ‖b‖₂`.
    pub tol: f64,
    /// Iteration budget; `0` means the dimension `n` (exact-arithmetic CG
    /// terminates in at most `n` steps).
    pub max_iters: usize,
    /// Worker threads for SpMV and preconditioner application; `0` means
    /// [`denselin::auto_threads`]. Never changes the computed bits.
    pub threads: usize,
    /// Record every iterate `x_k` (the verifier's A-norm monotonicity
    /// oracle needs them; only sensible for small systems).
    pub record_iterates: bool,
}

impl Default for CgConfig {
    fn default() -> Self {
        CgConfig {
            tol: 1e-10,
            max_iters: 0,
            threads: 1,
            record_iterates: false,
        }
    }
}

/// Work performed by one CG run (estimates where noted; used by the bench
/// roofline and the serving stats).
#[derive(Clone, Copy, Debug, Default)]
pub struct SparseStats {
    /// Floating-point operations.
    pub flops: u64,
    /// Minimum bytes streamed (CSR arrays + vectors per pass).
    pub bytes_moved: u64,
    /// SpMV invocations.
    pub spmv_calls: u64,
    /// Preconditioner applications.
    pub precond_applies: u64,
}

/// The result of a CG run. `converged == false` is *data*, not an error —
/// the caller decides whether the achieved residual is acceptable (the
/// serving layer's relaxed-tolerance degradation does exactly that); use
/// [`CgOutcome::require_converged`] to turn it into [`SparseError::NotConverged`].
#[derive(Clone, Debug)]
pub struct CgOutcome {
    /// Final iterate.
    pub x: Vec<f64>,
    /// Whether `tol` was reached within the budget.
    pub converged: bool,
    /// Iterations performed.
    pub iterations: usize,
    /// Relative residual after each iteration (index 0 = after iteration 1).
    pub residual_history: Vec<f64>,
    /// Work accounting.
    pub stats: SparseStats,
    /// Every iterate, when [`CgConfig::record_iterates`] was set.
    pub iterates: Option<Vec<Vec<f64>>>,
}

impl CgOutcome {
    /// Achieved relative residual (1.0 when no iteration ran).
    pub fn residual(&self) -> f64 {
        self.residual_history.last().copied().unwrap_or(1.0)
    }

    /// `Ok(self)` if converged, else [`SparseError::NotConverged`] carrying
    /// the achieved residual.
    pub fn require_converged(self) -> Result<Self, SparseError> {
        if self.converged {
            Ok(self)
        } else {
            Err(SparseError::NotConverged {
                iterations: self.iterations,
                residual: self.residual(),
            })
        }
    }
}

/// Solve the SPD system `A·x = b` by preconditioned conjugate gradients
/// from `x₀ = 0`. Errors only on structural failures (shape, zero
/// diagonal via the preconditioner, loss of positive definiteness);
/// running out of iterations is reported through [`CgOutcome::converged`].
pub fn cg(
    a: &CsrMatrix,
    b: &[f64],
    pre: &PrecondSetup,
    cfg: &CgConfig,
) -> Result<CgOutcome, SparseError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(SparseError::DimensionMismatch {
            expected: n,
            got: a.cols(),
        });
    }
    if b.len() != n {
        return Err(SparseError::DimensionMismatch {
            expected: n,
            got: b.len(),
        });
    }
    let max_iters = if cfg.max_iters == 0 { n } else { cfg.max_iters };
    let threads = cfg.threads;

    let mut stats = SparseStats::default();
    let bnorm = norm2(b);
    if bnorm == 0.0 {
        return Ok(CgOutcome {
            x: vec![0.0; n],
            converged: true,
            iterations: 0,
            residual_history: Vec::new(),
            stats,
            iterates: cfg.record_iterates.then(Vec::new),
        });
    }

    let mut x = vec![0.0f64; n];
    let mut r = b.to_vec();
    let mut z = vec![0.0f64; n];
    pre.apply(&r, &mut z, threads)?;
    stats.precond_applies += 1;
    let mut p = z.clone();
    let mut rz = dot(&r, &z);
    let mut ap = vec![0.0f64; n];
    let mut history = Vec::new();
    let mut iterates = cfg.record_iterates.then(Vec::<Vec<f64>>::new);

    let per_spmv_flops = spmv_flops(a);
    let per_spmv_bytes = spmv_bytes(a);
    let vec_bytes = (n * std::mem::size_of::<f64>()) as u64;

    let mut converged = false;
    let mut iterations = 0;
    for k in 0..max_iters {
        spmv_parallel(a, &p, &mut ap, threads)?;
        stats.spmv_calls += 1;
        stats.flops += per_spmv_flops;
        stats.bytes_moved += per_spmv_bytes;

        let pap = dot(&p, &ap);
        if pap <= 0.0 {
            return Err(SparseError::NotPositiveDefinite { iteration: k });
        }
        let alpha = rz / pap;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        // 2 dots + 2 axpys over n entries
        stats.flops += 8 * n as u64;
        stats.bytes_moved += 6 * vec_bytes;
        iterations = k + 1;
        if let Some(hist) = iterates.as_mut() {
            hist.push(x.clone());
        }

        let relres = norm2(&r) / bnorm;
        history.push(relres);
        if relres <= cfg.tol {
            converged = true;
            break;
        }

        pre.apply(&r, &mut z, threads)?;
        stats.precond_applies += 1;
        stats.flops += pre.apply_flops();
        stats.bytes_moved += (pre.bytes() as u64) + 2 * vec_bytes;
        let rz_next = dot(&r, &z);
        let beta = rz_next / rz;
        rz = rz_next;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
        stats.flops += 4 * n as u64;
        stats.bytes_moved += 3 * vec_bytes;
    }

    Ok(CgOutcome {
        x,
        converged,
        iterations,
        residual_history: history,
        stats,
        iterates,
    })
}

/// Serial index-order dot product — part of the determinism contract.
fn dot(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for i in 0..a.len() {
        acc += a[i] * b[i];
    }
    acc
}

fn norm2(v: &[f64]) -> f64 {
    dot(v, v).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::{banded, random_density, spd_laplacian, CsrMatrix};

    fn rhs(n: usize, seed: u64) -> Vec<f64> {
        let mut r = denselin::SplitMix64::new(seed);
        (0..n).map(|_| r.symmetric()).collect()
    }

    fn check_solution(a: &CsrMatrix, b: &[f64], x: &[f64], tol: f64) {
        let mut ax = vec![0.0; a.rows()];
        spmv_parallel(a, x, &mut ax, 1).unwrap();
        let res = norm2(
            &b.iter()
                .zip(&ax)
                .map(|(bi, axi)| bi - axi)
                .collect::<Vec<_>>(),
        ) / norm2(b);
        assert!(res <= tol * 10.0, "residual {res} above {tol}");
    }

    #[test]
    fn converges_on_spd_systems_with_every_preconditioner() {
        let a = spd_laplacian(9, 8, 0.2);
        let b = rhs(a.rows(), 4);
        let cfg = CgConfig {
            tol: 1e-10,
            ..Default::default()
        };
        let mut iter_counts = Vec::new();
        for kind in [
            Preconditioner::None,
            Preconditioner::Jacobi,
            Preconditioner::SymGs,
        ] {
            let pre = PrecondSetup::prepare(kind, &a).unwrap();
            let out = cg(&a, &b, &pre, &cfg).unwrap().require_converged().unwrap();
            check_solution(&a, &b, &out.x, cfg.tol);
            assert!(out.stats.spmv_calls as usize == out.iterations);
            assert!(out.stats.flops > 0 && out.stats.bytes_moved > 0);
            iter_counts.push((kind, out.iterations));
        }
        // SymGS must beat plain CG on the model problem
        let plain = iter_counts[0].1;
        let symgs = iter_counts[2].1;
        assert!(
            symgs < plain,
            "SymGS ({symgs} iters) should beat plain CG ({plain})"
        );
    }

    #[test]
    fn symgs_accounting_counts_what_is_stored() {
        // 3×3 grid: 12 edges, so each triangle stores 12 off-diagonal
        // entries and 9 diagonals, and both have 5 levels (x + y).
        let a = spd_laplacian(3, 3, 0.0);
        let pre = PrecondSetup::prepare(Preconditioner::SymGs, &a).unwrap();
        // per triangle 2·12 + 9 = 33; plus the 9 diagonal multiplies
        assert_eq!(pre.apply_flops(), 33 + 33 + 9);
        // per triangle: ptr 10 + cols 12 + vals 12 + diag 9 + level_ptr 6
        // + rows 9 = 58 words; plus the SymGs diagonal's 9 words
        assert_eq!(pre.bytes(), (58 + 58 + 9) * 8);
    }

    #[test]
    fn deterministic_across_threads() {
        let a = banded(80, 4, 13);
        let b = rhs(80, 9);
        let pre = PrecondSetup::prepare(Preconditioner::SymGs, &a).unwrap();
        let base = cg(&a, &b, &pre, &CgConfig::default()).unwrap();
        for threads in [2, 3, 8] {
            let cfg = CgConfig {
                threads,
                ..Default::default()
            };
            let out = cg(&a, &b, &pre, &cfg).unwrap();
            assert_eq!(out.iterations, base.iterations);
            for (xa, xb) in base.x.iter().zip(&out.x) {
                assert_eq!(xa.to_bits(), xb.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn iteration_budget_reports_not_converged() {
        let a = random_density(60, 0.1, 21);
        let b = rhs(60, 1);
        let pre = PrecondSetup::None;
        let cfg = CgConfig {
            tol: 1e-14,
            max_iters: 2,
            ..Default::default()
        };
        let out = cg(&a, &b, &pre, &cfg).unwrap();
        assert!(!out.converged);
        assert_eq!(out.iterations, 2);
        let err = out.require_converged().unwrap_err();
        assert!(matches!(
            err,
            SparseError::NotConverged { iterations: 2, .. }
        ));
    }

    #[test]
    fn indefinite_matrix_is_detected() {
        // -I is symmetric negative definite: pᵀAp < 0 on the first step
        let a = CsrMatrix::from_triplets(
            4,
            4,
            &[(0, 0, -1.0), (1, 1, -1.0), (2, 2, -1.0), (3, 3, -1.0)],
        )
        .unwrap();
        let b = vec![1.0, 2.0, 3.0, 4.0];
        let err = cg(&a, &b, &PrecondSetup::None, &CgConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            SparseError::NotPositiveDefinite { iteration: 0 }
        ));
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let a = banded(10, 1, 1);
        let out = cg(&a, &[0.0; 10], &PrecondSetup::None, &CgConfig::default()).unwrap();
        assert!(out.converged);
        assert_eq!(out.iterations, 0);
        assert!(out.x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn recorded_iterates_match_history_length() {
        let a = spd_laplacian(6, 5, 0.4);
        let b = rhs(a.rows(), 3);
        let cfg = CgConfig {
            record_iterates: true,
            ..Default::default()
        };
        let out = cg(&a, &b, &PrecondSetup::None, &cfg).unwrap();
        let iters = out.iterates.as_ref().unwrap();
        assert_eq!(iters.len(), out.residual_history.len());
        // the last recorded iterate IS the returned solution
        for (xa, xb) in out.x.iter().zip(iters.last().unwrap()) {
            assert_eq!(xa.to_bits(), xb.to_bits());
        }
    }
}
