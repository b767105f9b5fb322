//! Iterative refinement of linear-system solutions (LAPACK `gerfs`-style).
//!
//! Given factors of `A` and a right-hand side `b`, refinement iterates
//! `r = b − A·x; x += A⁻¹r`, recovering accuracy lost to a mildly unstable
//! factorization — the standard companion to communication-avoiding
//! pivoting schemes (tournament pivoting trades a bounded stability factor
//! for latency, and refinement buys it back).

use crate::gemm::{gemm_with, GemmConfig};
use crate::lu::LuFactorization;
use crate::matrix::Matrix;

/// Outcome of iterative refinement.
#[derive(Clone, Debug)]
pub struct Refinement {
    /// The refined solution.
    pub x: Matrix,
    /// Relative residual `‖b − A·x‖_F/‖b‖_F` after each sweep (index 0 =
    /// initial solve). Callers that degrade to refinement (e.g. the
    /// solversrv tolerance path) report this history to explain *why* the
    /// request refined and how fast it converged.
    pub residual_history: Vec<f64>,
    /// Whether the final residual met the requested tolerance.
    pub converged: bool,
}

impl Refinement {
    /// The relative residual of the returned solution.
    pub fn final_residual(&self) -> f64 {
        *self.residual_history.last().expect("history never empty")
    }

    /// Refinement sweeps actually performed (0 = initial solve sufficed).
    pub fn sweeps(&self) -> usize {
        self.residual_history.len() - 1
    }
}

/// Solve `A·x = b` with at most `max_sweeps` refinement sweeps, stopping
/// early as soon as the relative residual drops to `tol` (pass `0.0` to
/// always sweep until the residual stops improving, the pre-tolerance
/// behavior).
pub fn solve_refined(
    a: &Matrix,
    f: &LuFactorization,
    b: &Matrix,
    max_sweeps: usize,
    tol: f64,
) -> Refinement {
    let bnorm = b.frobenius_norm().max(f64::MIN_POSITIVE);
    let mut x = f.solve(b);
    let mut history = Vec::with_capacity(max_sweeps + 1);

    let residual = |x: &Matrix| -> (Matrix, f64) {
        let mut r = b.clone();
        gemm_with(&mut r, (0, 0), -1.0, a, x, 1.0, &GemmConfig::serial()); // r = b - A x
        let norm = r.frobenius_norm() / bnorm;
        (r, norm)
    };

    let (mut r, mut rn) = residual(&x);
    history.push(rn);
    while rn > tol && history.len() <= max_sweeps {
        let dx = f.solve(&r);
        let candidate = x.add(&dx);
        let (r2, rn2) = residual(&candidate);
        if rn2 >= rn {
            break; // converged (or stagnated): keep the better iterate
        }
        x = candidate;
        r = r2;
        rn = rn2;
        history.push(rn);
    }
    let _ = r;
    Refinement {
        x,
        converged: rn <= tol,
        residual_history: history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::lu_unblocked;
    use crate::tournament::lu_no_pivot;
    use crate::SplitMix64;

    #[test]
    fn refinement_never_worsens() {
        let mut rng = SplitMix64::new(130);
        let n = 40;
        let a = Matrix::random(&mut rng, n, n);
        let x_true = Matrix::random(&mut rng, n, 1);
        let b = a.matmul(&x_true);
        let f = lu_unblocked(&a).unwrap();
        let ref_out = solve_refined(&a, &f, &b, 3, 0.0);
        let hist = &ref_out.residual_history;
        for w in hist.windows(2) {
            assert!(w[1] <= w[0] * (1.0 + 1e-12), "residual increased: {hist:?}");
        }
        assert!(ref_out.x.allclose(&x_true, 1e-8));
    }

    #[test]
    fn refinement_rescues_unstable_factorization() {
        // factor WITHOUT pivoting (unstable on general matrices), then
        // refine: the final residual must land near machine precision
        let mut rng = SplitMix64::new(131);
        let n = 24;
        // a matrix with small-but-nonzero leading pivots
        let mut a = Matrix::random(&mut rng, n, n);
        for i in 0..n {
            a[(i, i)] += 0.05; // avoid exact zeros, stay poorly pivoted
        }
        let lu = lu_no_pivot(&a).unwrap();
        let f = LuFactorization {
            lu,
            perm: (0..n).collect(),
            sign: 1.0,
        };
        let x_true = Matrix::random(&mut rng, n, 1);
        let b = a.matmul(&x_true);
        let out = solve_refined(&a, &f, &b, 10, 0.0);
        let final_res = out.final_residual();
        let initial_res = out.residual_history[0];
        assert!(
            final_res <= initial_res,
            "refinement failed to improve: {initial_res} -> {final_res}"
        );
        assert!(final_res < 1e-10, "history {:?}", out.residual_history);
    }

    #[test]
    fn already_perfect_solution_stops_immediately() {
        let a = Matrix::identity(6);
        let f = lu_unblocked(&a).unwrap();
        let b = Matrix::from_fn(6, 1, |i, _| i as f64);
        let out = solve_refined(&a, &f, &b, 5, 0.0);
        assert!(out.residual_history[0] < 1e-15);
        assert!(out.residual_history.len() <= 2);
        assert!(out.x.allclose(&b, 1e-14));
    }

    #[test]
    fn tolerance_short_circuits_sweeps() {
        let mut rng = SplitMix64::new(132);
        let n = 32;
        let a = Matrix::random_diagonally_dominant(&mut rng, n);
        let b = Matrix::random(&mut rng, n, 1);
        let f = lu_unblocked(&a).unwrap();
        // a loose tolerance is met by the initial solve: zero sweeps
        let loose = solve_refined(&a, &f, &b, 8, 1e-6);
        assert!(loose.converged);
        assert_eq!(loose.sweeps(), 0);
        // an unreachable tolerance sweeps until stagnation and reports it
        let strict = solve_refined(&a, &f, &b, 8, 0.0);
        assert!(!strict.converged || strict.final_residual() == 0.0);
        assert!(strict.final_residual() <= loose.final_residual());
        assert_eq!(strict.sweeps(), strict.residual_history.len() - 1);
    }
}
