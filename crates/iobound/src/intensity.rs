//! The maximal-subcomputation optimization (Problem 3 of Section 3.2):
//!
//! ```text
//!   ψ(X) = max  Π_t r_t
//!          s.t. Σ_j c_j · Π_{k ∈ vars_j} r_k  ≤  X,     r_t ≥ 1
//! ```
//!
//! In log-space this is a geometric program (concave objective, convex
//! constraint), solved here by bisection on the Lagrange multiplier λ with
//! a coordinate fixed-point inner loop: at optimality each unclamped
//! variable satisfies `r_t = 1/(λ·a_t)` where `a_t = ∂g/∂r_t`. Closed-form
//! KKT solutions of the paper's kernels are recovered to high accuracy
//! (see tests).

use crate::program::StatementShape;

/// Solution of the ψ(X) optimization.
#[derive(Clone, Debug)]
pub struct PsiSolution {
    /// The maximal subcomputation size `ψ(X) = Π r_t`.
    pub value: f64,
    /// Optimal (relaxed, continuous) iteration-range sizes `r_t`.
    pub r: Vec<f64>,
    /// Per-term access sizes `c_j · Π_{k ∈ vars_j} r_k` at the optimum.
    pub term_sizes: Vec<f64>,
}

/// Outcome of [`psi`].
#[derive(Clone, Debug)]
pub enum Psi {
    /// Bounded optimum.
    Bounded(PsiSolution),
    /// Some iteration variable appears in no positively-weighted term, so
    /// arbitrarily large subcomputations satisfy the dominator constraint.
    Unbounded,
    /// `X` is below the smallest feasible constraint value `Σ c_j`.
    Infeasible,
}

impl Psi {
    /// The ψ value, treating `Unbounded` as infinity.
    pub fn value(&self) -> f64 {
        match self {
            Psi::Bounded(s) => s.value,
            Psi::Unbounded => f64::INFINITY,
            Psi::Infeasible => f64::NAN,
        }
    }
}

/// Solve the ψ(X) problem for `shape`.
///
/// KKT optima of this geometric program may sit at corners where some
/// `r_t = 1` is active; plain projected fixed-point iteration crawls at
/// such degenerate corners, so instead every *clamp set* (subset of
/// variables fixed at 1) is enumerated — at most `2^l`, and the paper's
/// kernels have `l ≤ 3` — and the interior KKT system of the free
/// variables is solved by λ-bisection with a damped fixed point.
pub fn psi(shape: &StatementShape, x: f64) -> Psi {
    let l = shape.num_vars;
    assert!(
        l <= 12,
        "clamp-set enumeration limited to 12 iteration variables"
    );
    let terms: Vec<(&[usize], f64)> = shape
        .terms
        .iter()
        .filter(|t| t.coeff > 0.0)
        .map(|t| (t.vars.as_slice(), t.coeff))
        .collect();

    if !shape.all_vars_constrained() {
        return Psi::Unbounded;
    }
    let min_x: f64 = terms.iter().map(|(_, c)| c).sum();
    if x < min_x - 1e-12 {
        return Psi::Infeasible;
    }
    if l == 0 {
        return Psi::Bounded(PsiSolution {
            value: 1.0,
            r: vec![],
            term_sizes: vec![],
        });
    }

    let term_value = |r: &[f64], vars: &[usize], c: f64| -> f64 {
        c * vars.iter().map(|&k| r[k]).product::<f64>()
    };
    let constraint =
        |r: &[f64]| -> f64 { terms.iter().map(|(vars, c)| term_value(r, vars, *c)).sum() };

    let mut best: Option<Vec<f64>> = None;
    let mut best_value = 0.0f64;

    for clamp_mask in 0..(1u32 << l) {
        let free: Vec<usize> = (0..l).filter(|t| clamp_mask & (1 << t) == 0).collect();
        let candidate = if free.is_empty() {
            Some(vec![1.0; l])
        } else {
            solve_interior(&terms, l, &free, x, &term_value, &constraint)
        };
        if let Some(r) = candidate {
            // validity: r >= 1 everywhere, constraint satisfied
            if r.iter().all(|&v| v >= 1.0 - 1e-9) && constraint(&r) <= x * (1.0 + 1e-9) {
                let value: f64 = r.iter().product();
                if value > best_value {
                    best_value = value;
                    best = Some(r);
                }
            }
        }
    }

    let r = best.expect("at least the all-clamped point is feasible");
    let value = r.iter().product();
    let term_sizes = terms
        .iter()
        .map(|(vars, c)| term_value(&r, vars, *c))
        .collect();
    Psi::Bounded(PsiSolution {
        value,
        r,
        term_sizes,
    })
}

/// Solve the interior KKT system with the variables outside `free` fixed at
/// 1: bisect on λ so that `g(r) = x`, where for each free `t` the fixed
/// point `r_t = 1/(λ a_t)` holds (`a_t = ∂g/∂r_t`). Returns `None` when the
/// inner iteration fails to converge (inconsistent stationarity — the true
/// optimum lies in another clamp set).
fn solve_interior(
    terms: &[(&[usize], f64)],
    l: usize,
    free: &[usize],
    x: f64,
    term_value: &impl Fn(&[f64], &[usize], f64) -> f64,
    constraint: &impl Fn(&[f64]) -> f64,
) -> Option<Vec<f64>> {
    let partial = |r: &[f64], t: usize| -> f64 {
        terms
            .iter()
            .filter(|(vars, _)| vars.contains(&t))
            .map(|(vars, c)| term_value(r, vars, *c) / r[t])
            .sum()
    };
    // every free variable must appear in some term, else unbounded for this
    // clamp set (can't happen if all_vars_constrained, but guard anyway)
    for &t in free {
        if !terms.iter().any(|(vars, _)| vars.contains(&t)) {
            return None;
        }
    }

    let solve_for_lambda = |lambda: f64| -> Option<Vec<f64>> {
        let mut r = vec![1.0f64; l];
        let mut converged = false;
        for iter in 0..250 {
            let mut delta: f64 = 0.0;
            for &t in free {
                let a = partial(&r, t);
                let raw = 1.0 / (lambda * a);
                // damped multiplicative update for stability
                let next = if iter < 4 {
                    raw
                } else {
                    r[t].powf(0.3) * raw.powf(0.7)
                };
                delta = delta.max(((next - r[t]) / next.max(1e-300)).abs());
                r[t] = next;
            }
            if delta < 1e-13 {
                converged = true;
                break;
            }
        }
        converged.then_some(r)
    };

    // g is decreasing in λ; bisection on log λ
    let (mut lo, mut hi) = (-120.0f64, 120.0f64);
    for _ in 0..90 {
        let mid = 0.5 * (lo + hi);
        match solve_for_lambda(mid.exp()) {
            Some(r) => {
                if constraint(&r) > x {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            None => return None,
        }
    }
    solve_for_lambda(hi.exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::shapes;
    use crate::program::StatementShape;

    fn bounded(sol: Psi) -> PsiSolution {
        match sol {
            Psi::Bounded(s) => s,
            other => panic!("psi not bounded: {other:?}"),
        }
    }

    fn assert_close(a: f64, b: f64, rel: f64) {
        assert!(
            (a - b).abs() <= rel * b.abs().max(1.0),
            "{a} !~ {b} (rel {rel})"
        );
    }

    #[test]
    fn mmm_psi_matches_closed_form() {
        // max r_i r_j r_k s.t. r_i r_k + r_k r_j + r_i r_j <= X
        // => r = sqrt(X/3), psi = (X/3)^(3/2)
        for x in [12.0, 48.0, 300.0, 3e6] {
            let sol = psi(&shapes::mmm(), x);
            assert_close(sol.value(), (x / 3.0_f64).powf(1.5), 1e-6);
            let s = bounded(sol);
            for rt in &s.r {
                assert_close(*rt, (x / 3.0_f64).sqrt(), 1e-6);
            }
        }
    }

    #[test]
    fn lu_s1_psi_is_x_minus_one() {
        // max r_k r_i s.t. r_k r_i + r_k <= X => r_k = 1, r_i = X - 1
        for x in [4.0, 100.0, 1e5] {
            let sol = psi(&shapes::lu_s1(), x);
            assert_close(sol.value(), x - 1.0, 1e-6);
            let s = bounded(sol);
            assert_close(s.r[0], 1.0, 1e-6); // k clamped at 1
            assert_close(s.r[1], x - 1.0, 1e-6);
        }
    }

    #[test]
    fn sec41_s_psi_is_x_half_squared() {
        // max r_i r_j r_k s.t. r_i r_k + r_k r_j <= X => r_k=1, r_i=r_j=X/2
        for x in [8.0, 64.0, 1e4] {
            let sol = psi(&shapes::sec41_s(), x);
            assert_close(sol.value(), (x / 2.0) * (x / 2.0), 1e-6);
        }
    }

    #[test]
    fn term_sizes_sum_to_x_when_unclamped() {
        let x = 99.0;
        let sol = psi(&shapes::mmm(), x);
        let total: f64 = bounded(sol).term_sizes.iter().sum();
        assert_close(total, x, 1e-9);
    }

    #[test]
    fn unbounded_when_var_missing() {
        let s = StatementShape::new("s", 3).with_term("A", &[0, 2]);
        assert!(matches!(psi(&s, 100.0), Psi::Unbounded));
        assert_eq!(psi(&s, 100.0).value(), f64::INFINITY);
    }

    #[test]
    fn infeasible_below_min_x() {
        assert!(matches!(psi(&shapes::mmm(), 2.0), Psi::Infeasible));
    }

    #[test]
    fn feasible_at_min_x_gives_unit_volume() {
        let sol = psi(&shapes::mmm(), 3.0);
        assert_close(sol.value(), 1.0, 1e-6);
    }

    #[test]
    fn weighted_terms_shift_optimum() {
        // Output-reuse: dropping A's coefficient to 0 in MMM leaves
        // r_j(r_i + r_k)... wait: terms B{k,j}, C{i,j}: psi = (X/2)^2.
        let mut s = shapes::mmm();
        s.set_coeff("A", 0.0);
        let x = 50.0;
        let sol = psi(&s, x);
        assert_close(sol.value(), (x / 2.0) * (x / 2.0), 1e-6);
        // halving a coefficient increases psi
        let mut s2 = shapes::mmm();
        s2.set_coeff("A", 0.5);
        assert!(psi(&s2, x).value() > psi(&shapes::mmm(), x).value());
    }

    #[test]
    fn psi_monotone_in_x() {
        let s = shapes::lu_s2();
        let mut prev = 0.0;
        for x in [4.0, 8.0, 20.0, 50.0, 200.0] {
            let v = psi(&s, x).value();
            assert!(v > prev);
            prev = v;
        }
    }

    #[test]
    fn cholesky_same_psi_as_mmm() {
        // identical term structure up to renaming
        let x = 77.0;
        assert_close(
            psi(&shapes::cholesky_s3(), x).value(),
            psi(&shapes::mmm(), x).value(),
            1e-9,
        );
    }
}
