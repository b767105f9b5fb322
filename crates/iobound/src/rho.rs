//! Computational intensity `ρ(X) = ψ(X)/(X − M)` and its minimization
//! (Lemma 2), plus the out-degree-one cap of Lemma 6.

use crate::intensity::{psi, Psi};
use crate::program::StatementShape;

/// Result of minimizing `ρ(X)` over `X > M`.
#[derive(Clone, Copy, Debug)]
pub struct RhoResult {
    /// The minimizing `X_0`.
    pub x0: f64,
    /// `ψ(X_0)`.
    pub psi_x0: f64,
    /// The minimized computational intensity `ρ = ψ(X_0)/(X_0 − M)`.
    pub rho: f64,
}

/// Minimize `ρ(X) = ψ(X)/(X − M)` by golden-section search on `log X`
/// over `X ∈ (M, 10⁹·(M+2)]`. Statements whose ρ decreases monotonically,
/// like LU-S1, have their infimum at `X → ∞`; the cap makes the search
/// total, and the Lemma 6 cap of [`statement_rho`] then takes over.
///
/// Returns `None` when ψ is unbounded (ρ = ∞ — a statement with a free
/// iteration variable, like §4.2's input-free statement).
pub fn minimize_rho(shape: &StatementShape, m: f64) -> Option<RhoResult> {
    assert!(m >= 0.0);
    let x_hi = 1e9 * (m + 2.0);
    let x_lo = shape.min_feasible_x().max(m + 1e-9) + 1e-9;
    let rho_at = |x: f64| -> Option<f64> {
        match psi(shape, x) {
            Psi::Bounded(s) => Some(s.value / (x - m)),
            Psi::Unbounded => None,
            Psi::Infeasible => Some(f64::INFINITY),
        }
    };
    rho_at(x_lo + 1.0)?; // detect unbounded psi early

    // golden-section on t = ln X
    let (mut a, mut b) = (x_lo.ln(), x_hi.ln());
    let phi = (5.0_f64.sqrt() - 1.0) / 2.0;
    let f = |t: f64| rho_at(t.exp()).unwrap_or(f64::INFINITY);
    let mut c = b - phi * (b - a);
    let mut d = a + phi * (b - a);
    let (mut fc, mut fd) = (f(c), f(d));
    for _ in 0..120 {
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = b - phi * (b - a);
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + phi * (b - a);
            fd = f(d);
        }
        if (b - a).abs() < 1e-12 {
            break;
        }
    }
    let x0 = (0.5 * (a + b)).exp();
    let psi_x0 = psi(shape, x0).value();
    Some(RhoResult {
        x0,
        psi_x0,
        rho: psi_x0 / (x0 - m),
    })
}

/// Full per-statement intensity: the minimized ρ, additionally capped by
/// Lemma 6 when the statement's cDAG has `u ≥ 1` out-degree-one input
/// predecessors per compute vertex (`ρ ≤ 1/u`).
pub fn statement_rho(shape: &StatementShape, m: f64, outdegree_one_u: usize) -> f64 {
    let opt = minimize_rho(shape, m).map_or(f64::INFINITY, |r| r.rho);
    if outdegree_one_u > 0 {
        opt.min(1.0 / outdegree_one_u as f64)
    } else {
        opt
    }
}

/// Lemma 1 / Lemma 2: sequential I/O lower bound `Q ≥ |V| / ρ`.
pub fn q_lower_bound(domain_size: f64, rho: f64) -> f64 {
    if rho.is_infinite() {
        0.0
    } else {
        domain_size / rho
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::shapes;
    use crate::program::StatementShape;

    fn assert_close(a: f64, b: f64, rel: f64) {
        assert!((a - b).abs() <= rel * b.abs().max(1e-12), "{a} !~ {b}");
    }

    #[test]
    fn mmm_rho_is_half_sqrt_m() {
        // X0 = 3M, psi = M^(3/2), rho = sqrt(M)/2
        for m in [48.0, 300.0, 10_000.0] {
            let r = minimize_rho(&shapes::mmm(), m).unwrap();
            assert_close(r.x0, 3.0 * m, 1e-3);
            assert_close(r.rho, m.sqrt() / 2.0, 1e-3);
        }
    }

    #[test]
    fn lu_s2_rho_matches_paper() {
        // Section 6: rho_S2 = sqrt(M)/2
        let m = 1024.0;
        let r = minimize_rho(&shapes::lu_s2(), m).unwrap();
        assert_close(r.rho, m.sqrt() / 2.0, 1e-3);
    }

    #[test]
    fn lu_s1_rho_approaches_one_and_lemma6_caps_it() {
        let m = 64.0;
        // without the cap the infimum (X -> inf) approaches 1 from above
        let r = minimize_rho(&shapes::lu_s1(), m).unwrap();
        assert!(r.rho >= 1.0 && r.rho < 1.01, "rho={}", r.rho);
        // Lemma 6 with u = 1 (A[i,k] has out-degree 1 within S1)
        assert_eq!(statement_rho(&shapes::lu_s1(), m, 1), 1.0);
    }

    #[test]
    fn sec41_statements_rho_is_m() {
        // X0 = 2M, psi = M^2, rho = M
        let m = 256.0;
        let rs = minimize_rho(&shapes::sec41_s(), m).unwrap();
        assert_close(rs.x0, 2.0 * m, 1e-3);
        assert_close(rs.rho, m, 1e-3);
        let rt = minimize_rho(&shapes::sec41_t(), m).unwrap();
        assert_close(rt.rho, m, 1e-3);
    }

    #[test]
    fn unbounded_statement_gives_zero_bound() {
        // statement with a free variable: infinite rho, zero bound
        let s = StatementShape::new("free", 2).with_term("A", &[0]);
        assert!(minimize_rho(&s, 8.0).is_none());
        assert_eq!(statement_rho(&s, 8.0, 0), f64::INFINITY);
        assert_eq!(q_lower_bound(1e9, f64::INFINITY), 0.0);
    }

    #[test]
    fn lemma6_cap_applies_to_unbounded() {
        let s = StatementShape::new("free", 2).with_term("A", &[0]);
        assert_eq!(statement_rho(&s, 8.0, 2), 0.5);
    }

    #[test]
    fn q_bounds_scale() {
        assert_close(q_lower_bound(1000.0, 4.0), 250.0, 1e-12);
    }

    #[test]
    fn mmm_q_bound_matches_2n3_over_sqrt_m() {
        let (n, m) = (512.0_f64, 4096.0_f64);
        let rho = minimize_rho(&shapes::mmm(), m).unwrap().rho;
        let q = q_lower_bound(n * n * n, rho);
        assert_close(q, 2.0 * n * n * n / m.sqrt(), 1e-2);
    }
}
