//! Inter-statement data reuse (Section 4).
//!
//! * **Case I — input reuse (Lemma 7)**: statements sharing an input array
//!   can avoid at most `Reuse(A) = min(|A(R_S)|, |A(R_T)|)` loads, where
//!   each total is the per-subcomputation access size at the optimum times
//!   the number of subcomputations (Equation 6).
//! * **Case II — output reuse (Lemma 8 / Corollary 1)**: when statement S
//!   produces the array statement T consumes, T's dominator constraint on
//!   that array weakens by the factor `1/ρ_S` — recomputation can substitute
//!   for loads when the producer is cheap.

use crate::intensity::{psi, Psi};
use crate::program::StatementShape;
use crate::rho::{minimize_rho, statement_rho};

/// A statement together with its iteration-domain size `|V|` and its
/// Lemma 6 parameter (0 if not applicable).
#[derive(Clone, Debug)]
pub struct StatementInstance {
    /// The statement's access shape.
    pub shape: StatementShape,
    /// Total number of compute vertices `|V|` of the statement.
    pub domain_size: f64,
    /// Lemma 6 `u`: minimum number of out-degree-one input predecessors.
    pub outdegree_one_u: usize,
}

/// Derived per-statement quantities used by the reuse bounds.
#[derive(Clone, Debug)]
pub struct StatementAnalysis {
    /// Final computational intensity (after the Lemma 6 cap).
    pub rho: f64,
    /// Sequential lower bound `|V|/ρ` of the statement alone.
    pub q: f64,
    /// Minimum number of subcomputations `|V| / ψ(X_0)`.
    pub subcomputations: f64,
    /// Access size of each array per optimal subcomputation.
    pub access_per_subcomp: Vec<(String, f64)>,
}

/// Analyze a single statement: ρ, Q, and the per-array access totals needed
/// by Equation 6.
pub fn analyze(stmt: &StatementInstance, m: f64) -> StatementAnalysis {
    let rho = statement_rho(&stmt.shape, m, stmt.outdegree_one_u);
    let q = if rho.is_infinite() {
        0.0
    } else {
        stmt.domain_size / rho
    };
    let (subcomputations, access_per_subcomp) = match minimize_rho(&stmt.shape, m) {
        Some(r) => {
            let subs = stmt.domain_size / r.psi_x0;
            let sizes = match psi(&stmt.shape, r.x0) {
                Psi::Bounded(sol) => stmt
                    .shape
                    .terms
                    .iter()
                    .filter(|t| t.coeff > 0.0)
                    .zip(&sol.term_sizes)
                    .map(|(t, &s)| (t.array.clone(), s))
                    .collect(),
                _ => vec![],
            };
            (subs, sizes)
        }
        None => (0.0, vec![]),
    };
    StatementAnalysis {
        rho,
        q,
        subcomputations,
        access_per_subcomp,
    }
}

/// Total accesses to `array` over the statement's optimal schedule
/// (`|A(R_max)| · |V|/|V_max|`, the quantity entering Equation 6).
pub fn total_accesses(analysis: &StatementAnalysis, array: &str) -> Option<f64> {
    analysis
        .access_per_subcomp
        .iter()
        .find(|(a, _)| a == array)
        .map(|(_, per)| per * analysis.subcomputations)
}

/// Lemma 7 / Equation 6: the reuse bound on a shared input array.
pub fn input_reuse(a: &StatementAnalysis, b: &StatementAnalysis, array: &str) -> f64 {
    match (total_accesses(a, array), total_accesses(b, array)) {
        (Some(x), Some(y)) => x.min(y),
        _ => 0.0,
    }
}

/// Case II / Corollary 1: weaken the consumer's dominator term on `array`
/// by the producer's intensity — the term's coefficient becomes
/// `1/ρ_producer` (dropped entirely if the producer recomputes for free).
///
/// When `ρ_producer ≤ 1` recomputation is never profitable and the shape is
/// returned unchanged, matching the paper's observation for LU (S1 → S2).
pub fn apply_output_reuse(
    consumer: &StatementShape,
    array: &str,
    rho_producer: f64,
) -> StatementShape {
    let mut shape = consumer.clone();
    if rho_producer <= 1.0 {
        return shape;
    }
    let coeff = if rho_producer.is_infinite() {
        0.0
    } else {
        1.0 / rho_producer
    };
    shape.set_coeff(array, coeff);
    shape
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::shapes;
    use crate::program::StatementShape;
    use crate::rho::q_lower_bound;

    fn assert_close(a: f64, b: f64, rel: f64) {
        assert!((a - b).abs() <= rel * b.abs().max(1e-12), "{a} !~ {b}");
    }

    fn coeff(shape: &StatementShape, array: &str) -> f64 {
        shape.terms.iter().find(|t| t.array == array).unwrap().coeff
    }

    fn sec41_instance(shape: StatementShape, n: f64) -> StatementInstance {
        StatementInstance {
            shape,
            domain_size: n * n * n,
            outdegree_one_u: 0,
        }
    }

    #[test]
    fn sec41_example_end_to_end() {
        // Paper §4.1: Q_S = Q_T = N^3/M, Reuse(B) = N^3/M,
        // Q_tot = N^3/M.
        let n = 4096.0;
        let m = 1024.0;
        let s = analyze(&sec41_instance(shapes::sec41_s(), n), m);
        let t = analyze(&sec41_instance(shapes::sec41_t(), n), m);
        assert_close(s.q, n * n * n / m, 1e-2);
        assert_close(t.q, n * n * n / m, 1e-2);
        let reuse = input_reuse(&s, &t, "B");
        assert_close(reuse, n * n * n / m, 1e-2);
        // Case I composition: Q_tot >= Q_S + Q_T - Reuse(B)
        assert_close(s.q + t.q - reuse, n * n * n / m, 1e-2);
    }

    #[test]
    fn reuse_of_unshared_array_is_zero() {
        let n = 128.0;
        let m = 64.0;
        let s = analyze(&sec41_instance(shapes::sec41_s(), n), m);
        let t = analyze(&sec41_instance(shapes::sec41_t(), n), m);
        assert_eq!(input_reuse(&s, &t, "Z"), 0.0);
        // "A" exists only in S
        assert_eq!(input_reuse(&s, &t, "A"), 0.0);
    }

    #[test]
    fn sec42_output_reuse_drops_the_term() {
        // §4.2: producer has rho = inf; consumer MMM's A-term vanishes and
        // the combined bound becomes N^3/M instead of 2N^3/sqrt(M).
        let n = 2048.0;
        let m = 1024.0;
        let weakened = apply_output_reuse(&shapes::mmm(), "A", f64::INFINITY);
        assert_eq!(coeff(&weakened, "A"), 0.0);
        let inst = StatementInstance {
            shape: weakened,
            domain_size: n * n * n,
            outdegree_one_u: 0,
        };
        let a = analyze(&inst, m);
        assert_close(a.q, n * n * n / m, 1e-2);
        // the original bound is much larger
        let orig = analyze(
            &StatementInstance {
                shape: shapes::mmm(),
                domain_size: n * n * n,
                outdegree_one_u: 0,
            },
            m,
        );
        assert_close(orig.q, 2.0 * n * n * n / m.sqrt(), 1e-2);
        assert!(a.q < orig.q);
    }

    #[test]
    fn lu_output_reuse_is_neutral() {
        // S1 -> S2 with rho_S1 = 1: coefficient unchanged (recomputation
        // not profitable), exactly the paper's Section 6 observation.
        let weakened = apply_output_reuse(&shapes::lu_s2(), "A_ik", 1.0);
        assert_eq!(weakened, shapes::lu_s2());
    }

    #[test]
    fn output_reuse_with_moderate_rho_halves_coefficient() {
        let weakened = apply_output_reuse(&shapes::mmm(), "B", 2.0);
        assert_eq!(coeff(&weakened, "B"), 0.5);
        // weaker constraint => larger psi => larger rho at same X... but
        // the minimized bound can only drop or stay:
        let m = 256.0;
        let q_orig = q_lower_bound(1e9, crate::rho::statement_rho(&shapes::mmm(), m, 0));
        let q_weak = q_lower_bound(1e9, crate::rho::statement_rho(&weakened, m, 0));
        assert!(q_weak <= q_orig + 1.0);
    }

    #[test]
    fn analysis_exposes_subcomputation_counts() {
        let n = 4096.0;
        let m = 1024.0;
        let s = analyze(&sec41_instance(shapes::sec41_s(), n), m);
        // |V|/psi(X0) = N^3/M^2
        assert_close(s.subcomputations, n * n * n / (m * m), 1e-2);
        // B per subcomputation = M
        let b = s
            .access_per_subcomp
            .iter()
            .find(|(a, _)| a == "B")
            .map(|(_, v)| *v)
            .unwrap();
        assert_close(b, m, 1e-2);
    }
}
