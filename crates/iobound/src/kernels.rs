//! End-to-end lower-bound derivations for the kernels the paper discusses:
//! LU factorization (Section 6, the headline result), matrix multiplication,
//! Cholesky factorization and the §4.1/§4.2 reuse examples. Each bound is
//! derived once, by the ψ/ρ machinery; `repro theory` prints it next to the
//! paper's closed form.

use crate::program::{shapes, StatementShape};
use crate::reuse::{analyze, apply_output_reuse, StatementInstance};
use crate::rho::{q_lower_bound, statement_rho};

/// The complete LU lower-bound derivation of Section 6.
#[derive(Clone, Copy, Debug)]
pub struct LuBound {
    /// `ρ_S1` (= 1 via Lemma 6).
    pub rho_s1: f64,
    /// `ρ_S2` (= √M/2).
    pub rho_s2: f64,
    /// `Q_S1 ≥ N(N−1)/2`.
    pub q_s1: f64,
    /// `Q_S2 ≥ (2N³−6N²+4N)/(3√M)`.
    pub q_s2: f64,
    /// Sequential total `Q_LU ≥ Q_S1 + Q_S2`.
    pub q_total: f64,
}

impl LuBound {
    /// Lemma 9: per-processor parallel bound `Q_LU / P`.
    pub fn parallel(&self, p: usize) -> f64 {
        self.q_total / p as f64
    }

    /// The leading-order closed form `2N³/(3P√M)` the paper headlines.
    pub fn leading_term(n: f64, m: f64, p: usize) -> f64 {
        2.0 * n * n * n / (3.0 * p as f64 * m.sqrt())
    }
}

/// Number of S1 vertices: `Σ_{k=1..N}(N−k) = N(N−1)/2`.
pub fn lu_s1_domain(n: f64) -> f64 {
    n * (n - 1.0) / 2.0
}

/// Number of S2 vertices: `Σ_{k=1..N}(N−k)² = N³/3 − N²/2 + N/6`.
pub fn lu_s2_domain(n: f64) -> f64 {
    (n - 1.0) * n * (2.0 * n - 1.0) / 6.0
}

/// Derive the full LU lower bound with the crate's machinery (Section 6).
///
/// The S1 → S2 output reuse is applied via Lemma 8, which — because
/// `ρ_S1 = 1` — leaves S2's access sizes unchanged, exactly as the paper
/// notes.
///
/// ```
/// let b = iobound::lu_bound(4096.0, 1024.0);
/// // the paper's leading term 2N³/(3√M), plus lower-order terms
/// let leading = 2.0 * 4096.0_f64.powi(3) / (3.0 * 1024.0_f64.sqrt());
/// assert!(b.q_total >= leading);
/// // Lemma 9: per-rank parallel bound
/// assert!((b.parallel(64) - b.q_total / 64.0).abs() < 1e-9);
/// ```
pub fn lu_bound(n: f64, m: f64) -> LuBound {
    // S1: rho bounded by Lemma 6 with u = 1 (each A[i,k] input has
    // out-degree one within the statement).
    let rho_s1 = statement_rho(&shapes::lu_s1(), m, 1);
    let q_s1 = q_lower_bound(lu_s1_domain(n), rho_s1);

    // S2 with the output-reuse adjustment from S1 (neutral since rho_S1=1).
    let s2_shape = apply_output_reuse(&shapes::lu_s2(), "A_ik", rho_s1);
    let rho_s2 = statement_rho(&s2_shape, m, 0);
    let q_s2 = q_lower_bound(lu_s2_domain(n), rho_s2);

    LuBound {
        rho_s1,
        rho_s2,
        q_s1,
        q_s2,
        q_total: q_s1 + q_s2,
    }
}

/// Matrix-multiplication bound: `Q ≥ 2N³/√M` (and `/P` in parallel).
pub fn mmm_bound(n: f64, m: f64) -> f64 {
    let rho = statement_rho(&shapes::mmm(), m, 0);
    q_lower_bound(n * n * n, rho)
}

/// Cholesky factorization bound derived from its trailing update
/// (`A[i,j] -= A[i,k]·A[j,k]`, domain `Σ_k (N−k)²/2 ≈ N³/6`):
/// `Q ≳ N³/(3√M)`.
pub fn cholesky_bound(n: f64, m: f64) -> f64 {
    let rho = statement_rho(&shapes::cholesky_s3(), m, 0);
    // i > j > k triangle: half of the LU S2 domain
    let domain = lu_s2_domain(n) / 2.0;
    q_lower_bound(domain, rho)
}

/// The §4.1 two-statement fusion example, `S: D[i,j,k] = A[i,k]·B[k,j]`
/// and `T: E[i,j,k] = C[i,j]·B[k,j]`: returns `(Q_S, Q_T, Reuse(B),
/// Q_tot)`. Each statement alone has `ρ = M`, so `Q_S = Q_T = N³/M`; each
/// of its `N³/M²` optimal subcomputations reads `M` elements of `B`, so
/// Lemma 7 gives `Reuse(B) = N³/M`; and `Q_tot = Q_S + Q_T − Reuse(B) =
/// N³/M`.
pub fn sec41_example(n: f64, m: f64) -> (f64, f64, f64, f64) {
    let s = analyze(
        &StatementInstance {
            shape: shapes::sec41_s(),
            domain_size: n * n * n,
            outdegree_one_u: 0,
        },
        m,
    );
    let t = analyze(
        &StatementInstance {
            shape: shapes::sec41_t(),
            domain_size: n * n * n,
            outdegree_one_u: 0,
        },
        m,
    );
    let reuse = crate::reuse::input_reuse(&s, &t, "B");
    let q_tot = (s.q + t.q - reuse).max(0.0);
    (s.q, t.q, reuse, q_tot)
}

/// The §4.2 modified-MMM example (producer statement computes `A` from
/// scratch with no inputs, so `ρ_S = ∞`): returns `(Q_T_alone, Q_combined)`,
/// expected `(2N³/√M, N³/M)`.
pub fn sec42_example(n: f64, m: f64) -> (f64, f64) {
    let q_alone = mmm_bound(n, m);
    let weakened: StatementShape = apply_output_reuse(&shapes::mmm(), "A", f64::INFINITY);
    let rho = statement_rho(&weakened, m, 0);
    let q_combined = q_lower_bound(n * n * n, rho);
    (q_alone, q_combined)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, rel: f64) {
        assert!((a - b).abs() <= rel * b.abs().max(1e-12), "{a} !~ {b}");
    }

    #[test]
    fn lu_domains() {
        assert_eq!(lu_s1_domain(4.0), 6.0);
        assert_eq!(lu_s2_domain(4.0), 14.0); // 9 + 4 + 1
        assert_eq!(lu_s2_domain(1.0), 0.0);
    }

    #[test]
    fn lu_bound_matches_closed_form() {
        for (n, m) in [(512.0, 256.0), (4096.0, 1024.0), (16384.0, 4096.0)] {
            let b = lu_bound(n, m);
            assert_close(b.rho_s1, 1.0, 1e-9);
            assert_close(b.rho_s2, m.sqrt() / 2.0, 1e-3);
            // the paper's closed form (2N³−6N²+4N)/(3√M) + N(N−1)/2
            let cf =
                (2.0 * n * n * n - 6.0 * n * n + 4.0 * n) / (3.0 * m.sqrt()) + n * (n - 1.0) / 2.0;
            assert_close(b.q_total, cf, 2e-2);
        }
    }

    #[test]
    fn lu_parallel_bound_leading_term() {
        // For large N the bound approaches 2N^3/(3 P sqrt(M)).
        let (n, m, p) = (16384.0, 1_048_576.0, 1024);
        let b = lu_bound(n, m);
        let lead = LuBound::leading_term(n, m, p);
        let par = b.parallel(p);
        assert!(par >= lead, "machinery bound below leading term");
        assert_close(par, lead + n * (n - 1.0) / (2.0 * p as f64), 5e-2);
    }

    #[test]
    fn mmm_bound_closed_form() {
        let (n, m) = (1024.0, 4096.0);
        assert_close(mmm_bound(n, m), 2.0 * n * n * n / m.sqrt(), 1e-2);
    }

    #[test]
    fn cholesky_is_half_of_lu_s2() {
        let (n, m) = (2048.0, 1024.0);
        let chol = cholesky_bound(n, m);
        let lu_s2_q = q_lower_bound(lu_s2_domain(n), m.sqrt() / 2.0);
        assert_close(chol, lu_s2_q / 2.0, 1e-2);
        // ~ N^3/(3 sqrt(M))
        assert_close(chol, n * n * n / (3.0 * m.sqrt()), 5e-2);
    }

    #[test]
    fn sec41_numbers() {
        let (n, m) = (4096.0, 1024.0);
        let (qs, qt, reuse, q_tot) = sec41_example(n, m);
        let expect = n * n * n / m;
        assert_close(qs, expect, 1e-2);
        assert_close(qt, expect, 1e-2);
        assert_close(reuse, expect, 1e-2);
        assert_close(q_tot, expect, 2e-2);
    }

    #[test]
    fn sec42_numbers() {
        let (n, m) = (2048.0, 1024.0);
        let (alone, combined) = sec42_example(n, m);
        assert_close(alone, 2.0 * n * n * n / m.sqrt(), 1e-2);
        assert_close(combined, n * n * n / m, 1e-2);
        assert!(combined < alone);
    }

    #[test]
    fn bounds_shrink_with_memory() {
        let n = 4096.0;
        let q1 = lu_bound(n, 256.0).q_total;
        let q2 = lu_bound(n, 4096.0).q_total;
        assert!(q2 < q1);
    }

    #[test]
    fn parallel_bound_divides_by_p() {
        let b = lu_bound(1024.0, 256.0);
        assert_close(b.parallel(16), b.q_total / 16.0, 1e-12);
    }
}
