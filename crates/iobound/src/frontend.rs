//! A loop-nest frontend for the lower-bound machinery.
//!
//! The paper's input programs (Section 2.2) are statements inside loop
//! nests whose bounds may depend on outer iteration variables:
//!
//! ```text
//! for k = 1:N, for i = k+1:N, for j = k+1:N:
//!     A[i,j] <- A[i,j] - A[i,k]*A[k,j]
//! ```
//!
//! This module lets such programs be written down directly — variables with
//! (possibly triangular) bounds, accesses as variable lists — and derives
//! everything the symbolic pipeline needs: the [`StatementShape`] for the
//! ψ/ρ optimization, the exact iteration-domain size `|V|` for a given `N`,
//! and the [`StatementInstance`] consumed by the reuse machinery. It plays
//! the role IOLB's polyhedral frontend plays for that tool, for the
//! rectangular/triangular nests that dominate dense linear algebra.

use crate::program::StatementShape;
use crate::reuse::StatementInstance;

/// A loop bound: constant-offset expressions in `N` and outer variables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bound {
    /// The constant 0.
    Zero,
    /// `N + offset` (offset may be negative).
    N(i64),
    /// `var + offset`, referring to an *outer* variable by index.
    Var(usize, i64),
}

impl Bound {
    fn eval(&self, n: i64, outer: &[i64]) -> i64 {
        match *self {
            Bound::Zero => 0,
            Bound::N(off) => n + off,
            Bound::Var(idx, off) => outer[idx] + off,
        }
    }
}

/// One loop variable with its half-open range `[lo, hi)`.
#[derive(Clone, Debug)]
pub struct LoopVar {
    /// Name, for reporting.
    pub name: String,
    /// Inclusive lower bound.
    pub lo: Bound,
    /// Exclusive upper bound.
    pub hi: Bound,
}

/// A statement inside a loop nest.
#[derive(Clone, Debug)]
pub struct NestedStatement {
    /// Statement name.
    pub name: String,
    /// Loop variables, outermost first.
    pub vars: Vec<LoopVar>,
    /// Input accesses: `(array, variable indices)`.
    pub inputs: Vec<(String, Vec<usize>)>,
    /// Lemma 6 parameter (out-degree-one input predecessors per vertex).
    pub outdegree_one_u: usize,
}

/// Builder entry point.
pub struct NestBuilder {
    stmt: NestedStatement,
}

impl NestBuilder {
    /// Start a statement description.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            stmt: NestedStatement {
                name: name.into(),
                vars: Vec::new(),
                inputs: Vec::new(),
                outdegree_one_u: 0,
            },
        }
    }

    /// Add a loop `for <name> in [lo, hi)`; returns the variable's index.
    pub fn var(mut self, name: impl Into<String>, lo: Bound, hi: Bound) -> Self {
        if let Bound::Var(idx, _) = lo {
            assert!(
                idx < self.stmt.vars.len(),
                "lower bound refers to an inner variable"
            );
        }
        if let Bound::Var(idx, _) = hi {
            assert!(
                idx < self.stmt.vars.len(),
                "upper bound refers to an inner variable"
            );
        }
        self.stmt.vars.push(LoopVar {
            name: name.into(),
            lo,
            hi,
        });
        self
    }

    /// Add an input access `array[vars...]`.
    pub fn input(mut self, array: impl Into<String>, vars: &[usize]) -> Self {
        assert!(
            vars.iter().all(|&v| v < self.stmt.vars.len()),
            "access variable out of range"
        );
        self.stmt.inputs.push((array.into(), vars.to_vec()));
        self
    }

    /// Set the Lemma 6 parameter.
    pub fn outdegree_one(mut self, u: usize) -> Self {
        self.stmt.outdegree_one_u = u;
        self
    }

    /// Finish.
    pub fn build(self) -> NestedStatement {
        assert!(
            !self.stmt.vars.is_empty(),
            "statement needs at least one loop"
        );
        self.stmt
    }
}

impl NestedStatement {
    /// The access shape for the ψ/ρ pipeline.
    pub fn shape(&self) -> StatementShape {
        let mut s = StatementShape::new(self.name.clone(), self.vars.len());
        for (array, vars) in &self.inputs {
            s = s.with_term(array.clone(), vars);
        }
        s
    }

    /// Exact iteration-domain size `|V|` for problem size `n`, by direct
    /// enumeration of the (possibly triangular) nest. `O(Π range)` time —
    /// use moderate `n` and extrapolate, or [`Self::domain_size_sampled`].
    pub fn domain_size(&self, n: i64) -> u64 {
        fn recurse(vars: &[LoopVar], n: i64, outer: &mut Vec<i64>) -> u64 {
            match vars.split_first() {
                None => 1,
                Some((v, rest)) => {
                    let lo = v.lo.eval(n, outer);
                    let hi = v.hi.eval(n, outer);
                    let mut total = 0;
                    // for rectangular remaining nests this loop could be
                    // closed-form, but exactness on triangular nests is the
                    // point here
                    let mut x = lo;
                    while x < hi {
                        outer.push(x);
                        total += recurse(rest, n, outer);
                        outer.pop();
                        x += 1;
                    }
                    total
                }
            }
        }
        recurse(&self.vars, n, &mut Vec::new())
    }

    /// Domain size as a float, by exact enumeration at a calibration size
    /// `n_cal` and cubic-polynomial scaling to the target `n` (dense linear
    /// algebra nests are polynomial in `N` of degree = nest depth ≤ 3).
    pub fn domain_size_sampled(&self, n: f64) -> f64 {
        // fit degree-d polynomial through d+1 exact small evaluations
        let d = self.vars.len().min(3);
        let samples: Vec<(f64, f64)> = (0..=d)
            .map(|i| {
                let nc = (8 + 4 * i) as i64;
                (nc as f64, self.domain_size(nc) as f64)
            })
            .collect();
        // Lagrange interpolation evaluated at n
        let mut total = 0.0;
        for (i, &(xi, yi)) in samples.iter().enumerate() {
            let mut term = yi;
            for (j, &(xj, _)) in samples.iter().enumerate() {
                if i != j {
                    term *= (n - xj) / (xi - xj);
                }
            }
            total += term;
        }
        total
    }

    /// Package for the reuse machinery at problem size `n` (exact domain).
    pub fn instance(&self, n: i64) -> StatementInstance {
        StatementInstance {
            shape: self.shape(),
            domain_size: self.domain_size(n) as f64,
            outdegree_one_u: self.outdegree_one_u,
        }
    }
}

/// The LU program of Figure 1, written in the frontend.
pub fn lu_program() -> (NestedStatement, NestedStatement) {
    // S1: for k in 0..N, for i in k+1..N: A[i,k] /= A[k,k]
    let s1 = NestBuilder::new("LU-S1")
        .var("k", Bound::Zero, Bound::N(0))
        .var("i", Bound::Var(0, 1), Bound::N(0))
        .input("A_ik", &[0, 1])
        .input("A_kk", &[0])
        .outdegree_one(1)
        .build();
    // S2: for k, for i in k+1..N, for j in k+1..N: A[i,j] -= A[i,k]*A[k,j]
    let s2 = NestBuilder::new("LU-S2")
        .var("k", Bound::Zero, Bound::N(0))
        .var("i", Bound::Var(0, 1), Bound::N(0))
        .var("j", Bound::Var(0, 1), Bound::N(0))
        .input("A_ij", &[1, 2])
        .input("A_ik", &[0, 1])
        .input("A_kj", &[0, 2])
        .build();
    (s1, s2)
}

/// Full LU lower bound derived end-to-end through the frontend.
pub fn lu_bound_via_frontend(n: i64, m: f64) -> f64 {
    let (s1, s2) = lu_program();
    let a1 = crate::reuse::analyze(&s1.instance(n), m);
    let a2 = crate::reuse::analyze(&s2.instance(n), m);
    a1.q + a2.q
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rectangular_domain_sizes() {
        let mmm = NestBuilder::new("MMM")
            .var("i", Bound::Zero, Bound::N(0))
            .var("j", Bound::Zero, Bound::N(0))
            .var("k", Bound::Zero, Bound::N(0))
            .input("A", &[0, 2])
            .input("B", &[2, 1])
            .input("C", &[0, 1])
            .build();
        assert_eq!(mmm.domain_size(4), 64);
        assert_eq!(mmm.domain_size(10), 1000);
    }

    #[test]
    fn triangular_domain_sizes_match_formulas() {
        let (s1, s2) = lu_program();
        for n in [2i64, 4, 7, 12] {
            let nf = n as f64;
            assert_eq!(s1.domain_size(n) as f64, nf * (nf - 1.0) / 2.0, "S1 n={n}");
            assert_eq!(
                s2.domain_size(n) as f64,
                (nf - 1.0) * nf * (2.0 * nf - 1.0) / 6.0,
                "S2 n={n}"
            );
        }
    }

    #[test]
    fn shape_matches_handwritten() {
        let (s1, s2) = lu_program();
        assert_eq!(s1.shape(), crate::program::shapes::lu_s1());
        // S2 var order here is (k, i, j) with accesses matching lu_s2's
        // structure: three 2-variable terms covering all three vars
        let sh = s2.shape();
        assert_eq!(sh.terms.len(), 3);
        assert!(sh.all_vars_constrained());
    }

    #[test]
    fn frontend_bound_matches_kernels() {
        for (n, m) in [(256i64, 256.0), (512, 1024.0)] {
            let via_frontend = lu_bound_via_frontend(n, m);
            let direct = crate::kernels::lu_bound(n as f64, m).q_total;
            let rel = (via_frontend - direct).abs() / direct;
            assert!(
                rel < 2e-2,
                "n={n}: frontend {via_frontend} vs direct {direct}"
            );
        }
    }

    #[test]
    fn sampled_extrapolation_is_accurate() {
        let (_, s2) = lu_program();
        let n = 300.0;
        let exact = s2.domain_size(300) as f64;
        let scaled = s2.domain_size_sampled(n);
        assert!(
            ((scaled - exact) / exact).abs() < 1e-9,
            "{scaled} vs {exact}"
        );
    }

    #[test]
    #[should_panic(expected = "inner variable")]
    fn forward_bound_reference_rejected() {
        let _ = NestBuilder::new("bad")
            .var("i", Bound::Var(1, 0), Bound::N(0)) // refers to var 1 before it exists
            .var("j", Bound::Zero, Bound::N(0))
            .build();
    }

    #[test]
    fn instance_feeds_reuse_machinery() {
        let (s1, _) = lu_program();
        let inst = s1.instance(64);
        let analysis = crate::reuse::analyze(&inst, 32.0);
        // rho_S1 = 1 via Lemma 6, so Q = |V|
        assert_eq!(analysis.rho, 1.0);
        assert_eq!(analysis.q, (64.0 * 63.0) / 2.0);
    }
}
