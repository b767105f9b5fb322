//! DAAP statement shapes (Section 2.2).
//!
//! For the lower-bound optimization (Problem 3) the only structure that
//! matters about a statement is: how many iteration variables its loop nest
//! has, and which subset of them addresses each input access. That is what
//! [`StatementShape`] captures; e.g. LU's trailing update
//! `A[i,j] -= A[i,k]*A[k,j]` is three variables and three terms
//! `{i,j}, {i,k}, {k,j}`.

/// One input access `A_j[φ_j(r)]` reduced to its *access dimension*: the set
/// of distinct iteration variables in `φ_j`, plus a coefficient used by the
/// output-reuse rule (Lemma 8 divides an access's contribution by the
/// producer's computational intensity).
#[derive(Clone, Debug, PartialEq)]
pub struct AccessTerm {
    /// Array name (for reuse matching across statements).
    pub array: String,
    /// Indices of the iteration variables appearing in the access function
    /// vector (deduplicated — `A[k,k]` has `vars = [k]`).
    pub vars: Vec<usize>,
    /// Weight of this term in the dominator constraint (1.0 normally;
    /// `1/ρ_producer` after output-reuse adjustment; 0.0 drops the term).
    pub coeff: f64,
}

/// The shape of one DAAP statement.
#[derive(Clone, Debug, PartialEq)]
pub struct StatementShape {
    /// Statement name, for reporting.
    pub name: String,
    /// Number of iteration variables `l` in the loop nest.
    pub num_vars: usize,
    /// The input access terms forming the dominator constraint.
    pub terms: Vec<AccessTerm>,
}

impl StatementShape {
    /// New statement with `num_vars` iteration variables and no terms yet.
    pub fn new(name: impl Into<String>, num_vars: usize) -> Self {
        Self {
            name: name.into(),
            num_vars,
            terms: Vec::new(),
        }
    }

    /// Add an input access on `array` addressed by iteration variables
    /// `vars` (deduplicated automatically).
    ///
    /// # Panics
    /// Panics if any variable index is out of range.
    pub fn with_term(mut self, array: impl Into<String>, vars: &[usize]) -> Self {
        let mut v: Vec<usize> = vars.to_vec();
        v.sort_unstable();
        v.dedup();
        assert!(
            v.iter().all(|&t| t < self.num_vars),
            "access variable index out of range"
        );
        self.terms.push(AccessTerm {
            array: array.into(),
            vars: v,
            coeff: 1.0,
        });
        self
    }

    /// True iff every iteration variable appears in at least one term with
    /// a positive coefficient. When false, the subcomputation volume is
    /// unbounded for any `X` (ψ = ∞, ρ = ∞): some loop dimension incurs no
    /// loads at all.
    pub fn all_vars_constrained(&self) -> bool {
        (0..self.num_vars).all(|t| {
            self.terms
                .iter()
                .any(|term| term.coeff > 0.0 && term.vars.contains(&t))
        })
    }

    /// The term accessing `array`, if present.
    pub fn term(&self, array: &str) -> Option<&AccessTerm> {
        self.terms.iter().find(|t| t.array == array)
    }

    /// Replace the coefficient of the term on `array` (for reuse analysis).
    ///
    /// # Panics
    /// Panics if no term accesses `array`.
    pub fn set_coeff(&mut self, array: &str, coeff: f64) {
        let t = self
            .terms
            .iter_mut()
            .find(|t| t.array == array)
            .unwrap_or_else(|| panic!("statement {} has no access on {array}", self.name));
        t.coeff = coeff;
    }

    /// Sum of coefficients — the constraint value when all `r_t = 1`
    /// (the smallest feasible `X`).
    pub fn min_feasible_x(&self) -> f64 {
        self.terms.iter().map(|t| t.coeff).sum()
    }
}

/// Convenience constructors for the statements analyzed in the paper.
pub mod shapes {
    use super::StatementShape;

    /// Iteration-variable indices used by the canonical 3-nested shapes.
    pub const I: usize = 0;
    /// Second iteration variable.
    pub const J: usize = 1;
    /// Third (reduction) iteration variable.
    pub const K: usize = 2;

    /// Matrix multiplication `C[i,j] += A[i,k] * B[k,j]` (C is both input
    /// and output: three access terms).
    pub fn mmm() -> StatementShape {
        StatementShape::new("MMM", 3)
            .with_term("A", &[I, K])
            .with_term("B", &[K, J])
            .with_term("C", &[I, J])
    }

    /// LU statement S1 `A[i,k] = A[i,k] / A[k,k]` — two variables
    /// (index 0 = k, index 1 = i), access dims `{k,i}` and `{k}`.
    pub fn lu_s1() -> StatementShape {
        StatementShape::new("LU-S1", 2)
            .with_term("A_ik", &[0, 1])
            .with_term("A_kk", &[0])
    }

    /// LU statement S2 `A[i,j] -= A[i,k] * A[k,j]` — same shape as MMM.
    pub fn lu_s2() -> StatementShape {
        StatementShape::new("LU-S2", 3)
            .with_term("A_ij", &[I, J])
            .with_term("A_ik", &[I, K])
            .with_term("A_kj", &[K, J])
    }

    /// Cholesky trailing update `A[i,j] -= A[i,k] * A[j,k]`.
    pub fn cholesky_s3() -> StatementShape {
        StatementShape::new("Cholesky-S3", 3)
            .with_term("A_ij", &[I, J])
            .with_term("A_ik", &[I, K])
            .with_term("A_jk", &[J, K])
    }

    /// Section 4.1 statement S: `D[i,j,k] = A[i,k] * B[k,j]` (3D output,
    /// two 2D inputs; the output is write-only so it adds no term).
    pub fn sec41_s() -> StatementShape {
        StatementShape::new("§4.1-S", 3)
            .with_term("A", &[I, K])
            .with_term("B", &[K, J])
    }

    /// Section 4.1 statement T: `E[i,j,k] = C[i,j] * B[k,j]` — the second
    /// statement of the fusion example, "analogous to S" and sharing the
    /// input array `B` with it.
    pub fn sec41_t() -> StatementShape {
        StatementShape::new("§4.1-T", 3)
            .with_term("C", &[I, J])
            .with_term("B", &[K, J])
    }

    /// A 4-index tensor contraction `C[i,j] += A[i,l,m] * B[l,m,j]`
    /// (a coupled-cluster-style contraction, the "more general tensor
    /// contractions" of Section 2.2): variables `[i, j, l, m]`, with the
    /// fused contraction pair `(l, m)` appearing in both inputs. Its
    /// intensity matches MMM with `K = L·M` — the solver must recover
    /// `ψ(X) = (X/3)^{3/2}` despite the 4-variable domain.
    pub fn tensor_contraction_4d() -> StatementShape {
        StatementShape::new("TC4", 4)
            .with_term("A", &[0, 2, 3])
            .with_term("B", &[2, 3, 1])
            .with_term("C", &[0, 1])
    }

    /// A 1D convolution-like statement `Out[i] += W[k] * In[i]` where the
    /// input access collapses to one variable: the weights array is tiny
    /// and reusable, so the intensity is governed by the out-degree-one
    /// input stream (Lemma 6 with u = 0 here; the optimization alone gives
    /// an unbounded-looking ψ capped by the `In` term).
    pub fn stencil_like() -> StatementShape {
        StatementShape::new("Stencil", 2)
            .with_term("W", &[1])
            .with_term("In", &[0])
    }
}

#[cfg(test)]
mod tests {
    use super::shapes::*;
    use super::*;

    #[test]
    fn term_vars_deduplicated() {
        let s = StatementShape::new("s", 2).with_term("A", &[0, 0, 1, 1]);
        assert_eq!(s.terms[0].vars, vec![0, 1]);
    }

    #[test]
    fn lu_s1_access_dims() {
        let s = lu_s1();
        assert_eq!(s.term("A_ik").unwrap().vars.len(), 2);
        assert_eq!(s.term("A_kk").unwrap().vars, vec![0]);
        assert!(s.all_vars_constrained());
    }

    #[test]
    fn unconstrained_var_detected() {
        // E[i,j,k] = f(A[i,k]): j appears in no input
        let s = StatementShape::new("s", 3).with_term("A", &[0, 2]);
        assert!(!s.all_vars_constrained());
    }

    #[test]
    fn zero_coeff_term_does_not_constrain() {
        let mut s = mmm();
        assert!(s.all_vars_constrained());
        s.set_coeff("A", 0.0);
        // i still appears in C, k still in B — all vars remain covered
        assert!(s.all_vars_constrained());
        s.set_coeff("C", 0.0);
        s.set_coeff("B", 0.0);
        assert!(!s.all_vars_constrained());
    }

    #[test]
    fn min_feasible_x_counts_coeffs() {
        assert_eq!(mmm().min_feasible_x(), 3.0);
        assert_eq!(lu_s1().min_feasible_x(), 2.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_var_panics() {
        let _ = StatementShape::new("s", 2).with_term("A", &[2]);
    }

    #[test]
    #[should_panic(expected = "no access on")]
    fn set_coeff_missing_array_panics() {
        let mut s = mmm();
        s.set_coeff("Z", 0.5);
    }
}
