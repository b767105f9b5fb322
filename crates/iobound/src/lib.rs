//! `iobound` — symbolic parallel I/O lower bounds for DAAP programs
//! (Sections 2.2, 3, 4, 5, 6 of the paper).
//!
//! The pipeline mirrors the paper's method:
//!
//! 1. describe a statement's access structure ([`program::StatementShape`]),
//! 2. solve the maximal-subcomputation problem `ψ(X)` ([`intensity::psi`],
//!    Problem 3),
//! 3. minimize the computational intensity `ρ(X) = ψ(X)/(X−M)` and apply
//!    the out-degree-one cap ([`rho`], Lemmas 2 and 6),
//! 4. compose statements through input/output reuse ([`reuse`], Lemmas 7–8),
//! 5. divide by `P` for the parallel machine ([`LuBound::parallel`],
//!    Lemma 9).
//!
//! [`kernels`] packages the full derivations for LU (the paper's Section 6
//! headline bound `2N³/(3P√M) + O(N²/P)`), MMM, Cholesky, and the §4.1/§4.2
//! worked examples; `repro theory` prints them. [`verify`] runs the
//! `pebbling` crate's schedules and exact search against those bounds,
//! which `repro pebbles` prints.
//!
//! # Example
//!
//! The paper's Section 6 headline: sequential LU must move at least
//! `≈ 2N³/(3√M)` elements between fast and slow memory:
//!
//! ```
//! use iobound::{lu_bound, LuBound};
//!
//! let (n, m) = (1024.0, 4096.0);
//! let bound = lu_bound(n, m);
//! // the leading term, plus the lower-order S1 and S2 terms
//! assert!(bound.q_total > LuBound::leading_term(n, m, 1));
//! assert!(bound.q_total < 1.1 * LuBound::leading_term(n, m, 1));
//! ```

#![warn(missing_docs)]

pub mod intensity;
pub mod kernels;
pub mod program;
pub mod reuse;
pub mod rho;
pub mod verify;

pub use intensity::{psi, Psi, PsiSolution};
pub use kernels::{lu_bound, mmm_bound, LuBound};
pub use program::{shapes, AccessTerm, StatementShape};
pub use reuse::{analyze, apply_output_reuse, input_reuse, StatementInstance};
pub use rho::{minimize_rho, q_lower_bound, statement_rho, RhoResult};
