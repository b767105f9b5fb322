//! `denselin` — the dense linear algebra substrate of the COnfLUX
//! reproduction.
//!
//! The paper's implementation links against vendor BLAS/LAPACK; this crate
//! replaces that dependency with pure-Rust kernels that are fast enough to
//! validate full factorizations numerically:
//!
//! * [`matrix`] — the row-major [`matrix::Matrix`] type,
//! * [`mod@gemm`] — packed register-blocked matrix multiply with a
//!   work-stealing tile-queue parallel path,
//! * [`trsm`] — the four triangular-solve variants LU needs, with
//!   column-sliced parallel left-solves for multi-RHS batches,
//! * [`lu`] — partial-pivoting LU (unblocked + blocked right-looking),
//! * [`lu_parallel`][mod@lu_parallel] — the lookahead-pipelined
//!   multithreaded LU, bitwise
//!   identical to [`lu::lu_blocked`],
//! * [`panel`] — the register-blocked, bit-exact LU panel kernel behind
//!   `lu_parallel` and the tournament,
//! * [`pool`] — the persistent worker pool every parallel kernel shares,
//! * [`rng`] — [`SplitMix64`], the workspace's one seeded generator,
//! * [`tournament`] — communication-avoiding tournament pivoting,
//! * [`blockcyclic`] — ScaLAPACK-style block-cyclic index arithmetic.
//!
//! # Example
//!
//! Factor a small matrix with blocked partial-pivoting LU and verify
//! `P·A ≈ L·U` through the residual:
//!
//! ```
//! use denselin::{lu_blocked, Matrix};
//!
//! let a = Matrix::from_fn(8, 8, |i, j| {
//!     if i == j { 4.0 } else { 1.0 / (2.0 + i as f64 + j as f64) }
//! });
//! let f = lu_blocked(&a, 4).expect("well conditioned");
//! assert!(f.residual(&a) < 1e-12);
//! ```

#![warn(missing_docs)]

pub mod blockcyclic;
pub mod cholesky;
pub mod gemm;
pub mod lu;
pub mod lu_parallel;
pub mod matrix;
pub mod panel;
pub mod pool;
pub mod qr;
pub mod refine;
pub mod rng;
pub mod tournament;
pub mod trsm;

pub use blockcyclic::{BlockCyclic1D, BlockCyclic2D};
pub use cholesky::{cholesky_blocked, cholesky_unblocked, NotPositiveDefinite};
pub use gemm::{
    auto_threads, default_isa_kernel, force_kernel, gemm_auto, gemm_emulated, gemm_with,
    microkernels, selected_kernel, GemmBlocking, GemmConfig, Microkernel,
};
pub use lu::{lu_blocked, lu_unblocked, LuFactorization, SingularMatrix};
pub use lu_parallel::{lu_parallel, lu_parallel_with};
pub use matrix::Matrix;
pub use qr::{qr_householder, tsqr, QrFactorization};
pub use refine::{solve_refined, Refinement};
pub use rng::SplitMix64;
pub use tournament::{tournament_pivots, PivotSelection};
