//! `baselines` — the comparison LU implementations of Section 8:
//!
//! * [`lu2d`] — ScaLAPACK-style 2D block-cyclic LU with partial pivoting,
//!   in two flavours ([`lu2d::Variant::LibSci`], [`lu2d::Variant::Slate`]),
//! * [`candmc`] — CANDMC-style 2.5D communication-avoiding LU with
//!   tournament pivoting and physical row swapping,
//! * [`models`] — the analytic Table 2 cost models of all four libraries.
//!
//! All run on the same `simnet` simulated machine as COnfLUX and count
//! communication the same way, so the comparisons of Figures 6–7 are
//! apples-to-apples.
//!
//! # Example
//!
//! Count the 2D partial-pivoting baseline's traffic (Phantom mode) and
//! observe the per-column pivot allreduce the paper's Section 7.3 latency
//! argument targets:
//!
//! ```
//! use baselines::lu2d::{factorize_2d, Lu2dConfig, Variant};
//! use conflux::Mode;
//!
//! let cfg = Lu2dConfig::for_ranks(64, 4, Variant::LibSci, Mode::Phantom);
//! let run = factorize_2d(&cfg, None);
//! assert!(run.stats.sent_in_phase("panel:pivot-allreduce") > 0);
//! // one pivot allreduce per matrix column: an O(N) latency chain
//! assert!(run.stats.messages_in_phase("panel:pivot-allreduce") as usize >= 64);
//! ```

#![warn(missing_docs)]

pub mod candmc;
pub mod lu2d;
pub mod models;

pub use candmc::{factorize_candmc, CandmcConfig, CandmcRun};
pub use lu2d::{factorize_2d, Lu2dConfig, Lu2dRun, Variant};
