//! `pebbling` — red-blue pebble games and X-partitioning (Sections 2.3, 5
//! of the paper).
//!
//! This crate makes the paper's theoretical machinery executable:
//!
//! * [`cdag`] — computational DAGs whose vertices are element *versions*,
//! * [`builders`] — parametric cDAGs for LU (Fig. 1/4), MMM, and the
//!   out-degree-one examples of Fig. 2,
//! * [`game`] — the sequential red-blue pebble game: executor, rule
//!   validator, and a Belady-eviction greedy scheduler,
//! * [`parallel`] — the `P`-processor game with per-processor hues (Sec. 5),
//! * [`dominator`] — exact minimum dominator sets via max-flow,
//! * [`partition`] — X-partition validation and greedy construction,
//! * [`schedule`] — blocked compute orders whose I/O approaches the bounds,
//! * [`optimal`] — the exact optimal pebbling of cDAGs of ≤ 20 vertices.
//!
//! `repro pebbles` prints what these compute on the paper's small cDAGs,
//! next to the `iobound` crate's bounds.
//!
//! # Example
//!
//! Play the red-blue pebble game on a small MMM cDAG with `M = 8` red
//! pebbles and check the schedule is valid and complete:
//!
//! ```
//! use pebbling::{execute, greedy_schedule, mmm_cdag};
//!
//! let dag = mmm_cdag(3);
//! let moves = greedy_schedule(&dag, 8);
//! let stats = execute(&dag, &moves, 8).expect("rules respected");
//! assert!(stats.complete);
//! assert!(stats.loads > 0);
//! ```

#![warn(missing_docs)]

pub mod builders;
pub mod cdag;
pub mod dominator;
pub mod game;
pub mod optimal;
pub mod parallel;
pub mod partition;
pub mod schedule;

pub use builders::{fig2a_cdag, fig2b_cdag, lu_cdag, mmm_cdag, LuVertexGroups};
pub use cdag::{CDag, VertexId};
pub use dominator::{min_dominator_size, minimum_set};
pub use game::{execute, greedy_schedule, GameError, GameStats, Move};
pub use optimal::optimal_io;
pub use parallel::{execute_parallel, owner_computes_schedule, PMove, ParallelGameStats};
pub use partition::{greedy_partition, XPartition};
