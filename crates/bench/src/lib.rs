//! `conflux-bench` — the experiment harness reproducing every table and
//! figure of the paper's evaluation (Sections 8–9).
//!
//! The library half hosts the shared sweep machinery (`experiments`) and
//! the renderers of the `repro` binary (`repro`), which prints every
//! deterministic paper number (Table 2, Fig. 6a, 6b, 7, the ablations and
//! the theory results) as the markdown block EXPERIMENTS.md shows, and
//! checks those blocks with `repro --check`. The other binaries measure
//! time: `tracecap` (event timelines and critical paths), `perfsmoke`
//! (kernel GFLOP/s), `servload`, `sparsesmoke` and `verify_fuzz`.
//!
//! # Example
//!
//! One Fig. 6-style measurement point: COnfLUX volume at `(N, P)` in the
//! paper's memory regime, compared against the Lemma 10 model:
//!
//! ```
//! use conflux_bench::measure_conflux;
//!
//! let m = measure_conflux(256, 16);
//! assert!(m.total_elements > 0);
//! // the model tracks the measurement within a factor of two at small N
//! let pct = m.prediction_pct();
//! assert!(pct > 50.0 && pct < 200.0, "prediction {pct}%");
//! ```

#![warn(missing_docs)]

pub mod experiments;
pub mod repro;

pub use experiments::{measure_all, measure_conflux, pick_block_size, Implementation, Measurement};
