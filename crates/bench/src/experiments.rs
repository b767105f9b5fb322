//! Sweep machinery shared by the `repro` blocks and `tracecap`.

use baselines::lu2d::{factorize_2d, Lu2dConfig, Variant};
use baselines::{factorize_candmc, models, CandmcConfig};
use conflux::grid::choose_grid;
use conflux::{factorize, ConfluxConfig, Mode};
use simnet::stats::ELEMENT_BYTES;

/// The four measured implementations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Implementation {
    /// Cray LibSci-style 2D ScaLAPACK.
    LibSci,
    /// SLATE-style 2D.
    Slate,
    /// CANDMC-style 2.5D.
    Candmc,
    /// COnfLUX.
    Conflux,
}

impl Implementation {
    /// All four, in Table 2 column order.
    pub const ALL: [Implementation; 4] = [
        Implementation::LibSci,
        Implementation::Slate,
        Implementation::Candmc,
        Implementation::Conflux,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Implementation::LibSci => "LibSci",
            Implementation::Slate => "SLATE",
            Implementation::Candmc => "CANDMC",
            Implementation::Conflux => "COnfLUX",
        }
    }
}

/// One simulated data point.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Which implementation.
    pub implementation: Implementation,
    /// Matrix order.
    pub n: usize,
    /// Ranks made available.
    pub p: usize,
    /// Total elements sent across all ranks.
    pub total_elements: u64,
    /// Elements sent by the busiest rank (the Fig. 6 per-node series).
    pub max_per_rank: u64,
    /// Modeled elements per rank (Table 2 models).
    pub model_per_rank: f64,
}

impl Measurement {
    /// Measured total volume in GB (8-byte elements), as Table 2 reports.
    pub fn total_gb(&self) -> f64 {
        self.total_elements as f64 * ELEMENT_BYTES as f64 / 1e9
    }

    /// Modeled total volume in GB.
    pub fn model_total_gb(&self) -> f64 {
        self.model_per_rank * self.p as f64 * ELEMENT_BYTES as f64 / 1e9
    }

    /// Measured mean volume per rank in bytes (Fig. 6's y axis).
    pub fn mean_per_rank_bytes(&self) -> f64 {
        self.total_elements as f64 / self.p as f64 * ELEMENT_BYTES as f64
    }

    /// Prediction accuracy `modeled/measured` in percent, as Table 2's
    /// parenthesised column.
    pub fn prediction_pct(&self) -> f64 {
        100.0 * self.model_total_gb() / self.total_gb().max(1e-300)
    }
}

/// Pick a COnfLUX/CANDMC block size: a divisor of `n` that is at least
/// `c` (feasibility) and near the paper's prescription `v = a·c` for a
/// small constant `a` — large enough for kernel efficiency, small enough
/// that the per-step `A00` broadcast (`P·v·N` elements over the whole run)
/// stays lower-order.
pub fn pick_block_size(n: usize, q: usize, c: usize) -> usize {
    let _ = q;
    let ideal = (4 * c).max(16);
    // largest divisor of n that is <= ideal, but at least c
    let mut best = None;
    for d in 1..=n {
        if n.is_multiple_of(d) && d >= c {
            if d <= ideal {
                best = Some(d);
            } else if best.is_none() {
                best = Some(d);
                break;
            } else {
                break;
            }
        }
    }
    best.expect("n has a divisor >= c")
}

/// Measure one implementation (Phantom mode) at `(n, p)` in the Fig. 6
/// memory regime.
pub fn measure(imp: Implementation, n: usize, p: usize) -> Measurement {
    let m = models::fig6_memory(n as f64, p as f64).ceil() as usize;
    match imp {
        Implementation::LibSci | Implementation::Slate => {
            let variant = if imp == Implementation::LibSci {
                Variant::LibSci
            } else {
                Variant::Slate
            };
            let cfg = Lu2dConfig::for_ranks(n, p, variant, Mode::Phantom);
            let run = factorize_2d(&cfg, None);
            let model = models::libsci_per_rank(n as f64, p as f64);
            Measurement {
                implementation: imp,
                n,
                p,
                total_elements: run.stats.total_sent(),
                max_per_rank: run.stats.max_sent_per_rank(),
                model_per_rank: model,
            }
        }
        Implementation::Candmc => {
            let grid = choose_grid(p, n, m);
            let v = pick_block_size(n, grid.q, grid.c);
            let run = factorize_candmc(&CandmcConfig::phantom(n, v, grid), None)
                .expect("a Phantom run does no arithmetic, so it cannot be singular");
            let model = models::candmc_per_rank(
                n as f64,
                grid.active() as f64,
                grid.memory_per_rank(n) as f64,
            );
            Measurement {
                implementation: imp,
                n,
                p,
                total_elements: run.stats.total_sent(),
                max_per_rank: run.stats.max_sent_per_rank(),
                model_per_rank: model,
            }
        }
        Implementation::Conflux => {
            let grid = choose_grid(p, n, m);
            let v = pick_block_size(n, grid.q, grid.c);
            let run = factorize(&ConfluxConfig::phantom(n, v, grid), None);
            // full Lemma 10 model including the lower-order reduction and
            // scatter terms (the paper's modeled column also includes them)
            let model = conflux::model::conflux_volume_per_rank(n, &grid);
            Measurement {
                implementation: imp,
                n,
                p,
                total_elements: run.stats.total_sent(),
                max_per_rank: run.stats.max_sent_per_rank(),
                model_per_rank: model,
            }
        }
    }
}

/// Measure all four implementations at `(n, p)`.
pub fn measure_all(n: usize, p: usize) -> Vec<Measurement> {
    Implementation::ALL
        .iter()
        .map(|&imp| measure(imp, n, p))
        .collect()
}

/// Measure COnfLUX alone (ablation sweeps).
pub fn measure_conflux(n: usize, p: usize) -> Measurement {
    measure(Implementation::Conflux, n, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_size_divides_and_respects_c() {
        for (n, q, c) in [(4096, 8, 4), (16384, 16, 4), (6400, 4, 2), (512, 4, 4)] {
            let v = pick_block_size(n, q, c);
            assert_eq!(n % v, 0, "n={n} v={v}");
            assert!(v >= c, "n={n} v={v} c={c}");
        }
    }

    #[test]
    fn small_sweep_orders_implementations_correctly() {
        // the paper's headline: COnfLUX communicates least. N must be
        // large enough relative to P that the leading term dominates the
        // lower-order redistribution terms (the paper's smallest config is
        // N = 4096; N = 2048 is already past the crossover at P = 64).
        let ms = measure_all(2048, 64);
        let volume = |imp: Implementation| {
            ms.iter()
                .find(|m| m.implementation == imp)
                .unwrap()
                .total_elements
        };
        assert!(volume(Implementation::Conflux) < volume(Implementation::LibSci));
        assert!(volume(Implementation::Conflux) < volume(Implementation::Slate));
        assert!(volume(Implementation::Conflux) < volume(Implementation::Candmc));
    }

    #[test]
    fn paper_configurations_pick_pinned_grids() {
        // every (P, N) that repro's table2, fig6a, fig6b, fig7 and ablations
        // blocks measure, with the [q, q, c] grid `choose_grid` picks in the
        // Fig. 6 memory regime; a model change that moves a paper grid
        // shows up as a diff here
        let table2 = [
            (64, 4096, [4, 4, 4]),
            (1024, 4096, [13, 13, 6]),
            (64, 16384, [4, 4, 4]),
            (1024, 16384, [13, 13, 6]),
        ];
        let fig6a = [
            (4, 16384, [2, 2, 1]),
            (8, 16384, [2, 2, 2]),
            (16, 16384, [4, 4, 1]),
            (32, 16384, [4, 4, 2]),
            (64, 16384, [4, 4, 4]),
            (128, 16384, [8, 8, 2]),
            (256, 16384, [8, 8, 4]),
            (512, 16384, [10, 10, 5]),
            (1024, 16384, [13, 13, 6]),
        ];
        let fig6b = [
            (8, 6400, [2, 2, 2]),
            (27, 9600, [3, 3, 3]),
            (64, 12800, [4, 4, 4]),
            (125, 16000, [5, 5, 5]),
            (216, 19200, [6, 6, 6]),
            (512, 25600, [10, 10, 5]),
            (1000, 32000, [14, 14, 5]),
        ];
        let fig7 = [4096, 8192, 16384].into_iter().flat_map(|n| {
            [
                (16, n, [4, 4, 1]),
                (64, n, [4, 4, 4]),
                (256, n, [8, 8, 4]),
                (1024, n, [13, 13, 6]),
            ]
        });
        // the ablations' grid-optimization case, at an awkward P
        let ablations = [(60, 1024, [5, 5, 2])];
        let measured = table2
            .into_iter()
            .chain(fig6a)
            .chain(fig6b)
            .chain(fig7)
            .chain(ablations);
        for (p, n, want) in measured {
            let g = choose_grid(
                p,
                n,
                models::fig6_memory(n as f64, p as f64).ceil() as usize,
            );
            assert_eq!([g.q, g.q, g.c], want, "p={p} n={n}");
        }
    }

    #[test]
    fn measurement_units() {
        let m = Measurement {
            implementation: Implementation::Conflux,
            n: 10,
            p: 4,
            total_elements: 1_000_000,
            max_per_rank: 300_000,
            model_per_rank: 250_000.0,
        };
        assert!((m.total_gb() - 0.008).abs() < 1e-9);
        assert!((m.mean_per_rank_bytes() - 2_000_000.0).abs() < 1e-6);
        assert!((m.prediction_pct() - 100.0).abs() < 1e-9);
    }
}
