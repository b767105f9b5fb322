//! Analytic communication models of Table 2.
//!
//! | library  | decomposition | parallel I/O cost per rank        |
//! |----------|---------------|-----------------------------------|
//! | LibSci   | 2D panel      | `N²/√P + O(N²/P)`                 |
//! | SLATE    | 2D block      | `N²/√P + O(N²/P)`                 |
//! | CANDMC   | nested 2.5D   | `5N³/(P√M) + O(N²/(P√M))` \[56\]    |
//! | COnfLUX  | 1D/2.5D       | `N³/(P√M) + O(N²/P)`              |
//!
//! All functions return **elements per rank**; multiply by
//! [`simnet::stats::ELEMENT_BYTES`] for bytes, and by `P` for the totals
//! Table 2 prints.

use conflux::model::conflux_paper_form;

/// LibSci (Cray ScaLAPACK) model: `N²/√P` leading term plus the
/// swap/panel lower-order terms.
pub fn libsci_per_rank(n: f64, p: f64) -> f64 {
    n * n / p.sqrt() + 2.0 * n * n / p
}

/// SLATE model — same 2D decomposition, same leading term.
pub fn slate_per_rank(n: f64, p: f64) -> f64 {
    n * n / p.sqrt() + 2.0 * n * n / p
}

/// CANDMC model, from Solomonik & Demmel (reference \[56\] of the paper).
pub fn candmc_per_rank(n: f64, p: f64, m: f64) -> f64 {
    5.0 * n * n * n / (p * m.sqrt()) + n * n / (p * m.sqrt()) * 8.0
}

/// Memory per rank in the paper's Fig. 6 regime: enough for maximum
/// replication, `M = N²/P^(2/3)` (so that `c = P^(1/3)`).
pub fn fig6_memory(n: f64, p: f64) -> f64 {
    n * n / p.powf(2.0 / 3.0)
}

/// All four models at once: `(libsci, slate, candmc, conflux)` per rank;
/// COnfLUX's is the Lemma-10 form [`conflux_paper_form`].
pub fn all_models_per_rank(n: f64, p: f64, m: f64) -> (f64, f64, f64, f64) {
    (
        libsci_per_rank(n, p),
        slate_per_rank(n, p),
        candmc_per_rank(n, p, m),
        conflux_paper_form(n, p, m),
    )
}

/// Predicted crossover: the paper observes CANDMC's asymptotic optimality
/// only pays off beyond ~450k ranks at N = 16,384. Returns the smallest
/// `P` (power of two search) at which CANDMC's model beats LibSci's.
pub fn candmc_crossover_p(n: f64) -> f64 {
    let mut p = 2.0_f64;
    while p < 1e9 {
        let m = fig6_memory(n, p);
        if candmc_per_rank(n, p, m) < libsci_per_rank(n, p) {
            return p;
        }
        p *= 2.0;
    }
    f64::INFINITY
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_magnitudes_n4096_p64() {
        // Paper Table 2, N=4096, P=64 modeled totals (GB, 8-byte elems):
        // LibSci 1.21, SLATE 1.21, CANDMC 4.9, COnfLUX 1.08.
        let n = 4096.0;
        let p = 64.0;
        let m = fig6_memory(n, p);
        let gb = |per_rank: f64| per_rank * p * 8.0 / 1e9;
        let (l, s, c, x) = all_models_per_rank(n, p, m);
        // our models land in the same ballpark (binary vs decimal GB,
        // lower-order constants): within 2x of the paper's numbers
        assert!((0.5..2.5).contains(&(gb(l) / 1.21)), "libsci {}", gb(l));
        assert!((0.5..2.5).contains(&(gb(s) / 1.21)), "slate {}", gb(s));
        assert!((0.4..2.5).contains(&(gb(c) / 4.9)), "candmc {}", gb(c));
        assert!((0.4..2.5).contains(&(gb(x) / 1.08)), "conflux {}", gb(x));
    }

    #[test]
    fn conflux_beats_everyone_in_paper_regimes() {
        for (n, p) in [
            (4096.0, 64.0),
            (4096.0, 1024.0),
            (16384.0, 64.0),
            (16384.0, 1024.0),
        ] {
            let m = fig6_memory(n, p);
            let (l, s, c, x) = all_models_per_rank(n, p, m);
            assert!(x < l && x < s && x < c, "n={n} p={p}: {l} {s} {c} {x}");
        }
    }

    #[test]
    fn candmc_worse_than_2d_at_measured_scales() {
        // the paper: "for all measured data points, the asymptotically
        // optimal CANDMC performed worse than LibSci or SLATE"
        for p in [64.0, 256.0, 1024.0] {
            let n = 16384.0;
            let m = fig6_memory(n, p);
            assert!(candmc_per_rank(n, p, m) > libsci_per_rank(n, p), "p={p}");
        }
    }

    #[test]
    fn candmc_crossover_is_far_out() {
        // Paper: crossover only beyond ~450k ranks for N=16384 (Fig. 7).
        // With only the *published leading terms* (the lower-order
        // constants of CANDMC's model are not public) the crossover lands
        // at P = (5)^6 ≈ 15.6k — still an order of magnitude beyond every
        // measured configuration (P ≤ 1024), which is the qualitative
        // claim. EXPERIMENTS.md records the quantitative gap.
        let x = candmc_crossover_p(16384.0);
        assert!(x > 4096.0, "crossover too early: {x}");
        assert!(x.is_finite(), "crossover must exist");
    }

    #[test]
    fn weak_scaling_2p5d_flat_2d_grows() {
        // Fig 6b: with N = 3200 * P^(1/3), COnfLUX per-rank volume is
        // constant while 2D grows like P^(1/6)
        let per = |p: f64| {
            let n = 3200.0 * p.powf(1.0 / 3.0);
            let m = fig6_memory(n, p);
            (conflux_paper_form(n, p, m), libsci_per_rank(n, p))
        };
        let (c64, l64) = per(64.0);
        let (c4096, l4096) = per(4096.0);
        assert!(
            (c4096 / c64 - 1.0).abs() < 0.3,
            "2.5D should stay flat: {c64} -> {c4096}"
        );
        assert!(l4096 / l64 > 1.4, "2D should grow: {l64} -> {l4096}");
    }
}
