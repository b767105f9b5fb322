//! Analytic communication model of COnfLUX (Lemma 10 / Table 2).
//!
//! Lemma 10: `Q_COnfLUX = N³/(P√M) + O(N²/P)` elements per processor.
//! The per-step accounting (Section 7.4) on a `[q, q, c]` grid, with
//! `P = q²c` and `√M = N/q`, sums to:
//!
//! * steps 8+10 (panel sends): `Σ_t 2(N−tv)Nv/(P√M) = N³/(P√M) = N²/(qc)`,
//! * steps 4+6 (panel scatters): `Σ_t 2(N−tv)v/P = N²/P`,
//! * steps 1+5 (fiber reductions): `(c−1)·N²/P`. Lemma 10 writes this as
//!   `O(N²/P)`, but it is not lower order where the paper runs: at
//!   `c = P^(1/3)` the grid has `q ≈ c`, and the term's ratio to the
//!   leading one is `(c−1)/q`, close to 1,
//! * steps 2+3 (pivoting + A00 broadcast): `O(v N log P / P + N v)`. These
//!   are not modeled; they shrink relative to the terms above as `N` grows,
//!   and omitting them is why the model under-predicts measured volume.
//!
//! The model reports the same quantity the simulator counts: elements sent,
//! per rank (mean over active ranks).

use crate::grid::LuGrid;

/// Modeled COnfLUX communication volume per rank, in elements.
///
/// `√M` is taken as `n/q` — the actual per-rank share a `[q,q,c]` grid
/// stores, which is how the implementation behaves (and how the paper's
/// experiments configure memory: `M ≥ N²/P^(2/3)` so that `c = P^(1/3)`).
pub fn conflux_volume_per_rank(n: usize, grid: &LuGrid) -> f64 {
    let nf = n as f64;
    let (q, c) = (grid.q as f64, grid.c as f64);
    let p = grid.active() as f64;
    // steps 8 + 10: leading term N³/(P√M) with √M = n/q  =>  n²/(q·c)
    let panels = nf * nf / (q * c);
    // steps 4 + 6: 1D scatters, ~N²/P total per cycle of steps
    let scatters = nf * nf / p;
    // steps 1 + 5: fiber reductions, (c−1)/c of N² total spread over P
    let reductions = nf * nf * (c - 1.0) / p;
    // steps 2 + 3 (tournament butterfly + A00 broadcast) are O(v·N) per
    // run spread over P ranks — lower order than the terms above in every
    // measured regime, so the model omits them like the paper's Table 2.
    panels + scatters + reductions
}

/// The paper's headline closed form `N³/(P√M) + O(N²/P)` per rank, with an
/// explicit memory parameter (elements per rank).
pub fn conflux_paper_form(n: f64, p: f64, m: f64) -> f64 {
    n * n * n / (p * m.sqrt()) + n * n / p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_equals_paper_form_in_its_regime() {
        // with M = n²/q², the leading terms coincide
        let n = 16384;
        let grid = LuGrid::new(1024, 16, 4);
        let m = grid.memory_per_rank(n) as f64;
        let ours = conflux_volume_per_rank(n, &grid);
        let paper = conflux_paper_form(n as f64, grid.active() as f64, m);
        let ratio = ours / paper;
        assert!(
            (0.5..2.5).contains(&ratio),
            "model too far from the paper form: ratio {ratio}"
        );
    }

    #[test]
    fn replication_reduces_leading_term() {
        for (n, small, large) in [
            (8192, LuGrid::new(64, 8, 1), LuGrid::new(256, 8, 4)),
            (4096, LuGrid::new(32, 4, 2), LuGrid::new(256, 8, 4)),
        ] {
            let a = conflux_volume_per_rank(n, &small);
            let b = conflux_volume_per_rank(n, &large);
            assert!(b < a, "n={n}: {small:?} {a} vs {large:?} {b}");
        }
    }
}
