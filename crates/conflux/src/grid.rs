//! 2.5D grid selection — the paper's Processor Grid Optimization.
//!
//! COnfLUX decomposes `P` ranks as `[q, q, c]` with `q² · c ≤ P`. The paper
//! notes (Section 8, "Implementation") that greedily using all ranks often
//! yields communication-suboptimal grids; COnfLUX instead searches for the
//! grid minimizing modeled communication, possibly *disabling a minor
//! fraction of nodes* — which is what [`choose_grid`] reproduces.

use simnet::topology::{icbrt, isqrt, Grid3D};

use crate::model::conflux_volume_per_rank;

/// A selected COnfLUX processor grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LuGrid {
    /// Ranks made available by the caller.
    pub p_total: usize,
    /// Square 2D grid side (`√P1` in the paper).
    pub q: usize,
    /// Replication depth (`c = PM/N²` capped at `P^(1/3)`).
    pub c: usize,
}

impl LuGrid {
    /// Explicit grid (used by tests and ablations).
    pub fn new(p_total: usize, q: usize, c: usize) -> Self {
        assert!(q >= 1 && c >= 1);
        assert!(q * q * c <= p_total, "grid exceeds available ranks");
        Self { p_total, q, c }
    }

    /// Active ranks `q²·c` (the rest are disabled).
    pub fn active(&self) -> usize {
        self.q * self.q * self.c
    }

    /// Ranks left idle by the grid optimization.
    pub fn disabled(&self) -> usize {
        self.p_total - self.active()
    }

    /// The simnet topology of the active ranks.
    pub fn topology(&self) -> Grid3D {
        Grid3D::new(self.q, self.q, self.c)
    }

    /// Per-rank memory (elements) the grid uses for an `n x n` matrix:
    /// every layer holds a full copy distributed over `q²` ranks.
    pub fn memory_per_rank(&self, n: usize) -> usize {
        (n * n).div_ceil(self.q * self.q)
    }
}

/// Choose the `[q, q, c]` grid for `p` ranks, an `n x n` matrix, and at
/// most `m` elements of memory per rank.
///
/// Feasibility requires `n²/q² ≤ m` (each rank must hold its share of one
/// replica). Among feasible grids the modeled per-rank volume
/// ([`conflux_volume_per_rank`]) is minimized; its fiber-reduction term
/// grows with `c` and keeps the search from over-replicating. `c` is capped
/// at `⌊p^(1/3)⌋` (further replication cannot help LU, as in the paper's
/// experiments where `c = P^(1/3)`).
///
/// # Panics
/// Panics if even the largest grid cannot satisfy the memory bound.
pub fn choose_grid(p: usize, n: usize, m: usize) -> LuGrid {
    assert!(p >= 1 && n >= 1 && m >= 1);
    let q_max = isqrt(p);
    let c_cap = icbrt(p).max(1);
    let mut best: Option<(f64, LuGrid)> = None;
    for q in 1..=q_max {
        if (n * n).div_ceil(q * q) > m {
            continue; // does not fit in memory
        }
        let c = (p / (q * q)).min(c_cap).max(1);
        let grid = LuGrid { p_total: p, q, c };
        let cost = conflux_volume_per_rank(n, &grid);
        if best.as_ref().is_none_or(|(bc, _)| cost < *bc) {
            best = Some((cost, grid));
        }
    }
    best.map(|(_, g)| g).unwrap_or_else(|| {
        panic!("no feasible grid: p={p} n={n} m={m} (need n²/q² ≤ m for some q ≤ √p)")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_accounting() {
        let g = LuGrid::new(10, 2, 2);
        assert_eq!(g.active(), 8);
        assert_eq!(g.disabled(), 2);
        assert_eq!(g.topology().ranks(), 8);
        assert_eq!(g.memory_per_rank(100), 2500);
    }

    #[test]
    fn chosen_grid_fits_memory() {
        for (p, n, m) in [(64, 4096, 1 << 20), (1024, 16384, 1 << 20), (8, 256, 16384)] {
            let g = choose_grid(p, n, m);
            assert!(g.memory_per_rank(n) <= m, "p={p} n={n} m={m} grid={g:?}");
            assert!(g.active() <= p);
        }
    }

    #[test]
    fn plentiful_memory_yields_max_replication() {
        // M >= N²/P^(2/3) allows c = P^(1/3) (the Fig. 6 regime)
        let p = 64;
        let n = 1024;
        let m = n * n; // effectively unlimited
        let g = choose_grid(p, n, m);
        assert_eq!(g.c, 4, "expected c = p^(1/3), got {g:?}");
        assert_eq!(g.q, 4);
    }

    #[test]
    fn scarce_memory_forces_larger_q_smaller_c() {
        let p = 64;
        let n = 4096;
        // memory just fits n²/q² at q = 8 (c then = 1)
        let m = n * n / 64;
        let g = choose_grid(p, n, m);
        assert_eq!(g.q, 8);
        assert_eq!(g.c, 1);
    }

    #[test]
    fn awkward_rank_counts_disable_nodes() {
        // p = 100: grid search may use 98 ranks (7x7x2)... whatever it
        // picks, it must be feasible and leave few ranks idle
        let g = choose_grid(100, 512, 512 * 512);
        assert!(g.active() <= 100);
        assert!(g.disabled() < 100 / 2, "wasted too many ranks: {g:?}");
    }

    #[test]
    #[should_panic(expected = "no feasible grid")]
    fn impossible_memory_panics() {
        let _ = choose_grid(4, 1 << 16, 16);
    }
}
