//! Cross-validation of the symbolic bounds against executable pebbling.
//!
//! The `pebbling` crate can *run* schedules, and on cDAGs of at most 20
//! vertices it finds the optimal one. This module checks that the measured
//! `Q` of every schedule, and the optimum itself, dominates the bound the
//! symbolic machinery derives — the soundness property a lower bound must
//! have — and `repro pebbles` prints each comparison. (Tightness shows in
//! the same numbers: blocked schedules come within small constant factors.)

use pebbling::builders::{fig2a_cdag, fig2b_cdag, lu_cdag, mmm_cdag};
use pebbling::game::{execute, greedy_schedule_with_order};
use pebbling::schedule::{lu_right_looking_order, mmm_tiled_order};
use pebbling::{optimal_io, CDag, VertexId};

use crate::kernels::{lu_bound, mmm_bound};
use crate::program::shapes;
use crate::rho::{q_lower_bound, statement_rho};

/// The I/O of pebbling `g` in compute `order` with Belady eviction and `m`
/// red pebbles.
fn belady_q(g: &CDag, m: usize, order: &[VertexId]) -> u64 {
    let moves = greedy_schedule_with_order(g, m, order);
    let stats = execute(g, &moves, m).expect("schedule invalid");
    assert!(stats.complete);
    stats.q()
}

/// Measured I/O of a blocked MMM schedule vs the symbolic bound.
/// Returns `(q_measured, q_bound)`.
pub fn mmm_schedule_vs_bound(n: usize, m: usize, tile: usize) -> (f64, f64) {
    let q = belady_q(&mmm_cdag(n), m, &mmm_tiled_order(n, tile));
    (q as f64, mmm_bound(n as f64, m as f64))
}

/// Measured I/O of the right-looking LU schedule vs the symbolic bound.
/// Returns `(q_measured, q_bound)`.
pub fn lu_schedule_vs_bound(n: usize, m: usize) -> (f64, f64) {
    let (g, groups) = lu_cdag(n);
    let q = belady_q(&g, m, &lu_right_looking_order(&groups));
    (q as f64, lu_bound(n as f64, m as f64).q_total)
}

/// One small cDAG of the paper at one fast-memory size `M`.
pub struct Exact {
    /// The cDAG, as `repro pebbles` names it.
    pub cdag: &'static str,
    /// Its number of vertices.
    pub vertices: usize,
    /// Red pebbles, the fast-memory size `M`.
    pub m: usize,
    /// The optimal I/O ([`optimal_io`]).
    pub optimal: u64,
    /// The Belady I/O of each named compute order, topological first.
    pub belady: Vec<(&'static str, u64)>,
    /// The `iobound` bound at `M`, lower-order terms included.
    pub bound: f64,
}

/// Every point `repro pebbles` searches exactly: the paper's small cDAGs
/// at the memory sizes where [`optimal_io`] takes under a second (release
/// build). MMM at `n = 2` stops at `M = 4`: at 5, 6 and 8 the search takes
/// 1.6, 3.4 and 10 s.
pub fn exact_points() -> Vec<Exact> {
    let mut points = Vec::new();
    let mut add = |cdag, g: &CDag, m, order: Option<(&'static str, Vec<VertexId>)>, bound| {
        let mut belady = vec![("topological", belady_q(g, m, &g.topological_order()))];
        belady.extend(order.map(|(name, order)| (name, belady_q(g, m, &order))));
        let (vertices, optimal) = (g.len(), optimal_io(g, m));
        points.push(Exact {
            cdag,
            vertices,
            m,
            optimal,
            belady,
            bound,
        });
    };
    let mmm = mmm_cdag(2);
    let ijk = ("i-j-k", mmm_tiled_order(2, 2));
    add("MMM, n = 2", &mmm, 4, Some(ijk), mmm_bound(2.0, 4.0));
    let (lu, groups) = lu_cdag(3);
    for m in [4, 5, 6] {
        let right_looking = ("right-looking", lu_right_looking_order(&groups));
        let bound = lu_bound(3.0, m as f64).q_total;
        add("LU, n = 3", &lu, m, Some(right_looking), bound);
    }
    let fig2 = [
        ("Fig. 2a, n = 2", fig2a_cdag(2), shapes::fig2a()),
        ("Fig. 2b, n = 4", fig2b_cdag(4), shapes::fig2b()),
    ];
    for (cdag, g, shape) in &fig2 {
        // Lemma 6: each vertex reads u out-degree-one inputs, so ρ ≤ 1/u
        let u = g.min_outdegree_one_input_preds();
        for m in [3, 4, 5] {
            let rho = statement_rho(shape, m as f64, u);
            let bound = q_lower_bound(g.compute_vertices().len() as f64, rho);
            add(cdag, g, m, None, bound);
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbolic_bounds_never_exceed_optimal() {
        for p in exact_points() {
            let at = format!("{} at M = {}", p.cdag, p.m);
            assert!(
                p.bound <= p.optimal as f64,
                "{at}: bound {} above the optimum {}",
                p.bound,
                p.optimal
            );
            for (order, q) in p.belady {
                assert!(q >= p.optimal, "{at}: {order} order {q} beat the optimum");
            }
        }
    }

    #[test]
    fn mmm_bound_is_sound_on_small_instances() {
        for (n, m, t) in [(4, 8, 2), (6, 12, 2), (8, 14, 2), (8, 27, 3)] {
            let (q, bound) = mmm_schedule_vs_bound(n, m, t);
            assert!(
                q >= bound,
                "schedule beat the lower bound! n={n} m={m} q={q} bound={bound}"
            );
        }
    }

    #[test]
    fn mmm_bound_is_reasonably_tight() {
        // a well-tiled schedule should be within a modest constant factor
        let (q, bound) = mmm_schedule_vs_bound(8, 14, 2);
        assert!(q <= 8.0 * bound, "bound too loose: q={q} bound={bound}");
    }

    #[test]
    fn lu_bound_is_sound_on_small_instances() {
        for (n, m) in [(4, 10), (5, 12), (6, 14), (8, 20), (8, 24), (10, 30)] {
            let (q, bound) = lu_schedule_vs_bound(n, m);
            assert!(
                q >= bound,
                "schedule beat the lower bound! n={n} m={m} q={q} bound={bound}"
            );
        }
    }

    #[test]
    fn lu_bound_is_reasonably_tight() {
        let (q, bound) = lu_schedule_vs_bound(8, 20);
        assert!(q <= 12.0 * bound, "bound too loose: q={q} bound={bound}");
    }
}
