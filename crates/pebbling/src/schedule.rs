//! I/O-efficient pebbling orders.
//!
//! Belady eviction ([`crate::game::greedy_schedule`]) turns any compute
//! order into a valid schedule; the *order* determines locality. This module
//! provides the blocked orders that achieve near-optimal I/O:
//!
//! * [`mmm_tiled_order`] — cube-tiled MMM traversal; with tile `t ≈ √(M/3)`
//!   its I/O approaches the `2N³/√M` optimum,
//! * [`lu_right_looking_order`] — the natural right-looking LU order of
//!   Figure 1 (the order COnfLUX's local computations follow).

use crate::builders::LuVertexGroups;
use crate::cdag::VertexId;

/// Vertex id of the partial sum `C(i,j)#k` in
/// [`crate::builders::mmm_cdag`]`(n)`.
fn mmm_c_id(n: usize, i: usize, j: usize, k: usize) -> VertexId {
    (2 * n * n + (i * n + j) * n + k) as VertexId
}

/// Compute order traversing `C` in `t x t x t` tiles: for each `(it, jt)`
/// output tile, sweep the full `k` dimension tile by tile before moving on,
/// so each `A`/`B` tile is loaded once per output tile.
///
/// The `k` dimension must advance innermost *within a `(i, j) x k`-tile* to
/// respect the partial-sum chain.
pub fn mmm_tiled_order(n: usize, t: usize) -> Vec<VertexId> {
    assert!(t >= 1);
    let mut order = Vec::with_capacity(n * n * n);
    let nt = n.div_ceil(t);
    for it in 0..nt {
        for jt in 0..nt {
            for kt in 0..nt {
                for i in it * t..((it + 1) * t).min(n) {
                    for j in jt * t..((jt + 1) * t).min(n) {
                        for k in kt * t..((kt + 1) * t).min(n) {
                            order.push(mmm_c_id(n, i, j, k));
                        }
                    }
                }
            }
        }
    }
    order
}

/// The natural right-looking LU compute order: for each elimination step
/// `k`, all of `S1(k)` (column scaling) then all of `S2(k)` (trailing
/// update).
pub fn lu_right_looking_order(groups: &LuVertexGroups) -> Vec<VertexId> {
    let mut order = Vec::new();
    for (s1, s2) in groups.s1.iter().zip(&groups.s2) {
        order.extend_from_slice(s1);
        order.extend_from_slice(s2);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{lu_cdag, mmm_cdag};
    use crate::game::{execute, greedy_schedule_with_order};

    #[test]
    fn c_id_matches_its_label() {
        let n = 4;
        let g = mmm_cdag(n);
        assert_eq!(g.find("C(3,2)#1"), Some(mmm_c_id(n, 3, 2, 1)));
    }

    #[test]
    fn tiled_order_is_topological_for_chains() {
        // within each (i, j), k must be increasing in the order
        let n = 6;
        for t in [1, 2, 3, 4] {
            let order = mmm_tiled_order(n, t);
            assert_eq!(order.len(), n * n * n, "t={t}");
            let mut last_k = vec![vec![-1i64; n]; n];
            let base = (2 * n * n) as i64;
            for &v in &order {
                let rest = v as i64 - base;
                let k = rest % n as i64;
                let ij = rest / n as i64;
                let (i, j) = ((ij / n as i64) as usize, (ij % n as i64) as usize);
                assert_eq!(k, last_k[i][j] + 1, "chain order broken at t={t}");
                last_k[i][j] = k;
            }
        }
    }

    #[test]
    fn tiled_schedule_valid_and_better_than_untiled() {
        let n = 8;
        let m = 14; // small memory to force eviction traffic
        let g = mmm_cdag(n);
        let t = 2; // ~ sqrt(m/3)
        let tiled = greedy_schedule_with_order(&g, m, &mmm_tiled_order(n, t));
        let q_tiled = execute(&g, &tiled, m).unwrap().q();
        let naive = greedy_schedule_with_order(&g, m, &mmm_tiled_order(n, n));
        let q_naive = execute(&g, &naive, m).unwrap().q();
        assert!(
            q_tiled < q_naive,
            "tiling should reduce I/O: tiled={q_tiled} naive={q_naive}"
        );
    }

    #[test]
    fn lu_right_looking_schedule_valid() {
        let n = 6;
        let (g, groups) = lu_cdag(n);
        let order = lu_right_looking_order(&groups);
        assert_eq!(order.len(), g.compute_vertices().len());
        let m = 20;
        let moves = greedy_schedule_with_order(&g, m, &order);
        let stats = execute(&g, &moves, m).unwrap();
        assert!(stats.complete);
    }

    #[test]
    fn lu_q_exceeds_s1_count() {
        // Lemma 6 consequence: rho_S1 <= 1, so Q >= |S1| from loads of the
        // out-degree-one A(i,k) inputs alone; any valid schedule must obey.
        let n = 6;
        let (g, groups) = lu_cdag(n);
        let order = lu_right_looking_order(&groups);
        let m = 20;
        let moves = greedy_schedule_with_order(&g, m, &order);
        let q = execute(&g, &moves, m).unwrap().q() as usize;
        let s1_count = n * (n - 1) / 2;
        assert!(q >= s1_count, "q={q} s1={s1_count}");
    }
}
