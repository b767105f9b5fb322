//! Exact optimal red-blue pebbling for tiny cDAGs.
//!
//! Finding an optimal pebbling is P-SPACE complete in general (Section
//! 2.3.4), but for graphs of ≤ 20 vertices a Dijkstra search over game
//! states is tractable. This gives *ground truth* to validate both the
//! greedy scheduler (never better than optimal) and the symbolic lower
//! bounds (never above optimal) on small instances — closing the loop
//! between the paper's theory and executable schedules.
//!
//! State: (red set, blue set) as bitmasks; transitions are
//! the four game moves; edge weight 1 for load/store, 0 for compute and
//! discard. The search minimizes `Q` to reach "all outputs blue".

#![allow(clippy::needless_range_loop)]

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use crate::cdag::{CDag, VertexId};

/// Compute the optimal I/O cost `Q` of pebbling `g` with `m` red pebbles.
///
/// # Panics
/// Panics if the graph has more than 20 vertices (state space too large)
/// or if `m` is too small for any valid pebbling (max in-degree + 1).
pub fn optimal_io(g: &CDag, m: usize) -> u64 {
    let n = g.len();
    assert!(n <= 20, "exact search limited to 20 vertices");
    let max_indeg = (0..n as VertexId)
        .map(|v| g.preds(v).len())
        .max()
        .unwrap_or(0);
    assert!(m > max_indeg, "need at least max in-degree + 1 red pebbles");

    let mut input_mask: u32 = 0;
    for v in g.inputs() {
        input_mask |= 1 << v;
    }
    let mut output_mask: u32 = 0;
    for v in g.outputs() {
        output_mask |= 1 << v;
    }
    let pred_masks: Vec<u32> = (0..n as VertexId)
        .map(|v| g.preds(v).iter().fold(0u32, |acc, &p| acc | 1 << p))
        .collect();

    // State = (red, blue). "Computed" state is implied: a vertex may be
    // (re)computed whenever its preds are red, so we don't track history —
    // recomputation is allowed, exactly as in the game.
    type State = (u32, u32);
    let start: State = (0, input_mask);

    let mut dist: HashMap<State, u64> = HashMap::new();
    let mut heap: BinaryHeap<Reverse<(u64, State)>> = BinaryHeap::new();
    dist.insert(start, 0);
    heap.push(Reverse((0, start)));

    while let Some(Reverse((q, (red, blue)))) = heap.pop() {
        if dist.get(&(red, blue)).copied() != Some(q) {
            continue; // stale entry
        }
        if blue & output_mask == output_mask {
            return q;
        }
        let red_count = red.count_ones() as usize;
        let push = |heap: &mut BinaryHeap<Reverse<(u64, State)>>,
                    dist: &mut HashMap<State, u64>,
                    nq: u64,
                    ns: State| {
            let best = dist.get(&ns).copied().unwrap_or(u64::MAX);
            if nq < best {
                dist.insert(ns, nq);
                heap.push(Reverse((nq, ns)));
            }
        };

        for v in 0..n {
            let bit = 1u32 << v;
            // load
            if blue & bit != 0 && red & bit == 0 && red_count < m {
                push(&mut heap, &mut dist, q + 1, (red | bit, blue));
            }
            // store
            if red & bit != 0 && blue & bit == 0 {
                push(&mut heap, &mut dist, q + 1, (red, blue | bit));
            }
            // compute
            if red & bit == 0
                && input_mask & bit == 0
                && red & pred_masks[v] == pred_masks[v]
                && red_count < m
            {
                push(&mut heap, &mut dist, q, (red | bit, blue));
            }
            // discard red
            if red & bit != 0 {
                push(&mut heap, &mut dist, q, (red & !bit, blue));
            }
            // discarding blue never helps reach "outputs blue" faster
        }
    }
    unreachable!("a valid pebbling always exists with m >= max in-degree + 1")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{fig2b_cdag, lu_cdag, mmm_cdag};
    use crate::game::{execute, greedy_schedule};

    fn path(n: usize) -> CDag {
        let mut g = CDag::new();
        let vs: Vec<VertexId> = (0..n).map(|i| g.add_vertex(format!("v{i}"))).collect();
        for w in vs.windows(2) {
            g.add_edge(w[0], w[1]);
        }
        g
    }

    #[test]
    fn path_needs_one_load_one_store() {
        let g = path(5);
        let opt = optimal_io(&g, 2);
        assert_eq!(opt, 2); // load the input, chain computes, store output
    }

    #[test]
    fn fig2b_needs_2n_loads_n_stores() {
        // c[i] = f(a[i], b[i]): every input loaded once, every output stored
        let n = 3;
        let g = fig2b_cdag(n);
        let opt = optimal_io(&g, 3);
        assert_eq!(opt, (3 * n) as u64);
    }

    #[test]
    fn greedy_never_beats_optimal() {
        // kept tiny: the state space grows as C(n, <=m) * 2^(non-inputs)
        for (g, m) in [
            (mmm_cdag(2), 4usize),
            (lu_cdag(2).0, 4),
            (fig2b_cdag(4), 3),
            (path(6), 2),
        ] {
            let opt = optimal_io(&g, m);
            let moves = greedy_schedule(&g, m);
            let greedy_q = execute(&g, &moves, m).unwrap().q();
            assert!(
                greedy_q >= opt,
                "greedy ({greedy_q}) below optimal ({opt})?!"
            );
            // and greedy should be within a small factor on these tiny graphs
            assert!(greedy_q <= 3 * opt, "greedy too weak: {greedy_q} vs {opt}");
        }
    }

    #[test]
    fn more_memory_weakly_improves_optimal() {
        let g = fig2b_cdag(3); // 9 vertices, small state space
        let q3 = optimal_io(&g, 3);
        let q4 = optimal_io(&g, 4);
        assert!(q4 <= q3);
        // compulsory traffic only once everything fits
        let q9 = optimal_io(&g, 9);
        assert_eq!(q9, (g.inputs().len() + g.outputs().len()) as u64);
    }

    #[test]
    #[should_panic(expected = "20 vertices")]
    fn large_graph_rejected() {
        let _ = optimal_io(&mmm_cdag(3), 8);
    }
}
