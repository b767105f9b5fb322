//! Threaded COnfLUX sends one message per (source, destination) pair per
//! phase per step. With `nb = n / v` steps, `P = q²c` ranks and an input
//! whose pivots are the natural row order (`n·I` plus entries in `[-1, 1)`
//! is column diagonally dominant, so step `t` eliminates block row `t`),
//! the per-phase message counts have closed forms:
//!
//! * `[1, 1, 2]` (`v ≥ 2`): phases 01 and 03 send `nb` messages, phases 04,
//!   05, 06, 08 and 10 send `nb − 1` (one per step that has a trailing
//!   block), and phase 02 sends none (its butterfly has one member): `7·nb −
//!   5` in all, 107 at the benchmark's N = 512, v = 32.
//! * `[q, q, c]` with `q = 2`:
//!   - 01: `(c − 1)·Σ_t min(q, nb − t)`: one binomial reduction per fiber
//!     that holds live rows, `c − 1` messages each;
//!   - 02: `q·log2(q)·nb`: the butterfly over the column group;
//!   - 03: `(P − 1)·nb`: the binomial broadcast of `A00`;
//!   - 05: `(c − 1)·Σ_{t < nb−1} min(q, nb − t − 1)`: the pivot rows sit in
//!     one grid row, so one reduction per grid column that owns a trailing
//!     block;
//!   - 04, 06, 08 and 10: `Σ_t |{(src, dst) : src ≠ dst}|` over the pairs
//!     that exchange at least one element of the step's panel. The pairs
//!     are enumerated below straight from the ownership rules: block
//!     `(br, bc)` lives on `(br mod q, bc mod q, 0)`, and position `pos` of
//!     a 1D panel of length `m` lives on rank `pos / ceil(m / P)`.

use std::collections::HashSet;

use conflux_repro::conflux::{factorize_threaded, ConfluxConfig, LuGrid};
use conflux_repro::denselin::{Matrix, SplitMix64};
use conflux_repro::simnet::CommStats;
use conflux_repro::simnet::Grid3D;

/// `n·I` plus uniform noise: tournament pivoting keeps the natural order.
fn natural_order_input(n: usize, seed: u64) -> Matrix {
    let mut rng = SplitMix64::new(seed);
    let mut a = Matrix::random(&mut rng, n, n);
    for i in 0..n {
        a[(i, i)] += n as f64;
    }
    a
}

fn run(n: usize, v: usize, q: usize, c: usize) -> CommStats {
    let a = natural_order_input(n, 90 + (q * 10 + c) as u64);
    let cfg = ConfluxConfig::dense(n, v, LuGrid::new(q * q * c, q, c));
    let run = factorize_threaded(&cfg, &a).expect("fault-free run");
    let f = run.factors.expect("dense run");
    assert_eq!(f.perm, (0..n).collect::<Vec<_>>(), "natural pivot order");
    run.stats
}

/// Distinct off-rank pairs of `pairs`.
fn count_pairs(pairs: impl IntoIterator<Item = (usize, usize)>) -> u64 {
    let set: HashSet<(usize, usize)> = pairs.into_iter().filter(|(s, d)| s != d).collect();
    set.len() as u64
}

#[test]
fn one_layer_pair_sends_one_message_per_phase_and_step() {
    let (n, v) = (128, 8);
    let nb = (n / v) as u64;
    let stats = run(n, v, 1, 2);
    let expect = [
        ("01:reduce-column", nb),
        ("02:tournament", 0),
        ("03:bcast-a00", nb),
        ("04:scatter-a10", nb - 1),
        ("05:reduce-pivot-rows", nb - 1),
        ("06:scatter-a01", nb - 1),
        ("08:send-a10", nb - 1),
        ("10:send-a01", nb - 1),
    ];
    for (phase, msgs) in expect {
        assert_eq!(stats.messages_in_phase(phase), msgs, "{phase}");
    }
    assert_eq!(stats.total_messages(), 7 * nb - 5);
}

#[test]
fn two_by_two_grid_sends_one_message_per_pair_phase_and_step() {
    let (n, v, q, c) = (128, 8, 2, 2);
    let nb = n / v;
    let p = q * q * c;
    let stats = run(n, v, q, c);
    let topo = Grid3D::new(q, q, c);
    let holder = |pos: usize, len: usize| pos / len.div_ceil(p);

    let reduce_column: usize = (c - 1) * (0..nb).map(|t| q.min(nb - t)).sum::<usize>();
    let reduce_pivots: usize = (c - 1) * (0..nb - 1).map(|t| q.min(nb - t - 1)).sum::<usize>();
    assert_eq!(
        stats.messages_in_phase("01:reduce-column"),
        reduce_column as u64
    );
    assert_eq!(stats.messages_in_phase("02:tournament"), (q * nb) as u64);
    assert_eq!(
        stats.messages_in_phase("03:bcast-a00"),
        ((p - 1) * nb) as u64
    );
    assert_eq!(
        stats.messages_in_phase("05:reduce-pivot-rows"),
        reduce_pivots as u64
    );

    let (mut scatter_a10, mut scatter_a01, mut send_a10, mut send_a01) = (0, 0, 0, 0);
    for t in 0..nb {
        let kt = t % c;
        // live rows after step t: the block rows past t, in order
        let rows10: Vec<usize> = ((t + 1) * v..n).collect();
        let n10 = rows10.len();
        let m01 = n10; // square: as many trailing columns as live rows
        let trailing_cols: HashSet<usize> = (t + 1..nb).map(|bc| bc % q).collect();
        let live_rows: HashSet<usize> = (t + 1..nb).map(|br| br % q).collect();
        scatter_a10 += count_pairs(
            rows10
                .iter()
                .enumerate()
                .map(|(pos, &r)| (topo.rank_of((r / v) % q, t % q, 0), holder(pos, n10))),
        );
        scatter_a01 += count_pairs((0..m01).map(|pos| {
            let bc = t + 1 + pos / v;
            (topo.rank_of(t % q, bc % q, 0), holder(pos, m01))
        }));
        send_a10 += count_pairs(rows10.iter().enumerate().flat_map(|(pos, &r)| {
            let (topo, src) = (&topo, holder(pos, n10));
            trailing_cols
                .iter()
                .map(move |&j| (src, topo.rank_of((r / v) % q, j, kt)))
        }));
        send_a01 += count_pairs((0..m01).flat_map(|pos| {
            let (topo, src, bc) = (&topo, holder(pos, m01), t + 1 + pos / v);
            live_rows
                .iter()
                .map(move |&i| (src, topo.rank_of(i, bc % q, kt)))
        }));
    }
    assert_eq!(stats.messages_in_phase("04:scatter-a10"), scatter_a10);
    assert_eq!(stats.messages_in_phase("06:scatter-a01"), scatter_a01);
    assert_eq!(stats.messages_in_phase("08:send-a10"), send_a10);
    assert_eq!(stats.messages_in_phase("10:send-a01"), send_a01);
}
