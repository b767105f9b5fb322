//! COnfLUX on the real-threads backend: Algorithm 1 executed as a genuine
//! SPMD program, one OS thread per rank, under supervision.
//!
//! The orchestrated driver in [`crate::algorithm`] walks the 11 steps
//! centrally and *charges* a [`simnet::Network`]; this module runs the same
//! steps where every rank owns only its block-cyclic shard and every
//! transfer is a real message through [`simnet::threaded`]. Both backends
//! follow the identical communication plans (the shared `a10_scatter_plan`
//! / `a01_scatter_plan` / segment helpers), use the same phase names, and —
//! under a zero fault plan — charge byte-identical per-rank, per-phase
//! volumes, which `tests/distributed_vs_serial.rs` asserts.
//!
//! # Rank storage
//!
//! Rank `(i, j, k)` owns block rows `br ≡ i` and block columns `bc ≡ j`
//! (mod `q`) and keeps them in one contiguous `RankStore`: a
//! `rows x cols` delta matrix (the Schur-update accumulator of its layer)
//! plus, on layer 0, a base matrix of the input values; the true value of
//! an element is `base − Σ_layers delta`. Local columns follow the global
//! block order, so the trailing block columns of step `t` are always a
//! column suffix. Rows are addressed through a slot map: when step 3 fixes
//! the pivots, every pivot row the rank owns is swapped into the *retired*
//! prefix of the slots (a local data move, never charged as
//! communication). The live rows are then exactly the slots past the
//! prefix, so step 11's whole Schur update is one in-place GEMM on the
//! submatrix `delta[retired.., trailing..]` with the received `A10` rows
//! packed in slot order and the received `A01` blocks packed side by side.
//! Each element receives one `+= Σ_k l·u` over the `v` terms in a fixed
//! order, whatever its slot or tile, so the factors do not depend on the
//! storage layout (DESIGN.md §17).
//!
//! # Faults
//!
//! Under a seeded [`FaultPlan`](simnet::FaultPlan) the supervisor injects
//! drops (retransmitted with backoff, every attempt charged), duplicates
//! (deduplicated by sequence number), delays, reorders and rank crashes.
//! Message faults never change the numerics — the factors and the residual
//! are identical to the fault-free run, only the traffic and the retry
//! count grow. A crash surfaces as a structured [`LuError`] with partial
//! statistics within the supervisor's deadline instead of a hang.
//!
//! Restrictions compared to the orchestrated driver: Dense mode with
//! masking pivoting only, and `q` must be a power of two (the tournament
//! butterfly converges — and matches the orchestrated volume formula —
//! only on power-of-two groups).

use std::collections::{HashMap, HashSet};

use denselin::gemm::{auto_threads, gemm_with, GemmConfig};
use denselin::matrix::Matrix;
use denselin::tournament::{local_candidates, lu_no_pivot, playoff_round, Candidates};
use denselin::trsm::{trsm_lower_left_parallel, trsm_upper_right};
use simnet::error::SimnetResult;
use simnet::network::BcastAlgo;
use simnet::stats::Rank;
use simnet::threaded::{run_spmd_supervised, RankCtx, Supervisor};
use simnet::topology::{Coord3D, Grid3D};

use crate::algorithm::{
    a01_scatter_plan, a01_send_segments, a10_scatter_plan, a10_send_segments,
    grid_cols_of_trailing, grid_rows_of_live, ConfluxConfig, ConfluxRun, LuError, LuFactors,
};
use crate::pivoting::{synthetic_winners, PivotChoice, PivotStrategy};
use crate::store::rows_by_block;
use crate::tiles::Mode;

/// What one rank contributes to the assembly of one step's factors. The
/// final `L`/`U` are stitched from these after the threads join — assembly
/// is a result-collection artifact of the harness, not communication the
/// algorithm performs, so it is not charged.
struct StepShard {
    /// Pivot rows in elimination order (filled by rank 0 only).
    pivots: Vec<usize>,
    /// Factored `A00` (rank 0 only).
    a00: Option<Matrix>,
    /// Global row ids of this rank's factored `A10` rows.
    a10_rows: Vec<usize>,
    /// This rank's factored `A10` rows, one per entry of `a10_rows`.
    a10: Matrix,
    /// Global column of the first of this rank's factored `A01` columns.
    a01_col0: usize,
    /// This rank's factored `A01` columns (`v` rows, pivot order).
    a01: Matrix,
}

/// One rank's block-cyclic shard of the matrix in contiguous storage; see
/// the module docs for the layout.
struct RankStore {
    v: usize,
    q: usize,
    /// This rank's grid column: local block columns are `bc ≡ j (mod q)`.
    j: usize,
    /// Schur-update accumulators of this rank's layer, `rows x cols`.
    delta: Matrix,
    /// Input values, `rows x cols`, on layer-0 owners only.
    base: Option<Matrix>,
    /// Slot of each owned global row (`usize::MAX` for rows not owned).
    slot_of: Vec<usize>,
    /// Global row held in each slot.
    row_at: Vec<usize>,
    /// Slots `0..retired` hold rows already eliminated as pivots.
    retired: usize,
}

impl RankStore {
    /// Carve rank `me`'s shard out of the `n x n` input.
    fn new(a: &Matrix, v: usize, q: usize, me: Coord3D) -> Self {
        let n = a.rows();
        let owned = |g: usize| (g..n / v).step_by(q);
        let row_at: Vec<usize> = owned(me.i).flat_map(|br| br * v..(br + 1) * v).collect();
        let cols = owned(me.j).count() * v;
        let mut slot_of = vec![usize::MAX; n];
        for (slot, &r) in row_at.iter().enumerate() {
            slot_of[r] = slot;
        }
        let base = (me.k == 0).then(|| {
            let mut base = Matrix::zeros(row_at.len(), cols);
            for (slot, &r) in row_at.iter().enumerate() {
                for (lb, bc) in owned(me.j).enumerate() {
                    base.row_mut(slot)[lb * v..(lb + 1) * v]
                        .copy_from_slice(&a.row(r)[bc * v..(bc + 1) * v]);
                }
            }
            base
        });
        RankStore {
            v,
            q,
            j: me.j,
            delta: Matrix::zeros(row_at.len(), cols),
            base,
            slot_of,
            row_at,
            retired: 0,
        }
    }

    /// First local column of block column `bc` (which this rank owns).
    fn lcol(&self, bc: usize) -> usize {
        debug_assert_eq!(bc % self.q, self.j, "block column not owned");
        bc / self.q * self.v
    }

    /// First local column past the block columns `0..=t`: the start of
    /// step `t`'s trailing region.
    fn trailing_col(&self, t: usize) -> usize {
        (t + self.q - self.j) / self.q * self.v
    }

    /// Rows not yet eliminated, i.e. slots `retired..`.
    fn live(&self) -> usize {
        self.row_at.len() - self.retired
    }

    /// Index of owned live row `r` among the live slots.
    fn live_index(&self, r: usize) -> usize {
        debug_assert!(self.slot_of[r] >= self.retired, "row {r} is retired");
        self.slot_of[r] - self.retired
    }

    fn base(&self) -> &Matrix {
        self.base.as_ref().expect("base lives on layer 0")
    }

    /// Columns `off..off + len` of block column `bc` of base row `r`.
    fn base_slice(&self, r: usize, bc: usize, off: usize, len: usize) -> &[f64] {
        let c0 = self.lcol(bc) + off;
        &self.base().row(self.slot_of[r])[c0..c0 + len]
    }

    /// Block column `bc` of `rows` in `m` (delta or base), flattened.
    fn gather(&self, m: &Matrix, bc: usize, rows: &[usize]) -> Vec<f64> {
        let c0 = self.lcol(bc);
        let mut out = Vec::with_capacity(rows.len() * self.v);
        for &r in rows {
            out.extend_from_slice(&m.row(self.slot_of[r])[c0..c0 + self.v]);
        }
        out
    }

    /// Current base values of `rows` in block column `bc`, flattened.
    fn gather_base_rows(&self, bc: usize, rows: &[usize]) -> Vec<f64> {
        self.gather(self.base(), bc, rows)
    }

    /// [`Self::gather_base_rows`] as a `rows.len() x v` panel.
    fn read_base_rows(&self, bc: usize, rows: &[usize]) -> Matrix {
        Matrix::from_vec(rows.len(), self.v, self.gather_base_rows(bc, rows))
    }

    /// Fold every layer's delta for `rows` of block column `bc` into the
    /// base: a sum over the layer fiber when `c > 1`, then `base -= sum` on
    /// the layer-0 owner. The deltas are zeroed on every layer.
    fn fold_layers(
        &mut self,
        ctx: &mut RankCtx,
        fiber: &[Rank],
        bc: usize,
        rows: &[usize],
        tag: u64,
        phase: &'static str,
    ) -> SimnetResult<()> {
        let contrib = self.gather(&self.delta, bc, rows);
        let folded = if fiber.len() > 1 {
            ctx.try_reduce_sum(fiber, fiber[0], contrib, tag, phase)?
        } else {
            Some(contrib)
        };
        let (c0, v) = (self.lcol(bc), self.v);
        for &r in rows {
            self.delta.row_mut(self.slot_of[r])[c0..c0 + v].fill(0.0);
        }
        if let Some(sum) = folded {
            let base = self.base.as_mut().expect("base lives on layer 0");
            for (&r, s) in rows.iter().zip(sum.chunks_exact(v)) {
                for (b, x) in base.row_mut(self.slot_of[r])[c0..c0 + v].iter_mut().zip(s) {
                    *b -= x;
                }
            }
        }
        Ok(())
    }

    /// Move every owned row of `pivots` into the retired prefix.
    fn retire(&mut self, pivots: &[usize]) {
        for &r in pivots {
            let slot = self.slot_of[r];
            if slot == usize::MAX {
                continue;
            }
            let dst = self.retired;
            self.delta.swap_rows(slot, dst);
            if let Some(base) = self.base.as_mut() {
                base.swap_rows(slot, dst);
            }
            let other = self.row_at[dst];
            self.row_at.swap(slot, dst);
            self.slot_of[other] = slot;
            self.slot_of[r] = dst;
            self.retired += 1;
        }
    }

    /// Step 11: `delta[live, trailing] += l · u` in place, with `l` holding
    /// the live rows in slot order and `u` the trailing columns.
    fn schur_update(&mut self, t: usize, l: &Matrix, u: &Matrix) {
        let c0 = self.trailing_col(t);
        let at = (self.retired, c0);
        gemm_with(&mut self.delta, at, 1.0, l, u, 1.0, &GemmConfig::serial());
    }
}

/// `tag = (step-major counter) << 12 | plan index`: unique per collective
/// or point-to-point plan entry within a run (the threaded collectives fold
/// their internal round numbers into the high bits themselves).
fn tag_of(t: usize, step: usize, idx: usize) -> u64 {
    debug_assert!(idx < (1 << 12), "plan too large for the tag scheme");
    (((t * 16 + step) as u64) << 12) | idx as u64
}

/// Encode a candidate set as a flat buffer of exactly `v * (v + 1)` values:
/// `v` row ids (padded with −1) followed by `v` rows of `v` values (zero
/// padded). This fixed size is what the orchestrated accountant charges per
/// butterfly round.
fn encode_candidates(c: &Candidates, v: usize) -> Vec<f64> {
    let mut buf = Vec::with_capacity(v * (v + 1));
    for i in 0..v {
        buf.push(c.rows.get(i).map_or(-1.0, |&r| r as f64));
    }
    for i in 0..v {
        if i < c.values.rows() {
            buf.extend_from_slice(c.values.row(i));
        } else {
            buf.extend(std::iter::repeat_n(0.0, v));
        }
    }
    buf
}

fn decode_candidates(buf: &[f64], v: usize) -> Candidates {
    let rows: Vec<usize> = buf[..v]
        .iter()
        .take_while(|&&r| r >= 0.0)
        .map(|&r| r as usize)
        .collect();
    let mut values = Matrix::zeros(rows.len(), v);
    for i in 0..rows.len() {
        values
            .row_mut(i)
            .copy_from_slice(&buf[v + i * v..v + (i + 1) * v]);
    }
    Candidates { rows, values }
}

/// Merge two partial synthetic candidate sets: the winner list is fixed by
/// the seed, each rank contributes the rows it owns, and the union (in
/// winner order) flows up the butterfly.
fn merge_synthetic(a: &Candidates, b: &Candidates, winners: &[usize], v: usize) -> Candidates {
    let mut rows = Vec::new();
    let mut values = Matrix::zeros(winners.len(), v);
    for &w in winners {
        let from = a
            .rows
            .iter()
            .position(|&r| r == w)
            .map(|i| a.values.row(i))
            .or_else(|| b.rows.iter().position(|&r| r == w).map(|i| b.values.row(i)));
        if let Some(row) = from {
            values.row_mut(rows.len()).copy_from_slice(row);
            rows.push(w);
        }
    }
    let values = values.block(0, 0, rows.len(), v);
    Candidates { rows, values }
}

/// Run COnfLUX as a supervised SPMD program over `p = q*q*c` rank threads.
///
/// The configuration's [`FaultPlan`](simnet::FaultPlan) is installed into
/// the supervisor (overriding whatever plan `sup` carried), so the fault
/// schedule has a single source of truth. Returns the run — with factors
/// and merged statistics — or a [`LuError`] carrying the structured cause
/// and the partial statistics if any rank crashed, timed out or panicked.
///
/// # Panics
/// Panics if the configuration is outside the threaded driver's domain:
/// non-Dense mode, swapping pivoting, non-binomial broadcast, or a `q`
/// that is not a power of two.
pub fn try_factorize_threaded(
    cfg: &ConfluxConfig,
    a: &Matrix,
    sup: Supervisor,
) -> Result<ConfluxRun, LuError> {
    let (n, v) = (cfg.n, cfg.v);
    assert!(n % v == 0, "v must divide n");
    let (q, c) = (cfg.grid.q, cfg.grid.c);
    assert!(v >= c, "v must be at least the layer count c");
    assert_eq!(cfg.mode, Mode::Dense, "threaded driver is Dense-only");
    assert_eq!(
        cfg.pivot_strategy,
        PivotStrategy::Masking,
        "threaded driver implements masking pivoting only"
    );
    assert_eq!(
        cfg.bcast,
        BcastAlgo::Binomial,
        "threaded collectives are binomial-tree only"
    );
    assert!(
        q.is_power_of_two(),
        "threaded tournament butterfly needs a power-of-two q"
    );
    assert_eq!(a.shape(), (n, n), "input matrix must be n x n");
    let topo = cfg.grid.topology();
    let p = topo.ranks();
    let nb = n / v;

    let mut sup = sup.with_faults(cfg.faults.clone());
    if cfg.timeline {
        sup = sup.with_trace();
    }
    let mut report = run_spmd_supervised(p, sup, |ctx| rank_program(ctx, cfg, a, &topo, nb));
    let retries = report.retries;
    let timeline = report.trace.take();

    match report.into_result() {
        Ok((shards, stats)) => {
            let factors = assemble_shards(n, v, nb, &shards);
            Ok(ConfluxRun {
                stats,
                factors: Some(factors),
                timeline,
                retries,
                config: cfg.clone(),
            })
        }
        Err(failure) => {
            // prefer the injected fault (the root cause) over the timeouts
            // the surviving ranks report as a consequence
            let error = failure
                .errors
                .iter()
                .find(|e| e.is_injected())
                .unwrap_or(&failure.error)
                .clone();
            let step = match error {
                simnet::SimnetError::RankCrashed { step, .. } => Some(step),
                _ => None,
            };
            Err(LuError {
                error,
                step,
                stats: failure.stats,
                retries: failure.retries,
            })
        }
    }
}

/// Convenience wrapper: default supervision (plus the config's fault plan).
pub fn factorize_threaded(cfg: &ConfluxConfig, a: &Matrix) -> Result<ConfluxRun, LuError> {
    try_factorize_threaded(cfg, a, Supervisor::default())
}

/// The per-rank SPMD program: the same 11 steps as the orchestrated driver,
/// acting only on this rank's tiles.
fn rank_program(
    ctx: &mut RankCtx,
    cfg: &ConfluxConfig,
    a: &Matrix,
    topo: &Grid3D,
    nb: usize,
) -> SimnetResult<Vec<StepShard>> {
    let (n, v) = (cfg.n, cfg.v);
    let (q, c) = (cfg.grid.q, cfg.grid.c);
    let p = ctx.p;
    let me = topo.coord_of(ctx.rank);

    // ---- distribute: carve my block-cyclic shard out of the input ----
    let mut store = RankStore::new(a, v, q, me);
    let fiber = topo.layer_fiber(me.i, me.j);

    let mut remaining: Vec<usize> = (0..n).collect();
    let mut shards: Vec<StepShard> = Vec::with_capacity(nb);

    for t in 0..nb {
        // a planned crash fires here, between steps, as a structured error
        ctx.fail_point(t)?;

        let kt = t % c;
        let bct = t;
        let col_j = bct % q;

        // ---- Step 1: reduce the current block column over the fibers ----
        let live_groups = rows_by_block(&remaining, v);
        for (idx, (br, rows)) in live_groups.iter().enumerate() {
            if br % q != me.i || bct % q != me.j {
                continue;
            }
            store.fold_layers(
                ctx,
                &fiber,
                bct,
                rows,
                tag_of(t, 1, idx),
                "01:reduce-column",
            )?;
        }

        // ---- Step 2: tournament pivoting on the column group ----
        let pivot_group = topo.column_group(col_j, 0);
        let in_pivot_group = me.j == col_j && me.k == 0;
        let mut winner: Option<Candidates> = None;
        if in_pivot_group {
            let my_rows: Vec<usize> = remaining
                .iter()
                .copied()
                .filter(|&r| (r / v) % q == me.i)
                .collect();
            let local = match cfg.pivot_choice {
                PivotChoice::Tournament => {
                    let panel = store.read_base_rows(bct, &my_rows);
                    local_candidates(&panel, &my_rows, v)
                }
                PivotChoice::Synthetic => {
                    let winners = synthetic_winners(&remaining, v, cfg.seed, t);
                    let mine: Vec<usize> = winners
                        .iter()
                        .copied()
                        .filter(|&w| (w / v) % q == me.i)
                        .collect();
                    let values = store.read_base_rows(bct, &mine);
                    Candidates { rows: mine, values }
                }
            };
            let combined = ctx.try_butterfly(
                &pivot_group,
                encode_candidates(&local, v),
                tag_of(t, 2, 0),
                "02:tournament",
                |x, y| {
                    let (ca, cb) = (decode_candidates(&x, v), decode_candidates(&y, v));
                    let merged = match cfg.pivot_choice {
                        PivotChoice::Tournament => playoff_round(&ca, &cb, v),
                        PivotChoice::Synthetic => {
                            let winners = synthetic_winners(&remaining, v, cfg.seed, t);
                            merge_synthetic(&ca, &cb, &winners, v)
                        }
                    };
                    encode_candidates(&merged, v)
                },
            )?;
            winner = Some(decode_candidates(&combined, v));
        }

        // ---- Step 3: broadcast A00 + pivot row ids everywhere ----
        let all_ranks = topo.all_ranks();
        let root = pivot_group[0];
        let payload = if ctx.rank == root {
            let w = winner.as_ref().expect("root ran the butterfly");
            debug_assert_eq!(w.rows.len(), v, "tournament must yield v pivots");
            let a00 = lu_no_pivot(&w.values);
            let mut buf = Vec::with_capacity(v * v + v);
            buf.extend(w.rows.iter().map(|&r| r as f64));
            buf.extend_from_slice(a00.as_slice());
            Some(buf)
        } else {
            None
        };
        let buf = ctx.try_broadcast(&all_ranks, root, payload, tag_of(t, 3, 0), "03:bcast-a00")?;
        let pivots: Vec<usize> = buf[..v].iter().map(|&r| r as usize).collect();
        let a00 = Matrix::from_vec(v, v, buf[v..v + v * v].to_vec());

        let pivset: HashSet<usize> = pivots.iter().copied().collect();
        remaining.retain(|r| !pivset.contains(r));
        let rows10 = remaining.clone();
        let n10 = rows10.len();
        // the live rows now fill the slots past the retired prefix
        store.retire(&pivots);

        // ---- Step 4: scatter A10 1D block-row over all ranks ----
        let plan4 = a10_scatter_plan(&rows10, bct, p, v, q, topo);
        let my_lo = chunk_lo(ctx.rank, n10, p);
        let my_hi = chunk_hi(ctx.rank, n10, p);
        let mut a10_local = Matrix::zeros(my_hi - my_lo, v);
        for (idx, e) in plan4.iter().enumerate() {
            if e.src == ctx.rank {
                let rows = &rows10[e.pos0..e.pos0 + e.nrows];
                let data = store.gather_base_rows(bct, rows);
                ctx.try_send(e.dst, tag_of(t, 4, idx), data, "04:scatter-a10")?;
            }
            if e.dst == ctx.rank {
                let data = ctx.try_recv_from(e.src, tag_of(t, 4, idx))?;
                let off = (e.pos0 - my_lo) * v;
                a10_local.as_mut_slice()[off..off + e.nrows * v].copy_from_slice(&data);
            }
        }

        // ---- Step 5: reduce the v pivot rows over the fibers ----
        let mut sorted_pivots = pivots.clone();
        sorted_pivots.sort_unstable();
        let piv_groups = rows_by_block(&sorted_pivots, v);
        let mut idx5 = 0;
        for (br, rows) in &piv_groups {
            for bc in t + 1..nb {
                idx5 += 1;
                if br % q != me.i || bc % q != me.j {
                    continue;
                }
                let tag = tag_of(t, 5, idx5);
                store.fold_layers(ctx, &fiber, bc, rows, tag, "05:reduce-pivot-rows")?;
            }
        }

        // ---- Step 6: scatter A01 1D block-column over all ranks ----
        let m01 = (nb - t - 1) * v;
        let my_clo = chunk_lo(ctx.rank, m01, p);
        let my_chi = chunk_hi(ctx.rank, m01, p);
        let mut a01_local = Matrix::zeros(v, my_chi - my_clo);
        if m01 > 0 {
            let pivot_pos: HashMap<usize, usize> =
                pivots.iter().enumerate().map(|(pi, &r)| (r, pi)).collect();
            let plan6 = a01_scatter_plan(&piv_groups, t, nb, p, v, m01, topo, q);
            for (idx, e) in plan6.iter().enumerate() {
                let rows = &piv_groups[e.group_idx].1;
                if e.src == ctx.rank {
                    // rows of this pivot group, columns col0..col0+seg of bc
                    let mut data = Vec::with_capacity(rows.len() * e.seg);
                    for &r in rows {
                        data.extend_from_slice(store.base_slice(r, e.bc, e.col0, e.seg));
                    }
                    ctx.try_send(e.dst, tag_of(t, 6, idx), data, "06:scatter-a01")?;
                }
                if e.dst == ctx.rank {
                    let data = ctx.try_recv_from(e.src, tag_of(t, 6, idx))?;
                    let off = (e.bc - t - 1) * v + e.col0 - my_clo;
                    for (&r, seg) in rows.iter().zip(data.chunks_exact(e.seg)) {
                        a01_local.row_mut(pivot_pos[&r])[off..off + e.seg].copy_from_slice(seg);
                    }
                }
            }
        }

        // ---- Step 7: FactorizeA10 locally: A10 <- A10 · U00^{-1} ----
        if a10_local.rows() > 0 {
            ctx.compute("07:factorize-a10", "trsm", || {
                trsm_upper_right(&mut a10_local, &a00, false)
            });
        }

        // The update layer packs step 11's operands straight off the wire:
        // `l` holds this rank's live rows in slot order, `u` its trailing
        // columns. Both are empty off the update layer.
        let (live, width) = if me.k == kt {
            (store.live(), store.delta.cols() - store.trailing_col(t))
        } else {
            (0, 0)
        };
        let mut l = Matrix::zeros(live, v);
        let mut u = Matrix::zeros(v, width);

        // ---- Step 8: send factored A10 rows to layer kt ----
        let dst_cols = grid_cols_of_trailing(t, nb, q);
        let segs8 = a10_send_segments(&rows10, p, v);
        let mut idx8 = 0;
        for e in &segs8 {
            for &j in &dst_cols {
                let dst = topo.rank_of(e.br % q, j, kt);
                idx8 += 1;
                if e.src == ctx.rank {
                    let off = (e.pos0 - my_lo) * v;
                    let data = a10_local.as_slice()[off..off + e.len * v].to_vec();
                    ctx.try_send(dst, tag_of(t, 8, idx8), data, "08:send-a10")?;
                }
                if dst == ctx.rank {
                    let data = ctx.try_recv_from(e.src, tag_of(t, 8, idx8))?;
                    let rows = &rows10[e.pos0..e.pos0 + e.len];
                    for (&r, vals) in rows.iter().zip(data.chunks_exact(v)) {
                        l.row_mut(store.live_index(r)).copy_from_slice(vals);
                    }
                }
            }
        }

        // ---- Step 9: FactorizeA01 locally: A01 <- L00^{-1} · A01 ----
        // Column-sliced over the shared worker pool: the multi-RHS solve is
        // per-column independent, so the parallel route is bitwise
        // identical and the per-rank flop/byte accounting is unchanged.
        if a01_local.cols() > 0 {
            ctx.compute("09:factorize-a01", "trsm", || {
                trsm_lower_left_parallel(&a00, &mut a01_local, true, auto_threads())
            });
        }

        // ---- Step 10: send factored A01 columns to layer kt ----
        let dst_rows = grid_rows_of_live(&live_groups, &pivset, q);
        if m01 > 0 {
            let segs10 = a01_send_segments(t, nb, p, v, m01);
            let trailing = store.trailing_col(t);
            let mut idx10 = 0;
            for e in &segs10 {
                for &i in &dst_rows {
                    let dst = topo.rank_of(i, e.bc % q, kt);
                    idx10 += 1;
                    if e.src == ctx.rank {
                        let off = (e.bc - t - 1) * v + e.col0 - my_clo;
                        let mut data = Vec::with_capacity(v * e.seg);
                        for r in 0..v {
                            data.extend_from_slice(&a01_local.row(r)[off..off + e.seg]);
                        }
                        ctx.try_send(dst, tag_of(t, 10, idx10), data, "10:send-a01")?;
                    }
                    if dst == ctx.rank {
                        let data = ctx.try_recv_from(e.src, tag_of(t, 10, idx10))?;
                        let off = store.lcol(e.bc) - trailing + e.col0;
                        for (r, seg) in data.chunks_exact(e.seg).enumerate() {
                            u.row_mut(r)[off..off + e.seg].copy_from_slice(seg);
                        }
                    }
                }
            }
        }

        // ---- Step 11: local Schur update into my delta ----
        if me.k == kt {
            ctx.compute("11:schur-update", "gemm", || store.schur_update(t, &l, &u));
        }

        // ---- collect this step's shard for assembly after the join ----
        shards.push(StepShard {
            pivots: if ctx.rank == 0 { pivots } else { Vec::new() },
            a00: (ctx.rank == 0).then_some(a00),
            a10_rows: rows10[my_lo..my_hi].to_vec(),
            a10: a10_local,
            a01_col0: (t + 1) * v + my_clo,
            a01: a01_local,
        });
    }

    Ok(shards)
}

/// Positions `[lo, hi)` of the contiguous 1D chunk `rank` holds out of
/// `len` positions split over `p` ranks (the `holder_1d` partition).
fn chunk_lo(rank: Rank, len: usize, p: usize) -> usize {
    if len == 0 {
        return 0;
    }
    let chunk = len.div_ceil(p);
    (rank * chunk).min(len)
}

fn chunk_hi(rank: Rank, len: usize, p: usize) -> usize {
    if len == 0 {
        return 0;
    }
    let chunk = len.div_ceil(p);
    ((rank + 1) * chunk).min(len)
}

/// Stitch the per-rank, per-step shards into global `P`, `L`, `U`.
fn assemble_shards(n: usize, v: usize, nb: usize, shards: &[Vec<StepShard>]) -> LuFactors {
    let mut perm = Vec::with_capacity(n);
    for step in &shards[0] {
        perm.extend_from_slice(&step.pivots);
    }
    debug_assert_eq!(perm.len(), n);
    let mut pos_of = vec![usize::MAX; n];
    for (pos, &r) in perm.iter().enumerate() {
        pos_of[r] = pos;
    }
    let mut l = Matrix::identity(n);
    let mut u = Matrix::zeros(n, n);
    for t in 0..nb {
        let base = t * v;
        let a00 = shards[0][t].a00.as_ref().expect("rank 0 carries A00");
        for i in 0..v {
            let row = a00.row(i);
            l.row_mut(base + i)[base..base + i].copy_from_slice(&row[..i]);
            u.row_mut(base + i)[base + i..base + v].copy_from_slice(&row[i..]);
        }
        for rank_shards in shards {
            let shard = &rank_shards[t];
            for (&rid, vals) in shard
                .a10_rows
                .iter()
                .zip(shard.a10.as_slice().chunks_exact(v))
            {
                let pos = pos_of[rid];
                debug_assert!(pos >= base + v);
                l.row_mut(pos)[base..base + v].copy_from_slice(vals);
            }
            let (c0, w) = (shard.a01_col0, shard.a01.cols());
            for i in 0..v {
                u.row_mut(base + i)[c0..c0 + w].copy_from_slice(shard.a01.row(i));
            }
        }
    }
    LuFactors { perm, l, u }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{factorize, try_factorize};
    use crate::grid::LuGrid;
    use denselin::SplitMix64;
    use simnet::{FaultPlan, SimnetError};
    use std::time::Duration;

    fn random_matrix(seed: u64, n: usize) -> Matrix {
        let mut rng = SplitMix64::new(seed);
        Matrix::random(&mut rng, n, n)
    }

    #[test]
    fn threaded_lu_is_correct_across_grids() {
        for (seed, n, v, q, c) in [
            (70, 16, 4, 1, 1),
            (71, 32, 4, 2, 1),
            (72, 32, 4, 2, 2),
            (73, 64, 8, 2, 2),
        ] {
            let a = random_matrix(seed, n);
            let grid = LuGrid::new(q * q * c, q, c);
            let cfg = ConfluxConfig::dense(n, v, grid);
            let run = factorize_threaded(&cfg, &a).expect("fault-free run completes");
            let f = run.factors.unwrap();
            let res = f.residual(&a);
            assert!(res < 1e-9, "n={n} q={q} c={c}: residual {res:.2e}");
        }
    }

    #[test]
    fn threaded_matches_orchestrated_volumes_exactly() {
        // Synthetic pivoting so both backends pick identical pivots; the
        // per-rank per-phase charge must then be byte-identical.
        let n = 32;
        let v = 4;
        let grid = LuGrid::new(8, 2, 2);
        let mut rng = SplitMix64::new(80);
        let a = Matrix::random_diagonally_dominant(&mut rng, n);
        let mut cfg = ConfluxConfig::dense(n, v, grid);
        cfg.pivot_choice = PivotChoice::Synthetic;
        let threaded = factorize_threaded(&cfg, &a).unwrap();
        let orchestrated = factorize(&cfg, Some(&a));
        assert_eq!(
            threaded.stats.phase_table(),
            orchestrated.stats.phase_table()
        );
        for r in 0..8 {
            assert_eq!(
                threaded.stats.sent_by(r),
                orchestrated.stats.sent_by(r),
                "rank {r} sent"
            );
            assert_eq!(
                threaded.stats.received_by(r),
                orchestrated.stats.received_by(r),
                "rank {r} received"
            );
        }
    }

    #[test]
    fn drop_plan_same_factors_more_traffic() {
        let n = 32;
        let v = 4;
        let grid = LuGrid::new(8, 2, 2);
        let a = random_matrix(81, n);
        let clean_cfg = ConfluxConfig::dense(n, v, grid);
        let clean = factorize_threaded(&clean_cfg, &a).unwrap();
        let faulty_cfg = clean_cfg
            .clone()
            .with_faults(FaultPlan::new(7).with_drop_rate(0.05));
        let faulty = try_factorize_threaded(&faulty_cfg, &a, Supervisor::default()).unwrap();
        // numerics unharmed by retransmission
        let res = faulty.factors.as_ref().unwrap().residual(&a);
        assert!(res < 1e-10, "residual {res:.2e}");
        assert_eq!(
            faulty.factors.unwrap().perm,
            clean.factors.unwrap().perm,
            "drops must not change pivoting"
        );
        // but the accountant saw the retransmissions
        assert!(faulty.stats.total_sent() > clean.stats.total_sent());
    }

    #[test]
    fn crash_surfaces_as_structured_error_with_partial_stats() {
        let n = 32;
        let v = 4;
        let grid = LuGrid::new(8, 2, 2);
        let a = random_matrix(82, n);
        let cfg = ConfluxConfig::dense(n, v, grid).with_faults(FaultPlan::new(3).with_crash(5, 2));
        let sup = Supervisor::default()
            .with_recv_timeout(Duration::from_millis(200))
            .with_deadline(Duration::from_secs(5));
        let t0 = std::time::Instant::now();
        let err = match try_factorize_threaded(&cfg, &a, sup) {
            Err(e) => e,
            Ok(_) => panic!("crash plan must fail the run"),
        };
        assert!(t0.elapsed() < Duration::from_secs(5), "must not hang");
        assert_eq!(err.error, SimnetError::RankCrashed { rank: 5, step: 2 });
        assert_eq!(err.step, Some(2));
        // two full steps ran before the crash: their traffic is recorded
        assert!(err.stats.sent_in_phase("02:tournament") > 0);
        assert!(err.stats.sent_in_phase("04:scatter-a10") > 0);
    }

    #[test]
    fn orchestrated_failover_completes_on_survivors() {
        // a layer-1 rank dies mid-run; the orchestrated driver remaps its
        // role to layer 0 and finishes, charging the failover phases
        let grid = LuGrid::new(8, 2, 2);
        let cfg =
            ConfluxConfig::phantom(64, 8, grid).with_faults(FaultPlan::new(9).with_crash(7, 3));
        let run = try_factorize(&cfg, None).expect("failover must complete");
        assert!(run.stats.sent_in_phase("xx:failover") > 0);
        assert!(run.stats.sent_in_phase("08b:ft-backup-a10") > 0);
        let clean = factorize(&ConfluxConfig::phantom(64, 8, grid), None);
        assert!(run.stats.total_sent() > clean.stats.total_sent());
    }
}
