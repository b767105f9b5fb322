//! COnfLUX on the real-threads backend: Algorithm 1 executed as a genuine
//! SPMD program, one OS thread per rank, under supervision.
//!
//! The orchestrated driver in [`crate::algorithm`] walks the 11 steps
//! centrally and *charges* a [`simnet::Network`]; this module runs the same
//! steps where every rank owns only its block-cyclic shard and every
//! transfer is a real message through [`simnet::threaded`]. Both backends
//! follow the identical communication plans (the shared `a10_scatter_plan`
//! / `a01_scatter_plan` / segment helpers), use the same phase names, and —
//! under a zero fault plan — charge identical per-rank, per-phase elements
//! and messages, which `tests/threaded_parity.rs` asserts.
//!
//! # Messages
//!
//! Every phase of every step sends at most one message per (source,
//! destination) pair. Steps 1 and 5 fold all of a rank's tiles of the step
//! in one reduction over its layer fiber; steps 4, 6, 8 and 10 pack every
//! plan entry bound for one destination into one buffer, in plan order, and
//! the receiver unpacks in the same order. The elements each rank moves are
//! exactly those of the per-tile plan; only the message count falls (107
//! instead of about 3000 at N = 512, v = 32 on `[1, 1, 2]`).
//!
//! # Rank storage
//!
//! Rank `(i, j, k)` owns block rows `br ≡ i` and block columns `bc ≡ j`
//! (mod `q`) and keeps them in one contiguous `RankStore`: a
//! `rows x cols` delta matrix, the Schur-update accumulator of its layer.
//! There is no copy of the input: the true value of an element is
//! `a − Σ_layers delta`, and when a fiber reduction folds a region, the
//! layer-0 root writes `a − sum` straight from the input into the cells
//! the fold has just zeroed. Those cells are finished — step 1's block
//! column and step 5's pivot rows, which no later update reaches — so on
//! layer 0 a finished cell holds its folded value, and steps 2, 4 and 6
//! read it from the delta matrix. Local columns follow the global block
//! order, so the trailing block columns of step `t` are always a column
//! suffix. Rows are addressed through a slot map: when step 3 fixes the
//! pivots, every pivot row the rank owns is swapped into the *retired*
//! prefix of the slots (a local data move, never charged as
//! communication, and only from the step's block column on: the columns
//! before it are finished or zero on every live row). The live rows are
//! then exactly the slots past the prefix and the step's pivot rows the
//! slots just before it, so each fiber reduction covers one rectangle of
//! the delta matrix, and step 11's Schur update is an in-place GEMM on the
//! submatrix `delta[retired.., trailing..]` with the received `A10` rows
//! packed in slot order and the received `A01` blocks packed side by side.
//!
//! # Lookahead
//!
//! The update layer of step `t` first updates block column `t + 1` (if it
//! owns it) and defers the rest of its update. Where the remainder runs
//! depends on the rank's role in step `t + 1`:
//!
//! - off step `t + 1`'s pivot group, right after the rank's step-1
//!   contribution has left;
//! - in the pivot group (the critical path: its members search for the
//!   pivots and root every fold), after the broadcast of step 3. `retire`
//!   swaps the carried `l` rows with their slots, the pivot rows are
//!   updated just before step 5 folds them, and the live rows after step
//!   10, before the rank's own step 11.
//!
//! Each element still receives one `+= Σ_k l·u` per step over the `v`
//! terms in a fixed order, in step order, whatever its slot, tile, row or
//! column split, so the factors do not depend on the storage layout or the
//! lookahead (DESIGN.md §17).
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
//! only on power-of-two groups). A configuration outside this domain is a
//! [`LuCause::Precondition`] error, never a
//! panic.

use std::ops::Range;

use denselin::gemm::{auto_threads, gemm_with, GemmConfig};
use denselin::lu::SingularMatrix;
use denselin::matrix::Matrix;
use denselin::tournament::{local_candidates, lu_no_pivot, playoff_round, Candidates};
use denselin::trsm::{trsm_lower_left_parallel, trsm_upper_right};
use simnet::error::SimnetResult;
use simnet::network::BcastAlgo;
use simnet::stats::Rank;
use simnet::threaded::{run_spmd_supervised, RankCtx, Supervisor};
use simnet::topology::{Coord3D, Grid3D};

use crate::algorithm::{
    a01_scatter_plan, a01_send_segments, a10_scatter_plan, a10_send_segments, assemble,
    grid_cols_of_trailing, grid_rows_of_live, precondition_violated, ConfluxConfig, ConfluxRun,
    LuCause, LuError, StepShard,
};
use crate::pivoting::{synthetic_winners, PivotChoice, PivotStrategy};
use crate::store::rows_by_block;
use crate::tiles::Mode;

/// One rank's block-cyclic shard of the matrix in contiguous storage; see
/// the module docs for the layout.
struct RankStore<'a> {
    v: usize,
    q: usize,
    /// This rank's grid column: local block columns are `bc ≡ j (mod q)`.
    j: usize,
    /// The `n x n` input, read by the layer-0 root of each fold.
    input: &'a Matrix,
    /// Schur-update accumulators of this rank's layer, `rows x cols`; on
    /// layer 0 a finished cell holds its folded value instead.
    delta: Matrix,
    /// Slot of each owned global row (`usize::MAX` for rows not owned).
    slot_of: Vec<usize>,
    /// Global row held in each slot.
    row_at: Vec<usize>,
    /// Slots `0..retired` hold rows already eliminated as pivots.
    retired: usize,
}

impl<'a> RankStore<'a> {
    /// Lay out rank `me`'s shard of the `n x n` input.
    fn new(a: &'a Matrix, v: usize, q: usize, me: Coord3D) -> Self {
        let n = a.rows();
        let owned = |g: usize| (g..n / v).step_by(q);
        let row_at: Vec<usize> = owned(me.i).flat_map(|br| br * v..(br + 1) * v).collect();
        let cols = owned(me.j).count() * v;
        let mut slot_of = vec![usize::MAX; n];
        for (slot, &r) in row_at.iter().enumerate() {
            slot_of[r] = slot;
        }
        RankStore {
            v,
            q,
            j: me.j,
            input: a,
            delta: Matrix::zeros(row_at.len(), cols),
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

    /// First local column of the block columns `bc..`.
    fn col_from(&self, bc: usize) -> usize {
        (bc + self.q - 1 - self.j) / self.q * self.v
    }

    /// First local column past the block columns `0..=t`: the start of
    /// step `t`'s trailing region.
    fn trailing_col(&self, t: usize) -> usize {
        self.col_from(t + 1)
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

    /// Columns `off..off + len` of block column `bc` of row `r`, a
    /// finished (folded) region on a layer-0 rank.
    fn finished(&self, r: usize, bc: usize, off: usize, len: usize) -> &[f64] {
        let c0 = self.lcol(bc) + off;
        &self.delta.row(self.slot_of[r])[c0..c0 + len]
    }

    /// The finished values of `rows` in block column `bc`, as a
    /// `rows.len() x v` panel.
    fn read_finished_rows(&self, bc: usize, rows: &[usize]) -> Matrix {
        let mut out = Vec::with_capacity(rows.len() * self.v);
        for &r in rows {
            out.extend_from_slice(self.finished(r, bc, 0, self.v));
        }
        Matrix::from_vec(rows.len(), self.v, out)
    }

    /// Fold every layer's delta over the rectangle `slots x cols` (whole
    /// local blocks): one sum over the layer fiber when `c > 1`, the whole
    /// rectangle in one contribution, and the deltas are zeroed on every
    /// layer. The layer-0 root then writes `input − sum` into the zeroed
    /// cells, which are finished: no later update reaches them. Each
    /// element's sum runs over the same binomial tree whatever else shares
    /// the message.
    fn fold_layers(
        &mut self,
        ctx: &mut RankCtx,
        fiber: &[Rank],
        slots: Range<usize>,
        cols: Range<usize>,
        tag: u64,
        phase: &'static str,
    ) -> SimnetResult<()> {
        if slots.is_empty() || cols.is_empty() {
            return Ok(());
        }
        let mut contrib = Vec::with_capacity(slots.len() * cols.len());
        for s in slots.clone() {
            let row = &mut self.delta.row_mut(s)[cols.clone()];
            contrib.extend_from_slice(row);
            row.fill(0.0);
        }
        let folded = if fiber.len() > 1 {
            ctx.try_reduce_sum(fiber, fiber[0], contrib, tag, phase)?
        } else {
            Some(contrib)
        };
        if let Some(sum) = folded {
            let (v, q, j) = (self.v, self.q, self.j);
            let lb0 = cols.start / v;
            for (s, part) in slots.zip(sum.chunks_exact(cols.len())) {
                let input = self.input.row(self.row_at[s]);
                let cells = self.delta.row_mut(s)[cols.clone()].chunks_exact_mut(v);
                for (lb, (cell, x)) in (lb0..).zip(cells.zip(part.chunks_exact(v))) {
                    let bc = lb * q + j;
                    for ((d, &a), &x) in cell.iter_mut().zip(&input[bc * v..]).zip(x) {
                        *d = a - x;
                    }
                }
            }
        }
        Ok(())
    }

    /// Move every owned row of `pivots` into the retired prefix; returns
    /// the slots they now fill. Only the columns `c0..` move: the columns
    /// before them are finished or zero on every live row. A `carried` `l`
    /// packed for the current live slots (row `s − retired` for slot `s`)
    /// gets the same row swaps.
    fn retire(
        &mut self,
        pivots: &[usize],
        c0: usize,
        mut carried: Option<&mut Matrix>,
    ) -> Range<usize> {
        let first = self.retired;
        if let Some(l) = carried.as_deref() {
            debug_assert_eq!(l.rows(), self.live(), "carried l must cover the live slots");
        }
        for &r in pivots {
            let slot = self.slot_of[r];
            if slot == usize::MAX {
                continue;
            }
            let dst = self.retired;
            swap_row_tails(&mut self.delta, slot, dst, c0);
            if let Some(l) = carried.as_deref_mut() {
                l.swap_rows(slot - first, dst - first);
            }
            let other = self.row_at[dst];
            self.row_at.swap(slot, dst);
            self.slot_of[other] = slot;
            self.slot_of[r] = dst;
            self.retired += 1;
        }
        first..self.retired
    }

    /// Step 11 on the `l.rows() x u.cols()` region at `(r0, c0)`:
    /// `delta[r0.., c0..] += l · u` in place, with `l` holding the rows of
    /// the slots `r0..` in slot order.
    fn schur_update(&mut self, at: (usize, usize), l: &Matrix, u: &Matrix) {
        gemm_with(&mut self.delta, at, 1.0, l, u, 1.0, &GemmConfig::serial());
    }
}

/// Exchange the columns `c0..` of rows `a` and `b` of `m`; the columns
/// before `c0` stay where they are.
fn swap_row_tails(m: &mut Matrix, a: usize, b: usize, c0: usize) {
    if a == b {
        return;
    }
    let cols = m.cols();
    let (lo, hi) = (a.min(b), a.max(b));
    let (head, tail) = m.as_mut_slice().split_at_mut(hi * cols);
    head[lo * cols + c0..(lo + 1) * cols].swap_with_slice(&mut tail[c0..cols]);
}

/// The part of one step's Schur update a rank runs after entering the next
/// step: `u` holds the trailing columns past the lookahead column, `l` one
/// row per live slot at the time it was packed, in slot order.
struct Remainder {
    l: Matrix,
    u: Matrix,
}

/// Ranks the tag scheme can address: the low 12 bits of a tag.
const MAX_RANKS: usize = 1 << 12;

/// `tag = (step-major counter) << 12 | peer`: every phase of every step
/// sends at most one message per (source, destination) pair, so the
/// destination rank completes a unique tag (the threaded collectives fold
/// their internal round numbers into the high bits themselves).
///
/// # Panics
/// Panics if `peer` does not fit the low 12 bits, which would alias the
/// next step's tags.
fn tag_of(t: usize, step: usize, peer: Rank) -> u64 {
    assert!(peer < MAX_RANKS, "rank {peer} does not fit the tag scheme");
    (((t * 16 + step) as u64) << 12) | peer as u64
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

/// The first precondition of the threaded driver that `cfg` and `a`
/// violate, if any: the rules both drivers share, then this driver's own.
fn threaded_precondition_violated(cfg: &ConfluxConfig, a: &Matrix) -> Option<&'static str> {
    let (q, c) = (cfg.grid.q, cfg.grid.c);
    precondition_violated(cfg, Some(a)).or_else(|| {
        [
            (cfg.mode != Mode::Dense, "the threaded driver is Dense-only"),
            (
                cfg.pivot_strategy != PivotStrategy::Masking,
                "the threaded driver implements masking pivoting only",
            ),
            (
                cfg.bcast != BcastAlgo::Binomial,
                "threaded collectives are binomial-tree only",
            ),
            (
                !q.is_power_of_two(),
                "the threaded tournament butterfly needs a power-of-two q",
            ),
            (
                q * q * c > MAX_RANKS,
                "the message tags address at most 4096 ranks",
            ),
        ]
        .into_iter()
        .find_map(|(violated, what)| violated.then_some(what))
    })
}

/// Run COnfLUX as a supervised SPMD program over `p = q*q*c` rank threads.
///
/// The configuration's [`FaultPlan`](simnet::FaultPlan) is installed into
/// the supervisor (overriding whatever plan `sup` carried), so the fault
/// schedule has a single source of truth. Returns the run — with factors
/// and merged statistics — or a [`LuError`] carrying the structured cause
/// and the partial statistics if any rank crashed, timed out or panicked.
///
/// A configuration outside the driver's domain — `v` zero or not dividing
/// `n`, no layers, `v < c`, an input that is not `n x n`, non-Dense mode,
/// swapping pivoting, a non-binomial broadcast, a `q` that is not a power
/// of two, or more than 4096 ranks — returns
/// [`LuCause::Precondition`] naming the
/// violated rule before any rank starts.
pub fn try_factorize_threaded(
    cfg: &ConfluxConfig,
    a: &Matrix,
    sup: Supervisor,
) -> Result<ConfluxRun, LuError> {
    if let Some(what) = threaded_precondition_violated(cfg, a) {
        return Err(LuError::precondition(what));
    }
    let (n, v) = (cfg.n, cfg.v);
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
        Ok((ranks, stats)) => match ranks.into_iter().collect::<Result<Vec<_>, _>>() {
            Ok(shards) => Ok(ConfluxRun {
                stats,
                factors: Some(assemble(n, v, &shards)),
                timeline,
                retries,
                config: cfg.clone(),
            }),
            Err(SingularMatrix { column }) => Err(LuError {
                error: LuCause::Singular { column },
                step: Some(column / v),
                stats,
                retries,
            }),
        },
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
                error: error.into(),
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

/// One phase's point-to-point traffic, one message per peer: every entry
/// of `plan` this rank is the source of is packed into one buffer per
/// destination, in plan order; then one message per source is received and
/// every entry bound here gets its slice of it, again in plan order.
/// `route(e)` is the entry's `(src, dst, elements)`; `(t, step)` name the
/// phase in the tags. The rank's share for itself never touches the wire.
fn exchange<E>(
    ctx: &mut RankCtx,
    plan: impl Iterator<Item = E> + Clone,
    route: impl Fn(&E) -> (Rank, Rank, usize),
    mut pack: impl FnMut(&E, &mut Vec<f64>),
    mut unpack: impl FnMut(&E, &[f64]),
    (t, step): (usize, usize),
    phase: &'static str,
) -> SimnetResult<()> {
    let (me, p) = (ctx.rank, ctx.p);
    let mut out_len = vec![0; p];
    let mut in_len = vec![0; p];
    for e in plan.clone() {
        let (src, dst, len) = route(&e);
        if src == me {
            out_len[dst] += len;
        }
        if dst == me {
            in_len[src] += len;
        }
    }
    let mut out: Vec<Vec<f64>> = out_len.iter().map(|&len| Vec::with_capacity(len)).collect();
    for e in plan.clone() {
        let (src, dst, _) = route(&e);
        if src == me {
            pack(&e, &mut out[dst]);
        }
    }
    let mut inbox: Vec<Vec<f64>> = vec![Vec::new(); p];
    inbox[me] = std::mem::take(&mut out[me]);
    for (dst, buf) in out.into_iter().enumerate() {
        if !buf.is_empty() {
            ctx.try_send(dst, tag_of(t, step, dst), buf, phase)?;
        }
    }
    for src in (0..p).filter(|&src| src != me && in_len[src] > 0) {
        inbox[src] = ctx.try_recv_from(src, tag_of(t, step, me))?;
        debug_assert_eq!(inbox[src].len(), in_len[src], "message from {src}");
    }
    let mut at = vec![0; p];
    for e in plan {
        let (src, dst, len) = route(&e);
        if dst == me {
            unpack(&e, &inbox[src][at[src]..at[src] + len]);
            at[src] += len;
        }
    }
    Ok(())
}

/// The per-rank SPMD program: the same 11 steps as the orchestrated driver,
/// acting only on this rank's tiles. Every rank ends early, right after
/// the step-3 broadcast, with the global column of the zero pivot when the
/// pivot rows `A00` are singular.
fn rank_program(
    ctx: &mut RankCtx,
    cfg: &ConfluxConfig,
    a: &Matrix,
    topo: &Grid3D,
    nb: usize,
) -> SimnetResult<Result<Vec<StepShard>, SingularMatrix>> {
    let (n, v) = (cfg.n, cfg.v);
    let (q, c) = (cfg.grid.q, cfg.grid.c);
    let p = ctx.p;
    let me = topo.coord_of(ctx.rank);

    // ---- distribute: lay out my block-cyclic shard of the input ----
    let mut store = RankStore::new(a, v, q, me);
    let fiber = topo.layer_fiber(me.i, me.j);

    let mut remaining: Vec<usize> = (0..n).collect();
    // position of each row among the pivots of the step that eliminated
    // it, `usize::MAX` while the row is live
    let mut pivot_pos = vec![usize::MAX; n];
    let mut shards: Vec<StepShard> = Vec::with_capacity(nb);
    // the lookahead's deferred part of the previous step's Schur update
    let mut deferred: Option<Remainder> = None;

    for t in 0..nb {
        // a planned crash fires here, between steps, as a structured error
        ctx.fail_point(t)?;

        let kt = t % c;
        let bct = t;
        let col_j = bct % q;
        let pivot_group = topo.column_group(col_j, 0);
        let in_pivot_group = me.j == col_j && me.k == 0;

        // ---- Step 1: reduce the current block column over the fibers ----
        // one reduction over all of this rank's live rows
        if me.j == col_j {
            let (c0, slots) = (store.lcol(bct), store.retired..store.row_at.len());
            let tag1 = tag_of(t, 1, 0);
            store.fold_layers(ctx, &fiber, slots, c0..c0 + v, tag1, "01:reduce-column")?;
        }

        // ---- the rest of step t-1's Schur update, now that step 1 has
        // sent its contribution; the pivot group carries it past its
        // pivot search instead (before steps 5 and 11 below) ----
        if !in_pivot_group {
            if let Some(rem) = deferred.take() {
                let at = (store.retired, store.delta.cols() - rem.u.cols());
                ctx.compute("11:schur-update", "gemm", || {
                    store.schur_update(at, &rem.l, &rem.u)
                });
            }
        }

        // ---- Step 2: tournament pivoting on the column group ----
        let mut winner: Option<Candidates> = None;
        if in_pivot_group {
            let local = ctx.compute("02:tournament", "pivot-search", || {
                let owned = |r: &usize| (r / v) % q == me.i;
                let mine: Vec<usize> = match cfg.pivot_choice {
                    PivotChoice::Tournament => remaining.iter().copied().filter(owned).collect(),
                    PivotChoice::Synthetic => {
                        let winners = synthetic_winners(&remaining, v, cfg.seed, t);
                        winners.into_iter().filter(owned).collect()
                    }
                };
                let panel = store.read_finished_rows(bct, &mine);
                match cfg.pivot_choice {
                    PivotChoice::Tournament => local_candidates(&panel, &mine, v),
                    PivotChoice::Synthetic => Candidates {
                        rows: mine,
                        values: panel,
                    },
                }
            });
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
            let a00 = ctx.compute("02:tournament", "lu-a00", || lu_no_pivot(&w.values));
            let mut buf = Vec::with_capacity(v * v + v);
            match a00 {
                Ok(a00) => {
                    buf.extend(w.rows.iter().map(|&r| r as f64));
                    buf.extend_from_slice(a00.as_slice());
                }
                // a singular block ends the run: the first pivot id is
                // `-(1 + global column)`, in a payload of the usual size
                Err(e) => {
                    buf.resize(v * v + v, 0.0);
                    buf[0] = -1.0 - (t * v + e.column) as f64;
                }
            }
            Some(buf)
        } else {
            None
        };
        let buf = ctx.try_broadcast(&all_ranks, root, payload, tag_of(t, 3, 0), "03:bcast-a00")?;
        if buf[0] < 0.0 {
            let column = (-1.0 - buf[0]) as usize;
            return Ok(Err(SingularMatrix { column }));
        }
        let pivots: Vec<usize> = buf[..v].iter().map(|&r| r as usize).collect();
        let a00 = Matrix::from_vec(v, v, buf[v..v + v * v].to_vec());

        for (pi, &r) in pivots.iter().enumerate() {
            pivot_pos[r] = pi;
        }
        remaining.retain(|&r| pivot_pos[r] == usize::MAX);
        let rows10 = &remaining[..];
        let n10 = rows10.len();
        // the live rows now fill the slots past the retired prefix, and my
        // pivot rows the slots just before it; a carried remainder's rows
        // follow their slots
        let carried = deferred.as_mut().map(|rem| &mut rem.l);
        let piv_slots = store.retire(&pivots, store.col_from(t), carried);
        let my_pivots = piv_slots.len();

        // ---- Step 4: scatter A10 1D block-row over all ranks ----
        let plan4 = a10_scatter_plan(rows10, bct, p, v, q, topo);
        let my_lo = chunk_lo(ctx.rank, n10, p);
        let my_hi = chunk_hi(ctx.rank, n10, p);
        let mut a10_local = Matrix::zeros(my_hi - my_lo, v);
        exchange(
            ctx,
            plan4.iter(),
            |e| (e.src, e.dst, e.nrows * v),
            |e, buf| {
                for &r in &rows10[e.pos0..e.pos0 + e.nrows] {
                    buf.extend_from_slice(store.finished(r, bct, 0, v));
                }
            },
            |e, data| {
                let off = (e.pos0 - my_lo) * v;
                a10_local.as_mut_slice()[off..off + data.len()].copy_from_slice(data);
            },
            (t, 4),
            "04:scatter-a10",
        )?;

        // a carried remainder brings the pivot rows up to date first
        if let Some(rem) = deferred.as_ref().filter(|_| my_pivots > 0) {
            let l = rem.l.block(0, 0, my_pivots, v);
            let at = (piv_slots.start, store.delta.cols() - rem.u.cols());
            ctx.compute("11:schur-update", "gemm", || {
                store.schur_update(at, &l, &rem.u)
            });
        }

        // ---- Step 5: reduce the v pivot rows over the fibers ----
        // one reduction over my pivot rows x my trailing columns
        let mut sorted_pivots = pivots.clone();
        sorted_pivots.sort_unstable();
        let piv_groups = rows_by_block(&sorted_pivots, v);
        let trailing = store.trailing_col(t)..store.delta.cols();
        let tag5 = tag_of(t, 5, 0);
        store.fold_layers(
            ctx,
            &fiber,
            piv_slots,
            trailing,
            tag5,
            "05:reduce-pivot-rows",
        )?;

        // ---- Step 6: scatter A01 1D block-column over all ranks ----
        let m01 = (nb - t - 1) * v;
        let my_clo = chunk_lo(ctx.rank, m01, p);
        let my_chi = chunk_hi(ctx.rank, m01, p);
        let mut a01_local = Matrix::zeros(v, my_chi - my_clo);
        if m01 > 0 {
            let plan6 = a01_scatter_plan(&piv_groups, t, nb, p, v, m01, topo, q);
            exchange(
                ctx,
                plan6.iter(),
                |e| (e.src, e.dst, e.nrows * e.seg),
                |e, buf| {
                    // rows of this pivot group, columns col0..col0+seg of bc
                    for &r in &piv_groups[e.group_idx].1 {
                        buf.extend_from_slice(store.finished(r, e.bc, e.col0, e.seg));
                    }
                },
                |e, data| {
                    let off = (e.bc - t - 1) * v + e.col0 - my_clo;
                    let rows = &piv_groups[e.group_idx].1;
                    for (&r, seg) in rows.iter().zip(data.chunks_exact(e.seg)) {
                        a01_local.row_mut(pivot_pos[r])[off..off + e.seg].copy_from_slice(seg);
                    }
                },
                (t, 6),
                "06:scatter-a01",
            )?;
        }

        // ---- Step 7: FactorizeA10 locally: A10 <- A10 · U00^{-1} ----
        if a10_local.rows() > 0 {
            ctx.compute("07:factorize-a10", "trsm", || {
                trsm_upper_right(&mut a10_local, &a00, false)
            });
        }

        // The update layer packs step 11's operands straight off the wire:
        // `l` holds this rank's live rows in slot order, `u_next` block
        // column t+1 if this rank owns it (the lookahead column), `u_rest`
        // the trailing columns past it. All are empty off the update layer.
        let (live, width, next) = if me.k == kt {
            let trailing = store.trailing_col(t);
            let owns_next = t + 1 < nb && (t + 1) % q == me.j;
            (
                store.live(),
                store.delta.cols() - trailing,
                if owns_next { v } else { 0 },
            )
        } else {
            (0, 0, 0)
        };
        let mut l = Matrix::zeros(live, v);
        let mut u_next = Matrix::zeros(v, next);
        let mut u_rest = Matrix::zeros(v, width - next);

        // ---- Step 8: send factored A10 rows to layer kt ----
        let dst_cols = grid_cols_of_trailing(t, nb, q);
        let segs8 = a10_send_segments(rows10, p, v);
        let plan8 = segs8.iter().flat_map(|e| {
            dst_cols
                .iter()
                .map(move |&j| (e, topo.rank_of(e.br % q, j, kt)))
        });
        exchange(
            ctx,
            plan8,
            |&(e, dst)| (e.src, dst, e.len * v),
            |&(e, _), buf| {
                let off = (e.pos0 - my_lo) * v;
                buf.extend_from_slice(&a10_local.as_slice()[off..off + e.len * v]);
            },
            |&(e, _), data| {
                let rows = &rows10[e.pos0..e.pos0 + e.len];
                for (&r, vals) in rows.iter().zip(data.chunks_exact(v)) {
                    l.row_mut(store.live_index(r)).copy_from_slice(vals);
                }
            },
            (t, 8),
            "08:send-a10",
        )?;

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
        if m01 > 0 {
            let dst_rows = grid_rows_of_live(rows10, v, q);
            let segs10 = a01_send_segments(t, nb, p, v, m01);
            let plan10 = segs10.iter().flat_map(|e| {
                dst_rows
                    .iter()
                    .map(move |&i| (e, topo.rank_of(i, e.bc % q, kt)))
            });
            let trailing = store.trailing_col(t);
            exchange(
                ctx,
                plan10,
                |&(e, dst)| (e.src, dst, e.seg * v),
                |&(e, _), buf| {
                    let off = (e.bc - t - 1) * v + e.col0 - my_clo;
                    for r in 0..v {
                        buf.extend_from_slice(&a01_local.row(r)[off..off + e.seg]);
                    }
                },
                |&(e, _), data| {
                    let off = store.lcol(e.bc) - trailing + e.col0;
                    let (u, off) = if off < next {
                        (&mut u_next, off)
                    } else {
                        (&mut u_rest, off - next)
                    };
                    for (r, seg) in data.chunks_exact(e.seg).enumerate() {
                        u.row_mut(r)[off..off + e.seg].copy_from_slice(seg);
                    }
                },
                (t, 10),
                "10:send-a01",
            )?;
        }

        // ---- a carried remainder updates the live rows, before this
        // step's own update reaches them ----
        if let Some(Remainder { l: carried, u }) = deferred.take() {
            let rest = carried.rows() - my_pivots;
            let l = if my_pivots > 0 {
                carried.block(my_pivots, 0, rest, v)
            } else {
                carried
            };
            let at = (store.retired, store.delta.cols() - u.cols());
            ctx.compute("11:schur-update", "gemm", || store.schur_update(at, &l, &u));
        }

        // ---- Step 11: local Schur update into my delta ----
        // Lookahead: block column t+1 first, so step t+1's reduction can
        // leave; the rest waits until then. Each element still gets one
        // `+= Σ_k l·u` over the same v terms (the column split does not
        // change GEMM bits).
        if live > 0 && width > 0 {
            if next > 0 {
                let at = (store.retired, store.trailing_col(t));
                ctx.compute("11:schur-update", "gemm", || {
                    store.schur_update(at, &l, &u_next)
                });
            }
            if u_rest.cols() > 0 {
                deferred = Some(Remainder { l, u: u_rest });
            }
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
    debug_assert!(deferred.is_none(), "the last step has no trailing columns");

    Ok(Ok(shards))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{factorize, try_factorize, LuCause};
    use crate::grid::LuGrid;
    use denselin::SplitMix64;
    use simnet::{FaultPlan, SimnetError};
    use std::collections::HashSet;
    use std::time::Duration;

    fn random_matrix(seed: u64, n: usize) -> Matrix {
        let mut rng = SplitMix64::new(seed);
        Matrix::random(&mut rng, n, n)
    }

    #[test]
    fn singular_pivot_block_ends_every_rank_with_a_typed_error() {
        let a = crate::algorithm::tests::zero_second_column(16);
        for grid in [LuGrid::new(4, 2, 1), LuGrid::new(8, 2, 2)] {
            let cfg = ConfluxConfig::dense(16, 4, grid);
            let err = factorize_threaded(&cfg, &a).map(|_| ()).unwrap_err();
            assert_eq!(err.error, LuCause::Singular { column: 1 }, "{grid:?}");
            assert_eq!(err.step, Some(0));
        }
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
        assert_eq!(
            err.error,
            LuCause::Simnet(SimnetError::RankCrashed { rank: 5, step: 2 })
        );
        assert_eq!(err.step, Some(2));
        // two full steps ran before the crash: their traffic is recorded
        assert!(err.stats.sent_in_phase("02:tournament") > 0);
        assert!(err.stats.sent_in_phase("04:scatter-a10") > 0);
    }

    #[test]
    fn out_of_domain_configurations_are_typed_errors() {
        let a = random_matrix(83, 32);
        let dense = |v: usize, grid: LuGrid| ConfluxConfig::dense(32, v, grid);
        let grid = LuGrid::new(8, 2, 2);
        let mut phantom = dense(4, grid);
        phantom.mode = Mode::Phantom;
        let mut swapping = dense(4, grid);
        swapping.pivot_strategy = PivotStrategy::Swapping;
        let mut flat = dense(4, grid);
        flat.bcast = BcastAlgo::Flat;
        let no_layers = LuGrid {
            p_total: 4,
            q: 2,
            c: 0,
        };
        let cases = [
            (dense(0, grid), &a, "positive"),
            (dense(5, grid), &a, "divide n"),
            (dense(4, no_layers), &a, "one layer"),
            (dense(1, LuGrid::new(2, 1, 2)), &a, "layer count"),
            (phantom, &a, "Dense-only"),
            (swapping, &a, "masking"),
            (flat, &a, "binomial"),
            (dense(4, LuGrid::new(9, 3, 1)), &a, "power-of-two q"),
            (dense(4, grid), &Matrix::zeros(32, 16), "n x n"),
        ];
        for (cfg, a, what) in cases {
            let err = factorize_threaded(&cfg, a).expect_err(what);
            match err.error {
                LuCause::Precondition(rule) => assert!(rule.contains(what), "{rule} vs {what}"),
                other => panic!("{what}: expected a precondition error, got {other}"),
            }
            assert_eq!(err.step, None);
            assert_eq!(err.stats.total_sent(), 0);
        }
        // checked without the driver, which would otherwise start a thread
        // per rank if the rule broke
        let wide = dense(32, LuGrid::new(4352, 16, 17));
        let rule = threaded_precondition_violated(&wide, &a).expect("more ranks than tags");
        assert!(rule.contains("4096 ranks"), "{rule}");
    }

    #[test]
    fn coalesced_plans_fit_the_tag_scheme_where_per_tile_plans_did_not() {
        // Step 6 at t = 0 for n = 4096, v = 16 on [2, 2, 2], with the pivots
        // spread over 16 block rows: one tag per plan entry would need more
        // than the 12 low bits, one tag per destination needs fewer than P.
        let (n, v, q, t) = (4096, 16, 2, 0);
        let topo = Grid3D::new(q, q, 2);
        let (p, nb) = (topo.ranks(), n / v);
        let pivots: Vec<usize> = (0..v).map(|i| i * 2 * v + i).collect();
        let piv_groups = rows_by_block(&pivots, v);
        assert_eq!(piv_groups.len(), 16);
        let m01 = (nb - t - 1) * v;
        let plan6 = a01_scatter_plan(&piv_groups, t, nb, p, v, m01, &topo, q);
        assert_eq!(plan6.len(), 4192);
        assert!(plan6.len() > MAX_RANKS, "per-entry tags would alias step 7");
        let tags: HashSet<(Rank, u64)> =
            plan6.iter().map(|e| (e.src, tag_of(t, 6, e.dst))).collect();
        assert!(tags.len() <= p * p);
        // every tag stays inside step 6's band
        for (_, tag) in tags {
            assert_eq!(tag >> 12, tag_of(t, 6, 0) >> 12);
        }
    }

    #[test]
    #[should_panic(expected = "does not fit the tag scheme")]
    fn tag_range_check_holds_in_every_build() {
        tag_of(0, 6, MAX_RANKS);
    }

    #[test]
    fn retire_keeps_each_carried_row_with_its_slot() {
        // rank (1, 0, 0) of a q = 2 grid owns block rows 1 and 3 of n = 16
        let (n, v, q) = (16, 4, 2);
        let a = random_matrix(84, n);
        let mut store = RankStore::new(&a, v, q, Coord3D { i: 1, j: 0, k: 0 });
        assert_eq!(store.row_at, [4, 5, 6, 7, 12, 13, 14, 15]);
        // step 0: two of the pivots are owned here
        assert_eq!(store.retire(&[0, 6, 9, 13], store.col_from(0), None), 0..2);
        // a remainder packed now tags each live slot's row with its global row
        let tag = |r: usize| Matrix::from_fn(1, v, |_, c| (r * v + c) as f64);
        let mut l = Matrix::zeros(store.live(), v);
        for s in store.retired..store.row_at.len() {
            l.row_mut(s - store.retired)
                .copy_from_slice(tag(store.row_at[s]).row(0));
        }
        let first = store.retired;
        let piv = store.retire(&[15, 2, 5, 8], store.col_from(1), Some(&mut l));
        assert_eq!(piv, 2..4);
        assert_eq!(&store.row_at[piv], [15, 5]);
        for s in first..store.row_at.len() {
            let r = store.row_at[s];
            assert_eq!(store.slot_of[r], s);
            assert_eq!(l.row(s - first), tag(r).row(0), "slot {s} holds row {r}");
        }
    }

    #[test]
    fn column_limited_swap_matches_a_full_swap_from_c0_on() {
        let m = Matrix::random(&mut SplitMix64::new(85), 5, 7);
        for (a, b, c0) in [(0, 3, 0), (3, 0, 2), (1, 4, 6), (4, 1, 7), (2, 2, 3)] {
            let mut full = m.clone();
            full.swap_rows(a, b);
            let mut tails = m.clone();
            swap_row_tails(&mut tails, a, b, c0);
            for r in 0..m.rows() {
                assert_eq!(
                    tails.row(r)[c0..],
                    full.row(r)[c0..],
                    "({a}, {b}, {c0}) row {r}"
                );
                assert_eq!(
                    tails.row(r)[..c0],
                    m.row(r)[..c0],
                    "({a}, {b}, {c0}) row {r}"
                );
            }
        }
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
