//! COnfLUX — Algorithm 1 of the paper, step by step, on the simulated
//! machine.
//!
//! The driver executes `N/v` steps; in step `t` it (1) reduces the current
//! block column across replication layers, (2) runs tournament pivoting on
//! the `q` column-group ranks, (3) broadcasts `A00` and the pivot ids,
//! (4/6) scatters the `A10`/`A01` panels 1D over all ranks, (5) reduces the
//! `v` pivot rows, (7/9) triangular-solves the panels locally, (8/10) sends
//! the factored panels to the one layer `t mod c` that owns this step's
//! Schur update, and (11) accumulates the update locally on that layer.
//! Pivot rows are never swapped — they are masked out of `remaining`.
//!
//! Every inter-rank transfer is charged to a [`simnet::Network`] under a
//! phase tag named after its step, so the per-step cost breakdown of
//! Lemma 10 is directly testable.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

use denselin::matrix::Matrix;
use denselin::trsm::{trsm_lower_left, trsm_upper_right};
use simnet::error::SimnetError;
use simnet::faults::FaultPlan;
use simnet::network::{BcastAlgo, Network};
use simnet::stats::CommStats;
use simnet::topology::Grid3D;

use crate::grid::LuGrid;
use crate::pivoting::{select_pivots, PivotChoice, PivotRound, PivotStrategy};
use crate::store::{holder_1d, rows_by_block, BlockStore};
use crate::tiles::Mode;

/// Configuration of a COnfLUX run.
#[derive(Clone, Debug)]
pub struct ConfluxConfig {
    /// Matrix order (must be divisible by `v`).
    pub n: usize,
    /// Block size `v` (the paper's tunable parameter, `v ≥ c`).
    pub v: usize,
    /// The `[q, q, c]` processor grid.
    pub grid: LuGrid,
    /// Dense (real numerics) or Phantom (volume only).
    pub mode: Mode,
    /// Tournament or synthetic pivoting.
    pub pivot_choice: PivotChoice,
    /// Masking (COnfLUX) or swapping (ablation).
    pub pivot_strategy: PivotStrategy,
    /// Broadcast algorithm used by the collectives.
    pub bcast: BcastAlgo,
    /// Seed for synthetic pivot selection.
    pub seed: u64,
    /// Record a virtual-time event timeline (`simnet::trace::Trace`): every
    /// send/recv/collective-step plus analytic compute regions, for
    /// critical-path analysis and Perfetto export.
    pub timeline: bool,
    /// Fault schedule applied to the run (default: no faults). Drop and
    /// duplicate events charge retransmission traffic; crash events trigger
    /// the failover path (`c > 1`) or a structured abort.
    pub faults: FaultPlan,
}

impl ConfluxConfig {
    /// Default configuration: given `n`, `v`, and a grid, run Phantom with
    /// synthetic pivoting (the volume-measurement setup).
    pub fn phantom(n: usize, v: usize, grid: LuGrid) -> Self {
        Self {
            n,
            v,
            grid,
            mode: Mode::Phantom,
            pivot_choice: PivotChoice::Synthetic,
            pivot_strategy: PivotStrategy::Masking,
            bcast: BcastAlgo::Binomial,
            seed: 0x5eed,
            timeline: false,
            faults: FaultPlan::none(),
        }
    }

    /// Dense configuration with real tournament pivoting.
    pub fn dense(n: usize, v: usize, grid: LuGrid) -> Self {
        Self {
            n,
            v,
            grid,
            mode: Mode::Dense,
            pivot_choice: PivotChoice::Tournament,
            pivot_strategy: PivotStrategy::Masking,
            bcast: BcastAlgo::Binomial,
            seed: 0x5eed,
            timeline: false,
            faults: FaultPlan::none(),
        }
    }

    /// Record a virtual-time event timeline (builder style).
    pub fn with_timeline(mut self) -> Self {
        self.timeline = true;
        self
    }

    /// Install a fault schedule (builder style).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }
}

/// The factors produced by a Dense run, packed LAPACK-style: `lu` holds
/// the unit-lower-triangular `L` strictly below its diagonal (the unit
/// diagonal is implied) and the upper-triangular `U` on and above it, rows
/// in elimination order.
#[derive(Clone, Debug)]
pub struct LuFactors {
    /// Row permutation: position `i` holds original row `perm[i]`.
    pub perm: Vec<usize>,
    /// Packed `L\U` factors.
    pub lu: Matrix,
}

impl LuFactors {
    /// The unit-lower-triangular factor `L`.
    pub fn l(&self) -> Matrix {
        self.lu.unit_lower()
    }

    /// The upper-triangular factor `U`.
    pub fn u(&self) -> Matrix {
        self.lu.upper()
    }

    /// Relative residual `||P A − L U||_F / ||A||_F` against the original
    /// input matrix.
    pub fn residual(&self, a: &Matrix) -> f64 {
        let pa = a.gather_rows(&self.perm);
        let recon = self.l().matmul(&self.u());
        pa.sub(&recon).frobenius_norm() / a.frobenius_norm().max(f64::MIN_POSITIVE)
    }

    /// The factors as a reusable
    /// [`LuFactorization`](denselin::lu::LuFactorization) handle — the form
    /// every serial solve/refinement path in `denselin` consumes. This is
    /// how a distributed COnfLUX factorization enters a factor cache (e.g.
    /// solversrv) and then serves arbitrarily many cheap local solves.
    pub fn to_factorization(&self) -> denselin::lu::LuFactorization {
        denselin::lu::LuFactorization {
            lu: self.lu.clone(),
            perm: self.perm.clone(),
            sign: denselin::lu::permutation_sign(&self.perm),
        }
    }
}

/// Result of a COnfLUX run.
#[derive(Debug)]
pub struct ConfluxRun {
    /// Communication record.
    pub stats: CommStats,
    /// Factors (Dense mode only).
    pub factors: Option<LuFactors>,
    /// Event timeline (only when `config.timeline` was set). Orchestrated
    /// runs record deterministic virtual time; threaded runs record wall
    /// time.
    pub timeline: Option<simnet::trace::Trace>,
    /// Retransmissions performed for dropped messages (threaded backend;
    /// the orchestrated accountant folds retransmissions directly into
    /// `stats` and reports 0 here).
    pub retries: u64,
    /// The configuration that produced this run.
    pub config: ConfluxConfig,
}

/// Why a factorization did not complete.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LuCause {
    /// The configuration or the input lies outside the driver's domain;
    /// names the violated precondition. Nothing ran.
    Precondition(&'static str),
    /// The simulated machine failed the run: a crashed, timed-out or
    /// panicked rank, or a message that exhausted its retries.
    Simnet(SimnetError),
    /// The tournament's pivot rows `A00` are singular: no nonzero pivot in
    /// global column `column`. The input is (numerically) singular.
    Singular {
        /// Global column of the zero pivot.
        column: usize,
    },
}

impl From<SimnetError> for LuCause {
    fn from(e: SimnetError) -> Self {
        LuCause::Simnet(e)
    }
}

impl std::fmt::Display for LuCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LuCause::Precondition(what) => write!(f, "precondition violated: {what}"),
            LuCause::Simnet(e) => e.fmt(f),
            LuCause::Singular { column } => {
                write!(
                    f,
                    "singular pivot block: no nonzero pivot in column {column}"
                )
            }
        }
    }
}

/// A factorization that did not complete: the structured cause, the step it
/// died in, and the per-phase communication statistics collected up to that
/// point — everything a caller needs to triage a faulted run.
#[derive(Clone, Debug)]
pub struct LuError {
    /// The structured cause that aborted the run.
    pub error: LuCause,
    /// Algorithm step (`t` of the `N/v` outer iterations) at the abort, if
    /// known. Crash aborts know it exactly; timeouts discovered by a peer
    /// may not.
    pub step: Option<usize>,
    /// Partial communication statistics at the time of failure.
    pub stats: CommStats,
    /// Retransmissions performed before the failure (threaded backend).
    pub retries: u64,
}

impl std::fmt::Display for LuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.step {
            Some(t) => write!(f, "LU factorization failed at step {t}: {}", self.error),
            None => write!(f, "LU factorization failed: {}", self.error),
        }
    }
}

impl std::error::Error for LuError {}

impl LuError {
    /// A run refused before any rank started: `what` names the violated
    /// precondition, and nothing was sent.
    pub(crate) fn precondition(what: &'static str) -> Self {
        LuError {
            error: LuCause::Precondition(what),
            step: None,
            stats: CommStats::default(),
            retries: 0,
        }
    }
}

/// The first rule of the domain both COnfLUX drivers share that `cfg` and
/// `a` violate, if any: `v > 0`, `v | n`, `c > 0`, `v ≥ c`, and a Dense run
/// has an `n x n` input.
pub(crate) fn precondition_violated(
    cfg: &ConfluxConfig,
    a: Option<&Matrix>,
) -> Option<&'static str> {
    let (n, v, c) = (cfg.n, cfg.v, cfg.grid.c);
    let dense = cfg.mode == Mode::Dense;
    [
        (v == 0, "block size v must be positive"),
        (n % v.max(1) != 0, "v must divide n"),
        (c == 0, "the grid needs at least one layer"),
        (v < c, "v must be at least the layer count c"),
        (dense && a.is_none(), "a Dense run needs an input matrix"),
        (
            dense && a.is_some_and(|a| a.shape() != (n, n)),
            "the input matrix must be n x n",
        ),
    ]
    .into_iter()
    .find_map(|(violated, what)| violated.then_some(what))
}

/// What one rank contributes to the factors of one step. Both drivers
/// collect these and [`assemble`] copies them into the packed `L\U` after
/// the run; assembly is result collection, not communication the algorithm
/// performs, so it is never charged.
pub(crate) struct StepShard {
    /// Pivot rows in elimination order (on the first rank only).
    pub pivots: Vec<usize>,
    /// Factored `A00`, packed `L\U` (on the first rank only).
    pub a00: Option<Matrix>,
    /// Global row ids of the factored `A10` rows, one per row of `a10`.
    pub a10_rows: Vec<usize>,
    /// Factored `A10` rows (`v` columns each).
    pub a10: Matrix,
    /// Global column of the first column of `a01`.
    pub a01_col0: usize,
    /// Factored `A01` columns (`v` rows, pivot order).
    pub a01: Matrix,
}

/// Run COnfLUX. `a` must be `Some` in Dense mode and is ignored in Phantom
/// mode.
///
/// ```
/// use conflux::{factorize, ConfluxConfig, LuGrid};
/// use denselin::{Matrix, SplitMix64};
///
/// // Dense run on the Figure-5 grid [2,2,2]: verifiable factors
/// let mut rng = SplitMix64::new(7);
/// let a = Matrix::random(&mut rng, 32, 32);
/// let run = factorize(&ConfluxConfig::dense(32, 4, LuGrid::new(8, 2, 2)), Some(&a));
/// assert!(run.factors.unwrap().residual(&a) < 1e-10);
///
/// // Phantom run: identical communication counting, no numerics
/// let vol = factorize(&ConfluxConfig::phantom(32, 4, LuGrid::new(8, 2, 2)), None);
/// assert!(vol.stats.total_sent() > 0);
/// ```
pub fn factorize(cfg: &ConfluxConfig, a: Option<&Matrix>) -> ConfluxRun {
    try_factorize(cfg, a).unwrap_or_else(|e| panic!("COnfLUX factorization failed: {e}"))
}

/// Fallible COnfLUX driver with graceful degradation under injected faults.
///
/// A configuration outside the domain — `v` zero or not dividing `n`, no
/// layers, `v < c`, or a Dense run without an `n x n` input — returns
/// [`LuCause::Precondition`] naming the violated rule before anything is
/// charged. With a zero fault plan this is exactly [`factorize`] (and charges
/// byte-identical volumes). Under a plan with crash events:
///
/// * a crash of a replication-layer rank (`k > 0`, requires `c > 1`)
///   triggers **failover**: survivors are notified (`xx:failover`), the dead
///   rank's role is remapped onto its layer-0 counterpart, and the run
///   completes on the survivors. In fault-tolerant mode every step
///   additionally replicates the factored panels to a backup layer
///   (`08b:ft-backup-a10` / `10b:ft-backup-a01`), which is the redundancy
///   that makes the lost partial updates recomputable;
/// * a crash of a layer-0 rank, or any crash when `c == 1`, is
///   unrecoverable: the run aborts cleanly with a [`LuError`] carrying the
///   crashed rank, the step, and the per-phase statistics collected so far.
///
/// ```
/// use conflux::{try_factorize, ConfluxConfig, LuGrid};
/// use simnet::FaultPlan;
///
/// // crash a layer-1 rank mid-run: the survivors finish the factorization
/// let grid = LuGrid::new(8, 2, 2);
/// let cfg = ConfluxConfig::phantom(32, 4, grid)
///     .with_faults(FaultPlan::new(1).with_crash(6, 3));
/// let run = try_factorize(&cfg, None).unwrap();
/// assert!(run.stats.sent_in_phase("xx:failover") > 0);
///
/// // crash a layer-0 rank: clean structured abort with partial stats
/// let cfg = ConfluxConfig::phantom(32, 4, grid)
///     .with_faults(FaultPlan::new(1).with_crash(0, 3));
/// let err = try_factorize(&cfg, None).unwrap_err();
/// assert_eq!(err.step, Some(3));
/// ```
pub fn try_factorize(cfg: &ConfluxConfig, a: Option<&Matrix>) -> Result<ConfluxRun, LuError> {
    if let Some(what) = precondition_violated(cfg, a) {
        return Err(LuError::precondition(what));
    }
    let (n, v) = (cfg.n, cfg.v);
    let (q, c) = (cfg.grid.q, cfg.grid.c);
    let topo = cfg.grid.topology();
    let p = topo.ranks();
    let nb = n / v;

    let mut net = Network::new(p);
    net.bcast_algo = cfg.bcast;
    net.faults = cfg.faults.clone();
    if cfg.timeline {
        net.enable_timeline();
    }
    // fault-tolerant mode: only entered when the plan can crash ranks, so
    // zero-fault runs charge exactly the baseline volumes
    let ft = !cfg.faults.crashes().is_empty();
    let mut alive = vec![true; p];
    let mut store = BlockStore::new(n, v, q, c, cfg.mode, a);
    let all_ranks = topo.all_ranks();
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut steps: Vec<StepShard> = Vec::with_capacity(nb);

    for t in 0..nb {
        let kt = t % c;
        let bct = t;
        let col_j = bct % q;

        // ---- Crash arrivals at this step: abort or fail over ----
        if ft {
            let newly_dead: Vec<usize> = (0..p)
                .filter(|&r| alive[r] && cfg.faults.should_crash(r, t))
                .collect();
            for &r in &newly_dead {
                alive[r] = false;
            }
            for &r in &newly_dead {
                let co = topo.coord_of(r);
                if c == 1 || co.k == 0 {
                    // layer 0 holds the only base copy: unrecoverable
                    return Err(LuError {
                        error: SimnetError::RankCrashed { rank: r, step: t }.into(),
                        step: Some(t),
                        stats: net.stats.clone(),
                        retries: 0,
                    });
                }
                // survivors learn of the failure from the dead rank's
                // layer-0 counterpart (a small control broadcast)
                let root = topo.rank_of(co.i, co.j, 0);
                let survivors: Vec<usize> = (0..p).filter(|&s| alive[s]).collect();
                net.broadcast_from(root, &survivors, 1, "xx:failover");
            }
        }
        // effective rank: a dead replication-layer rank's role moves to its
        // layer-0 counterpart (coalesced transfers become local and free)
        let eff = |r: usize| -> usize {
            if alive[r] {
                r
            } else {
                let co = topo.coord_of(r);
                topo.rank_of(co.i, co.j, 0)
            }
        };
        let live_members =
            |group: Vec<usize>| -> Vec<usize> { group.into_iter().filter(|&r| alive[r]).collect() };

        // ---- Step 1: reduce the current block column over the fibers ----
        // one reduction per fiber, over all of its live rows at once
        let live_groups = rows_by_block(&remaining, v);
        if c > 1 {
            let rows_of = rows_per_grid_row(&live_groups, q);
            for (i, &nrows) in rows_of.iter().enumerate() {
                let fiber = live_members(topo.layer_fiber(i, col_j));
                if nrows > 0 && fiber.len() > 1 {
                    let root = topo.rank_of(i, col_j, 0);
                    net.reduce_onto(root, &fiber, (nrows * v) as u64, "01:reduce-column");
                }
            }
        }
        for (br, rows) in &live_groups {
            store.fold_deltas(*br, bct, rows);
        }

        // ---- Step 2: tournament pivoting on the column group ----
        let pivot_group = topo.column_group(col_j, 0);
        let panel = (cfg.mode == Mode::Dense).then(|| store.read_rows(bct, &remaining));
        let round: PivotRound = select_pivots(
            cfg.mode,
            cfg.pivot_choice,
            panel.as_ref(),
            &remaining,
            |r| (r / v) % q,
            q,
            v,
            cfg.seed,
            t,
        )
        .map_err(|error| LuError {
            error,
            step: Some(t),
            stats: net.stats.clone(),
            retries: 0,
        })?;
        net.butterfly(&pivot_group, (v * (v + 1)) as u64, "02:tournament");
        let pivots = round.pivot_rows.clone();
        debug_assert_eq!(pivots.len(), v);

        // ---- Step 3: broadcast A00 + pivot row ids everywhere ----
        let bcast_group: Vec<usize> = if ft {
            (0..p).filter(|&r| alive[r]).collect()
        } else {
            all_ranks.clone()
        };
        net.broadcast_from(
            pivot_group[0],
            &bcast_group,
            (v * v + v) as u64,
            "03:bcast-a00",
        );

        let pivset: HashSet<usize> = pivots.iter().copied().collect();
        remaining.retain(|r| !pivset.contains(r));
        let rows10 = remaining.clone();

        // ---- Swapping ablation: physical row exchanges on all layers ----
        if cfg.pivot_strategy == PivotStrategy::Swapping {
            count_swap_traffic(&mut net, &store, &pivots, t, nb, q, c, v);
        }

        // ---- Step 4: scatter A10 1D block-row over all ranks ----
        let plan4 = a10_scatter_plan(&rows10, bct, p, v, q, &topo);
        send_coalesced(
            &mut net,
            plan4.iter().map(|e| (eff(e.src), eff(e.dst), e.nrows * v)),
            "04:scatter-a10",
        );
        let mut a10 = (cfg.mode == Mode::Dense).then(|| store.read_rows(bct, &rows10));

        // ---- Step 5: reduce the v pivot rows over the fibers ----
        let mut sorted_pivots = pivots.clone();
        sorted_pivots.sort_unstable();
        let piv_groups = rows_by_block(&sorted_pivots, v);
        if c > 1 {
            // one reduction per fiber, over its pivot rows x trailing columns
            let rows_of = rows_per_grid_row(&piv_groups, q);
            let mut blocks_of = vec![0usize; q];
            for bc in t + 1..nb {
                blocks_of[bc % q] += 1;
            }
            for (i, &nrows) in rows_of.iter().enumerate() {
                for (j, &nblocks) in blocks_of.iter().enumerate() {
                    let fiber = live_members(topo.layer_fiber(i, j));
                    if nrows * nblocks > 0 && fiber.len() > 1 {
                        let elems = (nrows * nblocks * v) as u64;
                        let root = topo.rank_of(i, j, 0);
                        net.reduce_onto(root, &fiber, elems, "05:reduce-pivot-rows");
                    }
                }
            }
        }
        for (br, rows) in &piv_groups {
            for bc in t + 1..nb {
                store.fold_deltas(*br, bc, rows);
            }
        }

        // ---- Step 6: scatter A01 1D block-column over all ranks ----
        let m01 = (nb - t - 1) * v;
        if m01 > 0 {
            let plan6 = a01_scatter_plan(&piv_groups, t, nb, p, v, m01, &topo, q);
            send_coalesced(
                &mut net,
                plan6
                    .iter()
                    .map(|e| (eff(e.src), eff(e.dst), e.nrows * e.seg)),
                "06:scatter-a01",
            );
        }
        let mut a01 =
            (cfg.mode == Mode::Dense && m01 > 0).then(|| store.read_row_panel(&pivots, t + 1));

        // ---- Step 7: FactorizeA10 locally: A10 <- A10 · U00^{-1} ----
        if let (Some(a10m), Some(a00)) = (a10.as_mut(), dense_a00(&round)) {
            trsm_upper_right(a10m, a00, false);
        }
        // analytic compute charge: n10·v² TRSM flops, 1D-split over p ranks
        net.compute_all(
            (rows10.len() * v * v) as f64 / p as f64,
            "07:factorize-a10",
            "trsm",
        );

        // ---- Step 8: send factored A10 rows to layer kt ----
        let dst_cols: Vec<usize> = grid_cols_of_trailing(t, nb, q);
        let segs8 = a10_send_segments(&rows10, p, v);
        let sends8 = |k: usize| {
            let (topo, segs8, dst_cols, eff) = (&topo, &segs8, &dst_cols, &eff);
            segs8.iter().flat_map(move |e| {
                dst_cols
                    .iter()
                    .map(move |&j| (eff(e.src), eff(topo.rank_of(e.br % q, j, k)), e.len * v))
            })
        };
        send_coalesced(&mut net, sends8(kt), "08:send-a10");
        if ft && c > 1 {
            // panel redundancy: a backup layer also gets the rows, so a
            // later crash of layer kt stays recoverable
            send_coalesced(&mut net, sends8((kt + 1) % c), "08b:ft-backup-a10");
        }

        // ---- Step 9: FactorizeA01 locally: A01 <- L00^{-1} · A01 ----
        if let (Some(a01m), Some(a00)) = (a01.as_mut(), dense_a00(&round)) {
            trsm_lower_left(a00, a01m, true);
        }
        // analytic compute charge: v²·m01 TRSM flops, 1D-split over p ranks
        net.compute_all((v * v * m01) as f64 / p as f64, "09:factorize-a01", "trsm");

        // ---- Step 10: send factored A01 columns to layer kt ----
        let dst_rows: Vec<usize> = grid_rows_of_live(&rows10, v, q);
        if m01 > 0 {
            let segs10 = a01_send_segments(t, nb, p, v, m01);
            let sends10 = |k: usize| {
                let (topo, segs10, dst_rows, eff) = (&topo, &segs10, &dst_rows, &eff);
                segs10.iter().flat_map(move |e| {
                    dst_rows
                        .iter()
                        .map(move |&i| (eff(e.src), eff(topo.rank_of(i, e.bc % q, k)), e.seg * v))
                })
            };
            send_coalesced(&mut net, sends10(kt), "10:send-a01");
            if ft && c > 1 {
                send_coalesced(&mut net, sends10((kt + 1) % c), "10b:ft-backup-a01");
            }
        }

        // ---- Step 11: local Schur update on layer kt ----
        if let (Some(a10m), Some(a01m)) = (a10.as_ref(), a01.as_ref()) {
            let groups = rows_by_block(&rows10, v);
            let mut offset = 0;
            for (br, rows) in &groups {
                let l_rows = a10m.block(offset, 0, rows.len(), v);
                store.accumulate_update(kt, *br, rows, &l_rows, a01m, t + 1);
                offset += rows.len();
            }
        }
        // analytic compute charge: the 2·n10·v·m01 Schur GEMM flops land on
        // the q² ranks of replication layer kt
        if net.tracer.enabled() && m01 > 0 && !rows10.is_empty() {
            let flops = 2.0 * rows10.len() as f64 * v as f64 * m01 as f64 / (q * q) as f64;
            for i in 0..q {
                for j in 0..q {
                    net.compute(topo.rank_of(i, j, kt), flops, "11:schur-update", "gemm");
                }
            }
        }

        if let (Some(a00), Some(a10)) = (dense_a00(&round), a10) {
            steps.push(StepShard {
                pivots,
                a00: Some(a00.clone()),
                a10_rows: rows10,
                a10,
                a01_col0: (t + 1) * v,
                a01: a01.unwrap_or_else(|| Matrix::zeros(v, 0)),
            });
        }
    }

    let factors = (cfg.mode == Mode::Dense).then(|| assemble(n, v, std::slice::from_ref(&steps)));
    let timeline = net.take_timeline();
    Ok(ConfluxRun {
        stats: net.stats,
        factors,
        timeline,
        retries: 0,
        config: cfg.clone(),
    })
}

fn dense_a00(round: &PivotRound) -> Option<&Matrix> {
    match &round.a00 {
        crate::tiles::Tile::Dense(m) => Some(m),
        crate::tiles::Tile::Phantom { .. } => None,
    }
}

/// Grid columns owning at least one trailing block column.
pub(crate) fn grid_cols_of_trailing(t: usize, nb: usize, q: usize) -> Vec<usize> {
    let mut cols: Vec<usize> = (t + 1..nb).map(|bc| bc % q).collect();
    cols.sort_unstable();
    cols.dedup();
    cols
}

/// Grid rows owning at least one of the live (unmasked, unpivoted) rows.
pub(crate) fn grid_rows_of_live(rows: &[usize], v: usize, q: usize) -> Vec<usize> {
    let mut owns = vec![false; q];
    for &r in rows {
        owns[(r / v) % q] = true;
    }
    (0..q).filter(|&i| owns[i]).collect()
}

/// One step-4 transfer: `nrows` consecutive live rows (positions
/// `pos0..pos0 + nrows` of `rows10`, `v` pivot-column elements each) moving
/// from their layer-0 block owner `src` to their 1D holder `dst`.
pub(crate) struct A10Scatter {
    pub src: usize,
    pub dst: usize,
    pub pos0: usize,
    pub nrows: usize,
}

/// Step 4 plan: move each live row's `v` pivot-column elements from its
/// block owner to its 1D holder. Consecutive rows sharing both are
/// aggregated into one message. Positions are carried so the threaded
/// backend can address the actual row data; the orchestrated accountant
/// only needs `nrows * v` elements per entry.
pub(crate) fn a10_scatter_plan(
    rows10: &[usize],
    bct: usize,
    p: usize,
    v: usize,
    q: usize,
    topo: &Grid3D,
) -> Vec<A10Scatter> {
    let mut plan: Vec<A10Scatter> = Vec::new();
    let n10 = rows10.len();
    for (pos, &r) in rows10.iter().enumerate() {
        let src = topo.rank_of((r / v) % q, bct % q, 0);
        let dst = holder_1d(pos, n10, p);
        match plan.last_mut() {
            Some(e) if e.src == src && e.dst == dst => e.nrows += 1,
            _ => plan.push(A10Scatter {
                src,
                dst,
                pos0: pos,
                nrows: 1,
            }),
        }
    }
    plan
}

/// One step-6 transfer: the pivot rows of `piv_groups[group_idx]` restricted
/// to columns `col0..col0 + seg` of trailing block column `bc`, moving from
/// layer-0 owner `src` to 1D column holder `dst`.
pub(crate) struct A01Scatter {
    pub src: usize,
    pub dst: usize,
    pub bc: usize,
    pub col0: usize,
    pub seg: usize,
    pub group_idx: usize,
    pub nrows: usize,
}

/// Step 6 plan: move the pivot rows' trailing columns from their block
/// owners to the 1D column holders.
#[allow(clippy::too_many_arguments)] // mirrors the step's full parameter set
pub(crate) fn a01_scatter_plan(
    piv_groups: &[(usize, Vec<usize>)],
    t: usize,
    nb: usize,
    p: usize,
    v: usize,
    m01: usize,
    topo: &Grid3D,
    q: usize,
) -> Vec<A01Scatter> {
    let mut plan = Vec::new();
    for bc in t + 1..nb {
        // columns of this block occupy 1D positions pos0..pos0+v
        let pos0 = (bc - t - 1) * v;
        let mut pos = pos0;
        while pos < pos0 + v {
            let dst = holder_1d(pos, m01, p);
            // extent of this holder's chunk within the block
            let chunk = m01.div_ceil(p);
            let seg_end = ((dst + 1) * chunk).min(pos0 + v);
            let seg = seg_end - pos;
            for (group_idx, (br, rows)) in piv_groups.iter().enumerate() {
                let src = topo.rank_of(*br % q, bc % q, 0);
                plan.push(A01Scatter {
                    src,
                    dst,
                    bc,
                    col0: pos - pos0,
                    seg,
                    group_idx,
                    nrows: rows.len(),
                });
            }
            pos = seg_end;
        }
    }
    plan
}

/// One step-8 segment: `len` consecutive factored `A10` rows (positions
/// `pos0..pos0 + len` of `rows10`, all in block row `br`) held by 1D holder
/// `src`, to replicate across the update layer's grid columns.
pub(crate) struct A10Seg {
    pub src: usize,
    pub br: usize,
    pub pos0: usize,
    pub len: usize,
}

/// Step 8 segments: runs of factored `A10` rows to replicate across the
/// update layer's grid columns.
pub(crate) fn a10_send_segments(rows10: &[usize], p: usize, v: usize) -> Vec<A10Seg> {
    let n10 = rows10.len();
    let mut segs: Vec<A10Seg> = Vec::new();
    for (pos, &r) in rows10.iter().enumerate() {
        let src = holder_1d(pos, n10, p);
        let br = r / v;
        match segs.last_mut() {
            Some(e) if e.src == src && e.br == br => e.len += 1,
            _ => segs.push(A10Seg {
                src,
                br,
                pos0: pos,
                len: 1,
            }),
        }
    }
    segs
}

/// One step-10 segment: `seg` consecutive factored `A01` columns
/// (`col0..col0 + seg` within trailing block column `bc`) held by 1D holder
/// `src`, to replicate across the update layer's grid rows.
pub(crate) struct A01Seg {
    pub src: usize,
    pub bc: usize,
    pub col0: usize,
    pub seg: usize,
}

/// Step 10 segments: runs of factored `A01` columns to replicate across the
/// update layer's grid rows.
pub(crate) fn a01_send_segments(
    t: usize,
    nb: usize,
    p: usize,
    v: usize,
    m01: usize,
) -> Vec<A01Seg> {
    let mut segs = Vec::new();
    for bc in t + 1..nb {
        let pos0 = (bc - t - 1) * v;
        let mut pos = pos0;
        while pos < pos0 + v {
            let src = holder_1d(pos, m01, p);
            let chunk = m01.div_ceil(p);
            let seg_end = ((src + 1) * chunk).min(pos0 + v);
            segs.push(A01Seg {
                src,
                bc,
                col0: pos - pos0,
                seg: seg_end - pos,
            });
            pos = seg_end;
        }
    }
    segs
}

/// Swapping-ablation traffic: exchanging each pivot row with the row at its
/// elimination position, across every grid column owning trailing data and
/// every replication layer (both directions counted, as both rows move).
#[allow(clippy::too_many_arguments)]
fn count_swap_traffic(
    net: &mut Network,
    store: &BlockStore,
    pivots: &[usize],
    t: usize,
    nb: usize,
    q: usize,
    c: usize,
    v: usize,
) {
    for (i, &r) in pivots.iter().enumerate() {
        let target = t * v + i;
        let br_src = r / v;
        let br_dst = target / v;
        if br_src % q == br_dst % q {
            continue; // same grid row: swap is rank-local per column
        }
        for bc in t..nb {
            let cols = v; // each block contributes v columns of the row
            for k in 0..c {
                let a = store.owner(br_src, bc, k);
                let b = store.owner(br_dst, bc, k);
                net.send(a, b, cols as u64, "xx:row-swap");
                net.send(b, a, cols as u64, "xx:row-swap");
            }
        }
    }
}

/// Copy every step's shards into one packed `n x n` `L\U`, row slice by
/// row slice: `shards[r][t]` is rank `r`'s shard of step `t`, and
/// `shards[0]` carries the pivots and `A00`.
pub(crate) fn assemble(n: usize, v: usize, shards: &[Vec<StepShard>]) -> LuFactors {
    let perm: Vec<usize> = shards[0]
        .iter()
        .flat_map(|s| s.pivots.iter().copied())
        .collect();
    debug_assert_eq!(perm.len(), n);
    let mut pos_of = vec![usize::MAX; n];
    for (pos, &r) in perm.iter().enumerate() {
        pos_of[r] = pos;
    }
    let mut lu = Matrix::zeros(n, n);
    for (t, first) in shards[0].iter().enumerate() {
        let base = t * v;
        let a00 = first.a00.as_ref().expect("the first rank carries A00");
        for i in 0..v {
            lu.row_mut(base + i)[base..base + v].copy_from_slice(a00.row(i));
        }
        for rank_shards in shards {
            let shard = &rank_shards[t];
            for (&r, vals) in shard
                .a10_rows
                .iter()
                .zip(shard.a10.as_slice().chunks_exact(v))
            {
                debug_assert!(pos_of[r] >= base + v);
                lu.row_mut(pos_of[r])[base..base + v].copy_from_slice(vals);
            }
            let (c0, w) = (shard.a01_col0, shard.a01.cols());
            for i in 0..v {
                lu.row_mut(base + i)[c0..c0 + w].copy_from_slice(shard.a01.row(i));
            }
        }
    }
    LuFactors { perm, lu }
}

/// Charge one message per `(src, dst)` pair of `transfers`, carrying the
/// pair's summed elements, in order of each pair's first transfer. This is
/// the threaded driver's one-buffer-per-destination packing, seen by the
/// accountant.
pub(crate) fn send_coalesced(
    net: &mut Network,
    transfers: impl IntoIterator<Item = (usize, usize, usize)>,
    phase: &'static str,
) {
    let mut index: HashMap<(usize, usize), usize> = HashMap::new();
    let mut pairs: Vec<(usize, usize, usize)> = Vec::new();
    for (src, dst, elems) in transfers {
        match index.entry((src, dst)) {
            Entry::Occupied(k) => pairs[*k.get()].2 += elems,
            Entry::Vacant(slot) => {
                slot.insert(pairs.len());
                pairs.push((src, dst, elems));
            }
        }
    }
    for (src, dst, elems) in pairs {
        net.send(src, dst, elems as u64, phase);
    }
}

/// Rows of `groups` (as returned by `rows_by_block`) per grid row.
fn rows_per_grid_row(groups: &[(usize, Vec<usize>)], q: usize) -> Vec<usize> {
    let mut rows_of = vec![0; q];
    for (br, rows) in groups {
        rows_of[br % q] += rows.len();
    }
    rows_of
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::grid::LuGrid;
    use denselin::SplitMix64;

    fn dense_run(n: usize, v: usize, q: usize, c: usize, seed: u64) -> (Matrix, ConfluxRun) {
        let mut rng = SplitMix64::new(seed);
        let a = Matrix::random(&mut rng, n, n);
        let grid = LuGrid::new(q * q * c, q, c);
        let cfg = ConfluxConfig::dense(n, v, grid);
        let run = factorize(&cfg, Some(&a));
        (a, run)
    }

    /// A random matrix whose column 1 is zero: every choice of pivot rows
    /// leaves a zero second pivot in `A00`.
    pub(crate) fn zero_second_column(n: usize) -> Matrix {
        let mut rng = SplitMix64::new(7);
        let mut a = Matrix::random(&mut rng, n, n);
        for i in 0..n {
            a[(i, 1)] = 0.0;
        }
        a
    }

    #[test]
    fn singular_pivot_block_is_a_typed_error() {
        let a = zero_second_column(16);
        let cfg = ConfluxConfig::dense(16, 4, LuGrid::new(4, 2, 1));
        let err = try_factorize(&cfg, Some(&a)).map(|_| ()).unwrap_err();
        assert_eq!(err.error, LuCause::Singular { column: 1 });
        assert_eq!(err.step, Some(0));
    }

    #[test]
    fn dense_single_rank_correct() {
        let (a, run) = dense_run(16, 4, 1, 1, 1);
        let f = run.factors.unwrap();
        assert!(f.residual(&a) < 1e-10, "residual {}", f.residual(&a));
    }

    #[test]
    fn dense_2x2_grid_correct() {
        let (a, run) = dense_run(32, 4, 2, 1, 2);
        let f = run.factors.unwrap();
        assert!(f.residual(&a) < 1e-10, "residual {}", f.residual(&a));
    }

    #[test]
    fn dense_2x2x2_grid_correct() {
        // Figure 5 configuration: P = 8 as a 2x2x2 grid
        let (a, run) = dense_run(32, 4, 2, 2, 3);
        let f = run.factors.unwrap();
        assert!(f.residual(&a) < 1e-10, "residual {}", f.residual(&a));
    }

    #[test]
    fn packed_factorization_handle_solves() {
        // the reusable L\U handle must reconstruct and solve like the
        // explicit factors it was packed from
        let (a, run) = dense_run(32, 4, 2, 2, 5);
        let f = run.factors.unwrap();
        let packed = f.to_factorization();
        assert!(packed.residual(&a) < 1e-10);
        let mut rng = SplitMix64::new(55);
        let x_true = Matrix::random(&mut rng, 32, 3);
        let b = a.matmul(&x_true);
        assert!(packed.solve(&b).allclose(&x_true, 1e-7));
        // the handle carries the packed factors unchanged
        assert_eq!(packed.perm, f.perm);
        assert_eq!(packed.lu.as_slice(), f.lu.as_slice());
    }

    /// The explicit form the factors used to leave the driver in: `L`
    /// starts as the identity and `U` as zeros, and each packed entry is
    /// copied below (`L`) or on and above (`U`) the diagonal.
    fn explicit_l_u(lu: &Matrix) -> (Matrix, Matrix) {
        let n = lu.rows();
        let mut l = Matrix::identity(n);
        let mut u = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                if i > j {
                    l[(i, j)] = lu[(i, j)];
                } else {
                    u[(i, j)] = lu[(i, j)];
                }
            }
        }
        (l, u)
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn packed_l_and_u_are_the_explicit_factors_bit_for_bit() {
        let (a, run) = dense_run(48, 8, 2, 2, 13);
        let f = run.factors.unwrap();
        let (l, u) = explicit_l_u(&f.lu);
        assert_eq!(bits(&f.l()), bits(&l));
        assert_eq!(bits(&f.u()), bits(&u));
        // a negative zero in the packed buffer stays where it belongs
        let mut packed = f.clone();
        packed.lu[(5, 2)] = -0.0;
        packed.lu[(2, 5)] = -0.0;
        let (l, u) = explicit_l_u(&packed.lu);
        assert_eq!(bits(&packed.l()), bits(&l));
        assert_eq!(bits(&packed.u()), bits(&u));
        // the residual is computed from exactly those factors
        let recon = l.matmul(&u);
        let pa = a.gather_rows(&f.perm);
        let expect = pa.sub(&recon).frobenius_norm() / a.frobenius_norm();
        assert_eq!(packed.residual(&a).to_bits(), expect.to_bits());
    }

    #[test]
    fn to_factorization_matches_the_explicit_packing() {
        let (_, run) = dense_run(32, 4, 1, 2, 14);
        let f = run.factors.unwrap();
        let handle = f.to_factorization();
        // the old conversion: start from U, copy L's strictly-lower part
        let (l, u) = explicit_l_u(&f.lu);
        let mut lu = u.clone();
        for i in 0..32 {
            for j in 0..i {
                lu[(i, j)] = l[(i, j)];
            }
        }
        assert_eq!(bits(&handle.lu), bits(&lu));
        assert_eq!(handle.perm, f.perm);
        assert_eq!(handle.sign, denselin::lu::permutation_sign(&f.perm));
    }

    #[test]
    fn dense_larger_matrix_and_replication() {
        let (a, run) = dense_run(96, 8, 2, 2, 4);
        let f = run.factors.unwrap();
        assert!(f.residual(&a) < 1e-9, "residual {}", f.residual(&a));
    }

    #[test]
    fn dense_3x3x3_grid() {
        let (a, run) = dense_run(81, 27, 3, 3, 5);
        let f = run.factors.unwrap();
        assert!(f.residual(&a) < 1e-9, "residual {}", f.residual(&a));
    }

    #[test]
    fn permutation_is_complete() {
        let (_, run) = dense_run(24, 4, 2, 1, 6);
        let f = run.factors.unwrap();
        let mut p = f.perm.clone();
        p.sort_unstable();
        assert_eq!(p, (0..24).collect::<Vec<_>>());
    }

    #[test]
    fn out_of_domain_configurations_are_typed_errors() {
        let grid = LuGrid::new(8, 2, 2);
        let no_layers = LuGrid {
            p_total: 4,
            q: 2,
            c: 0,
        };
        let narrow = Matrix::zeros(16, 8);
        let cases = [
            (ConfluxConfig::phantom(16, 0, grid), None, "positive"),
            (ConfluxConfig::phantom(18, 4, grid), None, "divide n"),
            (ConfluxConfig::phantom(16, 4, no_layers), None, "one layer"),
            (ConfluxConfig::phantom(16, 1, grid), None, "layer count"),
            (ConfluxConfig::dense(16, 4, grid), None, "input matrix"),
            (ConfluxConfig::dense(16, 4, grid), Some(&narrow), "n x n"),
        ];
        for (cfg, a, what) in cases {
            let err = try_factorize(&cfg, a).expect_err(what);
            match err.error {
                LuCause::Precondition(rule) => assert!(rule.contains(what), "{rule} vs {what}"),
                other => panic!("{what}: expected a precondition error, got {other}"),
            }
            assert_eq!(err.step, None);
            assert_eq!(err.stats.total_sent(), 0, "{what}: nothing may be sent");
        }
        // a Phantom run ignores whatever input it is handed
        let run = try_factorize(&ConfluxConfig::phantom(16, 4, grid), Some(&narrow));
        assert!(run.is_ok());
    }

    #[test]
    fn phantom_runs_and_counts() {
        let grid = LuGrid::new(8, 2, 2);
        let cfg = ConfluxConfig::phantom(64, 8, grid);
        let run = factorize(&cfg, None);
        assert!(run.factors.is_none());
        assert!(run.stats.total_sent() > 0);
        // all 11-step phases present
        let phases = run.stats.phases();
        assert!(phases.contains(&"02:tournament"));
        assert!(phases.contains(&"04:scatter-a10"));
        assert!(phases.contains(&"08:send-a10"));
        assert!(phases.contains(&"01:reduce-column"));
    }

    #[test]
    fn single_layer_has_no_reductions() {
        let grid = LuGrid::new(4, 2, 1);
        let cfg = ConfluxConfig::phantom(32, 4, grid);
        let run = factorize(&cfg, None);
        assert_eq!(run.stats.sent_in_phase("01:reduce-column"), 0);
        assert_eq!(run.stats.sent_in_phase("05:reduce-pivot-rows"), 0);
    }

    #[test]
    fn dense_synthetic_matches_phantom_volume_exactly() {
        // Same seed => same pivots => identical communication pattern.
        let n = 48;
        let v = 4;
        let grid = LuGrid::new(8, 2, 2);
        let mut rng = SplitMix64::new(9);
        let a = Matrix::random_diagonally_dominant(&mut rng, n);
        let mut dense_cfg = ConfluxConfig::dense(n, v, grid);
        dense_cfg.pivot_choice = PivotChoice::Synthetic;
        let dense = factorize(&dense_cfg, Some(&a));
        let phantom_cfg = ConfluxConfig::phantom(n, v, grid);
        let phantom = factorize(&phantom_cfg, None);
        assert_eq!(dense.stats.total_sent(), phantom.stats.total_sent());
        for r in 0..8 {
            assert_eq!(dense.stats.sent_by(r), phantom.stats.sent_by(r), "rank {r}");
        }
        // and the dense factors are still correct (diag-dominant input)
        let f = dense.factors.unwrap();
        assert!(f.residual(&a) < 1e-9, "residual {}", f.residual(&a));
    }

    #[test]
    fn swapping_costs_more_than_masking() {
        let grid = LuGrid::new(16, 2, 4);
        let mut mask_cfg = ConfluxConfig::phantom(128, 8, grid);
        mask_cfg.pivot_strategy = PivotStrategy::Masking;
        let mut swap_cfg = mask_cfg.clone();
        swap_cfg.pivot_strategy = PivotStrategy::Swapping;
        let mask = factorize(&mask_cfg, None);
        let swap = factorize(&swap_cfg, None);
        assert!(
            swap.stats.total_sent() > mask.stats.total_sent(),
            "swap={} mask={}",
            swap.stats.total_sent(),
            mask.stats.total_sent()
        );
        assert!(swap.stats.sent_in_phase("xx:row-swap") > 0);
    }

    #[test]
    fn communication_is_well_balanced() {
        // the Processor Grid Optimization's promise: no rank is a hotspot
        let run = factorize(
            &ConfluxConfig::phantom(1024, 16, LuGrid::new(64, 4, 4)),
            None,
        );
        let imb = run.stats.imbalance();
        assert!(imb < 2.5, "send-volume imbalance too high: {imb:.2}");
    }

    #[test]
    fn chosen_grids_respect_the_memory_budget() {
        use crate::grid::choose_grid;
        use crate::store::BlockStore;
        for (n, p) in [(256usize, 16usize), (512, 64), (1024, 64)] {
            let m = ((n * n) as f64 / (p as f64).powf(2.0 / 3.0)) as usize;
            let grid = choose_grid(p, n, m);
            let store = BlockStore::new(n, 16, grid.q, grid.c, Mode::Phantom, None);
            for r in 0..grid.active() {
                let local = store.local_elems(r);
                assert!(
                    local <= 2 * m,
                    "rank {r} resident {local} exceeds 2M={} (n={n} p={p})",
                    2 * m
                );
            }
        }
    }

    #[test]
    fn volume_decreases_with_replication() {
        // more layers => less leading-order traffic (2.5D benefit)
        let v = 8;
        let n = 256;
        let c1 = factorize(&ConfluxConfig::phantom(n, v, LuGrid::new(16, 4, 1)), None);
        let c4 = factorize(&ConfluxConfig::phantom(n, v, LuGrid::new(64, 4, 4)), None);
        // per-rank volume must drop with c (same q so same local share)
        let per1 = c1.stats.total_sent() as f64 / 16.0;
        let per4 = c4.stats.total_sent() as f64 / 64.0;
        assert!(per4 < per1, "per-rank c=4 {per4} !< c=1 {per1}");
    }
}
