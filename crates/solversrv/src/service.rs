//! The serving engine: per-shard bounded queues, admission control,
//! single-flight factoring and multi-RHS batch solving.
//!
//! There is one engine. [`serve`] runs it with one shard;
//! [`crate::serve_cluster`] runs it with N shards behind a consistent-hash
//! ring and adds the crash, failover, replication and shedding machinery
//! of [`crate::cluster`]. Every shard runs the same [`worker_loop`], the
//! same [`coalesce`] and the same batch solve, so a request answers
//! bit for bit the same whichever entry point admitted it.
//!
//! Scheduling invariants, per shard:
//!
//! * **Bounded admission** — `submit` rejects with
//!   [`SolveError::Overloaded`] once `max_queue` requests are pending;
//!   nothing inside the service ever blocks a client indefinitely on a
//!   full queue.
//! * **Single-flight factoring** — at most one worker factors a given
//!   fingerprint at a time (the `factoring` set); other workers skip past
//!   its queued requests instead of duplicating the `O(n³)` work, and are
//!   woken when the factor lands in the cache.
//! * **Batching** — a worker that obtains a factor drains every queued
//!   request with the same fingerprint (up to `max_batch`) and solves them
//!   as one `n × ΣK` multi-RHS pass: the factor streams through the
//!   blocked `trsm` kernels once instead of once per request.
//! * **Drain on shutdown** — workers exit only when shutdown is flagged
//!   *and* the queue is empty, so every accepted ticket gets an answer.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use conflux::LuGrid;
use denselin::gemm::gemm_auto;
use denselin::Matrix;
use simnet::{RankTracer, ReviveEvent, Trace};
use sparselin::{CsrMatrix, Preconditioner};

use crate::api::{MatrixKind, RequestStats, SolveError, SolveRequest, SolveResponse};
use crate::cache::{CachedFactor, FactorCache};
use crate::cluster::{serve_cluster, ClusterConfig, Counters, HashRing, ShedPolicy};
use crate::exec::{self, AnyRegistered, Registered, Slot, SparseRegistered};
use crate::fingerprint::Fingerprint;
use crate::stats::{ClusterStats, Collector, ServiceStats};

/// Route cold factorizations of large matrices through the real
/// distributed driver ([`conflux::factorize_threaded`]).
#[derive(Clone, Copy, Debug)]
pub struct DistributedConfig {
    /// Minimum matrix order that takes the distributed path; smaller
    /// matrices always factor locally (the SPMD spawn overhead would
    /// dominate).
    pub min_n: usize,
    /// COnfLUX block size `v`. The distributed path additionally requires
    /// `n % tile == 0` and `tile ≥ grid.c`; the threaded driver rejects an
    /// incompatible request with a typed precondition error, and it falls
    /// back to the local LU like a failed run.
    pub tile: usize,
    /// The `[q, q, c]` processor grid (`q` must be a power of two).
    pub grid: LuGrid,
}

/// Service tuning knobs (per shard, when a cluster nests them).
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads servicing the queue.
    pub workers: usize,
    /// Admission bound: pending requests beyond this are rejected with
    /// [`SolveError::Overloaded`].
    pub max_queue: usize,
    /// Factor-cache byte budget.
    pub cache_budget_bytes: usize,
    /// Most requests one batch may coalesce.
    pub max_batch: usize,
    /// Panel width for the local blocked factorizations.
    pub panel: usize,
    /// Refinement sweeps allowed when a solve misses its tolerance.
    pub refine_sweeps: usize,
    /// Deadline applied to requests that carry none (`None` = unbounded).
    pub default_deadline: Option<Duration>,
    /// Record per-request wall-clock spans (queue/factor/solve/refine)
    /// into a [`simnet::Trace`] exportable to Perfetto.
    pub trace: bool,
    /// Optional distributed backend for cold large factorizations.
    pub distributed: Option<DistributedConfig>,
    /// Degradation margin for sparse CG solves: a run that misses the
    /// requested tolerance within its iteration budget is still accepted —
    /// flagged `refined` in [`RequestStats`] — if its residual is within
    /// `sparse_relax ×` the request tolerance. `1.0` disables relaxation.
    /// The sparse analogue of the dense path's refinement degradation.
    pub sparse_relax: f64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            max_queue: 64,
            cache_budget_bytes: 64 << 20,
            max_batch: 32,
            panel: 64,
            refine_sweeps: 5,
            default_deadline: None,
            trace: false,
            distributed: None,
            sparse_relax: 1e4,
        }
    }
}

/// What [`serve`] hands back after the scope closes: final statistics and
/// (when tracing was on) the wall-clock event trace.
#[derive(Debug)]
pub struct ServiceReport {
    /// Final aggregated statistics.
    pub stats: ServiceStats,
    /// Wall-clock spans of every request phase, one timeline per worker,
    /// exportable with [`simnet::Trace::to_chrome_trace`].
    pub trace: Option<Trace>,
}

// ---------------------------------------------------------------------------
// Internal state
// ---------------------------------------------------------------------------

pub(crate) struct Pending {
    pub(crate) fp: Fingerprint,
    /// The registered operand (dense matrix + kind, or CSR matrix +
    /// preconditioner) this request solves against. Both families share
    /// the queue, the admission path, deadlines, coalescing and the cache.
    op: AnyRegistered,
    rhs: Matrix,
    tolerance: f64,
    deadline: Option<Duration>,
    /// Submission instant, kept across failovers so end-to-end latency
    /// (and deadlines) keep counting through a crash.
    enqueued: Instant,
    /// Seconds since the service epoch, for the trace's queue span.
    enqueued_s: f64,
    pub(crate) slot: Arc<Slot>,
    /// Times this request was re-routed after a shard crash.
    pub(crate) failovers: u32,
    /// Admitted under refinement shedding: serve the direct solve only.
    pub(crate) no_refine: bool,
}

/// A claim on a submitted request; [`Ticket::wait`] blocks for the answer.
pub struct Ticket {
    slot: Arc<Slot>,
}

impl Ticket {
    /// Block until a worker answers this request.
    pub fn wait(self) -> Result<SolveResponse, SolveError> {
        self.slot.wait_take()
    }
}

/// One shard's memory: everything a crash wipes, plus the tenant registry
/// every shard keeps a copy of.
pub(crate) struct State {
    pub(crate) queue: VecDeque<Pending>,
    pub(crate) registry: HashMap<u64, AnyRegistered>,
    pub(crate) cache: FactorCache,
    /// Fingerprints some worker is currently factoring (single-flight).
    pub(crate) factoring: HashSet<Fingerprint>,
    pub(crate) collector: Collector,
    pub(crate) alive: bool,
    /// Bumped on every crash. Workers read it at dequeue and re-check it
    /// before trusting anything computed from pre-crash shard memory.
    pub(crate) epoch: u64,
    /// Fail-point clock: each worker fail-point ticks it once.
    pub(crate) steps: usize,
    /// Sorted fail-point steps at which this shard still has to crash.
    pub(crate) crash_at: VecDeque<usize>,
}

pub(crate) struct Shard {
    pub(crate) state: Mutex<State>,
    pub(crate) work: Condvar,
}

pub(crate) struct Shared {
    pub(crate) cfg: ServiceConfig,
    /// Distinct shards each fingerprint may be served from (≤ shards).
    pub(crate) replicas: usize,
    pub(crate) shed: ShedPolicy,
    pub(crate) ring: HashRing,
    pub(crate) epoch: Instant,
    pub(crate) shards: Vec<Shard>,
    pub(crate) shutdown: AtomicBool,
    /// Submissions routed through the ring (with more than one shard,
    /// every submission): the revive clock.
    pub(crate) submitted_total: AtomicU64,
    /// Scheduled revives, each with its fired flag.
    pub(crate) revives: Vec<(ReviveEvent, AtomicBool)>,
    pub(crate) counters: Counters,
}

impl Shared {
    /// A stopped engine for `cfg`: every shard alive, empty and idle.
    pub(crate) fn new(cfg: ClusterConfig) -> Self {
        let shards = cfg.shards.max(1);
        let shard = |sid: usize| {
            let mut crash_at: Vec<usize> = cfg
                .faults
                .crashes()
                .iter()
                .filter(|c| c.rank == sid)
                .map(|c| c.at_step)
                .collect();
            crash_at.sort_unstable();
            Shard {
                state: Mutex::new(State {
                    queue: VecDeque::new(),
                    registry: HashMap::new(),
                    cache: FactorCache::new(cfg.service.cache_budget_bytes),
                    factoring: HashSet::new(),
                    collector: Collector::default(),
                    alive: true,
                    epoch: 0,
                    steps: 0,
                    crash_at: crash_at.into(),
                }),
                work: Condvar::new(),
            }
        };
        Shared {
            replicas: cfg.replicas.clamp(1, shards),
            shed: cfg.shed,
            ring: HashRing::new(shards),
            epoch: Instant::now(),
            shards: (0..shards).map(shard).collect(),
            shutdown: AtomicBool::new(false),
            submitted_total: AtomicU64::new(0),
            revives: (cfg.faults.revives().iter())
                .filter(|r| r.rank < shards)
                .map(|&r| (r, AtomicBool::new(false)))
                .collect(),
            counters: Counters::default(),
            cfg: cfg.service,
        }
    }

    /// Run `f` against a live engine: spawn every shard's workers, hand
    /// `f` the handle, then drain the queues, join the workers and report.
    /// The scoped threads guarantee no worker outlives the borrowed data.
    pub(crate) fn run<R>(
        self,
        f: impl FnOnce(&SolverHandle) -> R,
    ) -> (R, ClusterStats, Option<Trace>) {
        let shared = Arc::new(self);
        let workers = shared.cfg.workers.max(1);
        let tracing = shared.cfg.trace;
        let events = Mutex::new(Vec::new());
        let result = std::thread::scope(|s| {
            for sid in 0..shared.shards.len() {
                for w in 0..workers {
                    let (shared, events) = (Arc::clone(&shared), &events);
                    s.spawn(move || {
                        let mut tracer = if tracing {
                            RankTracer::wall(sid * workers + w, shared.epoch)
                        } else {
                            RankTracer::noop()
                        };
                        worker_loop(&shared, sid, &mut tracer);
                        let evs = tracer.into_events();
                        if !evs.is_empty() {
                            events.lock().unwrap().extend(evs);
                        }
                    });
                }
            }
            // flag shutdown even if `f` unwinds: a panicking caller must not
            // leave the workers parked on the condvar forever (the scope join
            // would deadlock instead of propagating the panic)
            struct ShutdownOnDrop<'a>(&'a Shared);
            impl Drop for ShutdownOnDrop<'_> {
                fn drop(&mut self) {
                    self.0.shutdown.store(true, Ordering::SeqCst);
                    for shard in &self.0.shards {
                        drop(shard.state.lock().unwrap());
                        shard.work.notify_all();
                    }
                }
            }
            let guard = ShutdownOnDrop(&shared);
            let r = f(&SolverHandle {
                shared: Arc::clone(&shared),
            });
            drop(guard);
            r
        });
        let stats = shared.snapshot();
        debug_assert!(
            stats.per_shard.iter().all(|s| s.queue_depth == 0),
            "shutdown drained every shard queue"
        );
        let trace = tracing.then(|| Trace {
            p: shared.shards.len() * workers,
            model: simnet::AlphaBeta::aries_like(),
            clock: simnet::ClockDomain::Wall,
            events: events.into_inner().unwrap(),
        });
        (result, stats, trace)
    }

    /// The `RequestStats::shard` label: which shard served, once there is
    /// more than one.
    fn shard_label(&self, sid: usize) -> Option<usize> {
        (self.shards.len() > 1).then_some(sid)
    }
}

/// Client-side handle to a running service or cluster, valid inside the
/// [`serve`] / [`crate::serve_cluster`] scope. Shareable across client
/// threads by reference.
pub struct SolverHandle {
    pub(crate) shared: Arc<Shared>,
}

impl SolverHandle {
    /// Register (or replace) a matrix under `matrix_id`. Returns its
    /// content fingerprint — re-registering different data under the same
    /// id changes the fingerprint, so stale cached factors can never be
    /// served. An empty matrix, or one with a NaN or infinite entry, is
    /// recorded as such and every request against it is refused with
    /// [`SolveError::InvalidInput`] at submission.
    pub fn register_matrix(&self, matrix_id: u64, matrix: Matrix, kind: MatrixKind) -> Fingerprint {
        // hash and screen in one pass over the entries, outside the lock
        let (fp, finite) = Fingerprint::of_checked(&matrix);
        let invalid = exec::defect(matrix.is_empty(), finite);
        self.register(
            matrix_id,
            AnyRegistered::Dense(Registered {
                matrix: Arc::new(matrix),
                kind,
                fp,
                invalid,
            }),
        );
        fp
    }

    /// Register (or replace) a sparse SPD system under `matrix_id`. Its
    /// solves run preconditioned CG; the cached artifact is the
    /// *preconditioner setup* (level schedules, triangles, diagonal), keyed
    /// by content fingerprint + preconditioner so repeat solves skip the
    /// analysis phase — the sparse analogue of reusing a dense factor.
    /// Errors with [`SolveError::ShapeMismatch`] on a non-square matrix and
    /// [`SolveError::InvalidInput`] on an empty one or a non-finite entry.
    pub fn register_sparse(
        &self,
        matrix_id: u64,
        matrix: CsrMatrix,
        precond: Preconditioner,
    ) -> Result<Fingerprint, SolveError> {
        if matrix.rows() != matrix.cols() {
            return Err(SolveError::ShapeMismatch {
                matrix_rows: matrix.rows(),
                rhs_rows: matrix.cols(),
            });
        }
        // hash outside the lock, tagging with the preconditioner: the same
        // matrix under Jacobi and SymGS caches two distinct setups
        let (fp, finite) = Fingerprint::of_csr_checked(&matrix);
        if let Some(what) = exec::defect(matrix.rows() == 0, finite) {
            return Err(SolveError::InvalidInput { what });
        }
        let fp = fp.with_tag(precond as u64);
        self.register(
            matrix_id,
            AnyRegistered::Sparse(SparseRegistered {
                matrix: Arc::new(matrix),
                precond,
                fp,
            }),
        );
        Ok(fp)
    }

    /// Every shard keeps a copy of the registry.
    fn register(&self, matrix_id: u64, op: AnyRegistered) {
        for shard in &self.shared.shards {
            let mut st = shard.state.lock().unwrap();
            st.registry.insert(matrix_id, op.clone());
        }
    }

    /// Submit a request. Fails fast — never blocks on a full queue. A NaN
    /// or negative tolerance, a zero-column or non-finite RHS, or a request
    /// against an empty or non-finite matrix is refused with
    /// [`SolveError::InvalidInput`] before anything is queued.
    ///
    /// One admission contract: a one-shard service rejects only at a full
    /// queue ([`SolveError::Overloaded`]) and admits under the one lock it
    /// read the registry under (it routes only once its shard is down).
    /// With more shards the request is routed to its ring replicas and the
    /// [`ShedPolicy`] tiers apply first.
    pub fn submit(&self, req: SolveRequest) -> Result<Ticket, SolveError> {
        req.validate()?;
        let sh = &*self.shared;
        // every shard keeps a registry copy: spread the reads by tenant
        let home = (req.matrix_id % sh.shards.len() as u64) as usize;
        let mut st = sh.shards[home].state.lock().unwrap();
        if sh.shutdown.load(Ordering::SeqCst) {
            return Err(SolveError::ShuttingDown);
        }
        let op = match st.registry.get(&req.matrix_id) {
            Some(r) => r.clone(),
            None => {
                return Err(SolveError::UnknownMatrix {
                    matrix_id: req.matrix_id,
                })
            }
        };
        let fp = op.admit(&req.rhs)?;
        // a live lone shard admits here, under this lock; otherwise route
        let local = sh.shards.len() == 1 && st.alive;
        if local && st.queue.len() >= sh.cfg.max_queue {
            st.collector.rejected_overloaded += 1;
            return Err(SolveError::Overloaded {
                depth: st.queue.len(),
            });
        }
        let slot = Arc::new(Slot::default());
        let pending = Pending {
            fp,
            op,
            rhs: req.rhs,
            tolerance: req.tolerance,
            deadline: req.deadline.or(sh.cfg.default_deadline),
            enqueued: Instant::now(),
            enqueued_s: sh.epoch.elapsed().as_secs_f64(),
            slot: Arc::clone(&slot),
            failovers: 0,
            no_refine: false,
        };
        if local {
            st.collector.submitted += 1;
            st.queue.push_back(pending);
            drop(st);
            sh.shards[home].work.notify_one();
        } else {
            drop(st);
            sh.route(pending)?;
        }
        Ok(Ticket { slot })
    }

    /// Submit and block for the answer.
    pub fn solve(&self, req: SolveRequest) -> Result<SolveResponse, SolveError> {
        self.submit(req)?.wait()
    }

    /// Point-in-time statistics snapshot (summed over shards).
    pub fn stats(&self) -> ServiceStats {
        self.shared.snapshot().service
    }

    /// Requests currently waiting in the queues.
    pub fn queue_depth(&self) -> usize {
        let shards = self.shared.shards.iter();
        shards.map(|s| s.state.lock().unwrap().queue.len()).sum()
    }
}

// ---------------------------------------------------------------------------
// The serve scope
// ---------------------------------------------------------------------------

/// Run a service: the engine with one shard, one replica and no fault
/// plan. Spawns the worker pool, hands the client closure a
/// [`SolverHandle`], and on return drains the queue, joins the workers and
/// reports. The scoped-thread structure guarantees no worker outlives the
/// borrowed matrices.
pub fn serve<R>(cfg: ServiceConfig, f: impl FnOnce(&SolverHandle) -> R) -> (R, ServiceReport) {
    let one = ClusterConfig {
        shards: 1,
        replicas: 1,
        service: cfg,
        ..ClusterConfig::default()
    };
    let (r, report) = serve_cluster(one, f);
    let (stats, trace) = (report.stats.service, report.trace);
    (r, ServiceReport { stats, trace })
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

struct BatchMember {
    pending: Pending,
    queue_wait: Duration,
    cache_hit: bool,
}

/// One worker of shard `sid`. Each of its four fail-points (dequeue,
/// pre-factor, post-factor, pre-deliver) runs under the shard lock; when
/// the shard has lost the worker's requests there, they fail over.
fn worker_loop(sh: &Shared, sid: usize, tracer: &mut RankTracer) {
    let shard = &sh.shards[sid];
    loop {
        let mut st = shard.state.lock().unwrap();
        let lead = loop {
            // skip requests whose factor another worker is computing:
            // they will be coalesced (or unblocked) when it finishes
            let free = (0..st.queue.len()).find(|&i| !st.factoring.contains(&st.queue[i].fp));
            match free.filter(|_| st.alive) {
                Some(i) => break st.queue.remove(i),
                None if sh.shutdown.load(Ordering::SeqCst) && st.queue.is_empty() => break None,
                None => st = shard.work.wait(st).unwrap(),
            }
        };
        let Some(lead) = lead else { return };
        let epoch = st.epoch;
        if let Some(lost) = sh.fail_point(sid, &mut st, epoch) {
            drop(st);
            sh.fail_over(sid, lost, vec![lead]);
            continue;
        }

        // deadline check at dequeue: a request that waited too long is
        // abandoned *before* any compute is spent on it
        let waited = lead.enqueued.elapsed();
        if let Some(deadline) = lead.deadline.filter(|&d| waited > d) {
            st.collector.deadline_misses += 1;
            lead.slot
                .deliver(Err(SolveError::DeadlineExceeded { waited, deadline }));
            continue;
        }

        match st.cache.lookup(lead.fp) {
            Some(factor) => {
                let batch = coalesce(&mut st, lead, sh.cfg.max_batch, true, true);
                st.cache.note_extra_hits(batch.len() as u64 - 1);
                drop(st);
                solve_batch(
                    sh,
                    sid,
                    epoch,
                    tracer,
                    &factor,
                    batch,
                    Duration::ZERO,
                    false,
                );
            }
            None => {
                st.factoring.insert(lead.fp);
                if let Some(lost) = sh.fail_point(sid, &mut st, epoch) {
                    drop(st);
                    sh.fail_over(sid, lost, vec![lead]);
                    continue;
                }
                drop(st);

                let t0 = tracer.begin();
                let start = Instant::now();
                let outcome = match &lead.op {
                    AnyRegistered::Dense(reg) => {
                        exec::factor_matrix(sh.cfg.panel, sh.cfg.distributed, &reg.matrix, reg.kind)
                    }
                    AnyRegistered::Sparse(reg) => exec::prepare_sparse(&reg.matrix, reg.precond),
                };
                let factor_time = start.elapsed();
                let kernel = outcome.as_ref().map_or("failed", |f| f.factor.kernel());
                tracer.push_compute("svc:factor", kernel, t0);

                // a crash here loses the fresh factor with the shard
                let mut st = shard.state.lock().unwrap();
                if let Some(lost) = sh.fail_point(sid, &mut st, epoch) {
                    drop(st);
                    sh.fail_over(sid, lost, vec![lead]);
                    continue;
                }
                st.factoring.remove(&lead.fp);
                match outcome {
                    Ok(factored) => {
                        if factored.distributed {
                            st.collector.distributed_factors += 1;
                        }
                        if factored.spd_fallback {
                            st.collector.spd_fallbacks += 1;
                        }
                        let fp = lead.fp;
                        let factor = Arc::new(factored.factor);
                        st.cache.insert(fp, Arc::clone(&factor));
                        // the leader was a miss; riders are served from
                        // the just-inserted factor and count as hits
                        let batch = coalesce(&mut st, lead, sh.cfg.max_batch, false, true);
                        st.cache.note_extra_hits(batch.len() as u64 - 1);
                        drop(st);
                        sh.replicate(sid, fp, &factor);
                        let distributed = factored.distributed;
                        solve_batch(
                            sh,
                            sid,
                            epoch,
                            tracer,
                            &factor,
                            batch,
                            factor_time,
                            distributed,
                        );
                    }
                    Err(err) => {
                        // every queued request for this fingerprint will
                        // fail identically: fail them together instead of
                        // re-factoring a singular matrix per request
                        let batch = coalesce(&mut st, lead, usize::MAX, false, false);
                        st.collector.failed += batch.len() as u64;
                        drop(st);
                        for member in batch {
                            member.pending.slot.deliver(Err(err.clone()));
                        }
                    }
                }
            }
        }
        // wake workers skipping this fingerprint (leftover riders beyond
        // max_batch are now plain cache hits)
        shard.work.notify_all();
    }
}

/// Pull every queued request with the leader's fingerprint (up to
/// `max_batch` total) out of the queue. Caller holds the state lock.
fn coalesce(
    st: &mut State,
    lead: Pending,
    max_batch: usize,
    lead_hit: bool,
    riders_hit: bool,
) -> Vec<BatchMember> {
    let fp = lead.fp;
    let lead_wait = lead.enqueued.elapsed();
    let mut batch = vec![BatchMember {
        pending: lead,
        queue_wait: lead_wait,
        cache_hit: lead_hit,
    }];
    let mut i = 0;
    while batch.len() < max_batch && i < st.queue.len() {
        if st.queue[i].fp == fp {
            let p = st.queue.remove(i).expect("index in bounds");
            batch.push(BatchMember {
                queue_wait: p.enqueued.elapsed(),
                pending: p,
                cache_hit: riders_hit,
            });
        } else {
            i += 1;
        }
    }
    batch
}

/// Solve one coalesced batch on shard `sid`: stack the RHS columns, run
/// one multi-RHS triangular solve, check each member's residual, degrade
/// stragglers to iterative refinement, deliver every response.
#[allow(clippy::too_many_arguments)]
fn solve_batch(
    sh: &Shared,
    sid: usize,
    epoch: u64,
    tracer: &mut RankTracer,
    factor: &CachedFactor,
    batch: Vec<BatchMember>,
    factor_time: Duration,
    distributed: bool,
) {
    // queue span: from the earliest submission in the batch to now
    if tracer.enabled() {
        let t0 = batch
            .iter()
            .map(|m| m.pending.enqueued_s)
            .fold(f64::INFINITY, f64::min);
        tracer.push_compute("svc:queue", "wait", t0);
    }

    // honor deadlines of riders that aged out while queued
    let mut active: Vec<BatchMember> = Vec::with_capacity(batch.len());
    let mut missed = 0u64;
    for member in batch {
        match member.pending.deadline {
            Some(deadline) if member.queue_wait > deadline => {
                missed += 1;
                member
                    .pending
                    .slot
                    .deliver(Err(SolveError::DeadlineExceeded {
                        waited: member.queue_wait,
                        deadline,
                    }));
            }
            _ => active.push(member),
        }
    }
    if missed > 0 {
        let mut st = sh.shards[sid].state.lock().unwrap();
        st.collector.deadline_misses += missed;
    }
    if active.is_empty() {
        return;
    }

    // one fingerprint per batch, so the first member names the operand for
    // everyone; sparse batches route through the CG path (the "factor" is a
    // preconditioner setup, not something solve_into can use)
    let (results, refined) = match &active[0].pending.op {
        AnyRegistered::Sparse(reg) => {
            let a = Arc::clone(&reg.matrix);
            let setup = Arc::clone(
                factor
                    .as_sparse()
                    .expect("sparse request coalesced with a dense factor"),
            );
            solve_sparse_batch(sh, sid, tracer, &a, &setup, &active, factor_time)
        }
        AnyRegistered::Dense(reg) => {
            let a = Arc::clone(&reg.matrix);
            solve_dense_batch(
                sh,
                sid,
                tracer,
                factor,
                &a,
                &active,
                factor_time,
                distributed,
            )
        }
    };
    deliver(sh, sid, epoch, active, results, refined);
}

type Outcome = Result<SolveResponse, SolveError>;

/// The dense half of [`solve_batch`]: stack, one multi-RHS direct solve,
/// one batch residual GEMM, per-member refinement degradation. Returns
/// every member's outcome and how many refined.
#[allow(clippy::too_many_arguments)]
fn solve_dense_batch(
    sh: &Shared,
    sid: usize,
    tracer: &mut RankTracer,
    factor: &CachedFactor,
    a: &Arc<Matrix>,
    active: &[BatchMember],
    factor_time: Duration,
    distributed: bool,
) -> (Vec<Outcome>, u64) {
    let n = a.rows();
    let batch_size = active.len();
    let k_total: usize = active.iter().map(|m| m.pending.rhs.cols()).sum();

    // one factor pass over all stacked right-hand sides
    let t0 = tracer.begin();
    let solve_start = Instant::now();
    let mut big = Matrix::zeros(n, k_total);
    let mut off = 0;
    for member in active {
        big.set_block(0, off, &member.pending.rhs);
        off += member.pending.rhs.cols();
    }
    let mut x = Matrix::zeros(n, k_total);
    factor.solve_into(&big, &mut x);
    // one residual GEMM for the whole batch: r = b - A·x
    let mut r = big;
    gemm_auto(&mut r, -1.0, a, &x, 1.0);
    let solve_time = solve_start.elapsed();
    tracer.push_compute("svc:solve", factor.kernel(), t0);

    // slice out each member's answer, refining where the tolerance missed
    let mut results = Vec::with_capacity(batch_size);
    let mut refined_count = 0u64;
    let mut off = 0;
    for member in active {
        let p = &member.pending;
        let k = p.rhs.cols();
        let bnorm = p.rhs.frobenius_norm().max(f64::MIN_POSITIVE);
        let residual = r.block(0, off, n, k).frobenius_norm() / bnorm;
        let mut stats = RequestStats {
            queue_wait: member.queue_wait,
            factor_time,
            solve_time,
            refine_time: Duration::ZERO,
            cache_hit: member.cache_hit,
            batch_size,
            refined: false,
            refine_history: Vec::new(),
            distributed_factor: distributed,
            kernel: factor.kernel(),
            cg_iterations: 0,
            shard: sh.shard_label(sid),
            failovers: p.failovers,
            fingerprint: Some(p.fp),
        };
        let result = if residual <= p.tolerance {
            Ok(SolveResponse {
                x: x.block(0, off, n, k),
                residual,
                stats,
            })
        } else if p.no_refine {
            // admitted under refinement shedding: the polish this request
            // needs was the work the cluster shed
            sh.counters.refines_shed.fetch_add(1, Ordering::Relaxed);
            Err(SolveError::ToleranceNotMet {
                achieved: residual,
                requested: p.tolerance,
                sweeps: 0,
            })
        } else {
            // graceful degradation: iterative refinement on this member
            let t0r = tracer.begin();
            let refine_start = Instant::now();
            let outcome = exec::refine_solution(
                factor,
                a,
                &p.rhs,
                p.tolerance,
                sh.cfg.refine_sweeps,
                x.block(0, off, n, k),
                residual,
            );
            stats.refine_time = refine_start.elapsed();
            tracer.push_compute("svc:refine", factor.kernel(), t0r);
            outcome.map(|(x_ref, res, history)| {
                refined_count += 1;
                stats.refined = true;
                stats.refine_history = history;
                SolveResponse {
                    x: x_ref,
                    residual: res,
                    stats,
                }
            })
        };
        results.push(result);
        off += k;
    }
    (results, refined_count)
}

/// The sparse half of [`solve_batch`]: every member solves by CG against
/// the shared matrix and cached preconditioner setup, column by column,
/// with relaxed-tolerance degradation instead of refinement sweeps.
fn solve_sparse_batch(
    sh: &Shared,
    sid: usize,
    tracer: &mut RankTracer,
    a: &Arc<CsrMatrix>,
    setup: &Arc<sparselin::PrecondSetup>,
    active: &[BatchMember],
    factor_time: Duration,
) -> (Vec<Outcome>, u64) {
    let batch_size = active.len();
    let t0 = tracer.begin();
    let solve_start = Instant::now();
    let mut solved = Vec::with_capacity(batch_size);
    for member in active {
        let p = &member.pending;
        solved.push(exec::solve_sparse_member(
            a,
            setup,
            &p.rhs,
            p.tolerance,
            sh.cfg.sparse_relax,
        ));
    }
    let solve_time = solve_start.elapsed();
    tracer.push_compute("svc:solve", "cg", t0);

    let mut refined_count = 0u64;
    let results = active
        .iter()
        .zip(solved)
        .map(|(member, solved)| {
            solved.map(|(x, residual, degraded, history, iterations)| {
                if degraded {
                    refined_count += 1;
                }
                SolveResponse {
                    x,
                    residual,
                    stats: RequestStats {
                        queue_wait: member.queue_wait,
                        factor_time,
                        solve_time,
                        refine_time: Duration::ZERO,
                        cache_hit: member.cache_hit,
                        batch_size,
                        refined: degraded,
                        refine_history: if degraded { history } else { Vec::new() },
                        distributed_factor: false,
                        kernel: "cg",
                        cg_iterations: iterations,
                        shard: sh.shard_label(sid),
                        failovers: member.pending.failovers,
                        fingerprint: Some(member.pending.fp),
                    },
                }
            })
        })
        .collect();
    (results, refined_count)
}

/// Shared tail of both batch paths, at the pre-deliver fail-point: if the
/// shard died while the batch was computed, the answers die with it and
/// the batch fails over; otherwise record batch/refinement/latency
/// counters under the lock, then deliver every response outside it.
fn deliver(
    sh: &Shared,
    sid: usize,
    epoch: u64,
    active: Vec<BatchMember>,
    results: Vec<Outcome>,
    refined_count: u64,
) {
    let mut st = sh.shards[sid].state.lock().unwrap();
    if let Some(lost) = sh.fail_point(sid, &mut st, epoch) {
        drop(st);
        sh.fail_over(sid, lost, active.into_iter().map(|m| m.pending).collect());
        return;
    }
    st.collector.record_batch(active.len());
    st.collector.refined += refined_count;
    for (member, result) in active.iter().zip(&results) {
        match result {
            Ok(_) => {
                st.collector.completed += 1;
                let latency = member.pending.enqueued.elapsed();
                st.collector.latencies.push(latency.as_secs_f64());
            }
            Err(_) => st.collector.failed += 1,
        }
    }
    drop(st);
    for (member, result) in active.into_iter().zip(results) {
        member.pending.slot.deliver(result);
    }
}
