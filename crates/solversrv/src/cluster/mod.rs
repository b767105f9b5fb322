//! Sharded, replicated serving with crash-tolerant failover.
//!
//! [`serve_cluster`] runs `shards` independent shard services — each with
//! its own bounded queue, factor cache and worker pool — behind one
//! [`ClusterHandle`]. A consistent-hash ring ([`ring::HashRing`]) maps
//! every matrix fingerprint to a preference order of `replicas` distinct
//! shards; requests are admitted at the first live replica with queue
//! room, and hot factors are copied to the rest of the replica set at
//! insert time so a cache-warm shard crash degrades to a replica hit, not
//! a re-factorization.
//!
//! **Failover protocol.** A crash (scheduled through
//! [`simnet::FaultPlan`] fail-points, or [`ClusterHandle::kill_shard`])
//! atomically, under the shard lock: marks the shard dead, bumps its
//! *epoch*, wipes its cache and single-flight set, and takes every queued
//! request. The taken orphans are re-enqueued at the next live replica
//! with `failovers + 1` — admission is bypassed because the ticket was
//! already accepted; admitted work is never silently dropped. Workers
//! that were mid-request re-check the shard epoch after every compute
//! step and before delivery: on a mismatch they discard what they
//! computed (the shard's memory died with it) and fail their own batch
//! over themselves. A request whose entire replica set is dead resolves
//! to the typed [`SolveError::NoLiveReplica`] — it never hangs.
//!
//! **Staleness.** Factor-cache keys are content fingerprints and every
//! response echoes the fingerprint it was solved under
//! ([`RequestStats::fingerprint`]), so a failed-over request can prove it
//! was answered against exactly the bytes its tenant registered — the
//! verifier's `cluster-zero-stale` oracle checks this.
//!
//! **Load shedding.** Under pressure (total queued / live capacity) the
//! cluster degrades in tiers before rejecting — see [`ShedPolicy`].
//!
//! **Revival.** [`simnet::ReviveEvent`]s (consumed against a cluster-wide
//! submission clock) or [`ClusterHandle::revive_shard`] bring a shard
//! back empty; a rebalance pass then copies factors whose ring *primary*
//! is the revived shard from the replicas that kept them warm.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use denselin::gemm::gemm_auto;
use denselin::Matrix;
use simnet::{FaultPlan, ReviveEvent};

use crate::api::{MatrixKind, RequestStats, SolveError, SolveRequest, SolveResponse};
use crate::cache::{CachedFactor, FactorCache};
use crate::exec::{self, Registered, Slot};
use crate::fingerprint::Fingerprint;
use crate::service::{DistributedConfig, Ticket};
use crate::stats::{ClusterStats, Collector, ShardSnapshot};

pub mod ring;

pub use ring::HashRing;

/// Pressure thresholds (fraction of live queue capacity occupied) at
/// which the cluster sheds work, cheapest degradation first.
///
/// * at [`refine_at`](ShedPolicy::refine_at) — new requests skip iterative
///   refinement; a direct solve that misses its tolerance returns
///   [`SolveError::ToleranceNotMet`] with zero sweeps instead of burning
///   worker time polishing,
/// * at [`cold_miss_at`](ShedPolicy::cold_miss_at) — requests that would
///   force a cold `O(n³)` factorization are rejected with
///   [`SolveError::ShedColdMiss`]; cache hits still flow,
/// * at [`reject_at`](ShedPolicy::reject_at) — everything new is rejected
///   with [`SolveError::Overloaded`].
#[derive(Clone, Copy, Debug)]
pub struct ShedPolicy {
    /// Pressure at which refinement is shed.
    pub refine_at: f64,
    /// Pressure at which cold-miss factorizations are shed.
    pub cold_miss_at: f64,
    /// Pressure at which all new work is rejected.
    pub reject_at: f64,
}

impl Default for ShedPolicy {
    fn default() -> Self {
        ShedPolicy {
            refine_at: 0.50,
            cold_miss_at: 0.75,
            reject_at: 0.95,
        }
    }
}

/// Cluster tuning knobs.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Shard services in the cluster.
    pub shards: usize,
    /// Distinct shards each fingerprint may be served from (clamped to
    /// `shards`). 1 disables replication: a crash forces cold re-factoring
    /// at whichever shard inherits the keyspace.
    pub replicas: usize,
    /// Worker threads per shard.
    pub workers_per_shard: usize,
    /// Per-shard admission bound (the cluster's capacity is
    /// `live_shards × max_queue`).
    pub max_queue: usize,
    /// Per-shard factor-cache byte budget.
    pub cache_budget_bytes: usize,
    /// Most requests one batch may coalesce.
    pub max_batch: usize,
    /// Panel width for the local blocked factorizations.
    pub panel: usize,
    /// Refinement sweeps allowed when a solve misses its tolerance.
    pub refine_sweeps: usize,
    /// Deadline applied to requests that carry none.
    pub default_deadline: Option<Duration>,
    /// Copy freshly factored entries to the rest of the replica set so a
    /// crash fails over to a warm cache instead of re-factoring.
    pub replicate_hot: bool,
    /// Load-shedding thresholds.
    pub shed: ShedPolicy,
    /// Seeded chaos schedule: crash events fire at per-shard fail-point
    /// steps (dequeue / pre-factor / post-factor / pre-deliver), revive
    /// events fire against the cluster-wide submission count.
    pub faults: FaultPlan,
    /// Optional distributed backend for cold large factorizations,
    /// identical to the single-node service's.
    pub distributed: Option<DistributedConfig>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            shards: 4,
            replicas: 2,
            workers_per_shard: 1,
            max_queue: 64,
            cache_budget_bytes: 64 << 20,
            max_batch: 32,
            panel: 64,
            refine_sweeps: 5,
            default_deadline: None,
            replicate_hot: true,
            shed: ShedPolicy::default(),
            faults: FaultPlan::none(),
            distributed: None,
        }
    }
}

/// What [`serve_cluster`] hands back after the scope closes.
#[derive(Debug)]
pub struct ClusterReport {
    /// Final aggregated statistics.
    pub stats: ClusterStats,
}

// ---------------------------------------------------------------------------
// Internal state
// ---------------------------------------------------------------------------

struct ClusterPending {
    fp: Fingerprint,
    matrix: Arc<Matrix>,
    kind: MatrixKind,
    rhs: Matrix,
    tolerance: f64,
    deadline: Option<Duration>,
    /// Submission instant, preserved across failovers so end-to-end
    /// latency (and deadlines) keep counting through a crash.
    enqueued: Instant,
    slot: Arc<Slot>,
    /// Times this request was re-routed after a shard crash.
    failovers: u32,
    /// Admitted under refinement shedding: serve the direct solve only.
    no_refine: bool,
    /// Ring preference order, fixed at submission (the ring is static).
    route: Vec<usize>,
}

struct ShardState {
    queue: VecDeque<ClusterPending>,
    cache: FactorCache,
    factoring: HashSet<Fingerprint>,
    alive: bool,
    /// Bumped on every crash. Workers capture it at dequeue and re-check
    /// before trusting anything computed from pre-crash shard memory.
    epoch: u64,
    /// Next unfired entry of [`ShardRt::crash_steps`].
    next_crash: usize,
}

struct ShardRt {
    state: Mutex<ShardState>,
    work: Condvar,
    /// Fail-point clock: each worker fail-point ticks it once.
    step: AtomicU64,
    /// Sorted fail-point steps at which this shard crashes.
    crash_steps: Vec<usize>,
}

struct ClusterShared {
    cfg: ClusterConfig,
    ring: HashRing,
    epoch: Instant,
    shards: Vec<ShardRt>,
    registry: Mutex<HashMap<u64, Registered>>,
    collector: Mutex<Collector>,
    shutdown: AtomicBool,
    /// Cluster-wide submission count; doubles as the revive clock.
    submitted_total: AtomicU64,
    revive_events: Vec<ReviveEvent>,
    revives_fired: Mutex<Vec<bool>>,
    crashes: AtomicU64,
    revives: AtomicU64,
    failovers: AtomicU64,
    replicated: AtomicU64,
    rebalanced: AtomicU64,
    shed_cold_miss: AtomicU64,
    refines_shed: AtomicU64,
    unavailable: AtomicU64,
}

/// Client-side handle to a running cluster, valid inside the
/// [`serve_cluster`] scope. Shareable across client threads by reference.
pub struct ClusterHandle {
    shared: Arc<ClusterShared>,
}

impl ClusterHandle {
    /// Register (or replace) a matrix under `matrix_id`, cluster-wide.
    /// Returns its content fingerprint; re-registering different data
    /// under the same id changes the fingerprint, so no shard can ever
    /// serve a stale factor for it.
    pub fn register_matrix(&self, matrix_id: u64, matrix: Matrix, kind: MatrixKind) -> Fingerprint {
        let fp = Fingerprint::of(&matrix);
        self.shared.registry.lock().unwrap().insert(
            matrix_id,
            Registered {
                matrix: Arc::new(matrix),
                kind,
                fp,
            },
        );
        fp
    }

    /// The ring preference order for a fingerprint: `route_of(fp)[0]` is
    /// its primary shard, the rest its replica set.
    pub fn route_of(&self, fp: Fingerprint) -> Vec<usize> {
        self.shared.ring.route(fp, self.shared.cfg.replicas)
    }

    /// Shards currently alive.
    pub fn live_shards(&self) -> usize {
        self.shared.live_count()
    }

    /// Crash a shard now: its cache and single-flight state are wiped and
    /// every queued request fails over to the next live replica (or
    /// resolves to [`SolveError::NoLiveReplica`]). Returns `false` if the
    /// shard was already dead.
    pub fn kill_shard(&self, shard: usize) -> bool {
        let sh = &self.shared;
        let orphans = {
            let mut st = sh.shards[shard].state.lock().unwrap();
            if !st.alive {
                return false;
            }
            crash_locked(&mut st)
        };
        sh.crashes.fetch_add(1, Ordering::Relaxed);
        sh.shards[shard].work.notify_all();
        sh.fail_over(orphans);
        true
    }

    /// Bring a dead shard back (empty) and rebalance: factors whose ring
    /// primary is this shard are copied over from live replicas still
    /// holding them. Returns `false` if the shard was already alive.
    pub fn revive_shard(&self, shard: usize) -> bool {
        self.shared.revive(shard)
    }

    /// Submit a request. Fails fast — never blocks on a full cluster. A
    /// NaN or negative tolerance or a non-finite RHS entry is refused with
    /// [`SolveError::InvalidInput`] before any lock is taken.
    pub fn submit(&self, req: SolveRequest) -> Result<Ticket, SolveError> {
        req.validate()?;
        let sh = &self.shared;
        if sh.shutdown.load(Ordering::SeqCst) {
            return Err(SolveError::ShuttingDown);
        }
        let reg = match sh.registry.lock().unwrap().get(&req.matrix_id) {
            Some(r) => r.clone(),
            None => {
                return Err(SolveError::UnknownMatrix {
                    matrix_id: req.matrix_id,
                })
            }
        };
        if reg.matrix.rows() != req.rhs.rows() {
            return Err(SolveError::ShapeMismatch {
                matrix_rows: reg.matrix.rows(),
                rhs_rows: req.rhs.rows(),
            });
        }
        let clock = sh.submitted_total.fetch_add(1, Ordering::SeqCst) as usize + 1;
        sh.fire_due_revives(clock);

        let route = sh.ring.route(reg.fp, sh.cfg.replicas);
        // one pass over all shards: cluster pressure, liveness, and
        // whether any live replica already holds (or is computing) the
        // factor this request needs
        let mut total_queued = 0usize;
        let mut live = 0usize;
        let mut live_route = 0usize;
        let mut route_warm = false;
        for (sid, shard) in sh.shards.iter().enumerate() {
            let st = shard.state.lock().unwrap();
            if !st.alive {
                continue;
            }
            live += 1;
            total_queued += st.queue.len();
            if route.contains(&sid) {
                live_route += 1;
                if st.cache.contains(reg.fp) || st.factoring.contains(&reg.fp) {
                    route_warm = true;
                }
            }
        }
        if live == 0 {
            sh.unavailable.fetch_add(1, Ordering::Relaxed);
            return Err(SolveError::NoLiveReplica {
                live: 0,
                shards: sh.cfg.shards,
            });
        }
        let pressure = total_queued as f64 / (live * sh.cfg.max_queue) as f64;
        if pressure >= sh.cfg.shed.reject_at {
            sh.collector.lock().unwrap().rejected_overloaded += 1;
            return Err(SolveError::Overloaded {
                depth: total_queued,
            });
        }
        if pressure >= sh.cfg.shed.cold_miss_at && !route_warm {
            sh.shed_cold_miss.fetch_add(1, Ordering::Relaxed);
            return Err(SolveError::ShedColdMiss {
                depth: total_queued,
            });
        }
        let no_refine = pressure >= sh.cfg.shed.refine_at;

        let slot = Arc::new(Slot::default());
        let mut pending = Some(ClusterPending {
            fp: reg.fp,
            matrix: reg.matrix,
            kind: reg.kind,
            rhs: req.rhs,
            tolerance: req.tolerance,
            deadline: req.deadline.or(sh.cfg.default_deadline),
            enqueued: Instant::now(),
            slot: Arc::clone(&slot),
            failovers: 0,
            no_refine,
            route: route.clone(),
        });
        for &sid in &route {
            let mut st = sh.shards[sid].state.lock().unwrap();
            if st.alive && st.queue.len() < sh.cfg.max_queue {
                st.queue.push_back(pending.take().expect("not yet placed"));
                sh.collector.lock().unwrap().submitted += 1;
                drop(st);
                sh.shards[sid].work.notify_one();
                return Ok(Ticket::from_slot(slot));
            }
        }
        if live_route == 0 {
            sh.unavailable.fetch_add(1, Ordering::Relaxed);
            Err(SolveError::NoLiveReplica {
                live,
                shards: sh.cfg.shards,
            })
        } else {
            sh.collector.lock().unwrap().rejected_overloaded += 1;
            Err(SolveError::Overloaded {
                depth: total_queued,
            })
        }
    }

    /// Submit and block for the answer.
    pub fn solve(&self, req: SolveRequest) -> Result<SolveResponse, SolveError> {
        self.submit(req)?.wait()
    }

    /// Point-in-time statistics snapshot.
    pub fn stats(&self) -> ClusterStats {
        snapshot_cluster(&self.shared, self.shared.epoch.elapsed().as_secs_f64())
    }
}

fn snapshot_cluster(sh: &ClusterShared, elapsed_s: f64) -> ClusterStats {
    let mut service = sh.collector.lock().unwrap().snapshot(elapsed_s);
    let mut per_shard = Vec::with_capacity(sh.shards.len());
    let mut live_shards = 0;
    for (sid, shard) in sh.shards.iter().enumerate() {
        let st = shard.state.lock().unwrap();
        service.cache_hits += st.cache.hits;
        service.cache_misses += st.cache.misses;
        service.cache_evictions += st.cache.evictions;
        service.cache_bytes += st.cache.bytes();
        service.cache_entries += st.cache.len();
        if st.alive {
            live_shards += 1;
        }
        per_shard.push(ShardSnapshot {
            shard: sid,
            alive: st.alive,
            queue_depth: st.queue.len(),
            cache_entries: st.cache.len(),
            cache_bytes: st.cache.bytes(),
            cache_hits: st.cache.hits,
            cache_misses: st.cache.misses,
        });
    }
    ClusterStats {
        service,
        shards: sh.cfg.shards,
        replicas: sh.cfg.replicas.clamp(1, sh.cfg.shards),
        live_shards,
        crashes: sh.crashes.load(Ordering::Relaxed),
        revives: sh.revives.load(Ordering::Relaxed),
        failovers: sh.failovers.load(Ordering::Relaxed),
        replicated_factors: sh.replicated.load(Ordering::Relaxed),
        rebalanced_factors: sh.rebalanced.load(Ordering::Relaxed),
        shed_cold_miss: sh.shed_cold_miss.load(Ordering::Relaxed),
        refines_shed: sh.refines_shed.load(Ordering::Relaxed),
        unavailable: sh.unavailable.load(Ordering::Relaxed),
        per_shard,
    }
}

// ---------------------------------------------------------------------------
// Crash / failover / revive machinery
// ---------------------------------------------------------------------------

/// Kill the shard whose state lock the caller holds: dead, epoch bumped,
/// memory wiped, queue taken. The caller must fail the returned orphans
/// over *after* releasing the lock.
fn crash_locked(st: &mut ShardState) -> Vec<ClusterPending> {
    st.alive = false;
    st.epoch += 1;
    st.factoring.clear();
    st.cache.clear();
    st.queue.drain(..).collect()
}

impl ClusterShared {
    fn live_count(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| s.state.lock().unwrap().alive)
            .count()
    }

    /// Re-enqueue crash orphans at their next live replica. Admission is
    /// bypassed — these tickets were already accepted and must resolve.
    /// With no live replica left they resolve to the typed
    /// [`SolveError::NoLiveReplica`].
    fn fail_over(&self, orphans: Vec<ClusterPending>) {
        for mut p in orphans {
            p.failovers += 1;
            self.failovers.fetch_add(1, Ordering::Relaxed);
            let route = p.route.clone();
            let mut pending = Some(p);
            for sid in route {
                let shard = &self.shards[sid];
                let mut st = shard.state.lock().unwrap();
                if st.alive {
                    st.queue.push_back(pending.take().expect("not yet placed"));
                    drop(st);
                    shard.work.notify_one();
                    break;
                }
            }
            if let Some(p) = pending {
                let live = self.live_count();
                self.collector.lock().unwrap().failed += 1;
                p.slot.deliver(Err(SolveError::NoLiveReplica {
                    live,
                    shards: self.cfg.shards,
                }));
            }
        }
    }

    fn fire_due_revives(&self, clock: usize) {
        if self.revive_events.is_empty() {
            return;
        }
        let due: Vec<usize> = {
            let mut fired = self.revives_fired.lock().unwrap();
            let mut due = Vec::new();
            for (i, ev) in self.revive_events.iter().enumerate() {
                if !fired[i] && clock >= ev.at_step && ev.rank < self.cfg.shards {
                    fired[i] = true;
                    due.push(ev.rank);
                }
            }
            due
        };
        for sid in due {
            self.revive(sid);
        }
    }

    /// Revive a dead shard and rebalance its primary keyspace back onto
    /// it from live replicas. Returns `false` if it was already alive.
    fn revive(&self, sid: usize) -> bool {
        {
            let mut st = self.shards[sid].state.lock().unwrap();
            if st.alive {
                return false;
            }
            st.alive = true;
        }
        self.revives.fetch_add(1, Ordering::Relaxed);
        // collect factors whose primary is the revived shard, one donor
        // lock at a time (never two shard locks at once)
        let mut moved: Vec<(Fingerprint, Arc<CachedFactor>)> = Vec::new();
        for (t, shard) in self.shards.iter().enumerate() {
            if t == sid {
                continue;
            }
            let st = shard.state.lock().unwrap();
            if !st.alive {
                continue;
            }
            for fp in st.cache.fingerprints() {
                if self.ring.route(fp, self.cfg.replicas)[0] == sid
                    && !moved.iter().any(|(m, _)| *m == fp)
                {
                    if let Some(f) = st.cache.peek(fp) {
                        moved.push((fp, Arc::clone(f)));
                    }
                }
            }
        }
        let mut st = self.shards[sid].state.lock().unwrap();
        if st.alive {
            for (fp, f) in moved {
                if !st.cache.contains(fp) {
                    st.cache.insert(fp, f);
                    self.rebalanced.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        drop(st);
        self.shards[sid].work.notify_all();
        true
    }

    /// Share a freshly factored entry with the rest of its replica set.
    fn replicate(&self, from: usize, fp: Fingerprint, factor: &Arc<CachedFactor>, route: &[usize]) {
        if !self.cfg.replicate_hot {
            return;
        }
        for &t in route {
            if t == from {
                continue;
            }
            let mut st = self.shards[t].state.lock().unwrap();
            if st.alive && !st.cache.contains(fp) {
                st.cache.insert(fp, Arc::clone(factor));
                self.replicated.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Tick shard `sid`'s fail-point clock and fire a scheduled crash if one
/// is due. Returns `true` if the shard crashed at this fail-point (the
/// calling worker must fail over whatever request it holds).
fn maybe_crash(sh: &ClusterShared, sid: usize) -> bool {
    let shard = &sh.shards[sid];
    if shard.crash_steps.is_empty() {
        return false;
    }
    let step = shard.step.fetch_add(1, Ordering::SeqCst) as usize + 1;
    let orphans = {
        let mut st = shard.state.lock().unwrap();
        if st.next_crash >= shard.crash_steps.len() || step < shard.crash_steps[st.next_crash] {
            return false;
        }
        // consume the event even when already dead, so a revive does not
        // immediately re-fire a crash that came due mid-outage
        st.next_crash += 1;
        if !st.alive {
            return false;
        }
        crash_locked(&mut st)
    };
    sh.crashes.fetch_add(1, Ordering::Relaxed);
    shard.work.notify_all();
    sh.fail_over(orphans);
    true
}

// ---------------------------------------------------------------------------
// The serve scope
// ---------------------------------------------------------------------------

/// Run a cluster: spawn every shard's worker pool, hand the client
/// closure a [`ClusterHandle`], and on return drain the queues, join the
/// workers and report.
pub fn serve_cluster<R>(
    cfg: ClusterConfig,
    f: impl FnOnce(&ClusterHandle) -> R,
) -> (R, ClusterReport) {
    let shards = cfg.shards.max(1);
    let workers = cfg.workers_per_shard.max(1);
    let epoch = Instant::now();
    let ring = HashRing::new(shards);
    let shard_rts = (0..shards)
        .map(|sid| {
            let mut crash_steps: Vec<usize> = cfg
                .faults
                .crashes()
                .iter()
                .filter(|c| c.rank == sid)
                .map(|c| c.at_step)
                .collect();
            crash_steps.sort_unstable();
            ShardRt {
                state: Mutex::new(ShardState {
                    queue: VecDeque::new(),
                    cache: FactorCache::new(cfg.cache_budget_bytes),
                    factoring: HashSet::new(),
                    alive: true,
                    epoch: 0,
                    next_crash: 0,
                }),
                work: Condvar::new(),
                step: AtomicU64::new(0),
                crash_steps,
            }
        })
        .collect();
    let revive_events: Vec<ReviveEvent> = cfg.faults.revives().to_vec();
    let fired = vec![false; revive_events.len()];
    let shared = Arc::new(ClusterShared {
        cfg: ClusterConfig {
            shards,
            workers_per_shard: workers,
            ..cfg
        },
        ring,
        epoch,
        shards: shard_rts,
        registry: Mutex::new(HashMap::new()),
        collector: Mutex::new(Collector::default()),
        shutdown: AtomicBool::new(false),
        submitted_total: AtomicU64::new(0),
        revive_events,
        revives_fired: Mutex::new(fired),
        crashes: AtomicU64::new(0),
        revives: AtomicU64::new(0),
        failovers: AtomicU64::new(0),
        replicated: AtomicU64::new(0),
        rebalanced: AtomicU64::new(0),
        shed_cold_miss: AtomicU64::new(0),
        refines_shed: AtomicU64::new(0),
        unavailable: AtomicU64::new(0),
    });

    let result = std::thread::scope(|s| {
        for sid in 0..shards {
            for _ in 0..workers {
                let shared = Arc::clone(&shared);
                s.spawn(move || worker_loop(&shared, sid));
            }
        }
        let handle = ClusterHandle {
            shared: Arc::clone(&shared),
        };
        // flag shutdown even if `f` unwinds, so the scope join cannot
        // deadlock on parked workers
        struct ShutdownOnDrop<'a>(&'a ClusterShared);
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
        let r = f(&handle);
        drop(guard);
        r
    });

    let elapsed_s = epoch.elapsed().as_secs_f64();
    let stats = snapshot_cluster(&shared, elapsed_s);
    debug_assert!(
        stats.per_shard.iter().all(|s| s.queue_depth == 0),
        "shutdown drained every shard queue"
    );
    (result, ClusterReport { stats })
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

struct Member {
    pending: ClusterPending,
    queue_wait: Duration,
    cache_hit: bool,
}

fn worker_loop(sh: &ClusterShared, sid: usize) {
    let shard = &sh.shards[sid];
    loop {
        let mut st = shard.state.lock().unwrap();
        let taken = loop {
            if st.alive {
                let free = (0..st.queue.len()).find(|&i| !st.factoring.contains(&st.queue[i].fp));
                if let Some(i) = free {
                    break Some(st.queue.remove(i).expect("index in bounds"));
                }
            }
            if sh.shutdown.load(Ordering::SeqCst) && st.queue.is_empty() {
                break None;
            }
            st = shard.work.wait(st).unwrap();
        };
        let Some(lead) = taken else { return };
        let epoch0 = st.epoch;
        drop(st);

        // fail-point: dequeue. A crash here loses the shard's memory but
        // not the lead (we hold it): fail it over like the queue orphans.
        if maybe_crash(sh, sid) {
            sh.fail_over(vec![lead]);
            continue;
        }

        let waited = lead.enqueued.elapsed();
        if let Some(deadline) = lead.deadline {
            if waited > deadline {
                sh.collector.lock().unwrap().deadline_misses += 1;
                lead.slot
                    .deliver(Err(SolveError::DeadlineExceeded { waited, deadline }));
                continue;
            }
        }

        let mut st = shard.state.lock().unwrap();
        if st.epoch != epoch0 || !st.alive {
            // killed from outside between dequeue and here
            drop(st);
            sh.fail_over(vec![lead]);
            continue;
        }
        match st.cache.lookup(lead.fp) {
            Some(factor) => {
                let batch = coalesce(&mut st, lead, sh.cfg.max_batch, true, true);
                st.cache.note_extra_hits(batch.len() as u64 - 1);
                drop(st);
                run_batch(sh, sid, epoch0, &factor, batch, Duration::ZERO, false);
                shard.work.notify_all();
            }
            None => {
                st.factoring.insert(lead.fp);
                drop(st);

                // fail-point: pre-factor
                if maybe_crash(sh, sid) {
                    sh.fail_over(vec![lead]);
                    continue;
                }
                let start = Instant::now();
                let outcome =
                    exec::factor_matrix(sh.cfg.panel, sh.cfg.distributed, &lead.matrix, lead.kind);
                let factor_time = start.elapsed();
                // fail-point: post-factor — the freshly computed factor
                // dies with the shard before reaching the cache
                if maybe_crash(sh, sid) {
                    sh.fail_over(vec![lead]);
                    continue;
                }

                let mut st = shard.state.lock().unwrap();
                if st.epoch != epoch0 || !st.alive {
                    drop(st);
                    sh.fail_over(vec![lead]);
                    continue;
                }
                st.factoring.remove(&lead.fp);
                match outcome {
                    Ok(factored) => {
                        {
                            let mut col = sh.collector.lock().unwrap();
                            if factored.distributed {
                                col.distributed_factors += 1;
                            }
                            if factored.spd_fallback {
                                col.spd_fallbacks += 1;
                            }
                        }
                        let fp = lead.fp;
                        let route = lead.route.clone();
                        let factor = Arc::new(factored.factor);
                        st.cache.insert(fp, Arc::clone(&factor));
                        let batch = coalesce(&mut st, lead, sh.cfg.max_batch, false, true);
                        st.cache.note_extra_hits(batch.len() as u64 - 1);
                        drop(st);
                        sh.replicate(sid, fp, &factor, &route);
                        run_batch(
                            sh,
                            sid,
                            epoch0,
                            &factor,
                            batch,
                            factor_time,
                            factored.distributed,
                        );
                    }
                    Err(err) => {
                        // every queued request for this fingerprint fails
                        // identically: fail the cohort together
                        let batch = coalesce(&mut st, lead, usize::MAX, false, false);
                        drop(st);
                        sh.collector.lock().unwrap().failed += batch.len() as u64;
                        for member in batch {
                            member.pending.slot.deliver(Err(err.clone()));
                        }
                    }
                }
                shard.work.notify_all();
            }
        }
    }
}

/// Pull every queued request with the leader's fingerprint (up to
/// `max_batch` total) out of the shard queue. Caller holds the lock.
fn coalesce(
    st: &mut ShardState,
    lead: ClusterPending,
    max_batch: usize,
    lead_hit: bool,
    riders_hit: bool,
) -> Vec<Member> {
    let fp = lead.fp;
    let lead_wait = lead.enqueued.elapsed();
    let mut batch = vec![Member {
        pending: lead,
        queue_wait: lead_wait,
        cache_hit: lead_hit,
    }];
    let mut i = 0;
    while batch.len() < max_batch && i < st.queue.len() {
        if st.queue[i].fp == fp {
            let p = st.queue.remove(i).expect("index in bounds");
            batch.push(Member {
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

/// Solve one coalesced batch on shard `sid`: stack the RHS columns, one
/// multi-RHS pass, per-member residual/refinement, then — only if the
/// shard's epoch still matches — account and deliver. On an epoch
/// mismatch (the shard crashed mid-compute) everything computed is
/// discarded and the batch fails over.
fn run_batch(
    sh: &ClusterShared,
    sid: usize,
    epoch0: u64,
    factor: &CachedFactor,
    batch: Vec<Member>,
    factor_time: Duration,
    distributed: bool,
) {
    // honor deadlines of riders that aged out while queued
    let mut active: Vec<Member> = Vec::with_capacity(batch.len());
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
        sh.collector.lock().unwrap().deadline_misses += missed;
    }
    if active.is_empty() {
        return;
    }

    let a = Arc::clone(&active[0].pending.matrix);
    let n = a.rows();
    let batch_size = active.len();
    let k_total: usize = active.iter().map(|m| m.pending.rhs.cols()).sum();

    let solve_start = Instant::now();
    let mut big = Matrix::zeros(n, k_total);
    let mut off = 0;
    for member in &active {
        big.set_block(0, off, &member.pending.rhs);
        off += member.pending.rhs.cols();
    }
    let mut x = Matrix::zeros(n, k_total);
    factor.solve_into(&big, &mut x);
    let mut r = big;
    gemm_auto(&mut r, -1.0, &a, &x, 1.0);
    let solve_time = solve_start.elapsed();

    let mut results: Vec<Result<SolveResponse, SolveError>> = Vec::with_capacity(batch_size);
    let mut refined_count = 0u64;
    let mut off = 0;
    for member in &active {
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
            shard: Some(sid),
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
            sh.refines_shed.fetch_add(1, Ordering::Relaxed);
            Err(SolveError::ToleranceNotMet {
                achieved: residual,
                requested: p.tolerance,
                sweeps: 0,
            })
        } else {
            let refine_start = Instant::now();
            let outcome = exec::refine_solution(
                factor,
                &a,
                &p.rhs,
                p.tolerance,
                sh.cfg.refine_sweeps,
                x.block(0, off, n, k),
                residual,
            );
            stats.refine_time = refine_start.elapsed();
            match outcome {
                Ok((x_ref, res, history)) => {
                    refined_count += 1;
                    stats.refined = true;
                    stats.refine_history = history;
                    Ok(SolveResponse {
                        x: x_ref,
                        residual: res,
                        stats,
                    })
                }
                Err(e) => Err(e),
            }
        };
        results.push(result);
        off += k;
    }

    // fail-point: pre-deliver — the computed answers die with the shard
    if maybe_crash(sh, sid) {
        sh.fail_over(active.into_iter().map(|m| m.pending).collect());
        return;
    }
    // epoch check against kill_shard from another thread: delivering work
    // computed on pre-crash shard memory would be serving partial state
    {
        let st = sh.shards[sid].state.lock().unwrap();
        if st.epoch != epoch0 || !st.alive {
            drop(st);
            sh.fail_over(active.into_iter().map(|m| m.pending).collect());
            return;
        }
    }

    {
        let mut col = sh.collector.lock().unwrap();
        col.record_batch(batch_size);
        col.refined += refined_count;
        for (member, result) in active.iter().zip(&results) {
            match result {
                Ok(_) => {
                    col.completed += 1;
                    col.latencies
                        .push(member.pending.enqueued.elapsed().as_secs_f64());
                }
                Err(_) => col.failed += 1,
            }
        }
    }
    for (member, result) in active.into_iter().zip(results) {
        member.pending.slot.deliver(result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dd_matrix(n: usize, seed: u64) -> Matrix {
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                n as f64 + 1.0 + seed as f64
            } else {
                0.5 / (1.0 + (i + 2 * j + seed as usize) as f64)
            }
        })
    }

    fn quick_cfg(shards: usize, replicas: usize) -> ClusterConfig {
        ClusterConfig {
            shards,
            replicas,
            workers_per_shard: 1,
            panel: 8,
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn multi_tenant_solves_route_and_complete() {
        let cfg = quick_cfg(3, 2);
        let ((), report) = serve_cluster(cfg, |h| {
            for t in 0..6u64 {
                let a = dd_matrix(16, t);
                h.register_matrix(t, a.clone(), MatrixKind::General);
                let b = Matrix::from_fn(16, 2, |i, j| (i + j + t as usize) as f64);
                let resp = h.solve(SolveRequest::new(t, b)).unwrap();
                assert!(resp.residual <= 1e-10);
                let shard = resp.stats.shard.expect("cluster sets the shard");
                let fp = resp.stats.fingerprint.expect("cluster echoes the fp");
                assert!(h.route_of(fp).contains(&shard), "served off-route");
            }
        });
        assert_eq!(report.stats.service.completed, 6);
        assert_eq!(report.stats.live_shards, 3);
        assert!(report.stats.accounted(), "{:?}", report.stats);
    }

    #[test]
    fn second_solve_hits_cache_and_replicas_are_warm() {
        let cfg = quick_cfg(3, 2);
        let ((), report) = serve_cluster(cfg, |h| {
            let a = dd_matrix(16, 9);
            h.register_matrix(1, a, MatrixKind::General);
            let b = Matrix::from_fn(16, 1, |i, _| i as f64 + 1.0);
            let first = h.solve(SolveRequest::new(1, b.clone())).unwrap();
            assert!(!first.stats.cache_hit);
            let second = h.solve(SolveRequest::new(1, b)).unwrap();
            assert!(second.stats.cache_hit, "same content must hit the cache");
            let fp = first.stats.fingerprint.unwrap();
            let route = h.route_of(fp);
            let snap = h.stats();
            for &sid in &route {
                assert!(
                    snap.per_shard[sid].cache_entries >= 1,
                    "replica {sid} was not warmed: {snap:?}"
                );
            }
        });
        assert_eq!(report.stats.replicated_factors, 1);
    }

    #[test]
    fn kill_fails_over_to_warm_replica() {
        let cfg = quick_cfg(3, 2);
        let ((), report) = serve_cluster(cfg, |h| {
            let a = dd_matrix(16, 3);
            let fp = h.register_matrix(1, a, MatrixKind::General);
            let b = Matrix::from_fn(16, 1, |i, _| 1.0 + i as f64);
            h.solve(SolveRequest::new(1, b.clone())).unwrap();
            let primary = h.route_of(fp)[0];
            assert!(h.kill_shard(primary));
            assert!(!h.kill_shard(primary), "double kill reports dead");
            assert_eq!(h.live_shards(), 2);
            let resp = h.solve(SolveRequest::new(1, b)).unwrap();
            assert_ne!(resp.stats.shard, Some(primary));
            assert!(resp.stats.cache_hit, "replica should have been warm");
            assert_eq!(resp.stats.fingerprint, Some(fp));
        });
        assert_eq!(report.stats.crashes, 1);
        assert!(report.stats.accounted());
    }

    #[test]
    fn all_replicas_dead_is_a_typed_error_not_a_hang() {
        let cfg = quick_cfg(2, 2);
        serve_cluster(cfg, |h| {
            let a = dd_matrix(12, 1);
            h.register_matrix(1, a, MatrixKind::General);
            h.kill_shard(0);
            h.kill_shard(1);
            let b = Matrix::from_fn(12, 1, |i, _| i as f64);
            let err = h.solve(SolveRequest::new(1, b)).unwrap_err();
            assert_eq!(err, SolveError::NoLiveReplica { live: 0, shards: 2 });
        });
    }

    #[test]
    fn revive_rebalances_primary_keyspace() {
        let cfg = quick_cfg(3, 2);
        let ((), report) = serve_cluster(cfg, |h| {
            let a = dd_matrix(16, 5);
            let fp = h.register_matrix(1, a, MatrixKind::General);
            let b = Matrix::from_fn(16, 1, |i, _| 2.0 + i as f64);
            h.solve(SolveRequest::new(1, b.clone())).unwrap();
            let primary = h.route_of(fp)[0];
            h.kill_shard(primary);
            // replica keeps serving while the primary is down
            assert!(
                h.solve(SolveRequest::new(1, b.clone()))
                    .unwrap()
                    .stats
                    .cache_hit
            );
            assert!(h.revive_shard(primary));
            assert!(!h.revive_shard(primary), "double revive reports alive");
            let snap = h.stats();
            assert!(
                snap.per_shard[primary].cache_entries >= 1,
                "rebalance did not warm the revived primary: {snap:?}"
            );
        });
        assert!(report.stats.rebalanced_factors >= 1);
        assert_eq!(report.stats.revives, 1);
    }

    #[test]
    fn shed_tiers_reject_in_order() {
        // a cluster whose queues are saturated by construction: shed
        // decisions are driven purely by the pressure arithmetic, so pin
        // it with zero-capacity thresholds
        let cfg = ClusterConfig {
            shards: 2,
            replicas: 1,
            shed: ShedPolicy {
                refine_at: 0.0,
                cold_miss_at: 0.0,
                reject_at: 2.0,
            },
            ..quick_cfg(2, 1)
        };
        let ((), report) = serve_cluster(cfg, |h| {
            let a = dd_matrix(12, 2);
            h.register_matrix(1, a, MatrixKind::General);
            let b = Matrix::from_fn(12, 1, |i, _| i as f64);
            // pressure 0 == cold_miss_at: the very first request is cold
            // and gets shed
            let err = h.solve(SolveRequest::new(1, b)).unwrap_err();
            assert!(matches!(err, SolveError::ShedColdMiss { .. }), "{err}");
            assert!(err.is_retryable());
        });
        assert_eq!(report.stats.shed_cold_miss, 1);
        assert_eq!(report.stats.service.submitted, 0);
    }

    #[test]
    fn unknown_matrix_and_shape_mismatch_still_typed() {
        serve_cluster(quick_cfg(2, 1), |h| {
            let err = h
                .solve(SolveRequest::new(42, Matrix::zeros(4, 1)))
                .unwrap_err();
            assert_eq!(err, SolveError::UnknownMatrix { matrix_id: 42 });
            h.register_matrix(1, dd_matrix(8, 0), MatrixKind::General);
            let err = h
                .solve(SolveRequest::new(1, Matrix::zeros(5, 1)))
                .unwrap_err();
            assert!(matches!(err, SolveError::ShapeMismatch { .. }));
        });
    }
}
