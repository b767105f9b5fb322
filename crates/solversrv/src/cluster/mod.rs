//! Sharded, replicated serving with crash-tolerant failover.
//!
//! [`serve_cluster`] runs the one serving engine of [`crate::service`]
//! with `shards` shard services — each with its own bounded queue, factor
//! cache, worker pool and copy of the registry — behind one
//! [`SolverHandle`]. A consistent-hash ring ([`ring::HashRing`]) maps
//! every matrix fingerprint to a preference order of `replicas` distinct
//! shards; requests are admitted at the first live replica with queue
//! room, and fresh factors (dense factors and sparse preconditioner
//! setups alike) are copied to the rest of the replica set at insert time
//! so a cache-warm shard crash degrades to a replica hit, not a
//! re-factorization. [`crate::serve`] is the same engine with one shard.
//!
//! **Failover protocol.** A crash (scheduled through
//! [`simnet::FaultPlan`] fail-points, or [`SolverHandle::kill_shard`])
//! atomically, under the shard lock: marks the shard dead, bumps its
//! *epoch*, wipes its cache and single-flight set, and takes every queued
//! request. The taken orphans are re-enqueued at the next live replica
//! with `failovers + 1` — admission is bypassed because the ticket was
//! already accepted; admitted work is never silently dropped. Workers
//! re-check the shard epoch at every fail-point (dequeue, pre-factor,
//! post-factor, pre-deliver): on a mismatch they discard what they
//! computed (the shard's memory died with it) and fail their own batch
//! over themselves. A request whose entire replica set is dead resolves
//! to the typed [`SolveError::NoLiveReplica`] — it never hangs.
//!
//! **Staleness.** Factor-cache keys are content fingerprints and every
//! response echoes the fingerprint it was solved under
//! ([`crate::RequestStats::fingerprint`]), so a failed-over request can
//! prove it was answered against exactly the bytes its tenant registered —
//! the verifier's `cluster-zero-stale` oracle checks this.
//!
//! **Load shedding.** With more than one shard, pressure (total queued /
//! live capacity) degrades admission in tiers before rejecting — see
//! [`ShedPolicy`]. A one-shard service never sheds.
//!
//! **Revival.** [`simnet::ReviveEvent`]s (consumed against the routed
//! submission clock) or [`SolverHandle::revive_shard`] bring a shard back
//! empty; a rebalance pass then copies factors whose ring *primary* is the
//! revived shard from the replicas that kept them warm.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use simnet::{FaultPlan, Trace};

use crate::api::SolveError;
use crate::cache::CachedFactor;
use crate::fingerprint::Fingerprint;
use crate::service::{Pending, ServiceConfig, Shared, SolverHandle, State};
use crate::stats::{ClusterStats, Collector, ShardSnapshot};

pub mod ring;

pub use ring::HashRing;

/// Pressure thresholds (fraction of live queue capacity occupied) at
/// which a multi-shard cluster sheds work, cheapest degradation first.
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
    /// Every shard's service knobs: `workers` per shard, and a per-shard
    /// `max_queue` (the cluster's capacity is `live_shards × max_queue`)
    /// and cache budget.
    pub service: ServiceConfig,
    /// Load-shedding thresholds (unused by a one-shard cluster).
    pub shed: ShedPolicy,
    /// Seeded chaos schedule: crash events fire at per-shard fail-point
    /// steps (dequeue / pre-factor / post-factor / pre-deliver), revive
    /// events fire against the routed submission count.
    pub faults: FaultPlan,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            shards: 4,
            replicas: 2,
            service: ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
            shed: ShedPolicy::default(),
            faults: FaultPlan::none(),
        }
    }
}

/// What [`serve_cluster`] hands back after the scope closes.
#[derive(Debug)]
pub struct ClusterReport {
    /// Final aggregated statistics.
    pub stats: ClusterStats,
    /// Wall-clock spans of every shard worker's request phases (when
    /// `service.trace` was on); worker `w` of shard `s` is rank
    /// `s × workers + w`.
    pub trace: Option<Trace>,
}

/// Cluster-only counters (see [`ClusterStats`]).
#[derive(Default)]
pub(crate) struct Counters {
    crashes: AtomicU64,
    revives: AtomicU64,
    failovers: AtomicU64,
    replicated: AtomicU64,
    rebalanced: AtomicU64,
    shed_cold_miss: AtomicU64,
    pub(crate) refines_shed: AtomicU64,
    unavailable: AtomicU64,
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Run a cluster: spawn every shard's worker pool, hand the client
/// closure a [`SolverHandle`], and on return drain the queues, join the
/// workers and report.
pub fn serve_cluster<R>(
    cfg: ClusterConfig,
    f: impl FnOnce(&SolverHandle) -> R,
) -> (R, ClusterReport) {
    let (r, stats, trace) = Shared::new(cfg).run(f);
    (r, ClusterReport { stats, trace })
}

impl SolverHandle {
    /// The ring preference order for a fingerprint: `route_of(fp)[0]` is
    /// its primary shard, the rest its replica set.
    pub fn route_of(&self, fp: Fingerprint) -> Vec<usize> {
        self.shared.ring.route(fp, self.shared.replicas)
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
        bump(&sh.counters.crashes);
        sh.fail_over(shard, orphans, Vec::new());
        true
    }

    /// Bring a dead shard back (empty) and rebalance: factors whose ring
    /// primary is this shard are copied over from live replicas still
    /// holding them. Returns `false` if the shard was already alive.
    pub fn revive_shard(&self, shard: usize) -> bool {
        self.shared.revive(shard)
    }

    /// Point-in-time statistics snapshot with the cluster counters and a
    /// per-shard breakdown.
    pub fn cluster_stats(&self) -> ClusterStats {
        self.shared.snapshot()
    }
}

/// Kill the shard whose state lock the caller holds: dead, epoch bumped,
/// memory wiped, queue taken. The caller must fail the returned orphans
/// over *after* releasing the lock.
fn crash_locked(st: &mut State) -> Vec<Pending> {
    st.alive = false;
    st.epoch += 1;
    st.factoring.clear();
    st.cache.clear();
    st.queue.drain(..).collect()
}

impl Shared {
    pub(crate) fn snapshot(&self) -> ClusterStats {
        let elapsed_s = self.epoch.elapsed().as_secs_f64();
        let mut total = Collector::default();
        let mut evictions = 0;
        let mut per_shard = Vec::with_capacity(self.shards.len());
        for (sid, shard) in self.shards.iter().enumerate() {
            let st = shard.state.lock().unwrap();
            total.absorb(&st.collector);
            evictions += st.cache.evictions;
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
        let mut service = total.snapshot(elapsed_s);
        service.cache_evictions = evictions;
        for s in &per_shard {
            service.cache_hits += s.cache_hits;
            service.cache_misses += s.cache_misses;
            service.cache_bytes += s.cache_bytes;
            service.cache_entries += s.cache_entries;
        }
        let c = &self.counters;
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        ClusterStats {
            service,
            shards: self.shards.len(),
            replicas: self.replicas,
            live_shards: per_shard.iter().filter(|s| s.alive).count(),
            crashes: load(&c.crashes),
            revives: load(&c.revives),
            failovers: load(&c.failovers),
            replicated_factors: load(&c.replicated),
            rebalanced_factors: load(&c.rebalanced),
            shed_cold_miss: load(&c.shed_cold_miss),
            refines_shed: load(&c.refines_shed),
            unavailable: load(&c.unavailable),
            per_shard,
        }
    }

    fn live_count(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| s.state.lock().unwrap().alive)
            .count()
    }

    /// Admit `p` at the first live replica on its ring route with queue
    /// room, after the shedding tiers: the multi-shard (or dead-shard)
    /// half of [`SolverHandle::submit`].
    pub(crate) fn route(&self, mut p: Pending) -> Result<(), SolveError> {
        let clock = self.submitted_total.fetch_add(1, Ordering::SeqCst) as usize + 1;
        self.fire_due_revives(clock);

        let route = self.ring.route(p.fp, self.replicas);
        // one pass over all shards: cluster pressure, liveness, and
        // whether any live replica already holds (or is computing) the
        // factor this request needs
        let mut total_queued = 0usize;
        let mut live = 0usize;
        let mut live_route = 0usize;
        let mut route_warm = false;
        for (sid, shard) in self.shards.iter().enumerate() {
            let st = shard.state.lock().unwrap();
            if !st.alive {
                continue;
            }
            live += 1;
            total_queued += st.queue.len();
            if route.contains(&sid) {
                live_route += 1;
                route_warm |= st.cache.contains(p.fp) || st.factoring.contains(&p.fp);
            }
        }
        let shards = self.shards.len();
        if live_route == 0 {
            bump(&self.counters.unavailable);
            return Err(SolveError::NoLiveReplica { live, shards });
        }
        let overloaded = || {
            let mut st = self.shards[route[0]].state.lock().unwrap();
            st.collector.rejected_overloaded += 1;
            Err(SolveError::Overloaded {
                depth: total_queued,
            })
        };
        let pressure = total_queued as f64 / (live * self.cfg.max_queue) as f64;
        if pressure >= self.shed.reject_at {
            return overloaded();
        }
        if pressure >= self.shed.cold_miss_at && !route_warm {
            bump(&self.counters.shed_cold_miss);
            return Err(SolveError::ShedColdMiss {
                depth: total_queued,
            });
        }
        p.no_refine = pressure >= self.shed.refine_at;

        for &sid in &route {
            let mut st = self.shards[sid].state.lock().unwrap();
            if st.alive && st.queue.len() < self.cfg.max_queue {
                st.collector.submitted += 1;
                st.queue.push_back(p);
                drop(st);
                self.shards[sid].work.notify_one();
                return Ok(());
            }
        }
        overloaded()
    }

    /// A worker fail-point, run under shard `sid`'s lock `st`: tick the
    /// shard's fail-point clock and fire a crash that has come due. Returns
    /// the requests the shard lost (its queue, on a crash here) when the
    /// shard has died since the worker read `epoch`, or `None` while the
    /// worker's view of the shard is still valid.
    pub(crate) fn fail_point(
        &self,
        sid: usize,
        st: &mut State,
        epoch: u64,
    ) -> Option<Vec<Pending>> {
        if let Some(&due) = st.crash_at.front() {
            st.steps += 1;
            if st.steps >= due {
                // consume the event even when already dead, so a revive
                // does not immediately re-fire a crash that came due
                // mid-outage
                st.crash_at.pop_front();
                if st.alive {
                    bump(&self.counters.crashes);
                    self.shards[sid].work.notify_all();
                    return Some(crash_locked(st));
                }
            }
        }
        (st.epoch != epoch || !st.alive).then(Vec::new)
    }

    /// Re-enqueue requests shard `from` lost — its queue orphans, then the
    /// ones a worker held — at their next live replica. Admission is
    /// bypassed: these tickets were already accepted and must resolve.
    /// With no live replica left they resolve to the typed
    /// [`SolveError::NoLiveReplica`].
    pub(crate) fn fail_over(&self, from: usize, orphans: Vec<Pending>, held: Vec<Pending>) {
        for mut p in orphans.into_iter().chain(held) {
            p.failovers += 1;
            bump(&self.counters.failovers);
            let fp = p.fp;
            let mut pending = Some(p);
            for sid in self.ring.route(fp, self.replicas) {
                let mut st = self.shards[sid].state.lock().unwrap();
                if st.alive {
                    st.queue.push_back(pending.take().expect("not yet placed"));
                    drop(st);
                    self.shards[sid].work.notify_one();
                    break;
                }
            }
            if let Some(p) = pending {
                let live = self.live_count();
                self.shards[from].state.lock().unwrap().collector.failed += 1;
                p.slot.deliver(Err(SolveError::NoLiveReplica {
                    live,
                    shards: self.shards.len(),
                }));
            }
        }
    }

    fn fire_due_revives(&self, clock: usize) {
        for (ev, fired) in &self.revives {
            if clock >= ev.at_step && !fired.swap(true, Ordering::SeqCst) {
                self.revive(ev.rank);
            }
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
        bump(&self.counters.revives);
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
                if self.ring.route(fp, self.replicas)[0] == sid
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
                    bump(&self.counters.rebalanced);
                }
            }
        }
        drop(st);
        self.shards[sid].work.notify_all();
        true
    }

    /// Share a freshly factored entry with the rest of its replica set.
    pub(crate) fn replicate(&self, from: usize, fp: Fingerprint, factor: &Arc<CachedFactor>) {
        if self.replicas < 2 {
            return;
        }
        for t in self.ring.route(fp, self.replicas) {
            if t == from {
                continue;
            }
            let mut st = self.shards[t].state.lock().unwrap();
            if st.alive && !st.cache.contains(fp) {
                st.cache.insert(fp, Arc::clone(factor));
                bump(&self.counters.replicated);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{MatrixKind, SolveRequest};
    use denselin::Matrix;

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
            service: ServiceConfig {
                workers: 1,
                panel: 8,
                ..ServiceConfig::default()
            },
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
            let snap = h.cluster_stats();
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
            let snap = h.cluster_stats();
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
