//! Service-level statistics: the observability snapshot.

use std::fmt;
use std::time::Duration;

/// Aggregated view of everything the service did, taken at shutdown (or on
/// demand through [`crate::SolverHandle::stats`]).
#[derive(Clone, Debug, Default)]
pub struct ServiceStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests answered with `Ok`.
    pub completed: u64,
    /// Requests rejected at admission ([`crate::SolveError::Overloaded`]).
    pub rejected_overloaded: u64,
    /// Requests abandoned past their queue-wait deadline.
    pub deadline_misses: u64,
    /// Requests answered with any other error.
    pub failed: u64,
    /// Completed requests that degraded to iterative refinement.
    pub refined: u64,
    /// SPD-tagged matrices whose Cholesky failed and fell back to LU.
    pub spd_fallbacks: u64,
    /// Cold factorizations routed through `conflux::factorize_threaded`.
    pub distributed_factors: u64,
    /// Factor-cache hits (coalesced batch members count).
    pub cache_hits: u64,
    /// Factor-cache misses.
    pub cache_misses: u64,
    /// Factor-cache evictions.
    pub cache_evictions: u64,
    /// Resident factor bytes at snapshot time.
    pub cache_bytes: usize,
    /// Resident factor entries at snapshot time.
    pub cache_entries: usize,
    /// Multi-RHS batches executed (batch of one counts).
    pub batches: u64,
    /// Requests served through those batches.
    pub batched_requests: u64,
    /// Largest batch coalesced.
    pub max_batch: usize,
    /// Median end-to-end latency of completed requests.
    pub p50_latency: Duration,
    /// 99th-percentile end-to-end latency.
    pub p99_latency: Duration,
    /// Mean end-to-end latency.
    pub mean_latency: Duration,
    /// Worst end-to-end latency.
    pub max_latency: Duration,
    /// Completed requests per second over the service lifetime.
    pub throughput_rps: f64,
    /// Service lifetime in seconds (serve-entry to snapshot).
    pub elapsed_s: f64,
}

impl ServiceStats {
    /// Cache hit fraction (0.0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Mean requests per executed batch (1.0 = no coalescing happened).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_requests as f64 / self.batches as f64
        }
    }
}

impl fmt::Display for ServiceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "requests: {} submitted, {} completed, {} overloaded, {} deadline, {} failed, {} refined",
            self.submitted,
            self.completed,
            self.rejected_overloaded,
            self.deadline_misses,
            self.failed,
            self.refined
        )?;
        writeln!(
            f,
            "cache:    {:.1}% hit ({} hit / {} miss), {} evictions, {} entries, {:.1} MiB resident",
            100.0 * self.hit_rate(),
            self.cache_hits,
            self.cache_misses,
            self.cache_evictions,
            self.cache_entries,
            self.cache_bytes as f64 / (1024.0 * 1024.0)
        )?;
        writeln!(
            f,
            "batching: {} batches for {} requests (mean {:.2}, max {}), {} distributed factors, {} spd fallbacks",
            self.batches,
            self.batched_requests,
            self.mean_batch(),
            self.max_batch,
            self.distributed_factors,
            self.spd_fallbacks
        )?;
        writeln!(
            f,
            "latency:  p50 {:.3} ms, p99 {:.3} ms, mean {:.3} ms, max {:.3} ms",
            self.p50_latency.as_secs_f64() * 1e3,
            self.p99_latency.as_secs_f64() * 1e3,
            self.mean_latency.as_secs_f64() * 1e3,
            self.max_latency.as_secs_f64() * 1e3
        )?;
        write!(
            f,
            "rate:     {:.1} req/s over {:.3} s",
            self.throughput_rps, self.elapsed_s
        )
    }
}

/// Point-in-time view of one shard inside a [`ClusterStats`] snapshot.
#[derive(Clone, Debug)]
pub struct ShardSnapshot {
    /// Shard index.
    pub shard: usize,
    /// Is the shard up?
    pub alive: bool,
    /// Requests waiting in this shard's queue.
    pub queue_depth: usize,
    /// Resident factor entries.
    pub cache_entries: usize,
    /// Resident factor bytes.
    pub cache_bytes: usize,
    /// Cumulative cache hits (survives crashes; resident entries do not).
    pub cache_hits: u64,
    /// Cumulative cache misses.
    pub cache_misses: u64,
}

/// Aggregated view of everything a [`crate::cluster::serve_cluster`] run
/// did: the familiar [`ServiceStats`] rollup plus the cluster-only
/// counters (crashes, failovers, replication, shedding) and a per-shard
/// breakdown.
#[derive(Clone, Debug)]
pub struct ClusterStats {
    /// Service-level rollup across every shard (cache fields are summed).
    pub service: ServiceStats,
    /// Shards configured.
    pub shards: usize,
    /// Replication factor (distinct shards per fingerprint).
    pub replicas: usize,
    /// Shards alive at snapshot time.
    pub live_shards: usize,
    /// Shard crashes (scheduled fail-points plus explicit kills).
    pub crashes: u64,
    /// Shard revivals.
    pub revives: u64,
    /// Ticket re-routes after a crash (per orphaned request, per hop).
    pub failovers: u64,
    /// Hot factors copied to replicas at insert time.
    pub replicated_factors: u64,
    /// Factors copied back to a revived primary by the rebalance pass.
    pub rebalanced_factors: u64,
    /// Requests shed at admission because they needed a cold
    /// factorization under pressure.
    pub shed_cold_miss: u64,
    /// Requests that missed tolerance because their refinement was shed.
    pub refines_shed: u64,
    /// Submissions rejected because no replica was alive.
    pub unavailable: u64,
    /// One snapshot per shard.
    pub per_shard: Vec<ShardSnapshot>,
}

impl ClusterStats {
    /// The zero-lost-ticket invariant: every admitted request resolved to
    /// a completion, a typed failure, or a deadline miss. False means a
    /// ticket was silently dropped somewhere.
    pub fn accounted(&self) -> bool {
        self.service.completed + self.service.failed + self.service.deadline_misses
            == self.service.submitted
    }
}

impl fmt::Display for ClusterStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.service)?;
        writeln!(
            f,
            "cluster:  {}/{} shards up (r={}), {} crashes, {} revives, {} failovers",
            self.live_shards,
            self.shards,
            self.replicas,
            self.crashes,
            self.revives,
            self.failovers
        )?;
        writeln!(
            f,
            "replicas: {} hot-replicated, {} rebalanced on revive",
            self.replicated_factors, self.rebalanced_factors
        )?;
        write!(
            f,
            "shedding: {} cold-miss shed, {} refinements shed, {} unavailable",
            self.shed_cold_miss, self.refines_shed, self.unavailable
        )?;
        for s in &self.per_shard {
            write!(
                f,
                "\nshard {}:  {}, {} queued, {} factors ({:.1} MiB), {} hit / {} miss",
                s.shard,
                if s.alive { "up" } else { "DOWN" },
                s.queue_depth,
                s.cache_entries,
                s.cache_bytes as f64 / (1024.0 * 1024.0),
                s.cache_hits,
                s.cache_misses
            )?;
        }
        Ok(())
    }
}

/// Running collector each shard mutates under its state lock; snapshots
/// sum the shards and compute the percentile fields.
#[derive(Debug, Default)]
pub(crate) struct Collector {
    pub submitted: u64,
    pub completed: u64,
    pub rejected_overloaded: u64,
    pub deadline_misses: u64,
    pub failed: u64,
    pub refined: u64,
    pub spd_fallbacks: u64,
    pub distributed_factors: u64,
    pub batches: u64,
    pub batched_requests: u64,
    pub max_batch: usize,
    /// End-to-end seconds of each completed request.
    pub latencies: Vec<f64>,
}

impl Collector {
    pub fn record_batch(&mut self, size: usize) {
        self.batches += 1;
        self.batched_requests += size as u64;
        self.max_batch = self.max_batch.max(size);
    }

    /// Add another shard's counts and latencies into this one.
    pub fn absorb(&mut self, other: &Collector) {
        self.submitted += other.submitted;
        self.completed += other.completed;
        self.rejected_overloaded += other.rejected_overloaded;
        self.deadline_misses += other.deadline_misses;
        self.failed += other.failed;
        self.refined += other.refined;
        self.spd_fallbacks += other.spd_fallbacks;
        self.distributed_factors += other.distributed_factors;
        self.batches += other.batches;
        self.batched_requests += other.batched_requests;
        self.max_batch = self.max_batch.max(other.max_batch);
        self.latencies.extend_from_slice(&other.latencies);
    }

    /// Consumes the collector: its latencies are sorted in place.
    pub fn snapshot(mut self, elapsed_s: f64) -> ServiceStats {
        let mut sorted = std::mem::take(&mut self.latencies);
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let pct = |q: f64| -> Duration {
            if sorted.is_empty() {
                return Duration::ZERO;
            }
            let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
            Duration::from_secs_f64(sorted[idx])
        };
        let mean = if sorted.is_empty() {
            Duration::ZERO
        } else {
            Duration::from_secs_f64(sorted.iter().sum::<f64>() / sorted.len() as f64)
        };
        ServiceStats {
            submitted: self.submitted,
            completed: self.completed,
            rejected_overloaded: self.rejected_overloaded,
            deadline_misses: self.deadline_misses,
            failed: self.failed,
            refined: self.refined,
            spd_fallbacks: self.spd_fallbacks,
            distributed_factors: self.distributed_factors,
            cache_hits: 0,   // filled by the service from the cache
            cache_misses: 0, // filled by the service
            cache_evictions: 0,
            cache_bytes: 0,
            cache_entries: 0,
            batches: self.batches,
            batched_requests: self.batched_requests,
            max_batch: self.max_batch,
            p50_latency: pct(0.50),
            p99_latency: pct(0.99),
            mean_latency: mean,
            max_latency: pct(1.0),
            throughput_rps: if elapsed_s > 0.0 {
                self.completed as f64 / elapsed_s
            } else {
                0.0
            },
            elapsed_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_from_latencies() {
        let c = Collector {
            completed: 100,
            latencies: (1..=100).map(|i| i as f64 / 1000.0).collect(),
            ..Collector::default()
        };
        let s = c.snapshot(2.0);
        assert!((s.p50_latency.as_secs_f64() - 0.050).abs() < 2e-3);
        assert!((s.p99_latency.as_secs_f64() - 0.099).abs() < 2e-3);
        assert!((s.max_latency.as_secs_f64() - 0.100).abs() < 1e-9);
        assert!((s.throughput_rps - 50.0).abs() < 1e-9);
    }

    #[test]
    fn empty_collector_snapshot_is_zero() {
        let s = Collector::default().snapshot(0.0);
        assert_eq!(s.p50_latency, Duration::ZERO);
        assert_eq!(s.throughput_rps, 0.0);
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.mean_batch(), 0.0);
    }

    #[test]
    fn cluster_accounting_and_display() {
        let service = ServiceStats {
            submitted: 10,
            completed: 7,
            failed: 2,
            deadline_misses: 1,
            ..ServiceStats::default()
        };
        let mut cs = ClusterStats {
            service,
            shards: 4,
            replicas: 2,
            live_shards: 3,
            crashes: 1,
            revives: 1,
            failovers: 5,
            replicated_factors: 3,
            rebalanced_factors: 2,
            shed_cold_miss: 4,
            refines_shed: 1,
            unavailable: 0,
            per_shard: vec![ShardSnapshot {
                shard: 0,
                alive: false,
                queue_depth: 0,
                cache_entries: 0,
                cache_bytes: 0,
                cache_hits: 9,
                cache_misses: 3,
            }],
        };
        assert!(cs.accounted());
        let text = cs.to_string();
        for needle in ["cluster:", "replicas:", "shedding:", "shard 0:", "DOWN"] {
            assert!(text.contains(needle), "missing {needle}: {text}");
        }
        cs.service.completed -= 1; // one ticket vanished
        assert!(!cs.accounted());
    }

    #[test]
    fn display_mentions_every_section() {
        let mut c = Collector {
            completed: 4,
            latencies: vec![0.001; 4],
            ..Collector::default()
        };
        c.record_batch(4);
        let s = c.snapshot(1.0);
        let text = s.to_string();
        for needle in ["requests:", "cache:", "batching:", "latency:", "rate:"] {
            assert!(text.contains(needle), "missing {needle}: {text}");
        }
    }
}
