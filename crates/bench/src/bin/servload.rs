//! `servload` — load generator for the `solversrv` factor-and-solve
//! service.
//!
//! Two experiments, one JSON artifact (`BENCH_service.json`):
//!
//! * **hot** — closed-loop clients hammering one cached factor at
//!   concurrency 1 vs 8. Concurrent same-factor requests coalesce into
//!   multi-RHS batches, so the factor streams from memory once per batch
//!   instead of once per request: the throughput ratio is the batching
//!   win (`--check` gates it at ≥ 2x).
//! * **zipf** — a multi-tenant popularity-skewed workload (Zipf `s = 1.1`
//!   over many matrices) against a deliberately undersized factor cache;
//!   the steady-state cache hit rate is the amortization the service
//!   exists to deliver (`--check` gates it at > 0.5).
//! * **cluster** (`--cluster`) — the chaos experiment: a sharded,
//!   replicated cluster under Zipf steady-state traffic followed by a
//!   flash crowd, while a `simnet::FaultPlan` kills the hottest tenant's
//!   primary shard mid-run and revives it later. Measures availability,
//!   client-side p99/p999 per phase, and the zero-lost-ticket /
//!   zero-stale-response invariants (`--check` gates all of them).
//!
//! Usage: `cargo run --release -p conflux-bench --bin servload --
//! [--quick] [--check] [--cluster] [--out PATH]`

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use denselin::Matrix;
use denselin::SplitMix64;
use simnet::{FaultPlan, RetryPolicy};
use solversrv::{
    serve, serve_cluster, solve_with_retry, solve_with_retry_seeded, ClusterConfig, Fingerprint,
    HashRing, MatrixKind, ServiceConfig, SolveRequest,
};

struct HotResult {
    concurrency: usize,
    requests: u64,
    rps: f64,
    mean_batch: f64,
    max_batch: usize,
    p99_ms: f64,
}

/// Client-side latency summary for one phase of the cluster experiment.
struct PhaseResult {
    requests: u64,
    ok: u64,
    failed: u64,
    rps: f64,
    p50_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
}

struct ClusterOutcome {
    shards: usize,
    replicas: usize,
    tenants: usize,
    n: usize,
    victim: usize,
    steady: PhaseResult,
    flash: PhaseResult,
    availability: f64,
    p99_ratio: f64,
    crashes: u64,
    revives: u64,
    failovers: u64,
    replicated: u64,
    rebalanced: u64,
    lost_tickets: i64,
    stale_responses: u64,
    hit_rate: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let cluster = args.iter().any(|a| a == "--cluster");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| format!("{}/../../BENCH_service.json", env!("CARGO_MANIFEST_DIR")));

    // ---- hot: batching win on one cached factor ----
    let hot_n = if quick { 384 } else { 768 };
    let per_client = if quick { 40 } else { 60 };
    println!("# servload hot: n={hot_n}, {per_client} requests/client, 2 workers");
    let hot: Vec<HotResult> = [1usize, 8]
        .iter()
        .map(|&conc| hot_run(hot_n, conc, per_client))
        .collect();
    let batching_speedup = hot[1].rps / hot[0].rps;
    println!(
        "# batching speedup: {batching_speedup:.2}x (conc 8 {:.0} rps vs conc 1 {:.0} rps, mean batch {:.2})",
        hot[1].rps, hot[0].rps, hot[1].mean_batch
    );

    // ---- zipf: cache hit rate under popularity skew ----
    let zipf_s = 1.1;
    let tenants = if quick { 16 } else { 32 };
    let zipf_n = 192;
    let zipf_per_client = if quick { 25 } else { 50 };
    let zipf_clients = 8;
    println!(
        "# servload zipf: s={zipf_s}, {tenants} matrices of n={zipf_n}, {zipf_clients}x{zipf_per_client} requests"
    );
    let (hit_rate, evictions, zipf_rps, zipf_requests) =
        zipf_run(zipf_s, tenants, zipf_n, zipf_clients, zipf_per_client);
    println!(
        "# zipf hit rate: {:.1}% ({} evictions, {:.0} rps)",
        100.0 * hit_rate,
        evictions,
        zipf_rps
    );

    // ---- cluster: sharded chaos experiment (opt-in: --cluster) ----
    let co = if cluster {
        let co = cluster_run(quick);
        println!(
            "# cluster availability: {:.4} ({} crash, {} revive, {} failovers, p99 ratio {:.2}x)",
            co.availability, co.crashes, co.revives, co.failovers, co.p99_ratio
        );
        Some(co)
    } else {
        None
    };

    // ---- render BENCH_service.json (hand-rolled: no serde in-tree) ----
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": \"bench_service/v2\",");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"hot\": {{");
    let _ = writeln!(json, "    \"n\": {hot_n},");
    let _ = writeln!(json, "    \"batching_speedup\": {batching_speedup:.3},");
    json.push_str("    \"runs\": [\n");
    for (i, r) in hot.iter().enumerate() {
        let comma = if i + 1 < hot.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "      {{ \"concurrency\": {}, \"requests\": {}, \"rps\": {:.1}, \"mean_batch\": {:.3}, \"max_batch\": {}, \"p99_ms\": {:.3} }}{comma}",
            r.concurrency, r.requests, r.rps, r.mean_batch, r.max_batch, r.p99_ms
        );
    }
    json.push_str("    ]\n  },\n");
    let _ = writeln!(json, "  \"zipf\": {{");
    let _ = writeln!(json, "    \"s\": {zipf_s},");
    let _ = writeln!(json, "    \"matrices\": {tenants},");
    let _ = writeln!(json, "    \"n\": {zipf_n},");
    let _ = writeln!(json, "    \"requests\": {zipf_requests},");
    let _ = writeln!(json, "    \"hit_rate\": {hit_rate:.4},");
    let _ = writeln!(json, "    \"evictions\": {evictions},");
    let _ = writeln!(json, "    \"rps\": {zipf_rps:.1}");
    match &co {
        None => json.push_str("  },\n  \"cluster\": null\n}\n"),
        Some(co) => {
            json.push_str("  },\n");
            let _ = writeln!(json, "  \"cluster\": {{");
            let _ = writeln!(json, "    \"shards\": {},", co.shards);
            let _ = writeln!(json, "    \"replicas\": {},", co.replicas);
            let _ = writeln!(json, "    \"tenants\": {},", co.tenants);
            let _ = writeln!(json, "    \"n\": {},", co.n);
            let _ = writeln!(json, "    \"victim_shard\": {},", co.victim);
            for (name, p) in [("steady", &co.steady), ("flash", &co.flash)] {
                let _ = writeln!(
                    json,
                    "    \"{name}\": {{ \"requests\": {}, \"ok\": {}, \"failed\": {}, \"rps\": {:.1}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"p999_ms\": {:.3} }},",
                    p.requests, p.ok, p.failed, p.rps, p.p50_ms, p.p99_ms, p.p999_ms
                );
            }
            let _ = writeln!(json, "    \"availability\": {:.6},", co.availability);
            let _ = writeln!(json, "    \"p99_ratio\": {:.3},", co.p99_ratio);
            let _ = writeln!(json, "    \"crashes\": {},", co.crashes);
            let _ = writeln!(json, "    \"revives\": {},", co.revives);
            let _ = writeln!(json, "    \"failovers\": {},", co.failovers);
            let _ = writeln!(json, "    \"replicated_factors\": {},", co.replicated);
            let _ = writeln!(json, "    \"rebalanced_factors\": {},", co.rebalanced);
            let _ = writeln!(json, "    \"lost_tickets\": {},", co.lost_tickets);
            let _ = writeln!(json, "    \"stale_responses\": {},", co.stale_responses);
            let _ = writeln!(json, "    \"hit_rate\": {:.4}", co.hit_rate);
            json.push_str("  }\n}\n");
        }
    }
    std::fs::write(&out_path, &json).expect("write BENCH_service.json");
    println!("# wrote {out_path}");

    if check {
        if batching_speedup >= 2.0 {
            println!("# check OK: batching gives {batching_speedup:.2}x at concurrency 8");
        } else {
            eprintln!("# check FAILED: batching speedup {batching_speedup:.2}x < 2.0x");
            std::process::exit(1);
        }
        if hit_rate > 0.5 {
            println!("# check OK: zipf hit rate {:.1}% > 50%", 100.0 * hit_rate);
        } else {
            eprintln!(
                "# check FAILED: zipf hit rate {:.1}% <= 50%",
                100.0 * hit_rate
            );
            std::process::exit(1);
        }
        if let Some(co) = &co {
            let mut ok = true;
            let mut gate = |pass: bool, name: &str, detail: String| {
                if pass {
                    println!("# check OK: {name} ({detail})");
                } else {
                    eprintln!("# check FAILED: {name} ({detail})");
                    ok = false;
                }
            };
            gate(
                co.lost_tickets == 0,
                "zero lost tickets",
                format!("{} unaccounted", co.lost_tickets),
            );
            gate(
                co.stale_responses == 0,
                "zero stale responses",
                format!("{} fingerprint mismatches", co.stale_responses),
            );
            gate(
                co.availability >= 0.99,
                "availability >= 99%",
                format!("{:.4}", co.availability),
            );
            gate(
                co.p99_ratio <= 3.0,
                "post-failover p99 <= 3x steady-state",
                format!("{:.2}x", co.p99_ratio),
            );
            gate(
                co.crashes >= 1 && co.revives >= 1,
                "chaos actually fired",
                format!("{} crashes, {} revives", co.crashes, co.revives),
            );
            if !ok {
                std::process::exit(1);
            }
        }
    }
}

/// p-th percentile (nearest-rank) of an unsorted latency sample, in ms.
fn percentile_ms(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let idx = ((p * samples.len() as f64).ceil() as usize).clamp(1, samples.len()) - 1;
    samples[idx] * 1e3
}

/// One closed-loop traffic phase against the cluster: `clients` threads
/// each issue `per_client` Zipf-distributed requests (with probability
/// `hot_bias` the request goes to tenant 0 — the flash crowd), retrying
/// transient errors with per-client jitter seeds, and recording wall-clock
/// latency plus the fingerprint echo for the zero-stale audit.
#[allow(clippy::too_many_arguments)]
fn cluster_phase(
    h: &solversrv::SolverHandle,
    clients: usize,
    per_client: usize,
    n: usize,
    hot_bias: f64,
    seed_base: u64,
    cdf: &[f64],
    fps: &[Fingerprint],
    policy: &RetryPolicy,
    stale: &AtomicU64,
) -> PhaseResult {
    let ok = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    let lat = Mutex::new(Vec::with_capacity(clients * per_client));
    let start = Instant::now();
    std::thread::scope(|sc| {
        for c in 0..clients {
            let (ok, failed, lat, stale) = (&ok, &failed, &lat, stale);
            sc.spawn(move || {
                let mut rng = SplitMix64::new(seed_base + c as u64);
                let mut rhs_rng = SplitMix64::new(seed_base + 100 + c as u64);
                let mut local = Vec::with_capacity(per_client);
                for r in 0..per_client {
                    let id = if hot_bias > 0.0 && rng.unit() < hot_bias {
                        0u64
                    } else {
                        let u = rng.unit();
                        cdf.partition_point(|&p| p < u).min(cdf.len() - 1) as u64
                    };
                    let b = Matrix::random(&mut rhs_rng, n, 1);
                    let t0 = Instant::now();
                    let jitter_seed = seed_base ^ ((c as u64) << 32) ^ r as u64;
                    match solve_with_retry_seeded(h, &SolveRequest::new(id, b), policy, jitter_seed)
                    {
                        Ok(resp) => {
                            ok.fetch_add(1, Ordering::Relaxed);
                            if resp.stats.fingerprint != Some(fps[id as usize]) {
                                stale.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(_) => {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    local.push(t0.elapsed().as_secs_f64());
                }
                lat.lock().unwrap().extend(local);
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut samples = lat.into_inner().unwrap();
    let requests = (clients * per_client) as u64;
    PhaseResult {
        requests,
        ok: ok.load(Ordering::Relaxed),
        failed: failed.load(Ordering::Relaxed),
        rps: requests as f64 / elapsed,
        p50_ms: percentile_ms(&mut samples, 0.50),
        p99_ms: percentile_ms(&mut samples, 0.99),
        p999_ms: percentile_ms(&mut samples, 0.999),
    }
}

/// The chaos experiment: Zipf steady state, then a flash crowd on tenant
/// 0, while a `FaultPlan` kills tenant 0's primary shard at a
/// deterministic fail-point step and revives it later on the cluster's
/// submission clock. Availability and tail latency are measured
/// client-side; ticket loss and staleness come from the cluster's own
/// accounting plus the fingerprint echo on every response.
fn cluster_run(quick: bool) -> ClusterOutcome {
    let shards = 4;
    let replicas = 2;
    let tenants = if quick { 8 } else { 12 };
    let n = if quick { 128 } else { 160 };
    let (steady_clients, steady_per) = (4, if quick { 20 } else { 30 });
    let (flash_clients, flash_per) = (8, if quick { 30 } else { 60 });
    println!(
        "# servload cluster: {shards} shards x{replicas}, {tenants} tenants n={n}, steady {steady_clients}x{steady_per} then flash {flash_clients}x{flash_per}"
    );

    let mut rng = SplitMix64::new(11_000);
    let mats: Vec<Matrix> = (0..tenants)
        .map(|_| Matrix::random_diagonally_dominant(&mut rng, n))
        .collect();
    let fps: Vec<Fingerprint> = mats.iter().map(Fingerprint::of).collect();
    // the flash crowd hammers tenant 0, so its ring primary is the shard
    // whose death hurts the most — that's the one the plan kills
    let victim = HashRing::new(shards).route(fps[0], replicas)[0];
    // crash on the victim's fail-point clock (it ticks only as the victim
    // processes work, so this lands mid-traffic); revive on the cluster's
    // submission clock, well before the flash crowd drains
    let (crash_step, revive_at) = if quick { (60, 200) } else { (150, 400) };
    let cfg = ClusterConfig {
        shards,
        replicas,
        service: ServiceConfig {
            workers: 1,
            max_queue: 256,
            ..ServiceConfig::default()
        },
        faults: FaultPlan::new(4242)
            .with_crash(victim, crash_step)
            .with_revive(victim, revive_at),
        ..ClusterConfig::default()
    };
    let policy = RetryPolicy {
        max_retries: 10_000,
        ..RetryPolicy::default()
    };
    // same inverse-CDF Zipf sampler as zipf_run
    let s = 1.1;
    let weights: Vec<f64> = (0..tenants)
        .map(|i| 1.0 / ((i + 1) as f64).powf(s))
        .collect();
    let total: f64 = weights.iter().sum();
    let cdf: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total;
            Some(*acc)
        })
        .collect();
    let stale = AtomicU64::new(0);
    let ((steady, flash), report) = serve_cluster(cfg, |h| {
        for (id, a) in mats.iter().enumerate() {
            h.register_matrix(id as u64, a.clone(), MatrixKind::General);
        }
        let steady = cluster_phase(
            h,
            steady_clients,
            steady_per,
            n,
            0.0,
            11_100,
            &cdf,
            &fps,
            &policy,
            &stale,
        );
        let flash = cluster_phase(
            h,
            flash_clients,
            flash_per,
            n,
            0.5,
            11_200,
            &cdf,
            &fps,
            &policy,
            &stale,
        );
        (steady, flash)
    });
    let st = &report.stats;
    let resolved = st.service.completed + st.service.failed + st.service.deadline_misses;
    let requests = steady.requests + flash.requests;
    let ok_total = steady.ok + flash.ok;
    let p99_ratio = if steady.p99_ms > 0.0 {
        flash.p99_ms / steady.p99_ms
    } else {
        1.0
    };
    println!(
        "servload cluster steady: {:>5} req {:>8.1} rps p50={:.3} p99={:.3} p999={:.3} ms",
        steady.requests, steady.rps, steady.p50_ms, steady.p99_ms, steady.p999_ms
    );
    println!(
        "servload cluster flash:  {:>5} req {:>8.1} rps p50={:.3} p99={:.3} p999={:.3} ms",
        flash.requests, flash.rps, flash.p50_ms, flash.p99_ms, flash.p999_ms
    );
    ClusterOutcome {
        shards,
        replicas,
        tenants,
        n,
        victim,
        steady,
        flash,
        availability: ok_total as f64 / requests as f64,
        p99_ratio,
        crashes: st.crashes,
        revives: st.revives,
        failovers: st.failovers,
        replicated: st.replicated_factors,
        rebalanced: st.rebalanced_factors,
        lost_tickets: st.service.submitted as i64 - resolved as i64,
        stale_responses: stale.load(Ordering::Relaxed),
        hit_rate: st.service.hit_rate(),
    }
}

/// Closed-loop clients against a single pre-warmed factor.
fn hot_run(n: usize, concurrency: usize, per_client: usize) -> HotResult {
    let mut rng = SplitMix64::new(7001);
    let a = Matrix::random_diagonally_dominant(&mut rng, n);
    let b = Matrix::random(&mut rng, n, 1);
    let cfg = ServiceConfig {
        workers: 2,
        max_queue: 256, // generous: this phase measures batching, not admission
        ..ServiceConfig::default()
    };
    let policy = RetryPolicy {
        max_retries: 10_000,
        ..RetryPolicy::default()
    };
    let (elapsed_s, report) = serve(cfg, |h| {
        h.register_matrix(1, a.clone(), MatrixKind::General);
        h.solve(SolveRequest::new(1, b.clone())).unwrap(); // warm the factor
        let start = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..concurrency {
                s.spawn(|| {
                    for _ in 0..per_client {
                        solve_with_retry(h, &SolveRequest::new(1, b.clone()), &policy)
                            .expect("hot request failed");
                    }
                });
            }
        });
        start.elapsed().as_secs_f64()
    });
    let requests = (concurrency * per_client) as u64;
    let r = HotResult {
        concurrency,
        requests,
        rps: requests as f64 / elapsed_s,
        mean_batch: report.stats.mean_batch(),
        max_batch: report.stats.max_batch,
        p99_ms: report.stats.p99_latency.as_secs_f64() * 1e3,
    };
    println!(
        "servload hot   conc={:<2} {:>6} req  {:>9.1} rps  mean_batch={:.2} max_batch={} p99={:.3} ms",
        r.concurrency, r.requests, r.rps, r.mean_batch, r.max_batch, r.p99_ms
    );
    r
}

/// Popularity-skewed multi-tenant load against an undersized cache.
fn zipf_run(
    s: f64,
    tenants: usize,
    n: usize,
    clients: usize,
    per_client: usize,
) -> (f64, u64, f64, u64) {
    // register `tenants` distinct matrices; size the cache for ~1/3 of them
    let factor_bytes = n * n * std::mem::size_of::<f64>() + n * std::mem::size_of::<usize>();
    let cfg = ServiceConfig {
        workers: 2,
        max_queue: 256,
        cache_budget_bytes: factor_bytes * tenants / 3 + factor_bytes / 2,
        ..ServiceConfig::default()
    };
    // inverse-CDF Zipf sampler: weight of tenant i ∝ 1/(i+1)^s
    let weights: Vec<f64> = (0..tenants)
        .map(|i| 1.0 / ((i + 1) as f64).powf(s))
        .collect();
    let total: f64 = weights.iter().sum();
    let cdf: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total;
            Some(*acc)
        })
        .collect();
    let policy = RetryPolicy {
        max_retries: 10_000,
        ..RetryPolicy::default()
    };
    let completed = AtomicU64::new(0);
    let (elapsed_s, report) = serve(cfg, |h| {
        let mut rng = SplitMix64::new(9000);
        for id in 0..tenants as u64 {
            let a = Matrix::random_diagonally_dominant(&mut rng, n);
            h.register_matrix(id, a, MatrixKind::General);
        }
        let start = Instant::now();
        std::thread::scope(|sc| {
            for c in 0..clients {
                let cdf = &cdf;
                let completed = &completed;
                let policy = &policy;
                sc.spawn(move || {
                    let mut rng = SplitMix64::new(9100 + c as u64);
                    let mut rhs_rng = SplitMix64::new(9200 + c as u64);
                    for _ in 0..per_client {
                        let u = rng.unit();
                        let id = cdf.partition_point(|&p| p < u).min(cdf.len() - 1) as u64;
                        let b = Matrix::random(&mut rhs_rng, n, 1);
                        solve_with_retry(h, &SolveRequest::new(id, b), policy)
                            .expect("zipf request failed");
                        completed.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        start.elapsed().as_secs_f64()
    });
    let requests = completed.load(Ordering::Relaxed);
    assert_eq!(requests, report.stats.completed, "no silent drops");
    (
        report.stats.hit_rate(),
        report.stats.cache_evictions,
        requests as f64 / elapsed_s,
        requests,
    )
}
