//! Chaos tests for the sharded cluster: scheduled shard crashes at every
//! fail-point, revival mid-traffic, and the ticket-preservation invariant
//! — every admitted request resolves to a success or a typed error, never
//! a hang, a drop, or a stale factor.
//!
//! Crash schedules are deterministic: each shard ticks a fail-point clock
//! at dequeue (1 tick), then pre-factor / post-factor on the cold path
//! (2 more), then pre-deliver (1 tick), and `FaultPlan::with_crash(shard,
//! step)` fires at the first fail-point reaching `step`. A cold solo
//! request on a one-worker shard therefore ticks steps 1-2-3-4; a warm
//! one ticks 1-2.

use denselin::{lu_blocked, Matrix};
use simnet::FaultPlan;
use solversrv::{
    serve, serve_cluster, ClusterConfig, Fingerprint, HashRing, MatrixKind, Preconditioner,
    ServiceConfig, SolveRequest,
};

fn dd_matrix(n: usize, seed: u64) -> Matrix {
    Matrix::from_fn(n, n, |i, j| {
        if i == j {
            n as f64 + 2.0 + seed as f64
        } else {
            0.5 / (1.0 + (i + 3 * j + seed as usize) as f64)
        }
    })
}

fn base_cfg(shards: usize, replicas: usize) -> ClusterConfig {
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

/// The reference answer the cluster must reproduce bit-for-bit: the same
/// blocked LU, run directly.
fn direct_solve(a: &Matrix, b: &Matrix, panel: usize) -> Matrix {
    let f = lu_blocked(a, panel).unwrap();
    let mut x = Matrix::zeros(b.rows(), b.cols());
    f.solve_into(b, &mut x);
    x
}

#[test]
fn crash_during_factor_reroutes_and_refactors_cold() {
    let n = 16;
    let a = dd_matrix(n, 1);
    let b = Matrix::from_fn(n, 2, |i, j| (1 + i + j) as f64);
    let fp = Fingerprint::of(&a);
    let primary = HashRing::new(3).route(fp, 2)[0];
    // step 2 = the pre-factor fail-point of the first (cold) request
    let cfg = ClusterConfig {
        faults: FaultPlan::new(11).with_crash(primary, 2),
        ..base_cfg(3, 2)
    };
    let (resp, report) = serve_cluster(cfg, |h| {
        h.register_matrix(1, a.clone(), MatrixKind::General);
        h.solve(SolveRequest::new(1, b.clone())).unwrap()
    });
    assert!(resp.residual <= 1e-10);
    assert_eq!(
        resp.stats.failovers, 1,
        "the crash must re-route the ticket"
    );
    assert_ne!(resp.stats.shard, Some(primary), "served by the dead shard");
    assert_eq!(resp.stats.fingerprint, Some(fp), "stale-factor check");
    assert!(
        !resp.stats.cache_hit,
        "replica had no factor: cold re-factor"
    );
    assert_eq!(
        resp.x,
        direct_solve(&a, &b, 8),
        "answer must be bitwise exact"
    );
    assert_eq!(report.stats.crashes, 1);
    assert!(report.stats.accounted(), "{:?}", report.stats);
}

#[test]
fn crash_during_solve_discards_computed_answer_and_fails_over_warm() {
    let n = 16;
    let a = dd_matrix(n, 2);
    let b = Matrix::from_fn(n, 1, |i, _| 1.0 + i as f64);
    let fp = Fingerprint::of(&a);
    let primary = HashRing::new(2).route(fp, 2)[0];
    // warm-up consumes steps 1-4; the second request's pre-deliver
    // fail-point is step 6 — the answer is computed, then dies with the
    // shard before delivery
    let cfg = ClusterConfig {
        faults: FaultPlan::new(12).with_crash(primary, 6),
        ..base_cfg(2, 2)
    };
    let ((), report) = serve_cluster(cfg, |h| {
        h.register_matrix(1, a.clone(), MatrixKind::General);
        let warm = h.solve(SolveRequest::new(1, b.clone())).unwrap();
        assert_eq!(warm.stats.shard, Some(primary));
        let resp = h.solve(SolveRequest::new(1, b.clone())).unwrap();
        assert_eq!(resp.stats.failovers, 1);
        assert_ne!(resp.stats.shard, Some(primary));
        assert!(
            resp.stats.cache_hit,
            "replication should have pre-warmed the surviving replica"
        );
        assert_eq!(resp.stats.fingerprint, Some(fp));
        assert_eq!(resp.x, direct_solve(&a, &b, 8));
    });
    assert_eq!(report.stats.crashes, 1);
    assert_eq!(report.stats.replicated_factors, 1);
    assert!(report.stats.accounted());
}

#[test]
fn crash_with_queued_coalesced_rhs_resolves_every_ticket() {
    let n = 16;
    let a = dd_matrix(n, 3);
    let fp = Fingerprint::of(&a);
    let primary = HashRing::new(3).route(fp, 2)[0];
    // step 3 = post-factor of the lead: the factor is complete but dies
    // before insertion, with the rider RHS still queued behind it
    let cfg = ClusterConfig {
        faults: FaultPlan::new(13).with_crash(primary, 3),
        ..base_cfg(3, 2)
    };
    let k = 6;
    let ((), report) = serve_cluster(cfg, |h| {
        h.register_matrix(1, a.clone(), MatrixKind::General);
        let tickets: Vec<_> = (0..k)
            .map(|j| {
                let b = Matrix::from_fn(n, 1, |i, _| (i + j + 1) as f64);
                h.submit(SolveRequest::new(1, b)).unwrap()
            })
            .collect();
        for (j, t) in tickets.into_iter().enumerate() {
            let resp = t.wait().expect("an admitted ticket must resolve Ok here");
            assert!(resp.residual <= 1e-10, "ticket {j}");
            assert_ne!(resp.stats.shard, Some(primary), "ticket {j}");
            assert_eq!(resp.stats.fingerprint, Some(fp), "ticket {j}");
            let b = Matrix::from_fn(n, 1, |i, _| (i + j + 1) as f64);
            assert_eq!(resp.x, direct_solve(&a, &b, 8), "ticket {j}");
        }
    });
    assert_eq!(report.stats.crashes, 1);
    assert_eq!(report.stats.service.completed, k as u64);
    assert!(
        report.stats.failovers >= 1,
        "at least the in-flight lead re-routes: {:?}",
        report.stats
    );
    assert!(report.stats.accounted());
}

#[test]
fn scheduled_revive_rebalances_and_primary_serves_warm() {
    let n = 16;
    let a = dd_matrix(n, 4);
    let b = Matrix::from_fn(n, 1, |i, _| 2.0 + i as f64);
    let fp = Fingerprint::of(&a);
    let primary = HashRing::new(3).route(fp, 2)[0];
    // crash at the first request's pre-factor step; the revive clock is
    // the cluster submission count, so the third submission brings the
    // primary back (rebalanced warm) before it is routed
    let cfg = ClusterConfig {
        faults: FaultPlan::new(14)
            .with_crash(primary, 2)
            .with_revive(primary, 3),
        ..base_cfg(3, 2)
    };
    let ((), report) = serve_cluster(cfg, |h| {
        h.register_matrix(1, a.clone(), MatrixKind::General);
        let first = h.solve(SolveRequest::new(1, b.clone())).unwrap();
        assert_eq!(first.stats.failovers, 1);
        let second = h.solve(SolveRequest::new(1, b.clone())).unwrap();
        assert_ne!(second.stats.shard, Some(primary), "primary still down");
        let third = h.solve(SolveRequest::new(1, b.clone())).unwrap();
        assert_eq!(
            third.stats.shard,
            Some(primary),
            "revived primary should reclaim its keyspace"
        );
        assert!(third.stats.cache_hit, "rebalance should have warmed it");
        assert_eq!(third.x, direct_solve(&a, &b, 8));
    });
    assert_eq!(report.stats.crashes, 1);
    assert_eq!(report.stats.revives, 1);
    assert!(report.stats.rebalanced_factors >= 1);
    assert!(report.stats.accounted());
}

#[test]
fn crash_step_sweep_never_loses_a_ticket() {
    // fire the crash at every fail-point step a short workload reaches;
    // whatever the step, every admitted ticket must resolve and the
    // accounting must balance
    let n = 12;
    for step in 1..=10 {
        let a = dd_matrix(n, 20 + step as u64);
        let fp = Fingerprint::of(&a);
        let primary = HashRing::new(3).route(fp, 2)[0];
        let cfg = ClusterConfig {
            faults: FaultPlan::new(100 + step as u64).with_crash(primary, step),
            ..base_cfg(3, 2)
        };
        let (ok, report) = serve_cluster(cfg, |h| {
            h.register_matrix(1, a.clone(), MatrixKind::General);
            let mut ok = 0u64;
            for j in 0..4 {
                let b = Matrix::from_fn(n, 1, |i, _| (i * (j + 1) + 1) as f64);
                let resp = h
                    .solve(SolveRequest::new(1, b.clone()))
                    .unwrap_or_else(|e| panic!("step {step} req {j}: {e}"));
                assert_eq!(resp.x, direct_solve(&a, &b, 8), "step {step} req {j}");
                ok += 1;
            }
            ok
        });
        assert_eq!(ok, 4, "step {step}");
        assert_eq!(report.stats.service.completed, 4, "step {step}");
        assert!(report.stats.accounted(), "step {step}: {:?}", report.stats);
    }
}

#[test]
fn concurrent_clients_survive_kill_and_revive_churn() {
    let n = 16;
    let tenants = 5u64;
    let per_client = 20usize;
    let clients = 3usize;
    let cfg = base_cfg(4, 2);
    let matrices: Vec<Matrix> = (0..tenants).map(|t| dd_matrix(n, 40 + t)).collect();
    let ((), report) = serve_cluster(cfg, |h| {
        for (t, a) in matrices.iter().enumerate() {
            h.register_matrix(t as u64, a.clone(), MatrixKind::General);
        }
        std::thread::scope(|s| {
            for c in 0..clients {
                s.spawn(move || {
                    let policy = simnet::RetryPolicy::default();
                    for j in 0..per_client {
                        let t = ((c * per_client + j) as u64 * 7) % tenants;
                        let b = Matrix::from_fn(n, 1, |i, _| (i + c + j + 1) as f64);
                        let resp = solversrv::solve_with_retry_seeded(
                            h,
                            &SolveRequest::new(t, b),
                            &policy,
                            (c * per_client + j) as u64,
                        )
                        .unwrap_or_else(|e| panic!("client {c} req {j}: {e}"));
                        assert!(resp.residual <= 1e-10);
                    }
                });
            }
            // chaos alongside the clients: at most one shard down at a
            // time, so the r=2 replica set always has a live member
            s.spawn(|| {
                for round in 0..6 {
                    let victim = round % 4;
                    h.kill_shard(victim);
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    h.revive_shard(victim);
                }
            });
        });
    });
    assert_eq!(
        report.stats.service.completed,
        (clients * per_client) as u64
    );
    assert!(report.stats.crashes >= 1);
    assert!(report.stats.accounted(), "{:?}", report.stats);
}

#[test]
fn reregistered_content_is_never_served_stale_across_failover() {
    // re-register the same id with different bytes, then crash the new
    // content's primary: the failed-over answer must carry the *new*
    // fingerprint and solve the new matrix
    let n = 12;
    let old = dd_matrix(n, 50);
    let new = dd_matrix(n, 51);
    let b = Matrix::from_fn(n, 1, |i, _| 1.0 + i as f64);
    let fp_new = Fingerprint::of(&new);
    let primary_new = HashRing::new(3).route(fp_new, 2)[0];
    let cfg = ClusterConfig {
        // warm `old` first (up to 4 victim steps if it shares the shard),
        // then kill the new content's primary mid-cold-factor; a large
        // step is consumed only if the victim actually reaches it
        faults: FaultPlan::new(15).with_crash(primary_new, 6),
        ..base_cfg(3, 2)
    };
    let ((), report) = serve_cluster(cfg, |h| {
        h.register_matrix(1, old.clone(), MatrixKind::General);
        let r_old = h.solve(SolveRequest::new(1, b.clone())).unwrap();
        assert_eq!(r_old.stats.fingerprint, Some(Fingerprint::of(&old)));
        h.register_matrix(1, new.clone(), MatrixKind::General);
        let r_new = h.solve(SolveRequest::new(1, b.clone())).unwrap();
        assert_eq!(
            r_new.stats.fingerprint,
            Some(fp_new),
            "stale factor served after re-registration"
        );
        assert_eq!(r_new.x, direct_solve(&new, &b, 8));
    });
    assert!(report.stats.accounted());
}

#[test]
fn sparse_system_fails_over_bitwise_to_the_single_node_answer() {
    // the shards run the single-node engine, so they serve sparse CG too,
    // and replicate its preconditioner setup like a dense factor
    let a = sparselin::spd_laplacian(12, 10, 0.5);
    let b = Matrix::from_fn(a.rows(), 2, |i, j| (1 + i + 3 * j) as f64);
    let req = SolveRequest::new(1, b).with_tolerance(1e-8);
    let (single, _) = serve(ServiceConfig::default(), |h| {
        h.register_sparse(1, a.clone(), Preconditioner::SymGs)
            .unwrap();
        h.solve(req.clone()).unwrap()
    });
    let ((first, failed_over, primary), report) = serve_cluster(base_cfg(3, 2), |h| {
        let fp = h
            .register_sparse(1, a.clone(), Preconditioner::SymGs)
            .unwrap();
        let primary = h.route_of(fp)[0];
        let first = h.solve(req.clone()).unwrap();
        assert!(h.kill_shard(primary));
        (first, h.solve(req.clone()).unwrap(), primary)
    });
    assert_eq!(first.stats.shard, Some(primary));
    assert_eq!(first.stats.kernel, "cg");
    assert_ne!(failed_over.stats.shard, Some(primary));
    assert!(failed_over.stats.cache_hit, "the replica holds the setup");
    assert_eq!(failed_over.stats.fingerprint, single.stats.fingerprint);
    assert_eq!(first.x.as_slice(), single.x.as_slice());
    assert_eq!(failed_over.x.as_slice(), single.x.as_slice());
    assert_eq!(report.stats.replicated_factors, 1);
    assert!(report.stats.accounted(), "{:?}", report.stats);
}

#[test]
fn traced_cluster_records_shard_worker_spans() {
    let n = 16;
    let cfg = ClusterConfig {
        service: ServiceConfig {
            trace: true,
            ..base_cfg(3, 2).service
        },
        ..base_cfg(3, 2)
    };
    let ((), report) = serve_cluster(cfg, |h| {
        for t in 0..4u64 {
            h.register_matrix(t, dd_matrix(n, 60 + t), MatrixKind::General);
            let b = Matrix::from_fn(n, 1, |i, _| (i + 1) as f64);
            h.solve(SolveRequest::new(t, b.clone())).unwrap();
            h.solve(SolveRequest::new(t, b)).unwrap();
        }
    });
    let trace = report.trace.expect("tracing was on");
    assert_eq!(trace.p, 3, "one timeline per shard worker");
    for phase in ["svc:queue", "svc:factor", "svc:solve"] {
        assert!(
            trace.events.iter().any(|e| e.phase == phase),
            "no {phase} span"
        );
    }
    let json = trace.to_chrome_trace();
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}
