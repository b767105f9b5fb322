//! Deterministic integration tests of the solve service: admission
//! control, batching, caching, deadlines, degradation and tracing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use denselin::SplitMix64;
use denselin::{lu_blocked, Matrix};
use simnet::RetryPolicy;
use solversrv::{
    serve, serve_cluster, solve_with_retry, ClusterConfig, CsrMatrix, MatrixKind, Preconditioner,
    ServiceConfig, ServiceStats, SolveError, SolveRequest, SolverHandle,
};

fn well_conditioned(n: usize, seed: u64) -> Matrix {
    let mut rng = SplitMix64::new(seed);
    Matrix::random_diagonally_dominant(&mut rng, n)
}

fn spd(n: usize, seed: u64) -> Matrix {
    let mut rng = SplitMix64::new(seed);
    let m = Matrix::random(&mut rng, n, n);
    let mut a = m.matmul(&m.transpose());
    for i in 0..n {
        a[(i, i)] += n as f64;
    }
    a
}

#[test]
fn basic_solve_roundtrip() {
    let n = 32;
    let a = well_conditioned(n, 1);
    let mut rng = SplitMix64::new(2);
    let x_true = Matrix::random(&mut rng, n, 3);
    let b = a.matmul(&x_true);
    let (resp, report) = serve(ServiceConfig::default(), |h| {
        h.register_matrix(1, a.clone(), MatrixKind::General);
        h.solve(SolveRequest::new(1, b.clone())).unwrap()
    });
    assert!(resp.residual <= 1e-10);
    assert!(resp.x.allclose(&x_true, 1e-7));
    assert_eq!(resp.x.shape(), b.shape());
    assert_eq!(resp.stats.kernel, "lu");
    assert!(!resp.stats.cache_hit, "first solve must be a miss");
    assert_eq!(report.stats.completed, 1);
    assert_eq!(report.stats.cache_misses, 1);
}

#[test]
fn second_solve_hits_cache() {
    let n = 24;
    let a = well_conditioned(n, 3);
    let b = Matrix::from_fn(n, 1, |i, _| 1.0 + i as f64);
    let ((r1, r2), report) = serve(ServiceConfig::default(), |h| {
        h.register_matrix(1, a.clone(), MatrixKind::General);
        let r1 = h.solve(SolveRequest::new(1, b.clone())).unwrap();
        let r2 = h.solve(SolveRequest::new(1, b.clone())).unwrap();
        (r1, r2)
    });
    assert!(!r1.stats.cache_hit);
    assert!(r2.stats.cache_hit);
    assert_eq!(r2.stats.factor_time, Duration::ZERO);
    // same factor, same kernel sequence: bitwise identical answers
    assert_eq!(r1.x.as_slice(), r2.x.as_slice());
    assert_eq!(report.stats.cache_hits, 1);
    assert_eq!(report.stats.cache_misses, 1);
}

#[test]
fn same_content_under_two_ids_shares_one_factor() {
    let n = 16;
    let a = well_conditioned(n, 4);
    let b = Matrix::from_fn(n, 1, |i, _| i as f64);
    let (_, report) = serve(ServiceConfig::default(), |h| {
        let fp1 = h.register_matrix(1, a.clone(), MatrixKind::General);
        let fp2 = h.register_matrix(2, a.clone(), MatrixKind::General);
        assert_eq!(fp1, fp2);
        h.solve(SolveRequest::new(1, b.clone())).unwrap();
        h.solve(SolveRequest::new(2, b.clone())).unwrap();
    });
    assert_eq!(report.stats.cache_misses, 1, "content-addressed dedup");
    assert_eq!(report.stats.cache_hits, 1);
}

#[test]
fn reregistering_different_content_never_serves_stale_factor() {
    let n = 16;
    let a1 = well_conditioned(n, 5);
    let a2 = well_conditioned(n, 6);
    let mut rng = SplitMix64::new(7);
    let x_true = Matrix::random(&mut rng, n, 1);
    let b2 = a2.matmul(&x_true);
    let (resp, _) = serve(ServiceConfig::default(), |h| {
        h.register_matrix(1, a1.clone(), MatrixKind::General);
        h.solve(SolveRequest::new(1, b2.clone())).unwrap();
        // replace the data under the same id: the old factor must not be used
        h.register_matrix(1, a2.clone(), MatrixKind::General);
        h.solve(SolveRequest::new(1, b2.clone())).unwrap()
    });
    assert!(resp.residual <= 1e-10);
    assert!(resp.x.allclose(&x_true, 1e-7));
}

#[test]
fn typed_errors_for_bad_requests() {
    let ((), _) = serve(ServiceConfig::default(), |h| {
        let err = h
            .solve(SolveRequest::new(42, Matrix::zeros(4, 1)))
            .unwrap_err();
        assert_eq!(err, SolveError::UnknownMatrix { matrix_id: 42 });

        h.register_matrix(1, well_conditioned(8, 8), MatrixKind::General);
        let err = h
            .solve(SolveRequest::new(1, Matrix::zeros(5, 1)))
            .unwrap_err();
        assert_eq!(
            err,
            SolveError::ShapeMismatch {
                matrix_rows: 8,
                rhs_rows: 5
            }
        );
    });
}

/// Every malformed request and operator, through both entry points: each
/// is refused with `InvalidInput` and its reason, nothing is queued or
/// factored, and a zero tolerance stays legal.
#[test]
fn invalid_input_is_refused_by_serve_and_cluster() {
    let n = 8;
    let good = well_conditioned(n, 8);
    let ok = Matrix::from_fn(n, 2, |i, j| (1 + i + j) as f64);
    let rhs_with = |v: f64| {
        let mut b = ok.clone();
        b[(5, 1)] = v;
        b
    };
    let matrix_with = |v: f64| {
        let mut a = good.clone();
        a[(2, 3)] = v;
        a
    };
    // (dense matrix registered under id 1, request against it, reason)
    let dense = [
        (
            good.clone(),
            SolveRequest::new(1, rhs_with(f64::NAN)),
            "non-finite rhs entry",
        ),
        (
            good.clone(),
            SolveRequest::new(1, rhs_with(f64::INFINITY)),
            "non-finite rhs entry",
        ),
        (
            good.clone(),
            SolveRequest::new(1, rhs_with(f64::NEG_INFINITY)),
            "non-finite rhs entry",
        ),
        (
            good.clone(),
            SolveRequest::new(1, ok.clone()).with_tolerance(f64::NAN),
            "NaN tolerance",
        ),
        (
            good.clone(),
            SolveRequest::new(1, ok.clone()).with_tolerance(-1e-12),
            "negative tolerance",
        ),
        (
            good.clone(),
            SolveRequest::new(1, Matrix::zeros(n, 0)),
            "empty rhs",
        ),
        (
            matrix_with(f64::NAN),
            SolveRequest::new(1, ok.clone()),
            "non-finite matrix entry",
        ),
        (
            matrix_with(f64::INFINITY),
            SolveRequest::new(1, ok.clone()),
            "non-finite matrix entry",
        ),
        (
            Matrix::zeros(0, 0),
            SolveRequest::new(1, Matrix::zeros(0, 1)),
            "empty matrix",
        ),
    ];
    let sparse_with = |v: f64| {
        let mut d = sparselin::spd_laplacian(3, 3, 0.5).to_dense();
        d[(4, 4)] = v;
        CsrMatrix::from_dense(&d)
    };
    // (sparse matrix registered under id 2, reason)
    let sparse = [
        (sparse_with(f64::NAN), "non-finite matrix entry"),
        (sparse_with(f64::NEG_INFINITY), "non-finite matrix entry"),
        (CsrMatrix::from_triplets(0, 0, &[]).unwrap(), "empty matrix"),
    ];
    let run = |h: &SolverHandle| {
        let mut errs: Vec<SolveError> = dense
            .iter()
            .map(|(a, req, _)| {
                h.register_matrix(1, a.clone(), MatrixKind::General);
                h.submit(req.clone()).map(|_| ()).unwrap_err()
            })
            .collect();
        errs.extend(sparse.iter().map(|(a, _)| {
            h.register_sparse(2, a.clone(), Preconditioner::Jacobi)
                .unwrap_err()
        }));
        // a zero tolerance stays legal: the request is admitted
        h.register_matrix(1, good.clone(), MatrixKind::General);
        h.submit(SolveRequest::new(1, ok.clone()).with_tolerance(0.0))
            .map(|t| drop(t.wait()))
            .unwrap();
        errs
    };
    let reasons: Vec<&str> = dense
        .iter()
        .map(|c| c.2)
        .chain(sparse.iter().map(|c| c.1))
        .collect();
    let check = |entry: &str, errs: Vec<SolveError>, stats: &ServiceStats| {
        assert_eq!(errs.len(), reasons.len());
        for (err, &what) in errs.iter().zip(&reasons) {
            assert_eq!(*err, SolveError::InvalidInput { what }, "{entry}");
            assert!(!err.is_retryable(), "{entry}: {err}");
        }
        assert_eq!(stats.submitted, 1, "{entry}: only the valid request");
        assert_eq!(stats.cache_misses, 1, "{entry}: only the valid factor");
    };
    let (errs, report) = serve(ServiceConfig::default(), |h| run(h));
    check("serve", errs, &report.stats);
    let cluster = ClusterConfig {
        shards: 3,
        replicas: 2,
        ..ClusterConfig::default()
    };
    let (errs, report) = serve_cluster(cluster, |h| run(h));
    check("serve_cluster", errs, &report.stats.service);
    assert!(report.stats.accounted(), "{:?}", report.stats);
}

#[test]
fn singular_matrix_fails_with_column() {
    let n = 8;
    let mut a = well_conditioned(n, 9);
    for j in 0..n {
        a[(3, j)] = a[(2, j)]; // duplicate row: exactly singular
    }
    let ((), report) = serve(ServiceConfig::default(), |h| {
        h.register_matrix(1, a.clone(), MatrixKind::General);
        let err = h
            .solve(SolveRequest::new(1, Matrix::zeros(n, 1)))
            .unwrap_err();
        assert!(matches!(err, SolveError::Singular { .. }), "{err:?}");
    });
    assert_eq!(report.stats.failed, 1);
    assert_eq!(report.stats.completed, 0);
}

#[test]
fn spd_matrices_take_the_cholesky_path() {
    let n = 24;
    let a = spd(n, 10);
    let b = Matrix::from_fn(n, 2, |i, j| (i + j) as f64);
    let (resp, _) = serve(ServiceConfig::default(), |h| {
        h.register_matrix(1, a.clone(), MatrixKind::SymmetricPositiveDefinite);
        h.solve(SolveRequest::new(1, b.clone())).unwrap()
    });
    assert_eq!(resp.stats.kernel, "cholesky");
    assert!(resp.residual <= 1e-10);
}

#[test]
fn false_spd_tag_falls_back_to_lu() {
    let n = 16;
    let a = well_conditioned(n, 11); // not symmetric: Cholesky will fail
    let b = Matrix::from_fn(n, 1, |i, _| 1.0 + i as f64);
    let (resp, report) = serve(ServiceConfig::default(), |h| {
        h.register_matrix(1, a.clone(), MatrixKind::SymmetricPositiveDefinite);
        h.solve(SolveRequest::new(1, b.clone())).unwrap()
    });
    assert_eq!(resp.stats.kernel, "lu");
    assert!(resp.residual <= 1e-10);
    assert_eq!(report.stats.spd_fallbacks, 1);
}

#[test]
fn deadline_expired_request_is_abandoned() {
    let n = 8;
    let a = well_conditioned(n, 12);
    let ((), report) = serve(
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
        |h| {
            h.register_matrix(1, a.clone(), MatrixKind::General);
            // an already-expired deadline: the worker must abandon it at
            // dequeue, whatever the queue timing was
            let req = SolveRequest::new(1, Matrix::zeros(n, 1)).with_deadline(Duration::ZERO);
            let err = h.solve(req).unwrap_err();
            assert!(
                matches!(err, SolveError::DeadlineExceeded { .. }),
                "{err:?}"
            );
        },
    );
    assert_eq!(report.stats.deadline_misses, 1);
}

#[test]
fn unreachable_tolerance_reports_history_not_wrong_answer() {
    let n = 24;
    let a = well_conditioned(n, 13);
    let b = Matrix::from_fn(n, 1, |i, _| 1.0 + i as f64);
    let ((), report) = serve(ServiceConfig::default(), |h| {
        h.register_matrix(1, a.clone(), MatrixKind::General);
        // tolerance 0.0 is unreachable for a general system: the service
        // must refine, fail loudly, and never return a silent wrong answer
        let err = h
            .solve(SolveRequest::new(1, b.clone()).with_tolerance(0.0))
            .unwrap_err();
        match err {
            SolveError::ToleranceNotMet {
                achieved,
                requested,
                ..
            } => {
                assert!(achieved > 0.0);
                assert_eq!(requested, 0.0);
            }
            other => panic!("expected ToleranceNotMet, got {other:?}"),
        }
    });
    assert_eq!(report.stats.failed, 1);
}

#[test]
fn loose_tolerance_refines_and_reports_sweeps() {
    // degrade-to-refinement path that *succeeds*: ask for a residual the
    // direct solve occasionally misses but one sweep reaches
    let n = 48;
    let mut rng = SplitMix64::new(14);
    let a = Matrix::random(&mut rng, n, n); // general, mildly conditioned
    let x_true = Matrix::random(&mut rng, n, 1);
    let b = a.matmul(&x_true);
    let (resp, _) = serve(ServiceConfig::default(), |h| {
        h.register_matrix(1, a.clone(), MatrixKind::General);
        h.solve(SolveRequest::new(1, b.clone()).with_tolerance(1e-13))
            .unwrap()
    });
    assert!(resp.residual <= 1e-13);
    if resp.stats.refined {
        assert!(!resp.stats.refine_history.is_empty());
        let h = &resp.stats.refine_history;
        assert!(h.last().unwrap() <= h.first().unwrap());
    }
}

#[test]
fn overload_fails_fast_and_inflight_solves_stay_correct() {
    // tiny queue + slow-ish requests: force Overloaded rejections while
    // verifying every accepted request still meets its tolerance
    let n = 96;
    let a = well_conditioned(n, 15);
    let mut rng = SplitMix64::new(16);
    let x_true = Matrix::random(&mut rng, n, 1);
    let b = a.matmul(&x_true);
    let cfg = ServiceConfig {
        workers: 1,
        max_queue: 2,
        ..ServiceConfig::default()
    };
    let (outcomes, report) = serve(cfg, |h| {
        h.register_matrix(1, a.clone(), MatrixKind::General);
        // prime the factor so submissions below race only on solves
        h.solve(SolveRequest::new(1, b.clone())).unwrap();
        let mut tickets = Vec::new();
        let mut rejected = 0u64;
        // burst far past the queue bound without waiting
        for _ in 0..64 {
            match h.submit(SolveRequest::new(1, b.clone())) {
                Ok(t) => tickets.push(t),
                Err(SolveError::Overloaded { .. }) => rejected += 1,
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        let responses: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
        (responses, rejected)
    });
    let (responses, rejected) = outcomes;
    assert!(rejected > 0, "burst of 64 into a queue of 2 must overload");
    assert_eq!(report.stats.rejected_overloaded, rejected);
    for resp in responses {
        let resp = resp.expect("accepted requests must complete");
        assert!(resp.residual <= 1e-10, "in-flight solve broke tolerance");
        assert!(resp.x.allclose(&x_true, 1e-6));
    }
}

#[test]
fn deterministic_load_zero_dropped_requests_under_pressure() {
    // the ISSUE's load test: a small queue, many concurrent clients, and
    // the retry/backoff helper — every single request must eventually
    // complete (zero drops), even though admission control pushes back
    let n = 32;
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 50;
    let a = well_conditioned(n, 17);
    let mut rng = SplitMix64::new(18);
    let x_true = Matrix::random(&mut rng, n, 1);
    let b = a.matmul(&x_true);
    let cfg = ServiceConfig {
        workers: 2,
        max_queue: 4,
        ..ServiceConfig::default()
    };
    let completed = AtomicU64::new(0);
    let ((), report) = serve(cfg, |h| {
        h.register_matrix(1, a.clone(), MatrixKind::General);
        let policy = RetryPolicy {
            max_retries: 10_000, // a load generator that refuses to drop
            ..RetryPolicy::default()
        };
        std::thread::scope(|s| {
            for _ in 0..CLIENTS {
                s.spawn(|| {
                    for _ in 0..PER_CLIENT {
                        let resp = solve_with_retry(h, &SolveRequest::new(1, b.clone()), &policy)
                            .expect("request dropped");
                        assert!(resp.residual <= 1e-10);
                        completed.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
    });
    assert_eq!(
        completed.load(Ordering::Relaxed),
        (CLIENTS * PER_CLIENT) as u64
    );
    assert_eq!(report.stats.completed, (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(
        report.stats.submitted, report.stats.completed,
        "accepted and answered must balance"
    );
}

#[test]
fn concurrent_same_factor_requests_coalesce() {
    let n = 64;
    let a = well_conditioned(n, 19);
    let b = Matrix::from_fn(n, 1, |i, _| 1.0 + i as f64);
    let cfg = ServiceConfig {
        workers: 1, // one worker: queued requests pile up and must batch
        ..ServiceConfig::default()
    };
    let (max_batch_seen, report) = serve(cfg, |h| {
        h.register_matrix(1, a.clone(), MatrixKind::General);
        h.solve(SolveRequest::new(1, b.clone())).unwrap(); // warm the cache
        let tickets: Vec<_> = (0..12)
            .map(|_| h.submit(SolveRequest::new(1, b.clone())).unwrap())
            .collect();
        tickets
            .into_iter()
            .map(|t| t.wait().unwrap().stats.batch_size)
            .max()
            .unwrap()
    });
    assert!(
        max_batch_seen > 1,
        "a backed-up single-worker queue must coalesce"
    );
    assert!(report.stats.batches < 13, "13 requests in fewer batches");
    assert_eq!(report.stats.max_batch, max_batch_seen);
}

#[test]
fn eviction_keeps_answers_correct() {
    // a cache that holds roughly one factor: alternating matrices evict
    // each other constantly, but answers must stay right
    let n = 24;
    let a1 = well_conditioned(n, 20);
    let a2 = well_conditioned(n, 21);
    let one_factor_bytes = {
        let f = lu_blocked(&a1, 8).unwrap();
        f.lu.len() * std::mem::size_of::<f64>() + f.perm.len() * std::mem::size_of::<usize>()
    };
    let cfg = ServiceConfig {
        cache_budget_bytes: one_factor_bytes + one_factor_bytes / 2,
        ..ServiceConfig::default()
    };
    let mut rng = SplitMix64::new(22);
    let x_true = Matrix::random(&mut rng, n, 1);
    let (b1, b2) = (a1.matmul(&x_true), a2.matmul(&x_true));
    let ((), report) = serve(cfg, |h| {
        h.register_matrix(1, a1.clone(), MatrixKind::General);
        h.register_matrix(2, a2.clone(), MatrixKind::General);
        for _ in 0..3 {
            let r1 = h.solve(SolveRequest::new(1, b1.clone())).unwrap();
            let r2 = h.solve(SolveRequest::new(2, b2.clone())).unwrap();
            assert!(r1.x.allclose(&x_true, 1e-7));
            assert!(r2.x.allclose(&x_true, 1e-7));
        }
    });
    assert!(
        report.stats.cache_evictions > 0,
        "budget must force evictions"
    );
    assert_eq!(report.stats.completed, 6);
    assert!(report.stats.cache_bytes <= one_factor_bytes + one_factor_bytes / 2);
}

#[test]
fn trace_records_request_phases() {
    let n = 32;
    let a = well_conditioned(n, 23);
    let b = Matrix::from_fn(n, 1, |i, _| i as f64);
    let cfg = ServiceConfig {
        trace: true,
        ..ServiceConfig::default()
    };
    let ((), report) = serve(cfg, |h| {
        h.register_matrix(1, a.clone(), MatrixKind::General);
        h.solve(SolveRequest::new(1, b.clone())).unwrap();
        h.solve(SolveRequest::new(1, b.clone())).unwrap();
    });
    let trace = report.trace.expect("tracing was on");
    let phases: Vec<&str> = trace.events.iter().map(|e| e.phase).collect();
    assert!(phases.contains(&"svc:queue"), "{phases:?}");
    assert!(phases.contains(&"svc:factor"), "{phases:?}");
    assert!(phases.contains(&"svc:solve"), "{phases:?}");
    // and the export is loadable chrome-trace JSON
    let json = trace.to_chrome_trace();
    assert!(json.contains("svc:solve"));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}

#[test]
fn stats_snapshot_mid_flight() {
    let n = 16;
    let a = well_conditioned(n, 24);
    let b = Matrix::from_fn(n, 1, |i, _| i as f64);
    let (mid, report) = serve(ServiceConfig::default(), |h| {
        h.register_matrix(1, a.clone(), MatrixKind::General);
        h.solve(SolveRequest::new(1, b.clone())).unwrap();
        h.stats()
    });
    assert_eq!(mid.completed, 1);
    assert!(mid.elapsed_s <= report.stats.elapsed_s);
    assert!(report.stats.throughput_rps > 0.0);
    assert!(report.stats.p50_latency > Duration::ZERO);
    assert!(report.stats.p99_latency >= report.stats.p50_latency);
}

#[test]
fn distributed_route_factors_large_matrices() {
    use conflux::LuGrid;
    use solversrv::DistributedConfig;
    let n = 64;
    let a = well_conditioned(n, 25);
    let mut rng = SplitMix64::new(26);
    let x_true = Matrix::random(&mut rng, n, 1);
    let b = a.matmul(&x_true);
    let small = well_conditioned(8, 27); // below min_n: must stay local
    let b_small = Matrix::from_fn(8, 1, |i, _| 1.0 + i as f64);
    let cfg = ServiceConfig {
        distributed: Some(DistributedConfig {
            min_n: 32,
            tile: 8,
            grid: LuGrid::new(8, 2, 2),
        }),
        ..ServiceConfig::default()
    };
    let ((big, little), report) = serve(cfg, |h| {
        h.register_matrix(1, a.clone(), MatrixKind::General);
        h.register_matrix(2, small.clone(), MatrixKind::General);
        let big = h.solve(SolveRequest::new(1, b.clone())).unwrap();
        let little = h.solve(SolveRequest::new(2, b_small.clone())).unwrap();
        (big, little)
    });
    assert!(
        big.stats.distributed_factor,
        "n=64 ≥ min_n must go distributed"
    );
    assert!(big.residual <= 1e-10);
    assert!(big.x.allclose(&x_true, 1e-7));
    assert!(!little.stats.distributed_factor, "n=8 < min_n stays local");
    assert_eq!(report.stats.distributed_factors, 1);
}
