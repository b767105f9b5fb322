//! End-to-end tests of the sparse (CG) kernel family through the service:
//! registration, setup caching and amortization, bitwise repeatability,
//! degradation by tolerance relaxation, and typed failures.

use std::time::Duration;

use denselin::{Matrix, SplitMix64};
use solversrv::{serve, MatrixKind, Preconditioner, ServiceConfig, SolveError, SolveRequest};
use sparselin::{spd_laplacian, CsrMatrix};

fn rhs(n: usize, k: usize, seed: u64) -> Matrix {
    let mut r = SplitMix64::new(seed);
    Matrix::from_fn(n, k, |_, _| r.symmetric())
}

#[test]
fn sparse_solve_end_to_end() {
    let a = spd_laplacian(12, 11, 0.3);
    let n = a.rows();
    let b = rhs(n, 2, 7);
    let (resp, report) = serve(ServiceConfig::default(), |h| {
        h.register_sparse(1, a.clone(), Preconditioner::SymGs)
            .unwrap();
        h.solve(SolveRequest::new(1, b.clone()).with_tolerance(1e-9))
            .unwrap()
    });
    assert!(resp.residual <= 1e-9, "residual {}", resp.residual);
    assert_eq!(resp.stats.kernel, "cg");
    assert!(resp.stats.cg_iterations > 0);
    assert!(!resp.stats.cache_hit, "first solve must be a setup miss");
    assert_eq!(report.stats.completed, 1);
    // check A·x ≈ b independently of the service's own residual claim
    let mut ax = vec![0.0; n];
    for j in 0..b.cols() {
        let xcol: Vec<f64> = (0..n).map(|i| resp.x[(i, j)]).collect();
        sparselin::spmv(&a, &xcol, &mut ax).unwrap();
        for i in 0..n {
            assert!((ax[i] - b[(i, j)]).abs() < 1e-6, "col {j} row {i}");
        }
    }
}

#[test]
fn setup_cache_amortizes_and_hits_are_bitwise() {
    let a = spd_laplacian(10, 10, 0.2);
    let b = rhs(a.rows(), 1, 3);
    let ((first, second), report) = serve(ServiceConfig::default(), |h| {
        h.register_sparse(5, a.clone(), Preconditioner::SymGs)
            .unwrap();
        let first = h.solve(SolveRequest::new(5, b.clone())).unwrap();
        let second = h.solve(SolveRequest::new(5, b.clone())).unwrap();
        (first, second)
    });
    // miss pays the level-analysis setup; hit skips it entirely
    assert!(!first.stats.cache_hit);
    assert!(second.stats.cache_hit);
    assert!(first.stats.factor_time > Duration::ZERO);
    assert_eq!(second.stats.factor_time, Duration::ZERO);
    assert!(report.stats.cache_hits >= 1);
    assert!(report.stats.cache_bytes > 0, "setup bytes accounted");
    // identical request against the cached setup: bitwise identical answer
    assert_eq!(first.x.shape(), second.x.shape());
    for i in 0..first.x.rows() {
        assert_eq!(first.x[(i, 0)].to_bits(), second.x[(i, 0)].to_bits());
    }
}

#[test]
fn same_matrix_different_preconditioner_is_a_distinct_entry() {
    let a = spd_laplacian(8, 8, 0.5);
    let b = rhs(a.rows(), 1, 11);
    let (fps, _) = serve(ServiceConfig::default(), |h| {
        let fp_j = h
            .register_sparse(1, a.clone(), Preconditioner::Jacobi)
            .unwrap();
        let fp_g = h
            .register_sparse(2, a.clone(), Preconditioner::SymGs)
            .unwrap();
        h.solve(SolveRequest::new(1, b.clone())).unwrap();
        h.solve(SolveRequest::new(2, b.clone())).unwrap();
        (fp_j, fp_g)
    });
    assert_ne!(fps.0, fps.1, "preconditioner must be part of the cache key");
}

#[test]
fn relaxed_tolerance_degradation_is_flagged() {
    let a = spd_laplacian(9, 9, 0.1);
    let b = rhs(a.rows(), 1, 5);
    // unreachable tolerance (1e-30 is below attainable f64 precision), with
    // a relaxation window wide enough to accept the ~1e-16 CG floor: the
    // solve must come back degraded (refined=true) with the history attached
    let cfg = ServiceConfig {
        sparse_relax: 1e25, // relaxed bound: 1e-30 × 1e25 = 1e-5
        ..ServiceConfig::default()
    };
    let (resp, report) = serve(cfg, |h| {
        h.register_sparse(1, a.clone(), Preconditioner::Jacobi)
            .unwrap();
        h.solve(SolveRequest::new(1, b.clone()).with_tolerance(1e-30))
            .unwrap()
    });
    assert!(resp.stats.refined, "must be flagged as degraded");
    assert!(!resp.stats.refine_history.is_empty());
    assert!(resp.residual > 1e-30 && resp.residual < 1e-5);
    assert_eq!(report.stats.refined, 1);
}

#[test]
fn unrelaxed_miss_is_tolerance_not_met() {
    let a = spd_laplacian(9, 9, 0.1);
    let b = rhs(a.rows(), 1, 5);
    let cfg = ServiceConfig {
        sparse_relax: 1.0, // disable degradation
        ..ServiceConfig::default()
    };
    let (err, report) = serve(cfg, |h| {
        h.register_sparse(1, a.clone(), Preconditioner::Jacobi)
            .unwrap();
        h.solve(SolveRequest::new(1, b.clone()).with_tolerance(1e-30))
            .unwrap_err()
    });
    assert!(matches!(err, SolveError::ToleranceNotMet { .. }), "{err}");
    assert_eq!(report.stats.failed, 1);
}

#[test]
fn nan_rhs_fails_typed_instead_of_ok() {
    // one NaN entry is refused at submission, before any CG iteration
    let a = spd_laplacian(12, 11, 0.3);
    let mut b = rhs(a.rows(), 1, 7);
    b[(5, 0)] = f64::NAN;
    let (err, report) = serve(ServiceConfig::default(), |h| {
        h.register_sparse(1, a.clone(), Preconditioner::SymGs)
            .unwrap();
        h.solve(SolveRequest::new(1, b.clone())).unwrap_err()
    });
    assert_eq!(
        err,
        SolveError::InvalidInput {
            what: "non-finite rhs entry"
        }
    );
    assert_eq!(report.stats.submitted, 0);
}

#[test]
fn nan_matrix_entry_fails_typed_instead_of_ok() {
    // a NaN in the operator is refused at registration: nothing is set up,
    // queued or solved, and the id stays unregistered
    let mut dense = spd_laplacian(12, 11, 0.3).to_dense();
    dense[(5, 6)] = f64::NAN;
    dense[(6, 5)] = f64::NAN;
    let a = CsrMatrix::from_dense(&dense);
    let b = rhs(a.rows(), 1, 7);
    let ((reg, res), report) = serve(ServiceConfig::default(), |h| {
        let reg = h.register_sparse(1, a.clone(), Preconditioner::Jacobi);
        (reg, h.solve(SolveRequest::new(1, b.clone())))
    });
    let err = reg.expect_err("a NaN operator must not register");
    assert_eq!(
        err,
        SolveError::InvalidInput {
            what: "non-finite matrix entry"
        }
    );
    assert!(res.is_err(), "a NaN operator must not produce Ok");
    assert_eq!(report.stats.submitted, 0);
    assert_eq!(report.stats.cache_misses, 0, "nothing was set up");
}

#[test]
fn indefinite_sparse_matrix_fails_typed() {
    // -I is negative definite: CG detects pᵀAp ≤ 0 on the first step
    let neg = CsrMatrix::from_triplets(
        4,
        4,
        &[(0, 0, -1.0), (1, 1, -1.0), (2, 2, -1.0), (3, 3, -1.0)],
    )
    .unwrap();
    let (err, _) = serve(ServiceConfig::default(), |h| {
        h.register_sparse(1, neg.clone(), Preconditioner::None)
            .unwrap();
        h.solve(SolveRequest::new(
            1,
            Matrix::from_fn(4, 1, |i, _| 1.0 + i as f64),
        ))
        .unwrap_err()
    });
    assert!(
        matches!(err, SolveError::IndefiniteMatrix { iteration: 0 }),
        "{err}"
    );
    assert!(!err.is_retryable());
}

#[test]
fn zero_diagonal_setup_fails_as_singular() {
    // row 1 has no diagonal entry: Jacobi setup cannot invert D
    let a = CsrMatrix::from_triplets(3, 3, &[(0, 0, 2.0), (1, 0, 1.0), (2, 2, 2.0)]).unwrap();
    let (err, _) = serve(ServiceConfig::default(), |h| {
        h.register_sparse(1, a.clone(), Preconditioner::Jacobi)
            .unwrap();
        h.solve(SolveRequest::new(1, Matrix::zeros(3, 1)))
            .unwrap_err()
    });
    assert!(matches!(err, SolveError::Singular { column: 1 }), "{err}");
}

#[test]
fn sparse_registration_rejects_non_square() {
    let a = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (1, 1, 1.0)]).unwrap();
    let (res, _) = serve(ServiceConfig::default(), |h| {
        h.register_sparse(1, a.clone(), Preconditioner::None)
    });
    assert!(matches!(res, Err(SolveError::ShapeMismatch { .. })));
}

#[test]
fn dense_and_sparse_families_coexist() {
    let sparse = spd_laplacian(7, 7, 1.0);
    let n = sparse.rows();
    let dense = Matrix::from_fn(n, n, |i, j| {
        if i == j {
            4.0
        } else {
            0.5 / (1.0 + (i + j) as f64)
        }
    });
    let b = rhs(n, 1, 9);
    let ((ds, sp), report) = serve(ServiceConfig::default(), |h| {
        h.register_matrix(1, dense.clone(), MatrixKind::General);
        h.register_sparse(2, sparse.clone(), Preconditioner::SymGs)
            .unwrap();
        let ds = h.solve(SolveRequest::new(1, b.clone())).unwrap();
        let sp = h.solve(SolveRequest::new(2, b.clone())).unwrap();
        (ds, sp)
    });
    assert_eq!(ds.stats.kernel, "lu");
    assert_eq!(sp.stats.kernel, "cg");
    assert!(ds.residual <= 1e-10 && sp.residual <= 1e-10);
    assert_eq!(report.stats.completed, 2);
    // both factor families live in the same byte-budgeted cache
    assert_eq!(report.stats.cache_entries, 2);
}

#[test]
fn sparse_batch_coalesces_on_shared_fingerprint() {
    let a = spd_laplacian(8, 9, 0.4);
    let n = a.rows();
    // single worker + a slow lead: riders pile up behind the same
    // fingerprint and coalesce into the lead's batch
    let cfg = ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    };
    let (resps, report) = serve(cfg, |h| {
        h.register_sparse(1, a.clone(), Preconditioner::Jacobi)
            .unwrap();
        // warm the setup so every submission below is a cache hit
        h.solve(SolveRequest::new(1, rhs(n, 1, 0))).unwrap();
        let tickets: Vec<_> = (0..6)
            .map(|s| {
                h.submit(SolveRequest::new(1, rhs(n, 1, 100 + s as u64)))
                    .unwrap()
            })
            .collect();
        tickets
            .into_iter()
            .map(|t| t.wait().unwrap())
            .collect::<Vec<_>>()
    });
    assert_eq!(resps.len(), 6);
    assert!(resps.iter().all(|r| r.residual <= 1e-10));
    assert!(resps.iter().all(|r| r.stats.cache_hit));
    assert!(
        resps.iter().any(|r| r.stats.batch_size > 1),
        "at least one batch should have coalesced"
    );
    assert_eq!(report.stats.completed, 7);
}
