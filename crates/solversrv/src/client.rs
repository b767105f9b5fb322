//! Client-side retry helper for overloaded services.
//!
//! Admission control turns overload into an explicit, immediate
//! [`SolveError::Overloaded`] (or one of the cluster's shedding errors)
//! instead of unbounded queueing; the polite client response is capped
//! exponential backoff — exactly the machinery [`simnet::RetryPolicy`]
//! already provides for faulty-network retransmission.
//!
//! Backoff here is *jittered*: a fleet of clients that all hit
//! `Overloaded` at the same instant and sleep the same deterministic
//! interval stampedes back in lockstep, re-overloading the service on
//! every wave (the thundering herd). [`RetryPolicy::jittered_backoff`]
//! spreads each client's retry uniformly below the exponential ceiling,
//! keyed by a per-call seed, so the herd decorrelates while every run
//! stays replayable.

use std::sync::atomic::{AtomicU64, Ordering};

use simnet::RetryPolicy;

use crate::api::{SolveError, SolveRequest, SolveResponse};
use crate::service::SolverHandle;

/// Process-wide counter handing each retry loop a distinct jitter seed,
/// so concurrent clients decorrelate without any coordination.
static NEXT_SEED: AtomicU64 = AtomicU64::new(0x5eed_0fc1_1e27);

/// Submit `req`, retrying with jittered exponential backoff while the
/// error is transient ([`SolveError::is_retryable`]). Any other outcome
/// returns immediately; a transient error that persists past
/// `policy.max_retries` attempts is returned as-is. Each call draws a
/// fresh jitter seed — see [`solve_with_retry_seeded`] for replayable
/// schedules.
pub fn solve_with_retry(
    handle: &SolverHandle,
    req: &SolveRequest,
    policy: &RetryPolicy,
) -> Result<SolveResponse, SolveError> {
    let seed = NEXT_SEED.fetch_add(1, Ordering::Relaxed);
    solve_with_retry_seeded(handle, req, policy, seed)
}

/// [`solve_with_retry`] with an explicit jitter seed: two runs passing
/// the same seeds observe identical backoff schedules, which is what the
/// chaos bench and the verifier need for reproducibility.
pub fn solve_with_retry_seeded(
    handle: &SolverHandle,
    req: &SolveRequest,
    policy: &RetryPolicy,
    seed: u64,
) -> Result<SolveResponse, SolveError> {
    let mut attempt = 0u32;
    loop {
        match handle.solve(req.clone()) {
            Err(e) if e.is_retryable() && attempt < policy.max_retries => {
                std::thread::sleep(policy.jittered_backoff(attempt, seed));
                attempt += 1;
            }
            other => return other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::MatrixKind;
    use crate::cluster::{serve_cluster, ClusterConfig};
    use crate::service::{serve, ServiceConfig};
    use denselin::Matrix;

    #[test]
    fn retry_succeeds_through_transient_overload() {
        // one worker, a queue of one: a burst of submissions from a single
        // client thread cannot overload it, but the retry path still has
        // to terminate and return the answer
        let cfg = ServiceConfig {
            workers: 1,
            max_queue: 1,
            ..ServiceConfig::default()
        };
        let a = Matrix::from_fn(8, 8, |i, j| if i == j { 3.0 } else { 0.1 });
        let b = Matrix::from_fn(8, 1, |i, _| 1.0 + i as f64);
        let ((), report) = serve(cfg, |h| {
            h.register_matrix(1, a.clone(), MatrixKind::General);
            let policy = RetryPolicy::default();
            for _ in 0..8 {
                let resp = solve_with_retry(h, &SolveRequest::new(1, b.clone()), &policy).unwrap();
                assert!(resp.residual <= 1e-10);
            }
        });
        assert_eq!(report.stats.completed, 8);
    }

    #[test]
    fn non_overload_errors_return_immediately() {
        let ((), _) = serve(ServiceConfig::default(), |h| {
            let req = SolveRequest::new(99, Matrix::zeros(4, 1));
            let err = solve_with_retry(h, &req, &RetryPolicy::default()).unwrap_err();
            assert_eq!(err, SolveError::UnknownMatrix { matrix_id: 99 });
        });
    }

    #[test]
    fn retry_drives_the_cluster_handle_too() {
        let cfg = ClusterConfig {
            shards: 2,
            replicas: 2,
            service: ServiceConfig {
                workers: 1,
                max_queue: 1,
                panel: 8,
                ..ServiceConfig::default()
            },
            ..ClusterConfig::default()
        };
        let a = Matrix::from_fn(8, 8, |i, j| if i == j { 4.0 } else { 0.2 });
        let b = Matrix::from_fn(8, 1, |i, _| 1.0 + i as f64);
        let ((), report) = serve_cluster(cfg, |h| {
            h.register_matrix(1, a.clone(), MatrixKind::General);
            let policy = RetryPolicy::default();
            for s in 0..6 {
                let resp = solve_with_retry_seeded(h, &SolveRequest::new(1, b.clone()), &policy, s)
                    .unwrap();
                assert!(resp.residual <= 1e-10);
            }
        });
        assert_eq!(report.stats.service.completed, 6);
        assert!(report.stats.accounted());
    }

    #[test]
    fn distinct_seeds_draw_distinct_backoffs() {
        // the decorrelation property the herd fix rests on, exercised
        // through the same policy the helpers use
        let policy = RetryPolicy::default();
        let draws: std::collections::HashSet<_> = (0..32u64)
            .map(|seed| policy.jittered_backoff(5, seed))
            .collect();
        assert!(
            draws.len() > 24,
            "seeds collapsed: {} distinct",
            draws.len()
        );
    }
}
