//! Request/response types and the service's typed error vocabulary.

use std::fmt;
use std::time::Duration;

use denselin::Matrix;

use crate::fingerprint::Fingerprint;

/// How a registered matrix should be factored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatrixKind {
    /// General square matrix: partial-pivoting LU.
    General,
    /// Caller asserts symmetric positive definiteness: Cholesky, which
    /// halves the factor flops and skips pivoting. If the assertion turns
    /// out false (`cholesky_blocked` fails), the service silently falls
    /// back to LU and counts the fallback in [`crate::ServiceStats`].
    SymmetricPositiveDefinite,
}

/// One solve request against a registered matrix.
#[derive(Clone, Debug)]
pub struct SolveRequest {
    /// Which registered matrix to solve against.
    pub matrix_id: u64,
    /// Right-hand side(s): `n × k` (each column is an independent system).
    pub rhs: Matrix,
    /// Relative residual `‖b − A·x‖_F/‖b‖_F` the caller will accept. When
    /// the direct solve misses it, the service degrades to iterative
    /// refinement before giving up.
    pub tolerance: f64,
    /// Maximum time the request may wait in the queue before workers
    /// abandon it with [`SolveError::DeadlineExceeded`]. `None` uses the
    /// service default (which may itself be "no deadline").
    pub deadline: Option<Duration>,
}

impl SolveRequest {
    /// A request with the default tolerance (`1e-10`) and no deadline.
    pub fn new(matrix_id: u64, rhs: Matrix) -> Self {
        SolveRequest {
            matrix_id,
            rhs,
            tolerance: 1e-10,
            deadline: None,
        }
    }

    /// Set the acceptable relative residual.
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// Set a queue-wait deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The admission check `submit` runs before touching any state: a
    /// NaN or negative tolerance, a zero-column RHS, or a non-finite RHS
    /// entry is [`SolveError::InvalidInput`]. A zero tolerance is legal
    /// (only an exact answer meets it).
    pub(crate) fn validate(&self) -> Result<(), SolveError> {
        let what = if self.tolerance.is_nan() {
            "NaN tolerance"
        } else if self.tolerance < 0.0 {
            "negative tolerance"
        } else if self.rhs.cols() == 0 {
            "empty rhs"
        } else if !self.rhs.as_slice().iter().all(|v| v.is_finite()) {
            "non-finite rhs entry"
        } else {
            return Ok(());
        };
        Err(SolveError::InvalidInput { what })
    }
}

/// Per-request execution record, returned inside every [`SolveResponse`].
#[derive(Clone, Debug, Default)]
pub struct RequestStats {
    /// Time spent queued before a worker picked the request up.
    pub queue_wait: Duration,
    /// Factorization time (zero on a cache hit).
    pub factor_time: Duration,
    /// Triangular-solve time (shared batch time; every member of a
    /// coalesced batch reports the same value).
    pub solve_time: Duration,
    /// Iterative-refinement time (zero unless the request degraded).
    pub refine_time: Duration,
    /// Did the factor come out of the cache?
    pub cache_hit: bool,
    /// How many requests were coalesced into the batch that solved this
    /// one (1 = solved alone).
    pub batch_size: usize,
    /// Did the request degrade to iterative refinement?
    pub refined: bool,
    /// Relative residual after each refinement sweep (empty unless
    /// `refined`; index 0 is the pre-refinement residual).
    pub refine_history: Vec<f64>,
    /// Was the factorization routed through `conflux::factorize_threaded`?
    pub distributed_factor: bool,
    /// Which kernel backed the solve (`"lu"`/`"cholesky"`/`"cg"`).
    pub kernel: &'static str,
    /// Conjugate-gradient iterations spent on this request, summed over
    /// its RHS columns (0 on the dense direct paths).
    pub cg_iterations: u64,
    /// Which cluster shard executed the solve (`None` on the single-node
    /// service).
    pub shard: Option<usize>,
    /// How many times the request was re-routed to a replica after a shard
    /// crash (0 = served where it was first admitted).
    pub failovers: u32,
    /// Content fingerprint of the factor that produced `x`, echoed so
    /// callers (and the verifier's zero-stale oracle) can assert the
    /// response was solved against exactly the matrix they registered.
    pub fingerprint: Option<Fingerprint>,
}

/// A completed solve.
#[derive(Clone, Debug)]
pub struct SolveResponse {
    /// The solution, same shape as the request's `rhs`.
    pub x: Matrix,
    /// Achieved relative residual `‖b − A·x‖_F/‖b‖_F`.
    pub residual: f64,
    /// How the request was executed.
    pub stats: RequestStats,
}

/// Everything that can go wrong with a solve request.
#[derive(Clone, Debug, PartialEq)]
pub enum SolveError {
    /// The request itself is malformed (a NaN or negative tolerance, an
    /// empty or non-finite RHS, an empty or non-finite matrix) and was
    /// refused at submission or registration, before any work.
    /// Definitive: resubmitting it fails identically.
    InvalidInput {
        /// What is wrong with it.
        what: &'static str,
    },
    /// Admission control rejected the request: the bounded submission
    /// queue is full. Callers should back off and retry (see
    /// [`crate::solve_with_retry`]).
    Overloaded {
        /// Queue depth observed at rejection time.
        depth: usize,
    },
    /// `matrix_id` was never registered.
    UnknownMatrix {
        /// The offending id.
        matrix_id: u64,
    },
    /// The RHS row count does not match the registered matrix.
    ShapeMismatch {
        /// Rows of the registered matrix.
        matrix_rows: usize,
        /// Rows of the submitted RHS.
        rhs_rows: usize,
    },
    /// The request waited in the queue past its deadline.
    DeadlineExceeded {
        /// How long it actually waited.
        waited: Duration,
        /// The deadline it carried.
        deadline: Duration,
    },
    /// Factorization hit an exactly singular column.
    Singular {
        /// First column with no usable pivot.
        column: usize,
    },
    /// A sparse CG solve found the operator not positive definite
    /// (`pᵀAp ≤ 0`). Definitive: CG cannot solve this system, retrying
    /// will fail identically.
    IndefiniteMatrix {
        /// CG iteration at which definiteness was lost.
        iteration: usize,
    },
    /// Even after iterative refinement the residual missed the requested
    /// tolerance. The partial result is discarded: no silent wrong
    /// answers.
    ToleranceNotMet {
        /// Best residual achieved.
        achieved: f64,
        /// What the request asked for.
        requested: f64,
        /// Refinement sweeps performed before giving up.
        sweeps: usize,
    },
    /// The service is shutting down and no longer accepts submissions.
    ShuttingDown,
    /// Cluster admission shed this request because it would require a cold
    /// factorization while the cluster is under load-shedding pressure
    /// (see `ShedPolicy`); cache hits are still being served. Retryable.
    ShedColdMiss {
        /// Cluster-wide queue depth observed at rejection time.
        depth: usize,
    },
    /// Every shard that replicates this request's fingerprint is currently
    /// crashed. Retryable: shards may be revived.
    NoLiveReplica {
        /// Shards currently alive (cluster-wide).
        live: usize,
        /// Total shards in the cluster.
        shards: usize,
    },
}

impl SolveError {
    /// True for errors a backing-off client should retry: transient
    /// overload and shedding states, plus total replica loss (shards can
    /// be revived). Everything else is a definitive answer.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            SolveError::Overloaded { .. }
                | SolveError::ShedColdMiss { .. }
                | SolveError::NoLiveReplica { .. }
        )
    }
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::InvalidInput { what } => write!(f, "invalid request: {what}"),
            SolveError::Overloaded { depth } => {
                write!(f, "service overloaded: submission queue full ({depth} pending)")
            }
            SolveError::UnknownMatrix { matrix_id } => {
                write!(f, "matrix {matrix_id} is not registered")
            }
            SolveError::ShapeMismatch {
                matrix_rows,
                rhs_rows,
            } => write!(
                f,
                "rhs has {rhs_rows} rows but the matrix has {matrix_rows}"
            ),
            SolveError::DeadlineExceeded { waited, deadline } => write!(
                f,
                "queued {:.3} ms, past the {:.3} ms deadline",
                waited.as_secs_f64() * 1e3,
                deadline.as_secs_f64() * 1e3
            ),
            SolveError::Singular { column } => {
                write!(f, "matrix is singular at column {column}")
            }
            SolveError::IndefiniteMatrix { iteration } => {
                write!(f, "matrix is not positive definite (detected at CG iteration {iteration})")
            }
            SolveError::ToleranceNotMet {
                achieved,
                requested,
                sweeps,
            } => write!(
                f,
                "residual {achieved:.3e} > tolerance {requested:.3e} after {sweeps} refinement sweeps"
            ),
            SolveError::ShuttingDown => write!(f, "service is shutting down"),
            SolveError::ShedColdMiss { depth } => write!(
                f,
                "cluster is shedding cold-miss factorizations ({depth} queued)"
            ),
            SolveError::NoLiveReplica { live, shards } => write!(
                f,
                "no live replica for this matrix ({live} of {shards} shards up)"
            ),
        }
    }
}

impl std::error::Error for SolveError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let r = SolveRequest::new(3, Matrix::zeros(4, 1))
            .with_tolerance(1e-6)
            .with_deadline(Duration::from_millis(5));
        assert_eq!(r.matrix_id, 3);
        assert_eq!(r.tolerance, 1e-6);
        assert_eq!(r.deadline, Some(Duration::from_millis(5)));
    }

    #[test]
    fn errors_display() {
        let cases: Vec<(SolveError, &str)> = vec![
            (
                SolveError::InvalidInput {
                    what: "NaN tolerance",
                },
                "invalid request: NaN tolerance",
            ),
            (SolveError::Overloaded { depth: 9 }, "overloaded"),
            (SolveError::UnknownMatrix { matrix_id: 1 }, "not registered"),
            (
                SolveError::ShapeMismatch {
                    matrix_rows: 4,
                    rhs_rows: 5,
                },
                "5 rows",
            ),
            (
                SolveError::DeadlineExceeded {
                    waited: Duration::from_millis(10),
                    deadline: Duration::from_millis(2),
                },
                "deadline",
            ),
            (SolveError::Singular { column: 3 }, "column 3"),
            (
                SolveError::IndefiniteMatrix { iteration: 2 },
                "CG iteration 2",
            ),
            (
                SolveError::ToleranceNotMet {
                    achieved: 1e-3,
                    requested: 1e-12,
                    sweeps: 4,
                },
                "4 refinement sweeps",
            ),
            (SolveError::ShuttingDown, "shutting down"),
            (SolveError::ShedColdMiss { depth: 7 }, "shedding cold-miss"),
            (
                SolveError::NoLiveReplica { live: 1, shards: 4 },
                "1 of 4 shards",
            ),
        ];
        for (err, needle) in cases {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn retryability_matches_transient_states() {
        assert!(SolveError::Overloaded { depth: 1 }.is_retryable());
        assert!(SolveError::ShedColdMiss { depth: 1 }.is_retryable());
        assert!(SolveError::NoLiveReplica { live: 0, shards: 2 }.is_retryable());
        assert!(!SolveError::ShuttingDown.is_retryable());
        assert!(!SolveError::Singular { column: 0 }.is_retryable());
        assert!(!SolveError::IndefiniteMatrix { iteration: 0 }.is_retryable());
        assert!(!SolveError::UnknownMatrix { matrix_id: 9 }.is_retryable());
        assert!(!SolveError::InvalidInput { what: "x" }.is_retryable());
    }
}
