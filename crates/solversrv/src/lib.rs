//! `solversrv` — a multi-tenant batched factor-and-solve service.
//!
//! Every other entry point in this repo is a one-shot driver: factor a
//! matrix, print stats, exit. This crate is the serving layer on top of the
//! same kernels — the natural unit of production traffic for a
//! communication-avoiding factorization is *many cheap solves amortizing
//! one expensive factorization*, and the service is built around exactly
//! that asymmetry:
//!
//! * [`api`] — typed requests ([`SolveRequest`]), responses
//!   ([`SolveResponse`]) and errors ([`SolveError`]),
//! * [`fingerprint`] — content-addressed matrix identity (dims + FNV-1a
//!   over the element bit patterns; sparse matrices hash their CSR
//!   pattern *and* values under a domain tag),
//! * [`cache`] — a byte-budgeted LRU of [`denselin::LuFactorization`]s,
//!   Cholesky factors for SPD-tagged matrices, and prepared sparse
//!   preconditioner setups ([`sparselin::PrecondSetup`]) — the cacheable
//!   phase of a CG solve,
//! * [`service`] — the one serving engine, a pool of shard workers:
//!   bounded submission queue, admission control (`Err(Overloaded)`
//!   fast-fail, `InvalidInput` for malformed requests and operators),
//!   per-request deadlines, and
//!   **RHS batching** — concurrent solves against the same cached factor
//!   coalesce into one multi-RHS blocked-`trsm` pass so the factor is
//!   streamed from memory once instead of once per request. Sparse SPD
//!   systems register via [`service::SolverHandle::register_sparse`] and
//!   solve by preconditioned CG through the same queue, cache, deadline
//!   and batching machinery; their degradation path relaxes the CG
//!   tolerance ([`ServiceConfig::sparse_relax`]) instead of running
//!   refinement sweeps,
//! * [`stats`] — [`ServiceStats`] latency/throughput/cache snapshots,
//! * [`client`] — jittered retry/backoff submission helpers reusing
//!   [`simnet::RetryPolicy`]; one [`SolverHandle`] drives a single-node
//!   service and a cluster alike,
//! * [`cluster`] — the same engine with N shards: consistent-hash routing
//!   of fingerprints across shard services, hot-factor replication,
//!   crash-tolerant failover driven by [`simnet::FaultPlan`], tiered
//!   load shedding and rebalance-on-revive (see [`serve_cluster`]);
//!   [`serve`] is the one-shard case.
//!
//! Cold factorizations of sufficiently large matrices can optionally route
//! through the real distributed driver ([`conflux::factorize_threaded`])
//! via [`DistributedConfig`]; the resulting [`conflux::LuFactors`] handle
//! converts into the same cached [`denselin::LuFactorization`] shape.
//!
//! # Example
//!
//! ```
//! use denselin::Matrix;
//! use solversrv::{serve, MatrixKind, ServiceConfig, SolveRequest};
//!
//! let a = Matrix::from_fn(16, 16, |i, j| if i == j { 4.0 } else { 0.25 });
//! let b = Matrix::from_fn(16, 1, |i, _| i as f64);
//! let (resp, report) = serve(ServiceConfig::default(), |h| {
//!     h.register_matrix(7, a, MatrixKind::General);
//!     h.solve(SolveRequest::new(7, b)).unwrap()
//! });
//! assert!(resp.residual <= 1e-10);
//! assert_eq!(report.stats.completed, 1);
//! ```

#![warn(missing_docs)]

pub mod api;
pub mod cache;
pub mod client;
pub mod cluster;
mod exec;
pub mod fingerprint;
pub mod service;
pub mod stats;

pub use api::{MatrixKind, RequestStats, SolveError, SolveRequest, SolveResponse};
pub use cache::{CachedFactor, FactorCache};
pub use client::{solve_with_retry, solve_with_retry_seeded};
pub use cluster::{serve_cluster, ClusterConfig, ClusterReport, HashRing, ShedPolicy};
pub use fingerprint::Fingerprint;
pub use service::{serve, DistributedConfig, ServiceConfig, ServiceReport, SolverHandle, Ticket};
pub use sparselin::{CsrMatrix, Preconditioner};
pub use stats::{ClusterStats, ServiceStats, ShardSnapshot};
