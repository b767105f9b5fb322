//! The differential oracle: run one [`Scenario`] through every
//! implementation in the workspace and check the results against each other
//! and against the [`crate::invariants`] battery.
//!
//! The contracts, per kernel:
//!
//! * **LU** — `denselin::lu_blocked` (serial reference), the
//!   lookahead-pipelined `denselin::lu_parallel` (which must be *bitwise*
//!   identical to the serial reference at every thread count), the
//!   orchestrated COnfLUX driver, the threaded SPMD driver (when the
//!   scenario meets its restrictions), the 2D ScaLAPACK-like baseline, and
//!   the CANDMC-like 2.5D baseline. Every implementation that returns
//!   factors must achieve
//!   a class-aware residual; implementations may only *decline* (error) on
//!   degenerate inputs or under a fatal fault plan. The 2D baseline uses
//!   partial pivoting like the serial reference, so their permutations must
//!   match **exactly**; the threaded driver runs the same tournament
//!   algorithm as the orchestrated one, so their factors must agree to
//!   roundoff and their volume counters must agree exactly.
//! * **Cholesky** — the 2.5D driver vs `denselin::cholesky_blocked`: both
//!   residuals small, and the (unique) lower factors close.
//! * **Solve** — `solversrv`: a cache-hit solve is bitwise identical to the
//!   cache-miss solve and to driving the same blocked factorization
//!   directly; a batched multi-RHS solve matches per-column solves; a NaN
//!   RHS entry, a NaN or negative tolerance, a zero-column RHS, and a
//!   non-finite or empty matrix are declined with the typed
//!   `InvalidInput`, never queued or factored.
//! * **Sparse** — `sparselin`: parallel SpMV is bitwise identical to the
//!   serial kernel at every thread count; CG on the seeded SPD pattern
//!   matches densifying the same matrix and solving by blocked LU; the
//!   A-norm of the CG error is monotonically non-increasing (the textbook
//!   optimality property); and the sparse serving path through `solversrv`
//!   is cache-transparent and bitwise repeatable.

use std::panic::{catch_unwind, AssertUnwindSafe};

use baselines::lu2d::{factorize_2d, Lu2dConfig, Variant};
use baselines::{factorize_candmc, CandmcConfig};
use conflux::{
    factorize_cholesky, try_factorize, try_factorize_threaded, CholeskyConfig, ConfluxConfig,
    LuCause, LuGrid,
};
use denselin::cholesky::cholesky_residual;
use denselin::{
    cholesky_blocked, lu_blocked, lu_parallel_with, LuFactorization, Matrix, SplitMix64,
};
use simnet::{CommStats, FaultPlan, Supervisor, Trace};
use solversrv::{
    serve, serve_cluster, ClusterConfig, MatrixKind, ServiceConfig, SolveError, SolveRequest,
};

use sparselin::{
    banded, cg, random_density, spd_laplacian, spmv, spmv_parallel, CgConfig, CsrMatrix,
    PrecondSetup, Preconditioner,
};

use crate::invariants::{check_all, default_invariants, Invariant, RunArtifacts};
use crate::matgen;
use crate::scenario::{FaultSpec, Kernel, MatrixClass, Scenario, SparsePattern, SparsePrecond};

/// A residual above this (or a non-finite one) classifies a factorization
/// as degenerate rather than merely inaccurate.
pub const DEGENERATE_RESIDUAL: f64 = 1e-3;

/// Problems below this order are exempt from the asymptotic I/O
/// lower-bound invariant: the paper's `2N³/(3P√M)` leading term only
/// dominates the lower-order terms it drops once the matrix is reasonably
/// large (the repo's measurement experiments start at `n = 1024`).
pub const VOLUME_BOUND_MIN_N: usize = 1024;

/// Outcome of one named check within a scenario.
#[derive(Clone, Debug)]
pub struct CheckOutcome {
    /// Stable check name (`"lu2d-perm-matches-serial"`, ...).
    pub name: String,
    /// Did it hold?
    pub passed: bool,
    /// Supporting detail (empty when passing and nothing interesting).
    pub detail: String,
}

impl CheckOutcome {
    fn pass(name: impl Into<String>, detail: impl Into<String>) -> Self {
        CheckOutcome {
            name: name.into(),
            passed: true,
            detail: detail.into(),
        }
    }

    fn fail(name: impl Into<String>, detail: impl Into<String>) -> Self {
        CheckOutcome {
            name: name.into(),
            passed: false,
            detail: detail.into(),
        }
    }

    fn from(name: impl Into<String>, result: Result<String, String>) -> Self {
        match result {
            Ok(d) => CheckOutcome::pass(name, d),
            Err(d) => CheckOutcome::fail(name, d),
        }
    }
}

/// Everything the oracle learned about one scenario.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// The scenario that was run.
    pub scenario: Scenario,
    /// Every check that was evaluated.
    pub outcomes: Vec<CheckOutcome>,
}

impl ScenarioReport {
    /// Did every check pass?
    pub fn passed(&self) -> bool {
        self.outcomes.iter().all(|o| o.passed)
    }

    /// The failing checks.
    pub fn failures(&self) -> Vec<&CheckOutcome> {
        self.outcomes.iter().filter(|o| !o.passed).collect()
    }

    /// One-line summary (`PASS`/`FAIL <names>`).
    pub fn summary(&self) -> String {
        if self.passed() {
            format!("PASS {}", self.scenario)
        } else {
            let names: Vec<&str> = self.failures().iter().map(|o| o.name.as_str()).collect();
            format!("FAIL [{}] {}", names.join(", "), self.scenario)
        }
    }
}

/// Class-aware residual tolerance: what a *correct* implementation may
/// legitimately produce on this input.
pub fn residual_tolerance(class: MatrixClass, n: usize) -> f64 {
    match class {
        MatrixClass::Well | MatrixClass::DiagDom => 1e-9,
        MatrixClass::Ill | MatrixClass::Hilbert => 1e-8,
        // pivoting keeps LU backward-stable even on (near-)singular input
        MatrixClass::NearSingular | MatrixClass::RankDef => 1e-6,
        // residual scales with the 2^(n-1) element growth
        MatrixClass::Wilkinson => (2f64.powi(n as i32 - 1) * n as f64 * 1e-14).max(1e-9),
    }
}

/// What one LU implementation produced.
enum LuOutcome {
    /// Factors with their residual, growth factor, and permutation.
    Factored {
        residual: f64,
        growth: f64,
        perm: Vec<usize>,
        factors: LuFactorization,
    },
    /// A structured refusal (singularity error, fatal fault, or panic).
    Declined(String),
}

fn classify(f: LuFactorization, a: &Matrix) -> LuOutcome {
    let residual = f.residual(a);
    if !residual.is_finite() || residual > DEGENERATE_RESIDUAL {
        return LuOutcome::Declined(format!("degenerate residual {residual:.3e}"));
    }
    LuOutcome::Factored {
        residual,
        growth: f.growth_factor(a),
        perm: f.perm.clone(),
        factors: f,
    }
}

/// Checks common to every LU implementation: a returned factorization must
/// meet the class tolerance; refusal is only legitimate on degenerate
/// classes (or when `may_abort`, e.g. an unrecoverable crash plan).
fn judge_lu(
    label: &str,
    outcome: &LuOutcome,
    sc: &Scenario,
    may_abort: bool,
    out: &mut Vec<CheckOutcome>,
) {
    let name = format!("{label}-residual");
    match outcome {
        LuOutcome::Factored { residual, .. } => {
            let tol = residual_tolerance(sc.class, sc.n());
            if *residual <= tol {
                out.push(CheckOutcome::pass(
                    name,
                    format!("{residual:.3e} <= {tol:.1e}"),
                ));
            } else {
                out.push(CheckOutcome::fail(
                    name,
                    format!("residual {residual:.3e} exceeds class tolerance {tol:.1e}"),
                ));
            }
        }
        LuOutcome::Declined(why) => {
            let legitimate =
                may_abort || matches!(sc.class, MatrixClass::NearSingular | MatrixClass::RankDef);
            if legitimate {
                out.push(CheckOutcome::pass(
                    name,
                    format!("legitimately declined: {why}"),
                ));
            } else {
                out.push(CheckOutcome::fail(
                    name,
                    format!("declined a solvable {:?} input: {why}", sc.class),
                ));
            }
        }
    }
}

/// Apply the invariant battery to one run's artifacts.
#[allow(clippy::too_many_arguments)]
fn judge_invariants(
    label: &str,
    invs: &[Box<dyn Invariant>],
    stats: &CommStats,
    trace: Option<&Trace>,
    lossy: bool,
    growth: Option<f64>,
    sc: &Scenario,
    out: &mut Vec<CheckOutcome>,
) {
    let bound_per_rank = (sc.n() >= VOLUME_BOUND_MIN_N && sc.ranks() > 1).then(|| {
        let grid = LuGrid::new(sc.ranks(), sc.q, sc.c);
        let m = grid.memory_per_rank(sc.n()) as f64;
        iobound::lu_bound(sc.n() as f64, m).parallel(grid.active())
    });
    let art = RunArtifacts {
        label,
        stats,
        trace,
        lossy,
        bound_per_rank,
        growth,
        n: sc.n(),
    };
    let violations = check_all(invs, &art);
    let name = format!("{label}-invariants");
    if violations.is_empty() {
        out.push(CheckOutcome::pass(name, ""));
    } else {
        let detail = violations
            .iter()
            .map(|v| format!("{}: {}", v.invariant, v.detail))
            .collect::<Vec<_>>()
            .join("; ");
        out.push(CheckOutcome::fail(name, detail));
    }
}

fn fault_plan(sc: &Scenario) -> FaultPlan {
    match sc.faults {
        FaultSpec::None => FaultPlan::none(),
        FaultSpec::Drop(m) => FaultPlan::new(sc.mseed).with_drop_rate(m as f64 / 1000.0),
        FaultSpec::Dup(m) => FaultPlan::new(sc.mseed).with_duplicate_rate(m as f64 / 1000.0),
        FaultSpec::Crash { rank, step } => FaultPlan::new(sc.mseed).with_crash(rank, step),
    }
}

/// Run a scenario through every applicable implementation and contract.
pub fn run_scenario(sc: &Scenario) -> ScenarioReport {
    let outcomes = match sc.kernel {
        Kernel::Lu => run_lu(sc),
        Kernel::Cholesky => run_cholesky(sc),
        Kernel::Solve => run_solve(sc),
        Kernel::Sparse => run_sparse(sc),
    };
    ScenarioReport {
        scenario: sc.clone(),
        outcomes,
    }
}

// ---------------------------------------------------------------------------
// LU
// ---------------------------------------------------------------------------

/// Serializes microkernel pinning against ordinary LU runs in the same
/// process: forcing a variant flips the *process-wide* dispatch, so a
/// pinned scenario takes the write side while unpinned scenarios (whose
/// bitwise serial-vs-parallel contracts assume a stable selection) share
/// the read side. Poisoning is ignored — the guard protects timing, not
/// data.
static UKERNEL_GATE: std::sync::RwLock<()> = std::sync::RwLock::new(());

fn run_lu(sc: &Scenario) -> Vec<CheckOutcome> {
    let n = sc.n();
    let a = matgen::matrix(sc.class, n, sc.mseed);
    let invs = default_invariants();
    let mut out = Vec::new();

    // --- pinned microkernel dispatch --------------------------------------
    let _shared;
    let _exclusive;
    let _force;
    match sc.ukernel {
        None => {
            _shared = Some(
                UKERNEL_GATE
                    .read()
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
            );
            _exclusive = None;
            _force = None;
        }
        Some(name) => {
            _shared = None;
            _exclusive = Some(
                UKERNEL_GATE
                    .write()
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
            );
            match denselin::force_kernel(name) {
                Ok(guard) => {
                    let krn = denselin::selected_kernel();
                    out.push(CheckOutcome::from(
                        "ukernel-dispatch",
                        if krn.name == name {
                            Ok(format!("forced `{name}` (mr={} nr={})", krn.mr, krn.nr))
                        } else {
                            Err(format!(
                                "forced `{name}` but dispatch selected `{}`",
                                krn.name
                            ))
                        },
                    ));
                    // With the variant pinned, tie the scenario to the
                    // parity oracle directly: the public dispatch path must
                    // reproduce the scalar emulator bit for bit on a probe
                    // derived from the scenario's own matrix data.
                    let blk = denselin::GemmBlocking::default();
                    let pm = n.min(24);
                    let pa = a.block(0, 0, pm, pm);
                    let mut probe = Matrix::zeros(pm, pm);
                    let serial = denselin::GemmConfig::serial();
                    denselin::gemm_with(&mut probe, (0, 0), 1.0, &pa, &pa, 0.0, &serial);
                    let mut emulated = Matrix::zeros(pm, pm);
                    denselin::gemm_emulated(&mut emulated, 1.0, &pa, &pa, 0.0, blk.kc, krn.fused);
                    out.push(CheckOutcome::from(
                        "ukernel-gemm-parity",
                        if probe.as_slice() == emulated.as_slice() {
                            Ok(format!("`{name}` bitwise-matches emulator (kc={})", blk.kc))
                        } else {
                            Err(format!("`{name}` diverges from the scalar emulator"))
                        },
                    ));
                    _force = Some(guard);
                }
                Err(e) if e.contains("not supported") => {
                    // A corpus line from a wider-ISA host: skipping is the
                    // contract (never a wrong kernel, never a failure).
                    out.push(CheckOutcome::pass(
                        "ukernel-dispatch",
                        format!("skipped: {e}"),
                    ));
                    return out;
                }
                Err(e) => {
                    out.push(CheckOutcome::fail("ukernel-dispatch", e));
                    return out;
                }
            }
        }
    }

    // --- serial reference -------------------------------------------------
    let serial = match catch_unwind(AssertUnwindSafe(|| lu_blocked(&a, sc.v))) {
        Err(_) => LuOutcome::Declined("panicked".into()),
        Ok(Err(e)) => LuOutcome::Declined(format!("{e:?}")),
        Ok(Ok(f)) => classify(f, &a),
    };
    judge_lu("serial", &serial, sc, false, &mut out);

    // --- lookahead-pipelined parallel LU ----------------------------------
    // The pipeline reorders *work* (panel k+1 overlaps the trailing update
    // of step k) but never reassociates arithmetic, so its contract with
    // the serial reference is bitwise equality — not just "close": the
    // permutation, sign, packed factors, and any singularity refusal must
    // all be identical at every thread count. Derive the thread count from
    // the scenario seed so the fuzz corpus sweeps 1..=8 deterministically.
    let lupar_threads = 1 + (sc.mseed % 8) as usize;
    let lupar = match catch_unwind(AssertUnwindSafe(|| {
        lu_parallel_with(&a, sc.v, lupar_threads)
    })) {
        Err(_) => LuOutcome::Declined("panicked".into()),
        Ok(Err(e)) => LuOutcome::Declined(format!("{e:?}")),
        Ok(Ok(f)) => classify(f, &a),
    };
    judge_lu("lupar", &lupar, sc, false, &mut out);
    let parity = match (&lupar, &serial) {
        (LuOutcome::Factored { factors: pf, .. }, LuOutcome::Factored { factors: sf, .. }) => {
            let mut problems = Vec::new();
            if pf.perm != sf.perm {
                problems.push("permutations differ".to_string());
            }
            if pf.sign != sf.sign {
                problems.push(format!("signs differ ({} vs {})", pf.sign, sf.sign));
            }
            if pf.lu.as_slice() != sf.lu.as_slice() {
                problems.push("packed factors differ bitwise".to_string());
            }
            if problems.is_empty() {
                Ok(format!("bitwise identical at {lupar_threads} threads"))
            } else {
                Err(problems.join("; "))
            }
        }
        (LuOutcome::Declined(p), LuOutcome::Declined(s)) => {
            if p == s {
                Ok(format!("both declined identically: {p}"))
            } else {
                Err(format!("declines differ: lupar '{p}' vs serial '{s}'"))
            }
        }
        (LuOutcome::Factored { .. }, LuOutcome::Declined(s)) => {
            Err(format!("lupar factored where serial declined ({s})"))
        }
        (LuOutcome::Declined(p), LuOutcome::Factored { .. }) => {
            Err(format!("lupar declined ({p}) where serial factored"))
        }
    };
    out.push(CheckOutcome::from("lupar-matches-serial-bitwise", parity));

    // --- orchestrated COnfLUX --------------------------------------------
    let grid = LuGrid::new(sc.ranks(), sc.q, sc.c);
    let cfg = ConfluxConfig::dense(n, sc.v, grid)
        .with_timeline()
        .with_faults(fault_plan(sc));
    let lossy = matches!(sc.faults, FaultSpec::Drop(_));
    let is_crash = matches!(sc.faults, FaultSpec::Crash { .. });
    let conflux_run = catch_unwind(AssertUnwindSafe(|| try_factorize(&cfg, Some(&a))));
    let mut conflux_outcome = None;
    match conflux_run {
        Err(_) => {
            judge_lu(
                "conflux",
                &LuOutcome::Declined("panicked".into()),
                sc,
                false,
                &mut out,
            );
        }
        Ok(Err(err)) if matches!(err.error, LuCause::Singular { .. }) => {
            // a singular pivot block is a refusal of the input, judged like
            // any other implementation's decline
            judge_lu(
                "conflux",
                &LuOutcome::Declined(format!("{err}")),
                sc,
                false,
                &mut out,
            );
        }
        Ok(Err(err)) => {
            // a structured abort is only legitimate for an unrecoverable
            // crash plan (a dead rank with no replica layer to fail over to)
            if is_crash {
                out.push(CheckOutcome::pass(
                    "conflux-residual",
                    format!("structured abort under crash plan: {err}"),
                ));
            } else {
                out.push(CheckOutcome::fail(
                    "conflux-residual",
                    format!("aborted without a fatal fault plan: {err}"),
                ));
            }
            judge_invariants("conflux", &invs, &err.stats, None, true, None, sc, &mut out);
        }
        Ok(Ok(run)) => {
            let outcome = match run.factors.as_ref() {
                Some(f) => classify(f.to_factorization(), &a),
                None => LuOutcome::Declined("dense run returned no factors".into()),
            };
            judge_lu("conflux", &outcome, sc, false, &mut out);
            if is_crash && sc.c > 1 && sc.ranks() > 2 {
                // a crash with replication must take the failover path;
                // on a 2-rank grid the notification broadcast has a single
                // survivor and charges no volume, so no phase appears
                let failed_over = run.stats.phases().iter().any(|ph| ph.contains("failover"));
                out.push(CheckOutcome::from(
                    "conflux-failover",
                    if failed_over {
                        Ok("failover phase present".into())
                    } else {
                        Err("crash plan with c > 1 left no failover phase".into())
                    },
                ));
            }
            let growth = match &outcome {
                LuOutcome::Factored { growth, .. } => Some(*growth),
                _ => None,
            };
            judge_invariants(
                "conflux",
                &invs,
                &run.stats,
                run.timeline.as_ref(),
                lossy || is_crash,
                growth,
                sc,
                &mut out,
            );
            conflux_outcome = Some((outcome, run));
        }
    }

    // --- threaded SPMD driver --------------------------------------------
    if sc.threaded_eligible() && sc.faults == FaultSpec::None {
        let tcfg = ConfluxConfig::dense(n, sc.v, LuGrid::new(sc.ranks(), sc.q, sc.c));
        let threaded = catch_unwind(AssertUnwindSafe(|| {
            try_factorize_threaded(&tcfg, &a, Supervisor::default())
        }));
        match threaded {
            Err(_) => {
                judge_lu(
                    "threaded",
                    &LuOutcome::Declined("panicked".into()),
                    sc,
                    false,
                    &mut out,
                );
            }
            Ok(Err(err)) => {
                judge_lu(
                    "threaded",
                    &LuOutcome::Declined(format!("{err}")),
                    sc,
                    false,
                    &mut out,
                );
            }
            Ok(Ok(run)) => {
                let outcome = match run.factors.as_ref() {
                    Some(f) => classify(f.to_factorization(), &a),
                    None => LuOutcome::Declined("dense run returned no factors".into()),
                };
                judge_lu("threaded", &outcome, sc, false, &mut out);
                // the threaded driver runs the identical algorithm on the
                // identical data: factors and volumes must agree with the
                // orchestrated accountant
                if let (
                    LuOutcome::Factored { perm, factors, .. },
                    Some((
                        LuOutcome::Factored {
                            perm: operm,
                            factors: ofact,
                            ..
                        },
                        orun,
                    )),
                ) = (&outcome, &conflux_outcome)
                {
                    let mut problems = Vec::new();
                    // With c == 1 there is no layered Schur reduction, so
                    // both backends perform the identical arithmetic and
                    // the factors must agree to roundoff. With c > 1 the
                    // threaded binomial reduce associates the layer sum as
                    // a tree while the orchestrated accountant folds
                    // sequentially; on well-conditioned input that stays
                    // in the last ulps, but ill-conditioned classes may
                    // legitimately amplify the reassociation, so there the
                    // residual and volume contracts carry the comparison.
                    let exact =
                        sc.c == 1 || matches!(sc.class, MatrixClass::Well | MatrixClass::DiagDom);
                    if exact {
                        if perm != operm {
                            problems.push("permutations differ".to_string());
                        }
                        let scale = ofact.lu.max_norm().max(1.0);
                        if !factors.lu.allclose(&ofact.lu, 1e-10 * scale) {
                            problems.push("factors differ beyond roundoff".to_string());
                        }
                        // row-masking volumes depend on the pivot choice,
                        // so counter equality is only guaranteed while the
                        // arithmetic (hence the tournament) is identical
                        if run.stats != orun.stats {
                            problems.push(format!(
                                "volume counters diverge:\n--- threaded ---\n{}\n--- orchestrated ---\n{}",
                                run.stats.phase_table(),
                                orun.stats.phase_table()
                            ));
                        }
                    }
                    out.push(CheckOutcome::from(
                        "threaded-matches-orchestrated",
                        if problems.is_empty() {
                            Ok("perm, factors, volumes agree".into())
                        } else {
                            Err(problems.join("; "))
                        },
                    ));
                }
                let growth = match &outcome {
                    LuOutcome::Factored { growth, .. } => Some(*growth),
                    _ => None,
                };
                judge_invariants(
                    "threaded",
                    &invs,
                    &run.stats,
                    run.timeline.as_ref(),
                    false,
                    growth,
                    sc,
                    &mut out,
                );
            }
        }
    }

    // --- 2D baseline (partial pivoting, like the serial reference) --------
    let variant = if sc.mseed & 1 == 0 {
        Variant::LibSci
    } else {
        Variant::Slate
    };
    let cfg2d = Lu2dConfig::for_ranks(n, (sc.q * sc.q).max(1), variant, conflux::Mode::Dense)
        .with_timeline();
    let run2d = catch_unwind(AssertUnwindSafe(|| factorize_2d(&cfg2d, Some(&a))));
    match run2d {
        Err(_) => judge_lu(
            "lu2d",
            &LuOutcome::Declined("panicked".into()),
            sc,
            false,
            &mut out,
        ),
        Ok(run) => {
            let outcome = match run.factors {
                Some(f) => classify(f, &a),
                None => LuOutcome::Declined("dense run returned no factors".into()),
            };
            judge_lu("lu2d", &outcome, sc, false, &mut out);
            // both use partial pivoting, whose pivot choice is independent
            // of blocking: the permutations must be identical — but only
            // on classes with well-separated pivot magnitudes; on
            // near-degenerate input (Hilbert and friends) the updated
            // candidates sit in each other's roundoff and a different
            // blocking can legitimately flip the argmax
            if let (
                true,
                LuOutcome::Factored { perm, .. },
                LuOutcome::Factored { perm: sperm, .. },
            ) = (
                matches!(sc.class, MatrixClass::Well | MatrixClass::DiagDom),
                &outcome,
                &serial,
            ) {
                out.push(CheckOutcome::from(
                    "lu2d-perm-matches-serial",
                    if perm == sperm {
                        Ok(String::new())
                    } else {
                        Err(format!("lu2d perm {perm:?} != serial {sperm:?}"))
                    },
                ));
            }
            let growth = match &outcome {
                LuOutcome::Factored { growth, .. } => Some(*growth),
                _ => None,
            };
            judge_invariants(
                "lu2d",
                &invs,
                &run.stats,
                run.timeline.as_ref(),
                false,
                growth,
                sc,
                &mut out,
            );
        }
    }

    // --- CANDMC-like 2.5D baseline ----------------------------------------
    let cfgc = CandmcConfig::dense(n, sc.v, LuGrid::new(sc.ranks(), sc.q, sc.c)).with_timeline();
    let runc = catch_unwind(AssertUnwindSafe(|| factorize_candmc(&cfgc, Some(&a))));
    match runc {
        Err(_) => judge_lu(
            "candmc",
            &LuOutcome::Declined("panicked".into()),
            sc,
            false,
            &mut out,
        ),
        Ok(Err(err)) => judge_lu(
            "candmc",
            &LuOutcome::Declined(format!("{err}")),
            sc,
            false,
            &mut out,
        ),
        Ok(Ok(run)) => {
            let outcome = match run.factors {
                Some(f) => classify(f, &a),
                None => LuOutcome::Declined("dense run returned no factors".into()),
            };
            judge_lu("candmc", &outcome, sc, false, &mut out);
            let growth = match &outcome {
                LuOutcome::Factored { growth, .. } => Some(*growth),
                _ => None,
            };
            judge_invariants(
                "candmc",
                &invs,
                &run.stats,
                run.timeline.as_ref(),
                false,
                growth,
                sc,
                &mut out,
            );
        }
    }

    // --- cross-implementation degeneracy agreement ------------------------
    // if the serial reference factored the input cleanly, no fault-free
    // distributed implementation may have declined it (judged above via
    // `judge_lu`); the converse — serial declined but an implementation
    // with a different pivoting order succeeded — is legitimate on the
    // degenerate classes, so nothing more to check here.

    out
}

// ---------------------------------------------------------------------------
// Cholesky
// ---------------------------------------------------------------------------

fn run_cholesky(sc: &Scenario) -> Vec<CheckOutcome> {
    let n = sc.n();
    let a = matgen::spd_matrix(sc.class, n, sc.mseed);
    let invs = default_invariants();
    let mut out = Vec::new();

    let serial = match cholesky_blocked(&a, sc.v) {
        Ok(l) => l,
        Err(e) => {
            out.push(CheckOutcome::fail(
                "cholesky-serial",
                format!("SPD-by-construction input rejected: {e:?}"),
            ));
            return out;
        }
    };
    let serial_res = cholesky_residual(&a, &serial);
    out.push(CheckOutcome::from(
        "cholesky-serial",
        if serial_res <= 1e-10 {
            Ok(format!("residual {serial_res:.3e}"))
        } else {
            Err(format!("serial residual {serial_res:.3e}"))
        },
    ));

    let grid = LuGrid::new(sc.ranks(), sc.q, sc.c);
    let run = factorize_cholesky(&CholeskyConfig::dense(n, sc.v, grid), Some(&a));
    match run.l.as_ref() {
        None => out.push(CheckOutcome::fail(
            "cholesky-25d",
            "dense run returned no factor",
        )),
        Some(l) => {
            let res = run.residual(&a);
            out.push(CheckOutcome::from(
                "cholesky-25d",
                if res <= 1e-9 {
                    Ok(format!("residual {res:.3e}"))
                } else {
                    Err(format!("2.5D residual {res:.3e}"))
                },
            ));
            // the Cholesky factor with positive diagonal is unique, so the
            // two lower triangles must agree to roundoff
            let scale = serial.max_norm().max(1.0);
            out.push(CheckOutcome::from(
                "cholesky-factors-agree",
                if l.allclose(&serial, 1e-8 * scale) {
                    Ok(String::new())
                } else {
                    Err(format!(
                        "2.5D and serial factors diverge (max diff {:.3e})",
                        l.sub(&serial).max_norm()
                    ))
                },
            ));
        }
    }
    judge_invariants(
        "cholesky", &invs, &run.stats, None, false, None, sc, &mut out,
    );

    out
}

// ---------------------------------------------------------------------------
// Solve (solversrv)
// ---------------------------------------------------------------------------

fn run_solve(sc: &Scenario) -> Vec<CheckOutcome> {
    let n = sc.n();
    // SPD-shaped general matrix: guaranteed nonsingular, well-conditioned,
    // registered as General so the service takes the LU path
    let a = matgen::spd_matrix(sc.class, n, sc.mseed);
    let k = sc.nrhs.max(2); // batched check needs at least two columns
    let b = matgen::rhs(n, k, sc.mseed);
    let mut out = Vec::new();

    // cache-hit bitwise identity + direct-drive identity, and the
    // adversarial requests the service must decline at submission
    let mut nan_rhs = b.clone();
    nan_rhs[(sc.mseed as usize % n, k - 1)] = f64::NAN;
    // a non-finite operator (NaN or Inf by seed) under id 2, an empty one
    // under id 3
    let mut bad_a = a.clone();
    bad_a[(sc.mseed as usize % n, (sc.mseed as usize / 7) % n)] = if sc.mseed.is_multiple_of(2) {
        f64::NAN
    } else {
        f64::INFINITY
    };
    let invalid = [
        SolveRequest::new(1, nan_rhs),
        SolveRequest::new(1, b.clone()).with_tolerance(f64::NAN),
        SolveRequest::new(1, b.clone()).with_tolerance(-1e-12),
        SolveRequest::new(1, Matrix::zeros(n, 0)),
        SolveRequest::new(2, b.clone()),
        SolveRequest::new(3, Matrix::zeros(0, 1)),
    ];
    let ((miss, hit, declines), report) = serve(ServiceConfig::default(), |h| {
        h.register_matrix(1, a.clone(), MatrixKind::General);
        h.register_matrix(2, bad_a.clone(), MatrixKind::General);
        h.register_matrix(3, Matrix::zeros(0, 0), MatrixKind::General);
        let miss = h.solve(SolveRequest::new(1, b.clone())).unwrap();
        let hit = h.solve(SolveRequest::new(1, b.clone())).unwrap();
        let declines: Vec<_> = invalid.iter().map(|r| h.solve(r.clone())).collect();
        (miss, hit, declines)
    });
    let mut problems: Vec<String> = declines
        .iter()
        .filter_map(|r| match r {
            Err(SolveError::InvalidInput { .. }) => None,
            Err(e) => Some(format!("declined with {e:?}, not InvalidInput")),
            Ok(resp) => Some(format!("served Ok (residual {:.3e})", resp.residual)),
        })
        .collect();
    if report.stats.submitted != 2 || report.stats.cache_misses != 1 {
        problems.push(format!(
            "{} admitted and {} factored, want only the 2 valid solves on 1 factor",
            report.stats.submitted, report.stats.cache_misses
        ));
    }
    out.push(CheckOutcome::from(
        "solve-declines-invalid-input",
        if problems.is_empty() {
            Ok("NaN rhs, NaN and negative tolerance, empty rhs, non-finite and empty matrix declined".into())
        } else {
            Err(problems.join("; "))
        },
    ));
    out.push(CheckOutcome::from(
        "solve-cache-transparent",
        if !miss.stats.cache_hit && hit.stats.cache_hit {
            Ok(String::new())
        } else {
            Err(format!(
                "expected miss-then-hit, got hit flags ({}, {})",
                miss.stats.cache_hit, hit.stats.cache_hit
            ))
        },
    ));
    out.push(CheckOutcome::from(
        "solve-cache-bitwise",
        if miss.x.as_slice() == hit.x.as_slice() {
            Ok(String::new())
        } else {
            Err("cache-hit solution differs from cache-miss solution".into())
        },
    ));
    let panel = ServiceConfig::default().panel.min(n);
    let direct = lu_blocked(&a, panel)
        .expect("nonsingular by construction")
        .solve(&b);
    out.push(CheckOutcome::from(
        "solve-matches-direct",
        if direct.as_slice() == hit.x.as_slice() {
            Ok(String::new())
        } else {
            Err("service solution differs bitwise from direct blocked solve".into())
        },
    ));

    // batched multi-RHS vs per-column
    let cfg = ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    };
    let ((per_col, joint), _) = serve(cfg, |h| {
        h.register_matrix(1, a.clone(), MatrixKind::General);
        h.solve(SolveRequest::new(1, b.clone())).unwrap(); // warm the factor
        let tickets: Vec<_> = (0..k)
            .map(|j| h.submit(SolveRequest::new(1, b.block(0, j, n, 1))).unwrap())
            .collect();
        let per_col: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        let joint = h.solve(SolveRequest::new(1, b.clone())).unwrap();
        (per_col, joint)
    });
    let mut batch_problems = Vec::new();
    for (j, resp) in per_col.iter().enumerate() {
        let col = joint.x.block(0, j, n, 1);
        let diff = col.sub(&resp.x).max_norm();
        let scale = resp.x.max_norm().max(1.0);
        if diff > 1e-12 * scale {
            batch_problems.push(format!("column {j}: diff {diff:.3e}"));
        }
    }
    out.push(CheckOutcome::from(
        "solve-batched-matches-percolumn",
        if batch_problems.is_empty() {
            Ok(format!("{k} columns agree"))
        } else {
            Err(batch_problems.join("; "))
        },
    ));

    // sharded path: kill the primary between two solves and check the
    // replica's answer is bitwise identical, correctly fingerprinted, and
    // that a re-registration is never served stale across the failover
    let a2 = matgen::spd_matrix(sc.class, n, sc.mseed ^ 0x5eedc1_u64);
    let fp2_expect = solversrv::Fingerprint::of(&a2);
    let ccfg = ClusterConfig {
        shards: 3,
        replicas: 2,
        service: ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
        ..ClusterConfig::default()
    };
    let ((fp, primary, cold, failover, swapped), _) = serve_cluster(ccfg, |h| {
        let fp = h.register_matrix(1, a.clone(), MatrixKind::General);
        let primary = h.route_of(fp)[0];
        let cold = h.solve(SolveRequest::new(1, b.clone())).unwrap();
        h.kill_shard(primary);
        let failover = h.solve(SolveRequest::new(1, b.clone())).unwrap();
        h.revive_shard(primary);
        h.register_matrix(1, a2.clone(), MatrixKind::General);
        let swapped = h.solve(SolveRequest::new(1, b.clone())).unwrap();
        (fp, primary, cold, failover, swapped)
    });
    out.push(CheckOutcome::from(
        "cluster-replica-bitwise",
        if failover.x.as_slice() == cold.x.as_slice() && failover.x.as_slice() == direct.as_slice()
        {
            Ok(String::new())
        } else {
            Err("replica answer diverges from the primary's / the direct solve".into())
        },
    ));
    out.push(CheckOutcome::from(
        "cluster-zero-stale",
        if cold.stats.fingerprint == Some(fp)
            && failover.stats.fingerprint == Some(fp)
            && failover.stats.shard != Some(primary)
            && failover.stats.cache_hit
        {
            Ok(format!("served by replica {:?}", failover.stats.shard))
        } else {
            Err(format!(
                "failover served shard {:?} (primary {primary}), fp match {}, warm {}",
                failover.stats.shard,
                failover.stats.fingerprint == Some(fp),
                failover.stats.cache_hit
            ))
        },
    ));
    out.push(CheckOutcome::from(
        "cluster-reregister-not-stale",
        if swapped.stats.fingerprint == Some(fp2_expect) && fp2_expect != fp {
            Ok(String::new())
        } else {
            Err(format!(
                "re-registered content answered under fp {:?} (want {fp2_expect})",
                swapped.stats.fingerprint
            ))
        },
    ));

    out
}

// ---------------------------------------------------------------------------
// Sparse (sparselin + the sparse serving path)
// ---------------------------------------------------------------------------

/// Instantiate the scenario's sparsity pattern. Every generator is SPD by
/// construction (Gershgorin-dominant or a shifted Laplacian), so CG applies
/// and the densified matrix is nonsingular for the LU cross-check.
fn sparse_matrix(sc: &Scenario) -> CsrMatrix {
    let n = sc.n();
    match sc.pattern {
        SparsePattern::Banded => banded(n, (sc.v / 2).max(1), sc.mseed),
        SparsePattern::Random => random_density(n, 0.2, sc.mseed),
        // v × nb grid: n = v·nb matches the scenario order exactly; the
        // 0.5 shift pins the spectrum to [0.5, 8.5] (condition number ≤ 17)
        SparsePattern::Laplacian => spd_laplacian(sc.v.max(1), sc.nb.max(1), 0.5),
    }
}

fn sparse_precond(p: SparsePrecond) -> Preconditioner {
    match p {
        SparsePrecond::None => Preconditioner::None,
        SparsePrecond::Jacobi => Preconditioner::Jacobi,
        SparsePrecond::SymGs => Preconditioner::SymGs,
    }
}

fn run_sparse(sc: &Scenario) -> Vec<CheckOutcome> {
    let n = sc.n();
    let a = sparse_matrix(sc);
    let precond = sparse_precond(sc.precond);
    let k = sc.nrhs.max(1);
    let b = matgen::rhs(n, k, sc.mseed);
    let mut out = Vec::new();

    // --- serial vs parallel SpMV: bitwise at every thread count -----------
    // the parallel kernel splits rows into nnz-balanced contiguous bands,
    // each writing its own disjoint output slice with serial per-row
    // accumulation — so the contract is exact bit equality, not closeness
    let mut r = SplitMix64::new(sc.mseed ^ 0x5eed_5eed);
    let x0: Vec<f64> = (0..n).map(|_| r.symmetric()).collect();
    let mut y_serial = vec![0.0f64; n];
    spmv(&a, &x0, &mut y_serial).expect("square by construction");
    let mut spmv_problems = Vec::new();
    for threads in [1usize, 2, 3, 5, 8] {
        let mut y_par = vec![0.0f64; n];
        spmv_parallel(&a, &x0, &mut y_par, threads).expect("square by construction");
        let diverged = y_serial
            .iter()
            .zip(&y_par)
            .any(|(s, p)| s.to_bits() != p.to_bits());
        if diverged {
            spmv_problems.push(format!("{threads} threads diverge from serial"));
        }
    }
    out.push(CheckOutcome::from(
        "spmv-parallel-bitwise",
        if spmv_problems.is_empty() {
            Ok("bitwise identical at 1..=8 threads".into())
        } else {
            Err(spmv_problems.join("; "))
        },
    ));

    // --- differential reference: densify and solve by blocked LU ----------
    let dense = a.to_dense();
    let panel = sc.v.clamp(1, n);
    let xstar = match lu_blocked(&dense, panel) {
        Ok(f) => f.solve(&b),
        Err(e) => {
            out.push(CheckOutcome::fail(
                "sparse-dense-lu",
                format!("densified SPD-by-construction matrix rejected: {e:?}"),
            ));
            return out;
        }
    };

    // --- CG vs the dense solution, plus the A-norm optimality property ----
    let setup = match PrecondSetup::prepare(precond, &a) {
        Ok(s) => s,
        Err(e) => {
            out.push(CheckOutcome::fail(
                "sparse-precond-setup",
                format!("setup on an SPD pattern failed: {e:?}"),
            ));
            return out;
        }
    };
    let mut converge_problems = Vec::new();
    let mut match_problems = Vec::new();
    let mut anorm_problems = Vec::new();
    for j in 0..k {
        let bcol: Vec<f64> = (0..n).map(|i| b[(i, j)]).collect();
        let cfg = CgConfig {
            tol: 1e-11,
            max_iters: 2 * n, // float CG may need a few sweeps past the exact-arithmetic n
            threads: 0,
            record_iterates: true,
        };
        let run = match cg(&a, &bcol, &setup, &cfg) {
            Ok(run) => run,
            Err(e) => {
                converge_problems.push(format!("col {j}: CG failed: {e:?}"));
                continue;
            }
        };
        if !run.converged {
            converge_problems.push(format!(
                "col {j}: residual {:.3e} after {} iters",
                run.residual(),
                run.iterations
            ));
        }
        // well-conditioned by construction: CG and dense LU must agree to
        // far better than either's backward-error bound would force
        let scale = (0..n).map(|i| xstar[(i, j)].abs()).fold(1.0f64, f64::max);
        let diff = (0..n)
            .map(|i| (run.x[i] - xstar[(i, j)]).abs())
            .fold(0.0f64, f64::max);
        if diff > 1e-7 * scale {
            match_problems.push(format!("col {j}: max diff {diff:.3e} (scale {scale:.3e})"));
        }
        // CG minimizes the A-norm of the error over the growing Krylov
        // space, so ‖x* − x_k‖_A must never increase; allow roundoff
        // wiggle at the convergence floor via the additive term
        let iterates = run.iterates.as_ref().expect("record_iterates was set");
        let anorm = |x: &[f64]| -> f64 {
            let e: Vec<f64> = (0..n).map(|i| xstar[(i, j)] - x[i]).collect();
            let mut ae = vec![0.0f64; n];
            spmv(&a, &e, &mut ae).expect("square by construction");
            e.iter()
                .zip(&ae)
                .map(|(u, v)| u * v)
                .sum::<f64>()
                .max(0.0)
                .sqrt()
        };
        let zero = vec![0.0f64; n];
        let anorm0 = anorm(&zero);
        let mut prev = anorm0;
        for (step, x) in iterates.iter().enumerate() {
            let cur = anorm(x);
            if cur > prev * (1.0 + 1e-6) + 1e-12 * anorm0 {
                anorm_problems.push(format!(
                    "col {j} step {step}: ‖e‖_A rose {prev:.6e} -> {cur:.6e}"
                ));
            }
            prev = cur;
        }
    }
    out.push(CheckOutcome::from(
        "sparse-cg-converges",
        if converge_problems.is_empty() {
            Ok(format!("{k} column(s) converged"))
        } else {
            Err(converge_problems.join("; "))
        },
    ));
    out.push(CheckOutcome::from(
        "sparse-cg-matches-dense-lu",
        if match_problems.is_empty() {
            Ok(String::new())
        } else {
            Err(match_problems.join("; "))
        },
    ));
    out.push(CheckOutcome::from(
        "sparse-cg-anorm-monotone",
        if anorm_problems.is_empty() {
            Ok(String::new())
        } else {
            Err(anorm_problems.join("; "))
        },
    ));

    // --- the sparse serving path: cache-transparent and bitwise -----------
    let ((fp_used, miss, hit), report) = serve(ServiceConfig::default(), |h| {
        let fp = h
            .register_sparse(1, a.clone(), precond)
            .expect("square by construction");
        let miss = h
            .solve(SolveRequest::new(1, b.clone()).with_tolerance(1e-9))
            .unwrap();
        let hit = h
            .solve(SolveRequest::new(1, b.clone()).with_tolerance(1e-9))
            .unwrap();
        (fp, miss, hit)
    });
    out.push(CheckOutcome::from(
        "sparse-service-transparent",
        if !miss.stats.cache_hit
            && hit.stats.cache_hit
            && miss.stats.kernel == "cg"
            && miss.stats.cg_iterations > 0
            && miss.stats.fingerprint == Some(fp_used)
            && report.stats.cache_entries >= 1
            // an unpreconditioned setup legitimately caches zero bytes
            && (sc.precond == SparsePrecond::None || report.stats.cache_bytes > 0)
        {
            Ok(String::new())
        } else {
            Err(format!(
                "miss/hit flags ({}, {}), kernel {}, iters {}, setup bytes {}",
                miss.stats.cache_hit,
                hit.stats.cache_hit,
                miss.stats.kernel,
                miss.stats.cg_iterations,
                report.stats.cache_bytes
            ))
        },
    ));
    out.push(CheckOutcome::from(
        "sparse-service-bitwise",
        if miss.x.as_slice() == hit.x.as_slice() {
            Ok(String::new())
        } else {
            Err("setup-cache-hit solution differs from the miss solution".into())
        },
    ));
    out.push(CheckOutcome::from(
        "sparse-service-residual",
        if miss.residual <= 1e-9 && hit.residual <= 1e-9 {
            Ok(format!("residual {:.3e}", miss.residual))
        } else {
            Err(format!(
                "residuals ({:.3e}, {:.3e}) exceed the requested 1e-9",
                miss.residual, hit.residual
            ))
        },
    ));
    // the preconditioner is part of the cache identity: the same pattern
    // and values under a different preconditioner must never alias
    if sc.precond != SparsePrecond::None {
        let fp_plain = solversrv::Fingerprint::of_csr(&a);
        out.push(CheckOutcome::from(
            "sparse-fingerprint-tags-precond",
            if fp_used != fp_plain.with_tag(Preconditioner::None as u64)
                && fp_used == fp_plain.with_tag(precond as u64)
            {
                Ok(String::new())
            } else {
                Err(format!(
                    "fingerprint {fp_used:?} does not tag the preconditioner"
                ))
            },
        ));
    }

    out
}
