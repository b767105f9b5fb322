//! Property-based tests over the core invariants of the reproduction:
//! block-cyclic index arithmetic, LU reconstruction, tournament pivoting,
//! volume conservation, and COnfLUX end-to-end correctness. Each property
//! is a seeded loop: case `i` draws its parameters from
//! `SplitMix64::new(i)`.
//!
//! Matrix inputs come from the `verifier` crate's deterministic,
//! class-aware generators: the same `(class, n, mseed)` triple reproduces
//! the same entries here, in the fuzz harness, and in a corpus replay — so
//! a property failure converts directly into a `verify_seeds.txt` line.
//! The scenario properties drive the full differential oracle on random
//! scenario seeds and shrink a failure with `verifier::minimize`.

use conflux_repro::conflux::{factorize, ConfluxConfig, LuGrid};
use conflux_repro::denselin::blockcyclic::BlockCyclic1D;
use conflux_repro::denselin::trsm::trsm_lower_left;
use conflux_repro::denselin::{lu_blocked, lu_unblocked, tournament_pivots, Matrix};
use conflux_repro::simnet::Network;
use conflux_repro::sparselin::{
    banded, cg, random_density, spd_laplacian, spmv, spmv_parallel, CgConfig, CsrMatrix,
    PrecondSetup, Preconditioner, SparseTriangle,
};
use verifier::{matgen, minimize, run_scenario, MatrixClass, Scenario, SplitMix64};

#[path = "../crates/denselin/tests/support/cases.rs"]
mod cases;
use cases::{check, pick};

/// Runs `fails` on `cases` scenarios, case `i` built from a scenario seed
/// drawn from `SplitMix64::new(i)`. The first failing scenario is shrunk
/// with [`minimize`] and reported with its case seed, scenario seed and
/// minimal corpus line.
fn check_scenarios(
    cases: u64,
    draw: impl Fn(&mut SplitMix64) -> u64,
    fails: impl Fn(&Scenario) -> bool,
) {
    for case in 0..cases {
        let seed = draw(&mut SplitMix64::new(case));
        let sc = Scenario::from_seed(seed);
        if fails(&sc) {
            let (minimal, steps) = minimize(&sc, &fails);
            panic!(
                "property failed at case seed {case}: scenario seed {seed}, \
                 minimized in {steps} steps to `{}`",
                minimal.encode()
            );
        }
    }
}

/// Classes on which every pivoting strategy agrees (well-separated
/// candidate magnitudes), so cross-implementation permutation equality is
/// part of the contract.
const STABLE_CLASSES: [MatrixClass; 2] = [MatrixClass::Well, MatrixClass::DiagDom];

/// A deterministic dense panel with entries in `[-1, 1)`.
fn random_panel(seed: u64, rows: usize, cols: usize) -> Matrix {
    let mut rng = SplitMix64::new(seed);
    let mut p = Matrix::zeros(rows, cols);
    for i in 0..rows {
        for j in 0..cols {
            p[(i, j)] = rng.symmetric();
        }
    }
    p
}

/// The leading `cols` columns of Wilkinson's matrix pattern: every row
/// below row `cols` is identical, so any stack of such rows is exactly
/// singular — the shape that once made tournament playoffs panic.
fn wilkinson_panel(rows: usize, cols: usize) -> Matrix {
    let mut p = Matrix::zeros(rows, cols);
    for i in 0..rows {
        for j in 0..cols {
            p[(i, j)] = if i == j {
                1.0
            } else if i > j {
                -1.0
            } else {
                0.0
            };
        }
    }
    p
}

#[test]
fn block_cyclic_roundtrip() {
    check(
        64,
        "n, nb, p",
        |r| (pick(r, 1..200), pick(r, 1..16), pick(r, 1..8)),
        |&(n, nb, p)| n + nb + p,
        |&(n, nb, p)| {
            let map = BlockCyclic1D::new(n, nb, p);
            for g in 0..n {
                let owner = map.owner(g);
                assert!(owner < p);
                assert_eq!(map.global_index(owner, map.local_index(g)), g);
            }
            let total: usize = (0..p).map(|q| map.local_len(q)).sum();
            assert_eq!(total, n);
        },
    );
}

#[test]
fn lu_reconstructs_generated_matrices() {
    check(
        64,
        "mseed, n, class_idx",
        |r| (pick(r, 0..1000) as u64, pick(r, 2..24), pick(r, 0..2)),
        |&(_, n, _)| n,
        |&(mseed, n, class_idx)| {
            let class = STABLE_CLASSES[class_idx];
            let a = matgen::matrix(class, n, mseed);
            if let Ok(f) = lu_unblocked(&a) {
                assert!(
                    f.residual(&a) < 1e-9,
                    "{class:?} residual {}",
                    f.residual(&a)
                );
                // blocked agrees, including on the permutation (the classes
                // here have well-separated pivot candidates)
                let fb = lu_blocked(&a, 4).unwrap();
                assert_eq!(&f.perm, &fb.perm);
            }
        },
    );
}

#[test]
fn tournament_pivots_are_distinct_and_in_range() {
    check(
        64,
        "seed, rows, v, parts",
        |r| {
            (
                pick(r, 0..1000) as u64,
                pick(r, 4..40),
                pick(r, 1..6),
                pick(r, 1..6),
            )
        },
        |&(_, rows, v, parts)| rows + v + parts,
        |&(seed, rows, v, parts)| {
            let v = v.min(rows);
            let panel = random_panel(seed, rows, v);
            let sel = tournament_pivots(&panel, v, parts).unwrap();
            assert_eq!(sel.pivot_rows.len(), v);
            let mut sorted = sel.pivot_rows.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), v);
            assert!(sorted.iter().all(|&r| r < rows));
        },
    );
}

#[test]
fn tournament_survives_singular_playoff_stacks() {
    check(
        64,
        "rows, v, parts",
        |r| (pick(r, 6..40), pick(r, 2..6), pick(r, 1..6)),
        |&(rows, v, parts)| rows + v + parts,
        |&(rows, v, parts)| {
            // duplicate rows make every playoff stack rank-deficient; the
            // tournament must still return v distinct rows whose submatrix
            // is nonsingular (regression for the zero-pivot panic in
            // denselin::tournament)
            let v = v.min(rows / 2);
            let panel = wilkinson_panel(rows, v);
            let sel = tournament_pivots(&panel, v, parts).unwrap();
            assert_eq!(sel.pivot_rows.len(), v);
            let mut chosen = Matrix::zeros(v, v);
            for (i, &r) in sel.pivot_rows.iter().enumerate() {
                assert!(r < rows);
                for j in 0..v {
                    chosen[(i, j)] = panel[(r, j)];
                }
            }
            assert!(
                lu_unblocked(&chosen).is_ok(),
                "selected rows {:?} are singular",
                sel.pivot_rows
            );
        },
    );
}

#[test]
fn network_send_receive_conservation() {
    check(
        64,
        "ops",
        |r| {
            let len = pick(r, 1..40);
            (0..len)
                .map(|_| (pick(r, 0..6), pick(r, 0..6), pick(r, 1..100) as u64))
                .collect::<Vec<_>>()
        },
        |ops| ops.len(),
        |ops| {
            let mut net = Network::new(6);
            for &(src, dst, elems) in ops {
                net.send(src, dst, elems, "p2p");
            }
            let sent: u64 = (0..6).map(|r| net.stats.sent_by(r)).sum();
            let recv: u64 = (0..6).map(|r| net.stats.received_by(r)).sum();
            assert_eq!(sent, recv);
            let expected: u64 = ops
                .iter()
                .filter(|(s, d, _)| s != d)
                .map(|(_, _, e)| e)
                .sum();
            assert_eq!(sent, expected);
        },
    );
}

#[test]
fn collective_volumes_conserve() {
    check(
        64,
        "group_size, elems",
        |r| (pick(r, 1..12), pick(r, 1..50) as u64),
        |&(group_size, elems)| group_size + elems as usize,
        |&(group_size, elems)| {
            let mut net = Network::new(group_size);
            let group: Vec<usize> = (0..group_size).collect();
            net.broadcast(&group, elems, "b");
            net.reduce(&group, elems, "r");
            net.allgather(&group, elems, "ag");
            net.butterfly(&group, elems, "t");
            let sent: u64 = (0..group_size).map(|r| net.stats.sent_by(r)).sum();
            let recv: u64 = (0..group_size).map(|r| net.stats.received_by(r)).sum();
            assert_eq!(sent, recv);
        },
    );
}

#[test]
fn scenario_encoding_roundtrips() {
    check_scenarios(
        64,
        |r| r.next_u64(),
        |sc| sc.validate().is_err() || Scenario::decode(&sc.encode()).ok().as_ref() != Some(sc),
    );
}

#[test]
fn minimize_preserves_the_failing_property() {
    check(
        64,
        "seed",
        |r| pick(r, 0..10_000) as u64,
        |_| 0,
        |&seed| {
            let sc = Scenario::from_seed(seed);
            let kernel = sc.kernel;
            let (minimal, _steps) = minimize(&sc, |cand| cand.kernel == kernel);
            assert_eq!(minimal.kernel, kernel);
            assert!(minimal.validate().is_ok());
            assert!(minimal.n() <= sc.n());
            assert!(minimal.ranks() <= sc.ranks());
        },
    );
}

// heavier cases: fewer iterations

#[test]
fn conflux_correct_on_random_configs() {
    check(
        12,
        "mseed, nb_blocks, v_exp, q, c, class_idx",
        |r| {
            (
                pick(r, 0..100) as u64,
                pick(r, 3..8),
                pick(r, 1..3),
                pick(r, 1..3),
                pick(r, 1..3),
                pick(r, 0..2),
            )
        },
        |&(_, nb_blocks, v_exp, q, c, _)| (nb_blocks << v_exp) * q * q * c,
        |&(mseed, nb_blocks, v_exp, q, c, class_idx)| {
            let v = 4usize << v_exp; // 8 or 16
            if v < c {
                return;
            }
            let n = nb_blocks * v;
            let class = STABLE_CLASSES[class_idx];
            let a = matgen::matrix(class, n, mseed);
            let grid = LuGrid::new(q * q * c, q, c);
            let run = factorize(&ConfluxConfig::dense(n, v, grid), Some(&a));
            let f = run.factors.unwrap();
            assert!(
                f.residual(&a) < 1e-8,
                "residual {} at n={n} v={v} q={q} c={c}",
                f.residual(&a)
            );
            // permutation is a bijection
            let mut p = f.perm.clone();
            p.sort_unstable();
            assert_eq!(p, (0..n).collect::<Vec<_>>());
        },
    );
}

#[test]
fn conflux_volume_independent_of_data() {
    check(
        12,
        "mseed",
        |r| pick(r, 0..50) as u64,
        |_| 0,
        |&mseed| {
            // two different matrices, same config + synthetic pivots
            // => identical volumes
            use conflux_repro::conflux::PivotChoice;
            let n = 64;
            let grid = LuGrid::new(8, 2, 2);
            let mut cfg = ConfluxConfig::dense(n, 8, grid);
            cfg.pivot_choice = PivotChoice::Synthetic;
            let a = matgen::matrix(MatrixClass::DiagDom, n, mseed);
            let b = matgen::matrix(MatrixClass::DiagDom, n, !mseed);
            let ra = factorize(&cfg, Some(&a));
            let rb = factorize(&cfg, Some(&b));
            assert_eq!(ra.stats.total_sent(), rb.stats.total_sent());
        },
    );
}

#[test]
fn tournament_growth_tracks_partial_pivoting() {
    check(
        12,
        "mseed",
        |r| pick(r, 0..1000) as u64,
        |_| 0,
        |&mseed| {
            // randomized companion of crates/verifier/tests/growth.rs
            let n = 16;
            let a = matgen::matrix(MatrixClass::Well, n, mseed);
            let grid = LuGrid::new(4, 2, 1);
            let run = factorize(&ConfluxConfig::dense(n, 4, grid), Some(&a));
            let t = run.factors.unwrap().to_factorization().growth_factor(&a);
            let p = lu_unblocked(&a).unwrap().growth_factor(&a);
            assert!(
                t <= 16.0 * p.max(f64::MIN_POSITIVE),
                "tournament growth {t:.3e} vs partial {p:.3e}"
            );
        },
    );
}

#[test]
fn differential_oracle_accepts_random_scenarios() {
    // the full oracle: five LU implementations, Cholesky, the serving
    // layer, the sparse family, invariants — any disagreement fails the
    // property (the seed range is swept exhaustively by `verify-fuzz`)
    check_scenarios(
        12,
        |r| pick(r, 0..5000) as u64,
        |sc| !run_scenario(sc).passed(),
    );
}

/// The strict lower triangle plus diagonal of `a`, as its own CSR matrix
/// (the shape `SparseTriangle::lower` wants).
fn lower_of(a: &CsrMatrix) -> CsrMatrix {
    let mut trip = Vec::new();
    for i in 0..a.rows() {
        let (cols, vals) = a.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            if j <= i {
                trip.push((i, j, v));
            }
        }
    }
    CsrMatrix::from_triplets(a.rows(), a.cols(), &trip).unwrap()
}

// the sparse kernel family: determinism, triangular solves, CG theory

#[test]
fn spmv_parallel_is_bitwise_serial() {
    check(
        48,
        "n, pattern, seed, threads",
        |r| {
            (
                pick(r, 1..150),
                pick(r, 0..3),
                pick(r, 0..1000) as u64,
                pick(r, 1..10),
            )
        },
        |&(n, _, _, threads)| n + threads,
        |&(n, pattern, seed, threads)| {
            // awkward shapes on purpose: n smaller than the thread count,
            // single rows, empty bands — the nnz-balanced row split must
            // stay bitwise in all of them
            let a = match pattern {
                0 => banded(n, (n / 4).max(1), seed),
                1 => random_density(n, 0.15, seed),
                _ => spd_laplacian(n.clamp(1, 12), n.div_ceil(12).max(1), 0.5),
            };
            let m = a.rows();
            let mut rng = SplitMix64::new(seed ^ 0xabcd);
            let x: Vec<f64> = (0..m).map(|_| rng.symmetric()).collect();
            let mut y_serial = vec![0.0f64; m];
            spmv(&a, &x, &mut y_serial).unwrap();
            let mut y_par = vec![0.0f64; m];
            spmv_parallel(&a, &x, &mut y_par, threads).unwrap();
            for i in 0..m {
                assert_eq!(
                    y_serial[i].to_bits(),
                    y_par[i].to_bits(),
                    "row {} diverges at {} threads",
                    i,
                    threads
                );
            }
        },
    );
}

#[test]
fn sptrsv_matches_dense_substitution() {
    check(
        48,
        "n, hb, seed, threads",
        |r| {
            (
                pick(r, 1..80),
                pick(r, 1..10),
                pick(r, 0..1000) as u64,
                pick(r, 1..6),
            )
        },
        |&(n, hb, _, threads)| n + hb + threads,
        |&(n, hb, seed, threads)| {
            // level-scheduled sparse forward substitution vs the dense
            // blocked TRSM on the densified triangle: same math, different
            // order, so the contract is agreement to roundoff
            let l = lower_of(&banded(n, hb.min(n), seed));
            let tri = SparseTriangle::lower(l.clone()).unwrap();
            let mut rng = SplitMix64::new(seed ^ 0x771a);
            let b: Vec<f64> = (0..n).map(|_| rng.symmetric()).collect();
            let mut x_sparse = vec![0.0f64; n];
            tri.solve(&b, &mut x_sparse, threads).unwrap();

            let ld = l.to_dense();
            let mut x_dense = Matrix::from_fn(n, 1, |i, _| b[i]);
            trsm_lower_left(&ld, &mut x_dense, false);
            let scale = (0..n).map(|i| x_dense[(i, 0)].abs()).fold(1.0f64, f64::max);
            for i in 0..n {
                assert!(
                    (x_sparse[i] - x_dense[(i, 0)]).abs() <= 1e-9 * scale,
                    "row {}: sparse {} vs dense {}",
                    i,
                    x_sparse[i],
                    x_dense[(i, 0)]
                );
            }
        },
    );
}

#[test]
fn cg_respects_the_laplacian_iteration_bound() {
    check(
        48,
        "nx, ny, shift_idx, seed",
        |r| {
            (
                pick(r, 2..14),
                pick(r, 2..14),
                pick(r, 0..4),
                pick(r, 0..1000) as u64,
            )
        },
        |&(nx, ny, _, _)| nx * ny,
        |&(nx, ny, shift_idx, seed)| {
            // spectrum of the shifted 5-point Laplacian lives in
            // [shift, shift + 8], so κ ≤ (shift + 8)/shift and the
            // classical CG bound gives ‖e_k‖_A ≤ 2((√κ−1)/(√κ+1))^k ‖e_0‖_A;
            // solving for the 2-norm residual target (which lags the A-norm
            // by at most another √κ) bounds the iteration count
            // analytically
            let shift = [0.5f64, 1.0, 2.0, 4.0][shift_idx];
            let a = spd_laplacian(nx, ny, shift);
            let n = a.rows();
            let mut rng = SplitMix64::new(seed);
            let b: Vec<f64> = (0..n).map(|_| rng.symmetric()).collect();
            let setup = PrecondSetup::prepare(Preconditioner::None, &a).unwrap();
            let tol = 1e-10;
            let cfg = CgConfig {
                tol,
                max_iters: 4 * n,
                threads: 0,
                record_iterates: false,
            };
            let run = cg(&a, &b, &setup, &cfg).unwrap();
            assert!(run.converged, "no convergence in {} iters", run.iterations);

            let kappa = (shift + 8.0) / shift;
            let rho = (kappa.sqrt() - 1.0) / (kappa.sqrt() + 1.0);
            // iterations until 2·ρ^k ≤ tol/√κ, plus slack for the floating-
            // point gap between theory and the recurrence residual
            let bound = ((tol / kappa.sqrt() / 2.0).ln() / rho.ln()).ceil() as usize + 2;
            let bound = bound.min(n + 2); // exact-arithmetic termination
            assert!(
                run.iterations <= bound,
                "{} iterations exceeds the κ={:.1} bound {} (n={})",
                run.iterations,
                kappa,
                bound,
                n
            );
        },
    );
}
