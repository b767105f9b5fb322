//! Property-based tests of the dense linear algebra substrate, as seeded
//! loops: case `i` draws its parameters from `SplitMix64::new(i)`.

use denselin::cholesky::{cholesky_blocked, cholesky_residual, random_spd};
use denselin::gemm::{
    force_kernel, gemm_emulated, gemm_reference, gemm_with, microkernels, GemmBlocking, GemmConfig,
    KernelRequirement,
};
use denselin::lu::{lu_blocked, lu_unblocked};
use denselin::lu_parallel::lu_parallel_with;
use denselin::matrix::Matrix;
use denselin::panel::{factor_in_place, PivotMode};
use denselin::trsm::{
    trsm_lower_left, trsm_lower_left_parallel, trsm_lower_right, trsm_upper_left,
    trsm_upper_left_parallel, trsm_upper_right,
};
use denselin::SplitMix64;

#[path = "support/cases.rs"]
mod cases;
use cases::{check, pick};

/// `c <- alpha * a * b + beta * c` under `cfg`.
fn gemm(c: &mut Matrix, alpha: f64, a: &Matrix, b: &Matrix, beta: f64, cfg: &GemmConfig) {
    gemm_with(c, (0, 0), alpha, a, b, beta, cfg);
}

/// `a * b` through the serial packed GEMM.
fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    matmul_with(a, b, GemmBlocking::default())
}

/// `a * b` through the serial packed GEMM under `blk`.
fn matmul_with(a: &Matrix, b: &Matrix, blk: GemmBlocking) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm(&mut c, 1.0, a, b, 0.0, &serial(blk));
    c
}

/// [`GemmConfig::serial`] under `blocking`.
fn serial(blocking: GemmBlocking) -> GemmConfig {
    GemmConfig {
        blocking,
        ..GemmConfig::serial()
    }
}

/// The blockings every GEMM property runs under: the one every
/// configured product uses, and a shallow, misaligned one whose `kc = 3`
/// splits each reduction into many write-backs.
fn blockings() -> [GemmBlocking; 2] {
    [
        GemmBlocking::default(),
        GemmBlocking {
            mc: 7,
            kc: 3,
            nc: 5,
        },
    ]
}

/// Smallest reduction length that takes an `m x n` product to the 128³
/// volume from which a multi-threaded [`GemmConfig`] fans out.
fn fan_out_k(m: usize, n: usize) -> usize {
    (128 * 128 * 128usize).div_ceil(m * n)
}

fn rand_matrix(seed: u64, r: usize, c: usize) -> Matrix {
    let mut rng = SplitMix64::new(seed);
    Matrix::random(&mut rng, r, c)
}

/// Unit-ish lower triangle: off-diagonal in `[-0.5, 0.5)`, diagonal 1.5.
fn lower_triangle(rng: &mut SplitMix64, n: usize) -> Matrix {
    Matrix::from_fn(n, n, |i, j| {
        if i > j {
            rng.unit() - 0.5
        } else if i == j {
            1.5
        } else {
            0.0
        }
    })
}

#[test]
fn gemm_is_linear_in_alpha() {
    check(
        48,
        "seed, n",
        |r| (pick(r, 0..500) as u64, pick(r, 1..20)),
        |&(_, n)| n,
        |&(seed, n)| {
            let a = rand_matrix(seed, n, n);
            let b = rand_matrix(seed ^ 1, n, n);
            for blk in blockings() {
                let mut c1 = Matrix::zeros(n, n);
                gemm(&mut c1, 2.0, &a, &b, 0.0, &serial(blk));
                let mut c2 = Matrix::zeros(n, n);
                gemm(&mut c2, 1.0, &a, &b, 0.0, &serial(blk));
                assert!(c1.allclose(&c2.scale(2.0), 1e-10));
            }
        },
    );
}

#[test]
fn gemm_distributes_over_addition() {
    check(
        48,
        "seed, m, k, n",
        |r| {
            (
                pick(r, 0..500) as u64,
                pick(r, 1..12),
                pick(r, 1..12),
                pick(r, 1..12),
            )
        },
        |&(_, m, k, n)| m + k + n,
        |&(seed, m, k, n)| {
            let a = rand_matrix(seed, m, k);
            let b1 = rand_matrix(seed ^ 2, k, n);
            let b2 = rand_matrix(seed ^ 3, k, n);
            for blk in blockings() {
                let lhs = matmul_with(&a, &b1.add(&b2), blk);
                let rhs = matmul_with(&a, &b1, blk).add(&matmul_with(&a, &b2, blk));
                assert!(lhs.allclose(&rhs, 1e-9));
            }
        },
    );
}

#[test]
fn gemm_associates_with_transpose() {
    check(
        48,
        "seed, m, n",
        |r| (pick(r, 0..500) as u64, pick(r, 1..10), pick(r, 1..10)),
        |&(_, m, n)| m + n,
        |&(seed, m, n)| {
            // (A * B)^T == B^T * A^T
            let a = rand_matrix(seed, m, n);
            let b = rand_matrix(seed ^ 4, n, m);
            for blk in blockings() {
                let lhs = matmul_with(&a, &b, blk).transpose();
                let rhs = matmul_with(&b.transpose(), &a.transpose(), blk);
                assert!(lhs.allclose(&rhs, 1e-10));
            }
        },
    );
}

#[test]
fn packed_gemm_matches_reference() {
    check(
        48,
        "seed, m, k, n, alpha, beta",
        |r| {
            (
                pick(r, 0..500) as u64,
                pick(r, 1..40),
                pick(r, 1..40),
                pick(r, 1..40),
                2.0 * r.symmetric(),
                2.0 * r.symmetric(),
            )
        },
        |&(_, m, k, n, _, _)| m + k + n,
        |&(seed, m, k, n, alpha, beta)| {
            // the packed register-blocked kernel against the pre-rewrite
            // scalar path, over shapes that force fringe tiles and partial
            // panels
            let a = rand_matrix(seed, m, k);
            let b = rand_matrix(seed ^ 5, k, n);
            let c0 = rand_matrix(seed ^ 6, m, n);
            let mut reference = c0.clone();
            gemm_reference(&mut reference, alpha, &a, &b, beta);
            for blk in blockings() {
                let mut packed = c0.clone();
                gemm(&mut packed, alpha, &a, &b, beta, &serial(blk));
                assert!(packed.allclose(&reference, 1e-10));
            }
        },
    );
}

#[test]
fn awkward_blockings_agree() {
    check(
        48,
        "seed, n, mc, kc, nc",
        |r| {
            (
                pick(r, 0..500) as u64,
                pick(r, 1..32),
                pick(r, 1..12),
                pick(r, 1..12),
                pick(r, 1..12),
            )
        },
        |&(_, n, _, _, _)| n,
        |&(seed, n, mc, kc, nc)| {
            // any blocking, however misaligned with the microkernel tile,
            // produces the same result as the default
            let a = rand_matrix(seed, n, n);
            let b = rand_matrix(seed ^ 7, n, n);
            let mut def = Matrix::zeros(n, n);
            gemm(&mut def, 1.0, &a, &b, 0.0, &serial(GemmBlocking::default()));
            let mut odd = Matrix::zeros(n, n);
            gemm(
                &mut odd,
                1.0,
                &a,
                &b,
                0.0,
                &serial(GemmBlocking { mc, kc, nc }),
            );
            assert!(odd.allclose(&def, 1e-11));
        },
    );
}

#[test]
fn parallel_tile_queue_is_bitwise_serial() {
    check(
        48,
        "seed, m, n, threads",
        |r| {
            (
                pick(r, 0..500) as u64,
                pick(r, 1..300),
                pick(r, 1..300),
                pick(r, 1..6),
            )
        },
        |&(_, m, n, threads)| m + n + threads,
        |&(seed, m, n, threads)| {
            // the tile queue must not change the reduction order: results
            // are bitwise identical to the serial path, not merely close
            let k = fan_out_k(m, n);
            let a = rand_matrix(seed, m, k);
            let b = rand_matrix(seed ^ 8, k, n);
            for blk in blockings() {
                // one configuration for both runs: a test forcing another
                // kernel in between must not split them
                let cfg = serial(blk);
                let mut one = Matrix::zeros(m, n);
                gemm(&mut one, 1.0, &a, &b, 0.0, &cfg);
                let mut parallel = Matrix::zeros(m, n);
                gemm(
                    &mut parallel,
                    1.0,
                    &a,
                    &b,
                    0.0,
                    &GemmConfig { threads, ..cfg },
                );
                assert_eq!(one.as_slice(), parallel.as_slice(), "{blk:?}");
            }
        },
    );
}

#[test]
fn any_variant_any_shape_matches_emulator_bitwise() {
    check(
        48,
        "kpick, seed, m, k, n, kc, alpha, beta",
        |r| {
            (
                pick(r, 0..1000),
                pick(r, 0..500) as u64,
                pick(r, 1..36),
                pick(r, 1..36),
                pick(r, 1..36),
                pick(r, 1..40),
                2.0 * r.symmetric(),
                2.0 * r.symmetric(),
            )
        },
        |&(_, _, m, k, n, kc, _, _)| m + k + n + kc,
        |&(kpick, seed, m, k, n, kc, alpha, beta)| {
            // variant-indexed: kpick maps uniformly onto the supported
            // subset of the registered table, so every microkernel shape —
            // not just the dispatch default — is pinned to the scalar
            // oracle bit for bit
            let supported: Vec<_> = microkernels().iter().filter(|v| v.supported()).collect();
            let krn = supported[kpick % supported.len()];
            let a = rand_matrix(seed, m, k);
            let b = rand_matrix(seed ^ 10, k, n);
            let c0 = rand_matrix(seed ^ 11, m, n);
            let blk = GemmBlocking { mc: 16, kc, nc: 24 };
            let mut got = c0.clone();
            let cfg = GemmConfig {
                threads: 1,
                blocking: blk,
                kernel: krn,
            };
            gemm(&mut got, alpha, &a, &b, beta, &cfg);
            let mut want = c0;
            gemm_emulated(&mut want, alpha, &a, &b, beta, kc, krn.fused);
            assert_eq!(got.as_slice(), want.as_slice());
        },
    );
}

#[test]
fn any_variant_parallel_is_bitwise_serial() {
    check(
        48,
        "kpick, seed, m, n, threads",
        |r| {
            (
                pick(r, 0..1000),
                pick(r, 0..500) as u64,
                pick(r, 1..48),
                pick(r, 1..48),
                pick(r, 1..8),
            )
        },
        |&(_, _, m, n, threads)| m + n + threads,
        |&(kpick, seed, m, n, threads)| {
            // the tile queue stays order-preserving for every variant
            // geometry, not just the default (mr, nr)
            let supported: Vec<_> = microkernels().iter().filter(|v| v.supported()).collect();
            let krn = supported[kpick % supported.len()];
            let k = fan_out_k(m, n);
            let a = rand_matrix(seed, m, k);
            let b = rand_matrix(seed ^ 12, k, n);
            let blk = GemmBlocking {
                mc: 12,
                kc: 5,
                nc: 16,
            };
            let mut serial = Matrix::zeros(m, n);
            let cfg = GemmConfig {
                threads: 1,
                blocking: blk,
                kernel: krn,
            };
            gemm(&mut serial, 1.0, &a, &b, 0.0, &cfg);
            let mut parallel = Matrix::zeros(m, n);
            gemm(
                &mut parallel,
                1.0,
                &a,
                &b,
                0.0,
                &GemmConfig { threads, ..cfg },
            );
            assert_eq!(serial.as_slice(), parallel.as_slice());
        },
    );
}

#[test]
fn beta_zero_ignores_prior_contents() {
    check(
        48,
        "seed, n",
        |r| (pick(r, 0..500) as u64, pick(r, 1..24)),
        |&(_, n)| n,
        |&(seed, n)| {
            // beta == 0 must overwrite, never read, C — NaN poison proves it
            let a = rand_matrix(seed, n, n);
            let b = rand_matrix(seed ^ 9, n, n);
            for blk in blockings() {
                let mut c = Matrix::from_fn(n, n, |_, _| f64::NAN);
                gemm(&mut c, 1.0, &a, &b, 0.0, &serial(blk));
                assert!(c.as_slice().iter().all(|x| x.is_finite()));
                assert!(c.allclose(&matmul_with(&a, &b, blk), 1e-12));
            }
        },
    );
}

#[test]
fn trsm_inverts_triangular_products() {
    check(
        48,
        "seed, n, rhs",
        |r| (pick(r, 0..500) as u64, pick(r, 1..30), pick(r, 1..5)),
        |&(_, n, rhs)| n + rhs,
        |&(seed, n, rhs)| {
            let mut rng = SplitMix64::new(seed);
            let l = lower_triangle(&mut rng, n);
            let x = Matrix::random(&mut rng, n, rhs);
            let mut b = matmul(&l, &x);
            trsm_lower_left(&l, &mut b, false);
            assert!(b.allclose(&x, 1e-7));
            // and the transposed path
            let u = l.transpose();
            let mut b2 = matmul(&u, &x);
            trsm_upper_left(&u, &mut b2, false);
            assert!(b2.allclose(&x, 1e-7));
            let y = Matrix::random(&mut rng, rhs, n);
            let mut b3 = matmul(&y, &u);
            trsm_upper_right(&mut b3, &u, false);
            assert!(b3.allclose(&y, 1e-7));
        },
    );
}

#[test]
fn lu_determinant_matches_permutation_parity() {
    check(
        48,
        "seed, n",
        |r| (pick(r, 0..500) as u64, pick(r, 2..12)),
        |&(_, n)| n,
        |&(seed, n)| {
            // det(PA) = det(L)det(U) = prod(diag U); det(A) = sign * that
            let a = rand_matrix(seed, n, n);
            if let Ok(f) = lu_unblocked(&a) {
                // cross-check with the blocked variant
                let fb = lu_blocked(&a, 3).unwrap();
                assert!(
                    (f.determinant() - fb.determinant()).abs()
                        <= 1e-6 * f.determinant().abs().max(1.0)
                );
            }
        },
    );
}

#[test]
fn lu_solve_inverts() {
    check(
        48,
        "seed, n",
        |r| (pick(r, 0..500) as u64, pick(r, 1..20)),
        |&(_, n)| n,
        |&(seed, n)| {
            let mut rng = SplitMix64::new(seed);
            let a = Matrix::random_diagonally_dominant(&mut rng, n);
            let x = Matrix::random(&mut rng, n, 2);
            let b = a.matmul(&x);
            let f = lu_unblocked(&a).unwrap();
            assert!(f.solve(&b).allclose(&x, 1e-7));
        },
    );
}

#[test]
fn lu_parallel_is_bitwise_blocked() {
    check(
        48,
        "seed, m, n, nb, threads",
        |r| {
            (
                pick(r, 0..500) as u64,
                pick(r, 1..40),
                pick(r, 1..40),
                pick(r, 1..12),
                pick(r, 1..8),
            )
        },
        |&(_, m, n, _, threads)| m + n + threads,
        |&(seed, m, n, nb, threads)| {
            // the lookahead pipeline reorders work, never arithmetic: over
            // awkward rectangular shapes, panel widths, and thread counts,
            // under every instruction set the panel kernel is built for,
            // the factors must be bitwise identical to the serial blocked
            // path, and singularity refusals must name the same column
            let a = rand_matrix(seed, m, n);
            for isa in panel_isas() {
                let _force = force_kernel(isa).unwrap();
                let serial = lu_blocked(&a, nb);
                let parallel = lu_parallel_with(&a, nb, threads);
                match (serial, parallel) {
                    (Ok(s), Ok(p)) => {
                        assert_eq!(s.perm, p.perm, "{isa}");
                        assert_eq!(s.sign, p.sign, "{isa}");
                        assert_eq!(s.lu.as_slice(), p.lu.as_slice(), "{isa}");
                    }
                    (Err(se), Err(pe)) => assert_eq!(se.column, pe.column, "{isa}"),
                    (s, p) => panic!(
                        "{isa}: outcomes differ: serial ok={} parallel ok={}",
                        s.is_ok(),
                        p.is_ok()
                    ),
                }
            }
        },
    );
}

#[test]
fn lu_parallel_wilkinson_bitwise() {
    check(
        48,
        "n, nb, threads",
        |r| (pick(r, 2..60), pick(r, 1..10), pick(r, 1..8)),
        |&(n, _, threads)| n + threads,
        |&(n, nb, threads)| {
            // the maximal-element-growth matrix: every elimination step
            // doubles the trailing entries, so any arithmetic reordering
            // would surface as a bit flip long before it perturbed the
            // residual
            let a = Matrix::from_fn(n, n, |i, j| {
                if j + 1 == n || i == j {
                    1.0
                } else if i > j {
                    -1.0
                } else {
                    0.0
                }
            });
            for isa in panel_isas() {
                let _force = force_kernel(isa).unwrap();
                let s = lu_blocked(&a, nb).unwrap();
                let p = lu_parallel_with(&a, nb, threads).unwrap();
                assert_eq!(s.perm, p.perm, "{isa}");
                assert_eq!(s.lu.as_slice(), p.lu.as_slice(), "{isa}");
            }
        },
    );
}

/// The right-looking rank-1 loop the panel kernel must reproduce, in all
/// three pivot modes: [`lu_unblocked`]'s loop for `Partial`, with skipped
/// columns zeroed below the diagonal for `SkipZero`, with no search for
/// `NoPivot`. Returns the factors and permutation, or the singular column.
fn rank1_panel(a: &Matrix, mode: PivotMode) -> Result<(Matrix, Vec<usize>), usize> {
    let mut lu = a.clone();
    let (m, n) = lu.shape();
    let mut perm: Vec<usize> = (0..m).collect();
    for k in 0..m.min(n) {
        let mut p = k;
        if mode == PivotMode::NoPivot {
            if lu[(k, k)] == 0.0 {
                return Err(k);
            }
        } else {
            let mut best = lu[(k, k)].abs();
            for i in k + 1..m {
                let v = lu[(i, k)].abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best == 0.0 {
                if mode == PivotMode::Partial {
                    return Err(k);
                }
                for i in k + 1..m {
                    lu[(i, k)] = 0.0;
                }
                continue;
            }
        }
        if p != k {
            lu.swap_rows(p, k);
            perm.swap(p, k);
        }
        let pivot = lu[(k, k)];
        for i in k + 1..m {
            let l = lu[(i, k)] / pivot;
            lu[(i, k)] = l;
            if l != 0.0 {
                for j in k + 1..n {
                    let u = lu[(k, j)];
                    lu[(i, j)] -= l * u;
                }
            }
        }
    }
    Ok((lu, perm))
}

/// One variant name per instruction set the host can run, so the panel
/// kernel is checked on each of its compilations.
fn panel_isas() -> Vec<&'static str> {
    let mut names = Vec::new();
    for req in [
        KernelRequirement::Baseline,
        KernelRequirement::Avx2Fma,
        KernelRequirement::Avx512f,
    ] {
        if let Some(k) = microkernels()
            .iter()
            .find(|k| k.requires == req && k.supported())
        {
            names.push(k.name);
        }
    }
    names
}

/// The bits of `m` with every NaN mapped to one pattern: Rust leaves the
/// sign and payload of a NaN result unspecified (LLVM may swap the
/// operands of a product), so only "is NaN" is pinned.
fn bits_nan_as_one(m: &Matrix) -> Vec<u64> {
    m.as_slice()
        .iter()
        .map(|x| if x.is_nan() { f64::NAN } else { *x }.to_bits())
        .collect()
}

/// Run the kernel on a copy of `a` under every ISA and check it against
/// the rank-1 loop bit for bit (or on the singular column it names).
fn assert_panel_matches_rank1(a: &Matrix, mode: PivotMode) {
    let want = rank1_panel(a, mode);
    if mode == PivotMode::Partial {
        // the oracle itself is lu_unblocked's loop
        match (&want, lu_unblocked(a)) {
            (Ok((lu, perm)), Ok(f)) => {
                assert_eq!(bits_nan_as_one(lu), bits_nan_as_one(&f.lu));
                assert_eq!(perm, &f.perm);
            }
            (Err(c), Err(e)) => assert_eq!(*c, e.column),
            _ => panic!("the rank-1 oracle disagrees with lu_unblocked"),
        }
    }
    for isa in panel_isas() {
        let _force = force_kernel(isa).unwrap();
        let mut lu = a.clone();
        match (factor_in_place(&mut lu, mode), &want) {
            (Ok(perm), Ok((wlu, wperm))) => {
                assert_eq!(&perm, wperm, "{isa} {mode:?}: permutations differ");
                assert_eq!(
                    bits_nan_as_one(&lu),
                    bits_nan_as_one(wlu),
                    "{isa} {mode:?}: factors differ"
                );
            }
            (Err(e), Err(c)) => assert_eq!(e.column, *c, "{isa} {mode:?}"),
            (got, _) => panic!(
                "{isa} {mode:?}: kernel ok={} where the rank-1 loop ok={}",
                got.is_ok(),
                want.is_ok()
            ),
        }
    }
}

/// An `m x n` panel of one value class: 0 uniform, 1 small integers (ties
/// in |pivot|, exact zero and negative-zero multipliers), 2 uniform with
/// zeros, negative zeros, subnormals, infinities and NaNs sprinkled in.
fn panel_values(seed: u64, m: usize, n: usize, class: usize) -> Matrix {
    let mut rng = SplitMix64::new(seed);
    let specials = [
        0.0,
        -0.0,
        f64::MIN_POSITIVE / 8.0,
        -f64::MIN_POSITIVE / 1024.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        1.0,
        -1.0,
    ];
    Matrix::from_fn(m, n, |_, _| match class {
        0 => rng.symmetric(),
        1 => *rng.choose(&[-2.0, -1.0, -0.0, 0.0, 0.0, 1.0, 2.0]),
        _ if rng.below(6) == 0 => *rng.choose(&specials),
        _ => rng.symmetric(),
    })
}

#[test]
fn panel_kernel_is_bitwise_rank1_in_every_mode() {
    check(
        96,
        "seed, m, kb, class",
        |r| {
            let kb = *r.choose(&[1usize, 7, 9, 33, 64]);
            let m = match r.below(3) {
                0 => pick(r, 1..4),
                1 => pick(r, 1..kb + 1),
                _ => pick(r, kb..kb + 80),
            };
            (pick(r, 0..1000) as u64, m, kb, r.below(3))
        },
        |&(_, m, kb, _)| m * kb,
        |&(seed, m, kb, class)| {
            let a = panel_values(seed, m, kb, class);
            for mode in [PivotMode::Partial, PivotMode::SkipZero, PivotMode::NoPivot] {
                assert_panel_matches_rank1(&a, mode);
            }
        },
    );
}

#[test]
fn panel_singular_column_is_named_alike() {
    // a zero column at the first, a middle and the last column of the
    // first and second chunks: partial and no-pivot LU must stop there
    // exactly as the rank-1 loop does, and the skipping mode must carry on
    // without letting a NaN below the skipped diagonal into later columns
    for zero_col in [0, 3, 7, 8, 11, 15] {
        for m in [zero_col + 1, 40] {
            for nan_below in [false, m > zero_col + 1] {
                let mut a = panel_values(zero_col as u64, m, 24, 0);
                for i in 0..m {
                    a[(i, zero_col)] = if i % 2 == 0 { 0.0 } else { -0.0 };
                }
                if nan_below {
                    a[(m - 1, zero_col)] = f64::NAN;
                }
                for mode in [PivotMode::Partial, PivotMode::SkipZero, PivotMode::NoPivot] {
                    assert_panel_matches_rank1(&a, mode);
                }
                let e = factor_in_place(&mut a.clone(), PivotMode::Partial).unwrap_err();
                assert_eq!(e.column, zero_col);
            }
        }
    }
}

#[test]
fn parallel_trsm_is_bitwise_serial() {
    check(
        48,
        "seed, n, rhs, threads",
        |r| {
            (
                pick(r, 0..500) as u64,
                pick(r, 1..40),
                pick(r, 1..9),
                pick(r, 1..8),
            )
        },
        |&(_, n, rhs, threads)| n + rhs + threads,
        |&(seed, n, rhs, threads)| {
            // column slicing must not change any per-column reduction order
            let mut rng = SplitMix64::new(seed);
            let l = lower_triangle(&mut rng, n);
            let b0 = Matrix::random(&mut rng, n, rhs);
            let mut serial = b0.clone();
            trsm_lower_left(&l, &mut serial, false);
            let mut parallel = b0.clone();
            trsm_lower_left_parallel(&l, &mut parallel, false, threads);
            assert_eq!(serial.as_slice(), parallel.as_slice());
            let u = l.transpose();
            let mut su = b0.clone();
            trsm_upper_left(&u, &mut su, true);
            let mut pu = b0;
            trsm_upper_left_parallel(&u, &mut pu, true, threads);
            assert_eq!(su.as_slice(), pu.as_slice());
        },
    );
}

/// A named in-place solve of a right-hand-side block.
type Solve<'a> = (&'static str, &'a dyn Fn(&mut Matrix));

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

#[test]
fn thin_trsm_solves_match_packed_solves_bitwise() {
    // A solve with at most 10 right-hand sides runs its trailing updates on
    // the unpacked thin GEMM path; the same columns solved inside a 24-wide
    // block take the packed path. Both follow one arithmetic contract, so
    // every column must come out bit for bit the same, under every variant
    // and on both sides of the blocked sweep's BLOCK = 48.
    const WIDE: usize = 24;
    const AT: usize = 5;
    let mut rng = SplitMix64::new(0x7415);
    for krn in microkernels().iter().filter(|k| k.supported()) {
        let guard = force_kernel(krn.name).unwrap();
        for n in [47, 48, 49, 97, 300] {
            // Off-diagonals shrink with n so the solves stay far from overflow.
            let scale = 1.0 / n as f64;
            let l = Matrix::from_fn(n, n, |i, j| match i.cmp(&j) {
                std::cmp::Ordering::Greater => rng.symmetric() * scale,
                std::cmp::Ordering::Equal => 1.5 + rng.unit(),
                std::cmp::Ordering::Less => 0.0,
            });
            let u = l.transpose();
            let f = lu_blocked(&Matrix::random(&mut rng, n, n), 32).unwrap();
            let left: [Solve; 5] = [
                ("trsm_lower_left", &|b| trsm_lower_left(&l, b, false)),
                ("trsm_upper_left", &|b| trsm_upper_left(&u, b, true)),
                ("trsm_lower_left_parallel", &|b| {
                    trsm_lower_left_parallel(&l, b, true, 2)
                }),
                ("trsm_upper_left_parallel", &|b| {
                    trsm_upper_left_parallel(&u, b, false, 2)
                }),
                ("solve_into", &|b| {
                    let mut out = Matrix::zeros(b.rows(), b.cols());
                    f.solve_into(b, &mut out);
                    *b = out;
                }),
            ];
            let right: [Solve; 2] = [
                ("trsm_upper_right", &|b| trsm_upper_right(b, &u, false)),
                ("trsm_lower_right", &|b| trsm_lower_right(b, &l, true)),
            ];
            for w in 0..=11 {
                let what = |name: &str| format!("{name} kernel {} n={n} w={w}", krn.name);
                let wide = Matrix::random(&mut rng, n, WIDE);
                for (name, solve) in &left {
                    let mut thin = wide.block(0, AT, n, w);
                    solve(&mut thin);
                    let mut packed = wide.clone();
                    solve(&mut packed);
                    assert_eq!(thin.shape(), (n, w), "{}", what(name));
                    assert_eq!(
                        bits(&thin),
                        bits(&packed.block(0, AT, n, w)),
                        "{}",
                        what(name)
                    );
                }
                let wide = Matrix::random(&mut rng, WIDE, n);
                for (name, solve) in &right {
                    let mut thin = wide.block(AT, 0, w, n);
                    solve(&mut thin);
                    let mut packed = wide.clone();
                    solve(&mut packed);
                    assert_eq!(thin.shape(), (w, n), "{}", what(name));
                    assert_eq!(
                        bits(&thin),
                        bits(&packed.block(AT, 0, w, n)),
                        "{}",
                        what(name)
                    );
                }
            }
        }
        drop(guard);
    }
}

/// Rows `i` and `k` (`i != k`) of `b`, the first mutably.
fn row_and_row(b: &mut Matrix, i: usize, k: usize) -> (&mut [f64], &[f64]) {
    let w = b.cols();
    let data = b.as_mut_slice();
    if i < k {
        let (head, tail) = data.split_at_mut(k * w);
        (&mut head[i * w..(i + 1) * w], &tail[..w])
    } else {
        let (head, tail) = data.split_at_mut(i * w);
        (&mut tail[..w], &head[k * w..(k + 1) * w])
    }
}

/// Forward substitution on rows `lo..hi`, assuming rows `< lo` are solved:
/// the AXPY loop the blocked TRSM ran on its diagonal blocks before the
/// register-blocked substitution body, kept as that body's oracle.
fn lower_left_axpy(l: &Matrix, b: &mut Matrix, unit_diag: bool, lo: usize, hi: usize) {
    for i in lo..hi {
        let lrow = l.row(i);
        for (k, &lik) in lrow.iter().enumerate().take(i).skip(lo) {
            if lik != 0.0 {
                let (bi, bk) = row_and_row(b, i, k);
                for (x, y) in bi.iter_mut().zip(bk) {
                    *x -= lik * y;
                }
            }
        }
        if !unit_diag {
            let d = lrow[i];
            for x in b.row_mut(i) {
                *x /= d;
            }
        }
    }
}

/// Back substitution on rows `lo..hi`, assuming rows `>= hi` are solved;
/// the upper twin of [`lower_left_axpy`].
fn upper_left_axpy(u: &Matrix, b: &mut Matrix, unit_diag: bool, lo: usize, hi: usize) {
    for ii in (lo..hi).rev() {
        let urow = u.row(ii);
        for (k, &uik) in urow.iter().enumerate().take(hi).skip(ii + 1) {
            if uik != 0.0 {
                let (bi, bk) = row_and_row(b, ii, k);
                for (x, y) in bi.iter_mut().zip(bk) {
                    *x -= uik * y;
                }
            }
        }
        if !unit_diag {
            let d = urow[ii];
            for x in b.row_mut(ii) {
                *x /= d;
            }
        }
    }
}

/// The blocked left solve `T X = B` as `denselin::trsm` sweeps it — 48-row
/// diagonal blocks, each eliminated from the unsolved rows with one
/// `B -= T_blk * X_blk` update — with the blocks substituted by the AXPY
/// loops and the updates by the GEMM oracle at the default `kc` and the
/// kernel's reduction class.
fn blocked_left_axpy(t: &Matrix, b: &mut Matrix, lower: bool, unit_diag: bool, fused: bool) {
    const BLOCK: usize = 48;
    let (n, w) = b.shape();
    let kc = GemmBlocking::default().kc;
    let mut done = 0;
    while done < n && w > 0 {
        let kb = BLOCK.min(n - done);
        // the block's rows and the unsolved rows it feeds
        let (lo, rest) = if lower {
            (done, done + kb..n)
        } else {
            (n - done - kb, 0..n - done - kb)
        };
        if lower {
            lower_left_axpy(t, b, unit_diag, lo, lo + kb);
        } else {
            upper_left_axpy(t, b, unit_diag, lo, lo + kb);
        }
        if !rest.is_empty() {
            let tb = t.block(rest.start, lo, rest.len(), kb);
            let mut trail = b.block(rest.start, 0, rest.len(), w);
            gemm_emulated(
                &mut trail,
                -1.0,
                &tb,
                &b.block(lo, 0, kb, w),
                1.0,
                kc,
                fused,
            );
            b.set_block(rest.start, 0, &trail);
        }
        done += kb;
    }
}

#[test]
fn substitution_is_bitwise_the_axpy_loops() {
    // The register-blocked substitution keeps the AXPY loops' per-element
    // order (ascending k, the `!= 0` skip, unfused `x -= t * y`, then the
    // division), so every left solve must reproduce them bit for bit:
    // at every width across two 8-column chunk edges, on both sides of the
    // 48-row block, on the column chunks of the parallel split (row stride
    // wider than the chunk), with signed-zero factor entries and
    // non-finite right-hand sides, under each instruction set.
    let mut rng = SplitMix64::new(0x5b57);
    let specials = [-0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
    for isa in panel_isas() {
        let _force = force_kernel(isa).unwrap();
        let fused = denselin::gemm::selected_kernel().fused;
        for n in [47, 48, 49, 97] {
            let scale = 1.0 / n as f64;
            let l = Matrix::from_fn(n, n, |i, j| match i.cmp(&j) {
                std::cmp::Ordering::Greater => match rng.below(8) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.symmetric() * scale,
                },
                std::cmp::Ordering::Equal => 1.5 + rng.unit(),
                std::cmp::Ordering::Less => 0.0,
            });
            let u = l.transpose();
            for w in 0..=17 {
                let b0 = Matrix::from_fn(n, w, |_, _| {
                    if rng.below(16) == 0 {
                        *rng.choose(&specials)
                    } else {
                        rng.symmetric()
                    }
                });
                for unit in [true, false] {
                    for (name, t, lower) in [("lower", &l, true), ("upper", &u, false)] {
                        let mut want = b0.clone();
                        blocked_left_axpy(t, &mut want, lower, unit, fused);
                        for threads in [1, 2, 3] {
                            let mut got = b0.clone();
                            match (lower, threads) {
                                (true, 1) => trsm_lower_left(t, &mut got, unit),
                                (false, 1) => trsm_upper_left(t, &mut got, unit),
                                (true, _) => trsm_lower_left_parallel(t, &mut got, unit, threads),
                                (false, _) => trsm_upper_left_parallel(t, &mut got, unit, threads),
                            }
                            assert_eq!(
                                bits_nan_as_one(&got),
                                bits_nan_as_one(&want),
                                "{isa} {name} n={n} w={w} unit={unit} threads={threads}"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn cholesky_reconstructs_spd() {
    check(
        48,
        "seed, n, nb",
        |r| (pick(r, 0..500) as u64, pick(r, 1..24), pick(r, 1..8)),
        |&(_, n, _)| n,
        |&(seed, n, nb)| {
            let mut rng = SplitMix64::new(seed);
            let a = random_spd(&mut rng, n);
            let l = cholesky_blocked(&a, nb).unwrap();
            assert!(cholesky_residual(&a, &l) < 1e-10);
        },
    );
}

#[test]
fn block_roundtrip_preserves_data() {
    check(
        48,
        "seed, rows, cols, r0, c0",
        |r| {
            (
                pick(r, 0..500) as u64,
                pick(r, 1..16),
                pick(r, 1..16),
                pick(r, 0..8),
                pick(r, 0..8),
            )
        },
        |&(_, rows, cols, r0, c0)| rows + cols + r0 + c0,
        |&(seed, rows, cols, r0, c0)| {
            let big = rand_matrix(seed, rows + r0 + 2, cols + c0 + 2);
            let block = big.block(r0, c0, rows, cols);
            let mut copy = big.clone();
            copy.set_block(r0, c0, &block);
            assert_eq!(copy, big);
        },
    );
}
