//! The archetype headline: every registered microkernel variant is pinned
//! bitwise-equal to the scalar [`denselin::gemm_emulated`] oracle, over
//! awkward shapes, fringe tiles, beta=0-over-NaN, alpha=0, and every
//! thread count — by *exhaustively iterating the variant table*, never
//! sampling it. Adding a variant to [`denselin::microkernels`] without
//! parity coverage is impossible (the loops pick it up), and removing a
//! variant fails `variant_table_covers_expected_family`.
//!
//! Tests that force the process-wide selection serialize through the
//! [`denselin::force_kernel`] guard's internal lock; the rest pin the
//! kernel in an explicit [`GemmConfig`] and touch no global state.

use denselin::gemm::selected_kernel;
use denselin::SplitMix64;
use denselin::{
    force_kernel, gemm_auto, gemm_emulated, gemm_with, lu_blocked, lu_parallel_with, microkernels,
    GemmBlocking, GemmConfig, Matrix, Microkernel,
};

/// The configuration pinning all three settings.
fn config(threads: usize, blocking: GemmBlocking, kernel: &'static Microkernel) -> GemmConfig {
    GemmConfig {
        threads,
        blocking,
        kernel,
    }
}

/// Shape triples `(m, n, k)` stressing every fringe case of every
/// registered (mr, nr): below-tile, exact-tile, one-past-tile for
/// mr ∈ {4,6,8} and nr ∈ {4,8,16}, plus empty and reduction-heavy corners.
/// The thin (unpacked, `n <= 10`) path gets `k` over several `kc` blocks,
/// its widest width, `n = 11`, one past its width limit, and every
/// `m = 1..=17` at every width: each remainder of its 2-, 6- and 8-row
/// groups, and two full 8-row groups.
fn shapes() -> Vec<(usize, usize, usize)> {
    let thin = (1..=17).flat_map(|m| (1..=10).map(move |n| (m, n, 11)));
    let mut shapes = vec![
        (37, 1, 70),
        (37, 2, 70),
        (38, 3, 9),
        (5, 8, 33),
        (64, 9, 20),
        (1, 8, 1),
        (37, 10, 70),
        (64, 11, 20),
        (1, 1, 1),
        (3, 3, 2),
        (4, 4, 5),
        (5, 5, 5),
        (6, 8, 7),
        (7, 9, 3),
        (8, 4, 9),
        (8, 16, 4),
        (9, 17, 6),
        (12, 8, 13),
        (13, 5, 31),
        (16, 16, 16),
        (17, 33, 9),
        (23, 31, 17),
        (24, 12, 8),
        (33, 7, 29),
        (0, 4, 4),
        (4, 0, 4),
        (4, 4, 0),
    ];
    shapes.extend(thin);
    shapes
}

/// Blockings stressing the kc split the emulator must reproduce: kc=1
/// (one writeback per k step), tiny awkward, kc larger than any k above.
fn blockings() -> Vec<GemmBlocking> {
    vec![
        GemmBlocking {
            mc: 5,
            kc: 1,
            nc: 7,
        },
        GemmBlocking {
            mc: 7,
            kc: 3,
            nc: 5,
        },
        GemmBlocking {
            mc: 16,
            kc: 7,
            nc: 24,
        },
        GemmBlocking {
            mc: 128,
            kc: 256,
            nc: 512,
        },
    ]
}

#[test]
fn variant_table_covers_expected_family() {
    let names: Vec<&str> = microkernels().iter().map(|k| k.name).collect();
    // The portable shapes exist on every architecture; removing any of
    // them (or its parity coverage, which iterates this same table) is a
    // test failure, not a silent capability loss.
    for required in [
        "portable_4x4",
        "portable_8x4",
        "portable_6x8",
        "portable_8x8",
    ] {
        assert!(names.contains(&required), "missing {required} in {names:?}");
    }
    #[cfg(target_arch = "x86_64")]
    for required in [
        "avx2_4x4",
        "avx2_8x4",
        "avx2_6x8",
        "avx2_8x8",
        "avx512_8x16",
    ] {
        assert!(names.contains(&required), "missing {required} in {names:?}");
    }
    // Geometry sanity for the packer: every (mr, nr) is positive and the
    // name encodes it (`force_kernel` and the verifier's scenarios select
    // variants by name).
    for k in microkernels() {
        assert!(k.mr >= 1 && k.nr >= 1);
        assert!(k.name.ends_with(&format!("{}x{}", k.mr, k.nr)));
    }
}

#[test]
fn every_variant_matches_emulator_bitwise_serial() {
    let mut rng = SplitMix64::new(0xA11CE);
    let mut covered = 0usize;
    for krn in microkernels() {
        if !krn.supported() {
            continue;
        }
        covered += 1;
        for (m, n, k) in shapes() {
            let a = Matrix::random(&mut rng, m, k);
            let b = Matrix::random(&mut rng, k, n);
            let c0 = Matrix::random(&mut rng, m, n);
            for blk in blockings() {
                for &(alpha, beta) in &[(1.0, 0.0), (-1.5, 0.25), (2.0, 1.0), (0.0, 0.5)] {
                    let mut c = c0.clone();
                    gemm_with(&mut c, (0, 0), alpha, &a, &b, beta, &config(1, blk, krn));
                    let mut e = c0.clone();
                    gemm_emulated(&mut e, alpha, &a, &b, beta, blk.kc, krn.fused);
                    assert_eq!(
                        c.as_slice(),
                        e.as_slice(),
                        "kernel {} m={m} n={n} k={k} blk={blk:?} alpha={alpha} beta={beta}",
                        krn.name
                    );
                }
            }
        }
    }
    assert!(
        covered >= 4,
        "at least the portable family must be runnable"
    );
}

#[test]
fn every_variant_overwrites_nan_under_beta_zero() {
    let mut rng = SplitMix64::new(0xBAD0);
    for krn in microkernels() {
        if !krn.supported() {
            continue;
        }
        for (m, n, k) in [(7, 9, 5), (17, 13, 8), (8, 16, 16)] {
            let a = Matrix::random(&mut rng, m, k);
            let b = Matrix::random(&mut rng, k, n);
            let mut c = Matrix::from_fn(m, n, |_, _| f64::NAN);
            let blk = GemmBlocking {
                mc: 5,
                kc: 3,
                nc: 7,
            };
            gemm_with(&mut c, (0, 0), 1.0, &a, &b, 0.0, &config(1, blk, krn));
            assert!(
                c.as_slice().iter().all(|v| v.is_finite()),
                "kernel {}: beta=0 must overwrite NaN garbage",
                krn.name
            );
            let mut e = Matrix::from_fn(m, n, |_, _| f64::NAN);
            gemm_emulated(&mut e, 1.0, &a, &b, 0.0, blk.kc, krn.fused);
            assert_eq!(c.as_slice(), e.as_slice(), "kernel {}", krn.name);
        }
    }
}

#[test]
fn every_variant_matches_emulator_bitwise_at_every_thread_count() {
    let mut rng = SplitMix64::new(0x7EAD);
    // Past the 128³ volume from which the tile queue fans out, with
    // fringe tiles in both dimensions under the small blk.
    let (m, n, k) = (131, 131, 123);
    let a = Matrix::random(&mut rng, m, k);
    let b = Matrix::random(&mut rng, k, n);
    let c0 = Matrix::random(&mut rng, m, n);
    let blk = GemmBlocking {
        mc: 16,
        kc: 7,
        nc: 24,
    };
    for krn in microkernels() {
        if !krn.supported() {
            continue;
        }
        let mut expect = c0.clone();
        gemm_emulated(&mut expect, -1.25, &a, &b, 0.75, blk.kc, krn.fused);
        for threads in 1..=8 {
            let mut c = c0.clone();
            let cfg = config(threads, blk, krn);
            gemm_with(&mut c, (0, 0), -1.25, &a, &b, 0.75, &cfg);
            assert_eq!(
                c.as_slice(),
                expect.as_slice(),
                "kernel {} at {threads} threads",
                krn.name
            );
        }
    }
}

#[test]
fn forcing_each_variant_routes_public_gemm_and_stays_bitwise() {
    let mut rng = SplitMix64::new(0xF0CE);
    let a = Matrix::random(&mut rng, 53, 37);
    let b = Matrix::random(&mut rng, 37, 61);
    let c0 = Matrix::random(&mut rng, 53, 61);
    for krn in microkernels() {
        if !krn.supported() {
            let err = force_kernel(krn.name).unwrap_err();
            assert!(err.contains("not supported"), "{err}");
            continue;
        }
        let guard = force_kernel(krn.name).expect("supported variant must force");
        assert_eq!(selected_kernel().name, krn.name);
        // The public dispatch paths under the force must equal the
        // explicit-kernel path bit for bit (same fixed blocking).
        let mut c_exp = c0.clone();
        let cfg = config(1, GemmBlocking::default(), krn);
        gemm_with(&mut c_exp, (0, 0), 1.5, &a, &b, -0.5, &cfg);
        let mut c_pub = c0.clone();
        gemm_with(&mut c_pub, (0, 0), 1.5, &a, &b, -0.5, &GemmConfig::serial());
        assert_eq!(c_pub.as_slice(), c_exp.as_slice(), "kernel {}", krn.name);
        let mut c_auto = c0.clone();
        gemm_auto(&mut c_auto, 1.5, &a, &b, -0.5);
        assert_eq!(c_auto.as_slice(), c_exp.as_slice(), "kernel {}", krn.name);
        drop(guard);
    }
}

#[test]
fn forcing_each_variant_keeps_lu_parallel_bitwise_serial() {
    // The LU pipeline resolves the kernel once per factorization; under
    // every forced variant the lookahead-parallel result must still be
    // bitwise identical to the serial blocked path (both run under the
    // same force, so they use the same variant).
    let mut rng = SplitMix64::new(0x10F);
    let a = Matrix::random(&mut rng, 96, 96);
    for krn in microkernels() {
        if !krn.supported() {
            continue;
        }
        let guard = force_kernel(krn.name).unwrap();
        let fs = lu_blocked(&a, 32).unwrap();
        let fp = lu_parallel_with(&a, 32, 4).unwrap();
        assert_eq!(fp.lu.as_slice(), fs.lu.as_slice(), "kernel {}", krn.name);
        assert_eq!(fp.perm, fs.perm, "kernel {}", krn.name);
        drop(guard);
    }
}

#[test]
fn every_variant_keeps_offset_update_bitwise_product_then_add() {
    // In-place accumulation into an offset region: every element gets one
    // `c + alpha*acc` writeback per kc block, which is the emulator run on
    // the region with beta = 1. With k <= kc that is one writeback, exactly
    // what a separate product (`0 + alpha*acc`) followed by an element-wise
    // add produces.
    let mut rng = SplitMix64::new(0x6E0D);
    for krn in microkernels() {
        if !krn.supported() {
            continue;
        }
        let shallow = GemmBlocking {
            mc: 7,
            kc: 3,
            nc: 5,
        };
        for blk in [GemmBlocking::default(), shallow] {
            let cfg = config(1, blk, krn);
            for (m, n, k) in shapes() {
                for (r0, c0) in [(0, 0), (3, 5), (krn.mr + 1, krn.nr - 1)] {
                    for alpha in [1.0, -0.75] {
                        let a = Matrix::random(&mut rng, m, k);
                        let b = Matrix::random(&mut rng, k, n);
                        let c = Matrix::random(&mut rng, r0 + m + 2, c0 + n + 3);
                        let mut got = c.clone();
                        gemm_with(&mut got, (r0, c0), alpha, &a, &b, 1.0, &cfg);
                        let what = format!(
                            "kernel {} {blk:?} shape ({m},{n},{k}) at ({r0},{c0}) alpha {alpha}",
                            krn.name
                        );
                        let mut region = c.block(r0, c0, m, n);
                        gemm_emulated(&mut region, alpha, &a, &b, 1.0, blk.kc, krn.fused);
                        let mut want = c.clone();
                        want.set_block(r0, c0, &region);
                        assert_eq!(got.as_slice(), want.as_slice(), "{what} vs emulator");
                        if k <= blk.kc {
                            let mut prod = Matrix::zeros(m, n);
                            gemm_with(&mut prod, (0, 0), alpha, &a, &b, 0.0, &cfg);
                            let mut want = c.clone();
                            want.add_block(r0, c0, &prod);
                            assert_eq!(got.as_slice(), want.as_slice(), "{what}");
                        }
                    }
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "region out of bounds")]
fn offset_region_past_the_edge_is_rejected() {
    let mut c = Matrix::zeros(6, 6);
    let a = Matrix::zeros(3, 2);
    let b = Matrix::zeros(2, 4);
    gemm_with(&mut c, (4, 1), 1.0, &a, &b, 1.0, &GemmConfig::serial());
}
