//! Pinned output bits of the sparse solve path: FNV-1a hashes of a SymGS
//! preconditioner application, a symmetric SymGS sweep and a
//! SymGS-preconditioned CG solution, at one and three threads. The hashes
//! were recorded before the triangle storage moved to level order, so any
//! change to the per-row arithmetic or its order shows up here. Every level
//! of these matrices is far narrower than the pool threshold, so the
//! triangular solves run inline at both thread counts and the three-thread
//! run exercises the threaded SpMV and CG; pooled levels are covered by the
//! `trsv` unit tests.

use denselin::SplitMix64;
use sparselin::{
    banded, cg, random_density, spd_laplacian, CgConfig, CsrMatrix, PrecondSetup, SymGs,
};

fn fnv(v: &[f64]) -> u64 {
    v.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, x| {
        (h ^ x.to_bits()).wrapping_mul(0x0100_0000_01b3)
    })
}

fn rhs(n: usize, seed: u64) -> Vec<f64> {
    let mut r = SplitMix64::new(seed);
    (0..n).map(|_| r.symmetric()).collect()
}

/// `[apply z, sweep x, CG x]` hashes of `a` at `threads`.
fn hashes(a: &CsrMatrix, threads: usize) -> [u64; 3] {
    let n = a.rows();
    let gs = SymGs::new(a).unwrap();
    let r = rhs(n, 1);
    let mut z = vec![0.0; n];
    gs.apply(&r, &mut z, threads).unwrap();
    let b = rhs(n, 2);
    let mut x = vec![0.0; n];
    gs.sweep(a, &b, &mut x, threads).unwrap();
    gs.sweep(a, &b, &mut x, threads).unwrap();
    let cfg = CgConfig {
        threads,
        ..Default::default()
    };
    let out = cg(a, &b, &PrecondSetup::SymGs(Box::new(gs)), &cfg).unwrap();
    assert!(out.converged);
    [fnv(&z), fnv(&x), fnv(&out.x)]
}

#[test]
fn symgs_and_cg_bits_are_pinned() {
    let cases: [(&str, CsrMatrix, [u64; 3]); 5] = [
        (
            "laplacian 100x100",
            spd_laplacian(100, 100, 0.05),
            [
                0xaee0_d590_4184_9fd9,
                0xc723_4970_2256_9e23,
                0xfd2d_5bc6_6011_5238,
            ],
        ),
        (
            "laplacian 125x80",
            spd_laplacian(125, 80, 0.1),
            [
                0xf131_8fb0_6708_5957,
                0x3206_b2ec_331a_a1b7,
                0x2001_06e1_156f_c372,
            ],
        ),
        (
            "laplacian 80x125",
            spd_laplacian(80, 125, 0.2),
            [
                0xfb1e_7739_b0fa_9697,
                0x64b8_17f5_64e0_fdcd,
                0x38a8_5e02_65be_b718,
            ],
        ),
        (
            "banded 500/4",
            banded(500, 4, 9),
            [
                0x6bee_98dc_6a6a_0b4f,
                0xe60f_a1a0_ad88_d113,
                0x7fbd_0390_76fb_f3c7,
            ],
        ),
        (
            "random 400/0.02",
            random_density(400, 0.02, 5),
            [
                0x8234_b750_0b27_360f,
                0xdd16_5e72_6076_ad7d,
                0x6a22_f09f_a31d_1348,
            ],
        ),
    ];
    for (name, a, want) in &cases {
        for threads in [1, 3] {
            let got = hashes(a, threads);
            assert_eq!(&got, want, "{name} at {threads} threads");
        }
    }
}
