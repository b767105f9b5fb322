//! Threaded COnfLUX factor bits pinned under one portable microkernel, so
//! a change of rounding fails here on any x86-64 host instead of only
//! changing a printed hash. A binary of its own: `force_kernel` switches
//! the kernel for the whole process, and the other test binaries run under
//! the host's default kernel.
//!
//! Both pins run under the one fixed GEMM blocking (`kc` = 256, deeper
//! than every `v` here), so they hold on every host.
#![cfg(target_arch = "x86_64")]

use conflux_repro::conflux::{factorize_threaded, ConfluxConfig, LuGrid, PivotChoice};
use conflux_repro::denselin::{force_kernel, Matrix};
use conflux_repro::verifier::matgen;
use conflux_repro::verifier::MatrixClass;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over the little-endian bytes of each word.
fn fnv(hash: &mut u64, words: impl IntoIterator<Item = u64>) {
    for w in words {
        for byte in w.to_le_bytes() {
            *hash ^= u64::from(byte);
            *hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    }
}

fn bits(m: &Matrix) -> impl Iterator<Item = u64> + '_ {
    m.as_slice().iter().map(|x| x.to_bits())
}

/// The `threaded_parity` sweep hash: `perm`, `L` and `U` of every
/// threaded run over q ∈ {1,2,4}, c ∈ {1,2,4}, both pivot choices and two
/// input classes at N = 64, v = 8, in that test's order.
fn parity_sweep_hash() -> u64 {
    let (n, v) = (64, 8);
    let mut hash = FNV_OFFSET;
    for q in [1usize, 2, 4] {
        for c in [1usize, 2, 4] {
            for choice in [PivotChoice::Tournament, PivotChoice::Synthetic] {
                for (class, mseed) in [(MatrixClass::Well, 11), (MatrixClass::DiagDom, 12)] {
                    let a = matgen::matrix(class, n, mseed + (q * 10 + c) as u64);
                    let mut cfg = ConfluxConfig::dense(n, v, LuGrid::new(q * q * c, q, c));
                    cfg.pivot_choice = choice;
                    let run = factorize_threaded(&cfg, &a).expect("fault-free run");
                    let f = run.factors.as_ref().unwrap();
                    fnv(&mut hash, f.perm.iter().map(|&r| r as u64));
                    fnv(&mut hash, bits(&f.l()));
                    fnv(&mut hash, bits(&f.u()));
                }
            }
        }
    }
    hash
}

/// `perm`, then the packed `L\U`, of the `conflux-lu` benchmark's shape:
/// N = 512, v = 32 on `[1, 1, 2]`.
fn benchmark_shape_hash() -> u64 {
    let (n, v) = (512, 32);
    let a = matgen::matrix(MatrixClass::Well, n, 99);
    let cfg = ConfluxConfig::dense(n, v, LuGrid::new(2, 1, 2));
    let run = factorize_threaded(&cfg, &a).expect("fault-free run");
    let f = run.factors.as_ref().unwrap();
    assert!(f.residual(&a) < 1e-12, "residual {:.2e}", f.residual(&a));
    let mut hash = FNV_OFFSET;
    fnv(&mut hash, f.perm.iter().map(|&r| r as u64));
    fnv(&mut hash, bits(&f.lu));
    hash
}

#[test]
fn threaded_factor_bits_are_pinned_under_portable_kernels() {
    for kernel in ["portable_8x4", "portable_4x4"] {
        let _forced = force_kernel(kernel).expect("portable kernels run everywhere");
        assert_eq!(
            format!("{:016x}", parity_sweep_hash()),
            "028c49da589c8a33",
            "{kernel}: threaded_parity sweep"
        );
        assert_eq!(
            format!("{:016x}", benchmark_shape_hash()),
            "84c6ce31e783e125",
            "{kernel}: N=512, v=32 on [1,1,2]"
        );
    }
}
