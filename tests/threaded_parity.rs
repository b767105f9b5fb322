//! Threaded COnfLUX against the orchestrated driver over the whole grid
//! family: q ∈ {1,2,4}, c ∈ {1,2,4}, both pivot choices, two input
//! classes. The threaded backend must pick the same pivots and charge the
//! same per-rank, per-phase volumes; at c = 1 (no fiber reductions, so the
//! same summation order) its factors must match bit for bit.

use conflux_repro::conflux::{factorize, factorize_threaded, ConfluxConfig, LuGrid, PivotChoice};
use conflux_repro::denselin::Matrix;
use conflux_repro::verifier::matgen;
use conflux_repro::verifier::MatrixClass;

/// FNV-1a over the bit patterns of `perm`, `L` and `U`.
fn fnv(hash: &mut u64, bits: impl IntoIterator<Item = u64>) {
    for b in bits {
        for byte in b.to_le_bytes() {
            *hash ^= u64::from(byte);
            *hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    }
}

fn bits(m: &Matrix) -> impl Iterator<Item = u64> + '_ {
    m.as_slice().iter().map(|x| x.to_bits())
}

#[test]
fn threaded_matches_orchestrated_across_grids() {
    let (n, v) = (64, 8);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for q in [1usize, 2, 4] {
        for c in [1usize, 2, 4] {
            for choice in [PivotChoice::Tournament, PivotChoice::Synthetic] {
                for (class, mseed) in [(MatrixClass::Well, 11), (MatrixClass::DiagDom, 12)] {
                    let label = format!("q={q} c={c} {choice:?} {class:?}");
                    let a = matgen::matrix(class, n, mseed + (q * 10 + c) as u64);
                    let mut cfg = ConfluxConfig::dense(n, v, LuGrid::new(q * q * c, q, c));
                    cfg.pivot_choice = choice;
                    let threaded = factorize_threaded(&cfg, &a).expect("fault-free run");
                    let orchestrated = factorize(&cfg, Some(&a));
                    let tf = threaded.factors.as_ref().unwrap();
                    let of = orchestrated.factors.as_ref().unwrap();

                    assert_eq!(tf.perm, of.perm, "{label}: pivots");
                    assert_eq!(threaded.stats, orchestrated.stats, "{label}: CommStats");
                    let (tl, tu) = (tf.l(), tf.u());
                    if c == 1 {
                        assert!(
                            bits(&tl).eq(bits(&of.l())) && bits(&tu).eq(bits(&of.u())),
                            "{label}: factors differ bitwise from the orchestrated run"
                        );
                    }
                    let res = tf.residual(&a);
                    assert!(res < 1e-9, "{label}: residual {res:.2e}");

                    fnv(&mut hash, tf.perm.iter().map(|&r| r as u64));
                    fnv(&mut hash, bits(&tl));
                    fnv(&mut hash, bits(&tu));
                }
            }
        }
    }
    // Machine-dependent (the microkernel fixes the rounding), so printed
    // rather than pinned: compare it across two builds on one host.
    eprintln!("threaded L/U hash over the sweep: {hash:016x}");
}
