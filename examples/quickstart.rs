//! Quickstart: factorize a matrix with COnfLUX on a simulated 2x2x2
//! processor grid (the paper's Figure 5 configuration), verify the factors,
//! and inspect the per-phase communication breakdown.
//!
//! Run with `cargo run --release --example quickstart`.

use conflux_repro::conflux::{factorize, ConfluxConfig, LuGrid};
use conflux_repro::denselin::Matrix;
use conflux_repro::denselin::SplitMix64;

fn main() {
    let n = 256;
    let v = 16;
    // P = 8 ranks as a 2x2x2 grid: 2x2 layers with 2-fold replication
    let grid = LuGrid::new(8, 2, 2);

    let mut rng = SplitMix64::new(42);
    let a = Matrix::random(&mut rng, n, n);

    println!(
        "COnfLUX quickstart: N = {n}, grid = [{0}, {0}, {1}] (P = {2})",
        grid.q,
        grid.c,
        grid.active()
    );
    let cfg = ConfluxConfig::dense(n, v, grid);
    let run = factorize(&cfg, Some(&a));

    let factors = run.factors.expect("dense run produces factors");
    let residual = factors.residual(&a);
    println!("residual  ||PA - LU|| / ||A||  =  {residual:.3e}");
    assert!(residual < 1e-10, "factorization failed");

    println!("\nper-phase communication volume (elements sent, all ranks):");
    print!("{}", run.stats.phase_table());

    println!(
        "total bytes on the wire: {} ({} messages)",
        run.stats.total_bytes(),
        run.stats.total_messages()
    );
    println!(
        "busiest rank sent {} elements; mean {:.0} elements/rank",
        run.stats.max_sent_per_rank(),
        run.stats.mean_sent_per_rank()
    );

    // Solve A x = b with the factors: P A = L U  =>  x = U^-1 L^-1 P b
    let x_true = Matrix::random(&mut rng, n, 1);
    let b = a.matmul(&x_true);
    let mut y = b.gather_rows(&factors.perm);
    conflux_repro::denselin::trsm::trsm_lower_left(&factors.l(), &mut y, true);
    conflux_repro::denselin::trsm::trsm_upper_left(&factors.u(), &mut y, false);
    let err = y.sub(&x_true).frobenius_norm() / x_true.frobenius_norm();
    println!("\nlinear solve through the distributed factors: relative error {err:.3e}");
    assert!(err < 1e-6);
    println!("ok");
}
