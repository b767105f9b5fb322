//! Compare the communication volume of all four LU implementations —
//! LibSci-style 2D, SLATE-style 2D, CANDMC-style 2.5D, and COnfLUX — on the
//! same simulated machine (a development-scale version of Table 2; run the
//! `table2` binary in `crates/bench` for the paper-scale sweep).
//!
//! Run with `cargo run --release --example comm_volume`.

use conflux_repro::baselines::lu2d::{factorize_2d, Lu2dConfig, Variant};
use conflux_repro::baselines::{factorize_candmc, CandmcConfig};
use conflux_repro::conflux::{choose_grid, factorize, ConfluxConfig, Mode};

fn main() {
    let n = 4096;
    let p = 64;
    // the paper's Fig. 6 memory regime: M = N^2 / P^(2/3)
    let m = ((n * n) as f64 / (p as f64).powf(2.0 / 3.0)) as usize;

    println!("LU communication volume at N = {n}, P = {p} (simulated, Phantom mode)\n");
    println!(
        "{:<10} {:>16} {:>16} {:>10}",
        "library", "total elements", "mean/rank", "vs best"
    );

    let mut rows: Vec<(&str, u64)> = Vec::new();

    for (name, variant) in [("LibSci", Variant::LibSci), ("SLATE", Variant::Slate)] {
        let cfg = Lu2dConfig::for_ranks(n, p, variant, Mode::Phantom);
        let run = factorize_2d(&cfg, None);
        rows.push((name, run.stats.total_sent()));
    }

    let grid = choose_grid(p, n, m);
    let v = 16;
    let candmc = factorize_candmc(&CandmcConfig::phantom(n, v, grid), None)
        .expect("a Phantom run does no arithmetic, so it cannot be singular");
    rows.push(("CANDMC", candmc.stats.total_sent()));

    let conflux = factorize(&ConfluxConfig::phantom(n, v, grid), None);
    rows.push(("COnfLUX", conflux.stats.total_sent()));

    let best = rows.iter().map(|(_, v)| *v).min().unwrap();
    for (name, total) in &rows {
        println!(
            "{:<10} {:>16} {:>16.0} {:>9.2}x",
            name,
            total,
            *total as f64 / p as f64,
            *total as f64 / best as f64
        );
    }

    println!(
        "\nCOnfLUX grid: [{q}, {q}, {c}] ({a} active ranks, {d} disabled by grid optimization)",
        q = grid.q,
        c = grid.c,
        a = grid.active(),
        d = grid.disabled()
    );
    assert_eq!(
        rows.last().unwrap().1,
        best,
        "COnfLUX should communicate least"
    );
    println!("COnfLUX communicates least, as in the paper.");
}
