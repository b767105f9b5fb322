//! `tracecap` — capture event timelines of a COnfLUX run and the 2D
//! partial-pivoting baseline at the same `(N, P)`, export both as Chrome
//! trace-event JSON (open in <https://ui.perfetto.dev> or
//! `chrome://tracing`), and print the observability suite: per-rank ASCII
//! timelines, the per-phase histogram, the I/O lower-bound gauge
//! (`2N³/(3P√M)`), and both critical-path reports.
//!
//! The headline comparison is Section 7.3's latency claim: tournament
//! pivoting needs `O(N/v)` pivoting rounds where partial pivoting needs
//! `O(N)` — so COnfLUX's pivoting phase must contribute a shorter latency
//! (α) chain to the critical path than the baseline's per-column pivot
//! allreduce at the same `(N, P)`.
//!
//! Usage: `cargo run --release --bin tracecap -- [--n N] [--p P]
//! [--out PATH] [--check]`

use baselines::lu2d::{factorize_2d, Lu2dConfig, Variant};
use conflux::grid::choose_grid;
use conflux::{factorize, ConfluxConfig, Mode};
use conflux_bench::experiments::pick_block_size;

fn arg_usize(args: &[String], name: &str, default: usize) -> usize {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().unwrap_or_else(|_| panic!("bad {name}: {v}")))
        .unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n = arg_usize(&args, "--n", 1024);
    let p = arg_usize(&args, "--p", 64);
    let check = args.iter().any(|a| a == "--check");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| format!("{}/../..", env!("CARGO_MANIFEST_DIR")));

    // ---- traced COnfLUX run (Phantom: volumes + timeline, no numerics) ----
    let m = baselines::models::fig6_memory(n as f64, p as f64).ceil() as usize;
    let grid = choose_grid(p, n, m);
    let v = pick_block_size(n, grid.q, grid.c);
    println!(
        "# tracecap: N={n} P={p} grid=[{q},{q},{c}] v={v} (M={m} elements/rank)",
        q = grid.q,
        c = grid.c
    );
    let run = factorize(&ConfluxConfig::phantom(n, v, grid).with_timeline(), None);
    let trace = run.timeline.expect("timeline was requested");

    // the timeline must reconcile exactly with the accountant
    assert_eq!(
        trace.rebuild_stats().phase_table(),
        run.stats.phase_table(),
        "trace does not reconcile with CommStats"
    );

    println!("\n## COnfLUX per-rank timeline (virtual time)");
    print!("{}", trace.timeline_ascii(96, 8));
    println!("\n## COnfLUX per-phase traffic");
    print!("{}", trace.phase_histogram());

    // Theorem 2 lower bound on per-rank I/O: 2N³/(3P√M) elements
    let bound = 2.0 * (n as f64).powi(3) / (3.0 * p as f64 * (m as f64).sqrt());
    println!("\n## I/O lower-bound gauge (2N³/(3P√M))");
    print!("{}", trace.lower_bound_gauge(bound));

    let cp = trace.critical_path();
    println!("\n## COnfLUX critical path");
    print!("{}", cp.report());

    // ---- the partial-pivoting baseline at the same (N, P) ----
    let bcfg = Lu2dConfig::for_ranks(n, p, Variant::LibSci, Mode::Phantom).with_timeline();
    let brun = factorize_2d(&bcfg, None);
    let btrace = brun.timeline.expect("timeline was requested");
    assert_eq!(
        btrace.rebuild_stats().phase_table(),
        brun.stats.phase_table(),
        "baseline trace does not reconcile with CommStats"
    );
    let bcp = btrace.critical_path();
    println!("\n## LibSci-style 2D (partial pivoting) critical path");
    print!("{}", bcp.report());

    // ---- Section 7.3: pivoting latency chains ----
    let ours = cp.phase_cost("02:tournament").map_or(0.0, |c| c.alpha);
    let theirs = bcp
        .phase_cost("panel:pivot-allreduce")
        .map_or(0.0, |c| c.alpha);
    println!("\n## pivoting latency on the critical path");
    println!(
        "  COnfLUX  02:tournament          {:>12.1} us  (O(N/v) = {} pivot rounds)",
        ours * 1e6,
        n / v
    );
    println!(
        "  LibSci   panel:pivot-allreduce  {:>12.1} us  (O(N) = {} pivot columns)",
        theirs * 1e6,
        n
    );
    let ok = ours < theirs;
    println!(
        "  => tournament chain {} the per-column allreduce chain",
        if ok { "BEATS" } else { "DOES NOT BEAT" }
    );

    // ---- Chrome trace-event JSON for Perfetto / chrome://tracing ----
    let conflux_path = format!("{out}/TRACE_conflux.json");
    let lu2d_path = format!("{out}/TRACE_lu2d.json");
    std::fs::write(&conflux_path, trace.to_chrome_trace()).expect("write conflux trace");
    std::fs::write(&lu2d_path, btrace.to_chrome_trace()).expect("write lu2d trace");
    println!("\n# wrote {conflux_path}");
    println!("# wrote {lu2d_path}");
    println!("# open either file at https://ui.perfetto.dev");

    if check && !ok {
        eprintln!("# check FAILED: tournament latency chain did not beat partial pivoting");
        std::process::exit(1);
    }
}
