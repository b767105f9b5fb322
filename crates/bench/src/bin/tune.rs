//! `tune` — the persistent microkernel/blocking tuner.
//!
//! Sweeps the generated microkernel variant table
//! (`denselin::microkernels`) against a `(mc, kc, nc)` blocking grid and
//! thread counts (warmup runs, repeated timed runs, median — see
//! `denselin::tune`), writes the full search surface to
//! `BENCH_tuning.json` at the repo root, and persists the winning
//! `(kernel, blocking)` pair to the per-host tuning file
//! (`$DENSELIN_TUNING_FILE`, else `~/.cache/denselin/tuning.toml`) that
//! `GemmBlocking::tuned()` and `selected_kernel()` consult at startup.
//!
//! Before anything is measured, every supported variant must prove itself
//! bitwise-equal to the scalar emulator on an awkward-shape probe: the
//! tuner refuses to persist a winner from a table that is not
//! parity-clean.
//!
//! Gates:
//! * `--check` — fail unless every supported variant passed parity and
//!   the persisted winner's throughput is at least the measured heuristic
//!   baseline (the default kernel under `GemmBlocking::default()`).
//! * `--check-reload` — no sweep at all: assert that a *previous* tune run
//!   persisted a record this process loads back (`TuneSource::Persisted`
//!   for both blocking and kernel). Run it as a second process after
//!   `tune --check` to pin the load-instead-of-resweep contract.
//!
//! Usage: `cargo run --release -p conflux-bench --bin tune --
//! [--quick] [--check] [--check-reload] [--out PATH]`

use std::fmt::Write as _;

use denselin::gemm::{
    default_isa_kernel, gemm_emulated, gemm_with, microkernels, selected_kernel_with_source,
    GemmBlocking, GemmConfig,
};
use denselin::matrix::Matrix;
use denselin::tune::{
    best_point, host_key, measure_gflops, sweep, tuning_file_path, SweepConfig, SweepPoint,
    TuneSource, TuningFile, TuningRecord,
};
use denselin::SplitMix64;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let check_reload = args.iter().any(|a| a == "--check-reload");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| format!("{}/../../BENCH_tuning.json", env!("CARGO_MANIFEST_DIR")));

    if check_reload {
        run_reload_check();
        return;
    }

    println!("# tune: host key {}", host_key());

    // ---- parity gate: no winner is persisted from an unproven table ----
    let parity = parity_results();
    for (name, status) in &parity {
        println!("# parity {name:>14}: {status}");
    }
    let parity_clean = parity
        .iter()
        .all(|(_, s)| *s == "bitwise-ok" || *s == "skipped (unsupported)");

    // ---- the sweep -----------------------------------------------------
    let cfg = if quick {
        SweepConfig::quick()
    } else {
        SweepConfig::full()
    };
    println!(
        "# tune: sweeping {} variant(s) x {} blocking(s) x {:?} threads at n={} ({} warmup, {} reps)",
        microkernels().iter().filter(|k| k.supported()).count(),
        cfg.blockings.len(),
        cfg.threads,
        cfg.n,
        cfg.warmup,
        cfg.reps
    );
    let mut points = sweep(&cfg);
    for p in &points {
        println!(
            "{:>14}  mc={:<3} kc={:<3} nc={:<3} threads={} {:>8.2} GFLOP/s",
            p.kernel, p.blocking.mc, p.blocking.kc, p.blocking.nc, p.threads, p.gflops
        );
    }

    // ---- heuristic baseline the winner must beat -----------------------
    // The exact configuration a cold process with no tuning file runs:
    // the fastest-ISA default kernel under `GemmBlocking::default()`,
    // measured with the same discipline at each sweep thread count.
    let base_krn = default_isa_kernel();
    let base_blk = GemmBlocking::default();
    let heuristic = cfg
        .threads
        .iter()
        .map(|&t| SweepPoint {
            kernel: base_krn.name,
            blocking: base_blk,
            threads: t,
            gflops: measure_gflops(cfg.n, cfg.warmup, cfg.reps, base_blk, base_krn, t),
        })
        .max_by(|a, b| a.gflops.total_cmp(&b.gflops))
        .expect("sweep thread list is never empty");
    println!(
        "# heuristic baseline: {} mc={} kc={} nc={} threads={} {:.2} GFLOP/s",
        heuristic.kernel,
        heuristic.blocking.mc,
        heuristic.blocking.kc,
        heuristic.blocking.nc,
        heuristic.threads,
        heuristic.gflops
    );
    // The baseline joins the candidate set, so the winner dominates it by
    // construction and the >= heuristic gate can only trip on a logic bug.
    points.push(heuristic.clone());

    let winner = best_point(&points).expect("non-empty sweep").clone();
    println!(
        "# winner: {} mc={} kc={} nc={} threads={} {:.2} GFLOP/s",
        winner.kernel,
        winner.blocking.mc,
        winner.blocking.kc,
        winner.blocking.nc,
        winner.threads,
        winner.gflops
    );

    // ---- persist the winner to the per-host tuning file ----------------
    let persisted_to = match tuning_file_path() {
        None => {
            eprintln!("# tune: no tuning file location (set DENSELIN_TUNING_FILE or HOME); not persisting");
            None
        }
        Some(path) => {
            // Absent or corrupt file: start fresh and rewrite it.
            let mut file = TuningFile::load(&path).unwrap_or_default();
            file.upsert(TuningRecord {
                host: host_key().to_string(),
                kernel: winner.kernel.to_string(),
                blocking: winner.blocking,
                threads: winner.threads,
                gflops: winner.gflops,
            });
            match file.store(&path) {
                Ok(()) => {
                    println!("# persisted winner to {}", path.display());
                    Some(path)
                }
                Err(e) => {
                    eprintln!("# tune: could not persist ({e})");
                    None
                }
            }
        }
    };

    // ---- BENCH_tuning.json: the full search surface --------------------
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": \"bench_tuning/v1\",");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"host\": \"{}\",", host_key());
    let _ = writeln!(json, "  \"n\": {},", cfg.n);
    let _ = writeln!(json, "  \"warmup\": {},", cfg.warmup);
    let _ = writeln!(json, "  \"reps\": {},", cfg.reps);
    let _ = writeln!(json, "  \"parity_clean\": {parity_clean},");
    json.push_str("  \"parity\": [\n");
    for (i, (name, status)) in parity.iter().enumerate() {
        let comma = if i + 1 < parity.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{ \"kernel\": \"{name}\", \"status\": \"{status}\" }}{comma}"
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"heuristic\": {},", point_json(&heuristic));
    let _ = writeln!(json, "  \"winner\": {},", point_json(&winner));
    let _ = writeln!(
        json,
        "  \"winner_vs_heuristic\": {:.3},",
        winner.gflops / heuristic.gflops
    );
    let _ = writeln!(
        json,
        "  \"persisted_to\": {},",
        persisted_to
            .as_ref()
            .map_or("null".to_string(), |p| format!("\"{}\"", p.display()))
    );
    json.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        let _ = writeln!(json, "    {}{comma}", point_json(p));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_tuning.json");
    println!("# wrote {out_path}");

    if check {
        if !parity_clean {
            eprintln!("# check FAILED: a supported variant diverges from the emulator");
            std::process::exit(1);
        }
        println!("# check OK: every supported variant is parity-clean");
        if winner.gflops < heuristic.gflops {
            eprintln!(
                "# check FAILED: persisted winner {:.2} GFLOP/s below heuristic {:.2}",
                winner.gflops, heuristic.gflops
            );
            std::process::exit(1);
        }
        println!(
            "# check OK: winner {:.2} GFLOP/s >= heuristic {:.2} ({:.2}x)",
            winner.gflops,
            heuristic.gflops,
            winner.gflops / heuristic.gflops
        );
        if persisted_to.is_none() {
            eprintln!("# check FAILED: winner was not persisted");
            std::process::exit(1);
        }
    }
}

/// `--check-reload`: this process must load a previously persisted record
/// instead of re-sweeping.
fn run_reload_check() {
    let (blk, bsrc) = GemmBlocking::tuned_with_source();
    let (krn, ksrc) = selected_kernel_with_source();
    println!(
        "# reload: blocking mc={} kc={} nc={} (source: {}), kernel {} (source: {})",
        blk.mc,
        blk.kc,
        blk.nc,
        bsrc.as_str(),
        krn.name,
        ksrc.as_str()
    );
    if bsrc != TuneSource::Persisted || ksrc != TuneSource::Persisted {
        eprintln!(
            "# check-reload FAILED: expected both selections to come from the \
             persisted tuning file (run `tune` first, and leave \
             DENSELIN_GEMM_BLOCK/DENSELIN_GEMM_KERNEL unset)"
        );
        std::process::exit(1);
    }
    println!("# check-reload OK: persisted record loaded; no re-sweep");
}

/// Bitwise parity status of every registered variant against the scalar
/// emulator, on shapes that exercise full and fringe tiles of every
/// registered (mr, nr).
fn parity_results() -> Vec<(&'static str, &'static str)> {
    let mut rng = SplitMix64::new(0x7E5E);
    let shapes = [
        (17usize, 23usize, 9usize),
        (8, 16, 4),
        (5, 5, 5),
        (24, 12, 31),
    ];
    let blk = GemmBlocking {
        mc: 16,
        kc: 7,
        nc: 24,
    };
    microkernels()
        .iter()
        .map(|krn| {
            if !krn.supported() {
                return (krn.name, "skipped (unsupported)");
            }
            for &(m, n, k) in &shapes {
                let a = Matrix::random(&mut rng, m, k);
                let b = Matrix::random(&mut rng, k, n);
                let c0 = Matrix::random(&mut rng, m, n);
                let mut c = c0.clone();
                let cfg = GemmConfig {
                    threads: 1,
                    blocking: blk,
                    kernel: krn,
                };
                gemm_with(&mut c, (0, 0), -1.5, &a, &b, 0.25, &cfg);
                let mut e = c0;
                gemm_emulated(&mut e, -1.5, &a, &b, 0.25, blk.kc, krn.fused);
                if c.as_slice() != e.as_slice() {
                    return (krn.name, "DIVERGED");
                }
            }
            (krn.name, "bitwise-ok")
        })
        .collect()
}

fn point_json(p: &SweepPoint) -> String {
    format!(
        "{{ \"kernel\": \"{}\", \"mc\": {}, \"kc\": {}, \"nc\": {}, \"threads\": {}, \"gflops\": {:.3} }}",
        p.kernel, p.blocking.mc, p.blocking.kc, p.blocking.nc, p.threads, p.gflops
    )
}
