//! `perfsmoke` — fast GFLOP/s smoke test of the local compute substrate.
//!
//! Measures the packed register-blocked GEMM against the scalar reference
//! path, the tile-queue parallel GEMM, blocked TRSM, the LU panel kernel
//! against the rank-1 loop of `lu_unblocked`, the few-right-hand-side
//! solve and batch residual against a vectorized read of the same bytes
//! (and the solve against a copy of the AXPY substitution it replaced),
//! blocked LU, and the lookahead-pipelined parallel LU (plus a thread
//! sweep of the parallel kernels), then writes `BENCH_kernels.json` at the
//! repo root. This file is the perf trajectory future PRs are held against
//! (CI uploads it as an artifact; `--check` turns a packed-slower-than-
//! reference GEMM, a costly noop tracer, or a one-column solve at n = 384
//! no faster than the AXPY copy into a red build; `--check-scaling`
//! additionally gates the parallel speedups — skipped automatically on
//! single-core machines, where there is no parallelism to measure).
//!
//! The thread count the parallel entries use comes from
//! [`auto_threads`] (override with `DENSELIN_THREADS`).
//!
//! Usage: `cargo run --release -p conflux-bench --bin perfsmoke -- [--quick]
//! [--check] [--check-scaling] [--out PATH]`

use std::fmt::Write as _;
use std::time::Instant;

use denselin::gemm::{auto_threads, gemm_reference, gemm_with, GemmBlocking, GemmConfig};
use denselin::lu::lu_blocked;
use denselin::lu::{lu_unblocked, LuFactorization};
use denselin::lu_parallel::lu_parallel_with;
use denselin::matrix::Matrix;
use denselin::panel::{factor_in_place, PivotMode};
use denselin::trsm::trsm_lower_left;
use denselin::SplitMix64;
use simnet::trace::RankTracer;

/// One measured kernel configuration.
struct Entry {
    kernel: &'static str,
    n: usize,
    threads: usize,
    seconds: f64,
    gflops: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let check_scaling = args.iter().any(|a| a == "--check-scaling");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| format!("{}/../../BENCH_kernels.json", env!("CARGO_MANIFEST_DIR")));

    let reps = if quick { 2 } else { 3 };
    let gemm_sizes: &[usize] = if quick {
        &[256, 512]
    } else {
        &[256, 512, 1024]
    };
    let threads = auto_threads();
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let blk = GemmBlocking::default();
    println!(
        "# perfsmoke: blocking mc={} kc={} nc={}, {threads} thread(s), {cores} core(s)",
        blk.mc, blk.kc, blk.nc
    );

    // serial and `t`-thread runs of the packed GEMM, `C <- A * B`
    let serial = GemmConfig::serial();
    let gemm = |c: &mut Matrix, a: &Matrix, b: &Matrix, threads: usize| {
        let cfg = GemmConfig { threads, ..serial };
        gemm_with(c, (0, 0), 1.0, a, b, 0.0, &cfg);
    };

    let mut rng = SplitMix64::new(4242);
    let mut entries: Vec<Entry> = Vec::new();

    // ---- GEMM: reference scalar path vs packed vs tile-queue parallel ----
    for &n in gemm_sizes {
        let a = Matrix::random(&mut rng, n, n);
        let b = Matrix::random(&mut rng, n, n);
        let flops = 2.0 * (n as f64).powi(3);

        let mut c = Matrix::zeros(n, n);
        let t = best_of(reps, || gemm_reference(&mut c, 1.0, &a, &b, 0.0));
        push(&mut entries, "gemm_reference", n, 1, t, flops);

        let t = best_of(reps, || gemm(&mut c, &a, &b, 1));
        push(&mut entries, "gemm_packed", n, 1, t, flops);

        if threads > 1 {
            let t = best_of(reps, || gemm(&mut c, &a, &b, threads));
            push(&mut entries, "gemm_parallel", n, threads, t, flops);
        }
    }

    // ---- disabled tracer overhead on the packed GEMM driver ----
    // every hot path in the simulator calls `begin()`/`push_*` on a
    // possibly-noop tracer; the disabled branch must cost nothing
    {
        let n = 512;
        let a = Matrix::random(&mut rng, n, n);
        let b = Matrix::random(&mut rng, n, n);
        let mut c = Matrix::zeros(n, n);
        let flops = 2.0 * (n as f64).powi(3);
        let reps = reps.max(4);
        let mut tracer = RankTracer::noop();

        // interleave the two variants so frequency/cache drift hits both
        gemm(&mut c, &a, &b, 1); // warm-up
        let mut t_bare = f64::INFINITY;
        let mut t_traced = f64::INFINITY;
        for _ in 0..reps {
            t_bare = t_bare.min(best_of(1, || gemm(&mut c, &a, &b, 1)));
            t_traced = t_traced.min(best_of(1, || {
                let t0 = tracer.begin();
                gemm(&mut c, &a, &b, 1);
                tracer.push_compute("perfsmoke", "gemm", t0);
            }));
        }
        push(&mut entries, "gemm_untraced", n, 1, t_bare, flops);
        push(&mut entries, "gemm_noop_traced", n, 1, t_traced, flops);
    }

    // ---- TRSM (blocked forward substitution, packed rank-k updates) ----
    let trsm_sizes: &[usize] = if quick { &[512] } else { &[512, 1024] };
    for &n in trsm_sizes {
        let l = Matrix::from_fn(n, n, |i, j| {
            if i > j {
                0.1
            } else if i == j {
                2.0
            } else {
                0.0
            }
        });
        let nrhs = 256;
        let b = Matrix::random(&mut rng, n, nrhs);
        let flops = (n as f64) * (n as f64) * nrhs as f64;
        let t = best_of(reps, || {
            let mut x = b.clone();
            trsm_lower_left(&l, &mut x, false);
        });
        push(&mut entries, "trsm_lower_left", n, 1, t, flops);
    }

    // ---- LU panel: the register-blocked kernel against the rank-1 loop,
    // ---- medians and quartiles of alternating runs on one panel ----
    let panel_reps = if quick { 11 } else { 41 };
    let mut panels = Vec::new();
    for m in [384usize, 768] {
        let a = Matrix::random(&mut rng, m, 64);
        let (mut kernel, mut rank1) = (Vec::new(), Vec::new());
        for _ in 0..panel_reps {
            let start = Instant::now();
            let mut lu = a.clone();
            factor_in_place(&mut lu, PivotMode::Partial).unwrap();
            kernel.push(start.elapsed().as_secs_f64() * 1e6);
            let start = Instant::now();
            lu_unblocked(&a).unwrap();
            rank1.push(start.elapsed().as_secs_f64() * 1e6);
        }
        let (k, r) = (quartiles(&mut kernel), quartiles(&mut rank1));
        println!(
            "{:>16}  m={m:<5} kb=64   kernel {:.1} us [{:.1}, {:.1}]  rank-1 {:.1} us [{:.1}, {:.1}]",
            "panel", k[1], k[0], k[2], r[1], r[0], r[2]
        );
        panels.push((m, k, r));
    }

    // ---- few-RHS solve and batch residual against a read of the same
    // ---- bytes (the ceiling) and against the AXPY-substitution copy,
    // ---- single thread, medians and quartiles of alternating runs ----
    let solve_reps = if quick { 51 } else { 301 };
    let mut few_rhs = Vec::new();
    for n in [384usize, 768] {
        let a = Matrix::random_diagonally_dominant(&mut rng, n);
        let f = lu_parallel_with(&a, 64, 1).unwrap();
        let axpy = AxpySolve::new(&f);
        for w in [1usize, 2, 4, 8] {
            let b = Matrix::random(&mut rng, n, w);
            let mut x = Matrix::zeros(n, w);
            let mut r = Matrix::zeros(n, w);
            // the copy must be the same arithmetic, or it gates nothing
            axpy.solve_into(&b, &mut r);
            f.solve_into(&b, &mut x);
            assert_eq!(r, x, "AXPY copy and solve_into differ at n={n} w={w}");
            let mut t = [(); 4].map(|_| Vec::with_capacity(solve_reps));
            for rep in 0..WARMUP + solve_reps {
                let us = [
                    time_us(|| f.solve_into(&b, &mut x)),
                    time_us(|| {
                        r.as_mut_slice().copy_from_slice(b.as_slice());
                        gemm_with(&mut r, (0, 0), -1.0, &a, &x, 1.0, &serial);
                    }),
                    time_us(|| {
                        std::hint::black_box(read_all(f.lu.as_slice()));
                    }),
                    time_us(|| axpy.solve_into(&b, &mut x)),
                ];
                if rep >= WARMUP {
                    for (samples, us) in t.iter_mut().zip(us) {
                        samples.push(us);
                    }
                }
            }
            let [solve, residual, read, axpy] = t.map(|mut v| quartiles(&mut v));
            println!(
                "{:>16}  n={n:<5} w={w:<2}  solve {:.1} us ({:.1} GB/s)  residual {:.1} us ({:.1} GB/s)  \
                 read {:.1} us ({:.1} GB/s)  axpy solve {:.1} us",
                "few_rhs_solve",
                solve[1],
                gbs(n, solve[1]),
                residual[1],
                gbs(n, residual[1]),
                read[1],
                gbs(n, read[1]),
                axpy[1]
            );
            few_rhs.push(FewRhs {
                n,
                w,
                solve,
                residual,
                read,
                axpy,
            });
        }
    }
    let solve_vs_axpy = few_rhs
        .iter()
        .find(|e| e.n == 384 && e.w == 1)
        .map(|e| e.axpy[1] / e.solve[1]);

    // ---- Blocked LU (panel + TRSM + packed trailing update) and the
    // ---- lookahead-pipelined parallel LU over the same inputs ----
    let lu_sizes: &[usize] = if quick { &[512] } else { &[512, 1024] };
    for &n in lu_sizes {
        let a = Matrix::random_diagonally_dominant(&mut rng, n);
        let flops = 2.0 / 3.0 * (n as f64).powi(3);
        let t = best_of(reps, || {
            lu_blocked(&a, 64).unwrap();
        });
        push(&mut entries, "lu_blocked64", n, 1, t, flops);

        let t = best_of(reps, || {
            lu_parallel_with(&a, 64, threads).unwrap();
        });
        push(&mut entries, "lu_parallel", n, threads, t, flops);
    }

    // ---- thread sweep of the parallel kernels at the largest size ----
    // fills the scaling curve the docs plot; the auto-thread entries above
    // stay first in the list, so the summary ratios below keep finding them
    if threads > 1 {
        let n = *lu_sizes.last().unwrap();
        let a = Matrix::random_diagonally_dominant(&mut rng, n);
        let ga = Matrix::random(&mut rng, n, n);
        let gb = Matrix::random(&mut rng, n, n);
        let mut gc = Matrix::zeros(n, n);
        let lu_flops = 2.0 / 3.0 * (n as f64).powi(3);
        let gemm_flops = 2.0 * (n as f64).powi(3);
        for &t in &[1usize, 2, 4, 8] {
            if t >= threads {
                continue; // the auto-thread point was measured above
            }
            let s = best_of(reps, || gemm(&mut gc, &ga, &gb, t));
            push(&mut entries, "gemm_parallel", n, t, s, gemm_flops);
            let s = best_of(reps, || {
                lu_parallel_with(&a, 64, t).unwrap();
            });
            push(&mut entries, "lu_parallel", n, t, s, lu_flops);
        }
    }

    let speedup_512 = speedup(&entries, "gemm_packed", "gemm_reference", 512);
    // seconds(traced)/seconds(untraced) - 1: the noop tracer's cost
    let noop_overhead = speedup(&entries, "gemm_untraced", "gemm_noop_traced", 512)
        .map(|gflops_ratio| gflops_ratio - 1.0);
    let parallel_scaling = speedup(
        &entries,
        "gemm_parallel",
        "gemm_packed",
        *gemm_sizes.last().unwrap(),
    );
    let lu_parallel_scaling = speedup(
        &entries,
        "lu_parallel",
        "lu_blocked64",
        *lu_sizes.last().unwrap(),
    );

    // ---- render BENCH_kernels.json (hand-rolled: no serde in-tree) ----
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": \"bench_kernels/v1\",");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"cores\": {cores},");
    let _ = writeln!(
        json,
        "  \"blocking\": {{ \"mc\": {}, \"kc\": {}, \"nc\": {} }},",
        blk.mc, blk.kc, blk.nc
    );
    let _ = writeln!(
        json,
        "  \"packed_vs_reference_n512\": {},",
        speedup_512.map_or("null".into(), |s| format!("{s:.3}"))
    );
    let _ = writeln!(
        json,
        "  \"parallel_vs_serial\": {},",
        parallel_scaling.map_or("null".into(), |s| format!("{s:.3}"))
    );
    let _ = writeln!(
        json,
        "  \"lu_parallel_vs_serial\": {},",
        lu_parallel_scaling.map_or("null".into(), |s| format!("{s:.3}"))
    );
    let _ = writeln!(
        json,
        "  \"noop_tracer_overhead_n512\": {},",
        noop_overhead.map_or("null".into(), |s| format!("{s:.4}"))
    );
    json.push_str("  \"panel\": [\n");
    for (i, (m, k, r)) in panels.iter().enumerate() {
        let comma = if i + 1 < panels.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{ \"m\": {m}, \"kb\": 64, \"reps\": {panel_reps}, \"kernel_us_p50\": {:.1}, \"kernel_us_q1_q3\": [{:.1}, {:.1}], \"rank1_us_p50\": {:.1}, \"rank1_us_q1_q3\": [{:.1}, {:.1}], \"speedup_p50\": {:.2} }}{comma}",
            k[1], k[0], k[2], r[1], r[0], r[2], r[1] / k[1]
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"few_rhs_solve\": [\n");
    for (i, e) in few_rhs.iter().enumerate() {
        let comma = if i + 1 < few_rhs.len() { "," } else { "" };
        let q = |t: &[f64; 3]| format!("{:.1}, \"us_q1_q3\": [{:.1}, {:.1}]", t[1], t[0], t[2]);
        let _ = writeln!(
            json,
            "    {{ \"n\": {}, \"w\": {}, \"threads\": 1, \"reps\": {solve_reps}, \
             \"solve\": {{ \"us_p50\": {}, \"gbs\": {:.1} }}, \
             \"residual\": {{ \"us_p50\": {}, \"gbs\": {:.1} }}, \
             \"read_ceiling\": {{ \"us_p50\": {}, \"gbs\": {:.1} }}, \
             \"axpy_solve\": {{ \"us_p50\": {} }}, \"solve_vs_axpy_p50\": {:.2} }}{comma}",
            e.n,
            e.w,
            q(&e.solve),
            gbs(e.n, e.solve[1]),
            q(&e.residual),
            gbs(e.n, e.residual[1]),
            q(&e.read),
            gbs(e.n, e.read[1]),
            q(&e.axpy),
            e.axpy[1] / e.solve[1]
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{ \"kernel\": \"{}\", \"n\": {}, \"threads\": {}, \"seconds\": {:.6}, \"gflops\": {:.3} }}{comma}",
            e.kernel, e.n, e.threads, e.seconds, e.gflops
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_kernels.json");
    println!("# wrote {out_path}");

    if check {
        match speedup_512 {
            Some(s) if s >= 1.0 => {
                println!("# check OK: packed gemm is {s:.2}x the reference at N=512");
            }
            Some(s) => {
                eprintln!("# check FAILED: packed gemm only {s:.2}x the reference at N=512");
                std::process::exit(1);
            }
            None => {
                eprintln!("# check FAILED: missing N=512 measurements");
                std::process::exit(1);
            }
        }
        match noop_overhead {
            Some(o) if o < 0.02 => {
                println!(
                    "# check OK: noop tracer overhead {:.2}% at N=512",
                    o * 100.0
                );
            }
            Some(o) => {
                eprintln!(
                    "# check FAILED: noop tracer costs {:.2}% on the packed gemm",
                    o * 100.0
                );
                std::process::exit(1);
            }
            None => {
                eprintln!("# check FAILED: missing noop-tracer measurements");
                std::process::exit(1);
            }
        }
        match solve_vs_axpy {
            Some(s) if s > 1.0 => {
                println!("# check OK: one-column solve is {s:.2}x the AXPY substitution at n=384");
            }
            Some(s) => {
                eprintln!(
                    "# check FAILED: one-column solve only {s:.2}x the AXPY substitution at n=384"
                );
                std::process::exit(1);
            }
            None => {
                eprintln!("# check FAILED: missing n=384 one-column solve measurements");
                std::process::exit(1);
            }
        }
    }

    if check_scaling {
        // the scaling gates measure real parallelism; on a single-core (or
        // single-thread) run the parallel path degenerates to the serial
        // one plus pool overhead, so there is nothing meaningful to gate
        if cores < 2 || threads < 2 {
            println!(
                "# check-scaling SKIPPED: {cores} core(s) / {threads} thread(s) \
                 visible; parallel speedup gates need at least 2 of each"
            );
            return;
        }
        let lu_n = *lu_sizes.last().unwrap();
        // the LU pipeline's panel stays on one worker, so its speedup trails
        // gemm's: demand the issue's 2x only once 4 workers are available,
        // and a lookahead-beats-serial margin on a 2-thread runner
        let lu_floor = if threads >= 4 { 2.0 } else { 1.2 };
        match parallel_scaling {
            Some(s) if s >= 1.5 => {
                println!("# check-scaling OK: parallel gemm is {s:.2}x the packed serial path");
            }
            Some(s) => {
                eprintln!(
                    "# check-scaling FAILED: parallel gemm only {s:.2}x serial \
                     on {threads} threads (need >= 1.5)"
                );
                std::process::exit(1);
            }
            None => {
                eprintln!("# check-scaling FAILED: no parallel gemm measurement");
                std::process::exit(1);
            }
        }
        match lu_parallel_scaling {
            Some(s) if s >= lu_floor => {
                println!("# check-scaling OK: lookahead LU is {s:.2}x lu_blocked64 at N={lu_n}");
            }
            Some(s) => {
                eprintln!(
                    "# check-scaling FAILED: lookahead LU only {s:.2}x lu_blocked64 \
                     at N={lu_n} on {threads} threads (need >= {lu_floor})"
                );
                std::process::exit(1);
            }
            None => {
                eprintln!("# check-scaling FAILED: no lu_parallel measurement");
                std::process::exit(1);
            }
        }
    }
}

/// Untimed runs before the samples of an alternating measurement.
const WARMUP: usize = 20;

/// One `few_rhs_solve` row: quartiles (µs) of the solve, the batch
/// residual, the ceiling read and the AXPY copy.
struct FewRhs {
    n: usize,
    w: usize,
    solve: [f64; 3],
    residual: [f64; 3],
    read: [f64; 3],
    axpy: [f64; 3],
}

/// GB/s of a kernel that reads an `n x n` operand once in `us` µs (the
/// solve its factor, the residual `A`, the ceiling the factor's bytes).
fn gbs(n: usize, us: f64) -> f64 {
    (8 * n * n) as f64 / (us * 1e3)
}

/// Wall time of one call of `f`, in µs.
fn time_us(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e6
}

/// The sum of `xs` over 16 independent accumulators: a read of the bytes
/// at the rate the core can load them, the ceiling of a kernel that
/// reads each once. Compiled for AVX2 where the host has it.
fn read_all(xs: &[f64]) -> f64 {
    #[inline(always)]
    fn sum16(xs: &[f64]) -> f64 {
        let mut acc = [0.0f64; 16];
        let chunks = xs.chunks_exact(16);
        let tail: f64 = chunks.remainder().iter().sum();
        for c in chunks {
            for (a, v) in acc.iter_mut().zip(c) {
                *a += v;
            }
        }
        acc.iter().sum::<f64>() + tail
    }
    #[cfg(target_arch = "x86_64")]
    {
        /// # Safety
        /// The host must have AVX2.
        #[target_feature(enable = "avx2")]
        unsafe fn sum16_avx2(xs: &[f64]) -> f64 {
            sum16(xs)
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the host has AVX2.
            return unsafe { sum16_avx2(xs) };
        }
    }
    sum16(xs)
}

/// `LU x = b` as `denselin` solved it before its register-blocked
/// substitution: the same 48-row blocked sweeps, with each diagonal block
/// substituted by the AXPY loop (one slice pair per factor entry) and the
/// trailing updates run through the GEMM on panels cut from the factor up
/// front, so it reads the same bytes. The `--check` baseline.
struct AxpySolve<'a> {
    f: &'a LuFactorization,
    /// `(lo, hi, L[hi.., lo..hi])` per forward block.
    lower: Vec<(usize, usize, Matrix)>,
    /// `(lo, hi, U[..lo, lo..hi])` per back block, bottom first.
    upper: Vec<(usize, usize, Matrix)>,
}

impl<'a> AxpySolve<'a> {
    const BLOCK: usize = 48;

    fn new(f: &'a LuFactorization) -> Self {
        let n = f.lu.rows();
        let blocks: Vec<usize> = (0..n).step_by(Self::BLOCK).collect();
        let lower = blocks
            .iter()
            .map(|&lo| {
                let hi = (lo + Self::BLOCK).min(n);
                (lo, hi, f.lu.block(hi, lo, n - hi, hi - lo))
            })
            .collect();
        let upper = blocks
            .iter()
            .rev()
            .map(|&lo| {
                let hi = (lo + Self::BLOCK).min(n);
                (lo, hi, f.lu.block(0, lo, lo, hi - lo))
            })
            .collect();
        AxpySolve { f, lower, upper }
    }

    fn solve_into(&self, b: &Matrix, out: &mut Matrix) {
        let (lu, w) = (&self.f.lu, b.cols());
        for (i, &src) in self.f.perm.iter().enumerate() {
            out.row_mut(i).copy_from_slice(b.row(src));
        }
        let cfg = GemmConfig::auto();
        for (lo, hi, l21) in &self.lower {
            for i in *lo..*hi {
                for (k, &lik) in lu.row(i).iter().enumerate().take(i).skip(*lo) {
                    if lik != 0.0 {
                        let (xi, xk) = row_pair(out, i, k);
                        for (x, y) in xi.iter_mut().zip(xk) {
                            *x -= lik * y;
                        }
                    }
                }
            }
            if l21.rows() > 0 {
                let xb = out.block(*lo, 0, hi - lo, w);
                gemm_with(out, (*hi, 0), -1.0, l21, &xb, 1.0, &cfg);
            }
        }
        for (lo, hi, u01) in &self.upper {
            for i in (*lo..*hi).rev() {
                for (k, &uik) in lu.row(i).iter().enumerate().take(*hi).skip(i + 1) {
                    if uik != 0.0 {
                        let (xi, xk) = row_pair(out, i, k);
                        for (x, y) in xi.iter_mut().zip(xk) {
                            *x -= uik * y;
                        }
                    }
                }
                let d = lu[(i, i)];
                for x in out.row_mut(i) {
                    *x /= d;
                }
            }
            if u01.rows() > 0 {
                let xb = out.block(*lo, 0, hi - lo, w);
                gemm_with(out, (0, 0), -1.0, u01, &xb, 1.0, &cfg);
            }
        }
    }
}

/// Rows `i` and `k` (`i != k`) of `m`, the first mutably.
fn row_pair(m: &mut Matrix, i: usize, k: usize) -> (&mut [f64], &[f64]) {
    let w = m.cols();
    let data = m.as_mut_slice();
    if i < k {
        let (head, tail) = data.split_at_mut(k * w);
        (&mut head[i * w..(i + 1) * w], &tail[..w])
    } else {
        let (head, tail) = data.split_at_mut(i * w);
        (&mut tail[..w], &head[k * w..(k + 1) * w])
    }
}

/// First quartile, median and third quartile of `xs`.
fn quartiles(xs: &mut [f64]) -> [f64; 3] {
    xs.sort_by(f64::total_cmp);
    let at = |q: f64| xs[((xs.len() - 1) as f64 * q).round() as usize];
    [at(0.25), at(0.5), at(0.75)]
}

fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn push(
    entries: &mut Vec<Entry>,
    kernel: &'static str,
    n: usize,
    threads: usize,
    t: f64,
    flops: f64,
) {
    let gflops = flops / t / 1e9;
    println!("{kernel:>16}  n={n:<5} threads={threads:<2} {t:>9.4} s  {gflops:>8.2} GFLOP/s");
    entries.push(Entry {
        kernel,
        n,
        threads,
        seconds: t,
        gflops,
    });
}

/// GFLOP/s ratio `num/den` at size `n`, if both were measured.
fn speedup(entries: &[Entry], num: &str, den: &str, n: usize) -> Option<f64> {
    let g = |k: &str| {
        entries
            .iter()
            .find(|e| e.kernel == k && e.n == n)
            .map(|e| e.gflops)
    };
    Some(g(num)? / g(den)?)
}
