//! The scenario DSL: one `u64` seed expands into a complete randomized
//! workload — kernel, dimensions, processor grid, matrix class, RHS count,
//! fault schedule — and every scenario round-trips through a compact
//! `k=v` text encoding so failing cases can be persisted to a corpus file
//! and replayed (see [`crate::corpus`]).

use denselin::SplitMix64;

/// Which kernel family a scenario exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// LU factorization across every implementation in the workspace.
    Lu,
    /// 2.5D Cholesky vs the serial blocked reference.
    Cholesky,
    /// The `solversrv` serving layer vs fresh serial solves.
    Solve,
    /// The sparse CSR family (`sparselin`): CG vs densified LU, SpMV
    /// determinism, and the sparse serving path.
    Sparse,
}

impl Kernel {
    fn token(self) -> &'static str {
        match self {
            Kernel::Lu => "lu",
            Kernel::Cholesky => "cholesky",
            Kernel::Solve => "solve",
            Kernel::Sparse => "sparse",
        }
    }
}

/// Sparsity-pattern family for [`Kernel::Sparse`] scenarios. Each maps to
/// a seeded SPD generator in `sparselin`, so the differential oracle can
/// densify the same matrix and cross-check CG against blocked LU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SparsePattern {
    /// Symmetric banded with half-bandwidth derived from the panel width.
    Banded,
    /// Symmetric random pattern at a fixed density.
    Random,
    /// 5-point finite-difference Laplacian on a `v × nb` grid plus a shift
    /// (the HPCG model operator, with an analytic condition-number handle).
    Laplacian,
}

impl SparsePattern {
    fn token(self) -> &'static str {
        match self {
            SparsePattern::Banded => "banded",
            SparsePattern::Random => "random",
            SparsePattern::Laplacian => "laplacian",
        }
    }
}

/// Preconditioner choice for [`Kernel::Sparse`] scenarios (mirrors
/// `sparselin::Preconditioner`, kept local so the DSL stays
/// dependency-free and a corpus line never changes meaning).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SparsePrecond {
    /// Unpreconditioned CG.
    None,
    /// Diagonal (Jacobi) scaling.
    Jacobi,
    /// Symmetric Gauss–Seidel.
    SymGs,
}

impl SparsePrecond {
    fn token(self) -> &'static str {
        match self {
            SparsePrecond::None => "none",
            SparsePrecond::Jacobi => "jacobi",
            SparsePrecond::SymGs => "symgs",
        }
    }
}

/// Every microkernel variant name the scenario DSL may pin via
/// `ukernel=...`, across all architectures. Deliberately host-independent
/// and spelled out statically: a corpus line written on an AVX-512 machine
/// must still *decode* on any machine (the oracle skips variants the host
/// cannot run), and `tests/oracle_smoke.rs` cross-checks that this list
/// covers the entire registered `denselin` variant table — adding a
/// microkernel without extending the fuzz surface fails that test.
pub const KERNEL_VARIANTS: &[&str] = &[
    "portable_4x4",
    "portable_8x4",
    "portable_6x8",
    "portable_8x8",
    "avx2_4x4",
    "avx2_8x4",
    "avx2_6x8",
    "avx2_8x8",
    "avx512_8x16",
];

/// Input-matrix family. The adversarial classes are the point: Tang's
/// reexamination of COnfLUX (arXiv:2404.06713) found gaps that example
/// matrices never hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatrixClass {
    /// Uniform `[-1, 1)` entries — generic well-conditioned.
    Well,
    /// Diagonally dominant (every pivoting strategy agrees).
    DiagDom,
    /// Row-graded scaling over ~8 orders of magnitude (ill-conditioned).
    Ill,
    /// Hilbert-like `1/(i+j+1)` — classically ill-conditioned.
    Hilbert,
    /// A random matrix pushed to within `~1e-10` of singularity.
    NearSingular,
    /// Exactly rank-deficient (`rank = n - 1`): factorizations must agree
    /// that the matrix is degenerate.
    RankDef,
    /// Wilkinson's growth matrix: partial-pivoting growth `2^(n-1)`.
    Wilkinson,
}

impl MatrixClass {
    fn token(self) -> &'static str {
        match self {
            MatrixClass::Well => "well",
            MatrixClass::DiagDom => "diagdom",
            MatrixClass::Ill => "ill",
            MatrixClass::Hilbert => "hilbert",
            MatrixClass::NearSingular => "nearsing",
            MatrixClass::RankDef => "rankdef",
            MatrixClass::Wilkinson => "wilkinson",
        }
    }
}

/// Fault schedule attached to a scenario (orchestrated accountant runs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSpec {
    /// No faults.
    None,
    /// Seeded message drops, rate in thousandths.
    Drop(u32),
    /// Seeded message duplication, rate in thousandths.
    Dup(u32),
    /// Crash `rank` at algorithm step `step`.
    Crash {
        /// The rank to kill.
        rank: usize,
        /// The outer-loop step at which it dies.
        step: usize,
    },
}

impl FaultSpec {
    fn encode(self) -> String {
        match self {
            FaultSpec::None => "none".into(),
            FaultSpec::Drop(m) => format!("drop:{m}"),
            FaultSpec::Dup(m) => format!("dup:{m}"),
            FaultSpec::Crash { rank, step } => format!("crash:{rank}:{step}"),
        }
    }
}

/// One fully specified randomized workload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Scenario {
    /// Kernel family.
    pub kernel: Kernel,
    /// Block size `v` (panel width); `n = v * nb`.
    pub v: usize,
    /// Number of block steps.
    pub nb: usize,
    /// Grid side `q` (the grid is `[q, q, c]`).
    pub q: usize,
    /// Replication layers `c`.
    pub c: usize,
    /// Input matrix family.
    pub class: MatrixClass,
    /// Matrix-entry seed (independent of the shape so shrinking keeps the
    /// data stream).
    pub mseed: u64,
    /// RHS columns ([`Kernel::Solve`] and [`Kernel::Sparse`] only).
    pub nrhs: usize,
    /// Fault schedule ([`Kernel::Lu`] orchestrated runs only).
    pub faults: FaultSpec,
    /// Sparsity pattern ([`Kernel::Sparse`] only; `Banded` otherwise).
    pub pattern: SparsePattern,
    /// Preconditioner ([`Kernel::Sparse`] only; `None` otherwise).
    pub precond: SparsePrecond,
    /// Pinned GEMM microkernel variant ([`Kernel::Lu`] only): the oracle
    /// forces this variant through the process-wide dispatch for the whole
    /// differential run, so every variant — not just the host default —
    /// gets fuzzed through the full LU contract battery.
    pub ukernel: Option<&'static str>,
}

impl Scenario {
    /// Matrix order.
    pub fn n(&self) -> usize {
        self.v * self.nb
    }

    /// Total ranks of the `[q, q, c]` grid.
    pub fn ranks(&self) -> usize {
        self.q * self.q * self.c
    }

    /// Whether the threaded SPMD driver's restrictions are met (Dense
    /// masking LU on a power-of-two `q`, and few enough real threads to be
    /// cheap to spawn).
    pub fn threaded_eligible(&self) -> bool {
        self.kernel == Kernel::Lu && self.q.is_power_of_two() && self.ranks() <= 8
    }

    /// Expand `seed` into a scenario. The mapping is total: every `u64`
    /// yields a valid scenario, so a fuzz campaign is just a seed range.
    pub fn from_seed(seed: u64) -> Self {
        let mut r = SplitMix64::new(seed);
        let kernel = *r.choose(&[
            Kernel::Lu,
            Kernel::Lu,
            Kernel::Lu,
            Kernel::Lu,
            Kernel::Cholesky,
            Kernel::Solve,
            Kernel::Sparse,
        ]);
        let class = match kernel {
            Kernel::Lu => *r.choose(&[
                MatrixClass::Well,
                MatrixClass::Well,
                MatrixClass::DiagDom,
                MatrixClass::Ill,
                MatrixClass::Hilbert,
                MatrixClass::NearSingular,
                MatrixClass::RankDef,
                MatrixClass::Wilkinson,
            ]),
            // Cholesky needs SPD-able input; the service solves systems;
            // the sparse generators are SPD by construction (class only
            // scales the oracle's tolerances there)
            Kernel::Cholesky | Kernel::Solve | Kernel::Sparse => {
                *r.choose(&[MatrixClass::Well, MatrixClass::DiagDom, MatrixClass::Ill])
            }
        };
        let c = *r.choose(&[1usize, 1, 2, 2, 3]);
        let q = *r.choose(&[1usize, 2, 2, 2, 3]);
        let mut v = *r.choose(&[2usize, 4, 4, 8, 8, 16]);
        if v < c {
            v = c; // the drivers require v >= c
        }
        let mut nb = 2 + r.below(5); // 2..=6 block steps
        if class == MatrixClass::Wilkinson {
            // growth is 2^(n-1): keep n small enough that residuals stay
            // representable and tolerances meaningful
            v = v.min(4).max(c);
            nb = nb.min(5);
        }
        let nrhs = 1 + r.below(3);
        let faults = if kernel == Kernel::Lu {
            match r.below(8) {
                0 => FaultSpec::Drop(20 + r.below(80) as u32),
                1 => FaultSpec::Dup(20 + r.below(80) as u32),
                2 => FaultSpec::Crash {
                    rank: r.below(q * q * c),
                    step: r.below(nb),
                },
                _ => FaultSpec::None,
            }
        } else {
            FaultSpec::None
        };
        let (pattern, precond) = if kernel == Kernel::Sparse {
            (
                *r.choose(&[
                    SparsePattern::Banded,
                    SparsePattern::Banded,
                    SparsePattern::Random,
                    SparsePattern::Laplacian,
                    SparsePattern::Laplacian,
                ]),
                *r.choose(&[
                    SparsePrecond::None,
                    SparsePrecond::Jacobi,
                    SparsePrecond::Jacobi,
                    SparsePrecond::SymGs,
                    SparsePrecond::SymGs,
                ]),
            )
        } else {
            (SparsePattern::Banded, SparsePrecond::None)
        };
        // Drawn last so every older field keeps its exact per-seed value:
        // historical seeds reproduce the same workload, now sometimes with
        // a pinned microkernel on top.
        let mseed = r.next_u64();
        let ukernel = if kernel == Kernel::Lu && r.below(3) == 0 {
            Some(*r.choose(KERNEL_VARIANTS))
        } else {
            None
        };
        Scenario {
            kernel,
            v,
            nb,
            q,
            c,
            class,
            mseed,
            nrhs,
            faults,
            pattern,
            precond,
            ukernel,
        }
    }

    /// Compact one-line `k=v` encoding (the corpus format). Sparse
    /// scenarios append `pattern=`/`precond=`; dense lines keep the
    /// historical nine-key shape so existing corpus files stay stable.
    pub fn encode(&self) -> String {
        let mut line = format!(
            "kernel={} n={} v={} q={} c={} class={} mseed={} nrhs={} faults={}",
            self.kernel.token(),
            self.n(),
            self.v,
            self.q,
            self.c,
            self.class.token(),
            self.mseed,
            self.nrhs,
            self.faults.encode(),
        );
        if self.kernel == Kernel::Sparse {
            line.push_str(&format!(
                " pattern={} precond={}",
                self.pattern.token(),
                self.precond.token()
            ));
        }
        if let Some(uk) = self.ukernel {
            line.push_str(&format!(" ukernel={uk}"));
        }
        line
    }

    /// Parse a line produced by [`Scenario::encode`] (or written by hand).
    pub fn decode(line: &str) -> Result<Self, String> {
        let mut kernel = None;
        let mut n = None;
        let mut v = None;
        let mut q = None;
        let mut c = None;
        let mut class = None;
        let mut mseed = 0u64;
        let mut nrhs = 1usize;
        let mut faults = FaultSpec::None;
        let mut pattern = SparsePattern::Banded;
        let mut precond = SparsePrecond::None;
        let mut ukernel = None;
        for tok in line.split_whitespace() {
            let (key, val) = tok
                .split_once('=')
                .ok_or_else(|| format!("token `{tok}` is not k=v"))?;
            match key {
                "kernel" => {
                    kernel = Some(match val {
                        "lu" => Kernel::Lu,
                        "cholesky" => Kernel::Cholesky,
                        "solve" => Kernel::Solve,
                        "sparse" => Kernel::Sparse,
                        other => return Err(format!("unknown kernel `{other}`")),
                    })
                }
                "n" => n = Some(val.parse::<usize>().map_err(|e| e.to_string())?),
                "v" => v = Some(val.parse::<usize>().map_err(|e| e.to_string())?),
                "q" => q = Some(val.parse::<usize>().map_err(|e| e.to_string())?),
                "c" => c = Some(val.parse::<usize>().map_err(|e| e.to_string())?),
                "class" => {
                    class = Some(match val {
                        "well" => MatrixClass::Well,
                        "diagdom" => MatrixClass::DiagDom,
                        "ill" => MatrixClass::Ill,
                        "hilbert" => MatrixClass::Hilbert,
                        "nearsing" => MatrixClass::NearSingular,
                        "rankdef" => MatrixClass::RankDef,
                        "wilkinson" => MatrixClass::Wilkinson,
                        other => return Err(format!("unknown class `{other}`")),
                    })
                }
                "mseed" => mseed = val.parse::<u64>().map_err(|e| e.to_string())?,
                "nrhs" => nrhs = val.parse::<usize>().map_err(|e| e.to_string())?,
                "pattern" => {
                    pattern = match val {
                        "banded" => SparsePattern::Banded,
                        "random" => SparsePattern::Random,
                        "laplacian" => SparsePattern::Laplacian,
                        other => return Err(format!("unknown pattern `{other}`")),
                    }
                }
                "ukernel" => {
                    ukernel = Some(
                        *KERNEL_VARIANTS
                            .iter()
                            .find(|k| **k == val)
                            .ok_or_else(|| format!("unknown ukernel `{val}`"))?,
                    )
                }
                "precond" => {
                    precond = match val {
                        "none" => SparsePrecond::None,
                        "jacobi" => SparsePrecond::Jacobi,
                        "symgs" => SparsePrecond::SymGs,
                        other => return Err(format!("unknown precond `{other}`")),
                    }
                }
                "faults" => {
                    let parts: Vec<&str> = val.split(':').collect();
                    faults = match parts.as_slice() {
                        ["none"] => FaultSpec::None,
                        ["drop", m] => FaultSpec::Drop(m.parse().map_err(|_| "bad drop rate")?),
                        ["dup", m] => FaultSpec::Dup(m.parse().map_err(|_| "bad dup rate")?),
                        ["crash", r, s] => FaultSpec::Crash {
                            rank: r.parse().map_err(|_| "bad crash rank")?,
                            step: s.parse().map_err(|_| "bad crash step")?,
                        },
                        _ => return Err(format!("unknown faults `{val}`")),
                    };
                }
                other => return Err(format!("unknown key `{other}`")),
            }
        }
        let kernel = kernel.ok_or("missing kernel")?;
        let v = v.ok_or("missing v")?;
        let n = n.ok_or("missing n")?;
        if v == 0 || n == 0 || n % v != 0 {
            return Err(format!("need v | n, got n={n} v={v}"));
        }
        let sc = Scenario {
            kernel,
            v,
            nb: n / v,
            q: q.ok_or("missing q")?,
            c: c.ok_or("missing c")?,
            class: class.ok_or("missing class")?,
            mseed,
            nrhs,
            faults,
            pattern,
            precond,
            ukernel,
        };
        sc.validate()?;
        Ok(sc)
    }

    /// Structural validity (the generator guarantees this; hand-written
    /// corpus lines are checked).
    pub fn validate(&self) -> Result<(), String> {
        if self.q == 0 || self.c == 0 {
            return Err("q and c must be positive".into());
        }
        if self.v < self.c {
            return Err(format!("v={} must be >= c={}", self.v, self.c));
        }
        if self.nb < 1 {
            return Err("need at least one block step".into());
        }
        if self.kernel != Kernel::Sparse
            && (self.pattern != SparsePattern::Banded || self.precond != SparsePrecond::None)
        {
            return Err(format!(
                "pattern/precond only apply to kernel=sparse, not {}",
                self.kernel.token()
            ));
        }
        if self.ukernel.is_some() && self.kernel != Kernel::Lu {
            return Err(format!(
                "ukernel only applies to kernel=lu, not {}",
                self.kernel.token()
            ));
        }
        if let FaultSpec::Crash { rank, step } = self.faults {
            if rank >= self.ranks() || step >= self.nb {
                return Err(format!(
                    "crash target ({rank}, {step}) outside p={} nb={}",
                    self.ranks(),
                    self.nb
                ));
            }
        }
        Ok(())
    }

    /// Strictly-smaller variants to try while shrinking a failure, most
    /// aggressive first. Every candidate is structurally valid.
    pub fn shrink_candidates(&self) -> Vec<Scenario> {
        let mut out = Vec::new();
        let mut push = |sc: Scenario| {
            if sc.validate().is_ok() && sc != *self {
                out.push(sc);
            }
        };
        // fewer block steps (smaller n)
        if self.nb > 2 {
            push(Scenario {
                nb: self.nb / 2,
                ..self.clone()
            });
            push(Scenario {
                nb: self.nb - 1,
                ..self.clone()
            });
        }
        // narrower panels
        if self.v > 2 && self.v / 2 >= self.c {
            push(Scenario {
                v: self.v / 2,
                ..self.clone()
            });
        }
        // flatter grids
        if self.c > 1 {
            push(Scenario {
                c: 1,
                faults: FaultSpec::None,
                ..self.clone()
            });
        }
        if self.q > 1 {
            push(Scenario {
                q: 1,
                faults: FaultSpec::None,
                ..self.clone()
            });
        }
        // simpler data
        if self.class != MatrixClass::Well {
            push(Scenario {
                class: MatrixClass::Well,
                ..self.clone()
            });
        }
        // default microkernel dispatch
        if self.ukernel.is_some() {
            push(Scenario {
                ukernel: None,
                ..self.clone()
            });
        }
        // no faults
        if self.faults != FaultSpec::None {
            push(Scenario {
                faults: FaultSpec::None,
                ..self.clone()
            });
        }
        // one RHS
        if matches!(self.kernel, Kernel::Solve | Kernel::Sparse) && self.nrhs > 1 {
            push(Scenario {
                nrhs: 1,
                ..self.clone()
            });
        }
        // simpler sparse setup: drop the preconditioner, then the pattern
        if self.kernel == Kernel::Sparse {
            if self.precond != SparsePrecond::None {
                push(Scenario {
                    precond: SparsePrecond::None,
                    ..self.clone()
                });
            }
            if self.pattern != SparsePattern::Banded {
                push(Scenario {
                    pattern: SparsePattern::Banded,
                    ..self.clone()
                });
            }
        }
        out
    }
}

impl std::fmt::Display for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.encode())
    }
}

/// Greedily minimize a failing scenario: repeatedly move to the first
/// shrink candidate that still fails `fails`, until none does. Returns the
/// minimal reproducer and the number of successful shrink steps.
pub fn minimize(start: &Scenario, mut fails: impl FnMut(&Scenario) -> bool) -> (Scenario, usize) {
    let mut current = start.clone();
    let mut steps = 0usize;
    'outer: for _ in 0..64 {
        for cand in current.shrink_candidates() {
            if fails(&cand) {
                current = cand;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    (current, steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seed_yields_a_valid_scenario() {
        for seed in 0..2_000u64 {
            let sc = Scenario::from_seed(seed);
            sc.validate().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(sc.n().is_multiple_of(sc.v));
            assert!(sc.v >= sc.c);
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        for seed in 0..500u64 {
            let sc = Scenario::from_seed(seed);
            let line = sc.encode();
            let back = Scenario::decode(&line).expect("decode");
            assert_eq!(sc, back, "roundtrip failed for `{line}`");
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Scenario::decode("kernel=lu").is_err());
        assert!(Scenario::decode("kernel=nope n=8 v=4 q=1 c=1 class=well").is_err());
        assert!(Scenario::decode("kernel=lu n=9 v=4 q=1 c=1 class=well").is_err());
        assert!(
            Scenario::decode("kernel=lu n=8 v=4 q=1 c=1 class=well faults=crash:99:0").is_err()
        );
    }

    #[test]
    fn shrinking_reaches_a_fixed_point() {
        let sc = Scenario::from_seed(12345);
        // a predicate that always fails drives the scenario to its floor
        let (minimal, steps) = minimize(&sc, |_| true);
        assert!(minimal.shrink_candidates().iter().all(|c| c == &minimal) || steps > 0);
        assert!(minimal.nb <= sc.nb && minimal.v <= sc.v);
        // and the floor is small
        assert!(minimal.n() <= sc.n());
        assert_eq!(minimal.class, MatrixClass::Well);
        assert_eq!(minimal.faults, FaultSpec::None);
    }

    #[test]
    fn sparse_scenarios_are_generated_and_roundtrip() {
        let mut seen_patterns = std::collections::HashSet::new();
        let mut seen_preconds = std::collections::HashSet::new();
        let mut sparse_count = 0usize;
        for seed in 0..2_000u64 {
            let sc = Scenario::from_seed(seed);
            if sc.kernel != Kernel::Sparse {
                // dense scenarios never carry sparse knobs (and keep the
                // historical nine-key line shape)
                assert_eq!(sc.pattern, SparsePattern::Banded);
                assert_eq!(sc.precond, SparsePrecond::None);
                assert!(!sc.encode().contains("pattern="));
                continue;
            }
            sparse_count += 1;
            seen_patterns.insert(sc.pattern.token());
            seen_preconds.insert(sc.precond.token());
            let line = sc.encode();
            assert!(line.contains("kernel=sparse"));
            let back = Scenario::decode(&line).expect("decode sparse");
            assert_eq!(sc, back, "sparse roundtrip failed for `{line}`");
        }
        // the 1/7 kernel weight must actually surface sparse scenarios,
        // and the sweep must cover every pattern and preconditioner
        assert!(sparse_count > 100, "only {sparse_count} sparse scenarios");
        assert_eq!(seen_patterns.len(), 3, "patterns seen: {seen_patterns:?}");
        assert_eq!(seen_preconds.len(), 3, "preconds seen: {seen_preconds:?}");
    }

    #[test]
    fn sparse_decode_accepts_handwritten_lines_and_rejects_misuse() {
        let sc = Scenario::decode(
            "kernel=sparse n=24 v=4 q=1 c=1 class=well mseed=7 nrhs=2 faults=none \
             pattern=laplacian precond=symgs",
        )
        .unwrap();
        assert_eq!(sc.pattern, SparsePattern::Laplacian);
        assert_eq!(sc.precond, SparsePrecond::SymGs);
        // omitted knobs default (handy for hand-written corpus lines)
        let sc = Scenario::decode("kernel=sparse n=8 v=4 q=1 c=1 class=well faults=none").unwrap();
        assert_eq!(sc.pattern, SparsePattern::Banded);
        assert_eq!(sc.precond, SparsePrecond::None);
        // sparse knobs on a dense kernel are a corpus-hygiene error
        assert!(Scenario::decode("kernel=lu n=8 v=4 q=1 c=1 class=well pattern=random").is_err());
        assert!(Scenario::decode("kernel=sparse n=8 v=4 q=1 c=1 class=well pattern=nope").is_err());
    }

    #[test]
    fn sparse_shrinking_drops_precond_then_pattern() {
        let sc = Scenario::decode(
            "kernel=sparse n=32 v=8 q=2 c=2 class=ill mseed=9 nrhs=3 faults=none \
             pattern=random precond=symgs",
        )
        .unwrap();
        let (minimal, steps) = minimize(&sc, |_| true);
        assert!(steps > 0);
        assert_eq!(minimal.precond, SparsePrecond::None);
        assert_eq!(minimal.pattern, SparsePattern::Banded);
        assert_eq!(minimal.nrhs, 1);
        assert_eq!(minimal.class, MatrixClass::Well);
    }

    #[test]
    fn ukernel_scenarios_cover_every_variant_and_roundtrip() {
        let mut seen = std::collections::HashSet::new();
        let mut pinned = 0usize;
        for seed in 0..5_000u64 {
            let sc = Scenario::from_seed(seed);
            match sc.ukernel {
                Some(uk) => {
                    assert_eq!(sc.kernel, Kernel::Lu, "ukernel on non-LU scenario");
                    assert!(KERNEL_VARIANTS.contains(&uk));
                    pinned += 1;
                    seen.insert(uk);
                    let line = sc.encode();
                    assert!(line.contains("ukernel="));
                    assert_eq!(Scenario::decode(&line).expect("decode"), sc);
                }
                None => assert!(!sc.encode().contains("ukernel=")),
            }
        }
        // ~1/3 of the (4/7-weighted) LU scenarios pin a variant, and the
        // sweep must reach every name in the table
        assert!(pinned > 500, "only {pinned} pinned scenarios");
        assert_eq!(
            seen.len(),
            KERNEL_VARIANTS.len(),
            "variants never generated: {:?}",
            KERNEL_VARIANTS
                .iter()
                .filter(|k| !seen.contains(*k))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn ukernel_decode_validates_and_shrinking_drops_it() {
        let sc = Scenario::decode(
            "kernel=lu n=16 v=4 q=1 c=1 class=well mseed=3 nrhs=1 faults=none ukernel=portable_6x8",
        )
        .unwrap();
        assert_eq!(sc.ukernel, Some("portable_6x8"));
        // unknown variant names and non-LU kernels are corpus-hygiene errors
        assert!(Scenario::decode(
            "kernel=lu n=16 v=4 q=1 c=1 class=well faults=none ukernel=portable_3x3"
        )
        .is_err());
        assert!(Scenario::decode(
            "kernel=cholesky n=16 v=4 q=1 c=1 class=well faults=none ukernel=portable_8x4"
        )
        .is_err());
        // shrinking falls back to the default dispatch
        let (minimal, steps) = minimize(&sc, |_| true);
        assert!(steps > 0);
        assert_eq!(minimal.ukernel, None);
    }

    #[test]
    fn wilkinson_scenarios_stay_small() {
        for seed in 0..5_000u64 {
            let sc = Scenario::from_seed(seed);
            if sc.class == MatrixClass::Wilkinson {
                assert!(sc.n() <= 20, "wilkinson n={} too large", sc.n());
            }
        }
    }
}
