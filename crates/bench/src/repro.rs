//! The `repro` command's library half: one markdown block per
//! deterministic experiment of `EXPERIMENTS.md`, and the splicer that
//! checks or rewrites those blocks in place.
//!
//! Each block sits in `EXPERIMENTS.md` between `<!-- repro:NAME -->` and
//! `<!-- /repro -->`, one fence per entry of [`BLOCKS`]. A measured volume
//! is printed as its exact element count (next to any rounded GB/MB
//! figure) and a model value at fixed precision, so one changed element
//! changes the block while a last-bit `powf` difference between hosts
//! does not.

use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::path::{Path, PathBuf};

use baselines::models;
use conflux::grid::{choose_grid, LuGrid};
use conflux::{factorize, ConfluxConfig, PivotStrategy};
use iobound::{kernels, lu_bound, minimize_rho, mmm_bound, shapes, statement_rho, LuBound};
use simnet::{BcastAlgo, ELEMENT_BYTES};

use crate::experiments::{measure_all, Implementation, Measurement};

/// A block renderer: it measures the points it needs through the sweep.
pub type Render = fn(&mut Sweep) -> String;

/// Every block `repro` renders, by name: each is one subcommand and one
/// fence in `EXPERIMENTS.md`, in the order the file shows them.
pub const BLOCKS: [(&str, Render); 6] = [
    ("table2", table2),
    ("fig6a", fig6a),
    ("fig6b", fig6b),
    ("fig7", fig7),
    ("theory", theory),
    ("ablations", ablations),
];

/// Render the block called `name`, or `None` if no block has that name.
pub fn render(name: &str, sweep: &mut Sweep) -> Option<String> {
    BLOCKS
        .iter()
        .find(|(block, _)| *block == name)
        .map(|(_, render)| render(sweep))
}

/// `EXPERIMENTS.md` of the checkout this crate was built from.
pub fn experiments_path() -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2);
    root.expect("the crate sits two levels below the workspace root")
        .join("EXPERIMENTS.md")
}

/// The `(N, P)` points measured so far: Table 2, Fig. 6a, Fig. 7 and the
/// theory block share several, and each is a Phantom run of all four
/// implementations.
#[derive(Default)]
pub struct Sweep {
    points: HashMap<(usize, usize), Vec<Measurement>>,
}

impl Sweep {
    /// All four implementations at `(n, p)`, in [`Implementation::ALL`] order.
    fn at(&mut self, n: usize, p: usize) -> &[Measurement] {
        self.points
            .entry((n, p))
            .or_insert_with(|| measure_all(n, p))
    }
}

/// The measurement of `imp` among `ms`.
fn of(ms: &[Measurement], imp: Implementation) -> &Measurement {
    let found = ms.iter().find(|m| m.implementation == imp);
    found.expect("measure_all measures every implementation")
}

/// The header and rule of a markdown table with columns `cols` (`a | b`).
fn header(cols: &str) -> String {
    let rule = vec!["---"; cols.split(" | ").count()].join(" | ");
    format!("| {cols} |\n| {rule} |\n")
}

/// Format a byte count the way the figures label their axes.
fn human_bytes(b: f64) -> String {
    if b >= 1e9 {
        format!("{:.2} GB", b / 1e9)
    } else if b >= 1e6 {
        format!("{:.2} MB", b / 1e6)
    } else if b >= 1e3 {
        format!("{:.2} KB", b / 1e3)
    } else {
        format!("{b:.0} B")
    }
}

/// The Fig. 6 cells of one `(N, P)`: per implementation, the mean volume
/// per node and then the exact total element count.
fn per_node(ms: &[Measurement]) -> String {
    let cell = |m: &Measurement| {
        let mean = human_bytes(m.mean_per_rank_bytes());
        format!("{mean} ({})", m.total_elements)
    };
    ms.iter().map(cell).collect::<Vec<_>>().join(" | ")
}

/// Table 2 of the paper, measured/modeled total volume in GB, in
/// [`Implementation::ALL`] order.
const PAPER_TABLE2: [(usize, usize, &str); 4] = [
    (4096, 64, "1.17/1.21 1.18/1.21 2.5/4.9 1.11/1.08"),
    (4096, 1024, "4.45/4.43 4.35/4.43 9.3/12.13 3.13/3.07"),
    (16384, 64, "18.79/19.33 18.84/19.33 39.8/78.74 17.61/17.19"),
    (16384, 1024, "70.91/70.87 71.1/70.87 144/194.09 45.42/44.77"),
];

/// Table 2: total volume measured and modeled, with the paper's figures.
fn table2(sweep: &mut Sweep) -> String {
    let mut out = header(
        "N | P | library | measured [elements] | measured [GB] | modeled [GB] | modeled/measured | paper measured/modeled [GB]",
    );
    for (n, p, paper) in PAPER_TABLE2 {
        for (m, paper) in sweep.at(n, p).iter().zip(paper.split(' ')) {
            out += &format!(
                "| {n} | {p} | {} | {} | {:.2} | {:.2} | {:.0}% | {paper} |\n",
                m.implementation.name(),
                m.total_elements,
                m.total_gb(),
                m.model_total_gb(),
                m.prediction_pct(),
            );
        }
    }
    out
}

/// Fig. 6a: volume per node at N = 16384 for P = 4…1024, with the models.
fn fig6a(sweep: &mut Sweep) -> String {
    let n = 16384;
    let mut out = header("P | LibSci | SLATE | CANDMC | COnfLUX | 2D model | COnfLUX model");
    for p in [4, 8, 16, 32, 64, 128, 256, 512, 1024] {
        let ms = sweep.at(n, p);
        let model_2d = models::libsci_per_rank(n as f64, p as f64) * ELEMENT_BYTES as f64;
        let model_conflux = of(ms, Implementation::Conflux).model_per_rank * ELEMENT_BYTES as f64;
        out += &format!(
            "| {p} | {} | {} | {} |\n",
            per_node(ms),
            human_bytes(model_2d),
            human_bytes(model_conflux)
        );
    }
    out
}

/// Fig. 6b: weak scaling, volume per node at N = 3200·∛P.
fn fig6b(sweep: &mut Sweep) -> String {
    let mut out = header("P | N | LibSci | SLATE | CANDMC | COnfLUX");
    // perfect cubes, so that N = 3200·∛P is exact and v | N holds
    for cbrt in [2, 3, 4, 5, 6, 8, 10] {
        let (p, n) = (cbrt * cbrt * cbrt, 3200 * cbrt);
        out += &format!("| {p} | {n} | {} |\n", per_node(sweep.at(n, p)));
    }
    out
}

/// Fig. 7: COnfLUX's reduction against the second-best library, measured
/// up to P = 1024 and model-predicted up to P = 262144.
fn fig7(sweep: &mut Sweep) -> String {
    let mut measured = HashMap::new();
    let mut out = String::from("Measured (simulated):\n\n");
    out += &header("N | P | COnfLUX [elements] | second best | second best [elements] | reduction");
    for n in [4096, 8192, 16384] {
        for p in [16, 64, 256, 1024] {
            let ms = sweep.at(n, p);
            let conflux = of(ms, Implementation::Conflux).total_elements;
            let second = ms
                .iter()
                .filter(|m| m.implementation != Implementation::Conflux)
                .min_by_key(|m| m.total_elements)
                .expect("three libraries besides COnfLUX");
            let reduction = second.total_elements as f64 / conflux as f64;
            measured.insert((n, p), reduction);
            out += &format!(
                "| {n} | {p} | {conflux} | {} | {} | {reduction:.2}× |\n",
                second.implementation.name(),
                second.total_elements
            );
        }
    }

    out += "\nModel-predicted (`baselines::models`, the Lemma-10 form for COnfLUX):\n\n";
    out += &header("N | P | reduction | second best");
    let mut overlap = header("N | P | measured | model-predicted");
    for n in [16384, 65536] {
        for p in [1024, 4096, 16384, 65536, 262144] {
            let (nf, pf) = (n as f64, p as f64);
            let (l, s, c, x) = models::all_models_per_rank(nf, pf, models::fig6_memory(nf, pf));
            let (name, second) = [("LibSci", l), ("SLATE", s), ("CANDMC", c)]
                .into_iter()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("three models besides COnfLUX's");
            let predicted = second / x;
            out += &format!("| {n} | {p} | {predicted:.2}× | {name} |\n");
            if let Some(m) = measured.get(&(n, p)) {
                overlap += &format!("| {n} | {p} | {m:.2}× | {predicted:.2}× |\n");
            }
        }
    }
    out += "\nWhere both halves have a point:\n\n";
    out += &overlap;

    // Summit at full scale: the paper's HPL-class N, P = 262144 ranks and
    // physical per-rank memory (512 GB/node over 6 ranks, about 1.06e10
    // elements), which caps the replication below P^(1/3)
    let (n, p, m) = (16_473_600.0_f64, 262_144.0_f64, 1.06e10_f64);
    let (l, s, _, x) = models::all_models_per_rank(n, p, m);
    out += &format!(
        "\nSummit-scale prediction (N = {n:.0}, P = {p:.0}, M = {m:.2e} elements/rank): \
         COnfLUX communicates {:.1}× less than the 2D libraries.\n",
        l.min(s) / x
    );
    out
}

/// Experiment 7: the bounds of Sections 4–6 from the `iobound` machinery
/// next to their closed forms, and COnfLUX's measured distance to the
/// Section 6 bound at the Table 2 points.
fn theory(sweep: &mut Sweep) -> String {
    let (n, m, p) = (16384.0_f64, 1_048_576.0_f64, 1024);
    let mmm = minimize_rho(&shapes::mmm(), m).expect("MMM has a finite intensity");
    let (x0, rho_mmm, three_m, root) = (mmm.x0, mmm.rho, 3.0 * m, m.sqrt() / 2.0);
    let rho_s1 = statement_rho(&shapes::lu_s1(), m, 1);
    let s2 = minimize_rho(&shapes::lu_s2(), m).expect("LU S2 has a finite intensity");
    let rho_s2 = s2.rho;
    let lu = lu_bound(n, m);
    let (q_s1, q_s2, q_lu, q_par) = (lu.q_s1, lu.q_s2, lu.q_total, lu.parallel(p));
    let s1_form = n * (n - 1.0) / 2.0;
    let s2_form = (2.0 * n * n * n - 6.0 * n * n + 4.0 * n) / (3.0 * m.sqrt());
    let leading = LuBound::leading_term(n, m, p);
    let conflux = n * n * n / (p as f64 * m.sqrt());
    let over = conflux / q_par;
    let (q_mmm, q_chol) = (mmm_bound(n, m), kernels::cholesky_bound(n, m));
    let (qs, qt, reuse, qtot) = kernels::sec41_example(4096.0, 1024.0);
    let (alone, combined) = kernels::sec42_example(4096.0, 1024.0);
    let mut out = format!(
        "N = {n:.0}, M = {m:.0} elements, P = {p} (§4.1 and §4.2: N = 4096, M = 1024):

| result | computed | closed form |
| --- | --- | --- |
| MMM `X₀` | {x0:.0} | `3M` = {three_m:.0} |
| MMM `ρ` | {rho_mmm:.2} | `√M/2` = {root:.2} |
| LU S1 `ρ` (Lemma 6, u = 1) | {rho_s1:.2} | 1 |
| LU S2 `ρ` | {rho_s2:.2} | `√M/2` = {root:.2} |
| §6 `Q_S1` | {q_s1:.3e} | `N(N−1)/2` = {s1_form:.3e} |
| §6 `Q_S2` | {q_s2:.3e} | `(2N³−6N²+4N)/(3√M)` = {s2_form:.3e} |
| §6 sequential `Q_LU` | {q_lu:.3e} | `Q_S1 + Q_S2` |
| §6 parallel `Q_LU` per rank | {q_par:.3e} | leading term `2N³/(3P√M)` = {leading:.3e} |
| COnfLUX `N³/(P√M)` (Lemma 10) | {conflux:.3e} | {over:.3}× the parallel bound |
| MMM `Q` | {q_mmm:.3e} | `2N³/√M` |
| Cholesky `Q` | {q_chol:.3e} | `~N³/(3√M)` |
| §4.1 `Q_S`, `Q_T`, `Reuse(B)`, `Q_tot` | {qs:.3e}, {qt:.3e}, {reuse:.3e}, {qtot:.3e} | `N³/M` each |
| §4.2 `T` alone, with a free producer | {alone:.3e}, {combined:.3e} | `2N³/√M`, `N³/M` |

COnfLUX against the Section 6 bound at the Table 2 points (mean over the active ranks):

"
    );
    out += &header(
        "N | P | grid | COnfLUX [elements] | per active rank | bound per rank | measured/bound",
    );
    for (n, p, _) in PAPER_TABLE2 {
        let g = choose_grid(
            p,
            n,
            models::fig6_memory(n as f64, p as f64).ceil() as usize,
        );
        let total = of(sweep.at(n, p), Implementation::Conflux).total_elements;
        let per_rank = total as f64 / g.active() as f64;
        let bound = lu_bound(n as f64, g.memory_per_rank(n) as f64).parallel(g.active());
        out += &format!(
            "| {n} | {p} | [{},{},{}] | {total} | {per_rank:.0} | {bound:.0} | {:.2} |\n",
            g.q,
            g.q,
            g.c,
            per_rank / bound
        );
    }
    out
}

/// Experiment 8: the design-choice ablations at N = 1024.
fn ablations(_: &mut Sweep) -> String {
    let n = 1024;
    let base = ConfluxConfig::phantom(n, 16, LuGrid::new(64, 4, 4));
    let mut out = header(
        "ablation | variant | grid | v | total [elements] | per active rank | busiest rank [elements]",
    );
    let mut run = |ablation: &str, variant: &str, cfg: ConfluxConfig| {
        let stats = factorize(&cfg, None).stats;
        let (g, total) = (cfg.grid, stats.total_sent());
        out += &format!(
            "| {ablation} | {variant} | [{},{},{}] | {} | {total} | {:.0} | {} |\n",
            g.q,
            g.q,
            g.c,
            cfg.v,
            total as f64 / g.active() as f64,
            stats.max_sent_per_rank()
        );
        stats
    };

    let masking = run("pivoting", "masking", base.clone());
    let swapping = run(
        "pivoting",
        "swapping",
        ConfluxConfig {
            pivot_strategy: PivotStrategy::Swapping,
            ..base.clone()
        },
    );
    for c in [1, 2, 4] {
        let cfg = ConfluxConfig::phantom(n, 16.max(c), LuGrid::new(16 * c, 4, c));
        run("replication", &format!("c = {c}"), cfg);
    }
    for v in [4, 16, 64, 256] {
        run(
            "blocking",
            &format!("v = {v}"),
            ConfluxConfig { v, ..base.clone() },
        );
    }
    // an awkward P that is not q²c for any full grid
    let p = 60;
    let optimized = choose_grid(
        p,
        n,
        models::fig6_memory(n as f64, p as f64).ceil() as usize,
    );
    run(
        "grid, P = 60",
        "optimized",
        ConfluxConfig::phantom(n, 16, optimized),
    );
    let greedy = LuGrid::new(p, 7, 1);
    run(
        "grid, P = 60",
        "greedy 2D",
        ConfluxConfig::phantom(n, 16, greedy),
    );
    let binomial = run("broadcast", "binomial", base.clone());
    let flat_cfg = ConfluxConfig {
        bcast: BcastAlgo::Flat,
        ..base
    };
    let flat = run("broadcast", "flat", flat_cfg);

    out += &format!(
        "\nSwapping over masking: {:.2}× the total. \
         Flat over binomial broadcast: {:.2}× the busiest rank.\n",
        swapping.total_sent() as f64 / masking.total_sent() as f64,
        flat.max_sent_per_rank() as f64 / binomial.max_sent_per_rank() as f64,
    );
    out
}

const CLOSE: &str = "<!-- /repro -->";

/// `body` between the fence lines of block `name`.
pub fn fenced(name: &str, body: &str) -> String {
    format!("<!-- repro:{name} -->\n{body}{CLOSE}\n")
}

/// Why a document's fences are malformed, or which block is stale.
#[derive(Debug, PartialEq, Eq)]
pub enum ReproError {
    /// A fence opens and the next fence or the end of the file comes
    /// before its `<!-- /repro -->`.
    Unterminated(String),
    /// A `<!-- /repro -->` closes no fence.
    StrayClose,
    /// Two fences carry the same name.
    Duplicate(String),
    /// A fence names no block of [`BLOCKS`].
    Unknown(String),
    /// A block of [`BLOCKS`] has no fence.
    Missing(String),
    /// A fenced block differs from its regenerated text, first at `line`
    /// (1-based within the block).
    Differs {
        /// The block's name.
        block: String,
        /// First differing line.
        line: usize,
        /// That line as the document has it.
        committed: String,
        /// That line as `repro` renders it now.
        generated: String,
    },
}

impl fmt::Display for ReproError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Unterminated(name) => write!(f, "fence `{name}` is not closed by `{CLOSE}`"),
            Self::StrayClose => write!(f, "`{CLOSE}` closes no fence"),
            Self::Duplicate(name) => write!(f, "block `{name}` is fenced twice"),
            Self::Unknown(name) => write!(f, "fence `{name}` names no repro block"),
            Self::Missing(name) => write!(f, "block `{name}` has no fence"),
            Self::Differs {
                block,
                line,
                committed,
                generated,
            } => write!(
                f,
                "block `{block}` differs at its line {line}\n  committed: {committed}\n  generated: {generated}"
            ),
        }
    }
}

impl std::error::Error for ReproError {}

/// One fenced block of a document: its name and the byte range of its body.
struct Fence<'a> {
    name: &'a str,
    body: Range<usize>,
}

/// The fenced blocks of `doc`, in order; exactly one per entry of [`BLOCKS`].
fn fences(doc: &str) -> Result<Vec<Fence<'_>>, ReproError> {
    let mut found: Vec<Fence<'_>> = Vec::new();
    let mut open: Option<(&str, usize)> = None;
    let mut at = 0;
    for line in doc.split_inclusive('\n') {
        let start = at;
        at += line.len();
        let line = line.trim_end();
        if let Some(name) = line
            .strip_prefix("<!-- repro:")
            .and_then(|rest| rest.strip_suffix(" -->"))
        {
            if let Some((outer, _)) = open {
                return Err(ReproError::Unterminated(outer.into()));
            }
            if !BLOCKS.iter().any(|(block, _)| *block == name) {
                return Err(ReproError::Unknown(name.into()));
            }
            if found.iter().any(|f| f.name == name) {
                return Err(ReproError::Duplicate(name.into()));
            }
            open = Some((name, at));
        } else if line == CLOSE {
            let (name, body_start) = open.take().ok_or(ReproError::StrayClose)?;
            found.push(Fence {
                name,
                body: body_start..start,
            });
        }
    }
    if let Some((name, _)) = open {
        return Err(ReproError::Unterminated(name.into()));
    }
    if let Some((name, _)) = BLOCKS
        .iter()
        .find(|(block, _)| !found.iter().any(|f| f.name == *block))
    {
        return Err(ReproError::Missing(name.to_string()));
    }
    Ok(found)
}

/// `doc` with the body of every fenced block replaced by `render(name)`;
/// every byte outside the fences is kept.
pub fn splice(doc: &str, mut render: impl FnMut(&str) -> String) -> Result<String, ReproError> {
    let mut out = String::with_capacity(doc.len());
    let mut copied = 0;
    for fence in fences(doc)? {
        out += &doc[copied..fence.body.start];
        out += &render(fence.name);
        copied = fence.body.end;
    }
    out += &doc[copied..];
    Ok(out)
}

/// `Ok` if every fenced block of `doc` equals `render(name)`, else the
/// first block that differs.
pub fn check(doc: &str, mut render: impl FnMut(&str) -> String) -> Result<(), ReproError> {
    for fence in fences(doc)? {
        let generated = render(fence.name);
        let committed = &doc[fence.body];
        if committed == generated {
            continue;
        }
        let (c, g): (Vec<&str>, Vec<&str>) = (
            committed.split('\n').collect(),
            generated.split('\n').collect(),
        );
        let line = (0..).find(|&i| c.get(i) != g.get(i));
        let line = line.expect("two different texts differ in some line");
        let show = |l: Option<&&str>| l.map_or("(end of block)".into(), |l| l.to_string());
        return Err(ReproError::Differs {
            block: fence.name.into(),
            line: line + 1,
            committed: show(c.get(line)),
            generated: show(g.get(line)),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A document with text around and between the fences, one fence per
    /// block with `body(name)` inside.
    fn doc(body: impl Fn(&str) -> String) -> String {
        let mut out = String::from("# Title\r\n\ntrailing space \n");
        for (name, _) in BLOCKS {
            out += &format!("## {name} ×\n\n");
            out += &fenced(name, &body(name));
            out += "\nprose after\n";
        }
        out + "last line, no newline"
    }

    fn old(name: &str) -> String {
        format!("stale {name}\n| 1 |\n")
    }

    fn new(name: &str) -> String {
        format!("| {name} |\n|---|\n| 2 |\n")
    }

    #[test]
    fn write_keeps_everything_outside_the_fences() {
        let written = splice(&doc(old), new).unwrap();
        assert_eq!(written, doc(new));
        assert_eq!(check(&written, new), Ok(()));
    }

    #[test]
    fn check_names_the_first_stale_block() {
        assert_eq!(
            check(&doc(old), new),
            Err(ReproError::Differs {
                block: "table2".into(),
                line: 1,
                committed: "stale table2".into(),
                generated: "| table2 |".into(),
            })
        );
    }

    #[test]
    fn check_fails_on_a_one_character_change() {
        let good = doc(new);
        let at = good
            .find("| 2 |\n<!-- /repro -->\n\nprose after\n## fig7")
            .unwrap();
        let mut bad = good.clone();
        bad.replace_range(at + 2..at + 3, "3");
        assert_eq!(
            check(&bad, new),
            Err(ReproError::Differs {
                block: "fig6b".into(),
                line: 3,
                committed: "| 3 |".into(),
                generated: "| 2 |".into(),
            })
        );
    }

    #[test]
    fn malformed_fences_are_named() {
        let good = doc(new);
        let fence = "<!-- repro:fig7 -->\n";
        let missing = good.replacen(fence, "", 1);
        assert_eq!(check(&missing, new), Err(ReproError::StrayClose));
        let missing = good.replacen(&fenced("fig7", &new("fig7")), "", 1);
        assert_eq!(
            check(&missing, new),
            Err(ReproError::Missing("fig7".into()))
        );
        let unterminated = good.replacen(&format!("{}{CLOSE}\n", new("fig7")), "", 1);
        assert_eq!(
            check(&unterminated, new),
            Err(ReproError::Unterminated("fig7".into()))
        );
        let at = good.rfind(CLOSE).unwrap();
        let unterminated = format!("{}{}", &good[..at], &good[at + CLOSE.len() + 1..]);
        assert_eq!(
            check(&unterminated, new),
            Err(ReproError::Unterminated(BLOCKS[5].0.into()))
        );
        let duplicated = format!("{good}\n{}", fenced("fig7", &new("fig7")));
        assert_eq!(
            check(&duplicated, new),
            Err(ReproError::Duplicate("fig7".into()))
        );
        let unknown = format!("{good}\n{}", fenced("fig8", "x\n"));
        assert_eq!(
            splice(&unknown, new),
            Err(ReproError::Unknown("fig8".into()))
        );
    }

    #[test]
    fn experiments_fences_match_the_subcommands_one_to_one() {
        let doc = std::fs::read_to_string(experiments_path()).unwrap();
        let names: Vec<&str> = fences(&doc).unwrap().iter().map(|f| f.name).collect();
        let blocks: Vec<&str> = BLOCKS.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, blocks);
    }

    #[test]
    fn bytes_formatting() {
        assert_eq!(human_bytes(512.0), "512 B");
        assert_eq!(human_bytes(2_500.0), "2.50 KB");
        assert_eq!(human_bytes(3.2e7), "32.00 MB");
        assert_eq!(human_bytes(1.21e9), "1.21 GB");
    }
}
