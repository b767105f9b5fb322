//! Every name the experiment index of DESIGN.md (§4) cites resolves in the
//! workspace: a test name is some `fn NAME`, a `crate::module::item` path
//! walks to a module file or an item declared in one, an example is a
//! file under `examples/`, and a `repro NAME` is one of the `repro`
//! blocks. A renamed or deleted test, function or module fails here
//! instead of leaving the table pointing at nothing.

use std::fs;
use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The text of every `.rs` file under `dir`, recursively.
fn rust_sources(dir: &Path, out: &mut String) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for path in entries.map(|e| e.unwrap().path()) {
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push_str(&fs::read_to_string(&path).unwrap());
            out.push('\n');
        }
    }
}

/// Whether `src` contains `pat` not followed by an identifier character.
fn has_word(src: &str, pat: &str) -> bool {
    src.match_indices(pat)
        .any(|(i, _)| !src[i + pat.len()..].starts_with(|c: char| c == '_' || c.is_alphanumeric()))
}

/// Whether `src` declares an item called `name` (or re-exports it).
fn declares(src: &str, name: &str) -> bool {
    ["fn", "struct", "enum", "trait", "mod", "type", "const"]
        .iter()
        .any(|kw| has_word(src, &format!("{kw} {name}")))
        || src
            .lines()
            .any(|l| l.trim_start().starts_with("pub use") && has_word(l, name))
}

/// Resolve `krate::module::...::item` against `crates/<krate>/src`:
/// each segment is a module file, or an item of the file reached so far.
fn resolves(path: &str) -> bool {
    let mut segs = path.split("::");
    let mut dir: PathBuf = root().join("crates").join(segs.next().unwrap()).join("src");
    let mut file = dir.join("lib.rs");
    for seg in segs {
        let module = dir.join(format!("{seg}.rs"));
        if module.exists() {
            dir = dir.join(seg);
            file = module;
        } else if !declares(&fs::read_to_string(&file).unwrap_or_default(), seg) {
            return false;
        }
    }
    file.exists()
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Test,
    Example,
    Other,
}

/// The names the §4 table cites in its "modules" and "regenerated by"
/// columns that do not resolve.
fn unresolved(design: &str, sources: &str) -> Vec<String> {
    let repro = fs::read_to_string(root().join("crates/bench/src/repro.rs")).unwrap();
    let table = design
        .split("\n## 4.")
        .nth(1)
        .expect("DESIGN.md has a section 4")
        .split("\n## ")
        .next()
        .unwrap();
    let mut bad = Vec::new();
    for row in table.lines().filter(|l| l.starts_with("| **")) {
        let cells: Vec<&str> = row.split('|').collect();
        for cell in &cells[4..6] {
            let mut kind = Kind::Other;
            for (i, piece) in cell.split('`').enumerate() {
                if i % 2 == 0 {
                    let between = piece.trim();
                    kind = if between.ends_with("tests") || between.ends_with("test") {
                        Kind::Test
                    } else if between.ends_with("examples") || between.ends_with("example") {
                        Kind::Example
                    } else if matches!(between, "," | "and") {
                        kind
                    } else {
                        Kind::Other
                    };
                    continue;
                }
                let ok = if let Some(ex) = piece.strip_prefix("cargo run --example ") {
                    root().join(format!("examples/{ex}.rs")).exists()
                } else if let Some(block) = piece.strip_prefix("repro ") {
                    repro.contains(&format!("\"{block}\""))
                } else if piece.contains('/') {
                    root().join(piece).exists()
                } else if piece.contains("::") {
                    resolves(piece)
                } else if kind == Kind::Test {
                    has_word(sources, &format!("fn {piece}"))
                } else if kind == Kind::Example {
                    root().join(format!("examples/{piece}.rs")).exists()
                } else {
                    root().join("crates").join(piece).is_dir()
                };
                if !ok {
                    bad.push(piece.to_string());
                }
            }
        }
    }
    bad
}

fn workspace_sources() -> String {
    let mut sources = String::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_sources(&root().join(dir), &mut sources);
    }
    sources
}

#[test]
fn experiment_index_names_resolve() {
    let design = fs::read_to_string(root().join("DESIGN.md")).unwrap();
    let bad = unresolved(&design, &workspace_sources());
    assert!(
        bad.is_empty(),
        "DESIGN.md §4 cites names that do not exist: {bad:?}"
    );
}

#[test]
fn a_planted_bad_name_is_caught() {
    let sources = workspace_sources();
    let design = "\n## 4. Index\n\n| **X** | a | b | `baselines::lu1d`, `conflux::grid` \
                  | tests `fig5_decomposition_p8`, `sec41_numbers`, example `quickstart` |\n";
    assert_eq!(
        unresolved(design, &sources),
        ["baselines::lu1d", "fig5_decomposition_p8"]
    );
}
