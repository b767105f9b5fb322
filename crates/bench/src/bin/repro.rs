//! Prints every deterministic paper number of EXPERIMENTS.md, and checks
//! or rewrites the fenced blocks that show them there.
//!
//! ```text
//! repro            every block, each between its fence lines
//! repro NAME       one block: table2, fig6a, fig6b, fig7, ablations or theory
//! repro --check    regenerate every fenced block of EXPERIMENTS.md and
//!                  exit non-zero at the first one that differs
//! repro --write    rewrite the fenced blocks of EXPERIMENTS.md in place
//! ```
//!
//! Run with `cargo run --release -p conflux-bench --bin repro -- --check`.

use std::error::Error;
use std::path::Path;
use std::process::ExitCode;

use conflux_bench::repro::{self, Sweep, BLOCKS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut sweep = Sweep::default();
    let mut render = |name: &str| {
        repro::render(name, &mut sweep).expect("a fence or the argument names a block of BLOCKS")
    };
    let path = repro::experiments_path();
    let result = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [] => {
            for (name, _) in BLOCKS {
                println!("{}", repro::fenced(name, &render(name)));
            }
            Ok(())
        }
        ["--check"] => check_or_write(&path, false, render),
        ["--write"] => check_or_write(&path, true, render),
        [name] if BLOCKS.iter().any(|(block, _)| *block == name) => {
            print!("{}", render(name));
            Ok(())
        }
        _ => {
            let names: Vec<&str> = BLOCKS.iter().map(|(name, _)| *name).collect();
            eprintln!("usage: repro [{} | --check | --write]", names.join(" | "));
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro: {}: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}

/// Compare every fenced block of `path` with `render`, or rewrite them.
fn check_or_write(
    path: &Path,
    write: bool,
    render: impl FnMut(&str) -> String,
) -> Result<(), Box<dyn Error>> {
    let doc = std::fs::read_to_string(path)?;
    if write {
        std::fs::write(path, repro::splice(&doc, render)?)?;
    } else {
        repro::check(&doc, render)?;
        println!(
            "repro: all {} blocks match {}",
            BLOCKS.len(),
            path.display()
        );
    }
    Ok(())
}
