//! Figure 5, as a trace: run COnfLUX on the paper's P = 8 (2x2x2 grid)
//! configuration with its event timeline enabled and print who
//! communicates with whom in each of Algorithm 1's steps — the textual
//! version of the paper's decomposition diagram.
//!
//! Run with `cargo run --release --example fig5_trace`.

use conflux_repro::conflux::{factorize, ConfluxConfig, LuGrid};
use conflux_repro::simnet::trace::EventKind;

fn main() {
    let n = 16;
    let v = 4;
    let grid = LuGrid::new(8, 2, 2); // Figure 5's 2x2x2 grid
    let cfg = ConfluxConfig::phantom(n, v, grid).with_timeline();

    println!(
        "COnfLUX on the Figure-5 grid [2,2,2], N = {n}, v = {v} ({} steps)\n",
        n / v
    );
    let run = factorize(&cfg, None);
    let trace = run.timeline.expect("the timeline was enabled");

    // One line per transfer: a point-to-point send, or one collective,
    // whose per-rank steps are recorded back to back under one `seq`.
    let mut transfers: Vec<(&str, String)> = Vec::new();
    let mut events = trace.events.iter().peekable();
    while let Some(ev) = events.next() {
        match ev.kind {
            EventKind::Send { peer } => transfers.push((
                ev.phase,
                format!(
                    "rank {:>2} -> rank {peer:<2}  {} elements",
                    ev.rank, ev.sent
                ),
            )),
            EventKind::CollectiveStep { op } => {
                let (mut group, mut sent) = (vec![ev.rank], ev.sent);
                while let Some(step) = events.next_if(|e| {
                    e.seq == ev.seq && matches!(e.kind, EventKind::CollectiveStep { .. })
                }) {
                    group.push(step.rank);
                    sent += step.sent;
                }
                transfers.push((
                    ev.phase,
                    format!("{op:<10} over ranks {group:?}, {sent} elements sent"),
                ));
            }
            EventKind::Recv { .. } | EventKind::Compute { .. } | EventKind::Retransmit { .. } => {}
        }
    }

    let mut current_phase = "";
    let mut shown_per_phase = 0;
    for (phase, line) in &transfers {
        if *phase != current_phase {
            current_phase = phase;
            shown_per_phase = 0;
            println!("--- {phase} ---");
        }
        shown_per_phase += 1;
        if shown_per_phase > 6 {
            if shown_per_phase == 7 {
                println!("      ...");
            }
            continue;
        }
        println!("      {line}");
    }

    println!(
        "\ntotal transfers: {}, total volume: {} elements",
        transfers.len(),
        run.stats.total_sent()
    );
    println!("\nper-phase volumes (matches Algorithm 1's cost annotations):");
    print!("{}", run.stats.phase_table());
}
