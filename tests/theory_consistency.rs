//! Consistency between the theory crates: symbolic bounds (`iobound`),
//! executable pebbling (`pebbling`), and the figures' cDAG structure.

use conflux_repro::iobound::{self, shapes};
use conflux_repro::pebbling::builders::{fig2a_cdag, fig2b_cdag, lu_cdag, mmm_cdag};
use conflux_repro::pebbling::game::execute;
use conflux_repro::pebbling::parallel::{execute_parallel, owner_computes_schedule};
use conflux_repro::pebbling::{greedy_partition, min_dominator_size};

#[test]
fn fig1_lu_cdag_structure() {
    // Figure 1's representation for N = 4: statement domains and accesses
    let n = 4;
    let (g, groups) = lu_cdag(n);
    // |S1| = n(n-1)/2 = 6, |S2| = n(n-1)(2n-1)/6 = 14
    assert_eq!(groups.s1.iter().map(Vec::len).sum::<usize>(), 6);
    assert_eq!(groups.s2.iter().map(Vec::len).sum::<usize>(), 14);
    // S1 vertices read 2 inputs (A[i,k], A[k,k]); S2 read 3
    for v in groups.s1.iter().flatten() {
        assert_eq!(g.preds(*v).len(), 2);
    }
    for v in groups.s2.iter().flatten() {
        assert_eq!(g.preds(*v).len(), 3);
    }
}

#[test]
fn fig2a_intensity() {
    // u = 1 out-degree-one input per compute vertex => rho <= 1
    let g = fig2a_cdag(6);
    assert_eq!(g.min_outdegree_one_input_preds(), 1);
    // a schedule therefore performs at least one load per compute vertex
    let m = 8;
    let moves = conflux_repro::pebbling::greedy_schedule(&g, m);
    let stats = execute(&g, &moves, m).unwrap();
    assert!(stats.loads >= stats.computes);
}

#[test]
fn fig2b_intensity() {
    let g = fig2b_cdag(6);
    assert_eq!(g.min_outdegree_one_input_preds(), 2);
    let m = 8;
    let moves = conflux_repro::pebbling::greedy_schedule(&g, m);
    let stats = execute(&g, &moves, m).unwrap();
    assert!(stats.loads >= 2 * stats.computes);
}

#[test]
fn fig4_block_dependencies() {
    // Figure 4: A00 (step-0 pivot work) must be pebbled before anything in
    // A11's later steps — check via the topological structure: every
    // S2-step-1 vertex transitively depends on some S1-step-0 vertex.
    let n = 4;
    let (g, groups) = lu_cdag(n);
    let order = g.topological_order();
    let pos = |v: u32| order.iter().position(|&x| x == v).unwrap();
    let first_s1 = groups.s1[0][0];
    for &v in &groups.s2[1] {
        assert!(
            pos(v) > pos(first_s1),
            "step-1 trailing work cannot precede step-0 column work"
        );
    }
    // and within a step, S2 vertices depend on that step's S1 vertex of
    // their row
    let l10 = groups.s1[0][0]; // L(1,0)
    let a11 = g.find("A(1,1)#1").unwrap();
    assert!(g.preds(a11).contains(&l10));
}

#[test]
fn section6_parallel_lu_lower_bound() {
    // the headline formula at paper scale
    let (n, m, p) = (16384.0, 1_048_576.0, 1024);
    let b = iobound::lu_bound(n, m);
    let per_rank = b.parallel(p);
    let leading = 2.0 * n * n * n / (3.0 * p as f64 * m.sqrt());
    assert!(per_rank >= leading);
    assert!(
        per_rank <= 1.2 * leading + n * n / p as f64,
        "lower-order term too large"
    );
    // rho values from Section 6
    assert_eq!(iobound::statement_rho(&shapes::lu_s1(), m, 1), 1.0);
    let rho2 = iobound::minimize_rho(&shapes::lu_s2(), m).unwrap().rho;
    assert!((rho2 - m.sqrt() / 2.0).abs() < 0.01 * m.sqrt());
}

#[test]
fn parallel_game_beats_sequential_per_processor() {
    // Lemma 9 sanity on an embarrassingly parallel graph: per-processor
    // I/O divides by P
    let n = 16;
    let g = fig2b_cdag(n);
    let seq_moves = conflux_repro::pebbling::greedy_schedule(&g, 8);
    let seq = execute(&g, &seq_moves, 8).unwrap();
    // owner-computes keeps everything resident, so give each of the 4
    // processors enough red pebbles for its 4 vertices' working sets
    let par_moves = owner_computes_schedule(&g, 4, |v| (v as usize) % 4);
    let par = execute_parallel(&g, &par_moves, 4, 16).unwrap();
    assert!(par.q_max() <= seq.q());
    assert!(
        par.q_max() as f64 >= seq.q() as f64 / 4.0 * 0.5,
        "suspiciously low parallel I/O"
    );
}

#[test]
fn greedy_partitions_validate_on_paper_graphs() {
    for x in [6, 10, 16] {
        let (g, _) = lu_cdag(5);
        greedy_partition(&g, x).validate(&g, x).unwrap();
        let g2 = mmm_cdag(3);
        greedy_partition(&g2, x).validate(&g2, x).unwrap();
    }
}

#[test]
fn dominator_of_statement_outputs_is_bounded_by_inputs() {
    // Section 3.1's "dominator set" claim: statement outputs are dominated
    // by (at most) the statement inputs
    let g = mmm_cdag(3);
    let outputs = g.outputs();
    let dom = min_dominator_size(&g, &outputs);
    assert!(dom <= g.inputs().len());
}
