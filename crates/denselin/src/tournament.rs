//! Tournament pivoting (communication-avoiding pivot selection).
//!
//! Given a tall `m x v` panel, tournament pivoting (Grigori, Demmel, Xiang,
//! SC'08) selects `v` pivot rows with a reduction tree instead of the `v`
//! sequential column reductions partial pivoting needs:
//!
//! 1. the panel rows are split into groups; each group runs a local
//!    partial-pivoting LU and nominates its first `v` pivot rows as
//!    *candidates*;
//! 2. candidate sets "play off" pairwise — stack two candidate `v x v`-row
//!    sets, factor the `2v x v` stack with partial pivoting, keep the `v`
//!    winners — up a binary tree until one set remains.
//!
//! The winner set is the global pivot choice; the paper's COnfLUX performs
//! exactly this playoff across `√P1` simulated ranks with a butterfly
//! pattern, so this module exposes both the one-shot serial reference
//! ([`select_pivots_reference`]) and the building blocks the distributed
//! code drives step by step ([`local_candidates`], [`playoff_round`]).

use crate::lu::SingularMatrix;
use crate::matrix::Matrix;
use crate::panel::{factor_in_place, PivotMode};

/// Outcome of pivot selection on a panel.
#[derive(Clone, Debug)]
pub struct PivotSelection {
    /// Indices (into the panel's rows) of the `v` chosen pivot rows, in
    /// elimination order.
    pub pivot_rows: Vec<usize>,
    /// LU factorization (no further pivoting needed) of the chosen rows —
    /// the `A00` block of COnfLUX, packed `L\U`.
    pub a00: Matrix,
}

/// A candidate set flowing up the tournament tree: `v` rows of the panel
/// plus their original panel-row indices.
#[derive(Clone, Debug)]
pub struct Candidates {
    /// Original panel-row index of each candidate row.
    pub rows: Vec<usize>,
    /// The candidate rows themselves (`rows.len() x v`).
    pub values: Matrix,
}

/// Reference pivot selection: run partial-pivoting LU on the whole panel and
/// take the first `min(v, m)` pivot rows. This is what a non-communication-
/// avoiding library would do, and it is the stability yardstick. Fails as
/// [`factor_chosen`] does when the chosen rows are singular.
pub fn select_pivots_reference(panel: &Matrix, v: usize) -> Result<PivotSelection, SingularMatrix> {
    let v = v.min(panel.rows());
    let pivot_rows: Vec<usize> = pivot_order(panel)[..v].to_vec();
    let chosen = panel.gather_rows(&pivot_rows);
    let a00 = factor_chosen(&chosen)?;
    Ok(PivotSelection { pivot_rows, a00 })
}

/// Partial-pivoting row order of `panel`, tolerating rank deficiency: a
/// column with no nonzero pivot left is skipped (no swap, no elimination)
/// instead of aborting, so exactly-singular panels — duplicate candidate
/// rows in a playoff stack, rank-deficient inputs — still yield a
/// deterministic ordering that places every independent row before the
/// rows it spans. Runs the [`crate::panel`] kernel in
/// [`PivotMode::SkipZero`].
pub fn pivot_order(panel: &Matrix) -> Vec<usize> {
    let mut lu = panel.clone();
    factor_in_place(&mut lu, PivotMode::SkipZero).expect("a skipping factorization never fails")
}

/// Local stage of the tournament: nominate up to `v` candidate rows from
/// `panel` (whose rows carry original indices `row_ids`).
pub fn local_candidates(panel: &Matrix, row_ids: &[usize], v: usize) -> Candidates {
    assert_eq!(panel.rows(), row_ids.len());
    let v = v.min(panel.rows());
    if panel.rows() == 0 || v == 0 {
        return Candidates {
            rows: vec![],
            values: Matrix::zeros(0, panel.cols()),
        };
    }
    let order = pivot_order(panel);
    let rows: Vec<usize> = order[..v].iter().map(|&i| row_ids[i]).collect();
    let values = panel.gather_rows(&order[..v]);
    Candidates { rows, values }
}

/// One playoff: merge two candidate sets, keep the `v` winners.
pub fn playoff_round(a: &Candidates, b: &Candidates, v: usize) -> Candidates {
    let total = a.rows.len() + b.rows.len();
    let mut stacked = Matrix::zeros(total, a.values.cols().max(b.values.cols()));
    let mut ids = Vec::with_capacity(total);
    for (i, &r) in a.rows.iter().enumerate() {
        stacked.row_mut(i).copy_from_slice(a.values.row(i));
        ids.push(r);
    }
    for (i, &r) in b.rows.iter().enumerate() {
        stacked
            .row_mut(a.rows.len() + i)
            .copy_from_slice(b.values.row(i));
        ids.push(r);
    }
    local_candidates(&stacked, &ids, v.min(total))
}

/// Full tournament over `parts` row groups (serial driver used for testing
/// and by the single-rank fallback paths). Fails as [`factor_chosen`] does
/// when the winning rows are singular.
pub fn tournament_pivots(
    panel: &Matrix,
    v: usize,
    parts: usize,
) -> Result<PivotSelection, SingularMatrix> {
    let m = panel.rows();
    assert!(parts >= 1);
    let group = m.div_ceil(parts.max(1)).max(1);
    let mut sets: Vec<Candidates> = Vec::new();
    let mut r0 = 0;
    while r0 < m {
        let rows = group.min(m - r0);
        let ids: Vec<usize> = (r0..r0 + rows).collect();
        sets.push(local_candidates(
            &panel.block(r0, 0, rows, panel.cols()),
            &ids,
            v,
        ));
        r0 += rows;
    }
    while sets.len() > 1 {
        let mut next = Vec::with_capacity(sets.len().div_ceil(2));
        let mut it = sets.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => next.push(playoff_round(&a, &b, v)),
                None => next.push(a),
            }
        }
        sets = next;
    }
    let winner = sets.pop().expect("panel must be non-empty");
    let chosen = panel.gather_rows(&winner.rows);
    let a00 = factor_chosen(&chosen)?;
    Ok(PivotSelection {
        pivot_rows: winner.rows,
        a00,
    })
}

/// Factor the selected `v x v` pivot block *without* further row exchanges
/// (the tournament already ordered the rows); returns packed `L\U`, or the
/// column at which the chosen rows turned out singular.
pub fn factor_chosen(chosen: &Matrix) -> Result<Matrix, SingularMatrix> {
    let mut lu = chosen.clone();
    let perm = factor_in_place(&mut lu, PivotMode::Partial)?;
    // The tournament picks rows so that no further swapping is *needed* for
    // stability, but partial pivoting may still reorder; undo by
    // refactoring without pivoting to keep row identities stable.
    if perm.iter().enumerate().all(|(i, &p)| i == p) {
        return Ok(lu);
    }
    lu_no_pivot(chosen)
}

/// LU without pivoting (used on tournament-selected blocks, whose pivots
/// lie on the diagonal path); returns packed `L\U`, or the first column
/// whose diagonal pivot is zero.
pub fn lu_no_pivot(a: &Matrix) -> Result<Matrix, SingularMatrix> {
    let mut lu = a.clone();
    factor_in_place(&mut lu, PivotMode::NoPivot)?;
    Ok(lu)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::lu_unblocked;
    use crate::SplitMix64;

    fn growth_of_selection(panel: &Matrix, sel: &PivotSelection) -> f64 {
        sel.a00.upper().max_norm() / panel.max_norm()
    }

    #[test]
    fn reference_selection_matches_partial_pivoting_rows() {
        let mut rng = SplitMix64::new(40);
        let panel = Matrix::random(&mut rng, 20, 4);
        let sel = select_pivots_reference(&panel, 4).unwrap();
        assert_eq!(sel.pivot_rows.len(), 4);
        // all pivot rows distinct and in range
        let mut sorted = sel.pivot_rows.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
        assert!(sorted.iter().all(|&r| r < 20));
    }

    #[test]
    fn tournament_selects_distinct_valid_rows() {
        let mut rng = SplitMix64::new(41);
        for parts in [1, 2, 3, 4, 8] {
            let panel = Matrix::random(&mut rng, 64, 8);
            let sel = tournament_pivots(&panel, 8, parts).unwrap();
            assert_eq!(sel.pivot_rows.len(), 8, "parts={parts}");
            let mut sorted = sel.pivot_rows.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 8, "parts={parts}");
        }
    }

    #[test]
    fn a00_factors_the_chosen_rows() {
        let mut rng = SplitMix64::new(42);
        let panel = Matrix::random(&mut rng, 32, 6);
        let sel = tournament_pivots(&panel, 6, 4).unwrap();
        let chosen = panel.gather_rows(&sel.pivot_rows);
        let recon = sel.a00.unit_lower().matmul(&sel.a00.upper());
        assert!(
            recon.allclose(&chosen, 1e-10),
            "L*U must reconstruct the selected pivot rows"
        );
    }

    #[test]
    fn tournament_growth_comparable_to_partial_pivoting() {
        // Grigori et al. prove tournament pivoting is stable "as partial
        // pivoting" up to a modest factor; check on random panels.
        let mut rng = SplitMix64::new(43);
        let mut worst_ratio: f64 = 0.0;
        for _ in 0..20 {
            let panel = Matrix::random(&mut rng, 48, 6);
            let t = tournament_pivots(&panel, 6, 4).unwrap();
            let r = select_pivots_reference(&panel, 6).unwrap();
            let ratio = growth_of_selection(&panel, &t) / growth_of_selection(&panel, &r);
            worst_ratio = worst_ratio.max(ratio);
        }
        assert!(
            worst_ratio < 16.0,
            "tournament growth blew up: {worst_ratio}"
        );
    }

    #[test]
    fn single_part_tournament_equals_reference() {
        let mut rng = SplitMix64::new(44);
        let panel = Matrix::random(&mut rng, 24, 5);
        let t = tournament_pivots(&panel, 5, 1).unwrap();
        let r = select_pivots_reference(&panel, 5).unwrap();
        assert_eq!(t.pivot_rows, r.pivot_rows);
    }

    #[test]
    fn playoff_keeps_strongest_rows() {
        // A candidate set with a huge row must survive the playoff.
        let mut rng = SplitMix64::new(45);
        let mut panel = Matrix::random(&mut rng, 16, 2);
        panel[(11, 0)] = 1000.0;
        panel[(11, 1)] = -999.0;
        let sel = tournament_pivots(&panel, 2, 4).unwrap();
        assert!(
            sel.pivot_rows.contains(&11),
            "dominant row must win the tournament"
        );
    }

    #[test]
    fn panel_shorter_than_v() {
        let mut rng = SplitMix64::new(46);
        let panel = Matrix::random(&mut rng, 3, 8);
        let sel = tournament_pivots(&panel, 8, 2).unwrap();
        assert_eq!(sel.pivot_rows.len(), 3);
    }

    #[test]
    fn pivot_order_matches_lu_on_full_rank_panels() {
        let mut rng = SplitMix64::new(48);
        for _ in 0..5 {
            let panel = Matrix::random(&mut rng, 16, 4);
            let f = lu_unblocked(&panel).unwrap();
            assert_eq!(pivot_order(&panel), f.perm);
        }
    }

    #[test]
    fn tournament_survives_exactly_singular_stacks() {
        // Wilkinson-shaped panel: rows beyond the panel width are exact
        // duplicates, so playoff stacks are exactly singular. Surfaced by
        // verify-fuzz (corpus: kernel=lu ... class=wilkinson); the
        // tournament used to panic in `local_candidates`.
        let v = 2;
        let panel = Matrix::from_fn(12, v, |i, j| {
            if i == j {
                1.0
            } else if i > j {
                -1.0
            } else {
                0.0
            }
        });
        for parts in [1, 2, 3, 4] {
            let sel = tournament_pivots(&panel, v, parts).unwrap();
            assert_eq!(sel.pivot_rows.len(), v, "parts={parts}");
            // the selected rows must be independent (rows 0 and 1 are the
            // only independent pair up to duplicates)
            let chosen = panel.gather_rows(&sel.pivot_rows);
            let f = lu_unblocked(&chosen);
            assert!(f.is_ok(), "parts={parts}: singular pivot block chosen");
        }
    }

    #[test]
    fn lu_no_pivot_reconstructs() {
        let mut rng = SplitMix64::new(47);
        let a = Matrix::random_diagonally_dominant(&mut rng, 12);
        let lu = lu_no_pivot(&a).unwrap();
        let recon = lu.unit_lower().matmul(&lu.upper());
        assert!(recon.allclose(&a, 1e-9));
    }

    #[test]
    fn singular_blocks_are_typed_errors() {
        // a zero second pivot: no-pivot LU and the chosen-block factor
        // name column 1 instead of panicking
        let a = Matrix::from_fn(3, 3, |i, j| if i == 0 || j == 2 { 1.0 } else { 0.0 });
        assert_eq!(lu_no_pivot(&a).unwrap_err(), SingularMatrix { column: 1 });
        assert_eq!(factor_chosen(&a).unwrap_err(), SingularMatrix { column: 1 });
        // two identical rows: every selection of two rows is singular
        let panel = Matrix::from_fn(2, 2, |_, j| 1.0 + j as f64);
        assert_eq!(
            tournament_pivots(&panel, 2, 1).unwrap_err(),
            SingularMatrix { column: 1 }
        );
        assert!(select_pivots_reference(&panel, 2).is_err());
    }
}
