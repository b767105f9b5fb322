//! CANDMC-style 2.5D communication-avoiding LU (Solomonik & Demmel).
//!
//! Same 2.5D skeleton as COnfLUX — `[q, q, c]` grid, layered Schur
//! accumulation, tournament pivoting — but with the costs the paper
//! attributes to CANDMC's published algorithm:
//!
//! 1. **physical row swapping** on `c`-fold replicated data (the cost the
//!    paper's row-masking avoids),
//! 2. **TSLU across all layers**: the pivot panel is gathered redundantly
//!    on every layer before the tournament,
//! 3. **panel broadcasts to two layers** (the current update layer and the
//!    pipelined look-ahead layer) through block broadcasts instead of
//!    COnfLUX's 1D redistribution + single-layer sends.
//!
//! This reproduces the paper's *measured* CANDMC band (~2-3x COnfLUX at the
//! `c = P^(1/3)` replication of the experiments) while keeping the
//! asymptotically optimal `O(N³/(P√M))` scaling and CANDMC's flat weak
//! scaling. The *model* used in Table 2 is the authors' published
//! `5N³/(P√M)`, exactly as in the paper (whose own measured/model gap for
//! CANDMC was ~2x).

use denselin::matrix::Matrix;
use denselin::tournament::tournament_pivots;
use denselin::trsm::{trsm_lower_left, trsm_upper_right};
use simnet::network::Network;
use simnet::stats::CommStats;

use conflux::grid::LuGrid;
use conflux::tiles::Mode;
use conflux::{LuCause, LuError};

/// Configuration of a CANDMC-like run.
#[derive(Clone, Debug)]
pub struct CandmcConfig {
    /// Matrix order (must be divisible by `v`).
    pub n: usize,
    /// Panel width.
    pub v: usize,
    /// The 2.5D grid.
    pub grid: LuGrid,
    /// Dense or Phantom.
    pub mode: Mode,
    /// Seed (Phantom pivot synthesis).
    pub seed: u64,
    /// Record a virtual-time event timeline ([`CandmcRun::timeline`]).
    pub timeline: bool,
}

impl CandmcConfig {
    /// Phantom volume-measurement configuration.
    pub fn phantom(n: usize, v: usize, grid: LuGrid) -> Self {
        Self {
            n,
            v,
            grid,
            mode: Mode::Phantom,
            seed: 0xca4d,
            timeline: false,
        }
    }

    /// Dense configuration.
    pub fn dense(n: usize, v: usize, grid: LuGrid) -> Self {
        Self {
            n,
            v,
            grid,
            mode: Mode::Dense,
            seed: 0xca4d,
            timeline: false,
        }
    }

    /// Record a virtual-time event timeline (builder style).
    pub fn with_timeline(mut self) -> Self {
        self.timeline = true;
        self
    }
}

/// Result of a CANDMC-like run.
pub struct CandmcRun {
    /// Communication record.
    pub stats: CommStats,
    /// Factors in packed form with the row permutation (Dense mode).
    pub factors: Option<denselin::lu::LuFactorization>,
    /// Event timeline (only when `config.timeline` was set).
    pub timeline: Option<simnet::trace::Trace>,
}

/// Run the CANDMC-like 2.5D LU. A singular pivot block (no nonzero pivot
/// among the tournament's chosen rows) returns [`LuCause::Singular`] with
/// the statistics up to that step.
pub fn factorize_candmc(cfg: &CandmcConfig, a: Option<&Matrix>) -> Result<CandmcRun, LuError> {
    let (n, v) = (cfg.n, cfg.v);
    assert!(n % v == 0, "v must divide n");
    let (q, c) = (cfg.grid.q, cfg.grid.c);
    let topo = cfg.grid.topology();
    let p = topo.ranks();
    let nb = n / v;
    let mut net = Network::new(p);
    if cfg.timeline {
        net.enable_timeline();
    }

    let mut lu = a.cloned();
    if cfg.mode == Mode::Dense {
        assert!(lu.is_some(), "Dense mode requires the input matrix");
    }
    let mut perm: Vec<usize> = (0..n).collect();
    let mut sign = 1.0;

    let owner_brow = |g: usize| (g / v) % q; // grid row of a global row

    for t in 0..nb {
        let kb = t * v;
        let _kt = t % c;
        let rem = n - kb;
        let trailing = rem - v;
        let col_j = t % q;

        // ---- TSLU: gather the panel redundantly on every layer ----
        // each block-row share (rem/q rows x v) is replicated to the other
        // c-1 layers of its fiber before the tournament
        for i in 0..q {
            let fiber = topo.layer_fiber(i, col_j);
            let share = ((rem / q) * v) as u64;
            net.broadcast(&fiber, share, "tslu:panel-replicate");
        }
        // tournament across all q*c column ranks (all layers participate)
        let mut group = Vec::with_capacity(q * c);
        for k in 0..c {
            group.extend(topo.column_group(col_j, k));
        }
        net.butterfly(&group, (v * (v + 1)) as u64, "tslu:tournament");

        // ---- pivoting numerics + physical row swaps ----
        let singular = |e: denselin::SingularMatrix, net: &Network| LuError {
            error: LuCause::Singular {
                column: kb + e.column,
            },
            step: Some(t),
            stats: net.stats.clone(),
            retries: 0,
        };
        let pivots: Vec<usize> = if let Some(m) = lu.as_mut() {
            let panel = m.block(kb, kb, rem, v);
            let sel = tournament_pivots(&panel, v, q * c).map_err(|e| singular(e, &net))?;
            sel.pivot_rows.iter().map(|&r| kb + r).collect()
        } else {
            let mut state = cfg.seed ^ (t as u64).wrapping_mul(0x9e3779b97f4a7c15);
            (0..v)
                .map(|i| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    kb + i + (state >> 33) as usize % (rem - i)
                })
                .collect()
        };
        // swap pivots into the top-of-panel positions on EVERY layer; data
        // is replicated, so every copy moves (the Section 7.3 cost).
        // Earlier swaps can displace a later pivot row: rename it to the
        // slot its contents moved to.
        let mut pivots = pivots;
        for i in 0..pivots.len() {
            let piv = pivots[i];
            let target = kb + i;
            for later in pivots.iter_mut().skip(i + 1) {
                if *later == target {
                    *later = piv;
                }
            }
            if let Some(m) = lu.as_mut() {
                m.swap_rows(piv, target);
                perm.swap(piv, target);
                if piv != target {
                    sign = -sign;
                }
            }
            if owner_brow(piv) != owner_brow(target) {
                // the two full rows (width rem) are exchanged between their
                // owner rows in every grid column and on every layer
                let per_col = (rem / q).max(1) as u64;
                for j in 0..q {
                    for k in 0..c {
                        let s = topo.rank_of(owner_brow(piv), j, k);
                        let d = topo.rank_of(owner_brow(target), j, k);
                        net.send(s, d, per_col, "swap");
                        net.send(d, s, per_col, "swap");
                    }
                }
            }
        }

        // ---- broadcast A00 to the column/row groups ----
        net.broadcast(&topo.all_ranks(), (v * v) as u64, "a00-bcast");

        // ---- factor the diagonal block (numerics on the global view) ----
        if let Some(m) = lu.as_mut() {
            let panel = m.block(kb, kb, v, v);
            let pf = denselin::tournament::lu_no_pivot(&panel).map_err(|e| singular(e, &net))?;
            m.set_block(kb, kb, &pf);
        }

        if trailing > 0 {
            if let Some(m) = lu.as_mut() {
                let pf = m.block(kb, kb, v, v);
                // L10 = A10 U00^{-1}
                let mut a10 = m.block(kb + v, kb, trailing, v);
                trsm_upper_right(&mut a10, &pf, false);
                m.set_block(kb + v, kb, &a10);
                // U01 = L00^{-1} A01
                let mut a01 = m.block(kb, kb + v, v, trailing);
                trsm_lower_left(&pf, &mut a01, true);
                m.set_block(kb, kb + v, &a01);
                // Schur update
                let mut a11 = m.block(kb + v, kb + v, trailing, trailing);
                denselin::gemm::gemm_auto(&mut a11, -1.0, &a10, &a01, 1.0);
                m.set_block(kb + v, kb + v, &a11);
            }

            // ---- panel broadcasts: L along rows, U along columns, on the
            // current update layer AND the look-ahead layer of the
            // pipelined schedule — twice COnfLUX's amortized single-layer
            // sends ----
            let layers: Vec<usize> = if c > 1 {
                vec![_kt, (t + 1) % c]
            } else {
                vec![0]
            };
            for &k in &layers {
                for i in 0..q {
                    let share = ((trailing / q) * v) as u64;
                    let group = topo.row_group(i, k);
                    net.broadcast_from(topo.rank_of(i, col_j, k), &group, share, "l-panel-bcast");
                }
                for j in 0..q {
                    let share = ((trailing / q) * v) as u64;
                    let group = topo.column_group(j, k);
                    net.broadcast_from(topo.rank_of(t % q, j, k), &group, share, "u-panel-bcast");
                }
            }

            // analytic compute charge: 2·trailing²·v Schur GEMM flops over p
            net.compute_all(
                2.0 * (trailing * trailing) as f64 * v as f64 / p as f64,
                "update",
                "gemm",
            );

            // ---- layered Schur accumulation: reduce the next panel
            // column (and pivot row candidates) across layers ----
            if c > 1 {
                for i in 0..q {
                    let fiber = topo.layer_fiber(i, (t + 1) % q);
                    net.reduce(&fiber, ((trailing / q) * v) as u64, "reduce-next-column");
                }
            }
        }
    }

    let factors = lu.map(|m| denselin::lu::LuFactorization { lu: m, perm, sign });
    let timeline = net.take_timeline();
    Ok(CandmcRun {
        stats: net.stats,
        factors,
        timeline,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use denselin::SplitMix64;

    #[test]
    fn dense_candmc_correct() {
        let mut rng = SplitMix64::new(21);
        for (n, v, q, c) in [(32, 4, 2, 1), (48, 8, 2, 2), (64, 8, 2, 2)] {
            let a = Matrix::random(&mut rng, n, n);
            let grid = LuGrid::new(q * q * c, q, c);
            let cfg = CandmcConfig::dense(n, v, grid);
            let run = factorize_candmc(&cfg, Some(&a)).unwrap();
            let f = run.factors.unwrap();
            assert!(
                f.residual(&a) < 1e-9,
                "n={n} v={v} q={q} c={c} res={}",
                f.residual(&a)
            );
        }
    }

    #[test]
    fn singular_pivot_block_is_a_typed_error() {
        let mut rng = SplitMix64::new(7);
        let mut a = Matrix::random(&mut rng, 16, 16);
        for i in 0..16 {
            a[(i, 1)] = 0.0;
        }
        let cfg = CandmcConfig::dense(16, 4, LuGrid::new(4, 2, 1));
        let err = factorize_candmc(&cfg, Some(&a)).map(|_| ()).unwrap_err();
        assert_eq!(err.error, LuCause::Singular { column: 1 });
        assert_eq!(err.step, Some(0));
    }

    #[test]
    fn phantom_counts() {
        let grid = LuGrid::new(8, 2, 2);
        let cfg = CandmcConfig::phantom(128, 8, grid);
        let run = factorize_candmc(&cfg, None).unwrap();
        assert!(run.stats.total_sent() > 0);
        assert!(run.stats.phases().contains(&"swap"));
        assert!(run.stats.phases().contains(&"l-panel-bcast"));
    }

    #[test]
    fn candmc_communicates_more_than_conflux() {
        // The paper measures CANDMC at ~2.3x COnfLUX for Table 2's P=64
        // configurations (2.5/1.11 GB); check the same regime qualitatively.
        let n = 1024;
        let v = 32;
        let grid = LuGrid::new(64, 4, 4);
        let candmc = factorize_candmc(&CandmcConfig::phantom(n, v, grid), None).unwrap();
        let cflux = conflux::factorize(&conflux::ConfluxConfig::phantom(n, v, grid), None);
        let ratio = candmc.stats.total_sent() as f64 / cflux.stats.total_sent() as f64;
        assert!(
            ratio > 1.5,
            "CANDMC-like should cost much more than COnfLUX: ratio {ratio}"
        );
        assert!(
            ratio < 8.0,
            "CANDMC-like suspiciously expensive: ratio {ratio}"
        );
    }

    #[test]
    fn swap_volume_grows_with_replication() {
        let n = 256;
        let v = 8;
        let c1 =
            factorize_candmc(&CandmcConfig::phantom(n, v, LuGrid::new(4, 2, 1)), None).unwrap();
        let c4 =
            factorize_candmc(&CandmcConfig::phantom(n, v, LuGrid::new(16, 2, 4)), None).unwrap();
        assert!(c4.stats.sent_in_phase("swap") > c1.stats.sent_in_phase("swap"));
    }
}
