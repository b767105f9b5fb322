//! The 2.5D replicated block-cyclic store backing COnfLUX.
//!
//! The matrix is tiled into `v x v` blocks; block `(br, bc)` of every layer
//! `k` lives on rank `(br mod q, bc mod q, k)`. Layer 0 additionally holds
//! the *base values*; every layer (including 0) holds a *delta* accumulator
//! into which its share of Schur updates is summed. The true current value
//! of an element is `base − Σ_k delta_k`; reductions over the layer fiber
//! fold deltas into the base before a block column or pivot row is consumed
//! (steps 1 and 5 of Algorithm 1).

use denselin::gemm::{gemm_with, GemmConfig};
use denselin::matrix::Matrix;
use simnet::stats::Rank;
use simnet::topology::Grid3D;

use crate::tiles::{Mode, Tile};

/// Replicated block-cyclic storage for an `n x n` matrix.
pub struct BlockStore {
    /// Matrix order.
    pub n: usize,
    /// Block (tile) size.
    pub v: usize,
    /// Number of block rows/cols (`n / v`).
    pub nb: usize,
    /// 2D grid side.
    pub q: usize,
    /// Replication depth.
    pub c: usize,
    /// Execution mode.
    pub mode: Mode,
    topo: Grid3D,
    /// Base values (conceptually on layer 0), `nb*nb` tiles row-major.
    base: Vec<Tile>,
    /// Per-layer delta accumulators, each `nb*nb` tiles row-major.
    deltas: Vec<Vec<Tile>>,
}

impl BlockStore {
    /// Build the store from an optional dense matrix (`None` for Phantom).
    ///
    /// # Panics
    /// Panics unless `v` divides `n`, and in Dense mode unless the matrix
    /// is `n x n`.
    pub fn new(n: usize, v: usize, q: usize, c: usize, mode: Mode, a: Option<&Matrix>) -> Self {
        assert!(v >= 1 && n.is_multiple_of(v), "block size v must divide n");
        let nb = n / v;
        let mut base = Vec::with_capacity(nb * nb);
        for br in 0..nb {
            for bc in 0..nb {
                let tile = match (mode, a) {
                    (Mode::Dense, Some(m)) => {
                        assert_eq!(m.shape(), (n, n), "input matrix must be n x n");
                        Tile::from_matrix(m.block(br * v, bc * v, v, v))
                    }
                    (Mode::Dense, None) => panic!("Dense mode requires an input matrix"),
                    (Mode::Phantom, _) => Tile::zeros(Mode::Phantom, v, v),
                };
                base.push(tile);
            }
        }
        let deltas = (0..c)
            .map(|_| {
                (0..nb * nb)
                    .map(|_| Tile::zeros(mode, v, v))
                    .collect::<Vec<_>>()
            })
            .collect();
        Self {
            n,
            v,
            nb,
            q,
            c,
            mode,
            topo: Grid3D::new(q, q, c),
            base,
            deltas,
        }
    }

    /// Elements of matrix storage resident on `rank`: its delta tiles,
    /// plus the base tiles if it is a layer-0 owner. This is what the `M`
    /// memory constraint must cover (panels add `O(n·v/P)` on top).
    pub fn local_elems(&self, rank: simnet::stats::Rank) -> usize {
        let mut total = 0;
        for br in 0..self.nb {
            for bc in 0..self.nb {
                for k in 0..self.c {
                    if self.owner(br, bc, k) == rank {
                        total += self.v * self.v; // delta tile
                        if k == 0 {
                            total += self.v * self.v; // base tile
                        }
                    }
                }
            }
        }
        total
    }

    /// Rank owning block `(br, bc)` on layer `k`.
    pub fn owner(&self, br: usize, bc: usize, k: usize) -> Rank {
        self.topo.rank_of(br % self.q, bc % self.q, k)
    }

    /// The layer fiber (ranks over all layers) of block `(br, bc)`.
    pub fn fiber(&self, br: usize, bc: usize) -> Vec<Rank> {
        self.topo.layer_fiber(br % self.q, bc % self.q)
    }

    /// The grid topology.
    pub fn topology(&self) -> &Grid3D {
        &self.topo
    }

    /// Immutable base tile.
    pub fn base(&self, br: usize, bc: usize) -> &Tile {
        &self.base[br * self.nb + bc]
    }

    /// Mutable delta tile of layer `k`.
    pub fn delta_mut(&mut self, k: usize, br: usize, bc: usize) -> &mut Tile {
        &mut self.deltas[k][br * self.nb + bc]
    }

    /// Fold all layers' deltas into the base for the given rows of block
    /// `(br, bc)` and zero them. `rows` are global row indices inside block
    /// row `br`. Only does arithmetic in Dense mode; the *communication* of
    /// the fold is counted by the caller.
    pub fn fold_deltas(&mut self, br: usize, bc: usize, rows: &[usize]) {
        if self.mode == Mode::Phantom {
            return;
        }
        let v = self.v;
        let nb = self.nb;
        for k in 0..self.c {
            let idx = br * nb + bc;
            // split borrows: deltas[k][idx] vs base[idx]
            let delta = &mut self.deltas[k][idx];
            let base = &mut self.base[idx];
            let (bm, dm) = (base.dense_mut(), delta.dense_mut());
            for &r in rows {
                debug_assert_eq!(r / v, br);
                let lr = r % v;
                for col in 0..v {
                    bm[(lr, col)] -= dm[(lr, col)];
                    dm[(lr, col)] = 0.0;
                }
            }
        }
    }

    /// Read the current (already-folded) values of the given global rows in
    /// block column `bc` into a dense panel, one row per entry of `rows`.
    ///
    /// # Panics
    /// Panics in Phantom mode.
    pub fn read_rows(&self, bc: usize, rows: &[usize]) -> Matrix {
        assert_eq!(self.mode, Mode::Dense, "read_rows needs dense data");
        let v = self.v;
        let mut out = Matrix::zeros(rows.len(), v);
        for (i, &r) in rows.iter().enumerate() {
            let tile = self.base(r / v, bc).dense();
            out.row_mut(i).copy_from_slice(tile.row(r % v));
        }
        out
    }

    /// Read current values of the given global rows across block columns
    /// `bc_from..nb` (the trailing row panel used for `A01`).
    pub fn read_row_panel(&self, rows: &[usize], bc_from: usize) -> Matrix {
        assert_eq!(self.mode, Mode::Dense, "read_row_panel needs dense data");
        let v = self.v;
        let width = (self.nb - bc_from) * v;
        let mut out = Matrix::zeros(rows.len(), width);
        for (i, &r) in rows.iter().enumerate() {
            for bc in bc_from..self.nb {
                let tile = self.base(r / v, bc).dense();
                let dst = &mut out.row_mut(i)[(bc - bc_from) * v..(bc - bc_from + 1) * v];
                dst.copy_from_slice(tile.row(r % v));
            }
        }
        out
    }

    /// Accumulate the Schur product `l_rows * u_panel` into layer `k`'s
    /// deltas. `rows` are the global row ids matching the rows of `l_rows`
    /// (all in one block row `br`); `u_panel` spans block columns
    /// `bc_from..nb`.
    pub fn accumulate_update(
        &mut self,
        k: usize,
        br: usize,
        rows: &[usize],
        l_rows: &Matrix,
        u_panel: &Matrix,
        bc_from: usize,
    ) {
        if self.mode == Mode::Phantom {
            return;
        }
        let v = self.v;
        debug_assert_eq!(l_rows.rows(), rows.len());
        debug_assert_eq!(l_rows.cols(), u_panel.rows());
        debug_assert_eq!(u_panel.cols() % v, 0, "panel width must be whole blocks");
        let mut prod = Matrix::zeros(l_rows.rows(), u_panel.cols());
        let serial = GemmConfig::serial();
        gemm_with(&mut prod, (0, 0), 1.0, l_rows, u_panel, 0.0, &serial);
        let nb = self.nb;
        let bc_end = (bc_from + u_panel.cols() / v).min(nb);
        for bc in bc_from..bc_end {
            let delta = self.deltas[k][br * nb + bc].dense_mut();
            for (i, &r) in rows.iter().enumerate() {
                let lr = r % v;
                let src = &prod.row(i)[(bc - bc_from) * v..(bc - bc_from + 1) * v];
                let dst_row = delta.row_mut(lr);
                for (d, s) in dst_row.iter_mut().zip(src) {
                    *d += s;
                }
            }
        }
    }
}

/// Group sorted global row indices by block row: returns `(br, rows)` pairs
/// in ascending `br` order.
pub fn rows_by_block(rows: &[usize], v: usize) -> Vec<(usize, Vec<usize>)> {
    let mut out: Vec<(usize, Vec<usize>)> = Vec::new();
    for &r in rows {
        let br = r / v;
        match out.last_mut() {
            Some((b, list)) if *b == br => list.push(r),
            _ => out.push((br, vec![r])),
        }
    }
    out
}

/// Split the positions `0..len` into `P` contiguous 1D chunks of size
/// `ceil(len/p)`; returns for position `pos` the holder rank index.
pub fn holder_1d(pos: usize, len: usize, p: usize) -> usize {
    debug_assert!(pos < len);
    let chunk = len.div_ceil(p);
    pos / chunk
}

#[cfg(test)]
mod tests {
    use super::*;
    use denselin::SplitMix64;

    #[test]
    fn ownership_is_block_cyclic() {
        let s = BlockStore::new(8, 2, 2, 2, Mode::Phantom, None);
        assert_eq!(s.nb, 4);
        let topo = *s.topology();
        assert_eq!(s.owner(0, 0, 0), topo.rank_of(0, 0, 0));
        assert_eq!(s.owner(2, 3, 1), topo.rank_of(0, 1, 1));
        assert_eq!(s.fiber(1, 1).len(), 2);
    }

    #[test]
    fn dense_roundtrip_through_tiles() {
        let mut rng = SplitMix64::new(7);
        let a = Matrix::random(&mut rng, 8, 8);
        let s = BlockStore::new(8, 2, 2, 1, Mode::Dense, Some(&a));
        let rows = vec![0, 3, 5];
        let panel = s.read_rows(1, &rows); // block col 1 = cols 2..4
        assert_eq!(panel[(0, 0)], a[(0, 2)]);
        assert_eq!(panel[(1, 1)], a[(3, 3)]);
        assert_eq!(panel[(2, 0)], a[(5, 2)]);
    }

    #[test]
    fn fold_deltas_applies_and_clears() {
        let a = Matrix::zeros(4, 4);
        let mut s = BlockStore::new(4, 2, 1, 2, Mode::Dense, Some(&a));
        // put an update of 3.0 in layer 1, block (0,0), row 1
        s.delta_mut(1, 0, 0).dense_mut()[(1, 0)] = 3.0;
        s.fold_deltas(0, 0, &[1]);
        assert_eq!(s.base(0, 0).dense()[(1, 0)], -3.0);
        // folding again must be a no-op (delta cleared)
        s.fold_deltas(0, 0, &[1]);
        assert_eq!(s.base(0, 0).dense()[(1, 0)], -3.0);
    }

    #[test]
    fn accumulate_update_places_products() {
        let a = Matrix::zeros(4, 4);
        let mut s = BlockStore::new(4, 2, 1, 1, Mode::Dense, Some(&a));
        // rows 2,3 (block row 1), L = [[1],[2]], U = 1 x 4 panel of ones
        let l = Matrix::from_vec(2, 1, vec![1.0, 2.0]);
        let u = Matrix::from_fn(1, 4, |_, _| 1.0);
        s.accumulate_update(0, 1, &[2, 3], &l, &u, 0);
        s.fold_deltas(1, 0, &[2, 3]);
        s.fold_deltas(1, 1, &[2, 3]);
        assert_eq!(s.base(1, 0).dense()[(0, 0)], -1.0); // row 2
        assert_eq!(s.base(1, 1).dense()[(1, 1)], -2.0); // row 3
    }

    #[test]
    fn read_row_panel_spans_trailing_blocks() {
        let a = Matrix::from_fn(8, 8, |i, j| (i * 8 + j) as f64);
        let s = BlockStore::new(8, 2, 2, 1, Mode::Dense, Some(&a));
        let p = s.read_row_panel(&[1, 6], 2); // cols 4..8
        assert_eq!(p.shape(), (2, 4));
        assert_eq!(p[(0, 0)], a[(1, 4)]);
        assert_eq!(p[(1, 3)], a[(6, 7)]);
    }

    #[test]
    fn local_memory_within_grid_budget() {
        // every rank's resident storage must fit the 2.5D memory model:
        // one replica share (n²/q²), doubled on layer 0 for base + delta
        for (n, v, q, c) in [
            (32usize, 4usize, 2usize, 2usize),
            (64, 8, 2, 4),
            (48, 4, 3, 1),
        ] {
            let s = BlockStore::new(n, v, q, c, Mode::Phantom, None);
            let share = (n * n).div_ceil(q * q);
            let topo = *s.topology();
            for r in 0..topo.ranks() {
                let local = s.local_elems(r);
                assert!(
                    local <= 2 * share,
                    "rank {r} holds {local} > 2x share {share} (n={n} q={q} c={c})"
                );
                assert!(local >= share, "rank {r} holds less than one share");
            }
            // total across ranks = (c + 1) full matrices (c deltas + base)
            let total: usize = (0..topo.ranks()).map(|r| s.local_elems(r)).sum();
            assert_eq!(total, (c + 1) * n * n);
        }
    }

    #[test]
    fn rows_by_block_groups() {
        let groups = rows_by_block(&[0, 1, 2, 5, 8, 9], 3);
        assert_eq!(
            groups,
            vec![(0, vec![0, 1, 2]), (1, vec![5]), (2, vec![8]), (3, vec![9])]
        );
    }

    #[test]
    fn holder_1d_contiguous() {
        // 10 positions over 4 ranks: chunk = 3 -> 0,0,0,1,1,1,2,2,2,3
        let h: Vec<usize> = (0..10).map(|p| holder_1d(p, 10, 4)).collect();
        assert_eq!(h, vec![0, 0, 0, 1, 1, 1, 2, 2, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn bad_block_size_panics() {
        let _ = BlockStore::new(10, 3, 1, 1, Mode::Phantom, None);
    }
}
