//! Block-cyclic distribution arithmetic (the ScaLAPACK data layout).
//!
//! Both the 2D baselines and the 2.5D algorithms distribute matrices
//! block-cyclically; this module centralizes the index gymnastics:
//! global index -> (owner, local index) and back, plus local extent
//! computation (the `numroc` of ScaLAPACK).

/// One-dimensional block-cyclic map of `n` indices in blocks of `nb`
/// over `p` processes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockCyclic1D {
    /// Total number of global indices.
    pub n: usize,
    /// Block size.
    pub nb: usize,
    /// Number of processes.
    pub p: usize,
}

impl BlockCyclic1D {
    /// Create a map; `nb` and `p` must be positive.
    pub fn new(n: usize, nb: usize, p: usize) -> Self {
        assert!(nb > 0, "block size must be positive");
        assert!(p > 0, "process count must be positive");
        Self { n, nb, p }
    }

    /// Owner process of global index `g`.
    #[inline]
    pub fn owner(&self, g: usize) -> usize {
        debug_assert!(g < self.n);
        (g / self.nb) % self.p
    }

    /// Local index of global index `g` on its owner.
    #[inline]
    pub fn local_index(&self, g: usize) -> usize {
        debug_assert!(g < self.n);
        let block = g / self.nb;
        (block / self.p) * self.nb + g % self.nb
    }

    /// Global index corresponding to local index `l` on process `proc`.
    #[inline]
    pub fn global_index(&self, proc: usize, l: usize) -> usize {
        debug_assert!(proc < self.p);
        let local_block = l / self.nb;
        (local_block * self.p + proc) * self.nb + l % self.nb
    }

    /// Number of global indices owned by `proc` (ScaLAPACK `numroc`).
    pub fn local_len(&self, proc: usize) -> usize {
        debug_assert!(proc < self.p);
        let full_blocks = self.n / self.nb;
        let extra = self.n % self.nb;
        let mut len = (full_blocks / self.p) * self.nb;
        let rem_blocks = full_blocks % self.p;
        if proc < rem_blocks {
            len += self.nb;
        } else if proc == rem_blocks {
            len += extra;
        }
        len
    }

    /// Iterator over the global indices owned by `proc`, ascending.
    pub fn owned_indices(&self, proc: usize) -> impl Iterator<Item = usize> + '_ {
        let nb = self.nb;
        let p = self.p;
        let n = self.n;
        (0..)
            .map(move |local_block| (local_block * p + proc) * nb)
            .take_while(move |&start| start < n)
            .flat_map(move |start| start..(start + nb).min(n))
    }
}

/// Two-dimensional block-cyclic map over a `pr x pc` process grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockCyclic2D {
    /// Row map.
    pub rows: BlockCyclic1D,
    /// Column map.
    pub cols: BlockCyclic1D,
}

impl BlockCyclic2D {
    /// Create a 2D map of an `m x n` matrix in `rb x cb` blocks over a
    /// `pr x pc` grid.
    pub fn new(m: usize, n: usize, rb: usize, cb: usize, pr: usize, pc: usize) -> Self {
        Self {
            rows: BlockCyclic1D::new(m, rb, pr),
            cols: BlockCyclic1D::new(n, cb, pc),
        }
    }

    /// Owner grid coordinates of global element `(i, j)`.
    #[inline]
    pub fn owner(&self, i: usize, j: usize) -> (usize, usize) {
        (self.rows.owner(i), self.cols.owner(j))
    }

    /// Local coordinates of `(i, j)` on its owner.
    #[inline]
    pub fn local(&self, i: usize, j: usize) -> (usize, usize) {
        (self.rows.local_index(i), self.cols.local_index(j))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_cycles_over_blocks() {
        let m = BlockCyclic1D::new(10, 2, 3);
        let owners: Vec<usize> = (0..10).map(|g| m.owner(g)).collect();
        assert_eq!(owners, vec![0, 0, 1, 1, 2, 2, 0, 0, 1, 1]);
    }

    #[test]
    fn local_global_roundtrip() {
        for (n, nb, p) in [(10, 2, 3), (17, 3, 4), (1, 1, 1), (100, 7, 5), (64, 64, 2)] {
            let m = BlockCyclic1D::new(n, nb, p);
            for g in 0..n {
                let o = m.owner(g);
                let l = m.local_index(g);
                assert_eq!(m.global_index(o, l), g, "n={n} nb={nb} p={p} g={g}");
            }
        }
    }

    #[test]
    fn local_len_sums_to_n() {
        for (n, nb, p) in [(10, 2, 3), (17, 3, 4), (23, 5, 7), (8, 3, 2), (0, 4, 3)] {
            let m = BlockCyclic1D::new(n, nb, p);
            let total: usize = (0..p).map(|q| m.local_len(q)).sum();
            assert_eq!(total, n, "n={n} nb={nb} p={p}");
        }
    }

    #[test]
    fn local_len_matches_owned_indices() {
        for (n, nb, p) in [(10, 2, 3), (17, 3, 4), (23, 5, 7), (31, 4, 4)] {
            let m = BlockCyclic1D::new(n, nb, p);
            for q in 0..p {
                assert_eq!(m.owned_indices(q).count(), m.local_len(q));
            }
        }
    }

    #[test]
    fn owned_indices_ascending_and_owned() {
        let m = BlockCyclic1D::new(29, 3, 4);
        for q in 0..4 {
            let idx: Vec<usize> = m.owned_indices(q).collect();
            assert!(idx.windows(2).all(|w| w[0] < w[1]));
            assert!(idx.iter().all(|&g| m.owner(g) == q));
        }
    }

    #[test]
    fn grid_2d_consistency() {
        let g = BlockCyclic2D::new(12, 9, 2, 3, 2, 3);
        let (pr, pc) = g.owner(5, 7);
        assert_eq!(pr, (5 / 2) % 2);
        assert_eq!(pc, (7 / 3));
        let mut counted = 0;
        for r in 0..2 {
            for c in 0..3 {
                counted += g.rows.local_len(r) * g.cols.local_len(c);
            }
        }
        assert_eq!(counted, 12 * 9);
    }
}
