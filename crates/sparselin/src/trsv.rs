//! Level-scheduled sparse triangular solve.
//!
//! A sparse `L·x = b` looks serial — row `i` needs every `x[j]` with
//! `a_ij ≠ 0` — but the dependency DAG is usually shallow. Level analysis
//! assigns each row `level[i] = 1 + max(level[j])` over its off-diagonal
//! neighbours; all rows of one level are independent and can run in
//! parallel, with a barrier between levels. The schedule depends only on
//! the sparsity *pattern*, so [`SparseTriangle`] computes it once at
//! construction and every subsequent solve (SymGS sweeps, CG
//! preconditioner applications) reuses it — that cached analysis is
//! exactly what the serving layer's factor cache amortizes across repeat
//! solves.
//!
//! Storage follows the schedule: the triangle keeps one run of
//! off-diagonal entries per row, rows laid out level after level, with the
//! diagonal split into its own array in the same order. A solve is then
//! one streaming pass over those arrays with no diagonal test in the inner
//! loop. Levels at least `LEVEL_POOL_MIN_ROWS` wide are split across
//! `denselin::pool`; narrower levels (and every level at one thread) run
//! inline on the caller, where a pooled level measured no faster.
//!
//! Determinism: a row's update loop reads only `x` entries finalized in
//! earlier levels and accumulates in stored column order, so results are
//! bitwise identical at every thread count, same contract as
//! [`crate::spmv()`].

use std::ops::Range;

use denselin::pool;

use crate::csr::CsrMatrix;
use crate::error::SparseError;

/// The narrowest level a multi-threaded solve hands to the worker pool.
/// Measured on a 2-vCPU AVX-512 host with a stride-W lower triangle (two
/// off-diagonals per row, every level W rows wide), every level pooled
/// against one thread, 8 runs each, medians: at n = 2¹⁷ two threads took
/// 0.92× the one-thread time at W = 16384, 0.82× at 24576 and 0.75× at
/// 32768; at W = 32768 they took 0.77× for n = 2¹⁸ and 0.78× for n = 2¹⁹.
/// Three threads (more than the cores) break even at 32768 (0.93–1.02×)
/// and lose at 16384 (1.13×).
pub(crate) const LEVEL_POOL_MIN_ROWS: usize = 32768;

/// Which triangle a [`SparseTriangle`] represents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TriangleKind {
    /// Lower triangular (diagonal included): forward substitution.
    Lower,
    /// Upper triangular (diagonal included): backward substitution.
    Upper,
}

/// The once-per-pattern level analysis: rows grouped by dependency depth.
#[derive(Clone, Debug)]
pub struct LevelSchedule {
    /// `rows[level_ptr[l]..level_ptr[l+1]]` are the rows of level `l`,
    /// in ascending row order (a deterministic tie-break).
    level_ptr: Vec<usize>,
    rows: Vec<usize>,
}

impl LevelSchedule {
    /// Number of levels (the critical-path length of the solve).
    pub fn depth(&self) -> usize {
        self.level_ptr.len().saturating_sub(1)
    }

    /// Rows of level `l`.
    pub fn level(&self, l: usize) -> &[usize] {
        &self.rows[self.level_ptr[l]..self.level_ptr[l + 1]]
    }

    /// Widest level — the available parallelism.
    pub fn max_width(&self) -> usize {
        (0..self.depth())
            .map(|l| self.level(l).len())
            .max()
            .unwrap_or(0)
    }

    /// Resident bytes of the schedule arrays.
    pub fn bytes(&self) -> usize {
        (self.level_ptr.len() + self.rows.len()) * std::mem::size_of::<usize>()
    }
}

/// A validated triangular factor stored in its level-schedule order.
///
/// Position `p` is row `levels.rows[p]`: its off-diagonal entries are
/// `cols[ptr[p]..ptr[p+1]]` / `vals[..]` in the input's column order, and
/// its diagonal is `diag[p]`.
#[derive(Clone, Debug)]
pub struct SparseTriangle {
    kind: TriangleKind,
    levels: LevelSchedule,
    ptr: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
    diag: Vec<f64>,
}

struct SendPtr(*mut f64);
// SAFETY: the pointer is only dereferenced inside one pooled level of
// `solve_in_place`, whose workers write disjoint positions and read only
// entries finalized before the level began.
unsafe impl Send for SendPtr {}
// SAFETY: as for `Send`.
unsafe impl Sync for SendPtr {}

impl SendPtr {
    /// Going through a method (not field access) makes closures capture
    /// the `Sync` wrapper rather than the raw pointer — same trick as the
    /// pool's internal `SyncPtr`.
    fn get(&self) -> *mut f64 {
        self.0
    }
}

impl SparseTriangle {
    /// Wrap a lower-triangular matrix (diagonal included). Validates shape,
    /// triangularity, and a nonzero diagonal, then runs the level analysis.
    pub fn lower(m: CsrMatrix) -> Result<Self, SparseError> {
        Self::build(&m, TriangleKind::Lower)
    }

    /// Wrap an upper-triangular matrix (diagonal included).
    pub fn upper(m: CsrMatrix) -> Result<Self, SparseError> {
        Self::build(&m, TriangleKind::Upper)
    }

    fn build(m: &CsrMatrix, kind: TriangleKind) -> Result<Self, SparseError> {
        let (r, c) = m.shape();
        if r != c {
            return Err(SparseError::DimensionMismatch {
                expected: r,
                got: c,
            });
        }
        for i in 0..r {
            let (idx, _) = m.row(i);
            for &j in idx {
                let wrong = match kind {
                    TriangleKind::Lower => j > i,
                    TriangleKind::Upper => j < i,
                };
                if wrong {
                    return Err(SparseError::NotTriangular { row: i, col: j });
                }
            }
        }
        let natural_diag = m.diagonal()?;
        let levels = schedule(m, kind);
        // every row stores its diagonal (checked above), so the
        // off-diagonal count is exact
        let off = m.nnz() - r;
        let mut ptr = Vec::with_capacity(r + 1);
        let mut cols = Vec::with_capacity(off);
        let mut vals = Vec::with_capacity(off);
        let mut diag = Vec::with_capacity(r);
        ptr.push(0);
        for &i in &levels.rows {
            let (idx, v) = m.row(i);
            for (&j, &a) in idx.iter().zip(v) {
                if j != i {
                    cols.push(j);
                    vals.push(a);
                }
            }
            ptr.push(cols.len());
            diag.push(natural_diag[i]);
        }
        Ok(SparseTriangle {
            kind,
            levels,
            ptr,
            cols,
            vals,
            diag,
        })
    }

    /// Lower or upper.
    pub fn kind(&self) -> TriangleKind {
        self.kind
    }

    /// The cached level schedule.
    pub fn levels(&self) -> &LevelSchedule {
        &self.levels
    }

    fn n(&self) -> usize {
        self.diag.len()
    }

    /// Flops of one solve: a multiply and a subtract per stored
    /// off-diagonal entry, one division per row.
    pub(crate) fn solve_flops(&self) -> u64 {
        (2 * self.cols.len() + self.n()) as u64
    }

    /// Resident bytes: the level-ordered entry arrays, the diagonal and
    /// the schedule (cache accounting).
    pub fn bytes(&self) -> usize {
        (self.ptr.len() + self.cols.len()) * std::mem::size_of::<usize>()
            + (self.vals.len() + self.diag.len()) * std::mem::size_of::<f64>()
            + self.levels.bytes()
    }

    /// Solve `T·x = b` by level-scheduled substitution. `threads == 0`
    /// means [`denselin::auto_threads`]; results are bitwise identical at
    /// every thread count.
    pub fn solve(&self, b: &[f64], x: &mut [f64], threads: usize) -> Result<(), SparseError> {
        let n = self.n();
        if b.len() != n {
            return Err(SparseError::DimensionMismatch {
                expected: n,
                got: b.len(),
            });
        }
        if x.len() != n {
            return Err(SparseError::DimensionMismatch {
                expected: n,
                got: x.len(),
            });
        }
        x.copy_from_slice(b);
        self.solve_in_place(x, threads);
        Ok(())
    }

    /// Overwrite `x` (holding `b`, length `n`) with `T⁻¹·b`. Each row
    /// reads its own `x[i]` before writing it, so it still sees `b[i]`.
    pub(crate) fn solve_in_place(&self, x: &mut [f64], threads: usize) {
        let threads = if threads == 0 {
            denselin::auto_threads()
        } else {
            threads
        };
        let n = self.n();
        let level_ptr = &self.levels.level_ptr;
        // positions [inline_from, lo) are narrow levels not yet solved
        let mut inline_from = 0;
        for l in 0..self.levels.depth() {
            let (lo, hi) = (level_ptr[l], level_ptr[l + 1]);
            let width = hi - lo;
            if threads < 2 || width < LEVEL_POOL_MIN_ROWS {
                continue;
            }
            self.substitute(inline_from..lo, x);
            let workers = threads.min(width);
            let out = SendPtr(x.as_mut_ptr());
            // Barrier per pooled level: pool::run returns only after every
            // worker retires, so later levels read finalized x entries.
            pool::global().run(workers, &|w| {
                // SAFETY: each position belongs to exactly one worker's
                // chunk, so writes are disjoint; reads target entries
                // finalized before this pool::run began.
                let xs = unsafe { std::slice::from_raw_parts_mut(out.get(), n) };
                self.substitute(lo + width * w / workers..lo + width * (w + 1) / workers, xs);
            });
            inline_from = hi;
        }
        self.substitute(inline_from..n, x);
    }

    /// Substitute the rows at schedule positions `span`, in order.
    fn substitute(&self, span: Range<usize>, x: &mut [f64]) {
        let rows = &self.levels.rows[span.clone()];
        let ptr = &self.ptr[span.start..=span.end];
        let diag = &self.diag[span];
        for (p, &i) in rows.iter().enumerate() {
            let entries = ptr[p]..ptr[p + 1];
            let mut acc = x[i];
            for (&j, &a) in self.cols[entries.clone()].iter().zip(&self.vals[entries]) {
                acc -= a * x[j];
            }
            x[i] = acc / diag[p];
        }
    }
}

/// Dependency-depth analysis. Pattern-only; values never matter.
fn schedule(m: &CsrMatrix, kind: TriangleKind) -> LevelSchedule {
    let n = m.rows();
    let mut level = vec![0usize; n];
    let mut depth = 0usize;
    let order: Box<dyn Iterator<Item = usize>> = match kind {
        TriangleKind::Lower => Box::new(0..n),
        TriangleKind::Upper => Box::new((0..n).rev()),
    };
    for i in order {
        let (idx, _) = m.row(i);
        let mut lv = 0usize;
        for &j in idx {
            if j != i {
                lv = lv.max(level[j] + 1);
            }
        }
        level[i] = lv;
        depth = depth.max(lv + 1);
    }
    let mut level_ptr = vec![0usize; depth + 1];
    for &lv in &level {
        level_ptr[lv + 1] += 1;
    }
    for l in 0..depth {
        level_ptr[l + 1] += level_ptr[l];
    }
    let mut rows = vec![0usize; n];
    let mut next = level_ptr.clone();
    // ascending row index within each level: deterministic and
    // cache-friendlier than discovery order for the Upper case
    for (i, &lv) in level.iter().enumerate() {
        rows[next[lv]] = i;
        next[lv] += 1;
    }
    LevelSchedule { level_ptr, rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::{banded, spd_laplacian, CsrMatrix};
    use denselin::SplitMix64;

    #[test]
    fn rejects_non_triangular_and_zero_diag() {
        let a = spd_laplacian(3, 3, 0.0);
        assert!(matches!(
            SparseTriangle::lower(a.clone()),
            Err(SparseError::NotTriangular { row: 0, col: 1 })
        ));
        assert!(matches!(
            SparseTriangle::upper(a),
            Err(SparseError::NotTriangular { row: 1, col: 0 })
        ));
        // missing diagonal
        let m = CsrMatrix::from_triplets(2, 2, &[(1, 0, 1.0), (1, 1, 2.0)]).unwrap();
        assert!(matches!(
            SparseTriangle::lower(m),
            Err(SparseError::ZeroDiagonal { row: 0 })
        ));
        // the whole pattern is checked for triangularity before the
        // diagonal: a later stray entry wins over an earlier missing pivot
        let m = CsrMatrix::from_triplets(3, 3, &[(1, 1, 1.0), (2, 2, 1.0), (1, 2, 5.0)]).unwrap();
        assert!(matches!(
            SparseTriangle::lower(m),
            Err(SparseError::NotTriangular { row: 1, col: 2 })
        ));
    }

    #[test]
    fn laplacian_lower_levels_are_grid_diagonals() {
        // 5-point Laplacian lower triangle on an nx×ny grid: row (x, y)
        // depends on (x-1, y) and (x, y-1), so level = x + y.
        let nx = 4;
        let ny = 3;
        let t = SparseTriangle::lower(spd_laplacian(nx, ny, 0.0).lower_triangle()).unwrap();
        assert_eq!(t.levels().depth(), nx + ny - 1);
        for l in 0..t.levels().depth() {
            for &i in t.levels().level(l) {
                assert_eq!((i % nx) + (i / nx), l, "row {i}");
            }
        }
        // diagonal-free rows all land in level 0
        assert_eq!(t.levels().level(0), &[0]);
    }

    fn triangle(m: &CsrMatrix, kind: TriangleKind) -> SparseTriangle {
        match kind {
            TriangleKind::Lower => SparseTriangle::lower(m.clone()),
            TriangleKind::Upper => SparseTriangle::upper(m.clone()),
        }
        .unwrap()
    }

    #[test]
    fn solves_match_dense_substitution() {
        let a = banded(40, 3, 21);
        let b: Vec<f64> = (0..40).map(|i| ((i * 13 + 1) as f64).sin()).collect();
        for (m, kind) in [
            (a.lower_triangle(), TriangleKind::Lower),
            (a.upper_triangle(), TriangleKind::Upper),
        ] {
            let tri = triangle(&m, kind);
            let mut x = vec![0.0; 40];
            tri.solve(&b, &mut x, 1).unwrap();
            // check T·x = b through SpMV
            let mut back = vec![0.0; 40];
            crate::spmv::spmv(&m, &x, &mut back).unwrap();
            for (i, (bi, ri)) in b.iter().zip(&back).enumerate() {
                assert!((bi - ri).abs() < 1e-9, "{kind:?} row {i}: {bi} vs {ri}");
            }
        }
    }

    #[test]
    fn parallel_solve_is_bitwise_serial() {
        for a in [banded(130, 4, 5), spd_laplacian(12, 11, 0.5)] {
            let b: Vec<f64> = (0..a.rows()).map(|i| ((i + 7) as f64).cos()).collect();
            for tri in [
                SparseTriangle::lower(a.lower_triangle()).unwrap(),
                SparseTriangle::upper(a.upper_triangle()).unwrap(),
            ] {
                let mut serial = vec![0.0; a.rows()];
                tri.solve(&b, &mut serial, 1).unwrap();
                for threads in [2, 3, 5, 8, 64] {
                    let mut par = vec![f64::NAN; a.rows()];
                    tri.solve(&b, &mut par, threads).unwrap();
                    for (s, p) in serial.iter().zip(&par) {
                        assert_eq!(s.to_bits(), p.to_bits(), "threads={threads}");
                    }
                }
            }
        }
    }

    /// Natural-order substitution on the CSR itself: forward for a lower
    /// triangle, backward for an upper one, off-diagonals in stored order.
    fn reference_solve(m: &CsrMatrix, kind: TriangleKind, b: &[f64]) -> Vec<f64> {
        let n = m.rows();
        let mut x = vec![0.0; n];
        let order: Vec<usize> = match kind {
            TriangleKind::Lower => (0..n).collect(),
            TriangleKind::Upper => (0..n).rev().collect(),
        };
        for i in order {
            let (idx, vals) = m.row(i);
            let mut acc = b[i];
            let mut d = 0.0;
            for (&j, &v) in idx.iter().zip(vals) {
                if j == i {
                    d = v;
                } else {
                    acc -= v * x[j];
                }
            }
            x[i] = acc / d;
        }
        x
    }

    /// Triangle of order `n` with entries `(i, i∓stride)` and
    /// `(i, i∓2·stride)`: every level is `stride` rows wide (the last one
    /// `n mod stride` when that is nonzero).
    fn strided(n: usize, stride: usize, kind: TriangleKind, seed: u64) -> CsrMatrix {
        let mut r = SplitMix64::new(seed);
        let mut trip = Vec::new();
        for i in 0..n {
            trip.push((i, i, 2.0 + r.unit()));
            for k in [stride, 2 * stride] {
                let j = match kind {
                    TriangleKind::Lower => i.checked_sub(k),
                    TriangleKind::Upper => Some(i + k).filter(|&j| j < n),
                };
                if let Some(j) = j {
                    trip.push((i, j, 0.5 * r.symmetric()));
                }
            }
        }
        CsrMatrix::from_triplets(n, n, &trip).unwrap()
    }

    /// A chain of narrow levels, one level of `wide` rows, then another
    /// chain, so the solve goes inline → pooled → inline. The upper
    /// triangle is the lower one with rows and columns reversed, which
    /// keeps the same levels in the same order.
    fn chain_wide_chain(wide: usize, kind: TriangleKind) -> CsrMatrix {
        let chain = 5;
        let n = chain + wide + chain;
        let at = |i: usize| match kind {
            TriangleKind::Lower => i,
            TriangleKind::Upper => n - 1 - i,
        };
        let mut trip = Vec::new();
        for i in 0..n {
            trip.push((at(i), at(i), 3.0 + (i % 7) as f64));
            if i > 0 && !(chain..chain + wide).contains(&i) {
                trip.push((at(i), at(i - 1), -1.0));
            } else if i >= chain {
                trip.push((at(i), at(chain - 1), 0.25));
            }
        }
        CsrMatrix::from_triplets(n, n, &trip).unwrap()
    }

    #[test]
    fn inline_and_pooled_levels_match_natural_order_bitwise() {
        let lo = LEVEL_POOL_MIN_ROWS;
        let mut cases = Vec::new();
        for kind in [TriangleKind::Lower, TriangleKind::Upper] {
            // narrow levels only, exactly at the threshold (pooled), and
            // wide levels followed by a narrow remainder
            for (stride, n) in [
                (3, 40),
                (lo - 1, 2 * lo),
                (lo, 2 * lo),
                (lo + lo / 2, 2 * lo + 7),
            ] {
                cases.push((
                    format!("{kind:?} stride {stride}"),
                    kind,
                    strided(n, stride, kind, 3),
                ));
            }
            let eye: Vec<(usize, usize, f64)> =
                (0..lo + 5).map(|i| (i, i, 1.5 + i as f64)).collect();
            cases.push((
                format!("{kind:?} diagonal"),
                kind,
                CsrMatrix::from_triplets(lo + 5, lo + 5, &eye).unwrap(),
            ));
            cases.push((
                format!("{kind:?} n = 1"),
                kind,
                CsrMatrix::from_triplets(1, 1, &[(0, 0, -0.75)]).unwrap(),
            ));
            let m = chain_wide_chain(lo + 3, kind);
            let levels = triangle(&m, kind).levels().clone();
            let widths: Vec<usize> = (0..levels.depth()).map(|l| levels.level(l).len()).collect();
            assert_eq!(widths, [1, 1, 1, 1, 1, lo + 3, 1, 1, 1, 1, 1], "{kind:?}");
            cases.push((format!("{kind:?} chain-wide-chain"), kind, m));
        }

        for (name, kind, m) in &cases {
            let tri = triangle(m, *kind);
            let n = m.rows();
            let mut r = SplitMix64::new(n as u64);
            let b: Vec<f64> = (0..n).map(|_| r.symmetric()).collect();
            let want = reference_solve(m, *kind, &b);
            for threads in [1, 2, 3, 8] {
                let mut x = vec![f64::NAN; n];
                tri.solve(&b, &mut x, threads).unwrap();
                for i in 0..n {
                    assert_eq!(
                        x[i].to_bits(),
                        want[i].to_bits(),
                        "{name}, row {i}, threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn schedule_covers_every_row_once() {
        let a = crate::csr::random_density(60, 0.1, 17);
        let m = a.upper_triangle();
        let t = SparseTriangle::upper(m.clone()).unwrap();
        let mut seen = [false; 60];
        for l in 0..t.levels().depth() {
            for &i in t.levels().level(l) {
                assert!(!seen[i]);
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        assert!(t.levels().max_width() >= 1);
        // the CSR's row pointers, entries and values, with the n diagonal
        // entries moved to one value array (their column indices dropped),
        // plus the schedule
        let word = std::mem::size_of::<usize>();
        assert_eq!(t.bytes(), m.bytes() - 60 * word + t.levels().bytes());
    }
}
