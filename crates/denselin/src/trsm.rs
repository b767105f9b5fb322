//! Triangular solves with multiple right-hand sides (BLAS `trsm` substitute).
//!
//! The four variants needed by the LU algorithms in this workspace:
//!
//! * [`trsm_lower_left`]  — `X <- L^-1 B` (forward substitution),
//! * [`trsm_upper_left`]  — `X <- U^-1 B` (back substitution),
//! * [`trsm_upper_right`] — `X <- B U^-1` (used for `A10 <- A10 U00^-1`),
//! * [`trsm_lower_right`] — `X <- B L^-1`.
//!
//! Each has a `unit_diag` flag matching the LAPACK `diag` parameter; LU
//! stores `L` with an implicit unit diagonal.
//!
//! Every variant is one blocked sweep over `BLOCK`-wide diagonal blocks,
//! run in place on a strided view of `B`: solve a diagonal block by
//! substitution, then subtract its contribution from the trailing rows
//! (left solves) or trailing columns (right solves) with one rank-`BLOCK`
//! GEMM update straight on `B` and the factor — no block is copied out or
//! back. Wide updates fan out over the GEMM tile queue by
//! [`gemm_auto`](crate::gemm::gemm_auto)'s volume rule; a few right-hand
//! sides take the GEMM's unpacked thin path, which reads the factor once.
//!
//! The left solves' diagonal blocks run one substitution body for every
//! width of `B`: the columns are cut into 8-wide chunks plus a remainder
//! of 1 to 7, each solved by a body monomorphized for its width that
//! holds a row of `X` in a `[f64; W]` register block while it walks the
//! contiguous factor row. Per element it does what a textbook row-by-row
//! substitution does — an unfused `x -= t·y` for each nonzero factor entry
//! in ascending order, then the division by the diagonal — so the width a
//! column is solved at never changes its bits, and a one-column solve
//! (the service's cache hit) streams the factor with no per-element slice
//! bookkeeping.
//!
//! The left-solve variants additionally come in `_parallel` forms
//! ([`trsm_lower_left_parallel`], [`trsm_upper_left_parallel`]) that slice
//! the right-hand-side columns across the shared [`crate::pool`]. A
//! triangular solve is independent per RHS column — every output column is
//! a function of the factor and its own input column, with identical
//! per-element operation order regardless of which columns sit beside it —
//! so the sliced solves are bitwise identical to the serial ones. Each
//! worker sweeps its column range of `B` in place. This is what makes
//! solversrv's coalesced multi-RHS batches scale: the substitution inside
//! each diagonal block runs on every core, not only the GEMM updates.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::gemm::{update_with, GemmConfig, MatView};
use crate::matrix::Matrix;
use crate::pool;

/// Panel width above which the blocked (GEMM-rich) path is taken.
const BLOCK: usize = 48;

/// Solve `L X = B` in place (`B` is overwritten with `X`). `L` is
/// `n x n` lower triangular; `B` is `n x nrhs`.
pub fn trsm_lower_left(l: &Matrix, b: &mut Matrix, unit_diag: bool) {
    check_left(l, b);
    // SAFETY: the view covers `b`, which this call borrows exclusively.
    unsafe { lower_left(l, Rhs::of(b), unit_diag) }
}

/// Solve `U X = B` in place. `U` is `n x n` upper triangular.
pub fn trsm_upper_left(u: &Matrix, b: &mut Matrix, unit_diag: bool) {
    check_left(u, b);
    // SAFETY: as in `trsm_lower_left`.
    unsafe { upper_left(u, Rhs::of(b), unit_diag) }
}

/// Solve `X U = B` in place (`B <- B U^-1`). `U` is `n x n` upper
/// triangular; `B` is `nrhs x n`.
pub fn trsm_upper_right(b: &mut Matrix, u: &Matrix, unit_diag: bool) {
    check_right(b, u);
    // SAFETY: as in `trsm_lower_left`.
    unsafe { upper_right(Rhs::of(b), u, unit_diag) }
}

/// Solve `X L = B` in place (`B <- B L^-1`). `L` is `n x n` lower
/// triangular; `B` is `nrhs x n`.
pub fn trsm_lower_right(b: &mut Matrix, l: &Matrix, unit_diag: bool) {
    check_right(b, l);
    // SAFETY: as in `trsm_lower_left`.
    unsafe { lower_right(Rhs::of(b), l, unit_diag) }
}

/// [`trsm_lower_left`] with the RHS columns sliced into contiguous chunks
/// solved concurrently on `threads` workers of the shared pool. Bitwise
/// identical to the serial solve (per-column independence; see the module
/// docs). Falls back to the serial kernel for a single column or worker.
pub fn trsm_lower_left_parallel(l: &Matrix, b: &mut Matrix, unit_diag: bool, threads: usize) {
    let n = check_left(l, b);
    if threads.max(1) == 1 || b.cols() < 2 || n == 0 {
        return trsm_lower_left(l, b, unit_diag);
    }
    // SAFETY: the chunks are disjoint column ranges of `b` (see
    // `parallel_columns`).
    parallel_columns(b, threads, &|sub| unsafe { lower_left(l, sub, unit_diag) });
}

/// [`trsm_upper_left`] with the RHS columns sliced across the shared pool;
/// bitwise identical to the serial solve.
pub fn trsm_upper_left_parallel(u: &Matrix, b: &mut Matrix, unit_diag: bool, threads: usize) {
    let n = check_left(u, b);
    if threads.max(1) == 1 || b.cols() < 2 || n == 0 {
        return trsm_upper_left(u, b, unit_diag);
    }
    // SAFETY: as in `trsm_lower_left_parallel`.
    parallel_columns(b, threads, &|sub| unsafe { upper_left(u, sub, unit_diag) });
}

/// Split `b`'s columns into up to `threads` contiguous chunks and run `f`
/// on an in-place view of each chunk concurrently. `f` must treat each
/// column independently (every TRSM does), which makes the split
/// bitwise-neutral.
fn parallel_columns(b: &mut Matrix, threads: usize, f: &(dyn Fn(Rhs) + Sync)) {
    let cols = b.cols();
    let chunk = cols.div_ceil(threads.max(1));
    let nchunks = cols.div_ceil(chunk);
    let rhs = Rhs::of(b);
    let counter = AtomicUsize::new(0);
    pool::global().run(nchunks, &|_| loop {
        let ci = counter.fetch_add(1, Ordering::Relaxed);
        if ci >= nchunks {
            break;
        }
        // Chunks are pairwise-disjoint column ranges of `b`, which outlives
        // the pool job (`run` joins before returning).
        f(rhs.columns(ci * chunk, ((ci + 1) * chunk).min(cols)));
    });
}

fn check_left(t: &Matrix, b: &Matrix) -> usize {
    let n = t.rows();
    assert_eq!(t.cols(), n, "triangular factor must be square");
    assert_eq!(b.rows(), n, "rhs row count must match triangular order");
    n
}

fn check_right(b: &Matrix, t: &Matrix) -> usize {
    let n = t.rows();
    assert_eq!(t.cols(), n, "triangular factor must be square");
    assert_eq!(b.cols(), n, "rhs col count must match triangular order");
    n
}

/// The right-hand sides a sweep solves in place: a `rows x cols` region of
/// an `ld`-strided row-major buffer. A chunk of the parallel solves is a
/// column range of the caller's matrix; the serial solves view it whole.
#[derive(Clone, Copy)]
struct Rhs {
    ptr: *mut f64,
    ld: usize,
    rows: usize,
    cols: usize,
}

// SAFETY: a bundle of pointer + dims; every sharer touches disjoint columns.
unsafe impl Send for Rhs {}
unsafe impl Sync for Rhs {}

impl Rhs {
    fn of(b: &mut Matrix) -> Rhs {
        Rhs {
            ptr: b.as_mut_slice().as_mut_ptr(),
            ld: b.cols(),
            rows: b.rows(),
            cols: b.cols(),
        }
    }

    /// Columns `lo..hi` of the region.
    fn columns(self, lo: usize, hi: usize) -> Rhs {
        assert!(lo <= hi && hi <= self.cols, "column range out of bounds");
        Rhs {
            ptr: self.ptr.wrapping_add(lo),
            cols: hi - lo,
            ..self
        }
    }

    /// Row `i` of the region.
    ///
    /// # Safety
    /// `i < self.rows`, and no other live reference may cover the row.
    #[allow(clippy::mut_from_ref)]
    unsafe fn row(&self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        std::slice::from_raw_parts_mut(self.ptr.add(i * self.ld), self.cols)
    }

    /// A read-only view of the `rows x cols` block at `(r0, c0)`.
    fn view(&self, r0: usize, c0: usize, rows: usize, cols: usize) -> MatView {
        // SAFETY: the sweeps only read the block through this view while
        // `update` writes a disjoint block of the region.
        unsafe { MatView::from_raw(self.ptr, self.ld, self.rows, self.cols) }
            .sub(r0, c0, rows, cols)
    }

    /// `B[r0.., c0..] -= a * b` in place, serial or tile-queue parallel by
    /// [`gemm_auto`][crate::gemm::gemm_auto]'s rule.
    ///
    /// # Safety
    /// The `a.rows() x b.cols()` block at `(r0, c0)` must lie in the region
    /// and be disjoint from everything `a` and `b` view.
    unsafe fn update(&self, r0: usize, c0: usize, a: MatView, b: MatView) {
        update_with(
            self.ptr.add(r0 * self.ld + c0),
            self.ld,
            -1.0,
            a,
            b,
            &GemmConfig::auto(),
        );
    }
}

/// Blocked forward substitution: solve a diagonal block, then eliminate its
/// influence on the rows below with one in-place GEMM.
///
/// # Safety
/// `b` must be a live region with no other access for the call, with
/// `b.rows == l.rows()`.
unsafe fn lower_left(l: &Matrix, b: Rhs, unit_diag: bool) {
    let n = b.rows;
    if b.cols == 0 {
        return;
    }
    let mut k = 0;
    while k < n {
        let kb = BLOCK.min(n - k);
        substitute::<true>(l, b, unit_diag, k, k + kb);
        let rest = n - k - kb;
        if rest > 0 {
            let l21 = MatView::of(l).sub(k + kb, k, rest, kb);
            b.update(k + kb, 0, l21, b.view(k, 0, kb, b.cols));
        }
        k += kb;
    }
}

/// Blocked back substitution, bottom block first.
///
/// # Safety
/// As [`lower_left`].
unsafe fn upper_left(u: &Matrix, b: Rhs, unit_diag: bool) {
    if b.cols == 0 {
        return;
    }
    let mut k = b.rows;
    while k > 0 {
        let kb = BLOCK.min(k);
        substitute::<false>(u, b, unit_diag, k - kb, k);
        if k > kb {
            let u01 = MatView::of(u).sub(0, k - kb, k - kb, kb);
            b.update(0, 0, u01, b.view(k - kb, 0, kb, b.cols));
        }
        k -= kb;
    }
}

/// `B <- B U^-1` by column blocks, eliminating each solved block from the
/// trailing columns in place.
///
/// # Safety
/// As [`lower_left`], with `b.cols == u.rows()`.
unsafe fn upper_right(b: Rhs, u: &Matrix, unit_diag: bool) {
    let n = b.cols;
    if b.rows == 0 {
        return;
    }
    let mut k = 0;
    while k < n {
        let kb = BLOCK.min(n - k);
        upper_right_unblocked(b, u, unit_diag, k, k + kb);
        let rest = n - k - kb;
        if rest > 0 {
            let u12 = MatView::of(u).sub(k, k + kb, kb, rest);
            b.update(0, k + kb, b.view(0, k, b.rows, kb), u12);
        }
        k += kb;
    }
}

/// `B <- B L^-1` by column blocks, last block first.
///
/// # Safety
/// As [`upper_right`].
unsafe fn lower_right(b: Rhs, l: &Matrix, unit_diag: bool) {
    if b.rows == 0 {
        return;
    }
    let mut k = b.cols;
    while k > 0 {
        let kb = BLOCK.min(k);
        lower_right_unblocked(b, l, unit_diag, k - kb, k);
        if k > kb {
            let l10 = MatView::of(l).sub(k - kb, 0, kb, k - kb);
            b.update(0, 0, b.view(0, k - kb, b.rows, kb), l10);
        }
        k -= kb;
    }
}

/// Columns of `B` per register block of [`substitute`]; a narrower
/// remainder has its own body, so every width `0..` is served.
const SUB_WIDTH: usize = 8;

/// Substitution on the diagonal block `lo..hi` of `t`, assuming the rows
/// of `b` outside it that the block reads are solved: forward (rows
/// ascending, reading rows `lo..i`) when `LOWER`, else back (rows
/// descending, reading rows `i+1..hi`). `b`'s columns are cut into
/// [`SUB_WIDTH`]-wide chunks and a remainder, each run by the body
/// monomorphized for its width.
///
/// # Safety
/// As [`lower_left`], with `lo <= hi <= b.rows`.
unsafe fn substitute<const LOWER: bool>(t: &Matrix, b: Rhs, unit_diag: bool, lo: usize, hi: usize) {
    let mut c = 0;
    while c + SUB_WIDTH <= b.cols {
        substitute_width::<SUB_WIDTH, LOWER>(t, b.columns(c, c + SUB_WIDTH), unit_diag, lo, hi);
        c += SUB_WIDTH;
    }
    let rest = b.columns(c, b.cols);
    match rest.cols {
        0 => {}
        1 => substitute_width::<1, LOWER>(t, rest, unit_diag, lo, hi),
        2 => substitute_width::<2, LOWER>(t, rest, unit_diag, lo, hi),
        3 => substitute_width::<3, LOWER>(t, rest, unit_diag, lo, hi),
        4 => substitute_width::<4, LOWER>(t, rest, unit_diag, lo, hi),
        5 => substitute_width::<5, LOWER>(t, rest, unit_diag, lo, hi),
        6 => substitute_width::<6, LOWER>(t, rest, unit_diag, lo, hi),
        7 => substitute_width::<7, LOWER>(t, rest, unit_diag, lo, hi),
        w => unreachable!("substitution remainder of width {w}"),
    }
}

/// [`substitute`] on exactly `W` columns: each row of `X` is held in a
/// `[f64; W]` register block while the contiguous factor row is walked,
/// with per element an unfused `x -= t_ik * x_k` for every nonzero `t_ik`
/// in ascending `k`, then one division by the diagonal unless
/// `unit_diag` — the order of a textbook row-by-row substitution.
///
/// # Safety
/// As [`substitute`], with `b.cols == W`.
#[inline(always)]
unsafe fn substitute_width<const W: usize, const LOWER: bool>(
    t: &Matrix,
    b: Rhs,
    unit_diag: bool,
    lo: usize,
    hi: usize,
) {
    debug_assert_eq!(b.cols, W);
    let row = |i: usize| b.ptr.add(i * b.ld) as *mut [f64; W];
    for step in 0..hi - lo {
        let i = if LOWER { lo + step } else { hi - 1 - step };
        let solved = if LOWER { lo..i } else { i + 1..hi };
        let trow = t.row(i);
        let mut x = *row(i);
        for (k, &tik) in solved.clone().zip(&trow[solved]) {
            if tik != 0.0 {
                let xk = &*row(k);
                for (xv, &yv) in x.iter_mut().zip(xk) {
                    *xv -= tik * yv;
                }
            }
        }
        if !unit_diag {
            let d = trow[i];
            assert!(d != 0.0, "singular triangular factor");
            for xv in &mut x {
                *xv /= d;
            }
        }
        *row(i) = x;
    }
}

unsafe fn upper_right_unblocked(b: Rhs, u: &Matrix, unit_diag: bool, lo: usize, hi: usize) {
    if !unit_diag {
        for j in lo..hi {
            assert!(u[(j, j)] != 0.0, "singular triangular factor");
        }
    }
    // Each row of B solves independently; stream along the row slice so the
    // elimination of column j from columns j+1..hi is a contiguous AXPY over
    // both B's row and U's row j.
    for i in 0..b.rows {
        let brow = b.row(i);
        for j in lo..hi {
            let mut x = brow[j];
            if !unit_diag {
                x /= u[(j, j)];
                brow[j] = x;
            }
            if x != 0.0 {
                let urow = &u.row(j)[j + 1..hi];
                let btail = &mut brow[j + 1..hi];
                for (bv, uv) in btail.iter_mut().zip(urow) {
                    *bv -= x * uv;
                }
            }
        }
    }
}

unsafe fn lower_right_unblocked(b: Rhs, l: &Matrix, unit_diag: bool, lo: usize, hi: usize) {
    if !unit_diag {
        for j in lo..hi {
            assert!(l[(j, j)] != 0.0, "singular triangular factor");
        }
    }
    for i in 0..b.rows {
        let brow = b.row(i);
        for j in (lo..hi).rev() {
            let mut x = brow[j];
            if !unit_diag {
                x /= l[(j, j)];
                brow[j] = x;
            }
            if x != 0.0 {
                let lrow = &l.row(j)[lo..j];
                let bhead = &mut brow[lo..j];
                for (bv, lv) in bhead.iter_mut().zip(lrow) {
                    *bv -= x * lv;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::test_blocking::{force_blocking, TEST_BLOCKINGS};
    use crate::SplitMix64;

    fn random_lower(rng: &mut SplitMix64, n: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| {
            if i > j {
                rng.symmetric()
            } else if i == j {
                2.0 + rng.unit()
            } else {
                0.0
            }
        })
    }

    fn random_upper(rng: &mut SplitMix64, n: usize) -> Matrix {
        random_lower(rng, n).transpose()
    }

    #[test]
    fn lower_left_solves() {
        let mut rng = SplitMix64::new(20);
        for n in [1, 2, 7, 60, 129] {
            let l = random_lower(&mut rng, n);
            let x = Matrix::random(&mut rng, n, 3);
            let mut b = l.matmul(&x);
            trsm_lower_left(&l, &mut b, false);
            assert!(b.allclose(&x, 1e-8), "n={n}");
        }
    }

    #[test]
    fn lower_left_unit_diag_ignores_diagonal() {
        let mut rng = SplitMix64::new(21);
        let n = 70;
        let mut l = random_lower(&mut rng, n);
        // Unit-diag solve must read the implicit 1.0, not stored diagonal.
        let mut lu = l.clone();
        for i in 0..n {
            lu[(i, i)] = 1.0;
        }
        let x = Matrix::random(&mut rng, n, 2);
        let mut b = lu.matmul(&x);
        for i in 0..n {
            l[(i, i)] = 1234.5; // poison stored diagonal
        }
        trsm_lower_left(&l, &mut b, true);
        assert!(b.allclose(&x, 1e-8));
    }

    #[test]
    fn upper_left_solves() {
        let mut rng = SplitMix64::new(22);
        for n in [1, 3, 50, 140] {
            let u = random_upper(&mut rng, n);
            let x = Matrix::random(&mut rng, n, 4);
            let mut b = u.matmul(&x);
            trsm_upper_left(&u, &mut b, false);
            assert!(b.allclose(&x, 1e-7), "n={n}");
        }
    }

    #[test]
    fn upper_right_solves() {
        let mut rng = SplitMix64::new(23);
        for n in [1, 5, 49, 130] {
            let u = random_upper(&mut rng, n);
            let x = Matrix::random(&mut rng, 6, n);
            let mut b = x.matmul(&u);
            trsm_upper_right(&mut b, &u, false);
            assert!(b.allclose(&x, 1e-7), "n={n}");
        }
    }

    #[test]
    fn lower_right_solves() {
        let mut rng = SplitMix64::new(24);
        for n in [1, 4, 55, 101] {
            let l = random_lower(&mut rng, n);
            let x = Matrix::random(&mut rng, 5, n);
            let mut b = x.matmul(&l);
            trsm_lower_right(&mut b, &l, false);
            assert!(b.allclose(&x, 1e-7), "n={n}");
        }
    }

    #[test]
    fn upper_right_unit_diag() {
        let mut rng = SplitMix64::new(25);
        let n = 64;
        let mut u = random_upper(&mut rng, n);
        let mut uu = u.clone();
        for i in 0..n {
            uu[(i, i)] = 1.0;
        }
        let x = Matrix::random(&mut rng, 3, n);
        let mut b = x.matmul(&uu);
        for i in 0..n {
            u[(i, i)] = -7.0;
        }
        trsm_upper_right(&mut b, &u, true);
        assert!(b.allclose(&x, 1e-8));
    }

    #[test]
    fn parallel_left_solves_bitwise_match_serial() {
        let mut rng = SplitMix64::new(26);
        for ((n, nrhs), blk) in [(5, 3), (64, 17), (130, 40), (97, 1)]
            .into_iter()
            .flat_map(|shape| TEST_BLOCKINGS.map(|blk| (shape, blk)))
        {
            // the workers inherit the submitter's blocking
            let _blk = force_blocking(blk);
            let l = random_lower(&mut rng, n);
            let u = random_upper(&mut rng, n);
            let b0 = Matrix::random(&mut rng, n, nrhs);
            for threads in [1, 2, 4, 7] {
                let mut bs = b0.clone();
                trsm_lower_left(&l, &mut bs, false);
                let mut bp = b0.clone();
                trsm_lower_left_parallel(&l, &mut bp, false, threads);
                assert_eq!(
                    bs.as_slice(),
                    bp.as_slice(),
                    "lower n={n} nrhs={nrhs} threads={threads} {blk:?}"
                );
                let mut us = b0.clone();
                trsm_upper_left(&u, &mut us, true);
                let mut up = b0.clone();
                trsm_upper_left_parallel(&u, &mut up, true, threads);
                assert_eq!(
                    us.as_slice(),
                    up.as_slice(),
                    "upper n={n} nrhs={nrhs} threads={threads} {blk:?}"
                );
            }
        }
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn thin_solves_match_packed_solves_under_every_blocking() {
        // A solve with at most 10 right-hand sides runs its trailing
        // updates on the unpacked thin GEMM path, the same columns inside a
        // 24-wide block on the packed path; under a kc shallower than
        // BLOCK both write back once per kc block, and the substitution's
        // 8-column chunks fall on other columns at each width up to 17, so
        // every column must come out bit for bit the same (the
        // forced-variant sweeps at the default blocking, against the
        // packed path and against the AXPY loops, are in
        // tests/properties.rs).
        const WIDE: usize = 24;
        const AT: usize = 5;
        type Solve<'a> = (&'static str, &'a dyn Fn(&mut Matrix));
        let mut rng = SplitMix64::new(0x7415);
        for blk in TEST_BLOCKINGS {
            let _blk = force_blocking(blk);
            for n in [49, 97] {
                let l = random_lower(&mut rng, n);
                let u = random_upper(&mut rng, n);
                let left: [Solve; 4] = [
                    ("lower_left", &|b| trsm_lower_left(&l, b, false)),
                    ("upper_left", &|b| trsm_upper_left(&u, b, true)),
                    ("lower_left_parallel", &|b| {
                        trsm_lower_left_parallel(&l, b, true, 2)
                    }),
                    ("upper_left_parallel", &|b| {
                        trsm_upper_left_parallel(&u, b, false, 2)
                    }),
                ];
                let right: [Solve; 2] = [
                    ("upper_right", &|b| trsm_upper_right(b, &u, false)),
                    ("lower_right", &|b| trsm_lower_right(b, &l, true)),
                ];
                for w in 0..=17 {
                    let what = |name: &str| format!("{name} n={n} w={w} {blk:?}");
                    let wide = Matrix::random(&mut rng, n, WIDE);
                    for (name, solve) in &left {
                        let mut thin = wide.block(0, AT, n, w);
                        solve(&mut thin);
                        let mut packed = wide.clone();
                        solve(&mut packed);
                        let want = packed.block(0, AT, n, w);
                        assert_eq!(bits(&thin), bits(&want), "{}", what(name));
                    }
                    let wide = Matrix::random(&mut rng, WIDE, n);
                    for (name, solve) in &right {
                        let mut thin = wide.block(AT, 0, w, n);
                        solve(&mut thin);
                        let mut packed = wide.clone();
                        solve(&mut packed);
                        let want = packed.block(AT, 0, w, n);
                        assert_eq!(bits(&thin), bits(&want), "{}", what(name));
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "singular triangular factor")]
    fn singular_panics() {
        let mut l = Matrix::identity(3);
        l[(1, 1)] = 0.0;
        let mut b = Matrix::zeros(3, 1);
        trsm_lower_left(&l, &mut b, false);
    }
}
