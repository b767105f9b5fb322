//! Multithreaded right-looking blocked LU with **lookahead**, bitwise
//! identical to [`lu_blocked`](crate::lu::lu_blocked).
//!
//! `lu_blocked` serializes each step: panel factorization (latency-bound,
//! ~O(n·nb²) flops) blocks the trailing update (the GEMM-rich O(n²·nb)
//! part), and every phase round-trips submatrices through `block` /
//! `set_block` copies. This module removes both bottlenecks:
//!
//! * **Lookahead.** After the trailing update of step `k` has refreshed the
//!   next panel's column stripe, the panel for step `k+1` is factored
//!   *concurrently* with the rest of step `k`'s trailing update: worker 0
//!   of the shared [`crate::pool`] factors the stripe in place while the
//!   remaining workers drain the rest of the update as independent column
//!   *bands* from an atomic work queue (each band: U-panel TRSM, then a
//!   packed-kernel GEMM). The panel is therefore off the critical path —
//!   the pipeline streams GEMM work at every step. The panel itself is
//!   the register-blocked [`crate::panel`] kernel.
//! * **In-place strided updates.** The trailing GEMM writes directly into
//!   the factored buffer through the strided-view machinery of
//!   [`gemm`][mod@crate::gemm] (no `A11` copy-out/copy-back), the panel is factored
//!   in place on its strided rows, and row permutations are applied as
//!   in-place cycle-following gathers by the jobs that own the columns.
//!
//! # Dependency structure (one iteration, current step `k`)
//!
//! ```text
//!  stripe S = next panel cols: P(k), TRSM + GEMM   [caller thread]
//!          |
//!     +----+---------------------------+
//!     | worker 0: factor panel k+1     | workers 1..t: drain the queue
//!     |   (rows k+kb.., cols S,        |   band = P(k), TRSM(L00, U01_band)
//!     |    in place, partial pivoting) |        + GEMM(C_band -= L10·U01)
//!     |                                |   [0, k) block = P(k)
//!     +----+---------------------------+
//!          |  (join; worker 0 helps drain the queue after the panel)
//!  next iteration
//! ```
//!
//! `P(k)` is panel `k`'s row order applied to rows `k..m` of the columns
//! outside the panel. Each column range takes it from the job that owns
//! the range, so a step costs one pool round trip. Writes are disjoint:
//! the panel touches rows `k+kb..m` of the stripe columns only; bands
//! touch rows `k..m` of columns right of the stripe; the `[0, k)` item
//! touches rows `k..m` of columns left of panel `k`; `L10` (columns of
//! panel `k`) is read-shared and never written.
//!
//! # Determinism
//!
//! The result — pivots, permutation, sign, and every factor entry — is
//! **bitwise identical** to `lu_blocked` for any thread count:
//!
//! * the panel kernel ([`crate::panel`]) gives every element the update
//!   sequence of `lu_unblocked`'s rank-1 loop (same strict-`>` first-max
//!   pivot search, same division, same `a -= l·u` steps in the same
//!   order, no fused multiply-add) on the same values, since the stripe is
//!   fully updated before the panel starts;
//! * TRSM and GEMM are *per-column* computations here: each output element
//!   reduces over `k` in the same `kc`-block order no matter how the
//!   columns are sliced into bands (the packed kernels never reassociate
//!   across the split), so banding changes nothing;
//! * row permutations are pure data movement.
//!
//! Threading only changes *which thread* computes a value, never the value.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::gemm::{auto_threads, update_region, GemmBlocking, GemmConfig, MatView, Microkernel};
use crate::lu::{permutation_sign, LuFactorization, SingularMatrix};
use crate::matrix::Matrix;
use crate::panel::{factor_raw, PivotMode};
use crate::pool::{self, SyncPtr};
use crate::trsm::trsm_lower_left;

/// Factor a copy of `a` with lookahead-pipelined blocked partial-pivoting
/// LU on [`auto_threads`] workers. Bitwise identical to
/// [`lu_blocked`](crate::lu::lu_blocked) with the same panel width `nb`.
///
/// ```
/// use denselin::{lu_blocked, lu_parallel, Matrix, SplitMix64};
/// let mut rng = SplitMix64::new(7);
/// let a = Matrix::random(&mut rng, 96, 96);
/// let fp = lu_parallel(&a, 32).unwrap();
/// let fs = lu_blocked(&a, 32).unwrap();
/// assert_eq!(fp.lu.as_slice(), fs.lu.as_slice());
/// assert_eq!(fp.perm, fs.perm);
/// ```
pub fn lu_parallel(a: &Matrix, nb: usize) -> Result<LuFactorization, SingularMatrix> {
    lu_parallel_with(a, nb, auto_threads())
}

/// [`lu_parallel`] with an explicit worker count (1 = the in-place serial
/// pipeline, still faster than `lu_blocked` because it skips the block
/// copies). The result does not depend on `threads`.
pub fn lu_parallel_with(
    a: &Matrix,
    nb: usize,
    threads: usize,
) -> Result<LuFactorization, SingularMatrix> {
    assert!(nb > 0, "panel width must be positive");
    let mut lu = a.clone();
    let (m, n) = lu.shape();
    let mut perm: Vec<usize> = (0..m).collect();
    let mut sign = 1.0;
    let kmax = n.min(m);
    if kmax == 0 {
        return Ok(LuFactorization { lu, perm, sign });
    }
    let threads = threads.max(1);
    // Resolve the configuration once per factorization so every trailing
    // update and every panel (and hence the whole bitwise-deterministic
    // result) uses one variant even if the process-wide selection is
    // forced mid-call.
    let GemmConfig {
        blocking: blk,
        kernel: krn,
        ..
    } = GemmConfig::auto();
    let ld = n;
    let (mut abuf, mut bbuf) = (Vec::new(), Vec::new());

    // Factor panel 0 up front; every later panel is factored in lookahead.
    let kb0 = nb.min(kmax);
    // SAFETY: `lu` is exclusively borrowed here; the panel region is
    // in-bounds.
    let mut p_k = unsafe {
        factor_raw(
            lu.as_mut_slice().as_mut_ptr(),
            ld,
            m,
            kb0,
            PivotMode::Partial,
            krn.requires,
        )
    }?;

    let mut k = 0usize;
    loop {
        let kb = nb.min(kmax - k);
        sign *= permutation_sign(&p_k);
        let old: Vec<usize> = perm[k..].to_vec();
        for (i, &src) in p_k.iter().enumerate() {
            perm[k + i] = old[src];
        }
        let moved = p_k.iter().enumerate().any(|(i, &s)| i != s);
        let next_k = k + kb;
        let l00 = lu.block(k, k, kb, kb);
        let mut step = Step {
            ptr: SyncPtr(lu.as_mut_slice().as_mut_ptr()),
            ld,
            m,
            k,
            kb,
            l00: &l00,
            blk,
            krn,
            rows: moved.then_some(&p_k[..]),
            bands: Vec::new(),
            left: moved && k > 0,
            next: AtomicUsize::new(0),
        };
        if next_k >= kmax {
            // Last step: a wide matrix still owes the U row-panel right of
            // the factored order (no trailing rows remain).
            step.bands = split_bands(next_k, n, threads, blk.nc);
            // SAFETY: queue items are pairwise disjoint column ranges;
            // `run` joins before `lu` is used again.
            pool::global().run(threads.min(step.items()), &|_| unsafe { step.drain() });
            break;
        }

        // --- stripe S: the next panel's columns get their full step-k
        // update first (serial, on the caller), unblocking the lookahead ---
        let kb2 = nb.min(kmax - next_k);
        // SAFETY: exclusive access between pool joins.
        unsafe { step.columns(next_k, next_k + kb2, &mut abuf, &mut bbuf) };

        // --- lookahead: factor panel k+1 while draining the queue ---
        step.bands = split_bands(next_k + kb2, n, threads, blk.nc);
        let ptr = &step.ptr;
        // SAFETY: the panel writes rows next_k..m of the stripe columns
        // only; every queue item is disjoint from it.
        let panel = || unsafe {
            factor_raw(
                ptr.get().add(next_k * ld + next_k),
                ld,
                m - next_k,
                kb2,
                PivotMode::Partial,
                krn.requires,
            )
        };
        let panel_result = if step.items() == 0 {
            panel()
        } else {
            let slot: Mutex<Option<Result<Vec<usize>, SingularMatrix>>> = Mutex::new(None);
            pool::global().run(threads.min(step.items() + 1), &|w| {
                if w == 0 {
                    *slot.lock().unwrap() = Some(panel());
                }
                // SAFETY: queue items are pairwise disjoint and disjoint
                // from the panel; L10/U01 band rows are not written by any
                // other worker.
                unsafe { step.drain() };
            });
            slot.into_inner()
                .unwrap()
                .expect("pool worker 0 always factors the panel")
        };
        p_k = panel_result.map_err(|e| SingularMatrix {
            column: next_k + e.column,
        })?;
        k = next_k;
    }
    Ok(LuFactorization { lu, perm, sign })
}

/// The work of step `k` outside panel `k`, as a queue of column ranges
/// that pool workers claim through `next`.
struct Step<'a> {
    ptr: SyncPtr,
    ld: usize,
    m: usize,
    k: usize,
    kb: usize,
    l00: &'a Matrix,
    blk: GemmBlocking,
    krn: &'static Microkernel,
    /// Panel `k`'s row order, when it moved any row.
    rows: Option<&'a [usize]>,
    /// Column bands right of the stripe: row order, TRSM, GEMM.
    bands: Vec<(usize, usize)>,
    /// Whether the `[0, k)` block still owes the row order (the queue's
    /// last item).
    left: bool,
    next: AtomicUsize,
}

impl Step<'_> {
    /// Queue length: the bands plus the `[0, k)` block.
    fn items(&self) -> usize {
        self.bands.len() + usize::from(self.left)
    }

    /// Claim and run queue items until none remain.
    ///
    /// # Safety
    /// Rows `k..m` of every queued column range must be free of other
    /// writers and readers, and `L10` free of writers, until the queue is
    /// drained.
    unsafe fn drain(&self) {
        let (mut ab, mut bb) = (Vec::new(), Vec::new());
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if let Some(&(lo, hi)) = self.bands.get(i) {
                self.columns(lo, hi, &mut ab, &mut bb);
            } else if i == self.bands.len() && self.left {
                gather_chunk(
                    self.ptr.get(),
                    self.ld,
                    self.k,
                    self.rows.unwrap(),
                    0,
                    self.k,
                );
            } else {
                break;
            }
        }
    }

    /// Columns `lo..hi` right of panel `k`: apply the row order, then
    /// [`band_update`].
    ///
    /// # Safety
    /// As [`band_update`].
    unsafe fn columns(&self, lo: usize, hi: usize, ab: &mut Vec<f64>, bb: &mut Vec<f64>) {
        let ptr = self.ptr.get();
        if let Some(p) = self.rows {
            gather_chunk(ptr, self.ld, self.k, p, lo, hi);
        }
        band_update(
            ptr, self.ld, self.m, self.k, self.kb, lo, hi, self.l00, self.blk, self.krn, ab, bb,
        );
    }
}

/// One unit of trailing-update work for step `k`: columns `lo..hi` get
/// their U row-panel solved (`U01 <- L00^-1 A01`, via a contiguous copy so
/// the blocked TRSM kernel applies) and, if trailing rows remain, the GEMM
/// `C -= L10 * U01` written **in place** through the strided packed
/// kernel. Per-column arithmetic is independent of the band split, so any
/// banding yields bitwise-identical results.
///
/// # Safety
/// Caller must guarantee exclusive access to rows `k..m` of columns
/// `lo..hi` and that no thread writes rows `k+kb..m` of columns
/// `k..k+kb` (`L10`) during the call.
#[allow(clippy::too_many_arguments)]
unsafe fn band_update(
    ptr: *mut f64,
    ld: usize,
    m: usize,
    k: usize,
    kb: usize,
    lo: usize,
    hi: usize,
    l00: &Matrix,
    blk: GemmBlocking,
    krn: &Microkernel,
    abuf: &mut Vec<f64>,
    bbuf: &mut Vec<f64>,
) {
    let w = hi - lo;
    if w == 0 {
        return;
    }
    let mut v = Vec::with_capacity(kb * w);
    for i in 0..kb {
        v.extend_from_slice(std::slice::from_raw_parts(ptr.add((k + i) * ld + lo), w));
    }
    let mut u01 = Matrix::from_vec(kb, w, v);
    trsm_lower_left(l00, &mut u01, true);
    for i in 0..kb {
        std::slice::from_raw_parts_mut(ptr.add((k + i) * ld + lo), w).copy_from_slice(u01.row(i));
    }
    let next_k = k + kb;
    if next_k < m {
        let a = MatView::from_raw(ptr.add(next_k * ld + k) as *const f64, ld, m - next_k, kb);
        let b = MatView::of(&u01);
        update_region(
            ptr.add(next_k * ld + lo),
            ld,
            -1.0,
            a,
            b,
            blk,
            krn,
            abuf,
            bbuf,
        );
    }
}

/// Split columns `lo..hi` into contiguous bands: one `nc`-wide band per
/// chunk when serial (matching the serial GEMM tile walk), narrower bands
/// when parallel so the queue keeps `threads` workers busy alongside the
/// lookahead panel.
fn split_bands(lo: usize, hi: usize, threads: usize, nc: usize) -> Vec<(usize, usize)> {
    if hi <= lo {
        return Vec::new();
    }
    let w = hi - lo;
    let target = if threads <= 1 {
        nc
    } else {
        w.div_ceil(3 * threads).max(64).min(nc)
    };
    let mut bands = Vec::with_capacity(w.div_ceil(target));
    let mut c = lo;
    while c < hi {
        let e = (c + target).min(hi);
        bands.push((c, e));
        c = e;
    }
    bands
}

/// Cycle-following in-place gather: for every row index `i` of the panel,
/// row `row0+i`'s segment `[lo, hi)` receives the segment previously at
/// row `row0+p[i]`.
///
/// # Safety
/// Rows `row0..row0+p.len()`, columns `lo..hi` must be in-bounds and
/// exclusively owned by the caller; `p` must be a permutation.
unsafe fn gather_chunk(ptr: *mut f64, ld: usize, row0: usize, p: &[usize], lo: usize, hi: usize) {
    let w = hi - lo;
    if w == 0 {
        return;
    }
    let seg = |i: usize| std::slice::from_raw_parts_mut(ptr.add((row0 + i) * ld + lo), w);
    let mut tmp = vec![0.0f64; w];
    let mut visited = vec![false; p.len()];
    for s in 0..p.len() {
        if visited[s] || p[s] == s {
            visited[s] = true;
            continue;
        }
        tmp.copy_from_slice(seg(s));
        let mut i = s;
        loop {
            visited[i] = true;
            let j = p[i];
            if j == s {
                seg(i).copy_from_slice(&tmp);
                break;
            }
            let (di, sj) = (seg(i), seg(j));
            di.copy_from_slice(sj);
            i = j;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::test_blocking::{force_blocking, TEST_BLOCKINGS};
    use crate::lu::lu_blocked;
    use crate::SplitMix64;

    /// `lu_parallel_with` against `lu_blocked`, under the default blocking
    /// and under a `kc` shallower than the panel width.
    fn assert_bitwise(a: &Matrix, nb: usize, threads: usize) {
        for blk in TEST_BLOCKINGS {
            let _blk = force_blocking(blk);
            let fs = lu_blocked(a, nb).unwrap();
            let fp = lu_parallel_with(a, nb, threads).unwrap();
            let what = format!("nb={nb} threads={threads} {blk:?}");
            assert_eq!(fs.perm, fp.perm, "{what}");
            assert_eq!(fs.sign, fp.sign, "{what}");
            assert_eq!(fs.lu.as_slice(), fp.lu.as_slice(), "{what}");
        }
    }

    #[test]
    fn matches_blocked_bitwise_square() {
        let mut rng = SplitMix64::new(50);
        for n in [1, 2, 13, 64, 65, 130] {
            let a = Matrix::random(&mut rng, n, n);
            for nb in [1, 8, 32, 64, 200] {
                for threads in [1, 2, 4, 8] {
                    assert_bitwise(&a, nb, threads);
                }
            }
        }
    }

    #[test]
    fn matches_blocked_bitwise_rectangular() {
        let mut rng = SplitMix64::new(51);
        for (m, n) in [(90, 33), (33, 90), (128, 64), (64, 128), (100, 1), (1, 100)] {
            let a = Matrix::random(&mut rng, m, n);
            for nb in [8, 32, 64] {
                for threads in [1, 3, 6] {
                    assert_bitwise(&a, nb, threads);
                }
            }
        }
    }

    #[test]
    fn wilkinson_growth_matrix_bitwise() {
        // Worst-case element growth for partial pivoting: every step's
        // pivot choice and 2^k growth pattern must match exactly.
        let n = 70;
        let a = Matrix::from_fn(n, n, |i, j| {
            if j == n - 1 || i == j {
                1.0
            } else if i > j {
                -1.0
            } else {
                0.0
            }
        });
        for threads in [1, 2, 5, 8] {
            assert_bitwise(&a, 16, threads);
        }
    }

    #[test]
    fn near_singular_bitwise() {
        let mut rng = SplitMix64::new(52);
        let mut a = Matrix::random(&mut rng, 80, 80);
        // Make row 41 nearly a copy of row 17.
        for j in 0..80 {
            a[(41, j)] = a[(17, j)] * (1.0 + 1e-13);
        }
        for threads in [1, 4] {
            assert_bitwise(&a, 24, threads);
        }
    }

    #[test]
    fn singular_column_matches_blocked() {
        for zero_col in [0usize, 5, 37, 63] {
            let mut a = Matrix::identity(64);
            a[(zero_col, zero_col)] = 0.0;
            for blk in TEST_BLOCKINGS {
                let _blk = force_blocking(blk);
                let es = lu_blocked(&a, 16).unwrap_err();
                for threads in [1, 4] {
                    let ep = lu_parallel_with(&a, 16, threads).unwrap_err();
                    assert_eq!(es, ep, "zero_col={zero_col} threads={threads} {blk:?}");
                }
            }
        }
    }

    #[test]
    fn residual_stays_small() {
        let mut rng = SplitMix64::new(53);
        let a = Matrix::random(&mut rng, 150, 150);
        let f = lu_parallel_with(&a, 48, 4).unwrap();
        assert!(f.residual(&a) < 1e-11, "residual={}", f.residual(&a));
    }

    #[test]
    fn empty_and_degenerate_shapes() {
        for (m, n) in [(0, 0), (0, 4), (4, 0)] {
            let a = Matrix::zeros(m, n);
            let f = lu_parallel_with(&a, 8, 4).unwrap();
            assert_eq!(f.lu.shape(), (m, n));
            assert_eq!(f.perm.len(), m);
            assert_eq!(f.sign, 1.0);
        }
    }
}
