//! The register-blocked LU panel kernel, bitwise identical to the
//! right-looking rank-1 loop of [`lu_unblocked`](crate::lu::lu_unblocked).
//!
//! A right-looking panel factorization streams the whole `m x n` panel
//! once per column. Every element nevertheless receives one fixed
//! sequence of updates, `a_ij -= l_ik·u_kj` for `k` ascending, followed by
//! its own division when it becomes a multiplier. Left-looking order gives
//! each element that same sequence, so this kernel works left-looking in
//! chunks of 8 columns:
//!
//! 1. the chunk's rows above its diagonal (rows of `U`) take the earlier
//!    columns' updates one row at a time, `k` ascending;
//! 2. the rows below take them in a `R x 8` register block (`R` = 8 on
//!    AVX-512, 4 elsewhere), `k` ascending, written into a column-major
//!    scratch buffer of the chunk's height (24 KiB at 384 rows);
//! 3. the chunk is factored right-looking inside the scratch buffer, where
//!    the pivot search, the division and the in-chunk updates run down
//!    contiguous columns;
//! 4. the chunk is copied back and its row swaps are applied to the
//!    panel's other columns, in the order they were found.
//!
//! Three rules keep the bits of the rank-1 loop:
//!
//! * every update is a separate multiply and subtract, never a fused
//!   multiply-add (Rust does not contract `a - l*u`);
//! * an update whose multiplier is zero (`l != 0.0` is false, so `-0.0`
//!   skips too and NaN does not) leaves the element untouched, which is
//!   what keeps signed zeros and infinities identical;
//! * the pivot search keeps the strict-`>` first-maximum rule, so NaNs
//!   never win, a NaN on the diagonal stays the pivot, and ties go to the
//!   lowest row. Row swaps are pure data movement.
//!
//! The kernel serves three callers through [`PivotMode`]: the panels of
//! [`lu_parallel`](mod@crate::lu_parallel) (partial pivoting), the tournament's
//! candidate search (a zero column is skipped) and the tournament's pivot
//! block (no pivoting). The instruction set follows the GEMM's
//! [`selected_kernel`]: one generic body, re-compiled for AVX-512 or AVX2
//! or built portable. Only the register block's update has a second,
//! hand-written form, in zmm registers for AVX-512, because it beats the
//! generic update re-compiled for AVX-512 beyond the run-to-run spread
//! (about 3% on a 384 x 64 panel).

use crate::gemm::{selected_kernel, KernelRequirement};
use crate::lu::SingularMatrix;
use crate::matrix::Matrix;

/// Columns per left-looking chunk: one zmm row of the register block.
const CHUNK: usize = 8;

/// How the panel kernel chooses each column's pivot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PivotMode {
    /// Partial pivoting: the largest `|a_ik|` (first on ties) becomes the
    /// pivot; a column with no nonzero candidate returns
    /// [`SingularMatrix`].
    Partial,
    /// Partial pivoting that skips a column with no nonzero candidate: no
    /// swap, no elimination, and its entries below the diagonal are set to
    /// zero so they stay out of later columns' updates (even when they
    /// were NaN). Never fails; used to rank candidate rows.
    SkipZero,
    /// No row exchanges; a zero diagonal pivot returns [`SingularMatrix`].
    NoPivot,
}

/// Factor `a` in place: `P·A = L·U` with unit-lower `L` packed below the
/// diagonal and `U` on and above it, exactly as the rank-1 loop of
/// [`lu_unblocked`](crate::lu::lu_unblocked) would leave it. Returns the
/// row permutation in one-line notation (`perm[i]` is the original row now
/// at position `i`; the identity under [`PivotMode::NoPivot`]). On
/// [`SingularMatrix`] the contents of `a` are unspecified.
///
/// ```
/// use denselin::panel::{factor_in_place, PivotMode};
/// use denselin::{lu_unblocked, Matrix, SplitMix64};
/// let a = Matrix::random(&mut SplitMix64::new(3), 40, 12);
/// let mut lu = a.clone();
/// let perm = factor_in_place(&mut lu, PivotMode::Partial).unwrap();
/// let f = lu_unblocked(&a).unwrap();
/// assert_eq!(perm, f.perm);
/// assert_eq!(lu.as_slice(), f.lu.as_slice());
/// ```
pub fn factor_in_place(a: &mut Matrix, mode: PivotMode) -> Result<Vec<usize>, SingularMatrix> {
    let (m, n) = a.shape();
    // SAFETY: `a` is exclusively borrowed and the region is the whole
    // matrix; the selected kernel's ISA is supported by construction.
    unsafe {
        factor_raw(
            a.as_mut_slice().as_mut_ptr(),
            n,
            m,
            n,
            mode,
            selected_kernel().requires,
        )
    }
}

/// [`factor_in_place`] on the `m x n` panel at `ptr` of an `ld`-strided
/// row-major buffer, compiled for `isa`.
///
/// # Safety
/// The panel must be in-bounds, no other thread may touch it during the
/// call, and the host must support `isa`.
pub(crate) unsafe fn factor_raw(
    ptr: *mut f64,
    ld: usize,
    m: usize,
    n: usize,
    mode: PivotMode,
    isa: KernelRequirement,
) -> Result<Vec<usize>, SingularMatrix> {
    match isa {
        #[cfg(target_arch = "x86_64")]
        KernelRequirement::Avx512f => factor_avx512(ptr, ld, m, n, mode),
        #[cfg(target_arch = "x86_64")]
        KernelRequirement::Avx2Fma => factor_avx2(ptr, ld, m, n, mode),
        _ => factor_body::<4, false>(ptr, ld, m, n, mode),
    }
}

/// The body compiled for AVX-512F, with an 8-row register block.
///
/// # Safety
/// As [`factor_raw`]; the host must have AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn factor_avx512(
    ptr: *mut f64,
    ld: usize,
    m: usize,
    n: usize,
    mode: PivotMode,
) -> Result<Vec<usize>, SingularMatrix> {
    factor_body::<8, true>(ptr, ld, m, n, mode)
}

/// The body compiled for AVX2, with a 4-row register block.
///
/// # Safety
/// As [`factor_raw`]; the host must have AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn factor_avx2(
    ptr: *mut f64,
    ld: usize,
    m: usize,
    n: usize,
    mode: PivotMode,
) -> Result<Vec<usize>, SingularMatrix> {
    factor_body::<4, false>(ptr, ld, m, n, mode)
}

/// The kernel (see the module docs) with `R`-row register blocks, updated
/// in zmm registers when `ZMM` is set.
///
/// # Safety
/// As [`factor_raw`]; with `ZMM` the host must have AVX-512F.
#[inline(always)]
unsafe fn factor_body<const R: usize, const ZMM: bool>(
    ptr: *mut f64,
    ld: usize,
    m: usize,
    n: usize,
    mode: PivotMode,
) -> Result<Vec<usize>, SingularMatrix> {
    let mut perm: Vec<usize> = (0..m).collect();
    let row = |i: usize| ptr.add(i * ld);
    // `ubuf` holds the finished U rows of the current chunk, zero-padded to
    // CHUNK columns; `scratch` the chunk's rows below its diagonal,
    // column-major with the chunk's height as stride.
    let mut ubuf = vec![0.0f64; CHUNK * m.min(n)];
    let mut scratch = vec![0.0f64; CHUNK * m];
    let mut swaps: Vec<(usize, usize)> = Vec::with_capacity(CHUNK);
    let mut c0 = 0;
    while c0 < n {
        let w = CHUNK.min(n - c0);
        let done = c0.min(m);

        // (1) rows of U: row i takes the updates of rows 0..i, which are
        // final by the time it is reached
        for i in 0..done {
            let mut acc = [load_chunk(row(i).add(c0), w)];
            apply_left::<1, ZMM>(&mut acc, row(i), ld, &ubuf, i);
            store_chunk(row(i).add(c0), w, &acc[0]);
            ubuf[i * CHUNK..(i + 1) * CHUNK].copy_from_slice(&acc[0]);
        }
        if c0 >= m {
            c0 += w;
            continue;
        }

        // (2) rows below: every earlier column's update, into the scratch
        let h = m - c0;
        let s = scratch.as_mut_ptr();
        let mut i = 0;
        while i + R <= h {
            let mut acc = [[0.0; CHUNK]; R];
            for (r, a) in acc.iter_mut().enumerate() {
                *a = load_chunk(row(c0 + i + r).add(c0), w);
            }
            apply_left::<R, ZMM>(&mut acc, row(c0 + i), ld, &ubuf, done);
            for (r, a) in acc.iter().enumerate() {
                for (j, &x) in a[..w].iter().enumerate() {
                    *s.add(j * h + i + r) = x;
                }
            }
            i += R;
        }
        while i < h {
            let mut acc = [load_chunk(row(c0 + i).add(c0), w)];
            apply_left::<1, ZMM>(&mut acc, row(c0 + i), ld, &ubuf, done);
            for (j, &x) in acc[0][..w].iter().enumerate() {
                *s.add(j * h + i) = x;
            }
            i += 1;
        }

        // (3) factor the chunk right-looking inside the scratch
        let col = |j: usize| s.add(j * h);
        swaps.clear();
        for kk in 0..w.min(h) {
            let below = h - kk - 1;
            let p = match mode {
                PivotMode::NoPivot => {
                    if *col(kk).add(kk) == 0.0 {
                        return Err(SingularMatrix { column: c0 + kk });
                    }
                    kk
                }
                PivotMode::Partial | PivotMode::SkipZero => {
                    let (off, best) =
                        first_max(std::slice::from_raw_parts(col(kk).add(kk), below + 1));
                    if best == 0.0 {
                        if mode == PivotMode::Partial {
                            return Err(SingularMatrix { column: c0 + kk });
                        }
                        std::slice::from_raw_parts_mut(col(kk).add(kk + 1), below).fill(0.0);
                        continue;
                    }
                    kk + off
                }
            };
            if p != kk {
                for j in 0..w {
                    std::ptr::swap(col(j).add(kk), col(j).add(p));
                }
                swaps.push((c0 + kk, c0 + p));
                perm.swap(c0 + kk, c0 + p);
            }
            let pivot = *col(kk).add(kk);
            let lcol = std::slice::from_raw_parts_mut(col(kk).add(kk + 1), below);
            for l in lcol.iter_mut() {
                *l /= pivot;
            }
            let lcol = &*lcol;
            for j in kk + 1..w {
                let u = *col(j).add(kk);
                let cj = std::slice::from_raw_parts_mut(col(j).add(kk + 1), below);
                for (c, &l) in cj.iter_mut().zip(lcol) {
                    let t = *c;
                    *c = if l != 0.0 { t - l * u } else { t };
                }
            }
        }

        // (4) the chunk goes back; its swaps reach the panel's other columns
        for i in 0..h {
            let dst = row(c0 + i).add(c0);
            for j in 0..w {
                *dst.add(j) = *col(j).add(i);
            }
        }
        for &(a, b) in &swaps {
            let (ra, rb) = (row(a), row(b));
            std::ptr::swap_nonoverlapping(ra, rb, c0);
            std::ptr::swap_nonoverlapping(ra.add(c0 + w), rb.add(c0 + w), n - c0 - w);
        }
        c0 += w;
    }
    Ok(perm)
}

/// `acc[r] -= l[r][k] · u[k]` for `k` in `0..kend` ascending, where row
/// `r`'s multipliers start at `l + r·ld` and `u[k]` is the `k`-th padded
/// row of `ubuf`; a zero multiplier leaves the row untouched (a masked
/// subtract of the separately rounded product).
///
/// # Safety
/// `l` must address `R` rows of at least `kend` readable elements; with
/// `ZMM` the host must have AVX-512F.
#[inline(always)]
unsafe fn apply_left<const R: usize, const ZMM: bool>(
    acc: &mut [[f64; CHUNK]; R],
    l: *const f64,
    ld: usize,
    ubuf: &[f64],
    kend: usize,
) {
    debug_assert!(ubuf.len() >= kend * CHUNK);
    #[cfg(target_arch = "x86_64")]
    if ZMM {
        return apply_left_avx512(acc, l, ld, ubuf.as_ptr(), kend);
    }
    // The generic update: the block lives in locals, and the new row is
    // computed whole and then kept or dropped, a form the compiler turns
    // into a vector multiply, subtract and blend.
    let mut v = *acc;
    for (k, u) in ubuf[..kend * CHUNK].chunks_exact(CHUNK).enumerate() {
        for (r, a) in v.iter_mut().enumerate() {
            let lrk = *l.add(r * ld + k);
            let mut d = [0.0; CHUNK];
            for ((d, &x), &uj) in d.iter_mut().zip(a.iter()).zip(u) {
                *d = x - lrk * uj;
            }
            let keep = lrk != 0.0;
            for (x, &dj) in a.iter_mut().zip(&d) {
                *x = if keep { dj } else { *x };
            }
        }
    }
    *acc = v;
}

/// [`apply_left`] in zmm registers: one row of the block per register.
///
/// # Safety
/// As [`apply_left`]; the host must have AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn apply_left_avx512<const R: usize>(
    acc: &mut [[f64; CHUNK]; R],
    l: *const f64,
    ld: usize,
    u: *const f64,
    kend: usize,
) {
    use std::arch::x86_64::*;
    let zero = _mm512_setzero_pd();
    let mut v = [zero; R];
    for (x, a) in v.iter_mut().zip(acc.iter()) {
        *x = _mm512_loadu_pd(a.as_ptr());
    }
    for k in 0..kend {
        let uk = _mm512_loadu_pd(u.add(k * CHUNK));
        for (r, x) in v.iter_mut().enumerate() {
            let lb = _mm512_set1_pd(*l.add(r * ld + k));
            let nz = _mm512_cmp_pd_mask::<_CMP_NEQ_UQ>(lb, zero);
            *x = _mm512_mask_sub_pd(*x, nz, *x, _mm512_mul_pd(lb, uk));
        }
    }
    for (x, a) in v.iter().zip(acc.iter_mut()) {
        _mm512_storeu_pd(a.as_mut_ptr(), *x);
    }
}

/// The first `w` elements at `p`, zero-padded to a full chunk.
///
/// # Safety
/// `p` must address `w <= CHUNK` readable elements.
#[inline(always)]
unsafe fn load_chunk(p: *const f64, w: usize) -> [f64; CHUNK] {
    if w == CHUNK {
        return *(p as *const [f64; CHUNK]);
    }
    let mut a = [0.0; CHUNK];
    a[..w].copy_from_slice(std::slice::from_raw_parts(p, w));
    a
}

/// Write the first `w` elements of `a` to `p`.
///
/// # Safety
/// `p` must address `w <= CHUNK` writable elements.
#[inline(always)]
unsafe fn store_chunk(p: *mut f64, w: usize, a: &[f64; CHUNK]) {
    std::ptr::copy_nonoverlapping(a.as_ptr(), p, w);
}

/// The rank-1 loop's pivot rule on a column: starting from `|x[0]|`, take
/// each later `|x[i]|` that is strictly greater. Returns the offset and
/// magnitude it ends on. Evaluated lane-wise (each lane keeps its own
/// strict-`>` first maximum, lanes are merged by value then lowest
/// offset), which ends on the same element: NaN never compares greater, so
/// the scan ends on the first maximum of the non-NaN magnitudes, unless
/// `x[0]` itself is NaN, which nothing beats.
#[inline(always)]
fn first_max(x: &[f64]) -> (usize, f64) {
    const LANES: usize = 8;
    let x0 = x[0].abs();
    if x0.is_nan() {
        return (0, x0);
    }
    let mut lane_best = [-1.0f64; LANES];
    let mut lane_at = [0usize; LANES];
    let body = x.len() / LANES * LANES;
    for (b, blk) in x[..body].chunks_exact(LANES).enumerate() {
        for (l, &v) in blk.iter().enumerate() {
            let v = v.abs();
            if v > lane_best[l] {
                lane_best[l] = v;
                lane_at[l] = b * LANES + l;
            }
        }
    }
    let (mut at, mut best) = (0, x0);
    for (&v, &i) in lane_best.iter().zip(&lane_at) {
        if v > best || (v == best && i < at) {
            best = v;
            at = i;
        }
    }
    for (i, &v) in x.iter().enumerate().skip(body) {
        let v = v.abs();
        if v > best {
            best = v;
            at = i;
        }
    }
    (at, best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_max_keeps_the_scalar_rule() {
        let nan = f64::NAN;
        for (x, want) in [
            (vec![1.0, -3.0, 3.0, 2.0], 1),
            (vec![nan, 5.0, 6.0], 0),
            (vec![0.0, nan, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], 0),
            (vec![1.0; 20], 0),
            (
                vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 7.0, -9.0, 9.0, 1.0],
                9,
            ),
        ] {
            assert_eq!(first_max(&x).0, want, "{x:?}");
        }
    }
}
