//! Packed, register-blocked general matrix-matrix multiplication.
//!
//! This is the BLAS-3 substitute used by every LU implementation in the
//! workspace. It follows the classic BLIS/GotoBLAS decomposition:
//!
//! * the operands are cut into `(mc, kc, nc)` cache blocks
//!   ([`GemmBlocking`]; every configured product runs the one fixed
//!   [`GemmBlocking::default`], so a given kernel gives the same bits on
//!   every host),
//! * `A` blocks are packed into column-major `mr`-row micro-panels and `B`
//!   blocks into row-major `nr`-column micro-panels of the selected
//!   microkernel's geometry, so the innermost loop streams both operands
//!   contiguously,
//! * a register-blocked `mr x nr` microkernel keeps a full tile of `C` in
//!   registers across the whole `kc` reduction. The kernels form a
//!   macro-generated family registered in [`microkernels`]: portable
//!   shapes (4x4, 8x4, 6x8, 8x8) whose bodies LLVM autovectorizes for the
//!   baseline target, the same shapes re-compiled with AVX2+FMA codegen
//!   (runtime feature detection), and a hand-unrolled 8x16 zmm-register
//!   AVX-512 kernel (explicit `_mm512_fmadd_pd` intrinsics, software
//!   prefetch of the packed `A` stream): the wider tile halves the
//!   packed-`A` bandwidth per flop, which is the binding constraint once
//!   the panel no longer fits L1. Dispatch consults [`selected_kernel`]
//!   (a live [`force_kernel`] guard, else the fastest supported ISA).
//!
//! Fringe tiles smaller than `mr x nr` are handled by zero-padding the
//! packed panels and a generic-size edge writeback. Tiles whose `B` is at
//! most `THIN_WIDTH` (10) columns wide (a solve or residual with a few
//! right-hand sides) skip packing altogether: a thin body, monomorphized
//! per width, reads rows of `A` in place and rows of `B` by stride, holding
//! a group of 2 to 8 rows (`thin_rows`, by width) x `w` columns of
//! accumulators — a packed `nr`-wide panel would be mostly zero padding,
//! and packing would read `A` twice.
//!
//! Every variant shares one arithmetic contract — per-element accumulation
//! order depends only on the `kc` split and the variant's fused/unfused
//! reduction class, never on the register or cache tiling — so the scalar
//! [`gemm_emulated`] oracle predicts each variant's output bitwise and the
//! parity test layer (`tests/microkernels.rs`) pins every table entry to
//! it exhaustively.
//!
//! Every product goes through one configured entry, [`gemm_with`], whose
//! [`GemmConfig`] carries the thread count, the blocking and the
//! microkernel, and which accumulates into an offset region of `C` in
//! place; [`gemm_auto`] is that entry under [`GemmConfig::auto`].
//!
//! Parallelism is a work-stealing tile queue: the `(mc, nc)` macro-tiles of
//! `C` form a shared queue (an atomic counter) drained by the persistent
//! [`crate::pool`] worker threads (parked between calls, so a blocked
//! factorization pays one pool wakeup per trailing update instead of one
//! thread spawn per call). Each tile performs its own full-`k` reduction in
//! the same block order as the serial path, so parallel results are bitwise
//! identical to serial ones.
//!
//! Internally the packing and tile-update machinery operates on *strided
//! views* (`MatView`) rather than owned [`Matrix`] values, so in-place
//! consumers run their updates directly on submatrices of a live buffer
//! without block copies: the lookahead LU in
//! [`lu_parallel`][mod@crate::lu_parallel] on the factored buffer, and the
//! blocked sweeps of [`crate::trsm`] on the right-hand sides. They go
//! through `update_region` (serial) or `parallel_region` (the tile queue),
//! picked by `update_with`, the one serial-vs-parallel rule behind
//! [`gemm_with`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::matrix::Matrix;
use crate::pool;

/// A read-only strided view of a row-major block, the operand form of the
/// packing routines. Carries a raw pointer so disjoint regions of one live
/// buffer can be viewed while another region is concurrently written (the
/// lookahead LU pipeline does exactly that); every read is `unsafe` and the
/// creator vouches that the viewed region stays immutable for the view's
/// whole use.
#[derive(Clone, Copy)]
pub(crate) struct MatView {
    ptr: *const f64,
    ld: usize,
    rows: usize,
    cols: usize,
}

// SAFETY: a MatView is a bundle of pointer + dims; the creator guarantees
// the viewed region is not mutated while any thread reads through it.
unsafe impl Send for MatView {}
unsafe impl Sync for MatView {}

impl MatView {
    /// View an entire matrix.
    pub(crate) fn of(m: &Matrix) -> MatView {
        MatView {
            ptr: m.as_slice().as_ptr(),
            ld: m.cols().max(1),
            rows: m.rows(),
            cols: m.cols(),
        }
    }

    /// View a `rows x cols` region of an `ld`-strided row-major buffer.
    ///
    /// # Safety
    /// `ptr` must point at the region's top-left element of a live buffer
    /// with row stride `ld`, the region must stay in-bounds, and no thread
    /// may write any element inside the region while the view is in use.
    pub(crate) unsafe fn from_raw(ptr: *const f64, ld: usize, rows: usize, cols: usize) -> MatView {
        MatView {
            ptr,
            ld,
            rows,
            cols,
        }
    }

    /// Columns of the viewed region.
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// The `rows x cols` sub-region of this view whose top-left corner is
    /// `(r0, c0)`, under the same immutability contract.
    ///
    /// # Panics
    /// Panics if the sub-region falls outside the view.
    pub(crate) fn sub(self, r0: usize, c0: usize, rows: usize, cols: usize) -> MatView {
        assert!(
            r0 + rows <= self.rows && c0 + cols <= self.cols,
            "view out of bounds"
        );
        MatView {
            ptr: self.ptr.wrapping_add(r0 * self.ld + c0),
            ld: self.ld,
            rows,
            cols,
        }
    }

    /// Row `i` of the region as a slice.
    ///
    /// # Safety
    /// `i < self.rows()`, plus the region-immutability contract of the
    /// view's constructor.
    #[inline]
    unsafe fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        std::slice::from_raw_parts(self.ptr.add(i * self.ld), self.cols)
    }
}

/// Rows of `C` held in registers by the default (8x4) microkernel shape.
/// Individual [`Microkernel`] variants carry their own `mr`.
pub const MR: usize = 8;
/// Columns of `C` held in registers by the default (8x4) microkernel
/// shape; the AVX-512 kernel widens to [`NR_AVX512`]. Individual
/// [`Microkernel`] variants carry their own `nr`.
pub const NR: usize = 4;
/// Columns of `C` per microkernel invocation for the AVX-512 kernel: two
/// zmm vectors wide, so sixteen zmm accumulators cover the 8x16 tile.
pub const NR_AVX512: usize = 16;

/// CPU features a [`Microkernel`] needs before it may be dispatched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelRequirement {
    /// Runs on the baseline target; always dispatchable.
    Baseline,
    /// Needs runtime-detected AVX2 and FMA (x86/x86-64 only).
    Avx2Fma,
    /// Needs runtime-detected AVX-512F (x86-64 only).
    Avx512f,
}

/// Uniform microkernel entry point: accumulate the `kc`-deep reduction of
/// one packed-`A` panel times one packed-`B` panel into the `mr_eff x
/// nr_eff` tile of `C` at `ctile` as `C += alpha * (A_panel * B_panel)`.
///
/// Safety contract (every registered kernel): `ap`/`bp` must hold at least
/// `kc*mr` / `kc*nr` elements of the kernel's own (mr, nr) geometry, rows
/// `0..mr_eff` x columns `0..nr_eff` of the `ldc`-strided `ctile` must be
/// in-bounds with no concurrent access, and the host must support the
/// kernel's [`KernelRequirement`].
type UkernelFn = unsafe fn(usize, *const f64, *const f64, *mut f64, usize, f64, usize, usize);

/// One register-blocked microkernel variant in the generated family. The
/// packer and the blocking sweep read `(mr, nr)` so tile geometry always
/// follows the selected variant; `fused` records the reduction's rounding
/// class (fused multiply-add vs separate mul+add), which is all
/// [`gemm_emulated`] needs to predict the variant's output bitwise.
#[derive(Debug)]
pub struct Microkernel {
    /// Stable identifier, e.g. `portable_8x4`, `avx2_8x8`, `avx512_8x16`.
    pub name: &'static str,
    /// Rows of `C` per register tile.
    pub mr: usize,
    /// Columns of `C` per register tile (= packed-`B` micro-panel width).
    pub nr: usize,
    /// CPU features the kernel needs at runtime.
    pub requires: KernelRequirement,
    /// Whether the `kc` reduction fuses multiply-add (one rounding per
    /// step) or rounds the product and the sum separately.
    pub fused: bool,
    func: UkernelFn,
}

impl Microkernel {
    /// Whether this kernel may be dispatched on the current host.
    pub fn supported(&self) -> bool {
        match self.requires {
            KernelRequirement::Baseline => true,
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            KernelRequirement::Avx2Fma => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(target_arch = "x86_64")]
            KernelRequirement::Avx512f => std::arch::is_x86_feature_detected!("avx512f"),
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    /// Look a variant up by its stable name.
    pub fn by_name(name: &str) -> Option<&'static Microkernel> {
        microkernels().iter().find(|k| k.name == name)
    }

    /// Invoke the kernel (see [`UkernelFn`] for the safety contract).
    ///
    /// # Safety
    /// As documented on [`UkernelFn`]; additionally [`Self::supported`]
    /// must be true.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub(crate) unsafe fn run(
        &self,
        kc: usize,
        ap: *const f64,
        bp: *const f64,
        ctile: *mut f64,
        ldc: usize,
        alpha: f64,
        mr_eff: usize,
        nr_eff: usize,
    ) {
        (self.func)(kc, ap, bp, ctile, ldc, alpha, mr_eff, nr_eff)
    }
}

/// aarch64 has FMA (`fmla`) in its baseline ISA, so portable kernels fuse
/// unconditionally there; elsewhere plain mul+add avoids a libm `fma` call
/// on targets without hardware FMA.
const PORTABLE_FUSED: bool = cfg!(target_arch = "aarch64");

/// Generates one microkernel shape: the register-blocked reduction body
/// (generic over the fuse flag), a portable entry point, and an AVX2+FMA
/// re-compilation of the same body (x86/x86-64 only; LLVM autovectorizes
/// the accumulator block into ymm FMAs). The literal `mr`/`nr` keep the
/// accumulator a true fixed-size register tile.
macro_rules! define_microkernel_shape {
    ($body:ident, $portable:ident, $avx2:ident, $mr:literal, $nr:literal) => {
        #[inline(always)]
        fn $body<const FUSE: bool>(kc: usize, ap: &[f64], bp: &[f64]) -> [f64; $mr * $nr] {
            debug_assert!(ap.len() >= kc * $mr && bp.len() >= kc * $nr);
            let mut acc = [0.0f64; $mr * $nr];
            for kk in 0..kc {
                let av = &ap[kk * $mr..kk * $mr + $mr];
                let bv = &bp[kk * $nr..kk * $nr + $nr];
                for r in 0..$mr {
                    let ar = av[r];
                    for cc in 0..$nr {
                        let t = acc[r * $nr + cc];
                        acc[r * $nr + cc] = if FUSE {
                            ar.mul_add(bv[cc], t)
                        } else {
                            ar * bv[cc] + t
                        };
                    }
                }
            }
            acc
        }

        /// SAFETY: per the [`UkernelFn`] contract.
        #[allow(clippy::too_many_arguments)]
        unsafe fn $portable(
            kc: usize,
            ap: *const f64,
            bp: *const f64,
            ctile: *mut f64,
            ldc: usize,
            alpha: f64,
            mr_eff: usize,
            nr_eff: usize,
        ) {
            let ap = std::slice::from_raw_parts(ap, kc * $mr);
            let bp = std::slice::from_raw_parts(bp, kc * $nr);
            let acc = $body::<PORTABLE_FUSED>(kc, ap, bp);
            writeback_dyn(ctile, ldc, mr_eff, nr_eff, alpha, &acc, $nr);
        }

        /// SAFETY: per the [`UkernelFn`] contract; host must have AVX2+FMA.
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        #[target_feature(enable = "avx2", enable = "fma")]
        #[allow(clippy::too_many_arguments)]
        unsafe fn $avx2(
            kc: usize,
            ap: *const f64,
            bp: *const f64,
            ctile: *mut f64,
            ldc: usize,
            alpha: f64,
            mr_eff: usize,
            nr_eff: usize,
        ) {
            let ap = std::slice::from_raw_parts(ap, kc * $mr);
            let bp = std::slice::from_raw_parts(bp, kc * $nr);
            let acc = $body::<true>(kc, ap, bp);
            writeback_dyn(ctile, ldc, mr_eff, nr_eff, alpha, &acc, $nr);
        }
    };
}

define_microkernel_shape!(body_4x4, portable_4x4_uk, avx2_4x4_uk, 4, 4);
define_microkernel_shape!(body_8x4, portable_8x4_uk, avx2_8x4_uk, 8, 4);
define_microkernel_shape!(body_6x8, portable_6x8_uk, avx2_6x8_uk, 6, 8);
define_microkernel_shape!(body_8x8, portable_8x8_uk, avx2_8x8_uk, 8, 8);

/// The registered microkernel family: every generated portable shape, the
/// AVX2+FMA re-compilations (x86/x86-64), and the hand-unrolled AVX-512
/// 8x16 kernel (x86-64). The table is the single source of truth the
/// dispatcher, the parity tests, and the verifier's forced-dispatch
/// scenarios all iterate.
pub fn microkernels() -> &'static [Microkernel] {
    static TABLE: OnceLock<Vec<Microkernel>> = OnceLock::new();
    TABLE.get_or_init(|| {
        macro_rules! entry {
            ($name:literal, $mr:literal, $nr:literal, $req:expr, $fused:expr, $func:ident) => {
                Microkernel {
                    name: $name,
                    mr: $mr,
                    nr: $nr,
                    requires: $req,
                    fused: $fused,
                    func: $func,
                }
            };
        }
        use KernelRequirement::*;
        let mut t = vec![
            entry!(
                "portable_4x4",
                4,
                4,
                Baseline,
                PORTABLE_FUSED,
                portable_4x4_uk
            ),
            entry!(
                "portable_8x4",
                8,
                4,
                Baseline,
                PORTABLE_FUSED,
                portable_8x4_uk
            ),
            entry!(
                "portable_6x8",
                6,
                8,
                Baseline,
                PORTABLE_FUSED,
                portable_6x8_uk
            ),
            entry!(
                "portable_8x8",
                8,
                8,
                Baseline,
                PORTABLE_FUSED,
                portable_8x8_uk
            ),
        ];
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        t.extend([
            entry!("avx2_4x4", 4, 4, Avx2Fma, true, avx2_4x4_uk),
            entry!("avx2_8x4", 8, 4, Avx2Fma, true, avx2_8x4_uk),
            entry!("avx2_6x8", 6, 8, Avx2Fma, true, avx2_6x8_uk),
            entry!("avx2_8x8", 8, 8, Avx2Fma, true, avx2_8x8_uk),
        ]);
        #[cfg(target_arch = "x86_64")]
        t.push(entry!(
            "avx512_8x16",
            8,
            16,
            Avx512f,
            true,
            microkernel_avx512
        ));
        t
    })
}

/// Names of every registered variant, for diagnostics.
fn kernel_names() -> Vec<&'static str> {
    microkernels().iter().map(|k| k.name).collect()
}

/// The fastest variant the host supports: the AVX-512 `8x16` kernel, else
/// AVX2 `8x4`, else portable `8x4`. What [`selected_kernel`] dispatches
/// when no [`force_kernel`] guard is alive. Resolved once per process.
pub fn default_isa_kernel() -> &'static Microkernel {
    static DEFAULT: OnceLock<&'static Microkernel> = OnceLock::new();
    DEFAULT.get_or_init(|| {
        ["avx512_8x16", "avx2_8x4", "portable_8x4"]
            .into_iter()
            .filter_map(Microkernel::by_name)
            .find(|k| k.supported())
            .unwrap_or(&microkernels()[0])
    })
}

/// Index into [`microkernels`] of the process-wide forced variant, or
/// `usize::MAX` when no force is active.
static FORCED_KERNEL: AtomicUsize = AtomicUsize::new(usize::MAX);
/// Serializes forcers: at most one [`KernelForce`] guard exists at a time.
static FORCE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// RAII guard from [`force_kernel`]: while alive, every dispatch that
/// consults [`selected_kernel`] uses the forced variant; dropping it
/// restores the default selection. At most one guard exists at a time
/// (a second [`force_kernel`] call blocks), so differential tests that
/// force variants serialize against each other.
pub struct KernelForce {
    _lock: std::sync::MutexGuard<'static, ()>,
}

impl std::fmt::Debug for KernelForce {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelForce")
            .field("kernel", &selected_kernel().name)
            .finish()
    }
}

impl Drop for KernelForce {
    fn drop(&mut self) {
        FORCED_KERNEL.store(usize::MAX, Ordering::Release);
    }
}

/// Force every subsequent [`selected_kernel`] consultation to the named
/// variant until the returned guard drops. Errors on unknown names and on
/// variants the host cannot run (callers degrade gracefully, e.g. the
/// verifier records a skip). Do not call re-entrantly from one thread —
/// the serializing lock would self-deadlock.
pub fn force_kernel(name: &str) -> Result<KernelForce, String> {
    let idx = microkernels()
        .iter()
        .position(|k| k.name == name)
        .ok_or_else(|| {
            format!(
                "unknown microkernel `{name}` (registered: {})",
                kernel_names().join(", ")
            )
        })?;
    if !microkernels()[idx].supported() {
        return Err(format!(
            "microkernel `{name}` is not supported on this host"
        ));
    }
    let lock = FORCE_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    FORCED_KERNEL.store(idx, Ordering::Release);
    Ok(KernelForce { _lock: lock })
}

/// Where the blocking or the kernel that [`GemmConfig::auto`] runs came
/// from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TuneSource {
    /// A live [`force_kernel`] guard (kernel selection only).
    Forced,
    /// The built-in choice: [`GemmBlocking::default`] or
    /// [`default_isa_kernel`].
    Heuristic,
}

impl TuneSource {
    /// Stable lowercase token for logs and bench JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            TuneSource::Forced => "forced",
            TuneSource::Heuristic => "heuristic",
        }
    }
}

/// The microkernel [`GemmConfig::auto`] dispatches right now: the variant
/// of a live [`force_kernel`] guard, else [`default_isa_kernel`].
pub fn selected_kernel() -> &'static Microkernel {
    selected_kernel_with_source().0
}

/// [`selected_kernel`] plus where the decision came from.
pub fn selected_kernel_with_source() -> (&'static Microkernel, TuneSource) {
    match FORCED_KERNEL.load(Ordering::Acquire) {
        usize::MAX => (default_isa_kernel(), TuneSource::Heuristic),
        forced => (&microkernels()[forced], TuneSource::Forced),
    }
}

/// Cache-blocking parameters of the packed GEMM.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GemmBlocking {
    /// Rows of `A`/`C` per macro-tile (packed-`A` panel height).
    pub mc: usize,
    /// Inner (reduction) dimension per block (packed panel depth).
    pub kc: usize,
    /// Columns of `B`/`C` per macro-tile (packed-`B` panel width).
    pub nc: usize,
}

impl Default for GemmBlocking {
    fn default() -> Self {
        // ~L2-resident packed A (mc*kc*8 = 256 KB) and an L3-resident
        // packed B panel; sensible on commodity x86-64 and aarch64.
        Self {
            mc: 128,
            kc: 256,
            nc: 512,
        }
    }
}

impl GemmBlocking {
    /// The blocking [`GemmConfig::auto`] runs and where it came from:
    /// always [`GemmBlocking::default`], so the reduction order, and with
    /// it every factor's bits, is the same on every host.
    pub fn tuned_with_source() -> (Self, TuneSource) {
        (Self::default(), TuneSource::Heuristic)
    }
}

/// Test-only: a per-thread blocking for [`GemmConfig::auto`]. The parity
/// tests use it to reach `nb > kc` through `lu_blocked`, `lu_parallel` and
/// the TRSM sweeps, which take no configuration. It is per thread, and
/// pool jobs inherit their submitter's, so it cannot change the bits of a
/// test running beside it.
#[cfg(test)]
pub(crate) mod test_blocking {
    use super::GemmBlocking;
    use std::cell::Cell;

    thread_local! {
        static FORCED: Cell<Option<GemmBlocking>> = const { Cell::new(None) };
    }

    /// The blockings the parity tests run under: the default, and a
    /// shallow, misaligned one whose `kc = 3` splits every reduction into
    /// many write-backs.
    pub(crate) const TEST_BLOCKINGS: [Option<GemmBlocking>; 2] = [
        None,
        Some(GemmBlocking {
            mc: 7,
            kc: 3,
            nc: 5,
        }),
    ];

    /// RAII guard from [`force_blocking`]; dropping it restores the
    /// thread's previous blocking.
    pub(crate) struct BlockingForce {
        prev: Option<GemmBlocking>,
    }

    impl Drop for BlockingForce {
        fn drop(&mut self) {
            FORCED.with(|b| b.set(self.prev));
        }
    }

    /// Run [`super::GemmConfig::auto`] under `blk` (`None`: the default)
    /// on this thread until the guard drops.
    pub(crate) fn force_blocking(blk: Option<GemmBlocking>) -> BlockingForce {
        BlockingForce {
            prev: FORCED.with(|b| b.replace(blk)),
        }
    }

    /// This thread's forced blocking, if any.
    pub(crate) fn forced_blocking() -> Option<GemmBlocking> {
        FORCED.with(|b| b.get())
    }
}

/// The settings of one [`gemm_with`] call.
#[derive(Clone, Copy, Debug)]
pub struct GemmConfig {
    /// Workers of the process-wide [`crate::pool`] the product may fan out
    /// over (from a volume of 128³ on); 1 keeps it on the calling thread.
    pub threads: usize,
    /// Cache blocking; its `kc` fixes every element's accumulation order.
    pub blocking: GemmBlocking,
    /// Microkernel variant; must be [`Microkernel::supported`] here.
    pub kernel: &'static Microkernel,
}

impl GemmConfig {
    /// What [`gemm_auto`] runs: [`auto_threads`] workers, the
    /// [`GemmBlocking::default`] blocking and the [`selected_kernel`], all
    /// read at the time of the call.
    pub fn auto() -> Self {
        #[cfg(test)]
        let blocking = test_blocking::forced_blocking().unwrap_or_default();
        #[cfg(not(test))]
        let blocking = GemmBlocking::default();
        Self {
            threads: auto_threads(),
            blocking,
            kernel: selected_kernel(),
        }
    }

    /// [`Self::auto`] on the calling thread alone.
    pub fn serial() -> Self {
        Self {
            threads: 1,
            ..Self::auto()
        }
    }
}

/// `C[r0.., c0..] <- alpha * A * B + beta * C[r0.., c0..]` on the
/// `a.rows() x b.cols()` region of `c` whose top-left corner is `(r0, c0)`,
/// under `cfg`: the one configured GEMM entry. The product accumulates into
/// the region in place, with no temporary for `A * B`, and the rest of `c`
/// is left alone.
///
/// Every element of the region gets one `c += alpha * acc` writeback per
/// `kc` block of the reduction, so the result is bitwise what
/// [`gemm_emulated`] predicts from `cfg.blocking.kc` and
/// `cfg.kernel.fused`, at every thread count.
///
/// ```
/// use denselin::{gemm_with, GemmConfig, Matrix};
/// let mut c = Matrix::zeros(4, 4);
/// let i2 = Matrix::identity(2);
/// gemm_with(&mut c, (1, 2), 1.0, &i2, &i2, 0.0, &GemmConfig::serial());
/// assert_eq!(c[(1, 2)], 1.0);
/// assert_eq!(c[(2, 3)], 1.0);
/// ```
///
/// # Panics
/// Panics if the inner dimensions differ, the region falls outside `c`,
/// or `cfg.kernel` is unsupported here.
pub fn gemm_with(
    c: &mut Matrix,
    (r0, c0): (usize, usize),
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    cfg: &GemmConfig,
) {
    let (m, k) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(k, kb, "gemm: inner dimensions must match");
    assert!(
        r0 + m <= c.rows() && c0 + n <= c.cols(),
        "gemm: region out of bounds"
    );
    assert!(
        cfg.kernel.supported(),
        "microkernel `{}` unsupported here",
        cfg.kernel.name
    );
    scale(c, (r0, c0), (m, n), beta);
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }
    let ldc = c.cols();
    let cptr = c.as_mut_slice()[r0 * ldc + c0..].as_mut_ptr();
    // SAFETY: the asserted bounds keep the `m x n` region at `cptr`
    // (row stride `ldc`) inside `c`, which this call borrows exclusively;
    // the views borrow `a`/`b`, which are not mutated here.
    unsafe {
        update_with(cptr, ldc, alpha, MatView::of(a), MatView::of(b), cfg);
    }
}

/// The pre-rewrite scalar macro-kernel path, kept as the reference
/// implementation: property tests compare the packed kernel against it and
/// `perfsmoke` reports the packed-vs-reference speedup.
pub fn gemm_reference(c: &mut Matrix, alpha: f64, a: &Matrix, b: &Matrix, beta: f64) {
    let (m, k) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(k, kb, "gemm: inner dimensions must match");
    assert_eq!(c.shape(), (m, n), "gemm: output shape must be (m, n)");

    scale(c, (0, 0), (m, n), beta);
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }
    let blk = GemmBlocking {
        mc: 64,
        kc: 128,
        nc: 256,
    };
    for kk in (0..k).step_by(blk.kc) {
        let kend = (kk + blk.kc).min(k);
        for ii in (0..m).step_by(blk.mc) {
            let iend = (ii + blk.mc).min(m);
            for jj in (0..n).step_by(blk.nc) {
                let jend = (jj + blk.nc).min(n);
                reference_macro_kernel(c, alpha, a, b, ii..iend, kk..kend, jj..jend);
            }
        }
    }
}

/// Scalar per-element oracle for the packed paths: predicts the exact
/// bits every registered [`Microkernel`] produces, because a C element's
/// accumulation order depends only on the `kc` split (ascending blocks,
/// ascending `k` within a block, one `c += alpha * acc` writeback per
/// block) and on whether the reduction fuses multiply-add — never on the
/// `(mr, nr)` register tiling or the `(mc, nc)` macro-tiling. Pass the
/// blocking's `kc` and the variant's `fused` flag; the parity test layer
/// asserts [`gemm_with`] matches this bit for bit at every thread count.
pub fn gemm_emulated(
    c: &mut Matrix,
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    kc: usize,
    fused: bool,
) {
    let (m, k) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(k, kb, "gemm: inner dimensions must match");
    assert_eq!(c.shape(), (m, n), "gemm: output shape must be (m, n)");
    assert!(kc > 0, "gemm_emulated: kc must be positive");

    scale(c, (0, 0), (m, n), beta);
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }
    for i in 0..m {
        for j in 0..n {
            let mut pc = 0;
            while pc < k {
                let kcb = kc.min(k - pc);
                let mut acc = 0.0f64;
                for kk in pc..pc + kcb {
                    acc = if fused {
                        a[(i, kk)].mul_add(b[(kk, j)], acc)
                    } else {
                        a[(i, kk)] * b[(kk, j)] + acc
                    };
                }
                c[(i, j)] += alpha * acc;
                pc += kcb;
            }
        }
    }
}

/// `C <- alpha * A * B + beta * C` under [`GemmConfig::auto`]: large
/// products fan out over [`auto_threads`] workers, small ones stay serial,
/// with the same bits either way.
///
/// This is the entry point the blocked factorizations and the distributed
/// drivers' local updates go through.
///
/// # Panics
/// Panics if the shapes are not conformant.
pub fn gemm_auto(c: &mut Matrix, alpha: f64, a: &Matrix, b: &Matrix, beta: f64) {
    assert_eq!(a.cols(), b.rows(), "gemm: inner dimensions must match");
    assert_eq!(
        c.shape(),
        (a.rows(), b.cols()),
        "gemm: output shape must be (m, n)"
    );
    gemm_with(c, (0, 0), alpha, a, b, beta, &GemmConfig::auto());
}

/// Smallest product volume `m·n·k` that a multi-threaded [`GemmConfig`]
/// fans out over the tile queue; smaller products run serially.
const PARALLEL_VOLUME: usize = 128 * 128 * 128;

/// `C += alpha * A * B` over the `a.rows() x b.cols()` region at `cptr`
/// under `cfg`, by the one serial-vs-parallel rule: with more than one
/// thread and a volume of at least [`PARALLEL_VOLUME`] the macro-tiles are
/// drained from the tile queue ([`parallel_region`]), otherwise they run
/// on the calling thread ([`update_region`]). Both routes give the same
/// bits. Returns the tile queue's per-worker tile counts when it ran.
///
/// # Safety
/// As [`packed_tile_update`], for the whole region.
pub(crate) unsafe fn update_with(
    cptr: *mut f64,
    ldc: usize,
    alpha: f64,
    a: MatView,
    b: MatView,
    cfg: &GemmConfig,
) -> Option<Vec<usize>> {
    let (m, k, n) = (a.rows, a.cols, b.cols);
    let (blk, krn, threads) = (cfg.blocking, cfg.kernel, cfg.threads);
    if threads > 1 && m * n * k >= PARALLEL_VOLUME {
        Some(parallel_region(cptr, ldc, alpha, a, b, blk, krn, threads))
    } else {
        update_region(
            cptr,
            ldc,
            alpha,
            a,
            b,
            blk,
            krn,
            &mut Vec::new(),
            &mut Vec::new(),
        );
        None
    }
}

/// Thread count used by [`gemm_auto`], [`lu_parallel`][mod@crate::lu_parallel] and the
/// parallel TRSM paths: the `DENSELIN_THREADS` override if set (the knob CI
/// pins for deterministic scaling gates), else the machine's available
/// parallelism. A value that is not an integer is reported once, to
/// stderr, and ignored. Cached per process.
pub fn auto_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        if let Ok(raw) = std::env::var("DENSELIN_THREADS") {
            match raw.trim().parse::<usize>() {
                Ok(t) => return t.max(1),
                Err(_) => eprintln!(
                    "denselin: ignoring invalid DENSELIN_THREADS `{raw}` (expected a thread \
                     count); using the available parallelism"
                ),
            }
        }
        std::thread::available_parallelism().map_or(1, |p| p.get())
    })
}

/// `C[r0..r0+m, c0..c0+n] *= beta`, with `beta == 0` overwriting (so NaN
/// garbage in the region never survives).
fn scale(c: &mut Matrix, (r0, c0): (usize, usize), (m, n): (usize, usize), beta: f64) {
    if beta == 1.0 || m == 0 || n == 0 {
        return;
    }
    let ld = c.cols();
    for row in c.as_mut_slice()[r0 * ld..].chunks_mut(ld).take(m) {
        let row = &mut row[c0..c0 + n];
        if beta == 0.0 {
            row.fill(0.0);
        } else {
            for x in row {
                *x *= beta;
            }
        }
    }
}

/// Accumulate `C[i0..i0+mh, j0..j0+nw] += alpha * A[i0.., :] * B[:, j0..]`
/// over the full reduction dimension, packing `kc`-deep panels of `A` and
/// `B` and driving the register-blocked microkernel. `beta` must already be
/// applied to `C`. `i0`/`j0` are relative to the C region `cptr` points at,
/// which may itself be an `ldc`-strided submatrix of a larger buffer.
///
/// A tile at most [`THIN_WIDTH`] columns wide takes the unpacked thin body
/// instead ([`thin_tile_update`]), under the same arithmetic contract.
///
/// # Safety
/// `cptr` must point at a live `ldc`-strided row-major region covering the
/// tile, no other thread may concurrently touch rows `i0..i0+mh` columns
/// `j0..j0+nw` of it, and the `a`/`b` views must satisfy their
/// region-immutability contract for the duration of the call.
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn packed_tile_update(
    cptr: *mut f64,
    ldc: usize,
    alpha: f64,
    a: MatView,
    b: MatView,
    i0: usize,
    mh: usize,
    j0: usize,
    nw: usize,
    blk: GemmBlocking,
    krn: &Microkernel,
    abuf: &mut Vec<f64>,
    bbuf: &mut Vec<f64>,
) {
    if mh == 0 || nw == 0 {
        return;
    }
    if nw <= THIN_WIDTH && thin_tile_update(cptr, ldc, alpha, a, b, i0, mh, j0, nw, blk.kc, krn) {
        return;
    }
    let k = a.cols();
    let (mr, nr) = (krn.mr, krn.nr);
    let mut pc = 0;
    while pc < k {
        let kc = blk.kc.min(k - pc);
        pack_b(b, pc, j0, kc, nw, nr, bbuf);
        pack_a(a, i0, pc, mh, kc, mr, abuf);
        let mpanels = mh.div_ceil(mr);
        let npanels = nw.div_ceil(nr);
        for jp in 0..npanels {
            let bp = &bbuf[jp * nr * kc..(jp + 1) * nr * kc];
            let nr_eff = nr.min(nw - jp * nr);
            for ip in 0..mpanels {
                let ap = &abuf[ip * mr * kc..(ip + 1) * mr * kc];
                let mr_eff = mr.min(mh - ip * mr);
                let ctile = cptr.add((i0 + ip * mr) * ldc + j0 + jp * nr);
                krn.run(
                    kc,
                    ap.as_ptr(),
                    bp.as_ptr(),
                    ctile,
                    ldc,
                    alpha,
                    mr_eff,
                    nr_eff,
                );
            }
        }
        pc += kc;
    }
}

/// `C += alpha * A * B` over the whole `a.rows() x b.cols()` region at
/// `cptr`, walked in `mc x nc` macro-tiles through [`packed_tile_update`]:
/// the one serial tile loop behind [`gemm_with`] and the trailing updates
/// of [`lu_parallel`][mod@crate::lu_parallel].
///
/// # Safety
/// As [`packed_tile_update`], for every tile of the region.
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn update_region(
    cptr: *mut f64,
    ldc: usize,
    alpha: f64,
    a: MatView,
    b: MatView,
    blk: GemmBlocking,
    krn: &Microkernel,
    abuf: &mut Vec<f64>,
    bbuf: &mut Vec<f64>,
) {
    let (m, n) = (a.rows, b.cols);
    for i0 in (0..m).step_by(blk.mc) {
        let mh = blk.mc.min(m - i0);
        for j0 in (0..n).step_by(blk.nc) {
            let nw = blk.nc.min(n - j0);
            packed_tile_update(cptr, ldc, alpha, a, b, i0, mh, j0, nw, blk, krn, abuf, bbuf);
        }
    }
}

/// `C += alpha * A * B` over the whole `a.rows() x b.cols()` region at
/// `cptr`, with its `(mc, nc)` macro-tiles drained from a shared atomic
/// counter by `threads` workers of the process-wide [`crate::pool`]: the
/// one tile queue behind [`update_with`]. Each tile runs
/// [`packed_tile_update`] with its full `k` reduction, so the result is
/// bitwise identical to [`update_region`]'s. Returns the number of tiles
/// each worker drained (one entry per worker, never more than the tiles).
///
/// # Safety
/// As [`packed_tile_update`], for every tile of the region.
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn parallel_region(
    cptr: *mut f64,
    ldc: usize,
    alpha: f64,
    a: MatView,
    b: MatView,
    blk: GemmBlocking,
    krn: &Microkernel,
    threads: usize,
) -> Vec<usize> {
    let (m, n) = (a.rows, b.cols);
    let ntiles = n.div_ceil(blk.nc);
    let tiles = m.div_ceil(blk.mc) * ntiles;
    let workers = threads.max(1).min(tiles);
    let next = AtomicUsize::new(0);
    let cptr = pool::SyncPtr(cptr);
    let drained: Vec<AtomicUsize> = (0..workers).map(|_| AtomicUsize::new(0)).collect();

    pool::global().run(workers, &|w| {
        let mut abuf = Vec::new();
        let mut bbuf = Vec::new();
        loop {
            let t = next.fetch_add(1, Ordering::Relaxed);
            if t >= tiles {
                break;
            }
            let (ti, tj) = (t / ntiles, t % ntiles);
            let i0 = ti * blk.mc;
            let mh = blk.mc.min(m - i0);
            let j0 = tj * blk.nc;
            let nw = blk.nc.min(n - j0);
            // SAFETY: the atomic counter hands each tile index to
            // exactly one worker, tile (i0..i0+mh, j0..j0+nw) regions
            // are pairwise disjoint, and the caller's contract keeps
            // the region and the views valid until `run` returns
            // (it blocks until every worker retires).
            unsafe {
                packed_tile_update(
                    cptr.get(),
                    ldc,
                    alpha,
                    a,
                    b,
                    i0,
                    mh,
                    j0,
                    nw,
                    blk,
                    krn,
                    &mut abuf,
                    &mut bbuf,
                );
            }
            drained[w].fetch_add(1, Ordering::Relaxed);
        }
    });

    drained.into_iter().map(AtomicUsize::into_inner).collect()
}

/// Widest `B` tile, in columns, that skips packing. Every width
/// `1..=THIN_WIDTH` has its own monomorphized body in [`thin_tile`], so its
/// accumulators are a fixed-size register tile. Chosen from an `n x n` times
/// `n x w` sweep over `w = 1..=16` at n = 384 and 768 against the packed
/// path (one core of an AVX-512 host, packed with `avx512_8x16` and with
/// `avx2_8x4`): the thin body was faster in every run up to w = 10 (by
/// 1.3–5x) and lost some runs at 11, 13, 15 and 16. That sweep ran
/// 4-row groups; [`thin_rows`] has the heights each width runs now.
pub(crate) const THIN_WIDTH: usize = 10;

/// Rows of `C` per thin-body register group at width `w`: `thin_rows(w)`
/// rows x `w` columns of accumulators, then single rows for the
/// remainder. A one-column product (a GEMV: the residual of one
/// right-hand side) has one FMA chain per row, so four rows left it
/// latency-bound. Chosen from an `n x n` times `n x w` sweep over
/// `w = 1..=10` and heights 2, 4, 6, 8, 12 and 16 at n = 384 and 768 (one
/// core of an AVX-512 host, AVX2+FMA body, medians of 200 calls): 8 rows
/// were fastest at `w` = 1, 2 and 4 (1.5x over 4 rows at `w = 1`), 2 rows
/// at 7, 9 and 10 (where 4 rows ran 1.4–1.6x slower), and 6 rows, by 3–9%
/// over 4 at n = 768, at every other width.
const fn thin_rows(w: usize) -> usize {
    match w {
        1 | 2 | 4 => 8,
        7 | 9 | 10 => 2,
        _ => 6,
    }
}

/// The unpacked path of [`packed_tile_update`] for a tile of `1..=`
/// [`THIN_WIDTH`] columns: rows of `A` are read in place, rows of `B` by
/// stride, and every element follows the [`gemm_emulated`] contract —
/// ascending `kc` blocks, ascending `k` inside a block, fused multiply-add
/// exactly when `krn.fused`, one unfused `c += alpha * acc` per block.
/// Returns `false`, having touched nothing, when the host cannot run the
/// fused body without a libm `fma` call (the caller then packs).
///
/// # Safety
/// As [`packed_tile_update`].
#[allow(clippy::too_many_arguments)]
unsafe fn thin_tile_update(
    cptr: *mut f64,
    ldc: usize,
    alpha: f64,
    a: MatView,
    b: MatView,
    i0: usize,
    mh: usize,
    j0: usize,
    nw: usize,
    kc: usize,
    krn: &Microkernel,
) -> bool {
    let c = cptr.add(i0 * ldc + j0);
    let (a, b) = (a.sub(i0, 0, mh, a.cols), b.sub(0, j0, b.rows, nw));
    if krn.fused == PORTABLE_FUSED {
        thin_tile::<PORTABLE_FUSED>(c, ldc, alpha, a, b, kc);
        return true;
    }
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if krn.fused
        && std::arch::is_x86_feature_detected!("avx2")
        && std::arch::is_x86_feature_detected!("fma")
    {
        thin_tile_avx2_fma(c, ldc, alpha, a, b, kc);
        return true;
    }
    false
}

/// The fused thin body compiled for AVX2+FMA, so `mul_add` lowers to
/// `vfmadd` and never to a libm call.
///
/// # Safety
/// As [`thin_tile`]; the host must have AVX2 and FMA.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn thin_tile_avx2_fma(
    c: *mut f64,
    ldc: usize,
    alpha: f64,
    a: MatView,
    b: MatView,
    kc: usize,
) {
    thin_tile::<true>(c, ldc, alpha, a, b, kc);
}

/// `C += alpha * A * B` for `b.cols()` in `1..=THIN_WIDTH`: dispatch to the
/// body monomorphized for that width.
///
/// # Safety
/// `c` must point at a live `ldc`-strided `a.rows() x b.cols()` region with
/// no concurrent access, and the views must satisfy their contract.
#[inline(always)]
unsafe fn thin_tile<const FUSE: bool>(
    c: *mut f64,
    ldc: usize,
    alpha: f64,
    a: MatView,
    b: MatView,
    kc: usize,
) {
    match b.cols {
        1 => thin_width::<1, { thin_rows(1) }, FUSE>(c, ldc, alpha, a, b, kc),
        2 => thin_width::<2, { thin_rows(2) }, FUSE>(c, ldc, alpha, a, b, kc),
        3 => thin_width::<3, { thin_rows(3) }, FUSE>(c, ldc, alpha, a, b, kc),
        4 => thin_width::<4, { thin_rows(4) }, FUSE>(c, ldc, alpha, a, b, kc),
        5 => thin_width::<5, { thin_rows(5) }, FUSE>(c, ldc, alpha, a, b, kc),
        6 => thin_width::<6, { thin_rows(6) }, FUSE>(c, ldc, alpha, a, b, kc),
        7 => thin_width::<7, { thin_rows(7) }, FUSE>(c, ldc, alpha, a, b, kc),
        8 => thin_width::<8, { thin_rows(8) }, FUSE>(c, ldc, alpha, a, b, kc),
        9 => thin_width::<9, { thin_rows(9) }, FUSE>(c, ldc, alpha, a, b, kc),
        10 => thin_width::<10, { thin_rows(10) }, FUSE>(c, ldc, alpha, a, b, kc),
        w => unreachable!("thin tile of width {w} (limit {THIN_WIDTH})"),
    }
}

/// The thin body at width `W`: ascending `kc` blocks, each swept over
/// `R`-row groups of `A` (then single rows for the remainder).
///
/// # Safety
/// As [`thin_tile`], with `b.cols() == W`.
#[inline(always)]
unsafe fn thin_width<const W: usize, const R: usize, const FUSE: bool>(
    c: *mut f64,
    ldc: usize,
    alpha: f64,
    a: MatView,
    b: MatView,
    kc: usize,
) {
    debug_assert_eq!(b.cols, W);
    let (m, k) = (a.rows, a.cols);
    let mut pc = 0;
    while pc < k {
        let kcb = kc.min(k - pc);
        let bp = b.ptr.add(pc * b.ld);
        let mut i = 0;
        while i + R <= m {
            let ap = a.ptr.add(i * a.ld + pc);
            thin_group::<R, W, FUSE>(c.add(i * ldc), ldc, alpha, ap, a.ld, bp, b.ld, kcb);
            i += R;
        }
        while i < m {
            let ap = a.ptr.add(i * a.ld + pc);
            thin_group::<1, W, FUSE>(c.add(i * ldc), ldc, alpha, ap, a.ld, bp, b.ld, kcb);
            i += 1;
        }
        pc += kcb;
    }
}

/// One `kc`-block of an `R x W` register group: `R * W` independent
/// accumulators over ascending `k`, then one unfused `c += alpha * acc`.
///
/// # Safety
/// `ap` / `bp` must address `R x kc` / `kc x W` in-bounds blocks with row
/// strides `lda` / `ldb`, and `c` an exclusively held `R x W` block.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn thin_group<const R: usize, const W: usize, const FUSE: bool>(
    c: *mut f64,
    ldc: usize,
    alpha: f64,
    ap: *const f64,
    lda: usize,
    bp: *const f64,
    ldb: usize,
    kc: usize,
) {
    let mut acc = [[0.0f64; W]; R];
    for kk in 0..kc {
        let brow = &*(bp.add(kk * ldb) as *const [f64; W]);
        for (r, accr) in acc.iter_mut().enumerate() {
            let ar = *ap.add(r * lda + kk);
            for (t, &bv) in accr.iter_mut().zip(brow) {
                *t = if FUSE {
                    ar.mul_add(bv, *t)
                } else {
                    ar * bv + *t
                };
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        let crow = &mut *(c.add(r * ldc) as *mut [f64; W]);
        for (cv, &t) in crow.iter_mut().zip(accr) {
            *cv += alpha * t;
        }
    }
}

/// Pack the `mh x kc` block of `A` at `(i0, p0)` into `ceil(mh/mr)`
/// micro-panels of the selected kernel's row height. Panel `ip` stores its
/// `mr` rows column-major (`kc` groups of `mr` consecutive values); rows
/// past `mh` are zero-padded so the microkernel always reads full groups.
///
/// # Safety
/// The block `(i0..i0+mh, p0..p0+kc)` must be in-bounds of the view and the
/// view's region-immutability contract must hold for the call.
unsafe fn pack_a(
    a: MatView,
    i0: usize,
    p0: usize,
    mh: usize,
    kc: usize,
    mr: usize,
    buf: &mut Vec<f64>,
) {
    let panels = mh.div_ceil(mr);
    let len = panels * mr * kc;
    // Every slot is written below (values or explicit padding), so reuse
    // the buffer without the O(len) zero-fill a `resize` from empty costs.
    if buf.len() != len {
        buf.clear();
        buf.resize(len, 0.0);
    }
    for ip in 0..panels {
        let base = ip * mr * kc;
        let rmax = mr.min(mh - ip * mr);
        for r in 0..rmax {
            let arow = &a.row(i0 + ip * mr + r)[p0..p0 + kc];
            for (kk, &v) in arow.iter().enumerate() {
                buf[base + kk * mr + r] = v;
            }
        }
        for r in rmax..mr {
            for kk in 0..kc {
                buf[base + kk * mr + r] = 0.0;
            }
        }
    }
}

/// Pack the `kc x nw` block of `B` at `(p0, j0)` into `ceil(nw/nr)`
/// micro-panels. Panel `jp` stores its `nr` columns row-major (`kc` groups
/// of `nr` consecutive values); columns past `nw` are zero-padded. The
/// panel width `nr` matches the active microkernel's tile width.
///
/// # Safety
/// The block `(p0..p0+kc, j0..j0+nw)` must be in-bounds of the view and the
/// view's region-immutability contract must hold for the call.
unsafe fn pack_b(
    b: MatView,
    p0: usize,
    j0: usize,
    kc: usize,
    nw: usize,
    nr: usize,
    buf: &mut Vec<f64>,
) {
    let panels = nw.div_ceil(nr);
    let len = panels * nr * kc;
    // As in `pack_a`: all slots written below, skip the redundant zero-fill.
    if buf.len() != len {
        buf.clear();
        buf.resize(len, 0.0);
    }
    for kk in 0..kc {
        let brow = &b.row(p0 + kk)[j0..j0 + nw];
        for jp in 0..panels {
            let base = jp * nr * kc + kk * nr;
            let cmax = nr.min(nw - jp * nr);
            for cc in 0..cmax {
                buf[base + cc] = brow[jp * nr + cc];
            }
            for cc in cmax..nr {
                buf[base + cc] = 0.0;
            }
        }
    }
}

/// Scatter `alpha * acc` into the `mr_eff x nr_eff` tile of `C`, where
/// `acc` is an `nrv`-column-major accumulator tile (full tiles and
/// zero-padded fringes alike). The `c + alpha*acc` rounding here (separate
/// mul then add) is uniform across every registered kernel — it is part of
/// the arithmetic contract [`gemm_emulated`] predicts.
///
/// # Safety
/// Rows `0..mr_eff`, columns `0..nr_eff` of the `ldc`-strided buffer at
/// `ctile` must be in-bounds, with no concurrent access to them.
#[inline(always)]
unsafe fn writeback_dyn(
    ctile: *mut f64,
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
    alpha: f64,
    acc: &[f64],
    nrv: usize,
) {
    for r in 0..mr_eff {
        let crow = std::slice::from_raw_parts_mut(ctile.add(r * ldc), nr_eff);
        for (cc, cv) in crow.iter_mut().enumerate() {
            *cv += alpha * acc[r * nrv + cc];
        }
    }
}

/// The 8x16 AVX-512 microkernel: sixteen zmm accumulators hold the full
/// `MR x NR_AVX512` tile of `C` across the `kc` reduction; each step does
/// one two-vector load of packed `B`, eight scalar broadcasts of packed `A`
/// (prefetched a cache line ahead), and sixteen `vfmadd`s. The writeback is
/// a vectorized (but deliberately unfused) `C + alpha*acc` so its rounding
/// matches every other registered kernel; fringe tiles spill `acc` to a
/// scratch tile and take the generic edge loop.
///
/// # Safety
/// Caller must ensure AVX-512F support, `ap`/`bp` panels of at least
/// `kc*MR` / `kc*NR_AVX512` elements, and exclusive in-bounds access to
/// rows `0..mr_eff` x columns `0..nr_eff` of the `ldc`-strided `ctile`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn microkernel_avx512(
    kc: usize,
    ap: *const f64,
    bp: *const f64,
    ctile: *mut f64,
    ldc: usize,
    alpha: f64,
    mr_eff: usize,
    nr_eff: usize,
) {
    use std::arch::x86_64::*;
    let mut acc0 = [_mm512_setzero_pd(); MR];
    let mut acc1 = [_mm512_setzero_pd(); MR];
    let mut a = ap;
    let mut b = bp;
    for _ in 0..kc {
        let bv0 = _mm512_loadu_pd(b);
        let bv1 = _mm512_loadu_pd(b.add(8));
        _mm_prefetch::<_MM_HINT_T0>(a.add(64) as *const i8);
        let a0 = _mm512_set1_pd(*a.add(0));
        acc0[0] = _mm512_fmadd_pd(a0, bv0, acc0[0]);
        acc1[0] = _mm512_fmadd_pd(a0, bv1, acc1[0]);
        let a1 = _mm512_set1_pd(*a.add(1));
        acc0[1] = _mm512_fmadd_pd(a1, bv0, acc0[1]);
        acc1[1] = _mm512_fmadd_pd(a1, bv1, acc1[1]);
        let a2 = _mm512_set1_pd(*a.add(2));
        acc0[2] = _mm512_fmadd_pd(a2, bv0, acc0[2]);
        acc1[2] = _mm512_fmadd_pd(a2, bv1, acc1[2]);
        let a3 = _mm512_set1_pd(*a.add(3));
        acc0[3] = _mm512_fmadd_pd(a3, bv0, acc0[3]);
        acc1[3] = _mm512_fmadd_pd(a3, bv1, acc1[3]);
        let a4 = _mm512_set1_pd(*a.add(4));
        acc0[4] = _mm512_fmadd_pd(a4, bv0, acc0[4]);
        acc1[4] = _mm512_fmadd_pd(a4, bv1, acc1[4]);
        let a5 = _mm512_set1_pd(*a.add(5));
        acc0[5] = _mm512_fmadd_pd(a5, bv0, acc0[5]);
        acc1[5] = _mm512_fmadd_pd(a5, bv1, acc1[5]);
        let a6 = _mm512_set1_pd(*a.add(6));
        acc0[6] = _mm512_fmadd_pd(a6, bv0, acc0[6]);
        acc1[6] = _mm512_fmadd_pd(a6, bv1, acc1[6]);
        let a7 = _mm512_set1_pd(*a.add(7));
        acc0[7] = _mm512_fmadd_pd(a7, bv0, acc0[7]);
        acc1[7] = _mm512_fmadd_pd(a7, bv1, acc1[7]);
        a = a.add(MR);
        b = b.add(NR_AVX512);
    }
    if mr_eff == MR && nr_eff == NR_AVX512 {
        // Unfused `C + alpha*acc` (mul, then add) so the writeback rounding
        // matches writeback_dyn bitwise: every registered kernel shares one
        // writeback class and gemm_emulated predicts all of them.
        let av = _mm512_set1_pd(alpha);
        for r in 0..MR {
            let p = ctile.add(r * ldc);
            _mm512_storeu_pd(
                p,
                _mm512_add_pd(_mm512_loadu_pd(p), _mm512_mul_pd(av, acc0[r])),
            );
            let p8 = p.add(8);
            _mm512_storeu_pd(
                p8,
                _mm512_add_pd(_mm512_loadu_pd(p8), _mm512_mul_pd(av, acc1[r])),
            );
        }
    } else {
        let mut scratch = [0.0f64; MR * NR_AVX512];
        for r in 0..MR {
            let s = scratch.as_mut_ptr().add(r * NR_AVX512);
            _mm512_storeu_pd(s, acc0[r]);
            _mm512_storeu_pd(s.add(8), acc1[r]);
        }
        for r in 0..mr_eff {
            let crow = std::slice::from_raw_parts_mut(ctile.add(r * ldc), nr_eff);
            for (cc, cv) in crow.iter_mut().enumerate() {
                *cv += alpha * scratch[r * NR_AVX512 + cc];
            }
        }
    }
}

/// Rank-update of the `C[ii, jj]` block with `A[ii, kk] * B[kk, jj]` — the
/// pre-packing scalar kernel, retained as the reference path.
fn reference_macro_kernel(
    c: &mut Matrix,
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    irange: std::ops::Range<usize>,
    krange: std::ops::Range<usize>,
    jrange: std::ops::Range<usize>,
) {
    let (j0, j1) = (jrange.start, jrange.end);
    for i in irange {
        let arow = a.row(i);
        // Unroll the reduction dimension by 4 to cut loop overhead.
        let mut kk = krange.start;
        while kk + 4 <= krange.end {
            let (a0, a1, a2, a3) = (
                alpha * arow[kk],
                alpha * arow[kk + 1],
                alpha * arow[kk + 2],
                alpha * arow[kk + 3],
            );
            let b0 = &b.row(kk)[j0..j1];
            let b1 = &b.row(kk + 1)[j0..j1];
            let b2 = &b.row(kk + 2)[j0..j1];
            let b3 = &b.row(kk + 3)[j0..j1];
            let crow = &mut c.row_mut(i)[j0..j1];
            for j in 0..crow.len() {
                crow[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
            }
            kk += 4;
        }
        while kk < krange.end {
            let aik = alpha * arow[kk];
            if aik != 0.0 {
                let brow = &b.row(kk)[j0..j1];
                let crow = &mut c.row_mut(i)[j0..j1];
                for j in 0..crow.len() {
                    crow[j] += aik * brow[j];
                }
            }
            kk += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    fn naive(a: &Matrix, b: &Matrix) -> Matrix {
        a.matmul(b)
    }

    /// The whole-matrix product `c <- alpha * a * b + beta * c` under `cfg`.
    fn gemm(c: &mut Matrix, alpha: f64, a: &Matrix, b: &Matrix, beta: f64, cfg: &GemmConfig) {
        gemm_with(c, (0, 0), alpha, a, b, beta, cfg);
    }

    /// [`GemmConfig::serial`] under an explicit blocking.
    fn blocked(blocking: GemmBlocking) -> GemmConfig {
        GemmConfig {
            blocking,
            ..GemmConfig::serial()
        }
    }

    /// [`GemmConfig::serial`] fanned out over `threads` workers.
    fn threaded(threads: usize) -> GemmConfig {
        GemmConfig {
            threads,
            ..GemmConfig::serial()
        }
    }

    /// Run [`parallel_region`] on all of `c` (already scaled by beta).
    fn tile_queue(c: &mut Matrix, a: &Matrix, b: &Matrix, threads: usize) -> Vec<usize> {
        let ldc = c.cols();
        // SAFETY: the pointer covers the live buffer of `c`, borrowed
        // exclusively; the views borrow `a`/`b`, not mutated here.
        unsafe {
            parallel_region(
                c.as_mut_slice().as_mut_ptr(),
                ldc,
                1.0,
                MatView::of(a),
                MatView::of(b),
                GemmBlocking::default(),
                selected_kernel(),
                threads,
            )
        }
    }

    #[test]
    fn gemm_matches_naive_square() {
        let mut rng = SplitMix64::new(10);
        let a = Matrix::random(&mut rng, 33, 33);
        let b = Matrix::random(&mut rng, 33, 33);
        let mut c = Matrix::zeros(33, 33);
        gemm(&mut c, 1.0, &a, &b, 0.0, &GemmConfig::serial());
        assert!(c.allclose(&naive(&a, &b), 1e-10));
    }

    #[test]
    fn gemm_matches_naive_rectangular() {
        let mut rng = SplitMix64::new(11);
        let a = Matrix::random(&mut rng, 17, 65);
        let b = Matrix::random(&mut rng, 65, 9);
        let mut c = Matrix::zeros(17, 9);
        gemm(&mut c, 1.0, &a, &b, 0.0, &GemmConfig::serial());
        assert!(c.allclose(&naive(&a, &b), 1e-10));
    }

    #[test]
    fn gemm_alpha_beta() {
        let mut rng = SplitMix64::new(12);
        let a = Matrix::random(&mut rng, 8, 8);
        let b = Matrix::random(&mut rng, 8, 8);
        let c0 = Matrix::random(&mut rng, 8, 8);
        let mut c = c0.clone();
        gemm(&mut c, 2.0, &a, &b, -1.0, &GemmConfig::serial());
        let expect = naive(&a, &b).scale(2.0).sub(&c0);
        assert!(c.allclose(&expect, 1e-10));
    }

    #[test]
    fn gemm_beta_zero_overwrites_garbage() {
        let mut rng = SplitMix64::new(13);
        let a = Matrix::random(&mut rng, 5, 5);
        let b = Matrix::random(&mut rng, 5, 5);
        let mut c = Matrix::from_fn(5, 5, |_, _| f64::NAN);
        gemm(&mut c, 1.0, &a, &b, 0.0, &GemmConfig::serial());
        assert!(c.allclose(&naive(&a, &b), 1e-10));
    }

    #[test]
    fn gemm_alpha_zero_scales_only() {
        let mut rng = SplitMix64::new(14);
        let a = Matrix::random(&mut rng, 4, 4);
        let b = Matrix::random(&mut rng, 4, 4);
        let c0 = Matrix::random(&mut rng, 4, 4);
        let mut c = c0.clone();
        gemm(&mut c, 0.0, &a, &b, 0.5, &GemmConfig::serial());
        assert!(c.allclose(&c0.scale(0.5), 1e-12));
    }

    #[test]
    fn beta_scales_only_the_offset_region() {
        let mut rng = SplitMix64::new(18);
        let a = Matrix::random(&mut rng, 3, 4);
        let b = Matrix::random(&mut rng, 4, 2);
        let c0 = Matrix::from_fn(7, 6, |_, _| f64::NAN);
        let mut c = c0.clone();
        gemm_with(&mut c, (2, 3), 1.0, &a, &b, 0.0, &GemmConfig::serial());
        for i in 0..7 {
            for j in 0..6 {
                let inside = (2..5).contains(&i) && (3..5).contains(&j);
                assert_eq!(c[(i, j)].is_nan(), !inside, "({i}, {j})");
            }
        }
        assert!(c.block(2, 3, 3, 2).allclose(&naive(&a, &b), 1e-12));
    }

    #[test]
    fn gemm_tiny_blocking_matches() {
        let mut rng = SplitMix64::new(15);
        let a = Matrix::random(&mut rng, 23, 31);
        let b = Matrix::random(&mut rng, 31, 19);
        let mut c = Matrix::zeros(23, 19);
        let blk = GemmBlocking {
            mc: 3,
            kc: 5,
            nc: 7,
        };
        gemm(&mut c, 1.0, &a, &b, 0.0, &blocked(blk));
        assert!(c.allclose(&naive(&a, &b), 1e-10));
    }

    #[test]
    fn packed_matches_naive_awkward_shapes() {
        // Property coverage over shapes that stress every fringe case:
        // sub-microkernel tiles, exact MR/NR multiples, one-past multiples.
        let sizes = [1usize, 2, 3, 5, 7, 8, 9, 13, 16, 17, 31, 33];
        let mut rng = SplitMix64::new(40);
        let cfg = blocked(GemmBlocking::default());
        for &m in &sizes {
            for &n in &sizes {
                for &k in &sizes {
                    let a = Matrix::random(&mut rng, m, k);
                    let b = Matrix::random(&mut rng, k, n);
                    let mut c = Matrix::zeros(m, n);
                    gemm(&mut c, 1.0, &a, &b, 0.0, &cfg);
                    assert!(
                        c.allclose(&naive(&a, &b), 1e-10),
                        "packed gemm mismatch at m={m} n={n} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_fringe_smaller_than_microkernel() {
        // Whole problems smaller than one MR x NR register tile.
        let mut rng = SplitMix64::new(41);
        for (m, n, k) in [
            (1, 1, 1),
            (2, 3, 2),
            (MR - 1, NR - 1, 5),
            (MR + 1, NR + 1, 3),
        ] {
            let a = Matrix::random(&mut rng, m, k);
            let b = Matrix::random(&mut rng, k, n);
            let c0 = Matrix::random(&mut rng, m, n);
            let mut c = c0.clone();
            gemm(&mut c, 1.5, &a, &b, -0.5, &blocked(GemmBlocking::default()));
            let mut expect = c0.clone();
            gemm_reference(&mut expect, 1.5, &a, &b, -0.5);
            assert!(c.allclose(&expect, 1e-12), "m={m} n={n} k={k}");
        }
    }

    #[test]
    fn packed_matches_reference_alpha_beta_grid() {
        let mut rng = SplitMix64::new(42);
        let a = Matrix::random(&mut rng, 37, 29);
        let b = Matrix::random(&mut rng, 29, 41);
        let cfg = blocked(GemmBlocking::default());
        for &alpha in &[0.0, 1.0, -1.0, 2.5] {
            for &beta in &[0.0, 1.0, -1.0, 0.5] {
                let c0 = Matrix::random(&mut rng, 37, 41);
                let mut c_packed = c0.clone();
                gemm(&mut c_packed, alpha, &a, &b, beta, &cfg);
                let mut c_ref = c0.clone();
                gemm_reference(&mut c_ref, alpha, &a, &b, beta);
                assert!(
                    c_packed.allclose(&c_ref, 1e-10),
                    "alpha={alpha} beta={beta}"
                );
            }
        }
    }

    #[test]
    fn beta_zero_overwrites_nan_in_packed_and_parallel_paths() {
        // 130³ reaches the tile queue's volume rule.
        let mut rng = SplitMix64::new(43);
        let a = Matrix::random(&mut rng, 130, 130);
        let b = Matrix::random(&mut rng, 130, 130);
        let expect = naive(&a, &b);
        let mut c = Matrix::from_fn(130, 130, |_, _| f64::NAN);
        gemm(&mut c, 1.0, &a, &b, 0.0, &blocked(GemmBlocking::default()));
        assert!(c.allclose(&expect, 1e-10));
        let mut cp = Matrix::from_fn(130, 130, |_, _| f64::INFINITY);
        gemm(&mut cp, 1.0, &a, &b, 0.0, &threaded(3));
        assert!(cp.allclose(&expect, 1e-10));
    }

    #[test]
    fn threaded_matches_serial() {
        // 190 x 90 x 130 reaches the tile queue's volume rule.
        let mut rng = SplitMix64::new(16);
        let a = Matrix::random(&mut rng, 190, 130);
        let b = Matrix::random(&mut rng, 130, 90);
        let c0 = Matrix::random(&mut rng, 190, 90);
        let mut c_serial = c0.clone();
        gemm(&mut c_serial, 1.5, &a, &b, 0.5, &GemmConfig::serial());
        let mut c_par = c0.clone();
        gemm(&mut c_par, 1.5, &a, &b, 0.5, &threaded(4));
        assert!(c_par.allclose(&c_serial, 1e-10));
    }

    #[test]
    fn threaded_bitwise_identical_to_serial() {
        // Tiles reduce in the same kc-block order as the serial loop, so
        // the parallel path must agree bit for bit, not just to tolerance.
        let mut rng = SplitMix64::new(44);
        let a = Matrix::random(&mut rng, 193, 85);
        let b = Matrix::random(&mut rng, 85, 131);
        let c0 = Matrix::random(&mut rng, 193, 131);
        let mut c_serial = c0.clone();
        gemm(&mut c_serial, -1.25, &a, &b, 0.75, &GemmConfig::serial());
        let mut c_par = c0.clone();
        gemm(&mut c_par, -1.25, &a, &b, 0.75, &threaded(5));
        assert_eq!(c_serial.as_slice(), c_par.as_slice());
    }

    #[test]
    fn serial_config_never_enters_the_tile_queue() {
        // The one serial-vs-parallel rule: the tile queue runs only for
        // more than one thread at a volume of at least 128³, so every
        // `GemmConfig::serial()` call site stays on its calling thread.
        assert_eq!(GemmConfig::serial().threads, 1);
        let route = |m: usize, k: usize, n: usize, cfg: &GemmConfig| {
            let a = Matrix::random(&mut SplitMix64::new(m as u64), m, k);
            let b = Matrix::random(&mut SplitMix64::new(n as u64), k, n);
            let mut c = Matrix::zeros(m, n);
            // SAFETY: the pointer covers the live buffer of `c`, borrowed
            // exclusively; the views borrow `a`/`b`, not mutated here.
            let drained = unsafe {
                update_with(
                    c.as_mut_slice().as_mut_ptr(),
                    n,
                    1.0,
                    MatView::of(&a),
                    MatView::of(&b),
                    cfg,
                )
            };
            assert!(c.allclose(&naive(&a, &b), 1e-10));
            drained
        };
        let small = GemmBlocking {
            mc: 16,
            kc: 32,
            nc: 16,
        };
        let serial = blocked(small);
        let threaded = GemmConfig {
            threads: 3,
            ..serial
        };
        let (m, k, n) = (130, 128, 128);
        assert_eq!(route(m, k, n, &serial), None);
        assert_eq!(route(128, 128, 127, &threaded), None, "below 128³");
        let drained = route(m, k, n, &threaded).expect("128³ with 3 threads fans out");
        assert_eq!(drained.len(), 3);
        assert_eq!(
            drained.iter().sum::<usize>(),
            m.div_ceil(16) * n.div_ceil(16)
        );
    }

    #[test]
    fn tile_queue_load_balance() {
        // The row-band split used to strand the last thread with a short
        // (possibly empty) band. The tile queue must (a) cover every tile
        // exactly once, (b) never spawn more workers than tiles.
        let mut rng = SplitMix64::new(45);
        let blk = GemmBlocking::default();
        // m chosen so the old band split (div_ceil) would leave an empty band.
        let m = 3 * blk.mc + 1;
        let n = 2 * blk.nc + 3;
        let k = 80;
        let a = Matrix::random(&mut rng, m, k);
        let b = Matrix::random(&mut rng, k, n);
        let mut c = Matrix::zeros(m, n);
        let drained = tile_queue(&mut c, &a, &b, 4);
        let expect_tiles = m.div_ceil(blk.mc) * n.div_ceil(blk.nc);
        assert_eq!(
            drained.iter().sum::<usize>(),
            expect_tiles,
            "every tile must be drained exactly once"
        );
        assert!(
            drained.len() <= expect_tiles.min(4),
            "no idle workers may be spawned"
        );
        // And the result is still right.
        let mut c_ref = Matrix::zeros(m, n);
        gemm_reference(&mut c_ref, 1.0, &a, &b, 0.0);
        assert!(c.allclose(&c_ref, 1e-9));
    }

    #[test]
    fn more_workers_than_tiles_is_clamped() {
        let mut rng = SplitMix64::new(46);
        let blk = GemmBlocking::default();
        let (m, n, k) = (blk.mc, blk.nc, 70);
        let a = Matrix::random(&mut rng, m, k);
        let b = Matrix::random(&mut rng, k, n);
        let mut c = Matrix::zeros(m, n);
        assert_eq!(tile_queue(&mut c, &a, &b, 16), vec![1]);
    }

    #[test]
    fn gemm_auto_matches_serial() {
        let mut rng = SplitMix64::new(47);
        let a = Matrix::random(&mut rng, 140, 140);
        let b = Matrix::random(&mut rng, 140, 140);
        let c0 = Matrix::random(&mut rng, 140, 140);
        let mut c1 = c0.clone();
        gemm(&mut c1, 1.0, &a, &b, 1.0, &GemmConfig::serial());
        let mut c2 = c0.clone();
        gemm_auto(&mut c2, 1.0, &a, &b, 1.0);
        assert_eq!(c1.as_slice(), c2.as_slice());
    }

    #[test]
    fn kernel_table_is_well_formed() {
        let table = microkernels();
        assert!(table.len() >= 4, "at least the four portable shapes");
        let mut names = std::collections::HashSet::new();
        for k in table {
            assert!(names.insert(k.name), "duplicate kernel name {}", k.name);
            assert!(k.mr > 0 && k.nr > 0);
            assert_eq!(
                k.name,
                format!("{}_{}x{}", k.name.split('_').next().unwrap(), k.mr, k.nr)
            );
            assert!(std::ptr::eq(Microkernel::by_name(k.name).unwrap(), k));
            if k.requires == KernelRequirement::Baseline {
                assert!(
                    k.supported(),
                    "baseline kernel {} must run anywhere",
                    k.name
                );
                assert_eq!(k.fused, PORTABLE_FUSED);
            }
        }
        for shape in ["4x4", "8x4", "6x8", "8x8"] {
            assert!(names.contains(format!("portable_{shape}").as_str()));
        }
        assert!(Microkernel::by_name("no_such_kernel").is_none());
    }

    #[test]
    fn every_supported_kernel_matches_emulator_bitwise() {
        // Quick in-crate parity check (the exhaustive sweep with fringes,
        // NaN/beta grids and thread counts lives in tests/microkernels.rs):
        // each supported variant through an awkward shape must equal the
        // scalar emulator bit for bit.
        let mut rng = SplitMix64::new(48);
        let a = Matrix::random(&mut rng, 29, 23);
        let b = Matrix::random(&mut rng, 23, 33);
        let c0 = Matrix::random(&mut rng, 29, 33);
        let blk = GemmBlocking {
            mc: 16,
            kc: 7,
            nc: 24,
        };
        for krn in microkernels().iter().filter(|k| k.supported()) {
            let mut c = c0.clone();
            let cfg = GemmConfig {
                threads: 1,
                blocking: blk,
                kernel: krn,
            };
            gemm(&mut c, -1.5, &a, &b, 0.25, &cfg);
            let mut e = c0.clone();
            gemm_emulated(&mut e, -1.5, &a, &b, 0.25, blk.kc, krn.fused);
            assert_eq!(c.as_slice(), e.as_slice(), "kernel {}", krn.name);
        }
    }

    #[test]
    fn force_kernel_guard_overrides_and_restores() {
        // Force the kernel that is already selected: exercises the guard's
        // store/restore without perturbing concurrently running in-process
        // tests that rely on a stable kernel selection.
        let name = selected_kernel().name;
        {
            let guard = force_kernel(name).unwrap();
            assert_eq!(selected_kernel().name, name);
            drop(guard);
        }
        assert_eq!(selected_kernel().name, name);
        let err = force_kernel("no_such_kernel").unwrap_err();
        assert!(err.contains("unknown microkernel"), "{err}");
    }

    #[test]
    fn gemm_empty_dims() {
        let a = Matrix::zeros(0, 3);
        let b = Matrix::zeros(3, 4);
        let mut c = Matrix::zeros(0, 4);
        gemm(&mut c, 1.0, &a, &b, 0.0, &GemmConfig::serial());
        assert!(c.is_empty());
    }

    #[test]
    fn identity_times_b_is_b() {
        let a = Matrix::identity(6);
        let mut rng = SplitMix64::new(17);
        let b = Matrix::random(&mut rng, 6, 6);
        let mut c = Matrix::zeros(6, 6);
        gemm(&mut c, 1.0, &a, &b, 0.0, &GemmConfig::serial());
        assert!(c.allclose(&b, 1e-12));
    }
}
