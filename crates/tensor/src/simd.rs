//! Runtime-dispatched GEMM micro-kernels: explicit AVX-512 and AVX2+FMA
//! `std::arch` tiles with the portable SLP-vectorized kernel as fallback.
//!
//! The blocked GEMM driver (`crate::gemm`) and the implicit-GEMM conv3d
//! lowering (`crate::conv`) are tile-shape agnostic: they ask
//! [`active_kernel`] for a [`Kernel`] — a register-tile shape `(mr, nr)`
//! plus the function that computes one `mr×nr` tile — and build their
//! packing and write-back loops around it. Three tiers:
//!
//! | backend   | tile  | registers                                        |
//! |-----------|-------|--------------------------------------------------|
//! | AVX-512   | 8×48  | 24 zmm accumulators + 3 B vectors + 1 broadcast  |
//! | AVX2+FMA  | 6×16  | 12 ymm accumulators + 2 B vectors + 1 broadcast  |
//! | portable  | 6×16  | `[f32; 8]` arrays the SLP vectorizer folds       |
//!
//! The backend is detected once per process with
//! `is_x86_feature_detected!` and cached; `MFN_PORTABLE_KERNELS=1` (or
//! [`set_backend_override`]) forces a lower tier so CI's generic-codegen
//! leg and the bit-identity property tests can pin either arm.
//!
//! ## Bit-identity contract
//!
//! All three kernels produce **bit-identical** results: each output element
//! is a pure fused-multiply-add chain over the panel depth in `k` order
//! (`acc = fma(a_ik, b_kj, acc)`), and `mul_add` on the portable path is the
//! same exactly-rounded operation as `_mm256_fmadd_ps`/`_mm512_fmadd_ps`.
//! The tile shape only changes *which* elements share a register, never the
//! accumulation order of any single element, and the depth blocking (`KC`)
//! is shared by every tier. `gemm::tests` pins this property on
//! tile-unaligned shapes with adversarial inputs.

use std::sync::atomic::{AtomicU8, Ordering};

/// Which micro-kernel tier is executing GEMM tiles. The derived order
/// follows declaration: `Avx512 < Avx2Fma < Portable`, i.e. a *smaller*
/// value is a *more capable* tier — a host can execute every tier `>=` its
/// detected one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum KernelBackend {
    /// 8×48 f32 tile in zmm registers (`avx512f` detected at runtime).
    Avx512,
    /// 6×16 f32 tile in ymm registers (`avx2` + `fma` detected at runtime).
    Avx2Fma,
    /// 6×16 tile phrased as `[f32; 8]` ops for LLVM's SLP vectorizer; the
    /// only tier on non-x86 targets and under `MFN_PORTABLE_KERNELS=1`.
    Portable,
}

impl KernelBackend {
    /// Stable name for telemetry and bench reports.
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Avx512 => "avx512",
            KernelBackend::Avx2Fma => "avx2+fma",
            KernelBackend::Portable => "portable",
        }
    }
}

const UNRESOLVED: u8 = 0;
const B_AVX512: u8 = 1;
const B_AVX2: u8 = 2;
const B_PORTABLE: u8 = 3;

/// Cached dispatch decision; `UNRESOLVED` until first use or after an
/// override reset.
static BACKEND: AtomicU8 = AtomicU8::new(UNRESOLVED);

fn detect() -> u8 {
    if std::env::var_os("MFN_PORTABLE_KERNELS").is_some_and(|v| v != "0") {
        return B_PORTABLE;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            return B_AVX512;
        }
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return B_AVX2;
        }
    }
    B_PORTABLE
}

fn resolve() -> u8 {
    let b = BACKEND.load(Ordering::Relaxed);
    if b != UNRESOLVED {
        return b;
    }
    let d = detect();
    BACKEND.store(d, Ordering::Relaxed);
    d
}

/// The active micro-kernel tier.
pub fn kernel_backend() -> KernelBackend {
    match resolve() {
        B_AVX512 => KernelBackend::Avx512,
        B_AVX2 => KernelBackend::Avx2Fma,
        _ => KernelBackend::Portable,
    }
}

/// Forces a specific tier (bench/test hook), or `None` to re-detect. A
/// request for a tier the CPU lacks falls back to detection, so overriding
/// with `Avx512` on an AVX2-only host stays sound. All tiers are
/// bit-identical, so flipping the override concurrently with running GEMMs
/// changes which instructions execute, never the results.
pub fn set_backend_override(backend: Option<KernelBackend>) {
    let v = match backend {
        None => UNRESOLVED,
        Some(b) => {
            let detected = detect();
            let wanted = match b {
                KernelBackend::Avx512 => B_AVX512,
                KernelBackend::Avx2Fma => B_AVX2,
                KernelBackend::Portable => B_PORTABLE,
            };
            // Lower tiers are always available; higher ones need the CPU.
            if wanted >= detected {
                wanted
            } else {
                detected
            }
        }
    };
    BACKEND.store(v, Ordering::Relaxed);
}

/// Largest `mr` any tier uses (packing buffers are sized per-kernel, but
/// stack tiles use the max).
pub const MAX_MR: usize = 12;
/// Largest `nr` any tier uses.
pub const MAX_NR: usize = 48;

/// Signature of a micro-kernel: accumulate `kb` rank-one updates of an
/// `mr×nr` tile from packed panels into `acc` (row-major, stride `nr`,
/// length `mr*nr`). `a_panel` is `mr`-row column-major (`a[p*mr + i]`),
/// `b_panel` is `nr`-column row-major (`b[p*nr + j]`); both zero-padded to
/// full tile width by the packers. `acc` is fully overwritten.
pub type MicroFn = fn(kb: usize, a_panel: &[f32], b_panel: &[f32], acc: &mut [f32]);

/// One dispatchable micro-kernel: register-tile shape plus tile function.
/// The blocked drivers size their panels and write-back masks from `mr`/`nr`.
#[derive(Clone, Copy)]
pub struct Kernel {
    /// Which tier this kernel belongs to.
    pub backend: KernelBackend,
    /// Tile rows.
    pub mr: usize,
    /// Tile columns.
    pub nr: usize,
    /// The tile function.
    pub micro: MicroFn,
}

static PORTABLE_KERNEL: Kernel =
    Kernel { backend: KernelBackend::Portable, mr: 6, nr: 16, micro: micro_portable_6x16 };

#[cfg(target_arch = "x86_64")]
static AVX2_KERNEL: Kernel =
    Kernel { backend: KernelBackend::Avx2Fma, mr: 6, nr: 16, micro: micro_avx2_6x16 };

#[cfg(target_arch = "x86_64")]
static AVX512_KERNEL: Kernel =
    Kernel { backend: KernelBackend::Avx512, mr: 8, nr: 48, micro: micro_avx512_8x48 };

#[cfg(target_arch = "x86_64")]
static AVX512_KERNEL_12X32: Kernel =
    Kernel { backend: KernelBackend::Avx512, mr: 12, nr: 32, micro: micro_avx512_12x32 };

/// The micro-kernel for the active backend (the AVX-512 tier's default
/// 8×48 tile; see [`active_kernel_for`] for the shape-aware choice).
pub fn active_kernel() -> &'static Kernel {
    match resolve() {
        #[cfg(target_arch = "x86_64")]
        B_AVX512 => &AVX512_KERNEL,
        #[cfg(target_arch = "x86_64")]
        B_AVX2 => &AVX2_KERNEL,
        _ => &PORTABLE_KERNEL,
    }
}

/// The micro-kernel for the active backend, specialized to an `m×n` output.
///
/// The AVX-512 tier carries two tile shapes — 8×48 (wide: few-row GEMMs
/// like the implicit-GEMM conv3d forward, where `m = cout`) and 12×32
/// (taller: square-ish decode GEMMs, where 48-wide panels would pad
/// `n` by up to 12.5%) — and picks whichever wastes fewer padded tile
/// FLOPs. All tiles produce bit-identical results (each output element is
/// a `k`-order FMA chain regardless of tile shape), so the choice is pure
/// throughput.
pub fn active_kernel_for(m: usize, n: usize) -> &'static Kernel {
    let kernel = active_kernel();
    #[cfg(target_arch = "x86_64")]
    if kernel.backend == KernelBackend::Avx512 {
        let padded = |k: &Kernel| {
            (m.div_ceil(k.mr).max(1) * k.mr).saturating_mul(n.div_ceil(k.nr).max(1) * k.nr)
        };
        if padded(&AVX512_KERNEL_12X32) < padded(&AVX512_KERNEL) {
            return &AVX512_KERNEL_12X32;
        }
    }
    let _ = (m, n);
    kernel
}

// ---- portable tier -------------------------------------------------------

/// SIMD lane count the portable kernel is phrased in: operations on
/// `[f32; 8]` in straight-line code reliably fuse into single 256-bit AVX2
/// ops (and degrade gracefully to two SSE ops on baseline x86-64).
const LANES: usize = 8;

/// Eight f32 lanes updated in lock-step. This is not `std::simd` (stable
/// toolchain) — it is a plain array whose fully-unrolled element ops LLVM's
/// SLP vectorizer folds into one vector instruction each.
#[derive(Clone, Copy)]
struct V8([f32; LANES]);

impl V8 {
    const ZERO: V8 = V8([0.0; LANES]);

    #[inline(always)]
    fn splat(x: f32) -> V8 {
        V8([x; LANES])
    }

    #[inline(always)]
    fn load(s: &[f32]) -> V8 {
        V8(s[..LANES].try_into().unwrap())
    }

    /// `self + a·b`, lowered to a single FMA where the target has one.
    /// Written as an indexed loop on purpose: this exact shape is what the
    /// SLP vectorizer recognizes (iterator chains here have regressed to
    /// scalar code), hence the lint allowance.
    #[allow(clippy::needless_range_loop)]
    #[inline(always)]
    fn fma(self, a: V8, b: V8) -> V8 {
        let mut o = self.0;
        for l in 0..LANES {
            o[l] = a.0[l].mul_add(b.0[l], o[l]);
        }
        V8(o)
    }
}

/// Portable 6×16 tile: 12 [`V8`] accumulators held across the depth loop,
/// `mul_add` per lane (the same exactly-rounded FMA the intrinsic tiers
/// use, on every codegen target — this is what keeps the generic-codegen
/// reftest leg bit-identical).
fn micro_portable_6x16(kb: usize, a_panel: &[f32], b_panel: &[f32], acc: &mut [f32]) {
    const MR: usize = 6;
    const NR: usize = 16;
    const NV: usize = NR / LANES;
    debug_assert_eq!(a_panel.len(), MR * kb);
    debug_assert_eq!(b_panel.len(), NR * kb);
    debug_assert_eq!(acc.len(), MR * NR);
    let mut tile = [[V8::ZERO; NV]; MR];
    for (av, bv) in a_panel.chunks_exact(MR).zip(b_panel.chunks_exact(NR)) {
        let mut b = [V8::ZERO; NV];
        for (v, bvec) in b.iter_mut().enumerate() {
            *bvec = V8::load(&bv[v * LANES..]);
        }
        for (row, &a_elem) in tile.iter_mut().zip(av) {
            let a = V8::splat(a_elem);
            for (cell, &bvec) in row.iter_mut().zip(&b) {
                *cell = cell.fma(a, bvec);
            }
        }
    }
    for (i, row) in tile.iter().enumerate() {
        for (v, cell) in row.iter().enumerate() {
            acc[i * NR + v * LANES..i * NR + (v + 1) * LANES].copy_from_slice(&cell.0);
        }
    }
}

// ---- AVX2+FMA tier -------------------------------------------------------

/// Safe shim: `AVX2_KERNEL` is only ever returned by [`active_kernel`] (or
/// installed by [`set_backend_override`]) after `is_x86_feature_detected!`
/// confirmed `avx2` and `fma`, so calling the `target_feature` fn is sound.
#[cfg(target_arch = "x86_64")]
fn micro_avx2_6x16(kb: usize, a_panel: &[f32], b_panel: &[f32], acc: &mut [f32]) {
    debug_assert_eq!(a_panel.len(), 6 * kb);
    debug_assert_eq!(b_panel.len(), 16 * kb);
    debug_assert_eq!(acc.len(), 6 * 16);
    // SAFETY: dispatch guarantees avx2+fma are present (see doc above);
    // panel/acc lengths are asserted to match the tile's pointer walks.
    unsafe { micro_avx2_6x16_impl(kb, a_panel.as_ptr(), b_panel.as_ptr(), acc.as_mut_ptr()) }
}

/// The 6×16 AVX2+FMA tile: 12 ymm accumulators + 2 packed-B vectors + 1
/// A broadcast = 15 of the 16 ymm registers, no spills. Each depth step is
/// 2 vector loads + 6 broadcasts feeding 12 `vfmadd231ps`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn micro_avx2_6x16_impl(kb: usize, mut ap: *const f32, mut bp: *const f32, out: *mut f32) {
    use std::arch::x86_64::*;
    let mut c00 = _mm256_setzero_ps();
    let mut c01 = _mm256_setzero_ps();
    let mut c10 = _mm256_setzero_ps();
    let mut c11 = _mm256_setzero_ps();
    let mut c20 = _mm256_setzero_ps();
    let mut c21 = _mm256_setzero_ps();
    let mut c30 = _mm256_setzero_ps();
    let mut c31 = _mm256_setzero_ps();
    let mut c40 = _mm256_setzero_ps();
    let mut c41 = _mm256_setzero_ps();
    let mut c50 = _mm256_setzero_ps();
    let mut c51 = _mm256_setzero_ps();
    for _ in 0..kb {
        let b0 = _mm256_loadu_ps(bp);
        let b1 = _mm256_loadu_ps(bp.add(8));
        let a = _mm256_broadcast_ss(&*ap);
        c00 = _mm256_fmadd_ps(a, b0, c00);
        c01 = _mm256_fmadd_ps(a, b1, c01);
        let a = _mm256_broadcast_ss(&*ap.add(1));
        c10 = _mm256_fmadd_ps(a, b0, c10);
        c11 = _mm256_fmadd_ps(a, b1, c11);
        let a = _mm256_broadcast_ss(&*ap.add(2));
        c20 = _mm256_fmadd_ps(a, b0, c20);
        c21 = _mm256_fmadd_ps(a, b1, c21);
        let a = _mm256_broadcast_ss(&*ap.add(3));
        c30 = _mm256_fmadd_ps(a, b0, c30);
        c31 = _mm256_fmadd_ps(a, b1, c31);
        let a = _mm256_broadcast_ss(&*ap.add(4));
        c40 = _mm256_fmadd_ps(a, b0, c40);
        c41 = _mm256_fmadd_ps(a, b1, c41);
        let a = _mm256_broadcast_ss(&*ap.add(5));
        c50 = _mm256_fmadd_ps(a, b0, c50);
        c51 = _mm256_fmadd_ps(a, b1, c51);
        ap = ap.add(6);
        bp = bp.add(16);
    }
    _mm256_storeu_ps(out, c00);
    _mm256_storeu_ps(out.add(8), c01);
    _mm256_storeu_ps(out.add(16), c10);
    _mm256_storeu_ps(out.add(24), c11);
    _mm256_storeu_ps(out.add(32), c20);
    _mm256_storeu_ps(out.add(40), c21);
    _mm256_storeu_ps(out.add(48), c30);
    _mm256_storeu_ps(out.add(56), c31);
    _mm256_storeu_ps(out.add(64), c40);
    _mm256_storeu_ps(out.add(72), c41);
    _mm256_storeu_ps(out.add(80), c50);
    _mm256_storeu_ps(out.add(88), c51);
}

// ---- AVX-512 tier --------------------------------------------------------

/// Safe shim; see [`micro_avx2_6x16`] for the dispatch-soundness argument
/// (here the detected feature is `avx512f`).
#[cfg(target_arch = "x86_64")]
fn micro_avx512_8x48(kb: usize, a_panel: &[f32], b_panel: &[f32], acc: &mut [f32]) {
    debug_assert_eq!(a_panel.len(), 8 * kb);
    debug_assert_eq!(b_panel.len(), 48 * kb);
    debug_assert_eq!(acc.len(), 8 * 48);
    // SAFETY: dispatch guarantees avx512f is present; lengths asserted.
    unsafe { micro_avx512_8x48_impl(kb, a_panel.as_ptr(), b_panel.as_ptr(), acc.as_mut_ptr()) }
}

/// The 8×48 AVX-512 tile: 24 zmm accumulators + 3 packed-B vectors + 1
/// A broadcast = 28 of the 32 zmm registers. Each depth step is 3 vector
/// loads + 8 broadcasts feeding 24 `vfmadd231ps` — 768 FLOPs per 11
/// load-port µops, comfortably FMA-bound on two 512-bit FMA pipes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn micro_avx512_8x48_impl(kb: usize, mut ap: *const f32, mut bp: *const f32, out: *mut f32) {
    use std::arch::x86_64::*;
    let mut c00 = _mm512_setzero_ps();
    let mut c01 = _mm512_setzero_ps();
    let mut c02 = _mm512_setzero_ps();
    let mut c10 = _mm512_setzero_ps();
    let mut c11 = _mm512_setzero_ps();
    let mut c12 = _mm512_setzero_ps();
    let mut c20 = _mm512_setzero_ps();
    let mut c21 = _mm512_setzero_ps();
    let mut c22 = _mm512_setzero_ps();
    let mut c30 = _mm512_setzero_ps();
    let mut c31 = _mm512_setzero_ps();
    let mut c32 = _mm512_setzero_ps();
    let mut c40 = _mm512_setzero_ps();
    let mut c41 = _mm512_setzero_ps();
    let mut c42 = _mm512_setzero_ps();
    let mut c50 = _mm512_setzero_ps();
    let mut c51 = _mm512_setzero_ps();
    let mut c52 = _mm512_setzero_ps();
    let mut c60 = _mm512_setzero_ps();
    let mut c61 = _mm512_setzero_ps();
    let mut c62 = _mm512_setzero_ps();
    let mut c70 = _mm512_setzero_ps();
    let mut c71 = _mm512_setzero_ps();
    let mut c72 = _mm512_setzero_ps();
    for _ in 0..kb {
        let b0 = _mm512_loadu_ps(bp);
        let b1 = _mm512_loadu_ps(bp.add(16));
        let b2 = _mm512_loadu_ps(bp.add(32));
        let a = _mm512_set1_ps(*ap);
        c00 = _mm512_fmadd_ps(a, b0, c00);
        c01 = _mm512_fmadd_ps(a, b1, c01);
        c02 = _mm512_fmadd_ps(a, b2, c02);
        let a = _mm512_set1_ps(*ap.add(1));
        c10 = _mm512_fmadd_ps(a, b0, c10);
        c11 = _mm512_fmadd_ps(a, b1, c11);
        c12 = _mm512_fmadd_ps(a, b2, c12);
        let a = _mm512_set1_ps(*ap.add(2));
        c20 = _mm512_fmadd_ps(a, b0, c20);
        c21 = _mm512_fmadd_ps(a, b1, c21);
        c22 = _mm512_fmadd_ps(a, b2, c22);
        let a = _mm512_set1_ps(*ap.add(3));
        c30 = _mm512_fmadd_ps(a, b0, c30);
        c31 = _mm512_fmadd_ps(a, b1, c31);
        c32 = _mm512_fmadd_ps(a, b2, c32);
        let a = _mm512_set1_ps(*ap.add(4));
        c40 = _mm512_fmadd_ps(a, b0, c40);
        c41 = _mm512_fmadd_ps(a, b1, c41);
        c42 = _mm512_fmadd_ps(a, b2, c42);
        let a = _mm512_set1_ps(*ap.add(5));
        c50 = _mm512_fmadd_ps(a, b0, c50);
        c51 = _mm512_fmadd_ps(a, b1, c51);
        c52 = _mm512_fmadd_ps(a, b2, c52);
        let a = _mm512_set1_ps(*ap.add(6));
        c60 = _mm512_fmadd_ps(a, b0, c60);
        c61 = _mm512_fmadd_ps(a, b1, c61);
        c62 = _mm512_fmadd_ps(a, b2, c62);
        let a = _mm512_set1_ps(*ap.add(7));
        c70 = _mm512_fmadd_ps(a, b0, c70);
        c71 = _mm512_fmadd_ps(a, b1, c71);
        c72 = _mm512_fmadd_ps(a, b2, c72);
        ap = ap.add(8);
        bp = bp.add(48);
    }
    _mm512_storeu_ps(out, c00);
    _mm512_storeu_ps(out.add(16), c01);
    _mm512_storeu_ps(out.add(32), c02);
    _mm512_storeu_ps(out.add(48), c10);
    _mm512_storeu_ps(out.add(64), c11);
    _mm512_storeu_ps(out.add(80), c12);
    _mm512_storeu_ps(out.add(96), c20);
    _mm512_storeu_ps(out.add(112), c21);
    _mm512_storeu_ps(out.add(128), c22);
    _mm512_storeu_ps(out.add(144), c30);
    _mm512_storeu_ps(out.add(160), c31);
    _mm512_storeu_ps(out.add(176), c32);
    _mm512_storeu_ps(out.add(192), c40);
    _mm512_storeu_ps(out.add(208), c41);
    _mm512_storeu_ps(out.add(224), c42);
    _mm512_storeu_ps(out.add(240), c50);
    _mm512_storeu_ps(out.add(256), c51);
    _mm512_storeu_ps(out.add(272), c52);
    _mm512_storeu_ps(out.add(288), c60);
    _mm512_storeu_ps(out.add(304), c61);
    _mm512_storeu_ps(out.add(320), c62);
    _mm512_storeu_ps(out.add(336), c70);
    _mm512_storeu_ps(out.add(352), c71);
    _mm512_storeu_ps(out.add(368), c72);
}

/// Safe shim; see [`micro_avx2_6x16`] for the dispatch-soundness argument
/// (here the detected feature is `avx512f`).
#[cfg(target_arch = "x86_64")]
fn micro_avx512_12x32(kb: usize, a_panel: &[f32], b_panel: &[f32], acc: &mut [f32]) {
    debug_assert_eq!(a_panel.len(), 12 * kb);
    debug_assert_eq!(b_panel.len(), 32 * kb);
    debug_assert_eq!(acc.len(), 12 * 32);
    // SAFETY: dispatch guarantees avx512f is present; lengths asserted.
    unsafe { micro_avx512_12x32_impl(kb, a_panel.as_ptr(), b_panel.as_ptr(), acc.as_mut_ptr()) }
}

/// The 12×32 AVX-512 tile: 24 zmm accumulators + 2 packed-B vectors + 1
/// A broadcast = 27 of the 32 zmm registers. Each depth step is 2 vector
/// loads + 12 broadcasts feeding 24 `vfmadd231ps` — the same FMA count as
/// the 8×48 tile with fewer B-panel bytes streamed per step. The row loop
/// is fully unrolled by LLVM (constant trip count inside a
/// `target_feature` fn), leaving no spills.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn micro_avx512_12x32_impl(
    kb: usize,
    mut ap: *const f32,
    mut bp: *const f32,
    out: *mut f32,
) {
    use std::arch::x86_64::*;
    let mut c = [[_mm512_setzero_ps(); 2]; 12];
    for _ in 0..kb {
        let b0 = _mm512_loadu_ps(bp);
        let b1 = _mm512_loadu_ps(bp.add(16));
        for (i, row) in c.iter_mut().enumerate() {
            let a = _mm512_set1_ps(*ap.add(i));
            row[0] = _mm512_fmadd_ps(a, b0, row[0]);
            row[1] = _mm512_fmadd_ps(a, b1, row[1]);
        }
        ap = ap.add(12);
        bp = bp.add(32);
    }
    for (i, row) in c.iter().enumerate() {
        _mm512_storeu_ps(out.add(i * 32), row[0]);
        _mm512_storeu_ps(out.add(i * 32 + 16), row[1]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_are_stable() {
        assert_eq!(KernelBackend::Avx512.name(), "avx512");
        assert_eq!(KernelBackend::Avx2Fma.name(), "avx2+fma");
        assert_eq!(KernelBackend::Portable.name(), "portable");
    }

    #[test]
    fn override_round_trips_and_never_exceeds_detection() {
        let detected = {
            set_backend_override(None);
            kernel_backend()
        };
        set_backend_override(Some(KernelBackend::Portable));
        assert_eq!(kernel_backend(), KernelBackend::Portable);
        assert_eq!(active_kernel().backend, KernelBackend::Portable);
        // Requesting the detected tier (or anything below it) honors the
        // request; requesting above it falls back to detection.
        set_backend_override(Some(detected));
        assert_eq!(kernel_backend(), detected);
        set_backend_override(Some(KernelBackend::Avx512));
        let got = kernel_backend();
        assert!(got == detected || got == KernelBackend::Avx512);
        set_backend_override(None);
        assert_eq!(kernel_backend(), detected);
    }

    #[test]
    fn kernel_shapes_fit_declared_maxima() {
        for k in [
            &PORTABLE_KERNEL,
            #[cfg(target_arch = "x86_64")]
            &AVX2_KERNEL,
            #[cfg(target_arch = "x86_64")]
            &AVX512_KERNEL,
            #[cfg(target_arch = "x86_64")]
            &AVX512_KERNEL_12X32,
        ] {
            assert!(k.mr <= MAX_MR && k.nr <= MAX_NR);
            assert_eq!(k.nr % 8, 0, "write-back assumes whole vectors");
        }
    }

    /// The three tiers must agree bit-for-bit on the same packed panels —
    /// the dispatch seam is invisible in results. (Tiles differ in shape, so
    /// compare each against a scalar fma chain, elementwise.)
    #[test]
    fn every_tier_matches_scalar_fma_chain_bitwise() {
        let kernels: Vec<&Kernel> = vec![
            &PORTABLE_KERNEL,
            #[cfg(target_arch = "x86_64")]
            &AVX2_KERNEL,
            #[cfg(target_arch = "x86_64")]
            &AVX512_KERNEL,
            #[cfg(target_arch = "x86_64")]
            &AVX512_KERNEL_12X32,
        ];
        for kernel in kernels {
            if kernel.backend != KernelBackend::Portable && kernel_backend() != kernel.backend {
                // Host can't execute this tier; detection-ordering makes
                // this only skip tiers above the host's capability.
                continue;
            }
            for kb in [1usize, 2, 7, 64] {
                let mut s = 0x9E3779B9u32;
                let mut next = move || {
                    s = s.wrapping_mul(1664525).wrapping_add(1013904223);
                    ((s >> 16) as i32 % 31 - 15) as f32 * 0.125
                };
                let a: Vec<f32> = (0..kernel.mr * kb).map(|_| next()).collect();
                let b: Vec<f32> = (0..kernel.nr * kb).map(|_| next()).collect();
                let mut acc = vec![f32::NAN; kernel.mr * kernel.nr];
                (kernel.micro)(kb, &a, &b, &mut acc);
                for i in 0..kernel.mr {
                    for j in 0..kernel.nr {
                        let mut want = 0.0f32;
                        for p in 0..kb {
                            want = a[p * kernel.mr + i].mul_add(b[p * kernel.nr + j], want);
                        }
                        assert_eq!(
                            acc[i * kernel.nr + j].to_bits(),
                            want.to_bits(),
                            "{} tile ({i},{j}) kb={kb}",
                            kernel.backend.name()
                        );
                    }
                }
            }
        }
    }
}
