//! Runtime-dispatched GEMM micro-kernels: one register-tile loop written
//! once over each vector tier's `std::arch` vocabulary (AVX-512, AVX2+FMA),
//! with the portable SLP-vectorized kernel as fallback.
//!
//! The blocked GEMM driver (`crate::gemm`) and the implicit-GEMM conv3d
//! lowering (`crate::conv`) are tile-shape agnostic: they ask
//! [`active_kernel`] for a [`Kernel`] — a register-tile shape `(mr, nr)`
//! plus the function that computes one `mr×nr` tile — and build their
//! packing and write-back loops around it. Three tiers:
//!
//! | backend   | tile         | code                                          |
//! |-----------|--------------|-----------------------------------------------|
//! | AVX-512   | 8×48, 12×32  | `gemm_kernel!`'s `tile::<8, 3>`, `::<12, 2>` |
//! | AVX2+FMA  | 6×16         | `gemm_kernel!`'s `tile::<6, 2>`               |
//! | portable  | 6×16         | `[f32; 8]` arrays the SLP vectorizer folds    |
//!
//! A vector tile holds its `MR × NV` accumulators, `NV` B vectors and one A
//! broadcast in registers across the depth loop: the budget each shape meets
//! is noted on its static, and a shape over it spills every depth step.
//! The portable tile's `mul_add` is one instruction only under the build's
//! FMA pin (`.cargo/config.toml`); without it, it is a libm call per lane.
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
//! (`acc = fma(a_ik, b_kj, acc)`) from `+0`, and `mul_add` on the portable
//! path is the same exactly-rounded operation as the vector tiers' `fma`.
//! The tile shape only changes *which* elements share a register, never the
//! accumulation order of any single element, and the depth blocking (`KC`)
//! is shared by every tier. `gemm::tests` pins this property on
//! tile-unaligned shapes with adversarial inputs.
//!
//! The same dispatch picks the block size of the one transposing pack
//! (`transpose_pack`: a row-major operand into A panels, the weight
//! gradient's patch rows into B panels), and carries the one element-wise
//! kernel that is worth explicit vectors, the decoder's softplus and its derivative
//! ([`softplus_slice`] and [`bias_softplus_features`] forward,
//! [`softplus_grad_slice`] and [`bias_softplus_grad_features`] backward) and
//! their six-lane form, softplus applied to a value with its space-time
//! derivatives ([`bias_softplus_jet_features`], forward and backward), all
//! on the decoder's feature-major layout:
//! every tier evaluates the operations of [`softplus_scalar`] /
//! [`sigmoid_scalar`] / [`jet_chain`] / [`jet_chain_grad`] in the same
//! order, so the contract holds there too.

use std::sync::atomic::{AtomicU8, Ordering};

/// Which micro-kernel tier is executing GEMM tiles. The derived order
/// follows declaration: `Avx512 < Avx2Fma < Portable`, i.e. a *smaller*
/// value is a *more capable* tier — a host can execute every tier `>=` its
/// detected one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum KernelBackend {
    /// 8×48 and 12×32 f32 tiles in zmm registers (`avx512f` detected at
    /// runtime).
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
        // The AVX-512 tier's transposing pack takes its narrow edges with
        // the AVX2 blocks, so the tier asks for both.
        if is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx2")
            && is_x86_feature_detected!("fma")
        {
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
/// `mr×nr` tile from two panels into `acc` (row-major, stride `nr`, length
/// `mr*nr`). `a_panel` is packed `mr`-row column-major (`a[p*mr + i]`),
/// zero-padded to full tile height. `b_panel` is `nr`-column row-major with
/// its rows `ldb >= nr` apart (`b[p*ldb + j]`): a packed panel (`ldb = nr`,
/// zero-padded edge columns) or `nr` full columns of a row-major operand read
/// where they lie (`ldb` its row length). `acc` is fully overwritten.
///
/// # Panics
/// Panics if `a_panel` is shorter than `mr·kb`, `acc` than `mr·nr`, or
/// `b_panel` than `(kb - 1)·ldb + nr`.
pub type MicroFn = fn(kb: usize, a_panel: &[f32], b_panel: &[f32], ldb: usize, acc: &mut [f32]);

/// The checks every tier makes before its panel walk: `a_panel` holds `kb`
/// columns of `mr`, `acc` the `mr×nr` tile, and `kb` rows of `nr` columns,
/// `ldb` apart, lie inside `b_panel`.
#[inline(always)]
fn assert_panels([mr, nr]: [usize; 2], kb: usize, a: &[f32], b: &[f32], ldb: usize, acc: &[f32]) {
    assert!(a.len() >= mr * kb, "A panel of {} cannot hold {kb} columns of {mr}", a.len());
    assert!(acc.len() >= mr * nr, "tile of {} cannot hold {mr}x{nr}", acc.len());
    assert!(
        ldb >= nr && (kb == 0 || (kb - 1) * ldb + nr <= b.len()),
        "B panel of {} elements cannot hold {kb} rows of {nr}, {ldb} apart",
        b.len()
    );
}

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

/// 12 ymm accumulators + 2 B vectors + 1 broadcast = 15 of the 16 ymm.
#[cfg(target_arch = "x86_64")]
static AVX2_KERNEL: Kernel =
    Kernel { backend: KernelBackend::Avx2Fma, mr: 6, nr: 16, micro: avx2::micro::<6, 2> };

/// 24 zmm accumulators + 3 B vectors + 1 broadcast = 28 of the 32 zmm.
#[cfg(target_arch = "x86_64")]
static AVX512_KERNEL: Kernel =
    Kernel { backend: KernelBackend::Avx512, mr: 8, nr: 48, micro: avx512::micro::<8, 3> };

/// 24 zmm accumulators + 2 B vectors + 1 broadcast = 27 of the 32 zmm.
#[cfg(target_arch = "x86_64")]
static AVX512_KERNEL_12X32: Kernel =
    Kernel { backend: KernelBackend::Avx512, mr: 12, nr: 32, micro: avx512::micro::<12, 2> };

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
fn micro_portable_6x16(kb: usize, a_panel: &[f32], b_panel: &[f32], ldb: usize, acc: &mut [f32]) {
    const MR: usize = 6;
    const NR: usize = 16;
    const NV: usize = NR / LANES;
    assert_panels([MR, NR], kb, a_panel, b_panel, ldb, acc);
    let mut tile = [[V8::ZERO; NV]; MR];
    // Every row but the last is `ldb` long, and the last holds at least `NR`.
    for (av, bv) in a_panel.chunks_exact(MR).zip(b_panel.chunks(ldb)) {
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

// ---- thin GEMM tile -------------------------------------------------------

/// One tile of the thin GEMMs (`crate::thin`): `R` output rows over `NV`
/// vectors of columns. For `i < R` and column `c`, `acc = Σ_{d < depth}
/// a[i][d] · b[d·ldb + c]`, one FMA chain per element in `d` order from +0
/// (the micro-kernel's chain), then `out[i][c] = acc` when `first`, else
/// `out[i][c] + acc` (its write-back). Columns from `width` on are computed
/// and dropped: `b` must hold all `NV` vectors of every row it is read at,
/// `out` only `width` columns.
pub(crate) struct ThinTile<const R: usize> {
    /// Row `i` of the left operand, contiguous along the depth.
    pub a: [*const f32; R],
    /// The right operand's first column of the tile.
    pub b: *const f32,
    /// Elements between the right operand's rows.
    pub ldb: usize,
    /// Terms of every chain.
    pub depth: usize,
    /// Output row `i` from the tile's first column on.
    pub out: [*mut f32; R],
    /// Columns the tile stores (at most `NV` vectors).
    pub width: usize,
    /// Store rather than add to what `out` holds.
    pub first: bool,
}

/// The thin tile of one tier, captured once per call so that its vector
/// width, its shape and its code cannot disagree under a concurrent
/// [`set_backend_override`].
#[derive(Clone, Copy)]
pub(crate) struct ThinKernel {
    backend: u8,
    /// Columns one vector of the tile spans.
    pub lanes: usize,
    /// Rows and vectors of columns one tile holds at most: what fits the
    /// tier's registers — AVX-512's 32 take 6 × 4 accumulators, 4 loads and
    /// a broadcast; AVX2's 16 take 4 × 3, 3 loads and a broadcast (4 × 4
    /// spills there).
    pub rows: usize,
    pub vectors: usize,
    /// Whether a pointwise weight gradient runs on this tile
    /// (`crate::thin::pointwise_grad_weight_block`) rather than the packed driver:
    /// on the vector tiers. The portable tile is scalar `mul_add` loops,
    /// 5–7× the driver's time there.
    pub grad_weight: bool,
}

/// The active tier's [`ThinKernel`].
pub(crate) fn thin_kernel() -> ThinKernel {
    let backend = resolve();
    let (lanes, rows, vectors, grad_weight) = match backend {
        B_AVX512 => (16, 6, 4, true),
        B_AVX2 => (LANES, 4, 3, true),
        _ => (LANES, 4, 4, false),
    };
    ThinKernel { backend, lanes, rows, vectors, grad_weight }
}

impl ThinKernel {
    /// Runs a thin tile of `R` (at most [`ThinKernel::rows`]) rows and `nv`
    /// (1 to [`ThinKernel::vectors`]) vectors.
    ///
    /// # Safety
    /// Every `a[i]` is readable for `depth` floats, `b` for `nv` vectors of
    /// [`ThinKernel::lanes`] floats at each of `depth` rows `ldb` apart, and
    /// every `out[i]` writable for `width` floats.
    pub(crate) unsafe fn tile<const R: usize>(self, t: &ThinTile<R>, nv: usize) {
        debug_assert!(R <= self.rows && (1..=self.vectors).contains(&nv), "{R} x {nv} thin tile");
        macro_rules! on {
            ($tile:ident; $($nv:literal),+) => {
                match nv {
                    $($nv => $tile::<R, $nv>(t),)+
                    _ => unreachable!("{nv} vectors in a thin tile"),
                }
            };
        }
        #[cfg(target_arch = "x86_64")]
        use {avx2::thin_tile as thin_tile_avx2, avx512::thin_tile as thin_tile_avx512};
        match self.backend {
            #[cfg(target_arch = "x86_64")]
            B_AVX512 => on!(thin_tile_avx512; 1, 2, 3, 4),
            #[cfg(target_arch = "x86_64")]
            B_AVX2 => on!(thin_tile_avx2; 1, 2, 3),
            _ => on!(thin_tile_portable; 1, 2, 3, 4),
        }
    }
}

/// [`ThinKernel::tile`] on 8-lane arrays with `mul_add`, the portable tier.
///
/// # Safety
/// As [`ThinKernel::tile`].
unsafe fn thin_tile_portable<const R: usize, const NV: usize>(t: &ThinTile<R>) {
    let mut acc = [[[0.0f32; LANES]; NV]; R];
    for d in 0..t.depth {
        let b = t.b.add(d * t.ldb);
        for (i, row) in acc.iter_mut().enumerate() {
            let a = *t.a[i].add(d);
            for (v, cell) in row.iter_mut().enumerate() {
                for (l, c) in cell.iter_mut().enumerate() {
                    *c = a.mul_add(*b.add(v * LANES + l), *c);
                }
            }
        }
    }
    for (i, row) in acc.iter().enumerate() {
        for (c, &v) in row.as_flattened().iter().enumerate().take(t.width) {
            let o = t.out[i].add(c);
            *o = if t.first { v } else { *o + v };
        }
    }
}

/// The GEMM tile ([`MicroFn`]) on this module's vectors: `micro::<MR, NV>`
/// is the `MR × NV·LANES` tile the dispatch statics hold. Expands inside a
/// module that defines `V`, `LANES` and the `vector_ops!` vocabulary.
#[cfg(target_arch = "x86_64")]
macro_rules! gemm_kernel {
    ($feat:literal) => {
        /// The [`MicroFn`] of an `MR × NV·LANES` tile. A [`Kernel`] holding
        /// it is only returned by [`active_kernel`] (or installed by
        /// [`set_backend_override`]) after `is_x86_feature_detected!`
        /// confirmed this module's features.
        pub(super) fn micro<const MR: usize, const NV: usize>(
            kb: usize,
            a_panel: &[f32],
            b_panel: &[f32],
            ldb: usize,
            acc: &mut [f32],
        ) {
            assert_panels([MR, NV * LANES], kb, a_panel, b_panel, ldb, acc);
            // SAFETY: dispatch guarantees this module's features (above), and
            // the lengths asserted cover the tile's pointer walks.
            unsafe { tile::<MR, NV>(kb, a_panel.as_ptr(), b_panel.as_ptr(), ldb, acc.as_mut_ptr()) }
        }

        /// `MR × NV` accumulators held across the depth loop, each depth
        /// step `NV` loads of B, `MR` broadcasts of A and `MR·NV` FMAs; each
        /// chain starts from `+0`. LLVM unrolls the constant-trip row and
        /// vector loops, so the accumulators stay in registers.
        ///
        /// # Safety
        /// The CPU has this module's features; `ap` reaches `MR·kb` readable
        /// floats, `bp` `kb` rows of `NV·LANES` readable floats `ldb` apart,
        /// and `out` `MR·NV·LANES` writable floats.
        #[target_feature(enable = $feat)]
        unsafe fn tile<const MR: usize, const NV: usize>(
            kb: usize,
            ap: *const f32,
            bp: *const f32,
            ldb: usize,
            out: *mut f32,
        ) {
            let mut c = [[zero(); NV]; MR];
            for p in 0..kb {
                let mut b = [zero(); NV];
                for (v, b) in b.iter_mut().enumerate() {
                    *b = load(bp.add(p * ldb + v * LANES));
                }
                for (i, row) in c.iter_mut().enumerate() {
                    let a = splat(*ap.add(p * MR + i));
                    for (cell, &b) in row.iter_mut().zip(&b) {
                        *cell = fma(a, b, *cell);
                    }
                }
            }
            for (i, row) in c.iter().enumerate() {
                for (v, &cell) in row.iter().enumerate() {
                    store(out.add((i * NV + v) * LANES), cell);
                }
            }
        }
    };
}

/// The thin GEMM tile ([`ThinKernel::tile`]) on this module's vectors. Expands
/// inside a module that defines `V`, `LANES` and the `vector_ops!`
/// vocabulary.
#[cfg(target_arch = "x86_64")]
macro_rules! thin_kernel {
    ($feat:literal) => {
        /// [`ThinKernel::tile`] on this tier: `R × NV` accumulators held
        /// across the depth loop, each depth step `NV` loads of `b`, `R`
        /// broadcasts of `a` and `R·NV` FMAs.
        ///
        /// # Safety
        /// As [`ThinKernel::tile`], on a CPU with this module's features.
        #[target_feature(enable = $feat)]
        pub(super) unsafe fn thin_tile<const R: usize, const NV: usize>(t: &ThinTile<R>) {
            let mut acc = [[zero(); NV]; R];
            for d in 0..t.depth {
                let b = t.b.add(d * t.ldb);
                let mut bv = [zero(); NV];
                for (v, bv) in bv.iter_mut().enumerate() {
                    *bv = load(b.add(v * LANES));
                }
                for (i, row) in acc.iter_mut().enumerate() {
                    let a = splat(*t.a[i].add(d));
                    for (cell, &bv) in row.iter_mut().zip(&bv) {
                        *cell = fma(a, bv, *cell);
                    }
                }
            }
            for (i, row) in acc.iter().enumerate() {
                for (v, &cell) in row.iter().enumerate() {
                    let (o, at) = (t.out[i].add(v * LANES), v * LANES);
                    if at + LANES <= t.width {
                        store(o, if t.first { cell } else { add(load(o), cell) });
                    } else if at < t.width {
                        let mut lanes = [0.0f32; LANES];
                        store(lanes.as_mut_ptr(), cell);
                        for (l, &x) in lanes.iter().enumerate().take(t.width - at) {
                            *o.add(l) = if t.first { x } else { *o.add(l) + x };
                        }
                    }
                }
            }
        }
    };
}

// ---- transposing pack ----------------------------------------------------

/// The one transposing pack of the GEMM drivers. Each run `(r0, at, n)`
/// writes `dst[(r0 + r)·ld + j] = src[at + rows[j] + r]` for `r < n`, `j <
/// rows.len()`: each of the `rows.len()` source rows is read along `n`
/// consecutive elements from its own offset and lands in column `j` of `n`
/// destination rows `ld` apart. Columns past `rows.len()` are not touched (a
/// panel's zero padding is its packer's business). A row-major operand's A
/// panel is one run (`ld = mr`, one source row per output row); the weight
/// gradient's B panel is one run per stretch of consecutive voxels (`ld =
/// nr`, one source row per patch column).
///
/// Square blocks go through registers — 16×16 on the AVX-512 tier, 8×8 and
/// 4×4 on it and on the AVX2 tier — and what no block covers (edge columns,
/// a run's tail, and all of it on the portable tier) is the scalar loop. A
/// pack moves bits and computes nothing, so every tier packs the same panel.
///
/// # Panics
/// Panics if a read or a write would leave its slice.
pub(crate) fn transpose_pack(
    dst: &mut [f32],
    ld: usize,
    src: &[f32],
    rows: &[u32],
    runs: impl Iterator<Item = (usize, usize, usize)>,
) {
    // SAFETY: `resolve` only returns tiers this CPU was detected to have.
    unsafe { transpose_pack_on(resolve(), dst, ld, src, rows, runs) }
}

/// [`transpose_pack`] on a given tier.
///
/// # Safety
/// As [`slice_on`].
unsafe fn transpose_pack_on(
    backend: u8,
    dst: &mut [f32],
    ld: usize,
    src: &[f32],
    rows: &[u32],
    runs: impl Iterator<Item = (usize, usize, usize)>,
) {
    let Some(&far) = rows.iter().max() else { return };
    let w = rows.len();
    assert!(w <= ld, "a transposed block is wider than its panel");
    let blocks: &[usize] = match backend {
        B_AVX512 => &[16, 8, 4],
        B_AVX2 => &[8, 4],
        _ => &[],
    };
    for (r0, at, n) in runs.filter(|run| run.2 > 0) {
        assert!((r0 + n - 1) * ld + w <= dst.len(), "a transposed run leaves its panel");
        assert!(at + far as usize + n <= src.len(), "a transposed run reads past its source");
        // Blocks no wider than the run and the columns.
        let fit = blocks.iter().position(|&t| t <= n.min(w)).unwrap_or(blocks.len());
        // SAFETY: every access below is `r < n`, `j < w` in the ranges checked
        // above, and the caller vouches for the tier of `blocks`.
        unsafe {
            let (to, from) = (dst.as_mut_ptr().add(r0 * ld), src.as_ptr().add(at));
            transpose_cover(to, ld, from, rows, 0..w, 0..n, &blocks[fit..]);
        }
    }
}

/// [`transpose_pack`] over columns `js` and rows `rs`: whole `t × t` blocks
/// of the first size in `blocks`, then the rows those blocks left and the
/// columns they left with the sizes after it, then the scalar loop.
///
/// # Safety
/// As [`transpose_pack`] checks for one run, `dst` and `src` advanced to it.
unsafe fn transpose_cover(
    dst: *mut f32,
    ld: usize,
    src: *const f32,
    rows: &[u32],
    js: std::ops::Range<usize>,
    rs: std::ops::Range<usize>,
    blocks: &[usize],
) {
    if js.is_empty() || rs.is_empty() {
        return;
    }
    let Some((&t, smaller)) = blocks.split_first() else {
        // The longer extent innermost: a long run reads each source row
        // straight through, a short one writes each destination row so.
        if rs.len() >= js.len() {
            for j in js {
                let from = src.add(rows[j] as usize);
                for r in rs.clone() {
                    *dst.add(r * ld + j) = *from.add(r);
                }
            }
        } else {
            for r in rs {
                let (to, from) = (dst.add(r * ld), src.add(r));
                for j in js.clone() {
                    *to.add(j) = *from.add(rows[j] as usize);
                }
            }
        }
        return;
    };
    let j_end = js.start + js.len() / t * t;
    let r_end = rs.start + rs.len() / t * t;
    for j in (js.start..j_end).step_by(t) {
        for r in (rs.start..r_end).step_by(t) {
            let (from, to, rows) = (src.add(r), dst.add(r * ld + j), &rows[j..j + t]);
            #[cfg(target_arch = "x86_64")]
            match t {
                16 => transpose_16x16(from, rows, to, ld),
                8 => transpose_8x8(from, rows, to, ld),
                _ => transpose_4x4(from, rows, to, ld),
            }
            #[cfg(not(target_arch = "x86_64"))]
            let _ = (from, to, rows);
        }
    }
    transpose_cover(dst, ld, src, rows, js.start..j_end, r_end..rs.end, smaller);
    transpose_cover(dst, ld, src, rows, j_end..js.end, rs, smaller);
}

/// One 4×4 block: source row `i` from `src + rows[i]`, destination row `i`
/// at `dst + i·ld` (SSE operations, VEX-encoded beside the AVX blocks).
///
/// # Safety
/// The CPU has AVX2, `rows` holds at least 4 offsets, and the 4 floats at
/// each `src + rows[i]` and at each `dst + i·ld` (`i < 4`) are in bounds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn transpose_4x4(src: *const f32, rows: &[u32], dst: *mut f32, ld: usize) {
    use std::arch::x86_64::*;
    let mut r = [_mm_setzero_ps(); 4];
    for (v, &o) in r.iter_mut().zip(rows) {
        *v = _mm_loadu_ps(src.add(o as usize));
    }
    let (t0, t1) = (_mm_unpacklo_ps(r[0], r[1]), _mm_unpacklo_ps(r[2], r[3]));
    let (t2, t3) = (_mm_unpackhi_ps(r[0], r[1]), _mm_unpackhi_ps(r[2], r[3]));
    let cols = [
        _mm_movelh_ps(t0, t1),
        _mm_movehl_ps(t1, t0),
        _mm_movelh_ps(t2, t3),
        _mm_movehl_ps(t3, t2),
    ];
    for (k, c) in cols.into_iter().enumerate() {
        _mm_storeu_ps(dst.add(k * ld), c);
    }
}

/// One 8×8 block (as [`transpose_4x4`]): pairs interleaved, then quads,
/// then the 128-bit halves swapped across.
///
/// # Safety
/// As [`transpose_4x4`], for 8 rows of 8 floats.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn transpose_8x8(src: *const f32, rows: &[u32], dst: *mut f32, ld: usize) {
    use std::arch::x86_64::*;
    let mut r = [_mm256_setzero_ps(); 8];
    for (v, &o) in r.iter_mut().zip(rows) {
        *v = _mm256_loadu_ps(src.add(o as usize));
    }
    let mut t = [_mm256_setzero_ps(); 8];
    for i in 0..4 {
        t[2 * i] = _mm256_unpacklo_ps(r[2 * i], r[2 * i + 1]);
        t[2 * i + 1] = _mm256_unpackhi_ps(r[2 * i], r[2 * i + 1]);
    }
    // Rows 4q..4q+4, columns k and k+4: s[4q + k].
    let mut s = [_mm256_setzero_ps(); 8];
    for q in 0..2 {
        let (lo, hi) = (4 * q, 4 * q + 2);
        s[lo] = _mm256_shuffle_ps::<0x44>(t[lo], t[hi]);
        s[lo + 1] = _mm256_shuffle_ps::<0xEE>(t[lo], t[hi]);
        s[lo + 2] = _mm256_shuffle_ps::<0x44>(t[lo + 1], t[hi + 1]);
        s[lo + 3] = _mm256_shuffle_ps::<0xEE>(t[lo + 1], t[hi + 1]);
    }
    for k in 0..4 {
        _mm256_storeu_ps(dst.add(k * ld), _mm256_permute2f128_ps::<0x20>(s[k], s[4 + k]));
        _mm256_storeu_ps(dst.add((k + 4) * ld), _mm256_permute2f128_ps::<0x31>(s[k], s[4 + k]));
    }
}

/// One 16×16 block (as [`transpose_8x8`], with the 128-bit lanes gathered
/// by two rounds of `vshuff32x4`).
///
/// # Safety
/// As [`transpose_4x4`], for 16 rows of 16 floats, and the CPU has
/// AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn transpose_16x16(src: *const f32, rows: &[u32], dst: *mut f32, ld: usize) {
    use std::arch::x86_64::*;
    let mut r = [_mm512_setzero_ps(); 16];
    for (v, &o) in r.iter_mut().zip(rows) {
        *v = _mm512_loadu_ps(src.add(o as usize));
    }
    let mut t = [_mm512_setzero_ps(); 16];
    for i in 0..8 {
        t[2 * i] = _mm512_unpacklo_ps(r[2 * i], r[2 * i + 1]);
        t[2 * i + 1] = _mm512_unpackhi_ps(r[2 * i], r[2 * i + 1]);
    }
    // Rows 4q..4q+4, columns k, k+4, k+8, k+12 (one per 128-bit lane): u[4q + k].
    let mut u = [_mm512_setzero_ps(); 16];
    for q in 0..4 {
        let (lo, hi) = (4 * q, 4 * q + 2);
        u[lo] = _mm512_shuffle_ps::<0x44>(t[lo], t[hi]);
        u[lo + 1] = _mm512_shuffle_ps::<0xEE>(t[lo], t[hi]);
        u[lo + 2] = _mm512_shuffle_ps::<0x44>(t[lo + 1], t[hi + 1]);
        u[lo + 3] = _mm512_shuffle_ps::<0xEE>(t[lo + 1], t[hi + 1]);
    }
    for k in 0..4 {
        // Rows 0..8 (`a`) and 8..16 (`b`) of columns k, k+8 (`0x88`) and
        // k+4, k+12 (`0xDD`), as [c rows 0-3 | c' rows 0-3 | c rows 4-7 | c' rows 4-7].
        let a0 = _mm512_shuffle_f32x4::<0x88>(u[k], u[4 + k]);
        let a1 = _mm512_shuffle_f32x4::<0xDD>(u[k], u[4 + k]);
        let b0 = _mm512_shuffle_f32x4::<0x88>(u[8 + k], u[12 + k]);
        let b1 = _mm512_shuffle_f32x4::<0xDD>(u[8 + k], u[12 + k]);
        _mm512_storeu_ps(dst.add(k * ld), _mm512_shuffle_f32x4::<0x88>(a0, b0));
        _mm512_storeu_ps(dst.add((k + 8) * ld), _mm512_shuffle_f32x4::<0xDD>(a0, b0));
        _mm512_storeu_ps(dst.add((k + 4) * ld), _mm512_shuffle_f32x4::<0x88>(a1, b1));
        _mm512_storeu_ps(dst.add((k + 12) * ld), _mm512_shuffle_f32x4::<0xDD>(a1, b1));
    }
}

// ---- softplus ------------------------------------------------------------

/// 1.5 · 2²³: adding it leaves `round(x)` in the low mantissa bits.
const EXP_SHIFT: f32 = 12_582_912.0;
/// `ln 2` split so that `n · LN2_HI` is exact for `|n| < 2¹³` (355/512:
/// every digit below is significant, whatever clippy counts).
#[allow(clippy::excessive_precision)]
const LN2_HI: f32 = 0.693_359_375;
const LN2_LO: f32 = -2.121_944_4e-4;
// Coefficients keep Cephes' published digits; clippy would have us round them.
#[allow(clippy::excessive_precision)]
const EXP_P: [f32; 6] = [
    1.987_569_15e-4,
    1.398_199_95e-3,
    8.333_451_9e-3,
    4.166_579_6e-2,
    1.666_666_55e-1,
    5.000_000_1e-1,
];
#[allow(clippy::excessive_precision)]
const LN_P: [f32; 9] = [
    7.037_683_6e-2,
    -1.151_461_03e-1,
    1.167_699_87e-1,
    -1.242_014_08e-1,
    1.424_932_28e-1,
    -1.666_805_77e-1,
    2.000_071_48e-1,
    -2.499_999_4e-1,
    3.333_333_1e-1,
];
const MANTISSA: i32 = 0x007F_FFFF;
const HALF_BITS: i32 = 0x3F00_0000;
/// Regime cuts: below `-SATURATE` softplus is `eˣ`, above `SATURATE` it is
/// `x`; the one clamped exponential never sees less than `EXP_FLOOR`
/// (`e⁻⁸⁷` is still a normal float).
const SATURATE: f32 = 20.0;
const EXP_FLOOR: f32 = -87.0;

/// `e^x` by base-2 range reduction and a degree-5 polynomial (Cephes `expf`
/// coefficients, ≤ 2 ULP on the reduced interval). The caller must keep `x`
/// inside roughly `[-87, 88]` so the `2^n` exponent-bit reconstruction stays
/// in normal-float territory. Branch-free: straight-line selects only.
#[inline(always)]
fn exp_poly(x: f32) -> f32 {
    // n = round(x / ln 2) via the shift-magic trick (valid since |n| < 2^22);
    // the integer lands in the low mantissa bits of z.
    let z = x.mul_add(std::f32::consts::LOG2_E, EXP_SHIFT);
    let ni = (z.to_bits() as i32).wrapping_sub(EXP_SHIFT.to_bits() as i32);
    let n = z - EXP_SHIFT;
    // r = x - n*ln2 in two pieces (high then low part) so the reduction is exact.
    let r = n.mul_add(-LN2_HI, x);
    let r = n.mul_add(-LN2_LO, r);
    // e^r = 1 + r + r^2 * P(r) on |r| <= ln2 / 2.
    let mut p = EXP_P[0];
    for c in &EXP_P[1..] {
        p = p.mul_add(r, *c);
    }
    let y = (p * r).mul_add(r, r) + 1.0;
    // Scale by 2^n through the exponent field.
    y * f32::from_bits(((ni + 127) << 23) as u32)
}

/// `ln x` for finite positive `x` (Cephes `logf`): split off the exponent,
/// normalize the mantissa into `[√½, √2)`, degree-8 polynomial in `m − 1`.
/// Branch-free, like [`exp_poly`].
#[inline(always)]
fn ln_poly(x: f32) -> f32 {
    let bits = x.to_bits() as i32;
    let mut e = ((bits >> 23) - 126) as f32;
    // Mantissa into [0.5, 1), then fold m < √½ up a binade so f = m - 1 stays small.
    let mut m = f32::from_bits(((bits & MANTISSA) | HALF_BITS) as u32);
    let small = (m < std::f32::consts::FRAC_1_SQRT_2) as u32 as f32;
    e -= small;
    m += small * m;
    let f = m - 1.0;
    let z = f * f;
    let mut p = LN_P[0];
    for c in &LN_P[1..] {
        p = p.mul_add(f, *c);
    }
    let mut y = f * z * p;
    y = e.mul_add(LN2_LO, y);
    y -= 0.5 * z;
    e.mul_add(LN2_HI, f + y)
}

/// Numerically-stable softplus `ln(1 + eˣ)`: the textbook regime structure
/// with saturation at `|x| = 20`, built on the inlined polynomial
/// `exp`/`ln` above instead of libm calls. This scalar form is the
/// definition; [`softplus_slice`] and [`bias_softplus_features`] evaluate
/// exactly these operations in this order on every backend, so which one ran
/// never shows in a single output bit. Stays within the reftest oracle's ULP
/// budget.
#[inline]
pub fn softplus_scalar(x: f32) -> f32 {
    // One clamped exp serves both low regimes.
    let t = x.clamp(EXP_FLOOR, SATURATE);
    let z = exp_poly(t);
    let mid = ln_poly(1.0 + z);
    let mut y = if x < -SATURATE { z } else { mid };
    y = if x > SATURATE { x } else { y }; // also catches +inf
    if x.is_nan() {
        x
    } else {
        y
    }
}

/// The logistic sigmoid `1 / (1 + e⁻ˣ)` — softplus′ — as `z / (1 + z)` on
/// the clamped polynomial exponential `z` that [`softplus_scalar`] starts
/// from, so the derivative costs one division more than the value and is
/// just as branch-free. Above the clamp it is exactly `1.0`; below it, it
/// stays at `e⁻⁸⁷` (the true value is subnormal there). This scalar form is
/// the one definition of softplus′: the tape's backward kernels
/// ([`softplus_grad_slice`], [`bias_softplus_grad_features`]) evaluate exactly
/// these operations on every backend, and the activation derivatives the
/// jets use call it directly.
#[inline]
pub fn sigmoid_scalar(x: f32) -> f32 {
    let z = exp_poly(x.clamp(EXP_FLOOR, SATURATE));
    let s = z / (1.0 + z);
    if x.is_nan() {
        x
    } else {
        s
    }
}

/// `x[i] = softplus(x[i])`, in place.
pub fn softplus_slice(x: &mut [f32]) {
    // SAFETY: `resolve` only returns tiers this CPU was detected to have.
    unsafe { slice_on::<false>(resolve(), x, &[]) }
}

/// `g[i] *= softplus′(z[i])`, in place on `g` — the softplus backward pass:
/// the adjoint of the output becomes the adjoint of the pre-activation `z`.
///
/// # Panics
/// Panics if `g` and `z` differ in length.
pub fn softplus_grad_slice(g: &mut [f32], z: &[f32]) {
    assert_eq!(g.len(), z.len(), "softplus_grad_slice: adjoint and pre-activation lengths differ");
    // SAFETY: as in `softplus_slice`.
    unsafe { slice_on::<true>(resolve(), g, z) }
}

/// `x[j][r] = softplus(x[j][r] + bias[j])` over the feature rows of `x:
/// [bias.len(), M]`, in place — a Linear layer's bias add and hidden
/// activation in one pass over its GEMM output, in the decoder's layout,
/// where an output feature is one contiguous row with one bias.
///
/// # Panics
/// Panics if `x.len()` is not a multiple of `bias.len()`.
pub fn bias_softplus_features(x: &mut [f32], bias: &[f32]) {
    assert!(
        !bias.is_empty() && x.len().is_multiple_of(bias.len()),
        "bias_softplus_features: {} values are not {} feature rows",
        x.len(),
        bias.len()
    );
    // SAFETY: as in `softplus_slice`.
    unsafe { features_on::<false>(resolve(), x, bias, &[]) }
}

/// [`bias_softplus_features`] from a GEMM output that backward keeps:
/// `y[j][r] = softplus(pre[j][r] + bias[j])`, `pre` read and `y` written in
/// one pass — how a one-lane softplus layer on the tape ends. The bits of
/// the in-place form on a copy of `pre`, on every tier.
///
/// # Panics
/// Panics if `y` and `pre` differ in length or are not feature rows of
/// `bias.len()`.
pub fn bias_softplus_features_from(y: &mut [f32], pre: &[f32], bias: &[f32]) {
    assert!(
        !bias.is_empty() && y.len().is_multiple_of(bias.len()) && y.len() == pre.len(),
        "bias_softplus_features_from: {} outputs, {} pre-activations, {} feature rows",
        y.len(),
        pre.len(),
        bias.len()
    );
    // SAFETY: as in `softplus_slice`.
    unsafe { features_on::<false>(resolve(), y, bias, pre) }
}

/// `g[j][r] *= softplus′(z[j][r] + bias[j])` over the feature rows of `g, z:
/// [bias.len(), M]`, in place on `g` — the backward pass of
/// [`bias_softplus_features`], reading the GEMM output `z` it overwrote.
///
/// # Panics
/// Panics if `g` and `z` differ in length or are not feature rows of
/// `bias.len()`.
pub fn bias_softplus_grad_features(g: &mut [f32], z: &[f32], bias: &[f32]) {
    assert!(
        !bias.is_empty() && g.len().is_multiple_of(bias.len()) && g.len() == z.len(),
        "bias_softplus_grad_features: {} adjoints, {} pre-activations, {} feature rows",
        g.len(),
        z.len(),
        bias.len()
    );
    // SAFETY: as in `softplus_slice`.
    unsafe { features_on::<true>(resolve(), g, bias, z) }
}

/// [`softplus_slice`] (with `GRAD`, [`softplus_grad_slice`]) on a given tier.
///
/// # Safety
/// The CPU must have the features of `backend` (any tier `>=` the detected
/// one qualifies).
unsafe fn slice_on<const GRAD: bool>(backend: u8, x: &mut [f32], z: &[f32]) {
    match backend {
        #[cfg(target_arch = "x86_64")]
        B_AVX512 => avx512::slice::<GRAD>(x, z),
        #[cfg(target_arch = "x86_64")]
        B_AVX2 => avx2::slice::<GRAD>(x, z),
        _ => softplus_tail::<false, GRAD>(x, 0.0, z),
    }
}

/// [`bias_softplus_features`] (from `z` when it is not empty:
/// [`bias_softplus_features_from`]; with `GRAD`,
/// [`bias_softplus_grad_features`]) on a given tier. The vector tiers take
/// rows that are whole 8-lane groups (every decode block: 8 vertices a
/// query); any other length runs the scalar form.
///
/// # Safety
/// As [`slice_on`].
unsafe fn features_on<const GRAD: bool>(backend: u8, x: &mut [f32], bias: &[f32], z: &[f32]) {
    let m = x.len() / bias.len();
    // Where the vector forms read the argument is a type parameter: the
    // in-place form loads and stores through one pointer.
    macro_rules! on {
        ($module:ident) => {
            if z.is_empty() {
                $module::features::<GRAD, false>(x, m, bias, z)
            } else {
                $module::features::<GRAD, true>(x, m, bias, z)
            }
        };
    }
    match backend {
        #[cfg(target_arch = "x86_64")]
        B_AVX512 if m.is_multiple_of(8) => on!(avx512),
        #[cfg(target_arch = "x86_64")]
        B_AVX2 if m.is_multiple_of(8) => on!(avx2),
        _ => {
            for (j, (row, &b)) in x.chunks_mut(m.max(1)).zip(bias).enumerate() {
                softplus_tail::<true, GRAD>(
                    row,
                    b,
                    if z.is_empty() { z } else { &z[j * m..][..m] },
                );
            }
        }
    }
}

/// The scalar forms over (the end of) one row, the argument plus `bias`
/// first with `BIAS`. The argument is `z` (aligned with `row`) when it is
/// not empty, else `row` itself; without `GRAD` the result overwrites
/// `row`, with it (`z` given) it scales the adjoint `row` holds.
#[inline]
fn softplus_tail<const BIAS: bool, const GRAD: bool>(row: &mut [f32], bias: f32, z: &[f32]) {
    let f = |x: f32, v: f32| {
        let x = if BIAS { x + bias } else { x };
        if GRAD {
            v * sigmoid_scalar(x)
        } else {
            softplus_scalar(x)
        }
    };
    if z.is_empty() {
        row.iter_mut().for_each(|v| *v = f(*v, *v));
    } else {
        // Zipped with the row, so the loop carries no bounds checks.
        let z = &z[..row.len()];
        row.iter_mut().zip(z).for_each(|(v, &x)| *v = f(x, *v));
    }
}

/// Lanes a derivative-carrying matrix holds: a value, its first derivatives
/// along `t`, `z`, `x` and its second along `z` and `x` (what the
/// Rayleigh–Bénard residuals read). A six-lane matrix of `M` points is
/// feature-major, `[N, JET_LANES·M]`: feature row `j` holds lane 0's `M`
/// points, then lane 1's, and so on, so a linear map acts on all six lanes
/// with one GEMM over `JET_LANES·M` columns.
pub const JET_LANES: usize = 6;

/// An activation `σ` applied to the six lanes `u` of its argument, given
/// `v = σ(u₀)`, `d1 = σ′(u₀)`, `d2 = σ″(u₀)`: `σ(u)′ = σ′u′` and
/// `σ(u)″ = σ″u′² + σ′u″` (the second-derivative lanes 4, 5 pair with the
/// first-derivative lanes 2, 3). The one definition of that chain rule: the
/// vector kernels transcribe these operations in this order.
#[inline]
pub fn jet_chain(v: f32, d1: f32, d2: f32, u: [f32; JET_LANES]) -> [f32; JET_LANES] {
    [
        v,
        d1 * u[1],
        d1 * u[2],
        d1 * u[3],
        (d2 * u[2]).mul_add(u[2], d1 * u[4]),
        (d2 * u[3]).mul_add(u[3], d1 * u[5]),
    ]
}

/// The reverse pass of [`jet_chain`]: the adjoints of the six argument lanes
/// `u` from the adjoints `g` of the six output lanes. The value lane collects
/// `g₀σ′ + σ″·Σ gₖuₖ + g₄(σ‴u₂² + σ″u₄) + g₅(σ‴u₃² + σ″u₅)`, a
/// first-derivative lane its own `gₖσ′` plus `2σ″uₖ` of its second-derivative
/// partner's adjoint.
#[inline]
pub fn jet_chain_grad(
    [d1, d2, d3]: [f32; 3],
    g: [f32; JET_LANES],
    u: [f32; JET_LANES],
) -> [f32; JET_LANES] {
    let first = g[1].mul_add(u[1], g[2].mul_add(u[2], g[3] * u[3]));
    let q4 = (d3 * u[2]).mul_add(u[2], d2 * u[4]);
    let q5 = (d3 * u[3]).mul_add(u[3], d2 * u[5]);
    let (w2, w3) = (d2 * u[2], d2 * u[3]);
    [
        g[5].mul_add(q5, g[4].mul_add(q4, g[0].mul_add(d1, d2 * first))),
        g[1] * d1,
        g[2].mul_add(d1, g[4] * (w2 + w2)),
        g[3].mul_add(d1, g[5] * (w3 + w3)),
        g[4] * d1,
        g[5] * d1,
    ]
}

/// Softplus and its first three derivatives `[σ, σ′, σ″, σ‴]` at `x`, the
/// last two from the sigmoid `s`: `s(1 − s)` and `s(1 − s)(1 − 2s)`.
#[inline]
pub fn softplus_derivs(x: f32) -> [f32; 4] {
    let s = sigmoid_scalar(x);
    let c = s * (1.0 - s);
    [softplus_scalar(x), s, c, c * (1.0 - (s + s))]
}

/// [`jet_chain`] over the feature rows of a six-lane matrix `x: [N,
/// JET_LANES·M]` (`N = bias.len()`, [`JET_LANES`]), in place — or, given a
/// `z` as long as `x`, of `z` into `x`, one pass with the same arithmetic —
/// for an activation given by its [`softplus_derivs`]-shaped `derivs`;
/// `bias[j]` joins row `j`'s value lane only. With `GRAD`, [`jet_chain_grad`]
/// instead — the backward pass, in place on the adjoints `x`, reading the
/// pre-activations `z` (as long as `x`) the forward read.
///
/// With `seeds` (three per row, `3·N` values, rather than none) the
/// argument's lanes 1–5 are not in `x` or `z` but constant along each row:
/// lane `1 + a` of row `j` is `seeds[3j + a]`, lanes 4 and 5 are zero, and
/// `z: [N, M]` holds the value lane alone. The forward reads `z` and writes
/// all six lanes of `x`; the backward writes the value lane's adjoint over
/// `z` rather than into `x`, leaving it one contiguous `[N, M]` matrix.
pub fn bias_jet_features<const GRAD: bool>(
    x: &mut [f32],
    z: &mut [f32],
    bias: &[f32],
    seeds: &[f32],
    derivs: impl Fn(f32) -> [f32; 4],
) {
    let m = jet_points_per_lane::<GRAD>(x.len(), z.len(), bias.len(), seeds.len());
    let zl = z.len() / bias.len();
    for (j, &b) in bias.iter().enumerate() {
        let (xr, zr) = (&mut x[j * JET_LANES * m..][..JET_LANES * m], &mut z[j * zl..][..zl]);
        let seeds = seeds.get(3 * j..3 * j + 3).map(|s| [s[0], s[1], s[2]]);
        jet_points::<GRAD>(xr, zr, b, seeds, 0..m, &derivs);
    }
}

/// [`bias_jet_features`] for softplus on explicit vectors, one clamped
/// exponential per element.
pub fn bias_softplus_jet_features<const GRAD: bool>(
    x: &mut [f32],
    z: &mut [f32],
    bias: &[f32],
    seeds: &[f32],
) {
    let m = jet_points_per_lane::<GRAD>(x.len(), z.len(), bias.len(), seeds.len());
    // SAFETY: `resolve` only returns tiers this CPU was detected to have.
    unsafe { jet_features_on::<GRAD>(resolve(), x, m, bias, z, seeds) }
}

/// Points per lane of a six-lane matrix of `len` values in `n` feature rows,
/// the lengths of `z` and `seeds` checked against it ([`bias_jet_features`]).
fn jet_points_per_lane<const GRAD: bool>(
    len: usize,
    z_len: usize,
    n: usize,
    seeds: usize,
) -> usize {
    let z_lanes = if seeds == 0 { 1 } else { JET_LANES };
    assert!(
        n > 0
            && len.is_multiple_of(JET_LANES * n)
            && (seeds == 0 || seeds == 3 * n)
            && ((!GRAD && seeds == 0 && z_len == 0) || z_len * z_lanes == len),
        "{len} values ({z_len} pre-activations, {seeds} seeds) are not {n} feature rows of \
         {JET_LANES} lanes"
    );
    len / (JET_LANES * n)
}

/// [`bias_softplus_jet_features`] on a given tier, `m` points per lane.
///
/// # Safety
/// As [`slice_on`].
unsafe fn jet_features_on<const GRAD: bool>(
    backend: u8,
    x: &mut [f32],
    m: usize,
    bias: &[f32],
    z: &mut [f32],
    seeds: &[f32],
) {
    match (backend, seeds.is_empty()) {
        #[cfg(target_arch = "x86_64")]
        (B_AVX512, true) => avx512::jet_features::<GRAD, false>(x, m, bias, z, seeds),
        #[cfg(target_arch = "x86_64")]
        (B_AVX512, false) => avx512::jet_features::<GRAD, true>(x, m, bias, z, seeds),
        #[cfg(target_arch = "x86_64")]
        (B_AVX2, true) => avx2::jet_features::<GRAD, false>(x, m, bias, z, seeds),
        #[cfg(target_arch = "x86_64")]
        (B_AVX2, false) => avx2::jet_features::<GRAD, true>(x, m, bias, z, seeds),
        _ => bias_jet_features::<GRAD>(x, z, bias, seeds, softplus_derivs),
    }
}

/// The scalar form over `points` of one feature row: `x: [JET_LANES·m]`
/// holds lane `l` of point `r` at `x[l·m + r]` and becomes [`jet_chain`] of
/// itself, or with `GRAD` [`jet_chain_grad`] of itself at the pre-activation
/// lanes in `z` — lanes 1–5 of the argument from `seeds` where there are
/// any, `z` then the value lane alone and, with `GRAD`, where its adjoint
/// goes ([`bias_jet_features`]).
#[inline]
fn jet_points<const GRAD: bool>(
    x: &mut [f32],
    z: &mut [f32],
    bias: f32,
    seeds: Option<[f32; 3]>,
    points: std::ops::Range<usize>,
    derivs: &impl Fn(f32) -> [f32; 4],
) {
    let m = x.len() / JET_LANES;
    for r in points {
        let lanes = |v: &[f32]| -> [f32; JET_LANES] { std::array::from_fn(|l| v[l * m + r]) };
        let mut u = match seeds {
            None => lanes(if GRAD || !z.is_empty() { z } else { x }),
            Some([s0, s1, s2]) => [z[r], s0, s1, s2, 0.0, 0.0],
        };
        u[0] += bias;
        let [v, d1, d2, d3] = derivs(u[0]);
        let y =
            if GRAD { jet_chain_grad([d1, d2, d3], lanes(x), u) } else { jet_chain(v, d1, d2, u) };
        for (l, y) in y.into_iter().enumerate() {
            if GRAD && seeds.is_some() && l == 0 {
                z[r] = y;
            } else {
                x[l * m + r] = y;
            }
        }
    }
}

/// The bias of the next 8-lane group of a `[bias.len(), m]` matrix walked in
/// order; `at` is the cursor `(row, groups left in it)`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn group_bias(bias: &[f32], m: usize, at: &mut (usize, usize)) -> f32 {
    if at.1 == 0 {
        *at = (at.0 + 1, m / 8);
    }
    at.1 -= 1;
    bias[at.0]
}

/// One-line `#[target_feature]` wrappers giving both vector widths the same
/// vocabulary, so the kernel below is written once.
#[cfg(target_arch = "x86_64")]
macro_rules! vector_ops {
    ($feat:literal; $($name:ident($($a:ident: $t:ty),*) -> $r:ty = $e:expr;)*) => {
        $(
            #[inline]
            #[target_feature(enable = $feat)]
            fn $name($($a: $t),*) -> $r {
                $e
            }
        )*
    };
}

/// The vector softplus and its derivative: [`softplus_scalar`] and
/// [`sigmoid_scalar`] transcribed operation by operation onto `N`
/// independent vectors, each step issued for all `N` before the next. One
/// vector's two Horner chains are ~20 dependent FMAs with nothing else to
/// issue in their shadow; with several vectors in flight the chains overlap
/// and the loop is bound by FMA throughput instead of FMA latency. Expands
/// inside a module that defines `V`, `VI`, `LANES` and the `vector_ops!`
/// vocabulary.
#[cfg(target_arch = "x86_64")]
macro_rules! softplus_kernel {
    ($feat:literal) => {
        /// Applies `$e` (an expression in lane index `$i`) to all `N` vectors.
        macro_rules! each {
            (|$i:ident| $e:expr) => {{
                let mut out = [zero(); N];
                for $i in 0..N {
                    out[$i] = $e;
                }
                out
            }};
        }

        /// `exp_poly(clamp(x))`, the exponential both functions start from.
        #[inline]
        #[target_feature(enable = $feat)]
        fn exp_clamped<const N: usize>(x: [V; N]) -> [V; N] {
            let t = each!(|i| max(min(x[i], splat(SATURATE)), splat(EXP_FLOOR)));
            let z = each!(|i| fma(t[i], splat(std::f32::consts::LOG2_E), splat(EXP_SHIFT)));
            let ni = |z: V| isub(bits(z), isplat(EXP_SHIFT.to_bits() as i32));
            let scale = each!(|i| from_bits(shl23(iadd(ni(z[i]), isplat(127)))));
            let n = each!(|i| sub(z[i], splat(EXP_SHIFT)));
            let r = each!(|i| fma(n[i], splat(-LN2_HI), t[i]));
            let r = each!(|i| fma(n[i], splat(-LN2_LO), r[i]));
            let mut p = [splat(EXP_P[0]); N];
            for c in &EXP_P[1..] {
                p = each!(|i| fma(p[i], r[i], splat(*c)));
            }
            let y = each!(|i| add(fma(mul(p[i], r[i]), r[i], r[i]), splat(1.0)));
            each!(|i| mul(y[i], scale[i]))
        }

        /// `softplus(x)` given `z = exp_clamped(x)`.
        #[inline]
        #[target_feature(enable = $feat)]
        fn softplus_of<const N: usize>(x: [V; N], z: [V; N]) -> [V; N] {
            // ln_poly(1 + z)
            let u = each!(|i| add(splat(1.0), z[i]));
            let e = each!(|i| to_f32(isub(sar23(bits(u[i])), isplat(126))));
            let m = each!(|i| from_bits(ior(iand(bits(u[i]), isplat(MANTISSA)), isplat(HALF_BITS))));
            let small = each!(|i| one_where_lt(m[i], splat(std::f32::consts::FRAC_1_SQRT_2)));
            let e = each!(|i| sub(e[i], small[i]));
            let m = each!(|i| add(m[i], mul(small[i], m[i])));
            let f = each!(|i| sub(m[i], splat(1.0)));
            let zz = each!(|i| mul(f[i], f[i]));
            let mut p = [splat(LN_P[0]); N];
            for c in &LN_P[1..] {
                p = each!(|i| fma(p[i], f[i], splat(*c)));
            }
            let y = each!(|i| mul(mul(f[i], zz[i]), p[i]));
            let y = each!(|i| fma(e[i], splat(LN2_LO), y[i]));
            let y = each!(|i| sub(y[i], mul(splat(0.5), zz[i])));
            let mid = each!(|i| fma(e[i], splat(LN2_HI), add(f[i], y[i])));
            // regime selects
            let y = each!(|i| select_lt(x[i], splat(-SATURATE), z[i], mid[i]));
            let y = each!(|i| select_lt(splat(SATURATE), x[i], x[i], y[i]));
            each!(|i| nan_or(x[i], y[i]))
        }

        /// `sigmoid(x)` given `z = exp_clamped(x)`.
        #[inline]
        #[target_feature(enable = $feat)]
        fn sigmoid_of<const N: usize>(x: [V; N], z: [V; N]) -> [V; N] {
            let s = each!(|i| div(z[i], add(splat(1.0), z[i])));
            each!(|i| nan_or(x[i], s[i]))
        }

        /// `N` vectors at element `c` of `x`: `x = softplus(src)`, or with
        /// `GRAD` `x *= sigmoid(src)`, the argument `src` (`x` itself, `z` or
        /// a kept GEMM output) plus the `N` bias vectors first with `BIAS`.
        ///
        /// # Safety
        /// `x` and `src` must be valid for `N * LANES` floats from offset `c`.
        #[inline]
        #[target_feature(enable = $feat)]
        unsafe fn step<const BIAS: bool, const GRAD: bool, const N: usize>(
            x: *mut f32,
            bias: [V; N],
            src: *const f32,
            c: usize,
        ) {
            let mut u = [zero(); N];
            for i in 0..N {
                u[i] = load(src.add(c + i * LANES));
                if BIAS {
                    u[i] = add(u[i], bias[i]);
                }
            }
            let e = exp_clamped(u);
            let y = if GRAD {
                let s = sigmoid_of(u, e);
                each!(|i| mul(load(x.add(c + i * LANES)), s[i]))
            } else {
                softplus_of(u, e)
            };
            for i in 0..N {
                store(x.add(c + i * LANES), y[i]);
            }
        }

        /// A whole slice: four vectors at a time, then two, then one, then
        /// the scalar form for what is left.
        ///
        /// # Safety
        /// The CPU must have the features this module is compiled for.
        #[target_feature(enable = $feat)]
        pub(super) unsafe fn slice<const GRAD: bool>(x: &mut [f32], z: &[f32]) {
            assert!(!GRAD || z.len() == x.len(), "one pre-activation per adjoint");
            let (ptr, len) = (x.as_mut_ptr(), x.len());
            let src: *const f32 = if GRAD { z.as_ptr() } else { ptr };
            let mut c = 0;
            // SAFETY: every step is entered with `c + N * LANES <= len`, and
            // `z` is as long as `x` when it is read.
            while c + 4 * LANES <= len {
                step::<false, GRAD, 4>(ptr, [zero(); 4], src, c);
                c += 4 * LANES;
            }
            if c + 2 * LANES <= len {
                step::<false, GRAD, 2>(ptr, [zero(); 2], src, c);
                c += 2 * LANES;
            }
            if c + LANES <= len {
                step::<false, GRAD, 1>(ptr, [zero()], src, c);
                c += LANES;
            }
            softplus_tail::<false, GRAD>(&mut x[c..], 0.0, if GRAD { &z[c..] } else { z });
        }

        /// Feature rows of `m` floats (`m` a multiple of 8), row `j` plus its
        /// one bias `bias[j]`, read from `z` with `FROM` (else from `x`);
        /// with `GRAD`, the adjoints `x` scaled at the pre-activations `z`.
        /// The matrix is walked as one slice, four
        /// vectors at a time whatever `m` is — a one-query block has rows of
        /// 8, and a lone vector per row would run its Horner chains at FMA
        /// latency — each vector's bias splatted per 8-lane group, since a
        /// 16-lane vector may straddle two rows.
        ///
        /// # Safety
        /// The CPU must have the features this module is compiled for.
        #[target_feature(enable = $feat)]
        pub(super) unsafe fn features<const GRAD: bool, const FROM: bool>(
            x: &mut [f32],
            m: usize,
            bias: &[f32],
            z: &[f32],
        ) {
            assert!(m % 8 == 0 && x.len() == m * bias.len(), "rows of whole 8-lane groups");
            assert!(z.len() == if FROM { x.len() } else { 0 }, "one argument per output");
            assert!(FROM || !GRAD || x.is_empty(), "a gradient reads its pre-activations");
            // The 8-lane groups of `x` in order: (row, groups left in it).
            let mut at = (0, m / 8);
            let (ptr, len) = (x.as_mut_ptr(), x.len());
            let src: *const f32 = if FROM { z.as_ptr() } else { ptr };
            let mut c = 0;
            macro_rules! vectors {
                ($n:literal) => {{
                    let b = if at.1 >= $n * LANES / 8 {
                        // All inside one row (every step of a long row).
                        at.1 -= $n * LANES / 8;
                        [splat(bias[at.0]); $n]
                    } else {
                        let mut b = [zero(); $n];
                        for v in &mut b {
                            *v = splat_groups([(); LANES / 8].map(|_| group_bias(bias, m, &mut at)));
                        }
                        b
                    };
                    // SAFETY: entered with `c + $n * LANES <= len`; `src` is
                    // `x` or as long as it.
                    step::<true, GRAD, $n>(ptr, b, src, c);
                    c += $n * LANES;
                }};
            }
            while c + 4 * LANES <= len {
                vectors!(4)
            }
            if c + 2 * LANES <= len {
                vectors!(2)
            }
            if c + LANES <= len {
                vectors!(1)
            }
            // At most one group is left (16-lane vectors, an odd group count).
            if c < len {
                let b = group_bias(bias, m, &mut at);
                softplus_tail::<true, GRAD>(&mut x[c..], b, if FROM { &z[c..] } else { z });
            }
        }

        /// [`jet_chain`] (with `GRAD`, [`jet_chain_grad`]) of softplus on `N`
        /// vectors of each lane of one feature row, at point `r` of every
        /// lane block (`m` points apart): one exponential serves `σ` … `σ‴`,
        /// and the row's one bias and three seeds are splatted. The argument
        /// is read from `src` (`x` itself, or `z`). With `SEEDED`, lanes 1–5
        /// of the argument are `seeds` and zeros, `z` holds the value lane
        /// alone and, with `GRAD`, takes its adjoint ([`bias_jet_features`]).
        ///
        /// # Safety
        /// `x` and `src` must be valid for `N * LANES` floats from `l * m + r`
        /// for every lane `l` (`src` from `r` alone with `SEEDED`), and so
        /// must `z` where it is written (with `GRAD` and `SEEDED`); an unused
        /// pointer is never offset or read.
        #[inline]
        #[target_feature(enable = $feat)]
        unsafe fn jet_step<const GRAD: bool, const SEEDED: bool, const N: usize>(
            x: *mut f32,
            z: *mut f32,
            src: *const f32,
            m: usize,
            r: usize,
            bias: f32,
            seeds: [f32; 3],
        ) {
            let mut u = [[zero(); N]; JET_LANES];
            for (l, lane) in u.iter_mut().enumerate() {
                for i in 0..N {
                    lane[i] = match l {
                        _ if !SEEDED => load(src.add(l * m + r + i * LANES)),
                        0 => load(src.add(r + i * LANES)),
                        1..=3 => splat(seeds[l - 1]),
                        _ => zero(),
                    };
                }
            }
            u[0] = each!(|i| add(u[0][i], splat(bias)));
            let e = exp_clamped(u[0]);
            let d1 = sigmoid_of(u[0], e);
            let d2 = each!(|i| mul(d1[i], sub(splat(1.0), d1[i])));
            // σ″u′² + σ′u″ with the given second and first derivative of σ.
            let second = |d2: [V; N], d1: [V; N], k: usize, kk: usize| {
                each!(|i| fma(mul(d2[i], u[k][i]), u[k][i], mul(d1[i], u[kk][i])))
            };
            let y = if GRAD {
                let mut g = [[zero(); N]; JET_LANES];
                for (l, lane) in g.iter_mut().enumerate() {
                    for i in 0..N {
                        lane[i] = load(x.add(l * m + r + i * LANES));
                    }
                }
                let d3 = each!(|i| mul(d2[i], sub(splat(1.0), add(d1[i], d1[i]))));
                let first =
                    each!(|i| fma(g[1][i], u[1][i], fma(g[2][i], u[2][i], mul(g[3][i], u[3][i]))));
                let (q4, q5) = (second(d3, d2, 2, 4), second(d3, d2, 3, 5));
                let r0 = each!(|i| fma(g[0][i], d1[i], mul(d2[i], first[i])));
                let r0 = each!(|i| fma(g[4][i], q4[i], r0[i]));
                let partner = |k: usize, kk: usize| {
                    let w = each!(|i| mul(d2[i], u[k][i]));
                    each!(|i| fma(g[k][i], d1[i], mul(g[kk][i], add(w[i], w[i]))))
                };
                [
                    each!(|i| fma(g[5][i], q5[i], r0[i])),
                    each!(|i| mul(g[1][i], d1[i])),
                    partner(2, 4),
                    partner(3, 5),
                    each!(|i| mul(g[4][i], d1[i])),
                    each!(|i| mul(g[5][i], d1[i])),
                ]
            } else {
                [
                    softplus_of(u[0], e),
                    each!(|i| mul(d1[i], u[1][i])),
                    each!(|i| mul(d1[i], u[2][i])),
                    each!(|i| mul(d1[i], u[3][i])),
                    second(d2, d1, 2, 4),
                    second(d2, d1, 3, 5),
                ]
            };
            for (l, lane) in y.iter().enumerate() {
                let to = if GRAD && SEEDED && l == 0 { z.add(r) } else { x.add(l * m + r) };
                for i in 0..N {
                    store(to.add(i * LANES), lane[i]);
                }
            }
        }

        /// The feature rows of a six-lane matrix, `m` points per lane: two
        /// vectors of every lane at a time, then one, then the scalar form;
        /// lanes 1–5 of the argument from `seeds` with `SEEDED`.
        ///
        /// # Safety
        /// The CPU must have the features this module is compiled for.
        #[target_feature(enable = $feat)]
        pub(super) unsafe fn jet_features<const GRAD: bool, const SEEDED: bool>(
            x: &mut [f32],
            m: usize,
            bias: &[f32],
            z: &mut [f32],
            seeds: &[f32],
        ) {
            // Per row: the value lane under a seed, all six to differentiate
            // or to read the forward from.
            let zl = if SEEDED { m } else if GRAD || !z.is_empty() { JET_LANES * m } else { 0 };
            let n = bias.len();
            assert!(x.len() == JET_LANES * m * n && (zl == 0 || z.len() == zl * n));
            assert!(!SEEDED || seeds.len() == 3 * n, "three seeds a row");
            for (j, &b) in bias.iter().enumerate() {
                let (xr, zr) = (&mut x[j * JET_LANES * m..][..JET_LANES * m], &mut z[j * zl..][..zl]);
                let s = if SEEDED { [seeds[3 * j], seeds[3 * j + 1], seeds[3 * j + 2]] } else { [0.0; 3] };
                let (xp, zp) = (xr.as_mut_ptr(), zr.as_mut_ptr());
                let src: *const f32 = if zl > 0 { zp } else { xp };
                let mut r = 0;
                // SAFETY: every step is entered with `r + N * LANES <= m`, so
                // each lane's vectors end inside its block of the row, and
                // `zr` holds the lanes `z` carries for this row.
                while r + 2 * LANES <= m {
                    jet_step::<GRAD, SEEDED, 2>(xp, zp, src, m, r, b, s);
                    r += 2 * LANES;
                }
                if r + LANES <= m {
                    jet_step::<GRAD, SEEDED, 1>(xp, zp, src, m, r, b, s);
                    r += LANES;
                }
                jet_points::<GRAD>(xr, zr, b, SEEDED.then_some(s), r..m, &softplus_derivs);
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;
    use std::arch::x86_64::*;

    type V = __m256;
    type VI = __m256i;
    const LANES: usize = 8;

    vector_ops! { "avx2,fma";
        zero() -> V = _mm256_setzero_ps();
        splat(x: f32) -> V = _mm256_set1_ps(x);
        splat_groups(x: [f32; 1]) -> V = _mm256_set1_ps(x[0]);
        isplat(x: i32) -> VI = _mm256_set1_epi32(x);
        add(a: V, b: V) -> V = _mm256_add_ps(a, b);
        sub(a: V, b: V) -> V = _mm256_sub_ps(a, b);
        mul(a: V, b: V) -> V = _mm256_mul_ps(a, b);
        div(a: V, b: V) -> V = _mm256_div_ps(a, b);
        fma(a: V, b: V, c: V) -> V = _mm256_fmadd_ps(a, b, c);
        min(a: V, b: V) -> V = _mm256_min_ps(a, b);
        max(a: V, b: V) -> V = _mm256_max_ps(a, b);
        bits(a: V) -> VI = _mm256_castps_si256(a);
        from_bits(a: VI) -> V = _mm256_castsi256_ps(a);
        to_f32(a: VI) -> V = _mm256_cvtepi32_ps(a);
        iadd(a: VI, b: VI) -> VI = _mm256_add_epi32(a, b);
        isub(a: VI, b: VI) -> VI = _mm256_sub_epi32(a, b);
        iand(a: VI, b: VI) -> VI = _mm256_and_si256(a, b);
        ior(a: VI, b: VI) -> VI = _mm256_or_si256(a, b);
        shl23(a: VI) -> VI = _mm256_slli_epi32::<23>(a);
        sar23(a: VI) -> VI = _mm256_srai_epi32::<23>(a);
        one_where_lt(a: V, b: V) -> V = _mm256_and_ps(_mm256_cmp_ps::<_CMP_LT_OQ>(a, b), splat(1.0));
        select_lt(a: V, b: V, yes: V, no: V) -> V = _mm256_blendv_ps(no, yes, _mm256_cmp_ps::<_CMP_LT_OQ>(a, b));
        nan_or(a: V, no: V) -> V = _mm256_blendv_ps(no, a, _mm256_cmp_ps::<_CMP_UNORD_Q>(a, a));
    }

    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn load(p: *const f32) -> V {
        _mm256_loadu_ps(p)
    }

    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn store(p: *mut f32, v: V) {
        _mm256_storeu_ps(p, v)
    }

    gemm_kernel!("avx2,fma");
    thin_kernel!("avx2,fma");
    softplus_kernel!("avx2,fma");
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::*;
    use std::arch::x86_64::*;

    type V = __m512;
    type VI = __m512i;
    const LANES: usize = 16;

    vector_ops! { "avx512f";
        zero() -> V = _mm512_setzero_ps();
        splat(x: f32) -> V = _mm512_set1_ps(x);
        splat_groups(x: [f32; 2]) -> V = _mm512_mask_blend_ps(0xFF00, _mm512_set1_ps(x[0]), _mm512_set1_ps(x[1]));
        isplat(x: i32) -> VI = _mm512_set1_epi32(x);
        add(a: V, b: V) -> V = _mm512_add_ps(a, b);
        sub(a: V, b: V) -> V = _mm512_sub_ps(a, b);
        mul(a: V, b: V) -> V = _mm512_mul_ps(a, b);
        div(a: V, b: V) -> V = _mm512_div_ps(a, b);
        fma(a: V, b: V, c: V) -> V = _mm512_fmadd_ps(a, b, c);
        min(a: V, b: V) -> V = _mm512_min_ps(a, b);
        max(a: V, b: V) -> V = _mm512_max_ps(a, b);
        bits(a: V) -> VI = _mm512_castps_si512(a);
        from_bits(a: VI) -> V = _mm512_castsi512_ps(a);
        to_f32(a: VI) -> V = _mm512_cvtepi32_ps(a);
        iadd(a: VI, b: VI) -> VI = _mm512_add_epi32(a, b);
        isub(a: VI, b: VI) -> VI = _mm512_sub_epi32(a, b);
        iand(a: VI, b: VI) -> VI = _mm512_and_si512(a, b);
        ior(a: VI, b: VI) -> VI = _mm512_or_si512(a, b);
        shl23(a: VI) -> VI = _mm512_slli_epi32::<23>(a);
        sar23(a: VI) -> VI = _mm512_srai_epi32::<23>(a);
        one_where_lt(a: V, b: V) -> V = _mm512_maskz_mov_ps(_mm512_cmp_ps_mask::<_CMP_LT_OQ>(a, b), splat(1.0));
        select_lt(a: V, b: V, yes: V, no: V) -> V = _mm512_mask_blend_ps(_mm512_cmp_ps_mask::<_CMP_LT_OQ>(a, b), no, yes);
        nan_or(a: V, no: V) -> V = _mm512_mask_blend_ps(_mm512_cmp_ps_mask::<_CMP_UNORD_Q>(a, a), no, a);
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn load(p: *const f32) -> V {
        _mm512_loadu_ps(p)
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn store(p: *mut f32, v: V) {
        _mm512_storeu_ps(p, v)
    }

    gemm_kernel!("avx512f");
    thin_kernel!("avx512f");
    softplus_kernel!("avx512f");
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
        for k in TILES {
            assert!(k.mr <= MAX_MR && k.nr <= MAX_NR);
            assert_eq!(k.nr % 8, 0, "write-back assumes whole vectors");
        }
    }

    /// Every GEMM tile of every tier.
    const TILES: &[&Kernel] = &[
        &PORTABLE_KERNEL,
        #[cfg(target_arch = "x86_64")]
        &AVX2_KERNEL,
        #[cfg(target_arch = "x86_64")]
        &AVX512_KERNEL,
        #[cfg(target_arch = "x86_64")]
        &AVX512_KERNEL_12X32,
    ];

    /// Every tile of every tier this host can run.
    fn runnable_tiles() -> Vec<&'static Kernel> {
        let tiers = crate::gemm::tests::runnable_backends();
        TILES.iter().copied().filter(|k| tiers.contains(&k.backend)).collect()
    }

    /// The three tiers must agree bit-for-bit on the same panels — the
    /// dispatch seam is invisible in results. (Tiles differ in shape, so
    /// compare each against a scalar fma chain, elementwise.) Every tile runs
    /// on a packed B panel (`ldb = nr`) and on B rows read in place from a
    /// wider operand (`ldb > nr`), whose elements between the tile's columns
    /// are NaN: a tile reads its `nr` columns of each row and nothing else.
    /// In the signed-zero cases row 0 of A is `+0` and every B entry is
    /// negative, so every product in that row's chains is `−0`: a chain that
    /// starts from `+0` ends there, one that starts from `−0` does not.
    #[test]
    fn every_tier_matches_scalar_fma_chain_bitwise() {
        for (kernel, signed_zeros) in
            runnable_tiles().into_iter().flat_map(|k| [(k, false), (k, true)])
        {
            for (kb, gap) in [(1usize, 0usize), (2, 0), (7, 0), (64, 0), (1, 5), (7, 3), (64, 464)]
            {
                let ldb = kernel.nr + gap;
                let mut s = 0x9E3779B9u32;
                let mut next = move || {
                    s = s.wrapping_mul(1664525).wrapping_add(1013904223);
                    ((s >> 16) as i32 % 31 - 15) as f32 * 0.125
                };
                let negative = |x: f32| if signed_zeros { -0.125 - x.abs() } else { x };
                let a: Vec<f32> = (0..kernel.mr * kb)
                    .map(|i| if signed_zeros && i % kernel.mr == 0 { 0.0 } else { next() })
                    .collect();
                let b: Vec<f32> = (0..(kb - 1) * ldb + kernel.nr)
                    .map(|i| if i % ldb < kernel.nr { negative(next()) } else { f32::NAN })
                    .collect();
                let mut acc = vec![f32::NAN; kernel.mr * kernel.nr];
                (kernel.micro)(kb, &a, &b, ldb, &mut acc);
                for i in 0..kernel.mr {
                    for j in 0..kernel.nr {
                        let mut want = 0.0f32;
                        for p in 0..kb {
                            want = a[p * kernel.mr + i].mul_add(b[p * ldb + j], want);
                        }
                        assert_eq!(
                            acc[i * kernel.nr + j].to_bits(),
                            want.to_bits(),
                            "{} {}x{} tile ({i},{j}) kb={kb} ldb={ldb} signed zeros {signed_zeros}",
                            kernel.backend.name(),
                            kernel.mr,
                            kernel.nr
                        );
                    }
                }
            }
        }
    }

    /// A short A panel, a B panel one element short of its last row and a
    /// short tile are refused by every tile, not read or written past.
    #[test]
    fn short_panels_are_refused_by_every_tile() {
        for kernel in runnable_tiles() {
            let (mr, nr, kb) = (kernel.mr, kernel.nr, 3);
            let ldb = nr + 8;
            let (a, b) = (vec![0.0f32; mr * kb], vec![0.0f32; (kb - 1) * ldb + nr]);
            let tile = vec![0.0f32; mr * nr];
            for (what, a, b, mut acc) in [
                ("A panel", &a[1..], &b[..], tile.clone()),
                ("B panel", &a[..], &b[1..], tile.clone()),
                ("tile", &a[..], &b[..], tile[1..].to_vec()),
            ] {
                let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    (kernel.micro)(kb, a, b, ldb, &mut acc)
                }))
                .expect_err("a short operand is refused");
                let message = refused.downcast_ref::<String>().map_or("", |m| m.as_str());
                assert!(
                    message.starts_with(what),
                    "{} {mr}x{nr}: a short {what} gave {message:?}",
                    kernel.backend.name()
                );
            }
        }
    }

    /// Inputs around every regime cut and special value of the softplus.
    fn softplus_probes() -> Vec<f32> {
        let mut xs = vec![
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            1.0e-45,
            -1.0e-45,
            1.0e-40,
            -1.0e-40,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::MAX,
            f32::MIN,
        ];
        for cut in [SATURATE, -SATURATE, EXP_FLOOR, 88.0, -88.0, 0.5, -0.5] {
            xs.extend([cut.next_down().next_down(), cut.next_down(), cut, cut.next_up()]);
        }
        // A seeded sweep: most of it over the live range, the rest anywhere.
        let mut s = 0x2545_F491u32;
        for i in 0..1_000_000 {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            let unit = (s >> 8) as f32 / (1 << 24) as f32;
            xs.push(if i % 8 == 0 { f32::from_bits(s) } else { (unit - 0.5) * 60.0 });
        }
        xs
    }

    /// Every tier this process may execute (one under `MFN_PORTABLE_KERNELS=1`).
    fn runnable_tiers() -> Vec<(u8, &'static str)> {
        [(B_AVX512, "avx512"), (B_AVX2, "avx2+fma"), (B_PORTABLE, "portable")]
            .into_iter()
            .filter(|&(tier, _)| tier >= detect())
            .collect()
    }

    /// The transposing pack against its definition on every tier this host
    /// can run: widths around every block size up to a 48-wide panel, runs of
    /// every length to past two 16-blocks at scattered destination rows,
    /// unsorted and repeating source offsets. Whatever is outside the runs'
    /// rows and past the width keeps its bits.
    #[test]
    fn transpose_pack_matches_its_definition_on_every_tier() {
        let src: Vec<f32> =
            (0..4096u32).map(|i| f32::from_bits(0x3f80_0000 ^ (i * 7919))).collect();
        let rows: Vec<u32> = (0..48u32).map(|j| (j * 613 + (j % 5) * 1000) % 3900).collect();
        for (tier, name) in runnable_tiers() {
            for (w, ld) in [(1, 6), (3, 6), (4, 6), (6, 6), (8, 8), (11, 12), (12, 12), (16, 16)]
                .into_iter()
                .chain([(19, 32), (32, 32), (35, 48), (47, 48), (48, 48)])
            {
                for len in [1usize, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33] {
                    // Two runs with a gap between, the second from elsewhere.
                    let runs = [(1, 5, len), (len + 3, 111, len)];
                    let nrows = 2 * len + 4;
                    let mut dst = vec![f32::from_bits(0x7fc0_dead); nrows * ld];
                    // SAFETY: `runnable_tiers` lists only tiers at or below detection.
                    unsafe {
                        transpose_pack_on(tier, &mut dst, ld, &src, &rows[..w], runs.into_iter())
                    };
                    for (i, got) in dst.iter().enumerate() {
                        let (r, j) = (i / ld, i % ld);
                        let run = runs.iter().find(|&&(r0, _, n)| (r0..r0 + n).contains(&r));
                        let want = match run {
                            Some(&(r0, at, _)) if j < w => src[at + rows[j] as usize + r - r0],
                            _ => f32::from_bits(0x7fc0_dead),
                        };
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{name} w {w} ld {ld} run {len}: ({r}, {j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn softplus_slice_matches_scalar_bitwise_on_every_backend() {
        let xs = softplus_probes();
        let want: Vec<u32> = xs.iter().map(|&x| softplus_scalar(x).to_bits()).collect();
        for (tier, name) in runnable_tiers() {
            // SAFETY: `runnable_tiers` lists only tiers at or below detection.
            let run = |x: &mut [f32]| unsafe { slice_on::<false>(tier, x, &[]) };
            let mut got = xs.clone();
            run(&mut got);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.to_bits(), *w, "{name} at x = {:e} (#{i})", xs[i]);
            }
            // Every remainder-lane count, over the special values.
            for len in 0..=67 {
                for start in [0usize, 13, 41] {
                    let mut got = xs[start..start + len].to_vec();
                    run(&mut got);
                    let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got, want[start..start + len], "{name} len {len}");
                }
            }
        }
        // The public entry point is the same code on the detected tier.
        let mut got = xs[..200].to_vec();
        softplus_slice(&mut got);
        assert!(got.iter().zip(&want).all(|(g, w)| g.to_bits() == *w));
    }

    /// `(points, features)` of the feature-major softplus tests: rows of one
    /// query, three, a short last block, a full block, one past it — and 5,
    /// which is not whole groups (scalar form) — in feature counts that
    /// leave a 16-lane vector straddling two rows.
    fn feature_shapes() -> impl Iterator<Item = (usize, usize)> {
        [8, 24, 504, 512, 520, 5].into_iter().flat_map(|m| [1, 3, 4, 33].map(|n| (m, n)))
    }

    /// The in-place form against its definition, and the from-`pre` form
    /// (into a buffer of NaNs) against the in-place one, on every tier.
    #[test]
    fn bias_softplus_features_matches_add_then_scalar_bitwise() {
        let xs = softplus_probes();
        for (tier, name) in runnable_tiers() {
            for (m, n) in feature_shapes() {
                let bias: Vec<f32> = xs[40..40 + n].iter().map(|b| b.clamp(-30.0, 30.0)).collect();
                // From the front: the specials (NaN, ±inf, the regime cuts).
                let mut got = xs[..n * m].to_vec();
                let want: Vec<u32> = got
                    .iter()
                    .enumerate()
                    .map(|(i, &x)| softplus_scalar(x + bias[i / m]).to_bits())
                    .collect();
                let mut from = vec![f32::NAN; n * m];
                // SAFETY: `runnable_tiers` lists only tiers at or below detection.
                unsafe {
                    features_on::<false>(tier, &mut from, &bias, &got);
                    features_on::<false>(tier, &mut got, &bias, &[]);
                }
                let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "{name}: {n} feature rows of {m}");
                let from: Vec<u32> = from.iter().map(|v| v.to_bits()).collect();
                assert_eq!(from, want, "{name} from pre: {n} feature rows of {m}");
            }
        }
        let mut x = vec![0.25f32; 16];
        let mut y = vec![f32::NAN; 16];
        bias_softplus_features_from(&mut y, &x, &[1.0, -1.0]);
        bias_softplus_features(&mut x, &[1.0, -1.0]);
        assert_eq!(x[7].to_bits(), softplus_scalar(1.25).to_bits());
        assert_eq!(x[8].to_bits(), softplus_scalar(-0.75).to_bits());
        assert!(x.iter().zip(&y).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    /// The bits of adjoints `got` scaled by the derivative kernels, for
    /// comparison with those of [`scalar_grad`]. Where `g` and `σ(z)` are
    /// both NaN the product's payload is whichever operand the instruction
    /// selection put first, so that one case reads as "some NaN" (`u32::MAX`).
    fn grad_bits(got: &[f32], g: &[f32], z: &[f32]) -> Vec<u32> {
        got.iter()
            .zip(g.iter().zip(z))
            .map(|(y, (g, z))| if g.is_nan() && z.is_nan() { u32::MAX } else { y.to_bits() })
            .collect()
    }

    /// `g[i] * sigmoid_scalar(z[i])`: what the derivative kernels must
    /// reproduce.
    fn scalar_grad(g: &[f32], z: &[f32]) -> Vec<f32> {
        g.iter().zip(z).map(|(&g, &z)| g * sigmoid_scalar(z)).collect()
    }

    #[test]
    fn softplus_grad_slice_matches_scalar_bitwise_on_every_backend() {
        // Pre-activations: the softplus probes (specials, ±88, ±87, ±20 and
        // their ULP neighbours, the 1 M-point sweep). Adjoints: the same
        // values in another order, so every special meets every regime.
        let zs = softplus_probes();
        let gs: Vec<f32> = (0..zs.len()).map(|i| zs[(i * 7 + 3) % zs.len()]).collect();
        let want = grad_bits(&scalar_grad(&gs, &zs), &gs, &zs);
        for (tier, name) in runnable_tiers() {
            // SAFETY: `runnable_tiers` lists only tiers at or below detection.
            let run = |g: &mut [f32], z: &[f32]| unsafe { slice_on::<true>(tier, g, z) };
            let mut got = gs.clone();
            run(&mut got, &zs);
            for (i, (g, w)) in grad_bits(&got, &gs, &zs).iter().zip(&want).enumerate() {
                assert_eq!(g, w, "{name} at g = {:e}, z = {:e} (#{i})", gs[i], zs[i]);
            }
            // Every remainder-lane count, over the special values.
            for len in 0..=67 {
                for start in [0usize, 13, 41] {
                    let (g, z) = (&gs[start..start + len], &zs[start..start + len]);
                    let mut got = g.to_vec();
                    run(&mut got, z);
                    assert_eq!(grad_bits(&got, g, z), want[start..start + len], "{name} len {len}");
                }
            }
        }
        // The public entry point is the same code on the detected tier.
        let mut got = gs[..200].to_vec();
        softplus_grad_slice(&mut got, &zs[..200]);
        assert_eq!(grad_bits(&got, &gs[..200], &zs[..200]), want[..200]);
    }

    #[test]
    fn bias_softplus_grad_features_matches_add_then_scalar_bitwise() {
        let xs = softplus_probes();
        for (tier, name) in runnable_tiers() {
            for (m, n) in feature_shapes() {
                let bias: Vec<f32> = xs[40..40 + n].iter().map(|b| b.clamp(-30.0, 30.0)).collect();
                let z = &xs[..n * m];
                let g = &xs[700..700 + n * m];
                let pre: Vec<f32> = z.iter().enumerate().map(|(i, &z)| z + bias[i / m]).collect();
                let want = grad_bits(&scalar_grad(g, &pre), g, &pre);
                let mut got = g.to_vec();
                // SAFETY: `runnable_tiers` lists only tiers at or below detection.
                unsafe { features_on::<true>(tier, &mut got, &bias, z) };
                assert_eq!(grad_bits(&got, g, &pre), want, "{name}: {n} feature rows of {m}");
            }
        }
        let mut g = vec![2.0f32; 6];
        bias_softplus_grad_features(&mut g, &[0.25; 6], &[1.0, -1.0, 0.5]);
        assert_eq!(g[4].to_bits(), (2.0 * sigmoid_scalar(0.75)).to_bits());
    }

    /// `len` values in `[-amp/2, amp/2)` from a seeded LCG.
    fn lcg_probes(len: usize, seed: u32, amp: f32) -> Vec<f32> {
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s.wrapping_mul(1664525).wrapping_add(1013904223);
                ((s >> 8) as f32 / (1 << 24) as f32 - 0.5) * amp
            })
            .collect()
    }

    /// `n` feature rows of six lanes of `m` finite probes: the value lane
    /// over the live range of the softplus, the derivative lanes a few units
    /// wide.
    fn jet_probes(n: usize, m: usize, seed: u32) -> Vec<f32> {
        let (value, rest) = (lcg_probes(n * m, seed, 60.0), lcg_probes(n * 5 * m, seed ^ 1, 8.0));
        value
            .chunks_exact(m)
            .zip(rest.chunks_exact(5 * m))
            .flat_map(|(v, r)| [v, r].concat())
            .collect()
    }

    #[test]
    fn softplus_jet_features_match_the_scalar_chain_bitwise_on_every_backend() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (tier, name) in runnable_tiers() {
            for (n, m) in [1usize, 3, 5]
                .into_iter()
                .flat_map(|n| (1..=35).chain([64, 67, 128]).map(move |m| (n, m)))
            {
                let label = format!("{name}: {n} feature rows of {m} points a lane");
                // Lane 0 of each row, and lanes 1-5.
                let value = |v: &[f32]| -> Vec<f32> {
                    v.chunks_exact(JET_LANES * m).flat_map(|row| row[..m].to_vec()).collect()
                };
                let rest = |v: &[f32]| -> Vec<f32> {
                    v.chunks_exact(JET_LANES * m).flat_map(|row| row[m..].to_vec()).collect()
                };
                let bias = lcg_probes(n, 7 + m as u32, 6.0);
                let z = jet_probes(n, m, 11 + m as u32);
                let g = jet_probes(n, m, 97 + m as u32);

                let mut want = z.clone();
                bias_jet_features::<false>(&mut want, &mut [], &bias, &[], softplus_derivs);
                let mut got = z.clone();
                // SAFETY: `runnable_tiers` lists only tiers at or below detection.
                unsafe { jet_features_on::<false>(tier, &mut got, m, &bias, &mut [], &[]) };
                assert_eq!(bits(&got), bits(&want), "{label}: forward");
                // Read from `z` into a stale `x`: the in-place bits, on the
                // vector tier and the scalar form alike.
                let mut from = vec![f32::NAN; z.len()];
                // SAFETY: as above.
                unsafe { jet_features_on::<false>(tier, &mut from, m, &bias, &mut z.clone(), &[]) };
                assert_eq!(bits(&from), bits(&want), "{label}: forward from z");
                let mut from = vec![f32::NAN; z.len()];
                bias_jet_features::<false>(&mut from, &mut z.clone(), &bias, &[], softplus_derivs);
                assert_eq!(bits(&from), bits(&want), "{label}: scalar forward from z");
                // The value lane is the one-lane kernel's output.
                let mut one_lane = value(&z);
                bias_softplus_features(&mut one_lane, &bias);
                assert_eq!(bits(&value(&got)), bits(&one_lane), "{label}: value lane");

                let mut want = g.clone();
                bias_jet_features::<true>(&mut want, &mut z.clone(), &bias, &[], softplus_derivs);
                let mut got = g.clone();
                // SAFETY: as above.
                unsafe { jet_features_on::<true>(tier, &mut got, m, &bias, &mut z.clone(), &[]) };
                assert_eq!(bits(&got), bits(&want), "{label}: backward");

                // Seeded: lanes 1-5 of the argument from three seeds a row
                // and zeros are those lanes written out along every row.
                let seeds = lcg_probes(3 * n, 5 + m as u32, 8.0);
                let mut stacked = z.clone();
                for (row, s) in stacked.chunks_exact_mut(JET_LANES * m).zip(seeds.chunks_exact(3)) {
                    for (l, lane) in row.chunks_exact_mut(m).enumerate().skip(1) {
                        lane.fill(s.get(l - 1).copied().unwrap_or(0.0));
                    }
                }
                let mut want = stacked.clone();
                bias_jet_features::<false>(&mut want, &mut [], &bias, &[], softplus_derivs);
                let mut got = vec![f32::NAN; z.len()];
                // SAFETY: as above.
                unsafe {
                    jet_features_on::<false>(tier, &mut got, m, &bias, &mut value(&z), &seeds)
                };
                assert_eq!(bits(&got), bits(&want), "{label}: seeded forward");
                // Backward: the value lane's adjoint over `z`, the rest in place.
                let mut want = g.clone();
                bias_jet_features::<true>(&mut want, &mut stacked, &bias, &[], softplus_derivs);
                let (mut got, mut pre) = (g.clone(), value(&z));
                // SAFETY: as above.
                unsafe { jet_features_on::<true>(tier, &mut got, m, &bias, &mut pre, &seeds) };
                assert_eq!(bits(&pre), bits(&value(&want)), "{label}: seeded backward value lane");
                assert_eq!(bits(&rest(&got)), bits(&rest(&want)), "{label}: seeded backward");
            }
        }
    }

    #[test]
    fn jet_chain_grad_is_the_transpose_of_the_jet_chain_jacobian() {
        // d/dε of Σ g·jet_chain(u + ε·e_l) against jet_chain_grad, in f64-ish
        // central differences on softplus at a curved point.
        let u = [0.3f32, 0.7, -0.4, 0.9, 0.2, -0.6];
        let g = [0.5f32, -1.0, 0.25, 2.0, -0.75, 1.5];
        let f = |u: [f32; JET_LANES]| -> f64 {
            let [v, d1, d2, _] = softplus_derivs(u[0]);
            jet_chain(v, d1, d2, u).iter().zip(&g).map(|(y, g)| f64::from(y * g)).sum()
        };
        let [_, d1, d2, d3] = softplus_derivs(u[0]);
        let analytic = jet_chain_grad([d1, d2, d3], g, u);
        for l in 0..JET_LANES {
            let h = 1e-2f32;
            let (mut up, mut um) = (u, u);
            up[l] += h;
            um[l] -= h;
            let fd = (f(up) - f(um)) / f64::from(2.0 * h);
            assert!(
                (f64::from(analytic[l]) - fd).abs() < 2e-3,
                "lane {l}: {} vs {fd}",
                analytic[l]
            );
        }
    }

    #[test]
    fn sigmoid_regimes_and_special_values() {
        assert_eq!(sigmoid_scalar(f32::INFINITY), 1.0);
        assert_eq!(sigmoid_scalar(25.0), 1.0);
        assert_eq!(sigmoid_scalar(0.0), 0.5);
        assert_eq!(sigmoid_scalar(-0.0), 0.5);
        assert!(sigmoid_scalar(f32::NAN).is_nan());
        let floor = sigmoid_scalar(f32::NEG_INFINITY);
        assert!(floor > 0.0 && floor < 2.0e-38, "clamped at e^-87, got {floor:e}");
        // Within a few ULP of the f64 value across the live range.
        for i in -3000..=3000 {
            let x = i as f32 * 0.01;
            let want = (1.0 / (1.0 + (-f64::from(x)).exp())) as f32;
            let ulps = (sigmoid_scalar(x).to_bits() as i64 - want.to_bits() as i64).abs();
            assert!(ulps <= 3, "sigmoid({x}) is {ulps} ULP off");
        }
    }

    #[test]
    fn softplus_regimes_and_special_values() {
        assert_eq!(softplus_scalar(f32::INFINITY), f32::INFINITY);
        assert_eq!(softplus_scalar(f32::NEG_INFINITY), (-87.0f32).exp());
        assert!(softplus_scalar(f32::NAN).is_nan());
        assert_eq!(softplus_scalar(25.0), 25.0);
        assert!((softplus_scalar(0.0) - std::f32::consts::LN_2).abs() < 1e-6);
        assert!((softplus_scalar(-30.0) - (-30.0f32).exp()).abs() < 1e-18);
    }
}
