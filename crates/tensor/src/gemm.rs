//! Cache-blocked, register-tiled GEMM driver.
//!
//! The workspace has one matrix-multiply loop nest,
//! [`crate::PackedConv3d::forward_slices`]: the implicit-GEMM conv driver,
//! whose 1×1×1 case is a `Linear` layer over feature-major activations. It is
//! built from the blocking constants, `pack_a` and `macro_block` here. The
//! row-major [`gemm`] entry is a front end on that driver which no layer
//! calls (the end-to-end benchmark replays it). The nest is the classic
//! BLIS/GotoBLAS one, its A side packed once per weight:
//!
//! ```text
//! pack_a (cout × ksize: per KC-deep slab, mr-row panels, zero-padded edges)
//! for jc in 0..vol step NC          // L3: column slab of B/C
//!   for pc in 0..ksize step KC      // L2: the slab's KC-deep B panels
//!     pack the B panels (or read full ones in place)
//!     for ir in 0..cout step mr     // micro-tiles (macro_block)
//!       for jr in 0..NC step nr
//!         micro-kernel: acc[mr×nr] += a_panel ⊗ b_panel   (registers)
//! ```
//!
//! The micro-kernel itself — tile shape `(mr, nr)` and the code that holds
//! the accumulator tile in vector registers — lives in [`crate::simd`] and
//! is selected at runtime (`AVX-512 8×48` or `12×32` → `AVX2+FMA 6×16` →
//! portable `6×16`). The driver is tile-shape agnostic: packing, edge masking
//! and write-back are all phrased in the active kernel's `mr`/`nr`.
//!
//! The micro-kernel reads an `mr`-row A panel column-major (`a_pack[p*mr +
//! i]`) and an `nr`-column B panel row-major with its rows `ldb` apart
//! (`b[p*ldb + j]`). `pack_a` transposes a row-major operand's `KC`-deep
//! block into that form, and the B packers copy a `KC`-deep panel
//! contiguous (`ldb = nr`), so the micro-kernel never sees a stride. A B
//! operand that is already row-major needs no copy for its full panels: the
//! conv driver's 1×1×1 case whose whole operand fits one `NC` slab hands the
//! kernel `nr` columns of the operand where they lie (`ldb` its row length)
//! and packs only a short last panel. Edge panels are zero-padded: the
//! micro-kernel always computes a full mr×nr tile (branch-free inner loop —
//! no zero-skip shortcuts, so `0·∞ = NaN` propagates correctly) and the
//! write-back masks the padding. Packing buffers come from the
//! [`crate::workspace`] pool, cache-line aligned, so steady-state calls do
//! not allocate.
//!
//! `C` is *overwritten* on the first `pc` iteration and accumulated into on
//! subsequent ones, so callers never need to pre-zero the output. The `KC`
//! depth split is part of the numerical contract: every backend shares it,
//! which (together with every tier being a pure FMA chain in `k` order) is
//! why switching backends or tile shapes never changes a single output bit.

use crate::simd::{self, transpose_pack, Kernel};
use crate::workspace;
use crate::PackedConv3d;

pub use crate::simd::{kernel_backend, set_backend_override, KernelBackend};

/// Depth-block size: a KC-deep B panel should stream from L1/L2
/// (KC·nr·4 B = 16 KiB at nr=16, 48 KiB at nr=48). Shared by every backend:
/// it fixes where accumulator chains are split, i.e. the rounding.
pub const KC: usize = 256;
/// Column-slab size: a KC×NC packed B slab should sit in L2/L3.
pub const NC: usize = 512;

/// The B operand of one `kb`-deep slab as the micro-kernel reads it, panel
/// by panel: the first `count` panels lie in `body`, panel `pj` from
/// `pj·step` with its rows `ld` apart — packed (`step = nr·kb`, `ld = nr`) or
/// `nr` full columns of a row-major operand read where they lie (`step =
/// nr`, `ld` its row length) — and `edge`, when there is one, is one more
/// packed panel after them (an in-place operand's short last panel).
#[derive(Clone, Copy)]
pub(crate) struct BSlab<'a> {
    body: &'a [f32],
    count: usize,
    step: usize,
    ld: usize,
    edge: Option<&'a [f32]>,
}

impl<'a> BSlab<'a> {
    /// `nr·kb`-element panels packed back to back.
    pub(crate) fn packed(b_pack: &'a [f32], nr: usize, kb: usize) -> Self {
        let count = b_pack.len() / (nr * kb);
        BSlab { body: b_pack, count, step: nr * kb, ld: nr, edge: None }
    }

    /// `count` panels of `nr` columns each read in place from rows `ld`
    /// apart that start at `b[0]`, then the packed `edge`, if any.
    pub(crate) fn in_place(
        b: &'a [f32],
        count: usize,
        nr: usize,
        ld: usize,
        edge: Option<&'a [f32]>,
    ) -> Self {
        BSlab { body: b, count, step: nr, ld, edge }
    }

    fn panels(&self) -> usize {
        self.count + usize::from(self.edge.is_some())
    }

    /// Panel `pj` and its row stride.
    fn panel(&self, pj: usize, nr: usize) -> (&'a [f32], usize) {
        match self.edge {
            Some(edge) if pj == self.count => (edge, nr),
            _ => (&self.body[pj * self.step..], self.ld),
        }
    }
}

/// Storage layout of a [`gemm`] operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatLayout {
    /// Operand is stored exactly as the operation reads it.
    Normal,
    /// Operand is stored transposed; [`gemm`] copies it row-major first.
    Transposed,
}

/// `C = op(A) · op(B)` with `op(A): [m, k]`, `op(B): [k, n]`, `C: [m, n]`
/// row-major. `C` is fully overwritten (no pre-zeroing needed).
///
/// `a_layout == Transposed` means `A` is stored `[k, m]` (so `op(A)[i][p] =
/// a[p*m + i]`); `b_layout == Transposed` means `B` is stored `[n, k]`.
///
/// A front end on the conv driver: a transposed operand is copied
/// row-major, then `op(A)` is packed as a `Linear` weight and run over the
/// `n` columns of `op(B)`, the bits any layer of that shape gets.
///
/// # Panics
/// Panics if any slice length disagrees with the given dimensions.
#[allow(clippy::too_many_arguments)] // the canonical GEMM signature
pub fn gemm(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    a_layout: MatLayout,
    b: &[f32],
    b_layout: MatLayout,
    c: &mut [f32],
) {
    assert_eq!(a.len(), m * k, "gemm lhs length mismatch");
    assert_eq!(b.len(), k * n, "gemm rhs length mismatch");
    assert_eq!(c.len(), m * n, "gemm output length mismatch");
    if m == 0 || n == 0 {
        return;
    }
    let a_copy = (a_layout == MatLayout::Transposed).then(|| row_major(a, m, k));
    let b_copy = (b_layout == MatLayout::Transposed).then(|| row_major(b, k, n));
    let (a, b) = (a_copy.as_deref().unwrap_or(a), b_copy.as_deref().unwrap_or(b));
    PackedConv3d::pack_linear(a, m, k).forward_slices(b, [1, 1, n], c, None);
}

/// The row-major `[rows, cols]` copy of `t`, which is stored `[cols, rows]`.
fn row_major(t: &[f32], rows: usize, cols: usize) -> workspace::WorkspaceGuard {
    let mut out = workspace::take_scratch(t.len());
    for r in 0..rows {
        for c in 0..cols {
            out[r * cols + c] = t[c * rows + r];
        }
    }
    out
}

/// Packs the first `mb` rows of the row-major `src` (rows `rs` apart),
/// depth `p0..p0 + kb`, into mr-row panels stored column-major within the
/// panel: panel `pi` holds rows `pi*mr ..` at `dst[pi*mr*kb + p*mr + i]`.
/// Rows past `mb` are zero.
pub(crate) fn pack_a(
    mr: usize,
    dst: &mut [f32],
    src: &[f32],
    rs: usize,
    mb: usize,
    p0: usize,
    kb: usize,
) {
    for (pi, panel) in dst.chunks_exact_mut(mr * kb).enumerate() {
        let i = pi * mr;
        let rows = mr.min(mb - i);
        if rows < mr {
            panel.fill(0.0);
        }
        let run = std::iter::once((0, i * rs + p0, kb));
        transpose_pack(panel, mr, src, &strided_rows(rows, rs)[..rows], run);
    }
}

/// The offsets `0, stride, 2·stride, …` of `count <= MAX_NR` source rows,
/// for [`transpose_pack`] (on the stack: a pack must not allocate).
pub(crate) fn strided_rows(count: usize, stride: usize) -> [u32; simd::MAX_NR] {
    assert!(count <= simd::MAX_NR, "a panel is at most MAX_NR wide");
    let far = count.saturating_sub(1) * stride;
    assert!(u32::try_from(far).is_ok(), "a panel's rows span more than u32 offsets");
    std::array::from_fn(|r| if r < count { (r * stride) as u32 } else { 0 })
}

/// Where the write-back stores a GEMM's output: `row(r)` is output row `r`
/// from the first column the call writes on — rows of one row-major slice,
/// or a slab of columns of a matrix whose other slabs other threads may be
/// writing ([`crate::ColumnSlab`]).
pub trait OutputRows {
    /// Output row `r`, from the call's first column on.
    fn row(&mut self, r: usize) -> &mut [f32];
}

/// Output rows `ld` apart in one slice, the first column at `rows[0]`.
pub(crate) struct RowMajor<'a> {
    pub(crate) rows: &'a mut [f32],
    pub(crate) ld: usize,
}

impl OutputRows for RowMajor<'_> {
    fn row(&mut self, r: usize) -> &mut [f32] {
        &mut self.rows[r * self.ld..]
    }
}

/// Runs every micro-tile of one packed `mb × kb` A block against the
/// `kb × nb` B slab, writing the `mb × nb` result into `out`'s rows from
/// column `at` on.
#[allow(clippy::too_many_arguments)]
pub(crate) fn macro_block(
    kernel: &Kernel,
    a_pack: &[f32],
    b: BSlab<'_>,
    out: &mut impl OutputRows,
    mb: usize,
    kb: usize,
    nb: usize,
    at: usize,
    first: bool,
) {
    let (mr, nr) = (kernel.mr, kernel.nr);
    // Cache-line aligned accumulator tile so the micro-kernel's stores never
    // straddle lines.
    #[repr(align(64))]
    struct AccTile([f32; simd::MAX_MR * simd::MAX_NR]);
    let mut acc = AccTile([0.0; simd::MAX_MR * simd::MAX_NR]);
    let acc = &mut acc.0[..mr * nr];
    // a-panel outer: one mr-row A panel (at most 12 KiB at KC=256) stays in
    // L1 while the slab's B panels stream past it from L2, and the
    // write-back fills mr output rows across the whole slab before moving
    // on — long runs per row where C's rows are far apart (a feature-major
    // output's rows are a volume long) and the depth is too shallow to
    // hide the stores.
    for (pi, a_panel) in a_pack.chunks_exact(mr * kb).enumerate() {
        let i = pi * mr;
        let rows = mr.min(mb - i);
        for pj in 0..b.panels() {
            let j = pj * nr;
            let cols = nr.min(nb - j);
            let (b_panel, ldb) = b.panel(pj, nr);
            (kernel.micro)(kb, a_panel, b_panel, ldb, acc);
            // Write-back masks the zero-padded lanes of edge tiles.
            for ii in 0..rows {
                let row = &acc[ii * nr..][..cols];
                let dst = &mut out.row(i + ii)[at + j..][..cols];
                if first {
                    dst.copy_from_slice(row);
                } else {
                    for (d, &v) in dst.iter_mut().zip(row) {
                        *d += v;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Reference triple loop, deliberately free of shortcuts.
    fn reference(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a[i * k + p] * b[p * n + j];
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    fn fill(len: usize, seed: u32) -> Vec<f32> {
        // Small LCG: enough variety to catch indexing bugs, exactly
        // representable so comparisons stay tight.
        let mut s = seed.wrapping_mul(2654435761).wrapping_add(12345);
        (0..len)
            .map(|_| {
                s = s.wrapping_mul(1664525).wrapping_add(1013904223);
                ((s >> 16) as i32 % 17 - 8) as f32 * 0.25
            })
            .collect()
    }

    fn transpose(src: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; src.len()];
        for r in 0..rows {
            for c in 0..cols {
                out[c * rows + r] = src[r * cols + c];
            }
        }
        out
    }

    #[test]
    fn all_layouts_match_reference_on_awkward_shapes() {
        // Shapes straddle every mr/nr/KC edge case of every backend
        // (6/8-row panels, 16/48-column panels).
        for &(m, k, n) in &[
            (1, 1, 1),
            (7, 3, 5),
            (8, 16, 16),
            (9, 17, 33),
            (9, 70, 49),
            (65, 70, 13),
            (70, 257, 70),
        ] {
            let a = fill(m * k, (m * 31 + k) as u32);
            let b = fill(k * n, (k * 57 + n) as u32);
            let want = reference(m, k, n, &a, &b);
            let mut c = vec![f32::NAN; m * n];
            gemm(m, k, n, &a, MatLayout::Normal, &b, MatLayout::Normal, &mut c);
            assert_eq!(c, want, "NN {m}x{k}x{n}");
            let at = transpose(&a, m, k);
            gemm(m, k, n, &at, MatLayout::Transposed, &b, MatLayout::Normal, &mut c);
            assert_eq!(c, want, "TN {m}x{k}x{n}");
            let bt = transpose(&b, k, n);
            gemm(m, k, n, &a, MatLayout::Normal, &bt, MatLayout::Transposed, &mut c);
            assert_eq!(c, want, "NT {m}x{k}x{n}");
        }
    }

    #[test]
    fn nan_and_inf_propagate() {
        // 0 · ∞ = NaN must reach the output — the old kernel's zero-skip
        // branch silently dropped it.
        let a = vec![0.0f32, 1.0];
        let b = vec![f32::INFINITY, 2.0];
        let mut c = vec![0.0f32; 1];
        gemm(1, 2, 1, &a, MatLayout::Normal, &b, MatLayout::Normal, &mut c);
        assert!(c[0].is_nan(), "0*inf + 1*2 must be NaN, got {}", c[0]);

        let a = vec![f32::NAN; 4];
        let b = vec![0.0f32; 4];
        let mut c = vec![0.0f32; 4];
        gemm(2, 2, 2, &a, MatLayout::Normal, &b, MatLayout::Normal, &mut c);
        assert!(c.iter().all(|v| v.is_nan()), "NaN row must poison the output");
    }

    #[test]
    fn k_zero_zeroes_output() {
        let layouts = [MatLayout::Normal, MatLayout::Transposed];
        for (a_layout, b_layout) in layouts.into_iter().flat_map(|a| layouts.map(|b| (a, b))) {
            let mut c = vec![f32::NAN; 6];
            gemm(2, 0, 3, &[], a_layout, &[], b_layout, &mut c);
            assert!(c.iter().all(|&v| v == 0.0), "{a_layout:?}/{b_layout:?}: {c:?}");
            // No rows or no columns: an empty output, whatever the depth.
            for (m, n) in [(0, 3), (2, 0)] {
                let mut c = vec![f32::NAN; m * n];
                gemm(m, 4, n, &fill(m * 4, 1), a_layout, &fill(4 * n, 2), b_layout, &mut c);
                assert!(c.is_empty());
            }
        }
    }

    /// Adversarial-ish fill for the dispatch-seam bit-identity tests:
    /// subnormals, signed zeros, huge/tiny magnitudes and near-cancelling
    /// neighbors — but no NaN/inf, whose *payload* propagation through a
    /// libm `fma` on generic codegen is not bit-pinned (the reftest oracle
    /// covers NaN/inf with payload-insensitive comparison).
    pub(crate) fn adversarial_finite(len: usize, seed: u32) -> Vec<f32> {
        let mut s = seed.wrapping_mul(747796405).wrapping_add(1);
        let mut out: Vec<f32> = Vec::with_capacity(len);
        for _ in 0..len {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            let roll = s >> 28;
            let x = match roll {
                0 => 0.0,
                1 => -0.0,
                2 => f32::from_bits(1 + (s >> 8) % 100), // subnormal
                3 => 1.0e30 * (((s >> 8) % 7) as f32 - 3.0),
                4 => 1.0e-30 * (((s >> 8) % 7) as f32 - 3.0),
                5 => match out.last() {
                    Some(&p) if p.is_finite() && p != 0.0 => {
                        -f32::from_bits(p.to_bits().wrapping_add(s >> 30))
                    }
                    _ => -1.0,
                },
                _ => {
                    let e = ((s >> 8) % 41) as i32 - 20;
                    let m = ((s >> 13) as i32 % 255 - 127) as f32 / 64.0;
                    m * (2.0f32).powi(e)
                }
            };
            out.push(x);
        }
        out
    }

    /// Every tier this host can execute, most capable first.
    pub(crate) fn runnable_backends() -> Vec<KernelBackend> {
        set_backend_override(None);
        let detected = kernel_backend();
        [KernelBackend::Avx512, KernelBackend::Avx2Fma, KernelBackend::Portable]
            .into_iter()
            .filter(|&tier| tier >= detected)
            .collect()
    }

    /// Perf probe (not a correctness test): times each available backend at
    /// 256³ and the raw micro-kernel in isolation. Run with
    /// `cargo test -p mfn-tensor --release -- --ignored perf --nocapture`.
    #[test]
    #[ignore]
    fn perf_probe_backends() {
        use std::time::Instant;
        let detected = {
            set_backend_override(None);
            kernel_backend()
        };
        let (m, k, n) = (256, 256, 256);
        let a = fill(m * k, 1);
        let b = fill(k * n, 2);
        let mut c = vec![0.0f32; m * n];
        for tier in [KernelBackend::Portable, KernelBackend::Avx2Fma, KernelBackend::Avx512] {
            if tier < detected {
                continue;
            }
            set_backend_override(Some(tier));
            let kern = crate::simd::active_kernel();
            // raw micro-kernel: one panel pair resident in cache, panels
            // cache-line aligned exactly as the gemm driver guarantees
            let kb = KC;
            let aligned = |len, seed| crate::workspace::WorkspaceGuard::from(fill(len, seed));
            let (ap, bp) = (aligned(kern.mr * kb, 3), aligned(kern.nr * kb, 4));
            let mut acc = vec![0.0f32; kern.mr * kern.nr];
            let reps = 40_000;
            let mut best = f64::MAX;
            for _ in 0..3 {
                let t = Instant::now();
                for _ in 0..reps {
                    (kern.micro)(kb, &ap, &bp, kern.nr, &mut acc);
                }
                best = best.min(t.elapsed().as_secs_f64());
            }
            let micro_gflops = (2 * kern.mr * kern.nr * kb * reps) as f64 / best / 1e9;
            // full 256^3 gemm
            let mut best = f64::MAX;
            for _ in 0..5 {
                let t = Instant::now();
                gemm(m, k, n, &a, MatLayout::Normal, &b, MatLayout::Normal, &mut c);
                best = best.min(t.elapsed().as_secs_f64());
            }
            let gemm_gflops = (2 * m * k * n) as f64 / best / 1e9;
            println!(
                "{:<9} micro {micro_gflops:7.1} GFLOP/s   gemm256 {gemm_gflops:7.1} GFLOP/s",
                tier.name()
            );
        }
        set_backend_override(None);
    }

    /// The dispatch seam is invisible: the intrinsics backends and the
    /// portable kernel produce bit-identical C on tile-unaligned shapes
    /// with adversarial inputs, across every layout.
    #[test]
    fn backends_are_bit_identical_on_unaligned_shapes() {
        let detected = {
            set_backend_override(None);
            kernel_backend()
        };
        // Shapes chosen to straddle both tile geometries (6/16 and 8/48)
        // plus the KC=256 depth split.
        let shapes = [(1, 1, 1), (5, 3, 17), (6, 16, 16), (8, 48, 48), (9, 300, 49), (61, 70, 95)];
        for (si, &(m, k, n)) in shapes.iter().enumerate() {
            let a = adversarial_finite(m * k, 11 + si as u32);
            let b = adversarial_finite(k * n, 91 + si as u32);
            for (a_layout, b_layout) in [
                (MatLayout::Normal, MatLayout::Normal),
                (MatLayout::Transposed, MatLayout::Normal),
                (MatLayout::Normal, MatLayout::Transposed),
            ] {
                let run = |backend: Option<KernelBackend>| {
                    set_backend_override(backend);
                    let mut c = vec![f32::NAN; m * n];
                    gemm(m, k, n, &a, a_layout, &b, b_layout, &mut c);
                    set_backend_override(None);
                    c
                };
                let portable = run(Some(KernelBackend::Portable));
                for tier in [KernelBackend::Avx2Fma, KernelBackend::Avx512] {
                    if tier < detected {
                        continue; // host can't execute this tier
                    }
                    let fast = run(Some(tier));
                    for (i, (&got, &want)) in fast.iter().zip(&portable).enumerate() {
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{} vs portable diverged: {m}x{k}x{n} {a_layout:?}/{b_layout:?} \
                             elem {i}: {got:e} vs {want:e}",
                            tier.name()
                        );
                    }
                }
            }
        }
    }
}
