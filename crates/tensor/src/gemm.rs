//! Cache-blocked, register-tiled GEMM driver.
//!
//! Every layer of the network multiplies on [`crate::PackedConv3d`]'s
//! driver, which is built from the blocking constants, `pack_a` and
//! `macro_block` here. The row-major [`gemm`] entry (three operand
//! layouts, `NN`, `TN`, `NT`) has no caller in the network: it stays as the
//! kernel the end-to-end benchmark replays, and as the plainest statement
//! of the classic BLIS/GotoBLAS loop nest both drivers share:
//!
//! ```text
//! for jc in 0..n step NC            // L3: column slab of B/C
//!   for pc in 0..k step KC          // L2: pack B[pc..,jc..] into b_pack
//!     pack_b  (KC × NC, nr-panel major, zero-padded edges)
//!     for ic in 0..m step MC        // C row blocks
//!       pack_a (MC × KC, mr-panel major, zero-padded edges)
//!       for ir in 0..MC step mr     // micro-tiles
//!         for jr in 0..NC step nr
//!           micro-kernel: acc[mr×nr] += a_panel ⊗ b_panel   (registers)
//! ```
//!
//! The micro-kernel itself — tile shape `(mr, nr)` and the code that holds
//! the accumulator tile in vector registers — lives in [`crate::simd`] and
//! is selected at runtime (`AVX-512 8×48` → `AVX2+FMA 6×16` → portable
//! `6×16`). This driver is tile-shape agnostic: packing, edge masking and
//! write-back are all phrased in the active kernel's `mr`/`nr`.
//!
//! Packing copies each `KC`-deep panel into contiguous storage so the
//! micro-kernel's inner loop reads both operands sequentially: `a_pack`
//! stores mr-row panels column-major (`a_pack[p*mr + i]`), `b_pack` stores
//! nr-column panels row-major (`b_pack[p*nr + j]`). Transposition is folded
//! into the packing strides, so the micro-kernel never sees it. Edge panels
//! are zero-padded: the micro-kernel always computes a full mr×nr tile
//! (branch-free inner loop — no zero-skip shortcuts, so `0·∞ = NaN`
//! propagates correctly) and the write-back masks the padding. Packing
//! buffers come from the [`crate::workspace`] pool, so steady-state GEMM
//! calls do not allocate. A *weight* that is multiplied against many times
//! unchanged sits on the A side and is packed once instead
//! ([`crate::PackedConv3d`]: a conv weight, or a `Linear` weight over
//! feature-major activations): this loop nest minus `pack_a`.
//!
//! `C` is *overwritten* on the first `pc` iteration and accumulated into on
//! subsequent ones, so callers never need to pre-zero the output. The `KC`
//! depth split is part of the numerical contract: every backend shares it,
//! which (together with every tier being a pure FMA chain in `k` order) is
//! why switching backends never changes a single output bit.

use crate::simd::{self, transpose_pack, Kernel};
use crate::workspace;

pub use crate::simd::{kernel_backend, set_backend_override, KernelBackend};

/// Row-block size: an MC×KC packed A block should sit in L2.
pub const MC: usize = 64;
/// Depth-block size: a KC-deep B panel should stream from L1/L2
/// (KC·nr·4 B = 16 KiB at nr=16, 48 KiB at nr=48). Shared by every backend:
/// it fixes where accumulator chains are split, i.e. the rounding.
pub const KC: usize = 256;
/// Column-slab size: a KC×NC packed B slab should sit in L2/L3.
pub const NC: usize = 512;

/// Takes a pooled scratch buffer whose payload starts on a 64-byte (cache
/// line) boundary, returning the guard plus the element offset of the
/// payload. Panel alignment matters: a zmm load that straddles a cache line
/// costs two L1 accesses, and the pool hands back arbitrarily aligned `Vec`
/// storage.
pub(crate) fn take_scratch_aligned(len: usize) -> (workspace::WorkspaceGuard, usize) {
    let buf = workspace::take_scratch(len + 15);
    let off = buf.as_ptr().align_offset(64).min(15);
    (buf, off)
}

/// Storage layout of a GEMM operand, folded into the packing strides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatLayout {
    /// Operand is stored exactly as the operation reads it.
    Normal,
    /// Operand is stored transposed; packing walks it with swapped strides
    /// (the micro-kernel never sees the difference).
    Transposed,
}

/// `C = op(A) · op(B)` with `op(A): [m, k]`, `op(B): [k, n]`, `C: [m, n]`
/// row-major. `C` is fully overwritten (no pre-zeroing needed).
///
/// `a_layout == Transposed` means `A` is stored `[k, m]` (so `op(A)[i][p] =
/// a[p*m + i]`); `b_layout == Transposed` means `B` is stored `[n, k]`.
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
    if k == 0 {
        c.fill(0.0);
        return;
    }
    let kernel = simd::active_kernel_for(m, n);
    // Element (i, p) of op(A) is a[i*a_rs + p*a_cs]; (p, j) of op(B) is
    // b[p*b_rs + j*b_cs]. Transposition is entirely these four strides.
    let (a_rs, a_cs) = match a_layout {
        MatLayout::Normal => (k, 1),
        MatLayout::Transposed => (1, m),
    };
    let (b_rs, b_cs) = match b_layout {
        MatLayout::Normal => (n, 1),
        MatLayout::Transposed => (1, k),
    };

    for jc in (0..n).step_by(NC) {
        let nb = NC.min(n - jc);
        let n_panels = nb.div_ceil(kernel.nr);
        for pc in (0..k).step_by(KC) {
            let kb = KC.min(k - pc);
            let b_len = n_panels * kernel.nr * kb;
            let (mut b_buf, b_off) = take_scratch_aligned(b_len);
            let b_pack = &mut b_buf[b_off..b_off + b_len];
            pack_b(kernel.nr, b_pack, b, b_rs, b_cs, pc, kb, jc, nb);
            let b_pack = &b_buf[b_off..b_off + b_len];
            for (bi, c_block) in c.chunks_mut(MC * n).enumerate() {
                let i0 = bi * MC;
                let mb = MC.min(m - i0);
                let a_len = mb.div_ceil(kernel.mr) * kernel.mr * kb;
                let (mut a_buf, a_off) = take_scratch_aligned(a_len);
                let a_pack = &mut a_buf[a_off..a_off + a_len];
                pack_a(kernel.mr, a_pack, a, a_rs, a_cs, i0, mb, pc, kb);
                macro_block(kernel, a_pack, b_pack, c_block, mb, kb, nb, n, jc, pc == 0);
            }
        }
    }
}

/// Packs an `mb × kb` block of op(A) (rows `i0..`, depth `p0..`) into
/// mr-row panels stored column-major within the panel: panel `pi` holds rows
/// `i0 + pi*mr ..` at `dst[pi*mr*kb + p*mr + i]`. Rows past `mb` are zero.
/// One of the strides is 1: op(A) is stored transposed (`rs == 1`) or
/// row-major (`cs == 1`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn pack_a(
    mr: usize,
    dst: &mut [f32],
    src: &[f32],
    rs: usize,
    cs: usize,
    i0: usize,
    mb: usize,
    p0: usize,
    kb: usize,
) {
    for (pi, panel) in dst.chunks_exact_mut(mr * kb).enumerate() {
        let i = i0 + pi * mr;
        let rows = mr.min(i0 + mb - i);
        if rs == 1 {
            // op(A) columns are contiguous in src: each packed column is a
            // straight memcpy.
            for (p, col) in panel.chunks_exact_mut(mr).enumerate() {
                let base = (p0 + p) * cs + i;
                col[..rows].copy_from_slice(&src[base..base + rows]);
                col[rows..].fill(0.0);
            }
        } else {
            assert_eq!(cs, 1, "pack_a: neither stride of op(A) is 1");
            if rows < mr {
                panel.fill(0.0);
            }
            let run = std::iter::once((0, i * rs + p0, kb));
            transpose_pack(panel, mr, src, &strided_rows(rows, rs)[..rows], run);
        }
    }
}

/// Packs a `kb × nb` block of op(B) (depth `p0..`, cols `j0..`) into
/// nr-column panels stored row-major within the panel: panel `pj` holds
/// columns `j0 + pj*nr ..` at `dst[pj*nr*kb + p*nr + j]`. Columns past `nb`
/// are zero. One of the strides is 1, as in [`pack_a`].
#[allow(clippy::too_many_arguments)]
fn pack_b(
    nr: usize,
    dst: &mut [f32],
    src: &[f32],
    rs: usize,
    cs: usize,
    p0: usize,
    kb: usize,
    j0: usize,
    nb: usize,
) {
    for (pj, panel) in dst.chunks_exact_mut(nr * kb).enumerate() {
        let j = j0 + pj * nr;
        let cols = nr.min(j0 + nb - j);
        if cs == 1 {
            // op(B) rows are contiguous in src: each packed row is a
            // straight memcpy — this is the hot pack (nb ≥ mb in every
            // GEMM this crate issues) and it must not run scalar.
            for (p, row) in panel.chunks_exact_mut(nr).enumerate() {
                let base = (p0 + p) * rs + j;
                row[..cols].copy_from_slice(&src[base..base + cols]);
                row[cols..].fill(0.0);
            }
        } else {
            assert_eq!(rs, 1, "pack_b: neither stride of op(B) is 1");
            if cols < nr {
                panel.fill(0.0);
            }
            let run = std::iter::once((0, j * cs + p0, kb));
            transpose_pack(panel, nr, src, &strided_rows(cols, cs)[..cols], run);
        }
    }
}

/// The offsets `0, stride, 2·stride, …` of `count <= MAX_NR` source rows,
/// for [`transpose_pack`] (on the stack: a pack must not allocate).
fn strided_rows(count: usize, stride: usize) -> [u32; simd::MAX_NR] {
    assert!(count <= simd::MAX_NR, "a panel is at most MAX_NR wide");
    let far = count.saturating_sub(1) * stride;
    assert!(u32::try_from(far).is_ok(), "a panel's rows span more than u32 offsets");
    std::array::from_fn(|r| if r < count { (r * stride) as u32 } else { 0 })
}

/// Runs every micro-tile of one packed `mb × kb` A block against the packed
/// `kb × nb` B slab, writing the `mb × nb` result into `c_block` (whose rows
/// are full C rows of width `row_stride`, starting at column `jc`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn macro_block(
    kernel: &Kernel,
    a_pack: &[f32],
    b_pack: &[f32],
    c_block: &mut [f32],
    mb: usize,
    kb: usize,
    nb: usize,
    row_stride: usize,
    jc: usize,
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
        for (pj, b_panel) in b_pack.chunks_exact(nr * kb).enumerate() {
            let j = pj * nr;
            let cols = nr.min(nb - j);
            (kernel.micro)(kb, a_panel, b_panel, acc);
            // Write-back masks the zero-padded lanes of edge tiles.
            for ii in 0..rows {
                let row = &acc[ii * nr..][..cols];
                let dst = &mut c_block[(i + ii) * row_stride + jc + j..][..cols];
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
        // Shapes straddle every mr/nr/MC/KC edge case of every backend
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
        let mut c = vec![5.0f32; 6];
        gemm(2, 0, 3, &[], MatLayout::Normal, &[], MatLayout::Normal, &mut c);
        assert!(c.iter().all(|&v| v == 0.0));
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
            let aligned = |len: usize, seed: u32| {
                let mut v = vec![0.0f32; len + 15];
                let off = v.as_ptr().align_offset(64).min(15);
                v[off..off + len].copy_from_slice(&fill(len, seed));
                (v, off)
            };
            let (ap, ao) = aligned(kern.mr * kb, 3);
            let (bp, bo) = aligned(kern.nr * kb, 4);
            let mut acc = vec![0.0f32; kern.mr * kern.nr];
            let reps = 40_000;
            let mut best = f64::MAX;
            for _ in 0..3 {
                let t = Instant::now();
                for _ in 0..reps {
                    (kern.micro)(
                        kb,
                        &ap[ao..ao + kern.mr * kb],
                        &bp[bo..bo + kern.nr * kb],
                        &mut acc,
                    );
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
