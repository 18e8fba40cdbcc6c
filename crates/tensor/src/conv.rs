//! 3D convolution, pooling, and upsampling kernels (NCDHW layout).
//!
//! These are the compute-heavy primitives behind the Context Generation
//! Network (the 3D U-Net of paper Fig. 5). All kernels use stride 1 and
//! "same" zero padding with odd kernel sizes, which is exactly what the
//! architecture needs (1×1×1 and 3×3×3 convolutions).
//!
//! Two forward lowerings are provided, and [`conv3d_auto`] picks between
//! them per layer by shape ([`conv3d_path`]):
//!
//! - [`conv3d`]: direct kernel, one sweep per (batch, output channel)
//!   slab; no intermediate materialization, used for 1×1×1 kernels (already
//!   a GEMM-shaped axpy sweep);
//! - [`conv3d_implicit_gemm`]: packs patch columns on the fly inside the
//!   blocked GEMM of [`crate::gemm`](mod@crate::gemm), so the register-tiled micro-kernel
//!   runs every other kernel size without materializing a patch matrix.
//!
//! All inner loops are branch-free: there is deliberately no zero-skip
//! shortcut on weights, because `0·∞` must produce NaN, not silence (the
//! gradcheck and NaN-propagation tests pin this down). Output buffers and
//! packing scratch come from the [`crate::workspace`] pool, so steady-state
//! training steps do not touch the system allocator.

use crate::tensor::Tensor;
use crate::workspace;

/// Shape metadata for one conv3d application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv3dDims {
    /// Batch size.
    pub n: usize,
    /// Input channels.
    pub cin: usize,
    /// Output channels.
    pub cout: usize,
    /// Spatial extents `[d, h, w]` (identical for input and output: same padding).
    pub spatial: [usize; 3],
    /// Kernel extents `[kd, kh, kw]` — each must be odd.
    pub kernel: [usize; 3],
}

impl Conv3dDims {
    /// Validates and extracts the dimension bundle from an input/weight pair.
    ///
    /// # Panics
    /// Panics on rank mismatch, channel mismatch, or even kernel sizes.
    pub fn infer(input: &Tensor, weight: &Tensor) -> Self {
        assert_eq!(input.shape().rank(), 5, "conv3d input must be [N,C,D,H,W]");
        assert_eq!(weight.shape().rank(), 5, "conv3d weight must be [Co,Ci,kd,kh,kw]");
        let (n, cin) = (input.dims()[0], input.dims()[1]);
        let spatial = [input.dims()[2], input.dims()[3], input.dims()[4]];
        let (cout, cin_w) = (weight.dims()[0], weight.dims()[1]);
        let kernel = [weight.dims()[2], weight.dims()[3], weight.dims()[4]];
        assert_eq!(cin, cin_w, "conv3d channel mismatch: input {cin}, weight {cin_w}");
        for k in kernel {
            assert!(k % 2 == 1, "conv3d kernels must be odd for same padding, got {kernel:?}");
        }
        Conv3dDims { n, cin, cout, spatial, kernel }
    }

    fn pad(&self) -> [usize; 3] {
        [self.kernel[0] / 2, self.kernel[1] / 2, self.kernel[2] / 2]
    }

    fn vol(&self) -> usize {
        self.spatial.iter().product()
    }
}

/// Forward 3D convolution with stride 1 and same zero padding.
///
/// `input: [N, Cin, D, H, W]`, `weight: [Cout, Cin, kd, kh, kw]` →
/// `[N, Cout, D, H, W]`.
pub fn conv3d(input: &Tensor, weight: &Tensor) -> Tensor {
    let dims = Conv3dDims::infer(input, weight);
    let [sd, sh, sw] = dims.spatial;
    let [kd, kh, kw] = dims.kernel;
    let [pd, ph, pw] = dims.pad();
    let vol = dims.vol();
    let x = input.data();
    let wgt = weight.data();
    let mut out = workspace::take_vec_zeroed(dims.n * dims.cout * vol);

    out.chunks_mut(vol).enumerate().for_each(|(chunk, o)| {
        let n = chunk / dims.cout;
        let co = chunk % dims.cout;
        for ci in 0..dims.cin {
            let xin = &x[(n * dims.cin + ci) * vol..(n * dims.cin + ci + 1) * vol];
            let wv = &wgt
                [((co * dims.cin + ci) * kd * kh * kw)..((co * dims.cin + ci + 1) * kd * kh * kw)];
            for zd in 0..kd {
                for zh in 0..kh {
                    for zw in 0..kw {
                        // No zero-skip on `wval`: 0·∞ must yield NaN, and the
                        // branch is a mispredict tax on dense weights.
                        let wval = wv[(zd * kh + zh) * kw + zw];
                        // Output index (d,h,w) reads input (d+zd-pd, h+zh-ph, w+zw-pw).
                        let d_lo = pd.saturating_sub(zd);
                        let d_hi = (sd + pd - zd).min(sd);
                        let h_lo = ph.saturating_sub(zh);
                        let h_hi = (sh + ph - zh).min(sh);
                        let w_lo = pw.saturating_sub(zw);
                        let w_hi = (sw + pw - zw).min(sw);
                        for d in d_lo..d_hi {
                            let id = d + zd - pd;
                            for h in h_lo..h_hi {
                                let ih = h + zh - ph;
                                let orow = (d * sh + h) * sw;
                                let irow = (id * sh + ih) * sw;
                                for w in w_lo..w_hi {
                                    o[orow + w] += wval * xin[irow + w + zw - pw];
                                }
                            }
                        }
                    }
                }
            }
        }
    });
    Tensor::from_vec(out, &[dims.n, dims.cout, sd, sh, sw])
}

/// Gradient of [`conv3d`] with respect to its input — auto-dispatching
/// entry point (this is what the autodiff graph calls). Routes through the
/// fused implicit GEMM for real (non-pointwise, odd) kernels and falls back
/// to the direct sliding-window kernel otherwise.
pub fn conv3d_grad_input(grad_out: &Tensor, weight: &Tensor, dims: Conv3dDims) -> Tensor {
    // The flipped-weight trick behind the implicit path needs odd kernels
    // (true for every conv this repo builds, but `dims` arrives unchecked).
    let odd = dims.kernel.iter().all(|k| k % 2 == 1);
    match conv3d_path(&dims) {
        Conv3dPath::ImplicitGemm if odd => conv3d_implicit_grad_input(grad_out, weight, dims),
        _ => conv3d_grad_input_direct(grad_out, weight, dims),
    }
}

/// Gradient of [`conv3d`] with respect to its weights — auto-dispatching
/// entry point mirroring [`conv3d_grad_input`].
pub fn conv3d_grad_weight(input: &Tensor, grad_out: &Tensor, dims: Conv3dDims) -> Tensor {
    match conv3d_path(&dims) {
        Conv3dPath::ImplicitGemm => conv3d_implicit_grad_weight(input, grad_out, dims),
        _ => conv3d_grad_weight_direct(input, grad_out, dims),
    }
}

/// Gradient of [`conv3d`] with respect to its input, direct kernel.
///
/// `grad_out: [N, Cout, D, H, W]` → `[N, Cin, D, H, W]`.
pub fn conv3d_grad_input_direct(grad_out: &Tensor, weight: &Tensor, dims: Conv3dDims) -> Tensor {
    let [sd, sh, sw] = dims.spatial;
    let [kd, kh, kw] = dims.kernel;
    let [pd, ph, pw] = dims.pad();
    let vol = dims.vol();
    assert_eq!(grad_out.dims(), &[dims.n, dims.cout, sd, sh, sw]);
    let g = grad_out.data();
    let wgt = weight.data();
    let mut out = workspace::take_vec_zeroed(dims.n * dims.cin * vol);

    out.chunks_mut(vol).enumerate().for_each(|(chunk, o)| {
        let n = chunk / dims.cin;
        let ci = chunk % dims.cin;
        for co in 0..dims.cout {
            let gout = &g[(n * dims.cout + co) * vol..(n * dims.cout + co + 1) * vol];
            let wv = &wgt
                [((co * dims.cin + ci) * kd * kh * kw)..((co * dims.cin + ci + 1) * kd * kh * kw)];
            for zd in 0..kd {
                for zh in 0..kh {
                    for zw in 0..kw {
                        // Branch-free, same as the forward kernel.
                        let wval = wv[(zd * kh + zh) * kw + zw];
                        // grad_in[i] += grad_out[i - z + p] * w[z]; bounds on the
                        // *output* index od = id - zd + pd.
                        let d_lo = zd.saturating_sub(pd);
                        let d_hi = (sd + zd).min(sd + pd).saturating_sub(pd).min(sd);
                        let h_lo = zh.saturating_sub(ph);
                        let h_hi = (sh + zh).min(sh + ph).saturating_sub(ph).min(sh);
                        let w_lo = zw.saturating_sub(pw);
                        let w_hi = (sw + zw).min(sw + pw).saturating_sub(pw).min(sw);
                        for id in d_lo..d_hi {
                            let od = id + pd - zd;
                            if od >= sd {
                                continue;
                            }
                            for ih in h_lo..h_hi {
                                let oh = ih + ph - zh;
                                if oh >= sh {
                                    continue;
                                }
                                let irow = (id * sh + ih) * sw;
                                let orow = (od * sh + oh) * sw;
                                for iw in w_lo..w_hi {
                                    let ow = iw + pw - zw;
                                    if ow < sw {
                                        o[irow + iw] += wval * gout[orow + ow];
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    });
    Tensor::from_vec(out, &[dims.n, dims.cin, sd, sh, sw])
}

/// Gradient of [`conv3d`] with respect to its weights, direct kernel.
///
/// Returns `[Cout, Cin, kd, kh, kw]`.
pub fn conv3d_grad_weight_direct(input: &Tensor, grad_out: &Tensor, dims: Conv3dDims) -> Tensor {
    let [sd, sh, sw] = dims.spatial;
    let [kd, kh, kw] = dims.kernel;
    let [pd, ph, pw] = dims.pad();
    let vol = dims.vol();
    assert_eq!(grad_out.dims(), &[dims.n, dims.cout, sd, sh, sw]);
    let x = input.data();
    let g = grad_out.data();
    let ksize = kd * kh * kw;
    let mut out = workspace::take_vec_zeroed(dims.cout * dims.cin * ksize);

    out.chunks_mut(dims.cin * ksize).enumerate().for_each(|(co, wslab)| {
        for n in 0..dims.n {
            let gout = &g[(n * dims.cout + co) * vol..(n * dims.cout + co + 1) * vol];
            for ci in 0..dims.cin {
                let xin = &x[(n * dims.cin + ci) * vol..(n * dims.cin + ci + 1) * vol];
                let wv = &mut wslab[ci * ksize..(ci + 1) * ksize];
                for zd in 0..kd {
                    for zh in 0..kh {
                        for zw in 0..kw {
                            let d_lo = pd.saturating_sub(zd);
                            let d_hi = (sd + pd - zd).min(sd);
                            let h_lo = ph.saturating_sub(zh);
                            let h_hi = (sh + ph - zh).min(sh);
                            let w_lo = pw.saturating_sub(zw);
                            let w_hi = (sw + pw - zw).min(sw);
                            let mut acc = 0.0f32;
                            for d in d_lo..d_hi {
                                let id = d + zd - pd;
                                for h in h_lo..h_hi {
                                    let ih = h + zh - ph;
                                    let orow = (d * sh + h) * sw;
                                    let irow = (id * sh + ih) * sw;
                                    for w in w_lo..w_hi {
                                        acc += gout[orow + w] * xin[irow + w + zw - pw];
                                    }
                                }
                            }
                            wv[(zd * kh + zh) * kw + zw] += acc;
                        }
                    }
                }
            }
        }
    });
    Tensor::from_vec(out, &[dims.cout, dims.cin, kd, kh, kw])
}

/// Which lowering [`conv3d_auto`] (and the gradient dispatchers) picked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Conv3dPath {
    /// Direct sliding-window kernel ([`conv3d`]).
    Direct,
    /// Fused implicit-GEMM ([`conv3d_implicit_gemm`]): patch columns are
    /// packed on the fly inside the GEMM's KC loop — the patch matrix is
    /// never materialized.
    ImplicitGemm,
}

impl Conv3dPath {
    /// Stable lowercase name, used by trainer telemetry.
    pub fn name(self) -> &'static str {
        match self {
            Conv3dPath::Direct => "direct",
            Conv3dPath::ImplicitGemm => "implicit_gemm",
        }
    }
}

/// Shape-based heuristic choosing the forward lowering for one layer.
///
/// 1×1×1 kernels stay direct: their inner loop is already a dense
/// channel-mixing GEMM over contiguous voxels, and lowering would only copy
/// the input. Everything else goes through the fused implicit GEMM — the
/// register-tiled micro-kernel wins as soon as the reduction depth
/// `Cin·kd·kh·kw` is non-trivial, and since patch columns are packed
/// on the fly there is no materialized patch matrix to cap.
pub fn conv3d_path(dims: &Conv3dDims) -> Conv3dPath {
    let kvol: usize = dims.kernel.iter().product();
    if kvol == 1 {
        Conv3dPath::Direct
    } else {
        Conv3dPath::ImplicitGemm
    }
}

/// Forward 3D convolution dispatching to the lowering chosen by
/// [`conv3d_path`]. This is what the U-Net layers call.
pub fn conv3d_auto(input: &Tensor, weight: &Tensor) -> Tensor {
    let dims = Conv3dDims::infer(input, weight);
    match conv3d_path(&dims) {
        Conv3dPath::Direct => conv3d(input, weight),
        Conv3dPath::ImplicitGemm => conv3d_implicit_gemm(input, weight),
    }
}

/// Fills one span of the *implicit* patch matrix.
///
/// Patch element `(kidx, p)` is `x[n, ci, (d+zd-pd, h+zh-ph, w+zw-pw)]`
/// (zero outside the input) for `kidx = (ci, zd, zh, zw)` and output voxel
/// `p = (d, h, w)`. This writes elements `j0 .. j0+cols` of row `kidx` into
/// `dst` at `stride` (stride 1 packs a forward B-panel row; stride `nr`
/// packs a grad-weight B-panel column). The walk is segment-wise: each
/// output row `(d, h)` contributes one contiguous `w`-run of `xin` plus
/// zero-padding at the borders, so the common case is a memcpy.
#[allow(clippy::too_many_arguments)]
fn fill_patch_span(
    dst: &mut [f32],
    stride: usize,
    xin: &[f32],
    spatial: [usize; 3],
    z: [usize; 3],
    pad: [usize; 3],
    j0: usize,
    cols: usize,
) {
    let [sd, sh, sw] = spatial;
    let [zd, zh, zw] = z;
    let [pd, ph, pw] = pad;
    let mut j = 0usize;
    while j < cols {
        let p = j0 + j;
        let d = p / (sh * sw);
        let rem = p % (sh * sw);
        let h = rem / sw;
        let w0 = rem % sw;
        // Run to the end of this output row (or of the requested span).
        let seg = (sw - w0).min(cols - j);
        let id_ok = d + zd >= pd && d + zd < sd + pd;
        let ih_ok = h + zh >= ph && h + zh < sh + ph;
        let zero = |dst: &mut [f32], at: usize, len: usize| {
            if stride == 1 {
                dst[at..at + len].fill(0.0);
            } else {
                for jj in 0..len {
                    dst[(at + jj) * stride] = 0.0;
                }
            }
        };
        if !(id_ok && ih_ok) {
            zero(dst, j, seg);
        } else {
            let irow = ((d + zd - pd) * sh + (h + zh - ph)) * sw;
            // In-bounds input width: iw = w + zw - pw must lie in [0, sw).
            let lo = pw.saturating_sub(zw).clamp(w0, w0 + seg);
            let hi = (sw + pw).saturating_sub(zw).min(sw).clamp(lo, w0 + seg);
            zero(dst, j, lo - w0);
            if stride == 1 {
                dst[j + (lo - w0)..j + (hi - w0)]
                    .copy_from_slice(&xin[irow + lo + zw - pw..irow + hi + zw - pw]);
            } else {
                for (jj, w) in (lo..hi).enumerate() {
                    dst[(j + (lo - w0) + jj) * stride] = xin[irow + w + zw - pw];
                }
            }
            zero(dst, j + (hi - w0), w0 + seg - hi);
        }
        j += seg;
    }
}

/// Forward 3D convolution as a *fused implicit GEMM*: per batch item,
/// `out[co, p] = W[co, :] · patch[:, p]` with `W: [Cout, Cin·kd·kh·kw]` in
/// its native layout and the patch operand packed on the fly, one `KC×NC`
/// block at a time, by `fill_patch_span` — the `[Cin·kvol, D·H·W]` patch
/// matrix never exists in memory. The output lands directly in NCDHW (no
/// transpose-back), and all scratch is pooled: steady-state calls do not
/// allocate.
///
/// Numerics: each output element is one `k`-ordered FMA chain over
/// `(ci, zd, zh, zw)`, restarted every `KC` depths and summed across
/// blocks — pinned bit-for-bit against a scalar transcription by the tests
/// here.
pub fn conv3d_implicit_gemm(input: &Tensor, weight: &Tensor) -> Tensor {
    let dims = Conv3dDims::infer(input, weight);
    let [sd, sh, sw] = dims.spatial;
    let out = implicit_forward_into(input.data(), weight.data(), dims);
    Tensor::from_vec(out, &[dims.n, dims.cout, sd, sh, sw])
}

/// Shared implicit-GEMM forward driver: `x: [n, cin, vol]` NCDHW, `w:
/// [cout, cin·kvol]`, returns `[n, cout, vol]`. Also serves the
/// grad-input pass (which is a forward conv against flipped weights).
fn implicit_forward_into(x: &[f32], w: &[f32], dims: Conv3dDims) -> Vec<f32> {
    use crate::gemm::{macro_block, pack_a, take_scratch_aligned, KC, NC};
    let [kd, kh, kw] = dims.kernel;
    let kvol = kd * kh * kw;
    let vol = dims.vol();
    let ksize = dims.cin * kvol;
    let pad = dims.pad();
    let kernel = crate::simd::active_kernel_for(dims.cout, vol);
    let (mr, nr) = (kernel.mr, kernel.nr);
    let mut out = workspace::take_vec_scratch(dims.n * dims.cout * vol);

    // The packed weight block for each KC slice is identical across batch
    // items and column slabs: pack all of A once, up front.
    let a_panel_rows = dims.cout.div_ceil(mr) * mr;
    let (mut a_buf, a_off) = take_scratch_aligned(a_panel_rows * ksize);
    let mut a_blocks = Vec::new(); // (pc, range in a_buf)
    {
        let mut off = a_off;
        for pc in (0..ksize).step_by(KC) {
            let kb = KC.min(ksize - pc);
            let len = a_panel_rows * kb;
            pack_a(mr, &mut a_buf[off..off + len], w, ksize, 1, 0, dims.cout, pc, kb);
            a_blocks.push((pc, off..off + len));
            off += len;
        }
    }

    for (n, oslab) in out.chunks_mut(dims.cout * vol).enumerate() {
        for jc in (0..vol).step_by(NC) {
            let nb = NC.min(vol - jc);
            let n_panels = nb.div_ceil(nr);
            for (pc, a_range) in a_blocks.iter() {
                let pc = *pc;
                let kb = KC.min(ksize - pc);
                let first = pc == 0;
                let b_len = n_panels * nr * kb;
                let (mut b_buf, b_off) = take_scratch_aligned(b_len);
                let b_pack = &mut b_buf[b_off..b_off + b_len];
                for (pj, panel) in b_pack.chunks_exact_mut(nr * kb).enumerate() {
                    let j0 = jc + pj * nr;
                    let cols = nr.min(nb - pj * nr);
                    for (p, row) in panel.chunks_exact_mut(nr).enumerate() {
                        let kidx = pc + p;
                        let (ci, z) = (kidx / kvol, kidx % kvol);
                        let zoff = [z / (kh * kw), (z / kw) % kh, z % kw];
                        let xin = &x[(n * dims.cin + ci) * vol..][..vol];
                        fill_patch_span(row, 1, xin, dims.spatial, zoff, pad, j0, cols);
                        row[cols..].fill(0.0);
                    }
                }
                macro_block(
                    kernel,
                    &a_buf[a_range.clone()],
                    &b_buf[b_off..b_off + b_len],
                    oslab,
                    dims.cout,
                    kb,
                    nb,
                    vol,
                    jc,
                    first,
                );
            }
        }
    }
    out
}

/// Gradient of conv3d w.r.t. its input, as an implicit GEMM.
///
/// For stride-1 same-padding convolution with odd kernels, `∂L/∂x` is
/// itself a same-padding convolution of `grad_out` against the weight with
/// input/output channels swapped and every kernel axis flipped:
/// `W'[ci, co, z] = W[co, ci, flip(z)]`. The flipped weight (a few KiB) is
/// materialized once per call; the patch operand streams through
/// `fill_patch_span` exactly like the forward pass.
pub fn conv3d_implicit_grad_input(grad_out: &Tensor, weight: &Tensor, dims: Conv3dDims) -> Tensor {
    let [sd, sh, sw] = dims.spatial;
    let [kd, kh, kw] = dims.kernel;
    let kvol = kd * kh * kw;
    assert_eq!(grad_out.dims(), &[dims.n, dims.cout, sd, sh, sw]);
    let w = weight.data();
    let mut wf = workspace::take_vec_scratch(dims.cin * dims.cout * kvol);
    for co in 0..dims.cout {
        for ci in 0..dims.cin {
            let src = &w[(co * dims.cin + ci) * kvol..][..kvol];
            let dst = &mut wf[(ci * dims.cout + co) * kvol..][..kvol];
            for (z, d) in dst.iter_mut().enumerate() {
                *d = src[kvol - 1 - z];
            }
        }
    }
    let flipped = Conv3dDims { cin: dims.cout, cout: dims.cin, ..dims };
    let out = implicit_forward_into(grad_out.data(), &wf, flipped);
    drop(wf);
    Tensor::from_vec(out, &[dims.n, dims.cin, sd, sh, sw])
}

/// Gradient of conv3d w.r.t. its weights, as an implicit GEMM.
///
/// Per batch item `n`, `∂L/∂W[co, kidx] += grad_out_n[co, :] ·
/// patchᵀ_n[:, kidx]` — a `[Cout, vol] × [vol, Cin·kvol]` GEMM whose
/// right-hand side is the *transposed* implicit patch matrix, packed
/// column-wise by `fill_patch_span` with a write stride of `nr`. The
/// depth dimension is the voxel count, so accumulation runs over both the
/// `KC` voxel blocks and the batch (`first` only on the very first block).
pub fn conv3d_implicit_grad_weight(input: &Tensor, grad_out: &Tensor, dims: Conv3dDims) -> Tensor {
    use crate::gemm::{macro_block, pack_a, take_scratch_aligned, KC, NC};
    let [sd, sh, sw] = dims.spatial;
    let [kd, kh, kw] = dims.kernel;
    let kvol = kd * kh * kw;
    let vol = dims.vol();
    let ksize = dims.cin * kvol;
    let pad = dims.pad();
    assert_eq!(grad_out.dims(), &[dims.n, dims.cout, sd, sh, sw]);
    let x = input.data();
    let g = grad_out.data();
    let kernel = crate::simd::active_kernel_for(dims.cout, ksize);
    let (mr, nr) = (kernel.mr, kernel.nr);
    let mut out = workspace::take_vec_scratch(dims.cout * ksize);

    for n in 0..dims.n {
        let gn = &g[n * dims.cout * vol..][..dims.cout * vol];
        for jc in (0..ksize).step_by(NC) {
            let nb = NC.min(ksize - jc);
            let n_panels = nb.div_ceil(nr);
            for pc in (0..vol).step_by(KC) {
                let kb = KC.min(vol - pc);
                let first = n == 0 && pc == 0;
                let b_len = n_panels * nr * kb;
                let (mut b_buf, b_off) = take_scratch_aligned(b_len);
                let b_pack = &mut b_buf[b_off..b_off + b_len];
                for (pj, panel) in b_pack.chunks_exact_mut(nr * kb).enumerate() {
                    let j0 = jc + pj * nr;
                    let cols = nr.min(nb - pj * nr);
                    if cols < nr {
                        panel.fill(0.0); // edge panel: pad columns
                    }
                    for jj in 0..cols {
                        let kidx = j0 + jj;
                        let (ci, z) = (kidx / kvol, kidx % kvol);
                        let zoff = [z / (kh * kw), (z / kw) % kh, z % kw];
                        let xin = &x[(n * dims.cin + ci) * vol..][..vol];
                        // Column jj of the panel, over kb depth (voxel) rows.
                        fill_patch_span(&mut panel[jj..], nr, xin, dims.spatial, zoff, pad, pc, kb);
                    }
                }
                let a_len = dims.cout.div_ceil(mr) * mr * kb;
                let (mut a_buf, a_off) = take_scratch_aligned(a_len);
                let a_pack = &mut a_buf[a_off..a_off + a_len];
                pack_a(mr, a_pack, gn, vol, 1, 0, dims.cout, pc, kb);
                macro_block(
                    kernel,
                    a_pack,
                    &b_buf[b_off..b_off + b_len],
                    &mut out,
                    dims.cout,
                    kb,
                    nb,
                    ksize,
                    jc,
                    first,
                );
            }
        }
    }
    Tensor::from_vec(out, &[dims.cout, dims.cin, kd, kh, kw])
}

/// Non-overlapping 3D max pooling by integer factors `[fd, fh, fw]`.
///
/// Returns the pooled tensor and the flat argmax index (into the input
/// buffer) per output element, for use by the backward pass.
///
/// # Panics
/// Panics if a spatial extent is not divisible by its factor.
pub fn maxpool3d(input: &Tensor, factors: [usize; 3]) -> (Tensor, Vec<u32>) {
    assert_eq!(input.shape().rank(), 5, "maxpool3d input must be [N,C,D,H,W]");
    let [fd, fh, fw] = factors;
    let (n, c) = (input.dims()[0], input.dims()[1]);
    let (d, h, w) = (input.dims()[2], input.dims()[3], input.dims()[4]);
    assert!(
        d % fd == 0 && h % fh == 0 && w % fw == 0,
        "maxpool3d: dims [{d},{h},{w}] not divisible by factors {factors:?}"
    );
    let (od, oh, ow) = (d / fd, h / fh, w / fw);
    let x = input.data();
    let ovol = od * oh * ow;
    let mut out = workspace::take_vec_scratch(n * c * ovol);
    let mut idx = vec![0u32; n * c * ovol];
    out.chunks_mut(ovol).zip(idx.chunks_mut(ovol)).enumerate().for_each(|(chunk, (o, ix))| {
        let base = chunk * d * h * w; // start of this (n,c) slab in input
        for zd in 0..od {
            for zh in 0..oh {
                for zw in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_i = 0usize;
                    for dd in 0..fd {
                        for hh in 0..fh {
                            for ww in 0..fw {
                                let i = base
                                    + ((zd * fd + dd) * h + (zh * fh + hh)) * w
                                    + (zw * fw + ww);
                                // `>` alone would drop NaN (NaN > x is
                                // false), silently turning a poisoned
                                // window into the max of its healthy
                                // elements. A NaN must win and stick:
                                // once `best` is NaN, `x[i] > best` stays
                                // false forever.
                                if x[i] > best || x[i].is_nan() {
                                    best = x[i];
                                    best_i = i;
                                }
                            }
                        }
                    }
                    let oi = (zd * oh + zh) * ow + zw;
                    o[oi] = best;
                    ix[oi] = best_i as u32;
                }
            }
        }
    });
    (Tensor::from_vec(out, &[n, c, od, oh, ow]), idx)
}

/// Backward of [`maxpool3d`]: scatters output gradients to the recorded
/// argmax positions. `input_numel` is the element count of the pooled input.
pub fn maxpool3d_backward(grad_out: &Tensor, indices: &[u32], input_dims: &[usize]) -> Tensor {
    let numel: usize = input_dims.iter().product();
    assert_eq!(grad_out.numel(), indices.len());
    let mut grad_in = workspace::take_vec_zeroed(numel);
    for (&g, &i) in grad_out.data().iter().zip(indices) {
        grad_in[i as usize] += g;
    }
    Tensor::from_vec(grad_in, input_dims)
}

/// Nearest-neighbor 3D upsampling by integer factors `[fd, fh, fw]`.
pub fn upsample_nearest3d(input: &Tensor, factors: [usize; 3]) -> Tensor {
    assert_eq!(input.shape().rank(), 5, "upsample3d input must be [N,C,D,H,W]");
    let [fd, fh, fw] = factors;
    let (n, c) = (input.dims()[0], input.dims()[1]);
    let (d, h, w) = (input.dims()[2], input.dims()[3], input.dims()[4]);
    let (od, oh, ow) = (d * fd, h * fh, w * fw);
    let x = input.data();
    let ovol = od * oh * ow;
    let ivol = d * h * w;
    let mut out = workspace::take_vec_scratch(n * c * ovol);
    out.chunks_mut(ovol).enumerate().for_each(|(chunk, o)| {
        let xin = &x[chunk * ivol..(chunk + 1) * ivol];
        for zd in 0..od {
            for zh in 0..oh {
                let irow = ((zd / fd) * h + zh / fh) * w;
                let orow = (zd * oh + zh) * ow;
                for zw in 0..ow {
                    o[orow + zw] = xin[irow + zw / fw];
                }
            }
        }
    });
    Tensor::from_vec(out, &[n, c, od, oh, ow])
}

/// Backward of [`upsample_nearest3d`]: sums gradients over each upsampled
/// block (the adjoint of replication).
pub fn upsample_nearest3d_backward(grad_out: &Tensor, factors: [usize; 3]) -> Tensor {
    let [fd, fh, fw] = factors;
    let (n, c) = (grad_out.dims()[0], grad_out.dims()[1]);
    let (od, oh, ow) = (grad_out.dims()[2], grad_out.dims()[3], grad_out.dims()[4]);
    assert!(od % fd == 0 && oh % fh == 0 && ow % fw == 0);
    let (d, h, w) = (od / fd, oh / fh, ow / fw);
    let g = grad_out.data();
    let ivol = d * h * w;
    let ovol = od * oh * ow;
    let mut out = workspace::take_vec_zeroed(n * c * ivol);
    out.chunks_mut(ivol).enumerate().for_each(|(chunk, o)| {
        let gout = &g[chunk * ovol..(chunk + 1) * ovol];
        for zd in 0..od {
            for zh in 0..oh {
                let orow = (zd * oh + zh) * ow;
                let irow = ((zd / fd) * h + zh / fh) * w;
                for zw in 0..ow {
                    o[irow + zw / fw] += gout[orow + zw];
                }
            }
        }
    });
    Tensor::from_vec(out, &[n, c, d, h, w])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Reference conv3d: direct translation of the definition, no tricks.
    fn conv3d_naive(input: &Tensor, weight: &Tensor) -> Tensor {
        let dims = Conv3dDims::infer(input, weight);
        let [sd, sh, sw] = dims.spatial;
        let [kd, kh, kw] = dims.kernel;
        let (pd, ph, pw) = (kd / 2, kh / 2, kw / 2);
        let mut out = Tensor::zeros(&[dims.n, dims.cout, sd, sh, sw]);
        for n in 0..dims.n {
            for co in 0..dims.cout {
                for d in 0..sd {
                    for h in 0..sh {
                        for w in 0..sw {
                            let mut acc = 0.0;
                            for ci in 0..dims.cin {
                                for zd in 0..kd {
                                    for zh in 0..kh {
                                        for zw in 0..kw {
                                            let id = d as isize + zd as isize - pd as isize;
                                            let ih = h as isize + zh as isize - ph as isize;
                                            let iw = w as isize + zw as isize - pw as isize;
                                            if id < 0
                                                || ih < 0
                                                || iw < 0
                                                || id >= sd as isize
                                                || ih >= sh as isize
                                                || iw >= sw as isize
                                            {
                                                continue;
                                            }
                                            acc += input.at(&[
                                                n,
                                                ci,
                                                id as usize,
                                                ih as usize,
                                                iw as usize,
                                            ]) * weight.at(&[co, ci, zd, zh, zw]);
                                        }
                                    }
                                }
                            }
                            *out.at_mut(&[n, co, d, h, w]) = acc;
                        }
                    }
                }
            }
        }
        out
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.dims(), b.dims());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() <= tol * (1.0 + y.abs()), "{x} vs {y}");
        }
    }

    #[test]
    fn conv3d_matches_naive() {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        for &(k, c) in
            &[([1usize, 1, 1], (2usize, 3usize)), ([3, 3, 3], (2, 2)), ([1, 3, 3], (3, 1))]
        {
            let input = Tensor::randn(&[2, c.0, 3, 4, 5], 1.0, &mut rng);
            let weight = Tensor::randn(&[c.1, c.0, k[0], k[1], k[2]], 1.0, &mut rng);
            assert_close(&conv3d(&input, &weight), &conv3d_naive(&input, &weight), 1e-4);
        }
    }

    #[test]
    fn conv3d_identity_kernel() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let input = Tensor::randn(&[1, 1, 4, 4, 4], 1.0, &mut rng);
        let weight = Tensor::ones(&[1, 1, 1, 1, 1]);
        assert_close(&conv3d(&input, &weight), &input, 1e-6);
    }

    /// Numerical gradient check of both conv3d backward kernels.
    #[test]
    fn conv3d_gradients_match_finite_differences() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let input = Tensor::randn(&[1, 2, 2, 3, 3], 0.5, &mut rng);
        let weight = Tensor::randn(&[2, 2, 3, 3, 3], 0.5, &mut rng);
        let dims = Conv3dDims::infer(&input, &weight);
        // Loss = sum(conv(x, w) * r) for a fixed random r.
        let r = Tensor::randn(&[1, 2, 2, 3, 3], 1.0, &mut rng);
        let loss = |x: &Tensor, w: &Tensor| conv3d(x, w).mul(&r).sum() as f64;

        let gx = conv3d_grad_input(&r, &weight, dims);
        let gw = conv3d_grad_weight(&input, &r, dims);
        let eps = 1e-3f32;
        for i in (0..input.numel()).step_by(7) {
            let mut xp = input.clone();
            xp.data_mut()[i] += eps;
            let mut xm = input.clone();
            xm.data_mut()[i] -= eps;
            let fd = (loss(&xp, &weight) - loss(&xm, &weight)) / (2.0 * eps as f64);
            assert!(
                (fd as f32 - gx.data()[i]).abs() < 2e-2,
                "input grad {i}: {fd} vs {}",
                gx.data()[i]
            );
        }
        for i in (0..weight.numel()).step_by(13) {
            let mut wp = weight.clone();
            wp.data_mut()[i] += eps;
            let mut wm = weight.clone();
            wm.data_mut()[i] -= eps;
            let fd = (loss(&input, &wp) - loss(&input, &wm)) / (2.0 * eps as f64);
            assert!(
                (fd as f32 - gw.data()[i]).abs() < 2e-2,
                "weight grad {i}: {fd} vs {}",
                gw.data()[i]
            );
        }
    }

    /// `conv3d_auto` must be a pure dispatcher: whichever lowering the
    /// heuristic picks, the numbers match the direct reference.
    #[test]
    fn conv3d_auto_matches_direct() {
        let mut rng = ChaCha8Rng::seed_from_u64(78);
        for &(k, cin, cout) in
            &[([1usize, 1, 1], 3usize, 5usize), ([3, 3, 3], 2, 4), ([1, 3, 3], 4, 2)]
        {
            let input = Tensor::randn(&[2, cin, 3, 4, 5], 1.0, &mut rng);
            let weight = Tensor::randn(&[cout, cin, k[0], k[1], k[2]], 1.0, &mut rng);
            let direct = conv3d(&input, &weight);
            let auto = conv3d_auto(&input, &weight);
            assert_eq!(direct.dims(), auto.dims());
            for (a, b) in direct.data().iter().zip(auto.data()) {
                assert!((a - b).abs() < 1e-4 * (1.0 + b.abs()), "{a} vs {b} (k={k:?})");
            }
        }
    }

    /// The shape heuristic: pointwise kernels stay direct (lowering would
    /// only copy), everything else goes through the fused implicit GEMM —
    /// including huge shapes, since nothing is materialized there is no
    /// byte-cap fallback anymore.
    #[test]
    fn conv3d_path_heuristic() {
        let pointwise = Conv3dDims { n: 2, cin: 4, cout: 8, spatial: [4, 8, 8], kernel: [1, 1, 1] };
        assert!(matches!(conv3d_path(&pointwise), Conv3dPath::Direct));
        assert_eq!(conv3d_path(&pointwise).name(), "direct");
        let typical = Conv3dDims { n: 2, cin: 4, cout: 8, spatial: [4, 8, 8], kernel: [3, 3, 3] };
        assert!(matches!(conv3d_path(&typical), Conv3dPath::ImplicitGemm));
        assert_eq!(conv3d_path(&typical).name(), "implicit_gemm");
        let huge =
            Conv3dDims { n: 64, cin: 256, cout: 256, spatial: [64, 256, 256], kernel: [3, 3, 3] };
        assert!(matches!(conv3d_path(&huge), Conv3dPath::ImplicitGemm));
    }

    /// Scalar transcription of the implicit GEMM's numerical contract: per
    /// output element one `k`-ordered FMA chain over `(ci, zd, zh, zw)` —
    /// padding voxels included as `0.0` terms, never skipped — restarted
    /// every `KC` depths and summed across blocks.
    fn conv3d_fma_chain(input: &Tensor, weight: &Tensor) -> Tensor {
        let dims = Conv3dDims::infer(input, weight);
        let [sd, sh, sw] = dims.spatial;
        let [kd, kh, kw] = dims.kernel;
        let [pd, ph, pw] = dims.pad();
        let kvol = kd * kh * kw;
        let ksize = dims.cin * kvol;
        let mut out = Tensor::zeros(&[dims.n, dims.cout, sd, sh, sw]);
        for n in 0..dims.n {
            for co in 0..dims.cout {
                for (p, o) in out.data_mut()[(n * dims.cout + co) * dims.vol()..][..dims.vol()]
                    .iter_mut()
                    .enumerate()
                {
                    let (d, h, w) = (p / (sh * sw), (p / sw) % sh, p % sw);
                    for pc in (0..ksize).step_by(crate::gemm::KC) {
                        let mut acc = 0.0f32;
                        for kidx in pc..(pc + crate::gemm::KC).min(ksize) {
                            let (ci, z) = (kidx / kvol, kidx % kvol);
                            let (id, ih, iw) = (d + z / (kh * kw), h + (z / kw) % kh, w + z % kw);
                            let inside = id >= pd
                                && id < sd + pd
                                && ih >= ph
                                && ih < sh + ph
                                && iw >= pw
                                && iw < sw + pw;
                            let x = if inside {
                                input.at(&[n, ci, id - pd, ih - ph, iw - pw])
                            } else {
                                0.0
                            };
                            acc = weight.data()[co * ksize + kidx].mul_add(x, acc);
                        }
                        *o = if pc == 0 { acc } else { *o + acc };
                    }
                }
            }
        }
        out
    }

    /// The fused implicit GEMM is *bit-identical* to its scalar contract on
    /// every blocking edge: only packing and tiling differ.
    #[test]
    fn implicit_gemm_is_bit_identical_to_scalar_fma_chain() {
        let mut rng = ChaCha8Rng::seed_from_u64(79);
        for &(k, cin, cout, sp) in &[
            ([3usize, 3, 3], 2usize, 4usize, [3usize, 4, 5]),
            ([1, 3, 3], 4, 2, [3, 4, 5]),
            ([3, 1, 1], 1, 1, [2, 2, 2]),
            // cin*kvol = 10*27 = 270 > KC: exercises the depth split.
            ([3, 3, 3], 10, 3, [2, 5, 7]),
            // vol > NC: exercises the column-slab loop.
            ([3, 3, 3], 2, 3, [4, 12, 13]),
        ] {
            let input = Tensor::randn(&[2, cin, sp[0], sp[1], sp[2]], 1.0, &mut rng);
            let weight = Tensor::randn(&[cout, cin, k[0], k[1], k[2]], 1.0, &mut rng);
            let chain = conv3d_fma_chain(&input, &weight);
            let fused = conv3d_implicit_gemm(&input, &weight);
            assert_eq!(chain.dims(), fused.dims());
            for (i, (a, b)) in chain.data().iter().zip(fused.data()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "elem {i}: {a} vs {b} (k={k:?})");
            }
        }
    }

    /// Implicit-GEMM gradients agree with the direct gradient kernels
    /// (different summation order, so tolerance rather than bits).
    #[test]
    fn implicit_gradients_match_direct() {
        let mut rng = ChaCha8Rng::seed_from_u64(80);
        for &(k, cin, cout, sp) in &[
            ([3usize, 3, 3], 2usize, 4usize, [3usize, 4, 5]),
            ([1, 3, 3], 4, 2, [3, 4, 5]),
            ([3, 3, 3], 10, 3, [2, 5, 7]),
            ([3, 3, 3], 2, 3, [4, 12, 13]),
        ] {
            let input = Tensor::randn(&[2, cin, sp[0], sp[1], sp[2]], 1.0, &mut rng);
            let weight = Tensor::randn(&[cout, cin, k[0], k[1], k[2]], 1.0, &mut rng);
            let dims = Conv3dDims::infer(&input, &weight);
            let gout = Tensor::randn(&[2, cout, sp[0], sp[1], sp[2]], 1.0, &mut rng);
            assert_close(
                &conv3d_implicit_grad_input(&gout, &weight, dims),
                &conv3d_grad_input_direct(&gout, &weight, dims),
                1e-4,
            );
            assert_close(
                &conv3d_implicit_grad_weight(&input, &gout, dims),
                &conv3d_grad_weight_direct(&input, &gout, dims),
                1e-4,
            );
        }
    }

    /// NaN and inf flow through the implicit path untouched: the on-the-fly
    /// packer must not skip or zero non-finite input values.
    #[test]
    fn implicit_gemm_propagates_nan_and_inf() {
        let mut rng = ChaCha8Rng::seed_from_u64(81);
        let mut input = Tensor::randn(&[1, 2, 3, 4, 5], 1.0, &mut rng);
        input.data_mut()[7] = f32::NAN;
        input.data_mut()[31] = f32::INFINITY;
        let weight = Tensor::randn(&[3, 2, 3, 3, 3], 1.0, &mut rng);
        let fused = conv3d_implicit_gemm(&input, &weight);
        let chain = conv3d_fma_chain(&input, &weight);
        for (i, (a, b)) in fused.data().iter().zip(chain.data()).enumerate() {
            assert_eq!(
                a.is_nan(),
                b.is_nan(),
                "elem {i}: NaN split from the contract ({a} vs {b})"
            );
            if !a.is_nan() {
                assert_eq!(a.to_bits(), b.to_bits(), "elem {i}: {a} vs {b}");
            }
        }
        assert!(fused.data().iter().any(|v| v.is_nan()), "planted NaN vanished");
    }

    /// IEEE semantics through the conv kernels: a zero weight against an
    /// infinite input must produce NaN (`0 * inf`), not silently skip the
    /// term. Guards the removal of the old zero-skip fast paths.
    #[test]
    fn conv3d_zero_weight_propagates_nan_from_inf_input() {
        let input = Tensor::full(&[1, 1, 2, 2, 2], f32::INFINITY);
        let weight = Tensor::zeros(&[1, 1, 1, 1, 1]);
        for v in conv3d(&input, &weight).data() {
            assert!(v.is_nan(), "0 * inf must be NaN, got {v}");
        }
        // Same law through the input-gradient kernel (grad = w * grad_out).
        let dims = Conv3dDims::infer(&input, &weight);
        let grad_out = Tensor::full(&[1, 1, 2, 2, 2], f32::INFINITY);
        for v in conv3d_grad_input(&grad_out, &weight, dims).data() {
            assert!(v.is_nan(), "0 * inf must be NaN in grad_input, got {v}");
        }
    }

    #[test]
    fn maxpool_forward_and_backward() {
        let input = Tensor::from_vec((0..16).map(|i| i as f32).collect(), &[1, 1, 2, 2, 4]);
        let (out, idx) = maxpool3d(&input, [2, 2, 2]);
        assert_eq!(out.dims(), &[1, 1, 1, 1, 2]);
        // Max over each 2x2x2 block: block0 covers cols 0..2 -> max 13, block1 cols 2..4 -> 15.
        assert_eq!(out.data(), &[13.0, 15.0]);
        let g = Tensor::from_vec(vec![1.0, 2.0], &[1, 1, 1, 1, 2]);
        let gi = maxpool3d_backward(&g, &idx, &[1, 1, 2, 2, 4]);
        assert_eq!(gi.data()[13], 1.0);
        assert_eq!(gi.data()[15], 2.0);
        assert_eq!(gi.sum(), 3.0);
    }

    #[test]
    fn maxpool_anisotropic() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let input = Tensor::randn(&[2, 3, 4, 6, 8], 1.0, &mut rng);
        let (out, _) = maxpool3d(&input, [1, 2, 4]);
        assert_eq!(out.dims(), &[2, 3, 4, 3, 2]);
        // Pooling can only keep values that exist in the input.
        for &v in out.data() {
            assert!(input.data().contains(&v));
        }
    }

    #[test]
    fn maxpool_propagates_nan() {
        // A poisoned window must pool to NaN, not to the max of its healthy
        // elements (and certainly not to -inf for an all-NaN window). Found
        // by the reftest oracle: `>` alone never admits a NaN candidate.
        let mut v = vec![0.0f32; 16];
        v[5] = f32::NAN; // lands in the first 2x2x2 block
        v[10] = 7.0; // healthy max of the second block
        let input = Tensor::from_vec(v, &[1, 1, 2, 2, 4]);
        let (out, idx) = maxpool3d(&input, [2, 2, 2]);
        assert!(out.data()[0].is_nan(), "NaN window must pool to NaN");
        assert_eq!(idx[0], 5, "argmax must point at the NaN");
        assert_eq!(out.data()[1], 7.0, "healthy window unaffected");

        let all_nan = Tensor::from_vec(vec![f32::NAN; 8], &[1, 1, 2, 2, 2]);
        let (out, _) = maxpool3d(&all_nan, [2, 2, 2]);
        assert!(out.data()[0].is_nan(), "all-NaN window must not become -inf");
    }

    #[test]
    fn upsample_then_pool_is_identity_scaled() {
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let input = Tensor::randn(&[1, 2, 2, 2, 2], 1.0, &mut rng);
        let up = upsample_nearest3d(&input, [2, 2, 2]);
        assert_eq!(up.dims(), &[1, 2, 4, 4, 4]);
        // Every 2x2x2 block of `up` is constant, so maxpool inverts it.
        let (back, _) = maxpool3d(&up, [2, 2, 2]);
        assert_close(&back, &input, 1e-6);
    }

    #[test]
    fn upsample_backward_is_adjoint() {
        // <up(x), y> == <x, up_backward(y)> — the defining adjoint property.
        let mut rng = ChaCha8Rng::seed_from_u64(15);
        let x = Tensor::randn(&[1, 1, 2, 3, 2], 1.0, &mut rng);
        let f = [2, 1, 3];
        let y = Tensor::randn(&[1, 1, 4, 3, 6], 1.0, &mut rng);
        let lhs = upsample_nearest3d(&x, f).mul(&y).sum();
        let rhs = x.mul(&upsample_nearest3d_backward(&y, f)).sum();
        assert!((lhs - rhs).abs() < 1e-4, "{lhs} vs {rhs}");
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn maxpool_rejects_indivisible() {
        maxpool3d(&Tensor::zeros(&[1, 1, 3, 4, 4]), [2, 2, 2]);
    }
}
