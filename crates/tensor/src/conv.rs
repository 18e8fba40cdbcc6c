//! 3D convolution, pooling, and upsampling kernels (NCDHW layout).
//!
//! These are the compute-heavy primitives behind the Context Generation
//! Network (the 3D U-Net of paper Fig. 5). All kernels use stride 1 and
//! "same" zero padding with odd kernel sizes, which is exactly what the
//! architecture needs (1×1×1 and 3×3×3 convolutions).
//!
//! There is one lowering, a *fused implicit GEMM* on the blocked driver of
//! [`crate::gemm`](mod@crate::gemm): per batch item `out[co, p] = W[co, :] ·
//! patch[:, p]`, where the `[Cin·kvol, D·H·W]` patch matrix is never built.
//! Its one definition is
//!
//! ```text
//! patch(kidx, p) = xp[koff(kidx) + voff(p)]
//! koff(ci, zd, zh, zw) = ci·volp + (zd·hp + zh)·wp + zw
//! voff(d, h, w)        = (d·hp + h)·wp + w
//! ```
//!
//! over `xp: [Cin, D+2pd, H+2ph, W+2pw]`, a pooled copy of the input with a
//! zero border (`hp`, `wp`, `volp` its plane extents) — so no inner loop
//! tests a border, clamps or divides. A 1×1×1 kernel has no border and `xp`
//! *is* the input. The B-panel packers read `xp` through the two offset
//! maps — except where the patch matrix is the input itself and all of it
//! fits one `NC` slab (1×1×1 over at most `NC` voxels of every batch item
//! together), whose full panels the micro-kernel reads where they lie,
//! packing only a short last panel
//! ([`PackedConv3d::forward_slices`]); the weight-side A panels are a
//! [`PackedConv3d`], packed per call by
//! [`conv3d_auto`] or once by a caller whose weights cannot change.
//! [`conv3d_grad_input`] is the same driver on flipped weights and
//! [`conv3d_grad_weight`] packs the transposed patch matrix from the same
//! maps — except for a pointwise kernel on a vector tier, whose input blocks
//! it transposes once each while `grad_out` is read where it lies
//! ([`crate::thin`]), with the driver's bits. A fully-connected layer over
//! `M` points is the 1×1×1 case over a volume of `M` voxels — activations
//! feature-major `[width, M]`, the weight on the tile's rows — so the
//! decoder's MLP runs on this driver too, on the tape (forward, and both
//! gradients through the two functions above) and off it
//! ([`PackedConv3d::pack_linear`], [`PackedConv3d::forward_slices`]): one
//! weight-panel store.
//!
//! Numerics: every conv output, pointwise included, is one `k`-ordered FMA
//! chain over `(ci, zd, zh, zw)` — border zeros included as `0.0` terms —
//! restarted every `KC` depths and summed across blocks; pinned bit-for-bit
//! against a scalar transcription by the tests here. There is deliberately
//! no zero-skip shortcut on weights, because `0·∞` must produce NaN, not
//! silence. Output buffers and packing scratch come from the
//! [`crate::workspace`] pool, so steady-state calls do not touch the system
//! allocator.

use crate::gemm::{macro_block, pack_a, BSlab, OutputRows, RowMajor, KC, NC};
use crate::simd::{self, transpose_pack, Kernel};
use crate::tensor::Tensor;
use crate::turns::{in_turns, Turns};
use crate::{thin, workspace};
use std::iter::Zip;
use std::ops::Range;
use std::slice::{Chunks, ChunksMut};
use std::time::Instant;

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
        assert_odd(kernel);
        Conv3dDims { n, cin, cout, spatial, kernel }
    }

    /// Voxels per channel of one batch item, `D·H·W`.
    pub fn vol(&self) -> usize {
        self.spatial.iter().product()
    }

    pub(crate) fn kvol(&self) -> usize {
        self.kernel.iter().product()
    }
}

/// Same padding (and the flipped-weight form of the input gradient) is only
/// a convolution for odd kernels. [`Conv3dDims`] has public fields, so every
/// entry point that is handed one checks again.
fn assert_odd(kernel: [usize; 3]) {
    assert!(
        kernel.iter().all(|k| k % 2 == 1),
        "conv3d kernels must be odd for same padding, got {kernel:?}"
    );
}

/// `tab[i] = Σ_j digit_j(start + i) · stride[j]`, the digits those of a
/// mixed-radix counter (`radix[0]` unbounded, last digit fastest): one
/// decomposition of `start`, then an odometer — no division per entry.
fn fill_offsets<const N: usize>(
    tab: &mut [u32],
    start: usize,
    radix: [usize; N],
    stride: [usize; N],
) {
    let (mut digit, mut rest) = ([0usize; N], start);
    for j in (1..N).rev() {
        (digit[j], rest) = (rest % radix[j], rest / radix[j]);
    }
    digit[0] = rest;
    let mut off: usize = digit.iter().zip(&stride).map(|(d, s)| d * s).sum();
    for t in tab {
        *t = off as u32;
        let mut j = N - 1;
        (digit[j], off) = (digit[j] + 1, off + stride[j]);
        while j > 0 && digit[j] == radix[j] {
            (digit[j], off) = (0, off - radix[j] * stride[j]);
            j -= 1;
            (digit[j], off) = (digit[j] + 1, off + stride[j]);
        }
    }
}

/// The zero-bordered input copy `xp: [cin, sd+2pd, sh+2ph, sw+2pw]` of one
/// batch item and the two offset maps that define the implicit patch matrix
/// over it (module doc). With a 1×1×1 kernel the border is empty and `xp`
/// is the input itself.
#[derive(Clone, Copy)]
struct PatchMap {
    spatial: [usize; 3],
    kernel: [usize; 3],
    /// Plane extents of `xp`: padded height, padded width, padded volume.
    hp: usize,
    wp: usize,
    volp: usize,
}

impl PatchMap {
    /// The map of `dims`.
    fn new(dims: &Conv3dDims) -> Self {
        let [sd, sh, sw] = dims.spatial;
        let [kd, kh, kw] = dims.kernel;
        let (hp, wp) = (sh + kh - 1, sw + kw - 1);
        let volp = (sd + kd - 1) * hp * wp;
        assert!(dims.cin * volp <= u32::MAX as usize, "conv3d input too large for u32 offsets");
        PatchMap { spatial: dims.spatial, kernel: dims.kernel, hp, wp, volp }
    }

    /// The pooled `xp` buffer of `cin` channels a padded kernel needs —
    /// zeroed once: [`PatchMap::item`] overwrites the interior, never the
    /// border. `None` for a 1×1×1 kernel.
    fn padded(&self, cin: usize) -> Option<workspace::WorkspaceGuard> {
        (self.kernel != [1; 3]).then(|| workspace::take_zeroed(cin * self.volp))
    }

    /// `tab[i] = koff(k0 + i)`.
    fn fill_koff(&self, tab: &mut [u32], k0: usize) {
        let [kd, kh, kw] = self.kernel;
        fill_offsets(tab, k0, [usize::MAX, kd, kh, kw], [self.volp, self.hp * self.wp, self.wp, 1]);
    }

    /// `tab[i] = voff(p0 + i)`.
    fn fill_voff(&self, tab: &mut [u32], p0: usize) {
        let [_, sh, sw] = self.spatial;
        fill_offsets(tab, p0, [usize::MAX, sh, sw], [self.hp * self.wp, self.wp, 1]);
    }

    /// `xp` of one batch item `x: [cin, sd, sh, sw]`: `x` itself without a
    /// border, else `x` copied into the interior of the zero-bordered `buf`.
    fn item<'a>(
        &self,
        buf: &'a mut Option<workspace::WorkspaceGuard>,
        x: &'a [f32],
        stages: &mut Option<&mut ConvStages>,
    ) -> &'a [f32] {
        let Some(xp) = buf else { return x };
        let [sd, sh, sw] = self.spatial;
        let [pd, ph, pw] = self.kernel.map(|k| k / 2);
        timed(
            stages,
            |s| &mut s.pad_copy_ns,
            || {
                for (xc, pc) in x.chunks_exact(sd * sh * sw).zip(xp.chunks_exact_mut(self.volp)) {
                    for (d, plane) in xc.chunks_exact(sh * sw).enumerate() {
                        let at = ((d + pd) * self.hp + ph) * self.wp + pw;
                        for (row, dst) in plane.chunks_exact(sw).zip(pc[at..].chunks_mut(self.wp)) {
                            dst[..sw].copy_from_slice(row);
                        }
                    }
                }
            },
        );
        xp
    }
}

/// Wall time of the staged forwards and of the weight gradient by stage, for
/// the `unet_encode`, `decode_values`, `conv3d` and `tape_decoder` bench rows
/// (nanoseconds, accumulated over the calls the value is handed to).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ConvStages {
    /// Copying the input into the zero-bordered `xp` (0 for 1×1×1 kernels).
    pub pad_copy_ns: f64,
    /// Packing `grad_out` rows into A panels (the weight gradient's; a
    /// forward's weights are packed before the call).
    pub pack_a_ns: f64,
    /// Packing patch columns (or, for the weight gradient, transposed patch
    /// rows) into B panels.
    pub pack_b_ns: f64,
    /// Micro-kernel tiles and their write-back.
    pub micro_ns: f64,
    /// The in-place bias + activation pass over the output, where the staged
    /// caller owns it (an MLP layer; a conv's is its network's business).
    pub epilogue_ns: f64,
}

/// Runs `work`, adding its wall time to one stage of `S` when someone is
/// timing (no clock is read otherwise) — the one way a staged entry times.
pub fn timed<S, R>(
    stages: &mut Option<&mut S>,
    field: impl FnOnce(&mut S) -> &mut f64,
    work: impl FnOnce() -> R,
) -> R {
    let Some(stages) = stages.as_deref_mut() else { return work() };
    let t = Instant::now();
    let out = work();
    *field(stages) += t.elapsed().as_secs_f64() * 1e9;
    out
}

/// Packs one forward B panel: row `i` (depth `koff[i]`) holds the patch
/// values of the `voff.len() <= nr` output voxels of this panel, zero-padded
/// to `nr`. Consecutive voxels of one output row `(d, h)` are consecutive in
/// `xp`, so a panel row is a few contiguous runs, the same in every row.
///
/// The runs are found once per panel and cut into moves of one fixed width
/// — the widest of 8, 4, 2, 1 lanes that fits the shortest run, a run's last
/// move pulled back to end at its end (overlapping its predecessor when the
/// width does not divide the length). A U-Net encode copies tens of
/// thousands of `sw`-long runs; as variable-length `copy_from_slice` each is
/// a libc `memcpy` call that costs more than the bytes it moves.
fn pack_patch_panel(panel: &mut [f32], nr: usize, xp: &[f32], koff: &[u32], voff: &[u32]) {
    /// One row per depth, `moves` = (column, offset into `xp`) pairs.
    fn rows<const W: usize>(
        panel: &mut [f32],
        nr: usize,
        xp: &[f32],
        koff: &[u32],
        moves: &[(u32, u32)],
    ) {
        for (row, &k) in panel.chunks_exact_mut(nr).zip(koff) {
            for &(at, v) in moves {
                let (at, from) = (at as usize, (k + v) as usize);
                row[at..at + W].copy_from_slice(&xp[from..from + W]);
            }
        }
    }
    let cols = voff.len();
    if cols < nr {
        panel.fill(0.0);
    }
    // Runs of consecutive offsets: (first column, length).
    let mut runs = [(0usize, 0usize); simd::MAX_NR];
    let (mut n_runs, mut shortest) = (0, usize::MAX);
    let mut j = 0;
    while j < cols {
        let start = j;
        j += 1;
        while j < cols && voff[j] == voff[j - 1] + 1 {
            j += 1;
        }
        runs[n_runs] = (start, j - start);
        n_runs += 1;
        shortest = shortest.min(j - start);
    }
    let width = [8, 4, 2, 1].into_iter().find(|&w| w <= shortest).unwrap_or(1);
    let mut moves = [(0u32, 0u32); simd::MAX_NR];
    let mut n_moves = 0;
    for &(start, len) in &runs[..n_runs] {
        for i in 0..len.div_ceil(width) {
            let at = start + (i * width).min(len - width);
            moves[n_moves] = (at as u32, voff[at]);
            n_moves += 1;
        }
    }
    let moves = &moves[..n_moves];
    match width {
        8 => rows::<8>(panel, nr, xp, koff, moves),
        4 => rows::<4>(panel, nr, xp, koff, moves),
        2 => rows::<2>(panel, nr, xp, koff, moves),
        _ => rows::<1>(panel, nr, xp, koff, moves),
    }
}

/// A conv weight `[Cout, Cin, kd, kh, kw]` packed once into the A panels of
/// the implicit GEMM: per `KC`-deep slab of the `[Cout, Cin·kvol]` matrix,
/// `mr`-row panels column-major over depth, zero-padded edge rows, 64-byte
/// aligned — what [`conv3d_auto`] builds on every call. A caller whose
/// weights cannot change (a frozen model) packs once and calls
/// [`PackedConv3d::forward`]: same panels, same micro-kernel, same `KC`
/// split, bit-identical output. A `Linear` weight is the 1×1×1 case
/// ([`PackedConv3d::pack_linear`]), so an MLP layer and a pointwise conv are
/// one store and one driver.
///
/// The kernel (tile shape) is captured at pack time and kept for the panels'
/// lifetime, so a later [`crate::set_backend_override`] never desynchronizes
/// layout and micro-kernel.
pub struct PackedConv3d {
    cin: usize,
    cout: usize,
    kernel: [usize; 3],
    tile: &'static Kernel,
    /// Panel storage from the [`crate::workspace`] pool (per-call packing
    /// must not allocate), cache-line aligned.
    panels: workspace::WorkspaceGuard,
}

// Hand-written: neither the panels nor the kernel's fn table are worth printing.
impl std::fmt::Debug for PackedConv3d {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (cin, cout, backend) = (self.cin, self.cout, self.tile.backend.name());
        write!(f, "PackedConv3d({cin} -> {cout}, kernel {:?}, {backend})", self.kernel)
    }
}

impl PackedConv3d {
    /// Packs `weight: [Cout, Cin, kd, kh, kw]`. `vol` is the output voxel
    /// count `D·H·W` the panels will mostly run at; it only picks the tile
    /// shape, every tile gives the same bits at any input extent.
    ///
    /// # Panics
    /// Panics on a weight that is not rank 5 or has an even kernel extent.
    pub fn pack(weight: &Tensor, vol: usize) -> Self {
        assert_eq!(weight.shape().rank(), 5, "conv3d weight must be [Co,Ci,kd,kh,kw]");
        let d = weight.dims();
        Self::pack_rows(weight.data(), d[0], d[1], [d[2], d[3], d[4]], vol)
    }

    /// Packs a `Linear` weight `w: [out_features, in_features]`: the 1×1×1
    /// conv it is over a volume of points, applied to feature-major
    /// activations by [`PackedConv3d::forward_slices`]. How many points a
    /// call will bring is not known here, so the tile is the one a full
    /// `NC`-column slab of the driver picks.
    ///
    /// # Panics
    /// Panics if `w` is not `out_features · in_features` long.
    pub fn pack_linear(w: &[f32], out_features: usize, in_features: usize) -> Self {
        assert_eq!(w.len(), out_features * in_features, "linear weight length mismatch");
        Self::pack_rows(w, out_features, in_features, [1, 1, 1], NC)
    }

    /// Packs the weight [`conv3d_grad_input`] runs the forward driver on:
    /// `weight: [Cout, Cin, kd, kh, kw]` (per `dims`) with input and output
    /// channels swapped and every kernel axis flipped — for a `Linear`
    /// weight, its transpose, whose [`PackedConv3d::forward_columns`] are
    /// column slabs of the layer's input gradient.
    ///
    /// # Panics
    /// Panics on an even kernel extent or a weight that disagrees with `dims`.
    pub fn pack_flipped(weight: &[f32], dims: Conv3dDims) -> Self {
        assert_odd(dims.kernel);
        let kvol = dims.kvol();
        assert_eq!(weight.len(), dims.cout * dims.cin * kvol, "conv3d weight length mismatch");
        let mut wf = workspace::take_scratch(dims.cin * dims.cout * kvol);
        for co in 0..dims.cout {
            for ci in 0..dims.cin {
                let src = &weight[(co * dims.cin + ci) * kvol..][..kvol];
                let dst = &mut wf[(ci * dims.cout + co) * kvol..][..kvol];
                for (d, s) in dst.iter_mut().zip(src.iter().rev()) {
                    *d = *s;
                }
            }
        }
        Self::pack_rows(&wf, dims.cin, dims.cout, dims.kernel, dims.vol())
    }

    /// Packs the `[cout, cin·kvol]` row-major matrix `w`.
    fn pack_rows(w: &[f32], cout: usize, cin: usize, kernel: [usize; 3], vol: usize) -> Self {
        assert_odd(kernel);
        let ksize = cin * kernel.iter().product::<usize>();
        let tile = simd::active_kernel_for(cout, vol);
        let rows = cout.div_ceil(tile.mr) * tile.mr;
        let mut panels = workspace::take_scratch(rows * ksize);
        for (pc, slab) in (0..ksize).step_by(KC).zip(panels.chunks_mut(rows * KC)) {
            pack_a(tile.mr, slab, w, ksize, cout, pc, KC.min(ksize - pc));
        }
        PackedConv3d { cin, cout, kernel, tile, panels }
    }

    /// Forward 3D convolution with stride 1 and same zero padding:
    /// `input: [N, Cin, D, H, W]` → `[N, Cout, D, H, W]`, bit-identical to
    /// [`conv3d_auto`] on the unpacked weight.
    ///
    /// # Panics
    /// Panics on a rank or channel mismatch.
    pub fn forward(&self, input: &Tensor) -> Tensor {
        self.forward_staged(input, None)
    }

    /// [`PackedConv3d::forward`], adding each stage's wall time to `stages`
    /// when given (the bench's attribution hook; `None` reads no clock).
    pub fn forward_staged(&self, input: &Tensor, stages: Option<&mut ConvStages>) -> Tensor {
        assert_eq!(input.shape().rank(), 5, "conv3d input must be [N,C,D,H,W]");
        let d = input.dims();
        assert_eq!(d[1], self.cin, "conv3d channel mismatch: input {}, weight {}", d[1], self.cin);
        let out_dims = [d[0], self.cout, d[2], d[3], d[4]];
        let mut out = workspace::take_scratch(out_dims.iter().product());
        self.forward_slices(input.data(), [d[2], d[3], d[4]], &mut out, stages);
        Tensor::from_guard(out, &out_dims)
    }

    /// The implicit-GEMM driver on slices, for callers that keep their own
    /// buffers (the decoder's ping-pong block buffers, where an MLP layer
    /// over `M` points is this with `spatial = [1, 1, M]`): `x: [n, cin,
    /// vol]` → `out: [n, cout, vol]`, fully overwritten. `stages` as in
    /// [`PackedConv3d::forward_staged`].
    ///
    /// A 1×1×1 kernel whose whole operand — every batch item's columns —
    /// fits one `NC` slab reads its B operand in place: the patch matrix is
    /// then `x` itself, row-major `[cin, vol]` per item, and all of it is the
    /// one slab the driver would copy, so each full `nr`-column panel goes to
    /// the micro-kernel where it lies (rows `vol` apart) and only a short
    /// last panel is packed. Larger operands — the tape's layers over every
    /// lane of a batch, a training batch of patches — keep packing slab by
    /// slab, where a packed panel streams from L1 and a strided one would
    /// not. Either way every output is the same FMA chain over the same
    /// values: the bits do not depend on which panels were packed.
    ///
    /// # Panics
    /// Panics if the slices are not the same number of `[cin, vol]` and
    /// `[cout, vol]` items.
    pub fn forward_slices(
        &self,
        x: &[f32],
        spatial: [usize; 3],
        out: &mut [f32],
        stages: Option<&mut ConvStages>,
    ) {
        self.forward_items(1, x, spatial, out, stages);
    }

    /// [`PackedConv3d::forward_slices`] on `workers` threads taking turns at
    /// the batch items (`crate::in_turns`), each worker packing in buffers
    /// of its own, made before any turn starts: every item is its own pass
    /// whichever thread takes it, so the bits are those of one worker.
    ///
    /// # Panics
    /// As [`PackedConv3d::forward_slices`].
    pub fn forward_in_turns(
        &self,
        workers: usize,
        x: &[f32],
        spatial: [usize; 3],
        out: &mut [f32],
    ) {
        self.forward_items(workers, x, spatial, out, None);
    }

    /// The item loop of [`PackedConv3d::forward_in_turns`], the caller's
    /// turns timed into `stages`.
    fn forward_items(
        &self,
        workers: usize,
        x: &[f32],
        spatial: [usize; 3],
        out: &mut [f32],
        stages: Option<&mut ConvStages>,
    ) {
        let vol: usize = spatial.iter().product();
        let n = out.len() / (self.cout * vol);
        assert_eq!(out.len(), n * self.cout * vol, "conv3d output length mismatch");
        assert_eq!(x.len(), n * self.cin * vol, "conv3d input length mismatch");
        let dims = Conv3dDims { n, cin: self.cin, cout: self.cout, spatial, kernel: self.kernel };
        if self.cin * dims.kvol() == 0 {
            return out.fill(0.0); // an empty sum; the `pc` loop would store nothing
        }
        let map = PatchMap::new(&dims);
        // Full panels read in place (only ever in the first and only slab),
        // only a short last one packed.
        let in_place = dims.kvol() == 1 && n * vol <= NC;
        let ksize = self.cin * dims.kvol();
        let nr = self.tile.nr;
        let b_len = if in_place { vol % nr } else { NC.min(vol) }.div_ceil(nr) * nr * KC.min(ksize);
        // A worker's padded input copy and B panels.
        type Scratch = (Option<workspace::WorkspaceGuard>, workspace::WorkspaceGuard);
        type Items<'a> = Turns<Zip<ChunksMut<'a, f32>, Chunks<'a, f32>>>;
        let scratch = || (map.padded(self.cin), workspace::take_scratch(b_len));
        let work = |(xp_buf, b_pack): &mut Scratch,
                    items: &Items<'_>,
                    mut stages: Option<&mut ConvStages>| {
            for (oslab, x) in items {
                let xp = map.item(xp_buf, x, &mut stages);
                let mut out = RowMajor { rows: oslab, ld: vol };
                self.columns(&map, xp, 0..vol, in_place, &mut out, b_pack, &mut stages);
            }
        };
        let items = out.chunks_mut(self.cout * vol).zip(x.chunks(self.cin * vol));
        in_turns(workers, items, scratch, |s, t| work(s, t, stages), |s, t| work(s, t, None));
    }

    /// Columns `cols` of the pointwise (1×1×1) forward over `x: [cin, vol]`
    /// into `out` ([`OutputRows`]: row `r` from column `cols.start` on),
    /// packing B in `scratch` (at least [`PackedConv3d::columns_scratch`]
    /// of the range's width) rather than in buffers of the workspace pool.
    /// The driver's column-slab loop over that range alone, so calls on
    /// disjoint ranges may run on different threads (the tape's layer node
    /// takes them in turns) — every column the same FMA chain, the bits of
    /// [`PackedConv3d::forward_slices`] over all of `x`.
    ///
    /// # Panics
    /// Panics on a kernel that is not 1×1×1, a range past `vol`, an `out`
    /// row that cannot hold the range, or a short `scratch`.
    pub fn forward_columns(
        &self,
        x: &[f32],
        cols: Range<usize>,
        out: &mut impl OutputRows,
        scratch: &mut [f32],
    ) {
        assert_eq!(self.kernel, [1; 3], "a column range of a pointwise layer");
        let vol = x.len() / self.cin.max(1);
        assert_eq!(x.len(), self.cin * vol, "conv3d input length mismatch");
        assert!(cols.start <= cols.end && cols.end <= vol, "columns {cols:?} of {vol}");
        let dims = Conv3dDims {
            n: 1,
            cin: self.cin,
            cout: self.cout,
            spatial: [1, 1, vol],
            kernel: [1; 3],
        };
        let map = PatchMap::new(&dims);
        self.columns(&map, x, cols, vol <= NC, out, scratch, &mut None);
    }

    /// The scratch [`PackedConv3d::forward_columns`] packs B in, for ranges
    /// of up to `width` columns.
    pub fn columns_scratch(&self, width: usize) -> usize {
        let ksize = self.cin * self.kernel.iter().product::<usize>();
        NC.min(width).div_ceil(self.tile.nr) * self.tile.nr * KC.min(ksize)
    }

    /// The driver's column-slab loop over columns `cols` of one item's
    /// implicit patch matrix `xp` (`vol` columns, `map`), writing `out`'s
    /// rows from the range's first column on. With `in_place`, each
    /// slab's full B panels are read where they lie in `xp` and only a
    /// short last panel is packed. B is packed in `scratch`.
    #[allow(clippy::too_many_arguments)]
    fn columns(
        &self,
        map: &PatchMap,
        xp: &[f32],
        cols: Range<usize>,
        in_place: bool,
        out: &mut impl OutputRows,
        scratch: &mut [f32],
        stages: &mut Option<&mut ConvStages>,
    ) {
        let vol: usize = map.spatial.iter().product();
        let ksize = self.cin * self.kernel.iter().product::<usize>();
        let (mr, nr) = (self.tile.mr, self.tile.nr);
        let a_rows = self.cout.div_ceil(mr) * mr;
        let (mut koff, mut voff) = ([0u32; KC], [0u32; NC]);
        for jc in cols.clone().step_by(NC) {
            let nb = NC.min(cols.end - jc);
            map.fill_voff(&mut voff[..nb], jc);
            let full = if in_place { nb / nr } else { 0 };
            let packed = &voff[full * nr..nb];
            let mut a_at = 0;
            for pc in (0..ksize).step_by(KC) {
                let kb = KC.min(ksize - pc);
                map.fill_koff(&mut koff[..kb], pc);
                let b_pack = &mut scratch[..packed.len().div_ceil(nr) * nr * kb];
                if !packed.is_empty() {
                    timed(
                        stages,
                        |s| &mut s.pack_b_ns,
                        || {
                            let cols = packed.chunks(nr);
                            for (panel, cols) in b_pack.chunks_exact_mut(nr * kb).zip(cols) {
                                pack_patch_panel(panel, nr, xp, &koff[..kb], cols);
                            }
                        },
                    );
                }
                let b = if full > 0 {
                    let edge = (!packed.is_empty()).then_some(&b_pack[..]);
                    BSlab::in_place(&xp[pc * vol + jc..], full, nr, vol, edge)
                } else {
                    BSlab::packed(b_pack, nr, kb)
                };
                let a_pack = &self.panels[a_at..a_at + a_rows * kb];
                let (tile, cout, first, at) = (self.tile, self.cout, pc == 0, jc - cols.start);
                timed(
                    stages,
                    |s| &mut s.micro_ns,
                    || macro_block(tile, a_pack, b, out, cout, kb, nb, at, first),
                );
                a_at += a_rows * kb;
            }
        }
    }
}

/// Forward 3D convolution with stride 1 and same zero padding — the one
/// forward entry point (the autodiff tape and the live model call it):
/// `input: [N, Cin, D, H, W]`, `weight: [Cout, Cin, kd, kh, kw]` →
/// `[N, Cout, D, H, W]`. Packs the weight for this call and keeps nothing.
pub fn conv3d_auto(input: &Tensor, weight: &Tensor) -> Tensor {
    let dims = Conv3dDims::infer(input, weight);
    PackedConv3d::pack(weight, dims.vol()).forward(input)
}

/// Gradient of [`conv3d_auto`] with respect to its input:
/// `grad_out: [N, Cout, D, H, W]` and `weight: [Cout, Cin, kd, kh, kw]` as
/// slices → `[N, Cin, D, H, W]`.
///
/// For stride-1 same-padding convolution with odd kernels, `∂L/∂x` is
/// itself a same-padding convolution of `grad_out` against the weight with
/// input/output channels swapped and every kernel axis flipped:
/// `W'[ci, co, z] = W[co, ci, flip(z)]`. The flipped weight (a few KiB) is
/// packed once per call ([`PackedConv3d::pack_flipped`]) and run through the
/// forward driver.
///
/// # Panics
/// Panics on an even kernel extent or a slice that disagrees with `dims`.
pub fn conv3d_grad_input(grad_out: &[f32], weight: &[f32], dims: Conv3dDims) -> Tensor {
    let [sd, sh, sw] = dims.spatial;
    assert_eq!(grad_out.len(), dims.n * dims.cout * dims.vol(), "conv3d grad_out length mismatch");
    let mut out = workspace::take_scratch(dims.n * dims.cin * dims.vol());
    PackedConv3d::pack_flipped(weight, dims).forward_slices(grad_out, dims.spatial, &mut out, None);
    Tensor::from_guard(out, &[dims.n, dims.cin, sd, sh, sw])
}

/// Gradient of [`conv3d_auto`] with respect to its weights, from `input:
/// [N, Cin, D, H, W]` and `grad_out: [N, Cout, D, H, W]` as slices; returns
/// `[Cout, Cin, kd, kh, kw]`.
///
/// Per batch item `n`, `∂L/∂W[co, kidx] += grad_out_n[co, :] ·
/// patchᵀ_n[:, kidx]` — a `[Cout, vol] × [vol, Cin·kvol]` GEMM whose
/// right-hand side is the *transposed* implicit patch matrix. The depth
/// dimension is the voxel count, so every element is one FMA chain in voxel
/// order from +0 per `KC` voxel block, the blocks and then the batch items
/// added in order — on two arms with those bits:
///
/// - a pointwise kernel (1×1×1: every tape `Linear` layer and the U-Net's
///   1×1×1 convs), on a tier whose thin tile takes it, transposes each block
///   of the input once and broadcasts `grad_out` from where it lies
///   (`thin::pointwise_grad_weight_block`; stages `pack_b` and `micro`);
/// - any other (and every kernel on the portable tier) runs the packed
///   driver (`packed_grad_weight_block`).
///
/// `stages` as in [`PackedConv3d::forward_staged`], with the A pack timed
/// apart.
///
/// # Panics
/// Panics on an even kernel extent or a slice that disagrees with `dims`.
pub fn conv3d_grad_weight(
    input: &[f32],
    grad_out: &[f32],
    dims: Conv3dDims,
    stages: Option<&mut ConvStages>,
) -> Tensor {
    let dw = GradWeight::new(input, grad_out, dims);
    let mut out = workspace::take_scratch(dw.len());
    dw.in_order(&mut out, stages);
    dw.into_tensor(out)
}

/// [`conv3d_grad_weight`] on `workers` threads: each `(item, KC-block)`
/// term of the sum is a turn (`crate::in_turns`) that computes it from +0
/// into a buffer of its own (the first term into the output), packing in
/// its worker's buffers, which are made before any turn starts; then the
/// caller adds the terms in order, item after item, block after block. The
/// one-thread gradient adds each term's chain to the output in that order
/// too (`*o + v`), so the bits are the same on any count. On one worker, or
/// for one block, it is [`conv3d_grad_weight`].
///
/// # Panics
/// As [`conv3d_grad_weight`].
pub fn conv3d_grad_weight_in_turns(
    workers: usize,
    input: &[f32],
    grad_out: &[f32],
    dims: Conv3dDims,
) -> Tensor {
    let dw = GradWeight::new(input, grad_out, dims);
    let (len, blocks) = (dw.len(), dw.blocks());
    let mut out = workspace::take_scratch(len);
    if workers == 1 || blocks < 2 {
        dw.in_order(&mut out, None);
        return dw.into_tensor(out);
    }
    let mut terms = workspace::take_scratch((blocks - 1) * len);
    let dests = std::iter::once(&mut out[..]).chain(terms.chunks_exact_mut(len));
    let take = |s: &mut GradWeightScratch, turns: &Turns<_>| {
        for (block, dest) in turns {
            dw.block(s, block, dest, true, &mut None);
        }
    };
    in_turns(workers, (0..blocks).zip(dests), || dw.scratch(), take, take);
    for term in terms.chunks_exact(len) {
        for (o, &v) in out.iter_mut().zip(term) {
            *o += v;
        }
    }
    dw.into_tensor(out)
}

/// One weight gradient's operands and arm, as blocks: block `b` is the
/// `KC`-voxel block `b % per_item` of batch item `b / per_item`, whose
/// `[Cout, Cin·kvol]` term is one FMA chain per element from +0.
struct GradWeight<'a> {
    input: &'a [f32],
    grad_out: &'a [f32],
    dims: Conv3dDims,
    arm: GradWeightArm,
}

/// How a [`GradWeight`] block runs: the thin tile of a pointwise kernel,
/// or the packed driver's tile over the patch map.
#[derive(Clone, Copy)]
enum GradWeightArm {
    Pointwise(simd::ThinKernel),
    Packed(&'static Kernel, PatchMap),
}

/// One worker's buffers for [`GradWeight`] blocks: the zero-bordered input
/// copy of a padded kernel and the item it holds, the A panels (the packed
/// arm's) and the B panels (the pointwise arm's transposed block).
struct GradWeightScratch {
    xp: Option<workspace::WorkspaceGuard>,
    xp_item: Option<usize>,
    a: Option<workspace::WorkspaceGuard>,
    b: workspace::WorkspaceGuard,
}

impl<'a> GradWeight<'a> {
    /// The gradient of `dims`, on the arm its kernel and the tier take.
    fn new(input: &'a [f32], grad_out: &'a [f32], dims: Conv3dDims) -> Self {
        assert_odd(dims.kernel);
        let vol = dims.vol();
        assert_eq!(input.len(), dims.n * dims.cin * vol, "conv3d input length mismatch");
        assert_eq!(grad_out.len(), dims.n * dims.cout * vol, "conv3d grad_out length mismatch");
        let tile = simd::thin_kernel();
        let arm = if dims.kvol() == 1 && tile.grad_weight {
            GradWeightArm::Pointwise(tile)
        } else {
            let kernel = simd::active_kernel_for(dims.cout, dims.cin * dims.kvol());
            GradWeightArm::Packed(kernel, PatchMap::new(&dims))
        };
        GradWeight { input, grad_out, dims, arm }
    }

    /// Elements of the gradient, `Cout·Cin·kvol`.
    fn len(&self) -> usize {
        self.dims.cout * self.dims.cin * self.dims.kvol()
    }

    /// `KC`-voxel blocks of all batch items.
    fn blocks(&self) -> usize {
        self.dims.n * self.dims.vol().div_ceil(KC)
    }

    /// Buffers for one worker's blocks, from the workspace pool.
    fn scratch(&self) -> GradWeightScratch {
        let (dims, kb) = (&self.dims, KC.min(self.dims.vol()));
        match self.arm {
            GradWeightArm::Pointwise(tile) => GradWeightScratch {
                xp: None,
                xp_item: None,
                a: None,
                b: thin::pointwise_panel(tile, *dims),
            },
            GradWeightArm::Packed(kernel, map) => {
                let (mr, nr) = (kernel.mr, kernel.nr);
                let nb = NC.min(dims.cin * dims.kvol());
                GradWeightScratch {
                    xp: map.padded(dims.cin),
                    xp_item: None,
                    a: Some(workspace::take_scratch(dims.cout.div_ceil(mr) * mr * kb)),
                    b: workspace::take_scratch(nb.div_ceil(nr) * nr * kb),
                }
            }
        }
    }

    /// Every block in order into `out`, the first written, the rest added.
    fn in_order(&self, out: &mut [f32], mut stages: Option<&mut ConvStages>) {
        let mut s = self.scratch();
        for block in 0..self.blocks() {
            self.block(&mut s, block, out, block == 0, &mut stages);
        }
    }

    /// Block `block`'s term into `out: [Cout, Cin·kvol]`, written when
    /// `first`, else added, in `s`'s buffers.
    fn block(
        &self,
        s: &mut GradWeightScratch,
        block: usize,
        out: &mut [f32],
        first: bool,
        stages: &mut Option<&mut ConvStages>,
    ) {
        let dims = &self.dims;
        let (vol, per_item) = (dims.vol(), dims.vol().div_ceil(KC));
        let (item, p0) = (block / per_item, block % per_item * KC);
        let x = &self.input[item * dims.cin * vol..][..dims.cin * vol];
        let gn = &self.grad_out[item * dims.cout * vol..][..dims.cout * vol];
        match self.arm {
            GradWeightArm::Pointwise(tile) => thin::pointwise_grad_weight_block(
                tile, x, gn, *dims, p0, &mut s.b, out, first, stages,
            ),
            GradWeightArm::Packed(kernel, map) => {
                if s.xp_item != Some(item) {
                    s.xp_item = Some(item);
                    map.item(&mut s.xp, x, stages);
                }
                let xp = s.xp.as_deref().unwrap_or(x);
                let a_pack = s.a.as_deref_mut().expect("the packed arm packs A");
                packed_grad_weight_block(
                    kernel, &map, xp, gn, *dims, p0, a_pack, &mut s.b, out, first, stages,
                );
            }
        }
    }

    /// `out` as the gradient tensor, `[Cout, Cin, kd, kh, kw]`.
    fn into_tensor(self, out: workspace::WorkspaceGuard) -> Tensor {
        let [kd, kh, kw] = self.dims.kernel;
        Tensor::from_guard(out, &[self.dims.cout, self.dims.cin, kd, kh, kw])
    }
}

/// One block of [`conv3d_grad_weight`] on the packed driver: voxels `pc..`
/// (up to `KC`) of one item's patch matrix over `xp` and of its `grad_out`
/// rows `gn: [Cout, vol]`, into `out: [Cout, Cin·kvol]`, written when
/// `first`, else added. B-panel element `(p, kidx)` is `xp[koff(kidx) +
/// voff(p)]`, read through the same two offset maps as the forward pack.
/// Both operands are transposed while packed, by the one transposing pack
/// (`simd::transpose_pack`): the block's `grad_out` columns into the A
/// panels `a_pack` (`pack_a`), and each B panel in `b_pack` from its `nr`
/// patch columns — source rows `xp[koff(kidx) + ..]` — along the runs of
/// consecutive `voff` (one run of `kb` voxels for a 1×1×1 kernel, runs of
/// the output row length `sw` otherwise).
#[allow(clippy::too_many_arguments)]
fn packed_grad_weight_block(
    kernel: &Kernel,
    map: &PatchMap,
    xp: &[f32],
    gn: &[f32],
    dims: Conv3dDims,
    pc: usize,
    a_pack: &mut [f32],
    b_pack: &mut [f32],
    out: &mut [f32],
    first: bool,
    stages: &mut Option<&mut ConvStages>,
) {
    let (vol, ksize) = (dims.vol(), dims.cin * dims.kvol());
    let (mr, nr) = (kernel.mr, kernel.nr);
    let kb = KC.min(vol - pc);
    let (mut koff, mut voff) = ([0u32; NC], [0u32; KC]);
    map.fill_voff(&mut voff[..kb], pc);
    let a_pack = &mut a_pack[..dims.cout.div_ceil(mr) * mr * kb];
    timed(stages, |s| &mut s.pack_a_ns, || pack_a(mr, a_pack, gn, vol, dims.cout, pc, kb));
    for jc in (0..ksize).step_by(NC) {
        let nb = NC.min(ksize - jc);
        map.fill_koff(&mut koff[..nb], jc);
        let b_pack = &mut b_pack[..nb.div_ceil(nr) * nr * kb];
        timed(
            stages,
            |s| &mut s.pack_b_ns,
            || pack_patch_rows(b_pack, nr, xp, &koff[..nb], &voff[..kb]),
        );
        let b = BSlab::packed(b_pack, nr, kb);
        timed(
            stages,
            |s| &mut s.micro_ns,
            || {
                let mut out = RowMajor { rows: &mut *out, ld: ksize };
                macro_block(kernel, a_pack, b, &mut out, dims.cout, kb, nb, jc, first)
            },
        );
    }
}

/// Packs the weight gradient's B panels, the transposed patch matrix: panel
/// `pj` holds patch columns `koff[pj·nr..]` at `panel[p·nr + j] =
/// xp[koff[pj·nr + j] + voff[p]]`, zero-padded to `nr` columns — one
/// transposing pack per panel along the runs of consecutive `voff`.
fn pack_patch_rows(b_pack: &mut [f32], nr: usize, xp: &[f32], koff: &[u32], voff: &[u32]) {
    let runs = voxel_runs(voff).map(|(p, len)| (p, voff[p] as usize, len));
    for (panel, ks) in b_pack.chunks_exact_mut(nr * voff.len()).zip(koff.chunks(nr)) {
        if ks.len() < nr {
            panel.fill(0.0);
        }
        transpose_pack(panel, nr, xp, ks, runs.clone());
    }
}

/// The runs of consecutive offsets in `voff` (the voxels of one output row
/// are consecutive in `xp`), as `(first index, length)`, in order.
fn voxel_runs(voff: &[u32]) -> impl Iterator<Item = (usize, usize)> + Clone + '_ {
    let mut start = 0;
    std::iter::from_fn(move || {
        let rest = voff.get(start..).filter(|rest| !rest.is_empty())?;
        let len = 1 + rest.windows(2).take_while(|w| w[1] == w[0] + 1).count();
        start += len;
        Some((start - len, len))
    })
}

/// The window loop of non-overlapping 3D max pooling over `input:
/// [N, C, D, H, W]`: calls `emit(output index, max, flat argmax into the
/// input)` once per output element, in output order.
fn pool_windows(input: &Tensor, factors: [usize; 3], mut emit: impl FnMut(usize, f32, usize)) {
    assert_eq!(input.shape().rank(), 5, "maxpool3d input must be [N,C,D,H,W]");
    let [fd, fh, fw] = factors;
    let (d, h, w) = (input.dims()[2], input.dims()[3], input.dims()[4]);
    assert!(
        d % fd == 0 && h % fh == 0 && w % fw == 0,
        "maxpool3d: dims [{d},{h},{w}] not divisible by factors {factors:?}"
    );
    let (od, oh, ow) = (d / fd, h / fh, w / fw);
    let x = input.data();
    let mut oi = 0;
    for base in (0..x.len()).step_by(d * h * w) {
        // `base` is the start of one (n, c) slab of the input.
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
                    emit(oi, best, best_i);
                    oi += 1;
                }
            }
        }
    }
}

fn pooled_dims(input: &Tensor, [fd, fh, fw]: [usize; 3]) -> [usize; 5] {
    let d = input.dims();
    [d[0], d[1], d[2] / fd, d[3] / fh, d[4] / fw]
}

/// Non-overlapping 3D max pooling by integer factors `[fd, fh, fw]`.
///
/// Returns the pooled tensor and the flat argmax index (into the input
/// buffer) per output element, for use by the backward pass.
///
/// # Panics
/// Panics if a spatial extent is not divisible by its factor.
pub fn maxpool3d(input: &Tensor, factors: [usize; 3]) -> (Tensor, Vec<u32>) {
    let dims = pooled_dims(input, factors);
    let numel = dims.iter().product();
    let mut buf = workspace::take_scratch(numel);
    let out: &mut [f32] = &mut buf;
    let mut idx = vec![0u32; numel];
    pool_windows(input, factors, |oi, best, best_i| {
        out[oi] = best;
        idx[oi] = best_i as u32;
    });
    (Tensor::from_guard(buf, &dims), idx)
}

/// [`maxpool3d`] without the argmax vector, for callers that never run the
/// backward pass (the no-grad encode): same windows, same NaN-sticky max.
pub fn maxpool3d_values(input: &Tensor, factors: [usize; 3]) -> Tensor {
    let dims = pooled_dims(input, factors);
    let mut buf = workspace::take_scratch(dims.iter().product());
    let out: &mut [f32] = &mut buf;
    pool_windows(input, factors, |oi, best, _| out[oi] = best);
    Tensor::from_guard(buf, &dims)
}

/// Backward of [`maxpool3d`]: scatters output gradients to the recorded
/// argmax positions. `input_numel` is the element count of the pooled input.
pub fn maxpool3d_backward(grad_out: &Tensor, indices: &[u32], input_dims: &[usize]) -> Tensor {
    let numel: usize = input_dims.iter().product();
    assert_eq!(grad_out.numel(), indices.len());
    let mut buf = workspace::take_zeroed(numel);
    let grad_in: &mut [f32] = &mut buf;
    for (&g, &i) in grad_out.data().iter().zip(indices) {
        grad_in[i as usize] += g;
    }
    Tensor::from_guard(buf, input_dims)
}

/// Nearest-neighbor 3D upsampling by integer factors `[fd, fh, fw]`.
pub fn upsample_nearest3d(input: &Tensor, factors: [usize; 3]) -> Tensor {
    assert_eq!(input.shape().rank(), 5, "upsample3d input must be [N,C,D,H,W]");
    let [fd, fh, fw] = factors;
    let (n, c) = (input.dims()[0], input.dims()[1]);
    let (d, h, w) = (input.dims()[2], input.dims()[3], input.dims()[4]);
    let (od, oh, ow) = (d * fd, h * fh, w * fw);
    let mut out = workspace::take_scratch(n * c * od * oh * ow);
    // Walk the input; the output rows it replicates into come in memory
    // order, so nothing divides: plane `fd` times, row `fh` times, element
    // `fw` times.
    let mut orows = out.chunks_exact_mut(ow);
    for plane in input.data().chunks_exact(h * w) {
        for _ in 0..fd {
            for irow in plane.chunks_exact(w) {
                for orow in orows.by_ref().take(fh) {
                    for (o, &v) in orow.chunks_exact_mut(fw).zip(irow) {
                        o.fill(v);
                    }
                }
            }
        }
    }
    Tensor::from_guard(out, &[n, c, od, oh, ow])
}

/// Backward of [`upsample_nearest3d`]: sums gradients over each upsampled
/// block (the adjoint of replication).
pub fn upsample_nearest3d_backward(grad_out: &Tensor, factors: [usize; 3]) -> Tensor {
    let [fd, fh, fw] = factors;
    let (n, c) = (grad_out.dims()[0], grad_out.dims()[1]);
    let (od, oh, ow) = (grad_out.dims()[2], grad_out.dims()[3], grad_out.dims()[4]);
    assert!(od % fd == 0 && oh % fh == 0 && ow % fw == 0);
    let (d, h, w) = (od / fd, oh / fh, ow / fw);
    let mut out = workspace::take_zeroed(n * c * d * h * w);
    // The mirror walk of the forward: each input element sums its block in
    // the order (zd, zh, zw).
    let mut grows = grad_out.data().chunks_exact(ow);
    for plane in out.chunks_exact_mut(h * w) {
        for _ in 0..fd {
            for irow in plane.chunks_exact_mut(w) {
                for grow in grows.by_ref().take(fh) {
                    for (acc, gs) in irow.iter_mut().zip(grow.chunks_exact(fw)) {
                        for &g in gs {
                            *acc += g;
                        }
                    }
                }
            }
        }
    }
    Tensor::from_guard(out, &[n, c, d, h, w])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::tests::runnable_backends;
    use crate::set_backend_override;
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

    fn assert_bits_eq(a: &Tensor, b: &Tensor, what: &str) {
        assert_eq!(a.dims(), b.dims(), "{what}: dims");
        for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: elem {i}: {x} vs {y}");
        }
    }

    #[test]
    fn conv3d_matches_naive() {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        for &(k, cin, cout) in &[
            ([1usize, 1, 1], 2usize, 3usize),
            ([1, 1, 1], 3, 5),
            ([3, 3, 3], 2, 2),
            ([3, 3, 3], 2, 4),
            ([1, 3, 3], 3, 1),
            ([1, 3, 3], 4, 2),
        ] {
            let input = Tensor::randn(&[2, cin, 3, 4, 5], 1.0, &mut rng);
            let weight = Tensor::randn(&[cout, cin, k[0], k[1], k[2]], 1.0, &mut rng);
            assert_close(&conv3d_auto(&input, &weight), &conv3d_naive(&input, &weight), 1e-4);
        }
    }

    #[test]
    fn conv3d_identity_kernel() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let input = Tensor::randn(&[1, 1, 4, 4, 4], 1.0, &mut rng);
        let weight = Tensor::ones(&[1, 1, 1, 1, 1]);
        assert_close(&conv3d_auto(&input, &weight), &input, 1e-6);
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
        let loss = |x: &Tensor, w: &Tensor| conv3d_naive(x, w).mul(&r).sum() as f64;

        let gx = conv3d_grad_input(r.data(), weight.data(), dims);
        let gw = conv3d_grad_weight(input.data(), r.data(), dims, None);
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

    /// Scalar transcription of the implicit GEMM's numerical contract: per
    /// output element one `k`-ordered FMA chain over `(ci, zd, zh, zw)` —
    /// padding voxels included as `0.0` terms, never skipped — restarted
    /// every `KC` depths and summed across blocks.
    fn conv3d_fma_chain(input: &Tensor, weight: &Tensor) -> Tensor {
        let dims = Conv3dDims::infer(input, weight);
        let [sd, sh, sw] = dims.spatial;
        let [kd, kh, kw] = dims.kernel;
        let [pd, ph, pw] = [kd / 2, kh / 2, kw / 2];
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
                    for pc in (0..ksize).step_by(KC) {
                        let mut acc = 0.0f32;
                        for kidx in pc..(pc + KC).min(ksize) {
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

    /// `(kernel, cin, cout, spatial)` rows covering every blocking edge, the
    /// pointwise kernels and the U-Net's five real 3×3×3 layers.
    const CHAIN_SHAPES: &[([usize; 3], usize, usize, [usize; 3])] = &[
        ([3, 3, 3], 2, 4, [3, 4, 5]),
        ([1, 3, 3], 4, 2, [3, 4, 5]),
        ([3, 1, 1], 1, 1, [2, 2, 2]),
        // cin*kvol = 10*27 = 270 > KC: exercises the depth split.
        ([3, 3, 3], 10, 3, [2, 5, 7]),
        // vol > NC: exercises the column-slab loop.
        ([3, 3, 3], 2, 3, [4, 12, 13]),
        // Pointwise: the input is the patch matrix; 300 > KC.
        ([1, 1, 1], 4, 8, [4, 8, 8]),
        ([1, 1, 1], 24, 8, [4, 8, 8]),
        ([1, 1, 1], 48, 16, [4, 4, 4]),
        ([1, 1, 1], 300, 32, [3, 4, 5]),
        // One tile wider than the whole output.
        ([3, 3, 3], 3, 2, [2, 2, 2]),
        ([1, 1, 1], 16, 32, [2, 2, 2]),
        // The small-preset U-Net at patch [4, 8, 8]: stem, down0, down1, up1, up0.
        ([3, 3, 3], 8, 8, [4, 8, 8]),
        ([3, 3, 3], 16, 16, [4, 4, 4]),
        ([3, 3, 3], 32, 32, [2, 2, 2]),
        ([3, 3, 3], 16, 16, [4, 4, 4]),
        ([3, 3, 3], 8, 8, [4, 8, 8]),
    ];

    /// The fused implicit GEMM is *bit-identical* to its scalar contract on
    /// every blocking edge and every backend the host can run: only packing
    /// and tiling differ.
    #[test]
    fn implicit_gemm_is_bit_identical_to_scalar_fma_chain() {
        let mut rng = ChaCha8Rng::seed_from_u64(79);
        let backends = runnable_backends();
        for &(k, cin, cout, sp) in CHAIN_SHAPES {
            let input = Tensor::randn(&[2, cin, sp[0], sp[1], sp[2]], 1.0, &mut rng);
            let weight = Tensor::randn(&[cout, cin, k[0], k[1], k[2]], 1.0, &mut rng);
            let chain = conv3d_fma_chain(&input, &weight);
            for &backend in &backends {
                set_backend_override(Some(backend));
                let fused = conv3d_auto(&input, &weight);
                let what = format!("k={k:?} {cin}->{cout} {sp:?} on {}", backend.name());
                assert_bits_eq(&chain, &fused, &what);
            }
        }
        set_backend_override(None);
    }

    /// Panels packed once give the bits of the per-call pack — also when
    /// they were packed under one backend override and run under another.
    #[test]
    fn prepacked_forward_is_bit_identical_to_per_call_pack() {
        let mut rng = ChaCha8Rng::seed_from_u64(82);
        let backends = runnable_backends();
        for &(k, cin, cout, sp) in CHAIN_SHAPES {
            let input = Tensor::randn(&[2, cin, sp[0], sp[1], sp[2]], 1.0, &mut rng);
            let weight = Tensor::randn(&[cout, cin, k[0], k[1], k[2]], 1.0, &mut rng);
            let want = conv3d_auto(&input, &weight);
            for &pack_on in &backends {
                set_backend_override(Some(pack_on));
                // The voxel count is a tile-shape hint only: a wrong one
                // must not show either.
                for vol in [sp.iter().product(), 1, 1 << 20] {
                    let packed = PackedConv3d::pack(&weight, vol);
                    for &run_on in &backends {
                        set_backend_override(Some(run_on));
                        let what = format!(
                            "k={k:?} {cin}->{cout} {sp:?} hint {vol} packed on {} run on {}",
                            pack_on.name(),
                            run_on.name()
                        );
                        assert_bits_eq(&want, &packed.forward(&input), &what);
                    }
                    set_backend_override(Some(pack_on));
                }
            }
        }
        set_backend_override(None);
    }

    /// A `Linear` weight packed as A panels over feature-major activations
    /// gives the bits of the row-major `gemm(x, Normal, w, Transposed)` on
    /// the transpose: an output element is the same `k`-order FMA chain
    /// whichever operand sits on the tile's rows. Shapes: the
    /// decoder's 19-deep input, its 4-wide head, a depth past `KC`; rows of
    /// one query, three, a short block and a full one; panels packed under
    /// one backend override and run under another; and `k = 0`.
    #[test]
    fn packed_linear_is_bit_identical_to_gemm_on_the_transpose() {
        use crate::gemm::tests::adversarial_finite;
        use crate::gemm::{gemm, MatLayout};
        let backends = runnable_backends();
        for (si, &(k, n)) in [(19usize, 64usize), (64, 4), (300, 33), (35, 128)].iter().enumerate()
        {
            let w = adversarial_finite(n * k, 41 + si as u32);
            for m in [8usize, 24, 504, 512] {
                let x = adversarial_finite(m * k, 7 + (si * 4 + m) as u32);
                let mut want = vec![f32::NAN; m * n];
                gemm(m, k, n, &x, MatLayout::Normal, &w, MatLayout::Transposed, &mut want);
                let xt: Vec<f32> = (0..k * m).map(|i| x[i % m * k + i / m]).collect();
                for &pack_on in &backends {
                    set_backend_override(Some(pack_on));
                    let packed = PackedConv3d::pack_linear(&w, n, k);
                    for &run_on in &backends {
                        set_backend_override(Some(run_on));
                        let mut got = vec![f32::NAN; n * m];
                        packed.forward_slices(&xt, [1, 1, m], &mut got, None);
                        for (i, want) in want.iter().enumerate() {
                            let g = got[i % n * m + i / n];
                            assert_eq!(
                                g.to_bits(),
                                want.to_bits(),
                                "{k}->{n} rows {m} packed on {} run on {} elem {i}: {g:e} vs \
                                 {want:e}",
                                pack_on.name(),
                                run_on.name()
                            );
                        }
                    }
                }
            }
        }
        // No inputs: an empty sum, and `out` is still fully overwritten.
        let mut got = vec![f32::NAN; 5 * 4];
        PackedConv3d::pack_linear(&[], 5, 0).forward_slices(&[], [1, 1, 4], &mut got, None);
        assert!(got.iter().all(|v| v.to_bits() == 0), "k = 0 must zero-fill: {got:?}");
        set_backend_override(None);
    }

    /// A pointwise forward over at most `NC` voxels (of all its batch items)
    /// reads its full B panels in place and packs only a short last one;
    /// over `NC + 1` it packs every panel. Column `j` of a 1×1×1 conv reads
    /// column `j` of its input alone, so the first `vol` columns of a packed
    /// forward over `NC + 1` voxels are what the in-place forward over those
    /// `vol` columns must give, bit for bit, and both are the scalar FMA
    /// chain — on every tier, at a volume under one panel, a whole number of
    /// panels on every tile (96), exactly `NC`, with `cin > KC` (the second
    /// depth slab's B rows start `KC` rows into the input) and over two
    /// batch items. The operand is a prefix of a NaN-filled buffer, so a read
    /// past it would show; NaN and ±∞ inside it reach the outputs of their
    /// own column (through a zero weight too, as `0·∞ = NaN`) and no other.
    #[test]
    fn pointwise_in_place_b_is_bit_identical_to_the_packed_path() {
        let same = |a: f32, b: f32| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        let mut rng = ChaCha8Rng::seed_from_u64(84);
        let wide = NC + 1;
        for (cin, cout, vol, n) in
            [(5, 8, 7, 1), (19, 64, 96, 1), (19, 64, NC, 1), (300, 16, 200, 1), (24, 8, 250, 2)]
        {
            let mut x = Tensor::randn(&[n, cin, 1, 1, wide], 1.0, &mut rng);
            // Non-finite values in three columns, one of them a short last
            // panel's on every tile.
            let poisoned = [3, vol / 2, vol - 1];
            for (&j, v) in poisoned.iter().zip([f32::NAN, f32::INFINITY, f32::NEG_INFINITY]) {
                x.data_mut()[((n - 1) * cin + cin / 2) * wide + j] = v;
            }
            let mut w = Tensor::randn(&[cout, cin, 1, 1, 1], 1.0, &mut rng);
            for co in (0..cout).step_by(3) {
                w.data_mut()[co * cin + cin / 2] = 0.0;
            }
            let mut narrow = vec![f32::NAN; n * cin * vol + 64];
            for (dst, src) in narrow.chunks_mut(vol).zip(x.data().chunks(wide)) {
                dst.copy_from_slice(&src[..vol]);
            }
            let chain = conv3d_fma_chain(&x, &w);
            for backend in runnable_backends() {
                set_backend_override(Some(backend));
                let packed = PackedConv3d::pack(&w, vol);
                let mut all = vec![f32::NAN; n * cout * wide];
                packed.forward_slices(x.data(), [1, 1, wide], &mut all, None);
                let mut got = vec![f32::NAN; n * cout * vol];
                packed.forward_slices(&narrow[..n * cin * vol], [1, 1, vol], &mut got, None);
                for (r, (row, want)) in got.chunks(vol).zip(all.chunks(wide)).enumerate() {
                    let (item, co) = (r / cout, r % cout);
                    for (j, (&g, &p)) in row.iter().zip(want).enumerate() {
                        let what = format!("{cin}->{cout} vol {vol} item {item} row {co} col {j}");
                        let c = chain.data()[r * wide + j];
                        assert!(
                            same(g, p) && same(p, c),
                            "{what} on {}: {g} {p} {c}",
                            backend.name()
                        );
                        let hit = item == n - 1 && poisoned.contains(&j);
                        assert_eq!(!g.is_finite(), hit, "{what}: {g}");
                    }
                }
            }
        }
        set_backend_override(None);
    }

    /// The stage clock is an observer: a staged forward returns the same
    /// bits and accounts a pad copy only where there is a border. (250
    /// voxels leave a short last panel on every tile, so the pointwise
    /// forward, which reads its full panels in place, packs one too.)
    #[test]
    fn staged_forward_times_without_changing_the_result() {
        let mut rng = ChaCha8Rng::seed_from_u64(83);
        for k in [[1usize, 1, 1], [3, 3, 3]] {
            let input = Tensor::randn(&[2, 4, 5, 5, 10], 1.0, &mut rng);
            let weight = Tensor::randn(&[8, 4, k[0], k[1], k[2]], 1.0, &mut rng);
            let packed = PackedConv3d::pack(&weight, 250);
            let mut stages = ConvStages::default();
            let staged = packed.forward_staged(&input, Some(&mut stages));
            assert_bits_eq(&packed.forward(&input), &staged, "staged");
            assert!(stages.pack_b_ns > 0.0 && stages.micro_ns > 0.0, "{stages:?}");
            assert_eq!(stages.pad_copy_ns > 0.0, k != [1, 1, 1], "{stages:?}");
        }
    }

    /// Both gradients are adjoints of the forward map, which is linear in
    /// each argument: `<conv(x, w), g> = <x, grad_input(g, w)> =
    /// <w, grad_weight(x, g)>` — on shapes crossing the depth split and the
    /// column slabs, pointwise included.
    #[test]
    fn gradients_are_adjoints_of_the_forward() {
        let mut rng = ChaCha8Rng::seed_from_u64(80);
        let dot = |a: &Tensor, b: &Tensor| -> f64 {
            a.data().iter().zip(b.data()).map(|(&x, &y)| x as f64 * y as f64).sum()
        };
        for &(k, cin, cout, sp) in &[
            ([3usize, 3, 3], 2usize, 4usize, [3usize, 4, 5]),
            ([1, 3, 3], 4, 2, [3, 4, 5]),
            ([3, 3, 3], 10, 3, [2, 5, 7]),
            ([3, 3, 3], 2, 3, [4, 12, 13]),
            ([1, 1, 1], 24, 8, [4, 8, 8]),
            ([1, 1, 1], 300, 5, [3, 4, 5]),
        ] {
            let input = Tensor::randn(&[2, cin, sp[0], sp[1], sp[2]], 1.0, &mut rng);
            let weight = Tensor::randn(&[cout, cin, k[0], k[1], k[2]], 1.0, &mut rng);
            let dims = Conv3dDims::infer(&input, &weight);
            let gout = Tensor::randn(&[2, cout, sp[0], sp[1], sp[2]], 1.0, &mut rng);
            let forward = dot(&conv3d_naive(&input, &weight), &gout);
            let via_input = dot(&input, &conv3d_grad_input(gout.data(), weight.data(), dims));
            let via_weight =
                dot(&weight, &conv3d_grad_weight(input.data(), gout.data(), dims, None));
            let scale = 1e-4 * (1.0 + forward.abs());
            assert!((forward - via_input).abs() < scale, "{forward} vs {via_input} (k={k:?})");
            assert!((forward - via_weight).abs() < scale, "{forward} vs {via_weight} (k={k:?})");
        }
    }

    /// `(kernel, cin, cout, spatial)` of the weight-gradient tests: every
    /// pair of the decoder's widths 4, 19, 35, 64 pointwise over 300 voxels
    /// (past `KC`, with a tail that is no multiple of 16; `cout = 4` is the
    /// head, fewer rows than any tile), and 3×3×3 kernels over output rows
    /// `sw` = 1, 2, 4, 8, 16 voxels long — the runs the B pack walks — one of
    /// them past `NC` patch columns.
    fn grad_weight_shapes() -> Vec<([usize; 3], usize, usize, [usize; 3])> {
        let widths = [4, 19, 35, 64];
        let pointwise = widths.iter().flat_map(|&cin| widths.map(|cout| (cin, cout)));
        let pointwise = pointwise.map(|(cin, cout)| ([1, 1, 1], cin, cout, [1, 1, 300]));
        let cubic = [1, 2, 4, 8, 16].map(|sw| ([3, 3, 3], 3, 5, [2, 3, sw]));
        pointwise.chain(cubic).chain([([3, 3, 3], 20, 5, [2, 3, 16])]).collect()
    }

    /// The full patch tables and the `xp` of one batch item.
    fn patch_tables(dims: &Conv3dDims, x: &[f32]) -> (Vec<u32>, Vec<u32>, Vec<f32>) {
        let map = PatchMap::new(dims);
        let mut xp_buf = map.padded(dims.cin);
        let (mut koff, mut voff) = (vec![0u32; dims.cin * dims.kvol()], vec![0u32; dims.vol()]);
        map.fill_koff(&mut koff, 0);
        map.fill_voff(&mut voff, 0);
        (koff, voff, map.item(&mut xp_buf, x, &mut None).to_vec())
    }

    /// Both transposing packs of the weight gradient against their
    /// definitions, bit for bit, on every tier the host can run: B panels
    /// `xp[koff(kidx) + voff(p)]` at every panel width, A panels of the
    /// row-major `grad_out` at every tile height, each `KC` block — padding
    /// included, over buffers that start out NaN.
    #[test]
    fn transposing_packs_match_the_patch_definition() {
        let mut rng = ChaCha8Rng::seed_from_u64(84);
        for (k, cin, cout, sp) in grad_weight_shapes() {
            let dims = Conv3dDims { n: 1, cin, cout, spatial: sp, kernel: k };
            let (vol, ksize) = (dims.vol(), cin * dims.kvol());
            let x = Tensor::randn(&[cin * vol], 1.0, &mut rng);
            let g = Tensor::randn(&[cout * vol], 1.0, &mut rng);
            let (koff, voff, xp) = patch_tables(&dims, x.data());
            for backend in runnable_backends() {
                set_backend_override(Some(backend));
                let what = |side: &str| {
                    format!("{side} k={k:?} {cin}->{cout} {sp:?} on {}", backend.name())
                };
                for pc in (0..vol).step_by(KC) {
                    let kb = KC.min(vol - pc);
                    for nr in [16, 32, 48] {
                        let mut b = vec![f32::NAN; ksize.div_ceil(nr) * nr * kb];
                        pack_patch_rows(&mut b, nr, &xp, &koff, &voff[pc..pc + kb]);
                        for (i, got) in b.iter().enumerate() {
                            let (kidx, p) = (i / (nr * kb) * nr + i % nr, i % (nr * kb) / nr);
                            let want =
                                koff.get(kidx).map_or(0.0, |&o| xp[(o + voff[pc + p]) as usize]);
                            assert_eq!(got.to_bits(), want.to_bits(), "{} nr {nr}: {i}", what("B"));
                        }
                    }
                    for mr in [6, 8, 12] {
                        let mut a = vec![f32::NAN; cout.div_ceil(mr) * mr * kb];
                        pack_a(mr, &mut a, g.data(), vol, cout, pc, kb);
                        for (i, got) in a.iter().enumerate() {
                            let (co, p) = (i / (mr * kb) * mr + i % mr, i % (mr * kb) / mr);
                            let want = if co < cout { g.data()[co * vol + pc + p] } else { 0.0 };
                            assert_eq!(got.to_bits(), want.to_bits(), "{} mr {mr}: {i}", what("A"));
                        }
                    }
                }
            }
        }
        set_backend_override(None);
    }

    /// The weight gradient's one bit oracle, a scalar transcription of its
    /// numerical contract: per weight and `KC` block of voxels, one FMA
    /// chain over the block in voxel order from +0, `grad_out` times the
    /// patch value `xp[koff + voff]` (border zeros included); the blocks,
    /// then the batch items, added in order.
    fn grad_weight_fma_chain(x: &[f32], g: &[f32], dims: Conv3dDims) -> Vec<f32> {
        let (vol, ksize) = (dims.vol(), dims.cin * dims.kvol());
        let mut out = vec![0.0f32; dims.cout * ksize];
        for (n, x) in x.chunks(dims.cin * vol).enumerate() {
            let (koff, voff, xp) = patch_tables(&dims, x);
            for (co, g) in g[n * dims.cout * vol..].chunks(vol).take(dims.cout).enumerate() {
                for (kidx, &k) in koff.iter().enumerate() {
                    let o = &mut out[co * ksize + kidx];
                    for pc in (0..vol).step_by(KC) {
                        let mut acc = 0.0f32;
                        for p in pc..(pc + KC).min(vol) {
                            acc = g[p].mul_add(xp[(k + voff[p]) as usize], acc);
                        }
                        *o = if n == 0 && pc == 0 { acc } else { *o + acc };
                    }
                }
            }
        }
        out
    }

    /// Input and output gradient of `dims` with signed zeros in them: in
    /// every item the first input channel +0 and the first `grad_out` row
    /// -0, so that weight `[0, 0]` (a 3×3×3 kernel's whole first channel)
    /// sums products that are all -0 and only the chains' +0 start makes it
    /// +0, and scattered ±0 elsewhere.
    fn signed_zero_operands(dims: Conv3dDims, rng: &mut ChaCha8Rng) -> (Vec<f32>, Vec<f32>) {
        let vol = dims.vol();
        let mut operand = |rows: usize, zero: f32| {
            let mut v = Tensor::randn(&[dims.n * rows * vol], 1.0, rng).data().to_vec();
            for item in v.chunks_exact_mut(rows * vol) {
                item[..vol].fill(zero);
                for (j, x) in item.iter_mut().enumerate().skip(vol).step_by(7) {
                    *x = if j % 2 == 0 { 0.0 } else { -0.0 };
                }
            }
            v
        };
        (operand(dims.cin, 0.0), operand(dims.cout, -0.0))
    }

    /// Both arms of the weight gradient — the packed driver, and for a
    /// 1×1×1 kernel the pointwise arm — and `conv3d_grad_weight` itself,
    /// on one worker and in turns on two and three, give the oracle's bits
    /// on every tier the host can run: batch 1 and
    /// 3, voxel counts that end in a part block (300 and 600, two and three
    /// `KC` blocks) or are shorter than a vector, widths that are no
    /// multiple of a vector or of a tile's rows (the tape's 19 and 35, the
    /// 4-wide head, 129), 3×3×3 kernels with their zero border, and signed
    /// zeros.
    #[test]
    fn grad_weight_arms_are_bit_identical_to_the_oracle() {
        let mut rng = ChaCha8Rng::seed_from_u64(85);
        // Three `KC` blocks; inputs past three transposed blocks (`MAX_NR`)
        // and voxels fewer than a vector.
        let long = [
            ([1, 1, 1], 64, 64, [1, 1, 600]),
            ([1, 1, 1], 19, 64, [1, 1, 600]),
            ([1, 1, 1], 129, 5, [1, 1, 17]),
            ([1, 1, 1], 3, 1, [1, 1, 17]),
        ];
        for (k, cin, cout, sp) in grad_weight_shapes().into_iter().chain(long) {
            for n in [1, 3] {
                let dims = Conv3dDims { n, cin, cout, spatial: sp, kernel: k };
                let (x, g) = signed_zero_operands(dims, &mut rng);
                let want = grad_weight_fma_chain(&x, &g, dims);
                for backend in runnable_backends() {
                    set_backend_override(Some(backend));
                    let mut arms = vec![(
                        "conv3d_grad_weight",
                        conv3d_grad_weight(&x, &g, dims, None).data().to_vec(),
                    )];
                    for workers in [2, 3] {
                        let got = conv3d_grad_weight_in_turns(workers, &x, &g, dims);
                        arms.push(("in turns", got.data().to_vec()));
                    }
                    let kernel = simd::active_kernel_for(cout, cin * dims.kvol());
                    let mut forced =
                        vec![("packed", GradWeightArm::Packed(kernel, PatchMap::new(&dims)))];
                    if k == [1, 1, 1] {
                        forced.push(("pointwise", GradWeightArm::Pointwise(simd::thin_kernel())));
                    }
                    for (arm_name, arm) in forced {
                        let mut got = vec![f32::NAN; want.len()];
                        GradWeight { arm, ..GradWeight::new(&x, &g, dims) }
                            .in_order(&mut got, None);
                        arms.push((arm_name, got));
                    }
                    for (arm, got) in arms {
                        for (i, (got, want)) in got.iter().zip(&want).enumerate() {
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "{arm}: k={k:?} {cin}->{cout} {sp:?} batch {n} on {} elem {i}: \
                                 {got:e} vs {want:e}",
                                backend.name()
                            );
                        }
                    }
                }
            }
        }
        set_backend_override(None);
    }

    /// The stage clock is an observer for the weight gradient too, on every
    /// tier: a padded kernel accounts its pad copy, and the pointwise arm
    /// packs no A panel.
    #[test]
    fn staged_grad_weight_times_without_changing_the_result() {
        let mut rng = ChaCha8Rng::seed_from_u64(86);
        for k in [[1usize, 1, 1], [3, 3, 3]] {
            let dims = Conv3dDims { n: 2, cin: 4, cout: 8, spatial: [4, 8, 8], kernel: k };
            let x = Tensor::randn(&[2 * 4 * 256], 1.0, &mut rng);
            let g = Tensor::randn(&[2 * 8 * 256], 1.0, &mut rng);
            for backend in runnable_backends() {
                set_backend_override(Some(backend));
                let mut stages = ConvStages::default();
                let staged = conv3d_grad_weight(x.data(), g.data(), dims, Some(&mut stages));
                let plain = conv3d_grad_weight(x.data(), g.data(), dims, None);
                assert_bits_eq(&plain, &staged, "staged");
                let ConvStages { pad_copy_ns, pack_a_ns, pack_b_ns, micro_ns, .. } = stages;
                let pointwise = k == [1, 1, 1] && simd::thin_kernel().grad_weight;
                assert!(pack_b_ns > 0.0 && micro_ns > 0.0, "{stages:?}");
                assert_eq!(pack_a_ns > 0.0, !pointwise, "{stages:?} on {}", backend.name());
                assert_eq!(pad_copy_ns > 0.0, k != [1, 1, 1], "{stages:?}");
            }
        }
        set_backend_override(None);
    }

    fn even_dims() -> (Tensor, Tensor, Conv3dDims) {
        let x = Tensor::ones(&[1, 1, 2, 4, 4]);
        let w = Tensor::ones(&[1, 1, 1, 2, 2]);
        (x, w, Conv3dDims { n: 1, cin: 1, cout: 1, spatial: [2, 4, 4], kernel: [1, 2, 2] })
    }

    /// A hand-built `Conv3dDims` with an even extent must be refused, not
    /// answered with a flipped-weight convolution that is wrong for it.
    #[test]
    #[should_panic(expected = "must be odd")]
    fn grad_input_rejects_even_kernels() {
        let (x, w, dims) = even_dims();
        conv3d_grad_input(x.data(), w.data(), dims);
    }

    #[test]
    #[should_panic(expected = "must be odd")]
    fn grad_weight_rejects_even_kernels() {
        let (x, _, dims) = even_dims();
        conv3d_grad_weight(x.data(), x.data(), dims, None);
    }

    /// NaN and inf flow through the lowering untouched: the on-the-fly
    /// packer must not skip or zero non-finite input values.
    #[test]
    fn implicit_gemm_propagates_nan_and_inf() {
        let mut rng = ChaCha8Rng::seed_from_u64(81);
        let mut input = Tensor::randn(&[1, 2, 3, 4, 5], 1.0, &mut rng);
        input.data_mut()[7] = f32::NAN;
        input.data_mut()[31] = f32::INFINITY;
        let weight = Tensor::randn(&[3, 2, 3, 3, 3], 1.0, &mut rng);
        let fused = conv3d_auto(&input, &weight);
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
        for v in conv3d_auto(&input, &weight).data() {
            assert!(v.is_nan(), "0 * inf must be NaN, got {v}");
        }
        // Same law through the input-gradient kernel (grad = w * grad_out).
        let dims = Conv3dDims::infer(&input, &weight);
        let grad_out = Tensor::full(&[1, 1, 2, 2, 2], f32::INFINITY);
        for v in conv3d_grad_input(grad_out.data(), weight.data(), dims).data() {
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
        assert_eq!(out, maxpool3d_values(&input, [1, 2, 4]));
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
        // The index-free form runs the same window loop.
        let values = maxpool3d_values(&input, [2, 2, 2]);
        assert!(values.data()[0].is_nan() && values.data()[1] == 7.0);

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

    /// Replication and its adjoint against their index definitions, bit for
    /// bit, on anisotropic factors (the sum's order is part of the contract).
    #[test]
    fn upsample_matches_its_index_definition() {
        let mut rng = ChaCha8Rng::seed_from_u64(16);
        let f = [2usize, 1, 3];
        let x = Tensor::randn(&[2, 2, 2, 3, 2], 1.0, &mut rng);
        let up = upsample_nearest3d(&x, f);
        let y = Tensor::randn(up.dims(), 1.0, &mut rng);
        let back = upsample_nearest3d_backward(&y, f);
        let mut want_back = Tensor::zeros(x.dims());
        let [od, oh, ow] = [4, 3, 6];
        for slab in 0..4 {
            for zd in 0..od {
                for zh in 0..oh {
                    for zw in 0..ow {
                        let o = ((slab * od + zd) * oh + zh) * ow + zw;
                        let i = ((slab * 2 + zd / f[0]) * 3 + zh / f[1]) * 2 + zw / f[2];
                        assert_eq!(up.data()[o].to_bits(), x.data()[i].to_bits());
                        want_back.data_mut()[i] += y.data()[o];
                    }
                }
            }
        }
        assert_bits_eq(&want_back, &back, "upsample backward");
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
