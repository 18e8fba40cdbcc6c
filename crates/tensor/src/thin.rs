//! GEMMs that read their wide operand where it lies and keep the thin one
//! in registers ([`crate::simd`]'s thin tile, as many rows and vectors of
//! columns as the tier's registers hold: 6 × 4 on AVX-512, 4 × 3 on AVX2).
//!
//! - [`thin_columns`]: `out = a · b` for a thin `a` (the forward, `w · x`)
//!   or a shallow one (the input gradient, `wᵀ · dz`), `b` read in place,
//!   vectorized along its columns — a layer whose `out_features` is below
//!   every tier's `mr` (6, 8 or 12): the decoder's 4-wide head. Through the
//!   packed driver its A panels would be half zero rows.
//! - `pointwise_grad_weight_block`: `dw = dz · xᵀ` of every pointwise (1×1×1)
//!   operator, any width — every tape `Linear` layer and the U-Net's 1×1×1
//!   convs — as [`crate::conv3d_grad_weight`]'s arm for `kvol == 1`. Each
//!   `KC`-voxel block of `x` is transposed once into a panel as wide as `x`
//!   has rows (`transpose_pack`, padded to a whole vector), and `dz` is
//!   broadcast from its rows: no A panel, no `nr`-padded B panels. A 3³
//!   conv keeps the packed driver, and so does the portable tier, whose
//!   scalar tile takes 5–7× the driver's time there.
//!
//! Both keep the driver's arithmetic: each output element is one FMA chain
//! in depth order from +0 per `KC`-deep block, the blocks (and batch items)
//! added in order — so they give [`crate::PackedConv3d::forward_columns`]'s
//! and the packed weight gradient's bits, on every tier.

use crate::conv::{timed, Conv3dDims, ConvStages};
use crate::gemm::{strided_rows, OutputRows, KC};
use crate::simd::{self, thin_kernel, ThinKernel, ThinTile, MAX_NR};
use crate::workspace;
use std::ops::Range;

/// Whether a layer of `out_features` outputs takes the thin path: fewer
/// than the active tier's tile has rows.
pub fn is_thin(out_features: usize) -> bool {
    out_features < simd::active_kernel().mr
}

/// `$body` with the const `$r` bound to `$rows` (1–6): a [`ThinTile`]'s
/// row count is a type parameter.
macro_rules! with_rows {
    ($rows:expr, |$r:ident| $body:expr) => {
        match $rows {
            1 => {
                const $r: usize = 1;
                $body
            }
            2 => {
                const $r: usize = 2;
                $body
            }
            3 => {
                const $r: usize = 3;
                $body
            }
            4 => {
                const $r: usize = 4;
                $body
            }
            5 => {
                const $r: usize = 5;
                $body
            }
            _ => {
                const $r: usize = 6;
                $body
            }
        }
    };
}

/// Columns `cols` of `a · b` into `out` ([`OutputRows`]: row `r` from
/// column `cols.start` on), for `a: [rows, depth]` and `b: [depth, ldb]`
/// row-major, `b` read where it lies. The bits of the packed driver's
/// forward over the same operands ([`crate::PackedConv3d::forward_columns`]
/// on `a` packed as a `Linear` weight): every element one FMA chain in depth
/// order from +0 per `KC` block, the blocks added in order. Calls on
/// disjoint column ranges may run on different threads.
///
/// # Panics
/// Panics if `a` is not `rows` rows, `b` is not a whole number of rows of
/// `a`'s depth, the range is past `b`'s rows, or an `out` row is shorter
/// than the range.
pub fn thin_columns(
    a: &[f32],
    rows: usize,
    b: &[f32],
    cols: Range<usize>,
    out: &mut impl OutputRows,
) {
    assert!(rows > 0 && a.len().is_multiple_of(rows), "{} values are not {rows} rows", a.len());
    let depth = a.len() / rows;
    assert!(depth > 0 && b.len().is_multiple_of(depth), "b is not {depth} rows");
    let ldb = b.len() / depth;
    assert!(cols.start <= cols.end && cols.end <= ldb, "columns {cols:?} of {ldb}");
    let (width, kernel) = (cols.len(), thin_kernel());
    let lanes = kernel.lanes;
    for r0 in (0..rows).step_by(kernel.rows) {
        with_rows!((rows - r0).min(kernel.rows), |R| {
            let to: [*mut f32; R] = std::array::from_fn(|i| {
                let row = out.row(r0 + i);
                assert!(row.len() >= width, "an output row shorter than its columns");
                row.as_mut_ptr()
            });
            // The tiles write through all `R` rows at once: they must not overlap.
            let apart = |w: &[*mut f32]| (w[1] as usize).abs_diff(w[0] as usize) >= width * 4;
            assert!(to.windows(2).all(apart), "output rows closer than their width");
            for d0 in (0..depth).step_by(KC) {
                let kb = KC.min(depth - d0);
                let a: [&[f32]; R] = std::array::from_fn(|i| &a[(r0 + i) * depth + d0..][..kb]);
                let (b, first) = (&b[d0 * ldb + cols.start..], d0 == 0);
                let mut j = 0;
                while j + lanes <= width {
                    let nv = ((width - j) / lanes).min(kernel.vectors);
                    let tile = ThinTile {
                        a: a.map(<[f32]>::as_ptr),
                        b: b[j..].as_ptr(),
                        ldb,
                        depth: kb,
                        out: to.map(|o| o.wrapping_add(j)),
                        width: nv * lanes,
                        first,
                    };
                    // SAFETY: rows `d0..d0 + kb` of `b` hold the range's
                    // columns `j..j + nv·lanes` (`<= width`), each row of `a`
                    // holds `kb` terms, and every output row `width` columns.
                    unsafe { kernel.tile(&tile, nv) };
                    j += nv * lanes;
                }
                // The last columns, fewer than a vector: the same chains.
                for (&a, &o) in a.iter().zip(&to) {
                    for c in j..width {
                        let terms = a.iter().enumerate();
                        let acc = terms.fold(0.0f32, |acc, (d, &x)| x.mul_add(b[d * ldb + c], acc));
                        // SAFETY: `c < width`, inside this output row.
                        unsafe {
                            let o = o.add(c);
                            *o = if first { acc } else { *o + acc };
                        }
                    }
                }
            }
        })
    }
}

/// The panel a pointwise weight gradient transposes `x`'s blocks into:
/// `KC.min(vol)` rows as wide as `x` has rows (`dims.cin`), padded to a
/// whole vector, the padding columns zero — they are read, never stored:
/// zeros, not stale floats.
pub(crate) fn pointwise_panel(kernel: ThinKernel, dims: Conv3dDims) -> workspace::WorkspaceGuard {
    let (k, lanes) = (dims.cin, kernel.lanes);
    let ld = k.div_ceil(lanes) * lanes;
    let mut panel = workspace::take_scratch(KC.min(dims.vol()) * ld);
    for row in panel.chunks_exact_mut(ld) {
        row[k..].fill(0.0);
    }
    panel
}

/// One `KC`-voxel block of the weight gradient of a pointwise (1×1×1)
/// conv, [`crate::conv3d_grad_weight`]'s arm for `kvol == 1` on a tier whose
/// tile takes it ([`ThinKernel`]'s `grad_weight`): voxels `p0..` of one
/// batch item, `x: [k, vol]` and `dz: [n, vol]`, into `out: [n, k]` —
/// written when `first`, else added. The block of `x` is transposed once
/// into `panel` ([`pointwise_panel`]; the `pack_b` stage) and `dz` is
/// broadcast from where it lies (the `micro` stage) — no A panel, no
/// `nr`-padded B panels. The driver's bits: one FMA chain per element from
/// +0 in voxel order, added to what `out` holds.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pointwise_grad_weight_block(
    kernel: ThinKernel,
    x: &[f32],
    dz: &[f32],
    dims: Conv3dDims,
    p0: usize,
    panel: &mut [f32],
    out: &mut [f32],
    first: bool,
    stages: &mut Option<&mut ConvStages>,
) {
    let (k, n, vol) = (dims.cin, dims.cout, dims.vol());
    assert!(dims.kvol() == 1 && out.len() == n * k, "a pointwise [{n}, {k}] weight gradient");
    assert!(x.len() == k * vol && dz.len() == n * vol && p0 < vol, "a block of one item");
    let ld = k.div_ceil(kernel.lanes) * kernel.lanes;
    let kb = KC.min(vol - p0);
    let rows = strided_rows(MAX_NR.min(k), vol);
    timed(
        stages,
        |s| &mut s.pack_b_ns,
        || {
            for k0 in (0..k).step_by(MAX_NR) {
                let w = MAX_NR.min(k - k0);
                let run = std::iter::once((0, p0, kb));
                simd::transpose_pack(&mut panel[k0..], ld, &x[k0 * vol..], &rows[..w], run);
            }
        },
    );
    let panel = &panel[..kb * ld];
    timed(
        stages,
        |s| &mut s.micro_ns,
        || grad_weight_block(kernel, &dz[p0..], vol, panel, ld, k, out, first),
    );
}

/// The tiles of [`pointwise_grad_weight_block`], its `kb` voxels the rows of
/// `panel`: `out[o][c] (+)= Σ_p dz[o·vol + p] · panel[p·ld + c]`, one
/// [`ThinKernel`]'s tile of output rows and vectors of columns at a time.
#[allow(clippy::too_many_arguments)]
fn grad_weight_block(
    kernel: ThinKernel,
    dz: &[f32],
    vol: usize,
    panel: &[f32],
    ld: usize,
    k: usize,
    out: &mut [f32],
    first: bool,
) {
    let (n, kb, lanes) = (out.len() / k, panel.len() / ld, kernel.lanes);
    let step = kernel.vectors * lanes;
    for o0 in (0..n).step_by(kernel.rows) {
        with_rows!((n - o0).min(kernel.rows), |R| {
            let a: [*const f32; R] = std::array::from_fn(|i| dz[(o0 + i) * vol..].as_ptr());
            for c0 in (0..k).step_by(step) {
                let nv = (ld - c0).div_ceil(lanes).min(kernel.vectors);
                let tile = ThinTile {
                    a,
                    b: panel[c0..].as_ptr(),
                    ldb: ld,
                    depth: kb,
                    out: std::array::from_fn(|i| out[(o0 + i) * k + c0..].as_mut_ptr()),
                    width: (k - c0).min(nv * lanes),
                    first,
                };
                // SAFETY: each `dz` row holds the block's `kb` voxels, the
                // panel `kb` rows of `ld >= c0 + nv·lanes` floats, and each
                // output row `width` columns from `c0`.
                unsafe { kernel.tile(&tile, nv) };
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::tests::runnable_backends;
    use crate::gemm::RowMajor;
    use crate::{set_backend_override, PackedConv3d, Tensor};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn randn(len: usize, seed: u64) -> Vec<f32> {
        let t = Tensor::randn(&[len], 1.0, &mut ChaCha8Rng::seed_from_u64(seed));
        let mut v = t.data().to_vec();
        // Exact zeros and a -0, whose signs the chains must keep.
        for (i, x) in v.iter_mut().enumerate().step_by(7) {
            *x = if i % 2 == 0 { 0.0 } else { -0.0 };
        }
        v
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Thin (and shallow) products over column ranges with short last
    /// vectors, depths past one `KC` block, give the packed driver's bits on
    /// every tier.
    #[test]
    fn thin_columns_match_the_packed_driver() {
        for (rows, depth, cols) in
            [(4, 32, 1001), (1, 3, 37), (5, 300, 130), (3, 35, 16), (32, 4, 777), (7, 1, 9)]
        {
            let (a, b) = (randn(rows * depth, 1), randn(depth * cols, 2));
            for backend in runnable_backends() {
                set_backend_override(Some(backend));
                let packed = PackedConv3d::pack_linear(&a, rows, depth);
                for range in [0..cols, 3..cols, cols / 2..cols / 2 + 1] {
                    let width = range.len();
                    let mut want = vec![f32::NAN; rows * width];
                    let mut scratch = vec![0.0; packed.columns_scratch(width)];
                    let mut out = RowMajor { rows: &mut want, ld: width };
                    packed.forward_columns(&b, range.clone(), &mut out, &mut scratch);
                    let mut got = vec![f32::NAN; rows * width];
                    thin_columns(
                        &a,
                        rows,
                        &b,
                        range.clone(),
                        &mut RowMajor { rows: &mut got, ld: width },
                    );
                    let what =
                        format!("{rows}x{depth} over {range:?} of {cols} on {}", backend.name());
                    assert_eq!(bits(&got), bits(&want), "{what}");
                }
            }
        }
        set_backend_override(None);
    }
}
