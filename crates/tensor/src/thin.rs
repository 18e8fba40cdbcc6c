//! GEMMs with one side thinner than the micro-kernel tile: the decoder's
//! 4-wide output layer, whose `out_features` is below every tier's `mr` (6,
//! 8 or 12).
//!
//! Run through the packed driver such a layer wastes most of each tile — the
//! forward's A panels are half zero rows, and the weight gradient packs the
//! whole transposed input into `nr`-wide B panels for a tile whose rows are
//! mostly padding. The two kernels here read the wide operand where it lies
//! and keep the thin one in registers ([`crate::simd`]'s thin tile):
//!
//! - [`thin_columns`]: `out = a · b` for a thin `a` (the forward, `w · x`)
//!   or a shallow one (the input gradient, `wᵀ · dz`), `b` read in place,
//!   vectorized along its columns;
//! - [`thin_grad_weight`]: `dw = dz · xᵀ`, each `KC`-voxel block of `x`
//!   transposed once into a panel as wide as `x` has rows (`transpose_pack`,
//!   padded to a whole vector), the thin `dz` broadcast from its rows.
//!
//! Both keep the driver's arithmetic: each output element is one FMA chain
//! in depth order from +0 per `KC`-deep block, the blocks added in order —
//! so they give [`crate::PackedConv3d::forward_columns`]'s and
//! [`crate::conv3d_grad_weight`]'s bits, on every tier.

use crate::gemm::{strided_rows, OutputRows, KC};
use crate::simd::{self, thin_kernel, ThinTile, MAX_NR};
use crate::workspace;
use std::ops::Range;

/// Rows of one thin tile.
const TILE_ROWS: usize = 4;

/// Vectors of columns of one thin tile.
const TILE_VECTORS: usize = 4;

/// Whether a layer of `out_features` outputs takes the thin path: fewer
/// than the active tier's tile has rows.
pub fn is_thin(out_features: usize) -> bool {
    out_features < simd::active_kernel().mr
}

/// `$body` with the const `$r` bound to `$rows` (1–4): a [`ThinTile`]'s
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
            _ => {
                const $r: usize = 4;
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
    for r0 in (0..rows).step_by(TILE_ROWS) {
        with_rows!((rows - r0).min(TILE_ROWS), |R| {
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
                    let nv = ((width - j) / lanes).min(TILE_VECTORS);
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

/// The weight gradient of a thin layer, `out = dz · xᵀ` for `dz: [n, vol]`
/// and `x: [k, vol]` into `out: [n, k]` (fully overwritten): the bits of
/// [`crate::conv3d_grad_weight`] on the 1×1×1 conv of `k` to `n` channels
/// over `vol` voxels — per `KC`-voxel block one FMA chain per element from
/// +0, in voxel order, the blocks added in order. Each block of `x` is
/// transposed once into a panel of rows as wide as `x` has rows, padded to
/// a whole vector, and `dz` is broadcast from where it lies.
///
/// # Panics
/// Panics if the lengths are not `[n, vol]`, `[k, vol]` and `[n, k]`.
pub fn thin_grad_weight(x: &[f32], dz: &[f32], n: usize, out: &mut [f32]) {
    assert!(n > 0 && dz.len().is_multiple_of(n), "dz is not {n} rows");
    let vol = dz.len() / n;
    assert!(vol > 0 && x.len().is_multiple_of(vol), "x is not rows of {vol} voxels");
    let k = x.len() / vol;
    assert_eq!(out.len(), n * k, "the weight gradient is [{n}, {k}]");
    let kernel = thin_kernel();
    let lanes = kernel.lanes;
    let ld = k.div_ceil(lanes) * lanes;
    let mut panel = workspace::take_scratch(KC.min(vol) * ld);
    // The padding columns are read, never stored: zeros, not stale floats.
    for row in panel.chunks_exact_mut(ld) {
        row[k..].fill(0.0);
    }
    for p0 in (0..vol).step_by(KC) {
        let kb = KC.min(vol - p0);
        for k0 in (0..k).step_by(MAX_NR) {
            let w = MAX_NR.min(k - k0);
            let rows = strided_rows(w, vol);
            let run = std::iter::once((0, p0, kb));
            simd::transpose_pack(&mut panel[k0..], ld, &x[k0 * vol..], &rows[..w], run);
        }
        for o0 in (0..n).step_by(TILE_ROWS) {
            with_rows!((n - o0).min(TILE_ROWS), |R| {
                let a: [*const f32; R] =
                    std::array::from_fn(|i| dz[(o0 + i) * vol + p0..].as_ptr());
                for c0 in (0..k).step_by(TILE_VECTORS * lanes) {
                    let nv = (ld - c0).div_ceil(lanes).min(TILE_VECTORS);
                    let tile = ThinTile {
                        a,
                        b: panel[c0..].as_ptr(),
                        ldb: ld,
                        depth: kb,
                        out: std::array::from_fn(|i| out[(o0 + i) * k + c0..].as_mut_ptr()),
                        width: (k - c0).min(nv * lanes),
                        first: p0 == 0,
                    };
                    // SAFETY: each `dz` row holds `kb` voxels from `p0`, the
                    // panel `kb` rows of `ld >= c0 + nv·lanes` floats, and
                    // each output row `width` columns from `c0`.
                    unsafe { kernel.tile(&tile, nv) };
                }
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::tests::runnable_backends;
    use crate::gemm::RowMajor;
    use crate::{conv3d_grad_weight, set_backend_override, Conv3dDims, PackedConv3d, Tensor};
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

    /// The thin weight gradient gives `conv3d_grad_weight`'s bits, over
    /// several `KC` voxel blocks and input widths past one transposed
    /// block (`MAX_NR`) and one vector.
    #[test]
    fn thin_grad_weight_matches_the_packed_driver() {
        for (n, k, vol) in [(4, 32, 600), (1, 3, 17), (5, 50, 256), (3, 129, 300), (4, 16, 1000)] {
            let (x, dz) = (randn(k * vol, 3), randn(n * vol, 4));
            let dims = Conv3dDims { n: 1, cin: k, cout: n, spatial: [1, 1, vol], kernel: [1; 3] };
            for backend in runnable_backends() {
                set_backend_override(Some(backend));
                let want = conv3d_grad_weight(&x, &dz, dims, None);
                let mut got = vec![f32::NAN; n * k];
                thin_grad_weight(&x, &dz, n, &mut got);
                let what = format!("{n}x{k} over {vol} on {}", backend.name());
                assert_eq!(bits(&got), bits(want.data()), "{what}");
            }
        }
        set_backend_override(None);
    }
}
