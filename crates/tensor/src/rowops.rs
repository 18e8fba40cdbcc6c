//! The decoder's gather / blend / bias / softplus kernels and the U-Net's
//! channel bias and affine, shared by the reverse-mode tape (`mfn-autodiff`)
//! and the no-grad inference path (`mfn-core`'s blocked decode and frozen
//! engine).
//!
//! Both execution paths must produce *bit-identical* outputs — the serving
//! engine's correctness contract is "same bytes as the training graph in
//! eval mode" — so the elementwise loops live here and both callers
//! delegate. There is one activation layout, *feature-major*: a layer's
//! activations over `M` points are `[width, M]`, the GEMM's B operand as it
//! lies (the NCDHW layout of the U-Net's convs, one item of one voxel row),
//! and a six-lane matrix is `[width, JET_LANES·M]`, the lanes as column
//! blocks of every feature row. Any change to summation order or
//! zero-handling in these functions changes the bits of every checkpointed
//! model's predictions.
//!
//! Softplus and its derivative each have one scalar definition
//! ([`softplus_scalar`], [`sigmoid_scalar`], both in [`crate::simd`]); the
//! slice kernels re-exported beside them are those definitions on vectors.

pub use crate::simd::{
    bias_jet_features, bias_softplus_features, bias_softplus_grad_features,
    bias_softplus_jet_features, sigmoid_scalar, softplus_derivs, softplus_grad_slice,
    softplus_scalar, softplus_slice, JET_LANES,
};
use crate::tensor::Tensor;

/// The decoder's MLP input, feature-major: fills `out: [K + C, M]` (`M =
/// index.len()`) with the `K` per-point values of `prefix: [M, K]`
/// de-interleaved into the first `K` feature rows and, under them, channel
/// `c` of vertex `index[m]` of `grid: [N, C, D, H, W]` at `out[(K + c)·M +
/// m]` (`index[m] = n·D·H·W + (d·H + h)·W + w`, batch and spatial offsets
/// pre-combined). The values are plain copies, written straight into the
/// caller's buffer; the grid is channel-major already, so a feature row is
/// one indexed read per vertex.
///
/// # Panics
/// Panics if `grid` is not rank 5, `prefix.len()` is not a multiple of
/// `index.len()`, or `out` is not `K + C` rows of `index.len()`.
pub fn gather_features(grid: &Tensor, index: &[u32], prefix: &[f32], out: &mut [f32]) {
    assert_eq!(grid.shape().rank(), 5, "gather_features grid must be [N,C,D,H,W]");
    let (n, c) = (grid.dims()[0], grid.dims()[1]);
    let vol: usize = grid.dims()[2..].iter().product();
    let g = grid.data();
    let m = index.len();
    assert!(
        m > 0 && prefix.len().is_multiple_of(m),
        "prefix length must be a multiple of the row count"
    );
    let k = prefix.len() / m;
    assert_eq!(out.len(), m * (k + c), "gather_features output length mismatch");
    let (coords, channels) = out.split_at_mut(k * m);
    for (j, row) in coords.chunks_exact_mut(m).enumerate() {
        for (d, p) in row.iter_mut().zip(prefix.chunks_exact(k)) {
            *d = p[j];
        }
    }
    // Where channel 0 of each vertex sits in the grid, a chunk of rows at a
    // time: one division per row instead of one per element.
    const CHUNK: usize = 64;
    let mut base = [0usize; CHUNK];
    for (i, idx) in index.chunks(CHUNK).enumerate() {
        for (b, &flat) in base.iter_mut().zip(idx) {
            let (ni, sp) = (flat as usize / vol, flat as usize % vol);
            debug_assert!(ni < n, "gather index out of batch range");
            *b = ni * c * vol + sp;
        }
        for (ci, row) in channels.chunks_exact_mut(m).enumerate() {
            for (d, &b) in row[i * CHUNK..][..idx.len()].iter_mut().zip(&base) {
                *d = g[b + ci * vol];
            }
        }
    }
}

/// Blends groups of `group` consecutive points of the feature-major `x: [C,
/// Q·group]` (channel `c` of point `r` at `x[c·Q·group + r]`) with fixed
/// weights (`weights.len() == Q·group`) into `out: [Q, C]` (row-major, fully
/// overwritten) — the trilinear vertex interpolation of the paper's Eqn. 6.
/// Each output is one sum over its group in vertex order, and a point whose
/// weight is exactly zero is skipped, not multiplied: a query on a cell face
/// never reads the vertices beyond it.
pub fn blend_features_into(x: &[f32], weights: &[f32], group: usize, out: &mut [f32]) {
    let rows = weights.len();
    let q = rows / group;
    assert!(q > 0 && rows == q * group, "blend_features weight count mismatch");
    assert_eq!(out.len() % q, 0, "blend_features output is not one row per group");
    let c = out.len() / q;
    assert_eq!(x.len(), rows * c, "blend_features input length mismatch");
    for ((dst, ws), at) in
        out.chunks_exact_mut(c).zip(weights.chunks_exact(group)).zip((0..).step_by(group))
    {
        for (o, feature) in dst.iter_mut().zip(x.chunks_exact(rows)) {
            let mut acc = 0.0f32;
            for (&w, &s) in ws.iter().zip(&feature[at..at + group]) {
                if w == 0.0 {
                    continue;
                }
                acc += w * s;
            }
            *o = acc;
        }
    }
}

/// Adds `bias[j]` to every element of feature row `j` of `x: [bias.len(),
/// M]`, in place.
pub fn add_bias_features(x: &mut [f32], bias: &[f32]) {
    let n = bias.len();
    assert!(n > 0 && x.len().is_multiple_of(n), "add_bias_features: not one row per bias");
    let m = x.len() / n;
    for (row, &bb) in x.chunks_exact_mut(m).zip(bias) {
        for o in row {
            *o += bb;
        }
    }
}

/// Adds bias `bias: [C]` over channel dim 1 of `x: [N, C, ...]`, in place.
pub fn add_bias_channels(x: &mut Tensor, bias: &[f32]) {
    assert!(x.shape().rank() >= 2, "add_bias_channels input must have a channel dim");
    let c = x.dims()[1];
    assert_eq!(bias.len(), c, "bias length mismatch");
    let inner: usize = x.dims()[2..].iter().product();
    for slab in x.data_mut().chunks_mut(c * inner) {
        add_bias_features(slab, bias);
    }
}

/// Frozen per-channel affine `y[c] = x[c] * scale[c] + shift[c]` over channel
/// dim 1 of `x: [N, C, ...]`, in place (inference-mode batch norm).
pub fn channel_affine(x: &mut Tensor, scale: &[f32], shift: &[f32]) {
    assert!(x.shape().rank() >= 2, "channel_affine input must have a channel dim");
    let c = x.dims()[1];
    assert_eq!(scale.len(), c);
    assert_eq!(shift.len(), c);
    let inner: usize = x.dims()[2..].iter().product();
    for slab in x.data_mut().chunks_mut(c * inner) {
        for (ch, sub) in slab.chunks_mut(inner).enumerate() {
            for o in sub {
                *o = *o * scale[ch] + shift[ch];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather_features_picks_expected_vertices() {
        // grid [1, 2, 1, 2, 2]: channel-major planes of 4 spatial points; the
        // picks under one de-interleaved prefix value per point.
        let grid =
            Tensor::from_vec(vec![0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 12.0, 13.0], &[1, 2, 1, 2, 2]);
        let mut rows = [f32::NAN; 6];
        gather_features(&grid, &[0, 3], &[-1.0, -2.0], &mut rows);
        assert_eq!(rows, [-1.0, -2.0, 0.0, 3.0, 10.0, 13.0]);
    }

    #[test]
    fn blend_features_weighted_sum() {
        // Two channels of one query's two points.
        let mut out = [f32::NAN; 2];
        blend_features_into(&[1.0, 3.0, 2.0, 4.0], &[0.25, 0.75], 2, &mut out);
        assert_eq!(out, [0.25 + 2.25, 0.5 + 3.0]);
    }

    #[test]
    fn blend_features_skips_exact_zero_weights_only() {
        // The w == 0.0 skip must not change results for nonzero weights;
        // with a NaN point and zero weight, the NaN is masked (pinned
        // behavior the tape relies on for out-of-cell vertices).
        let mut out = [f32::NAN; 2];
        blend_features_into(&[f32::NAN, 5.0, f32::NAN, 7.0], &[0.0, 1.0], 2, &mut out);
        assert_eq!(out, [5.0, 7.0]);
    }

    #[test]
    fn bias_and_affine_in_place() {
        let mut x = [1.0, 2.0, 3.0, 4.0];
        add_bias_features(&mut x, &[10.0, 20.0]);
        assert_eq!(x, [11.0, 12.0, 23.0, 24.0]);

        let mut y = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 2]);
        add_bias_channels(&mut y, &[1.0, -1.0]);
        assert_eq!(y.data(), &[2.0, 3.0, 2.0, 3.0]);

        let mut z = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 2]);
        channel_affine(&mut z, &[2.0, 0.5], &[1.0, 0.0]);
        assert_eq!(z.data(), &[3.0, 5.0, 1.5, 2.0]);
    }
}
