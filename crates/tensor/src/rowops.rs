//! Row-oriented gather / blend / bias / affine / softplus kernels shared by
//! the reverse-mode tape (`mfn-autodiff`) and the no-grad inference path
//! (`mfn-core`'s blocked decode and frozen engine).
//!
//! Both execution paths must produce *bit-identical* outputs — the serving
//! engine's correctness contract is "same bytes as the training graph in
//! eval mode" — so the elementwise loops live here exactly once and both
//! callers delegate. Any change to summation order or zero-handling in these
//! functions changes the bits of every checkpointed model's predictions.
//!
//! Softplus and its derivative each have one scalar definition
//! ([`softplus_scalar`], [`sigmoid_scalar`], both in [`crate::simd`]); the
//! slice kernels re-exported beside them are those definitions on vectors.

pub use crate::simd::{
    bias_jet_rows, bias_softplus_grad_rows, bias_softplus_jet_rows, bias_softplus_rows,
    sigmoid_scalar, softplus_derivs, softplus_grad_slice, softplus_scalar, softplus_slice,
    JET_LANES,
};
use crate::tensor::Tensor;
use crate::workspace;

/// Gathers rows from a latent grid `grid: [N, C, D, H, W]` into `[M, C]`.
///
/// `index[m] = n*D*H*W + (d*H + h)*W + w` selects the vertex for output
/// row `m` (batch and spatial offsets pre-combined).
pub fn gather_rows(grid: &Tensor, index: &[u32]) -> Tensor {
    assert_eq!(grid.shape().rank(), 5, "gather_rows grid must be [N,C,D,H,W]");
    let (n, c) = (grid.dims()[0], grid.dims()[1]);
    let vol: usize = grid.dims()[2..].iter().product();
    let g = grid.data();
    let m = index.len();
    let mut out = workspace::take_vec_scratch(m * c);
    for (row, &flat) in index.iter().enumerate() {
        let flat = flat as usize;
        let ni = flat / vol;
        let sp = flat % vol;
        debug_assert!(ni < n, "gather index out of batch range");
        for ci in 0..c {
            out[row * c + ci] = g[(ni * c + ci) * vol + sp];
        }
    }
    Tensor::from_vec(out, &[m, c])
}

/// Fused gather + coordinate prefix for the decoder's no-grad hot path:
/// fills `out: [M, K + C]` so that each row is the `K` per-vertex values
/// from `prefix` followed by the gathered latent row. Bit-identical to
/// `Tensor::concat(&[prefix, gather_rows(grid, index)], 1)` — the values
/// are plain copies — but skips the intermediate `[M, C]` tensor and writes
/// into the caller's block buffer.
///
/// # Panics
/// Panics if `grid` is not rank 5, `prefix.len()` is not a multiple of
/// `index.len()`, or `out` is not `index.len()` rows of `K + C`.
pub fn gather_concat_rows(grid: &Tensor, index: &[u32], prefix: &[f32], out: &mut [f32]) {
    assert_eq!(grid.shape().rank(), 5, "gather_concat_rows grid must be [N,C,D,H,W]");
    let (n, c) = (grid.dims()[0], grid.dims()[1]);
    let vol: usize = grid.dims()[2..].iter().product();
    let g = grid.data();
    let m = index.len();
    assert!(
        m > 0 && prefix.len().is_multiple_of(m),
        "prefix length must be a multiple of the row count"
    );
    let k = prefix.len() / m;
    let w = k + c;
    assert_eq!(out.len(), m * w, "gather_concat_rows output length mismatch");
    for (row, (dst, &flat)) in out.chunks_exact_mut(w).zip(index).enumerate() {
        let flat = flat as usize;
        let ni = flat / vol;
        let sp = flat % vol;
        debug_assert!(ni < n, "gather index out of batch range");
        dst[..k].copy_from_slice(&prefix[row * k..(row + 1) * k]);
        for (ci, d) in dst[k..].iter_mut().enumerate() {
            *d = g[(ni * c + ci) * vol + sp];
        }
    }
}

/// Blends groups of `group` consecutive rows of `x: [Q*group, C]` with fixed
/// weights (`weights.len() == Q*group`), producing `[Q, C]` — the trilinear
/// vertex interpolation of the paper's Eqn. 6.
pub fn blend_rows(x: &Tensor, weights: &[f32], group: usize) -> Tensor {
    assert_eq!(x.shape().rank(), 2);
    let (rows, c) = (x.dims()[0], x.dims()[1]);
    assert_eq!(rows % group, 0, "blend_rows rows not divisible by group");
    let mut out = workspace::take_vec_scratch(rows / group * c);
    blend_rows_into(x.data(), weights, group, &mut out);
    Tensor::from_vec(out, &[rows / group, c])
}

/// [`blend_rows`] on slices: `x` holds `weights.len()` rows, `out` (fully
/// overwritten) one row per `group` of them.
pub fn blend_rows_into(x: &[f32], weights: &[f32], group: usize, out: &mut [f32]) {
    let q = weights.len() / group;
    assert!(q > 0 && weights.len() == q * group, "blend_rows weight count mismatch");
    assert_eq!(out.len() % q, 0, "blend_rows output is not one row per group");
    let c = out.len() / q;
    assert_eq!(x.len(), weights.len() * c, "blend_rows input length mismatch");
    out.fill(0.0);
    for ((dst, ws), rows) in
        out.chunks_exact_mut(c).zip(weights.chunks_exact(group)).zip(x.chunks_exact(group * c))
    {
        for (&w, src) in ws.iter().zip(rows.chunks_exact(c)) {
            if w == 0.0 {
                continue;
            }
            for (o, &s) in dst.iter_mut().zip(src) {
                *o += w * s;
            }
        }
    }
}

/// Adds bias vector `bias: [N]` to every row of `x: [M, N]`, in place.
pub fn add_bias_rows(x: &mut [f32], bias: &[f32]) {
    let n = bias.len();
    assert!(n > 0 && x.len().is_multiple_of(n), "add_bias_rows: rows do not match the bias");
    for row in x.chunks_exact_mut(n) {
        for (o, &bb) in row.iter_mut().zip(bias) {
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
        for (ch, sub) in slab.chunks_mut(inner).enumerate() {
            let bb = bias[ch];
            for o in sub {
                *o += bb;
            }
        }
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
    fn gather_rows_picks_expected_vertices() {
        // grid [1, 2, 1, 2, 2]: channel-major planes of 4 spatial points.
        let grid =
            Tensor::from_vec(vec![0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 12.0, 13.0], &[1, 2, 1, 2, 2]);
        let out = gather_rows(&grid, &[0, 3]);
        assert_eq!(out.dims(), &[2, 2]);
        assert_eq!(out.data(), &[0.0, 10.0, 3.0, 13.0]);
    }

    #[test]
    fn blend_rows_weighted_sum() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let out = blend_rows(&x, &[0.25, 0.75], 2);
        assert_eq!(out.dims(), &[1, 2]);
        assert_eq!(out.data(), &[0.25 + 2.25, 0.5 + 3.0]);
    }

    #[test]
    fn blend_rows_skips_exact_zero_weights_only() {
        // The w == 0.0 skip must not change results for nonzero weights;
        // with a NaN row and zero weight, the NaN is masked (pinned behavior
        // the tape relies on for out-of-cell vertices).
        let x = Tensor::from_vec(vec![f32::NAN, f32::NAN, 5.0, 7.0], &[2, 2]);
        let out = blend_rows(&x, &[0.0, 1.0], 2);
        assert_eq!(out.data(), &[5.0, 7.0]);
    }

    #[test]
    fn bias_and_affine_in_place() {
        let mut x = [1.0, 2.0, 3.0, 4.0];
        add_bias_rows(&mut x, &[10.0, 20.0]);
        assert_eq!(x, [11.0, 22.0, 13.0, 24.0]);

        let mut y = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 2]);
        add_bias_channels(&mut y, &[1.0, -1.0]);
        assert_eq!(y.data(), &[2.0, 3.0, 2.0, 3.0]);

        let mut z = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 2]);
        channel_affine(&mut z, &[2.0, 0.5], &[1.0, 0.0]);
        assert_eq!(z.data(), &[3.0, 5.0, 1.5, 2.0]);
    }
}
