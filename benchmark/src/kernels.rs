//! The bottom rungs of the replay ladder: the model's own GEMM and conv3d
//! shapes replayed straight through `mfn_tensor`, so a kernel change shows
//! here before it shows in `core.decode_us_per_point` or `core.encode_ms`.

use crate::measure::median;
use crate::trace::At;
use mfn_core::{FrozenModel, MfnConfig, VERTICES};
use mfn_tensor::{conv3d_auto, gemm, MatLayout, Tensor};
use std::hint::black_box;
use std::time::Instant;

/// Summed median time of a group of kernel calls, and their operation count.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelTime {
    /// Σ over the group's shapes of the median call time.
    pub us: f64,
    /// Floating-point operations of one pass over the group.
    pub flops: f64,
}

impl KernelTime {
    /// Achieved rate; 0 for an empty group.
    pub fn gflops(&self) -> f64 {
        if self.us > 0.0 {
            self.flops / self.us * 1e-3
        } else {
            0.0
        }
    }
}

/// Median wall time (µs) of `reps` calls of `f`, each inside a span.
pub fn median_us(reps: usize, at: At<'_>, name: &'static str, mut f: impl FnMut()) -> f64 {
    let times = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            at.span(name, |_| f());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(times)
}

fn time_gemm(m: usize, k: usize, n: usize, reps: usize, at: At<'_>) -> f64 {
    // Values do not matter: the kernels have no zero-skip or data-dependent
    // branch. B is stored `[n, k]`, as `matmul_nt` passes a Linear's weight.
    let a = vec![0.5f32; m * k];
    let b = vec![0.25f32; n * k];
    let mut c = vec![0.0f32; m * n];
    median_us(reps, at, "tensor.gemm", || {
        gemm(m, k, n, black_box(&a), MatLayout::Normal, &b, MatLayout::Transposed, &mut c);
        black_box(&mut c);
    })
}

/// The decoder MLP's GEMMs for a decode of `points` query points (each point
/// reads [`VERTICES`] latent vertices, so the row count is 8 × `points`).
pub fn decoder_gemms(cfg: &MfnConfig, points: usize, reps: usize, at: At<'_>) -> KernelTime {
    let rows = points * VERTICES;
    let mut out = KernelTime::default();
    for w in cfg.mlp_widths().windows(2) {
        out.us += time_gemm(rows, w[0], w[1], reps, at);
        out.flops += 2.0 * (rows * w[0] * w[1]) as f64;
    }
    out
}

/// What the GEMM kernel sustains on a shape that suits it (256³), measured
/// in the same run so the decoder's shapes have a ceiling to be read against.
pub fn gemm_peak_gflops(reps: usize, at: At<'_>) -> f64 {
    const N: usize = 256;
    let us = time_gemm(N, N, N, reps, at);
    KernelTime { us, flops: 2.0 * (N * N * N) as f64 }.gflops()
}

/// U-Net depth of the block a parameter belongs to: `unet.down{l}` works at
/// level `l + 1`, `unet.up{l}` at level `l`, stem and head at level 0.
fn unet_level(name: &str) -> Option<usize> {
    let block = name.strip_prefix("unet.")?.split('.').next()?;
    if let Some(l) = block.strip_prefix("down") {
        l.parse::<usize>().ok().map(|l| l + 1)
    } else if let Some(l) = block.strip_prefix("up") {
        l.parse().ok()
    } else {
        Some(0)
    }
}

/// Every convolution of one U-Net forward pass over `batch` patches, replayed
/// through `conv3d_auto` with the model's own weights.
pub fn unet_convs(model: &FrozenModel, batch: usize, reps: usize, at: At<'_>) -> KernelTime {
    let cfg = model.cfg();
    let pools = cfg.pool_factors();
    let mut out = KernelTime::default();
    for (_, name, weight) in model.params().iter() {
        let (Some(level), [cout, cin, kd, kh, kw]) = (unet_level(name), weight.dims()) else {
            continue;
        };
        let mut spatial = [cfg.patch.nt, cfg.patch.nz, cfg.patch.nx];
        for f in &pools[..level] {
            for (s, f) in spatial.iter_mut().zip(f) {
                *s /= f;
            }
        }
        let vol: usize = spatial.iter().product();
        let input = Tensor::from_vec(
            vec![0.5; batch * cin * vol],
            &[batch, *cin, spatial[0], spatial[1], spatial[2]],
        );
        out.us += median_us(reps, at, "tensor.conv3d", || {
            black_box(conv3d_auto(black_box(&input), weight));
        });
        out.flops += 2.0 * (batch * vol * cout * cin * kd * kh * kw) as f64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfn_core::MeshfreeFlowNet;

    #[test]
    fn unet_levels_follow_the_block_names() {
        assert_eq!(unet_level("unet.stem.conv2.weight"), Some(0));
        assert_eq!(unet_level("unet.down1.conv1.weight"), Some(2));
        assert_eq!(unet_level("unet.up0.skip.weight"), Some(0));
        assert_eq!(unet_level("unet.head.weight"), Some(0));
        assert_eq!(unet_level("decoder.l0.weight"), None);
    }

    #[test]
    fn replays_cover_every_layer_with_the_right_operation_counts() {
        let cfg = crate::setup::model_config(crate::setup::Scale::FULL);
        let g = decoder_gemms(&cfg, 4, 1, At::root(None, 0));
        let per_row: usize = cfg.mlp_widths().windows(2).map(|w| w[0] * w[1]).sum();
        assert_eq!(g.flops, 2.0 * (4 * VERTICES * per_row) as f64);
        assert!(g.us > 0.0 && g.gflops() > 0.0);

        let frozen = FrozenModel::from_model(MeshfreeFlowNet::new(cfg.clone()));
        let c = unet_convs(&frozen, 1, 1, At::root(None, 0));
        // Stem at full resolution alone: 1x1 (4->8), 3x3x3 (8->8), 1x1 (8->8), skip 1x1 (4->8).
        let vol = cfg.patch.nt * cfg.patch.nz * cfg.patch.nx;
        let stem = 2 * vol * (4 * 8 + 8 * 8 * 27 + 8 * 8 + 4 * 8);
        assert!(c.flops > stem as f64 && c.us > 0.0);
    }
}
