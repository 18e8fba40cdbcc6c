//! The two comparison baselines of paper Table 2.
//!
//! - **Baseline (I)** — classic trilinear interpolation of the LR data up to
//!   the HR grid; re-exported from `mfn-data` and wrapped here for a uniform
//!   interface.
//! - **Baseline (II)** — the same 3D U-Net backbone as MeshfreeFlowNet, but
//!   with a *convolutional decoder*: nearest-neighbour upsampling +
//!   convolution stages mapping the latent grid directly to the discrete HR
//!   patch (Fig. 5, right arm). No continuous queries, no PDE constraints.
//!   It is a [`Trainable`] model: [`crate::Trainer`] trains it in the loop
//!   MeshfreeFlowNet trains in, on the patches MeshfreeFlowNet draws.

use crate::config::MfnConfig;
use crate::losses::ChannelStats;
use crate::model::{covering_origins, extract_patch, StepLosses};
use crate::rng::SampleRng;
use crate::trainer::{Corpus, Trainable};
use crate::unet::UNet3d;
use mfn_autodiff::{BatchNorm3d, Conv3dLayer, Graph, ParamStore, Var};
use mfn_data::{make_batch, upsample_trilinear, Dataset, DatasetMeta, PatchSampler, CHANNELS};
use mfn_physics::RbcParams;
use mfn_tensor::Tensor;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Baseline (I): trilinear upsampling of `lr` onto `hr_like`'s grid.
pub fn baseline_trilinear(lr: &Dataset, hr_like: &Dataset) -> Dataset {
    upsample_trilinear(lr, hr_like)
}

/// One upsample+conv stage of the convolutional decoder.
#[derive(Debug, Clone)]
struct UpStage {
    factors: [usize; 3],
    conv: Conv3dLayer,
    bn: BatchNorm3d,
}

/// Baseline (II): U-Net encoder + convolutional decoder to the HR patch.
pub struct BaselineII {
    /// Architecture configuration (shared with MeshfreeFlowNet).
    pub cfg: MfnConfig,
    /// Total HR/LR upsampling factors `[t, z, x]`.
    pub factors: [usize; 3],
    /// Trainable parameters.
    pub store: ParamStore,
    unet: UNet3d,
    stages: Vec<UpStage>,
    head: Conv3dLayer,
}

impl BaselineII {
    /// Builds the baseline for given total upsampling factors (the paper's
    /// downsampling factors: `[d_t, d_s, d_s] = [4, 8, 8]`).
    pub fn new(cfg: MfnConfig, factors: [usize; 3]) -> Self {
        for f in factors {
            assert!(f.is_power_of_two(), "upsampling factors must be powers of two");
        }
        let mut store = ParamStore::new();
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed.wrapping_add(1));
        let unet = UNet3d::new(&mut store, &cfg, &mut rng);
        // Decompose into stages of ≤2 per axis (Fig. 5: [4,16,16]→[8,32,32]
        // →[16,64,64]→[16,128,128]).
        let mut rem = factors;
        let mut stages = Vec::new();
        let c = cfg.latent_channels;
        let mut idx = 0;
        while rem.iter().any(|&f| f > 1) {
            let f = [rem[0].min(2), rem[1].min(2), rem[2].min(2)];
            for a in 0..3 {
                rem[a] /= f[a];
            }
            stages.push(UpStage {
                factors: f,
                conv: Conv3dLayer::new(
                    &mut store,
                    &format!("b2.up{idx}.conv"),
                    c,
                    c,
                    [3, 3, 3],
                    &mut rng,
                ),
                bn: BatchNorm3d::new(&mut store, &format!("b2.up{idx}.bn"), c),
            });
            idx += 1;
        }
        let head =
            Conv3dLayer::new(&mut store, "b2.head", c, cfg.out_channels, [1, 1, 1], &mut rng);
        BaselineII { cfg, factors, store, unet, stages, head }
    }

    /// Total parameter count.
    pub fn param_count(&self) -> usize {
        self.store.total_numel()
    }

    /// Records the forward pass: `[N, 4, nt, nz, nx]` →
    /// `[N, 4, nt·ft, nz·fz, nx·fx]`.
    pub fn forward(&mut self, g: &mut Graph, x: Var, training: bool) -> Var {
        let mut h = self.unet.forward(g, &self.store, x, training);
        // Iterate by index to satisfy the borrow checker (stages are mutated
        // for their BN running stats while `self.store` is read).
        for si in 0..self.stages.len() {
            let f = self.stages[si].factors;
            h = g.upsample3d(h, f);
            h = self.stages[si].conv.forward(g, &self.store, h);
            h = self.stages[si].bn.forward(g, &self.store, h, training);
            h = g.relu(h);
        }
        self.head.forward(g, &self.store, h)
    }

    /// Super-resolves a full LR dataset onto `hr_meta`'s grid by tiling
    /// covering patches; overlapping regions take the last-written patch.
    pub fn super_resolve(
        &mut self,
        lr: &Dataset,
        hr_meta: &DatasetMeta,
        stats: ChannelStats,
    ) -> Dataset {
        let spec = self.cfg.patch;
        let origins = covering_origins(lr, spec);
        let [ft, fz, fx] = self.factors;
        let mut out = vec![0.0f32; hr_meta.nt * CHANNELS * hr_meta.nz * hr_meta.nx];
        for &t0 in &origins.t {
            for &z0 in &origins.z {
                for &x0 in &origins.x {
                    let patch = extract_patch(lr, [t0, z0, x0], spec, stats);
                    let mut g = Graph::new();
                    let x = g.constant(patch);
                    let y = self.forward(&mut g, x, false);
                    let yv = g.value(y);
                    let (pt, pz, px) = (spec.nt * ft, spec.nz * fz, spec.nx * fx);
                    for c in 0..CHANNELS {
                        for dt in 0..pt {
                            let f = (t0 * ft + dt).min(hr_meta.nt - 1);
                            for dz in 0..pz {
                                let j = (z0 * fz + dz).min(hr_meta.nz - 1);
                                for dx in 0..px {
                                    let i = (x0 * fx + dx).min(hr_meta.nx - 1);
                                    let v = yv.at(&[0, c, dt, dz, dx]);
                                    out[((f * CHANNELS + c) * hr_meta.nz + j) * hr_meta.nx + i] =
                                        stats.restore(c, v);
                                }
                            }
                        }
                    }
                }
            }
        }
        Dataset::from_parts(hr_meta.clone(), out)
    }
}

/// A Baseline (II) batch is `(input, target)`: the standardized LR patches
/// `[N, 4, nt, nz, nx]` of [`make_batch`] — the patches MeshfreeFlowNet
/// draws from the same stream, their query points unused — and the
/// [`hr_target_patch`] at each patch's origin, `[N, 4, nt·ft, nz·fz, nx·fx]`.
/// The loss is the L1 distance of the forward pass to the target; there is
/// no equation term.
impl Trainable for BaselineII {
    type Batch = (Tensor, Tensor);

    fn store(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn draw(&self, corpus: &Corpus, pair: usize, n: usize, rng: &mut SampleRng) -> Self::Batch {
        let ((hr, lr), stats) = (&corpus.pairs[pair], corpus.stats);
        let batch = make_batch(&PatchSampler::new(hr, lr, self.cfg.patch), n, rng);
        let mut input = batch.input;
        stats.standardize_patches(&mut input);
        let spacing = [lr.dt(), lr.dz(), lr.dx()];
        let targets: Vec<Tensor> = (batch.samples.iter())
            .map(|s| {
                let origin = [0, 1, 2].map(|k| (s.origin_phys[k] / spacing[k]).round() as usize);
                hr_target_patch(hr, origin, self.cfg.patch, self.factors, stats)
            })
            .collect();
        (input, Tensor::concat(&targets.iter().collect::<Vec<_>>(), 0))
    }

    fn samples((input, _): &Self::Batch) -> usize {
        input.dims()[0]
    }

    fn loss(
        &mut self,
        g: &mut Graph,
        (input, target): &Self::Batch,
        _: RbcParams,
        _: ChannelStats,
    ) -> (Var, StepLosses) {
        let x = g.constant(input.clone());
        let y = self.forward(g, x, true);
        let t = g.constant(target.clone());
        let loss = g.l1_loss(y, t);
        let l1 = g.value(loss).item();
        (loss, StepLosses { total: l1, prediction: l1, equation: 0.0 })
    }
}

/// Extracts the HR target patch aligned with an LR patch origin, shaped
/// `[1, 4, nt·ft, nz·fz, nx·fx]`, standardized with `stats`. Indices beyond
/// the HR grid clamp to the boundary (edge replication).
pub fn hr_target_patch(
    hr: &Dataset,
    lr_origin: [usize; 3],
    spec: mfn_data::PatchSpec,
    factors: [usize; 3],
    stats: ChannelStats,
) -> Tensor {
    let [ft, fz, fx] = factors;
    let (pt, pz, px) = (spec.nt * ft, spec.nz * fz, spec.nx * fx);
    let mut out = Tensor::zeros(&[1, CHANNELS, pt, pz, px]);
    let buf = out.data_mut();
    for c in 0..CHANNELS {
        for dt in 0..pt {
            let f = (lr_origin[0] * ft + dt).min(hr.meta.nt - 1);
            for dz in 0..pz {
                let j = (lr_origin[1] * fz + dz).min(hr.meta.nz - 1);
                for dx in 0..px {
                    let i = (lr_origin[2] * fx + dx).min(hr.meta.nx - 1);
                    buf[((c * pt + dt) * pz + dz) * px + dx] =
                        stats.standardize(c, hr.at(f, c, j, i));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Corpus;
    use mfn_data::{downsample, PatchSpec};
    use mfn_solver::{simulate, RbcConfig};

    fn tiny_cfg() -> MfnConfig {
        let mut cfg = MfnConfig::small();
        cfg.patch = PatchSpec { nt: 4, nz: 4, nx: 4, queries: 8 };
        cfg.base_channels = 4;
        cfg.latent_channels = 8;
        cfg.levels = 2;
        cfg
    }

    fn corpus() -> Corpus {
        let sim = simulate(
            &RbcConfig { nx: 16, nz: 9, ra: 1e5, dt_max: 2e-3, ..Default::default() },
            0.1,
            9,
        );
        let hr = Dataset::from_simulation(&sim);
        let lr = downsample(&hr, 2, 2);
        Corpus::new(vec![(hr, lr)])
    }

    #[test]
    fn forward_shape_matches_factors() {
        let mut b2 = BaselineII::new(tiny_cfg(), [2, 2, 2]);
        let mut g = Graph::new();
        let x = g.constant(Tensor::ones(&[1, 4, 4, 4, 4]));
        let y = b2.forward(&mut g, x, true);
        assert_eq!(g.value(y).dims(), &[1, 4, 8, 8, 8]);
    }

    #[test]
    fn asymmetric_factors() {
        let mut b2 = BaselineII::new(tiny_cfg(), [2, 4, 4]);
        let mut g = Graph::new();
        let x = g.constant(Tensor::ones(&[1, 4, 4, 4, 4]));
        let y = b2.forward(&mut g, x, true);
        assert_eq!(g.value(y).dims(), &[1, 4, 8, 16, 16]);
    }

    #[test]
    fn loss_backprop_reaches_params() {
        let corpus = corpus();
        let ((hr, lr), stats) = (&corpus.pairs[0], corpus.stats);
        let mut b2 = BaselineII::new(tiny_cfg(), [2, 2, 2]);
        // Batch of 2: with a single sample, batch norm at the U-Net's
        // [1,1,1] bottleneck normalizes over one element and (correctly)
        // passes zero gradient. Training steps take `TrainConfig::batch_size`
        // patches, as MeshfreeFlowNet's do; a batch size of one would hit
        // the same zero gradient at every step.
        let p0 = extract_patch(lr, [0, 0, 0], b2.cfg.patch, stats);
        let p1 = extract_patch(lr, [1, 1, 3], b2.cfg.patch, stats);
        let input = Tensor::concat(&[&p0, &p1], 0);
        let t0 = hr_target_patch(hr, [0, 0, 0], b2.cfg.patch, [2, 2, 2], stats);
        let t1 = hr_target_patch(hr, [1, 1, 3], b2.cfg.patch, [2, 2, 2], stats);
        let target = Tensor::concat(&[&t0, &t1], 0);
        let mut g = Graph::new();
        let (loss, comps) = b2.loss(&mut g, &(input, target), corpus.params(0), stats);
        assert_eq!((comps.prediction, comps.equation), (comps.total, 0.0));
        assert!(g.value(loss).item() > 0.0);
        g.backward(loss);
        let grads = g.param_grads(&b2.store);
        let nonzero = grads.iter().filter(|t| t.max_abs() > 0.0).count();
        assert!(nonzero as f64 > 0.9 * grads.len() as f64);
    }

    #[test]
    fn target_patch_values_align_with_hr() {
        let corpus = corpus();
        let (hr, stats) = (&corpus.pairs[0].0, corpus.stats);
        let spec = PatchSpec { nt: 2, nz: 3, nx: 3, queries: 1 };
        let t = hr_target_patch(hr, [1, 1, 2], spec, [2, 2, 2], stats);
        assert_eq!(t.dims(), &[1, 4, 4, 6, 6]);
        // Element (c=0, dt=1, dz=2, dx=3) = HR (f=3, j=4, i=7), standardized.
        let expect = stats.standardize(0, hr.at(3, 0, 4, 7));
        assert_eq!(t.at(&[0, 0, 1, 2, 3]), expect);
    }

    #[test]
    fn baseline_one_wraps_trilinear() {
        let corpus = corpus();
        let (hr, lr) = &corpus.pairs[0];
        let b1 = baseline_trilinear(lr, hr);
        assert_eq!(b1.meta.nt, hr.meta.nt);
        // Shared grid points are exact.
        assert!((b1.at(2, 0, 4, 6) - hr.at(2, 0, 4, 6)).abs() < 1e-5);
    }

    #[test]
    fn super_resolve_writes_whole_grid() {
        let corpus = corpus();
        let (hr, lr) = &corpus.pairs[0];
        let mut b2 = BaselineII::new(tiny_cfg(), [2, 2, 2]);
        let sr = b2.super_resolve(lr, &hr.meta, corpus.stats);
        assert_eq!(sr.data.len(), hr.data.len());
        assert!(sr.data.iter().all(|v| v.is_finite()));
    }
}
