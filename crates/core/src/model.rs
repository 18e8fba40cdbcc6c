//! The assembled MeshfreeFlowNet model (paper Sec. 4, Fig. 3).

use crate::config::MfnConfig;
use crate::decoder::ContinuousDecoder;
use crate::infer::FrozenModel;
use crate::losses::{self, ChannelStats};
use crate::rng::SampleRng;
use crate::trainer::{Corpus, Trainable};
use crate::unet::UNet3d;
use mfn_autodiff::{Graph, Mlp, ParamStore, Var};
use mfn_data::{
    covering_axis, make_batch, raw_patch, Batch, Dataset, DatasetMeta, PatchSampler, PatchSpec,
    CHANNELS,
};
use mfn_physics::RbcParams;
use mfn_tensor::le::ReadLe;
use mfn_tensor::Tensor;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Loss components of one training step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepLosses {
    /// Combined `L = L_p + γ L_e` (Eqn. 10).
    pub total: f32,
    /// Prediction loss `L_p` (Eqn. 8).
    pub prediction: f32,
    /// Equation loss `L_e` (Eqn. 9); zero when γ = 0 (not evaluated).
    pub equation: f32,
}

/// The end-to-end model: Context Generation Network + Continuous Decoding
/// Network over a shared parameter store.
pub struct MeshfreeFlowNet {
    /// Architecture configuration.
    pub cfg: MfnConfig,
    /// All trainable parameters.
    pub store: ParamStore,
    /// The 3D U-Net encoder.
    pub unet: UNet3d,
    /// The continuous decoder.
    pub decoder: ContinuousDecoder,
}

impl MeshfreeFlowNet {
    /// Builds and initializes the model from a configuration.
    pub fn new(cfg: MfnConfig) -> Self {
        let mut store = ParamStore::new();
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let unet = UNet3d::new(&mut store, &cfg, &mut rng);
        let mlp = Mlp::new(&mut store, "decoder", &cfg.mlp_widths(), cfg.activation, &mut rng);
        let decoder = ContinuousDecoder::new(mlp, cfg.latent_channels);
        MeshfreeFlowNet { cfg, store, unet, decoder }
    }

    /// Total scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.store.total_numel()
    }

    /// Streams the batch-norm running statistics (count, then per-layer
    /// channel count, means, variances) into `w` — the section of the
    /// training-state checkpoint that follows the parameters. They live in
    /// the layers, not the parameter store.
    pub fn write_bn_stats(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        let mut bns = Vec::new();
        self.unet.collect_bn(&mut bns);
        w.write_all(&(bns.len() as u64).to_le_bytes())?;
        for bn in bns {
            w.write_all(&(bn.running_mean.len() as u64).to_le_bytes())?;
            for &v in &bn.running_mean {
                w.write_all(&v.to_le_bytes())?;
            }
            for &v in &bn.running_var {
                w.write_all(&v.to_le_bytes())?;
            }
        }
        Ok(())
    }

    /// Restores batch-norm statistics written by [`write_bn_stats`] from
    /// the front of `r`, validating layer and channel counts against this
    /// model.
    ///
    /// [`write_bn_stats`]: MeshfreeFlowNet::write_bn_stats
    pub fn read_bn_stats(&mut self, r: &mut &[u8]) -> std::io::Result<()> {
        let invalid = std::io::ErrorKind::InvalidData;
        let count = r.u64()? as usize;
        let mut bns = Vec::new();
        self.unet.collect_bn_mut(&mut bns);
        if count != bns.len() {
            let msg = format!("checkpoint has {count} BN layers, model has {}", bns.len());
            return Err(std::io::Error::new(invalid, msg));
        }
        for bn in bns {
            if r.u64()? != bn.running_mean.len() as u64 {
                return Err(std::io::Error::new(invalid, "BN channel count mismatch"));
            }
            r.f32s_into(&mut bn.running_mean)?;
            r.f32s_into(&mut bn.running_var)?;
        }
        Ok(())
    }

    /// The latent grid vertex dims `[nt, nz, nx]`.
    pub fn grid_dims(&self) -> [usize; 3] {
        [self.cfg.patch.nt, self.cfg.patch.nz, self.cfg.patch.nx]
    }

    /// Records the combined loss (Eqn. 10) for a batch — the only place a
    /// training tape is assembled. Returns `(loss_var, components)`. The
    /// batch is in physical units; its input and targets are standardized
    /// here, with `stats`, the statistics the equation loss restores with.
    ///
    /// With `γ > 0` the decoder runs once, on six lanes: the equation loss
    /// reads all of them and the prediction loss the value lane, which is
    /// bit for bit what the one-lane decode of `γ = 0` computes.
    pub fn loss_on_batch(
        &mut self,
        g: &mut Graph,
        batch: &Batch,
        params: RbcParams,
        stats: ChannelStats,
        training: bool,
    ) -> (Var, StepLosses) {
        let mut input = batch.input.clone();
        stats.standardize_patches(&mut input);
        let x = g.constant(input);
        let latent = self.unet.forward(g, &self.store, x, training);
        let (grid, samples) = (self.grid_dims(), &batch.samples[..]);
        let plan = losses::prediction_plan(grid, samples);
        let (predictions, equation) = if self.cfg.gamma > 0.0 {
            let extent = losses::batch_extent(samples);
            let lanes = self.decoder.decode_derivs(g, &self.store, latent, &plan, grid, extent);
            let (eq, _) = losses::equation_loss(g, lanes, params, stats, self.cfg.constraints);
            (g.narrow(lanes, 0, 0, plan.len()), Some(eq))
        } else {
            (self.decoder.decode(g, &self.store, latent, &plan), None)
        };
        let pred_loss = losses::prediction_loss(g, predictions, samples, stats);
        let (total, equation) = match equation {
            Some(eq_loss) => {
                let scaled = g.scale(eq_loss, self.cfg.gamma);
                (g.add(pred_loss, scaled), g.value(eq_loss).item())
            }
            None => (pred_loss, 0.0),
        };
        let comps = StepLosses {
            total: g.value(total).item(),
            prediction: g.value(pred_loss).item(),
            equation,
        };
        (total, comps)
    }

    /// Super-resolves a full LR dataset onto the grid described by
    /// `hr_meta`: [`FrozenModel::super_resolve`] on a
    /// [`FrozenModel::snapshot`] of the current weights, taken per call.
    pub fn super_resolve(
        &self,
        lr: &Dataset,
        hr_meta: &DatasetMeta,
        stats: ChannelStats,
    ) -> Dataset {
        FrozenModel::snapshot(self).super_resolve(lr, hr_meta, stats)
    }
}

/// MeshfreeFlowNet trains on [`make_batch`]'s patches and query points and
/// on the combined loss of [`MeshfreeFlowNet::loss_on_batch`].
impl Trainable for MeshfreeFlowNet {
    type Batch = Batch;

    fn store(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn draw(&self, corpus: &Corpus, pair: usize, n: usize, rng: &mut SampleRng) -> Batch {
        let (hr, lr) = &corpus.pairs[pair];
        make_batch(&PatchSampler::new(hr, lr, self.cfg.patch), n, rng)
    }

    fn samples(batch: &Batch) -> usize {
        batch.samples.len()
    }

    fn loss(
        &mut self,
        g: &mut Graph,
        batch: &Batch,
        params: RbcParams,
        stats: ChannelStats,
    ) -> (Var, StepLosses) {
        self.loss_on_batch(g, batch, params, stats, true)
    }
}

/// Extracts the `[1, 4, nt, nz, nx]` patch of an LR dataset at a grid
/// origin, standardized with `stats`: the model input for that patch.
pub fn extract_patch(
    lr: &Dataset,
    origin: [usize; 3],
    spec: PatchSpec,
    stats: ChannelStats,
) -> Tensor {
    let dims = [1, CHANNELS, spec.nt, spec.nz, spec.nx];
    let mut patch = raw_patch(lr, origin, spec).reshape(&dims);
    stats.standardize_patches(&mut patch);
    patch
}

/// Cartesian-product covering origins per axis.
#[derive(Debug, Clone)]
pub struct CoveringOrigins {
    /// Time-axis origins.
    pub t: Vec<usize>,
    /// z-axis origins.
    pub z: Vec<usize>,
    /// x-axis origins.
    pub x: Vec<usize>,
}

/// Covering origins for a LR dataset and patch spec.
pub fn covering_origins(lr: &Dataset, spec: PatchSpec) -> CoveringOrigins {
    CoveringOrigins {
        t: covering_axis(lr.meta.nt, spec.nt),
        z: covering_axis(lr.meta.nz, spec.nz),
        x: covering_axis(lr.meta.nx, spec.nx),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfn_data::downsample;
    use mfn_solver::{simulate, RbcConfig};

    fn tiny_model() -> MeshfreeFlowNet {
        let mut cfg = MfnConfig::small();
        cfg.patch = PatchSpec { nt: 4, nz: 4, nx: 4, queries: 16 };
        cfg.base_channels = 4;
        cfg.latent_channels = 8;
        cfg.mlp_hidden = vec![16, 16];
        cfg.levels = 2;
        MeshfreeFlowNet::new(cfg)
    }

    fn tiny_corpus() -> Corpus {
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
    fn model_builds_and_counts_params() {
        let m = tiny_model();
        assert!(m.param_count() > 1000, "params {}", m.param_count());
        let paper = MeshfreeFlowNet::new(MfnConfig::paper());
        // Paper-scale model should be in the millions of parameters.
        assert!(paper.param_count() > 1_000_000, "paper params {}", paper.param_count());
    }

    #[test]
    fn loss_on_batch_produces_gradients() {
        let mut m = tiny_model();
        let corpus = tiny_corpus();
        let (hr, lr) = &corpus.pairs[0];
        let sampler = PatchSampler::new(hr, lr, m.cfg.patch);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let batch = make_batch(&sampler, 2, &mut rng);
        let (stats, params) = (corpus.stats, corpus.params(0));
        let mut g = Graph::new();
        let (loss, comps) = m.loss_on_batch(&mut g, &batch, params, stats, true);
        assert!(comps.total.is_finite() && comps.total > 0.0);
        assert!(comps.equation > 0.0, "gamma > 0 must evaluate the equation loss");
        assert!((comps.total - comps.prediction - m.cfg.gamma * comps.equation).abs() < 1e-4);
        g.backward(loss);
        let grads = g.param_grads(&m.store);
        let nonzero = grads.iter().filter(|t| t.max_abs() > 0.0).count();
        assert!(nonzero as f64 > 0.9 * grads.len() as f64, "{nonzero}/{}", grads.len());
    }

    #[test]
    fn gamma_zero_skips_equation_loss() {
        let mut m = tiny_model();
        m.cfg.gamma = 0.0;
        let corpus = tiny_corpus();
        let (hr, lr) = &corpus.pairs[0];
        let sampler = PatchSampler::new(hr, lr, m.cfg.patch);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let batch = make_batch(&sampler, 1, &mut rng);
        let (stats, params) = (corpus.stats, corpus.params(0));
        let mut g = Graph::new();
        let (_, comps) = m.loss_on_batch(&mut g, &batch, params, stats, true);
        assert_eq!(comps.equation, 0.0);
        assert_eq!(comps.total, comps.prediction);
        // γ = 0 decodes on one lane; the six-lane decode of γ > 0 predicts
        // the same bits from its value lane.
        m.cfg.gamma = 0.05;
        let mut g6 = Graph::new();
        let (_, with_eq) = m.loss_on_batch(&mut g6, &batch, params, stats, true);
        assert!(with_eq.equation > 0.0 && g.len() < g6.len());
        assert_eq!(comps.prediction.to_bits(), with_eq.prediction.to_bits());
    }

    #[test]
    fn super_resolve_covers_whole_grid() {
        let m = tiny_model();
        let corpus = tiny_corpus();
        let (hr, lr) = &corpus.pairs[0];
        let sr = m.super_resolve(lr, &hr.meta, corpus.stats);
        assert_eq!(sr.meta.nt, hr.meta.nt);
        assert_eq!(sr.data.len(), hr.data.len());
        // Untrained output is garbage but must be finite everywhere.
        assert!(sr.data.iter().all(|v| v.is_finite()));
        // And not identically zero (every point was written).
        let nonzero = sr.data.iter().filter(|v| **v != 0.0).count();
        assert!(nonzero as f64 > 0.99 * sr.data.len() as f64);
    }

    /// The live model's `super_resolve` is the frozen engine's: bit for bit
    /// what an engine frozen from a copy of the weights and batch-norm
    /// statistics returns, over twelve covering patches, before and after a
    /// training step — a snapshot kept across calls would miss the step.
    #[test]
    fn super_resolve_is_the_frozen_engines_on_a_copy() {
        use crate::config::TrainConfig;
        use crate::trainer::Trainer;

        let corpus = tiny_corpus();
        let (hr, lr) = &corpus.pairs[0];
        let origins = covering_origins(lr, tiny_model().cfg.patch);
        assert_eq!([origins.t.len(), origins.z.len(), origins.x.len()], [2, 2, 3]);
        let cfg = TrainConfig { batch_size: 2, ..TrainConfig::default() };
        let mut trainer = Trainer::new(tiny_model(), cfg);
        let bits = |ds: &Dataset| ds.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut before = None;
        for _ in 0..2 {
            let live = &trainer.model;
            let mut copy = MeshfreeFlowNet::new(live.cfg.clone());
            copy.store.unflatten_into(&live.store.flatten());
            let mut bn = Vec::new();
            live.write_bn_stats(&mut bn).expect("writing to a Vec cannot fail");
            copy.read_bn_stats(&mut bn.as_slice()).expect("same architecture");
            let want = FrozenModel::from_model(copy).super_resolve(lr, &hr.meta, corpus.stats);
            let got = live.super_resolve(lr, &hr.meta, corpus.stats);
            assert_eq!(bits(&got), bits(&want));
            assert_ne!(before.replace(bits(&got)), Some(bits(&got)), "the step had no effect");
            let sampler = PatchSampler::new(hr, lr, trainer.model.cfg.patch);
            let batch = make_batch(&sampler, 2, &mut ChaCha8Rng::seed_from_u64(3));
            trainer.step(&batch, corpus.params(0), corpus.stats);
        }
    }

    #[test]
    fn covering_axis_properties() {
        for (len, p) in [(9usize, 4usize), (16, 4), (5, 5), (7, 3)] {
            let v = covering_axis(len, p);
            assert_eq!(*v.first().expect("nonempty"), 0);
            assert_eq!(*v.last().expect("nonempty") + p, len);
            for w in v.windows(2) {
                assert!(w[1] > w[0]);
                assert!(w[1] - w[0] < p, "gap too large: {v:?}");
            }
        }
    }
}
