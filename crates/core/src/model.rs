//! The assembled MeshfreeFlowNet model (paper Sec. 4, Fig. 3).

use crate::config::MfnConfig;
use crate::decoder::{
    decode_packed, plan_queries, plan_queries_into, ContinuousDecoder, QueryPlan,
};
use crate::losses::{self, ChannelStats};
use crate::unet::UNet3d;
use mfn_autodiff::{Graph, Mlp, ParamStore, Var};
use mfn_data::{covering_axis, raw_patch, Batch, Dataset, DatasetMeta, PatchSpec, CHANNELS};
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

    /// Encodes a stacked input `[N, 4, nt, nz, nx]` into a latent grid value
    /// — the eager eval-mode forward (`UNet3d::forward_nograd`): no tape is
    /// built and batch-norm statistics are read, never updated. Bit-identical
    /// to `unet.forward(.., training = false)` on a `Graph`.
    pub fn encode(&self, input: &Tensor) -> Tensor {
        self.unet.forward_nograd(&self.store, input)
    }

    /// Decodes query points against an encoded latent grid value with the
    /// blocked no-grad pipeline (`ContinuousDecoder::decode_nograd`, no
    /// tape) — bit-identical to the `decoder.decode` the training graph
    /// records. `queries` are `(batch, local)` pairs; returns normalized
    /// predictions `[Q, 4]`.
    pub fn decode_values(
        &self,
        latent: &Tensor,
        queries: impl IntoIterator<Item = (usize, [f32; 3])>,
    ) -> Tensor {
        let plan = plan_queries(self.grid_dims(), queries);
        self.decoder.decode_nograd(&self.store, latent, &plan)
    }

    /// Super-resolves a full LR dataset onto the grid described by
    /// `hr_meta`, returning a dataset with denormalized physical values.
    ///
    /// The LR grid is tiled with covering patches (consecutive patches share
    /// a boundary vertex); every HR grid point is decoded from *all* patches
    /// containing it and the results blended with separable hat weights
    /// peaking at the patch center. The blending removes patch-seam
    /// artifacts that would otherwise corrupt the spectral metrics (integral
    /// scale, Taylor microscale). `stats` must be the training corpus's
    /// [`crate::Corpus::stats`].
    pub fn super_resolve(
        &self,
        lr: &Dataset,
        hr_meta: &DatasetMeta,
        stats: ChannelStats,
    ) -> Dataset {
        self.super_resolve_on(None, lr, hr_meta, stats)
    }

    /// [`MeshfreeFlowNet::super_resolve`] with every patch decoded on exactly
    /// `workers` threads where `None` lets the decode pick — for the
    /// thread-count invariance tests only; the result does not depend on it.
    #[doc(hidden)]
    pub fn super_resolve_on(
        &self,
        workers: Option<usize>,
        lr: &Dataset,
        hr_meta: &DatasetMeta,
        stats: ChannelStats,
    ) -> Dataset {
        let spec = self.cfg.patch;
        let origins = covering_origins(lr, spec);
        let n_out = hr_meta.nt * CHANNELS * hr_meta.nz * hr_meta.nx;
        let mut acc = vec![0.0f64; n_out];
        let mut wsum = vec![0.0f64; hr_meta.nt * hr_meta.nz * hr_meta.nx];
        let hr_dt = if hr_meta.nt < 2 { 0.0 } else { hr_meta.duration / (hr_meta.nt - 1) as f64 };
        let hr_dz = hr_meta.lz / (hr_meta.nz - 1).max(1) as f64;
        let hr_dx = hr_meta.lx / hr_meta.nx as f64;
        let extent = [
            (spec.nt - 1) as f64 * lr.dt(),
            (spec.nz - 1) as f64 * lr.dz(),
            (spec.nx - 1) as f64 * lr.dx(),
        ];
        // HR index interval covered by a patch starting at `origin` along one
        // axis; the last patch also owns the trailing edge/wrap gap.
        let covered = |n_hr: usize, h_hr: f64, origin_pos: f64, ext: f64, last: bool| {
            let lo = (origin_pos / h_hr.max(1e-30) - 1e-9).ceil().max(0.0) as usize;
            let hi = if last {
                n_hr.saturating_sub(1)
            } else {
                (((origin_pos + ext) / h_hr.max(1e-30)) + 1e-9).floor() as usize
            };
            (lo, hi.min(n_hr.saturating_sub(1)))
        };
        // Separable hat weight: 1 at the patch center, small but positive at
        // the faces so boundary points (covered by one patch only) still get
        // written.
        let hat =
            |s: f32| -> f64 { 0.02 + (s.clamp(0.0, 1.0).min(1.0 - s.clamp(0.0, 1.0))) as f64 };
        // One axis of a patch: the local coordinate and hat weight of each HR
        // index it covers. Both are separable, so a patch needs three short
        // tables, not three clamps and divisions per point.
        let axis = |(lo, hi): (usize, usize), h_hr: f64, origin_pos: f64, ext: f64| {
            let entry = |i: usize| {
                let local = ((i as f64 * h_hr - origin_pos) / ext.max(1e-30)) as f32;
                (local, hat(local))
            };
            (lo..=hi).map(entry).collect::<Vec<(f32, f64)>>()
        };
        let packed = self.decoder.mlp.pack(&self.store);
        let mut plan = QueryPlan::default();

        for (ti, &t0) in origins.t.iter().enumerate() {
            let o_t = t0 as f64 * lr.dt();
            let frames = covered(hr_meta.nt, hr_dt, o_t, extent[0], ti + 1 == origins.t.len());
            let along_t = axis(frames, hr_dt, o_t, extent[0]);
            for (zi, &z0) in origins.z.iter().enumerate() {
                let o_z = z0 as f64 * lr.dz();
                let rows = covered(hr_meta.nz, hr_dz, o_z, extent[1], zi + 1 == origins.z.len());
                let along_z = axis(rows, hr_dz, o_z, extent[1]);
                for (xi, &x0) in origins.x.iter().enumerate() {
                    let o_x = x0 as f64 * lr.dx();
                    let cols =
                        covered(hr_meta.nx, hr_dx, o_x, extent[2], xi + 1 == origins.x.len());
                    let along_x = axis(cols, hr_dx, o_x, extent[2]);
                    if along_t.is_empty() || along_z.is_empty() || along_x.is_empty() {
                        continue;
                    }
                    let patch = extract_patch(lr, [t0, z0, x0], spec, stats);
                    let latent = self.encode(&patch);
                    // `decode_values`, with the plan's buffers and the packed
                    // weights kept across patches.
                    let points = along_t.iter().flat_map(|&(t, _)| {
                        let along_x = &along_x;
                        along_z.iter().flat_map(move |&(z, _)| {
                            along_x.iter().map(move |&(x, _)| (0usize, [t, z, x]))
                        })
                    });
                    plan_queries_into(&mut plan, self.grid_dims(), points);
                    let pred = decode_packed(&packed, &latent, &plan, workers, None);
                    // Blend in patch order on this thread: `w` is the f64
                    // product `hat_t * hat_z * hat_x`, left to right.
                    let mut values = pred.data().chunks_exact(CHANNELS);
                    for (f, &(_, hat_t)) in (frames.0..).zip(&along_t) {
                        for (j, &(_, hat_z)) in (rows.0..).zip(&along_z) {
                            let hat_tz = hat_t * hat_z;
                            for (i, &(_, hat_x)) in (cols.0..).zip(&along_x) {
                                let w = hat_tz * hat_x;
                                wsum[(f * hr_meta.nz + j) * hr_meta.nx + i] += w;
                                let values = values.next().expect("one prediction per query");
                                for (c, &raw) in values.iter().enumerate() {
                                    acc[((f * CHANNELS + c) * hr_meta.nz + j) * hr_meta.nx + i] +=
                                        w * raw as f64;
                                }
                            }
                        }
                    }
                }
            }
        }
        let mut out = vec![0.0f32; n_out];
        for f in 0..hr_meta.nt {
            for c in 0..CHANNELS {
                for j in 0..hr_meta.nz {
                    for i in 0..hr_meta.nx {
                        let w = wsum[(f * hr_meta.nz + j) * hr_meta.nx + i];
                        debug_assert!(w > 0.0, "HR point ({f},{j},{i}) uncovered");
                        let v = acc[((f * CHANNELS + c) * hr_meta.nz + j) * hr_meta.nx + i]
                            / w.max(1e-30);
                        out[((f * CHANNELS + c) * hr_meta.nz + j) * hr_meta.nx + i] =
                            stats.restore(c, v as f32);
                    }
                }
            }
        }
        let mut ds = Dataset::from_parts(hr_meta.clone(), out);
        ds.refresh_stats();
        ds
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
    let mut patch = Tensor::from_vec(raw_patch(lr, origin, spec), &dims);
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
    use crate::Corpus;
    use mfn_data::{downsample, make_batch, PatchSampler};
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
