//! The frozen inference engine: an immutable, grad-free view of a trained
//! MeshfreeFlowNet, and the one place mfn-core runs inference.
//!
//! [`FrozenModel`] wraps a model whose parameter store is private — the only
//! access the outside world gets is the read-only [`FrozenParams`] view — and
//! whose forward passes build no autodiff tape: batch norm runs on frozen
//! running statistics, and every method takes `&self`. That `&self` is
//! load-bearing: the serving layer shares one `FrozenModel` behind an `Arc`
//! across all worker threads and decodes concurrent query batches without
//! any locking around the weights.
//!
//! Every no-grad encode, decode and super-resolution goes through here —
//! serving, `repro`'s tables, the `train` binary's validation pass and
//! `MeshfreeFlowNet::super_resolve`, which freezes a [`FrozenModel::snapshot`]
//! of the live weights per call. The weight-side work happens once, at
//! construction: every weight, the decoder MLP's layers (`PackedMlp`) and the
//! U-Net's convs alike, packed into the A panels of its GEMM, and every batch
//! norm reduced to its eval-mode `(scale, shift)` (`PackedUNet`). Nothing can
//! make those snapshots stale: no method hands out `&mut` to the store or the
//! running statistics, and the `UNet3d` they were taken from is not kept.
//! Both forwards are bit-identical to the training graph in eval mode (pinned
//! by the `inference_equivalence` property tests in `mfn-serve`): the kernels
//! are shared — the decoder runs the tape's feature-major layout, conv driver
//! and `mfn_tensor::rowops` epilogues — and a prepacked panel is the panel
//! the tape's per-call pack builds.

use crate::checkpoint::{
    decode_inference_state, load_train_state_with_fallback, read_config, CheckpointError,
};
use crate::config::MfnConfig;
use crate::decoder::{decode_packed, ContinuousDecoder, DecodeStages, Queries};
use crate::losses::ChannelStats;
use crate::model::{covering_origins, extract_patch, MeshfreeFlowNet};
use crate::unet::PackedUNet;
use mfn_autodiff::{FrozenParams, PackedMlp, ParamStore};
use mfn_data::{Dataset, DatasetMeta, CHANNELS};
use mfn_tensor::Tensor;
use std::path::Path;

/// An immutable inference engine over trained weights.
pub struct FrozenModel {
    cfg: MfnConfig,
    store: ParamStore,
    /// The U-Net's conv weights and the decoder MLP's weights as GEMM A
    /// panels, and the batch norms as eval-mode affines — all taken once
    /// here: `store` and the running statistics are private
    /// and never written, so they cannot go stale.
    unet: PackedUNet,
    decoder: ContinuousDecoder,
    packed: PackedMlp,
    trained_steps: u64,
}

impl FrozenModel {
    /// Freezes an in-memory model (e.g. straight out of a trainer).
    pub fn from_model(model: MeshfreeFlowNet) -> Self {
        Self::with_steps(model, 0)
    }

    /// Freezes a copy of a live model's current weights and batch-norm
    /// statistics, leaving the model as it is (it may go on training; the
    /// engine does not follow).
    pub fn snapshot(model: &MeshfreeFlowNet) -> Self {
        let MeshfreeFlowNet { cfg, store, unet, decoder } = model;
        let (cfg, store, unet, decoder) =
            (cfg.clone(), store.clone(), unet.clone(), decoder.clone());
        Self::from_model(MeshfreeFlowNet { cfg, store, unet, decoder })
    }

    fn with_steps(model: MeshfreeFlowNet, trained_steps: u64) -> Self {
        let MeshfreeFlowNet { cfg, store, unet, decoder } = model;
        let unet = unet.pack(&store, [cfg.patch.nt, cfg.patch.nz, cfg.patch.nx]);
        let packed = decoder.mlp.pack(&store);
        FrozenModel { cfg, store, unet, decoder, packed, trained_steps }
    }

    /// Loads a `MFNSTAT1` train-state file (as the training driver writes
    /// it) into a frozen engine through [`FrozenModel::from_state`]. Falls
    /// back to `<path>.prev` when the newest frame is corrupt.
    pub fn load_state(path: &Path) -> Result<Self, CheckpointError> {
        Self::from_state(&load_train_state_with_fallback(path)?)
    }

    /// Freezes a train-state payload (the bytes `encode_train_state`
    /// produced, e.g. a training run's final state). The model is built
    /// from the architecture section that opens the payload, once that
    /// section is checked against the payload's size. Only parameters and
    /// BN running statistics are restored; the Adam moments in the trailing
    /// section of the payload are never materialized.
    pub fn from_state(payload: &[u8]) -> Result<Self, CheckpointError> {
        let mut model = MeshfreeFlowNet::new(read_config(&mut &payload[..])?);
        let meta = decode_inference_state(&mut model, &mut &payload[..])?;
        Ok(Self::with_steps(model, meta.global_step))
    }

    /// The architecture configuration the engine was built with.
    pub fn cfg(&self) -> &MfnConfig {
        &self.cfg
    }

    /// Read-only view of the weights (serving diagnostics, parameter counts).
    pub fn params(&self) -> FrozenParams<'_> {
        self.store.frozen()
    }

    /// Total scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.store.total_numel()
    }

    /// Gradient steps the checkpoint had taken when frozen (0 for
    /// [`FrozenModel::from_model`]).
    pub fn trained_steps(&self) -> u64 {
        self.trained_steps
    }

    /// The latent grid vertex dims `[nt, nz, nx]`.
    pub fn grid_dims(&self) -> [usize; 3] {
        [self.cfg.patch.nt, self.cfg.patch.nz, self.cfg.patch.nx]
    }

    /// Encodes a stacked input `[N, in_channels, nt, nz, nx]` into a Latent
    /// Context Grid `[N, n_c, nt, nz, nx]` — the expensive encode-once half
    /// of serving. No tape, no BN-stat updates.
    ///
    /// # Panics
    /// Panics if the input dims do not match the configured patch shape.
    pub fn encode(&self, input: &Tensor) -> Tensor {
        let d = input.dims();
        assert_eq!(d.len(), 5, "encode input must be [N, C, nt, nz, nx]");
        assert_eq!(
            &d[1..],
            &[self.cfg.in_channels, self.cfg.patch.nt, self.cfg.patch.nz, self.cfg.patch.nx],
            "encode input shape does not match the model's patch spec"
        );
        self.unet.forward_nograd(input)
    }

    /// Decodes continuous point queries against an encoded latent grid —
    /// the cheap decode-many half. `queries` are `(batch, [t, z, x])` pairs
    /// with local coordinates in `[0, 1]`; returns normalized predictions
    /// `[Q, out_channels]`.
    pub fn decode_values(
        &self,
        latent: &Tensor,
        queries: impl IntoIterator<Item = (usize, [f32; 3])>,
    ) -> Tensor {
        self.decode_values_with(latent, queries, None, None)
    }

    /// [`FrozenModel::decode_values`] on exactly `workers` threads (as many
    /// as there are blocks, at most) where `None` lets the call pick, adding
    /// each stage's wall time to `stages` when given (`None` reads no clock)
    /// — for the thread-count invariance tests and the bench's stage and
    /// one-core rows only; the result depends on neither. The queries are
    /// only collected here: each block is planned by the worker that decodes
    /// it.
    #[doc(hidden)]
    pub fn decode_values_with(
        &self,
        latent: &Tensor,
        queries: impl IntoIterator<Item = (usize, [f32; 3])>,
        workers: Option<usize>,
        stages: Option<&mut DecodeStages>,
    ) -> Tensor {
        let points: Vec<(usize, [f32; 3])> = queries.into_iter().collect();
        let queries = Queries { grid: self.grid_dims(), len: points.len(), at: |i| points[i] };
        decode_packed(&self.packed, latent, &queries, workers, stages)
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
        self.super_resolve_with(None, lr, hr_meta, stats)
    }

    /// [`FrozenModel::super_resolve`] with every patch decoded on exactly
    /// `workers` threads where `None` lets the decode pick — for the
    /// thread-count invariance tests only; the result does not depend on it.
    #[doc(hidden)]
    pub fn super_resolve_with(
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
                    // `decode_values` over the patch's HR points, t-major
                    // then z then x, each found from its index by the worker
                    // that plans its block.
                    let (nz, nx) = (along_z.len(), along_x.len());
                    let at = |i: usize| {
                        let (t, zx) = (along_t[i / (nz * nx)].0, i % (nz * nx));
                        (0usize, [t, along_z[zx / nx].0, along_x[zx % nx].0])
                    };
                    let queries =
                        Queries { grid: self.grid_dims(), len: along_t.len() * nz * nx, at };
                    let pred = decode_packed(&self.packed, &latent, &queries, workers, None);
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
        Dataset::from_parts(hr_meta.clone(), out)
    }

    /// Test-time physics refinement (see [`crate::refine`]): budgeted gradient
    /// descent on a *copy* of `latent` minimizing the PDE equation residual at
    /// `points`, weights frozen. Returns the refined latent and a
    /// step/residual report; the input tensor is never mutated.
    pub fn refine_latent(
        &self,
        latent: &Tensor,
        points: &[(usize, [f32; 3])],
        settings: &crate::refine::RefineSettings,
        budget: &crate::refine::RefineBudget,
    ) -> (Tensor, crate::refine::RefineReport) {
        crate::refine::refine_latent(
            &self.store,
            &self.decoder,
            latent,
            self.grid_dims(),
            points,
            settings,
            budget,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfn_data::PatchSpec;

    fn tiny_cfg() -> MfnConfig {
        let mut cfg = MfnConfig::small();
        cfg.patch = PatchSpec { nt: 4, nz: 4, nx: 4, queries: 16 };
        cfg.base_channels = 4;
        cfg.latent_channels = 8;
        cfg.mlp_hidden = vec![16, 16];
        cfg.levels = 2;
        cfg
    }

    #[test]
    fn frozen_encode_decode_shapes() {
        let frozen = FrozenModel::from_model(MeshfreeFlowNet::new(tiny_cfg()));
        let x = Tensor::ones(&[1, 4, 4, 4, 4]);
        let latent = frozen.encode(&x);
        assert_eq!(latent.dims(), &[1, 8, 4, 4, 4]);
        let out = frozen.decode_values(&latent, [(0usize, [0.5, 0.5, 0.5])]);
        assert_eq!(out.dims(), &[1, 4]);
        assert!(out.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn decoded_values_start_on_a_cache_line() {
        let frozen = FrozenModel::from_model(MeshfreeFlowNet::new(tiny_cfg()));
        let latent = frozen.encode(&Tensor::ones(&[1, 4, 4, 4, 4]));
        for q in [1, 2, 3, 7, 63, 64, 65, 1000] {
            let _burst: Vec<Vec<f32>> = (1..20).map(|i| vec![0.0; i * 5 + q]).collect();
            let queries = (0..q).map(|i| (0, [(i as f32 * 0.37).fract(), 0.5, 0.25]));
            let out = frozen.decode_values(&latent, queries);
            assert_eq!(out.data().as_ptr() as usize % 64, 0, "{q} queries");
        }
    }

    #[test]
    #[should_panic(expected = "patch spec")]
    fn frozen_encode_rejects_wrong_shape() {
        let frozen = FrozenModel::from_model(MeshfreeFlowNet::new(tiny_cfg()));
        frozen.encode(&Tensor::ones(&[1, 4, 4, 4, 8]));
    }
}
