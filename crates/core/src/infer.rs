//! The frozen inference engine: an immutable, grad-free view of a trained
//! MeshfreeFlowNet.
//!
//! [`FrozenModel`] wraps a model whose parameter store is private — the only
//! access the outside world gets is the read-only [`FrozenParams`] view — and
//! whose forward passes go through the eager `*_nograd` paths: no autodiff
//! tape is built, batch norm runs on frozen running statistics, and every
//! method takes `&self`. That `&self` is load-bearing: the serving layer
//! shares one `FrozenModel` behind an `Arc` across all worker threads and
//! decodes concurrent query batches without any locking around the weights.
//!
//! The no-grad forwards are the ones `MeshfreeFlowNet::{encode,
//! decode_values}` run — the engine has no encode or decode of its own. What
//! differs is when the weight-side work happens: because the engine's store
//! is private and never written, it does once at construction what the live
//! model does on every call — every weight, the decoder MLP's layers
//! (`PackedMlp`) and the U-Net's convs alike, packed into the A panels of
//! its GEMM, and every batch norm reduced to its eval-mode `(scale, shift)`
//! (`PackedUNet`). Nothing can make those snapshots stale: no method hands
//! out `&mut` to the store or the running statistics, and the `UNet3d` they
//! were taken from is dropped at construction. Both forwards are
//! bit-identical to the training graph in eval mode (pinned by the
//! `inference_equivalence` property tests in `mfn-serve`): the kernels are
//! shared — the decoder runs the tape's feature-major layout, conv driver and
//! `mfn_tensor::rowops` epilogues — and a prepacked panel is the panel a
//! per-call pack builds.

use crate::checkpoint::{
    decode_inference_state, load_train_state_with_fallback, read_config, CheckpointError,
};
use crate::config::MfnConfig;
use crate::decoder::{decode_packed, plan_queries, ContinuousDecoder, DecodeStages};
use crate::model::MeshfreeFlowNet;
use crate::unet::PackedUNet;
use mfn_autodiff::{FrozenParams, PackedMlp, ParamStore};
use mfn_tensor::{timed, Tensor};
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

    fn with_steps(model: MeshfreeFlowNet, trained_steps: u64) -> Self {
        let MeshfreeFlowNet { cfg, store, unet, decoder } = model;
        let unet = unet.pack(&store, [cfg.patch.nt, cfg.patch.nz, cfg.patch.nx]);
        let packed = decoder.mlp.pack(&store);
        FrozenModel { cfg, store, unet, decoder, packed, trained_steps }
    }

    /// Loads a `MFNSTAT1` train-state checkpoint (as written by the trainer's
    /// periodic checkpointing or the `train` binary) into a frozen engine.
    ///
    /// The model is built from the architecture section that opens the
    /// payload, once that section is checked against the payload's size.
    /// Only parameters and BN running statistics are restored; the Adam
    /// moments in the trailing section of the payload are never materialized.
    /// Falls back to `<path>.prev` when the newest frame is corrupt.
    pub fn load_state(path: &Path) -> Result<Self, CheckpointError> {
        let payload = load_train_state_with_fallback(path)?;
        let mut model = MeshfreeFlowNet::new(read_config(&mut payload.as_slice())?);
        let meta = decode_inference_state(&mut model, &mut payload.as_slice())?;
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
        self.decode_values_staged(latent, queries, None)
    }

    /// [`FrozenModel::decode_values`], adding each stage's wall time to
    /// `stages` when given (the bench's attribution hook; `None` reads no
    /// clock).
    pub fn decode_values_staged(
        &self,
        latent: &Tensor,
        queries: impl IntoIterator<Item = (usize, [f32; 3])>,
        mut stages: Option<&mut DecodeStages>,
    ) -> Tensor {
        let grid = self.grid_dims();
        let plan = timed(&mut stages, |s| &mut s.plan_ns, || plan_queries(grid, queries));
        decode_packed(&self.packed, latent, &plan, None, stages)
    }

    /// [`FrozenModel::decode_values`] on exactly `workers` threads (as many
    /// as there are blocks, at most) where `decode_values` picks the count
    /// itself — for the thread-count invariance tests and the bench's
    /// one-core row only; the result does not depend on it.
    #[doc(hidden)]
    pub fn decode_values_on(
        &self,
        workers: usize,
        latent: &Tensor,
        queries: impl IntoIterator<Item = (usize, [f32; 3])>,
    ) -> Tensor {
        let plan = plan_queries(self.grid_dims(), queries);
        decode_packed(&self.packed, latent, &plan, Some(workers), None)
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
    #[should_panic(expected = "patch spec")]
    fn frozen_encode_rejects_wrong_shape() {
        let frozen = FrozenModel::from_model(MeshfreeFlowNet::new(tiny_cfg()));
        frozen.encode(&Tensor::ones(&[1, 4, 4, 4, 8]));
    }
}
