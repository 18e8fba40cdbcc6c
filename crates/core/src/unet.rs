//! The Context Generation Network: a residual 3D U-Net (paper Sec. 4.1,
//! Fig. 5).
//!
//! Contractive path: a stem ResBlock followed by `levels` stages of
//! (anisotropic max-pool → ResBlock with doubled channels). Expansive path:
//! nearest-neighbour upsampling, skip concatenation with the matching
//! contractive feature map, and a ResBlock halving the channels. A final
//! 1×1×1 convolution maps to the `n_c` latent channels of the Latent Context
//! Grid, which has the same `[nt, nz, nx]` extent as the LR input patch.
//!
//! Two forwards share every kernel and are bit-identical in eval mode. The
//! tape forward ([`UNet3d::forward`]) records onto a `Graph`. The no-grad
//! forward runs on a [`PackedUNet`] — every conv weight as implicit-GEMM
//! panels, every batch norm as its eval-mode affine — with bias, affine,
//! ReLU and the residual sum applied in place on each conv's own output.
//! The frozen engine (`FrozenModel`) builds that snapshot ([`UNet3d::pack`])
//! once, when it is built, and is the one no-grad caller.

use crate::config::MfnConfig;
use mfn_autodiff::{
    BatchNorm3d, Conv3dLayer, EvalAffine, Graph, PackedConv3dLayer, ParamStore, Var,
};
use mfn_tensor::{maxpool3d_values, upsample_nearest3d, Tensor};
use rand::Rng;

/// `max(v, 0)` in place — the operation `Graph::relu` applies.
fn relu_inplace(x: &mut Tensor) {
    for v in x.data_mut() {
        *v = v.max(0.0);
    }
}

/// One residual block: `1×1×1 → BN → ReLU → 3×3×3 → BN → ReLU → 1×1×1 → BN`,
/// additive skip (with a 1×1×1 projection when channel counts differ),
/// final ReLU.
#[derive(Debug, Clone)]
pub struct ResBlock3d {
    conv1: Conv3dLayer,
    bn1: BatchNorm3d,
    conv2: Conv3dLayer,
    bn2: BatchNorm3d,
    conv3: Conv3dLayer,
    bn3: BatchNorm3d,
    /// Channel projection on the skip path, present iff `cin != cout`.
    skip: Option<Conv3dLayer>,
}

impl ResBlock3d {
    /// Registers a residual block mapping `cin` → `cout` channels.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        name: &str,
        cin: usize,
        cout: usize,
        rng: &mut R,
    ) -> Self {
        let mid = cout.max(1);
        ResBlock3d {
            conv1: Conv3dLayer::new(store, &format!("{name}.conv1"), cin, mid, [1, 1, 1], rng),
            bn1: BatchNorm3d::new(store, &format!("{name}.bn1"), mid),
            conv2: Conv3dLayer::new(store, &format!("{name}.conv2"), mid, mid, [3, 3, 3], rng),
            bn2: BatchNorm3d::new(store, &format!("{name}.bn2"), mid),
            conv3: Conv3dLayer::new(store, &format!("{name}.conv3"), mid, cout, [1, 1, 1], rng),
            bn3: BatchNorm3d::new(store, &format!("{name}.bn3"), cout),
            skip: if cin != cout {
                Some(Conv3dLayer::new(store, &format!("{name}.skip"), cin, cout, [1, 1, 1], rng))
            } else {
                None
            },
        }
    }

    /// Records the block's forward pass.
    pub fn forward(&mut self, g: &mut Graph, store: &ParamStore, x: Var, training: bool) -> Var {
        let mut h = self.conv1.forward(g, store, x);
        h = self.bn1.forward(g, store, h, training);
        h = g.relu(h);
        h = self.conv2.forward(g, store, h);
        h = self.bn2.forward(g, store, h, training);
        h = g.relu(h);
        h = self.conv3.forward(g, store, h);
        h = self.bn3.forward(g, store, h, training);
        let shortcut = match &self.skip {
            Some(proj) => proj.forward(g, store, x),
            None => x,
        };
        let sum = g.add(h, shortcut);
        g.relu(sum)
    }

    /// Snapshots the block out of `store` for tape-free evaluation at an
    /// output voxel count of `vol` per batch item.
    pub fn pack(&self, store: &ParamStore, vol: usize) -> PackedResBlock {
        PackedResBlock {
            conv1: self.conv1.pack(store, vol),
            bn1: self.bn1.eval_scale_shift(store),
            conv2: self.conv2.pack(store, vol),
            bn2: self.bn2.eval_scale_shift(store),
            conv3: self.conv3.pack(store, vol),
            bn3: self.bn3.eval_scale_shift(store),
            skip: self.skip.as_ref().map(|proj| proj.pack(store, vol)),
        }
    }

    /// Appends references to this block's batch-norm layers (for state
    /// checkpointing, in deterministic order).
    pub fn collect_bn<'a>(&'a self, out: &mut Vec<&'a BatchNorm3d>) {
        out.push(&self.bn1);
        out.push(&self.bn2);
        out.push(&self.bn3);
    }

    /// Mutable version of [`ResBlock3d::collect_bn`].
    pub fn collect_bn_mut<'a>(&'a mut self, out: &mut Vec<&'a mut BatchNorm3d>) {
        out.push(&mut self.bn1);
        out.push(&mut self.bn2);
        out.push(&mut self.bn3);
    }
}

/// An inference-only snapshot of a [`ResBlock3d`]: packed convs and
/// eval-mode batch-norm affines, field for field.
#[derive(Debug)]
pub struct PackedResBlock {
    conv1: PackedConv3dLayer,
    bn1: EvalAffine,
    conv2: PackedConv3dLayer,
    bn2: EvalAffine,
    conv3: PackedConv3dLayer,
    bn3: EvalAffine,
    skip: Option<PackedConv3dLayer>,
}

impl PackedResBlock {
    /// Eager no-grad inference forward: eval-mode batch norm and no tape,
    /// every step after a conv applied in place on that conv's output.
    /// Takes `&self` — nothing is mutated, which is what lets the serving
    /// engine share one model across worker threads. Bit-identical to
    /// [`ResBlock3d::forward`] with `training = false`: the same kernels and
    /// per-element operations in the same order.
    pub fn forward_nograd(&self, x: &Tensor) -> Tensor {
        let mut h = self.conv1.forward_nograd(x);
        self.bn1.forward_nograd(&mut h);
        relu_inplace(&mut h);
        let mut h = self.conv2.forward_nograd(&h);
        self.bn2.forward_nograd(&mut h);
        relu_inplace(&mut h);
        let mut h = self.conv3.forward_nograd(&h);
        self.bn3.forward_nograd(&mut h);
        match &self.skip {
            Some(proj) => h.add_assign(&proj.forward_nograd(x)),
            None => h.add_assign(x),
        }
        relu_inplace(&mut h);
        h
    }
}

/// The full residual 3D U-Net.
#[derive(Debug, Clone)]
pub struct UNet3d {
    stem: ResBlock3d,
    /// Contractive blocks, one per level (applied after pooling).
    down: Vec<ResBlock3d>,
    /// Expansive blocks, one per level (applied after upsample+concat).
    up: Vec<ResBlock3d>,
    /// Final 1×1×1 projection to the latent channels.
    head: Conv3dLayer,
    /// Per-level pooling factors `[t, z, x]`.
    pool: Vec<[usize; 3]>,
}

impl UNet3d {
    /// Registers the U-Net described by `cfg`.
    pub fn new<R: Rng>(store: &mut ParamStore, cfg: &MfnConfig, rng: &mut R) -> Self {
        let pool = cfg.pool_factors();
        let levels = cfg.levels;
        let c0 = cfg.base_channels;
        let stem = ResBlock3d::new(store, "unet.stem", cfg.in_channels, c0, rng);
        let mut down = Vec::with_capacity(levels);
        for l in 0..levels {
            let cin = c0 << l;
            let cout = c0 << (l + 1);
            down.push(ResBlock3d::new(store, &format!("unet.down{l}"), cin, cout, rng));
        }
        let mut up = Vec::with_capacity(levels);
        for l in (0..levels).rev() {
            // Input: upsampled (c0<<(l+1)) concat skip (c0<<l) -> output c0<<l.
            let cin = (c0 << (l + 1)) + (c0 << l);
            let cout = c0 << l;
            up.push(ResBlock3d::new(store, &format!("unet.up{l}"), cin, cout, rng));
        }
        let head = Conv3dLayer::new(store, "unet.head", c0, cfg.latent_channels, [1, 1, 1], rng);
        UNet3d { stem, down, up, head, pool }
    }

    /// Appends references to every batch-norm layer of the U-Net, in a
    /// deterministic order (stem, contractive, expansive).
    pub fn collect_bn<'a>(&'a self, out: &mut Vec<&'a BatchNorm3d>) {
        self.stem.collect_bn(out);
        for b in &self.down {
            b.collect_bn(out);
        }
        for b in &self.up {
            b.collect_bn(out);
        }
    }

    /// Mutable version of [`UNet3d::collect_bn`].
    pub fn collect_bn_mut<'a>(&'a mut self, out: &mut Vec<&'a mut BatchNorm3d>) {
        self.stem.collect_bn_mut(out);
        for b in &mut self.down {
            b.collect_bn_mut(out);
        }
        for b in &mut self.up {
            b.collect_bn_mut(out);
        }
    }

    /// Records the forward pass: `x: [N, Cin, nt, nz, nx]` →
    /// latent grid `[N, n_c, nt, nz, nx]`.
    pub fn forward(&mut self, g: &mut Graph, store: &ParamStore, x: Var, training: bool) -> Var {
        let mut h = self.stem.forward(g, store, x, training);
        let mut skips: Vec<Var> = Vec::with_capacity(self.down.len());
        for (l, block) in self.down.iter_mut().enumerate() {
            skips.push(h);
            h = g.maxpool3d(h, self.pool[l]);
            h = block.forward(g, store, h, training);
        }
        for (i, block) in self.up.iter_mut().enumerate() {
            let l = self.down.len() - 1 - i; // level being undone
            h = g.upsample3d(h, self.pool[l]);
            let skip = skips[l];
            h = g.concat(&[h, skip], 1);
            h = block.forward(g, store, h, training);
        }
        self.head.forward(g, store, h)
    }

    /// Snapshots the whole network out of `store` for tape-free evaluation
    /// on inputs of spatial extent `spatial = [nt, nz, nx]` (each level's
    /// voxel count follows from the pooling factors).
    pub fn pack(&self, store: &ParamStore, spatial: [usize; 3]) -> PackedUNet {
        let vol = |sp: [usize; 3]| sp.iter().product::<usize>();
        let mut sp = spatial;
        let stem = self.stem.pack(store, vol(sp));
        let mut down = Vec::with_capacity(self.down.len());
        for (block, f) in self.down.iter().zip(&self.pool) {
            sp = [sp[0] / f[0], sp[1] / f[1], sp[2] / f[2]];
            down.push(block.pack(store, vol(sp)));
        }
        let mut up = Vec::with_capacity(self.up.len());
        for (block, f) in self.up.iter().zip(self.pool.iter().rev()) {
            sp = [sp[0] * f[0], sp[1] * f[1], sp[2] * f[2]];
            up.push(block.pack(store, vol(sp)));
        }
        let head = self.head.pack(store, vol(spatial));
        PackedUNet { stem, down, up, head, pool: self.pool.clone() }
    }
}

/// An inference-only snapshot of a [`UNet3d`]: every conv weight packed
/// into implicit-GEMM panels and every batch norm reduced to its eval-mode
/// affine, so repeated encodes never touch the parameter store, re-pack a
/// weight or re-derive a scale.
#[derive(Debug)]
pub struct PackedUNet {
    stem: PackedResBlock,
    down: Vec<PackedResBlock>,
    up: Vec<PackedResBlock>,
    head: PackedConv3dLayer,
    pool: Vec<[usize; 3]>,
}

impl PackedUNet {
    /// The no-grad forward proper: `x: [N, Cin, nt, nz, nx]` → latent grid
    /// `[N, n_c, nt, nz, nx]`. Skip tensors are moved, not copied.
    pub fn forward_nograd(&self, x: &Tensor) -> Tensor {
        let mut h = self.stem.forward_nograd(x);
        let mut skips: Vec<Tensor> = Vec::with_capacity(self.down.len());
        for (block, &f) in self.down.iter().zip(&self.pool) {
            let pooled = maxpool3d_values(&h, f);
            skips.push(h);
            h = block.forward_nograd(&pooled);
        }
        // Levels are undone deepest first.
        for (block, &f) in self.up.iter().zip(self.pool.iter().rev()) {
            let skip = skips.pop().expect("one skip per level");
            h = Tensor::concat(&[&upsample_nearest3d(&h, f), &skip], 1);
            h = block.forward_nograd(&h);
        }
        self.head.forward_nograd(&h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfn_tensor::Tensor;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn small_cfg() -> MfnConfig {
        MfnConfig::small()
    }

    #[test]
    fn resblock_preserves_shape() {
        let mut store = ParamStore::new();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut block = ResBlock3d::new(&mut store, "b", 3, 5, &mut rng);
        let mut g = Graph::new();
        let x = g.constant(Tensor::ones(&[2, 3, 2, 4, 4]));
        let y = block.forward(&mut g, &store, x, true);
        assert_eq!(g.value(y).dims(), &[2, 5, 2, 4, 4]);
    }

    #[test]
    fn resblock_identity_channels_skips_projection() {
        let mut store = ParamStore::new();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let block = ResBlock3d::new(&mut store, "b", 4, 4, &mut rng);
        assert!(block.skip.is_none());
        let block2 = ResBlock3d::new(&mut store, "b2", 4, 8, &mut rng);
        assert!(block2.skip.is_some());
    }

    #[test]
    fn unet_latent_grid_matches_input_extent() {
        let cfg = small_cfg();
        let mut store = ParamStore::new();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut unet = UNet3d::new(&mut store, &cfg, &mut rng);
        let mut g = Graph::new();
        let x = g.constant(Tensor::ones(&[1, 4, cfg.patch.nt, cfg.patch.nz, cfg.patch.nx]));
        let latent = unet.forward(&mut g, &store, x, true);
        assert_eq!(
            g.value(latent).dims(),
            &[1, cfg.latent_channels, cfg.patch.nt, cfg.patch.nz, cfg.patch.nx]
        );
    }

    #[test]
    fn unet_eval_mode_is_deterministic() {
        let cfg = small_cfg();
        let mut store = ParamStore::new();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut unet = UNet3d::new(&mut store, &cfg, &mut rng);
        let x0 = Tensor::randn(&[1, 4, cfg.patch.nt, cfg.patch.nz, cfg.patch.nx], 1.0, &mut rng);
        let run = |unet: &mut UNet3d| {
            let mut g = Graph::new();
            let x = g.constant(x0.clone());
            let y = unet.forward(&mut g, &store, x, false);
            g.value(y).clone()
        };
        let a = run(&mut unet);
        let b = run(&mut unet);
        assert_eq!(a, b);
    }

    #[test]
    fn unet_gradients_reach_all_params() {
        let cfg = small_cfg();
        let mut store = ParamStore::new();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut unet = UNet3d::new(&mut store, &cfg, &mut rng);
        let mut g = Graph::new();
        let x0 = Tensor::randn(&[2, 4, cfg.patch.nt, cfg.patch.nz, cfg.patch.nx], 1.0, &mut rng);
        let x = g.constant(x0);
        let y = unet.forward(&mut g, &store, x, true);
        let sq = g.mul(y, y);
        let loss = g.sum(sq);
        g.backward(loss);
        let grads = g.param_grads(&store);
        let mut nonzero = 0;
        for gr in &grads {
            if gr.max_abs() > 0.0 {
                nonzero += 1;
            }
        }
        // Every parameter tensor should receive some gradient.
        assert_eq!(nonzero, grads.len(), "{nonzero}/{} params got gradient", grads.len());
    }

    /// After real optimizer steps every batch norm has moved `γ`, `β` and
    /// both running statistics, so no precomputed `(scale, shift)` is the
    /// identity: the tape in eval mode, an engine snapshotted from the live
    /// model, one frozen from it and one loaded from its checkpoint still
    /// encode to the same bits — the three having built identical panels.
    #[test]
    fn encode_after_training_is_one_value_on_every_path() {
        use crate::checkpoint::{encode_train_state, save_train_state, TrainStateMeta};
        use crate::config::TrainConfig;
        use crate::infer::FrozenModel;
        use crate::model::MeshfreeFlowNet;
        use crate::trainer::{Corpus, Trainer};
        use mfn_data::{downsample, Dataset, PatchSpec};
        use mfn_solver::{simulate, RbcConfig};

        let tiny_cfg = || {
            let mut cfg = MfnConfig::small();
            cfg.patch = PatchSpec { nt: 4, nz: 4, nx: 4, queries: 16 };
            cfg.base_channels = 4;
            cfg.latent_channels = 8;
            cfg.mlp_hidden = vec![16, 16];
            cfg.levels = 2;
            cfg
        };
        let sim = simulate(
            &RbcConfig { nx: 16, nz: 9, ra: 1e5, dt_max: 2e-3, ..Default::default() },
            0.1,
            9,
        );
        let hr = Dataset::from_simulation(&sim);
        let lr = downsample(&hr, 2, 2);
        let corpus = Corpus::new(vec![(hr, lr)]);
        let cfg =
            TrainConfig { epochs: 1, batches_per_epoch: 3, batch_size: 2, ..Default::default() };
        let mut trainer = Trainer::new(MeshfreeFlowNet::new(tiny_cfg()), cfg);
        trainer.train(&corpus);

        let mut bns = Vec::new();
        trainer.model.unet.collect_bn(&mut bns);
        for bn in &bns {
            let affine = bn.eval_scale_shift(&trainer.model.store);
            assert!(affine.scale.iter().all(|&s| s != 1.0), "scale still the identity");
            assert!(affine.shift.iter().all(|&s| s != 0.0), "shift still the identity");
        }

        let dir = std::env::temp_dir().join(format!("mfn_infer_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("state.ckpt");
        let meta = TrainStateMeta {
            global_step: trainer.steps_taken(),
            epoch: 1,
            batch_cursor: 0,
            rngs: vec![trainer.sampler_state()],
        };
        save_train_state(&path, &encode_train_state(&trainer.model, &trainer.opt, &meta))
            .expect("save checkpoint");
        let loaded = FrozenModel::load_state(&path).expect("load checkpoint");
        std::fs::remove_dir_all(&dir).ok();

        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let input = Tensor::randn(&[2, 4, 4, 4, 4], 1.0, &mut rng);
        let mut model = trainer.model;
        let tape = {
            let mut g = Graph::new();
            let x = g.constant(input.clone());
            let latent = model.unet.forward(&mut g, &model.store, x, false);
            g.value(latent).clone()
        };
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let live = FrozenModel::snapshot(&model);
        assert_eq!(bits(&tape), bits(&live.encode(&input)), "engine snapshotted from the model");
        assert_eq!(bits(&tape), bits(&loaded.encode(&input)), "engine loaded from the checkpoint");
        let frozen = FrozenModel::from_model(model);
        assert_eq!(bits(&tape), bits(&frozen.encode(&input)), "engine frozen from the model");
    }
}
