//! Pins the grad-free inference paths to the training graph, bit for bit.
//!
//! The no-grad forwards in `mfn-core`/`mfn-autodiff` exist so inference —
//! every encode, decode and super-resolution, all of them `FrozenModel`'s,
//! whether serving or snapshotted from a live model — can skip the autodiff
//! tape; they are only
//! trustworthy if they produce the *same bits* as the tape in eval mode,
//! and since inference no longer shares a call path with training nothing
//! else would notice the two drifting apart. These tests are the contract:
//! they sweep seeded random weights, BN statistics drifted by training-mode
//! forwards, and seeded random inputs/queries, comparing `f32::to_bits`
//! exactly — no tolerance, because the kernels are literally shared
//! (`mfn_tensor::rowops`), not approximately reimplemented.

use mfn_autodiff::Graph;
use mfn_core::{plan_queries, FrozenModel, MeshfreeFlowNet, MfnConfig};
use mfn_data::PatchSpec;
use mfn_serve::{Engine, EngineConfig};
use mfn_tensor::Tensor;

fn tiny_cfg(seed: u64) -> MfnConfig {
    let mut cfg = MfnConfig::small();
    cfg.patch = PatchSpec { nt: 4, nz: 4, nx: 8, queries: 16 };
    cfg.base_channels = 4;
    cfg.latent_channels = 8;
    cfg.mlp_hidden = vec![16, 16];
    cfg.levels = 2;
    cfg.seed = seed;
    cfg
}

fn lcg_f32(state: &mut u64) -> f32 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    ((*state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
}

fn rand_patch(cfg: &MfnConfig, batch: usize, seed: u64) -> Tensor {
    let dims = [batch, cfg.in_channels, cfg.patch.nt, cfg.patch.nz, cfg.patch.nx];
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let n: usize = dims.iter().product();
    Tensor::from_vec((0..n).map(|_| lcg_f32(&mut state)).collect(), &dims)
}

fn rand_queries(state: &mut u64, batch: usize, n: usize) -> Vec<(usize, [f32; 3])> {
    let mut qs: Vec<(usize, [f32; 3])> = (0..n)
        .map(|i| (i % batch, [lcg_f32(state) + 0.5, lcg_f32(state) + 0.5, lcg_f32(state) + 0.5]))
        .collect();
    // Cell corners and edges are where trilinear indexing off-by-ones hide.
    qs.push((0, [0.0, 0.0, 0.0]));
    qs.push((0, [1.0, 1.0, 1.0]));
    qs.push((batch - 1, [0.5, 0.0, 1.0]));
    qs
}

fn assert_bits_eq(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.dims(), b.dims(), "{what}: dims differ");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i} differs ({x} vs {y})");
    }
}

/// Builds a (tape-path reference, frozen engine) pair over identical
/// weights and identical *non-trivial* BN running statistics: the reference
/// runs some training-mode forwards to drift the stats off their init,
/// then the stats are serialized into the twin before freezing.
fn twin_models(seed: u64) -> (MeshfreeFlowNet, FrozenModel) {
    let cfg = tiny_cfg(seed);
    let mut reference = MeshfreeFlowNet::new(cfg.clone());
    for i in 0..3 {
        let mut g = Graph::new();
        let x = g.constant(rand_patch(&cfg, 2, seed * 100 + i));
        let _ = reference.unet.forward(&mut g, &reference.store, x, true);
    }
    let mut twin = MeshfreeFlowNet::new(cfg);
    let mut stats = Vec::new();
    reference.write_bn_stats(&mut stats).expect("serialize BN stats");
    twin.read_bn_stats(&mut stats.as_slice()).expect("restore BN stats");
    (reference, FrozenModel::from_model(twin))
}

/// The latent grid as the training graph computes it in eval mode.
fn tape_encode(model: &mut MeshfreeFlowNet, input: &Tensor) -> Tensor {
    let mut g = Graph::new();
    let x = g.constant(input.clone());
    let latent = model.unet.forward(&mut g, &model.store, x, false);
    g.value(latent).clone()
}

/// Decoded values as the training graph computes them.
fn tape_decode(model: &MeshfreeFlowNet, latent: &Tensor, qs: &[(usize, [f32; 3])]) -> Tensor {
    let plan = plan_queries(model.grid_dims(), qs.iter().copied());
    let mut g = Graph::new();
    let l = g.constant(latent.clone());
    let y = model.decoder.decode(&mut g, &model.store, l, &plan);
    g.value(y).clone()
}

#[test]
fn nograd_encode_is_bit_identical_to_tape_eval() {
    for seed in 0..3u64 {
        let (mut reference, frozen) = twin_models(seed);
        let cfg = reference.cfg.clone();
        for j in 0..3 {
            let input = rand_patch(&cfg, 2, seed * 7 + j);
            let tape = tape_encode(&mut reference, &input);
            let live = FrozenModel::snapshot(&reference);
            assert_bits_eq(&tape, &live.encode(&input), "FrozenModel::snapshot");
            assert_bits_eq(&tape, &frozen.encode(&input), "FrozenModel::encode");
        }
    }
}

#[test]
fn nograd_decode_is_bit_identical_to_tape() {
    for seed in 0..3u64 {
        let (mut reference, frozen) = twin_models(seed);
        let cfg = reference.cfg.clone();
        let input = rand_patch(&cfg, 2, seed + 41);
        let latent = tape_encode(&mut reference, &input);
        let mut qstate = seed + 9;
        // One block of the blocked decode, several with a ragged last one,
        // and enough (33 blocks, from 16 the call splits) that the no-grad
        // side runs its blocks on two threads where the host has them.
        for n in [32, 250, 2_100] {
            let qs = rand_queries(&mut qstate, 2, n);
            let tape = tape_decode(&reference, &latent, &qs);
            let eager = frozen.decode_values(&latent, qs.iter().copied());
            assert_bits_eq(&tape, &eager, "FrozenModel::decode_values");
        }
    }
}

/// A snapshot holds the weights of the moment it was taken: one taken
/// after an optimizer step decodes with the new weights and still equals
/// the tape, one taken before keeps the old ones.
#[test]
fn snapshot_follows_an_optimizer_step() {
    let (mut reference, _) = twin_models(3);
    let cfg = reference.cfg.clone();
    let latent = tape_encode(&mut reference, &rand_patch(&cfg, 2, 5));
    let qs = rand_queries(&mut 17, 2, 70);
    let old = FrozenModel::snapshot(&reference);
    let before = old.decode_values(&latent, qs.iter().copied());
    // One plain gradient step, p -= 0.05·g, with every gradient g = 1.
    let stepped: Vec<f32> = reference.store.flatten().iter().map(|p| p - 0.05).collect();
    reference.store.unflatten_into(&stepped);
    let after = FrozenModel::snapshot(&reference).decode_values(&latent, qs.iter().copied());
    assert_bits_eq(&old.decode_values(&latent, qs.iter().copied()), &before, "old snapshot");
    assert_ne!(before.data(), after.data(), "decode ignored the weight update");
    assert_bits_eq(&tape_decode(&reference, &latent, &qs), &after, "decode after the step");
}

#[test]
fn cache_hit_is_bit_identical_to_fresh_encode() {
    let cfg = tiny_cfg(5);
    let numel = cfg.in_channels * cfg.patch.nt * cfg.patch.nz * cfg.patch.nx;
    let mut state = 77u64;
    let patch: Vec<f32> = (0..numel).map(|_| lcg_f32(&mut state)).collect();
    let mut qstate = 13u64;
    let qs = rand_queries(&mut qstate, 1, 24);

    let warm = Engine::new(
        FrozenModel::from_model(MeshfreeFlowNet::new(cfg.clone())),
        EngineConfig::default(),
    );
    let (digest, hit0) = warm.encode_patch(1, patch.clone()).unwrap();
    assert!(!hit0);
    let (miss_vals, _) = warm.query(digest, qs.clone()).unwrap();
    let (digest2, hit1) = warm.encode_patch(1, patch.clone()).unwrap();
    assert!(hit1, "identical bytes must hit the cache");
    assert_eq!(digest, digest2);
    let (hit_vals, _) = warm.query(digest, qs.clone()).unwrap();
    assert_eq!(
        miss_vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        hit_vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "cache-hit values must be bit-identical to the fresh-encode values"
    );

    // A cold engine over the same weights reproduces the same bits: the
    // cache is invisible to results, it only skips work.
    let cold =
        Engine::new(FrozenModel::from_model(MeshfreeFlowNet::new(cfg)), EngineConfig::default());
    let (_, _, cold_vals, _) = cold.encode_query(1, patch, qs).unwrap();
    assert_eq!(
        cold_vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        hit_vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
    );
}
