//! A training step's bits do not depend on how many threads its tape runs
//! on: at the training-digest set-up (the `train` benchmark's shapes),
//! `Trainer::step` on 1, 2 and 3 tape workers leaves every parameter with
//! the same bits after each step. With `training_digest.rs` pinning the
//! default count, this pins every count the per-rank rule can pick. The
//! six-lane blend is one node, whose values and adjoints are those of the
//! per-lane composition it replaced, on any count too. CI runs it on the
//! portable kernel tier too (`MFN_PORTABLE_KERNELS=1`).

use mfn_autodiff::{Graph, Var, JET_LANES};
use mfn_core::{plan_queries, Corpus, MeshfreeFlowNet, MfnConfig, QueryPlan, TrainConfig, Trainer};
use mfn_data::{downsample, make_batch, Dataset, PatchSampler, PatchSpec};
use mfn_solver::{simulate, RbcConfig};
use mfn_tensor::Tensor;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// FNV-1a 64 over the little-endian bit patterns of `params`, in order.
fn digest(params: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in params.iter().flat_map(|p| p.to_bits().to_le_bytes()) {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn tape_worker_count_is_invisible_in_the_training_bits() {
    let rbc = RbcConfig { nx: 32, nz: 33, ra: 1e6, dt_max: 2e-3, seed: 1, ..Default::default() };
    let hr = Dataset::from_simulation(&simulate(&rbc, 0.02, 13));
    let lr = downsample(&hr, 4, 4);
    let corpus = Corpus::new(vec![(hr, lr)]);
    let mut cfg = MfnConfig::small();
    cfg.patch = PatchSpec { nt: 4, nz: 8, nx: 8, queries: 128 };
    cfg.gamma = MfnConfig::GAMMA_STAR;
    let config = TrainConfig { lr: 1e-2, batch_size: 4, ..TrainConfig::default() };
    let (hr, lr) = &corpus.pairs[0];
    let sampler = PatchSampler::new(hr, lr, cfg.patch);
    let run = |workers: usize| -> Vec<(u32, u64)> {
        let mut trainer = Trainer::new(MeshfreeFlowNet::new(cfg.clone()), config);
        trainer.set_tape_workers(Some(workers));
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        (0..3)
            .map(|_| {
                let batch = make_batch(&sampler, 4, &mut rng);
                let losses = trainer.step(&batch, corpus.params(0), corpus.stats);
                (losses.total.to_bits(), digest(&trainer.model.store.flatten()))
            })
            .collect()
    };
    let one = run(1);
    for workers in [2, 3] {
        assert_eq!(run(workers), one, "{workers} tape workers left other bits than one");
    }
}

/// The six-lane blend as it was recorded before it was one node: each lane
/// narrowed out, blended under the weights and, for a derivative lane, plus
/// its partner lane blended under the weights' slopes (doubled for a second
/// derivative), the lanes concatenated.
fn per_lane_blend(g: &mut Graph, out: Var, plan: &QueryPlan, scale: [f32; 3]) -> Var {
    let n = plan.index.len();
    let dw = plan.weight_derivs(scale);
    let y: [Var; JET_LANES] = std::array::from_fn(|k| g.narrow(out, 1, k * n, n));
    let blended: Vec<Var> = (0..JET_LANES)
        .map(|k| {
            let own = g.vertex_blend(y[k], plan.weights.clone(), 8);
            let (from, axis, factor) = match k {
                0 => return own,
                1..=3 => (0, k - 1, 1.0),
                _ => (k - 2, k - 3, 2.0),
            };
            let slopes = dw[axis].iter().map(|w| factor * w).collect();
            let cross = g.vertex_blend(y[from], slopes, 8);
            g.add(own, cross)
        })
        .collect();
    g.concat(&blended, 0)
}

/// At the training shapes (`MfnConfig::small`, 4 × 128 queries, the 4-wide
/// head on the thin path), the decode on the tape with the one blend node
/// gives the per-lane composition's six lanes, latent gradient and every
/// parameter gradient, bit for bit, on 1 and 2 tape workers.
#[test]
fn the_blend_node_is_the_per_lane_composition() {
    let model = MeshfreeFlowNet::new(MfnConfig::small());
    let (grid, extent) = (model.grid_dims(), [0.25f64, 0.5, 2.0]);
    let scale = [0, 1, 2].map(|a| ((grid[a] - 1) as f64 / extent[a]) as f32);
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let dims = [4, model.cfg.latent_channels, grid[0], grid[1], grid[2]];
    let latent = Tensor::randn(&dims, 1.0, &mut rng);
    let mut state = 11u64;
    let mut coord = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 40) as f32 / (1u64 << 24) as f32).clamp(0.0, 1.0)
    };
    // Interior points, and points on patch walls and latent cell faces.
    let mut queries: Vec<(usize, [f32; 3])> =
        (0..512).map(|i| (i / 128, [coord(), coord(), coord()])).collect();
    queries[0].1 = [0.0, 1.0, 0.5];
    queries[200].1 = [1.0, 0.0, 1.0];
    queries[300].1 = [0.5, 1.0 / 3.0, 2.0 / 3.0];
    let plan = plan_queries(grid, queries);
    let adjoint = Tensor::randn(&[JET_LANES * 512, model.cfg.out_channels], 1.0, &mut rng);
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let run = |workers: usize, fused: bool| {
        let mut g = Graph::new().with_workers(workers);
        let l = g.leaf_with_grad(latent.clone());
        let (dec, store) = (&model.decoder, &model.store);
        let out = if fused {
            dec.decode_derivs(&mut g, store, l, &plan, grid, extent)
        } else {
            let inp = g.gather_vertices(l, plan.index.clone(), &plan.rel);
            let h = dec.mlp.forward(&mut g, store, inp, Some(scale));
            per_lane_blend(&mut g, h, &plan, scale)
        };
        let value = bits(g.value(out));
        g.backward_with(out, adjoint.clone());
        let params: Vec<Vec<u32>> = g.param_grads(store).iter().map(bits).collect();
        (value, bits(g.grad(l)), params)
    };
    let want = run(1, false);
    for workers in [1, 2] {
        let got = run(workers, true);
        assert!(got.0 == want.0, "{workers} workers: the six lanes differ");
        assert!(got.1 == want.1, "{workers} workers: the latent gradient differs");
        assert!(got.2 == want.2, "{workers} workers: a parameter gradient differs");
    }
}
