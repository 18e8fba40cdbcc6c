//! A training step at `γ = γ*` runs in a workspace pool that has stopped
//! growing: once two steps have filled it, every buffer a step takes is one
//! an earlier step gave back, and every buffer it gives back lands where the
//! next step takes from. A buffer from outside the pool donated each step
//! (a `to_vec` turned into a tensor) would pile up in a bucket nothing draws
//! from, until the bucket's cap — resident memory that no step uses. A test
//! binary of its own (one test, one process) because it reads the pool's
//! global state.

use mfn_core::{Corpus, MeshfreeFlowNet, MfnConfig, TrainConfig, Trainer};
use mfn_data::{downsample, make_batch, Dataset, PatchSampler, PatchSpec};
use mfn_solver::{simulate, RbcConfig};
use mfn_tensor::workspace;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn training_steps_leave_the_workspace_pool_flat() {
    let sim =
        simulate(&RbcConfig { nx: 16, nz: 9, ra: 1e5, dt_max: 2e-3, ..Default::default() }, 0.1, 9);
    let hr = Dataset::from_simulation(&sim);
    let lr = downsample(&hr, 2, 2);
    let corpus = Corpus::new(vec![(hr, lr)]);
    let mut cfg = MfnConfig::small();
    cfg.patch = PatchSpec { nt: 4, nz: 4, nx: 4, queries: 32 };
    cfg.base_channels = 4;
    cfg.latent_channels = 8;
    cfg.mlp_hidden = vec![32, 32];
    cfg.levels = 2;
    cfg.gamma = MfnConfig::GAMMA_STAR;
    let patch = cfg.patch;
    let config = TrainConfig { batch_size: 4, ..Default::default() };
    let mut trainer = Trainer::new(MeshfreeFlowNet::new(cfg), config);
    let (hr, lr) = &corpus.pairs[0];
    let sampler = PatchSampler::new(hr, lr, patch);
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let mut step = || {
        let batch = make_batch(&sampler, 4, &mut rng);
        trainer.step(&batch, corpus.params(0), corpus.stats);
        let s = workspace::stats();
        (s.cached_bytes, s.cached_buffers)
    };
    step();
    let warm = step();
    for i in 3..=8 {
        assert_eq!(step(), warm, "step {i}: (cached bytes, cached buffers) moved");
    }
}
