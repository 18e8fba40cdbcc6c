//! A training step's bits do not depend on how many threads its tape runs
//! on: at the training-digest set-up (the `train` benchmark's shapes),
//! `Trainer::step` on 1, 2 and 3 tape workers leaves every parameter with
//! the same bits after each step. With `training_digest.rs` pinning the
//! default count, this pins every count the per-rank rule can pick. CI runs
//! it on the portable kernel tier too (`MFN_PORTABLE_KERNELS=1`).

use mfn_core::{Corpus, MeshfreeFlowNet, MfnConfig, TrainConfig, Trainer};
use mfn_data::{downsample, make_batch, Dataset, PatchSampler, PatchSpec};
use mfn_solver::{simulate, RbcConfig};
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
