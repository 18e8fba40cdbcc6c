//! Training is pinned bit for bit. Eight `Trainer::step`s at the `train`
//! benchmark's configuration (`MfnConfig::small`, patch 4×8×8, 128 queries a
//! patch, batch 4, γ = γ\*, lr 1e-2, fixed seeds) must reproduce each step's
//! total loss and an FNV-1a digest of every parameter after it, exactly. A
//! change that claims to leave training untouched (a faster pack, another
//! tile, a reordered loop) passes this unchanged; one that moves training on
//! purpose re-pins the table and says why. Never a tolerance: every kernel
//! tier and both codegen profiles give the same bits by construction.
//!
//! The data is the benchmark's smoke-scale flow (HR 32 × 33 over 13 frames,
//! downsampled 4 × 4 to one 4 × 9 × 8 patch extent): every conv, pooling and
//! decoder shape of a step is the benchmark's, only the simulation is cheap.

use mfn_core::{Corpus, MeshfreeFlowNet, MfnConfig, TrainConfig, Trainer};
use mfn_data::{downsample, make_batch, Dataset, PatchSampler, PatchSpec};
use mfn_solver::{simulate, RbcConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// `(total loss bits, parameter digest)` after each step.
const PINNED: [(u32, u64); 8] = [
    (0x3f2f_d16b, 0x3ece_b833_c992_b9ab),
    (0x3f2f_7d89, 0x0347_f650_9001_571e),
    (0x3f1e_1509, 0xbdd4_4372_e343_8b29),
    (0x3f19_21cf, 0xf7fd_669e_fccb_d024),
    (0x3f05_d7ba, 0xfd6b_04a7_1c39_45f8),
    (0x3eeb_4a2c, 0x061e_952b_56b7_2685),
    (0x3edd_1b11, 0x614a_3208_324b_48d3),
    (0x3efb_5dd4, 0x5d8f_ebf9_55a2_732c),
];

/// FNV-1a 64 over the little-endian bit patterns of `params`, in order.
fn digest(params: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in params.iter().flat_map(|p| p.to_bits().to_le_bytes()) {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn eight_benchmark_steps_keep_their_bits() {
    let sim = simulate(
        &RbcConfig { nx: 32, nz: 33, ra: 1e6, dt_max: 2e-3, seed: 1, ..Default::default() },
        0.02,
        13,
    );
    let hr = Dataset::from_simulation(&sim);
    let lr = downsample(&hr, 4, 4);
    let corpus = Corpus::new(vec![(hr, lr)]);
    let mut cfg = MfnConfig::small();
    cfg.patch = PatchSpec { nt: 4, nz: 8, nx: 8, queries: 128 };
    cfg.gamma = MfnConfig::GAMMA_STAR;
    let patch = cfg.patch;
    let config = TrainConfig { lr: 1e-2, batch_size: 4, ..TrainConfig::default() };
    let mut trainer = Trainer::new(MeshfreeFlowNet::new(cfg), config);
    let (hr, lr) = &corpus.pairs[0];
    let sampler = PatchSampler::new(hr, lr, patch);
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let got: Vec<(u32, u64)> = (0..PINNED.len())
        .map(|_| {
            let batch = make_batch(&sampler, 4, &mut rng);
            let losses = trainer.step(&batch, corpus.params(0), corpus.stats);
            (losses.total.to_bits(), digest(&trainer.model.store.flatten()))
        })
        .collect();
    for (i, (&(loss, params), &(want_loss, want_params))) in got.iter().zip(&PINNED).enumerate() {
        assert_eq!(
            (loss, params),
            (want_loss, want_params),
            "step {}: loss {} (bits {loss:#010x}), params {params:#018x}; all steps: {got:#x?}",
            i + 1,
            f32::from_bits(loss)
        );
    }
}
