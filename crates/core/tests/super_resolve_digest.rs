//! Super-resolution is pinned bit for bit. On the benchmark's smoke-scale
//! set-up (HR 32 × 33 over 13 frames, downsampled 4 × 4; `MfnConfig::small`
//! with patch 4×8×8, γ = γ\*, two `Trainer::step`s, then frozen), an FNV-1a
//! digest of `FrozenModel::super_resolve`'s field must come out the same on
//! whatever number of threads its decodes run, and so must the digests of
//! `decode_values` at query counts around the decode's 64-query block and at
//! a count that splits over threads. A change that claims to leave inference
//! untouched (another plan schedule, an operand read in place instead of
//! packed) passes this unchanged; one that moves inference on purpose
//! re-pins the table and says why. Never a tolerance: every kernel tier and
//! both codegen profiles give the same bits by construction.

use mfn_core::{
    covering_origins, extract_patch, Corpus, FrozenModel, MeshfreeFlowNet, MfnConfig, TrainConfig,
    Trainer,
};
use mfn_data::{downsample, make_batch, Dataset, PatchSampler, PatchSpec};
use mfn_solver::{simulate, RbcConfig};
use mfn_tensor::le::fnv1a;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Digest of the super-resolved field (every worker count gives it).
const FIELD: u64 = 0x6d8f_ba0a_5722_4e26;

/// `(queries, digest)` of `decode_values` on the first covering patch.
const DECODES: [(usize, u64); 5] = [
    (1, 0x2427_d950_4fca_84e1),
    (63, 0x8daa_2827_5c75_482b),
    (64, 0xa69c_72ee_c5b6_8797),
    (65, 0x2975_f0e0_398c_5d4c),
    (4096, 0x7299_f47f_f3b5_5eba),
];

/// FNV-1a 64 over the little-endian bit patterns of `values`, in order.
fn digest(values: &[f32]) -> u64 {
    fnv1a(values.iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

/// The smoke-scale flow, its corpus and the model trained two steps on it.
fn setup() -> (Corpus, FrozenModel) {
    let sim = simulate(
        &RbcConfig { nx: 32, nz: 33, ra: 1e6, dt_max: 2e-3, seed: 1, ..Default::default() },
        0.02,
        13,
    );
    let hr = Dataset::from_simulation(&sim);
    let lr = downsample(&hr, 4, 4);
    let corpus = Corpus::new(vec![(hr, lr)]);
    let mut cfg = MfnConfig::small();
    cfg.patch = PatchSpec { nt: 4, nz: 8, nx: 8, queries: 16 };
    cfg.gamma = MfnConfig::GAMMA_STAR;
    let patch = cfg.patch;
    let config = TrainConfig { lr: 1e-2, batch_size: 4, ..TrainConfig::default() };
    let mut trainer = Trainer::new(MeshfreeFlowNet::new(cfg), config);
    let (hr, lr) = &corpus.pairs[0];
    let sampler = PatchSampler::new(hr, lr, patch);
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    for _ in 0..2 {
        let batch = make_batch(&sampler, 4, &mut rng);
        trainer.step(&batch, corpus.params(0), corpus.stats);
    }
    (corpus, FrozenModel::from_model(trainer.model))
}

#[test]
fn super_resolution_keeps_its_bits() {
    let (corpus, model) = setup();
    let (hr, lr) = &corpus.pairs[0];
    let mut got = Vec::new();
    for workers in [None, Some(1), Some(2)] {
        let field = model.super_resolve_with(workers, lr, &hr.meta, corpus.stats);
        got.push((workers, digest(&field.data)));
    }
    for &(workers, field) in &got {
        assert_eq!(field, FIELD, "workers {workers:?}: {field:#018x}; all: {got:#x?}");
    }

    let origins = covering_origins(lr, model.cfg().patch);
    let origin = [origins.t[0], origins.z[0], origins.x[0]];
    let latent = model.encode(&extract_patch(lr, origin, model.cfg().patch, corpus.stats));
    let got: Vec<(usize, u64)> = DECODES
        .iter()
        .map(|&(q, _)| {
            let points = (0..q).map(|i| {
                let f = (i as f32 + 0.5) / q as f32;
                (0usize, [f, (f * 7.3).fract(), (f * 13.1).fract()])
            });
            (q, digest(model.decode_values(&latent, points).data()))
        })
        .collect();
    assert_eq!(got, DECODES, "decode_values digests: {got:#x?}");
}
