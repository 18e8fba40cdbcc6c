//! Criterion benchmarks of the end-to-end pipeline stages: one full training
//! step (forward + both losses + backward + Adam), the equation-loss
//! overhead (γ = 0 against γ*: one decoder lane against six), and
//! full-domain super-resolution.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mfn_core::{ChannelStats, Corpus, MeshfreeFlowNet, MfnConfig, TrainConfig, Trainer};
use mfn_data::{downsample, make_batch, Dataset, PatchSampler, PatchSpec};
use mfn_solver::{simulate, RbcConfig};
use mfn_telemetry::Recorder;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

fn data() -> (Dataset, Dataset) {
    let sim = simulate(
        &RbcConfig { nx: 64, nz: 17, ra: 1e6, dt_max: 2e-3, ..Default::default() },
        1.0,
        17,
    );
    let hr = Dataset::from_simulation(&sim);
    let lr = downsample(&hr, 2, 2);
    (hr, lr)
}

fn model_cfg(gamma: f32) -> MfnConfig {
    let mut cfg = MfnConfig::small();
    cfg.patch = PatchSpec { nt: 4, nz: 8, nx: 8, queries: 128 };
    cfg.gamma = gamma;
    cfg
}

/// One optimizer step, with and without the equation loss: measures the cost
/// of the PDE constraint (the decoder's five derivative lanes).
fn bench_train_step(c: &mut Criterion) {
    let (hr, lr) = data();
    let corpus = Corpus::new(vec![(hr.clone(), lr.clone())]);
    let mut group = c.benchmark_group("train_step");
    group.sample_size(10);
    for (name, gamma) in [("gamma0", 0.0f32), ("gamma_star", 0.0125)] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &gamma, |bench, &gamma| {
            let mut trainer = Trainer::new(
                MeshfreeFlowNet::new(model_cfg(gamma)),
                TrainConfig { lr: 1e-3, ..Default::default() },
            );
            let sampler = PatchSampler::new(&hr, &lr, trainer.model.cfg.patch);
            let mut rng = ChaCha8Rng::seed_from_u64(0);
            bench.iter(|| {
                let batch = make_batch(&sampler, 4, &mut rng);
                black_box(trainer.step(&batch, corpus.params(0), corpus.stats))
            })
        });
    }
    group.finish();
}

/// The same gradient step with telemetry variants: `null` (the default
/// disabled recorder — the acceptance bar is within a few percent of the
/// uninstrumented step, since recording is a single branch) and `memory`
/// (the bounded ring buffer tests use).
fn bench_train_step_telemetry(c: &mut Criterion) {
    let (hr, lr) = data();
    let corpus = Corpus::new(vec![(hr.clone(), lr.clone())]);
    let mut group = c.benchmark_group("train_step_telemetry");
    group.sample_size(10);
    for name in ["null", "memory"] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &name, |bench, &name| {
            let recorder = match name {
                "null" => Recorder::null(),
                _ => Recorder::memory(1024).0,
            };
            let mut trainer = Trainer::new(
                MeshfreeFlowNet::new(model_cfg(0.0)),
                TrainConfig { lr: 1e-3, ..Default::default() },
            )
            .with_recorder(recorder);
            let sampler = PatchSampler::new(&hr, &lr, trainer.model.cfg.patch);
            let mut rng = ChaCha8Rng::seed_from_u64(0);
            bench.iter(|| {
                let batch = make_batch(&sampler, 4, &mut rng);
                black_box(trainer.step(&batch, corpus.params(0), corpus.stats))
            })
        });
    }
    group.finish();
}

/// Full-domain super-resolution of the LR dataset onto the HR grid.
fn bench_super_resolve(c: &mut Criterion) {
    let (hr, lr) = data();
    let stats = ChannelStats::from_meta(&hr.meta);
    let mut group = c.benchmark_group("super_resolve");
    group.sample_size(10);
    group.bench_function("full_domain", |bench| {
        let model = MeshfreeFlowNet::new(model_cfg(0.0));
        bench.iter(|| black_box(model.super_resolve(&lr, &hr.meta, stats)))
    });
    group.finish();
}

/// One simulated second of the Rayleigh–Bénard substrate (data generation).
fn bench_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation");
    group.sample_size(10);
    group.bench_function("rbc_64x17_1s", |bench| {
        bench.iter(|| {
            let cfg = RbcConfig { nx: 64, nz: 17, ra: 1e6, dt_max: 2e-3, ..Default::default() };
            black_box(simulate(&cfg, 1.0, 5))
        })
    });
    group.finish();
}

criterion_group! {
    name = pipeline;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(5))
        .warm_up_time(std::time::Duration::from_secs(1));
    targets = bench_train_step, bench_train_step_telemetry, bench_super_resolve, bench_simulation
}
criterion_main!(pipeline);
