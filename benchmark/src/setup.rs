//! The set-up every workload shares, timed as `setup_s`: simulate a
//! Rayleigh–Bénard flow from the seed, downsample it, train a small
//! MeshfreeFlowNet on it for a few steps, and freeze the result. The seed
//! reaches the program under test only through the inputs generated here.
//!
//! Like every timing of the benchmark, `setup_s` is at reference host speed:
//! the set-up runs in segments (the simulation, the data preparation, each
//! training step, the freeze) with a host probe between them, and each
//! segment counts for its wall time over how slow the host was around it
//! (see [`crate::probe`]).

use crate::probe::HostClock;
use crate::trace::{At, Tracer};
use mfn_core::{Corpus, FrozenModel, MeshfreeFlowNet, MfnConfig, TrainConfig, Trainer};
use mfn_data::{downsample, make_batch, Dataset, PatchSampler, PatchSpec};
use mfn_solver::{simulate, RbcConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Patches per training batch, in set-up and in the training workloads.
pub const BATCH: usize = 4;

/// Size of the generated problem.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// HR grid columns (rows are fixed at 33).
    pub nx: usize,
    /// Simulated seconds.
    pub sim_seconds: f64,
    /// HR frames; 13 downsample by 4 to exactly one patch length in time.
    pub frames: usize,
    /// `Trainer::step`s before the model is frozen.
    pub train_steps: usize,
    /// Query points per training patch.
    pub queries: usize,
}

impl Scale {
    /// What `BENCHMARK.json` runs.
    pub const FULL: Scale =
        Scale { nx: 128, sim_seconds: 0.5, frames: 13, train_steps: 8, queries: 128 };
    /// What `--smoke` runs: same code paths on a sliver of the data.
    pub const SMOKE: Scale =
        Scale { nx: 32, sim_seconds: 0.02, frames: 13, train_steps: 2, queries: 16 };
}

/// How long the set-up and its parts took.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// The whole set-up, at reference host speed.
    pub total_s: f64,
    /// The whole set-up, wall time (probes excluded).
    pub wall_s: f64,
    /// `mfn_solver::simulate`.
    pub sim_s: f64,
    /// `mfn_data::downsample`.
    pub downsample_s: f64,
    /// The training steps.
    pub train_s: f64,
}

/// The generated inputs and the trained model.
pub struct Env {
    /// Model architecture (small preset, γ = γ*).
    pub cfg: MfnConfig,
    /// The one `(HR, LR)` pair and its channel statistics.
    pub corpus: Corpus,
    /// The trained model (`super_resolve` needs the trainable form).
    pub model: MeshfreeFlowNet,
    /// The same weights frozen for inference and serving.
    pub frozen: FrozenModel,
    /// How long it all took.
    pub times: SetupTimes,
    /// Simulated seconds, for `solver.sim_s_per_wall_s`.
    pub sim_seconds: f64,
}

/// The architecture under test.
pub fn model_config(scale: Scale) -> MfnConfig {
    let mut cfg = MfnConfig::small();
    cfg.patch = PatchSpec { nt: 4, nz: 8, nx: 8, queries: scale.queries };
    cfg.gamma = MfnConfig::GAMMA_STAR;
    cfg
}

/// The training hyperparameters under test (paper learning rate, defaults
/// otherwise: uniform queries, no checkpoints).
pub fn train_config() -> TrainConfig {
    TrainConfig { lr: 1e-2, batch_size: BATCH, ..TrainConfig::default() }
}

/// A second model holding `model`'s parameters and batch-norm statistics.
fn copy_model(model: &MeshfreeFlowNet) -> MeshfreeFlowNet {
    let mut copy = MeshfreeFlowNet::new(model.cfg.clone());
    copy.store.unflatten_into(&model.store.flatten());
    let mut bn = Vec::new();
    model.write_bn_stats(&mut bn).expect("writing to a Vec cannot fail");
    copy.read_bn_stats(&mut bn.as_slice()).expect("same architecture, same layout");
    copy
}

/// Runs the set-up once. The three parts are wall times, as the spans are.
pub fn build(seed: u64, scale: Scale, tracer: Option<&Tracer>) -> Env {
    let mut clock = HostClock::default();
    let sim_cfg =
        RbcConfig { nx: scale.nx, nz: 33, ra: 1e6, dt_max: 2e-3, seed, ..RbcConfig::default() };
    let at = At::root(tracer, 0);
    let sim = clock.segment(|| {
        at.span("solver.simulate", |_| simulate(&sim_cfg, scale.sim_seconds, scale.frames))
    });
    let sim_s = clock.raw_s;
    let cfg = model_config(scale);
    let mut downsample_s = 0.0;
    let (corpus, mut trainer) = clock.segment(|| {
        let hr = Dataset::from_simulation(&sim);
        let t = Instant::now();
        let lr = at.span("data.downsample", |_| downsample(&hr, 4, 4));
        downsample_s = t.elapsed().as_secs_f64();
        let trainer = Trainer::new(MeshfreeFlowNet::new(cfg.clone()), train_config());
        (Corpus::new(vec![(hr, lr)]), trainer)
    });

    let before_train_s = clock.raw_s;
    let (hr, lr) = &corpus.pairs[0];
    let sampler = PatchSampler::new(hr, lr, cfg.patch);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for _ in 0..scale.train_steps {
        clock.segment(|| {
            at.span("core.setup_train_step", |_| {
                let batch = make_batch(&sampler, BATCH, &mut rng);
                trainer.step(&batch, corpus.params(0), corpus.stats);
            });
        });
    }
    let train_s = clock.raw_s - before_train_s;
    let frozen = clock.segment(|| FrozenModel::from_model(copy_model(&trainer.model)));
    Env {
        cfg,
        corpus,
        model: trainer.model,
        frozen,
        times: SetupTimes {
            total_s: clock.scaled_s,
            wall_s: clock.raw_s,
            sim_s,
            downsample_s,
            train_s,
        },
        sim_seconds: scale.sim_seconds,
    }
}
