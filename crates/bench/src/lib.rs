//! # mfn-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation section (Sec. 5). Each `table*`/`fig*` function runs
//! the full pipeline — simulate → downsample → train → super-resolve →
//! score — once per seed for every arm, and returns its [`Results`]; `repro`
//! writes them as a [`Record`], JSON beside its one rendered text
//! ([`mfn_core::render`]). The ones on the paper's Ra = 10⁶ run take its
//! corpus ([`ExperimentScale::paper_corpus`]) as an argument, so a process
//! that runs several of them simulates it once.
//!
//! Scale is controlled by [`ExperimentScale`]: `quick()` (CI-sized, minutes
//! on a laptop CPU), `default_scale()` (the scale used for EXPERIMENTS.md),
//! and `paper()` (the paper's 512×128×400 configuration — hours on CPU). We
//! aim to reproduce the *shape* of each result (ordering, rough factors,
//! crossovers), not the authors' GPU-cluster absolute numbers; see
//! EXPERIMENTS.md.

use mfn_autodiff::Activation;
use mfn_core::{
    baseline_trilinear, evaluate_pair, render, Arm, BaselineII, ConstraintSet, Corpus, EpochRecord,
    FrozenModel, MfnConfig, Order, Results, Run, Scores, TrainConfig, Trainer, WorldRun,
};
use mfn_data::{downsample, Dataset, PatchSpec};
use mfn_dist::train_data_parallel;
use mfn_solver::{simulate, RbcConfig};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The seeds every experiment runs each arm on. Seed `k` sets both the
/// model's initialization ([`MfnConfig::seed`]) and its batch stream
/// ([`TrainConfig::seed`]); the data's seeds do not change with it. Seed 0
/// is both configs' default.
pub const SEEDS: [u64; 5] = [0, 1, 2, 3, 4];

/// Knobs shared by every experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentScale {
    /// HR grid columns.
    pub nx: usize,
    /// HR grid rows.
    pub nz: usize,
    /// HR output frames.
    pub frames: usize,
    /// Simulated seconds.
    pub duration: f64,
    /// Temporal downsampling factor (paper: 4).
    pub ds_t: usize,
    /// Spatial downsampling factor (paper: 8).
    pub ds_s: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batches per epoch.
    pub batches_per_epoch: usize,
    /// Patches per batch.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Per-epoch lr decay.
    pub lr_decay: f32,
    /// Model preset: widths, and the LR patch / latent grid shape (`patch`).
    pub model: MfnConfig,
    /// Evaluation frames skipped (quiescent spin-up).
    pub eval_skip: usize,
}

impl ExperimentScale {
    /// CI-sized: completes each table in minutes on one CPU core, while
    /// keeping the paper's aggressive 4x/8x downsampling factors (the regime
    /// where trilinear interpolation collapses and the learned models win).
    pub fn quick() -> Self {
        let mut model = MfnConfig::small();
        model.patch = PatchSpec { nt: 4, nz: 4, nx: 8, queries: 128 };
        ExperimentScale {
            nx: 64,
            nz: 33,
            frames: 33,
            duration: 8.0,
            ds_t: 4,
            ds_s: 8,
            epochs: 30,
            batches_per_epoch: 8,
            batch_size: 4,
            lr: 1e-2,
            lr_decay: 0.96,
            model,
            eval_skip: 8,
        }
    }

    /// The larger scale of EXPERIMENTS.md, written to `results/default/`
    /// (minutes per training on a 2-vCPU host; the records hold each run's
    /// wall seconds). Paper's downsampling factors (4× time, 8× space) on a
    /// quarter-resolution grid.
    pub fn default_scale() -> Self {
        let mut model = MfnConfig::small();
        model.patch = PatchSpec { nt: 4, nz: 4, nx: 8, queries: 256 };
        model.base_channels = 8;
        model.latent_channels = 16;
        model.mlp_hidden = vec![64, 64, 32];
        ExperimentScale {
            nx: 128,
            nz: 33,
            frames: 49,
            duration: 12.0,
            ds_t: 4,
            ds_s: 8,
            epochs: 120,
            batches_per_epoch: 8,
            batch_size: 4,
            lr: 1e-2,
            lr_decay: 0.98,
            model,
            eval_skip: 8,
        }
    }

    /// The paper's configuration: 512×128 grid, 400 frames, 4×/8×
    /// downsampling, `[4,16,16]` patches, full Fig. 5 widths. CPU-hostile;
    /// provided for completeness (`repro <exp> --paper-scale`).
    pub fn paper() -> Self {
        let model = MfnConfig::paper();
        ExperimentScale {
            nx: 512,
            nz: 128,
            frames: 400,
            duration: 50.0,
            ds_t: 4,
            ds_s: 8,
            epochs: 100,
            batches_per_epoch: 100,
            batch_size: 8,
            lr: 1e-2,
            lr_decay: 1.0,
            model,
            eval_skip: 20,
        }
    }

    /// Training-loop config implied by this scale.
    pub fn train_config(&self) -> TrainConfig {
        TrainConfig {
            lr: self.lr,
            batch_size: self.batch_size,
            batches_per_epoch: self.batches_per_epoch,
            epochs: self.epochs,
            grad_clip: 1.0,
            lr_decay: self.lr_decay,
            ..TrainConfig::default()
        }
    }

    /// Model config with a given equation-loss weight.
    pub fn model_config(&self, gamma: f32) -> MfnConfig {
        let mut m = self.model.clone();
        m.gamma = gamma;
        m
    }

    /// Simulates one HR/LR dataset pair at this scale.
    pub fn build_pair(&self, ra: f64, seed: u64) -> (Dataset, Dataset) {
        eprintln!("[data] simulating Ra={ra:.1e}, seed={seed} ...");
        let cfg =
            RbcConfig { nx: self.nx, nz: self.nz, ra, dt_max: 2e-3, seed, ..Default::default() };
        let sim = simulate(&cfg, self.duration, self.frames);
        let hr = Dataset::from_simulation(&sim);
        let lr = downsample(&hr, self.ds_t, self.ds_s);
        (hr, lr)
    }

    /// The paper's Ra = 10⁶ run (seed 7) as a one-pair corpus: the data of
    /// Tables 1–2, Fig. 6, Fig. 7 and the ablations. Build it once and pass
    /// it to each of them.
    pub fn paper_corpus(&self) -> Corpus {
        Corpus::new(vec![self.build_pair(1e6, 7)])
    }
}

/// The record `repro` writes for one experiment: what it measured and the
/// scale it measured it at. No commit is recorded: the history of the file
/// says which commit wrote it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    /// The `repro` experiment that wrote it (`table1` … `ablation`).
    pub experiment: String,
    /// The scale preset it ran at (`quick`, `default` or `paper`): the
    /// directory it is written to.
    pub scale_name: String,
    /// The scale itself, `--epochs` applied.
    pub scale: ExperimentScale,
    /// Every arm on every seed.
    pub results: Results,
}

impl Record {
    /// `<out>/<scale_name>/<experiment>.<ext>`: where the record (`json`)
    /// and its rendering (`txt`) go.
    pub fn path(&self, out: &Path, ext: &str) -> PathBuf {
        out.join(&self.scale_name).join(format!("{}.{ext}", self.experiment))
    }

    /// Writes the record and its rendering, and returns the rendering.
    pub fn write(&self, out: &Path) -> std::io::Result<String> {
        std::fs::create_dir_all(out.join(&self.scale_name))?;
        let json = serde_json::to_string_pretty(self).expect("a record serializes");
        std::fs::write(self.path(out, "json"), json + "\n")?;
        let text = render(&self.results);
        std::fs::write(self.path(out, "txt"), &text)?;
        Ok(text)
    }
}

/// A MeshfreeFlowNet trained on one seed, frozen from the run's final
/// state, and what its training cost.
struct Trained {
    model: FrozenModel,
    seed: u64,
    tc: TrainConfig,
    train_s: f64,
    epochs: Vec<EpochRecord>,
    worlds: Vec<usize>,
}

/// Trains a MeshfreeFlowNet of `cfg` on `corpus` under this scale's training
/// config, both seeded with `seed`, through the training driver on one
/// worker.
fn train_mfn(scale: &ExperimentScale, cfg: &MfnConfig, seed: u64, corpus: &Corpus) -> Trained {
    let start = Instant::now();
    let cfg = MfnConfig { seed, ..cfg.clone() };
    let tc = TrainConfig { seed, ..scale.train_config() };
    let run = train_data_parallel(corpus, &cfg, &tc, 1);
    let train_s = start.elapsed().as_secs_f64();
    eprintln!("[train] seed {seed}: {} epochs in {train_s:.2} s", run.epochs.len());
    Trained {
        model: FrozenModel::from_state(&run.final_state).expect("the run's own final state"),
        seed,
        tc,
        train_s,
        epochs: run.epochs,
        worlds: run.epoch_worlds,
    }
}

/// Scores `sr` against the HR set of `test`.
fn score(scale: &ExperimentScale, test: &(Dataset, Dataset), sr: &Dataset) -> Scores {
    let hr = &test.0;
    evaluate_pair(hr, sr, (hr.meta.pr / hr.meta.ra).sqrt(), scale.eval_skip)
}

impl Trained {
    /// The model's run on `test`: its super-resolution of the LR set scored
    /// against the HR set.
    fn run(&self, scale: &ExperimentScale, corpus: &Corpus, test: &(Dataset, Dataset)) -> Run {
        let start = Instant::now();
        let (hr, lr) = test;
        let scores = score(scale, test, &self.model.super_resolve(lr, &hr.meta, corpus.stats));
        let wall_s = self.train_s + start.elapsed().as_secs_f64();
        Run::trained(self.seed, scores, &self.epochs, &self.worlds, &self.tc, wall_s)
    }
}

/// An arm of `label`: a MeshfreeFlowNet of `cfg` trained on `corpus` once
/// per seed and scored on `test`.
fn mfn_arm(
    scale: &ExperimentScale,
    corpus: &Corpus,
    test: &(Dataset, Dataset),
    cfg: &MfnConfig,
    label: &str,
    seeds: &[u64],
) -> Arm {
    eprintln!("[arm] {label} ...");
    let runs =
        seeds.iter().map(|&seed| train_mfn(scale, cfg, seed, corpus).run(scale, corpus, test));
    Arm { label: label.to_string(), runs: runs.collect() }
}

/// The orderings `(first, second)`: the paper ranks `first` above `second`.
fn orders(pairs: &[(&str, &str)]) -> Vec<Order> {
    pairs.iter().map(|(a, b)| Order { first: a.to_string(), second: b.to_string() }).collect()
}

/// **Table 1**: equation-loss-weight (γ) ablation over [`TABLE1_GAMMAS`] on
/// `corpus` (the paper's run, [`ExperimentScale::paper_corpus`]), scored on
/// its own pair.
pub fn table1(scale: &ExperimentScale, corpus: &Corpus, seeds: &[u64]) -> Results {
    let pair = &corpus.pairs[0];
    let arms = TABLE1_GAMMAS.iter().map(|&gamma| {
        mfn_arm(scale, corpus, pair, &scale.model_config(gamma), &format!("gamma={gamma}"), seeds)
    });
    Results {
        title: "Table 1: equation-loss weight (gamma) ablation".into(),
        seeds: seeds.to_vec(),
        arms: arms.collect(),
        orders: orders(&[
            ("gamma=0.0125", "gamma=0"),
            ("gamma=0", "gamma=1"),
            ("gamma=0.0125", "gamma=1"),
        ]),
        ..Default::default()
    }
}

/// The paper's Table 1 γ sweep.
pub const TABLE1_GAMMAS: [f32; 9] = [0.0, 0.0125, 0.025, 0.05, 0.1, 0.2, 0.4, 0.8, 1.0];

/// **Table 2**: MeshfreeFlowNet (γ=0 and γ=γ*) vs. Baselines (I) and (II),
/// trained on `corpus` (the paper's run) and scored on its own pair.
pub fn table2(scale: &ExperimentScale, corpus: &Corpus, seeds: &[u64]) -> Results {
    let pair = &corpus.pairs[0];
    let (hr, lr) = pair;

    // Trilinear interpolation has no seed: one run, repeated per seed so
    // that every arm pairs with it.
    eprintln!("[arm] Baseline (I): trilinear interpolation ...");
    let start = Instant::now();
    let b1 = Run::untrained(0, score(scale, pair, &baseline_trilinear(lr, hr)));
    let b1 = Run { wall_s: start.elapsed().as_secs_f64(), ..b1 };
    let b1 = Arm {
        label: "Baseline (I)".into(),
        runs: seeds.iter().map(|&seed| Run { seed, ..b1.clone() }).collect(),
    };

    // Baseline (II) trains in MFN's loop, at the same batch size, for a
    // ninth of the epochs: it decodes every HR voxel of its patches, so an
    // epoch of it costs several of MFN gamma*'s. Each run's epochs and wall
    // seconds are in the record (results/quick/table2.json).
    eprintln!("[arm] Baseline (II): conv-decoder U-Net ...");
    let b2_runs = seeds.iter().map(|&seed| {
        let start = Instant::now();
        let cfg = MfnConfig { seed, ..scale.model_config(0.0) };
        let tc = TrainConfig { seed, epochs: (scale.epochs / 9).max(1), ..scale.train_config() };
        let mut trainer =
            Trainer::new(BaselineII::new(cfg, [scale.ds_t, scale.ds_s, scale.ds_s]), tc);
        let records = trainer.train(corpus);
        eprintln!(
            "[train] seed {seed}: {} epochs in {:.2} s",
            records.len(),
            start.elapsed().as_secs_f64()
        );
        let sr = trainer.model.super_resolve(lr, &hr.meta, corpus.stats);
        let scores = score(scale, pair, &sr);
        let wall_s = start.elapsed().as_secs_f64();
        let run = Run::trained(seed, scores, &records, &vec![1; records.len()], &tc, wall_s);
        // No losses: its loss is over every HR voxel of a patch, not over
        // MFN's query points, so none of it compares with theirs.
        Run { prediction_loss: None, equation_loss: None, ..run }
    });
    let b2 = Arm { label: "Baseline (II)".into(), runs: b2_runs.collect() };

    let gamma0 = mfn_arm(scale, corpus, pair, &scale.model_config(0.0), "MFN, gamma=0", seeds);
    let star = scale.model_config(MfnConfig::GAMMA_STAR);
    let gamma_star = mfn_arm(scale, corpus, pair, &star, "MFN, gamma=g*", seeds);
    Results {
        title: "Table 2: MeshfreeFlowNet vs baselines".into(),
        seeds: seeds.to_vec(),
        arms: vec![b1, b2, gamma0, gamma_star],
        orders: orders(&[
            ("MFN, gamma=g*", "MFN, gamma=0"),
            ("MFN, gamma=g*", "Baseline (II)"),
            ("MFN, gamma=0", "Baseline (II)"),
            ("Baseline (II)", "Baseline (I)"),
            ("MFN, gamma=g*", "Baseline (I)"),
        ]),
        ..Default::default()
    }
}

/// **Table 3**: generalization to an unseen initial condition after training
/// on 1 vs. `n_many` datasets with different ICs (seeds `1..=n_many`; the
/// single-dataset run trains on the first of them).
pub fn table3(scale: &ExperimentScale, n_many: usize, seeds: &[u64]) -> Results {
    let test = scale.build_pair(1e6, 999);
    let pairs: Vec<_> = (1..=n_many as u64).map(|s| scale.build_pair(1e6, s)).collect();
    let star = scale.model_config(MfnConfig::GAMMA_STAR);
    let one = Corpus::new(vec![pairs[0].clone()]);
    let one = mfn_arm(scale, &one, &test, &star, "1 dataset", seeds);
    let many_label = format!("{n_many} datasets");
    let many = mfn_arm(scale, &Corpus::new(pairs), &test, &star, &many_label, seeds);
    Results {
        title: "Table 3: unseen initial conditions".into(),
        seeds: seeds.to_vec(),
        arms: vec![one, many],
        orders: orders(&[(&many_label, "1 dataset")]),
        ..Default::default()
    }
}

/// **Table 4**: generalization across Rayleigh numbers. Trains once per
/// seed on `train_ras`, evaluates on each of `test_ras` (ascending, unseen
/// seed). The paper's ordering: of two test points on the same side of the
/// training range, the nearer scores higher.
pub fn table4(
    scale: &ExperimentScale,
    train_ras: &[f64],
    test_ras: &[f64],
    seeds: &[u64],
) -> Results {
    let corpus = Corpus::new(
        train_ras.iter().enumerate().map(|(i, &ra)| scale.build_pair(ra, 10 + i as u64)).collect(),
    );
    let tests: Vec<_> = test_ras.iter().map(|&ra| scale.build_pair(ra, 777)).collect();
    let label = |ra: f64| format!("Ra={ra:.1e}");
    let star = scale.model_config(MfnConfig::GAMMA_STAR);
    let mut arms: Vec<Arm> =
        test_ras.iter().map(|&ra| Arm { label: label(ra), runs: Vec::new() }).collect();
    for &seed in seeds {
        let trained = train_mfn(scale, &star, seed, &corpus);
        for (arm, test) in arms.iter_mut().zip(&tests) {
            arm.runs.push(trained.run(scale, &corpus, test));
        }
    }
    let lo = train_ras.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = train_ras.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut nearer = Vec::new();
    for w in test_ras.windows(2) {
        if w[1] <= lo {
            nearer.push((label(w[1]), label(w[0])));
        } else if w[0] >= hi {
            nearer.push((label(w[0]), label(w[1])));
        }
    }
    let nearer: Vec<(&str, &str)> = nearer.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
    Results {
        title: "Table 4: Rayleigh-number generalization".into(),
        seeds: seeds.to_vec(),
        arms,
        orders: orders(&nearer),
        ..Default::default()
    }
}

/// **Fig. 6**: MFN γ* trained on `corpus`'s pair (the paper's run) on the
/// first of [`SEEDS`], its LR-input / MFN-prediction / HR-ground-truth
/// contour panels (PGM + CSV) for all four channels written into `outdir`.
/// The run scored is Table 2's `MFN, gamma=g*` run of that seed, so no other
/// seed is trained.
pub fn fig6(scale: &ExperimentScale, corpus: &Corpus, outdir: &Path) -> std::io::Result<Results> {
    std::fs::create_dir_all(outdir)?;
    let seed = SEEDS[0];
    let pair = &corpus.pairs[0];
    let (hr, lr) = pair;
    let star = scale.model_config(MfnConfig::GAMMA_STAR);
    let trained = train_mfn(scale, &star, seed, corpus);
    let sr = trained.model.super_resolve(lr, &hr.meta, corpus.stats);
    let frame_hr = hr.meta.nt * 3 / 4;
    let frame_lr = (frame_hr / scale.ds_t).min(lr.meta.nt - 1);
    let names = ["T", "p", "u", "w"];
    for (c, name) in names.iter().enumerate() {
        mfn_data::image::write_pgm(lr, frame_lr, c, &outdir.join(format!("lr_{name}.pgm")))?;
        mfn_data::image::write_pgm(&sr, frame_hr, c, &outdir.join(format!("pred_{name}.pgm")))?;
        mfn_data::image::write_pgm(hr, frame_hr, c, &outdir.join(format!("gt_{name}.pgm")))?;
        mfn_data::image::write_csv(&sr, frame_hr, c, &outdir.join(format!("pred_{name}.csv")))?;
        mfn_data::image::write_csv(hr, frame_hr, c, &outdir.join(format!("gt_{name}.csv")))?;
    }
    eprintln!("[fig6] wrote seed {seed}'s panels to {}", outdir.display());
    Ok(Results {
        title: "Fig. 6: MFN gamma=g* on the paper's run (Table 2's run of seed 0)".into(),
        seeds: vec![seed],
        arms: vec![Arm {
            label: "MFN, gamma=g*".into(),
            runs: vec![trained.run(scale, corpus, pair)],
        }],
        ..Default::default()
    })
}

/// **Fig. 7**: measured synchronous data-parallel training on `corpus` (the
/// paper's run) at 1, 2, 4, … workers up to `max_workers`, one run per
/// count, on the first of [`SEEDS`]. The runs carry all three panels:
/// throughput (7a), loss per epoch (7b) and wall-clock per epoch (7c).
pub fn fig7(scale: &ExperimentScale, corpus: &Corpus, max_workers: usize) -> Results {
    let seed = SEEDS[0];
    let tc = TrainConfig { seed, ..scale.train_config() };
    let mcfg = MfnConfig { seed, ..scale.model_config(MfnConfig::GAMMA_STAR) };
    let worlds = (0..).map(|k| 1usize << k).take_while(|&n| n <= max_workers.max(1)).map(|n| {
        eprintln!("[fig7] measuring {n} worker(s) ...");
        let run = train_data_parallel(corpus, &mcfg, &tc, n);
        let (epochs, worlds) = (&run.epochs, &run.epoch_worlds);
        WorldRun::trained(run.final_world, run.throughput, epochs, worlds, run.epoch_wall, &tc)
    });
    Results {
        title: "Fig. 7: synchronous data-parallel training".into(),
        seeds: vec![seed],
        worlds: worlds.collect(),
        ..Default::default()
    }
}

/// **Ablations** (beyond the paper), trained on `corpus` (the paper's run)
/// and scored on its pair, with each run's final prediction and equation
/// losses. Two studies vary the default (softplus decoder, all four
/// constraints, γ*):
/// - the decoder activation. The paper's Fig. 5 shows ReLU; we default to
///   softplus so exact second derivatives exist (ReLU's vanish almost
///   everywhere, silently disabling the Laplacian terms of the equation
///   loss);
/// - PDE-constraint combinations (the paper's "arbitrary combinations of
///   PDE constraints" feature).
pub fn ablation(scale: &ExperimentScale, corpus: &Corpus, seeds: &[u64]) -> Results {
    let base = scale.model_config(MfnConfig::GAMMA_STAR);
    let act = |activation| MfnConfig { activation, ..base.clone() };
    let set = |constraints| MfnConfig { constraints, ..base.clone() };
    let transport_only = ConstraintSet {
        continuity: false,
        temperature: true,
        momentum_x: false,
        momentum_z: false,
    };
    let variants = [
        ("softplus, all four", base.clone()),
        ("act=relu", act(Activation::Relu)),
        ("act=tanh", act(Activation::Tanh)),
        ("continuity only", set(ConstraintSet::CONTINUITY_ONLY)),
        ("transport only", set(transport_only)),
    ];
    let pair = &corpus.pairs[0];
    let arms = variants.iter().map(|(label, cfg)| mfn_arm(scale, corpus, pair, cfg, label, seeds));
    Results {
        title: "Ablations: decoder activation and PDE constraint combinations".into(),
        seeds: seeds.to_vec(),
        arms: arms.collect(),
        orders: orders(&[
            ("softplus, all four", "act=relu"),
            ("softplus, all four", "act=tanh"),
            ("softplus, all four", "continuity only"),
            ("softplus, all four", "transport only"),
        ]),
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A micro scale so harness smoke tests stay fast.
    fn micro() -> ExperimentScale {
        let mut s = ExperimentScale::quick();
        s.nx = 32;
        s.nz = 9;
        s.frames = 9;
        s.duration = 0.5;
        s.ds_t = 2;
        s.ds_s = 2;
        s.model.patch = PatchSpec { nt: 4, nz: 4, nx: 8, queries: 16 };
        s.model.base_channels = 4;
        s.model.latent_channels = 8;
        s.model.mlp_hidden = vec![16, 16];
        s.epochs = 2;
        s.batches_per_epoch = 2;
        s.batch_size = 2;
        s.eval_skip = 2;
        s
    }

    /// `results` with every wall-clock field zeroed: what a rerun reproduces.
    fn untimed(mut results: Results) -> Results {
        for run in results.arms.iter_mut().flat_map(|a| &mut a.runs) {
            run.wall_s = 0.0;
        }
        results
    }

    #[test]
    fn table2_smoke() {
        let s = micro();
        let t = table2(&s, &s.paper_corpus(), &[0, 1]);
        let labels: Vec<_> = t.arms.iter().map(|a| a.label.as_str()).collect();
        assert_eq!(labels, ["Baseline (I)", "Baseline (II)", "MFN, gamma=0", "MFN, gamma=g*"]);
        for arm in &t.arms {
            assert_eq!(arm.runs.iter().map(|r| r.seed).collect::<Vec<_>>(), [0, 1]);
        }
        let b2 = &t.arms[1].runs[0];
        assert_eq!((b2.epochs, b2.steps, b2.patches), (1, 2, 4));
        let text = render(&t);
        assert!(text.contains("paired seeds"), "{text}");
    }

    /// Seed k of an arm is the same run whether it ran alone or after other
    /// seeds: the seeds of a table share nothing but the data.
    #[test]
    fn a_seed_runs_the_same_alone_or_beside_others() {
        let s = micro();
        let corpus = s.paper_corpus();
        let alone = untimed(table2(&s, &corpus, &[1]));
        let beside = untimed(table2(&s, &corpus, &[0, 1]));
        for (a, b) in alone.arms.iter().zip(&beside.arms) {
            assert_eq!(a.runs[0], b.runs[1], "{}", a.label);
        }
        assert_ne!(beside.arms[3].runs[0].scores, beside.arms[3].runs[1].scores);
    }

    #[test]
    fn table1_smoke() {
        let s = micro();
        let t = table1(&s, &s.paper_corpus(), &[0]);
        assert_eq!(t.arms.len(), TABLE1_GAMMAS.len());
        assert_eq!(t.arms[1].label, "gamma=0.0125");
        render(&t);
    }

    #[test]
    fn table3_smoke() {
        let t = table3(&micro(), 2, &[0]);
        assert_eq!(t.arms.len(), 2);
        assert_eq!(t.orders, orders(&[("2 datasets", "1 dataset")]));
    }

    #[test]
    fn table4_smoke() {
        let t = table4(&micro(), &[1e5], &[1e5, 1e6], &[0, 1]);
        assert_eq!(t.arms.len(), 2);
        // One training per seed serves every test point.
        assert_eq!(t.arms[0].runs[1].prediction_loss, t.arms[1].runs[1].prediction_loss);
        assert_eq!(t.orders, orders(&[("Ra=1.0e5", "Ra=1.0e6")]));
        render(&t);
    }

    #[test]
    fn fig7_smoke() {
        let s = micro();
        let t = fig7(&s, &s.paper_corpus(), 2);
        assert_eq!(t.worlds.iter().map(|w| w.workers).collect::<Vec<_>>(), [1, 2]);
        for w in &t.worlds {
            assert!(w.throughput > 0.0);
            assert_eq!(w.epoch_loss.len(), s.epochs);
            assert_eq!(w.epoch_wall.len(), s.epochs);
            assert_eq!(w.patches, w.steps * s.batch_size * w.workers);
        }
        assert!(render(&t).contains("100.0%"));
    }

    #[test]
    fn ablations_smoke() {
        let s = micro();
        let t = ablation(&s, &s.paper_corpus(), &[0]);
        assert_eq!(t.arms.len(), 5);
        let pred: Vec<f64> = t.arms.iter().map(|a| a.runs[0].prediction_loss.unwrap()).collect();
        assert!(pred.iter().all(|p| p.is_finite()), "{pred:?}");
        let eq: Vec<f64> = t.arms.iter().map(|a| a.runs[0].equation_loss.unwrap()).collect();
        assert!(eq.iter().all(|e| e.is_finite() && *e > 0.0), "{eq:?}");
        // Different constraint sets average different residuals.
        assert_ne!(eq[0], eq[3]);
        assert!(render(&t).contains("eq loss"));
    }

    #[test]
    fn fig6_smoke() {
        let s = micro();
        let dir = std::env::temp_dir().join("mfn_fig6_smoke");
        let corpus = s.paper_corpus();
        let t = untimed(fig6(&s, &corpus, &dir).expect("fig6"));
        // Its one run is Table 2's gamma* run of the same seed.
        assert_eq!(t.arms[0].runs, untimed(table2(&s, &corpus, &[0])).arms[3].runs);
        for name in ["lr_T.pgm", "pred_w.pgm", "gt_u.csv"] {
            assert!(dir.join(name).exists(), "{name} missing");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The repository root.
    fn root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    /// Every committed record under `results/`, with its path.
    fn committed_records() -> Vec<(PathBuf, Record)> {
        let mut found = Vec::new();
        let mut dirs = vec![root().join("results")];
        while let Some(dir) = dirs.pop() {
            for entry in std::fs::read_dir(&dir).expect("results/ is readable") {
                let path = entry.expect("a directory entry").path();
                if path.is_dir() {
                    dirs.push(path);
                } else if path.extension().is_some_and(|e| e == "json") {
                    let text = std::fs::read_to_string(&path).expect("a readable record");
                    let record = serde_json::from_str::<Record>(&text)
                        .unwrap_or_else(|e| panic!("{} is not a Record: {e}", path.display()));
                    found.push((path, record));
                }
            }
        }
        found.sort_by(|a, b| a.0.cmp(&b.0));
        found
    }

    #[test]
    fn committed_records_parse_and_render_to_their_text() {
        let records = committed_records();
        assert!(records.len() >= 7, "{} records under results/", records.len());
        for (path, record) in &records {
            assert_eq!(path, &record.path(&root().join("results"), "json"));
            let txt = record.path(&root().join("results"), "txt");
            let committed =
                std::fs::read_to_string(&txt).unwrap_or_else(|e| panic!("{}: {e}", txt.display()));
            assert!(
                render(&record.results) == committed,
                "{} is not its record rendered",
                txt.display()
            );
        }
    }

    /// What `markdown` marks as measured but none of `texts` holds. Marked
    /// are inline code spans that are numbers (a percentage too), each of
    /// which must appear in
    /// a text as a whole number, and spans that open with a statistic's name
    /// and a colon (an ordering's count), each of which must be a whole line.
    fn unquoted_figures(markdown: &str, texts: &[String]) -> Vec<String> {
        let number = |s: &str| {
            let digits = s.strip_prefix('-').unwrap_or(s);
            let digits = digits.strip_suffix('%').unwrap_or(digits);
            digits.starts_with(|c: char| c.is_ascii_digit())
                && digits.chars().all(|c| c.is_ascii_digit() || c == '.')
        };
        let ordering = |s: &str| ["avg R2: ", "median R2: "].iter().any(|p| s.starts_with(p));
        let holds = |text: &str, span: &str| {
            if ordering(span) {
                return text.lines().any(|line| line.trim() == span);
            }
            text.match_indices(span).any(|(at, _)| {
                let before = text[..at].chars().next_back();
                let after = text[at + span.len()..].chars().next();
                !before.is_some_and(|c| c.is_ascii_digit() || c == '.' || c == '-')
                    && !after.is_some_and(|c| c.is_ascii_digit() || c == '.')
            })
        };
        markdown
            .split('`')
            .skip(1)
            .step_by(2)
            .filter(|span| number(span) || ordering(span))
            .filter(|span| !texts.iter().any(|t| holds(t, span)))
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn every_figure_experiments_md_quotes_is_in_a_committed_result() {
        let texts: Vec<String> = committed_records()
            .iter()
            .map(|(path, _)| std::fs::read_to_string(path.with_extension("txt")).expect("text"))
            .collect();
        let md = std::fs::read_to_string(root().join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
        assert!(md.matches('`').count() > 100, "EXPERIMENTS.md marks its figures");
        assert_eq!(unquoted_figures(&md, &texts), Vec::<String>::new());
        // A planted figure fails, and so does one quoted from inside a
        // longer number, or an ordering cut short; what they are part of
        // passes.
        let texts =
            vec!["avgR2=-0.1729 medR2=12.5\n  avg R2: a beats b (4 of 5), against the claim\n"
                .to_string()];
        let planted = "reads `-0.1729` and `12.5`, not `0.1729`, `2.5` or `99.9999`; \
                       `avg R2: a beats b (4 of 5), against the claim`, \
                       not `avg R2: a beats b (4 of 5)`";
        assert_eq!(
            unquoted_figures(planted, &texts),
            ["0.1729", "2.5", "99.9999", "avg R2: a beats b (4 of 5)"]
        );
    }
}
