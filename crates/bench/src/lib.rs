//! # mfn-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation section (Sec. 5). Each `table*`/`fig*` function runs
//! the full pipeline — simulate → downsample → train → super-resolve →
//! score — and returns/prints the same rows the paper reports. The ones on
//! the paper's Ra = 10⁶ run take its corpus
//! ([`ExperimentScale::paper_corpus`]) as an argument, so a process that runs
//! several of them simulates it once.
//!
//! Scale is controlled by [`ExperimentScale`]: `quick()` (CI-sized, minutes
//! on a laptop CPU), `default_scale()` (the scale used for EXPERIMENTS.md),
//! and `paper()` (the paper's 512×128×400 configuration — hours on CPU). We
//! aim to reproduce the *shape* of each result (ordering, rough factors,
//! crossovers), not the authors' GPU-cluster absolute numbers; see
//! EXPERIMENTS.md.

use mfn_autodiff::Activation;
use mfn_core::{
    baseline_trilinear, evaluate_pair, table_header, BaselineII, ConstraintSet, Corpus,
    EpochRecord, EvalRow, FrozenModel, MfnConfig, TrainConfig, Trainer,
};
use mfn_data::{downsample, Dataset, PatchSpec};
use mfn_dist::{train_data_parallel, DistRunResult};
use mfn_solver::{simulate, RbcConfig};
use std::path::Path;
use std::time::Instant;

/// Knobs shared by every experiment.
#[derive(Debug, Clone, PartialEq)]
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

    /// The scale used to produce EXPERIMENTS.md (tens of minutes per table
    /// on a multicore CPU). Paper's downsampling factors (4× time, 8×
    /// space) on a quarter-resolution grid.
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

/// Trains a MeshfreeFlowNet of `cfg` on `corpus` under this scale's training
/// config, through the training driver on one worker; returns the model,
/// frozen from the run's final state, and its per-epoch records.
fn train_mfn(
    scale: &ExperimentScale,
    cfg: MfnConfig,
    corpus: &Corpus,
) -> (FrozenModel, Vec<EpochRecord>) {
    let start = Instant::now();
    let run = train_data_parallel(corpus, &cfg, &scale.train_config(), 1);
    eprintln!("[train] {} epochs in {:.2} s", run.epochs.len(), start.elapsed().as_secs_f64());
    let model = FrozenModel::from_state(&run.final_state).expect("the run's own final state");
    (model, run.epochs)
}

/// Trains a MeshfreeFlowNet on `corpus` and scores it against `test`.
pub fn train_and_score(
    scale: &ExperimentScale,
    corpus: &Corpus,
    test: &(Dataset, Dataset),
    gamma: f32,
    label: &str,
) -> EvalRow {
    let (model, _) = train_mfn(scale, scale.model_config(gamma), corpus);
    let (hr, lr) = test;
    let sr = model.super_resolve(lr, &hr.meta, corpus.stats);
    let nu = (hr.meta.pr / hr.meta.ra).sqrt();
    evaluate_pair(label, hr, &sr, nu, scale.eval_skip)
}

/// **Table 1**: equation-loss-weight (γ) ablation on `corpus` (the paper's
/// run, [`ExperimentScale::paper_corpus`]), scored on its own pair. Returns
/// one row per γ.
pub fn table1(scale: &ExperimentScale, corpus: &Corpus, gammas: &[f32]) -> Vec<EvalRow> {
    let pair = &corpus.pairs[0];
    let mut rows = Vec::with_capacity(gammas.len());
    for &gamma in gammas {
        eprintln!("[table1] training gamma = {gamma} ...");
        rows.push(train_and_score(scale, corpus, pair, gamma, &format!("gamma={gamma}")));
    }
    rows
}

/// The paper's Table 1 γ sweep.
pub const TABLE1_GAMMAS: [f32; 9] = [0.0, 0.0125, 0.025, 0.05, 0.1, 0.2, 0.4, 0.8, 1.0];

/// **Table 2**: MeshfreeFlowNet (γ=0 and γ=γ*) vs. Baselines (I) and (II),
/// trained on `corpus` (the paper's run) and scored on its own pair.
pub fn table2(scale: &ExperimentScale, corpus: &Corpus) -> Vec<EvalRow> {
    let pair = &corpus.pairs[0];
    let (hr, lr) = pair;
    let nu = (hr.meta.pr / hr.meta.ra).sqrt();
    let mut rows = Vec::new();

    eprintln!("[table2] Baseline (I): trilinear interpolation");
    let b1 = baseline_trilinear(lr, hr);
    rows.push(evaluate_pair("Baseline (I)", hr, &b1, nu, scale.eval_skip));

    eprintln!("[table2] Baseline (II): conv-decoder U-Net");
    let b2cfg = scale.model_config(0.0);
    let b2 = BaselineII::new(b2cfg, [scale.ds_t, scale.ds_s, scale.ds_s]);
    // Baseline (II) trains in MFN's loop, at the same batch size, for about
    // MFN gamma*'s training wall time: it decodes every HR voxel of its
    // patches, and one of its epochs costs about nine of MFN gamma*'s
    // (`repro table2 --quick`, 2-vCPU x86-64 VM: 10 epochs in 13.8-16.7 s,
    // against 30 of MFN gamma*'s in 4.7-5.3 s).
    let mut b2_tc = scale.train_config();
    b2_tc.epochs = (scale.epochs / 9).max(1);
    let start = Instant::now();
    let mut b2t = Trainer::new(b2, b2_tc);
    let epochs = b2t.train(corpus).len();
    eprintln!("[train] {epochs} epochs in {:.2} s", start.elapsed().as_secs_f64());
    let b2sr = b2t.model.super_resolve(lr, &hr.meta, corpus.stats);
    rows.push(evaluate_pair("Baseline (II)", hr, &b2sr, nu, scale.eval_skip));

    eprintln!("[table2] MeshfreeFlowNet gamma = 0");
    rows.push(train_and_score(scale, corpus, pair, 0.0, "MFN, gamma=0"));
    eprintln!("[table2] MeshfreeFlowNet gamma = gamma*");
    rows.push(train_and_score(scale, corpus, pair, MfnConfig::GAMMA_STAR, "MFN, gamma=g*"));
    rows
}

/// **Table 3**: generalization to an unseen initial condition after training
/// on 1 vs. `n_many` datasets with different ICs (seeds `1..=n_many`; the
/// single-dataset run trains on the first of them).
pub fn table3(scale: &ExperimentScale, n_many: usize) -> Vec<EvalRow> {
    let test = scale.build_pair(1e6, 999);
    let pairs: Vec<_> = (1..=n_many as u64).map(|s| scale.build_pair(1e6, s)).collect();
    let mut rows = Vec::new();
    eprintln!("[table3] training on 1 dataset ...");
    let one = Corpus::new(vec![pairs[0].clone()]);
    rows.push(train_and_score(scale, &one, &test, MfnConfig::GAMMA_STAR, "1 dataset"));
    eprintln!("[table3] training on {n_many} datasets ...");
    let many = Corpus::new(pairs);
    rows.push(train_and_score(
        scale,
        &many,
        &test,
        MfnConfig::GAMMA_STAR,
        &format!("{n_many} datasets"),
    ));
    rows
}

/// **Table 4**: generalization across Rayleigh numbers. Trains once on
/// `train_ras`, evaluates on each `test_ras` (unseen seed).
pub fn table4(scale: &ExperimentScale, train_ras: &[f64], test_ras: &[f64]) -> Vec<EvalRow> {
    eprintln!("[table4] training on Ra = {train_ras:?} ...");
    let corpus = Corpus::new(
        train_ras.iter().enumerate().map(|(i, &ra)| scale.build_pair(ra, 10 + i as u64)).collect(),
    );
    let (model, _) = train_mfn(scale, scale.model_config(MfnConfig::GAMMA_STAR), &corpus);
    let mut rows = Vec::new();
    for &ra in test_ras {
        eprintln!("[table4] evaluating Ra = {ra:.1e} ...");
        let (hr, lr) = scale.build_pair(ra, 777);
        let sr = model.super_resolve(&lr, &hr.meta, corpus.stats);
        let nu = (hr.meta.pr / hr.meta.ra).sqrt();
        rows.push(evaluate_pair(&format!("Ra={ra:.1e}"), &hr, &sr, nu, scale.eval_skip));
    }
    rows
}

/// **Fig. 6**: dumps LR-input / MFN-prediction / HR-ground-truth contour
/// panels (PGM + CSV) for all four channels of `corpus`'s pair (the paper's
/// run) into `outdir`.
pub fn fig6(scale: &ExperimentScale, corpus: &Corpus, outdir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(outdir)?;
    let (hr, lr) = &corpus.pairs[0];
    eprintln!("[fig6] training MFN gamma = gamma* ...");
    let (model, _) = train_mfn(scale, scale.model_config(MfnConfig::GAMMA_STAR), corpus);
    let sr = model.super_resolve(lr, &hr.meta, corpus.stats);
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
    eprintln!("[fig6] wrote panels to {}", outdir.display());
    Ok(())
}

/// **Fig. 7**: measured synchronous data-parallel training on `corpus` (the
/// paper's run) at 1, 2, 4, … workers up to `max_workers`, one run per
/// count. The runs carry all three panels: throughput (7a), loss per epoch
/// (7b) and wall-clock per epoch (7c).
pub fn fig7(scale: &ExperimentScale, corpus: &Corpus, max_workers: usize) -> Vec<DistRunResult> {
    let tc = scale.train_config();
    let mcfg = scale.model_config(MfnConfig::GAMMA_STAR);
    (0..)
        .map(|k| 1usize << k)
        .take_while(|&n| n <= max_workers.max(1))
        .map(|n| {
            eprintln!("[fig7] measuring {n} worker(s) ...");
            train_data_parallel(corpus, &mcfg, &tc, n)
        })
        .collect()
}

/// Scaling efficiency of `run` against the one-worker `base`: its
/// throughput over `workers ×` the one-worker throughput.
pub fn efficiency(base: &DistRunResult, run: &DistRunResult) -> f64 {
    run.throughput / (base.throughput * run.final_world as f64)
}

/// **Ablations** (beyond the paper), trained on `corpus` (the paper's run).
/// Returns `(study, variant, final prediction loss, final equation loss)`
/// per variant of two studies:
/// - `"activation"`: the decoder activation. The paper's Fig. 5 shows ReLU;
///   we default to softplus so exact second derivatives exist (ReLU's vanish
///   almost everywhere, silently disabling the Laplacian terms of the
///   equation loss).
/// - `"constraints"`: PDE-constraint combinations (the paper's "arbitrary
///   combinations of PDE constraints" feature).
pub fn ablation(
    scale: &ExperimentScale,
    corpus: &Corpus,
) -> Vec<(&'static str, &'static str, f32, f32)> {
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
        ("activation", "softplus", act(Activation::Softplus)),
        ("activation", "relu", act(Activation::Relu)),
        ("activation", "tanh", act(Activation::Tanh)),
        ("constraints", "all four", set(ConstraintSet::ALL)),
        ("constraints", "continuity only", set(ConstraintSet::CONTINUITY_ONLY)),
        ("constraints", "transport only", set(transport_only)),
    ];
    variants
        .into_iter()
        .map(|(study, variant, cfg)| {
            eprintln!("[ablation] {study} = {variant} ...");
            let (_, records) = train_mfn(scale, cfg, corpus);
            let last = records.last().expect("non-empty training");
            (study, variant, last.prediction, last.equation)
        })
        .collect()
}

/// Prints a table of [`EvalRow`]s in the paper's layout.
pub fn print_rows(title: &str, rows: &[EvalRow]) {
    println!("\n=== {title} ===");
    println!("{}", table_header());
    for r in rows {
        println!("{}", r.format());
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

    #[test]
    fn table2_smoke() {
        let s = micro();
        let rows = table2(&s, &s.paper_corpus());
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.scores.len() == 9));
        assert!(rows[0].label.contains("Baseline (I)"));
    }

    #[test]
    fn table1_smoke() {
        let s = micro();
        let rows = table1(&s, &s.paper_corpus(), &[0.0, 0.1]);
        assert_eq!(rows.len(), 2);
        assert!(rows[1].label.contains("0.1"));
    }

    #[test]
    fn table3_smoke() {
        let rows = table3(&micro(), 2);
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn table4_smoke() {
        let rows = table4(&micro(), &[1e5], &[1e5, 1e6]);
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn fig7_smoke() {
        let s = micro();
        let runs = fig7(&s, &s.paper_corpus(), 2);
        assert_eq!(runs.iter().map(|r| r.final_world).collect::<Vec<_>>(), [1, 2]);
        assert!(runs.iter().all(|r| r.throughput > 0.0));
        assert_eq!(efficiency(&runs[0], &runs[0]), 1.0);
        for r in &runs {
            assert_eq!(r.epoch_losses.len(), s.epochs);
            assert_eq!(r.epoch_wall.len(), s.epochs);
        }
    }

    #[test]
    fn ablations_smoke() {
        let s = micro();
        let rows = ablation(&s, &s.paper_corpus());
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().all(|(_, _, p, e)| p.is_finite() && e.is_finite() && *e > 0.0));
        let cons: Vec<_> = rows.iter().filter(|r| r.0 == "constraints").collect();
        assert_eq!(cons.len(), 3);
        // Different constraint sets must produce different equation-loss
        // magnitudes (they average different residuals).
        assert_ne!(cons[0].3, cons[1].3);
    }

    #[test]
    fn fig6_smoke() {
        let s = micro();
        let dir = std::env::temp_dir().join("mfn_fig6_smoke");
        fig6(&s, &s.paper_corpus(), &dir).expect("fig6");
        for name in ["lr_T.pgm", "pred_w.pgm", "gt_u.csv"] {
            assert!(dir.join(name).exists(), "{name} missing");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
