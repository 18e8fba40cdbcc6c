//! # mfn-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation section (Sec. 5). Each `table*`/`fig*` function runs
//! the full pipeline — simulate → downsample → train → super-resolve →
//! score — and returns/prints the same rows the paper reports.
//!
//! Scale is controlled by [`ExperimentScale`]: `quick()` (CI-sized, minutes
//! on a laptop CPU), `default_scale()` (the scale used for EXPERIMENTS.md),
//! and `paper()` (the paper's 512×128×400 configuration — hours on CPU). We
//! aim to reproduce the *shape* of each result (ordering, rough factors,
//! crossovers), not the authors' GPU-cluster absolute numbers; see
//! EXPERIMENTS.md.

use mfn_core::{
    baseline_trilinear, evaluate_pair, table_header, BaselineII, BaselineTrainer, Corpus, EvalRow,
    MeshfreeFlowNet, MfnConfig, TrainConfig, Trainer,
};
use mfn_data::{downsample, Dataset, PatchSpec};
use mfn_dist::{train_data_parallel, DistRunResult, ScalingModel};
use mfn_solver::{simulate, RbcConfig};
use std::path::Path;

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
    /// LR patch / latent grid shape.
    pub patch: PatchSpec,
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
    /// Model width preset.
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
            patch: model.patch,
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
            patch: model.patch,
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
            patch: model.patch,
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
        m.patch = self.patch;
        m.gamma = gamma;
        m
    }

    /// Simulates one HR/LR dataset pair at this scale.
    pub fn build_pair(&self, ra: f64, seed: u64) -> (Dataset, Dataset) {
        let cfg =
            RbcConfig { nx: self.nx, nz: self.nz, ra, dt_max: 2e-3, seed, ..Default::default() };
        let sim = simulate(&cfg, self.duration, self.frames);
        let hr = Dataset::from_simulation(&sim);
        let lr = downsample(&hr, self.ds_t, self.ds_s);
        (hr, lr)
    }
}

/// Trains a MeshfreeFlowNet on `corpus` and scores it against `test`.
pub fn train_and_score(
    scale: &ExperimentScale,
    corpus: &Corpus,
    test: &(Dataset, Dataset),
    gamma: f32,
    label: &str,
) -> EvalRow {
    let mut trainer =
        Trainer::new(MeshfreeFlowNet::new(scale.model_config(gamma)), scale.train_config());
    trainer.train(corpus);
    let (hr, lr) = test;
    let sr = trainer.model.super_resolve(lr, &hr.meta, corpus.stats);
    let nu = (hr.meta.pr / hr.meta.ra).sqrt();
    evaluate_pair(label, hr, &sr, nu, scale.eval_skip)
}

/// **Table 1**: equation-loss-weight (γ) ablation. Returns one row per γ.
pub fn table1(scale: &ExperimentScale, gammas: &[f32]) -> Vec<EvalRow> {
    let pair = scale.build_pair(1e6, 7);
    let corpus = Corpus::new(vec![pair.clone()]);
    let mut rows = Vec::with_capacity(gammas.len());
    for &gamma in gammas {
        eprintln!("[table1] training gamma = {gamma} ...");
        rows.push(train_and_score(scale, &corpus, &pair, gamma, &format!("gamma={gamma}")));
    }
    rows
}

/// The paper's Table 1 γ sweep.
pub const TABLE1_GAMMAS: [f32; 9] = [0.0, 0.0125, 0.025, 0.05, 0.1, 0.2, 0.4, 0.8, 1.0];

/// **Table 2**: MeshfreeFlowNet (γ=0 and γ=γ*) vs. Baselines (I) and (II).
pub fn table2(scale: &ExperimentScale) -> Vec<EvalRow> {
    let pair = scale.build_pair(1e6, 7);
    let corpus = Corpus::new(vec![pair.clone()]);
    let (hr, lr) = &pair;
    let nu = (hr.meta.pr / hr.meta.ra).sqrt();
    let mut rows = Vec::new();

    eprintln!("[table2] Baseline (I): trilinear interpolation");
    let b1 = baseline_trilinear(lr, hr);
    rows.push(evaluate_pair("Baseline (I)", hr, &b1, nu, scale.eval_skip));

    eprintln!("[table2] Baseline (II): conv-decoder U-Net");
    let b2cfg = scale.model_config(0.0);
    let b2 = BaselineII::new(b2cfg, [scale.ds_t, scale.ds_s, scale.ds_s]);
    // Baseline (II) regresses every HR voxel of the patch per step (~30x the
    // supervision of MFN's sparse queries) at ~30x the per-step cost; give
    // it a proportionally smaller epoch budget so wall-clock budgets match.
    let mut b2_tc = scale.train_config();
    b2_tc.epochs = (scale.epochs / 3).max(5);
    let mut b2t = BaselineTrainer::new(b2, b2_tc);
    b2t.train(&corpus);
    let b2sr = b2t.model.super_resolve(lr, &hr.meta, corpus.stats);
    rows.push(evaluate_pair("Baseline (II)", hr, &b2sr, nu, scale.eval_skip));

    eprintln!("[table2] MeshfreeFlowNet gamma = 0");
    rows.push(train_and_score(scale, &corpus, &pair, 0.0, "MFN, gamma=0"));
    eprintln!("[table2] MeshfreeFlowNet gamma = gamma*");
    rows.push(train_and_score(scale, &corpus, &pair, MfnConfig::GAMMA_STAR, "MFN, gamma=g*"));
    rows
}

/// **Table 3**: generalization to an unseen initial condition after training
/// on 1 vs. `n_many` datasets with different ICs.
pub fn table3(scale: &ExperimentScale, n_many: usize) -> Vec<EvalRow> {
    let test = scale.build_pair(1e6, 999);
    let mut rows = Vec::new();
    eprintln!("[table3] training on 1 dataset ...");
    let one = Corpus::new(vec![scale.build_pair(1e6, 1)]);
    rows.push(train_and_score(scale, &one, &test, MfnConfig::GAMMA_STAR, "1 dataset"));
    eprintln!("[table3] training on {n_many} datasets ...");
    let many = Corpus::new((1..=n_many as u64).map(|s| scale.build_pair(1e6, s)).collect());
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
    let mut trainer = Trainer::new(
        MeshfreeFlowNet::new(scale.model_config(MfnConfig::GAMMA_STAR)),
        scale.train_config(),
    );
    trainer.train(&corpus);
    let mut rows = Vec::new();
    for &ra in test_ras {
        eprintln!("[table4] evaluating Ra = {ra:.1e} ...");
        let (hr, lr) = scale.build_pair(ra, 777);
        let sr = trainer.model.super_resolve(&lr, &hr.meta, corpus.stats);
        let nu = (hr.meta.pr / hr.meta.ra).sqrt();
        rows.push(evaluate_pair(&format!("Ra={ra:.1e}"), &hr, &sr, nu, scale.eval_skip));
    }
    rows
}

/// **Fig. 6**: dumps LR-input / MFN-prediction / HR-ground-truth contour
/// panels (PGM + CSV) for all four channels into `outdir`.
pub fn fig6(scale: &ExperimentScale, outdir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(outdir)?;
    let pair = scale.build_pair(1e6, 7);
    let corpus = Corpus::new(vec![pair.clone()]);
    let (hr, lr) = &pair;
    eprintln!("[fig6] training MFN gamma = gamma* ...");
    let mut trainer = Trainer::new(
        MeshfreeFlowNet::new(scale.model_config(MfnConfig::GAMMA_STAR)),
        scale.train_config(),
    );
    trainer.train(&corpus);
    let sr = trainer.model.super_resolve(lr, &hr.meta, corpus.stats);
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

/// One measured point of the Fig. 7 scaling study.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// Worker count.
    pub workers: usize,
    /// Measured samples/second.
    pub throughput: f64,
    /// Loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Wall-clock at each epoch end.
    pub epoch_wall: Vec<f64>,
}

/// **Fig. 7**: measured data-parallel scaling up to `max_workers` plus the
/// calibrated analytic extension to 128 workers. Returns the measured points
/// and the fitted model.
pub fn fig7(scale: &ExperimentScale, max_workers: usize) -> (Vec<ScalingPoint>, ScalingModel) {
    let pair = scale.build_pair(1e6, 7);
    let corpus = Corpus::new(vec![pair]);
    let tc = scale.train_config();
    let mcfg = scale.model_config(MfnConfig::GAMMA_STAR);
    let mut counts = vec![1usize];
    let mut w = 2;
    while w <= max_workers {
        counts.push(w);
        w *= 2;
    }
    let mut points = Vec::new();
    let mut grad_elems = 1usize;
    for &n in &counts {
        eprintln!("[fig7] measuring {n} worker(s) ...");
        let r: DistRunResult = train_data_parallel(&corpus, &mcfg, &tc, n);
        grad_elems = r.grad_elems;
        points.push(ScalingPoint {
            workers: n,
            throughput: r.throughput,
            epoch_losses: r.epoch_losses,
            epoch_wall: r.epoch_wall,
        });
    }
    let measured: Vec<(usize, f64)> = points.iter().map(|p| (p.workers, p.throughput)).collect();
    let model =
        ScalingModel::calibrate(&measured, (grad_elems * 4) as f64, tc.batch_size as f64, 0.8);
    (points, model)
}

/// **Ablation A**: decoder activation. The paper's Fig. 5 shows ReLU; we
/// default to softplus so exact second derivatives exist (ReLU's vanish
/// almost everywhere, silently disabling the Laplacian terms of the
/// equation loss). Returns `(name, final prediction loss, final equation
/// loss)` per activation.
pub fn ablation_activation(scale: &ExperimentScale) -> Vec<(&'static str, f32, f32)> {
    use mfn_autodiff::Activation;
    let pair = scale.build_pair(1e6, 7);
    let corpus = Corpus::new(vec![pair]);
    [("softplus", Activation::Softplus), ("relu", Activation::Relu), ("tanh", Activation::Tanh)]
        .into_iter()
        .map(|(name, act)| {
            eprintln!("[ablation] activation = {name} ...");
            let mut cfg = scale.model_config(MfnConfig::GAMMA_STAR);
            cfg.activation = act;
            let mut trainer = Trainer::new(MeshfreeFlowNet::new(cfg), scale.train_config());
            let recs = trainer.train(&corpus);
            let last = recs.last().expect("non-empty training");
            (name, last.prediction, last.equation)
        })
        .collect()
}

/// **Ablation B**: PDE-constraint combinations (the paper's "arbitrary
/// combinations of PDE constraints" feature). Returns
/// `(label, final prediction loss, final equation loss)` per combination.
pub fn ablation_constraints(scale: &ExperimentScale) -> Vec<(&'static str, f32, f32)> {
    use mfn_core::ConstraintSet;
    let pair = scale.build_pair(1e6, 7);
    let corpus = Corpus::new(vec![pair]);
    let combos: [(&'static str, ConstraintSet); 3] = [
        ("all four", ConstraintSet::ALL),
        ("continuity only", ConstraintSet::CONTINUITY_ONLY),
        (
            "transport only",
            ConstraintSet {
                continuity: false,
                temperature: true,
                momentum_x: false,
                momentum_z: false,
            },
        ),
    ];
    combos
        .into_iter()
        .map(|(name, set)| {
            eprintln!("[ablation] constraints = {name} ...");
            let mut cfg = scale.model_config(MfnConfig::GAMMA_STAR);
            cfg.constraints = set;
            let mut trainer = Trainer::new(MeshfreeFlowNet::new(cfg), scale.train_config());
            let recs = trainer.train(&corpus);
            let last = recs.last().expect("non-empty training");
            (name, last.prediction, last.equation)
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
        s.patch = PatchSpec { nt: 4, nz: 4, nx: 8, queries: 16 };
        s.model.patch = s.patch;
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
        let rows = table2(&micro());
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.scores.len() == 9));
        assert!(rows[0].label.contains("Baseline (I)"));
    }

    #[test]
    fn table1_smoke() {
        let rows = table1(&micro(), &[0.0, 0.1]);
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
        let (points, model) = fig7(&micro(), 2);
        assert_eq!(points.len(), 2);
        assert!(points.iter().all(|p| p.throughput > 0.0));
        assert!(model.throughput(128) > 0.0);
        assert!(model.efficiency(128) <= 1.0 + 1e-9);
    }

    #[test]
    fn ablations_smoke() {
        let s = micro();
        let act = ablation_activation(&s);
        assert_eq!(act.len(), 3);
        assert!(act.iter().all(|(_, p, e)| p.is_finite() && e.is_finite() && *e > 0.0));
        let cons = ablation_constraints(&s);
        assert_eq!(cons.len(), 3);
        // Different constraint sets must produce different equation-loss
        // magnitudes (they average different residuals).
        assert_ne!(cons[0].2, cons[1].2);
    }

    #[test]
    fn fig6_smoke() {
        let dir = std::env::temp_dir().join("mfn_fig6_smoke");
        fig6(&micro(), &dir).expect("fig6");
        for name in ["lr_T.pgm", "pred_w.pgm", "gt_u.csv"] {
            assert!(dir.join(name).exists(), "{name} missing");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
