//! Quickstart: the whole MeshfreeFlowNet pipeline in one minute on a CPU.
//!
//! 1. Simulate a small Rayleigh–Bénard dataset (the Dedalus substitute).
//! 2. Downsample it to build the low-resolution input.
//! 3. Train a compact MeshfreeFlowNet with the combined loss (Eqn. 10).
//! 4. Super-resolve the LR data back to the HR grid.
//! 5. Score the result against the ground truth with the paper's physics
//!    metrics, alongside the trilinear Baseline (I).
//!
//! Run with: `cargo run --release --example quickstart`

use meshfreeflownet::core::{
    baseline_trilinear, evaluate_pair, render, Arm, Corpus, FrozenModel, MeshfreeFlowNet,
    MfnConfig, Results, Run, TrainConfig, Trainer,
};
use meshfreeflownet::data::{downsample, Dataset};
use meshfreeflownet::solver::{simulate, RbcConfig};

fn main() {
    println!("== MeshfreeFlowNet quickstart ==");

    // 1. Generate data: Ra = 1e6, Pr = 1 Rayleigh–Bénard convection.
    let cfg = RbcConfig { nx: 64, nz: 17, ra: 1e6, dt_max: 2e-3, seed: 7, ..Default::default() };
    println!("simulating {}x{} grid, Ra = {:.0e} ...", cfg.nx, cfg.nz, cfg.ra);
    let sim = simulate(&cfg, 8.0, 33);
    let hr = Dataset::from_simulation(&sim);

    // 2. LR input: downsample 2x in time, 2x in space (keep the example
    //    small; the paper uses 4x / 8x at its full scale).
    let lr = downsample(&hr, 2, 2);
    println!(
        "HR [{} frames, {}x{}] -> LR [{} frames, {}x{}]",
        hr.meta.nt, hr.meta.nz, hr.meta.nx, lr.meta.nt, lr.meta.nz, lr.meta.nx
    );

    // 3. Train.
    let mut mcfg = MfnConfig::small();
    mcfg.gamma = MfnConfig::GAMMA_STAR;
    let model = MeshfreeFlowNet::new(mcfg);
    println!("model parameters: {}", model.param_count());
    let corpus = Corpus::new(vec![(hr.clone(), lr.clone())]);
    let tc = TrainConfig {
        epochs: 20,
        batches_per_epoch: 8,
        batch_size: 4,
        lr: 1e-2,
        ..Default::default()
    };
    let mut trainer = Trainer::new(model, tc);
    let records = trainer.train(&corpus);
    for r in records.iter().step_by(5) {
        println!(
            "epoch {:>3}  loss {:.4}  (pred {:.4}, eq {:.4})  [{:.2}s]",
            r.epoch, r.loss, r.prediction, r.equation, r.seconds
        );
    }

    // 4. Freeze the trained model and super-resolve the full LR dataset.
    let sr = FrozenModel::from_model(trainer.model).super_resolve(&lr, &hr.meta, corpus.stats);
    let b1 = baseline_trilinear(&lr, &hr);

    // 5. Physics-metric scoreboard (skip the quiescent start-up frames).
    let nu = (cfg.pr / cfg.ra).sqrt();
    let trilinear = Run::untrained(tc.seed, evaluate_pair(&hr, &b1, nu, 8));
    let wall_s = records.iter().map(|r| r.seconds).sum();
    let mfn_scores = evaluate_pair(&hr, &sr, nu, 8);
    let mfn = Run::trained(tc.seed, mfn_scores, &records, &vec![1; records.len()], &tc, wall_s);
    let arm = |label: &str, run: Run| Arm { label: label.into(), runs: vec![run] };
    print!(
        "\n{}",
        render(&Results {
            title: "quickstart: 2x/2x downsampling".into(),
            seeds: vec![tc.seed],
            arms: vec![arm("trilinear (Baseline I)", trilinear), arm("MeshfreeFlowNet", mfn)],
            ..Default::default()
        })
    );
    println!(
        "\nNOTE: this quickstart uses mild 2x/2x downsampling and a ~1-minute training \
         budget; trilinear interpolation is strong in this easy regime. See \
         `repro table2` / EXPERIMENTS.md for the paper's 4x/8x regime, scored \
         over five paired seeds.\ndone."
    );
}
