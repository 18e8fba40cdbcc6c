//! `train` — train a MeshfreeFlowNet on datasets produced by `gendata` and
//! save a checkpoint.
//!
//! ```text
//! usage: train --hr PATH --lr PATH --ckpt PATH [--epochs N] [--gamma G]
//!              [--rate LR] [--batch N] [--workers N] [--valid-frac F]
//!              [--telemetry PATH] [--checkpoint-every N] [--resume PATH]
//! ```
//!
//! With `--workers > 1`, trains data-parallel with the ring all-reduce:
//! every worker runs the same step and epoch loop as `--workers 1` (same LR
//! decay) on its own batch stream, and worker 0's replica is what gets saved.
//! With `--valid-frac`, holds out the trailing fraction of frames and
//! reports the physics-metric scoreboard on the held-out range.
//! With `--telemetry`, appends one JSON object per gradient step (losses,
//! gradient norms, per-phase timings) to the given `.jsonl` file.
//! With `--checkpoint-every N`, writes a full train-state checkpoint
//! (params, BN stats, Adam moments, sampler position, epoch/batch cursor)
//! every N gradient steps to `<ckpt>.state`; `--resume PATH` continues a
//! run from such a file bit-identically to one that was never interrupted.
//! With `--workers > 1`, either flag routes training through the elastic
//! supervisor, which snapshots once per epoch instead of every N steps.

use mfn_core::{
    evaluate_pair, table_header, Corpus, MeshfreeFlowNet, MfnConfig, TrainConfig, Trainer,
};
use mfn_data::{downsample, load_dataset, PatchSpec};
use mfn_dist::{train_data_parallel_recorded, train_elastic, FaultPlan, SupervisorConfig};
use mfn_telemetry::Recorder;
use std::path::PathBuf;

struct Args {
    hr: PathBuf,
    lr: Option<PathBuf>,
    ckpt: PathBuf,
    tc: TrainConfig,
    gamma: f32,
    workers: usize,
    valid_frac: f64,
    telemetry: Option<PathBuf>,
    resume: Option<PathBuf>,
}

fn parse() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: train --hr PATH [--lr PATH] --ckpt PATH [--epochs N] \
                 [--gamma G] [--rate LR] [--batch N] [--workers N] [--valid-frac F] \
                 [--telemetry PATH] [--checkpoint-every N] [--resume PATH]";
    let mut hr = None;
    let mut lr = None;
    let mut ckpt = None;
    let mut tc = TrainConfig {
        epochs: 60,
        batches_per_epoch: 8,
        batch_size: 4,
        lr: 1e-2,
        lr_decay: 0.98,
        ..Default::default()
    };
    let mut gamma = MfnConfig::GAMMA_STAR;
    let mut workers = 1usize;
    let mut valid_frac = 0.0f64;
    let mut telemetry = None;
    let mut resume = None;
    let mut i = 0;
    let next = |argv: &[String], i: &mut usize, what: &str| -> String {
        *i += 1;
        argv.get(*i)
            .unwrap_or_else(|| {
                eprintln!("error: {what} needs a value\n{usage}");
                std::process::exit(2);
            })
            .clone()
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--hr" => hr = Some(PathBuf::from(next(&argv, &mut i, "--hr"))),
            "--lr" => lr = Some(PathBuf::from(next(&argv, &mut i, "--lr"))),
            "--ckpt" => ckpt = Some(PathBuf::from(next(&argv, &mut i, "--ckpt"))),
            "--epochs" => tc.epochs = next(&argv, &mut i, "--epochs").parse().expect("integer"),
            "--gamma" => gamma = next(&argv, &mut i, "--gamma").parse().expect("float"),
            "--rate" => tc.lr = next(&argv, &mut i, "--rate").parse().expect("float"),
            "--batch" => tc.batch_size = next(&argv, &mut i, "--batch").parse().expect("integer"),
            "--workers" => workers = next(&argv, &mut i, "--workers").parse().expect("integer"),
            "--valid-frac" => {
                valid_frac = next(&argv, &mut i, "--valid-frac").parse().expect("float")
            }
            "--telemetry" => telemetry = Some(PathBuf::from(next(&argv, &mut i, "--telemetry"))),
            "--checkpoint-every" => {
                tc.checkpoint_every =
                    next(&argv, &mut i, "--checkpoint-every").parse().expect("integer")
            }
            "--resume" => resume = Some(PathBuf::from(next(&argv, &mut i, "--resume"))),
            "--help" | "-h" => {
                println!("{usage}");
                std::process::exit(0);
            }
            other => {
                eprintln!("error: unknown option {other}\n{usage}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let missing = |what: &str| -> ! {
        eprintln!("error: {what} is required\n{usage}");
        std::process::exit(2);
    };
    Args {
        hr: hr.unwrap_or_else(|| missing("--hr")),
        lr,
        ckpt: ckpt.unwrap_or_else(|| missing("--ckpt")),
        tc,
        gamma,
        workers,
        valid_frac,
        telemetry,
        resume,
    }
}

/// Rebuilds rank 0's trained replica from a multi-worker run's result. The
/// batch-norm running statistics live in the layers, not the parameter
/// store, so they travel separately.
fn trained_replica(mcfg: MfnConfig, params: &[f32], mut bn_stats: &[u8]) -> MeshfreeFlowNet {
    let mut m = MeshfreeFlowNet::new(mcfg);
    m.store.unflatten_into(params);
    m.read_bn_stats(&mut bn_stats).expect("run result carries this architecture's BN statistics");
    m
}

fn main() {
    let args = parse();
    let hr_full = load_dataset(&args.hr).expect("load HR dataset");
    let (hr, valid) = if args.valid_frac > 0.0 {
        let (a, b) = hr_full.split_time(1.0 - args.valid_frac);
        (a, Some(b))
    } else {
        (hr_full, None)
    };
    let lr = match &args.lr {
        Some(p) => load_dataset(p).expect("load LR dataset"),
        None => downsample(&hr, 4, 8),
    };
    eprintln!(
        "HR [{} x {} x {}], LR [{} x {} x {}], gamma = {}",
        hr.meta.nt, hr.meta.nz, hr.meta.nx, lr.meta.nt, lr.meta.nz, lr.meta.nx, args.gamma
    );
    // Patch shape adapted to the LR grid.
    let patch = PatchSpec {
        nt: lr.meta.nt.min(4),
        nz: lr.meta.nz.min(4),
        nx: lr.meta.nx.min(8),
        queries: 256,
    };
    let mut mcfg = MfnConfig::small();
    mcfg.patch = patch;
    mcfg.gamma = args.gamma;
    let corpus = Corpus::new(vec![(hr.clone(), lr.clone())]);
    let recorder = match &args.telemetry {
        Some(path) => {
            let r = Recorder::jsonl(path).expect("create telemetry file");
            eprintln!("telemetry -> {}", path.display());
            r
        }
        None => Recorder::null(),
    };

    // Full train-state checkpoints (periodic writes and resume) live next to
    // the model checkpoint unless --resume names an existing file.
    let state_path = args.resume.clone().unwrap_or_else(|| {
        let mut p = args.ckpt.as_os_str().to_owned();
        p.push(".state");
        PathBuf::from(p)
    });
    let fault_tolerant = args.tc.checkpoint_every > 0 || args.resume.is_some();

    let model = if args.workers > 1 {
        if fault_tolerant {
            // The elastic supervisor checkpoints the whole multi-rank state
            // once per epoch and resumes from an existing file on its own.
            eprintln!(
                "elastic training on {} workers (state: {}) ...",
                args.workers,
                state_path.display()
            );
            let sup = SupervisorConfig {
                workers: args.workers,
                checkpoint_path: Some(state_path.clone()),
                ..Default::default()
            };
            let r =
                train_elastic(&corpus, &mcfg, &args.tc, &sup, &FaultPlan::none(), recorder.clone());
            eprintln!(
                "final loss {:.4}, world {}, failures {}, ring re-forms {}{}",
                r.epoch_losses.last().copied().unwrap_or(f32::NAN),
                r.final_world,
                r.failures,
                r.ring_reforms,
                if r.completed { "" } else { " (run stopped early)" }
            );
            trained_replica(mcfg, &r.final_params, &r.final_bn_stats)
        } else {
            eprintln!("data-parallel training on {} workers ...", args.workers);
            let r = train_data_parallel_recorded(
                &corpus,
                &mcfg,
                &args.tc,
                args.workers,
                recorder.clone(),
            );
            eprintln!(
                "throughput {:.1} samples/s, final loss {:.4}",
                r.throughput,
                r.epoch_losses.last().copied().unwrap_or(f32::NAN)
            );
            let total_wait: f64 = r.allreduce_wait.iter().sum();
            eprintln!("all-reduce wait: {:.3}s total across {} ranks", total_wait, r.workers);
            trained_replica(mcfg, &r.final_params, &r.final_bn_stats)
        }
    } else {
        let mut trainer = match &args.resume {
            Some(path) => {
                let t = Trainer::resume(MeshfreeFlowNet::new(mcfg), args.tc, path).unwrap_or_else(
                    |e| {
                        eprintln!("error: cannot resume from {}: {e}", path.display());
                        std::process::exit(1);
                    },
                );
                eprintln!("resumed from {} at step {}", path.display(), t.steps_taken());
                t
            }
            None => Trainer::new(MeshfreeFlowNet::new(mcfg), args.tc),
        }
        .with_recorder(recorder.clone());
        if fault_tolerant {
            trainer = trainer.with_checkpointing(&state_path);
            if args.tc.checkpoint_every > 0 {
                eprintln!(
                    "train-state checkpoints every {} steps -> {}",
                    args.tc.checkpoint_every,
                    state_path.display()
                );
            }
        }
        let recs = trainer.train(&corpus);
        for r in recs.iter().step_by((recs.len() / 8).max(1)) {
            eprintln!(
                "epoch {:>4}  loss {:.4}  (pred {:.4}, eq {:.4})",
                r.epoch, r.loss, r.prediction, r.equation
            );
        }
        if fault_tolerant {
            // A final state write captures the completed run so a later
            // --resume with more epochs continues instead of restarting.
            trainer.save_checkpoint(&state_path).expect("write final train state");
        }
        trainer.model
    };
    recorder.flush();
    model.save(&args.ckpt).expect("save checkpoint");
    eprintln!("checkpoint written to {}", args.ckpt.display());
    // Architecture sidecar: MFNSTAT1/MFNCKPT1 frames carry tensors, not the
    // architecture, so `serve` needs this to rebuild the exact model.
    let cfg_path = {
        let mut p = args.ckpt.as_os_str().to_owned();
        p.push(".cfg.json");
        PathBuf::from(p)
    };
    model.cfg.save_json(&cfg_path).expect("write config sidecar");
    eprintln!("config sidecar written to {}", cfg_path.display());

    if let Some(valid) = valid {
        eprintln!("evaluating on held-out frames ...");
        let valid_lr = downsample(&valid, 4, 8);
        let sr = model.super_resolve(&valid_lr, &valid.meta, corpus.stats);
        let nu = (valid.meta.pr / valid.meta.ra).sqrt();
        println!("{}", table_header());
        println!("{}", evaluate_pair("validation", &valid, &sr, nu, 0).format());
    }
}
