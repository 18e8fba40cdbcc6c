//! `train` — train a MeshfreeFlowNet on datasets produced by `gendata` and
//! write the train state `serve` loads.
//!
//! ```text
//! usage: train --hr PATH --lr PATH --ckpt PATH [--epochs N] [--gamma G]
//!              [--rate LR] [--batch N] [--workers N] [--valid-frac F]
//!              [--telemetry PATH] [--checkpoint-every N] [--resume PATH]
//! ```
//!
//! Every run ends by writing the full train state (params, BN stats, Adam
//! moments, every sampler position, epoch/batch cursor) as a CRC-framed
//! `MFNSTAT1` file to `<ckpt>.state`, and the architecture to
//! `<ckpt>.cfg.json`: the pair `serve --ckpt <ckpt>.state` loads.
//! With `--workers > 1`, trains data-parallel with the ring all-reduce under
//! the elastic supervisor: every worker runs the same step and epoch loop as
//! `--workers 1` (same LR decay) on its own batch stream.
//! With `--valid-frac`, holds out the trailing fraction of HR frames, trains
//! on the rest (both LR halves are downsampled from the split HR at the
//! factors of the `--lr` file) and reports the physics-metric scoreboard on
//! the held-out range.
//! With `--telemetry`, appends one JSON object per gradient step (losses,
//! gradient norms, per-phase timings) to the given `.jsonl` file.
//! `--checkpoint-every N` also writes the state every N gradient steps (one
//! worker) or before every epoch (several); `--resume PATH` continues a run
//! from such a file bit-identically to one that was never interrupted, and
//! writes the final state back there.

use mfn_core::{
    decode_inference_state, evaluate_pair, save_train_state, table_header, Corpus, MeshfreeFlowNet,
    MfnConfig, TrainConfig, Trainer,
};
use mfn_data::{load_dataset, try_downsample, Dataset, PatchSpec};
use mfn_dist::{train_elastic, FaultPlan, SupervisorConfig};
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

/// `(ft, fs)` such that `downsample(hr, ft, fs)` is `lr`: read off the two
/// grids, then checked by downsampling.
fn lr_factors(hr: &Dataset, lr: &Dataset) -> Result<(usize, usize), String> {
    let ft = (lr.dt() / hr.dt()).round() as usize;
    let fs = hr.meta.nx / lr.meta.nx.max(1);
    let again = try_downsample(hr, ft, fs).map_err(|e| e.to_string())?;
    let grid = |d: &Dataset| [d.meta.nt, d.meta.nz, d.meta.nx];
    let bits = |d: &Dataset| d.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    if grid(&again) != grid(lr) || bits(&again) != bits(lr) {
        return Err(format!(
            "the LR dataset is not the HR dataset downsampled {ft}x in time and {fs}x in space"
        ));
    }
    Ok((ft, fs))
}

/// An `(HR, LR)` dataset pair.
type Pair = (Dataset, Dataset);

/// The training `(HR, LR)` pair and, for `valid_frac > 0`, the held-out one.
/// Holding out splits the HR frames and downsamples each half at the LR
/// file's factors (4x/8x without one), so no held-out frame reaches
/// training and validation runs at the factors training did.
fn datasets(
    hr_full: Dataset,
    lr: Option<Dataset>,
    valid_frac: f64,
) -> Result<(Pair, Option<Pair>), String> {
    let down = |hr: &Dataset, (ft, fs)| try_downsample(hr, ft, fs).map_err(|e| e.to_string());
    if valid_frac <= 0.0 {
        let lr = match lr {
            Some(lr) => lr,
            None => down(&hr_full, (4, 8))?,
        };
        return Ok(((hr_full, lr), None));
    }
    let factors = match &lr {
        Some(lr) => lr_factors(&hr_full, lr)?,
        None => (4, 8),
    };
    let (hr, valid) = hr_full.split_time(1.0 - valid_frac);
    let (lr, valid_lr) = (down(&hr, factors)?, down(&valid, factors)?);
    Ok(((hr, lr), Some((valid, valid_lr))))
}

fn main() {
    let args = parse();
    let hr_full = load_dataset(&args.hr).expect("load HR dataset");
    let lr_file = args.lr.as_ref().map(|p| load_dataset(p).expect("load LR dataset"));
    let ((hr, lr), valid) = datasets(hr_full, lr_file, args.valid_frac).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
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
    let corpus = Corpus::new(vec![(hr, lr)]);
    let recorder = match &args.telemetry {
        Some(path) => {
            let r = Recorder::jsonl(path).expect("create telemetry file");
            eprintln!("telemetry -> {}", path.display());
            r
        }
        None => Recorder::null(),
    };

    // The train state goes next to the checkpoint name unless --resume
    // names an existing file.
    let sibling = |suffix: &str| {
        let mut p = args.ckpt.as_os_str().to_owned();
        p.push(suffix);
        PathBuf::from(p)
    };
    let state_path = args.resume.clone().unwrap_or_else(|| sibling(".state"));
    let fault_tolerant = args.tc.checkpoint_every > 0 || args.resume.is_some();

    let model = if args.workers > 1 {
        eprintln!("data-parallel training on {} workers ...", args.workers);
        // With --checkpoint-every or --resume the supervisor persists the
        // state before every epoch and after the last, and resumes from an
        // existing file on its own.
        let sup = SupervisorConfig {
            workers: args.workers,
            checkpoint_path: fault_tolerant.then(|| state_path.clone()),
            ..Default::default()
        };
        let r = train_elastic(&corpus, &mcfg, &args.tc, &sup, &FaultPlan::none(), recorder.clone());
        eprintln!(
            "throughput {:.1} samples/s, final loss {:.4}, world {}, failures {}, \
             ring re-forms {}{}",
            r.throughput,
            r.epoch_losses.last().copied().unwrap_or(f32::NAN),
            r.final_world,
            r.failures,
            r.ring_reforms,
            if r.completed { "" } else { " (run stopped early)" }
        );
        let total_wait: f64 = r.allreduce_wait.iter().sum();
        eprintln!("all-reduce wait: {total_wait:.3}s total across {} ranks", r.workers);
        if !fault_tolerant {
            save_train_state(&state_path, &r.final_state).expect("write train state");
        }
        let mut model = MeshfreeFlowNet::new(mcfg);
        decode_inference_state(&mut model, &mut r.final_state.as_slice())
            .expect("the run's own state decodes");
        model
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
        .with_recorder(recorder.clone())
        .with_checkpointing(&state_path);
        if args.tc.checkpoint_every > 0 {
            eprintln!(
                "train-state checkpoints every {} steps -> {}",
                args.tc.checkpoint_every,
                state_path.display()
            );
        }
        let recs = trainer.train(&corpus);
        for r in recs.iter().step_by((recs.len() / 8).max(1)) {
            eprintln!(
                "epoch {:>4}  loss {:.4}  (pred {:.4}, eq {:.4})",
                r.epoch, r.loss, r.prediction, r.equation
            );
        }
        // The final state also lets a later --resume with more epochs
        // continue instead of restarting.
        trainer.save_checkpoint(&state_path).expect("write train state");
        trainer.model
    };
    recorder.flush();
    eprintln!("train state written to {}", state_path.display());
    // Architecture sidecar: the MFNSTAT1 frame carries tensors, not the
    // architecture, so `serve` needs this to rebuild the exact model.
    let cfg_path = sibling(".cfg.json");
    model.cfg.save_json(&cfg_path).expect("write config sidecar");
    eprintln!("config sidecar written to {}", cfg_path.display());

    if let Some((valid, valid_lr)) = valid {
        eprintln!("evaluating on held-out frames ...");
        let sr = model.super_resolve(&valid_lr, &valid.meta, corpus.stats);
        let nu = (valid.meta.pr / valid.meta.ra).sqrt();
        println!("{}", table_header());
        println!("{}", evaluate_pair("validation", &valid, &sr, nu, 0).format());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfn_data::downsample;
    use mfn_solver::{simulate, RbcConfig};

    fn hr() -> Dataset {
        let sim = simulate(
            &RbcConfig { nx: 16, nz: 9, ra: 1e5, dt_max: 2e-3, ..Default::default() },
            0.1,
            13,
        );
        Dataset::from_simulation(&sim)
    }

    /// README's `--lr data/rb.bin.lr --valid-frac 0.2`, at CI's 2x/2x
    /// factors: the training LR covers the training HR frames only, and
    /// validation runs at the LR file's factors.
    #[test]
    fn held_out_frames_stay_out_of_training_at_the_lr_files_factors() {
        let hr_full = hr();
        let lr_file = downsample(&hr_full, 2, 2);
        let ((hr, lr), valid) = datasets(hr_full.clone(), Some(lr_file), 0.3).expect("2x/2x");
        let (valid, valid_lr) = valid.expect("held-out pair");
        let (want_hr, want_valid) = hr_full.split_time(0.7);
        assert_eq!(hr.data, want_hr.data);
        assert_eq!(valid.data, want_valid.data);
        assert_eq!(lr.data, downsample(&want_hr, 2, 2).data);
        assert!(lr.meta.duration <= hr.meta.duration, "LR frames past the training HR");
        assert_eq!(valid_lr.data, downsample(&want_valid, 2, 2).data);
    }

    /// An LR file that is not the HR file downsampled cannot be split.
    #[test]
    fn an_lr_file_that_is_not_the_hr_downsampled_is_refused() {
        let hr_full = hr();
        let mut lr_file = downsample(&hr_full, 2, 2);
        assert_eq!(lr_factors(&hr_full, &lr_file), Ok((2, 2)));
        lr_file.data[7] += 1.0;
        assert!(datasets(hr_full.clone(), Some(lr_file.clone()), 0.3).is_err());
        // Without a split the file is used as given.
        let ((_, lr), valid) = datasets(hr_full, Some(lr_file.clone()), 0.0).expect("no split");
        assert_eq!(lr.data, lr_file.data);
        assert!(valid.is_none());
    }
}
