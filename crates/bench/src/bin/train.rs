//! `train` — train a MeshfreeFlowNet on datasets produced by `gendata` and
//! write the train state `serve` loads.
//!
//! ```text
//! usage: train --hr PATH --lr PATH --ckpt PATH [--epochs N] [--gamma G]
//!              [--rate LR] [--batch N] [--workers N] [--valid-frac F]
//!              [--telemetry PATH] [--checkpoint-every N] [--resume PATH]
//! ```
//!
//! Every `--workers` count (default 1) trains through the one driver,
//! `mfn_dist::train_elastic`: data-parallel with the ring all-reduce, every
//! worker running the same step and epoch loop on its own batch stream. It
//! writes the full train state (architecture, params, BN stats, Adam
//! moments, every sampler position, epoch/batch cursor) as a CRC-framed
//! `MFNSTAT1` file to `<ckpt>.state` before every round and after the last:
//! the one file `serve --ckpt <ckpt>.state` loads. A round is an epoch, or
//! with `--checkpoint-every N` at most N gradient steps; a write before a
//! round that fails is reported and training goes on.
//! With `--valid-frac`, holds out the trailing fraction of HR frames, trains
//! on the rest (both LR halves are downsampled from the split HR at the
//! factors of the `--lr` file) and reports the physics-metric scoreboard on
//! the held-out range. A held-out range whose LR frames are fewer than a
//! patch's is refused (exit 2) before training.
//! With `--telemetry`, appends one JSON object per gradient step (losses,
//! gradient norms, per-phase timings) to the given `.jsonl` file.
//! A run continues only the state `--resume PATH` names — bit-identically
//! to a run that was never interrupted, mid-epoch included — and writes its
//! state back there; without `--resume` it starts fresh, whatever files
//! exist. A resumed state with no epoch left prints one line, writes nothing
//! and exits 0. A resume file that is missing, damaged in both copies, or
//! written under another architecture (patch shape, γ, constraint set) or
//! world size, and a final state that cannot be written, print the error
//! naming the file and exit 1.
//! A missing or malformed option value, `--workers 0` included, prints the
//! usage and exits 2; an unreadable dataset, or a telemetry file that cannot
//! be created, prints the error and exits 1.

use mfn_core::cli::Cli;
use mfn_core::{
    evaluate_pair, load_train_state_with_fallback, render, Arm, CheckpointError, Corpus,
    FrozenModel, MfnConfig, Results, Run, TrainConfig,
};
use mfn_data::{load_dataset, try_downsample, Dataset, PatchSpec};
use mfn_dist::{train_elastic, FaultPlan, SupervisorConfig};
use mfn_telemetry::Recorder;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};

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

const USAGE: &str = "usage: train --hr PATH [--lr PATH] --ckpt PATH [--epochs N] \
                     [--gamma G] [--rate LR] [--batch N] [--workers N] [--valid-frac F] \
                     [--telemetry PATH] [--checkpoint-every N] [--resume PATH]";

fn parse() -> Args {
    let mut a = Args {
        hr: PathBuf::new(),
        lr: None,
        ckpt: PathBuf::new(),
        tc: TrainConfig {
            epochs: 60,
            batches_per_epoch: 8,
            batch_size: 4,
            lr: 1e-2,
            lr_decay: 0.98,
            ..Default::default()
        },
        gamma: MfnConfig::GAMMA_STAR,
        workers: 1,
        valid_frac: 0.0,
        telemetry: None,
        resume: None,
    };
    let (mut hr, mut ckpt) = (None, None);
    let mut cli = Cli::new(USAGE);
    while let Some(flag) = cli.next_flag() {
        match flag.as_str() {
            "--hr" => hr = Some(cli.value(&flag)),
            "--lr" => a.lr = Some(cli.value(&flag)),
            "--ckpt" => ckpt = Some(cli.value(&flag)),
            "--epochs" => a.tc.epochs = cli.value(&flag),
            "--gamma" => a.gamma = cli.value(&flag),
            "--rate" => a.tc.lr = cli.value(&flag),
            "--batch" => a.tc.batch_size = cli.value(&flag),
            "--workers" => a.workers = cli.value::<NonZeroUsize>(&flag).get(),
            "--valid-frac" => a.valid_frac = cli.value(&flag),
            "--telemetry" => a.telemetry = Some(cli.value(&flag)),
            "--checkpoint-every" => a.tc.checkpoint_every = cli.value(&flag),
            "--resume" => a.resume = Some(cli.value(&flag)),
            other => cli.fail(&format!("unknown option {other}")),
        }
    }
    a.hr = hr.unwrap_or_else(|| cli.fail("--hr is required"));
    a.ckpt = ckpt.unwrap_or_else(|| cli.fail("--ckpt is required"));
    a
}

/// The dataset at `path`, or the error printed and exit 1.
fn load(path: &Path) -> Dataset {
    load_dataset(path).unwrap_or_else(|e| {
        eprintln!("error: cannot load dataset {}: {e}", path.display());
        std::process::exit(1);
    })
}

/// The train state at `path` could not be resumed or written: the error
/// naming the file, and exit 1.
fn state_error(path: &Path, e: CheckpointError) -> ! {
    eprintln!("error: train state {}: {e}", path.display());
    std::process::exit(1);
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
    let nt = patch(&lr).nt;
    if valid_lr.meta.nt < nt {
        return Err(format!(
            "--valid-frac {valid_frac} holds out {} of {} HR frames, {} LR frames at the {}x \
             time factor: fewer than the {nt} frames of a patch",
            valid.meta.nt, hr_full.meta.nt, valid_lr.meta.nt, factors.0
        ));
    }
    Ok(((hr, lr), Some((valid, valid_lr))))
}

/// The patch shape adapted to the training LR grid.
fn patch(lr: &Dataset) -> PatchSpec {
    PatchSpec { nt: lr.meta.nt.min(4), nz: lr.meta.nz.min(4), nx: lr.meta.nx.min(8), queries: 256 }
}

fn main() {
    let args = parse();
    let hr_full = load(&args.hr);
    let lr_file = args.lr.as_deref().map(load);
    let ((hr, lr), valid) = datasets(hr_full, lr_file, args.valid_frac).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let grid = |d: &Dataset| format!("[{} x {} x {}]", d.meta.nt, d.meta.nz, d.meta.nx);
    let (gamma, workers) = (args.gamma, args.workers);
    eprintln!("HR {}, LR {}, gamma = {gamma}, {workers} worker(s)", grid(&hr), grid(&lr));
    let mut mcfg = MfnConfig::small();
    mcfg.patch = patch(&lr);
    mcfg.gamma = args.gamma;
    let corpus = Corpus::new(vec![(hr, lr)]);
    let recorder = match &args.telemetry {
        Some(path) => {
            let r = Recorder::jsonl(path).unwrap_or_else(|e| {
                eprintln!("error: cannot create telemetry file {}: {e}", path.display());
                std::process::exit(1);
            });
            eprintln!("telemetry -> {}", path.display());
            r
        }
        None => Recorder::null(),
    };

    // The train state goes next to the checkpoint name unless --resume
    // names the file to continue, and is read from nowhere else.
    let state_path = args.resume.clone().unwrap_or_else(|| {
        let mut p = args.ckpt.as_os_str().to_owned();
        p.push(".state");
        PathBuf::from(p)
    });
    let state = args
        .resume
        .as_ref()
        .map(|path| load_train_state_with_fallback(path).unwrap_or_else(|e| state_error(path, e)));

    let sup = SupervisorConfig {
        workers: args.workers,
        checkpoint_path: Some(state_path.clone()),
        ..Default::default()
    };
    let r = train_elastic(
        &corpus,
        &mcfg,
        &args.tc,
        &sup,
        state.as_deref(),
        &FaultPlan::none(),
        recorder.clone(),
    )
    .unwrap_or_else(|e| state_error(&state_path, e));
    recorder.flush();
    if r.completed && r.epochs.is_empty() {
        eprintln!(
            "train state {} is at epoch {} or later: nothing to train",
            state_path.display(),
            args.tc.epochs
        );
    } else {
        for e in r.epochs.iter().step_by((r.epochs.len() / 8).max(1)) {
            eprintln!(
                "epoch {:>4}  loss {:.4}  (pred {:.4}, eq {:.4})",
                e.epoch, e.loss, e.prediction, e.equation
            );
        }
        eprintln!(
            "throughput {:.1} samples/s, final loss {:.4}, world {}, failures {}, \
             ring re-forms {}, all-reduce wait {:.3}s{}",
            r.throughput,
            r.epoch_losses.last().copied().unwrap_or(f32::NAN),
            r.final_world,
            r.failures,
            r.ring_reforms,
            r.allreduce_wait.iter().sum::<f64>(),
            if r.completed { "" } else { " (run stopped early)" }
        );
        eprintln!("train state written to {}", state_path.display());
    }

    if let Some((valid, valid_lr)) = valid {
        eprintln!("evaluating on held-out frames ...");
        // The model `serve` would load: the run's final state.
        let model =
            FrozenModel::from_state(&r.final_state).unwrap_or_else(|e| state_error(&state_path, e));
        let sr = model.super_resolve(&valid_lr, &valid.meta, corpus.stats);
        let nu = (valid.meta.pr / valid.meta.ra).sqrt();
        // What this invocation trained: a resumed run counts its own epochs,
        // each on the ranks that committed it.
        let scores = evaluate_pair(&valid, &sr, nu, 0);
        let wall_s = r.epoch_wall.last().copied().unwrap_or(0.0);
        let run = Run::trained(args.tc.seed, scores, &r.epochs, &r.epoch_worlds, &args.tc, wall_s);
        print!(
            "{}",
            render(&Results {
                title: "held-out frames".into(),
                seeds: vec![run.seed],
                arms: vec![Arm { label: "validation".into(), runs: vec![run] }],
                ..Default::default()
            })
        );
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
            0.2,
            25,
        );
        Dataset::from_simulation(&sim)
    }

    /// README's `--lr data/rb.bin.lr --valid-frac 0.2`, at CI's 2x/2x
    /// factors: the training LR covers the training HR frames only, and
    /// validation runs at the LR file's factors (25 frames hold out 7, 4 LR
    /// frames: one patch).
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

    /// A held-out range whose LR frames cannot hold one patch is refused
    /// before training: 17 frames of 32 × 9 at 2x/2x hold out 5 HR frames,
    /// 3 LR frames, against a patch of 4.
    #[test]
    fn a_held_out_range_shorter_than_a_patch_is_refused() {
        let sim = simulate(
            &RbcConfig { nx: 32, nz: 9, ra: 1e5, dt_max: 2e-3, ..Default::default() },
            0.8,
            17,
        );
        let hr_full = Dataset::from_simulation(&sim);
        let lr_file = downsample(&hr_full, 2, 2);
        let err = datasets(hr_full, Some(lr_file), 0.3).expect_err("3 LR frames fit no patch");
        assert!(err.contains("5 of 17 HR frames, 3 LR frames"), "{err}");
        assert!(err.contains("the 4 frames of a patch"), "{err}");
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
