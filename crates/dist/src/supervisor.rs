//! The training driver: synchronous data-parallel training, on one worker
//! or several, that survives worker failures.
//!
//! Every rank is an [`mfn_core::Trainer`] with a `RingReduce` exchange
//! ([`crate::trainer`]). [`train_elastic`] runs them as a sequence of
//! *rounds*, each a snapshot → steps → commit cycle. A round ends at every
//! epoch end and, when `TrainConfig::checkpoint_every` N > 0, at every
//! global step that is a multiple of N:
//!
//! 1. Before a round, the supervisor encodes the master state (params, BN
//!    stats, Adam, per-logical-rank sampler positions) and — when configured
//!    — persists it through the training run's one checkpoint writer: the
//!    first round's write must succeed (`mfn_core::write_train_state`), a
//!    later one's failure is counted (`mfn_core::write_periodic`).
//! 2. Every active rank rebuilds its `Trainer` from that snapshot
//!    (`Trainer::from_state`) and runs `Trainer::run_epoch` up to the
//!    round's last step with *bounded* all-reduces. A scripted (or real)
//!    failure surfaces as an error on every rank instead of a hang.
//! 3. If every rank finished, ring position 0's model and Adam state and
//!    every rank's sampler state become the new master state. On failure
//!    nothing is adopted (no partial round is ever committed); the
//!    supervisor re-forms the ring — either over the surviving world or,
//!    with [`SupervisorConfig::restart_failed`], at full strength —
//!    re-shards the corpus across the new world, and retries the round.
//!
//! Because a round either commits whole or not at all, a run that suffered
//! a kill-and-restart is bit-identical to one that never faulted (the
//! kill-and-resume determinism test pins this), and a run that shrank keeps
//! converging on the reduced world. Without faults it is plain synchronous
//! data-parallel SGD, which is all [`crate::train_data_parallel`] asks of it;
//! on one worker it is the serial `Trainer::train`, bit for bit.
//!
//! Logical ranks are stable identities: rank `r` keeps its sampler stream
//! (`seed + r * 7919`) across re-forms, so shrinking the world never makes
//! two workers draw the same batches.
//!
//! A run starts fresh or continues the train state its caller hands it;
//! the supervisor reads no file, and it is the only code that writes a
//! train state. A handed state with no epoch left runs no round and writes
//! nothing. Every error — a state it cannot continue, a first or final
//! write that fails — is a returned [`CheckpointError`].

use crate::fault::FaultPlan;
use crate::trainer::{on_ring, param_digest, rank_seed, RankFailure};
use mfn_autodiff::{Adam, AdamConfig};
use mfn_core::{
    decode_run_state, encode_train_state, write_periodic, write_train_state, CheckpointError,
    Corpus, EpochRecord, MeshfreeFlowNet, MfnConfig, RngState, TrainConfig, TrainStateMeta,
    Trainer,
};
use mfn_telemetry::Recorder;
use std::num::NonZeroU64;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Upper bound on failure-retry rounds across the run (guards chaos tests
/// against livelock if a plan keeps killing workers).
const MAX_RETRIES: usize = 8;

/// Supervisor policy knobs.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Initial world size (logical ranks 0..workers).
    pub workers: usize,
    /// Budget for one whole all-reduce collective; a peer silent for this
    /// long is treated as failed.
    pub allreduce_timeout: Duration,
    /// On worker death: true re-spawns the failed rank next round (fixed
    /// world — preemption-with-replacement); false continues on the
    /// surviving world (elastic shrink).
    pub restart_failed: bool,
    /// When set, the master state is checkpointed here before every round
    /// (a failed write is counted and training continues) and after the
    /// last (a failed write is the run's error). Nothing is read from it.
    pub checkpoint_path: Option<PathBuf>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            workers: 2,
            allreduce_timeout: Duration::from_secs(10),
            restart_failed: false,
            checkpoint_path: None,
        }
    }
}

/// What a data-parallel run did and produced.
#[derive(Debug, Clone)]
pub struct DistRunResult {
    /// Initial world size (logical ranks `0..workers`).
    pub workers: usize,
    /// Mean combined loss per committed epoch (over the ranks that ran it):
    /// the `loss` column of `epochs`.
    pub epoch_losses: Vec<f32>,
    /// Each committed epoch's mean losses over the ranks that ran it and
    /// the seconds its rounds took; an epoch split into rounds weighs each
    /// round by its batches.
    pub epochs: Vec<EpochRecord>,
    /// World size that committed each epoch.
    pub epoch_worlds: Vec<usize>,
    /// Wall-clock seconds since the run started, at each commit.
    pub epoch_wall: Vec<f64>,
    /// Aggregate throughput in *samples per second* over the committed
    /// epochs (one sample per patch, matching the paper's Fig. 7a axis).
    pub throughput: f64,
    /// Final master parameters, flattened.
    pub final_params: Vec<f32>,
    /// The final master state as `encode_train_state` encodes it —
    /// architecture, parameters, batch-norm running statistics, Adam and
    /// every rank's sampler position: the payload `<ckpt>.state` frames, which
    /// `FrozenModel::load_state` serves and `Trainer::from_state` resumes.
    pub final_state: Vec<u8>,
    /// Gradient buffer size in elements: what each rank all-reduces per step.
    pub grad_elems: usize,
    /// Seconds each logical rank spent blocked in the ring all-reduce,
    /// summed over its committed epochs.
    pub allreduce_wait: Vec<f64>,
    /// Parameter digest of every logical rank after every committed epoch
    /// it ran (`epoch_param_digests[rank][epoch]`), for replica-consistency
    /// checks: synchronous data-parallel SGD must keep these identical.
    pub epoch_param_digests: Vec<Vec<u64>>,
    /// Worker failures observed (kills and stall-timeouts).
    pub failures: u64,
    /// Times the ring was re-formed after a failure.
    pub ring_reforms: u64,
    /// World size at the end of the run.
    pub final_world: usize,
    /// True when the run committed every configured epoch (false when the
    /// retry budget ran out or no worker survived).
    pub completed: bool,
}

/// Runs synchronous data-parallel training of MeshfreeFlowNet under `plan`
/// (pass [`FaultPlan::none`] for production behavior), from a fresh model
/// or, given `state`, from that train state (the payload `<ckpt>.state`
/// frames) where it stopped. A state already at `train_cfg.epochs` runs no
/// round and writes nothing; the result then has no epochs and is
/// `completed`.
///
/// `state` is decoded once, through [`decode_run_state`], the checks
/// [`Trainer::from_state`] makes: a state of another architecture or
/// another world size than `sup.workers` is `Err(Incompatible)`, a damaged
/// one `Err(Corrupt)`, and nothing is trained. With
/// [`SupervisorConfig::checkpoint_path`] set, a failed first write (the
/// snapshot before the first round, so before any step) or final write is
/// the returned error; a periodic write in between that fails is counted
/// (`ckpt.errors`) and training goes on.
///
/// `batches_per_epoch` mini-batches are processed by *each* worker per
/// epoch (weak scaling, like the paper: the global batch grows with the
/// worker count). Every rank emits what a single-process [`Trainer`] emits
/// through a clone of `recorder` — one `StepMetrics` per gradient step,
/// tagged with its rank and the seconds it spent in the ring all-reduce,
/// and the per-round gauges — and the run adds its own: `dist.world` per
/// round, the failure counters and `throughput_samples_per_sec`.
///
/// # Panics
/// Panics if `sup.workers == 0`.
pub fn train_elastic(
    corpus: &Corpus,
    model_cfg: &MfnConfig,
    train_cfg: &TrainConfig,
    sup: &SupervisorConfig,
    state: Option<&[u8]>,
    plan: &FaultPlan,
    recorder: Recorder,
) -> Result<DistRunResult, CheckpointError> {
    assert!(sup.workers >= 1, "supervisor needs at least one worker");

    // Master state, authoritative between rounds: the replica, its Adam
    // state, and the position plus every logical rank's sampler stream.
    let mut master = MeshfreeFlowNet::new(model_cfg.clone());
    let (mut opt, mut meta) = match state {
        Some(payload) => decode_run_state(&mut master, train_cfg, payload, sup.workers)?,
        None => (
            Adam::new(&master.store, AdamConfig { lr: train_cfg.lr, ..Default::default() }),
            TrainStateMeta {
                global_step: 0,
                epoch: 0,
                batch_cursor: 0,
                rngs: (0..sup.workers)
                    .map(|r| RngState { seed: rank_seed(train_cfg.seed, r), words: 0 })
                    .collect(),
            },
        ),
    };

    let mut active: Vec<usize> = (0..sup.workers).collect();
    let mut epochs = Vec::with_capacity(train_cfg.epochs);
    let mut epoch_worlds = Vec::with_capacity(train_cfg.epochs);
    let mut failures = 0u64;
    let mut ring_reforms = 0u64;
    let mut retries_left = MAX_RETRIES;
    let mut completed = true;
    let mut epoch_wall = Vec::with_capacity(train_cfg.epochs);
    let mut allreduce_wait = vec![0.0; sup.workers];
    let mut epoch_param_digests = vec![Vec::new(); sup.workers];
    let mut samples = 0usize;
    // The committed rounds of the epoch in progress: batches, seconds, and
    // each round's rank-mean losses weighted by its batches — in f64, so an
    // epoch of one round gives back that round's means bit for bit.
    let mut sums = [0.0f64; 5];
    let trains = meta.epoch < train_cfg.epochs;
    let start = Instant::now();

    let mut first_round = true;
    while meta.epoch < train_cfg.epochs {
        // The snapshot carries *all* logical rank streams, so every rank of
        // the round — and a resumed supervisor — can be rebuilt from it. The
        // first write is the run's check that its state path can be written
        // at all: a failure is the returned error, before any step. A later
        // one is counted and training goes on.
        let snapshot = encode_train_state(&master, &opt, &meta);
        if let Some(path) = &sup.checkpoint_path {
            if std::mem::take(&mut first_round) {
                write_train_state(path, &snapshot, &recorder)?;
            } else {
                write_periodic(path, &snapshot, &recorder);
            }
        }
        recorder.gauge("dist.world", active.len() as f64);

        // The round runs to the epoch's end or the next multiple of
        // `checkpoint_every`, whichever comes first.
        let mut stop = meta.global_step + (train_cfg.batches_per_epoch - meta.batch_cursor) as u64;
        if let Some(every) = NonZeroU64::new(train_cfg.checkpoint_every as u64) {
            stop = stop.min((meta.global_step / every + 1) * every.get());
        }

        // One round over the active world: every rank is rebuilt from the
        // snapshot and runs to `stop` through a bounded ring.
        let rounds = on_ring(&active, sup.allreduce_timeout, plan, |mut reduce| {
            let model = MeshfreeFlowNet::new(model_cfg.clone());
            let mut trainer =
                Trainer::from_state(model, *train_cfg, &snapshot, reduce.rank, sup.workers)?
                    .with_recorder(recorder.clone());
            Ok(trainer.run_epoch(corpus, &mut reduce, stop).map(|record| {
                let digest = param_digest(&trainer.model.store.flatten());
                (trainer, record, digest)
            }))
        });
        let results: Vec<Result<(Trainer, EpochRecord, u64), RankFailure>> =
            rounds.into_iter().collect::<Result<_, CheckpointError>>()?;

        let killed: Vec<usize> = results
            .iter()
            .filter_map(|r| match r {
                Err(RankFailure::Killed { rank, .. }) => Some(*rank),
                _ => None,
            })
            .collect();

        if results.iter().all(Result::is_ok) {
            // Commit: adopt ring-position-0's replica (replicas are
            // bit-identical) and every rank's sampler stream; the round
            // becomes the new master state.
            let batches = (stop - meta.global_step) as usize;
            let ends_epoch = meta.batch_cursor + batches == train_cfg.batches_per_epoch;
            let mut losses = [0.0f32; 3];
            for (&rank, r) in active.iter().zip(results) {
                let (trainer, record, digest) = r.unwrap_or_else(|_| unreachable!("checked above"));
                meta.rngs[rank] = trainer.sampler_state();
                losses[0] += record.loss;
                losses[1] += record.prediction;
                losses[2] += record.equation;
                allreduce_wait[rank] += trainer.reduce_wait_s();
                if ends_epoch {
                    epoch_param_digests[rank].push(digest);
                }
                if rank == active[0] {
                    sums[1] += record.seconds;
                    master = trainer.model;
                    opt = trainer.opt;
                }
            }
            let n = batches as f64;
            sums[0] += n;
            for (sum, l) in sums[2..].iter_mut().zip(losses) {
                *sum += (l / active.len() as f32) as f64 * n;
            }
            samples += active.len() * batches * train_cfg.batch_size;
            meta.global_step = stop;
            meta.batch_cursor += batches;
            if ends_epoch {
                let [n, seconds, loss, prediction, equation] = std::mem::take(&mut sums);
                let mean = |sum: f64| (sum / n.max(1.0)) as f32;
                let (loss, prediction, equation) = (mean(loss), mean(prediction), mean(equation));
                epochs.push(EpochRecord { epoch: meta.epoch, loss, prediction, equation, seconds });
                epoch_worlds.push(active.len());
                epoch_wall.push(start.elapsed().as_secs_f64());
                meta.epoch += 1;
                meta.batch_cursor = 0;
            }
            continue;
        }

        // Failure path: nothing from this round is committed (rollback to
        // the snapshot is implicit — master/opt/meta were never touched).
        let step = meta.global_step;
        for r in &results {
            match r {
                Err(RankFailure::Killed { rank, step: at }) => {
                    eprintln!(
                        "supervisor: rank {rank} died at step {at}; rolling back to step {step}"
                    );
                }
                Err(RankFailure::Ring { rank, err }) => {
                    eprintln!("supervisor: rank {rank} collective failed ({err}); rolling back to step {step}");
                }
                Ok(_) => {}
            }
        }
        failures += killed.len().max(1) as u64; // stall-only rounds count once
        recorder.incr("dist.failures", killed.len().max(1) as u64);
        if !sup.restart_failed {
            active.retain(|r| !killed.contains(r));
        }
        ring_reforms += 1;
        recorder.incr("dist.ring_reforms", 1);
        if active.is_empty() || retries_left == 0 {
            completed = false;
            break;
        }
        retries_left -= 1;
    }

    // Persist the final committed state so a follow-on run can resume it.
    let final_state = encode_train_state(&master, &opt, &meta);
    if let (true, Some(path)) = (trains, &sup.checkpoint_path) {
        write_train_state(path, &final_state, &recorder)?;
    }
    let throughput = samples as f64 / start.elapsed().as_secs_f64();
    recorder.gauge("throughput_samples_per_sec", throughput);

    Ok(DistRunResult {
        workers: sup.workers,
        epoch_losses: epochs.iter().map(|e| e.loss).collect(),
        epochs,
        epoch_worlds,
        epoch_wall,
        throughput,
        final_params: master.store.flatten(),
        final_state,
        grad_elems: master.store.total_numel(),
        allreduce_wait,
        epoch_param_digests,
        failures,
        ring_reforms,
        final_world: active.len(),
        completed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::tests::tiny_setup;

    /// `lr_decay` is applied once per committed epoch — also across a
    /// rollback, whose retry starts from the snapshot's undecayed rate.
    #[test]
    fn lr_decay_anneals_every_rank_once_per_epoch() {
        let (corpus, cfg, tc) = tiny_setup();
        let tc = TrainConfig { lr_decay: 0.5, ..tc };
        let sup = SupervisorConfig { workers: 2, restart_failed: true, ..Default::default() };
        let (recorder, sink) = Recorder::memory(4096);
        let plan = FaultPlan::none().kill(1, 6);
        let r = train_elastic(&corpus, &cfg, &tc, &sup, None, &plan, recorder).expect("fresh run");
        assert!(r.completed);
        assert_eq!(r.failures, 1);
        let steps = sink.train_steps();
        for rank in 0..2 {
            let last = steps.iter().rfind(|m| m.rank == rank).expect("rank stepped");
            assert_eq!(last.epoch, 2);
            assert_eq!(last.lr, tc.lr * 0.25, "rank {rank}");
        }
        let clean = crate::train_data_parallel(&corpus, &cfg, &tc, 2);
        assert!(
            r.final_state == clean.final_state,
            "the retried epoch must reproduce the clean run"
        );
    }

    /// A state is continued only under the world size that wrote it: a
    /// one-worker state handed to a two-worker run is refused before any
    /// training, as a typed error.
    #[test]
    fn a_state_of_another_world_size_is_incompatible() {
        let (corpus, cfg, tc) = tiny_setup();
        let one = crate::train_data_parallel(&corpus, &cfg, &TrainConfig { epochs: 1, ..tc }, 1);
        let sup = SupervisorConfig { workers: 2, ..Default::default() };
        let (recorder, sink) = Recorder::memory(4096);
        let r = train_elastic(
            &corpus,
            &cfg,
            &tc,
            &sup,
            Some(&one.final_state),
            &FaultPlan::none(),
            recorder,
        );
        match r {
            Err(CheckpointError::Incompatible(m)) => {
                assert!(m.contains("1 sampler streams"), "{m}")
            }
            other => panic!("expected Incompatible, got {:?}", other.map(|r| r.epoch_losses)),
        }
        assert!(sink.train_steps().is_empty(), "nothing may train on a refused state");
    }

    /// A temp-dir path unique to this process and `tag`.
    fn temp_state(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mfn_sup_{tag}_{}.state", std::process::id()))
    }

    /// Removes `path` and its rotated `.prev`.
    fn remove_state(path: &std::path::Path) {
        std::fs::remove_file(path).ok();
        std::fs::remove_file(mfn_core::prev_path(path)).ok();
    }

    /// A handed state continues where it stopped, mid-epoch included: the
    /// one-worker snapshot before the round that starts at step 6 (epoch 1,
    /// batch 2; rounds of `checkpoint_every` = 6 over 4-batch epochs),
    /// rotated to `.prev` by the final write, finishes bit-identically to a
    /// run that never stopped.
    #[test]
    fn a_mid_epoch_state_continues_at_its_batch() {
        let (corpus, cfg, tc) = tiny_setup();
        let straight = crate::train_data_parallel(&corpus, &cfg, &tc, 1);
        let path = temp_state("mid");
        let sup = SupervisorConfig {
            workers: 1,
            checkpoint_path: Some(path.clone()),
            ..Default::default()
        };
        let first = TrainConfig { epochs: 2, checkpoint_every: 6, ..tc };
        train_elastic(&corpus, &cfg, &first, &sup, None, &FaultPlan::none(), Recorder::null())
            .expect("the first two epochs");
        let state =
            mfn_core::load_train_state(&mfn_core::prev_path(&path)).expect("the step-6 state");
        remove_state(&path);
        let sup = SupervisorConfig { workers: 1, ..Default::default() };
        let resumed = train_elastic(
            &corpus,
            &cfg,
            &tc,
            &sup,
            Some(&state),
            &FaultPlan::none(),
            Recorder::null(),
        )
        .expect("a one-worker state continues on one worker");
        assert_eq!(resumed.epoch_losses.len(), 2, "the rest of epoch 1, then epoch 2");
        assert!(resumed.final_state == straight.final_state, "resumed run diverged");
    }

    /// A handed state that has no epoch left runs no round and writes
    /// nothing: no step, no snapshot, no final state, the file untouched.
    #[test]
    fn a_finished_state_trains_and_writes_nothing() {
        let (corpus, cfg, tc) = tiny_setup();
        let path = temp_state("finished");
        for workers in [1, 2] {
            let sup = SupervisorConfig {
                workers,
                checkpoint_path: Some(path.clone()),
                ..Default::default()
            };
            let run = |state: Option<&[u8]>, recorder| {
                train_elastic(&corpus, &cfg, &tc, &sup, state, &FaultPlan::none(), recorder)
            };
            run(None, Recorder::null()).expect("the whole run");
            let bytes = std::fs::read(&path).expect("the final state");
            let state = mfn_core::load_train_state(&path).expect("the final state");
            let (recorder, sink) = Recorder::memory(4096);
            let r = run(Some(&state), recorder).expect("a finished state is no error");
            assert!(r.completed && r.epochs.is_empty(), "{workers} workers: {:?}", r.epochs);
            assert!(r.final_state == state, "{workers} workers");
            assert!(sink.train_steps().is_empty(), "{workers} workers");
            assert_eq!(sink.counter_total("ckpt.writes"), 0, "{workers} workers");
            assert_eq!(std::fs::read(&path).expect("still there"), bytes, "{workers} workers");
            remove_state(&path);
        }
    }

    /// Rounds of `checkpoint_every` = 3 steps over 4-batch epochs split
    /// every epoch, and change no bit: the final state equals the
    /// one-round-per-epoch run's on 1 and on 2 workers, and the epoch losses
    /// agree to rounding.
    #[test]
    fn step_rounds_change_no_bit() {
        let (corpus, cfg, tc) = tiny_setup();
        let every3 = TrainConfig { checkpoint_every: 3, ..tc };
        let path = temp_state("rounds");
        for workers in [1, 2] {
            let (recorder, sink) = Recorder::memory(4096);
            let sup = SupervisorConfig {
                workers,
                checkpoint_path: Some(path.clone()),
                ..Default::default()
            };
            let rounds =
                train_elastic(&corpus, &cfg, &every3, &sup, None, &FaultPlan::none(), recorder)
                    .expect("fresh run");
            remove_state(&path);
            let epochs = crate::train_data_parallel(&corpus, &cfg, &tc, workers);
            assert!(rounds.final_state == epochs.final_state, "{workers} workers");
            assert_eq!(rounds.epoch_worlds, epochs.epoch_worlds);
            assert_eq!(rounds.epoch_param_digests, epochs.epoch_param_digests);
            // Epoch 0 is rounds [0, 3) and [3, 4), epoch 1 [4, 6) and [6, 8),
            // epoch 2 [8, 9) and [9, 12); each is averaged over its four
            // batches.
            for (a, b) in rounds.epoch_losses.iter().zip(&epochs.epoch_losses) {
                assert!((a - b).abs() <= 1e-6 * b.abs(), "{workers} workers: {a} vs {b}");
            }
            // Every step ran once, and the state was written before each of
            // the six rounds and after the last.
            assert_eq!(sink.train_steps().len(), workers * 12);
            assert_eq!(sink.counter_total("ckpt.writes"), 6 + 1, "{workers} workers");
        }
    }

    /// A two-worker state written at a mid-epoch round boundary resumes
    /// bit-identically: with rounds ending at steps 3, 4, 6, 8, 9 and 12,
    /// the final write rotates the snapshot of step 9 (epoch 2, batch 1) to
    /// `.prev`, and that state finishes where the unbroken run did.
    #[test]
    fn a_two_worker_mid_epoch_round_state_resumes_bit_identically() {
        let (corpus, cfg, tc) = tiny_setup();
        let tc = TrainConfig { checkpoint_every: 3, ..tc };
        let path = temp_state("mid2");
        let sup = SupervisorConfig {
            workers: 2,
            checkpoint_path: Some(path.clone()),
            ..Default::default()
        };
        let run = |state: Option<&[u8]>| {
            train_elastic(&corpus, &cfg, &tc, &sup, state, &FaultPlan::none(), Recorder::null())
                .expect("run")
        };
        let straight = run(None);
        let state =
            mfn_core::load_train_state(&mfn_core::prev_path(&path)).expect("the step-9 state");
        assert_eq!(
            mfn_core::FrozenModel::from_state(&state).expect("own state").trained_steps(),
            9
        );
        let resumed = run(Some(&state));
        remove_state(&path);
        assert_eq!(resumed.epoch_losses.len(), 1, "the rest of epoch 2");
        assert_eq!(resumed.epoch_worlds, [2]);
        assert!(resumed.final_state == straight.final_state, "resumed run diverged");
    }

    /// A kill inside a step round rolls back only that round: with
    /// `checkpoint_every` = 3 and the failed rank restarted, the run lands
    /// on the clean run's final state.
    #[test]
    fn a_kill_inside_a_step_round_reproduces_the_clean_run() {
        let (corpus, cfg, tc) = tiny_setup();
        let tc = TrainConfig { checkpoint_every: 3, ..tc };
        let sup = SupervisorConfig { workers: 2, restart_failed: true, ..Default::default() };
        let (recorder, sink) = Recorder::memory(4096);
        // Step 8 is the second step of the round [6, 8).
        let plan = FaultPlan::none().kill(1, 8);
        let faulted =
            train_elastic(&corpus, &cfg, &tc, &sup, None, &plan, recorder).expect("faulted run");
        let clean = crate::train_data_parallel(&corpus, &cfg, &tc, 2);
        assert!(faulted.completed);
        assert_eq!((faulted.failures, faulted.ring_reforms, faulted.final_world), (1, 1, 2));
        assert!(faulted.final_state == clean.final_state, "the retried round diverged");
        // Only the round's first step (7) ran twice on rank 0.
        let rank0 = sink.train_steps().iter().filter(|m| m.rank == 0).count();
        assert_eq!(rank0, 12 + 1);
    }

    /// A checkpoint path that cannot be written fails the run before its
    /// first step, on one worker and on two: the snapshot written before the
    /// first round is the returned error, no rank emits a `StepMetrics`, and
    /// no file appears.
    #[test]
    fn unwritable_checkpoint_path_fails_before_any_step() {
        let (corpus, cfg, tc) = tiny_setup();
        let dir = std::env::temp_dir().join(format!("mfn_sup_nodir_{}", std::process::id()));
        let path = dir.join("missing").join("m.state");
        for workers in [1, 2] {
            let sup = SupervisorConfig {
                workers,
                checkpoint_path: Some(path.clone()),
                ..Default::default()
            };
            let (recorder, sink) = Recorder::memory(4096);
            let r = train_elastic(&corpus, &cfg, &tc, &sup, None, &FaultPlan::none(), recorder);
            assert!(matches!(r, Err(CheckpointError::Io(_))), "{:?}", r.map(|r| r.epoch_losses));
            assert!(sink.train_steps().is_empty(), "{workers} workers: a step ran");
            assert_eq!(sink.counter_total("ckpt.writes"), 0);
            assert!(!dir.exists() && !path.exists(), "{workers} workers: a file was created");
        }
    }

    /// Killing a worker mid-epoch with restart: the run commits every epoch
    /// at full strength and lands on the same parameters as a faultless run.
    #[test]
    fn kill_with_restart_is_deterministic() {
        let (corpus, cfg, tc) = tiny_setup();
        let sup = SupervisorConfig { workers: 2, restart_failed: true, ..Default::default() };
        let run = |plan: &FaultPlan| {
            train_elastic(&corpus, &cfg, &tc, &sup, None, plan, Recorder::null())
                .expect("fresh run")
        };
        let clean = run(&FaultPlan::none());
        // Kill logical rank 1 at global step 6 (mid-epoch 1).
        let faulted = run(&FaultPlan::none().kill(1, 6));
        assert!(faulted.completed);
        assert_eq!(faulted.failures, 1);
        assert_eq!(faulted.ring_reforms, 1);
        assert_eq!(faulted.final_world, 2);
        assert!(
            faulted.final_state == clean.final_state,
            "rollback + restart must reproduce the faultless run bit-for-bit"
        );
    }
}
