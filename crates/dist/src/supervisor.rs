//! The data-parallel driver: synchronous training that survives worker
//! failures.
//!
//! Every rank is an [`mfn_core::Trainer`] with a `RingReduce` exchange
//! ([`crate::trainer`]). [`train_elastic`] runs them as a sequence of *epoch
//! rounds*, each a snapshot → epoch → commit cycle:
//!
//! 1. Before a round, the supervisor encodes the master state (params, BN
//!    stats, Adam, per-logical-rank sampler positions) and — when configured
//!    — persists it through the atomic CRC-framed checkpoint writer.
//! 2. Every active rank rebuilds its `Trainer` from that snapshot
//!    (`Trainer::from_state`, the decode `Trainer::resume` uses) and runs
//!    `Trainer::run_epoch` with *bounded* all-reduces. A scripted (or real)
//!    failure surfaces as an error on every rank instead of a hang.
//! 3. If every rank finished, ring position 0's model and Adam state and
//!    every rank's sampler state become the new master state. On failure
//!    nothing is adopted (no partial epoch is ever committed); the
//!    supervisor re-forms the ring — either over the surviving world or,
//!    with [`SupervisorConfig::restart_failed`], at full strength —
//!    re-shards the corpus across the new world, and retries.
//!
//! Because a round either commits whole or not at all, a run that suffered
//! a kill-and-restart is bit-identical to one that never faulted (the
//! kill-and-resume determinism test pins this), and a run that shrank keeps
//! converging on the reduced world. Without faults it is plain synchronous
//! data-parallel SGD, which is all [`crate::train_data_parallel`] asks of it.
//!
//! Logical ranks are stable identities: rank `r` keeps its sampler stream
//! (`seed + r * 7919`) across re-forms, so shrinking the world never makes
//! two workers draw the same batches.

use crate::fault::FaultPlan;
use crate::trainer::{on_ring, param_digest, rank_seed, RankFailure};
use mfn_autodiff::{Adam, AdamConfig};
use mfn_core::{
    decode_train_state, encode_train_state, load_train_state_with_fallback, save_train_state,
    CheckpointError, Corpus, EpochRecord, MeshfreeFlowNet, MfnConfig, RngState, TrainConfig,
    TrainStateMeta, Trainer,
};
use mfn_telemetry::Recorder;
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
    /// When set, the master state is checkpointed here before every epoch
    /// and after the last; an existing file is resumed from (falling back
    /// to `<path>.prev` if the newest write is damaged).
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
    /// Mean combined loss per committed epoch (over the ranks that ran it).
    pub epoch_losses: Vec<f32>,
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
    /// parameters, batch-norm running statistics, Adam and every rank's
    /// sampler position: the payload `<ckpt>.state` frames, which
    /// `FrozenModel::load_state` serves and `Trainer::from_state` resumes.
    pub final_state: Vec<u8>,
    /// Gradient buffer size in elements (for the scaling model).
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
/// (pass [`FaultPlan::none`] for production behavior).
///
/// `batches_per_epoch` mini-batches are processed by *each* worker per
/// epoch (weak scaling, like the paper: the global batch grows with the
/// worker count). Every rank emits what a single-process [`Trainer`] emits
/// through a clone of `recorder` — one `StepMetrics` per gradient step,
/// tagged with its rank and the seconds it spent in the ring all-reduce,
/// and the per-epoch gauges — and the run adds its own: `dist.world` per
/// round, the failure counters and `throughput_samples_per_sec`.
///
/// # Panics
/// Panics if `sup.workers == 0` or a configured
/// checkpoint cannot be written; a *damaged* checkpoint on resume falls
/// back to `<path>.prev` and only panics when both copies are bad.
pub fn train_elastic(
    corpus: &Corpus,
    model_cfg: &MfnConfig,
    train_cfg: &TrainConfig,
    sup: &SupervisorConfig,
    plan: &FaultPlan,
    recorder: Recorder,
) -> DistRunResult {
    assert!(sup.workers >= 1, "supervisor needs at least one worker");

    // Master state, authoritative between rounds: the replica, its Adam
    // state, and the position plus every logical rank's sampler stream.
    let mut master = MeshfreeFlowNet::new(model_cfg.clone());
    let mut opt = Adam::new(&master.store, AdamConfig { lr: train_cfg.lr, ..Default::default() });
    let mut meta = TrainStateMeta {
        global_step: 0,
        epoch: 0,
        batch_cursor: 0,
        rngs: (0..sup.workers)
            .map(|r| RngState { seed: rank_seed(train_cfg.seed, r), words: 0 })
            .collect(),
    };
    let steps_per_epoch = train_cfg.batches_per_epoch as u64;

    // Resume from an existing checkpoint (surviving a torn newest write via
    // the rotated previous copy), at the start of the epoch it was in.
    if let Some(path) = &sup.checkpoint_path {
        match load_train_state_with_fallback(path) {
            Ok(payload) => {
                let (restored, found) = decode_train_state(&mut master, &mut payload.as_slice())
                    .unwrap_or_else(|e| panic!("cannot resume from {}: {e}", path.display()));
                assert_eq!(
                    found.rngs.len(),
                    sup.workers,
                    "checkpoint world size {} != configured {}",
                    found.rngs.len(),
                    sup.workers
                );
                opt = restored;
                meta.rngs = found.rngs;
                meta.epoch = found.epoch;
                meta.global_step = found.epoch as u64 * steps_per_epoch;
            }
            Err(CheckpointError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                // Fresh run: nothing to resume.
            }
            Err(e) => panic!("cannot resume from {}: {e}", path.display()),
        }
    }

    let mut active: Vec<usize> = (0..sup.workers).collect();
    let mut epoch_losses = Vec::with_capacity(train_cfg.epochs);
    let mut epoch_worlds = Vec::with_capacity(train_cfg.epochs);
    let mut failures = 0u64;
    let mut ring_reforms = 0u64;
    let mut retries_left = MAX_RETRIES;
    let mut completed = true;
    let mut epoch_wall = Vec::with_capacity(train_cfg.epochs);
    let mut allreduce_wait = vec![0.0; sup.workers];
    let mut epoch_param_digests = vec![Vec::new(); sup.workers];
    let mut samples = 0usize;
    let start = Instant::now();

    while meta.epoch < train_cfg.epochs {
        // The snapshot carries *all* logical rank streams, so every rank of
        // the round — and a resumed supervisor — can be rebuilt from it.
        let snapshot = encode_train_state(&master, &opt, &meta);
        persist(sup, &recorder, &snapshot);
        recorder.gauge("dist.world", active.len() as f64);

        // One epoch round over the active world: every rank is rebuilt
        // from the snapshot and runs the epoch through a bounded ring.
        let results: Vec<Result<(Trainer, EpochRecord, u64), RankFailure>> =
            on_ring(&active, sup.allreduce_timeout, plan, |mut reduce| {
                let model = MeshfreeFlowNet::new(model_cfg.clone());
                let mut trainer =
                    Trainer::from_state(model, *train_cfg, &snapshot, reduce.rank, sup.workers)
                        .expect("supervisor snapshot must decode")
                        .with_recorder(recorder.clone());
                let record = trainer.run_epoch(corpus, &mut reduce)?;
                let digest = param_digest(&trainer.model.store.flatten());
                Ok((trainer, record, digest))
            });

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
            let mut loss = 0.0f32;
            for (&rank, r) in active.iter().zip(results) {
                let (trainer, record, digest) = r.unwrap_or_else(|_| unreachable!("checked above"));
                meta.rngs[rank] = trainer.sampler_state();
                loss += record.loss;
                allreduce_wait[rank] += trainer.reduce_wait_s();
                epoch_param_digests[rank].push(digest);
                if rank == active[0] {
                    master = trainer.model;
                    opt = trainer.opt;
                }
            }
            epoch_losses.push(loss / active.len() as f32);
            epoch_worlds.push(active.len());
            epoch_wall.push(start.elapsed().as_secs_f64());
            samples += active.len() * train_cfg.batches_per_epoch * train_cfg.batch_size;
            meta.epoch += 1;
            meta.global_step += steps_per_epoch;
            continue;
        }

        // Failure path: nothing from this round is committed (rollback to
        // the snapshot is implicit — master/opt/meta were never touched).
        let epoch = meta.epoch;
        for r in &results {
            match r {
                Err(RankFailure::Killed { rank, step }) => {
                    eprintln!(
                        "supervisor: rank {rank} died at step {step}; rolling back epoch {epoch}"
                    );
                }
                Err(RankFailure::Ring { rank, err }) => {
                    eprintln!("supervisor: rank {rank} collective failed ({err}); rolling back epoch {epoch}");
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

    // Persist the final committed state so a follow-on run resumes cleanly.
    let final_state = encode_train_state(&master, &opt, &meta);
    persist(sup, &recorder, &final_state);
    let throughput = samples as f64 / start.elapsed().as_secs_f64();
    recorder.gauge("throughput_samples_per_sec", throughput);

    DistRunResult {
        workers: sup.workers,
        epoch_losses,
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
    }
}

/// Writes `payload` to the configured checkpoint path, if there is one.
fn persist(sup: &SupervisorConfig, recorder: &Recorder, payload: &[u8]) {
    let Some(path) = &sup.checkpoint_path else { return };
    let start = Instant::now();
    let bytes = save_train_state(path, payload)
        .unwrap_or_else(|e| panic!("checkpoint write to {} failed: {e}", path.display()));
    recorder.incr("ckpt.bytes", bytes);
    recorder.incr("ckpt.writes", 1);
    recorder.gauge("ckpt.write_s", start.elapsed().as_secs_f64());
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
        let r = train_elastic(&corpus, &cfg, &tc, &sup, &plan, recorder);
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

    /// Killing a worker mid-epoch with restart: the run commits every epoch
    /// at full strength and lands on the same parameters as a faultless run.
    #[test]
    fn kill_with_restart_is_deterministic() {
        let (corpus, cfg, tc) = tiny_setup();
        let sup = SupervisorConfig { workers: 2, restart_failed: true, ..Default::default() };
        let clean = train_elastic(&corpus, &cfg, &tc, &sup, &FaultPlan::none(), Recorder::null());
        // Kill logical rank 1 at global step 6 (mid-epoch 1).
        let plan = FaultPlan::none().kill(1, 6);
        let faulted = train_elastic(&corpus, &cfg, &tc, &sup, &plan, Recorder::null());
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
