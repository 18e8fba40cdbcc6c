//! Elastic supervisor: fault-tolerant data-parallel training.
//!
//! The plain driver in [`crate::trainer`] assumes every worker survives the
//! whole run — one dead thread takes the ring down with it. The supervisor
//! here runs the same ranks (an [`mfn_core::Trainer`] with a
//! `RingReduce` exchange) as a sequence of *epoch rounds*,
//! each a snapshot → epoch → commit cycle:
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
//! converging on the reduced world.
//!
//! Logical ranks are stable identities: rank `r` keeps its sampler stream
//! (`seed + r * 7919`) across re-forms, so shrinking the world never makes
//! two workers draw the same batches.

use crate::fault::FaultPlan;
use crate::trainer::{bn_stats_bytes, on_ring, param_digest, rank_seed, RankFailure};
use mfn_autodiff::{Adam, AdamConfig};
use mfn_core::{
    decode_train_state, encode_train_state, load_train_state_with_fallback, save_train_state,
    CheckpointError, Corpus, EpochRecord, MeshfreeFlowNet, MfnConfig, RngState, TrainConfig,
    TrainStateMeta, Trainer,
};
use mfn_telemetry::Recorder;
use std::path::PathBuf;
use std::time::{Duration, Instant};

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
    /// Stop shrinking below this world size; the run aborts instead.
    pub min_world: usize,
    /// Upper bound on failure-retry rounds across the run (guards chaos
    /// tests against livelock if a plan keeps killing workers).
    pub max_retries: usize,
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
            min_world: 1,
            max_retries: 8,
            checkpoint_path: None,
        }
    }
}

/// What an elastic run did and produced.
#[derive(Debug, Clone)]
pub struct ElasticRunResult {
    /// Mean combined loss per committed epoch (over the ranks that ran it).
    pub epoch_losses: Vec<f32>,
    /// World size that committed each epoch.
    pub epoch_worlds: Vec<usize>,
    /// Final master parameters.
    pub final_params: Vec<f32>,
    /// Final master batch-norm running statistics, as
    /// `MeshfreeFlowNet::write_bn_stats` streams them (they live in the
    /// layers, not in [`ElasticRunResult::final_params`]).
    pub final_bn_stats: Vec<u8>,
    /// FNV-1a digest of [`ElasticRunResult::final_params`].
    pub final_digest: u64,
    /// Worker failures observed (kills and stall-timeouts).
    pub failures: u64,
    /// Times the ring was re-formed after a failure.
    pub ring_reforms: u64,
    /// World size at the end of the run.
    pub final_world: usize,
    /// True when the run committed every configured epoch (false when the
    /// retry budget or `min_world` stopped it early).
    pub completed: bool,
}

/// Runs fault-tolerant data-parallel training of MeshfreeFlowNet under
/// `plan` (pass [`FaultPlan::none`] for production behavior).
///
/// # Panics
/// Panics if `sup.workers == 0`, `sup.min_world == 0`, or a configured
/// checkpoint cannot be written; a *damaged* checkpoint on resume falls
/// back to `<path>.prev` and only panics when both copies are bad.
pub fn train_elastic(
    corpus: &Corpus,
    model_cfg: &MfnConfig,
    train_cfg: &TrainConfig,
    sup: &SupervisorConfig,
    plan: &FaultPlan,
    recorder: Recorder,
) -> ElasticRunResult {
    assert!(sup.workers >= 1, "supervisor needs at least one worker");
    assert!(sup.min_world >= 1, "min_world must be at least 1");

    // Master state, authoritative between rounds: the replica, its Adam
    // state, and the position plus every logical rank's sampler stream.
    let mut master = MeshfreeFlowNet::new(model_cfg.clone());
    let mut opt = Adam::new(&master.store, AdamConfig { lr: train_cfg.lr, ..Default::default() });
    let mut meta = TrainStateMeta {
        global_step: 0,
        epoch: 0,
        batch_cursor: 0,
        // Seeded exactly like the plain data-parallel driver so the two
        // agree on shard contents.
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
    let mut retries_left = sup.max_retries;
    let mut completed = true;

    while meta.epoch < train_cfg.epochs {
        // The snapshot carries *all* logical rank streams, so every rank of
        // the round — and a resumed supervisor — can be rebuilt from it.
        let snapshot = encode_train_state(&master, &opt, &meta);
        persist(sup, &recorder, &snapshot);
        recorder.gauge("dist.world", active.len() as f64);

        // One epoch round over the active world: every rank is rebuilt
        // from the snapshot and runs the epoch through a bounded ring.
        let results: Vec<Result<(Trainer, EpochRecord), RankFailure>> =
            on_ring(&active, Some(sup.allreduce_timeout), plan, |mut reduce| {
                let model = MeshfreeFlowNet::new(model_cfg.clone());
                let mut trainer =
                    Trainer::from_state(model, *train_cfg, &snapshot, reduce.rank, sup.workers)
                        .expect("supervisor snapshot must decode")
                        .with_recorder(recorder.clone());
                let record = trainer.run_epoch(corpus, &mut reduce)?;
                Ok((trainer, record))
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
                let (trainer, record) = r.unwrap_or_else(|_| unreachable!("checked above"));
                meta.rngs[rank] = trainer.sampler_state();
                loss += record.loss;
                if rank == active[0] {
                    master = trainer.model;
                    opt = trainer.opt;
                }
            }
            epoch_losses.push(loss / active.len() as f32);
            epoch_worlds.push(active.len());
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
        if active.len() < sup.min_world {
            completed = false;
            break;
        }
        if retries_left == 0 {
            completed = false;
            break;
        }
        retries_left -= 1;
    }

    // Persist the final committed state so a follow-on run resumes cleanly.
    persist(sup, &recorder, &encode_train_state(&master, &opt, &meta));

    let final_params = master.store.flatten();
    let final_digest = param_digest(&final_params);
    ElasticRunResult {
        epoch_losses,
        epoch_worlds,
        final_params,
        final_bn_stats: bn_stats_bytes(&master),
        final_digest,
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
    use mfn_data::{downsample, Dataset, PatchSpec};
    use mfn_solver::{simulate, RbcConfig};

    fn tiny_setup() -> (Corpus, MfnConfig, TrainConfig) {
        let sim = simulate(
            &RbcConfig { nx: 16, nz: 9, ra: 1e5, dt_max: 2e-3, ..Default::default() },
            0.1,
            9,
        );
        let hr = Dataset::from_simulation(&sim);
        let lr = downsample(&hr, 2, 2);
        let corpus = Corpus::new(vec![(hr, lr)]);
        let mut cfg = MfnConfig::small();
        cfg.patch = PatchSpec { nt: 4, nz: 4, nx: 4, queries: 8 };
        cfg.base_channels = 4;
        cfg.latent_channels = 8;
        cfg.mlp_hidden = vec![16, 16];
        cfg.levels = 2;
        let tc = TrainConfig {
            epochs: 3,
            batches_per_epoch: 4,
            batch_size: 2,
            lr: 5e-3,
            ..Default::default()
        };
        (corpus, cfg, tc)
    }

    /// With no faults, the elastic supervisor is just a slower spelling of
    /// the plain data-parallel trainer: identical final parameters.
    #[test]
    fn matches_plain_data_parallel_without_faults() {
        let (corpus, cfg, tc) = tiny_setup();
        let sup = SupervisorConfig { workers: 2, ..Default::default() };
        let elastic = train_elastic(&corpus, &cfg, &tc, &sup, &FaultPlan::none(), Recorder::null());
        let plain = crate::trainer::train_data_parallel(&corpus, &cfg, &tc, 2);
        assert!(elastic.completed);
        assert_eq!(elastic.failures, 0);
        assert_eq!(elastic.ring_reforms, 0);
        assert_eq!(elastic.epoch_worlds, vec![2; tc.epochs]);
        assert_eq!(
            elastic.final_params.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            plain.final_params.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            "elastic supervisor without faults must reproduce the plain trainer"
        );
        assert_eq!(elastic.final_bn_stats, plain.final_bn_stats);
    }

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
        let plain = crate::trainer::train_data_parallel(&corpus, &cfg, &tc, 2);
        assert_eq!(r.final_digest, param_digest(&plain.final_params));
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
        assert_eq!(
            faulted.final_digest, clean.final_digest,
            "rollback + restart must reproduce the faultless run bit-for-bit"
        );
    }
}
