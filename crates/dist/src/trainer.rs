//! Synchronous data-parallel training (paper Sec. 3.4 / 5.4).
//!
//! Mirrors PyTorch `DistributedDataParallel`: the model is replicated on
//! every worker ("GPUs" are OS threads on this host — see DESIGN.md for the
//! substitution), each worker computes gradients on its own mini-batch,
//! gradients are averaged with a ring all-reduce, and every replica applies
//! the identical Adam update, keeping parameters bit-identical across
//! workers without ever broadcasting them.
//!
//! A worker is an [`mfn_core::Trainer`] — the same gradient step and epoch
//! loop a single process runs — given `RingReduce` as its gradient
//! exchange. This module only builds the ranks, runs them to completion and
//! collects what they report; [`crate::supervisor`] runs the same ranks one
//! epoch at a time with rollback.

use crate::fault::{FaultKind, FaultPlan};
use crate::ring::{ring, RingError, RingHandle};
use mfn_autodiff::{flatten_grads, unflatten_grads, ParamStore};
use mfn_core::{Corpus, GradReduce, MeshfreeFlowNet, MfnConfig, TrainConfig, Trainer};
use mfn_telemetry::Recorder;
use mfn_tensor::Tensor;
use std::time::{Duration, Instant};

/// Result of one data-parallel training run.
#[derive(Debug, Clone)]
pub struct DistRunResult {
    /// Number of workers.
    pub workers: usize,
    /// Mean combined loss per epoch (averaged over workers and batches).
    pub epoch_losses: Vec<f32>,
    /// Cumulative wall-clock seconds at the end of each epoch.
    pub epoch_wall: Vec<f64>,
    /// Aggregate throughput in *samples per second* (batch × queries count
    /// as one sample per patch, matching the paper's Fig. 7a axis).
    pub throughput: f64,
    /// Trained parameters of worker 0 (all workers are identical).
    pub final_params: Vec<f32>,
    /// Worker 0's batch-norm running statistics, as
    /// `MeshfreeFlowNet::write_bn_stats` streams them: they live in the
    /// layers, not the parameter store, so a model rebuilt from
    /// [`DistRunResult::final_params`] needs `read_bn_stats` on these too.
    pub final_bn_stats: Vec<u8>,
    /// Gradient buffer size in elements (for the scaling model).
    pub grad_elems: usize,
    /// Seconds each rank spent blocked in the ring all-reduce, summed over
    /// the whole run (index = rank).
    pub allreduce_wait: Vec<f64>,
    /// Parameter digest of every rank after every epoch
    /// (`epoch_param_digests[rank][epoch]`), for replica-consistency checks:
    /// synchronous data-parallel SGD must keep these identical across ranks.
    pub epoch_param_digests: Vec<Vec<u64>>,
    /// Every rank's final flattened parameters (index = rank). Rank 0 is
    /// duplicated in [`DistRunResult::final_params`].
    pub final_params_by_rank: Vec<Vec<f32>>,
}

/// FNV-1a over the bit patterns of a parameter vector: a cheap, order-
/// sensitive fingerprint used to assert replicas stay bit-identical (and,
/// in the chaos suite, that crash-resume reproduces a run exactly).
pub fn param_digest(params: &[f32]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &p in params {
        for b in p.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// Seed of logical rank `rank`'s batch stream: distinct per rank so the
/// ranks see distinct data shards, stable across ring re-forms.
pub(crate) fn rank_seed(seed: u64, rank: usize) -> u64 {
    seed.wrapping_add(rank as u64 * 7919)
}

/// The model's batch-norm running statistics as a byte stream.
pub(crate) fn bn_stats_bytes(model: &MeshfreeFlowNet) -> Vec<u8> {
    let mut bytes = Vec::new();
    model.write_bn_stats(&mut bytes).expect("writes into a Vec cannot fail");
    bytes
}

/// Why a rank did not finish its epoch.
#[derive(Debug)]
pub(crate) enum RankFailure {
    /// The fault plan killed this worker (it dropped its ring endpoints).
    Killed { rank: usize, step: u64 },
    /// A collective failed — typically collateral from a peer's death.
    Ring { rank: usize, err: RingError },
}

/// A rank's gradient exchange: flatten → ring all-reduce (mean) →
/// unflatten, under an optional per-collective time budget and a
/// [`FaultPlan`] addressed to the rank's logical identity.
pub(crate) struct RingReduce<'a> {
    handle: RingHandle,
    timeout: Option<Duration>,
    plan: &'a FaultPlan,
    /// Logical rank: stable across ring re-forms, unlike `handle.rank()`.
    pub rank: usize,
    /// A fired [`FaultKind::Delay`], slept right before the step's
    /// all-reduce.
    stall: Option<Duration>,
}

impl GradReduce for RingReduce<'_> {
    type Error = RankFailure;

    fn before_step(&mut self, step: u64) -> Result<(), RankFailure> {
        match self.plan.fire(self.rank, step) {
            // The error unwinds the rank and drops `handle` — peers see a
            // disconnect, exactly like a crashed process's sockets.
            Some(FaultKind::Kill) => return Err(RankFailure::Killed { rank: self.rank, step }),
            Some(FaultKind::Delay(d)) => self.stall = Some(d),
            None => {}
        }
        Ok(())
    }

    fn reduce(&mut self, store: &ParamStore, grads: &mut Vec<Tensor>) -> Result<(), RankFailure> {
        let mut flat = flatten_grads(grads);
        if let Some(d) = self.stall.take() {
            std::thread::sleep(d);
        }
        self.handle
            .all_reduce_mean(&mut flat, self.timeout)
            .map_err(|err| RankFailure::Ring { rank: self.rank, err })?;
        *grads = unflatten_grads(store, &flat);
        Ok(())
    }
}

/// Runs `rank_body` once per logical rank in `ranks`, each on its own thread
/// with its endpoint of one ring over them; results in `ranks` order.
pub(crate) fn on_ring<T: Send>(
    ranks: &[usize],
    timeout: Option<Duration>,
    plan: &FaultPlan,
    rank_body: impl Fn(RingReduce<'_>) -> T + Sync,
) -> Vec<T> {
    let rank_body = &rank_body;
    std::thread::scope(|scope| {
        let joins: Vec<_> = ring(ranks.len())
            .into_iter()
            .zip(ranks)
            .map(|(handle, &rank)| {
                let reduce = RingReduce { handle, timeout, plan, rank, stall: None };
                scope.spawn(move || rank_body(reduce))
            })
            .collect();
        joins.into_iter().map(|j| j.join().expect("rank thread panicked")).collect()
    })
}

/// Runs synchronous data-parallel training of MeshfreeFlowNet.
///
/// `batches_per_epoch` mini-batches are processed by *each* worker per
/// epoch (weak scaling, like the paper: the global batch grows with the
/// worker count).
pub fn train_data_parallel(
    corpus: &Corpus,
    model_cfg: &MfnConfig,
    train_cfg: &TrainConfig,
    workers: usize,
) -> DistRunResult {
    train_data_parallel_recorded(corpus, model_cfg, train_cfg, workers, Recorder::null())
}

/// What one rank reports back: its trainer after the last epoch and, per
/// epoch, `(mean loss, seconds since the run started, parameter digest)`.
type RankRun = (Trainer, Vec<(f32, f64, u64)>);

/// [`train_data_parallel`] with telemetry: every rank emits what a
/// single-process [`Trainer`] emits — one `StepMetrics` per gradient step
/// (tagged with its rank, including the seconds it spent in the ring
/// all-reduce) and the per-epoch gauges — through a clone of `recorder`,
/// and the run-level aggregates land in the returned [`DistRunResult`].
///
/// # Panics
/// Panics if a worker dies: a run-to-completion ring has no one to re-form
/// it (that is [`crate::train_elastic`]).
pub fn train_data_parallel_recorded(
    corpus: &Corpus,
    model_cfg: &MfnConfig,
    train_cfg: &TrainConfig,
    workers: usize,
    recorder: Recorder,
) -> DistRunResult {
    let start = Instant::now();
    let runs = run_ranks(corpus, model_cfg, train_cfg, workers, &recorder);
    let elapsed = start.elapsed().as_secs_f64();
    let epochs = train_cfg.epochs;
    let total_samples =
        (workers * train_cfg.batches_per_epoch * train_cfg.batch_size * epochs) as f64;
    let throughput = total_samples / elapsed;
    recorder.gauge("throughput_samples_per_sec", throughput);
    let final_params_by_rank: Vec<Vec<f32>> =
        runs.iter().map(|(t, _)| t.model.store.flatten()).collect();
    let rank0 = &runs[0].0.model;
    DistRunResult {
        workers,
        epoch_losses: (0..epochs)
            .map(|e| runs.iter().map(|(_, ep)| ep[e].0).sum::<f32>() / workers as f32)
            .collect(),
        epoch_wall: (0..epochs)
            .map(|e| runs.iter().map(|(_, ep)| ep[e].1).fold(0.0, f64::max))
            .collect(),
        throughput,
        final_params: final_params_by_rank[0].clone(),
        final_bn_stats: bn_stats_bytes(rank0),
        grad_elems: rank0.store.total_numel(),
        allreduce_wait: runs.iter().map(|(t, _)| t.reduce_wait_s()).collect(),
        epoch_param_digests: runs
            .iter()
            .map(|(_, ep)| ep.iter().map(|&(_, _, digest)| digest).collect())
            .collect(),
        final_params_by_rank,
    }
}

/// Runs `workers` fresh ranks to completion — every epoch through a ring
/// without deadlines — and returns them in rank order.
fn run_ranks(
    corpus: &Corpus,
    model_cfg: &MfnConfig,
    train_cfg: &TrainConfig,
    workers: usize,
    recorder: &Recorder,
) -> Vec<RankRun> {
    assert!(workers >= 1);
    let start = Instant::now();
    let ranks: Vec<usize> = (0..workers).collect();
    on_ring(&ranks, None, &FaultPlan::none(), |mut reduce| {
        // Identical model seed across replicas → identical initialization;
        // no parameter broadcast needed (verified by
        // `replicas_stay_identical`). Only the batch stream differs.
        let cfg = TrainConfig { seed: rank_seed(train_cfg.seed, reduce.rank), ..*train_cfg };
        let mut trainer = Trainer::new(MeshfreeFlowNet::new(model_cfg.clone()), cfg)
            .with_rank(reduce.rank)
            .with_recorder(recorder.clone());
        let epochs = (0..cfg.epochs)
            .map(|_| {
                let rec = trainer
                    .run_epoch(corpus, &mut reduce)
                    .unwrap_or_else(|e| panic!("ring peer hung up: {e:?}"));
                let digest = param_digest(&trainer.model.store.flatten());
                (rec.loss, start.elapsed().as_secs_f64(), digest)
            })
            .collect();
        (trainer, epochs)
    })
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

    #[test]
    fn replicas_stay_identical() {
        let (corpus, cfg, tc) = tiny_setup();
        // Run twice with 2 workers and verify worker-0 params are
        // deterministic, plus single-run internal consistency is enforced by
        // identical updates (checked via cross-run determinism here).
        let a = train_data_parallel(&corpus, &cfg, &tc, 2);
        let b = train_data_parallel(&corpus, &cfg, &tc, 2);
        assert_eq!(a.final_params.len(), b.final_params.len());
        for (x, y) in a.final_params.iter().zip(&b.final_params) {
            assert_eq!(x, y, "data-parallel training is not deterministic");
        }
    }

    #[test]
    fn replicas_identical_within_run_after_every_epoch() {
        let (corpus, cfg, tc) = tiny_setup();
        let workers = 3;
        let r = train_data_parallel(&corpus, &cfg, &tc, workers);
        // After every epoch, every rank must hold bit-identical parameters:
        // same init, same averaged gradients, same Adam update.
        assert_eq!(r.epoch_param_digests.len(), workers);
        for rank in 1..workers {
            assert_eq!(
                r.epoch_param_digests[rank], r.epoch_param_digests[0],
                "rank {rank} params diverged from rank 0 mid-run"
            );
        }
        // And the final parameter vectors themselves are bit-identical.
        assert_eq!(r.final_params_by_rank.len(), workers);
        for rank in 1..workers {
            assert_eq!(
                r.final_params_by_rank[rank].iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                r.final_params_by_rank[0].iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                "rank {rank} final params differ from rank 0"
            );
        }
        assert_eq!(r.final_params, r.final_params_by_rank[0]);
    }

    #[test]
    fn per_rank_step_metrics_report_allreduce_wait() {
        let (corpus, cfg, tc) = tiny_setup();
        let workers = 2;
        let (recorder, sink) = Recorder::memory(4096);
        let r = train_data_parallel_recorded(&corpus, &cfg, &tc, workers, recorder);
        let steps = sink.train_steps();
        // Every rank recorded every one of its gradient steps.
        let per_rank = tc.epochs * tc.batches_per_epoch;
        assert_eq!(steps.len(), workers * per_rank);
        for rank in 0..workers {
            let mine: Vec<_> = steps.iter().filter(|m| m.rank == rank).collect();
            assert_eq!(mine.len(), per_rank);
            // The ring synchronization point was actually timed.
            let wait: f64 = mine.iter().map(|m| m.allreduce_wait_s).sum();
            assert!(wait >= 0.0);
            assert!(
                (wait - r.allreduce_wait[rank]).abs() <= 1e-9,
                "aggregated wait disagrees with step metrics for rank {rank}"
            );
            assert!(mine.iter().all(|m| m.grad_norm_pre.is_finite()));
            assert!(mine.iter().all(|m| m.samples == tc.batch_size));
        }
        // The run-level throughput gauge was emitted and matches the result.
        let gauge = sink.gauge("throughput_samples_per_sec").expect("throughput gauge");
        assert!((gauge - r.throughput).abs() < 1e-9);
    }

    /// BN running statistics live in the layers, not the parameter store:
    /// a model rebuilt from the result needs `final_bn_stats` to be rank
    /// 0's replica (at the parent it silently kept the fresh defaults).
    #[test]
    fn result_rebuilds_rank0_replica_including_bn_statistics() {
        let (corpus, cfg, tc) = tiny_setup();
        let r = train_data_parallel(&corpus, &cfg, &tc, 2);
        // The replica itself, from an identical (deterministic) second run.
        let ranks = run_ranks(&corpus, &cfg, &tc, 2, &Recorder::null());
        let replica = &ranks[0].0.model;
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&replica.store.flatten()), bits(&r.final_params));

        let mut fresh_bn = MeshfreeFlowNet::new(cfg.clone());
        fresh_bn.store.unflatten_into(&r.final_params);
        let mut rebuilt = MeshfreeFlowNet::new(cfg.clone());
        rebuilt.store.unflatten_into(&r.final_params);
        rebuilt.read_bn_stats(&mut r.final_bn_stats.as_slice()).expect("same architecture");

        let input = mfn_core::extract_patch(&corpus.pairs[0].1, [0, 0, 0], cfg.patch, corpus.stats);
        let want = bits(replica.encode(&input).data());
        assert_eq!(bits(rebuilt.encode(&input).data()), want, "rebuilt model is not the replica");
        assert_ne!(bits(fresh_bn.encode(&input).data()), want, "BN statistics had no effect");
    }

    /// `lr_decay` reaches every rank (parent: both drivers ignored it).
    #[test]
    fn lr_decay_anneals_every_rank() {
        let (corpus, cfg, tc) = tiny_setup();
        let tc = TrainConfig { lr_decay: 0.5, ..tc };
        let (recorder, sink) = Recorder::memory(4096);
        train_data_parallel_recorded(&corpus, &cfg, &tc, 2, recorder);
        let steps = sink.train_steps();
        for rank in 0..2 {
            let last = steps.iter().rfind(|m| m.rank == rank).expect("rank stepped");
            assert_eq!(last.epoch, 2);
            assert_eq!(last.lr, tc.lr * 0.25, "rank {rank}");
        }
    }

    #[test]
    fn multi_worker_loss_decreases() {
        let (corpus, cfg, mut tc) = tiny_setup();
        tc.epochs = 8;
        tc.batches_per_epoch = 6;
        tc.lr = 1e-2;
        let r = train_data_parallel(&corpus, &cfg, &tc, 2);
        let first = r.epoch_losses[0];
        let last = *r.epoch_losses.last().expect("losses");
        assert!(last < first, "loss did not decrease: {first} -> {last}");
        assert!(r.throughput > 0.0);
        assert!(r.grad_elems > 0);
    }

    #[test]
    fn single_worker_matches_structure() {
        let (corpus, cfg, tc) = tiny_setup();
        let r = train_data_parallel(&corpus, &cfg, &tc, 1);
        assert_eq!(r.workers, 1);
        assert_eq!(r.epoch_losses.len(), tc.epochs);
        assert_eq!(r.epoch_wall.len(), tc.epochs);
        assert!(r.epoch_wall.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn worker_counts_shard_data_differently_but_converge_together() {
        let (corpus, cfg, tc) = tiny_setup();
        let r1 = train_data_parallel(&corpus, &cfg, &tc, 1);
        let r2 = train_data_parallel(&corpus, &cfg, &tc, 2);
        // Different effective batch orders → different params, same rough
        // loss scale.
        assert_ne!(r1.final_params, r2.final_params);
        let l1 = *r1.epoch_losses.last().expect("losses");
        let l2 = *r2.epoch_losses.last().expect("losses");
        assert!((l1 - l2).abs() < 0.5 * (l1 + l2), "losses diverged: {l1} vs {l2}");
    }
}
