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
//! exchange. This module holds that exchange and the thread-per-rank ring
//! it runs on; [`crate::supervisor`] is the one driver that runs the ranks,
//! a round at a time, and [`train_data_parallel`] is that driver with its
//! default policy and no injected faults.

use crate::fault::{FaultKind, FaultPlan};
use crate::ring::{ring, RingError, RingHandle};
use crate::supervisor::{train_elastic, DistRunResult, SupervisorConfig};
use mfn_autodiff::{flatten_grads, unflatten_grads, ParamStore};
use mfn_core::{Corpus, GradReduce, MfnConfig, TrainConfig};
use mfn_telemetry::Recorder;
use mfn_tensor::Tensor;
use std::time::Duration;

/// FNV-1a over the bit patterns of a parameter vector: a cheap, order-
/// sensitive fingerprint used to assert replicas stay bit-identical (and,
/// in the chaos suite, that crash-resume reproduces a run exactly).
pub fn param_digest(params: &[f32]) -> u64 {
    mfn_tensor::le::fnv1a(params.iter().flat_map(|p| p.to_le_bytes()))
}

/// Seed of logical rank `rank`'s batch stream: distinct per rank so the
/// ranks see distinct data shards, stable across ring re-forms.
pub(crate) fn rank_seed(seed: u64, rank: usize) -> u64 {
    seed.wrapping_add(rank as u64 * 7919)
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
/// unflatten, under a per-collective time budget and a
/// [`FaultPlan`] addressed to the rank's logical identity.
pub(crate) struct RingReduce<'a> {
    handle: RingHandle,
    timeout: Duration,
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
            .all_reduce_mean(&mut flat, Some(self.timeout))
            .map_err(|err| RankFailure::Ring { rank: self.rank, err })?;
        *grads = unflatten_grads(store, &flat);
        Ok(())
    }
}

/// Runs `rank_body` once per logical rank in `ranks`, each on its own thread
/// with its endpoint of one ring over them; results in `ranks` order.
pub(crate) fn on_ring<T: Send>(
    ranks: &[usize],
    timeout: Duration,
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

/// Runs synchronous data-parallel training of MeshfreeFlowNet on
/// `workers` ranks: [`train_elastic`] from a fresh model, with the default
/// [`SupervisorConfig`] (no checkpoint path) and no injected faults.
pub fn train_data_parallel(
    corpus: &Corpus,
    model_cfg: &MfnConfig,
    train_cfg: &TrainConfig,
    workers: usize,
) -> DistRunResult {
    train_data_parallel_recorded(corpus, model_cfg, train_cfg, workers, Recorder::null())
}

/// [`train_data_parallel`] with telemetry: what [`train_elastic`] emits
/// through `recorder`, one `StepMetrics` per gradient step of every rank
/// included.
pub fn train_data_parallel_recorded(
    corpus: &Corpus,
    model_cfg: &MfnConfig,
    train_cfg: &TrainConfig,
    workers: usize,
    recorder: Recorder,
) -> DistRunResult {
    let sup = SupervisorConfig { workers, ..Default::default() };
    train_elastic(corpus, model_cfg, train_cfg, &sup, None, &FaultPlan::none(), recorder)
        .expect("a fresh run without a checkpoint path reads and writes no state")
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mfn_core::{decode_train_state, FrozenModel, MeshfreeFlowNet};
    use mfn_data::{downsample, Dataset, PatchSpec};
    use mfn_solver::{simulate, RbcConfig};

    pub(crate) fn tiny_setup() -> (Corpus, MfnConfig, TrainConfig) {
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
        // Every epoch committed whole on the full world, and the committed
        // master is what every rank ended the run with.
        assert!(r.completed);
        assert_eq!((r.failures, r.ring_reforms), (0, 0));
        assert_eq!(r.epoch_worlds, vec![workers; tc.epochs]);
        assert_eq!(r.epoch_param_digests[0].len(), tc.epochs);
        assert_eq!(r.epoch_param_digests[0].last(), Some(&param_digest(&r.final_params)));
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
    /// the model decoded from `final_state` is the master, statistics
    /// included, and the state resumes the run where it ended.
    #[test]
    fn final_state_decodes_to_the_master_including_bn_statistics() {
        let (corpus, cfg, tc) = tiny_setup();
        let r = train_data_parallel(&corpus, &cfg, &tc, 2);
        let mut decoded = MeshfreeFlowNet::new(cfg.clone());
        let (opt, meta) =
            decode_train_state(&mut decoded, &mut r.final_state.as_slice()).expect("own state");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&decoded.store.flatten()), bits(&r.final_params));
        assert_eq!(opt.steps(), (tc.epochs * tc.batches_per_epoch) as u64);
        assert_eq!((meta.epoch, meta.batch_cursor, meta.rngs.len()), (tc.epochs, 0, 2));

        let mut fresh_bn = MeshfreeFlowNet::new(cfg.clone());
        fresh_bn.store.unflatten_into(&r.final_params);
        let input = mfn_core::extract_patch(&corpus.pairs[0].1, [0, 0, 0], cfg.patch, corpus.stats);
        let encode = |m: &MeshfreeFlowNet| FrozenModel::snapshot(m).encode(&input);
        assert_ne!(
            bits(encode(&fresh_bn).data()),
            bits(encode(&decoded).data()),
            "BN statistics had no effect"
        );
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
