//! Synchronous data-parallel training (paper Sec. 3.4 / 5.4).
//!
//! Mirrors PyTorch `DistributedDataParallel`: the model is replicated on
//! every worker ("GPUs" are OS threads on this host — see DESIGN.md for the
//! substitution), each worker computes gradients on its own mini-batch,
//! gradients are averaged with a ring all-reduce, and every replica applies
//! the identical Adam update, keeping parameters bit-identical across
//! workers without ever broadcasting them.

use crate::ring::{ring, RingHandle};
use mfn_autodiff::flatten_grads;
use mfn_autodiff::{clip_grad_norm, unflatten_grads, Adam, AdamConfig, Graph};
use mfn_core::{Corpus, MeshfreeFlowNet, MfnConfig, TrainConfig};
use mfn_data::{make_batch, PatchSampler};
use mfn_telemetry::{Recorder, StepMetrics, Stopwatch};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

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

/// One epoch's per-worker partial record.
struct WorkerEpoch {
    loss_sum: f32,
    batches: usize,
}

/// Everything one worker thread reports back.
struct WorkerResult {
    epochs: Vec<WorkerEpoch>,
    walls: Vec<f64>,
    final_params: Vec<f32>,
    grad_elems: usize,
    allreduce_wait: f64,
    epoch_digests: Vec<u64>,
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

/// Runs synchronous data-parallel training of MeshfreeFlowNet.
///
/// `per_worker_batches` mini-batches are processed by *each* worker per
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

/// [`train_data_parallel`] with telemetry: every rank emits one
/// [`StepMetrics`] per gradient step (tagged with its rank, including the
/// seconds it spent blocked in the ring all-reduce) through a clone of
/// `recorder`, and the run-level aggregates land in the returned
/// [`DistRunResult`].
pub fn train_data_parallel_recorded(
    corpus: &Corpus,
    model_cfg: &MfnConfig,
    train_cfg: &TrainConfig,
    workers: usize,
    recorder: Recorder,
) -> DistRunResult {
    assert!(workers >= 1);
    let handles = ring(workers);
    let start = Instant::now();
    let epochs = train_cfg.epochs;
    let results: Vec<WorkerResult> = std::thread::scope(|scope| {
        let joins: Vec<_> = handles
            .into_iter()
            .map(|h| {
                let model_cfg = model_cfg.clone();
                let train_cfg = *train_cfg;
                let recorder = recorder.clone();
                scope.spawn(move || worker_loop(corpus, model_cfg, train_cfg, h, start, recorder))
            })
            .collect();
        joins.into_iter().map(|j| j.join().expect("worker panicked")).collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut epoch_losses = vec![0.0f32; epochs];
    let mut epoch_wall = vec![0.0f64; epochs];
    for r in &results {
        for (e, we) in r.epochs.iter().enumerate() {
            epoch_losses[e] += we.loss_sum / we.batches.max(1) as f32;
        }
        for (e, &w) in r.walls.iter().enumerate() {
            epoch_wall[e] = epoch_wall[e].max(w);
        }
    }
    for l in epoch_losses.iter_mut() {
        *l /= workers as f32;
    }
    let total_samples =
        (workers * train_cfg.batches_per_epoch * train_cfg.batch_size * epochs) as f64;
    let throughput = total_samples / elapsed;
    recorder.gauge("throughput_samples_per_sec", throughput);
    DistRunResult {
        workers,
        epoch_losses,
        epoch_wall,
        throughput,
        final_params: results[0].final_params.clone(),
        grad_elems: results[0].grad_elems,
        allreduce_wait: results.iter().map(|r| r.allreduce_wait).collect(),
        epoch_param_digests: results.iter().map(|r| r.epoch_digests.clone()).collect(),
        final_params_by_rank: results.into_iter().map(|r| r.final_params).collect(),
    }
}

fn worker_loop(
    corpus: &Corpus,
    model_cfg: MfnConfig,
    train_cfg: TrainConfig,
    handle: RingHandle,
    start: Instant,
    recorder: Recorder,
) -> WorkerResult {
    let rank = handle.rank();
    // Identical seed across replicas → identical initialization; no
    // parameter broadcast needed (verified by `replicas_stay_identical`).
    let mut model = MeshfreeFlowNet::new(model_cfg);
    let mut opt = Adam::new(&model.store, AdamConfig { lr: train_cfg.lr, ..Default::default() });
    // Distinct data shards: seed differs per worker.
    let mut rng = ChaCha8Rng::seed_from_u64(train_cfg.seed.wrapping_add(rank as u64 * 7919));
    let samplers: Vec<PatchSampler<'_>> =
        corpus.pairs.iter().map(|(hr, lr)| PatchSampler::new(hr, lr, model.cfg.patch)).collect();
    let mut epochs_out = Vec::with_capacity(train_cfg.epochs);
    let mut walls = Vec::with_capacity(train_cfg.epochs);
    let mut epoch_digests = Vec::with_capacity(train_cfg.epochs);
    let mut grad_elems = 0usize;
    let mut allreduce_wait = 0.0f64;
    let mut step_no = 0u64;
    for epoch in 0..train_cfg.epochs {
        let mut we = WorkerEpoch { loss_sum: 0.0, batches: 0 };
        for _ in 0..train_cfg.batches_per_epoch {
            let mut sw = Stopwatch::start();
            let di = rng.gen_range(0..samplers.len());
            let batch = make_batch(&samplers[di], train_cfg.batch_size, &mut rng);
            let data_s = sw.lap();
            let mut g = Graph::new();
            let (loss, comps) =
                model.loss_on_batch(&mut g, &batch, corpus.params(di), corpus.stats, true);
            let forward_s = sw.lap();
            g.backward(loss);
            let grads = g.param_grads(&model.store);
            let mut flat = flatten_grads(&grads);
            grad_elems = flat.len();
            let backward_s = sw.lap();
            // Average gradients across the ring (the synchronization point).
            handle.all_reduce_mean(&mut flat);
            let allreduce_wait_s = sw.lap();
            allreduce_wait += allreduce_wait_s;
            let mut grads = unflatten_grads(&model.store, &flat);
            let grad_norm_pre = if train_cfg.grad_clip > 0.0 {
                clip_grad_norm(&mut grads, train_cfg.grad_clip)
            } else if recorder.is_enabled() {
                mfn_autodiff::grad_l2_norm(&grads)
            } else {
                0.0
            };
            opt.step(&mut model.store, &grads);
            let optimizer_s = sw.lap();
            we.loss_sum += comps.total;
            we.batches += 1;
            step_no += 1;
            if recorder.is_enabled() {
                let clip = train_cfg.grad_clip;
                recorder.train_step(StepMetrics {
                    step: step_no,
                    epoch,
                    rank,
                    loss_total: comps.total,
                    loss_prediction: comps.prediction,
                    loss_equation: comps.equation,
                    grad_norm_pre,
                    grad_norm_post: if clip > 0.0 {
                        grad_norm_pre.min(clip)
                    } else {
                        grad_norm_pre
                    },
                    lr: opt.config().lr,
                    samples: train_cfg.batch_size,
                    data_s,
                    forward_s,
                    backward_s,
                    allreduce_wait_s,
                    optimizer_s,
                });
            }
        }
        epoch_digests.push(param_digest(&model.store.flatten()));
        epochs_out.push(we);
        walls.push(start.elapsed().as_secs_f64());
    }
    WorkerResult {
        epochs: epochs_out,
        walls,
        final_params: model.store.flatten(),
        grad_elems,
        allreduce_wait,
        epoch_digests,
    }
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
