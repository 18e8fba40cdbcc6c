//! The training step and epoch loop, defined once: [`Trainer`] is a rank,
//! and it reads and writes no file. It trains any [`Trainable`] model —
//! MeshfreeFlowNet, and Table 2's Baseline (II) under the same draw, batch
//! size, learning-rate decay and telemetry. The driver in `mfn-dist` runs one
//! MeshfreeFlowNet `Trainer` per worker thread, on one worker too, passes a
//! ring all-reduce as the [`GradReduce`], rebuilds the ranks from a snapshot
//! between rounds ([`Trainer::from_state`]) and is the one writer of a train
//! state. [`Trainer::train`] with [`NoReduce`] is the serial reference it is
//! checked against.

use crate::checkpoint::{decode_train_state, CheckpointError, TrainStateMeta};
use crate::config::TrainConfig;
use crate::losses::ChannelStats;
use crate::model::{MeshfreeFlowNet, StepLosses};
use crate::rng::{RngState, SampleRng};
use mfn_autodiff::{
    clip_grad_norm, grad_l2_norm, Adam, AdamConfig, Graph, NodeTimes, ParamStore, Var,
};
use mfn_data::Dataset;
use mfn_physics::RbcParams;
use mfn_telemetry::{Recorder, StepMetrics, Stopwatch};
use mfn_tensor::{cores, workspace, Tensor};
use rand::Rng;
use std::time::Instant;

/// The cores each rank of a `world`-rank run owns, and at least one: the
/// threads its tape runs on unless fixed ([`Trainer::tape_workers`]).
pub(crate) fn rank_cores(world: usize) -> usize {
    (cores() / world).max(1)
}

/// One epoch's summary, or of the part of it one [`Trainer::run_epoch`]
/// call ran.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochRecord {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean combined loss.
    pub loss: f32,
    /// Mean prediction loss.
    pub prediction: f32,
    /// Mean equation loss.
    pub equation: f32,
    /// Wall-clock seconds it took.
    pub seconds: f64,
}

/// A training corpus: HR/LR dataset pairs (one pair per initial/boundary
/// condition — Tables 3–4 train on up to 10).
pub struct Corpus {
    /// The `(HR, LR)` dataset pairs.
    pub pairs: Vec<(Dataset, Dataset)>,
    /// The one normalization, pooled over the HR sets of all pairs: training
    /// standardizes every pair's patches and targets with it, and the
    /// equation loss, evaluation and serving standardize inputs and restore
    /// predictions with it.
    pub stats: ChannelStats,
}

impl Corpus {
    /// Builds a corpus and pools its channel statistics, each pair weighted
    /// equally: the mean of the pairs' means `m`, and as variance the mean
    /// over pairs of `std² + (mean − m)²`, floored at `1e-16` (the
    /// pipeline's one guard against a constant channel). A one-pair corpus
    /// thus has its HR set's statistics bit for bit.
    pub fn new(pairs: Vec<(Dataset, Dataset)>) -> Self {
        assert!(!pairs.is_empty(), "corpus needs at least one dataset pair");
        let sets: Vec<_> = pairs.iter().map(|(hr, _)| hr.channel_stats()).collect();
        let n = sets.len() as f64;
        let mut stats = ChannelStats { mean: [0.0; 4], std: [0.0; 4] };
        for c in 0..4 {
            let m = sets.iter().map(|(mean, _)| mean[c] as f64).sum::<f64>() / n;
            let var = sets
                .iter()
                .map(|(mean, std)| (std[c] as f64).powi(2) + (mean[c] as f64 - m).powi(2))
                .sum::<f64>()
                / n;
            stats.mean[c] = m as f32;
            stats.std[c] = var.max(1e-16).sqrt() as f32;
        }
        Corpus { pairs, stats }
    }

    /// PDE coefficients of pair `i` (boundary conditions can differ per
    /// pair in the Table 4 sweep).
    pub fn params(&self, i: usize) -> RbcParams {
        let meta = &self.pairs[i].0.meta;
        RbcParams::from_ra_pr(meta.ra, meta.pr)
    }
}

/// Emits the workspace-pool hit/miss counters as gauges (cumulative since
/// the last [`workspace::reset_stats`]).
pub fn log_pool_stats(recorder: &Recorder) {
    let s = workspace::stats();
    recorder.gauge("pool/hits", s.hits as f64);
    recorder.gauge("pool/misses", s.misses as f64);
    recorder.gauge("pool/cached_bytes", s.cached_bytes as f64);
}

/// The gradient exchange that makes a [`Trainer`] one rank of a
/// data-parallel run. `mfn-dist` implements it over the ring all-reduce; a
/// lone process uses [`NoReduce`].
pub trait GradReduce {
    /// Why the exchange (or the rank) gave up.
    type Error;

    /// Called by [`Trainer::run_epoch`] before global step `step` (1-based)
    /// draws its batch; an error abandons the call there. Fault injection
    /// kills a rank here.
    fn before_step(&mut self, _step: u64) -> Result<(), Self::Error> {
        Ok(())
    }

    /// Replaces this rank's parameter gradients (aligned with `store`) by
    /// their reduction across ranks. Called between `param_grads` and
    /// clipping; the time spent here is the step's `allreduce_wait_s`.
    fn reduce(&mut self, store: &ParamStore, grads: &mut Vec<Tensor>) -> Result<(), Self::Error>;
}

/// The single-process exchange: gradients stay as they are.
pub struct NoReduce;

impl GradReduce for NoReduce {
    type Error = std::convert::Infallible;

    fn reduce(&mut self, _: &ParamStore, _: &mut Vec<Tensor>) -> Result<(), Self::Error> {
        Ok(())
    }
}

/// What [`Trainer`] needs of the model it trains: its parameters, one batch
/// drawn from a corpus pair, and the training loss on that batch.
pub trait Trainable {
    /// The data of one step.
    type Batch;

    /// The trained parameters.
    fn store(&mut self) -> &mut ParamStore;

    /// Draws a batch of `n` patches from pair `pair` of `corpus`, taking
    /// every random number from `rng`.
    fn draw(&self, corpus: &Corpus, pair: usize, n: usize, rng: &mut SampleRng) -> Self::Batch;

    /// The number of patches in `batch`.
    fn samples(batch: &Self::Batch) -> usize;

    /// Records the training loss of `batch` on `g`. `params` are the PDE
    /// coefficients of the batch's pair and `stats` the corpus's
    /// normalization.
    fn loss(
        &mut self,
        g: &mut Graph,
        batch: &Self::Batch,
        params: RbcParams,
        stats: ChannelStats,
    ) -> (Var, StepLosses);
}

/// Adam-based trainer of a [`Trainable`] model: one rank of a training run
/// (the only rank, unless `mfn-dist` runs several MeshfreeFlowNet ranks with
/// a ring [`GradReduce`]).
pub struct Trainer<M = MeshfreeFlowNet> {
    /// The model being trained.
    pub model: M,
    /// Optimizer state.
    pub opt: Adam,
    /// Loop hyperparameters.
    pub cfg: TrainConfig,
    /// Telemetry destination (disabled by default).
    recorder: Recorder,
    /// Rank tag attached to emitted step metrics, and this trainer's index
    /// into a multi-rank checkpoint's sampler streams.
    rank: usize,
    /// Monotonic gradient-step counter across the trainer's lifetime.
    global_step: u64,
    /// Epoch [`Trainer::run_epoch`] executes next (or is inside of).
    epoch: usize,
    /// Next batch index within `epoch` — nonzero only inside an epoch: after
    /// a `run_epoch` that stopped short of its end, or built from a
    /// mid-epoch state.
    batch_cursor: usize,
    /// Checkpointable batch-sampling stream (persists across `train` calls
    /// so a resumed trainer continues the exact sample sequence).
    rng: SampleRng,
    /// Batch-assembly seconds to attribute to the next `step` call.
    pending_data_s: f64,
    /// Seconds spent in the gradient exchange over the trainer's lifetime.
    reduce_wait_s: f64,
    /// Ranks of the run this trainer is one of, which share the host's
    /// cores: one for [`Trainer::new`].
    world: usize,
    /// Threads of every step's tape when fixed ([`Trainer::set_tape_workers`]);
    /// `None` derives them per step ([`Trainer::tape_workers`]).
    tape_workers: Option<usize>,
    /// The last step's stage times, when asked for
    /// ([`Trainer::time_stages`]).
    stages: Option<StepStages>,
}

/// Where one training step's wall time went ([`Trainer::time_stages`]): its
/// tape's nodes by kind, forward and backward, and the optimizer (gradient
/// clipping and Adam).
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StepStages {
    /// The tape's node times.
    pub nodes: NodeTimes,
    /// The optimizer's nanoseconds.
    pub optimizer_ns: f64,
}

impl<M: Trainable> Trainer<M> {
    /// Wraps a model with an Adam optimizer configured from `cfg`; batches
    /// are drawn from the stream seeded with `cfg.seed`.
    pub fn new(mut model: M, cfg: TrainConfig) -> Self {
        let opt = Adam::new(model.store(), AdamConfig { lr: cfg.lr, ..Default::default() });
        Trainer::assemble(model, opt, cfg, SampleRng::seed_from_u64(cfg.seed))
    }

    /// A trainer at the start of a run, with `opt` and `rng` as given.
    fn assemble(model: M, opt: Adam, cfg: TrainConfig, rng: SampleRng) -> Self {
        Trainer {
            model,
            opt,
            cfg,
            recorder: Recorder::null(),
            rank: 0,
            global_step: 0,
            epoch: 0,
            batch_cursor: 0,
            rng,
            pending_data_s: 0.0,
            reduce_wait_s: 0.0,
            world: 1,
            tape_workers: None,
            stages: None,
        }
    }

    /// Routes per-step metrics to `recorder` (builder form).
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Routes per-step metrics to `recorder`.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// Threads the next step's tape runs its layer nodes on: the cores this
    /// rank owns, `available_parallelism() / world` and at least one, asked
    /// per step (an affinity mask set later counts) — all of the host for a
    /// one-rank run, one core a rank when the ranks fill the host.
    pub fn tape_workers(&self) -> usize {
        self.tape_workers.unwrap_or_else(|| rank_cores(self.world))
    }

    /// Fixes the tape's thread count (`None`: back to the per-rank rule).
    /// For tests and the bench, which time one worker against the rule: the
    /// count changes the speed of a step, never its bits.
    #[doc(hidden)]
    pub fn set_tape_workers(&mut self, workers: Option<usize>) {
        assert!(workers != Some(0), "a tape runs on at least one thread");
        self.tape_workers = workers;
    }

    /// Times every following step by stage (`true`) or stops (`false`):
    /// the tape's nodes by kind (`Graph::with_node_times`) and the
    /// optimizer, read back through [`Trainer::stages`]. For the bench's
    /// `train_step.stages` rows; an untimed step reads no node clock.
    #[doc(hidden)]
    pub fn time_stages(&mut self, on: bool) {
        self.stages = on.then(StepStages::default);
    }

    /// The stage times of the last step taken since [`Trainer::time_stages`]
    /// turned timing on.
    #[doc(hidden)]
    pub fn stages(&self) -> Option<&StepStages> {
        self.stages.as_ref()
    }

    /// Gradient steps taken so far.
    pub fn steps_taken(&self) -> u64 {
        self.global_step
    }

    /// Seconds spent in the gradient exchange so far — the sum of every
    /// emitted step's `allreduce_wait_s`.
    pub fn reduce_wait_s(&self) -> f64 {
        self.reduce_wait_s
    }

    /// This rank's sampler stream position — the per-rank half of a train
    /// state.
    pub fn sampler_state(&self) -> RngState {
        self.rng.state()
    }

    /// One gradient step on one batch; returns the loss components.
    ///
    /// Emits one [`StepMetrics`] event (losses, gradient norms, learning
    /// rate, per-phase timings) when a recorder is attached.
    pub fn step(&mut self, batch: &M::Batch, params: RbcParams, stats: ChannelStats) -> StepLosses {
        let Ok(comps) = self.step_reduced(batch, params, stats, &mut NoReduce);
        comps
    }

    /// [`Trainer::step`] with the gradients passed through `reduce` before
    /// clipping. This body is the one place a training step is defined:
    /// tape, backward, exchange, clip, Adam, metrics.
    pub fn step_reduced<R: GradReduce>(
        &mut self,
        batch: &M::Batch,
        params: RbcParams,
        stats: ChannelStats,
        reduce: &mut R,
    ) -> Result<StepLosses, R::Error> {
        let mut sw = Stopwatch::start();
        let data_s = std::mem::take(&mut self.pending_data_s);
        let mut g = Graph::new().with_workers(self.tape_workers());
        if self.stages.is_some() {
            g = g.with_node_times();
        }
        let (loss, comps) = self.model.loss(&mut g, batch, params, stats);
        let forward_s = sw.lap();
        g.backward(loss);
        let store = self.model.store();
        let mut grads = g.param_grads(store);
        let backward_s = sw.lap();
        reduce.reduce(store, &mut grads)?;
        let allreduce_wait_s = sw.lap();
        self.reduce_wait_s += allreduce_wait_s;
        let grad_clip = self.cfg.grad_clip;
        let grad_norm_pre = if grad_clip > 0.0 {
            clip_grad_norm(&mut grads, grad_clip)
        } else if self.recorder.is_enabled() {
            grad_l2_norm(&grads)
        } else {
            0.0
        };
        self.opt.step(store, &grads);
        let optimizer_s = sw.lap();
        if let (Some(stages), Some(&nodes)) = (self.stages.as_mut(), g.node_times()) {
            *stages = StepStages { nodes, optimizer_ns: optimizer_s * 1e9 };
        }
        self.global_step += 1;
        if self.recorder.is_enabled() {
            self.recorder.train_step(StepMetrics {
                step: self.global_step,
                epoch: self.epoch,
                rank: self.rank,
                loss_total: comps.total,
                loss_prediction: comps.prediction,
                loss_equation: comps.equation,
                grad_norm_pre,
                grad_norm_post: if grad_clip > 0.0 {
                    grad_norm_pre.min(grad_clip)
                } else {
                    grad_norm_pre
                },
                lr: self.opt.config().lr,
                samples: M::samples(batch),
                data_s,
                forward_s,
                backward_s,
                allreduce_wait_s,
                optimizer_s,
            });
        }
        Ok(comps)
    }

    /// Runs the epoch at the current loop position until global step `stop`
    /// or the epoch's end, whichever comes first — for each batch: draw a
    /// dataset pair, assemble the batch, step, advance the cursor — and, at
    /// the epoch's end, moves the position to the start of the next one.
    /// The record averages the batches this call ran. The learning rate is
    /// annealed by `cfg.lr_decay` on entering any epoch but the first. An
    /// error from `reduce` abandons the call mid-way; the trainer is then
    /// only good for discarding.
    pub fn run_epoch<R: GradReduce>(
        &mut self,
        corpus: &Corpus,
        reduce: &mut R,
        stop: u64,
    ) -> Result<EpochRecord, R::Error> {
        let epoch = self.epoch;
        // Anneal only when *entering* an epoch — a mid-epoch resume already
        // carries the annealed lr inside the Adam state.
        if self.cfg.lr_decay != 1.0 && epoch > 0 && self.batch_cursor == 0 {
            let lr = self.opt.config().lr * self.cfg.lr_decay;
            self.opt.set_lr(lr);
        }
        self.recorder.gauge("lr", self.opt.config().lr as f64);
        let start = Instant::now();
        let (mut tl, mut pl, mut el) = (0.0f32, 0.0f32, 0.0f32);
        let first_batch = self.batch_cursor;
        let room = stop.saturating_sub(self.global_step);
        let last_batch = (first_batch as u64).saturating_add(room);
        let last_batch = last_batch.min(self.cfg.batches_per_epoch as u64) as usize;
        for b in first_batch..last_batch {
            reduce.before_step(self.global_step + 1)?;
            let mut sw = Stopwatch::start();
            let di = self.rng.gen_range(0..corpus.pairs.len());
            let batch = self.model.draw(corpus, di, self.cfg.batch_size, &mut self.rng);
            self.pending_data_s = sw.lap();
            let comps = self.step_reduced(&batch, corpus.params(di), corpus.stats, reduce)?;
            tl += comps.total;
            pl += comps.prediction;
            el += comps.equation;
            self.batch_cursor = b + 1;
        }
        let nb = (last_batch - first_batch).max(1) as f32;
        let seconds = start.elapsed().as_secs_f64();
        self.recorder.span_seconds("epoch", seconds);
        log_pool_stats(&self.recorder);
        if last_batch == self.cfg.batches_per_epoch {
            self.epoch = epoch + 1;
            self.batch_cursor = 0;
        }
        Ok(EpochRecord { epoch, loss: tl / nb, prediction: pl / nb, equation: el / nb, seconds })
    }

    /// Trains from the current loop position up to `cfg.epochs`, drawing
    /// each batch from a random dataset pair. A fresh trainer starts at
    /// epoch 0; one built by [`Trainer::from_state`] continues from the
    /// state's epoch/batch cursor (the first returned record then averages
    /// only the remaining batches of the partial epoch).
    pub fn train(&mut self, corpus: &Corpus) -> Vec<EpochRecord> {
        (self.epoch..self.cfg.epochs)
            .map(|_| {
                let Ok(record) = self.run_epoch(corpus, &mut NoReduce, u64::MAX);
                record
            })
            .collect()
    }
}

impl Trainer<MeshfreeFlowNet> {
    /// Rank `rank` of the `world`-rank run whose train state `payload`
    /// holds (the bytes `encode_train_state` produced): the shared model
    /// and Adam state, and that rank's own sampler stream, through
    /// [`decode_run_state`]. `model` must have the architecture the state
    /// was captured from, field for field (γ and the constraint set
    /// included; any difference is `Incompatible`) — a fresh
    /// `MeshfreeFlowNet::new(cfg)` is fine, its initial weights are
    /// overwritten. The rank continues bit-identically to the run that
    /// wrote the state: same parameters, Adam moments and step count,
    /// learning rate, sampler stream position, and epoch/batch cursor. The
    /// supervisor in `mfn-dist` builds every rank of a round this way.
    pub fn from_state(
        mut model: MeshfreeFlowNet,
        cfg: TrainConfig,
        payload: &[u8],
        rank: usize,
        world: usize,
    ) -> Result<Self, CheckpointError> {
        let (opt, meta) = decode_run_state(&mut model, &cfg, payload, world)?;
        if rank >= world {
            return Err(CheckpointError::Incompatible(format!("rank {rank} of {world}")));
        }
        Ok(Trainer {
            rank,
            world,
            global_step: meta.global_step,
            epoch: meta.epoch,
            batch_cursor: meta.batch_cursor,
            ..Trainer::assemble(model, opt, cfg, SampleRng::restore(meta.rngs[rank]))
        })
    }
}

/// Decodes the train state `payload` of a `world`-rank run into `model` and
/// returns its Adam state and loop position, refusing one that run cannot
/// continue: another architecture, another number of sampler streams than
/// `world`, or a batch cursor past `cfg`'s epoch length. Each is
/// `Incompatible`. [`Trainer::from_state`] builds a rank from it, and the
/// elastic supervisor in `mfn-dist` its master state.
pub fn decode_run_state(
    model: &mut MeshfreeFlowNet,
    cfg: &TrainConfig,
    payload: &[u8],
    world: usize,
) -> Result<(Adam, TrainStateMeta), CheckpointError> {
    let (opt, meta) = decode_train_state(model, &mut &payload[..])?;
    if meta.rngs.len() != world {
        return Err(CheckpointError::Incompatible(format!(
            "checkpoint holds {} sampler streams, this run has {world} ranks",
            meta.rngs.len()
        )));
    }
    // A cursor is only ever saved inside an epoch (the supervisor moves one
    // at the epoch's end to the next epoch's start): one at or past this
    // run's epoch length was written under another `batches_per_epoch`, and
    // `run_epoch` would run no batch of it.
    if meta.batch_cursor > 0 && meta.batch_cursor >= cfg.batches_per_epoch {
        return Err(CheckpointError::Incompatible(format!(
            "checkpoint is at batch {} of its epoch, this run's epochs have {}",
            meta.batch_cursor, cfg.batches_per_epoch
        )));
    }
    Ok((opt, meta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::{hr_target_patch, BaselineII};
    use crate::config::MfnConfig;
    use crate::model::extract_patch;
    use mfn_data::{downsample, make_batch, PatchSampler, PatchSpec, CH_U, CH_W};
    use mfn_solver::{simulate, RbcConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Median of a slice (NaN-free input assumed).
    fn median(xs: &[f32]) -> f32 {
        assert!(!xs.is_empty());
        let mut v = xs.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        v[v.len() / 2]
    }

    /// Median loss over the first and last `k` recorded gradient steps.
    /// Medians over step windows are robust to the single-batch outliers
    /// that made epoch-mean first/last comparisons flaky.
    fn first_last_median(steps: &[StepMetrics], k: usize) -> (f32, f32) {
        assert!(steps.len() >= 2 * k, "need at least {} steps", 2 * k);
        let losses: Vec<f32> = steps.iter().map(|m| m.loss_total).collect();
        (median(&losses[..k]), median(&losses[losses.len() - k..]))
    }

    fn tiny_pair(ra: f64, duration: f64) -> (Dataset, Dataset) {
        let cfg = RbcConfig { nx: 16, nz: 9, ra, dt_max: 2e-3, ..Default::default() };
        let sim = simulate(&cfg, duration, 9);
        let hr = Dataset::from_simulation(&sim);
        let lr = downsample(&hr, 2, 2);
        (hr, lr)
    }

    fn tiny_corpus() -> Corpus {
        Corpus::new(vec![tiny_pair(1e5, 0.1)])
    }

    fn tiny_model() -> MeshfreeFlowNet {
        let mut cfg = MfnConfig::small();
        cfg.patch = PatchSpec { nt: 4, nz: 4, nx: 4, queries: 16 };
        cfg.base_channels = 4;
        cfg.latent_channels = 8;
        cfg.mlp_hidden = vec![16, 16];
        cfg.levels = 2;
        MeshfreeFlowNet::new(cfg)
    }

    #[test]
    fn training_reduces_loss() {
        let corpus = tiny_corpus();
        let (recorder, sink) = Recorder::memory(4096);
        let mut trainer = Trainer::new(
            tiny_model(),
            TrainConfig {
                epochs: 15,
                batches_per_epoch: 8,
                batch_size: 4,
                lr: 1e-2,
                seed: 0,
                ..Default::default()
            },
        )
        .with_recorder(recorder);
        let records = trainer.train(&corpus);
        assert_eq!(records.len(), 15);
        let steps = sink.train_steps();
        assert_eq!(steps.len(), 15 * 8);
        // Median of the first 16 vs last 16 recorded step losses: robust to
        // the per-batch noise that made the old epoch-mean ratio flaky.
        let (first, last) = first_last_median(&steps, 16);
        assert!(last < 0.85 * first, "loss did not drop: median {first} -> {last} ({records:?})");
        // Every step recorded a finite, positive gradient and sane phases.
        for m in &steps {
            assert!(m.grad_norm_pre.is_finite() && m.grad_norm_pre > 0.0, "{m:?}");
            assert!(m.grad_norm_post <= m.grad_norm_pre + 1e-6, "{m:?}");
            assert!(m.forward_s >= 0.0 && m.backward_s >= 0.0 && m.optimizer_s >= 0.0);
            assert_eq!(m.samples, 4);
            assert!(m.lr > 0.0);
        }
        // Batch assembly was timed for every step of every epoch.
        assert!(steps.iter().all(|m| m.data_s >= 0.0));
        assert_eq!(steps.last().expect("steps").epoch, 14);
    }

    #[test]
    fn equation_loss_tracked_when_gamma_positive() {
        let corpus = tiny_corpus();
        let mut model = tiny_model();
        model.cfg.gamma = 0.05;
        let mut trainer = Trainer::new(
            model,
            TrainConfig { epochs: 2, batches_per_epoch: 2, batch_size: 1, ..Default::default() },
        );
        let records = trainer.train(&corpus);
        assert!(records.iter().all(|r| r.equation > 0.0));
    }

    fn tiny_baseline() -> BaselineII {
        let mut cfg = MfnConfig::small();
        cfg.patch = PatchSpec { nt: 4, nz: 4, nx: 4, queries: 8 };
        cfg.base_channels = 4;
        cfg.latent_channels = 8;
        cfg.levels = 2;
        BaselineII::new(cfg, [2, 2, 2])
    }

    #[test]
    fn baseline_training_reduces_loss() {
        let corpus = tiny_corpus();
        let (recorder, sink) = Recorder::memory(4096);
        let tc = TrainConfig {
            epochs: 8,
            batches_per_epoch: 6,
            batch_size: 2,
            lr: 3e-3,
            seed: 0,
            ..Default::default()
        };
        let mut trainer = Trainer::new(tiny_baseline(), tc).with_recorder(recorder);
        let records = trainer.train(&corpus);
        assert_eq!(records.len(), 8);
        let steps = sink.train_steps();
        assert_eq!(steps.len(), 8 * 6);
        let (first, last) = first_last_median(&steps, 12);
        assert!(last < 0.95 * first, "baseline loss did not drop: median {first} -> {last}");
        // The baseline has no equation term; metrics must agree.
        assert!(steps.iter().all(|m| m.loss_equation == 0.0));
        assert!(steps.iter().all(|m| m.grad_norm_pre.is_finite()));
        assert!(steps.iter().all(|m| m.samples == tc.batch_size));
    }

    /// A Baseline (II) step on a two-pair corpus draws its pair and patches
    /// from the trainer's stream as MeshfreeFlowNet's would, and its loss is,
    /// bit for bit, the one a tape built by hand records on `extract_patch`
    /// inputs and `hr_target_patch` targets at the batch's origins, both
    /// standardized with the corpus's pooled statistics.
    #[test]
    fn baseline_step_takes_extract_patch_inputs_and_hr_targets_with_the_pooled_stats() {
        let corpus = Corpus::new(vec![tiny_pair(2e5, 4.0), tiny_pair(3e6, 4.0)]);
        let (spec, factors, stats) = (tiny_baseline().cfg.patch, [2, 2, 2], corpus.stats);
        let mut pairs_seen = [false; 2];
        for seed in 0..8 {
            let (recorder, sink) = Recorder::memory(16);
            let tc = TrainConfig {
                epochs: 1,
                batches_per_epoch: 1,
                batch_size: 2,
                seed,
                ..Default::default()
            };
            Trainer::new(tiny_baseline(), tc).with_recorder(recorder).train(&corpus);
            let got = sink.train_steps()[0];
            assert_eq!((got.samples, got.loss_equation), (2, 0.0));

            let mut rng = SampleRng::seed_from_u64(seed);
            let i = rng.gen_range(0..corpus.pairs.len());
            pairs_seen[i] = true;
            let (hr, lr) = &corpus.pairs[i];
            let batch = make_batch(&PatchSampler::new(hr, lr, spec), 2, &mut rng);
            let spacing = [lr.dt(), lr.dz(), lr.dx()];
            let origins: Vec<[usize; 3]> = (batch.samples.iter())
                .map(|s| [0, 1, 2].map(|k| (s.origin_phys[k] / spacing[k]).round() as usize))
                .collect();
            let inputs: Vec<Tensor> =
                origins.iter().map(|&o| extract_patch(lr, o, spec, stats)).collect();
            let targets: Vec<Tensor> =
                origins.iter().map(|&o| hr_target_patch(hr, o, spec, factors, stats)).collect();
            let mut h = Graph::new();
            let x = h.constant(Tensor::concat(&inputs.iter().collect::<Vec<_>>(), 0));
            let y = tiny_baseline().forward(&mut h, x, true);
            let t = h.constant(Tensor::concat(&targets.iter().collect::<Vec<_>>(), 0));
            let want = h.l1_loss(y, t);
            assert_eq!(got.loss_total.to_bits(), h.value(want).item().to_bits(), "seed {seed}");
        }
        assert_eq!(pairs_seen, [true; 2], "eight seeds must draw from both pairs");
    }

    /// Baseline (II) training is a function of its config: two runs give
    /// bit-equal parameters.
    #[test]
    fn baseline_training_is_deterministic() {
        let corpus = tiny_corpus();
        let tc = TrainConfig {
            epochs: 2,
            batches_per_epoch: 3,
            batch_size: 2,
            lr: 3e-3,
            lr_decay: 0.5,
            ..Default::default()
        };
        let run = || {
            let mut trainer = Trainer::new(tiny_baseline(), tc);
            trainer.train(&corpus);
            trainer.model.store.flatten().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        let first = run();
        assert_ne!(
            first,
            tiny_baseline().store.flatten().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(first, run());
    }

    #[test]
    fn lr_decay_anneals_the_optimizer() {
        let corpus = tiny_corpus();
        let mut trainer = Trainer::new(
            tiny_model(),
            TrainConfig {
                epochs: 5,
                batches_per_epoch: 1,
                batch_size: 2,
                lr: 1e-2,
                lr_decay: 0.5,
                ..Default::default()
            },
        );
        trainer.train(&corpus);
        // After 5 epochs with decay 0.5 applied from epoch 1: lr = 1e-2 * 0.5^4.
        let expect = 1e-2f32 * 0.5f32.powi(4);
        let got = trainer.opt.config().lr;
        assert!((got - expect).abs() < 1e-6, "lr {got} vs {expect}");
        // Default (decay = 1.0) leaves lr untouched.
        let mut t2 = Trainer::new(
            tiny_model(),
            TrainConfig {
                epochs: 3,
                batches_per_epoch: 1,
                batch_size: 2,
                lr: 1e-2,
                ..Default::default()
            },
        );
        t2.train(&corpus);
        assert_eq!(t2.opt.config().lr, 1e-2);
    }

    /// The workspace pool must actually recycle buffers in the training hot
    /// path: after a warm-up step, a second identical step should be served
    /// largely from the freelist (ISSUE satellite: hit counter increases
    /// across two identical training steps).
    #[test]
    fn workspace_pool_reuses_buffers_across_identical_steps() {
        let corpus = tiny_corpus();
        let mut trainer =
            Trainer::new(tiny_model(), TrainConfig { batch_size: 2, ..Default::default() });
        let (hr, lr) = &corpus.pairs[0];
        let sampler = PatchSampler::new(hr, lr, trainer.model.cfg.patch);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let batch = make_batch(&sampler, 2, &mut rng);
        // Warm-up step populates the freelist with every temporary the
        // forward/backward pass allocates.
        trainer.step(&batch, corpus.params(0), corpus.stats);
        let before = workspace::stats();
        trainer.step(&batch, corpus.params(0), corpus.stats);
        let after = workspace::stats();
        assert!(
            after.hits > before.hits,
            "second identical step should hit the pool: {before:?} -> {after:?}"
        );
    }

    /// Each epoch publishes cumulative pool counters.
    #[test]
    fn trainer_emits_pool_gauges() {
        let corpus = tiny_corpus();
        let (recorder, sink) = Recorder::memory(4096);
        let mut trainer = Trainer::new(
            tiny_model(),
            TrainConfig { epochs: 1, batches_per_epoch: 1, batch_size: 1, ..Default::default() },
        )
        .with_recorder(recorder);
        trainer.train(&corpus);
        // Pool counters were emitted at epoch end and the epoch did real work.
        let hits = sink.gauge("pool/hits").expect("pool hits gauge");
        let misses = sink.gauge("pool/misses").expect("pool misses gauge");
        assert!(hits + misses > 0.0, "training must touch the workspace pool");
    }

    /// Every pair of a multi-pair corpus is standardized with the corpus's
    /// pooled statistics: the loss a batch from either pair records equals,
    /// bit for bit, the same tape built by hand on `extract_patch` inputs
    /// and `(raw − mean) / std` targets.
    #[test]
    fn two_pair_corpus_standardizes_every_pair_with_the_pooled_stats() {
        let corpus = Corpus::new(vec![tiny_pair(2e5, 4.0), tiny_pair(3e6, 4.0)]);
        let per_pair = |i: usize| Corpus::new(vec![corpus.pairs[i].clone()]).stats;
        let (a, b) = (per_pair(0), per_pair(1));
        assert!(a.std[CH_U] < 0.9 * b.std[CH_U] && a.std[CH_W] < 0.9 * b.std[CH_W], "{a:?} {b:?}");
        let mut model = tiny_model();
        model.cfg.gamma = 0.0;
        let (spec, grid, stats) = (model.cfg.patch, model.grid_dims(), corpus.stats);
        for (i, (hr, lr)) in corpus.pairs.iter().enumerate() {
            let sampler = PatchSampler::new(hr, lr, spec);
            let batch = make_batch(&sampler, 2, &mut ChaCha8Rng::seed_from_u64(i as u64));
            let mut g = Graph::new();
            let (_, got) = model.loss_on_batch(&mut g, &batch, corpus.params(i), stats, false);

            let patches: Vec<Tensor> = (batch.samples.iter())
                .map(|s| {
                    let spacing = [lr.dt(), lr.dz(), lr.dx()];
                    let origin =
                        [0, 1, 2].map(|k| (s.origin_phys[k] / spacing[k]).round() as usize);
                    extract_patch(lr, origin, spec, stats)
                })
                .collect();
            let targets: Vec<f32> = (batch.samples.iter().flat_map(|s| &s.query_values))
                .flat_map(|v| (0..4).map(|c| (v[c] - stats.mean[c]) / stats.std[c]))
                .collect();
            let mut h = Graph::new();
            let x = h.constant(Tensor::concat(&patches.iter().collect::<Vec<_>>(), 0));
            let latent = model.unet.forward(&mut h, &model.store, x, false);
            let plan = crate::losses::prediction_plan(grid, &batch.samples);
            let pred = model.decoder.decode(&mut h, &model.store, latent, &plan);
            let target = h.constant(Tensor::from_vec(targets, &[plan.len(), 4]));
            let want = h.l1_loss(pred, target);
            assert_eq!(got.prediction.to_bits(), h.value(want).item().to_bits(), "pair {i}");
        }
    }

    #[test]
    fn one_pair_corpus_keeps_its_pair_statistics_bit_for_bit() {
        let (hr, lr) = tiny_pair(1e5, 0.1);
        let (mean, std) = hr.channel_stats();
        let stats = Corpus::new(vec![(hr, lr)]).stats;
        assert_eq!(stats.mean.map(f32::to_bits), mean.map(f32::to_bits));
        assert_eq!(stats.std.map(f32::to_bits), std.map(f32::to_bits));
    }

    #[test]
    fn corpus_stats_pool_across_pairs() {
        let sim = simulate(
            &RbcConfig { nx: 16, nz: 9, ra: 1e5, dt_max: 2e-3, ..Default::default() },
            0.05,
            5,
        );
        let hr = Dataset::from_simulation(&sim);
        let lr = downsample(&hr, 2, 2);
        let single = Corpus::new(vec![(hr.clone(), lr.clone())]);
        let double = Corpus::new(vec![(hr.clone(), lr.clone()), (hr, lr)]);
        for c in 0..4 {
            assert!((single.stats.mean[c] - double.stats.mean[c]).abs() < 1e-5);
            assert!((single.stats.std[c] - double.stats.std[c]).abs() < 1e-4);
        }
    }
}
