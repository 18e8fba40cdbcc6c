//! The training step and epoch loop, defined once: [`Trainer`] is a rank.
//! A single process trains with [`NoReduce`]; the data-parallel driver in
//! `mfn-dist` runs one `Trainer` per worker thread, passes a ring
//! all-reduce as the [`GradReduce`], and rebuilds the ranks from a snapshot
//! between epochs ([`Trainer::from_state`]).

use crate::baseline::{hr_target_patch, BaselineII};
use crate::checkpoint::{
    decode_train_state, encode_train_state, load_train_state_with_fallback, save_train_state,
    CheckpointError, TrainStateMeta,
};
use crate::config::TrainConfig;
use crate::losses::ChannelStats;
use crate::model::{MeshfreeFlowNet, StepLosses};
use crate::rng::{RngState, SampleRng};
use mfn_autodiff::{clip_grad_norm, grad_l2_norm, Adam, AdamConfig, Graph, ParamStore, Var};
use mfn_data::{make_batch, Dataset, PatchSampler};
use mfn_physics::RbcParams;
use mfn_telemetry::{Recorder, StepMetrics, Stopwatch};
use mfn_tensor::{workspace, Tensor};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One epoch's summary.
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
    /// Wall-clock seconds for the epoch.
    pub seconds: f64,
}

/// A training corpus: HR/LR dataset pairs (one pair per initial/boundary
/// condition — Tables 3–4 train on up to 10).
pub struct Corpus {
    /// The `(HR, LR)` dataset pairs.
    pub pairs: Vec<(Dataset, Dataset)>,
    /// Channel statistics shared across the corpus (computed from all HR
    /// sets; every patch/target is normalized with these).
    pub stats: ChannelStats,
}

impl Corpus {
    /// Builds a corpus and its pooled channel statistics.
    pub fn new(pairs: Vec<(Dataset, Dataset)>) -> Self {
        assert!(!pairs.is_empty(), "corpus needs at least one dataset pair");
        let mut mean = [0.0f64; 4];
        let mut ms = [0.0f64; 4];
        for (hr, _) in &pairs {
            for c in 0..4 {
                mean[c] += hr.meta.channel_mean[c] as f64;
                ms[c] += (hr.meta.channel_std[c] as f64).powi(2)
                    + (hr.meta.channel_mean[c] as f64).powi(2);
            }
        }
        let n = pairs.len() as f64;
        let mut stats = ChannelStats { mean: [0.0; 4], std: [1.0; 4] };
        for c in 0..4 {
            let m = mean[c] / n;
            stats.mean[c] = m as f32;
            stats.std[c] = ((ms[c] / n - m * m).max(1e-16)).sqrt() as f32;
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
    /// draws its batch; an error abandons the epoch there. Fault injection
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

/// Where a step sits in its run, for the [`StepMetrics`] it emits.
struct StepTag {
    step: u64,
    epoch: usize,
    rank: usize,
    samples: usize,
    data_s: f64,
}

/// The loss-independent part of every gradient step, shared by [`Trainer`]
/// and [`BaselineTrainer`]: backward → gradient exchange → clip → Adam →
/// one [`StepMetrics`] event. `sw` was started before the forward pass.
/// Returns the seconds spent in `reduce`.
#[allow(clippy::too_many_arguments)]
fn backward_and_update<R: GradReduce>(
    g: &mut Graph,
    loss: Var,
    comps: StepLosses,
    store: &mut ParamStore,
    opt: &mut Adam,
    grad_clip: f32,
    reduce: &mut R,
    recorder: &Recorder,
    mut sw: Stopwatch,
    tag: StepTag,
) -> Result<f64, R::Error> {
    let forward_s = sw.lap();
    g.backward(loss);
    let mut grads = g.param_grads(store);
    let backward_s = sw.lap();
    reduce.reduce(store, &mut grads)?;
    let allreduce_wait_s = sw.lap();
    let grad_norm_pre = if grad_clip > 0.0 {
        clip_grad_norm(&mut grads, grad_clip)
    } else if recorder.is_enabled() {
        grad_l2_norm(&grads)
    } else {
        0.0
    };
    opt.step(store, &grads);
    let optimizer_s = sw.lap();
    if recorder.is_enabled() {
        recorder.train_step(StepMetrics {
            step: tag.step,
            epoch: tag.epoch,
            rank: tag.rank,
            loss_total: comps.total,
            loss_prediction: comps.prediction,
            loss_equation: comps.equation,
            grad_norm_pre,
            grad_norm_post: if grad_clip > 0.0 {
                grad_norm_pre.min(grad_clip)
            } else {
                grad_norm_pre
            },
            lr: opt.config().lr,
            samples: tag.samples,
            data_s: tag.data_s,
            forward_s,
            backward_s,
            allreduce_wait_s,
            optimizer_s,
        });
    }
    Ok(allreduce_wait_s)
}

/// Adam-based trainer for MeshfreeFlowNet: one rank of a training run (the
/// only rank, unless `mfn-dist` runs several with a ring [`GradReduce`]).
pub struct Trainer {
    /// The model being trained.
    pub model: MeshfreeFlowNet,
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
    /// Next batch index within `epoch` — nonzero only when resumed from a
    /// mid-epoch checkpoint.
    batch_cursor: usize,
    /// Checkpointable batch-sampling stream (persists across `train` calls
    /// so a resumed trainer continues the exact sample sequence).
    rng: SampleRng,
    /// Destination for periodic train-state checkpoints (None disables).
    checkpoint_path: Option<PathBuf>,
    /// Batch-assembly seconds to attribute to the next `step` call.
    pending_data_s: f64,
    /// Seconds spent in the gradient exchange over the trainer's lifetime.
    reduce_wait_s: f64,
}

impl Trainer {
    /// Wraps a model with an Adam optimizer configured from `cfg`; batches
    /// are drawn from the stream seeded with `cfg.seed`.
    pub fn new(model: MeshfreeFlowNet, cfg: TrainConfig) -> Self {
        let opt = Adam::new(&model.store, AdamConfig { lr: cfg.lr, ..Default::default() });
        Trainer::assemble(model, opt, cfg, SampleRng::seed_from_u64(cfg.seed))
    }

    /// A trainer at the start of a run, with `opt` and `rng` as given.
    fn assemble(model: MeshfreeFlowNet, opt: Adam, cfg: TrainConfig, rng: SampleRng) -> Self {
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
            checkpoint_path: None,
            pending_data_s: 0.0,
            reduce_wait_s: 0.0,
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

    /// Writes periodic train-state checkpoints to `path` every
    /// `cfg.checkpoint_every` gradient steps (builder form).
    pub fn with_checkpointing(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint_path = Some(path.into());
        self
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

    /// Reconstructs a trainer from a train-state checkpoint written by
    /// [`Trainer::save_checkpoint`] (or the periodic writer). `model` must
    /// have the architecture the checkpoint was captured from — a fresh
    /// `MeshfreeFlowNet::new(cfg)` is fine, its initial weights are
    /// overwritten. The resumed trainer continues bit-identically to the run
    /// that wrote the checkpoint: same parameters, Adam moments and step
    /// count, learning rate, sampler stream position, and epoch/batch
    /// cursor. Falls back to `<path>.prev` when the newest file is damaged.
    pub fn resume(
        model: MeshfreeFlowNet,
        cfg: TrainConfig,
        path: &Path,
    ) -> Result<Trainer, CheckpointError> {
        let payload = load_train_state_with_fallback(path)?;
        Trainer::from_state(model, cfg, &payload, 0, 1)
    }

    /// Rank `rank` of the `world`-rank run whose train state `payload`
    /// holds (the bytes [`encode_train_state`] produced): the shared model
    /// and Adam state, and that rank's own sampler stream.
    /// [`Trainer::resume`] is rank 0 of 1; the elastic supervisor in
    /// `mfn-dist` builds every rank of a round from its snapshot this way.
    pub fn from_state(
        mut model: MeshfreeFlowNet,
        cfg: TrainConfig,
        payload: &[u8],
        rank: usize,
        world: usize,
    ) -> Result<Trainer, CheckpointError> {
        let (opt, meta) = decode_train_state(&mut model, &mut &payload[..])?;
        if meta.rngs.len() != world || rank >= world {
            return Err(CheckpointError::Incompatible(format!(
                "checkpoint holds {} sampler streams, rank {rank} of {world} expected",
                meta.rngs.len()
            )));
        }
        // A cursor is only ever saved inside an epoch (`state_meta`): one at
        // or past this run's epoch length was written under another
        // `batches_per_epoch`, and `run_epoch` would run no batch of it.
        if meta.batch_cursor > 0 && meta.batch_cursor >= cfg.batches_per_epoch {
            return Err(CheckpointError::Incompatible(format!(
                "checkpoint is at batch {} of its epoch, this run's epochs have {}",
                meta.batch_cursor, cfg.batches_per_epoch
            )));
        }
        Ok(Trainer {
            rank,
            global_step: meta.global_step,
            epoch: meta.epoch,
            batch_cursor: meta.batch_cursor,
            ..Trainer::assemble(model, opt, cfg, SampleRng::restore(meta.rngs[rank]))
        })
    }

    /// This rank's sampler stream position — the per-rank half of a train
    /// state.
    pub fn sampler_state(&self) -> RngState {
        self.rng.state()
    }

    /// Current loop position in checkpoint form, normalized so a cursor at
    /// the end of an epoch points at the start of the next one.
    fn state_meta(&self) -> TrainStateMeta {
        let (mut epoch, mut cursor) = (self.epoch, self.batch_cursor);
        if self.cfg.batches_per_epoch > 0 && cursor >= self.cfg.batches_per_epoch {
            epoch += 1;
            cursor = 0;
        }
        TrainStateMeta {
            global_step: self.global_step,
            epoch,
            batch_cursor: cursor,
            rngs: vec![self.sampler_state()],
        }
    }

    /// Writes a full train-state checkpoint to `path` (atomic rename; the
    /// previous file rotates to `<path>.prev`). Returns bytes written and
    /// emits `ckpt.bytes` / `ckpt.write_s` telemetry.
    pub fn save_checkpoint(&self, path: &Path) -> Result<u64, CheckpointError> {
        let start = Instant::now();
        let payload = encode_train_state(&self.model, &self.opt, &self.state_meta());
        let bytes = save_train_state(path, &payload)?;
        self.recorder.incr("ckpt.bytes", bytes);
        self.recorder.incr("ckpt.writes", 1);
        self.recorder.gauge("ckpt.write_s", start.elapsed().as_secs_f64());
        Ok(bytes)
    }

    /// Periodic-checkpoint hook: fires every `cfg.checkpoint_every` steps
    /// when a path is configured. A failed write is counted
    /// (`ckpt.errors`) and reported but does not abort training.
    fn checkpoint_if_due(&mut self) {
        if self.cfg.checkpoint_every == 0
            || !self.global_step.is_multiple_of(self.cfg.checkpoint_every as u64)
        {
            return;
        }
        let Some(path) = self.checkpoint_path.clone() else { return };
        if let Err(e) = self.save_checkpoint(&path) {
            self.recorder.incr("ckpt.errors", 1);
            eprintln!("checkpoint write to {} failed: {e}", path.display());
        }
    }

    /// One gradient step on one batch; returns the loss components.
    ///
    /// Emits one [`StepMetrics`] event (losses, gradient norms, learning
    /// rate, per-phase timings) when a recorder is attached.
    pub fn step(
        &mut self,
        batch: &mfn_data::Batch,
        params: RbcParams,
        stats: ChannelStats,
    ) -> StepLosses {
        let Ok(comps) = self.step_reduced(batch, params, stats, &mut NoReduce);
        comps
    }

    /// [`Trainer::step`] with the gradients passed through `reduce` before
    /// clipping. This body is the one place a training step is defined:
    /// tape, backward, exchange, clip, Adam, metrics.
    pub fn step_reduced<R: GradReduce>(
        &mut self,
        batch: &mfn_data::Batch,
        params: RbcParams,
        stats: ChannelStats,
        reduce: &mut R,
    ) -> Result<StepLosses, R::Error> {
        let sw = Stopwatch::start();
        let mut g = Graph::new();
        let (loss, comps) = self.model.loss_on_batch(&mut g, batch, params, stats, true);
        let tag = StepTag {
            step: self.global_step + 1,
            epoch: self.epoch,
            rank: self.rank,
            samples: batch.samples.len(),
            data_s: std::mem::take(&mut self.pending_data_s),
        };
        self.reduce_wait_s += backward_and_update(
            &mut g,
            loss,
            comps,
            &mut self.model.store,
            &mut self.opt,
            self.cfg.grad_clip,
            reduce,
            &self.recorder,
            sw,
            tag,
        )?;
        self.global_step += 1;
        Ok(comps)
    }

    /// Runs the epoch at the current loop position — for every remaining
    /// batch: draw a dataset pair, assemble the batch, step, advance the
    /// cursor, checkpoint if due — and moves the position to the start of
    /// the next one. The learning rate is annealed by `cfg.lr_decay` on
    /// entering any epoch but the first. An error from `reduce` abandons
    /// the epoch mid-way; the trainer is then only good for discarding.
    pub fn run_epoch<R: GradReduce>(
        &mut self,
        corpus: &Corpus,
        reduce: &mut R,
    ) -> Result<EpochRecord, R::Error> {
        let samplers: Vec<PatchSampler<'_>> = corpus
            .pairs
            .iter()
            .map(|(hr, lr)| PatchSampler::new(hr, lr, self.model.cfg.patch))
            .collect();
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
        for b in first_batch..self.cfg.batches_per_epoch {
            reduce.before_step(self.global_step + 1)?;
            let mut sw = Stopwatch::start();
            let di = self.rng.gen_range(0..samplers.len());
            let batch = make_batch(&samplers[di], self.cfg.batch_size, &mut self.rng);
            self.pending_data_s = sw.lap();
            let comps = self.step_reduced(&batch, corpus.params(di), corpus.stats, reduce)?;
            tl += comps.total;
            pl += comps.prediction;
            el += comps.equation;
            self.batch_cursor = b + 1;
            self.checkpoint_if_due();
        }
        let nb = (self.cfg.batches_per_epoch - first_batch).max(1) as f32;
        let seconds = start.elapsed().as_secs_f64();
        self.recorder.span_seconds("epoch", seconds);
        log_pool_stats(&self.recorder);
        // The next epoch starts at batch 0; leaving the cursor normalized
        // also makes a checkpoint taken now resume *after* the completed
        // work instead of redoing this epoch.
        self.epoch = epoch + 1;
        self.batch_cursor = 0;
        Ok(EpochRecord { epoch, loss: tl / nb, prediction: pl / nb, equation: el / nb, seconds })
    }

    /// Trains from the current loop position up to `cfg.epochs`, drawing
    /// each batch from a random dataset pair. A fresh trainer starts at
    /// epoch 0; a [`Trainer::resume`]d one continues from its checkpointed
    /// epoch/batch cursor (the first returned record then averages only the
    /// remaining batches of the partial epoch).
    pub fn train(&mut self, corpus: &Corpus) -> Vec<EpochRecord> {
        (self.epoch..self.cfg.epochs)
            .map(|_| {
                let Ok(record) = self.run_epoch(corpus, &mut NoReduce);
                record
            })
            .collect()
    }
}

/// Adam-based trainer for Baseline (II) (patch → HR-patch regression).
pub struct BaselineTrainer {
    /// The baseline model.
    pub model: BaselineII,
    /// Optimizer state.
    pub opt: Adam,
    /// Loop hyperparameters.
    pub cfg: TrainConfig,
    /// Telemetry destination (disabled by default).
    recorder: Recorder,
    /// Monotonic gradient-step counter.
    global_step: u64,
}

impl BaselineTrainer {
    /// Wraps a Baseline (II) model with Adam.
    pub fn new(model: BaselineII, cfg: TrainConfig) -> Self {
        let opt = Adam::new(&model.store, AdamConfig { lr: cfg.lr, ..Default::default() });
        BaselineTrainer { model, opt, cfg, recorder: Recorder::null(), global_step: 0 }
    }

    /// Routes per-step metrics to `recorder` (builder form).
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Trains over the corpus with random patch targets.
    pub fn train(&mut self, corpus: &Corpus) -> Vec<EpochRecord> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.cfg.seed);
        let spec = self.model.cfg.patch;
        let factors = self.model.factors;
        let mut records = Vec::with_capacity(self.cfg.epochs);
        for epoch in 0..self.cfg.epochs {
            let start = Instant::now();
            let mut tl = 0.0f32;
            for _ in 0..self.cfg.batches_per_epoch {
                let mut sw = Stopwatch::start();
                let di = rng.gen_range(0..corpus.pairs.len());
                let (hr, lr) = &corpus.pairs[di];
                let origin = [
                    rng.gen_range(0..=lr.meta.nt - spec.nt),
                    rng.gen_range(0..=lr.meta.nz - spec.nz),
                    rng.gen_range(0..=lr.meta.nx - spec.nx),
                ];
                let input = crate::model::extract_patch(lr, origin, spec, corpus.stats);
                let target = hr_target_patch(hr, origin, spec, factors, corpus.stats);
                let data_s = sw.lap();
                let mut g = Graph::new();
                let loss = self.model.loss(&mut g, &input, &target, true);
                let step_loss = g.value(loss).item();
                tl += step_loss;
                self.global_step += 1;
                // The baseline has no equation term.
                let comps = StepLosses { total: step_loss, prediction: step_loss, equation: 0.0 };
                let tag = StepTag { step: self.global_step, epoch, rank: 0, samples: 1, data_s };
                let Ok(_) = backward_and_update(
                    &mut g,
                    loss,
                    comps,
                    &mut self.model.store,
                    &mut self.opt,
                    self.cfg.grad_clip,
                    &mut NoReduce,
                    &self.recorder,
                    sw,
                    tag,
                );
            }
            let nb = self.cfg.batches_per_epoch as f32;
            records.push(EpochRecord {
                epoch,
                loss: tl / nb,
                prediction: tl / nb,
                equation: 0.0,
                seconds: start.elapsed().as_secs_f64(),
            });
        }
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MfnConfig;
    use mfn_data::{downsample, PatchSpec};
    use mfn_solver::{simulate, RbcConfig};

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

    fn tiny_corpus() -> Corpus {
        let sim = simulate(
            &RbcConfig { nx: 16, nz: 9, ra: 1e5, dt_max: 2e-3, ..Default::default() },
            0.1,
            9,
        );
        let hr = Dataset::from_simulation(&sim);
        let lr = downsample(&hr, 2, 2);
        Corpus::new(vec![(hr, lr)])
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

    #[test]
    fn baseline_training_reduces_loss() {
        let corpus = tiny_corpus();
        let mut cfg = MfnConfig::small();
        cfg.patch = PatchSpec { nt: 4, nz: 4, nx: 4, queries: 8 };
        cfg.base_channels = 4;
        cfg.latent_channels = 8;
        cfg.levels = 2;
        let b2 = BaselineII::new(cfg, [2, 2, 2]);
        let (recorder, sink) = Recorder::memory(4096);
        let mut trainer = BaselineTrainer::new(
            b2,
            TrainConfig {
                epochs: 8,
                batches_per_epoch: 6,
                lr: 3e-3,
                seed: 0,
                ..Default::default()
            },
        )
        .with_recorder(recorder);
        let records = trainer.train(&corpus);
        assert_eq!(records.len(), 8);
        let steps = sink.train_steps();
        assert_eq!(steps.len(), 8 * 6);
        let (first, last) = first_last_median(&steps, 12);
        assert!(last < 0.95 * first, "baseline loss did not drop: median {first} -> {last}");
        // The baseline has no equation term; metrics must agree.
        assert!(steps.iter().all(|m| m.loss_equation == 0.0));
        assert!(steps.iter().all(|m| m.grad_norm_pre.is_finite()));
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
