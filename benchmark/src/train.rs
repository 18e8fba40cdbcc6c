//! The two training workloads.
//!
//! `train`: one thread, closed loop, `make_batch` + `Trainer::step` at batch
//! 4 — U-Net conv forward/backward, the tape, the 7-point-stencil equation
//! loss and Adam do the work; socket, cache and batcher do nothing.
//!
//! `train_dist2`: the same model and batch per rank under
//! `train_data_parallel(…, workers = 2)` — the same compute plus the ring
//! all-reduce and two rank threads sharing the host's two cores.

use crate::kernels::{median_us, unet_convs};
use crate::measure::{closed_loop, median, Lane, Op, Phase};
use crate::setup::{train_config, Env, BATCH};
use crate::trace::{At, Ladder, Tracer};
use crate::{Layers, Reps, Workload};
use mfn_core::{MeshfreeFlowNet, StepLosses, Trainer};
use mfn_data::{make_batch, PatchSampler};
use mfn_dist::{train_data_parallel_recorded, DistRunResult};
use mfn_telemetry::{MemorySink, Recorder, StepMetrics};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use std::time::Instant;

/// Events a memory recorder keeps; far above what a traced phase emits.
const SINK_CAPACITY: usize = 1 << 16;

/// A memory recorder for a traced phase, the null recorder otherwise.
fn recorder_for(tracer: Option<&Tracer>) -> (Recorder, Option<Arc<MemorySink>>) {
    match tracer {
        Some(_) => {
            let (recorder, sink) = Recorder::memory(SINK_CAPACITY);
            (recorder, Some(sink))
        }
        None => (Recorder::null(), None),
    }
}

fn phase_medians_ms(steps: &[StepMetrics]) -> [f64; 5] {
    let med = |f: fn(&StepMetrics) -> f64| {
        if steps.is_empty() {
            0.0
        } else {
            median(steps.iter().map(|m| f(m) * 1e3).collect())
        }
    };
    [
        med(|m| m.data_s),
        med(|m| m.forward_s),
        med(|m| m.backward_s),
        med(|m| m.allreduce_wait_s),
        med(|m| m.optimizer_s),
    ]
}

/// The `train` workload.
pub struct Train {
    env: Env,
    trainer: Trainer,
    rng: ChaCha8Rng,
    /// Total loss of every step taken, warm-up included, in order.
    losses: Vec<f32>,
    /// The trainer's own timings of every traced step.
    steps: Vec<StepMetrics>,
    reps: Reps,
}

struct TrainOp<'a> {
    sampler: PatchSampler<'a>,
    env: &'a Env,
    trainer: &'a mut Trainer,
    rng: &'a mut ChaCha8Rng,
    losses: &'a mut Vec<f32>,
}

impl Op for TrainOp<'_> {
    type Req = ();
    type Rep = StepLosses;

    fn prepare(&mut self, _: u64) {}

    fn issue(&mut self, _: &(), at: At<'_>) -> Result<StepLosses, String> {
        let batch = at.span("data.make_batch", |_| make_batch(&self.sampler, BATCH, self.rng));
        let corpus = &self.env.corpus;
        Ok(at.span("core.trainer_step", |_| {
            self.trainer.step(&batch, corpus.params(0), corpus.stats)
        }))
    }

    fn verify(&mut self, _: u64, _: &(), rep: &StepLosses) -> Result<f64, String> {
        self.losses.push(rep.total);
        if rep.total.is_finite() {
            Ok(BATCH as f64)
        } else {
            Err(format!("non-finite loss {}", rep.total))
        }
    }
}

impl Train {
    /// A fresh model (fixed initialisation) to train on the generated data.
    pub fn new(env: Env, seed: u64, reps: Reps) -> Self {
        let trainer = Trainer::new(MeshfreeFlowNet::new(env.cfg.clone()), train_config());
        let rng = ChaCha8Rng::seed_from_u64(seed);
        Train { env, trainer, rng, losses: Vec::new(), steps: Vec::new(), reps }
    }
}

impl Workload for Train {
    fn phase(&mut self, seconds: f64, first: u64, tracer: Option<&Tracer>) -> Phase {
        // The trainer's own per-phase timings ride along only when traced.
        let (recorder, sink) = recorder_for(tracer);
        self.trainer.set_recorder(recorder);
        let (hr, lr) = &self.env.corpus.pairs[0];
        let mut op = TrainOp {
            sampler: PatchSampler::new(hr, lr, self.env.cfg.patch),
            env: &self.env,
            trainer: &mut self.trainer,
            rng: &mut self.rng,
            losses: &mut self.losses,
        };
        let lane = Lane { thread: 0, threads: 1, cores: 1, first, tracer, span: "train.step" };
        let phase = closed_loop(&mut op, lane, Instant::now(), seconds);
        self.steps.extend(sink.iter().flat_map(|s| s.train_steps()));
        phase
    }

    fn check(&mut self) -> Result<(), String> {
        loss_fell(&self.losses)
    }

    fn layers(&mut self, tracer: &Tracer, _: &Phase, out: &mut Layers) -> Ladder {
        let [_, forward, backward, _, optim] = phase_medians_ms(&self.steps);
        let make_batch_ms = tracer.median_us("data.make_batch") * 1e-3;
        out.set("data.make_batch_ms", make_batch_ms);
        out.set("autodiff.forward_ms", forward);
        out.set("autodiff.backward_ms", backward);
        out.set("autodiff.optim_ms", optim);

        // What the equation loss costs: the same batches through a γ = 0 and
        // a γ* trainer, alternating so host drift hits both arms alike.
        let at = At::root(Some(tracer), crate::LADDER);
        let mut plain_cfg = self.env.cfg.clone();
        plain_cfg.gamma = 0.0;
        let mut arms = [plain_cfg, self.env.cfg.clone()]
            .map(|cfg| (Trainer::new(MeshfreeFlowNet::new(cfg), train_config()), Vec::new()));
        let (hr, lr) = &self.env.corpus.pairs[0];
        let sampler = PatchSampler::new(hr, lr, self.env.cfg.patch);
        let corpus = &self.env.corpus;
        for _ in 0..self.reps.of(EQ_LOSS_PAIRS) {
            let batch = make_batch(&sampler, BATCH, &mut self.rng);
            for (arm, (trainer, times)) in arms.iter_mut().enumerate() {
                let name = ["core.step_gamma0", "core.step_gamma_star"][arm];
                times.push(median_us(1, at, name, || {
                    trainer.step(&batch, corpus.params(0), corpus.stats);
                }));
            }
        }
        let [(_, t0), (_, t1)] = arms;
        out.set("core.eq_loss_share", 1.0 - median(t0) / median(t1));

        let convs = unet_convs(&self.env.frozen, BATCH, self.reps.of(KERNEL_REPS), at);
        out.set("tensor.conv3d_us", convs.us);
        out.set("tensor.conv3d_gflops", convs.gflops());

        Ladder {
            unit: "ms",
            rungs: vec![
                ("make_batch + Trainer::step", tracer.median_us("train.step") * 1e-3),
                (
                    "make_batch, forward, backward, optimizer",
                    make_batch_ms + forward + backward + optim,
                ),
            ],
            complete: true,
        }
    }
}

/// The mean loss of the last tenth of the steps must be below that of the
/// first tenth. Fewer than 20 steps (a smoke run) are too few to judge.
fn loss_fell(losses: &[f32]) -> Result<(), String> {
    let (n, tenth) = (losses.len(), losses.len() / 10);
    if tenth < 2 {
        return Ok(());
    }
    let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
    let (head, tail) = (mean(&losses[..tenth]), mean(&losses[n - tenth..]));
    if tail < head {
        Ok(())
    } else {
        Err(format!("loss did not fall over {n} steps: {head} -> {tail}"))
    }
}

/// Interleaved step pairs behind `core.eq_loss_share`.
const EQ_LOSS_PAIRS: usize = 6;
/// Repetitions per shape of a kernel replay.
pub const KERNEL_REPS: usize = 15;

/// Steps each rank takes per `train_data_parallel` call: short, so a
/// measured phase holds some thirty calls for its percentiles. Every call
/// builds fresh replicas and rank threads; a call of 0 steps takes 2–4 ms
/// against 300–400 ms for 2 steps, so that share (about 1 %) is left in.
const DIST_STEPS: usize = 2;
const RANKS: usize = 2;

/// The `train_dist2` workload. One operation is one `train_data_parallel`
/// call of [`DIST_STEPS`] steps per rank (fresh replicas, fresh rank
/// threads), so its latency is that call's wall time.
pub struct Dist {
    env: Env,
    recorder: Recorder,
    /// Every rank's own timings of every traced step.
    steps: Vec<StepMetrics>,
    /// `(Σ over ranks of all-reduce wait, call wall)` of every traced call.
    waits: Vec<(f64, f64)>,
    grad_elems: usize,
    reps: Reps,
}

struct DistOp<'a> {
    env: &'a Env,
    ranks: usize,
    recorder: Recorder,
    waits: Option<&'a mut Vec<(f64, f64)>>,
    grad_elems: &'a mut usize,
}

impl DistOp<'_> {
    fn call(&self, i: u64) -> DistRunResult {
        let mut tc = train_config();
        tc.epochs = 1;
        tc.batches_per_epoch = DIST_STEPS;
        tc.seed = i;
        train_data_parallel_recorded(
            &self.env.corpus,
            &self.env.cfg,
            &tc,
            self.ranks,
            self.recorder.clone(),
        )
    }
}

impl Op for DistOp<'_> {
    type Req = u64;
    type Rep = (DistRunResult, f64);

    fn prepare(&mut self, i: u64) -> u64 {
        i
    }

    fn issue(&mut self, i: &u64, _: At<'_>) -> Result<Self::Rep, String> {
        let t = Instant::now();
        let r = self.call(*i);
        Ok((r, t.elapsed().as_secs_f64()))
    }

    fn verify(&mut self, _: u64, _: &u64, (r, wall): &Self::Rep) -> Result<f64, String> {
        *self.grad_elems = r.grad_elems;
        if let Some(waits) = self.waits.as_mut() {
            waits.push((r.allreduce_wait.iter().sum(), *wall));
        }
        if r.epoch_param_digests.iter().any(|d| d != &r.epoch_param_digests[0]) {
            return Err(format!("replicas diverged: {:?}", r.epoch_param_digests));
        }
        if !r.epoch_losses.iter().all(|l| l.is_finite()) {
            return Err(format!("non-finite loss {:?}", r.epoch_losses));
        }
        Ok((self.ranks * DIST_STEPS * BATCH) as f64)
    }
}

impl Dist {
    /// Trains fresh replicas on the generated data.
    pub fn new(env: Env, reps: Reps) -> Self {
        Dist {
            reps,
            env,
            recorder: Recorder::null(),
            steps: Vec::new(),
            waits: Vec::new(),
            grad_elems: 0,
        }
    }

    fn op(&mut self, ranks: usize, traced: bool) -> DistOp<'_> {
        DistOp {
            env: &self.env,
            ranks,
            recorder: self.recorder.clone(),
            waits: traced.then_some(&mut self.waits),
            grad_elems: &mut self.grad_elems,
        }
    }
}

impl Workload for Dist {
    fn phase(&mut self, seconds: f64, first: u64, tracer: Option<&Tracer>) -> Phase {
        let (recorder, sink) = recorder_for(tracer);
        self.recorder = recorder;
        let lane = Lane {
            thread: 0,
            threads: 1,
            cores: RANKS,
            first,
            tracer,
            span: "dist.train_data_parallel",
        };
        let phase =
            closed_loop(&mut self.op(RANKS, tracer.is_some()), lane, Instant::now(), seconds);
        self.steps.extend(sink.iter().flat_map(|s| s.train_steps()));
        phase
    }

    /// Replica consistency is checked on every call, in `verify`.
    fn check(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn layers(&mut self, tracer: &Tracer, _: &Phase, out: &mut Layers) -> Ladder {
        let [data, forward, backward, wait, optim] = phase_medians_ms(&self.steps);
        out.set("data.make_batch_ms", data);
        out.set("autodiff.forward_ms", forward);
        out.set("autodiff.backward_ms", backward);
        out.set("autodiff.optim_ms", optim);
        let (waited, wall) = self.waits.iter().fold((0.0, 0.0), |(a, b), (w, t)| (a + w, b + t));
        out.set("dist.allreduce_wait_share", waited / (RANKS as f64 * wall));
        out.set(
            "dist.bytes_per_step",
            2.0 * (RANKS - 1) as f64 / RANKS as f64 * self.grad_elems as f64 * 4.0,
        );

        // Scaling efficiency against a one-rank run of the same call,
        // alternating so host drift hits both alike.
        self.recorder = Recorder::null();
        let at = At::root(Some(tracer), crate::LADDER);
        let mut us = [Vec::new(), Vec::new()];
        for pair in 0..self.reps.of(SCALING_PAIRS) as u64 {
            for (ranks, times) in us.iter_mut().enumerate() {
                let op = self.op(ranks + 1, false);
                let name = ["dist.one_rank_call", "dist.two_rank_call"][ranks];
                times.push(median_us(1, at, name, || {
                    op.call(crate::LADDER + pair);
                }));
            }
        }
        let [one, two] = us.map(median);
        // Rate ∝ ranks ÷ call time, so efficiency = rate₂ ÷ (2 · rate₁).
        out.set("dist.scaling_eff", one / two);

        let call_ms = tracer.median_us("dist.train_data_parallel") * 1e-3;
        Ladder {
            unit: "ms",
            rungs: vec![
                ("train_data_parallel, per step", call_ms / DIST_STEPS as f64),
                (
                    "data, forward, backward, all-reduce, optim",
                    data + forward + backward + wait + optim,
                ),
            ],
            complete: true,
        }
    }
}

/// Interleaved call pairs behind `dist.scaling_eff`.
const SCALING_PAIRS: usize = 4;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_check_compares_first_and_last_tenth() {
        let falling: Vec<f32> = (0..40).map(|i| 1.0 - 0.01 * i as f32).collect();
        assert!(loss_fell(&falling).is_ok());
        let rising: Vec<f32> = falling.iter().rev().copied().collect();
        assert!(loss_fell(&rising).is_err());
        assert!(loss_fell(&[f32::NAN; 40]).is_err(), "NaN is not a fall");
        assert!(loss_fell(&rising[..19]).is_ok(), "too few steps to judge");
    }
}
