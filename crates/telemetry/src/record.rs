//! Structured event types and their JSONL encoding.

use serde::{Serialize, Value};

/// Per-gradient-step metrics emitted by the one training step,
/// `mfn-core::Trainer` — which every `mfn-dist` worker is — whichever model it
/// trains (MeshfreeFlowNet or Baseline (II)).
///
/// All timings are wall-clock seconds for that step only. `rank` is 0 for
/// single-process training.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StepMetrics {
    /// Global step index (monotonic per trainer / per worker).
    pub step: u64,
    /// Epoch this step belongs to (0-based).
    pub epoch: usize,
    /// Worker rank (0 for single-process training).
    pub rank: usize,
    /// Combined loss (Eqn. 10).
    pub loss_total: f32,
    /// Prediction loss component (Eqn. 8).
    pub loss_prediction: f32,
    /// Equation loss component (Eqn. 9).
    pub loss_equation: f32,
    /// Gradient L2 norm before clipping.
    pub grad_norm_pre: f32,
    /// Gradient L2 norm after clipping (equals `grad_norm_pre` when no
    /// clipping was applied).
    pub grad_norm_post: f32,
    /// Learning rate used for this step.
    pub lr: f32,
    /// Number of training samples in the batch (patches).
    pub samples: usize,
    /// Seconds spent assembling the batch (patch extraction + queries).
    pub data_s: f64,
    /// Seconds in the forward pass (graph build + loss).
    pub forward_s: f64,
    /// Seconds in the backward pass (backprop + gradient gather).
    pub backward_s: f64,
    /// Seconds in the gradient exchange: the ring all-reduce for a
    /// data-parallel rank, a no-op's nanoseconds for single-process.
    pub allreduce_wait_s: f64,
    /// Seconds in the optimizer update (clip + Adam).
    pub optimizer_s: f64,
}

impl StepMetrics {
    /// Total wall-clock seconds accounted to this step.
    pub fn total_seconds(&self) -> f64 {
        self.data_s + self.forward_s + self.backward_s + self.allreduce_wait_s + self.optimizer_s
    }

    /// Samples per second for this step (0 if no time was recorded).
    pub fn samples_per_sec(&self) -> f64 {
        let t = self.total_seconds();
        if t > 0.0 {
            self.samples as f64 / t
        } else {
            0.0
        }
    }
}

/// A telemetry event: what a [`Recorder`](crate::Recorder) records.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// One trainer gradient step.
    TrainStep(StepMetrics),
    /// A named monotonic counter increment.
    Counter {
        /// Counter name.
        name: &'static str,
        /// Increment (may be any magnitude, but semantically additive).
        delta: u64,
    },
    /// A named point-in-time value.
    Gauge {
        /// Gauge name.
        name: &'static str,
        /// Observed value.
        value: f64,
    },
    /// A named scoped wall-clock timing.
    Span {
        /// Span name.
        name: &'static str,
        /// Elapsed seconds.
        seconds: f64,
    },
}

/// One `(key, value)` pair of a JSON line.
fn field(key: &str, value: impl Serialize) -> (String, Value) {
    (key.to_string(), value.to_value())
}

/// A line is one object with its `type` first, then the event's fields; a
/// train step also carries its derived `samples_per_sec`. Non-finite floats
/// are written as `null`.
impl Serialize for Event {
    fn to_value(&self) -> Value {
        let fields = match *self {
            Event::TrainStep(m) => vec![
                field("type", "train_step"),
                field("step", m.step),
                field("epoch", m.epoch),
                field("rank", m.rank),
                field("samples", m.samples),
                field("loss_total", m.loss_total),
                field("loss_prediction", m.loss_prediction),
                field("loss_equation", m.loss_equation),
                field("grad_norm_pre", m.grad_norm_pre),
                field("grad_norm_post", m.grad_norm_post),
                field("lr", m.lr),
                field("data_s", m.data_s),
                field("forward_s", m.forward_s),
                field("backward_s", m.backward_s),
                field("allreduce_wait_s", m.allreduce_wait_s),
                field("optimizer_s", m.optimizer_s),
                field("samples_per_sec", m.samples_per_sec()),
            ],
            Event::Counter { name, delta } => {
                vec![field("type", "counter"), field("name", name), field("delta", delta)]
            }
            Event::Gauge { name, value } => {
                vec![field("type", "gauge"), field("name", name), field("value", value)]
            }
            Event::Span { name, seconds } => {
                vec![field("type", "span"), field("name", name), field("seconds", seconds)]
            }
        };
        Value::Object(fields)
    }
}

impl Event {
    /// Encodes the event as a single-line JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("an event always serializes")
    }
}
