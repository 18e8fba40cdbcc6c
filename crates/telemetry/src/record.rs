//! Structured event types and their JSONL encoding.

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

/// A telemetry event. Sinks receive these by reference.
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

/// Escapes a string for inclusion in a JSON string literal.
fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Formats a float as a JSON-legal number (JSON has no NaN/Inf; those are
/// mapped to `null` so downstream parsers never choke on a bad step).
fn json_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        // `{:?}` prints enough digits to round-trip and always includes a
        // decimal point or exponent.
        out.push_str(&format!("{v:?}"));
    } else {
        out.push_str("null");
    }
}

impl Event {
    /// Encodes the event as a single-line JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(160);
        match self {
            Event::TrainStep(m) => {
                s.push_str("{\"type\":\"train_step\"");
                s.push_str(&format!(
                    ",\"step\":{},\"epoch\":{},\"rank\":{},\"samples\":{}",
                    m.step, m.epoch, m.rank, m.samples
                ));
                for (k, v) in [
                    ("loss_total", m.loss_total as f64),
                    ("loss_prediction", m.loss_prediction as f64),
                    ("loss_equation", m.loss_equation as f64),
                    ("grad_norm_pre", m.grad_norm_pre as f64),
                    ("grad_norm_post", m.grad_norm_post as f64),
                    ("lr", m.lr as f64),
                    ("data_s", m.data_s),
                    ("forward_s", m.forward_s),
                    ("backward_s", m.backward_s),
                    ("allreduce_wait_s", m.allreduce_wait_s),
                    ("optimizer_s", m.optimizer_s),
                    ("samples_per_sec", m.samples_per_sec()),
                ] {
                    s.push_str(",\"");
                    s.push_str(k);
                    s.push_str("\":");
                    json_f64(v, &mut s);
                }
                s.push('}');
            }
            Event::Counter { name, delta } => {
                s.push_str("{\"type\":\"counter\",\"name\":\"");
                json_escape(name, &mut s);
                s.push_str(&format!("\",\"delta\":{delta}}}"));
            }
            Event::Gauge { name, value } => {
                s.push_str("{\"type\":\"gauge\",\"name\":\"");
                json_escape(name, &mut s);
                s.push_str("\",\"value\":");
                json_f64(*value, &mut s);
                s.push('}');
            }
            Event::Span { name, seconds } => {
                s.push_str("{\"type\":\"span\",\"name\":\"");
                json_escape(name, &mut s);
                s.push_str("\",\"seconds\":");
                json_f64(*seconds, &mut s);
                s.push('}');
            }
        }
        s
    }
}
