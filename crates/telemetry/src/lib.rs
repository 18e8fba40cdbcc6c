//! # mfn-telemetry
//!
//! Lightweight, thread-safe observability for the MeshfreeFlowNet
//! reproduction: counters, gauges, scoped wall-clock spans, structured
//! per-step trainer metrics, and the one latency [`Histogram`] the server
//! and the load generator share.
//!
//! The design goals, in order:
//!
//! 1. **Near-zero overhead when disabled.** The default [`Recorder`] wraps a
//!    [`NullSink`] and every record call exits after a single branch, so
//!    instrumented hot loops (the gradient step) pay
//!    essentially nothing when nobody is listening.
//! 2. **Test-friendly capture.** [`MemorySink`] keeps a bounded ring buffer
//!    of events, letting tests assert on per-step metrics (loss trajectories,
//!    gradient norms, all-reduce waits) instead of coarse epoch means.
//! 3. **Machine-readable runs.** [`JsonlSink`] appends one JSON object per
//!    event to a file, giving the bench harness a replayable record of every
//!    training run without pulling in any serialization dependency.
//!
//! The crate is dependency-free on purpose: it sits below every crate that
//! records (core, dist, serve and bench depend on it).
//!
//! ## JSONL schema
//!
//! Every line is a single JSON object with a `"type"` discriminator:
//!
//! ```json
//! {"type":"train_step","step":7,"epoch":0,"rank":0,"loss_total":0.91,...}
//! {"type":"counter","name":"batches","delta":1}
//! {"type":"gauge","name":"lr","value":0.01}
//! {"type":"span","name":"epoch","seconds":1.25}
//! ```

mod histogram;
mod record;
mod recorder;
mod sink;

pub use histogram::{Histogram, Snapshot};
pub use record::{Event, StepMetrics};
pub use recorder::{Recorder, SpanGuard, Stopwatch};
pub use sink::{JsonlSink, MemorySink, NullSink, Sink};
