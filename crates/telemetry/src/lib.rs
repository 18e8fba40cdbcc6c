//! # mfn-telemetry
//!
//! Lightweight, thread-safe observability for the MeshfreeFlowNet
//! reproduction: counters, gauges, scoped wall-clock spans, structured
//! per-step trainer metrics, and the one latency [`Histogram`] the server
//! and the load generator share.
//!
//! The design goals, in order:
//!
//! 1. **Near-zero overhead when disabled.** The default [`Recorder`] has no
//!    destination and every record call exits after a single branch, so
//!    instrumented hot loops (the gradient step) pay
//!    essentially nothing when nobody is listening.
//! 2. **Test-friendly capture.** [`Recorder::memory`] keeps a bounded ring
//!    buffer of events in a [`MemorySink`], letting tests assert on per-step
//!    metrics (loss trajectories, gradient norms, all-reduce waits) instead
//!    of coarse epoch means.
//! 3. **Machine-readable runs.** [`Recorder::jsonl`] writes one JSON object
//!    per event to a file, giving the bench harness a replayable record of
//!    every training run. Lines are written by the workspace's one JSON
//!    writer, `serde_json`, through [`Event`]'s `Serialize`.
//!
//! The crate sits below every crate that records (core, dist, serve and
//! bench depend on it); its only dependencies are `serde` and `serde_json`.
//!
//! ## JSONL schema
//!
//! Every line is a single compact JSON object with its `"type"` discriminator
//! first; a non-finite float is written as `null`:
//!
//! ```json
//! {"type":"train_step","step":7,"epoch":0,"rank":0,"samples":4,"loss_total":0.91,...,"samples_per_sec":812.5}
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
pub use sink::MemorySink;
