//! The [`Recorder`] handle and timing helpers.

use crate::record::{Event, StepMetrics};
use crate::sink::{JsonlSink, MemorySink, NullSink, Sink};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Cheaply-clonable handle through which instrumented code emits events.
///
/// A `Recorder` is an `Arc` around a [`Sink`] plus an `enabled` flag; the
/// default ([`Recorder::null`]) is disabled and every record call returns
/// after one branch. Clone it freely — clones share the sink, which is how
/// the data-parallel trainer gives every worker thread the same destination.
#[derive(Clone)]
pub struct Recorder {
    sink: Arc<dyn Sink>,
    enabled: bool,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::null()
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder").field("enabled", &self.enabled).finish()
    }
}

impl Recorder {
    /// A disabled recorder (the default): records nothing, costs nothing.
    pub fn null() -> Self {
        Recorder { sink: Arc::new(NullSink), enabled: false }
    }

    /// A recorder buffering up to `capacity` events in memory. Returns the
    /// sink too so callers (tests) can inspect what was recorded.
    pub fn memory(capacity: usize) -> (Self, Arc<MemorySink>) {
        let sink = Arc::new(MemorySink::new(capacity));
        (Recorder { sink: sink.clone(), enabled: true }, sink)
    }

    /// A recorder appending JSONL to the file at `path` (truncates).
    pub fn jsonl(path: &Path) -> std::io::Result<Self> {
        let sink = Arc::new(JsonlSink::create(path)?);
        Ok(Recorder { sink, enabled: true })
    }

    /// Wraps an arbitrary sink.
    pub fn with_sink(sink: Arc<dyn Sink>) -> Self {
        Recorder { sink, enabled: true }
    }

    /// Whether this recorder forwards events (false for [`Recorder::null`]).
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records one trainer gradient step.
    pub fn train_step(&self, metrics: StepMetrics) {
        if self.enabled {
            self.sink.record(&Event::TrainStep(metrics));
        }
    }

    /// Increments the counter `name` by `delta`.
    pub fn incr(&self, name: &'static str, delta: u64) {
        if self.enabled {
            self.sink.record(&Event::Counter { name, delta });
        }
    }

    /// Records the current value of gauge `name`.
    pub fn gauge(&self, name: &'static str, value: f64) {
        if self.enabled {
            self.sink.record(&Event::Gauge { name, value });
        }
    }

    /// Records a completed span of `seconds` under `name`.
    pub fn span_seconds(&self, name: &'static str, seconds: f64) {
        if self.enabled {
            self.sink.record(&Event::Span { name, seconds });
        }
    }

    /// Starts a scoped timer that records a [`Event::Span`] when dropped.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        SpanGuard { recorder: self.clone(), name, start: Instant::now() }
    }

    /// Times `f` and records the elapsed seconds as a span named `name`.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.span_seconds(name, start.elapsed().as_secs_f64());
        out
    }

    /// Flushes the underlying sink.
    pub fn flush(&self) {
        self.sink.flush();
    }
}

/// Scoped timer returned by [`Recorder::span`]; records on drop.
pub struct SpanGuard {
    recorder: Recorder,
    name: &'static str,
    start: Instant,
}

impl SpanGuard {
    /// Elapsed seconds so far.
    pub fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.recorder.span_seconds(self.name, self.start.elapsed().as_secs_f64());
    }
}

/// Minimal manual stopwatch for splitting one hot loop into phases without
/// repeated `Instant::now()` bookkeeping at every call site.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    last: Instant,
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::start()
    }
}

impl Stopwatch {
    /// Starts (or restarts) the watch.
    pub fn start() -> Self {
        Stopwatch { last: Instant::now() }
    }

    /// Seconds since the last lap (or start), and resets the lap marker.
    pub fn lap(&mut self) -> f64 {
        let now = Instant::now();
        let dt = now.duration_since(self.last).as_secs_f64();
        self.last = now;
        dt
    }
}
