//! The [`Recorder`] handle and timing helpers.

use crate::record::{Event, StepMetrics};
use crate::sink::MemorySink;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Cheaply-clonable handle through which instrumented code emits events.
///
/// A `Recorder` holds its destination: nothing (the default,
/// [`Recorder::null`], where every record call returns after one branch), a
/// [`MemorySink`], or a buffered JSONL file. Clone it freely — clones share
/// the destination, which is how the data-parallel trainer gives every
/// worker thread the same one.
#[derive(Clone, Default)]
pub struct Recorder {
    dest: Dest,
}

#[derive(Clone, Default)]
enum Dest {
    #[default]
    Off,
    Memory(Arc<MemorySink>),
    /// One JSON line per event; the writer flushes when the last clone drops.
    Jsonl(Arc<Mutex<BufWriter<File>>>),
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder").field("enabled", &self.is_enabled()).finish()
    }
}

impl Recorder {
    /// A disabled recorder (the default): records nothing, costs nothing.
    pub fn null() -> Self {
        Recorder::default()
    }

    /// A recorder buffering up to `capacity` events in memory. Returns the
    /// sink too so callers (tests) can inspect what was recorded.
    pub fn memory(capacity: usize) -> (Self, Arc<MemorySink>) {
        let sink = Arc::new(MemorySink::new(capacity));
        (Recorder { dest: Dest::Memory(sink.clone()) }, sink)
    }

    /// A recorder writing one JSON line per event to the file at `path`
    /// (truncates). Lines are buffered until [`Recorder::flush`] or until
    /// the last clone drops.
    pub fn jsonl(path: &Path) -> std::io::Result<Self> {
        let file = BufWriter::new(File::create(path)?);
        Ok(Recorder { dest: Dest::Jsonl(Arc::new(Mutex::new(file))) })
    }

    /// Whether this recorder keeps events (false for [`Recorder::null`]).
    pub fn is_enabled(&self) -> bool {
        !matches!(self.dest, Dest::Off)
    }

    fn record(&self, event: Event) {
        match &self.dest {
            Dest::Off => {}
            Dest::Memory(sink) => sink.push(event),
            // Write errors are swallowed: telemetry must never take down a run.
            Dest::Jsonl(file) => {
                let _ = writeln!(file.lock().expect("telemetry lock"), "{}", event.to_json());
            }
        }
    }

    /// Records one trainer gradient step.
    pub fn train_step(&self, metrics: StepMetrics) {
        self.record(Event::TrainStep(metrics));
    }

    /// Increments the counter `name` by `delta`.
    pub fn incr(&self, name: &'static str, delta: u64) {
        self.record(Event::Counter { name, delta });
    }

    /// Records the current value of gauge `name`.
    pub fn gauge(&self, name: &'static str, value: f64) {
        self.record(Event::Gauge { name, value });
    }

    /// Records a completed span of `seconds` under `name`.
    pub fn span_seconds(&self, name: &'static str, seconds: f64) {
        self.record(Event::Span { name, seconds });
    }

    /// Starts a scoped timer that records a [`Event::Span`] when dropped.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        SpanGuard { recorder: self.clone(), name, start: Instant::now() }
    }

    /// Writes buffered JSONL lines to the file (a no-op for the others).
    pub fn flush(&self) {
        if let Dest::Jsonl(file) = &self.dest {
            let _ = file.lock().expect("telemetry lock").flush();
        }
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
