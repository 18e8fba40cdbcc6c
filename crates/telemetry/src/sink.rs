//! Pluggable event sinks: no-op, bounded in-memory ring buffer, and
//! JSON-lines file writer.

use crate::record::{Event, StepMetrics};
use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

/// Destination for telemetry events. Implementations must be cheap and
/// thread-safe: trainers record from multiple worker threads concurrently.
pub trait Sink: Send + Sync {
    /// Consumes one event.
    fn record(&self, event: &Event);

    /// Flushes any buffered output (no-op for in-memory sinks).
    fn flush(&self) {}
}

/// Discards every event. The default sink; recording through it is a single
/// dynamic call that does no work.
#[derive(Debug, Default)]
pub struct NullSink;

impl Sink for NullSink {
    fn record(&self, _event: &Event) {}
}

/// Bounded in-memory ring buffer of events, for tests and in-process
/// inspection. When full, the oldest event is dropped (and counted).
#[derive(Debug)]
pub struct MemorySink {
    inner: Mutex<MemoryInner>,
    capacity: usize,
}

#[derive(Debug)]
struct MemoryInner {
    events: VecDeque<Event>,
    dropped: u64,
}

impl MemorySink {
    /// Creates a sink holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        MemorySink {
            inner: Mutex::new(MemoryInner {
                events: VecDeque::with_capacity(capacity.min(1024)),
                dropped: 0,
            }),
            capacity,
        }
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("telemetry lock").events.len()
    }

    /// True when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of events discarded because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("telemetry lock").dropped
    }

    /// Snapshot of all buffered events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.inner.lock().expect("telemetry lock").events.iter().cloned().collect()
    }

    /// All buffered train-step metrics, oldest first.
    pub fn train_steps(&self) -> Vec<StepMetrics> {
        self.inner
            .lock()
            .expect("telemetry lock")
            .events
            .iter()
            .filter_map(|e| match e {
                Event::TrainStep(m) => Some(*m),
                _ => None,
            })
            .collect()
    }

    /// Sum of all `Counter` deltas recorded under `name`.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.inner
            .lock()
            .expect("telemetry lock")
            .events
            .iter()
            .map(|e| match e {
                Event::Counter { name: n, delta } if *n == name => *delta,
                _ => 0,
            })
            .sum()
    }

    /// Last recorded value of gauge `name`, if any.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.inner.lock().expect("telemetry lock").events.iter().rev().find_map(|e| match e {
            Event::Gauge { name: n, value } if *n == name => Some(*value),
            _ => None,
        })
    }

    /// Total seconds across all `Span` events named `name`.
    pub fn span_total(&self, name: &str) -> f64 {
        self.inner
            .lock()
            .expect("telemetry lock")
            .events
            .iter()
            .map(|e| match e {
                Event::Span { name: n, seconds } if *n == name => *seconds,
                _ => 0.0,
            })
            .sum()
    }

    /// Discards all buffered events (the drop counter is kept).
    pub fn clear(&self) {
        self.inner.lock().expect("telemetry lock").events.clear();
    }

    /// Dumps every buffered event to `path` in the JSONL format
    /// [`JsonlSink`] writes, oldest first. The chaos-test CI job uses this
    /// to attach a failed run's in-memory telemetry as an artifact.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let file = File::create(path)?;
        let mut w = BufWriter::new(file);
        for e in self.inner.lock().expect("telemetry lock").events.iter() {
            writeln!(w, "{}", e.to_json())?;
        }
        w.flush()
    }
}

impl Sink for MemorySink {
    fn record(&self, event: &Event) {
        let mut inner = self.inner.lock().expect("telemetry lock");
        if inner.events.len() == self.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back(event.clone());
    }
}

/// Appends one JSON object per event to a file (the JSONL format consumed by
/// the bench harness). Lines are buffered; call [`Sink::flush`] (or drop the
/// owning `Recorder`) to ensure everything hits disk.
pub struct JsonlSink {
    writer: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Creates (truncating) the file at `path`.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(JsonlSink { writer: Mutex::new(BufWriter::new(file)) })
    }
}

impl Sink for JsonlSink {
    fn record(&self, event: &Event) {
        let mut w = self.writer.lock().expect("telemetry lock");
        // Write errors are swallowed: telemetry must never take down a run.
        let _ = writeln!(w, "{}", event.to_json());
    }

    fn flush(&self) {
        let _ = self.writer.lock().expect("telemetry lock").flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_sink_dumps_buffered_events_as_jsonl() {
        let sink = MemorySink::new(16);
        sink.record(&Event::Counter { name: "dist.failures", delta: 2 });
        sink.record(&Event::Gauge { name: "dist.world", value: 3.0 });
        let dir = std::env::temp_dir().join(format!("mfn_sink_jsonl_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("events.jsonl");
        sink.write_jsonl(&path).expect("write");
        let text = std::fs::read_to_string(&path).expect("read back");
        std::fs::remove_dir_all(&dir).ok();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "one line per buffered event: {text}");
        assert!(lines[0].contains("\"type\":\"counter\"") && lines[0].contains("dist.failures"));
        assert!(lines[1].contains("\"type\":\"gauge\"") && lines[1].contains("dist.world"));
    }
}
