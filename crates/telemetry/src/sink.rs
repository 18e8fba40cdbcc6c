//! The bounded in-memory event ring behind [`Recorder::memory`](crate::Recorder::memory).

use crate::record::{Event, StepMetrics};
use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

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

    /// Appends `event`, dropping (and counting) the oldest when full.
    pub(crate) fn push(&self, event: Event) {
        let mut inner = self.inner.lock().expect("telemetry lock");
        if inner.events.len() == self.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back(event);
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

    /// Dumps every buffered event to `path` in the JSONL format
    /// [`Recorder::jsonl`](crate::Recorder::jsonl) writes, oldest first. The
    /// chaos-test CI job uses this to attach a failed run's in-memory
    /// telemetry as an artifact.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let file = File::create(path)?;
        let mut w = BufWriter::new(file);
        for e in self.inner.lock().expect("telemetry lock").events.iter() {
            writeln!(w, "{}", e.to_json())?;
        }
        w.flush()
    }
}
