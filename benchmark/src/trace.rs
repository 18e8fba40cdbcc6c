//! Spans around the harness's calls into each layer, and the additive check
//! over the self times derived from them.
//!
//! Spans are recorded from the benchmark's own code only — the program under
//! test is not instrumented — kept in memory, and written as JSON lines when
//! the run ends.

use serde::Serialize;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<crate>.<what>` of the call.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the span this call was made from.
    pub parent: Option<usize>,
    /// Index of the request (or step) the call served.
    pub request_id: u64,
}

#[derive(Serialize)]
struct SpanLine {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request_id: u64,
    self_ns: u64,
}

/// In-memory span sink shared by the load-generator threads.
pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { t0: Instant::now(), spans: Mutex::new(Vec::new()) }
    }
}

/// Where in the trace a call is made from: the sink (absent in an untraced
/// run), the span the call nests under, and the request it serves.
#[derive(Clone, Copy)]
pub struct At<'a> {
    tracer: Option<&'a Tracer>,
    parent: Option<usize>,
    request_id: u64,
}

impl<'a> At<'a> {
    /// A place outside every span, serving request `request_id`.
    pub fn root(tracer: Option<&'a Tracer>, request_id: u64) -> Self {
        At { tracer, parent: None, request_id }
    }

    /// Runs `f` inside a span called `name` (bare when the run is untraced).
    /// `f` receives the place inside the new span, for nested calls.
    pub fn span<R>(self, name: &'static str, f: impl FnOnce(At<'a>) -> R) -> R {
        let Some(t) = self.tracer else { return f(self) };
        let id = {
            let mut spans = t.lock();
            spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: self.parent,
                request_id: self.request_id,
            });
            spans.len() - 1
        };
        let start_ns = t.t0.elapsed().as_nanos() as u64;
        let out = f(At { parent: Some(id), ..self });
        let end_ns = t.t0.elapsed().as_nanos() as u64;
        let mut spans = t.lock();
        spans[id].start_ns = start_ns;
        spans[id].end_ns = end_ns;
        out
    }
}

impl Tracer {
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("span list is only pushed to and patched, never left torn")
    }

    /// Durations (µs) of every span called `name`, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.lock()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-3)
            .collect()
    }

    /// Median duration (µs) of the spans called `name`; 0 when there is none.
    pub fn median_us(&self, name: &str) -> f64 {
        let d = self.durations_us(name);
        if d.is_empty() {
            0.0
        } else {
            crate::measure::median(d)
        }
    }

    /// Self time of every span: its duration minus its direct children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let spans = self.lock();
        let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let own = self.self_ns();
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, self_ns) in self.lock().iter().zip(own) {
            let line = SpanLine {
                name: s.name,
                start_ns: s.start_ns,
                end_ns: s.end_ns,
                parent: s.parent,
                request_id: s.request_id,
                self_ns,
            };
            let json = serde_json::to_string(&line).map_err(std::io::Error::other)?;
            writeln!(w, "{json}")?;
        }
        w.flush()
    }
}

/// The replay ladder of one workload: the median time of the same operation
/// at successively lower entry points, each rung timed directly and on its
/// own. A rung's self time is its time minus the next rung's; those
/// differences sum to the top rung by construction, so what the additive
/// check tests is that they are all non-negative.
#[derive(Debug, Clone)]
pub struct Ladder {
    /// Unit of the rung times.
    pub unit: &'static str,
    /// `(entry point, median time)`, top rung first.
    pub rungs: Vec<(&'static str, f64)>,
    /// The bottom rung is a sum of directly timed parts meant to cover the
    /// rung above it (the trainer's phases cover a step), so a gap between
    /// the two counts as an error in either direction.
    pub complete: bool,
}

/// Largest [`Ladder::additive_error`] that passes.
pub const ADDITIVE_TOLERANCE: f64 = 0.15;

impl Ladder {
    /// The worst excess of a rung over the rung above it, as a share of the
    /// top rung: a lower entry point that measures slower than the one that
    /// calls it is not replaying the same work. On a [`complete`] ladder the
    /// bottom rung may not fall short of the rung above it either.
    ///
    /// [`complete`]: Ladder::complete
    pub fn additive_error(&self) -> f64 {
        let top = self.rungs[0].1;
        let last = self.rungs.len().saturating_sub(2);
        let gaps = self.rungs.windows(2).enumerate().map(|(k, pair)| {
            let excess = pair[1].1 - pair[0].1;
            if self.complete && k == last {
                excess.abs()
            } else {
                excess.max(0.0)
            }
        });
        gaps.fold(0.0, f64::max) / top
    }

    /// Prints the rungs, their self times and the verdict on stderr.
    pub fn report(&self) {
        let (unit, top) = (self.unit, self.rungs[0].1);
        eprintln!(
            "replay ladder ({unit}): rung, time, self time, self time as a share of the top rung"
        );
        for (k, (name, time)) in self.rungs.iter().enumerate() {
            let own = time - self.rungs.get(k + 1).map_or(0.0, |below| below.1);
            eprintln!("  {name:<44} {time:>12.3} {own:>12.3} {:>6.1} %", 100.0 * own / top);
        }
        let err = self.additive_error();
        let verdict = if err <= ADDITIVE_TOLERANCE { "PASS" } else { "FAIL" };
        eprintln!(
            "  additive check: worst rung mismatch {:.1} % of the top rung -> {verdict}",
            100.0 * err
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let t = Tracer::default();
        At::root(Some(&t), 7).span("op", |at| {
            at.span("child", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        let own = t.self_ns();
        let op = t.durations_us("op")[0] * 1e3;
        let child = t.durations_us("child")[0] * 1e3;
        assert!(child >= 2e6 && op >= child + 1e6);
        assert!((own[0] as f64 - (op - child)).abs() < 1.0);
        assert!((own[1] as f64 - child).abs() < 1.0);
        assert_eq!(t.median_us("absent"), 0.0);
    }

    #[test]
    fn untraced_span_just_runs_the_closure() {
        assert!(At::root(None, 0).span("op", |at| at.parent.is_none()));
    }

    #[test]
    fn additive_check_fails_on_an_inverted_rung_or_an_uncovered_step() {
        let rungs = |v: &[f64]| v.iter().map(|t| ("rung", *t)).collect::<Vec<_>>();
        let ladder = |v: &[f64], complete| Ladder { unit: "us", rungs: rungs(v), complete };
        // Each rung below the one above it: nothing to object to, however
        // much of the top rung the bottom one leaves unexplained.
        assert_eq!(ladder(&[100.0, 60.0, 10.0], false).additive_error(), 0.0);
        // A lower rung slower than its caller, by 10 % and by 20 % of the top.
        assert!((ladder(&[100.0, 50.0, 60.0], false).additive_error() - 0.10).abs() < 1e-12);
        assert!(ladder(&[100.0, 120.0, 60.0], false).additive_error() > ADDITIVE_TOLERANCE);
        // Parts meant to cover the operation may not fall short of it either.
        assert!((ladder(&[100.0, 90.0], true).additive_error() - 0.10).abs() < 1e-12);
        assert!(ladder(&[100.0, 70.0], true).additive_error() > ADDITIVE_TOLERANCE);
        assert!(ladder(&[100.0, 130.0], true).additive_error() > ADDITIVE_TOLERANCE);
    }
}
