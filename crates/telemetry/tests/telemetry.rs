//! Integration tests for mfn-telemetry: recorder semantics, thread safety,
//! and JSONL lines, parsed back with `serde_json` into typed line structs.

use mfn_telemetry::{Event, Recorder, StepMetrics};
use serde::{DeError, Deserialize, Value};

/// A parsed JSONL line: its keys in order, its `type`, and its fields as `T`.
struct Line<T> {
    keys: Vec<String>,
    kind: String,
    body: T,
}

impl<T: Deserialize> Deserialize for Line<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let obj = value.as_object().ok_or_else(|| DeError::msg("a line is one object"))?;
        Ok(Line {
            keys: obj.iter().map(|(key, _)| key.clone()).collect(),
            kind: serde::get_field(obj, "type")?,
            body: T::from_value(value)?,
        })
    }
}

#[derive(Deserialize)]
struct TrainStepLine {
    step: u64,
    epoch: usize,
    rank: usize,
    samples: usize,
    loss_total: f32,
    loss_prediction: f32,
    loss_equation: f32,
    grad_norm_pre: f32,
    grad_norm_post: f32,
    lr: f32,
    data_s: f64,
    forward_s: f64,
    backward_s: f64,
    allreduce_wait_s: f64,
    optimizer_s: f64,
    samples_per_sec: f64,
}

/// The fields of a counter, gauge or span line.
#[derive(Deserialize)]
struct NamedLine {
    name: String,
    #[serde(default)]
    delta: u64,
    #[serde(default)]
    value: f64,
    #[serde(default)]
    seconds: f64,
}

const TRAIN_STEP_KEYS: [&str; 17] = [
    "type",
    "step",
    "epoch",
    "rank",
    "samples",
    "loss_total",
    "loss_prediction",
    "loss_equation",
    "grad_norm_pre",
    "grad_norm_post",
    "lr",
    "data_s",
    "forward_s",
    "backward_s",
    "allreduce_wait_s",
    "optimizer_s",
    "samples_per_sec",
];

fn parse<T: Deserialize>(line: &str) -> Line<T> {
    serde_json::from_str(line).unwrap_or_else(|e| panic!("{e}: {line}"))
}

/// Equal values; a non-finite value is written as `null`, read back as NaN.
fn same(got: f64, want: f64) -> bool {
    got == want || (got.is_nan() && !want.is_finite())
}

/// Asserts that `line` is `event`'s JSON: the `type` first, exactly the
/// expected keys in order, and every value as recorded.
fn assert_line_is(line: &str, event: &Event) {
    match *event {
        Event::TrainStep(m) => {
            let l: Line<TrainStepLine> = parse(line);
            assert_eq!(l.keys, TRAIN_STEP_KEYS, "{line}");
            assert_eq!(l.kind, "train_step");
            let b = l.body;
            assert_eq!((b.step, b.epoch, b.rank, b.samples), (m.step, m.epoch, m.rank, m.samples));
            let pairs = [
                (b.loss_total as f64, m.loss_total as f64),
                (b.loss_prediction as f64, m.loss_prediction as f64),
                (b.loss_equation as f64, m.loss_equation as f64),
                (b.grad_norm_pre as f64, m.grad_norm_pre as f64),
                (b.grad_norm_post as f64, m.grad_norm_post as f64),
                (b.lr as f64, m.lr as f64),
                (b.data_s, m.data_s),
                (b.forward_s, m.forward_s),
                (b.backward_s, m.backward_s),
                (b.allreduce_wait_s, m.allreduce_wait_s),
                (b.optimizer_s, m.optimizer_s),
                (b.samples_per_sec, m.samples_per_sec()),
            ];
            for (i, (got, want)) in pairs.into_iter().enumerate() {
                assert!(same(got, want), "{} = {got}, recorded {want}", TRAIN_STEP_KEYS[i + 5]);
            }
        }
        Event::Counter { name, delta } => {
            let l: Line<NamedLine> = parse(line);
            assert_eq!(l.keys, ["type", "name", "delta"], "{line}");
            assert_eq!(l.kind, "counter");
            assert_eq!((l.body.name.as_str(), l.body.delta), (name, delta));
        }
        Event::Gauge { name, value } => {
            let l: Line<NamedLine> = parse(line);
            assert_eq!(l.keys, ["type", "name", "value"], "{line}");
            assert_eq!(l.kind, "gauge");
            assert_eq!(l.body.name, name);
            assert!(same(l.body.value, value), "{line}");
        }
        Event::Span { name, seconds } => {
            let l: Line<NamedLine> = parse(line);
            assert_eq!(l.keys, ["type", "name", "seconds"], "{line}");
            assert_eq!(l.kind, "span");
            assert_eq!(l.body.name, name);
            assert!(same(l.body.seconds, seconds), "{line}");
        }
    }
}

fn sample_step(step: u64) -> StepMetrics {
    StepMetrics {
        step,
        epoch: (step / 4) as usize,
        rank: 0,
        loss_total: 1.0 / (step as f32 + 1.0),
        loss_prediction: 0.8 / (step as f32 + 1.0),
        loss_equation: 0.2 / (step as f32 + 1.0),
        grad_norm_pre: 2.5,
        grad_norm_post: 1.0,
        lr: 1e-2,
        samples: 4,
        data_s: 1e-4,
        forward_s: 2e-3,
        backward_s: 3e-3,
        allreduce_wait_s: 0.0,
        optimizer_s: 5e-4,
    }
}

#[test]
fn memory_sink_ring_buffer_bounds_and_drop_count() {
    let (rec, sink) = Recorder::memory(8);
    for s in 0..20u64 {
        rec.train_step(sample_step(s));
    }
    assert_eq!(sink.len(), 8);
    assert_eq!(sink.dropped(), 12);
    // Oldest events were evicted: the buffer holds steps 12..20.
    let steps: Vec<u64> = sink.train_steps().iter().map(|m| m.step).collect();
    assert_eq!(steps, (12..20).collect::<Vec<_>>());
}

#[test]
fn memory_sink_accessors_filter_by_event_kind() {
    let (rec, sink) = Recorder::memory(64);
    rec.train_step(sample_step(0));
    rec.incr("batches", 3);
    rec.incr("batches", 2);
    rec.incr("other", 100);
    rec.gauge("lr", 0.01);
    rec.gauge("lr", 0.005);
    rec.span_seconds("epoch", 1.5);
    rec.span_seconds("epoch", 0.5);
    assert_eq!(sink.train_steps().len(), 1);
    assert_eq!(sink.counter_total("batches"), 5);
    assert_eq!(sink.counter_total("missing"), 0);
    assert_eq!(sink.gauge("lr"), Some(0.005));
    assert!((sink.span_total("epoch") - 2.0).abs() < 1e-12);
}

#[test]
fn span_guard_records_on_drop() {
    let (rec, sink) = Recorder::memory(8);
    {
        let _g = rec.span("scoped");
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let total = sink.span_total("scoped");
    assert!(total >= 0.002, "span under-measured: {total}");
    assert_eq!(sink.events().len(), 1);
}

#[test]
fn null_recorder_is_disabled_and_silent() {
    let rec = Recorder::null();
    assert!(!rec.is_enabled());
    // None of these should panic or write anywhere.
    rec.train_step(sample_step(0));
    rec.incr("n", 1);
    rec.gauge("g", 1.0);
    rec.span_seconds("s", 1.0);
    rec.flush();
}

#[test]
fn recorder_is_shared_across_threads() {
    let (rec, sink) = Recorder::memory(4096);
    std::thread::scope(|scope| {
        for rank in 0..4usize {
            let rec = rec.clone();
            scope.spawn(move || {
                for s in 0..100u64 {
                    let mut m = sample_step(s);
                    m.rank = rank;
                    rec.train_step(m);
                }
            });
        }
    });
    let steps = sink.train_steps();
    assert_eq!(steps.len(), 400);
    for rank in 0..4 {
        assert_eq!(steps.iter().filter(|m| m.rank == rank).count(), 100);
    }
}

/// Every variant, written by both JSONL writers — the file recorder and a
/// memory sink's dump — parses back to the recorded values; NaN and
/// infinity are written as `null`.
#[test]
fn jsonl_sink_lines_are_valid_json_with_expected_fields() {
    let mut odd = sample_step(3);
    odd.grad_norm_pre = f32::NAN;
    odd.loss_equation = f32::INFINITY;
    let events = [
        Event::TrainStep(sample_step(3)),
        Event::TrainStep(odd),
        Event::Counter { name: "frames", delta: 2 },
        Event::Gauge { name: "nu", value: 1.7 },
        Event::Span { name: "simulate", seconds: 0.25 },
        Event::Gauge { name: "bad", value: f64::NAN },
    ];
    let dir = std::env::temp_dir().join(format!("mfn_telemetry_jsonl_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let (file_path, dump_path) = (dir.join("recorder.jsonl"), dir.join("dump.jsonl"));
    let rec = Recorder::jsonl(&file_path).expect("create jsonl recorder");
    let (mem, sink) = Recorder::memory(16);
    for r in [&rec, &mem] {
        for e in &events {
            match *e {
                Event::TrainStep(m) => r.train_step(m),
                Event::Counter { name, delta } => r.incr(name, delta),
                Event::Gauge { name, value } => r.gauge(name, value),
                Event::Span { name, seconds } => r.span_seconds(name, seconds),
            }
        }
    }
    drop(rec); // the last clone flushes
    sink.write_jsonl(&dump_path).expect("dump");
    for path in [&file_path, &dump_path] {
        let text = std::fs::read_to_string(path).expect("read jsonl");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), events.len(), "one line per event: {text}");
        for (line, e) in lines.iter().zip(&events) {
            assert_line_is(line, e);
        }
        assert!(lines[5].ends_with("\"value\":null}"), "{}", lines[5]);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn event_json_escapes_special_characters() {
    let name = "weird\"name\\with\ncontrol\u{1}";
    let e = Event::Counter { name, delta: 1 };
    let s = e.to_json();
    assert_line_is(&s, &e);
    assert!(s.contains("\\\"name\\\\with\\ncontrol\\u0001"), "{s}");
}

#[test]
fn step_metrics_throughput_math() {
    let m = sample_step(0);
    let t = m.total_seconds();
    assert!((t - (1e-4 + 2e-3 + 3e-3 + 5e-4)).abs() < 1e-12);
    assert!((m.samples_per_sec() - 4.0 / t).abs() < 1e-6);
    let zero = StepMetrics::default();
    assert_eq!(zero.samples_per_sec(), 0.0);
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ring_buffer_never_exceeds_capacity(cap in 1usize..64, n in 0usize..256) {
            let (rec, sink) = Recorder::memory(cap);
            for s in 0..n as u64 {
                rec.train_step(sample_step(s));
            }
            prop_assert!(sink.len() <= cap);
            prop_assert_eq!(sink.len(), n.min(cap));
            prop_assert_eq!(sink.dropped(), n.saturating_sub(cap) as u64);
        }

        #[test]
        fn gauge_json_is_always_valid(value in -1e12f64..1e12) {
            let e = Event::Gauge { name: "g", value };
            assert_line_is(&e.to_json(), &e);
        }

        #[test]
        fn train_step_json_is_always_valid(
            loss in -1e6f32..1e6,
            norm in 0.0f32..1e6,
            secs in 0.0f64..1e3,
        ) {
            let mut m = sample_step(1);
            m.loss_total = loss;
            m.grad_norm_pre = norm;
            m.forward_s = secs;
            let e = Event::TrainStep(m);
            assert_line_is(&e.to_json(), &e);
        }
    }
}
