//! Integration tests for mfn-telemetry: sink semantics, thread safety, and
//! JSONL well-formedness (validated with a tiny standalone JSON parser so the
//! crate stays dependency-free).

use mfn_telemetry::{Event, MemorySink, Recorder, Sink, StepMetrics};
use std::sync::Arc;

/// Minimal recursive-descent JSON validity checker (objects, arrays,
/// strings, numbers, booleans, null). Returns Err with position on the
/// first syntax error.
mod json {
    pub fn validate(s: &str) -> Result<(), usize> {
        let b = s.as_bytes();
        let mut i = 0;
        value(b, &mut i)?;
        skip_ws(b, &mut i);
        if i == b.len() {
            Ok(())
        } else {
            Err(i)
        }
    }

    fn skip_ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
            *i += 1;
        }
    }

    fn value(b: &[u8], i: &mut usize) -> Result<(), usize> {
        skip_ws(b, i);
        match b.get(*i) {
            Some(b'{') => object(b, i),
            Some(b'[') => array(b, i),
            Some(b'"') => string(b, i),
            Some(b't') => literal(b, i, b"true"),
            Some(b'f') => literal(b, i, b"false"),
            Some(b'n') => literal(b, i, b"null"),
            Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, i),
            _ => Err(*i),
        }
    }

    fn literal(b: &[u8], i: &mut usize, lit: &[u8]) -> Result<(), usize> {
        if b[*i..].starts_with(lit) {
            *i += lit.len();
            Ok(())
        } else {
            Err(*i)
        }
    }

    fn object(b: &[u8], i: &mut usize) -> Result<(), usize> {
        *i += 1; // '{'
        skip_ws(b, i);
        if b.get(*i) == Some(&b'}') {
            *i += 1;
            return Ok(());
        }
        loop {
            skip_ws(b, i);
            string(b, i)?;
            skip_ws(b, i);
            if b.get(*i) != Some(&b':') {
                return Err(*i);
            }
            *i += 1;
            value(b, i)?;
            skip_ws(b, i);
            match b.get(*i) {
                Some(b',') => *i += 1,
                Some(b'}') => {
                    *i += 1;
                    return Ok(());
                }
                _ => return Err(*i),
            }
        }
    }

    fn array(b: &[u8], i: &mut usize) -> Result<(), usize> {
        *i += 1; // '['
        skip_ws(b, i);
        if b.get(*i) == Some(&b']') {
            *i += 1;
            return Ok(());
        }
        loop {
            value(b, i)?;
            skip_ws(b, i);
            match b.get(*i) {
                Some(b',') => *i += 1,
                Some(b']') => {
                    *i += 1;
                    return Ok(());
                }
                _ => return Err(*i),
            }
        }
    }

    fn string(b: &[u8], i: &mut usize) -> Result<(), usize> {
        if b.get(*i) != Some(&b'"') {
            return Err(*i);
        }
        *i += 1;
        while let Some(&c) = b.get(*i) {
            match c {
                b'"' => {
                    *i += 1;
                    return Ok(());
                }
                b'\\' => {
                    *i += 1;
                    match b.get(*i) {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *i += 1,
                        Some(b'u') => {
                            if b.len() < *i + 5
                                || !b[*i + 1..*i + 5].iter().all(u8::is_ascii_hexdigit)
                            {
                                return Err(*i);
                            }
                            *i += 5;
                        }
                        _ => return Err(*i),
                    }
                }
                0x20.. => *i += 1,
                _ => return Err(*i),
            }
        }
        Err(*i)
    }

    fn number(b: &[u8], i: &mut usize) -> Result<(), usize> {
        let start = *i;
        if b.get(*i) == Some(&b'-') {
            *i += 1;
        }
        while *i < b.len() && b[*i].is_ascii_digit() {
            *i += 1;
        }
        if b.get(*i) == Some(&b'.') {
            *i += 1;
            while *i < b.len() && b[*i].is_ascii_digit() {
                *i += 1;
            }
        }
        if matches!(b.get(*i), Some(b'e' | b'E')) {
            *i += 1;
            if matches!(b.get(*i), Some(b'+' | b'-')) {
                *i += 1;
            }
            while *i < b.len() && b[*i].is_ascii_digit() {
                *i += 1;
            }
        }
        if *i == start {
            Err(start)
        } else {
            Ok(())
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
    let sink = MemorySink::new(8);
    for s in 0..20u64 {
        sink.record(&Event::TrainStep(sample_step(s)));
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
    let timed: u32 = rec.time("timed", || 41 + 1);
    assert_eq!(timed, 42);
    assert!(sink.span_total("timed") >= 0.0);
    assert_eq!(sink.events().len(), 2);
}

#[test]
fn null_recorder_is_disabled_and_silent() {
    let rec = Recorder::null();
    assert!(!rec.is_enabled());
    // None of these should panic or allocate a sink.
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

#[test]
fn jsonl_sink_lines_are_valid_json_with_expected_fields() {
    let path = std::env::temp_dir().join("mfn_telemetry_jsonl_test.jsonl");
    let rec = Recorder::jsonl(&path).expect("create jsonl sink");
    rec.train_step(sample_step(3));
    rec.incr("frames", 2);
    rec.gauge("nu", 1.7);
    rec.span_seconds("simulate", 0.25);
    // NaN must degrade to null, not poison the line.
    rec.gauge("bad", f64::NAN);
    rec.flush();
    let text = std::fs::read_to_string(&path).expect("read jsonl");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 5);
    for (i, line) in lines.iter().enumerate() {
        json::validate(line)
            .unwrap_or_else(|pos| panic!("line {i} invalid JSON at byte {pos}: {line}"));
        assert!(line.starts_with("{\"type\":\""), "line {i} missing type: {line}");
    }
    assert!(lines[0].contains("\"loss_total\":"));
    assert!(lines[0].contains("\"grad_norm_pre\":"));
    assert!(lines[0].contains("\"samples_per_sec\":"));
    assert!(lines[4].contains("\"value\":null"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn event_json_escapes_special_characters() {
    let e = Event::Counter { name: "weird\"name\\with\ncontrol\u{1}", delta: 1 };
    let s = e.to_json();
    json::validate(&s).unwrap_or_else(|pos| panic!("invalid at {pos}: {s}"));
    assert!(s.contains("\\\"name\\\\with\\ncontrol\\u0001"));
}

#[test]
fn sink_trait_objects_compose() {
    // A Recorder can wrap any user-provided sink.
    struct CountingSink(std::sync::atomic::AtomicUsize);
    impl Sink for CountingSink {
        fn record(&self, _event: &Event) {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }
    let sink = Arc::new(CountingSink(std::sync::atomic::AtomicUsize::new(0)));
    let rec = Recorder::with_sink(sink.clone());
    assert!(rec.is_enabled());
    rec.incr("a", 1);
    rec.gauge("b", 2.0);
    assert_eq!(sink.0.load(std::sync::atomic::Ordering::Relaxed), 2);
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
            let sink = MemorySink::new(cap);
            for s in 0..n as u64 {
                sink.record(&Event::TrainStep(sample_step(s)));
            }
            prop_assert!(sink.len() <= cap);
            prop_assert_eq!(sink.len(), n.min(cap));
            prop_assert_eq!(sink.dropped(), n.saturating_sub(cap) as u64);
        }

        #[test]
        fn gauge_json_is_always_valid(value in -1e12f64..1e12) {
            let e = Event::Gauge { name: "g", value };
            let s = e.to_json();
            prop_assert!(json::validate(&s).is_ok(), "invalid JSON: {}", s);
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
            let s = Event::TrainStep(m).to_json();
            prop_assert!(json::validate(&s).is_ok(), "invalid JSON: {}", s);
        }
    }
}
