//! The benchmark against its contract: the names the binary prints are the
//! names `BENCHMARK.json` declares, and every workload runs end to end at
//! smoke size, untraced and traced, with no failed operation.

use mfn_benchmark::{END_TO_END, PER_LAYER, TRACE_DIR, WORKLOADS};
use serde::{DeError, Deserialize, Value};
use std::path::Path;
use std::process::Command;

/// Any JSON document, kept as the parsed tree.
struct Json(Value);

impl Deserialize for Json {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        Ok(Json(value.clone()))
    }
}

fn parse(text: &str) -> Value {
    serde_json::from_str::<Json>(text).expect("valid JSON").0
}

fn field<'a>(object: &'a Value, key: &str) -> &'a Value {
    let fields = object.as_object().unwrap_or_else(|| panic!("{key}: parent is not an object"));
    &fields.iter().find(|(k, _)| k == key).unwrap_or_else(|| panic!("no key {key}")).1
}

fn text(value: &Value) -> &str {
    match value {
        Value::Str(s) => s,
        other => panic!("expected a string, found {other:?}"),
    }
}

fn number(value: &Value) -> f64 {
    match value {
        Value::U64(v) => *v as f64,
        Value::I64(v) => *v as f64,
        Value::F64(v) => *v,
        other => panic!("expected a number, found {other:?}"),
    }
}

fn keys(object: &Value) -> Vec<&str> {
    object.as_object().expect("an object").iter().map(|(k, _)| k.as_str()).collect()
}

/// `(name, unit)` of every entry of a metric list in `BENCHMARK.json`.
fn declared<'a>(spec: &'a Value, list: &str) -> Vec<(&'a str, &'a str)> {
    let entries = field(spec, list).as_array().expect("a list");
    entries.iter().map(|m| (text(field(m, "name")), text(field(m, "unit")))).collect()
}

fn spec() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
}

#[test]
fn binary_and_benchmark_json_declare_the_same_names() {
    let spec = spec();
    assert_eq!(
        keys(&spec),
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    );
    let workloads = field(&spec, "workloads").as_array().expect("a list");
    let names: Vec<&str> = workloads.iter().map(|w| text(field(w, "name"))).collect();
    assert_eq!(names, WORKLOADS);
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        let why = text(field(w, "why"));
        assert!(why.len() <= 200 && !why.contains('\n'), "why of {:?}", text(field(w, "name")));
    }
    assert_eq!(declared(&spec, "end_to_end"), END_TO_END);
    assert_eq!(declared(&spec, "per_layer"), PER_LAYER);

    let mut all: Vec<&str> = names;
    all.extend(END_TO_END.iter().chain(&PER_LAYER).map(|(n, _)| *n));
    for name in &all {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        assert!(name.len() <= 64 && name.chars().all(ok), "bad name {name:?}");
        assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()), "bad name {name:?}");
    }
    let unique: std::collections::BTreeSet<&str> = all.iter().copied().collect();
    assert_eq!(unique.len(), all.len(), "a name is used twice");

    for m in field(&spec, "end_to_end").as_array().expect("a list") {
        assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
        let bound = number(field(m, "bound"));
        assert!(bound > 0.0 && bound <= 0.25, "bound of {:?}", text(field(m, "name")));
    }
    for m in field(&spec, "per_layer").as_array().expect("a list") {
        assert_eq!(keys(m), ["name", "unit", "better"]);
    }
    assert!(declared(&spec, "end_to_end").contains(&("setup_s", "s")));
}

/// Runs the binary from directory `cwd` and returns its result line, parsed.
fn run(workload: &str, trace: bool, cwd: &Path) -> Value {
    let output = Command::new(env!("CARGO_BIN_EXE_mfn-benchmark"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.2", "--smoke"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(cwd)
        .output()
        .expect("the binary starts");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{workload} trace={trace} failed:\n{stderr}");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    parse(stdout.lines().last().expect("a result line"))
}

#[test]
fn every_workload_runs_at_smoke_size_and_prints_exactly_the_declared_metrics() {
    // Traces land in `TRACE_DIR` under the working directory.
    let cwd = Path::new(env!("CARGO_TARGET_TMPDIR"));
    for workload in WORKLOADS {
        for (trace, expected) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let result = run(workload, trace, cwd);
            let at = format!("{workload} trace={trace}");
            assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"], "{at}");
            assert_eq!(field(&result, "correct"), &Value::Bool(true), "{at}");
            assert_eq!(field(&result, "failed"), &Value::U64(0), "{at}");
            assert!(number(field(&result, "attempted")) >= 1.0, "{at}");

            let metrics = field(&result, "metrics");
            let names: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
            assert_eq!(keys(metrics), names, "{at}: nothing missing, nothing extra");
            for (name, unit) in expected {
                let m = field(metrics, name);
                assert_eq!(keys(m), ["value", "unit"], "{at} {name}");
                assert_eq!(text(field(m, "unit")), *unit, "{at} {name}");
                let value = number(field(m, "value"));
                assert!(value.is_finite(), "{at} {name} = {value}");
                // An end-to-end metric is compared as a ratio: never 0.
                assert!(trace || value > 0.0, "{at} {name} = {value}");
            }
            if trace {
                let file = cwd.join(TRACE_DIR).join(format!("{workload}.trace.jsonl"));
                let spans = std::fs::read_to_string(&file).expect("a trace file");
                assert!(spans.lines().count() > 1, "{at}: empty trace");
                let first = parse(spans.lines().next().expect("a span"));
                assert_eq!(
                    keys(&first),
                    ["name", "start_ns", "end_ns", "parent", "request_id", "self_ns"]
                );
            }
        }
    }
}
