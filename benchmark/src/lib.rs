//! # mfn-benchmark
//!
//! The repo's one end-to-end benchmark. `mfn-benchmark --workload NAME
//! --seed S --seconds T --trace 0|1` builds the shared set-up from the seed,
//! runs one workload in one process, checks its outputs, and prints one JSON
//! object as the last line of stdout: the end-to-end metrics without
//! `--trace`, the per-layer metrics with it. `BENCHMARK.json` at the repo
//! root is the contract; [`WORKLOADS`], [`END_TO_END`] and [`PER_LAYER`]
//! must list exactly its names (the smoke test compares them).
//!
//! See `README.md` for what each workload stresses, how every metric is
//! defined, and how to read a trace.

pub mod alloc;
pub mod kernels;
pub mod measure;
pub mod probe;
pub mod serve;
pub mod setup;
pub mod sr;
pub mod trace;
pub mod train;

use measure::{median, Phase};
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::path::Path;
use trace::{Ladder, Tracer};

/// Workload names, in the order `run.sh` runs them.
pub const WORKLOADS: [&str; 6] =
    ["train", "train_dist2", "super_resolve", "serve_hot", "serve_churn", "refine"];

/// End-to-end metrics `(name, unit)`, printed by an untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
];

/// Per-layer metrics `(name, unit)`, printed by a traced run. A metric is 0
/// on a workload whose operations never call into that layer.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("solver.sim_s_per_wall_s", "ratio"),
    ("data.downsample_ms", "ms"),
    ("core.setup_train_ms", "ms"),
    ("data.make_batch_ms", "ms"),
    ("autodiff.forward_ms", "ms"),
    ("autodiff.backward_ms", "ms"),
    ("autodiff.optim_ms", "ms"),
    ("core.eq_loss_share", "ratio"),
    ("dist.allreduce_wait_share", "ratio"),
    ("dist.scaling_eff", "ratio"),
    ("dist.bytes_per_step", "B"),
    ("core.encode_ms", "ms"),
    ("core.plan_us", "us"),
    ("core.decode_us_per_point", "us"),
    ("core.decode_nongemm_share", "ratio"),
    ("core.sr_self_share", "ratio"),
    ("tensor.gemm_us", "us"),
    ("tensor.gemm_gflops", "GFLOP/s"),
    ("tensor.gemm_peak_gflops", "GFLOP/s"),
    ("tensor.conv3d_us", "us"),
    ("tensor.conv3d_gflops", "GFLOP/s"),
    ("tensor.pool_hit_ratio", "ratio"),
    ("tensor.alloc_bytes_per_op", "B"),
    ("serve.engine_query_us", "us"),
    ("serve.wire_overhead_us", "us"),
    ("serve.batch_overhead_us", "us"),
    ("serve.protocol_us", "us"),
    ("serve.batch_size_mean", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.busy_rejects", "count"),
    ("serve.rtt_ms_p99", "ms"),
    ("serve.rtt_ms_max", "ms"),
    ("serve.open_latency_ms_p50", "ms"),
    ("serve.open_latency_ms_p90", "ms"),
    ("serve.open_failed", "count"),
    ("serve.gen_lag_us_p99", "us"),
    ("core.refine_step_ms", "ms"),
    ("core.refine_accept_ratio", "ratio"),
    ("core.refine_reduction", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.additive_error", "ratio"),
    ("trace.ops_traced", "count"),
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run: per-layer metrics in place of end-to-end ones.
    pub trace: bool,
    /// Tiny set-up, for the smoke test.
    pub smoke: bool,
}

/// Where a traced run writes its spans, relative to the working directory
/// (the repo root, for `run.sh` and for the driver of `BENCHMARK.json`).
pub const TRACE_DIR: &str = "benchmark/out";

/// How often a replay repeats: the count given, or under `--smoke` a quarter
/// of it (at least once), so the smoke test exercises every path quickly.
#[derive(Debug, Clone, Copy)]
pub struct Reps {
    smoke: bool,
}

impl Reps {
    /// `full`, scaled for the run's size.
    pub fn of(self, full: usize) -> usize {
        if self.smoke {
            (full / 4).max(1)
        } else {
            full
        }
    }
}

/// Per-layer values a traced run collected; unset names print as 0.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Records `value` under `name`, which must be in [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name} is not a per-layer metric");
        self.0.insert(name, value);
    }

    /// The recorded value, 0 if the workload did not touch that layer.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// What a workload must offer the driver in [`run`].
pub trait Workload {
    /// Runs the load for `seconds`, issuing requests `first`, `first + 1`, …
    /// of the seeded stream, recording spans when `tracer` is set.
    fn phase(&mut self, seconds: f64, first: u64, tracer: Option<&Tracer>) -> Phase;
    /// The output checks that need more than one reply; run after measuring.
    fn check(&mut self) -> Result<(), String>;
    /// Fills in this workload's per-layer metrics from the traced phase and
    /// its replay ladder, and returns the ladder for the additive check.
    fn layers(&mut self, tracer: &Tracer, traced: &Phase, out: &mut Layers) -> Ladder;
}

/// The result line.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every output check passed and no operation failed.
    pub correct: bool,
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Of those, how many errored, were refused, or answered wrongly.
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Serialize for Report {
    fn to_value(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let entry = vec![
                    ("value".to_string(), Value::F64(*value)),
                    ("unit".to_string(), Value::Str((*unit).to_string())),
                ];
                ((*name).to_string(), Value::Object(entry))
            })
            .collect();
        Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct)),
            ("attempted".to_string(), Value::U64(self.attempted)),
            ("failed".to_string(), Value::U64(self.failed)),
            ("metrics".to_string(), Value::Object(metrics)),
        ])
    }
}

/// Request-stream offsets, so no phase replays another phase's requests
/// (on `serve_churn` a repeated patch would be a cache hit).
const WARM: u64 = 0;
const PLAIN: u64 = 1 << 32;
const MEASURED: u64 = 2 << 32;
/// Offset of the replay ladder's requests.
pub const LADDER: u64 = 3 << 32;

/// Bare/traced slice pairs of a traced run.
const TRACE_PAIRS: usize = 3;

/// Share of `--seconds` spent warming up before anything is timed.
const WARM_SHARE: f64 = 0.03;

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn host_facts() {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches(|c: char| c == ':' || c.is_whitespace()).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    eprintln!(
        "host: nproc {nproc}, cpu {cpu}, kernel backend {}",
        mfn_tensor::kernel_backend().name()
    );
}

/// Runs one workload as `args` describe and returns its result line.
pub fn run(args: &Args) -> Result<Report, String> {
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}; one of {WORKLOADS:?}", args.workload));
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    host_facts();
    let tracer = args.trace.then(Tracer::default);
    let tracer = tracer.as_ref();
    let scale = if args.smoke { setup::Scale::SMOKE } else { setup::Scale::FULL };

    // Set-up time is a gated metric of its own: take it several times per
    // run and report the median, so one cold start does not decide it.
    let repeats = if args.trace || args.smoke { 1 } else { 3 };
    let (mut setup_times, mut setup_walls) = (Vec::new(), Vec::new());
    let mut env = None;
    for _ in 0..repeats {
        drop(env.take());
        let built = setup::build(args.seed, scale, tracer);
        setup_times.push(built.times.total_s);
        setup_walls.push(built.times.wall_s);
        env = Some(built);
    }
    let env = env.expect("at least one set-up ran");
    let (times, sim_seconds) = (env.times, env.sim_seconds);
    eprintln!("set-up: {setup_times:.3?} s at reference speed, {setup_walls:.3?} s on the wall");

    let reps = Reps { smoke: args.smoke };
    let mut w: Box<dyn Workload> = match args.workload.as_str() {
        "train" => Box::new(train::Train::new(env, args.seed, reps)),
        "train_dist2" => Box::new(train::Dist::new(env, reps)),
        "super_resolve" => Box::new(sr::SuperResolve::new(env, reps)),
        name => Box::new(serve::Serving::start(name, env, args.seed, reps)?),
    };
    w.phase(args.seconds * WARM_SHARE, WARM, None);

    let (phase, metrics) = match tracer {
        None => {
            let measured = w.phase(args.seconds, MEASURED, None);
            let s = measured.summary().ok_or("no operation succeeded")?;
            eprintln!(
                "ops {} failed {} p99 {:.3} ms max {:.3} ms",
                measured.attempted(),
                measured.failed,
                s.p99_ms,
                s.max_ms
            );
            let values = [median(setup_times), peak_rss_mb()?, s.work_per_s, s.p50_ms, s.p90_ms];
            (measured, END_TO_END.iter().zip(values).map(|((n, u), v)| (*n, v, *u)).collect())
        }
        Some(tracer) => {
            let (traced, mut layers) = trace_layers(w.as_mut(), tracer, args, reps)?;
            layers.set("solver.sim_s_per_wall_s", sim_seconds / times.sim_s);
            layers.set("data.downsample_ms", times.downsample_s * 1e3);
            layers.set("core.setup_train_ms", times.train_s * 1e3);
            (traced, PER_LAYER.iter().map(|(n, u)| (*n, layers.get(n), *u)).collect())
        }
    };
    let checks = w.check();
    if let Err(why) = &checks {
        eprintln!("output check failed: {why}");
    }
    Ok(Report {
        correct: checks.is_ok() && phase.failed == 0,
        attempted: phase.attempted(),
        failed: phase.failed,
        metrics,
    })
}

/// The traced part of a run: the seeded stream alternately bare and under
/// spans, in short slices so host drift hits both alike (a quarter of
/// `--seconds` each in total), then the workload's replay ladder. Returns
/// the traced operations and the per-layer values, and writes the trace.
fn trace_layers(
    w: &mut dyn Workload,
    tracer: &Tracer,
    args: &Args,
    reps: Reps,
) -> Result<(Phase, Layers), String> {
    let pairs = reps.of(TRACE_PAIRS) as u64;
    let slice = args.seconds / (4 * pairs) as f64;
    let (mut plain, mut traced) = (Phase::default(), Phase::default());
    let (mut hits, mut misses, mut bytes) = (0, 0, 0);
    for pair in 0..pairs {
        plain.merge(w.phase(slice, PLAIN + (pair << 24), None));
        let (pool, heap) = (mfn_tensor::workspace::stats(), alloc::bytes());
        alloc::set_counting(true);
        traced.merge(w.phase(slice, MEASURED + (pair << 24), Some(tracer)));
        alloc::set_counting(false);
        let after = mfn_tensor::workspace::stats();
        hits += after.hits - pool.hits;
        misses += after.misses - pool.misses;
        bytes += alloc::bytes() - heap;
    }
    let median_ms = |p: &Phase| p.summary().map(|s| s.p50_ms).ok_or("no operation succeeded");

    let mut layers = Layers::default();
    layers.set("trace.overhead_ratio", median_ms(&traced)? / median_ms(&plain)?);
    layers.set("tensor.pool_hit_ratio", hits as f64 / (hits + misses).max(1) as f64);
    layers.set("tensor.alloc_bytes_per_op", bytes as f64 / traced.attempted().max(1) as f64);
    layers.set("trace.ops_traced", traced.attempted() as f64);
    let ladder = w.layers(tracer, &traced, &mut layers);
    ladder.report();
    layers.set("trace.additive_error", ladder.additive_error());
    let path = Path::new(TRACE_DIR).join(format!("{}.trace.jsonl", args.workload));
    tracer.write_jsonl(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("trace written to {}", path.display());
    Ok((traced, layers))
}
