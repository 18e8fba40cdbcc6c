//! `loadgen` — drive a running `serve` instance (or a router-fronted
//! fleet) and write a benchmark report. Options: [`USAGE`].
//!
//! **Rate sweep** (default; a [`FleetReport`] in `BENCH_fleet.json`), against
//! one server or a router:
//! 1. **Warm**: encode `--patches` deterministic patches, timing each cold
//!    (U-Net) encode, then re-encode each once, a cache hit. `cache` keeps
//!    both p50s and `hit_to_miss_speedup`, how much the latent cache buys.
//!    Through a router each patch lands on its owning shard.
//! 2. **Open loop**: for each offered rate in `--rates`, a seeded Poisson
//!    arrival schedule fixes *when* each request is due and a
//!    zipf(`--zipf-s`) draw over the patches fixes *which* one it queries;
//!    latency runs from the scheduled due time, so queueing delay the server
//!    causes counts against its tail (no coordinated omission). The whole
//!    workload is a pure function of `--seed`. The sweep's **knee**
//!    ([`pick_knee`]) is its best point under a 50 ms p99 SLO. Then the
//!    per-shard cache stats (the `Stats` frame: one entry per healthy shard
//!    behind a router, one for a single server).
//! 3. **Closed loop**: `--threads` self-paced connections issue queries
//!    back to back for `--duration-s`, timing per-request RTT, against
//!    `--closed-addr` (default `--addr`). Pointing it at one shard's direct
//!    address gives the single-server comparison the open-loop sweep cannot.
//!
//! **Refine sweep** (`--refine`; a [`RefineReport`] in `BENCH_refine.json`)
//! sweeps the test-time physics refinement quality/latency tradeoff against a
//! `serve --refine` instance: encode one smooth Rayleigh–Bénard-like patch,
//! then for each step budget in `--refine-budgets` issue repeated `Refine`
//! requests at the same deterministic query points and record the
//! server-reported PDE residual before/after plus request latency
//! percentiles. `--min-reduction F` fails the run unless some budget achieved
//! at least an `F`× residual reduction — the CI quality gate for the endpoint.
//!
//! Every request of every loop goes through [`Conn::send`]. Either mode
//! writes its report, then exits 1 if no request completed or any failed,
//! which is how CI asserts a live end-to-end serving path.

use mfn_core::cli::Cli;
use mfn_core::RefineBudget;
use mfn_serve::error::code::UNKNOWN_DIGEST;
use mfn_serve::{
    ArrivalSchedule, Client, ModelInfo, RefineResult, ServeError, ShardStat, SplitMix64, Zipf,
};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

/// The sweep's latency SLO: the knee is the best rate whose p99 meets it.
const SLO_MS: u64 = 50;

/// `Refine` requests per step budget.
const REFINE_REPS: usize = 8;

/// Command-line options, with their defaults in [`parse`].
struct Args {
    addr: String,
    threads: usize,
    duration_s: u64,
    patches: usize,
    queries_per_req: usize,
    out: PathBuf,
    rates: Vec<f64>,
    conns: usize,
    zipf_s: f64,
    seed: u64,
    closed_addr: Option<String>,
    refine: bool,
    refine_budgets: Vec<u32>,
    refine_points: usize,
    min_reduction: f64,
}

const USAGE: &str = "usage: loadgen --addr HOST:PORT [--threads N] [--duration-s N] \
                     [--patches N] [--queries-per-req N] [--out PATH] [--rates R1,R2,...] \
                     [--conns N] [--zipf-s F] [--seed N] [--closed-addr HOST:PORT] [--refine] \
                     [--refine-budgets K1,K2,...] [--refine-points N] [--min-reduction F]";

fn parse() -> Args {
    let mut a = Args {
        addr: String::new(),
        threads: 2,
        duration_s: 5,
        patches: 4,
        queries_per_req: 64,
        out: PathBuf::new(),
        rates: vec![500.0, 1000.0, 1750.0, 2500.0],
        conns: 16,
        zipf_s: 1.0,
        seed: 0x4D46_4E53, // "MFNS"
        closed_addr: None,
        refine: false,
        refine_budgets: vec![0, 1, 2, 4, 8, 16, 32, 64],
        refine_points: 16,
        min_reduction: 0.0,
    };
    let mut out = None;
    let mut cli = Cli::new(USAGE);
    while let Some(flag) = cli.next_flag() {
        match flag.as_str() {
            "--addr" => a.addr = cli.value(&flag),
            "--threads" => a.threads = cli.value(&flag),
            "--duration-s" => a.duration_s = cli.value(&flag),
            "--patches" => a.patches = cli.value(&flag),
            "--queries-per-req" => a.queries_per_req = cli.value(&flag),
            "--out" => out = Some(cli.value(&flag)),
            "--rates" => a.rates = cli.list(&flag),
            "--conns" => a.conns = cli.value(&flag),
            "--zipf-s" => a.zipf_s = cli.value(&flag),
            "--seed" => a.seed = cli.value(&flag),
            "--closed-addr" => a.closed_addr = Some(cli.value(&flag)),
            "--refine" => a.refine = true,
            "--refine-budgets" => a.refine_budgets = cli.list(&flag),
            "--refine-points" => a.refine_points = cli.value(&flag),
            "--min-reduction" => a.min_reduction = cli.value(&flag),
            other => cli.fail(&format!("unknown option {other}")),
        }
    }
    if a.addr.is_empty() {
        cli.fail("--addr is required");
    }
    let default_out = if a.refine { "BENCH_refine.json" } else { "BENCH_fleet.json" };
    a.out = out.unwrap_or_else(|| PathBuf::from(default_out));
    for n in [&mut a.threads, &mut a.patches, &mut a.queries_per_req, &mut a.conns] {
        *n = (*n).max(1);
    }
    a.refine_points = a.refine_points.max(1);
    a.duration_s = a.duration_s.max(1);
    a
}

/// Deterministic 64-bit LCG (same constants as the kernel bench).
fn lcg(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *state
}

fn lcg_f32(state: &mut u64) -> f32 {
    ((lcg(state) >> 40) as f32 / (1u64 << 24) as f32) - 0.5
}

/// Patch `idx` of the run: deterministic so every thread (and every rerun
/// against a warm server) produces bit-identical bytes, hence equal digests.
fn gen_patch(idx: usize, numel: usize) -> Vec<f32> {
    let mut state = (idx as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (0..numel).map(|_| lcg_f32(&mut state)).collect()
}

fn gen_queries(state: &mut u64, n: usize) -> Vec<(usize, [f32; 3])> {
    (0..n)
        .map(|_| (0usize, [lcg_f32(state) + 0.5, lcg_f32(state) + 0.5, lcg_f32(state) + 0.5]))
        .collect()
}

fn percentile_us(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((q * (sorted.len() - 1) as f64).round() as usize).min(sorted.len() - 1)]
}

/// `x` rounded to `places` decimals: the precision the report keeps.
fn round(x: f64, places: i32) -> f64 {
    let scale = 10f64.powi(places);
    (x * scale).round() / scale
}

/// Prints `error: {msg}` and exits 1.
fn die(msg: String) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1)
}

/// Connects to `addr` and asks for the served model's shape, or exits.
fn connect(addr: &str) -> (Client, ModelInfo) {
    let mut client =
        Client::connect(addr).unwrap_or_else(|e| die(format!("cannot connect to {addr}: {e}")));
    let info = client.info().unwrap_or_else(|e| die(format!("info request failed: {e}")));
    (client, info)
}

/// Writes `report` to `out` and stdout, then exits 1 unless some request
/// completed and none failed.
fn finish<T: Serialize>(out: &Path, report: &T, requests: u64, errors: u64) {
    let json = serde_json::to_string_pretty(report).expect("a report serializes");
    std::fs::write(out, &json).unwrap_or_else(|e| die(format!("write {}: {e}", out.display())));
    println!("{json}");
    eprintln!("wrote {}", out.display());
    if requests == 0 || errors > 0 {
        die(format!(
            "requests = {requests}, protocol_errors = {errors} \
             (need requests > 0 and zero errors)"
        ));
    }
}

/// One client connection of a load phase, and what it measured.
struct Conn {
    addr: String,
    /// `None` once the connection failed and could not be reopened.
    client: Option<Client>,
    /// Latency of every request that succeeded, in µs.
    lat_us: Vec<u64>,
    errors: u64,
}

impl Conn {
    /// A connection to `addr`; one that failed to open counts as an error.
    fn new(addr: &str, client: Option<Client>) -> Conn {
        Conn { addr: addr.to_string(), errors: u64::from(client.is_none()), client, lat_us: vec![] }
    }

    /// Sends one request with the standard client recovery, the one body of
    /// every loadgen loop. A digest the server does not hold (evicted, or
    /// owned by another shard) is re-encoded from `patch` and the request
    /// sent again. A success records its latency since `since`; any other
    /// error is counted and logged, and the connection reopened. Returns the
    /// reply, or `None` on failure.
    fn send<T>(
        &mut self,
        since: Instant,
        patch: impl FnOnce() -> Vec<f32>,
        mut request: impl FnMut(&mut Client) -> Result<T, ServeError>,
    ) -> Option<T> {
        let client = self.client.as_mut()?;
        let reply = match request(client) {
            Err(ServeError::Remote { code, .. }) if code == UNKNOWN_DIGEST => {
                client.encode(1, &patch()).and_then(|_| request(client))
            }
            other => other,
        };
        match reply {
            Ok(reply) => {
                self.lat_us.push(since.elapsed().as_micros() as u64);
                Some(reply)
            }
            Err(e) => {
                self.errors += 1;
                eprintln!("loadgen {}: {e}", self.addr);
                self.client = Client::connect(&self.addr).ok();
                None
            }
        }
    }
}

/// Runs `body(id, start, conn)` on `n` connections to `addr`, one thread
/// each. All connect first, then a barrier releases them at one `start`
/// instant. Returns every latency sorted, the error count and the seconds
/// from `start` until the last one finished.
fn run_conns(
    addr: &str,
    n: usize,
    body: impl Fn(usize, Instant, &mut Conn) + Sync,
) -> (Vec<u64>, u64, f64) {
    let barrier = Barrier::new(n + 1);
    let start = OnceLock::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|id| {
                let (barrier, start, body) = (&barrier, &start, &body);
                s.spawn(move || {
                    let mut conn = Conn::new(addr, Client::connect(addr).ok());
                    barrier.wait();
                    body(id, *start.wait(), &mut conn);
                    conn
                })
            })
            .collect();
        barrier.wait();
        let t0 = *start.get_or_init(Instant::now);
        let conns: Vec<Conn> =
            handles.into_iter().map(|h| h.join().expect("loadgen connection thread")).collect();
        let elapsed = t0.elapsed().as_secs_f64();
        let mut lat_us: Vec<u64> = conns.iter().flat_map(|c| c.lat_us.iter().copied()).collect();
        lat_us.sort_unstable();
        (lat_us, conns.iter().map(|c| c.errors).sum(), elapsed)
    })
}

/// `BENCH_fleet.json`. The field names are the report's keys.
#[derive(Serialize, Deserialize)]
struct FleetReport {
    schema: String,
    config: FleetConfig,
    cache: CacheEconomics,
    sweep: Vec<RatePoint>,
    knee: Knee,
    closed_loop: ClosedLoop,
    shards: Vec<ShardRow>,
}

#[derive(Serialize, Deserialize)]
struct FleetConfig {
    addr: String,
    conns: usize,
    duration_s_per_rate: u64,
    patches: usize,
    queries_per_req: usize,
    zipf_s: f64,
    seed: u64,
    slo_ms: u64,
}

/// The warm phase: cold-encode p50 against cache-hit re-encode p50.
#[derive(Serialize, Deserialize)]
struct CacheEconomics {
    encode_miss_us_p50: u64,
    cache_hit_encode_us_p50: u64,
    hit_to_miss_speedup: f64,
}

/// One measured point of the open-loop sweep.
#[derive(Serialize, Deserialize)]
struct RatePoint {
    offered_qps: f64,
    achieved_qps: f64,
    requests: u64,
    protocol_errors: u64,
    p50_us: u64,
    p90_us: u64,
    p99_us: u64,
    max_us: u64,
}

/// The sweep point [`pick_knee`] chose.
#[derive(Serialize, Deserialize)]
struct Knee {
    offered_qps: f64,
    achieved_qps: f64,
    p99_us: u64,
    slo_us: u64,
    met_slo: bool,
}

/// Aggregate result of the closed-loop phase.
#[derive(Serialize, Deserialize)]
struct ClosedLoop {
    addr: String,
    threads: usize,
    duration_s: u64,
    requests: u64,
    protocol_errors: u64,
    qps: f64,
    p50_us: u64,
    p90_us: u64,
    p99_us: u64,
}

/// One shard's cache economics after the sweep.
#[derive(Serialize, Deserialize)]
struct ShardRow {
    addr: String,
    requests: u64,
    errors: u64,
    cache_hits: u64,
    cache_misses: u64,
    hit_rate: f64,
    cache_len: u64,
    decode_calls: u64,
    batched_queries: u64,
}

impl From<ShardStat> for ShardRow {
    fn from(s: ShardStat) -> Self {
        let lookups = (s.cache_hits + s.cache_misses).max(1);
        ShardRow {
            hit_rate: round(s.cache_hits as f64 / lookups as f64, 4),
            addr: s.addr,
            requests: s.requests,
            errors: s.errors,
            cache_hits: s.cache_hits,
            cache_misses: s.cache_misses,
            cache_len: s.cache_len,
            decode_calls: s.decode_calls,
            batched_queries: s.batched_queries,
        }
    }
}

/// Runs one offered-load level: `count` requests due at seeded Poisson
/// times, zipf-picked patches, spread round-robin over `--conns`
/// connections. Latency for request `i` runs from its *scheduled* due time
/// to response receipt, so a server falling behind pays the backlog in its
/// tail.
fn run_rate(args: &Args, rate: f64, digests: &[u64], numel: usize) -> RatePoint {
    // Per-rate RNG stream: the whole workload (schedule + picks) is a pure
    // function of (seed, rate), independent of thread interleaving.
    let mut rng = SplitMix64::new(args.seed ^ rate.to_bits());
    let count = ((rate * args.duration_s as f64) as usize).max(1);
    let schedule = ArrivalSchedule::new(rate, count, &mut rng);
    let zipf = Zipf::new(digests.len(), args.zipf_s);
    let picks: Vec<usize> = (0..count).map(|_| zipf.sample(&mut rng)).collect();
    let offsets = schedule.offsets_us();
    let (lat_us, errors, elapsed) = run_conns(&args.addr, args.conns, |cid, start, conn| {
        for i in (cid..count).step_by(args.conns) {
            if conn.client.is_none() {
                break;
            }
            let due = start + Duration::from_micros(offsets[i]);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            // Query content depends only on the request index.
            let mut qstate = (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED;
            let qs = gen_queries(&mut qstate, args.queries_per_req);
            let pick = picks[i];
            conn.send(due, || gen_patch(pick, numel), |c| c.query(digests[pick], &qs));
        }
    });
    let requests = lat_us.len() as u64;
    RatePoint {
        offered_qps: round(rate, 1),
        achieved_qps: round(requests as f64 / elapsed, 2),
        requests,
        protocol_errors: errors,
        p50_us: percentile_us(&lat_us, 0.5),
        p90_us: percentile_us(&lat_us, 0.9),
        p99_us: percentile_us(&lat_us, 0.99),
        max_us: lat_us.last().copied().unwrap_or(0),
    }
}

/// Picks the sweep's knee under a latency SLO: the index of the point with
/// the highest achieved throughput among those whose p99 is at or under
/// `slo_us`, and `true` for "met the SLO". Raw max-achieved-QPS is the
/// wrong "best" for an open-loop sweep — a saturated server keeps
/// completing requests at high rate while every one of them sits in queue
/// past any usable latency. If no point meets the SLO the knee falls back
/// to the lowest-p99 point (ties: higher throughput) with `false`.
fn pick_knee(sweep: &[RatePoint], slo_us: u64) -> (usize, bool) {
    let under = sweep
        .iter()
        .enumerate()
        .filter(|(_, p)| p.p99_us <= slo_us)
        .max_by(|(_, a), (_, b)| a.achieved_qps.total_cmp(&b.achieved_qps));
    if let Some((i, _)) = under {
        return (i, true);
    }
    let (i, _) = sweep
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| {
            a.p99_us.cmp(&b.p99_us).then(b.achieved_qps.total_cmp(&a.achieved_qps))
        })
        .expect("at least one rate point");
    (i, false)
}

/// Closed-loop phase: `--threads` self-paced connections issue back-to-back
/// queries over the warm digests for `--duration-s`, timing per-request RTT.
fn run_closed(args: &Args, digests: &[u64], numel: usize) -> ClosedLoop {
    let addr = args.closed_addr.as_deref().unwrap_or(&args.addr);
    let (lat_us, errors, elapsed) = run_conns(addr, args.threads, |tid, start, conn| {
        let deadline = start + Duration::from_secs(args.duration_s);
        let mut state = (tid as u64 + 1) * 0xA5A5_5A5A;
        while conn.client.is_some() && Instant::now() < deadline {
            let pick = (lcg(&mut state) as usize) % digests.len();
            let qs = gen_queries(&mut state, args.queries_per_req);
            conn.send(Instant::now(), || gen_patch(pick, numel), |c| c.query(digests[pick], &qs));
        }
    });
    let requests = lat_us.len() as u64;
    ClosedLoop {
        addr: addr.to_string(),
        threads: args.threads,
        duration_s: args.duration_s,
        requests,
        protocol_errors: errors,
        qps: round(requests as f64 / elapsed, 2),
        p50_us: percentile_us(&lat_us, 0.5),
        p90_us: percentile_us(&lat_us, 0.9),
        p99_us: percentile_us(&lat_us, 0.99),
    }
}

fn sweep_main(args: &Args) {
    let (mut client, info) = connect(&args.addr);
    let numel = (info.in_channels * info.grid[0] * info.grid[1] * info.grid[2]) as usize;
    eprintln!(
        "target: {} params, grid {:?}, patch numel {numel}, {} patches, zipf s={}, seed {}",
        info.param_count, info.grid, args.patches, args.zipf_s, args.seed
    );

    // Warm phase: every patch encoded once so the sweep measures the steady
    // decode path, then once more. A warm server (a rerun against the same
    // instance) hits at once: only genuine misses enter the miss p50.
    let (mut digests, mut miss_us, mut hit_us) = (Vec::new(), Vec::new(), Vec::new());
    for pass in 0..2 {
        for idx in 0..args.patches {
            let patch = gen_patch(idx, numel);
            let t0 = Instant::now();
            let (digest, hit) =
                client.encode(1, &patch).unwrap_or_else(|e| die(format!("warm encode: {e}")));
            let us = t0.elapsed().as_micros() as u64;
            if hit {
                hit_us.push(us);
            } else {
                miss_us.push(us);
            }
            if pass == 0 {
                digests.push(digest);
            }
        }
    }
    miss_us.sort_unstable();
    hit_us.sort_unstable();
    let (miss_p50, hit_p50) = (percentile_us(&miss_us, 0.5), percentile_us(&hit_us, 0.5));
    let cache = CacheEconomics {
        encode_miss_us_p50: miss_p50,
        cache_hit_encode_us_p50: hit_p50,
        hit_to_miss_speedup: round(miss_p50 as f64 / hit_p50.max(1) as f64, 2),
    };

    let sweep: Vec<RatePoint> = args
        .rates
        .iter()
        .map(|&rate| {
            eprintln!("offered {rate} qps for {} s ...", args.duration_s);
            run_rate(args, rate, &digests, numel)
        })
        .collect();
    // Per-shard counters before the closed loop, so they describe the sweep.
    let shards = client.stats().unwrap_or_else(|e| die(format!("stats request failed: {e}")));
    eprintln!("closed loop, {} threads for {} s ...", args.threads, args.duration_s);
    let closed_loop = run_closed(args, &digests, numel);

    let slo_us = SLO_MS * 1000;
    let (knee_idx, met_slo) = pick_knee(&sweep, slo_us);
    let k = &sweep[knee_idx];
    let knee = Knee {
        offered_qps: k.offered_qps,
        achieved_qps: k.achieved_qps,
        p99_us: k.p99_us,
        slo_us,
        met_slo,
    };
    let requests = sweep.iter().map(|p| p.requests).sum::<u64>() + closed_loop.requests;
    let errors = sweep.iter().map(|p| p.protocol_errors).sum::<u64>() + closed_loop.protocol_errors;
    let report = FleetReport {
        schema: "mfn-bench/fleet/v3".to_string(),
        config: FleetConfig {
            addr: args.addr.clone(),
            conns: args.conns,
            duration_s_per_rate: args.duration_s,
            patches: args.patches,
            queries_per_req: args.queries_per_req,
            zipf_s: args.zipf_s,
            seed: args.seed,
            slo_ms: SLO_MS,
        },
        cache,
        sweep,
        knee,
        closed_loop,
        shards: shards.into_iter().map(ShardRow::from).collect(),
    };
    finish(&args.out, &report, requests, errors);
}

/// `BENCH_refine.json`. The field names are the report's keys.
#[derive(Serialize, Deserialize)]
struct RefineReport {
    schema: String,
    config: RefineConfig,
    curve: Vec<RefinePoint>,
    best_reduction: f64,
    requests: u64,
    protocol_errors: u64,
}

#[derive(Serialize, Deserialize)]
struct RefineConfig {
    addr: String,
    points: usize,
    reps_per_budget: usize,
    seed: u64,
    min_reduction: f64,
}

/// One measured point of the refinement quality/latency sweep.
#[derive(Serialize, Deserialize)]
struct RefinePoint {
    max_steps: u32,
    steps_run: u32,
    steps_accepted: u32,
    initial_residual: f64,
    final_residual: f64,
    reduction: f64,
    p50_us: u64,
    p99_us: u64,
}

/// Smooth Rayleigh–Bénard-like patch for the refinement sweep: a conductive
/// temperature profile plus a single convection roll, layout `[C, nt, nz,
/// nx]`. The white-noise `gen_patch` is right for cache and throughput
/// benchmarking but wrong here — refinement minimizes the PDE residual of
/// the *decoded* field, and a latent encoded from pure noise has no
/// physically meaningful residual landscape to descend.
fn gen_smooth_patch(channels: usize, nt: usize, nz: usize, nx: usize) -> Vec<f32> {
    use std::f64::consts::PI;
    let mut out = Vec::with_capacity(channels * nt * nz * nx);
    for c in 0..channels {
        for it in 0..nt {
            let t = it as f64 / nt.max(1) as f64;
            for iz in 0..nz {
                let z = iz as f64 / (nz.max(2) - 1) as f64;
                for ix in 0..nx {
                    let x = ix as f64 / nx.max(1) as f64;
                    let roll = (PI * z).sin() * (2.0 * PI * x + 0.3 * t).cos();
                    let v = match c {
                        0 => (1.0 - z) + 0.1 * roll,
                        1 => 0.05 * (PI * z).cos() * (2.0 * PI * x).cos(),
                        2 => 0.1 * (PI * z).cos() * (2.0 * PI * x + 0.3 * t).sin(),
                        _ => 0.1 * roll,
                    };
                    out.push(v as f32);
                }
            }
        }
    }
    out
}

/// Refinement sweep: one smooth patch, fixed deterministic query points,
/// [`REFINE_REPS`] `Refine` calls per step budget. Quality (server-reported
/// residual reduction) and cost (request latency) per budget land in the
/// `curve`; `--min-reduction` turns the best reduction into a pass/fail gate.
fn refine_main(args: &Args) {
    let (mut client, info) = connect(&args.addr);
    let [nt, nz, nx] = info.grid.map(|d| d as usize);
    let patch = gen_smooth_patch(info.in_channels as usize, nt, nz, nx);
    let (digest, _) = client.encode(1, &patch).unwrap_or_else(|e| die(format!("encode: {e}")));
    // Interior points well away from the patch walls, fixed across the
    // whole sweep so every budget refines against the same objective.
    let mut qstate = args.seed ^ 0x5EED;
    let qs: Vec<(usize, [f32; 3])> = (0..args.refine_points)
        .map(|_| {
            let mut coord = || 0.1 + 0.8 * (lcg_f32(&mut qstate) + 0.5);
            (0usize, [coord(), coord(), coord()])
        })
        .collect();
    eprintln!(
        "refine sweep: digest {digest:#018x}, {} points, budgets {:?}",
        qs.len(),
        args.refine_budgets
    );

    let mut conn = Conn::new(&args.addr, Some(client));
    let mut requests = 0u64;
    let mut curve: Vec<RefinePoint> = Vec::new();
    for &k in &args.refine_budgets {
        let budget = RefineBudget { max_steps: k, tol: 0.0, max_micros: 0 };
        let mut first: Option<RefineResult> = None;
        for _ in 0..REFINE_REPS {
            let reply =
                conn.send(Instant::now(), || patch.clone(), |c| c.refine(digest, &qs, budget));
            let Some(r) = reply else { continue };
            // Untimed budgets are deterministic: reruns against the same
            // latent must agree bit-for-bit.
            let f = first.get_or_insert_with(|| r.clone());
            if r.values != f.values || r.final_residual != f.final_residual {
                conn.errors += 1;
                eprintln!("refine sweep: nondeterministic response at budget {k}");
            }
        }
        let mut lat_us = std::mem::take(&mut conn.lat_us);
        requests += lat_us.len() as u64;
        let Some(r) = first else { continue };
        lat_us.sort_unstable();
        let reduction = if r.final_residual > 0.0 {
            r.initial_residual as f64 / r.final_residual as f64
        } else {
            f64::INFINITY
        };
        curve.push(RefinePoint {
            max_steps: k,
            steps_run: r.steps_run,
            steps_accepted: r.steps_accepted,
            initial_residual: round(r.initial_residual.into(), 6),
            final_residual: round(r.final_residual.into(), 6),
            reduction: round(reduction, 4),
            p50_us: percentile_us(&lat_us, 0.5),
            p99_us: percentile_us(&lat_us, 0.99),
        });
    }

    let best_reduction = curve.iter().map(|p| p.reduction).fold(0.0f64, f64::max);
    let report = RefineReport {
        schema: "mfn-bench/serve-refine/v1".to_string(),
        config: RefineConfig {
            addr: args.addr.clone(),
            points: qs.len(),
            reps_per_budget: REFINE_REPS,
            seed: args.seed,
            min_reduction: args.min_reduction,
        },
        curve,
        best_reduction,
        requests,
        protocol_errors: conn.errors,
    };
    finish(&args.out, &report, requests, conn.errors);
    if best_reduction < args.min_reduction {
        die(format!(
            "quality gate: best residual reduction {best_reduction:.2}x < required {:.2}x",
            args.min_reduction
        ));
    }
}

fn main() {
    let args = parse();
    if args.refine {
        refine_main(&args);
    } else {
        sweep_main(&args);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(offered: f64, achieved: f64, p99_us: u64) -> RatePoint {
        RatePoint {
            offered_qps: offered,
            achieved_qps: achieved,
            requests: achieved as u64,
            protocol_errors: 0,
            p50_us: p99_us / 4,
            p90_us: p99_us / 2,
            p99_us,
            max_us: p99_us * 2,
        }
    }

    #[test]
    fn knee_is_highest_throughput_under_slo() {
        // Classic saturation curve: throughput keeps inching up past the
        // knee while p99 explodes. Raw max-achieved would pick index 3.
        let sweep = [
            pt(500.0, 499.0, 2_000),
            pt(1000.0, 998.0, 8_000),
            pt(1750.0, 1700.0, 45_000),
            pt(2500.0, 1800.0, 900_000),
        ];
        assert_eq!(pick_knee(&sweep, 50_000), (2, true));
    }

    #[test]
    fn knee_ignores_offered_order() {
        // The under-SLO pick keys on achieved QPS, not position or offered
        // rate — a mid-sweep point can win if later ones collapse.
        let sweep =
            [pt(1000.0, 990.0, 10_000), pt(2000.0, 1500.0, 30_000), pt(3000.0, 1200.0, 40_000)];
        assert_eq!(pick_knee(&sweep, 50_000), (1, true));
    }

    #[test]
    fn knee_boundary_is_inclusive() {
        let sweep = [pt(100.0, 99.0, 50_000)];
        assert_eq!(pick_knee(&sweep, 50_000), (0, true));
        assert!(!pick_knee(&sweep, 49_999).1);
    }

    #[test]
    fn all_points_over_slo_falls_back_to_lowest_p99() {
        let sweep =
            [pt(1000.0, 900.0, 300_000), pt(2000.0, 1100.0, 200_000), pt(3000.0, 1300.0, 400_000)];
        assert_eq!(pick_knee(&sweep, 50_000), (1, false));
    }

    #[test]
    fn fallback_tie_prefers_higher_throughput() {
        let sweep = [pt(1000.0, 900.0, 200_000), pt(2000.0, 1500.0, 200_000)];
        assert_eq!(pick_knee(&sweep, 50_000), (1, false));
    }

    /// Serializes `report`, parses it back and serializes again: the same
    /// text, so every key the writer emits is one the type reads.
    fn round_trips<T: Serialize + Deserialize>(report: &T) {
        let text = serde_json::to_string_pretty(report).expect("serializes");
        let back: T = serde_json::from_str(&text).expect("parses back");
        assert_eq!(serde_json::to_string_pretty(&back).expect("serializes"), text);
    }

    #[test]
    fn committed_reports_parse_as_their_types_and_round_trip() {
        let fleet: FleetReport = serde_json::from_str(include_str!("../../../../BENCH_fleet.json"))
            .expect("BENCH_fleet.json parses as a FleetReport");
        assert_eq!(fleet.schema, "mfn-bench/fleet/v3");
        assert_eq!(fleet.config.slo_ms, SLO_MS);
        round_trips(&fleet);
        let refine: RefineReport =
            serde_json::from_str(include_str!("../../../../BENCH_refine.json"))
                .expect("BENCH_refine.json parses as a RefineReport");
        assert_eq!(refine.schema, "mfn-bench/serve-refine/v1");
        round_trips(&refine);
    }
}
