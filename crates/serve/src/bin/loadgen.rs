//! `loadgen` — drive a running `serve` instance (or a router-fronted
//! fleet) and write a benchmark summary.
//!
//! ```text
//! usage: loadgen --addr HOST:PORT [--threads N] [--duration-s N]
//!                [--patches N] [--queries-per-req N] [--out PATH] [--strict]
//!                [--fleet] [--rates R1,R2,...] [--conns N] [--zipf-s F]
//!                [--seed N] [--closed-addr HOST:PORT] [--slo-ms F]
//!                [--refine] [--refine-budgets K1,K2,...] [--refine-points N]
//!                [--min-reduction F]
//! ```
//!
//! **Closed-loop mode** (default) has three phases:
//! 1. **Encode-miss**: encode `--patches` fresh deterministic patches,
//!    timing each cold (U-Net) encode.
//! 2. **Cache-hit**: re-encode the same patches (pure cache lookups) and
//!    run point queries against their latents, timing both.
//! 3. **Main**: `--threads` connections hammer queries for `--duration-s`
//!    seconds; aggregate QPS and latency percentiles.
//!
//! The summary JSON includes `hit_to_miss_speedup` — the encode-miss p50
//! over the cache-hit p50, i.e. how much the latent cache buys. `--strict`
//! exits nonzero when the run saw zero completed requests or any protocol
//! error, which is how CI asserts a live end-to-end serving path.
//!
//! **Fleet mode** (`--fleet`) is open-loop: for each offered rate in
//! `--rates`, a seeded Poisson arrival schedule fixes *when* each request
//! is due and a zipf(`--zipf-s`) draw over `--patches` ranks fixes *which*
//! patch it queries; latency is measured from the scheduled due time, so
//! queueing delay the server causes counts against its tail (no
//! coordinated omission). The sweep plus per-shard cache stats (via the
//! `Stats` frame — one entry per healthy shard when `--addr` is a router)
//! land in `BENCH_fleet.json`. The whole workload is a pure function of
//! `--seed`.
//!
//! The sweep's **knee** is the highest-throughput rate point whose p99
//! stays under the latency SLO (`--slo-ms`, default 50 ms) — raw max
//! achieved QPS is meaningless open-loop, because an overloaded server
//! still "achieves" high QPS while its queue (and tail) grow without
//! bound. When every rate busts the SLO the knee falls back to the
//! lowest-p99 point and is flagged `met_slo: false`.
//!
//! After the sweep, fleet mode also runs one *closed-loop* phase
//! (`--threads` self-paced connections, per-request RTT — the exact
//! measurement the historical `BENCH_baseline.json` used) against
//! `--closed-addr` (default `--addr`). Pointing it at a single shard's
//! direct address yields the apples-to-apples single-server comparison the
//! open-loop sweep cannot provide; it lands in the `closed_loop` section.
//!
//! **Refine mode** (`--refine`) sweeps the test-time physics refinement
//! quality/latency tradeoff against a `serve --refine` instance: encode one
//! smooth Rayleigh–Bénard-like patch, then for each step budget in
//! `--refine-budgets` issue repeated `Refine` requests at the same
//! deterministic query points and record the server-reported PDE residual
//! before/after plus request latency percentiles. The curve lands in the
//! `refine` section of the output JSON. `--min-reduction F` makes the run
//! fail unless some budget achieved at least an `F`× residual reduction —
//! the CI quality gate for the endpoint.

use mfn_core::RefineBudget;
use mfn_serve::{ArrivalSchedule, Client, ServeError, ShardStat, SplitMix64, Zipf};
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

struct Args {
    addr: String,
    threads: usize,
    duration_s: u64,
    patches: usize,
    queries_per_req: usize,
    out: PathBuf,
    strict: bool,
    fleet: bool,
    rates: Vec<f64>,
    conns: usize,
    zipf_s: f64,
    seed: u64,
    closed_addr: Option<String>,
    slo_ms: f64,
    refine: bool,
    refine_budgets: Vec<u32>,
    refine_points: usize,
    min_reduction: f64,
}

fn parse() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: loadgen --addr HOST:PORT [--threads N] [--duration-s N] \
                 [--patches N] [--queries-per-req N] [--out PATH] [--strict] \
                 [--fleet] [--rates R1,R2,...] [--conns N] [--zipf-s F] [--seed N] \
                 [--closed-addr HOST:PORT] [--slo-ms F] [--refine] \
                 [--refine-budgets K1,K2,...] [--refine-points N] [--min-reduction F]";
    let mut addr = None;
    let mut threads = 2usize;
    let mut duration_s = 5u64;
    let mut patches = 4usize;
    let mut queries_per_req = 64usize;
    let mut out = None;
    let mut strict = false;
    let mut fleet = false;
    let mut rates = vec![500.0, 1000.0, 1750.0, 2500.0];
    let mut conns = 16usize;
    let mut zipf_s = 1.0f64;
    let mut seed = 0x4D46_4E53u64; // "MFNS"
    let mut closed_addr = None;
    let mut slo_ms = 50.0f64;
    let mut refine = false;
    let mut refine_budgets = vec![0u32, 1, 2, 4, 8, 16, 32, 64];
    let mut refine_points = 16usize;
    let mut min_reduction = 0.0f64;
    let mut i = 0;
    let next = |argv: &[String], i: &mut usize, what: &str| -> String {
        *i += 1;
        argv.get(*i)
            .unwrap_or_else(|| {
                eprintln!("error: {what} needs a value\n{usage}");
                std::process::exit(2);
            })
            .clone()
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--addr" => addr = Some(next(&argv, &mut i, "--addr")),
            "--threads" => threads = next(&argv, &mut i, "--threads").parse().expect("integer"),
            "--duration-s" => {
                duration_s = next(&argv, &mut i, "--duration-s").parse().expect("integer")
            }
            "--patches" => patches = next(&argv, &mut i, "--patches").parse().expect("integer"),
            "--queries-per-req" => {
                queries_per_req = next(&argv, &mut i, "--queries-per-req").parse().expect("integer")
            }
            "--out" => out = Some(PathBuf::from(next(&argv, &mut i, "--out"))),
            "--strict" => strict = true,
            "--fleet" => fleet = true,
            "--rates" => {
                rates = next(&argv, &mut i, "--rates")
                    .split(',')
                    .map(|r| r.trim().parse().expect("rate"))
                    .collect()
            }
            "--conns" => conns = next(&argv, &mut i, "--conns").parse().expect("integer"),
            "--zipf-s" => zipf_s = next(&argv, &mut i, "--zipf-s").parse().expect("float"),
            "--seed" => seed = next(&argv, &mut i, "--seed").parse().expect("integer"),
            "--closed-addr" => closed_addr = Some(next(&argv, &mut i, "--closed-addr")),
            "--slo-ms" => slo_ms = next(&argv, &mut i, "--slo-ms").parse().expect("float"),
            "--refine" => refine = true,
            "--refine-budgets" => {
                refine_budgets = next(&argv, &mut i, "--refine-budgets")
                    .split(',')
                    .map(|k| k.trim().parse().expect("step budget"))
                    .collect()
            }
            "--refine-points" => {
                refine_points = next(&argv, &mut i, "--refine-points").parse().expect("integer")
            }
            "--min-reduction" => {
                min_reduction = next(&argv, &mut i, "--min-reduction").parse().expect("float")
            }
            "--help" | "-h" => {
                println!("{usage}");
                std::process::exit(0);
            }
            other => {
                eprintln!("error: unknown option {other}\n{usage}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    Args {
        addr: addr.unwrap_or_else(|| {
            eprintln!("error: --addr is required\n{usage}");
            std::process::exit(2);
        }),
        threads: threads.max(1),
        duration_s: duration_s.max(1),
        patches: patches.max(1),
        queries_per_req: queries_per_req.max(1),
        out: out.unwrap_or_else(|| {
            PathBuf::from(if fleet { "BENCH_fleet.json" } else { "BENCH_serve.json" })
        }),
        strict,
        fleet,
        rates,
        conns: conns.max(1),
        zipf_s,
        seed,
        closed_addr,
        slo_ms,
        refine,
        refine_budgets,
        refine_points: refine_points.max(1),
        min_reduction,
    }
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

/// One measured point of the open-loop sweep.
struct RatePoint {
    offered_qps: f64,
    achieved_qps: f64,
    requests: u64,
    errors: u64,
    p50_us: u64,
    p90_us: u64,
    p99_us: u64,
    max_us: u64,
}

/// Runs one offered-load level: `count` requests due at seeded Poisson
/// times, zipf-picked patches, spread round-robin over `conns` connections.
/// Latency for request `i` runs from its *scheduled* due time to response
/// receipt, so a server falling behind pays the backlog in its tail.
#[allow(clippy::too_many_arguments)]
fn run_rate(
    addr: &str,
    rate: f64,
    duration_s: u64,
    conns: usize,
    digests: Arc<Vec<u64>>,
    numel: usize,
    qn: usize,
    zipf_s: f64,
    seed: u64,
) -> RatePoint {
    // Per-rate RNG stream: the whole workload (schedule + picks) is a pure
    // function of (seed, rate), independent of thread interleaving.
    let mut rng = SplitMix64::new(seed ^ rate.to_bits());
    let count = ((rate * duration_s as f64) as usize).max(1);
    let schedule = ArrivalSchedule::new(rate, count, &mut rng);
    let zipf = Zipf::new(digests.len(), zipf_s);
    let picks: Vec<usize> = (0..count).map(|_| zipf.sample(&mut rng)).collect();
    let offsets = Arc::new(schedule.offsets_us().to_vec());
    let picks = Arc::new(picks);
    // All senders arm on a barrier so "due time" means the same instant
    // everywhere; the extra slot releases them from this thread.
    let barrier = Arc::new(Barrier::new(conns + 1));
    let start_cell = Arc::new(std::sync::OnceLock::<Instant>::new());

    let handles: Vec<_> = (0..conns)
        .map(|cid| {
            let addr = addr.to_string();
            let offsets = offsets.clone();
            let picks = picks.clone();
            let digests = digests.clone();
            let barrier = barrier.clone();
            let start_cell = start_cell.clone();
            std::thread::spawn(move || {
                let mut lat_us: Vec<u64> = Vec::new();
                let mut errors = 0u64;
                let mut client = match Client::connect(&addr) {
                    Ok(c) => c,
                    Err(_) => {
                        barrier.wait();
                        return (lat_us, 1u64);
                    }
                };
                barrier.wait();
                let start = *start_cell.wait();
                let mut i = cid;
                while i < offsets.len() {
                    let due = start + Duration::from_micros(offsets[i]);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    // Query content depends only on the request index.
                    let mut qstate = (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED;
                    let qs = gen_queries(&mut qstate, qn);
                    let pick = picks[i];
                    let res = match client.query(digests[pick], &qs) {
                        // A rerouted or evicted digest misses on the shard
                        // now owning it: re-encode in-band and continue —
                        // the same recovery a single-server client uses.
                        Err(ServeError::Remote { code, .. })
                            if code == mfn_serve::error::code::UNKNOWN_DIGEST =>
                        {
                            let patch = gen_patch(pick, numel);
                            client.encode_query(1, &patch, &qs).map(|_| ())
                        }
                        other => other.map(|_| ()),
                    };
                    match res {
                        Ok(()) => {
                            lat_us.push(due.elapsed().as_micros() as u64);
                        }
                        Err(e) => {
                            errors += 1;
                            eprintln!("loadgen conn {cid}: {e}");
                            match Client::connect(&addr) {
                                Ok(c) => client = c,
                                Err(_) => break,
                            }
                        }
                    }
                    i += conns;
                }
                (lat_us, errors)
            })
        })
        .collect();
    barrier.wait();
    let start = Instant::now();
    let _ = start_cell.set(start);

    let mut lat_us = Vec::new();
    let mut errors = 0u64;
    for h in handles {
        let (mut l, e) = h.join().expect("loadgen conn thread");
        lat_us.append(&mut l);
        errors += e;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let requests = lat_us.len() as u64;
    lat_us.sort_unstable();
    RatePoint {
        offered_qps: rate,
        achieved_qps: requests as f64 / elapsed,
        requests,
        errors,
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

/// Aggregate result of the closed-loop comparison phase.
struct ClosedLoop {
    addr: String,
    threads: usize,
    requests: u64,
    errors: u64,
    qps: f64,
    p50_us: u64,
    p90_us: u64,
    p99_us: u64,
}

/// Closed-loop phase: `threads` self-paced connections issue back-to-back
/// queries over the warm digests for `duration_s`, timing per-request RTT —
/// the measurement regime of the historical blocking-server baseline, so
/// the resulting qps/p99 compare directly against `BENCH_baseline.json`.
fn run_closed(
    addr: &str,
    threads: usize,
    duration_s: u64,
    digests: Arc<Vec<u64>>,
    numel: usize,
    qn: usize,
) -> ClosedLoop {
    let deadline = Instant::now() + Duration::from_secs(duration_s);
    let t_start = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|tid| {
            let addr = addr.to_string();
            let digests = digests.clone();
            std::thread::spawn(move || {
                let mut lat_us = Vec::new();
                let mut errors = 0u64;
                let mut state = (tid as u64 + 1) * 0xA5A5_5A5A;
                let mut client = match Client::connect(&addr) {
                    Ok(c) => c,
                    Err(_) => return (lat_us, 1u64),
                };
                while Instant::now() < deadline {
                    let pick = (lcg(&mut state) as usize) % digests.len();
                    let qs = gen_queries(&mut state, qn);
                    let t0 = Instant::now();
                    let res = match client.query(digests[pick], &qs) {
                        // A digest owned by a different shard misses here
                        // (this phase may target one shard directly): the
                        // standard re-encode recovery warms it locally.
                        Err(ServeError::Remote { code, .. })
                            if code == mfn_serve::error::code::UNKNOWN_DIGEST =>
                        {
                            let patch = gen_patch(pick, numel);
                            client.encode_query(1, &patch, &qs).map(|_| ())
                        }
                        other => other.map(|_| ()),
                    };
                    match res {
                        Ok(()) => lat_us.push(t0.elapsed().as_micros() as u64),
                        Err(e) => {
                            errors += 1;
                            eprintln!("closed-loop thread {tid}: {e}");
                            match Client::connect(&addr) {
                                Ok(c) => client = c,
                                Err(_) => break,
                            }
                        }
                    }
                }
                (lat_us, errors)
            })
        })
        .collect();
    let mut lat_us = Vec::new();
    let mut errors = 0u64;
    for h in handles {
        let (mut l, e) = h.join().expect("closed-loop thread");
        lat_us.append(&mut l);
        errors += e;
    }
    let elapsed = t_start.elapsed().as_secs_f64();
    let requests = lat_us.len() as u64;
    lat_us.sort_unstable();
    ClosedLoop {
        addr: addr.to_string(),
        threads,
        requests,
        errors,
        qps: requests as f64 / elapsed,
        p50_us: percentile_us(&lat_us, 0.5),
        p90_us: percentile_us(&lat_us, 0.9),
        p99_us: percentile_us(&lat_us, 0.99),
    }
}

fn fleet_main(args: Args) {
    let mut client = Client::connect(&args.addr).unwrap_or_else(|e| {
        eprintln!("error: cannot connect to {}: {e}", args.addr);
        std::process::exit(1);
    });
    let info = client.info().unwrap_or_else(|e| {
        eprintln!("error: info request failed: {e}");
        std::process::exit(1);
    });
    let numel = (info.in_channels * info.grid[0] * info.grid[1] * info.grid[2]) as usize;
    eprintln!(
        "fleet target: {} params, grid {:?}, patch numel {numel}, \
         {} patches, zipf s={}, seed {}",
        info.param_count, info.grid, args.patches, args.zipf_s, args.seed
    );

    // Warm phase: encode every patch once so the sweep measures the
    // steady decode path. Through a router these land on each digest's
    // owning shard — encode-once fleet-wide.
    let mut digests = Vec::with_capacity(args.patches);
    for idx in 0..args.patches {
        let patch = gen_patch(idx, numel);
        let (digest, _) = client.encode(1, &patch).unwrap_or_else(|e| {
            eprintln!("error: warm encode failed: {e}");
            std::process::exit(1);
        });
        digests.push(digest);
    }
    let digests = Arc::new(digests);

    let mut sweep = Vec::new();
    for &rate in &args.rates {
        let pt = run_rate(
            &args.addr,
            rate,
            args.duration_s,
            args.conns,
            digests.clone(),
            numel,
            args.queries_per_req,
            args.zipf_s,
            args.seed,
        );
        eprintln!(
            "offered {:.0} qps -> achieved {:.0} qps | p50 {} us, p90 {} us, \
             p99 {} us, max {} us | {} errors",
            pt.offered_qps, pt.achieved_qps, pt.p50_us, pt.p90_us, pt.p99_us, pt.max_us, pt.errors
        );
        sweep.push(pt);
    }

    // Per-shard cache economics after the sweep. Against a router this is
    // one entry per healthy shard; against a single server, one entry.
    let shards: Vec<ShardStat> = client.stats().unwrap_or_else(|e| {
        eprintln!("error: stats request failed: {e}");
        std::process::exit(1);
    });
    for s in &shards {
        let total = (s.cache_hits + s.cache_misses).max(1);
        eprintln!(
            "shard {}: {} reqs, cache {}/{} hit/miss ({:.1}% hit), \
             {} decodes / {} points decoded",
            s.addr,
            s.requests,
            s.cache_hits,
            s.cache_misses,
            100.0 * s.cache_hits as f64 / total as f64,
            s.decode_calls,
            s.batched_queries,
        );
    }

    // Closed-loop comparison, after the stats snapshot so the per-shard
    // counters above describe the sweep alone.
    let closed_target = args.closed_addr.clone().unwrap_or_else(|| args.addr.clone());
    let closed = run_closed(
        &closed_target,
        args.threads,
        args.duration_s,
        digests.clone(),
        numel,
        args.queries_per_req,
    );
    eprintln!(
        "closed-loop vs {}: {} reqs = {:.0} qps | p50 {} us, p90 {} us, p99 {} us | {} errors",
        closed.addr,
        closed.requests,
        closed.qps,
        closed.p50_us,
        closed.p90_us,
        closed.p99_us,
        closed.errors
    );

    let slo_us = (args.slo_ms * 1000.0) as u64;
    let (knee_idx, met_slo) = pick_knee(&sweep, slo_us);
    let knee = &sweep[knee_idx];
    eprintln!(
        "knee @ p99<={:.0}ms SLO: offered {:.0} qps -> achieved {:.0} qps, p99 {} us{}",
        args.slo_ms,
        knee.offered_qps,
        knee.achieved_qps,
        knee.p99_us,
        if met_slo { "" } else { " (NO rate met the SLO; lowest-p99 point shown)" },
    );
    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"mfn-bench/fleet/v2\",\n  \"config\": {\n");
    json.push_str(&format!(
        "    \"addr\": \"{}\",\n    \"conns\": {},\n    \"duration_s_per_rate\": {},\n    \
         \"patches\": {},\n    \"queries_per_req\": {},\n    \"zipf_s\": {},\n    \
         \"seed\": {},\n    \"slo_ms\": {}\n  }},\n",
        args.addr,
        args.conns,
        args.duration_s,
        args.patches,
        args.queries_per_req,
        args.zipf_s,
        args.seed,
        args.slo_ms
    ));
    json.push_str("  \"sweep\": [\n");
    for (i, p) in sweep.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"offered_qps\": {:.1}, \"achieved_qps\": {:.2}, \"requests\": {}, \
             \"protocol_errors\": {}, \"p50_us\": {}, \"p90_us\": {}, \"p99_us\": {}, \
             \"max_us\": {} }}{}\n",
            p.offered_qps,
            p.achieved_qps,
            p.requests,
            p.errors,
            p.p50_us,
            p.p90_us,
            p.p99_us,
            p.max_us,
            if i + 1 < sweep.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    // `knee` is the headline number; `best` keeps the old key pointing at
    // the same (now SLO-aware) point so existing report readers still work.
    json.push_str(&format!(
        "  \"knee\": {{ \"offered_qps\": {:.1}, \"achieved_qps\": {:.2}, \"p99_us\": {}, \
         \"slo_us\": {slo_us}, \"met_slo\": {met_slo} }},\n",
        knee.offered_qps, knee.achieved_qps, knee.p99_us
    ));
    json.push_str(&format!(
        "  \"best\": {{ \"offered_qps\": {:.1}, \"achieved_qps\": {:.2}, \"p99_us\": {} }},\n",
        knee.offered_qps, knee.achieved_qps, knee.p99_us
    ));
    json.push_str(&format!(
        "  \"closed_loop\": {{ \"addr\": \"{}\", \"threads\": {}, \"duration_s\": {}, \
         \"requests\": {}, \"protocol_errors\": {}, \"qps\": {:.2}, \"p50_us\": {}, \
         \"p90_us\": {}, \"p99_us\": {} }},\n",
        closed.addr,
        closed.threads,
        args.duration_s,
        closed.requests,
        closed.errors,
        closed.qps,
        closed.p50_us,
        closed.p90_us,
        closed.p99_us,
    ));
    json.push_str("  \"shards\": [\n");
    for (i, s) in shards.iter().enumerate() {
        let total = (s.cache_hits + s.cache_misses).max(1);
        json.push_str(&format!(
            "    {{ \"addr\": \"{}\", \"requests\": {}, \"errors\": {}, \"cache_hits\": {}, \
             \"cache_misses\": {}, \"hit_rate\": {:.4}, \"cache_len\": {}, \
             \"decode_calls\": {}, \"batched_queries\": {} }}{}\n",
            s.addr,
            s.requests,
            s.errors,
            s.cache_hits,
            s.cache_misses,
            s.cache_hits as f64 / total as f64,
            s.cache_len,
            s.decode_calls,
            s.batched_queries,
            if i + 1 < shards.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&args.out, &json).expect("write BENCH_fleet.json");
    print!("{json}");
    let _ = std::io::stdout().flush();
    eprintln!("wrote {}", args.out.display());

    let total_requests: u64 = sweep.iter().map(|p| p.requests).sum::<u64>() + closed.requests;
    let total_errors: u64 = sweep.iter().map(|p| p.errors).sum::<u64>() + closed.errors;
    if args.strict && (total_requests == 0 || total_errors > 0) {
        eprintln!(
            "STRICT FAILURE: requests = {total_requests}, protocol_errors = {total_errors} \
             (need requests > 0 and zero errors)"
        );
        std::process::exit(1);
    }
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

/// One measured point of the refinement quality/latency sweep.
struct RefinePoint {
    max_steps: u32,
    steps_run: u32,
    steps_accepted: u32,
    initial_residual: f32,
    final_residual: f32,
    reduction: f64,
    p50_us: u64,
    p99_us: u64,
}

/// Refinement sweep: one smooth patch, fixed deterministic query points,
/// repeated `Refine` calls per step budget. Quality (server-reported
/// residual reduction) and cost (request latency) per budget land in the
/// `refine` section of the output JSON; `--min-reduction` turns the best
/// reduction into a pass/fail gate.
fn refine_main(args: Args) {
    let mut client = Client::connect(&args.addr).unwrap_or_else(|e| {
        eprintln!("error: cannot connect to {}: {e}", args.addr);
        std::process::exit(1);
    });
    let info = client.info().unwrap_or_else(|e| {
        eprintln!("error: info request failed: {e}");
        std::process::exit(1);
    });
    let (c, nt, nz, nx) = (
        info.in_channels as usize,
        info.grid[0] as usize,
        info.grid[1] as usize,
        info.grid[2] as usize,
    );
    let patch = gen_smooth_patch(c, nt, nz, nx);
    let (digest, _) = client.encode(1, &patch).unwrap_or_else(|e| {
        eprintln!("error: encode failed: {e}");
        std::process::exit(1);
    });
    // Interior points well away from the FD clamp band, fixed across the
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

    const REPS: usize = 8;
    let mut errors = 0u64;
    let mut requests = 0u64;
    let mut curve: Vec<RefinePoint> = Vec::new();
    for &k in &args.refine_budgets {
        let budget = RefineBudget { max_steps: k, tol: 0.0, max_micros: 0 };
        let mut lat_us: Vec<u64> = Vec::new();
        let mut first: Option<mfn_serve::RefineResult> = None;
        for _ in 0..REPS {
            let t0 = Instant::now();
            let res = match client.refine(digest, &qs, budget) {
                // Evicted digest: the standard re-encode recovery, then retry.
                Err(ServeError::Remote { code, .. })
                    if code == mfn_serve::error::code::UNKNOWN_DIGEST =>
                {
                    let patch = gen_smooth_patch(c, nt, nz, nx);
                    client.encode(1, &patch).and_then(|_| client.refine(digest, &qs, budget))
                }
                other => other,
            };
            match res {
                Ok(r) => {
                    requests += 1;
                    lat_us.push(t0.elapsed().as_micros() as u64);
                    // Untimed budgets are deterministic: reruns against the
                    // same latent must agree bit-for-bit.
                    if let Some(f) = &first {
                        if r.values != f.values || r.final_residual != f.final_residual {
                            errors += 1;
                            eprintln!(
                                "refine sweep: nondeterministic response at budget {k} \
                                 ({} vs {} final residual)",
                                r.final_residual, f.final_residual
                            );
                        }
                    } else {
                        first = Some(r);
                    }
                }
                Err(e) => {
                    errors += 1;
                    eprintln!("refine sweep: budget {k}: {e}");
                    match Client::connect(&args.addr) {
                        Ok(cl) => client = cl,
                        Err(_) => break,
                    }
                }
            }
        }
        let Some(r) = first else { continue };
        lat_us.sort_unstable();
        let reduction = if r.final_residual > 0.0 {
            r.initial_residual as f64 / r.final_residual as f64
        } else {
            f64::INFINITY
        };
        let pt = RefinePoint {
            max_steps: k,
            steps_run: r.steps_run,
            steps_accepted: r.steps_accepted,
            initial_residual: r.initial_residual,
            final_residual: r.final_residual,
            reduction,
            p50_us: percentile_us(&lat_us, 0.5),
            p99_us: percentile_us(&lat_us, 0.99),
        };
        eprintln!(
            "budget {:>3}: residual {:.6} -> {:.6} ({:.2}x, {}/{} steps accepted) | \
             p50 {} us, p99 {} us",
            pt.max_steps,
            pt.initial_residual,
            pt.final_residual,
            pt.reduction,
            pt.steps_accepted,
            pt.steps_run,
            pt.p50_us,
            pt.p99_us
        );
        curve.push(pt);
    }

    let best_reduction = curve.iter().map(|p| p.reduction).fold(0.0f64, f64::max);
    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"mfn-bench/serve-refine/v1\",\n  \"config\": {\n");
    json.push_str(&format!(
        "    \"addr\": \"{}\",\n    \"points\": {},\n    \"reps_per_budget\": {REPS},\n    \
         \"seed\": {},\n    \"min_reduction\": {}\n  }},\n",
        args.addr,
        qs.len(),
        args.seed,
        args.min_reduction
    ));
    json.push_str("  \"curve\": [\n");
    for (i, p) in curve.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"max_steps\": {}, \"steps_run\": {}, \"steps_accepted\": {}, \
             \"initial_residual\": {:.6}, \"final_residual\": {:.6}, \"reduction\": {:.4}, \
             \"p50_us\": {}, \"p99_us\": {} }}{}\n",
            p.max_steps,
            p.steps_run,
            p.steps_accepted,
            p.initial_residual,
            p.final_residual,
            p.reduction,
            p.p50_us,
            p.p99_us,
            if i + 1 < curve.len() { "," } else { "" },
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"best_reduction\": {best_reduction:.4},\n  \
         \"requests\": {requests},\n  \"protocol_errors\": {errors}\n}}\n"
    ));
    std::fs::write(&args.out, &json).expect("write refine bench json");
    print!("{json}");
    let _ = std::io::stdout().flush();
    eprintln!("wrote {}", args.out.display());

    if args.strict && (requests == 0 || errors > 0) {
        eprintln!(
            "STRICT FAILURE: requests = {requests}, protocol_errors = {errors} \
             (need requests > 0 and zero errors)"
        );
        std::process::exit(1);
    }
    if args.min_reduction > 0.0 && best_reduction < args.min_reduction {
        eprintln!(
            "QUALITY GATE FAILURE: best residual reduction {best_reduction:.2}x \
             < required {:.2}x",
            args.min_reduction
        );
        std::process::exit(1);
    }
}

fn main() {
    let args = parse();
    if args.refine {
        return refine_main(args);
    }
    if args.fleet {
        return fleet_main(args);
    }
    let mut client = Client::connect(&args.addr).unwrap_or_else(|e| {
        eprintln!("error: cannot connect to {}: {e}", args.addr);
        std::process::exit(1);
    });
    let info = client.info().unwrap_or_else(|e| {
        eprintln!("error: info request failed: {e}");
        std::process::exit(1);
    });
    let numel = (info.in_channels * info.grid[0] * info.grid[1] * info.grid[2]) as usize;
    eprintln!(
        "server: {} params, {} trained steps, grid {:?}, patch numel {numel}",
        info.param_count, info.trained_steps, info.grid
    );

    // Phase 1+2: encode-miss vs cache-hit latency, single connection.
    let mut miss_us = Vec::new();
    let mut hit_encode_us = Vec::new();
    let mut hit_query_us = Vec::new();
    let mut digests = Vec::new();
    let mut qstate = 0x5EED_u64;
    for idx in 0..args.patches {
        let patch = gen_patch(idx, numel);
        let t0 = Instant::now();
        let (digest, was_hit) = client.encode(1, &patch).unwrap_or_else(|e| {
            eprintln!("error: encode failed: {e}");
            std::process::exit(1);
        });
        let us = t0.elapsed().as_micros() as u64;
        // A warm server (rerun against the same instance) hits immediately;
        // only genuine misses enter the miss distribution.
        if was_hit {
            hit_encode_us.push(us);
        } else {
            miss_us.push(us);
        }
        digests.push(digest);
    }
    for idx in 0..args.patches {
        let patch = gen_patch(idx, numel);
        let t0 = Instant::now();
        let (_, was_hit) = client.encode(1, &patch).expect("re-encode");
        assert!(was_hit, "second encode of identical patch must hit the cache");
        hit_encode_us.push(t0.elapsed().as_micros() as u64);
    }
    for &digest in &digests {
        for _ in 0..8 {
            let qs = gen_queries(&mut qstate, args.queries_per_req);
            let t0 = Instant::now();
            client.query(digest, &qs).expect("warm query");
            hit_query_us.push(t0.elapsed().as_micros() as u64);
        }
    }
    miss_us.sort_unstable();
    hit_encode_us.sort_unstable();
    hit_query_us.sort_unstable();
    let miss_p50 = percentile_us(&miss_us, 0.5);
    let hit_enc_p50 = percentile_us(&hit_encode_us, 0.5);
    let hit_query_p50 = percentile_us(&hit_query_us, 0.5);
    let speedup = miss_p50 as f64 / hit_enc_p50.max(1) as f64;
    eprintln!(
        "encode miss p50 {miss_p50} us | cache-hit encode p50 {hit_enc_p50} us \
         ({speedup:.1}x) | cache-hit query p50 {hit_query_p50} us"
    );

    // Phase 3: multi-threaded sustained load.
    let deadline = Instant::now() + Duration::from_secs(args.duration_s);
    let digests = std::sync::Arc::new(digests);
    let t_start = Instant::now();
    let handles: Vec<_> = (0..args.threads)
        .map(|tid| {
            let addr = args.addr.clone();
            let digests = digests.clone();
            let qn = args.queries_per_req;
            std::thread::spawn(move || {
                let mut requests = 0u64;
                let mut errors = 0u64;
                let mut lat_us = Vec::new();
                let mut state = (tid as u64 + 1) * 0xA5A5_5A5A;
                let mut client = match Client::connect(&addr) {
                    Ok(c) => c,
                    Err(_) => return (0, 1, lat_us),
                };
                while Instant::now() < deadline {
                    let pick = (lcg(&mut state) as usize) % digests.len();
                    let qs = gen_queries(&mut state, qn);
                    let t0 = Instant::now();
                    // 1-in-8 requests exercise the combined encode+query
                    // path; the rest query cached latents by digest.
                    let res = if lcg(&mut state).is_multiple_of(8) {
                        let patch = gen_patch(pick, numel);
                        client.encode_query(1, &patch, &qs).map(|_| ())
                    } else {
                        match client.query(digests[pick], &qs) {
                            // Evicted digest (tiny cache): re-encode and go on.
                            Err(ServeError::Remote { code, .. })
                                if code == mfn_serve::error::code::UNKNOWN_DIGEST =>
                            {
                                let patch = gen_patch(pick, numel);
                                client.encode_query(1, &patch, &qs).map(|_| ())
                            }
                            other => other.map(|_| ()),
                        }
                    };
                    match res {
                        Ok(()) => {
                            requests += 1;
                            lat_us.push(t0.elapsed().as_micros() as u64);
                        }
                        Err(e) => {
                            errors += 1;
                            eprintln!("loadgen thread {tid}: {e}");
                            // Reconnect once; a dropped connection mid-run
                            // otherwise poisons the remaining duration.
                            match Client::connect(&addr) {
                                Ok(c) => client = c,
                                Err(_) => break,
                            }
                        }
                    }
                }
                (requests, errors, lat_us)
            })
        })
        .collect();
    let mut requests = 0u64;
    let mut errors = 0u64;
    let mut lat_us = Vec::new();
    for h in handles {
        let (r, e, mut l) = h.join().expect("loadgen thread");
        requests += r;
        errors += e;
        lat_us.append(&mut l);
    }
    let elapsed = t_start.elapsed().as_secs_f64();
    lat_us.sort_unstable();
    let qps = requests as f64 / elapsed;
    let p50 = percentile_us(&lat_us, 0.5);
    let p90 = percentile_us(&lat_us, 0.9);
    let p99 = percentile_us(&lat_us, 0.99);
    eprintln!(
        "{requests} requests in {elapsed:.1}s = {qps:.0} qps | p50 {p50} us, \
         p90 {p90} us, p99 {p99} us | {errors} errors"
    );

    let json = format!(
        "{{\n  \"schema\": \"mfn-bench/serve/v1\",\n  \"config\": {{\n    \
         \"addr\": \"{addr}\",\n    \"threads\": {threads},\n    \
         \"duration_s\": {duration},\n    \"patches\": {patches},\n    \
         \"queries_per_req\": {qpr}\n  }},\n  \"cache\": {{\n    \
         \"encode_miss_us_p50\": {miss_p50},\n    \
         \"cache_hit_encode_us_p50\": {hit_enc_p50},\n    \
         \"cache_hit_query_us_p50\": {hit_query_p50},\n    \
         \"hit_to_miss_speedup\": {speedup:.2}\n  }},\n  \"load\": {{\n    \
         \"requests\": {requests},\n    \"protocol_errors\": {errors},\n    \
         \"qps\": {qps:.2},\n    \"p50_us\": {p50},\n    \"p90_us\": {p90},\n    \
         \"p99_us\": {p99}\n  }},\n  \"server\": {{\n    \
         \"param_count\": {params},\n    \"trained_steps\": {steps}\n  }}\n}}\n",
        addr = args.addr,
        threads = args.threads,
        duration = args.duration_s,
        patches = args.patches,
        qpr = args.queries_per_req,
        params = info.param_count,
        steps = info.trained_steps,
    );
    std::fs::write(&args.out, &json).expect("write BENCH_serve.json");
    print!("{json}");
    let _ = std::io::stdout().flush();
    eprintln!("wrote {}", args.out.display());

    if args.strict && (requests == 0 || errors > 0) {
        eprintln!(
            "STRICT FAILURE: requests = {requests}, protocol_errors = {errors} \
             (need requests > 0 and zero errors)"
        );
        std::process::exit(1);
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
            errors: 0,
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
}
