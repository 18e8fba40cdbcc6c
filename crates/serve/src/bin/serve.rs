//! `serve` — load a train-state checkpoint and answer continuous queries
//! over TCP.
//!
//! ```text
//! usage: serve --ckpt PATH.state [--addr HOST:PORT] [--cache-cap N]
//!              [--workers N] [--timeout-ms N] [--telemetry PATH]
//!              [--duration-s N] [--refine]
//! ```
//!
//! `--ckpt` names an `MFNSTAT1` train-state file (`train --ckpt model.ckpt`
//! always writes `model.ckpt.state`), the one file a model is: the
//! architecture comes from the section that opens it, and only parameters
//! and BN statistics are loaded — the Adam moments are never materialized.
//! Prints `listening on ADDR` once ready. With `--duration-s N` the server
//! drains gracefully after N seconds (for CI smoke runs); otherwise it
//! serves until killed. A missing or malformed option value prints the
//! usage and exits 2; an unreadable checkpoint, or a telemetry file that
//! cannot be created, prints the error and exits 1.

use mfn_core::cli::Cli;
use mfn_core::{FrozenModel, RefineSettings};
use mfn_serve::{Engine, EngineConfig, Server, ServerConfig};
use mfn_telemetry::Recorder;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    ckpt: PathBuf,
    addr: String,
    cache_cap: usize,
    workers: usize,
    timeout_ms: u64,
    telemetry: Option<PathBuf>,
    duration_s: u64,
    refine: bool,
}

const USAGE: &str = "usage: serve --ckpt PATH.state [--addr HOST:PORT] [--cache-cap N] \
                     [--workers N] [--timeout-ms N] [--telemetry PATH] [--duration-s N] \
                     [--refine]";

fn parse() -> Args {
    let mut a = Args {
        ckpt: PathBuf::new(),
        addr: "127.0.0.1:7077".to_string(),
        cache_cap: 64,
        workers: 4,
        timeout_ms: 2000,
        telemetry: None,
        duration_s: 0,
        refine: false,
    };
    let mut ckpt = None;
    let mut cli = Cli::new(USAGE);
    while let Some(flag) = cli.next_flag() {
        match flag.as_str() {
            "--ckpt" => ckpt = Some(cli.value(&flag)),
            "--addr" => a.addr = cli.value(&flag),
            "--cache-cap" => a.cache_cap = cli.value(&flag),
            "--workers" => a.workers = cli.value(&flag),
            "--timeout-ms" => a.timeout_ms = cli.value(&flag),
            "--telemetry" => a.telemetry = Some(cli.value(&flag)),
            "--duration-s" => a.duration_s = cli.value(&flag),
            "--refine" => a.refine = true,
            other => cli.fail(&format!("unknown option {other}")),
        }
    }
    a.ckpt = ckpt.unwrap_or_else(|| cli.fail("--ckpt is required"));
    a
}

fn main() {
    let args = parse();
    let model = FrozenModel::load_state(&args.ckpt).unwrap_or_else(|e| {
        eprintln!("error: cannot load checkpoint {}: {e}", args.ckpt.display());
        std::process::exit(1);
    });
    eprintln!(
        "loaded {} ({} params, {} trained steps, grid {:?})",
        args.ckpt.display(),
        model.param_count(),
        model.trained_steps(),
        model.grid_dims(),
    );
    let refine = args.refine.then(|| RefineSettings::from_config(model.cfg()));
    let engine =
        Arc::new(Engine::new(model, EngineConfig { cache_capacity: args.cache_cap, refine }));
    if args.refine {
        eprintln!("test-time physics refinement enabled");
    }
    let recorder = match &args.telemetry {
        Some(path) => {
            let r = Recorder::jsonl(path).unwrap_or_else(|e| {
                eprintln!("error: cannot create telemetry file {}: {e}", path.display());
                std::process::exit(1);
            });
            eprintln!("telemetry -> {}", path.display());
            r
        }
        None => Recorder::null(),
    };
    let server = Server::start(
        engine.clone(),
        ServerConfig {
            addr: args.addr.clone(),
            workers: args.workers,
            request_timeout: Duration::from_millis(args.timeout_ms),
        },
        recorder,
    )
    .unwrap_or_else(|e| {
        eprintln!("error: cannot bind {}: {e}", args.addr);
        std::process::exit(1);
    });
    // Load generators and smoke scripts wait for this exact line.
    println!("listening on {}", server.local_addr());
    use std::io::Write;
    let _ = std::io::stdout().flush();

    if args.duration_s > 0 {
        std::thread::sleep(Duration::from_secs(args.duration_s));
        eprintln!("duration elapsed, draining ...");
        server.shutdown();
        let stats = engine.stats();
        eprintln!(
            "served {} requests ({} errors), {} queries, cache {}/{} hit/miss",
            stats.requests(),
            stats.errors(),
            stats.batched_queries(),
            engine.cache().hits(),
            engine.cache().misses(),
        );
    } else {
        // Serve until the process is killed.
        loop {
            std::thread::park();
        }
    }
}
