//! `serve` — load a train-state checkpoint and answer continuous queries
//! over TCP.
//!
//! ```text
//! usage: serve --ckpt PATH.state [--config PATH.cfg.json] [--addr HOST:PORT]
//!              [--cache-cap N] [--workers N] [--timeout-ms N]
//!              [--telemetry PATH] [--duration-s N] [--refine]
//! ```
//!
//! `--ckpt` names an `MFNSTAT1` train-state file (`train --ckpt model.ckpt`
//! always writes `model.ckpt.state`); only parameters and BN statistics are
//! loaded — the Adam moments are never materialized. The architecture comes
//! from the JSON sidecar `train` writes next to it; by default it is derived
//! from the state path (`model.ckpt.state` → `model.ckpt.cfg.json`).
//! Prints `listening on ADDR` once ready. With `--duration-s N` the server
//! drains gracefully after N seconds (for CI smoke runs); otherwise it
//! serves until killed.

use mfn_core::{FrozenModel, MfnConfig, RefineSettings};
use mfn_serve::{Engine, EngineConfig, Server, ServerConfig};
use mfn_telemetry::Recorder;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    ckpt: PathBuf,
    config: Option<PathBuf>,
    addr: String,
    cache_cap: usize,
    workers: usize,
    timeout_ms: u64,
    telemetry: Option<PathBuf>,
    duration_s: u64,
    refine: bool,
}

fn parse() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: serve --ckpt PATH.state [--config PATH.cfg.json] \
                 [--addr HOST:PORT] [--cache-cap N] [--workers N] [--timeout-ms N] \
                 [--telemetry PATH] [--duration-s N] [--refine]";
    let mut ckpt = None;
    let mut config = None;
    let mut addr = "127.0.0.1:7077".to_string();
    let mut cache_cap = 64usize;
    let mut workers = 4usize;
    let mut timeout_ms = 2000u64;
    let mut telemetry = None;
    let mut duration_s = 0u64;
    let mut refine = false;
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
            "--ckpt" => ckpt = Some(PathBuf::from(next(&argv, &mut i, "--ckpt"))),
            "--config" => config = Some(PathBuf::from(next(&argv, &mut i, "--config"))),
            "--addr" => addr = next(&argv, &mut i, "--addr"),
            "--cache-cap" => {
                cache_cap = next(&argv, &mut i, "--cache-cap").parse().expect("integer")
            }
            "--workers" => workers = next(&argv, &mut i, "--workers").parse().expect("integer"),
            "--timeout-ms" => {
                timeout_ms = next(&argv, &mut i, "--timeout-ms").parse().expect("integer")
            }
            "--telemetry" => telemetry = Some(PathBuf::from(next(&argv, &mut i, "--telemetry"))),
            "--duration-s" => {
                duration_s = next(&argv, &mut i, "--duration-s").parse().expect("integer")
            }
            "--refine" => refine = true,
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
    let missing = |what: &str| -> ! {
        eprintln!("error: {what} is required\n{usage}");
        std::process::exit(2);
    };
    Args {
        ckpt: ckpt.unwrap_or_else(|| missing("--ckpt")),
        config,
        addr,
        cache_cap,
        workers,
        timeout_ms,
        telemetry,
        duration_s,
        refine,
    }
}

/// `model.ckpt.state` → `model.ckpt.cfg.json` (matches what `train` writes).
fn default_config_path(ckpt: &std::path::Path) -> PathBuf {
    let s = ckpt.to_string_lossy();
    let base = s.strip_suffix(".state").unwrap_or(&s);
    PathBuf::from(format!("{base}.cfg.json"))
}

fn main() {
    let args = parse();
    let cfg_path = args.config.clone().unwrap_or_else(|| default_config_path(&args.ckpt));
    let cfg = MfnConfig::load_json(&cfg_path).unwrap_or_else(|e| {
        eprintln!("error: cannot load model config {}: {e}", cfg_path.display());
        std::process::exit(1);
    });
    let model = FrozenModel::load_state(cfg, &args.ckpt).unwrap_or_else(|e| {
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
            let r = Recorder::jsonl(path).expect("create telemetry file");
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
            ..ServerConfig::default()
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
            stats.queries(),
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
