//! `router` — front a fleet of `serve` shards with digest-affine routing.
//!
//! ```text
//! usage: router --shards ADDR,ADDR,... [--addr HOST:PORT]
//!               [--health-interval-ms N] [--timeout-ms N] [--duration-s N]
//! ```
//!
//! Every shard must serve the *same* checkpoint: the ring assigns each
//! patch digest to one shard, so a patch is encoded once fleet-wide and all
//! queries against it hit that shard's latent cache. Prints
//! `routing on ADDR (N shards)` once ready — smoke scripts wait for this
//! exact line. With `--duration-s N` the router exits after N seconds;
//! otherwise it routes until killed.

use mfn_serve::{Router, RouterConfig};
use std::time::Duration;

struct Args {
    addr: String,
    shards: Vec<String>,
    health_interval_ms: u64,
    timeout_ms: u64,
    duration_s: u64,
}

fn parse() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: router --shards ADDR,ADDR,... [--addr HOST:PORT] \
                 [--health-interval-ms N] [--timeout-ms N] [--duration-s N]";
    let mut addr = "127.0.0.1:7070".to_string();
    let mut shards: Vec<String> = Vec::new();
    let mut health_interval_ms = 200u64;
    let mut timeout_ms = 5000u64;
    let mut duration_s = 0u64;
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
            "--addr" => addr = next(&argv, &mut i, "--addr"),
            "--shards" => {
                shards = next(&argv, &mut i, "--shards")
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect()
            }
            "--health-interval-ms" => {
                health_interval_ms =
                    next(&argv, &mut i, "--health-interval-ms").parse().expect("integer")
            }
            "--timeout-ms" => {
                timeout_ms = next(&argv, &mut i, "--timeout-ms").parse().expect("integer")
            }
            "--duration-s" => {
                duration_s = next(&argv, &mut i, "--duration-s").parse().expect("integer")
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
    if shards.is_empty() {
        eprintln!("error: --shards is required\n{usage}");
        std::process::exit(2);
    }
    Args { addr, shards, health_interval_ms, timeout_ms, duration_s }
}

fn main() {
    let args = parse();
    let n = args.shards.len();
    let router = Router::start(RouterConfig {
        addr: args.addr.clone(),
        shards: args.shards,
        health_interval: Duration::from_millis(args.health_interval_ms),
        request_timeout: Duration::from_millis(args.timeout_ms),
    })
    .unwrap_or_else(|e| {
        eprintln!("error: cannot bind {}: {e}", args.addr);
        std::process::exit(1);
    });
    // Smoke scripts wait for this exact line.
    println!("routing on {} ({n} shards)", router.local_addr());
    use std::io::Write;
    let _ = std::io::stdout().flush();

    if args.duration_s > 0 {
        std::thread::sleep(Duration::from_secs(args.duration_s));
        eprintln!("duration elapsed, stopping ...");
        router.shutdown();
    } else {
        loop {
            std::thread::park();
        }
    }
}
