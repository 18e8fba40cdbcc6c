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
//! otherwise it routes until killed. A missing or malformed option value
//! prints the usage and exits 2.

use mfn_core::cli::Cli;
use mfn_serve::{Router, RouterConfig};
use std::time::Duration;

struct Args {
    addr: String,
    shards: Vec<String>,
    health_interval_ms: u64,
    timeout_ms: u64,
    duration_s: u64,
}

const USAGE: &str = "usage: router --shards ADDR,ADDR,... [--addr HOST:PORT] \
                     [--health-interval-ms N] [--timeout-ms N] [--duration-s N]";

fn parse() -> Args {
    let mut a = Args {
        addr: "127.0.0.1:7070".to_string(),
        shards: Vec::new(),
        health_interval_ms: 200,
        timeout_ms: 5000,
        duration_s: 0,
    };
    let mut cli = Cli::new(USAGE);
    while let Some(flag) = cli.next_flag() {
        match flag.as_str() {
            "--addr" => a.addr = cli.value(&flag),
            "--shards" => a.shards = cli.list(&flag),
            "--health-interval-ms" => a.health_interval_ms = cli.value(&flag),
            "--timeout-ms" => a.timeout_ms = cli.value(&flag),
            "--duration-s" => a.duration_s = cli.value(&flag),
            other => cli.fail(&format!("unknown option {other}")),
        }
    }
    a.shards.retain(|s| !s.is_empty());
    if a.shards.is_empty() {
        cli.fail("--shards is required");
    }
    a
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
