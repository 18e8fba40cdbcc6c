//! `repro` — regenerates the paper's tables and figures.
//!
//! ```text
//! Usage: repro <experiment> [options]
//!
//! Experiments:
//!   table1     gamma ablation (paper Table 1)
//!   table2     baselines comparison (paper Table 2)
//!   table3     unseen initial conditions (paper Table 3)
//!   table4     Rayleigh-number generalization (paper Table 4)
//!   fig6       contour panels: LR / prediction / ground truth (paper Fig. 6)
//!   fig7a      throughput & scaling-efficiency curve (paper Fig. 7a)
//!   fig7b      loss vs. epochs per worker count (paper Fig. 7b)
//!   fig7c      loss vs. wall time per worker count (paper Fig. 7c)
//!   ablation   design-choice ablations: decoder activation,
//!              PDE-constraint combinations
//!   all        every experiment at the chosen scale
//!
//! Options:
//!   --quick         CI-sized scale (~minutes total)
//!   --paper-scale   the paper's 512x128x400 configuration (hours on CPU)
//!   --epochs N      override training epochs
//!   --out DIR       output directory for fig6 panels / JSON records
//!                   (default: results/)
//!
//! Every run also appends per-experiment wall-clock spans to
//! `<out>/repro_telemetry.jsonl` (one JSON object per line).
//! ```

use mfn_bench::{
    ablation_activation, ablation_constraints, fig6, fig7, print_rows, table1, table2, table3,
    table4, ExperimentScale, TABLE1_GAMMAS,
};
use mfn_telemetry::Recorder;
use std::path::PathBuf;

struct Args {
    experiment: String,
    scale: ExperimentScale,
    out: PathBuf,
    gammas: Vec<f32>,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0] == "--help" || argv[0] == "-h" {
        eprintln!("{}", USAGE);
        std::process::exit(if argv.is_empty() { 2 } else { 0 });
    }
    let experiment = argv[0].clone();
    let mut scale = ExperimentScale::default_scale();
    let mut out = PathBuf::from("results");
    let mut gammas = TABLE1_GAMMAS.to_vec();
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--quick" => scale = ExperimentScale::quick(),
            "--paper-scale" => scale = ExperimentScale::paper(),
            "--epochs" => {
                i += 1;
                scale.epochs = argv
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--epochs needs an integer"));
            }
            "--out" => {
                i += 1;
                out = PathBuf::from(argv.get(i).unwrap_or_else(|| die("--out needs a path")));
            }
            "--gammas" => {
                i += 1;
                gammas = argv
                    .get(i)
                    .unwrap_or_else(|| die("--gammas needs a comma-separated list"))
                    .split(',')
                    .map(|v| v.parse().unwrap_or_else(|_| die("bad gamma value")))
                    .collect();
            }
            other => die(&format!("unknown option {other}")),
        }
        i += 1;
    }
    Args { experiment, scale, out, gammas }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2)
}

const USAGE: &str =
    "usage: repro <table1|table2|table3|table4|fig6|fig7a|fig7b|fig7c|ablation|all> \
                     [--quick|--paper-scale] [--epochs N] [--gammas A,B,...] [--out DIR]";

fn run_fig7(args: &Args, which: char) {
    let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(4);
    let (points, model) = fig7(&args.scale, cores.max(2));
    for w in ['a', 'b', 'c'] {
        if which == w || which == '*' {
            print_fig7(&points, &model, w);
        }
    }
}

fn print_fig7(points: &[mfn_bench::ScalingPoint], model: &mfn_dist::ScalingModel, which: char) {
    match which {
        'a' => {
            println!("\n=== Fig. 7a: throughput vs number of workers ===");
            println!("{:>8} {:>16} {:>16} {:>12}", "workers", "samples/s", "ideal", "efficiency");
            let base = points[0].throughput;
            for p in points {
                println!(
                    "{:>8} {:>16.1} {:>16.1} {:>11.1}% (measured)",
                    p.workers,
                    p.throughput,
                    base * p.workers as f64,
                    100.0 * p.throughput / (base * p.workers as f64)
                );
            }
            for n in [16usize, 32, 64, 128] {
                if n > points.last().map(|p| p.workers).unwrap_or(0) {
                    println!(
                        "{:>8} {:>16.1} {:>16.1} {:>11.1}% (model)",
                        n,
                        model.throughput(n),
                        model.throughput(1) * n as f64,
                        100.0 * model.efficiency(n)
                    );
                }
            }
            println!("\npaper: 96.80% efficiency at 128 GPUs");
        }
        'b' => {
            println!("\n=== Fig. 7b: loss vs epochs ===");
            print!("{:>6}", "epoch");
            for p in points {
                print!(" {:>12}", format!("{}w", p.workers));
            }
            println!();
            let epochs = points[0].epoch_losses.len();
            for e in 0..epochs {
                print!("{:>6}", e);
                for p in points {
                    print!(" {:>12.5}", p.epoch_losses[e]);
                }
                println!();
            }
        }
        'c' => {
            println!("\n=== Fig. 7c: loss vs wall time (seconds) ===");
            for p in points {
                println!("workers = {}", p.workers);
                for (w, l) in p.epoch_wall.iter().zip(&p.epoch_losses) {
                    println!("  t={w:>9.3}s  loss={l:.5}");
                }
            }
        }
        _ => unreachable!(),
    }
}

fn main() {
    let args = parse_args();
    let t0 = std::time::Instant::now();
    // Per-experiment spans land next to the experiment outputs; telemetry
    // failure (e.g. read-only out dir) must not block the run itself.
    std::fs::create_dir_all(&args.out).ok();
    let recorder = Recorder::jsonl(&args.out.join("repro_telemetry.jsonl"))
        .unwrap_or_else(|_| Recorder::null());
    let _experiment_span = recorder.span(match args.experiment.as_str() {
        "table1" => "table1",
        "table2" => "table2",
        "table3" => "table3",
        "table4" => "table4",
        "fig6" => "fig6",
        "ablation" => "ablation",
        "fig7" | "fig7a" | "fig7b" | "fig7c" => "fig7",
        _ => "all",
    });
    match args.experiment.as_str() {
        "table1" => {
            let rows = table1(&args.scale, &args.gammas);
            print_rows("Table 1: equation-loss weight (gamma) ablation", &rows);
        }
        "table2" => {
            let rows = table2(&args.scale);
            print_rows("Table 2: MeshfreeFlowNet vs baselines", &rows);
        }
        "table3" => {
            let rows = table3(&args.scale, 3);
            print_rows("Table 3: unseen initial conditions", &rows);
        }
        "table4" => {
            let rows = table4(&args.scale, &[2e5, 8e5, 3e6], &[1e4, 1e5, 5e6, 1e7]);
            print_rows("Table 4: Rayleigh-number generalization", &rows);
        }
        "fig6" => {
            fig6(&args.scale, &args.out.join("fig6")).expect("fig6 output");
            println!("fig6 panels written to {}", args.out.join("fig6").display());
        }
        "ablation" => {
            println!("\n=== Ablation: decoder activation ===");
            println!("{:>10} {:>12} {:>12}", "act", "pred loss", "eq loss");
            for (n, p, e) in ablation_activation(&args.scale) {
                println!("{n:>10} {p:>12.4} {e:>12.4}");
            }
            println!("\n=== Ablation: PDE constraint combinations ===");
            println!("{:>18} {:>12} {:>12}", "constraints", "pred loss", "eq loss");
            for (n, p, e) in ablation_constraints(&args.scale) {
                println!("{n:>18} {p:>12.4} {e:>12.4}");
            }
        }
        "fig7" => run_fig7(&args, '*'),
        "fig7a" => run_fig7(&args, 'a'),
        "fig7b" => run_fig7(&args, 'b'),
        "fig7c" => run_fig7(&args, 'c'),
        "all" => {
            print_rows("Table 1", &table1(&args.scale, &TABLE1_GAMMAS));
            print_rows("Table 2", &table2(&args.scale));
            print_rows("Table 3", &table3(&args.scale, 3));
            print_rows("Table 4", &table4(&args.scale, &[2e5, 8e5, 3e6], &[1e4, 1e5, 5e6, 1e7]));
            fig6(&args.scale, &args.out.join("fig6")).expect("fig6 output");
            run_fig7(&args, 'a');
            run_fig7(&args, 'b');
            run_fig7(&args, 'c');
        }
        other => die(&format!("unknown experiment {other}")),
    }
    drop(_experiment_span);
    recorder.gauge("total_seconds", t0.elapsed().as_secs_f64());
    recorder.flush();
    eprintln!("\n[{}] completed in {:.0}s", args.experiment, t0.elapsed().as_secs_f64());
}
