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
//!   fig7       one measured data-parallel run per worker count (1, 2, 4, ...
//!              up to the host's cores), printed as the three panels of
//!              paper Fig. 7: throughput and scaling efficiency, loss vs.
//!              epochs, loss vs. wall time
//!   ablation   design-choice ablations: decoder activation,
//!              PDE-constraint combinations
//!   all        every experiment but the ablations at the chosen scale
//!
//! Options:
//!   --quick         CI-sized scale (~minutes total)
//!   --paper-scale   the paper's 512x128x400 configuration (hours on CPU)
//!   --epochs N      override training epochs (whatever preset is chosen)
//!   --out DIR       output directory for fig6 panels / JSON records
//!                   (default: results/)
//!
//! The paper's Ra = 10^6 run, which Tables 1-2, Figs. 6-7 and the ablations
//! share, is simulated once per process. Every run also appends
//! per-experiment wall-clock spans to `<out>/repro_telemetry.jsonl` (one JSON
//! object per line).
//! ```

use mfn_bench::{
    ablation, efficiency, fig6, fig7, print_rows, table1, table2, table3, table4, ExperimentScale,
    TABLE1_GAMMAS,
};
use mfn_core::cli::Cli;
use mfn_core::Corpus;
use mfn_dist::DistRunResult;
use mfn_telemetry::Recorder;
use std::path::PathBuf;

const EXPERIMENTS: [&str; 8] =
    ["table1", "table2", "table3", "table4", "fig6", "fig7", "ablation", "all"];

const USAGE: &str = "usage: repro <table1|table2|table3|table4|fig6|fig7|ablation|all> \
                     [--quick|--paper-scale] [--epochs N] [--gammas A,B,...] [--out DIR]";

struct Args {
    experiment: &'static str,
    scale: ExperimentScale,
    out: PathBuf,
    gammas: Vec<f32>,
}

fn parse_args(mut cli: Cli) -> Args {
    let name = cli.next_flag().unwrap_or_else(|| cli.fail("an experiment is required"));
    let experiment = EXPERIMENTS
        .into_iter()
        .find(|e| *e == name)
        .unwrap_or_else(|| cli.fail(&format!("unknown experiment {name}")));
    let mut scale = ExperimentScale::default_scale();
    let mut epochs = None;
    let mut out = PathBuf::from("results");
    let mut gammas = TABLE1_GAMMAS.to_vec();
    while let Some(flag) = cli.next_flag() {
        match flag.as_str() {
            "--quick" => scale = ExperimentScale::quick(),
            "--paper-scale" => scale = ExperimentScale::paper(),
            "--epochs" => epochs = Some(cli.value(&flag)),
            "--out" => out = cli.value(&flag),
            "--gammas" => gammas = cli.list(&flag),
            other => cli.fail(&format!("unknown option {other}")),
        }
    }
    // Applied after the loop: a preset named after `--epochs` must not
    // replace it.
    if let Some(epochs) = epochs {
        scale.epochs = epochs;
    }
    Args { experiment, scale, out, gammas }
}

fn run_fig7(scale: &ExperimentScale, corpus: &Corpus) {
    let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(4);
    print_fig7(&fig7(scale, corpus, cores.max(2)));
}

fn print_fig7(runs: &[DistRunResult]) {
    let base = &runs[0];
    println!("\n=== Fig. 7a: throughput vs number of workers ===");
    println!("{:>8} {:>16} {:>16} {:>12}", "workers", "samples/s", "ideal", "efficiency");
    for r in runs {
        println!(
            "{:>8} {:>16.1} {:>16.1} {:>11.1}%",
            r.final_world,
            r.throughput,
            base.throughput * r.final_world as f64,
            100.0 * efficiency(base, r)
        );
    }

    println!("\n=== Fig. 7b: loss vs epochs ===");
    print!("{:>6}", "epoch");
    for r in runs {
        print!(" {:>12}", format!("{}w", r.final_world));
    }
    println!();
    for e in 0..base.epoch_losses.len() {
        print!("{:>6}", e);
        for r in runs {
            print!(" {:>12.5}", r.epoch_losses[e]);
        }
        println!();
    }

    println!("\n=== Fig. 7c: loss vs wall time (seconds) ===");
    for r in runs {
        println!("workers = {}", r.final_world);
        for (w, l) in r.epoch_wall.iter().zip(&r.epoch_losses) {
            println!("  t={w:>9.3}s  loss={l:.5}");
        }
    }
}

fn print_ablation(rows: &[(&str, &str, f32, f32)]) {
    let studies = [
        ("activation", "decoder activation", "act", 10),
        ("constraints", "PDE constraint combinations", "constraints", 18),
    ];
    for (study, title, column, width) in studies {
        println!("\n=== Ablation: {title} ===");
        println!("{column:>width$} {:>12} {:>12}", "pred loss", "eq loss");
        for (_, n, p, e) in rows.iter().filter(|r| r.0 == study) {
            println!("{n:>width$} {p:>12.4} {e:>12.4}");
        }
    }
}

fn main() {
    let args = parse_args(Cli::new(USAGE));
    let t0 = std::time::Instant::now();
    // Per-experiment spans land next to the experiment outputs; telemetry
    // failure (e.g. read-only out dir) must not block the run itself.
    std::fs::create_dir_all(&args.out).ok();
    let recorder = Recorder::jsonl(&args.out.join("repro_telemetry.jsonl"))
        .unwrap_or_else(|_| Recorder::null());
    let _experiment_span = recorder.span(args.experiment);
    let scale = &args.scale;
    let fig6_dir = args.out.join("fig6");
    match args.experiment {
        "table1" => {
            let rows = table1(scale, &scale.paper_corpus(), &args.gammas);
            print_rows("Table 1: equation-loss weight (gamma) ablation", &rows);
        }
        "table2" => {
            let rows = table2(scale, &scale.paper_corpus());
            print_rows("Table 2: MeshfreeFlowNet vs baselines", &rows);
        }
        "table3" => {
            let rows = table3(scale, 3);
            print_rows("Table 3: unseen initial conditions", &rows);
        }
        "table4" => {
            let rows = table4(scale, &[2e5, 8e5, 3e6], &[1e4, 1e5, 5e6, 1e7]);
            print_rows("Table 4: Rayleigh-number generalization", &rows);
        }
        "fig6" => {
            fig6(scale, &scale.paper_corpus(), &fig6_dir).expect("fig6 output");
            println!("fig6 panels written to {}", fig6_dir.display());
        }
        "fig7" => run_fig7(scale, &scale.paper_corpus()),
        "ablation" => print_ablation(&ablation(scale, &scale.paper_corpus())),
        "all" => {
            let corpus = scale.paper_corpus();
            print_rows("Table 1", &table1(scale, &corpus, &TABLE1_GAMMAS));
            print_rows("Table 2", &table2(scale, &corpus));
            print_rows("Table 3", &table3(scale, 3));
            print_rows("Table 4", &table4(scale, &[2e5, 8e5, 3e6], &[1e4, 1e5, 5e6, 1e7]));
            fig6(scale, &corpus, &fig6_dir).expect("fig6 output");
            run_fig7(scale, &corpus);
        }
        _ => unreachable!("parse_args accepts only EXPERIMENTS"),
    }
    drop(_experiment_span);
    recorder.gauge("total_seconds", t0.elapsed().as_secs_f64());
    recorder.flush();
    eprintln!("\n[{}] completed in {:.0}s", args.experiment, t0.elapsed().as_secs_f64());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Args {
        parse_args(Cli::with_args(USAGE, args.iter().map(|a| a.to_string())))
    }

    #[test]
    fn epochs_override_holds_in_either_flag_order() {
        let before = parse(&["fig7", "--epochs", "8", "--quick"]).scale;
        let after = parse(&["fig7", "--quick", "--epochs", "8"]).scale;
        assert_eq!(before, after);
        assert_eq!(before.epochs, 8);
        assert_eq!(parse(&["fig7", "--quick"]).scale.epochs, ExperimentScale::quick().epochs);
    }
}
