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
//!              up to the host's cores), on one seed, printed as the three
//!              panels of paper Fig. 7: throughput and scaling efficiency,
//!              loss vs. epochs, loss vs. wall time
//!   ablation   design-choice ablations: decoder activation,
//!              PDE-constraint combinations
//!   all        every experiment but the ablations at the chosen scale
//!
//! Options:
//!   --quick         CI-sized scale (~minutes total)
//!   --paper-scale   the paper's 512x128x400 configuration (hours on CPU)
//!   --epochs N      override training epochs (whatever preset is chosen)
//!   --out DIR       results directory (default: results/)
//!
//! Every arm of an experiment runs on each of mfn_bench::SEEDS (fig6 and
//! fig7 on the first). Each experiment writes one record, <out>/<scale>/<exp>.json
//! (<scale> is quick, default or paper), and its rendering,
//! <out>/<scale>/<exp>.txt, which it also prints; fig6's panels go to
//! <out>/<scale>/fig6/. The paper's Ra = 10^6 run, which Tables 1-2,
//! Figs. 6-7 and the ablations share, is simulated once per process.
//! ```

use mfn_bench::{
    ablation, fig6, fig7, table1, table2, table3, table4, ExperimentScale, Record, SEEDS,
};
use mfn_core::cli::Cli;
use mfn_core::{Corpus, Results};
use std::cell::OnceCell;
use std::path::PathBuf;

const EXPERIMENTS: [&str; 8] =
    ["table1", "table2", "table3", "table4", "fig6", "fig7", "ablation", "all"];

const USAGE: &str = "usage: repro <table1|table2|table3|table4|fig6|fig7|ablation|all> \
                     [--quick|--paper-scale] [--epochs N] [--out DIR]";

struct Args {
    experiment: &'static str,
    scale_name: &'static str,
    scale: ExperimentScale,
    out: PathBuf,
}

fn parse_args(mut cli: Cli) -> Args {
    let name = cli.next_flag().unwrap_or_else(|| cli.fail("an experiment is required"));
    let experiment = EXPERIMENTS
        .into_iter()
        .find(|e| *e == name)
        .unwrap_or_else(|| cli.fail(&format!("unknown experiment {name}")));
    let (mut scale_name, mut scale) = ("default", ExperimentScale::default_scale());
    let mut epochs = None;
    let mut out = PathBuf::from("results");
    while let Some(flag) = cli.next_flag() {
        match flag.as_str() {
            "--quick" => (scale_name, scale) = ("quick", ExperimentScale::quick()),
            "--paper-scale" => (scale_name, scale) = ("paper", ExperimentScale::paper()),
            "--epochs" => epochs = Some(cli.value(&flag)),
            "--out" => out = cli.value(&flag),
            other => cli.fail(&format!("unknown option {other}")),
        }
    }
    // Applied after the loop: a preset named after `--epochs` must not
    // replace it.
    if let Some(epochs) = epochs {
        scale.epochs = epochs;
    }
    Args { experiment, scale_name, scale, out }
}

/// Writes `results` as the record of `experiment` and prints its text.
fn write(args: &Args, experiment: &str, results: Results) {
    let record = Record {
        experiment: experiment.to_string(),
        scale_name: args.scale_name.to_string(),
        scale: args.scale.clone(),
        results,
    };
    let text = record.write(&args.out).unwrap_or_else(|e| {
        eprintln!("repro: cannot write {}: {e}", record.path(&args.out, "json").display());
        std::process::exit(1)
    });
    println!("{text}");
    eprintln!("[{experiment}] wrote {} and its .txt", record.path(&args.out, "json").display());
}

/// Runs `experiment`, simulating the paper's run into `paper` the first
/// time an experiment needs it.
fn run(args: &Args, experiment: &str, paper: &OnceCell<Corpus>) {
    let scale = &args.scale;
    let corpus = || paper.get_or_init(|| scale.paper_corpus());
    let results = match experiment {
        "table1" => table1(scale, corpus(), &SEEDS),
        "table2" => table2(scale, corpus(), &SEEDS),
        "table3" => table3(scale, 3, &SEEDS),
        "table4" => table4(scale, &[2e5, 8e5, 3e6], &[1e4, 1e5, 5e6, 1e7], &SEEDS),
        "fig6" => {
            let dir = args.out.join(args.scale_name).join("fig6");
            fig6(scale, corpus(), &dir).expect("fig6 panels")
        }
        "fig7" => fig7(scale, corpus(), mfn_tensor::cores().max(2)),
        "ablation" => ablation(scale, corpus(), &SEEDS),
        _ => unreachable!("parse_args accepts only EXPERIMENTS"),
    };
    write(args, experiment, results);
}

fn main() {
    let args = parse_args(Cli::new(USAGE));
    let t0 = std::time::Instant::now();
    let paper = OnceCell::new();
    match args.experiment {
        "all" => {
            for experiment in ["table1", "table2", "table3", "table4", "fig6", "fig7"] {
                run(&args, experiment, &paper);
            }
        }
        experiment => run(&args, experiment, &paper),
    }
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
        let before = parse(&["fig7", "--epochs", "8", "--quick"]);
        let after = parse(&["fig7", "--quick", "--epochs", "8"]);
        assert_eq!(before.scale, after.scale);
        assert_eq!(before.scale.epochs, 8);
        assert_eq!((before.scale_name, after.scale_name), ("quick", "quick"));
        assert_eq!(parse(&["fig7", "--quick"]).scale.epochs, ExperimentScale::quick().epochs);
        assert_eq!(parse(&["table2"]).scale_name, "default");
    }
}
