//! `mfn-benchmark --workload NAME --seed S --seconds T --trace 0|1 [--smoke]`
//!
//! Exit status 0 only if every operation succeeded and every output check
//! passed; the result line is printed either way.

use mfn_benchmark::{run, Args, WORKLOADS};
use std::process::ExitCode;

fn parse() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, smoke: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad("a number"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!("--workload is required; one of {WORKLOADS:?}"));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let printed = parse().and_then(|args| run(&args)).and_then(|report| {
        println!("{}", serde_json::to_string(&report).map_err(|e| e.to_string())?);
        Ok(report.correct)
    });
    match printed {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("mfn-benchmark: {why}");
            ExitCode::FAILURE
        }
    }
}
