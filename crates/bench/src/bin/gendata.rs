//! `gendata` — generate Rayleigh–Bénard datasets to disk.
//!
//! ```text
//! usage: gendata --out PATH [--nx N] [--nz N] [--frames N] [--duration S]
//!                [--ra RA] [--pr PR] [--seed S] [--ds-t F] [--ds-s F]
//! ```
//!
//! Writes the HR dataset to `PATH` and, when a downsampling factor is given
//! (the other defaults to 1), the LR companion to `PATH.lr`: one `MFNDATA2` file each, its
//! metadata inside. A missing, malformed or out-of-range option value
//! prints the usage and exits 2 before anything is simulated or written; a
//! failed write prints the error and exits 1.

use mfn_core::cli::Cli;
use mfn_data::{save_dataset, try_downsample, Dataset, DownsampleError};
use mfn_solver::{try_simulate, ConfigError, RbcConfig};
use std::path::{Path, PathBuf};

const USAGE: &str = "usage: gendata --out PATH [--nx N] [--nz N] [--frames N] \
                     [--duration S] [--ra RA] [--pr PR] [--seed S] [--ds-t F] [--ds-s F]";

/// Writes `ds` to `path`, or prints why not and exits 1.
fn save(ds: &Dataset, path: &Path) {
    save_dataset(ds, path).unwrap_or_else(|e| {
        eprintln!("error: cannot write {}: {e}", path.display());
        std::process::exit(1);
    });
}

fn main() {
    let mut out: Option<PathBuf> = None;
    let mut cfg = RbcConfig { nx: 128, nz: 33, dt_max: 2e-3, ..Default::default() };
    let mut frames = 49usize;
    let mut duration = 12.0f64;
    let mut ds_t: Option<usize> = None;
    let mut ds_s: Option<usize> = None;
    let mut cli = Cli::new(USAGE);
    while let Some(flag) = cli.next_flag() {
        match flag.as_str() {
            "--out" => out = Some(cli.value(&flag)),
            "--nx" => cfg.nx = cli.value(&flag),
            "--nz" => cfg.nz = cli.value(&flag),
            "--frames" => frames = cli.value(&flag),
            "--duration" => duration = cli.value(&flag),
            "--ra" => cfg.ra = cli.value(&flag),
            "--pr" => cfg.pr = cli.value(&flag),
            "--seed" => cfg.seed = cli.value(&flag),
            "--ds-t" => ds_t = Some(cli.value(&flag)),
            "--ds-s" => ds_s = Some(cli.value(&flag)),
            other => cli.fail(&format!("unknown option {other}")),
        }
    }
    let out = out.unwrap_or_else(|| cli.fail("--out is required"));

    eprintln!(
        "simulating {}x{} grid, Ra = {:.2e}, Pr = {}, {} frames over {duration} s ...",
        cfg.nx, cfg.nz, cfg.ra, cfg.pr, frames
    );
    let t0 = std::time::Instant::now();
    let sim = try_simulate(&cfg, duration, frames).unwrap_or_else(|e| {
        let (flag, value) = match e {
            ConfigError::Nx => ("--nx", cfg.nx.to_string()),
            ConfigError::Nz => ("--nz", cfg.nz.to_string()),
            ConfigError::Frames => ("--frames", frames.to_string()),
            ConfigError::Duration => ("--duration", duration.to_string()),
            ConfigError::Length => unreachable!("gendata keeps the default lx and lz"),
        };
        cli.fail(&format!("bad value {value} for {flag}: {e}"))
    });
    let hr = Dataset::from_simulation(&sim);
    // The LR companion is checked before the HR file is written, so a bad
    // factor leaves no file behind.
    let companion = ds_t.is_some() || ds_s.is_some();
    let (ds_t, ds_s) = (ds_t.unwrap_or(1), ds_s.unwrap_or(1));
    let lr = companion.then(|| {
        try_downsample(&hr, ds_t, ds_s).unwrap_or_else(|e| {
            let (flag, value) = match e {
                DownsampleError::TooFewFrames { .. } => ("--ds-t", ds_t),
                DownsampleError::ZeroFactor if ds_t == 0 => ("--ds-t", ds_t),
                _ => ("--ds-s", ds_s),
            };
            cli.fail(&format!("bad value {value} for {flag}: {e}"))
        })
    });
    save(&hr, &out);
    eprintln!(
        "wrote {} ({} frames, {} MB) in {:.0}s",
        out.display(),
        hr.meta.nt,
        hr.data.len() * 4 / (1024 * 1024),
        t0.elapsed().as_secs_f64()
    );
    if let Some(lr) = lr {
        let lr_path = PathBuf::from(format!("{}.lr", out.display()));
        save(&lr, &lr_path);
        eprintln!(
            "wrote {} ({}x{}x{} LR companion, factors {ds_t}x/{ds_s}x)",
            lr_path.display(),
            lr.meta.nt,
            lr.meta.nz,
            lr.meta.nx
        );
    }
}
