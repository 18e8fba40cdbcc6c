//! `gendata` — generate Rayleigh–Bénard datasets to disk.
//!
//! ```text
//! usage: gendata --out PATH [--nx N] [--nz N] [--frames N] [--duration S]
//!                [--ra RA] [--pr PR] [--seed S] [--ds-t F --ds-s F]
//! ```
//!
//! Writes the HR dataset to `PATH` and, when downsampling factors are
//! given, the LR companion to `PATH.lr`: one `MFNDATA2` file each, its
//! metadata inside. A missing or malformed option value prints the usage
//! and exits 2; a failed write prints the error and exits 1.

use mfn_core::cli::Cli;
use mfn_data::{downsample, save_dataset, Dataset};
use mfn_solver::{simulate, RbcConfig};
use std::path::{Path, PathBuf};

const USAGE: &str = "usage: gendata --out PATH [--nx N] [--nz N] [--frames N] \
                     [--duration S] [--ra RA] [--pr PR] [--seed S] [--ds-t F --ds-s F]";

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
    let mut ds_t = 0usize;
    let mut ds_s = 0usize;
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
            "--ds-t" => ds_t = cli.value(&flag),
            "--ds-s" => ds_s = cli.value(&flag),
            other => cli.fail(&format!("unknown option {other}")),
        }
    }
    let out = out.unwrap_or_else(|| cli.fail("--out is required"));

    eprintln!(
        "simulating {}x{} grid, Ra = {:.2e}, Pr = {}, {} frames over {duration} s ...",
        cfg.nx, cfg.nz, cfg.ra, cfg.pr, frames
    );
    let t0 = std::time::Instant::now();
    let sim = simulate(&cfg, duration, frames);
    let hr = Dataset::from_simulation(&sim);
    save(&hr, &out);
    eprintln!(
        "wrote {} ({} frames, {} MB) in {:.0}s",
        out.display(),
        hr.meta.nt,
        hr.data.len() * 4 / (1024 * 1024),
        t0.elapsed().as_secs_f64()
    );
    if ds_t > 0 && ds_s > 0 {
        let lr = downsample(&hr, ds_t, ds_s);
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
