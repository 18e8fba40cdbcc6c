//! The solver's output is pinned bit for bit. Three small runs must
//! reproduce an FNV-1a digest of every saved frame's `temp`, `p`, `u` and
//! `w` exactly. A change that claims to leave the numerics untouched (one
//! transform instead of five copies of it, a shared per-mode solve, a
//! deleted knob) passes this unchanged; one that moves the data on purpose
//! re-pins the table and says why. Never a tolerance.
//!
//! The last run is CFL-limited at its end (`cfl_dt() < dt_max`), so the
//! adaptive step choice of `RbcSolver::advance_to` (full CFL steps, then
//! one step or two equal halves to the next frame) is part of what its
//! digest pins.

use mfn_solver::{simulate, RbcConfig, RbcSolver, Simulation};

/// FNV-1a 64 over the little-endian bit patterns of every frame's
/// `temp`, `p`, `u` and `w`, frame by frame.
fn digest(sim: &Simulation) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for frame in &sim.frames {
        for field in [&frame.temp, &frame.p, &frame.u, &frame.w] {
            for b in field.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn run(cfg: RbcConfig, duration: f64, frames: usize) -> (Simulation, u64) {
    let sim = simulate(&cfg, duration, frames);
    assert_eq!(sim.frames.len(), frames);
    let h = digest(&sim);
    (sim, h)
}

#[test]
fn benchmark_grid_frames_keep_their_bits() {
    // The benchmark's set-up grid and Rayleigh number, 100 steps.
    let cfg = RbcConfig { nx: 128, nz: 33, ra: 1e6, dt_max: 2e-3, ..Default::default() };
    let (_, h) = run(cfg, 0.2, 5);
    assert_eq!(h, 0x4f57_3cb6_12f8_a709, "digest {h:#018x}");
}

#[test]
fn high_rayleigh_frames_keep_their_bits() {
    let cfg = RbcConfig { nx: 64, nz: 17, ra: 1e7, dt_max: 2e-3, seed: 3, ..Default::default() };
    let (_, h) = run(cfg, 1.0, 6);
    assert_eq!(h, 0x63ae_402e_e1b7_cdd7, "digest {h:#018x}");
}

#[test]
fn cfl_limited_frames_keep_their_bits() {
    // A large perturbation and a loose cap: convection develops and the
    // CFL limit, not `dt_max`, sets the step by the end of the run.
    let cfg =
        RbcConfig { nx: 32, nz: 17, ra: 1e5, dt_max: 0.05, noise_amp: 0.5, ..Default::default() };
    let (sim, h) = run(cfg, 10.0, 11);
    let last = sim.frames.last().expect("frames");
    let end = RbcSolver::from_snapshot(cfg, last);
    assert!(end.cfl_dt() < cfg.dt_max, "run ends at the cap: cfl_dt {}", end.cfl_dt());
    assert_eq!(h, 0x0645_a1e0_c497_b648, "digest {h:#018x}");
}
