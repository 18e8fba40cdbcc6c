//! How well the solver solves the Boussinesq equations, not only that it
//! runs. Five checks, each printing the figures EXPERIMENTS.md's "Solver
//! fidelity" table records (run with `--nocapture` to see them):
//!
//! 1. observed order of accuracy at a fixed step, in `dt` and in `nz`;
//! 2. linear onset: the growth rate of the `k = π` mode of `w` at Ra 1,600
//!    and 1,800, and the Rayleigh number where it crosses zero, toward
//!    Ra_c ≈ 1,708 (rigid walls) as `nz` grows;
//! 3. Nusselt budgets: the wall flux, `1 + √(Ra·Pr)⟨wT⟩`, `√(Ra·Pr)⟨ε_T⟩`
//!    and `1 + √(Ra·Pr)⟨ε_u⟩` (ε_u from `mfn_physics::flow_stats`) over a
//!    window of a developed flow;
//! 4. step independence: the same state advanced by `dt` and by `dt/2`;
//! 5. `grid_residuals` at two frame spacings around one instant.
//!
//! A bound is asserted only where the solver meets it; a figure the solver
//! gets wrong is printed and recorded, never passed by a loose bound. The
//! figures depend on the discrete scheme, not on rounding: a change that
//! keeps the scheme (say, a different transform order) reprints every
//! figure to the digits shown.

use mfn_fft::RealFftPlan;
use mfn_physics::{flow_stats, grid_residuals};
use mfn_solver::{ddx, ddz, Domain, RbcConfig, RbcSolver, Simulation, Snapshot};
use std::sync::OnceLock;

/// Conduction plus `amp · sin(πz) · cos(2π·m·x/lx)` in `T`, fluid at rest.
fn roll_state(cfg: &RbcConfig, amp: f64, m: usize) -> Snapshot {
    let d = cfg.domain();
    let mut temp = vec![0.0; d.n()];
    for j in 0..d.nz {
        let z = d.z(j) / d.lz;
        for i in 0..d.nx {
            let phase = 2.0 * std::f64::consts::PI * (m * i) as f64 / d.nx as f64;
            temp[j * d.nx + i] = 1.0 - z + amp * (std::f64::consts::PI * z).sin() * phase.cos();
        }
    }
    Snapshot { time: 0.0, temp, p: vec![0.0; d.n()], u: vec![0.0; d.n()], w: vec![0.0; d.n()] }
}

/// `steps` steps of exactly `dt` from `start`.
fn run_fixed(cfg: RbcConfig, start: &Snapshot, dt: f64, steps: usize) -> Snapshot {
    let mut s = RbcSolver::from_snapshot(cfg, start);
    for _ in 0..steps {
        s.step(dt);
    }
    s.snapshot()
}

/// The four channels of a frame, in `[T, p, u, w]` order.
fn channels(f: &Snapshot) -> [&[f64]; 4] {
    [&f.temp, &f.p, &f.u, &f.w]
}

const NAMES: [&str; 4] = ["T", "p", "u", "w"];

/// Root-mean-square difference of `a` and `b` over the values `keep`
/// selects.
fn rms_diff(a: &[f64], b: &[f64], keep: impl Fn(usize) -> bool) -> f64 {
    let (mut s, mut n) = (0.0, 0usize);
    for (k, (x, y)) in a.iter().zip(b).enumerate() {
        if keep(k) {
            s += (x - y) * (x - y);
            n += 1;
        }
    }
    (s / n as f64).sqrt()
}

/// `log2(e_coarse / e_fine)`: the observed order of three solutions at
/// steps (or spacings) `h`, `h/2` and `h/4`.
fn order(e_coarse: f64, e_fine: f64) -> f64 {
    (e_coarse / e_fine).log2()
}

#[test]
fn observed_order_in_dt_and_in_nz() {
    // Ra 1e5, a smooth roll forced from rest for 0.5 time units: the flow
    // reaches |u| ≈ 0.1, far from any CFL limit at these steps.
    let cfg = RbcConfig { nx: 64, nz: 33, ra: 1e5, ..Default::default() };
    let start = roll_state(&cfg, 0.2, 2);
    let t_end = 0.5;
    let dts = [1e-2, 5e-3, 2.5e-3, 1.25e-3];
    let runs: Vec<Snapshot> =
        dts.iter().map(|&dt| run_fixed(cfg, &start, dt, (t_end / dt).round() as usize)).collect();
    let mut dt_orders = [[0.0; 2]; 4];
    for (c, name) in NAMES.iter().enumerate() {
        let e: Vec<f64> = runs
            .windows(2)
            .map(|w| rms_diff(channels(&w[0])[c], channels(&w[1])[c], |_| true))
            .collect();
        dt_orders[c] = [order(e[0], e[1]), order(e[1], e[2])];
        eprintln!(
            "order in dt  {name}: {:.2} (dt 1e-2 -> 5e-3 -> 2.5e-3), {:.2} (5e-3 -> 1.25e-3); \
             rms differences {:.2e} {:.2e} {:.2e}",
            dt_orders[c][0], dt_orders[c][1], e[0], e[1], e[2]
        );
    }

    // nz = 17, 33, 65 at nx = 64 and dt = 1e-3; compared on the nodes of
    // the coarsest grid (node j of nz - 1 intervals is node 2j of the next).
    let nzs = [17usize, 33, 65];
    let grids: Vec<Snapshot> = nzs
        .iter()
        .map(|&nz| {
            let cfg = RbcConfig { nz, ..cfg };
            run_fixed(cfg, &roll_state(&cfg, 0.2, 2), 1e-3, 500)
        })
        .collect();
    let nx = cfg.nx;
    let on_coarse = |f: &[f64], stride: usize| -> Vec<f64> {
        (0..nzs[0]).flat_map(|j| f[j * stride * nx..(j * stride + 1) * nx].to_vec()).collect()
    };
    let mut nz_orders = [0.0; 4];
    for (c, name) in NAMES.iter().enumerate() {
        let [a, b, f] = [0, 1, 2].map(|g| on_coarse(channels(&grids[g])[c], 1 << g));
        let (e0, e1) = (rms_diff(&a, &b, |_| true), rms_diff(&b, &f, |_| true));
        nz_orders[c] = order(e0, e1);
        eprintln!(
            "order in nz  {name}: {:.2} (nz 17 -> 33 -> 65); rms differences {e0:.2e} {e1:.2e}",
            nz_orders[c]
        );
    }
    // Every channel converges in both; the orders themselves fall short of
    // the scheme's nominal ones (EXPERIMENTS.md) and are recorded only.
    for c in 0..4 {
        assert!(dt_orders[c].iter().all(|&o| o > 0.0), "{} dt orders {:?}", NAMES[c], dt_orders[c]);
        assert!(nz_orders[c] > 0.0, "{} nz order {}", NAMES[c], nz_orders[c]);
    }
}

/// The growth rate of the `k = π` mode of `w` (mode 1 of a box of length
/// 2) between t = 20 and t = 40, from small noise at rest.
fn onset_growth_rate(nz: usize, ra: f64) -> f64 {
    let cfg = RbcConfig { nx: 8, nz, lx: 2.0, ra, noise_amp: 1e-3, seed: 5, ..Default::default() };
    let plan = RealFftPlan::new(cfg.nx);
    let amplitude = |f: &Snapshot| -> f64 {
        f.w.chunks(cfg.nx).map(|row| plan.forward(row)[1].norm_sqr()).sum::<f64>().sqrt()
    };
    let mut s = RbcSolver::new(cfg);
    let dt = 0.02;
    for _ in 0..1000 {
        s.step(dt);
    }
    let a0 = amplitude(&s.snapshot());
    for _ in 0..1000 {
        s.step(dt);
    }
    let a1 = amplitude(&s.snapshot());
    (a1 / a0).ln() / 20.0
}

#[test]
fn linear_onset_converges_toward_the_critical_rayleigh_number() {
    let mut crossings = Vec::new();
    for nz in [17, 33, 65] {
        let (lo, hi) = (onset_growth_rate(nz, 1600.0), onset_growth_rate(nz, 1800.0));
        let ra_c = 1600.0 + 200.0 * (-lo) / (hi - lo);
        eprintln!(
            "onset nz {nz:>2}: growth rate {lo:+.5} at Ra 1600, {hi:+.5} at Ra 1800, zero at Ra \
             {ra_c:.0}"
        );
        crossings.push(ra_c);
    }
    let misses: Vec<f64> = crossings.iter().map(|r| (r - 1708.0).abs()).collect();
    eprintln!("onset |Ra_c - 1708|: {:.0} {:.0} {:.0}", misses[0], misses[1], misses[2]);
    assert!(misses.windows(2).all(|m| m[1] < m[0]), "no convergence: {crossings:?}");
    assert!(misses[2] < 0.02 * 1708.0, "nz 65 crosses at Ra {}", crossings[2]);
}

/// z-weights of the trapezoid rule on the node grid, summing to 1.
fn trapezoid(d: &Domain) -> Vec<f64> {
    let n = (d.nz - 1) as f64;
    (0..d.nz).map(|j| if j == 0 || j == d.nz - 1 { 0.5 / n } else { 1.0 / n }).collect()
}

/// `⟨f⟩` over the domain: the x-mean of each row, trapezoid in z.
fn volume_mean(d: &Domain, f: &[f64]) -> f64 {
    let wz = trapezoid(d);
    f.chunks(d.nx).zip(&wz).map(|(row, w)| w * row.iter().sum::<f64>() / d.nx as f64).sum()
}

/// The four Nusselt estimates of one frame: the wall flux (mean of both
/// walls), `1 + √(Ra·Pr)⟨wT⟩`, `√(Ra·Pr)⟨ε_T⟩ = ⟨|∇T|²⟩` and
/// `1 + √(Ra·Pr)⟨ε_u⟩`.
fn nusselt_estimates(cfg: &RbcConfig, f: &Snapshot) -> [f64; 4] {
    let d = cfg.domain();
    let (nx, nz, dz) = (d.nx, d.nz, d.dz());
    let row = |j: usize| &f.temp[j * nx..(j + 1) * nx];
    let mean = |r: &[f64]| r.iter().sum::<f64>() / nx as f64;
    let bottom = -(-3.0 * mean(row(0)) + 4.0 * mean(row(1)) - mean(row(2))) / (2.0 * dz);
    let top = -(3.0 * mean(row(nz - 1)) - 4.0 * mean(row(nz - 2)) + mean(row(nz - 3))) / (2.0 * dz);
    let wt: Vec<f64> = f.w.iter().zip(&f.temp).map(|(w, t)| w * t).collect();
    let (tx, tz) = (ddx(&d, &f.temp), ddz(&d, &f.temp));
    let grad2: Vec<f64> = tx.iter().zip(&tz).map(|(a, b)| a * a + b * b).collect();
    let eps_u = flow_stats(&d, &f.u, &f.w, cfg.r_star()).dissipation;
    let root = (cfg.ra * cfg.pr).sqrt();
    [
        0.5 * (bottom + top),
        1.0 + root * volume_mean(&d, &wt),
        volume_mean(&d, &grad2),
        1.0 + root * eps_u,
    ]
}

/// The four estimates averaged over 11 frames 0.5 apart from t = 10, and
/// the largest relative disagreement between them. The flow starts from two
/// roll pairs plus a tenth of that in one, so that it leaves the two-pair
/// symmetry from a set perturbation and not from rounding.
fn nusselt_budget(cfg: RbcConfig) -> ([f64; 4], f64) {
    let mut start = roll_state(&cfg, 0.1, 2);
    let one_pair = roll_state(&cfg, 0.01, 1);
    for ((t, a), b) in start.temp.iter_mut().zip(&one_pair.temp).zip(&roll_state(&cfg, 0.0, 1).temp)
    {
        *t += a - b;
    }
    let mut s = RbcSolver::from_snapshot(cfg, &start);
    let mut sum = [0.0; 4];
    for f in 0..11 {
        s.advance_to(10.0 + 0.5 * f as f64);
        for (a, v) in sum.iter_mut().zip(nusselt_estimates(&cfg, &s.snapshot())) {
            *a += v / 11.0;
        }
    }
    let (lo, hi) = sum.iter().fold((f64::INFINITY, 0.0f64), |(l, h), &v| (l.min(v), h.max(v)));
    (sum, (hi - lo) / lo)
}

#[test]
fn nusselt_budgets_agree() {
    for (ra, nx, nz) in [(1e5, 128, 33), (1e6, 128, 33), (1e5, 256, 65), (1e6, 256, 65)] {
        let cfg = RbcConfig { nx, nz, ra, dt_max: 5e-3, ..Default::default() };
        let (nu, spread) = nusselt_budget(cfg);
        eprintln!(
            "Nusselt Ra {ra:.0e} {nx}x{nz}: wall {:.3}, wT {:.3}, eps_T {:.3}, eps_u {:.3}; \
             spread {:.1} %",
            nu[0],
            nu[1],
            nu[2],
            nu[3],
            100.0 * spread
        );
        // Convection carries heat on every estimate; that they agree is
        // recorded, not asserted.
        assert!(nu.iter().all(|&v| v > 1.5), "Ra {ra:e} {nx}x{nz}: {nu:?}");
    }
}

/// Seed 7 on the benchmark grid at Ra 1e6, developed: t = 10.5.
fn developed() -> &'static (RbcConfig, Snapshot) {
    static STATE: OnceLock<(RbcConfig, Snapshot)> = OnceLock::new();
    STATE.get_or_init(|| {
        let cfg =
            RbcConfig { nx: 128, nz: 33, ra: 1e6, dt_max: 5e-3, seed: 7, ..Default::default() };
        let mut s = RbcSolver::new(cfg);
        s.advance_to(10.5);
        (cfg, s.snapshot())
    })
}

#[test]
fn a_halved_step_moves_the_state_by_order_dt() {
    let (cfg, start) = developed();
    let d = cfg.domain();
    let interior = |k: usize| k >= d.nx && k < d.n() - d.nx;
    let runs: Vec<Snapshot> = [(2e-3, 10), (1e-3, 20), (5e-4, 40)]
        .iter()
        .map(|&(dt, n)| run_fixed(*cfg, start, dt, n))
        .collect();
    let rel = |a: &[f64], b: &[f64]| {
        rms_diff(a, b, interior) / rms_diff(b, &vec![0.0; b.len()], interior)
    };
    for (name, pair) in [("2e-3 vs 1e-3", (0, 1)), ("2e-3 vs 5e-4", (0, 2))] {
        let (a, b) = (&runs[pair.0], &runs[pair.1]);
        let (pxa, pxb) = (ddx(&d, &a.p), ddx(&d, &b.p));
        eprintln!(
            "step {name}: interior p {:.2} %, dp/dx {:.2} %, u {:.3} %, w {:.3} %, T {:.2e}",
            100.0 * rel(&a.p, &b.p),
            100.0 * rel(&pxa, &pxb),
            100.0 * rel(&a.u, &b.u),
            100.0 * rel(&a.w, &b.w),
            rel(&a.temp, &b.temp)
        );
    }
}

#[test]
fn residuals_shrink_with_the_frame_spacing() {
    let (cfg, start) = developed();
    let mut s = RbcSolver::from_snapshot(*cfg, start);
    let mut frames = Vec::new();
    for t in [10.75, 10.9375, 11.0, 11.0625, 11.25] {
        s.advance_to(t);
        frames.push(s.snapshot());
    }
    let sim = |idx: [usize; 3]| Simulation {
        cfg: *cfg,
        domain: cfg.domain(),
        frames: idx.iter().map(|&k| frames[k].clone()).collect(),
    };
    let coarse = grid_residuals(&sim([0, 2, 4]), 1);
    let fine = grid_residuals(&sim([1, 2, 3]), 1);
    for (e, name) in ["continuity", "T", "momentum x", "momentum z"].iter().enumerate() {
        eprintln!("residual {name}: {:.4} at spacing 0.25, {:.4} at 0.0625", coarse[e], fine[e]);
    }
    // The T and momentum residuals fall with the frame spacing; continuity
    // reads no time derivative, so it cannot.
    for e in 1..4 {
        assert!(
            fine[e] < coarse[e],
            "residual {e}: {} at 0.0625 vs {} at 0.25",
            fine[e],
            coarse[e]
        );
    }
}
