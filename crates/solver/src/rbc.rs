//! The 2D Rayleigh–Bénard (Boussinesq) solver — the Dedalus substitute.
//!
//! Solves the paper's Eqns. (3a)–(3c) in dimensionless form on a domain
//! periodic in `x` and wall-bounded in `z`:
//!
//! ```text
//! ∇·u = 0
//! ∂T/∂t + u·∇T = P* ∇²T          P* = (Ra·Pr)^{-1/2}
//! ∂u/∂t + u·∇u + ∇p − T ẑ = R* ∇²u    R* = (Ra/Pr)^{-1/2}
//! ```
//!
//! Numerics: pseudo-spectral in `x` (with 2/3 dealiasing of the nonlinear
//! products), second-order finite differences in `z`, Adams–Bashforth-2
//! advection + buoyancy, Crank–Nicolson diffusion solved as per-x-mode
//! tridiagonal Helmholtz systems, and a pressure-projection step with
//! per-mode tridiagonal Poisson solves. Time step is CFL-adaptive, mirroring
//! the paper's "adaptive time stepping" remark.

use crate::ops::{self, ddx, ddz, laplacian, Domain};
use crate::tridiag::{solve_complex, Tridiag};
use mfn_fft::Complex;
use mfn_telemetry::{Recorder, SolverStepMetrics};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Physical and numerical configuration of a Rayleigh–Bénard run.
#[derive(Debug, Clone, Copy)]
pub struct RbcConfig {
    /// Grid points in `x` (power of two).
    pub nx: usize,
    /// Grid nodes in `z` including walls.
    pub nz: usize,
    /// Domain length in `x` (paper: 4).
    pub lx: f64,
    /// Plate separation (paper: 1).
    pub lz: f64,
    /// Rayleigh number.
    pub ra: f64,
    /// Prandtl number.
    pub pr: f64,
    /// CFL safety factor for the advective time-step limit.
    pub cfl: f64,
    /// Hard cap on the time step.
    pub dt_max: f64,
    /// Amplitude of the random temperature perturbation seeding the
    /// instability.
    pub noise_amp: f64,
    /// RNG seed for the initial perturbation (each dataset in the paper's
    /// Table 3 differs only in this).
    pub seed: u64,
    /// Whether to 2/3-dealias the nonlinear products (recommended).
    pub dealias: bool,
}

impl Default for RbcConfig {
    fn default() -> Self {
        RbcConfig {
            nx: 128,
            nz: 33,
            lx: 4.0,
            lz: 1.0,
            ra: 1e6,
            pr: 1.0,
            cfl: 0.4,
            dt_max: 5e-3,
            noise_amp: 1e-2,
            seed: 0,
            dealias: true,
        }
    }
}

impl RbcConfig {
    /// `P* = (Ra·Pr)^{-1/2}` — the dimensionless thermal diffusivity.
    pub fn p_star(&self) -> f64 {
        1.0 / (self.ra * self.pr).sqrt()
    }

    /// `R* = (Ra/Pr)^{-1/2}` — the dimensionless momentum diffusivity, which
    /// plays the role of `ν` in the turbulence statistics.
    pub fn r_star(&self) -> f64 {
        (self.pr / self.ra).sqrt()
    }

    /// The domain geometry implied by this configuration.
    pub fn domain(&self) -> Domain {
        Domain::new(self.nx, self.nz, self.lx, self.lz)
    }
}

/// One saved output frame (all four physical channels of the paper).
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Simulation time.
    pub time: f64,
    /// Temperature field, `nz × nx` row-major.
    pub temp: Vec<f64>,
    /// Pressure (projection) field.
    pub p: Vec<f64>,
    /// Horizontal velocity.
    pub u: Vec<f64>,
    /// Vertical velocity.
    pub w: Vec<f64>,
}

/// A completed simulation: the HR "dataset" the learning stack consumes.
#[derive(Debug, Clone)]
pub struct Simulation {
    /// Configuration used.
    pub cfg: RbcConfig,
    /// Grid geometry.
    pub domain: Domain,
    /// Uniformly-spaced output frames.
    pub frames: Vec<Snapshot>,
}

impl Simulation {
    /// Time spacing between output frames.
    pub fn frame_dt(&self) -> f64 {
        if self.frames.len() < 2 {
            0.0
        } else {
            self.frames[1].time - self.frames[0].time
        }
    }
}

/// The time-stepping state of the Rayleigh–Bénard solver.
pub struct RbcSolver {
    cfg: RbcConfig,
    domain: Domain,
    /// Current simulation time.
    pub t: f64,
    /// Horizontal velocity field (`nz × nx`).
    pub u: Vec<f64>,
    /// Vertical velocity field.
    pub w: Vec<f64>,
    /// Temperature field.
    pub temp: Vec<f64>,
    /// Pressure (projection potential) field.
    pub p: Vec<f64>,
    /// Previous step's explicit terms for AB2 (`[Nu, Nw, NT]`).
    n_prev: Option<[Vec<f64>; 3]>,
    /// The dt used on the previous step (AB2 assumes near-constant dt; the
    /// CFL controller changes it slowly).
    dt_prev: f64,
    /// Total steps taken.
    pub steps: u64,
    /// Telemetry destination (disabled by default).
    recorder: Recorder,
}

/// Wall temperatures: hot bottom `T=1`, cold top `T=0` (normalized ΔT = 1).
pub const T_BOTTOM: f64 = 1.0;
/// Cold-plate temperature.
pub const T_TOP: f64 = 0.0;

impl RbcSolver {
    /// Initializes the solver with the conduction profile plus a random
    /// perturbation (vanishing at the walls) and fluid at rest.
    pub fn new(cfg: RbcConfig) -> Self {
        let domain = cfg.domain();
        let n = domain.n();
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let mut temp = vec![0.0f64; n];
        for j in 0..domain.nz {
            let z = domain.z(j) / cfg.lz;
            let envelope = (std::f64::consts::PI * z).sin();
            for i in 0..domain.nx {
                let base = T_BOTTOM + (T_TOP - T_BOTTOM) * z;
                let noise = cfg.noise_amp * rng.gen_range(-1.0..1.0) * envelope;
                temp[ops::idx(&domain, j, i)] = base + noise;
            }
        }
        RbcSolver {
            cfg,
            domain,
            t: 0.0,
            u: vec![0.0; n],
            w: vec![0.0; n],
            temp,
            p: vec![0.0; n],
            n_prev: None,
            dt_prev: 0.0,
            steps: 0,
            recorder: Recorder::null(),
        }
    }

    /// Routes per-timestep metrics (`SolverStepMetrics`) to `recorder`.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// The configuration in use.
    pub fn config(&self) -> &RbcConfig {
        &self.cfg
    }

    /// The grid geometry.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// The CFL-limited time step at the current state.
    pub fn cfl_dt(&self) -> f64 {
        let umax = self.u.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        let wmax = self.w.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        let dtx = self.cfg.cfl * self.domain.dx() / (umax + 1e-12);
        let dtz = self.cfg.cfl * self.domain.dz() / (wmax + 1e-12);
        dtx.min(dtz).min(self.cfg.dt_max)
    }

    /// Explicit (advection + buoyancy) right-hand sides `[Nu, Nw, NT]`.
    fn nonlinear(&self) -> [Vec<f64>; 3] {
        let d = &self.domain;
        let ux = ddx(d, &self.u);
        let uz = ddz(d, &self.u);
        let wx = ddx(d, &self.w);
        let wz = ddz(d, &self.w);
        let tx = ddx(d, &self.temp);
        let tz = ddz(d, &self.temp);
        let n = d.n();
        // Buoyancy enters as the horizontal *fluctuation* of T: the mean part
        // T̄(z) ẑ is a gradient (hydrostatic balance) and is absorbed into the
        // modified pressure exactly, which keeps the discrete projection from
        // having to cancel a large irrotational forcing every step.
        let mut tbar = vec![0.0f64; d.nz];
        for (j, tb) in tbar.iter_mut().enumerate() {
            let row = &self.temp[j * d.nx..(j + 1) * d.nx];
            *tb = row.iter().sum::<f64>() / d.nx as f64;
        }
        let mut nu = vec![0.0f64; n];
        let mut nw = vec![0.0f64; n];
        let mut nt = vec![0.0f64; n];
        for k in 0..n {
            let j = k / d.nx;
            nu[k] = -(self.u[k] * ux[k] + self.w[k] * uz[k]);
            nw[k] = -(self.u[k] * wx[k] + self.w[k] * wz[k]) + (self.temp[k] - tbar[j]);
            nt[k] = -(self.u[k] * tx[k] + self.w[k] * tz[k]);
        }
        let mut out = [nu, nw, nt];
        if self.cfg.dealias {
            for f in out.iter_mut() {
                ops::dealias_x(d, f);
            }
        }
        out
    }

    /// Builds the Crank–Nicolson Helmholtz matrix
    /// `(1 + a k² ) I − a D_zz` with Dirichlet rows at both walls.
    fn helmholtz_matrix(&self, a: f64, k2: f64) -> Tridiag {
        let nz = self.domain.nz;
        let dz2 = self.domain.dz() * self.domain.dz();
        let mut m = Tridiag::zeros(nz);
        m.diag[0] = 1.0;
        m.diag[nz - 1] = 1.0;
        for j in 1..nz - 1 {
            m.lower[j] = -a / dz2;
            m.diag[j] = 1.0 + a * k2 + 2.0 * a / dz2;
            m.upper[j] = -a / dz2;
        }
        m
    }

    /// Builds the Poisson matrix `D_zz − k²` with Neumann walls
    /// (pinned at the bottom for the singular `k = 0` mode).
    fn poisson_matrix(&self, k2: f64) -> Tridiag {
        let nz = self.domain.nz;
        let dz = self.domain.dz();
        let dz2 = dz * dz;
        let mut m = Tridiag::zeros(nz);
        if k2 == 0.0 {
            // Pin phi(0) = 0; Neumann at the top.
            m.diag[0] = 1.0;
        } else {
            m.diag[0] = -1.0 / dz;
            m.upper[0] = 1.0 / dz;
        }
        m.lower[nz - 1] = -1.0 / dz;
        m.diag[nz - 1] = 1.0 / dz;
        for j in 1..nz - 1 {
            m.lower[j] = 1.0 / dz2;
            m.diag[j] = -2.0 / dz2 - k2;
            m.upper[j] = 1.0 / dz2;
        }
        m
    }

    /// Implicit Crank–Nicolson diffusion solve: returns the field satisfying
    /// `(I − a(D_zz − k²)) f = rhs` with Dirichlet values `(bottom, top)`.
    fn diffuse(&self, rhs: &[f64], a: f64, bottom: f64, top: f64) -> Vec<f64> {
        let d = &self.domain;
        let nz = d.nz;
        let spec = ops::rows_to_spectral(d, rhs);
        let nmodes = d.nx / 2 + 1;
        // Transpose to per-mode z-profiles, solve, transpose back.
        let solved: Vec<Vec<Complex>> = (0..nmodes)
            .map(|k| {
                let k2 = {
                    let kk = d.wavenumber(k);
                    kk * kk
                };
                let m = self.helmholtz_matrix(a, k2);
                let mut b: Vec<Complex> = (0..nz).map(|j| spec[j][k]).collect();
                // Dirichlet rows: the DFT of a constant boundary value is
                // `value * nx` in mode 0, zero elsewhere.
                b[0] = if k == 0 { Complex::real(bottom * d.nx as f64) } else { Complex::ZERO };
                b[nz - 1] = if k == 0 { Complex::real(top * d.nx as f64) } else { Complex::ZERO };
                solve_complex(&m, &b)
            })
            .collect();
        let rows: Vec<Vec<Complex>> =
            (0..nz).map(|j| (0..nmodes).map(|k| solved[k][j]).collect()).collect();
        ops::rows_from_spectral(d, &rows)
    }

    /// Pressure projection: makes `(u, w)` divergence-free, storing the
    /// accumulated potential `φ` (scaled to pressure units) in `self.p`.
    ///
    /// The spectral-x/FD-z gradient and divergence operators do not compose
    /// into the exact 3-point Laplacian the Poisson solve uses, so a single
    /// pass leaves an O(Δz²) residual; two extra fixed passes drive the
    /// interior divergence down by the same factor each time.
    fn project(&mut self, dt: f64) {
        self.p = vec![0.0; self.domain.n()];
        for _ in 0..3 {
            self.project_once(dt);
        }
        self.enforce_velocity_bc();
        // The projection potential φ is the *modified* pressure (buoyancy was
        // applied as the horizontal fluctuation of T). Add back the
        // hydrostatic column integral H(z) = ∫₀ᶻ T̄ dz' so the stored p
        // channel satisfies the paper's momentum equation with the full T:
        // ∇(φ + H) − T ẑ = ∇φ − (T − T̄) ẑ.
        let d = &self.domain;
        let dz = d.dz();
        let mut tbar = vec![0.0f64; d.nz];
        for (j, tb) in tbar.iter_mut().enumerate() {
            let row = &self.temp[j * d.nx..(j + 1) * d.nx];
            *tb = row.iter().sum::<f64>() / d.nx as f64;
        }
        let mut hydro = vec![0.0f64; d.nz];
        for j in 1..d.nz {
            hydro[j] = hydro[j - 1] + 0.5 * (tbar[j] + tbar[j - 1]) * dz;
        }
        for (j, &h) in hydro.iter().enumerate() {
            for v in &mut self.p[j * d.nx..(j + 1) * d.nx] {
                *v += h;
            }
        }
    }

    fn project_once(&mut self, dt: f64) {
        let d = &self.domain;
        let nz = d.nz;
        let mut div = ddx(d, &self.u);
        let wz = ddz(d, &self.w);
        for (a, b) in div.iter_mut().zip(&wz) {
            *a = (*a + b) / dt;
        }
        let spec = ops::rows_to_spectral(d, &div);
        let nmodes = d.nx / 2 + 1;
        let solved: Vec<Vec<Complex>> = (0..nmodes)
            .map(|k| {
                let k2 = {
                    let kk = d.wavenumber(k);
                    kk * kk
                };
                let m = self.poisson_matrix(k2);
                let mut b: Vec<Complex> = (0..nz).map(|j| spec[j][k]).collect();
                b[0] = Complex::ZERO; // Neumann (or pin) row
                b[nz - 1] = Complex::ZERO;
                solve_complex(&m, &b)
            })
            .collect();
        let rows: Vec<Vec<Complex>> =
            (0..nz).map(|j| (0..nmodes).map(|k| solved[k][j]).collect()).collect();
        let phi = ops::rows_from_spectral(d, &rows);
        let phix = ddx(d, &phi);
        let phiz = ddz(d, &phi);
        for k in 0..d.n() {
            self.u[k] -= dt * phix[k];
            self.w[k] -= dt * phiz[k];
            self.p[k] += phi[k];
        }
    }

    fn enforce_velocity_bc(&mut self) {
        let nx = self.domain.nx;
        let top = (self.domain.nz - 1) * nx;
        for i in 0..nx {
            self.u[i] = 0.0;
            self.w[i] = 0.0;
            self.u[top + i] = 0.0;
            self.w[top + i] = 0.0;
        }
    }

    /// Advances one step of size `dt`.
    pub fn step(&mut self, dt: f64) {
        assert!(dt > 0.0, "dt must be positive");
        // When telemetry is on, sample the CFL limit before the state
        // advances (that is the limit this `dt` was chosen against).
        let cfl_dt = if self.recorder.is_enabled() { self.cfl_dt() } else { dt };
        let started = Instant::now();
        let d = self.domain;
        let n = d.n();
        let nl = self.nonlinear();
        // AB2 extrapolation with variable step: coefficients for (dt, dt_prev).
        let (c0, c1) = match &self.n_prev {
            Some(_) if self.dt_prev > 0.0 => {
                let r = dt / self.dt_prev;
                (1.0 + r / 2.0, -r / 2.0)
            }
            _ => (1.0, 0.0),
        };
        let kappa_u = self.cfg.r_star();
        let kappa_t = self.cfg.p_star();
        let lap_u = laplacian(&d, &self.u);
        let lap_w = laplacian(&d, &self.w);
        let lap_t = laplacian(&d, &self.temp);
        let zeros;
        let prev: &[Vec<f64>; 3] = match &self.n_prev {
            Some(p) => p,
            None => {
                zeros = [vec![0.0; n], vec![0.0; n], vec![0.0; n]];
                &zeros
            }
        };
        let mut rhs_u = vec![0.0f64; n];
        let mut rhs_w = vec![0.0f64; n];
        let mut rhs_t = vec![0.0f64; n];
        for k in 0..n {
            let nu = c0 * nl[0][k] + c1 * prev[0][k];
            let nw = c0 * nl[1][k] + c1 * prev[1][k];
            let nt = c0 * nl[2][k] + c1 * prev[2][k];
            rhs_u[k] = self.u[k] + dt * (nu + 0.5 * kappa_u * lap_u[k]);
            rhs_w[k] = self.w[k] + dt * (nw + 0.5 * kappa_u * lap_w[k]);
            rhs_t[k] = self.temp[k] + dt * (nt + 0.5 * kappa_t * lap_t[k]);
        }
        let a_u = 0.5 * dt * kappa_u;
        let a_t = 0.5 * dt * kappa_t;
        self.u = self.diffuse(&rhs_u, a_u, 0.0, 0.0);
        self.w = self.diffuse(&rhs_w, a_u, 0.0, 0.0);
        self.temp = self.diffuse(&rhs_t, a_t, T_BOTTOM, T_TOP);
        self.project(dt);
        self.n_prev = Some(nl);
        self.dt_prev = dt;
        self.t += dt;
        self.steps += 1;
        self.recorder.solver_step(SolverStepMetrics {
            step: self.steps,
            time: self.t,
            dt,
            cfl_dt,
            seconds: started.elapsed().as_secs_f64(),
        });
    }

    /// Advances with CFL-adaptive steps until exactly `t_target`.
    pub fn advance_to(&mut self, t_target: f64) {
        while self.t < t_target - 1e-12 {
            let dt = self.cfl_dt().min(t_target - self.t);
            self.step(dt);
        }
    }

    /// Volume-averaged kinetic energy `½⟨u² + w²⟩`.
    pub fn kinetic_energy(&self) -> f64 {
        let n = self.domain.n() as f64;
        0.5 * self.u.iter().zip(&self.w).map(|(&u, &w)| u * u + w * w).sum::<f64>() / n
    }

    /// Volume-averaged Nusselt number `Nu = 1 + <w·T> / (κ ΔT/L)` — the
    /// classic Rayleigh–Bénard heat-transport diagnostic (Nu = 1 in pure
    /// conduction, grows with Ra once convection sets in).
    pub fn nusselt(&self) -> f64 {
        let n = self.domain.n() as f64;
        let wt: f64 = self.w.iter().zip(&self.temp).map(|(&w, &t)| w * t).sum::<f64>() / n;
        let conductive = self.cfg.p_star() * (T_BOTTOM - T_TOP) / self.cfg.lz;
        1.0 + wt / conductive
    }

    /// Maximum |∇·u| over the interior (projection quality diagnostic).
    pub fn max_divergence(&self) -> f64 {
        let d = &self.domain;
        let ux = ddx(d, &self.u);
        let wz = ddz(d, &self.w);
        let mut m = 0.0f64;
        for j in 1..d.nz - 1 {
            for i in 0..d.nx {
                m = m.max((ux[ops::idx(d, j, i)] + wz[ops::idx(d, j, i)]).abs());
            }
        }
        m
    }

    /// Captures the current state as an output frame.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            time: self.t,
            temp: self.temp.clone(),
            p: self.p.clone(),
            u: self.u.clone(),
            w: self.w.clone(),
        }
    }
}

/// Runs a full simulation, saving `n_frames` uniformly-spaced snapshots
/// (including the initial condition at `t = 0`).
pub fn simulate(cfg: &RbcConfig, duration: f64, n_frames: usize) -> Simulation {
    simulate_recorded(cfg, duration, n_frames, Recorder::null())
}

/// [`simulate`] with telemetry: every solver timestep emits a
/// `SolverStepMetrics` event (CFL limit, dt taken, wall seconds), each saved
/// frame emits a `frame` span, and the final diagnostics (`nusselt`,
/// `kinetic_energy`) land as gauges.
pub fn simulate_recorded(
    cfg: &RbcConfig,
    duration: f64,
    n_frames: usize,
    recorder: Recorder,
) -> Simulation {
    assert!(n_frames >= 2, "need at least two frames");
    assert!(duration > 0.0);
    let mut solver = RbcSolver::new(*cfg);
    solver.set_recorder(recorder.clone());
    let mut frames = Vec::with_capacity(n_frames);
    frames.push(solver.snapshot());
    let frame_dt = duration / (n_frames - 1) as f64;
    for f in 1..n_frames {
        let span = recorder.span("frame");
        solver.advance_to(f as f64 * frame_dt);
        drop(span);
        recorder.incr("frames", 1);
        frames.push(solver.snapshot());
    }
    recorder.gauge("nusselt", solver.nusselt());
    recorder.gauge("kinetic_energy", solver.kinetic_energy());
    Simulation { cfg: *cfg, domain: solver.domain, frames }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> RbcConfig {
        RbcConfig { nx: 32, nz: 17, ra: 1e5, dt_max: 2e-3, noise_amp: 1e-2, ..Default::default() }
    }

    #[test]
    fn conduction_state_is_steady() {
        // No perturbation + subcritical Ra (< 1708): pure conduction persists.
        let cfg = RbcConfig { noise_amp: 0.0, ra: 1e3, ..quick_cfg() };
        let mut s = RbcSolver::new(cfg);
        for _ in 0..50 {
            let dt = s.cfl_dt();
            s.step(dt);
        }
        assert!(s.kinetic_energy() < 1e-12, "KE {}", s.kinetic_energy());
        for j in 0..s.domain().nz {
            let z = s.domain().z(j);
            let expect = T_BOTTOM + (T_TOP - T_BOTTOM) * z;
            assert!((s.temp[j * cfg.nx] - expect).abs() < 1e-8, "row {j}");
        }
    }

    #[test]
    fn projection_yields_small_divergence() {
        // Run to a developed flow so velocity gradients are O(1), then check
        // the interior divergence is small relative to them.
        let cfg = RbcConfig { ra: 1e6, ..quick_cfg() };
        let mut s = RbcSolver::new(cfg);
        s.advance_to(8.0);
        let umax = s.u.iter().fold(0.0f64, |m, &v| m.max(v.abs())).max(1e-9);
        let scale = umax / s.domain().dx();
        assert!(
            s.max_divergence() < 0.05 * scale,
            "div {} vs grad scale {scale}",
            s.max_divergence()
        );
    }

    #[test]
    fn instability_grows_at_supercritical_ra() {
        let cfg = RbcConfig { ra: 1e6, noise_amp: 1e-2, ..quick_cfg() };
        let mut s = RbcSolver::new(cfg);
        let ke0 = s.kinetic_energy();
        s.advance_to(6.0);
        let ke1 = s.kinetic_energy();
        assert!(ke1 > ke0.max(1e-10), "KE did not grow: {ke0} -> {ke1}");
        assert!(ke1 > 1e-6, "convection never developed: {ke1}");
    }

    #[test]
    fn temperature_respects_maximum_principle() {
        let cfg = quick_cfg();
        let mut s = RbcSolver::new(cfg);
        s.advance_to(2.0);
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &t in &s.temp {
            lo = lo.min(t);
            hi = hi.max(t);
        }
        // Small over/undershoots from the FD scheme are tolerated.
        assert!(lo > -0.15 && hi < 1.15, "T range [{lo}, {hi}]");
        assert!(!s.temp.iter().any(|t| t.is_nan()));
    }

    #[test]
    fn cfl_dt_capped_and_positive() {
        let cfg = quick_cfg();
        let s = RbcSolver::new(cfg);
        let dt = s.cfl_dt();
        assert!(dt > 0.0 && dt <= cfg.dt_max + 1e-15);
    }

    #[test]
    fn simulate_produces_uniform_frames() {
        let cfg = quick_cfg();
        let sim = simulate(&cfg, 0.1, 5);
        assert_eq!(sim.frames.len(), 5);
        let fdt = sim.frame_dt();
        for (f, frame) in sim.frames.iter().enumerate() {
            assert!((frame.time - f as f64 * fdt).abs() < 1e-9);
            assert_eq!(frame.temp.len(), cfg.nx * cfg.nz);
        }
        assert!((sim.frames.last().expect("frames").time - 0.1).abs() < 1e-9);
    }

    #[test]
    fn simulate_recorded_emits_per_step_metrics() {
        let cfg = quick_cfg();
        let (recorder, sink) = Recorder::memory(8192);
        let sim = simulate_recorded(&cfg, 0.05, 5, recorder);
        assert_eq!(sim.frames.len(), 5);
        let steps = sink.solver_steps();
        assert!(!steps.is_empty(), "no solver steps recorded");
        for (i, m) in steps.iter().enumerate() {
            // `advance_to` always takes dt <= min(CFL limit, dt_max).
            assert!(m.dt > 0.0 && m.dt <= m.cfl_dt + 1e-15, "step {i}: {m:?}");
            assert!(m.dt <= cfg.dt_max + 1e-15, "step {i}: {m:?}");
            assert!(m.seconds >= 0.0);
            assert_eq!(m.step, i as u64 + 1);
        }
        // Times are strictly increasing and end at the requested duration.
        assert!(steps.windows(2).all(|w| w[1].time > w[0].time));
        assert!((steps.last().expect("steps").time - 0.05).abs() < 1e-9);
        // One frame span + counter per saved frame (minus the initial one),
        // plus the end-of-run diagnostics gauges.
        assert_eq!(sink.counter_total("frames"), 4);
        assert!(sink.span_total("frame") >= 0.0);
        assert!(sink.gauge("nusselt").is_some());
        assert!(sink.gauge("kinetic_energy").is_some());
    }

    #[test]
    fn recorded_and_unrecorded_runs_are_identical() {
        // Telemetry must not perturb the numerics.
        let cfg = quick_cfg();
        let plain = simulate(&cfg, 0.05, 3);
        let (recorder, _sink) = Recorder::memory(8192);
        let recorded = simulate_recorded(&cfg, 0.05, 3, recorder);
        for (fa, fb) in plain.frames.iter().zip(&recorded.frames) {
            assert_eq!(fa.temp, fb.temp);
            assert_eq!(fa.u, fb.u);
            assert_eq!(fa.w, fb.w);
            assert_eq!(fa.p, fb.p);
        }
    }

    #[test]
    fn different_seeds_give_different_flows() {
        let a = simulate(&RbcConfig { seed: 1, ..quick_cfg() }, 0.05, 2);
        let b = simulate(&RbcConfig { seed: 2, ..quick_cfg() }, 0.05, 2);
        let diff: f64 =
            a.frames[1].temp.iter().zip(&b.frames[1].temp).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 1e-6, "seeds produced identical fields");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = simulate(&quick_cfg(), 0.05, 3);
        let b = simulate(&quick_cfg(), 0.05, 3);
        for (fa, fb) in a.frames.iter().zip(&b.frames) {
            assert_eq!(fa.temp, fb.temp);
            assert_eq!(fa.u, fb.u);
        }
    }

    #[test]
    fn nusselt_number_behaviour() {
        // Pure conduction: Nu = 1 exactly.
        let cfg = RbcConfig { noise_amp: 0.0, ra: 1e3, ..quick_cfg() };
        let mut s = RbcSolver::new(cfg);
        s.advance_to(0.2);
        assert!((s.nusselt() - 1.0).abs() < 1e-9, "conduction Nu {}", s.nusselt());
        // Developed convection transports more heat: Nu > 1.
        let cfg = RbcConfig { ra: 1e6, ..quick_cfg() };
        let mut s = RbcSolver::new(cfg);
        s.advance_to(8.0);
        assert!(s.nusselt() > 1.5, "convective Nu {}", s.nusselt());
    }

    #[test]
    fn boundary_conditions_enforced() {
        let cfg = quick_cfg();
        let mut s = RbcSolver::new(cfg);
        s.advance_to(0.5);
        let nx = cfg.nx;
        let top = (cfg.nz - 1) * nx;
        for i in 0..nx {
            assert_eq!(s.u[i], 0.0);
            assert_eq!(s.w[i], 0.0);
            assert_eq!(s.u[top + i], 0.0);
            assert_eq!(s.w[top + i], 0.0);
            assert!((s.temp[i] - T_BOTTOM).abs() < 1e-6, "bottom T {}", s.temp[i]);
            assert!((s.temp[top + i] - T_TOP).abs() < 1e-6, "top T {}", s.temp[top + i]);
        }
    }
}
