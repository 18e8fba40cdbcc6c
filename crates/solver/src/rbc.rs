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

use crate::ops::{self, ddz, Domain, XTransform};
use crate::tridiag::{solve_in_place, Tridiag};
use mfn_fft::Complex;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt;

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
        }
    }
}

/// Why a grid or a run cannot be simulated. Each message names the
/// parameter at fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `nx` is not a power of two `>= 4`.
    Nx,
    /// `nz` is below 4.
    Nz,
    /// `lx` or `lz` is not positive.
    Length,
    /// Fewer than two frames were asked for.
    Frames,
    /// The duration is not positive.
    Duration,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ConfigError::Nx => "nx must be a power of two >= 4",
            ConfigError::Nz => "nz must be at least 4",
            ConfigError::Length => "lx and lz must be positive",
            ConfigError::Frames => "need at least two frames",
            ConfigError::Duration => "duration must be positive",
        })
    }
}

impl std::error::Error for ConfigError {}

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
    /// The one x-transform every sweep of a step runs through.
    xf: XTransform,
    /// The Poisson matrix of every x-mode `k = 0..=nx/2` (they depend only
    /// on the grid).
    poisson: Vec<Tridiag>,
    /// The Helmholtz matrix of the mode being solved, rebuilt in place.
    helmholtz: Tridiag,
    /// The Thomas sweep's eliminated super-diagonal.
    thomas: Vec<f64>,
}

/// Which per-mode system [`RbcSolver::solve_modes`] solves.
#[derive(Clone, Copy)]
enum System {
    /// Crank–Nicolson diffusion with coefficient `a`.
    Helmholtz(f64),
    /// The projection's pressure potential.
    Poisson,
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
            xf: XTransform::new(&domain),
            poisson: (0..=domain.nx / 2)
                .map(|k| {
                    let kk = domain.wavenumber(k);
                    poisson_matrix(&domain, kk * kk)
                })
                .collect(),
            helmholtz: Tridiag::zeros(domain.nz),
            thomas: vec![0.0; domain.nz],
        }
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
    fn nonlinear(&mut self) -> [Vec<f64>; 3] {
        let d = &self.domain;
        let ux = self.xf.ddx(&self.u);
        let uz = ddz(d, &self.u);
        let wx = self.xf.ddx(&self.w);
        let wz = ddz(d, &self.w);
        let tx = self.xf.ddx(&self.temp);
        let tz = ddz(d, &self.temp);
        let n = d.n();
        // Buoyancy enters as the horizontal *fluctuation* of T: the mean part
        // T̄(z) ẑ is a gradient (hydrostatic balance) and is absorbed into the
        // modified pressure exactly, which keeps the discrete projection from
        // having to cancel a large irrotational forcing every step.
        let tbar = row_means(d, &self.temp);
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
        for f in out.iter_mut() {
            self.xf.dealias(f);
        }
        out
    }

    /// Solves `matrix(k) f̂_k = r̂_k` for the z-profile of every x-mode `k`
    /// of `rhs`, whose wall rows are first set to the boundary values
    /// `walls = (bottom, top)`: the DFT of a constant is `value * nx` in
    /// mode 0, zero elsewhere. Each mode's system is solved in place on the
    /// solver's buffers.
    fn solve_modes(&mut self, rhs: &[f64], system: System, (bottom, top): (f64, f64)) -> Vec<f64> {
        let RbcSolver { domain: d, xf, poisson, helmholtz, thomas, .. } = self;
        xf.map_modes(rhs, |k, column| {
            let wall = |v: f64| if k == 0 { Complex::real(v * d.nx as f64) } else { Complex::ZERO };
            column[0] = wall(bottom);
            column[d.nz - 1] = wall(top);
            let matrix = match system {
                System::Helmholtz(a) => {
                    let kk = d.wavenumber(k);
                    fill_helmholtz(helmholtz, d, a, kk * kk);
                    &*helmholtz
                }
                System::Poisson => &poisson[k],
            };
            solve_in_place(matrix, column, thomas);
        })
    }

    /// Implicit Crank–Nicolson diffusion solve: returns the field satisfying
    /// `(I − a(D_zz − k²)) f = rhs` with Dirichlet values `(bottom, top)`.
    fn diffuse(&mut self, rhs: &[f64], a: f64, bottom: f64, top: f64) -> Vec<f64> {
        self.solve_modes(rhs, System::Helmholtz(a), (bottom, top))
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
        let tbar = row_means(d, &self.temp);
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
        let div = divergence(&mut self.xf, &self.u, &self.w);
        let rhs: Vec<f64> = div.iter().map(|v| v / dt).collect();
        // Neumann (or, for k = 0, pinned) wall rows: zero right-hand side.
        let phi = self.solve_modes(&rhs, System::Poisson, (0.0, 0.0));
        let phix = self.xf.ddx(&phi);
        let phiz = ddz(&self.domain, &phi);
        for k in 0..self.domain.n() {
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
        let lap_u = self.xf.laplacian(&self.u);
        let lap_w = self.xf.laplacian(&self.w);
        let lap_t = self.xf.laplacian(&self.temp);
        let prev = |f: usize, k: usize| self.n_prev.as_ref().map_or(0.0, |p| p[f][k]);
        let mut rhs_u = vec![0.0f64; n];
        let mut rhs_w = vec![0.0f64; n];
        let mut rhs_t = vec![0.0f64; n];
        for k in 0..n {
            let nu = c0 * nl[0][k] + c1 * prev(0, k);
            let nw = c0 * nl[1][k] + c1 * prev(1, k);
            let nt = c0 * nl[2][k] + c1 * prev(2, k);
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
    }

    /// Advances with CFL-adaptive steps until exactly `t_target`, with no
    /// sliver step: full `cfl_dt()` steps until less than two remain, then
    /// two equal halves of the rest, or one step if less than one remains.
    /// A remainder within the loop's `1e-12` of one or two whole steps is
    /// stepped whole. (A short last step inflates the stored pressure by
    /// about `1/dt`, and the next AB2 step extrapolates with the ratio.)
    pub fn advance_to(&mut self, t_target: f64) {
        while self.t < t_target - 1e-12 {
            let (cfl, left) = (self.cfl_dt(), t_target - self.t);
            let dt = if left > cfl + 1e-12 && left < 2.0 * cfl - 1e-12 {
                0.5 * left
            } else {
                cfl.min(left)
            };
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
        let nx = self.domain.nx;
        let div = divergence(&mut XTransform::new(&self.domain), &self.u, &self.w);
        div[nx..div.len() - nx].iter().fold(0.0f64, |m, v| m.max(v.abs()))
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

/// The discrete divergence `∂u/∂x + ∂w/∂z` at every node.
fn divergence(xf: &mut XTransform, u: &[f64], w: &[f64]) -> Vec<f64> {
    let mut div = xf.ddx(u);
    for (a, b) in div.iter_mut().zip(ddz(xf.domain(), w)) {
        *a += b;
    }
    div
}

/// Fills `m` with the Crank–Nicolson Helmholtz matrix
/// `(1 + a k² ) I − a D_zz` with Dirichlet rows at both walls. Only those
/// entries are written: the corner off-diagonals stay zero.
fn fill_helmholtz(m: &mut Tridiag, d: &Domain, a: f64, k2: f64) {
    let nz = d.nz;
    let dz2 = d.dz() * d.dz();
    m.diag[0] = 1.0;
    m.diag[nz - 1] = 1.0;
    for j in 1..nz - 1 {
        m.lower[j] = -a / dz2;
        m.diag[j] = 1.0 + a * k2 + 2.0 * a / dz2;
        m.upper[j] = -a / dz2;
    }
}

/// The Poisson matrix `D_zz − k²` with Neumann walls (pinned at the bottom
/// for the singular `k = 0` mode).
fn poisson_matrix(d: &Domain, k2: f64) -> Tridiag {
    let nz = d.nz;
    let dz = d.dz();
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

/// The mean of every z-row of `f` (one value per row).
fn row_means(d: &Domain, f: &[f64]) -> Vec<f64> {
    f.chunks(d.nx).map(|row| row.iter().sum::<f64>() / d.nx as f64).collect()
}

/// Runs a full simulation, saving `n_frames` uniformly-spaced snapshots
/// (including the initial condition at `t = 0`).
///
/// # Errors
/// Rejects fewer than two frames, a duration that is not positive and a
/// grid [`Domain::try_new`] rejects, before the first step.
pub fn try_simulate(
    cfg: &RbcConfig,
    duration: f64,
    n_frames: usize,
) -> Result<Simulation, ConfigError> {
    if n_frames < 2 {
        return Err(ConfigError::Frames);
    }
    if duration.is_nan() || duration <= 0.0 {
        return Err(ConfigError::Duration);
    }
    Domain::try_new(cfg.nx, cfg.nz, cfg.lx, cfg.lz)?;
    let mut solver = RbcSolver::new(*cfg);
    let mut frames = Vec::with_capacity(n_frames);
    frames.push(solver.snapshot());
    let frame_dt = duration / (n_frames - 1) as f64;
    for f in 1..n_frames {
        solver.advance_to(f as f64 * frame_dt);
        frames.push(solver.snapshot());
    }
    Ok(Simulation { cfg: *cfg, domain: solver.domain, frames })
}

/// Panicking convenience wrapper over [`try_simulate`], for callers whose
/// configuration is static.
///
/// # Panics
/// Panics with the [`ConfigError`] message on an invalid configuration.
pub fn simulate(cfg: &RbcConfig, duration: f64, n_frames: usize) -> Simulation {
    try_simulate(cfg, duration, n_frames).unwrap_or_else(|e| panic!("{e}"))
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
    fn frame_intervals_end_without_a_sliver_step() {
        // At rest the step is `dt_max`: 10.05 steps' worth ends on two
        // halves of 1.05 steps, not on a 0.05-step sliver.
        let cfg = RbcConfig { noise_amp: 0.0, ra: 1e3, ..quick_cfg() };
        let mut s = RbcSolver::new(cfg);
        s.advance_to(10.05 * cfg.dt_max);
        assert_eq!(s.steps, 11);
        assert!(s.dt_prev >= 0.5 * cfg.dt_max, "last step {}", s.dt_prev);
        assert!((s.t - 10.05 * cfg.dt_max).abs() < 1e-12);
        // Within rounding of a whole number of steps, every step is whole.
        let mut s = RbcSolver::new(cfg);
        s.advance_to(10.0 * cfg.dt_max);
        assert_eq!(s.steps, 10);
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
    fn try_simulate_names_the_parameter_at_fault() {
        let ok = quick_cfg();
        for (cfg, duration, frames, err) in [
            (RbcConfig { nx: 48, ..ok }, 0.1, 3, ConfigError::Nx),
            (RbcConfig { nz: 3, ..ok }, 0.1, 3, ConfigError::Nz),
            (RbcConfig { lz: 0.0, ..ok }, 0.1, 3, ConfigError::Length),
            (ok, 0.1, 1, ConfigError::Frames),
            (ok, 0.0, 3, ConfigError::Duration),
            (ok, f64::NAN, 3, ConfigError::Duration),
        ] {
            assert_eq!(try_simulate(&cfg, duration, frames).err(), Some(err));
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
