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
//!
//! The state is the x-spectra of `u`, `w`, `T` and `p`. Every x-derivative
//! is a multiply by `i·k`, and every z-derivative the same finite difference
//! on a mode's z-profile as on a physical row (it acts row by row, so it
//! commutes with the x-transform). The scheme is therefore the one a
//! solver on physical rows would step, transform for transform, in exact
//! arithmetic; only the rounding differs.

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
///
/// The state is held as x-spectra: `u`, `w`, `T` and `p` as the mode-major
/// spectra [`XTransform`] writes, `nz` coefficients (a z-profile) for each
/// mode `k = 0..=nx/2`. Everything but the advection products is per-mode
/// arithmetic on them. Physical `u`, `w` and `T` are kept beside the
/// spectra, inverted once a step: the next step's products, the CFL limit
/// and the frames read them.
pub struct RbcSolver {
    cfg: RbcConfig,
    domain: Domain,
    /// Current simulation time.
    pub t: f64,
    /// Total steps taken.
    pub steps: u64,
    /// The spectra of `[u, w, T]`.
    state: [Vec<Complex>; 3],
    /// The spectrum of the pressure: the projection potential plus the
    /// hydrostatic column.
    p: Vec<Complex>,
    /// `[u, w, T]` in physical space (`nz × nx`): the inverse of `state`.
    rows: [Vec<f64>; 3],
    /// This step's dealiased explicit terms `[Nu, Nw, NT]` (advection and
    /// buoyancy), as spectra.
    explicit: [Vec<Complex>; 3],
    /// The previous step's, for AB2.
    explicit_prev: [Vec<Complex>; 3],
    /// The dt of the previous step (AB2 assumes near-constant dt; the CFL
    /// controller changes it slowly). Zero before the first step, which is
    /// then forward Euler in the explicit terms.
    dt_prev: f64,
    /// Scratch rows: one field's x-derivative, then its advection product,
    /// and its z-derivative.
    dx_rows: Vec<f64>,
    dz_rows: Vec<f64>,
    /// The one x-transform every spectrum goes through.
    xf: XTransform,
    /// The Poisson matrix of every x-mode `k = 0..=nx/2` (they depend only
    /// on the grid).
    poisson: Vec<Tridiag>,
    /// The Helmholtz matrix of the mode being solved, rebuilt in place.
    helmholtz: Tridiag,
    /// The Thomas sweep's eliminated super-diagonal.
    thomas: Vec<f64>,
    /// One mode's right-hand side, solved in place.
    column: Vec<Complex>,
}

/// Indices of `u`, `w` and `T` in the solver's field arrays.
const U: usize = 0;
const W: usize = 1;
const T: usize = 2;

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
        let xf = XTransform::new(&domain);
        let spectrum = || vec![Complex::ZERO; xf.spectrum_len()];
        let mut s = RbcSolver {
            cfg,
            domain,
            t: 0.0,
            steps: 0,
            state: [spectrum(), spectrum(), spectrum()],
            p: spectrum(),
            rows: [vec![0.0; n], vec![0.0; n], temp],
            explicit: [spectrum(), spectrum(), spectrum()],
            explicit_prev: [spectrum(), spectrum(), spectrum()],
            dt_prev: 0.0,
            dx_rows: vec![0.0; n],
            dz_rows: vec![0.0; n],
            poisson: (0..=domain.nx / 2)
                .map(|k| {
                    let kk = domain.wavenumber(k);
                    poisson_matrix(&domain, kk * kk)
                })
                .collect(),
            helmholtz: Tridiag::zeros(domain.nz),
            thomas: vec![0.0; domain.nz],
            column: vec![Complex::ZERO; domain.nz],
            xf,
        };
        s.forward_state();
        s
    }

    /// Restarts from a saved frame: its time, temperature and velocity. The
    /// pressure is an output of each step's projection, so the frame's is not
    /// read, and the first step has no advection history (forward Euler), as
    /// the first step of [`RbcSolver::new`] has.
    ///
    /// # Panics
    /// Panics if a field of `frame` is not `nz × nx` long.
    pub fn from_snapshot(cfg: RbcConfig, frame: &Snapshot) -> Self {
        let mut s = RbcSolver::new(RbcConfig { noise_amp: 0.0, ..cfg });
        s.cfg = cfg;
        for f in [&frame.temp, &frame.u, &frame.w] {
            assert_eq!(f.len(), s.domain.n(), "frame is not {} x {}", s.domain.nz, s.domain.nx);
        }
        s.t = frame.time;
        s.rows[U].clone_from(&frame.u);
        s.rows[W].clone_from(&frame.w);
        s.rows[T].clone_from(&frame.temp);
        s.forward_state();
        s
    }

    /// The spectra of the physical `[u, w, T]`.
    fn forward_state(&mut self) {
        for (rows, spectrum) in self.rows.iter().zip(&mut self.state) {
            self.xf.forward(rows, spectrum);
        }
    }

    /// The grid geometry.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// The CFL-limited time step at the current state.
    pub fn cfl_dt(&self) -> f64 {
        let umax = self.rows[U].iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        let wmax = self.rows[W].iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        let dtx = self.cfg.cfl * self.domain.dx() / (umax + 1e-12);
        let dtz = self.cfg.cfl * self.domain.dz() / (wmax + 1e-12);
        dtx.min(dtz).min(self.cfg.dt_max)
    }

    /// The explicit terms `[Nu, Nw, NT]` of the current state into
    /// `explicit`: three inverse transforms (the x-derivatives), the
    /// advection products on the rows, three forward transforms, then the
    /// 2/3 rule as a mask and the buoyancy per mode.
    fn explicit_terms(&mut self) {
        let d = self.domain;
        let RbcSolver { xf, state, rows, dx_rows: fx, dz_rows: fz, explicit, .. } = self;
        for f in [U, W, T] {
            xf.inverse(&state[f], fx, |k, column| ops::ik(&d, k, column));
            ops::ddz_into(&d, &rows[f], fz);
            for n in 0..d.n() {
                fx[n] = -(rows[U][n] * fx[n] + rows[W][n] * fz[n]);
            }
            xf.forward(fx, &mut explicit[f]);
        }
        // Buoyancy enters as the horizontal *fluctuation* of T, mode 0 of
        // T̂ dropped: the mean part T̄(z) ẑ is a gradient (hydrostatic
        // balance) and is absorbed into the modified pressure exactly, which
        // keeps the discrete projection from having to cancel a large
        // irrotational forcing every step.
        let nz = d.nz;
        for k in 0..=d.nx / 2 {
            let modes = k * nz..(k + 1) * nz;
            if ops::aliased(&d, k) {
                explicit.iter_mut().for_each(|e| e[modes.clone()].fill(Complex::ZERO));
            } else if k > 0 {
                for (n, &t) in explicit[W][modes.clone()].iter_mut().zip(&state[T][modes]) {
                    *n += t;
                }
            }
        }
    }

    /// Advances one step of size `dt`: AB2 explicit terms, Crank–Nicolson
    /// diffusion and a three-pass pressure projection, each mode on its own
    /// z-profile, then the new state's rows.
    pub fn step(&mut self, dt: f64) {
        assert!(dt > 0.0, "dt must be positive");
        self.explicit_terms();
        // AB2 extrapolation with variable step: coefficients for (dt, dt_prev).
        let (c0, c1) = if self.dt_prev > 0.0 {
            let r = dt / self.dt_prev;
            (1.0 + r / 2.0, -r / 2.0)
        } else {
            (1.0, 0.0)
        };
        let d = self.domain;
        let (nz, dz) = (d.nz, d.dz());
        let kappa = [self.cfg.r_star(), self.cfg.r_star(), self.cfg.p_star()];
        let walls = [(0.0, 0.0), (0.0, 0.0), (T_BOTTOM, T_TOP)];
        let RbcSolver {
            state, p, explicit, explicit_prev, poisson, helmholtz, thomas, column, ..
        } = self;
        for (k, poisson) in poisson.iter().enumerate() {
            let kk = d.wavenumber(k);
            let modes = k * nz..(k + 1) * nz;
            // The DFT of a constant wall value is `value * nx` in mode 0,
            // zero elsewhere.
            let wall = |v: f64| if k == 0 { Complex::real(v * d.nx as f64) } else { Complex::ZERO };
            // Crank–Nicolson: (I − a(D_zz − k²)) f' = f + dt (AB2 terms +
            // ½κ(D_zz − k²) f), a = ½κ dt, with Dirichlet walls.
            for f in [U, W, T] {
                let old = &state[f][modes.clone()];
                let (n, n_prev) = (&explicit[f][modes.clone()], &explicit_prev[f][modes.clone()]);
                for j in 1..nz - 1 {
                    let lap = old[j].scale(-kk * kk)
                        + (old[j + 1] - old[j].scale(2.0) + old[j - 1]) / (dz * dz);
                    let terms = n[j].scale(c0) + n_prev[j].scale(c1);
                    column[j] = old[j] + (terms + lap.scale(0.5 * kappa[f])).scale(dt);
                }
                column[0] = wall(walls[f].0);
                column[nz - 1] = wall(walls[f].1);
                fill_helmholtz(helmholtz, &d, 0.5 * dt * kappa[f], kk * kk);
                solve_in_place(helmholtz, column, thomas);
                state[f][modes.clone()].copy_from_slice(column);
            }
            // Pressure projection: makes (û, ŵ) divergence-free and stores
            // the accumulated potential φ̂ (scaled to pressure units) in p̂.
            // The spectral-x/FD-z gradient and divergence do not compose
            // into the exact 3-point Laplacian the Poisson solve uses, so a
            // single pass leaves an O(Δz²) residual; two extra fixed passes
            // drive the interior divergence down by the same factor each
            // time. ∂/∂x is i·k, zero at the Nyquist mode.
            let kx = if k == d.nx / 2 { 0.0 } else { kk };
            let [u, w, _] = &mut *state;
            let (u, w, p) = (&mut u[modes.clone()], &mut w[modes.clone()], &mut p[modes]);
            let phi = column.as_mut_slice();
            p.fill(Complex::ZERO);
            for _ in 0..3 {
                // ∇·u / dt; Neumann (or, for k = 0, pinned) wall rows: zero.
                phi[0] = Complex::ZERO;
                phi[nz - 1] = Complex::ZERO;
                for j in 1..nz - 1 {
                    phi[j] = (u[j].mul_i().scale(kx) + (w[j + 1] - w[j - 1]) / (2.0 * dz)) / dt;
                }
                solve_in_place(poisson, phi, thomas);
                for j in 0..nz {
                    u[j] -= phi[j].mul_i().scale(kx).scale(dt);
                    w[j] -= ddz_at(phi, j, dz).scale(dt);
                    p[j] += phi[j];
                }
            }
            // No-slip walls.
            for f in [u, w] {
                f[0] = Complex::ZERO;
                f[nz - 1] = Complex::ZERO;
            }
        }
        // The projection potential φ is the *modified* pressure (buoyancy
        // was applied as the horizontal fluctuation of T). Add back the
        // hydrostatic column integral H(z) = ∫₀ᶻ T̄ dz', mode 0 only, so the
        // stored p satisfies the paper's momentum equation with the full T:
        // ∇(φ + H) − T ẑ = ∇φ − (T − T̄) ẑ.
        let nx = d.nx as f64;
        let mut hydro = 0.0;
        for j in 1..nz {
            hydro += 0.5 * (state[T][j].re + state[T][j - 1].re) / nx * dz;
            p[j] += Complex::real(hydro * nx);
        }
        std::mem::swap(explicit, explicit_prev);
        for f in [U, W, T] {
            self.xf.inverse(&self.state[f], &mut self.rows[f], |_, _| {});
        }
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
        let (u, w) = (&self.rows[U], &self.rows[W]);
        0.5 * u.iter().zip(w).map(|(&u, &w)| u * u + w * w).sum::<f64>() / n
    }

    /// Volume-averaged Nusselt number `Nu = 1 + <w·T> / (κ ΔT/L)` — the
    /// classic Rayleigh–Bénard heat-transport diagnostic (Nu = 1 in pure
    /// conduction, grows with Ra once convection sets in).
    pub fn nusselt(&self) -> f64 {
        let n = self.domain.n() as f64;
        let (w, temp) = (&self.rows[W], &self.rows[T]);
        let wt: f64 = w.iter().zip(temp).map(|(&w, &t)| w * t).sum::<f64>() / n;
        let conductive = self.cfg.p_star() * (T_BOTTOM - T_TOP) / self.cfg.lz;
        1.0 + wt / conductive
    }

    /// Maximum |∇·u| over the interior (projection quality diagnostic).
    pub fn max_divergence(&self) -> f64 {
        let d = &self.domain;
        let div = ops::ddx(d, &self.rows[U]);
        let wz = ddz(d, &self.rows[W]);
        let interior = d.nx..d.n() - d.nx;
        div[interior.clone()]
            .iter()
            .zip(&wz[interior])
            .fold(0.0f64, |m, (a, b)| m.max((a + b).abs()))
    }

    /// Captures the current state as an output frame. `u`, `w` and `T` are
    /// already physical; the pressure is the one inverse transform.
    pub fn snapshot(&mut self) -> Snapshot {
        let mut p = vec![0.0; self.domain.n()];
        self.xf.inverse(&self.p, &mut p, |_, _| {});
        Snapshot {
            time: self.t,
            temp: self.rows[T].clone(),
            p,
            u: self.rows[U].clone(),
            w: self.rows[W].clone(),
        }
    }
}

/// Row `j` of [`ddz`] on one mode's z-profile `f`.
fn ddz_at(f: &[Complex], j: usize, dz: f64) -> Complex {
    let n = f.len();
    if j == 0 {
        (f[0].scale(-3.0) + f[1].scale(4.0) - f[2]) / (2.0 * dz)
    } else if j == n - 1 {
        (f[n - 1].scale(3.0) - f[n - 2].scale(4.0) + f[n - 3]) / (2.0 * dz)
    } else {
        (f[j + 1] - f[j - 1]) / (2.0 * dz)
    }
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
            assert!((s.rows[T][j * cfg.nx] - expect).abs() < 1e-8, "row {j}");
        }
    }

    #[test]
    fn projection_yields_small_divergence() {
        // Run to a developed flow so velocity gradients are O(1), then check
        // the interior divergence is small relative to them.
        let cfg = RbcConfig { ra: 1e6, ..quick_cfg() };
        let mut s = RbcSolver::new(cfg);
        s.advance_to(8.0);
        let umax = s.rows[U].iter().fold(0.0f64, |m, &v| m.max(v.abs())).max(1e-9);
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
        for &t in &s.rows[T] {
            lo = lo.min(t);
            hi = hi.max(t);
        }
        // Small over/undershoots from the FD scheme are tolerated.
        assert!(lo > -0.15 && hi < 1.15, "T range [{lo}, {hi}]");
        assert!(!s.rows[T].iter().any(|t| t.is_nan()));
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
    fn a_step_runs_six_inverse_and_three_forward_transforms() {
        // The inverses are u, w and T and their x-derivatives; the forwards
        // are the three advection products. A frame inverts only p.
        let mut s = RbcSolver::new(quick_cfg());
        for _ in 0..3 {
            let before = s.xf.transforms;
            s.step(1e-3);
            assert_eq!([s.xf.transforms[0] - before[0], s.xf.transforms[1] - before[1]], [3, 6]);
        }
        let before = s.xf.transforms;
        s.snapshot();
        assert_eq!([s.xf.transforms[0] - before[0], s.xf.transforms[1] - before[1]], [0, 1]);
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
            assert_eq!(s.rows[U][i], 0.0);
            assert_eq!(s.rows[W][i], 0.0);
            assert_eq!(s.rows[U][top + i], 0.0);
            assert_eq!(s.rows[W][top + i], 0.0);
            assert!((s.rows[T][i] - T_BOTTOM).abs() < 1e-6, "bottom T {}", s.rows[T][i]);
            assert!((s.rows[T][top + i] - T_TOP).abs() < 1e-6, "top T {}", s.rows[T][top + i]);
        }
    }
}
