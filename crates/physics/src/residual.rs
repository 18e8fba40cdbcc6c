//! Rayleigh–Bénard PDE residuals (the paper's Eqns. 3a–3c).
//!
//! The scalar (f64) residual definitions live here and have two callers:
//!
//! 1. the inference-time residual evaluation through forward-mode jets,
//! 2. the grid-based residual diagnostic that cross-checks the CFD solver
//!    itself (see [`grid_residuals`]).
//!
//! The training-time *equation loss* does not call them: `mfn-core::losses`
//! holds a twin of the same four formulas written as f32 autodiff-tape ops
//! (`equation_loss_at_points`), pinned against this module by
//! `equation_loss_matches_jet_residuals` and `tests/physics_consistency.rs`.
//! The two stay separate until ROADMAP item 1 (jet on the tape) merges them.

use mfn_solver::{d2dx2, d2dz2, ddx, ddz, Simulation};

/// Dimensionless diffusivities of the Rayleigh–Bénard system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RbcParams {
    /// `P* = (Ra·Pr)^{-1/2}` — thermal diffusivity.
    pub p_star: f64,
    /// `R* = (Ra/Pr)^{-1/2}` — momentum diffusivity.
    pub r_star: f64,
}

impl RbcParams {
    /// Builds the parameter pair from Rayleigh and Prandtl numbers.
    pub fn from_ra_pr(ra: f64, pr: f64) -> Self {
        RbcParams { p_star: 1.0 / (ra * pr).sqrt(), r_star: (pr / ra).sqrt() }
    }
}

/// All field values and derivatives the four residuals need at one
/// space-time point.
#[derive(Debug, Clone, Copy, Default)]
pub struct PointState {
    /// Temperature and its derivatives.
    pub t: f64,
    /// Pressure gradient components (only gradients of `p` enter the PDE).
    pub p_x: f64,
    /// ∂p/∂z.
    pub p_z: f64,
    /// Velocity components.
    pub u: f64,
    /// Vertical velocity.
    pub w: f64,
    /// ∂T/∂t.
    pub t_t: f64,
    /// ∂T/∂x.
    pub t_x: f64,
    /// ∂T/∂z.
    pub t_z: f64,
    /// ∂²T/∂x².
    pub t_xx: f64,
    /// ∂²T/∂z².
    pub t_zz: f64,
    /// ∂u/∂t.
    pub u_t: f64,
    /// ∂u/∂x.
    pub u_x: f64,
    /// ∂u/∂z.
    pub u_z: f64,
    /// ∂²u/∂x².
    pub u_xx: f64,
    /// ∂²u/∂z².
    pub u_zz: f64,
    /// ∂w/∂t.
    pub w_t: f64,
    /// ∂w/∂x.
    pub w_x: f64,
    /// ∂w/∂z.
    pub w_z: f64,
    /// ∂²w/∂x².
    pub w_xx: f64,
    /// ∂²w/∂z².
    pub w_zz: f64,
}

/// The four PDE residuals `[continuity, temperature, momentum-x, momentum-z]`
/// — all zero for an exact solution:
///
/// ```text
/// r_c = u_x + w_z
/// r_T = T_t + u T_x + w T_z − P*(T_xx + T_zz)
/// r_u = u_t + u u_x + w u_z + p_x − R*(u_xx + u_zz)
/// r_w = w_t + u w_x + w w_z + p_z − T − R*(w_xx + w_zz)
/// ```
pub fn residuals(params: RbcParams, s: &PointState) -> [f64; 4] {
    let r_c = s.u_x + s.w_z;
    let r_t = s.t_t + s.u * s.t_x + s.w * s.t_z - params.p_star * (s.t_xx + s.t_zz);
    let r_u = s.u_t + s.u * s.u_x + s.w * s.u_z + s.p_x - params.r_star * (s.u_xx + s.u_zz);
    let r_w = s.w_t + s.u * s.w_x + s.w * s.w_z + s.p_z - s.t - params.r_star * (s.w_xx + s.w_zz);
    [r_c, r_t, r_u, r_w]
}

/// Mean absolute residuals of a simulation frame, evaluated on the interior
/// of the grid with spectral-x/FD-z space derivatives and central time
/// differences across neighbouring frames.
///
/// This is a *diagnostic for the solver itself*: a consistent solver drives
/// these toward zero as the grid refines. The solver stores the hydrostatic
/// column integral inside its pressure channel, so the paper-form residuals
/// (full `T` buoyancy) apply directly.
///
/// # Panics
/// Panics unless `1 <= frame < sim.frames.len() - 1`.
pub fn grid_residuals(sim: &Simulation, frame: usize) -> [f64; 4] {
    assert!(frame >= 1 && frame + 1 < sim.frames.len(), "need interior frame");
    let d = &sim.domain;
    let params = RbcParams::from_ra_pr(sim.cfg.ra, sim.cfg.pr);
    let f0 = &sim.frames[frame - 1];
    let f1 = &sim.frames[frame];
    let f2 = &sim.frames[frame + 1];
    let dt2 = f2.time - f0.time;

    let dt_field = |a: &[f64], b: &[f64]| -> Vec<f64> {
        a.iter().zip(b).map(|(x0, x2)| (x2 - x0) / dt2).collect()
    };
    let t_t = dt_field(&f0.temp, &f2.temp);
    let u_t = dt_field(&f0.u, &f2.u);
    let w_t = dt_field(&f0.w, &f2.w);

    let der = |f: &[f64]| (ddx(d, f), ddz(d, f), d2dx2(d, f), d2dz2(d, f));
    let (t_x, t_z, t_xx, t_zz) = der(&f1.temp);
    let (u_x, u_z, u_xx, u_zz) = der(&f1.u);
    let (w_x, w_z, w_xx, w_zz) = der(&f1.w);
    let p_x = ddx(d, &f1.p);
    let p_z = ddz(d, &f1.p);

    let mut acc = [0.0f64; 4];
    let mut count = 0usize;
    for j in 1..d.nz - 1 {
        for i in 0..d.nx {
            let k = j * d.nx + i;
            let s = PointState {
                t: f1.temp[k],
                p_x: p_x[k],
                p_z: p_z[k],
                u: f1.u[k],
                w: f1.w[k],
                t_t: t_t[k],
                t_x: t_x[k],
                t_z: t_z[k],
                t_xx: t_xx[k],
                t_zz: t_zz[k],
                u_t: u_t[k],
                u_x: u_x[k],
                u_z: u_z[k],
                u_xx: u_xx[k],
                u_zz: u_zz[k],
                w_t: w_t[k],
                w_x: w_x[k],
                w_z: w_z[k],
                w_xx: w_xx[k],
                w_zz: w_zz[k],
            };
            let r = residuals(params, &s);
            for (a, v) in acc.iter_mut().zip(r) {
                *a += v.abs();
            }
            count += 1;
        }
    }
    for a in acc.iter_mut() {
        *a /= count as f64;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfn_solver::{simulate, RbcConfig};

    #[test]
    fn conduction_state_has_zero_residuals() {
        // u = w = 0, T = 1 - z, p_z = T fluctuation = 0: every residual 0.
        let params = RbcParams::from_ra_pr(1e5, 1.0);
        let s = PointState { t: 0.0, t_z: -1.0, ..Default::default() };
        let r = residuals(params, &s);
        for v in r {
            assert!(v.abs() < 1e-15, "{r:?}");
        }
    }

    #[test]
    fn buoyancy_enters_momentum_z() {
        let params = RbcParams::from_ra_pr(1e4, 1.0);
        let s = PointState { t: 0.5, ..Default::default() };
        let r = residuals(params, &s);
        assert!((r[3] + 0.5).abs() < 1e-15);
        assert_eq!(r[0], 0.0);
        assert_eq!(r[1], 0.0);
        assert_eq!(r[2], 0.0);
    }

    #[test]
    fn diffusivities_scale_residuals() {
        let p1 = RbcParams::from_ra_pr(1e4, 1.0);
        let p2 = RbcParams::from_ra_pr(1e6, 1.0);
        let s = PointState { t_xx: 1.0, ..Default::default() };
        let r1 = residuals(p1, &s)[1];
        let r2 = residuals(p2, &s)[1];
        // Higher Ra -> smaller P* -> smaller diffusion residual magnitude.
        assert!(r1.abs() > r2.abs());
        assert!((r1 + p1.p_star).abs() < 1e-15);
    }

    #[test]
    fn params_from_ra_pr() {
        let p = RbcParams::from_ra_pr(1e6, 4.0);
        assert!((p.p_star - 1.0 / (4e6f64).sqrt()).abs() < 1e-15);
        assert!((p.r_star - (4.0f64 / 1e6).sqrt()).abs() < 1e-15);
    }

    #[test]
    fn solver_output_approximately_satisfies_pde() {
        // Cross-validation: the CFD solver's frames should have small PDE
        // residuals relative to the magnitude of the individual terms.
        let cfg = RbcConfig {
            nx: 64,
            nz: 33,
            ra: 1e5,
            dt_max: 1e-3,
            noise_amp: 1e-2,
            ..Default::default()
        };
        let sim = simulate(&cfg, 4.0, 81);
        let r = grid_residuals(&sim, 60);
        // Scale of the advective term at this time.
        let f = &sim.frames[60];
        let umax = f.u.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        assert!(umax > 1e-3, "flow never developed, umax {umax}");
        // Continuity: compare to velocity gradient scale.
        let grad_scale = umax / sim.domain.dx();
        assert!(r[0] < 0.05 * grad_scale, "continuity {} vs {grad_scale}", r[0]);
        // Temperature / momentum residuals: dominated by the O(Δt) frame
        // sampling of the time derivative; just require they are small
        // relative to the advective scale u·|∇T| ~ umax/dx.
        assert!(r[1] < 0.2 * grad_scale, "temperature {} vs {grad_scale}", r[1]);
        assert!(r[3] < 0.5 * grad_scale, "momentum-z {} vs {grad_scale}", r[3]);
    }
}
