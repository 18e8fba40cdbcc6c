//! Rayleigh–Bénard PDE residuals (the paper's Eqns. 3a–3c).
//!
//! [`residuals`] is the one place the four formulas are written. It is
//! generic over the values it combines (anything with `+`, `−`, `·` and
//! multiples by an `f64`) and has two kinds of caller:
//!
//! 1. on `f64` numbers: the grid-based diagnostic that cross-checks the CFD
//!    solver itself ([`grid_residuals`]);
//! 2. on columns of an autodiff tape (`mfn-core::losses`): the training
//!    equation loss and the test-time refinement objective, whose
//!    [`PointState`] holds the decoder's value and derivative lanes.

use mfn_solver::{d2dx2, d2dz2, ddx, ddz, Simulation};
use std::ops::{Add, Mul, Sub};

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
pub struct PointState<T> {
    /// Temperature and its derivatives.
    pub t: T,
    /// Pressure gradient components (only gradients of `p` enter the PDE).
    pub p_x: T,
    /// ∂p/∂z.
    pub p_z: T,
    /// Velocity components.
    pub u: T,
    /// Vertical velocity.
    pub w: T,
    /// ∂T/∂t.
    pub t_t: T,
    /// ∂T/∂x.
    pub t_x: T,
    /// ∂T/∂z.
    pub t_z: T,
    /// ∂²T/∂x².
    pub t_xx: T,
    /// ∂²T/∂z².
    pub t_zz: T,
    /// ∂u/∂t.
    pub u_t: T,
    /// ∂u/∂x.
    pub u_x: T,
    /// ∂u/∂z.
    pub u_z: T,
    /// ∂²u/∂x².
    pub u_xx: T,
    /// ∂²u/∂z².
    pub u_zz: T,
    /// ∂w/∂t.
    pub w_t: T,
    /// ∂w/∂x.
    pub w_x: T,
    /// ∂w/∂z.
    pub w_z: T,
    /// ∂²w/∂x².
    pub w_xx: T,
    /// ∂²w/∂z².
    pub w_zz: T,
}

impl<T> PointState<T> {
    /// Fills a state from `get(lane, channel)` with lanes `[value, ∂t, ∂z,
    /// ∂x, ∂zz, ∂xx]` and channels `[T, p, u, w]` — the order a decoder's
    /// derivative lanes and a dataset's channels come in. `get` is asked for
    /// exactly the twenty entries the residuals read.
    pub fn from_lanes(mut get: impl FnMut(usize, usize) -> T) -> Self {
        let [val, d_t, d_z, d_x, d_zz, d_xx] = [0, 1, 2, 3, 4, 5];
        let [temp, pres, uvel, wvel] = [0, 1, 2, 3];
        PointState {
            t: get(val, temp),
            p_x: get(d_x, pres),
            p_z: get(d_z, pres),
            u: get(val, uvel),
            w: get(val, wvel),
            t_t: get(d_t, temp),
            t_x: get(d_x, temp),
            t_z: get(d_z, temp),
            t_xx: get(d_xx, temp),
            t_zz: get(d_zz, temp),
            u_t: get(d_t, uvel),
            u_x: get(d_x, uvel),
            u_z: get(d_z, uvel),
            u_xx: get(d_xx, uvel),
            u_zz: get(d_zz, uvel),
            w_t: get(d_t, wvel),
            w_x: get(d_x, wvel),
            w_z: get(d_z, wvel),
            w_xx: get(d_xx, wvel),
            w_zz: get(d_zz, wvel),
        }
    }
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
pub fn residuals<T>(params: RbcParams, s: &PointState<T>) -> [T; 4]
where
    T: Copy + Add<Output = T> + Sub<Output = T> + Mul<Output = T> + Mul<f64, Output = T>,
{
    let r_c = s.u_x + s.w_z;
    let r_t = s.t_t + s.u * s.t_x + s.w * s.t_z - (s.t_xx + s.t_zz) * params.p_star;
    let r_u = s.u_t + s.u * s.u_x + s.w * s.u_z + s.p_x - (s.u_xx + s.u_zz) * params.r_star;
    let r_w = s.w_t + s.u * s.w_x + s.w * s.w_z + s.p_z - s.t - (s.w_xx + s.w_zz) * params.r_star;
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

    // Lanes [value, ∂t, ∂z, ∂x, ∂zz, ∂xx] per channel [T, p, u, w]; what
    // the residuals never read of the pressure stays empty.
    let lanes = |before: &[f64], f: &[f64], after: &[f64]| {
        let f_t = before.iter().zip(after).map(|(x0, x2)| (x2 - x0) / dt2).collect();
        [f.to_vec(), f_t, ddz(d, f), ddx(d, f), d2dz2(d, f), d2dx2(d, f)]
    };
    let p = [vec![], vec![], ddz(d, &f1.p), ddx(d, &f1.p), vec![], vec![]];
    let fields = [
        lanes(&f0.temp, &f1.temp, &f2.temp),
        p,
        lanes(&f0.u, &f1.u, &f2.u),
        lanes(&f0.w, &f1.w, &f2.w),
    ];

    let mut acc = [0.0f64; 4];
    let mut count = 0usize;
    for j in 1..d.nz - 1 {
        for i in 0..d.nx {
            let s = PointState::from_lanes(|lane, c| fields[c][lane][j * d.nx + i]);
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
