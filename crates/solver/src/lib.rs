//! # mfn-solver
//!
//! A from-scratch 2D Rayleigh–Bénard convection solver — the substitute for
//! the Dedalus spectral code the paper uses to generate its dataset
//! (Sec. 3.2). The solver is pseudo-spectral in the periodic `x` direction,
//! second-order finite-difference in the wall-normal `z` direction, with
//! Crank–Nicolson diffusion, AB2 advection, and a projection method whose
//! per-wavenumber Poisson/Helmholtz systems are tridiagonal solves.
//!
//! The solver keeps its state as x-spectra: `u`, `w`, `T` and `p` as the
//! mode-major spectra [`XTransform`] writes, `nz` coefficients for each mode
//! `k = 0..=nx/2`. Only the advection products are formed on physical rows:
//! a step runs six batched inverse transforms (`u`, `w`, `T` and their
//! x-derivatives) and three batched forward ones (the three products), and
//! everything else — the 2/3 dealiasing mask, buoyancy, Crank–Nicolson
//! right-hand sides and Helmholtz solves, the projection's divergence,
//! Poisson solve and gradient — is per-mode arithmetic on the `nz`
//! coefficients of each mode. A frame inverts only the pressure.
//! [`RbcSolver`] builds its transform (plan and buffer), its Poisson
//! matrices and every per-step buffer once; the free operators (`ddx`,
//! `d2dx2`, `laplacian`, `dealias_x`) build a transform per call and serve
//! `mfn-physics` and the reference checks. The Helmholtz and Poisson systems
//! share one Thomas sweep ([`solve_complex`] on a copy of its right-hand
//! side), run in place on the solver's buffers without allocating. The
//! output is pinned bit for bit by `tests/frame_digest.rs`, and how well it
//! solves the equations is measured by `tests/solver_fidelity.rs`.
//!
//! Entry point: [`simulate`] produces the `(T, p, u, w)` snapshot sequence
//! that `mfn-data` turns into training datasets; [`try_simulate`] returns a
//! [`ConfigError`] for a grid or run it cannot simulate instead of
//! panicking.

pub mod ops;
pub mod rbc;
pub mod tridiag;

pub use ops::{d2dx2, d2dz2, ddx, ddz, dealias_x, laplacian, Domain, XTransform};
pub use rbc::{
    simulate, try_simulate, ConfigError, RbcConfig, RbcSolver, Simulation, Snapshot, T_BOTTOM,
    T_TOP,
};
pub use tridiag::{solve_complex, Tridiag};
