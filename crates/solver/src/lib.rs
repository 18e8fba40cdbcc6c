//! # mfn-solver
//!
//! A from-scratch 2D Rayleigh–Bénard convection solver — the substitute for
//! the Dedalus spectral code the paper uses to generate its dataset
//! (Sec. 3.2). The solver is pseudo-spectral in the periodic `x` direction,
//! second-order finite-difference in the wall-normal `z` direction, with
//! Crank–Nicolson diffusion, AB2 advection, and a projection method whose
//! per-wavenumber Poisson/Helmholtz systems are tridiagonal solves.
//!
//! Each mechanism exists once: every x-operator (`ddx`, `d2dx2`,
//! `dealias_x`) and both implicit solves run through one x-transform,
//! [`XTransform`]: one batched real FFT of all `nz` rows into a mode-major
//! spectrum, a per-mode rule, one batched inverse. [`RbcSolver`] builds its
//! transform (plan and buffer) and its Poisson matrices once; the free
//! operators build a transform per call. The Helmholtz and Poisson systems
//! share one per-mode solve, and one Thomas sweep ([`solve_complex`] on a
//! copy of its right-hand side) runs in place on the solver's buffers
//! without allocating. The output is pinned bit
//! for bit by `tests/frame_digest.rs`.
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
