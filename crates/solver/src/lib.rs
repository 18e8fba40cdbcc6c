//! # mfn-solver
//!
//! A from-scratch 2D Rayleigh–Bénard convection solver — the substitute for
//! the Dedalus spectral code the paper uses to generate its dataset
//! (Sec. 3.2). The solver is pseudo-spectral in the periodic `x` direction,
//! second-order finite-difference in the wall-normal `z` direction, with
//! Crank–Nicolson diffusion, AB2 advection, and a projection method whose
//! per-wavenumber Poisson/Helmholtz systems are tridiagonal solves.
//!
//! Entry point: [`simulate`] produces the `(T, p, u, w)` snapshot sequence
//! that `mfn-data` turns into training datasets.

pub mod ops;
pub mod rbc;
pub mod tridiag;

pub use ops::{d2dx2, d2dz2, ddx, ddz, dealias_x, laplacian, Domain};
pub use rbc::{
    simulate, simulate_recorded, RbcConfig, RbcSolver, Simulation, Snapshot, T_BOTTOM, T_TOP,
};
pub use tridiag::{solve_complex, Tridiag};
