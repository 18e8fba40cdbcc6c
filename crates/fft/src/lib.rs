//! # mfn-fft
//!
//! A from-scratch fast Fourier transform library used throughout the
//! MeshfreeFlowNet reproduction:
//!
//! - the [`FftPlan`] / [`RealFftPlan`] kernels back the Rayleigh–Bénard
//!   solver's pseudo-spectral x-derivatives and its per-mode Poisson solves,
//! - [`spectrum::energy_spectrum_x`] provides the 1D kinetic-energy spectrum
//!   from which the turbulent integral scale `L` (paper Sec. 3.3) is computed.
//!
//! Only power-of-two lengths are supported (the paper's grids are 512×128);
//! the kernels are deliberately simple, allocation-light, and exactly
//! reproducible across runs.

pub mod complex;
pub mod fft;
pub mod spectrum;

pub use complex::Complex;
pub use fft::{dft_naive, FftPlan, RealFftPlan};
pub use spectrum::{energy_spectrum_x, EnergySpectrum};
