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
//!
//! There is one radix-2 butterfly loop, run over a batch of transforms stored
//! with the batch index innermost: [`RealFftPlan::forward_rows`] turns a
//! row-major `[nz][nx]` block into its mode-major `[nx/2 + 1][nz]` spectrum
//! and [`RealFftPlan::inverse_rows`] goes back, each row bit for bit its own
//! single-row transform (`tests/batched_bits.rs`). The single-signal calls
//! are the batch-of-one case of the same loop.

pub mod complex;
pub mod fft;
pub mod spectrum;

pub use complex::Complex;
pub use fft::{dft_naive, FftPlan, RealFftPlan};
pub use spectrum::{energy_spectrum_x, EnergySpectrum};
