//! 1D turbulence energy spectra.
//!
//! The Rayleigh–Bénard domain is periodic only in `x`, so — as is standard for
//! channel-like flows — we compute the one-dimensional energy spectrum `E(k)`
//! along `x` and average it over the wall-normal rows. The spectrum is
//! normalized so that `sum_k E(k) = 0.5 * <u_i u_i>` (the total kinetic energy
//! per unit mass), which is the convention the integral-scale formula in the
//! paper's Sec. 3.3 expects.

use crate::complex::Complex;
use crate::fft::{dft_naive, RealFftPlan};

/// The 1D kinetic-energy spectrum of a set of velocity components.
#[derive(Debug, Clone)]
pub struct EnergySpectrum {
    /// Wavenumber magnitudes: `k[i] = 2*pi*i / Lx` for bin `i`.
    pub wavenumbers: Vec<f64>,
    /// Energy per bin; `energy.len() == nx/2 + 1`.
    pub energy: Vec<f64>,
}

impl EnergySpectrum {
    /// Total kinetic energy `sum_k E(k)`; equals `0.5 <u_i u_i>` up to FFT
    /// round-off.
    pub fn total_energy(&self) -> f64 {
        self.energy.iter().sum()
    }

    /// The integral length scale
    /// `L = pi / (2 u_rms^2) * sum_{k>0} E(k)/k` (discrete form of the
    /// integral in Sec. 3.3 of the paper), where `u_rms^2 = (2/3) * 2 * E_tot`
    /// is *not* used here; the caller passes `u_rms` computed from its own
    /// convention so the metric definitions stay in one place.
    pub fn integral_scale(&self, u_rms: f64) -> f64 {
        if u_rms <= 0.0 {
            return 0.0;
        }
        let integral: f64 = self
            .wavenumbers
            .iter()
            .zip(&self.energy)
            .skip(1) // k = 0 carries the mean flow, excluded from the integral
            .map(|(&k, &e)| e / k)
            .sum();
        std::f64::consts::PI / (2.0 * u_rms * u_rms) * integral
    }
}

/// Computes the 1D energy spectrum along the periodic `x` direction.
///
/// `components` are velocity-component fields, each stored row-major as
/// `[nz][nx]` (so `field[z * nx + x]`). `lx` is the physical length of the
/// periodic direction. Rows are transformed independently and the resulting
/// per-mode energies averaged over `z`.
///
/// Power-of-two widths transform all rows of a component in one
/// [`RealFftPlan::forward_rows`] call; other widths fall back to a naive
/// O(nx²) real DFT per row, so arbitrary grids (e.g. cropped patches) are
/// accepted.
///
/// # Panics
/// Panics if any field's length is not `nz * nx` or if `nx` is zero.
pub fn energy_spectrum_x(components: &[&[f64]], nz: usize, nx: usize, lx: f64) -> EnergySpectrum {
    assert!(!components.is_empty(), "need at least one velocity component");
    assert!(nx > 0, "nx must be positive");
    for c in components {
        assert_eq!(c.len(), nz * nx, "field shape mismatch");
    }
    let plan = if nx >= 2 && nx.is_power_of_two() { Some(RealFftPlan::new(nx)) } else { None };
    let nbins = nx / 2 + 1;
    let mut energy = vec![0.0; nbins];
    // Mode-major: bin `k` of row `z` is `spec[k * nz + z]`.
    let mut spec = vec![Complex::ZERO; nz * nx];
    for comp in components {
        match &plan {
            Some(p) => p.forward_rows(comp, &mut spec),
            None => {
                for (z, row) in comp.chunks_exact(nx).enumerate() {
                    let full: Vec<Complex> = row.iter().map(|&v| Complex::new(v, 0.0)).collect();
                    for (k, c) in dft_naive(&full).into_iter().take(nbins).enumerate() {
                        spec[k * nz + z] = c;
                    }
                }
            }
        }
        accumulate_energy(&spec[..nbins * nz], nz, nx, &mut energy);
    }
    let norm = 1.0 / nz as f64;
    for e in energy.iter_mut() {
        *e *= norm;
    }
    let dk = 2.0 * std::f64::consts::PI / lx;
    let wavenumbers = (0..nbins).map(|i| i as f64 * dk).collect();
    EnergySpectrum { wavenumbers, energy }
}

/// Adds every row's spectral energy into `energy`, rows in order, with the
/// normalization that makes `sum_k E(k) = 0.5 * mean(u^2)` for each row.
/// `spec` holds the `nz` rows' bins mode-major (bin `k` of row `z` at
/// `spec[k * nz + z]`). Interior bins are doubled to account for the
/// conjugate-symmetric negative wavenumbers; only DC and — for even `nx` —
/// the Nyquist bin are their own conjugates and counted once. (`k == nx / 2`
/// would silently halve the last bin for odd `nx`, where mode `nx/2` still
/// has a distinct conjugate partner and must be doubled; `2 * k == nx`
/// holds only for a true Nyquist bin.)
fn accumulate_energy(spec: &[Complex], nz: usize, nx: usize, energy: &mut [f64]) {
    let n2 = (nx * nx) as f64;
    for (k, (e, column)) in energy.iter_mut().zip(spec.chunks_exact(nz.max(1))).enumerate() {
        let mult = if k == 0 || 2 * k == nx { 1.0 } else { 2.0 };
        for z in column {
            *e += 0.5 * mult * z.norm_sqr() / n2;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spectrum_energy_matches_physical_energy() {
        // A field with a couple of modes: check sum_k E(k) == 0.5 <u^2>.
        let (nz, nx) = (4, 64);
        let lx = 4.0;
        let mut u = vec![0.0; nz * nx];
        for z in 0..nz {
            for x in 0..nx {
                let xx = x as f64 / nx as f64;
                u[z * nx + x] = 1.3 * (2.0 * std::f64::consts::PI * 3.0 * xx).sin()
                    + 0.4 * (2.0 * std::f64::consts::PI * 7.0 * xx).cos()
                    + 0.1;
            }
        }
        let spec = energy_spectrum_x(&[&u], nz, nx, lx);
        let phys: f64 = 0.5 * u.iter().map(|v| v * v).sum::<f64>() / (nz * nx) as f64;
        assert!((spec.total_energy() - phys).abs() < 1e-12, "{} vs {phys}", spec.total_energy());
    }

    #[test]
    fn parseval_holds_for_all_parities() {
        // Parseval must hold whether or not a Nyquist bin exists: even
        // power-of-two (FFT path), even and odd non-power-of-two (naive
        // path). Odd widths are the regression case for the old
        // `k == nx / 2` weighting, which halved the last bin.
        for &(nz, nx) in &[(3, 8), (2, 12), (2, 7), (3, 9), (1, 1)] {
            let mut u = vec![0.0; nz * nx];
            for (i, v) in u.iter_mut().enumerate() {
                *v = (i as f64 * 0.37).sin() + 0.2 * (i as f64 * 1.91).cos() - 0.05;
            }
            let spec = energy_spectrum_x(&[&u], nz, nx, 2.0);
            let phys: f64 = 0.5 * u.iter().map(|v| v * v).sum::<f64>() / (nz * nx) as f64;
            assert!(
                (spec.total_energy() - phys).abs() < 1e-12 * (1.0 + phys),
                "Parseval broken at nz={nz} nx={nx}: {} vs {phys}",
                spec.total_energy()
            );
        }
    }

    #[test]
    fn single_mode_concentrates_energy() {
        let (nz, nx) = (2, 32);
        let mut u = vec![0.0; nz * nx];
        for z in 0..nz {
            for x in 0..nx {
                u[z * nx + x] =
                    (2.0 * std::f64::consts::PI * 5.0 * x as f64 / nx as f64).sin() * 2.0;
            }
        }
        let spec = energy_spectrum_x(&[&u], nz, nx, 1.0);
        // sin amplitude 2 -> mean square 2, KE = 1, all in bin 5.
        assert!((spec.energy[5] - 1.0).abs() < 1e-12);
        for (k, &e) in spec.energy.iter().enumerate() {
            if k != 5 {
                assert!(e.abs() < 1e-12, "bin {k} leaked {e}");
            }
        }
    }

    #[test]
    fn wavenumbers_scale_with_domain_length() {
        let u = vec![0.0; 16];
        let s1 = energy_spectrum_x(&[&u], 1, 16, 1.0);
        let s4 = energy_spectrum_x(&[&u], 1, 16, 4.0);
        assert!((s1.wavenumbers[1] - 2.0 * std::f64::consts::PI).abs() < 1e-12);
        assert!((s4.wavenumbers[1] - std::f64::consts::PI / 2.0).abs() < 1e-12);
    }

    #[test]
    fn integral_scale_of_single_mode() {
        // For energy E0 entirely at wavenumber k0: L = pi/(2 urms^2) * E0/k0.
        let (nz, nx) = (1, 64);
        let mut u = vec![0.0; nz * nx];
        for (x, uv) in u.iter_mut().enumerate() {
            *uv = (2.0 * std::f64::consts::PI * 4.0 * x as f64 / nx as f64).sin();
        }
        let lx = 2.0;
        let spec = energy_spectrum_x(&[&u], nz, nx, lx);
        let k0 = spec.wavenumbers[4];
        let e0 = spec.energy[4];
        let urms = 0.7;
        let expect = std::f64::consts::PI / (2.0 * urms * urms) * e0 / k0;
        assert!((spec.integral_scale(urms) - expect).abs() < 1e-12);
    }

    #[test]
    fn integral_scale_zero_for_zero_velocity() {
        let u = vec![0.0; 32];
        let spec = energy_spectrum_x(&[&u], 1, 32, 1.0);
        assert_eq!(spec.integral_scale(0.0), 0.0);
        assert_eq!(spec.integral_scale(1.0), 0.0);
    }

    #[test]
    fn multiple_components_sum() {
        let (nz, nx) = (2, 16);
        let u: Vec<f64> = (0..nz * nx).map(|i| (i as f64 * 0.3).sin()).collect();
        let w: Vec<f64> = (0..nz * nx).map(|i| (i as f64 * 0.11).cos()).collect();
        let su = energy_spectrum_x(&[&u], nz, nx, 1.0);
        let sw = energy_spectrum_x(&[&w], nz, nx, 1.0);
        let both = energy_spectrum_x(&[&u, &w], nz, nx, 1.0);
        for k in 0..both.energy.len() {
            assert!((both.energy[k] - su.energy[k] - sw.energy[k]).abs() < 1e-12);
        }
    }
}
