//! Discrete differential operators on the mixed Fourier/finite-difference grid.
//!
//! Fields live on an `nz × nx` node grid: periodic and equispaced in `x`
//! (spacing `lx/nx`), wall-bounded in `z` with nodes `z_j = j·dz`,
//! `dz = lz/(nz-1)`, so rows `0` and `nz-1` *are* the walls. Derivatives in
//! `x` are spectral (exact for resolved modes); derivatives in `z` are
//! second-order finite differences, one-sided at the walls — the same
//! operators the implicit solves use, keeping the Crank–Nicolson scheme
//! consistent.

use mfn_fft::{Complex, RealFftPlan};

/// Geometry of the Rayleigh–Bénard computational domain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Domain {
    /// Number of grid points in the periodic `x` direction (power of two).
    pub nx: usize,
    /// Number of grid nodes in `z`, including both walls.
    pub nz: usize,
    /// Physical length in `x` (the paper uses 4).
    pub lx: f64,
    /// Physical plate separation in `z` (the paper uses 1).
    pub lz: f64,
}

impl Domain {
    /// Creates a domain, validating the discretization.
    pub fn new(nx: usize, nz: usize, lx: f64, lz: f64) -> Self {
        assert!(nx.is_power_of_two() && nx >= 4, "nx must be a power of two >= 4");
        assert!(nz >= 4, "nz must be at least 4");
        assert!(lx > 0.0 && lz > 0.0);
        Domain { nx, nz, lx, lz }
    }

    /// Grid spacing in `x`.
    pub fn dx(&self) -> f64 {
        self.lx / self.nx as f64
    }

    /// Grid spacing in `z` (node grid including walls).
    pub fn dz(&self) -> f64 {
        self.lz / (self.nz - 1) as f64
    }

    /// Total number of grid points.
    pub fn n(&self) -> usize {
        self.nx * self.nz
    }

    /// Physical x-coordinate of column `i`.
    pub fn x(&self, i: usize) -> f64 {
        i as f64 * self.dx()
    }

    /// Physical z-coordinate of row `j`.
    pub fn z(&self, j: usize) -> f64 {
        j as f64 * self.dz()
    }

    /// Physical wavenumber of spectral bin `k`.
    pub fn wavenumber(&self, k: usize) -> f64 {
        2.0 * std::f64::consts::PI * k as f64 / self.lx
    }
}

/// Row-major field index helper: row `j` (z), column `i` (x).
#[inline]
pub fn idx(domain: &Domain, j: usize, i: usize) -> usize {
    j * domain.nx + i
}

/// Spectral ∂/∂x along each z-row. The Nyquist mode's derivative is set to
/// zero (its `i·k` image is not representable for a real signal).
pub fn ddx(domain: &Domain, f: &[f64]) -> Vec<f64> {
    assert_eq!(f.len(), domain.n());
    let plan = RealFftPlan::new(domain.nx);
    let nx = domain.nx;
    let mut out = vec![0.0f64; f.len()];
    out.chunks_mut(nx).zip(f.chunks(nx)).for_each(|(orow, frow)| {
        let mut spec = plan.forward(frow);
        for (k, c) in spec.iter_mut().enumerate() {
            if k == nx / 2 {
                *c = Complex::ZERO;
            } else {
                *c = c.mul_i().scale(domain.wavenumber(k));
            }
        }
        orow.copy_from_slice(&plan.inverse(&spec));
    });
    out
}

/// Spectral ∂²/∂x² along each z-row.
pub fn d2dx2(domain: &Domain, f: &[f64]) -> Vec<f64> {
    assert_eq!(f.len(), domain.n());
    let plan = RealFftPlan::new(domain.nx);
    let nx = domain.nx;
    let mut out = vec![0.0f64; f.len()];
    out.chunks_mut(nx).zip(f.chunks(nx)).for_each(|(orow, frow)| {
        let mut spec = plan.forward(frow);
        for (k, c) in spec.iter_mut().enumerate() {
            let kk = domain.wavenumber(k);
            *c = c.scale(-kk * kk);
        }
        orow.copy_from_slice(&plan.inverse(&spec));
    });
    out
}

/// Second-order ∂/∂z: central in the interior, one-sided (second-order
/// three-point) at the walls.
pub fn ddz(domain: &Domain, f: &[f64]) -> Vec<f64> {
    assert_eq!(f.len(), domain.n());
    let (nx, nz) = (domain.nx, domain.nz);
    let dz = domain.dz();
    let mut out = vec![0.0f64; f.len()];
    for i in 0..nx {
        out[i] = (-3.0 * f[i] + 4.0 * f[nx + i] - f[2 * nx + i]) / (2.0 * dz);
        let top = (nz - 1) * nx;
        out[top + i] =
            (3.0 * f[top + i] - 4.0 * f[top - nx + i] + f[top - 2 * nx + i]) / (2.0 * dz);
    }
    for j in 1..nz - 1 {
        for i in 0..nx {
            out[j * nx + i] = (f[(j + 1) * nx + i] - f[(j - 1) * nx + i]) / (2.0 * dz);
        }
    }
    out
}

/// Second-order ∂²/∂z²: central in the interior; at the walls a one-sided
/// four-point second-order formula.
pub fn d2dz2(domain: &Domain, f: &[f64]) -> Vec<f64> {
    assert_eq!(f.len(), domain.n());
    let (nx, nz) = (domain.nx, domain.nz);
    let dz2 = domain.dz() * domain.dz();
    let mut out = vec![0.0f64; f.len()];
    for i in 0..nx {
        out[i] = (2.0 * f[i] - 5.0 * f[nx + i] + 4.0 * f[2 * nx + i] - f[3 * nx + i]) / dz2;
        let top = (nz - 1) * nx;
        out[top + i] = (2.0 * f[top + i] - 5.0 * f[top - nx + i] + 4.0 * f[top - 2 * nx + i]
            - f[top - 3 * nx + i])
            / dz2;
    }
    for j in 1..nz - 1 {
        for i in 0..nx {
            out[j * nx + i] =
                (f[(j + 1) * nx + i] - 2.0 * f[j * nx + i] + f[(j - 1) * nx + i]) / dz2;
        }
    }
    out
}

/// The discrete Laplacian `∂²/∂x² + ∂²/∂z²` (spectral + FD).
pub fn laplacian(domain: &Domain, f: &[f64]) -> Vec<f64> {
    let mut lx = d2dx2(domain, f);
    let lz = d2dz2(domain, f);
    for (a, b) in lx.iter_mut().zip(&lz) {
        *a += b;
    }
    lx
}

/// Forward real FFT of every z-row: returns `nz` rows of `nx/2+1` modes.
pub fn rows_to_spectral(domain: &Domain, f: &[f64]) -> Vec<Vec<Complex>> {
    let plan = RealFftPlan::new(domain.nx);
    f.chunks(domain.nx).map(|row| plan.forward(row)).collect()
}

/// Inverse of [`rows_to_spectral`].
pub fn rows_from_spectral(domain: &Domain, spec: &[Vec<Complex>]) -> Vec<f64> {
    let plan = RealFftPlan::new(domain.nx);
    let mut out = vec![0.0f64; domain.n()];
    out.chunks_mut(domain.nx).zip(spec.iter()).for_each(|(orow, srow)| {
        orow.copy_from_slice(&plan.inverse(srow));
    });
    out
}

/// Zeroes the top third of x-modes of a physical field (the 2/3 dealiasing
/// rule applied to nonlinear products).
pub fn dealias_x(domain: &Domain, f: &mut [f64]) {
    let plan = RealFftPlan::new(domain.nx);
    let cutoff = domain.nx / 3;
    f.chunks_mut(domain.nx).for_each(|row| {
        let mut spec = plan.forward(row);
        for (k, c) in spec.iter_mut().enumerate() {
            if k > cutoff {
                *c = Complex::ZERO;
            }
        }
        row.copy_from_slice(&plan.inverse(&spec));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_domain() -> Domain {
        Domain::new(64, 33, 4.0, 1.0)
    }

    fn fill(domain: &Domain, f: impl Fn(f64, f64) -> f64) -> Vec<f64> {
        let mut out = vec![0.0; domain.n()];
        for j in 0..domain.nz {
            for i in 0..domain.nx {
                out[idx(domain, j, i)] = f(domain.x(i), domain.z(j));
            }
        }
        out
    }

    #[test]
    fn ddx_exact_for_sinusoids() {
        let d = make_domain();
        let k = 2.0 * std::f64::consts::PI * 3.0 / d.lx;
        let f = fill(&d, |x, _| (k * x).sin());
        let g = ddx(&d, &f);
        for j in 0..d.nz {
            for i in 0..d.nx {
                let exact = k * (k * d.x(i)).cos();
                assert!((g[idx(&d, j, i)] - exact).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn d2dx2_exact_for_sinusoids() {
        let d = make_domain();
        let k = 2.0 * std::f64::consts::PI * 5.0 / d.lx;
        let f = fill(&d, |x, _| (k * x).cos());
        let g = d2dx2(&d, &f);
        for (i, &gv) in g.iter().enumerate() {
            let exact = -k * k * (k * d.x(i)).cos();
            assert!((gv - exact).abs() < 1e-8);
        }
    }

    #[test]
    fn ddz_second_order_on_quadratic() {
        // Exact for polynomials up to degree 2 everywhere, including walls.
        let d = make_domain();
        let f = fill(&d, |_, z| 2.0 * z * z - 3.0 * z + 1.0);
        let g = ddz(&d, &f);
        for j in 0..d.nz {
            let exact = 4.0 * d.z(j) - 3.0;
            assert!((g[idx(&d, j, 0)] - exact).abs() < 1e-10, "row {j}");
        }
    }

    #[test]
    fn d2dz2_exact_on_cubic() {
        let d = make_domain();
        let f = fill(&d, |_, z| z * z * z);
        let g = d2dz2(&d, &f);
        for j in 0..d.nz {
            let exact = 6.0 * d.z(j);
            assert!((g[idx(&d, j, 5)] - exact).abs() < 1e-8, "row {j}");
        }
    }

    #[test]
    fn laplacian_of_harmonic_function_is_zero() {
        // f = sin(kx) * e^{kz} is harmonic; FD error in z is O(dz^2).
        let d = Domain::new(64, 65, 4.0, 1.0);
        let k = 2.0 * std::f64::consts::PI / d.lx;
        let f = fill(&d, |x, z| (k * x).sin() * (k * z).exp());
        let g = laplacian(&d, &f);
        let scale = (k * d.lz).exp() * k * k;
        for j in 1..d.nz - 1 {
            for i in 0..d.nx {
                assert!(g[idx(&d, j, i)].abs() / scale < 5e-4, "({j},{i}): {}", g[idx(&d, j, i)]);
            }
        }
    }

    #[test]
    fn spectral_roundtrip() {
        let d = make_domain();
        let f = fill(&d, |x, z| (x * 1.3).sin() * (z * 0.7).cos() + z);
        let spec = rows_to_spectral(&d, &f);
        let back = rows_from_spectral(&d, &spec);
        for (a, b) in back.iter().zip(&f) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn dealias_kills_high_modes_only() {
        let d = make_domain();
        let klo = 2.0 * std::f64::consts::PI * 2.0 / d.lx;
        let khi = 2.0 * std::f64::consts::PI * 30.0 / d.lx;
        let mut f = fill(&d, |x, _| (klo * x).sin() + (khi * x).sin());
        let expect = fill(&d, |x, _| (klo * x).sin());
        dealias_x(&d, &mut f);
        for (a, b) in f.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn domain_coordinates() {
        let d = make_domain();
        assert!((d.dx() - 4.0 / 64.0).abs() < 1e-15);
        assert!((d.dz() - 1.0 / 32.0).abs() < 1e-15);
        assert_eq!(d.z(0), 0.0);
        assert!((d.z(d.nz - 1) - 1.0).abs() < 1e-15);
    }
}
