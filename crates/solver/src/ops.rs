//! Discrete differential operators on the mixed Fourier/finite-difference grid.
//!
//! Fields live on an `nz × nx` node grid: periodic and equispaced in `x`
//! (spacing `lx/nx`), wall-bounded in `z` with nodes `z_j = j·dz`,
//! `dz = lz/(nz-1)`, so rows `0` and `nz-1` *are* the walls. Derivatives in
//! `x` are spectral (exact for resolved modes); derivatives in `z` are
//! second-order finite differences, one-sided at the walls — the same
//! operators the implicit solves use, keeping the Crank–Nicolson scheme
//! consistent.

use crate::rbc::ConfigError;
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
    /// Creates a domain, or says which dimension cannot be discretized.
    ///
    /// # Errors
    /// Rejects an `nx` that is not a power of two `>= 4`, an `nz` below 4
    /// and a length that is not positive.
    pub fn try_new(nx: usize, nz: usize, lx: f64, lz: f64) -> Result<Self, ConfigError> {
        if !(nx.is_power_of_two() && nx >= 4) {
            return Err(ConfigError::Nx);
        }
        if nz < 4 {
            return Err(ConfigError::Nz);
        }
        if !(lx > 0.0 && lz > 0.0) {
            return Err(ConfigError::Length);
        }
        Ok(Domain { nx, nz, lx, lz })
    }

    /// Panicking convenience wrapper over [`Domain::try_new`].
    ///
    /// # Panics
    /// Panics with the [`ConfigError`] message on an invalid dimension.
    pub fn new(nx: usize, nz: usize, lx: f64, lz: f64) -> Self {
        Self::try_new(nx, nz, lx, lz).unwrap_or_else(|e| panic!("{e}"))
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

/// The x-transform of one grid: a real-FFT plan for its rows and the
/// mode-major buffer every transform runs through, built once. A forward
/// transform takes all `nz` rows of a physical field at once to the
/// spectrum's `nx/2 + 1` modes, each held as its `nz` coefficients in row
/// order (its z-profile); an inverse transform takes such a spectrum back to
/// rows. [`RbcSolver`](crate::RbcSolver) keeps its state in this layout and
/// owns one transform; the free [`ddx`], [`d2dx2`], [`laplacian`] and
/// [`dealias_x`] build one per call and run one sweep (forward, a per-mode
/// rule, inverse). Every transform is bit for bit the row-at-a-time one
/// (see [`RealFftPlan::forward_rows`]).
#[derive(Debug, Clone)]
pub struct XTransform {
    domain: Domain,
    plan: RealFftPlan,
    /// `nx · nz` coefficients: mode `k`'s z-profile is
    /// `work[k * nz..(k + 1) * nz]` for `k <= nx/2`; the rest is scratch.
    work: Vec<Complex>,
    /// Batched `[forward, inverse]` transforms run so far.
    #[cfg(test)]
    pub(crate) transforms: [usize; 2],
}

impl XTransform {
    /// The plan and buffer for `domain`'s grid.
    pub fn new(domain: &Domain) -> Self {
        XTransform {
            domain: *domain,
            plan: RealFftPlan::new(domain.nx),
            work: vec![Complex::ZERO; domain.n()],
            #[cfg(test)]
            transforms: [0; 2],
        }
    }

    /// The length of a spectrum: `nz` coefficients for each of the
    /// `nx/2 + 1` modes.
    pub(crate) fn spectrum_len(&self) -> usize {
        self.plan.spectrum_len() * self.domain.nz
    }

    /// Runs `rule(k, column)` on each mode's z-profile in the work buffer.
    fn each_mode(&mut self, mut rule: impl FnMut(usize, &mut [Complex])) {
        let (modes, nz) = (self.spectrum_len(), self.domain.nz);
        self.work[..modes].chunks_exact_mut(nz).enumerate().for_each(|(k, c)| rule(k, c));
    }

    /// One batched forward transform of every z-row of `f` into the work
    /// buffer.
    fn forward_rows(&mut self, f: &[f64]) {
        assert_eq!(f.len(), self.domain.n());
        #[cfg(test)]
        {
            self.transforms[0] += 1;
        }
        self.plan.forward_rows(f, &mut self.work);
    }

    /// One batched inverse transform of the work buffer's modes into `f`.
    fn inverse_rows(&mut self, f: &mut [f64]) {
        assert_eq!(f.len(), self.domain.n());
        #[cfg(test)]
        {
            self.transforms[1] += 1;
        }
        self.plan.inverse_rows(&mut self.work, f);
    }

    /// The spectrum of the physical field `f`, written to `spectrum`.
    pub(crate) fn forward(&mut self, f: &[f64], spectrum: &mut [Complex]) {
        self.forward_rows(f);
        spectrum.copy_from_slice(&self.work[..spectrum.len()]);
    }

    /// The physical field of `spectrum` after `rule(k, column)` has run on
    /// a copy of each mode's z-profile, written to `f`.
    pub(crate) fn inverse(
        &mut self,
        spectrum: &[Complex],
        f: &mut [f64],
        rule: impl FnMut(usize, &mut [Complex]),
    ) {
        self.work[..spectrum.len()].copy_from_slice(spectrum);
        self.each_mode(rule);
        self.inverse_rows(f);
    }

    /// One sweep: forward transform of every z-row of `f`, `rule(k,
    /// column)` on each mode's z-profile, inverse transform of every row.
    pub(crate) fn map_modes(
        &mut self,
        f: &[f64],
        rule: impl FnMut(usize, &mut [Complex]),
    ) -> Vec<f64> {
        self.forward_rows(f);
        self.each_mode(rule);
        let mut out = vec![0.0; f.len()];
        self.inverse_rows(&mut out);
        out
    }

    /// Spectral ∂/∂x along each z-row: every mode times `i·k_x`, the
    /// Nyquist mode zeroed.
    pub fn ddx(&mut self, f: &[f64]) -> Vec<f64> {
        let d = self.domain;
        self.map_modes(f, |k, column| ik(&d, k, column))
    }
}

/// Multiplies mode `k`'s coefficients by `i·k_x`: spectral ∂/∂x. The
/// Nyquist mode's derivative is set to zero (its `i·k` image is not
/// representable for a real signal).
pub(crate) fn ik(d: &Domain, k: usize, column: &mut [Complex]) {
    if k == d.nx / 2 {
        column.fill(Complex::ZERO);
    } else {
        let kk = d.wavenumber(k);
        column.iter_mut().for_each(|c| *c = c.mul_i().scale(kk));
    }
}

/// Whether the 2/3 rule drops mode `k` of a nonlinear product: every mode
/// above `nx/3`.
pub(crate) fn aliased(d: &Domain, k: usize) -> bool {
    k > d.nx / 3
}

/// Spectral ∂/∂x along each z-row ([`XTransform::ddx`] on a transform
/// built for this call).
pub fn ddx(domain: &Domain, f: &[f64]) -> Vec<f64> {
    XTransform::new(domain).ddx(f)
}

/// Spectral ∂²/∂x² along each z-row, through a transform built for this
/// call.
pub fn d2dx2(domain: &Domain, f: &[f64]) -> Vec<f64> {
    XTransform::new(domain).map_modes(f, |k, column| {
        let kk = domain.wavenumber(k);
        column.iter_mut().for_each(|c| *c = c.scale(-kk * kk));
    })
}

/// Second-order ∂/∂z: central in the interior, one-sided (second-order
/// three-point) at the walls.
pub fn ddz(domain: &Domain, f: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0f64; f.len()];
    ddz_into(domain, f, &mut out);
    out
}

/// [`ddz`] into `out`.
pub(crate) fn ddz_into(domain: &Domain, f: &[f64], out: &mut [f64]) {
    assert_eq!(f.len(), domain.n());
    assert_eq!(out.len(), f.len());
    let (nx, nz) = (domain.nx, domain.nz);
    let dz = domain.dz();
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

/// The discrete Laplacian `∂²/∂x² + ∂²/∂z²` (spectral + FD), through a
/// transform built for this call.
pub fn laplacian(domain: &Domain, f: &[f64]) -> Vec<f64> {
    let mut lx = d2dx2(domain, f);
    for (a, b) in lx.iter_mut().zip(d2dz2(domain, f)) {
        *a += b;
    }
    lx
}

/// Zeroes the top third of x-modes of a physical field (the 2/3 dealiasing
/// rule applied to nonlinear products), through a transform built for this
/// call.
pub fn dealias_x(domain: &Domain, f: &mut [f64]) {
    let kept = XTransform::new(domain).map_modes(f, |k, column| {
        if aliased(domain, k) {
            column.fill(Complex::ZERO);
        }
    });
    f.copy_from_slice(&kept);
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
        let back = XTransform::new(&d).map_modes(&f, |_, _| {});
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
