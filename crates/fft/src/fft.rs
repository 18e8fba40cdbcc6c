//! Iterative radix-2 Cooley–Tukey FFT with a precomputed-twiddle plan,
//! plus a real-to-complex transform built on top of it.
//!
//! The solver and the turbulence statistics only ever transform power-of-two
//! lengths (the paper's grids are 512×128), so a radix-2 kernel is sufficient;
//! we reject non-power-of-two lengths explicitly rather than silently padding.

use crate::complex::Complex;

/// A reusable FFT plan for a fixed power-of-two length.
///
/// The plan precomputes the bit-reversal permutation and the twiddle factors,
/// so repeated transforms of the same length (the common case in the solver's
/// per-timestep mode loops) avoid recomputing any trigonometry.
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    /// Bit-reversal permutation table: `rev[i]` is `i` with log2(n) bits reversed.
    rev: Vec<u32>,
    /// Forward twiddles, laid out stage by stage: for stage with half-size `m`,
    /// the factors `e^{-2 pi i k / (2m)}` for `k in 0..m`.
    twiddles: Vec<Complex>,
}

impl FftPlan {
    /// Creates a plan for transforms of length `n`.
    ///
    /// # Panics
    /// Panics if `n` is zero or not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(n > 0 && n.is_power_of_two(), "FFT length must be a power of two, got {n}");
        let bits = n.trailing_zeros();
        let mut rev = vec![0u32; n];
        for (i, r) in rev.iter_mut().enumerate() {
            *r = (i as u32).reverse_bits() >> (32 - bits.max(1));
        }
        if n == 1 {
            rev[0] = 0;
        }
        // Total twiddle count is 1 + 2 + 4 + ... + n/2 = n - 1.
        let mut twiddles = Vec::with_capacity(n.saturating_sub(1));
        let mut m = 1;
        while m < n {
            for k in 0..m {
                let theta = -std::f64::consts::PI * (k as f64) / (m as f64);
                twiddles.push(Complex::cis(theta));
            }
            m *= 2;
        }
        FftPlan { n, rev, twiddles }
    }

    /// In-place forward DFT: `X[k] = sum_j x[j] e^{-2 pi i jk / n}`.
    ///
    /// # Panics
    /// Panics if `data.len()` is not the plan's length.
    pub fn forward(&self, data: &mut [Complex]) {
        assert_eq!(data.len(), self.n, "buffer length does not match plan");
        self.transform(data, false);
    }

    /// In-place inverse DFT with 1/n normalization:
    /// `x[j] = (1/n) sum_k X[k] e^{+2 pi i jk / n}`.
    ///
    /// # Panics
    /// Panics if `data.len()` is not the plan's length.
    pub fn inverse(&self, data: &mut [Complex]) {
        assert_eq!(data.len(), self.n, "buffer length does not match plan");
        self.transform(data, true);
        let scale = 1.0 / self.n as f64;
        for z in data.iter_mut() {
            *z = z.scale(scale);
        }
    }

    fn transform(&self, data: &mut [Complex], inverse: bool) {
        let n = self.n;
        // Bit-reversal reordering.
        for i in 0..n {
            let j = self.rev[i] as usize;
            if i < j {
                data.swap(i, j);
            }
        }
        // Butterflies, stage by stage.
        let mut m = 1;
        let mut toff = 0; // offset into the twiddle table for the current stage
        while m < n {
            let step = 2 * m;
            for start in (0..n).step_by(step) {
                for k in 0..m {
                    let w = if inverse {
                        self.twiddles[toff + k].conj()
                    } else {
                        self.twiddles[toff + k]
                    };
                    let a = data[start + k];
                    let b = data[start + k + m] * w;
                    data[start + k] = a + b;
                    data[start + k + m] = a - b;
                }
            }
            toff += m;
            m = step;
        }
    }
}

/// A plan for transforms of *real* signals of power-of-two length `n`.
///
/// Returns the `n/2 + 1` non-redundant spectral coefficients (the remaining
/// ones follow from Hermitian symmetry `X[n-k] = conj(X[k])`).
#[derive(Debug, Clone)]
pub struct RealFftPlan {
    plan: FftPlan,
}

impl RealFftPlan {
    /// Creates a real-FFT plan of length `n` (power of two, `n >= 2`).
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "real FFT length must be at least 2");
        RealFftPlan { plan: FftPlan::new(n) }
    }

    /// The number of non-redundant output coefficients, `n/2 + 1`.
    pub fn spectrum_len(&self) -> usize {
        self.plan.n / 2 + 1
    }

    /// Forward transform of a real signal. Returns `n/2 + 1` coefficients
    /// `X[0..=n/2]` of the full complex DFT.
    pub fn forward(&self, signal: &[f64]) -> Vec<Complex> {
        assert_eq!(signal.len(), self.plan.n);
        let mut buf: Vec<Complex> = signal.iter().map(|&x| Complex::real(x)).collect();
        self.plan.forward(&mut buf);
        buf.truncate(self.spectrum_len());
        buf
    }

    /// Inverse transform from `n/2 + 1` Hermitian coefficients back to a real
    /// signal of length `n`. The imaginary parts of `X[0]` and `X[n/2]` are
    /// ignored (they must be zero for a genuinely real signal).
    pub fn inverse(&self, spectrum: &[Complex]) -> Vec<f64> {
        let n = self.plan.n;
        assert_eq!(spectrum.len(), self.spectrum_len());
        let mut buf = vec![Complex::ZERO; n];
        buf[0] = Complex::real(spectrum[0].re);
        for k in 1..n / 2 {
            buf[k] = spectrum[k];
            buf[n - k] = spectrum[k].conj();
        }
        buf[n / 2] = Complex::real(spectrum[n / 2].re);
        self.plan.inverse(&mut buf);
        buf.into_iter().map(|z| z.re).collect()
    }
}

/// Naive O(n^2) DFT used as a correctness oracle in tests.
pub fn dft_naive(data: &[Complex]) -> Vec<Complex> {
    let n = data.len();
    let mut out = vec![Complex::ZERO; n];
    for (k, o) in out.iter_mut().enumerate() {
        let mut acc = Complex::ZERO;
        for (j, &x) in data.iter().enumerate() {
            let theta = -2.0 * std::f64::consts::PI * (j * k) as f64 / n as f64;
            acc += x * Complex::cis(theta);
        }
        *o = acc;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn rand_signal(n: usize, seed: u64) -> Vec<Complex> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n).map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect()
    }

    #[test]
    fn matches_naive_dft_across_sizes() {
        for &n in &[1usize, 2, 4, 8, 16, 64, 256] {
            let sig = rand_signal(n, n as u64);
            let expect = dft_naive(&sig);
            let mut got = sig.clone();
            FftPlan::new(got.len()).forward(&mut got);
            for (g, e) in got.iter().zip(&expect) {
                assert!((*g - *e).abs() < 1e-9 * (n as f64), "n={n}");
            }
        }
    }

    #[test]
    fn roundtrip_is_identity() {
        let sig = rand_signal(128, 7);
        let mut buf = sig.clone();
        let plan = FftPlan::new(buf.len());
        plan.forward(&mut buf);
        plan.inverse(&mut buf);
        for (a, b) in buf.iter().zip(&sig) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        FftPlan::new(12);
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut sig = vec![Complex::ZERO; 32];
        sig[0] = Complex::ONE;
        FftPlan::new(sig.len()).forward(&mut sig);
        for z in &sig {
            assert!((*z - Complex::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn single_mode_lands_in_single_bin() {
        let n = 64;
        let k0 = 5;
        let mut sig: Vec<Complex> = (0..n)
            .map(|j| Complex::cis(2.0 * std::f64::consts::PI * (k0 * j) as f64 / n as f64))
            .collect();
        FftPlan::new(sig.len()).forward(&mut sig);
        for (k, z) in sig.iter().enumerate() {
            let expect = if k == k0 { n as f64 } else { 0.0 };
            assert!((z.re - expect).abs() < 1e-9 && z.im.abs() < 1e-9, "bin {k}");
        }
    }

    #[test]
    fn parseval_theorem_holds() {
        let sig = rand_signal(256, 42);
        let time_energy: f64 = sig.iter().map(|z| z.norm_sqr()).sum();
        let mut spec = sig.clone();
        FftPlan::new(spec.len()).forward(&mut spec);
        let freq_energy: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / 256.0;
        assert!((time_energy - freq_energy).abs() < 1e-9 * time_energy.max(1.0));
    }

    #[test]
    fn real_fft_matches_complex_fft() {
        let n = 128;
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let sig: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let plan = RealFftPlan::new(n);
        let half = plan.forward(&sig);
        let mut full: Vec<Complex> = sig.iter().map(|&x| Complex::real(x)).collect();
        FftPlan::new(full.len()).forward(&mut full);
        for k in 0..=n / 2 {
            assert!((half[k] - full[k]).abs() < 1e-10, "k={k}");
        }
    }

    #[test]
    fn real_fft_roundtrip() {
        let n = 64;
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let sig: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let plan = RealFftPlan::new(n);
        let spec = plan.forward(&sig);
        let back = plan.inverse(&spec);
        for (a, b) in back.iter().zip(&sig) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn hermitian_symmetry_of_real_signal() {
        let n = 32;
        let sig: Vec<f64> = (0..n).map(|j| (j as f64 * 0.37).sin() + 0.2).collect();
        let mut full: Vec<Complex> = sig.iter().map(|&x| Complex::real(x)).collect();
        FftPlan::new(full.len()).forward(&mut full);
        for k in 1..n / 2 {
            assert!((full[k] - full[n - k].conj()).abs() < 1e-10);
        }
    }

    #[test]
    fn plan_reuse_is_consistent() {
        let plan = FftPlan::new(64);
        let sig = rand_signal(64, 99);
        let mut a = sig.clone();
        let mut b = sig.clone();
        plan.forward(&mut a);
        plan.forward(&mut b);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x, y);
        }
    }
}
