//! Iterative radix-2 Cooley–Tukey FFT with a precomputed-twiddle plan,
//! plus a real-to-complex transform built on top of it.
//!
//! The solver and the turbulence statistics only ever transform power-of-two
//! lengths (the paper's grids are 512×128), so a radix-2 kernel is sufficient;
//! we reject non-power-of-two lengths explicitly rather than silently padding.
//!
//! There is one butterfly loop, and it runs over a *batch* of `b` transforms
//! stored with the batch index innermost: element `k` of transform `j` sits at
//! `[k·b + j]`. Each butterfly is then a contiguous loop over the batch, which
//! the compiler vectorizes, while every transform still sees the same IEEE
//! operations in the same order as a lone one (Rust never contracts a
//! multiply and an add into an FMA), so a batched result is bit for bit the
//! single-transform result. A single transform is the `b = 1` case.

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
        self.bit_reverse(data, 1);
        self.butterflies(data, 1, false);
    }

    /// In-place inverse DFT with 1/n normalization:
    /// `x[j] = (1/n) sum_k X[k] e^{+2 pi i jk / n}`.
    ///
    /// # Panics
    /// Panics if `data.len()` is not the plan's length.
    pub fn inverse(&self, data: &mut [Complex]) {
        assert_eq!(data.len(), self.n, "buffer length does not match plan");
        self.bit_reverse(data, 1);
        self.butterflies(data, 1, true);
        let scale = 1.0 / self.n as f64;
        for z in data.iter_mut() {
            *z = z.scale(scale);
        }
    }

    /// Reorders the `n` batch-rows of `b` elements each into bit-reversed
    /// order.
    fn bit_reverse(&self, data: &mut [Complex], b: usize) {
        for (i, &r) in self.rev.iter().enumerate() {
            let j = r as usize;
            if i < j {
                let (lo, hi) = data.split_at_mut(j * b);
                lo[i * b..(i + 1) * b].swap_with_slice(&mut hi[..b]);
            }
        }
    }

    /// The one butterfly loop: every radix-2 stage over `b` bit-reversed
    /// transforms stored batch-innermost (`data[k * b + j]`), the inverse
    /// with conjugated twiddles and no scaling.
    fn butterflies(&self, data: &mut [Complex], b: usize, inverse: bool) {
        let n = self.n;
        let mut m = 1;
        let mut toff = 0; // offset into the twiddle table for the current stage
        while m < n {
            let step = 2 * m;
            for group in data.chunks_exact_mut(step * b) {
                let (tops, bottoms) = group.split_at_mut(m * b);
                let rows = tops.chunks_exact_mut(b).zip(bottoms.chunks_exact_mut(b));
                for (k, (top, bottom)) in rows.enumerate() {
                    let w = if inverse {
                        self.twiddles[toff + k].conj()
                    } else {
                        self.twiddles[toff + k]
                    };
                    butterfly(top, bottom, w);
                }
            }
            toff += m;
            m = step;
        }
    }
}

/// One butterfly across the batch: `(x, y) ← (x + y·w, x − y·w)` for every
/// transform. Out of line so that the two rows are distinct arguments, which
/// lets the loop vectorize without run-time overlap checks.
#[inline(never)]
fn butterfly(top: &mut [Complex], bottom: &mut [Complex], w: Complex) {
    for (x, y) in top.iter_mut().zip(bottom) {
        let a = *x;
        let t = *y * w;
        *x = a + t;
        *y = a - t;
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
        let mut buf = vec![Complex::ZERO; self.plan.n];
        self.forward_rows(signal, &mut buf);
        buf.truncate(self.spectrum_len());
        buf
    }

    /// Inverse transform from `n/2 + 1` Hermitian coefficients back to a real
    /// signal of length `n`. The imaginary parts of `X[0]` and `X[n/2]` are
    /// ignored (they must be zero for a genuinely real signal).
    pub fn inverse(&self, spectrum: &[Complex]) -> Vec<f64> {
        assert_eq!(spectrum.len(), self.spectrum_len());
        let mut buf = vec![Complex::ZERO; self.plan.n];
        buf[..spectrum.len()].copy_from_slice(spectrum);
        let mut out = vec![0.0; self.plan.n];
        self.inverse_rows(&mut buf, &mut out);
        out
    }

    /// Forward transform of every row of a row-major `[b][n]` block of real
    /// signals at once, into `work` (length `n·b`), mode-major: coefficient
    /// `k` of row `j` lands at `work[k * b + j]`, so the `n/2 + 1`
    /// non-redundant modes are `work[..spectrum_len() * b]` and mode `k`'s
    /// coefficients over the rows are `work[k * b..(k + 1) * b]`. The rest of
    /// `work` is scratch. Each row's coefficients are bit for bit
    /// [`RealFftPlan::forward`]'s. No rows (`b = 0`) is a no-op.
    ///
    /// # Panics
    /// Panics if `rows.len()` is not a multiple of `n` or `work.len()` is not
    /// `rows.len()`.
    pub fn forward_rows(&self, rows: &[f64], work: &mut [Complex]) {
        let (n, b) = (self.plan.n, rows.len() / self.plan.n);
        assert_eq!(rows.len(), n * b, "rows are not whole signals of the plan's length");
        assert_eq!(work.len(), n * b, "work buffer length does not match the rows");
        if b == 0 {
            return;
        }
        // The transpose writes each sample to its bit-reversed slot, the
        // permutation the butterflies expect.
        for (j, row) in rows.chunks_exact(n).enumerate() {
            for (&r, &v) in self.plan.rev.iter().zip(row) {
                work[r as usize * b + j] = Complex::real(v);
            }
        }
        self.plan.butterflies(work, b, false);
    }

    /// The way back from [`RealFftPlan::forward_rows`]: reads the `n/2 + 1`
    /// modes of `b = rows.len() / n` rows from `work[..spectrum_len() * b]`
    /// (mode-major) and writes the real signals to `rows` (row-major
    /// `[b][n]`), using all of `work` as scratch. Each row is bit for bit
    /// [`RealFftPlan::inverse`]'s; as there, the imaginary parts of modes `0`
    /// and `n/2` are ignored. No rows (`b = 0`) is a no-op.
    ///
    /// # Panics
    /// Panics if `rows.len()` is not a multiple of `n` or `work.len()` is not
    /// `rows.len()`.
    pub fn inverse_rows(&self, work: &mut [Complex], rows: &mut [f64]) {
        let (n, b) = (self.plan.n, rows.len() / self.plan.n);
        assert_eq!(rows.len(), n * b, "rows are not whole signals of the plan's length");
        assert_eq!(work.len(), n * b, "work buffer length does not match the rows");
        if b == 0 {
            return;
        }
        // Hermitian extension: modes above n/2 are the conjugates of those
        // below, and modes 0 and n/2 are real.
        let (low, high) = work.split_at_mut((n / 2 + 1) * b);
        for (k, mirror) in high.chunks_exact_mut(b).enumerate() {
            let source = &low[(n / 2 - 1 - k) * b..(n / 2 - k) * b];
            for (m, s) in mirror.iter_mut().zip(source) {
                *m = s.conj();
            }
        }
        let (dc, rest) = low.split_at_mut(b);
        for z in dc.iter_mut().chain(&mut rest[(n / 2 - 1) * b..]) {
            *z = Complex::real(z.re);
        }
        self.plan.bit_reverse(work, b);
        self.plan.butterflies(work, b, true);
        let scale = 1.0 / n as f64;
        for (j, row) in rows.chunks_exact_mut(n).enumerate() {
            for (x, v) in row.iter_mut().enumerate() {
                *v = work[x * b + j].re * scale;
            }
        }
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
