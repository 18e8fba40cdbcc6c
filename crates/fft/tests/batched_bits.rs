//! The batched transforms are bit for bit a row-at-a-time FFT.
//!
//! `scalar` below is the per-row definition: a radix-2 FFT of one signal,
//! bit-reversal swaps then stage-by-stage butterflies, and the real-signal
//! wrappers around it, written out here and nowhere in the library. Every
//! `forward_rows`/`inverse_rows` row, every single-row call and every
//! `FftPlan` transform must equal it exactly, for every power-of-two length
//! up to 256 and batch sizes that are and are not multiples of a vector's
//! width, on inputs that include ±0, ±∞, NaN and subnormals.
//!
//! Rust leaves the payload and sign of a NaN result unspecified, so a NaN
//! matches any NaN; every other value must match in all 64 bits.

use mfn_fft::{energy_spectrum_x, Complex, FftPlan, RealFftPlan};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The row-at-a-time reference.
mod scalar {
    use mfn_fft::Complex;

    fn twiddle(k: usize, m: usize) -> Complex {
        Complex::cis(-std::f64::consts::PI * (k as f64) / (m as f64))
    }

    /// In-place radix-2 DFT of one signal; the inverse conjugates the
    /// twiddles and does not scale.
    pub(super) fn row_fft(data: &mut [Complex], inverse: bool) {
        let n = data.len();
        let bits = n.trailing_zeros();
        for i in 0..n {
            let j = if n == 1 { 0 } else { (i as u32).reverse_bits() >> (32 - bits) } as usize;
            if i < j {
                data.swap(i, j);
            }
        }
        let mut m = 1;
        while m < n {
            for start in (0..n).step_by(2 * m) {
                for k in 0..m {
                    let w = if inverse { twiddle(k, m).conj() } else { twiddle(k, m) };
                    let a = data[start + k];
                    let b = data[start + k + m] * w;
                    data[start + k] = a + b;
                    data[start + k + m] = a - b;
                }
            }
            m *= 2;
        }
    }

    /// `n/2 + 1` coefficients of one real signal.
    pub fn real_forward(signal: &[f64]) -> Vec<Complex> {
        let mut buf: Vec<Complex> = signal.iter().map(|&x| Complex::real(x)).collect();
        row_fft(&mut buf, false);
        buf.truncate(signal.len() / 2 + 1);
        buf
    }

    /// The real signal of `n/2 + 1` Hermitian coefficients.
    pub fn real_inverse(spectrum: &[Complex], n: usize) -> Vec<f64> {
        let mut buf = vec![Complex::ZERO; n];
        buf[0] = Complex::real(spectrum[0].re);
        for k in 1..n / 2 {
            buf[k] = spectrum[k];
            buf[n - k] = spectrum[k].conj();
        }
        buf[n / 2] = Complex::real(spectrum[n / 2].re);
        row_fft(&mut buf, true);
        let scale = 1.0 / n as f64;
        buf.iter().map(|z| z.re * scale).collect()
    }
}

const LENGTHS: [usize; 8] = [2, 4, 8, 16, 32, 64, 128, 256];
const BATCHES: [usize; 5] = [1, 3, 8, 17, 33];

/// ±0, ±∞, NaN, the smallest subnormal and a mid-range one.
const SPECIALS: [f64; 7] =
    [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 5e-324, -2.5e-310];

/// `n` values for row `j`: rows cycle through plain values, subnormals and
/// zeros among tiny values, one ±∞, and one NaN, so every class reaches the
/// butterflies without every row turning to NaN.
fn row_values(rng: &mut ChaCha8Rng, n: usize, j: usize) -> Vec<f64> {
    let mut row: Vec<f64> = (0..n).map(|_| rng.gen_range(-4.0..4.0)).collect();
    match j % 4 {
        0 => {}
        1 => {
            for v in row.iter_mut() {
                *v = match rng.gen_range(0..4) {
                    0 => SPECIALS[rng.gen_range(0..2)],
                    1 => SPECIALS[5 + rng.gen_range(0..2)],
                    _ => *v * 1e-300,
                };
            }
        }
        2 => row[rng.gen_range(0..n)] = SPECIALS[2 + rng.gen_range(0..2)],
        _ => row[rng.gen_range(0..n)] = f64::NAN,
    }
    row
}

fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn assert_same(got: f64, want: f64, what: &str) {
    assert!(
        same(got, want),
        "{what}: {got:e} ({:#018x}) vs {want:e} ({:#018x})",
        got.to_bits(),
        want.to_bits()
    );
}

#[test]
fn forward_rows_is_each_rows_scalar_transform() {
    let mut rng = ChaCha8Rng::seed_from_u64(50);
    for n in LENGTHS {
        let plan = RealFftPlan::new(n);
        for b in BATCHES {
            let rows: Vec<Vec<f64>> = (0..b).map(|j| row_values(&mut rng, n, j)).collect();
            let mut work = vec![Complex::ZERO; n * b];
            plan.forward_rows(&rows.concat(), &mut work);
            for (j, row) in rows.iter().enumerate() {
                let want = scalar::real_forward(row);
                let single = plan.forward(row);
                for k in 0..=n / 2 {
                    let what = format!("n {n} b {b} row {j} mode {k}");
                    let got = work[k * b + j];
                    assert_same(got.re, want[k].re, &what);
                    assert_same(got.im, want[k].im, &what);
                    assert_same(single[k].re, want[k].re, &what);
                    assert_same(single[k].im, want[k].im, &what);
                }
            }
        }
    }
}

#[test]
fn inverse_rows_is_each_rows_scalar_transform() {
    let mut rng = ChaCha8Rng::seed_from_u64(51);
    for n in LENGTHS {
        let plan = RealFftPlan::new(n);
        for b in BATCHES {
            let spectra: Vec<Vec<Complex>> = (0..b)
                .map(|j| {
                    let (re, im) = (row_values(&mut rng, n, j), row_values(&mut rng, n, j + 4));
                    re.iter().zip(&im).take(n / 2 + 1).map(|(&r, &i)| Complex::new(r, i)).collect()
                })
                .collect();
            // Mode-major in the first `n/2 + 1` modes; the rest is scratch
            // and starts as garbage.
            let mut work = vec![Complex::new(f64::NAN, 7.0); n * b];
            for (j, spec) in spectra.iter().enumerate() {
                for (k, &c) in spec.iter().enumerate() {
                    work[k * b + j] = c;
                }
            }
            let mut rows = vec![0.0; n * b];
            plan.inverse_rows(&mut work, &mut rows);
            for (j, spec) in spectra.iter().enumerate() {
                let want = scalar::real_inverse(spec, n);
                let single = plan.inverse(spec);
                for x in 0..n {
                    let what = format!("n {n} b {b} row {j} sample {x}");
                    assert_same(rows[j * n + x], want[x], &what);
                    assert_same(single[x], want[x], &what);
                }
            }
        }
    }
}

#[test]
fn complex_plan_is_the_scalar_transform() {
    let mut rng = ChaCha8Rng::seed_from_u64(52);
    for n in std::iter::once(1).chain(LENGTHS) {
        let plan = FftPlan::new(n);
        for j in 0..4 {
            let (re, im) = (row_values(&mut rng, n.max(2), j), row_values(&mut rng, n.max(2), j));
            let signal: Vec<Complex> =
                re.iter().zip(&im).take(n).map(|(&r, &i)| Complex::new(r, i)).collect();
            let (mut got, mut want) = (signal.clone(), signal.clone());
            plan.forward(&mut got);
            scalar::row_fft(&mut want, false);
            for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                let what = format!("forward n {n} class {j} bin {k}");
                assert_same(g.re, w.re, &what);
                assert_same(g.im, w.im, &what);
            }
            let (mut got, mut want) = (signal.clone(), signal);
            plan.inverse(&mut got);
            scalar::row_fft(&mut want, true);
            let scale = 1.0 / n as f64;
            for (x, (g, w)) in got.iter().zip(&want).enumerate() {
                let what = format!("inverse n {n} class {j} sample {x}");
                assert_same(g.re, w.re * scale, &what);
                assert_same(g.im, w.im * scale, &what);
            }
        }
    }
}

#[test]
fn no_rows_transform_nothing() {
    for n in LENGTHS {
        let plan = RealFftPlan::new(n);
        plan.forward_rows(&[], &mut []);
        plan.inverse_rows(&mut [], &mut []);
        let spectrum = energy_spectrum_x(&[&[]], 0, n, 1.0);
        assert_eq!(spectrum.energy.len(), n / 2 + 1);
    }
}
