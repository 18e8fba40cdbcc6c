//! The tridiagonal solver (Thomas algorithm): real matrix, complex
//! right-hand side.
//!
//! The Fourier–finite-difference solver reduces every implicit step to a
//! family of independent tridiagonal systems in `z` — one Helmholtz solve
//! `(a I + b D_zz) f = rhs` per x-wavenumber per field — so this little
//! module is the linear-algebra core of the whole CFD substrate.

use mfn_fft::Complex;

/// A real tridiagonal system stored by its three diagonals.
#[derive(Debug, Clone)]
pub struct Tridiag {
    /// Sub-diagonal, `lower[i]` multiplies `x[i-1]` in row `i` (`lower[0]` unused).
    pub lower: Vec<f64>,
    /// Main diagonal.
    pub diag: Vec<f64>,
    /// Super-diagonal, `upper[i]` multiplies `x[i+1]` in row `i` (last unused).
    pub upper: Vec<f64>,
}

impl Tridiag {
    /// Creates an `n × n` zero system.
    pub fn zeros(n: usize) -> Self {
        Tridiag { lower: vec![0.0; n], diag: vec![0.0; n], upper: vec![0.0; n] }
    }
}

/// Solves `A x = rhs` by the Thomas algorithm (no pivoting; valid for the
/// diagonally-dominant Helmholtz/Poisson systems the solver builds). The
/// matrix is real and the right-hand side complex (the per-mode systems have
/// real matrices but complex Fourier-coefficient RHS): the real and
/// imaginary parts share one factorization sweep. A real right-hand side is
/// given as [`Complex::real`] values. The solver runs the same sweep in
/// place on its own buffers.
///
/// # Panics
/// Panics if sizes mismatch or a pivot vanishes.
pub fn solve_complex(a: &Tridiag, rhs: &[Complex]) -> Vec<Complex> {
    let mut x = rhs.to_vec();
    solve_in_place(a, &mut x, &mut vec![0.0; rhs.len()]);
    x
}

/// The one Thomas sweep: overwrites the right-hand side `x` with the
/// solution of `A x = rhs`, using `c` (at least `x.len()` long) for the
/// eliminated super-diagonal. Allocates nothing, so the solver's per-mode
/// loop runs it on reused buffers.
///
/// # Panics
/// Panics if sizes mismatch or a pivot vanishes.
pub(crate) fn solve_in_place(a: &Tridiag, x: &mut [Complex], c: &mut [f64]) {
    let n = a.diag.len();
    assert_eq!(x.len(), n, "rhs length mismatch");
    assert!(c.len() >= n, "scratch shorter than the system");
    let mut piv = a.diag[0];
    assert!(piv.abs() > 1e-300, "zero pivot at row 0");
    c[0] = a.upper[0] / piv;
    x[0] = x[0] / piv;
    for i in 1..n {
        piv = a.diag[i] - a.lower[i] * c[i - 1];
        assert!(piv.abs() > 1e-300, "zero pivot at row {i}");
        c[i] = if i + 1 < n { a.upper[i] / piv } else { 0.0 };
        x[i] = (x[i] - x[i - 1] * a.lower[i]) / piv;
    }
    for i in (0..n - 1).rev() {
        let next = x[i + 1];
        x[i] -= next * c[i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// `A x`, to build right-hand sides with a known solution.
    fn matvec(t: &Tridiag, x: &[f64]) -> Vec<f64> {
        let n = t.diag.len();
        assert_eq!(x.len(), n);
        (0..n)
            .map(|i| {
                let mut v = t.diag[i] * x[i];
                if i > 0 {
                    v += t.lower[i] * x[i - 1];
                }
                if i + 1 < n {
                    v += t.upper[i] * x[i + 1];
                }
                v
            })
            .collect()
    }

    /// Solves a real right-hand side through [`solve_complex`].
    fn solve_real(t: &Tridiag, rhs: &[f64]) -> Vec<Complex> {
        solve_complex(t, &rhs.iter().map(|&v| Complex::real(v)).collect::<Vec<_>>())
    }

    fn random_dd_system(n: usize, seed: u64) -> Tridiag {
        // Diagonally dominant => Thomas is stable and exact-ish.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut t = Tridiag::zeros(n);
        for i in 0..n {
            t.lower[i] = if i > 0 { rng.gen_range(-1.0..1.0) } else { 0.0 };
            t.upper[i] = if i + 1 < n { rng.gen_range(-1.0..1.0) } else { 0.0 };
            t.diag[i] = 3.0 + rng.gen_range(0.0..1.0);
        }
        t
    }

    #[test]
    fn solve_recovers_known_solution() {
        for &n in &[1usize, 2, 3, 17, 64] {
            let t = random_dd_system(n, n as u64);
            let mut rng = ChaCha8Rng::seed_from_u64(100 + n as u64);
            let x_true: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let rhs = matvec(&t, &x_true);
            let x = solve_real(&t, &rhs);
            for (a, b) in x.iter().zip(&x_true) {
                assert!((a.re - b).abs() < 1e-10 && a.im == 0.0, "n={n}: {a:?} vs {b}");
            }
        }
    }

    #[test]
    fn identity_system() {
        let mut t = Tridiag::zeros(4);
        t.diag = vec![1.0; 4];
        let rhs = vec![1.0, -2.0, 3.0, -4.0];
        let x: Vec<f64> = solve_real(&t, &rhs).iter().map(|z| z.re).collect();
        assert_eq!(x, rhs);
    }

    #[test]
    fn second_difference_poisson() {
        // -u'' = pi^2 sin(pi z) on [0,1], u(0)=u(1)=0 -> u = sin(pi z).
        let n = 200;
        let h = 1.0 / (n as f64 + 1.0);
        let mut t = Tridiag::zeros(n);
        for i in 0..n {
            t.diag[i] = 2.0 / (h * h);
            if i > 0 {
                t.lower[i] = -1.0 / (h * h);
            }
            if i + 1 < n {
                t.upper[i] = -1.0 / (h * h);
            }
        }
        let pi = std::f64::consts::PI;
        let rhs: Vec<f64> = (1..=n).map(|i| pi * pi * (pi * i as f64 * h).sin()).collect();
        let u: Vec<f64> = solve_real(&t, &rhs).iter().map(|z| z.re).collect();
        for (i, &ui) in u.iter().enumerate() {
            let exact = (pi * (i as f64 + 1.0) * h).sin();
            assert!((ui - exact).abs() < 1e-3, "z={}: {ui} vs {exact}", (i + 1) as f64 * h);
        }
    }

    #[test]
    fn complex_solve_matches_split_real_solves() {
        let n = 33;
        let t = random_dd_system(n, 7);
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let rhs: Vec<Complex> = (0..n)
            .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let x = solve_complex(&t, &rhs);
        let re = solve_real(&t, &rhs.iter().map(|z| z.re).collect::<Vec<_>>());
        let im = solve_real(&t, &rhs.iter().map(|z| z.im).collect::<Vec<_>>());
        for i in 0..n {
            assert!((x[i].re - re[i].re).abs() < 1e-12);
            assert!((x[i].im - im[i].re).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "rhs length mismatch")]
    fn length_mismatch_panics() {
        solve_real(&Tridiag::zeros(3), &[1.0, 2.0]);
    }
}
