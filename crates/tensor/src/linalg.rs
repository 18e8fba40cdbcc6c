//! Dense matrix-multiplication entry points over the blocked GEMM kernel.
//!
//! The continuous decoding network is dominated by batched fully-connected
//! layers, i.e. `[rows, in] x [in, out]` GEMMs with `rows` in the tens of
//! thousands (query points × 8 cell vertices). All three transpose variants
//! (`matmul`, `matmul_tn`, `matmul_nt`) lower onto the single cache-blocked,
//! register-tiled micro-kernel in [`crate::gemm`](mod@crate::gemm) — transposition is folded
//! into the packing strides, so there is exactly one inner loop to keep fast.
//! See the [`crate::gemm`](mod@crate::gemm) module docs for the MC/KC/NC blocking scheme, the
//! MR×NR packing layout, and why the inner loop is branch-free (NaN/Inf
//! propagation). Output storage and packing buffers come from the
//! [`crate::workspace`] pool, so steady-state calls do not allocate.

use crate::gemm::{gemm, MatLayout};
use crate::tensor::Tensor;
use crate::workspace;

/// `C = A @ B` for `A: [m, k]`, `B: [k, n]`.
///
/// # Panics
/// Panics if the shapes are not rank-2 and compatible.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "matmul");
    let (k2, n) = dims2(b, "matmul");
    assert_eq!(k, k2, "matmul inner dimension mismatch: {k} vs {k2}");
    let mut out = workspace::take_vec_scratch(m * n);
    gemm(m, k, n, a.data(), MatLayout::Normal, b.data(), MatLayout::Normal, &mut out);
    Tensor::from_vec(out, &[m, n])
}

/// `C = A^T @ B` for `A: [k, m]`, `B: [k, n]` — the gradient-of-weights shape
/// in a linear layer backward pass, computed without materializing `A^T`.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = dims2(a, "matmul_tn");
    let (k2, n) = dims2(b, "matmul_tn");
    assert_eq!(k, k2, "matmul_tn inner dimension mismatch");
    let mut out = workspace::take_vec_scratch(m * n);
    gemm(m, k, n, a.data(), MatLayout::Transposed, b.data(), MatLayout::Normal, &mut out);
    Tensor::from_vec(out, &[m, n])
}

/// `C = A @ B^T` for `A: [m, k]`, `B: [n, k]` — the gradient-of-input shape in
/// a linear layer backward pass, computed without materializing `B^T`.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "matmul_nt");
    let (n, k2) = dims2(b, "matmul_nt");
    assert_eq!(k, k2, "matmul_nt inner dimension mismatch");
    let mut out = workspace::take_vec_scratch(m * n);
    gemm(m, k, n, a.data(), MatLayout::Normal, b.data(), MatLayout::Transposed, &mut out);
    Tensor::from_vec(out, &[m, n])
}

/// Matrix–vector product `A @ x` for `A: [m, n]`, `x: [n]`.
pub fn matvec(a: &Tensor, x: &Tensor) -> Tensor {
    let (m, n) = dims2(a, "matvec");
    assert_eq!(x.numel(), n, "matvec vector length mismatch");
    let ad = a.data();
    let xd = x.data();
    let mut out = workspace::take_vec_capacity(m);
    out.extend((0..m).map(|i| {
        let row = &ad[i * n..(i + 1) * n];
        row.iter().zip(xd).map(|(&a, &b)| a * b).sum::<f32>()
    }));
    Tensor::from_vec(out, &[m])
}

fn dims2(t: &Tensor, what: &str) -> (usize, usize) {
    assert_eq!(t.shape().rank(), 2, "{what} operand must be rank 2, got {:?}", t.dims());
    (t.dims()[0], t.dims()[1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a.at(&[i, p]) * b.at(&[p, j]);
                }
                *out.at_mut(&[i, j]) = acc;
            }
        }
        out
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.dims(), b.dims());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() <= tol * (1.0 + y.abs()), "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_small_exact() {
        let a = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]);
        let b = Tensor::from_vec(vec![7., 8., 9., 10., 11., 12.], &[3, 2]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_matches_naive_large() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let a = Tensor::randn(&[67, 31], 1.0, &mut rng);
        let b = Tensor::randn(&[31, 53], 1.0, &mut rng);
        assert_close(&matmul(&a, &b), &naive(&a, &b), 1e-4);
    }

    #[test]
    fn matmul_multi_row_block_matches_naive() {
        // More than one MC row block.
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let a = Tensor::randn(&[128, 64], 1.0, &mut rng);
        let b = Tensor::randn(&[64, 96], 1.0, &mut rng);
        assert_close(&matmul(&a, &b), &naive(&a, &b), 1e-4);
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let a = Tensor::randn(&[19, 11], 1.0, &mut rng);
        let b = Tensor::randn(&[19, 7], 1.0, &mut rng);
        assert_close(&matmul_tn(&a, &b), &matmul(&a.transpose2(), &b), 1e-4);
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let a = Tensor::randn(&[13, 17], 1.0, &mut rng);
        let b = Tensor::randn(&[9, 17], 1.0, &mut rng);
        assert_close(&matmul_nt(&a, &b), &matmul(&a, &b.transpose2()), 1e-4);
    }

    #[test]
    fn matvec_matches_matmul() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let a = Tensor::randn(&[8, 5], 1.0, &mut rng);
        let x = Tensor::randn(&[5], 1.0, &mut rng);
        let expect = matmul(&a, &x.clone().reshape(&[5, 1]));
        let got = matvec(&a, &x);
        for i in 0..8 {
            assert!((got.data()[i] - expect.data()[i]).abs() < 1e-5);
        }
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let a = Tensor::randn(&[5, 5], 1.0, &mut rng);
        let mut eye = Tensor::zeros(&[5, 5]);
        for i in 0..5 {
            *eye.at_mut(&[i, i]) = 1.0;
        }
        assert_close(&matmul(&a, &eye), &a, 1e-6);
        assert_close(&matmul(&eye, &a), &a, 1e-6);
    }

    #[test]
    fn nan_propagates_through_matmul() {
        // The old kernel's `if aip == 0.0 { continue }` shortcut dropped
        // 0·∞ and 0·NaN contributions; the blocked kernel must not.
        let a = Tensor::from_vec(vec![0.0, 1.0], &[1, 2]);
        let b = Tensor::from_vec(vec![f32::INFINITY, 3.0], &[2, 1]);
        assert!(matmul(&a, &b).data()[0].is_nan());
        let at = Tensor::from_vec(vec![0.0, 1.0], &[2, 1]);
        assert!(matmul_tn(&at, &b).data()[0].is_nan());
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn mismatched_shapes_panic() {
        matmul(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[4, 2]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Blocked GEMM equals the naive triple loop on shapes that are
        /// deliberately not multiples of MR/NR/MC/KC.
        #[test]
        fn blocked_matches_naive_random_shapes(
            m in 1usize..70,
            k in 1usize..70,
            n in 1usize..70,
            seed in 0u64..1 << 32,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let a = Tensor::randn(&[m, k], 1.0, &mut rng);
            let b = Tensor::randn(&[k, n], 1.0, &mut rng);
            let want = naive(&a, &b);
            let got = matmul(&a, &b);
            for (x, y) in got.data().iter().zip(want.data()) {
                prop_assert!(
                    (x - y).abs() <= 1e-4 * (1.0 + y.abs()),
                    "matmul {m}x{k}x{n}: {x} vs {y}"
                );
            }
            let gtn = matmul_tn(&a.transpose2(), &b);
            let gnt = matmul_nt(&a, &b.transpose2());
            for (x, y) in gtn.data().iter().zip(got.data()) {
                prop_assert!((x - y).abs() <= 1e-4 * (1.0 + y.abs()), "tn {m}x{k}x{n}");
            }
            for (x, y) in gnt.data().iter().zip(got.data()) {
                prop_assert!((x - y).abs() <= 1e-4 * (1.0 + y.abs()), "nt {m}x{k}x{n}");
            }
        }
    }
}
