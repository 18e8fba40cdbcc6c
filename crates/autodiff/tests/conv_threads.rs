//! A conv node's thread count is invisible in its bits: `Graph::conv3d` on
//! 1, 2 and 3 workers gives the same value, `dx` and `dw`, bit for bit, and
//! they are the one-thread kernels' (`conv3d_auto`, `conv3d_grad_input`,
//! `conv3d_grad_weight`). The forward and `dx` take turns at batch items;
//! `dw` at its (item, `KC`-block) terms, which the caller adds in order — so
//! the shapes cover 1³ and 3³ kernels, batch 1, 3 and 5 (fewer items than
//! workers, and more), and volumes of one `KC` block and of two. CI runs
//! this on the portable kernel tier too (`MFN_PORTABLE_KERNELS=1`).

use mfn_autodiff::Graph;
use mfn_tensor::{conv3d_auto, conv3d_grad_input, conv3d_grad_weight, Conv3dDims, Tensor};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn randn(dims: &[usize], seed: u64) -> Tensor {
    Tensor::randn(dims, 0.7, &mut ChaCha8Rng::seed_from_u64(seed))
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// The node's value, `dx` and `dw` under a fixed output adjoint, on a tape
/// of `workers` threads.
fn conv(workers: usize, x: &Tensor, w: &Tensor, adjoint: &Tensor) -> [Vec<u32>; 3] {
    let mut g = Graph::new().with_workers(workers);
    let (xv, wv) = (g.leaf_with_grad(x.clone()), g.leaf_with_grad(w.clone()));
    let y = g.conv3d(xv, wv);
    let value = bits(g.value(y));
    g.backward_with(y, adjoint.clone());
    [value, bits(g.grad(xv)), bits(g.grad(wv))]
}

#[test]
fn conv_node_worker_count_is_invisible_in_its_bits() {
    // (kernel, cin, cout, spatial): 30 voxels, and 330 (two `KC` blocks).
    let shapes = [
        ([1, 1, 1], 5, 7, [2, 3, 5]),
        ([3, 3, 3], 5, 7, [2, 3, 5]),
        ([1, 1, 1], 6, 9, [3, 10, 11]),
        ([3, 3, 3], 4, 6, [3, 10, 11]),
    ];
    for (seed, (kernel, cin, cout, [d, h, wd])) in (1..).zip(shapes) {
        for n in [1, 3, 5] {
            let x = randn(&[n, cin, d, h, wd], 3 * seed);
            let w = randn(&[cout, cin, kernel[0], kernel[1], kernel[2]], 3 * seed + 1);
            let adjoint = randn(&[n, cout, d, h, wd], 3 * seed + 2);
            let dims = Conv3dDims::infer(&x, &w);
            let kernels = [
                bits(&conv3d_auto(&x, &w)),
                bits(&conv3d_grad_input(adjoint.data(), w.data(), dims)),
                bits(&conv3d_grad_weight(x.data(), adjoint.data(), dims, None)),
            ];
            for workers in [1, 2, 3] {
                let got = conv(workers, &x, &w, &adjoint);
                for ((what, got), want) in ["value", "dx", "dw"].iter().zip(&got).zip(&kernels) {
                    assert!(
                        got == want,
                        "{what} of a {kernel:?} conv {cin}->{cout} over {n} x {:?} differs on \
                         {workers} workers",
                        [d, h, wd]
                    );
                }
            }
        }
    }
}
