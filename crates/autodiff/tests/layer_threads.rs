//! A layer node's thread count is invisible in its bits: `Graph::linear` and
//! `Graph::linear_seeded` on 1, 2 and 3 workers give the same value and the
//! same `dx`, `dw` and `db`, bit for bit. The shapes divide none of the
//! node's turn sizes — the GEMM's `NC` column slab, the forward's block of
//! points, the backward's feature rows and input-gradient slabs — so every
//! kind of turn has a short last one, and there are more turns than workers.
//! CI runs this on the portable kernel tier too (`MFN_PORTABLE_KERNELS=1`).

use mfn_autodiff::{Activation, Graph, JET_LANES};
use mfn_tensor::Tensor;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Input features, output features (not a multiple of 8) and points per
/// lane (six lanes: 6,006 GEMM columns, not a multiple of 512 or 384).
const K: usize = 21;
const N: usize = 13;
const POINTS: usize = 1001;

/// One layer of each kind the tape records: `(activation, lanes, seeded)`.
const LAYERS: [(Activation, usize, bool); 7] = [
    (Activation::Softplus, JET_LANES, false),
    (Activation::Tanh, JET_LANES, false),
    (Activation::Linear, JET_LANES, false),
    (Activation::Softplus, JET_LANES, true),
    (Activation::Linear, JET_LANES, true),
    (Activation::Softplus, 1, false),
    (Activation::Relu, 1, false),
];

fn randn(dims: &[usize], seed: u64) -> Tensor {
    Tensor::randn(dims, 0.7, &mut ChaCha8Rng::seed_from_u64(seed))
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// The layer's value and `[dx, dw, db]` under a fixed output adjoint, on a
/// tape of `workers` threads.
fn layer(workers: usize, (act, lanes, seeded): (Activation, usize, bool)) -> [Vec<u32>; 4] {
    let in_lanes = if seeded { 1 } else { lanes };
    let mut g = Graph::new().with_workers(workers);
    let x = g.leaf_with_grad(randn(&[K, in_lanes * POINTS], 1));
    let w = g.leaf_with_grad(randn(&[N, K], 2));
    let b = g.leaf_with_grad(randn(&[N], 3));
    let y = if seeded {
        g.linear_seeded(x, w, b, act, [0.5, -2.0, 1.5])
    } else {
        g.linear(x, w, b, act, lanes)
    };
    let value = bits(g.value(y));
    g.backward_with(y, randn(&[N, lanes * POINTS], 4));
    [value, bits(g.grad(x)), bits(g.grad(w)), bits(g.grad(b))]
}

#[test]
fn worker_count_is_invisible_in_a_layer_nodes_bits() {
    for kind in LAYERS {
        let one = layer(1, kind);
        for workers in [2, 3] {
            let got = layer(workers, kind);
            for (what, (a, b)) in ["value", "dx", "dw", "db"].iter().zip(one.iter().zip(&got)) {
                assert!(a == b, "{kind:?} on {workers} workers: {what} differs from one worker's");
            }
        }
    }
}
