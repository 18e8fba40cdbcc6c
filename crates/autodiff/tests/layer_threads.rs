//! A layer node's thread count is invisible in its bits: `Graph::linear` and
//! `Graph::linear_seeded` on 1, 2 and 3 workers give the same value and the
//! same `dx`, `dw` and `db`, bit for bit — for a layer of the tile's width
//! and for one narrower than it (the thin path, `mfn_tensor::thin`). The
//! shapes divide none of the node's turn sizes — the GEMM's `NC` column
//! slab, the forward's block of points, the backward's feature rows and
//! input-gradient slabs — so every kind of turn has a short last one, and
//! there are more turns than workers. The thin layer's value, `dx` and `db`
//! are also the packed driver's, bit for bit (its `dw` is
//! `conv3d_grad_weight`'s, whose arms `mfn-tensor` pins to one scalar
//! oracle). CI runs this on the portable kernel tier too
//! (`MFN_PORTABLE_KERNELS=1`).

use mfn_autodiff::{Activation, Graph, JET_LANES};
use mfn_tensor::{conv3d_grad_input, thin, Conv3dDims, PackedConv3d, Tensor};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Input features, output features (not a multiple of 8) and points per
/// lane (six lanes: 6,006 GEMM columns, not a multiple of 512 or 384).
const K: usize = 21;
const N: usize = 13;
const POINTS: usize = 1001;

/// Output features of a layer narrower than every tier's tile (`mr` 6, 8
/// or 12): the decoder's head.
const THIN: usize = 4;

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
/// tape of `workers` threads, with `n` outputs.
fn layer(
    workers: usize,
    n: usize,
    (act, lanes, seeded): (Activation, usize, bool),
) -> [Vec<u32>; 4] {
    let in_lanes = if seeded { 1 } else { lanes };
    let mut g = Graph::new().with_workers(workers);
    let x = g.leaf_with_grad(randn(&[K, in_lanes * POINTS], 1));
    let w = g.leaf_with_grad(randn(&[n, K], 2));
    let b = g.leaf_with_grad(randn(&[n], 3));
    let y = if seeded {
        g.linear_seeded(x, w, b, act, [0.5, -2.0, 1.5])
    } else {
        g.linear(x, w, b, act, lanes)
    };
    let value = bits(g.value(y));
    g.backward_with(y, randn(&[n, lanes * POINTS], 4));
    [value, bits(g.grad(x)), bits(g.grad(w)), bits(g.grad(b))]
}

#[test]
fn worker_count_is_invisible_in_a_layer_nodes_bits() {
    assert!(thin::is_thin(THIN) && !thin::is_thin(N));
    for n in [N, THIN] {
        for kind in LAYERS {
            let one = layer(1, n, kind);
            for workers in [2, 3] {
                let got = layer(workers, n, kind);
                for (what, (a, b)) in ["value", "dx", "dw", "db"].iter().zip(one.iter().zip(&got)) {
                    assert!(
                        a == b,
                        "{n} outputs, {kind:?} on {workers} workers: {what} differs from one worker's"
                    );
                }
            }
        }
    }
}

/// The thin layer is the layer the packed driver computes: its value, `dx`
/// and `db` are those of the GEMMs `PackedConv3d` runs (the forward and the
/// flipped weight's input gradient) around the same epilogue, bit for bit —
/// on one tape worker and on two.
#[test]
fn a_layer_narrower_than_the_tile_is_the_packed_drivers_layer() {
    for (act, lanes) in [(Activation::Linear, JET_LANES), (Activation::Softplus, JET_LANES)] {
        let cols = lanes * POINTS;
        let (x, w, b) = (randn(&[K, cols], 1), randn(&[THIN, K], 2), randn(&[THIN], 3));
        let adjoint = randn(&[THIN, cols], 4);
        let dims = Conv3dDims { n: 1, cin: K, cout: THIN, spatial: [1, 1, cols], kernel: [1; 3] };
        // The packed driver's layer.
        let mut pre = vec![0.0; THIN * cols];
        PackedConv3d::pack_linear(w.data(), THIN, K).forward_slices(
            x.data(),
            [1, 1, cols],
            &mut pre,
            None,
        );
        let mut value = pre.clone();
        act.bias_jet_features::<false>(&mut value, &mut [], b.data(), &[]);
        let mut dz = adjoint.data().to_vec();
        act.bias_jet_features::<true>(&mut dz, &mut pre, b.data(), &[]);
        let dx = conv3d_grad_input(&dz, w.data(), dims);
        let db: Vec<f32> = dz
            .chunks_exact(cols)
            .map(|row| row[..POINTS].iter().fold(0.0, |s, &v| s + v))
            .collect();
        let want = [value, dx.data().to_vec(), db];
        for workers in [1, 2] {
            let mut g = Graph::new().with_workers(workers);
            let (xv, wv, bv) = (
                g.leaf_with_grad(x.clone()),
                g.leaf_with_grad(w.clone()),
                g.leaf_with_grad(b.clone()),
            );
            let y = g.linear(xv, wv, bv, act, lanes);
            let value = bits(g.value(y));
            g.backward_with(y, adjoint.clone());
            let got = [value, bits(g.grad(xv)), bits(g.grad(bv))];
            for ((what, want), got) in ["value", "dx", "db"].iter().zip(&want).zip(&got) {
                let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
                assert!(&want == got, "{act:?} on {workers} workers: {what} differs");
            }
        }
    }
}
