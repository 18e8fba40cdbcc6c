//! Numerical gradient checks for every differentiable op on the tape.
//!
//! Each check builds a scalar loss from the op under test, computes reverse-
//! mode gradients, and compares them against central finite differences of
//! the re-executed forward pass.

use mfn_autodiff::{Activation, Graph, Mlp, ParamStore, Var, JET_LANES};
use mfn_tensor::Tensor;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Central-difference gradient check of `f` at `x0`.
///
/// `f` maps (graph, leaf var) to a scalar loss var; it is re-invoked on
/// perturbed copies of `x0`. Tolerance is relative with an absolute floor.
fn gradcheck(x0: &Tensor, tol: f32, f: impl Fn(&mut Graph, Var) -> Var) {
    let mut g = Graph::new();
    let x = g.leaf_with_grad(x0.clone());
    let loss = f(&mut g, x);
    g.backward(loss);
    let analytic = g.grad(x).clone();

    let eps = 1e-2f32;
    let eval = |t: &Tensor| -> f32 {
        let mut g = Graph::new();
        let x = g.leaf_with_grad(t.clone());
        let loss = f(&mut g, x);
        g.value(loss).item()
    };
    for i in 0..x0.numel() {
        let mut xp = x0.clone();
        xp.data_mut()[i] += eps;
        let mut xm = x0.clone();
        xm.data_mut()[i] -= eps;
        let fd = (eval(&xp) - eval(&xm)) / (2.0 * eps);
        let a = analytic.data()[i];
        assert!((a - fd).abs() <= tol * (1.0 + fd.abs()), "element {i}: analytic {a} vs fd {fd}");
    }
}

fn randn(dims: &[usize], seed: u64) -> Tensor {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Tensor::randn(dims, 0.7, &mut rng)
}

#[test]
fn add_sub_mul_chain() {
    let c = randn(&[3, 4], 1);
    gradcheck(&randn(&[3, 4], 0), 1e-2, |g, x| {
        let cv = g.constant(c.clone());
        let a = g.add(x, cv);
        let b = g.sub(a, x);
        let m = g.mul(a, b);
        g.sum(m)
    });
}

#[test]
fn mul_with_self() {
    gradcheck(&randn(&[5], 2), 1e-2, |g, x| {
        let sq = g.mul(x, x);
        let cu = g.mul(sq, x);
        g.mean(cu)
    });
}

#[test]
fn scale_neg_addscalar() {
    gradcheck(&randn(&[4], 3), 1e-2, |g, x| {
        let a = g.scale(x, -2.5);
        let b = g.neg(a);
        let c = g.add_scalar(b, 1.0);
        let m = g.mul(c, c);
        g.sum(m)
    });
}

#[test]
fn matmul_both_sides() {
    let b = randn(&[4, 3], 11);
    gradcheck(&randn(&[2, 4], 10), 1e-2, |g, x| {
        let bv = g.constant(b.clone());
        let y = g.matmul(x, bv);
        let sq = g.mul(y, y);
        g.sum(sq)
    });
    let a = randn(&[2, 4], 12);
    gradcheck(&randn(&[4, 3], 13), 1e-2, |g, x| {
        let av = g.constant(a.clone());
        let y = g.matmul(av, x);
        let sq = g.mul(y, y);
        g.sum(sq)
    });
}

#[test]
fn linear_all_three_operands() {
    // The fused layer node act(x @ w^T + b), differentiated with respect to
    // each operand in turn with the other two constant.
    let (x0, w0, b0) = (randn(&[3, 4], 20), randn(&[5, 4], 21), randn(&[5], 22));
    for act in [Activation::Softplus, Activation::Tanh, Activation::Linear] {
        gradcheck(&x0, 1e-2, |g, x| {
            let (w, b) = (g.constant(w0.clone()), g.constant(b0.clone()));
            let y = g.linear(x, w, b, act, 1);
            let sq = g.mul(y, y);
            g.sum(sq)
        });
        gradcheck(&w0, 1e-2, |g, w| {
            let (x, b) = (g.constant(x0.clone()), g.constant(b0.clone()));
            let y = g.linear(x, w, b, act, 1);
            let sq = g.mul(y, y);
            g.sum(sq)
        });
        gradcheck(&b0, 1e-2, |g, b| {
            let (x, w) = (g.constant(x0.clone()), g.constant(w0.clone()));
            let y = g.linear(x, w, b, act, 1);
            let sq = g.mul(y, y);
            g.sum(sq)
        });
    }
    // ReLU: a bias that keeps every pre-activation a finite-difference span
    // away from the kink.
    let b_relu = Tensor::from_vec(vec![4.0, -4.0, 4.0, -4.0, 4.0], &[5]);
    gradcheck(&x0, 1e-2, |g, x| {
        let (w, b) = (g.constant(w0.clone()), g.constant(b_relu.clone()));
        let y = g.linear(x, w, b, Activation::Relu, 1);
        let sq = g.mul(y, y);
        g.sum(sq)
    });
}

#[test]
fn linear_six_lanes_all_three_operands() {
    // The same node on a value with its five derivative lanes: every lane of
    // the output enters the loss, so the reverse pass of the second-order
    // chain rule (σ‴ included) is what is checked.
    let (x0, w0, b0) = (randn(&[JET_LANES * 2, 4], 23), randn(&[5, 4], 24), randn(&[5], 25));
    let mix = randn(&[JET_LANES * 2, 5], 26);
    // ReLU: pre-activations a finite-difference span away from the kink.
    let b_relu = Tensor::from_vec(vec![6.0, -6.0, 6.0, -6.0, 6.0], &[5]);
    for (act, b0) in [
        (Activation::Softplus, &b0),
        (Activation::Tanh, &b0),
        (Activation::Linear, &b0),
        (Activation::Relu, &b_relu),
    ] {
        let loss = |g: &mut Graph, x: Var, w: Var, b: Var| {
            let y = g.linear(x, w, b, act, JET_LANES);
            let m = g.constant(mix.clone());
            let weighted = g.mul(y, m);
            let sq = g.mul(weighted, y);
            g.sum(sq)
        };
        gradcheck(&x0, 2e-2, |g, x| {
            let (w, b) = (g.constant(w0.clone()), g.constant(b0.clone()));
            loss(g, x, w, b)
        });
        gradcheck(&w0, 2e-2, |g, w| {
            let (x, b) = (g.constant(x0.clone()), g.constant(b0.clone()));
            loss(g, x, w, b)
        });
        gradcheck(b0, 2e-2, |g, b| {
            let (x, w) = (g.constant(x0.clone()), g.constant(w0.clone()));
            loss(g, x, w, b)
        });
    }
}

#[test]
fn six_lane_layer_differentiates_the_one_lane_layer() {
    // Move the input along x(t, z, x) = x0 + a·t + b·z + c·x + e·z²/2 + f·x²/2:
    // the six-lane node fed [x0, a, b, c, e, f] must return the layer's
    // value, its three first derivatives and its two second derivatives at
    // the origin, which central differences of the 1-lane node measure.
    let lanes = randn(&[JET_LANES, 4], 27);
    let (w0, b0) = (randn(&[3, 4], 28), randn(&[3], 29));
    let row = |l: usize| &lanes.data()[l * 4..(l + 1) * 4];
    for act in [Activation::Softplus, Activation::Tanh] {
        let at = |t: f32, z: f32, x: f32| -> Vec<f32> {
            let input: Vec<f32> = (0..4)
                .map(|i| {
                    row(0)[i]
                        + row(1)[i] * t
                        + row(2)[i] * z
                        + row(3)[i] * x
                        + 0.5 * (row(4)[i] * z * z + row(5)[i] * x * x)
                })
                .collect();
            let mut g = Graph::new();
            let xv = g.constant(Tensor::from_vec(input, &[1, 4]));
            let (w, b) = (g.constant(w0.clone()), g.constant(b0.clone()));
            let y = g.linear(xv, w, b, act, 1);
            g.value(y).data().to_vec()
        };
        let mut g = Graph::new();
        let xv = g.constant(lanes.clone());
        let (w, b) = (g.constant(w0.clone()), g.constant(b0.clone()));
        let y = g.linear(xv, w, b, act, JET_LANES);
        let got = g.value(y).data().to_vec();
        let h = 2e-2f32;
        let f0 = at(0.0, 0.0, 0.0);
        let step = |axis: usize, s: f32| {
            let mut p = [0.0f32; 3];
            p[axis] = s;
            at(p[0], p[1], p[2])
        };
        for o in 0..3 {
            assert_eq!(got[o].to_bits(), f0[o].to_bits(), "{act:?} value lane");
            for axis in 0..3 {
                let (fp, fm) = (step(axis, h)[o], step(axis, -h)[o]);
                let d = (fp - fm) / (2.0 * h);
                assert!((got[(1 + axis) * 3 + o] - d).abs() < 5e-3, "{act:?} d/d{axis} out {o}");
                if axis > 0 {
                    let dd = (fp - 2.0 * f0[o] + fm) / (h * h);
                    let lane = 3 + axis;
                    assert!((got[lane * 3 + o] - dd).abs() < 5e-2, "{act:?} d²/d{axis}² out {o}");
                }
            }
        }
    }
}

#[test]
fn bias_channel_grad() {
    let x5 = randn(&[2, 3, 2, 2, 2], 32);
    gradcheck(&randn(&[3], 33), 1e-2, |g, b| {
        let xv = g.constant(x5.clone());
        let y = g.bias_channel(xv, b);
        let sq = g.mul(y, y);
        g.sum(sq)
    });
}

/// Deterministic values in roughly [-2, 2], a few of them large enough to
/// reach the softplus saturation regimes once multiplied up by the layer.
fn spread(n: usize, seed: u32) -> Vec<f32> {
    let mut s = seed;
    (0..n)
        .map(|i| {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            let unit = (s >> 8) as f32 / (1 << 24) as f32 - 0.5;
            if i % 37 == 0 {
                unit * 40.0
            } else {
                unit * 4.0
            }
        })
        .collect()
}

/// One layer on a fresh tape, fused (`Graph::linear`) or composed from the
/// primitive ops (`matmul` against the transposed weight, `bias_channel` —
/// on a rank-2 node the channel axis is the column — and the activation's
/// own node), reduced to a scalar through fixed per-element weights so every
/// output element gets a different adjoint. Returns the layer value and the
/// gradients of `x`, `w` (in `[out, in]` layout) and `b`, `None` where
/// `needs[k]` is false.
fn layer_on_tape(
    fused: bool,
    act: Activation,
    (x0, w0, b0, mix): (&Tensor, &Tensor, &Tensor, &Tensor),
    needs: [bool; 3],
) -> (Tensor, [Option<Tensor>; 3]) {
    let mut g = Graph::new();
    let leaf = |g: &mut Graph, t: Tensor, needs_grad: bool| {
        if needs_grad {
            g.leaf_with_grad(t)
        } else {
            g.constant(t)
        }
    };
    let x = leaf(&mut g, x0.clone(), needs[0]);
    let b = leaf(&mut g, b0.clone(), needs[2]);
    let (w, y) = if fused {
        let w = leaf(&mut g, w0.clone(), needs[1]);
        (w, g.linear(x, w, b, act, 1))
    } else {
        let wt = leaf(&mut g, w0.transpose2(), needs[1]);
        let u = g.matmul(x, wt);
        let z = g.bias_channel(u, b);
        let y = match act {
            Activation::Relu => g.relu(z),
            Activation::Softplus => g.softplus(z),
            Activation::Tanh => g.tanh(z),
            Activation::Linear => z,
        };
        (wt, y)
    };
    let m = g.constant(mix.clone());
    let weighted = g.mul(y, m);
    let loss = g.sum(weighted);
    g.backward(loss);
    let grad = |v, needed| -> Option<Tensor> {
        assert_eq!(g.try_grad(v).is_some(), needed, "an operand has a gradient iff it asked");
        g.try_grad(v).cloned()
    };
    let dw = grad(w, needs[1]).map(|t| if fused { t } else { t.transpose2() });
    (g.value(y).clone(), [grad(x, needs[0]), dw, grad(b, needs[2])])
}

#[test]
fn fused_linear_is_the_primitive_composition_bit_for_bit() {
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    // Row counts around the GEMM row tile and block; widths that are not
    // multiples of any vector width.
    for (m, k, n) in [(1usize, 5usize, 3usize), (7, 35, 13), (64, 19, 37), (513, 11, 21)] {
        let x0 = Tensor::from_vec(spread(m * k, 1), &[m, k]);
        let w0 = Tensor::from_vec(spread(n * k, 2), &[n, k]);
        let b0 = Tensor::from_vec(spread(n, 3), &[n]);
        let mix = Tensor::from_vec(spread(m * n, 4), &[m, n]);
        let inputs = (&x0, &w0, &b0, &mix);
        for act in [Activation::Softplus, Activation::Relu, Activation::Tanh, Activation::Linear] {
            let all = [true; 3];
            let (want_y, want) = layer_on_tape(false, act, inputs, all);
            let (got_y, got) = layer_on_tape(true, act, inputs, all);
            let label = format!("{act:?} [{m}x{k}] -> {n}");
            assert_eq!(bits(&got_y), bits(&want_y), "{label}: value");
            for (name, (g, w)) in ["dx", "dw", "db"].iter().zip(got.iter().zip(&want)) {
                let (g, w) = (g.as_ref().expect("asked"), w.as_ref().expect("asked"));
                assert_eq!(g.dims(), w.dims(), "{label}: {name} shape");
                assert_eq!(bits(g), bits(w), "{label}: {name}");
            }
            // One operand at a time: the same bits as with all three, and
            // nothing on the operands that did not ask.
            for only in 0..3 {
                let mut needs = [false; 3];
                needs[only] = true;
                let (y, grads) = layer_on_tape(true, act, inputs, needs);
                assert_eq!(bits(&y), bits(&want_y), "{label}: value, operand {only} only");
                let (g, w) = (grads[only].as_ref().expect("asked"), want[only].as_ref().unwrap());
                assert_eq!(bits(g), bits(w), "{label}: operand {only} alone");
            }
        }
    }
}

#[test]
fn activations() {
    // Keep inputs away from ReLU/abs kinks so FD is valid.
    let mut x0 = randn(&[8], 40);
    for v in x0.data_mut() {
        if v.abs() < 0.2 {
            *v += 0.4;
        }
    }
    gradcheck(&x0, 1e-2, |g, x| {
        let y = g.relu(x);
        g.sum(y)
    });
    gradcheck(&x0, 1e-2, |g, x| {
        let y = g.softplus(x);
        g.sum(y)
    });
    gradcheck(&x0, 1e-2, |g, x| {
        let y = g.tanh(x);
        g.sum(y)
    });
    gradcheck(&x0, 1e-2, |g, x| {
        let y = g.abs(x);
        g.sum(y)
    });
}

#[test]
fn concat_and_slice() {
    let other = randn(&[3, 2], 51);
    gradcheck(&randn(&[3, 4], 50), 1e-2, |g, x| {
        let o = g.constant(other.clone());
        let c = g.concat(&[x, o], 1);
        let s = g.narrow(c, 1, 1, 3);
        let sq = g.mul(s, s);
        g.sum(sq)
    });
}

#[test]
fn reshape_flows_through() {
    gradcheck(&randn(&[2, 6], 60), 1e-2, |g, x| {
        let r = g.reshape(x, &[3, 4]);
        let sq = g.mul(r, r);
        g.mean(sq)
    });
}

#[test]
fn conv3d_input_and_weight() {
    let w = randn(&[2, 2, 3, 3, 3], 71);
    gradcheck(&randn(&[1, 2, 3, 3, 3], 70), 2e-2, |g, x| {
        let wv = g.constant(w.clone());
        let y = g.conv3d(x, wv);
        let sq = g.mul(y, y);
        g.sum(sq)
    });
    let x = randn(&[1, 2, 3, 3, 3], 72);
    gradcheck(&randn(&[2, 2, 1, 1, 1], 73), 2e-2, |g, w| {
        let xv = g.constant(x.clone());
        let y = g.conv3d(xv, w);
        let sq = g.mul(y, y);
        g.sum(sq)
    });
}

#[test]
fn pooling_and_upsampling() {
    // Perturb away from pooling ties. The spacing must exceed the
    // finite-difference span (2·eps = 2e-2) so no ±eps evaluation flips
    // which element wins a window — 5e-2 keeps the check seed-independent.
    let mut x0 = randn(&[1, 1, 2, 4, 4], 80);
    for (i, v) in x0.data_mut().iter_mut().enumerate() {
        *v += i as f32 * 5e-2;
    }
    gradcheck(&x0, 2e-2, |g, x| {
        let y = g.maxpool3d(x, [2, 2, 2]);
        let sq = g.mul(y, y);
        g.sum(sq)
    });
    gradcheck(&randn(&[1, 2, 2, 2, 2], 81), 1e-2, |g, x| {
        let y = g.upsample3d(x, [2, 1, 2]);
        let sq = g.mul(y, y);
        g.sum(sq)
    });
}

#[test]
fn batch_norm_all_three_inputs() {
    let gamma = Tensor::from_vec(vec![1.3, 0.7], &[2]);
    let beta = Tensor::from_vec(vec![0.1, -0.2], &[2]);
    let x0 = randn(&[3, 2, 2, 2, 2], 90);
    gradcheck(&x0, 5e-2, |g, x| {
        let ga = g.constant(gamma.clone());
        let be = g.constant(beta.clone());
        let y = g.batch_norm(x, ga, be, 1e-5, None);
        let t = g.constant(Tensor::ones(&[3, 2, 2, 2, 2]));
        let d = g.sub(y, t);
        let sq = g.mul(d, d);
        g.sum(sq)
    });
    let xc = randn(&[3, 2, 2, 2, 2], 91);
    gradcheck(&randn(&[2], 92), 2e-2, |g, ga| {
        let x = g.constant(xc.clone());
        let be = g.constant(beta.clone());
        let y = g.batch_norm(x, ga, be, 1e-5, None);
        let sq = g.mul(y, y);
        g.sum(sq)
    });
    gradcheck(&randn(&[2], 93), 2e-2, |g, be| {
        let x = g.constant(xc.clone());
        let ga = g.constant(gamma.clone());
        let y = g.batch_norm(x, ga, be, 1e-5, None);
        let sq = g.mul(y, y);
        g.sum(sq)
    });
}

#[test]
fn channel_affine_grad() {
    gradcheck(&randn(&[2, 3, 2, 2, 2], 100), 1e-2, |g, x| {
        let y = g.channel_affine(x, vec![2.0, -1.0, 0.5], vec![0.0, 1.0, -1.0]);
        let sq = g.mul(y, y);
        g.sum(sq)
    });
}

#[test]
fn gather_and_blend() {
    // grid [1, 2, 2, 2, 2], gather 4 vertices twice, blend groups of 2.
    let index = vec![0u32, 3, 5, 6];
    let weights = vec![0.25f32, 0.75, 0.6, 0.4];
    gradcheck(&randn(&[1, 2, 2, 2, 2], 110), 1e-2, |g, grid| {
        let rows = g.gather_vertices(grid, index.clone());
        let blended = g.vertex_blend(rows, weights.clone(), 2);
        let sq = g.mul(blended, blended);
        g.sum(sq)
    });
}

#[test]
fn narrow_rows() {
    gradcheck(&randn(&[5, 3], 114), 1e-2, |g, x| {
        let mid = g.narrow(x, 0, 1, 3);
        let sq = g.mul(mid, mid);
        g.sum(sq)
    });
}

#[test]
fn l1_and_mse_losses() {
    let target = randn(&[4, 2], 121);
    let mut x0 = randn(&[4, 2], 120);
    // keep away from |.| kink
    for (v, t) in x0.data_mut().iter_mut().zip(target.data()) {
        if (*v - t).abs() < 0.2 {
            *v += 0.5;
        }
    }
    gradcheck(&x0, 1e-2, |g, x| {
        let t = g.constant(target.clone());
        g.l1_loss(x, t)
    });
    gradcheck(&x0, 1e-2, |g, x| {
        let t = g.constant(target.clone());
        g.mse_loss(x, t)
    });
}

#[test]
fn full_mlp_param_gradients() {
    // End-to-end: gradients of an MLP loss w.r.t. every registered parameter.
    let mut store = ParamStore::new();
    let mut rng = ChaCha8Rng::seed_from_u64(130);
    let mlp = Mlp::new(&mut store, "m", &[3, 8, 2], Activation::Softplus, &mut rng);
    let x0 = Tensor::randn(&[5, 3], 1.0, &mut rng);
    let target = Tensor::randn(&[5, 2], 1.0, &mut rng);

    let run = |store: &ParamStore| -> f32 {
        let mut g = Graph::new();
        let x = g.constant(x0.clone());
        let y = mlp.forward(&mut g, store, x, None);
        let t = g.constant(target.clone());
        let loss = g.mse_loss(y, t);
        g.value(loss).item()
    };

    let mut g = Graph::new();
    let x = g.constant(x0.clone());
    let y = mlp.forward(&mut g, &store, x, None);
    let t = g.constant(target.clone());
    let loss = g.mse_loss(y, t);
    g.backward(loss);
    let grads = g.param_grads(&store);

    let eps = 1e-2f32;
    for (pid, _, _) in store.clone().iter() {
        let numel = store.get(pid).numel();
        for i in (0..numel).step_by(3) {
            let mut sp = store.clone();
            sp.get_mut(pid).data_mut()[i] += eps;
            let mut sm = store.clone();
            sm.get_mut(pid).data_mut()[i] -= eps;
            let fd = (run(&sp) - run(&sm)) / (2.0 * eps);
            let a = grads[pid.index()].data()[i];
            assert!(
                (a - fd).abs() < 2e-2 * (1.0 + fd.abs()),
                "param {} [{i}]: {a} vs {fd}",
                store.name(pid)
            );
        }
    }
}

#[test]
fn grad_accumulates_on_reused_nodes() {
    // x used twice: d/dx (x*x + x) = 2x + 1.
    let x0 = Tensor::from_vec(vec![3.0], &[1]);
    let mut g = Graph::new();
    let x = g.leaf_with_grad(x0);
    let sq = g.mul(x, x);
    let s = g.add(sq, x);
    let loss = g.sum(s);
    g.backward(loss);
    assert!((g.grad(x).data()[0] - 7.0).abs() < 1e-5);
}

#[test]
fn no_grad_for_constants() {
    let mut g = Graph::new();
    let x = g.constant(Tensor::ones(&[2]));
    let y = g.scale(x, 2.0);
    let loss = g.sum(y);
    g.backward(loss);
    assert!(g.try_grad(x).is_none());
}

#[test]
fn backward_leaves_gradients_on_leaves_only() {
    // The sweep moves each interior adjoint on as it goes: afterwards the
    // leaves that asked hold theirs, interior nodes and constants none, and
    // every value is still readable.
    let mut g = Graph::new();
    let x = g.leaf_with_grad(randn(&[4, 3], 180));
    let w = g.leaf_with_grad(randn(&[2, 3], 181));
    let b = g.constant(randn(&[2], 182));
    let h = g.linear(x, w, b, Activation::Softplus, 1);
    let t = g.tanh(h);
    let sq = g.mul(t, t);
    let loss = g.sum(sq);
    g.backward(loss);
    for interior in [h, t, sq, loss] {
        assert!(g.try_grad(interior).is_none(), "interior node kept its adjoint");
    }
    assert!(g.try_grad(b).is_none());
    assert_eq!(g.grad(x).dims(), &[4, 3]);
    assert_eq!(g.grad(w).dims(), &[2, 3]);
    assert_eq!(g.value(h).dims(), &[4, 2]);
    assert!(g.value(loss).item() > 0.0);
}

#[test]
#[should_panic(expected = "single-use")]
fn a_second_backward_on_the_same_tape_is_refused() {
    let mut g = Graph::new();
    let x = g.leaf_with_grad(Tensor::ones(&[2]));
    let loss = g.sum(x);
    g.backward(loss);
    g.backward(loss);
}

#[test]
fn frozen_param_tape_records_weights_as_constants() {
    // Same layer, same input gradient bits; no weight gradients, and none
    // exported.
    let mut store = ParamStore::new();
    let mut rng = ChaCha8Rng::seed_from_u64(190);
    let mlp = Mlp::new(&mut store, "m", &[3, 6, 2], Activation::Softplus, &mut rng);
    let x0 = Tensor::randn(&[5, 3], 1.0, &mut rng);
    let run = |mut g: Graph| {
        let x = g.leaf_with_grad(x0.clone());
        let w = g.param(&store, mlp.layers[0].weight);
        let b = g.param(&store, mlp.layers[0].bias);
        let h = g.linear(x, w, b, Activation::Softplus, 1);
        let y = mlp.forward(&mut g, &store, x, None);
        let sq = g.mul(y, y);
        let s1 = g.sum(sq);
        let s2 = g.sum(h);
        let loss = g.add(s1, s2);
        g.backward(loss);
        let dx: Vec<u32> = g.grad(x).data().iter().map(|v| v.to_bits()).collect();
        let weight_grads = [g.try_grad(w).is_some(), g.try_grad(b).is_some()];
        let exported = g.param_grads(&store).iter().any(|t| t.max_abs() > 0.0);
        (dx, weight_grads, exported)
    };
    let (dx, weight_grads, exported) = run(Graph::new());
    assert_eq!((weight_grads, exported), ([true, true], true));
    let (dx_frozen, weight_grads, exported) = run(Graph::with_frozen_params());
    assert_eq!((weight_grads, exported), ([false, false], false));
    assert_eq!(dx_frozen, dx);
}

/// Trilinear weights of a unit-cell point `(u, v, w)` over the 8 vertices in
/// `(d, h, w)` bit order — the decoder's Eqn. 6 blending, reproduced here so
/// the gradcheck exercises realistic (convex, partly zero) weight vectors.
fn trilinear_weights(u: f32, v: f32, w: f32) -> Vec<f32> {
    let mut ws = Vec::with_capacity(8);
    for d in 0..2 {
        for h in 0..2 {
            for x in 0..2 {
                let wd = if d == 1 { u } else { 1.0 - u };
                let wh = if h == 1 { v } else { 1.0 - v };
                let wx = if x == 1 { w } else { 1.0 - w };
                ws.push(wd * wh * wx);
            }
        }
    }
    ws
}

#[test]
fn conv3d_overlapping_windows_and_batch() {
    // The basic conv3d checks use a kernel that exactly covers the input, so
    // each input element feeds one output. Here the 1x3x3 kernel slides over
    // a [2, 2, 2, 4, 4] batch: input gradients accumulate across overlapping
    // windows and weight gradients sum over both batch entries.
    let w = randn(&[3, 2, 1, 3, 3], 140);
    gradcheck(&randn(&[2, 2, 2, 4, 4], 141), 2e-2, |g, x| {
        let wv = g.constant(w.clone());
        let y = g.conv3d(x, wv);
        let sq = g.mul(y, y);
        g.sum(sq)
    });
    let x = randn(&[2, 2, 2, 4, 4], 142);
    gradcheck(&randn(&[3, 2, 1, 3, 3], 143), 2e-2, |g, w| {
        let xv = g.constant(x.clone());
        let y = g.conv3d(xv, w);
        let sq = g.mul(y, y);
        g.sum(sq)
    });
}

#[test]
fn trilinear_decoder_path_batched_grid() {
    // The decoder path: gather 8 cell vertices per query from a batched
    // latent grid, trilinear-blend them, and push through a nonlinearity.
    // Query 1 reads batch entry 0, query 2 reads batch entry 1 with u = 0,
    // which zeroes half the weights and exercises the skip branch.
    let vol = 2 * 2 * 2;
    let mut index = Vec::new();
    for n in 0..2u32 {
        for v in 0..vol as u32 {
            index.push(n * vol as u32 + v);
        }
    }
    let mut weights = trilinear_weights(0.3, 0.6, 0.2);
    weights.extend(trilinear_weights(0.0, 0.45, 0.8));
    let target = randn(&[2, 3], 150);
    gradcheck(&randn(&[2, 3, 2, 2, 2], 151), 1e-2, |g, grid| {
        let rows = g.gather_vertices(grid, index.clone());
        let blended = g.vertex_blend(rows, weights.clone(), 8);
        let act = g.tanh(blended);
        let t = g.constant(target.clone());
        g.mse_loss(act, t)
    });
}

#[test]
fn shifted_queries_accumulate_through_shared_grid() {
    // Several decodes of the same latent grid at shifted query points,
    // combined with central-difference coefficients: gradients must
    // accumulate into the one grid leaf through all three gathers.
    let h = 0.05f32;
    let index: Vec<u32> = (0..8).collect();
    let center = trilinear_weights(0.5, 0.5, 0.5);
    let plus = trilinear_weights(0.5, 0.5, 0.5 + h);
    let minus = trilinear_weights(0.5, 0.5, 0.5 - h);
    let target = randn(&[1, 2], 160);
    gradcheck(&randn(&[1, 2, 2, 2, 2], 161), 2e-2, |g, grid| {
        let decode = |g: &mut Graph, grid: Var, w: &[f32]| {
            let rows = g.gather_vertices(grid, index.clone());
            let blended = g.vertex_blend(rows, w.to_vec(), 8);
            g.tanh(blended)
        };
        let fc = decode(g, grid, &center);
        let fp = decode(g, grid, &plus);
        let fm = decode(g, grid, &minus);
        // residual = f + df/dw (central difference), squared against target.
        let diff = g.sub(fp, fm);
        let deriv = g.scale(diff, 1.0 / (2.0 * h));
        let resid = g.add(fc, deriv);
        let t = g.constant(target.clone());
        g.mse_loss(resid, t)
    });
}

#[test]
fn batch_norm_with_captured_stats() {
    // The `stats_out` branch must leave both the forward value and the
    // gradient identical to the plain path, while capturing batch moments.
    let gamma = Tensor::from_vec(vec![0.9, 1.4], &[2]);
    let beta = Tensor::from_vec(vec![-0.3, 0.2], &[2]);
    let x0 = randn(&[3, 2, 2, 2, 2], 170);
    gradcheck(&x0, 5e-2, |g, x| {
        let ga = g.constant(gamma.clone());
        let be = g.constant(beta.clone());
        let mut stats = (Vec::new(), Vec::new());
        let y = g.batch_norm(x, ga, be, 1e-5, Some(&mut stats));
        let t = g.constant(Tensor::ones(&[3, 2, 2, 2, 2]));
        let d = g.sub(y, t);
        let sq = g.mul(d, d);
        g.sum(sq)
    });
    // Captured moments are the batch mean/variance per channel.
    let mut g = Graph::new();
    let x = g.leaf_with_grad(x0.clone());
    let ga = g.constant(gamma.clone());
    let be = g.constant(beta.clone());
    let mut stats = (Vec::new(), Vec::new());
    g.batch_norm(x, ga, be, 1e-5, Some(&mut stats));
    let inner = 8;
    for c in 0..2 {
        let vals: Vec<f32> = (0..3)
            .flat_map(|n| {
                let off = (n * 2 + c) * inner;
                x0.data()[off..off + inner].to_vec()
            })
            .collect();
        let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
        let var: f32 =
            vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
        assert!((stats.0[c] - mean).abs() < 1e-4, "mean[{c}]");
        assert!((stats.1[c] - var).abs() < 1e-4, "var[{c}]");
    }
}

// ---- non-finite taint checks (debug builds) ----

#[test]
fn non_finite_leaf_values_flow_without_tripping_taint() {
    // Feeding NaN/inf *in* is the caller's prerogative: the leaf is marked
    // tainted and every downstream op stays silent about inherited poison.
    let mut g = Graph::new();
    let x = g.constant(Tensor::from_vec(vec![f32::NAN, f32::INFINITY, -1.0, 2.0], &[4]));
    let y = g.relu(x);
    let z = g.add(y, x);
    let s = g.sum(z);
    // relu maps NaN -> 0, so y is finite; the add re-poisons from x.
    assert!(g.value(s).data()[0].is_nan() || g.value(s).data()[0].is_infinite());
}

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "produced non-finite values from finite inputs")]
fn op_creating_non_finite_from_finite_inputs_is_blamed() {
    let mut g = Graph::new();
    // 3e38 is finite; scaling by 10 overflows f32 — the taint check must
    // name `scale` as the producing op instead of letting inf flow on.
    let x = g.constant(Tensor::from_vec(vec![3.0e38], &[1]));
    let _ = g.scale(x, 10.0);
}
