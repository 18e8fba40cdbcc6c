//! Per-kernel differential checks: drive the optimized kernel and its f64
//! reference twin over the adversarial case set and enforce the budget.
//!
//! Accumulating kernels (GEMM, conv, blend, batch norm) are fed inputs
//! bounded so that no *intermediate* f32 sum can overflow — overflow order
//! is a property of the accumulation schedule, not a correctness claim the
//! kernels make. Element-wise kernels get the unbounded set plus explicit
//! `±inf`/NaN probes.

use crate::cases::{adversarial, adversarial_bounded, ConvShape, Lcg, CONV_SHAPES, GEMM_SHAPES};
use crate::compare::{Checker, Report, Tolerance};
use crate::reference as refk;
use mfn_autodiff::{Activation, Graph, Mlp, ParamStore};
use mfn_core::{
    equation_loss_at_points, plan_queries, ChannelStats, ConstraintSet, ContinuousDecoder,
    MeshfreeFlowNet, MfnConfig, RbcParams,
};
use mfn_data::{Dataset, DatasetMeta, CHANNELS};
use mfn_fft::{energy_spectrum_x, Complex, FftPlan, RealFftPlan};
use mfn_solver::{d2dx2, d2dz2, ddx, ddz, dealias_x, laplacian, Domain};
use mfn_tensor::{rowops, MatLayout, PackedConv3d, Tensor};

/// Bound for accumulating kernels: products stay ≤ 1e30 and sums of a few
/// hundred of them stay below f32::MAX, so intermediates cannot overflow.
const ACC_CAP: f32 = 1.0e15;

fn layout_tag(l: MatLayout) -> &'static str {
    match l {
        MatLayout::Normal => "N",
        MatLayout::Transposed => "T",
    }
}

/// Blocked GEMM vs the triple loop, over every layout pair and
/// tile-boundary shape.
pub fn check_gemm() -> Report {
    let mut c = Checker::new("gemm", Tolerance::new(4, 1.0e-4, 0.0));
    let layouts = [MatLayout::Normal, MatLayout::Transposed];
    for (si, &(m, k, n)) in GEMM_SHAPES.iter().enumerate() {
        for al in layouts {
            for bl in layouts {
                let seed = (si as u64) * 4 + 1;
                c.case(format!("m{m} k{k} n{n} {}{} seed {seed}", layout_tag(al), layout_tag(bl)));
                let a = adversarial_bounded(m * k, seed, ACC_CAP);
                let b = adversarial_bounded(k * n, seed ^ 0xDEAD, ACC_CAP);
                let mut out = vec![f32::NAN; m * n]; // NaN canary: must be overwritten
                mfn_tensor::gemm(m, k, n, &a, al, &b, bl, &mut out);
                let want = refk::gemm_ref(m, k, n, &a, al, &b, bl);
                for (i, &got) in out.iter().enumerate() {
                    c.check_f32(i, got, want.value[i], want.scale[i]);
                }
            }
        }
    }
    c.finish()
}

/// The prepacked `Linear` weight over feature-major activations (`W · X`,
/// `X: [k, m]`, against A panels packed once — the no-grad decoder's layer)
/// vs the triple loop of `x @ Wᵀ`, under the ordinary GEMM budget: packing
/// ahead of time and swapping the operands' places in the tile move work,
/// not roundings.
pub fn check_gemm_packed() -> Report {
    let mut c = Checker::new("gemm_packed", Tolerance::new(4, 1.0e-4, 0.0));
    for (si, &(m, k, n)) in GEMM_SHAPES.iter().enumerate() {
        let seed = 1800 + si as u64;
        c.case(format!("m{m} k{k} n{n} seed {seed}"));
        let a = adversarial_bounded(m * k, seed, ACC_CAP);
        let w = adversarial_bounded(n * k, seed ^ 0xB16, ACC_CAP); // [n, k] weight
        let xt: Vec<f32> = (0..k * m).map(|i| a[i % m * k + i / m]).collect();
        let packed = PackedConv3d::pack_linear(&w, n, k);
        let mut out = vec![f32::NAN; n * m]; // NaN canary: must be overwritten
        packed.forward_slices(&xt, [1, 1, m], &mut out, None);
        let want = refk::gemm_ref(m, k, n, &a, MatLayout::Normal, &w, MatLayout::Transposed);
        for i in 0..m * n {
            c.check_f32(i, out[i % n * m + i / n], want.value[i], want.scale[i]);
        }
    }
    c.finish()
}

/// One `CONV_SHAPES` row: `(input, weight, grad_out)` as the raw buffers the
/// references and the gradient kernels take, the first two also as tensors.
struct ConvCase {
    x: Vec<f32>,
    w: Vec<f32>,
    gout: Vec<f32>,
    xt: Tensor,
    wt: Tensor,
}

fn conv_case(&(n, cin, cout, [sd, sh, sw], [kd, kh, kw]): &ConvShape, seed: u64) -> ConvCase {
    let x = adversarial_bounded(n * cin * sd * sh * sw, seed, ACC_CAP);
    let w = adversarial_bounded(cout * cin * kd * kh * kw, seed ^ 0xBEEF, ACC_CAP);
    let gout = adversarial_bounded(n * cout * sd * sh * sw, seed ^ 0xFACE, ACC_CAP);
    let xt = Tensor::from_vec(x.clone(), &[n, cin, sd, sh, sw]);
    let wt = Tensor::from_vec(w.clone(), &[cout, cin, kd, kh, kw]);
    ConvCase { x, w, gout, xt, wt }
}

/// conv3d forward (the implicit GEMM, per-call pack and prepacked panels)
/// vs the seven-deep definition loop. Budget re-measured when the direct
/// kernels were retired and the pointwise / `[2, 2, 2]` rows joined
/// `CONV_SHAPES`: at 4 ULP the tightest passing `rtol` is 1.1e-7 (forward),
/// 7e-8 (grad-input) and 8e-8 (grad-weight) of the condition scale, the same
/// on both codegen legs — the GEMM's 4 ULP / 1e-4 is kept, not loosened.
pub fn check_conv3d() -> Report {
    let mut c = Checker::new("conv3d", Tolerance::new(4, 1.0e-4, 0.0));
    for (si, shape) in CONV_SHAPES.iter().enumerate() {
        let &(n, cin, cout, spatial, kernel) = shape;
        let seed = 100 + si as u64;
        let case = conv_case(shape, seed);
        let want = refk::conv3d_ref(n, cin, cout, spatial, kernel, &case.x, &case.w);
        c.case(format!("per-call pack {spatial:?}*{kernel:?} seed {seed}"));
        for (i, &got) in mfn_tensor::conv3d_auto(&case.xt, &case.wt).data().iter().enumerate() {
            c.check_f32(i, got, want.value[i], want.scale[i]);
        }
        c.case(format!("prepacked {spatial:?}*{kernel:?} seed {seed}"));
        let packed = PackedConv3d::pack(&case.wt, spatial.iter().product());
        for (i, &got) in packed.forward(&case.xt).data().iter().enumerate() {
            c.check_f32(i, got, want.value[i], want.scale[i]);
        }
    }
    c.finish()
}

/// conv3d input gradient vs its definition loop (every `CONV_SHAPES` kernel
/// is odd; an even one is refused, see `conv.rs`).
pub fn check_conv3d_grad_input() -> Report {
    let mut c = Checker::new("conv3d_grad_input", Tolerance::new(4, 1.0e-4, 0.0));
    for (si, shape) in CONV_SHAPES.iter().enumerate() {
        let &(n, cin, cout, spatial, kernel) = shape;
        let seed = 200 + si as u64;
        let case = conv_case(shape, seed);
        let dims = mfn_tensor::Conv3dDims::infer(&case.xt, &case.wt);
        let want = refk::conv3d_grad_input_ref(n, cin, cout, spatial, kernel, &case.gout, &case.w);
        c.case(format!("{spatial:?}*{kernel:?} seed {seed}"));
        let got = mfn_tensor::conv3d_grad_input(&case.gout, &case.w, dims);
        for (i, &g) in got.data().iter().enumerate() {
            c.check_f32(i, g, want.value[i], want.scale[i]);
        }
    }
    c.finish()
}

/// conv3d weight gradient vs its definition loop.
pub fn check_conv3d_grad_weight() -> Report {
    let mut c = Checker::new("conv3d_grad_weight", Tolerance::new(4, 1.0e-4, 0.0));
    for (si, shape) in CONV_SHAPES.iter().enumerate() {
        let &(n, cin, cout, spatial, kernel) = shape;
        let seed = 300 + si as u64;
        let case = conv_case(shape, seed);
        let dims = mfn_tensor::Conv3dDims::infer(&case.xt, &case.wt);
        let want = refk::conv3d_grad_weight_ref(n, cin, cout, spatial, kernel, &case.x, &case.gout);
        c.case(format!("{spatial:?}*{kernel:?} seed {seed}"));
        let got = mfn_tensor::conv3d_grad_weight(&case.x, &case.gout, dims, None);
        for (i, &g) in got.data().iter().enumerate() {
            c.check_f32(i, g, want.value[i], want.scale[i]);
        }
    }
    c.finish()
}

/// Training-mode batch norm (graph op) vs the all-f64 twin. Inputs bounded
/// to a physical range: the optimized path's statistics contract does not
/// cover fields whose squares overflow f32.
pub fn check_batch_norm() -> Report {
    let mut c = Checker::new("batch_norm", Tolerance::new(16, 1.0e-5, 0.0));
    for (si, &(n, ch, inner)) in
        [(2usize, 3usize, 40usize), (1, 4, 7), (3, 1, 64)].iter().enumerate()
    {
        let seed = 400 + si as u64;
        let x = adversarial_bounded(n * ch * inner, seed, 1.0e3);
        let gamma = adversarial_bounded(ch, seed ^ 1, 8.0);
        let beta = adversarial_bounded(ch, seed ^ 2, 8.0);
        let eps = 1.0e-5f32;
        let mut g = Graph::new();
        let xv = g.constant(Tensor::from_vec(x.clone(), &[n, ch, inner]));
        let gv = g.constant(Tensor::from_vec(gamma.clone(), &[ch]));
        let bv = g.constant(Tensor::from_vec(beta.clone(), &[ch]));
        let out = g.batch_norm(xv, gv, bv, eps, None);
        let want = refk::batchnorm_train_ref(n, ch, inner, &x, &gamma, &beta, f64::from(eps));
        c.case(format!("[{n},{ch},{inner}] seed {seed}"));
        for (i, &got) in g.value(out).data().iter().enumerate() {
            c.check_f32(i, got, want.value[i], want.scale[i]);
        }
    }
    c.finish()
}

/// Inference-mode per-channel affine (shared by batch-norm eval).
pub fn check_channel_affine() -> Report {
    let mut c = Checker::new("channel_affine", Tolerance::new(2, 1.0e-6, 0.0));
    for (si, &(n, ch, inner)) in [(2usize, 3usize, 40usize), (1, 5, 9)].iter().enumerate() {
        let seed = 500 + si as u64;
        let x = adversarial_bounded(n * ch * inner, seed, ACC_CAP);
        let sc = adversarial_bounded(ch, seed ^ 1, ACC_CAP);
        let sh = adversarial_bounded(ch, seed ^ 2, ACC_CAP);
        let mut t = Tensor::from_vec(x.clone(), &[n, ch, inner]);
        rowops::channel_affine(&mut t, &sc, &sh);
        let want = refk::channel_affine_ref(n, ch, inner, &x, &sc, &sh);
        c.case(format!("[{n},{ch},{inner}] seed {seed}"));
        for (i, &got) in t.data().iter().enumerate() {
            c.check_f32(i, got, want.value[i], want.scale[i]);
        }
    }
    c.finish()
}

/// Element-wise activations (graph ops and the scalar softplus) against f64
/// twins, on the unbounded set plus explicit ±inf / NaN / saturation probes.
pub fn check_activations() -> Report {
    let mut c = Checker::new("activations", Tolerance::new(8, 1.0e-6, 0.0));
    let mut xs = adversarial(512, 600);
    xs.extend_from_slice(&[
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        100.0,
        -100.0,
        88.0, // expf saturation boundary
        -88.0,
    ]);
    let t = Tensor::from_vec(xs.clone(), &[xs.len()]);
    let mut g = Graph::new();
    let v = g.constant(t);
    type GraphOp = fn(&mut Graph, mfn_autodiff::Var) -> mfn_autodiff::Var;
    type RefOp = fn(f64) -> f64;
    let unary: [(&str, GraphOp, RefOp); 4] = [
        ("relu", Graph::relu, refk::relu_ref),
        ("softplus", Graph::softplus, refk::softplus_ref),
        ("tanh", Graph::tanh, refk::tanh_ref),
        ("abs", Graph::abs, refk::abs_ref),
    ];
    for (name, op, rf) in unary {
        c.case(format!("graph {name}"));
        let out = op(&mut g, v);
        for (i, (&got, &x)) in g.value(out).data().iter().zip(&xs).enumerate() {
            let want = rf(f64::from(x));
            c.check_f32_in(i, Some(f64::from(x)), got, want, want.abs().max(1.0));
        }
    }
    c.case("softplus_scalar");
    for (i, &x) in xs.iter().enumerate() {
        let want = refk::softplus_ref(f64::from(x));
        c.check_f32_in(
            i,
            Some(f64::from(x)),
            mfn_autodiff::softplus_scalar(x),
            want,
            want.abs().max(1.0),
        );
    }
    c.finish()
}

/// `sigmoid_scalar`, the one definition of softplus′ (tape backward kernels,
/// `Activation::derivs`, the six-lane epilogue), against the f64 logistic. Measured
/// worst case over 20 M points of [−87, 88]: 2.40 ULP of the exact value, 2
/// ULP of its f32 rounding — polynomial `exp` (≤ 2 ULP), one add, one
/// divide — hence a budget of 3. Below the clamp at −87 the kernel holds
/// `e⁻⁸⁷` where the true value is subnormal; the absolute floor covers
/// exactly that.
pub fn check_sigmoid() -> Report {
    let mut c = Checker::new("sigmoid", Tolerance::new(3, 0.0, 2.0e-38));
    let mut xs = adversarial(512, 610);
    xs.extend_from_slice(&[
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        100.0,
        -100.0,
        88.0,
        -88.0,
        87.0,
        -87.0,
        20.0,
        -20.0,
    ]);
    c.case("adversarial seed 610 + clamp and saturation probes");
    for (i, &x) in xs.iter().enumerate() {
        let want = refk::sigmoid_ref(f64::from(x));
        c.check_f32_in(i, Some(f64::from(x)), mfn_autodiff::sigmoid_scalar(x), want, 1.0);
    }
    c.case("sweep of [-87, 88], 8192 points");
    for i in 0..8192usize {
        let x = -87.0 + 175.0 * (i as f32 / 8191.0);
        let want = refk::sigmoid_ref(f64::from(x));
        c.check_f32_in(i, Some(f64::from(x)), mfn_autodiff::sigmoid_scalar(x), want, 1.0);
    }
    c.finish()
}

/// The fused tape layer's backward (`Graph::linear`, softplus, on
/// feature-major operands: the transposes of the twin's row-major `x` and
/// `gy`): `dx`, `dW` and `db` against the all-f64 chain rule. Each is a
/// GEMM-shaped sum of `dz = gy·σ(z)` terms, so the budget is the GEMM one;
/// what `dz` adds — the f32 rounding of `z` through `σ′ ≤ ¼` and the
/// sigmoid's own ≤ 3 ULP — is a few 1e-7 of each term, well inside `rtol ·
/// Σ|terms|`. Shapes put a ragged edge on every micro-tile and a point count
/// past one GEMM row block.
pub fn check_linear_backward() -> Report {
    let mut c = Checker::new("linear_backward", Tolerance::new(4, 1.0e-4, 0.0));
    for (si, &(m, k, n)) in
        [(1usize, 3usize, 2usize), (37, 19, 23), (130, 35, 50)].iter().enumerate()
    {
        let seed = 1900 + si as u64;
        let mut g = Lcg::new(seed);
        let mut fill =
            |len: usize, amp: f32| -> Vec<f32> { (0..len).map(|_| g.uniform() * amp).collect() };
        // Pre-activations spread over roughly ±12: both softplus tails and
        // the curved middle.
        let (x, w, b, gy) = (fill(m * k, 2.0), fill(n * k, 1.5), fill(n, 1.0), fill(m * n, 3.0));

        let mut tape = Graph::new();
        let xv = tape.leaf_with_grad(Tensor::from_vec(x.clone(), &[m, k]).transpose2());
        let wv = tape.leaf_with_grad(Tensor::from_vec(w.clone(), &[n, k]));
        let bv = tape.leaf_with_grad(Tensor::from_vec(b.clone(), &[n]));
        let y = tape.linear(xv, wv, bv, Activation::Softplus, 1);
        let gyv = tape.constant(Tensor::from_vec(gy.clone(), &[m, n]).transpose2());
        let weighted = tape.mul(y, gyv);
        let loss = tape.sum(weighted);
        tape.backward(loss);

        let (dx, dw, db) = refk::linear_softplus_backward_ref(m, k, n, &x, &w, &b, &gy);
        // dx comes back feature-major, [k, m]: the twin's row-major [m, k].
        let dx_got = tape.grad(xv).transpose2();
        for (name, got, want) in
            [("dx", &dx_got, dx), ("dW", tape.grad(wv), dw), ("db", tape.grad(bv), db)]
        {
            c.case(format!("{name} of [{m}x{k}] -> {n}, seed {seed}"));
            for (i, &got) in got.data().iter().enumerate() {
                c.check_f32(i, got, want.value[i], want.scale[i]);
            }
        }
    }
    c.finish()
}

/// Feature-row and channel-broadcast bias adds: a single f32 addition per
/// element, so the budget is 1 ULP (double-rounding ties only).
pub fn check_bias() -> Report {
    let mut c = Checker::new("bias_add", Tolerance::new(1, 0.0, 0.0));
    let (m, n) = (17, 33);
    let x = adversarial(m * n, 700);
    let b = adversarial(n, 701);
    let mut t = x.clone();
    rowops::add_bias_features(&mut t, &b);
    let want = refk::bias_channels_ref(1, n, m, &x, &b);
    c.case("features 33x17 seed 700");
    for (i, &got) in t.iter().enumerate() {
        c.check_f32(i, got, want.value[i], want.scale[i]);
    }
    let (n2, ch, inner) = (3, 5, 14);
    let x = adversarial(n2 * ch * inner, 702);
    let b = adversarial(ch, 703);
    let mut t = Tensor::from_vec(x.clone(), &[n2, ch, inner]);
    rowops::add_bias_channels(&mut t, &b);
    let want = refk::bias_channels_ref(n2, ch, inner, &x, &b);
    c.case("channels [3,5,14] seed 702");
    for (i, &got) in t.data().iter().enumerate() {
        c.check_f32(i, got, want.value[i], want.scale[i]);
    }
    c.finish()
}

/// Grouped weighted blending of feature-major points into rows (the
/// continuous decoder's vertex blend, `blend_features_into`) against the
/// twin of the row-major definition on the transpose, including the pinned
/// zero-weight NaN-masking contract.
pub fn check_blend_features() -> Report {
    let mut c = Checker::new("blend_features", Tolerance::new(4, 1.0e-6, 0.0));
    let blend = |rows: usize, ch: usize, x: &[f32], w: &[f32], group: usize| {
        let xt = Tensor::from_vec(x.to_vec(), &[rows, ch]).transpose2();
        let mut out = vec![f32::NAN; rows / group * ch]; // NaN canary: must be overwritten
        rowops::blend_features_into(xt.data(), w, group, &mut out);
        out
    };
    for (si, &(q, group, ch)) in
        [(7usize, 8usize, 5usize), (16, 2, 3), (4, 1, 9)].iter().enumerate()
    {
        let seed = 800 + si as u64;
        let rows = q * group;
        let x = adversarial_bounded(rows * ch, seed, ACC_CAP);
        let w = adversarial_bounded(rows, seed ^ 7, ACC_CAP);
        let got = blend(rows, ch, &x, &w, group);
        let want = refk::blend_rows_ref(rows, ch, &x, &w, group);
        c.case(format!("q{q} g{group} c{ch} seed {seed}"));
        for (i, &g) in got.iter().enumerate() {
            c.check_f32(i, g, want.value[i], want.scale[i]);
        }
    }
    // Zero weight must mask a NaN point — both sides, by contract.
    let mut x = vec![1.0f32; 2 * 8 * 3];
    x[0] = f32::NAN; // point 0 of query 0
    let mut w = vec![0.125f32; 16];
    w[0] = 0.0;
    let got = blend(16, 3, &x, &w, 8);
    let want = refk::blend_rows_ref(16, 3, &x, &w, 8);
    c.case("zero-weight NaN masking");
    for (i, &g) in got.iter().enumerate() {
        assert!(!want.value[i].is_nan(), "reference must mask the NaN point");
        c.check_f32(i, g, want.value[i], want.scale[i]);
    }
    c.finish()
}

/// Prefix de-interleave + vertex gather into feature-major rows (the
/// decoder's MLP input on the tape and off it): pure data movement, so
/// bit-for-bit — column `r` of the output must be point `r`'s prefix over
/// the latent vector of vertex `index[r]`, exactly. 70 picks cross the
/// kernel's 64-row chunk.
pub fn check_gather_features() -> Report {
    let mut c = Checker::new("gather_features", Tolerance::exact());
    let (n, ch, vol_dims, picks, k) = (2usize, 3usize, [2usize, 2, 3], 70usize, 3usize);
    let vol: usize = vol_dims.iter().product();
    let x = adversarial(n * ch * vol, 910);
    let prefix = adversarial(picks * k, 911);
    let mut g = Lcg::new(912);
    let index: Vec<u32> = (0..picks).map(|_| g.index(n * vol) as u32).collect();
    let t = Tensor::from_vec(x.clone(), &[n, ch, vol_dims[0], vol_dims[1], vol_dims[2]]);
    let mut got = vec![f32::NAN; picks * (k + ch)];
    rowops::gather_features(&t, &index, &prefix, &mut got);
    c.case("[2,3,2,2,3] pick 70 prefix 3 seed 910");
    for (r, &flat) in index.iter().enumerate() {
        let (ni, sp) = (flat as usize / vol, flat as usize % vol);
        for j in 0..k {
            c.check_f32(j * picks + r, got[j * picks + r], f64::from(prefix[r * k + j]), 0.0);
        }
        for j in 0..ch {
            let at = (k + j) * picks + r;
            c.check_f32(at, got[at], f64::from(x[(ni * ch + j) * vol + sp]), 0.0);
        }
    }
    c.finish()
}

/// Max pooling: bit-exact vs the NaN-propagating reference, and the returned
/// argmax indices must point at the returned values.
pub fn check_maxpool() -> Report {
    let mut c = Checker::new("maxpool3d", Tolerance::exact());
    let (n, ch, spatial, factors) = (2usize, 3usize, [4usize, 4, 6], [2usize, 2, 3]);
    let vol: usize = spatial.iter().product();
    let mut x = adversarial(n * ch * vol, 1000);
    // Poison a few windows, including one that is all-NaN.
    x[5] = f32::NAN;
    x[vol + 1] = f32::NAN;
    for v in x.iter_mut().take(spatial[1] * spatial[2]).step_by(3) {
        *v = f32::NAN;
    }
    let t = Tensor::from_vec(x.clone(), &[n, ch, spatial[0], spatial[1], spatial[2]]);
    let (got, idx) = mfn_tensor::maxpool3d(&t, factors);
    let want = refk::maxpool3d_ref(n * ch, spatial, factors, &x);
    c.case("[2,3,4,4,6]/[2,2,3] seed 1000 + NaN windows");
    for (i, &g) in got.data().iter().enumerate() {
        c.check_f32(i, g, want[i], 0.0);
    }
    c.case("argmax indices point at returned values");
    for (i, &g) in got.data().iter().enumerate() {
        c.check_f32(i, g, f64::from(x[idx[i] as usize]), 0.0);
    }
    c.finish()
}

/// Nearest-neighbour upsampling: exact replication.
pub fn check_upsample() -> Report {
    let mut c = Checker::new("upsample_nearest3d", Tolerance::exact());
    let (n, ch, spatial, factors) = (2usize, 2usize, [2usize, 3, 4], [3usize, 2, 2]);
    let vol: usize = spatial.iter().product();
    let x = adversarial(n * ch * vol, 1100);
    let t = Tensor::from_vec(x.clone(), &[n, ch, spatial[0], spatial[1], spatial[2]]);
    let got = mfn_tensor::upsample_nearest3d(&t, factors);
    let want = refk::upsample_nearest3d_ref(n * ch, spatial, factors, &x);
    c.case("[2,2,2,3,4]x[3,2,2] seed 1100");
    for (i, &g) in got.data().iter().enumerate() {
        c.check_f32(i, g, want[i], 0.0);
    }
    c.finish()
}

/// Radix-2 FFT (complex forward, inverse round-trip, real-input plan)
/// against the naive O(n²) DFT in f64.
pub fn check_fft() -> Report {
    let mut c = Checker::new("fft", Tolerance::new(0, 1.0e-12, 0.0));
    for (si, &n) in [1usize, 2, 8, 64].iter().enumerate() {
        let seed = 1200 + si as u64;
        let re: Vec<f64> =
            adversarial_bounded(n, seed, ACC_CAP).iter().map(|&v| f64::from(v)).collect();
        let im: Vec<f64> =
            adversarial_bounded(n, seed ^ 3, ACC_CAP).iter().map(|&v| f64::from(v)).collect();
        let plan = FftPlan::new(n);
        let mut data: Vec<Complex> =
            re.iter().zip(&im).map(|(&r, &i)| Complex::new(r, i)).collect();
        plan.forward(&mut data);
        let (want, mag) = refk::dft_ref(&re, &im);
        c.case(format!("forward n{n} seed {seed}"));
        for (k, z) in data.iter().enumerate() {
            c.check_f64(2 * k, z.re, want[k].0, mag);
            c.check_f64(2 * k + 1, z.im, want[k].1, mag);
        }
        c.case(format!("inverse round-trip n{n} seed {seed}"));
        plan.inverse(&mut data);
        for (j, z) in data.iter().enumerate() {
            c.check_f64(2 * j, z.re, re[j], mag);
            c.check_f64(2 * j + 1, z.im, im[j], mag);
        }
        if n >= 2 {
            let rplan = RealFftPlan::new(n);
            let (rwant, rmag) = refk::real_dft_ref(&re);
            c.case(format!("real forward n{n} seed {seed}"));
            for (k, z) in rplan.forward(&re).iter().enumerate() {
                c.check_f64(2 * k, z.re, rwant[k].0, rmag);
                c.check_f64(2 * k + 1, z.im, rwant[k].1, rmag);
            }
        }
    }
    c.finish()
}

/// Energy-spectrum binning vs the naive twin, on even, odd and
/// non-power-of-two widths, plus Parseval against the physical energy.
pub fn check_spectrum() -> Report {
    let mut c = Checker::new("energy_spectrum_x", Tolerance::new(0, 1.0e-11, 0.0));
    for (si, &(nz, nx)) in
        [(3usize, 8usize), (2, 16), (2, 12), (2, 7), (3, 9), (1, 1)].iter().enumerate()
    {
        let seed = 1300 + si as u64;
        let u: Vec<f64> =
            adversarial_bounded(nz * nx, seed, 1.0e6).iter().map(|&v| f64::from(v)).collect();
        let w: Vec<f64> =
            adversarial_bounded(nz * nx, seed ^ 5, 1.0e6).iter().map(|&v| f64::from(v)).collect();
        let got = energy_spectrum_x(&[&u, &w], nz, nx, 2.0);
        let want = refk::energy_spectrum_x_ref(&[&u, &w], nz, nx);
        c.case(format!("nz{nz} nx{nx} seed {seed}"));
        for (k, &e) in got.energy.iter().enumerate() {
            c.check_f64(k, e, want.value[k], want.scale[k]);
        }
        // Parseval: Σ E(k) == 0.5·mean(u² + w²), ULP-budget tight.
        let phys = 0.5
            * (u.iter().map(|v| v * v).sum::<f64>() + w.iter().map(|v| v * v).sum::<f64>())
            / (nz * nx) as f64;
        c.case(format!("Parseval nz{nz} nx{nx}"));
        c.check_f64(0, got.energy.iter().sum::<f64>(), phys, phys.abs());
    }
    c.finish()
}

/// One report per solver stencil against its f64 twin.
fn check_solver_stencil(
    kernel: &'static str,
    tol: Tolerance,
    run: impl Fn(&Domain, &[f64]) -> Vec<f64>,
    reference: impl Fn(&Domain, &[f64]) -> refk::RefOut,
) -> Report {
    let mut c = Checker::new(kernel, tol);
    for (si, &(nx, nz)) in [(8usize, 5usize), (16, 9), (8, 4)].iter().enumerate() {
        let seed = 1400 + si as u64;
        let dom = Domain::new(nx, nz, 3.7, 1.3);
        let f: Vec<f64> =
            adversarial_bounded(nz * nx, seed, 1.0e6).iter().map(|&v| f64::from(v)).collect();
        let got = run(&dom, &f);
        let want = reference(&dom, &f);
        c.case(format!("nx{nx} nz{nz} seed {seed}"));
        for (i, &g) in got.iter().enumerate() {
            c.check_f64(i, g, want.value[i], want.scale[i]);
        }
    }
    c.finish()
}

/// All solver stencils: spectral x-derivatives, FD z-derivatives, Laplacian
/// and dealiasing.
pub fn check_solver() -> Vec<Report> {
    let spectral = Tolerance::new(0, 1.0e-11, 0.0);
    let fd = Tolerance::new(4, 1.0e-12, 0.0);
    vec![
        check_solver_stencil("solver_ddx", spectral, ddx, |d, f| {
            refk::ddx_ref(d.nz, d.nx, d.lx, f)
        }),
        check_solver_stencil("solver_d2dx2", spectral, d2dx2, |d, f| {
            refk::d2dx2_ref(d.nz, d.nx, d.lx, f)
        }),
        check_solver_stencil("solver_ddz", fd, ddz, |d, f| refk::ddz_ref(d.nz, d.nx, d.dz(), f)),
        check_solver_stencil("solver_d2dz2", fd, d2dz2, |d, f| {
            refk::d2dz2_ref(d.nz, d.nx, d.dz(), f)
        }),
        check_solver_stencil("solver_laplacian", spectral, laplacian, |d, f| {
            refk::laplacian_ref(d.nz, d.nx, d.lx, d.dz(), f)
        }),
        check_solver_stencil(
            "solver_dealias_x",
            spectral,
            |d, f| {
                let mut g = f.to_vec();
                dealias_x(d, &mut g);
                g
            },
            |d, f| refk::dealias_x_ref(d.nz, d.nx, f),
        ),
    ]
}

fn synthetic_dataset(nt: usize, nz: usize, nx: usize, seed: u64) -> Dataset {
    let meta = DatasetMeta {
        nt,
        nz,
        nx,
        lx: 1.6,
        lz: 1.0,
        duration: 0.9,
        ra: 1.0e5,
        pr: 1.0,
        seed: 0,
        channel_mean: [0.0; CHANNELS],
        channel_std: [1.0; CHANNELS],
    };
    Dataset::from_parts(meta, adversarial_bounded(nt * CHANNELS * nz * nx, seed, 1.0e3))
}

/// Space-time trilinear sampling vs the all-f64 twin: on-grid, generic
/// off-grid, clamped out-of-range and periodic-wrap queries.
pub fn check_trilinear() -> Report {
    let mut c = Checker::new("sample_trilinear", Tolerance::new(8, 1.0e-5, 0.0));
    let ds = synthetic_dataset(4, 5, 8, 1500);
    let mut g = Lcg::new(1501);
    let mut queries: Vec<(f64, f64, f64)> = Vec::new();
    for ft in 0..4 {
        queries.push((ft as f64 * ds.dt(), ds.dz() * 2.0, ds.dx() * 3.0)); // on-grid in t
    }
    for _ in 0..48 {
        queries.push((
            f64::from(g.uniform()) * 1.2, // includes t < 0 (clamped)
            f64::from(g.uniform()) * 1.4, // includes z out of range
            f64::from(g.uniform()) * 4.0, // several periods, negative wraps
        ));
    }
    for (qi, &(t, z, x)) in queries.iter().enumerate() {
        c.case(format!("query {qi} ({t:.4},{z:.4},{x:.4})"));
        let got = mfn_data::sample_trilinear(&ds, t, z, x);
        let (want, scale) = refk::sample_trilinear_ref(&ds, t, z, x);
        for ch in 0..CHANNELS {
            c.check_f32(ch, got[ch], want[ch], scale[ch]);
        }
    }
    c.finish()
}

/// Strided downsampling: every LR sample is an exact copy of its HR source.
pub fn check_downsample() -> Report {
    let mut c = Checker::new("downsample", Tolerance::exact());
    let hr = synthetic_dataset(5, 9, 16, 1600);
    let lr = mfn_data::downsample(&hr, 2, 2);
    c.case("5x9x16 / (2,2) seed 1600");
    let mut i = 0usize;
    for f in 0..lr.meta.nt {
        for ch in 0..CHANNELS {
            for j in 0..lr.meta.nz {
                for k in 0..lr.meta.nx {
                    c.check_f32(
                        i,
                        lr.at(f, ch, j, k),
                        f64::from(hr.at(f * 2, ch, j * 2, k * 2)),
                        0.0,
                    );
                    i += 1;
                }
            }
        }
    }
    c.finish()
}

const LANE_GRID: [usize; 3] = [3, 4, 4];
const LANE_CHANNELS: usize = 5;
const LANE_EXTENT: [f64; 3] = [1.0, 0.5, 2.0];

/// The decoder, latent and query points the two derivative-lane rows share:
/// a 5-channel latent on a 3×4×4 grid under an 8-12-8-4 softplus MLP, at
/// interior points, points exactly on the patch walls (0 and 1 per axis) and
/// points on latent-cell faces (multiples of 1/2 in t, of 1/3 in z and x).
fn lane_fixture(seed: u64) -> (ParamStore, ContinuousDecoder, Tensor, Vec<(usize, [f32; 3])>) {
    use rand::SeedableRng;
    let mut store = ParamStore::new();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let widths = [3 + LANE_CHANNELS, 12, 8, 4];
    let mlp = Mlp::new(&mut store, "dec", &widths, Activation::Softplus, &mut rng);
    let [nt, nz, nx] = LANE_GRID;
    let latent = Tensor::randn(&[1, LANE_CHANNELS, nt, nz, nx], 0.5, &mut rng);
    let mut g = Lcg::new(seed + 1);
    let mut coord = || 0.5 * (g.uniform() + 1.0);
    let mut points: Vec<[f32; 3]> = (0..6).map(|_| [coord(), coord(), coord()]).collect();
    points.extend([
        [0.0, 0.0, 0.0],
        [1.0, 1.0, 1.0],
        [0.0, 1.0, 0.37],
        [0.5, 1.0 / 3.0, 2.0 / 3.0],
        [0.5, 0.21, 1.0],
        [0.83, 2.0 / 3.0, 0.0],
    ]);
    let points = points.into_iter().map(|q| (0usize, q)).collect();
    (store, ContinuousDecoder::new(mlp, LANE_CHANNELS), latent, points)
}

/// The fixture as the reference twins read it: `(layers, latent, points)`.
fn widen_fixture(
    store: &ParamStore,
    dec: &ContinuousDecoder,
    latent: &Tensor,
    points: &[(usize, [f32; 3])],
) -> (Vec<refk::MlpLayerRef>, Vec<f64>, Vec<[f64; 3]>) {
    let latent = latent.data().iter().map(|&v| f64::from(v)).collect();
    (widen_mlp(dec, store), latent, points.iter().map(|&(_, q)| q.map(f64::from)).collect())
}

/// The tape's six derivative lanes (`ContinuousDecoder::decode_derivs`: one
/// GEMM per layer over value, `∂t, ∂z, ∂x, ∂zz, ∂xx`, the second-order chain
/// rule in the softplus epilogue, the product rule in the blend) against the
/// analytic f64 lanes of `decode_point_ref`, every lane of every channel.
/// The budget is the blocked decode's — a few f32 roundings per stage
/// relative to the magnitude of the last layer's and the blend's terms
/// (measured worst case 1.2e-7 of that bound, on a second-derivative lane).
pub fn check_jet_decoder() -> Report {
    let mut chk = Checker::new("jet_decoder", Tolerance::new(16, 4.0e-6, 0.0));
    let (store, dec, latent, points) = lane_fixture(1750);
    let plan = plan_queries(LANE_GRID, points.iter().copied());
    let mut graph = Graph::new();
    let leaf = graph.constant(latent.clone());
    let lanes = dec.decode_derivs(&mut graph, &store, leaf, &plan, LANE_GRID, LANE_EXTENT);
    let got = graph.value(lanes).data();

    let (layers, lat64, pts64) = widen_fixture(&store, &dec, &latent, &points);
    let q = pts64.len();
    chk.case("12 points (interior, walls, cell faces), grid 3x4x4, MLP 8-12-8-4, seed 1750");
    for (qi, point) in pts64.iter().enumerate() {
        let (want, scale) =
            refk::decode_point_ref(&layers, &lat64, LANE_CHANNELS, LANE_GRID, *point, LANE_EXTENT);
        for (o, (w, s)) in want.iter().zip(&scale).enumerate() {
            for k in 0..6 {
                let at = (k * q + qi) * 4 + o;
                chk.check_f32(at, got[at], w[k], s[k]);
            }
        }
    }
    chk.finish()
}

/// The serving-side test-time refinement objective vs its all-f64 twin: the
/// equation residual on the exact derivative lanes
/// (`equation_loss_at_points`) as a value, and its latent gradient
/// (reverse-mode, latent as the only leaf) against f64 central differences of
/// the twin — on the same interior, wall and cell-face points as
/// `jet_decoder`. This is the descent direction `refine_latent` takes at
/// serve time — a biased gradient silently degrades refinement quality
/// without failing any exactness test, so it gets an oracle row of its own.
/// Both sides differentiate the decoder analytically, so the budget is f32
/// rounding alone, the `jet_decoder` one (measured worst case 1.2e-7 of the
/// bound; the finite-difference stencil this row used to carry needed 1e-3).
pub fn check_refine_grad() -> Report {
    let mut chk = Checker::new("refine_grad", Tolerance::new(8, 4.0e-6, 0.0));
    let (store, dec, latent, points) = lane_fixture(1700);
    let params = RbcParams::from_ra_pr(1.0e5, 1.0);
    // Non-identity statistics so the denormalization path is exercised.
    let stats = ChannelStats { mean: [0.1, -0.2, 0.05, 0.0], std: [1.5, 0.7, 1.2, 0.9] };

    // Optimized side: the f32 tape, latent as the only gradient leaf —
    // exactly what `mfn_core::refine_latent` evaluates per step.
    let mut graph = Graph::new();
    let leaf = graph.leaf_with_grad(latent.clone());
    let (loss, _) = equation_loss_at_points(
        &mut graph,
        &store,
        &dec,
        leaf,
        &points,
        LANE_GRID,
        LANE_EXTENT,
        params,
        stats,
        ConstraintSet::ALL,
    );
    let got_value = graph.value(loss).item();
    graph.backward(loss);

    // Reference side: widen everything once, then pure scalar f64 — with the
    // dimensionless coefficients the tape multiplies by (f32 constants,
    // widened), not a fresh f64 computation of them.
    let (layers, lat64, pts64) = widen_fixture(&store, &dec, &latent, &points);
    let (p_star, r_star) = (f64::from(params.p_star as f32), f64::from(params.r_star as f32));
    let (mean, std) = (stats.mean.map(f64::from), stats.std.map(f64::from));
    let (l, c, g, e) = (&layers, LANE_CHANNELS, LANE_GRID, LANE_EXTENT);
    let (want, scale) =
        refk::refine_objective_ref(l, &lat64, c, g, &pts64, e, p_star, r_star, mean, std);
    chk.case("equation residual value (12 pts, grid 3x4x4, seed 1700)");
    chk.check_f32(0, got_value, want, scale);

    let want =
        refk::refine_latent_grad_ref(l, &lat64, c, g, &pts64, e, p_star, r_star, mean, std, 1.0e-5);
    chk.case("latent gradient vs f64 central differences");
    for (i, &got) in graph.grad(leaf).data().iter().enumerate() {
        chk.check_f32(i, got, want.value[i], want.scale[i]);
    }
    chk.finish()
}

/// The equation loss's weight gradient (`equation_loss_at_points` on a
/// `Graph::new()` tape, the weights as parameters and the latent a constant —
/// the decoder half of a training step's Eqn. 9 term) against f64 central
/// differences of `refine_objective_ref` with one weight perturbed, on the
/// `jet_decoder` fixture. It covers all three coordinate columns of the
/// first layer — the only weight-gradient values whose bits the seeded
/// first layer (`Graph::linear_seeded`) changed, its seed lanes being summed
/// per column apart from the value lane's GEMM — plus one hidden-layer and
/// one head entry. The budget is `refine_grad`'s, scale = the largest checked
/// magnitude; measured worst case 5.7e-7 of the scale (the head entry),
/// 1.6e-7 on a coordinate column.
pub fn check_eq_weight_grad() -> Report {
    let mut chk = Checker::new("eq_weight_grad", Tolerance::new(8, 4.0e-6, 0.0));
    let (store, dec, latent, points) = lane_fixture(1760);
    let params = RbcParams::from_ra_pr(1.0e5, 1.0);
    let stats = ChannelStats { mean: [0.1, -0.2, 0.05, 0.0], std: [1.5, 0.7, 1.2, 0.9] };
    let mut graph = Graph::new();
    let leaf = graph.constant(latent.clone());
    let (loss, _) = equation_loss_at_points(
        &mut graph,
        &store,
        &dec,
        leaf,
        &points,
        LANE_GRID,
        LANE_EXTENT,
        params,
        stats,
        ConstraintSet::ALL,
    );
    graph.backward(loss);
    let grads = graph.param_grads(&store);

    let layers = &dec.mlp.layers;
    let width = layers[0].in_features;
    let mut entries: Vec<(usize, usize)> =
        (0..layers[0].out_features).flat_map(|o| (0..3).map(move |a| (0, o * width + a))).collect();
    entries.extend([(1, 5 * layers[1].in_features + 7), (2, 2 * layers[2].in_features + 3)]);
    let (layers64, lat64, pts64) = widen_fixture(&store, &dec, &latent, &points);
    let (p_star, r_star) = (f64::from(params.p_star as f32), f64::from(params.r_star as f32));
    let (mean, std) = (stats.mean.map(f64::from), stats.std.map(f64::from));
    let (l, c, g, e) = (&layers64, LANE_CHANNELS, LANE_GRID, LANE_EXTENT);
    let want = refk::refine_weight_grad_ref(
        l, &lat64, c, g, &pts64, e, p_star, r_star, mean, std, &entries, 1.0e-5,
    );
    chk.case("first-layer coordinate columns, a hidden and a head weight (12 pts, seed 1760)");
    for (i, &(layer, at)) in entries.iter().enumerate() {
        let got = grads[layers[layer].weight.index()].data()[at];
        chk.check_f32(i, got, want.value[i], want.scale[i]);
    }
    chk.finish()
}

/// A decoder's MLP widened to f64, as the reference twins read it.
fn widen_mlp(dec: &ContinuousDecoder, store: &ParamStore) -> Vec<refk::MlpLayerRef> {
    let widen = |t: &Tensor| t.data().iter().map(|&v| f64::from(v)).collect();
    dec.mlp
        .layers
        .iter()
        .map(|l| refk::MlpLayerRef {
            weight: widen(store.get(l.weight)),
            bias: widen(store.get(l.bias)),
            in_features: l.in_features,
            out_features: l.out_features,
        })
        .collect()
}

/// The blocked no-grad decode (gather, three GEMM + bias + softplus layers,
/// trilinear blend; `ContinuousDecoder::decode_nograd`) end to end against
/// the f64 point decoder, at a query count that spans several blocks with
/// a ragged last one. The budget is a few f32 roundings per stage relative
/// to the magnitude of the last layer's terms.
pub fn check_decode_blocked() -> Report {
    use rand::SeedableRng;
    let mut chk = Checker::new("decode_blocked", Tolerance::new(16, 4.0e-6, 0.0));
    let mut store = ParamStore::new();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1800);
    let c = 5usize;
    let mlp = Mlp::new(&mut store, "dec", &[3 + c, 24, 16, 4], Activation::Softplus, &mut rng);
    let dec = ContinuousDecoder::new(mlp, c);
    let grid = [3usize, 4, 5];
    let latent = Tensor::randn(&[1, c, grid[0], grid[1], grid[2]], 0.5, &mut rng);
    let mut g = Lcg::new(1801);
    let points: Vec<[f32; 3]> = (0..203)
        .map(|_| {
            let mut coord = || 0.5 * (g.uniform() + 1.0);
            [coord(), coord(), coord()]
        })
        .collect();
    let plan = plan_queries(grid, points.iter().map(|&q| (0usize, q)));
    let got = dec.decode_nograd(&store, &latent, &plan);

    let layers = widen_mlp(&dec, &store);
    let lat64: Vec<f64> = latent.data().iter().map(|&v| f64::from(v)).collect();
    chk.case("203 queries, grid 3x4x5, MLP 8-24-16-4, seed 1800");
    for (q, point) in points.iter().enumerate() {
        let (want, scale) =
            refk::decode_point_ref(&layers, &lat64, c, grid, point.map(f64::from), [1.0; 3]);
        for (o, (w, s)) in want.iter().zip(&scale).enumerate() {
            chk.check_f32(q * 4 + o, got.data()[q * 4 + o], w[0], s[0]);
        }
    }
    chk.finish()
}

/// Thread-count invariance of the no-grad decode, end to end: a whole
/// `MeshfreeFlowNet::super_resolve` (eight covering patches of 343 or 392
/// queries — six or seven blocks — blended across their seams) with every
/// patch decoded on one, two and three threads, and on the count the call
/// picks itself. The reference is the one-thread field and the budget is
/// zero — a thread decodes whole blocks into its own slice of the result, so
/// nothing about the arithmetic may depend on how many there are.
pub fn check_decode_threads() -> Report {
    let mut chk = Checker::new("decode_threads", Tolerance::exact());
    let hr = synthetic_dataset(7, 13, 24, 1900);
    let lr = mfn_data::downsample(&hr, 2, 2);
    let mut cfg = MfnConfig::small();
    cfg.patch = mfn_data::PatchSpec { nt: 4, nz: 4, nx: 4, queries: 16 };
    cfg.base_channels = 4;
    cfg.latent_channels = 5;
    cfg.mlp_hidden = vec![24, 16];
    cfg.levels = 2;
    cfg.seed = 1901;
    let model = MeshfreeFlowNet::new(cfg);
    let stats = ChannelStats::from_meta(&hr.meta);
    let want = model.super_resolve_on(Some(1), &lr, &hr.meta, stats);
    for workers in [Some(2), Some(3), None] {
        chk.case(format!("7x13x24 from 4x7x12, patch 4x4x4, seed 1900, workers {workers:?}"));
        let got = model.super_resolve_on(workers, &lr, &hr.meta, stats);
        for (i, (&g, &w)) in got.data.iter().zip(&want.data).enumerate() {
            chk.check_f32(i, g, f64::from(w), 0.0);
        }
    }
    chk.finish()
}

/// Runs every kernel check, in dependency order (primitives first).
pub fn run_all() -> Vec<Report> {
    let mut reports = vec![
        check_gemm(),
        check_gemm_packed(),
        check_conv3d(),
        check_conv3d_grad_input(),
        check_conv3d_grad_weight(),
        check_batch_norm(),
        check_channel_affine(),
        check_activations(),
        check_sigmoid(),
        check_bias(),
        check_blend_features(),
        check_gather_features(),
        check_maxpool(),
        check_upsample(),
        check_fft(),
        check_spectrum(),
    ];
    reports.extend(check_solver());
    reports.push(check_trilinear());
    reports.push(check_downsample());
    reports.push(check_linear_backward());
    reports.push(check_jet_decoder());
    reports.push(check_refine_grad());
    reports.push(check_eq_weight_grad());
    reports.push(check_decode_blocked());
    reports.push(check_decode_threads());
    reports
}

/// True iff every report passed.
pub fn all_passed(reports: &[Report]) -> bool {
    reports.iter().all(Report::passed)
}
