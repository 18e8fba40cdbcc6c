//! Reusable neural-network layers on top of the tape.
//!
//! Layers own [`ParamId`] handles into a shared [`ParamStore`]; their
//! `forward` methods record operations onto a caller-provided [`Graph`].
//! This split keeps parameters (long-lived, optimized, all-reduced) apart
//! from activations (per-step tape state), which is what both the Adam
//! optimizer and the data-parallel trainer need.

use crate::graph::{Graph, Var};
use crate::params::{ParamId, ParamStore};
use mfn_tensor::rowops::{self, JET_LANES};
use mfn_tensor::{timed, ConvStages, PackedConv3d, Tensor};
use rand::Rng;

/// Element-wise activation selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit (paper Fig. 5 default).
    Relu,
    /// Smooth softplus; required when exact second derivatives of the decoder
    /// are wanted (PDE constraints), since ReLU has zero curvature a.e.
    Softplus,
    /// Hyperbolic tangent.
    Tanh,
    /// Identity (no activation).
    Linear,
}

/// An in-place `(y, bias)` pass.
type BiasFn = fn(&mut [f32], &[f32]);

impl Activation {
    /// The row bias add of a Linear layer and this activation in one
    /// in-place pass over the GEMM output `y: [M, bias.len()]` — how the
    /// tape's [`Graph::linear`] node ends.
    pub fn bias_apply_rows(self, y: &mut [f32], bias: &[f32]) {
        self.bias_apply(y, bias, rowops::bias_softplus_rows, rowops::add_bias_rows)
    }

    /// [`Activation::bias_apply_rows`] on the transpose, `y: [bias.len(), M]`
    /// (an output feature is a contiguous row with one bias) — how a layer of
    /// the no-grad [`PackedMlp::forward`] ends. Only where the bias lies
    /// differs: the same element function meets the same sum `y + bias`, so
    /// the two forwards are bit-equal by construction.
    pub fn bias_apply_features(self, y: &mut [f32], bias: &[f32]) {
        self.bias_apply(y, bias, rowops::bias_softplus_features, rowops::add_bias_features)
    }

    /// Bias add and activation over `y` in the layout `softplus` (fused) and
    /// `add` read the bias in.
    fn bias_apply(self, y: &mut [f32], bias: &[f32], softplus: BiasFn, add: BiasFn) {
        if self == Activation::Softplus {
            return softplus(y, bias);
        }
        add(y, bias);
        if self != Activation::Linear {
            for v in y {
                *v = self.derivs(*v)[0];
            }
        }
    }

    /// [`Activation::bias_apply_rows`] on a six-lane stack `y: [JET_LANES·M,
    /// bias.len()]` (value, `∂t`, `∂z`, `∂x`, `∂zz`, `∂xx` of the
    /// pre-activation as row blocks): the bias joins the value block alone,
    /// which comes out as `bias_apply_rows` leaves it, and the activation
    /// acts by the second-order chain rule ([`rowops::bias_jet_rows`]). With
    /// `GRAD`, the reverse pass instead: `y` holds the output adjoint and
    /// `pre` the GEMM output the forward overwrote (unused without `GRAD`).
    /// With `seeds`, pre-activation lanes 1–5 are the three per-column seed
    /// rows and zeros, and `y` (forward) or `pre` (`GRAD`) holds the value
    /// lane alone ([`rowops::bias_jet_rows`]).
    pub fn bias_jet_rows<const GRAD: bool>(
        self,
        y: &mut [f32],
        pre: &[f32],
        bias: &[f32],
        seeds: &[f32],
    ) {
        match self {
            Activation::Softplus => rowops::bias_softplus_jet_rows::<GRAD>(y, pre, bias, seeds),
            // Derivatives pass through the identity untouched.
            Activation::Linear if GRAD => {}
            Activation::Linear if seeds.is_empty() => {
                let value_block = y.len() / JET_LANES;
                rowops::add_bias_rows(&mut y[..value_block], bias)
            }
            _ => rowops::bias_jet_rows::<GRAD>(y, pre, bias, seeds, |x| self.derivs(x)),
        }
    }

    /// The activation and its first three derivatives `[σ, σ′, σ″, σ‴]` at
    /// `x` (the third is what the reverse pass through a second needs).
    pub fn derivs(self, x: f32) -> [f32; 4] {
        match self {
            Activation::Relu => [x.max(0.0), if x > 0.0 { 1.0 } else { 0.0 }, 0.0, 0.0],
            Activation::Softplus => rowops::softplus_derivs(x),
            Activation::Tanh => {
                let t = x.tanh();
                let c = 1.0 - t * t;
                [t, c, -2.0 * t * c, -2.0 * c * (1.0 - 3.0 * t * t)]
            }
            Activation::Linear => [x, 1.0, 0.0, 0.0],
        }
    }
}

/// A fully-connected layer `y = x W^T + b` (weights stored `[out, in]`).
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight parameter, shape `[out, in]`.
    pub weight: ParamId,
    /// Bias parameter, shape `[out]`.
    pub bias: ParamId,
    /// Input features.
    pub in_features: usize,
    /// Output features.
    pub out_features: usize,
}

impl Linear {
    /// Registers a Kaiming-uniform-initialized linear layer.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        name: &str,
        in_features: usize,
        out_features: usize,
        rng: &mut R,
    ) -> Self {
        let bound = (1.0 / in_features as f32).sqrt();
        let w = Tensor::rand_uniform(&[out_features, in_features], -bound, bound, rng);
        let b = Tensor::rand_uniform(&[out_features], -bound, bound, rng);
        Linear {
            weight: store.register(format!("{name}.weight"), w),
            bias: store.register(format!("{name}.bias"), b),
            in_features,
            out_features,
        }
    }

    /// Applies the layer and `act` to the `lanes` row blocks of `x: [lanes·M,
    /// in]`, producing `[lanes·M, out]`, as one [`Graph::linear`] node.
    pub fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        x: Var,
        act: Activation,
        lanes: usize,
    ) -> Var {
        let w = g.param(store, self.weight);
        let b = g.param(store, self.bias);
        g.linear(x, w, b, act, lanes)
    }
}

/// A 3D convolution layer with bias (stride 1, same padding).
#[derive(Debug, Clone)]
pub struct Conv3dLayer {
    /// Kernel parameter `[out, in, kd, kh, kw]`.
    pub weight: ParamId,
    /// Bias parameter `[out]`.
    pub bias: ParamId,
}

impl Conv3dLayer {
    /// Registers a Kaiming-initialized conv layer with kernel `[kd, kh, kw]`.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        name: &str,
        cin: usize,
        cout: usize,
        kernel: [usize; 3],
        rng: &mut R,
    ) -> Self {
        let fan_in = cin * kernel[0] * kernel[1] * kernel[2];
        let std = (2.0 / fan_in as f32).sqrt();
        let w = Tensor::randn(&[cout, cin, kernel[0], kernel[1], kernel[2]], std, rng);
        let b = Tensor::zeros(&[cout]);
        Conv3dLayer {
            weight: store.register(format!("{name}.weight"), w),
            bias: store.register(format!("{name}.bias"), b),
        }
    }

    /// Applies the convolution to `x: [N, Cin, D, H, W]`.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, x: Var) -> Var {
        let w = g.param(store, self.weight);
        let b = g.param(store, self.bias);
        let y = g.conv3d(x, w);
        g.bias_channel(y, b)
    }

    /// Snapshots the layer out of `store` as a [`PackedConv3dLayer`] for
    /// tape-free evaluation: the weight as implicit-GEMM panels, the bias
    /// copied. `vol` is the output voxel count `D·H·W` the layer runs at (a
    /// tile-shape hint, see [`PackedConv3d::pack`]). The snapshot does not
    /// track later updates.
    pub fn pack(&self, store: &ParamStore, vol: usize) -> PackedConv3dLayer {
        PackedConv3dLayer {
            weight: PackedConv3d::pack(store.get(self.weight), vol),
            bias: store.get(self.bias).data().to_vec(),
        }
    }
}

/// An inference-only snapshot of a [`Conv3dLayer`]: weight panels packed
/// once ([`PackedConv3d`]) next to a copy of the bias, so repeated evaluation
/// never touches the parameter store or re-packs a weight.
#[derive(Debug)]
pub struct PackedConv3dLayer {
    weight: PackedConv3d,
    bias: Vec<f32>,
}

impl PackedConv3dLayer {
    /// Eager no-grad forward on `x: [N, Cin, D, H, W]`: the conv, then the
    /// channel bias added in place on the conv's own output. Bit-identical
    /// to what [`Conv3dLayer::forward`] records on the tape — `conv3d_auto`
    /// packs the same panels per call and the bias kernel is shared.
    pub fn forward_nograd(&self, x: &Tensor) -> Tensor {
        let mut y = self.weight.forward(x);
        rowops::add_bias_channels(&mut y, &self.bias);
        y
    }
}

/// Batch normalization over `[N, C, D, H, W]` with running statistics.
#[derive(Debug, Clone)]
pub struct BatchNorm3d {
    /// Scale parameter `[C]`.
    pub gamma: ParamId,
    /// Shift parameter `[C]`.
    pub beta: ParamId,
    /// Running mean, updated in training mode.
    pub running_mean: Vec<f32>,
    /// Running variance, updated in training mode.
    pub running_var: Vec<f32>,
    /// Exponential-moving-average momentum for running stats.
    pub momentum: f32,
    /// Variance fuzz.
    pub eps: f32,
}

impl BatchNorm3d {
    /// Registers a batch-norm layer for `c` channels (γ=1, β=0).
    pub fn new(store: &mut ParamStore, name: &str, c: usize) -> Self {
        BatchNorm3d {
            gamma: store.register(format!("{name}.gamma"), Tensor::ones(&[c])),
            beta: store.register(format!("{name}.beta"), Tensor::zeros(&[c])),
            running_mean: vec![0.0; c],
            running_var: vec![1.0; c],
            momentum: 0.1,
            eps: 1e-5,
        }
    }

    /// Training-mode forward: normalizes with batch statistics and updates
    /// the running averages.
    pub fn forward_train(&mut self, g: &mut Graph, store: &ParamStore, x: Var) -> Var {
        let gamma = g.param(store, self.gamma);
        let beta = g.param(store, self.beta);
        let mut stats = (Vec::new(), Vec::new());
        let y = g.batch_norm(x, gamma, beta, self.eps, Some(&mut stats));
        for (r, &m) in self.running_mean.iter_mut().zip(&stats.0) {
            *r = (1.0 - self.momentum) * *r + self.momentum * m;
        }
        for (r, &v) in self.running_var.iter_mut().zip(&stats.1) {
            *r = (1.0 - self.momentum) * *r + self.momentum * v;
        }
        y
    }

    /// The frozen per-channel affine implied by the running statistics:
    /// `scale = γ/√(var+eps)`, `shift = β − mean·scale`. Both the tape eval
    /// path and the no-grad path derive their affine from here.
    pub fn eval_scale_shift(&self, store: &ParamStore) -> EvalAffine {
        let gamma = store.get(self.gamma).data();
        let beta = store.get(self.beta).data();
        let scale: Vec<f32> =
            gamma.iter().zip(&self.running_var).map(|(&g, &v)| g / (v + self.eps).sqrt()).collect();
        let shift: Vec<f32> = beta
            .iter()
            .zip(&self.running_mean)
            .zip(&scale)
            .map(|((&b, &m), &s)| b - m * s)
            .collect();
        EvalAffine { scale, shift }
    }

    /// Inference-mode forward: frozen affine using the running statistics.
    pub fn forward_eval(&self, g: &mut Graph, store: &ParamStore, x: Var) -> Var {
        let EvalAffine { scale, shift } = self.eval_scale_shift(store);
        g.channel_affine(x, scale, shift)
    }

    /// Dispatches on `training`.
    pub fn forward(&mut self, g: &mut Graph, store: &ParamStore, x: Var, training: bool) -> Var {
        if training {
            self.forward_train(g, store, x)
        } else {
            self.forward_eval(g, store, x)
        }
    }
}

/// Eval-mode batch norm as the per-channel affine it is
/// ([`BatchNorm3d::eval_scale_shift`]): computed once by whoever holds
/// statistics that cannot move, applied in place.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalAffine {
    /// `γ/√(var+eps)` per channel.
    pub scale: Vec<f32>,
    /// `β − mean·scale` per channel.
    pub shift: Vec<f32>,
}

impl EvalAffine {
    /// Eager no-grad inference forward over `x: [N, C, ...]`, in place: the
    /// kernel [`BatchNorm3d::forward_eval`] records on the tape. Never
    /// touches the running statistics.
    pub fn forward_nograd(&self, x: &mut Tensor) {
        rowops::channel_affine(x, &self.scale, &self.shift);
    }
}

/// A multilayer perceptron with a shared hidden activation and linear head.
#[derive(Debug, Clone)]
pub struct Mlp {
    /// The stacked layers, applied in order.
    pub layers: Vec<Linear>,
    /// Hidden activation (the last layer is always linear).
    pub activation: Activation,
}

impl Mlp {
    /// Registers an MLP with the given layer widths, e.g. `[35, 512, ..., 4]`.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        name: &str,
        widths: &[usize],
        activation: Activation,
        rng: &mut R,
    ) -> Self {
        assert!(widths.len() >= 2, "an MLP needs at least input and output widths");
        let layers = widths
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(store, &format!("{name}.fc{i}"), w[0], w[1], rng))
            .collect();
        Mlp { layers, activation }
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.layers.first().expect("non-empty").in_features
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.layers.last().expect("non-empty").out_features
    }

    /// Records the forward pass of `x: [M, in]`, one node per layer: on one
    /// lane, or with `seed` on [`JET_LANES`] — `[JET_LANES·M, out]`, the
    /// value with its derivatives where input column `a < 3` moves at rate
    /// `seed[a]` ([`Graph::linear_seeded`] makes the lanes in the first
    /// layer).
    pub fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        x: Var,
        seed: Option<[f32; 3]>,
    ) -> Var {
        let mut h = x;
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            // Hidden activation on every layer but the linear head.
            let act = if i == last { Activation::Linear } else { self.activation };
            h = match seed {
                None => layer.forward(g, store, h, act, 1),
                Some(seed) if i == 0 => {
                    let (w, b) = (g.param(store, layer.weight), g.param(store, layer.bias));
                    g.linear_seeded(h, w, b, act, seed)
                }
                Some(_) => layer.forward(g, store, h, act, JET_LANES),
            };
        }
        h
    }

    /// Snapshots the current weights out of `store` as a [`PackedMlp`] for
    /// tape-free evaluation. The snapshot does not track later updates.
    pub fn pack(&self, store: &ParamStore) -> PackedMlp {
        let layers = self
            .layers
            .iter()
            .map(|layer| {
                let w = store.get(layer.weight).data();
                (
                    PackedConv3d::pack_linear(w, layer.out_features, layer.in_features),
                    store.get(layer.bias).data().to_vec(),
                )
            })
            .collect();
        PackedMlp { in_features: self.layers[0].in_features, layers, activation: self.activation }
    }
}

/// An inference-only snapshot of an [`Mlp`]: every layer's weight prepacked
/// as the A panels of its GEMM ([`PackedConv3d`] — a `Linear` over `M` points
/// is a 1×1×1 conv over a volume of `M` voxels) next to a copy of its bias,
/// so repeated evaluation never touches the parameter store or re-packs a
/// weight.
///
/// Activations are *feature-major*, `[width, M]`: with the weight on the
/// tile's rows they are the GEMM's B operand as they lie, each layer is `W ·
/// X` and nothing is transposed between layers. An output element is the
/// same `k`-order FMA chain whichever operand sits on the tile's rows, so
/// [`PackedMlp::forward`] is bit-identical to what [`Mlp::forward`] records
/// on the tape — and, because a GEMM column does not depend on how many
/// columns the call has, for any split of the points into blocks.
#[derive(Debug)]
pub struct PackedMlp {
    in_features: usize,
    /// Weight panels and bias (one entry per output feature) of each layer.
    layers: Vec<(PackedConv3d, Vec<f32>)>,
    activation: Activation,
}

impl PackedMlp {
    /// Input width.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.layers.last().expect("non-empty").1.len()
    }

    /// The widest activation any layer reads or writes — what each of
    /// [`PackedMlp::forward`]'s two buffers must hold per point.
    pub fn max_width(&self) -> usize {
        self.layers.iter().map(|(_, b)| b.len()).fold(self.in_features, usize::max)
    }

    /// Evaluates the MLP on the `m` points at the front of `x` (`[in, m]`:
    /// feature `f` of point `r` at `x[f·m + r]`), ping-ponging layer outputs
    /// between `x` and `y`, and returns the `[out, m]` result (a prefix of
    /// whichever buffer the last layer wrote). Both buffers must hold at
    /// least `m * max_width()` elements. With `stages`, each layer's B-pack,
    /// micro-kernel and bias + activation times are added to it (`None`
    /// reads no clock).
    pub fn forward<'a>(
        &self,
        m: usize,
        x: &'a mut [f32],
        y: &'a mut [f32],
        mut stages: Option<&mut ConvStages>,
    ) -> &'a [f32] {
        let (mut cur, mut next, mut width) = (x, y, self.in_features);
        let last = self.layers.len() - 1;
        for (i, (weight, bias)) in self.layers.iter().enumerate() {
            let out = &mut next[..m * bias.len()];
            weight.forward_slices(&cur[..m * width], [1, 1, m], out, stages.as_deref_mut());
            width = bias.len();
            // Hidden activation on every layer but the linear head.
            let act = if i == last { Activation::Linear } else { self.activation };
            timed(&mut stages, |s| &mut s.epilogue_ns, || act.bias_apply_features(out, bias));
            std::mem::swap(&mut cur, &mut next);
        }
        &cur[..m * self.out_features()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn linear_forward_matches_manual() {
        let mut store = ParamStore::new();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let lin = Linear::new(&mut store, "l", 3, 2, &mut rng);
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]));
        let y = lin.forward(&mut g, &store, x, Activation::Linear, 1);
        let w = store.get(lin.weight);
        let b = store.get(lin.bias);
        for o in 0..2 {
            let manual: f32 =
                (0..3).map(|i| w.at(&[o, i]) * (i as f32 + 1.0)).sum::<f32>() + b.data()[o];
            assert!((g.value(y).data()[o] - manual).abs() < 1e-5);
        }
    }

    #[test]
    fn conv_layer_shapes() {
        let mut store = ParamStore::new();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let conv = Conv3dLayer::new(&mut store, "c", 2, 4, [3, 3, 3], &mut rng);
        let mut g = Graph::new();
        let x = g.constant(Tensor::ones(&[1, 2, 3, 4, 5]));
        let y = conv.forward(&mut g, &store, x);
        assert_eq!(g.value(y).dims(), &[1, 4, 3, 4, 5]);
    }

    #[test]
    fn batchnorm_train_normalizes() {
        let mut store = ParamStore::new();
        let mut bn = BatchNorm3d::new(&mut store, "bn", 2);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let x = Tensor::randn(&[4, 2, 2, 2, 2], 3.0, &mut rng).map(|v| v + 5.0);
        let mut g = Graph::new();
        let xv = g.constant(x);
        let y = bn.forward_train(&mut g, &store, xv);
        let yv = g.value(y);
        // Per-channel mean ~0, var ~1 after normalization with gamma=1, beta=0.
        let inner = 8;
        let (n, c) = (4, 2);
        for ci in 0..c {
            let mut vals = Vec::new();
            for ni in 0..n {
                let off = (ni * c + ci) * inner;
                vals.extend_from_slice(&yv.data()[off..off + inner]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 = vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
        // Running stats moved toward the batch stats.
        assert!(bn.running_mean[0] != 0.0);
    }

    #[test]
    fn batchnorm_eval_uses_running_stats() {
        let mut store = ParamStore::new();
        let mut bn = BatchNorm3d::new(&mut store, "bn", 1);
        bn.running_mean = vec![2.0];
        bn.running_var = vec![4.0];
        let mut g = Graph::new();
        let x = g.constant(Tensor::full(&[1, 1, 1, 1, 2], 6.0));
        let y = bn.forward_eval(&mut g, &store, x);
        // (6 - 2)/2 = 2
        for &v in g.value(y).data() {
            assert!((v - 2.0).abs() < 1e-4);
        }
    }

    #[test]
    fn mlp_shapes_and_determinism() {
        let mut store = ParamStore::new();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mlp = Mlp::new(&mut store, "mlp", &[5, 8, 8, 2], Activation::Softplus, &mut rng);
        assert_eq!(mlp.in_features(), 5);
        assert_eq!(mlp.out_features(), 2);
        let x = Tensor::ones(&[4, 5]);
        let mut g1 = Graph::new();
        let v1 = {
            let xv = g1.constant(x.clone());
            let y = mlp.forward(&mut g1, &store, xv, None);
            g1.value(y).clone()
        };
        let mut g2 = Graph::new();
        let xv = g2.constant(x);
        let y = mlp.forward(&mut g2, &store, xv, None);
        assert_eq!(&v1, g2.value(y));
        assert_eq!(v1.dims(), &[4, 2]);
    }

    /// The no-grad snapshot is the tape, bit for bit: every layer of
    /// `PackedMlp::forward` (weight on the tile's rows, feature-major
    /// activations, `bias_apply_features`) against `Mlp::forward`'s
    /// `Graph::linear` nodes, for every hidden activation, on every backend
    /// this host runs — panels packed under one override, run under another.
    #[test]
    fn packed_mlp_is_bit_identical_to_the_tape() {
        use mfn_tensor::{set_backend_override, KernelBackend};
        // A tier the host lacks falls back to the detected one: a repeat.
        let backends = [KernelBackend::Avx512, KernelBackend::Avx2Fma, KernelBackend::Portable];
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for act in [Activation::Softplus, Activation::Relu, Activation::Tanh, Activation::Linear] {
            // 300 is deeper than one `KC` block; the head is 4 wide.
            for widths in [&[19usize, 64, 32, 4][..], &[300, 33, 4]] {
                let mut store = ParamStore::new();
                let mlp = Mlp::new(&mut store, "m", widths, act, &mut rng);
                for m in [8usize, 24, 504, 512] {
                    let x = Tensor::randn(&[m, widths[0]], 1.5, &mut rng);
                    let mut g = Graph::new();
                    let xv = g.constant(x.clone());
                    let y = mlp.forward(&mut g, &store, xv, None);
                    let want = g.value(y).data();
                    for &pack_on in &backends {
                        set_backend_override(Some(pack_on));
                        let packed = mlp.pack(&store);
                        for &run_on in &backends {
                            set_backend_override(Some(run_on));
                            let mut a = vec![f32::NAN; m * packed.max_width()];
                            let mut b = a.clone();
                            for (i, &v) in x.data().iter().enumerate() {
                                a[i % widths[0] * m + i / widths[0]] = v;
                            }
                            let got = packed.forward(m, &mut a, &mut b, None);
                            for (i, want) in want.iter().enumerate() {
                                assert_eq!(
                                    got[i % 4 * m + i / 4].to_bits(),
                                    want.to_bits(),
                                    "{act:?} {widths:?} rows {m} packed on {} run on {} elem {i}",
                                    pack_on.name(),
                                    run_on.name()
                                );
                            }
                        }
                    }
                }
            }
        }
        set_backend_override(None);
    }

    #[test]
    fn activation_derivatives_match_finite_differences() {
        for act in [Activation::Softplus, Activation::Tanh, Activation::Linear] {
            for &x in &[-2.0f32, -0.3, 0.7, 3.0] {
                // f32 round-off dominates second differences at tiny h, so use
                // a moderate step and loose-but-meaningful tolerances.
                let h = 5e-2f32;
                let ([vm, _, d2m, _], [v, d1, d2, d3], [vp, _, d2p, _]) =
                    (act.derivs(x - h), act.derivs(x), act.derivs(x + h));
                assert!((d1 - (vp - vm) / (2.0 * h)).abs() < 1e-3, "{act:?} d1 at {x}");
                assert!((d2 - (vp - 2.0 * v + vm) / (h * h)).abs() < 2e-2, "{act:?} d2 at {x}");
                assert!((d3 - (d2p - d2m) / (2.0 * h)).abs() < 1e-2, "{act:?} d3 at {x}");
            }
        }
    }
}
