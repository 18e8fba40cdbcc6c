//! The reverse-mode autodiff tape.
//!
//! A [`Graph`] records every operation of one forward pass as a node holding
//! the op kind, its input [`Var`]s, and the computed value. [`Graph::backward`]
//! then walks the tape in reverse, accumulating adjoints. The design mirrors a
//! classic "Wengert list": no interior mutability, no `Rc` cycles — a graph is
//! a plain `Vec` owned by the caller, which makes it trivially `Send` and lets
//! the data-parallel trainer give every worker thread its own tape.
//!
//! A tape is **single-use**: one forward pass, one [`Graph::backward`]. The
//! sweep *takes* each interior node's adjoint and op out of the node — the
//! adjoint is scaled in place, moved on to an input or dropped back into the
//! workspace pool the moment it has been propagated, and whatever the op
//! saved for backward goes with it — so afterwards only leaves hold a
//! gradient ([`Graph::grad`], [`Graph::try_grad`], [`Graph::param_grads`]);
//! every node keeps its value. An operand's adjoint is computed only if that
//! operand requires a gradient.
//!
//! A fully-connected layer is one node, [`Graph::linear`], on feature-major
//! activations `[width, M]` — the layout of the no-grad `PackedMlp::forward`
//! and of the U-Net's convs: the layer is the 1×1×1 convolution over `M`
//! voxels, run by the conv driver (`PackedConv3d::forward_slices`, and
//! `conv3d_grad_input` / `conv3d_grad_weight` backward), then
//! [`Activation::bias_apply_features`] in place on its output, so the tape
//! and the no-grad forward agree bit for bit. It saves what backward needs
//! once: its own output (which the next layer reads anyway) and, for
//! softplus only, a copy of the GEMM output.
//!
//! The same node differentiates the network with respect to its *inputs* —
//! how the PDE residuals get exact derivatives of the decoder: on
//! [`JET_LANES`] lanes each feature row holds a value and five derivatives
//! of it as column blocks, the GEMM maps all six with the same weight (a
//! linear map commutes with differentiation) and the activation acts by the
//! second-order chain rule ([`Activation::bias_jet_features`]). The lanes
//! being ordinary node values, a loss on the derivatives reaches weights and
//! latent in reverse. Where the lanes begin — the network's input, whose
//! derivatives are a constant seed — [`Graph::linear_seeded`] is that node
//! taking the value lane alone: the seed lanes never exist, so no GEMM
//! multiplies their zeros.

use crate::nn::Activation;
use crate::params::{ParamId, ParamStore};
use mfn_tensor::{
    conv3d_auto, conv3d_grad_input, conv3d_grad_weight, maxpool3d, maxpool3d_backward,
    upsample_nearest3d, upsample_nearest3d_backward, Conv3dDims, PackedConv3d, Tensor,
};
use mfn_tensor::{rowops, workspace};

pub use mfn_tensor::rowops::JET_LANES;

/// A handle to a node on the tape (an SSA value of the recorded program).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

/// The operation that produced a node's value. Not `Clone`: backward moves
/// an op (index and weight vectors, saved tensors) out of its node.
#[derive(Debug)]
enum Op {
    /// An input: parameter, constant, or mini-batch data.
    Leaf,
    Add(Var, Var),
    Sub(Var, Var),
    /// Element-wise (Hadamard) product.
    Mul(Var, Var),
    Scale(Var, f32),
    AddScalar(Var),
    /// A fully-connected layer `act(w · x + b)` for the feature-major `x:
    /// [in, lanes·M]`, `w: [out, in]`, `b: [out]` — or, with a `seed`, for
    /// the one-lane `x: [in, M]` of [`Graph::linear_seeded`], whose six-lane
    /// output the seed makes. `pre` is the GEMM output `w · x`, kept only
    /// where backward cannot work from the node's own value (softplus; any
    /// curved activation of a jet) — under a seed, always: it is the value
    /// lane's, the GEMM's own output buffer, and backward leaves the value
    /// lane's adjoint in it.
    Linear {
        x: Var,
        w: Var,
        b: Var,
        act: Activation,
        pre: Option<Tensor>,
        lanes: usize,
        seed: Option<[f32; 3]>,
    },
    /// `x + b` broadcasting `b: [C]` over channel dim 1 of `x: [N, C, ...]`.
    BiasChannel(Var, Var),
    Relu(Var),
    Softplus(Var),
    Tanh(Var),
    Abs(Var),
    /// Sum of all elements → scalar.
    Sum(Var),
    /// Mean of all elements → scalar.
    Mean(Var),
    /// Concatenation along `axis`; stores each part's size on that axis.
    Concat {
        inputs: Vec<Var>,
        axis: usize,
        sizes: Vec<usize>,
    },
    /// The slab `start..start + len` of `input` along `axis`.
    Narrow {
        input: Var,
        axis: usize,
        start: usize,
        len: usize,
    },
    Conv3d {
        input: Var,
        weight: Var,
        dims: Conv3dDims,
    },
    MaxPool3d {
        input: Var,
        indices: Vec<u32>,
        in_dims: Vec<usize>,
    },
    Upsample3d {
        input: Var,
        factors: [usize; 3],
    },
    /// Batch normalization over all axes but the channel axis (dim 1), in
    /// training mode: saves the per-channel batch statistics for backward.
    BatchNorm {
        input: Var,
        gamma: Var,
        beta: Var,
        mean: Vec<f32>,
        invstd: Vec<f32>,
    },
    /// Frozen per-channel affine `y = x * scale[c] + shift[c]` (inference-mode
    /// batch norm); only `x` receives gradient (the shift needs no storage).
    ChannelAffine {
        input: Var,
        scale: Vec<f32>,
    },
    /// Vertex gather from a 5D latent grid under a constant prefix: column
    /// `m` of the output's last `C` feature rows is `grid[n_m, :, d_m, h_m,
    /// w_m]` with the flat spatial index stored in `index[m]` (already
    /// combined as `n*vol + offset`).
    GatherVertices {
        grid: Var,
        index: Vec<u32>,
    },
    /// Blend groups of `group` consecutive points of the feature-major `x:
    /// [C, Q·group]` with fixed weights into rows:
    /// `out[q, c] = sum_v weights[q*group + v] * x[c, q*group + v]`.
    VertexBlend {
        input: Var,
        weights: Vec<f32>,
        group: usize,
    },
}

impl Op {
    /// Short name for taint diagnostics.
    #[cfg(debug_assertions)]
    fn name(&self) -> &'static str {
        match self {
            Op::Leaf => "leaf",
            Op::Add(..) => "add",
            Op::Sub(..) => "sub",
            Op::Mul(..) => "mul",
            Op::Scale(..) => "scale",
            Op::AddScalar(..) => "add_scalar",
            Op::Linear { .. } => "linear",
            Op::BiasChannel(..) => "bias_channel",
            Op::Relu(..) => "relu",
            Op::Softplus(..) => "softplus",
            Op::Tanh(..) => "tanh",
            Op::Abs(..) => "abs",
            Op::Sum(..) => "sum",
            Op::Mean(..) => "mean",
            Op::Concat { .. } => "concat",
            Op::Narrow { .. } => "narrow",
            Op::Conv3d { .. } => "conv3d",
            Op::MaxPool3d { .. } => "maxpool3d",
            Op::Upsample3d { .. } => "upsample3d",
            Op::BatchNorm { .. } => "batch_norm",
            Op::ChannelAffine { .. } => "channel_affine",
            Op::GatherVertices { .. } => "gather_vertices",
            Op::VertexBlend { .. } => "vertex_blend",
        }
    }

    /// Graph-input operands of this op (for taint propagation).
    #[cfg(debug_assertions)]
    fn inputs(&self) -> Vec<Var> {
        match self {
            Op::Leaf => vec![],
            Op::Add(a, b) | Op::Sub(a, b) | Op::Mul(a, b) | Op::BiasChannel(a, b) => vec![*a, *b],
            Op::Linear { x, w, b, .. } => vec![*x, *w, *b],
            Op::Scale(a, _)
            | Op::AddScalar(a)
            | Op::Relu(a)
            | Op::Softplus(a)
            | Op::Tanh(a)
            | Op::Abs(a)
            | Op::Sum(a)
            | Op::Mean(a) => vec![*a],
            Op::Concat { inputs, .. } => inputs.clone(),
            Op::Narrow { input, .. }
            | Op::MaxPool3d { input, .. }
            | Op::Upsample3d { input, .. }
            | Op::ChannelAffine { input, .. }
            | Op::VertexBlend { input, .. } => vec![*input],
            Op::Conv3d { input, weight, .. } => vec![*input, *weight],
            Op::BatchNorm { input, gamma, beta, .. } => vec![*input, *gamma, *beta],
            Op::GatherVertices { grid, .. } => vec![*grid],
        }
    }
}

struct Node {
    value: Tensor,
    grad: Option<Tensor>,
    op: Op,
    requires_grad: bool,
    /// Debug builds track whether this node's value contains a non-finite
    /// element, so the first op that *creates* one from healthy inputs can be
    /// blamed directly instead of surfacing as a NaN loss much later.
    #[cfg(debug_assertions)]
    tainted: bool,
}

/// A single-use forward/backward tape.
pub struct Graph {
    nodes: Vec<Node>,
    /// Parameter leaves registered via [`Graph::param`], for gradient export.
    param_vars: Vec<(ParamId, Var)>,
    /// Whether [`Graph::param`] records constants
    /// ([`Graph::with_frozen_params`]).
    frozen_params: bool,
    /// Set by [`Graph::backward`], which may run once.
    swept: bool,
}

impl Default for Graph {
    fn default() -> Self {
        Self::new()
    }
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Graph {
            nodes: Vec::with_capacity(256),
            param_vars: Vec::new(),
            frozen_params: false,
            swept: false,
        }
    }

    /// An empty tape on which [`Graph::param`] records constants: the layers
    /// run forward on the store's weights, but nothing is differentiated
    /// with respect to them and backward spends no work on their adjoints.
    /// For descending something other than the weights through a trained
    /// network (test-time refinement descends the latent grid).
    pub fn with_frozen_params() -> Self {
        Graph { frozen_params: true, ..Graph::new() }
    }

    fn push(&mut self, value: Tensor, op: Op, requires_grad: bool) -> Var {
        // Taint check (debug builds only): if this op's output contains a
        // NaN/inf but none of its inputs did, the non-finite value was
        // *produced here* — fail at the op that made it, not at the loss.
        // Leaves are exempt: feeding non-finite data in is the caller's
        // prerogative (it marks the node tainted, silencing downstream ops).
        #[cfg(debug_assertions)]
        let tainted = {
            let bad = value.has_non_finite();
            if bad && !matches!(op, Op::Leaf) {
                let inherited = op.inputs().iter().any(|v| self.nodes[v.0].tainted);
                debug_assert!(
                    inherited,
                    "op `{}` (node {}) produced non-finite values from finite inputs",
                    op.name(),
                    self.nodes.len()
                );
            }
            bad
        };
        self.nodes.push(Node {
            value,
            grad: None,
            op,
            requires_grad,
            #[cfg(debug_assertions)]
            tainted,
        });
        Var(self.nodes.len() - 1)
    }

    fn rg(&self, v: Var) -> bool {
        self.nodes[v.0].requires_grad
    }

    /// Records a trainable-parameter leaf (value copied from the store) —
    /// or, on a tape [`Graph::with_frozen_params`], the same value as a
    /// constant.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        if self.frozen_params {
            return self.constant(store.get(id).clone());
        }
        let v = self.push(store.get(id).clone(), Op::Leaf, true);
        self.param_vars.push((id, v));
        v
    }

    /// Records a non-trainable input (data, coordinates, targets).
    pub fn constant(&mut self, t: Tensor) -> Var {
        self.push(t, Op::Leaf, false)
    }

    /// Records a leaf that requires gradient but is not a parameter
    /// (used in tests and for input-sensitivity probes).
    pub fn leaf_with_grad(&mut self, t: Tensor) -> Var {
        self.push(t, Op::Leaf, true)
    }

    /// The value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// The accumulated gradient of a leaf (after [`Graph::backward`], which
    /// leaves none on interior nodes).
    ///
    /// # Panics
    /// Panics if the node holds no gradient.
    pub fn grad(&self, v: Var) -> &Tensor {
        self.nodes[v.0]
            .grad
            .as_ref()
            .unwrap_or_else(|| panic!("no gradient for node {}; did you call backward()?", v.0))
    }

    /// The gradient of a node, or `None` if it holds none: it never received
    /// one, or it is an interior node and backward has passed it on.
    pub fn try_grad(&self, v: Var) -> Option<&Tensor> {
        self.nodes[v.0].grad.as_ref()
    }

    /// Number of recorded nodes (for diagnostics).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    // ---- arithmetic ----

    /// Element-wise sum of two same-shaped nodes.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.add(&self.nodes[b.0].value);
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::Add(a, b), rg)
    }

    /// Element-wise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.sub(&self.nodes[b.0].value);
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::Sub(a, b), rg)
    }

    /// Element-wise product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.mul(&self.nodes[b.0].value);
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::Mul(a, b), rg)
    }

    /// Multiplication by a compile-time-known scalar.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let v = self.nodes[a.0].value.scale(s);
        let rg = self.rg(a);
        self.push(v, Op::Scale(a, s), rg)
    }

    /// Addition of a scalar constant.
    pub fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        let v = self.nodes[a.0].value.map(|x| x + s);
        let rg = self.rg(a);
        self.push(v, Op::AddScalar(a), rg)
    }

    /// A fully-connected layer `act(w · x + b)` as one node on feature-major
    /// activations: `x: [in, M]`, `w: [out, in]` (gradients arrive in that
    /// layout), `b: [out]` → `[out, M]`. The value is the 1×1×1 convolution
    /// over `M` voxels on the conv driver (`PackedConv3d::pack_linear` and
    /// `forward_slices`, what a layer of the no-grad `PackedMlp::forward`
    /// runs) followed by [`Activation::bias_apply_features`] in place on its
    /// output — that layer, bit for bit.
    ///
    /// With `lanes = JET_LANES`, `x: [in, 6·M]` holds a value and five
    /// derivatives as column blocks of each feature row (module docs): still
    /// one GEMM, whose value columns are the 1-lane node's bit for bit — a
    /// GEMM column does not depend on the columns around it — then
    /// [`Activation::bias_jet_features`].
    pub fn linear(&mut self, x: Var, w: Var, b: Var, act: Activation, lanes: usize) -> Var {
        assert!(lanes == 1 || lanes == JET_LANES, "a layer runs on 1 or {JET_LANES} lanes");
        let mut y = self.linear_gemm(x, w);
        let cols = y.dims()[1];
        assert!(cols.is_multiple_of(lanes), "{cols} columns are not {lanes} lanes");
        let rg = self.rg(x) || self.rg(w) || self.rg(b);
        // Softplus' is a function of the pre-activation, which the in-place
        // activation overwrites; the other derivatives read the output. A
        // curved activation of a jet reads every pre-activation lane.
        let curved_jet = lanes > 1 && act != Activation::Linear;
        let pre = (rg && (curved_jet || act == Activation::Softplus)).then(|| y.clone());
        let bias = self.nodes[b.0].value.data();
        if lanes == 1 {
            act.bias_apply_features(y.data_mut(), bias);
        } else {
            act.bias_jet_features::<false>(y.data_mut(), &mut [], bias, &[]);
        }
        self.push(y, Op::Linear { x, w, b, act, pre, lanes, seed: None }, rg)
    }

    /// The first layer of a six-lane decode as one node: [`Graph::linear`]
    /// on `JET_LANES` lanes of the one-lane `x: [in, M]` and its derivative
    /// lanes, which are not recorded anywhere but made here from `seed`:
    /// input feature `a < 3` moves at rate `seed[a]` along lane `1 + a`,
    /// every other feature is constant and nothing has curvature. The value
    /// is the `[out, JET_LANES·M]` matrix `linear` returns for that input,
    /// bit for bit, without multiplying a zero: one GEMM over the value
    /// lane, and an epilogue that reads pre-activation lane `1 + a` of
    /// output feature `f` as the one scalar `seed[a] · w[f, a]` (all a
    /// seeded column's GEMM sums to) and lanes 4 and 5 as zeros. It saves
    /// the value lane's GEMM output alone for backward, which reads `x`
    /// alone: the seed lanes are constants, so `dx` is the value lane's and
    /// `dw` the value lane's plus `seed[a] · Σ_points dz_{1+a}` in column `a`.
    pub fn linear_seeded(
        &mut self,
        x: Var,
        w: Var,
        b: Var,
        act: Activation,
        seed: [f32; 3],
    ) -> Var {
        assert!(self.nodes[w.0].value.dims()[1] >= 3, "a seeded layer reads 3 coordinates");
        let mut pre = self.linear_gemm(x, w);
        let (n, m) = (pre.dims()[0], pre.dims()[1]);
        let mut y =
            Tensor::from_vec(workspace::take_vec_scratch(JET_LANES * n * m), &[n, JET_LANES * m]);
        let seeds = seed_scalars(&self.nodes[w.0].value, Some(seed));
        let bias = self.nodes[b.0].value.data();
        act.bias_jet_features::<false>(y.data_mut(), pre.data_mut(), bias, &seeds);
        let rg = self.rg(x) || self.rg(w) || self.rg(b);
        let op =
            Op::Linear { x, w, b, act, pre: rg.then_some(pre), lanes: JET_LANES, seed: Some(seed) };
        self.push(y, op, rg)
    }

    /// `w · x` of a layer node on the conv driver: the 1×1×1 convolution
    /// over the columns of `x: [in, cols]`, `[out, cols]`.
    fn linear_gemm(&self, x: Var, w: Var) -> Tensor {
        let (xv, wv) = (&self.nodes[x.0].value, &self.nodes[w.0].value);
        assert_eq!(xv.shape().rank(), 2, "a layer reads feature rows");
        let ((k, cols), n) = ((xv.dims()[0], xv.dims()[1]), wv.dims()[0]);
        assert_eq!(wv.dims()[1], k, "the weight's inputs are the input's feature rows");
        let mut y = workspace::take_vec_scratch(n * cols);
        PackedConv3d::pack_linear(wv.data(), n, k).forward_slices(
            xv.data(),
            [1, 1, cols],
            &mut y,
            None,
        );
        Tensor::from_vec(y, &[n, cols])
    }

    /// Adds bias `b: [C]` over channel dim 1 of `x: [N, C, ...]`.
    pub fn bias_channel(&mut self, x: Var, b: Var) -> Var {
        let xv = &self.nodes[x.0].value;
        let bv = &self.nodes[b.0].value;
        let mut out = xv.clone();
        rowops::add_bias_channels(&mut out, bv.data());
        let rg = self.rg(x) || self.rg(b);
        self.push(out, Op::BiasChannel(x, b), rg)
    }

    // ---- activations ----

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.map(|x| x.max(0.0));
        let rg = self.rg(a);
        self.push(v, Op::Relu(a), rg)
    }

    /// Softplus `ln(1 + e^x)` — a smooth (C^∞) ReLU surrogate, used by the
    /// continuous decoder so second spatial derivatives exist for the PDE
    /// constraints.
    pub fn softplus(&mut self, a: Var) -> Var {
        let mut v = self.nodes[a.0].value.clone();
        rowops::softplus_slice(v.data_mut());
        let rg = self.rg(a);
        self.push(v, Op::Softplus(a), rg)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.map(f32::tanh);
        let rg = self.rg(a);
        self.push(v, Op::Tanh(a), rg)
    }

    /// Element-wise absolute value (the L1-loss kernel).
    pub fn abs(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.map(f32::abs);
        let rg = self.rg(a);
        self.push(v, Op::Abs(a), rg)
    }

    // ---- reductions & shape ----

    /// Sum of all elements, yielding a scalar node.
    pub fn sum(&mut self, a: Var) -> Var {
        let v = Tensor::scalar(self.nodes[a.0].value.sum());
        let rg = self.rg(a);
        self.push(v, Op::Sum(a), rg)
    }

    /// Mean of all elements, yielding a scalar node.
    pub fn mean(&mut self, a: Var) -> Var {
        let v = Tensor::scalar(self.nodes[a.0].value.mean());
        let rg = self.rg(a);
        self.push(v, Op::Mean(a), rg)
    }

    /// Concatenates nodes along `axis`.
    pub fn concat(&mut self, inputs: &[Var], axis: usize) -> Var {
        let tensors: Vec<&Tensor> = inputs.iter().map(|v| &self.nodes[v.0].value).collect();
        let sizes: Vec<usize> = tensors.iter().map(|t| t.dims()[axis]).collect();
        let v = Tensor::concat(&tensors, axis);
        let rg = inputs.iter().any(|&i| self.rg(i));
        self.push(v, Op::Concat { inputs: inputs.to_vec(), axis, sizes }, rg)
    }

    /// The slab `start..start + len` of a node along `axis`.
    pub fn narrow(&mut self, x: Var, axis: usize, start: usize, len: usize) -> Var {
        let v = self.nodes[x.0].value.narrow(axis, start, len);
        let rg = self.rg(x);
        self.push(v, Op::Narrow { input: x, axis, start, len }, rg)
    }

    // ---- structured NN ops ----

    /// 3D convolution (stride 1, same padding).
    pub fn conv3d(&mut self, input: Var, weight: Var) -> Var {
        let dims = Conv3dDims::infer(&self.nodes[input.0].value, &self.nodes[weight.0].value);
        let v = conv3d_auto(&self.nodes[input.0].value, &self.nodes[weight.0].value);
        let rg = self.rg(input) || self.rg(weight);
        self.push(v, Op::Conv3d { input, weight, dims }, rg)
    }

    /// Max pooling by integer factors.
    pub fn maxpool3d(&mut self, input: Var, factors: [usize; 3]) -> Var {
        let in_dims = self.nodes[input.0].value.dims().to_vec();
        let (v, indices) = maxpool3d(&self.nodes[input.0].value, factors);
        let rg = self.rg(input);
        self.push(v, Op::MaxPool3d { input, indices, in_dims }, rg)
    }

    /// Nearest-neighbor upsampling by integer factors.
    pub fn upsample3d(&mut self, input: Var, factors: [usize; 3]) -> Var {
        let v = upsample_nearest3d(&self.nodes[input.0].value, factors);
        let rg = self.rg(input);
        self.push(v, Op::Upsample3d { input, factors }, rg)
    }

    /// Training-mode batch normalization over every axis except channel dim 1.
    ///
    /// Returns the normalized output; the batch mean/variance used are
    /// reported through `stats_out` so the layer can maintain running
    /// statistics.
    pub fn batch_norm(
        &mut self,
        input: Var,
        gamma: Var,
        beta: Var,
        eps: f32,
        stats_out: Option<&mut (Vec<f32>, Vec<f32>)>,
    ) -> Var {
        let xv = &self.nodes[input.0].value;
        assert!(xv.shape().rank() >= 2);
        let (n, c) = (xv.dims()[0], xv.dims()[1]);
        let inner: usize = xv.dims()[2..].iter().product();
        let count = (n * inner) as f64;
        assert!(count >= 1.0, "batch_norm on empty batch");
        let mut mean = vec![0.0f64; c];
        let mut var = vec![0.0f64; c];
        let x = xv.data();
        for ni in 0..n {
            for ci in 0..c {
                let slab = &x[(ni * c + ci) * inner..(ni * c + ci + 1) * inner];
                for &v in slab {
                    mean[ci] += v as f64;
                }
            }
        }
        for m in mean.iter_mut() {
            *m /= count;
        }
        for ni in 0..n {
            for ci in 0..c {
                let slab = &x[(ni * c + ci) * inner..(ni * c + ci + 1) * inner];
                for &v in slab {
                    let d = v as f64 - mean[ci];
                    var[ci] += d * d;
                }
            }
        }
        for v in var.iter_mut() {
            *v /= count;
        }
        let mean32: Vec<f32> = mean.iter().map(|&m| m as f32).collect();
        let invstd: Vec<f32> = var.iter().map(|&v| 1.0 / ((v as f32 + eps).sqrt())).collect();
        if let Some(stats) = stats_out {
            stats.0 = mean32.clone();
            stats.1 = var.iter().map(|&v| v as f32).collect();
        }
        let g = self.nodes[gamma.0].value.data().to_vec();
        let b = self.nodes[beta.0].value.data().to_vec();
        let mut out = workspace::take_vec_scratch(x.len());
        for ni in 0..n {
            for ci in 0..c {
                let off = (ni * c + ci) * inner;
                let (m, is, gg, bb) = (mean32[ci], invstd[ci], g[ci], b[ci]);
                for k in 0..inner {
                    out[off + k] = (x[off + k] - m) * is * gg + bb;
                }
            }
        }
        let value = Tensor::from_vec(out, xv.dims());
        let rg = self.rg(input) || self.rg(gamma) || self.rg(beta);
        self.push(value, Op::BatchNorm { input, gamma, beta, mean: mean32, invstd }, rg)
    }

    /// Inference-mode per-channel affine `y[c] = x[c] * scale[c] + shift[c]`.
    pub fn channel_affine(&mut self, input: Var, scale: Vec<f32>, shift: Vec<f32>) -> Var {
        let xv = &self.nodes[input.0].value;
        let mut out = xv.clone();
        rowops::channel_affine(&mut out, &scale, &shift);
        let rg = self.rg(input);
        self.push(out, Op::ChannelAffine { input, scale }, rg)
    }

    /// The decoder's MLP input: the `K` per-point values of `prefix: [M, K]`
    /// (constants) over the vertex latents gathered from `grid: [N, C, D, H,
    /// W]`, feature-major `[K + C, M]` ([`rowops::gather_features`]).
    ///
    /// `index[m] = n*D*H*W + (d*H + h)*W + w` selects the vertex of point
    /// `m`.
    pub fn gather_vertices(&mut self, grid: Var, index: Vec<u32>, prefix: &[f32]) -> Var {
        assert!(!index.is_empty(), "a gather of no vertices");
        let gv = &self.nodes[grid.0].value;
        let (m, rows) = (index.len(), prefix.len() / index.len() + gv.dims()[1]);
        let mut out = workspace::take_vec_scratch(rows * m);
        rowops::gather_features(gv, &index, prefix, &mut out);
        let rg = self.rg(grid);
        self.push(Tensor::from_vec(out, &[rows, m]), Op::GatherVertices { grid, index }, rg)
    }

    /// Blends groups of `group` consecutive points of the feature-major `x:
    /// [C, Q*group]` with fixed weights (`weights.len() == Q*group`) into rows
    /// `[Q, C]` — the trilinear vertex interpolation of paper Eqn. 6
    /// ([`rowops::blend_features_into`]).
    pub fn vertex_blend(&mut self, input: Var, weights: Vec<f32>, group: usize) -> Var {
        let c = self.nodes[input.0].value.dims()[0];
        let q = weights.len() / group;
        let mut out = workspace::take_vec_scratch(q * c);
        rowops::blend_features_into(self.nodes[input.0].value.data(), &weights, group, &mut out);
        let rg = self.rg(input);
        self.push(Tensor::from_vec(out, &[q, c]), Op::VertexBlend { input, weights, group }, rg)
    }

    // ---- composite losses ----

    /// Mean absolute error between two same-shaped nodes (paper's L1 norm in
    /// Eqns. 8–9).
    pub fn l1_loss(&mut self, pred: Var, target: Var) -> Var {
        let d = self.sub(pred, target);
        let a = self.abs(d);
        self.mean(a)
    }

    /// Mean squared error between two same-shaped nodes.
    pub fn mse_loss(&mut self, pred: Var, target: Var) -> Var {
        let d = self.sub(pred, target);
        let sq = self.mul(d, d);
        self.mean(sq)
    }

    // ---- backward ----

    /// Reverse-mode sweep seeding `d loss / d loss = 1`. Consumes the tape's
    /// interior (module docs): afterwards leaves hold their gradients and
    /// every node its value, nothing else.
    ///
    /// # Panics
    /// Panics if `loss` is not a single-element node, or on a second call.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(self.nodes[loss.0].value.numel(), 1, "backward seed must be scalar");
        let seed = Tensor::ones(self.nodes[loss.0].value.dims());
        self.backward_with(loss, seed);
    }

    /// [`Graph::backward`] from any node, its adjoint given: the sweep of
    /// `⟨adjoint, v⟩`, a vector–Jacobian product.
    ///
    /// # Panics
    /// Panics if `adjoint` is not shaped like `v`, or on a second sweep.
    pub fn backward_with(&mut self, v: Var, adjoint: Tensor) {
        assert_eq!(adjoint.dims(), self.nodes[v.0].value.dims(), "adjoint shape mismatch");
        assert!(!self.swept, "a tape is single-use: backward already ran on it");
        self.swept = true;
        self.nodes[v.0].grad = Some(adjoint);
        for i in (0..self.nodes.len()).rev() {
            let node = &mut self.nodes[i];
            // A leaf has nothing to propagate to and keeps its adjoint.
            if matches!(node.op, Op::Leaf) {
                continue;
            }
            let Some(grad) = node.grad.take() else { continue };
            let op = std::mem::replace(&mut node.op, Op::Leaf);
            self.backprop_node(i, grad, op);
        }
    }

    /// Adds `g` to the adjoint of `v`, taking the buffer over if it is the
    /// first contribution. No-op (the buffer goes back to the pool) if `v`
    /// needs no gradient.
    fn accumulate(&mut self, v: Var, g: Tensor) {
        if !self.nodes[v.0].requires_grad {
            return;
        }
        match &mut self.nodes[v.0].grad {
            Some(existing) => existing.add_assign(&g),
            slot @ None => *slot = Some(g),
        }
    }

    /// [`Graph::accumulate`] for a contribution the caller still needs:
    /// copies only when it is the first one.
    fn accumulate_ref(&mut self, v: Var, g: &Tensor) {
        if !self.nodes[v.0].requires_grad {
            return;
        }
        match &mut self.nodes[v.0].grad {
            Some(existing) => existing.add_assign(g),
            slot @ None => *slot = Some(g.clone()),
        }
    }

    /// Propagates the adjoint `grad` of node `node_idx` to the inputs of its
    /// `op`. Owns both: `grad` is rewritten in place where the input's
    /// adjoint has its shape, and moved into the last input that takes it.
    fn backprop_node(&mut self, node_idx: usize, mut grad: Tensor, op: Op) {
        match op {
            Op::Leaf => {}
            Op::Add(a, b) => {
                self.accumulate_ref(a, &grad);
                self.accumulate(b, grad);
            }
            Op::Sub(a, b) => {
                self.accumulate_ref(a, &grad);
                if self.rg(b) {
                    scale_in_place(&mut grad, -1.0);
                    self.accumulate(b, grad);
                }
            }
            Op::Mul(a, b) => {
                if self.rg(a) {
                    let ga = grad.mul(&self.nodes[b.0].value);
                    self.accumulate(a, ga);
                }
                if self.rg(b) {
                    let gb = grad.mul(&self.nodes[a.0].value);
                    self.accumulate(b, gb);
                }
            }
            Op::Scale(a, s) => {
                scale_in_place(&mut grad, s);
                self.accumulate(a, grad);
            }
            Op::AddScalar(a) => self.accumulate(a, grad),
            Op::Linear { x, w, b, act, mut pre, lanes, seed } => {
                // dz, the adjoint of the pre-activation z = w · x + b, in
                // place on the adjoint of the output y = act(z) — under a
                // seed, its value lane over `pre`.
                let bias = self.nodes[b.0].value.data();
                match (act, pre.as_mut()) {
                    (_, Some(pre)) if lanes > 1 => {
                        let seeds = seed_scalars(&self.nodes[w.0].value, seed);
                        act.bias_jet_features::<true>(grad.data_mut(), pre.data_mut(), bias, &seeds)
                    }
                    (Activation::Softplus, pre) => {
                        let pre =
                            pre.expect("a softplus layer that needs a gradient saved its GEMM");
                        rowops::bias_softplus_grad_features(grad.data_mut(), pre.data(), bias);
                    }
                    // y = max(z, 0) is positive exactly where z is.
                    (Activation::Relu, _) => relu_grad(&mut grad, &self.nodes[node_idx].value),
                    (Activation::Tanh, _) => tanh_grad(&mut grad, &self.nodes[node_idx].value),
                    (Activation::Linear, _) => {}
                }
                let (xv, wv) = (&self.nodes[x.0].value, &self.nodes[w.0].value);
                let ((k, cols), n) = ((xv.dims()[0], xv.dims()[1]), wv.dims()[0]);
                let points = grad.numel() / (n * lanes);
                // The columns of dz that met a column of x: all of them, or
                // under a seed the value lane's, which the epilogue left in
                // `pre` — otherwise spent, and back in the pool before `dx`.
                let pre = pre.filter(|_| seed.is_some());
                let dz = pre.as_ref().unwrap_or(&grad).data();
                let dims =
                    Conv3dDims { n: 1, cin: k, cout: n, spatial: [1, 1, cols], kernel: [1; 3] };
                // The bias joins the value lane only.
                let db = self.rg(b).then(|| {
                    let db = lane_sums(dz, n, 0, points).detach();
                    Tensor::from_vec(db, self.nodes[b.0].value.dims())
                });
                let dw = self.rg(w).then(|| {
                    // y = w · x  =>  dw = dz · xᵀ, in w's [out, in] layout.
                    let mut dw = conv3d_grad_weight(xv.data(), dz, dims, None).reshape(wv.dims());
                    // Seed lane 1 + a is seed[a] in input feature a, zero elsewhere.
                    for (a, &s) in seed.iter().flatten().enumerate() {
                        let sums = lane_sums(grad.data(), n, 1 + a, points);
                        for (o, &sum) in sums.iter().enumerate() {
                            dw.data_mut()[o * k + a] += s * sum;
                        }
                    }
                    dw
                });
                let dx =
                    self.rg(x).then(|| conv3d_grad_input(dz, wv.data(), dims).reshape(xv.dims()));
                for (v, g) in [(b, db), (w, dw), (x, dx)] {
                    if let Some(g) = g {
                        self.accumulate(v, g);
                    }
                }
            }
            Op::BiasChannel(x, b) => {
                if self.rg(b) {
                    let c = self.nodes[b.0].value.numel();
                    let inner: usize = grad.dims()[2..].iter().product();
                    let mut gb = workspace::take_vec_zeroed(c);
                    for slab in grad.data().chunks(c * inner) {
                        for (ch, sub) in slab.chunks(inner).enumerate() {
                            gb[ch] += sub.iter().sum::<f32>();
                        }
                    }
                    let dims = self.nodes[b.0].value.dims().to_vec();
                    self.accumulate(b, Tensor::from_vec(gb, &dims));
                }
                self.accumulate(x, grad);
            }
            Op::Relu(a) => {
                relu_grad(&mut grad, &self.nodes[a.0].value);
                self.accumulate(a, grad);
            }
            Op::Softplus(a) => {
                // d/dx softplus = sigmoid(x)
                rowops::softplus_grad_slice(grad.data_mut(), self.nodes[a.0].value.data());
                self.accumulate(a, grad);
            }
            Op::Tanh(a) => {
                tanh_grad(&mut grad, &self.nodes[node_idx].value);
                self.accumulate(a, grad);
            }
            Op::Abs(a) => {
                for (g, &x) in grad.data_mut().iter_mut().zip(self.nodes[a.0].value.data()) {
                    *g = if x > 0.0 {
                        *g
                    } else if x < 0.0 {
                        -*g
                    } else {
                        0.0
                    };
                }
                self.accumulate(a, grad);
            }
            Op::Sum(a) => {
                let s = grad.item();
                let dims = self.nodes[a.0].value.dims().to_vec();
                self.accumulate(a, Tensor::full(&dims, s));
            }
            Op::Mean(a) => {
                let n = self.nodes[a.0].value.numel().max(1);
                let s = grad.item() / n as f32;
                let dims = self.nodes[a.0].value.dims().to_vec();
                self.accumulate(a, Tensor::full(&dims, s));
            }
            Op::Concat { inputs, axis, sizes } => {
                let mut start = 0;
                for (v, size) in inputs.into_iter().zip(sizes) {
                    if self.rg(v) {
                        self.accumulate(v, grad.narrow(axis, start, size));
                    }
                    start += size;
                }
            }
            Op::Narrow { input, axis, start, len } => {
                let dims = self.nodes[input.0].value.dims().to_vec();
                let inner: usize = dims[axis + 1..].iter().product();
                let mut gi = workspace::take_vec_zeroed(dims.iter().product());
                for (slab, g) in
                    gi.chunks_mut(dims[axis] * inner).zip(grad.data().chunks(len * inner))
                {
                    slab[start * inner..(start + len) * inner].copy_from_slice(g);
                }
                self.accumulate(input, Tensor::from_vec(gi, &dims));
            }
            Op::Conv3d { input, weight, dims } => {
                if self.rg(input) {
                    let gi =
                        conv3d_grad_input(grad.data(), self.nodes[weight.0].value.data(), dims);
                    self.accumulate(input, gi);
                }
                if self.rg(weight) {
                    let gw = conv3d_grad_weight(
                        self.nodes[input.0].value.data(),
                        grad.data(),
                        dims,
                        None,
                    );
                    self.accumulate(weight, gw);
                }
            }
            Op::MaxPool3d { input, indices, in_dims } => {
                let gi = maxpool3d_backward(&grad, &indices, &in_dims);
                self.accumulate(input, gi);
            }
            Op::Upsample3d { input, factors } => {
                let gi = upsample_nearest3d_backward(&grad, factors);
                self.accumulate(input, gi);
            }
            Op::BatchNorm { input, gamma, beta, mean, invstd } => {
                let xv = &self.nodes[input.0].value;
                let (n, c) = (xv.dims()[0], xv.dims()[1]);
                let inner: usize = xv.dims()[2..].iter().product();
                let count = (n * inner) as f32;
                let g = self.nodes[gamma.0].value.data().to_vec();
                let x = xv.data();
                let dy = grad.data();
                // Per-channel sums of dy and dy*xhat.
                let mut sum_dy = vec![0.0f64; c];
                let mut sum_dyx = vec![0.0f64; c];
                for ni in 0..n {
                    for ci in 0..c {
                        let off = (ni * c + ci) * inner;
                        for k in 0..inner {
                            let xhat = (x[off + k] - mean[ci]) * invstd[ci];
                            sum_dy[ci] += dy[off + k] as f64;
                            sum_dyx[ci] += (dy[off + k] * xhat) as f64;
                        }
                    }
                }
                let mut dx = workspace::take_vec_scratch(x.len());
                for ni in 0..n {
                    for ci in 0..c {
                        let off = (ni * c + ci) * inner;
                        let m_dy = (sum_dy[ci] / count as f64) as f32;
                        let m_dyx = (sum_dyx[ci] / count as f64) as f32;
                        for k in 0..inner {
                            let xhat = (x[off + k] - mean[ci]) * invstd[ci];
                            dx[off + k] = g[ci] * invstd[ci] * (dy[off + k] - m_dy - xhat * m_dyx);
                        }
                    }
                }
                let dx = Tensor::from_vec(dx, xv.dims());
                self.accumulate(input, dx);
                let dgamma: Vec<f32> = sum_dyx.iter().map(|&v| v as f32).collect();
                let dbeta: Vec<f32> = sum_dy.iter().map(|&v| v as f32).collect();
                let gdims = self.nodes[gamma.0].value.dims().to_vec();
                let bdims = self.nodes[beta.0].value.dims().to_vec();
                self.accumulate(gamma, Tensor::from_vec(dgamma, &gdims));
                self.accumulate(beta, Tensor::from_vec(dbeta, &bdims));
            }
            Op::ChannelAffine { input, scale } => {
                let c = scale.len();
                let inner: usize = grad.dims()[2..].iter().product();
                for slab in grad.data_mut().chunks_mut(c * inner) {
                    for (ch, sub) in slab.chunks_mut(inner).enumerate() {
                        for o in sub {
                            *o *= scale[ch];
                        }
                    }
                }
                self.accumulate(input, grad);
            }
            Op::GatherVertices { grid, index } => {
                let gv = &self.nodes[grid.0].value;
                let c = gv.dims()[1];
                let vol: usize = gv.dims()[2..].iter().product();
                let m = index.len();
                let mut gg = workspace::take_vec_zeroed(gv.numel());
                // The channel rows under the prefix; each grid element takes
                // its points' adjoints in increasing point order.
                let channels = &grad.data()[grad.numel() - c * m..];
                for (ci, row) in channels.chunks_exact(m).enumerate() {
                    for (&flat, &g) in index.iter().zip(row) {
                        let (ni, sp) = (flat as usize / vol, flat as usize % vol);
                        gg[(ni * c + ci) * vol + sp] += g;
                    }
                }
                let gg = Tensor::from_vec(gg, gv.dims());
                self.accumulate(grid, gg);
            }
            Op::VertexBlend { input, weights, group } => {
                let dims = self.nodes[input.0].value.dims().to_vec();
                let c = dims[0];
                let mut gi = workspace::take_vec_scratch(c * weights.len());
                for (ci, row) in gi.chunks_exact_mut(weights.len()).enumerate() {
                    for ((dst, ws), qi) in
                        row.chunks_exact_mut(group).zip(weights.chunks_exact(group)).zip(0..)
                    {
                        let g = grad.data()[qi * c + ci];
                        for (o, &w) in dst.iter_mut().zip(ws) {
                            *o = w * g;
                        }
                    }
                }
                self.accumulate(input, Tensor::from_vec(gi, &dims));
            }
        }
    }

    /// Gradients of every registered parameter, aligned with `store`'s order;
    /// parameters that received no gradient get zeros.
    pub fn param_grads(&self, store: &ParamStore) -> Vec<Tensor> {
        let mut grads: Vec<Tensor> =
            (0..store.len()).map(|i| Tensor::zeros(store.get(ParamId(i)).dims())).collect();
        for &(pid, var) in &self.param_vars {
            if let Some(g) = self.try_grad(var) {
                grads[pid.0].add_assign(g);
            }
        }
        grads
    }
}

/// The three pre-activation scalars a seed makes per output feature of a
/// layer of weight `w: [n, k]` ([`Graph::linear_seeded`]), `[n, 3]`: `seed[a]
/// · w[f, a]`, what the GEMM of an input column that is `seed[a]` in feature
/// `a` and zero elsewhere sums to. `+ 0.0` because the GEMM's chain starts
/// from +0: a -0 comes out +0. Empty without a seed.
fn seed_scalars(w: &Tensor, seed: Option<[f32; 3]>) -> workspace::WorkspaceGuard {
    let Some(seed) = seed else { return workspace::take_scratch(0) };
    let (n, k) = (w.dims()[0], w.dims()[1]);
    let mut out = workspace::take_scratch(3 * n);
    for (row, wr) in out.chunks_exact_mut(3).zip(w.data().chunks_exact(k)) {
        for ((o, s), &wa) in row.iter_mut().zip(seed).zip(wr) {
            *o = s * wa + 0.0;
        }
    }
    out
}

/// Sums over lane `lane` of each of the `n` feature rows of `m` (lanes of
/// `points` columns), points added in order. Each sum is one chain of adds;
/// eight rows' chains are interleaved, so they run at the adder's throughput
/// instead of its latency.
fn lane_sums(m: &[f32], n: usize, lane: usize, points: usize) -> workspace::WorkspaceGuard {
    const ROWS: usize = 8;
    let len = m.len() / n;
    let mut sums = workspace::take_zeroed(n);
    for (sums, rows) in sums.chunks_mut(ROWS).zip(m.chunks(ROWS * len)) {
        for p in lane * points..(lane + 1) * points {
            for (sum, row) in sums.iter_mut().zip(rows.chunks_exact(len)) {
                *sum += row[p];
            }
        }
    }
    sums
}

/// relu′ in place: zeroes `g` wherever `v` is not positive. `v` may be the
/// relu's input or its output, which are positive in the same places.
fn relu_grad(g: &mut Tensor, v: &Tensor) {
    for (g, &v) in g.data_mut().iter_mut().zip(v.data()) {
        *g = if v > 0.0 { *g } else { 0.0 };
    }
}

/// tanh′ in place, from the tanh's output: `g *= 1 - t²`.
fn tanh_grad(g: &mut Tensor, t: &Tensor) {
    for (g, &t) in g.data_mut().iter_mut().zip(t.data()) {
        *g *= 1.0 - t * t;
    }
}

/// `t *= s`, elementwise.
fn scale_in_place(t: &mut Tensor, s: f32) {
    for v in t.data_mut() {
        *v *= s;
    }
}
