//! The reverse-mode autodiff tape.
//!
//! A [`Graph`] records every operation of one forward pass as a node holding
//! the op kind, its input [`Var`]s, and the computed value. [`Graph::backward`]
//! then walks the tape in reverse, accumulating adjoints. The design mirrors a
//! classic "Wengert list": no interior mutability, no `Rc` cycles — a graph is
//! a plain `Vec` owned by the caller, which makes it trivially `Send` and lets
//! the data-parallel trainer give every worker thread its own tape.

use crate::params::{ParamId, ParamStore};
use mfn_tensor::{
    conv3d_auto, conv3d_grad_input, conv3d_grad_weight, matmul, matmul_nt, matmul_tn, maxpool3d,
    maxpool3d_backward, upsample_nearest3d, upsample_nearest3d_backward, Conv3dDims, Tensor,
};
use mfn_tensor::{rowops, workspace};

/// A handle to a node on the tape (an SSA value of the recorded program).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

/// The operation that produced a node's value.
#[derive(Debug, Clone)]
enum Op {
    /// An input: parameter, constant, or mini-batch data.
    Leaf,
    Add(Var, Var),
    Sub(Var, Var),
    /// Element-wise (Hadamard) product.
    Mul(Var, Var),
    Neg(Var),
    Scale(Var, f32),
    AddScalar(Var),
    /// `A @ B` for rank-2 operands.
    Matmul(Var, Var),
    /// `A @ B^T` for rank-2 operands (`B` stored `[n, k]`); the natural shape
    /// for linear layers with `[out, in]` weights.
    MatmulNT(Var, Var),
    /// `x + b` broadcasting `b: [N]` over the rows of `x: [M, N]`.
    BiasRow(Var, Var),
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
    /// Column slice `x[:, lo..hi]` of a rank-2 tensor.
    SliceCols {
        input: Var,
        lo: usize,
        cols: usize,
    },
    Reshape(Var),
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
    /// Row gather from a 5D latent grid: row `m` of the output is
    /// `grid[n_m, :, d_m, h_m, w_m]` with the flat spatial index stored in
    /// `index[m]` (already combined as `n*vol + offset`).
    GatherVertices {
        grid: Var,
        index: Vec<u32>,
    },
    /// Blend groups of `group` consecutive rows with fixed weights:
    /// `out[q, c] = sum_v weights[q*group + v] * x[q*group + v, c]`.
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
            Op::Neg(..) => "neg",
            Op::Scale(..) => "scale",
            Op::AddScalar(..) => "add_scalar",
            Op::Matmul(..) => "matmul",
            Op::MatmulNT(..) => "matmul_nt",
            Op::BiasRow(..) => "bias_row",
            Op::BiasChannel(..) => "bias_channel",
            Op::Relu(..) => "relu",
            Op::Softplus(..) => "softplus",
            Op::Tanh(..) => "tanh",
            Op::Abs(..) => "abs",
            Op::Sum(..) => "sum",
            Op::Mean(..) => "mean",
            Op::Concat { .. } => "concat",
            Op::SliceCols { .. } => "slice_cols",
            Op::Reshape(..) => "reshape",
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
            Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::Matmul(a, b)
            | Op::MatmulNT(a, b)
            | Op::BiasRow(a, b)
            | Op::BiasChannel(a, b) => vec![*a, *b],
            Op::Neg(a)
            | Op::Scale(a, _)
            | Op::AddScalar(a)
            | Op::Relu(a)
            | Op::Softplus(a)
            | Op::Tanh(a)
            | Op::Abs(a)
            | Op::Sum(a)
            | Op::Mean(a)
            | Op::Reshape(a) => vec![*a],
            Op::Concat { inputs, .. } => inputs.clone(),
            Op::SliceCols { input, .. }
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
}

impl Default for Graph {
    fn default() -> Self {
        Self::new()
    }
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Graph { nodes: Vec::with_capacity(256), param_vars: Vec::new() }
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

    /// Records a trainable-parameter leaf (value copied from the store).
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
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

    /// The accumulated gradient of a node (after [`Graph::backward`]).
    ///
    /// # Panics
    /// Panics if no gradient was accumulated for the node.
    pub fn grad(&self, v: Var) -> &Tensor {
        self.nodes[v.0]
            .grad
            .as_ref()
            .unwrap_or_else(|| panic!("no gradient for node {}; did you call backward()?", v.0))
    }

    /// The gradient of a node, or `None` if it never received one.
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

    /// Negation.
    pub fn neg(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.scale(-1.0);
        let rg = self.rg(a);
        self.push(v, Op::Neg(a), rg)
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

    /// Matrix product of rank-2 nodes.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = matmul(&self.nodes[a.0].value, &self.nodes[b.0].value);
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::Matmul(a, b), rg)
    }

    /// `a @ b^T` for rank-2 nodes, with gradients delivered to `b` in its
    /// native `[n, k]` layout (the linear-layer weight shape).
    pub fn matmul_nt(&mut self, a: Var, b: Var) -> Var {
        let v = matmul_nt(&self.nodes[a.0].value, &self.nodes[b.0].value);
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::MatmulNT(a, b), rg)
    }

    /// Adds bias vector `b: [N]` to every row of `x: [M, N]`.
    pub fn bias_row(&mut self, x: Var, b: Var) -> Var {
        let xv = &self.nodes[x.0].value;
        let bv = &self.nodes[b.0].value;
        let mut out = xv.clone();
        rowops::add_bias_rows(out.data_mut(), bv.data());
        let rg = self.rg(x) || self.rg(b);
        self.push(out, Op::BiasRow(x, b), rg)
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

    /// Column slice `x[:, lo..lo+cols]` of a rank-2 node.
    pub fn slice_cols(&mut self, x: Var, lo: usize, cols: usize) -> Var {
        let xv = &self.nodes[x.0].value;
        assert_eq!(xv.shape().rank(), 2, "slice_cols input must be rank 2");
        let (m, n) = (xv.dims()[0], xv.dims()[1]);
        assert!(lo + cols <= n, "slice_cols out of range");
        let mut out = workspace::take_vec_capacity(m * cols);
        for row in xv.data().chunks(n) {
            out.extend_from_slice(&row[lo..lo + cols]);
        }
        let rg = self.rg(x);
        self.push(Tensor::from_vec(out, &[m, cols]), Op::SliceCols { input: x, lo, cols }, rg)
    }

    /// Reinterprets a node's buffer with a new shape.
    pub fn reshape(&mut self, a: Var, dims: &[usize]) -> Var {
        let v = self.nodes[a.0].value.clone().reshape(dims);
        let rg = self.rg(a);
        self.push(v, Op::Reshape(a), rg)
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

    /// Gathers rows from a latent grid `grid: [N, C, D, H, W]`.
    ///
    /// `index[m] = n*D*H*W + (d*H + h)*W + w` selects the vertex for output
    /// row `m`; the output is `[M, C]`.
    pub fn gather_vertices(&mut self, grid: Var, index: Vec<u32>) -> Var {
        let out = rowops::gather_rows(&self.nodes[grid.0].value, &index);
        let rg = self.rg(grid);
        self.push(out, Op::GatherVertices { grid, index }, rg)
    }

    /// Blends groups of `group` consecutive rows of `x: [Q*group, C]` with
    /// fixed weights (`weights.len() == Q*group`), producing `[Q, C]` — the
    /// trilinear vertex interpolation of paper Eqn. 6.
    pub fn vertex_blend(&mut self, input: Var, weights: Vec<f32>, group: usize) -> Var {
        let out = rowops::blend_rows(&self.nodes[input.0].value, &weights, group);
        let rg = self.rg(input);
        self.push(out, Op::VertexBlend { input, weights, group }, rg)
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

    /// Reverse-mode sweep seeding `d loss / d loss = 1`.
    ///
    /// # Panics
    /// Panics if `loss` is not a single-element node.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(self.nodes[loss.0].value.numel(), 1, "backward seed must be scalar");
        let n = self.nodes.len();
        self.nodes[loss.0].grad = Some(Tensor::ones(self.nodes[loss.0].value.dims()));
        for i in (0..n).rev() {
            if !self.nodes[i].requires_grad || self.nodes[i].grad.is_none() {
                continue;
            }
            let grad = self.nodes[i].grad.clone().expect("checked above");
            let op = self.nodes[i].op.clone();
            self.backprop_node(i, &grad, &op);
        }
    }

    fn accumulate(&mut self, v: Var, g: Tensor) {
        if !self.nodes[v.0].requires_grad {
            return;
        }
        match &mut self.nodes[v.0].grad {
            Some(existing) => existing.add_assign(&g),
            slot @ None => *slot = Some(g),
        }
    }

    fn backprop_node(&mut self, node_idx: usize, grad: &Tensor, op: &Op) {
        match op {
            Op::Leaf => {}
            Op::Add(a, b) => {
                self.accumulate(*a, grad.clone());
                self.accumulate(*b, grad.clone());
            }
            Op::Sub(a, b) => {
                self.accumulate(*a, grad.clone());
                self.accumulate(*b, grad.scale(-1.0));
            }
            Op::Mul(a, b) => {
                let ga = grad.mul(&self.nodes[b.0].value);
                let gb = grad.mul(&self.nodes[a.0].value);
                self.accumulate(*a, ga);
                self.accumulate(*b, gb);
            }
            Op::Neg(a) => self.accumulate(*a, grad.scale(-1.0)),
            Op::Scale(a, s) => self.accumulate(*a, grad.scale(*s)),
            Op::AddScalar(a) => self.accumulate(*a, grad.clone()),
            Op::Matmul(a, b) => {
                let ga = matmul_nt(grad, &self.nodes[b.0].value);
                let gb = matmul_tn(&self.nodes[a.0].value, grad);
                self.accumulate(*a, ga);
                self.accumulate(*b, gb);
            }
            Op::MatmulNT(a, b) => {
                // y = a @ b^T  =>  da = grad @ b,  db = grad^T @ a.
                let ga = matmul(grad, &self.nodes[b.0].value);
                let gb = matmul_tn(grad, &self.nodes[a.0].value);
                self.accumulate(*a, ga);
                self.accumulate(*b, gb);
            }
            Op::BiasRow(x, b) => {
                self.accumulate(*x, grad.clone());
                let n = self.nodes[b.0].value.numel();
                let mut gb = workspace::take_vec_zeroed(n);
                for row in grad.data().chunks(n) {
                    for (g, &r) in gb.iter_mut().zip(row) {
                        *g += r;
                    }
                }
                self.accumulate(*b, Tensor::from_vec(gb, self.nodes[b.0].value.dims()));
            }
            Op::BiasChannel(x, b) => {
                self.accumulate(*x, grad.clone());
                let c = self.nodes[b.0].value.numel();
                let inner: usize = grad.dims()[2..].iter().product();
                let mut gb = workspace::take_vec_zeroed(c);
                for slab in grad.data().chunks(c * inner) {
                    for (ch, sub) in slab.chunks(inner).enumerate() {
                        gb[ch] += sub.iter().sum::<f32>();
                    }
                }
                self.accumulate(*b, Tensor::from_vec(gb, self.nodes[b.0].value.dims()));
            }
            Op::Relu(a) => {
                let g = grad.zip(&self.nodes[a.0].value, |g, x| if x > 0.0 { g } else { 0.0 });
                self.accumulate(*a, g);
            }
            Op::Softplus(a) => {
                // d/dx softplus = sigmoid(x)
                let g = grad.zip(&self.nodes[a.0].value, |g, x| g * sigmoid_scalar(x));
                self.accumulate(*a, g);
            }
            Op::Tanh(a) => {
                // d/dx tanh = 1 - tanh^2; the node's own value is tanh(x).
                let y = &self.nodes[node_idx].value;
                let g = grad.zip(y, |g, t| g * (1.0 - t * t));
                self.accumulate(*a, g);
            }
            Op::Abs(a) => {
                let g = grad.zip(&self.nodes[a.0].value, |g, x| {
                    if x > 0.0 {
                        g
                    } else if x < 0.0 {
                        -g
                    } else {
                        0.0
                    }
                });
                self.accumulate(*a, g);
            }
            Op::Sum(a) => {
                let s = grad.item();
                let dims = self.nodes[a.0].value.dims().to_vec();
                self.accumulate(*a, Tensor::full(&dims, s));
            }
            Op::Mean(a) => {
                let n = self.nodes[a.0].value.numel().max(1);
                let s = grad.item() / n as f32;
                let dims = self.nodes[a.0].value.dims().to_vec();
                self.accumulate(*a, Tensor::full(&dims, s));
            }
            Op::Concat { inputs, axis, sizes } => {
                let parts = grad.split(*axis, sizes);
                for (v, g) in inputs.iter().zip(parts) {
                    self.accumulate(*v, g);
                }
            }
            Op::SliceCols { input, lo, cols } => {
                let xv = &self.nodes[input.0].value;
                let (m, n) = (xv.dims()[0], xv.dims()[1]);
                let mut gi = workspace::take_vec_zeroed(m * n);
                for (row, grow) in grad.data().chunks(*cols).enumerate() {
                    gi[row * n + lo..row * n + lo + cols].copy_from_slice(grow);
                }
                self.accumulate(*input, Tensor::from_vec(gi, &[m, n]));
            }
            Op::Reshape(a) => {
                let dims = self.nodes[a.0].value.dims().to_vec();
                self.accumulate(*a, grad.clone().reshape(&dims));
            }
            Op::Conv3d { input, weight, dims } => {
                if self.rg(*input) {
                    let gi = conv3d_grad_input(grad, &self.nodes[weight.0].value, *dims);
                    self.accumulate(*input, gi);
                }
                if self.rg(*weight) {
                    let gw = conv3d_grad_weight(&self.nodes[input.0].value, grad, *dims);
                    self.accumulate(*weight, gw);
                }
            }
            Op::MaxPool3d { input, indices, in_dims } => {
                let gi = maxpool3d_backward(grad, indices, in_dims);
                self.accumulate(*input, gi);
            }
            Op::Upsample3d { input, factors } => {
                let gi = upsample_nearest3d_backward(grad, *factors);
                self.accumulate(*input, gi);
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
                self.accumulate(*input, Tensor::from_vec(dx, xv.dims()));
                let dgamma: Vec<f32> = sum_dyx.iter().map(|&v| v as f32).collect();
                let dbeta: Vec<f32> = sum_dy.iter().map(|&v| v as f32).collect();
                let gdims = self.nodes[gamma.0].value.dims().to_vec();
                let bdims = self.nodes[beta.0].value.dims().to_vec();
                self.accumulate(*gamma, Tensor::from_vec(dgamma, &gdims));
                self.accumulate(*beta, Tensor::from_vec(dbeta, &bdims));
            }
            Op::ChannelAffine { input, scale, .. } => {
                let c = scale.len();
                let inner: usize = grad.dims()[2..].iter().product();
                let mut gi = grad.clone();
                for slab in gi.data_mut().chunks_mut(c * inner) {
                    for (ch, sub) in slab.chunks_mut(inner).enumerate() {
                        for o in sub {
                            *o *= scale[ch];
                        }
                    }
                }
                self.accumulate(*input, gi);
            }
            Op::GatherVertices { grid, index } => {
                let gv = &self.nodes[grid.0].value;
                let (_, c) = (gv.dims()[0], gv.dims()[1]);
                let vol: usize = gv.dims()[2..].iter().product();
                let mut gg = workspace::take_vec_zeroed(gv.numel());
                for (row, &flat) in index.iter().enumerate() {
                    let flat = flat as usize;
                    let ni = flat / vol;
                    let sp = flat % vol;
                    for ci in 0..c {
                        gg[(ni * c + ci) * vol + sp] += grad.data()[row * c + ci];
                    }
                }
                self.accumulate(*grid, Tensor::from_vec(gg, gv.dims()));
            }
            Op::VertexBlend { input, weights, group } => {
                let xv = &self.nodes[input.0].value;
                let (rows, c) = (xv.dims()[0], xv.dims()[1]);
                let mut gi = workspace::take_vec_scratch(rows * c);
                for qi in 0..rows / group {
                    let grow = &grad.data()[qi * c..(qi + 1) * c];
                    for v in 0..*group {
                        let w = weights[qi * group + v];
                        let dst = &mut gi[(qi * group + v) * c..(qi * group + v + 1) * c];
                        for (o, &g) in dst.iter_mut().zip(grow) {
                            *o = w * g;
                        }
                    }
                }
                self.accumulate(*input, Tensor::from_vec(gi, &[rows, c]));
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

/// Numerically-stable logistic sigmoid.
#[inline]
pub fn sigmoid_scalar(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}
