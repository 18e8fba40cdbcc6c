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
//! voxels, run by the conv driver (`PackedConv3d::forward_columns` by column
//! ranges, and the input gradient's flipped weight backward) and the weight
//! gradient `conv3d_grad_weight` (its pointwise arm, any width), then the
//! bias and activation epilogue ([`Activation::bias_apply_features`]), so
//! the tape and the no-grad forward agree bit for bit. It saves what
//! backward needs once: its own output (which the next layer reads anyway)
//! and, where the derivative needs it, the GEMM output.
//!
//! A layer node runs on the tape's threads ([`Graph::with_workers`]; one
//! unless the caller asks — `Trainer` gives a rank's tape the cores the rank
//! owns). Its forward and backward take turns at GEMM column slabs and at
//! blocks of feature rows (`mfn_tensor::in_turns`), each written by one
//! thread, and every output element is the FMA chain of a single pass, so
//! the thread count never shows in a bit. So does a conv node
//! ([`Graph::conv3d`]): its forward and input gradient at batch items, each
//! one pass of the driver, and its weight gradient at (item, `KC`-block)
//! terms that the caller adds in the one-thread order.
//!
//! A tape [`Graph::with_node_times`] times every node by [`NodeKind`], one
//! clock pair forward and one backward ([`NodeTimes`]): where a training
//! step's time goes, by the kind of work.
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
    conv3d_grad_weight, conv3d_grad_weight_in_turns, maxpool3d, maxpool3d_backward,
    upsample_nearest3d, upsample_nearest3d_backward, Conv3dDims, PackedConv3d, Tensor,
};
use mfn_tensor::{in_turns, rowops, thin, workspace, ColumnSlabs, Turns};
use std::time::Instant;

pub use mfn_tensor::rowops::JET_LANES;

/// Feature rows of a layer node's epilogue turn, forward (bias and
/// activation) and backward (`dz` and the row sums): one interleaved group
/// of the row sums.
const TURN_ROWS: usize = 8;

/// Columns of a layer node's GEMM turn: one `NC` slab of the driver, the
/// slabs a whole-matrix `PackedConv3d::forward_slices` walks.
const TURN_COLUMNS: usize = mfn_tensor::gemm::NC;

/// A handle to a node on the tape (an SSA value of the recorded program).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

/// What a node's time counts towards on a timed tape
/// ([`Graph::with_node_times`]): the kinds of work a training step is made
/// of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// Parameters, data and constants copied onto the tape.
    Input,
    /// The U-Net's 3D convolutions and their bias.
    Conv,
    /// Batch norm, training-mode or frozen, and the ReLU after it.
    BatchNorm,
    /// Max pooling and nearest-neighbour upsampling.
    PoolUpsample,
    /// The decoder's vertex gather.
    Gather,
    /// The decoder's layer nodes, on one lane or six.
    Layer,
    /// The trilinear vertex blend, on one lane or six.
    Blend,
    /// Every other node: the losses' element-wise arithmetic, reductions,
    /// slices and concatenations — and the U-Net's residual add and skip
    /// concatenation, the same ops.
    Loss,
}

impl NodeKind {
    /// Every kind, in the order [`NodeTimes`] holds them.
    pub const ALL: [NodeKind; 8] = [
        NodeKind::Input,
        NodeKind::Conv,
        NodeKind::BatchNorm,
        NodeKind::PoolUpsample,
        NodeKind::Gather,
        NodeKind::Layer,
        NodeKind::Blend,
        NodeKind::Loss,
    ];
}

/// Wall time a timed tape spent in its nodes by [`NodeKind`], forward and
/// backward (nanoseconds): one clock pair per node, around the op that
/// made its value and around the backward that propagated its adjoint.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NodeTimes {
    /// Forward time, indexed by `NodeKind as usize`.
    pub forward_ns: [f64; NodeKind::ALL.len()],
    /// Backward time, indexed by `NodeKind as usize`.
    pub backward_ns: [f64; NodeKind::ALL.len()],
}

impl NodeTimes {
    /// Forward plus backward time of `kind`'s nodes.
    pub fn ns(&self, kind: NodeKind) -> f64 {
        self.forward_ns[kind as usize] + self.backward_ns[kind as usize]
    }

    /// Forward plus backward time of every node.
    pub fn total_ns(&self) -> f64 {
        NodeKind::ALL.iter().map(|&k| self.ns(k)).sum()
    }
}

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
    /// [`Op::VertexBlend`] of a six-lane `x: [C, JET_LANES·Q·group]` by the
    /// product rule against the weights' slopes along `t`, `z`, `x`
    /// ([`rowops::blend_jet_into`]), into `[JET_LANES·Q, C]`.
    BlendJet {
        input: Var,
        weights: Vec<f32>,
        slopes: [Vec<f32>; 3],
        group: usize,
    },
}

impl Op {
    /// What this node's time counts towards.
    fn kind(&self) -> NodeKind {
        match self {
            Op::Leaf => NodeKind::Input,
            Op::Conv3d { .. } | Op::BiasChannel(..) => NodeKind::Conv,
            Op::BatchNorm { .. } | Op::ChannelAffine { .. } | Op::Relu(..) => NodeKind::BatchNorm,
            Op::MaxPool3d { .. } | Op::Upsample3d { .. } => NodeKind::PoolUpsample,
            Op::GatherVertices { .. } => NodeKind::Gather,
            Op::Linear { .. } => NodeKind::Layer,
            Op::VertexBlend { .. } | Op::BlendJet { .. } => NodeKind::Blend,
            Op::Add(..)
            | Op::Sub(..)
            | Op::Mul(..)
            | Op::Scale(..)
            | Op::AddScalar(..)
            | Op::Softplus(..)
            | Op::Tanh(..)
            | Op::Abs(..)
            | Op::Sum(..)
            | Op::Mean(..)
            | Op::Concat { .. }
            | Op::Narrow { .. } => NodeKind::Loss,
        }
    }

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
            Op::BlendJet { .. } => "blend_jet",
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
            | Op::VertexBlend { input, .. }
            | Op::BlendJet { input, .. } => vec![*input],
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
    /// Threads a layer or conv node runs on ([`Graph::with_workers`]).
    workers: usize,
    /// Set by [`Graph::backward`], which may run once.
    swept: bool,
    /// Node times by kind, on a tape [`Graph::with_node_times`].
    times: Option<NodeTimes>,
    /// When the op now being recorded began, on a timed tape.
    began: Option<Instant>,
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
            workers: 1,
            swept: false,
            times: None,
            began: None,
        }
    }

    /// This tape with its layer nodes ([`Graph::linear`],
    /// [`Graph::linear_seeded`]) and conv nodes ([`Graph::conv3d`]) forward
    /// and backward on `workers` threads, taking turns at column slabs and
    /// feature rows, and at batch items and weight-gradient blocks (module
    /// docs) — the same bits on any count. A new tape runs on one, handing
    /// nothing to a helper.
    ///
    /// # Panics
    /// Panics if `workers` is 0.
    pub fn with_workers(self, workers: usize) -> Self {
        assert!(workers >= 1, "a tape runs on at least one thread");
        Graph { workers, ..self }
    }

    /// This tape timing its nodes by kind ([`Graph::node_times`]): one clock
    /// pair per node forward and one per node backward. An untimed tape
    /// reads no clock.
    pub fn with_node_times(self) -> Self {
        Graph { times: Some(NodeTimes::default()), ..self }
    }

    /// The node times of a tape [`Graph::with_node_times`], so far.
    pub fn node_times(&self) -> Option<&NodeTimes> {
        self.times.as_ref()
    }

    /// Starts the clock of the node about to be recorded, on a timed tape;
    /// [`Graph::push`] stops it. Every op records through these two.
    fn begin(&mut self) {
        if self.times.is_some() {
            self.began = Some(Instant::now());
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
        if let (Some(times), Some(began)) = (self.times.as_mut(), self.began.take()) {
            times.forward_ns[op.kind() as usize] += began.elapsed().as_nanos() as f64;
        }
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
        self.begin();
        if self.frozen_params {
            return self.constant(store.get(id).clone());
        }
        let v = self.push(store.get(id).clone(), Op::Leaf, true);
        self.param_vars.push((id, v));
        v
    }

    /// Records a non-trainable input (data, coordinates, targets).
    pub fn constant(&mut self, t: Tensor) -> Var {
        self.begin();
        self.push(t, Op::Leaf, false)
    }

    /// Records a leaf that requires gradient but is not a parameter
    /// (used in tests and for input-sensitivity probes).
    pub fn leaf_with_grad(&mut self, t: Tensor) -> Var {
        self.begin();
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
        self.begin();
        let v = self.nodes[a.0].value.add(&self.nodes[b.0].value);
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::Add(a, b), rg)
    }

    /// Element-wise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        self.begin();
        let v = self.nodes[a.0].value.sub(&self.nodes[b.0].value);
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::Sub(a, b), rg)
    }

    /// Element-wise product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        self.begin();
        let v = self.nodes[a.0].value.mul(&self.nodes[b.0].value);
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::Mul(a, b), rg)
    }

    /// Multiplication by a compile-time-known scalar.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        self.begin();
        let v = self.nodes[a.0].value.scale(s);
        let rg = self.rg(a);
        self.push(v, Op::Scale(a, s), rg)
    }

    /// Addition of a scalar constant.
    pub fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        self.begin();
        let v = self.nodes[a.0].value.map(|x| x + s);
        let rg = self.rg(a);
        self.push(v, Op::AddScalar(a), rg)
    }

    /// A fully-connected layer `act(w · x + b)` as one node on feature-major
    /// activations: `x: [in, M]`, `w: [out, in]` (gradients arrive in that
    /// layout), `b: [out]` → `[out, M]`. The value is the 1×1×1 convolution
    /// over `M` voxels on the conv driver (`PackedConv3d::pack_linear`, by
    /// column ranges) followed by [`Activation::bias_apply_features`] — a
    /// layer of the no-grad `PackedMlp::forward`, bit for bit.
    ///
    /// With `lanes = JET_LANES`, `x: [in, 6·M]` holds a value and five
    /// derivatives as column blocks of each feature row (module docs): still
    /// one GEMM, whose value columns are the 1-lane node's bit for bit — a
    /// GEMM column does not depend on the columns around it — then
    /// [`Activation::bias_jet_features`].
    pub fn linear(&mut self, x: Var, w: Var, b: Var, act: Activation, lanes: usize) -> Var {
        assert!(lanes == 1 || lanes == JET_LANES, "a layer runs on 1 or {JET_LANES} lanes");
        self.layer(x, w, b, act, lanes, None)
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
        self.layer(x, w, b, act, JET_LANES, Some(seed))
    }

    /// The layer node [`Graph::linear`] and [`Graph::linear_seeded`] record,
    /// in two rounds of turns: the GEMM (`x`'s lanes, or under a seed the
    /// value lane alone) in slabs of [`TURN_COLUMNS`] columns, into the
    /// saved pre-activation where backward needs one, else straight into
    /// the output; then the bias and activation epilogue in blocks of
    /// [`TURN_ROWS`] feature rows. Every output is a GEMM column's FMA chain
    /// and a point-wise epilogue, so the turns give the bits of one pass.
    fn layer(
        &mut self,
        x: Var,
        w: Var,
        b: Var,
        act: Activation,
        lanes: usize,
        seed: Option<[f32; 3]>,
    ) -> Var {
        self.begin();
        let rg = self.rg(x) || self.rg(w) || self.rg(b);
        let (xv, wv, bv) = (&self.nodes[x.0].value, &self.nodes[w.0].value, &self.nodes[b.0].value);
        assert_eq!(xv.shape().rank(), 2, "a layer reads feature rows");
        let ((k, cols), n) = ((xv.dims()[0], xv.dims()[1]), wv.dims()[0]);
        assert_eq!(wv.dims()[1], k, "the weight's inputs are the input's feature rows");
        // The GEMM's lanes: the input's, or under a seed its one.
        let gemm_lanes = if seed.is_some() { 1 } else { lanes };
        assert!(cols.is_multiple_of(gemm_lanes), "{cols} columns are not {lanes} lanes");
        let points = cols / gemm_lanes;
        // Softplus' is a function of the pre-activation, which the epilogue
        // overwrites; the other derivatives read the output. A curved
        // activation of a jet reads every pre-activation lane, and a seeded
        // layer's backward leaves the value lane's adjoint in its own.
        let curved_jet = lanes > 1 && act != Activation::Linear;
        let keep_pre = rg && (seed.is_some() || curved_jet || act == Activation::Softplus);
        let mut y = workspace::take_scratch(n * lanes * points);
        let mut pre = keep_pre.then(|| workspace::take_scratch(n * cols));
        let weight = LayerGemm::new(wv);
        let gemm_out = pre.as_deref_mut().unwrap_or(&mut y);
        gemm_in_turns(self.workers, &weight, xv.data(), gemm_out, n, || {});

        let seeds = seed_scalars(wv, seed);
        let bias = bv.data();
        let row = lanes * points;
        let mut pres = pre.as_deref_mut().map(|p| p.chunks_mut(TURN_ROWS * cols));
        let rows = y.chunks_mut(TURN_ROWS * row).enumerate();
        let rows =
            rows.map(move |(i, y)| (i * TURN_ROWS, y, pres.as_mut().and_then(Iterator::next)));
        let epilogue = |(j, y, pre): (usize, &mut [f32], Option<&mut [f32]>)| {
            let bias = &bias[j..j + y.len() / row];
            match (seed, pre) {
                (Some(_), Some(pre)) => {
                    let seeds = &seeds[3 * j..3 * j + 3 * bias.len()];
                    act.bias_jet_features::<false>(y, pre, bias, seeds)
                }
                // A jet reads the saved GEMM output and writes `y` in one pass.
                (_, pre) if lanes > 1 => {
                    act.bias_jet_features::<false>(y, pre.unwrap_or(&mut []), bias, &[])
                }
                // So does a one-lane layer that keeps its GEMM output.
                (_, pre) => act.bias_apply_features(y, pre.map_or(&[][..], |p| &p[..]), bias),
            }
        };
        let take = |_: &mut (), t: &Turns<_>| t.for_each(&epilogue);
        in_turns(self.workers, rows, || (), take, take);
        let y = Tensor::from_guard(y, &[n, lanes * points]);
        let pre = pre.map(|p| Tensor::from_guard(p, &[n, cols]));
        self.push(y, Op::Linear { x, w, b, act, pre, lanes, seed }, rg)
    }

    /// Adds bias `b: [C]` over channel dim 1 of `x: [N, C, ...]`.
    pub fn bias_channel(&mut self, x: Var, b: Var) -> Var {
        self.begin();
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
        self.begin();
        let v = self.nodes[a.0].value.map(|x| x.max(0.0));
        let rg = self.rg(a);
        self.push(v, Op::Relu(a), rg)
    }

    /// Softplus `ln(1 + e^x)` — a smooth (C^∞) ReLU surrogate, used by the
    /// continuous decoder so second spatial derivatives exist for the PDE
    /// constraints.
    pub fn softplus(&mut self, a: Var) -> Var {
        self.begin();
        let mut v = self.nodes[a.0].value.clone();
        rowops::softplus_slice(v.data_mut());
        let rg = self.rg(a);
        self.push(v, Op::Softplus(a), rg)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        self.begin();
        let v = self.nodes[a.0].value.map(f32::tanh);
        let rg = self.rg(a);
        self.push(v, Op::Tanh(a), rg)
    }

    /// Element-wise absolute value (the L1-loss kernel).
    pub fn abs(&mut self, a: Var) -> Var {
        self.begin();
        let v = self.nodes[a.0].value.map(f32::abs);
        let rg = self.rg(a);
        self.push(v, Op::Abs(a), rg)
    }

    // ---- reductions & shape ----

    /// Sum of all elements, yielding a scalar node.
    pub fn sum(&mut self, a: Var) -> Var {
        self.begin();
        let v = Tensor::scalar(self.nodes[a.0].value.sum());
        let rg = self.rg(a);
        self.push(v, Op::Sum(a), rg)
    }

    /// Mean of all elements, yielding a scalar node.
    pub fn mean(&mut self, a: Var) -> Var {
        self.begin();
        let v = Tensor::scalar(self.nodes[a.0].value.mean());
        let rg = self.rg(a);
        self.push(v, Op::Mean(a), rg)
    }

    /// Concatenates nodes along `axis`.
    pub fn concat(&mut self, inputs: &[Var], axis: usize) -> Var {
        self.begin();
        let tensors: Vec<&Tensor> = inputs.iter().map(|v| &self.nodes[v.0].value).collect();
        let sizes: Vec<usize> = tensors.iter().map(|t| t.dims()[axis]).collect();
        let v = Tensor::concat(&tensors, axis);
        let rg = inputs.iter().any(|&i| self.rg(i));
        self.push(v, Op::Concat { inputs: inputs.to_vec(), axis, sizes }, rg)
    }

    /// The slab `start..start + len` of a node along `axis`.
    pub fn narrow(&mut self, x: Var, axis: usize, start: usize, len: usize) -> Var {
        self.begin();
        let v = self.nodes[x.0].value.narrow(axis, start, len);
        let rg = self.rg(x);
        self.push(v, Op::Narrow { input: x, axis, start, len }, rg)
    }

    // ---- structured NN ops ----

    /// 3D convolution (stride 1, same padding): `mfn_tensor::conv3d_auto`,
    /// its batch items taken in turns on the tape's workers, each item one
    /// pass of the driver whichever worker takes it.
    pub fn conv3d(&mut self, input: Var, weight: Var) -> Var {
        self.begin();
        let (x, w) = (&self.nodes[input.0].value, &self.nodes[weight.0].value);
        let dims = Conv3dDims::infer(x, w);
        let packed = PackedConv3d::pack(w, dims.vol());
        let mut out = workspace::take_scratch(dims.n * dims.cout * dims.vol());
        packed.forward_in_turns(self.workers, x.data(), dims.spatial, &mut out);
        let [d, h, wd] = dims.spatial;
        let v = Tensor::from_guard(out, &[dims.n, dims.cout, d, h, wd]);
        let rg = self.rg(input) || self.rg(weight);
        self.push(v, Op::Conv3d { input, weight, dims }, rg)
    }

    /// Max pooling by integer factors.
    pub fn maxpool3d(&mut self, input: Var, factors: [usize; 3]) -> Var {
        self.begin();
        let in_dims = self.nodes[input.0].value.dims().to_vec();
        let (v, indices) = maxpool3d(&self.nodes[input.0].value, factors);
        let rg = self.rg(input);
        self.push(v, Op::MaxPool3d { input, indices, in_dims }, rg)
    }

    /// Nearest-neighbor upsampling by integer factors.
    pub fn upsample3d(&mut self, input: Var, factors: [usize; 3]) -> Var {
        self.begin();
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
        self.begin();
        let xv = &self.nodes[input.0].value;
        assert!(xv.shape().rank() >= 2);
        let (n, c) = (xv.dims()[0], xv.dims()[1]);
        let inner: usize = xv.dims()[2..].iter().product();
        let count = (n * inner) as f64;
        assert!(count >= 1.0, "batch_norm on empty batch");
        let x = xv.data();
        let dims = [n, c, inner];
        let mean: Vec<f64> =
            channel_sums(x, x, dims, |_, v, _| [v as f64]).iter().map(|s| s[0] / count).collect();
        let var: Vec<f64> = channel_sums(x, x, dims, |ci, v, _| {
            let d = v as f64 - mean[ci];
            [d * d]
        })
        .iter()
        .map(|s| s[0] / count)
        .collect();
        let mean32: Vec<f32> = mean.iter().map(|&m| m as f32).collect();
        let invstd: Vec<f32> = var.iter().map(|&v| 1.0 / ((v as f32 + eps).sqrt())).collect();
        if let Some(stats) = stats_out {
            stats.0 = mean32.clone();
            stats.1 = var.iter().map(|&v| v as f32).collect();
        }
        let g = self.nodes[gamma.0].value.data();
        let b = self.nodes[beta.0].value.data();
        let mut buf = workspace::take_scratch(x.len());
        let out: &mut [f32] = &mut buf;
        for (ci, (out, x)) in out.chunks_exact_mut(inner).zip(x.chunks_exact(inner)).enumerate() {
            let ci = ci % c;
            let (m, is, gg, bb) = (mean32[ci], invstd[ci], g[ci], b[ci]);
            for (o, &x) in out.iter_mut().zip(x) {
                *o = (x - m) * is * gg + bb;
            }
        }
        let value = Tensor::from_guard(buf, xv.dims());
        let rg = self.rg(input) || self.rg(gamma) || self.rg(beta);
        self.push(value, Op::BatchNorm { input, gamma, beta, mean: mean32, invstd }, rg)
    }

    /// Inference-mode per-channel affine `y[c] = x[c] * scale[c] + shift[c]`.
    pub fn channel_affine(&mut self, input: Var, scale: Vec<f32>, shift: Vec<f32>) -> Var {
        self.begin();
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
        self.begin();
        assert!(!index.is_empty(), "a gather of no vertices");
        let gv = &self.nodes[grid.0].value;
        let (m, rows) = (index.len(), prefix.len() / index.len() + gv.dims()[1]);
        let mut out = workspace::take_scratch(rows * m);
        rowops::gather_features(gv, &index, prefix, &mut out);
        let rg = self.rg(grid);
        self.push(Tensor::from_guard(out, &[rows, m]), Op::GatherVertices { grid, index }, rg)
    }

    /// Blends groups of `group` consecutive points of the feature-major `x:
    /// [C, Q*group]` with fixed weights (`weights.len() == Q*group`) into rows
    /// `[Q, C]` — the trilinear vertex interpolation of paper Eqn. 6
    /// ([`rowops::blend_features_into`]).
    pub fn vertex_blend(&mut self, input: Var, weights: Vec<f32>, group: usize) -> Var {
        self.begin();
        let c = self.nodes[input.0].value.dims()[0];
        let q = weights.len() / group;
        let mut out = workspace::take_scratch(q * c);
        rowops::blend_features_into(self.nodes[input.0].value.data(), &weights, group, &mut out);
        let rg = self.rg(input);
        self.push(Tensor::from_guard(out, &[q, c]), Op::VertexBlend { input, weights, group }, rg)
    }

    /// The trilinear blend of a six-lane `x: [C, JET_LANES·Q·group]` (value,
    /// `∂t`, `∂z`, `∂x`, `∂zz`, `∂xx` as column blocks of each feature row)
    /// as one node, by the product rule: lane `k` blends under `weights` and
    /// adds its partner lane's blend under `slopes[a]`, the weights' slopes
    /// along axis `a`, doubled for a second derivative
    /// ([`rowops::blend_jet_into`]). The lanes come out as row blocks,
    /// `[JET_LANES·Q, C]`, the value lane [`Graph::vertex_blend`]'s bit for
    /// bit; each lane's value and its adjoint are those of the composition
    /// of per-lane `narrow`, `vertex_blend`, `add` and one `concat` node.
    pub fn blend_jet(
        &mut self,
        input: Var,
        weights: Vec<f32>,
        slopes: [Vec<f32>; 3],
        group: usize,
    ) -> Var {
        self.begin();
        let c = self.nodes[input.0].value.dims()[0];
        let q = weights.len() / group;
        let mut out = workspace::take_scratch(JET_LANES * q * c);
        let x = self.nodes[input.0].value.data();
        rowops::blend_jet_into(x, &weights, slopes.each_ref().map(|s| &s[..]), group, &mut out);
        let value = Tensor::from_guard(out, &[JET_LANES * q, c]);
        let rg = self.rg(input);
        self.push(value, Op::BlendJet { input, weights, slopes, group }, rg)
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
            let (kind, began) = (op.kind(), self.times.is_some().then(Instant::now));
            self.backprop_node(i, grad, op);
            if let (Some(times), Some(began)) = (self.times.as_mut(), began) {
                times.backward_ns[kind as usize] += began.elapsed().as_nanos() as f64;
            }
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
            Op::Linear { x, w, b, act, pre, lanes, seed } => {
                self.backprop_layer(node_idx, grad, [x, w, b], act, pre, lanes, seed)
            }
            Op::BiasChannel(x, b) => {
                if self.rg(b) {
                    let c = self.nodes[b.0].value.numel();
                    let inner: usize = grad.dims()[2..].iter().product();
                    let mut gb = workspace::take_zeroed(c);
                    for slab in grad.data().chunks(c * inner) {
                        for (ch, sub) in slab.chunks(inner).enumerate() {
                            gb[ch] += sub.iter().sum::<f32>();
                        }
                    }
                    let dims = self.nodes[b.0].value.dims().to_vec();
                    self.accumulate(b, Tensor::from_guard(gb, &dims));
                }
                self.accumulate(x, grad);
            }
            Op::Relu(a) => {
                relu_grad(grad.data_mut(), self.nodes[a.0].value.data());
                self.accumulate(a, grad);
            }
            Op::Softplus(a) => {
                // d/dx softplus = sigmoid(x)
                rowops::softplus_grad_slice(grad.data_mut(), self.nodes[a.0].value.data());
                self.accumulate(a, grad);
            }
            Op::Tanh(a) => {
                tanh_grad(grad.data_mut(), self.nodes[node_idx].value.data());
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
                let mut gi = workspace::take_zeroed(dims.iter().product());
                for (slab, g) in
                    gi.chunks_mut(dims[axis] * inner).zip(grad.data().chunks(len * inner))
                {
                    slab[start * inner..(start + len) * inner].copy_from_slice(g);
                }
                self.accumulate(input, Tensor::from_guard(gi, &dims));
            }
            // Both gradients take turns too: `dx` (the forward driver on the
            // flipped weight) at batch items, `dw` at its (item, block) terms.
            Op::Conv3d { input, weight, dims } => {
                if self.rg(input) {
                    let flipped =
                        PackedConv3d::pack_flipped(self.nodes[weight.0].value.data(), dims);
                    let mut gi = workspace::take_scratch(dims.n * dims.cin * dims.vol());
                    flipped.forward_in_turns(self.workers, grad.data(), dims.spatial, &mut gi);
                    let gi = Tensor::from_guard(gi, self.nodes[input.0].value.dims());
                    self.accumulate(input, gi);
                }
                if self.rg(weight) {
                    let x = self.nodes[input.0].value.data();
                    let gw = conv3d_grad_weight_in_turns(self.workers, x, grad.data(), dims);
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
                let g = self.nodes[gamma.0].value.data();
                let (x, dy) = (xv.data(), grad.data());
                // Per-channel sums of dy and dy*xhat.
                let sums = channel_sums(x, dy, [n, c, inner], |ci, x, dy| {
                    let xhat = (x - mean[ci]) * invstd[ci];
                    [dy as f64, (dy * xhat) as f64]
                });
                let mut buf = workspace::take_scratch(x.len());
                let dx: &mut [f32] = &mut buf;
                for (ci, ((dx, x), dy)) in dx
                    .chunks_exact_mut(inner)
                    .zip(x.chunks_exact(inner))
                    .zip(dy.chunks_exact(inner))
                    .enumerate()
                {
                    let ci = ci % c;
                    let m_dy = (sums[ci][0] / count as f64) as f32;
                    let m_dyx = (sums[ci][1] / count as f64) as f32;
                    let (m, is, gg) = (mean[ci], invstd[ci], g[ci]);
                    for ((dx, &x), &dy) in dx.iter_mut().zip(x).zip(dy) {
                        let xhat = (x - m) * is;
                        *dx = gg * is * (dy - m_dy - xhat * m_dyx);
                    }
                }
                let dx = Tensor::from_guard(buf, xv.dims());
                self.accumulate(input, dx);
                let channel_totals = |at: usize, like: &Tensor| {
                    let mut t = workspace::take_scratch(sums.len());
                    t.iter_mut().zip(&sums).for_each(|(t, s)| *t = s[at] as f32);
                    Tensor::from_guard(t, like.dims())
                };
                let dgamma = channel_totals(1, &self.nodes[gamma.0].value);
                let dbeta = channel_totals(0, &self.nodes[beta.0].value);
                self.accumulate(gamma, dgamma);
                self.accumulate(beta, dbeta);
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
                let mut buf = workspace::take_zeroed(gv.numel());
                let gg: &mut [f32] = &mut buf;
                // The channel rows under the prefix; each grid element takes
                // its points' adjoints in increasing point order. Where
                // channel 0 of each point's vertex sits is found a chunk of
                // points at a time: one division per point, not per element.
                const CHUNK: usize = 64;
                let mut base = [0usize; CHUNK];
                let channels = &grad.data()[grad.numel() - c * m..];
                for (i, idx) in index.chunks(CHUNK).enumerate() {
                    for (b, &flat) in base.iter_mut().zip(idx) {
                        let (ni, sp) = (flat as usize / vol, flat as usize % vol);
                        *b = ni * c * vol + sp;
                    }
                    for (ci, row) in channels.chunks_exact(m).enumerate() {
                        let gg = &mut gg[ci * vol..];
                        for (&b, &g) in base.iter().zip(&row[i * CHUNK..][..idx.len()]) {
                            gg[b] += g;
                        }
                    }
                }
                let gg = Tensor::from_guard(buf, gv.dims());
                self.accumulate(grid, gg);
            }
            Op::VertexBlend { input, weights, group } => {
                let dims = self.nodes[input.0].value.dims().to_vec();
                let c = dims[0];
                let mut gi = workspace::take_scratch(c * weights.len());
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
                self.accumulate(input, Tensor::from_guard(gi, &dims));
            }
            Op::BlendJet { input, weights, slopes, group } => {
                let dims = self.nodes[input.0].value.dims().to_vec();
                let mut gi = workspace::take_scratch(dims.iter().product());
                let slopes = slopes.each_ref().map(|s| &s[..]);
                rowops::blend_jet_grad_into(grad.data(), &weights, slopes, group, &mut gi);
                self.accumulate(input, Tensor::from_guard(gi, &dims));
            }
        }
    }

    /// The backward of a layer node ([`Graph::layer`]) from its output's
    /// adjoint `grad`, in two rounds of turns:
    ///
    /// 1. over blocks of [`TURN_ROWS`] feature rows: `dz`, the adjoint of
    ///    the pre-activation `z = w · x + b`, in place on `grad` (under a
    ///    seed, its value lane over `pre`), and each row's sums — the bias
    ///    gradient's, and under a seed lanes 1–3's, which `dw` adds;
    /// 2. `dw = dz · xᵀ` on the caller, as one `conv3d_grad_weight` call
    ///    whatever the layer's width (its pointwise arm: `x` transposed a
    ///    block at a time, `dz` read where it lies): its sum over columns
    ///    runs in one order whatever the thread count. Meanwhile every other
    ///    worker — the caller too, once `dw` is done — takes turns at
    ///    slabs of [`TURN_COLUMNS`] columns of `dx = wᵀ · dz`.
    ///
    /// Every output element is the FMA chain of a single pass.
    #[allow(clippy::too_many_arguments)]
    fn backprop_layer(
        &mut self,
        node_idx: usize,
        mut grad: Tensor,
        [x, w, b]: [Var; 3],
        act: Activation,
        mut pre: Option<Tensor>,
        lanes: usize,
        seed: Option<[f32; 3]>,
    ) {
        let (xv, wv) = (&self.nodes[x.0].value, &self.nodes[w.0].value);
        let ((k, cols), n) = ((xv.dims()[0], xv.dims()[1]), wv.dims()[0]);
        let points = grad.numel() / (n * lanes);
        let (bias, value) = (self.nodes[b.0].value.data(), self.nodes[node_idx].value.data());
        let seeds = seed_scalars(wv, seed);
        let row = grad.numel() / n;
        let pre_row = pre.as_ref().map_or(0, |p| p.numel() / n);
        // Per feature row: the value lane's sum, then lanes 1–3's.
        let mut sums = workspace::take_zeroed(4 * n);
        let mut pres = pre.as_mut().map(|p| p.data_mut().chunks_mut(TURN_ROWS * pre_row));
        let rows = grad.data_mut().chunks_mut(TURN_ROWS * row).zip(sums.chunks_mut(4 * TURN_ROWS));
        let rows = rows
            .enumerate()
            .map(move |(i, (g, s))| (i * TURN_ROWS, g, pres.as_mut().and_then(Iterator::next), s));
        let dz_rows =
            |(j, g, mut pre, sums): (usize, &mut [f32], Option<&mut [f32]>, &mut [f32])| {
                let count = g.len() / row;
                let bias = &bias[j..j + count];
                match (act, pre.as_deref_mut()) {
                    (_, Some(pre)) if lanes > 1 => {
                        let seeds =
                            if seeds.is_empty() { &[][..] } else { &seeds[3 * j..3 * (j + count)] };
                        act.bias_jet_features::<true>(g, pre, bias, seeds)
                    }
                    (Activation::Softplus, pre) => {
                        let pre =
                            pre.expect("a softplus layer that needs a gradient saved its GEMM");
                        rowops::bias_softplus_grad_features(g, pre, bias);
                    }
                    // y = max(z, 0) is positive exactly where z is.
                    (Activation::Relu, _) => relu_grad(g, &value[j * row..][..g.len()]),
                    (Activation::Tanh, _) => tanh_grad(g, &value[j * row..][..g.len()]),
                    (Activation::Linear, _) => {}
                }
                // The value lane's dz, under a seed the one the epilogue left in `pre`.
                let dz = match (&pre, seed) {
                    (Some(pre), Some(_)) => &pre[..],
                    _ => &g[..],
                };
                lane_sums(dz, count, 0, points, sums, 0);
                if seed.is_some() {
                    for a in 0..3 {
                        lane_sums(g, count, 1 + a, points, sums, 1 + a);
                    }
                }
            };
        let take = |_: &mut (), t: &Turns<_>| t.for_each(&dz_rows);
        in_turns(self.workers, rows, || (), take, take);

        // The columns of dz that met a column of x: all of them, or under a
        // seed the value lane's, which the epilogue left in `pre`. The other
        // buffer is spent, and back in the pool before `dx` is taken.
        let dz = match (seed, pre) {
            (Some(_), Some(pre)) => pre,
            _ => grad,
        };
        let dz = dz.data();
        let dims = Conv3dDims { n: 1, cin: k, cout: n, spatial: [1, 1, cols], kernel: [1; 3] };
        // The bias joins the value lane only.
        let db = self.rg(b).then(|| {
            let mut db = workspace::take_scratch(n);
            db.iter_mut().zip(sums.chunks_exact(4)).for_each(|(d, s)| *d = s[0]);
            Tensor::from_guard(db, self.nodes[b.0].value.dims())
        });
        let mut dw = None;
        let weight_grad = || {
            // y = w · x  =>  dw = dz · xᵀ, in w's [out, in] layout.
            let mut dw = conv3d_grad_weight(xv.data(), dz, dims, None).reshape(wv.dims());
            // Seed lane 1 + a is seed[a] in input feature a, zero elsewhere.
            for (a, &s) in seed.iter().flatten().enumerate() {
                for (o, sums) in sums.chunks_exact(4).enumerate() {
                    dw.data_mut()[o * k + a] += s * sums[1 + a];
                }
            }
            dw
        };
        let mut dx = self.rg(x).then(|| workspace::take_scratch(k * cols));
        match dx.as_deref_mut() {
            None => dw = self.rg(w).then(weight_grad),
            Some(dx) => {
                // dx = wᵀ · dz, the input gradient's conv.
                let weight = LayerGemm::transposed(wv, dims);
                gemm_in_turns(self.workers, &weight, dz, dx, k, || {
                    dw = self.rg(w).then(weight_grad)
                });
            }
        }
        let dx = dx.map(|dx| Tensor::from_guard(dx, xv.dims()));
        for (v, g) in [(b, db), (w, dw), (x, dx)] {
            if let Some(g) = g {
                self.accumulate(v, g);
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

/// A layer's weight as its forward and input-gradient GEMMs read it: packed
/// into the driver's A panels, or — a layer narrower than the tile
/// (`mfn_tensor::thin`) — row-major, for [`thin::thin_columns`] to read in
/// place. Either way every output column is the same FMA chain. (The weight
/// gradient reads no weight: `conv3d_grad_weight` for every width.)
enum LayerGemm {
    Packed(PackedConv3d),
    Thin(Tensor),
}

impl LayerGemm {
    /// The forward's `w: [n, k]`.
    fn new(w: &Tensor) -> Self {
        let (n, k) = (w.dims()[0], w.dims()[1]);
        if thin::is_thin(n) {
            LayerGemm::Thin(w.clone())
        } else {
            LayerGemm::Packed(PackedConv3d::pack_linear(w.data(), n, k))
        }
    }

    /// The input gradient's `wᵀ: [k, n]` for the layer of `dims`.
    fn transposed(w: &Tensor, dims: Conv3dDims) -> Self {
        if thin::is_thin(dims.cout) {
            LayerGemm::Thin(w.transpose2())
        } else {
            LayerGemm::Packed(PackedConv3d::pack_flipped(w.data(), dims))
        }
    }
}

/// `out = w · x` for a layer's weight `w: [n, k]` over `x: [k, cols]`, `out:
/// [n, cols]`, on `workers` threads taking turns at slabs of
/// [`TURN_COLUMNS`] columns; a packed weight's workers each pack B panels in
/// scratch of their own. The caller runs `first` before it takes its first
/// slab.
fn gemm_in_turns(
    workers: usize,
    w: &LayerGemm,
    x: &[f32],
    out: &mut [f32],
    n: usize,
    first: impl FnOnce(),
) {
    let cols = out.len() / n;
    let b_len = match w {
        LayerGemm::Packed(w) => w.columns_scratch(TURN_COLUMNS.min(cols)),
        LayerGemm::Thin(_) => 0,
    };
    let slabs = ColumnSlabs::new(out, n, cols, TURN_COLUMNS);
    let take = |b_pack: &mut workspace::WorkspaceGuard, slabs: &Turns<ColumnSlabs<'_>>| {
        for mut slab in slabs {
            let range = slab.range();
            match w {
                LayerGemm::Packed(w) => w.forward_columns(x, range, &mut slab, b_pack),
                LayerGemm::Thin(w) => thin::thin_columns(w.data(), n, x, range, &mut slab),
            }
        }
    };
    let caller = |b_pack: &mut _, slabs: &Turns<_>| {
        first();
        take(b_pack, slabs)
    };
    in_turns(workers, slabs, || workspace::take_scratch(b_len), caller, take);
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
/// `points` columns), points added in order, into `out[4·r + at]` for row
/// `r`. Each sum is one chain of adds; eight rows' chains are interleaved,
/// so they run at the adder's throughput instead of its latency.
fn lane_sums(m: &[f32], n: usize, lane: usize, points: usize, out: &mut [f32], at: usize) {
    const ROWS: usize = 8;
    let len = m.len() / n;
    for (out, rows) in out.chunks_mut(4 * ROWS).zip(m.chunks(ROWS * len)) {
        let mut sums = [0.0f32; ROWS];
        for p in lane * points..(lane + 1) * points {
            for (sum, row) in sums.iter_mut().zip(rows.chunks_exact(len)) {
                *sum += row[p];
            }
        }
        for (out, sum) in out.chunks_mut(4).zip(sums) {
            out[at] = sum;
        }
    }
}

/// Channels whose chains [`channel_sums`] carries side by side.
const SUM_CHANNELS: usize = 8;

/// Per-channel sums over two `[n, c, inner]` tensors `x` and `y`: for channel
/// `ci`, the `S` sums of `term(ci, x, y)` over its slab of every item in
/// item order, element by element. Each channel's sums are one chain each
/// in that order; the chains of [`SUM_CHANNELS`] channels are interleaved,
/// so they run at the adder's throughput instead of its latency.
fn channel_sums<const S: usize>(
    x: &[f32],
    y: &[f32],
    [n, c, inner]: [usize; 3],
    term: impl Fn(usize, f32, f32) -> [f64; S],
) -> Vec<[f64; S]> {
    assert!(
        x.len() == n * c * inner && y.len() == x.len(),
        "channel_sums over [{n}, {c}, {inner}]"
    );
    let mut sums = vec![[0.0f64; S]; c];
    for ni in 0..n {
        let mut c0 = 0;
        while c0 < c {
            let at = (ni * c + c0) * inner;
            c0 += if c - c0 >= SUM_CHANNELS {
                channel_group::<SUM_CHANNELS, S>(&x[at..], &y[at..], inner, c0, &mut sums, &term)
            } else {
                channel_group::<1, S>(&x[at..], &y[at..], inner, c0, &mut sums, &term)
            };
        }
    }
    sums
}

/// [`channel_sums`] over the `G` channel slabs from `c0` of one item, whose
/// first elements are `x[0]` and `y[0]`; returns `G`.
#[inline(always)]
fn channel_group<const G: usize, const S: usize>(
    x: &[f32],
    y: &[f32],
    inner: usize,
    c0: usize,
    sums: &mut [[f64; S]],
    term: &impl Fn(usize, f32, f32) -> [f64; S],
) -> usize {
    let xs: [&[f32]; G] = std::array::from_fn(|j| &x[j * inner..][..inner]);
    let ys: [&[f32]; G] = std::array::from_fn(|j| &y[j * inner..][..inner]);
    let mut acc: [[f64; S]; G] = std::array::from_fn(|j| sums[c0 + j]);
    for k in 0..inner {
        for (j, acc) in acc.iter_mut().enumerate() {
            let t = term(c0 + j, xs[j][k], ys[j][k]);
            for (a, t) in acc.iter_mut().zip(t) {
                *a += t;
            }
        }
    }
    sums[c0..c0 + G].copy_from_slice(&acc);
    G
}

/// relu′ in place: zeroes `g` wherever `v` is not positive. `v` may be the
/// relu's input or its output, which are positive in the same places.
fn relu_grad(g: &mut [f32], v: &[f32]) {
    for (g, &v) in g.iter_mut().zip(v) {
        *g = if v > 0.0 { *g } else { 0.0 };
    }
}

/// tanh′ in place, from the tanh's output: `g *= 1 - t²`.
fn tanh_grad(g: &mut [f32], t: &[f32]) {
    for (g, &t) in g.iter_mut().zip(t) {
        *g *= 1.0 - t * t;
    }
}
/// `t *= s`, elementwise.
fn scale_in_place(t: &mut Tensor, s: f32) {
    for v in t.data_mut() {
        *v *= s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tape times its nodes only when asked, and then by kind, forward
    /// and backward; timing moves no bit.
    #[test]
    fn node_times_are_kept_by_kind_only_when_asked() {
        let run = |timed: bool| {
            let mut g = if timed { Graph::new().with_node_times() } else { Graph::new() };
            let x = g.constant(Tensor::full(&[2, 3, 2, 4, 4], 0.5));
            let w = g.leaf_with_grad(Tensor::full(&[4, 3, 3, 3, 3], 0.25));
            let y = g.conv3d(x, w);
            let loss = g.mean(y);
            g.backward(loss);
            let grad: Vec<u32> = g.grad(w).data().iter().map(|v| v.to_bits()).collect();
            (g.node_times().copied(), grad)
        };
        let (untimed, want) = run(false);
        assert_eq!(untimed, None, "an untimed tape keeps no times");
        let (times, got) = run(true);
        assert_eq!(got, want, "timing moved a bit");
        let times = times.expect("a timed tape keeps its times");
        for kind in [NodeKind::Input, NodeKind::Conv, NodeKind::Loss] {
            assert!(times.forward_ns[kind as usize] > 0.0, "{kind:?} forward untimed");
        }
        for kind in [NodeKind::Conv, NodeKind::Loss] {
            assert!(times.backward_ns[kind as usize] > 0.0, "{kind:?} backward untimed");
        }
        assert_eq!(times.backward_ns[NodeKind::Input as usize], 0.0, "a leaf has no backward");
        assert_eq!(times.ns(NodeKind::Layer), 0.0, "no layer node ran");
    }
}
