//! # mfn-autodiff
//!
//! A from-scratch reverse-mode automatic-differentiation engine plus the
//! neural-network building blocks used by the MeshfreeFlowNet reproduction:
//!
//! - [`Graph`]: a Wengert-list tape recording tensor ops (conv3d, pooling,
//!   upsampling, batch norm, GEMM, activations, gathers and trilinear vertex
//!   blending) with exact reverse-mode gradients;
//! - [`nn`]: `Linear`, `Conv3dLayer`, `BatchNorm3d`, `Mlp` layers over a
//!   shared [`ParamStore`];
//! - [`optim`]: Adam, the paper's optimizer.
//!
//! The tape also differentiates a network with respect to its inputs: a
//! layer run on [`JET_LANES`] lanes carries a value with its first and second
//! space-time derivatives (see [`graph`]), which is where the PDE residuals
//! of the continuous decoder get theirs.
//!
//! Graphs are plain owned values (`Send`), so the data-parallel trainer can
//! run one tape per worker thread with no shared mutable state.

pub mod checkpoint;
pub mod graph;
pub mod nn;
pub mod optim;
pub mod params;

pub use checkpoint::{read_adam, read_params, write_adam, write_params};
pub use graph::{Graph, NodeKind, NodeTimes, Var, JET_LANES};
pub use mfn_tensor::rowops::{sigmoid_scalar, softplus_scalar};
pub use nn::{
    Activation, BatchNorm3d, Conv3dLayer, EvalAffine, Linear, Mlp, PackedConv3dLayer, PackedMlp,
};
pub use optim::{clip_grad_norm, grad_l2_norm, Adam, AdamConfig};
pub use params::{flatten_grads, unflatten_grads, FrozenParams, ParamId, ParamStore};
