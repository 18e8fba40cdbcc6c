//! # mfn-tensor
//!
//! Dense `f32` tensors and the single-threaded compute kernels that back the
//! MeshfreeFlowNet neural-network stack:
//!
//! - [`Tensor`]: contiguous row-major storage with element-wise ops,
//!   concat/split, and seeded random initialization;
//! - [`conv`]: 3D convolution (forward + both backwards, one fused
//!   implicit-GEMM lowering for every odd kernel; [`PackedConv3d`] holds a
//!   weight's panels — a conv's, or a `Linear`'s as the 1×1×1 case — so its
//!   driver is the one matrix multiply every layer of the network runs on),
//!   max pooling and nearest-neighbor upsampling for the 3D U-Net encoder;
//! - [`gemm`](mod@gemm): the blocking constants, A-panel pack and
//!   macro-kernel that driver is built from, and the row-major
//!   [`gemm`](fn@gemm) entry, a front end on that driver which no layer
//!   calls: it is kept as the end-to-end benchmark's kernel replay;
//! - [`thin`]: the two GEMMs of a layer narrower than the tile (the
//!   decoder's 4-wide head), reading the wide operand in place and giving
//!   the driver's bits;
//! - [`rowops`]: the gather/blend/bias/affine/softplus kernels the autodiff
//!   tape and the no-grad inference engine share, on one feature-major
//!   activation layout;
//! - [`turns`]: the one way a call runs on more than one core — the caller
//!   and its thread's helpers taking turns at its chunks (the no-grad
//!   decode's query blocks, the tape's layer and conv nodes);
//! - [`workspace`]: the buffer pool that lets kernels and tensor temporaries
//!   reuse memory across training steps;
//! - [`le`]: the bounds-checked little-endian reader every byte loader
//!   decodes with, and the FNV-1a fold the workspace's digests share.
//!
//! The `mfn-autodiff` crate wraps these kernels with a reverse-mode tape;
//! this crate itself is AD-agnostic.

pub mod conv;
pub mod gemm;
pub mod le;
pub mod rowops;
pub mod shape;
pub mod simd;
pub mod tensor;
pub mod thin;
pub mod turns;
pub mod workspace;

pub use conv::{
    conv3d_auto, conv3d_grad_input, conv3d_grad_weight, conv3d_grad_weight_in_turns, maxpool3d,
    maxpool3d_backward, maxpool3d_values, timed, upsample_nearest3d, upsample_nearest3d_backward,
    Conv3dDims, ConvStages, PackedConv3d,
};
pub use gemm::{gemm, MatLayout};
pub use rowops::{
    add_bias_channels, add_bias_features, blend_features_into, channel_affine, gather_features,
};
pub use shape::Shape;
pub use simd::{kernel_backend, set_backend_override, KernelBackend};
pub use tensor::Tensor;
pub use turns::{cores, in_turns, ColumnSlab, ColumnSlabs, Turns};
