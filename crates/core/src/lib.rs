//! # mfn-core
//!
//! The paper's primary contribution: **MeshfreeFlowNet**, a
//! physics-constrained deep continuous space-time super-resolution framework
//! (Jiang, Esmaeilzadeh, et al., SC 2020), implemented from scratch in Rust
//! on the `mfn-tensor`/`mfn-autodiff` stack.
//!
//! - [`unet`]: the Context Generation Network — a residual 3D U-Net with
//!   anisotropic pooling producing the Latent Context Grid (Sec. 4.1);
//! - [`decoder`]: the Continuous Decoding Network — a shared MLP queried per
//!   cell vertex and blended trilinearly (Sec. 4.2), on the reverse-mode tape
//!   (values, or values with their exact space-time derivatives as lanes)
//!   and tape-free;
//! - [`losses`]: prediction loss (Eqn. 8) and PDE equation loss (Eqn. 9) on
//!   those derivative lanes;
//! - [`model`]: the assembled network and the combined loss (Eqn. 10);
//! - [`infer`]: the frozen inference engine — every tape-free encode,
//!   decode and full-domain super-resolution;
//! - [`baseline`]: Baseline (I) trilinear and Baseline (II) convolutional-
//!   decoder U-Net of Table 2;
//! - [`trainer`] / [`eval`]: the one Adam training loop, which trains both
//!   MeshfreeFlowNet and Baseline (II), and the NMAE/R² scores with the
//!   one renderer of an experiment's results;
//! - [`cli`]: the command-line parsing every binary shares.

pub mod baseline;
pub mod checkpoint;
pub mod cli;
pub mod config;
pub mod decoder;
pub mod eval;
pub mod infer;
pub mod losses;
pub mod model;
pub mod refine;
pub mod rng;
pub mod trainer;
pub mod unet;

pub use baseline::{baseline_trilinear, hr_target_patch, BaselineII};
pub use checkpoint::{
    crc32, decode_inference_state, decode_train_state, encode_train_state, load_train_state,
    load_train_state_with_fallback, prev_path, save_train_state, write_periodic, write_train_state,
    CheckpointError, TrainStateMeta,
};
pub use config::{MfnConfig, TrainConfig};
pub use decoder::{
    decode_workers, plan_queries, ContinuousDecoder, DecodeStages, QueryPlan, VERTICES,
};
pub use eval::{evaluate_pair, metric_series, render, Arm, Order, Results, Run, Scores, WorldRun};
pub use infer::FrozenModel;
pub use losses::{
    equation_loss, equation_loss_at_points, prediction_loss, ChannelStats, ConstraintSet,
};
pub use mfn_physics::RbcParams;
pub use model::{covering_origins, extract_patch, CoveringOrigins, MeshfreeFlowNet, StepLosses};
pub use refine::{refine_latent, RefineBudget, RefineReport, RefineSettings};
pub use rng::{RngState, SampleRng};
pub use trainer::{
    decode_run_state, log_pool_stats, Corpus, EpochRecord, GradReduce, NoReduce, StepStages,
    Trainable, Trainer,
};
pub use unet::{PackedResBlock, PackedUNet, ResBlock3d, UNet3d};
