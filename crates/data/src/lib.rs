//! # mfn-data
//!
//! The data pipeline of the MeshfreeFlowNet reproduction (paper Sec. 3.2 and
//! the query/supervision machinery of Fig. 3):
//!
//! - [`dataset`]: the `[nt, 4, nz, nx]` space-time container (`T, p, u, w`)
//!   with normalization statistics;
//! - [`downsample`](mod@downsample): strided LR construction (paper factors
//!   `d_t=4, d_s=8`);
//! - [`interp`]: space-time trilinear interpolation — HR supervision values
//!   and the Table 2 Baseline (I) upsampler;
//! - [`patch`]: fixed-size LR patch + continuous query-point sampling;
//! - [`io`]: binary + JSON persistence;
//! - [`image`]: PGM/CSV contour dumps for the Fig. 6 panels.

pub mod dataset;
pub mod downsample;
pub mod image;
pub mod interp;
pub mod io;
pub mod patch;

pub use dataset::{Dataset, DatasetMeta, CHANNELS, CH_P, CH_T, CH_U, CH_W};
pub use downsample::{
    downsample, try_downsample, DownsampleError, PAPER_DS_FACTOR, PAPER_DT_FACTOR,
};
pub use interp::{sample_trilinear, upsample_trilinear};
pub use io::{load_dataset, save_dataset};
pub use patch::{covering_axis, make_batch, stack_patches, Batch, PatchSampler, PatchSpec, Sample};
