//! # mfn-physics
//!
//! The physics toolbox of the MeshfreeFlowNet reproduction:
//!
//! - [`stats`]: the nine turbulence metrics of paper Sec. 3.3 (total kinetic
//!   energy, RMS velocity, dissipation, Taylor microscale, Taylor-scale
//!   Reynolds number, Kolmogorov time/length, integral scale, eddy turnover);
//! - [`scores`]: NMAE and R² scoring of metric series — the numbers printed
//!   in Tables 1–4;
//! - [`residual`]: the Rayleigh–Bénard PDE residuals, written once for any
//!   arithmetic: the solver cross-check runs them on `f64`, the training
//!   equation loss and test-time refinement on autodiff-tape nodes.

pub mod residual;
pub mod scores;
pub mod stats;

pub use residual::{grid_residuals, residuals, PointState, RbcParams};
pub use scores::{nmae, r2, score_metric_series, MetricScore};
pub use stats::{flow_stats, FlowStats, METRIC_NAMES};
