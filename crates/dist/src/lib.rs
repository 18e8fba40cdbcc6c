//! # mfn-dist
//!
//! The HPC layer of the MeshfreeFlowNet reproduction (paper Secs. 3.4 and
//! 5.4): synchronous data-parallel training with a bandwidth-optimal
//! [`ring`](mod@crate::ring) all-reduce (reduce-scatter + all-gather, the NCCL
//! schedule).
//!
//! The gradient step and the epoch loop are not here: every worker is an
//! `mfn_core::Trainer`, handed the ring as its gradient exchange
//! ([`trainer`]). This crate holds the one driver of such ranks —
//! [`supervisor`], one round at a time with snapshot, [`fault`]
//! injection and rollback.

pub mod fault;
pub mod ring;
pub mod supervisor;
pub mod trainer;

pub use fault::{FaultKind, FaultPlan};
pub use ring::{ring, RingError, RingHandle};
pub use supervisor::{train_elastic, DistRunResult, SupervisorConfig};
pub use trainer::{param_digest, train_data_parallel, train_data_parallel_recorded};
