//! # mfn-serve
//!
//! Continuous-query inference serving for a trained MeshfreeFlowNet.
//!
//! The paper's architecture splits inference into an expensive half (the 3D
//! U-Net encoding a low-resolution patch into a Latent Context Grid) and a
//! cheap half (an MLP answering arbitrary continuous `(t, z, x)` queries
//! against that grid). This crate exploits the split as a serving system:
//!
//! - [`engine`]: a grad-free [`Engine`] over [`mfn_core::FrozenModel`] —
//!   no autodiff tape, batch norm on frozen running statistics, `&self`
//!   everywhere so one engine serves all threads, each request decoded on
//!   the worker that holds it;
//! - [`cache`]: an LRU [`LatentCache`] keyed by a digest of the input patch
//!   bytes — *encode once, decode many*;
//! - [`protocol`] / [`server`] / [`client`]: a std-only, length-prefixed
//!   binary TCP protocol with versioned headers, typed error frames, and an
//!   incremental [`protocol::FrameDecoder`] for nonblocking streams;
//! - [`server`]: a readiness-loop server — one IO thread multiplexing all
//!   connections over nonblocking sockets with per-connection state
//!   machines, a bounded compute-worker pool, admission control, and
//!   graceful drain;
//! - [`ring`] / [`router`]: fleet scale-out — a consistent-hash [`HashRing`]
//!   shards the latent cache by patch digest across N servers, and the
//!   [`Router`] forwards frames digest-affinely while health-checking
//!   replicas;
//! - [`loadmodel`]: deterministic load synthesis — zipf patch popularity and
//!   open-loop exponential arrivals under a pinned seed;
//! - [`metrics`]: serving counters published as `serve.*` telemetry.
//!
//! Binaries: `serve` (load a checkpoint, listen), `router` (front a shard
//! fleet), and `loadgen` (drive a server or fleet; writes
//! `BENCH_fleet.json`, or `BENCH_refine.json` with `--refine`).

pub mod cache;
pub mod client;
pub mod engine;
pub mod error;
pub mod loadmodel;
pub mod metrics;
pub mod protocol;
pub mod ring;
pub mod router;
pub mod server;

pub use cache::{patch_digest, patch_digest_bytes, patch_verify, LatentCache, Lookup};
pub use client::{Client, QueryResult, RefineResult};
pub use engine::{
    Engine, EngineConfig, Query, RefineOutcome, MAX_INFLIGHT_REFINE_COST, MAX_REFINE_POINTS,
    MAX_REFINE_STEPS,
};
pub use error::ServeError;
pub use loadmodel::{ArrivalSchedule, SplitMix64, Zipf};
pub use metrics::ServeStats;
pub use protocol::{ModelInfo, ShardStat};
pub use ring::HashRing;
pub use router::{Router, RouterConfig};
pub use server::{Server, ServerConfig};
