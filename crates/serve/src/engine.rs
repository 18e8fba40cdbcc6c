//! The inference engine: frozen model + latent cache.
//!
//! One [`Engine`] is shared (via `Arc`) by every server worker. All methods
//! take `&self` and validate client-supplied shapes *before* touching the
//! model, mapping violations to typed [`ServeError`]s — a malformed request
//! must never reach a kernel assert. Each request is decoded on the worker
//! that holds it; no request waits on another (DESIGN.md §11).

use crate::cache::{patch_digest, patch_verify, LatentCache, Lookup};
use crate::error::ServeError;
use crate::metrics::ServeStats;
use crate::protocol::{ModelInfo, ShardStat};
use mfn_core::{FrozenModel, RefineBudget, RefineReport, RefineSettings};
use mfn_tensor::Tensor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A query point: `(batch index, [t, z, x] local coords)`.
pub type Query = (usize, [f32; 3]);

/// Server-side cap on a refinement's `max_steps` — a client budget beyond
/// this is rejected with `BadBudget`, never silently clamped (the client
/// would otherwise pay for steps it did not get).
pub const MAX_REFINE_STEPS: u32 = 256;
/// Server-side cap on query points per refinement request (each point costs
/// a six-lane decode per gradient step).
pub const MAX_REFINE_POINTS: usize = 4096;
/// Admission cap on the summed cost (`(max_steps + 1) · points`) of
/// refinements in flight; beyond it new refinements get `Busy`, so a burst
/// of premium requests degrades into retries instead of starving the
/// grad-free fast path.
pub const MAX_INFLIGHT_REFINE_COST: u64 = 2 * (MAX_REFINE_STEPS as u64 + 1) * 4096;

/// Engine knobs.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Latents kept in the LRU cache.
    pub cache_capacity: usize,
    /// Test-time physics refinement settings; `None` (the default) answers
    /// every `Refine` request with `RefineDisabled` and keeps the engine a
    /// pure grad-free fast path.
    pub refine: Option<RefineSettings>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { cache_capacity: 64, refine: None }
    }
}

/// What a refinement request produced: decoded values at the query points
/// against the refined latent, plus the descent report.
#[derive(Debug, Clone, PartialEq)]
pub struct RefineOutcome {
    /// Flattened `count · channels` decoded values.
    pub values: Vec<f32>,
    /// Output channel count.
    pub channels: usize,
    /// Steps run/accepted and the residual trajectory.
    pub report: RefineReport,
}

/// Decodes run and points decoded: the counters behind the wire fields
/// [`ShardStat::decode_calls`] / [`ShardStat::batched_queries`].
#[derive(Default)]
pub struct DecodeCounters {
    calls: AtomicU64,
    points: AtomicU64,
}

impl DecodeCounters {
    /// Total `decode_values` invocations so far.
    pub fn decode_calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Total query points decoded so far; `batched_queries / decode_calls`
    /// is the mean points per decode.
    pub fn batched_queries(&self) -> u64 {
        self.points.load(Ordering::Relaxed)
    }
}

/// A thread-safe serving engine over a [`FrozenModel`]: the grad-free
/// decode fast path, plus (when enabled) the grad-capable refinement tier.
pub struct Engine {
    model: FrozenModel,
    cache: LatentCache,
    decodes: DecodeCounters,
    stats: ServeStats,
    refine_settings: Option<RefineSettings>,
    /// Summed `(max_steps + 1) · points` of refinements in flight.
    refine_cost: AtomicU64,
}

impl Engine {
    /// Wraps a frozen model with a cache.
    pub fn new(model: FrozenModel, cfg: EngineConfig) -> Self {
        Engine {
            model,
            cache: LatentCache::new(cfg.cache_capacity),
            decodes: DecodeCounters::default(),
            stats: ServeStats::new(),
            refine_settings: cfg.refine,
            refine_cost: AtomicU64::new(0),
        }
    }

    /// The underlying frozen model.
    pub fn model(&self) -> &FrozenModel {
        &self.model
    }

    /// The latent cache (hit/miss counters live here).
    pub fn cache(&self) -> &LatentCache {
        &self.cache
    }

    /// The decode counters. Named for the batcher that once held them:
    /// `benchmark/` reads them as `batcher()` and cannot change with the engine.
    pub fn batcher(&self) -> &DecodeCounters {
        &self.decodes
    }

    /// Shared serving counters.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Wire-format model metadata.
    pub fn info(&self) -> ModelInfo {
        let cfg = self.model.cfg();
        let [nt, nz, nx] = self.model.grid_dims();
        ModelInfo {
            in_channels: cfg.in_channels as u32,
            out_channels: cfg.out_channels as u32,
            grid: [nt as u32, nz as u32, nx as u32],
            latent_channels: cfg.latent_channels as u32,
            param_count: self.model.param_count() as u64,
            trained_steps: self.model.trained_steps(),
        }
    }

    /// Snapshot of this process's serving counters in wire form, labelled
    /// with its advertised address. This is what a `Stats` frame returns
    /// and what a router aggregates per shard.
    pub fn shard_stat(&self, addr: &str) -> ShardStat {
        ShardStat {
            addr: addr.to_string(),
            requests: self.stats.requests(),
            errors: self.stats.errors(),
            inflight: self.stats.inflight(),
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            cache_collisions: self.cache.collisions(),
            cache_len: self.cache.len() as u64,
            decode_calls: self.decodes.decode_calls(),
            batched_queries: self.decodes.batched_queries(),
        }
    }

    /// Flat f32 element count of a `batch`-patch encode input.
    pub fn patch_numel(&self, batch: usize) -> usize {
        let cfg = self.model.cfg();
        batch * cfg.in_channels * cfg.patch.nt * cfg.patch.nz * cfg.patch.nx
    }

    /// Encodes a stacked patch (`batch × C × nt × nz × nx`, flattened) into
    /// the cache, returning `(digest, cache_hit)`. A hit skips the U-Net
    /// entirely — that asymmetry is the entire point of this subsystem.
    pub fn encode_patch(&self, batch: usize, data: Vec<f32>) -> Result<(u64, bool), ServeError> {
        self.encode(batch, data).map(|(digest, hit, _)| (digest, hit))
    }

    /// [`Engine::encode_patch`], also returning the latent it found or made.
    fn encode(&self, batch: usize, data: Vec<f32>) -> Result<(u64, bool, Arc<Tensor>), ServeError> {
        if batch == 0 {
            return Err(ServeError::ShapeMismatch("encode batch must be >= 1".into()));
        }
        let expect = self.patch_numel(batch);
        if data.len() != expect {
            return Err(ServeError::ShapeMismatch(format!(
                "encode payload holds {} f32s, batch {batch} needs {expect}",
                data.len()
            )));
        }
        let cfg = self.model.cfg();
        let dims = [batch, cfg.in_channels, cfg.patch.nt, cfg.patch.nz, cfg.patch.nx];
        let digest = patch_digest(&dims, &data);
        let verify = patch_verify(&dims, &data);
        // A bare digest match is not proof the cached latent came from
        // these bytes — 64-bit digests collide. Only honour the hit when
        // the independent verification hash agrees; a mismatch means a
        // different patch owns this digest, and since the digest is the
        // wire handle for later `Query` frames, the new patch cannot be
        // cached at all — refuse loudly instead of answering from the
        // wrong latent.
        match self.cache.get_verified(digest, verify) {
            Lookup::Hit(latent) => return Ok((digest, true, latent)),
            Lookup::Collision => return Err(ServeError::DigestCollision(digest)),
            Lookup::Miss => {}
        }
        // Concurrent misses on the same patch both encode and race the
        // insert; the result is identical either way (the encode is a pure
        // function of the bytes), so we take the duplicated work over
        // holding a lock across the U-Net.
        let latent = Arc::new(self.model.encode(&Tensor::from_vec(data, &dims)));
        self.cache.insert(digest, verify, latent.clone());
        Ok((digest, false, latent))
    }

    /// Answers point queries against a cached latent on the calling thread.
    /// Returns the flattened `len·C` values and the channel count `C`.
    pub fn query(&self, digest: u64, queries: Vec<Query>) -> Result<(Vec<f32>, usize), ServeError> {
        let latent = self.cache.get(digest).ok_or(ServeError::UnknownDigest(digest))?;
        self.answer(&latent, queries)
    }

    /// The query half of `query` and `encode_query`.
    fn answer(
        &self,
        latent: &Tensor,
        queries: Vec<Query>,
    ) -> Result<(Vec<f32>, usize), ServeError> {
        self.validate_queries(&queries, latent.dims()[0])?;
        self.stats.note_queries(queries.len() as u64);
        Ok((self.decode(latent, &queries), self.model.cfg().out_channels))
    }

    /// The one value path of `query` and `refine`: one `decode_values` call,
    /// counted, whose own buffer is the reply.
    fn decode(&self, latent: &Tensor, queries: &[Query]) -> Vec<f32> {
        self.decodes.calls.fetch_add(1, Ordering::Relaxed);
        self.decodes.points.fetch_add(queries.len() as u64, Ordering::Relaxed);
        self.model.decode_values(latent, queries.iter().copied()).into_vec()
    }

    /// Encode + query in one call (one network round trip for cold
    /// patches). Returns `(digest, cache_hit, values, channels)`. One cache
    /// lookup: the queries see the latent the encode found or made.
    pub fn encode_query(
        &self,
        batch: usize,
        data: Vec<f32>,
        queries: Vec<Query>,
    ) -> Result<(u64, bool, Vec<f32>, usize), ServeError> {
        let (digest, hit, latent) = self.encode(batch, data)?;
        let (values, channels) = self.answer(&latent, queries)?;
        Ok((digest, hit, values, channels))
    }

    /// Whether this engine accepts `Refine` requests.
    pub fn refine_enabled(&self) -> bool {
        self.refine_settings.is_some()
    }

    /// Validates a client-supplied budget against the server's caps. Absurd
    /// budgets are *rejected*, not clamped — the typed error tells the
    /// client the cap, and no compute is spent.
    fn validate_budget(&self, budget: &RefineBudget, points: usize) -> Result<(), ServeError> {
        if budget.max_steps > MAX_REFINE_STEPS {
            return Err(ServeError::BadBudget(format!(
                "max_steps {} exceeds server cap {MAX_REFINE_STEPS}",
                budget.max_steps
            )));
        }
        if !budget.tol.is_finite() || budget.tol < 0.0 {
            return Err(ServeError::BadBudget(format!(
                "tolerance {} must be finite and non-negative",
                budget.tol
            )));
        }
        if points > MAX_REFINE_POINTS {
            return Err(ServeError::BadBudget(format!(
                "{points} refine points exceed server cap {MAX_REFINE_POINTS}"
            )));
        }
        Ok(())
    }

    /// Test-time physics refinement: clone the cached latent for `digest`,
    /// run budgeted gradient descent on the clone minimizing the PDE
    /// residual at `queries`, decode the refined latent at those points.
    ///
    /// The shared cache entry is never written — concurrent plain queries
    /// and later refinements of the same digest all start from the original
    /// encoder output (see DESIGN.md §14 for the isolation contract).
    pub fn refine(
        &self,
        digest: u64,
        queries: Vec<Query>,
        budget: RefineBudget,
    ) -> Result<RefineOutcome, ServeError> {
        let settings = self.refine_settings.ok_or(ServeError::RefineDisabled)?;
        self.validate_budget(&budget, queries.len())?;
        let latent = self.cache.get(digest).ok_or(ServeError::UnknownDigest(digest))?;
        self.validate_queries(&queries, latent.dims()[0])?;
        // Budget-aware admission: refinements are orders of magnitude more
        // expensive than plain decodes, so they are admitted against a
        // worst-case cost pool instead of the per-connection backlog.
        let cost = (budget.max_steps as u64 + 1) * queries.len() as u64;
        let prev = self.refine_cost.fetch_add(cost, Ordering::AcqRel);
        if prev + cost > MAX_INFLIGHT_REFINE_COST {
            self.refine_cost.fetch_sub(cost, Ordering::AcqRel);
            self.stats.note_busy();
            return Err(ServeError::Busy);
        }
        let _guard = RefineCostGuard { cost: &self.refine_cost, amount: cost };
        self.stats.note_queries(queries.len() as u64);

        // `refine_latent` works on a private copy; the Arc'd cache entry is
        // only ever read.
        let (refined, report) = self.model.refine_latent(&latent, &queries, &settings, &budget);
        self.stats.note_refine(report.steps_run as u64);
        // Decode through the engine's standard value path so a zero-step
        // refinement is bit-identical to a plain `query` of the same digest.
        let values = self.decode(&refined, &queries);
        Ok(RefineOutcome { values, channels: self.model.cfg().out_channels, report })
    }

    fn validate_queries(&self, queries: &[Query], latent_batch: usize) -> Result<(), ServeError> {
        if queries.is_empty() {
            return Err(ServeError::ShapeMismatch("query list is empty".into()));
        }
        for &(b, coords) in queries {
            if b >= latent_batch {
                return Err(ServeError::ShapeMismatch(format!(
                    "query batch index {b} out of range for latent batch {latent_batch}"
                )));
            }
            if coords.iter().any(|c| !c.is_finite()) {
                return Err(ServeError::ShapeMismatch(format!(
                    "non-finite query coordinate {coords:?}"
                )));
            }
        }
        Ok(())
    }
}

/// Releases a refinement's reserved cost on drop — including when the
/// model panics mid-descent (the worker's `catch_unwind` keeps the process
/// alive; this keeps the admission pool from leaking).
struct RefineCostGuard<'a> {
    cost: &'a AtomicU64,
    amount: u64,
}

impl Drop for RefineCostGuard<'_> {
    fn drop(&mut self) {
        self.cost.fetch_sub(self.amount, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfn_core::{MeshfreeFlowNet, MfnConfig};
    use mfn_data::PatchSpec;

    fn tiny_engine() -> Engine {
        let mut cfg = MfnConfig::small();
        cfg.patch = PatchSpec { nt: 4, nz: 4, nx: 4, queries: 16 };
        cfg.base_channels = 4;
        cfg.latent_channels = 8;
        cfg.mlp_hidden = vec![16, 16];
        cfg.levels = 2;
        Engine::new(
            FrozenModel::from_model(MeshfreeFlowNet::new(cfg)),
            EngineConfig { cache_capacity: 8, ..EngineConfig::default() },
        )
    }

    fn patch(engine: &Engine, seed: u64) -> Vec<f32> {
        let n = engine.patch_numel(1);
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect()
    }

    #[test]
    fn encode_miss_then_hit() {
        let e = tiny_engine();
        let p = patch(&e, 1);
        let (d1, hit1) = e.encode_patch(1, p.clone()).unwrap();
        let (d2, hit2) = e.encode_patch(1, p).unwrap();
        assert_eq!(d1, d2);
        assert!(!hit1);
        assert!(hit2);
        assert_eq!(e.cache().len(), 1);
    }

    #[test]
    fn query_roundtrip_and_unknown_digest() {
        let e = tiny_engine();
        let (d, _) = e.encode_patch(1, patch(&e, 2)).unwrap();
        let (vals, c) = e.query(d, vec![(0, [0.5, 0.5, 0.5]), (0, [0.0, 1.0, 0.25])]).unwrap();
        assert_eq!(c, 4);
        assert_eq!(vals.len(), 2 * 4);
        assert!(vals.iter().all(|v| v.is_finite()));
        let err = e.query(d ^ 1, vec![(0, [0.5, 0.5, 0.5])]).unwrap_err();
        assert_eq!(err, ServeError::UnknownDigest(d ^ 1));
    }

    #[test]
    fn concurrent_queries_are_answered_alone_and_counted() {
        const THREADS: usize = 4;
        const CALLS: usize = 50;
        let e = tiny_engine();
        let (shared, _) = e.encode_patch(1, patch(&e, 20)).unwrap();
        let start = std::sync::Barrier::new(THREADS);
        let points: usize = std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (e, start) = (&e, &start);
                    s.spawn(move || {
                        let (own, _) = e.encode_patch(1, patch(e, 21 + t as u64)).unwrap();
                        start.wait();
                        let mut points = 0;
                        for call in 0..CALLS {
                            let digest = if call % 2 == 0 { shared } else { own };
                            let qs: Vec<Query> = (0..1 + (call + t) % 7)
                                .map(|j| {
                                    (0, [0.013 * call as f32, 0.11 * j as f32, 0.2 * t as f32])
                                })
                                .collect();
                            let (got, _) = e.query(digest, qs.clone()).unwrap();
                            let latent = e.cache().get(digest).unwrap();
                            let want = e.model().decode_values(&latent, qs.iter().copied());
                            assert_eq!(got, want.data(), "thread {t} call {call}");
                            points += qs.len();
                        }
                        points
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        assert_eq!(e.batcher().decode_calls(), (THREADS * CALLS) as u64);
        assert_eq!(e.batcher().batched_queries(), points as u64);
    }

    #[test]
    fn shape_violations_are_typed_not_panics() {
        let e = tiny_engine();
        assert!(matches!(e.encode_patch(0, vec![]).unwrap_err(), ServeError::ShapeMismatch(_)));
        assert!(matches!(
            e.encode_patch(1, vec![0.0; 3]).unwrap_err(),
            ServeError::ShapeMismatch(_)
        ));
        let (d, _) = e.encode_patch(1, patch(&e, 3)).unwrap();
        assert!(matches!(
            e.query(d, vec![(5, [0.5, 0.5, 0.5])]).unwrap_err(),
            ServeError::ShapeMismatch(_)
        ));
        assert!(matches!(
            e.query(d, vec![(0, [f32::NAN, 0.5, 0.5])]).unwrap_err(),
            ServeError::ShapeMismatch(_)
        ));
        assert!(matches!(e.query(d, vec![]).unwrap_err(), ServeError::ShapeMismatch(_)));
    }

    #[test]
    fn digest_collision_is_refused_not_served() {
        use crate::cache::{patch_digest, patch_verify};
        let e = tiny_engine();
        let cfg = e.model().cfg();
        let dims = [1, cfg.in_channels, cfg.patch.nt, cfg.patch.nz, cfg.patch.nx];
        let p = patch(&e, 5);
        let digest = patch_digest(&dims, &p);
        // Crafting two real FNV-colliding patches is a 2^32-work birthday
        // search; instead plant an entry under this patch's digest that was
        // "encoded" from different bytes (its verify hash disagrees) —
        // byte-for-byte what a genuine collision leaves in the cache.
        let poisoned = Arc::new(Tensor::full(&[1], 42.0));
        e.cache().insert(digest, patch_verify(&dims, &p) ^ 0xdead_beef, poisoned);
        let err = e.encode_patch(1, p.clone()).unwrap_err();
        assert_eq!(err, ServeError::DigestCollision(digest));
        assert_eq!(e.cache().collisions(), 1);
        // The occupant is untouched: the colliding request must not evict
        // or overwrite the latent its rightful owner will query by digest.
        assert_eq!(e.cache().get(digest).unwrap().item(), 42.0);
    }

    fn tiny_refine_engine() -> Engine {
        let mut cfg = MfnConfig::small();
        cfg.patch = PatchSpec { nt: 4, nz: 4, nx: 4, queries: 16 };
        cfg.base_channels = 4;
        cfg.latent_channels = 8;
        cfg.mlp_hidden = vec![16, 16];
        cfg.levels = 2;
        let refine = Some(mfn_core::RefineSettings::from_config(&cfg));
        Engine::new(
            FrozenModel::from_model(MeshfreeFlowNet::new(cfg)),
            EngineConfig { cache_capacity: 4, refine },
        )
    }

    #[test]
    fn refine_is_disabled_unless_configured() {
        let e = tiny_engine();
        assert!(!e.refine_enabled());
        let (d, _) = e.encode_patch(1, patch(&e, 11)).unwrap();
        let err = e.refine(d, vec![(0, [0.5, 0.5, 0.5])], RefineBudget::steps(1)).unwrap_err();
        assert_eq!(err, ServeError::RefineDisabled);
    }

    #[test]
    fn absurd_budgets_are_rejected_before_any_compute() {
        let e = tiny_refine_engine();
        let (d, _) = e.encode_patch(1, patch(&e, 12)).unwrap();
        let q = vec![(0usize, [0.5, 0.5, 0.5])];
        let over = RefineBudget { max_steps: MAX_REFINE_STEPS + 1, tol: 0.0, max_micros: 0 };
        assert!(matches!(e.refine(d, q.clone(), over).unwrap_err(), ServeError::BadBudget(_)));
        let nan_tol = RefineBudget { max_steps: 1, tol: f32::NAN, max_micros: 0 };
        assert!(matches!(e.refine(d, q.clone(), nan_tol).unwrap_err(), ServeError::BadBudget(_)));
        let many = vec![(0usize, [0.5, 0.5, 0.5]); MAX_REFINE_POINTS + 1];
        assert!(matches!(
            e.refine(d, many, RefineBudget::steps(1)).unwrap_err(),
            ServeError::BadBudget(_)
        ));
        assert_eq!(e.stats().refines(), 0, "rejected budgets must not run");
    }

    #[test]
    fn refine_reduces_residual_and_leaves_cache_untouched() {
        let e = tiny_refine_engine();
        let (d, _) = e.encode_patch(1, patch(&e, 13)).unwrap();
        let before: Vec<f32> = e.cache().get(d).unwrap().data().to_vec();
        let q: Vec<Query> =
            (0..8).map(|i| (0usize, [0.2 + 0.07 * i as f32, 0.3 + 0.05 * i as f32, 0.5])).collect();
        let out = e.refine(d, q.clone(), RefineBudget::steps(8)).unwrap();
        assert_eq!(out.values.len(), q.len() * out.channels);
        assert!(out.report.final_residual <= out.report.initial_residual);
        let after: Vec<f32> = e.cache().get(d).unwrap().data().to_vec();
        assert_eq!(before, after, "refine must never write the shared cache entry");
        // Plain queries after a refine still answer from the original latent.
        let (plain, _) = e.query(d, q.clone()).unwrap();
        if out.report.steps_accepted > 0 {
            assert_ne!(plain, out.values, "refined values should differ from plain decode");
        }
        // Zero-step refine is bit-identical to the plain decode path.
        let zero = e.refine(d, q, RefineBudget::steps(0)).unwrap();
        assert_eq!(zero.values, plain);
        assert_eq!(e.stats().refines(), 2);
    }

    #[test]
    fn refine_admission_pool_drains_after_requests() {
        let e = tiny_refine_engine();
        let (d, _) = e.encode_patch(1, patch(&e, 14)).unwrap();
        let q = vec![(0usize, [0.5, 0.5, 0.5])];
        e.refine(d, q, RefineBudget::steps(2)).unwrap();
        assert_eq!(e.refine_cost.load(Ordering::Acquire), 0, "cost reservation must be released");
    }

    #[test]
    fn encode_query_combines_both_halves() {
        let e = tiny_engine();
        let p = patch(&e, 4);
        let (d, hit, vals, c) = e.encode_query(1, p.clone(), vec![(0, [0.25, 0.75, 0.5])]).unwrap();
        assert!(!hit);
        assert_eq!(vals.len(), c);
        // Same patch again: cache hit, identical values.
        let (d2, hit2, vals2, _) = e.encode_query(1, p, vec![(0, [0.25, 0.75, 0.5])]).unwrap();
        assert_eq!(d, d2);
        assert!(hit2);
        assert_eq!(vals, vals2, "cache hit must be bit-identical to fresh encode");
    }

    /// An `EncodeQuery` looks its patch up once: cold, one miss and no hit;
    /// warm, one hit and no miss.
    #[test]
    fn encode_query_counts_one_lookup() {
        let e = tiny_engine();
        let p = patch(&e, 5);
        let counts = |e: &Engine| (e.cache().hits(), e.cache().misses());
        e.encode_query(1, p.clone(), vec![(0, [0.5, 0.5, 0.5])]).unwrap();
        assert_eq!(counts(&e), (0, 1), "cold");
        e.encode_query(1, p, vec![(0, [0.5, 0.5, 0.5])]).unwrap();
        assert_eq!(counts(&e), (1, 1), "warm");
    }
}
