//! The latent-context cache: encode once, decode many.
//!
//! The whole economics of serving MeshfreeFlowNet hinges on one asymmetry:
//! pushing a patch through the 3D U-Net costs orders of magnitude more than
//! answering a point query against its Latent Context Grid. The cache keys
//! encoded latents by a digest of the *input patch bytes*, so any client
//! holding the same physical patch — or just the digest from a previous
//! `Encode` — skips the U-Net entirely.
//!
//! Keys are FNV-1a 64 over the patch dims plus the little-endian f32 bytes;
//! bit-identical inputs (the only kind a resubmitting client produces) hash
//! identically, and the digest doubles as the wire handle for `Query`
//! frames. Eviction is least-recently-used over a small capacity — serving
//! workloads replay a handful of hot patches (a frame being super-resolved,
//! a region being explored), not a uniform stream.
//!
//! A 64-bit digest is not a proof of identity: two *different* patches can
//! collide, and a cache that trusts the digest alone would then silently
//! hand the second client the first client's latent — wrong answers with no
//! error. Every entry therefore also stores a second, independently-mixed
//! verification hash of the same bytes ([`patch_verify`]); an encode-time
//! hit is only honoured when both hashes agree, and a digest match with a
//! verify mismatch is surfaced as [`Lookup::Collision`] and counted.

use mfn_tensor::le::fnv1a;
use mfn_tensor::Tensor;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// FNV-1a 64 over the dims (as LE u64s) followed by `data`.
fn fnv1a_dims(dims: &[usize], data: impl IntoIterator<Item = u8>) -> u64 {
    fnv1a(dims.iter().flat_map(|&d| (d as u64).to_le_bytes()).chain(data))
}

/// Digest of an input patch: FNV-1a 64 over the dims (as LE u64s) followed
/// by the raw little-endian f32 bytes. Stable across platforms and process
/// restarts — it is part of the wire protocol.
pub fn patch_digest(dims: &[usize], data: &[f32]) -> u64 {
    fnv1a_dims(dims, data.iter().flat_map(|v| v.to_le_bytes()))
}

/// [`patch_digest`] computed from the raw little-endian f32 bytes instead
/// of decoded floats. Because the wire format *is* LE f32 bytes, hashing
/// them directly yields the identical digest without parsing a single
/// float — this is what lets the router assign an `Encode` frame to a
/// shard by looking at the payload bytes alone.
pub fn patch_digest_bytes(dims: &[usize], data: &[u8]) -> u64 {
    fnv1a_dims(dims, data.iter().copied())
}

/// Second, independent hash of the same `(dims, data)` bytes, used to
/// verify that a digest hit really refers to the submitted patch.
///
/// This is a SplitMix64-style sequential mix over 64-bit words (each dim,
/// then each f32's bit pattern). Its avalanche structure (xor-shift +
/// odd-constant multiply) shares nothing with FNV-1a's byte-wise
/// multiply-xor, so an input pair colliding under one hash has no special
/// likelihood of colliding under the other: a simultaneous collision needs
/// ~128 matching bits. Unlike [`patch_digest`], this value never travels on
/// the wire — it only guards cache hits, so it can change without a
/// protocol bump.
pub fn patch_verify(dims: &[usize], data: &[f32]) -> u64 {
    let mut h: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut eat = |w: u64| {
        h = h.wrapping_add(w).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
    };
    for &d in dims {
        eat(d as u64);
    }
    for &v in data {
        eat(v.to_bits() as u64);
    }
    h
}

/// Outcome of a verified cache lookup.
#[derive(Debug, Clone)]
pub enum Lookup {
    /// Digest and verification hash both match: this latent was encoded
    /// from exactly the submitted bytes.
    Hit(Arc<Tensor>),
    /// The digest matches a cached entry but the verification hash does
    /// not: a different patch already owns this digest. Serving the cached
    /// latent would be silently wrong.
    Collision,
    /// No entry under this digest.
    Miss,
}

struct Entry {
    latent: Arc<Tensor>,
    verify: u64,
    last_used: u64,
}

struct Inner {
    map: HashMap<u64, Entry>,
    tick: u64,
}

/// A bounded LRU cache from patch digest to encoded latent grid.
///
/// Latents are handed out as `Arc<Tensor>` so an eviction never invalidates
/// a request currently decoding against the latent. Hit/miss counters are
/// lock-free; the map itself sits behind a `Mutex` — the critical section is
/// a hash lookup, dwarfed by the decode work on either side.
pub struct LatentCache {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    collisions: AtomicU64,
}

impl LatentCache {
    /// Creates a cache holding at most `capacity` latents (min 1).
    pub fn new(capacity: usize) -> Self {
        LatentCache {
            inner: Mutex::new(Inner { map: HashMap::new(), tick: 0 }),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            collisions: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // A poisoned cache lock means some thread panicked holding it; the
        // map is still structurally sound (no partial insert states), so
        // serving continues.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up a latent by digest alone, bumping its recency. Counts a hit
    /// or miss.
    ///
    /// This is the `Query` path: the client holds only the wire handle (the
    /// digest from a previous `Encode`), so there are no bytes to verify
    /// against. Collision safety comes from the encode path — a digest is
    /// only handed out after [`LatentCache::get_verified`] confirmed the
    /// submitted bytes own it.
    pub fn get(&self, digest: u64) -> Option<Arc<Tensor>> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(&digest) {
            Some(e) => {
                e.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(e.latent.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Looks up a latent by digest *and* verification hash.
    ///
    /// Only a two-hash match is a [`Lookup::Hit`] (recency bumped, hit
    /// counted). A digest match whose stored verify differs is a
    /// [`Lookup::Collision`]: the entry belongs to different patch bytes,
    /// so its recency is left alone and the collision counter is bumped.
    pub fn get_verified(&self, digest: u64, verify: u64) -> Lookup {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(&digest) {
            Some(e) if e.verify == verify => {
                e.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Lookup::Hit(e.latent.clone())
            }
            Some(_) => {
                self.collisions.fetch_add(1, Ordering::Relaxed);
                Lookup::Collision
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Lookup::Miss
            }
        }
    }

    /// Checks presence without touching recency or counters (used by the
    /// engine to decide hit/miss before paying for an encode).
    pub fn contains(&self, digest: u64) -> bool {
        self.lock().map.contains_key(&digest)
    }

    /// Inserts a latent under its digest and verification hash, evicting
    /// the least-recently-used entry if full.
    pub fn insert(&self, digest: u64, verify: u64, latent: Arc<Tensor>) {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if !inner.map.contains_key(&digest) && inner.map.len() >= self.capacity {
            // O(capacity) scan — capacity is tens of entries, each worth
            // megabytes of latent; a heap would be noise here.
            if let Some(&lru) = inner.map.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k) {
                inner.map.remove(&lru);
            }
        }
        inner.map.insert(digest, Entry { latent, verify, last_used: tick });
    }

    /// Number of cached latents.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total lookup hits since creation.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Total lookup misses since creation.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Total digest collisions detected since creation (a digest hit whose
    /// verification hash disagreed). Any nonzero value here means a client
    /// would have received a wrong latent under the old trust-the-digest
    /// scheme.
    pub fn collisions(&self) -> u64 {
        self.collisions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: f32) -> Arc<Tensor> {
        Arc::new(Tensor::full(&[1], v))
    }

    #[test]
    fn digest_is_stable_and_shape_sensitive() {
        let data = [1.0f32, 2.0, 3.0, 4.0];
        let a = patch_digest(&[2, 2], &data);
        assert_eq!(a, patch_digest(&[2, 2], &data), "digest must be deterministic");
        assert_ne!(a, patch_digest(&[4, 1], &data), "dims are part of the key");
        let raw: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(a, patch_digest_bytes(&[2, 2], &raw), "byte path must match float path");
        assert_ne!(a, patch_digest(&[2, 2], &[1.0, 2.0, 3.0, 5.0]));
        // -0.0 and 0.0 differ bitwise, so they are different patches.
        assert_ne!(patch_digest(&[1], &[0.0]), patch_digest(&[1], &[-0.0]));
    }

    #[test]
    fn digest_bits_are_pinned() {
        // The digest is the wire handle: these values must never move.
        assert_eq!(patch_digest(&[2, 2], &[1.0, 2.0, 3.0, 4.0]), 0x3f88_de06_5db9_6918);
        let ramp: Vec<f32> = (0..512).map(|i| i as f32 * 0.25 - 3.0).collect();
        assert_eq!(patch_digest(&[1, 4, 4, 4, 8], &ramp), 0xbc24_6895_c310_81dc);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let c = LatentCache::new(2);
        c.insert(1, 10, t(1.0));
        c.insert(2, 20, t(2.0));
        assert!(c.get(1).is_some()); // 1 is now more recent than 2
        c.insert(3, 30, t(3.0)); // evicts 2
        assert!(c.get(2).is_none());
        assert!(c.get(1).is_some());
        assert!(c.get(3).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_does_not_evict() {
        let c = LatentCache::new(2);
        c.insert(1, 10, t(1.0));
        c.insert(2, 20, t(2.0));
        c.insert(1, 10, t(1.5)); // overwrite, cache stays at 2 entries
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(2).unwrap().item(), 2.0);
        assert_eq!(c.get(1).unwrap().item(), 1.5);
    }

    #[test]
    fn counters_track_hits_and_misses() {
        let c = LatentCache::new(4);
        assert!(c.get(9).is_none());
        c.insert(9, 90, t(9.0));
        assert!(c.get(9).is_some());
        assert_eq!((c.hits(), c.misses()), (1, 1));
    }

    #[test]
    fn eviction_does_not_invalidate_borrowed_latent() {
        let c = LatentCache::new(1);
        c.insert(1, 10, t(1.0));
        let held = c.get(1).unwrap();
        c.insert(2, 20, t(2.0)); // evicts 1 from the map
        assert!(c.get(1).is_none());
        assert_eq!(held.item(), 1.0, "Arc keeps the evicted latent alive");
    }

    #[test]
    fn verify_hash_is_independent_of_digest() {
        // Two inputs whose digests differ must (with overwhelming
        // probability) also have differing verify hashes, and the two
        // hashes of one input must not be trivially related.
        let a = ([2usize, 2], [1.0f32, 2.0, 3.0, 4.0]);
        let b = ([2usize, 2], [1.0f32, 2.0, 3.0, 5.0]);
        assert_ne!(patch_verify(&a.0, &a.1), patch_verify(&b.0, &b.1));
        assert_ne!(patch_verify(&a.0, &a.1), patch_digest(&a.0, &a.1));
        // Deterministic (it guards the cache across worker threads).
        assert_eq!(patch_verify(&a.0, &a.1), patch_verify(&a.0, &a.1));
        // Dims are part of the keyed bytes, and bit patterns matter.
        assert_ne!(patch_verify(&[4, 1], &a.1), patch_verify(&[2, 2], &a.1));
        assert_ne!(patch_verify(&[1], &[0.0]), patch_verify(&[1], &[-0.0]));
    }

    #[test]
    fn verified_lookup_detects_poisoned_digest() {
        // Simulate an FNV collision: a latent already sits under digest 7
        // with verify hash 111; a different patch arrives whose bytes also
        // digest to 7 but verify to 222.
        let c = LatentCache::new(4);
        c.insert(7, 111, t(1.0));
        assert!(matches!(c.get_verified(7, 111), Lookup::Hit(_)));
        assert!(matches!(c.get_verified(7, 222), Lookup::Collision));
        assert!(matches!(c.get_verified(8, 111), Lookup::Miss));
        assert_eq!(c.collisions(), 1);
        // The collision neither hit nor missed; counters stay consistent.
        assert_eq!((c.hits(), c.misses()), (1, 1));
        // The rightful owner still gets its latent afterwards.
        assert!(matches!(c.get_verified(7, 111), Lookup::Hit(_)));
    }

    #[test]
    fn collision_does_not_bump_recency() {
        let c = LatentCache::new(2);
        c.insert(1, 10, t(1.0));
        c.insert(2, 20, t(2.0));
        // A colliding probe against 1 must not refresh it...
        assert!(matches!(c.get_verified(1, 999), Lookup::Collision));
        // ...so inserting a third entry still evicts 1 (the true LRU).
        c.insert(3, 30, t(3.0));
        assert!(c.get(1).is_none());
        assert!(c.get(2).is_some());
    }
}
