//! Workspace buffer pool: a thread-safe freelist of size-bucketed `Vec<f32>`
//! buffers shared by every compute kernel in the training hot path.
//!
//! A training step allocates the same family of buffers over and over —
//! GEMM packing panels, conv outputs, tape activations and gradients.
//! Instead of hitting the system allocator thousands of times per step,
//! buffers are checked out of a global pool and returned when dropped:
//!
//! - [`take_scratch`]/[`take_zeroed`] hand out an RAII [`WorkspaceGuard`]
//!   (auto-returns on drop) — use these for kernel-local scratch;
//! - [`take_vec_scratch`]/[`take_vec_zeroed`]/[`take_vec_capacity`] hand out a
//!   plain `Vec<f32>` for buffers that outlive the call (tensor storage);
//!   donate any buffer back with [`give_vec`] — `Tensor`'s `Drop` impl does
//!   this automatically, so the tape's per-step tensors recycle themselves.
//!
//! ## Ownership and safety rules
//!
//! - Buffers are bucketed by capacity rounded to powers of two (min
//!   [`MIN_BUCKET`] elements); smaller donations are simply freed.
//! - A *scratch* checkout has its requested length but **stale contents**
//!   (whatever the previous user left — always initialized memory, never
//!   uninitialized; there is no `unsafe` in this module). Callers must fully
//!   overwrite it. A *zeroed* checkout is `memset` to 0.0.
//! - The pool caps retained memory ([`set_capacity_bytes`], default 256 MiB)
//!   and buffers-per-bucket; excess donations are dropped on the floor, so the
//!   pool never grows beyond the cap even across long trainings.
//! - Hit/miss counters are cheap atomics, exported by the trainers as
//!   `mfn-telemetry` gauges and asserted on by the reuse tests.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Smallest pooled buffer, in `f32` elements. Donations below this are freed
/// immediately: tiny vectors (scalars, per-channel stats) are cheaper to
/// reallocate than to track.
pub const MIN_BUCKET: usize = 64;

/// Most buffers retained per size bucket; excess donations are freed.
const MAX_PER_BUCKET: usize = 32;

/// Number of power-of-two buckets: `MIN_BUCKET << (BUCKETS-1)` caps the
/// largest poolable buffer at 2^37 bytes — effectively unbounded.
const BUCKETS: usize = 32;

/// Aggregate statistics of the workspace pool since the last
/// [`reset_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Checkouts served from the freelist (no allocation).
    pub hits: u64,
    /// Checkouts that had to allocate.
    pub misses: u64,
    /// Buffers donated back and retained for reuse.
    pub recycled: u64,
    /// Buffers currently cached in the freelist.
    pub cached_buffers: usize,
    /// Bytes currently cached in the freelist.
    pub cached_bytes: usize,
}

struct Shelves {
    /// `shelves[b]` holds buffers with `capacity >= MIN_BUCKET << b`.
    shelves: Vec<Vec<Vec<f32>>>,
    cached_bytes: usize,
    capacity_bytes: usize,
    enabled: bool,
}

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static RECYCLED: AtomicU64 = AtomicU64::new(0);

static POOL: Mutex<Option<Shelves>> = Mutex::new(None);

fn with_pool<R>(f: impl FnOnce(&mut Shelves) -> R) -> R {
    let mut guard = POOL.lock().unwrap_or_else(|e| e.into_inner());
    let shelves = guard.get_or_insert_with(|| Shelves {
        shelves: (0..BUCKETS).map(|_| Vec::new()).collect(),
        cached_bytes: 0,
        capacity_bytes: 256 << 20,
        enabled: true,
    });
    f(shelves)
}

/// Bucket index whose capacity (`MIN_BUCKET << b`) is `>= len`.
fn bucket_for_len(len: usize) -> usize {
    let mut b = 0;
    let mut cap = MIN_BUCKET;
    while cap < len {
        cap <<= 1;
        b += 1;
    }
    b
}

/// Largest bucket index whose capacity is `<= cap` (donation side), or
/// `None` if the buffer is too small to pool.
fn bucket_for_cap(cap: usize) -> Option<usize> {
    if cap < MIN_BUCKET {
        return None;
    }
    let mut b = 0;
    while (MIN_BUCKET << (b + 1)) <= cap && b + 1 < BUCKETS {
        b += 1;
    }
    Some(b)
}

fn take_impl(len: usize, zero: bool) -> Vec<f32> {
    let b = bucket_for_len(len);
    let reused = if b < BUCKETS {
        with_pool(|p| {
            if !p.enabled {
                return None;
            }
            let v = p.shelves[b].pop()?;
            p.cached_bytes -= v.capacity() * 4;
            Some(v)
        })
    } else {
        None
    };
    match reused {
        Some(mut v) => {
            HITS.fetch_add(1, Ordering::Relaxed);
            v.truncate(len);
            // Growing writes only the new region; stale prefix stays (scratch
            // semantics) unless a zeroed buffer was requested.
            v.resize(len, 0.0);
            if zero {
                v.fill(0.0);
            }
            v
        }
        None => {
            MISSES.fetch_add(1, Ordering::Relaxed);
            let mut v = Vec::with_capacity((MIN_BUCKET << b.min(BUCKETS - 1)).max(len));
            v.resize(len, 0.0);
            v
        }
    }
}

/// Checks out a buffer of `len` elements with **stale contents** (fully
/// overwrite before reading). RAII: returns to the pool on drop.
pub fn take_scratch(len: usize) -> WorkspaceGuard {
    WorkspaceGuard { buf: take_impl(len, false) }
}

/// Checks out a buffer of `len` zeros. RAII: returns to the pool on drop.
pub fn take_zeroed(len: usize) -> WorkspaceGuard {
    WorkspaceGuard { buf: take_impl(len, true) }
}

/// Checks out a plain `Vec<f32>` of `len` elements with stale contents, for
/// storage that outlives the call (e.g. tensor data). Donate it back with
/// [`give_vec`] when done (or let `Tensor`'s `Drop` do it).
pub fn take_vec_scratch(len: usize) -> Vec<f32> {
    take_impl(len, false)
}

/// [`take_vec_scratch`] but zero-filled.
pub fn take_vec_zeroed(len: usize) -> Vec<f32> {
    take_impl(len, true)
}

/// Checks out an **empty** `Vec<f32>` with capacity `>= cap`, for
/// `push`/`extend` fill patterns that would otherwise reallocate.
pub fn take_vec_capacity(cap: usize) -> Vec<f32> {
    let mut v = take_impl(cap, false);
    v.clear();
    v
}

/// Donates a buffer to the pool. Buffers below [`MIN_BUCKET`] capacity, or
/// arriving when the pool is full/disabled, are simply freed.
pub fn give_vec(v: Vec<f32>) {
    let cap = v.capacity();
    let Some(b) = bucket_for_cap(cap) else {
        return;
    };
    with_pool(|p| {
        if p.enabled
            && p.shelves[b].len() < MAX_PER_BUCKET
            && p.cached_bytes + cap * 4 <= p.capacity_bytes
        {
            p.cached_bytes += cap * 4;
            p.shelves[b].push(v);
            RECYCLED.fetch_add(1, Ordering::Relaxed);
        }
    });
}

/// RAII checkout of a pooled buffer; derefs to `[f32]` and returns the
/// buffer to the pool when dropped.
pub struct WorkspaceGuard {
    buf: Vec<f32>,
}

impl WorkspaceGuard {
    /// Moves the buffer out of the guard (it will *not* auto-return; the
    /// caller owns it and may [`give_vec`] it later).
    pub fn detach(mut self) -> Vec<f32> {
        std::mem::take(&mut self.buf)
    }
}

impl std::ops::Deref for WorkspaceGuard {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        &self.buf
    }
}

impl std::ops::DerefMut for WorkspaceGuard {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.buf
    }
}

impl Drop for WorkspaceGuard {
    fn drop(&mut self) {
        if !self.buf.is_empty() || self.buf.capacity() > 0 {
            give_vec(std::mem::take(&mut self.buf));
        }
    }
}

/// Current pool statistics.
pub fn stats() -> PoolStats {
    let (cached_buffers, cached_bytes) =
        with_pool(|p| (p.shelves.iter().map(Vec::len).sum(), p.cached_bytes));
    PoolStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        recycled: RECYCLED.load(Ordering::Relaxed),
        cached_buffers,
        cached_bytes,
    }
}

/// Zeroes the hit/miss/recycle counters (cached buffers are kept).
pub fn reset_stats() {
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
    RECYCLED.store(0, Ordering::Relaxed);
}

/// Enables or disables pooling globally. Disabled, every checkout allocates
/// and every donation frees — the pre-pool allocator behaviour, kept for
/// A/B measurement in the bench harness.
pub fn set_enabled(enabled: bool) {
    with_pool(|p| p.enabled = enabled);
    if !enabled {
        clear();
    }
}

/// Sets the retained-memory cap in bytes.
pub fn set_capacity_bytes(bytes: usize) {
    with_pool(|p| p.capacity_bytes = bytes);
}

/// Frees every cached buffer (counters are kept; see [`reset_stats`]).
pub fn clear() {
    with_pool(|p| {
        for shelf in &mut p.shelves {
            shelf.clear();
        }
        p.cached_bytes = 0;
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialize pool tests: they observe global counters.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn reuse_hits_the_freelist() {
        let _l = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        clear();
        reset_stats();
        let ptr = {
            let g = take_scratch(1000);
            g.as_ptr() as usize
        }; // dropped -> donated
        let g2 = take_scratch(900);
        assert_eq!(g2.as_ptr() as usize, ptr, "same bucket must reuse the same buffer");
        let s = stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn zeroed_checkout_is_zero_after_dirty_use() {
        let _l = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        clear();
        {
            let mut g = take_scratch(256);
            g.fill(7.0);
        }
        let g = take_zeroed(256);
        assert!(g.iter().all(|&x| x == 0.0), "zeroed checkout must be cleared");
        // Scratch checkout of the same bucket may see stale contents — that
        // is the documented contract; assert it has the right length only.
        drop(g);
        let g = take_scratch(256);
        assert_eq!(g.len(), 256);
    }

    #[test]
    fn growing_within_bucket_initializes_new_region() {
        let _l = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        clear();
        {
            let mut g = take_scratch(10);
            g.fill(3.0);
        }
        // Same bucket, longer request: the grown region must be initialized.
        let g = take_scratch(60);
        assert_eq!(g.len(), 60);
        for &x in g.iter().skip(10) {
            assert_eq!(x, 0.0, "grown region must be zero-initialized");
        }
    }

    #[test]
    fn tiny_buffers_are_not_pooled() {
        let _l = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        clear();
        reset_stats();
        give_vec(vec![1.0; 8]);
        assert_eq!(stats().cached_buffers, 0);
    }

    #[test]
    fn capacity_cap_bounds_retention() {
        let _l = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        clear();
        set_capacity_bytes(MIN_BUCKET * 4 * 2); // room for two minimal buffers
        give_vec(vec![0.0; MIN_BUCKET]);
        give_vec(vec![0.0; MIN_BUCKET]);
        give_vec(vec![0.0; MIN_BUCKET]); // over cap -> freed
        assert_eq!(stats().cached_buffers, 2);
        set_capacity_bytes(256 << 20);
        clear();
    }

    #[test]
    fn disabled_pool_always_allocates() {
        let _l = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        reset_stats();
        drop(take_scratch(128));
        drop(take_scratch(128));
        let s = stats();
        assert_eq!(s.hits, 0);
        assert_eq!(s.misses, 2);
        assert_eq!(s.cached_buffers, 0);
        set_enabled(true);
    }

    #[test]
    fn detach_transfers_ownership() {
        let _l = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        clear();
        let v = take_scratch(100).detach();
        assert_eq!(v.len(), 100);
        assert_eq!(stats().cached_buffers, 0, "detached buffer must not auto-return");
        give_vec(v);
        assert_eq!(stats().cached_buffers, 1);
    }
}
