//! Workspace buffer pool: a thread-safe freelist of size-bucketed `f32`
//! buffers shared by every compute kernel and every tensor.
//!
//! A training step allocates the same family of buffers over and over —
//! GEMM packing panels, conv outputs, tape activations and gradients.
//! Instead of hitting the system allocator thousands of times per step,
//! buffers are checked out of a global pool and returned when dropped.
//! There is one checkout kind: [`take_scratch`]/[`take_zeroed`] hand out an
//! RAII [`WorkspaceGuard`] whose slice starts on a 64-byte cache line and
//! whose `Drop` returns the buffer. Kernel scratch (packed panels) and
//! tensor storage ([`crate::Tensor`] holds a guard) are the same thing, so a
//! kernel that reads an activation in place never sees a vector load
//! straddling two lines, whatever the allocator did before.
//!
//! ## Ownership and safety rules
//!
//! - The pool holds only buffers it made: the guard's `Drop` is the one
//!   donation, so nothing allocated elsewhere enters it (foreign data is
//!   copied into a checkout, see `From<Vec<f32>>`).
//! - Buffers are bucketed by capacity rounded to powers of two (min
//!   [`MIN_BUCKET`] elements). Every buffer carries `LINE - 1` elements past
//!   its bucket's capacity, room to start the slice on a cache line without
//!   moving the buffer to the next bucket up.
//! - A *scratch* checkout has its requested length but **stale contents**
//!   (whatever the previous user left — always initialized memory, never
//!   uninitialized; there is no `unsafe` in this module). Callers must fully
//!   overwrite it. A *zeroed* checkout is `memset` to 0.0.
//! - The pool caps retained memory (256 MiB) and buffers per bucket (32, or
//!   for small buffers up to 1 MiB of them — a training step holds hundreds
//!   of one-line scalars live at once); excess donations are dropped on the
//!   floor, so the pool never grows beyond the cap even across long
//!   trainings.
//! - Hit/miss counters are cheap atomics, exported by the trainers as
//!   `mfn-telemetry` gauges and asserted on by the reuse tests.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Smallest pooled buffer, in `f32` elements: one cache line. Every tensor
/// is a checkout, scalars and per-channel stats too, and a checkout of fewer
/// elements still takes a buffer of this bucket.
pub const MIN_BUCKET: usize = LINE;

/// Buffers a shelf keeps at least; excess donations are freed.
const MAX_PER_BUCKET: usize = 32;

/// Bytes a shelf of small buffers may keep past [`MAX_PER_BUCKET`] of them:
/// a training step holds hundreds of one-line scalars and per-channel
/// vectors live at once, and a shelf that freed them would allocate them
/// again every step. A shelf of `b`-byte buffers keeps
/// `max(MAX_PER_BUCKET, SHELF_BYTES / b)`, so only the small buckets keep
/// more, and at most this much each.
const SHELF_BYTES: usize = 1 << 20;

/// Most bytes the pool retains; donations past it are freed.
const CAPACITY_BYTES: usize = 256 << 20;

/// `f32` elements per 64-byte cache line.
const LINE: usize = 16;

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
    enabled: bool,
}

impl Shelves {
    fn empty() -> Self {
        Shelves {
            shelves: (0..BUCKETS).map(|_| Vec::new()).collect(),
            cached_bytes: 0,
            enabled: true,
        }
    }

    /// Keeps `v` on shelf `b` unless the pool is off or the shelf or the
    /// byte cap is full, in which case `v` is freed.
    fn donate(&mut self, b: usize, v: Vec<f32>) {
        let bytes = v.capacity() * 4;
        let keep = MAX_PER_BUCKET.max(SHELF_BYTES / ((MIN_BUCKET << b) * 4));
        if self.enabled
            && self.shelves[b].len() < keep
            && self.cached_bytes + bytes <= CAPACITY_BYTES
        {
            self.cached_bytes += bytes;
            self.shelves[b].push(v);
            RECYCLED.fetch_add(1, Ordering::Relaxed);
        }
    }
}

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static RECYCLED: AtomicU64 = AtomicU64::new(0);

static POOL: Mutex<Option<Shelves>> = Mutex::new(None);

fn with_pool<R>(f: impl FnOnce(&mut Shelves) -> R) -> R {
    let mut guard = POOL.lock().unwrap_or_else(|e| e.into_inner());
    f(guard.get_or_insert_with(Shelves::empty))
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

/// Bucket index whose capacity (`MIN_BUCKET << b`) is the largest `<= cap`:
/// the bucket of a buffer this pool made, from its capacity.
fn bucket_for_cap(cap: usize) -> usize {
    let mut b = 0;
    while (MIN_BUCKET << (b + 1)) <= cap && b + 1 < BUCKETS {
        b += 1;
    }
    b
}

/// Elements from the start of `buf` to its first cache line.
fn line_offset(buf: &[f32]) -> usize {
    buf.as_ptr().align_offset(LINE * 4).min(LINE - 1)
}

/// Checks out a buffer of the bucket for `len` holding `off + len` elements,
/// where `off` puts element `off` on a cache line: stale contents, or zeros
/// from `off` on when `zero`.
fn take_impl(len: usize, zero: bool) -> WorkspaceGuard {
    let b = bucket_for_len(len).min(BUCKETS - 1);
    let reused = with_pool(|p| {
        if !p.enabled {
            return None;
        }
        let v = p.shelves[b].pop()?;
        p.cached_bytes -= v.capacity() * 4;
        Some(v)
    });
    let mut buf = match reused {
        Some(v) => {
            HITS.fetch_add(1, Ordering::Relaxed);
            v
        }
        None => {
            MISSES.fetch_add(1, Ordering::Relaxed);
            Vec::with_capacity((MIN_BUCKET << b).max(len) + LINE - 1)
        }
    };
    let off = line_offset(&buf);
    // Growing writes only the new region; the stale prefix stays (scratch
    // semantics) unless a zeroed buffer was requested.
    buf.truncate(off + len);
    buf.resize(off + len, 0.0);
    if zero {
        buf[off..].fill(0.0);
    }
    WorkspaceGuard { buf }
}

/// Checks out a buffer of `len` elements with **stale contents** (fully
/// overwrite before reading), starting on a cache line. RAII: returns to the
/// pool on drop.
pub fn take_scratch(len: usize) -> WorkspaceGuard {
    take_impl(len, false)
}

/// Checks out a buffer of `len` zeros, starting on a cache line. RAII:
/// returns to the pool on drop.
pub fn take_zeroed(len: usize) -> WorkspaceGuard {
    take_impl(len, true)
}

/// RAII checkout of a pooled buffer; derefs to its `[f32]` slice, which
/// starts at the buffer's first cache line, and returns the buffer to the
/// pool when dropped. The buffer never reallocates while checked out, so
/// that offset is recomputed rather than stored: a guard is the size of a
/// `Vec`, and a tensor no larger than when its storage was one.
pub struct WorkspaceGuard {
    buf: Vec<f32>,
}

impl std::ops::Deref for WorkspaceGuard {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        &self.buf[line_offset(&self.buf)..]
    }
}

impl std::ops::DerefMut for WorkspaceGuard {
    fn deref_mut(&mut self) -> &mut [f32] {
        let off = line_offset(&self.buf);
        &mut self.buf[off..]
    }
}

impl Drop for WorkspaceGuard {
    /// The pool's one donation: the buffer goes back to its shelf unless the
    /// pool is off or full, in which case it is freed.
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        with_pool(|p| p.donate(bucket_for_cap(buf.capacity()), buf));
    }
}

impl From<Vec<f32>> for WorkspaceGuard {
    /// Copies a buffer the pool did not make into a checkout of its length,
    /// and frees it.
    fn from(v: Vec<f32>) -> Self {
        let mut buf = take_scratch(v.len());
        buf.copy_from_slice(&v);
        buf
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
    fn tiny_checkouts_share_the_smallest_bucket() {
        let _l = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        clear();
        let ptr = take_scratch(8).as_ptr() as usize;
        assert_eq!(take_scratch(1).as_ptr() as usize, ptr);
        assert_eq!(stats().cached_buffers, 1);
    }

    /// A foreign `Vec` is copied into a checkout and freed; only the
    /// checkout ever reaches a shelf.
    #[test]
    fn foreign_buffers_are_copied_not_adopted() {
        let _l = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        clear();
        let v: Vec<f32> = (0..1000).map(|i| i as f32).collect();
        let (foreign, want) = (v.as_ptr() as usize, v.clone());
        let g = WorkspaceGuard::from(v);
        assert_ne!(g.as_ptr() as usize, foreign);
        assert_eq!(&g[..], &want[..]);
        let ptr = g.as_ptr() as usize;
        drop(g);
        assert_eq!(stats().cached_buffers, 1);
        assert_eq!(take_scratch(1000).as_ptr() as usize, ptr);
    }

    #[test]
    fn capacity_cap_bounds_retention() {
        let _l = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut p = Shelves::empty();
        p.cached_bytes = CAPACITY_BYTES - MIN_BUCKET * 4 * 2; // room for two minimal buffers
        p.donate(0, vec![0.0; MIN_BUCKET]);
        p.donate(0, vec![0.0; MIN_BUCKET]);
        p.donate(0, vec![0.0; MIN_BUCKET]); // over cap -> freed
        assert_eq!(p.shelves[0].len(), 2);
        assert_eq!(p.cached_bytes, CAPACITY_BYTES);
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

    /// Every guard starts on a cache line, and a buffer whose length is a
    /// whole bucket stays in that bucket: the alignment slack never pushes it
    /// to the next one up, and reusing it never grows it.
    #[test]
    fn guards_start_on_a_cache_line_within_their_bucket() {
        let _l = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        clear();
        for len in [1, 60, MIN_BUCKET, 1000, 1 << 15, (1 << 15) + 1] {
            let mut first_cap = None;
            for round in 0..3 {
                let g = if round == 1 { take_zeroed(len) } else { take_scratch(len) };
                let cap = g.buf.capacity();
                assert_eq!(g.len(), len);
                assert_eq!(g.as_ptr() as usize % 64, 0, "len {len} round {round}");
                assert_eq!(bucket_for_cap(cap), bucket_for_len(len));
                assert_eq!(*first_cap.get_or_insert(cap), cap, "len {len} round {round}");
                if round == 1 {
                    assert!(g.iter().all(|&x| x == 0.0));
                }
            }
            clear();
        }
    }
}
