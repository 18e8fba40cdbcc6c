//! A histogram allocates nothing after construction. A counting global
//! allocator sums every byte the recording thread asks for while a million
//! values are recorded and a snapshot's quantiles are read; the sum must
//! stay 0. Only that thread counts: the test harness's own threads may
//! allocate at any time, and their bytes say nothing about the histogram.

use mfn_telemetry::Histogram;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, summing the bytes asked for by a thread that has
/// set [`COUNTING`].
struct Counting;

static BYTES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread's allocations count. A `const` thread-local of a
    /// type without `Drop` needs no lazy registration, so the allocator can
    /// read it without allocating.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

/// Adds `size` to [`BYTES`] if the calling thread counts.
fn count(size: usize) {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        BYTES.fetch_add(size, Ordering::Relaxed);
    }
}

// SAFETY: every method passes its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting a size allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees for `layout` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, hence from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn a_million_records_allocate_nothing() {
    let h = Histogram::default();
    let before = BYTES.load(Ordering::Relaxed);
    COUNTING.set(true);
    let mut v = 1u64;
    for _ in 0..1_000_000 {
        v = v.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        h.record(v >> 40);
    }
    let s = h.snapshot();
    let p99 = s.quantile(0.99);
    COUNTING.set(false);
    let allocated = BYTES.load(Ordering::Relaxed) - before;
    assert_eq!(s.count(), 1_000_000);
    assert!(p99.is_some());
    assert_eq!(allocated, 0, "recording and reading a histogram allocated {allocated} bytes");
}
