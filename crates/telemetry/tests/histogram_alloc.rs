//! A histogram allocates nothing after construction. A counting global
//! allocator sums every byte asked for while a million values are recorded
//! and a snapshot's quantiles are read; the sum must stay 0. This file holds
//! one test so no other test thread allocates while it counts.

use mfn_telemetry::Histogram;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, summing the bytes it was asked for.
struct Counting;

static BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method passes its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting a size allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size, Ordering::Relaxed);
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
    let mut v = 1u64;
    for _ in 0..1_000_000 {
        v = v.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        h.record(v >> 40);
    }
    let s = h.snapshot();
    let p99 = s.quantile(0.99);
    let allocated = BYTES.load(Ordering::Relaxed) - before;
    assert_eq!(s.count(), 1_000_000);
    assert!(p99.is_some());
    assert_eq!(allocated, 0, "recording and reading a histogram allocated {allocated} bytes");
}
