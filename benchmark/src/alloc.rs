//! Heap-byte counter behind `tensor.alloc_bytes_per_op`.
//!
//! A global allocator is chosen at link time, so this wrapper is always in
//! place; it forwards to the system allocator and counts only while
//! [`set_counting`] is on, which the harness does for the traced phase
//! alone. Untraced runs pay one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the atomics only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            BYTES.fetch_add(l.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: same layout the caller handed us.
        unsafe { System.alloc(l) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        // SAFETY: `p` was returned by `System` for this layout.
        unsafe { System.dealloc(p, l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            BYTES.fetch_add(new_size.saturating_sub(l.size()) as u64, Ordering::Relaxed);
        }
        // SAFETY: `p` was returned by `System` for layout `l`.
        unsafe { System.realloc(p, l, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Turns byte counting on or off.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Bytes requested from the allocator while counting was on.
pub fn bytes() -> u64 {
    BYTES.load(Ordering::Relaxed)
}
