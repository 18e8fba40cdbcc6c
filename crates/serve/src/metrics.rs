//! Serving-side counters and latency tracking.
//!
//! [`ServeStats`] is the one object every layer of the server touches, so it
//! is built to be cheap under contention: monotonic counters are relaxed
//! atomics, and per-request latencies go into a fixed-size ring behind a
//! mutex whose critical section is two array writes. Percentiles are
//! computed on demand from a snapshot of the ring (recent window, not
//! all-time), which is what a load generator or telemetry gauge wants.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Latencies retained for percentile estimates.
const RING_CAPACITY: usize = 4096;

struct Ring {
    buf: Vec<u64>,
    next: usize,
    len: usize,
}

/// Shared serving counters. All methods take `&self`.
pub struct ServeStats {
    requests: AtomicU64,
    errors: AtomicU64,
    inflight: AtomicU64,
    queries: AtomicU64,
    conns: AtomicU64,
    busy_rejects: AtomicU64,
    refines: AtomicU64,
    refine_steps: AtomicU64,
    latencies: Mutex<Ring>,
}

impl Default for ServeStats {
    fn default() -> Self {
        ServeStats::new()
    }
}

impl ServeStats {
    /// Fresh, all-zero stats.
    pub fn new() -> Self {
        ServeStats {
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            conns: AtomicU64::new(0),
            busy_rejects: AtomicU64::new(0),
            refines: AtomicU64::new(0),
            refine_steps: AtomicU64::new(0),
            latencies: Mutex::new(Ring { buf: vec![0; RING_CAPACITY], next: 0, len: 0 }),
        }
    }

    fn ring(&self) -> MutexGuard<'_, Ring> {
        self.latencies.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Marks a request as started; the returned guard decrements the
    /// in-flight gauge on drop (including during unwinding).
    pub fn begin_request(&self) -> InflightGuard<'_> {
        self.inflight.fetch_add(1, Ordering::Relaxed);
        InflightGuard { stats: self }
    }

    /// Records one completed request and its latency.
    pub fn note_request(&self, latency_us: u64) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let mut r = self.ring();
        let next = r.next;
        r.buf[next] = latency_us;
        r.next = (next + 1) % RING_CAPACITY;
        r.len = (r.len + 1).min(RING_CAPACITY);
    }

    /// Records one request that ended in a (typed) error.
    pub fn note_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` query points answered.
    pub fn note_queries(&self, n: u64) {
        self.queries.fetch_add(n, Ordering::Relaxed);
    }

    /// Completed requests so far.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Errored requests so far.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Requests currently being processed.
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Relaxed)
    }

    /// Query points answered so far.
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Counts one connection opened.
    pub fn note_conn_opened(&self) {
        self.conns.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one connection closed.
    pub fn note_conn_closed(&self) {
        self.conns.fetch_sub(1, Ordering::Relaxed);
    }

    /// Connections currently open.
    pub fn conns(&self) -> u64 {
        self.conns.load(Ordering::Relaxed)
    }

    /// Records one admission-control rejection (`Busy`).
    pub fn note_busy(&self) {
        self.busy_rejects.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests refused with `Busy` (full compute queue) so far.
    pub fn busy_rejects(&self) -> u64 {
        self.busy_rejects.load(Ordering::Relaxed)
    }

    /// Records one completed refinement and the candidate steps it ran.
    pub fn note_refine(&self, steps: u64) {
        self.refines.fetch_add(1, Ordering::Relaxed);
        self.refine_steps.fetch_add(steps, Ordering::Relaxed);
    }

    /// Completed refinement requests so far.
    pub fn refines(&self) -> u64 {
        self.refines.load(Ordering::Relaxed)
    }

    /// Gradient candidate steps run across all refinements so far.
    pub fn refine_steps(&self) -> u64 {
        self.refine_steps.load(Ordering::Relaxed)
    }

    /// Latency percentiles (µs) over the recent window, one per requested
    /// quantile in `[0, 1]`. Returns `None` when no requests completed yet.
    pub fn latency_percentiles_us(&self, quantiles: &[f64]) -> Option<Vec<u64>> {
        let sorted = {
            let r = self.ring();
            if r.len == 0 {
                return None;
            }
            let mut v = r.buf[..r.len].to_vec();
            drop(r);
            v.sort_unstable();
            v
        };
        Some(
            quantiles
                .iter()
                .map(|&q| {
                    let idx = ((q.clamp(0.0, 1.0)) * (sorted.len() - 1) as f64).round() as usize;
                    sorted[idx]
                })
                .collect(),
        )
    }
}

/// RAII in-flight marker from [`ServeStats::begin_request`].
pub struct InflightGuard<'a> {
    stats: &'a ServeStats,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.stats.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inflight_guard_is_exception_safe() {
        let s = ServeStats::new();
        {
            let _g = s.begin_request();
            assert_eq!(s.inflight(), 1);
            let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _g2 = s.begin_request();
                panic!("boom");
            }));
            assert!(res.is_err());
        }
        assert_eq!(s.inflight(), 0, "guards must decrement on drop and unwind");
    }

    #[test]
    fn percentiles_over_recent_window() {
        let s = ServeStats::new();
        assert!(s.latency_percentiles_us(&[0.5]).is_none());
        for us in 1..=100 {
            s.note_request(us);
        }
        let p = s.latency_percentiles_us(&[0.0, 0.5, 0.99, 1.0]).unwrap();
        assert_eq!(p[0], 1);
        assert!((49..=52).contains(&p[1]), "p50 of 1..=100 was {}", p[1]);
        assert!(p[2] >= 98);
        assert_eq!(p[3], 100);
        assert_eq!(s.requests(), 100);
    }

    #[test]
    fn ring_wraps_without_growing() {
        let s = ServeStats::new();
        for us in 0..(RING_CAPACITY as u64 + 50) {
            s.note_request(us);
        }
        // Samples 0..50 were overwritten; the retained window is 50..4146.
        let p = s.latency_percentiles_us(&[0.0]).unwrap();
        assert!(p[0] >= 50, "oldest sample should have been overwritten, min was {}", p[0]);
        assert_eq!(s.requests(), RING_CAPACITY as u64 + 50);
    }
}
