//! Serving-side counters and latency tracking.
//!
//! [`ServeStats`] is the one object every layer of the server touches, so it
//! is built to be cheap under contention: monotonic counters are relaxed
//! atomics, and per-request latencies go into a fixed-size
//! [`Histogram`] whose record is one relaxed `fetch_add`. Readers take
//! [`Snapshot`](mfn_telemetry::Snapshot)s; the telemetry publish loop reports
//! percentiles over the requests between two of them.

use mfn_telemetry::Histogram;
use std::sync::atomic::{AtomicU64, Ordering};

/// Shared serving counters, all zero by default. All methods take `&self`.
#[derive(Default)]
pub struct ServeStats {
    errors: AtomicU64,
    inflight: AtomicU64,
    decode_calls: AtomicU64,
    queries: AtomicU64,
    conns: AtomicU64,
    busy_rejects: AtomicU64,
    refines: AtomicU64,
    refine_steps: AtomicU64,
    latency_us: Histogram,
}

impl ServeStats {
    /// Marks a request as started; the returned guard decrements the
    /// in-flight gauge on drop (including during unwinding).
    pub fn begin_request(&self) -> InflightGuard<'_> {
        self.inflight.fetch_add(1, Ordering::Relaxed);
        InflightGuard { stats: self }
    }

    /// Records one completed request and its latency.
    pub fn note_request(&self, latency_us: u64) {
        self.latency_us.record(latency_us);
    }

    /// Records one request that ended in a (typed) error.
    pub fn note_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one `decode_values` call answering `points` query points.
    pub fn note_decode(&self, points: u64) {
        self.decode_calls.fetch_add(1, Ordering::Relaxed);
        self.queries.fetch_add(points, Ordering::Relaxed);
    }

    /// Completed requests so far.
    pub fn requests(&self) -> u64 {
        self.latency_us.snapshot().count()
    }

    /// Errored requests so far.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Requests currently being processed.
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Relaxed)
    }

    /// `decode_values` calls so far, one per answered `Query`,
    /// `EncodeQuery` or `Refine`.
    pub fn decode_calls(&self) -> u64 {
        self.decode_calls.load(Ordering::Relaxed)
    }

    /// Query points decoded so far; `batched_queries / decode_calls` is the
    /// mean points per decode (the name predates one-request decodes).
    pub fn batched_queries(&self) -> u64 {
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

    /// Requests refused with `Busy` so far: the server's full compute job
    /// queue, or a `Refine` beyond the in-flight refinement cost pool.
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

    /// Latencies (µs) of the completed requests.
    pub fn latency_us(&self) -> &Histogram {
        &self.latency_us
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
        let s = ServeStats::default();
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
}
