//! Bandwidth-optimal ring all-reduce.
//!
//! The paper trains with synchronous data-parallel SGD where "gradients are
//! averaged across all devices with an all-reduce operation" (Sec. 3.4,
//! NCCL). This module implements the same communication schedule NCCL uses —
//! reduce-scatter followed by all-gather around a ring — with worker threads
//! standing in for GPUs and `std::sync::mpsc` channels for NVLink. Each of
//! the `2(n−1)` steps moves `B/n` elements, so total bytes on the wire are
//! `2B(n−1)/n` per worker: bandwidth-optimal and independent of `n` for
//! large `n`.
//!
//! The schedule is written once ([`RingHandle::all_reduce`]) and takes an
//! optional time budget: without one every receive blocks (a dead peer still
//! surfaces, as a disconnect); with one the whole collective must finish
//! inside it, which is how the elastic supervisor turns a stalled peer into
//! an error instead of a hang.

use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

/// Why an all-reduce gave up instead of completing.
///
/// A collective over threads (or machines) has exactly two failure shapes:
/// the peer is *gone* (its channel endpoints dropped) or the peer is *late*
/// (nothing arrived before the deadline). Telling them apart matters to the
/// supervisor — a disconnect means the worker died and the ring must be
/// re-formed; a timeout may be a transient stall worth retrying as-is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RingError {
    /// A neighbor's channel endpoint was dropped mid-collective.
    PeerDisconnected {
        /// Rank that observed the disconnect.
        rank: usize,
        /// Ring step (0-based over the `2(n-1)` schedule) where it surfaced.
        step: usize,
    },
    /// No data arrived from the previous rank before the deadline.
    Timeout {
        /// Rank that timed out.
        rank: usize,
        /// Ring step where the wait exceeded the budget.
        step: usize,
        /// The full collective's time budget that was exhausted.
        timeout: Duration,
    },
}

impl std::fmt::Display for RingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RingError::PeerDisconnected { rank, step } => {
                write!(f, "rank {rank}: ring peer disconnected at collective step {step}")
            }
            RingError::Timeout { rank, step, timeout } => {
                write!(f, "rank {rank}: all-reduce exceeded {timeout:?} at collective step {step}")
            }
        }
    }
}

impl std::error::Error for RingError {}

/// One worker's endpoint of a ring. Created in bulk by [`ring`].
pub struct RingHandle {
    rank: usize,
    n: usize,
    /// Sender to the next worker in the ring (`(rank + 1) % n`).
    to_next: Sender<Vec<f32>>,
    /// Receiver from the previous worker (`(rank + n - 1) % n`).
    from_prev: Receiver<Vec<f32>>,
}

/// Creates the endpoints of an `n`-worker ring.
pub fn ring(n: usize) -> Vec<RingHandle> {
    assert!(n >= 1, "ring needs at least one worker");
    let mut senders = Vec::with_capacity(n);
    let mut receivers = Vec::with_capacity(n);
    for _ in 0..n {
        let (s, r) = channel::<Vec<f32>>();
        senders.push(s);
        receivers.push(r);
    }
    // Worker i sends into channel i (read by worker i+1).
    let mut handles: Vec<RingHandle> = Vec::with_capacity(n);
    let mut receivers: Vec<Option<Receiver<Vec<f32>>>> = receivers.into_iter().map(Some).collect();
    for (rank, to_next) in senders.into_iter().enumerate() {
        let prev = (rank + n - 1) % n;
        let from_prev = receivers[prev].take().expect("each receiver taken once");
        handles.push(RingHandle { rank, n, to_next, from_prev });
    }
    handles
}

/// The element range of chunk `c` for a buffer of `len` split `n` ways
/// (first `len % n` chunks get one extra element).
fn chunk_range(len: usize, n: usize, c: usize) -> std::ops::Range<usize> {
    let base = len / n;
    let extra = len % n;
    let start = c * base + c.min(extra);
    let size = base + usize::from(c < extra);
    start..start + size
}

impl RingHandle {
    /// This worker's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// In-place all-reduce (sum). Every worker must call this with a buffer
    /// of identical length; on success all buffers hold the element-wise
    /// sum. With a `timeout` the entire `2(n-1)`-step collective must finish
    /// within it; without one receives block until data or a disconnect. On
    /// error the buffer holds partially-reduced data and must be discarded.
    pub fn all_reduce(&self, buf: &mut [f32], timeout: Option<Duration>) -> Result<(), RingError> {
        let n = self.n;
        let len = buf.len();
        let deadline = timeout.map(|t| (Instant::now() + t, t));
        let gone = |step| RingError::PeerDisconnected { rank: self.rank, step };
        // Steps 0..n-1 reduce-scatter: after step s, worker i holds the
        // partial sum of chunk (i - s) accumulated over s+1 workers, and
        // after n-1 steps the complete sum of chunk (i + 1) mod n. Steps
        // n-1..2(n-1) all-gather: the completed chunks circulate.
        for step in 0..2 * (n - 1) {
            let gather = step >= n - 1;
            let s = step % (n - 1);
            let send_c = (self.rank + usize::from(gather) + n - s) % n;
            let recv_c = (send_c + n - 1) % n;
            let out = buf[chunk_range(len, n, send_c)].to_vec();
            self.to_next.send(out).map_err(|_| gone(step))?;
            let inc = match deadline {
                None => self.from_prev.recv().map_err(|_| gone(step))?,
                Some((at, timeout)) => self
                    .from_prev
                    .recv_timeout(at.saturating_duration_since(Instant::now()))
                    .map_err(|e| match e {
                        RecvTimeoutError::Disconnected => gone(step),
                        RecvTimeoutError::Timeout => {
                            RingError::Timeout { rank: self.rank, step, timeout }
                        }
                    })?,
            };
            let dst = &mut buf[chunk_range(len, n, recv_c)];
            debug_assert_eq!(inc.len(), dst.len());
            if gather {
                dst.copy_from_slice(&inc);
            } else {
                for (d, v) in dst.iter_mut().zip(&inc) {
                    *d += v;
                }
            }
        }
        Ok(())
    }

    /// [`RingHandle::all_reduce`] followed by division by the world size
    /// (gradient averaging — what `DistributedDataParallel` does).
    pub fn all_reduce_mean(
        &self,
        buf: &mut [f32],
        timeout: Option<Duration>,
    ) -> Result<(), RingError> {
        self.all_reduce(buf, timeout)?;
        let inv = 1.0 / self.n as f32;
        for v in buf.iter_mut() {
            *v *= inv;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Runs `f` on every handle of an `n`-ring, one thread each; results in
    /// rank order.
    fn on_ring<T: Send>(n: usize, f: impl Fn(RingHandle) -> T + Sync) -> Vec<T> {
        let f = &f;
        std::thread::scope(|scope| {
            let joins: Vec<_> = ring(n).into_iter().map(|h| scope.spawn(move || f(h))).collect();
            joins.into_iter().map(|j| j.join().expect("worker panicked")).collect()
        })
    }

    fn run_all_reduce(n: usize, len: usize, seed: u64, timeout: Option<Duration>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let inputs: Vec<Vec<f32>> =
            (0..n).map(|_| (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect();
        let mut expect = vec![0.0f32; len];
        for inp in &inputs {
            for (e, v) in expect.iter_mut().zip(inp) {
                *e += v;
            }
        }
        let results = on_ring(n, |h| {
            let mut buf = inputs[h.rank()].clone();
            h.all_reduce(&mut buf, timeout).expect("healthy ring must reduce");
            buf
        });
        for (w, r) in results.iter().enumerate() {
            for (i, (a, b)) in r.iter().zip(&expect).enumerate() {
                assert!(
                    (a - b).abs() < 1e-4 * (1.0 + b.abs()),
                    "n={n} len={len} worker {w} elem {i}: {a} vs {b}"
                );
            }
        }
    }

    /// The one schedule sums correctly with and without a deadline,
    /// including lengths the world size does not divide.
    #[test]
    fn all_reduce_matches_serial_sum() {
        for timeout in [None, Some(Duration::from_secs(5))] {
            for n in 1..=5 {
                for len in [1usize, 2, 3, 7, 64, 1000] {
                    run_all_reduce(n, len, (n * 1000 + len) as u64, timeout);
                }
            }
        }
    }

    #[test]
    fn buffer_shorter_than_world() {
        // len < n leaves some chunks empty — must still work.
        run_all_reduce(5, 2, 99, None);
        run_all_reduce(4, 3, 100, Some(Duration::from_secs(5)));
    }

    #[test]
    fn mean_divides_by_world() {
        for r in on_ring(4, |h| {
            let mut buf = vec![2.0f32; 10];
            h.all_reduce_mean(&mut buf, None).expect("healthy ring");
            buf
        }) {
            for v in r {
                assert!((v - 2.0).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn repeated_reduces_stay_consistent() {
        // Back-to-back all-reduces must not cross-contaminate.
        for (a, b) in on_ring(3, |h| {
            let mut a = vec![h.rank() as f32; 8];
            h.all_reduce(&mut a, None).expect("healthy ring");
            let mut b = vec![1.0f32; 5];
            h.all_reduce(&mut b, None).expect("healthy ring");
            (a[0], b[0])
        }) {
            assert!((a - 3.0).abs() < 1e-6); // 0+1+2
            assert!((b - 3.0).abs() < 1e-6); // 1*3
        }
    }

    #[test]
    fn chunk_ranges_partition_buffer() {
        for len in [0usize, 1, 5, 17, 100] {
            for n in 1..=6 {
                let mut covered = 0;
                for c in 0..n {
                    let r = chunk_range(len, n, c);
                    assert_eq!(r.start, covered, "len={len} n={n} c={c}");
                    covered = r.end;
                }
                assert_eq!(covered, len);
            }
        }
    }

    #[test]
    fn single_worker_is_identity() {
        let handles = ring(1);
        let mut buf = vec![1.0, 2.0, 3.0];
        handles[0].all_reduce(&mut buf, None).expect("world of one");
        assert_eq!(buf, vec![1.0, 2.0, 3.0]);
    }

    /// A deadline changes when a receive gives up, not what is summed: the
    /// result is bit-identical to the blocking run.
    #[test]
    fn bounded_all_reduce_matches_unbounded_when_healthy() {
        let run = |timeout| {
            on_ring(4, move |h| {
                let mut buf: Vec<f32> = (0..10).map(|i| (h.rank() * 10 + i) as f32 * 0.1).collect();
                h.all_reduce_mean(&mut buf, timeout).expect("healthy ring must reduce");
                buf
            })
        };
        let (blocking, bounded) = (run(None), run(Some(Duration::from_secs(5))));
        assert_eq!(blocking, bounded);
        for r in &blocking {
            assert_eq!(r, &blocking[0]);
        }
        // mean over ranks of 0.1 * (rank*10 + i) = 1.5 + 0.1 i
        for (i, v) in blocking[0].iter().enumerate() {
            assert!((v - (1.5 + 0.1 * i as f32)).abs() < 1e-5);
        }
    }

    #[test]
    fn dead_peer_errors_within_timeout_instead_of_hanging() {
        // With or without a deadline: the blocking receive sees the dropped
        // sender too.
        for timeout in [None, Some(Duration::from_secs(2))] {
            let mut handles = ring(3);
            // Rank 2 "dies": its endpoints are dropped before the collective.
            drop(handles.pop());
            let start = Instant::now();
            let errs: Vec<RingError> = std::thread::scope(|scope| {
                let joins: Vec<_> = handles
                    .into_iter()
                    .map(|h| {
                        scope.spawn(move || {
                            let mut buf = vec![1.0f32; 64];
                            h.all_reduce(&mut buf, timeout)
                                .expect_err("reduce with a dead peer must fail")
                        })
                    })
                    .collect();
                joins.into_iter().map(|j| j.join().expect("worker")).collect()
            });
            // Survivors detect the drop well before any budget expires.
            assert!(start.elapsed() < Duration::from_secs(2), "detection took the whole timeout");
            assert!(
                errs.iter().all(|e| matches!(e, RingError::PeerDisconnected { .. })),
                "{errs:?}"
            );
        }
    }

    #[test]
    fn stalled_peer_times_out() {
        // Rank 1 never participates (but stays alive), so rank 0's recv can
        // only end by deadline.
        let handles = ring(2);
        let (h0, h1) = {
            let mut it = handles.into_iter();
            (it.next().expect("h0"), it.next().expect("h1"))
        };
        let timeout = Duration::from_millis(200);
        let start = Instant::now();
        let mut buf = vec![1.0f32; 8];
        let err = h0.all_reduce(&mut buf, Some(timeout)).expect_err("must time out");
        assert_eq!(err, RingError::Timeout { rank: 0, step: 0, timeout });
        let waited = start.elapsed();
        assert!(waited >= timeout, "returned before the deadline: {waited:?}");
        assert!(waited < timeout * 10, "overshot the deadline: {waited:?}");
        drop(h1);
    }
}
