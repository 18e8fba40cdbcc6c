//! A fixed-size, lock-free histogram of `u64` values such as latencies.
//!
//! Buckets are log-linear: each value below 64 has its own, and each range
//! `[2^k, 2^(k+1))` above is cut into 32 equal ones, none wider than 1/32 of
//! its lower bound. Recording is one relaxed `fetch_add` and allocates
//! nothing. Quantiles are ranked within one [`Snapshot`], so a concurrent
//! `record` cannot push the rank past the buckets that were read.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Buckets per power of two, as a shift.
const SUB_BITS: u32 = 5;
/// 64 exact buckets, then 32 for each power of two from 2^6 to 2^63.
const BUCKETS: usize = (65 - SUB_BITS as usize) << SUB_BITS;

/// The bucket holding `v`: `v` itself below 64, else its shift and top six bits.
fn index(v: u64) -> usize {
    let shift = (63 - (v | 63).leading_zeros()) - SUB_BITS;
    ((shift as usize) << SUB_BITS) + (v >> shift) as usize
}

/// The midpoint of bucket `i`, within half a bucket of every value in it.
fn midpoint(i: usize) -> u64 {
    let shift = ((i >> SUB_BITS) as u32).saturating_sub(1);
    let lower = (i as u64 - ((shift as u64) << SUB_BITS)) << shift;
    lower + ((1 << shift) >> 1)
}

/// Counts of recorded values per bucket, and their exact maximum. Shared
/// between threads by reference; 15 KiB, all of it inline.
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { counts: [const { AtomicU64::new(0) }; BUCKETS], max: AtomicU64::new(0) }
    }
}

impl Histogram {
    /// Records `v`. Relaxed: the counts are statistics and publish nothing.
    pub fn record(&self, v: u64) {
        self.counts[index(v)].fetch_add(1, Relaxed);
        if v > self.max.load(Relaxed) {
            self.max.fetch_max(v, Relaxed);
        }
    }

    /// A copy of the counts, read in one pass.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counts: std::array::from_fn(|i| self.counts[i].load(Relaxed)),
            max: self.max.load(Relaxed),
        }
    }
}

/// A copy of a [`Histogram`]'s counts.
#[derive(Debug, PartialEq)]
pub struct Snapshot {
    counts: [u64; BUCKETS],
    max: u64,
}

impl Snapshot {
    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The largest value recorded, 0 if none: exact, except that after
    /// [`Snapshot::since`] it is the later snapshot's, an upper bound.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value of rank `round(q·(n−1))` among the `n` recorded, for `q` in
    /// `[0, 1]`, or `None` if `n` is 0. Exact below 64; above, within 1/64
    /// of the true value (half a bucket), and never above [`Snapshot::max`].
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let rank = (q.clamp(0.0, 1.0) * self.count().checked_sub(1)? as f64).round() as u64;
        let mut seen = 0;
        let i = self.counts.iter().position(|&c| {
            seen += c;
            seen > rank
        })?;
        Some(midpoint(i).min(self.max))
    }

    /// The values recorded after `earlier`, a snapshot of the same histogram.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let counts = std::array::from_fn(|i| self.counts[i] - earlier.counts[i]);
        Snapshot { counts, max: self.max }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    /// Deterministic 64-bit LCG draws.
    fn lcg(state: &mut u64) -> u64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *state >> 11
    }

    /// Records `samples` and checks count, max and five quantiles against
    /// the exact nearest-rank values of the sorted samples.
    fn matches_exact_sort(samples: &[u64]) {
        let h = Histogram::default();
        for &v in samples {
            h.record(v);
        }
        let s = h.snapshot();
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        assert_eq!(s.count(), samples.len() as u64);
        assert_eq!(s.max(), *sorted.last().unwrap());
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            let exact = sorted[(q * (sorted.len() - 1) as f64).round() as usize];
            let got = s.quantile(q).unwrap();
            if exact < 64 {
                assert_eq!(got, exact, "q {q}");
            } else {
                assert!(
                    got.abs_diff(exact) as f64 <= exact as f64 / 64.0,
                    "q {q}: {got} vs {exact}"
                );
            }
        }
    }

    #[test]
    fn quantiles_are_within_half_a_bucket_of_the_exact_sort() {
        let mut state = 7;
        let uniform: Vec<u64> = (0..10_000).map(|_| lcg(&mut state) % 1_000_000).collect();
        // A product of uniforms in (0.5, 2): a skewed body with a long tail.
        let log_normal: Vec<u64> = (0..10_000)
            .map(|_| {
                let f = (0..8).map(|_| 0.5 + 1.5 * (lcg(&mut state) % 1000) as f64 / 1000.0);
                (500.0 * f.product::<f64>()) as u64
            })
            .collect();
        let with_zeros: Vec<u64> = (0..1000).map(|i| if i % 3 == 0 { 0 } else { i * 37 }).collect();
        matches_exact_sort(&uniform);
        matches_exact_sort(&log_normal);
        matches_exact_sort(&[4_321; 1000]);
        matches_exact_sort(&[987_654]);
        matches_exact_sort(&[0; 100]);
        matches_exact_sort(&with_zeros);
        matches_exact_sort(&[0, 63, 64, 65, 127, 128, u64::MAX - 1, u64::MAX]);
    }

    #[test]
    fn every_value_lands_in_a_bucket_whose_midpoint_is_near_it() {
        for v in (0..100_000).chain([u64::MAX >> 1, u64::MAX - 1, u64::MAX]) {
            let i = index(v);
            assert!(i < BUCKETS);
            assert!(midpoint(i).abs_diff(v) <= v >> 6, "{v} -> bucket {i}");
        }
        assert!(std::mem::size_of::<Histogram>() <= 16 * 1024);
    }

    #[test]
    fn empty_has_no_quantile_and_since_keeps_only_the_new_values() {
        let h = Histogram::default();
        let empty = h.snapshot();
        assert_eq!(empty.quantile(0.5), None);
        assert_eq!(empty.count(), 0);
        for v in 1..=100 {
            h.record(v * 1000);
        }
        let first = h.snapshot();
        assert_eq!(first.since(&first).quantile(0.5), None);
        for _ in 0..10 {
            h.record(7);
        }
        let delta = h.snapshot().since(&first);
        assert_eq!(delta.count(), 10);
        assert_eq!(delta.quantile(0.0), Some(7));
        assert_eq!(delta.quantile(1.0), Some(7));
    }

    #[test]
    fn concurrent_records_are_never_lost() {
        let h = Histogram::default();
        let barrier = Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (h, barrier) = (&h, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    for i in 0..100_000 {
                        h.record(i % 5_000 + t);
                    }
                });
            }
        });
        let serial = Histogram::default();
        for t in 0..4u64 {
            for i in 0..100_000 {
                serial.record(i % 5_000 + t);
            }
        }
        assert_eq!(h.snapshot().count(), 400_000);
        assert_eq!(h.snapshot(), serial.snapshot());
    }
}
