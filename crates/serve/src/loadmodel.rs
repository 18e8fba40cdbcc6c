//! Deterministic load synthesis for the fleet benchmark.
//!
//! An honest serving benchmark needs two things a naive loop doesn't give:
//!
//! - **Skewed popularity.** Real query traffic replays a handful of hot
//!   patches (the frame being super-resolved, the region being explored),
//!   which is exactly what makes the latent cache pay off. [`Zipf`] models
//!   that: patch rank `k` is drawn with probability `∝ 1/k^s`.
//! - **Open-loop arrivals.** A closed loop (send, wait, send) lets a slow
//!   server throttle its own load, hiding queueing delay — the coordinated
//!   omission trap. [`ArrivalSchedule`] instead fixes *offered* load as a
//!   Poisson process (exponential inter-arrival gaps at a target rate);
//!   latency is then measured from the scheduled arrival time, so time a
//!   request spent waiting to be sent counts against the server.
//!
//! Everything is seeded [`SplitMix64`]: a pinned seed reproduces the exact
//! same digests-per-request and send schedule on every platform, which is
//! what lets CI assert bench regressions rather than noise.

/// SplitMix64: the 64-bit PRNG used for all load synthesis. Tiny state,
/// full-period, and its output function is a bijective avalanche — good
/// enough statistically for sampling, and trivially portable.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator at `seed`; the same seed replays the same stream.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)` with 53 random bits (f64 mantissa width).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[0, n)`. `n` must be nonzero.
    pub fn next_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "next_below(0)");
        // Multiply-shift: maps a 64-bit draw to [0, n) with bias < 2^-64·n —
        // immaterial at benchmark sample counts, and branch-free.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Zipf(s) sampler over ranks `0..n`: rank `k` (0-based) has probability
/// proportional to `1/(k+1)^s`. Sampling is a uniform draw against a
/// precomputed CDF with binary search — exact, O(log n) per draw, and
/// deterministic given the RNG stream.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n ≥ 1` ranks with exponent `s ≥ 0` (`s = 0` is
    /// uniform; `s ≈ 1` is classic web-cache skew).
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1, "zipf over zero ranks");
        assert!(s >= 0.0 && s.is_finite(), "zipf exponent must be finite and >= 0");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // Guard against floating-point shortfall at the top.
        *cdf.last_mut().expect("n >= 1") = 1.0;
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// Probability of rank `k` (0-based).
    pub fn pmf(&self, k: usize) -> f64 {
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }

    /// Draws a rank in `0..n`.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// Open-loop Poisson arrival schedule: request `i` is *due* at
/// `offsets_us[i]` microseconds after the run starts, with exponential
/// inter-arrival gaps at `rate` requests/second. The sender sleeps until
/// each due time and measures latency from it — a server that can't keep up
/// accrues queueing delay in its tail instead of silently shedding offered
/// load.
#[derive(Debug, Clone)]
pub struct ArrivalSchedule {
    offsets_us: Vec<u64>,
}

impl ArrivalSchedule {
    /// A schedule of `count` arrivals at `rate` req/s (must be positive).
    pub fn new(rate: f64, count: usize, rng: &mut SplitMix64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "arrival rate must be positive");
        let mut offsets_us = Vec::with_capacity(count);
        let mut t = 0.0f64;
        for _ in 0..count {
            // Inverse-CDF exponential: gap = -ln(1-u)/rate; 1-u avoids
            // ln(0) since next_f64 ∈ [0, 1).
            let u = rng.next_f64();
            t += -(1.0 - u).ln() / rate;
            offsets_us.push((t * 1e6) as u64);
        }
        ArrivalSchedule { offsets_us }
    }

    /// Scheduled send offsets in µs from run start, nondecreasing.
    pub fn offsets_us(&self) -> &[u64] {
        &self.offsets_us
    }

    /// Number of scheduled arrivals.
    pub fn len(&self) -> usize {
        self.offsets_us.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.offsets_us.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_with_known_values() {
        // First draws from seed 0 — fixed by the SplitMix64 definition, so
        // any platform or codegen change that altered them would fail here.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(r.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn uniform_helpers_stay_in_range() {
        let mut r = SplitMix64::new(7);
        for _ in 0..10_000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
            assert!(r.next_below(13) < 13);
        }
    }

    #[test]
    fn zipf_matches_closed_form_pmf() {
        let z = Zipf::new(5, 1.0);
        // H_5 = 1 + 1/2 + 1/3 + 1/4 + 1/5
        let h5 = 137.0 / 60.0;
        for k in 0..5 {
            let expect = 1.0 / ((k + 1) as f64) / h5;
            assert!((z.pmf(k) - expect).abs() < 1e-12, "pmf({k})");
        }
        let mut rng = SplitMix64::new(1);
        let mut counts = [0usize; 5];
        let n = 200_000;
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for (k, &count) in counts.iter().enumerate() {
            let got = count as f64 / n as f64;
            assert!(
                (got - z.pmf(k)).abs() < 0.01,
                "rank {k}: sampled {got:.4} vs pmf {:.4}",
                z.pmf(k)
            );
        }
        // s = 0 degenerates to uniform.
        let u = Zipf::new(4, 0.0);
        for k in 0..4 {
            assert!((u.pmf(k) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_sampling_is_reproducible_under_pinned_seed() {
        let z = Zipf::new(64, 1.1);
        let mut a = SplitMix64::new(0xDEAD_BEEF);
        let mut b = SplitMix64::new(0xDEAD_BEEF);
        let seq_a: Vec<usize> = (0..256).map(|_| z.sample(&mut a)).collect();
        let seq_b: Vec<usize> = (0..256).map(|_| z.sample(&mut b)).collect();
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn arrival_schedule_is_sorted_reproducible_and_near_rate() {
        let mut a = SplitMix64::new(99);
        let s1 = ArrivalSchedule::new(1000.0, 10_000, &mut a);
        let mut b = SplitMix64::new(99);
        let s2 = ArrivalSchedule::new(1000.0, 10_000, &mut b);
        assert_eq!(s1.offsets_us(), s2.offsets_us());
        assert!(s1.offsets_us().windows(2).all(|w| w[0] <= w[1]), "offsets must be nondecreasing");
        // 10k arrivals at 1000/s span ~10s; mean gap 1000µs ± a few %.
        let span = *s1.offsets_us().last().unwrap() as f64;
        let mean_gap = span / 10_000.0;
        assert!(
            (900.0..1100.0).contains(&mean_gap),
            "mean inter-arrival {mean_gap:.1}µs, expected ~1000µs"
        );
    }
}
