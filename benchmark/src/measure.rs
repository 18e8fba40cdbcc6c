//! The measuring loops every workload shares.
//!
//! Two things keep a run's figures steady on a shared host. Every closed-loop
//! latency is divided by how slow the host was around it, as the probes the
//! loop runs between operations tell (see [`crate::probe`]). And a phase is
//! cut into [`ROUNDS`] equal rounds: throughput and the latency percentiles
//! are computed per round and the median round is reported — one rule for
//! every workload — so a burst of host noise that lands in a few rounds does
//! not move the result. A round of a slow operation holds only a few
//! samples, and its 90th percentile is then their maximum.

use crate::probe::HostClock;
use crate::trace::{At, Tracer};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// Rounds per phase.
pub const ROUNDS: usize = 20;

/// A closed loop probes the host between two operations once this long has
/// passed since the last probe (a probe takes under 1 ms).
const PROBE_EVERY_S: f64 = 0.05;

/// One completed operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Round the operation started (closed loop) or was due (open loop) in.
    pub round: usize,
    /// Load-generator thread that issued it.
    pub thread: usize,
    /// Issue → reply (closed loop) or due time → reply (open loop), wall time.
    pub latency_s: f64,
    /// How slow the host was around the operation (1 = reference speed);
    /// figures are computed from `latency_s / host`. An open loop cannot
    /// stop to probe, so its samples carry 1.
    pub host: f64,
    /// Work units the operation produced (patches, point values, replies).
    pub work: f64,
}

/// Everything one phase recorded.
#[derive(Debug, Default)]
pub struct Phase {
    /// Successful operations.
    pub samples: Vec<Sample>,
    /// Operations that errored, were refused, timed out or answered wrongly.
    pub failed: u64,
}

/// The end-to-end figures of a phase, at reference host speed.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Work units per second of a closed loop, median over rounds: each
    /// thread works back to back, so its rate is its work over its busy
    /// time, and threads add.
    pub work_per_s: f64,
    /// Median latency, median over rounds.
    pub p50_ms: f64,
    /// 90th-percentile latency, median over rounds.
    pub p90_ms: f64,
    /// 99th-percentile latency over the phase (diagnostic).
    pub p99_ms: f64,
    /// Slowest sample (diagnostic).
    pub max_ms: f64,
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle values for an even count).
pub fn median(mut values: Vec<f64>) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        0.5 * (values[n / 2 - 1] + values[n / 2])
    }
}

impl Phase {
    /// Folds in another thread's share of the phase, or a later slice of it.
    pub fn merge(&mut self, other: Phase) {
        self.samples.extend(other.samples);
        self.failed += other.failed;
    }

    /// Operations attempted, failed ones included.
    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64 + self.failed
    }

    /// The phase's figures. `None` when no operation succeeded.
    pub fn summary(&self) -> Option<Summary> {
        let threads = self.samples.iter().map(|s| s.thread).max()? + 1;
        let (mut rates, mut p50s, mut p90s) = (Vec::new(), Vec::new(), Vec::new());
        for round in 0..ROUNDS {
            let of_round = || self.samples.iter().filter(|s| s.round == round);
            let mut work_and_busy = vec![(0.0, 0.0); threads];
            for s in of_round() {
                work_and_busy[s.thread].0 += s.work;
                work_and_busy[s.thread].1 += s.latency_s / s.host;
            }
            let mut lat: Vec<f64> = of_round().map(|s| s.latency_s / s.host * 1e3).collect();
            if lat.is_empty() {
                continue;
            }
            lat.sort_by(f64::total_cmp);
            // A thread none of whose operations succeeded adds nothing.
            rates.push(work_and_busy.iter().filter(|(w, _)| *w > 0.0).map(|(w, b)| w / b).sum());
            p50s.push(percentile(&lat, 0.5));
            p90s.push(percentile(&lat, 0.9));
        }
        let mut all: Vec<f64> = self.samples.iter().map(|s| s.latency_s / s.host * 1e3).collect();
        all.sort_by(f64::total_cmp);
        Some(Summary {
            work_per_s: median(rates),
            p50_ms: median(p50s),
            p90_ms: median(p90s),
            p99_ms: percentile(&all, 0.99),
            max_ms: all[all.len() - 1],
        })
    }
}

/// One kind of operation a workload issues: how to make request `i` from the
/// seed, how to issue it (the only timed part), and how to check the reply.
pub trait Op {
    /// A generated request.
    type Req;
    /// What issuing it returns.
    type Rep;
    /// Builds request `i`; a pure function of the workload seed and `i`.
    fn prepare(&mut self, i: u64) -> Self::Req;
    /// Issues the request. Timed.
    fn issue(&mut self, req: &Self::Req, at: At<'_>) -> Result<Self::Rep, String>;
    /// Checks the reply, untimed, and returns the work units it carried.
    fn verify(&mut self, i: u64, req: &Self::Req, rep: &Self::Rep) -> Result<f64, String>;
}

/// Where one load-generator thread sits in the request stream.
#[derive(Clone, Copy)]
pub struct Lane<'a> {
    /// This thread's index.
    pub thread: usize,
    /// Load-generator threads in total; thread `t` issues requests
    /// `first + t`, `first + t + threads`, …
    pub threads: usize,
    /// Cores one operation of this thread keeps busy at once (the ranks of
    /// a data-parallel step); the host probe runs on as many.
    pub cores: usize,
    /// Index of the stream's first request.
    pub first: u64,
    /// Span sink of a traced run.
    pub tracer: Option<&'a Tracer>,
    /// Span name of one issued operation.
    pub span: &'static str,
}

/// How many failures are described on stderr before the rest are only counted.
const FAILURES_SHOWN: u64 = 5;

fn note_failure(phase: &mut Phase, i: u64, why: &str) {
    phase.failed += 1;
    if phase.failed <= FAILURES_SHOWN {
        eprintln!("operation {i} failed: {why}");
    }
}

/// Closed loop: the next request is issued when the previous one returned.
/// Runs for `seconds` from `start` and always completes at least one
/// operation. Between operations, every [`PROBE_EVERY_S`] and once at the
/// end, it probes the host; the operations between two probes carry the
/// mean of the two as their `host`.
pub fn closed_loop<O: Op>(op: &mut O, lane: Lane<'_>, start: Instant, seconds: f64) -> Phase {
    let mut phase = Phase::default();
    let mut clock = HostClock::on_cores(lane.cores);
    let (mut probed_s, mut unscaled) = (start.elapsed().as_secs_f64(), 0);
    let mut k = 0u64;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let over = elapsed >= seconds && k > 0;
        if over || elapsed - probed_s >= PROBE_EVERY_S {
            let host = clock.host();
            for s in &mut phase.samples[unscaled..] {
                s.host = host;
            }
            unscaled = phase.samples.len();
            probed_s = start.elapsed().as_secs_f64();
        }
        if over {
            return phase;
        }
        let round = ((elapsed / seconds * ROUNDS as f64) as usize).min(ROUNDS - 1);
        let i = lane.first + lane.thread as u64 + k * lane.threads as u64;
        k += 1;
        let req = op.prepare(i);
        let issued = Instant::now();
        let rep = At::root(lane.tracer, i).span(lane.span, |at| op.issue(&req, at));
        let latency_s = issued.elapsed().as_secs_f64();
        match rep.and_then(|rep| op.verify(i, &req, &rep)) {
            Ok(work) => {
                phase.samples.push(Sample {
                    round,
                    thread: lane.thread,
                    latency_s,
                    host: 1.0,
                    work,
                });
            }
            Err(why) => note_failure(&mut phase, i, &why),
        }
    }
}

/// Open loop: request `j` is due `offsets_us[j]` (ascending) after `start`
/// whatever the earlier ones did, and its latency runs from that due time.
/// Returns the phase and, per request, how late the generator sent it (µs).
pub fn open_loop<O: Op>(
    op: &mut O,
    lane: Lane<'_>,
    start: Instant,
    offsets_us: &[u64],
) -> (Phase, Vec<f64>) {
    let mut phase = Phase::default();
    let mut lag_us = Vec::new();
    let end_us = offsets_us.last().map_or(1, |last| last + 1) as f64;
    for j in (lane.thread..offsets_us.len()).step_by(lane.threads) {
        let i = lane.first + j as u64;
        let req = op.prepare(i);
        let due = start + Duration::from_micros(offsets_us[j]);
        let wait = due.saturating_duration_since(Instant::now());
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
        lag_us.push(due.elapsed().as_secs_f64() * 1e6);
        let rep = At::root(lane.tracer, i).span(lane.span, |at| op.issue(&req, at));
        let latency_s = due.elapsed().as_secs_f64();
        let round = (offsets_us[j] as f64 / end_us * ROUNDS as f64) as usize;
        match rep.and_then(|rep| op.verify(i, &req, &rep)) {
            Ok(work) => {
                phase.samples.push(Sample {
                    round,
                    thread: lane.thread,
                    latency_s,
                    host: 1.0,
                    work,
                });
            }
            Err(why) => note_failure(&mut phase, i, &why),
        }
    }
    (phase, lag_us)
}

/// Lets load-generator threads agree on one starting instant.
pub struct Gate {
    barrier: Barrier,
    start: Mutex<Instant>,
}

impl Gate {
    /// A gate for `threads` threads.
    pub fn new(threads: usize) -> Self {
        Gate { barrier: Barrier::new(threads), start: Mutex::new(Instant::now()) }
    }

    /// Blocks until every thread arrived; all get the same instant, taken
    /// after the last arrival.
    pub fn sync(&self) -> Instant {
        if self.barrier.wait().is_leader() {
            *self.start.lock().expect("gate lock is never held across a panic") = Instant::now();
        }
        self.barrier.wait();
        *self.start.lock().expect("gate lock is never held across a panic")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.99), 10.0);
        assert_eq!(percentile(&[3.0], 0.5), 3.0);
    }

    #[test]
    fn median_handles_even_counts() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn summary_takes_the_median_round_and_adds_threads() {
        let mut phase = Phase { failed: 3, ..Phase::default() };
        // Two threads, each 10 ops of 10 ms per round at reference speed;
        // round 1 is disturbed, and in round 2 the host is twice as slow.
        for round in 0..3 {
            for thread in 0..2 {
                for _ in 0..10 {
                    let (latency_s, host) = [(0.01, 1.0), (0.05, 1.0), (0.02, 2.0)][round];
                    phase.samples.push(Sample { round, thread, latency_s, host, work: 1.0 });
                }
            }
        }
        assert_eq!(phase.attempted(), 63);
        let s = phase.summary().expect("samples");
        assert!((s.work_per_s - 200.0).abs() < 1e-9, "{}", s.work_per_s);
        assert!((s.p50_ms - 10.0).abs() < 1e-9 && (s.p90_ms - 10.0).abs() < 1e-9);
        assert!((s.p99_ms - 50.0).abs() < 1e-9 && (s.max_ms - 50.0).abs() < 1e-9);
    }

    struct Flaky;
    impl Op for Flaky {
        type Req = u64;
        type Rep = u64;
        fn prepare(&mut self, i: u64) -> u64 {
            i
        }
        fn issue(&mut self, req: &u64, _: At<'_>) -> Result<u64, String> {
            if req.is_multiple_of(3) {
                Err("refused".into())
            } else {
                Ok(*req)
            }
        }
        fn verify(&mut self, _: u64, req: &u64, rep: &u64) -> Result<f64, String> {
            // Every fifth reply is "wrong".
            if rep.is_multiple_of(5) {
                Err(format!("wrong value for {req}"))
            } else {
                Ok(1.0)
            }
        }
    }

    #[test]
    fn refused_and_wrong_replies_count_as_failed_and_carry_no_latency() {
        let lane = Lane { thread: 0, threads: 1, cores: 1, first: 0, tracer: None, span: "op" };
        let offsets: Vec<u64> = (0..30).collect();
        let (phase, lag) = open_loop(&mut Flaky, lane, Instant::now(), &offsets);
        // 0..30: multiples of 3 are refused (10), of the rest the multiples
        // of 5 answer wrongly (5, 10, 20, 25 -> 4).
        assert_eq!(phase.failed, 14);
        assert_eq!(phase.samples.len(), 16);
        assert_eq!(phase.attempted(), 30);
        assert_eq!(lag.len(), 30);
    }
}
