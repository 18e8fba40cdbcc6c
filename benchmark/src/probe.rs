//! A fixed piece of work that tells how fast the host is right now.
//!
//! The reference host is a shared two-vCPU microVM whose speed moves by
//! ±20 % over seconds and over minutes, so two runs of one program minutes
//! apart differ by more than any bound worth gating on, however long each
//! run is. The load generator therefore runs this probe between operations,
//! on the thread that issues them, and every timing is divided by how slow
//! the probes around it were against [`REFERENCE_S`]: a latency is reported
//! as it would be on the reference host when quiet. Over ten-seed sets that
//! took the inter-quartile spread of a `train` step from 0.22 of the median
//! to 0.04 and that of a `super_resolve` pass from 0.14 to 0.02.
//!
//! The probe is the benchmark's own code and calls nothing of the program
//! under test, so a change to the program moves the metrics and leaves the
//! yardstick alone.
//!
//! It has four parts of comparable length, because what slows down is not
//! one resource: a register-only FMA chain (issue ports, shared with the
//! other hyperthread), a pass over 2 MB (L2/L3 bandwidth), a cache-resident
//! 96³ matrix product (loads and FMAs together, the shape of the program's
//! kernels), and first writes to 128 fresh pages (page faults, which in a
//! microVM reach the host, and which a training step takes by the hundred).
//! Over 12 s windows of one four-minute `train` process the window medians
//! ranged 0.91–1.31 of their median raw, 0.94–1.11 scaled by the first three
//! parts and 0.96–1.05 scaled by all four.
//!
//! The fresh pages come from a request too large for any allocator to serve
//! from memory it holds ([`FRESH_BYTES`]), so what the program left in the
//! allocator cannot move the probe; nothing else in it allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::time::Instant;

/// Edge of the probe's matrices.
const N: usize = 96;
/// Floats in the streamed buffer (2 MB).
const STREAM: usize = 1 << 19;
/// Size of the request whose first pages the probe writes to: above 32 MB,
/// the largest request glibc ever serves from its heap, so it is a fresh
/// anonymous mapping every time (address space only; the pages written to
/// are the only memory it costs).
const FRESH_BYTES: usize = 33 << 20;
/// Pages written to, and their size.
const FRESH_PAGES: usize = 128;
const PAGE: usize = 4096;
/// Iterations of the FMA chain.
const FMA_ROUNDS: usize = 100_000;

/// Seconds one probe takes on the reference host when it is quiet (about
/// the lowest decile seen); timings are reported at that speed.
pub const REFERENCE_S: f64 = 0.85e-3;

/// The probe's buffers; one per load-generator thread.
pub struct Probe {
    stream: Vec<f32>,
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
}

impl Default for Probe {
    fn default() -> Self {
        Probe {
            stream: vec![1.0; STREAM],
            a: vec![0.5; N * N],
            b: vec![0.25; N * N],
            c: vec![0.0; N * N],
        }
    }
}

impl Probe {
    /// Runs the probe once; seconds it took.
    pub fn run(&mut self) -> f64 {
        let start = Instant::now();
        let mut acc = [[0.5f32; 8]; 10];
        let (mul, add) = (black_box([0.999f32; 8]), black_box([0.001f32; 8]));
        for _ in 0..FMA_ROUNDS {
            for row in &mut acc {
                for lane in 0..8 {
                    row[lane] = row[lane].mul_add(mul[lane], add[lane]);
                }
            }
        }
        black_box(acc);

        for v in &mut self.stream {
            *v = *v * 0.999 + 0.001;
        }
        black_box(&self.stream[0]);

        for _ in 0..3 {
            for i in 0..N {
                let row = &mut self.c[i * N..(i + 1) * N];
                row.fill(0.0);
                for k in 0..N {
                    let aik = self.a[i * N + k];
                    for (c, b) in row.iter_mut().zip(&self.b[k * N..(k + 1) * N]) {
                        *c = aik.mul_add(*b, *c);
                    }
                }
            }
            black_box(&self.c[0]);
        }

        let layout = Layout::array::<u8>(FRESH_BYTES).expect("33 MB is a valid layout");
        // SAFETY: the layout has a non-zero size; the block is checked for
        // null, written and read only within its length (FRESH_PAGES * PAGE
        // is far below FRESH_BYTES), and freed once with the layout it came
        // from. The system allocator is called directly so that the counting
        // wrapper behind `tensor.alloc_bytes_per_op` never sees the probe.
        unsafe {
            let block = System.alloc(layout);
            assert!(!block.is_null(), "no address space for the host probe");
            for page in 0..FRESH_PAGES {
                block.add(page * PAGE).write(1);
            }
            black_box(block.add(PAGE).read());
            System.dealloc(block, layout);
        }
        start.elapsed().as_secs_f64()
    }
}

/// A stopwatch for work done in segments on one thread: a probe runs
/// between segments, and each segment counts for its wall time divided by
/// how slow the host was around it.
pub struct HostClock {
    /// One probe per core the timed work keeps busy.
    probes: Vec<Probe>,
    /// What the probe took just before the next segment.
    before_s: f64,
    /// Σ of the segments' wall times.
    pub raw_s: f64,
    /// Σ of the segments' times at reference speed.
    pub scaled_s: f64,
}

impl Default for HostClock {
    fn default() -> Self {
        HostClock::on_cores(1)
    }
}

impl HostClock {
    /// A clock for work that keeps `cores` threads busy at once and waits
    /// for the slowest (the ranks of data-parallel training): the probe runs
    /// on that many threads at the same time, and the slowest one counts.
    pub fn on_cores(cores: usize) -> Self {
        let mut clock = HostClock {
            probes: (0..cores.max(1)).map(|_| Probe::default()).collect(),
            before_s: 0.0,
            raw_s: 0.0,
            scaled_s: 0.0,
        };
        clock.before_s = clock.probe();
        clock
    }

    fn probe(&mut self) -> f64 {
        let (first, rest) = self.probes.split_first_mut().expect("at least one probe");
        std::thread::scope(|scope| {
            let others: Vec<_> = rest.iter_mut().map(|p| scope.spawn(|| p.run())).collect();
            let own = first.run();
            others.into_iter().map(|h| h.join().expect("probe thread")).fold(own, f64::max)
        })
    }

    /// Runs the probe again; how slow the host was since the previous probe
    /// (1 = reference speed), as the mean of the two.
    pub fn host(&mut self) -> f64 {
        let after_s = self.probe();
        let host = 0.5 * (self.before_s + after_s) / REFERENCE_S;
        self.before_s = after_s;
        host
    }

    /// Times `f` as one segment.
    pub fn segment<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let wall_s = start.elapsed().as_secs_f64();
        self.raw_s += wall_s;
        self.scaled_s += wall_s / self.host();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_segment_counts_its_wall_time_over_the_host_factor() {
        let mut clock = HostClock::default();
        let out = clock.segment(|| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            7
        });
        assert_eq!(out, 7);
        assert!(clock.raw_s >= 0.005);
        // Whatever the host, the probe is within two orders of its reference.
        let host = clock.raw_s / clock.scaled_s;
        assert!((0.01..100.0).contains(&host), "host factor {host}");
    }
}
