//! The space-time dataset container.
//!
//! A [`Dataset`] holds a uniformly-sampled sequence of Rayleigh–Bénard frames
//! as one `[nt, 4, nz, nx]` buffer (channel order `T, p, u, w` — the paper's
//! four physical quantities), together with the physical geometry needed to
//! map grid indices to `(t, z, x)` coordinates; its per-channel statistics
//! are computed from the data when a training corpus pools them into its one
//! normalization ([`Dataset::channel_stats`]).

use mfn_solver::Simulation;
use serde::{Deserialize, Serialize};

/// Channel indices of the four physical fields.
pub const CH_T: usize = 0;
/// Pressure channel.
pub const CH_P: usize = 1;
/// Horizontal-velocity channel.
pub const CH_U: usize = 2;
/// Vertical-velocity channel.
pub const CH_W: usize = 3;
/// Number of physical channels.
pub const CHANNELS: usize = 4;

/// Physical/geometric metadata of a dataset (serialized as JSON inside the
/// dataset file, ahead of the payload; see `io`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetMeta {
    /// Number of time frames.
    pub nt: usize,
    /// Grid rows (z).
    pub nz: usize,
    /// Grid columns (x).
    pub nx: usize,
    /// Domain length in x.
    pub lx: f64,
    /// Domain height in z.
    pub lz: f64,
    /// Time of the last frame (first frame is t = 0).
    pub duration: f64,
    /// Rayleigh number of the generating simulation.
    pub ra: f64,
    /// Prandtl number.
    pub pr: f64,
    /// RNG seed of the generating simulation (the "initial condition" id).
    pub seed: u64,
}

/// A uniformly-sampled space-time dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Metadata (geometry and physics).
    pub meta: DatasetMeta,
    /// Field data, `[nt, 4, nz, nx]` row-major `f32`.
    pub data: Vec<f32>,
}

impl Dataset {
    /// Builds a dataset from a finished simulation.
    pub fn from_simulation(sim: &Simulation) -> Self {
        let nt = sim.frames.len();
        let (nz, nx) = (sim.domain.nz, sim.domain.nx);
        let n = nz * nx;
        let mut data = vec![0.0f32; nt * CHANNELS * n];
        for (f, frame) in sim.frames.iter().enumerate() {
            let base = f * CHANNELS * n;
            for k in 0..n {
                data[base + CH_T * n + k] = frame.temp[k] as f32;
                data[base + CH_P * n + k] = frame.p[k] as f32;
                data[base + CH_U * n + k] = frame.u[k] as f32;
                data[base + CH_W * n + k] = frame.w[k] as f32;
            }
        }
        let duration = sim.frames.last().map(|f| f.time).unwrap_or(0.0);
        Dataset {
            meta: DatasetMeta {
                nt,
                nz,
                nx,
                lx: sim.domain.lx,
                lz: sim.domain.lz,
                duration,
                ra: sim.cfg.ra,
                pr: sim.cfg.pr,
                seed: sim.cfg.seed,
            },
            data,
        }
    }

    /// Constructs a dataset from raw parts (used by downsampling and tests).
    pub fn from_parts(meta: DatasetMeta, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            meta.nt * CHANNELS * meta.nz * meta.nx,
            "data length does not match metadata"
        );
        Dataset { meta, data }
    }

    /// Grid spacing in time between frames.
    pub fn dt(&self) -> f64 {
        if self.meta.nt < 2 {
            0.0
        } else {
            self.meta.duration / (self.meta.nt - 1) as f64
        }
    }

    /// Grid spacing in z.
    pub fn dz(&self) -> f64 {
        self.meta.lz / (self.meta.nz - 1).max(1) as f64
    }

    /// Grid spacing in x.
    pub fn dx(&self) -> f64 {
        self.meta.lx / self.meta.nx as f64
    }

    /// Flat index of `(frame, channel, row, col)`.
    #[inline]
    pub fn index(&self, f: usize, c: usize, j: usize, i: usize) -> usize {
        ((f * CHANNELS + c) * self.meta.nz + j) * self.meta.nx + i
    }

    /// Value at `(frame, channel, row, col)`.
    #[inline]
    pub fn at(&self, f: usize, c: usize, j: usize, i: usize) -> f32 {
        self.data[self.index(f, c, j, i)]
    }

    /// One frame of one channel as an `nz × nx` slice.
    pub fn channel_frame(&self, f: usize, c: usize) -> &[f32] {
        let n = self.meta.nz * self.meta.nx;
        let start = (f * CHANNELS + c) * n;
        &self.data[start..start + n]
    }

    /// One frame of one channel converted to `f64` (for the physics metrics).
    pub fn channel_frame_f64(&self, f: usize, c: usize) -> Vec<f64> {
        self.channel_frame(f, c).iter().map(|&v| v as f64).collect()
    }

    /// Per-channel mean and standard deviation over all frames, accumulated
    /// in `f64` and rounded to `f32`. Models never read them: a corpus
    /// pools them into its one normalization (`mfn_core::Corpus::new`).
    pub fn channel_stats(&self) -> ([f32; CHANNELS], [f32; CHANNELS]) {
        let nt = self.meta.nt;
        let mut mean = [0.0f64; CHANNELS];
        let mut var = [0.0f64; CHANNELS];
        let count = (nt * self.meta.nz * self.meta.nx) as f64;
        for f in 0..nt {
            for (c, m) in mean.iter_mut().enumerate() {
                for &v in self.channel_frame(f, c) {
                    *m += v as f64;
                }
            }
        }
        for m in mean.iter_mut() {
            *m /= count;
        }
        for f in 0..nt {
            for (c, s) in var.iter_mut().enumerate() {
                for &v in self.channel_frame(f, c) {
                    let d = v as f64 - mean[c];
                    *s += d * d;
                }
            }
        }
        (mean.map(|m| m as f32), var.map(|s| (s / count).sqrt() as f32))
    }

    /// Splits the dataset along time into `(train, validation)` at
    /// `frac` ∈ (0, 1): the first `ceil(frac·nt)` frames train, the rest
    /// validate (the paper evaluates on a held-out validation set).
    ///
    /// # Panics
    /// Panics unless both splits end up with at least 2 frames.
    pub fn split_time(&self, frac: f64) -> (Dataset, Dataset) {
        assert!(frac > 0.0 && frac < 1.0, "split fraction must be in (0, 1)");
        let n_train = ((self.meta.nt as f64 * frac).ceil() as usize).max(2);
        assert!(self.meta.nt - n_train >= 2, "validation split too small");
        let take = |lo: usize, hi: usize| -> Dataset {
            let n = self.meta.nz * self.meta.nx;
            let mut data = Vec::with_capacity((hi - lo) * CHANNELS * n);
            data.extend_from_slice(&self.data[lo * CHANNELS * n..hi * CHANNELS * n]);
            let mut meta = self.meta.clone();
            meta.nt = hi - lo;
            // Duration covers the frames of this split (uniform frame dt).
            meta.duration = self.dt() * (hi - lo - 1) as f64;
            Dataset::from_parts(meta, data)
        };
        (take(0, n_train), take(n_train, self.meta.nt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfn_solver::{simulate, RbcConfig};

    fn tiny_sim() -> Simulation {
        simulate(&RbcConfig { nx: 16, nz: 9, ra: 1e4, dt_max: 2e-3, ..Default::default() }, 0.02, 3)
    }

    #[test]
    fn from_simulation_layout() {
        let sim = tiny_sim();
        let ds = Dataset::from_simulation(&sim);
        assert_eq!(ds.meta.nt, 3);
        assert_eq!(ds.meta.nz, 9);
        assert_eq!(ds.meta.nx, 16);
        assert_eq!(ds.data.len(), 3 * 4 * 9 * 16);
        // Spot-check channel mapping on the last frame.
        let f = 2;
        assert!((ds.at(f, CH_T, 4, 7) as f64 - sim.frames[f].temp[4 * 16 + 7]).abs() < 1e-6);
        assert!((ds.at(f, CH_U, 2, 3) as f64 - sim.frames[f].u[2 * 16 + 3]).abs() < 1e-6);
        assert!((ds.at(f, CH_W, 1, 1) as f64 - sim.frames[f].w[16 + 1]).abs() < 1e-6);
    }

    #[test]
    fn grid_spacings() {
        let sim = tiny_sim();
        let ds = Dataset::from_simulation(&sim);
        assert!((ds.dt() - 0.01).abs() < 1e-12);
        assert!((ds.dz() - 1.0 / 8.0).abs() < 1e-12);
        assert!((ds.dx() - 4.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn channel_stats_are_the_data_moments() {
        let sim = tiny_sim();
        let ds = Dataset::from_simulation(&sim);
        let stats = ds.channel_stats();
        for c in 0..CHANNELS {
            let vals: Vec<f64> = (0..ds.meta.nt)
                .flat_map(|f| ds.channel_frame(f, c).iter().map(|&v| v as f64))
                .collect();
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            let var = vals.iter().map(|&v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64;
            let (m, s) = (stats.0[c] as f64, stats.1[c] as f64);
            assert!(
                (m - mean).abs() <= 1e-5 * (1.0 + mean.abs()),
                "channel {c} mean {m} vs {mean}"
            );
            assert!((s - var.sqrt()).abs() <= 1e-4 * (1e-3 + var.sqrt()), "channel {c} std {s}");
        }
    }

    #[test]
    fn meta_serde_roundtrip() {
        let sim = tiny_sim();
        let ds = Dataset::from_simulation(&sim);
        let json = serde_json::to_string(&ds.meta).expect("serialize");
        let back: DatasetMeta = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, ds.meta);
    }

    #[test]
    fn split_time_partitions_frames() {
        let sim = simulate(&RbcConfig { nx: 16, nz: 9, ra: 1e4, ..Default::default() }, 0.1, 11);
        let ds = Dataset::from_simulation(&sim);
        let (train, valid) = ds.split_time(0.7);
        assert_eq!(train.meta.nt + valid.meta.nt, ds.meta.nt);
        assert_eq!(train.meta.nt, 8);
        // Values preserved: first valid frame equals HR frame 8.
        for c in 0..CHANNELS {
            for j in 0..9 {
                for i in 0..16 {
                    assert_eq!(valid.at(0, c, j, i), ds.at(8, c, j, i));
                    assert_eq!(train.at(3, c, j, i), ds.at(3, c, j, i));
                }
            }
        }
        // Frame spacing unchanged.
        assert!((train.dt() - ds.dt()).abs() < 1e-12);
        assert!((valid.dt() - ds.dt()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "validation split too small")]
    fn split_time_rejects_degenerate() {
        let sim = simulate(&RbcConfig { nx: 16, nz: 9, ra: 1e4, ..Default::default() }, 0.05, 4);
        Dataset::from_simulation(&sim).split_time(0.95);
    }

    #[test]
    #[should_panic(expected = "does not match metadata")]
    fn from_parts_validates() {
        let sim = tiny_sim();
        let ds = Dataset::from_simulation(&sim);
        Dataset::from_parts(ds.meta.clone(), vec![0.0; 7]);
    }
}
