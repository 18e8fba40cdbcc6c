//! Patch and query-point sampling — the training-batch pipeline of Fig. 3.
//!
//! Each training sample is a fixed-size LR patch (the paper uses
//! `[t, z, x] = [4, 16, 16]`) plus a set of continuous query points inside
//! the patch with ground-truth values interpolated from the HR dataset.
//! Both the patch and the targets are standardized with the *HR* channel
//! statistics so the network always sees one consistent scale.

use crate::dataset::{Dataset, CHANNELS};
use crate::interp::sample_trilinear;
use mfn_tensor::Tensor;
use rand::Rng;

/// The shape of one training sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatchSpec {
    /// LR patch frames (paper: 4).
    pub nt: usize,
    /// LR patch rows (paper: 16).
    pub nz: usize,
    /// LR patch columns (paper: 16).
    pub nx: usize,
    /// Continuous query points per sample.
    pub queries: usize,
}

impl PatchSpec {
    /// The paper's configuration: `[4, 16, 16]` patches, 512 queries.
    pub fn paper() -> Self {
        PatchSpec { nt: 4, nz: 16, nx: 16, queries: 512 }
    }

    /// A small configuration for tests and CPU-scale experiments.
    pub fn small() -> Self {
        PatchSpec { nt: 4, nz: 8, nx: 8, queries: 128 }
    }
}

/// One training sample: LR patch, query coordinates, and supervision values.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Normalized LR patch, `[4, nt, nz, nx]`.
    pub lr_patch: Tensor,
    /// Query locations in local patch coordinates `(t, z, x) ∈ [0, 1]³`
    /// (0 = first patch vertex, 1 = last).
    pub query_local: Vec<[f32; 3]>,
    /// Normalized ground-truth `(T, p, u, w)` at each query.
    pub query_values: Vec<[f32; 4]>,
    /// Physical coordinates of patch vertex `(0,0,0)`, axis order `(t,z,x)`.
    pub origin_phys: [f64; 3],
    /// Physical extents from first to last vertex along each axis.
    pub extent_phys: [f64; 3],
}

/// Draws patches + query points from an HR/LR dataset pair.
pub struct PatchSampler<'a> {
    hr: &'a Dataset,
    lr: &'a Dataset,
    spec: PatchSpec,
}

impl<'a> PatchSampler<'a> {
    /// Creates a sampler. `hr` and `lr` must describe the same physical
    /// domain (`lr` typically from [`crate::downsample::downsample`]); both
    /// are normalized on the fly with `hr`'s channel statistics.
    ///
    /// # Panics
    /// Panics if the LR grid is smaller than the patch or domains mismatch.
    pub fn new(hr: &'a Dataset, lr: &'a Dataset, spec: PatchSpec) -> Self {
        assert!(lr.meta.nt >= spec.nt, "LR has {} frames, patch wants {}", lr.meta.nt, spec.nt);
        assert!(lr.meta.nz >= spec.nz, "LR has {} rows, patch wants {}", lr.meta.nz, spec.nz);
        assert!(lr.meta.nx >= spec.nx, "LR has {} cols, patch wants {}", lr.meta.nx, spec.nx);
        assert!((hr.meta.lx - lr.meta.lx).abs() < 1e-9, "domain lx mismatch");
        assert!(spec.queries > 0, "need at least one query");
        PatchSampler { hr, lr, spec }
    }

    /// The sample shape in use.
    pub fn spec(&self) -> PatchSpec {
        self.spec
    }

    /// The physical extent of a patch along each `(t, z, x)` axis.
    pub fn patch_extent(&self) -> [f64; 3] {
        [
            (self.spec.nt - 1) as f64 * self.lr.dt(),
            (self.spec.nz - 1) as f64 * self.lr.dz(),
            (self.spec.nx - 1) as f64 * self.lr.dx(),
        ]
    }

    /// Extracts the normalized LR patch with the given LR-grid origin.
    pub fn patch_at(&self, origin: [usize; 3]) -> Sample {
        let [t0, z0, x0] = origin;
        let s = self.spec;
        assert!(t0 + s.nt <= self.lr.meta.nt, "patch t out of range");
        assert!(z0 + s.nz <= self.lr.meta.nz, "patch z out of range");
        assert!(x0 + s.nx <= self.lr.meta.nx, "patch x out of range");
        let mean = self.hr.meta.channel_mean;
        let std = self.hr.meta.channel_std;
        let mut buf = vec![0.0f32; CHANNELS * s.nt * s.nz * s.nx];
        for c in 0..CHANNELS {
            let sd = std[c].max(1e-8);
            for ft in 0..s.nt {
                for j in 0..s.nz {
                    for i in 0..s.nx {
                        let v = self.lr.at(t0 + ft, c, z0 + j, x0 + i);
                        buf[((c * s.nt + ft) * s.nz + j) * s.nx + i] = (v - mean[c]) / sd;
                    }
                }
            }
        }
        Sample {
            lr_patch: Tensor::from_vec(buf, &[CHANNELS, s.nt, s.nz, s.nx]),
            query_local: Vec::new(),
            query_values: Vec::new(),
            origin_phys: [
                t0 as f64 * self.lr.dt(),
                z0 as f64 * self.lr.dz(),
                x0 as f64 * self.lr.dx(),
            ],
            extent_phys: self.patch_extent(),
        }
    }

    /// Normalized HR ground truth at a physical `(t, z, x)` point.
    pub fn hr_value(&self, t: f64, z: f64, x: f64) -> [f32; 4] {
        let raw = sample_trilinear(self.hr, t, z, x);
        let mut out = [0.0f32; 4];
        for c in 0..CHANNELS {
            out[c] =
                (raw[c] - self.hr.meta.channel_mean[c]) / self.hr.meta.channel_std[c].max(1e-8);
        }
        out
    }

    /// Draws one random training sample: uniform patch origin, uniform
    /// continuous query points, HR-interpolated targets.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> Sample {
        let s = self.spec;
        let origin = [
            rng.gen_range(0..=self.lr.meta.nt - s.nt),
            rng.gen_range(0..=self.lr.meta.nz - s.nz),
            rng.gen_range(0..=self.lr.meta.nx - s.nx),
        ];
        let mut sample = self.patch_at(origin);
        sample.query_local.reserve(s.queries);
        sample.query_values.reserve(s.queries);
        for _ in 0..s.queries {
            let local = [rng.gen::<f32>(), rng.gen::<f32>(), rng.gen::<f32>()];
            let t = sample.origin_phys[0] + local[0] as f64 * sample.extent_phys[0];
            let z = sample.origin_phys[1] + local[1] as f64 * sample.extent_phys[1];
            let x = sample.origin_phys[2] + local[2] as f64 * sample.extent_phys[2];
            sample.query_local.push(local);
            sample.query_values.push(self.hr_value(t, z, x));
        }
        sample
    }

    /// Patch origins whose union of cells covers the whole LR grid
    /// (consecutive patches share a boundary vertex). Used for full-domain
    /// super-resolution at evaluation time.
    pub fn covering_origins(&self) -> Vec<[usize; 3]> {
        let s = self.spec;
        let ts = covering_axis(self.lr.meta.nt, s.nt);
        let zs = covering_axis(self.lr.meta.nz, s.nz);
        let xs = covering_axis(self.lr.meta.nx, s.nx);
        let mut out = Vec::with_capacity(ts.len() * zs.len() * xs.len());
        for &t in &ts {
            for &z in &zs {
                for &x in &xs {
                    out.push([t, z, x]);
                }
            }
        }
        out
    }
}

/// Per-axis patch origins covering `[0, len)` with patches of `p` vertices:
/// stride `p − 1` (consecutive patches share a boundary vertex) plus the
/// final origin `len − p` when the stride does not land on it. Origins are
/// strictly increasing, in-bounds (`o + p ≤ len`), start at 0 and end at
/// `len − p`, with every gap `< p` — the coverage invariants the property
/// tests pin.
///
/// # Panics
/// Panics if `len < p` (no origin can fit) or `p == 0`.
pub fn covering_axis(len: usize, p: usize) -> Vec<usize> {
    assert!(p > 0, "patch axis must be at least 1 vertex");
    assert!(len >= p, "axis of {len} cannot fit patch of {p}");
    let stride = (p - 1).max(1);
    let mut v: Vec<usize> = (0..).map(|k| k * stride).take_while(|&o| o + p <= len).collect();
    let last = len - p;
    if v.last() != Some(&last) {
        v.push(last);
    }
    v
}

/// A mini-batch: stacked patches plus per-sample query data.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Stacked LR patches `[N, 4, nt, nz, nx]`.
    pub input: Tensor,
    /// The individual samples (queries and geometry).
    pub samples: Vec<Sample>,
}

/// Stacks `n` random samples into a batch.
pub fn make_batch<R: Rng>(sampler: &PatchSampler<'_>, n: usize, rng: &mut R) -> Batch {
    assert!(n > 0);
    let samples: Vec<Sample> = (0..n).map(|_| sampler.sample(rng)).collect();
    let input = stack_patches(&samples);
    Batch { input, samples }
}

/// Stacks the patches of pre-built samples into `[N, 4, nt, nz, nx]`.
pub fn stack_patches(samples: &[Sample]) -> Tensor {
    assert!(!samples.is_empty());
    let dims = samples[0].lr_patch.dims().to_vec();
    let per = samples[0].lr_patch.numel();
    let mut buf = Vec::with_capacity(samples.len() * per);
    for s in samples {
        assert_eq!(s.lr_patch.dims(), &dims[..], "inconsistent patch shapes");
        buf.extend_from_slice(s.lr_patch.data());
    }
    let mut full = vec![samples.len()];
    full.extend_from_slice(&dims);
    Tensor::from_vec(buf, &full)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::CH_T;
    use crate::downsample::downsample;
    use mfn_solver::{simulate, RbcConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn pair() -> (Dataset, Dataset) {
        let sim = simulate(
            &RbcConfig { nx: 32, nz: 17, ra: 1e5, dt_max: 2e-3, ..Default::default() },
            0.2,
            17,
        );
        let hr = Dataset::from_simulation(&sim);
        let lr = downsample(&hr, 2, 2);
        (hr, lr)
    }

    fn spec() -> PatchSpec {
        PatchSpec { nt: 4, nz: 6, nx: 8, queries: 32 }
    }

    #[test]
    fn sample_shapes_and_ranges() {
        let (hr, lr) = pair();
        let sampler = PatchSampler::new(&hr, &lr, spec());
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let s = sampler.sample(&mut rng);
        assert_eq!(s.lr_patch.dims(), &[4, 4, 6, 8]);
        assert_eq!(s.query_local.len(), 32);
        assert_eq!(s.query_values.len(), 32);
        for q in &s.query_local {
            for &v in q {
                assert!((0.0..=1.0).contains(&v));
            }
        }
        for ext in s.extent_phys {
            assert!(ext > 0.0);
        }
    }

    #[test]
    fn patch_values_match_lr_grid() {
        let (hr, lr) = pair();
        let sampler = PatchSampler::new(&hr, &lr, spec());
        let s = sampler.patch_at([1, 2, 3]);
        let mean = hr.meta.channel_mean[CH_T];
        let std = hr.meta.channel_std[CH_T].max(1e-8);
        for ft in 0..4 {
            for j in 0..6 {
                for i in 0..8 {
                    let expect = (lr.at(1 + ft, CH_T, 2 + j, 3 + i) - mean) / std;
                    let got = s.lr_patch.at(&[CH_T, ft, j, i]);
                    assert!((got - expect).abs() < 1e-6);
                }
            }
        }
    }

    #[test]
    fn queries_at_vertices_match_lr_values() {
        // A query at a patch vertex lands on an LR point, which is an HR grid
        // point too (strided downsampling) — so GT equals the LR value.
        let (hr, lr) = pair();
        let sampler = PatchSampler::new(&hr, &lr, spec());
        let s = sampler.patch_at([0, 0, 0]);
        // Vertex (1, 2, 3) in local coords:
        let local = [1.0 / 3.0, 2.0 / 5.0, 3.0 / 7.0];
        let t = s.origin_phys[0] + local[0] * s.extent_phys[0];
        let z = s.origin_phys[1] + local[1] * s.extent_phys[1];
        let x = s.origin_phys[2] + local[2] * s.extent_phys[2];
        let gt = sampler.hr_value(t, z, x);
        let patch_v = s.lr_patch.at(&[CH_T, 1, 2, 3]);
        assert!((gt[CH_T] - patch_v).abs() < 1e-4, "{} vs {patch_v}", gt[CH_T]);
    }

    #[test]
    fn covering_origins_cover_everything() {
        let (hr, lr) = pair();
        let sampler = PatchSampler::new(&hr, &lr, spec());
        let origins = sampler.covering_origins();
        assert!(!origins.is_empty());
        // Every LR grid point must fall inside at least one patch.
        let s = spec();
        for t in 0..lr.meta.nt {
            for z in 0..lr.meta.nz {
                for x in 0..lr.meta.nx {
                    let covered = origins.iter().any(|o| {
                        t >= o[0]
                            && t < o[0] + s.nt
                            && z >= o[1]
                            && z < o[1] + s.nz
                            && x >= o[2]
                            && x < o[2] + s.nx
                    });
                    assert!(covered, "LR point ({t},{z},{x}) uncovered");
                }
            }
        }
    }

    #[test]
    fn batches_stack_correctly() {
        let (hr, lr) = pair();
        let sampler = PatchSampler::new(&hr, &lr, spec());
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let b = make_batch(&sampler, 3, &mut rng);
        assert_eq!(b.input.dims(), &[3, 4, 4, 6, 8]);
        assert_eq!(b.samples.len(), 3);
        // Row 1 of the batch equals sample 1's patch.
        let per = b.samples[1].lr_patch.numel();
        assert_eq!(&b.input.data()[per..2 * per], b.samples[1].lr_patch.data());
    }

    #[test]
    fn deterministic_with_seed() {
        let (hr, lr) = pair();
        let sampler = PatchSampler::new(&hr, &lr, spec());
        let s1 = sampler.sample(&mut ChaCha8Rng::seed_from_u64(7));
        let s2 = sampler.sample(&mut ChaCha8Rng::seed_from_u64(7));
        assert_eq!(s1.lr_patch, s2.lr_patch);
        assert_eq!(s1.query_local, s2.query_local);
    }

    #[test]
    #[should_panic(expected = "patch wants")]
    fn rejects_oversized_patch() {
        let (hr, lr) = pair();
        PatchSampler::new(&hr, &lr, PatchSpec { nt: 100, nz: 4, nx: 4, queries: 1 });
    }

    /// Covering origins on a domain the patch does not evenly divide: the
    /// forced final origin keeps coverage complete without going out of
    /// bounds (satellite audit of `covering_origins`/`patch_at`).
    #[test]
    fn covering_origins_on_non_dividing_domain_stay_in_bounds() {
        let (hr, lr) = pair();
        // nz = 9 after downsample; nz patch 7 gives stride 6 with a forced
        // final origin at 2 — an overlap of 5 vertices.
        let sampler = PatchSampler::new(&hr, &lr, PatchSpec { nt: 3, nz: 7, nx: 5, queries: 4 });
        for o in sampler.covering_origins() {
            // patch_at asserts in-bounds internally; a panic here is the bug.
            let s = sampler.patch_at(o);
            assert_eq!(s.lr_patch.dims(), &[4, 3, 7, 5]);
        }
    }
}

#[cfg(test)]
mod covering_properties {
    use super::covering_axis;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// For any axis length and patch size that fits, the covering
        /// origins start at 0, end at `len − p`, stay strictly increasing
        /// and in bounds, and never leave a stride greater than `p` —
        /// i.e. every grid point lies inside at least one patch (a patch
        /// at `o` covers `o..o+p`, so the next origin at most `o + p`
        /// keeps coverage contiguous).
        #[test]
        fn covering_axis_is_complete_and_in_bounds(p in 1usize..32, extra in 0usize..200) {
            let len = p + extra;
            let v = covering_axis(len, p);
            prop_assert!(!v.is_empty());
            prop_assert_eq!(v[0], 0);
            prop_assert_eq!(*v.last().expect("nonempty") + p, len);
            for w in v.windows(2) {
                prop_assert!(w[1] > w[0], "origins must be strictly increasing: {:?}", v);
                prop_assert!(w[1] - w[0] <= p, "stride > patch leaves vertices uncovered: {:?}", v);
            }
            for &o in &v {
                prop_assert!(o + p <= len, "origin {} out of bounds for len {}", o, len);
            }
        }
    }
}
