//! Patch and query-point sampling — the training-batch pipeline of Fig. 3.
//!
//! Each training sample is a fixed-size LR patch (the paper uses
//! `[t, z, x] = [4, 16, 16]`) plus a set of continuous query points inside
//! the patch with ground-truth values interpolated from the HR dataset.
//! Both are in physical units: the model standardizes them with the
//! corpus's statistics (`mfn_core::ChannelStats`), the one normalization.

use crate::dataset::{Dataset, CHANNELS};
use crate::interp::sample_trilinear;
use mfn_tensor::{workspace, Tensor};
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
    /// LR patch in physical units, `[4, nt, nz, nx]`.
    pub lr_patch: Tensor,
    /// Query locations in local patch coordinates `(t, z, x) ∈ [0, 1]³`
    /// (0 = first patch vertex, 1 = last).
    pub query_local: Vec<[f32; 3]>,
    /// Ground-truth `(T, p, u, w)` at each query, in physical units.
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
    /// domain (`lr` typically from [`crate::downsample::downsample`]).
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

    /// Extracts the LR patch with the given LR-grid origin.
    pub fn patch_at(&self, origin: [usize; 3]) -> Sample {
        let [t0, z0, x0] = origin;
        let s = self.spec;
        let lr_patch = raw_patch(self.lr, origin, s);
        Sample {
            lr_patch,
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
            sample.query_values.push(sample_trilinear(self.hr, t, z, x));
        }
        sample
    }
}

/// The `[4, nt, nz, nx]` channel-major tensor, in physical units, of the
/// `spec`-sized patch of `lr` at the grid `origin` — the one patch
/// extraction that training samples and inference patches share.
///
/// # Panics
/// Panics if the patch does not fit inside the grid.
pub fn raw_patch(lr: &Dataset, origin: [usize; 3], spec: PatchSpec) -> Tensor {
    let [t0, z0, x0] = origin;
    assert!(t0 + spec.nt <= lr.meta.nt, "patch t out of range");
    assert!(z0 + spec.nz <= lr.meta.nz, "patch z out of range");
    assert!(x0 + spec.nx <= lr.meta.nx, "patch x out of range");
    let mut buf = workspace::take_scratch(CHANNELS * spec.nt * spec.nz * spec.nx);
    let mut rows = buf.chunks_exact_mut(spec.nx);
    for c in 0..CHANNELS {
        for f in t0..t0 + spec.nt {
            for (j, dst) in (z0..z0 + spec.nz).zip(rows.by_ref()) {
                let row = lr.index(f, c, j, x0);
                dst.copy_from_slice(&lr.data[row..row + spec.nx]);
            }
        }
    }
    Tensor::from_guard(buf, &[CHANNELS, spec.nt, spec.nz, spec.nx])
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
    /// Stacked LR patches `[N, 4, nt, nz, nx]`, in physical units.
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
    let mut buf = workspace::take_scratch(samples.len() * per);
    for (dst, s) in buf.chunks_exact_mut(per).zip(samples) {
        assert_eq!(s.lr_patch.dims(), &dims[..], "inconsistent patch shapes");
        dst.copy_from_slice(s.lr_patch.data());
    }
    let mut full = vec![samples.len()];
    full.extend_from_slice(&dims);
    Tensor::from_guard(buf, &full)
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
        for c in 0..CHANNELS {
            for ft in 0..4 {
                for j in 0..6 {
                    for i in 0..8 {
                        let got = s.lr_patch.at(&[c, ft, j, i]);
                        assert_eq!(got, lr.at(1 + ft, c, 2 + j, 3 + i));
                    }
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
        let gt = sample_trilinear(&hr, t, z, x);
        let patch_v = s.lr_patch.at(&[CH_T, 1, 2, 3]);
        assert!((gt[CH_T] - patch_v).abs() < 1e-5, "{} vs {patch_v}", gt[CH_T]);
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
