//! The two training losses of paper Sec. 4.3.
//!
//! - **Prediction loss** (Eqn. 8): L1 between decoded values and the
//!   HR-interpolated ground truth at the query points.
//! - **Equation loss** (Eqn. 9): L1 norm of the four Rayleigh–Bénard
//!   residuals at the query points. The space-time derivatives of the
//!   decoder outputs are exact: [`ContinuousDecoder::decode_derivs`] carries
//!   them as lanes of the same tape nodes that compute the value, and the
//!   residual formulas are `mfn_physics::residuals` run on tape columns —
//!   the one definition the solver diagnostics use on `f64`.
//!
//! With `γ > 0` a training step is therefore one six-lane decoder pass on the
//! tape — a gather, a concat, one fused node per MLP layer (the first,
//! `Graph::linear_seeded`, makes the six lanes from the one-lane input) and a
//! blend — whose value lane is the prediction of Eqn. 8; that pass is
//! where a step's time goes. What the loss differentiates is the tape's
//! choice, not this module's: on `Graph::new()` the weights and the latent,
//! on `Graph::with_frozen_params()` (test-time refinement) the latent alone.

use crate::decoder::{plan_queries, ContinuousDecoder, QueryPlan};
use mfn_autodiff::{Graph, ParamStore, Var, JET_LANES};
use mfn_data::Sample;
use mfn_physics::{residuals, PointState, RbcParams};
use mfn_tensor::Tensor;
use std::cell::RefCell;
use std::ops::{Add, Mul, Sub};

/// Which PDE residuals enter the equation loss. The paper's headline claim
/// is support for "arbitrary combinations of PDE constraints"; this is that
/// combination switch (default: all four Rayleigh-Benard equations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstraintSet {
    /// Continuity `u_x + w_z = 0` (Eqn. 3a).
    pub continuity: bool,
    /// Temperature transport (Eqn. 3b).
    pub temperature: bool,
    /// x-momentum (Eqn. 3c, x-component).
    pub momentum_x: bool,
    /// z-momentum with buoyancy (Eqn. 3c, z-component).
    pub momentum_z: bool,
}

impl ConstraintSet {
    /// All four equations (the paper's configuration).
    pub const ALL: ConstraintSet =
        ConstraintSet { continuity: true, temperature: true, momentum_x: true, momentum_z: true };

    /// Only the divergence-free constraint (the Jiang et al. 2020 spectral-
    /// projection setting the paper cites as related work).
    pub const CONTINUITY_ONLY: ConstraintSet = ConstraintSet {
        continuity: true,
        temperature: false,
        momentum_x: false,
        momentum_z: false,
    };

    /// The four switches, in the order `mfn_physics::residuals` returns its
    /// residuals.
    pub fn flags(&self) -> [bool; 4] {
        [self.continuity, self.temperature, self.momentum_x, self.momentum_z]
    }

    /// Number of active constraints.
    pub fn count(&self) -> usize {
        self.flags().into_iter().filter(|&on| on).count()
    }
}

impl Default for ConstraintSet {
    fn default() -> Self {
        ConstraintSet::ALL
    }
}

/// The one normalization of the pipeline: every model input, training
/// target and prediction is standardized with a corpus's pooled HR channel
/// statistics ([`crate::Corpus::stats`]) and restored with the same ones.
/// Datasets and training samples hold physical units; what enters the model
/// (a training batch, an `extract_patch` input, a served patch) does not.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelStats {
    /// Channel means `(T, p, u, w)`.
    pub mean: [f32; 4],
    /// Channel standard deviations (positive: [`crate::Corpus::new`]
    /// floors the variance).
    pub std: [f32; 4],
}

impl ChannelStats {
    /// The standardized value `(v − mean) / std` of physical value `v` of
    /// channel `c`.
    #[inline]
    pub fn standardize(&self, c: usize, v: f32) -> f32 {
        (v - self.mean[c]) / self.std[c]
    }

    /// The physical value `v · std + mean` of standardized value `v` of
    /// channel `c`; inverts [`ChannelStats::standardize`].
    #[inline]
    pub fn restore(&self, c: usize, v: f32) -> f32 {
        v * self.std[c] + self.mean[c]
    }

    /// Standardizes a `[.., 4, nt, nz, nx]` patch tensor in place.
    pub fn standardize_patches(&self, patches: &mut Tensor) {
        let dims = patches.dims();
        assert_eq!(dims[dims.len() - 4], 4, "patches are [.., 4, nt, nz, nx]");
        let block: usize = dims[dims.len() - 3..].iter().product();
        for (k, chunk) in patches.data_mut().chunks_exact_mut(block).enumerate() {
            for v in chunk {
                *v = self.standardize(k % 4, *v);
            }
        }
    }
}

/// Builds the plan for the samples' query points against the latent grid of
/// the stacked batch (`grid_dims = [nt, nz, nx]` of the patch).
pub fn prediction_plan(grid_dims: [usize; 3], samples: &[Sample]) -> QueryPlan {
    plan_queries(
        grid_dims,
        samples.iter().enumerate().flat_map(|(b, s)| s.query_local.iter().map(move |&q| (b, q))),
    )
}

/// Stacks the samples' ground-truth query values into `[Q, 4]`,
/// standardized with `stats`.
pub fn stack_targets(samples: &[Sample], stats: ChannelStats) -> Tensor {
    let q: usize = samples.iter().map(|s| s.query_values.len()).sum();
    let mut out = Tensor::zeros(&[q, 4]);
    let values = samples.iter().flat_map(|s| &s.query_values);
    for (row, v) in out.data_mut().chunks_exact_mut(4).zip(values) {
        row.iter_mut().zip(v).enumerate().for_each(|(c, (o, &x))| *o = stats.standardize(c, x));
    }
    out
}

/// Records the prediction loss (Eqn. 8): the L1 distance of the decoded
/// `predictions: [Q, 4]` to the samples' targets standardized with `stats`.
pub fn prediction_loss(
    g: &mut Graph,
    predictions: Var,
    samples: &[Sample],
    stats: ChannelStats,
) -> Var {
    let target = g.constant(stack_targets(samples, stats));
    g.l1_loss(predictions, target)
}

/// The physical patch extent the samples of a batch share.
///
/// # Panics
/// Panics on an empty batch or one of mixed extents (any batch from one
/// [`mfn_data::PatchSampler`] is uniform): the decoder's derivative lanes
/// are seeded with one extent per tape.
pub fn batch_extent(samples: &[Sample]) -> [f64; 3] {
    let extent = samples.first().expect("non-empty batch").extent_phys;
    for s in samples {
        let same = s.extent_phys.iter().zip(&extent).all(|(a, b)| (a - b).abs() < 1e-9);
        assert!(same, "equation loss requires a uniform patch extent per batch");
    }
    extent
}

/// A `[points, 1]` column on a tape, with the arithmetic
/// [`mfn_physics::residuals`] is written in.
#[derive(Clone, Copy)]
struct Col<'a, 'g>(&'a RefCell<&'g mut Graph>, Var);

macro_rules! col_op {
    ($op:ident, $f:ident, $rhs:ty, |$g:ident, $a:ident, $b:ident| $e:expr) => {
        impl $op<$rhs> for Col<'_, '_> {
            type Output = Self;
            fn $f(self, $b: $rhs) -> Self {
                let ($g, $a) = (&mut *self.0.borrow_mut(), self.1);
                Col(self.0, $e)
            }
        }
    };
}
col_op!(Add, add, Self, |g, a, b| g.add(a, b.1));
col_op!(Sub, sub, Self, |g, a, b| g.sub(a, b.1));
col_op!(Mul, mul, Self, |g, a, b| g.mul(a, b.1));
col_op!(Mul, mul, f64, |g, a, k| g.scale(a, k as f32));

/// Records the equation loss (Eqn. 9) on the decoder's derivative lanes
/// `lanes: [JET_LANES·Q, 4]` ([`ContinuousDecoder::decode_derivs`]). Returns
/// `(loss, residuals)`: the mean absolute residual over points × active
/// constraints, and the raw `[points, active constraints]` node it reduces,
/// for callers that read per-point residuals back.
pub fn equation_loss(
    g: &mut Graph,
    lanes: Var,
    params: RbcParams,
    stats: ChannelStats,
    constraints: ConstraintSet,
) -> (Var, Var) {
    assert!(constraints.count() > 0, "equation loss needs at least one constraint");
    let q = g.value(lanes).dims()[0] / JET_LANES;
    let tape = RefCell::new(g);
    // One [Q, 1] column per lane and channel the residuals read, in physical
    // units: values need mean and std, derivatives only the std factor.
    let mut blocks = [None; JET_LANES];
    let state = PointState::from_lanes(|lane, c| {
        let g = &mut *tape.borrow_mut();
        let block = *blocks[lane].get_or_insert_with(|| g.narrow(lanes, 0, lane * q, q));
        let col = g.narrow(block, 1, c, 1);
        let scaled = g.scale(col, stats.std[c]);
        Col(&tape, if lane == 0 { g.add_scalar(scaled, stats.mean[c]) } else { scaled })
    });
    let all = residuals(params, &state);
    let cols: Vec<Var> =
        all.iter().zip(constraints.flags()).filter_map(|(r, on)| on.then_some(r.1)).collect();
    let g = tape.into_inner();
    let residuals = if cols.len() == 1 { cols[0] } else { g.concat(&cols, 1) };
    let a = g.abs(residuals);
    (g.mean(a), residuals)
}

/// Records the PDE equation residual loss at explicit `(batch, [t, z, x])`
/// points of a patch of `extent_phys`: plan, [`ContinuousDecoder::
/// decode_derivs`], [`equation_loss`]. The points are taken as given — on a
/// patch wall or a latent-cell face as anywhere else. What test-time
/// refinement ([`crate::refine`]) descends; a training step shares its
/// decode with the prediction loss instead
/// ([`crate::MeshfreeFlowNet::loss_on_batch`]).
#[allow(clippy::too_many_arguments)]
pub fn equation_loss_at_points(
    g: &mut Graph,
    store: &ParamStore,
    decoder: &ContinuousDecoder,
    latent: Var,
    points: &[(usize, [f32; 3])],
    grid_dims: [usize; 3],
    extent_phys: [f64; 3],
    params: RbcParams,
    stats: ChannelStats,
    constraints: ConstraintSet,
) -> (Var, Var) {
    assert!(!points.is_empty(), "equation loss needs at least one point");
    let plan = plan_queries(grid_dims, points.iter().copied());
    let lanes = decoder.decode_derivs(g, store, latent, &plan, grid_dims, extent_phys);
    equation_loss(g, lanes, params, stats, constraints)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::ContinuousDecoder;
    use mfn_autodiff::{flatten_grads, Activation, Mlp};
    use mfn_tensor::Tensor;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    const GRID: [usize; 3] = [3, 4, 4];
    const EXTENT: [f64; 3] = [1.0, 0.5, 2.0];
    const IDENTITY: ChannelStats = ChannelStats { mean: [0.0; 4], std: [1.0; 4] };

    fn fake_sample(b_queries: usize, seed: u64) -> Sample {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Sample {
            lr_patch: Tensor::randn(&[4, 3, 4, 4], 1.0, &mut rng),
            query_local: (0..b_queries)
                .map(|_| {
                    [
                        rand::Rng::gen::<f32>(&mut rng),
                        rand::Rng::gen::<f32>(&mut rng),
                        rand::Rng::gen::<f32>(&mut rng),
                    ]
                })
                .collect(),
            query_values: (0..b_queries)
                .map(|_| {
                    [
                        rand::Rng::gen::<f32>(&mut rng),
                        rand::Rng::gen::<f32>(&mut rng),
                        rand::Rng::gen::<f32>(&mut rng),
                        rand::Rng::gen::<f32>(&mut rng),
                    ]
                })
                .collect(),
            origin_phys: [0.0; 3],
            extent_phys: EXTENT,
        }
    }

    fn setup_with(act: Activation) -> (ParamStore, ContinuousDecoder) {
        let mut store = ParamStore::new();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mlp = Mlp::new(&mut store, "d", &[3 + 5, 16, 8, 4], act, &mut rng);
        (store, ContinuousDecoder::new(mlp, 5))
    }

    fn setup() -> (ParamStore, ContinuousDecoder) {
        setup_with(Activation::Softplus)
    }

    fn random_latent(seed: u64, batch: usize) -> Tensor {
        Tensor::randn(&[batch, 5, 3, 4, 4], 0.5, &mut ChaCha8Rng::seed_from_u64(seed))
    }

    /// The equation loss of `samples`' query points at Ra = 1e5, Pr = 1 and
    /// identity statistics.
    fn sample_equation_loss(
        g: &mut Graph,
        store: &ParamStore,
        dec: &ContinuousDecoder,
        latent: Var,
        samples: &[Sample],
        set: ConstraintSet,
    ) -> Var {
        let plan = prediction_plan(GRID, samples);
        let lanes = dec.decode_derivs(g, store, latent, &plan, GRID, batch_extent(samples));
        equation_loss(g, lanes, RbcParams::from_ra_pr(1e5, 1.0), IDENTITY, set).0
    }

    #[test]
    fn prediction_loss_zero_for_perfect_targets() {
        let (store, dec) = setup();
        let latent = random_latent(10, 1);
        let mut s = fake_sample(16, 11);
        let plan = prediction_plan(GRID, std::slice::from_ref(&s));
        let mut g = Graph::new();
        let l = g.constant(latent);
        let pred = dec.decode(&mut g, &store, l, &plan);
        // Make targets equal to the decoder's own output.
        for (t, p) in s.query_values.iter_mut().zip(g.value(pred).data().chunks(4)) {
            t.copy_from_slice(p);
        }
        let loss = prediction_loss(&mut g, pred, &[s], IDENTITY);
        assert!(g.value(loss).item() < 1e-6);
    }

    #[test]
    fn prediction_loss_positive_and_differentiable() {
        let (store, dec) = setup();
        let samples = vec![fake_sample(8, 13), fake_sample(8, 14)];
        let mut g = Graph::new();
        let l = g.leaf_with_grad(random_latent(12, 2));
        let pred = dec.decode(&mut g, &store, l, &prediction_plan(GRID, &samples));
        let loss = prediction_loss(&mut g, pred, &samples, IDENTITY);
        assert_eq!(g.value(pred).dims(), &[16, 4]);
        assert!(g.value(loss).item() > 0.0);
        g.backward(loss);
        assert!(g.grad(l).max_abs() > 0.0);
    }

    #[test]
    fn equation_loss_finite_and_differentiable() {
        let (store, dec) = setup();
        let samples = vec![fake_sample(8, 16)];
        let mut g = Graph::new();
        let l = g.leaf_with_grad(random_latent(15, 1));
        let loss = sample_equation_loss(&mut g, &store, &dec, l, &samples, ConstraintSet::ALL);
        let v = g.value(loss).item();
        assert!(v.is_finite() && v >= 0.0, "loss {v}");
        g.backward(loss);
        assert!(g.grad(l).max_abs() > 0.0, "no gradient from equation loss");
    }

    #[test]
    fn gradcheck_equation_loss_on_walls_and_cell_faces() {
        // Reverse-mode gradient of the equation loss through the six-lane
        // nodes, with respect to the weights and the latent, against central
        // differences (accumulated in f64) of re-recorded forward passes —
        // at points exactly on the patch walls (0 and 1 per axis) and on
        // latent-cell faces (multiples of 1/2 in t, of 1/3 in z and x),
        // where a finite-difference stencil in the coordinates cannot go.
        let points: Vec<(usize, [f32; 3])> = vec![
            (0, [0.0, 0.0, 0.0]),
            (0, [1.0, 1.0, 1.0]),
            (0, [0.0, 1.0, 0.5]),
            (0, [0.5, 1.0 / 3.0, 2.0 / 3.0]),
            (0, [0.5, 0.0, 1.0]),
            (0, [0.3, 2.0 / 3.0, 0.2]),
        ];
        let stats = ChannelStats { mean: [0.1, -0.2, 0.05, 0.0], std: [1.5, 0.7, 1.2, 0.9] };
        for act in [Activation::Softplus, Activation::Tanh, Activation::Relu, Activation::Linear] {
            let (store, dec) = setup_with(act);
            let latent = random_latent(40, 1);
            let record = |g: &mut Graph, store: &ParamStore, lat: &Tensor| {
                let l = g.leaf_with_grad(lat.clone());
                let params = RbcParams::from_ra_pr(1e3, 1.0);
                let set = ConstraintSet::ALL;
                let (loss, _) = equation_loss_at_points(
                    g, store, &dec, l, &points, GRID, EXTENT, params, stats, set,
                );
                (l, loss)
            };
            let eval = |weights: &[f32], lat: &Tensor| -> f64 {
                let mut moved = store.clone();
                moved.unflatten_into(weights);
                let mut g = Graph::new();
                let (_, loss) = record(&mut g, &moved, lat);
                g.value(loss).item() as f64
            };
            let mut g = Graph::new();
            let (l, loss) = record(&mut g, &store, &latent);
            g.backward(loss);
            let dweights = flatten_grads(&g.param_grads(&store));
            let dlatent = g.grad(l).data().to_vec();
            assert!(dweights.iter().any(|v| *v != 0.0) && dlatent.iter().any(|v| *v != 0.0));

            let eps = 2e-3f32;
            let check = |what: &str, k: usize, an: f32, fd: f64| {
                let scale = 1.0 + (an as f64).abs().max(fd.abs());
                assert!(
                    (an as f64 - fd).abs() / scale < 0.05,
                    "{act:?} {what}[{k}]: analytic {an} vs fd {fd}"
                );
            };
            let weights = store.flatten();
            let n = weights.len();
            // Every layer's weight and bias: first layer, middle, head.
            for k in [0, 5, 77, n / 2, n - 40, n - 3, n - 1] {
                let (mut plus, mut minus) = (weights.clone(), weights.clone());
                plus[k] += eps;
                minus[k] -= eps;
                let fd = (eval(&plus, &latent) - eval(&minus, &latent)) / (2.0 * eps as f64);
                check("weight", k, dweights[k], fd);
            }
            let n = latent.numel();
            for k in [0, 7, 31, n / 2, n - 1] {
                let (mut plus, mut minus) = (latent.clone(), latent.clone());
                plus.data_mut()[k] += eps;
                minus.data_mut()[k] -= eps;
                let fd = (eval(&weights, &plus) - eval(&weights, &minus)) / (2.0 * eps as f64);
                check("latent", k, dlatent[k], fd);
            }
        }
    }

    #[test]
    #[should_panic(expected = "uniform patch extent")]
    fn equation_loss_rejects_mixed_extents() {
        let mut s2 = fake_sample(4, 21);
        s2.extent_phys = [9.0, 9.0, 9.0];
        batch_extent(&[fake_sample(4, 22), s2]);
    }

    #[test]
    fn constraint_subsets_change_the_loss() {
        let (store, dec) = setup();
        let latent = random_latent(30, 1);
        let samples = vec![fake_sample(8, 31)];
        let eval = |set: ConstraintSet| {
            let mut g = Graph::new();
            let l = g.constant(latent.clone());
            let loss = sample_equation_loss(&mut g, &store, &dec, l, &samples, set);
            g.value(loss).item()
        };
        let all = eval(ConstraintSet::ALL);
        let cont = eval(ConstraintSet::CONTINUITY_ONLY);
        assert!(all > 0.0 && cont > 0.0);
        assert_ne!(all, cont, "constraint selection had no effect");
        assert_eq!(ConstraintSet::ALL.count(), 4);
        assert_eq!(ConstraintSet::CONTINUITY_ONLY.count(), 1);
        assert_eq!(ConstraintSet::default(), ConstraintSet::ALL);
    }

    #[test]
    #[should_panic(expected = "at least one constraint")]
    fn empty_constraint_set_rejected() {
        let (store, dec) = setup();
        let samples = vec![fake_sample(4, 33)];
        let mut g = Graph::new();
        let l = g.constant(random_latent(32, 1));
        let none = ConstraintSet {
            continuity: false,
            temperature: false,
            momentum_x: false,
            momentum_z: false,
        };
        sample_equation_loss(&mut g, &store, &dec, l, &samples, none);
    }
}
