//! The two training losses of paper Sec. 4.3.
//!
//! - **Prediction loss** (Eqn. 8): L1 between decoded values and the
//!   HR-interpolated ground truth at the query points.
//! - **Equation loss** (Eqn. 9): L1 norm of the four Rayleigh–Bénard
//!   residuals at the query points. The space-time derivatives of the decoder
//!   outputs are computed with central finite-difference stencils of extra
//!   decoder evaluations — each stencil point is an ordinary decoder query on
//!   the tape, so `∂Loss/∂θ` flows exactly through the stencil (see DESIGN.md
//!   for why this substitutes for the paper's autograd-through-inputs, and
//!   `decoder::tests` for the jet-based validation of the stencil).
//!
//! One training step is therefore eight decoder passes on the tape (one for
//! Eqn. 8, seven stencil components for Eqn. 9), each a gather, a concat, one
//! fused `Graph::linear` node per MLP layer and a blend; that path is where a
//! step's time goes. What the loss differentiates is the tape's choice, not
//! this module's: on `Graph::new()` the weights and the latent, on
//! `Graph::with_frozen_params()` (test-time refinement) the latent alone.

use crate::decoder::{plan_queries, ContinuousDecoder, QueryPlan};
use mfn_autodiff::{Graph, ParamStore, Var};
use mfn_data::Sample;
use mfn_tensor::Tensor;

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

    /// Number of active constraints.
    pub fn count(&self) -> usize {
        usize::from(self.continuity)
            + usize::from(self.temperature)
            + usize::from(self.momentum_x)
            + usize::from(self.momentum_z)
    }
}

impl Default for ConstraintSet {
    fn default() -> Self {
        ConstraintSet::ALL
    }
}

/// Per-channel normalization statistics (copied from the HR dataset).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelStats {
    /// Channel means `(T, p, u, w)`.
    pub mean: [f32; 4],
    /// Channel standard deviations.
    pub std: [f32; 4],
}

impl ChannelStats {
    /// Reads the statistics recorded in a dataset's metadata.
    pub fn from_meta(meta: &mfn_data::DatasetMeta) -> Self {
        ChannelStats {
            mean: meta.channel_mean,
            std: {
                let mut s = meta.channel_std;
                for v in s.iter_mut() {
                    *v = v.max(1e-8);
                }
                s
            },
        }
    }
}

/// Dimensionless PDE coefficients in `f32` (tape precision).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RbcParamsF32 {
    /// `P* = (Ra·Pr)^{-1/2}`.
    pub p_star: f32,
    /// `R* = (Ra/Pr)^{-1/2}`.
    pub r_star: f32,
}

impl RbcParamsF32 {
    /// Builds from Rayleigh and Prandtl numbers.
    pub fn from_ra_pr(ra: f64, pr: f64) -> Self {
        RbcParamsF32 { p_star: (1.0 / (ra * pr).sqrt()) as f32, r_star: ((pr / ra).sqrt()) as f32 }
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

/// Stacks the samples' ground-truth query values into `[Q, 4]`.
pub fn stack_targets(samples: &[Sample]) -> Tensor {
    let q: usize = samples.iter().map(|s| s.query_values.len()).sum();
    let mut buf = Vec::with_capacity(q * 4);
    for s in samples {
        for v in &s.query_values {
            buf.extend_from_slice(v);
        }
    }
    Tensor::from_vec(buf, &[q, 4])
}

/// Records the prediction loss (Eqn. 8): decode at the query points and take
/// the L1 distance to the targets. Returns `(loss, predictions)`.
pub fn prediction_loss(
    g: &mut Graph,
    store: &ParamStore,
    decoder: &ContinuousDecoder,
    latent: Var,
    samples: &[Sample],
    grid_dims: [usize; 3],
) -> (Var, Var) {
    let plan = prediction_plan(grid_dims, samples);
    let pred = decoder.decode(g, store, latent, &plan);
    let target = g.constant(stack_targets(samples));
    (g.l1_loss(pred, target), pred)
}

/// The seven stencil components, in plan order.
const STENCIL: [[f32; 3]; 7] = [
    [0.0, 0.0, 0.0],  // center
    [1.0, 0.0, 0.0],  // t+
    [-1.0, 0.0, 0.0], // t-
    [0.0, 1.0, 0.0],  // z+
    [0.0, -1.0, 0.0], // z-
    [0.0, 0.0, 1.0],  // x+
    [0.0, 0.0, -1.0], // x-
];

/// Records the equation loss (Eqn. 9). Returns `(loss, residuals)` — the
/// second is the raw `[points, active constraints]` node the loss reduces,
/// for callers that read per-point residuals back.
///
/// All samples in the batch must share the same physical patch extent (true
/// for any batch from one [`mfn_data::PatchSampler`]). `h_local` is the
/// stencil step in local coordinates; query centers are pulled into
/// `[h, 1-h]` so the stencil stays inside the patch.
#[allow(clippy::too_many_arguments)]
pub fn equation_loss(
    g: &mut Graph,
    store: &ParamStore,
    decoder: &ContinuousDecoder,
    latent: Var,
    samples: &[Sample],
    grid_dims: [usize; 3],
    params: RbcParamsF32,
    stats: ChannelStats,
    h_local: f32,
    constraints: ConstraintSet,
) -> (Var, Var) {
    let extent = samples.first().expect("non-empty batch").extent_phys;
    for s in samples {
        let same = s.extent_phys.iter().zip(&extent).all(|(a, b)| (a - b).abs() < 1e-9);
        assert!(same, "equation loss requires a uniform patch extent per batch");
    }
    let points: Vec<(usize, [f32; 3])> = samples
        .iter()
        .enumerate()
        .flat_map(|(b, s)| s.query_local.iter().map(move |&q| (b, q)))
        .collect();
    equation_loss_at_points(
        g,
        store,
        decoder,
        latent,
        &points,
        grid_dims,
        extent,
        params,
        stats,
        h_local,
        constraints,
    )
}

/// Records the PDE equation residual loss at explicit `(batch, [t, z, x])`
/// points — [`equation_loss`] without the [`Sample`]s, for the serving-side
/// test-time refinement path ([`crate::refine`]), which owns its query
/// points directly.
///
/// Points are clamped into `[h, 1-h]` per axis so the stencil stays inside
/// the patch; `extent_phys` converts the local stencil step to physical
/// units. Returns `(loss, residuals)`: the mean absolute residual over
/// points × active constraints, and the raw `[points, active constraints]`
/// residual node it reduces.
#[allow(clippy::too_many_arguments)]
pub fn equation_loss_at_points(
    g: &mut Graph,
    store: &ParamStore,
    decoder: &ContinuousDecoder,
    latent: Var,
    points: &[(usize, [f32; 3])],
    grid_dims: [usize; 3],
    extent_phys: [f64; 3],
    params: RbcParamsF32,
    stats: ChannelStats,
    h_local: f32,
    constraints: ConstraintSet,
) -> (Var, Var) {
    assert!(h_local > 0.0 && h_local < 0.5, "stencil step out of range");
    assert!(constraints.count() > 0, "equation loss needs at least one constraint");
    assert!(!points.is_empty(), "equation loss needs at least one point");
    // Physical step sizes per axis.
    let h_phys: [f32; 3] = [
        (h_local as f64 * extent_phys[0]) as f32,
        (h_local as f64 * extent_phys[1]) as f32,
        (h_local as f64 * extent_phys[2]) as f32,
    ];

    // Decode the 7 stencil components. Centers are clamped inward.
    let centers: Vec<(usize, [f32; 3])> = points
        .iter()
        .map(|&(b, q)| {
            (
                b,
                [
                    q[0].clamp(h_local, 1.0 - h_local),
                    q[1].clamp(h_local, 1.0 - h_local),
                    q[2].clamp(h_local, 1.0 - h_local),
                ],
            )
        })
        .collect();
    let mut comp: Vec<Var> = Vec::with_capacity(7);
    for off in STENCIL {
        let pts = centers.iter().map(|&(b, c)| {
            (b, [c[0] + off[0] * h_local, c[1] + off[1] * h_local, c[2] + off[2] * h_local])
        });
        let plan = plan_queries(grid_dims, pts);
        comp.push(decoder.decode(g, store, latent, &plan));
    }
    let [v0, tp, tm, zp, zm, xp, xm] =
        [comp[0], comp[1], comp[2], comp[3], comp[4], comp[5], comp[6]];

    // First and second physical derivatives per axis (all channels at once).
    let d1 = |g: &mut Graph, p: Var, m: Var, h: f32| {
        let d = g.sub(p, m);
        g.scale(d, 0.5 / h)
    };
    let d2 = |g: &mut Graph, p: Var, m: Var, c: Var, h: f32| {
        let s = g.add(p, m);
        let c2 = g.scale(c, 2.0);
        let d = g.sub(s, c2);
        g.scale(d, 1.0 / (h * h))
    };
    let dt = d1(g, tp, tm, h_phys[0]);
    let dz = d1(g, zp, zm, h_phys[1]);
    let dx = d1(g, xp, xm, h_phys[2]);
    let dzz = d2(g, zp, zm, v0, h_phys[1]);
    let dxx = d2(g, xp, xm, v0, h_phys[2]);

    // Channel extraction + denormalization. Values need mean+std; derivatives
    // only the std factor.
    let val = |g: &mut Graph, v: Var, c: usize| {
        let col = g.slice_cols(v, c, 1);
        let scaled = g.scale(col, stats.std[c]);
        g.add_scalar(scaled, stats.mean[c])
    };
    let der = |g: &mut Graph, v: Var, c: usize| {
        let col = g.slice_cols(v, c, 1);
        g.scale(col, stats.std[c])
    };
    // Channels: 0=T, 1=p, 2=u, 3=w.
    let t_v = val(g, v0, 0);
    let u_v = val(g, v0, 2);
    let w_v = val(g, v0, 3);
    let t_t = der(g, dt, 0);
    let t_x = der(g, dx, 0);
    let t_z = der(g, dz, 0);
    let t_xx = der(g, dxx, 0);
    let t_zz = der(g, dzz, 0);
    let p_x = der(g, dx, 1);
    let p_z = der(g, dz, 1);
    let u_t = der(g, dt, 2);
    let u_x = der(g, dx, 2);
    let u_z = der(g, dz, 2);
    let u_xx = der(g, dxx, 2);
    let u_zz = der(g, dzz, 2);
    let w_t = der(g, dt, 3);
    let w_x = der(g, dx, 3);
    let w_z = der(g, dz, 3);
    let w_xx = der(g, dxx, 3);
    let w_zz = der(g, dzz, 3);

    let mut residual_cols: Vec<Var> = Vec::with_capacity(constraints.count());
    // r_c = u_x + w_z
    if constraints.continuity {
        residual_cols.push(g.add(u_x, w_z));
    }
    // r_T = T_t + u T_x + w T_z − P*(T_xx + T_zz)
    if constraints.temperature {
        let a = g.mul(u_v, t_x);
        let b = g.mul(w_v, t_z);
        let adv = g.add(a, b);
        let s = g.add(t_t, adv);
        let lap = g.add(t_xx, t_zz);
        let diff = g.scale(lap, params.p_star);
        residual_cols.push(g.sub(s, diff));
    }
    // r_u = u_t + u u_x + w u_z + p_x − R*(u_xx + u_zz)
    if constraints.momentum_x {
        let a = g.mul(u_v, u_x);
        let b = g.mul(w_v, u_z);
        let adv = g.add(a, b);
        let s1 = g.add(u_t, adv);
        let s2 = g.add(s1, p_x);
        let lap = g.add(u_xx, u_zz);
        let diff = g.scale(lap, params.r_star);
        residual_cols.push(g.sub(s2, diff));
    }
    // r_w = w_t + u w_x + w w_z + p_z − T − R*(w_xx + w_zz)
    if constraints.momentum_z {
        let a = g.mul(u_v, w_x);
        let b = g.mul(w_v, w_z);
        let adv = g.add(a, b);
        let s1 = g.add(w_t, adv);
        let s2 = g.add(s1, p_z);
        let s3 = g.sub(s2, t_v);
        let lap = g.add(w_xx, w_zz);
        let diff = g.scale(lap, params.r_star);
        residual_cols.push(g.sub(s3, diff));
    }
    let residuals =
        if residual_cols.len() == 1 { residual_cols[0] } else { g.concat(&residual_cols, 1) };
    let a = g.abs(residuals);
    (g.mean(a), residuals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::ContinuousDecoder;
    use mfn_autodiff::{Activation, Mlp};
    use mfn_tensor::Tensor;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

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
            extent_phys: [1.0, 0.5, 2.0],
        }
    }

    fn setup() -> (ParamStore, ContinuousDecoder) {
        let mut store = ParamStore::new();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mlp = Mlp::new(&mut store, "d", &[3 + 5, 16, 8, 4], Activation::Softplus, &mut rng);
        (store, ContinuousDecoder::new(mlp, 5))
    }

    fn default_stats() -> ChannelStats {
        ChannelStats { mean: [0.0; 4], std: [1.0; 4] }
    }

    #[test]
    fn prediction_loss_zero_for_perfect_targets() {
        let (store, dec) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let latent = Tensor::randn(&[1, 5, 3, 4, 4], 0.5, &mut rng);
        let mut s = fake_sample(16, 11);
        // Make targets equal to the decoder's own output.
        let plan = prediction_plan([3, 4, 4], std::slice::from_ref(&s));
        let mut g = Graph::new();
        let l = g.constant(latent.clone());
        let pred = dec.decode(&mut g, &store, l, &plan);
        let pv = g.value(pred).clone();
        for (q, t) in s.query_values.iter_mut().enumerate() {
            for (c, tc) in t.iter_mut().enumerate() {
                *tc = pv.data()[q * 4 + c];
            }
        }
        let mut g = Graph::new();
        let l = g.constant(latent);
        let (loss, _) = prediction_loss(&mut g, &store, &dec, l, &[s], [3, 4, 4]);
        assert!(g.value(loss).item() < 1e-6);
    }

    #[test]
    fn prediction_loss_positive_and_differentiable() {
        let (store, dec) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let latent = Tensor::randn(&[2, 5, 3, 4, 4], 0.5, &mut rng);
        let samples = vec![fake_sample(8, 13), fake_sample(8, 14)];
        let mut g = Graph::new();
        let l = g.leaf_with_grad(latent);
        let (loss, pred) = prediction_loss(&mut g, &store, &dec, l, &samples, [3, 4, 4]);
        assert_eq!(g.value(pred).dims(), &[16, 4]);
        assert!(g.value(loss).item() > 0.0);
        g.backward(loss);
        assert!(g.grad(l).max_abs() > 0.0);
    }

    #[test]
    fn equation_loss_finite_and_differentiable() {
        let (store, dec) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(15);
        let latent = Tensor::randn(&[1, 5, 3, 4, 4], 0.5, &mut rng);
        let samples = vec![fake_sample(8, 16)];
        let params = RbcParamsF32::from_ra_pr(1e5, 1.0);
        let mut g = Graph::new();
        let l = g.leaf_with_grad(latent);
        let (loss, _) = equation_loss(
            &mut g,
            &store,
            &dec,
            l,
            &samples,
            [3, 4, 4],
            params,
            default_stats(),
            0.05,
            ConstraintSet::ALL,
        );
        let v = g.value(loss).item();
        assert!(v.is_finite() && v >= 0.0, "loss {v}");
        g.backward(loss);
        assert!(g.grad(l).max_abs() > 0.0, "no gradient from equation loss");
    }

    #[test]
    fn equation_loss_matches_jet_residuals() {
        // The FD-stencil residual on the tape should agree with the exact
        // jet-computed residual at the same (clamped) points.
        let (store, dec) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let latent = Tensor::randn(&[1, 5, 3, 4, 4], 0.5, &mut rng);
        let mut s = fake_sample(6, 18);
        let h = 0.02f32;
        for q in s.query_local.iter_mut() {
            for qa in q.iter_mut() {
                *qa = qa.clamp(h, 1.0 - h);
            }
        }
        let params = RbcParamsF32::from_ra_pr(1e5, 1.0);
        let stats = default_stats();
        let mut g = Graph::new();
        let l = g.constant(latent.clone());
        let (loss, _) = equation_loss(
            &mut g,
            &store,
            &dec,
            l,
            std::slice::from_ref(&s),
            [3, 4, 4],
            params,
            stats,
            h,
            ConstraintSet::ALL,
        );
        let tape_loss = g.value(loss).item() as f64;

        // Jet-based residual mean for the same points.
        let mut acc = 0.0f64;
        for q in &s.query_local {
            let jets = dec.decode_jet(&store, &latent, 0, *q, s.extent_phys);
            let st = mfn_physics::PointState {
                t: jets[0].v as f64,
                p_x: jets[1].d[2] as f64,
                p_z: jets[1].d[1] as f64,
                u: jets[2].v as f64,
                w: jets[3].v as f64,
                t_t: jets[0].d[0] as f64,
                t_x: jets[0].d[2] as f64,
                t_z: jets[0].d[1] as f64,
                t_xx: jets[0].dd[2] as f64,
                t_zz: jets[0].dd[1] as f64,
                u_t: jets[2].d[0] as f64,
                u_x: jets[2].d[2] as f64,
                u_z: jets[2].d[1] as f64,
                u_xx: jets[2].dd[2] as f64,
                u_zz: jets[2].dd[1] as f64,
                w_t: jets[3].d[0] as f64,
                w_x: jets[3].d[2] as f64,
                w_z: jets[3].d[1] as f64,
                w_xx: jets[3].dd[2] as f64,
                w_zz: jets[3].dd[1] as f64,
            };
            let r = mfn_physics::residuals(mfn_physics::RbcParams::from_ra_pr(1e5, 1.0), &st);
            acc += r.iter().map(|v| v.abs()).sum::<f64>();
        }
        let jet_loss = acc / (s.query_local.len() * 4) as f64;
        assert!(
            (tape_loss - jet_loss).abs() < 0.1 * (1.0 + jet_loss),
            "tape {tape_loss} vs jet {jet_loss}"
        );
    }

    #[test]
    fn gradcheck_equation_loss_at_wall_adjacent_points() {
        // Query points on the domain walls exercise the clamped stencil
        // rows (centers pulled to [h, 1−h], so one side of the stencil sits
        // right on the boundary). Check the analytic latent gradient against
        // central finite differences there — only interior points were
        // covered before.
        let (store, dec) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(40);
        let latent = Tensor::randn(&[1, 5, 3, 4, 4], 0.5, &mut rng);
        let points: Vec<(usize, [f32; 3])> = vec![
            (0, [0.0, 0.0, 0.0]),
            (0, [1.0, 1.0, 1.0]),
            (0, [0.0, 1.0, 0.5]),
            (0, [0.5, 0.0, 1.0]),
        ];
        let params = RbcParamsF32::from_ra_pr(1e5, 1.0);
        let extent = [1.0, 0.5, 2.0];
        let eval = |lat: &Tensor| -> f64 {
            let mut g = Graph::new();
            let l = g.constant(lat.clone());
            let (loss, _) = equation_loss_at_points(
                &mut g,
                &store,
                &dec,
                l,
                &points,
                [3, 4, 4],
                extent,
                params,
                default_stats(),
                0.05,
                ConstraintSet::ALL,
            );
            g.value(loss).item() as f64
        };
        let mut g = Graph::new();
        let l = g.leaf_with_grad(latent.clone());
        let (loss, _) = equation_loss_at_points(
            &mut g,
            &store,
            &dec,
            l,
            &points,
            [3, 4, 4],
            extent,
            params,
            default_stats(),
            0.05,
            ConstraintSet::ALL,
        );
        g.backward(loss);
        let analytic = g.grad(l).clone();
        let eps = 1e-2f32;
        let n = latent.data().len();
        for &k in &[0usize, 7, 31, n / 2, n - 1] {
            let mut plus = latent.clone();
            plus.data_mut()[k] += eps;
            let mut minus = latent.clone();
            minus.data_mut()[k] -= eps;
            let fd = (eval(&plus) - eval(&minus)) / (2.0 * eps as f64);
            let an = analytic.data()[k] as f64;
            let scale = 1.0 + an.abs().max(fd.abs());
            assert!(
                (an - fd).abs() / scale < 0.05,
                "latent[{k}]: analytic {an} vs fd {fd} at wall-adjacent points"
            );
        }
    }

    #[test]
    #[should_panic(expected = "uniform patch extent")]
    fn equation_loss_rejects_mixed_extents() {
        let (store, dec) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(20);
        let latent = Tensor::randn(&[2, 5, 3, 4, 4], 0.5, &mut rng);
        let mut s2 = fake_sample(4, 21);
        s2.extent_phys = [9.0, 9.0, 9.0];
        let samples = vec![fake_sample(4, 22), s2];
        let mut g = Graph::new();
        let l = g.constant(latent);
        equation_loss(
            &mut g,
            &store,
            &dec,
            l,
            &samples,
            [3, 4, 4],
            RbcParamsF32::from_ra_pr(1e5, 1.0),
            default_stats(),
            0.05,
            ConstraintSet::ALL,
        );
    }

    #[test]
    fn constraint_subsets_change_the_loss() {
        let (store, dec) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(30);
        let latent = Tensor::randn(&[1, 5, 3, 4, 4], 0.5, &mut rng);
        let samples = vec![fake_sample(8, 31)];
        let params = RbcParamsF32::from_ra_pr(1e5, 1.0);
        let eval = |set: ConstraintSet| {
            let mut g = Graph::new();
            let l = g.constant(latent.clone());
            let (loss, _) = equation_loss(
                &mut g,
                &store,
                &dec,
                l,
                &samples,
                [3, 4, 4],
                params,
                default_stats(),
                0.05,
                set,
            );
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
        let mut rng = ChaCha8Rng::seed_from_u64(32);
        let latent = Tensor::randn(&[1, 5, 3, 4, 4], 0.5, &mut rng);
        let samples = vec![fake_sample(4, 33)];
        let mut g = Graph::new();
        let l = g.constant(latent);
        equation_loss(
            &mut g,
            &store,
            &dec,
            l,
            &samples,
            [3, 4, 4],
            RbcParamsF32::from_ra_pr(1e5, 1.0),
            default_stats(),
            0.05,
            ConstraintSet {
                continuity: false,
                temperature: false,
                momentum_x: false,
                momentum_z: false,
            },
        );
    }
}
