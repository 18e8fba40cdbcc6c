//! Cross-crate physics consistency: the solver, the PDE residual definition
//! and the decoder's derivative lanes on the training tape must all agree
//! with each other.

use meshfreeflownet::autodiff::{Activation, Graph, Mlp, ParamStore, JET_LANES};
use meshfreeflownet::core::{
    equation_loss, plan_queries, ChannelStats, ConstraintSet, ContinuousDecoder,
};
use meshfreeflownet::physics::{grid_residuals, residuals, PointState, RbcParams};
use meshfreeflownet::solver::{simulate, RbcConfig};
use meshfreeflownet::tensor::Tensor;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The solver's PDE residuals shrink as the frame sampling refines (i.e. the
/// grid residual is dominated by the O(Δt²) central time difference across
/// frames, not by a bug in the solver or the residual definitions).
#[test]
fn solver_residual_converges_with_frame_rate() {
    let cfg = RbcConfig { nx: 32, nz: 17, ra: 1e5, dt_max: 1e-3, ..Default::default() };
    let coarse = simulate(&cfg, 2.0, 11); // frame dt = 0.2
    let fine = simulate(&cfg, 2.0, 41); // frame dt = 0.05
                                        // Compare residuals at the same physical time t = 1.0.
    let rc = grid_residuals(&coarse, 5);
    let rf = grid_residuals(&fine, 20);
    // Temperature residual (index 1) is time-derivative dominated.
    assert!(
        rf[1] < rc[1],
        "temperature residual did not shrink with finer frames: {rc:?} vs {rf:?}"
    );
}

/// One function, two scalars: the equation loss on the tape and the solver
/// diagnostics on `f64` both call `mfn_physics::residuals`. Read the six
/// derivative lanes the tape decoded back out, widen them to a
/// `PointState<f64>` with the same denormalization, run the same function —
/// and the tape's residual node agrees to f32 rounding, at an interior
/// point, on a patch wall and on a latent-cell face alike.
#[test]
fn tape_equation_loss_consistent_with_physics_residuals() {
    let mut store = ParamStore::new();
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let mlp = Mlp::new(&mut store, "d", &[3 + 8, 32, 16, 4], Activation::Softplus, &mut rng);
    let dec = ContinuousDecoder::new(mlp, 8);
    let latent = Tensor::randn(&[1, 8, 4, 4, 4], 0.5, &mut rng);

    let (grid, extent) = ([4, 4, 4], [0.8f64, 1.0, 2.0]);
    let queries =
        [[0.31f32, 0.42, 0.53], [0.61, 0.72, 0.33], [0.0, 1.0, 0.5], [1.0 / 3.0, 0.2, 2.0 / 3.0]];
    let params = RbcParams::from_ra_pr(1e5, 1.0);
    let stats = ChannelStats { mean: [0.1, -0.2, 0.0, 0.3], std: [1.5, 0.7, 1.0, 2.0] };

    let mut g = Graph::new();
    let l = g.constant(latent);
    let plan = plan_queries(grid, queries.iter().map(|&q| (0usize, q)));
    let lanes = dec.decode_derivs(&mut g, &store, l, &plan, grid, extent);
    let (loss, tape_residuals) = equation_loss(&mut g, lanes, params, stats, ConstraintSet::ALL);

    let q = queries.len();
    let decoded = g.value(lanes).data();
    assert_eq!(decoded.len(), JET_LANES * q * 4);
    let mut acc = 0.0;
    for point in 0..q {
        let state = PointState::from_lanes(|lane, c| {
            let v = f64::from(decoded[(lane * q + point) * 4 + c]) * f64::from(stats.std[c]);
            if lane == 0 {
                v + f64::from(stats.mean[c])
            } else {
                v
            }
        });
        let want = residuals(params, &state);
        let got = &g.value(tape_residuals).data()[point * 4..(point + 1) * 4];
        // The terms of a residual are O(|derivatives|): a few f32 roundings
        // of the largest one.
        let scale = 1.0 + want.iter().fold(0.0f64, |m, r| m.max(r.abs()));
        for (got, want) in got.iter().zip(want) {
            assert!(
                (f64::from(*got) - want).abs() < 1e-5 * scale,
                "point {point}: {got} vs {want}"
            );
        }
        acc += want.iter().map(|r| r.abs()).sum::<f64>();
    }
    let mean = acc / (q * 4) as f64;
    let tape = f64::from(g.value(loss).item());
    assert!((tape - mean).abs() < 1e-5 * (1.0 + mean), "tape equation loss {tape} vs {mean}");
}

/// The dataset's stored pressure channel makes the momentum residuals small
/// on solver output (the hydrostatic-absorption bookkeeping is consistent).
#[test]
fn stored_pressure_closes_momentum_budget() {
    let cfg = RbcConfig { nx: 64, nz: 33, ra: 1e5, dt_max: 1e-3, ..Default::default() };
    let sim = simulate(&cfg, 3.0, 61);
    let r = grid_residuals(&sim, 40);
    let f = &sim.frames[40];
    let wmax = f.w.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
    assert!(wmax > 1e-3, "flow never developed");
    // Momentum-z residual must be far smaller than the raw buoyancy term
    // magnitude (≈ |T| ~ 0.5): if the pressure bookkeeping were wrong, the
    // residual would be O(|T|).
    assert!(r[3] < 0.1, "momentum-z residual {} — pressure channel inconsistent?", r[3]);
}
