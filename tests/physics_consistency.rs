//! Cross-crate physics consistency: the solver, the PDE residual
//! definitions, the jet-based decoder derivatives, and the FD training
//! stencil must all agree with each other.

use meshfreeflownet::autodiff::{Activation, Graph, Mlp, ParamStore};
use meshfreeflownet::core::{
    equation_loss, ChannelStats, ConstraintSet, ContinuousDecoder, RbcParamsF32,
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

/// The tape-recorded equation loss agrees with the scalar residual formulas
/// in `mfn-physics` when derivatives come from exact jets.
#[test]
fn tape_equation_loss_consistent_with_physics_residuals() {
    let mut store = ParamStore::new();
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let mlp = Mlp::new(&mut store, "d", &[3 + 8, 32, 16, 4], Activation::Softplus, &mut rng);
    let dec = ContinuousDecoder::new(mlp, 8);
    let latent = Tensor::randn(&[1, 8, 4, 4, 4], 0.5, &mut rng);

    let h = 0.02f32;
    let extent = [0.8f64, 1.0, 2.0];
    let queries: Vec<[f32; 3]> = vec![[0.31f32, 0.42, 0.53], [0.61, 0.72, 0.33]]
        .into_iter()
        .map(|q| [q[0].clamp(h, 1.0 - h), q[1].clamp(h, 1.0 - h), q[2].clamp(h, 1.0 - h)])
        .collect();
    let sample = mfn_data::Sample {
        lr_patch: Tensor::zeros(&[4, 4, 4, 4]),
        query_local: queries.clone(),
        query_values: vec![[0.0; 4]; queries.len()],
        origin_phys: [0.0; 3],
        extent_phys: extent,
    };
    let params = RbcParamsF32::from_ra_pr(1e5, 1.0);
    let stats = ChannelStats { mean: [0.1, -0.2, 0.0, 0.3], std: [1.5, 0.7, 1.0, 2.0] };

    let mut g = Graph::new();
    let l = g.constant(latent.clone());
    let (loss, _) = equation_loss(
        &mut g,
        &store,
        &dec,
        l,
        std::slice::from_ref(&sample),
        [4, 4, 4],
        params,
        stats,
        h,
        ConstraintSet::ALL,
    );
    let tape = g.value(loss).item() as f64;

    // Jets + scalar formulas, with the same denormalization.
    let p64 = RbcParams::from_ra_pr(1e5, 1.0);
    let mut acc = 0.0;
    for q in &queries {
        let jets = dec.decode_jet(&store, &latent, 0, *q, extent);
        let dn = |c: usize, j: &meshfreeflownet::autodiff::Jet3| {
            (
                (j.v * stats.std[c] + stats.mean[c]) as f64,
                [
                    (j.d[0] * stats.std[c]) as f64,
                    (j.d[1] * stats.std[c]) as f64,
                    (j.d[2] * stats.std[c]) as f64,
                ],
                [
                    (j.dd[0] * stats.std[c]) as f64,
                    (j.dd[1] * stats.std[c]) as f64,
                    (j.dd[2] * stats.std[c]) as f64,
                ],
            )
        };
        let (tv, td, tdd) = dn(0, &jets[0]);
        let (_pv, pd, _pdd) = dn(1, &jets[1]);
        let (uv, ud, udd) = dn(2, &jets[2]);
        let (wv, wd, wdd) = dn(3, &jets[3]);
        let s = PointState {
            t: tv,
            p_x: pd[2],
            p_z: pd[1],
            u: uv,
            w: wv,
            t_t: td[0],
            t_x: td[2],
            t_z: td[1],
            t_xx: tdd[2],
            t_zz: tdd[1],
            u_t: ud[0],
            u_x: ud[2],
            u_z: ud[1],
            u_xx: udd[2],
            u_zz: udd[1],
            w_t: wd[0],
            w_x: wd[2],
            w_z: wd[1],
            w_xx: wdd[2],
            w_zz: wdd[1],
        };
        acc += residuals(p64, &s).iter().map(|v| v.abs()).sum::<f64>();
    }
    let jet = acc / (queries.len() * 4) as f64;
    assert!(
        (tape - jet).abs() < 0.15 * (1.0 + jet),
        "tape equation loss {tape} vs jet residual {jet}"
    );
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
