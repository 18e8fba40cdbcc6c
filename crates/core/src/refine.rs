//! Test-time physics refinement: gradient descent on the *latent*.
//!
//! Chen et al. (arXiv:2304.12130) show that super-resolved fields improve
//! substantially when refined at inference time by descending the physics
//! residual. We already own every ingredient: the frozen decoder, the
//! equation residual from training with its exact derivative lanes
//! ([`equation_loss_at_points`]), and the reverse-mode tape. [`refine_latent`] composes them: build a small
//! tape whose only gradient leaf is the latent grid (the weights are
//! recorded as constants — `Graph::with_frozen_params` — so backward spends
//! nothing on them), take the equation residual at the client's query
//! points as the loss, and run a few backtracking gradient steps. Each
//! candidate latent gets exactly one tape: its forward pass is the
//! candidate's residual, and backward runs on that same tape only if the
//! candidate is accepted and another step follows.
//!
//! Three properties the serving layer depends on are enforced here:
//!
//! - **Monotone residual.** A step is only *accepted* when it strictly
//!   reduces the residual at the query points; a rejected step halves the
//!   learning rate and retries from the current iterate, and an accepted
//!   step doubles it so the rate adapts to the objective's scale. The
//!   accepted residual trace is therefore non-increasing by construction.
//! - **Bounded compute.** The loop stops at `max_steps` candidate
//!   evaluations, at the early-stop tolerance, at the wall-clock cap, or
//!   when the learning rate collapses — whichever comes first. Every bound
//!   is a [`RefineBudget`] field the client pays for explicitly.
//! - **Determinism.** For a fixed (weights, latent, points, budget) the
//!   result is bit-reproducible as long as the wall-clock cap does not bind:
//!   every candidate's tape is built the same way and no randomness enters.
//!   (A binding wall-clock cap truncates the step count — that is the one
//!   intentionally nondeterministic budget axis.)

use crate::config::MfnConfig;
use crate::decoder::ContinuousDecoder;
use crate::losses::{equation_loss_at_points, ChannelStats, ConstraintSet};
use mfn_autodiff::{Graph, ParamStore, Var};
use mfn_physics::RbcParams;
use mfn_tensor::Tensor;
use std::time::Instant;

/// Learning rate below which descent has stalled and the loop stops.
const LR_FLOOR: f32 = 1e-10;

/// Physics context for refinement: which residual to descend and how to
/// interpret decoder outputs physically. Serving has no [`mfn_data`]
/// sampler in the loop, so everything the training loss read from samples
/// and dataset metadata arrives here explicitly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefineSettings {
    /// Dimensionless Rayleigh–Bénard coefficients.
    pub params: RbcParams,
    /// Channel denormalization statistics (identity when the server has no
    /// dataset metadata — the residual is then in normalized units, which
    /// descent minimizes just as well).
    pub stats: ChannelStats,
    /// Physical extent of the patch per `[t, z, x]` axis.
    pub extent_phys: [f64; 3],
    /// Which PDE residuals enter the objective.
    pub constraints: ConstraintSet,
    /// Initial gradient-descent learning rate (backtracking halves it on
    /// rejected steps).
    pub lr: f32,
}

impl RefineSettings {
    /// Settings derived from an architecture config: the training
    /// constraint set, identity normalization, unit extent, and the paper's
    /// Ra/Pr. This is what a server uses when the checkpoint
    /// sidecar carries no dataset statistics.
    pub fn from_config(cfg: &MfnConfig) -> Self {
        RefineSettings { constraints: cfg.constraints, ..Default::default() }
    }
}

impl Default for RefineSettings {
    fn default() -> Self {
        RefineSettings {
            params: RbcParams::from_ra_pr(1e5, 1.0),
            stats: ChannelStats { mean: [0.0; 4], std: [1.0; 4] },
            extent_phys: [1.0; 3],
            constraints: ConstraintSet::ALL,
            lr: 0.05,
        }
    }
}

/// Per-request compute budget. Every axis bounds work the client pays for;
/// none can extend it past the server's caps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefineBudget {
    /// Maximum candidate steps (residual evaluations are bounded by
    /// `max_steps + 1`, gradient evaluations by `max_steps`). Zero means
    /// "decode without refining".
    pub max_steps: u32,
    /// Early-stop once the mean absolute residual is at or below this.
    pub tol: f32,
    /// Wall-clock cap in microseconds; `0` disables the cap (the step
    /// bound still applies).
    pub max_micros: u64,
}

impl RefineBudget {
    /// A `k`-step budget with no tolerance or wall-clock stop — the
    /// deterministic configuration property tests use.
    pub fn steps(k: u32) -> Self {
        RefineBudget { max_steps: k, tol: 0.0, max_micros: 0 }
    }
}

/// What a refinement run did, alongside the refined latent.
#[derive(Debug, Clone, PartialEq)]
pub struct RefineReport {
    /// Candidate steps evaluated (each costs one residual evaluation).
    pub steps_run: u32,
    /// Steps that strictly reduced the residual and were kept.
    pub steps_accepted: u32,
    /// Mean absolute residual at the query points before any step.
    pub initial_residual: f32,
    /// Residual of the returned latent.
    pub final_residual: f32,
    /// Residual after each *accepted* step, starting with the initial
    /// value — non-increasing by construction.
    pub residual_trace: Vec<f32>,
}

/// Runs budgeted gradient descent on `latent` minimizing the PDE equation
/// residual at `points`, with the decoder weights frozen. Returns the
/// refined latent (always a fresh tensor — the input is never mutated, so
/// a shared cache entry stays bit-identical) and a [`RefineReport`].
///
/// # Panics
/// Panics on empty `points` (the serving layer validates that into a typed
/// error before calling).
pub fn refine_latent(
    store: &ParamStore,
    decoder: &ContinuousDecoder,
    latent: &Tensor,
    grid_dims: [usize; 3],
    points: &[(usize, [f32; 3])],
    settings: &RefineSettings,
    budget: &RefineBudget,
) -> (Tensor, RefineReport) {
    // The one tape builder: the latent is the gradient leaf, the decoder's
    // weights are constants.
    let evaluate = |lat: &Tensor| -> Candidate {
        let mut tape = Graph::with_frozen_params();
        let latent = tape.leaf_with_grad(lat.clone());
        let (loss, _) = equation_loss_at_points(
            &mut tape,
            store,
            decoder,
            latent,
            points,
            grid_dims,
            settings.extent_phys,
            settings.params,
            settings.stats,
            settings.constraints,
        );
        Candidate { tape, latent, loss }
    };

    let start = Instant::now();
    let mut cur = latent.clone();
    // The current iterate's tape, until its backward pass has run.
    let mut unswept = Some(evaluate(&cur));
    let mut cur_res = unswept.as_ref().expect("just built").residual();
    let mut report = RefineReport {
        steps_run: 0,
        steps_accepted: 0,
        initial_residual: cur_res,
        final_residual: cur_res,
        residual_trace: vec![cur_res],
    };
    if budget.max_steps == 0 || !cur_res.is_finite() {
        return (cur, report);
    }

    let mut lr = settings.lr.max(LR_FLOOR);
    // Overwritten before its first use: the first step sweeps `unswept`.
    let mut grad = Tensor::zeros(cur.dims());
    while report.steps_run < budget.max_steps
        && cur_res > budget.tol
        && lr >= LR_FLOOR
        && !(budget.max_micros > 0 && start.elapsed().as_micros() as u64 >= budget.max_micros)
    {
        // A step from a freshly accepted iterate needs its gradient; a retry
        // after a rejection reuses the one it has.
        if let Some(accepted) = unswept.take() {
            grad = accepted.into_gradient();
        }
        report.steps_run += 1;
        let cand = cur.zip(&grad, |x, g| x - lr * g);
        let cand_tape = evaluate(&cand);
        let cand_res = cand_tape.residual();
        if cand_res.is_finite() && cand_res < cur_res {
            cur = cand;
            cur_res = cand_res;
            unswept = Some(cand_tape);
            report.steps_accepted += 1;
            report.residual_trace.push(cur_res);
            // An accepted step means the current rate is conservative: grow
            // it so the rate adapts to the objective's scale instead of
            // creeping at whatever `settings.lr` happened to be. Overshoots
            // are caught by the reject branch, which halves it right back —
            // the trace stays monotone either way, and the doubling rule is
            // deterministic.
            lr *= 2.0;
        } else {
            // Overshot (or hit a non-finite region): the direction is still
            // a descent direction at `cur`, so halve and retry from there.
            lr *= 0.5;
        }
    }
    report.final_residual = cur_res;
    (cur, report)
}

/// One candidate latent's tape: forward done, backward not yet.
struct Candidate {
    tape: Graph,
    latent: Var,
    loss: Var,
}

impl Candidate {
    /// The mean absolute equation residual the forward pass computed.
    fn residual(&self) -> f32 {
        self.tape.value(self.loss).item()
    }

    /// Runs backward on the tape and returns the residual's latent gradient.
    fn into_gradient(mut self) -> Tensor {
        self.tape.backward(self.loss);
        self.tape.grad(self.latent).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfn_autodiff::{Activation, Mlp};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup() -> (ParamStore, ContinuousDecoder) {
        let mut store = ParamStore::new();
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let mlp = Mlp::new(&mut store, "d", &[3 + 5, 16, 8, 4], Activation::Softplus, &mut rng);
        (store, ContinuousDecoder::new(mlp, 5))
    }

    fn points(n: usize, seed: u64) -> Vec<(usize, [f32; 3])> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                (
                    0usize,
                    [
                        rand::Rng::gen::<f32>(&mut rng),
                        rand::Rng::gen::<f32>(&mut rng),
                        rand::Rng::gen::<f32>(&mut rng),
                    ],
                )
            })
            .collect()
    }

    #[test]
    fn frozen_weight_tape_gives_the_parameter_tape_latent_gradient() {
        // The tape `refine_latent` builds records the weights as constants;
        // that must not move one bit of the latent gradient, and no weight
        // gradient may exist on it.
        let (store, dec) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let latent = Tensor::randn(&[1, 5, 3, 4, 4], 0.5, &mut rng);
        let pts = points(7, 12);
        let s = RefineSettings::default();
        let run = |mut g: Graph| {
            let l = g.leaf_with_grad(latent.clone());
            let (loss, _) = equation_loss_at_points(
                &mut g,
                &store,
                &dec,
                l,
                &pts,
                [3, 4, 4],
                s.extent_phys,
                s.params,
                s.stats,
                s.constraints,
            );
            g.backward(loss);
            let bits: Vec<u32> = g.grad(l).data().iter().map(|v| v.to_bits()).collect();
            let weight_grad = g.param_grads(&store).iter().any(|t| t.max_abs() > 0.0);
            (g.value(loss).item().to_bits(), bits, weight_grad)
        };
        let (loss, grad, weight_grad) = run(Graph::new());
        assert!(weight_grad, "a parameter tape differentiates the weights");
        assert_eq!(run(Graph::with_frozen_params()), (loss, grad, false));
    }

    #[test]
    fn zero_steps_is_identity_and_reports_initial_residual() {
        let (store, dec) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let latent = Tensor::randn(&[1, 5, 3, 4, 4], 0.5, &mut rng);
        let pts = points(6, 2);
        let (out, rep) = refine_latent(
            &store,
            &dec,
            &latent,
            [3, 4, 4],
            &pts,
            &RefineSettings::default(),
            &RefineBudget::steps(0),
        );
        assert_eq!(out.data(), latent.data(), "k=0 must not move the latent");
        assert_eq!(rep.steps_run, 0);
        assert_eq!(rep.steps_accepted, 0);
        assert_eq!(rep.initial_residual, rep.final_residual);
        assert!(rep.initial_residual.is_finite() && rep.initial_residual > 0.0);
    }

    #[test]
    fn residual_trace_is_strictly_decreasing_over_accepted_steps() {
        let (store, dec) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let latent = Tensor::randn(&[1, 5, 3, 4, 4], 0.5, &mut rng);
        let pts = points(8, 4);
        let (_, rep) = refine_latent(
            &store,
            &dec,
            &latent,
            [3, 4, 4],
            &pts,
            &RefineSettings::default(),
            &RefineBudget::steps(12),
        );
        assert!(rep.steps_accepted > 0, "descent should accept at least one step");
        assert_eq!(rep.residual_trace.len() as u32, rep.steps_accepted + 1);
        for w in rep.residual_trace.windows(2) {
            assert!(w[1] < w[0], "accepted step increased residual: {} -> {}", w[0], w[1]);
        }
        assert!(rep.final_residual < rep.initial_residual);
        assert_eq!(rep.final_residual, *rep.residual_trace.last().unwrap());
    }

    #[test]
    fn refinement_is_deterministic() {
        let (store, dec) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let latent = Tensor::randn(&[1, 5, 3, 4, 4], 0.5, &mut rng);
        let pts = points(5, 6);
        let run = || {
            refine_latent(
                &store,
                &dec,
                &latent,
                [3, 4, 4],
                &pts,
                &RefineSettings::default(),
                &RefineBudget::steps(6),
            )
        };
        let (a, ra) = run();
        let (b, rb) = run();
        assert_eq!(a.data(), b.data(), "refined latents must be bit-identical");
        assert_eq!(ra, rb);
    }

    #[test]
    fn input_latent_is_never_mutated() {
        let (store, dec) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let latent = Tensor::randn(&[1, 5, 3, 4, 4], 0.5, &mut rng);
        let before = latent.data().to_vec();
        let pts = points(4, 8);
        let (out, rep) = refine_latent(
            &store,
            &dec,
            &latent,
            [3, 4, 4],
            &pts,
            &RefineSettings::default(),
            &RefineBudget::steps(8),
        );
        assert_eq!(latent.data(), &before[..], "refine must not touch its input");
        if rep.steps_accepted > 0 {
            assert_ne!(out.data(), &before[..], "accepted steps must move the copy");
        }
    }

    #[test]
    fn tolerance_and_wallclock_stop_early() {
        let (store, dec) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let latent = Tensor::randn(&[1, 5, 3, 4, 4], 0.5, &mut rng);
        let pts = points(4, 10);
        // A tolerance above the initial residual: no steps at all.
        let (_, rep) = refine_latent(
            &store,
            &dec,
            &latent,
            [3, 4, 4],
            &pts,
            &RefineSettings::default(),
            &RefineBudget { max_steps: 10, tol: f32::MAX, max_micros: 0 },
        );
        assert_eq!(rep.steps_run, 0, "tolerance already met, no step should run");
        // A 1 µs wall-clock cap: the initial residual is still reported,
        // and the step count stays far below the budget.
        let (_, rep) = refine_latent(
            &store,
            &dec,
            &latent,
            [3, 4, 4],
            &pts,
            &RefineSettings::default(),
            &RefineBudget { max_steps: u32::MAX, tol: 0.0, max_micros: 1 },
        );
        assert!(rep.steps_run <= 1, "wall-clock cap must bound the loop");
        assert!(rep.initial_residual.is_finite());
    }
}
