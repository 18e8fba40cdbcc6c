//! Uniform vs residual-guided adaptive query sampling: equation-loss
//! convergence per decoder evaluation (EXPERIMENTS.md "Adaptive
//! query sampling" entry).
//!
//! Both arms train the same small MeshfreeFlowNet on the same
//! Rayleigh–Bénard pair with pinned seeds; the only difference is where
//! the *training* query points come from. Two convergence metrics are
//! reported per seed:
//!
//! - **step metric** — the per-step `loss_equation` telemetry both arms
//!   emit (the adaptive arm's is the self-normalized importance-weighted
//!   estimate of the same uniform-mean residual, DESIGN.md §15), reduced
//!   to per-epoch medians. This is the acceptance metric.
//! - **probe metric** — after every epoch, both arms are evaluated on the
//!   same fixed uniformly-drawn held-out batches (shared across arms and
//!   seeds), which removes estimator effects entirely.
//!
//! Every training step evaluates the decoder (value and derivative lanes of
//! the equation loss) at `batch_size × queries` points, so cumulative
//! evaluations are proportional to steps and efficiency ratios are ratios
//! of step counts.
//!
//! Run with `--quick` for a CI-sized sanity pass (fewer seeds/epochs) and
//! `--epsilon E` to override the sampler's uniform blend floor.

use meshfreeflownet::autodiff::Graph;
use meshfreeflownet::core::{Corpus, MeshfreeFlowNet, MfnConfig, TrainConfig, Trainer};
use meshfreeflownet::data::{downsample, make_batch, Batch, Dataset, PatchSampler, PatchSpec};
use meshfreeflownet::solver::{simulate, RbcConfig};
use meshfreeflownet::telemetry::Recorder;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Per-epoch medians of a per-step series.
fn epoch_medians(steps: &[f32], batches_per_epoch: usize) -> Vec<f32> {
    steps
        .chunks(batches_per_epoch)
        .map(|c| {
            let mut v = c.to_vec();
            v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN losses"));
            v[v.len() / 2]
        })
        .collect()
}

/// First epoch whose value reaches `target`, converted to gradient steps.
fn crossing(series: &[f32], target: f32, batches_per_epoch: usize) -> Option<usize> {
    series.iter().position(|&m| m <= target).map(|e| (e + 1) * batches_per_epoch)
}

/// Median of the trailing quarter of a series — the level an arm "ends at"
/// without letting one lucky epoch move it.
fn tail_level(series: &[f32]) -> f32 {
    let mut t = series[series.len() - series.len() / 4 - 1..].to_vec();
    t.sort_by(|a, b| a.partial_cmp(b).expect("no NaN losses"));
    t[t.len() / 2]
}

/// Trains one arm epoch-by-epoch; returns (per-epoch medians of the
/// per-step equation loss, per-epoch equation loss on the shared probe).
#[allow(clippy::too_many_arguments)]
fn run_arm(
    corpus: &Corpus,
    mcfg: &MfnConfig,
    probe: &[Batch],
    epochs: usize,
    batches_per_epoch: usize,
    seed: u64,
    adaptive: bool,
    epsilon: f32,
) -> (Vec<f32>, Vec<f32>) {
    let tc = TrainConfig {
        epochs: 0,
        batches_per_epoch,
        batch_size: 2,
        lr: 5e-3,
        // Decay chosen so the lr is still ~20% of its initial value at the
        // end of the full 40-epoch window: both arms keep descending and
        // the crossing comparison happens on live curves, not on a
        // schedule-induced plateau where step ratios are noise.
        lr_decay: 0.995,
        seed,
        adaptive_sampling: adaptive,
        sampler_epsilon: epsilon,
        ..Default::default()
    };
    // Generous ring: each step also emits gauges/spans (the adaptive arm
    // adds four sampler gauges per step) and eviction would silently drop
    // the earliest steps from the comparison.
    let (rec, sink) = Recorder::memory(epochs * batches_per_epoch * 8 + 64);
    let mut trainer = Trainer::new(MeshfreeFlowNet::new(mcfg.clone()), tc).with_recorder(rec);
    let mut probe_series = Vec::with_capacity(epochs);
    for e in 1..=epochs {
        // Raising the target and re-entering `train` continues the same
        // run (epoch cursor, RNG stream and lr schedule all persist), so
        // this is identical to one long call with eval points in between.
        trainer.cfg.epochs = e;
        trainer.train(corpus);
        let eq: f32 = probe
            .iter()
            .map(|b| {
                let mut g = Graph::new();
                let (_, comps, _) =
                    trainer.model.loss_on_batch(&mut g, b, corpus.params(0), corpus.stats, false);
                comps.equation
            })
            .sum::<f32>()
            / probe.len() as f32;
        probe_series.push(eq);
    }
    if adaptive && std::env::var_os("MFN_SAMPLING_TRACE").is_some() {
        use meshfreeflownet::telemetry::Event;
        for name in ["sampler.leaves", "sampler.entropy", "sampler.top_decile_mass"] {
            let last = sink.events().iter().rev().find_map(|e| match e {
                Event::Gauge { name: n, value } if *n == name => Some(*value),
                _ => None,
            });
            eprintln!("[sampling] seed {seed} final {name}: {last:?}");
        }
    }
    let steps: Vec<f32> = sink.train_steps().iter().map(|m| m.loss_equation).collect();
    (epoch_medians(&steps, batches_per_epoch), probe_series)
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let quick = argv.iter().any(|a| a == "--quick");
    let epsilon: f32 = argv
        .iter()
        .position(|a| a == "--epsilon")
        .map(|i| argv[i + 1].parse().expect("--epsilon takes a float"))
        .unwrap_or(TrainConfig::default().sampler_epsilon);
    let (epochs, seeds): (usize, &[u64]) =
        if quick { (12, &[11]) } else { (40, &[11, 12, 13, 14, 15]) };
    let batches_per_epoch = 8usize;

    let sim = simulate(
        &RbcConfig { nx: 32, nz: 17, ra: 1e6, dt_max: 2e-3, ..Default::default() },
        2.0,
        17,
    );
    let hr = Dataset::from_simulation(&sim);
    let lr = downsample(&hr, 2, 2);
    let corpus = Corpus::new(vec![(hr.clone(), lr.clone())]);

    let mut mcfg = MfnConfig::small();
    // Patches span (nearly) the full spatial domain so local (z, x) track
    // physical (z, x): the wall boundary layers and the slowly-drifting
    // plumes are stationary in the octree's patch-local coordinates — the
    // structure the sampler is meant to find. (With a random patch origin
    // the flow structure is smeared out in local coordinates and there is
    // nothing stationary to refine into.)
    mcfg.patch = PatchSpec { nt: 4, nz: 8, nx: 16, queries: 32 };
    mcfg.base_channels = 4;
    mcfg.latent_channels = 8;
    mcfg.mlp_hidden = vec![32, 32];
    mcfg.levels = 2;
    mcfg.gamma = MfnConfig::GAMMA_STAR;
    // Decoder evaluations per gradient step (both arms identical):
    // batch_size × queries points, each costing one six-lane decode for the
    // prediction and the equation loss.
    let evals_per_step = 2 * mcfg.patch.queries * 2;

    // Held-out probe: fixed uniform batches shared by every arm and seed,
    // drawn from an RNG stream disjoint from all training seeds.
    let sampler = PatchSampler::new(&hr, &lr, mcfg.patch);
    let mut probe_rng = ChaCha8Rng::seed_from_u64(997);
    let probe: Vec<Batch> = (0..8).map(|_| make_batch(&sampler, 4, &mut probe_rng)).collect();

    // Per-seed learning curves for each arm and metric; a single run's
    // crossing time is dominated by that seed's luck, so the headline
    // compares the pointwise-median curves across seeds instead.
    let (mut u_steps_all, mut a_steps_all) = (Vec::new(), Vec::new());
    let (mut u_probe_all, mut a_probe_all) = (Vec::new(), Vec::new());
    for &seed in seeds {
        eprintln!("[sampling] seed {seed}: uniform arm ...");
        let (u_step, u_probe) =
            run_arm(&corpus, &mcfg, &probe, epochs, batches_per_epoch, seed, false, epsilon);
        eprintln!("[sampling] seed {seed}: adaptive arm (epsilon = {epsilon}) ...");
        let (a_step, a_probe) =
            run_arm(&corpus, &mcfg, &probe, epochs, batches_per_epoch, seed, true, epsilon);
        if std::env::var_os("MFN_SAMPLING_TRACE").is_some() {
            eprintln!("[sampling] seed {seed} uniform step medians:  {u_step:.4?}");
            eprintln!("[sampling] seed {seed} adaptive step medians: {a_step:.4?}");
            eprintln!("[sampling] seed {seed} uniform probe:  {u_probe:.4?}");
            eprintln!("[sampling] seed {seed} adaptive probe: {a_probe:.4?}");
        }
        u_steps_all.push(u_step);
        a_steps_all.push(a_step);
        u_probe_all.push(u_probe);
        a_probe_all.push(a_probe);
    }
    // Pointwise median across seeds: epoch e of the "median run".
    let median_curve = |runs: &[Vec<f32>]| -> Vec<f32> {
        (0..epochs)
            .map(|e| {
                let mut v: Vec<f32> = runs.iter().map(|r| r[e]).collect();
                v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN losses"));
                v[v.len() / 2]
            })
            .collect()
    };
    let mut ratios = Vec::new();
    for (name, u_runs, a_runs) in
        [("step metric", &u_steps_all, &a_steps_all), ("probe", &u_probe_all, &a_probe_all)]
    {
        let u = median_curve(u_runs);
        let a = median_curve(a_runs);
        // Target: the level the uniform median curve ends at (median of its
        // last quarter); the ratio compares each curve's *first* crossing.
        let target = tail_level(&u);
        let u_steps = crossing(&u, target, batches_per_epoch)
            .expect("uniform curve reaches its own final level");
        let ratio = match crossing(&a, target, batches_per_epoch) {
            Some(a_steps) => {
                let ratio = u_steps as f64 / a_steps as f64;
                println!(
                    "{name}: uniform {u_steps} steps ({} evals) to eq-loss {target:.4}; \
                     adaptive {a_steps} steps ({} evals) -> {ratio:.2}x fewer evaluations",
                    u_steps * evals_per_step,
                    a_steps * evals_per_step,
                );
                ratio
            }
            None => {
                println!(
                    "{name}: adaptive median curve never reached {target:.4} (best {:.4})",
                    a.iter().cloned().fold(f32::INFINITY, f32::min)
                );
                0.0
            }
        };
        ratios.push(ratio);
    }
    if !quick && ratios[0] < 1.5 {
        eprintln!("[sampling] FAIL: step-metric ratio {:.2}x < 1.5x", ratios[0]);
        std::process::exit(1);
    }
}
