//! Evaluation: turning a super-resolved dataset and its ground truth into
//! the `(100×NMAE, R²)` table cells of the paper, and an experiment's
//! results — every arm on every seed — into text.
//!
//! [`Results`] is the data an experiment produces; [`render`] is the one
//! place it becomes text (`repro`'s tables, `train`'s validation score, the
//! quickstart). Arms are run on the same seeds, so seed `k` of one arm and
//! seed `k` of another form a pair, and a claimed ordering is
//! reported as the count of pairs it holds on: "A beats B" only when it
//! holds on at least 4 of 5 seeds.

use crate::config::TrainConfig;
use crate::trainer::{rank_cores, EpochRecord};
use mfn_data::{Dataset, CH_U, CH_W};
use mfn_physics::{flow_stats, score_metric_series, METRIC_NAMES};
use mfn_solver::Domain;
use serde::{Deserialize, Serialize};
use std::fmt::Write;

/// Per-frame metric arrays (one row of nine metrics per snapshot).
pub fn metric_series(ds: &Dataset, nu: f64) -> Vec<[f64; 9]> {
    let domain = Domain::new(ds.meta.nx, ds.meta.nz, ds.meta.lx, ds.meta.lz);
    (0..ds.meta.nt)
        .map(|f| {
            let u = ds.channel_frame_f64(f, CH_U);
            let w = ds.channel_frame_f64(f, CH_W);
            flow_stats(&domain, &u, &w, nu).as_array()
        })
        .collect()
}

/// One prediction's scores: a table row's cells.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scores {
    /// `100 × NMAE` per metric, in [`METRIC_NAMES`] order.
    pub nmae_pct: [f64; 9],
    /// R² per metric, in the same order.
    pub r2: [f64; 9],
    /// The paper's average R² over the nine metrics.
    pub avg_r2: f64,
}

impl Scores {
    /// The median of the nine R²: unlike [`Scores::avg_r2`], no single
    /// blown-up metric can own it.
    pub fn median_r2(&self) -> f64 {
        median(&self.r2)
    }
}

/// Scores a prediction against ground truth. `nu` is the dimensionless
/// viscosity `R*` of the ground-truth physics. The first `skip` frames are
/// excluded (the early transient has near-zero velocity and makes the
/// normalized scores degenerate).
pub fn evaluate_pair(gt: &Dataset, pred: &Dataset, nu: f64, skip: usize) -> Scores {
    assert_eq!(gt.meta.nt, pred.meta.nt, "frame count mismatch");
    let g: Vec<[f64; 9]> = metric_series(gt, nu).into_iter().skip(skip).collect();
    let p: Vec<[f64; 9]> = metric_series(pred, nu).into_iter().skip(skip).collect();
    assert!(!g.is_empty(), "skip leaves no frames");
    let (scores, avg_r2) = score_metric_series(&g, &p);
    Scores {
        nmae_pct: std::array::from_fn(|m| scores[m].nmae_pct),
        r2: std::array::from_fn(|m| scores[m].r2),
        avg_r2,
    }
}

/// One arm on one seed: its scores and what it cost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Run {
    /// The seed of the model's initialization and of its batch stream.
    pub seed: u64,
    /// The prediction's scores against ground truth.
    pub scores: Scores,
    /// Wall-clock seconds of training, super-resolving and scoring.
    pub wall_s: f64,
    /// Training epochs (0 for an untrained arm).
    pub epochs: usize,
    /// Optimizer steps.
    pub steps: usize,
    /// Training patches drawn, over every step.
    pub patches: usize,
    /// The last epoch's mean prediction loss, for a trained arm.
    pub prediction_loss: Option<f64>,
    /// The last epoch's mean equation loss, for a trained arm.
    pub equation_loss: Option<f64>,
}

impl Run {
    /// A run of `seed` with `scores` and no budget: no training, no time.
    pub fn untrained(seed: u64, scores: Scores) -> Self {
        Run {
            seed,
            scores,
            wall_s: 0.0,
            epochs: 0,
            steps: 0,
            patches: 0,
            prediction_loss: None,
            equation_loss: None,
        }
    }

    /// A run of `seed` with `scores` that trained under `tc` for `epochs`,
    /// epoch `i` on `worlds[i]` ranks, and took `wall_s` seconds in all; its
    /// losses are the last epoch's.
    pub fn trained(
        seed: u64,
        scores: Scores,
        epochs: &[EpochRecord],
        worlds: &[usize],
        tc: &TrainConfig,
        wall_s: f64,
    ) -> Self {
        assert_eq!(epochs.len(), worlds.len(), "one world size per epoch");
        let (steps, patches) = budget(worlds, tc);
        let last = epochs.last();
        Run {
            wall_s,
            epochs: epochs.len(),
            steps,
            patches,
            prediction_loss: last.map(|e| e.prediction.into()),
            equation_loss: last.map(|e| e.equation.into()),
            ..Run::untrained(seed, scores)
        }
    }
}

/// The optimizer steps and patches drawn of a training under `tc` that ran
/// epoch `i` on `worlds[i]` ranks: an epoch is `tc.batches_per_epoch` steps,
/// and a step draws `tc.batch_size` patches on every rank.
fn budget(worlds: &[usize], tc: &TrainConfig) -> (usize, usize) {
    let ranks: usize = worlds.iter().sum();
    (worlds.len() * tc.batches_per_epoch, ranks * tc.batches_per_epoch * tc.batch_size)
}

/// One configuration of an experiment, run on every seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Arm {
    /// The row label (e.g. `MFN, gamma=g*`).
    pub label: String,
    /// One run per seed, in [`Results::seeds`] order.
    pub runs: Vec<Run>,
}

/// A claimed ordering — the paper's, or for the ablations this
/// reproduction's design choice: arm `first` scores above arm `second`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Order {
    /// The label of the arm ranked higher.
    pub first: String,
    /// The label of the arm it ranks lower.
    pub second: String,
}

/// One measured data-parallel training run of Fig. 7.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorldRun {
    /// Ranks in the run.
    pub workers: usize,
    /// Cores each rank's tape ran its layer nodes on.
    pub cores_per_rank: usize,
    /// Training samples (patches) per second over the whole run.
    pub throughput: f64,
    /// Mean loss of each epoch.
    pub epoch_loss: Vec<f64>,
    /// Wall-clock seconds since the run started, at each epoch's end.
    pub epoch_wall: Vec<f64>,
    /// Optimizer steps.
    pub steps: usize,
    /// Training patches drawn, over every rank and step.
    pub patches: usize,
}

impl WorldRun {
    /// The run of `workers` ranks that trained under `tc` for `epochs`,
    /// epoch `i` on `worlds[i]` ranks and ending `epoch_wall[i]` seconds in,
    /// at `throughput` patches a second; each rank's tape ran on the cores
    /// the trainer gives it.
    pub fn trained(
        workers: usize,
        throughput: f64,
        epochs: &[EpochRecord],
        worlds: &[usize],
        epoch_wall: Vec<f64>,
        tc: &TrainConfig,
    ) -> Self {
        assert_eq!(epochs.len(), worlds.len(), "one world size per epoch");
        let (steps, patches) = budget(worlds, tc);
        WorldRun {
            workers,
            cores_per_rank: rank_cores(workers),
            throughput,
            epoch_loss: epochs.iter().map(|e| e.loss.into()).collect(),
            epoch_wall,
            steps,
            patches,
        }
    }
}

/// What one experiment measured.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Results {
    /// The table's title (e.g. `Table 2: MeshfreeFlowNet vs baselines`).
    pub title: String,
    /// The seeds every arm ran on.
    pub seeds: Vec<u64>,
    /// The table's rows.
    pub arms: Vec<Arm>,
    /// The claimed orderings of arms.
    pub orders: Vec<Order>,
    /// Fig. 7's runs, one per world size (empty for every other table).
    pub worlds: Vec<WorldRun>,
}

/// An ordering is claimed only when it holds on at least `CLAIM_WINS` of
/// every `CLAIM_OF` paired seeds.
const CLAIM_WINS: usize = 4;
const CLAIM_OF: usize = 5;

/// The statistics that order arms, higher winning: the paper's average R²,
/// and the median R², which no single metric can own. The training losses
/// order nothing, for arms may train on different data.
const ORDERING: [Statistic; 2] = [("avg R2", |s| s.avg_r2), ("median R2", Scores::median_r2)];

/// A statistic's name and its value for a run's scores.
type Statistic = (&'static str, fn(&Scores) -> f64);

/// The median of `values` (the mean of the middle two for an even count).
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `median [min, max]` of `values`, each to four decimals.
fn spread(values: &[f64]) -> String {
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    format!("{:.4} [{lo:.4}, {hi:.4}]", median(values))
}

/// The one text form of [`Results`]: the title; one row per arm and seed
/// (the paper's `100×NMAE(R²)` cells, average and median R², the run's
/// budget); for more than one seed, each arm's median and min–max over
/// seeds; each claimed ordering's count of paired seeds; and Fig. 7's
/// three panels.
pub fn render(results: &Results) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "=== {} ===", results.title);
    let seeds: Vec<String> = results.seeds.iter().map(u64::to_string).collect();
    let _ = write!(s, "seeds {}", seeds.join(" "));
    if results.arms.is_empty() {
        s.push('\n');
    } else {
        let _ = writeln!(s, "; cells are 100xNMAE(R2)");
        render_rows(&mut s, results);
    }
    if results.seeds.len() > 1 && !results.arms.is_empty() {
        render_spread(&mut s, results);
    }
    if !results.orders.is_empty() {
        render_orders(&mut s, results);
    }
    if !results.worlds.is_empty() {
        render_worlds(&mut s, &results.worlds);
    }
    s
}

fn render_rows(s: &mut String, results: &Results) {
    let _ = write!(s, "\n{:<24}{:>5}", "model", "seed");
    for name in METRIC_NAMES {
        let _ = write!(s, " {name:>17}");
    }
    let _ = writeln!(s, "  avg/median R2, budget");
    for arm in &results.arms {
        for run in &arm.runs {
            let _ = write!(s, "{:<24}{:>5}", arm.label, run.seed);
            for (nmae, r2) in run.scores.nmae_pct.iter().zip(&run.scores.r2) {
                let _ = write!(s, " {nmae:>8.3}({r2:>7.4})");
            }
            let _ = write!(
                s,
                "  avgR2={:.4} medR2={:.4}  {} epochs, {} steps, {} patches, {:.2} s",
                run.scores.avg_r2,
                run.scores.median_r2(),
                run.epochs,
                run.steps,
                run.patches,
                run.wall_s
            );
            if let (Some(pred), Some(eq)) = (run.prediction_loss, run.equation_loss) {
                let _ = write!(s, ", pred loss {pred:.4}, eq loss {eq:.4}");
            }
            s.push('\n');
        }
    }
}

fn render_spread(s: &mut String, results: &Results) {
    let _ = writeln!(s, "\nover seeds: median [min, max]");
    for arm in &results.arms {
        let _ = write!(s, "{:<24}", arm.label);
        for (name, stat) in ORDERING {
            let values: Vec<f64> = arm.runs.iter().map(|r| stat(&r.scores)).collect();
            let _ = write!(s, "  {name} {}", spread(&values));
        }
        let losses =
            |f: fn(&Run) -> Option<f64>| arm.runs.iter().map(f).collect::<Option<Vec<_>>>();
        if let (Some(pred), Some(eq)) = (losses(|r| r.prediction_loss), losses(|r| r.equation_loss))
        {
            let _ = write!(s, "  pred loss {}  eq loss {}", spread(&pred), spread(&eq));
        }
        s.push('\n');
    }
}

fn render_orders(s: &mut String, results: &Results) {
    let _ = writeln!(
        s,
        "\nclaimed orderings, over paired seeds (a claim needs {CLAIM_WINS} of {CLAIM_OF}):"
    );
    let arm = |label: &str| {
        results.arms.iter().find(|a| a.label == label).expect("an ordering names two arms")
    };
    for order in &results.orders {
        let (a, b) = (arm(&order.first), arm(&order.second));
        for (name, stat) in ORDERING {
            let pairs: Vec<(f64, f64)> = a
                .runs
                .iter()
                .zip(&b.runs)
                .map(|(x, y)| (stat(&x.scores), stat(&y.scores)))
                .collect();
            let n = pairs.len();
            let wins = pairs.iter().filter(|(x, y)| x > y).count();
            let losses = pairs.iter().filter(|(x, y)| x < y).count();
            let claim = |k: usize| k * CLAIM_OF >= n * CLAIM_WINS;
            let (first, second) = (&order.first, &order.second);
            let _ = if claim(wins) {
                writeln!(s, "  {name}: {first} beats {second} ({wins} of {n})")
            } else if claim(losses) {
                writeln!(s, "  {name}: {second} beats {first} ({losses} of {n}), against the claim")
            } else {
                writeln!(
                    s,
                    "  {name}: {first} over {second} on {wins} of {n}: not resolved at this budget"
                )
            };
        }
    }
}

fn render_worlds(s: &mut String, worlds: &[WorldRun]) {
    let base = &worlds[0];
    let _ = writeln!(s, "\n--- Fig. 7a: throughput vs number of workers ---");
    let _ = writeln!(
        s,
        "{:>8} {:>11} {:>16} {:>16} {:>12}",
        "workers", "cores/rank", "samples/s", "ideal", "efficiency"
    );
    for w in worlds {
        let ideal = base.throughput * w.workers as f64;
        let _ = writeln!(
            s,
            "{:>8} {:>11} {:>16.1} {:>16.1} {:>11.1}%",
            w.workers,
            w.cores_per_rank,
            w.throughput,
            ideal,
            100.0 * w.throughput / ideal
        );
    }
    let _ = write!(s, "\n--- Fig. 7b: loss vs epochs ---\n{:>6}", "epoch");
    for w in worlds {
        let _ = write!(s, " {:>12}", format!("{}w", w.workers));
    }
    s.push('\n');
    for e in 0..base.epoch_loss.len() {
        let _ = write!(s, "{e:>6}");
        for w in worlds {
            let _ = write!(s, " {:>12.5}", w.epoch_loss[e]);
        }
        s.push('\n');
    }
    let _ = writeln!(s, "\n--- Fig. 7c: loss vs wall time (seconds) ---");
    for w in worlds {
        let _ = writeln!(s, "workers = {} ({} steps, {} patches)", w.workers, w.steps, w.patches);
        for (t, l) in w.epoch_wall.iter().zip(&w.epoch_loss) {
            let _ = writeln!(s, "  t={t:>9.3}s  loss={l:.5}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfn_data::Dataset;
    use mfn_solver::{simulate, RbcConfig};

    fn sim_ds() -> Dataset {
        let sim = simulate(
            &RbcConfig { nx: 32, nz: 17, ra: 1e5, dt_max: 2e-3, ..Default::default() },
            2.0,
            11,
        );
        Dataset::from_simulation(&sim)
    }

    #[test]
    fn self_evaluation_is_perfect() {
        let ds = sim_ds();
        let nu = (1.0f64 / 1e5).sqrt();
        let scores = evaluate_pair(&ds, &ds, nu, 2);
        for (name, (nmae, r2)) in METRIC_NAMES.iter().zip(scores.nmae_pct.iter().zip(scores.r2)) {
            assert!(nmae.abs() < 1e-9, "{name}: {nmae}");
            assert!((r2 - 1.0).abs() < 1e-9);
        }
        assert!((scores.avg_r2 - 1.0).abs() < 1e-9);
        assert!((scores.median_r2() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn perturbed_prediction_scores_worse() {
        let ds = sim_ds();
        let mut bad = ds.clone();
        for v in bad.data.iter_mut() {
            *v *= 1.3;
        }
        let nu = (1.0f64 / 1e5).sqrt();
        let scores = evaluate_pair(&ds, &bad, nu, 2);
        assert!(scores.nmae_pct.iter().any(|&m| m > 0.5), "{scores:?}");
        assert!(scores.avg_r2 < 1.0);
    }

    #[test]
    fn metric_series_length() {
        let ds = sim_ds();
        let series = metric_series(&ds, 1e-2);
        assert_eq!(series.len(), ds.meta.nt);
        for row in &series {
            assert!(row.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn metric_series_matches_direct_flow_stats() {
        use mfn_solver::Domain;
        let ds = sim_ds();
        let nu = 1e-2;
        let series = metric_series(&ds, nu);
        let domain = Domain::new(ds.meta.nx, ds.meta.nz, ds.meta.lx, ds.meta.lz);
        let f = 7;
        let direct = mfn_physics::flow_stats(
            &domain,
            &ds.channel_frame_f64(f, mfn_data::CH_U),
            &ds.channel_frame_f64(f, mfn_data::CH_W),
            nu,
        )
        .as_array();
        for (a, b) in series[f].iter().zip(direct) {
            assert_eq!(*a, b);
        }
    }

    /// A run whose nine R² are `r2` and whose average is their mean.
    fn run(seed: u64, r2: [f64; 9]) -> Run {
        let avg_r2 = r2.iter().sum::<f64>() / 9.0;
        Run::untrained(seed, Scores { nmae_pct: [1.0; 9], r2, avg_r2 })
    }

    #[test]
    fn a_claim_needs_four_of_five_paired_seeds() {
        let arm = |label: &str, avg: [f64; 5]| Arm {
            label: label.into(),
            runs: (0..5).map(|k| run(k, [avg[k as usize]; 9])).collect(),
        };
        let order =
            |first: &str, second: &str| Order { first: first.into(), second: second.into() };
        let results = Results {
            title: "orders".into(),
            seeds: (0..5).collect(),
            arms: vec![
                arm("a", [0.5, 0.5, 0.5, 0.5, 0.0]),
                arm("b", [0.1, 0.1, 0.1, 0.1, 0.1]),
                arm("c", [0.2, 0.0, 0.2, 0.0, 0.2]),
            ],
            orders: vec![order("a", "b"), order("c", "b"), order("b", "a")],
            ..Default::default()
        };
        let text = render(&results);
        assert!(text.contains("avg R2: a beats b (4 of 5)\n"), "{text}");
        assert!(
            text.contains("avg R2: c over b on 3 of 5: not resolved at this budget\n"),
            "{text}"
        );
        assert!(text.contains("avg R2: a beats b (4 of 5), against the claim\n"), "{text}");
        assert!(text.contains("avg R2 0.1000 [0.1000, 0.1000]"), "{text}");
        assert!(text.contains("avg R2 0.2000 [0.0000, 0.2000]"), "{text}");
    }

    #[test]
    fn a_row_keeps_the_papers_cells_and_a_record_round_trips() {
        let ds = sim_ds();
        let mut bad = ds.clone();
        for v in bad.data.iter_mut() {
            *v *= 1.1;
        }
        let scores = evaluate_pair(&ds, &bad, 1e-2, 2);
        let results = Results {
            title: "one".into(),
            seeds: vec![3],
            arms: vec![Arm {
                label: "fmt".into(),
                runs: vec![Run { scores: scores.clone(), ..run(3, [0.0; 9]) }],
            }],
            ..Default::default()
        };
        let text = render(&results);
        let row = text.lines().find(|l| l.starts_with("fmt")).expect("a row per run");
        for name in METRIC_NAMES {
            assert!(text.contains(name), "{name} column");
        }
        let cell = format!(" {:>8.3}({:>7.4})", scores.nmae_pct[0], scores.r2[0]);
        assert!(row.contains(&cell), "{row}");
        assert!(row.contains(&format!("avgR2={:.4}", scores.avg_r2)), "{row}");
        let json = serde_json::to_string_pretty(&results).expect("serializes");
        let back: Results = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, results);
        assert_eq!(render(&back), text);
    }

    /// A run's budget counts each epoch on the ranks that committed it: a
    /// world that shrinks draws fewer patches than its first size implies.
    #[test]
    fn a_trained_run_counts_every_rank_of_every_epoch() {
        let tc = TrainConfig { batches_per_epoch: 3, batch_size: 4, ..TrainConfig::default() };
        let epoch = |e: usize, prediction: f32| EpochRecord {
            epoch: e,
            loss: prediction + 1.0,
            prediction,
            equation: 0.5,
            seconds: 1.0,
        };
        let epochs = [epoch(0, 2.0), epoch(1, 1.5), epoch(2, 1.25)];
        let scores = run(5, [0.5; 9]).scores;
        let r = Run::trained(5, scores, &epochs, &[4, 4, 2], &tc, 9.0);
        assert_eq!((r.epochs, r.steps, r.patches, r.wall_s), (3, 9, 10 * 3 * 4, 9.0));
        assert_eq!((r.prediction_loss, r.equation_loss), (Some(1.25), Some(0.5)));
        let w = WorldRun::trained(2, 7.0, &epochs, &[4, 4, 2], vec![1.0, 2.0, 3.0], &tc);
        assert_eq!((w.steps, w.patches), (r.steps, r.patches));
        assert_eq!(w.epoch_loss, [3.0, 2.5, 2.25]);
        assert_eq!(w.cores_per_rank, rank_cores(2));
    }
}
