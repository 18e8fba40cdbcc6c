//! Chaos suite: fault-injected distributed training (ISSUE PR 3).
//!
//! Each test scripts failures through a [`FaultPlan`] and checks the elastic
//! supervisor's contract: no hangs, no partial commits, telemetry that
//! records what happened, and — when the world is held fixed — bit-identical
//! results to a run that never faulted.

use meshfreeflownet::core::{Corpus, MfnConfig, TrainConfig};
use meshfreeflownet::data::{downsample, Dataset, PatchSpec};
use meshfreeflownet::dist::{ring, train_elastic, FaultPlan, RingError, SupervisorConfig};
use meshfreeflownet::solver::{simulate, RbcConfig};
use meshfreeflownet::telemetry::{MemorySink, Recorder};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// When `MFN_CHAOS_TELEMETRY` is set (the CI chaos job does this), dump the
/// scenario's in-memory telemetry as JSONL before any assertion runs, so a
/// failed pass leaves its full event stream behind as an artifact.
fn dump_telemetry(sink: &MemorySink, tag: &str) {
    if let Ok(base) = std::env::var("MFN_CHAOS_TELEMETRY") {
        let path = PathBuf::from(format!("{base}.{tag}"));
        if let Err(e) = sink.write_jsonl(&path) {
            eprintln!("telemetry dump to {} failed: {e}", path.display());
        }
    }
}

/// Per-test unique temp dir, removed on drop (panic included).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("mfn_chaos_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("mkdir");
        TempDir(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn tiny_setup(epochs: usize, batches_per_epoch: usize) -> (Corpus, MfnConfig, TrainConfig) {
    let sim =
        simulate(&RbcConfig { nx: 16, nz: 9, ra: 1e5, dt_max: 2e-3, ..Default::default() }, 0.1, 9);
    let hr = Dataset::from_simulation(&sim);
    let lr = downsample(&hr, 2, 2);
    let corpus = Corpus::new(vec![(hr, lr)]);
    let mut cfg = MfnConfig::small();
    cfg.patch = PatchSpec { nt: 4, nz: 4, nx: 4, queries: 8 };
    cfg.base_channels = 4;
    cfg.latent_channels = 8;
    cfg.mlp_hidden = vec![16, 16];
    cfg.levels = 2;
    let tc =
        TrainConfig { epochs, batches_per_epoch, batch_size: 2, lr: 5e-3, ..Default::default() };
    (corpus, cfg, tc)
}

fn median(xs: &[f32]) -> f32 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    v[v.len() / 2]
}

/// ISSUE satellite (a), scenario 1: kill rank 1 mid-epoch in elastic-shrink
/// mode. The run must complete on the reduced world (no deadlock), keep the
/// loss trending down, and emit the failure counters.
#[test]
fn killed_worker_shrinks_world_and_training_still_converges() {
    let (corpus, cfg, tc) = tiny_setup(6, 6);
    let sup = SupervisorConfig { workers: 2, restart_failed: false, ..Default::default() };
    // Global step 9 = epoch 1, batch 3: squarely mid-epoch.
    let plan = FaultPlan::none().kill(1, 9);
    let (recorder, sink) = Recorder::memory(16384);
    let result = train_elastic(&corpus, &cfg, &tc, &sup, &plan, recorder);
    dump_telemetry(&sink, "shrink");

    assert!(result.completed, "run must finish on the surviving world");
    assert_eq!(result.final_world, 1, "world must have shrunk to the survivor");
    assert_eq!(result.failures, 1);
    assert_eq!(result.ring_reforms, 1);
    assert_eq!(result.epoch_losses.len(), tc.epochs, "every epoch must commit");
    // Epoch 0 committed at full strength; everything after the kill ran on
    // the reduced world.
    assert_eq!(result.epoch_worlds[0], 2);
    assert!(result.epoch_worlds[1..].iter().all(|&w| w == 1), "{:?}", result.epoch_worlds);
    // Loss keeps decreasing across the failure: median of the first half of
    // epoch losses vs the second half.
    let half = result.epoch_losses.len() / 2;
    let (first, last) =
        (median(&result.epoch_losses[..half]), median(&result.epoch_losses[half..]));
    assert!(last < first, "loss did not keep dropping after the kill: {first} -> {last}");
    // Telemetry recorded the event stream the ISSUE names.
    assert_eq!(sink.counter_total("dist.failures"), 1);
    assert_eq!(sink.counter_total("dist.ring_reforms"), 1);
    // The world gauge ends at the shrunken size.
    assert_eq!(sink.gauge("dist.world"), Some(1.0));
    // Both ranks emitted step metrics before the kill; only rank 0 after.
    let steps = sink.train_steps();
    assert!(steps.iter().any(|m| m.rank == 1), "rank 1 trained before dying");
    assert!(steps.iter().all(|m| m.allreduce_wait_s >= 0.0));
}

/// ISSUE satellite (a), scenario 2: kill-and-resume is deterministic. With
/// the failed rank restarted (world held fixed), the faulted run — rollback,
/// ring re-form, retry — must land on exactly the digest of a run under the
/// no-op plan, while the supervisor checkpoints every round.
#[test]
fn kill_and_resume_matches_no_fault_plan_bit_for_bit() {
    let (corpus, cfg, tc) = tiny_setup(3, 4);
    let dir = TempDir::new("killresume");
    let clean_sup = SupervisorConfig { workers: 2, restart_failed: true, ..Default::default() };
    let clean = train_elastic(&corpus, &cfg, &tc, &clean_sup, &FaultPlan::none(), Recorder::null());

    let faulted_sup = SupervisorConfig {
        workers: 2,
        restart_failed: true,
        checkpoint_path: Some(dir.path("elastic.ckpt")),
        ..Default::default()
    };
    let plan = FaultPlan::none().kill(1, 6); // mid-epoch 1
    let (recorder, sink) = Recorder::memory(16384);
    let faulted = train_elastic(&corpus, &cfg, &tc, &faulted_sup, &plan, recorder);
    dump_telemetry(&sink, "killresume");

    assert!(faulted.completed);
    assert_eq!(faulted.failures, 1);
    assert_eq!(faulted.ring_reforms, 1);
    assert_eq!(faulted.final_world, 2, "restart mode holds the world fixed");
    assert!(
        faulted.final_state == clean.final_state,
        "rollback + restart must reproduce the faultless state"
    );
    // The checkpoint writer ran before every epoch (plus the retried round
    // and the final state) and reported its volume.
    assert!(sink.counter_total("ckpt.writes") > tc.epochs as u64);
    assert!(sink.counter_total("ckpt.bytes") > 0);
    assert!(sink.gauge("ckpt.write_s").is_some());
}

/// A supervisor run interrupted between epochs resumes from its checkpoint
/// and finishes bit-identically to an uninterrupted elastic run.
#[test]
fn elastic_resume_from_checkpoint_is_bit_identical() {
    let (corpus, cfg, tc4) = tiny_setup(4, 4);
    let tc2 = TrainConfig { epochs: 2, ..tc4 };
    let dir = TempDir::new("elasticresume");
    let path = dir.path("super.ckpt");

    let straight_sup = SupervisorConfig { workers: 2, ..Default::default() };
    let straight =
        train_elastic(&corpus, &cfg, &tc4, &straight_sup, &FaultPlan::none(), Recorder::null());

    let ckpt_sup =
        SupervisorConfig { workers: 2, checkpoint_path: Some(path.clone()), ..Default::default() };
    // First half: 2 epochs, final state persisted...
    let first = train_elastic(&corpus, &cfg, &tc2, &ckpt_sup, &FaultPlan::none(), Recorder::null());
    assert!(first.completed);
    // ...second supervisor picks the checkpoint up and runs epochs 2..4.
    let resumed =
        train_elastic(&corpus, &cfg, &tc4, &ckpt_sup, &FaultPlan::none(), Recorder::null());
    assert!(resumed.completed);
    assert_eq!(resumed.epoch_losses.len(), 2, "resume must skip the committed epochs");
    assert!(
        resumed.final_state == straight.final_state,
        "checkpoint-resumed elastic run diverged from the uninterrupted one"
    );
}

/// A stalled (not dead) worker: the delay outlives the all-reduce budget, so
/// the healthy peers error out, the supervisor rolls back and retries, and —
/// the stall being one-shot — the retry commits. Determinism holds because
/// no partial epoch was committed.
#[test]
fn stalled_allreduce_times_out_rolls_back_and_retries() {
    let (corpus, cfg, tc) = tiny_setup(3, 4);
    let sup = SupervisorConfig {
        workers: 2,
        allreduce_timeout: Duration::from_millis(300),
        ..Default::default()
    };
    let clean = train_elastic(&corpus, &cfg, &tc, &sup, &FaultPlan::none(), Recorder::null());
    let plan = FaultPlan::none().delay(0, 6, Duration::from_secs(1));
    let (recorder, sink) = Recorder::memory(16384);
    let result = train_elastic(&corpus, &cfg, &tc, &sup, &plan, recorder);
    dump_telemetry(&sink, "stall");

    assert!(result.completed);
    assert_eq!(result.failures, 1, "the stall round counts as one failure");
    assert_eq!(result.ring_reforms, 1);
    assert_eq!(result.final_world, 2, "a stall kills no rank; the world stays whole");
    assert!(result.final_state == clean.final_state);
    assert_eq!(sink.counter_total("dist.failures"), 1);
    assert_eq!(sink.counter_total("dist.ring_reforms"), 1);
}

/// ISSUE satellite (a), scenario 3 — ring level: an all-reduce against a
/// dead peer returns a typed error within the configured timeout instead of
/// hanging forever.
#[test]
fn allreduce_with_dead_peer_errors_within_timeout() {
    let timeout = Duration::from_secs(5);
    let mut handles = ring(3);
    // Rank 2 "crashes": dropping its handle closes its channel endpoints.
    drop(handles.pop());
    let start = Instant::now();
    let results: Vec<Result<(), RingError>> = std::thread::scope(|scope| {
        let joins: Vec<_> = handles
            .into_iter()
            .map(|h| {
                scope.spawn(move || {
                    let mut buf = vec![1.0f32; 64];
                    h.all_reduce(&mut buf, Some(timeout))
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().expect("no panic")).collect()
    });
    let waited = start.elapsed();
    assert!(waited < timeout, "survivors must fail fast, waited {waited:?}");
    assert!(results.iter().all(|r| r.is_err()), "every survivor must see the failure");
    assert!(
        results.iter().any(|r| matches!(r, Err(RingError::PeerDisconnected { .. }))),
        "at least one survivor must name the dead peer: {results:?}"
    );
}
