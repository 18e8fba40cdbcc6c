//! Integration tests: the train-state checkpoint round-trips into the
//! serving engine, crash-resume is bit-exact, and corruption is handled.

use meshfreeflownet::core::{
    covering_origins, extract_patch, load_train_state, load_train_state_with_fallback, prev_path,
    CheckpointError, Corpus, FrozenModel, MeshfreeFlowNet, MfnConfig, TrainConfig, Trainer,
};
use meshfreeflownet::data::{downsample, Dataset, PatchSpec};
use meshfreeflownet::dist::{param_digest, train_elastic, FaultPlan, SupervisorConfig};
use meshfreeflownet::solver::{simulate, RbcConfig};
use meshfreeflownet::telemetry::Recorder;
use meshfreeflownet::tensor::Tensor;
use std::path::PathBuf;

/// Per-test unique temp dir, removed on drop (panic included) so parallel
/// `cargo test` processes can't collide on a shared path and a failed test
/// can't poison the next run with stale checkpoints.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("mfn_ckpt_{tag}_{}", std::process::id()));
        // A leftover dir from a previous crashed run with the same pid is
        // stale by definition — replace it.
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

fn tiny_cfg() -> MfnConfig {
    let mut cfg = MfnConfig::small();
    cfg.patch = PatchSpec { nt: 4, nz: 4, nx: 8, queries: 16 };
    cfg.base_channels = 4;
    cfg.latent_channels = 8;
    cfg.mlp_hidden = vec![16, 16];
    cfg.levels = 2;
    cfg
}

fn tiny_corpus() -> (Corpus, Dataset, Dataset) {
    let sim =
        simulate(&RbcConfig { nx: 32, nz: 9, ra: 1e5, dt_max: 2e-3, ..Default::default() }, 0.3, 9);
    let hr = Dataset::from_simulation(&sim);
    let lr = downsample(&hr, 2, 2);
    let corpus = Corpus::new(vec![(hr.clone(), lr.clone())]);
    (corpus, hr, lr)
}

/// What `train` writes is what `serve` loads: a trained `Trainer`'s
/// checkpoint, loaded by `FrozenModel::load_state`, super-resolves bit for
/// bit like the trained model — every covering patch's encode and its
/// decode at a lattice of points, batch-norm running statistics included.
#[test]
fn trained_model_roundtrips_through_checkpoint() {
    let (corpus, _hr, lr) = tiny_corpus();
    let mut trainer = Trainer::new(
        MeshfreeFlowNet::new(tiny_cfg()),
        TrainConfig {
            epochs: 3,
            batches_per_epoch: 4,
            batch_size: 2,
            lr: 5e-3,
            ..Default::default()
        },
    );
    trainer.train(&corpus);

    let dir = TempDir::new("integration");
    let path = dir.path("trained.ckpt.state");
    trainer.save_checkpoint(&path).expect("save");
    let frozen = FrozenModel::load_state(&path).expect("load");
    let untrained = FrozenModel::from_model(MeshfreeFlowNet::new(tiny_cfg()));
    assert_eq!(frozen.trained_steps(), 3 * 4);

    let lattice: Vec<(usize, [f32; 3])> = (0..125)
        .map(|i| (0, [(i / 25) as f32 / 4.0, (i / 5 % 5) as f32 / 4.0, (i % 5) as f32 / 4.0]))
        .collect();
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let spec = trainer.model.cfg.patch;
    let origins = covering_origins(&lr, spec);
    for &t in &origins.t {
        for &z in &origins.z {
            for &x in &origins.x {
                let patch = extract_patch(&lr, [t, z, x], spec, corpus.stats);
                let (want, got) = (trainer.model.encode(&patch), frozen.encode(&patch));
                assert_eq!(bits(&got), bits(&want), "encode of patch {:?}", [t, z, x]);
                assert_ne!(bits(&untrained.encode(&patch)), bits(&want), "load had no effect");
                assert_eq!(
                    bits(&frozen.decode_values(&got, lattice.iter().copied())),
                    bits(&trainer.model.decode_values(&want, lattice.iter().copied())),
                    "decode of patch {:?}",
                    [t, z, x]
                );
            }
        }
    }
}

/// A train state is served as the architecture it was written under —
/// the file alone decides it — and a model of another architecture (wider
/// latent grid) refuses to resume it, as a typed `Incompatible` rather than
/// misloaded weights or a panic.
#[test]
fn load_rejects_different_architecture() {
    let trainer = Trainer::new(MeshfreeFlowNet::new(tiny_cfg()), TrainConfig::default());
    let dir = TempDir::new("arch");
    let path = dir.path("m.ckpt.state");
    trainer.save_checkpoint(&path).expect("save");
    assert_eq!(FrozenModel::load_state(&path).expect("load").cfg(), &tiny_cfg());
    let mut bigger_cfg = tiny_cfg();
    bigger_cfg.latent_channels = 16;
    assert!(matches!(
        Trainer::resume(MeshfreeFlowNet::new(bigger_cfg), TrainConfig::default(), &path),
        Err(CheckpointError::Incompatible(_))
    ));
}

/// The architecture differences that leave every tensor shape alone — γ,
/// the patch's extent, the constraint set — refuse a resume as well, in the
/// single trainer and in the data-parallel supervisor: the checkpoint's
/// Eqn. 10 loss and pooling schedule are not this run's.
#[test]
fn resume_under_another_config_is_incompatible() {
    let (corpus, _hr, _lr) = tiny_corpus();
    let tc = TrainConfig { epochs: 1, batches_per_epoch: 2, batch_size: 2, ..Default::default() };
    let dir = TempDir::new("config_drift");
    let single = dir.path("single.state");
    let elastic = dir.path("elastic.state");
    let sup = |path: &PathBuf| SupervisorConfig {
        workers: 1,
        checkpoint_path: Some(path.clone()),
        ..Default::default()
    };
    let run = |cfg: &MfnConfig, path: &PathBuf| {
        train_elastic(&corpus, cfg, &tc, &sup(path), &FaultPlan::none(), Recorder::null())
    };
    Trainer::new(MeshfreeFlowNet::new(tiny_cfg()), tc).save_checkpoint(&single).expect("save");
    assert!(run(&tiny_cfg(), &elastic).completed);

    let mut gamma = tiny_cfg();
    gamma.gamma = 0.0;
    let mut patch = tiny_cfg();
    patch.patch = PatchSpec { nt: 4, nz: 8, nx: 8, queries: 16 };
    let mut constraints = tiny_cfg();
    constraints.constraints.momentum_x = false;
    for (what, cfg) in [("gamma", gamma), ("patch", patch), ("constraints", constraints)] {
        match Trainer::resume(MeshfreeFlowNet::new(cfg.clone()), tc, &single) {
            Err(CheckpointError::Incompatible(m)) => {
                assert!(m.contains(&tiny_cfg().to_json()) && m.contains(&cfg.to_json()), "{m}")
            }
            Err(other) => panic!("{what}: expected Incompatible, got {other:?}"),
            Ok(_) => panic!("{what}: resumed under another config"),
        }
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&cfg, &elastic)))
            .expect_err(what);
        let msg = panic.downcast_ref::<String>().map_or("", String::as_str);
        assert!(msg.contains("incompatible checkpoint"), "{what}: {msg}");
    }
}

/// The headline resume guarantee: 6 epochs straight vs. 3 epochs → full
/// train-state save → a brand-new `Trainer::resume` → 3 more epochs must
/// agree on every parameter bit and every per-step loss. This pins the
/// entire serialized state — Adam moments and step count (bias correction),
/// sampler RNG position, lr schedule, and the epoch cursor.
#[test]
fn crash_resume_is_bit_identical_to_uninterrupted_run() {
    let (corpus, _hr, _lr) = tiny_corpus();
    let tc = |epochs: usize| TrainConfig {
        epochs,
        batches_per_epoch: 4,
        batch_size: 2,
        lr: 5e-3,
        lr_decay: 0.8, // exercise the schedule across the resume boundary
        seed: 11,
        ..Default::default()
    };

    // Reference: 6 uninterrupted epochs.
    let (rec_a, sink_a) = Recorder::memory(8192);
    let mut straight = Trainer::new(MeshfreeFlowNet::new(tiny_cfg()), tc(6)).with_recorder(rec_a);
    straight.train(&corpus);
    let digest_straight = param_digest(&straight.model.store.flatten());

    // Interrupted: 3 epochs, save, then a fresh process-style resume.
    let dir = TempDir::new("resume");
    let path = dir.path("state.ckpt");
    let (rec_b, sink_b) = Recorder::memory(8192);
    let mut first = Trainer::new(MeshfreeFlowNet::new(tiny_cfg()), tc(3)).with_recorder(rec_b);
    first.train(&corpus);
    first.save_checkpoint(&path).expect("save");
    drop(first); // nothing from the first half survives in memory

    let (rec_c, sink_c) = Recorder::memory(8192);
    let mut resumed = Trainer::resume(MeshfreeFlowNet::new(tiny_cfg()), tc(6), &path)
        .expect("resume")
        .with_recorder(rec_c);
    assert_eq!(resumed.steps_taken(), 3 * 4);
    resumed.train(&corpus);
    let digest_resumed = param_digest(&resumed.model.store.flatten());

    assert_eq!(
        digest_straight, digest_resumed,
        "digest(6 epochs) != digest(3 + resume + 3): resumed trajectory diverged"
    );
    // Per-step losses must agree too: the first 12 from the pre-crash run,
    // the last 12 from the resumed one, against the uninterrupted reference.
    let straight_losses: Vec<u32> =
        sink_a.train_steps().iter().map(|m| m.loss_total.to_bits()).collect();
    let mut stitched: Vec<u32> =
        sink_b.train_steps().iter().map(|m| m.loss_total.to_bits()).collect();
    stitched.extend(sink_c.train_steps().iter().map(|m| m.loss_total.to_bits()));
    assert_eq!(straight_losses, stitched, "per-step losses diverged across the resume");
    // Adam state carried over: step counters match an uninterrupted run.
    assert_eq!(resumed.steps_taken(), 6 * 4);
    // The resumed run continued the lr schedule instead of restarting it.
    let expect_lr = 5e-3f32 * 0.8f32.powi(5);
    assert!((resumed.opt.config().lr - expect_lr).abs() < 1e-9);
}

fn short_run_config() -> TrainConfig {
    TrainConfig {
        epochs: 2,
        batches_per_epoch: 2,
        batch_size: 2,
        lr: 5e-3,
        seed: 29,
        ..Default::default()
    }
}

/// A uniform run's checkpoint ends with the Adam block, and a resumed
/// trainer writes back the very same bytes, so the payload round-trips
/// through `Trainer::resume` without loss.
#[test]
fn uniform_checkpoint_has_no_sampler_section_and_round_trips() {
    let (corpus, _hr, _lr) = tiny_corpus();
    let tc = short_run_config();
    let dir = TempDir::new("uniform_section");
    let path = dir.path("state.ckpt");
    let mut trainer = Trainer::new(MeshfreeFlowNet::new(tiny_cfg()), tc);
    trainer.train(&corpus);
    trainer.save_checkpoint(&path).expect("save");
    let payload = load_train_state(&path).expect("load");

    let resumed = Trainer::resume(MeshfreeFlowNet::new(tiny_cfg()), tc, &path)
        .expect("uniform state resumes");
    let again = dir.path("again.ckpt");
    resumed.save_checkpoint(&again).expect("save resumed");
    assert_eq!(
        load_train_state(&again).expect("load resumed"),
        payload,
        "resume → save must reproduce the checkpoint payload byte for byte"
    );
}

/// A frame of format version 1 — written before the architecture moved
/// into the payload, possibly with the removed adaptive sampler's section
/// after the Adam state — is intact but another format: `Incompatible`,
/// naming its version, both when served and when resumed.
#[test]
fn version_one_frame_is_incompatible_and_named() {
    let dir = TempDir::new("v1");
    let path = dir.path("state.ckpt");
    let trainer = Trainer::new(MeshfreeFlowNet::new(tiny_cfg()), short_run_config());
    trainer.save_checkpoint(&path).expect("save");
    let mut frame = std::fs::read(&path).expect("read");
    frame[8..12].copy_from_slice(&1u32.to_le_bytes());
    std::fs::write(&path, &frame).expect("write");
    for err in [
        load_train_state(&path).err(),
        FrozenModel::load_state(&path).err(),
        Trainer::resume(MeshfreeFlowNet::new(tiny_cfg()), short_run_config(), &path).err(),
    ] {
        match err {
            Some(CheckpointError::Incompatible(m)) => assert!(m.contains("version 1"), "{m}"),
            other => panic!("expected Incompatible, got {other:?}"),
        }
    }
}

/// A mid-epoch checkpoint (periodic writer) resumes just as exactly: the
/// batch cursor and sampler position land inside the epoch.
#[test]
fn mid_epoch_periodic_checkpoint_resumes_bit_identical() {
    let (corpus, _hr, _lr) = tiny_corpus();
    let dir = TempDir::new("midepoch");
    let path = dir.path("periodic.ckpt");
    let tc = |epochs: usize, every: usize| TrainConfig {
        epochs,
        batches_per_epoch: 4,
        batch_size: 2,
        lr: 5e-3,
        seed: 23,
        checkpoint_every: every,
        ..Default::default()
    };

    let mut straight = Trainer::new(MeshfreeFlowNet::new(tiny_cfg()), tc(3, 0));
    straight.train(&corpus);

    // Periodic writer fires every 5 steps: the last write of a 12-step run
    // lands at step 10 = epoch 2, batch 2 (mid-epoch).
    let mut interrupted =
        Trainer::new(MeshfreeFlowNet::new(tiny_cfg()), tc(3, 5)).with_checkpointing(&path);
    interrupted.train(&corpus);
    let mut resumed =
        Trainer::resume(MeshfreeFlowNet::new(tiny_cfg()), tc(3, 0), &path).expect("resume");
    assert_eq!(resumed.steps_taken(), 10, "expected the step-10 periodic checkpoint");
    resumed.train(&corpus);
    assert_eq!(
        param_digest(&straight.model.store.flatten()),
        param_digest(&resumed.model.store.flatten()),
        "mid-epoch resume diverged from the uninterrupted run"
    );
}

/// A mid-epoch checkpoint resumed under shorter epochs is refused as
/// `Incompatible`: its batch cursor lies at or past the new epoch's end, where
/// the epoch loop would run no batch (a zero-loss epoch in release, a
/// subtraction overflow in debug).
#[test]
fn batch_cursor_past_the_epoch_is_incompatible() {
    let (corpus, _hr, _lr) = tiny_corpus();
    let dir = TempDir::new("cursor");
    let path = dir.path("periodic.ckpt");
    let tc = |batches_per_epoch: usize, every: usize| TrainConfig {
        epochs: 1,
        batches_per_epoch,
        batch_size: 2,
        seed: 31,
        checkpoint_every: every,
        ..Default::default()
    };
    // The only periodic write of this 8-step epoch is at batch 6.
    Trainer::new(MeshfreeFlowNet::new(tiny_cfg()), tc(8, 6))
        .with_checkpointing(&path)
        .train(&corpus);
    for batches_per_epoch in [4, 6] {
        match Trainer::resume(MeshfreeFlowNet::new(tiny_cfg()), tc(batches_per_epoch, 0), &path) {
            Err(CheckpointError::Incompatible(msg)) => assert!(msg.contains("batch 6"), "{msg}"),
            Err(other) => {
                panic!("{batches_per_epoch} batches: expected Incompatible, got {other:?}")
            }
            Ok(_) => panic!("{batches_per_epoch} batches: a cursor of 6 must not resume"),
        }
    }
    let resumed =
        Trainer::resume(MeshfreeFlowNet::new(tiny_cfg()), tc(8, 0), &path).expect("same epochs");
    assert_eq!(resumed.steps_taken(), 6);
}

/// Truncation and bit flips must surface as typed `CheckpointError`s, and
/// the rotated `.prev` checkpoint must be recoverable through the fallback
/// loader after the newest write is damaged.
#[test]
fn corrupt_train_state_is_rejected_and_prev_recovers() {
    let (corpus, _hr, _lr) = tiny_corpus();
    let dir = TempDir::new("corrupt");
    let path = dir.path("state.ckpt");
    let tc = TrainConfig {
        epochs: 2,
        batches_per_epoch: 2,
        batch_size: 2,
        lr: 5e-3,
        seed: 5,
        ..Default::default()
    };
    let mut trainer = Trainer::new(MeshfreeFlowNet::new(tiny_cfg()), tc);
    trainer.train(&corpus);
    trainer.save_checkpoint(&path).expect("save 1");
    let digest_at_save1 = param_digest(&trainer.model.store.flatten());
    // Train a little more and save again: the first state rotates to .prev.
    trainer.cfg.epochs = 3;
    trainer.train(&corpus);
    trainer.save_checkpoint(&path).expect("save 2");
    assert!(prev_path(&path).exists(), "second save must rotate the first to .prev");

    let good = std::fs::read(&path).expect("read");

    // Truncated mid-file → Corrupt, not a panic.
    std::fs::write(&path, &good[..good.len() / 2]).expect("truncate");
    assert!(matches!(load_train_state(&path), Err(CheckpointError::Corrupt(_))));

    // Flip one byte inside the tensor payload → CRC catches it.
    let mut flipped = good.clone();
    let pos = flipped.len() - 10;
    flipped[pos] ^= 0x01;
    std::fs::write(&path, &flipped).expect("flip");
    assert!(matches!(load_train_state(&path), Err(CheckpointError::Corrupt(_))));

    // The supervisor-style fallback serves the previous good checkpoint.
    let recovered = load_train_state_with_fallback(&path).expect("fallback");
    assert!(!recovered.is_empty());
    let resumed = Trainer::resume(MeshfreeFlowNet::new(tiny_cfg()), tc, &path)
        .expect("resume must fall back to .prev");
    assert_eq!(
        param_digest(&resumed.model.store.flatten()),
        digest_at_save1,
        "fallback resume must restore the previous good state"
    );

    // With the fallback also gone, resume reports the corruption.
    std::fs::remove_file(prev_path(&path)).expect("rm prev");
    match Trainer::resume(MeshfreeFlowNet::new(tiny_cfg()), tc, &path) {
        Err(CheckpointError::Corrupt(_)) => {}
        Err(other) => panic!("expected Corrupt error, got {other:?}"),
        Ok(_) => panic!("resume must not succeed with both copies corrupt/missing"),
    }
}
