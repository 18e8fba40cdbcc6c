//! End-to-end serving: a real `MFNSTAT1` checkpoint on disk, the one file
//! with the architecture inside → `FrozenModel::load_state` → live TCP
//! server → concurrent clients — with every served value spot-checked
//! bit-for-bit against a direct in-process `FrozenModel` decode of the same
//! checkpoint. This is the whole serving path in one test, minus only the
//! binaries' argv parsing.

use mfn_autodiff::{Adam, AdamConfig, Graph};
use mfn_core::{
    encode_train_state, save_train_state, FrozenModel, MeshfreeFlowNet, MfnConfig, SampleRng,
    TrainStateMeta,
};
use mfn_data::PatchSpec;
use mfn_serve::{Client, Engine, EngineConfig, Server, ServerConfig};
use mfn_telemetry::Recorder;
use mfn_tensor::Tensor;
use std::path::PathBuf;
use std::sync::Arc;

/// Per-test unique temp dir, removed on drop (panic included) so parallel
/// `cargo test` processes can't collide on a shared path.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("mfn_serve_{tag}_{}", std::process::id()));
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
    cfg.seed = 23;
    cfg
}

fn lcg_f32(state: &mut u64) -> f32 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    ((*state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
}

fn gen_patch(idx: u64, numel: usize) -> Vec<f32> {
    let mut state = (idx + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (0..numel).map(|_| lcg_f32(&mut state)).collect()
}

fn gen_queries(seed: u64, n: usize) -> Vec<(usize, [f32; 3])> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            (
                0usize,
                [lcg_f32(&mut state) + 0.5, lcg_f32(&mut state) + 0.5, lcg_f32(&mut state) + 0.5],
            )
        })
        .collect()
}

/// Writes a checkpoint whose BN running stats have genuinely drifted (a
/// fresh-init model would hide stats-restore bugs behind identical inits).
fn write_checkpoint(dir: &TempDir) -> (PathBuf, MfnConfig) {
    let cfg = tiny_cfg();
    let mut model = MeshfreeFlowNet::new(cfg.clone());
    for i in 0..4u64 {
        let dims = [2, cfg.in_channels, cfg.patch.nt, cfg.patch.nz, cfg.patch.nx];
        let numel: usize = dims.iter().product();
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_vec(gen_patch(100 + i, numel), &dims));
        let _ = model.unet.forward(&mut g, &model.store, x, true);
    }
    let opt = Adam::new(&model.store, AdamConfig::default());
    let meta = TrainStateMeta {
        global_step: 42,
        epoch: 1,
        batch_cursor: 0,
        rngs: vec![SampleRng::seed_from_u64(7).state()],
    };
    let ckpt = dir.path("model.ckpt.state");
    save_train_state(&ckpt, &encode_train_state(&model, &opt, &meta)).expect("save checkpoint");
    (ckpt, cfg)
}

#[test]
fn serve_loads_checkpoint_and_matches_direct_decode() {
    let dir = TempDir::new("e2e");
    let (ckpt, cfg) = write_checkpoint(&dir);

    // The serving path: checkpoint → frozen engine.
    let frozen = FrozenModel::load_state(&ckpt).expect("load checkpoint");
    assert_eq!(frozen.cfg(), &cfg, "the checkpoint carries the full config");
    assert_eq!(frozen.trained_steps(), 42, "meta.global_step must survive the round trip");

    // Reference: an independent load of the same checkpoint, used for
    // direct in-process decodes to check the served values against.
    let reference = FrozenModel::load_state(&ckpt).expect("reference load");

    let engine = Arc::new(Engine::new(frozen, EngineConfig::default()));
    let numel = engine.patch_numel(1);
    let server = Server::start(
        engine.clone(),
        ServerConfig { workers: 3, ..ServerConfig::default() },
        Recorder::null(),
    )
    .expect("start server");
    let addr = server.local_addr().to_string();

    // Sanity-check model metadata over the wire.
    let mut probe = Client::connect(&addr).expect("connect");
    let info = probe.info().expect("info");
    assert_eq!(info.trained_steps, 42);
    assert_eq!(info.latent_channels as usize, cfg.latent_channels);
    assert_eq!((info.in_channels * info.grid[0] * info.grid[1] * info.grid[2]) as usize, numel);

    // Concurrent clients, each with its own patch and query set.
    let reference = Arc::new(reference);
    let handles: Vec<_> = (0..4u64)
        .map(|tid| {
            let addr = addr.clone();
            let reference = reference.clone();
            let cfg = cfg.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("worker connect");
                let patch = gen_patch(tid, numel);
                let qs = gen_queries(tid * 31 + 5, 24);
                let resp = client.encode_query(1, &patch, &qs).expect("encode_query");
                assert_eq!(resp.channels, cfg.out_channels);
                assert_eq!(resp.values.len(), qs.len() * cfg.out_channels);

                // Direct decode of the same patch through the same weights
                // must be bit-identical to what came over the wire.
                let dims = [1, cfg.in_channels, cfg.patch.nt, cfg.patch.nz, cfg.patch.nx];
                let latent = reference.encode(&Tensor::from_vec(patch, &dims));
                let direct = reference.decode_values(&latent, qs.iter().copied());
                let direct = direct.data();
                assert_eq!(direct.len(), resp.values.len());
                for (i, (a, b)) in resp.values.iter().zip(direct.iter()).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "served value {i} differs from direct decode ({a} vs {b})"
                    );
                }

                // Second round on the same patch must be a cache hit with
                // identical bits.
                let again = client.encode_query(1, &gen_patch(tid, numel), &qs).expect("rerun");
                assert!(again.cache_hit, "identical patch bytes must hit the cache");
                assert_eq!(again.digest, resp.digest);
                for (a, b) in again.values.iter().zip(resp.values.iter()) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }

    assert!(engine.cache().hits() >= 4, "each client's rerun should have hit the cache");
    server.shutdown();
}
