//! A train-state file decides the shape of the model
//! `FrozenModel::load_state` builds, so its architecture section is checked
//! against the payload before it sizes anything. Three CRC-valid version-2
//! frames whose sections claim 70 U-Net levels, a 2^40-channel stem and a
//! 2^30-wide decoder layer are each refused with a typed error, and a
//! counting global allocator shows that no single allocation reached 1 MiB.
//! Every proper prefix of an honest payload is `Corrupt`, and none of them
//! makes the decoder allocate more than the payload's own length.

use mfn_autodiff::{Adam, AdamConfig};
use mfn_core::{
    decode_train_state, encode_train_state, save_train_state, CheckpointError, FrozenModel,
    MeshfreeFlowNet, MfnConfig, RngState, TrainStateMeta,
};
use mfn_data::PatchSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, recording the largest size it was asked for.
struct Largest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method passes its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; recording a size allocates nothing.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, hence from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Largest = Largest;

fn tiny_cfg() -> MfnConfig {
    let mut cfg = MfnConfig::small();
    cfg.patch = PatchSpec { nt: 4, nz: 4, nx: 8, queries: 16 };
    cfg.base_channels = 4;
    cfg.latent_channels = 8;
    cfg.mlp_hidden = vec![16, 16];
    cfg.levels = 2;
    cfg
}

#[test]
fn absurd_architecture_sections_are_refused_before_allocating() {
    let cfg = tiny_cfg();
    let model = MeshfreeFlowNet::new(cfg.clone());
    let opt = Adam::new(&model.store, AdamConfig::default());
    let rngs = vec![RngState { seed: 1, words: 0 }];
    let meta = TrainStateMeta { global_step: 0, epoch: 0, batch_cursor: 0, rngs };
    let payload = encode_train_state(&model, &opt, &meta);
    let section = 4 + cfg.to_json().len();

    let dir = std::env::temp_dir().join(format!("mfn_hostile_state_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("state.ckpt");
    save_train_state(&path, &payload).expect("save");
    assert_eq!(FrozenModel::load_state(&path).expect("the honest frame loads").cfg(), &cfg);

    let hostile: [fn(&mut MfnConfig); 3] =
        [|c| c.levels = 70, |c| c.base_channels = 1 << 40, |c| c.mlp_hidden = vec![1 << 30]];
    for claim in hostile {
        let mut lie = cfg.clone();
        claim(&mut lie);
        let json = lie.to_json();
        let mut bytes = (json.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(json.as_bytes());
        bytes.extend_from_slice(&payload[section..]);
        save_train_state(&path, &bytes).expect("save hostile frame");

        LARGEST.store(0, Ordering::Relaxed);
        let result = FrozenModel::load_state(&path);
        let largest = LARGEST.load(Ordering::Relaxed);
        match result {
            Err(CheckpointError::Corrupt(m)) => assert!(m.contains("architecture"), "{m}"),
            Err(other) => panic!("{json}: expected Corrupt, got {other:?}"),
            Ok(_) => panic!("{json}: built a model the payload cannot hold"),
        }
        assert!(largest < 1 << 20, "{json}: a {largest}-byte allocation");
    }
    std::fs::remove_dir_all(&dir).ok();

    let mut m = MeshfreeFlowNet::new(cfg);
    LARGEST.store(0, Ordering::Relaxed);
    for cut in 0..payload.len() {
        match decode_train_state(&mut m, &mut &payload[..cut]) {
            Err(CheckpointError::Corrupt(_)) => {}
            other => panic!("prefix of {cut} bytes: expected Corrupt, got {:?}", other.map(|_| ())),
        }
    }
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(largest <= payload.len(), "a {largest}-byte allocation, payload {}", payload.len());
}
