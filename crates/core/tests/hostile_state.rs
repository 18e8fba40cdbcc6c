//! A train-state file decides the shape of the model
//! `FrozenModel::load_state` builds, so its architecture section is checked
//! against the payload before it sizes anything. Three CRC-valid version-2
//! frames whose sections claim 70 U-Net levels, a 2^40-channel stem and a
//! 2^30-wide decoder layer are each refused with a typed error, and a
//! counting global allocator shows that no single allocation reached 1 MiB.
//! Every proper prefix of an honest payload is `Corrupt`, and none of them
//! makes the decoder allocate more than the payload's own length.
//!
//! Then a seeded sweep of hostile bytes into both loaders: honest
//! `MFNSTAT1` payloads (re-framed, so they pass the CRC) and `MFNDATA2`
//! files, each mutated by the moves of `mfn-serve`'s protocol fuzzer. Every
//! one loads or is refused with a typed error — never a panic — and no
//! single allocation is larger than the file it came from (or, for a file
//! shorter than 1 KiB, than parsing its JSON section takes). A CRC-valid
//! state whose sampler claims a position near 2^63 resumes there within a
//! second: the stream is sought, not replayed.

use mfn_autodiff::{Adam, AdamConfig};
use mfn_core::{
    decode_train_state, encode_train_state, load_train_state_with_fallback, save_train_state,
    CheckpointError, FrozenModel, MeshfreeFlowNet, MfnConfig, RngState, TrainConfig,
    TrainStateMeta, Trainer,
};
use mfn_data::{load_dataset, save_dataset, Dataset, PatchSpec};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The system allocator, recording the largest size it was asked for.
struct Largest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

/// Held by every test while it reads `LARGEST`: the harness runs tests on
/// parallel threads, and one test's allocations are not another's.
static SERIAL: Mutex<()> = Mutex::new(());

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
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
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

/// One seeded mutation, one of the five moves of `mfn-serve`'s protocol
/// fuzzer: truncate anywhere, flip a bit of a length field (`lengths` are
/// their byte ranges in the honest bytes), flip any bit, overwrite a byte
/// with garbage, or splice in a short run of garbage.
fn mutate(rng: &mut ChaCha8Rng, bytes: &mut Vec<u8>, lengths: &[Range<usize>]) {
    match rng.gen_range(0..5) {
        0 => bytes.truncate(rng.gen_range(0..=bytes.len())),
        1 => {
            let field = &lengths[rng.gen_range(0..lengths.len())];
            if field.end <= bytes.len() {
                bytes[rng.gen_range(field.clone())] ^= 1 << rng.gen_range(0..8);
            }
        }
        2 if !bytes.is_empty() => {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] ^= 1 << rng.gen_range(0..8);
        }
        3 if !bytes.is_empty() => {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] = rng.next_u32() as u8;
        }
        _ => {
            let at = rng.gen_range(0..=bytes.len());
            let run: Vec<u8> = (0..rng.gen_range(1..=7)).map(|_| rng.next_u32() as u8).collect();
            bytes.splice(at..at, run);
        }
    }
}

/// The largest allocation parsing an honest metadata or architecture section
/// takes, whatever the file around it claims: the vendored JSON parser's
/// value tree, 896 bytes for these ~300-byte sections. A truncated file can
/// still hold a whole section, so the bound below never falls under this.
const PARSE_TREE: usize = 1 << 10;

/// `cases` seeded variants of `honest`, each one to three mutations deep,
/// written to `path` by `write` and handed to `load`, which must neither
/// panic nor make an allocation larger than the file (or [`PARSE_TREE`]).
fn sweep(
    seed: u64,
    cases: usize,
    honest: &[u8],
    lengths: &[Range<usize>],
    path: &Path,
    write: impl Fn(&Path, &[u8]),
    load: impl Fn(&Path) -> bool,
) -> usize {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut loaded = 0;
    for case in 0..cases {
        let mut bytes = honest.to_vec();
        for _ in 0..rng.gen_range(1..=3) {
            mutate(&mut rng, &mut bytes, lengths);
        }
        write(path, &bytes);
        let file_len = std::fs::metadata(path).expect("written").len() as usize;
        LARGEST.store(0, Ordering::Relaxed);
        let ok = catch_unwind(AssertUnwindSafe(|| load(path)))
            .unwrap_or_else(|_| panic!("case {case} of seed {seed}: the loader panicked"));
        let largest = LARGEST.load(Ordering::Relaxed);
        let bound = file_len.max(PARSE_TREE);
        assert!(largest <= bound, "case {case}: a {largest}-byte allocation, file {file_len}");
        loaded += usize::from(ok);
    }
    loaded
}

#[test]
fn mutated_train_states_load_or_fail_typed_within_their_size() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = tiny_cfg();
    let model = MeshfreeFlowNet::new(cfg.clone());
    let opt = Adam::new(&model.store, AdamConfig::default());
    let rngs = vec![RngState { seed: 3, words: 40 }];
    let meta = TrainStateMeta { global_step: 9, epoch: 1, batch_cursor: 2, rngs };
    let payload = encode_train_state(&model, &opt, &meta);
    // The architecture section's length and the sampler-stream count.
    let rng_count = 4 + cfg.to_json().len() + 24;
    let lengths = [0..4, rng_count..rng_count + 8];

    let dir = std::env::temp_dir().join(format!("mfn_hostile_sweep_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("state.ckpt");
    let write = |path: &Path, bytes: &[u8]| {
        save_train_state(path, bytes).expect("save");
    };
    let tc = TrainConfig { batches_per_epoch: 4, ..TrainConfig::default() };
    let fresh = || MeshfreeFlowNet::new(cfg.clone());
    let engine = |path: &Path| FrozenModel::load_state(path).is_ok();
    // A resume: the file (or its `.prev`), then rank 0 of a one-rank run.
    let from_file = |model, path: &Path| {
        let payload = load_train_state_with_fallback(path)?;
        Trainer::from_state(model, tc, &payload, 0, 1)
    };
    let resume = |path: &Path| {
        let model = fresh();
        LARGEST.store(0, Ordering::Relaxed);
        from_file(model, path).is_ok()
    };
    let loaded = sweep(0x5EED, 300, &payload, &lengths, &path, write, engine);
    let resumed = sweep(0x5EED, 300, &payload, &lengths, &path, write, resume);

    // The sampler position is the one field no mutation above can make
    // expensive by accident; claim the far end of it on purpose.
    let far = RngState { seed: 3, words: (1 << 63) - 5 };
    let meta = TrainStateMeta { global_step: 9, epoch: 1, batch_cursor: 2, rngs: vec![far] };
    write(&path, &encode_train_state(&model, &opt, &meta));
    let started = Instant::now();
    let trainer = from_file(fresh(), &path).expect("an honest far position resumes");
    let took = started.elapsed();
    assert_eq!(trainer.sampler_state(), far);
    assert!(took < Duration::from_secs(1), "resuming at word 2^63 - 5 took {took:?}");
    std::fs::remove_dir_all(&dir).ok();
    // Most mutations land in the weights, which load whatever they hold.
    assert!(loaded > 0 && resumed > 0 && loaded < 300, "{loaded} loaded, {resumed} resumed");
}

#[test]
fn mutated_datasets_load_or_fail_typed_within_their_size() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let sim = mfn_solver::simulate(
        &mfn_solver::RbcConfig { nx: 16, nz: 9, ra: 1e4, ..Default::default() },
        0.02,
        3,
    );
    let dir = std::env::temp_dir().join(format!("mfn_hostile_data_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("data.bin");
    save_dataset(&Dataset::from_simulation(&sim), &path).expect("save");
    let honest = std::fs::read(&path).expect("read");
    let meta_len = u32::from_le_bytes(honest[8..12].try_into().expect("4 bytes")) as usize;
    // The metadata section's length and the value count.
    let lengths = [8..12, 12 + meta_len..20 + meta_len];
    let write = |path: &Path, bytes: &[u8]| std::fs::write(path, bytes).expect("write");
    let loaded = sweep(0xDA7A, 400, &honest, &lengths, &path, write, |p| load_dataset(p).is_ok());
    std::fs::remove_dir_all(&dir).ok();
    assert!(loaded > 0 && loaded < 400, "{loaded} of 400 loaded");
}
