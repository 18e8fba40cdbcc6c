//! Full training-state checkpoints: atomic, framed, CRC-verified.
//!
//! A weights-only checkpoint silently changes the optimization trajectory on
//! resume — Adam's bias correction restarts, the moments reset, and the batch
//! sampler replays the epoch from scratch. The *train state* checkpoint
//! captures everything a resumed run needs to be bit-identical to an
//! uninterrupted one:
//!
//! - model parameters (the `MFNCKPT1` stream of `mfn_autodiff::checkpoint`),
//! - batch-norm running statistics,
//! - Adam configuration, step count, and both moment buffers,
//! - the global step counter and the epoch/batch cursor,
//! - every sampler RNG position (one per rank; a single trainer has one).
//!
//! On disk the payload sits inside a frame — magic, version, payload length,
//! CRC32 — so a torn or bit-flipped write is detected *before* any tensor is
//! decoded. Writes go to a temp file that is atomically renamed over the
//! target after `sync_all`; the previous checkpoint is rotated to
//! `<path>.prev` first, which is what [`load_train_state_with_fallback`]
//! falls back to when the newest file is corrupt.

use crate::model::MeshfreeFlowNet;
use crate::rng::RngState;
use mfn_autodiff::{read_adam, read_params, write_adam, write_params, Adam};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Frame magic for a full train-state checkpoint.
const STATE_MAGIC: &[u8; 8] = b"MFNSTAT1";
/// Frame format version.
const STATE_VERSION: u32 = 1;
/// Magic of the trailing section the removed adaptive query sampler
/// appended after the Adam block. Only recognized, so that such a payload
/// is refused by name instead of as trailing garbage.
const SAMPLER_MAGIC: &[u8; 8] = b"MFNSMPL1";

/// Why a checkpoint could not be written or restored.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem-level failure (missing file, permissions, disk full).
    Io(io::Error),
    /// The frame is damaged: wrong magic/version, truncated payload, or a
    /// CRC mismatch. The file cannot be trusted at all.
    Corrupt(String),
    /// The frame is intact but the payload does not describe this model
    /// (parameter names/shapes, BN layout, or moment shapes differ).
    Incompatible(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Corrupt(m) => write!(f, "corrupt checkpoint: {m}"),
            CheckpointError::Incompatible(m) => write!(f, "incompatible checkpoint: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Classifies a payload-decode error: mid-payload EOF means the frame lied
/// about its content (corruption); a clean `InvalidData` means the content
/// describes a different architecture.
fn decode_err(e: io::Error) -> CheckpointError {
    match e.kind() {
        io::ErrorKind::UnexpectedEof => CheckpointError::Corrupt(format!("payload truncated: {e}")),
        io::ErrorKind::InvalidData => CheckpointError::Incompatible(e.to_string()),
        _ => CheckpointError::Io(e),
    }
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, e) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { (c >> 1) ^ 0xEDB8_8320 } else { c >> 1 };
            }
            *e = c;
        }
        t
    });
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Loop-position metadata stored alongside the model/optimizer state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrainStateMeta {
    /// Gradient steps taken across the run's lifetime.
    pub global_step: u64,
    /// Epoch the run will execute next (or is inside of).
    pub epoch: usize,
    /// Batch index within `epoch` the run will execute next.
    pub batch_cursor: usize,
    /// Sampler stream positions — one for a single-process trainer, one per
    /// logical rank for the distributed supervisor.
    pub rngs: Vec<RngState>,
}

/// Serializes model + optimizer + loop position into a checkpoint payload
/// (the bytes inside the frame; see [`save_train_state`]).
pub fn encode_train_state(model: &MeshfreeFlowNet, opt: &Adam, meta: &TrainStateMeta) -> Vec<u8> {
    let mut buf = Vec::new();
    // Writes into a Vec cannot fail.
    buf.write_all(&meta.global_step.to_le_bytes()).expect("vec write");
    buf.write_all(&(meta.epoch as u64).to_le_bytes()).expect("vec write");
    buf.write_all(&(meta.batch_cursor as u64).to_le_bytes()).expect("vec write");
    buf.write_all(&(meta.rngs.len() as u64).to_le_bytes()).expect("vec write");
    for r in &meta.rngs {
        buf.write_all(&r.seed.to_le_bytes()).expect("vec write");
        buf.write_all(&r.words.to_le_bytes()).expect("vec write");
    }
    write_params(&model.store, &mut buf).expect("vec write");
    model.write_bn_stats(&mut buf).expect("vec write");
    write_adam(opt, &mut buf).expect("vec write");
    buf
}

/// Restores a payload produced by [`encode_train_state`] into `model`,
/// returning the rebuilt optimizer and loop metadata: the
/// [`decode_inference_state`] prefix, then the Adam block, which must end
/// the payload. A payload that goes on with the removed adaptive sampler's
/// `MFNSMPL1` section is `Incompatible`; any other trailing bytes are
/// `Corrupt`.
pub fn decode_train_state(
    model: &mut MeshfreeFlowNet,
    r: &mut impl Read,
) -> Result<(Adam, TrainStateMeta), CheckpointError> {
    let meta = decode_inference_state(model, r)?;
    let opt = read_adam(&model.store, r).map_err(decode_err)?;
    let mut tail = Vec::new();
    r.take(SAMPLER_MAGIC.len() as u64).read_to_end(&mut tail)?;
    if tail == SAMPLER_MAGIC {
        return Err(CheckpointError::Incompatible(
            "checkpoint carries an MFNSMPL1 section of the removed adaptive query sampler; \
             this build draws query points uniformly and cannot continue that run"
                .into(),
        ));
    }
    if !tail.is_empty() {
        return Err(CheckpointError::Corrupt("trailing payload bytes after the Adam state".into()));
    }
    Ok((opt, meta))
}

/// Restores only the inference-relevant slice of a train-state payload —
/// loop metadata, model parameters, and BN running statistics — and stops
/// there. The trailing Adam section is never read or materialized, so a
/// serving process cannot observe or perturb optimizer moments even by
/// accident; the sampler RNG states in the returned meta are positions, not
/// live generators.
pub fn decode_inference_state(
    model: &mut MeshfreeFlowNet,
    r: &mut impl Read,
) -> Result<TrainStateMeta, CheckpointError> {
    let u64le = |r: &mut dyn Read| -> Result<u64, CheckpointError> {
        let mut b = [0u8; 8];
        r.read_exact(&mut b).map_err(decode_err)?;
        Ok(u64::from_le_bytes(b))
    };
    let global_step = u64le(r)?;
    let epoch = u64le(r)? as usize;
    let batch_cursor = u64le(r)? as usize;
    let n_rngs = u64le(r)? as usize;
    if n_rngs == 0 || n_rngs > 1 << 20 {
        return Err(CheckpointError::Corrupt(format!("implausible RNG count {n_rngs}")));
    }
    // Grown as states arrive: the count is not trusted to size anything.
    let mut rngs = Vec::new();
    for _ in 0..n_rngs {
        let seed = u64le(r)?;
        let words = u64le(r)?;
        rngs.push(RngState { seed, words });
    }
    read_params(&mut model.store, r).map_err(decode_err)?;
    model.read_bn_stats(r).map_err(decode_err)?;
    Ok(TrainStateMeta { global_step, epoch, batch_cursor, rngs })
}

/// The rotation target for the previous good checkpoint.
pub fn prev_path(path: &Path) -> PathBuf {
    let mut p = path.as_os_str().to_os_string();
    p.push(".prev");
    PathBuf::from(p)
}

/// Atomically writes `payload` to `path` inside a CRC frame.
///
/// The frame goes to `<path>.tmp.<pid>`, is `sync_all`ed, then renamed over
/// `path`; an existing checkpoint is first rotated to `<path>.prev`. A crash
/// at any point leaves either the old file, the old file plus a stale temp,
/// or the new file — never a half-written `path`. Returns total bytes
/// written (frame included).
pub fn save_train_state(path: &Path, payload: &[u8]) -> Result<u64, CheckpointError> {
    let tmp = {
        let mut p = path.as_os_str().to_os_string();
        p.push(format!(".tmp.{}", std::process::id()));
        PathBuf::from(p)
    };
    let total = {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(STATE_MAGIC)?;
        f.write_all(&STATE_VERSION.to_le_bytes())?;
        f.write_all(&(payload.len() as u64).to_le_bytes())?;
        f.write_all(&crc32(payload).to_le_bytes())?;
        f.write_all(payload)?;
        f.sync_all()?;
        8 + 4 + 8 + 4 + payload.len() as u64
    };
    if path.exists() {
        std::fs::rename(path, prev_path(path))?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(total)
}

/// Reads and verifies the frame at `path`, returning the payload bytes.
pub fn load_train_state(path: &Path) -> Result<Vec<u8>, CheckpointError> {
    let bytes = std::fs::read(path)?;
    if bytes.len() < 24 {
        return Err(CheckpointError::Corrupt(format!(
            "file is {} bytes, header is 24",
            bytes.len()
        )));
    }
    if &bytes[0..8] != STATE_MAGIC {
        return Err(CheckpointError::Corrupt("bad magic bytes".into()));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != STATE_VERSION {
        return Err(CheckpointError::Corrupt(format!(
            "format version {version}, expected {STATE_VERSION}"
        )));
    }
    let len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes")) as usize;
    let crc = u32::from_le_bytes(bytes[20..24].try_into().expect("4 bytes"));
    let payload = &bytes[24..];
    if payload.len() != len {
        return Err(CheckpointError::Corrupt(format!(
            "payload is {} bytes, header claims {len} (torn write?)",
            payload.len()
        )));
    }
    let actual = crc32(payload);
    if actual != crc {
        return Err(CheckpointError::Corrupt(format!(
            "CRC mismatch: stored {crc:#010x}, computed {actual:#010x}"
        )));
    }
    Ok(bytes[24..].to_vec())
}

/// Like [`load_train_state`], but when `path` is missing or damaged, falls
/// back to the rotated `<path>.prev` — the supervisor's rollback source
/// after a torn write. The original error is returned if the fallback is
/// absent or also bad.
pub fn load_train_state_with_fallback(path: &Path) -> Result<Vec<u8>, CheckpointError> {
    match load_train_state(path) {
        Ok(payload) => Ok(payload),
        Err(primary) => {
            let prev = prev_path(path);
            if prev.exists() {
                load_train_state(&prev).map_err(|_| primary)
            } else {
                Err(primary)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MfnConfig;
    use mfn_autodiff::AdamConfig;
    use mfn_data::PatchSpec;

    fn tiny_cfg() -> MfnConfig {
        let mut cfg = MfnConfig::small();
        cfg.patch = PatchSpec { nt: 4, nz: 4, nx: 4, queries: 16 };
        cfg.base_channels = 4;
        cfg.latent_channels = 8;
        cfg.mlp_hidden = vec![16, 16];
        cfg.levels = 2;
        cfg
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // One flipped bit changes the sum.
        assert_ne!(crc32(b"123456789"), crc32(b"123456788"));
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mfn_state_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&d).expect("mkdir");
        d
    }

    #[test]
    fn frame_roundtrip_and_rotation() {
        let dir = tmpdir("frame");
        let path = dir.join("state.ckpt");
        let bytes = save_train_state(&path, b"first payload").expect("save 1");
        assert_eq!(bytes, 24 + 13);
        assert_eq!(load_train_state(&path).expect("load 1"), b"first payload");
        // Second save rotates the first to .prev.
        save_train_state(&path, b"second payload").expect("save 2");
        assert_eq!(load_train_state(&path).expect("load 2"), b"second payload");
        assert_eq!(load_train_state(&prev_path(&path)).expect("load prev"), b"first payload");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncation_and_bitflip_are_corrupt_not_panics() {
        let dir = tmpdir("corrupt");
        let path = dir.join("state.ckpt");
        save_train_state(&path, b"some payload bytes here").expect("save");
        let good = std::fs::read(&path).expect("read");
        // Truncated mid-payload.
        std::fs::write(&path, &good[..good.len() - 5]).expect("write");
        assert!(matches!(load_train_state(&path), Err(CheckpointError::Corrupt(_))));
        // One byte flipped in the payload.
        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        std::fs::write(&path, &flipped).expect("write");
        assert!(matches!(load_train_state(&path), Err(CheckpointError::Corrupt(_))));
        // Truncated inside the header.
        std::fs::write(&path, &good[..10]).expect("write");
        assert!(matches!(load_train_state(&path), Err(CheckpointError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_from_disagreeing_config_is_incompatible() {
        use crate::infer::FrozenModel;

        let cfg = tiny_cfg();

        let model = MeshfreeFlowNet::new(cfg.clone());
        let opt = Adam::new(&model.store, AdamConfig::default());
        let meta = TrainStateMeta {
            global_step: 7,
            epoch: 1,
            batch_cursor: 2,
            rngs: vec![RngState { seed: 3, words: 11 }],
        };
        let dir = tmpdir("drift");
        let path = dir.join("state.ckpt");
        save_train_state(&path, &encode_train_state(&model, &opt, &meta)).expect("save");

        // The matching config restores cleanly.
        let ok = FrozenModel::load_state(cfg.clone(), &path).expect("matching config");
        assert_eq!(ok.trained_steps(), 7);

        // A config that disagrees with the one the checkpoint was written
        // under (wider U-Net stem → different parameter shapes) must be a
        // typed Incompatible, not silently-misloaded weights or a panic.
        let mut wider = cfg.clone();
        wider.base_channels = 8;
        match FrozenModel::load_state(wider, &path) {
            Err(CheckpointError::Incompatible(m)) => {
                // base_channels changes both parameter count and shapes;
                // whichever check fires first must name the disagreement.
                assert!(
                    m.contains("mismatch") || m.contains("parameters"),
                    "message should name the mismatch: {m}"
                )
            }
            Err(other) => panic!("expected Incompatible, got {other:?}"),
            Ok(_) => panic!("expected Incompatible, got a loaded model"),
        }

        // Structural drift (extra MLP layer → different parameter count)
        // is caught too, before any tensor data is interpreted.
        let mut deeper = cfg;
        deeper.mlp_hidden = vec![16, 16, 16];
        assert!(matches!(
            FrozenModel::load_state(deeper, &path),
            Err(CheckpointError::Incompatible(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn payload_must_end_after_the_adam_state() {
        let cfg = tiny_cfg();
        let model = MeshfreeFlowNet::new(cfg.clone());
        let opt = Adam::new(&model.store, AdamConfig::default());
        let meta = TrainStateMeta {
            global_step: 3,
            epoch: 0,
            batch_cursor: 3,
            rngs: vec![RngState { seed: 5, words: 17 }],
        };
        let payload = encode_train_state(&model, &opt, &meta);
        let decode = |bytes: &[u8]| {
            let mut m = MeshfreeFlowNet::new(cfg.clone());
            decode_train_state(&mut m, &mut &bytes[..]).map(|(_, meta)| meta)
        };
        assert_eq!(decode(&payload).expect("decode"), meta);

        // A section of the removed adaptive sampler is refused by name; any
        // other tail, however short, is damage.
        let mut with_sampler = payload.clone();
        with_sampler.extend_from_slice(SAMPLER_MAGIC);
        with_sampler.extend_from_slice(&u64::MAX.to_le_bytes());
        match decode(&with_sampler) {
            Err(CheckpointError::Incompatible(m)) => assert!(m.contains("adaptive"), "{m}"),
            other => panic!("expected Incompatible, got {other:?}"),
        }
        for tail in [&b"M"[..], b"MFNSMPL", b"MFNSMPL2"] {
            let mut bytes = payload.clone();
            bytes.extend_from_slice(tail);
            assert!(matches!(decode(&bytes), Err(CheckpointError::Corrupt(_))), "{tail:?}");
        }
    }

    /// The payload's length fields are compared with the model, or with the
    /// bytes that follow, before they size anything: a name length or a rank
    /// of `u32::MAX` inside an otherwise valid payload is a typed error, not
    /// a 4 GiB (or 32 GiB) allocation, and a `1 << 20` RNG count over a
    /// payload that ends after one state is `Corrupt`, not 16 MiB reserved
    /// up front.
    #[test]
    fn hostile_parameter_header_is_refused_before_allocating() {
        let cfg = tiny_cfg();
        let model = MeshfreeFlowNet::new(cfg.clone());
        let opt = Adam::new(&model.store, AdamConfig::default());
        let rngs = vec![RngState { seed: 1, words: 0 }];
        let meta = TrainStateMeta { global_step: 0, epoch: 0, batch_cursor: 0, rngs };
        let payload = encode_train_state(&model, &opt, &meta);
        // The first parameter's header: magic, count, name length, name,
        // then its rank.
        let params = payload.windows(8).position(|w| w == b"MFNCKPT1").expect("param stream");
        let name_len_at = params + 16;
        let (_, first_name, _) = model.store.iter().next().expect("a parameter");
        let rank_at = name_len_at + 4 + first_name.len();
        for at in [name_len_at, rank_at] {
            let mut hostile = payload.clone();
            hostile[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            let mut m = MeshfreeFlowNet::new(cfg.clone());
            match decode_train_state(&mut m, &mut hostile.as_slice()) {
                Err(CheckpointError::Incompatible(msg)) => {
                    assert!(msg.contains("mismatch"), "{msg}")
                }
                other => panic!("expected Incompatible, got {:?}", other.map(|_| ())),
            }
        }
        // global_step, epoch, batch_cursor, the RNG count, then one state.
        let mut truncated = payload[..24].to_vec();
        truncated.extend_from_slice(&(1u64 << 20).to_le_bytes());
        truncated.extend_from_slice(&payload[32..48]);
        let mut m = MeshfreeFlowNet::new(cfg);
        match decode_train_state(&mut m, &mut truncated.as_slice()) {
            Err(CheckpointError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn fallback_recovers_previous_good_checkpoint() {
        let dir = tmpdir("fallback");
        let path = dir.join("state.ckpt");
        save_train_state(&path, b"old good state").expect("save 1");
        save_train_state(&path, b"new state").expect("save 2");
        // Corrupt the newest file; fallback must serve the rotated one.
        let mut bytes = std::fs::read(&path).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("write");
        assert!(load_train_state(&path).is_err());
        assert_eq!(load_train_state_with_fallback(&path).expect("fallback"), b"old good state");
        // With no .prev, the original error surfaces.
        std::fs::remove_file(prev_path(&path)).expect("rm prev");
        assert!(matches!(load_train_state_with_fallback(&path), Err(CheckpointError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).ok();
    }
}
