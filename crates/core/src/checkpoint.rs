//! Full training-state checkpoints: atomic, framed, CRC-verified.
//!
//! A weights-only checkpoint silently changes the optimization trajectory on
//! resume — Adam's bias correction restarts, the moments reset, and the batch
//! sampler replays the epoch from scratch. The *train state* checkpoint
//! captures everything a resumed run needs to be bit-identical to an
//! uninterrupted one, after the architecture it was trained under:
//!
//! - the architecture ([`MfnConfig`] as JSON), which a serving process
//!   builds its model from and a resumed trainer must match exactly,
//! - model parameters (the `MFNCKPT1` stream of `mfn_autodiff::checkpoint`),
//! - batch-norm running statistics,
//! - Adam configuration, step count, and both moment buffers,
//! - the global step counter and the epoch/batch cursor,
//! - every sampler RNG position (one per rank; a single trainer has one).
//!
//! On disk the payload sits inside a frame — magic, version, payload length,
//! CRC32 — so a torn or bit-flipped write is detected *before* any tensor is
//! decoded. The frame is version 2, the first with the architecture section;
//! a frame of any other version is refused as `Incompatible`, by its number.
//! Writes go to a temp file that is atomically renamed over the target after
//! `sync_all`; the previous checkpoint is rotated to `<path>.prev` first,
//! which is what [`load_train_state_with_fallback`] falls back to when the
//! newest file is corrupt.

use crate::config::MfnConfig;
use crate::model::MeshfreeFlowNet;
use crate::rng::RngState;
use mfn_autodiff::{read_adam, read_params, write_adam, write_params, Adam};
use mfn_telemetry::Recorder;
use mfn_tensor::le::{ReadLe, Short};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Frame magic for a full train-state checkpoint.
const STATE_MAGIC: &[u8; 8] = b"MFNSTAT1";
/// Frame format version (2: the payload opens with the architecture).
const STATE_VERSION: u32 = 2;
/// Largest architecture section read, in bytes.
const MAX_CONFIG_LEN: usize = 64 << 10;

/// Why a checkpoint could not be written or restored.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem-level failure (missing file, permissions, disk full).
    Io(io::Error),
    /// The frame is damaged: wrong magic, truncated payload, a CRC mismatch
    /// or an architecture the payload cannot hold. Nothing in it is trusted.
    Corrupt(String),
    /// The frame is intact but another format version, or its payload does
    /// not describe this model (architecture, parameters, BN or moments).
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

/// A payload that ends inside a field lied about its content.
impl From<Short> for CheckpointError {
    fn from(e: Short) -> Self {
        CheckpointError::Corrupt(format!("payload truncated: {e}"))
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
    let config = model.cfg.to_json();
    let mut buf = Vec::new();
    // Writes into a Vec cannot fail.
    buf.write_all(&(config.len() as u32).to_le_bytes()).expect("vec write");
    buf.write_all(config.as_bytes()).expect("vec write");
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
/// the payload (trailing bytes are `Corrupt`).
pub fn decode_train_state(
    model: &mut MeshfreeFlowNet,
    r: &mut &[u8],
) -> Result<(Adam, TrainStateMeta), CheckpointError> {
    let meta = decode_inference_state(model, r)?;
    let opt = read_adam(&model.store, r).map_err(decode_err)?;
    if !r.is_empty() {
        return Err(CheckpointError::Corrupt("trailing payload bytes after the Adam state".into()));
    }
    Ok((opt, meta))
}

/// Reads the architecture section — a `u32` length of at most 64 KiB,
/// then that much JSON — and checks it against the rest of the payload
/// before it can size anything ([`MfnConfig::check_sizes`]): the
/// parameters it implies must fit there, four bytes each.
pub(crate) fn read_config(r: &mut &[u8]) -> Result<MfnConfig, CheckpointError> {
    let corrupt = |m: String| CheckpointError::Corrupt(format!("architecture section: {m}"));
    let len = r.u32()? as usize;
    if len > MAX_CONFIG_LEN {
        return Err(corrupt(format!("{len} bytes, of at most {MAX_CONFIG_LEN}")));
    }
    let json = std::str::from_utf8(r.take(len)?).map_err(|e| corrupt(e.to_string()))?;
    let cfg = MfnConfig::from_json(json)
        .map_err(|e| CheckpointError::Incompatible(format!("architecture section: {e}")))?;
    cfg.check_sizes(r.len() / 4).map_err(corrupt)?;
    Ok(cfg)
}

/// Restores only the inference-relevant slice of a train-state payload —
/// architecture, loop metadata, model parameters, and BN running
/// statistics — and stops there. An architecture other than `model.cfg` is
/// `Incompatible`, and the error shows both. The trailing Adam section is
/// never read or materialized, so a serving process cannot observe or
/// perturb optimizer moments even by accident; the sampler RNG states in the
/// returned meta are positions, not live generators.
pub fn decode_inference_state(
    model: &mut MeshfreeFlowNet,
    r: &mut &[u8],
) -> Result<TrainStateMeta, CheckpointError> {
    let found = read_config(r)?;
    if found != model.cfg {
        return Err(CheckpointError::Incompatible(format!(
            "the checkpoint holds the architecture {}, this model is {}",
            found.to_json(),
            model.cfg.to_json()
        )));
    }
    let global_step = r.u64()?;
    let epoch = r.u64()? as usize;
    let batch_cursor = r.u64()? as usize;
    let n_rngs = r.u64()? as usize;
    // 16 bytes a state: the count sizes nothing the payload cannot fill.
    if n_rngs == 0 || n_rngs > r.len() / 16 {
        let msg = format!("RNG count {n_rngs} over {} payload bytes", r.len());
        return Err(CheckpointError::Corrupt(msg));
    }
    let mut rngs = Vec::with_capacity(n_rngs);
    for _ in 0..n_rngs {
        rngs.push(RngState { seed: r.u64()?, words: r.u64()? });
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

/// The one train-state writer of a training run: [`save_train_state`],
/// recording `ckpt.bytes`, `ckpt.writes` and `ckpt.write_s` on `recorder`.
/// A final write's failure is its caller's error; a periodic one goes
/// through [`write_periodic`].
pub fn write_train_state(
    path: &Path,
    payload: &[u8],
    recorder: &Recorder,
) -> Result<u64, CheckpointError> {
    let start = Instant::now();
    let bytes = save_train_state(path, payload)?;
    recorder.incr("ckpt.bytes", bytes);
    recorder.incr("ckpt.writes", 1);
    recorder.gauge("ckpt.write_s", start.elapsed().as_secs_f64());
    Ok(bytes)
}

/// A periodic [`write_train_state`]: a failure is counted (`ckpt.errors`)
/// and reported on stderr, and training continues.
pub fn write_periodic(path: &Path, payload: &[u8], recorder: &Recorder) {
    if let Err(e) = write_train_state(path, payload, recorder) {
        recorder.incr("ckpt.errors", 1);
        eprintln!("checkpoint write to {} failed: {e}", path.display());
    }
}

/// Reads and verifies the frame at `path`, returning the payload bytes:
/// the file's own buffer, its 24-byte header stripped in place.
pub fn load_train_state(path: &Path) -> Result<Vec<u8>, CheckpointError> {
    let mut bytes = std::fs::read(path)?;
    let Ok(mut header) = (&bytes[..]).take(24) else {
        let n = bytes.len();
        return Err(CheckpointError::Corrupt(format!("file is {n} bytes, header is 24")));
    };
    if header.take(8)? != STATE_MAGIC {
        return Err(CheckpointError::Corrupt("bad magic bytes".into()));
    }
    let version = header.u32()?;
    if version != STATE_VERSION {
        return Err(CheckpointError::Incompatible(format!(
            "format version {version}; this build reads version {STATE_VERSION} only"
        )));
    }
    let len = header.u64()? as usize;
    let crc = header.u32()?;
    bytes.drain(..24);
    if bytes.len() != len {
        return Err(CheckpointError::Corrupt(format!(
            "payload is {} bytes, header claims {len} (torn write?)",
            bytes.len()
        )));
    }
    let actual = crc32(&bytes);
    if actual != crc {
        return Err(CheckpointError::Corrupt(format!(
            "CRC mismatch: stored {crc:#010x}, computed {actual:#010x}"
        )));
    }
    Ok(bytes)
}

/// Like [`load_train_state`], but when `path` is missing or damaged, falls
/// back to the rotated `<path>.prev` — what a resume reads after a torn
/// write. The original error is returned if the fallback is absent or also
/// bad.
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

        // The frame alone rebuilds the model it was written from.
        let ok = FrozenModel::load_state(&path).expect("self-describing frame");
        assert_eq!((ok.cfg(), ok.trained_steps()), (&cfg, 7));

        // A model that disagrees with the architecture the checkpoint was
        // written under — wider U-Net stem, an extra MLP layer, or only γ —
        // refuses it before reading a tensor, and says how they differ.
        let payload = load_train_state(&path).expect("load");
        let mut wider = cfg.clone();
        wider.base_channels = 8;
        let mut deeper = cfg.clone();
        deeper.mlp_hidden = vec![16, 16, 16];
        let mut gamma = cfg.clone();
        gamma.gamma = 0.0;
        for other in [wider, deeper, gamma] {
            let mut m = MeshfreeFlowNet::new(other.clone());
            match decode_train_state(&mut m, &mut payload.as_slice()) {
                Err(CheckpointError::Incompatible(m)) => {
                    assert!(m.contains(&cfg.to_json()) && m.contains(&other.to_json()), "{m}")
                }
                other => panic!("expected Incompatible, got {:?}", other.map(|_| ())),
            }
        }
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

        // Any tail, however short, is damage.
        for tail in [&b"M"[..], b"MFNS", &[7u8; 24]] {
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
        // The architecture section, global_step, epoch, batch_cursor, the
        // RNG count, then one state.
        let head = 4 + cfg.to_json().len();
        let mut truncated = payload[..head + 24].to_vec();
        truncated.extend_from_slice(&(1u64 << 20).to_le_bytes());
        truncated.extend_from_slice(&payload[head + 32..head + 48]);
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
