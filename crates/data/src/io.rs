//! Dataset persistence: a little-endian `f32` binary payload plus a JSON
//! metadata sidecar — no external formats, fully self-describing.

use crate::dataset::{Dataset, DatasetMeta};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Magic bytes identifying the payload format (version 1).
const MAGIC: &[u8; 8] = b"MFNDATA1";

/// Saves a dataset as `<path>` (binary) and `<path>.json` (metadata).
pub fn save_dataset(ds: &Dataset, path: &Path) -> io::Result<()> {
    let meta_json = serde_json::to_string_pretty(&ds.meta)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    std::fs::write(path.with_extension("json"), meta_json)?;
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(MAGIC)?;
    w.write_all(&(ds.data.len() as u64).to_le_bytes())?;
    for &v in &ds.data {
        w.write_all(&v.to_le_bytes())?;
    }
    w.flush()
}

/// Loads a dataset written by [`save_dataset`]. Neither file is trusted: a
/// sidecar whose dimensions overflow `usize`, or a header whose length
/// disagrees with them, is `InvalidData`, and the payload buffer grows as
/// bytes arrive, so a header claiming more than the file holds fails at
/// its end of file without reserving what it claimed.
pub fn load_dataset(path: &Path) -> io::Result<Dataset> {
    const CHUNK: usize = 4096;
    let bad = |m: String| io::Error::new(io::ErrorKind::InvalidData, m);
    let meta_json = std::fs::read_to_string(path.with_extension("json"))?;
    let meta: DatasetMeta = serde_json::from_str(&meta_json).map_err(|e| bad(e.to_string()))?;
    let mut r = BufReader::new(File::open(path)?);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad("bad magic bytes".into()));
    }
    let mut len_bytes = [0u8; 8];
    r.read_exact(&mut len_bytes)?;
    let len = u64::from_le_bytes(len_bytes);
    let expected = [crate::dataset::CHANNELS, meta.nz, meta.nx]
        .into_iter()
        .try_fold(meta.nt, usize::checked_mul)
        .ok_or_else(|| bad("metadata dimensions overflow usize".into()))?;
    if usize::try_from(len) != Ok(expected) {
        return Err(bad(format!("payload length {len} does not match metadata ({expected})")));
    }
    let mut data = Vec::with_capacity(expected.min(CHUNK));
    let mut buf = [0u8; 4 * CHUNK];
    while data.len() < expected {
        let take = (expected - data.len()).min(CHUNK);
        r.read_exact(&mut buf[..4 * take])?;
        data.extend(
            buf[..4 * take].chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])),
        );
    }
    Ok(Dataset::from_parts(meta, data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfn_solver::{simulate, RbcConfig};

    #[test]
    fn roundtrip() {
        let sim = simulate(&RbcConfig { nx: 16, nz: 9, ra: 1e4, ..Default::default() }, 0.02, 3);
        let ds = Dataset::from_simulation(&sim);
        let dir = std::env::temp_dir().join("mfn_io_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("ds.bin");
        save_dataset(&ds, &path).expect("save");
        let back = load_dataset(&path).expect("load");
        assert_eq!(back.meta, ds.meta);
        assert_eq!(back.data, ds.data);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_corrupt_magic() {
        let dir = std::env::temp_dir().join("mfn_io_test_bad");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("bad.bin");
        let sim = simulate(&RbcConfig { nx: 16, nz: 9, ra: 1e4, ..Default::default() }, 0.02, 3);
        let ds = Dataset::from_simulation(&sim);
        save_dataset(&ds, &path).expect("save");
        // Corrupt the magic.
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[0] = b'X';
        std::fs::write(&path, bytes).expect("write");
        assert!(load_dataset(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A sidecar of `meta` beside a payload of `header` claimed values and
    /// `body` bytes after it.
    fn write_hostile(
        dir: &Path,
        meta: &DatasetMeta,
        header: u64,
        body: usize,
    ) -> std::path::PathBuf {
        std::fs::create_dir_all(dir).expect("mkdir");
        let path = dir.join("hostile.bin");
        let json = serde_json::to_string_pretty(meta).expect("meta serializes");
        std::fs::write(path.with_extension("json"), json).expect("write sidecar");
        let mut bytes = MAGIC.to_vec();
        bytes.extend(header.to_le_bytes());
        bytes.resize(bytes.len() + body, 0);
        std::fs::write(&path, bytes).expect("write payload");
        path
    }

    #[test]
    fn rejects_a_sidecar_whose_dims_overflow() {
        let sim = simulate(&RbcConfig { nx: 16, nz: 9, ra: 1e4, ..Default::default() }, 0.02, 3);
        let mut meta = Dataset::from_simulation(&sim).meta;
        (meta.nt, meta.nz, meta.nx) = (usize::MAX / 2, 3, 5);
        let dir = std::env::temp_dir().join("mfn_io_test_overflow");
        let path = write_hostile(&dir, &meta, 60, 8);
        let err = load_dataset(&path).expect_err("dims overflow usize");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_a_header_longer_than_its_payload() {
        // A consistent sidecar and header claiming 2^33 values (32 GiB),
        // over 8 payload bytes: end of file, before any such reservation.
        let sim = simulate(&RbcConfig { nx: 16, nz: 9, ra: 1e4, ..Default::default() }, 0.02, 3);
        let mut meta = Dataset::from_simulation(&sim).meta;
        (meta.nt, meta.nz, meta.nx) = (1 << 21, 1 << 5, 1 << 5);
        let dir = std::env::temp_dir().join("mfn_io_test_short");
        let path = write_hostile(&dir, &meta, 1 << 33, 8);
        let err = load_dataset(&path).expect_err("payload ends early");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
