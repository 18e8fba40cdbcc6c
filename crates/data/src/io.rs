//! Dataset persistence: one self-describing file per dataset — the magic,
//! the [`DatasetMeta`] JSON (length-prefixed, at most 64 KiB), then the
//! value count and the little-endian `f32` payload. No external formats and
//! no second file, so two datasets never share a name. Loading decodes with
//! the workspace's one byte reader, `mfn_tensor::le`.

use crate::dataset::{Dataset, DatasetMeta};
use mfn_tensor::le::{ReadLe, Short};
use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;

/// Magic bytes identifying the format (version 2: metadata inside).
const MAGIC: &[u8; 8] = b"MFNDATA2";
/// Largest metadata section read, in bytes.
const MAX_META_LEN: usize = 64 << 10;

/// Saves a dataset to `path`, metadata included.
pub fn save_dataset(ds: &Dataset, path: &Path) -> io::Result<()> {
    let meta_json = serde_json::to_string(&ds.meta)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(MAGIC)?;
    w.write_all(&(meta_json.len() as u32).to_le_bytes())?;
    w.write_all(meta_json.as_bytes())?;
    w.write_all(&(ds.data.len() as u64).to_le_bytes())?;
    for &v in &ds.data {
        w.write_all(&v.to_le_bytes())?;
    }
    w.flush()
}

/// Loads a dataset written by [`save_dataset`]. Nothing in the file is
/// trusted: a metadata length over 64 KiB, metadata that is not UTF-8 JSON,
/// dimensions that overflow `usize`, or a value count that disagrees with
/// them is `InvalidData`, and a metadata section or a count the file is too
/// short to hold is `UnexpectedEof` before a buffer is sized for it. The
/// payload buffer is then allocated once, at its exact size, and filled in
/// fixed chunks as they are read: no buffer is larger than the file.
pub fn load_dataset(path: &Path) -> io::Result<Dataset> {
    const CHUNK: usize = 4096;
    let bad = |m: String| io::Error::new(io::ErrorKind::InvalidData, m);
    let mut r = File::open(path)?;
    let file_len = r.metadata()?.len() as usize;
    let mut head = [0u8; 12];
    r.read_exact(&mut head)?;
    if head[..8] != MAGIC[..] {
        return Err(bad("bad magic bytes (not an MFNDATA2 dataset)".into()));
    }
    let meta_len = (&head[8..]).u32()? as usize;
    if meta_len > MAX_META_LEN {
        return Err(bad(format!("metadata of {meta_len} bytes, at most {MAX_META_LEN} are read")));
    }
    let have = file_len.saturating_sub(head.len());
    if meta_len + 8 > have {
        return Err(Short { need: meta_len + 8, have }.into());
    }
    let mut section = vec![0u8; meta_len + 8];
    r.read_exact(&mut section)?;
    let (json, mut count) = section.split_at(meta_len);
    let json = std::str::from_utf8(json).map_err(|e| bad(format!("metadata: {e}")))?;
    let meta: DatasetMeta = serde_json::from_str(json).map_err(|e| bad(e.to_string()))?;
    let len = count.u64()?;
    let expected = [crate::dataset::CHANNELS, meta.nz, meta.nx]
        .into_iter()
        .try_fold(meta.nt, usize::checked_mul)
        .ok_or_else(|| bad("metadata dimensions overflow usize".into()))?;
    if usize::try_from(len) != Ok(expected) {
        return Err(bad(format!("payload length {len} does not match metadata ({expected})")));
    }
    let have = file_len.saturating_sub(head.len() + section.len());
    if expected > have / 4 {
        return Err(Short { need: expected.saturating_mul(4), have }.into());
    }
    let mut data = vec![0.0; expected];
    let mut buf = [0u8; 4 * CHUNK];
    for chunk in data.chunks_mut(CHUNK) {
        let bytes = &mut buf[..4 * chunk.len()];
        r.read_exact(bytes)?;
        (&bytes[..]).f32s_into(chunk)?;
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
        let mut bytes = std::fs::read(&path).expect("read");
        // Every truncation, in the header, the metadata or the values.
        for cut in 0..bytes.len() {
            std::fs::write(&path, &bytes[..cut]).expect("write prefix");
            let err = load_dataset(&path).expect_err("a prefix is not a dataset");
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}: {err}");
        }
        // Corrupt the magic.
        bytes[0] = b'X';
        std::fs::write(&path, bytes).expect("write");
        assert!(load_dataset(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Datasets saved at `rb` and `rb.lr` in one directory are two files,
    /// and each loads back with its own metadata.
    #[test]
    fn names_that_differ_by_an_extension_keep_their_own_metadata() {
        let sim = simulate(&RbcConfig { nx: 16, nz: 9, ra: 1e4, ..Default::default() }, 0.02, 5);
        let hr = Dataset::from_simulation(&sim);
        let lr = crate::downsample(&hr, 2, 2);
        let dir = std::env::temp_dir().join(format!("mfn_io_test_names_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        save_dataset(&hr, &dir.join("rb")).expect("save HR");
        save_dataset(&lr, &dir.join("rb.lr")).expect("save LR");
        assert_eq!(std::fs::read_dir(&dir).expect("list").count(), 2, "one file per dataset");
        for (name, want) in [("rb", &hr), ("rb.lr", &lr)] {
            let back = load_dataset(&dir.join(name)).expect(name);
            assert_eq!((&back.meta, &back.data), (&want.meta, &want.data), "{name}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A file of `meta_json` as the metadata section, then `header` as the
    /// claimed value count and `body` bytes after it.
    fn write_hostile(dir: &Path, meta_json: &[u8], header: u64, body: usize) -> std::path::PathBuf {
        std::fs::create_dir_all(dir).expect("mkdir");
        let path = dir.join("hostile.bin");
        let mut bytes = MAGIC.to_vec();
        bytes.extend((meta_json.len() as u32).to_le_bytes());
        bytes.extend(meta_json);
        bytes.extend(header.to_le_bytes());
        bytes.resize(bytes.len() + body, 0);
        std::fs::write(&path, bytes).expect("write dataset");
        path
    }

    fn meta_json(nt: usize, nz: usize, nx: usize) -> Vec<u8> {
        let sim = simulate(&RbcConfig { nx: 16, nz: 9, ra: 1e4, ..Default::default() }, 0.02, 3);
        let mut meta = Dataset::from_simulation(&sim).meta;
        (meta.nt, meta.nz, meta.nx) = (nt, nz, nx);
        serde_json::to_string(&meta).expect("meta serializes").into_bytes()
    }

    /// Files written while the metadata carried per-channel statistics
    /// still load: the derive skips keys the struct no longer has.
    #[test]
    fn a_file_with_the_retired_statistics_keys_still_loads() {
        let sim = simulate(&RbcConfig { nx: 16, nz: 9, ra: 1e4, ..Default::default() }, 0.02, 3);
        let ds = Dataset::from_simulation(&sim);
        let json = serde_json::to_string(&ds.meta).expect("meta serializes");
        let legacy = format!(
            "{},\"channel_mean\":[0.5,0.1,-0.2,0.3],\"channel_std\":[0.1,0.2,0.3,0.4]}}",
            json.strip_suffix('}').expect("a JSON object")
        );
        let dir = std::env::temp_dir().join(format!("mfn_io_test_legacy_{}", std::process::id()));
        let path = write_hostile(&dir, legacy.as_bytes(), ds.data.len() as u64, 0);
        let mut bytes = std::fs::read(&path).expect("read");
        bytes.extend(ds.data.iter().flat_map(|v| v.to_le_bytes()));
        std::fs::write(&path, bytes).expect("write");
        let back = load_dataset(&path).expect("a legacy file loads");
        assert_eq!((&back.meta, &back.data), (&ds.meta, &ds.data));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_a_sidecar_whose_dims_overflow() {
        let dir = std::env::temp_dir().join("mfn_io_test_overflow");
        let path = write_hostile(&dir, &meta_json(usize::MAX / 2, 3, 5), 60, 8);
        let err = load_dataset(&path).expect_err("dims overflow usize");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_a_metadata_length_over_the_cap() {
        // The length says 4 GiB of metadata: refused before it sizes a read.
        let dir = std::env::temp_dir().join("mfn_io_test_meta_len");
        let path = write_hostile(&dir, &[], 0, 0);
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, bytes).expect("write");
        let err = load_dataset(&path).expect_err("metadata too long");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_a_header_longer_than_its_payload() {
        // Consistent metadata and a header claiming 2^33 values (32 GiB),
        // over 8 payload bytes: end of file, before any such reservation.
        let dir = std::env::temp_dir().join("mfn_io_test_short");
        let path = write_hostile(&dir, &meta_json(1 << 21, 1 << 5, 1 << 5), 1 << 33, 8);
        let err = load_dataset(&path).expect_err("payload ends early");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
