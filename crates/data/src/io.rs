//! Dataset persistence: one self-describing file per dataset — the magic,
//! the [`DatasetMeta`] JSON (length-prefixed, at most 64 KiB), then the
//! value count and the little-endian `f32` payload. No external formats and
//! no second file, so two datasets never share a name.

use crate::dataset::{Dataset, DatasetMeta};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
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
/// trusted: a metadata length over 64 KiB, dimensions that overflow
/// `usize`, or a value count that disagrees with them is `InvalidData`, and
/// the payload buffer grows as bytes arrive, so a header claiming more than
/// the file holds fails at its end of file without reserving what it
/// claimed.
pub fn load_dataset(path: &Path) -> io::Result<Dataset> {
    const CHUNK: usize = 4096;
    let bad = |m: String| io::Error::new(io::ErrorKind::InvalidData, m);
    let mut r = BufReader::new(File::open(path)?);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad("bad magic bytes (not an MFNDATA2 dataset)".into()));
    }
    let mut word = [0u8; 4];
    r.read_exact(&mut word)?;
    let meta_len = u32::from_le_bytes(word) as usize;
    if meta_len > MAX_META_LEN {
        return Err(bad(format!("metadata of {meta_len} bytes, at most {MAX_META_LEN} are read")));
    }
    let mut meta_json = vec![0u8; meta_len];
    r.read_exact(&mut meta_json)?;
    let meta: DatasetMeta = serde_json::from_str(&String::from_utf8_lossy(&meta_json))
        .map_err(|e| bad(e.to_string()))?;
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
