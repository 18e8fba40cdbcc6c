//! The workspace's one little-endian byte reader, and the FNV-1a fold its
//! digests share.
//!
//! Every byte format the pipeline hands across a process boundary — tensor,
//! train state, dataset, wire frame — is decoded through [`ReadLe`] on
//! `&[u8]`: the slice is the cursor, each read advances it, and its `len()`
//! is the bound. A read past the end is a [`Short`], never a panic, and the
//! bulk reads check `4·n ≤ len()` before they allocate or write anything.
//! Magic, name, shape and trailing-byte checks are the caller's.

use std::{fmt, io};

/// A read needed more bytes than were left.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Short {
    /// Bytes the read needed (saturating).
    pub need: usize,
    /// Bytes that were left.
    pub have: usize,
}

impl fmt::Display for Short {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "input ends early: {} bytes needed, {} left", self.need, self.have)
    }
}

impl std::error::Error for Short {}

impl From<Short> for io::Error {
    fn from(e: Short) -> Self {
        io::Error::new(io::ErrorKind::UnexpectedEof, e)
    }
}

/// Bounds-checked little-endian reads that consume the front of a byte
/// slice. On `Err` the slice is left as it was. Where `std::io::Read` is in
/// scope too, `slice.take(n)` resolves to `Read::take` and fails to compile,
/// so a module that needs both imports `Read` where it reads a stream.
pub trait ReadLe<'a> {
    /// The next `n` bytes.
    fn take(&mut self, n: usize) -> Result<&'a [u8], Short>;

    /// A `u8`.
    fn u8(&mut self) -> Result<u8, Short> {
        Ok(self.take(1)?[0])
    }

    /// A `u16`.
    fn u16(&mut self) -> Result<u16, Short> {
        Ok(u16::from_le_bytes(array(self.take(2)?)))
    }

    /// A `u32`.
    fn u32(&mut self) -> Result<u32, Short> {
        Ok(u32::from_le_bytes(array(self.take(4)?)))
    }

    /// A `u64`.
    fn u64(&mut self) -> Result<u64, Short> {
        Ok(u64::from_le_bytes(array(self.take(8)?)))
    }

    /// An `f32`.
    fn f32(&mut self) -> Result<f32, Short> {
        Ok(f32::from_le_bytes(array(self.take(4)?)))
    }

    /// `n` `f32`s, allocated only once the `4·n` bytes they need are known
    /// to be there.
    fn f32s(&mut self, n: usize) -> Result<Vec<f32>, Short> {
        let bytes = self.take(n.saturating_mul(4))?;
        Ok(bytes.chunks_exact(4).map(|b| f32::from_le_bytes(array(b))).collect())
    }

    /// Fills `dst` with the next `4·dst.len()` bytes as `f32`s; on `Err`
    /// nothing is written.
    fn f32s_into(&mut self, dst: &mut [f32]) -> Result<(), Short> {
        let bytes = self.take(4 * dst.len())?;
        for (v, b) in dst.iter_mut().zip(bytes.chunks_exact(4)) {
            *v = f32::from_le_bytes(array(b));
        }
        Ok(())
    }
}

impl<'a> ReadLe<'a> for &'a [u8] {
    fn take(&mut self, n: usize) -> Result<&'a [u8], Short> {
        if n > self.len() {
            return Err(Short { need: n, have: self.len() });
        }
        let (head, rest) = self.split_at(n);
        *self = rest;
        Ok(head)
    }
}

/// `b` as an array; `take` has already checked its length.
fn array<const N: usize>(b: &[u8]) -> [u8; N] {
    b.try_into().expect("take returned N bytes")
}

/// FNV-1a 64 prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// FNV-1a 64 offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64 over `bytes`: the one fold behind the serving cache's patch
/// digest (the wire handle of a latent) and the parameter digest that pins
/// data-parallel replicas and resumed runs.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(FNV_OFFSET, |h, b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_advance_the_slice_and_stop_at_its_end() {
        let mut bytes = vec![7u8];
        bytes.extend(0xBEEFu16.to_le_bytes());
        bytes.extend(0xDEAD_BEEFu32.to_le_bytes());
        bytes.extend(u64::MAX.to_le_bytes());
        bytes.extend((-1.5f32).to_le_bytes());
        bytes.extend([1.0f32, 2.0, 3.0].iter().flat_map(|v| v.to_le_bytes()));
        let mut r = bytes.as_slice();
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u16(), Ok(0xBEEF));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64(), Ok(u64::MAX));
        assert_eq!(r.f32(), Ok(-1.5));
        assert_eq!(r.f32s(2), Ok(vec![1.0, 2.0]));
        let mut last = [0.0f32];
        assert_eq!(r.f32s_into(&mut last), Ok(()));
        assert_eq!((last, r.len()), ([3.0], 0));
        assert_eq!(r.u8(), Err(Short { need: 1, have: 0 }));
    }

    #[test]
    fn a_short_read_consumes_and_writes_nothing() {
        let bytes = [1u8, 2, 3];
        let mut r = &bytes[..];
        assert_eq!(r.u32(), Err(Short { need: 4, have: 3 }));
        assert_eq!(r.take(4), Err(Short { need: 4, have: 3 }));
        let mut dst = [9.0f32; 1];
        assert!(r.f32s_into(&mut dst).is_err());
        assert_eq!((r.len(), dst), (3, [9.0]));
        assert_eq!(r.take(3), Ok(&bytes[..]));
    }

    #[test]
    fn bulk_counts_are_checked_before_they_size_anything() {
        let mut r = &[0u8; 8][..];
        for n in [3, usize::MAX / 4 + 1, usize::MAX] {
            let err = r.f32s(n).expect_err("more than the input holds");
            assert_eq!(err.have, 8);
        }
        assert_eq!(r.len(), 8);
        let e = io::Error::from(Short { need: 4, have: 1 });
        assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a([]), FNV_OFFSET);
        assert_eq!(fnv1a(*b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(*b"foobar"), 0x8594_4171_f739_67e8);
    }
}
