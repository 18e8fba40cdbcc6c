//! The length-prefixed binary wire protocol.
//!
//! Every message is one frame:
//!
//! ```text
//! offset  size  field
//! 0       4     magic           b"MFNS"
//! 4       1     version         1
//! 5       1     kind            request/response discriminant
//! 6       2     reserved        must be 0
//! 8       4     payload_len     u32 LE, <= MAX_PAYLOAD (16 MiB)
//! 12      n     payload         kind-specific, all integers/floats LE
//! ```
//!
//! Response kinds are the request kind with the high bit set; `0xFF` is the
//! error frame (`code: u16 LE` + UTF-8 message). A server reads frames off a
//! blocking stream; any header violation produces a typed [`ServeError`]
//! *before* the payload is touched, so a hostile 4 GiB length prefix costs
//! nothing. Payload decoding is bounds-checked cursor reads — malformed
//! payloads are rejected, never panicked on.

use crate::error::ServeError;
use std::io::{Read, Write};

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"MFNS";
/// Current protocol version.
pub const VERSION: u8 = 1;
/// Frame header size in bytes.
pub const HEADER_LEN: usize = 12;
/// Maximum payload size (16 MiB) — caps memory a frame can demand.
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// Frame kinds. Requests are `0x01..=0x07`; each response is the request
/// kind with the high bit set; `0xFF` is the error frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// Liveness probe (empty payload).
    Ping = 0x01,
    /// Model metadata request (empty payload).
    Info = 0x02,
    /// Encode a patch: `batch: u32`, then `batch·C·nt·nz·nx` f32s.
    Encode = 0x03,
    /// Query a cached latent: `digest: u64`, `count: u32`, then per query
    /// `batch: u32, t: f32, z: f32, x: f32`.
    Query = 0x04,
    /// Encode + query in one round trip (Encode payload ++ Query payload
    /// without the digest).
    EncodeQuery = 0x05,
    /// Serving statistics request (empty payload). A shard answers with one
    /// [`ShardStat`]; a router answers with one per healthy shard.
    Stats = 0x06,
    /// Test-time physics refinement of a cached latent: `digest: u64`,
    /// `max_steps: u32`, `tol: f32`, `max_micros: u64`, `count: u32`, then
    /// per query `batch: u32, t: f32, z: f32, x: f32`. The digest leads the
    /// payload so a router shards Refine by the same first-8-bytes rule as
    /// [`Kind::Query`].
    Refine = 0x07,
    /// Response to [`Kind::Ping`] (empty payload).
    Pong = 0x81,
    /// Response to [`Kind::Info`]: a [`ModelInfo`].
    InfoResp = 0x82,
    /// Response to [`Kind::Encode`]: `digest: u64`, `cache_hit: u8`.
    EncodeResp = 0x83,
    /// Response to [`Kind::Query`] / [`Kind::EncodeQuery`]: `digest: u64`,
    /// `cache_hit: u8`, `count: u32`, `channels: u32`, then
    /// `count·channels` f32s.
    QueryResp = 0x84,
    /// Response to [`Kind::Stats`]: `count: u32`, then `count`
    /// [`ShardStat`]s.
    StatsResp = 0x86,
    /// Response to [`Kind::Refine`]: `digest: u64`, `steps_run: u32`,
    /// `steps_accepted: u32`, `initial_residual: f32`, `final_residual: f32`,
    /// `count: u32`, `channels: u32`, then `count·channels` f32s.
    RefineResp = 0x87,
    /// Error frame: `code: u16`, then a UTF-8 message.
    Error = 0xFF,
}

impl Kind {
    /// Decodes a kind byte, distinguishing "unknown" from the valid set.
    pub fn from_u8(b: u8) -> Option<Kind> {
        match b {
            0x01 => Some(Kind::Ping),
            0x02 => Some(Kind::Info),
            0x03 => Some(Kind::Encode),
            0x04 => Some(Kind::Query),
            0x05 => Some(Kind::EncodeQuery),
            0x06 => Some(Kind::Stats),
            0x07 => Some(Kind::Refine),
            0x81 => Some(Kind::Pong),
            0x82 => Some(Kind::InfoResp),
            0x83 => Some(Kind::EncodeResp),
            0x84 => Some(Kind::QueryResp),
            0x86 => Some(Kind::StatsResp),
            0x87 => Some(Kind::RefineResp),
            0xFF => Some(Kind::Error),
            _ => None,
        }
    }
}

/// Writes one frame (header + payload) and flushes.
pub fn write_frame(w: &mut impl Write, kind: Kind, payload: &[u8]) -> std::io::Result<()> {
    assert!(payload.len() as u64 <= MAX_PAYLOAD as u64, "frame payload over cap");
    let mut header = [0u8; HEADER_LEN];
    header[0..4].copy_from_slice(&MAGIC);
    header[4] = VERSION;
    header[5] = kind as u8;
    header[8..12].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame, validating the header before allocating for the
/// payload. Returns `Ok(None)` on a clean EOF at a frame boundary (the peer
/// closed between requests — not an error).
pub fn read_frame(r: &mut impl Read) -> Result<Option<(u8, Vec<u8>)>, ServeError> {
    let mut header = [0u8; HEADER_LEN];
    // A clean close before any header byte is a normal end of conversation;
    // EOF after the first byte is a truncated frame.
    let mut got = 0usize;
    while got < HEADER_LEN {
        match r.read(&mut header[got..]) {
            Ok(0) => {
                return if got == 0 { Ok(None) } else { Err(ServeError::Truncated) };
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ServeError::from_io(&e)),
        }
    }
    if header[0..4] != MAGIC {
        return Err(ServeError::BadMagic);
    }
    if header[4] != VERSION {
        return Err(ServeError::BadVersion { got: header[4] });
    }
    let len = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
    if len > MAX_PAYLOAD {
        return Err(ServeError::Oversized { len });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(|e| ServeError::from_io(&e))?;
    Ok(Some((header[5], payload)))
}

/// Incremental frame decoder for nonblocking streams.
///
/// [`read_frame`] assumes it can block until a whole frame arrives; a
/// readiness-loop server instead gets bytes in arbitrary slices across poll
/// wakeups. The decoder buffers whatever arrives and yields complete frames
/// as they form. Header validation happens the moment 12 bytes are buffered
/// — a hostile length prefix is rejected *before* any payload allocation,
/// exactly as in the blocking path.
///
/// After any `Err` the stream is desynced and the decoder refuses further
/// input; the caller answers with the typed error frame and closes.
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by yielded frames.
    pos: usize,
    /// Validated header of the frame currently being assembled.
    pending: Option<(u8, usize)>,
    /// Set once a header violation is seen; the stream is unrecoverable.
    poisoned: bool,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        FrameDecoder::new()
    }
}

impl FrameDecoder {
    /// An empty decoder at a frame boundary.
    pub fn new() -> Self {
        FrameDecoder { buf: Vec::new(), pos: 0, pending: None, poisoned: false }
    }

    /// Appends bytes read from the stream.
    pub fn extend(&mut self, bytes: &[u8]) {
        if self.poisoned {
            return;
        }
        // Reclaim consumed prefix before growing — keeps the buffer bounded
        // by one frame plus one read's worth of bytes.
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos > 64 * 1024) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Yields the next complete frame, `Ok(None)` if more bytes are needed,
    /// or a typed header error (after which the decoder is poisoned).
    pub fn next_frame(&mut self) -> Result<Option<(u8, Vec<u8>)>, ServeError> {
        if self.poisoned {
            return Ok(None);
        }
        let (kind, len) = match self.pending {
            Some(h) => h,
            None => {
                let avail = self.buf.len() - self.pos;
                if avail < HEADER_LEN {
                    return Ok(None);
                }
                let h = &self.buf[self.pos..self.pos + HEADER_LEN];
                if h[0..4] != MAGIC {
                    self.poisoned = true;
                    return Err(ServeError::BadMagic);
                }
                if h[4] != VERSION {
                    self.poisoned = true;
                    return Err(ServeError::BadVersion { got: h[4] });
                }
                let len = u32::from_le_bytes([h[8], h[9], h[10], h[11]]);
                if len > MAX_PAYLOAD {
                    self.poisoned = true;
                    return Err(ServeError::Oversized { len });
                }
                let header = (h[5], len as usize);
                self.pos += HEADER_LEN;
                self.pending = Some(header);
                header
            }
        };
        if self.buf.len() - self.pos < len {
            return Ok(None);
        }
        let payload = self.buf[self.pos..self.pos + len].to_vec();
        self.pos += len;
        self.pending = None;
        Ok(Some((kind, payload)))
    }

    /// Whether a frame has started but not finished (stall-timeout basis).
    pub fn mid_frame(&self) -> bool {
        !self.poisoned && (self.pending.is_some() || self.buf.len() - self.pos > 0)
    }

    /// Whether a header violation permanently desynced this stream.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }
}

/// Writes an error frame carrying `err`'s wire code and display message.
pub fn write_error(w: &mut impl Write, err: &ServeError) -> std::io::Result<()> {
    let msg = err.to_string();
    let mut payload = Vec::with_capacity(2 + msg.len());
    payload.extend_from_slice(&err.code().to_le_bytes());
    payload.extend_from_slice(msg.as_bytes());
    write_frame(w, Kind::Error, &payload)
}

/// Decodes an error frame payload into a client-side [`ServeError::Remote`].
pub fn decode_error(payload: &[u8]) -> ServeError {
    if payload.len() < 2 {
        return ServeError::BadPayload("error frame shorter than its code".into());
    }
    let code = u16::from_le_bytes([payload[0], payload[1]]);
    let message = String::from_utf8_lossy(&payload[2..]).into_owned();
    ServeError::Remote { code, message }
}

/// The byte that closes every [`ModelInfo`] and [`ShardStat`] on the wire.
/// It used to name a decode precision tier (values 1 and 2 belonged to
/// reduced-precision tiers, both deleted); there is one decode now, so it is
/// written as `0`, required to be present and otherwise ignored on read.
/// Frames stay byte-compatible with older peers; the values are never
/// reused.
const RESERVED_TIER: u8 = 0;

/// Model metadata returned by [`Kind::Info`]. On the wire it ends in the
/// `RESERVED_TIER` byte, which is not a field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelInfo {
    /// Input physical channels.
    pub in_channels: u32,
    /// Output physical channels.
    pub out_channels: u32,
    /// Latent grid vertex dims `[nt, nz, nx]`.
    pub grid: [u32; 3],
    /// Latent vector width `n_c`.
    pub latent_channels: u32,
    /// Total scalar parameter count.
    pub param_count: u64,
    /// Gradient steps the served checkpoint had taken.
    pub trained_steps: u64,
}

impl ModelInfo {
    /// Serializes to the InfoResp payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Vec::with_capacity(41);
        for v in [
            self.in_channels,
            self.out_channels,
            self.grid[0],
            self.grid[1],
            self.grid[2],
            self.latent_channels,
        ] {
            p.extend_from_slice(&v.to_le_bytes());
        }
        p.extend_from_slice(&self.param_count.to_le_bytes());
        p.extend_from_slice(&self.trained_steps.to_le_bytes());
        p.push(RESERVED_TIER);
        p
    }

    /// Parses an InfoResp payload.
    pub fn decode(payload: &[u8]) -> Result<ModelInfo, ServeError> {
        let mut c = Cursor::new(payload);
        let info = ModelInfo {
            in_channels: c.u32()?,
            out_channels: c.u32()?,
            grid: [c.u32()?, c.u32()?, c.u32()?],
            latent_channels: c.u32()?,
            param_count: c.u64()?,
            trained_steps: c.u64()?,
        };
        c.u8()?; // RESERVED_TIER: must be present, any value
        c.finish()?;
        Ok(info)
    }
}

/// Per-shard serving statistics returned by [`Kind::Stats`]. On the wire
/// each stat ends in the `RESERVED_TIER` byte, which is not a field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStat {
    /// The shard's listen address (as configured, not as resolved).
    pub addr: String,
    /// Completed requests.
    pub requests: u64,
    /// Requests that ended in a typed error.
    pub errors: u64,
    /// Requests currently in flight.
    pub inflight: u64,
    /// Latent-cache hits.
    pub cache_hits: u64,
    /// Latent-cache misses.
    pub cache_misses: u64,
    /// Detected digest collisions.
    pub cache_collisions: u64,
    /// Latents currently cached.
    pub cache_len: u64,
    /// Decode invocations (one per `Query`, `EncodeQuery` or `Refine`).
    pub decode_calls: u64,
    /// Query points decoded across all of them.
    pub batched_queries: u64,
}

impl ShardStat {
    /// Appends this stat's wire form to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.addr.len() as u32).to_le_bytes());
        out.extend_from_slice(self.addr.as_bytes());
        for v in [
            self.requests,
            self.errors,
            self.inflight,
            self.cache_hits,
            self.cache_misses,
            self.cache_collisions,
            self.cache_len,
            self.decode_calls,
            self.batched_queries,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.push(RESERVED_TIER);
    }

    /// Reads one stat from a cursor.
    pub fn decode_from(c: &mut Cursor<'_>) -> Result<ShardStat, ServeError> {
        let n = c.u32()? as usize;
        let addr = String::from_utf8(c.bytes(n)?.to_vec())
            .map_err(|_| ServeError::BadPayload("shard address is not UTF-8".into()))?;
        let stat = ShardStat {
            addr,
            requests: c.u64()?,
            errors: c.u64()?,
            inflight: c.u64()?,
            cache_hits: c.u64()?,
            cache_misses: c.u64()?,
            cache_collisions: c.u64()?,
            cache_len: c.u64()?,
            decode_calls: c.u64()?,
            batched_queries: c.u64()?,
        };
        c.u8()?; // RESERVED_TIER: must be present, any value
        Ok(stat)
    }
}

/// Serializes a StatsResp payload (`count: u32` then the stats).
pub fn encode_stats(stats: &[ShardStat]) -> Vec<u8> {
    let mut p = Vec::with_capacity(4 + stats.len() * 96);
    p.extend_from_slice(&(stats.len() as u32).to_le_bytes());
    for s in stats {
        s.encode_into(&mut p);
    }
    p
}

/// Parses a StatsResp payload.
pub fn decode_stats(payload: &[u8]) -> Result<Vec<ShardStat>, ServeError> {
    let mut c = Cursor::new(payload);
    let count = c.u32()? as usize;
    let mut stats = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        stats.push(ShardStat::decode_from(&mut c)?);
    }
    c.finish()?;
    Ok(stats)
}

/// Bounds-checked little-endian payload reader. Every read either yields a
/// value or a typed [`ServeError::BadPayload`] — no slicing panics.
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Wraps a payload for sequential decoding.
    pub fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ServeError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len()).ok_or_else(|| {
            ServeError::BadPayload(format!(
                "payload ends at byte {} but {} more needed",
                self.bytes.len(),
                self.pos + n - self.bytes.len(),
            ))
        })?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, ServeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], ServeError> {
        self.take(n)
    }

    /// Reads a LE `u32`.
    pub fn u32(&mut self) -> Result<u32, ServeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a LE `u64`.
    pub fn u64(&mut self) -> Result<u64, ServeError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads a LE `f32`.
    pub fn f32(&mut self) -> Result<f32, ServeError> {
        let b = self.take(4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads `count` LE `f32`s.
    pub fn f32s(&mut self, count: usize) -> Result<Vec<f32>, ServeError> {
        let b = self.take(
            count
                .checked_mul(4)
                .ok_or_else(|| ServeError::BadPayload("f32 count overflows".into()))?,
        )?;
        Ok(b.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect())
    }

    /// Asserts the payload was fully consumed (trailing bytes = malformed).
    pub fn finish(&self) -> Result<(), ServeError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(ServeError::BadPayload(format!(
                "{} trailing bytes after payload",
                self.bytes.len() - self.pos
            )))
        }
    }
}

/// Appends `values` as LE `f32`s to `out`.
pub fn put_f32s(out: &mut Vec<u8>, values: &[f32]) {
    out.reserve(values.len() * 4);
    for &v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, Kind::Encode, &[1, 2, 3]).unwrap();
        assert_eq!(buf.len(), HEADER_LEN + 3);
        let (kind, payload) = read_frame(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(Kind::from_u8(kind), Some(Kind::Encode));
        assert_eq!(payload, vec![1, 2, 3]);
    }

    #[test]
    fn clean_eof_is_none_mid_header_is_truncated() {
        assert!(matches!(read_frame(&mut (&[] as &[u8])), Ok(None)));
        let mut buf = Vec::new();
        write_frame(&mut buf, Kind::Ping, &[]).unwrap();
        buf.truncate(5);
        assert_eq!(read_frame(&mut buf.as_slice()), Err(ServeError::Truncated));
    }

    #[test]
    fn header_violations_are_typed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, Kind::Ping, &[]).unwrap();
        let mut bad_magic = buf.clone();
        bad_magic[0] = b'X';
        assert_eq!(read_frame(&mut bad_magic.as_slice()), Err(ServeError::BadMagic));
        let mut bad_version = buf.clone();
        bad_version[4] = 9;
        assert_eq!(read_frame(&mut bad_version.as_slice()), Err(ServeError::BadVersion { got: 9 }));
        let mut oversized = buf.clone();
        oversized[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            read_frame(&mut oversized.as_slice()),
            Err(ServeError::Oversized { len: u32::MAX })
        );
    }

    #[test]
    fn error_frame_roundtrip() {
        let mut buf = Vec::new();
        write_error(&mut buf, &ServeError::UnknownDigest(7)).unwrap();
        let (kind, payload) = read_frame(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(Kind::from_u8(kind), Some(Kind::Error));
        let err = decode_error(&payload);
        assert_eq!(err.code(), crate::error::code::UNKNOWN_DIGEST);
    }

    #[test]
    fn model_info_roundtrip() {
        let info = ModelInfo {
            in_channels: 4,
            out_channels: 4,
            grid: [4, 16, 16],
            latent_channels: 32,
            param_count: 123_456,
            trained_steps: 789,
        };
        let enc = info.encode();
        assert_eq!(ModelInfo::decode(&enc).unwrap(), info);
        // The reserved byte is mandatory: a payload without it is rejected,
        // and trailing bytes beyond it still trip the strict finish.
        assert!(ModelInfo::decode(&enc[..enc.len() - 1]).is_err());
        let mut long = enc.clone();
        long.push(0);
        assert!(ModelInfo::decode(&long).is_err());
        // Its value is ignored: an older shard advertising a tier decodes.
        let mut old_peer = enc;
        *old_peer.last_mut().unwrap() = 1;
        assert_eq!(ModelInfo::decode(&old_peer).unwrap(), info);
    }

    #[test]
    fn decoder_yields_frames_across_arbitrary_splits() {
        let mut wire = Vec::new();
        write_frame(&mut wire, Kind::Encode, &[1, 2, 3]).unwrap();
        write_frame(&mut wire, Kind::Ping, &[]).unwrap();
        // Feed one byte at a time: the worst fragmentation a poll loop sees.
        let mut d = FrameDecoder::new();
        let mut frames = Vec::new();
        for &b in &wire {
            d.extend(&[b]);
            while let Some(f) = d.next_frame().unwrap() {
                frames.push(f);
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0], (Kind::Encode as u8, vec![1, 2, 3]));
        assert_eq!(frames[1], (Kind::Ping as u8, Vec::new()));
        assert!(!d.mid_frame());
    }

    #[test]
    fn decoder_rejects_bad_headers_then_poisons() {
        let mut wire = Vec::new();
        write_frame(&mut wire, Kind::Ping, &[]).unwrap();
        wire[0] = b'X';
        let mut d = FrameDecoder::new();
        d.extend(&wire);
        assert_eq!(d.next_frame(), Err(ServeError::BadMagic));
        assert!(d.is_poisoned());
        // Poisoned decoders swallow further input instead of resyncing on
        // garbage mid-stream.
        d.extend(&wire);
        assert_eq!(d.next_frame(), Ok(None));

        let mut oversized = Vec::new();
        write_frame(&mut oversized, Kind::Ping, &[]).unwrap();
        oversized[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut d2 = FrameDecoder::new();
        d2.extend(&oversized);
        assert_eq!(d2.next_frame(), Err(ServeError::Oversized { len: u32::MAX }));
    }

    #[test]
    fn decoder_tracks_mid_frame() {
        let mut wire = Vec::new();
        write_frame(&mut wire, Kind::Encode, &[0u8; 32]).unwrap();
        let mut d = FrameDecoder::new();
        assert!(!d.mid_frame());
        d.extend(&wire[..5]);
        assert!(d.mid_frame(), "partial header is mid-frame");
        d.extend(&wire[5..20]);
        assert!(d.next_frame().unwrap().is_none());
        assert!(d.mid_frame(), "partial payload is mid-frame");
        d.extend(&wire[20..]);
        assert!(d.next_frame().unwrap().is_some());
        assert!(!d.mid_frame());
    }

    #[test]
    fn shard_stats_roundtrip() {
        let stats = vec![
            ShardStat {
                addr: "127.0.0.1:7077".into(),
                requests: 10,
                errors: 1,
                inflight: 2,
                cache_hits: 7,
                cache_misses: 3,
                cache_collisions: 0,
                cache_len: 3,
                decode_calls: 5,
                batched_queries: 320,
            },
            ShardStat {
                addr: "127.0.0.1:7078".into(),
                requests: 0,
                errors: 0,
                inflight: 0,
                cache_hits: 0,
                cache_misses: 0,
                cache_collisions: 0,
                cache_len: 0,
                decode_calls: 0,
                batched_queries: 0,
            },
        ];
        let enc = encode_stats(&stats);
        assert_eq!(decode_stats(&enc).unwrap(), stats);
        assert!(decode_stats(&[1, 0]).is_err(), "truncated stats payload must not panic");
        // Each stat's reserved byte is mandatory and its value ignored.
        assert!(decode_stats(&enc[..enc.len() - 1]).is_err());
        let mut old_peer = enc;
        *old_peer.last_mut().unwrap() = 1;
        assert_eq!(decode_stats(&old_peer).unwrap(), stats);
    }

    #[test]
    fn cursor_rejects_overrun_and_trailing() {
        let mut c = Cursor::new(&[1, 0, 0, 0]);
        assert_eq!(c.u32().unwrap(), 1);
        assert!(matches!(c.u32(), Err(ServeError::BadPayload(_))));
        let c2 = Cursor::new(&[0u8; 5]);
        assert!(matches!(c2.finish(), Err(ServeError::BadPayload(_))));
    }
}
