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
//! *before* the payload is touched, and the payload buffer grows as its bytes
//! arrive, so a hostile length prefix costs nothing. Headers and payloads
//! are decoded with the workspace's one bounds-checked reader,
//! `mfn_tensor::le`, whose every read is a value or a typed
//! [`ServeError::BadPayload`] — malformed payloads are rejected, never
//! panicked on.

use crate::error::ServeError;
use mfn_tensor::le::ReadLe;
use std::io::Write;

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"MFNS";
/// Current protocol version.
pub const VERSION: u8 = 1;
/// Frame header size in bytes.
pub const HEADER_LEN: usize = 12;
/// Maximum payload size (16 MiB) — caps memory a frame can demand.
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;
/// Payload bytes [`read_frame`] reserves before any arrive; past this the
/// buffer grows with what the stream delivers.
const FIRST_READ: usize = 64 * 1024;

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

/// Validates a frame header — magic, version, the payload cap — and returns
/// its `(kind, payload_len)`. The one header check of [`read_frame`] and
/// [`FrameDecoder`].
pub(crate) fn check_header(h: &[u8; HEADER_LEN]) -> Result<(u8, usize), ServeError> {
    if h[0..4] != MAGIC {
        return Err(ServeError::BadMagic);
    }
    if h[4] != VERSION {
        return Err(ServeError::BadVersion { got: h[4] });
    }
    let len = (&h[8..]).u32()?;
    if len > MAX_PAYLOAD {
        return Err(ServeError::Oversized { len });
    }
    Ok((h[5], len as usize))
}

/// Reads one frame, validating the header before allocating for the
/// payload. Returns `Ok(None)` on a clean EOF at a frame boundary (the peer
/// closed between requests — not an error).
pub fn read_frame(r: &mut impl std::io::Read) -> Result<Option<(u8, Vec<u8>)>, ServeError> {
    use std::io::Read;
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
    let (kind, len) = check_header(&header)?;
    // A header may promise 16 MiB and then close: reserve a first read, and
    // let the buffer grow only as bytes arrive.
    let mut payload = Vec::with_capacity(len.min(FIRST_READ));
    r.take(len as u64).read_to_end(&mut payload).map_err(|e| ServeError::from_io(&e))?;
    if payload.len() < len {
        return Err(ServeError::Truncated);
    }
    Ok(Some((kind, payload)))
}

/// Incremental frame decoder: buffers bytes as they arrive in arbitrary
/// slices and yields complete frames as they form, checking each header the
/// moment 12 bytes are buffered, with the same check as [`read_frame`].
///
/// No server reads through it — both read with [`read_frame`]. It is kept for
/// its two users outside the crate: `benchmark/`'s `serve.protocol_us` times
/// framing with it, and the `fuzz_protocol` suite drives it with mutated
/// byte streams.
///
/// After any `Err` the stream is desynced and the decoder refuses further
/// input.
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
                let Some(h) = self.buf[self.pos..].first_chunk::<HEADER_LEN>() else {
                    return Ok(None);
                };
                let header = check_header(h).inspect_err(|_| self.poisoned = true)?;
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
pub fn decode_error(mut payload: &[u8]) -> ServeError {
    match payload.u16() {
        Ok(code) => ServeError::Remote { code, message: String::from_utf8_lossy(payload).into() },
        Err(_) => ServeError::BadPayload("error frame shorter than its code".into()),
    }
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
    pub fn decode(mut r: &[u8]) -> Result<ModelInfo, ServeError> {
        let info = ModelInfo {
            in_channels: r.u32()?,
            out_channels: r.u32()?,
            grid: [r.u32()?, r.u32()?, r.u32()?],
            latent_channels: r.u32()?,
            param_count: r.u64()?,
            trained_steps: r.u64()?,
        };
        r.u8()?; // RESERVED_TIER: must be present, any value
        finish(r)?;
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

    /// Reads one stat from the front of `r`.
    pub fn decode_from(r: &mut &[u8]) -> Result<ShardStat, ServeError> {
        let n = r.u32()? as usize;
        let addr = String::from_utf8(r.take(n)?.to_vec())
            .map_err(|_| ServeError::BadPayload("shard address is not UTF-8".into()))?;
        let stat = ShardStat {
            addr,
            requests: r.u64()?,
            errors: r.u64()?,
            inflight: r.u64()?,
            cache_hits: r.u64()?,
            cache_misses: r.u64()?,
            cache_collisions: r.u64()?,
            cache_len: r.u64()?,
            decode_calls: r.u64()?,
            batched_queries: r.u64()?,
        };
        r.u8()?; // RESERVED_TIER: must be present, any value
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
pub fn decode_stats(mut r: &[u8]) -> Result<Vec<ShardStat>, ServeError> {
    let count = r.u32()? as usize;
    let mut stats = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        stats.push(ShardStat::decode_from(&mut r)?);
    }
    finish(r)?;
    Ok(stats)
}

/// Requires a payload to have been read to its end: trailing bytes are
/// malformed.
pub(crate) fn finish(rest: &[u8]) -> Result<(), ServeError> {
    if rest.is_empty() {
        Ok(())
    } else {
        Err(ServeError::BadPayload(format!("{} trailing bytes after payload", rest.len())))
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
        // Feed one byte at a time: the worst fragmentation a stream can show.
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
    fn both_readers_give_every_header_the_same_verdict() {
        let frame = |magic: &[u8; 4], version: u8, kind: u8, reserved: u8, len: u32| {
            let mut wire = magic.to_vec();
            wire.extend_from_slice(&[version, kind, reserved, 0]);
            wire.extend_from_slice(&len.to_le_bytes());
            // A header within the cap comes with its payload.
            if len <= MAX_PAYLOAD {
                wire.resize(HEADER_LEN + len as usize, 7);
            }
            wire
        };
        let cases = [
            frame(&MAGIC, VERSION, Kind::Ping as u8, 0, 0),
            frame(&MAGIC, VERSION, Kind::Query as u8, 0, 3),
            // Kind and reserved bytes are the payload decoder's business.
            frame(&MAGIC, VERSION, 0x42, 0, 1),
            frame(&MAGIC, VERSION, Kind::Ping as u8, 9, 0),
            frame(&MAGIC, VERSION, Kind::Encode as u8, 0, MAX_PAYLOAD),
            frame(b"MFNX", VERSION, Kind::Ping as u8, 0, 0),
            frame(b"\0\0\0\0", VERSION, Kind::Ping as u8, 0, 0),
            frame(&MAGIC, 0, Kind::Ping as u8, 0, 0),
            frame(&MAGIC, VERSION + 1, Kind::Ping as u8, 0, 0),
            frame(&MAGIC, VERSION, Kind::Ping as u8, 0, MAX_PAYLOAD + 1),
            frame(&MAGIC, VERSION, Kind::Ping as u8, 0, u32::MAX),
        ];
        for wire in cases {
            let mut d = FrameDecoder::new();
            d.extend(&wire);
            let verdict = read_frame(&mut wire.as_slice());
            assert_eq!(d.next_frame(), verdict, "header {:?}", &wire[..HEADER_LEN]);
            assert_eq!(d.is_poisoned(), verdict.is_err());
        }
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
        let mut r = &[1u8, 0, 0, 0][..];
        assert_eq!(r.u32().map_err(ServeError::from), Ok(1));
        assert!(matches!(r.u32().map_err(ServeError::from), Err(ServeError::BadPayload(_))));
        assert!(matches!(finish(&[0u8; 5]), Err(ServeError::BadPayload(_))));
        assert_eq!(decode_error(&[6]).code(), crate::error::code::BAD_PAYLOAD);
    }
}
