//! Typed serving errors with stable wire codes.
//!
//! Every failure a client can observe has a numeric code that travels in the
//! protocol's error frame (see [`crate::protocol`]); the server never panics
//! on malformed input and never closes a connection without first attempting
//! to write one of these. Codes are append-only: new variants take fresh
//! numbers, existing numbers never change meaning.

use std::fmt;

/// Stable wire codes for [`ServeError`].
pub mod code {
    /// Frame did not start with the protocol magic.
    pub const BAD_MAGIC: u16 = 1;
    /// Unsupported protocol version.
    pub const BAD_VERSION: u16 = 2;
    /// Declared payload length exceeds the frame cap.
    pub const OVERSIZED: u16 = 3;
    /// Stream ended mid-frame.
    pub const TRUNCATED: u16 = 4;
    /// Unrecognized frame kind byte.
    pub const UNKNOWN_KIND: u16 = 5;
    /// Payload failed structural decoding.
    pub const BAD_PAYLOAD: u16 = 6;
    /// Payload decoded but its shape contradicts the model.
    pub const SHAPE_MISMATCH: u16 = 7;
    /// Query referenced a latent digest not present in the cache.
    pub const UNKNOWN_DIGEST: u16 = 8;
    /// Connection backlog full; retry later.
    pub const BUSY: u16 = 9;
    /// Server is draining and no longer accepts new requests.
    pub const SHUTTING_DOWN: u16 = 10;
    /// Request exceeded the per-request deadline.
    pub const TIMEOUT: u16 = 11;
    /// Unexpected server-side failure.
    pub const INTERNAL: u16 = 12;
    /// Encode found a cached latent under this digest that was built from
    /// *different* patch bytes (a 64-bit digest collision).
    pub const DIGEST_COLLISION: u16 = 13;
    /// A router could not find any healthy shard to forward the request to.
    pub const NO_HEALTHY_SHARD: u16 = 14;
    /// Refinement budget rejected (absurd step count, non-finite tolerance,
    /// or over the server's per-request compute caps).
    pub const BAD_BUDGET: u16 = 15;
    /// Refinement requested but the server was started without `--refine`.
    pub const REFINE_DISABLED: u16 = 16;
}

/// Everything that can go wrong between a client request and its response.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Frame did not start with `b"MFNS"`.
    BadMagic,
    /// Frame declared an unsupported protocol version.
    BadVersion {
        /// The version byte received.
        got: u8,
    },
    /// Declared payload length exceeds [`crate::protocol::MAX_PAYLOAD`].
    Oversized {
        /// The declared payload length.
        len: u32,
    },
    /// Stream ended before a complete frame arrived.
    Truncated,
    /// Frame kind byte is not a known request/response kind.
    UnknownKind {
        /// The kind byte received.
        kind: u8,
    },
    /// Payload bytes failed structural decoding.
    BadPayload(String),
    /// Payload decoded but contradicts the model (channel count, patch
    /// dims, batch index out of range, non-finite coordinate, …).
    ShapeMismatch(String),
    /// The queried latent digest is not (or no longer) cached.
    UnknownDigest(u64),
    /// The submitted patch hashes to a digest already owned by a cached
    /// latent with different bytes. The digest namespace is occupied, so
    /// this patch cannot be addressed over the wire; the client must not
    /// be served the colliding latent.
    DigestCollision(u64),
    /// The server's connection backlog is full.
    Busy,
    /// The server is draining connections for shutdown.
    ShuttingDown,
    /// The request ran past its deadline.
    Timeout,
    /// Unexpected server-side failure (worker panic, I/O error, …).
    Internal(String),
    /// No healthy shard is available to serve this request (router-only).
    NoHealthyShard,
    /// The refinement budget is invalid or exceeds the server's caps. The
    /// message says which field and which cap; the request never starts, so
    /// an absurd budget can never buy unbounded compute.
    BadBudget(String),
    /// Refinement is not enabled on this server.
    RefineDisabled,
    /// Client-side view of an error frame received from the server.
    Remote {
        /// The wire code from the error frame.
        code: u16,
        /// The server's human-readable message.
        message: String,
    },
}

impl ServeError {
    /// The stable wire code for this error. For [`ServeError::Remote`] this
    /// is the code the server sent, so client-side tests can match on the
    /// original failure without caring where it was detected.
    pub fn code(&self) -> u16 {
        match self {
            ServeError::BadMagic => code::BAD_MAGIC,
            ServeError::BadVersion { .. } => code::BAD_VERSION,
            ServeError::Oversized { .. } => code::OVERSIZED,
            ServeError::Truncated => code::TRUNCATED,
            ServeError::UnknownKind { .. } => code::UNKNOWN_KIND,
            ServeError::BadPayload(_) => code::BAD_PAYLOAD,
            ServeError::ShapeMismatch(_) => code::SHAPE_MISMATCH,
            ServeError::UnknownDigest(_) => code::UNKNOWN_DIGEST,
            ServeError::DigestCollision(_) => code::DIGEST_COLLISION,
            ServeError::Busy => code::BUSY,
            ServeError::ShuttingDown => code::SHUTTING_DOWN,
            ServeError::Timeout => code::TIMEOUT,
            ServeError::Internal(_) => code::INTERNAL,
            ServeError::NoHealthyShard => code::NO_HEALTHY_SHARD,
            ServeError::BadBudget(_) => code::BAD_BUDGET,
            ServeError::RefineDisabled => code::REFINE_DISABLED,
            ServeError::Remote { code, .. } => *code,
        }
    }

    /// Maps an I/O error seen while reading/writing frames to the typed
    /// error a peer should be told about (where possible).
    pub fn from_io(e: &std::io::Error) -> ServeError {
        use std::io::ErrorKind;
        match e.kind() {
            ErrorKind::UnexpectedEof | ErrorKind::ConnectionReset | ErrorKind::BrokenPipe => {
                ServeError::Truncated
            }
            ErrorKind::TimedOut | ErrorKind::WouldBlock => ServeError::Timeout,
            _ => ServeError::Internal(e.to_string()),
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::BadMagic => write!(f, "bad frame magic"),
            ServeError::BadVersion { got } => write!(f, "unsupported protocol version {got}"),
            ServeError::Oversized { len } => write!(f, "payload length {len} exceeds frame cap"),
            ServeError::Truncated => write!(f, "stream ended mid-frame"),
            ServeError::UnknownKind { kind } => write!(f, "unknown frame kind {kind:#04x}"),
            ServeError::BadPayload(m) => write!(f, "bad payload: {m}"),
            ServeError::ShapeMismatch(m) => write!(f, "shape mismatch: {m}"),
            ServeError::UnknownDigest(d) => write!(f, "unknown latent digest {d:#018x}"),
            ServeError::DigestCollision(d) => {
                write!(f, "latent digest {d:#018x} collides with a different cached patch")
            }
            ServeError::Busy => write!(f, "server busy"),
            ServeError::ShuttingDown => write!(f, "server shutting down"),
            ServeError::Timeout => write!(f, "request timed out"),
            ServeError::Internal(m) => write!(f, "internal error: {m}"),
            ServeError::NoHealthyShard => write!(f, "no healthy shard available"),
            ServeError::BadBudget(m) => write!(f, "bad refine budget: {m}"),
            ServeError::RefineDisabled => write!(f, "refinement not enabled on this server"),
            ServeError::Remote { code, message } => {
                write!(f, "server error {code}: {message}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// A payload that ends inside a field is structurally malformed.
impl From<mfn_tensor::le::Short> for ServeError {
    fn from(e: mfn_tensor::le::Short) -> Self {
        ServeError::BadPayload(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_distinct_and_stable() {
        let all = [
            ServeError::BadMagic,
            ServeError::BadVersion { got: 9 },
            ServeError::Oversized { len: 1 },
            ServeError::Truncated,
            ServeError::UnknownKind { kind: 0x7f },
            ServeError::BadPayload(String::new()),
            ServeError::ShapeMismatch(String::new()),
            ServeError::UnknownDigest(0),
            ServeError::Busy,
            ServeError::ShuttingDown,
            ServeError::Timeout,
            ServeError::Internal(String::new()),
            ServeError::DigestCollision(0),
            ServeError::NoHealthyShard,
            ServeError::BadBudget(String::new()),
            ServeError::RefineDisabled,
        ];
        let codes: Vec<u16> = all.iter().map(ServeError::code).collect();
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate wire codes");
        assert_eq!(codes, (1..=16).collect::<Vec<u16>>());
    }

    #[test]
    fn remote_preserves_original_code() {
        let e = ServeError::Remote { code: code::UNKNOWN_DIGEST, message: "gone".into() };
        assert_eq!(e.code(), code::UNKNOWN_DIGEST);
    }
}
