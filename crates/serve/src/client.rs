//! Blocking client for the serve protocol.
//!
//! One [`Client`] wraps one TCP connection and issues one request at a time
//! (the protocol is strictly request/response per connection — concurrency
//! comes from opening more connections). Server-reported failures surface as
//! [`ServeError::Remote`] carrying the original wire code.

use crate::engine::Query;
use crate::error::ServeError;
use crate::protocol::{
    decode_error, decode_stats, finish, put_f32s, read_frame, write_frame, Kind, ModelInfo,
    ShardStat,
};
use mfn_core::RefineBudget;
use mfn_tensor::le::ReadLe;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Result of a `Query`/`EncodeQuery` round trip.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Digest of the latent the values were decoded from.
    pub digest: u64,
    /// Whether the latent came from the cache (always true for `Query`).
    pub cache_hit: bool,
    /// Flattened predictions, `count · channels` values.
    pub values: Vec<f32>,
    /// Output channels per query point.
    pub channels: usize,
}

/// Result of a `Refine` round trip.
#[derive(Debug, Clone, PartialEq)]
pub struct RefineResult {
    /// Digest of the cached latent the refinement started from.
    pub digest: u64,
    /// Gradient candidate steps the server ran.
    pub steps_run: u32,
    /// Steps that strictly reduced the residual and were kept.
    pub steps_accepted: u32,
    /// Mean absolute PDE residual at the query points before refinement.
    pub initial_residual: f32,
    /// Residual of the latent the values were decoded from.
    pub final_residual: f32,
    /// Flattened predictions, `count · channels` values.
    pub values: Vec<f32>,
    /// Output channels per query point.
    pub channels: usize,
}

/// A blocking connection to a serve instance.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects and applies a default 5 s I/O timeout.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let c = Client { stream };
        c.set_timeout(Some(Duration::from_secs(5)))?;
        Ok(c)
    }

    /// Sets the read and write timeout for subsequent requests.
    pub fn set_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)?;
        self.stream.set_write_timeout(timeout)
    }

    fn call(&mut self, kind: Kind, payload: &[u8]) -> Result<(Kind, Vec<u8>), ServeError> {
        write_frame(&mut self.stream, kind, payload).map_err(|e| ServeError::from_io(&e))?;
        let (k, resp) = read_frame(&mut self.stream)?.ok_or(ServeError::Truncated)?;
        match Kind::from_u8(k) {
            Some(Kind::Error) => Err(decode_error(&resp)),
            Some(k) => Ok((k, resp)),
            None => Err(ServeError::UnknownKind { kind: k }),
        }
    }

    fn expect(&mut self, req: Kind, payload: &[u8], want: Kind) -> Result<Vec<u8>, ServeError> {
        let (k, resp) = self.call(req, payload)?;
        if k != want {
            return Err(ServeError::BadPayload(format!("expected {want:?} response, got {k:?}")));
        }
        Ok(resp)
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ServeError> {
        self.expect(Kind::Ping, &[], Kind::Pong).map(|_| ())
    }

    /// Fetches model metadata.
    pub fn info(&mut self) -> Result<ModelInfo, ServeError> {
        let resp = self.expect(Kind::Info, &[], Kind::InfoResp)?;
        ModelInfo::decode(&resp)
    }

    /// Encodes a stacked patch (`batch · C · nt · nz · nx` f32s), returning
    /// `(digest, cache_hit)`.
    pub fn encode(&mut self, batch: usize, data: &[f32]) -> Result<(u64, bool), ServeError> {
        let mut p = Vec::with_capacity(4 + data.len() * 4);
        p.extend_from_slice(&(batch as u32).to_le_bytes());
        put_f32s(&mut p, data);
        let resp = self.expect(Kind::Encode, &p, Kind::EncodeResp)?;
        let mut r = resp.as_slice();
        let digest = r.u64()?;
        let hit = r.u8()? != 0;
        finish(r)?;
        Ok((digest, hit))
    }

    /// Queries a cached latent by digest.
    pub fn query(&mut self, digest: u64, queries: &[Query]) -> Result<QueryResult, ServeError> {
        let mut p = Vec::with_capacity(12 + queries.len() * 16);
        p.extend_from_slice(&digest.to_le_bytes());
        put_queries(&mut p, queries);
        let resp = self.expect(Kind::Query, &p, Kind::QueryResp)?;
        decode_query_resp(&resp)
    }

    /// Test-time physics refinement of a cached latent: the server runs up
    /// to `budget.max_steps` gradient steps on a copy of the latent,
    /// minimizing the PDE residual at `queries`, then decodes. Premium
    /// call — expect latency proportional to the budget.
    pub fn refine(
        &mut self,
        digest: u64,
        queries: &[Query],
        budget: RefineBudget,
    ) -> Result<RefineResult, ServeError> {
        let mut p = Vec::with_capacity(28 + queries.len() * 16);
        p.extend_from_slice(&digest.to_le_bytes());
        p.extend_from_slice(&budget.max_steps.to_le_bytes());
        p.extend_from_slice(&budget.tol.to_le_bytes());
        p.extend_from_slice(&budget.max_micros.to_le_bytes());
        put_queries(&mut p, queries);
        let resp = self.expect(Kind::Refine, &p, Kind::RefineResp)?;
        let mut r = resp.as_slice();
        let digest = r.u64()?;
        let steps_run = r.u32()?;
        let steps_accepted = r.u32()?;
        let initial_residual = r.f32()?;
        let final_residual = r.f32()?;
        let (values, channels) = decode_values(&mut r)?;
        Ok(RefineResult {
            digest,
            steps_run,
            steps_accepted,
            initial_residual,
            final_residual,
            values,
            channels,
        })
    }

    /// Fetches serving statistics: one [`ShardStat`] from a shard, one per
    /// healthy shard from a router.
    pub fn stats(&mut self) -> Result<Vec<ShardStat>, ServeError> {
        let resp = self.expect(Kind::Stats, &[], Kind::StatsResp)?;
        decode_stats(&resp)
    }

    /// Encode + query in one round trip.
    pub fn encode_query(
        &mut self,
        batch: usize,
        data: &[f32],
        queries: &[Query],
    ) -> Result<QueryResult, ServeError> {
        let mut p = Vec::with_capacity(8 + data.len() * 4 + queries.len() * 16);
        p.extend_from_slice(&(batch as u32).to_le_bytes());
        put_f32s(&mut p, data);
        put_queries(&mut p, queries);
        let resp = self.expect(Kind::EncodeQuery, &p, Kind::QueryResp)?;
        decode_query_resp(&resp)
    }
}

fn put_queries(p: &mut Vec<u8>, queries: &[Query]) {
    p.extend_from_slice(&(queries.len() as u32).to_le_bytes());
    for &(b, [t, z, x]) in queries {
        p.extend_from_slice(&(b as u32).to_le_bytes());
        for v in [t, z, x] {
            p.extend_from_slice(&v.to_le_bytes());
        }
    }
}

fn decode_query_resp(mut r: &[u8]) -> Result<QueryResult, ServeError> {
    let digest = r.u64()?;
    let cache_hit = r.u8()? != 0;
    let (values, channels) = decode_values(&mut r)?;
    Ok(QueryResult { digest, cache_hit, values, channels })
}

/// Reads `count: u32`, `channels: u32`, then the `count·channels` values,
/// which must end the payload.
fn decode_values(r: &mut &[u8]) -> Result<(Vec<f32>, usize), ServeError> {
    let count = r.u32()? as usize;
    let channels = r.u32()? as usize;
    let values = r.f32s(count.saturating_mul(channels))?;
    finish(r)?;
    Ok((values, channels))
}
