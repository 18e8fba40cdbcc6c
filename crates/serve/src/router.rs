//! Fleet router: digest-affine request forwarding with health checking.
//!
//! The router is the thin tier in front of N shard servers. Its one job is
//! to preserve the encode-once economics *fleet-wide*: a patch digest maps
//! to exactly one shard (via the [`crate::ring::HashRing`]), so every
//! `Encode`, `Query`, and `EncodeQuery` touching the same patch lands on
//! the same latent cache no matter which client sent it. The router never
//! parses floats — `Query` carries its digest in the first 8 payload bytes,
//! and `Encode`/`EncodeQuery` digests are computed straight over the raw
//! little-endian payload bytes ([`crate::cache::patch_digest_bytes`]),
//! bit-identical to what the shard itself computes.
//!
//! Health is judged two ways, both feeding the same consecutive-failure
//! counter (the `mfn-dist` fault-detector idiom): a background prober pings
//! every shard on a fixed cadence, and any forwarding I/O failure counts as
//! an in-band probe failure. A shard at the failure threshold is marked
//! unhealthy; its keyspace arc spills to ring successors
//! ([`crate::ring::HashRing::route`]) while every healthy shard keeps its
//! own keys — and with them its cache. A rerouted `Query` whose latent only
//! lived on the dead shard surfaces as `UnknownDigest`, the same error a
//! single server gives after eviction, so clients need no fleet-specific
//! recovery: re-encode and continue. When no shard is healthy the router
//! answers [`ServeError::NoHealthyShard`] and keeps the connection.
//!
//! Client connections are served by the crate's one connection model
//! (`conn.rs`, shared with the shard): one reused thread per live
//! connection reads a frame, forwards it over that connection's own pooled
//! shard connections, and relays the reply.

use crate::cache::patch_digest_bytes;
use crate::conn::{resolve, Connections, Reply, Service};
use crate::error::ServeError;
use crate::protocol::{encode_stats, read_frame, write_frame, Kind, ModelInfo, ShardStat};
use crate::ring::HashRing;
use crate::Client;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Consecutive probe/forward failures before a shard is marked down.
const FAIL_THRESHOLD: u32 = 2;

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Listen address (`host:port`; port 0 picks a free one).
    pub addr: String,
    /// Shard addresses; their order defines ring shard indices.
    pub shards: Vec<String>,
    /// Background health-probe cadence.
    pub health_interval: Duration,
    /// I/O deadline for shard forwards and health probes.
    pub request_timeout: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".into(),
            shards: Vec::new(),
            health_interval: Duration::from_millis(200),
            request_timeout: Duration::from_secs(5),
        }
    }
}

/// Per-shard health state: a consecutive-failure counter feeding a flag.
struct Health {
    healthy: Vec<AtomicBool>,
    fails: Vec<AtomicU32>,
}

impl Health {
    fn new(n: usize) -> Self {
        Health {
            healthy: (0..n).map(|_| AtomicBool::new(true)).collect(),
            fails: (0..n).map(|_| AtomicU32::new(0)).collect(),
        }
    }

    fn note_ok(&self, i: usize) {
        self.fails[i].store(0, Ordering::Relaxed);
        self.healthy[i].store(true, Ordering::Relaxed);
    }

    fn note_fail(&self, i: usize) {
        let n = self.fails[i].fetch_add(1, Ordering::Relaxed) + 1;
        if n >= FAIL_THRESHOLD {
            self.healthy[i].store(false, Ordering::Relaxed);
        }
    }

    fn is_healthy(&self, i: usize) -> bool {
        self.healthy[i].load(Ordering::Relaxed)
    }

    fn mask(&self) -> Vec<bool> {
        self.healthy.iter().map(|h| h.load(Ordering::Relaxed)).collect()
    }
}

struct Ctx {
    cfg: RouterConfig,
    ring: HashRing,
    health: Health,
    /// Model metadata, fetched once from the first responsive shard. All
    /// shards serve the same checkpoint, so any shard's answer is *the*
    /// answer; the patch dims inside it are what digest extraction needs.
    info: Mutex<Option<ModelInfo>>,
}

impl Ctx {
    /// Cached [`ModelInfo`], fetching from a healthy shard on first use.
    fn model_info(&self) -> Result<ModelInfo, ServeError> {
        let mut slot = self.info.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(info) = *slot {
            return Ok(info);
        }
        for (i, addr) in self.cfg.shards.iter().enumerate() {
            if !self.health.is_healthy(i) {
                continue;
            }
            match probe_client(addr, self.cfg.request_timeout).and_then(|mut c| c.info()) {
                Ok(info) => {
                    self.health.note_ok(i);
                    *slot = Some(info);
                    return Ok(info);
                }
                Err(_) => self.health.note_fail(i),
            }
        }
        Err(ServeError::NoHealthyShard)
    }
}

fn probe_client(addr: &str, timeout: Duration) -> Result<Client, ServeError> {
    let c = Client::connect(addr).map_err(|e| ServeError::from_io(&e))?;
    c.set_timeout(Some(timeout)).map_err(|e| ServeError::from_io(&e))?;
    Ok(c)
}

/// A running router; dropping or calling [`Router::shutdown`] stops it.
pub struct Router {
    conns: Connections,
    health: Option<JoinHandle<()>>,
}

impl Router {
    /// Binds, spawns the accept and health-prober threads, and returns.
    pub fn start(cfg: RouterConfig) -> std::io::Result<Router> {
        assert!(!cfg.shards.is_empty(), "router needs at least one shard");
        let listener = TcpListener::bind(resolve(&cfg.addr)?)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let ring = HashRing::new(&cfg.shards);
        let health = Health::new(cfg.shards.len());
        let timeout = cfg.request_timeout;
        let ctx = Arc::new(Ctx { cfg, ring, health, info: Mutex::new(None) });
        let health = {
            let ctx = ctx.clone();
            let shutdown = shutdown.clone();
            std::thread::Builder::new()
                .name("router-health".into())
                .spawn(move || health_loop(ctx, shutdown))?
        };
        let conns = Connections::serve("router", listener, ctx, timeout, shutdown)?;
        Ok(Router { conns, health: Some(health) })
    }

    /// The bound listen address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.conns.local_addr()
    }

    /// Stops accepting, tells idle connections `ShuttingDown`, and joins
    /// every router thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        // Raises the flag the health prober watches too.
        self.conns.join();
        if let Some(t) = self.health.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Background prober: pings every shard each interval; successes and
/// failures feed the same counters the forwarding path uses, so a shard
/// that died quietly (no traffic hitting it) is still detected, and a
/// shard that recovered is brought back without operator action.
fn health_loop(ctx: Arc<Ctx>, shutdown: Arc<AtomicBool>) {
    let probe_timeout = ctx.cfg.request_timeout.min(Duration::from_millis(500));
    while !shutdown.load(Ordering::SeqCst) {
        for (i, addr) in ctx.cfg.shards.iter().enumerate() {
            match probe_client(addr, probe_timeout) {
                Ok(mut c) => match c.ping() {
                    Ok(()) => ctx.health.note_ok(i),
                    Err(_) => ctx.health.note_fail(i),
                },
                Err(_) => ctx.health.note_fail(i),
            }
        }
        // Sleep in small slices so shutdown stays prompt.
        let mut left = ctx.cfg.health_interval;
        while !shutdown.load(Ordering::SeqCst) && left > Duration::ZERO {
            let step = left.min(Duration::from_millis(25));
            std::thread::sleep(step);
            left = left.saturating_sub(step);
        }
    }
}

/// Routes one frame: `Ping` answered here, `Info` from the cached model
/// metadata, `Stats` aggregated, model work forwarded to its shard over the
/// connection's own pooled shard connections (opened on first forward,
/// dropped on first I/O error), which keeps the data path lock-free.
impl Service for Ctx {
    type Conn = Vec<Option<TcpStream>>;

    fn open(&self) -> Self::Conn {
        self.cfg.shards.iter().map(|_| None).collect()
    }

    fn answer(&self, pool: &mut Self::Conn, kind: u8, payload: Vec<u8>) -> Reply {
        match Kind::from_u8(kind) {
            Some(Kind::Ping) => Ok((Kind::Pong, Vec::new())),
            Some(Kind::Info) => self.model_info().map(|info| (Kind::InfoResp, info.encode())),
            Some(Kind::Stats) => gather_stats(self),
            Some(k @ (Kind::Encode | Kind::Query | Kind::EncodeQuery | Kind::Refine)) => {
                let digest = extract_digest(self, k, &payload);
                forward(self, pool, k, &payload, digest)
            }
            // Response kinds and unknown bytes: same answer a shard gives,
            // and the connection stays usable.
            Some(_) | None => Err(ServeError::UnknownKind { kind }),
        }
    }
}

/// The ring key for a request frame, from payload bytes alone.
///
/// `Query` and `Refine` carry the digest verbatim in their first 8 bytes
/// (the `Refine` payload leads with the digest for exactly this reason —
/// refinements shard to the same cache as the queries they upgrade). For
/// `Encode`
/// and `EncodeQuery` the digest is recomputed exactly as the shard will:
/// FNV-1a over the patch dims `[batch, C, nt, nz, nx]` then the raw LE f32
/// bytes (`EncodeQuery` trailing query bytes are not part of the patch).
/// Malformed payloads get `None` and are routed to the first healthy shard,
/// whose decoder produces the authoritative typed error — the router never
/// duplicates payload validation.
fn extract_digest(ctx: &Ctx, kind: Kind, payload: &[u8]) -> Option<u64> {
    match kind {
        Kind::Query | Kind::Refine => {
            let b = payload.get(0..8)?;
            Some(u64::from_le_bytes(b.try_into().ok()?))
        }
        Kind::Encode | Kind::EncodeQuery => {
            let info = ctx.model_info().ok()?;
            let batch = u32::from_le_bytes(payload.get(0..4)?.try_into().ok()?) as usize;
            let dims = [
                batch,
                info.in_channels as usize,
                info.grid[0] as usize,
                info.grid[1] as usize,
                info.grid[2] as usize,
            ];
            let numel = dims.iter().try_fold(1usize, |a, &d| a.checked_mul(d))?;
            let data = payload.get(4..4 + numel.checked_mul(4)?)?;
            Some(patch_digest_bytes(&dims, data))
        }
        _ => None,
    }
}

/// Forwards a frame to the digest's shard, walking the ring past shards
/// that fail mid-forward. Every transport failure feeds the shared health
/// counters, so the in-band path detects a killed shard as fast as the
/// prober does. A typed error frame *from* a shard is a successful forward
/// and is relayed verbatim — the shard's verdict is the answer.
fn forward(
    ctx: &Ctx,
    pool: &mut [Option<TcpStream>],
    kind: Kind,
    payload: &[u8],
    digest: Option<u64>,
) -> Result<(Kind, Vec<u8>), ServeError> {
    let mut tried: Vec<bool> = vec![false; pool.len()];
    loop {
        let mut mask = ctx.health.mask();
        for (m, t) in mask.iter_mut().zip(&tried) {
            *m = *m && !*t;
        }
        let shard = match digest {
            Some(d) => ctx.ring.route(d, &mask).ok_or(ServeError::NoHealthyShard)?,
            // No digest ⇒ the payload is malformed; any healthy shard can
            // pronounce the typed error.
            None => mask.iter().position(|&m| m).ok_or(ServeError::NoHealthyShard)?,
        };
        match forward_once(ctx, &mut pool[shard], shard, kind, payload) {
            Ok(resp) => {
                ctx.health.note_ok(shard);
                return Ok(resp);
            }
            Err(_) => {
                pool[shard] = None;
                tried[shard] = true;
                ctx.health.note_fail(shard);
            }
        }
    }
}

/// One write-request/read-response exchange with a shard over the pooled
/// (or freshly opened) connection. Any I/O error is returned for the retry
/// loop; a decoded frame — including an error frame — is a success.
fn forward_once(
    ctx: &Ctx,
    slot: &mut Option<TcpStream>,
    shard: usize,
    kind: Kind,
    payload: &[u8],
) -> std::io::Result<(Kind, Vec<u8>)> {
    if slot.is_none() {
        let s = TcpStream::connect(resolve(&ctx.cfg.shards[shard])?)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(ctx.cfg.request_timeout))?;
        s.set_write_timeout(Some(ctx.cfg.request_timeout))?;
        *slot = Some(s);
    }
    let s = slot.as_mut().expect("pool slot just filled");
    write_frame(s, kind, payload)?;
    let (k, resp) = read_frame(s)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "shard closed mid-exchange")
        })?;
    let kind = Kind::from_u8(k).ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, format!("shard sent kind {k:#04x}"))
    })?;
    Ok((kind, resp))
}

/// Aggregates `Stats` across healthy shards. A shard that fails the stats
/// probe is skipped (and its failure counted); the response length is
/// therefore also the fleet's healthy-shard count, which is what the chaos
/// test and the load generator read.
fn gather_stats(ctx: &Ctx) -> Result<(Kind, Vec<u8>), ServeError> {
    let mut all: Vec<ShardStat> = Vec::new();
    for (i, addr) in ctx.cfg.shards.iter().enumerate() {
        if !ctx.health.is_healthy(i) {
            continue;
        }
        match probe_client(addr, ctx.cfg.request_timeout).and_then(|mut c| c.stats()) {
            Ok(stats) => {
                ctx.health.note_ok(i);
                all.extend(stats);
            }
            Err(_) => ctx.health.note_fail(i),
        }
    }
    if all.is_empty() {
        return Err(ServeError::NoHealthyShard);
    }
    Ok((Kind::StatsResp, encode_stats(&all)))
}
