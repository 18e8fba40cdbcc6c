//! The shard: a TCP server answering the frame protocol from one [`Engine`].
//!
//! Connections are served by the crate's one connection model
//! (`conn.rs`, shared with the router): a blocking accept and one
//! reused thread per live connection that reads a frame, answers it and
//! writes the reply. What makes this the shard is the answer. Requests that
//! need model work — `Encode`, `Query`, `EncodeQuery`, `Refine` — go to a
//! fixed pool of [`ServerConfig::workers`] compute threads over a bounded
//! queue (`JOB_QUEUE`, 64 jobs); the connection thread waits for the result.
//! When the queue is full the request is answered `Busy` and the connection
//! stays open. Cheap requests (`Ping`, `Info`, `Stats`) are answered on the
//! connection thread and never wait behind compute.
//!
//! Shutdown is a drain: accepting stops, in-flight compute finishes and its
//! replies are written, idle connections are told `ShuttingDown`, and
//! `shutdown()` joins every thread before returning.

use crate::conn::{resolve, Connections, Reply, Service};
use crate::engine::{Engine, RefineOutcome};
use crate::error::ServeError;
use crate::protocol::{self, Kind};
use mfn_core::RefineBudget;
use mfn_telemetry::Recorder;
use mfn_tensor::le::ReadLe;
use mfn_tensor::workspace::{self, WorkspaceGuard};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Bound of the compute job queue; when full, requests get a typed `Busy`
/// error.
const JOB_QUEUE: usize = 64;
/// Telemetry publish cadence.
const PUBLISH_INTERVAL: Duration = Duration::from_millis(500);

/// Server knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7077` (port 0 for ephemeral).
    pub addr: String,
    /// Compute worker threads (concurrent model evaluations).
    pub workers: usize,
    /// Deadline for a started frame to finish arriving, and for a blocked
    /// write to make progress.
    pub request_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            request_timeout: Duration::from_secs(2),
        }
    }
}

/// A running server; dropping or calling [`Server::shutdown`] drains it.
pub struct Server {
    conns: Connections,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the accept/worker/publisher threads, and returns.
    pub fn start(
        engine: Arc<Engine>,
        cfg: ServerConfig,
        recorder: Recorder,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(resolve(&cfg.addr)?)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let (jobs, job_rx) = std::sync::mpsc::sync_channel::<Job>(JOB_QUEUE);
        let job_rx = Arc::new(Mutex::new(job_rx));
        let mut threads = Vec::new();

        for i in 0..cfg.workers.max(1) {
            let engine = engine.clone();
            let job_rx = job_rx.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(engine, job_rx))?,
            );
        }
        {
            let engine = engine.clone();
            let shutdown = shutdown.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("serve-telemetry".into())
                    .spawn(move || publish_loop(engine, recorder, shutdown))?,
            );
        }
        // Stats frames identify this shard by address; report the bound
        // one so port-0 servers are distinguishable in fleet aggregation.
        let addr = listener.local_addr()?.to_string();
        let shard = Arc::new(Shard { engine, addr, jobs });
        let conns = Connections::serve("serve", listener, shard, cfg.request_timeout, shutdown)?;
        Ok(Server { conns, threads })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.conns.local_addr()
    }

    /// Signals shutdown and joins every thread; in-flight requests finish
    /// and their replies are written, idle connections are told
    /// `ShuttingDown`.
    pub fn shutdown(mut self) {
        self.drain();
    }

    fn drain(&mut self) {
        // Raises the flag the publisher watches too. Connection threads hold
        // the last handles on the job queue, so the workers see it close
        // once these are joined.
        self.conns.join();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.drain();
    }
}

/// A request for the compute pool and where its reply goes.
struct Job {
    kind: u8,
    payload: Vec<u8>,
    reply: SyncSender<Reply>,
}

/// The shard's [`Service`]: cheap kinds inline, model work to the pool.
struct Shard {
    engine: Arc<Engine>,
    addr: String,
    jobs: SyncSender<Job>,
}

/// Counts one open connection in the shard's stats while it lives.
struct OpenConn(Arc<Engine>);

impl Drop for OpenConn {
    fn drop(&mut self) {
        self.0.stats().note_conn_closed();
    }
}

impl Service for Shard {
    type Conn = OpenConn;

    fn open(&self) -> OpenConn {
        self.engine.stats().note_conn_opened();
        OpenConn(self.engine.clone())
    }

    fn answer(&self, _conn: &mut OpenConn, kind: u8, payload: Vec<u8>) -> Reply {
        let t0 = Instant::now();
        let engine = &self.engine;
        let empty = || protocol::finish(&payload);
        let reply = match Kind::from_u8(kind) {
            Some(Kind::Ping) => empty().map(|_| (Kind::Pong, Vec::new())),
            Some(Kind::Info) => empty().map(|_| (Kind::InfoResp, engine.info().encode())),
            Some(Kind::Stats) => empty().map(|_| {
                (Kind::StatsResp, protocol::encode_stats(&[engine.shard_stat(&self.addr)]))
            }),
            Some(Kind::Encode | Kind::Query | Kind::EncodeQuery | Kind::Refine) => {
                let (reply, rx) = std::sync::mpsc::sync_channel(1);
                match self.jobs.try_send(Job { kind, payload, reply }) {
                    Ok(()) => rx.recv().unwrap_or(Err(ServeError::ShuttingDown)),
                    Err(TrySendError::Full(_)) => {
                        engine.stats().note_busy();
                        Err(ServeError::Busy)
                    }
                    Err(TrySendError::Disconnected(_)) => Err(ServeError::ShuttingDown),
                }
            }
            // Response kinds arriving as requests are protocol misuse; the
            // stream is still frame-aligned, so the connection survives.
            Some(_) | None => Err(ServeError::UnknownKind { kind }),
        };
        match &reply {
            Ok(_) => engine.stats().note_request(t0.elapsed().as_micros() as u64),
            Err(_) => engine.stats().note_error(),
        }
        reply
    }
}

fn worker_loop(engine: Arc<Engine>, jobs: Arc<Mutex<Receiver<Job>>>) {
    loop {
        // Hold the receiver lock only for the dequeue, not while computing.
        let job = jobs.lock().unwrap_or_else(|e| e.into_inner()).recv();
        let Ok(job) = job else { break }; // every connection thread is gone
        let _inflight = engine.stats().begin_request();
        // A panic below a request (a kernel assert slipping past
        // validation) must not take the worker down with it.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle_request(&engine, job.kind, &job.payload)
        }))
        .unwrap_or_else(|_| Err(ServeError::Internal("request handler panicked".into())));
        let _ = job.reply.send(result);
    }
}

/// Decodes and executes one request frame.
fn handle_request(engine: &Engine, kind: u8, mut r: &[u8]) -> Result<(Kind, Vec<u8>), ServeError> {
    match Kind::from_u8(kind) {
        Some(Kind::Encode) => {
            let (batch, data) = decode_patch(engine, &mut r)?;
            protocol::finish(r)?;
            let (digest, hit) = engine.encode_patch(batch, data)?;
            Ok((Kind::EncodeResp, encode_resp(digest, hit)))
        }
        Some(Kind::Query) => {
            let digest = r.u64()?;
            let queries = decode_queries(engine, &mut r, QUERY_RESP_HEAD)?;
            protocol::finish(r)?;
            let (values, channels) = engine.query(digest, queries)?;
            Ok((Kind::QueryResp, query_resp(digest, true, &values, channels)))
        }
        Some(Kind::EncodeQuery) => {
            let (batch, data) = decode_patch(engine, &mut r)?;
            let queries = decode_queries(engine, &mut r, QUERY_RESP_HEAD)?;
            protocol::finish(r)?;
            let (digest, hit, values, channels) = engine.encode_query(batch, data, queries)?;
            Ok((Kind::QueryResp, query_resp(digest, hit, &values, channels)))
        }
        Some(Kind::Refine) => {
            let digest = r.u64()?;
            let budget = RefineBudget { max_steps: r.u32()?, tol: r.f32()?, max_micros: r.u64()? };
            let queries = decode_queries(engine, &mut r, REFINE_RESP_HEAD)?;
            protocol::finish(r)?;
            let out = engine.refine(digest, queries, budget)?;
            Ok((Kind::RefineResp, refine_resp(digest, &out)))
        }
        // Ping/Info/Stats are answered on the connection thread; anything
        // else reaching the pool is protocol misuse.
        Some(_) | None => Err(ServeError::UnknownKind { kind }),
    }
}

/// Reads `batch: u32` then the patch f32s into a workspace checkout. A
/// batch of more patches than the payload holds fails at the reader before
/// it sizes anything.
fn decode_patch(engine: &Engine, r: &mut &[u8]) -> Result<(usize, WorkspaceGuard), ServeError> {
    let batch = r.u32()? as usize;
    if batch == 0 {
        return Err(ServeError::ShapeMismatch("encode batch must be >= 1".into()));
    }
    let mut bytes = r.take(batch.saturating_mul(engine.patch_numel(1)).saturating_mul(4))?;
    let mut data = workspace::take_scratch(bytes.len() / 4);
    bytes.f32s_into(&mut data)?;
    Ok((batch, data))
}

/// Bytes of a `QueryResp` payload before its values.
const QUERY_RESP_HEAD: usize = 17;
/// Bytes of a `RefineResp` payload before its values.
const REFINE_RESP_HEAD: usize = 32;

/// Reads `count: u32` then the queries. A count whose reply — `head` bytes,
/// then `channels` f32s a point — would pass the frame cap is refused
/// before any query is read.
fn decode_queries(
    engine: &Engine,
    r: &mut &[u8],
    head: usize,
) -> Result<Vec<(usize, [f32; 3])>, ServeError> {
    let count = r.u32()? as usize;
    let channels = engine.model().cfg().out_channels.max(1);
    let most = (protocol::MAX_PAYLOAD as usize - head) / (4 * channels);
    if count > most {
        return Err(ServeError::BadPayload(format!(
            "{count} queries: the reply would pass the frame cap ({most} fit)"
        )));
    }
    // 16 bytes per query: reserve no more than the rest of the payload can
    // fill, so a lying count fails at the reader before it sizes anything.
    let mut qs = Vec::with_capacity(count.min(r.len() / 16));
    for _ in 0..count {
        let b = r.u32()? as usize;
        qs.push((b, [r.f32()?, r.f32()?, r.f32()?]));
    }
    Ok(qs)
}

fn encode_resp(digest: u64, hit: bool) -> Vec<u8> {
    let mut p = Vec::with_capacity(9);
    p.extend_from_slice(&digest.to_le_bytes());
    p.push(hit as u8);
    p
}

fn query_resp(digest: u64, hit: bool, values: &[f32], channels: usize) -> Vec<u8> {
    let count = values.len() / channels.max(1);
    let mut p = Vec::with_capacity(QUERY_RESP_HEAD + values.len() * 4);
    p.extend_from_slice(&digest.to_le_bytes());
    p.push(hit as u8);
    p.extend_from_slice(&(count as u32).to_le_bytes());
    p.extend_from_slice(&(channels as u32).to_le_bytes());
    protocol::put_f32s(&mut p, values);
    p
}

fn refine_resp(digest: u64, out: &RefineOutcome) -> Vec<u8> {
    let count = out.values.len() / out.channels.max(1);
    let mut p = Vec::with_capacity(REFINE_RESP_HEAD + out.values.len() * 4);
    p.extend_from_slice(&digest.to_le_bytes());
    p.extend_from_slice(&out.report.steps_run.to_le_bytes());
    p.extend_from_slice(&out.report.steps_accepted.to_le_bytes());
    p.extend_from_slice(&out.report.initial_residual.to_le_bytes());
    p.extend_from_slice(&out.report.final_residual.to_le_bytes());
    p.extend_from_slice(&(count as u32).to_le_bytes());
    p.extend_from_slice(&(out.channels as u32).to_le_bytes());
    protocol::put_f32s(&mut p, &out.values);
    p
}

fn publish_loop(engine: Arc<Engine>, recorder: Recorder, shutdown: Arc<AtomicBool>) {
    if !recorder.is_enabled() {
        return;
    }
    let mut last_latency = engine.stats().latency_us().snapshot();
    let mut last_t = Instant::now();
    loop {
        let stopping = shutdown.load(Ordering::SeqCst);
        if !stopping {
            std::thread::sleep(PUBLISH_INTERVAL);
        }
        let stats = engine.stats();
        let now = Instant::now();
        let dt = now.duration_since(last_t).as_secs_f64().max(1e-9);
        last_t = now;
        // Rate and percentiles of the requests completed since the last publish.
        let latency = stats.latency_us().snapshot();
        let interval = latency.since(&last_latency);
        last_latency = latency;
        recorder.gauge("serve.qps", interval.count() as f64 / dt);
        if let (Some(p50), Some(p99)) = (interval.quantile(0.5), interval.quantile(0.99)) {
            recorder.gauge("serve.p50_us", p50 as f64);
            recorder.gauge("serve.p99_us", p99 as f64);
        }
        recorder.gauge("serve.inflight", stats.inflight() as f64);
        recorder.gauge("serve.conns", stats.conns() as f64);
        recorder.gauge("serve.busy_rejects", stats.busy_rejects() as f64);
        recorder.gauge("serve.cache_hits", engine.cache().hits() as f64);
        recorder.gauge("serve.cache_misses", engine.cache().misses() as f64);
        recorder.gauge("serve.cache_collisions", engine.cache().collisions() as f64);
        recorder.gauge("serve.refines", stats.refines() as f64);
        recorder.gauge("serve.refine_steps", stats.refine_steps() as f64);
        // Points per decode (the name predates one-request decodes).
        let calls = stats.decode_calls();
        if calls > 0 {
            recorder.gauge("serve.batch_size", stats.batched_queries() as f64 / calls as f64);
        }
        // Flush every interval, not just at shutdown: a tailed JSONL sink
        // should show live gauges, and a killed process shouldn't lose the
        // whole run to a buffered writer.
        recorder.flush();
        if stopping {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineConfig;
    use mfn_core::{FrozenModel, MeshfreeFlowNet, MfnConfig};
    use mfn_data::PatchSpec;

    #[test]
    fn a_publish_with_no_new_requests_reports_no_percentiles() {
        let mut cfg = MfnConfig::small();
        cfg.patch = PatchSpec { nt: 4, nz: 4, nx: 4, queries: 16 };
        cfg.levels = 2;
        let model = FrozenModel::from_model(MeshfreeFlowNet::new(cfg));
        let engine = Arc::new(Engine::new(model, EngineConfig::default()));
        // Requests completed before the loop started belong to no interval
        // it publishes; a stopping loop publishes once, at once.
        for us in [800, 900, 1_000] {
            engine.stats().note_request(us);
        }
        let (recorder, telemetry) = Recorder::memory(64);
        publish_loop(engine, recorder, Arc::new(AtomicBool::new(true)));
        assert!(telemetry.gauge("serve.qps").is_some(), "the loop published");
        assert_eq!(telemetry.gauge("serve.p50_us"), None);
        assert_eq!(telemetry.gauge("serve.p99_us"), None);
    }
}
