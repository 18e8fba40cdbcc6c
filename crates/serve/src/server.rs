//! Nonblocking readiness-loop TCP server over the frame protocol.
//!
//! Architecture: one IO thread owns every socket. The listener and all
//! connections are nonblocking; each sweep of the loop drains compute
//! completions, accepts new connections, and services every live connection
//! through a per-connection state machine (incremental [`FrameDecoder`] on
//! the read side, a buffered byte queue on the write side). Requests that
//! need model work — `Encode`, `Query`, `EncodeQuery` — are handed to a
//! fixed pool of compute workers over a bounded queue; cheap requests
//! (`Ping`, `Info`, `Stats`) are answered inline. One process holds
//! thousands of connections this way: idle connections cost a buffer and a
//! slab slot, not a thread.
//!
//! Everything is std — no async runtime and no epoll binding. The loop
//! polls with an adaptive backoff: while any socket or completion makes
//! progress it spins hot; once idle it yields, then waits on the compute
//! pool's completion channel in escalating steps capped at
//! [`ServerConfig::idle_poll`] (which therefore still bounds shutdown
//! latency, exactly as in the blocking design). A finished job ends the wait
//! at once; socket readiness is seen at the next step.
//!
//! Ordering: responses on a connection must come back in request order even
//! though the compute pool finishes jobs out of order. Each decoded frame
//! takes a per-connection sequence number; completed responses park in a
//! reorder map and are flushed strictly in sequence.
//!
//! Admission control bounds memory three ways: a connection with
//! `MAX_INFLIGHT_PER_CONN` (32) requests in flight is simply not read from
//! (TCP backpressure, no errors); a full compute queue (`JOB_QUEUE`, 64
//! jobs) answers `Busy` but keeps the connection; a process at `MAX_CONNS`
//! (4,096) refuses new connections with `Busy`.
//!
//! Error discipline is unchanged from the blocking server: payload-level
//! failures (`BadPayload`, `ShapeMismatch`, `UnknownDigest`, …) are
//! answered and the connection lives on; header-level failures (`BadMagic`,
//! `BadVersion`, `Oversized`, `Truncated`, `Timeout`) poison the stream —
//! the server flushes the error frame, then closes. A client that stalls
//! mid-frame gets a typed `Timeout` once [`ServerConfig::request_timeout`]
//! passes without the frame completing.
//!
//! Shutdown is a drain: accepting stops, in-flight compute finishes and its
//! responses flush, idle connections are told `ShuttingDown`, and
//! `shutdown()` joins every thread before returning.

use crate::engine::{Engine, RefineOutcome};
use crate::error::ServeError;
use crate::protocol::{self, write_error, write_frame, Cursor, FrameDecoder, Kind};
use mfn_core::RefineBudget;
use mfn_telemetry::Recorder;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Bound of the compute job queue; when full, requests get a typed `Busy`
/// error.
const JOB_QUEUE: usize = 64;
/// Open-connection cap; beyond it new connections are refused `Busy`.
const MAX_CONNS: usize = 4096;
/// Per-connection in-flight request bound; a connection at the bound is not
/// read from until a response completes (TCP backpressure).
const MAX_INFLIGHT_PER_CONN: usize = 32;
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
    /// Cap on the IO loop's idle backoff sleep (bounds shutdown latency).
    pub idle_poll: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            request_timeout: Duration::from_secs(2),
            idle_poll: Duration::from_millis(25),
        }
    }
}

/// A running server; dropping or calling [`Server::shutdown`] drains it.
pub struct Server {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the IO/worker/publisher threads, and returns.
    pub fn start(
        engine: Arc<Engine>,
        cfg: ServerConfig,
        recorder: Recorder,
    ) -> std::io::Result<Server> {
        let mut cfg = cfg;
        let listener = TcpListener::bind(resolve(&cfg.addr)?)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        // Stats frames identify this shard by address; report the bound
        // one so port-0 servers are distinguishable in fleet aggregation.
        cfg.addr = local_addr.to_string();
        let shutdown = Arc::new(AtomicBool::new(false));
        let (job_tx, job_rx) = std::sync::mpsc::sync_channel::<Job>(JOB_QUEUE);
        let (done_tx, done_rx) = std::sync::mpsc::channel::<Done>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let mut threads = Vec::new();

        for i in 0..cfg.workers.max(1) {
            let engine = engine.clone();
            let job_rx = job_rx.clone();
            let done_tx = done_tx.clone();
            let idle = cfg.idle_poll;
            threads.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(engine, job_rx, done_tx, idle))?,
            );
        }
        drop(done_tx); // the IO loop must see Disconnected once workers exit
        {
            let engine = engine.clone();
            let shutdown = shutdown.clone();
            let cfg = cfg.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("serve-io".into())
                    .spawn(move || io_loop(listener, engine, cfg, shutdown, job_tx, done_rx))?,
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
        Ok(Server { local_addr, shutdown, threads })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Signals shutdown and joins every thread; in-flight requests finish
    /// and their responses flush, idle connections are told `ShuttingDown`.
    pub fn shutdown(mut self) {
        self.drain();
    }

    fn drain(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
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

fn resolve(addr: &str) -> std::io::Result<SocketAddr> {
    addr.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, format!("unresolvable {addr}"))
    })
}

/// A compute job dispatched from the IO loop to the worker pool.
struct Job {
    conn: usize,
    gen: u64,
    seq: u64,
    kind: u8,
    payload: Vec<u8>,
    t0: Instant,
}

/// A finished job travelling back to the IO loop.
struct Done {
    conn: usize,
    gen: u64,
    seq: u64,
    t0: Instant,
    result: Result<(Kind, Vec<u8>), ServeError>,
}

type Response = (Result<(Kind, Vec<u8>), ServeError>, Instant);

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    /// Generation stamp distinguishing this connection from a previous
    /// occupant of the same slab slot (stale completions are dropped).
    gen: u64,
    decoder: FrameDecoder,
    /// Bytes queued for writing; `out_pos` marks how much already left.
    out: Vec<u8>,
    out_pos: usize,
    /// Sequence number the next decoded frame will take.
    next_seq: u64,
    /// Sequence number the next flushed response must have.
    flush_seq: u64,
    /// Completed responses waiting for their turn in the order.
    ready: BTreeMap<u64, Response>,
    /// Jobs dispatched to the compute pool, not yet completed.
    inflight: usize,
    /// No more reads; close once responses and output are fully flushed.
    closing: bool,
    /// Peer half-closed cleanly at a frame boundary.
    read_closed: bool,
    /// Deadline for the in-progress frame to finish arriving.
    frame_deadline: Option<Instant>,
    /// Deadline for a blocked write to make progress.
    write_deadline: Option<Instant>,
}

impl Conn {
    fn new(stream: TcpStream, gen: u64) -> Self {
        Conn {
            stream,
            gen,
            decoder: FrameDecoder::new(),
            out: Vec::new(),
            out_pos: 0,
            next_seq: 0,
            flush_seq: 0,
            ready: BTreeMap::new(),
            inflight: 0,
            closing: false,
            read_closed: false,
            frame_deadline: None,
            write_deadline: None,
        }
    }

    /// Parks a response under its sequence number.
    fn queue(&mut self, seq: u64, resp: Response) {
        self.ready.insert(seq, resp);
    }

    /// Parks a connection-fatal error and stops further reads.
    fn queue_close(&mut self, seq: u64, err: ServeError) {
        self.queue(seq, (Err(err), Instant::now()));
        self.closing = true;
    }

    /// Moves in-order completed responses from the reorder map into the
    /// output buffer, recording stats as each is committed.
    fn flush_ready(&mut self, engine: &Engine) {
        while let Some((result, t0)) = self.ready.remove(&self.flush_seq) {
            self.flush_seq += 1;
            match result {
                Ok((kind, payload)) => {
                    write_frame(&mut self.out, kind, &payload).expect("vec write");
                    engine.stats().note_request(t0.elapsed().as_micros() as u64);
                }
                Err(e) => {
                    engine.stats().note_error();
                    write_error(&mut self.out, &e).expect("vec write");
                }
            }
        }
    }

    /// Decodes buffered frames and dispatches them, respecting the per-conn
    /// in-flight bound. Returns whether anything happened.
    fn parse_frames(
        &mut self,
        id: usize,
        engine: &Engine,
        cfg: &ServerConfig,
        job_tx: &SyncSender<Job>,
        draining: bool,
    ) -> bool {
        let mut progress = false;
        while !self.closing && self.inflight < MAX_INFLIGHT_PER_CONN {
            match self.decoder.next_frame() {
                Ok(Some((kind, payload))) => {
                    progress = true;
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    if draining {
                        self.queue_close(seq, ServeError::ShuttingDown);
                    } else {
                        self.dispatch(id, seq, kind, payload, engine, cfg, job_tx);
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    // Header-level violation: answer, then close. The
                    // decoder is poisoned, so no further frames can arrive.
                    progress = true;
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    self.queue_close(seq, e);
                    break;
                }
            }
        }
        self.flush_ready(engine);
        progress
    }

    /// Routes one decoded frame: cheap kinds inline, model work to the pool.
    #[allow(clippy::too_many_arguments)]
    fn dispatch(
        &mut self,
        id: usize,
        seq: u64,
        kind: u8,
        payload: Vec<u8>,
        engine: &Engine,
        cfg: &ServerConfig,
        job_tx: &SyncSender<Job>,
    ) {
        let t0 = Instant::now();
        match Kind::from_u8(kind) {
            Some(Kind::Ping) => {
                let r = Cursor::new(&payload).finish().map(|_| (Kind::Pong, Vec::new()));
                self.queue(seq, (r, t0));
            }
            Some(Kind::Info) => {
                let r = Cursor::new(&payload)
                    .finish()
                    .map(|_| (Kind::InfoResp, engine.info().encode()));
                self.queue(seq, (r, t0));
            }
            Some(Kind::Stats) => {
                let r = Cursor::new(&payload).finish().map(|_| {
                    (Kind::StatsResp, protocol::encode_stats(&[engine.shard_stat(&cfg.addr)]))
                });
                self.queue(seq, (r, t0));
            }
            Some(Kind::Encode | Kind::Query | Kind::EncodeQuery | Kind::Refine) => {
                match job_tx.try_send(Job { conn: id, gen: self.gen, seq, kind, payload, t0 }) {
                    Ok(()) => self.inflight += 1,
                    Err(TrySendError::Full(_)) => {
                        engine.stats().note_busy();
                        self.queue(seq, (Err(ServeError::Busy), t0));
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        self.queue_close(seq, ServeError::ShuttingDown);
                    }
                }
            }
            // Response kinds arriving as requests are protocol misuse; the
            // stream is still frame-aligned, so the connection survives.
            Some(_) | None => {
                self.queue(seq, (Err(ServeError::UnknownKind { kind }), t0));
            }
        }
    }

    /// One readiness sweep over this connection. Returns `(progress,
    /// alive)`; a dead connection is dropped by the caller.
    fn service(
        &mut self,
        id: usize,
        engine: &Engine,
        cfg: &ServerConfig,
        job_tx: &SyncSender<Job>,
        draining: bool,
        buf: &mut [u8],
    ) -> (bool, bool) {
        // Frames may have been buffered while the in-flight bound paused
        // reads; parse before reading so completions unblock them.
        let mut progress = self.parse_frames(id, engine, cfg, job_tx, draining);

        if !self.closing && !self.read_closed && !self.decoder.is_poisoned() {
            let mut reads = 0usize;
            while self.inflight < MAX_INFLIGHT_PER_CONN && reads < 4 {
                match self.stream.read(buf) {
                    Ok(0) => {
                        progress = true;
                        if self.decoder.mid_frame() {
                            let seq = self.next_seq;
                            self.next_seq += 1;
                            self.queue_close(seq, ServeError::Truncated);
                        }
                        self.read_closed = true;
                        break;
                    }
                    Ok(n) => {
                        progress = true;
                        reads += 1;
                        self.decoder.extend(&buf[..n]);
                        self.parse_frames(id, engine, cfg, job_tx, draining);
                        if self.closing || n < buf.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => return (true, false),
                }
            }
        }

        // Stall timeout: a frame that started must finish within the
        // request deadline. Suppressed while the in-flight bound pauses
        // parsing — then the stall is ours, not the client's.
        if self.closing || !self.decoder.mid_frame() || self.inflight >= MAX_INFLIGHT_PER_CONN {
            self.frame_deadline = None;
        } else {
            let now = Instant::now();
            let deadline = *self.frame_deadline.get_or_insert(now + cfg.request_timeout);
            if now >= deadline {
                progress = true;
                let seq = self.next_seq;
                self.next_seq += 1;
                self.queue_close(seq, ServeError::Timeout);
                self.flush_ready(engine);
            }
        }

        // Drain notice: an idle connection is told the server is going away.
        if draining && !self.closing && self.inflight == 0 && self.ready.is_empty() {
            write_error(&mut self.out, &ServeError::ShuttingDown).expect("vec write");
            self.closing = true;
            progress = true;
        }

        match self.flush_out(cfg.request_timeout) {
            Ok(p) => progress |= p,
            Err(()) => return (true, false),
        }
        if let Some(d) = self.write_deadline {
            if Instant::now() >= d {
                return (true, false);
            }
        }

        let flushed = self.out_pos >= self.out.len();
        if (self.closing || self.read_closed)
            && self.inflight == 0
            && self.ready.is_empty()
            && flushed
        {
            return (progress, false);
        }
        (progress, true)
    }

    /// Writes as much queued output as the socket accepts.
    fn flush_out(&mut self, timeout: Duration) -> Result<bool, ()> {
        let mut progress = false;
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(()),
                Ok(n) => {
                    progress = true;
                    self.out_pos += n;
                    self.write_deadline = None;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.write_deadline.get_or_insert_with(|| Instant::now() + timeout);
                    break;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return Err(()),
            }
        }
        if self.out_pos >= self.out.len() && !self.out.is_empty() {
            self.out.clear();
            self.out_pos = 0;
        }
        Ok(progress)
    }
}

/// The readiness loop: completions → accepts → per-connection sweeps, with
/// adaptive idle backoff.
fn io_loop(
    listener: TcpListener,
    engine: Arc<Engine>,
    cfg: ServerConfig,
    shutdown: Arc<AtomicBool>,
    job_tx: SyncSender<Job>,
    done_rx: Receiver<Done>,
) {
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut live = 0usize;
    let mut gen_counter = 0u64;
    let mut buf = vec![0u8; 64 * 1024];
    let mut idle_spins = 0u32;
    let mut draining = false;
    let mut drain_deadline = Instant::now();

    loop {
        let mut progress = false;

        if !draining && shutdown.load(Ordering::SeqCst) {
            draining = true;
            drain_deadline = Instant::now() + cfg.request_timeout;
        }

        // 1. Compute completions.
        while let Ok(done) = done_rx.try_recv() {
            progress = true;
            complete(&mut conns, &engine, done);
        }

        // 2. Accept until the listener runs dry.
        if !draining {
            loop {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        progress = true;
                        let _ = stream.set_nonblocking(true);
                        let _ = stream.set_nodelay(true);
                        if live >= MAX_CONNS {
                            engine.stats().note_busy();
                            refuse(stream, &ServeError::Busy);
                            continue;
                        }
                        gen_counter += 1;
                        let conn = Conn::new(stream, gen_counter);
                        match free.pop() {
                            Some(id) => conns[id] = Some(conn),
                            None => conns.push(Some(conn)),
                        }
                        live += 1;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => break, // transient accept failure; retry next sweep
                }
            }
        }

        // 3. Service every live connection.
        for (id, slot) in conns.iter_mut().enumerate() {
            let Some(c) = slot.as_mut() else { continue };
            let (p, alive) = c.service(id, &engine, &cfg, &job_tx, draining, &mut buf);
            progress |= p;
            if !alive {
                *slot = None;
                free.push(id);
                live -= 1;
            }
        }
        engine.stats().set_conns(live as u64);

        if draining && (live == 0 || Instant::now() >= drain_deadline) {
            break;
        }

        // 4. Adaptive idle backoff: spin while hot, yield briefly, then
        //    wait in escalating steps capped at `idle_poll` — on the
        //    completion channel, not on the clock, so a finished job wakes
        //    the loop at once while sockets are still polled at the backoff
        //    cadence.
        if progress {
            idle_spins = 0;
        } else {
            idle_spins = idle_spins.saturating_add(1);
            if idle_spins <= 2 {
                std::thread::yield_now();
            } else {
                let us = 50u64 << (idle_spins - 3).min(10);
                let backoff = Duration::from_micros(us).min(cfg.idle_poll);
                match done_rx.recv_timeout(backoff) {
                    Ok(done) => {
                        idle_spins = 0;
                        complete(&mut conns, &engine, done);
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                    // Every worker is gone (they only exit early by
                    // panicking); nothing will ever complete, so just pace
                    // the socket sweeps.
                    Err(RecvTimeoutError::Disconnected) => std::thread::sleep(backoff),
                }
            }
        }
    }
    // Dropping `job_tx` lets idle workers observe Disconnected once the
    // queue drains; remaining connections close when `conns` drops.
}

/// Parks a finished job's response in its connection's reorder map and
/// flushes whatever became in-order. A completion for a slot that has since
/// been closed or reused (generation mismatch) is dropped.
fn complete(conns: &mut [Option<Conn>], engine: &Engine, done: Done) {
    if let Some(Some(c)) = conns.get_mut(done.conn) {
        if c.gen == done.gen {
            c.inflight -= 1;
            c.queue(done.seq, (done.result, done.t0));
            c.flush_ready(engine);
        }
    }
}

/// Best-effort typed refusal of a connection we will not serve. The socket
/// is freshly accepted, so its send buffer is empty and a single
/// nonblocking write fits the whole error frame.
fn refuse(stream: TcpStream, err: &ServeError) {
    let mut frame = Vec::new();
    write_error(&mut frame, err).expect("vec write");
    let mut s = stream;
    let _ = s.write(&frame);
}

fn worker_loop(
    engine: Arc<Engine>,
    job_rx: Arc<Mutex<Receiver<Job>>>,
    done_tx: Sender<Done>,
    idle: Duration,
) {
    loop {
        // Hold the receiver lock only for the dequeue, not while computing.
        let job = {
            let guard = job_rx.lock().unwrap_or_else(|e| e.into_inner());
            guard.recv_timeout(idle)
        };
        match job {
            Ok(job) => {
                let _inflight = engine.stats().begin_request();
                // A panic below a request (a kernel assert slipping past
                // validation) must not take the worker down with it.
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    handle_request(&engine, job.kind, &job.payload)
                }))
                .unwrap_or_else(|_| Err(ServeError::Internal("request handler panicked".into())));
                let done = Done { conn: job.conn, gen: job.gen, seq: job.seq, t0: job.t0, result };
                if done_tx.send(done).is_err() {
                    break; // IO loop is gone
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
}

/// Decodes and executes one request frame.
fn handle_request(
    engine: &Engine,
    kind: u8,
    payload: &[u8],
) -> Result<(Kind, Vec<u8>), ServeError> {
    match Kind::from_u8(kind) {
        Some(Kind::Encode) => {
            let (batch, data) = decode_encode_payload(engine, payload)?;
            let (digest, hit) = engine.encode_patch(batch, data)?;
            Ok((Kind::EncodeResp, encode_resp(digest, hit)))
        }
        Some(Kind::Query) => {
            let mut c = Cursor::new(payload);
            let digest = c.u64()?;
            let queries = decode_queries(&mut c)?;
            c.finish()?;
            let (values, channels) = engine.query(digest, queries)?;
            Ok((Kind::QueryResp, query_resp(digest, true, &values, channels)))
        }
        Some(Kind::EncodeQuery) => {
            let mut c = Cursor::new(payload);
            let batch = c.u32()? as usize;
            let expect = checked_patch_numel(engine, batch)?;
            let data = c.f32s(expect)?;
            let queries = decode_queries(&mut c)?;
            c.finish()?;
            let (digest, hit, values, channels) = engine.encode_query(batch, data, queries)?;
            Ok((Kind::QueryResp, query_resp(digest, hit, &values, channels)))
        }
        Some(Kind::Refine) => {
            let mut c = Cursor::new(payload);
            let digest = c.u64()?;
            let budget = RefineBudget { max_steps: c.u32()?, tol: c.f32()?, max_micros: c.u64()? };
            let queries = decode_queries(&mut c)?;
            c.finish()?;
            let out = engine.refine(digest, queries, budget)?;
            Ok((Kind::RefineResp, refine_resp(digest, &out)))
        }
        // Ping/Info/Stats are answered inline by the IO loop; anything else
        // reaching the pool is protocol misuse.
        Some(_) | None => Err(ServeError::UnknownKind { kind }),
    }
}

/// Reads `batch: u32` then the patch f32s, which must fill the payload.
fn decode_encode_payload(engine: &Engine, payload: &[u8]) -> Result<(usize, Vec<f32>), ServeError> {
    let mut c = Cursor::new(payload);
    let batch = c.u32()? as usize;
    let expect = checked_patch_numel(engine, batch)?;
    let data = c.f32s(expect)?;
    c.finish()?;
    Ok((batch, data))
}

/// `patch_numel(batch)` guarded against absurd batch values: the result
/// must fit the frame cap, so a hostile `batch = u32::MAX` is rejected
/// before any allocation.
fn checked_patch_numel(engine: &Engine, batch: usize) -> Result<usize, ServeError> {
    if batch == 0 {
        return Err(ServeError::ShapeMismatch("encode batch must be >= 1".into()));
    }
    let per_patch = engine.patch_numel(1);
    let expect = batch.checked_mul(per_patch).filter(|&n| n * 4 <= protocol::MAX_PAYLOAD as usize);
    expect.ok_or_else(|| {
        ServeError::BadPayload(format!("batch {batch} patches exceed the frame cap"))
    })
}

fn decode_queries(c: &mut Cursor<'_>) -> Result<Vec<(usize, [f32; 3])>, ServeError> {
    let count = c.u32()? as usize;
    // 16 bytes per query; the cursor bounds-checks, so a lying count fails
    // before `count` can drive a large allocation.
    let mut qs = Vec::with_capacity(count.min(protocol::MAX_PAYLOAD as usize / 16));
    for _ in 0..count {
        let b = c.u32()? as usize;
        qs.push((b, [c.f32()?, c.f32()?, c.f32()?]));
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
    let mut p = Vec::with_capacity(17 + values.len() * 4);
    p.extend_from_slice(&digest.to_le_bytes());
    p.push(hit as u8);
    p.extend_from_slice(&(count as u32).to_le_bytes());
    p.extend_from_slice(&(channels as u32).to_le_bytes());
    protocol::put_f32s(&mut p, values);
    p
}

fn refine_resp(digest: u64, out: &RefineOutcome) -> Vec<u8> {
    let count = out.values.len() / out.channels.max(1);
    let mut p = Vec::with_capacity(32 + out.values.len() * 4);
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
    let mut last_requests = 0u64;
    let mut last_t = Instant::now();
    loop {
        let stopping = shutdown.load(Ordering::SeqCst);
        if !stopping {
            std::thread::sleep(PUBLISH_INTERVAL);
        }
        let stats = engine.stats();
        let now = Instant::now();
        let dt = now.duration_since(last_t).as_secs_f64().max(1e-9);
        let requests = stats.requests();
        recorder.gauge("serve.qps", (requests - last_requests) as f64 / dt);
        last_requests = requests;
        last_t = now;
        if let Some(p) = stats.latency_percentiles_us(&[0.5, 0.99]) {
            recorder.gauge("serve.p50_us", p[0] as f64);
            recorder.gauge("serve.p99_us", p[1] as f64);
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
        let calls = engine.batcher().decode_calls();
        if calls > 0 {
            recorder.gauge(
                "serve.batch_size",
                engine.batcher().batched_queries() as f64 / calls as f64,
            );
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
