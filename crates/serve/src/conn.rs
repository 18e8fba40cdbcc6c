//! The one connection model of the shard ([`crate::Server`]) and the router
//! ([`crate::Router`]).
//!
//! A blocking accept thread hands each stream to a connection thread. A
//! connection thread waits for a frame, reads it against a deadline, asks its
//! [`Service`] for the reply, writes the reply, and waits again. The protocol
//! is strictly request/response per connection, so one thread carries a
//! request from read to write and replies leave in request order without any
//! bookkeeping. When its client leaves, the thread waits for the next
//! accepted stream; a new thread is spawned only when every existing one is
//! busy, up to `MAX_CONNS` (4,096) live connections, beyond which a new
//! connection is refused with `Busy`.
//!
//! Error discipline: payload-level failures are the service's answer and the
//! connection lives on; header-level failures (`BadMagic`, `BadVersion`,
//! `Oversized`, `Truncated`, `Timeout`) are answered, then the connection
//! closes. A frame must arrive whole within `request_timeout` of its first
//! byte, however it trickles in.
//!
//! Shutdown is a drain: accepting stops, a request being served finishes and
//! its reply is written, and an idle connection is told `ShuttingDown` within
//! one [`IDLE_TICK`]. [`Connections::join`] joins every thread it started.

use crate::error::ServeError;
use crate::protocol::{read_frame, write_error, write_frame, Kind};
use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long an idle connection waits for a frame before it looks at the
/// shutdown flag again.
const IDLE_TICK: Duration = Duration::from_millis(100);
/// Live-connection cap; beyond it new connections are refused `Busy`.
const MAX_CONNS: usize = 4096;

/// A reply frame, or the typed error to answer instead.
pub(crate) type Reply = Result<(Kind, Vec<u8>), ServeError>;

/// What a shard or a router does with a frame.
pub(crate) trait Service: Send + Sync + 'static {
    /// Per-connection state, opened when a stream is accepted and dropped
    /// when it closes.
    type Conn;
    /// Opens the state of a newly accepted connection.
    fn open(&self) -> Self::Conn;
    /// Turns one request frame into its reply.
    fn answer(&self, conn: &mut Self::Conn, kind: u8, payload: Vec<u8>) -> Reply;
}

/// The accept thread and, under it, every connection thread.
pub(crate) struct Connections {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl Connections {
    /// Serves `listener` with `service` until `shutdown` is set and
    /// [`Connections::join`] is called. Threads are named `{name}-accept`
    /// and `{name}-conn`.
    pub(crate) fn serve<S: Service>(
        name: &str,
        listener: TcpListener,
        service: Arc<S>,
        request_timeout: Duration,
        shutdown: Arc<AtomicBool>,
    ) -> std::io::Result<Connections> {
        let local_addr = listener.local_addr()?;
        let flag = shutdown.clone();
        let conn_name = format!("{name}-conn");
        let accept = std::thread::Builder::new()
            .name(format!("{name}-accept"))
            .spawn(move || accept_loop(listener, service, request_timeout, flag, conn_name))?;
        Ok(Connections { local_addr, shutdown, accept: Some(accept) })
    }

    /// The bound address.
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Sets the shutdown flag, wakes the accept thread, and joins it and
    /// every connection thread it started.
    pub(crate) fn join(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let Some(accept) = self.accept.take() else { return };
        // A blocking accept returns only for a connection: make one.
        let mut wake = self.local_addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect(wake);
        let _ = accept.join();
    }
}

/// The first address `addr` resolves to.
pub(crate) fn resolve(addr: &str) -> std::io::Result<SocketAddr> {
    addr.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, format!("unresolvable {addr}"))
    })
}

/// Connection threads waiting for their next stream.
struct Idle {
    /// Threads that have committed to take one stream from `streams`.
    count: AtomicUsize,
    streams: Mutex<Receiver<TcpStream>>,
}

fn accept_loop<S: Service>(
    listener: TcpListener,
    service: Arc<S>,
    timeout: Duration,
    shutdown: Arc<AtomicBool>,
    name: String,
) {
    let (handoff, streams) = std::sync::mpsc::channel::<TcpStream>();
    let idle = Arc::new(Idle { count: AtomicUsize::new(0), streams: Mutex::new(streams) });
    let mut threads: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        let mut stream = match stream {
            Ok(s) => s,
            // Transient accept failure (a reset handshake, a full fd table).
            Err(_) => {
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
        };
        if shutdown.load(Ordering::SeqCst) {
            let _ = write_error(&mut stream, &ServeError::ShuttingDown);
            break;
        }
        // Only this thread takes from `count`, so every unit it takes is a
        // thread that is (or is about to be) waiting on `streams`.
        if idle.count.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1)).is_ok()
        {
            handoff.send(stream).expect("`idle` holds the receiver");
            continue;
        }
        if threads.len() >= MAX_CONNS {
            let _ = write_error(&mut stream, &ServeError::Busy);
            continue;
        }
        let (service, idle, shutdown) = (service.clone(), idle.clone(), shutdown.clone());
        // A failed spawn drops the stream with the closure.
        if let Ok(t) = std::thread::Builder::new()
            .name(name.clone())
            .spawn(move || conn_thread(stream, &*service, &idle, timeout, &shutdown))
        {
            threads.push(t);
        }
    }
    // New connections are refused from here on. Idle threads see the
    // hand-off channel close; busy ones finish their connection (within one
    // idle tick once it is idle), then see it too.
    drop(listener);
    drop(handoff);
    for t in threads {
        let _ = t.join();
    }
}

/// Serves `first`, then every stream handed over while this thread is idle.
fn conn_thread<S: Service>(
    first: TcpStream,
    service: &S,
    idle: &Idle,
    timeout: Duration,
    shutdown: &AtomicBool,
) {
    let mut out = Vec::new();
    let mut stream = first;
    loop {
        serve_conn(&mut stream, service, timeout, shutdown, &mut out);
        drop(stream);
        idle.count.fetch_add(1, Ordering::SeqCst);
        let next = idle.streams.lock().unwrap_or_else(|e| e.into_inner()).recv();
        match next {
            Ok(s) => stream = s,
            Err(_) => return, // the accept loop is gone
        }
    }
}

/// Answers frames on one connection until the client leaves, a header-level
/// failure closes it, or shutdown finds it idle.
fn serve_conn<S: Service>(
    stream: &mut TcpStream,
    service: &S,
    timeout: Duration,
    shutdown: &AtomicBool,
    out: &mut Vec<u8>,
) {
    let _ = stream.set_nodelay(true);
    if stream.set_write_timeout(Some(timeout)).is_err() {
        return;
    }
    let mut conn = service.open();
    let mut first = [0u8; 1];
    loop {
        if shutdown.load(Ordering::SeqCst) {
            let _ = write_error(stream, &ServeError::ShuttingDown);
            return;
        }
        // Wait for the first byte of a frame, one idle tick at a time.
        if stream.set_read_timeout(Some(IDLE_TICK)).is_err() {
            return;
        }
        match stream.peek(&mut first) {
            Ok(0) => return, // clean close between frames
            Ok(_) => {}
            Err(e) if matches!(e.kind(), WouldBlock | TimedOut | Interrupted) => continue,
            Err(_) => return,
        }
        let until = Instant::now() + timeout;
        let (reply, fatal) = match read_frame(&mut Deadline { stream: &*stream, until }) {
            Ok(Some((kind, payload))) => (service.answer(&mut conn, kind, payload), false),
            Ok(None) => return,
            // The stream is no longer frame-aligned: answer, then close.
            Err(e) => (Err(e), true),
        };
        out.clear();
        match reply {
            Ok((kind, payload)) => write_frame(out, kind, &payload),
            Err(e) => write_error(out, &e),
        }
        .expect("vec write");
        if stream.write_all(out).is_err() || fatal {
            return;
        }
    }
}

/// Reads from a stream until a fixed instant: every read waits at most the
/// time left, so a frame trickled in byte by byte still times out.
struct Deadline<'a> {
    stream: &'a TcpStream,
    until: Instant,
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.until.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}
