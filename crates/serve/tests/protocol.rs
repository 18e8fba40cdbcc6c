//! Protocol robustness: a hostile or broken client must get a typed error
//! frame (when the stream still permits one) and must never take the server
//! down or wedge a worker. Each test speaks raw bytes over `TcpStream` —
//! no `Client` convenience — because the point is exactly the inputs the
//! client type would never produce.

use mfn_core::{FrozenModel, MeshfreeFlowNet, MfnConfig};
use mfn_data::PatchSpec;
use mfn_serve::error::code;
use mfn_serve::protocol::{HEADER_LEN, MAGIC, MAX_PAYLOAD, VERSION};
use mfn_serve::{
    Client, Engine, EngineConfig, Router, RouterConfig, ServeError, Server, ServerConfig,
};
use mfn_telemetry::Recorder;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tiny_cfg() -> MfnConfig {
    let mut cfg = MfnConfig::small();
    cfg.patch = PatchSpec { nt: 4, nz: 4, nx: 8, queries: 16 };
    cfg.base_channels = 4;
    cfg.latent_channels = 8;
    cfg.mlp_hidden = vec![16, 16];
    cfg.levels = 2;
    cfg.seed = 11;
    cfg
}

fn start_server() -> (Server, String, Arc<Engine>) {
    // Short so the stalled-frame test completes quickly.
    start_server_with(Duration::from_millis(200))
}

fn start_server_with(request_timeout: Duration) -> (Server, String, Arc<Engine>) {
    let engine = Arc::new(Engine::new(
        FrozenModel::from_model(MeshfreeFlowNet::new(tiny_cfg())),
        EngineConfig::default(),
    ));
    let cfg = ServerConfig { workers: 2, request_timeout, ..ServerConfig::default() };
    let server = Server::start(engine.clone(), cfg, Recorder::null()).expect("start server");
    let addr = server.local_addr().to_string();
    (server, addr, engine)
}

fn header(magic: &[u8; 4], version: u8, kind: u8, len: u32) -> Vec<u8> {
    let mut h = Vec::with_capacity(HEADER_LEN);
    h.extend_from_slice(magic);
    h.push(version);
    h.push(kind);
    h.extend_from_slice(&[0, 0]);
    h.extend_from_slice(&len.to_le_bytes());
    h
}

/// Reads one frame off the raw socket, returning `(kind, payload)`.
fn read_raw_frame(stream: &mut TcpStream) -> (u8, Vec<u8>) {
    let mut h = [0u8; HEADER_LEN];
    stream.read_exact(&mut h).expect("read header");
    assert_eq!(&h[..4], &MAGIC[..], "server frames always carry the magic");
    assert_eq!(h[4], VERSION);
    let kind = h[5];
    let len = u32::from_le_bytes([h[8], h[9], h[10], h[11]]) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).expect("read payload");
    (kind, payload)
}

fn expect_error_frame(stream: &mut TcpStream, want_code: u16, what: &str) {
    let (kind, payload) = read_raw_frame(stream);
    assert_eq!(kind, 0xFF, "{what}: expected an error frame, got kind {kind:#x}");
    assert!(payload.len() >= 2, "{what}: error payload too short");
    let got = u16::from_le_bytes([payload[0], payload[1]]);
    assert_eq!(got, want_code, "{what}: wrong error code");
    let msg = String::from_utf8_lossy(&payload[2..]);
    assert!(!msg.is_empty(), "{what}: error message should not be empty");
}

fn connect_raw(addr: &str) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s
}

#[test]
fn bad_magic_gets_typed_error_then_close() {
    let (server, addr, _) = start_server();
    let mut s = connect_raw(&addr);
    s.write_all(&header(b"NOPE", VERSION, 0x01, 0)).unwrap();
    expect_error_frame(&mut s, code::BAD_MAGIC, "bad magic");
    // Header-level error: the server closes after replying.
    let mut rest = Vec::new();
    assert_eq!(s.read_to_end(&mut rest).unwrap(), 0, "connection should be closed");
    // And the server is still healthy for fresh connections.
    Client::connect(&addr).unwrap().ping().expect("ping after bad magic");
    server.shutdown();
}

#[test]
fn bad_version_gets_typed_error() {
    let (server, addr, _) = start_server();
    let mut s = connect_raw(&addr);
    s.write_all(&header(&MAGIC, 9, 0x01, 0)).unwrap();
    expect_error_frame(&mut s, code::BAD_VERSION, "bad version");
    server.shutdown();
}

#[test]
fn oversized_length_prefix_rejected_before_allocation() {
    let (server, addr, _) = start_server();
    let mut s = connect_raw(&addr);
    // u32::MAX dwarfs MAX_PAYLOAD; a naive server would try to allocate 4 GiB.
    const { assert!(u32::MAX > MAX_PAYLOAD) };
    s.write_all(&header(&MAGIC, VERSION, 0x01, u32::MAX)).unwrap();
    expect_error_frame(&mut s, code::OVERSIZED, "oversized");
    server.shutdown();
}

#[test]
fn unknown_kind_keeps_connection_alive() {
    let (server, addr, _) = start_server();
    let mut s = connect_raw(&addr);
    s.write_all(&header(&MAGIC, VERSION, 0x42, 0)).unwrap();
    expect_error_frame(&mut s, code::UNKNOWN_KIND, "unknown kind");
    // Payload-level error: same connection must still answer a valid ping.
    s.write_all(&header(&MAGIC, VERSION, 0x01, 0)).unwrap();
    let (kind, payload) = read_raw_frame(&mut s);
    assert_eq!(kind, 0x81, "ping response on the same connection");
    assert!(payload.is_empty());
    server.shutdown();
}

#[test]
fn truncated_frame_stall_times_out_with_typed_error() {
    let (server, addr, _) = start_server();
    let mut s = connect_raw(&addr);
    // Promise 100 payload bytes, send 10, then stall. The server's
    // request_timeout (200ms here) must fire and produce a typed error.
    s.write_all(&header(&MAGIC, VERSION, 0x04, 100)).unwrap();
    s.write_all(&[0u8; 10]).unwrap();
    let (kind, payload) = read_raw_frame(&mut s);
    assert_eq!(kind, 0xFF, "stalled frame should get an error frame");
    let got = u16::from_le_bytes([payload[0], payload[1]]);
    assert!(
        got == code::TIMEOUT || got == code::TRUNCATED,
        "stall should read as timeout/truncated, got code {got}"
    );
    server.shutdown();
}

/// A frame trickled in one byte every 150 ms never completes inside a
/// 500 ms request timeout: the shard and the router both answer `Timeout`
/// within the timeout plus one 100 ms idle tick of its first byte, instead
/// of holding a thread until the frame is whole.
#[test]
fn trickled_frame_times_out_on_shard_and_router() {
    let timeout = Duration::from_millis(500);
    let (server, shard_addr, _) = start_server_with(timeout);
    let router = Router::start(RouterConfig {
        shards: vec![shard_addr.clone()],
        request_timeout: timeout,
        ..RouterConfig::default()
    })
    .expect("start router");
    for addr in [shard_addr, router.local_addr().to_string()] {
        let mut s = connect_raw(&addr);
        let mut trickle = s.try_clone().unwrap();
        let t0 = Instant::now();
        let writer = std::thread::spawn(move || {
            for b in header(&MAGIC, VERSION, 0x01, 0) {
                if trickle.write_all(&[b]).is_err() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(150));
            }
        });
        expect_error_frame(&mut s, code::TIMEOUT, &addr);
        let waited = t0.elapsed();
        assert!(waited < timeout + Duration::from_millis(100), "{addr}: answered after {waited:?}");
        writer.join().unwrap();
    }
    router.shutdown();
    server.shutdown();
}

#[test]
fn mid_request_disconnect_leaves_server_healthy() {
    let (server, addr, _) = start_server();
    {
        let mut s = connect_raw(&addr);
        s.write_all(&header(&MAGIC, VERSION, 0x03, 4096)).unwrap();
        s.write_all(&[1u8; 64]).unwrap();
        // Drop: RST/FIN mid-payload.
    }
    // Worker must recover; new connections keep working.
    let mut client = Client::connect(&addr).expect("connect after disconnect");
    client.ping().expect("ping after mid-request disconnect");
    server.shutdown();
}

#[test]
fn malformed_payload_is_typed_not_fatal() {
    let (server, addr, _) = start_server();
    let mut s = connect_raw(&addr);
    // Query frame whose payload is too short to even hold the digest.
    s.write_all(&header(&MAGIC, VERSION, 0x04, 3)).unwrap();
    s.write_all(&[1, 2, 3]).unwrap();
    expect_error_frame(&mut s, code::BAD_PAYLOAD, "short query payload");
    // Connection still frame-aligned: ping works.
    s.write_all(&header(&MAGIC, VERSION, 0x01, 0)).unwrap();
    let (kind, _) = read_raw_frame(&mut s);
    assert_eq!(kind, 0x81);
    server.shutdown();
}

/// The largest `Query` the frame cap admits, 1,048,575 points, asks for a
/// reply of 17 + 16·n bytes, one byte over the cap: it is refused with a
/// typed error before its points are read, and the connection still
/// answers.
#[test]
fn a_query_whose_reply_would_pass_the_cap_is_typed() {
    let (server, addr, engine) = start_server();
    let mut client = Client::connect(&addr).unwrap();
    let (digest, _) = client.encode(1, &vec![0.5; engine.patch_numel(1)]).expect("encode");
    let n = (MAX_PAYLOAD - 12) / 16;
    let mut payload = digest.to_le_bytes().to_vec();
    payload.extend_from_slice(&n.to_le_bytes());
    for _ in 0..n {
        payload.extend_from_slice(&0u32.to_le_bytes());
        [0.5f32; 3].iter().for_each(|v| payload.extend_from_slice(&v.to_le_bytes()));
    }
    assert_eq!(payload.len(), MAX_PAYLOAD as usize - 4, "the largest query frame");
    let mut s = connect_raw(&addr);
    s.write_all(&header(&MAGIC, VERSION, 0x04, payload.len() as u32)).unwrap();
    s.write_all(&payload).unwrap();
    expect_error_frame(&mut s, code::BAD_PAYLOAD, "reply over the cap");
    s.write_all(&header(&MAGIC, VERSION, 0x01, 0)).unwrap();
    assert_eq!(read_raw_frame(&mut s).0, 0x81, "ping on the same connection");
    server.shutdown();
}

#[test]
fn unknown_digest_is_remote_error_with_code() {
    let (server, addr, _) = start_server();
    let mut client = Client::connect(&addr).unwrap();
    let err = client
        .query(0xDEAD_BEEF_DEAD_BEEF, &[(0, [0.5, 0.5, 0.5])])
        .expect_err("bogus digest must fail");
    assert_eq!(err.code(), code::UNKNOWN_DIGEST);
    match err {
        ServeError::Remote { code: c, .. } => assert_eq!(c, code::UNKNOWN_DIGEST),
        other => panic!("expected Remote error, got {other:?}"),
    }
    // Error was payload-level: the same client keeps working.
    client.ping().expect("ping after unknown digest");
    server.shutdown();
}

#[test]
fn wrong_sized_patch_is_typed() {
    let (server, addr, engine) = start_server();
    let mut client = Client::connect(&addr).unwrap();
    let numel = engine.patch_numel(1);
    // An off-by-one patch is caught structurally at the wire layer: the
    // payload carries more f32s than `batch` implies, so the cursor's
    // trailing-bytes check fires (BadPayload) before the engine's
    // ShapeMismatch ever could.
    let err = client.encode(1, &vec![0.0f32; numel + 1]).expect_err("wrong numel");
    assert_eq!(err.code(), code::BAD_PAYLOAD);
    client.ping().expect("connection survives shape mismatch");
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_inflight_request() {
    let (server, addr, engine) = start_server();
    let numel = engine.patch_numel(1);
    let patch: Vec<f32> = (0..numel).map(|i| (i as f32).sin()).collect();

    let addr2 = addr.clone();
    let handle = std::thread::spawn(move || {
        let mut client = Client::connect(&addr2).unwrap();
        client.encode_query(1, &patch, &[(0, [0.2, 0.4, 0.6])])
    });
    // Give the request time to be in flight, then shut down. The drain
    // contract: the in-flight request completes with a real response.
    std::thread::sleep(Duration::from_millis(30));
    server.shutdown();
    let result = handle.join().expect("client thread");
    // Either the request was already served (normal) or it raced shutdown
    // to the frame boundary and was refused with a typed ShuttingDown —
    // never a hang, never a protocol desync.
    match result {
        Ok(resp) => {
            assert_eq!(resp.values.len(), resp.channels);
            assert!(resp.values.iter().all(|v| v.is_finite()));
        }
        Err(e) => assert_eq!(e.code(), code::SHUTTING_DOWN, "unexpected error: {e}"),
    }
}

#[test]
fn response_kind_from_client_is_rejected() {
    let (server, addr, _) = start_server();
    let mut s = connect_raw(&addr);
    // 0x81 is Pong — a response kind; clients must not send it.
    s.write_all(&header(&MAGIC, VERSION, 0x81, 0)).unwrap();
    expect_error_frame(&mut s, code::UNKNOWN_KIND, "response kind as request");
    server.shutdown();
}
