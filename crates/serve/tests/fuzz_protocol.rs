//! Deterministic frame-level fuzzing of the protocol path.
//!
//! A server sees the wire at its ugliest: frames split at arbitrary byte
//! boundaries across reads, headers that lie about their length, bytes
//! flipped in flight. This suite drives both layers with a seeded mutation
//! corpus — every run replays the identical inputs, so a failure here is a
//! bug, never flake:
//!
//! 1. the [`FrameDecoder`] in isolation, fed mutated byte streams in
//!    randomly-sized slices: it must never panic and, once it reports a
//!    header error, must stay poisoned instead of resyncing on garbage;
//! 2. a live server, one mutated conversation per connection: every byte
//!    the server sends back must parse as a well-formed frame (typed error
//!    frames included), the connection must end in an answer or a clean
//!    close — never a hang — and the server must stay healthy for fresh
//!    connections throughout.

use mfn_core::{FrozenModel, MeshfreeFlowNet, MfnConfig, RefineSettings};
use mfn_data::PatchSpec;
use mfn_serve::error::code;
use mfn_serve::protocol::{FrameDecoder, HEADER_LEN, MAGIC, MAX_PAYLOAD, VERSION};
use mfn_serve::{Engine, EngineConfig, Server, ServerConfig, SplitMix64, MAX_REFINE_STEPS};
use mfn_telemetry::Recorder;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

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
    // Refinement enabled: the fuzz corpus includes `Refine` frames, and the
    // budget-validation path only runs when the tier is on.
    let cfg = tiny_cfg();
    let refine = Some(RefineSettings::from_config(&cfg));
    let engine = Arc::new(Engine::new(
        FrozenModel::from_model(MeshfreeFlowNet::new(cfg)),
        EngineConfig { refine, ..EngineConfig::default() },
    ));
    let cfg = ServerConfig {
        workers: 2,
        request_timeout: Duration::from_millis(150),
        ..ServerConfig::default()
    };
    let server = Server::start(engine.clone(), cfg, Recorder::null()).expect("start server");
    let addr = server.local_addr().to_string();
    (server, addr, engine)
}

fn frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut f = Vec::with_capacity(HEADER_LEN + payload.len());
    f.extend_from_slice(&MAGIC);
    f.push(VERSION);
    f.push(kind);
    f.extend_from_slice(&[0, 0]);
    f.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    f.extend_from_slice(payload);
    f
}

/// A well-formed `Refine` payload: digest first (router sharding), then the
/// budget triple, then the query block.
fn refine_payload(digest: u64, max_steps: u32, tol: f32, max_micros: u64) -> Vec<u8> {
    let mut r = Vec::new();
    r.extend_from_slice(&digest.to_le_bytes());
    r.extend_from_slice(&max_steps.to_le_bytes());
    r.extend_from_slice(&tol.to_le_bytes());
    r.extend_from_slice(&max_micros.to_le_bytes());
    r.extend_from_slice(&1u32.to_le_bytes());
    r.extend_from_slice(&0u32.to_le_bytes());
    for v in [0.25f32, 0.5, 0.75] {
        r.extend_from_slice(&v.to_le_bytes());
    }
    r
}

/// A valid multi-frame conversation to mutate: ping, info, a query with a
/// (bogus but well-formed) digest, a refine on the same digest, stats, ping.
fn base_conversation(numel: usize) -> Vec<u8> {
    let mut convo = Vec::new();
    convo.extend_from_slice(&frame(0x01, &[]));
    convo.extend_from_slice(&frame(0x02, &[]));
    let mut q = Vec::new();
    q.extend_from_slice(&0xABCD_EF01_2345_6789u64.to_le_bytes());
    q.extend_from_slice(&1u32.to_le_bytes());
    q.extend_from_slice(&0u32.to_le_bytes());
    for v in [0.25f32, 0.5, 0.75] {
        q.extend_from_slice(&v.to_le_bytes());
    }
    convo.extend_from_slice(&frame(0x04, &q));
    convo.extend_from_slice(&frame(0x07, &refine_payload(0xABCD_EF01_2345_6789, 2, 0.0, 0)));
    // An encode with a deliberately wrong float count still has a valid
    // header — it probes payload-level error handling under mutation.
    let mut e = Vec::new();
    e.extend_from_slice(&1u32.to_le_bytes());
    for i in 0..(numel.min(64)) {
        e.extend_from_slice(&(i as f32).to_le_bytes());
    }
    convo.extend_from_slice(&frame(0x03, &e));
    convo.extend_from_slice(&frame(0x06, &[]));
    convo.extend_from_slice(&frame(0x01, &[]));
    convo
}

/// Applies one seeded mutation. The mutation classes the issue names:
/// truncated headers, bit-flipped length prefixes (and anywhere else),
/// plus inserted garbage — partial-write interleaving happens at send time.
fn mutate(rng: &mut SplitMix64, bytes: &mut Vec<u8>) {
    match rng.next_below(5) {
        // Truncate anywhere, including mid-header.
        0 => {
            let keep = rng.next_below(bytes.len() as u64 + 1) as usize;
            bytes.truncate(keep);
        }
        // Bit-flip inside some frame's length prefix (offsets 8..12 of the
        // first frame — the highest-leverage lie a peer can tell).
        1 => {
            if bytes.len() >= HEADER_LEN {
                let byte = 8 + rng.next_below(4) as usize;
                bytes[byte] ^= 1 << rng.next_below(8);
            }
        }
        // Bit-flip anywhere.
        2 => {
            if !bytes.is_empty() {
                let at = rng.next_below(bytes.len() as u64) as usize;
                bytes[at] ^= 1 << rng.next_below(8);
            }
        }
        // Overwrite a byte with random garbage.
        3 => {
            if !bytes.is_empty() {
                let at = rng.next_below(bytes.len() as u64) as usize;
                bytes[at] = rng.next_u64() as u8;
            }
        }
        // Insert a short run of garbage at a frame-unaligned offset.
        _ => {
            let at = rng.next_below(bytes.len() as u64 + 1) as usize;
            let run: Vec<u8> = (0..rng.next_below(7) + 1).map(|_| rng.next_u64() as u8).collect();
            bytes.splice(at..at, run);
        }
    }
}

#[test]
fn decoder_survives_seeded_mutations_in_arbitrary_slices() {
    let base = base_conversation(128);
    let mut rng = SplitMix64::new(0xF0CC_5EED);
    for case in 0..2000 {
        let mut bytes = base.clone();
        for _ in 0..=rng.next_below(3) {
            mutate(&mut rng, &mut bytes);
        }
        let mut d = FrameDecoder::new();
        let mut pos = 0usize;
        let mut saw_error = false;
        while pos < bytes.len() {
            // Feed in random slices down to a single byte — the worst
            // fragmentation a stream can deliver.
            let take = (rng.next_below(17) as usize + 1).min(bytes.len() - pos);
            d.extend(&bytes[pos..pos + take]);
            pos += take;
            loop {
                match d.next_frame() {
                    Ok(Some((_, payload))) => {
                        assert!(payload.len() as u32 <= MAX_PAYLOAD, "case {case}: oversized yield")
                    }
                    Ok(None) => break,
                    Err(_) => {
                        saw_error = true;
                        assert!(d.is_poisoned(), "case {case}: error must poison");
                        break;
                    }
                }
            }
            if saw_error {
                // Poisoned decoders must swallow everything after.
                d.extend(&bytes[pos.min(bytes.len())..]);
                assert!(matches!(d.next_frame(), Ok(None)), "case {case}: resynced after poison");
                break;
            }
        }
    }
}

/// Reads server responses until EOF/timeout, asserting each is well-formed.
/// Returns the number of frames read.
fn drain_and_check(stream: &mut TcpStream, case: u64) -> usize {
    let mut frames = 0usize;
    loop {
        let mut h = [0u8; HEADER_LEN];
        let mut got = 0usize;
        let complete = loop {
            match stream.read(&mut h[got..]) {
                Ok(0) => break false,
                Ok(n) => {
                    got += n;
                    if got == HEADER_LEN {
                        break true;
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == ErrorKind::WouldBlock
                        || e.kind() == ErrorKind::TimedOut
                        || e.kind() == ErrorKind::ConnectionReset =>
                {
                    break false
                }
                Err(e) => panic!("case {case}: unexpected read error {e}"),
            }
        };
        if !complete {
            assert_eq!(got, 0, "case {case}: server sent a torn header ({got} bytes)");
            return frames;
        }
        assert_eq!(&h[..4], &MAGIC, "case {case}: response without magic");
        assert_eq!(h[4], VERSION, "case {case}: response with wrong version");
        let kind = h[5];
        let known = matches!(kind, 0x81 | 0x82 | 0x83 | 0x84 | 0x86 | 0x87 | 0xFF);
        assert!(known, "case {case}: server sent unknown kind {kind:#04x}");
        let len = u32::from_le_bytes([h[8], h[9], h[10], h[11]]);
        assert!(len <= MAX_PAYLOAD, "case {case}: server declared oversized frame");
        let mut payload = vec![0u8; len as usize];
        if let Err(e) = stream.read_exact(&mut payload) {
            panic!("case {case}: torn payload after valid header: {e}");
        }
        if kind == 0xFF {
            assert!(payload.len() >= 2, "case {case}: error frame without a code");
            let code = u16::from_le_bytes([payload[0], payload[1]]);
            assert!((1..=16).contains(&code), "case {case}: unknown error code {code}");
        }
        frames += 1;
    }
}

#[test]
fn live_server_answers_mutated_streams_with_typed_errors_or_clean_close() {
    let (server, addr, engine) = start_server();
    let numel = engine.patch_numel(1);
    let base = base_conversation(numel);
    let mut rng = SplitMix64::new(0xBAD_F00D);

    for case in 0..120u64 {
        let mut bytes = base.clone();
        for _ in 0..=rng.next_below(3) {
            mutate(&mut rng, &mut bytes);
        }
        let mut s = TcpStream::connect(&addr).expect("connect");
        s.set_nodelay(true).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
        // Send in seeded slices with occasional tiny stalls so the server's
        // reads see split headers and split payloads.
        let mut pos = 0usize;
        while pos < bytes.len() {
            let take = (rng.next_below(23) as usize + 1).min(bytes.len() - pos);
            if s.write_all(&bytes[pos..pos + take]).is_err() {
                // Server already rejected and closed — that is a valid
                // outcome mid-mutation; what matters is what it wrote.
                break;
            }
            pos += take;
            if rng.next_below(4) == 0 {
                std::thread::sleep(Duration::from_micros(rng.next_below(500)));
            }
        }
        let _ = s.shutdown(std::net::Shutdown::Write);
        drain_and_check(&mut s, case);

        // The fleet-killing failure mode: one poisoned connection wedging
        // the server. Probe liveness on a fresh connection.
        if case % 10 == 0 {
            mfn_serve::Client::connect(&addr)
                .expect("fresh connect")
                .ping()
                .expect("server must stay healthy under fuzz");
        }
    }
    mfn_serve::Client::connect(&addr).unwrap().ping().expect("final health check");
    server.shutdown();
}

/// Reads exactly one response frame, or `None` on EOF/timeout.
fn read_one_frame(stream: &mut TcpStream) -> Option<(u8, Vec<u8>)> {
    let mut h = [0u8; HEADER_LEN];
    let mut got = 0usize;
    while got < HEADER_LEN {
        match stream.read(&mut h[got..]) {
            Ok(0) => return None,
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return None,
        }
    }
    assert_eq!(&h[..4], &MAGIC, "response without magic");
    let len = u32::from_le_bytes([h[8], h[9], h[10], h[11]]);
    assert!(len <= MAX_PAYLOAD, "oversized response");
    let mut payload = vec![0u8; len as usize];
    stream.read_exact(&mut payload).ok()?;
    Some((h[5], payload))
}

fn error_code(kind: u8, payload: &[u8]) -> u16 {
    assert_eq!(kind, 0xFF, "expected an error frame, got kind {kind:#04x}");
    assert!(payload.len() >= 2, "error frame without a code");
    u16::from_le_bytes([payload[0], payload[1]])
}

/// Budget lies on the `Refine` kind: every absurd or malformed budget must
/// come back as a *typed* error — promptly, with the connection still
/// usable — and must never buy unbounded compute. Header lies, by contrast,
/// poison the connection: no later frame on it is ever processed.
#[test]
fn refine_budget_lies_get_typed_rejections_never_unbounded_compute() {
    let (server, addr, engine) = start_server();
    let numel = engine.patch_numel(1);
    let patch: Vec<f32> = (0..numel).map(|i| (i as f32 * 0.37).sin()).collect();
    let (digest, _) = engine.encode_patch(1, patch).expect("encode");

    let mut s = TcpStream::connect(&addr).expect("connect");
    s.set_nodelay(true).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

    // Absurd step counts: a u32::MAX budget answered as BAD_BUDGET in
    // bounded time is the whole point of server-side budget caps.
    for steps in [MAX_REFINE_STEPS + 1, u32::MAX] {
        let t0 = std::time::Instant::now();
        s.write_all(&frame(0x07, &refine_payload(digest, steps, 0.0, 0))).unwrap();
        let (k, p) = read_one_frame(&mut s).expect("rejection frame");
        assert_eq!(error_code(k, &p), code::BAD_BUDGET, "steps={steps}");
        assert!(
            t0.elapsed() < Duration::from_secs(4),
            "absurd budget must be rejected before any compute"
        );
    }

    // Non-finite and negative tolerances.
    for tol in [f32::NAN, f32::NEG_INFINITY, -1.0] {
        s.write_all(&frame(0x07, &refine_payload(digest, 1, tol, 0))).unwrap();
        let (k, p) = read_one_frame(&mut s).expect("rejection frame");
        assert_eq!(error_code(k, &p), code::BAD_BUDGET, "tol={tol}");
    }

    // Truncated budget fields: every prefix of the fixed header region must
    // be a payload error, not a hang or a default-filled budget.
    let full = refine_payload(digest, 1, 0.0, 0);
    for cut in [4usize, 8, 10, 12, 16, 20, 24] {
        s.write_all(&frame(0x07, &full[..cut.min(full.len())])).unwrap();
        let (k, p) = read_one_frame(&mut s).expect("rejection frame");
        assert_eq!(error_code(k, &p), code::BAD_PAYLOAD, "cut={cut}");
    }

    // A point-count lie (header claims more points than the payload holds).
    let mut lie = refine_payload(digest, 1, 0.0, 0);
    let count_at = 8 + 4 + 4 + 8;
    lie[count_at..count_at + 4].copy_from_slice(&5000u32.to_le_bytes());
    s.write_all(&frame(0x07, &lie)).unwrap();
    let (k, p) = read_one_frame(&mut s).expect("rejection frame");
    assert_eq!(error_code(k, &p), code::BAD_PAYLOAD);

    // Too many *actual* points is a budget violation, not a payload one.
    let mut big = Vec::new();
    big.extend_from_slice(&digest.to_le_bytes());
    big.extend_from_slice(&1u32.to_le_bytes());
    big.extend_from_slice(&0.0f32.to_le_bytes());
    big.extend_from_slice(&0u64.to_le_bytes());
    let n = mfn_serve::MAX_REFINE_POINTS as u32 + 1;
    big.extend_from_slice(&n.to_le_bytes());
    for _ in 0..n {
        big.extend_from_slice(&0u32.to_le_bytes());
        for v in [0.25f32, 0.5, 0.75] {
            big.extend_from_slice(&v.to_le_bytes());
        }
    }
    s.write_all(&frame(0x07, &big)).unwrap();
    let (k, p) = read_one_frame(&mut s).expect("rejection frame");
    assert_eq!(error_code(k, &p), code::BAD_BUDGET);

    // Payload errors never poison: a valid refine on the same connection —
    // delivered one byte at a time — still answers with a RefineResp.
    let valid = frame(0x07, &refine_payload(digest, 1, 0.0, 0));
    for b in &valid {
        s.write_all(std::slice::from_ref(b)).unwrap();
    }
    let (k, p) = read_one_frame(&mut s).expect("refine response");
    assert_eq!(k, 0x87, "fragmented valid refine must still decode (got {k:#04x})");
    assert_eq!(&p[..8], &digest.to_le_bytes(), "response echoes the digest");

    // Header lies DO poison: corrupt magic, then a valid ping. The server
    // may send one error frame, but the ping must never be answered.
    let mut poisoned = frame(0x07, &refine_payload(digest, 1, 0.0, 0));
    poisoned[0] ^= 0xFF;
    poisoned.extend_from_slice(&frame(0x01, &[]));
    s.write_all(&poisoned).unwrap();
    let _ = s.shutdown(std::net::Shutdown::Write);
    let mut saw_pong = false;
    while let Some((k, _)) = read_one_frame(&mut s) {
        saw_pong |= k == 0x81;
    }
    assert!(!saw_pong, "connection must stay poisoned after a header lie");

    server.shutdown();
}
