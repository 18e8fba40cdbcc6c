//! No count or length on the wire may size an allocation larger than the
//! bytes that carry it. A counting global allocator records the largest
//! single allocation while a shard and a router in this process are sent a
//! `Query` whose point count lies (`u32::MAX` with no points behind it) and a
//! header promising `MAX_PAYLOAD` bytes followed by a close. Each gets a
//! typed error, and nothing allocates 1 MiB.

use mfn_core::{FrozenModel, MeshfreeFlowNet, MfnConfig};
use mfn_data::PatchSpec;
use mfn_serve::error::code;
use mfn_serve::protocol::{HEADER_LEN, MAGIC, MAX_PAYLOAD, VERSION};
use mfn_serve::{Engine, EngineConfig, Router, RouterConfig, Server, ServerConfig};
use mfn_telemetry::Recorder;
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The system allocator, recording the largest size it was asked for.
struct Largest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method passes its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; recording a size allocates nothing.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, hence from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Largest = Largest;

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

fn header(kind: u8, len: u32) -> Vec<u8> {
    let mut h = MAGIC.to_vec();
    h.extend_from_slice(&[VERSION, kind, 0, 0]);
    h.extend_from_slice(&len.to_le_bytes());
    h
}

/// Reads one reply and returns its error code.
fn error_code(s: &mut TcpStream) -> u16 {
    let mut h = [0u8; HEADER_LEN];
    s.read_exact(&mut h).expect("reply header");
    assert_eq!(h[5], 0xFF, "expected an error frame, got kind {:#04x}", h[5]);
    let mut payload = vec![0u8; u32::from_le_bytes([h[8], h[9], h[10], h[11]]) as usize];
    s.read_exact(&mut payload).expect("reply payload");
    u16::from_le_bytes([payload[0], payload[1]])
}

#[test]
fn hostile_counts_and_lengths_allocate_nothing_large() {
    let engine = Arc::new(Engine::new(
        FrozenModel::from_model(MeshfreeFlowNet::new(tiny_cfg())),
        EngineConfig::default(),
    ));
    let server = Server::start(engine, ServerConfig::default(), Recorder::null()).unwrap();
    let shard = server.local_addr().to_string();
    let router =
        Router::start(RouterConfig { shards: vec![shard.clone()], ..RouterConfig::default() })
            .unwrap();
    let addrs = [shard, router.local_addr().to_string()];
    LARGEST.store(0, Ordering::SeqCst);

    // A Query claiming u32::MAX points and carrying none: 12 payload bytes.
    let mut lie = header(0x04, 12);
    lie.extend_from_slice(&0xABCD_u64.to_le_bytes());
    lie.extend_from_slice(&u32::MAX.to_le_bytes());
    for addr in &addrs {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(&lie).unwrap();
        assert_eq!(error_code(&mut s), code::BAD_PAYLOAD, "{addr}: lying count");

        // A header promising the whole payload cap, then nothing.
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(&header(0x03, MAX_PAYLOAD)).unwrap();
        s.shutdown(Shutdown::Write).unwrap();
        assert_eq!(error_code(&mut s), code::TRUNCATED, "{addr}: promised payload");
    }

    let largest = LARGEST.load(Ordering::SeqCst);
    assert!(largest < 1 << 20, "largest single allocation {largest} bytes");
    router.shutdown();
    server.shutdown();
}
