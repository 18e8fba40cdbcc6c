//! Chaos test for the sharded fleet: kill a shard under load.
//!
//! Two shard servers (same checkpoint — mandatory for a fleet) sit behind
//! a router with a fast health probe. A client drives queries over zipf-hot
//! digests; mid-load one shard is killed. The contract under that failure:
//!
//! - the router marks the dead shard unhealthy (observable as the `Stats`
//!   aggregation shrinking to the survivor) and reroutes its keyspace;
//! - a rerouted digest that only lived in the dead shard's cache surfaces
//!   as `UnknownDigest` — the standard single-server miss — and the
//!   standard client recovery (re-encode) restores service;
//! - **every** value returned at any point, before, during, or after the
//!   kill, is bit-identical to a direct `FrozenModel` evaluation of the
//!   same patch and queries. Failover may cost availability blips; it must
//!   never cost correctness.

use mfn_core::{FrozenModel, MeshfreeFlowNet, MfnConfig, RefineBudget, RefineSettings};
use mfn_data::PatchSpec;
use mfn_serve::error::code;
use mfn_serve::{
    Client, Engine, EngineConfig, Router, RouterConfig, ServeError, Server, ServerConfig,
};
use mfn_telemetry::Recorder;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tiny_cfg() -> MfnConfig {
    let mut cfg = MfnConfig::small();
    cfg.patch = PatchSpec { nt: 4, nz: 4, nx: 8, queries: 16 };
    cfg.base_channels = 4;
    cfg.latent_channels = 8;
    cfg.mlp_hidden = vec![16, 16];
    cfg.levels = 2;
    cfg.seed = 23;
    cfg
}

/// Same deterministic weights in every process role: both shards and the
/// in-process reference engine are the *same function*.
fn fresh_engine() -> Arc<Engine> {
    Arc::new(Engine::new(
        FrozenModel::from_model(MeshfreeFlowNet::new(tiny_cfg())),
        EngineConfig::default(),
    ))
}

/// Same weights, refinement tier enabled — for the mid-refine kill test.
fn fresh_refine_engine() -> Arc<Engine> {
    let cfg = tiny_cfg();
    let refine = Some(RefineSettings::from_config(&cfg));
    Arc::new(Engine::new(
        FrozenModel::from_model(MeshfreeFlowNet::new(cfg)),
        EngineConfig { refine, ..EngineConfig::default() },
    ))
}

fn start_shard_with(engine: Arc<Engine>) -> (Server, String) {
    let cfg = ServerConfig {
        workers: 2,
        request_timeout: Duration::from_millis(500),
        idle_poll: Duration::from_millis(5),
        ..ServerConfig::default()
    };
    let server = Server::start(engine, cfg, Recorder::null()).expect("start shard");
    let addr = server.local_addr().to_string();
    (server, addr)
}

fn start_shard() -> (Server, String) {
    start_shard_with(fresh_engine())
}

fn lcg_f32(state: &mut u64) -> f32 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    ((*state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
}

fn gen_patch(idx: usize, numel: usize) -> Vec<f32> {
    let mut state = (idx as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (0..numel).map(|_| lcg_f32(&mut state)).collect()
}

fn gen_queries(idx: usize, n: usize) -> Vec<(usize, [f32; 3])> {
    let mut state = (idx as u64 + 7) * 0xA5A5_5A5A;
    (0..n)
        .map(|_| {
            (
                0usize,
                [lcg_f32(&mut state) + 0.5, lcg_f32(&mut state) + 0.5, lcg_f32(&mut state) + 0.5],
            )
        })
        .collect()
}

#[test]
fn shard_kill_under_load_reroutes_and_stays_bit_identical() {
    let (shard_a, addr_a) = start_shard();
    let (shard_b, addr_b) = start_shard();
    let router = Router::start(RouterConfig {
        shards: vec![addr_a.clone(), addr_b.clone()],
        health_interval: Duration::from_millis(50),
        request_timeout: Duration::from_secs(2),
        ..RouterConfig::default()
    })
    .expect("start router");
    let raddr = router.local_addr().to_string();

    // The oracle: a direct in-process engine over the same frozen weights.
    let reference = fresh_engine();
    let numel = reference.patch_numel(1);
    const PATCHES: usize = 6;
    const QN: usize = 8;

    let mut client = Client::connect(&raddr).expect("connect router");
    client.set_timeout(Some(Duration::from_secs(5))).unwrap();

    // Warm phase: encode every patch through the router (each lands on its
    // ring-assigned shard) and in the reference engine.
    let mut digests = Vec::new();
    for idx in 0..PATCHES {
        let patch = gen_patch(idx, numel);
        let (digest, _) = client.encode(1, &patch).expect("warm encode via router");
        let (ref_digest, _) = reference.encode_patch(1, patch.clone()).expect("reference encode");
        assert_eq!(digest, ref_digest, "router fleet and direct engine must agree on digests");
        digests.push(digest);
    }

    // One request: query via the fleet, with the standard miss recovery,
    // then compare bitwise against the direct evaluation.
    let check = |client: &mut Client, idx: usize, round: usize| -> Result<(), ServeError> {
        let qs = gen_queries(idx * 131 + round, QN);
        let fleet = match client.query(digests[idx], &qs) {
            Err(ServeError::Remote { code: c, .. }) if c == code::UNKNOWN_DIGEST => {
                let patch = gen_patch(idx, numel);
                client.encode_query(1, &patch, &qs)?
            }
            other => other?,
        };
        let (expect, channels) =
            reference.query(digests[idx], qs.clone()).expect("reference query");
        assert_eq!(fleet.channels, channels, "channel count diverged");
        assert_eq!(fleet.values.len(), expect.len(), "value count diverged");
        for (i, (got, want)) in fleet.values.iter().zip(&expect).enumerate() {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "round {round}, patch {idx}, value {i}: fleet {got} != direct {want}"
            );
        }
        Ok(())
    };

    // Phase 1: healthy fleet — all digests answer, bit-identical.
    for round in 0..3 {
        for idx in 0..PATCHES {
            check(&mut client, idx, round).expect("healthy-fleet query");
        }
    }
    let healthy_before = client.stats().expect("stats before kill").len();
    assert_eq!(healthy_before, 2, "both shards should report before the kill");

    // Phase 2: kill shard A mid-load. In-flight and subsequent requests may
    // see transient transport errors while the router converges; the loop
    // keeps driving load (reconnecting like any production client) and
    // every *successful* response must still be bit-identical.
    shard_a.shutdown();
    let kill_time = Instant::now();
    let mut post_kill_successes = 0usize;
    let mut round = 100;
    while post_kill_successes < 3 * PATCHES {
        assert!(
            kill_time.elapsed() < Duration::from_secs(20),
            "fleet did not recover within 20s of the shard kill"
        );
        round += 1;
        for idx in 0..PATCHES {
            match check(&mut client, idx, round) {
                Ok(()) => post_kill_successes += 1,
                Err(_) => {
                    // Transport blip during convergence: reconnect and retry.
                    std::thread::sleep(Duration::from_millis(25));
                    client = Client::connect(&raddr).expect("reconnect after blip");
                    client.set_timeout(Some(Duration::from_secs(5))).unwrap();
                }
            }
        }
    }

    // Phase 3: the router must have marked the dead shard unhealthy — the
    // stats aggregation is the survivor alone.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match client.stats() {
            Ok(stats) if stats.len() == 1 => {
                assert_eq!(stats[0].addr, addr_b, "survivor should be shard B");
                break;
            }
            _ if Instant::now() > deadline => {
                panic!("router never marked the killed shard unhealthy")
            }
            _ => std::thread::sleep(Duration::from_millis(50)),
        }
    }

    // And the fleet keeps serving every digest, still bit-identical.
    for round in 200..202 {
        for idx in 0..PATCHES {
            check(&mut client, idx, round).expect("post-convergence query");
        }
    }

    router.shutdown();
    shard_b.shutdown();
}

/// Kill a shard under *refine* load. The premium tier inherits the fleet's
/// correctness contract unchanged: a digest rerouted to the survivor misses
/// as `UnknownDigest`, the standard re-encode recovery restores it, and the
/// refined values served after failover are bit-identical to a direct
/// single-process refinement of the same (patch, points, budget) — the
/// survivor re-encodes the same patch bytes to the same latent, and
/// refinement is deterministic from there.
#[test]
fn shard_kill_mid_refine_load_recovers_bit_identical() {
    let (shard_a, addr_a) = start_shard_with(fresh_refine_engine());
    let (shard_b, addr_b) = start_shard_with(fresh_refine_engine());
    let router = Router::start(RouterConfig {
        shards: vec![addr_a.clone(), addr_b.clone()],
        health_interval: Duration::from_millis(50),
        request_timeout: Duration::from_secs(2),
        ..RouterConfig::default()
    })
    .expect("start router");
    let raddr = router.local_addr().to_string();

    // The oracle: a direct in-process refine-enabled engine over the same
    // frozen weights.
    let reference = fresh_refine_engine();
    let numel = reference.patch_numel(1);
    const PATCHES: usize = 4;
    const QN: usize = 6;
    let budget = RefineBudget::steps(4);

    let mut client = Client::connect(&raddr).expect("connect router");
    client.set_timeout(Some(Duration::from_secs(5))).unwrap();

    let mut digests = Vec::new();
    for idx in 0..PATCHES {
        let patch = gen_patch(idx, numel);
        let (digest, _) = client.encode(1, &patch).expect("warm encode via router");
        let (ref_digest, _) = reference.encode_patch(1, patch.clone()).expect("reference encode");
        assert_eq!(digest, ref_digest);
        digests.push(digest);
    }

    // One refine request via the fleet (standard miss recovery: re-encode,
    // retry), checked bitwise against the direct single-process refinement.
    let check = |client: &mut Client, idx: usize, round: usize| -> Result<(), ServeError> {
        let qs = gen_queries(idx * 137 + round, QN);
        let fleet = match client.refine(digests[idx], &qs, budget) {
            Err(ServeError::Remote { code: c, .. }) if c == code::UNKNOWN_DIGEST => {
                let patch = gen_patch(idx, numel);
                client.encode(1, &patch)?;
                client.refine(digests[idx], &qs, budget)?
            }
            other => other?,
        };
        let direct = reference.refine(digests[idx], qs.clone(), budget).expect("reference refine");
        assert_eq!(fleet.steps_run, direct.report.steps_run, "step counts diverged");
        assert_eq!(fleet.steps_accepted, direct.report.steps_accepted);
        assert_eq!(
            fleet.final_residual.to_bits(),
            direct.report.final_residual.to_bits(),
            "round {round}, patch {idx}: residual diverged"
        );
        assert_eq!(fleet.values.len(), direct.values.len());
        for (i, (got, want)) in fleet.values.iter().zip(&direct.values).enumerate() {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "round {round}, patch {idx}, value {i}: fleet refine {got} != direct {want}"
            );
        }
        Ok(())
    };

    // Phase 1: healthy fleet.
    for round in 0..2 {
        for idx in 0..PATCHES {
            check(&mut client, idx, round).expect("healthy-fleet refine");
        }
    }

    // Phase 2: kill shard A mid-refine-load; keep driving until the
    // survivor has answered every digest refined, bit-identical, twice.
    shard_a.shutdown();
    let kill_time = Instant::now();
    let mut post_kill_successes = 0usize;
    let mut round = 100;
    while post_kill_successes < 2 * PATCHES {
        assert!(
            kill_time.elapsed() < Duration::from_secs(20),
            "fleet did not recover refine service within 20s of the shard kill"
        );
        round += 1;
        for idx in 0..PATCHES {
            match check(&mut client, idx, round) {
                Ok(()) => post_kill_successes += 1,
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(25));
                    client = Client::connect(&raddr).expect("reconnect after blip");
                    client.set_timeout(Some(Duration::from_secs(5))).unwrap();
                }
            }
        }
    }

    router.shutdown();
    shard_b.shutdown();
}
