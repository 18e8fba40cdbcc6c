//! The three serving workloads: an in-process `mfn_serve::Server` (one shard,
//! two compute workers, default engine settings) on loopback, driven by
//! blocking `Client` connections from at most two load-generator threads.
//!
//! - `serve_hot`: `Query`, 64 points, zipf(1) over 8 pre-encoded patches —
//!   every request hits the latent cache, so protocol, IO loop, batcher and
//!   a small-batch decode do the work and the U-Net does none. Closed loop,
//!   2 connections.
//!   Its traced run adds an open-loop phase: the same requests arriving on
//!   a seeded Poisson schedule at a fixed rate, latency from the due time.
//! - `serve_churn`: `EncodeQuery` with a patch the server has never seen,
//!   16 points — every request misses, inserts and (past 64 entries) evicts;
//!   the U-Net encode dominates. Closed loop, 2 connections.
//! - `refine`: `Refine`, 16 points, 16 steps, on a refine-enabled server —
//!   tape forward/backward through the decoder stencil with frozen weights.
//!   Closed loop, 2 connections.

use crate::kernels::{decoder_gemms, gemm_peak_gflops, median_us, unet_convs};
use crate::measure::{closed_loop, median, open_loop, percentile, Gate, Lane, Op, Phase};
use crate::setup::Env;
use crate::trace::{At, Ladder, Tracer};
use crate::train::KERNEL_REPS;
use crate::{Layers, Reps, Workload};
use mfn_core::{extract_patch, plan_queries, RefineBudget, RefineSettings};
use mfn_serve::protocol::{write_frame, FrameDecoder, Kind as FrameKind};
use mfn_serve::{
    ArrivalSchedule, Client, Engine, EngineConfig, Query, Server, ServerConfig, SplitMix64, Zipf,
};
use mfn_telemetry::Recorder;
use mfn_tensor::Tensor;
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::Arc;

/// Client connections, one load-generator thread each (the host has two
/// cores). `refine` included: with a single connection the reply to a ~70 ms
/// request waits for the server's IO loop to wake from its idle back-off,
/// whose 25 ms steps turn every latency percentile into a step function of
/// compute time that flips between runs; a second connection's traffic
/// restarts the back-off at arbitrary phases and smears the steps out.
const CONNECTIONS: usize = 2;
/// Pre-encoded patches of the hot set (≤ the cache's 64 entries).
const HOT_PATCHES: usize = 8;
/// Offered load of `serve_hot`'s open-loop phase, requests per second.
const OPEN_RATE: f64 = 600.0;
/// Its length, ms.
const OPEN_MILLIS: usize = 2000;
/// Gradient steps a `refine` request asks for.
const REFINE_STEPS: u32 = 16;
/// One reply in this many is compared bit for bit with an in-process decode
/// (plus the first reply of every connection).
const CHECK_ONE_IN: u64 = 100;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hot,
    Churn,
    Refine,
}

impl Kind {
    fn points(self) -> usize {
        match self {
            Kind::Hot => 64,
            Kind::Churn => 16,
            Kind::Refine => 16,
        }
    }

    /// Replay-ladder `(samples, chunk)`: enough samples for a steady median
    /// in a second or two. Each rung replays `chunk` requests back to back
    /// before the next rung takes its turn — back to back, because the
    /// server's IO loop backs off when idle and a lone request after a
    /// pause would time that, not the path.
    fn ladder_samples(self) -> (usize, usize) {
        match self {
            Kind::Hot => (300, 10),
            Kind::Churn => (100, 5),
            Kind::Refine => (8, 1),
        }
    }
}

/// One generated request.
struct Req {
    /// Which hot patch (hot, refine) or base patch (churn) it concerns.
    pick: usize,
    points: Vec<Query>,
    /// `serve_churn` only: the never-seen-before patch to encode.
    patch: Vec<f32>,
}

/// What a refinement did, as its reply (or `RefineReport`) tells it.
#[derive(Debug, Clone, Copy)]
struct Descent {
    steps_run: u32,
    steps_accepted: u32,
    initial_residual: f32,
    final_residual: f32,
}

/// What came back.
struct Rep {
    values: Vec<f32>,
    /// The latent was already cached (always so for `Query` and `Refine`,
    /// which address it by digest).
    cache_hit: bool,
    /// `refine` only.
    refine: Option<Descent>,
}

/// Counts behind the serving per-layer metrics, summed over traced phases.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    replies: u64,
    /// Replies answered from an already cached latent.
    cached: u64,
    decode_calls: u64,
    batched_queries: u64,
    busy: u64,
}

/// A running server plus everything needed to generate and check requests.
pub struct Serving {
    kind: Kind,
    seed: u64,
    engine: Arc<Engine>,
    /// Held for its `Drop`, which drains and joins the server's threads.
    _server: Server,
    addr: SocketAddr,
    /// Normalised LR windows; the first [`HOT_PATCHES`] are the hot set.
    patches: Vec<Vec<f32>>,
    /// Server-side handles of the hot set.
    digests: Vec<u64>,
    /// Harness-side encodes of the hot set, for checking replies.
    latents: Vec<Tensor>,
    zipf: Zipf,
    patch_dims: [usize; 5],
    counters: Counters,
    /// Every checked `refine` reply so far.
    refine_log: Vec<Descent>,
    /// Replies compared with an in-process decode so far.
    compared: u64,
    reps: Reps,
}

fn mix(seed: u64, i: u64) -> SplitMix64 {
    SplitMix64::new(seed ^ i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

impl Serving {
    /// Starts the server for workload `name` and pre-encodes the hot set.
    pub fn start(name: &str, env: Env, seed: u64, reps: Reps) -> Result<Self, String> {
        let kind = match name {
            "serve_hot" => Kind::Hot,
            "serve_churn" => Kind::Churn,
            "refine" => Kind::Refine,
            other => return Err(format!("{other} is not a serving workload")),
        };
        let Env { cfg, corpus, frozen, .. } = env;
        let (_, lr) = &corpus.pairs[0];
        let spec = cfg.patch;
        let mut rng = mix(seed, u64::MAX);
        let patches: Vec<Vec<f32>> = (0..HOT_PATCHES)
            .map(|_| {
                let origin = [lr.meta.nt - spec.nt, lr.meta.nz - spec.nz, lr.meta.nx - spec.nx]
                    .map(|slack| rng.next_below(slack as u64 + 1) as usize);
                extract_patch(lr, origin, spec, corpus.stats).data().to_vec()
            })
            .collect();
        let patch_dims = [1, cfg.in_channels, spec.nt, spec.nz, spec.nx];

        let refine = (kind == Kind::Refine).then(|| RefineSettings::from_config(&cfg));
        let engine = Arc::new(Engine::new(frozen, EngineConfig { refine, ..Default::default() }));
        let server = Server::start(
            engine.clone(),
            ServerConfig { workers: 2, ..ServerConfig::default() },
            Recorder::null(),
        )
        .map_err(|e| format!("server start: {e}"))?;
        let addr = server.local_addr();

        let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let mut digests = Vec::new();
        let mut latents = Vec::new();
        for patch in &patches {
            digests.push(client.encode(1, patch).map_err(|e| format!("pre-encode: {e}"))?.0);
            latents.push(engine.model().encode(&Tensor::from_vec(patch.clone(), &patch_dims)));
        }
        Ok(Serving {
            kind,
            seed,
            engine,
            _server: server,
            addr,
            patches,
            digests,
            latents,
            zipf: Zipf::new(HOT_PATCHES, 1.0),
            patch_dims,
            counters: Counters::default(),
            refine_log: Vec::new(),
            compared: 0,
            reps,
        })
    }

    /// Request `i` of the seeded stream.
    fn request(&self, i: u64) -> Req {
        let mut rng = mix(self.seed, i);
        let pick = self.zipf.sample(&mut rng);
        let points =
            (0..self.kind.points()).map(|_| (0, [(); 3].map(|_| rng.next_f64() as f32))).collect();
        let patch = if self.kind == Kind::Churn {
            // A base window plus request-specific noise: a patch no earlier
            // request carried, so the server can never have it cached.
            self.patches[pick].iter().map(|v| v + 1e-3 * (rng.next_f64() as f32 - 0.5)).collect()
        } else {
            Vec::new()
        };
        Req { pick, points, patch }
    }

    fn budget(&self) -> RefineBudget {
        RefineBudget::steps(REFINE_STEPS)
    }

    /// Rung 0: over the socket.
    fn via_client(&self, client: &mut Client, req: &Req) -> Result<Rep, String> {
        let digest = self.digests[req.pick];
        match self.kind {
            Kind::Hot => client.query(digest, &req.points).map(|r| Rep {
                values: r.values,
                cache_hit: r.cache_hit,
                refine: None,
            }),
            Kind::Churn => client.encode_query(1, &req.patch, &req.points).map(|r| Rep {
                values: r.values,
                cache_hit: r.cache_hit,
                refine: None,
            }),
            Kind::Refine => client.refine(digest, &req.points, self.budget()).map(|r| Rep {
                refine: Some(Descent {
                    steps_run: r.steps_run,
                    steps_accepted: r.steps_accepted,
                    initial_residual: r.initial_residual,
                    final_residual: r.final_residual,
                }),
                values: r.values,
                cache_hit: true,
            }),
        }
        .map_err(|e| e.to_string())
    }

    /// Rung 1: the same request at the engine's entry point, no socket.
    fn via_engine(&self, req: &Req) -> Result<Vec<f32>, String> {
        let digest = self.digests[req.pick];
        match self.kind {
            Kind::Hot => self.engine.query(digest, req.points.clone()).map(|r| r.0),
            Kind::Churn => {
                self.engine.encode_query(1, req.patch.clone(), req.points.clone()).map(|r| r.2)
            }
            Kind::Refine => {
                self.engine.refine(digest, req.points.clone(), self.budget()).map(|r| r.values)
            }
        }
        .map_err(|e| e.to_string())
    }

    /// Rung 2: the model calls the engine makes for this request, direct.
    /// Returns the decoded values and, for `refine`, the descent report.
    fn via_model(&self, req: &Req, at: At<'_>) -> (Tensor, Option<Descent>) {
        let model = self.engine.model();
        let decode = |latent: &Tensor| {
            at.span("core.decode_values", |_| {
                model.decode_values(latent, req.points.iter().copied())
            })
        };
        match self.kind {
            Kind::Hot => (decode(&self.latents[req.pick]), None),
            Kind::Churn => {
                let input = Tensor::from_vec(req.patch.clone(), &self.patch_dims);
                let latent = at.span("core.encode", |_| model.encode(&input));
                (decode(&latent), None)
            }
            Kind::Refine => {
                let settings = RefineSettings::from_config(model.cfg());
                let (refined, report) = at.span("core.refine_latent", |_| {
                    model.refine_latent(
                        &self.latents[req.pick],
                        &req.points,
                        &settings,
                        &self.budget(),
                    )
                });
                let descent = Descent {
                    steps_run: report.steps_run,
                    steps_accepted: report.steps_accepted,
                    initial_residual: report.initial_residual,
                    final_residual: report.final_residual,
                };
                (decode(&refined), Some(descent))
            }
        }
    }

    /// The engine's own running totals (reply counts are kept client-side).
    fn engine_counters(&self) -> Counters {
        let e = &self.engine;
        Counters {
            decode_calls: e.batcher().decode_calls(),
            batched_queries: e.batcher().batched_queries(),
            busy: e.stats().busy_rejects(),
            ..Counters::default()
        }
    }
}

/// One connection's view of the workload.
struct ConnOp<'a> {
    s: &'a Serving,
    client: Client,
    tally: Tally,
}

/// What one connection saw, folded into [`Serving`] when its thread ends.
#[derive(Default)]
struct Tally {
    replies: u64,
    cached: u64,
    compared: u64,
    refine_log: Vec<Descent>,
}

impl<'a> ConnOp<'a> {
    fn connect(s: &'a Serving) -> Result<Self, String> {
        let client = Client::connect(s.addr).map_err(|e| format!("connect: {e}"))?;
        Ok(ConnOp { s, client, tally: Tally::default() })
    }
}

impl Op for ConnOp<'_> {
    type Req = Req;
    type Rep = Rep;

    fn prepare(&mut self, i: u64) -> Req {
        self.s.request(i)
    }

    fn issue(&mut self, req: &Req, _: At<'_>) -> Result<Rep, String> {
        let rep = self.s.via_client(&mut self.client, req);
        if rep.is_err() {
            // An I/O failure leaves the stream mid-frame; start a clean one
            // so the next request is not failed by this one.
            if let Ok(fresh) = Client::connect(self.s.addr) {
                self.client = fresh;
            }
        }
        rep
    }

    fn verify(&mut self, i: u64, req: &Req, rep: &Rep) -> Result<f64, String> {
        let channels = self.s.engine.model().cfg().out_channels;
        if rep.values.len() != req.points.len() * channels {
            return Err(format!("{} values for {} points", rep.values.len(), req.points.len()));
        }
        if let Some(log) = rep.refine {
            if !rep.values.iter().all(|v| v.is_finite()) {
                return Err("non-finite refined value".into());
            }
            self.tally.refine_log.push(log);
        } else if self.tally.replies == 0 || mix(self.s.seed, !i).next_below(CHECK_ONE_IN) == 0 {
            let (want, _) = self.s.via_model(req, At::root(None, i));
            self.tally.compared += 1;
            let same = want.data().iter().zip(&rep.values).all(|(a, b)| a.to_bits() == b.to_bits());
            if !same {
                return Err("reply differs from the in-process decode".into());
            }
        }
        self.tally.replies += 1;
        self.tally.cached += u64::from(rep.cache_hit);
        Ok(1.0)
    }
}

/// How the connections offer their requests.
#[derive(Clone, Copy)]
enum Load<'a> {
    /// Closed loop, for this many seconds.
    Closed(f64),
    /// Open loop: request `j` is due this many µs after the start.
    Open(&'a [u64]),
}

impl Serving {
    /// Runs the load from [`CONNECTIONS`] threads, one connection each.
    /// Returns each thread's phase, generator lateness (open loop) and tally.
    fn drive(&self, load: Load<'_>, lane: Lane<'_>) -> Vec<(Phase, Vec<f64>, Tally)> {
        let gate = Gate::new(CONNECTIONS);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CONNECTIONS)
                .map(|thread| {
                    let gate = &gate;
                    scope.spawn(move || {
                        let mut op = ConnOp::connect(self).expect("loopback");
                        let lane = Lane { thread, ..lane };
                        let start = gate.sync();
                        let (phase, lag) = match load {
                            Load::Open(offsets_us) => open_loop(&mut op, lane, start, offsets_us),
                            Load::Closed(seconds) => {
                                (closed_loop(&mut op, lane, start, seconds), Vec::new())
                            }
                        };
                        (phase, lag, op.tally)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("load-generator thread")).collect()
        })
    }
}

impl Workload for Serving {
    fn phase(&mut self, seconds: f64, first: u64, tracer: Option<&Tracer>) -> Phase {
        let before = self.engine_counters();
        let lane =
            Lane { thread: 0, threads: CONNECTIONS, cores: 1, first, tracer, span: "serve.client" };
        let results = self.drive(Load::Closed(seconds), lane);
        let after = self.engine_counters();
        let mut phase = Phase::default();
        for (p, _, tally) in results {
            phase.merge(p);
            self.compared += tally.compared;
            self.refine_log.extend(tally.refine_log);
            if tracer.is_some() {
                self.counters.replies += tally.replies;
                self.counters.cached += tally.cached;
            }
        }
        if tracer.is_some() {
            self.counters.decode_calls += after.decode_calls - before.decode_calls;
            self.counters.batched_queries += after.batched_queries - before.batched_queries;
            self.counters.busy += after.busy - before.busy;
        }
        phase
    }

    fn check(&mut self) -> Result<(), String> {
        if self.kind != Kind::Refine {
            return if self.compared > 0 {
                Ok(())
            } else {
                Err("no reply was compared with an in-process decode".into())
            };
        }
        // A zero-step refinement must be a plain decode, bit for bit.
        let req = self.request(crate::LADDER - 1);
        let mut client = Client::connect(self.addr).map_err(|e| e.to_string())?;
        let digest = self.digests[req.pick];
        let plain = client.query(digest, &req.points).map_err(|e| e.to_string())?;
        let zero = client
            .refine(digest, &req.points, RefineBudget::steps(0))
            .map_err(|e| e.to_string())?;
        if plain.values.iter().zip(&zero.values).any(|(a, b)| a.to_bits() != b.to_bits()) {
            return Err("a 0-step Refine differs from the plain Query".into());
        }
        let reduction = refine_reduction(&self.refine_log)?;
        if reduction < 1.3 {
            return Err(format!("median residual reduction {reduction} is below 1.3"));
        }
        Ok(())
    }

    fn layers(&mut self, tracer: &Tracer, traced: &Phase, out: &mut Layers) -> Ladder {
        let c = self.counters;
        out.set("serve.batch_size_mean", c.batched_queries as f64 / c.decode_calls.max(1) as f64);
        out.set("serve.cache_hit_ratio", c.cached as f64 / c.replies.max(1) as f64);
        out.set("serve.busy_rejects", c.busy as f64);
        if let Some(s) = traced.summary() {
            out.set("serve.rtt_ms_p99", s.p99_ms);
            out.set("serve.rtt_ms_max", s.max_ms);
        }
        if self.kind == Kind::Hot {
            // What independent users would see: the same requests on a
            // Poisson schedule, each timed from when it was due.
            let seconds = self.reps.of(OPEN_MILLIS) as f64 * 1e-3;
            let first = crate::LADDER + (1 << 31);
            let count = ((OPEN_RATE * seconds) as usize).max(1);
            let schedule = ArrivalSchedule::new(OPEN_RATE, count, &mut mix(self.seed, first));
            let lane = Lane {
                thread: 0,
                threads: CONNECTIONS,
                cores: 1,
                first,
                tracer: Some(tracer),
                span: "serve.client_open",
            };
            let (mut open, mut lag_us) = (Phase::default(), Vec::new());
            for (p, lag, _) in self.drive(Load::Open(schedule.offsets_us()), lane) {
                open.merge(p);
                lag_us.extend(lag);
            }
            if let Some(s) = open.summary() {
                out.set("serve.open_latency_ms_p50", s.p50_ms);
                out.set("serve.open_latency_ms_p90", s.p90_ms);
                out.set("serve.open_failed", open.failed as f64);
            }
            lag_us.sort_by(f64::total_cmp);
            out.set("serve.gen_lag_us_p99", percentile(&lag_us, 0.99));
        }

        // The ladder: one thread, the rungs taking turns chunk by chunk so
        // host drift hits all of them alike. Only `serve_churn` needs a fresh
        // request per rung (a repeated patch would be a cache hit).
        let mut client = Client::connect(self.addr).expect("loopback connect");
        let model = self.engine.model();
        let grid = model.grid_dims();
        let mut model_log = Vec::new();
        let (samples, chunk) = self.kind.ladder_samples();
        let (samples, kernel_reps) = (self.reps.of(samples), self.reps.of(KERNEL_REPS));
        for (base, rung) in (0..samples).step_by(chunk).flat_map(|b| [(b, 0), (b, 1), (b, 2)]) {
            for s in base..(base + chunk).min(samples) {
                let i =
                    crate::LADDER + 4 * s as u64 + if self.kind == Kind::Churn { rung } else { 0 };
                let (req, at) = (self.request(i), At::root(Some(tracer), i));
                match rung {
                    0 => drop(
                        at.span("ladder.client", |_| self.via_client(&mut client, &req))
                            .expect("ladder request over the socket"),
                    ),
                    1 => drop(
                        at.span("ladder.engine", |_| self.via_engine(&req))
                            .expect("ladder request in-process"),
                    ),
                    _ => {
                        model_log.extend(at.span("ladder.model", |at| self.via_model(&req, at)).1);
                        at.span("core.plan_queries", |_| {
                            black_box(plan_queries(grid, black_box(&req.points).iter().copied()))
                        });
                    }
                }
            }
        }
        let at = At::root(Some(tracer), crate::LADDER);
        let [rtt, eng, mdl] =
            ["ladder.client", "ladder.engine", "ladder.model"].map(|n| tracer.median_us(n));
        out.set("serve.engine_query_us", eng);
        out.set("serve.wire_overhead_us", rtt - eng);
        out.set("serve.batch_overhead_us", eng - mdl);
        out.set("serve.protocol_us", self.protocol_us(kernel_reps, at));
        let mut rungs = vec![
            ("Client::* over loopback", rtt),
            ("Engine::*", eng),
            ("FrozenModel::* the engine calls", mdl),
        ];

        if self.kind == Kind::Refine {
            let steps: u32 = model_log.iter().map(|d| d.steps_run).sum();
            let accepted: u32 = model_log.iter().map(|d| d.steps_accepted).sum();
            let total_ms = tracer.durations_us("core.refine_latent").iter().sum::<f64>() * 1e-3;
            out.set("core.refine_step_ms", total_ms / f64::from(steps.max(1)));
            out.set("core.refine_accept_ratio", f64::from(accepted) / f64::from(steps.max(1)));
            out.set("core.refine_reduction", refine_reduction(&model_log).unwrap_or(0.0));
        } else {
            let points = self.kind.points();
            let mut kernels_us = 0.0;
            if self.kind == Kind::Churn {
                let convs = unet_convs(model, 1, kernel_reps, at);
                out.set("core.encode_ms", tracer.median_us("core.encode") * 1e-3);
                out.set("tensor.conv3d_us", convs.us);
                out.set("tensor.conv3d_gflops", convs.gflops());
                kernels_us += convs.us;
            }
            let decode_us = tracer.median_us("core.decode_values");
            let plan_us = tracer.median_us("core.plan_queries");
            let gemms = decoder_gemms(model.cfg(), points, kernel_reps, at);
            out.set("core.plan_us", plan_us);
            out.set("core.decode_us_per_point", decode_us / points as f64);
            out.set("tensor.gemm_us", gemms.us);
            out.set("tensor.gemm_gflops", gemms.gflops());
            out.set("tensor.gemm_peak_gflops", gemm_peak_gflops(kernel_reps, at));
            out.set("core.decode_nongemm_share", 1.0 - gemms.us / decode_us);
            kernels_us += plan_us + gemms.us;
            rungs.push(("plan_queries, gemm, conv3d_auto replayed", kernels_us));
        }
        Ladder { unit: "us", rungs, complete: false }
    }
}

impl Serving {
    /// Framing cost of one request/reply pair: `write_frame` into a buffer
    /// and `FrameDecoder` out of it, for payloads of this workload's sizes
    /// (the framing code never looks inside a payload).
    fn protocol_us(&self, reps: usize, at: At<'_>) -> f64 {
        let points = self.kind.points();
        let channels = self.engine.model().cfg().out_channels;
        let queries = 4 + 16 * points;
        let (kind, request) = match self.kind {
            Kind::Hot => (FrameKind::Query, 8 + queries),
            Kind::Churn => (FrameKind::EncodeQuery, 4 + 4 * self.patches[0].len() + queries),
            Kind::Refine => (FrameKind::Refine, 8 + 16 + queries),
        };
        let reply = 8 + 1 + 4 + 4 + 4 * points * channels;
        let payloads = [(kind, vec![0u8; request]), (FrameKind::QueryResp, vec![0u8; reply])];
        median_us(reps * 20, at, "serve.protocol", || {
            for (kind, payload) in &payloads {
                let mut wire = Vec::new();
                write_frame(&mut wire, *kind, black_box(payload)).expect("vec write");
                let mut decoder = FrameDecoder::new();
                decoder.extend(&wire);
                black_box(decoder.next_frame().expect("well-formed frame"));
            }
        })
    }
}

/// Median of initial ÷ final residual over refine reports.
fn refine_reduction(log: &[Descent]) -> Result<f64, String> {
    if log.is_empty() {
        return Err("no refine reply to judge".into());
    }
    let ratio = |d: &Descent| f64::from(d.initial_residual) / f64::from(d.final_residual);
    Ok(median(log.iter().map(ratio).collect()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{build, Scale};

    #[test]
    fn a_wrong_reply_counts_as_failed() {
        let reps = Reps { smoke: true };
        let s = Serving::start("serve_hot", build(5, Scale::SMOKE, None), 5, reps).expect("server");
        let mut op = ConnOp::connect(&s).expect("connect");
        let req = op.prepare(0);
        let mut rep = op.issue(&req, At::root(None, 0)).expect("reply");
        assert_eq!(op.verify(0, &req, &rep), Ok(1.0));
        // Flip one bit of one value: the first reply of a connection is
        // always compared, so a fresh connection must refuse it.
        rep.values[3] = f32::from_bits(rep.values[3].to_bits() ^ 1);
        op.tally.replies = 0;
        assert!(op.verify(0, &req, &rep).is_err());
        rep.values.pop();
        assert!(op.verify(0, &req, &rep).is_err());
        assert_eq!(op.tally.compared, 2);
    }

    #[test]
    fn churn_requests_never_repeat_a_patch() {
        let reps = Reps { smoke: true };
        let s =
            Serving::start("serve_churn", build(5, Scale::SMOKE, None), 5, reps).expect("server");
        let (a, b) = (s.request(10), s.request(11));
        assert_eq!(a.patch.len(), s.patches[0].len());
        assert_ne!(a.patch, b.patch);
        assert_eq!(s.request(10).patch, a.patch, "same index, same request");
    }
}
