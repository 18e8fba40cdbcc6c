//! The `super_resolve` workload: `MeshfreeFlowNet::super_resolve` of the
//! whole LR dataset onto the HR grid, over and over. Offline batch
//! inference — encode once per covering patch, then one large decode per
//! patch; decode/GEMM-bound, and `mfn-serve` is not involved at all.

use crate::kernels::{decoder_gemms, gemm_peak_gflops, median_us, unet_convs};
use crate::measure::{closed_loop, Lane, Op, Phase};
use crate::setup::Env;
use crate::trace::{At, Ladder, Tracer};
use crate::train::KERNEL_REPS;
use crate::{Layers, Reps, Workload};
use mfn_core::{covering_origins, extract_patch, plan_queries, ChannelStats, FrozenModel};
use mfn_data::{Dataset, DatasetMeta, CHANNELS};
use std::hint::black_box;
use std::time::Instant;

/// Full reconstructions timed for the ladder.
const RECONSTRUCTIONS: usize = 2;

/// One axis of the tiling: HR grid length and step, LR step, patch length.
struct Axis {
    n_hr: usize,
    h_hr: f64,
    h_lr: f64,
    extent: f64,
}

impl Axis {
    /// HR index interval a patch starting at LR index `origin` covers; the
    /// last patch also owns the trailing edge.
    fn covered(&self, origin: usize, last: bool) -> (usize, usize) {
        let pos = origin as f64 * self.h_lr;
        let h = self.h_hr.max(1e-30);
        let lo = (pos / h - 1e-9).ceil().max(0.0) as usize;
        let end = self.n_hr.saturating_sub(1);
        let hi = if last { end } else { ((pos + self.extent) / h + 1e-9).floor() as usize };
        (lo, hi.min(end))
    }

    /// Local patch coordinate of HR index `i`.
    fn local(&self, i: usize, origin: usize) -> f32 {
        ((i as f64 * self.h_hr - origin as f64 * self.h_lr) / self.extent.max(1e-30)) as f32
    }
}

/// Blending weight: 1 at the patch centre, small but positive at its faces.
fn hat(s: f32) -> f64 {
    let s = s.clamp(0.0, 1.0);
    0.02 + f64::from(s.min(1.0 - s))
}

/// The harness's own super-resolution, written against the public pieces
/// (`covering_origins`, `extract_patch`, `FrozenModel::encode`,
/// `FrozenModel::decode_values`) with the same tiling and hat-weight blend
/// as `MeshfreeFlowNet::super_resolve`. It is the reference the workload's
/// output is checked against, and rung 1 of its replay ladder. With
/// `only_frame` set, only that HR frame is computed. Returns `[nt, C, nz,
/// nx]` physical values (frames not computed stay 0) and the query points
/// decoded.
pub fn reconstruct(
    model: &FrozenModel,
    lr: &Dataset,
    hr: &DatasetMeta,
    stats: ChannelStats,
    only_frame: Option<usize>,
    at: At<'_>,
) -> (Vec<f32>, usize) {
    let spec = model.cfg().patch;
    let origins = covering_origins(lr, spec);
    let axis = |n_hr: usize, h_hr: f64, h_lr: f64, n_patch: usize| Axis {
        n_hr,
        h_hr,
        h_lr,
        extent: (n_patch - 1) as f64 * h_lr,
    };
    let hr_dt = if hr.nt < 2 { 0.0 } else { hr.duration / (hr.nt - 1) as f64 };
    let at_t = axis(hr.nt, hr_dt, lr.dt(), spec.nt);
    let at_z = axis(hr.nz, hr.lz / (hr.nz - 1).max(1) as f64, lr.dz(), spec.nz);
    let at_x = axis(hr.nx, hr.lx / hr.nx as f64, lr.dx(), spec.nx);
    let plane = hr.nz * hr.nx;
    let mut acc = vec![0.0f64; hr.nt * CHANNELS * plane];
    let mut wsum = vec![0.0f64; hr.nt * plane];
    let mut decoded = 0;

    for (ti, &t0) in origins.t.iter().enumerate() {
        let (f_lo, f_hi) = at_t.covered(t0, ti + 1 == origins.t.len());
        let (f_lo, f_hi) = match only_frame {
            Some(f) if (f_lo..=f_hi).contains(&f) => (f, f),
            Some(_) => continue,
            None => (f_lo, f_hi),
        };
        for (zi, &z0) in origins.z.iter().enumerate() {
            let (j_lo, j_hi) = at_z.covered(z0, zi + 1 == origins.z.len());
            for (xi, &x0) in origins.x.iter().enumerate() {
                let (i_lo, i_hi) = at_x.covered(x0, xi + 1 == origins.x.len());
                let mut queries = Vec::new();
                let mut targets = Vec::new();
                for f in f_lo..=f_hi {
                    for j in j_lo..=j_hi {
                        for i in i_lo..=i_hi {
                            queries.push([at_t.local(f, t0), at_z.local(j, z0), at_x.local(i, x0)]);
                            targets.push((f, j * hr.nx + i));
                        }
                    }
                }
                if queries.is_empty() {
                    continue;
                }
                let patch = extract_patch(lr, [t0, z0, x0], spec, stats);
                let latent = at.span("core.encode", |_| model.encode(&patch));
                let pred = at.span("core.decode_values", |_| {
                    model.decode_values(&latent, queries.iter().map(|&q| (0usize, q)))
                });
                decoded += queries.len();
                for (row, (q, &(f, cell))) in queries.iter().zip(&targets).enumerate() {
                    let w = hat(q[0]) * hat(q[1]) * hat(q[2]);
                    wsum[f * plane + cell] += w;
                    for c in 0..CHANNELS {
                        acc[(f * CHANNELS + c) * plane + cell] +=
                            w * f64::from(pred.data()[row * CHANNELS + c]);
                    }
                }
            }
        }
    }
    let mut out = vec![0.0f32; acc.len()];
    for f in 0..hr.nt {
        for c in 0..CHANNELS {
            for cell in 0..plane {
                let w = wsum[f * plane + cell];
                if w > 0.0 {
                    let v = acc[(f * CHANNELS + c) * plane + cell] / w;
                    out[(f * CHANNELS + c) * plane + cell] =
                        v as f32 * stats.std[c] + stats.mean[c];
                }
            }
        }
    }
    (out, decoded)
}

/// Largest gap, in units of the channel's standard deviation, between two
/// fields over HR frame `frame`.
fn frame_gap(a: &[f32], b: &[f32], hr: &DatasetMeta, stats: ChannelStats, frame: usize) -> f32 {
    let plane = hr.nz * hr.nx;
    let mut worst = 0.0f32;
    for c in 0..CHANNELS {
        let at = (frame * CHANNELS + c) * plane;
        for (x, y) in a[at..at + plane].iter().zip(&b[at..at + plane]) {
            worst = worst.max((x - y).abs() / stats.std[c]);
        }
    }
    worst
}

/// The `super_resolve` workload.
pub struct SuperResolve {
    env: Env,
    last: Option<Dataset>,
    reps: Reps,
}

struct PassOp<'a> {
    env: &'a mut Env,
    last: &'a mut Option<Dataset>,
}

impl Op for PassOp<'_> {
    type Req = ();
    type Rep = Dataset;

    fn prepare(&mut self, _: u64) {}

    fn issue(&mut self, _: &(), _: At<'_>) -> Result<Dataset, String> {
        let (hr, lr) = &self.env.corpus.pairs[0];
        Ok(self.env.model.super_resolve(lr, &hr.meta, self.env.corpus.stats))
    }

    fn verify(&mut self, _: u64, _: &(), rep: &Dataset) -> Result<f64, String> {
        if !rep.data.iter().all(|v| v.is_finite()) {
            return Err("non-finite value in the super-resolved field".into());
        }
        *self.last = Some(rep.clone());
        Ok(rep.data.len() as f64)
    }
}

impl SuperResolve {
    /// Super-resolves the generated LR dataset with the set-up's model.
    pub fn new(env: Env, reps: Reps) -> Self {
        SuperResolve { env, last: None, reps }
    }
}

impl Workload for SuperResolve {
    fn phase(&mut self, seconds: f64, first: u64, tracer: Option<&Tracer>) -> Phase {
        let mut op = PassOp { env: &mut self.env, last: &mut self.last };
        let lane =
            Lane { thread: 0, threads: 1, cores: 1, first, tracer, span: "core.super_resolve" };
        closed_loop(&mut op, lane, Instant::now(), seconds)
    }

    fn check(&mut self) -> Result<(), String> {
        let (hr, lr) = &self.env.corpus.pairs[0];
        let stats = self.env.corpus.stats;
        let got = self.last.as_ref().ok_or("no pass completed")?;
        let frame = hr.meta.nt / 2;
        let (want, _) =
            reconstruct(&self.env.frozen, lr, &hr.meta, stats, Some(frame), At::root(None, 0));
        let gap = frame_gap(&got.data, &want, &hr.meta, stats, frame);
        if gap > 1e-5 {
            return Err(format!("frame {frame} is {gap} standard deviations off the reference"));
        }
        Ok(())
    }

    fn layers(&mut self, tracer: &Tracer, _: &Phase, out: &mut Layers) -> Ladder {
        let (hr, lr) = &self.env.corpus.pairs[0];
        let (stats, model) = (self.env.corpus.stats, &self.env.frozen);
        let at = At::root(Some(tracer), crate::LADDER);
        let mut decoded = 0;
        let (reconstructions, kernel_reps) =
            (self.reps.of(RECONSTRUCTIONS), self.reps.of(KERNEL_REPS));
        for _ in 0..reconstructions {
            decoded =
                at.span("sr.reconstruct", |at| reconstruct(model, lr, &hr.meta, stats, None, at)).1;
        }
        let passes = reconstructions as f64;
        let sum_ms = |name| tracer.durations_us(name).iter().sum::<f64>() * 1e-3 / passes;
        let (encode_ms, decode_ms) = (sum_ms("core.encode"), sum_ms("core.decode_values"));
        let recon_ms = tracer.median_us("sr.reconstruct") * 1e-3;
        let top = tracer.median_us("core.super_resolve") * 1e-3;
        out.set("core.encode_ms", tracer.median_us("core.encode") * 1e-3);
        out.set("core.decode_us_per_point", decode_ms * 1e3 / decoded as f64);
        out.set("core.sr_self_share", (top - recon_ms) / top);

        // Below `decode_values`, at one interior patch's query count.
        let patches = tracer.durations_us("core.encode").len() / reconstructions;
        let points = decoded / patches.max(1);
        let queries: Vec<(usize, [f32; 3])> =
            (0..points).map(|q| (0, [0.5, 0.5, (q as f32 + 0.5) / points as f32])).collect();
        let grid = model.grid_dims();
        let plan_us = median_us(kernel_reps, at, "core.plan_queries", || {
            black_box(plan_queries(grid, black_box(&queries).iter().copied()));
        });
        out.set("core.plan_us", plan_us);
        let gemms = decoder_gemms(model.cfg(), points, kernel_reps, at);
        out.set("tensor.gemm_us", gemms.us);
        out.set("tensor.gemm_gflops", gemms.gflops());
        out.set("tensor.gemm_peak_gflops", gemm_peak_gflops(kernel_reps, at));
        let decode_us = decode_ms * 1e3 / patches.max(1) as f64;
        out.set("core.decode_nongemm_share", 1.0 - gemms.us / decode_us);
        let convs = unet_convs(model, 1, kernel_reps, at);
        out.set("tensor.conv3d_us", convs.us);
        out.set("tensor.conv3d_gflops", convs.gflops());

        let kernels_ms = patches as f64 * (plan_us + gemms.us + convs.us) * 1e-3;
        Ladder {
            unit: "ms",
            rungs: vec![
                ("MeshfreeFlowNet::super_resolve", top),
                ("sr::reconstruct, the frozen path", recon_ms),
                ("FrozenModel encode + decode, all patches", encode_ms + decode_ms),
                ("plan_queries, gemm, conv3d_auto replayed", kernels_ms),
            ],
            complete: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{build, Scale};

    #[test]
    fn reconstruction_matches_super_resolve_and_the_check_sees_a_wrong_field() {
        let env = build(3, Scale::SMOKE, None);
        let mut w = SuperResolve::new(env, crate::Reps { smoke: true });
        let phase = w.phase(0.01, 0, None);
        assert_eq!((phase.samples.len(), phase.failed), (1, 0));
        w.check().expect("reference agrees with super_resolve");
        // Every frame agrees, not only the one the check looks at.
        let (hr, lr) = &w.env.corpus.pairs[0];
        let stats = w.env.corpus.stats;
        let (all, decoded) =
            reconstruct(&w.env.frozen, lr, &hr.meta, stats, None, At::root(None, 0));
        assert!(decoded >= hr.data.len() / CHANNELS);
        let got = w.last.as_ref().expect("one pass");
        for frame in 0..hr.meta.nt {
            assert!(frame_gap(&got.data, &all, &hr.meta, stats, frame) <= 1e-5);
        }
        // A deliberately wrong field fails the check.
        let frame = hr.meta.nt / 2;
        let at = frame * CHANNELS * hr.meta.nz * hr.meta.nx;
        w.last.as_mut().expect("one pass").data[at] += 1.0;
        assert!(w.check().is_err());
    }
}
