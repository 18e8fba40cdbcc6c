//! `bench` — kernel + training-step micro-benchmarks with JSON output.
//! Options: [`USAGE`].
//!
//! Measures the conv driver every layer runs on, as a row-major GEMM
//! (`PackedConv3d::pack_linear` + `forward_slices`), against the
//! pre-optimization naive `ikj` kernel kept here as a frozen reference, the
//! implicit-GEMM conv3d (forward and both gradients, a training-shaped 3×3×3
//! layer and its pointwise twin, the weight gradient also stage by stage), one
//! U-Net encode attributed conv by conv and stage by stage, the frozen
//! encode/decode split with every decode row attributed stage by stage and its
//! GEMM stage timed against the driver's GEMM, the softplus kernel (as a slice
//! and as the decoder's feature-major epilogue) and its derivative, the
//! decoder's forward and backward on the tape (the link between the kernel rows
//! and the training step), and the heap traffic of one full training step with
//! the workspace pool on vs off. The results are one [`KernelsReport`], written
//! by `serde_json` to `BENCH_kernels.json` (default; `--out` overrides): median
//! wall time, GFLOP/s, heap bytes allocated per call (counted by the global
//! allocator below), and workspace-pool hit/miss counters.
//!
//! The binary doubles as a regression gate: before timing anything it
//! re-checks the driver's GEMM against the naive reference on
//! tile-unaligned shapes and the conv3d kernels against a definition loop
//! and the adjoint identities, and exits non-zero on any mismatch. `--oracle` additionally
//! runs the full mfn-reftest differential suite first. `--quick`
//! shrinks the problem sizes for CI; the full run additionally asserts
//! the ≥2× speedup the optimization is required to hold on the 256³
//! GEMM. `--gate BASELINE.json` parses a committed report into the same
//! [`KernelsReport`] and holds this run's *ratios* against it
//! ([`run_gate`]): the speedups (driver/naive GEMM, conv3d and its weight
//! gradient/driver GEMM) may not drop below 85% of the baseline's, and the
//! cost ratios (softplus derivative/softplus; the tape's six-lane equation
//! loss/one-lane decode) may not rise above the baseline's by the same
//! margin — ratios, not absolute GFLOP/s, so the gate is insensitive to how
//! fast the CI machine is that day. A baseline of the other mode (`--quick`
//! against full) fails the gate: its ratios were measured at other sizes.

use mfn_autodiff::{Activation, Graph, Var, JET_LANES};
use mfn_core::cli::Cli;
use mfn_core::{
    decode_workers, equation_loss, plan_queries, ChannelStats, ConstraintSet, Corpus, DecodeStages,
    FrozenModel, MeshfreeFlowNet, MfnConfig, QueryPlan, RbcParams, TrainConfig, Trainer,
};
use mfn_data::{downsample, make_batch, Dataset, PatchSampler, PatchSpec};
use mfn_solver::{simulate, RbcConfig};
use mfn_tensor::{
    conv3d_auto, conv3d_grad_input, conv3d_grad_weight, rowops, workspace, Conv3dDims, ConvStages,
    PackedConv3d, Tensor,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::sync::atomic::Ordering::Relaxed;
use std::time::Instant;

const USAGE: &str = "usage: bench [--quick] [--oracle] [--gate BASELINE.json] [--out PATH]";

/// Counting allocator: every heap allocation in the process adds to a
/// pair of atomics so benchmarks can report bytes-allocated-per-call.
/// The counters only track `alloc`/`realloc` growth — frees are not
/// subtracted, because "how much did the allocator have to hand out"
/// is exactly the churn the workspace pool exists to remove.
mod counting_alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    pub static BYTES: AtomicU64 = AtomicU64::new(0);
    pub static CALLS: AtomicU64 = AtomicU64::new(0);

    pub struct Counting;

    // SAFETY: defers all allocation to `System`; the atomics only observe.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, l: Layout) -> *mut u8 {
            BYTES.fetch_add(l.size() as u64, Ordering::Relaxed);
            CALLS.fetch_add(1, Ordering::Relaxed);
            System.alloc(l)
        }
        unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
            System.dealloc(p, l)
        }
        unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
            BYTES.fetch_add(new_size.saturating_sub(l.size()) as u64, Ordering::Relaxed);
            CALLS.fetch_add(1, Ordering::Relaxed);
            System.realloc(p, l, new_size)
        }
    }

    #[global_allocator]
    static COUNTER: Counting = Counting;
}

/// `x` rounded to `places` decimals: the precision the report keeps a
/// figure at, applied when its section is built.
fn round(x: f64, places: i32) -> f64 {
    let scale = 10f64.powi(places);
    (x * scale).round() / scale
}

/// `x` rounded to a whole number (nanosecond timings, rates).
fn whole(x: f64) -> u64 {
    x.round() as u64
}

/// The pre-optimization GEMM, frozen verbatim from the seed tree's
/// row-major matrix product: `ikj` with the zero-skip branch. This is the
/// baseline every speedup in the JSON is measured against.
fn naive_ikj(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(c.len(), m * n);
    c.fill(0.0);
    for (i, out_row) in c.chunks_mut(n).enumerate() {
        for p in 0..k {
            let aip = a[i * k + p];
            if aip == 0.0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(brow) {
                *o += aip * bv;
            }
        }
    }
}

/// Deterministic pseudo-random matrix data (no RNG dependency in the
/// timed path; quarter-integers keep f32 sums exactly representable).
fn lcg_fill(buf: &mut [f32], mut state: u64) {
    for v in buf.iter_mut() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *v = ((state >> 33) % 17) as f32 * 0.25 - 2.0;
    }
}

/// `(median, minimum)` of a set of timings.
fn median_and_best(mut samples: Vec<f64>) -> (f64, f64) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    (samples[samples.len() / 2], samples[0])
}

/// One timed measurement: `(median_ns, best_ns)` over `iters` calls of
/// `f`, plus allocator bytes attributed to a single (post-warm-up) call.
///
/// Both estimators are reported because they answer different questions on
/// a shared VM. Steal time inflates individual iterations by 30–40% in
/// bursts, and a burst spanning half the window drags the *median* with
/// it; the *minimum* is the iterations the hypervisor left alone — the
/// speed of the code itself. GFLOP/s figures and speedup ratios therefore
/// come from `best_ns`; `median_ns` stays in the report as the
/// what-you'll-typically-see number.
fn time_samples<F: FnMut()>(iters: usize, mut f: F) -> (f64, f64, u64) {
    let bytes = bytes_per_call(&mut f);
    let (median, best) = time_interleaved(iters, &mut [&mut f])[0];
    (median, best, bytes)
}

/// Interleaved timing of several variants: each iteration times one call
/// of every variant back to back, so all variants sample the same
/// hypervisor steal phases and the ratio of any two minima is
/// machine-speed robust. Timing them in separate loops instead lets one
/// variant's minimum land in a quiet window the other never saw, which on
/// this VM moves speedup ratios by ±20% run to run. Returns `(median_ns,
/// best_ns)` per variant, in input order.
fn time_interleaved(iters: usize, fs: &mut [&mut dyn FnMut()]) -> Vec<(f64, f64)> {
    for f in fs.iter_mut() {
        f(); // warm up: workspace pool, icache
    }
    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(iters); fs.len()];
    for _ in 0..iters {
        for (f, s) in fs.iter_mut().zip(samples.iter_mut()) {
            let t = Instant::now();
            f();
            s.push(t.elapsed().as_nanos() as f64);
        }
    }
    samples.into_iter().map(median_and_best).collect()
}

/// Allocator bytes attributed to one call of `f`, after one that warms up
/// the workspace pool and the icache.
fn bytes_per_call<F: FnMut()>(mut f: F) -> u64 {
    f();
    let b0 = counting_alloc::BYTES.load(Relaxed);
    f();
    counting_alloc::BYTES.load(Relaxed) - b0
}

/// Schema tag of the report this binary writes.
const SCHEMA: &str = "mfn-bench/kernels/v16";

/// `BENCH_kernels.json`. The field names are the keys (the vendored derive
/// renames nothing) and `--gate` parses a committed report back into this
/// type, so the writer and the gate cannot disagree on a key. Unknown keys
/// are ignored (v11's `sampling`); a missing one fails the parse, so a v12
/// report, which has no `tape_decoder.layers`, gates nothing.
#[derive(Serialize, Deserialize)]
struct KernelsReport {
    schema: String,
    /// `quick` or `full`: the problem sizes the rows were measured at.
    mode: String,
    checks: Checks,
    gemm: Vec<GemmRow>,
    gemm_speedup_vs_naive: f64,
    conv3d: Conv3d,
    unet_encode: UnetEncode,
    decode_values: DecodeValues,
    softplus: Softplus,
    softplus_grad: SoftplusGrad,
    tape_decoder: TapeDecoder,
    train_step: TrainStep,
}

/// The correctness gates that ran before any timing; a report is only
/// written when both passed.
#[derive(Serialize, Deserialize)]
struct Checks {
    gemm_vs_naive: String,
    conv3d_vs_definition: String,
}

/// One GEMM benchmark row.
#[derive(Serialize, Deserialize)]
struct GemmRow {
    name: String,
    m: usize,
    k: usize,
    n: usize,
    median_ns: u64,
    best_ns: u64,
    gflops: f64,
    alloc_bytes_per_call: u64,
}

fn gemm_gflops(m: usize, k: usize, n: usize, ns: f64) -> f64 {
    (2.0 * m as f64 * k as f64 * n as f64) / ns
}

impl GemmRow {
    /// The row of a `size`³ GEMM timed as `(median_ns, best_ns, bytes)`.
    fn new(name: &str, size: usize, (median, best, bytes): (f64, f64, u64)) -> Self {
        GemmRow {
            name: format!("{name}_{size}"),
            m: size,
            k: size,
            n: size,
            median_ns: whole(median),
            best_ns: whole(best),
            gflops: round(gemm_gflops(size, size, size, best), 2),
            alloc_bytes_per_call: bytes,
        }
    }
}

/// A training-shaped 3×3×3 conv (the gated one) and its pointwise twin (same
/// batch, channels and extent, 1×1×1 kernel), forward and both gradients,
/// the weight gradient also by stage. The two `_vs_gemm_nn` ratios are
/// GFLOP/s over `gemm_nn`'s (v15 reports lack the weight gradient's and its
/// stages, and read zero).
#[derive(Serialize, Deserialize)]
struct Conv3d {
    shape: ConvShape,
    implicit_gemm: KernelRow,
    implicit_grad_input: KernelRow,
    implicit_grad_weight: KernelRow,
    #[serde(default)]
    implicit_grad_weight_stages: GradWeightStages,
    pointwise: PointwiseConv,
    implicit_vs_gemm_nn: f64,
    #[serde(default)]
    implicit_grad_weight_vs_gemm_nn: f64,
}

#[derive(Serialize, Deserialize)]
struct ConvShape {
    n: usize,
    cin: usize,
    cout: usize,
    spatial: [usize; 3],
    kernel: [usize; 3],
}

#[derive(Serialize, Deserialize)]
struct PointwiseConv {
    kernel: [usize; 3],
    implicit_gemm: KernelRow,
    implicit_grad_input: KernelRow,
    implicit_grad_weight: KernelRow,
    #[serde(default)]
    implicit_grad_weight_stages: GradWeightStages,
}

/// `conv3d_grad_weight` by stage (µs, minima over staged calls): the pad
/// copy of the input (3×3×3 only), the two transposing packs — `grad_out`
/// rows into A panels, patch rows into B panels — and the micro-kernel
/// tiles with their write-back.
#[derive(Serialize, Deserialize, Default)]
struct GradWeightStages {
    pad_copy_us: f64,
    pack_a_us: f64,
    pack_b_us: f64,
    micro_us: f64,
}

/// [`GradWeightStages`] of `conv3d_grad_weight(x, g, dims)` over `iters`
/// staged calls.
fn grad_weight_stages(iters: usize, x: &[f32], g: &[f32], dims: Conv3dDims) -> GradWeightStages {
    let mut best = [f64::MAX; 4];
    for _ in 0..iters {
        let mut s = ConvStages::default();
        std::hint::black_box(conv3d_grad_weight(x, g, dims, Some(&mut s)));
        for (best, now) in
            best.iter_mut().zip([s.pad_copy_ns, s.pack_a_ns, s.pack_b_ns, s.micro_ns])
        {
            *best = best.min(now);
        }
    }
    let us = |ns: f64| round(ns / 1e3, 2);
    GradWeightStages {
        pad_copy_us: us(best[0]),
        pack_a_us: us(best[1]),
        pack_b_us: us(best[2]),
        micro_us: us(best[3]),
    }
}

/// One timed kernel; GFLOP/s come from the best time.
#[derive(Serialize, Deserialize)]
struct KernelRow {
    median_ns: u64,
    best_ns: u64,
    gflops: f64,
    alloc_bytes_per_call: u64,
}

impl KernelRow {
    /// A kernel doing `flops` per call, timed as `(median_ns, best_ns, bytes)`.
    fn new(flops: f64, (median, best, bytes): (f64, f64, u64)) -> Self {
        KernelRow {
            median_ns: whole(median),
            best_ns: whole(best),
            gflops: round(flops / best, 2),
            alloc_bytes_per_call: bytes,
        }
    }
}

/// Row-major `c = a · b` for `a: [m, k]`, `b: [k, n]` on the conv driver:
/// the feature-major `Linear` `y = W · x` with `W = a` over `n` columns
/// `x = b`, packed per call as the tape's layer node packs it.
fn driver_gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    PackedConv3d::pack_linear(a, m, k).forward_slices(b, [1, 1, n], c, None);
}

/// Correctness gate: the driver's GEMM vs the naive reference on
/// tile-unaligned shapes. Returns an error string on the first mismatch.
fn check_gemm_vs_naive() -> Result<(), String> {
    for &(m, k, n) in
        &[(1usize, 1usize, 1usize), (7, 3, 5), (9, 17, 33), (65, 70, 13), (70, 96, 70)]
    {
        let mut a = vec![0.0f32; m * k];
        let mut b = vec![0.0f32; k * n];
        lcg_fill(&mut a, (m * 31 + n) as u64);
        lcg_fill(&mut b, (k * 17 + m) as u64);
        let mut want = vec![0.0f32; m * n];
        naive_ikj(m, k, n, &a, &b, &mut want);
        let mut got = vec![0.0f32; m * n];
        driver_gemm(m, k, n, &a, &b, &mut got);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            if (g - w).abs() > 1e-4 * (1.0 + w.abs()) {
                return Err(format!("gemm_nn ({m}x{k}x{n}) mismatch at {i}: {g} vs {w}"));
            }
        }
    }
    Ok(())
}

/// Correctness gate: the conv3d forward vs its f64 definition loop
/// (`mfn-reftest`'s twin), and both gradients vs the forward through the
/// adjoint identities `<conv(x, w), g> = <x, grad_input(g, w)> =
/// <w, grad_weight(x, g)>`.
fn check_conv3d_vs_definition() -> Result<(), String> {
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    let dot = |a: &[f64], b: &Tensor| -> f64 {
        a.iter().zip(b.data()).map(|(&x, &y)| x * f64::from(y)).sum()
    };
    let wide = |t: &Tensor| -> Vec<f64> { t.data().iter().map(|&v| f64::from(v)).collect() };
    for &(kd, kh, kw, cin, cout) in
        &[(1usize, 1, 1, 3usize, 5usize), (3, 3, 3, 2, 4), (1, 3, 3, 4, 2)]
    {
        let tag = format!("{kd}x{kh}x{kw}, cin={cin}, cout={cout}");
        let input = Tensor::randn(&[2, cin, 3, 4, 5], 1.0, &mut rng);
        let weight = Tensor::randn(&[cout, cin, kd, kh, kw], 1.0, &mut rng);
        let dims = Conv3dDims::infer(&input, &weight);
        let want = mfn_reftest::reference::conv3d_ref(
            dims.n,
            cin,
            cout,
            dims.spatial,
            dims.kernel,
            input.data(),
            weight.data(),
        )
        .value;
        for (i, (&g, &w)) in conv3d_auto(&input, &weight).data().iter().zip(&want).enumerate() {
            if (f64::from(g) - w).abs() > 1e-4 * (1.0 + w.abs()) {
                return Err(format!("conv3d vs definition ({tag}) mismatch at {i}: {g} vs {w}"));
            }
        }
        let gout = Tensor::randn(&[2, cout, 3, 4, 5], 1.0, &mut rng);
        let forward = dot(&want, &gout);
        let via_input = dot(&wide(&conv3d_grad_input(gout.data(), weight.data(), dims)), &input);
        let via_weight =
            dot(&wide(&conv3d_grad_weight(input.data(), gout.data(), dims, None)), &weight);
        for (what, got) in [("grad_input", via_input), ("grad_weight", via_weight)] {
            if (got - forward).abs() > 1e-4 * (1.0 + forward.abs()) {
                return Err(format!("conv3d {what} adjoint ({tag}): {got} vs {forward}"));
            }
        }
    }
    Ok(())
}

/// The `unet_encode` section ([`bench_unet_encode`]): times in µs, minima
/// unless the key says median.
#[derive(Serialize, Deserialize)]
struct UnetEncode {
    patch: [usize; 3],
    batch: usize,
    encode_us: f64,
    encode_median_us: f64,
    layers: Vec<ConvLayer>,
    pointwise: ConvGroup,
    k3x3x3: ConvGroup,
    conv_us: f64,
    conv_share: f64,
    conv_gflops: f64,
    conv_vs_gemm_nn: f64,
}

/// One conv of the encode at its real shape, whole and by stage.
#[derive(Serialize, Deserialize)]
struct ConvLayer {
    name: String,
    cin: usize,
    cout: usize,
    kernel: [usize; 3],
    vol: usize,
    us: f64,
    gflops: f64,
    pack_a_us: f64,
    pad_copy_us: f64,
    pack_b_us: f64,
    micro_us: f64,
    epilogue_us: f64,
}

/// The [`ConvLayer`] columns summed over the encode's convs of one kernel
/// size.
#[derive(Serialize, Deserialize)]
struct ConvGroup {
    layers: usize,
    us: f64,
    gflops: f64,
    pack_a_us: f64,
    pad_copy_us: f64,
    pack_b_us: f64,
    micro_us: f64,
    epilogue_us: f64,
}

/// U-Net depth of the block a parameter belongs to: `unet.down{l}` works at
/// level `l + 1`, `unet.up{l}` at level `l`, stem and head at level 0.
fn unet_level(name: &str) -> Option<usize> {
    let block = name.strip_prefix("unet.")?.split('.').next()?;
    if let Some(l) = block.strip_prefix("down") {
        l.parse::<usize>().ok().map(|l| l + 1)
    } else if let Some(l) = block.strip_prefix("up") {
        l.parse().ok()
    } else {
        Some(0)
    }
}

/// Attributes one `FrozenModel::encode` of the end-to-end benchmark's model
/// (small preset, patch `[4, 8, 8]`, batch 1): the encode itself, then every
/// conv of the pass replayed on prepacked panels at its real shape — total
/// and by stage (`PackedConv3d::forward_staged`) — next to what the frozen
/// engine does not pay per call (`pack_a_us`, the weight pack) and the
/// in-place passes that follow the conv in the network (`epilogue_us`: bias,
/// eval-mode BN affine, ReLU, residual sum as the layer has them). All
/// figures are minima over `iters` calls.
fn bench_unet_encode(iters: usize, gemm_nn_gflops: f64) -> UnetEncode {
    let mut cfg = MfnConfig::small();
    cfg.patch = PatchSpec { nt: 4, nz: 8, nx: 8, queries: 128 };
    let patch = [cfg.patch.nt, cfg.patch.nz, cfg.patch.nx];
    let pools = cfg.pool_factors();
    let frozen = FrozenModel::from_model(MeshfreeFlowNet::new(cfg.clone()));
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    let input = Tensor::randn(&[1, cfg.in_channels, patch[0], patch[1], patch[2]], 1.0, &mut rng);
    let (encode_median, encode_best, _) = time_samples(iters, || {
        std::hint::black_box(frozen.encode(&input));
    });

    let us = |ns: f64| round(ns / 1e3, 2);
    // Sums per kernel size: [layers, flops, ns, pack_a, pad_copy, pack_b, micro, epilogue].
    let mut sums = [[0.0f64; 8]; 2];
    let mut layers = Vec::new();
    for (_, name, weight) in frozen.params().iter() {
        let (Some(level), &[cout, cin, kd, kh, kw]) = (unet_level(name), weight.dims()) else {
            continue;
        };
        let mut sp = patch;
        for f in &pools[..level] {
            sp = [sp[0] / f[0], sp[1] / f[1], sp[2] / f[2]];
        }
        let vol: usize = sp.iter().product();
        let x = Tensor::randn(&[1, cin, sp[0], sp[1], sp[2]], 1.0, &mut rng);
        let (_, pack_a, _) = time_samples(iters, || {
            std::hint::black_box(PackedConv3d::pack(weight, vol));
        });
        let packed = PackedConv3d::pack(weight, vol);
        let (_, conv_ns, _) = time_samples(iters, || {
            std::hint::black_box(packed.forward(&x));
        });
        let mut stage = [f64::MAX; 3];
        for _ in 0..iters {
            let mut s = ConvStages::default();
            std::hint::black_box(packed.forward_staged(&x, Some(&mut s)));
            for (best, now) in stage.iter_mut().zip([s.pad_copy_ns, s.pack_b_ns, s.micro_ns]) {
                *best = best.min(now);
            }
        }
        // The passes the network runs on this conv's output, by the layer's
        // place in its ResBlock (`skip` and `head` only add their bias).
        let role = name.rsplit('.').nth(1).unwrap_or("");
        let mut y = packed.forward(&x);
        let (ones, other) = (vec![1.0f32; cout], y.clone());
        let (_, epilogue, _) = time_samples(iters, || {
            rowops::add_bias_channels(&mut y, &ones);
            if role.starts_with("conv") {
                rowops::channel_affine(&mut y, &ones, &ones);
                if role == "conv3" {
                    y.add_assign(&other);
                }
                for v in y.data_mut() {
                    *v = v.max(0.0);
                }
            }
            std::hint::black_box(&mut y);
        });
        let flops = 2.0 * (vol * cout * cin * kd * kh * kw) as f64;
        let row = [1.0, flops, conv_ns, pack_a, stage[0], stage[1], stage[2], epilogue];
        let sum = &mut sums[usize::from(kd * kh * kw > 1)];
        for (acc, v) in sum.iter_mut().zip(row) {
            *acc += v;
        }
        layers.push(ConvLayer {
            name: name.trim_end_matches(".weight").to_string(),
            cin,
            cout,
            kernel: [kd, kh, kw],
            vol,
            us: us(conv_ns),
            gflops: round(flops / conv_ns, 2),
            pack_a_us: us(pack_a),
            pad_copy_us: us(stage[0]),
            pack_b_us: us(stage[1]),
            micro_us: us(stage[2]),
            epilogue_us: us(epilogue),
        });
    }
    let group = |s: &[f64; 8]| ConvGroup {
        layers: s[0] as usize,
        us: us(s[2]),
        gflops: round(s[1] / s[2], 2),
        pack_a_us: us(s[3]),
        pad_copy_us: us(s[4]),
        pack_b_us: us(s[5]),
        micro_us: us(s[6]),
        epilogue_us: us(s[7]),
    };
    let conv_ns = sums[0][2] + sums[1][2];
    let conv_gflops = (sums[0][1] + sums[1][1]) / conv_ns;
    UnetEncode {
        patch,
        batch: 1,
        encode_us: us(encode_best),
        encode_median_us: us(encode_median),
        layers,
        pointwise: group(&sums[0]),
        k3x3x3: group(&sums[1]),
        conv_us: us(conv_ns),
        conv_share: round(conv_ns / encode_best, 3),
        conv_gflops: round(conv_gflops, 2),
        conv_vs_gemm_nn: round(conv_gflops / gemm_nn_gflops, 3),
    }
}

/// The `decode_values` section: the serving split ([`bench_decode`]) and
/// one decode block's GEMM stage from the gated loop.
#[derive(Serialize, Deserialize)]
struct DecodeValues {
    encode_median_ns: u64,
    encode_to_1query_decode_ratio: f64,
    rows: Vec<DecodeRow>,
    two_core_speedup: TwoCoreSpeedup,
    gemm_stage: GemmStage,
}

/// `queries` continuous point queries decoded against a cached latent: the
/// timed call on `workers` threads (`mfn_core::decode_workers`), then each
/// stage's minimum in µs over staged calls
/// (`FrozenModel::decode_values_staged`, always one thread).
#[derive(Serialize, Deserialize)]
struct DecodeRow {
    queries: usize,
    workers: usize,
    median_ns: u64,
    best_ns: u64,
    points_per_s: u64,
    alloc_bytes_per_call: u64,
    plan_us: f64,
    gather_us: f64,
    pack_b_us: f64,
    micro_us: f64,
    epilogue_us: f64,
    blend_us: f64,
}

/// The rows large enough to split across cores (from 1,024 queries): the
/// call forced onto one worker against the call picking its own count,
/// interleaved.
#[derive(Serialize, Deserialize)]
struct TwoCoreSpeedup {
    available_parallelism: usize,
    q4096: TwoCoreRow,
    q16384: TwoCoreRow,
}

#[derive(Serialize, Deserialize)]
struct TwoCoreRow {
    workers: usize,
    one_worker_best_ns: u64,
    best_ns: u64,
    speedup: f64,
}

/// The decoder's layers over one full block, B-pack and micro-kernel.
#[derive(Serialize, Deserialize)]
struct GemmStage {
    rows: usize,
    median_ns: u64,
    best_ns: u64,
    alloc_bytes_per_call: u64,
    decode_gemm_gflops: f64,
    decode_vs_gemm_nn: f64,
}

/// The bench decoder's model: a tiny U-Net under a serving-sized decoder
/// (35→128→128→4), whose ~85 KB of weight panels spill a 32-48 KB L1d — the
/// regime a served decoder runs in.
fn bench_decoder_config() -> MfnConfig {
    let mut cfg = MfnConfig::small();
    cfg.patch = PatchSpec { nt: 4, nz: 4, nx: 4, queries: 32 };
    cfg.base_channels = 4;
    cfg.latent_channels = 32;
    cfg.mlp_hidden = vec![128, 128];
    cfg.levels = 2;
    cfg
}

/// `q` deterministic query points in the unit patch.
fn bench_queries(q: usize) -> Vec<(usize, [f32; 3])> {
    let mut state = q as u64 * 7919 + 1;
    (0..q)
        .map(|_| {
            let mut coord = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 40) as f32 / (1u64 << 24) as f32).clamp(0.0, 1.0)
            };
            (0usize, [coord(), coord(), coord()])
        })
        .collect()
}

/// Times the serving split on a tiny frozen model: one U-Net encode (the
/// expensive encode-once half) and `FrozenModel::decode_values` at several
/// query-batch sizes (the cheap decode-many half), each row also by stage —
/// plan, gather, the layers' B-pack, micro-kernel and bias + activation,
/// blend — then the [`TwoCoreSpeedup`] rows. The encode/decode ratio in the
/// report is the asymmetry the latent-context cache in `mfn-serve` exploits.
fn bench_decode(iters: usize, gemm_stage: GemmStage) -> DecodeValues {
    let cfg = bench_decoder_config();
    let in_channels = cfg.in_channels;
    let frozen = FrozenModel::from_model(MeshfreeFlowNet::new(cfg));
    let mut rng = ChaCha8Rng::seed_from_u64(21);
    let input = Tensor::randn(&[1, in_channels, 4, 4, 4], 1.0, &mut rng);
    let (encode_ns, _, _) = time_samples(iters, || {
        std::hint::black_box(frozen.encode(&input));
    });
    let latent = frozen.encode(&input);
    let us = |ns: f64| round(ns / 1e3, 2);
    // 4096 queries is the many-block row of the blocked decode (64 queries a
    // block): its points/s against the 64-query row is what blocking holds.
    // 16384 is a `super_resolve` patch and a half: what the split holds.
    let rows: Vec<DecodeRow> = [1usize, 8, 64, 512, 4096, 16384]
        .into_iter()
        .map(|q| {
            let queries = bench_queries(q);
            let (median_ns, best_ns, alloc_bytes_per_call) = time_samples(iters, || {
                std::hint::black_box(frozen.decode_values(&latent, queries.iter().copied()));
            });
            let mut stage = [f64::MAX; 6];
            for _ in 0..iters {
                let mut s = DecodeStages::default();
                let points = queries.iter().copied();
                std::hint::black_box(frozen.decode_values_staged(&latent, points, Some(&mut s)));
                let l = s.layers;
                let now =
                    [s.plan_ns, s.gather_ns, l.pack_b_ns, l.micro_ns, l.epilogue_ns, s.blend_ns];
                for (best, now) in stage.iter_mut().zip(now) {
                    *best = best.min(now);
                }
            }
            DecodeRow {
                queries: q,
                workers: decode_workers(q),
                median_ns: whole(median_ns),
                best_ns: whole(best_ns),
                points_per_s: whole(q as f64 * 1e9 / best_ns),
                alloc_bytes_per_call,
                plan_us: us(stage[0]),
                gather_us: us(stage[1]),
                pack_b_us: us(stage[2]),
                micro_us: us(stage[3]),
                epilogue_us: us(stage[4]),
                blend_us: us(stage[5]),
            }
        })
        .collect();
    let two_core = |q: usize| {
        let queries = bench_queries(q);
        let points = || queries.iter().copied();
        let mut one = || {
            std::hint::black_box(frozen.decode_values_on(1, &latent, points()));
        };
        let mut default = || {
            std::hint::black_box(frozen.decode_values(&latent, points()));
        };
        let t = time_interleaved(iters, &mut [&mut one, &mut default]);
        TwoCoreRow {
            workers: decode_workers(q),
            one_worker_best_ns: whole(t[0].1),
            best_ns: whole(t[1].1),
            speedup: round(t[0].1 / t[1].1, 3),
        }
    };
    DecodeValues {
        encode_median_ns: whole(encode_ns),
        encode_to_1query_decode_ratio: round(encode_ns / rows[0].median_ns as f64, 1),
        rows,
        two_core_speedup: TwoCoreSpeedup {
            available_parallelism: std::thread::available_parallelism().map_or(1, usize::from),
            q4096: two_core(4096),
            q16384: two_core(16384),
        },
        gemm_stage,
    }
}

/// Queries of the `tape_decoder` row: with eight vertices and six lanes
/// apiece, 49 152 GEMM rows — the size of a benchmark training step's decode.
const TAPE_QUERIES: usize = 1024;

/// The decoder on the tape as a training step with `γ > 0` runs it: times in
/// ms (minima unless the key says median), executed GEMM-GFLOP/s of forward
/// and backward, the equation loss against the one-lane decode `γ = 0` pays,
/// and every MLP layer on its own.
#[derive(Serialize, Deserialize)]
struct TapeDecoder {
    queries: usize,
    lanes: usize,
    rows: usize,
    forward_ms: f64,
    forward_median_ms: f64,
    forward_gflops: f64,
    forward_vs_gemm_nn: f64,
    backward_ms: f64,
    backward_median_ms: f64,
    backward_gflops: f64,
    backward_vs_gemm_nn: f64,
    eq_loss_ms: f64,
    one_lane_ms: f64,
    eq_loss_vs_one_lane: f64,
    layers: Vec<TapeLayer>,
}

/// One MLP layer's node on a tape of its own (minima, ms), its input and
/// weight leaves and its output's adjoint given (`Graph::backward_with`):
/// `backward_ms` with both leaves, `grad_input_ms` with only the input a
/// gradient leaf (`dx`), `grad_weight_ms` with only the weight (`dW`; v13
/// reports, which lack the two, read zero) and `dW`'s `conv3d_grad_weight`
/// by stage (v15 reports read zero). GFLOP/s count the GEMMs it
/// executes: `gemm_rows` is the column count of the one-lane input of the
/// seeded first layer (`Graph::linear_seeded`) and of all six lanes after
/// it, and backward runs two (`dx`, `dW`) for each forward one.
#[derive(Serialize, Deserialize)]
struct TapeLayer {
    in_features: usize,
    out_features: usize,
    gemm_rows: usize,
    forward_ms: f64,
    backward_ms: f64,
    #[serde(default)]
    grad_input_ms: f64,
    #[serde(default)]
    grad_weight_ms: f64,
    #[serde(default)]
    grad_weight_stages: GradWeightStages,
    forward_gflops: f64,
    backward_gflops: f64,
}

/// Times the decoder pass of a training step on the tape:
/// `ContinuousDecoder::decode_derivs` of [`TAPE_QUERIES`] points (gather,
/// the seeded first layer and a six-lane Linear node per layer after it,
/// blend) with the latent and the weights as gradient leaves, then
/// `Graph::backward` from the mean of the output — and, interleaved with it,
/// the same tape reduced through the equation loss instead, and the one-lane
/// `decode` of the same points; then each layer alone
/// ([`bench_tape_layers`]). The model of the `decode_values` rows.
fn bench_tape_decoder(iters: usize, gemm_nn_gflops: f64) -> TapeDecoder {
    let cfg = bench_decoder_config();
    let in_channels = cfg.in_channels;
    let model = MeshfreeFlowNet::new(cfg);
    let mut rng = ChaCha8Rng::seed_from_u64(21);
    let latent = model.encode(&Tensor::randn(&[1, in_channels, 4, 4, 4], 1.0, &mut rng));
    let grid = model.grid_dims();
    let plan = plan_queries(grid, bench_queries(TAPE_QUERIES));
    let (dec, store) = (&model.decoder, &model.store);
    let layers = bench_tape_layers(iters, &model, &latent, &plan);
    // Executed GEMM FLOPs of one forward pass (backward runs two GEMMs, `dx`
    // and `dW`, for each forward one).
    let forward_flops: f64 =
        layers.iter().map(|l| 2.0 * (l.gemm_rows * l.in_features * l.out_features) as f64).sum();
    let lanes = |g: &mut Graph, l: Var| dec.decode_derivs(g, store, l, &plan, grid, [1.0; 3]);
    let stats = ChannelStats { mean: [0.0; 4], std: [1.0; 4] };
    let params = RbcParams::from_ra_pr(1e5, 1.0);
    type Record<'a> = &'a dyn Fn(&mut Graph, Var) -> Var;
    let arms: [Record; 3] = [
        &|g, l| {
            let out = lanes(g, l);
            g.mean(out)
        },
        &|g, l| {
            let out = lanes(g, l);
            equation_loss(g, out, params, stats, ConstraintSet::ALL).0
        },
        &|g, l| {
            let out = dec.decode(g, store, l, &plan);
            g.mean(out)
        },
    ];
    // Per arm: forward, backward and total samples.
    let mut samples = [(); 3].map(|_| [(); 3].map(|_| Vec::with_capacity(iters)));
    // One untimed pass first: workspace pool, icache.
    for i in 0..=iters {
        for (record, [fwd, bwd, total]) in arms.iter().zip(&mut samples) {
            let t = Instant::now();
            let mut g = Graph::new();
            let l = g.leaf_with_grad(latent.clone());
            let loss = record(&mut g, l);
            let forward_ns = t.elapsed().as_nanos() as f64;
            g.backward(loss);
            let total_ns = t.elapsed().as_nanos() as f64;
            std::hint::black_box(g.grad(l));
            if i > 0 {
                fwd.push(forward_ns);
                bwd.push(total_ns - forward_ns);
                total.push(total_ns);
            }
        }
    }
    let [[fwd, bwd, _], [_, _, eq], [_, _, one]] = samples.map(|arm| arm.map(median_and_best));
    let ms = |ns: f64| round(ns / 1e6, 3);
    let (fwd_gflops, bwd_gflops) = (forward_flops / fwd.1, 2.0 * forward_flops / bwd.1);
    TapeDecoder {
        queries: TAPE_QUERIES,
        lanes: JET_LANES,
        rows: TAPE_QUERIES * 8 * JET_LANES,
        forward_ms: ms(fwd.1),
        forward_median_ms: ms(fwd.0),
        forward_gflops: round(fwd_gflops, 2),
        forward_vs_gemm_nn: round(fwd_gflops / gemm_nn_gflops, 3),
        backward_ms: ms(bwd.1),
        backward_median_ms: ms(bwd.0),
        backward_gflops: round(bwd_gflops, 2),
        backward_vs_gemm_nn: round(bwd_gflops / gemm_nn_gflops, 3),
        eq_loss_ms: ms(eq.1),
        one_lane_ms: ms(one.1),
        eq_loss_vs_one_lane: round(eq.1 / one.1, 3),
        layers,
    }
}

/// The [`TapeLayer`] rows of [`bench_tape_decoder`]'s pass: the MLP input
/// `decode_derivs` builds (relative coordinates over the gathered latent
/// vectors, feature-major), then layer by layer the node the pass records on
/// the previous layer's output, forward and backward timed apart, `iters`
/// times after one untimed pass — and the backward twice more, with the
/// input alone and the weight alone a gradient leaf.
fn bench_tape_layers(
    iters: usize,
    model: &MeshfreeFlowNet,
    latent: &Tensor,
    plan: &QueryPlan,
) -> Vec<TapeLayer> {
    let (mlp, store, grid) = (&model.decoder.mlp, &model.store, model.grid_dims());
    let n = plan.index.len();
    let mut g = Graph::new();
    let l = g.constant(latent.clone());
    let inp = g.gather_vertices(l, plan.index.clone(), &plan.rel);
    let mut x = g.value(inp).clone();
    // `decode_derivs`' seed at the unit extent the pass is timed at.
    let seed = grid.map(|v| (v - 1) as f32);
    let last = mlp.layers.len() - 1;
    let ms = |ns: f64| round(ns / 1e6, 3);
    mlp.layers
        .iter()
        .enumerate()
        .map(|(i, layer)| {
            let act = if i == last { Activation::Linear } else { mlp.activation };
            // Forward, then backward with those of [x, w, b] that ask as
            // gradient leaves.
            let pass = |leaves: [bool; 3]| {
                let mut g = Graph::new();
                let mut leaf = |t: &Tensor, asks: bool| {
                    if asks {
                        g.leaf_with_grad(t.clone())
                    } else {
                        g.constant(t.clone())
                    }
                };
                let (xv, w, b) = (
                    leaf(&x, leaves[0]),
                    leaf(store.get(layer.weight), leaves[1]),
                    leaf(store.get(layer.bias), leaves[2]),
                );
                let t = Instant::now();
                let y = if i == 0 {
                    g.linear_seeded(xv, w, b, act, seed)
                } else {
                    g.linear(xv, w, b, act, JET_LANES)
                };
                let forward_ns = t.elapsed().as_nanos() as f64;
                let adjoint = Tensor::ones(g.value(y).dims());
                let t = Instant::now();
                g.backward_with(y, adjoint);
                let backward_ns = t.elapsed().as_nanos() as f64;
                std::hint::black_box((g.try_grad(xv), g.try_grad(w), g.try_grad(b)));
                (forward_ns, backward_ns, g.value(y).clone())
            };
            let (mut fwd, mut bwd, mut dx, mut dw) = (f64::MAX, f64::MAX, f64::MAX, f64::MAX);
            let mut out = None;
            for _ in 0..=iters {
                let (forward_ns, backward_ns, y) = pass([true; 3]);
                let (_, dx_ns, _) = pass([true, false, false]);
                let (_, dw_ns, _) = pass([false, true, false]);
                // The first pass is the untimed one.
                if out.is_some() {
                    (fwd, bwd) = (fwd.min(forward_ns), bwd.min(backward_ns));
                    (dx, dw) = (dx.min(dx_ns), dw.min(dw_ns));
                }
                out = Some(y);
            }
            let gemm_rows = if i == 0 { n } else { n * JET_LANES };
            let (cin, cout) = (layer.in_features, layer.out_features);
            let dims = Conv3dDims { n: 1, cin, cout, spatial: [1, 1, gemm_rows], kernel: [1; 3] };
            let dz = vec![1.0f32; cout * gemm_rows];
            let grad_weight_stages = grad_weight_stages(iters, x.data(), &dz, dims);
            x = out.expect("at least one pass");
            let flops = 2.0 * (gemm_rows * layer.in_features * layer.out_features) as f64;
            TapeLayer {
                in_features: layer.in_features,
                out_features: layer.out_features,
                gemm_rows,
                forward_ms: ms(fwd),
                backward_ms: ms(bwd),
                grad_input_ms: ms(dx),
                grad_weight_ms: ms(dw),
                grad_weight_stages,
                forward_gflops: round(flops / fwd, 2),
                backward_gflops: round(2.0 * flops / bwd, 2),
            }
        })
        .collect()
}

/// The activation kernel as a slice and as the decoder's feature-major
/// epilogue (`bias_softplus_features` on `[128, 512]`, a full decode block's
/// rows, and on the same elements as `[8192, 8]`, one query's rows).
#[derive(Serialize, Deserialize)]
struct Softplus {
    elements: usize,
    median_ns: u64,
    best_ns: u64,
    ns_per_element: f64,
    features_512_ns_per_element: f64,
    features_8_ns_per_element: f64,
}

/// The activation's derivative; `ratio_vs_softplus` is the gated cost ratio.
#[derive(Serialize, Deserialize)]
struct SoftplusGrad {
    elements: usize,
    median_ns: u64,
    best_ns: u64,
    ns_per_element: f64,
    ratio_vs_softplus: f64,
}

/// The activation kernels on their own, over 64K elements (one decode
/// block's hidden activations twice over): `rowops::softplus_slice` in place
/// (re-applying it to its own output times the same work),
/// `rowops::softplus_grad_slice`, the tape's backward for it, and
/// `rowops::bias_softplus_features`, the no-grad decoder's epilogue (one
/// bias per contiguous row), on rows of a full block and of one query.
/// Interleaved, because the derivative's quotient is gated and the
/// feature-major form is held to the slice's per-element cost. All are
/// branch-free, so the values matter in one way only: `σ(|x|) ≥ ½` keeps the
/// products of a unit adjoint clear of the subnormal range, whose slow path
/// is not what is measured, for more calls than any run makes.
fn bench_softplus(iters: usize) -> (Softplus, SoftplusGrad) {
    let n = 64 * 1024;
    let mut x = vec![0.0f32; n];
    lcg_fill(&mut x, 31);
    let z: Vec<f32> = x.iter().map(|v| v.abs()).collect();
    let mut g = vec![1.0f32; n];
    let (mut f512, mut f8) = (x.clone(), x.clone());
    let mut bias = vec![0.0f32; n / 8];
    lcg_fill(&mut bias, 32);
    let t = time_interleaved(
        iters,
        &mut [
            &mut || rowops::softplus_slice(std::hint::black_box(&mut x)),
            &mut || {
                rowops::softplus_grad_slice(std::hint::black_box(&mut g), std::hint::black_box(&z))
            },
            &mut || rowops::bias_softplus_features(std::hint::black_box(&mut f512), &bias[..128]),
            &mut || rowops::bias_softplus_features(std::hint::black_box(&mut f8), &bias),
        ],
    );
    let per = |ns: f64| round(ns / n as f64, 3);
    let softplus = Softplus {
        elements: n,
        median_ns: whole(t[0].0),
        best_ns: whole(t[0].1),
        ns_per_element: per(t[0].1),
        features_512_ns_per_element: per(t[2].1),
        features_8_ns_per_element: per(t[3].1),
    };
    let grad = SoftplusGrad {
        elements: n,
        median_ns: whole(t[1].0),
        best_ns: whole(t[1].1),
        ns_per_element: per(t[1].1),
        ratio_vs_softplus: round(t[1].1 / t[0].1, 3),
    };
    (softplus, grad)
}

/// The tiny training problem used for the one-train-step benchmark.
fn train_fixture() -> (Corpus, Trainer) {
    let sim =
        simulate(&RbcConfig { nx: 16, nz: 9, ra: 1e5, dt_max: 2e-3, ..Default::default() }, 0.1, 9);
    let hr = Dataset::from_simulation(&sim);
    let lr = downsample(&hr, 2, 2);
    let corpus = Corpus::new(vec![(hr, lr)]);
    let mut cfg = MfnConfig::small();
    cfg.patch = PatchSpec { nt: 4, nz: 4, nx: 4, queries: 32 };
    cfg.base_channels = 4;
    cfg.latent_channels = 8;
    cfg.mlp_hidden = vec![32, 32];
    cfg.levels = 2;
    let trainer = Trainer::new(
        MeshfreeFlowNet::new(cfg),
        TrainConfig { batch_size: 4, ..Default::default() },
    );
    (corpus, trainer)
}

/// What the workspace pool saves one full training step: its heap traffic
/// with the pool on and off. Not its time: the pool's speed verdict is the
/// end-to-end `train` workload (DESIGN §9, "Workspace pool"), where turning
/// it off halves throughput; two sides timed one after the other here share
/// no machine state and read the opposite.
#[derive(Serialize, Deserialize)]
struct TrainStep {
    pool_on: TrainSide,
    pool_off: TrainSide,
    alloc_drop_ratio: f64,
}

/// One side of the pool on/off A/B: heap traffic of one step after a
/// warm-up step, and the pool's counters over that step.
#[derive(Serialize, Deserialize)]
struct TrainSide {
    alloc_bytes: u64,
    alloc_calls: u64,
    pool_hits: u64,
    pool_misses: u64,
}

/// Counts one full gradient step (forward + backward + Adam), after a
/// warm-up step, with the workspace pool in the given state.
fn bench_train_step(pool_on: bool) -> TrainSide {
    let (corpus, mut trainer) = train_fixture();
    let (hr, lr) = &corpus.pairs[0];
    let sampler = PatchSampler::new(hr, lr, trainer.model.cfg.patch);
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let batch = make_batch(&sampler, 4, &mut rng);
    workspace::set_enabled(pool_on);
    trainer.step(&batch, corpus.params(0), corpus.stats); // warm up
    workspace::reset_stats();
    let (bytes, calls) = (&counting_alloc::BYTES, &counting_alloc::CALLS);
    let (b0, c0) = (bytes.load(Relaxed), calls.load(Relaxed));
    trainer.step(&batch, corpus.params(0), corpus.stats);
    let (alloc_bytes, alloc_calls) = (bytes.load(Relaxed) - b0, calls.load(Relaxed) - c0);
    let s = workspace::stats();
    workspace::set_enabled(true); // leave the process in the default state
    TrainSide { alloc_bytes, alloc_calls, pool_hits: s.hits, pool_misses: s.misses }
}

/// `--gate` margin: each speedup must hold at least this fraction of the
/// baseline's; each cost ratio may rise to the baseline's divided by it.
const GATE_FRACTION: f64 = 0.85;

/// Where a report keeps a gated ratio.
type GateRead = fn(&KernelsReport) -> f64;

/// The ratios `--gate` holds, in the order [`run_gate`] checks them: what
/// each is, `true` for a speedup (a floor) or `false` for a cost (a
/// ceiling), and where a report keeps it. Each is a quotient of two
/// interleaved minima, so the machine's absolute speed divides out.
const GATE_LEGS: [(&str, bool, GateRead); 5] = [
    ("driver/naive", true, |r| r.gemm_speedup_vs_naive),
    ("conv3d/gemm_nn", true, |r| r.conv3d.implicit_vs_gemm_nn),
    ("conv3d grad_weight/gemm_nn", true, |r| r.conv3d.implicit_grad_weight_vs_gemm_nn),
    ("softplus derivative/softplus cost", false, |r| r.softplus_grad.ratio_vs_softplus),
    ("equation loss/one-lane decode cost", false, |r| r.tape_decoder.eq_loss_vs_one_lane),
];

/// Holds this run's [`GATE_LEGS`] against a committed baseline report of
/// the same mode: a codegen or blocking regression fails, a slow CI host
/// does not. A shared VM can lose 30–40% of a single measurement window to steal
/// time, and the loss hits numerator and denominator unevenly — so a ratio
/// past its bound is re-measured in up to two fresh windows
/// (`remeasure(leg)`, `leg` indexing [`GATE_LEGS`]) and the gate keeps its
/// best window before declaring a regression. A real codegen regression is
/// past the bound in every window; a noise burst is not.
fn run_gate(
    base: &KernelsReport,
    now: &KernelsReport,
    mut remeasure: impl FnMut(usize) -> f64,
) -> Result<(), String> {
    if base.mode != now.mode {
        return Err(format!(
            "the baseline is a {:?} report and this run is {:?}: its ratios were measured at \
             other sizes, so they gate nothing",
            base.mode, now.mode
        ));
    }
    for (leg, (what, floor, read)) in GATE_LEGS.into_iter().enumerate() {
        let was = read(base);
        let (bound, side) =
            if floor { (was * GATE_FRACTION, "floor") } else { (was / GATE_FRACTION, "ceiling") };
        let mut value = read(now);
        for window in 1..=3 {
            eprintln!("[gate] {what}: now {value:.3}x vs baseline {was:.3}x ({side} {bound:.3}x)");
            if (floor && value >= bound) || (!floor && value <= bound) {
                break;
            }
            if window == 3 {
                return Err(format!(
                    "{what} {value:.3}x stayed past its {side} {bound:.3}x (baseline {was:.3}x, \
                     margin {GATE_FRACTION}) across 3 measurement windows"
                ));
            }
            eprintln!("[gate] past the {side}; re-measuring in a fresh window ...");
            // Let a scheduler/steal burst drain before the next window.
            std::thread::sleep(std::time::Duration::from_millis(500));
            let again = remeasure(leg);
            value = if floor { value.max(again) } else { value.min(again) };
        }
    }
    Ok(())
}

/// Rows of one full block of the no-grad decode (64 queries × 8 vertices).
const DECODE_BLOCK_ROWS: usize = 512;

/// The operands of the two gated kernel ratios — the driver's vs the naive
/// GEMM at `size`³, and the implicit-GEMM conv3d on a training-shaped 3×3×3
/// layer vs the driver's GEMM — and of the decoder's GEMM stage, and the one
/// loop that times them.
struct GatedKernels {
    size: usize,
    a: Vec<f32>,
    b: Vec<f32>,
    c_nn: Vec<f32>,
    c_naive: Vec<f32>,
    /// Conv input `[n, c, d, h, w]`, the gated 3×3×3 weight and its
    /// pointwise twin (same channels, 1×1×1), output gradient.
    cinput: Tensor,
    cweight: Tensor,
    pweight: Tensor,
    cgout: Tensor,
    /// The bench decoder's layers as the no-grad decode holds them (weight
    /// panels packed once) with its widths, a feature-major input block and
    /// the two buffers layer outputs ping-pong between: the GEMM stage of one
    /// block, B-pack and micro-kernel, nothing else.
    mlp: Vec<PackedConv3d>,
    widths: Vec<usize>,
    mlp_in: Vec<f32>,
    mlp_bufs: [Vec<f32>; 2],
}

impl GatedKernels {
    fn new(quick: bool) -> Self {
        let size = if quick { 128 } else { 256 };
        let (mut a, mut b) = (vec![0.0f32; size * size], vec![0.0f32; size * size]);
        lcg_fill(&mut a, 1);
        lcg_fill(&mut b, 2);
        let (cn, ch, cs) = if quick { (2, 8, [4usize, 8, 8]) } else { (4, 16, [4, 16, 16]) };
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let widths = bench_decoder_config().mlp_widths();
        let mlp: Vec<PackedConv3d> = widths
            .windows(2)
            .map(|w| {
                let weight = Tensor::randn(&[w[1], w[0]], (1.0 / w[0] as f32).sqrt(), &mut rng);
                PackedConv3d::pack_linear(weight.data(), w[1], w[0])
            })
            .collect();
        let widest = widths.iter().copied().max().expect("decoder widths");
        let mut mlp_in = vec![0.0f32; DECODE_BLOCK_ROWS * widths[0]];
        lcg_fill(&mut mlp_in, 3);
        GatedKernels {
            size,
            a,
            b,
            c_nn: vec![0.0f32; size * size],
            c_naive: vec![0.0f32; size * size],
            cinput: Tensor::randn(&[cn, ch, cs[0], cs[1], cs[2]], 1.0, &mut rng),
            cweight: Tensor::randn(&[ch, ch, 3, 3, 3], 1.0, &mut rng),
            pweight: Tensor::randn(&[ch, ch, 1, 1, 1], 1.0, &mut rng),
            cgout: Tensor::randn(&[cn, ch, cs[0], cs[1], cs[2]], 1.0, &mut rng),
            mlp,
            widths,
            mlp_in,
            mlp_bufs: [(); 2].map(|_| vec![0.0f32; DECODE_BLOCK_ROWS * widest]),
        }
    }

    /// GEMM FLOPs of the decoder layers over one block.
    fn decode_flops(&self) -> f64 {
        let macs: usize = self.widths.windows(2).map(|w| w[0] * w[1]).sum();
        2.0 * (DECODE_BLOCK_ROWS * macs) as f64
    }

    /// FLOPs of one conv pass (forward or either gradient) with `weight`.
    fn conv_flops(&self, weight: &Tensor) -> f64 {
        let voxels = self.cinput.numel() / self.cinput.dims()[1];
        2.0 * (voxels * weight.numel()) as f64
    }

    /// `[gemm_nn, gemm_naive, conv forward, grad-input, grad-weight, decoder
    /// GEMMs]` (the conv with the 3×3×3 weight, or its pointwise twin), each
    /// `(median_ns, best_ns, alloc bytes per call)`, timed interleaved in one
    /// loop: both gated ratios and `decode_vs_gemm_nn` divide rows of this
    /// loop, so numerator and denominator share the host's steal phases.
    fn time(&mut self, iters: usize, pointwise: bool) -> Vec<(f64, f64, u64)> {
        let (size, a, b) = (self.size, &self.a, &self.b);
        let (c_nn, c_naive) = (&mut self.c_nn, &mut self.c_naive);
        let w = if pointwise { &self.pweight } else { &self.cweight };
        let (x, g) = (&self.cinput, &self.cgout);
        let dims = Conv3dDims::infer(x, w);
        let (mlp, widths, mlp_in) = (&self.mlp, &self.widths, &self.mlp_in);
        let [mlp_x, mlp_y] = &mut self.mlp_bufs;
        let mut fs: [&mut dyn FnMut(); 6] = [
            &mut || driver_gemm(size, size, size, a, b, c_nn),
            &mut || naive_ikj(size, size, size, a, b, c_naive),
            &mut || {
                std::hint::black_box(conv3d_auto(x, w));
            },
            &mut || {
                std::hint::black_box(conv3d_grad_input(g.data(), w.data(), dims));
            },
            &mut || {
                std::hint::black_box(conv3d_grad_weight(x.data(), g.data(), dims, None));
            },
            &mut || {
                let (mut cur, mut next) = (&mut *mlp_x, &mut *mlp_y);
                let mut input: &[f32] = mlp_in;
                for (layer, w) in mlp.iter().zip(widths.windows(2)) {
                    let rows = [1, 1, DECODE_BLOCK_ROWS];
                    let out = &mut next[..w[1] * DECODE_BLOCK_ROWS];
                    layer.forward_slices(&input[..w[0] * DECODE_BLOCK_ROWS], rows, out, None);
                    std::mem::swap(&mut cur, &mut next);
                    input = cur;
                }
                std::hint::black_box(input);
            },
        ];
        let bytes: Vec<u64> = fs.iter_mut().map(bytes_per_call).collect();
        let timings = time_interleaved(iters, &mut fs);
        timings.into_iter().zip(bytes).map(|((median, best), b)| (median, best, b)).collect()
    }

    /// `[driver/naive GEMM, conv3d GFLOP/s / driver GEMM GFLOP/s, conv3d
    /// weight gradient GFLOP/s / driver GEMM GFLOP/s]` of one
    /// [`GatedKernels::time`] result — the three speedups `--gate` holds, in
    /// [`GATE_LEGS`] order.
    fn ratios(&self, t: &[(f64, f64, u64)]) -> [f64; 3] {
        let gemm_rate = gemm_gflops(self.size, self.size, self.size, t[0].1);
        let conv_flops = self.conv_flops(&self.cweight);
        [t[1].1 / t[0].1, conv_flops / t[2].1 / gemm_rate, conv_flops / t[4].1 / gemm_rate]
    }
}

/// Prints `[bench] FAIL: {msg}` and exits 1.
fn fail(msg: &str) -> ! {
    eprintln!("[bench] FAIL: {msg}");
    std::process::exit(1)
}

fn main() {
    let (mut quick, mut oracle, mut gate_path) = (false, false, None::<String>);
    let mut out_path = String::from("BENCH_kernels.json");
    let mut cli = Cli::new(USAGE);
    while let Some(flag) = cli.next_flag() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--oracle" => oracle = true,
            "--gate" => gate_path = Some(cli.value(&flag)),
            "--out" => out_path = cli.value(&flag),
            other => cli.fail(&format!("unknown option {other}")),
        }
    }

    // Parse the gate baseline up front: fails fast on a bad path or a file
    // that is not a report, and stays correct when --gate and --out name the
    // same file (CI gates against the committed report, then overwrites it
    // with this run's).
    let baseline = gate_path.map(|path| {
        let parsed = std::fs::read_to_string(&path).map_err(|e| e.to_string()).and_then(|text| {
            serde_json::from_str::<KernelsReport>(&text).map_err(|e| e.to_string())
        });
        let report = parsed.unwrap_or_else(|e| fail(&format!("gate baseline {path}: {e}")));
        (path, report)
    });

    // ---- Differential oracle gate (--oracle): every optimized kernel vs
    // its scalar f64 reference twin, before any number is trusted ---------
    if oracle {
        eprintln!("[bench] running differential oracle (mfn-reftest) ...");
        let reports = mfn_reftest::run_all();
        for r in &reports {
            eprintln!("[oracle] {r}");
        }
        if !mfn_reftest::all_passed(&reports) {
            fail("kernels diverged from reference; timings would be meaningless");
        }
    }

    // ---- Correctness gates (always, before any timing) -----------------
    eprintln!(
        "[bench] checking the driver's GEMM vs naive reference and conv3d vs its definition ..."
    );
    if let Err(e) = check_gemm_vs_naive().and_then(|()| check_conv3d_vs_definition()) {
        fail(&e);
    }

    // ---- Kernel benchmarks ---------------------------------------------
    // Full mode samples the cheap gemm/conv sections hard (each call is
    // 0.2-1.5 ms, so 75 iterations still costs well under a second) because
    // the minimum estimator needs at least one call inside a hypervisor
    // quiet window; the expensive decode rows keep a smaller count.
    let iters = if quick { 11 } else { 75 };
    let decode_iters = if quick { 11 } else { 25 };
    let mut gated = GatedKernels::new(quick);
    let size = gated.size;
    eprintln!("[bench] timing GEMM at {size}^3, conv3d and decoder GEMMs ({iters} iters each) ...");
    let t = gated.time(iters, false);
    let [speedup, conv_vs_gemm, grad_weight_vs_gemm] = gated.ratios(&t);
    if !quick && speedup < 2.0 {
        fail(&format!("driver GEMM speedup {speedup:.2}x < required 2x at {size}^3"));
    }
    let gemm_nn = gemm_gflops(size, size, size, t[0].1);
    let gemm =
        vec![GemmRow::new("gemm_nn", size, t[0]), GemmRow::new("gemm_naive_ikj", size, t[1])];
    let (flops, pw_flops) = (gated.conv_flops(&gated.cweight), gated.conv_flops(&gated.pweight));
    let pw = gated.time(iters, true);
    let x = gated.cinput.dims();
    let (cinput, cgout) = (&gated.cinput, &gated.cgout);
    let dw_stages = |w: &Tensor| {
        grad_weight_stages(iters, cinput.data(), cgout.data(), Conv3dDims::infer(cinput, w))
    };
    let conv3d = Conv3d {
        shape: ConvShape {
            n: x[0],
            cin: x[1],
            cout: gated.cweight.dims()[0],
            spatial: [x[2], x[3], x[4]],
            kernel: [3, 3, 3],
        },
        implicit_gemm: KernelRow::new(flops, t[2]),
        implicit_grad_input: KernelRow::new(flops, t[3]),
        implicit_grad_weight: KernelRow::new(flops, t[4]),
        implicit_grad_weight_stages: dw_stages(&gated.cweight),
        pointwise: PointwiseConv {
            kernel: [1, 1, 1],
            implicit_gemm: KernelRow::new(pw_flops, pw[2]),
            implicit_grad_input: KernelRow::new(pw_flops, pw[3]),
            implicit_grad_weight: KernelRow::new(pw_flops, pw[4]),
            implicit_grad_weight_stages: dw_stages(&gated.pweight),
        },
        implicit_vs_gemm_nn: round(conv_vs_gemm, 3),
        implicit_grad_weight_vs_gemm_nn: round(grad_weight_vs_gemm, 3),
    };
    let stage_gflops = gated.decode_flops() / t[5].1;
    let gemm_stage = GemmStage {
        rows: DECODE_BLOCK_ROWS,
        median_ns: whole(t[5].0),
        best_ns: whole(t[5].1),
        alloc_bytes_per_call: t[5].2,
        decode_gemm_gflops: round(stage_gflops, 2),
        decode_vs_gemm_nn: round(stage_gflops / gemm_nn, 3),
    };

    eprintln!("[bench] attributing one U-Net encode ({iters} iters/layer) ...");
    let unet_encode = bench_unet_encode(iters, gemm_nn);

    eprintln!("[bench] timing frozen encode + decode_values ({decode_iters} iters/size) ...");
    let decode_values = bench_decode(decode_iters, gemm_stage);

    eprintln!("[bench] timing softplus and its derivative ({iters} iters) ...");
    let (softplus, softplus_grad) = bench_softplus(iters);

    // ---- The decoder on the tape: the link between the kernel rows above
    // and the training step below ----------------------------------------
    eprintln!("[bench] timing the decoder on the tape ({decode_iters} iters) ...");
    let tape_decoder = bench_tape_decoder(decode_iters, gemm_nn);

    eprintln!("[bench] counting one training step's allocations, pool on then off ...");
    let (pool_on, pool_off) = (bench_train_step(true), bench_train_step(false));
    let alloc_drop = 1.0 - pool_on.alloc_bytes as f64 / pool_off.alloc_bytes.max(1) as f64;

    let report = KernelsReport {
        schema: SCHEMA.to_string(),
        mode: if quick { "quick" } else { "full" }.to_string(),
        checks: Checks { gemm_vs_naive: "ok".to_string(), conv3d_vs_definition: "ok".to_string() },
        gemm,
        gemm_speedup_vs_naive: round(speedup, 3),
        conv3d,
        unet_encode,
        decode_values,
        softplus,
        softplus_grad,
        tape_decoder,
        train_step: TrainStep { pool_on, pool_off, alloc_drop_ratio: round(alloc_drop, 4) },
    };
    let json = serde_json::to_string_pretty(&report).expect("a report serializes");
    std::fs::write(&out_path, &json).expect("write bench report");
    eprintln!("[bench] wrote {out_path}");
    println!("{json}");

    // ---- Regression gate (--gate): ratios vs the committed baseline,
    // after the fresh report is on disk for forensics --------------------
    if let Some((path, base)) = baseline {
        // Re-measure in the loop the report rows came from: each ratio's
        // numerator and denominator must share steal phases or the retry
        // windows inherit the very noise they exist to reject.
        let remeasure = |leg: usize| match leg {
            0..=2 => {
                let t = gated.time(iters, false);
                gated.ratios(&t)[leg]
            }
            3 => bench_softplus(iters).1.ratio_vs_softplus,
            _ => bench_tape_decoder(decode_iters, gemm_nn).eq_loss_vs_one_lane,
        };
        if let Err(e) = run_gate(&base, &report, remeasure) {
            fail(&e);
        }
        eprintln!("[bench] gate vs {path}: ok");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed report: the schema and the type must agree.
    const COMMITTED: &str = include_str!("../../../../BENCH_kernels.json");

    fn committed() -> KernelsReport {
        serde_json::from_str(COMMITTED).expect("BENCH_kernels.json parses as a KernelsReport")
    }

    /// The committed report with its mode and its [`GATE_LEGS`] ratios set.
    fn synthesized(mode: &str, [gemm, conv, dw, softplus, eq]: [f64; 5]) -> KernelsReport {
        let mut r = committed();
        r.mode = mode.to_string();
        r.gemm_speedup_vs_naive = gemm;
        r.conv3d.implicit_vs_gemm_nn = conv;
        r.conv3d.implicit_grad_weight_vs_gemm_nn = dw;
        r.softplus_grad.ratio_vs_softplus = softplus;
        r.tape_decoder.eq_loss_vs_one_lane = eq;
        r
    }

    #[test]
    fn committed_report_parses_and_round_trips() {
        assert_eq!(committed().schema, SCHEMA);
        let report = synthesized("quick", [3.25, 0.5, 0.375, 0.75, 4.5]);
        let text = serde_json::to_string_pretty(&report).expect("serializes");
        let back: KernelsReport = serde_json::from_str(&text).expect("parses back");
        assert_eq!(serde_json::to_string_pretty(&back).expect("serializes"), text);
        assert_eq!((back.mode.as_str(), back.softplus_grad.ratio_vs_softplus), ("quick", 0.75));
        // A key the type does not know (v11's `sampling`) is skipped.
        let extra = COMMITTED.replacen('{', r#"{"sampling": {"adaptive_overhead": 6.187},"#, 1);
        serde_json::from_str::<KernelsReport>(&extra).expect("an unknown key is ignored");
    }

    #[test]
    fn gate_holds_floors_and_ceilings() {
        let base = synthesized("full", [5.0, 0.7, 0.4, 0.5, 4.6]);
        let within = synthesized("full", [4.3, 0.6, 0.35, 0.55, 5.2]);
        assert_eq!(run_gate(&base, &within, |_| unreachable!("nothing to re-measure")), Ok(()));
        // A first window under the floor that a fresh one clears passes.
        let noisy = synthesized("full", [3.0, 0.7, 0.4, 0.5, 4.6]);
        assert_eq!(run_gate(&base, &noisy, |_| 4.5), Ok(()));
        let slow = synthesized("full", [5.0, 0.5, 0.4, 0.5, 4.6]);
        let err = run_gate(&base, &slow, |_| 0.55).expect_err("conv3d below its floor");
        assert!(err.starts_with("conv3d/gemm_nn 0.550x stayed past its floor"), "{err}");
        // A pack regression: the weight gradient alone falls behind.
        let slow_dw = synthesized("full", [5.0, 0.7, 0.25, 0.5, 4.6]);
        let err = run_gate(&base, &slow_dw, |_| 0.3).expect_err("grad_weight below its floor");
        assert!(err.starts_with("conv3d grad_weight/gemm_nn 0.300x stayed past"), "{err}");
        let costlier = synthesized("full", [5.0, 0.7, 0.4, 0.6, 4.6]);
        let err = run_gate(&base, &costlier, |_| 0.7).expect_err("softplus above its ceiling");
        assert!(err.starts_with("softplus derivative/softplus cost 0.600x stayed past"), "{err}");
        // Six lanes at the dense first layer's cost again.
        let dense = synthesized("full", [5.0, 0.7, 0.4, 0.5, 5.9]);
        let err = run_gate(&base, &dense, |_| 5.8).expect_err("equation loss above its ceiling");
        assert!(err.starts_with("equation loss/one-lane decode cost 5.800x stayed past"), "{err}");
    }

    #[test]
    fn gate_refuses_a_baseline_of_the_other_mode() {
        let ratios = [5.0, 0.7, 0.4, 0.5, 4.6];
        let (full, quick) = (synthesized("full", ratios), synthesized("quick", ratios));
        let err = run_gate(&full, &quick, |_| unreachable!()).expect_err("mode mismatch");
        assert!(err.contains(r#"a "full" report and this run is "quick""#), "{err}");
    }
}
