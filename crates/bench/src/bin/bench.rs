//! `bench` — kernel + training-step micro-benchmarks with JSON output.
//!
//! ```text
//! usage: bench [--quick] [--oracle] [--gate BASELINE.json] [--out PATH]
//! ```
//!
//! Measures the blocked GEMM (all three transpose layouts) against the
//! pre-optimization naive `ikj` kernel kept here as a frozen reference,
//! the implicit-GEMM conv3d (forward and both gradients, a training-shaped
//! 3×3×3 layer and its pointwise twin), one U-Net encode attributed conv by
//! conv and stage by stage, the frozen encode/decode split with every decode
//! row attributed stage by stage and its GEMM stage timed against the blocked
//! GEMM, the softplus kernel (as a slice and as the decoder's feature-major
//! epilogue) and its derivative, the decoder's forward and backward on the tape (the link
//! between the kernel rows and the training step), and one full training step
//! with the workspace pool on vs off. Results land in
//! `BENCH_kernels.json` (default; `--out` overrides): median wall time,
//! GFLOP/s, heap bytes allocated per call (counted by the `count-alloc`
//! global allocator, on by default), and workspace-pool hit/miss
//! counters.
//!
//! The binary doubles as a regression gate: before timing anything it
//! re-checks the blocked GEMM against the naive reference on
//! tile-unaligned shapes and the conv3d kernels against a definition loop
//! and the adjoint identities, and exits non-zero on any mismatch. `--oracle` additionally
//! runs the full mfn-reftest differential suite first. `--quick`
//! shrinks the problem sizes for CI; the full run additionally asserts
//! the ≥2× speedup the optimization is required to hold on the 256³
//! GEMM. `--gate BASELINE.json` compares this run's speedup *ratios*
//! (blocked/naive GEMM, conv3d/blocked GEMM) against a committed
//! baseline report and fails if either drops below 85% of it, or if a cost
//! ratio (adaptive/uniform sampling, softplus derivative/softplus) rises
//! above the baseline's by the same margin — ratios, not absolute GFLOP/s,
//! so the gate is insensitive to how fast the CI machine is that day.

use mfn_autodiff::{Graph, Var, JET_LANES};
use mfn_core::{
    decode_workers, equation_loss, plan_queries, ChannelStats, ConstraintSet, Corpus, DecodeStages,
    FrozenModel, MeshfreeFlowNet, MfnConfig, RbcParams, TrainConfig, Trainer,
};
use mfn_data::{downsample, make_batch, Dataset, PatchSampler, PatchSpec, QueryStrategy};
use mfn_sample::{OctreeConfig, OctreeSampler};
use mfn_solver::{simulate, RbcConfig};
use mfn_tensor::{
    conv3d_auto, conv3d_grad_input, conv3d_grad_weight, gemm, rowops, workspace, Conv3dDims,
    ConvStages, MatLayout, PackedConv3d, Tensor,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Counting allocator: every heap allocation in the process adds to a
/// pair of atomics so benchmarks can report bytes-allocated-per-call.
/// The counters only track `alloc`/`realloc` growth — frees are not
/// subtracted, because "how much did the allocator have to hand out"
/// is exactly the churn the workspace pool exists to remove.
#[cfg(feature = "count-alloc")]
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

/// Heap bytes handed out by the allocator so far (0 without `count-alloc`).
fn alloc_bytes() -> u64 {
    #[cfg(feature = "count-alloc")]
    {
        counting_alloc::BYTES.load(std::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(not(feature = "count-alloc"))]
    {
        0
    }
}

/// Allocation calls so far (0 without `count-alloc`).
fn alloc_calls() -> u64 {
    #[cfg(feature = "count-alloc")]
    {
        counting_alloc::CALLS.load(std::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(not(feature = "count-alloc"))]
    {
        0
    }
}

/// The pre-optimization GEMM, frozen verbatim from the seed
/// tree's `linalg::matmul`: row-major `ikj` with the zero-skip branch.
/// This is the baseline every speedup in the JSON is measured against.
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
    f(); // warm up: populates the workspace pool and the icache
    let b0 = alloc_bytes();
    f();
    let bytes_per_call = alloc_bytes() - b0;
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_nanos() as f64);
    }
    let (median, best) = median_and_best(samples);
    (median, best, bytes_per_call)
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

/// Allocator bytes attributed to one (post-warm-up) call of `f`.
fn bytes_per_call<F: FnMut()>(mut f: F) -> u64 {
    f();
    let b0 = alloc_bytes();
    f();
    alloc_bytes() - b0
}

/// One GEMM benchmark row for the JSON report.
struct GemmRow {
    name: String,
    m: usize,
    k: usize,
    n: usize,
    median_ns: f64,
    best_ns: f64,
    gflops: f64,
    alloc_bytes_per_call: u64,
}

fn gemm_gflops(m: usize, k: usize, n: usize, ns: f64) -> f64 {
    (2.0 * m as f64 * k as f64 * n as f64) / ns
}

/// Benches one blocked-GEMM layout at `s`³.
fn bench_gemm(name: &str, s: usize, a_l: MatLayout, b_l: MatLayout, iters: usize) -> GemmRow {
    let mut a = vec![0.0f32; s * s];
    let mut b = vec![0.0f32; s * s];
    let mut c = vec![0.0f32; s * s];
    lcg_fill(&mut a, 1);
    lcg_fill(&mut b, 2);
    let (median_ns, best_ns, bytes) =
        time_samples(iters, || gemm(s, s, s, &a, a_l, &b, b_l, &mut c));
    GemmRow {
        name: format!("{name}_{s}"),
        m: s,
        k: s,
        n: s,
        median_ns,
        best_ns,
        gflops: gemm_gflops(s, s, s, best_ns),
        alloc_bytes_per_call: bytes,
    }
}

/// Correctness gate: blocked GEMM (all layouts) vs the naive reference on
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
        // Row-major transposes so the same product is expressible in
        // every layout the blocked kernel supports.
        let mut at = vec![0.0f32; m * k]; // [k, m]
        let mut bt = vec![0.0f32; k * n]; // [n, k]
        for i in 0..m {
            for p in 0..k {
                at[p * m + i] = a[i * k + p];
            }
        }
        for p in 0..k {
            for j in 0..n {
                bt[j * k + p] = b[p * n + j];
            }
        }
        type GemmCase<'a> = (&'a str, &'a [f32], MatLayout, &'a [f32], MatLayout);
        let cases: [GemmCase<'_>; 3] = [
            ("nn", &a, MatLayout::Normal, &b, MatLayout::Normal),
            ("tn", &at, MatLayout::Transposed, &b, MatLayout::Normal),
            ("nt", &a, MatLayout::Normal, &bt, MatLayout::Transposed),
        ];
        for (tag, av, al, bv, bl) in cases {
            let mut got = vec![0.0f32; m * n];
            gemm(m, k, n, av, al, bv, bl, &mut got);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                if (g - w).abs() > 1e-4 * (1.0 + w.abs()) {
                    return Err(format!("gemm_{tag} ({m}x{k}x{n}) mismatch at {i}: {g} vs {w}"));
                }
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
        let via_input = dot(&wide(&conv3d_grad_input(&gout, &weight, dims)), &input);
        let via_weight = dot(&wide(&conv3d_grad_weight(&input, &gout, dims)), &weight);
        for (what, got) in [("grad_input", via_input), ("grad_weight", via_weight)] {
            if (got - forward).abs() > 1e-4 * (1.0 + forward.abs()) {
                return Err(format!("conv3d {what} adjoint ({tag}): {got} vs {forward}"));
            }
        }
    }
    Ok(())
}

/// The `unet_encode` section, already formatted, and its headline figures.
struct UnetEncodeBench {
    json: String,
    encode_us: f64,
    conv_us: f64,
    conv_gflops: f64,
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
fn bench_unet_encode(iters: usize, gemm_nn_gflops: f64) -> UnetEncodeBench {
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

    // Sums per kernel size: [layers, flops, us, pack_a, pad_copy, pack_b, micro, epilogue].
    let mut sums = [[0.0f64; 8]; 2];
    let mut layers_json = String::new();
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
        let (_, us, _) = time_samples(iters, || {
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
        let row = [1.0, flops, us, pack_a, stage[0], stage[1], stage[2], epilogue];
        let sum = &mut sums[usize::from(kd * kh * kw > 1)];
        for (acc, v) in sum.iter_mut().zip(row) {
            *acc += v;
        }
        if !layers_json.is_empty() {
            layers_json.push_str(",\n");
        }
        layers_json.push_str(&format!(
            "    {{\"name\": \"{}\", \"cin\": {cin}, \"cout\": {cout}, \"kernel\": [{kd}, {kh}, {kw}], \"vol\": {vol}, \"us\": {:.2}, \"gflops\": {:.2}, \"pack_a_us\": {:.2}, \"pad_copy_us\": {:.2}, \"pack_b_us\": {:.2}, \"micro_us\": {:.2}, \"epilogue_us\": {:.2}}}",
            name.trim_end_matches(".weight"),
            us / 1e3,
            flops / us,
            pack_a / 1e3,
            stage[0] / 1e3,
            stage[1] / 1e3,
            stage[2] / 1e3,
            epilogue / 1e3,
        ));
    }
    let group = |s: &[f64; 8]| {
        format!(
            "{{\"layers\": {:.0}, \"us\": {:.2}, \"gflops\": {:.2}, \"pack_a_us\": {:.2}, \"pad_copy_us\": {:.2}, \"pack_b_us\": {:.2}, \"micro_us\": {:.2}, \"epilogue_us\": {:.2}}}",
            s[0],
            s[2] / 1e3,
            s[1] / s[2],
            s[3] / 1e3,
            s[4] / 1e3,
            s[5] / 1e3,
            s[6] / 1e3,
            s[7] / 1e3,
        )
    };
    let conv_ns = sums[0][2] + sums[1][2];
    let conv_gflops = (sums[0][1] + sums[1][1]) / conv_ns;
    let json = format!(
        "{{\n\
         \"patch\": [{}, {}, {}], \"batch\": 1,\n\
         \"encode_us\": {:.2}, \"encode_median_us\": {:.2},\n\
         \"layers\": [\n{layers_json}\n  ],\n\
         \"pointwise\": {},\n\
         \"k3x3x3\": {},\n\
         \"conv_us\": {:.2}, \"conv_share\": {:.3}, \"conv_gflops\": {conv_gflops:.2}, \"conv_vs_gemm_nn\": {:.3}\n\
         }}",
        patch[0],
        patch[1],
        patch[2],
        encode_best / 1e3,
        encode_median / 1e3,
        group(&sums[0]),
        group(&sums[1]),
        conv_ns / 1e3,
        conv_ns / encode_best,
        conv_gflops / gemm_nn_gflops,
    );
    UnetEncodeBench { json, encode_us: encode_best / 1e3, conv_us: conv_ns / 1e3, conv_gflops }
}

/// One `decode_values` benchmark row: `q` continuous point queries decoded
/// against a cached latent grid.
struct DecodeRow {
    queries: usize,
    median_ns: f64,
    best_ns: f64,
    points_per_s: f64,
    alloc_bytes_per_call: u64,
    /// Threads the timed call ran its blocks on (`mfn_core::decode_workers`).
    workers: usize,
    /// Each stage's minimum over the staged calls
    /// (`FrozenModel::decode_values_staged`, always one thread), in
    /// [`DECODE_STAGES`] order.
    stage_ns: [f64; 6],
    /// For the [`TWO_CORE_ROWS`]: `best_ns` of the call forced onto one
    /// worker and of the call as it picks its own count, interleaved.
    one_vs_default_ns: Option<(f64, f64)>,
}

/// The rows large enough to split across cores (from 1,024 queries), timed
/// on one forced worker against the default for
/// `decode_values.two_core_speedup`.
const TWO_CORE_ROWS: [usize; 2] = [4096, 16384];

/// The stage columns of a `decode_values` row.
const DECODE_STAGES: [&str; 6] =
    ["plan_us", "gather_us", "pack_b_us", "micro_us", "epilogue_us", "blend_us"];

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
/// blend. The encode/decode ratio in the JSON is the asymmetry the
/// latent-context cache in `mfn-serve` exploits. Returns the encode median
/// and the decode rows.
fn bench_decode(iters: usize) -> (f64, Vec<DecodeRow>) {
    let cfg = bench_decoder_config();
    let in_channels = cfg.in_channels;
    let frozen = FrozenModel::from_model(MeshfreeFlowNet::new(cfg));
    let mut rng = ChaCha8Rng::seed_from_u64(21);
    let input = Tensor::randn(&[1, in_channels, 4, 4, 4], 1.0, &mut rng);
    let (encode_ns, _, _) = time_samples(iters, || {
        std::hint::black_box(frozen.encode(&input));
    });
    let latent = frozen.encode(&input);
    // 4096 queries is the many-block row of the blocked decode (64 queries a
    // block): its points/s against the 64-query row is what blocking holds.
    // 16384 is a `super_resolve` patch and a half: what the split holds.
    let rows = [1usize, 8, 64, 512, 4096, 16384]
        .into_iter()
        .map(|q| {
            let queries = bench_queries(q);
            let (median_ns, best_ns, alloc_bytes_per_call) = time_samples(iters, || {
                std::hint::black_box(frozen.decode_values(&latent, queries.iter().copied()));
            });
            let mut stage_ns = [f64::MAX; 6];
            for _ in 0..iters {
                let mut s = DecodeStages::default();
                let points = queries.iter().copied();
                std::hint::black_box(frozen.decode_values_staged(&latent, points, Some(&mut s)));
                let l = s.layers;
                let now =
                    [s.plan_ns, s.gather_ns, l.pack_b_ns, l.micro_ns, l.epilogue_ns, s.blend_ns];
                for (best, now) in stage_ns.iter_mut().zip(now) {
                    *best = best.min(now);
                }
            }
            let one_vs_default_ns = TWO_CORE_ROWS.contains(&q).then(|| {
                let points = || queries.iter().copied();
                let mut one = || {
                    std::hint::black_box(frozen.decode_values_on(1, &latent, points()));
                };
                let mut default = || {
                    std::hint::black_box(frozen.decode_values(&latent, points()));
                };
                let t = time_interleaved(iters, &mut [&mut one, &mut default]);
                (t[0].1, t[1].1)
            });
            DecodeRow {
                queries: q,
                median_ns,
                best_ns,
                points_per_s: q as f64 * 1e9 / best_ns,
                alloc_bytes_per_call,
                workers: decode_workers(q),
                stage_ns,
                one_vs_default_ns,
            }
        })
        .collect();
    (encode_ns, rows)
}

/// Queries of the `tape_decoder` row: with eight vertices and six lanes
/// apiece, 49 152 GEMM rows — the size of a benchmark training step's decode.
const TAPE_QUERIES: usize = 1024;

/// The decoder on the tape as a training step with `γ > 0` runs it:
/// `(median_ns, best_ns)` of each part.
struct TapeDecoderBench {
    forward: (f64, f64),
    backward: (f64, f64),
    /// GEMM FLOPs of one forward pass: `2 · rows · Σ in·out` over the layers
    /// (backward runs two GEMMs, `dx` and `dW`, for each forward one).
    forward_flops: f64,
    /// Forward + backward of the equation loss on that decode.
    eq_loss: (f64, f64),
    /// Forward + backward of the one-lane decode of the same points: what
    /// `γ = 0` pays, so `eq_loss / one_lane` is the cost of the lanes.
    one_lane: (f64, f64),
}

/// Times the decoder pass of a training step on the tape:
/// `ContinuousDecoder::decode_derivs` of [`TAPE_QUERIES`] points (gather,
/// concat, one fused six-lane Linear node per layer, blend) with the latent
/// and the weights as gradient leaves, then `Graph::backward` from the mean
/// of the output — and, interleaved with it, the same tape reduced through
/// the equation loss instead, and the one-lane `decode` of the same points.
/// The model of the `decode_values` rows.
fn bench_tape_decoder(iters: usize) -> TapeDecoderBench {
    let cfg = bench_decoder_config();
    let in_channels = cfg.in_channels;
    let model = MeshfreeFlowNet::new(cfg);
    let mut rng = ChaCha8Rng::seed_from_u64(21);
    let latent = model.encode(&Tensor::randn(&[1, in_channels, 4, 4, 4], 1.0, &mut rng));
    let grid = model.grid_dims();
    let plan = plan_queries(grid, bench_queries(TAPE_QUERIES));
    let (dec, store) = (&model.decoder, &model.store);
    let forward_flops = 2.0
        * (TAPE_QUERIES * 8 * JET_LANES) as f64
        * dec.mlp.layers.iter().map(|l| (l.in_features * l.out_features) as f64).sum::<f64>();
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
    TapeDecoderBench { forward: fwd, backward: bwd, forward_flops, eq_loss: eq, one_lane: one }
}

/// `(median_ns, best_ns)` of the activation kernel, of its derivative and of
/// its feature-major form at two row lengths.
struct SoftplusBench {
    elements: usize,
    forward: (f64, f64),
    grad: (f64, f64),
    /// `bias_softplus_features` on `[128, 512]` (a full decode block's rows).
    features_512: (f64, f64),
    /// The same elements as `[8192, 8]` (one query's rows).
    features_8: (f64, f64),
}

impl SoftplusBench {
    /// Derivative cost relative to the forward kernel; the gated ratio.
    fn grad_ratio(&self) -> f64 {
        self.grad.1 / self.forward.1
    }
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
fn bench_softplus(iters: usize) -> SoftplusBench {
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
    SoftplusBench { elements: n, forward: t[0], grad: t[1], features_512: t[2], features_8: t[3] }
}

/// Measured sampling rows: uniform vs residual-guided adaptive query
/// draws, plus the per-step octree update (EMA feedback + split/merge).
struct SamplingBench {
    queries: usize,
    uniform_median_ns: f64,
    uniform_best_ns: f64,
    adaptive_median_ns: f64,
    adaptive_best_ns: f64,
    leaves: usize,
    update_median_ns: f64,
    update_best_ns: f64,
}

impl SamplingBench {
    /// Adaptive draw cost relative to uniform (1.0 = free); the gated ratio.
    fn overhead(&self) -> f64 {
        self.adaptive_best_ns / self.uniform_best_ns
    }
}

/// Builds an octree pre-warmed to a realistic refined shape (residual mass
/// concentrated near one wall, the way the equation loss behaves on RBC)
/// so the CDF walk in the timed draws crosses a split tree, not the root.
fn warmed_tree(queries: usize) -> OctreeSampler {
    let mut tree = OctreeSampler::new(OctreeConfig { min_count: 32, ..OctreeConfig::default() });
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    for _ in 0..64 {
        let draws = tree.draw_queries(queries, &mut rng);
        let points: Vec<[f32; 3]> = draws.iter().map(|d| d.local).collect();
        let residuals: Vec<f32> =
            points.iter().map(|p| if p[1] < 0.2 { 1.0 } else { 0.05 }).collect();
        tree.update(&points, &residuals);
    }
    tree
}

/// Times uniform vs adaptive query draws interleaved (their quotient is the
/// gated `adaptive_overhead`), then the per-step tree update on its own.
fn bench_sampling(iters: usize) -> SamplingBench {
    let q = 256usize;
    let mut tree = warmed_tree(q);
    let leaves = tree.leaf_count();
    let mut uniform = mfn_data::UniformQueries;
    let mut rng_u = ChaCha8Rng::seed_from_u64(12);
    let mut rng_a = ChaCha8Rng::seed_from_u64(13);
    let timings = time_interleaved(
        iters,
        &mut [
            &mut || {
                std::hint::black_box(uniform.draw_queries(q, &mut rng_u));
            },
            &mut || {
                std::hint::black_box(tree.draw_queries(q, &mut rng_a));
            },
        ],
    );
    // Fixed feedback batch: the update cost is what every adaptive training
    // step pays on top of the uniform path's loss computation.
    let mut rng = ChaCha8Rng::seed_from_u64(14);
    let draws = tree.draw_queries(q, &mut rng);
    let points: Vec<[f32; 3]> = draws.iter().map(|d| d.local).collect();
    let residuals: Vec<f32> = points.iter().map(|p| if p[1] < 0.2 { 1.0 } else { 0.05 }).collect();
    let (update_median_ns, update_best_ns, _) =
        time_samples(iters, || tree.update(&points, &residuals));
    SamplingBench {
        queries: q,
        uniform_median_ns: timings[0].0,
        uniform_best_ns: timings[0].1,
        adaptive_median_ns: timings[1].0,
        adaptive_best_ns: timings[1].1,
        leaves,
        update_median_ns,
        update_best_ns,
    }
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

/// Measured side of the pool on/off A/B.
struct TrainSide {
    median_ns: f64,
    alloc_bytes_per_step: u64,
    alloc_calls_per_step: u64,
    pool_hits: u64,
    pool_misses: u64,
}

/// Times one full gradient step (forward + backward + Adam) `iters` times
/// with the workspace pool in the given state.
fn bench_train_step(iters: usize, pool_on: bool) -> TrainSide {
    let (corpus, mut trainer) = train_fixture();
    let (hr, lr) = &corpus.pairs[0];
    let sampler = PatchSampler::new(hr, lr, trainer.model.cfg.patch);
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let batch = make_batch(&sampler, 4, &mut rng);
    workspace::set_enabled(pool_on);
    workspace::reset_stats();
    trainer.step(&batch, corpus.params(0), corpus.stats); // warm up
    let b0 = alloc_bytes();
    let c0 = alloc_calls();
    trainer.step(&batch, corpus.params(0), corpus.stats);
    let alloc_bytes_per_step = alloc_bytes() - b0;
    let alloc_calls_per_step = alloc_calls() - c0;
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        trainer.step(&batch, corpus.params(0), corpus.stats);
        samples.push(t.elapsed().as_nanos() as f64);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    let s = workspace::stats();
    workspace::set_enabled(true); // leave the process in the default state
    TrainSide {
        median_ns: samples[samples.len() / 2],
        alloc_bytes_per_step,
        alloc_calls_per_step,
        pool_hits: s.hits,
        pool_misses: s.misses,
    }
}

/// The subset of a committed `BENCH_kernels.json` the `--gate` compare
/// reads (extra fields in the baseline are ignored).
#[derive(serde::Deserialize)]
struct GateBaseline {
    gemm: Vec<GateGemm>,
    gemm_speedup_vs_naive: f64,
    conv3d: GateConv,
}

/// One baseline GEMM row; the conv leg reads the blocked `gemm_nn_*` one.
#[derive(serde::Deserialize)]
struct GateGemm {
    name: String,
    gflops: f64,
}

/// Baseline conv3d row the gate's ratio is built from.
#[derive(serde::Deserialize)]
struct GateConv {
    implicit_gemm: GateKernel,
}

/// One baseline kernel row: only the GFLOP/s matter to the gate.
#[derive(serde::Deserialize)]
struct GateKernel {
    gflops: f64,
}

impl GateBaseline {
    /// The conv leg: implicit-GEMM conv3d forward as a fraction of the
    /// blocked GEMM's rate. Both keys exist in every committed schema since
    /// v2, so the leg gates against files written before the direct kernel
    /// (the old denominator) was deleted.
    fn conv_vs_gemm(&self) -> Result<f64, String> {
        let nn = self
            .gemm
            .iter()
            .find(|r| r.name.starts_with("gemm_nn_"))
            .ok_or("baseline has no gemm_nn row")?;
        Ok(self.conv3d.implicit_gemm.gflops / nn.gflops)
    }
}

/// Optional `sampling` section of a committed baseline. Parsed separately
/// from [`GateBaseline`] so reports written before the adaptive sampler
/// landed still gate the kernel ratios — the sampling leg is just skipped.
#[derive(serde::Deserialize)]
struct GateSamplingDoc {
    sampling: GateSampling,
}

/// Baseline sampling row: only the overhead ratio matters to the gate.
#[derive(serde::Deserialize)]
struct GateSampling {
    adaptive_overhead: f64,
}

/// Optional `softplus_grad` section of a committed baseline (reports up to
/// schema v5 have none; the leg is then skipped).
#[derive(serde::Deserialize)]
struct GateSoftplusGradDoc {
    softplus_grad: GateSoftplusGrad,
}

/// Baseline softplus-derivative row: only the cost ratio matters to the gate.
#[derive(serde::Deserialize)]
struct GateSoftplusGrad {
    ratio_vs_softplus: f64,
}

/// `--gate` floor: each speedup ratio must hold at least this fraction of
/// the committed baseline's; each cost ratio may rise to the baseline's
/// divided by it.
const GATE_FRACTION: f64 = 0.85;

/// The ceiling legs of the gate: a cost ratio of two interleaved minima
/// (machine speed divides out, as in the kernel legs) must not balloon past
/// the committed baseline's. Like [`run_gate`], a ratio above the ceiling is
/// re-measured in up to two fresh windows and the best window counts.
fn gate_ceiling(
    what: &str,
    base: f64,
    first: f64,
    mut remeasure: impl FnMut() -> f64,
) -> Result<(), String> {
    let ceiling = base / GATE_FRACTION;
    let mut now = first;
    for attempt in 0..3 {
        eprintln!("[gate] {what}: now {now:.2}x vs baseline {base:.2}x (ceiling {ceiling:.2}x)");
        if now <= ceiling {
            return Ok(());
        }
        if attempt < 2 {
            eprintln!("[gate] above ceiling; re-measuring in a fresh window ...");
            std::thread::sleep(std::time::Duration::from_millis(500));
            now = now.min(remeasure());
        }
    }
    Err(format!(
        "{what} {now:.2}x stayed above {ceiling:.2}x (baseline {base:.2}x / {GATE_FRACTION}) \
         across 3 windows"
    ))
}

/// Compares this run's speedup *ratios* (blocked/naive GEMM, conv3d/
/// blocked GEMM) against a committed baseline report. Ratios divide out the
/// machine's absolute speed, so the gate catches codegen/blocking
/// regressions without tripping on a slow CI host.
///
/// A shared VM can lose 30–40% of a single measurement window to steal
/// time, and the loss hits numerator and denominator unevenly — so a ratio
/// below the floor is re-measured in up to two fresh windows (`remeasure`)
/// and the gate keeps each ratio's best window before declaring a
/// regression. A real codegen regression is below the floor in every
/// window; a noise burst is not.
fn run_gate(
    path: &str,
    baseline_text: &str,
    first: (f64, f64),
    mut remeasure: impl FnMut() -> (f64, f64),
) -> Result<(), String> {
    let base: GateBaseline =
        serde_json::from_str(baseline_text).map_err(|e| format!("parse {path}: {e}"))?;
    let base_conv = base.conv_vs_gemm()?;
    let floors = (GATE_FRACTION * base.gemm_speedup_vs_naive, GATE_FRACTION * base_conv);
    let (mut gemm_now, mut conv_now) = first;
    for attempt in 0..3 {
        eprintln!(
            "[gate] gemm blocked/naive: now {gemm_now:.2}x vs baseline {:.2}x (floor {:.2}x)",
            base.gemm_speedup_vs_naive, floors.0
        );
        eprintln!(
            "[gate] conv3d/gemm_nn: now {conv_now:.3}x vs baseline {base_conv:.3}x \
             (floor {:.3}x)",
            floors.1
        );
        if gemm_now >= floors.0 && conv_now >= floors.1 {
            return Ok(());
        }
        if attempt < 2 {
            eprintln!("[gate] below floor; re-measuring in a fresh window ...");
            // Let a scheduler/steal burst drain before the next window.
            std::thread::sleep(std::time::Duration::from_millis(500));
            let (g, c) = remeasure();
            gemm_now = gemm_now.max(g);
            conv_now = conv_now.max(c);
        }
    }
    let (what, now, floor) = if gemm_now < floors.0 {
        ("gemm blocked/naive", gemm_now, floors.0)
    } else {
        ("conv3d/gemm_nn", conv_now, floors.1)
    };
    Err(format!(
        "{what} speedup {now:.2}x stayed below {GATE_FRACTION}x baseline ({floor:.2}x) \
         across 3 measurement windows"
    ))
}

/// Rows of one full block of the no-grad decode (64 queries × 8 vertices).
const DECODE_BLOCK_ROWS: usize = 512;

/// The operands of the two gated kernel ratios — blocked vs naive GEMM at
/// `size`³, and the implicit-GEMM conv3d on a training-shaped 3×3×3 layer vs
/// the blocked GEMM — and of the decoder's GEMM stage, and the one loop that
/// times them.
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
            &mut || gemm(size, size, size, a, MatLayout::Normal, b, MatLayout::Normal, c_nn),
            &mut || naive_ikj(size, size, size, a, b, c_naive),
            &mut || {
                std::hint::black_box(conv3d_auto(x, w));
            },
            &mut || {
                std::hint::black_box(conv3d_grad_input(g, w, dims));
            },
            &mut || {
                std::hint::black_box(conv3d_grad_weight(x, g, dims));
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

    /// `(blocked/naive GEMM, conv3d GFLOP/s / blocked GEMM GFLOP/s)` of one
    /// [`GatedKernels::time`] result — the two ratios `--gate` holds.
    fn ratios(&self, t: &[(f64, f64, u64)]) -> (f64, f64) {
        let gemm_rate = gemm_gflops(self.size, self.size, self.size, t[0].1);
        (t[1].1 / t[0].1, self.conv_flops(&self.cweight) / t[2].1 / gemm_rate)
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut oracle = false;
    let mut gate_path: Option<String> = None;
    let mut out_path = String::from("BENCH_kernels.json");
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--quick" => quick = true,
            "--oracle" => oracle = true,
            "--gate" => {
                i += 1;
                gate_path = Some(argv.get(i).expect("--gate needs a baseline path").clone());
            }
            "--out" => {
                i += 1;
                out_path = argv.get(i).expect("--out needs a value").clone();
            }
            other => {
                eprintln!(
                    "unknown argument {other}\n\
                     usage: bench [--quick] [--oracle] [--gate BASELINE.json] [--out PATH]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    // Read the gate baseline up front: fails fast on a bad path, and stays
    // correct when --gate and --out name the same file (CI gates against
    // the committed report, then overwrites it with this run's).
    let gate_baseline = gate_path.as_ref().map(|p| {
        std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("[bench] FAIL: read gate baseline {p}: {e}");
            std::process::exit(1);
        })
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
            eprintln!(
                "[bench] FAIL: kernels diverged from reference; timings would be meaningless"
            );
            std::process::exit(1);
        }
    }

    // ---- Correctness gates (always, before any timing) -----------------
    eprintln!("[bench] checking blocked GEMM vs naive reference ...");
    if let Err(e) = check_gemm_vs_naive() {
        eprintln!("[bench] FAIL: {e}");
        std::process::exit(1);
    }
    eprintln!("[bench] checking conv3d vs its definition ...");
    if let Err(e) = check_conv3d_vs_definition() {
        eprintln!("[bench] FAIL: {e}");
        std::process::exit(1);
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
    eprintln!("[bench] timing GEMM at {size}^3 and conv3d ({iters} iters each) ...");
    let gated_timings = gated.time(iters, false);
    let (speedup, conv_vs_gemm) = gated.ratios(&gated_timings);
    let gemm_row = |name: &str, (median_ns, best_ns, bytes): (f64, f64, u64)| GemmRow {
        name: format!("{name}_{size}"),
        m: size,
        k: size,
        n: size,
        median_ns,
        best_ns,
        gflops: gemm_gflops(size, size, size, best_ns),
        alloc_bytes_per_call: bytes,
    };
    let rows = [
        gemm_row("gemm_nn", gated_timings[0]),
        bench_gemm("gemm_tn", size, MatLayout::Transposed, MatLayout::Normal, iters),
        bench_gemm("gemm_nt", size, MatLayout::Normal, MatLayout::Transposed, iters),
        gemm_row("gemm_naive_ikj", gated_timings[1]),
    ];
    let blocked = rows[0].gflops;
    let naive = rows.last().expect("naive row").gflops;
    eprintln!(
        "[bench] GEMM {size}^3: blocked {blocked:.1} GFLOP/s vs naive {naive:.1} ({speedup:.2}x)"
    );
    if !quick && speedup < 2.0 {
        eprintln!("[bench] FAIL: blocked GEMM speedup {speedup:.2}x < required 2x at {size}^3");
        std::process::exit(1);
    }

    // conv3d on a training-shaped layer (timed in the loop above) and its
    // pointwise twin (same batch, channels and extent, 1×1×1 kernel):
    // forward and both gradients.
    let conv_row = |flops: f64, (median, best, bytes): (f64, f64, u64)| {
        format!(
            "{{\"median_ns\": {median:.0}, \"best_ns\": {best:.0}, \"gflops\": {:.2}, \"alloc_bytes_per_call\": {bytes}}}",
            flops / best
        )
    };
    let conv_flops = gated.conv_flops(&gated.cweight);
    let conv_json: Vec<String> =
        gated_timings[2..].iter().map(|&t| conv_row(conv_flops, t)).collect();
    let conv_gflops = conv_flops / gated_timings[2].1;
    let pointwise_flops = gated.conv_flops(&gated.pweight);
    let pointwise_timings = gated.time(iters, true);
    let pointwise_json: Vec<String> =
        pointwise_timings[2..].iter().map(|&t| conv_row(pointwise_flops, t)).collect();
    let pointwise_gflops = pointwise_flops / pointwise_timings[2].1;
    eprintln!(
        "[bench] conv3d fwd: 3x3x3 {conv_gflops:.2} GFLOP/s ({conv_vs_gemm:.3}x gemm_nn), \
         1x1x1 {pointwise_gflops:.2} GFLOP/s"
    );

    // The decoder's GEMM stage over one block, from the same loop.
    let decode_gemm = gated_timings[5];
    let decode_gemm_gflops = gated.decode_flops() / decode_gemm.1;
    eprintln!(
        "[bench] decoder GEMMs, one {DECODE_BLOCK_ROWS}-row block: {:.2} us, \
         {decode_gemm_gflops:.2} GFLOP/s ({:.3}x gemm_nn)",
        decode_gemm.1 / 1e3,
        decode_gemm_gflops / blocked,
    );

    // ---- One U-Net encode, conv by conv and stage by stage --------------
    eprintln!("[bench] attributing one U-Net encode ({iters} iters/layer) ...");
    let unet = bench_unet_encode(iters, blocked);
    eprintln!(
        "[bench] unet encode {:.1} us; its convs {:.1} us ({:.2} GFLOP/s, {:.3}x gemm_nn)",
        unet.encode_us,
        unet.conv_us,
        unet.conv_gflops,
        unet.conv_gflops / blocked,
    );

    // ---- Serving split: encode-once vs decode-many --------------------
    eprintln!("[bench] timing frozen encode + decode_values ({decode_iters} iters/size) ...");
    let (encode_ns, decode_rows) = bench_decode(decode_iters);
    {
        let at = |q: usize| {
            decode_rows.iter().find(|r| r.queries == q).expect("decode row").points_per_s
        };
        let d1 = decode_rows.first().expect("decode rows");
        eprintln!(
            "[bench] encode {:.0} ns vs 1-query decode {:.0} ns ({:.0}x); \
             decode {:.3} Mpts/s at 512 queries, {:.3} Mpts/s at 4096",
            encode_ns,
            d1.median_ns,
            encode_ns / d1.median_ns,
            at(512) / 1e6,
            at(4096) / 1e6,
        );
        for r in &decode_rows {
            if let Some((one, default)) = r.one_vs_default_ns {
                eprintln!(
                    "[bench] decode {} queries: one worker {:.2} ms, {} workers {:.2} ms ({:.2}x)",
                    r.queries,
                    one / 1e6,
                    r.workers,
                    default / 1e6,
                    one / default,
                );
            }
        }
    }
    let softplus = bench_softplus(iters);
    eprintln!(
        "[bench] softplus: {:.3} ns/element, derivative {:.3} ns/element ({:.2}x), feature-major \
         {:.3} (rows of 512) / {:.3} (rows of 8) over {} elements",
        softplus.forward.1 / softplus.elements as f64,
        softplus.grad.1 / softplus.elements as f64,
        softplus.grad_ratio(),
        softplus.features_512.1 / softplus.elements as f64,
        softplus.features_8.1 / softplus.elements as f64,
        softplus.elements,
    );

    // ---- The decoder on the tape: the link between the kernel rows above
    // and the training step below ----------------------------------------
    eprintln!("[bench] timing the decoder on the tape ({decode_iters} iters) ...");
    let tape = bench_tape_decoder(decode_iters);
    eprintln!(
        "[bench] tape decoder at {TAPE_QUERIES} queries x {JET_LANES} lanes: forward {:.2} ms \
         ({:.1} GFLOP/s), backward {:.2} ms ({:.1} GFLOP/s); gemm_nn {blocked:.1} GFLOP/s; \
         equation loss {:.2} ms vs one-lane decode {:.2} ms ({:.2}x)",
        tape.forward.1 / 1e6,
        tape.forward_flops / tape.forward.1,
        tape.backward.1 / 1e6,
        2.0 * tape.forward_flops / tape.backward.1,
        tape.eq_loss.1 / 1e6,
        tape.one_lane.1 / 1e6,
        tape.eq_loss.1 / tape.one_lane.1,
    );

    // ---- One-train-step A/B: workspace pool on vs off ------------------
    let step_iters = if quick { 5 } else { 15 };
    eprintln!("[bench] timing one training step, pool ON ({step_iters} iters) ...");
    let pool_on = bench_train_step(step_iters, true);
    eprintln!("[bench] timing one training step, pool OFF ({step_iters} iters) ...");
    let pool_off = bench_train_step(step_iters, false);
    let alloc_drop = if pool_off.alloc_bytes_per_step > 0 {
        1.0 - pool_on.alloc_bytes_per_step as f64 / pool_off.alloc_bytes_per_step as f64
    } else {
        0.0
    };
    eprintln!(
        "[bench] train step heap churn: {} B with pool vs {} B without ({:.1}% drop)",
        pool_on.alloc_bytes_per_step,
        pool_off.alloc_bytes_per_step,
        100.0 * alloc_drop
    );

    // ---- Query sampling: uniform vs residual-guided adaptive draws ------
    eprintln!("[bench] timing query sampling, uniform vs adaptive ({iters} iters) ...");
    let sampling = bench_sampling(iters);
    eprintln!(
        "[bench] sampling ({} pts/draw): uniform {:.1} / adaptive {:.1} Mpts/s \
         ({:.2}x overhead, {} leaves); tree update {:.0} ns/step",
        sampling.queries,
        sampling.queries as f64 * 1e3 / sampling.uniform_best_ns,
        sampling.queries as f64 * 1e3 / sampling.adaptive_best_ns,
        sampling.overhead(),
        sampling.leaves,
        sampling.update_median_ns,
    );

    // ---- JSON report ----------------------------------------------------
    let mut gemm_json = String::new();
    for (idx, r) in rows.iter().enumerate() {
        if idx > 0 {
            gemm_json.push_str(",\n");
        }
        gemm_json.push_str(&format!(
            "    {{\"name\": \"{}\", \"m\": {}, \"k\": {}, \"n\": {}, \"median_ns\": {:.0}, \"best_ns\": {:.0}, \"gflops\": {:.2}, \"alloc_bytes_per_call\": {}}}",
            r.name, r.m, r.k, r.n, r.median_ns, r.best_ns, r.gflops, r.alloc_bytes_per_call
        ));
    }
    let mut decode_json = String::new();
    for (idx, r) in decode_rows.iter().enumerate() {
        if idx > 0 {
            decode_json.push_str(",\n");
        }
        let stages: Vec<String> = DECODE_STAGES
            .iter()
            .zip(r.stage_ns)
            .map(|(name, ns)| format!("\"{name}\": {:.2}", ns / 1e3))
            .collect();
        decode_json.push_str(&format!(
            "    {{\"queries\": {}, \"workers\": {}, \"median_ns\": {:.0}, \"best_ns\": {:.0}, \"points_per_s\": {:.0}, \"alloc_bytes_per_call\": {}, {}}}",
            r.queries,
            r.workers,
            r.median_ns,
            r.best_ns,
            r.points_per_s,
            r.alloc_bytes_per_call,
            stages.join(", "),
        ));
    }
    let two_core_json: Vec<String> = decode_rows
        .iter()
        .filter_map(|r| {
            let (one, default) = r.one_vs_default_ns?;
            Some(format!(
                "\"q{}\": {{\"workers\": {}, \"one_worker_best_ns\": {one:.0}, \"best_ns\": {default:.0}, \"speedup\": {:.3}}}",
                r.queries,
                r.workers,
                one / default,
            ))
        })
        .collect();
    let two_core_json = two_core_json.join(", ");
    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);
    let json = format!(
        "{{\n\
         \"schema\": \"mfn-bench/kernels/v10\",\n\
         \"mode\": \"{mode}\",\n\
         \"count_alloc\": {count_alloc},\n\
         \"checks\": {{\"gemm_vs_naive\": \"ok\", \"conv3d_vs_definition\": \"ok\"}},\n\
         \"gemm\": [\n{gemm_json}\n  ],\n\
         \"gemm_speedup_vs_naive\": {speedup:.3},\n\
         \"conv3d\": {{\n\
         \"shape\": {{\"n\": {cn}, \"cin\": {cin}, \"cout\": {cout}, \"spatial\": [{s0}, {s1}, {s2}], \"kernel\": [3, 3, 3]}},\n\
         \"implicit_gemm\": {implicit_row},\n\
         \"implicit_grad_input\": {gi_row},\n\
         \"implicit_grad_weight\": {gw_row},\n\
         \"pointwise\": {{\"kernel\": [1, 1, 1], \"implicit_gemm\": {pw_row}, \"implicit_grad_input\": {pw_gi_row}, \"implicit_grad_weight\": {pw_gw_row}}},\n\
         \"implicit_vs_gemm_nn\": {conv_vs_gemm:.3}\n\
         }},\n\
         \"unet_encode\": {unet_json},\n\
         \"decode_values\": {{\n\
         \"encode_median_ns\": {encode_ns:.0},\n\
         \"encode_to_1query_decode_ratio\": {enc_dec_ratio:.1},\n\
         \"rows\": [\n{decode_json}\n  ],\n\
         \"two_core_speedup\": {{\"available_parallelism\": {host_cores}, {two_core_json}}},\n\
         \"gemm_stage\": {{\"rows\": {DECODE_BLOCK_ROWS}, \"median_ns\": {dg_med:.0}, \"best_ns\": {dg_best:.0}, \"alloc_bytes_per_call\": {dg_bytes}, \"decode_gemm_gflops\": {decode_gemm_gflops:.2}, \"decode_vs_gemm_nn\": {dg_rel:.3}}}\n\
         }},\n\
         \"softplus\": {{\"elements\": {sp_n}, \"median_ns\": {sp_med:.0}, \"best_ns\": {sp_best:.0}, \"ns_per_element\": {sp_per:.3}, \"features_512_ns_per_element\": {sf512_per:.3}, \"features_8_ns_per_element\": {sf8_per:.3}}},\n\
         \"softplus_grad\": {{\"elements\": {sp_n}, \"median_ns\": {sg_med:.0}, \"best_ns\": {sg_best:.0}, \"ns_per_element\": {sg_per:.3}, \"ratio_vs_softplus\": {sg_ratio:.3}}},\n\
         \"tape_decoder\": {{\n\
         \"queries\": {TAPE_QUERIES}, \"lanes\": {JET_LANES}, \"rows\": {tape_rows},\n\
         \"forward_ms\": {tf_ms:.3}, \"forward_median_ms\": {tf_med_ms:.3}, \"forward_gflops\": {tf_gf:.2}, \"forward_vs_gemm_nn\": {tf_rel:.3},\n\
         \"backward_ms\": {tb_ms:.3}, \"backward_median_ms\": {tb_med_ms:.3}, \"backward_gflops\": {tb_gf:.2}, \"backward_vs_gemm_nn\": {tb_rel:.3},\n\
         \"eq_loss_ms\": {te_ms:.3}, \"one_lane_ms\": {t1_ms:.3}, \"eq_loss_vs_one_lane\": {te_rel:.3}\n\
         }},\n\
         \"sampling\": {{\n\
         \"queries_per_draw\": {sq},\n\
         \"uniform\": {{\"median_ns\": {su_med:.0}, \"best_ns\": {su_best:.0}, \"points_per_s\": {su_pps:.0}}},\n\
         \"adaptive\": {{\"median_ns\": {sa_med:.0}, \"best_ns\": {sa_best:.0}, \"points_per_s\": {sa_pps:.0}, \"octree_leaves\": {s_leaves}}},\n\
         \"adaptive_overhead\": {s_overhead:.3},\n\
         \"tree_update\": {{\"median_ns\": {st_med:.0}, \"best_ns\": {st_best:.0}}}\n\
         }},\n\
         \"train_step\": {{\n\
         \"pool_on\": {{\"median_ns\": {on_ns:.0}, \"alloc_bytes\": {on_b}, \"alloc_calls\": {on_c}, \"pool_hits\": {on_h}, \"pool_misses\": {on_m}}},\n\
         \"pool_off\": {{\"median_ns\": {off_ns:.0}, \"alloc_bytes\": {off_b}, \"alloc_calls\": {off_c}, \"pool_hits\": {off_h}, \"pool_misses\": {off_m}}},\n\
         \"alloc_drop_ratio\": {alloc_drop:.4}\n\
         }}\n\
         }}\n",
        mode = if quick { "quick" } else { "full" },
        count_alloc = cfg!(feature = "count-alloc"),
        speedup = speedup,
        cn = gated.cinput.dims()[0],
        cin = gated.cinput.dims()[1],
        cout = gated.cweight.dims()[0],
        s0 = gated.cinput.dims()[2],
        s1 = gated.cinput.dims()[3],
        s2 = gated.cinput.dims()[4],
        implicit_row = conv_json[0],
        gi_row = conv_json[1],
        gw_row = conv_json[2],
        pw_row = pointwise_json[0],
        pw_gi_row = pointwise_json[1],
        pw_gw_row = pointwise_json[2],
        unet_json = unet.json,
        encode_ns = encode_ns,
        enc_dec_ratio = encode_ns / decode_rows.first().expect("decode rows").median_ns,
        sp_n = softplus.elements,
        sp_med = softplus.forward.0,
        sp_best = softplus.forward.1,
        sp_per = softplus.forward.1 / softplus.elements as f64,
        sf512_per = softplus.features_512.1 / softplus.elements as f64,
        sf8_per = softplus.features_8.1 / softplus.elements as f64,
        dg_med = decode_gemm.0,
        dg_best = decode_gemm.1,
        dg_bytes = decode_gemm.2,
        dg_rel = decode_gemm_gflops / blocked,
        sg_med = softplus.grad.0,
        sg_best = softplus.grad.1,
        sg_per = softplus.grad.1 / softplus.elements as f64,
        sg_ratio = softplus.grad_ratio(),
        tape_rows = TAPE_QUERIES * 8 * JET_LANES,
        tf_ms = tape.forward.1 / 1e6,
        tf_med_ms = tape.forward.0 / 1e6,
        tf_gf = tape.forward_flops / tape.forward.1,
        tf_rel = tape.forward_flops / tape.forward.1 / blocked,
        tb_ms = tape.backward.1 / 1e6,
        tb_med_ms = tape.backward.0 / 1e6,
        tb_gf = 2.0 * tape.forward_flops / tape.backward.1,
        tb_rel = 2.0 * tape.forward_flops / tape.backward.1 / blocked,
        te_ms = tape.eq_loss.1 / 1e6,
        t1_ms = tape.one_lane.1 / 1e6,
        te_rel = tape.eq_loss.1 / tape.one_lane.1,
        sq = sampling.queries,
        su_med = sampling.uniform_median_ns,
        su_best = sampling.uniform_best_ns,
        su_pps = sampling.queries as f64 * 1e9 / sampling.uniform_best_ns,
        sa_med = sampling.adaptive_median_ns,
        sa_best = sampling.adaptive_best_ns,
        sa_pps = sampling.queries as f64 * 1e9 / sampling.adaptive_best_ns,
        s_leaves = sampling.leaves,
        s_overhead = sampling.overhead(),
        st_med = sampling.update_median_ns,
        st_best = sampling.update_best_ns,
        on_ns = pool_on.median_ns,
        on_b = pool_on.alloc_bytes_per_step,
        on_c = pool_on.alloc_calls_per_step,
        on_h = pool_on.pool_hits,
        on_m = pool_on.pool_misses,
        off_ns = pool_off.median_ns,
        off_b = pool_off.alloc_bytes_per_step,
        off_c = pool_off.alloc_calls_per_step,
        off_h = pool_off.pool_hits,
        off_m = pool_off.pool_misses,
    );
    std::fs::write(&out_path, &json).expect("write bench report");
    eprintln!("[bench] wrote {out_path}");
    println!("{json}");

    // ---- Regression gate (--gate): speedup ratios vs the committed
    // baseline, after the fresh report is on disk for forensics ----------
    if let Some(path) = gate_path {
        // Re-measure in the loop the report rows came from: each ratio's
        // numerator and denominator must share steal phases or the retry
        // windows inherit the very noise they exist to reject.
        let remeasure = || {
            let t = gated.time(iters, false);
            gated.ratios(&t)
        };
        let baseline = gate_baseline.as_deref().expect("baseline read at startup");
        if let Err(e) = run_gate(&path, baseline, (speedup, conv_vs_gemm), remeasure) {
            eprintln!("[bench] FAIL: {e}");
            std::process::exit(1);
        }
        // Ceiling legs. A baseline written before a section existed still
        // gates everything it has; the missing leg is skipped.
        let sampling_leg = serde_json::from_str::<GateSamplingDoc>(baseline).map(|doc| {
            gate_ceiling(
                "sampling adaptive/uniform draw cost",
                doc.sampling.adaptive_overhead,
                sampling.overhead(),
                || bench_sampling(iters).overhead(),
            )
        });
        let softplus_leg = serde_json::from_str::<GateSoftplusGradDoc>(baseline).map(|doc| {
            gate_ceiling(
                "softplus derivative/softplus cost",
                doc.softplus_grad.ratio_vs_softplus,
                softplus.grad_ratio(),
                || bench_softplus(iters).grad_ratio(),
            )
        });
        for (section, leg) in [("sampling", sampling_leg), ("softplus_grad", softplus_leg)] {
            match leg {
                Ok(Ok(())) => {}
                Ok(Err(e)) => {
                    eprintln!("[bench] FAIL: {e}");
                    std::process::exit(1);
                }
                Err(_) => eprintln!("[gate] baseline has no {section} section; skipping that leg"),
            }
        }
        eprintln!("[bench] gate vs {path}: ok");
    }
}
