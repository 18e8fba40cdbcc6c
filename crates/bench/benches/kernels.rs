//! Criterion micro-benchmarks of the compute kernels underlying every
//! experiment: GEMM and conv3d (the NN hot loops), FFT (solver + spectra),
//! one Rayleigh–Bénard solver step, decoder query throughput, and the ring
//! all-reduce bandwidth.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mfn_autodiff::{Activation, Graph, Mlp, ParamStore};
use mfn_core::{plan_queries, ContinuousDecoder};
use mfn_dist::ring;
use mfn_fft::FftPlan;
use mfn_solver::{RbcConfig, RbcSolver};
use mfn_tensor::{conv3d_auto, matmul, Tensor};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    for &n in &[64usize, 128, 256] {
        let a = Tensor::randn(&[n, n], 1.0, &mut rng);
        let b = Tensor::randn(&[n, n], 1.0, &mut rng);
        group.throughput(Throughput::Elements((n * n * n) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| matmul(black_box(&a), black_box(&b)))
        });
    }
    group.finish();
}

fn bench_conv3d(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv3d");
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    // The U-Net's characteristic shapes: [N, C, 4, 16, 16] with 3x3x3 kernels.
    for &ch in &[8usize, 16, 32] {
        let x = Tensor::randn(&[4, ch, 4, 16, 16], 1.0, &mut rng);
        let w = Tensor::randn(&[ch, ch, 3, 3, 3], 0.1, &mut rng);
        let flops = 4 * ch * ch * 4 * 16 * 16 * 27;
        group.throughput(Throughput::Elements(flops as u64));
        group.bench_with_input(BenchmarkId::from_parameter(ch), &ch, |bench, _| {
            bench.iter(|| conv3d_auto(black_box(&x), black_box(&w)))
        });
    }
    group.finish();
}

fn bench_fft(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft");
    for &n in &[128usize, 512, 4096] {
        let plan = FftPlan::new(n);
        let sig: Vec<mfn_fft::Complex> =
            (0..n).map(|i| mfn_fft::Complex::new((i as f64 * 0.1).sin(), 0.0)).collect();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| {
                let mut buf = sig.clone();
                plan.forward(black_box(&mut buf));
                buf
            })
        });
    }
    group.finish();
}

fn bench_solver_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("rbc_solver_step");
    for &(nx, nz) in &[(64usize, 17usize), (128, 33), (256, 65)] {
        let cfg = RbcConfig { nx, nz, ra: 1e6, dt_max: 1e-3, ..Default::default() };
        group.throughput(Throughput::Elements((nx * nz) as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{nx}x{nz}")),
            &(nx, nz),
            |bench, _| {
                let mut solver = RbcSolver::new(cfg);
                // Warm up past the first (non-AB2) step.
                solver.step(1e-3);
                bench.iter(|| solver.step(black_box(1e-3)))
            },
        );
    }
    group.finish();
}

fn bench_decoder_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("decoder_queries");
    let mut store = ParamStore::new();
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let mlp = Mlp::new(&mut store, "d", &[3 + 16, 64, 64, 32, 4], Activation::Softplus, &mut rng);
    let dec = ContinuousDecoder::new(mlp, 16);
    let latent = Tensor::randn(&[1, 16, 4, 8, 8], 0.5, &mut rng);
    for &q in &[64usize, 512, 2048] {
        let queries: Vec<(usize, [f32; 3])> = (0..q)
            .map(|i| {
                let f = i as f32 / q as f32;
                (0usize, [f, (f * 1.7).fract(), (f * 2.3).fract()])
            })
            .collect();
        let plan = plan_queries([4, 8, 8], queries);
        group.throughput(Throughput::Elements(q as u64));
        group.bench_with_input(BenchmarkId::from_parameter(q), &q, |bench, _| {
            bench.iter(|| {
                let mut g = Graph::new();
                let l = g.constant(latent.clone());
                let y = dec.decode(&mut g, &store, l, black_box(&plan));
                g.value(y).sum()
            })
        });
    }
    group.finish();
}

fn bench_ring_allreduce(c: &mut Criterion) {
    let mut group = c.benchmark_group("ring_allreduce");
    group.sample_size(20);
    for &workers in &[2usize, 4] {
        for &len in &[65_536usize, 1_048_576] {
            group.throughput(Throughput::Bytes((len * 4) as u64));
            group.bench_with_input(
                BenchmarkId::from_parameter(format!("{workers}w_{len}")),
                &(workers, len),
                |bench, &(workers, len)| {
                    bench.iter(|| {
                        let handles = ring(workers);
                        std::thread::scope(|scope| {
                            let joins: Vec<_> = handles
                                .into_iter()
                                .map(|h| {
                                    scope.spawn(move || {
                                        let mut buf = vec![1.0f32; len];
                                        h.all_reduce_mean(&mut buf, None).expect("healthy ring");
                                        buf[0]
                                    })
                                })
                                .collect();
                            joins.into_iter().map(|j| j.join().expect("worker")).sum::<f32>()
                        })
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group! {
    name = kernels;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_secs(1));
    targets = bench_matmul, bench_conv3d, bench_fft,
        bench_solver_step, bench_decoder_queries, bench_ring_allreduce
}
criterion_main!(kernels);
