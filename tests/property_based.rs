//! Property-based tests (proptest) over the core data structures and
//! numerical invariants that every experiment relies on.

use meshfreeflownet::autodiff::{Activation, Graph, JET_LANES};
use meshfreeflownet::core::plan_queries;
use meshfreeflownet::data::{downsample, sample_trilinear, Dataset, DatasetMeta, CHANNELS};
use meshfreeflownet::fft::{fft, ifft, Complex, RealFftPlan};
use meshfreeflownet::telemetry::{Event, Recorder, StepMetrics};
use meshfreeflownet::tensor::Tensor;
use proptest::prelude::*;

fn synthetic_dataset(nt: usize, nz: usize, nx: usize, vals: &[f32]) -> Dataset {
    let meta = DatasetMeta {
        nt,
        nz,
        nx,
        lx: 4.0,
        lz: 1.0,
        duration: 1.0,
        ra: 1e5,
        pr: 1.0,
        seed: 0,
        channel_mean: [0.0; 4],
        channel_std: [1.0; 4],
    };
    let n = nt * CHANNELS * nz * nx;
    let data: Vec<f32> = (0..n).map(|i| vals[i % vals.len()]).collect();
    Dataset::from_parts(meta, data)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// FFT followed by inverse FFT is the identity for any signal.
    #[test]
    fn fft_roundtrip(re in prop::collection::vec(-100.0f64..100.0, 64)) {
        let sig: Vec<Complex> = re.iter().map(|&r| Complex::new(r, -r * 0.5)).collect();
        let mut buf = sig.clone();
        fft(&mut buf);
        ifft(&mut buf);
        for (a, b) in buf.iter().zip(&sig) {
            prop_assert!((*a - *b).abs() < 1e-8);
        }
    }

    /// Parseval: energy is preserved between time and frequency domains.
    #[test]
    fn fft_parseval(re in prop::collection::vec(-10.0f64..10.0, 128)) {
        let sig: Vec<Complex> = re.iter().map(|&r| Complex::real(r)).collect();
        let time: f64 = sig.iter().map(|z| z.norm_sqr()).sum();
        let mut spec = sig;
        fft(&mut spec);
        let freq: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / 128.0;
        prop_assert!((time - freq).abs() < 1e-6 * (1.0 + time));
    }

    /// Real-FFT roundtrip for arbitrary real signals.
    #[test]
    fn real_fft_roundtrip(sig in prop::collection::vec(-50.0f64..50.0, 32)) {
        let plan = RealFftPlan::new(32);
        let back = plan.inverse(&plan.forward(&sig));
        for (a, b) in back.iter().zip(&sig) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// Trilinear query-plan weights always form a partition of unity and
    /// stay non-negative, for any query location (even out of range).
    #[test]
    fn plan_weights_partition_unity(
        t in -0.5f32..1.5, z in -0.5f32..1.5, x in -0.5f32..1.5,
    ) {
        let plan = plan_queries([4, 6, 5], [(0usize, [t, z, x])]);
        let sum: f32 = plan.weights.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-5);
        prop_assert!(plan.weights.iter().all(|&w| (-1e-6..=1.0 + 1e-6).contains(&w)));
    }

    /// Trilinear interpolation is exact for functions separately linear in
    /// each coordinate (the defining property).
    #[test]
    fn trilinear_exact_on_linear_fields(
        a in -2.0f64..2.0, b in -2.0f64..2.0, c in -2.0f64..2.0,
        t in 0.0f64..1.0, z in 0.0f64..1.0,
    ) {
        let (nt, nz, nx) = (3usize, 5usize, 8usize);
        let mut ds = synthetic_dataset(nt, nz, nx, &[0.0]);
        let dt = ds.dt();
        let dz = ds.dz();
        for f in 0..nt {
            for j in 0..nz {
                for i in 0..nx {
                    let v = (a * f as f64 * dt + b * j as f64 * dz + c) as f32;
                    for ch in 0..CHANNELS {
                        let idx = ds.index(f, ch, j, i);
                        ds.data[idx] = v;
                    }
                }
            }
        }
        let v = sample_trilinear(&ds, t, z, 0.0);
        let expect = a * t + b * z + c;
        prop_assert!((v[0] as f64 - expect).abs() < 1e-4, "{} vs {expect}", v[0]);
    }

    /// Downsampling then reading strided points reproduces the HR values for
    /// any stride combination that fits.
    #[test]
    fn downsample_is_strided_subset(
        vals in prop::collection::vec(-5.0f32..5.0, 16),
        ft in 1usize..3, fs in 1usize..3,
    ) {
        let hr = synthetic_dataset(5, 5, 8, &vals);
        let lr = downsample(&hr, ft, fs);
        for f in 0..lr.meta.nt {
            for j in 0..lr.meta.nz {
                for i in 0..lr.meta.nx {
                    prop_assert_eq!(lr.at(f, 0, j, i), hr.at(f * ft, 0, j * fs, i * fs));
                }
            }
        }
    }

    /// Reverse-mode gradient of sum(x*x) is 2x — for any tensor contents.
    #[test]
    fn autodiff_quadratic_gradient(vals in prop::collection::vec(-3.0f32..3.0, 1..40)) {
        let t = Tensor::from_vec(vals.clone(), &[vals.len()]);
        let mut g = Graph::new();
        let x = g.leaf_with_grad(t);
        let sq = g.mul(x, x);
        let loss = g.sum(sq);
        g.backward(loss);
        let grad = g.grad(x);
        for (gv, &v) in grad.data().iter().zip(&vals) {
            prop_assert!((gv - 2.0 * v).abs() < 1e-4);
        }
    }

    /// A linear map commutes with differentiation: the six-lane layer node
    /// maps every lane by the same weight as six one-lane nodes would, the
    /// bias joining the value lane only.
    #[test]
    fn linear_layer_maps_every_lane_alike(
        x in prop::collection::vec(-2.0f32..2.0, JET_LANES * 3),
        w in prop::collection::vec(-2.0f32..2.0, 6),
        b in prop::collection::vec(-2.0f32..2.0, 2),
    ) {
        // Feature-major: input feature i of lane k at x[i·6 + k].
        let mut g = Graph::new();
        let xv = g.constant(Tensor::from_vec(x.clone(), &[3, JET_LANES]));
        let wv = g.constant(Tensor::from_vec(w, &[2, 3]));
        let bv = g.constant(Tensor::from_vec(b, &[2]));
        let zero = g.constant(Tensor::zeros(&[2]));
        let lanes = g.linear(xv, wv, bv, Activation::Linear, JET_LANES);
        for k in 0..JET_LANES {
            let lane: Vec<f32> = x.iter().skip(k).step_by(JET_LANES).copied().collect();
            let col = g.constant(Tensor::from_vec(lane, &[3, 1]));
            let one = g.linear(col, wv, if k == 0 { bv } else { zero }, Activation::Linear, 1);
            let got: Vec<f32> = g.value(lanes).data().iter().skip(k).step_by(JET_LANES).copied().collect();
            prop_assert_eq!(&got[..], g.value(one).data());
        }
    }

    /// Concat/split on the tape round-trips values and routes gradients with
    /// conservation (sum of split gradients equals the upstream gradient).
    #[test]
    fn concat_gradient_conservation(
        a in prop::collection::vec(-1.0f32..1.0, 6),
        b in prop::collection::vec(-1.0f32..1.0, 9),
    ) {
        let ta = Tensor::from_vec(a, &[3, 2]);
        let tb = Tensor::from_vec(b, &[3, 3]);
        let mut g = Graph::new();
        let va = g.leaf_with_grad(ta);
        let vb = g.leaf_with_grad(tb);
        let cat = g.concat(&[va, vb], 1);
        let loss = g.sum(cat);
        g.backward(loss);
        prop_assert_eq!(g.grad(va).numel(), 6);
        prop_assert_eq!(g.grad(vb).numel(), 9);
        prop_assert!((g.grad(va).sum() - 6.0).abs() < 1e-5);
        prop_assert!((g.grad(vb).sum() - 9.0).abs() < 1e-5);
    }

    /// Trilinear sampling of a downsampled dataset at its own grid-point
    /// coordinates reproduces the HR values exactly (interpolation is the
    /// identity on grid points), for any stride combination.
    #[test]
    fn downsample_trilinear_consistent_on_shared_points(
        vals in prop::collection::vec(-5.0f32..5.0, 12),
        ft in 1usize..3, fs in 1usize..3,
    ) {
        let hr = synthetic_dataset(5, 5, 8, &vals);
        let lr = downsample(&hr, ft, fs);
        for f in 0..lr.meta.nt {
            let t = f as f64 * lr.dt();
            for j in 0..lr.meta.nz {
                let z = j as f64 * lr.dz();
                for i in 0..lr.meta.nx {
                    let x = i as f64 * lr.dx();
                    let got = sample_trilinear(&lr, t, z, x);
                    for (c, &gc) in got.iter().enumerate() {
                        let want = hr.at(f * ft, c, j * fs, i * fs);
                        prop_assert!(
                            (gc - want).abs() < 1e-4,
                            "({f},{c},{j},{i}): {gc} vs {want}"
                        );
                    }
                }
            }
        }
    }

    /// The telemetry ring buffer holds exactly the last `capacity` events and
    /// accounts for every drop, for any capacity / event-count combination.
    #[test]
    fn telemetry_ring_keeps_newest_and_counts_drops(
        capacity in 1usize..64, n in 0u64..200,
    ) {
        let (recorder, sink) = Recorder::memory(capacity);
        for step in 0..n {
            recorder.train_step(StepMetrics { step, ..Default::default() });
        }
        prop_assert_eq!(sink.len(), (n as usize).min(capacity));
        prop_assert_eq!(sink.dropped(), n.saturating_sub(capacity as u64));
        let kept = sink.train_steps();
        let first_kept = n - kept.len() as u64;
        for (k, m) in kept.iter().enumerate() {
            prop_assert_eq!(m.step, first_kept + k as u64);
        }
    }

    /// Event serialization never emits bare NaN/infinity tokens (which are
    /// not valid JSON) no matter what float values the metrics contain.
    #[test]
    fn telemetry_json_never_leaks_non_finite_tokens(
        loss in prop::num::f32::ANY, grad in prop::num::f32::ANY,
        gauge in prop::num::f64::ANY,
    ) {
        let step = Event::TrainStep(StepMetrics {
            loss_total: loss,
            grad_norm_pre: grad,
            ..Default::default()
        });
        let g = Event::Gauge { name: "g", value: gauge };
        for json in [step.to_json(), g.to_json()] {
            prop_assert!(json.starts_with('{') && json.ends_with('}'));
            for tok in ["NaN", "inf", "Infinity"] {
                prop_assert!(!json.contains(tok), "{json}");
            }
        }
    }

    /// Throughput accounting: samples/sec times the summed phase time gives
    /// back the sample count, whenever any time was recorded at all.
    #[test]
    fn telemetry_throughput_consistent_with_phase_times(
        samples in 1usize..4096,
        data in 0.0f64..10.0, fwd in 0.0f64..10.0, bwd in 0.0f64..10.0,
        wait in 0.0f64..10.0, opt in 0.0f64..10.0,
    ) {
        let m = StepMetrics {
            samples,
            data_s: data,
            forward_s: fwd,
            backward_s: bwd,
            allreduce_wait_s: wait,
            optimizer_s: opt,
            ..Default::default()
        };
        let total = data + fwd + bwd + wait + opt;
        prop_assert!((m.total_seconds() - total).abs() < 1e-12);
        if total > 0.0 {
            let back = m.samples_per_sec() * m.total_seconds();
            prop_assert!((back - samples as f64).abs() < 1e-6 * samples as f64);
        }
    }
}
