//! Integration tests of the distributed layer against the serial trainer.

use meshfreeflownet::core::{
    decode_train_state, Corpus, MeshfreeFlowNet, MfnConfig, TrainConfig, Trainer,
};
use meshfreeflownet::data::{downsample, Dataset, PatchSpec};
use meshfreeflownet::dist::{ring, train_data_parallel};
use meshfreeflownet::solver::{simulate, RbcConfig};

fn setup() -> (Corpus, MfnConfig, TrainConfig) {
    let sim =
        simulate(&RbcConfig { nx: 32, nz: 9, ra: 1e5, dt_max: 2e-3, ..Default::default() }, 0.4, 9);
    let hr = Dataset::from_simulation(&sim);
    let lr = downsample(&hr, 2, 2);
    let corpus = Corpus::new(vec![(hr, lr)]);
    let mut cfg = MfnConfig::small();
    cfg.patch = PatchSpec { nt: 4, nz: 4, nx: 8, queries: 16 };
    cfg.base_channels = 4;
    cfg.latent_channels = 8;
    cfg.mlp_hidden = vec![16, 16];
    cfg.levels = 2;
    let tc = TrainConfig {
        epochs: 3,
        batches_per_epoch: 4,
        batch_size: 2,
        lr: 5e-3,
        ..Default::default()
    };
    (corpus, cfg, tc)
}

/// Gradient averaging across 2 workers must equal the hand-computed average
/// of the two workers' gradients (computed serially with the same batches).
#[test]
fn all_reduced_gradient_equals_serial_average() {
    use meshfreeflownet::autodiff::{flatten_grads, Graph};
    use meshfreeflownet::data::make_batch;
    use meshfreeflownet::data::PatchSampler;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    let (corpus, cfg, _) = setup();
    let (hr, lr) = &corpus.pairs[0];
    let sampler = PatchSampler::new(hr, lr, cfg.patch);
    let batches: Vec<_> =
        (0..2).map(|i| make_batch(&sampler, 2, &mut ChaCha8Rng::seed_from_u64(50 + i))).collect();

    // Serial: gradient of each batch on a fresh model, then average.
    let serial_avg: Vec<f32> = {
        let mut sum: Vec<f32> = Vec::new();
        for b in &batches {
            let mut model = MeshfreeFlowNet::new(cfg.clone());
            let mut g = Graph::new();
            let (loss, _) = model.loss_on_batch(&mut g, b, corpus.params(0), corpus.stats, true);
            g.backward(loss);
            let flat = flatten_grads(&g.param_grads(&model.store));
            if sum.is_empty() {
                sum = flat;
            } else {
                for (a, b) in sum.iter_mut().zip(&flat) {
                    *a += b;
                }
            }
        }
        sum.iter().map(|v| v / 2.0).collect()
    };

    // Distributed: each worker computes one batch, then ring-averages.
    let handles = ring(2);
    let reduced: Vec<Vec<f32>> = std::thread::scope(|scope| {
        let joins: Vec<_> = handles
            .into_iter()
            .zip(batches.iter())
            .map(|(h, b)| {
                let cfg = cfg.clone();
                let corpus = &corpus;
                scope.spawn(move || {
                    let mut model = MeshfreeFlowNet::new(cfg);
                    let mut g = Graph::new();
                    let (loss, _) =
                        model.loss_on_batch(&mut g, b, corpus.params(0), corpus.stats, true);
                    g.backward(loss);
                    let mut flat = flatten_grads(&g.param_grads(&model.store));
                    h.all_reduce_mean(&mut flat, None).expect("healthy ring");
                    flat
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().expect("worker")).collect()
    });
    for worker in &reduced {
        assert_eq!(worker.len(), serial_avg.len());
        for (i, (a, b)) in worker.iter().zip(&serial_avg).enumerate() {
            assert!(
                (a - b).abs() < 1e-5 * (1.0 + b.abs()),
                "grad elem {i}: distributed {a} vs serial {b}"
            );
        }
    }
}

/// Data-parallel training produces a usable model: loss decreases and the
/// resulting parameters super-resolve without NaNs.
#[test]
fn distributed_model_is_usable_after_training() {
    let (corpus, cfg, mut tc) = setup();
    tc.epochs = 6;
    tc.batches_per_epoch = 6;
    tc.lr = 1e-2;
    let r = train_data_parallel(&corpus, &cfg, &tc, 2);
    assert!(*r.epoch_losses.last().expect("losses") < r.epoch_losses[0], "{:?}", r.epoch_losses);
    // Load the trained parameters into a fresh model and run inference.
    let mut model = MeshfreeFlowNet::new(cfg);
    model.store.unflatten_into(&r.final_params);
    let (hr, lr) = &corpus.pairs[0];
    let sr = model.super_resolve(lr, &hr.meta, corpus.stats);
    assert!(sr.data.iter().all(|v| v.is_finite()));
}

/// Serial trainer and 1-worker distributed trainer share the loss scale.
#[test]
fn one_worker_distributed_matches_serial_scale() {
    let (corpus, cfg, tc) = setup();
    let r = train_data_parallel(&corpus, &cfg, &tc, 1);
    let mut serial = Trainer::new(MeshfreeFlowNet::new(cfg), tc);
    let records = serial.train(&corpus);
    let d = *r.epoch_losses.last().expect("dist");
    let s = records.last().expect("serial").loss;
    assert!((d - s).abs() < 0.5 * (d + s), "loss scales diverged: dist {d} vs serial {s}");
}

/// One worker of the data-parallel driver *is* the serial trainer: the same
/// rank body with an all-reduce over a world of one. Parameters, and the
/// model decoded from the run's final state (batch-norm statistics
/// included), agree bit for bit, with and without LR decay.
#[test]
fn one_worker_distributed_is_the_serial_trainer_bit_for_bit() {
    let (corpus, cfg, tc) = setup();
    for lr_decay in [1.0, 0.9] {
        let tc = TrainConfig { lr_decay, ..tc };
        let r = train_data_parallel(&corpus, &cfg, &tc, 1);
        let mut serial = Trainer::new(MeshfreeFlowNet::new(cfg.clone()), tc);
        serial.train(&corpus);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&r.final_params),
            bits(&serial.model.store.flatten()),
            "lr_decay {lr_decay}"
        );
        let mut decoded = MeshfreeFlowNet::new(cfg.clone());
        decode_train_state(&mut decoded, &mut r.final_state.as_slice()).expect("own state");
        let bn = |m: &MeshfreeFlowNet| {
            let mut bytes = Vec::new();
            m.write_bn_stats(&mut bytes).expect("vec write");
            bytes
        };
        assert_eq!(bn(&decoded), bn(&serial.model), "lr_decay {lr_decay}");
        assert_eq!(bits(&decoded.store.flatten()), bits(&r.final_params), "lr_decay {lr_decay}");
    }
}
