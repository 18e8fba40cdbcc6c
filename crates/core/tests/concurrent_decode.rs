//! Concurrent callers of the threaded no-grad decode on one shared
//! [`FrozenModel`]: every caller spawns its own scoped helper, all of them
//! draw scratch from the one workspace pool, and nothing is left checked out.
//! A test binary of its own (one test, one process) because it reads the
//! pool's global counters.

use mfn_core::{FrozenModel, MeshfreeFlowNet, MfnConfig};
use mfn_data::PatchSpec;
use mfn_tensor::{workspace, Tensor};
use std::sync::Barrier;

const CALLERS: usize = 4;
const CALLS: usize = 6;
/// Above the 1,024-query split threshold, and off the block size: 40 blocks,
/// the last of 4 queries.
const QUERIES: usize = 2_500;

fn queries(caller: usize, call: usize) -> impl Iterator<Item = (usize, [f32; 3])> + Clone {
    (0..QUERIES).map(move |i| {
        let f = (i + 37 * call) as f32 / (QUERIES + 37 * CALLS) as f32;
        (0, [f, (f * 7.3 + 0.1 * caller as f32).fract(), (f * 13.1).fract()])
    })
}

#[test]
fn concurrent_threaded_decodes_agree_and_return_every_buffer() {
    let mut cfg = MfnConfig::small();
    cfg.patch = PatchSpec { nt: 4, nz: 4, nx: 4, queries: 16 };
    cfg.base_channels = 4;
    cfg.latent_channels = 8;
    cfg.mlp_hidden = vec![16, 16];
    cfg.levels = 2;
    let model = FrozenModel::from_model(MeshfreeFlowNet::new(cfg));
    let latent = model.encode(&Tensor::ones(&[1, 4, 4, 4, 4]));

    workspace::clear();
    workspace::reset_stats();
    let start = Barrier::new(CALLERS);
    std::thread::scope(|s| {
        for caller in 0..CALLERS {
            let (model, latent, start) = (&model, &latent, &start);
            s.spawn(move || {
                // Every caller is inside a decode at once, helpers included.
                start.wait();
                for call in 0..CALLS {
                    let got = model.decode_values(latent, queries(caller, call));
                    let want = model.decode_values_on(1, latent, queries(caller, call));
                    assert_eq!(got.dims(), &[QUERIES, 4]);
                    assert!(
                        got.data().iter().zip(want.data()).all(|(a, b)| a.to_bits() == b.to_bits()),
                        "caller {caller} call {call}"
                    );
                }
            });
        }
    });

    // Results dropped, helpers joined: every checkout has come back (fewer
    // than a bucket's 32 buffers were ever out at once, so none was freed
    // instead of shelved), and what the freelist keeps is what was in use at
    // the busiest moment, not what 48 decodes asked for.
    let s = workspace::stats();
    assert_eq!(s.hits + s.misses, s.recycled, "a buffer is still checked out: {s:?}");
    assert_eq!(s.cached_buffers as u64, s.misses, "{s:?}");
    assert!(s.cached_bytes <= 256 << 20, "freelist over its cap: {s:?}");
    assert!(s.hits > s.misses, "the pool is not being reused across calls: {s:?}");
}
