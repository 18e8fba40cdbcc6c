//! The Continuous Decoding Network (paper Sec. 4.2, Fig. 4).
//!
//! A query at local patch coordinates `(t, z, x) ∈ [0,1]³` falls into one
//! cell of the Latent Context Grid. The decoder runs the shared MLP once per
//! bounding vertex — on the concatenation of the query's coordinates
//! *relative to that vertex* and the vertex's latent vector — and blends the
//! 8 results with trilinear weights (Eqn. 6).
//!
//! Both evaluation paths are *feature-major* from gather to blend: the
//! activations over `M` vertex points are `[width, M]`, so the MLP weights sit
//! on the micro-kernel tile's rows (the conv driver's A panels), the
//! activations are its B operand as they lie, no layer transposes anything,
//! and the blend writes the `[Q, out]` rows the losses read:
//!
//! - **tape**: [`ContinuousDecoder::decode`] records the computation on the
//!   reverse-mode graph (training and test-time refinement — whatever needs
//!   a gradient), one fused `Graph::linear` node per MLP layer.
//!   [`ContinuousDecoder::decode_derivs`] is the same recording on six
//!   lanes, column blocks of each feature row: the value with its exact
//!   `∂t, ∂z, ∂x, ∂zz, ∂xx` in physical units, through the MLP (whose first
//!   node, `Graph::linear_seeded`, makes the lanes from the one-lane input)
//!   *and* (by the product rule) the trilinear blending — what the PDE
//!   residuals read, differentiable like any other node;
//! - **no-grad**: `decode_packed` evaluates the same values, bit for bit,
//!   with no tape, a block of queries at a time, on weights packed into GEMM
//!   A panels once ([`PackedMlp`]), when the frozen engine (`FrozenModel`,
//!   every inference path: serving, `super_resolve`, evaluation) is built.
//!   Blocks are independent — each is planned, decoded and blended by
//!   whichever worker takes it — so a call of 1,024 queries or more
//!   splits its blocks over the host's cores (`decode_blocked`, taking
//!   turns through `mfn_tensor::in_turns`); the kernels under a block stay
//!   single-threaded.

use mfn_autodiff::{Graph, Mlp, PackedMlp, ParamStore, Var};
use mfn_tensor::workspace::{self, WorkspaceGuard};
use mfn_tensor::{
    blend_features_into, cores, gather_features, in_turns, timed, ConvStages, Tensor, Turns,
};

/// Number of bounding vertices of a 3D cell.
pub const VERTICES: usize = 8;

/// Queries the no-grad decode evaluates at a time: 512 rows, one `NC` column
/// slab of the GEMM driver — so each layer reads its activations in place
/// (`PackedConv3d::forward_slices`) — and what bounds the decode's scratch
/// (two ping-pong buffers of 512 rows × the widest layer, 256 KiB each for a
/// 128-wide MLP, L2-resident) however many queries a call brings. With the
/// weights prepacked a block has no fixed cost to amortize beyond that.
const BLOCK_QUERIES: usize = 64;

/// Wall time of one staged no-grad decode by stage, for the `decode_values`
/// bench rows (nanoseconds, accumulated over the call).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DecodeStages {
    /// Planning each block's queries: cell lookup, relative coordinates,
    /// weights.
    pub plan_ns: f64,
    /// Gathering vertex latents and coordinates into each block's MLP input.
    pub gather_ns: f64,
    /// The MLP layers: B-pack, micro-kernel, bias + activation.
    pub layers: ConvStages,
    /// The trilinear blend into the result.
    pub blend_ns: f64,
}

/// Blocks a worker must have before a second one is worth a hand-off: a
/// block is ≈ 420 µs of decode at the bench decoder's serving widths
/// (`decode_values.rows[2]`, 64 queries) and a hand-off at most
/// `handoff.woken_us` (28.16 µs, `BENCH_kernels.json` v22, to a helper that
/// has blocked), so a call splits from 16 blocks (1,024 queries, ≈ 5.5 ms)
/// up, and every serving decode (≤ 64 points, one block) stays on the
/// thread that asked and hires no helper.
const BLOCKS_PER_WORKER: usize = 8;

/// Threads an unstaged no-grad decode of `queries` points runs on: as many
/// as the call can feed and the host has,
/// `min(available_parallelism(), blocks / 8)`, and at least one. Public for
/// the bench's `workers` column only.
#[doc(hidden)]
pub fn decode_workers(queries: usize) -> usize {
    let fed = queries.div_ceil(BLOCK_QUERIES) / BLOCKS_PER_WORKER;
    if fed < 2 {
        return 1;
    }
    fed.min(cores())
}

/// The queries of one no-grad decode, by index: `len` points on a latent
/// grid of vertex dims `grid`, point `i` being `at(i)` — a `(batch, [t, z,
/// x])` pair with local coordinates in `[0, 1]`. Asking by index lets each
/// worker plan the blocks it takes, so no plan of the whole call is built.
pub(crate) struct Queries<F> {
    pub grid: [usize; 3],
    pub len: usize,
    pub at: F,
}

/// The no-grad decode: `decode_blocked` at the production block size, on
/// `workers` threads or — `None`, every production call — on
/// [`decode_workers`] of them, one when `stages` is given (stage times are
/// one thread's).
pub(crate) fn decode_packed<F: Fn(usize) -> (usize, [f32; 3]) + Sync>(
    mlp: &PackedMlp,
    latent: &Tensor,
    queries: &Queries<F>,
    workers: Option<usize>,
    stages: Option<&mut DecodeStages>,
) -> Tensor {
    let workers = match workers {
        Some(workers) => workers,
        None if stages.is_some() => 1,
        None => decode_workers(queries.len),
    };
    decode_blocked(mlp, latent, queries, BLOCK_QUERIES, workers, stages)
}

/// The no-grad decode pipeline, one block of `block_queries` queries at a
/// time: plan the block's queries (cell, relative coordinates, weights) →
/// gather + coordinate de-interleave into `[3 + n_c, rows]` → every MLP
/// layer (bias and activation included) → trilinear blend straight into the
/// `[Q, out]` result. The plan and the intermediates live in block-sized
/// buffers per worker, so memory does not grow with the query count, and
/// nothing of the call is planned before its threads start.
///
/// Blocking is invisible in the output: every stage is point-wise, and a
/// GEMM output column does not depend on how many columns the call has
/// (`mfn_tensor::gemm` module doc), so any block size gives the bits of a
/// single pass. A short last block is `[width, rows]` at its own `rows`: the
/// B-pack zero-fills the columns of its last tile and the write-back stores
/// none of them, so nothing past `rows` is read, stored or blended.
///
/// So is the thread count: every block is planned and decoded whole into its
/// own slice of the result, and `workers` threads take turns at the blocks
/// (`mfn_tensor::in_turns`, one worker being the same call with nothing
/// handed off), each with its own plan and block buffers.
fn decode_blocked<F: Fn(usize) -> (usize, [f32; 3]) + Sync>(
    mlp: &PackedMlp,
    latent: &Tensor,
    queries: &Queries<F>,
    block_queries: usize,
    workers: usize,
    stages: Option<&mut DecodeStages>,
) -> Tensor {
    assert!(queries.len > 0, "no queries to decode");
    assert!(workers == 1 || stages.is_none(), "stage times are one thread's");
    let (in_width, out_channels) = (mlp.in_features(), mlp.out_features());
    let block_rows = block_queries.min(queries.len) * VERTICES;
    let mut out = workspace::take_scratch(queries.len * out_channels);
    type Blocks<'a> = Turns<std::iter::Enumerate<std::slice::ChunksMut<'a, f32>>>;
    let scratch = || {
        let block = || workspace::take_scratch(block_rows * mlp.max_width());
        (QueryPlan::default(), block(), block())
    };
    let work = |(plan, cur, next): &mut (QueryPlan, WorkspaceGuard, WorkspaceGuard),
                blocks: &Blocks<'_>,
                mut stages: Option<&mut DecodeStages>| {
        for (b, out_block) in blocks {
            let first = b * block_queries;
            let points = (first..first + out_block.len() / out_channels).map(&queries.at);
            let plan_block = || plan_queries_into(plan, queries.grid, points);
            timed(&mut stages, |s| &mut s.plan_ns, plan_block);
            let input = &mut cur[..plan.index.len() * in_width];
            let gather = || gather_features(latent, &plan.index, &plan.rel, input);
            timed(&mut stages, |s| &mut s.gather_ns, gather);
            let layers = stages.as_deref_mut().map(|s| &mut s.layers);
            let values = mlp.forward(plan.index.len(), cur, next, layers);
            let blend = || blend_features_into(values, &plan.weights, VERTICES, out_block);
            timed(&mut stages, |s| &mut s.blend_ns, blend);
        }
    };
    let blocks = out.chunks_mut(block_queries * out_channels).enumerate();
    in_turns(workers, blocks, scratch, |s, b| work(s, b, stages), |s, b| work(s, b, None));
    Tensor::from_guard(out, &[queries.len, out_channels])
}

/// Precomputed lookup data for a set of queries against one latent grid.
#[derive(Debug, Clone, Default)]
pub struct QueryPlan {
    /// Flat vertex indices (`batch·vol + spatial`), `Q × 8` entries.
    pub index: Vec<u32>,
    /// Relative coordinates `(t, z, x)` per vertex row, `Q × 8 × 3`.
    pub rel: Vec<f32>,
    /// Trilinear blending weights, `Q × 8` entries.
    pub weights: Vec<f32>,
}

impl QueryPlan {
    /// Number of query points in the plan.
    pub fn len(&self) -> usize {
        self.weights.len() / VERTICES
    }

    /// Whether the plan holds no queries.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// `∂w/∂t`, `∂w/∂z`, `∂w/∂x` of every trilinear weight (`Q × 8` entries
    /// per axis), where the cell fraction along axis `a` advances by
    /// `scale[a]` per unit of the coordinate differentiated by. A weight is a
    /// product of one factor per axis, `f` or `1 − f`, so its derivative
    /// along an axis is `± scale` times the other two factors.
    pub fn weight_derivs(&self, scale: [f32; 3]) -> [Vec<f32>; 3] {
        let mut out = [0, 1, 2].map(|_| Vec::with_capacity(self.weights.len()));
        for rel in self.rel.chunks_exact(VERTICES * 3) {
            // Vertex 0 sits at the cell's origin: its `rel` is the fraction.
            let f = [rel[0], rel[1], rel[2]];
            for v in 0..VERTICES {
                let upper = [(v >> 2) & 1 == 1, (v >> 1) & 1 == 1, v & 1 == 1];
                let factor = |a: usize| if upper[a] { f[a] } else { 1.0 - f[a] };
                for (a, out) in out.iter_mut().enumerate() {
                    let slope = if upper[a] { scale[a] } else { -scale[a] };
                    out.push(slope * factor((a + 1) % 3) * factor((a + 2) % 3));
                }
            }
        }
        out
    }
}

/// Per-axis cell lookup: lower vertex index and fractional offset on the
/// vertex grid (`n` vertices spanning local `[0, 1]`).
#[inline]
fn locate(local: f32, n: usize) -> (usize, f32) {
    let s = (local.clamp(0.0, 1.0)) * (n - 1) as f32;
    let i = (s.floor() as usize).min(n.saturating_sub(2));
    (i, s - i as f32)
}

/// Builds a [`QueryPlan`] for queries on a latent grid of vertex dims
/// `[nt, nz, nx]`. `queries` supplies `(batch_index, [t, z, x])` pairs with
/// local coordinates in `[0, 1]`.
pub fn plan_queries(
    grid_dims: [usize; 3],
    queries: impl IntoIterator<Item = (usize, [f32; 3])>,
) -> QueryPlan {
    let mut plan = QueryPlan::default();
    plan_queries_into(&mut plan, grid_dims, queries);
    plan
}

/// [`plan_queries`] into `plan`, replacing its contents but keeping its
/// buffers — for the no-grad decode, where each worker plans block after
/// block of 64 queries into one plan of its own (≈ 10 KiB).
fn plan_queries_into(
    plan: &mut QueryPlan,
    grid_dims: [usize; 3],
    queries: impl IntoIterator<Item = (usize, [f32; 3])>,
) {
    let [nt, nz, nx] = grid_dims;
    assert!(nt >= 2 && nz >= 2 && nx >= 2, "latent grid needs >= 2 vertices per axis");
    let vol = (nt * nz * nx) as u32;
    let queries = queries.into_iter();
    let rows = queries.size_hint().0 * VERTICES;
    plan.index.clear();
    plan.rel.clear();
    plan.weights.clear();
    plan.index.reserve(rows);
    plan.rel.reserve(rows * 3);
    plan.weights.reserve(rows);
    for (b, local) in queries {
        let (it, ft) = locate(local[0], nt);
        let (iz, fz) = locate(local[1], nz);
        let (ix, fx) = locate(local[2], nx);
        for v in 0..VERTICES {
            let (dt, dz, dx) = ((v >> 2) & 1, (v >> 1) & 1, v & 1);
            let flat = b as u32 * vol + (((it + dt) * nz + (iz + dz)) * nx + (ix + dx)) as u32;
            plan.index.push(flat);
            plan.rel.push(ft - dt as f32);
            plan.rel.push(fz - dz as f32);
            plan.rel.push(fx - dx as f32);
            let wt = if dt == 1 { ft } else { 1.0 - ft };
            let wz = if dz == 1 { fz } else { 1.0 - fz };
            let wx = if dx == 1 { fx } else { 1.0 - fx };
            plan.weights.push(wt * wz * wx);
        }
    }
}

/// The shared decoding MLP plus its latent/output widths.
#[derive(Debug, Clone)]
pub struct ContinuousDecoder {
    /// The decoding MLP (`[3 + n_c, …hidden…, out]`).
    pub mlp: Mlp,
    /// Latent vector width `n_c`.
    pub latent_channels: usize,
    /// Physical output channels.
    pub out_channels: usize,
}

impl ContinuousDecoder {
    /// Wraps an MLP whose input width must equal `3 + latent_channels`.
    pub fn new(mlp: Mlp, latent_channels: usize) -> Self {
        assert_eq!(
            mlp.in_features(),
            3 + latent_channels,
            "decoder MLP input must be 3 coords + latent"
        );
        let out_channels = mlp.out_features();
        ContinuousDecoder { mlp, latent_channels, out_channels }
    }

    /// Tape path: decodes a plan against a latent grid node
    /// `latent: [N, n_c, nt, nz, nx]`, returning predictions `[Q, out]`.
    pub fn decode(&self, g: &mut Graph, store: &ParamStore, latent: Var, plan: &QueryPlan) -> Var {
        self.decode_lanes(g, store, latent, plan, None)
    }

    /// [`ContinuousDecoder::decode`] with exact space-time derivatives: the
    /// result `[JET_LANES·Q, out]` stacks the predictions (the rows `decode`
    /// returns, bit for bit) over their `∂t, ∂z, ∂x, ∂zz, ∂xx` with respect
    /// to *physical* coordinates, for a patch of `extent_phys` per axis on
    /// `grid_dims` vertices (of the normalized outputs — denormalization is
    /// the caller's job). On a cell face the derivatives are those of the
    /// cell the query was located in.
    pub fn decode_derivs(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        latent: Var,
        plan: &QueryPlan,
        grid_dims: [usize; 3],
        extent_phys: [f64; 3],
    ) -> Var {
        // d(frac)/d(phys): frac advances by (n-1) per unit local coordinate.
        let scale =
            [0, 1, 2].map(|a| ((grid_dims[a] - 1) as f64 / extent_phys[a].max(1e-30)) as f32);
        self.decode_lanes(g, store, latent, plan, Some(scale))
    }

    /// The one tape recording: the gather under the relative coordinates,
    /// the MLP, the blend — on one lane, or with `scale =
    /// d(rel)/d(coordinate)` on six. The MLP's first layer makes the six
    /// lanes of its input from `scale` ([`Graph::linear_seeded`]): each
    /// relative coordinate moves with its own axis at that rate, the latent
    /// vector (fixed at a vertex) with none, and nothing has curvature.
    fn decode_lanes(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        latent: Var,
        plan: &QueryPlan,
        scale: Option<[f32; 3]>,
    ) -> Var {
        assert!(!plan.is_empty(), "empty query plan");
        let inp = g.gather_vertices(latent, plan.index.clone(), &plan.rel);
        let out = self.mlp.forward(g, store, inp, scale);
        match scale {
            None => g.vertex_blend(out, plan.weights.clone(), VERTICES),
            Some(scale) => {
                let slopes = plan.weight_derivs(scale);
                g.blend_jet(out, plan.weights.clone(), slopes, VERTICES)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfn_autodiff::{Activation, JET_LANES};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup() -> (ParamStore, ContinuousDecoder) {
        let mut store = ParamStore::new();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mlp = Mlp::new(&mut store, "dec", &[3 + 6, 24, 16, 4], Activation::Softplus, &mut rng);
        let dec = ContinuousDecoder::new(mlp, 6);
        (store, dec)
    }

    fn random_latent(seed: u64, dims: &[usize]) -> Tensor {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Tensor::randn(dims, 0.5, &mut rng)
    }

    /// Query `i` of `q` scattered over both samples of a `[3, 4, 4]` grid.
    fn scattered_point(i: usize, q: usize) -> (usize, [f32; 3]) {
        let f = i as f32 / q as f32;
        (i % 2, [f, (f * 7.3).fract(), (f * 13.1).fract()])
    }

    /// Those `q` queries as the no-grad decode asks for them, by index.
    fn scattered(q: usize) -> Queries<impl Fn(usize) -> (usize, [f32; 3]) + Sync> {
        Queries { grid: [3, 4, 4], len: q, at: move |i| scattered_point(i, q) }
    }

    /// Those `q` queries planned whole, as the tape takes them.
    fn scattered_plan(q: usize) -> QueryPlan {
        plan_queries([3, 4, 4], (0..q).map(|i| scattered_point(i, q)))
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn plan_weights_partition_unity() {
        let plan = plan_queries(
            [4, 8, 8],
            (0..50).map(|q| {
                let f = q as f32 / 49.0;
                (0usize, [f, (f * 0.7).fract(), (f * 1.3).fract()])
            }),
        );
        assert_eq!(plan.len(), 50);
        for q in 0..50 {
            let s: f32 = plan.weights[q * 8..(q + 1) * 8].iter().sum();
            assert!((s - 1.0).abs() < 1e-5, "query {q} weights sum {s}");
        }
    }

    #[test]
    fn plan_vertex_query_hits_single_vertex() {
        // A query exactly on vertex (1,2,3) of a [4,8,8] grid.
        let local = [1.0 / 3.0, 2.0 / 7.0, 3.0 / 7.0];
        let plan = plan_queries([4, 8, 8], [(0usize, local)]);
        let hot: Vec<usize> = (0..8).filter(|&v| plan.weights[v].abs() > 1e-5).collect();
        assert_eq!(hot.len(), 1);
        let v = hot[0];
        assert!((plan.weights[v] - 1.0).abs() < 1e-5);
        // That vertex must be (1,2,3) flattened on [4,8,8].
        assert_eq!(plan.index[v], ((8 + 2) * 8 + 3) as u32);
        // Its relative coordinates are 0.
        for a in 0..3 {
            assert!(plan.rel[v * 3 + a].abs() < 1e-5);
        }
    }

    #[test]
    fn decode_shapes_and_determinism() {
        let (store, dec) = setup();
        let latent = random_latent(1, &[2, 6, 3, 4, 4]);
        let queries: Vec<(usize, [f32; 3])> =
            vec![(0, [0.2, 0.3, 0.4]), (1, [0.9, 0.1, 0.5]), (0, [0.0, 1.0, 0.5])];
        let plan = plan_queries([3, 4, 4], queries);
        let run = || {
            let mut g = Graph::new();
            let l = g.constant(latent.clone());
            let y = dec.decode(&mut g, &store, l, &plan);
            g.value(y).clone()
        };
        let a = run();
        assert_eq!(a.dims(), &[3, 4]);
        assert_eq!(a, run());
    }

    #[test]
    fn value_lane_is_the_plain_decode_bit_for_bit() {
        // Interior, patch-wall and latent-cell-face points: the rows of the
        // six-lane GEMMs that carry the value never see the other lanes.
        let (store, dec) = setup();
        let latent = random_latent(2, &[2, 6, 3, 4, 4]);
        let queries = [
            (0, [0.37, 0.61, 0.23]),
            (1, [0.0, 1.0, 0.5]),
            (0, [1.0, 0.0, 1.0]),
            (1, [0.5, 1.0 / 3.0, 2.0 / 3.0]),
        ];
        let plan = plan_queries([3, 4, 4], queries);
        let mut g = Graph::new();
        let l = g.constant(latent);
        let y = dec.decode(&mut g, &store, l, &plan);
        let lanes = dec.decode_derivs(&mut g, &store, l, &plan, [3, 4, 4], [2.0, 0.5, 1.5]);
        assert_eq!(g.value(lanes).dims(), &[JET_LANES * 4, 4]);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&g.value(lanes).data()[..16]), bits(g.value(y).data()));
    }

    /// The six-lane decode with the first layer recorded densely: the seed
    /// lanes as a constant concatenated beside the value lane, and every
    /// layer a six-lane `Graph::linear` — what `linear_seeded` replaces.
    fn dense_decode_derivs(
        dec: &ContinuousDecoder,
        g: &mut Graph,
        store: &ParamStore,
        latent: Var,
        plan: &QueryPlan,
        scale: [f32; 3],
    ) -> Var {
        let n = plan.index.len();
        let inp = g.gather_vertices(latent, plan.index.clone(), &plan.rel);
        // Lanes 1-5 of each input feature: lane 1 + a of coordinate a is its
        // scale, everything else zero.
        let width = 3 + dec.latent_channels;
        let mut seed = Tensor::zeros(&[width, (JET_LANES - 1) * n]);
        for (axis, row) in seed.data_mut().chunks_mut((JET_LANES - 1) * n).take(3).enumerate() {
            row[axis * n..(axis + 1) * n].fill(scale[axis]);
        }
        let seed = g.constant(seed);
        let mut h = g.concat(&[inp, seed], 1);
        let last = dec.mlp.layers.len() - 1;
        for (i, layer) in dec.mlp.layers.iter().enumerate() {
            let act = if i == last { Activation::Linear } else { dec.mlp.activation };
            h = layer.forward(g, store, h, act, JET_LANES);
        }
        g.blend_jet(h, plan.weights.clone(), plan.weight_derivs(scale), VERTICES)
    }

    /// The seeded first layer is the dense one: for every activation, at
    /// interior, patch-wall and latent-cell-face points, the six lanes and
    /// the latent gradient of the equation loss are bit-identical, and so is
    /// every weight gradient but the first layer's coordinate columns (their
    /// seed-lane sums are added in another order), which stay inside the
    /// `eq_weight_grad` oracle row's budget of each other.
    #[test]
    fn seeded_first_layer_is_the_dense_six_lane_layer() {
        use crate::losses::{equation_loss, ChannelStats, ConstraintSet};
        let (grid, extent) = ([3usize, 4, 4], [2.0f64, 0.5, 1.5]);
        let scale = [0, 1, 2].map(|a| ((grid[a] - 1) as f64 / extent[a]) as f32);
        let plan = plan_queries(
            grid,
            [
                (0, [0.37, 0.61, 0.23]),
                (1, [0.81, 0.12, 0.95]),
                (1, [0.0, 1.0, 0.5]),
                (0, [1.0, 0.0, 1.0]),
                (1, [0.5, 1.0 / 3.0, 2.0 / 3.0]),
                (0, [0.5, 0.29, 1.0 / 3.0]),
            ],
        );
        let latent = random_latent(12, &[2, 6, 3, 4, 4]);
        let stats = ChannelStats { mean: [0.1, -0.2, 0.05, 0.0], std: [1.5, 0.7, 1.2, 0.9] };
        for act in [Activation::Softplus, Activation::Tanh, Activation::Relu, Activation::Linear] {
            let mut store = ParamStore::new();
            let mut rng = ChaCha8Rng::seed_from_u64(13);
            let mlp = Mlp::new(&mut store, "dec", &[3 + 6, 24, 16, 4], act, &mut rng);
            let dec = ContinuousDecoder::new(mlp, 6);
            let run = |dense: bool| {
                let mut g = Graph::new();
                let l = g.leaf_with_grad(latent.clone());
                let lanes = if dense {
                    dense_decode_derivs(&dec, &mut g, &store, l, &plan, scale)
                } else {
                    dec.decode_derivs(&mut g, &store, l, &plan, grid, extent)
                };
                let params = mfn_physics::RbcParams::from_ra_pr(1e5, 1.0);
                let (loss, _) = equation_loss(&mut g, lanes, params, stats, ConstraintSet::ALL);
                let lanes = bits(g.value(lanes));
                g.backward(loss);
                (lanes, bits(g.grad(l)), g.param_grads(&store))
            };
            let (want, got) = (run(true), run(false));
            assert_eq!(got.0, want.0, "{act:?}: six lanes");
            assert_eq!(got.1, want.1, "{act:?}: latent gradient");
            for (p, (got, want)) in got.2.iter().zip(&want.2).enumerate() {
                if p != 0 {
                    assert_eq!(bits(got), bits(want), "{act:?}: gradient of parameter {p}");
                    continue;
                }
                let gmax = want.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
                for (i, (&a, &b)) in got.data().iter().zip(want.data()).enumerate() {
                    if i % (3 + 6) >= 3 {
                        assert_eq!(a.to_bits(), b.to_bits(), "{act:?}: first-layer dW[{i}]");
                    } else {
                        assert!((a - b).abs() <= 4e-6 * gmax, "{act:?}: dW[{i}] {a} vs {b}");
                    }
                }
            }
        }
    }

    #[test]
    fn derivative_lanes_match_finite_differences_of_the_decode() {
        let (store, dec) = setup();
        let latent = random_latent(3, &[1, 6, 3, 4, 4]);
        let extent = [2.0f64, 0.5, 1.5];
        // Chosen so the test's own ± 0.01 steps stay inside one latent cell:
        // the decoder is only C⁰ across cell faces, where the lanes
        // (one-sided, exact) and finite differences (face-straddling)
        // legitimately disagree.
        let local = [0.41, 0.52, 0.45];
        let value = |loc: [f32; 3]| -> Vec<f32> {
            let plan = plan_queries([3, 4, 4], [(0usize, loc)]);
            let mut g = Graph::new();
            let l = g.constant(latent.clone());
            let y = dec.decode(&mut g, &store, l, &plan);
            g.value(y).data().to_vec()
        };
        let plan = plan_queries([3, 4, 4], [(0usize, local)]);
        let mut g = Graph::new();
        let l = g.constant(latent.clone());
        let lanes = dec.decode_derivs(&mut g, &store, l, &plan, [3, 4, 4], extent);
        let lane = |k: usize, o: usize| g.value(lanes).data()[k * 4 + o] as f64;
        // FD in *physical* units: a local step is step·extent physically.
        let step = 1e-2f32;
        for axis in 0..3 {
            let h_phys = step as f64 * extent[axis];
            let mut lp = local;
            lp[axis] += step;
            let mut lm = local;
            lm[axis] -= step;
            let (fp, fm, f0) = (value(lp), value(lm), value(local));
            for o in 0..4 {
                let d_fd = (fp[o] - fm[o]) as f64 / (2.0 * h_phys);
                let d = lane(1 + axis, o);
                assert!(
                    (d - d_fd).abs() < 2e-2 * (1.0 + d_fd.abs()),
                    "axis {axis} ch {o}: {d} fd {d_fd}"
                );
                if axis > 0 {
                    let dd_fd = (fp[o] - 2.0 * f0[o] + fm[o]) as f64 / (h_phys * h_phys);
                    let dd = lane(3 + axis, o);
                    assert!(
                        (dd - dd_fd).abs() < 2e-1 * (1.0 + dd_fd.abs()),
                        "axis {axis} ch {o}: second derivative {dd} fd {dd_fd}"
                    );
                }
            }
        }
    }

    #[test]
    fn gradients_flow_to_latent_grid() {
        let (store, dec) = setup();
        let latent = random_latent(4, &[1, 6, 3, 4, 4]);
        let plan = plan_queries([3, 4, 4], [(0usize, [0.5, 0.5, 0.5])]);
        let mut g = Graph::new();
        let l = g.leaf_with_grad(latent);
        let y = dec.decode(&mut g, &store, l, &plan);
        let sq = g.mul(y, y);
        let loss = g.sum(sq);
        g.backward(loss);
        assert!(g.grad(l).max_abs() > 0.0, "no gradient reached the latent grid");
    }

    /// Blocking is invisible: any query count gives the bits of one pass
    /// over all rows (planned as one block), and those of the tape over the
    /// whole call's plan.
    #[test]
    fn blocked_decode_is_bit_identical_to_a_single_block() {
        const B: usize = BLOCK_QUERIES;
        let (store, dec) = setup();
        let packed = dec.mlp.pack(&store);
        let latent = random_latent(7, &[2, 6, 3, 4, 4]);
        for q in [1, B - 1, B, B + 1, 3 * B + 7] {
            let queries = scattered(q);
            let whole = decode_blocked(&packed, &latent, &queries, q, 1, None);
            assert_eq!(whole.dims(), &[q, 4]);
            assert_eq!(
                bits(&decode_packed(&packed, &latent, &queries, None, None)),
                bits(&whole),
                "no-grad, Q={q}"
            );
            let mut g = Graph::new();
            let l = g.constant(latent.clone());
            let tape = dec.decode(&mut g, &store, l, &scattered_plan(q));
            assert_eq!(bits(g.value(tape)), bits(&whole), "tape, Q={q}");
        }
    }

    /// So is the thread count: query counts with a short last block, that
    /// split (16 blocks and up) or stay whole under the production rule, more
    /// workers than that rule would use and more than there are blocks —
    /// all the bits of one worker, at the production block size and at one
    /// query a block, whichever thread ends up planning and decoding which
    /// block.
    #[test]
    fn worker_count_is_invisible_in_the_output() {
        const B: usize = BLOCK_QUERIES;
        let (store, dec) = setup();
        let packed = dec.mlp.pack(&store);
        let latent = random_latent(10, &[2, 6, 3, 4, 4]);
        for q in [2, 15 * B, 16 * B + 1, 23 * B + 37] {
            let queries = scattered(q);
            let whole = decode_blocked(&packed, &latent, &queries, q, 1, None);
            for block in [1, B] {
                for workers in [1, 2, 3] {
                    let got = decode_blocked(&packed, &latent, &queries, block, workers, None);
                    assert_eq!(bits(&got), bits(&whole), "Q={q} block={block} workers={workers}");
                }
            }
            let picked = decode_packed(&packed, &latent, &queries, None, None);
            assert_eq!(bits(&picked), bits(&whole), "Q={q}, the count the call picks");
            let mut stages = DecodeStages::default();
            let staged = decode_packed(&packed, &latent, &queries, None, Some(&mut stages));
            assert_eq!(bits(&staged), bits(&whole), "Q={q}, staged");
            assert!(stages.plan_ns > 0.0 && stages.blend_ns > 0.0, "Q={q}: {stages:?}");
        }
    }

    /// Tail-block hygiene: tiles compute whole `nr`-column panels, so a
    /// short last block must never let stale scratch past its `rows` reach a
    /// store or the blend. With every pool bucket the decode draws from
    /// poisoned with NaN, the result equals the clean run.
    #[test]
    fn short_last_block_never_reads_stale_scratch() {
        let (store, dec) = setup();
        let packed = dec.mlp.pack(&store);
        let latent = random_latent(8, &[2, 6, 3, 4, 4]);
        let q = 2 * BLOCK_QUERIES + 3;
        let at = |i: usize| {
            let f = i as f32 / q as f32;
            (i % 2, [(f * 3.7).fract(), f, (f * 11.3).fract()])
        };
        let queries = Queries { grid: [3, 4, 4], len: q, at };
        workspace::clear();
        let clean = decode_packed(&packed, &latent, &queries, None, None);
        assert!(clean.data().iter().all(|v| v.is_finite()));
        let poison: Vec<WorkspaceGuard> = (6..=16)
            .flat_map(|shift| [1usize << shift; 4])
            .map(|len| {
                let mut g = workspace::take_scratch(len);
                g.fill(f32::NAN);
                g
            })
            .collect();
        drop(poison);
        let dirty = decode_packed(&packed, &latent, &queries, None, None);
        assert_eq!(bits(&dirty), bits(&clean));
    }

    /// The blend skip and the GEMM's no-zero-skip rule through the new
    /// operand order: `0 · ∞` in a layer is NaN at the output of every query
    /// that blends the vertex in, and a query exactly on a vertex never sees
    /// its zero-weight neighbours, NaN or not.
    #[test]
    fn nan_reaches_the_output_only_through_nonzero_weights() {
        let (mut store, dec) = setup();
        // First-layer weights of latent channel 0 (input column 3) all zero.
        let w = store.get_mut(dec.mlp.layers[0].weight);
        let (out, inp) = (w.dims()[0], w.dims()[1]);
        for o in 0..out {
            w.data_mut()[o * inp + 3] = 0.0;
        }
        let grid = [3usize, 4, 4];
        let vertex = |t: usize, z: usize, x: usize| (t * grid[1] + z) * grid[2] + x;
        let mut latent = random_latent(9, &[1, 6, 3, 4, 4]);
        let vol = 3 * 4 * 4;
        // Channel 0 is infinite at vertex (1, 2, 2); every channel is NaN at
        // its neighbour (2, 2, 2), which shares a cell with it in each query.
        latent.data_mut()[vertex(1, 2, 2)] = f32::INFINITY;
        for c in 0..6 {
            latent.data_mut()[c * vol + vertex(2, 2, 2)] = f32::NAN;
        }
        let on_vertex =
            |t: usize, z: usize, x: usize| [t as f32 / 2.0, z as f32 / 3.0, x as f32 / 3.0];
        let queries = [
            (0usize, on_vertex(1, 1, 1)), // on a vertex: both are zero-weight neighbours
            (0, [0.5, 0.5, 0.5]),         // on the t = 1 face: blends (1, 2, 2) in, not (2, 2, 2)
            (0, on_vertex(1, 2, 2)),      // on the infinite vertex itself
        ];
        let listed = Queries { grid, len: queries.len(), at: |i: usize| queries[i] };
        let got = decode_packed(&dec.mlp.pack(&store), &latent, &listed, None, None);
        let row = |q: usize| &got.data()[q * 4..(q + 1) * 4];
        assert!(row(0).iter().all(|v| v.is_finite()), "zero-weight NaN neighbours: {:?}", row(0));
        assert!(row(1).iter().all(|v| v.is_nan()), "0 * inf must reach the output: {:?}", row(1));
        assert!(row(2).iter().all(|v| v.is_nan()), "0 * inf on the vertex itself: {:?}", row(2));
        // And the tape agrees, bit for bit where finite.
        let mut g = Graph::new();
        let l = g.constant(latent);
        let tape = dec.decode(&mut g, &store, l, &plan_queries(grid, queries));
        assert_eq!(
            g.value(tape).data()[..4].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            row(0).iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert!(g.value(tape).data()[4..].iter().all(|v| v.is_nan()));
    }

    #[test]
    fn queries_outside_range_are_clamped() {
        let (store, dec) = setup();
        let latent = random_latent(5, &[1, 6, 3, 4, 4]);
        let plan_in = plan_queries([3, 4, 4], [(0usize, [1.0, 0.0, 1.0])]);
        let plan_out = plan_queries([3, 4, 4], [(0usize, [1.7, -0.4, 2.0])]);
        let eval = |plan: &QueryPlan| {
            let mut g = Graph::new();
            let l = g.constant(latent.clone());
            let y = dec.decode(&mut g, &store, l, plan);
            g.value(y).data().to_vec()
        };
        assert_eq!(eval(&plan_in), eval(&plan_out));
    }
}
