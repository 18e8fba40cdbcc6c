//! # mfn-sample
//!
//! Residual-guided importance sampling of continuous query points.
//!
//! MeshfreeFlowNet draws its space-time query points uniformly over the
//! patch, but the PDE residual is concentrated near plumes and walls. The
//! octree-based sampling follow-up (Wang et al., arXiv:2306.05133) shows
//! that drawing points where residuals are large buys convergence per
//! decoder evaluation. [`OctreeSampler`] implements that idea as a
//! [`mfn_data::QueryStrategy`]:
//!
//! - an adaptive octree over local patch coordinates `(t, z, x) ∈ [0, 1]³`
//!   whose leaves carry an exponential moving average of the training
//!   residual observed inside them;
//! - draws proportional to per-leaf residual *mass* (EMA × volume), blended
//!   with a uniform floor `ε` so no region ever starves;
//! - self-normalized importance weights per draw, so a weighted estimate
//!   keeps tracking the same uniform integral the paper optimizes (unbiased
//!   up to the usual `O(1/n)` self-normalization bias);
//! - a uniform exploration scaffold down to `base_depth`, then online
//!   splits wherever residual *density* exceeds `split_gain`× the tree
//!   average and merges where it falls below `merge_gain`×, with
//!   hysteresis between the two gains;
//! - a deterministic byte serialization so checkpoint resume restores the
//!   exact tree (and therefore the exact draw sequence).
//!
//! All randomness flows through the caller's `Rng`, so draws are replayable
//! from a checkpointed RNG position alone.

use mfn_data::{QueryStrategy, WeightedQuery};
use rand::Rng;

/// Tuning knobs for the adaptive octree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OctreeConfig {
    /// Uniform blend floor in `[0, 1]`: a leaf's draw probability is
    /// `ε·vol + (1−ε)·mass/total_mass`. `1.0` degenerates to uniform.
    pub epsilon: f32,
    /// EMA weight of a new residual observation (higher = faster tracking).
    pub ema_alpha: f32,
    /// Maximum leaf depth (depth `d` leaves have side `2^−d`).
    pub max_depth: u8,
    /// Hard cap on the number of leaves (a split needs 7 free slots).
    pub max_leaves: usize,
    /// Exploration scaffold: leaves coarser than this depth split as soon
    /// as they have `min_count` observations, regardless of mass, so the
    /// tree can *see* where residual concentrates before exploiting it (a
    /// single coarse leaf's EMA is one scalar and carries no structure).
    /// Scaffold leaves never merge away.
    pub base_depth: u8,
    /// Split a leaf below `base_depth` when its residual mass *density*
    /// (EMA) exceeds this multiple of the tree-average density — a
    /// scale-free criterion, so refinement keeps following concentration
    /// to `max_depth` instead of stalling once every leaf's absolute mass
    /// fraction is small.
    pub split_gain: f64,
    /// Merge 8 sibling leaves (deeper than `base_depth`) when their mean
    /// density falls below this multiple of the tree average — the
    /// concentration that justified refining has moved elsewhere. Keep
    /// below `split_gain` for hysteresis: a merged parent's density is its
    /// children's mean, so it cannot immediately re-split.
    pub merge_gain: f64,
    /// Observations a leaf (or sibling group) must accumulate before it is
    /// eligible to split (or merge).
    pub min_count: u64,
    /// Per-[`OctreeSampler::update`] geometric decay of the EMA in leaves
    /// that received *no* observation that round. Deep leaves are hit
    /// rarely, so without this a leaf whose region went quiet would hold
    /// its stale EMA for hundreds of steps (an EMA only moves when fed),
    /// blocking merges and triggering splits on long-gone concentration.
    pub idle_decay: f32,
}

impl Default for OctreeConfig {
    fn default() -> Self {
        OctreeConfig {
            epsilon: 0.2,
            ema_alpha: 0.25,
            max_depth: 4,
            max_leaves: 512,
            base_depth: 2,
            split_gain: 2.0,
            merge_gain: 0.7,
            min_count: 64,
            idle_decay: 0.05,
        }
    }
}

/// One octree leaf: a cube of side `2^−depth` at `lo`, with the residual
/// EMA observed inside it and the number of observations behind that EMA.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Leaf {
    lo: [f32; 3],
    depth: u8,
    ema: f32,
    count: u64,
}

impl Leaf {
    fn size(&self) -> f32 {
        0.5f32.powi(self.depth as i32)
    }

    fn volume(&self) -> f64 {
        (self.size() as f64).powi(3)
    }

    /// Residual mass: EMA × volume. Mass is what draw probabilities and the
    /// split/merge thresholds compare, so refining a region does not by
    /// itself change how often it is drawn.
    fn mass(&self) -> f64 {
        (self.ema.max(0.0) as f64) * self.volume()
    }

    fn contains(&self, q: [f32; 3]) -> bool {
        let s = self.size();
        (0..3).all(|a| {
            let x = q[a].clamp(0.0, 1.0 - f32::EPSILON);
            x >= self.lo[a] && x < self.lo[a] + s
        })
    }
}

/// Adaptive octree importance sampler over `(t, z, x) ∈ [0, 1]³`.
///
/// The tree is a flat list of leaves that always partitions the unit cube.
/// Feed per-point residuals back with [`OctreeSampler::update`]; draw
/// weighted query points through the [`QueryStrategy`] impl.
#[derive(Debug, Clone, PartialEq)]
pub struct OctreeSampler {
    cfg: OctreeConfig,
    leaves: Vec<Leaf>,
}

impl OctreeSampler {
    /// A fresh sampler: one root leaf, zero residual mass (draws start
    /// uniform).
    pub fn new(cfg: OctreeConfig) -> Self {
        assert!((0.0..=1.0).contains(&cfg.epsilon), "epsilon must be in [0, 1]");
        assert!(cfg.ema_alpha > 0.0 && cfg.ema_alpha <= 1.0, "ema_alpha must be in (0, 1]");
        assert!(cfg.max_leaves >= 8, "octree needs room for at least one split");
        assert!(cfg.merge_gain < cfg.split_gain, "merge/split gains need hysteresis");
        assert!(cfg.base_depth <= cfg.max_depth, "scaffold cannot exceed max depth");
        assert!((0.0..1.0).contains(&cfg.idle_decay), "idle_decay must be in [0, 1)");
        OctreeSampler { cfg, leaves: vec![Leaf { lo: [0.0; 3], depth: 0, ema: 0.0, count: 0 }] }
    }

    /// The configuration in use.
    pub fn config(&self) -> OctreeConfig {
        self.cfg
    }

    /// Current leaf count.
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// Deepest current leaf.
    pub fn max_depth(&self) -> u8 {
        self.leaves.iter().map(|l| l.depth).max().unwrap_or(0)
    }

    /// Draw probabilities per leaf (`ε`-blended, summing to 1).
    fn probabilities(&self) -> Vec<f64> {
        let eps = self.cfg.epsilon as f64;
        let total: f64 = self.leaves.iter().map(Leaf::mass).sum();
        if total <= 0.0 || eps >= 1.0 {
            return self.leaves.iter().map(Leaf::volume).collect();
        }
        self.leaves.iter().map(|l| eps * l.volume() + (1.0 - eps) * l.mass() / total).collect()
    }

    /// Shannon entropy (nats) of the leaf draw distribution. Uniform over
    /// `n` equal leaves gives `ln n`; concentration drives it toward 0
    /// relative to that ceiling.
    pub fn entropy(&self) -> f64 {
        self.probabilities().iter().filter(|&&p| p > 0.0).map(|&p| -p * p.ln()).sum()
    }

    /// Fraction of total residual mass held by the top decile (by mass) of
    /// leaves — 0.1 means mass is spread evenly, near 1.0 means a few
    /// leaves dominate. Returns 0 when no residual mass has been observed.
    pub fn top_decile_mass(&self) -> f64 {
        let mut masses: Vec<f64> = self.leaves.iter().map(Leaf::mass).collect();
        let total: f64 = masses.iter().sum();
        if total <= 0.0 {
            return 0.0;
        }
        masses.sort_by(|a, b| b.partial_cmp(a).expect("finite masses"));
        let k = masses.len().div_ceil(10);
        masses[..k].iter().sum::<f64>() / total
    }

    /// Records one observed residual magnitude per query point and then
    /// adapts the tree (splits where mass concentrated, merges where it
    /// dissipated). Points outside `[0, 1]³` are clamped to the boundary
    /// leaf they abut.
    pub fn update(&mut self, points: &[[f32; 3]], residuals: &[f32]) {
        assert_eq!(points.len(), residuals.len(), "one residual per point");
        let mut hit = vec![false; self.leaves.len()];
        for (q, &r) in points.iter().zip(residuals) {
            if !r.is_finite() {
                continue;
            }
            let a = self.cfg.ema_alpha;
            let (i, leaf) = self
                .leaves
                .iter_mut()
                .enumerate()
                .find(|(_, l)| l.contains(*q))
                .expect("leaves partition the unit cube");
            leaf.ema = (1.0 - a) * leaf.ema + a * r.max(0.0);
            leaf.count += 1;
            hit[i] = true;
        }
        // Leaves the batch never touched forget a little: an EMA only moves
        // when fed, so without decay a quiet region would keep its stale
        // value for as long as the ε-floor takes to revisit it.
        for (l, &h) in self.leaves.iter_mut().zip(&hit) {
            if !h {
                l.ema *= 1.0 - self.cfg.idle_decay;
            }
        }
        self.adapt();
    }

    /// One split/merge pass over the current leaves.
    fn adapt(&mut self) {
        let n = self.leaves.len();
        let total: f64 = self.leaves.iter().map(Leaf::mass).sum();
        if total <= 0.0 {
            return;
        }

        // Splits, processed at descending indices so pending indices stay
        // valid while each split replaces one leaf with its 8 children.
        // The tree-average residual density over the unit cube equals the
        // total mass, and a leaf's density is its EMA, so the density-gain
        // comparisons reduce to `ema` vs `gain · total`.
        let split: Vec<usize> = (0..n)
            .filter(|&i| {
                let l = &self.leaves[i];
                l.count >= self.cfg.min_count
                    && (l.depth < self.cfg.base_depth
                        || (l.depth < self.cfg.max_depth
                            && (l.ema.max(0.0) as f64) > self.cfg.split_gain * total))
            })
            .collect();
        for &i in split.iter().rev() {
            if self.leaves.len() + 7 > self.cfg.max_leaves {
                break;
            }
            let parent = self.leaves[i];
            let half = parent.size() * 0.5;
            let children = (0..8).map(|c| Leaf {
                lo: [
                    parent.lo[0] + if c & 4 != 0 { half } else { 0.0 },
                    parent.lo[1] + if c & 2 != 0 { half } else { 0.0 },
                    parent.lo[2] + if c & 1 != 0 { half } else { 0.0 },
                ],
                depth: parent.depth + 1,
                // Children inherit the parent's EMA (total mass is
                // preserved: 8 × vol/8 × ema) but must re-earn min_count
                // before splitting further.
                ema: parent.ema,
                count: 0,
            });
            self.leaves.splice(i..=i, children);
        }

        // Merges: a full sibling group whose combined mass fraction dropped
        // below the merge threshold collapses back into its parent. Group
        // key = the parent cube; all 8 children must currently be leaves.
        loop {
            let total: f64 = self.leaves.iter().map(Leaf::mass).sum();
            let mut merged = false;
            let mut i = 0;
            while i < self.leaves.len() {
                let l = self.leaves[i];
                // The exploration scaffold (depth ≤ base_depth) never
                // merges away; only exploitation refinement retracts.
                if l.depth <= self.cfg.base_depth {
                    i += 1;
                    continue;
                }
                let parent_size = l.size() * 2.0;
                let parent_lo = [
                    (l.lo[0] / parent_size).floor() * parent_size,
                    (l.lo[1] / parent_size).floor() * parent_size,
                    (l.lo[2] / parent_size).floor() * parent_size,
                ];
                let siblings: Vec<usize> = (0..self.leaves.len())
                    .filter(|&j| {
                        let s = self.leaves[j];
                        s.depth == l.depth
                            && (0..3).all(|a| {
                                s.lo[a] >= parent_lo[a] && s.lo[a] < parent_lo[a] + parent_size
                            })
                    })
                    .collect();
                let group_count: u64 = siblings.iter().map(|&j| self.leaves[j].count).sum();
                // Count-weighted group density: a freshly inherited EMA with
                // no observations behind it is unverified and must not keep
                // a dissipated group refined. Merging needs only half the
                // split evidence — it is the reversible direction (the
                // parent keeps the mean; a real hot spot re-splits).
                let group_density: f64 = if group_count == 0 {
                    f64::INFINITY
                } else {
                    siblings
                        .iter()
                        .map(|&j| {
                            let l = &self.leaves[j];
                            l.count as f64 * l.ema.max(0.0) as f64
                        })
                        .sum::<f64>()
                        / group_count as f64
                };
                if siblings.len() == 8
                    && group_count >= (self.cfg.min_count / 2).max(1)
                    && group_density < self.cfg.merge_gain * total
                {
                    // Equal child volumes make the parent EMA a plain mean.
                    let ema = siblings.iter().map(|&j| self.leaves[j].ema).sum::<f32>() / 8.0;
                    let first = *siblings.first().expect("eight siblings");
                    let mut k = 0;
                    self.leaves.retain(|_| {
                        let keep = !siblings.contains(&k);
                        k += 1;
                        keep
                    });
                    self.leaves.insert(
                        first.min(self.leaves.len()),
                        Leaf { lo: parent_lo, depth: l.depth - 1, ema, count: group_count },
                    );
                    merged = true;
                    break;
                }
                i += 1;
            }
            if !merged {
                break;
            }
        }
    }

    /// Serializes the dynamic tree state (leaves only — configuration comes
    /// from the training config on restore). The byte layout is exact
    /// (f32/f64 bit patterns), so a restored tree reproduces draws
    /// bit-identically.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(8 + self.leaves.len() * 25);
        buf.extend_from_slice(&(self.leaves.len() as u64).to_le_bytes());
        for l in &self.leaves {
            for a in 0..3 {
                buf.extend_from_slice(&l.lo[a].to_bits().to_le_bytes());
            }
            buf.push(l.depth);
            buf.extend_from_slice(&l.ema.to_bits().to_le_bytes());
            buf.extend_from_slice(&l.count.to_le_bytes());
        }
        buf
    }

    /// Restores a tree serialized by [`OctreeSampler::to_bytes`].
    pub fn from_bytes(bytes: &[u8], cfg: OctreeConfig) -> Result<Self, String> {
        let rec = 3 * 4 + 1 + 4 + 8;
        if bytes.len() < 8 {
            return Err(format!("octree state is {} bytes, header is 8", bytes.len()));
        }
        let n = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes")) as usize;
        if n == 0 || n > 1 << 20 {
            return Err(format!("implausible octree leaf count {n}"));
        }
        if bytes.len() != 8 + n * rec {
            return Err(format!(
                "octree state is {} bytes, {} leaves need {}",
                bytes.len(),
                n,
                8 + n * rec
            ));
        }
        let mut leaves = Vec::with_capacity(n);
        for i in 0..n {
            let at = 8 + i * rec;
            let f32le = |o: usize| {
                f32::from_bits(u32::from_le_bytes(
                    bytes[at + o..at + o + 4].try_into().expect("4 bytes"),
                ))
            };
            leaves.push(Leaf {
                lo: [f32le(0), f32le(4), f32le(8)],
                depth: bytes[at + 12],
                ema: f32le(13),
                count: u64::from_le_bytes(bytes[at + 17..at + 25].try_into().expect("8 bytes")),
            });
        }
        let tree = OctreeSampler { cfg, leaves };
        let vol: f64 = tree.leaves.iter().map(Leaf::volume).sum();
        if (vol - 1.0).abs() > 1e-6 {
            return Err(format!("octree leaves do not partition the unit cube (Σvol = {vol})"));
        }
        Ok(tree)
    }
}

impl QueryStrategy for OctreeSampler {
    /// Draws `n` points: per point, one uniform variate picks a leaf by the
    /// blended CDF and three more place the point uniformly inside it. The
    /// importance weight of a point in leaf `i` is `∝ vol_i / p_i` (inverse
    /// density relative to uniform), self-normalized over the `n` draws.
    fn draw_queries<R: Rng + ?Sized>(&mut self, n: usize, rng: &mut R) -> Vec<WeightedQuery> {
        assert!(n > 0, "need at least one query");
        let probs = self.probabilities();
        // Prefix-sum CDF once per call, then binary-search per point: a
        // refined tree holds hundreds of leaves and a linear scan per draw
        // dominates the adaptive path's overhead (the picks are identical —
        // `partition_point` returns the first leaf whose prefix sum exceeds
        // the variate, exactly what the scan found).
        let cdf: Vec<f64> = probs
            .iter()
            .scan(0.0f64, |acc, &p| {
                *acc += p;
                Some(*acc)
            })
            .collect();
        let mut raw = Vec::with_capacity(n);
        let mut sum = 0.0f64;
        for _ in 0..n {
            let u = rng.gen::<f32>() as f64;
            let pick = cdf.partition_point(|&c| c <= u).min(self.leaves.len() - 1);
            let leaf = &self.leaves[pick];
            let s = leaf.size();
            let local = [
                leaf.lo[0] + rng.gen::<f32>() * s,
                leaf.lo[1] + rng.gen::<f32>() * s,
                leaf.lo[2] + rng.gen::<f32>() * s,
            ];
            let w = leaf.volume() / probs[pick].max(f64::MIN_POSITIVE);
            sum += w;
            raw.push((local, w));
        }
        raw.into_iter()
            .map(|(local, w)| WeightedQuery { local, weight: (w / sum) as f32 })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn corner_heavy(tree: &mut OctreeSampler, rounds: usize) {
        // High residuals concentrated in the (0,0,0) octant corner, low
        // elsewhere — the canonical plume/wall shape.
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..rounds {
            let pts: Vec<[f32; 3]> =
                (0..64).map(|_| [rng.gen::<f32>(), rng.gen::<f32>(), rng.gen::<f32>()]).collect();
            let res: Vec<f32> =
                pts.iter().map(|q| if q.iter().all(|&c| c < 0.25) { 10.0 } else { 0.01 }).collect();
            tree.update(&pts, &res);
        }
    }

    #[test]
    fn fresh_tree_draws_uniform_unit_weights() {
        let mut tree = OctreeSampler::new(OctreeConfig::default());
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let qs = tree.draw_queries(256, &mut rng);
        assert_eq!(qs.len(), 256);
        let wsum: f32 = qs.iter().map(|q| q.weight).sum();
        assert!((wsum - 1.0).abs() < 1e-4, "weights must sum to 1, got {wsum}");
        for q in &qs {
            assert!((q.weight - 1.0 / 256.0).abs() < 1e-6, "fresh tree is uniform");
            assert!(q.local.iter().all(|&c| (0.0..=1.0).contains(&c)));
        }
        assert_eq!(tree.leaf_count(), 1);
        assert_eq!(tree.max_depth(), 0);
        assert_eq!(tree.entropy(), 0.0);
        assert_eq!(tree.top_decile_mass(), 0.0);
    }

    #[test]
    fn residual_concentration_splits_and_biases_draws() {
        let mut tree = OctreeSampler::new(OctreeConfig::default());
        corner_heavy(&mut tree, 40);
        assert!(tree.leaf_count() > 1, "concentrated mass must split the root");
        assert!(tree.max_depth() >= 1);
        // Volumes always partition the cube.
        let vol: f64 = tree.leaves.iter().map(Leaf::volume).sum();
        assert!((vol - 1.0).abs() < 1e-9, "Σvol = {vol}");
        // Draws concentrate in the hot corner well beyond its 1/64 volume.
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let qs = tree.draw_queries(4000, &mut rng);
        let hot = qs.iter().filter(|q| q.local.iter().all(|&c| c < 0.25)).count();
        assert!(
            hot as f64 / 4000.0 > 0.2,
            "hot corner should draw >20% of points, got {}",
            hot as f64 / 4000.0
        );
        // Weighted points still carry normalized weights.
        let wsum: f32 = qs.iter().map(|q| q.weight).sum();
        assert!((wsum - 1.0).abs() < 1e-4);
        // Concentration shows up in the telemetry statistics.
        assert!(tree.top_decile_mass() > 0.5, "top decile {}", tree.top_decile_mass());
        assert!(tree.entropy() < (tree.leaf_count() as f64).ln());
    }

    #[test]
    fn importance_weights_keep_estimates_unbiased() {
        // ∫ (t + z·x) over the unit cube = 0.75. A heavily skewed tree must
        // still estimate it through the self-normalized weights.
        let mut tree = OctreeSampler::new(OctreeConfig::default());
        corner_heavy(&mut tree, 40);
        let f = |q: [f32; 3]| q[0] as f64 + (q[1] * q[2]) as f64;
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut estimates = Vec::new();
        for _ in 0..8 {
            let qs = tree.draw_queries(8192, &mut rng);
            estimates.push(qs.iter().map(|q| q.weight as f64 * f(q.local)).sum::<f64>());
        }
        let mean = estimates.iter().sum::<f64>() / estimates.len() as f64;
        assert!((mean - 0.75).abs() < 0.02, "biased estimate: {mean} vs 0.75");
    }

    #[test]
    fn mass_dissipation_merges_leaves_back() {
        let cfg = OctreeConfig { min_count: 16, ..OctreeConfig::default() };
        let mut tree = OctreeSampler::new(cfg);
        corner_heavy(&mut tree, 60);
        let depth_at = |tree: &OctreeSampler, q: [f32; 3]| {
            tree.leaves.iter().find(|l| l.contains(q)).expect("partition").depth
        };
        let old_corner = [0.05f32, 0.05, 0.05];
        let refined = depth_at(&tree, old_corner);
        assert!(refined >= 2, "hot corner should be refined, depth {refined}");
        // The residual mass relocates to the opposite corner; the old hot
        // region's mass fraction collapses and its leaves merge back.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..200 {
            let pts: Vec<[f32; 3]> =
                (0..64).map(|_| [rng.gen::<f32>(), rng.gen::<f32>(), rng.gen::<f32>()]).collect();
            let res: Vec<f32> = pts
                .iter()
                .map(|q| if q.iter().all(|&c| c > 0.75) { 10.0 } else { 0.001 })
                .collect();
            tree.update(&pts, &res);
        }
        let coarsened = depth_at(&tree, old_corner);
        assert!(
            coarsened < refined,
            "dissipated region must coarsen: depth {refined} -> {coarsened}"
        );
        let vol: f64 = tree.leaves.iter().map(Leaf::volume).sum();
        assert!((vol - 1.0).abs() < 1e-9);
    }

    #[test]
    fn epsilon_one_is_pure_uniform_regardless_of_mass() {
        let cfg = OctreeConfig { epsilon: 1.0, ..OctreeConfig::default() };
        let mut tree = OctreeSampler::new(cfg);
        corner_heavy(&mut tree, 20);
        let probs = tree.probabilities();
        for (p, l) in probs.iter().zip(&tree.leaves) {
            assert!((p - l.volume()).abs() < 1e-12, "ε=1 must ignore residual mass");
        }
    }

    #[test]
    fn serialization_roundtrips_bit_exactly_and_replays_draws() {
        let mut tree = OctreeSampler::new(OctreeConfig::default());
        corner_heavy(&mut tree, 30);
        let bytes = tree.to_bytes();
        let mut restored = OctreeSampler::from_bytes(&bytes, tree.config()).expect("roundtrip");
        assert_eq!(tree, restored);
        assert_eq!(restored.to_bytes(), bytes);
        // Same tree + same RNG position ⇒ identical draws, bit for bit.
        let a = tree.draw_queries(512, &mut ChaCha8Rng::seed_from_u64(9));
        let b = restored.draw_queries(512, &mut ChaCha8Rng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn corrupt_state_is_rejected() {
        let tree = OctreeSampler::new(OctreeConfig::default());
        let good = tree.to_bytes();
        assert!(OctreeSampler::from_bytes(&good[..4], OctreeConfig::default()).is_err());
        let mut truncated = good.clone();
        truncated.pop();
        assert!(OctreeSampler::from_bytes(&truncated, OctreeConfig::default()).is_err());
        let mut count_lie = good.clone();
        count_lie[0] = 99;
        assert!(OctreeSampler::from_bytes(&count_lie, OctreeConfig::default()).is_err());
        // A leaf set that does not partition the cube is structurally bad.
        let mut two_roots = OctreeSampler::new(OctreeConfig::default());
        two_roots.leaves.push(Leaf { lo: [0.0; 3], depth: 0, ema: 0.0, count: 0 });
        assert!(OctreeSampler::from_bytes(&two_roots.to_bytes(), OctreeConfig::default()).is_err());
    }

    #[test]
    fn leaf_cap_bounds_growth() {
        let cfg =
            OctreeConfig { max_leaves: 64, min_count: 1, max_depth: 6, ..OctreeConfig::default() };
        let mut tree = OctreeSampler::new(cfg);
        corner_heavy(&mut tree, 200);
        assert!(tree.leaf_count() <= 64, "leaf cap violated: {}", tree.leaf_count());
        assert!(tree.max_depth() <= 6);
    }
}
