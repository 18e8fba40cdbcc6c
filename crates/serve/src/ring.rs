//! Consistent-hash ring for sharding the latent cache across a fleet.
//!
//! Each shard is placed on a `u64` ring at `VNODES` (128) pseudo-random points
//! derived from its *name* (its address string), and a patch digest is
//! served by the shard owning the first point at or after the digest's own
//! position. Two properties make this the right structure for a latent
//! cache:
//!
//! - **Stability**: adding or removing one shard remaps only the keys whose
//!   owning arc moved — in expectation `1/N` of the keyspace — so a scale
//!   event invalidates a sliver of the fleet's cached latents, not all of
//!   them. A modulo assignment (`digest % N`) would remap nearly
//!   everything.
//! - **Determinism**: point positions are pure integer arithmetic (FNV-1a
//!   over the shard name, finished with a SplitMix64 avalanche per vnode),
//!   so every process — router, load generator, test oracle — computes the
//!   identical assignment on every platform and codegen target. The ring
//!   is effectively part of the fleet protocol: encode-once only holds
//!   fleet-wide if everyone agrees who owns a digest — which is why the
//!   vnode count is a constant and not a per-process setting.
//!
//! Health is layered on top, not baked in: [`HashRing::shard_for`] is the
//! pure assignment, and [`HashRing::route`] walks forward past unhealthy
//! shards, which preserves the assignment of every healthy shard while a
//! peer is down (keys of the dead shard spill to ring successors).

use crate::cache::patch_digest_bytes;
use crate::SplitMix64;
use mfn_tensor::le::FNV_PRIME;

/// Virtual nodes per shard. High enough that the largest arc a single shard
/// owns stays within a few percent of fair share.
const VNODES: usize = 128;

/// A consistent-hash ring over named shards.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// Ring points sorted by position: `(position, shard index)`.
    points: Vec<(u64, usize)>,
    /// Shard names, index-aligned with the point entries.
    names: Vec<String>,
}

impl HashRing {
    /// Builds a ring from shard names with `VNODES` points each.
    pub fn new(names: &[String]) -> Self {
        assert!(!names.is_empty(), "a ring needs at least one shard");
        let mut points = Vec::with_capacity(names.len() * VNODES);
        for (idx, name) in names.iter().enumerate() {
            let base = patch_digest_bytes(&[], name.as_bytes());
            for v in 0..VNODES {
                // Mix the vnode counter through an avalanche so a shard's
                // points scatter instead of clustering near its base hash.
                let vnode = base ^ (v as u64).wrapping_mul(FNV_PRIME);
                points.push((SplitMix64::new(vnode).next_u64(), idx));
            }
        }
        // Position ties (astronomically unlikely) resolve by shard index so
        // every process sorts identically.
        points.sort_unstable();
        HashRing { points, names: names.to_vec() }
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the ring has no shards (never true — construction asserts).
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The shard names in construction order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The shard index owning `key`: the first ring point at or after the
    /// key's avalanche position, wrapping at the top.
    pub fn shard_for(&self, key: u64) -> usize {
        let pos = SplitMix64::new(key).next_u64();
        let i = self.points.partition_point(|&(p, _)| p < pos);
        let (_, shard) = self.points[if i == self.points.len() { 0 } else { i }];
        shard
    }

    /// The shard index owning `key` among shards whose `healthy[idx]` is
    /// true, walking forward past unhealthy owners. `None` when every shard
    /// is down.
    pub fn route(&self, key: u64, healthy: &[bool]) -> Option<usize> {
        assert_eq!(healthy.len(), self.names.len(), "health mask length mismatch");
        if healthy.iter().all(|h| !h) {
            return None;
        }
        let pos = SplitMix64::new(key).next_u64();
        let start = self.points.partition_point(|&(p, _)| p < pos);
        let n = self.points.len();
        for step in 0..n {
            let (_, shard) = self.points[(start + step) % n];
            if healthy[shard] {
                return Some(shard);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:{}", 7100 + i)).collect()
    }

    #[test]
    fn assignment_is_deterministic_and_total() {
        let ring = HashRing::new(&names(4));
        let ring2 = HashRing::new(&names(4));
        for key in 0..1000u64 {
            let s = ring.shard_for(key.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            assert!(s < 4);
            assert_eq!(s, ring2.shard_for(key.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        }
    }

    #[test]
    fn load_is_roughly_balanced() {
        let ring = HashRing::new(&names(4));
        let mut counts = [0usize; 4];
        for key in 0..40_000u64 {
            counts[ring.shard_for(SplitMix64::new(key).next_u64())] += 1;
        }
        for &c in &counts {
            // Fair share is 10k; 128 vnodes keeps shards within ~±35%.
            assert!((6_500..=13_500).contains(&c), "imbalanced: {counts:?}");
        }
    }

    #[test]
    fn route_skips_unhealthy_and_preserves_healthy_owners() {
        let ring = HashRing::new(&names(3));
        let all = [true, true, true];
        for key in 0..5_000u64 {
            let k = SplitMix64::new(key).next_u64();
            let owner = ring.shard_for(k);
            assert_eq!(ring.route(k, &all), Some(owner));
            let mut down = all;
            down[owner] = false;
            let fallback = ring.route(k, &down).unwrap();
            assert_ne!(fallback, owner, "rerouted key must leave the dead shard");
            // A key whose owner is healthy must not move when another
            // shard dies.
            let other = (owner + 1) % 3;
            let mut other_down = all;
            other_down[other] = false;
            assert_eq!(ring.route(k, &other_down), Some(owner));
        }
        assert_eq!(ring.route(7, &[false, false, false]), None);
    }
}
