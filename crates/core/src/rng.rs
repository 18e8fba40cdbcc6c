//! Checkpointable batch-sampling RNG.
//!
//! Bit-identical crash-resume needs the sampler's stream position on disk.
//! [`SampleRng`] wraps a `ChaCha8Rng` and counts the 32-bit words drawn; its
//! serialized form is just `(seed, words)`, and restore seeks a fresh stream
//! to `words` with `set_word_pos` — O(1) at any position, so a train state
//! that claims a position near 2^63 resumes as fast as an honest one.
//!
//! The wrapper composes `next_u64` from two `next_u32` calls in the same
//! low-word-first order as `rand_core`'s `BlockRng`, so a `SampleRng` yields
//! the exact byte stream of the raw `ChaCha8Rng` it wraps — pinned-seed
//! convergence tests see identical batches with or without the wrapper.

use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A `ChaCha8Rng` whose position in the stream is serializable.
#[derive(Debug, Clone)]
pub struct SampleRng {
    inner: ChaCha8Rng,
    seed: u64,
    words: u64,
}

/// Serialized form of a [`SampleRng`]: the seed and the number of 32-bit
/// words consumed so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RngState {
    /// Seed the stream was created from (`seed_from_u64`).
    pub seed: u64,
    /// 32-bit words drawn since creation.
    pub words: u64,
}

impl SampleRng {
    /// A fresh stream at position zero.
    pub fn seed_from_u64(seed: u64) -> Self {
        SampleRng { inner: ChaCha8Rng::seed_from_u64(seed), seed, words: 0 }
    }

    /// The current stream position.
    pub fn state(&self) -> RngState {
        RngState { seed: self.seed, words: self.words }
    }

    /// Rebuilds the stream at the recorded position by seeking a fresh one
    /// there.
    pub fn restore(state: RngState) -> Self {
        let mut rng = SampleRng::seed_from_u64(state.seed);
        rng.inner.set_word_pos(u128::from(state.words));
        rng.words = state.words;
        rng
    }
}

impl RngCore for SampleRng {
    fn next_u32(&mut self) -> u32 {
        self.words += 1;
        self.inner.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        // Low word first — matches BlockRng's next_u64 over a u32 stream.
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        (hi << 32) | lo
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        // Word-at-a-time so the consumed count stays exact. Only the batch
        // sampler draws from this RNG and it never calls fill_bytes; this
        // exists to satisfy the trait without breaking countability.
        for chunk in dest.chunks_mut(4) {
            let b = self.next_u32().to_le_bytes();
            chunk.copy_from_slice(&b[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// The wrapper must not perturb the stream: a wrapped and a raw
    /// ChaCha8Rng with the same seed agree on mixed u32/u64 draws.
    #[test]
    fn wrapper_is_stream_transparent() {
        let mut wrapped = SampleRng::seed_from_u64(42);
        let mut raw = ChaCha8Rng::seed_from_u64(42);
        for i in 0..64 {
            if i % 3 == 0 {
                assert_eq!(wrapped.next_u64(), raw.next_u64(), "u64 draw {i}");
            } else {
                assert_eq!(wrapped.next_u32(), raw.next_u32(), "u32 draw {i}");
            }
        }
    }

    #[test]
    fn restore_resumes_exact_position() {
        let mut a = SampleRng::seed_from_u64(7);
        for _ in 0..100 {
            let _: usize = a.gen_range(0..17);
        }
        let state = a.state();
        let mut b = SampleRng::restore(state);
        assert_eq!(b.state(), state);
        for i in 0..200 {
            assert_eq!(a.next_u32(), b.next_u32(), "post-restore draw {i}");
        }
    }

    /// Restoring seeks to what replaying the words would reach, at
    /// positions on and around the stream's 16-word block edges and far past
    /// them.
    #[test]
    fn restore_seeks_where_replay_lands() {
        for words in [0u64, 1, 15, 16, 17, 1_000_003] {
            let mut replayed = SampleRng::seed_from_u64(11);
            for _ in 0..words {
                replayed.next_u32();
            }
            let mut seeked = SampleRng::restore(RngState { seed: 11, words });
            assert_eq!(seeked.state(), replayed.state());
            for i in 0..40 {
                assert_eq!(seeked.next_u32(), replayed.next_u32(), "words {words}, draw {i}");
            }
        }
    }

    #[test]
    fn gen_range_draws_are_counted() {
        let mut rng = SampleRng::seed_from_u64(0);
        let before = rng.state().words;
        let _: usize = rng.gen_range(0..1000);
        assert!(rng.state().words > before, "gen_range must advance the word count");
    }

    #[test]
    fn fresh_state_is_zero() {
        let rng = SampleRng::seed_from_u64(3);
        assert_eq!(rng.state(), RngState { seed: 3, words: 0 });
    }
}
