//! Deterministic adversarial input generation.
//!
//! Every case is reproducible from `(shape, seed)` alone — the oracle's
//! failure reports quote both, so a divergence seen in CI can be replayed
//! locally with no stored artifacts. The generator deliberately mixes the
//! inputs float kernels get wrong: signed zeros, subnormals, huge/tiny
//! magnitudes spanning ~30 decades, and adjacent near-cancelling pairs.

/// Splitmix-seeded LCG: cheap, deterministic, and independent of any RNG
/// crate so the oracle has no dependencies in common with the kernels under
/// test.
pub struct Lcg(u64);

impl Lcg {
    /// Seeds the generator (any seed, including 0, is valid).
    pub fn new(seed: u64) -> Self {
        // Splitmix64 scramble so nearby seeds diverge immediately.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Lcg(z ^ (z >> 31))
    }

    /// Next raw 64-bit state.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0
    }

    /// Uniform in `[-1, 1)` from the high bits.
    pub fn uniform(&mut self) -> f32 {
        ((self.next_u64() >> 40) as f32) / ((1u64 << 24) as f32) * 2.0 - 1.0
    }

    /// Uniform in `0..16`, from the *high* bits. The low bits of an LCG form
    /// a self-contained cycle (bit `k` has period `2^{k+1}`), so a branch
    /// selector taken from `next_u64() % 16` can lock into an orbit that
    /// never visits some branches when the branches themselves consume a
    /// data-dependent number of draws.
    pub fn roll16(&mut self) -> u64 {
        self.next_u64() >> 60
    }

    /// Uniform index in `0..n`.
    pub fn index(&mut self, n: usize) -> usize {
        (self.next_u64() >> 33) as usize % n
    }
}

/// Hand-picked poison values: signed zeros, subnormals (smallest positive,
/// largest subnormal), normal extremes, exact powers of two at the f32
/// integer-precision boundary, and garden-variety decimals that are inexact
/// in binary.
pub const SPECIALS: &[f32] = &[
    0.0,
    -0.0,
    1.0,
    -1.0,
    0.5,
    -2.0,
    0.1,
    -0.3,
    f32::MIN_POSITIVE,
    -f32::MIN_POSITIVE,
    f32::from_bits(1), // smallest subnormal
    -f32::from_bits(1),
    f32::from_bits(0x007F_FFFF), // largest subnormal
    1.0e30,
    -1.0e30,
    1.0e-30,
    -1.0e-30,
    16_777_216.0, // 2^24: first integer with no f32 neighbor
    -16_777_215.0,
    3.0e38, // near f32::MAX
];

/// `n` adversarial f32 values, deterministic in `seed`. Roughly: 1/8
/// specials, 1/16 near-cancellation partners of the previous value, 1/16
/// subnormal-range, 1/16 huge, the rest spread over ~±2⁴⁸ in magnitude.
pub fn adversarial(n: usize, seed: u64) -> Vec<f32> {
    let mut g = Lcg::new(seed);
    let mut out: Vec<f32> = Vec::with_capacity(n);
    for _ in 0..n {
        let roll = g.roll16();
        let x = match roll {
            0 | 1 => SPECIALS[g.index(SPECIALS.len())],
            2 => match out.last() {
                // A value one-to-four ULPs from the negation of its
                // predecessor: summed in either order, the pair cancels
                // catastrophically.
                Some(&p) if p.is_finite() && p != 0.0 => {
                    let nudges = (g.next_u64() >> 62) as u32;
                    -f32::from_bits(p.to_bits().wrapping_add(nudges))
                }
                _ => -1.0,
            },
            3 => g.uniform() * 1.0e-39, // deep in subnormal territory
            4 => g.uniform() * 3.0e30,
            _ => {
                let e = ((g.next_u64() >> 37) % 25) as i32 - 12; // 2^-24 .. 2^24
                g.uniform() * (2.0f32).powi(2 * e)
            }
        };
        out.push(x);
    }
    out
}

/// Adversarial values with magnitude capped at `cap` — for kernels whose
/// contract only covers a bounded input domain (batch norm statistics,
/// physical fields). Keeps the signed zeros, subnormals and cancellation
/// structure; rescales anything larger than `cap` into range.
pub fn adversarial_bounded(n: usize, seed: u64, cap: f32) -> Vec<f32> {
    adversarial(n, seed)
        .into_iter()
        .map(|x| if x.abs() > cap { x * (cap / f32::MAX) } else { x })
        .collect()
}

/// GEMM shapes `(m, k, n)` straddling every blocking boundary of the
/// optimized kernel ladder (micro-tiles 6×16 portable/AVX2+FMA, 8×48 and
/// 12×32 AVX-512; MC=64, KC=256): single element, sub-tile, exact tile,
/// tile+1 on each tier's edges, and a k just past the KC panel depth.
pub const GEMM_SHAPES: &[(usize, usize, usize)] = &[
    (1, 1, 1),
    (2, 3, 4),
    (5, 7, 15),
    (6, 16, 16),
    (7, 17, 33),
    (13, 64, 17),
    (65, 19, 31),
    (9, 21, 49), // one past the 8×48 AVX-512 tile on both axes
    (4, 0, 5),   // k = 0: contract says C is zero-filled
    (3, 257, 5),
];

/// Conv3d shapes `(n, cin, cout, spatial, kernel)` exercising 1×1×1 kernels
/// (shallow, and deeper than one `KC` block), anisotropic 3-d kernels,
/// spatial extents smaller than the kernel (border on both sides) and the
/// U-Net's deepest `[2, 2, 2]` volume, narrower than one micro-tile.
pub type ConvShape = (usize, usize, usize, [usize; 3], [usize; 3]);
pub const CONV_SHAPES: &[ConvShape] = &[
    (1, 1, 1, [1, 1, 1], [1, 1, 1]),
    (1, 2, 3, [3, 4, 5], [3, 3, 3]),
    (2, 3, 2, [4, 2, 6], [1, 3, 1]),
    (1, 4, 4, [2, 3, 3], [3, 1, 3]),
    (2, 1, 5, [5, 5, 2], [5, 3, 1]),
    (2, 24, 8, [4, 8, 8], [1, 1, 1]),
    (1, 300, 5, [2, 3, 4], [1, 1, 1]),
    (2, 16, 32, [2, 2, 2], [1, 1, 1]),
    (2, 6, 7, [2, 2, 2], [3, 3, 3]),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic() {
        assert_eq!(adversarial(64, 7), adversarial(64, 7));
        assert_ne!(adversarial(64, 7), adversarial(64, 8));
    }

    #[test]
    fn generator_emits_the_hard_cases() {
        let v = adversarial(4096, 1);
        assert!(v.iter().any(|x| x.to_bits() == (-0.0f32).to_bits()), "no -0.0");
        assert!(v.iter().any(|x| x.is_subnormal()), "no subnormals");
        assert!(v.iter().any(|x| x.abs() >= 1.0e29), "no huge magnitudes");
        assert!(v.iter().any(|&x| x != 0.0 && x.abs() <= 1.0e-29), "no tiny magnitudes");
        // At least one adjacent near-cancelling pair.
        assert!(
            v.windows(2).any(|w| w[0] != 0.0 && (w[0] + w[1]).abs() < w[0].abs() * 1e-6),
            "no cancellation pairs"
        );
    }

    #[test]
    fn bounded_generator_respects_cap() {
        let v = adversarial_bounded(4096, 3, 100.0);
        assert!(v.iter().all(|x| x.abs() <= 100.0));
        assert!(v.iter().any(|x| x.is_subnormal()), "cap must not destroy subnormals");
    }
}
