//! bf16 (bfloat16) weight storage for frozen-weight GEMMs.
//!
//! bf16 is the top 16 bits of an f32: 1 sign + 8 exponent + 7 mantissa
//! bits. Widening back to f32 is *exact* (a 16-bit left shift); only
//! quantization rounds, by round-to-nearest-even on the truncated 16
//! mantissa bits (saturating at the largest finite bf16 — see
//! [`quantize_bf16`]).
//!
//! The **bf16-store** tier ([`PackedBf16Gemm::matmul`]) rounds only the
//! *weights*. The GEMM is the ordinary f32 GEMM evaluated on
//! `widen(quantize(W))` — every accumulation happens in f32,
//! bit-identically to [`crate::gemm::gemm`] on the widened weights, and the
//! only error vs full precision is the one-time ≤2⁻⁸ relative weight
//! rounding. Activations are never rounded.
//!
//! [`PackedBf16Gemm`] holds a *frozen* right-hand side prepacked into the
//! active micro-kernel's `nr`-column panel layout at quantization time, as
//! plain `u16`s in exactly the order the f32 kernel reads its B panels.
//! Serving decoders multiply against the same weights millions of times, so
//! packing once buys back the per-call `pack_b` walk; the per-call cost that
//! remains is one contiguous widen of a `KC`-deep slab.

use crate::gemm;
use crate::simd::{self, Kernel};

/// Quantizes an f32 to bf16 by round-to-nearest-even, with explicit
/// special-value semantics:
///
/// * NaN stays NaN — the sign and top payload bits are kept and the quiet
///   bit is forced, so a payload living only in the truncated low mantissa
///   bits cannot collapse the value to ±inf.
/// * ±inf map to bf16 ±inf.
/// * *Finite* values whose RNE rounding would overflow (anything beyond
///   the last finite bf16, `f32::MAX` included) **saturate** to ±`0x7F7F`
///   (±3.3895×10³⁸) instead of silently widening to ±inf: a finite weight
///   must never become an infinity that poisons a whole accumulator chain.
pub fn quantize_bf16(x: f32) -> u16 {
    let bits = x.to_bits();
    if x.is_nan() {
        return ((bits >> 16) as u16) | 0x0040;
    }
    // Add 0x7FFF + (lsb of the kept mantissa): ties go to the even kept
    // mantissa, carries ripple into the exponent exactly as RNE requires.
    let round = ((bits >> 16) & 1) + 0x7FFF;
    let q = (bits.wrapping_add(round) >> 16) as u16;
    if q & 0x7FFF == 0x7F80 && x.is_finite() {
        // Finite overflow: saturate to the largest finite bf16.
        (q & 0x8000) | 0x7F7F
    } else {
        q
    }
}

/// Widens a bf16 back to f32 — exact, by construction.
pub fn widen_bf16(q: u16) -> f32 {
    f32::from_bits(u32::from(q) << 16)
}

/// Quantizes a slice ([`quantize_bf16`] elementwise).
pub fn quantize_slice(src: &[f32]) -> Vec<u16> {
    src.iter().map(|&x| quantize_bf16(x)).collect()
}

/// Widens a slice ([`widen_bf16`] elementwise).
pub fn widen_slice(src: &[u16]) -> Vec<f32> {
    src.iter().map(|&q| widen_bf16(q)).collect()
}

/// A `[k, n]` right-hand side quantized to bf16 and prepacked into the
/// active micro-kernel's panel layout: for each `KC`-deep depth block,
/// `nr`-column panels stored row-major over depth (`panel[p*nr + j]` is
/// depth `p`, column `j`; edge columns are zero) — [`crate::gemm`](mod@crate::gemm)'s packed
/// B layout, two bytes per element.
///
/// The packing kernel (tile shape) is captured at construction through the
/// same cached dispatch the f32 GEMMs use and kept for the packed matrix's
/// whole lifetime — so a later [`crate::simd::set_backend_override`] (or
/// `MFN_PORTABLE_KERNELS` in a fresh process) never desynchronizes layout
/// and micro-kernel.
#[derive(Clone)]
pub struct PackedBf16Gemm {
    k: usize,
    n: usize,
    kernel: &'static Kernel,
    panels: Vec<u16>,
}

// Hand-written: the kernel field is a fn table, not worth printing.
impl std::fmt::Debug for PackedBf16Gemm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedBf16Gemm")
            .field("k", &self.k)
            .field("n", &self.n)
            .field("backend", &self.kernel.backend.name())
            .field("weight_bytes", &self.weight_bytes())
            .finish()
    }
}

impl PackedBf16Gemm {
    /// Packs `op(B)` given by `src(p, j)` (`p < k`, `j < n`), quantizing
    /// each element once.
    pub fn pack(k: usize, n: usize, src: impl Fn(usize, usize) -> f32) -> Self {
        // Row count is unknown at pack time; decode batches are row-rich,
        // so size the tile choice by `n` alone (large-`m` limit).
        let kernel = simd::active_kernel_for(1 << 20, n);
        let nr = kernel.nr;
        let n_panels = n.div_ceil(nr);
        let mut panels = Vec::with_capacity(n_panels * nr * k);
        for pc in (0..k).step_by(gemm::KC) {
            let kb = gemm::KC.min(k - pc);
            for pj in 0..n_panels {
                let j0 = pj * nr;
                let cols = nr.min(n - j0);
                for p in pc..pc + kb {
                    panels.extend((0..cols).map(|jj| quantize_bf16(src(p, j0 + jj))));
                    panels.resize(panels.len() + nr - cols, 0);
                }
            }
        }
        PackedBf16Gemm { k, n, kernel, panels }
    }

    /// Packs a weight stored `[n, k]` row-major as `op(B) = Wᵀ` — the
    /// layout `matmul_nt` consumes (`x @ Wᵀ` for a `Linear` layer).
    pub fn from_nt_weight(w: &[f32], n: usize, k: usize) -> Self {
        assert_eq!(w.len(), n * k, "bf16 pack weight length mismatch");
        Self::pack(k, n, |p, j| w[j * k + p])
    }

    /// Output columns `n`.
    pub fn cols(&self) -> usize {
        self.n
    }

    /// Depth `k`.
    pub fn depth(&self) -> usize {
        self.k
    }

    /// Bytes held by the quantized panels (the resident weight cost).
    pub fn weight_bytes(&self) -> usize {
        self.panels.len() * 2
    }

    /// `C = A · widen(B)` with `A: [m, k]` row-major, `C: [m, n]` fully
    /// overwritten. Accumulation is f32, bit-identical to
    /// [`crate::gemm::gemm`] over the widened weights (same `KC` splits,
    /// same micro-kernel) — pinned by tests. Activations stay exact f32.
    ///
    /// # Panics
    /// Panics if slice lengths disagree with `m` and the packed shape.
    pub fn matmul(&self, m: usize, a: &[f32], c: &mut [f32]) {
        let (k, n) = (self.k, self.n);
        assert_eq!(a.len(), m * k, "bf16 gemm lhs length mismatch");
        assert_eq!(c.len(), m * n, "bf16 gemm output length mismatch");
        if m == 0 || n == 0 {
            return;
        }
        if k == 0 {
            c.fill(0.0);
            return;
        }
        let kernel = self.kernel;
        let mr = kernel.mr;
        let panel_cols = n.div_ceil(kernel.nr) * kernel.nr;
        let mut off = 0;
        for pc in (0..k).step_by(gemm::KC) {
            let kb = gemm::KC.min(k - pc);
            let first = pc == 0;
            // One contiguous u16 → f32 widen of the depth slab: the entire
            // per-call "packing" cost on the B side.
            let b_len = panel_cols * kb;
            let slab = &self.panels[off..off + b_len];
            off += b_len;
            let (mut b_buf, b_off) = gemm::take_scratch_aligned(b_len);
            for (d, &q) in b_buf[b_off..b_off + b_len].iter_mut().zip(slab) {
                *d = widen_bf16(q);
            }
            let b_pack = &b_buf[b_off..b_off + b_len];
            for (bi, c_block) in c.chunks_mut(gemm::MC * n).enumerate() {
                let i0 = bi * gemm::MC;
                let mb = gemm::MC.min(m - i0);
                let a_len = mb.div_ceil(mr) * mr * kb;
                let (mut a_buf, a_off) = gemm::take_scratch_aligned(a_len);
                let a_pack = &mut a_buf[a_off..a_off + a_len];
                gemm::pack_a(mr, a_pack, a, k, 1, i0, mb, pc, kb);
                gemm::macro_block(kernel, a_pack, b_pack, c_block, mb, kb, n, n, 0, first);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm, MatLayout};

    #[test]
    fn widen_is_exact_and_quantize_round_trips_short_mantissas() {
        for x in [0.0f32, -0.0, 1.0, -1.0, 0.5, 2.0, -4.0, 1.5, 0.15625, 384.0, 2.0f32.powi(100)] {
            // ≤7 mantissa bits: bf16 represents these exactly.
            assert_eq!(widen_bf16(quantize_bf16(x)).to_bits(), x.to_bits(), "{x}");
        }
        assert_eq!(widen_bf16(quantize_bf16(f32::INFINITY)), f32::INFINITY);
        assert_eq!(widen_bf16(quantize_bf16(f32::NEG_INFINITY)), f32::NEG_INFINITY);
        assert!(widen_bf16(quantize_bf16(f32::NAN)).is_nan());
    }

    #[test]
    fn quantize_rounds_to_nearest_even() {
        // 0x3F80_8000 is exactly halfway between bf16 0x3F80 and 0x3F81:
        // ties go to the even mantissa.
        assert_eq!(quantize_bf16(f32::from_bits(0x3F80_8000)), 0x3F80);
        assert_eq!(quantize_bf16(f32::from_bits(0x3F81_8000)), 0x3F82);
        // Just above/below the tie round to nearest.
        assert_eq!(quantize_bf16(f32::from_bits(0x3F80_8001)), 0x3F81);
        assert_eq!(quantize_bf16(f32::from_bits(0x3F80_7FFF)), 0x3F80);
        // Mantissa carry ripples into the exponent: 1.9999999 -> 2.0.
        assert_eq!(widen_bf16(quantize_bf16(1.999_999_9)), 2.0);
    }

    #[test]
    fn finite_overflow_saturates_and_specials_survive() {
        // Finite values past the last finite bf16 saturate instead of
        // widening to inf — f32::MAX, the former RNE tie-to-inf point, and
        // the first value that would round up all land on ±0x7F7F.
        for bits in [0x7F7F_FFFFu32, 0x7F7F_8000, 0x7F7F_8001, 0x7F80_0000u32 - 1] {
            assert_eq!(quantize_bf16(f32::from_bits(bits)), 0x7F7F, "{bits:#010x}");
            assert_eq!(quantize_bf16(f32::from_bits(bits | 0x8000_0000)), 0xFF7F);
        }
        assert_eq!(quantize_bf16(f32::MAX), 0x7F7F);
        assert_eq!(quantize_bf16(f32::MIN), 0xFF7F);
        // Just below the rounding threshold still rounds normally.
        assert_eq!(quantize_bf16(f32::from_bits(0x7F7F_7FFF)), 0x7F7F);
        assert_eq!(quantize_bf16(f32::from_bits(0x7F7E_8001)), 0x7F7F);
        // True infinities pass through.
        assert_eq!(quantize_bf16(f32::INFINITY), 0x7F80);
        assert_eq!(quantize_bf16(f32::NEG_INFINITY), 0xFF80);
        // A NaN whose payload lives only in the truncated low mantissa bits
        // must stay NaN (the quiet bit is forced), never become inf.
        for bits in [0x7F80_0001u32, 0x7F80_FFFF, 0xFF80_0001, 0x7FC0_0000, 0xFFFF_FFFF] {
            let q = quantize_bf16(f32::from_bits(bits));
            assert!(widen_bf16(q).is_nan(), "{bits:#010x} -> {q:#06x}");
            assert_eq!(q >> 15, (bits >> 31) as u16, "sign preserved");
        }
    }

    #[test]
    fn quantization_error_is_within_a_half_ulp() {
        // |x - widen(q(x))| <= 2^-8 |x| for normal-range x (half of bf16's
        // 2^-7 mantissa step).
        let mut s = 123u32;
        for _ in 0..10_000 {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            let e = (s >> 8) % 60;
            let x = f32::from_bits((s >> 9 << 9) | 1).abs() % 1.0e20 * (2.0f32).powi(e as i32 - 30);
            if !x.is_finite() || x == 0.0 || x.abs() < f32::MIN_POSITIVE * 256.0 {
                continue;
            }
            let rt = widen_bf16(quantize_bf16(x));
            assert!(
                (f64::from(rt) - f64::from(x)).abs() <= f64::from(x.abs()) * 2.0f64.powi(-8),
                "{x:e} -> {rt:e}"
            );
        }
    }

    /// Shapes straddling tile (`n` off every `nr` of 16/32/48, `m` off `mr`
    /// and `MC`), odd-`k` and `KC` boundaries (one, two and three depth
    /// blocks).
    const SHAPES: [(usize, usize, usize); 7] = [
        (1, 1, 1),
        (7, 11, 32),
        (13, 300, 49),
        (70, 64, 17),
        (5, 257, 33),
        (3, 513, 40),
        (9, 515, 95),
    ];

    fn fill(len: usize, seed: u32) -> Vec<f32> {
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s.wrapping_mul(1664525).wrapping_add(1013904223);
                ((s >> 16) as i32 % 1001 - 500) as f32 / 256.0
            })
            .collect()
    }

    #[test]
    fn packed_matmul_is_bit_identical_to_f32_gemm_on_widened_weights() {
        for &(m, k, n) in &SHAPES {
            let a = fill(m * k, (m * 1000 + k * 10 + n) as u32);
            let w = fill(n * k, (k * 1000 + n) as u32); // [n, k]
            let packed = PackedBf16Gemm::from_nt_weight(&w, n, k);
            assert_eq!(packed.cols(), n);
            assert_eq!(packed.depth(), k);
            // Two bytes per element of the zero-padded panels, nothing else.
            let nr = packed.kernel.nr;
            assert_eq!(packed.weight_bytes(), 2 * k * n.div_ceil(nr) * nr);
            let mut got = vec![f32::NAN; m * n];
            packed.matmul(m, &a, &mut got);
            // Widen the quantized weights and run the ordinary f32 GEMM.
            let widened: Vec<f32> = w.iter().map(|&x| widen_bf16(quantize_bf16(x))).collect();
            let mut want = vec![f32::NAN; m * n];
            gemm(m, k, n, &a, MatLayout::Normal, &widened, MatLayout::Transposed, &mut want);
            for (i, (&g, &wv)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.to_bits(), wv.to_bits(), "{m}x{k}x{n} elem {i}: {g:e} vs {wv:e}");
            }
        }
    }

    #[test]
    fn k_zero_zeroes_output() {
        let packed = PackedBf16Gemm::pack(0, 3, |_, _| unreachable!());
        let mut c = vec![5.0f32; 6];
        packed.matmul(2, &[], &mut c);
        assert!(c.iter().all(|&v| v == 0.0));
    }
}
