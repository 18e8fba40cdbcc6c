//! Naive, obviously-correct scalar reference kernels, computed in f64.
//!
//! Each reference returns a [`RefOut`]: the f64 value of every output
//! element *and* a per-element magnitude bound (`scale`), accumulated along
//! the same data path (e.g. `Σ|aᵢ||bᵢ|` for a dot product). The bound is
//! what lets the harness distinguish "different but valid summation order"
//! from "wrong answer" — see `compare.rs`.
//!
//! Style rules for this module: no blocking, no early exits the optimized
//! kernel doesn't share, one loop nest per mathematical definition. A
//! reference twin must be reviewable by eye against the paper formula.

use mfn_tensor::MatLayout;

/// Reference output: per-element f64 value plus magnitude bound.
pub struct RefOut {
    /// Exact (f64) value per output element.
    pub value: Vec<f64>,
    /// Per-element magnitude bound: the sum of absolute values of every term
    /// that entered the element's accumulation.
    pub scale: Vec<f64>,
}

// ---- dense linear algebra ----

/// `C = op(A)·op(B)` by the definition, in f64. Layout semantics match
/// `mfn_tensor::gemm`: `Transposed` means `A` is stored `[k, m]` / `B` is
/// stored `[n, k]`.
pub fn gemm_ref(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    a_layout: MatLayout,
    b: &[f32],
    b_layout: MatLayout,
) -> RefOut {
    let at = |i: usize, p: usize| -> f64 {
        f64::from(match a_layout {
            MatLayout::Normal => a[i * k + p],
            MatLayout::Transposed => a[p * m + i],
        })
    };
    let bt = |p: usize, j: usize| -> f64 {
        f64::from(match b_layout {
            MatLayout::Normal => b[p * n + j],
            MatLayout::Transposed => b[j * k + p],
        })
    };
    let mut value = vec![0.0f64; m * n];
    let mut scale = vec![0.0f64; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64;
            let mut mag = 0.0f64;
            for p in 0..k {
                let t = at(i, p) * bt(p, j);
                acc += t;
                mag += t.abs();
            }
            value[i * n + j] = acc;
            scale[i * n + j] = mag;
        }
    }
    RefOut { value, scale }
}

// ---- convolution family ----

/// Forward conv3d by the definition: stride 1, same zero padding,
/// out-of-bounds taps contribute nothing (matching the bounds-skip in the
/// optimized kernel — padding never multiplies the weight).
#[allow(clippy::too_many_arguments)] // mirrors the kernel's full shape bundle
pub fn conv3d_ref(
    n: usize,
    cin: usize,
    cout: usize,
    spatial: [usize; 3],
    kernel: [usize; 3],
    x: &[f32],
    w: &[f32],
) -> RefOut {
    let [sd, sh, sw] = spatial;
    let [kd, kh, kw] = kernel;
    let (pd, ph, pw) = (kd / 2, kh / 2, kw / 2);
    let vol = sd * sh * sw;
    let mut value = vec![0.0f64; n * cout * vol];
    let mut scale = vec![0.0f64; n * cout * vol];
    for ni in 0..n {
        for co in 0..cout {
            for d in 0..sd {
                for h in 0..sh {
                    for wi in 0..sw {
                        let mut acc = 0.0f64;
                        let mut mag = 0.0f64;
                        for ci in 0..cin {
                            for zd in 0..kd {
                                for zh in 0..kh {
                                    for zw in 0..kw {
                                        // input index = out + tap − pad; skip if outside.
                                        let (id, ih, iw) = (
                                            (d + zd).wrapping_sub(pd),
                                            (h + zh).wrapping_sub(ph),
                                            (wi + zw).wrapping_sub(pw),
                                        );
                                        if id >= sd || ih >= sh || iw >= sw {
                                            continue;
                                        }
                                        let xv = f64::from(
                                            x[(((ni * cin + ci) * sd + id) * sh + ih) * sw + iw],
                                        );
                                        let wv = f64::from(
                                            w[(((co * cin + ci) * kd + zd) * kh + zh) * kw + zw],
                                        );
                                        acc += xv * wv;
                                        mag += (xv * wv).abs();
                                    }
                                }
                            }
                        }
                        let o = (((ni * cout + co) * sd + d) * sh + h) * sw + wi;
                        value[o] = acc;
                        scale[o] = mag;
                    }
                }
            }
        }
    }
    RefOut { value, scale }
}

/// Gradient of conv3d w.r.t. its input, by the definition:
/// `gin[n,ci,p] = Σ_{co,z} w[co,ci,z] · gout[n,co,p − z + pad]`.
#[allow(clippy::too_many_arguments)]
pub fn conv3d_grad_input_ref(
    n: usize,
    cin: usize,
    cout: usize,
    spatial: [usize; 3],
    kernel: [usize; 3],
    gout: &[f32],
    w: &[f32],
) -> RefOut {
    let [sd, sh, sw] = spatial;
    let [kd, kh, kw] = kernel;
    let (pd, ph, pw) = (kd / 2, kh / 2, kw / 2);
    let vol = sd * sh * sw;
    let mut value = vec![0.0f64; n * cin * vol];
    let mut scale = vec![0.0f64; n * cin * vol];
    for ni in 0..n {
        for ci in 0..cin {
            for id in 0..sd {
                for ih in 0..sh {
                    for iw in 0..sw {
                        let mut acc = 0.0f64;
                        let mut mag = 0.0f64;
                        for co in 0..cout {
                            for zd in 0..kd {
                                for zh in 0..kh {
                                    for zw in 0..kw {
                                        let (od, oh, ow) = (
                                            (id + pd).wrapping_sub(zd),
                                            (ih + ph).wrapping_sub(zh),
                                            (iw + pw).wrapping_sub(zw),
                                        );
                                        if od >= sd || oh >= sh || ow >= sw {
                                            continue;
                                        }
                                        let gv = f64::from(
                                            gout[(((ni * cout + co) * sd + od) * sh + oh) * sw
                                                + ow],
                                        );
                                        let wv = f64::from(
                                            w[(((co * cin + ci) * kd + zd) * kh + zh) * kw + zw],
                                        );
                                        acc += gv * wv;
                                        mag += (gv * wv).abs();
                                    }
                                }
                            }
                        }
                        let o = (((ni * cin + ci) * sd + id) * sh + ih) * sw + iw;
                        value[o] = acc;
                        scale[o] = mag;
                    }
                }
            }
        }
    }
    RefOut { value, scale }
}

/// Gradient of conv3d w.r.t. its weight, by the definition:
/// `gw[co,ci,z] = Σ_{n,p} x[n,ci,p + z − pad] · gout[n,co,p]`.
#[allow(clippy::too_many_arguments)]
pub fn conv3d_grad_weight_ref(
    n: usize,
    cin: usize,
    cout: usize,
    spatial: [usize; 3],
    kernel: [usize; 3],
    x: &[f32],
    gout: &[f32],
) -> RefOut {
    let [sd, sh, sw] = spatial;
    let [kd, kh, kw] = kernel;
    let (pd, ph, pw) = (kd / 2, kh / 2, kw / 2);
    let kvol = kd * kh * kw;
    let mut value = vec![0.0f64; cout * cin * kvol];
    let mut scale = vec![0.0f64; cout * cin * kvol];
    for co in 0..cout {
        for ci in 0..cin {
            for zd in 0..kd {
                for zh in 0..kh {
                    for zw in 0..kw {
                        let mut acc = 0.0f64;
                        let mut mag = 0.0f64;
                        for ni in 0..n {
                            for d in 0..sd {
                                for h in 0..sh {
                                    for wi in 0..sw {
                                        let (id, ih, iw) = (
                                            (d + zd).wrapping_sub(pd),
                                            (h + zh).wrapping_sub(ph),
                                            (wi + zw).wrapping_sub(pw),
                                        );
                                        if id >= sd || ih >= sh || iw >= sw {
                                            continue;
                                        }
                                        let xv = f64::from(
                                            x[(((ni * cin + ci) * sd + id) * sh + ih) * sw + iw],
                                        );
                                        let gv = f64::from(
                                            gout[(((ni * cout + co) * sd + d) * sh + h) * sw + wi],
                                        );
                                        acc += xv * gv;
                                        mag += (xv * gv).abs();
                                    }
                                }
                            }
                        }
                        let o = ((co * cin + ci) * kd + zd) * kh * kw + zh * kw + zw;
                        value[o] = acc;
                        scale[o] = mag;
                    }
                }
            }
        }
    }
    RefOut { value, scale }
}

/// NaN-propagating max pool by the definition: the max of a window that
/// contains a NaN is NaN.
pub fn maxpool3d_ref(nc: usize, spatial: [usize; 3], factors: [usize; 3], x: &[f32]) -> Vec<f64> {
    let [d, h, w] = spatial;
    let [fd, fh, fw] = factors;
    let (od, oh, ow) = (d / fd, h / fh, w / fw);
    let mut out = vec![0.0f64; nc * od * oh * ow];
    for slab in 0..nc {
        let base = slab * d * h * w;
        for zd in 0..od {
            for zh in 0..oh {
                for zw in 0..ow {
                    let mut best = f64::NEG_INFINITY;
                    let mut poisoned = false;
                    for dd in 0..fd {
                        for hh in 0..fh {
                            for ww in 0..fw {
                                let v = f64::from(
                                    x[base
                                        + ((zd * fd + dd) * h + (zh * fh + hh)) * w
                                        + (zw * fw + ww)],
                                );
                                if v.is_nan() {
                                    poisoned = true;
                                } else if v > best {
                                    best = v;
                                }
                            }
                        }
                    }
                    out[((slab * od + zd) * oh + zh) * ow + zw] =
                        if poisoned { f64::NAN } else { best };
                }
            }
        }
    }
    out
}

// ---- normalization & row ops ----

/// Training-mode batch norm by the definition, entirely in f64: biased batch
/// statistics over all axes but the channel, `y = (x−μ)·(σ²+ε)^−½·γ + β`.
pub fn batchnorm_train_ref(
    n: usize,
    c: usize,
    inner: usize,
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f64,
) -> RefOut {
    let count = (n * inner) as f64;
    let mut mean = vec![0.0f64; c];
    let mut var = vec![0.0f64; c];
    for ni in 0..n {
        for ci in 0..c {
            for ki in 0..inner {
                mean[ci] += f64::from(x[(ni * c + ci) * inner + ki]);
            }
        }
    }
    for m in mean.iter_mut() {
        *m /= count;
    }
    for ni in 0..n {
        for ci in 0..c {
            for ki in 0..inner {
                let d = f64::from(x[(ni * c + ci) * inner + ki]) - mean[ci];
                var[ci] += d * d;
            }
        }
    }
    for v in var.iter_mut() {
        *v /= count;
    }
    let mut value = vec![0.0f64; x.len()];
    let mut scale = vec![0.0f64; x.len()];
    for ni in 0..n {
        for ci in 0..c {
            let invstd = 1.0 / (var[ci] + eps).sqrt();
            let (g, b) = (f64::from(gamma[ci]), f64::from(beta[ci]));
            for ki in 0..inner {
                let o = (ni * c + ci) * inner + ki;
                let centered = f64::from(x[o]) - mean[ci];
                value[o] = centered * invstd * g + b;
                scale[o] = (centered * invstd * g).abs()
                    + b.abs()
                    + (f64::from(x[o]).abs() + mean[ci].abs()) * invstd * g.abs();
            }
        }
    }
    RefOut { value, scale }
}

/// Per-channel affine `y = x·scale[c] + shift[c]` (inference-mode batch
/// norm) by the definition.
pub fn channel_affine_ref(
    n: usize,
    c: usize,
    inner: usize,
    x: &[f32],
    sc: &[f32],
    sh: &[f32],
) -> RefOut {
    let mut value = vec![0.0f64; x.len()];
    let mut scale = vec![0.0f64; x.len()];
    for ni in 0..n {
        for ci in 0..c {
            for ki in 0..inner {
                let o = (ni * c + ci) * inner + ki;
                let t = f64::from(x[o]) * f64::from(sc[ci]);
                value[o] = t + f64::from(sh[ci]);
                scale[o] = t.abs() + f64::from(sh[ci]).abs();
            }
        }
    }
    RefOut { value, scale }
}

/// Channel-broadcast bias add over `[N, C, inner]` by the definition.
pub fn bias_channels_ref(n: usize, c: usize, inner: usize, x: &[f32], b: &[f32]) -> RefOut {
    let mut value = vec![0.0f64; x.len()];
    let mut scale = vec![0.0f64; x.len()];
    for ni in 0..n {
        for (ci, &bc) in b.iter().enumerate().take(c) {
            for ki in 0..inner {
                let o = (ni * c + ci) * inner + ki;
                let (xv, bv) = (f64::from(x[o]), f64::from(bc));
                value[o] = xv + bv;
                scale[o] = xv.abs() + bv.abs();
            }
        }
    }
    RefOut { value, scale }
}

/// Vertex blending by the definition: `out[q,ch] = Σ_v w[q·g+v]·x[q·g+v,ch]`,
/// skipping exactly-zero weights. The skip is part of the kernel's pinned
/// contract — a zero trilinear weight must mask a NaN vertex row (vertices
/// outside the cell are never touched), so the reference twin mirrors it.
pub fn blend_rows_ref(rows: usize, c: usize, x: &[f32], weights: &[f32], group: usize) -> RefOut {
    let q = rows / group;
    let mut value = vec![0.0f64; q * c];
    let mut scale = vec![0.0f64; q * c];
    for qi in 0..q {
        for ch in 0..c {
            let mut acc = 0.0f64;
            let mut mag = 0.0f64;
            for v in 0..group {
                let w = f64::from(weights[qi * group + v]);
                if w == 0.0 {
                    continue;
                }
                let t = w * f64::from(x[(qi * group + v) * c + ch]);
                acc += t;
                mag += t.abs();
            }
            value[qi * c + ch] = acc;
            scale[qi * c + ch] = mag;
        }
    }
    RefOut { value, scale }
}

// ---- element-wise activations ----

/// `max(x, 0)` with the f32 `max` NaN convention (`max(NaN, 0) = 0`).
pub fn relu_ref(x: f64) -> f64 {
    x.max(0.0)
}

/// Numerically stable softplus `ln(1 + eˣ)` in f64, valid for all x.
pub fn softplus_ref(x: f64) -> f64 {
    if x > 0.0 {
        x + (-x).exp().ln_1p()
    } else {
        x.exp().ln_1p()
    }
}

/// f64 tanh.
pub fn tanh_ref(x: f64) -> f64 {
    x.tanh()
}

/// Numerically stable logistic sigmoid in f64.
pub fn sigmoid_ref(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// `|x|`.
pub fn abs_ref(x: f64) -> f64 {
    x.abs()
}

// ---- fully-connected layer backward ----

/// f64 twin of the backward pass of one softplus layer `y = softplus(x·Wᵀ +
/// b)` (the tape's `Graph::linear` node): given the output adjoint `gy:
/// [m, n]`, the adjoints of `x: [m, k]`, `W: [n, k]` and `b: [n]` by the
/// chain rule, `dz = gy ⊙ σ(z)` with `z` recomputed in f64. Returns `(dx,
/// dW, db)`; each scale is the sum of the magnitudes of the terms of that
/// element's sum.
pub fn linear_softplus_backward_ref(
    m: usize,
    k: usize,
    n: usize,
    x: &[f32],
    w: &[f32],
    b: &[f32],
    gy: &[f32],
) -> (RefOut, RefOut, RefOut) {
    let out = |len: usize| RefOut { value: vec![0.0; len], scale: vec![0.0; len] };
    let (mut dx, mut dw, mut db) = (out(m * k), out(n * k), out(n));
    for r in 0..m {
        for j in 0..n {
            let mut z = f64::from(b[j]);
            for i in 0..k {
                z += f64::from(x[r * k + i]) * f64::from(w[j * k + i]);
            }
            let dz = f64::from(gy[r * n + j]) * sigmoid_ref(z);
            db.value[j] += dz;
            db.scale[j] += dz.abs();
            for i in 0..k {
                let (xv, wv) = (f64::from(x[r * k + i]), f64::from(w[j * k + i]));
                dw.value[j * k + i] += dz * xv;
                dw.scale[j * k + i] += (dz * xv).abs();
                dx.value[r * k + i] += dz * wv;
                dx.scale[r * k + i] += (dz * wv).abs();
            }
        }
    }
    (dx, dw, db)
}

// ---- Fourier / spectral ----

/// Naive O(n²) complex DFT: `X[k] = Σ_j x[j]·e^{−2πi·jk/n}`, plus the
/// per-bin magnitude bound `Σ_j |x_j|`.
pub fn dft_ref(re: &[f64], im: &[f64]) -> (Vec<(f64, f64)>, f64) {
    let n = re.len();
    let mut out = vec![(0.0f64, 0.0f64); n];
    let mut mag = 0.0f64;
    for j in 0..n {
        mag += (re[j] * re[j] + im[j] * im[j]).sqrt();
    }
    for (k, o) in out.iter_mut().enumerate() {
        let (mut ar, mut ai) = (0.0f64, 0.0f64);
        for j in 0..n {
            let theta = -2.0 * std::f64::consts::PI * ((j * k) % n) as f64 / n as f64;
            let (s, c) = theta.sin_cos();
            ar += re[j] * c - im[j] * s;
            ai += re[j] * s + im[j] * c;
        }
        *o = (ar, ai);
    }
    (out, mag)
}

/// Naive inverse DFT with 1/n normalization (the plan's convention).
pub fn idft_ref(spec: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let n = spec.len();
    let mut out = vec![(0.0f64, 0.0f64); n];
    for (j, o) in out.iter_mut().enumerate() {
        let (mut ar, mut ai) = (0.0f64, 0.0f64);
        for (k, &(xr, xi)) in spec.iter().enumerate() {
            let theta = 2.0 * std::f64::consts::PI * ((j * k) % n) as f64 / n as f64;
            let (s, c) = theta.sin_cos();
            ar += xr * c - xi * s;
            ai += xr * s + xi * c;
        }
        *o = (ar / n as f64, ai / n as f64);
    }
    out
}

/// The first `n/2 + 1` bins of the DFT of a real row (the `RealFftPlan`
/// output convention), plus the shared magnitude bound.
pub fn real_dft_ref(row: &[f64]) -> (Vec<(f64, f64)>, f64) {
    let im = vec![0.0f64; row.len()];
    let (full, mag) = dft_ref(row, &im);
    let keep = row.len() / 2 + 1;
    (full.into_iter().take(keep).collect(), mag)
}

/// Reference x-direction energy spectrum: naive real DFT per z-row, binned
/// with the Hermitian multiplicity rule — DC once, the Nyquist bin (present
/// only for even `nx`) once, every other mode twice. Returns per-bin energy
/// and a per-bin magnitude bound.
pub fn energy_spectrum_x_ref(components: &[&[f64]], nz: usize, nx: usize) -> RefOut {
    let bins = nx / 2 + 1;
    let n2 = (nx * nx) as f64;
    let mut value = vec![0.0f64; bins];
    let mut scale = vec![0.0f64; bins];
    for comp in components {
        assert_eq!(comp.len(), nz * nx);
        for row in comp.chunks(nx) {
            let (spec, mag) = real_dft_ref(row);
            for (k, &(zr, zi)) in spec.iter().enumerate() {
                let mult = if k == 0 || 2 * k == nx { 1.0 } else { 2.0 };
                value[k] += 0.5 * mult * (zr * zr + zi * zi) / n2;
                scale[k] += 0.5 * mult * mag * mag / n2;
            }
        }
    }
    // Production averages over the z-rows (components are summed).
    for v in value.iter_mut().chain(scale.iter_mut()) {
        *v /= nz as f64;
    }
    RefOut { value, scale }
}

// ---- solver finite-difference / spectral stencils ----

/// Full-spectrum signed wavenumber for mode `k` of `n`, matching the
/// half-spectrum mapping in `mfn_solver::ops`: positive for `k < n/2`,
/// negative mirror for `k > n/2`.
fn full_wavenumber(k: usize, n: usize, lx: f64) -> f64 {
    let tau = 2.0 * std::f64::consts::PI / lx;
    // `2*k == n` is the Nyquist mode; it keeps the positive sign here and
    // callers decide whether to zero it.
    if 2 * k <= n {
        tau * k as f64
    } else {
        -tau * (n - k) as f64
    }
}

/// Spectral ∂/∂x per z-row via the naive DFT: multiply by `i·κ`, Nyquist
/// zeroed (matching `mfn_solver::ops::ddx`).
pub fn ddx_ref(nz: usize, nx: usize, lx: f64, f: &[f64]) -> RefOut {
    spectral_x_ref(nz, nx, f, |k| {
        if 2 * k == nx {
            (0.0, 0.0)
        } else {
            (0.0, full_wavenumber(k, nx, lx)) // multiply by i·κ
        }
    })
}

/// Spectral ∂²/∂x² per z-row via the naive DFT: multiply by `−κ²` (Nyquist
/// included, matching `mfn_solver::ops::d2dx2`).
pub fn d2dx2_ref(nz: usize, nx: usize, lx: f64, f: &[f64]) -> RefOut {
    spectral_x_ref(nz, nx, f, |k| {
        let kk = full_wavenumber(k, nx, lx);
        (-kk * kk, 0.0)
    })
}

/// Dealiasing by the definition: zero every mode with `min(k, n−k)` above
/// `nx/3`, reconstruct.
pub fn dealias_x_ref(nz: usize, nx: usize, f: &[f64]) -> RefOut {
    let cutoff = nx / 3;
    spectral_x_ref(nz, nx, f, |k| if k.min(nx - k) > cutoff { (0.0, 0.0) } else { (1.0, 0.0) })
}

/// Shared spectral pipeline: naive DFT each row, multiply mode `k` by the
/// complex factor `factor(k)`, naive inverse, keep the real part. The
/// magnitude bound threads the absolute values through the same pipeline.
fn spectral_x_ref(nz: usize, nx: usize, f: &[f64], factor: impl Fn(usize) -> (f64, f64)) -> RefOut {
    assert_eq!(f.len(), nz * nx);
    let mut value = vec![0.0f64; f.len()];
    let mut scale = vec![0.0f64; f.len()];
    for (j, row) in f.chunks(nx).enumerate() {
        let im = vec![0.0f64; nx];
        let (spec, mag) = dft_ref(row, &im);
        let scaled: Vec<(f64, f64)> = spec
            .iter()
            .enumerate()
            .map(|(k, &(zr, zi))| {
                let (fr, fi) = factor(k);
                (zr * fr - zi * fi, zr * fi + zi * fr)
            })
            .collect();
        // Per-element inverse bound: (1/n)·Σ_k |factor_k|·|X_k| ≤
        // (1/n)·Σ_k |factor_k|·mag.
        let bound = scaled
            .iter()
            .zip(0..nx)
            .map(|(_, k)| {
                let (fr, fi) = factor(k);
                (fr * fr + fi * fi).sqrt() * mag
            })
            .sum::<f64>()
            / nx as f64;
        let back = idft_ref(&scaled);
        for (i, &(re, _)) in back.iter().enumerate() {
            value[j * nx + i] = re;
            scale[j * nx + i] = bound;
        }
    }
    RefOut { value, scale }
}

/// FD ∂/∂z by the definition: central interior, second-order one-sided
/// three-point walls.
pub fn ddz_ref(nz: usize, nx: usize, dz: f64, f: &[f64]) -> RefOut {
    let mut value = vec![0.0f64; f.len()];
    let mut scale = vec![0.0f64; f.len()];
    let fd = |j: usize, i: usize| f[j * nx + i];
    for i in 0..nx {
        value[i] = (-3.0 * fd(0, i) + 4.0 * fd(1, i) - fd(2, i)) / (2.0 * dz);
        scale[i] = (3.0 * fd(0, i).abs() + 4.0 * fd(1, i).abs() + fd(2, i).abs()) / (2.0 * dz);
        let top = nz - 1;
        value[top * nx + i] =
            (3.0 * fd(top, i) - 4.0 * fd(top - 1, i) + fd(top - 2, i)) / (2.0 * dz);
        scale[top * nx + i] =
            (3.0 * fd(top, i).abs() + 4.0 * fd(top - 1, i).abs() + fd(top - 2, i).abs())
                / (2.0 * dz);
    }
    for j in 1..nz - 1 {
        for i in 0..nx {
            value[j * nx + i] = (fd(j + 1, i) - fd(j - 1, i)) / (2.0 * dz);
            scale[j * nx + i] = (fd(j + 1, i).abs() + fd(j - 1, i).abs()) / (2.0 * dz);
        }
    }
    RefOut { value, scale }
}

/// FD ∂²/∂z² by the definition: central interior, second-order one-sided
/// four-point walls.
pub fn d2dz2_ref(nz: usize, nx: usize, dz: f64, f: &[f64]) -> RefOut {
    let dz2 = dz * dz;
    let mut value = vec![0.0f64; f.len()];
    let mut scale = vec![0.0f64; f.len()];
    let fd = |j: usize, i: usize| f[j * nx + i];
    for i in 0..nx {
        value[i] = (2.0 * fd(0, i) - 5.0 * fd(1, i) + 4.0 * fd(2, i) - fd(3, i)) / dz2;
        scale[i] =
            (2.0 * fd(0, i).abs() + 5.0 * fd(1, i).abs() + 4.0 * fd(2, i).abs() + fd(3, i).abs())
                / dz2;
        let top = nz - 1;
        value[top * nx + i] =
            (2.0 * fd(top, i) - 5.0 * fd(top - 1, i) + 4.0 * fd(top - 2, i) - fd(top - 3, i)) / dz2;
        scale[top * nx + i] = (2.0 * fd(top, i).abs()
            + 5.0 * fd(top - 1, i).abs()
            + 4.0 * fd(top - 2, i).abs()
            + fd(top - 3, i).abs())
            / dz2;
    }
    for j in 1..nz - 1 {
        for i in 0..nx {
            value[j * nx + i] = (fd(j + 1, i) - 2.0 * fd(j, i) + fd(j - 1, i)) / dz2;
            scale[j * nx + i] =
                (fd(j + 1, i).abs() + 2.0 * fd(j, i).abs() + fd(j - 1, i).abs()) / dz2;
        }
    }
    RefOut { value, scale }
}

/// Nearest-neighbour 3-d upsampling by the definition: every output voxel is
/// an exact copy of its source voxel.
pub fn upsample_nearest3d_ref(
    nc: usize,
    spatial: [usize; 3],
    factors: [usize; 3],
    x: &[f32],
) -> Vec<f64> {
    let [d, h, w] = spatial;
    let [fd, fh, fw] = factors;
    let (od, oh, ow) = (d * fd, h * fh, w * fw);
    let mut out = vec![0.0f64; nc * od * oh * ow];
    for slab in 0..nc {
        for zd in 0..od {
            for zh in 0..oh {
                for zw in 0..ow {
                    out[((slab * od + zd) * oh + zh) * ow + zw] =
                        f64::from(x[((slab * d + zd / fd) * h + zh / fh) * w + zw / fw]);
                }
            }
        }
    }
    out
}

/// Laplacian by the definition: spectral ∂²/∂x² plus FD ∂²/∂z², element-wise.
pub fn laplacian_ref(nz: usize, nx: usize, lx: f64, dz: f64, f: &[f64]) -> RefOut {
    let xx = d2dx2_ref(nz, nx, lx, f);
    let zz = d2dz2_ref(nz, nx, dz, f);
    RefOut {
        value: xx.value.iter().zip(&zz.value).map(|(a, b)| a + b).collect(),
        scale: xx.scale.iter().zip(&zz.scale).map(|(a, b)| a + b).collect(),
    }
}

/// Trilinear space-time interpolation twin of `mfn_data::sample_trilinear`,
/// with all weights and blends in f64. Mirrors the production axis
/// conventions — `t`/`z` clamped, `x` periodic — and the pinned
/// zero-weight skip (a zero weight must mask the row it multiplies).
pub fn sample_trilinear_ref(
    ds: &mfn_data::Dataset,
    t: f64,
    z: f64,
    x: f64,
) -> ([f64; mfn_data::CHANNELS], [f64; mfn_data::CHANNELS]) {
    // (i0, i1, frac) on a clamped axis.
    let clamped = |coord: f64, h: f64, n: usize| -> (usize, usize, f64) {
        let s = (coord / h).clamp(0.0, (n - 1) as f64);
        let i0 = (s.floor() as usize).min(n.saturating_sub(2));
        let i1 = (i0 + 1).min(n - 1);
        (i0, i1, s - i0 as f64)
    };
    let periodic = |coord: f64, h: f64, n: usize| -> (usize, usize, f64) {
        let period = h * n as f64;
        let mut c = coord % period;
        if c < 0.0 {
            c += period;
        }
        let s = c / h;
        let i0 = (s.floor() as usize) % n;
        ((i0), (i0 + 1) % n, s - s.floor())
    };
    let (t0, t1, tf) = clamped(t, ds.dt().max(1e-30), ds.meta.nt);
    let (z0, z1, zf) = clamped(z, ds.dz(), ds.meta.nz);
    let (x0, x1, xf) = periodic(x, ds.dx(), ds.meta.nx);
    let mut value = [0.0f64; mfn_data::CHANNELS];
    let mut scale = [0.0f64; mfn_data::CHANNELS];
    for c in 0..mfn_data::CHANNELS {
        for (ft, wt) in [(t0, 1.0 - tf), (t1, tf)] {
            if wt == 0.0 {
                continue;
            }
            for (fz, wz) in [(z0, 1.0 - zf), (z1, zf)] {
                if wz == 0.0 {
                    continue;
                }
                for (fx, wx) in [(x0, 1.0 - xf), (x1, xf)] {
                    if wx == 0.0 {
                        continue;
                    }
                    let v = f64::from(ds.at(ft, c, fz, fx));
                    value[c] += wt * wz * wx * v;
                    // Bound by Σ|v|, not Σ|w·v|: the optimized kernel's f32
                    // weights carry an *absolute* error of ~2⁻²³ (the `1−frac`
                    // subtraction), so its output error is O(ε·Σ|v|) even when
                    // a weight is tiny.
                    scale[c] += v.abs();
                }
            }
        }
    }
    (value, scale)
}

// ---- test-time refinement objective (serving-side physics refinement) ----

/// One decoder MLP layer widened to f64: row-major `[out, in]` weight plus
/// bias, as read back from the `ParamStore`.
#[derive(Clone)]
pub struct MlpLayerRef {
    /// Row-major `[out, in]` weight matrix.
    pub weight: Vec<f64>,
    /// Per-output bias.
    pub bias: Vec<f64>,
    /// Input width.
    pub in_features: usize,
    /// Output width.
    pub out_features: usize,
}

/// f64 twin of the tape's six derivative lanes: a value with its first
/// derivatives along `t, z, x` and its second along `z` and `x`, in that
/// order — `[f, f_t, f_z, f_x, f_zz, f_xx]`.
pub type Lanes = [f64; 6];

/// `f · g` on lanes, by the Leibniz rule: `(fg)′ = f′g + fg′` and
/// `(fg)″ = f″g + 2f′g′ + fg″` (lanes 4, 5 pair with lanes 2, 3).
pub fn lanes_mul(f: Lanes, g: Lanes) -> Lanes {
    [
        f[0] * g[0],
        f[1] * g[0] + f[0] * g[1],
        f[2] * g[0] + f[0] * g[2],
        f[3] * g[0] + f[0] * g[3],
        f[4] * g[0] + 2.0 * f[2] * g[2] + f[0] * g[4],
        f[5] * g[0] + 2.0 * f[3] * g[3] + f[0] * g[5],
    ]
}

/// `softplus(u)` on lanes, by the chain rule: `σ(u)′ = σ′u′` and
/// `σ(u)″ = σ″u′² + σ′u″` with `σ′` the sigmoid `s` and `σ″ = s(1 − s)`.
pub fn lanes_softplus(u: Lanes) -> Lanes {
    let s = sigmoid_ref(u[0]);
    let c = s * (1.0 - s);
    [
        softplus_ref(u[0]),
        s * u[1],
        s * u[2],
        s * u[3],
        c * u[2] * u[2] + s * u[4],
        c * u[3] * u[3] + s * u[5],
    ]
}

/// f64 twin of the continuous decoder at one local point of a single-patch
/// latent grid `[1, c, nt, nz, nx]`, value and exact derivatives with respect
/// to physical coordinates (a patch of `extent` per axis) at once: locate the
/// cell, run the MLP (softplus hidden — the activation the PDE-constrained
/// decoder uses) on the concatenation of per-vertex relative coordinates and
/// latent vector, and blend the 8 vertex outputs with trilinear weights —
/// every quantity a [`Lanes`], the coordinates seeded with their rate of
/// change `(n − 1)/extent` and the latent with none.
///
/// Returns `(lanes, scales)` per output channel; a lane's `scale` bounds the
/// terms of its last-layer dot products and of the blend along the same
/// path. Lane 0 is the plain decode.
pub fn decode_point_ref(
    layers: &[MlpLayerRef],
    latent: &[f64],
    c: usize,
    grid: [usize; 3],
    local: [f64; 3],
    extent: [f64; 3],
) -> (Vec<Lanes>, Vec<Lanes>) {
    let vol = grid[0] * grid[1] * grid[2];
    let locate = |q: f64, n: usize| -> (usize, f64) {
        let s = q.clamp(0.0, 1.0) * (n - 1) as f64;
        let i = (s.floor() as usize).min(n.saturating_sub(2));
        (i, s - i as f64)
    };
    let cell = [0, 1, 2].map(|a| locate(local[a], grid[a]));
    let rate = [0, 1, 2].map(|a| (grid[a] - 1) as f64 / extent[a]);
    // `value` moving along `axis` at `slope` per unit of physical coordinate.
    let moving = |value: f64, axis: usize, slope: f64| -> Lanes {
        let mut l = [value, 0.0, 0.0, 0.0, 0.0, 0.0];
        l[1 + axis] = slope;
        l
    };
    let out_w = layers.last().expect("non-empty MLP").out_features;
    let mut out = vec![[0.0f64; 6]; out_w];
    let mut scale = vec![[0.0f64; 6]; out_w];
    for v in 0..8usize {
        let d = [(v >> 2) & 1, (v >> 1) & 1, v & 1];
        let sp = ((cell[0].0 + d[0]) * grid[1] + (cell[1].0 + d[1])) * grid[2] + (cell[2].0 + d[2]);
        let mut h: Vec<Lanes> =
            (0..3).map(|a| moving(cell[a].1 - d[a] as f64, a, rate[a])).collect();
        h.extend((0..c).map(|ci| moving(latent[ci * vol + sp], 0, 0.0)));
        let last = layers.len() - 1;
        let mut mag = Vec::new();
        for (li, layer) in layers.iter().enumerate() {
            let mut y = vec![[0.0f64; 6]; layer.out_features];
            mag = vec![[0.0f64; 6]; layer.out_features];
            for (o, yo) in y.iter_mut().enumerate() {
                // A linear map acts on every lane alike; the bias is a constant.
                let mut acc = moving(layer.bias[o], 0, 0.0);
                mag[o][0] = acc[0].abs();
                for (i2, hi) in h.iter().enumerate() {
                    for k in 0..6 {
                        let term = layer.weight[o * layer.in_features + i2] * hi[k];
                        acc[k] += term;
                        mag[o][k] += term.abs();
                    }
                }
                *yo = if li == last { acc } else { lanes_softplus(acc) };
            }
            h = y;
        }
        // The trilinear weight: one factor per axis, `f` or `1 − f`.
        let factor = |a: usize| {
            let f = cell[a].1;
            if d[a] == 1 {
                moving(f, a, rate[a])
            } else {
                moving(1.0 - f, a, -rate[a])
            }
        };
        let w = lanes_mul(lanes_mul(factor(0), factor(1)), factor(2));
        for o in 0..out_w {
            let (term, bound) = (lanes_mul(w, h[o]), lanes_mul(w.map(f64::abs), mag[o]));
            for k in 0..6 {
                out[o][k] += term[k];
                scale[o][k] += bound[k];
            }
        }
    }
    (out, scale)
}

/// f64 twin of the test-time refinement objective
/// (`mfn_core::equation_loss_at_points` with all four Rayleigh–Bénard
/// constraints): the mean absolute equation residual over the query points
/// of one patch, on the exact derivatives of [`decode_point_ref`]. Returns
/// `(value, scale)`; `scale` bounds the residual terms along the same path.
#[allow(clippy::too_many_arguments)]
pub fn refine_objective_ref(
    layers: &[MlpLayerRef],
    latent: &[f64],
    c: usize,
    grid: [usize; 3],
    points: &[[f64; 3]],
    extent: [f64; 3],
    p_star: f64,
    r_star: f64,
    mean: [f64; 4],
    std: [f64; 4],
) -> (f64, f64) {
    let mut acc = 0.0f64;
    let mut acc_scale = 0.0f64;
    for q in points {
        let (lanes, bounds) = decode_point_ref(layers, latent, c, grid, *q, extent);
        // Denormalized `(value, magnitude bound)`: values need mean and std,
        // derivatives only the std factor. Channels: 0=T, 1=p, 2=u, 3=w;
        // lanes: 0=value, 1=∂t, 2=∂z, 3=∂x, 4=∂zz, 5=∂xx.
        let val = |ch: usize| std[ch] * lanes[ch][0] + mean[ch];
        let der = |ch: usize, k: usize| (std[ch] * lanes[ch][k], std[ch] * bounds[ch][k]);
        let (t_v, u_v, w_v) = (val(0), val(2), val(3));
        let [(t_t, t_t_s), (t_z, t_z_s), (t_x, t_x_s), (t_zz, t_zz_s), (t_xx, t_xx_s)] =
            [1, 2, 3, 4, 5].map(|k| der(0, k));
        let [(p_z, p_z_s), (p_x, p_x_s)] = [2, 3].map(|k| der(1, k));
        let [(u_t, u_t_s), (u_z, u_z_s), (u_x, u_x_s), (u_zz, u_zz_s), (u_xx, u_xx_s)] =
            [1, 2, 3, 4, 5].map(|k| der(2, k));
        let [(w_t, w_t_s), (w_z, w_z_s), (w_x, w_x_s), (w_zz, w_zz_s), (w_xx, w_xx_s)] =
            [1, 2, 3, 4, 5].map(|k| der(3, k));
        // r_c = u_x + w_z
        acc += (u_x + w_z).abs();
        acc_scale += u_x_s + w_z_s;
        // r_T = T_t + u T_x + w T_z − P*(T_xx + T_zz)
        acc += (t_t + u_v * t_x + w_v * t_z - p_star * (t_xx + t_zz)).abs();
        acc_scale += t_t_s + u_v.abs() * t_x_s + w_v.abs() * t_z_s + p_star * (t_xx_s + t_zz_s);
        // r_u = u_t + u u_x + w u_z + p_x − R*(u_xx + u_zz)
        acc += (u_t + u_v * u_x + w_v * u_z + p_x - r_star * (u_xx + u_zz)).abs();
        acc_scale +=
            u_t_s + u_v.abs() * u_x_s + w_v.abs() * u_z_s + p_x_s + r_star * (u_xx_s + u_zz_s);
        // r_w = w_t + u w_x + w w_z + p_z − T − R*(w_xx + w_zz)
        acc += (w_t + u_v * w_x + w_v * w_z + p_z - t_v - r_star * (w_xx + w_zz)).abs();
        acc_scale += w_t_s
            + u_v.abs() * w_x_s
            + w_v.abs() * w_z_s
            + p_z_s
            + t_v.abs()
            + r_star * (w_xx_s + w_zz_s);
    }
    let n = (points.len() * 4) as f64;
    (acc / n, acc_scale / n)
}

/// Latent gradient of [`refine_objective_ref`] by f64 central differences —
/// the oracle for the reverse-mode gradient the test-time refinement loop
/// descends. `scale` is the max gradient magnitude, for every element: on a
/// shared tape the f32 rounding error of one adjoint is driven by the
/// largest intermediates flowing through it, so a near-zero gradient entry
/// still carries absolute error proportional to the gradient's overall
/// magnitude, not its own.
#[allow(clippy::too_many_arguments)]
pub fn refine_latent_grad_ref(
    layers: &[MlpLayerRef],
    latent: &[f64],
    c: usize,
    grid: [usize; 3],
    points: &[[f64; 3]],
    extent: [f64; 3],
    p_star: f64,
    r_star: f64,
    mean: [f64; 4],
    std: [f64; 4],
    fd_step: f64,
) -> RefOut {
    let mut work = latent.to_vec();
    let mut value = vec![0.0f64; latent.len()];
    for (i, out) in value.iter_mut().enumerate() {
        let base = work[i];
        let mut at = |x: f64| {
            work[i] = x;
            refine_objective_ref(layers, &work, c, grid, points, extent, p_star, r_star, mean, std)
                .0
        };
        *out = (at(base + fd_step) - at(base - fd_step)) / (2.0 * fd_step);
        work[i] = base;
    }
    let gmax = value.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    RefOut { scale: vec![gmax; value.len()], value }
}

/// Weight gradient of [`refine_objective_ref`] by f64 central differences,
/// at the `(layer, index into its [out, in] weight)` entries asked for — the
/// oracle for the reverse-mode gradient a training step's equation loss
/// sends to the decoder's weights. `scale` is the largest magnitude among
/// them, for every entry, as in [`refine_latent_grad_ref`].
#[allow(clippy::too_many_arguments)]
pub fn refine_weight_grad_ref(
    layers: &[MlpLayerRef],
    latent: &[f64],
    c: usize,
    grid: [usize; 3],
    points: &[[f64; 3]],
    extent: [f64; 3],
    p_star: f64,
    r_star: f64,
    mean: [f64; 4],
    std: [f64; 4],
    entries: &[(usize, usize)],
    fd_step: f64,
) -> RefOut {
    let mut work = layers.to_vec();
    let value: Vec<f64> = entries
        .iter()
        .map(|&(l, i)| {
            let base = work[l].weight[i];
            let mut at = |x: f64| {
                work[l].weight[i] = x;
                refine_objective_ref(
                    &work, latent, c, grid, points, extent, p_star, r_star, mean, std,
                )
                .0
            };
            let d = (at(base + fd_step) - at(base - fd_step)) / (2.0 * fd_step);
            work[l].weight[i] = base;
            d
        })
        .collect();
    let gmax = value.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    RefOut { scale: vec![gmax; value.len()], value }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_ref_identity() {
        // 2x2 identity times arbitrary B returns B, with scale = |B|.
        let a = [1.0f32, 0.0, 0.0, 1.0];
        let b = [3.0f32, -4.0, 5.0, 0.25];
        let r = gemm_ref(2, 2, 2, &a, MatLayout::Normal, &b, MatLayout::Normal);
        assert_eq!(r.value, vec![3.0, -4.0, 5.0, 0.25]);
        assert_eq!(r.scale, vec![3.0, 4.0, 5.0, 0.25]);
    }

    #[test]
    fn softplus_ref_is_stable_at_extremes() {
        assert_eq!(softplus_ref(1000.0), 1000.0);
        assert!(softplus_ref(-1000.0) > 0.0 || softplus_ref(-1000.0) == 0.0);
        assert!((softplus_ref(0.0) - std::f64::consts::LN_2).abs() < 1e-15);
    }

    #[test]
    fn dft_ref_roundtrips() {
        let re = [1.0, -2.0, 0.5, 3.0, 0.0, 1.0e-3, 7.0, -0.25];
        let im = [0.0; 8];
        let (spec, _) = dft_ref(&re, &im);
        let back = idft_ref(&spec);
        for (x, &(br, bi)) in re.iter().zip(&back) {
            assert!((x - br).abs() < 1e-12 && bi.abs() < 1e-12);
        }
    }

    #[test]
    fn maxpool_ref_propagates_nan() {
        let x = [f32::NAN, 1.0, 2.0, 3.0];
        let out = maxpool3d_ref(1, [1, 2, 2], [1, 2, 2], &x);
        assert!(out[0].is_nan());
        let x = [0.0f32, 1.0, 2.0, 3.0];
        let out = maxpool3d_ref(1, [1, 2, 2], [1, 2, 2], &x);
        assert_eq!(out[0], 3.0);
    }
}
