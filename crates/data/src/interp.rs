//! Space-time trilinear interpolation.
//!
//! Used in three places: ground-truth supervision values at continuous query
//! points (paper Fig. 3, "interpolating the high-resolution ground truth"),
//! Baseline (I) — the classic trilinear upsampler of Table 2 — and the
//! trilinear weights of the continuous decoder's vertex blending.
//!
//! Axis convention throughout: `(t, z, x)`; `x` is periodic, `z` and `t`
//! clamp at their boundaries.

use crate::dataset::{Dataset, CHANNELS};

/// Fractional grid position along one axis: lower index, neighbour index and
/// interpolation weight toward the neighbour.
#[derive(Debug, Clone, Copy)]
pub struct AxisPos {
    /// Lower grid index.
    pub i0: usize,
    /// Upper (or wrapped) grid index.
    pub i1: usize,
    /// Weight of `i1` (`0.0` ⇒ exactly on `i0`).
    pub frac: f32,
}

/// Locates `coord` on a clamped axis with `n` nodes spaced `h` apart.
pub fn locate_clamped(coord: f64, h: f64, n: usize) -> AxisPos {
    assert!(n >= 1 && h > 0.0);
    let s = (coord / h).clamp(0.0, (n - 1) as f64);
    let i0 = (s.floor() as usize).min(n.saturating_sub(2));
    let i1 = (i0 + 1).min(n - 1);
    AxisPos { i0, i1, frac: (s - i0 as f64) as f32 }
}

/// Locates `coord` on a periodic axis with `n` nodes spaced `h` apart
/// (period `n·h`).
pub fn locate_periodic(coord: f64, h: f64, n: usize) -> AxisPos {
    assert!(n >= 1 && h > 0.0);
    let period = h * n as f64;
    let mut c = coord % period;
    if c < 0.0 {
        c += period;
    }
    let s = c / h;
    let i0 = (s.floor() as usize) % n;
    let i1 = (i0 + 1) % n;
    AxisPos { i0, i1, frac: (s - s.floor()) as f32 }
}

/// Trilinear interpolation of all four channels of `ds` at physical
/// coordinates `(t, z, x)`.
pub fn sample_trilinear(ds: &Dataset, t: f64, z: f64, x: f64) -> [f32; CHANNELS] {
    let tp = locate_clamped(t, ds.dt().max(1e-30), ds.meta.nt);
    let zp = locate_clamped(z, ds.dz(), ds.meta.nz);
    let xp = locate_periodic(x, ds.dx(), ds.meta.nx);
    let mut out = [0.0f32; CHANNELS];
    for (c, o) in out.iter_mut().enumerate() {
        let mut acc = 0.0f32;
        for (ft, wt) in [(tp.i0, 1.0 - tp.frac), (tp.i1, tp.frac)] {
            if wt == 0.0 {
                continue;
            }
            for (fz, wz) in [(zp.i0, 1.0 - zp.frac), (zp.i1, zp.frac)] {
                if wz == 0.0 {
                    continue;
                }
                for (fx, wx) in [(xp.i0, 1.0 - xp.frac), (xp.i1, xp.frac)] {
                    if wx == 0.0 {
                        continue;
                    }
                    acc += wt * wz * wx * ds.at(ft, c, fz, fx);
                }
            }
        }
        *o = acc;
    }
    out
}

/// Baseline (I): trilinear upsampling of an LR dataset onto the grid of a
/// reference HR dataset (same physical domain). Returns data shaped like the
/// reference's `[nt, 4, nz, nx]`.
pub fn upsample_trilinear(lr: &Dataset, hr_like: &Dataset) -> Dataset {
    let m = &hr_like.meta;
    let mut data = vec![0.0f32; m.nt * CHANNELS * m.nz * m.nx];
    for f in 0..m.nt {
        let t = f as f64 * hr_like.dt();
        for j in 0..m.nz {
            let z = j as f64 * hr_like.dz();
            for i in 0..m.nx {
                let x = i as f64 * hr_like.dx();
                let v = sample_trilinear(lr, t, z, x);
                for c in 0..CHANNELS {
                    data[((f * CHANNELS + c) * m.nz + j) * m.nx + i] = v[c];
                }
            }
        }
    }
    Dataset::from_parts(m.clone(), data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetMeta, CH_T};

    /// A synthetic dataset whose channel 0 equals a given trilinear function,
    /// so interpolation must reproduce it exactly.
    fn synthetic(nt: usize, nz: usize, nx: usize, f: impl Fn(f64, f64, f64) -> f64) -> Dataset {
        let meta =
            DatasetMeta { nt, nz, nx, lx: 4.0, lz: 1.0, duration: 2.0, ra: 1e5, pr: 1.0, seed: 0 };
        let mut data = vec![0.0f32; nt * CHANNELS * nz * nx];
        let dt = meta.duration / (nt - 1) as f64;
        let dz = meta.lz / (nz - 1) as f64;
        let dx = meta.lx / nx as f64;
        for ft in 0..nt {
            for j in 0..nz {
                for i in 0..nx {
                    let v = f(ft as f64 * dt, j as f64 * dz, i as f64 * dx) as f32;
                    for c in 0..CHANNELS {
                        data[((ft * CHANNELS + c) * nz + j) * nx + i] = v * (c + 1) as f32;
                    }
                }
            }
        }
        Dataset::from_parts(meta, data)
    }

    #[test]
    fn exact_on_grid_points() {
        let ds = synthetic(3, 5, 8, |t, z, x| t + 2.0 * z - 0.5 * x);
        let v = sample_trilinear(&ds, 1.0, 0.5, 1.5);
        assert!((v[CH_T] as f64 - (1.0 + 1.0 - 0.75)).abs() < 1e-5);
    }

    #[test]
    fn exact_for_trilinear_functions_off_grid() {
        // f(t,z,x) = 1 + t + z + (x within one cell, linear): trilinear
        // interpolation is exact for functions linear in each axis per cell.
        let ds = synthetic(5, 9, 16, |t, z, _| 1.0 + 0.3 * t + 0.7 * z);
        for &(t, z, x) in &[(0.33, 0.21, 0.7), (1.9, 0.99, 3.2), (0.0, 0.0, 0.0)] {
            let v = sample_trilinear(&ds, t, z, x);
            let expect = 1.0 + 0.3 * t + 0.7 * z;
            assert!((v[CH_T] as f64 - expect).abs() < 1e-4, "at ({t},{z},{x})");
            // Channel scaling carried through.
            assert!((v[3] as f64 - 4.0 * expect).abs() < 5e-4);
        }
    }

    #[test]
    fn clamps_out_of_range_t_and_z() {
        let ds = synthetic(3, 5, 8, |t, z, _| t + z);
        let lo = sample_trilinear(&ds, -5.0, -1.0, 0.0);
        let hi = sample_trilinear(&ds, 99.0, 99.0, 0.0);
        assert!((lo[CH_T] as f64 - 0.0).abs() < 1e-6);
        assert!((hi[CH_T] as f64 - 3.0).abs() < 1e-6);
    }

    #[test]
    fn x_axis_wraps_periodically() {
        let ds = synthetic(2, 3, 8, |_, _, _| 0.0);
        // Build an x-dependent field manually on channel 0.
        let mut ds = ds;
        for f in 0..2 {
            for j in 0..3 {
                for i in 0..8 {
                    let idx = ds.index(f, CH_T, j, i);
                    ds.data[idx] = i as f32;
                }
            }
        }
        // Between last point (x = 3.5, value 7) and wrap (x -> 0, value 0).
        let v = sample_trilinear(&ds, 0.0, 0.0, 3.75);
        assert!((v[CH_T] - 3.5).abs() < 1e-5, "wrap value {}", v[CH_T]);
        // Negative coordinates wrap too.
        let v = sample_trilinear(&ds, 0.0, 0.0, -0.25);
        assert!((v[CH_T] - 3.5).abs() < 1e-5);
    }

    #[test]
    fn upsample_recovers_smooth_field() {
        let hr = synthetic(5, 9, 16, |t, z, x| t + z + (x * 0.8).sin());
        // LR = strided version; upsampling back should be close for the
        // smooth function and exact at shared grid points.
        let lr = crate::downsample::downsample(&hr, 2, 2);
        let up = upsample_trilinear(&lr, &hr);
        for f in (0..5).step_by(2) {
            for j in (0..9).step_by(2) {
                for i in (0..16).step_by(2) {
                    assert!(
                        (up.at(f, CH_T, j, i) - hr.at(f, CH_T, j, i)).abs() < 1e-5,
                        "grid point ({f},{j},{i})"
                    );
                }
            }
        }
        // Off-grid error bounded for the smooth field.
        let mut max_err = 0.0f32;
        for f in 0..5 {
            for j in 0..9 {
                for i in 0..16 {
                    max_err = max_err.max((up.at(f, CH_T, j, i) - hr.at(f, CH_T, j, i)).abs());
                }
            }
        }
        assert!(max_err < 0.2, "interp error {max_err}");
    }

    #[test]
    fn locate_helpers() {
        let p = locate_clamped(0.5, 0.25, 5);
        assert_eq!((p.i0, p.i1), (2, 3));
        assert!(p.frac.abs() < 1e-6);
        let p = locate_periodic(0.99, 0.25, 4);
        assert_eq!((p.i0, p.i1), (3, 0));
        assert!((p.frac - 0.96).abs() < 1e-5);
    }
}
