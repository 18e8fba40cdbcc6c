//! Low-resolution dataset construction (paper Sec. 3.2).
//!
//! The paper creates its LR training inputs by downsampling the HR solution
//! with factors `d_t = 4` in time and `d_s = 8` in space. We use strided
//! subsampling (every `f`-th grid point/frame), which matches the paper's
//! description of "downsampling" and keeps LR grid points coincident with HR
//! grid points, so the LR grid geometry stays exact.

use crate::dataset::{Dataset, DatasetMeta, CHANNELS};
use std::fmt;

/// Why a downsampling request cannot produce a geometrically valid LR grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DownsampleError {
    /// A factor was zero.
    ZeroFactor,
    /// Fewer than 2 frames would remain in time.
    TooFewFrames { nt: usize, ft: usize },
    /// Fewer than 2 grid points would remain along a spatial axis.
    TooFewPoints { nz: usize, nx: usize, fs: usize },
    /// `fs` does not divide the periodic extent `nx`: the strided points
    /// `0, fs, 2fs, …` then have a wrap-around gap different from `fs·dx`,
    /// so no uniform periodic LR grid exists and any reported `lx` would
    /// misstate the geometry.
    UnalignedPeriodicFactor { nx: usize, fs: usize },
}

impl fmt::Display for DownsampleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DownsampleError::ZeroFactor => write!(f, "downsampling factors must be positive"),
            DownsampleError::TooFewFrames { nt, ft } => {
                write!(f, "factor {ft} leaves fewer than 2 of {nt} frames")
            }
            DownsampleError::TooFewPoints { nz, nx, fs } => {
                write!(f, "factor {fs} leaves fewer than 2 points of {nz}x{nx}")
            }
            DownsampleError::UnalignedPeriodicFactor { nx, fs } => write!(
                f,
                "spatial factor {fs} does not divide the periodic extent nx = {nx}; \
                 the strided grid would have an uneven wrap-around gap"
            ),
        }
    }
}

impl std::error::Error for DownsampleError {}

/// Strided downsampling by `ft` in time and `fs` in both spatial directions.
///
/// LR sample `(f, j, i)` equals HR sample `(f·ft, j·fs, i·fs)`; the LR
/// extents are the largest strided grids that fit. Channel statistics
/// are recomputed on the LR data.
///
/// # Errors
/// Rejects factors that are zero, leave fewer than 2 points along any axis,
/// or do not divide the periodic `x` extent (see
/// [`DownsampleError::UnalignedPeriodicFactor`]).
pub fn try_downsample(hr: &Dataset, ft: usize, fs: usize) -> Result<Dataset, DownsampleError> {
    if ft == 0 || fs == 0 {
        return Err(DownsampleError::ZeroFactor);
    }
    let nt = (hr.meta.nt - 1) / ft + 1;
    let nz = (hr.meta.nz - 1) / fs + 1;
    let nx = hr.meta.nx / fs; // periodic direction: plain stride, no endpoint
    if nt < 2 {
        return Err(DownsampleError::TooFewFrames { nt: hr.meta.nt, ft });
    }
    if nz < 2 || nx < 2 {
        return Err(DownsampleError::TooFewPoints { nz: hr.meta.nz, nx: hr.meta.nx, fs });
    }
    if !hr.meta.nx.is_multiple_of(fs) {
        return Err(DownsampleError::UnalignedPeriodicFactor { nx: hr.meta.nx, fs });
    }
    let mut data = vec![0.0f32; nt * CHANNELS * nz * nx];
    for f in 0..nt {
        for c in 0..CHANNELS {
            for j in 0..nz {
                for i in 0..nx {
                    let v = hr.at(f * ft, c, j * fs, i * fs);
                    data[((f * CHANNELS + c) * nz + j) * nx + i] = v;
                }
            }
        }
    }
    // The last LR frame sits at HR frame (nt-1)*ft, which may be before the
    // HR end; duration shrinks accordingly. Spatial lengths follow the same
    // logic: z keeps the node-grid convention; for x, fs | nx is guaranteed
    // above, so nx_lr·fs == nx_hr and the full periodic length is preserved
    // exactly.
    let duration = hr.dt() * ((nt - 1) * ft) as f64;
    let lz = hr.dz() * ((nz - 1) * fs) as f64;
    let lx = hr.dx() * (nx * fs) as f64;
    Ok(Dataset::from_parts(
        DatasetMeta {
            nt,
            nz,
            nx,
            lx,
            lz,
            duration,
            ra: hr.meta.ra,
            pr: hr.meta.pr,
            seed: hr.meta.seed,
        },
        data,
    ))
}

/// Panicking convenience wrapper over [`try_downsample`], for the training
/// pipeline where the factors are static configuration.
///
/// # Panics
/// Panics with the [`DownsampleError`] message on any invalid factor.
pub fn downsample(hr: &Dataset, ft: usize, fs: usize) -> Dataset {
    match try_downsample(hr, ft, fs) {
        Ok(ds) => ds,
        Err(e) => panic!("downsample: {e}"),
    }
}

/// The paper's default factors: `d_t = 4`, `d_s = 8`.
pub const PAPER_DT_FACTOR: usize = 4;
/// Spatial downsampling factor from the paper.
pub const PAPER_DS_FACTOR: usize = 8;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::CH_T;
    use mfn_solver::{simulate, RbcConfig};

    fn make_hr() -> Dataset {
        let sim = simulate(
            &RbcConfig { nx: 32, nz: 17, ra: 1e5, dt_max: 2e-3, ..Default::default() },
            0.08,
            9,
        );
        Dataset::from_simulation(&sim)
    }

    #[test]
    fn shapes_and_values() {
        let hr = make_hr();
        let lr = downsample(&hr, 2, 4);
        assert_eq!(lr.meta.nt, 5);
        assert_eq!(lr.meta.nz, 5);
        assert_eq!(lr.meta.nx, 8);
        for f in 0..lr.meta.nt {
            for j in 0..lr.meta.nz {
                for i in 0..lr.meta.nx {
                    assert_eq!(lr.at(f, CH_T, j, i), hr.at(f * 2, CH_T, j * 4, i * 4));
                }
            }
        }
    }

    #[test]
    fn geometry_is_consistent() {
        let hr = make_hr();
        let lr = downsample(&hr, 2, 4);
        // LR grid spacings are exactly factor × HR spacings.
        assert!((lr.dt() - 2.0 * hr.dt()).abs() < 1e-12);
        assert!((lr.dz() - 4.0 * hr.dz()).abs() < 1e-12);
        assert!((lr.dx() - 4.0 * hr.dx()).abs() < 1e-12);
    }

    #[test]
    fn identity_factors_preserve() {
        let hr = make_hr();
        let same = downsample(&hr, 1, 1);
        assert_eq!(same.meta.nt, hr.meta.nt);
        assert_eq!(same.data, hr.data);
    }

    #[test]
    fn stats_recomputed() {
        let hr = make_hr();
        let lr = downsample(&hr, 2, 4);
        // The LR set's own statistics are finite; T std > 0 since convection
        // is seeded.
        let (mean, std) = lr.channel_stats();
        assert!(std[CH_T] > 0.0);
        assert!(mean.iter().all(|m| m.is_finite()));
    }

    #[test]
    #[should_panic(expected = "fewer than 2")]
    fn over_aggressive_factor_panics() {
        let hr = make_hr();
        downsample(&hr, 100, 1);
    }

    #[test]
    fn non_dividing_spatial_factor_is_rejected() {
        // nx = 32; fs = 3 leaves strided points 0,3,…,30 with a wrap gap of
        // 2 — not a uniform periodic grid. The old code silently reported
        // lx = dx·30 (shrinking the domain by the seam gap); now it must be
        // a typed rejection.
        let hr = make_hr();
        match try_downsample(&hr, 1, 3) {
            Err(DownsampleError::UnalignedPeriodicFactor { nx: 32, fs: 3 }) => {}
            other => panic!("expected UnalignedPeriodicFactor, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "does not divide the periodic extent")]
    fn non_dividing_spatial_factor_panics_via_wrapper() {
        let hr = make_hr();
        downsample(&hr, 1, 3);
    }

    #[test]
    fn zero_factor_is_rejected() {
        let hr = make_hr();
        assert_eq!(try_downsample(&hr, 0, 2).unwrap_err(), DownsampleError::ZeroFactor);
        assert_eq!(try_downsample(&hr, 2, 0).unwrap_err(), DownsampleError::ZeroFactor);
    }

    #[test]
    fn dividing_factor_preserves_periodic_length_exactly() {
        let hr = make_hr();
        let lr = try_downsample(&hr, 2, 4).expect("4 divides 32");
        assert_eq!(lr.meta.lx.to_bits(), hr.meta.lx.to_bits());
    }
}
