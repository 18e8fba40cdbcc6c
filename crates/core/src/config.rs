//! Model and training configuration.

use crate::losses::ConstraintSet;
use mfn_autodiff::Activation;
use mfn_data::PatchSpec;
use serde::{Deserialize, Serialize};

/// Architecture + loss configuration for MeshfreeFlowNet.
#[derive(Debug, Clone, PartialEq)]
pub struct MfnConfig {
    /// LR patch / latent grid dims the model is built for.
    pub patch: PatchSpec,
    /// Input physical channels (always 4 for Rayleigh–Bénard: `T, p, u, w`).
    pub in_channels: usize,
    /// Output physical channels.
    pub out_channels: usize,
    /// Channel width after the U-Net stem; doubles per contractive level
    /// (paper: 16 → 256 over 4 levels).
    pub base_channels: usize,
    /// Number of pooling levels in the U-Net (paper: 4, shrinking
    /// `[4,16,16]` down to `[1,1,1]` with a final all-t pool in level 5 —
    /// we pool anisotropically as Fig. 5 shows).
    pub levels: usize,
    /// Latent context vector width `n_c` (paper: 32).
    pub latent_channels: usize,
    /// Hidden widths of the continuous decoding MLP (paper:
    /// `[512, 256, 128, 64, 32]`).
    pub mlp_hidden: Vec<usize>,
    /// Decoder activation. Softplus by default so exact second derivatives
    /// exist for the PDE constraints (Fig. 5 shows ReLU; see DESIGN.md).
    pub activation: Activation,
    /// Equation-loss weight γ of Eqn. 10 (γ* = 0.0125 per Table 1).
    pub gamma: f32,
    /// Which PDE residuals enter the equation loss (the paper supports
    /// arbitrary combinations; default: all four).
    pub constraints: ConstraintSet,
    /// RNG seed for parameter initialization.
    pub seed: u64,
}

impl MfnConfig {
    /// The paper-scale configuration (Fig. 5): ~10⁷ parameters. Slow on CPU;
    /// used by `--paper-scale` runs.
    pub fn paper() -> Self {
        MfnConfig {
            patch: PatchSpec::paper(),
            in_channels: 4,
            out_channels: 4,
            base_channels: 16,
            levels: 4,
            latent_channels: 32,
            mlp_hidden: vec![512, 256, 128, 64, 32],
            activation: Activation::Softplus,
            gamma: 0.0125,
            constraints: ConstraintSet::ALL,
            seed: 0,
        }
    }

    /// A reduced configuration that trains in seconds on a laptop-class CPU
    /// while preserving every architectural element (residual U-Net with
    /// anisotropic pooling, latent grid, continuous MLP decoder).
    pub fn small() -> Self {
        MfnConfig {
            patch: PatchSpec::small(),
            in_channels: 4,
            out_channels: 4,
            base_channels: 8,
            levels: 2,
            latent_channels: 16,
            mlp_hidden: vec![64, 64, 32],
            activation: Activation::Softplus,
            gamma: 0.0125,
            constraints: ConstraintSet::ALL,
            seed: 0,
        }
    }

    /// Optimal equation-loss weight from the paper's Table 1 ablation.
    pub const GAMMA_STAR: f32 = 0.0125;

    /// Per-level pooling factors `[t, z, x]`, anisotropic as in Fig. 5:
    /// spatial dims pool first; `t` pools only once `z`/`x` have reached the
    /// same size, and no axis pools below 1.
    pub fn pool_factors(&self) -> Vec<[usize; 3]> {
        let (mut t, mut z, mut x) = (self.patch.nt, self.patch.nz, self.patch.nx);
        let mut out = Vec::with_capacity(self.levels);
        for _ in 0..self.levels {
            let fz = if z >= 2 { 2 } else { 1 };
            let fx = if x >= 2 { 2 } else { 1 };
            // Pool t only once it exceeds the pooled spatial extent (mirrors
            // [4,16,16]→[4,8,8]→[4,4,4]→[2,2,2]→[1,1,1]).
            let ft = if t >= 2 && t > z / fz { 2 } else { 1 };
            let f = [ft, fz, fx];
            t /= f[0];
            z /= f[1];
            x /= f[2];
            out.push(f);
        }
        out
    }

    /// MLP layer widths including input (`latent + 3` coords) and output.
    pub fn mlp_widths(&self) -> Vec<usize> {
        let mut w = Vec::with_capacity(self.mlp_hidden.len() + 2);
        w.push(self.latent_channels + 3);
        w.extend_from_slice(&self.mlp_hidden);
        w.push(self.out_channels);
        w
    }

    /// Checks a configuration read from a file before it sizes anything:
    /// every width, the level count and every patch dimension at least 1,
    /// the patch's element count `in_channels·nt·nz·nx` within `usize`, and
    /// at most `max_params` parameters (a checkpoint's parameters must fit
    /// in its bytes). The count uses checked arithmetic and stops as soon as
    /// it passes the bound; on success it is `MeshfreeFlowNet::new(self)`'s.
    pub fn check_sizes(&self, max_params: usize) -> Result<usize, String> {
        let (c0, [nt, nz, nx]) =
            (self.base_channels, [self.patch.nt, self.patch.nz, self.patch.nx]);
        let sizes = [self.in_channels, self.out_channels, c0, self.levels, self.latent_channels];
        if sizes.iter().chain(&[nt, nz, nx]).chain(&self.mlp_hidden).any(|&n| n == 0) {
            return Err("a width, the level count or a patch dimension is 0".into());
        }
        [nt, nz, nx]
            .into_iter()
            .try_fold(self.in_channels, usize::checked_mul)
            .ok_or("the patch's element count overflows usize")?;
        // A `ResBlock3d`: 1, 27 and 1 taps with biases, three batch norms
        // (γ, β) and a 1×1×1 projection when the channel counts differ.
        let block = |cin: usize, cout: usize| {
            let body = cout.checked_mul(28)?.checked_add(cin)?.checked_add(9)?.checked_mul(cout)?;
            let skip = if cin == cout { 0 } else { cin.checked_add(1)?.checked_mul(cout)? };
            body.checked_add(skip)
        };
        // `c0 << l` and `c0 << (l + 1)`, or `None` once a bit would fall off.
        let widths = |l: usize| {
            let c = c0.checked_mul(1usize.checked_shl(u32::try_from(l).ok()?)?)?;
            Some((c, c.checked_mul(2)?))
        };
        let unet = (0..self.levels).flat_map(|l| {
            let w = widths(l);
            [w.and_then(|(c, c2)| block(c, c2)), w.and_then(|(c, c2)| block(c.checked_add(c2)?, c))]
        });
        let mut fan_in = self.latent_channels.checked_add(3);
        let mlp = self.mlp_hidden.iter().chain([&self.out_channels]).map(|&out| {
            let layer = fan_in.and_then(|i| i.checked_add(1)?.checked_mul(out));
            fan_in = Some(out);
            layer
        });
        let head = c0.checked_add(1).and_then(|c| c.checked_mul(self.latent_channels));
        let mut total = 0usize;
        for n in std::iter::once(block(self.in_channels, c0)).chain(unet).chain([head]).chain(mlp) {
            total = n
                .and_then(|n| total.checked_add(n))
                .filter(|&t| t <= max_params)
                .ok_or_else(|| format!("the architecture has more than {max_params} parameters"))?;
        }
        Ok(total)
    }

    /// The architecture as compact JSON (`ConfigFile`): the section that
    /// opens every train-state payload, so a checkpoint names the model it
    /// holds and any other model refuses it.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("config serializes")
    }

    /// Parses JSON produced by [`MfnConfig::to_json`]. Nothing is checked
    /// beyond the schema; see [`MfnConfig::check_sizes`].
    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| e.to_string())
    }
}

// An `MfnConfig` serializes as its `ConfigFile`: the train-state section and
// the `model` of a results record are the same JSON.
impl Serialize for MfnConfig {
    fn to_value(&self) -> serde::Value {
        ConfigFile {
            patch_nt: self.patch.nt,
            patch_nz: self.patch.nz,
            patch_nx: self.patch.nx,
            patch_queries: self.patch.queries,
            in_channels: self.in_channels,
            out_channels: self.out_channels,
            base_channels: self.base_channels,
            levels: self.levels,
            latent_channels: self.latent_channels,
            mlp_hidden: self.mlp_hidden.clone(),
            activation: ACTIVATIONS
                .iter()
                .find(|a| a.1 == self.activation)
                .expect("named")
                .0
                .into(),
            gamma: self.gamma,
            constraints: self.constraints.flags(),
            seed: self.seed,
        }
        .to_value()
    }
}

impl Deserialize for MfnConfig {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let f = ConfigFile::from_value(value)?;
        let (_, activation) = ACTIVATIONS
            .into_iter()
            .find(|a| a.0 == f.activation)
            .ok_or_else(|| serde::DeError::msg(format!("unknown activation {:?}", f.activation)))?;
        let [continuity, temperature, momentum_x, momentum_z] = f.constraints;
        Ok(MfnConfig {
            patch: PatchSpec {
                nt: f.patch_nt,
                nz: f.patch_nz,
                nx: f.patch_nx,
                queries: f.patch_queries,
            },
            in_channels: f.in_channels,
            out_channels: f.out_channels,
            base_channels: f.base_channels,
            levels: f.levels,
            latent_channels: f.latent_channels,
            mlp_hidden: f.mlp_hidden,
            activation,
            gamma: f.gamma,
            constraints: ConstraintSet { continuity, temperature, momentum_x, momentum_z },
            seed: f.seed,
        })
    }
}

/// Every activation under the name [`ConfigFile`] stores it as.
const ACTIVATIONS: [(&str, Activation); 4] = [
    ("relu", Activation::Relu),
    ("softplus", Activation::Softplus),
    ("tanh", Activation::Tanh),
    ("linear", Activation::Linear),
];

/// On-disk representation of [`MfnConfig`]. Kept separate (plain scalars,
/// activation/constraints as data) so `mfn-autodiff` and `mfn-data` need no
/// serde dependency.
///
/// `deny_unknown_fields`: a section with fields this build does not know
/// about was written by a different (newer or diverged) schema. Silently
/// dropping those fields would rebuild a model that disagrees with the one
/// the checkpoint was trained with — the drift must be a load error, not a
/// quiet default.
#[derive(Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
struct ConfigFile {
    patch_nt: usize,
    patch_nz: usize,
    patch_nx: usize,
    patch_queries: usize,
    in_channels: usize,
    out_channels: usize,
    base_channels: usize,
    levels: usize,
    latent_channels: usize,
    mlp_hidden: Vec<usize>,
    activation: String,
    gamma: f32,
    constraints: [bool; 4],
    seed: u64,
}

/// Training-loop hyperparameters (paper Sec. 5: Adam, lr 1e-2, 100 epochs,
/// 3000 samples per epoch).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Adam learning rate.
    pub lr: f32,
    /// Patches per mini-batch.
    pub batch_size: usize,
    /// Mini-batches per epoch.
    pub batches_per_epoch: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Gradient-norm clip (0 disables).
    pub grad_clip: f32,
    /// Per-epoch multiplicative learning-rate decay (1.0 = constant lr, the
    /// paper's setting; < 1.0 anneals).
    pub lr_decay: f32,
    /// RNG seed for batch sampling.
    pub seed: u64,
    /// The training driver's round length in gradient steps: a round ends
    /// at every epoch end and, for N > 0, at every global step that is a
    /// multiple of N. The driver snapshots the train state before each
    /// round (and writes it when it has a path), so a fault rolls back at
    /// most one round. 0 makes every round an epoch.
    pub checkpoint_every: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            lr: 1e-3,
            batch_size: 4,
            batches_per_epoch: 8,
            epochs: 10,
            grad_clip: 1.0,
            lr_decay: 1.0,
            seed: 0,
            checkpoint_every: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_pooling_matches_fig5() {
        // [4,16,16] -> [4,8,8] -> [4,4,4] -> [2,2,2] -> [1,1,1]
        let cfg = MfnConfig::paper();
        let fs = cfg.pool_factors();
        assert_eq!(fs.len(), 4);
        let mut dims = [4usize, 16, 16];
        let expect = [[4, 8, 8], [4, 4, 4], [2, 2, 2], [1, 1, 1]];
        for (l, f) in fs.iter().enumerate() {
            for a in 0..3 {
                dims[a] /= f[a];
            }
            assert_eq!(dims, expect[l], "level {l} factors {f:?}");
        }
    }

    #[test]
    fn small_pooling_never_hits_zero() {
        let cfg = MfnConfig::small();
        let mut dims = [cfg.patch.nt, cfg.patch.nz, cfg.patch.nx];
        for f in cfg.pool_factors() {
            for a in 0..3 {
                assert_eq!(dims[a] % f[a], 0, "indivisible pool at {dims:?} by {f:?}");
                dims[a] /= f[a];
                assert!(dims[a] >= 1);
            }
        }
    }

    #[test]
    fn mlp_widths_shape() {
        let cfg = MfnConfig::paper();
        assert_eq!(cfg.mlp_widths(), vec![35, 512, 256, 128, 64, 32, 4]);
    }

    #[test]
    fn json_sidecar_roundtrips() {
        let mut cfg = MfnConfig::small();
        cfg.mlp_hidden = vec![48, 24];
        cfg.gamma = 0.5;
        cfg.seed = 99;
        let back = MfnConfig::from_json(&cfg.to_json()).expect("roundtrip");
        assert_eq!(back, cfg);
    }

    /// The count `check_sizes` bounds is the parameter count of the model
    /// the configuration builds, and one parameter less is refused.
    #[test]
    fn check_sizes_counts_the_models_parameters() {
        let mut deeper = MfnConfig::small();
        (deeper.levels, deeper.in_channels) = (3, 8);
        let mut narrow = MfnConfig::small();
        narrow.patch = PatchSpec { nt: 2, nz: 4, nx: 4, queries: 8 };
        (narrow.base_channels, narrow.latent_channels, narrow.mlp_hidden) = (1, 1, vec![1]);
        for cfg in [MfnConfig::small(), deeper, narrow] {
            let n = crate::MeshfreeFlowNet::new(cfg.clone()).param_count();
            assert_eq!(cfg.check_sizes(n), Ok(n), "{cfg:?}");
            assert!(cfg.check_sizes(n - 1).is_err(), "{cfg:?}");
        }
    }

    #[test]
    fn check_sizes_refuses_zeros_and_overflow() {
        let zero: [fn(&mut MfnConfig); 4] = [
            |c| c.levels = 0,
            |c| c.patch.nz = 0,
            |c| c.mlp_hidden[1] = 0,
            |c| c.latent_channels = 0,
        ];
        for set in zero {
            let mut cfg = MfnConfig::small();
            set(&mut cfg);
            assert!(cfg.check_sizes(usize::MAX).expect_err("zero").contains("is 0"));
        }
        let mut cfg = MfnConfig::small();
        cfg.patch.nt = usize::MAX / 2;
        assert!(cfg.check_sizes(usize::MAX).expect_err("numel").contains("overflows"));
        for (levels, base) in [(70, 8), (1, 1 << 40), (1, 1 << 62)] {
            let mut cfg = MfnConfig::small();
            (cfg.levels, cfg.base_channels) = (levels, base);
            assert!(cfg.check_sizes(usize::MAX).is_err(), "levels {levels}, base {base}");
        }
    }

    #[test]
    fn unknown_sidecar_field_is_rejected() {
        // A section carrying a field this build does not know about was
        // written by a diverged schema; dropping it silently could rebuild
        // a different model than the checkpoint was trained with.
        let json = MfnConfig::small().to_json().replacen('{', "{ \"dropout\": 0.1,", 1);
        let err = MfnConfig::from_json(&json).expect_err("must reject");
        assert!(err.contains("dropout"), "error should name the unknown field: {err}");
    }

    #[test]
    fn renamed_sidecar_field_is_rejected() {
        // A renamed field is both unknown (new name) and missing (old
        // name); either way the load must fail, not default the value.
        let json = MfnConfig::small().to_json().replace("latent_channels", "latent_width");
        assert!(MfnConfig::from_json(&json).is_err());
    }

    #[test]
    fn unknown_activation_is_rejected() {
        let json = MfnConfig::small().to_json().replace("softplus", "gelu");
        let err = MfnConfig::from_json(&json).expect_err("must reject");
        assert!(err.contains("gelu"));
    }
}
