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

    /// Serializes the architecture to the JSON sidecar format written next
    /// to checkpoints (`<ckpt>.cfg.json`). A `MFNSTAT1` train-state frame
    /// stores tensors by name/shape but not the architecture itself; the
    /// sidecar is what lets a serving process rebuild the exact model a
    /// checkpoint was trained with.
    pub fn to_json(&self) -> String {
        let file = ConfigFile {
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
            activation: match self.activation {
                Activation::Relu => "relu",
                Activation::Softplus => "softplus",
                Activation::Tanh => "tanh",
                Activation::Linear => "linear",
            }
            .to_string(),
            gamma: self.gamma,
            fd_step: None,
            constraints: self.constraints.flags(),
            seed: self.seed,
        };
        serde_json::to_string_pretty(&file).expect("config serializes")
    }

    /// Parses a sidecar produced by [`MfnConfig::to_json`].
    pub fn from_json(s: &str) -> Result<Self, String> {
        let f: ConfigFile = serde_json::from_str(s).map_err(|e| e.to_string())?;
        let activation = match f.activation.as_str() {
            "relu" => Activation::Relu,
            "softplus" => Activation::Softplus,
            "tanh" => Activation::Tanh,
            "linear" => Activation::Linear,
            other => return Err(format!("unknown activation {other:?}")),
        };
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

    /// Writes the JSON sidecar to `path`.
    pub fn save_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Loads a JSON sidecar from `path` (parse errors map to `InvalidData`).
    pub fn load_json(path: &std::path::Path) -> std::io::Result<Self> {
        let s = std::fs::read_to_string(path)?;
        Self::from_json(&s).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

/// On-disk representation of [`MfnConfig`]. Kept separate (plain scalars,
/// activation/constraints as data) so `mfn-autodiff` and `mfn-data` need no
/// serde dependency.
///
/// `deny_unknown_fields`: a sidecar with fields this build does not know
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
    /// Retired: the stencil step of builds that took the PDE derivatives by
    /// finite differences. Read so that their sidecars keep loading, then
    /// dropped; never written.
    #[serde(default, skip_serializing)]
    #[allow(dead_code)]
    fd_step: Option<f32>,
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
    /// Write a full train-state checkpoint every N gradient steps (0
    /// disables). Takes effect only when the trainer has a checkpoint path
    /// (see `Trainer::with_checkpointing`).
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

    #[test]
    fn sidecar_with_the_retired_stencil_step_still_loads() {
        // A sidecar as written before the derivative lanes, `fd_step`
        // included: it loads to the config it described, and writing that
        // back out drops the key for good.
        let old = r#"{
  "patch_nt": 4, "patch_nz": 8, "patch_nx": 8, "patch_queries": 64,
  "in_channels": 4, "out_channels": 4, "base_channels": 8, "levels": 2,
  "latent_channels": 16, "mlp_hidden": [64, 64, 32], "activation": "softplus",
  "gamma": 0.0125, "fd_step": 0.02,
  "constraints": [true, true, true, true], "seed": 7
}"#;
        let cfg = MfnConfig::from_json(old).expect("pre-lanes sidecar loads");
        let mut want = MfnConfig::small();
        want.patch = PatchSpec { nt: 4, nz: 8, nx: 8, queries: 64 };
        want.seed = 7;
        assert_eq!(cfg, want);
        let written = cfg.to_json();
        assert!(!written.contains("fd_step"), "the retired key is never written: {written}");
        assert_eq!(MfnConfig::from_json(&written).expect("roundtrip"), want);
    }

    #[test]
    fn unknown_sidecar_field_is_rejected() {
        // A sidecar carrying a field this build does not know about was
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
