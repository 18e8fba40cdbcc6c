//! First-order optimizers operating on a [`ParamStore`].
//!
//! The paper trains with Adam (Sec. 5, lr 1e-2). It consumes a gradient
//! list aligned with the store's registration order, which is exactly what
//! [`crate::Graph::param_grads`] and the distributed all-reduce produce.

use crate::params::{ParamId, ParamStore};
use mfn_tensor::Tensor;

/// Configuration for the [`Adam`] optimizer.
#[derive(Debug, Clone, Copy)]
pub struct AdamConfig {
    /// Step size.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator fuzz.
    pub eps: f32,
    /// Decoupled L2 weight decay (0 disables). The paper applies an l1
    /// regularization term to the *loss*; weight decay here is kept for
    /// ablations and defaults to off.
    pub weight_decay: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig { lr: 1e-2, beta1: 0.9, beta2: 0.999, eps: 1e-8, weight_decay: 0.0 }
    }
}

/// The Adam optimizer (Kingma & Ba 2015) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    cfg: AdamConfig,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
    t: u64,
}

impl Adam {
    /// Creates an optimizer with zeroed moment buffers matching `store`.
    pub fn new(store: &ParamStore, cfg: AdamConfig) -> Self {
        let m = (0..store.len()).map(|i| Tensor::zeros(store.get(ParamId(i)).dims())).collect();
        let v = (0..store.len()).map(|i| Tensor::zeros(store.get(ParamId(i)).dims())).collect();
        Adam { cfg, m, v, t: 0 }
    }

    /// The configuration in use.
    pub fn config(&self) -> AdamConfig {
        self.cfg
    }

    /// Changes the learning rate (for schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.cfg.lr = lr;
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Read-only view of the first/second moment buffers (registration
    /// order, like the store). Exposed so checkpoints can persist the full
    /// optimizer state — losing the moments on crash-resume silently changes
    /// the trajectory even when the parameters are restored exactly.
    pub fn moments(&self) -> (&[Tensor], &[Tensor]) {
        (&self.m, &self.v)
    }

    /// An optimizer over restored state (`checkpoint::read_adam`, which has
    /// checked the moments against the store).
    pub(crate) fn from_parts(cfg: AdamConfig, m: Vec<Tensor>, v: Vec<Tensor>, t: u64) -> Self {
        Adam { cfg, m, v, t }
    }

    /// Applies one update. `grads` must align with the store.
    ///
    /// # Panics
    /// Panics if `grads.len() != store.len()` or shapes mismatch.
    pub fn step(&mut self, store: &mut ParamStore, grads: &[Tensor]) {
        assert_eq!(grads.len(), store.len(), "gradient list length mismatch");
        self.t += 1;
        let bc1 = 1.0 - self.cfg.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.cfg.beta2.powi(self.t as i32);
        for (i, g) in grads.iter().enumerate() {
            let p = store.get_mut(ParamId(i));
            assert_eq!(p.dims(), g.dims(), "gradient shape mismatch at param {i}");
            let m = self.m[i].data_mut();
            let v = self.v[i].data_mut();
            let pd = p.data_mut();
            let gd = g.data();
            for k in 0..pd.len() {
                let grad = gd[k] + self.cfg.weight_decay * pd[k];
                m[k] = self.cfg.beta1 * m[k] + (1.0 - self.cfg.beta1) * grad;
                v[k] = self.cfg.beta2 * v[k] + (1.0 - self.cfg.beta2) * grad * grad;
                let mhat = m[k] / bc1;
                let vhat = v[k] / bc2;
                pd[k] -= self.cfg.lr * mhat / (vhat.sqrt() + self.cfg.eps);
            }
        }
    }
}

/// Global L2 norm over a gradient list (accumulated in f64).
pub fn grad_l2_norm(grads: &[Tensor]) -> f32 {
    let total: f64 = grads.iter().map(|g| g.norm_sqr() as f64).sum();
    total.sqrt() as f32
}

/// Clips a gradient list to a global L2 norm, returning the pre-clip norm.
pub fn clip_grad_norm(grads: &mut [Tensor], max_norm: f32) -> f32 {
    let norm = grad_l2_norm(grads);
    if norm > max_norm && norm > 0.0 {
        let s = max_norm / norm;
        for g in grads.iter_mut() {
            for x in g.data_mut() {
                *x *= s;
            }
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizing f(x) = (x - 3)^2 with Adam converges to 3.
    #[test]
    fn adam_converges_on_quadratic() {
        let mut store = ParamStore::new();
        let x = store.register("x", Tensor::scalar(0.0));
        let mut opt = Adam::new(&store, AdamConfig { lr: 0.1, ..Default::default() });
        for _ in 0..500 {
            let xv = store.get(x).item();
            let grad = vec![Tensor::scalar(2.0 * (xv - 3.0))];
            opt.step(&mut store, &grad);
        }
        assert!((store.get(x).item() - 3.0).abs() < 1e-3);
    }

    /// First Adam step has magnitude ≈ lr regardless of gradient scale.
    #[test]
    fn adam_first_step_is_lr_sized() {
        for &g0 in &[1e-4f32, 1.0, 1e4] {
            let mut store = ParamStore::new();
            let x = store.register("x", Tensor::scalar(0.0));
            let mut opt = Adam::new(&store, AdamConfig { lr: 0.01, ..Default::default() });
            opt.step(&mut store, &[Tensor::scalar(g0)]);
            let step = store.get(x).item().abs();
            assert!((step - 0.01).abs() < 1e-4, "g0={g0} step={step}");
        }
    }

    #[test]
    fn adam_matches_reference_two_steps() {
        // Hand-computed reference for lr=0.1, b1=0.9, b2=0.999, eps=0, g=1 twice.
        let mut store = ParamStore::new();
        let x = store.register("x", Tensor::scalar(0.0));
        let mut opt = Adam::new(&store, AdamConfig { lr: 0.1, eps: 0.0, ..Default::default() });
        opt.step(&mut store, &[Tensor::scalar(1.0)]);
        // step 1: mhat = 1, vhat = 1 -> x = -0.1
        assert!((store.get(x).item() + 0.1).abs() < 1e-6);
        opt.step(&mut store, &[Tensor::scalar(1.0)]);
        // step 2: m = .19, bc1 = .19 -> mhat = 1; v similar -> x = -0.2
        assert!((store.get(x).item() + 0.2).abs() < 1e-5);
    }

    #[test]
    fn set_lr_takes_effect_immediately() {
        let mut store = ParamStore::new();
        let x = store.register("x", Tensor::scalar(0.0));
        let mut opt = Adam::new(&store, AdamConfig { lr: 0.5, ..Default::default() });
        opt.set_lr(0.01);
        opt.step(&mut store, &[Tensor::scalar(1.0)]);
        // First Adam step magnitude == lr.
        assert!((store.get(x).item().abs() - 0.01).abs() < 1e-4);
        assert_eq!(opt.steps(), 1);
    }

    #[test]
    fn clip_rescales_only_when_needed() {
        let mut grads = vec![Tensor::from_vec(vec![3.0, 4.0], &[2])];
        let norm = clip_grad_norm(&mut grads, 10.0);
        assert!((norm - 5.0).abs() < 1e-6);
        assert_eq!(grads[0].data(), &[3.0, 4.0]);
        let norm = clip_grad_norm(&mut grads, 1.0);
        assert!((norm - 5.0).abs() < 1e-6);
        let after: f32 = grads[0].norm_sqr().sqrt();
        assert!((after - 1.0).abs() < 1e-6);
    }

    #[test]
    fn weight_decay_shrinks_params() {
        let mut store = ParamStore::new();
        let x = store.register("x", Tensor::scalar(10.0));
        let mut opt =
            Adam::new(&store, AdamConfig { lr: 0.1, weight_decay: 0.1, ..Default::default() });
        for _ in 0..2000 {
            opt.step(&mut store, &[Tensor::scalar(0.0)]);
        }
        assert!(store.get(x).item().abs() < 0.5, "decayed to {}", store.get(x).item());
    }
}
