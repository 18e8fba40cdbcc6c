//! Parameter storage shared between model layers and the optimizer.
//!
//! Layers register their weights in a [`ParamStore`] at construction time and
//! keep [`ParamId`] handles; every training step copies the current values
//! onto a fresh [`crate::Graph`] tape. Gradients come back as a list aligned
//! with the store's registration order, which is also the order used by the
//! flat buffers of the distributed all-reduce.

use mfn_tensor::{workspace, Tensor};

/// A stable handle to a parameter in a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// The raw index of this parameter in its store.
    pub fn index(self) -> usize {
        self.0
    }
}

/// An ordered collection of named parameter tensors.
#[derive(Debug, Clone, Default)]
pub struct ParamStore {
    params: Vec<Tensor>,
    names: Vec<String>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter, returning its handle.
    pub fn register(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        self.params.push(value);
        self.names.push(name.into());
        ParamId(self.params.len() - 1)
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Whether no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Current value of a parameter.
    pub fn get(&self, id: ParamId) -> &Tensor {
        &self.params[id.0]
    }

    /// Mutable access to a parameter (used by optimizers).
    pub fn get_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.params[id.0]
    }

    /// The registered name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Iterates over `(id, name, tensor)` triples in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &str, &Tensor)> {
        self.params
            .iter()
            .zip(&self.names)
            .enumerate()
            .map(|(i, (t, n))| (ParamId(i), n.as_str(), t))
    }

    /// Total number of scalar parameters.
    pub fn total_numel(&self) -> usize {
        self.params.iter().map(Tensor::numel).sum()
    }

    /// Copies every parameter into one flat buffer (registration order).
    pub fn flatten(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.total_numel());
        for p in &self.params {
            out.extend_from_slice(p.data());
        }
        out
    }

    /// Overwrites every parameter from a flat buffer produced by
    /// [`ParamStore::flatten`] (or an all-reduced copy of it).
    ///
    /// # Panics
    /// Panics if `flat.len() != self.total_numel()`.
    pub fn unflatten_into(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.total_numel(), "flat parameter buffer length mismatch");
        let mut off = 0;
        for p in &mut self.params {
            let n = p.numel();
            p.data_mut().copy_from_slice(&flat[off..off + n]);
            off += n;
        }
    }

    /// A read-only view for inference engines (see [`FrozenParams`]).
    pub fn frozen(&self) -> FrozenParams<'_> {
        FrozenParams { store: self }
    }
}

/// A read-only view of a [`ParamStore`] for inference.
///
/// Serving code holds this view instead of the store itself, so the type
/// system rules out accidental weight mutation (`get_mut`, `unflatten_into`)
/// on a loaded checkpoint — the optimizer and trainer APIs all demand
/// `&mut ParamStore`, which cannot be reached through this view.
#[derive(Debug, Clone, Copy)]
pub struct FrozenParams<'a> {
    store: &'a ParamStore,
}

impl<'a> FrozenParams<'a> {
    /// Current value of a parameter.
    pub fn get(&self, id: ParamId) -> &'a Tensor {
        self.store.get(id)
    }

    /// The registered name of a parameter.
    pub fn name(&self, id: ParamId) -> &'a str {
        self.store.name(id)
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Total number of scalar parameters.
    pub fn total_numel(&self) -> usize {
        self.store.total_numel()
    }

    /// Iterates over `(id, name, tensor)` triples in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &'a str, &'a Tensor)> {
        self.store.iter()
    }
}

/// Flattens a gradient list (aligned with a store) into one buffer, the
/// layout consumed by the ring all-reduce.
pub fn flatten_grads(grads: &[Tensor]) -> Vec<f32> {
    let total: usize = grads.iter().map(Tensor::numel).sum();
    let mut out = Vec::with_capacity(total);
    for g in grads {
        out.extend_from_slice(g.data());
    }
    out
}

/// Splits a flat gradient buffer back into per-parameter tensors shaped like
/// the store's parameters.
pub fn unflatten_grads(store: &ParamStore, flat: &[f32]) -> Vec<Tensor> {
    assert_eq!(flat.len(), store.total_numel());
    let mut out = Vec::with_capacity(store.len());
    let mut off = 0;
    for (_, _, p) in store.iter() {
        let n = p.numel();
        let mut buf = workspace::take_scratch(n);
        buf.copy_from_slice(&flat[off..off + n]);
        out.push(Tensor::from_guard(buf, p.dims()));
        off += n;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut store = ParamStore::new();
        let a = store.register("w", Tensor::ones(&[2, 2]));
        let b = store.register("b", Tensor::zeros(&[2]));
        assert_eq!(store.len(), 2);
        assert_eq!(store.name(a), "w");
        assert_eq!(store.name(b), "b");
        assert_eq!(store.total_numel(), 6);
        assert_eq!(store.get(a).sum(), 4.0);
    }

    #[test]
    fn flatten_roundtrip() {
        let mut store = ParamStore::new();
        store.register("w", Tensor::from_vec(vec![1.0, 2.0], &[2]));
        store.register("b", Tensor::from_vec(vec![3.0], &[1]));
        let flat = store.flatten();
        assert_eq!(flat, vec![1.0, 2.0, 3.0]);
        store.unflatten_into(&[4.0, 5.0, 6.0]);
        assert_eq!(store.flatten(), vec![4.0, 5.0, 6.0]);
    }

    #[test]
    fn grad_flatten_roundtrip() {
        let mut store = ParamStore::new();
        store.register("w", Tensor::zeros(&[2, 3]));
        store.register("b", Tensor::zeros(&[3]));
        let grads = vec![Tensor::ones(&[2, 3]), Tensor::full(&[3], 2.0)];
        let flat = flatten_grads(&grads);
        assert_eq!(flat.len(), 9);
        let back = unflatten_grads(&store, &flat);
        assert_eq!(back[0], grads[0]);
        assert_eq!(back[1], grads[1]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn unflatten_checks_length() {
        let mut store = ParamStore::new();
        store.register("w", Tensor::zeros(&[2]));
        store.unflatten_into(&[1.0]);
    }
}
