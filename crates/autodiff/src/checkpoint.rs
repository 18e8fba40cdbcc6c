//! The parameter and optimizer streams a training-state checkpoint embeds
//! (`mfn_core::checkpoint` frames them): a [`ParamStore`] and an [`Adam`].
//!
//! The format is little-endian binary (magic, then per tensor its name,
//! shape and data) — self-describing, dependency-free, and stable across
//! platforms. Reading validates names and shapes against the live store
//! before it allocates anything they size, so a stream can only be restored
//! into a model with the same architecture and a hostile header cannot make
//! the reader allocate more than the model holds.

use crate::optim::{Adam, AdamConfig};
use crate::params::{ParamId, ParamStore};
use mfn_tensor::Tensor;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 8] = b"MFNCKPT1";

/// Streams every parameter (magic, count, then name/shape/values per
/// parameter) into `w`.
pub fn write_params(store: &ParamStore, w: &mut impl Write) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&(store.len() as u64).to_le_bytes())?;
    for (_, name, tensor) in store.iter() {
        let nb = name.as_bytes();
        w.write_all(&(nb.len() as u32).to_le_bytes())?;
        w.write_all(nb)?;
        tensor.write_to(w)?;
    }
    Ok(())
}

/// Streams parameters written by [`write_params`] back into `store`.
///
/// # Errors
/// `InvalidData` if the magic is wrong or any count, name or shape differs
/// from the store's registrations — each length field is compared with the
/// store before anything it sizes is read, and values are read straight
/// into the store's tensors; `UnexpectedEof` if the stream ends early.
pub fn read_params(store: &mut ParamStore, r: &mut impl Read) -> io::Result<()> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad("bad magic bytes"));
    }
    let count = read_u64(r)? as usize;
    if count != store.len() {
        return Err(bad(&format!("checkpoint has {count} parameters, model has {}", store.len())));
    }
    for i in 0..count {
        let id = ParamId(i);
        let want = store.name(id);
        let name_len = read_u32(r)? as usize;
        if name_len != want.len() {
            return Err(bad(&format!(
                "parameter {i} name mismatch: checkpoint name of {name_len} bytes, model '{want}'"
            )));
        }
        let mut name = vec![0u8; name_len];
        r.read_exact(&mut name)?;
        if name != want.as_bytes() {
            return Err(bad(&format!(
                "parameter {i} name mismatch: checkpoint '{}', model '{want}'",
                String::from_utf8_lossy(&name)
            )));
        }
        let what = || format!("parameter '{}'", String::from_utf8_lossy(&name));
        store.get_mut(id).read_into(r).map_err(|e| named(e, &what()))?;
    }
    Ok(())
}

const ADAM_MAGIC: &[u8; 8] = b"MFNADAM1";

/// Streams the complete Adam state — hyperparameters, step count, and both
/// moment buffers — into `w`, so a resumed run continues the exact update
/// trajectory (bias correction depends on `t`; the moments carry momentum).
pub fn write_adam(opt: &Adam, w: &mut impl Write) -> io::Result<()> {
    w.write_all(ADAM_MAGIC)?;
    let cfg = opt.config();
    for v in [cfg.lr, cfg.beta1, cfg.beta2, cfg.eps, cfg.weight_decay] {
        w.write_all(&v.to_le_bytes())?;
    }
    w.write_all(&opt.steps().to_le_bytes())?;
    let (m, v) = opt.moments();
    w.write_all(&(m.len() as u64).to_le_bytes())?;
    for t in m.iter().chain(v) {
        t.write_to(w)?;
    }
    Ok(())
}

/// Reads Adam state written by [`write_adam`] and binds it to `store`: each
/// moment is read over a buffer of its parameter's shape, which the stream
/// must carry.
pub fn read_adam(store: &ParamStore, r: &mut impl Read) -> io::Result<Adam> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != ADAM_MAGIC {
        return Err(bad("bad Adam state magic bytes"));
    }
    let mut f = [0f32; 5];
    for v in f.iter_mut() {
        let mut b = [0u8; 4];
        r.read_exact(&mut b)?;
        *v = f32::from_le_bytes(b);
    }
    let cfg = AdamConfig { lr: f[0], beta1: f[1], beta2: f[2], eps: f[3], weight_decay: f[4] };
    let t = read_u64(r)?;
    let count = read_u64(r)? as usize;
    if count != store.len() {
        return Err(bad(&format!("Adam state has {count} moments, model has {}", store.len())));
    }
    let mut read_list = |what: &str| -> io::Result<Vec<Tensor>> {
        (0..count)
            .map(|i| {
                let mut m = Tensor::zeros(store.get(ParamId(i)).dims());
                m.read_into(r).map_err(|e| named(e, &format!("Adam {what} moment {i}")))?;
                Ok(m)
            })
            .collect()
    };
    let m = read_list("first")?;
    let v = read_list("second")?;
    Ok(Adam::from_parts(cfg, m, v, t))
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Prefixes an `InvalidData` error with what was being read.
fn named(e: io::Error, what: &str) -> io::Error {
    match e.kind() {
        io::ErrorKind::InvalidData => bad(&format!("{what}: {e}")),
        _ => e,
    }
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfn_tensor::Tensor;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn example_store(seed: u64) -> ParamStore {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut s = ParamStore::new();
        s.register("layer.weight", Tensor::randn(&[4, 3], 1.0, &mut rng));
        s.register("layer.bias", Tensor::randn(&[4], 1.0, &mut rng));
        s.register("bn.gamma", Tensor::ones(&[2]));
        s
    }

    fn params_of(store: &ParamStore) -> Vec<u8> {
        let mut buf = Vec::new();
        write_params(store, &mut buf).expect("vec write");
        buf
    }

    #[test]
    fn roundtrip_restores_exact_values() {
        let trained = example_store(1);
        let mut fresh = example_store(2); // different values, same shapes
        assert_ne!(fresh.flatten(), trained.flatten());
        read_params(&mut fresh, &mut params_of(&trained).as_slice()).expect("read");
        assert_eq!(fresh.flatten(), trained.flatten());
    }

    #[test]
    fn rejects_architecture_mismatch() {
        let bytes = params_of(&example_store(1));
        let mismatch = |other: &mut ParamStore| {
            let err = read_params(other, &mut bytes.as_slice()).expect_err("mismatch");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        };
        // Wrong shape.
        let mut other = ParamStore::new();
        other.register("layer.weight", Tensor::zeros(&[5, 3]));
        other.register("layer.bias", Tensor::zeros(&[4]));
        other.register("bn.gamma", Tensor::zeros(&[2]));
        mismatch(&mut other);
        // Wrong name, of the same and of another length.
        for name in ["oops.weight", "layer.weigh"] {
            let mut other = ParamStore::new();
            other.register(name, Tensor::zeros(&[4, 3]));
            other.register("layer.bias", Tensor::zeros(&[4]));
            other.register("bn.gamma", Tensor::zeros(&[2]));
            mismatch(&mut other);
        }
        // Wrong count.
        let mut other = ParamStore::new();
        other.register("layer.weight", Tensor::zeros(&[4, 3]));
        mismatch(&mut other);
    }

    #[test]
    fn adam_roundtrip_continues_identical_trajectory() {
        let mut a = example_store(3);
        let mut b = example_store(3);
        let cfg = AdamConfig { lr: 0.05, ..Default::default() };
        let mut opt_a = Adam::new(&a, cfg);
        let grads: Vec<Tensor> =
            (0..a.len()).map(|i| Tensor::full(a.get(ParamId(i)).dims(), 0.3)).collect();
        for _ in 0..4 {
            opt_a.step(&mut a, &grads);
        }
        // Serialize mid-run state, restore into a fresh optimizer bound to `b`.
        let mut buf = Vec::new();
        write_adam(&opt_a, &mut buf).expect("write");
        b.unflatten_into(&a.flatten());
        let mut opt_b = read_adam(&b, &mut buf.as_slice()).expect("read");
        assert_eq!(opt_b.steps(), 4);
        // Both continue for 3 more steps; trajectories must match bitwise.
        for _ in 0..3 {
            opt_a.step(&mut a, &grads);
            opt_b.step(&mut b, &grads);
        }
        assert_eq!(a.flatten(), b.flatten());
    }

    #[test]
    fn read_adam_rejects_garbage_and_mismatch() {
        let store = example_store(1);
        // Garbage magic.
        assert!(read_adam(&store, &mut &b"not an adam state..."[..]).is_err());
        // State captured from a differently-shaped store.
        let mut other = ParamStore::new();
        other.register("layer.weight", Tensor::zeros(&[2, 2]));
        other.register("layer.bias", Tensor::zeros(&[4]));
        other.register("bn.gamma", Tensor::zeros(&[2]));
        let opt = Adam::new(&other, AdamConfig::default());
        let mut buf = Vec::new();
        write_adam(&opt, &mut buf).expect("write");
        assert!(read_adam(&store, &mut buf.as_slice()).is_err());
        // Truncated payload.
        let opt = Adam::new(&store, AdamConfig::default());
        let mut buf = Vec::new();
        write_adam(&opt, &mut buf).expect("write");
        buf.truncate(buf.len() - 5);
        assert!(read_adam(&store, &mut buf.as_slice()).is_err());
    }

    #[test]
    fn rejects_corrupt_stream() {
        let mut s = example_store(1);
        assert!(read_params(&mut s, &mut &b"definitely not a checkpoint"[..]).is_err());
        let mut bytes = params_of(&example_store(2));
        bytes.truncate(bytes.len() - 5);
        let err = read_params(&mut s, &mut bytes.as_slice()).expect_err("truncated");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
