//! The dense `f32` tensor type and its element-wise operations.

use crate::le::ReadLe;
use crate::shape::Shape;
use crate::workspace::{self, WorkspaceGuard};
use rand::Rng;
use std::fmt;

/// A dense, contiguous, row-major `f32` tensor.
///
/// This is the storage type shared by the whole neural-network stack. It is
/// deliberately plain — one owned buffer plus a [`Shape`] — so that the
/// autodiff tape can clone, move, and mutate buffers without aliasing
/// headaches, and so the kernels in [`crate::conv`] and [`crate::rowops`]
/// can split the flat buffer freely.
///
/// The buffer is a [`crate::workspace`] checkout: [`Tensor::data`] always
/// starts on a 64-byte cache line, and dropping the tensor returns the
/// buffer to the pool, so the thousands of short-lived tensors a training
/// step creates (tape activations, gradients, kernel outputs) recycle the
/// same allocations step after step.
pub struct Tensor {
    data: WorkspaceGuard,
    shape: Shape,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        let mut data = workspace::take_scratch(self.numel());
        data.copy_from_slice(&self.data);
        Tensor { data, shape: self.shape.clone() }
    }
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Tensor) -> bool {
        self.shape == other.shape && self.data() == other.data()
    }
}

impl Tensor {
    /// Creates a tensor over a filled workspace checkout.
    ///
    /// # Panics
    /// Panics if `data.len() != shape.numel()`.
    pub fn from_guard(data: WorkspaceGuard, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(data.len(), shape.numel(), "data length does not match shape {dims:?}");
        Tensor { data, shape }
    }

    /// Creates a tensor from a flat buffer and a shape, copying the buffer
    /// once into a workspace checkout (for tests and cold initialization;
    /// hot paths fill a checkout and use [`Tensor::from_guard`]).
    ///
    /// # Panics
    /// Panics if `data.len() != shape.numel()`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Self {
        Tensor::from_guard(data.into(), dims)
    }

    /// A tensor of zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        Tensor { data: workspace::take_zeroed(shape.numel()), shape }
    }

    /// A tensor of ones.
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::full(dims, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let mut data = workspace::take_scratch(shape.numel());
        data.fill(value);
        Tensor { data, shape }
    }

    /// A scalar (rank-0) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor::full(&[], value)
    }

    /// Standard-normal samples scaled by `std`, drawn from `rng`
    /// (Box–Muller; avoids depending on `rand_distr`).
    pub fn randn<R: Rng>(dims: &[usize], std: f32, rng: &mut R) -> Self {
        let shape = Shape::new(dims);
        let mut data = workspace::take_scratch(shape.numel());
        for pair in data.chunks_mut(2) {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            pair[0] = r * theta.cos() * std;
            if let Some(second) = pair.get_mut(1) {
                *second = r * theta.sin() * std;
            }
        }
        Tensor { data, shape }
    }

    /// Uniform samples in `[lo, hi)`.
    pub fn rand_uniform<R: Rng>(dims: &[usize], lo: f32, hi: f32, rng: &mut R) -> Self {
        let shape = Shape::new(dims);
        let mut data = workspace::take_scratch(shape.numel());
        data.iter_mut().for_each(|v| *v = rng.gen_range(lo..hi));
        Tensor { data, shape }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension sizes.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total element count.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Read-only view of the flat buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// The single value of a rank-0 or single-element tensor.
    ///
    /// # Panics
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(self.data.len(), 1, "item() on tensor with {} elements", self.data.len());
        self.data[0]
    }

    /// Element at a multi-dimensional index.
    #[inline]
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Mutable element at a multi-dimensional index.
    #[inline]
    pub fn at_mut(&mut self, index: &[usize]) -> &mut f32 {
        let off = self.shape.offset(index);
        &mut self.data[off]
    }

    /// Writes the tensor in the workspace's little-endian binary layout
    /// (rank `u32`, dims `u64` each, then the `f32` payload). The inverse of
    /// [`Tensor::read_into`]; used by the checkpoint codecs so every tensor
    /// on disk shares one format.
    pub fn write_to(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        w.write_all(&(self.shape.rank() as u32).to_le_bytes())?;
        for &d in self.dims() {
            w.write_all(&(d as u64).to_le_bytes())?;
        }
        for &v in self.data() {
            w.write_all(&v.to_le_bytes())?;
        }
        Ok(())
    }

    /// Reads a tensor written by [`Tensor::write_to`] from the front of `r`
    /// over `self`, whose shape the bytes must carry. The header is compared
    /// with `self.dims()` before any payload is read, so nothing the bytes
    /// claim is ever allocated.
    ///
    /// # Errors
    /// `InvalidData` (naming a "shape mismatch") if the header disagrees,
    /// `UnexpectedEof` on truncation.
    pub fn read_into(&mut self, r: &mut &[u8]) -> std::io::Result<()> {
        let dims = self.dims();
        let mismatch = |got: String| {
            let msg = format!("shape mismatch: stream {got}, tensor {dims:?}");
            std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
        };
        let rank = r.u32()? as usize;
        if rank != dims.len() {
            return Err(mismatch(format!("rank {rank}")));
        }
        for (axis, &d) in dims.iter().enumerate() {
            let got = r.u64()?;
            if got != d as u64 {
                return Err(mismatch(format!("dim {axis} of {got}")));
            }
        }
        r.f32s_into(&mut self.data)?;
        Ok(())
    }

    /// Reinterprets the buffer with a new shape of equal element count.
    ///
    /// # Panics
    /// Panics if the element counts differ.
    pub fn reshape(mut self, dims: &[usize]) -> Self {
        let new = Shape::new(dims);
        assert_eq!(new.numel(), self.data.len(), "reshape to {dims:?} changes element count");
        self.shape = new;
        self
    }

    /// Element-wise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut data = workspace::take_scratch(self.numel());
        data.iter_mut().zip(self.data()).for_each(|(o, &x)| *o = f(x));
        Tensor { data, shape: self.shape.clone() }
    }

    /// Element-wise combination of two same-shaped tensors.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape, other.shape, "zip shape mismatch");
        let mut data = workspace::take_scratch(self.numel());
        for ((o, &a), &b) in data.iter_mut().zip(self.data()).zip(other.data()) {
            *o = f(a, b);
        }
        Tensor { data, shape: self.shape.clone() }
    }

    /// `self + other`, element-wise.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a + b)
    }

    /// `self - other`, element-wise.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a - b)
    }

    /// `self * other`, element-wise (Hadamard product).
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a * b)
    }

    /// `self * s`, scalar multiplication.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// In-place `self += other`.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data()) {
            *a += b;
        }
    }

    /// In-place `self += s * other` (AXPY).
    pub fn axpy(&mut self, s: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data()) {
            *a += s * b;
        }
    }

    /// Sum of all elements (f64 accumulator for stability).
    pub fn sum(&self) -> f32 {
        self.data.iter().map(|&x| x as f64).sum::<f64>() as f32
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Largest absolute element, or 0 for an empty tensor.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Squared L2 norm.
    pub fn norm_sqr(&self) -> f32 {
        self.data.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>() as f32
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    /// Concatenates tensors along `axis`. All other dimensions must agree.
    pub fn concat(tensors: &[&Tensor], axis: usize) -> Tensor {
        assert!(!tensors.is_empty(), "concat of zero tensors");
        let rank = tensors[0].shape.rank();
        assert!(axis < rank, "concat axis {axis} out of range for rank {rank}");
        let mut out_dims = tensors[0].dims().to_vec();
        out_dims[axis] = tensors.iter().map(|t| t.dims()[axis]).sum();
        for t in tensors {
            assert_eq!(t.shape.rank(), rank, "concat rank mismatch");
            for (d, &od) in out_dims.iter().enumerate() {
                if d != axis {
                    assert_eq!(t.dims()[d], od, "concat dim {d} mismatch");
                }
            }
        }
        // outer = product of dims before axis, inner = product after.
        let outer: usize = out_dims[..axis].iter().product();
        let inner: usize = out_dims[axis + 1..].iter().product();
        let mut data = workspace::take_scratch(out_dims.iter().product());
        let mut at = 0;
        for o in 0..outer {
            for t in tensors {
                let len = t.dims()[axis] * inner;
                data[at..at + len].copy_from_slice(&t.data[o * len..(o + 1) * len]);
                at += len;
            }
        }
        Tensor::from_guard(data, &out_dims)
    }

    /// The `len` entries from `start` along `axis`, copied into a tensor of
    /// their own.
    pub fn narrow(&self, axis: usize, start: usize, len: usize) -> Tensor {
        assert!(axis < self.shape.rank(), "narrow axis out of range");
        let axis_len = self.dims()[axis];
        assert!(start + len <= axis_len, "narrow range exceeds the axis");
        let outer: usize = self.dims()[..axis].iter().product();
        let inner: usize = self.dims()[axis + 1..].iter().product();
        let mut dims = self.dims().to_vec();
        dims[axis] = len;
        let mut data = workspace::take_scratch(outer * len * inner);
        for (o, dst) in data.chunks_exact_mut(len * inner).enumerate() {
            let off = (o * axis_len + start) * inner;
            dst.copy_from_slice(&self.data[off..off + len * inner]);
        }
        Tensor::from_guard(data, &dims)
    }

    /// Splits a tensor along `axis` into chunks of the given sizes
    /// (the inverse of [`Tensor::concat`]).
    pub fn split(&self, axis: usize, sizes: &[usize]) -> Vec<Tensor> {
        assert!(axis < self.shape.rank());
        assert_eq!(sizes.iter().sum::<usize>(), self.dims()[axis], "split sizes must cover axis");
        let mut start = 0;
        sizes
            .iter()
            .map(|&s| {
                start += s;
                self.narrow(axis, start - s, s)
            })
            .collect()
    }

    /// 2D transpose of a rank-2 tensor.
    pub fn transpose2(&self) -> Tensor {
        assert_eq!(self.shape.rank(), 2, "transpose2 requires rank 2");
        let (m, n) = (self.dims()[0], self.dims()[1]);
        let mut buf = workspace::take_scratch(m * n);
        // Slice the checkouts once: indexing a guard finds its cache line.
        let (out, src): (&mut [f32], &[f32]) = (&mut buf, &self.data);
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = src[i * n + j];
            }
        }
        Tensor::from_guard(buf, &[n, m])
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape.dims())?;
        if self.numel() <= 16 {
            write!(f, " {:?}", self.data())
        } else {
            write!(f, " [{} elements]", self.numel())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn constructors() {
        assert_eq!(Tensor::zeros(&[2, 3]).sum(), 0.0);
        assert_eq!(Tensor::ones(&[2, 3]).sum(), 6.0);
        assert_eq!(Tensor::full(&[4], 2.5).sum(), 10.0);
        assert_eq!(Tensor::scalar(3.0).item(), 3.0);
    }

    #[test]
    fn randn_statistics() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let t = Tensor::randn(&[10_000], 2.0, &mut rng);
        let mean = t.mean();
        let var = t.data().iter().map(|x| (x - mean).powi(2)).sum::<f32>() / 10_000.0;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3]);
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0]);
        let mut c = a.clone();
        c.axpy(0.5, &b);
        assert_eq!(c.data(), &[3.0, 4.5, 6.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]);
        let r = t.clone().reshape(&[3, 2]);
        assert_eq!(r.dims(), &[3, 2]);
        assert_eq!(r.data(), t.data());
    }

    #[test]
    #[should_panic(expected = "changes element count")]
    fn reshape_rejects_bad_count() {
        Tensor::zeros(&[2, 3]).reshape(&[4]);
    }

    #[test]
    fn indexing() {
        let t = Tensor::from_vec((0..24).map(|i| i as f32).collect(), &[2, 3, 4]);
        assert_eq!(t.at(&[0, 0, 0]), 0.0);
        assert_eq!(t.at(&[1, 2, 3]), 23.0);
        let mut t = t;
        *t.at_mut(&[1, 0, 0]) = -1.0;
        assert_eq!(t.at(&[1, 0, 0]), -1.0);
    }

    #[test]
    fn concat_axis0_and_axis1() {
        let a = Tensor::from_vec(vec![1., 2., 3., 4.], &[2, 2]);
        let b = Tensor::from_vec(vec![5., 6., 7., 8.], &[2, 2]);
        let c0 = Tensor::concat(&[&a, &b], 0);
        assert_eq!(c0.dims(), &[4, 2]);
        assert_eq!(c0.data(), &[1., 2., 3., 4., 5., 6., 7., 8.]);
        let c1 = Tensor::concat(&[&a, &b], 1);
        assert_eq!(c1.dims(), &[2, 4]);
        assert_eq!(c1.data(), &[1., 2., 5., 6., 3., 4., 7., 8.]);
    }

    #[test]
    fn split_inverts_concat() {
        let a = Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[2, 3, 2]);
        let parts = a.split(1, &[1, 2]);
        let back = Tensor::concat(&[&parts[0], &parts[1]], 1);
        assert_eq!(back, a);
    }

    #[test]
    fn transpose2_roundtrip() {
        let a = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]);
        let t = a.transpose2();
        assert_eq!(t.dims(), &[3, 2]);
        assert_eq!(t.at(&[2, 1]), a.at(&[1, 2]));
        assert_eq!(t.transpose2(), a);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![-3.0, 1.0, 2.0], &[3]);
        assert_eq!(t.sum(), 0.0);
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.max_abs(), 3.0);
        assert_eq!(t.norm_sqr(), 14.0);
        assert!(!t.has_non_finite());
        let bad = Tensor::from_vec(vec![f32::NAN], &[1]);
        assert!(bad.has_non_finite());
    }

    /// Every constructor and op hands back storage that starts on a 64-byte
    /// line, at any size and whatever the allocator served just before.
    #[test]
    fn every_tensor_starts_on_a_cache_line() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for n in [1, 2, 3, 5, 15, 16, 17, 63, 64, 65, 100, 255, 1000, 4097, 70_000] {
            // A burst of odd-sized allocations, foreign and pooled.
            let burst: Vec<Vec<f32>> = (1..40).map(|i| vec![0.0; i * 7 + n % 13]).collect();
            let pooled: Vec<Tensor> = (1..8).map(|i| Tensor::full(&[i * 3 + n], 1.0)).collect();
            let x = Tensor::randn(&[n], 1.0, &mut rng);
            let m = Tensor::full(&[2, n], 2.0);
            let input = Tensor::randn(&[1, 2, 1, 1, n], 1.0, &mut rng);
            let weight = Tensor::randn(&[3, 2, 1, 1, 1], 1.0, &mut rng);
            let outs = [
                ("zeros", Tensor::zeros(&[n])),
                ("full", Tensor::full(&[n], 3.0)),
                ("scalar", Tensor::scalar(n as f32)),
                ("from_vec", Tensor::from_vec(vec![0.5; n], &[n])),
                ("clone", x.clone()),
                ("map", x.map(|v| v * 2.0)),
                ("zip", x.add(&x)),
                ("concat", Tensor::concat(&[&m, &m], 1)),
                ("narrow", m.narrow(1, n / 2, n - n / 2)),
                ("transpose2", m.transpose2()),
                ("reshape", m.clone().reshape(&[n, 2])),
                ("conv", crate::PackedConv3d::pack(&weight, n).forward(&input)),
                ("randn", x),
            ];
            for (what, t) in &outs {
                assert_eq!(t.data().as_ptr() as usize % 64, 0, "{what} of {n} elements");
            }
            drop((burst, pooled));
        }
    }

    #[test]
    fn binary_io_roundtrips_bits() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for dims in [&[][..], &[1], &[7], &[3, 5], &[2, 3, 4, 5], &[4097]] {
            let t = Tensor::randn(dims, 1.0, &mut rng);
            let mut buf = Vec::new();
            t.write_to(&mut buf).expect("write");
            let mut back = Tensor::zeros(dims);
            back.read_into(&mut buf.as_slice()).expect("read");
            let bits = |x: &Tensor| x.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&back), bits(&t));
        }
    }

    #[test]
    fn binary_io_rejects_truncation_and_garbage() {
        let t = Tensor::ones(&[4, 4]);
        let mut buf = Vec::new();
        t.write_to(&mut buf).expect("write");
        let mut into = Tensor::zeros(&[4, 4]);
        for cut in [1, 3, buf.len() / 2, buf.len() - 1] {
            let err = into.read_into(&mut &buf[..cut]).expect_err("truncated");
            assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
        // A header naming another shape — an absurd rank, other dims, or a
        // 2^33-element claim over 8 payload bytes — is refused before any
        // payload is read.
        let header = |dims: &[u64]| {
            let mut h = (dims.len() as u32).to_le_bytes().to_vec();
            dims.iter().for_each(|d| h.extend_from_slice(&d.to_le_bytes()));
            h.extend_from_slice(&[0u8; 8]);
            h
        };
        let mut absurd = u32::MAX.to_le_bytes().to_vec();
        absurd.extend_from_slice(&[0u8; 8]);
        for bytes in [absurd, header(&[4, 5]), header(&[16]), header(&[1 << 33])] {
            let err = into.read_into(&mut bytes.as_slice()).expect_err("other shape");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("shape mismatch"), "{err}");
        }
    }
}
