use crate::kernels::cache::PackTag;
use crate::rng::SmallRng;
use crate::{arena, Shape4, TensorError};
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic process-wide tensor id counter. Ids are never reused (the
/// arena recycles *buffers*, not identities), so a packed-panel cache
/// entry keyed by `(id, version)` can never alias a different tensor.
static NEXT_TENSOR_ID: AtomicU64 = AtomicU64::new(1);

fn fresh_tensor_id() -> u64 {
    NEXT_TENSOR_ID.fetch_add(1, Ordering::Relaxed)
}

/// A dense, row-major, rank-4 (NCHW) tensor of `f32` values.
///
/// `Tensor` is the single data type flowing through the training stack.
/// It owns its buffer; views are not implemented (the supernet is small
/// enough that copies are cheaper than the complexity of a borrow-tracked
/// view system).
///
/// # Example
///
/// ```
/// use hsconas_tensor::Tensor;
///
/// # fn main() -> Result<(), hsconas_tensor::TensorError> {
/// let x = Tensor::from_vec([1, 2, 1, 2], vec![1.0, 2.0, 3.0, 4.0])?;
/// let y = x.scale(2.0);
/// assert_eq!(y.data(), &[2.0, 4.0, 6.0, 8.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Tensor {
    shape: Shape4,
    data: Vec<f32>,
    /// Unique identity for cache keying; fresh per tensor, never reused.
    id: u64,
    /// Mutation generation: bumped by every `&mut` access to the buffer,
    /// so caches keyed on `(id, version)` self-invalidate on weight
    /// updates without explicit hooks.
    version: u64,
}

/// Value semantics: identity (`id`/`version`) is cache bookkeeping, not
/// part of the tensor's value.
impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.data == other.data
    }
}

/// Every tensor buffer comes from the thread-local activation arena
/// ([`crate::arena`]) and returns there on drop, so steady-state
/// forward/backward passes reuse buffers instead of hitting the heap.
impl Drop for Tensor {
    fn drop(&mut self) {
        arena::recycle(std::mem::take(&mut self.data));
    }
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        let mut data = arena::take_buffer(self.data.len());
        data.extend_from_slice(&self.data);
        // A clone is a distinct tensor: it gets its own identity so
        // mutating it never invalidates (or falsely hits) the original's
        // cached panels.
        Tensor::with_data(self.shape, data)
    }
}

impl Tensor {
    /// Internal constructor: wraps `data` under `shape` with a fresh id.
    pub(crate) fn with_data(shape: Shape4, data: Vec<f32>) -> Self {
        Tensor {
            shape,
            data,
            id: fresh_tensor_id(),
            version: 0,
        }
    }

    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: impl Into<Shape4>) -> Self {
        Self::full(shape, 0.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: impl Into<Shape4>, value: f32) -> Self {
        let shape = shape.into();
        let mut data = arena::take_buffer(shape.len());
        data.resize(shape.len(), value);
        Tensor::with_data(shape, data)
    }

    /// Creates a tensor from an existing buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `data.len()` does not equal
    /// the number of elements implied by `shape`.
    pub fn from_vec(shape: impl Into<Shape4>, data: Vec<f32>) -> Result<Self, TensorError> {
        let shape = shape.into();
        if data.len() != shape.len() {
            return Err(TensorError::ShapeMismatch {
                op: "from_vec",
                expected: shape.to_vec(),
                actual: vec![data.len()],
            });
        }
        Ok(Tensor::with_data(shape, data))
    }

    /// Creates a tensor of i.i.d. Gaussian samples with the given standard
    /// deviation (mean zero), deterministically from `rng`.
    pub fn randn(shape: impl Into<Shape4>, std: f32, rng: &mut SmallRng) -> Self {
        let shape = shape.into();
        let mut data = arena::take_buffer(shape.len());
        data.extend((0..shape.len()).map(|_| rng.next_normal() as f32 * std));
        Tensor::with_data(shape, data)
    }

    /// Kaiming-He normal initialization for a convolution / linear weight
    /// with `fan_in` input connections.
    pub fn kaiming(shape: impl Into<Shape4>, fan_in: usize, rng: &mut SmallRng) -> Self {
        let std = (2.0 / fan_in.max(1) as f32).sqrt();
        Self::randn(shape, std, rng)
    }

    /// The tensor's shape.
    pub fn shape(&self) -> Shape4 {
        self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying buffer (row-major NCHW).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer (row-major NCHW).
    ///
    /// Bumps the tensor's mutation version: any packed-panel cache entry
    /// built from the previous contents is invalidated on next lookup.
    pub fn data_mut(&mut self) -> &mut [f32] {
        self.version = self.version.wrapping_add(1);
        &mut self.data
    }

    /// Cache tag for GEMM calls that use this tensor's full buffer as an
    /// operand (see [`crate::kernels::cache`]). The tag pins the tensor's
    /// identity and current mutation version, so packed panels are reused
    /// across calls exactly until the next `&mut` access.
    pub fn pack_tag(&self) -> PackTag {
        self.pack_tag_at(0)
    }

    /// [`Tensor::pack_tag`] for a GEMM operand that is a sub-slice of the
    /// buffer starting at element `offset`.
    pub fn pack_tag_at(&self, offset: usize) -> PackTag {
        PackTag {
            id: self.id,
            version: self.version,
            offset,
            mask_sig: 0,
        }
    }

    /// Consumes the tensor and returns its buffer (detached from the
    /// arena — it is not recycled until the caller drops a tensor built
    /// from it again).
    pub fn into_vec(mut self) -> Vec<f32> {
        std::mem::take(&mut self.data)
    }

    /// Element accessor.
    #[inline]
    pub fn at(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        self.data[self.shape.index(n, c, h, w)]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn at_mut(&mut self, n: usize, c: usize, h: usize, w: usize) -> &mut f32 {
        self.version = self.version.wrapping_add(1);
        let i = self.shape.index(n, c, h, w);
        &mut self.data[i]
    }

    /// Reinterprets the buffer under a new shape with the same element count.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if element counts differ.
    pub fn reshape(mut self, shape: impl Into<Shape4>) -> Result<Self, TensorError> {
        let shape = shape.into();
        if shape.len() != self.data.len() {
            return Err(TensorError::ShapeMismatch {
                op: "reshape",
                expected: shape.to_vec(),
                actual: self.shape.to_vec(),
            });
        }
        self.shape = shape;
        Ok(self)
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        let mut data = arena::take_buffer(self.data.len());
        data.extend(self.data.iter().map(|&v| f(v)));
        Tensor::with_data(self.shape, data)
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        self.version = self.version.wrapping_add(1);
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Multiplies every element by `k`.
    pub fn scale(&self, k: f32) -> Self {
        self.map(|v| v * k)
    }

    /// Elementwise sum; shapes must match.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Self, TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op: "add",
                expected: self.shape.to_vec(),
                actual: other.shape.to_vec(),
            });
        }
        let mut data = arena::take_buffer(self.data.len());
        data.extend(self.data.iter().zip(&other.data).map(|(a, b)| a + b));
        Ok(Tensor::with_data(self.shape, data))
    }

    /// In-place `self += k * other`; shapes must match.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn axpy(&mut self, k: f32, other: &Tensor) -> Result<(), TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op: "axpy",
                expected: self.shape.to_vec(),
                actual: other.shape.to_vec(),
            });
        }
        self.version = self.version.wrapping_add(1);
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += k * b;
        }
        Ok(())
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Euclidean norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Concatenates tensors along the channel axis. All inputs must share
    /// `n`, `h`, and `w`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] if `parts` is empty and
    /// [`TensorError::ShapeMismatch`] if spatial/batch dims differ.
    pub fn concat_channels(parts: &[&Tensor]) -> Result<Self, TensorError> {
        let first = parts.first().ok_or(TensorError::InvalidDimension {
            op: "concat_channels",
            detail: "no input tensors".into(),
        })?;
        let (n, h, w) = (first.shape.n, first.shape.h, first.shape.w);
        let mut c_total = 0;
        for p in parts {
            if p.shape.n != n || p.shape.h != h || p.shape.w != w {
                return Err(TensorError::ShapeMismatch {
                    op: "concat_channels",
                    expected: first.shape.to_vec(),
                    actual: p.shape.to_vec(),
                });
            }
            c_total += p.shape.c;
        }
        let mut out = Tensor::zeros([n, c_total, h, w]);
        let plane = h * w;
        for ni in 0..n {
            let mut c_off = 0;
            for p in parts {
                let src_base = ni * p.shape.c * plane;
                let dst_base = (ni * c_total + c_off) * plane;
                let count = p.shape.c * plane;
                out.data[dst_base..dst_base + count]
                    .copy_from_slice(&p.data[src_base..src_base + count]);
                c_off += p.shape.c;
            }
        }
        Ok(out)
    }

    /// Splits the tensor into two halves along the channel axis,
    /// `(first `split` channels, rest)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] if `split` is zero or not
    /// smaller than the channel count.
    pub fn split_channels(&self, split: usize) -> Result<(Tensor, Tensor), TensorError> {
        if split == 0 || split >= self.shape.c {
            return Err(TensorError::InvalidDimension {
                op: "split_channels",
                detail: format!("split {} outside (0, {})", split, self.shape.c),
            });
        }
        let (n, c, h, w) = (self.shape.n, self.shape.c, self.shape.h, self.shape.w);
        let plane = h * w;
        let mut a = Tensor::zeros([n, split, h, w]);
        let mut b = Tensor::zeros([n, c - split, h, w]);
        for ni in 0..n {
            let src = ni * c * plane;
            a.data[ni * split * plane..(ni + 1) * split * plane]
                .copy_from_slice(&self.data[src..src + split * plane]);
            b.data[ni * (c - split) * plane..(ni + 1) * (c - split) * plane]
                .copy_from_slice(&self.data[src + split * plane..src + c * plane]);
        }
        Ok((a, b))
    }

    /// ShuffleNet channel shuffle with `groups` groups.
    ///
    /// Reorders channels so that channel `g * (c/groups) + i` moves to
    /// position `i * groups + g`, mixing information between branch groups.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] if `groups` does not divide
    /// the channel count.
    pub fn channel_shuffle(&self, groups: usize) -> Result<Tensor, TensorError> {
        let c = self.shape.c;
        if groups == 0 || !c.is_multiple_of(groups) {
            return Err(TensorError::InvalidDimension {
                op: "channel_shuffle",
                detail: format!("groups {groups} does not divide channels {c}"),
            });
        }
        let per = c / groups;
        let (n, h, w) = (self.shape.n, self.shape.h, self.shape.w);
        let plane = h * w;
        let mut out = Tensor::zeros(self.shape);
        for ni in 0..n {
            for g in 0..groups {
                for i in 0..per {
                    let src = (ni * c + g * per + i) * plane;
                    let dst = (ni * c + i * groups + g) * plane;
                    // copy one H*W plane (src and dst tensors are distinct)
                    out.data[dst..dst + plane].copy_from_slice(&self.data[src..src + plane]);
                }
            }
        }
        Ok(out)
    }

    /// Inverse of [`Tensor::channel_shuffle`] with the same `groups`,
    /// used by the backward pass.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::channel_shuffle`].
    pub fn channel_unshuffle(&self, groups: usize) -> Result<Tensor, TensorError> {
        let c = self.shape.c;
        if groups == 0 || !c.is_multiple_of(groups) {
            return Err(TensorError::InvalidDimension {
                op: "channel_unshuffle",
                detail: format!("groups {groups} does not divide channels {c}"),
            });
        }
        // Shuffling with `c / groups` groups inverts shuffling with `groups`.
        self.channel_shuffle(c / groups)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_len() {
        assert!(Tensor::from_vec([1, 1, 1, 2], vec![1.0]).is_err());
        assert!(Tensor::from_vec([1, 1, 1, 2], vec![1.0, 2.0]).is_ok());
    }

    #[test]
    fn accessors_roundtrip() {
        let mut t = Tensor::zeros([2, 3, 4, 5]);
        *t.at_mut(1, 2, 3, 4) = 7.5;
        assert_eq!(t.at(1, 2, 3, 4), 7.5);
        assert_eq!(t.at(0, 0, 0, 0), 0.0);
    }

    #[test]
    fn add_and_axpy() {
        let a = Tensor::full([1, 2, 1, 1], 1.0);
        let b = Tensor::full([1, 2, 1, 1], 2.0);
        let c = a.add(&b).unwrap();
        assert_eq!(c.data(), &[3.0, 3.0]);
        let mut d = a.clone();
        d.axpy(0.5, &b).unwrap();
        assert_eq!(d.data(), &[2.0, 2.0]);
        assert!(a.add(&Tensor::zeros([1, 3, 1, 1])).is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec([1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let r = t.reshape([1, 4, 1, 1]).unwrap();
        assert_eq!(r.data(), &[1.0, 2.0, 3.0, 4.0]);
        assert!(Tensor::zeros([1, 1, 2, 2]).reshape([1, 3, 1, 1]).is_err());
    }

    #[test]
    fn concat_then_split_roundtrip() {
        let mut rng = SmallRng::new(1);
        let a = Tensor::randn([2, 3, 4, 4], 1.0, &mut rng);
        let b = Tensor::randn([2, 5, 4, 4], 1.0, &mut rng);
        let cat = Tensor::concat_channels(&[&a, &b]).unwrap();
        assert_eq!(cat.shape(), Shape4::new(2, 8, 4, 4));
        let (a2, b2) = cat.split_channels(3).unwrap();
        assert_eq!(a2, a);
        assert_eq!(b2, b);
    }

    #[test]
    fn concat_rejects_mismatched_spatial() {
        let a = Tensor::zeros([1, 2, 4, 4]);
        let b = Tensor::zeros([1, 2, 5, 4]);
        assert!(Tensor::concat_channels(&[&a, &b]).is_err());
        assert!(Tensor::concat_channels(&[]).is_err());
    }

    #[test]
    fn split_bounds() {
        let t = Tensor::zeros([1, 4, 2, 2]);
        assert!(t.split_channels(0).is_err());
        assert!(t.split_channels(4).is_err());
        assert!(t.split_channels(2).is_ok());
    }

    #[test]
    fn channel_shuffle_permutes_planes() {
        // 4 channels, 2 groups: [0, 1, 2, 3] -> [0, 2, 1, 3]
        let mut t = Tensor::zeros([1, 4, 1, 1]);
        for c in 0..4 {
            *t.at_mut(0, c, 0, 0) = c as f32;
        }
        let s = t.channel_shuffle(2).unwrap();
        let got: Vec<f32> = (0..4).map(|c| s.at(0, c, 0, 0)).collect();
        assert_eq!(got, vec![0.0, 2.0, 1.0, 3.0]);
    }

    #[test]
    fn channel_shuffle_roundtrip() {
        let mut rng = SmallRng::new(2);
        let t = Tensor::randn([2, 12, 3, 3], 1.0, &mut rng);
        for groups in [2, 3, 4, 6] {
            let s = t.channel_shuffle(groups).unwrap();
            let u = s.channel_unshuffle(groups).unwrap();
            assert_eq!(u, t, "groups={groups}");
        }
    }

    #[test]
    fn channel_shuffle_rejects_bad_groups() {
        let t = Tensor::zeros([1, 4, 1, 1]);
        assert!(t.channel_shuffle(3).is_err());
        assert!(t.channel_shuffle(0).is_err());
    }

    #[test]
    fn kaiming_std_scales_with_fan_in() {
        let mut rng = SmallRng::new(3);
        let t = Tensor::kaiming([64, 64, 3, 3], 64 * 9, &mut rng);
        let n = t.len() as f32;
        let mean = t.sum() / n;
        let var = t.data().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / n;
        let expected = 2.0 / (64.0 * 9.0);
        assert!(
            (var / expected - 1.0).abs() < 0.1,
            "var {var} vs {expected}"
        );
    }

    #[test]
    fn pack_tags_track_identity_and_mutation() {
        let mut t = Tensor::zeros([1, 2, 2, 2]);
        let u = Tensor::zeros([1, 2, 2, 2]);
        assert_ne!(t.pack_tag().id, u.pack_tag().id, "ids are unique");
        assert_eq!(t, u, "identity is not part of value equality");

        let v0 = t.pack_tag().version;
        let _ = t.data_mut();
        assert!(t.pack_tag().version > v0, "data_mut bumps the version");
        *t.at_mut(0, 0, 0, 0) = 1.0;
        t.map_inplace(|x| x);
        t.axpy(1.0, &u).unwrap();
        assert!(t.pack_tag().version >= v0 + 4, "every mutator bumps");

        let c = t.clone();
        assert_ne!(c.pack_tag().id, t.pack_tag().id, "clone gets its own id");
        assert_eq!(t.pack_tag_at(8).offset, 8);
        // Read-only accessors leave the version alone.
        let v = t.pack_tag().version;
        let _ = (t.data(), t.at(0, 0, 0, 0), t.sum(), t.norm());
        assert_eq!(t.pack_tag().version, v);
    }

    #[test]
    fn norm_matches_manual() {
        let t = Tensor::from_vec([1, 1, 1, 2], vec![3.0, 4.0]).unwrap();
        assert!((t.norm() - 5.0).abs() < 1e-6);
    }
}
