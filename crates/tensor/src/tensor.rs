//! The core [`Tensor`] type: an owned, row-major, `f32` n-d array.

use crate::error::TensorError;
use crate::shape::Shape;
use crate::Result;

/// An owned, row-major `f32` tensor.
///
/// `Tensor` is the single numeric container used throughout the DarNet
/// reproduction: images are `[batch, channels, height, width]`, IMU windows
/// are `[batch, time, features]`, and weight matrices are `[rows, cols]`.
///
/// All operations are implemented in safe Rust over a flat `Vec<f32>` and
/// validate their arguments ([`TensorError`] on misuse).
///
/// ```
/// use darnet_tensor::Tensor;
///
/// let x = Tensor::from_vec(vec![1.0, -2.0, 3.0, -4.0], &[2, 2])?;
/// let relu = x.map(|v| v.max(0.0));
/// assert_eq!(relu.data(), &[1.0, 0.0, 3.0, 0.0]);
/// # Ok::<(), darnet_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let len = shape.len();
        Tensor {
            shape,
            data: vec![0.0; len],
        }
    }

    /// Creates a tensor of ones with the given shape.
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let len = shape.len();
        Tensor {
            shape,
            data: vec![value; len],
        }
    }

    /// Creates a tensor from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if `data.len()` does not
    /// equal the product of `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if shape.len() != data.len() {
            return Err(TensorError::ShapeDataMismatch {
                expected: shape.len(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a rank-1 tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor {
            shape: Shape::new(&[data.len()]),
            data: data.to_vec(),
        }
    }

    /// Crate-internal constructor pairing a pre-validated shape with a
    /// pooled buffer (the [`crate::Workspace`] checkout path). Callers
    /// must guarantee `shape.len() == data.len()`.
    pub(crate) fn from_pooled(shape: Shape, data: Vec<f32>) -> Self {
        debug_assert_eq!(shape.len(), data.len());
        Tensor { shape, data }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimension sizes as a slice.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the flat row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor into its shape and data (so the workspace pool
    /// can recycle both allocations).
    pub(crate) fn into_parts(self) -> (Shape, Vec<f32>) {
        (self.shape, self.data)
    }

    /// Element at a multi-dimensional index, or `None` if out of bounds.
    pub fn get(&self, index: &[usize]) -> Option<f32> {
        self.shape.flat_index(index).map(|i| self.data[i])
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if the index is out of
    /// bounds or has the wrong rank.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        match self.shape.flat_index(index) {
            Some(i) => {
                self.data[i] = value;
                Ok(())
            }
            None => Err(TensorError::InvalidArgument(format!(
                "index {index:?} out of bounds for shape {:?}",
                self.dims()
            ))),
        }
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ReshapeMismatch`] if the element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor> {
        let new_shape = Shape::new(dims);
        if new_shape.len() != self.len() {
            return Err(TensorError::ReshapeMismatch {
                from: self.len(),
                to: new_shape.len(),
            });
        }
        Ok(Tensor {
            shape: new_shape,
            data: self.data.clone(),
        })
    }

    /// Extracts row `i` of a rank-2 tensor as a rank-1 tensor.
    ///
    /// # Errors
    ///
    /// Returns an error if the tensor is not rank 2 or `i` is out of range.
    pub fn row(&self, i: usize) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
            });
        }
        let (r, c) = (self.dims()[0], self.dims()[1]);
        if i >= r {
            return Err(TensorError::InvalidArgument(format!(
                "row {i} out of range for {r} rows"
            )));
        }
        Ok(Tensor {
            shape: Shape::new(&[c]),
            data: self.data[i * c..(i + 1) * c].to_vec(),
        })
    }

    /// Splits a tensor into pieces along `axis` with the given sizes
    /// (inverse of [`Tensor::concat_into`]).
    ///
    /// # Errors
    ///
    /// Returns an error if the sizes do not sum to the axis length.
    pub fn split(&self, axis: usize, sizes: &[usize]) -> Result<Vec<Tensor>> {
        let rank = self.rank();
        if axis >= rank {
            return Err(TensorError::AxisOutOfRange { axis, rank });
        }
        let total: usize = sizes.iter().sum();
        if total != self.dims()[axis] {
            return Err(TensorError::InvalidArgument(format!(
                "split sizes sum to {total}, axis has {}",
                self.dims()[axis]
            )));
        }
        let outer: usize = self.dims()[..axis].iter().product();
        let inner: usize = self.dims()[axis + 1..].iter().product();
        let axis_len = self.dims()[axis];
        let mut out = Vec::with_capacity(sizes.len());
        let mut offset = 0usize;
        for &sz in sizes {
            let mut dims = self.dims().to_vec();
            dims[axis] = sz;
            let mut data = Vec::with_capacity(outer * sz * inner);
            for o in 0..outer {
                let start = (o * axis_len + offset) * inner;
                data.extend_from_slice(&self.data[start..start + sz * inner]);
            }
            out.push(Tensor::from_vec(data, &dims)?);
            offset += sz;
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Elementwise maps
    // ------------------------------------------------------------------

    /// Applies `f` to every element, returning a new tensor.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace<F: Fn(f32) -> f32>(&mut self, f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Combines two same-shaped tensors elementwise with `f`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn zip<F: Fn(f32, f32) -> f32>(&self, other: &Tensor, f: F) -> Result<Tensor> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.dims().to_vec(),
                right: other.dims().to_vec(),
            });
        }
        Ok(Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Elementwise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.zip(other, |a, b| a * b)
    }

    /// In-place `self += other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::shape_mismatch(self.dims(), other.dims()));
        }
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
        Ok(())
    }

    /// In-place `self += alpha * other` (axpy).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.dims().to_vec(),
                right: other.dims().to_vec(),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Multiplies every element by `s`, returning a new tensor.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    // ------------------------------------------------------------------
    // Buffer-reusing (`_into`) variants — the zero-alloc inference path
    // ------------------------------------------------------------------

    /// Validates that `out` has exactly this tensor's shape.
    fn check_same_shape(&self, out: &Tensor) -> Result<()> {
        if self.shape != out.shape {
            return Err(TensorError::shape_mismatch(self.dims(), out.dims()));
        }
        Ok(())
    }

    /// Copies this tensor's elements into a same-shaped `out` buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn copy_into(&self, out: &mut Tensor) -> Result<()> {
        self.check_same_shape(out)?;
        out.data.copy_from_slice(&self.data);
        Ok(())
    }

    /// [`Tensor::map`] writing into a caller-provided same-shaped buffer;
    /// bitwise identical to the allocating variant.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn map_into<F: Fn(f32) -> f32>(&self, f: F, out: &mut Tensor) -> Result<()> {
        self.check_same_shape(out)?;
        for (o, &v) in out.data.iter_mut().zip(&self.data) {
            *o = f(v);
        }
        Ok(())
    }

    /// Adds a rank-1 bias to each row of this rank-2 tensor in place.
    ///
    /// # Errors
    ///
    /// Returns an error on rank/shape mismatch.
    pub fn add_row_broadcast_assign(&mut self, bias: &Tensor) -> Result<()> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
            });
        }
        let (r, c) = (self.dims()[0], self.dims()[1]);
        if bias.rank() != 1 || bias.len() != c {
            return Err(TensorError::shape_mismatch(self.dims(), bias.dims()));
        }
        for i in 0..r {
            for j in 0..c {
                self.data[i * c + j] += bias.data[j];
            }
        }
        Ok(())
    }

    /// Concatenates along `axis` into a caller-provided buffer of the
    /// concatenated shape (every element is overwritten). All other
    /// dimensions must agree.
    ///
    /// # Errors
    ///
    /// Returns an error if the tensor list is empty, ranks differ, the axis
    /// is out of range, or non-axis dimensions disagree, and
    /// [`TensorError::ShapeMismatch`] if `out` does not have the
    /// concatenated shape.
    pub fn concat_into(tensors: &[&Tensor], axis: usize, out: &mut Tensor) -> Result<()> {
        let (axis_total, outer, inner) = Tensor::concat_strides(tensors, axis)?;
        let first = tensors[0];
        let shape_ok = out.rank() == first.rank()
            && out
                .dims()
                .iter()
                .zip(first.dims())
                .enumerate()
                .all(|(d, (&o, &f))| if d == axis { o == axis_total } else { o == f });
        if !shape_ok {
            let mut mismatch = TensorError::shape_mismatch(out.dims(), first.dims());
            if let TensorError::ShapeMismatch { right: want, .. } = &mut mismatch {
                want[axis] = axis_total;
            }
            return Err(mismatch);
        }
        let mut offset = 0usize;
        for o in 0..outer {
            for t in tensors {
                let a = t.dims()[axis];
                let start = o * a * inner;
                let len = a * inner;
                out.data[offset..offset + len].copy_from_slice(&t.data[start..start + len]);
                offset += len;
            }
        }
        Ok(())
    }

    /// Validates a concat argument list without allocating: returns the
    /// total length along `axis` plus the outer/inner strides (outer =
    /// product of dims before `axis`, inner = product after).
    fn concat_strides(tensors: &[&Tensor], axis: usize) -> Result<(usize, usize, usize)> {
        let first = tensors
            .first()
            .ok_or_else(|| TensorError::InvalidArgument("concat of zero tensors".into()))?;
        let rank = first.rank();
        if axis >= rank {
            return Err(TensorError::AxisOutOfRange { axis, rank });
        }
        let mut axis_total = 0usize;
        for t in tensors {
            if t.rank() != rank {
                return Err(TensorError::RankMismatch {
                    expected: rank,
                    actual: t.rank(),
                });
            }
            for (d, (&a, &b)) in first.dims().iter().zip(t.dims()).enumerate() {
                if d != axis && a != b {
                    return Err(TensorError::shape_mismatch(first.dims(), t.dims()));
                }
            }
            axis_total += t.dims()[axis];
        }
        let outer: usize = first.dims()[..axis].iter().product();
        let inner: usize = first.dims()[axis + 1..].iter().product();
        Ok((axis_total, outer, inner))
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (`f32::NEG_INFINITY` for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (`f32::INFINITY` for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Sum of squares of all elements.
    pub fn sum_squares(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// L2 (Euclidean) norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        self.sum_squares().sqrt()
    }

    /// Sums a rank-2 tensor over axis 0, producing a rank-1 tensor of column
    /// sums.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if the tensor is not rank 2.
    pub fn sum_axis0(&self) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
            });
        }
        let (r, c) = (self.dims()[0], self.dims()[1]);
        let mut out = Tensor::zeros(&[c]);
        for i in 0..r {
            for j in 0..c {
                out.data[j] += self.data[i * c + j];
            }
        }
        Ok(out)
    }

    /// Per-row [`argmax`] of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if the tensor is not rank 2.
    pub fn argmax_rows(&self) -> Result<Vec<usize>> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
            });
        }
        let (r, c) = (self.dims()[0], self.dims()[1]);
        Ok((0..r)
            .map(|i| argmax(&self.data[i * c..(i + 1) * c]))
            .collect())
    }

    /// Whether all elements are finite (no NaN/inf). Useful as a training
    /// sanity check.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

/// The index of the first maximum of `row` (0 for an empty row): the one
/// rule that turns a score row into a label. Every comparison with a NaN
/// is false, so a row holding one still gets a label; a caller that must
/// not label a NaN refuses it first.
pub fn argmax(row: &[f32]) -> usize {
    let mut best = 0;
    for (j, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = j;
        }
    }
    best
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(&[0])
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{:?}", self.dims())?;
        if self.len() <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elementwise_into_variants_match_allocating() {
        let a = Tensor::from_vec(vec![1.0, -2.0, 3.5, 0.25], &[2, 2]).unwrap();
        let mut out = Tensor::full(&[2, 2], 9.0); // stale contents

        a.copy_into(&mut out).unwrap();
        assert_eq!(out, a);

        a.map_into(|v| v * v + 1.0, &mut out).unwrap();
        assert_eq!(out, a.map(|v| v * v + 1.0));

        let mut shape_err = Tensor::zeros(&[4]);
        assert!(a.copy_into(&mut shape_err).is_err());
        assert!(a.map_into(|v| v, &mut shape_err).is_err());
    }

    #[test]
    fn add_row_broadcast_assign_adds_the_bias_to_every_row() {
        let x = Tensor::from_vec((0..12).map(|v| v as f32 * 0.5).collect(), &[3, 4]).unwrap();
        let bias = Tensor::from_vec(vec![1.0, -1.0, 0.25, 2.0], &[4]).unwrap();
        let expected = Tensor::from_vec(
            (0..12)
                .map(|v| v as f32 * 0.5 + bias.data()[v % 4])
                .collect(),
            &[3, 4],
        )
        .unwrap();
        let mut y = x.clone();
        y.add_row_broadcast_assign(&bias).unwrap();
        assert_eq!(y, expected);
        let wrong = Tensor::zeros(&[3]);
        assert!(y.add_row_broadcast_assign(&wrong).is_err());
    }

    #[test]
    fn concat_into_overwrites_every_element() {
        let a = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[2, 2, 3]).unwrap();
        let b = Tensor::from_vec((0..18).map(|v| -(v as f32)).collect(), &[2, 3, 3]).unwrap();
        // Per outer index: `a`'s 2 × 3 block, then `b`'s 3 × 3 block.
        let expected = Tensor::from_vec(
            (0..2)
                .flat_map(|o| a.data()[o * 6..][..6].iter().chain(&b.data()[o * 9..][..9]))
                .copied()
                .collect(),
            &[2, 5, 3],
        )
        .unwrap();
        let mut out = Tensor::full(expected.dims(), 55.0);
        Tensor::concat_into(&[&a, &b], 1, &mut out).unwrap();
        assert_eq!(out, expected);

        let mut bad = Tensor::zeros(&[2, 4, 3]);
        assert!(Tensor::concat_into(&[&a, &b], 1, &mut bad).is_err());
    }

    #[test]
    fn constructors_produce_expected_values() {
        assert_eq!(Tensor::zeros(&[2, 2]).data(), &[0.0; 4]);
        assert_eq!(Tensor::ones(&[3]).data(), &[1.0; 3]);
        assert_eq!(Tensor::full(&[2], 2.5).data(), &[2.5, 2.5]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 2]).is_err());
        assert!(Tensor::from_vec(vec![1.0; 4], &[2, 2]).is_ok());
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set(&[1, 2], 9.0).unwrap();
        assert_eq!(t.get(&[1, 2]), Some(9.0));
        assert_eq!(t.get(&[2, 0]), None);
        assert!(t.set(&[0, 3], 1.0).is_err());
    }

    #[test]
    fn sub_and_mul_follow_elementwise_semantics() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]).unwrap();
        assert_eq!(b.sub(&a).unwrap().data(), &[9.0, 18.0]);
        assert_eq!(a.mul(&b).unwrap().data(), &[10.0, 40.0]);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let a = Tensor::zeros(&[2, 2]);
        let b = Tensor::zeros(&[4]);
        assert!(a.sub(&b).is_err());
        assert!(a.clone().add_assign(&b).is_err());
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::ones(&[3]);
        let g = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        a.axpy(-0.5, &g).unwrap();
        assert_eq!(a.data(), &[0.5, 0.0, -0.5]);
    }

    #[test]
    fn reductions_match_hand_computation() {
        let t = Tensor::from_vec(vec![1.0, -2.0, 3.0, 0.5], &[2, 2]).unwrap();
        assert_eq!(t.sum(), 2.5);
        assert_eq!(t.mean(), 0.625);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -2.0);
        assert!((t.norm() - (1.0f32 + 4.0 + 9.0 + 0.25).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn sum_axis0_sums_columns() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        assert_eq!(t.sum_axis0().unwrap().data(), &[5.0, 7.0, 9.0]);
    }

    #[test]
    fn argmax_rows_returns_per_row_winner() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.0, 0.7, 0.2, 0.1], &[2, 3]).unwrap();
        assert_eq!(t.argmax_rows().unwrap(), vec![1, 0]);
    }

    /// A tie goes to its first class; an empty row labels 0.
    #[test]
    fn argmax_takes_the_first_maximum() {
        assert_eq!(argmax(&[0.25, 0.5, 0.0, 0.5]), 1);
        assert_eq!(argmax(&[0.2; 6]), 0);
        assert_eq!(argmax(&[]), 0);
    }

    #[test]
    fn row_broadcast_adds_bias() {
        let mut y = Tensor::zeros(&[2, 3]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        y.add_row_broadcast_assign(&b).unwrap();
        assert_eq!(y.data(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn concat_axis1_interleaves_rows() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![5.0, 6.0], &[2, 1]).unwrap();
        let mut c = Tensor::zeros(&[2, 3]);
        Tensor::concat_into(&[&a, &b], 1, &mut c).unwrap();
        assert_eq!(c.data(), &[1.0, 2.0, 5.0, 3.0, 4.0, 6.0]);
    }

    #[test]
    fn split_inverts_concat() {
        let a = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[2, 3, 2]).unwrap();
        let parts = a.split(1, &[1, 2]).unwrap();
        let mut back = Tensor::zeros(&[2, 3, 2]);
        Tensor::concat_into(&[&parts[0], &parts[1]], 1, &mut back).unwrap();
        assert_eq!(a, back);
    }

    #[test]
    fn concat_rejects_mismatched_non_axis_dims() {
        let a = Tensor::zeros(&[2, 2]);
        let b = Tensor::zeros(&[3, 1]);
        assert!(Tensor::concat_into(&[&a, &b], 1, &mut Tensor::zeros(&[2, 3])).is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let r = t.reshape(&[4]).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(&[3]).is_err());
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut t = Tensor::ones(&[2]);
        assert!(t.all_finite());
        t.data_mut()[0] = f32::NAN;
        assert!(!t.all_finite());
    }
}
