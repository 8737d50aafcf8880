//! Shape and index arithmetic for row-major tensors.

/// An owned tensor shape with row-major stride computation.
///
/// A `Shape` is a thin wrapper over `Vec<usize>` that centralizes element
/// counting and flat-index arithmetic so that kernels never re-derive stride
/// math ad hoc.
///
/// ```
/// use darnet_tensor::Shape;
///
/// let s = Shape::new(&[2, 3, 4]);
/// assert_eq!(s.len(), 24);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// assert_eq!(s.flat_index(&[1, 2, 3]), Some(23));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from a slice of dimension sizes.
    pub fn new(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }

    /// Total number of elements (product of dimensions; 1 for a scalar/rank-0
    /// shape).
    pub fn len(&self) -> usize {
        self.0.iter().product()
    }

    /// Whether the shape contains zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// The dimension sizes as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Consumes the shape, returning the backing dimension vector (used by
    /// the workspace pool to recycle the allocation).
    pub(crate) fn into_dims(self) -> Vec<usize> {
        self.0
    }

    /// Row-major strides (in elements) for each dimension.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.0.len()];
        for i in (0..self.0.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Converts a multi-dimensional index to a flat row-major offset.
    ///
    /// Returns `None` if the index rank does not match or any coordinate is
    /// out of bounds.
    pub fn flat_index(&self, index: &[usize]) -> Option<usize> {
        if index.len() != self.0.len() {
            return None;
        }
        let mut flat = 0usize;
        let strides = self.strides();
        for ((&i, &d), &s) in index.iter().zip(&self.0).zip(&strides) {
            if i >= d {
                return None;
            }
            flat += i * s;
        }
        Some(flat)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl AsRef<[usize]> for Shape {
    fn as_ref(&self) -> &[usize] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_shape_has_one_element() {
        let s = Shape::new(&[]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.rank(), 0);
    }

    #[test]
    fn strides_are_row_major() {
        let s = Shape::new(&[4, 3, 2]);
        assert_eq!(s.strides(), vec![6, 2, 1]);
    }

    #[test]
    fn flat_index_counts_in_row_major_order() {
        let s = Shape::new(&[3, 4, 5]);
        let mut flat = 0;
        for i in 0..3 {
            for j in 0..4 {
                for k in 0..5 {
                    assert_eq!(s.flat_index(&[i, j, k]), Some(flat));
                    flat += 1;
                }
            }
        }
    }

    #[test]
    fn out_of_bounds_index_rejected() {
        let s = Shape::new(&[2, 2]);
        assert_eq!(s.flat_index(&[2, 0]), None);
        assert_eq!(s.flat_index(&[0]), None);
    }

    #[test]
    fn zero_size_dimension_is_empty() {
        let s = Shape::new(&[3, 0, 2]);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }
}
