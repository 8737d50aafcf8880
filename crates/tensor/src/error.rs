//! Error type for tensor operations.

use std::fmt;

/// Error returned by fallible tensor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The number of elements implied by a shape does not match the data
    /// length supplied.
    ShapeDataMismatch {
        /// Number of elements the shape implies.
        expected: usize,
        /// Number of elements actually supplied.
        actual: usize,
    },
    /// Two tensors that must have identical shapes do not.
    ShapeMismatch {
        /// Shape of the left operand.
        left: Vec<usize>,
        /// Shape of the right operand.
        right: Vec<usize>,
    },
    /// The inner dimensions of a matrix product do not agree.
    MatmulDimMismatch {
        /// `[rows, cols]` of the left matrix.
        left: Vec<usize>,
        /// `[rows, cols]` of the right matrix.
        right: Vec<usize>,
    },
    /// An operation required a tensor of a particular rank.
    RankMismatch {
        /// Rank the operation requires.
        expected: usize,
        /// Rank of the tensor supplied.
        actual: usize,
    },
    /// An axis index was out of range for the tensor's rank.
    AxisOutOfRange {
        /// The offending axis.
        axis: usize,
        /// The tensor's rank.
        rank: usize,
    },
    /// A convolution/pooling geometry is impossible (e.g. kernel larger than
    /// padded input).
    InvalidGeometry(String),
    /// A reshape changed the total number of elements.
    ReshapeMismatch {
        /// Element count before the reshape.
        from: usize,
        /// Element count the new shape implies.
        to: usize,
    },
    /// Generic invalid-argument error.
    InvalidArgument(String),
}

impl TensorError {
    /// [`TensorError::ShapeMismatch`] of two shapes. Out of line so the
    /// zero-alloc kernels that validate shapes keep their two `Vec`s off
    /// the warm path.
    #[cold]
    pub(crate) fn shape_mismatch(left: &[usize], right: &[usize]) -> Self {
        TensorError::ShapeMismatch {
            left: left.to_vec(),
            right: right.to_vec(),
        }
    }

    /// [`TensorError::MatmulDimMismatch`] of two operand shapes; see
    /// [`TensorError::shape_mismatch`].
    #[cold]
    pub(crate) fn matmul_dim_mismatch(left: &[usize], right: &[usize]) -> Self {
        TensorError::MatmulDimMismatch {
            left: left.to_vec(),
            right: right.to_vec(),
        }
    }
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeDataMismatch { expected, actual } => write!(
                f,
                "shape implies {expected} elements but {actual} were supplied"
            ),
            TensorError::ShapeMismatch { left, right } => {
                write!(f, "shape mismatch: {left:?} vs {right:?}")
            }
            TensorError::MatmulDimMismatch { left, right } => {
                write!(f, "matmul dimension mismatch: {left:?} x {right:?}")
            }
            TensorError::RankMismatch { expected, actual } => {
                write!(f, "expected rank {expected} tensor, got rank {actual}")
            }
            TensorError::AxisOutOfRange { axis, rank } => {
                write!(f, "axis {axis} out of range for rank {rank}")
            }
            TensorError::InvalidGeometry(msg) => write!(f, "invalid geometry: {msg}"),
            TensorError::ReshapeMismatch { from, to } => {
                write!(f, "reshape changes element count from {from} to {to}")
            }
            TensorError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let err = TensorError::ShapeMismatch {
            left: vec![2, 3],
            right: vec![3, 2],
        };
        let msg = err.to_string();
        assert!(msg.starts_with("shape mismatch"));
        assert!(!msg.ends_with('.'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }
}
