//! Error type for neural-network operations.

use std::fmt;

use darnet_tensor::TensorError;

/// Error returned by fallible network operations.
#[derive(Debug, Clone, PartialEq)]
pub enum NnError {
    /// An underlying tensor operation failed.
    Tensor(TensorError),
    /// `backward` was called without a preceding `forward` (no cached
    /// activations).
    NoForwardCache {
        /// The layer that was asked to run backward.
        layer: &'static str,
    },
    /// Labels supplied to a loss did not match the batch dimension.
    LabelBatchMismatch {
        /// Batch size from the logits.
        batch: usize,
        /// Number of labels supplied.
        labels: usize,
    },
    /// A label index exceeded the number of classes.
    LabelOutOfRange {
        /// The offending label.
        label: usize,
        /// Number of classes in the logits.
        classes: usize,
    },
    /// Generic configuration error (bad hyperparameters, empty model, ...).
    InvalidConfig(String),
    /// Training diverged (NaN/inf appeared in loss or parameters).
    Diverged(String),
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::Tensor(e) => write!(f, "tensor error: {e}"),
            NnError::NoForwardCache { layer } => {
                write!(f, "backward called before forward on layer {layer}")
            }
            NnError::LabelBatchMismatch { batch, labels } => {
                write!(f, "batch of {batch} rows given {labels} labels")
            }
            NnError::LabelOutOfRange { label, classes } => {
                write!(f, "label {label} out of range for {classes} classes")
            }
            NnError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            NnError::Diverged(msg) => write!(f, "training diverged: {msg}"),
        }
    }
}

impl std::error::Error for NnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NnError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for NnError {
    fn from(e: TensorError) -> Self {
        NnError::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NnError>();
    }

    #[test]
    fn tensor_error_converts() {
        let te = TensorError::InvalidArgument("x".into());
        let ne: NnError = te.clone().into();
        assert_eq!(ne, NnError::Tensor(te));
    }

    #[test]
    fn source_chains_to_tensor_error() {
        use std::error::Error;
        let ne = NnError::Tensor(TensorError::InvalidArgument("y".into()));
        assert!(ne.source().is_some());
        assert!(NnError::InvalidConfig("z".into()).source().is_none());
    }
}
