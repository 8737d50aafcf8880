//! Error type for the analytics engine.

use std::fmt;

use darnet_collect::{CollectError, StreamId};
use darnet_nn::NnError;
use darnet_tensor::TensorError;

/// Error returned by analytics-engine operations.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A tensor operation failed.
    Tensor(TensorError),
    /// A network/model operation failed.
    Nn(NnError),
    /// A collection-framework operation failed.
    Collect(CollectError),
    /// Dataset construction or indexing problem.
    Dataset(String),
    /// The engine was used before its models were trained/registered.
    NotReady(String),
    /// A stream's input held a NaN or infinite value (a poisoned sensor
    /// window or frame), or its model produced a non-finite class
    /// probability; no label was derived from it.
    NonFinitePosterior {
        /// The first stream, in registry order, whose posterior is not
        /// finite.
        stream: StreamId,
    },
    /// A worker thread panicked during a concurrent engine stage: a
    /// stream group on the engine's resident worker, whose panic is caught
    /// there (see DESIGN.md §10.1 and §11: hot paths convert a worker's
    /// panic into this error instead of re-panicking).
    WorkerPanicked {
        /// The concurrent stage whose worker died.
        stage: &'static str,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Tensor(e) => write!(f, "tensor error: {e}"),
            CoreError::Nn(e) => write!(f, "model error: {e}"),
            CoreError::Collect(e) => write!(f, "collection error: {e}"),
            CoreError::Dataset(msg) => write!(f, "dataset error: {msg}"),
            CoreError::NotReady(msg) => write!(f, "engine not ready: {msg}"),
            CoreError::NonFinitePosterior { stream } => {
                write!(f, "stream {stream} produced a non-finite posterior")
            }
            CoreError::WorkerPanicked { stage } => {
                write!(f, "a parallel worker thread panicked in stage {stage}")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Tensor(e) => Some(e),
            CoreError::Nn(e) => Some(e),
            CoreError::Collect(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for CoreError {
    fn from(e: TensorError) -> Self {
        CoreError::Tensor(e)
    }
}

impl From<NnError> for CoreError {
    fn from(e: NnError) -> Self {
        CoreError::Nn(e)
    }
}

impl From<CollectError> for CoreError {
    fn from(e: CollectError) -> Self {
        CoreError::Collect(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }

    #[test]
    fn conversions_work() {
        let e: CoreError = TensorError::InvalidArgument("x".into()).into();
        assert!(matches!(e, CoreError::Tensor(_)));
        let e: CoreError = NnError::InvalidConfig("y".into()).into();
        assert!(matches!(e, CoreError::Nn(_)));
        let e: CoreError = CollectError::NoData("z".into()).into();
        assert!(matches!(e, CoreError::Collect(_)));
    }
}
