//! The analytics engine's per-stream models: the frame CNN, the IMU
//! bidirectional LSTM, and the IMU SVM baseline.
#![expect(
    clippy::disallowed_methods,
    reason = "randomness owner: training-time randomness of the classifiers"
)]

mod cnn;
mod rnn;
mod svm;

pub use cnn::{CnnConfig, FrameCnn};
pub use rnn::{ImuRnn, RnnConfig};
pub use svm::ImuSvm;
