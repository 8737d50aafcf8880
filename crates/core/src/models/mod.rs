//! The analytics engine's per-stream models: the frame CNN, the IMU
//! bidirectional LSTM, and the IMU SVM baseline.

mod cnn;
mod rnn;
mod svm;

pub use cnn::{CnnConfig, FrameCnn};
pub use rnn::{ImuRnn, RnnConfig};
pub use svm::ImuSvm;
