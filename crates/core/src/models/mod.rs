//! The analytics engine's per-stream models: the frame CNN, the IMU
//! bidirectional LSTM, and the IMU SVM baseline; and the one training
//! loop the two networks and the dCNN students share.

mod cnn;
mod rnn;
mod svm;
pub(crate) mod train;

pub use cnn::{CnnConfig, FrameCnn};
pub use rnn::{ImuRnn, RnnConfig};
pub use svm::ImuSvm;
