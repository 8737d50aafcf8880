//! # darnet-nn
//!
//! A from-scratch, CPU-only neural-network library built on
//! [`darnet_tensor`], providing every model family the DarNet paper uses:
//!
//! * **Convolutional networks** — [`Conv2d`], [`MaxPool2d`], [`AvgPool2d`],
//!   [`Relu`], [`Dropout`], [`Flatten`], [`Dense`], and an
//!   [`InceptionBlock`] composite (four parallel 1×1 / 3×3 / 5×5 / pool
//!   branches, each a [`Sequential`], concatenated over channels, after
//!   Szegedy et al.'s Inception design that DarNet's frame classifier
//!   builds on).
//! * **Recurrent networks** — an [`LstmCell`] with full backpropagation
//!   through time, a [`BiLstm`] bidirectional layer, [`MeanOverTime`]
//!   pooling, and [`bilstm_classifier`], the paper's IMU architecture
//!   (2 stacked bidirectional LSTM layers, 64 hidden units, softmax head).
//! * **A linear SVM** baseline ([`LinearSvm`]) trained with hinge loss, the
//!   comparison model in the paper's Table 2.
//! * **Losses** — softmax cross-entropy and the L2 distillation loss used by
//!   the privacy-preserving dCNN training.
//! * **Optimizers** — SGD with momentum and weight decay, and Adam.
//!
//! Every network is a [`Sequential`] of [`Layer`]s: layers compose one way.
//! Everything is deterministic given a seed, and every layer's backward pass
//! is verified against finite differences in the test suite.
//!
//! ## Example
//!
//! ```
//! use darnet_nn::{Dense, Layer, Mode, Relu, Sequential, softmax_cross_entropy, Sgd, Optimizer};
//! use darnet_tensor::{SplitMix64, Tensor};
//!
//! let mut rng = SplitMix64::new(7);
//! let mut net = Sequential::new();
//! net.push(Dense::new(4, 8, &mut rng));
//! net.push(Relu::new());
//! net.push(Dense::new(8, 3, &mut rng));
//!
//! let x = Tensor::zeros(&[2, 4]);
//! let logits = net.forward(&x, Mode::Train)?;
//! let (loss, grad) = softmax_cross_entropy(&logits, &[0, 2])?;
//! net.backward(&grad)?;
//! Sgd::new(0.1).step(&mut net.params_mut())?;
//! assert!(loss > 0.0);
//! # Ok::<(), darnet_nn::NnError>(())
//! ```

mod conv;
mod dense;
mod dropout;
mod error;
mod inception;
mod layer;
mod loss;
mod lstm;
mod optim;
mod param;
mod pool;
mod sequential;
mod svm;

pub use conv::Conv2d;
pub use dense::Dense;
pub use dropout::Dropout;
pub use error::NnError;
pub use inception::{InceptionBlock, InceptionChannels};
pub use layer::{Flatten, Layer, Mode, Relu};
pub use loss::{
    l2_distill_loss, soft_target_loss, soft_targets, softmax, softmax_cross_entropy,
    softmax_inplace,
};
pub use lstm::{bilstm_classifier, BiLstm, LstmCell};
pub use optim::{Adam, Optimizer, Sgd};
pub use param::Param;
pub use pool::{AvgPool2d, MaxPool2d, MeanOverTime};
pub use sequential::Sequential;
pub use svm::LinearSvm;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NnError>;
