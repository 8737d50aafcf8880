//! # darnet-core
//!
//! The DarNet *analytics engine* (paper §3.3, §4.2, §4.3): the models,
//! ensemble combiner, privacy machinery, and evaluation harness built on
//! the substrates in this workspace.
//!
//! * [`dataset`] — turns collection-campaign recordings
//!   ([`darnet_collect::runtime`]) into labeled multimodal datasets: frames
//!   for the CNN, 20-step 4 Hz IMU windows for the RNN/SVM, with an 80/20
//!   train/evaluation split as in the paper.
//! * [`FrameCnn`] — the frame classifier: a mini-Inception CNN
//!   (stem convolution + inception blocks + global average pooling), with
//!   the paper's transfer-learning recipe reproduced as proxy-task
//!   pre-training followed by head replacement and fine-tuning.
//! * [`ImuRnn`] — the IMU-sequence classifier: a deep bidirectional LSTM
//!   (2 × 64 hidden units over 20-step windows in the paper's
//!   configuration).
//! * [`ImuSvm`] — the SVM baseline for the IMU stream.
//! * [`NaryBayesianCombiner`] — the per-class Bayesian-network ensemble
//!   with CPTs estimated from training-set observations (§4.2 "Ensemble
//!   Learning") over any ordered list of parent streams, plus simpler
//!   combiners for ablation.
//! * [`privacy`] — nearest-neighbour down-sampling at the paper's three
//!   levels and the unsupervised L2-distillation training of the dCNN
//!   students (§4.3).
//! * [`eval`] — Top-1 accuracy and confusion matrices (the paper's Table 2
//!   / Figure 5 metrics).
//! * [`MultiModalEngine`] ([`registry`]) — the one modular per-stream
//!   engine, classifying at each time-step (§3.3: a 1-to-1 mapping between
//!   device data-streams and ML models, combined at a later stage):
//!   [`ModalityDescriptor`]s keyed by [`darnet_collect::StreamId`], the
//!   [`StreamModelSlot`] enum holding the per-stream models (and a camera
//!   stream's dCNN students), and fusion of any healthy subset of
//!   registered streams. The paper's camera + IMU pair is
//!   [`MultiModalEngine::darnet_pair`].
//! * [`MicroBatcher`] — the micro-batching front between the collect
//!   pipeline and the engine: aligned tuples queue and flush on
//!   batch-size-or-deadline, bounding latency while amortizing per-call
//!   model overhead.
//! * [`experiment`] — end-to-end experiment drivers regenerating every
//!   table and figure (used by the `darnet-bench` binaries).

pub mod alerts;
pub mod batching;
pub mod dataset;
pub mod ensemble;
mod error;
pub mod eval;
pub mod experiment;
pub mod health;
pub mod model_io;
pub mod models;
pub mod privacy;
pub mod registry;

pub use alerts::{AlertEvent, AlertPolicy, AlertTracker};
pub use batching::{MicroBatchConfig, MicroBatcher};
pub use ensemble::{CombinerKind, NaryBayesianCombiner};
pub use error::CoreError;
pub use eval::ConfusionMatrix;
pub use health::{FleetHealthSummary, HealthPolicy, ModalityStatus, SubsetSelection};
pub use model_io::{decode_tensors, encode_tensors};
pub use models::{CnnConfig, FrameCnn, ImuRnn, ImuSvm, RnnConfig};
pub use registry::{
    ClassMap, ModalityDescriptor, MultiModalEngine, MultiStepClassification, StreamInput,
    StreamModelSlot, SubsetCounters,
};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
