//! # DarNet
//!
//! A full Rust reproduction of *"DarNet: A Deep Learning Solution for
//! Distracted Driving Detection"* (Streiffer et al., Middleware Industry
//! '17): a multimodal data-collection middleware plus a deep-learning
//! analytics engine that fuses dashcam frames (CNN) and phone IMU
//! sequences (bidirectional LSTM) through a Bayesian-network ensemble,
//! with a privacy-preserving down-sampled path (dCNN distillation).
//!
//! This facade crate re-exports the workspace:
//!
//! * [`tensor`] — the numerical substrate ([`darnet_tensor`]),
//! * [`nn`] — from-scratch CNN/LSTM/SVM layers and optimizers
//!   ([`darnet_nn`]),
//! * [`sim`] — the synthetic driving world standing in for the paper's
//!   private datasets ([`darnet_sim`]),
//! * [`collect`] — collection agents, centralized controller, clock sync,
//!   alignment, TSDB ([`darnet_collect`]),
//! * [`core`] — models, ensemble, privacy, evaluation, experiment drivers
//!   ([`darnet_core`]).
//!
//! ## Quickstart
//!
//! ```
//! use darnet::sim::{CanonicalBehavior, DrivingWorld, WorldConfig};
//!
//! let world = DrivingWorld::new(WorldConfig::default());
//! let frame = world.render_canonical_frame(0, CanonicalBehavior::Texting, 1.0);
//! assert_eq!(frame.width(), 48);
//! ```
//!
//! See `examples/` for end-to-end scenarios and `crates/bench/src/bin/`
//! for the binaries that regenerate every table and figure of the paper.

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![warn(rust_2018_idioms)]

pub use darnet_collect as collect;
pub use darnet_core as core;
pub use darnet_nn as nn;
pub use darnet_sim as sim;
pub use darnet_tensor as tensor;
