//! Ensemble learning: combining the per-stream models' class posteriors
//! (the CNN's 6-class output and the IMU model's 3-class output, in the
//! paper) into a single inference (§4.2 "Ensemble Learning").

mod nary;

pub use nary::NaryBayesianCombiner;

/// The combiner strategies implemented for the ablation study (DESIGN.md
/// §6.1). The paper's contribution is the Bayesian-network combiner; the
/// product rule and IMU-gated voting are natural simpler baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CombinerKind {
    /// Per-class Bayesian network with CPTs from training counts (the
    /// paper's approach).
    Bayesian,
    /// Independence product: `P(c) ∝ cnn[c] · imu[imu_class(c)]`
    /// ([`crate::registry::product_combine_subset_into`]).
    Product,
    /// CNN only (no fusion) — the paper's single-modality baseline.
    CnnOnly,
}
