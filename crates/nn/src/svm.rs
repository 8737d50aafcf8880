//! Linear one-vs-rest SVM — the IMU baseline model in the paper's Table 2.

use darnet_tensor::{matmul_transpose_b_slices_into, SplitMix64, Tensor};

use crate::error::NnError;
use crate::loss::softmax_inplace;
use crate::Result;

/// Learning rate for hinge-loss SGD (decayed per epoch).
const LR: f32 = 0.05;
/// L2 regularization strength.
const LAMBDA: f32 = 1e-4;
/// Number of passes over the training set.
const EPOCHS: usize = 30;
/// Hinge margin (the standard SVM's 1.0).
const MARGIN: f32 = 1.0;

/// A multi-class linear SVM trained one-vs-rest with hinge loss and L2
/// regularization via SGD.
///
/// For the ensemble combiner the raw margins are converted to a pseudo
/// probability distribution with a softmax over scores (a cheap stand-in
/// for Platt scaling that preserves score ordering).
#[derive(Debug, Clone)]
pub struct LinearSvm {
    weights: Tensor, // [classes, features]
    bias: Tensor,    // [classes]
    features: usize,
    classes: usize,
}

impl LinearSvm {
    /// Creates an untrained SVM with zero weights.
    pub fn new(features: usize, classes: usize) -> Self {
        LinearSvm {
            weights: Tensor::zeros(&[classes, features]),
            bias: Tensor::zeros(&[classes]),
            features,
            classes,
        }
    }

    /// Number of input features.
    pub fn features(&self) -> usize {
        self.features
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Trains on `[n, features]` data with integer labels using one-vs-rest
    /// hinge loss: 30 shuffled epochs of SGD at learning rate 0.05
    /// (decayed per epoch) with L2 strength 1e-4 and margin 1.
    ///
    /// # Errors
    ///
    /// Returns an error on shape/label problems.
    #[expect(
        clippy::disallowed_methods,
        reason = "randomness owner: training epoch shuffles"
    )]
    pub fn fit(&mut self, x: &Tensor, labels: &[usize], rng: &mut SplitMix64) -> Result<()> {
        if x.rank() != 2 || x.dims()[1] != self.features {
            return Err(NnError::InvalidConfig(format!(
                "svm expects [n, {}], got {:?}",
                self.features,
                x.dims()
            )));
        }
        let n = x.dims()[0];
        if labels.len() != n {
            return Err(NnError::LabelBatchMismatch {
                batch: n,
                labels: labels.len(),
            });
        }
        for &l in labels {
            if l >= self.classes {
                return Err(NnError::LabelOutOfRange {
                    label: l,
                    classes: self.classes,
                });
            }
        }
        let f = self.features;
        let mut order: Vec<usize> = (0..n).collect();
        for epoch in 0..EPOCHS {
            rng.shuffle(&mut order);
            // Learning-rate decay keeps late epochs from oscillating.
            let lr = LR / (1.0 + 0.1 * epoch as f32);
            for &idx in &order {
                let xi = &x.data()[idx * f..(idx + 1) * f];
                let yi = labels[idx];
                for c in 0..self.classes {
                    let target: f32 = if c == yi { 1.0 } else { -1.0 };
                    let w = &self.weights.data()[c * f..(c + 1) * f];
                    let score: f32 = w.iter().zip(xi).map(|(&wv, &xv)| wv * xv).sum::<f32>()
                        + self.bias.data()[c];
                    // L2 shrinkage on every step.
                    let shrink = 1.0 - lr * LAMBDA;
                    for wv in &mut self.weights.data_mut()[c * f..(c + 1) * f] {
                        *wv *= shrink;
                    }
                    if target * score < MARGIN {
                        // Hinge sub-gradient step.
                        for (wv, &xv) in self.weights.data_mut()[c * f..(c + 1) * f]
                            .iter_mut()
                            .zip(xi)
                        {
                            *wv += lr * target * xv;
                        }
                        self.bias.data_mut()[c] += lr * target;
                    }
                }
            }
        }
        Ok(())
    }

    /// Raw margin scores into a caller-provided `[n, classes]` buffer.
    fn margins_into(&self, x: &Tensor, out: &mut Tensor) -> Result<()> {
        if x.rank() != 2 || x.dims()[1] != self.features {
            return Err(NnError::InvalidConfig(format!(
                "svm expects [n, {}], got {:?}",
                self.features,
                x.dims()
            )));
        }
        let n = x.dims()[0];
        matmul_transpose_b_slices_into(
            x.data(),
            self.weights.data(),
            (n, self.features, self.classes),
            None,
            out.data_mut(),
        )?;
        Ok(out.add_row_broadcast_assign(&self.bias)?)
    }

    /// Pseudo-probabilities from a softmax over margins — the form the
    /// Bayesian-network combiner consumes — into a caller-provided
    /// `[n, classes]` buffer (typically a workspace checkout; every
    /// element is overwritten).
    ///
    /// # Errors
    ///
    /// Returns an error on feature-width mismatch or if `out` is not
    /// `[n, classes]`.
    pub fn predict_proba_into(&self, x: &Tensor, out: &mut Tensor) -> Result<()> {
        self.margins_into(x, out)?;
        softmax_inplace(out)
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests seed their inputs from a SplitMix64"
)]
mod tests {
    use super::*;

    fn blobs(n_per_class: usize, seed: u64) -> (Tensor, Vec<usize>) {
        // Three well-separated Gaussian blobs in 2-D.
        let centers = [(0.0f32, 0.0f32), (4.0, 4.0), (-4.0, 4.0)];
        let mut rng = SplitMix64::new(seed);
        let n = n_per_class * centers.len();
        let mut x = Tensor::zeros(&[n, 2]);
        let mut labels = Vec::with_capacity(n);
        for (c, &(cx, cy)) in centers.iter().enumerate() {
            for i in 0..n_per_class {
                let idx = c * n_per_class + i;
                x.data_mut()[idx * 2] = cx + rng.normal() * 0.5;
                x.data_mut()[idx * 2 + 1] = cy + rng.normal() * 0.5;
                labels.push(c);
            }
        }
        (x, labels)
    }

    #[test]
    fn svm_separates_gaussian_blobs() {
        let (x, labels) = blobs(50, 1);
        let mut svm = LinearSvm::new(2, 3);
        let mut rng = SplitMix64::new(2);
        svm.fit(&x, &labels, &mut rng).unwrap();
        let mut p = Tensor::zeros(&[x.dims()[0], 3]);
        svm.predict_proba_into(&x, &mut p).unwrap();
        let preds = p.argmax_rows().unwrap();
        let correct = preds.iter().zip(&labels).filter(|(a, b)| a == b).count();
        let acc = correct as f32 / labels.len() as f32;
        assert!(acc > 0.95, "svm accuracy {acc}");
    }

    #[test]
    fn predict_proba_rows_sum_to_one() {
        let (x, labels) = blobs(20, 3);
        let mut svm = LinearSvm::new(2, 3);
        let mut rng = SplitMix64::new(4);
        svm.fit(&x, &labels, &mut rng).unwrap();
        let mut p = Tensor::full(&[x.dims()[0], 3], f32::NAN);
        svm.predict_proba_into(&x, &mut p).unwrap();
        for i in 0..x.dims()[0] {
            let s: f32 = p.data()[i * 3..(i + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn untrained_svm_scores_are_zero() {
        let svm = LinearSvm::new(3, 2);
        let mut scores = Tensor::full(&[2, 2], f32::NAN);
        svm.margins_into(&Tensor::ones(&[2, 3]), &mut scores)
            .unwrap();
        assert_eq!(scores.sum(), 0.0);
    }

    #[test]
    fn fit_validates_inputs() {
        let mut svm = LinearSvm::new(2, 2);
        let mut rng = SplitMix64::new(5);
        let x = Tensor::zeros(&[3, 2]);
        assert!(matches!(
            svm.fit(&x, &[0, 1], &mut rng),
            Err(NnError::LabelBatchMismatch { .. })
        ));
        assert!(matches!(
            svm.fit(&x, &[0, 1, 2], &mut rng),
            Err(NnError::LabelOutOfRange { .. })
        ));
        let mut out = Tensor::zeros(&[1, 2]);
        assert!(svm
            .predict_proba_into(&Tensor::zeros(&[1, 3]), &mut out)
            .is_err());
    }

    #[test]
    fn regularization_keeps_weights_bounded() {
        let (x, labels) = blobs(30, 6);
        let mut svm = LinearSvm::new(2, 3);
        let mut rng = SplitMix64::new(7);
        svm.fit(&x, &labels, &mut rng).unwrap();
        // Hinge steps stop once the margins hold and the L2 shrinkage
        // acts on every step, so the weights settle near norm 1.4.
        assert!(svm.weights.norm() < 5.0, "norm {}", svm.weights.norm());
    }
}
