//! The SVM baseline for the IMU stream (paper §5.2: the CNN+SVM ensemble
//! that the CNN+RNN architecture edges out by ~1%).

use darnet_nn::LinearSvm;
use darnet_tensor::{SplitMix64, Tensor, Workspace};

use crate::dataset::Standardizer;
use crate::error::CoreError;
use crate::eval::count_correct;
use crate::Result;

/// A linear one-vs-rest SVM over flattened, standardized IMU windows.
#[derive(Debug)]
pub struct ImuSvm {
    svm: LinearSvm,
    standardizer: Option<Standardizer>,
    window_len: usize,
    features: usize,
    classes: usize,
    /// Reusable inference buffers for the zero-alloc prediction path.
    ws: Workspace,
}

impl ImuSvm {
    /// Builds an untrained SVM for `[n, window_len, features]` windows.
    pub fn new(window_len: usize, features: usize, classes: usize) -> Self {
        ImuSvm {
            svm: LinearSvm::new(window_len * features, classes),
            standardizer: None,
            window_len,
            features,
            classes,
            ws: Workspace::new(),
        }
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Forward FLOPs of one window: the linear map from the flattened
    /// window to every class score, a multiply-add counting two.
    pub fn flops_per_window(&self) -> usize {
        2 * self.window_len * self.features * self.classes
    }

    /// The batch length of `[n, window_len, features]` windows.
    fn batch_len(&self, windows: &Tensor) -> Result<usize> {
        match *windows.dims() {
            [n, t, f] if t == self.window_len && f == self.features => Ok(n),
            ref dims => Err(CoreError::Dataset(format!(
                "expected [n, {}, {}] windows, got {:?}",
                self.window_len, self.features, dims
            ))),
        }
    }

    fn flatten(&self, windows: &Tensor) -> Result<Tensor> {
        let n = self.batch_len(windows)?;
        Ok(windows.reshape(&[n, self.window_len * self.features])?)
    }

    /// Trains on `[n, window_len, features]` windows with class labels,
    /// fitting the feature standardizer first.
    ///
    /// # Errors
    ///
    /// Propagates shape/label errors.
    pub fn fit(&mut self, windows: &Tensor, labels: &[usize], rng: &mut SplitMix64) -> Result<()> {
        let std = Standardizer::fit(windows)?;
        let x = self.flatten(&std.apply(windows))?;
        self.svm.fit(&x, labels, rng)?;
        self.standardizer = Some(std);
        Ok(())
    }

    /// Row-major pseudo-probabilities (softmax over margins) for the
    /// batch, appended to `out`: the windows are flattened and
    /// standardized inside a checkout of `ws`, so a warm workspace makes
    /// the call allocation-free. The one body of both prediction paths.
    fn proba_rows(&self, windows: &Tensor, ws: &mut Workspace, out: &mut Vec<f32>) -> Result<()> {
        let std = self
            .standardizer
            .as_ref()
            .ok_or_else(|| CoreError::NotReady("imu svm not fitted".into()))?;
        let n = self.batch_len(windows)?;
        let mut x = ws.checkout(&[n, self.window_len * self.features]);
        x.data_mut().copy_from_slice(windows.data());
        std.apply_inplace(&mut x);
        let mut probs = ws.checkout(&[n, self.classes]);
        let run = self.svm.predict_proba_into(&x, &mut probs);
        if run.is_ok() {
            out.extend_from_slice(probs.data());
        }
        ws.restore(probs);
        ws.restore(x);
        Ok(run?)
    }

    /// Pseudo-probabilities `[n, classes]` (softmax over margins):
    /// [`ImuSvm::predict_proba_into`] on a fresh workspace and output.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotReady`] before [`ImuSvm::fit`].
    pub fn predict_proba(&self, windows: &Tensor) -> Result<Tensor> {
        let mut rows = Vec::new();
        self.proba_rows(windows, &mut Workspace::new(), &mut rows)?;
        Ok(Tensor::from_vec(
            rows,
            &[self.batch_len(windows)?, self.classes],
        )?)
    }

    /// Row-major pseudo-probabilities written into a caller-provided
    /// buffer (cleared first). After one warm-up call at a given batch
    /// shape the model allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotReady`] before [`ImuSvm::fit`].
    pub fn predict_proba_into(&mut self, windows: &Tensor, out: &mut Vec<f32>) -> Result<()> {
        out.clear();
        let mut ws = std::mem::take(&mut self.ws);
        let run = self.proba_rows(windows, &mut ws, out);
        self.ws = ws;
        run
    }

    /// Top-1 accuracy against `labels`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotReady`] before [`ImuSvm::fit`].
    pub fn evaluate(&self, windows: &Tensor, labels: &[usize]) -> Result<f32> {
        let correct = count_correct(&self.predict_proba(windows)?.argmax_rows()?, labels)?;
        Ok(correct as f32 / labels.len().max(1) as f32)
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests seed their inputs from a SplitMix64"
)]
mod tests {
    use super::*;

    fn toy_windows(n_per_class: usize, seed: u64) -> (Tensor, Vec<usize>) {
        // Two classes separated by the mean of channel 0.
        let mut rng = SplitMix64::new(seed);
        let (t, f) = (5usize, 3usize);
        let n = n_per_class * 2;
        let mut data = Vec::with_capacity(n * t * f);
        let mut labels = Vec::with_capacity(n);
        for c in 0..2 {
            for _ in 0..n_per_class {
                labels.push(c);
                for _ in 0..t {
                    data.push(if c == 0 { -1.0 } else { 1.0 } + rng.normal() * 0.3);
                    data.push(rng.normal());
                    data.push(rng.normal());
                }
            }
        }
        (Tensor::from_vec(data, &[n, t, f]).unwrap(), labels)
    }

    #[test]
    fn svm_learns_toy_windows() {
        let mut svm = ImuSvm::new(5, 3, 2);
        let (x, labels) = toy_windows(40, 1);
        let mut rng = SplitMix64::new(2);
        svm.fit(&x, &labels, &mut rng).unwrap();
        let acc = svm.evaluate(&x, &labels).unwrap();
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn predict_before_fit_errors() {
        let svm = ImuSvm::new(5, 3, 2);
        let x = Tensor::zeros(&[1, 5, 3]);
        assert!(matches!(svm.predict_proba(&x), Err(CoreError::NotReady(_))));
    }

    #[test]
    fn wrong_window_shape_is_rejected() {
        let mut svm = ImuSvm::new(5, 3, 2);
        let (x, labels) = toy_windows(5, 3);
        let mut rng = SplitMix64::new(4);
        svm.fit(&x, &labels, &mut rng).unwrap();
        let bad = Tensor::zeros(&[1, 4, 3]);
        assert!(svm.predict_proba(&bad).is_err());
    }

    /// `fit` refuses a label count other than the window count and leaves
    /// the model unfitted; so does `evaluate`, rather than score the
    /// overlap.
    #[test]
    fn a_label_count_other_than_the_window_count_is_an_error() {
        let mut svm = ImuSvm::new(5, 3, 2);
        let (x, labels) = toy_windows(5, 7);
        let mut rng = SplitMix64::new(8);
        assert!(svm.fit(&x, &labels[1..], &mut rng).is_err());
        assert!(matches!(svm.predict_proba(&x), Err(CoreError::NotReady(_))));
        svm.fit(&x, &labels, &mut rng).unwrap();
        for n in [9, 11] {
            let got = svm.evaluate(&x, &vec![0; n]);
            assert!(matches!(got, Err(CoreError::Dataset(_))), "{n}: {got:?}");
        }
    }

    /// A warm workspace, one batch shape after another, gives
    /// `predict_proba`'s bits on a fresh one.
    #[test]
    fn predict_proba_into_is_predict_proba_in_one_chunk_or_several() {
        let mut svm = ImuSvm::new(5, 3, 2);
        let (x, labels) = toy_windows(35, 9);
        svm.fit(&x, &labels, &mut SplitMix64::new(10)).unwrap();
        let mut out = Vec::new();
        for n in [8, 70, 5, 8] {
            let windows = Tensor::from_vec(x.data()[..n * 15].to_vec(), &[n, 5, 3]).unwrap();
            svm.predict_proba_into(&windows, &mut out).unwrap();
            let want = svm.predict_proba(&windows).unwrap();
            assert_eq!(out.len(), want.len(), "{n} windows");
            assert!(
                out.iter()
                    .zip(want.data())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{n} windows"
            );
        }
    }

    #[test]
    fn probabilities_sum_to_one() {
        let mut svm = ImuSvm::new(5, 3, 2);
        let (x, labels) = toy_windows(10, 5);
        let mut rng = SplitMix64::new(6);
        svm.fit(&x, &labels, &mut rng).unwrap();
        let p = svm.predict_proba(&x).unwrap();
        for r in 0..x.dims()[0] {
            let s: f32 = p.data()[r * 2..(r + 1) * 2].iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }
}
