//! The IMU-sequence classifier: a deep bidirectional LSTM over 20-step
//! windows (paper §4.2 "IMU-Sequence Architecture": 2 bidirectional LSTM
//! cells of 64 hidden units, 4 Hz sampling, 5 s windows, softmax output).

use darnet_nn::{bilstm_classifier, Adam, Layer, Sequential};
use darnet_tensor::{SplitMix64, Tensor, Workspace};

use super::train::{self, Schedule, Targets};
use crate::dataset::{Standardizer, WINDOW_LEN};
use crate::error::CoreError;
use crate::eval::count_correct;
use crate::Result;

/// Hyperparameters for [`ImuRnn`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RnnConfig {
    /// Features per timestep (12 IMU channels).
    pub features: usize,
    /// Hidden units per direction (paper: 64).
    pub hidden: usize,
    /// Stacked bidirectional layers (paper: 2).
    pub depth: usize,
    /// Output classes (3 phone orientations).
    pub classes: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Minibatch size.
    pub batch_size: usize,
}

impl Default for RnnConfig {
    fn default() -> Self {
        RnnConfig {
            features: 12,
            hidden: 64,
            depth: 2,
            classes: 3,
            lr: 0.01,
            batch_size: 32,
        }
    }
}

/// The trained IMU model: standardization + stacked BiLSTM + softmax head,
/// the network one [`Sequential`] ([`bilstm_classifier`]).
pub struct ImuRnn {
    model: Sequential,
    standardizer: Option<Standardizer>,
    config: RnnConfig,
    rng: SplitMix64,
    /// Reusable inference buffers for the zero-alloc prediction path.
    ws: Workspace,
}

impl ImuRnn {
    /// Builds an untrained model.
    #[expect(clippy::disallowed_methods, reason = "randomness owner: weight init")]
    pub fn new(config: RnnConfig, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let model = bilstm_classifier(
            config.features,
            config.hidden,
            config.depth,
            config.classes,
            &mut rng,
        );
        ImuRnn {
            model,
            standardizer: None,
            config,
            rng,
            ws: Workspace::new(),
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &RnnConfig {
        &self.config
    }

    /// Forward FLOPs of one [`WINDOW_LEN`]-step window, from the
    /// configuration: each BiLSTM layer's input and recurrent products in
    /// both directions, then the head, a multiply-add counting two. The
    /// gate nonlinearities are left out.
    pub fn flops_per_window(&self) -> usize {
        let RnnConfig {
            features,
            hidden: h,
            depth,
            classes,
            ..
        } = self.config;
        let layer = |input: usize| 2 * WINDOW_LEN * 2 * (input * 4 * h + h * 4 * h);
        layer(features) + depth.saturating_sub(1) * layer(2 * h) + 2 * 2 * h * classes
    }

    /// Total trainable parameter count.
    pub fn param_count(&mut self) -> usize {
        self.model.param_count()
    }

    /// Trains on `[n, time, features]` windows with 3-class labels,
    /// fitting the feature standardizer on this data first. Returns mean
    /// loss per epoch.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Dataset`] unless `windows` is
    /// `[n, time, features]` with one label per window, and
    /// [`darnet_nn::NnError::LabelOutOfRange`] for a label of no class,
    /// both before any step; propagates model errors.
    pub fn fit(&mut self, windows: &Tensor, labels: &[usize], epochs: usize) -> Result<Vec<f32>> {
        self.batch_len(windows)?;
        let std = Standardizer::fit(windows)?;
        let x = std.apply(windows);
        let mut opt = Adam::new(self.config.lr);
        // Adam adapts its own steps: no decay (`lr / 1.0` is exact).
        let schedule = Schedule {
            lr: self.config.lr,
            decay: 0.0,
            batch_size: self.config.batch_size,
            epochs,
        };
        let classes = self.config.classes;
        let (net, targets) = (&mut self.model, Targets::Labels { labels, classes });
        let losses = train::fit(net, &mut opt, &x, &targets, &mut self.rng, schedule)?;
        self.standardizer = Some(std);
        Ok(losses)
    }

    /// Mutable access to every trainable parameter (serialization order).
    pub fn all_params_mut(&mut self) -> Vec<&mut darnet_nn::Param> {
        self.model.params_mut()
    }

    /// The fitted standardizer's `(mean, std)` rows, if fitted.
    pub fn standardizer_params(&self) -> Option<(Tensor, Tensor)> {
        self.standardizer.as_ref().map(|s| s.to_tensors())
    }

    /// Installs a standardizer from `(mean, std)` rows (used when loading
    /// a saved model).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Dataset`] unless both rows hold `config.features`
    /// values, every mean is finite and every std finite and ≥ 0.
    pub fn set_standardizer_params(&mut self, mean: &Tensor, std: &Tensor) -> Result<()> {
        self.standardizer = Some(self.standardizer_from(mean, std)?);
        Ok(())
    }

    /// The standardizer of `(mean, std)` rows, refused as
    /// [`ImuRnn::set_standardizer_params`] refuses it.
    pub(crate) fn standardizer_from(&self, mean: &Tensor, std: &Tensor) -> Result<Standardizer> {
        let (got, want) = (mean.len(), self.config.features);
        if got != want {
            return Err(CoreError::Dataset(format!(
                "standardizer has {got} features, not {want}"
            )));
        }
        Standardizer::from_tensors(mean, std)
    }

    /// The `(n, time)` of `[n, time, features]` windows, `time > 0`.
    fn batch_len(&self, windows: &Tensor) -> Result<(usize, usize)> {
        let features = self.config.features;
        match *windows.dims() {
            [n, t, f] if t > 0 && f == features => Ok((n, t)),
            ref dims => Err(CoreError::Dataset(format!(
                "expected [n, time, {features}] windows, got {dims:?}"
            ))),
        }
    }

    /// Class probabilities, `[n, classes]`: [`ImuRnn::predict_proba_into`]
    /// on a fresh workspace and output.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotReady`] before [`ImuRnn::fit`] and
    /// [`CoreError::Dataset`] unless `windows` is `[n, time, features]`.
    pub fn predict_proba(&mut self, windows: &Tensor) -> Result<Tensor> {
        let (kept, mut rows) = (std::mem::take(&mut self.ws), Vec::new());
        let run = self.predict_proba_into(windows, &mut rows);
        self.ws = kept;
        run?;
        let shape = [windows.dims()[0], self.config.classes];
        Ok(Tensor::from_vec(rows, &shape)?)
    }

    /// Row-major class probabilities written into a caller-provided buffer
    /// (cleared first), the windows standardized in a checkout of the
    /// model's workspace: a warm call allocates nothing.
    ///
    /// # Errors
    ///
    /// As [`ImuRnn::predict_proba`].
    pub fn predict_proba_into(&mut self, windows: &Tensor, out: &mut Vec<f32>) -> Result<()> {
        let std = self
            .standardizer
            .as_ref()
            .ok_or_else(|| CoreError::NotReady("imu rnn not fitted".into()))?;
        let (n, t) = self.batch_len(windows)?;
        let mut x = self.ws.checkout(&[n, t, self.config.features]);
        x.data_mut().copy_from_slice(windows.data());
        std.apply_inplace(&mut x);
        out.clear();
        let run = train::predict_proba_into(&mut self.model, &x, &mut self.ws, out);
        self.ws.restore(x);
        run
    }

    /// Top-1 accuracy against `labels`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotReady`] before [`ImuRnn::fit`].
    pub fn evaluate(&mut self, windows: &Tensor, labels: &[usize]) -> Result<f32> {
        let correct = count_correct(&self.predict_proba(windows)?.argmax_rows()?, labels)?;
        Ok(correct as f32 / labels.len().max(1) as f32)
    }
}

impl std::fmt::Debug for ImuRnn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ImuRnn")
            .field("config", &self.config)
            .field("fitted", &self.standardizer.is_some())
            .finish()
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests seed their inputs from a SplitMix64"
)]
mod tests {
    use super::*;

    /// Synthetic 2-class sequences: constant offset vs. oscillation.
    fn toy_windows(n_per_class: usize, seed: u64) -> (Tensor, Vec<usize>) {
        let mut rng = SplitMix64::new(seed);
        let (t, f) = (10usize, 4usize);
        let n = n_per_class * 2;
        let mut data = Vec::with_capacity(n * t * f);
        let mut labels = Vec::with_capacity(n);
        for c in 0..2 {
            for _ in 0..n_per_class {
                labels.push(c);
                for step in 0..t {
                    for feat in 0..f {
                        let v = if c == 0 {
                            5.0 + rng.normal() * 0.2
                        } else {
                            5.0 + 2.0 * ((step + feat) as f32).sin() + rng.normal() * 0.2
                        };
                        data.push(v);
                    }
                }
            }
        }
        (Tensor::from_vec(data, &[n, t, f]).unwrap(), labels)
    }

    fn tiny_config() -> RnnConfig {
        RnnConfig {
            features: 4,
            hidden: 8,
            depth: 1,
            classes: 2,
            lr: 0.02,
            batch_size: 16,
        }
    }

    #[test]
    fn rnn_learns_toy_sequences() {
        let mut rnn = ImuRnn::new(tiny_config(), 1);
        let (x, labels) = toy_windows(30, 2);
        let losses = rnn.fit(&x, &labels, 8).unwrap();
        assert!(losses.last().unwrap() < &losses[0]);
        let acc = rnn.evaluate(&x, &labels).unwrap();
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn predict_before_fit_errors() {
        let mut rnn = ImuRnn::new(tiny_config(), 3);
        let x = Tensor::zeros(&[1, 10, 4]);
        assert!(matches!(rnn.predict_proba(&x), Err(CoreError::NotReady(_))));
    }

    #[test]
    fn windows_of_the_wrong_rank_or_width_are_an_error() {
        let mut rnn = ImuRnn::new(tiny_config(), 7);
        let (x, labels) = toy_windows(4, 8);
        rnn.fit(&x, &labels, 1).unwrap();
        let mut out = Vec::new();
        for dims in [&[40][..], &[4, 40], &[4, 10, 4, 1], &[4, 10, 3], &[4, 0, 4]] {
            let bad = Tensor::zeros(dims);
            let got = rnn.predict_proba_into(&bad, &mut out);
            assert!(
                matches!(got, Err(CoreError::Dataset(_))),
                "{dims:?}: {got:?}"
            );
            let got = rnn.predict_proba(&bad);
            assert!(matches!(got, Err(CoreError::Dataset(_))), "{dims:?}");
        }
        rnn.predict_proba_into(&x, &mut out).unwrap();
        assert_eq!(out.len(), 8 * 2);
    }

    /// `fit` refuses windows of another rank or width, and a label count
    /// other than the window count, and leaves the model unfitted;
    /// `evaluate` refuses a label count other than the prediction count.
    #[test]
    fn a_malformed_batch_or_label_count_is_an_error() {
        let mut rnn = ImuRnn::new(tiny_config(), 9);
        let (x, labels) = toy_windows(4, 10);
        for dims in [&[8, 40][..], &[8, 10, 3]] {
            let got = rnn.fit(&Tensor::zeros(dims), &labels, 1);
            assert!(
                matches!(got, Err(CoreError::Dataset(_))),
                "{dims:?}: {got:?}"
            );
        }
        for n in [7, 9] {
            let got = rnn.fit(&x, &vec![0; n], 1);
            assert!(matches!(got, Err(CoreError::Dataset(_))), "{n}: {got:?}");
        }
        assert!(matches!(rnn.predict_proba(&x), Err(CoreError::NotReady(_))));
        rnn.fit(&x, &labels, 1).unwrap();
        for n in [7, 9] {
            let got = rnn.evaluate(&x, &vec![0; n]);
            assert!(matches!(got, Err(CoreError::Dataset(_))), "{n}: {got:?}");
        }
    }

    /// A label of no class is refused before the first step, wherever
    /// its minibatch would fall, and leaves the model unfitted with its
    /// weights and shuffle stream as they were.
    #[test]
    fn a_label_out_of_range_is_refused_before_any_step() {
        let (x, good) = toy_windows(20, 16);
        let mut labels = good.clone();
        labels[39] = 2;
        let mut rnn = ImuRnn::new(tiny_config(), 17);
        let before: Vec<Tensor> = rnn
            .all_params_mut()
            .iter()
            .map(|p| p.value.clone())
            .collect();
        let got = rnn.fit(&x, &labels, 1);
        assert!(
            matches!(
                got,
                Err(CoreError::Nn(darnet_nn::NnError::LabelOutOfRange {
                    label: 2,
                    classes: 2
                }))
            ),
            "{got:?}"
        );
        assert!(matches!(rnn.predict_proba(&x), Err(CoreError::NotReady(_))));
        let after: Vec<Tensor> = rnn
            .all_params_mut()
            .iter()
            .map(|p| p.value.clone())
            .collect();
        assert_eq!(after, before);
        let mut fresh = ImuRnn::new(tiny_config(), 17);
        assert_eq!(
            rnn.fit(&x, &good, 1).unwrap(),
            fresh.fit(&x, &good, 1).unwrap()
        );
        assert_eq!(
            rnn.export_weights().unwrap(),
            fresh.export_weights().unwrap()
        );
    }

    /// A standardizer of another width, a non-finite mean, or a negative
    /// or non-finite std is refused and leaves the model unfitted; a std
    /// in `0..1e-6` is raised to `1e-6`, as `fit` writes it.
    #[test]
    fn a_standardizer_that_does_not_fit_the_model_is_refused() {
        let row = |v: &[f32]| Tensor::from_slice(v);
        let mut rnn = ImuRnn::new(RnnConfig::default(), 1);
        let window = Tensor::full(&[2, 20, 12], 0.5);
        let (mean, std) = (Tensor::zeros(&[12]), Tensor::ones(&[12]));
        let narrow = (Tensor::zeros(&[5]), Tensor::ones(&[5]));
        let with = |t: &Tensor, v: f32| {
            let mut t = t.clone();
            t.data_mut()[3] = v;
            t
        };
        for (what, (m, s)) in [
            ("5 features", narrow),
            ("std −1", (mean.clone(), with(&std, -1.0))),
            ("std NaN", (mean.clone(), with(&std, f32::NAN))),
            ("std +∞", (mean.clone(), with(&std, f32::INFINITY))),
            ("mean NaN", (with(&mean, f32::NAN), std.clone())),
            ("mean −∞", (with(&mean, f32::NEG_INFINITY), std.clone())),
        ] {
            let got = rnn.set_standardizer_params(&m, &s);
            assert!(matches!(got, Err(CoreError::Dataset(_))), "{what}: {got:?}");
            let got = rnn.predict_proba(&window);
            assert!(matches!(got, Err(CoreError::NotReady(_))), "{what}");
        }
        for tiny in [0.0, 1e-7] {
            rnn.set_standardizer_params(&mean, &with(&std, tiny))
                .unwrap();
            let (_, kept) = rnn.standardizer_params().unwrap();
            assert_eq!(kept.data()[3], 1e-6);
        }
        rnn.set_standardizer_params(&row(&[0.25; 12]), &row(&[2.0; 12]))
            .unwrap();
        assert!(rnn.predict_proba(&window).is_ok());
    }

    /// One chunk runs on the standardized checkout in place, more than 64
    /// windows on copied-out chunks: a warm workspace, one batch shape
    /// after another, gives `predict_proba`'s bits on a fresh one.
    #[test]
    fn predict_proba_into_is_predict_proba_in_one_chunk_or_several() {
        let mut rnn = ImuRnn::new(tiny_config(), 11);
        let (x, labels) = toy_windows(35, 12);
        rnn.fit(&x, &labels, 1).unwrap();
        let mut out = Vec::new();
        for n in [8, 70, 5, 8] {
            let windows = Tensor::from_vec(x.data()[..n * 40].to_vec(), &[n, 10, 4]).unwrap();
            rnn.predict_proba_into(&windows, &mut out).unwrap();
            let want = rnn.predict_proba(&windows).unwrap();
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
    fn probabilities_are_distributions() {
        let mut rnn = ImuRnn::new(tiny_config(), 4);
        let (x, labels) = toy_windows(10, 5);
        rnn.fit(&x, &labels, 2).unwrap();
        let p = rnn.predict_proba(&x).unwrap();
        for r in 0..x.dims()[0] {
            let s: f32 = p.data()[r * 2..(r + 1) * 2].iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn paper_configuration_has_expected_structure() {
        let mut rnn = ImuRnn::new(RnnConfig::default(), 6);
        // 2 BiLSTM layers + head; parameter count grows with hidden=64.
        assert!(rnn.param_count() > 50_000);
        assert_eq!(rnn.config().hidden, 64);
        assert_eq!(rnn.config().depth, 2);
        assert_eq!(rnn.config().classes, 3);
    }
}
