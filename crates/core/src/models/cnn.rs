//! The frame classifier: a mini-Inception CNN.
//!
//! DarNet fine-tunes Inception-V3; at CPU-reproduction scale we keep the
//! architecture *family* — a convolutional stem followed by inception
//! blocks (parallel 1×1/3×3/5×5/pool branches, channel-concatenated) and
//! coarse average pooling — and reproduce the transfer-learning recipe by
//! pre-training on a proxy task, then swapping the final fully connected
//! layer for the target class count (paper §4.2 "Frame-Sequence
//! Architecture").

use darnet_nn::{
    AvgPool2d, Conv2d, Dense, Dropout, Flatten, InceptionBlock, InceptionChannels, Layer,
    MaxPool2d, Mode, Relu, Sequential, Sgd,
};
use darnet_tensor::{SplitMix64, Tensor, Workspace};

use super::train::{self, Schedule, Targets, SGD_DECAY};
use crate::error::CoreError;
use crate::eval::count_correct;
use crate::Result;

/// Hyperparameters for [`FrameCnn`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CnnConfig {
    /// Square input edge length (the collection frames are 48×48).
    pub input_size: usize,
    /// Output classes.
    pub classes: usize,
    /// Width multiplier for every channel count (1.0 = the default small
    /// model; larger is slower and more accurate).
    pub width: f32,
    /// Minibatch size.
    pub batch_size: usize,
}

impl Default for CnnConfig {
    fn default() -> Self {
        CnnConfig {
            input_size: 48,
            classes: 6,
            width: 1.0,
            batch_size: 32,
        }
    }
}

/// SGD learning rate (decayed per epoch by [`FrameCnn::fit`]).
const LR: f32 = 0.05;
/// SGD momentum.
const MOMENTUM: f32 = 0.9;
/// L2 weight decay.
const WEIGHT_DECAY: f32 = 1e-4;
/// Dropout probability before the head.
const DROPOUT: f32 = 0.1;

fn scaled(base: usize, width: f32) -> usize {
    ((base as f32 * width).round() as usize).max(1)
}

/// Layer widths and feature-map edges of a [`FrameCnn`], read off its
/// configuration alone: what [`FrameCnn::new`] builds and
/// [`FrameCnn::flops_per_frame`] counts.
struct Shape {
    /// Stem output channels.
    stem: usize,
    /// Inception block A's branches.
    a: InceptionChannels,
    /// Inception block B's branches.
    b: InceptionChannels,
    /// Input edge of the stem, block A and block B.
    edges: [usize; 3],
    /// Whether an average pool shrinks block B's pooled output further.
    avg_pool: bool,
    /// Inputs of the feature layer.
    feat_in: usize,
    /// Outputs of the feature layer.
    feat: usize,
}

impl Shape {
    fn of(config: &CnnConfig) -> Shape {
        let w = config.width;
        let pool2 = |n: usize| if n >= 2 { (n - 2) / 2 + 1 } else { n };
        let edge = config.input_size;
        let edges = [edge, pool2(edge), pool2(pool2(edge))];
        let a = InceptionChannels {
            c1: scaled(4, w),
            c3_reduce: scaled(4, w),
            c3: scaled(6, w),
            c5_reduce: scaled(2, w),
            c5: scaled(3, w),
            pool_proj: scaled(3, w),
        };
        let b = InceptionChannels {
            c1: scaled(6, w),
            c3_reduce: scaled(6, w),
            c3: scaled(10, w),
            c5_reduce: scaled(3, w),
            c5: scaled(4, w),
            pool_proj: scaled(4, w),
        };
        let mut spatial = pool2(edges[2]);
        let avg_pool = spatial >= 2;
        if avg_pool {
            spatial = pool2(spatial);
        }
        Shape {
            stem: scaled(8, w),
            a,
            b,
            edges,
            avg_pool,
            feat_in: b.total() * spatial * spatial,
            feat: (b.total() * 3).max(16),
        }
    }
}

/// The DarNet frame model: stem convolution → inception blocks → global
/// average pooling → dense head, one [`Sequential`] with the head last.
pub struct FrameCnn {
    net: Sequential,
    config: CnnConfig,
    feat_dim: usize,
    rng: SplitMix64,
    /// Reusable inference buffers for the zero-alloc prediction path.
    ws: Workspace,
}

impl FrameCnn {
    /// Builds an untrained CNN.
    #[expect(
        clippy::disallowed_methods,
        reason = "randomness owner: weight init and dropout seeds"
    )]
    pub fn new(config: CnnConfig, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let shape = Shape::of(&config);
        let mut net = Sequential::new();
        // Stem: 1 → 8 channels, preserve 48×48, then halve.
        net.push(Conv2d::square(1, shape.stem, 3, 1, 1, &mut rng));
        net.push(Relu::new());
        net.push(MaxPool2d::new(2, 2)); // 24×24

        // Inception block A: 8 → 16 channels.
        net.push(InceptionBlock::new(shape.stem, shape.a, &mut rng));
        net.push(MaxPool2d::new(2, 2)); // 12×12

        // Inception block B: 16 → 24 channels.
        net.push(InceptionBlock::new(shape.a.total(), shape.b, &mut rng));
        net.push(MaxPool2d::new(2, 2)); // 6×6

        // Coarse spatial pooling: keep a small spatial layout rather than
        // full global average pooling (pose classes are distinguished by
        // *where* activations fire; Inception-V3 affords GAP only because
        // it carries 2048 channels).
        if shape.avg_pool {
            net.push(AvgPool2d::new(2, 2));
        }
        net.push(Flatten::new());
        net.push(Dense::new(shape.feat_in, shape.feat, &mut rng));
        net.push(Relu::new());
        net.push(Dropout::new(DROPOUT, rng.next_u64()));
        // The head, last so that `replace_head` can swap it.
        net.push(Dense::new(shape.feat, config.classes, &mut rng));
        FrameCnn {
            net,
            config,
            feat_dim: shape.feat,
            rng,
            ws: Workspace::new(),
        }
    }

    /// Forward FLOPs of one frame, from the configuration: the stem
    /// convolution, both inception blocks, the feature layer and the head,
    /// a multiply-add counting two. Activations and pooling are left out.
    pub fn flops_per_frame(&self) -> usize {
        let Shape {
            stem,
            a,
            b,
            edges,
            feat_in,
            feat,
            ..
        } = Shape::of(&self.config);
        let inception = |cin: usize, ch: &InceptionChannels, edge: usize| {
            let reduce = cin * (ch.c1 + ch.c3_reduce + ch.c5_reduce + ch.pool_proj);
            2 * edge * edge * (reduce + ch.c3_reduce * 9 * ch.c3 + ch.c5_reduce * 25 * ch.c5)
        };
        2 * edges[0] * edges[0] * 9 * stem
            + inception(stem, &a, edges[1])
            + inception(a.total(), &b, edges[2])
            + 2 * feat_in * feat
            + 2 * feat * self.config.classes
    }

    /// The model configuration.
    pub fn config(&self) -> &CnnConfig {
        &self.config
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.config.classes
    }

    /// Total trainable parameter count.
    pub fn param_count(&mut self) -> usize {
        self.net.param_count()
    }

    /// Replaces the final fully connected layer with a fresh one for
    /// `classes` outputs — the paper's fine-tuning step ("we modify the
    /// final fully connected layer of this network, such that the number
    /// of outputs corresponds to the number of driving classes").
    pub fn replace_head(&mut self, classes: usize) {
        self.net.pop();
        self.net
            .push(Dense::new(self.feat_dim, classes, &mut self.rng));
        self.config.classes = classes;
    }

    /// Forward pass to logits.
    ///
    /// # Errors
    ///
    /// Propagates shape errors.
    pub fn forward(&mut self, frames: &Tensor, mode: Mode) -> Result<Tensor> {
        Ok(self.net.forward(frames, mode)?)
    }

    /// Trains for `epochs` passes over `(frames, labels)` with shuffled
    /// minibatches. Returns the mean loss per epoch.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Dataset`] unless `frames` is
    /// `[n, 1, input_size, input_size]` with one label per frame, and
    /// [`darnet_nn::NnError::LabelOutOfRange`] for a label of no class,
    /// both before any step; propagates model errors, diverged training
    /// as [`darnet_nn::NnError::Diverged`].
    pub fn fit(&mut self, frames: &Tensor, labels: &[usize], epochs: usize) -> Result<Vec<f32>> {
        self.batch_len(frames)?;
        let mut opt = Sgd::with_momentum(LR, MOMENTUM)
            .weight_decay(WEIGHT_DECAY)
            .clip_norm(5.0);
        let schedule = Schedule {
            lr: LR,
            decay: SGD_DECAY,
            batch_size: self.config.batch_size,
            epochs,
        };
        let classes = self.config.classes;
        let (net, targets) = (&mut self.net, Targets::Labels { labels, classes });
        train::fit(net, &mut opt, frames, &targets, &mut self.rng, schedule)
    }

    /// The batch length of `[n, 1, input_size, input_size]` frames.
    fn batch_len(&self, frames: &Tensor) -> Result<usize> {
        let edge = self.config.input_size;
        match *frames.dims() {
            [n, 1, h, w] if (h, w) == (edge, edge) => Ok(n),
            ref dims => Err(CoreError::Dataset(format!(
                "expected [n, 1, {edge}, {edge}] frames, got {dims:?}"
            ))),
        }
    }

    /// Class-probability predictions, `[n, classes]`:
    /// [`FrameCnn::predict_proba_into`] on a fresh workspace and output.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Dataset`] unless `frames` is
    /// `[n, 1, input_size, input_size]`; propagates model errors.
    pub fn predict_proba(&mut self, frames: &Tensor) -> Result<Tensor> {
        let n = self.batch_len(frames)?;
        let mut rows = Vec::new();
        train::predict_proba_into(&mut self.net, frames, &mut Workspace::new(), &mut rows)?;
        Ok(Tensor::from_vec(rows, &[n, self.config.classes])?)
    }

    /// Row-major class probabilities written into a caller-provided buffer
    /// (cleared first), every layer running on the model's workspace:
    /// after one warm-up call at a given batch shape the model allocates
    /// nothing.
    ///
    /// # Errors
    ///
    /// As [`FrameCnn::predict_proba`].
    pub fn predict_proba_into(&mut self, frames: &Tensor, out: &mut Vec<f32>) -> Result<()> {
        self.batch_len(frames)?;
        out.clear();
        train::predict_proba_into(&mut self.net, frames, &mut self.ws, out)
    }

    /// Top-1 accuracy against `labels`.
    ///
    /// # Errors
    ///
    /// Propagates model errors.
    pub fn evaluate(&mut self, frames: &Tensor, labels: &[usize]) -> Result<f32> {
        let correct = count_correct(&self.predict_proba(frames)?.argmax_rows()?, labels)?;
        Ok(correct as f32 / labels.len().max(1) as f32)
    }

    /// Mutable access to every trainable parameter, features first, head
    /// last (the serialization order used by `model_io`).
    pub fn all_params_mut(&mut self) -> Vec<&mut darnet_nn::Param> {
        self.net.params_mut()
    }

    /// The network, for distillation to train through the shared loop.
    pub(crate) fn net_mut(&mut self) -> &mut Sequential {
        &mut self.net
    }
}

impl std::fmt::Debug for FrameCnn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameCnn")
            .field("config", &self.config)
            .field("layers", &self.net.layer_names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darnet_sim::{CanonicalBehavior, DriverProfile, FrameRenderer};

    fn tiny_config() -> CnnConfig {
        CnnConfig {
            input_size: 24,
            classes: 3,
            width: 0.5,
            batch_size: 16,
        }
    }

    fn tiny_dataset(n_per_class: usize, seed: u64) -> (Tensor, Vec<usize>) {
        // Visually distinct classes at 24×24: normal / reaching / hair.
        let renderer = FrameRenderer::new(seed).with_size(24).with_noise(0.02);
        let classes = [
            CanonicalBehavior::NormalDriving,
            CanonicalBehavior::Reaching,
            CanonicalBehavior::HairMakeup,
        ];
        let driver = DriverProfile::generate(0, 42);
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for (ci, &c) in classes.iter().enumerate() {
            for k in 0..n_per_class {
                let f = renderer.render(&driver, c, k as f64 * 0.37);
                data.extend_from_slice(f.pixels());
                labels.push(ci);
            }
        }
        let n = labels.len();
        (Tensor::from_vec(data, &[n, 1, 24, 24]).unwrap(), labels)
    }

    #[test]
    fn forward_produces_class_logits() {
        let mut cnn = FrameCnn::new(tiny_config(), 1);
        let x = Tensor::zeros(&[2, 1, 24, 24]);
        let logits = cnn.forward(&x, Mode::Eval).unwrap();
        assert_eq!(logits.dims(), &[2, 3]);
        assert!(cnn.param_count() > 100);
    }

    #[test]
    fn cnn_learns_visually_distinct_classes() {
        let mut cnn = FrameCnn::new(
            CnnConfig {
                width: 1.0,
                ..tiny_config()
            },
            2,
        );
        let (x, labels) = tiny_dataset(20, 7);
        let losses = cnn.fit(&x, &labels, 20).unwrap();
        assert!(
            losses.last().unwrap() < &losses[0],
            "loss did not decrease: {losses:?}"
        );
        let acc = cnn.evaluate(&x, &labels).unwrap();
        assert!(acc > 0.6, "train accuracy {acc}");
    }

    #[test]
    fn predict_proba_rows_are_distributions() {
        let mut cnn = FrameCnn::new(tiny_config(), 3);
        let (x, _) = tiny_dataset(3, 9);
        let p = cnn.predict_proba(&x).unwrap();
        assert_eq!(p.dims(), &[9, 3]);
        for r in 0..9 {
            let s: f32 = p.data()[r * 3..(r + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    /// One chunk runs on the caller's frames in place, more than 64 frames
    /// on copied-out chunks: a warm workspace, one batch shape after
    /// another, gives `predict_proba`'s bits on a fresh one.
    #[test]
    fn predict_proba_into_is_predict_proba_in_one_chunk_or_several() {
        let mut cnn = FrameCnn::new(tiny_config(), 8);
        let (x, _) = tiny_dataset(24, 12);
        let mut out = Vec::new();
        for n in [8, 70, 5, 8] {
            let frames = Tensor::from_vec(x.data()[..n * 576].to_vec(), &[n, 1, 24, 24]).unwrap();
            cnn.predict_proba_into(&frames, &mut out).unwrap();
            let want = cnn.predict_proba(&frames).unwrap();
            assert_eq!(out.len(), want.len(), "{n} frames");
            assert!(
                out.iter()
                    .zip(want.data())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{n} frames"
            );
        }
    }

    #[test]
    fn frames_of_the_wrong_rank_or_geometry_are_an_error() {
        let mut cnn = FrameCnn::new(tiny_config(), 7);
        let mut out = Vec::new();
        let shapes: [&[usize]; 5] = [
            &[2, 24, 24],
            &[2, 576],
            &[2, 1, 24, 24, 1],
            &[2, 3, 24, 24],
            &[2, 1, 25, 25],
        ];
        for dims in shapes {
            let bad = Tensor::zeros(dims);
            let got = cnn.predict_proba_into(&bad, &mut out);
            assert!(
                matches!(got, Err(CoreError::Dataset(_))),
                "{dims:?}: {got:?}"
            );
            let got = cnn.predict_proba(&bad);
            assert!(matches!(got, Err(CoreError::Dataset(_))), "{dims:?}");
        }
        cnn.predict_proba_into(&Tensor::zeros(&[2, 1, 24, 24]), &mut out)
            .unwrap();
        assert_eq!(out.len(), 2 * 3);
    }

    /// `fit` refuses frames of another geometry, and a label count other
    /// than the frame count, before any step; `evaluate` refuses a label
    /// count other than the prediction count rather than score the overlap.
    #[test]
    fn a_malformed_batch_or_label_count_is_an_error() {
        let mut cnn = FrameCnn::new(tiny_config(), 10);
        let (x, _) = tiny_dataset(2, 13);
        let before = cnn.export_weights();
        for dims in [&[6, 24, 24][..], &[6, 1, 25, 25]] {
            let got = cnn.fit(&Tensor::zeros(dims), &[0; 6], 1);
            assert!(
                matches!(got, Err(CoreError::Dataset(_))),
                "{dims:?}: {got:?}"
            );
        }
        for n in [5, 7] {
            let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
            let got = cnn.fit(&x, &labels, 1);
            assert!(matches!(got, Err(CoreError::Dataset(_))), "{n}: {got:?}");
            let got = cnn.evaluate(&x, &labels);
            assert!(matches!(got, Err(CoreError::Dataset(_))), "{n}: {got:?}");
        }
        assert_eq!(cnn.export_weights(), before);
    }

    /// A label of no class is refused before the first step, wherever
    /// its minibatch would fall: the weights and the shuffle stream are
    /// as they were, so a good fit afterwards matches a fresh model's.
    #[test]
    fn a_label_out_of_range_is_refused_before_any_step() {
        let (frames, good) = tiny_dataset(11, 14);
        let mut labels = good.clone();
        labels[32] = 7;
        let mut cnn = FrameCnn::new(tiny_config(), 15);
        let before = cnn.export_weights();
        let got = cnn.fit(&frames, &labels, 1);
        assert!(
            matches!(
                got,
                Err(CoreError::Nn(darnet_nn::NnError::LabelOutOfRange {
                    label: 7,
                    classes: 3
                }))
            ),
            "{got:?}"
        );
        assert_eq!(cnn.export_weights(), before);
        let mut fresh = FrameCnn::new(tiny_config(), 15);
        assert_eq!(
            cnn.fit(&frames, &good, 1).unwrap(),
            fresh.fit(&frames, &good, 1).unwrap()
        );
        assert_eq!(cnn.export_weights(), fresh.export_weights());
    }

    #[test]
    fn replace_head_changes_class_count() {
        let mut cnn = FrameCnn::new(tiny_config(), 4);
        cnn.replace_head(5);
        assert_eq!(cnn.classes(), 5);
        let x = Tensor::zeros(&[1, 1, 24, 24]);
        let logits = cnn.forward(&x, Mode::Eval).unwrap();
        assert_eq!(logits.dims(), &[1, 5]);
    }

    /// Distilling through the shared loop, one full-batch step an epoch
    /// at plain softmax matching, closes the L2 gap to the teacher.
    #[test]
    fn distillation_through_the_loop_reduces_the_l2_gap() {
        let mut teacher = FrameCnn::new(tiny_config(), 5);
        let mut student = FrameCnn::new(tiny_config(), 6);
        let (x, _) = tiny_dataset(8, 11);
        let teacher_logits = teacher.forward(&x, Mode::Eval).unwrap();
        let probs = darnet_nn::soft_targets(&teacher_logits, 1.0).unwrap();
        let targets = Targets::Soft {
            probs,
            temperature: 1.0,
        };
        let schedule = Schedule {
            lr: 0.05,
            decay: 0.0,
            batch_size: x.dims()[0],
            epochs: 16,
        };
        let mut opt = Sgd::with_momentum(0.05, 0.9);
        let losses = train::fit(
            &mut student.net,
            &mut opt,
            &x,
            &targets,
            &mut student.rng,
            schedule,
        )
        .unwrap();
        let (first, last) = (losses[0], losses[15]);
        assert!(last < first, "distillation loss {first} -> {last}");
    }
}
