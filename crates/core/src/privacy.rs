//! Privacy-preserving analytics (paper §4.3): nearest-neighbour
//! down-sampling at three distortion levels, and the unsupervised
//! distillation that trains one dCNN student per level to mimic the
//! full-resolution teacher's outputs under an L2 loss.
#![expect(
    clippy::disallowed_methods,
    reason = "randomness owner: distillation shuffles"
)]

use darnet_nn::Sgd;
use darnet_sim::Frame;
use darnet_tensor::{SplitMix64, Tensor};

use crate::dataset::frames_to_tensor;
use crate::models::FrameCnn;
use crate::{CoreError, Result};

/// The paper's three distortion levels. With 48×48 source frames the
/// target sizes keep the paper's exact linear ratios (3×, 6×, 12×) and
/// data-volume reductions (9×, 36×, 144×).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrivacyLevel {
    /// dCNN-L: 1/3 linear resolution (paper: 300→100; here 48→16).
    Low,
    /// dCNN-M: 1/6 linear resolution (paper: 300→50; here 48→8).
    Medium,
    /// dCNN-H: 1/12 linear resolution (paper: 300→25; here 48→4).
    High,
}

impl PrivacyLevel {
    /// All three levels, low to high.
    pub const ALL: [PrivacyLevel; 3] =
        [PrivacyLevel::Low, PrivacyLevel::Medium, PrivacyLevel::High];

    /// The linear down-sampling divisor.
    pub fn divisor(self) -> usize {
        match self {
            PrivacyLevel::Low => 3,
            PrivacyLevel::Medium => 6,
            PrivacyLevel::High => 12,
        }
    }

    /// Target edge length for a `full`-pixel square frame.
    pub fn target_size(self, full: usize) -> usize {
        (full / self.divisor()).max(1)
    }

    /// Data-volume reduction factor (the paper's ~9×/25×/144×; exact
    /// thirds give 9×/36×/144×).
    pub fn data_reduction(self) -> usize {
        self.divisor() * self.divisor()
    }

    /// Model name used in the paper's Table 3.
    pub fn model_name(self) -> &'static str {
        match self {
            PrivacyLevel::Low => "dCNN-L",
            PrivacyLevel::Medium => "dCNN-M",
            PrivacyLevel::High => "dCNN-H",
        }
    }
}

impl std::fmt::Display for PrivacyLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.model_name())
    }
}

/// The distortion module: down-samples frames before they leave the
/// vehicle, and restores the nominal geometry server-side so the fixed-
/// input dCNN can consume them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Downsampler {
    full_size: usize,
}

impl Downsampler {
    /// Creates a distortion module for `full_size`-pixel square frames.
    pub fn new(full_size: usize) -> Self {
        Downsampler { full_size }
    }

    /// The full-resolution edge length.
    pub fn full_size(&self) -> usize {
        self.full_size
    }

    /// Down-samples a frame to the level's target size (what is
    /// transmitted — this is the privacy/bandwidth win).
    pub fn distort(&self, frame: &Frame, level: PrivacyLevel) -> Frame {
        let target = level.target_size(self.full_size);
        frame.downsample_nearest(target, target)
    }

    /// Distort-then-restore: exactly the pixels the dCNN sees.
    pub fn roundtrip(&self, frame: &Frame, level: PrivacyLevel) -> Frame {
        self.distort(frame, level)
            .upsample_nearest(self.full_size, self.full_size)
    }

    /// Distorts a whole set and returns the dCNN input tensor
    /// `[n, 1, full, full]`, restored as the engine restores a distorted
    /// batch ([`restore_frames_into`]).
    ///
    /// # Errors
    ///
    /// Returns an error for an empty batch.
    pub fn roundtrip_tensor(&self, frames: &[Frame], level: PrivacyLevel) -> Result<Tensor> {
        let distorted: Vec<Frame> = frames.iter().map(|f| self.distort(f, level)).collect();
        let mut out = Tensor::zeros(&[frames.len(), 1, self.full_size, self.full_size]);
        restore_frames_into(&distorted, &mut out)?;
        Ok(out)
    }
}

/// Re-expands a batch of distorted frames to the nominal input size with
/// nearest-neighbour up-sampling (server-side, before the dCNN), straight
/// into a `[n, 1, full, full]` tensor — typically a workspace checkout —
/// whose geometry names the size to restore to. The engine's route for
/// distorted frames, allocation-free.
///
/// # Errors
///
/// Returns a dataset error for an empty batch, empty or inconsistently
/// sized frames, or an `out` that is not `[frames.len(), 1, h, w]`.
// darlint: hot
pub fn restore_frames_into(frames: &[Frame], out: &mut Tensor) -> Result<()> {
    let (fw, fh) = frames.first().map_or((0, 0), |f| (f.width(), f.height()));
    let &[n, 1, h, w] = out.dims() else {
        return Err(CoreError::Dataset(format!(
            "restored batch must be [n, 1, h, w], got {:?}",
            out.dims()
        )));
    };
    if n != frames.len() || fw * fh == 0 || w * h == 0 {
        return Err(CoreError::Dataset(format!(
            "cannot restore {} {fw}×{fh} frames into {:?}",
            frames.len(),
            out.dims()
        )));
    }
    for (frame, pixels) in frames.iter().zip(out.data_mut().chunks_exact_mut(w * h)) {
        if (frame.width(), frame.height()) != (fw, fh) {
            return Err(CoreError::Dataset("inconsistent frame sizes".into()));
        }
        frame.resample_nearest_into(w, h, pixels);
    }
    Ok(())
}

/// Hyperparameters for dCNN distillation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistillConfig {
    /// Epochs over the unlabeled pool.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Distillation temperature (softens teacher/student outputs; 1.0 =
    /// plain softmax matching).
    pub temperature: f32,
}

impl Default for DistillConfig {
    fn default() -> Self {
        DistillConfig {
            epochs: 6,
            batch_size: 32,
            temperature: 2.0,
        }
    }
}

/// SGD learning rate of distillation (the paper trains the dCNN with SGD),
/// decayed per epoch.
const DISTILL_LR: f32 = 0.05;
/// SGD momentum of distillation.
const DISTILL_MOMENTUM: f32 = 0.9;

/// Trains a dCNN student for `level` by distillation (paper §4.3):
///
/// 1. each unlabeled frame is passed through the teacher at full
///    resolution (on-device — the original image never leaves the car),
/// 2. the frame is down-sampled and sent to the server,
/// 3. the student processes the distorted frame and is trained to minimize
///    the L2 distance between its outputs and the teacher's.
///
/// The student reuses the teacher's architecture and is initialized from
/// the teacher's weights, as in the paper.
///
/// # Errors
///
/// Propagates model errors.
pub fn distill_dcnn(
    teacher: &mut FrameCnn,
    unlabeled: &[Frame],
    level: PrivacyLevel,
    config: &DistillConfig,
    seed: u64,
) -> Result<FrameCnn> {
    let full = teacher.config().input_size;
    let downsampler = Downsampler::new(full);
    let mut student = FrameCnn::new(*teacher.config(), seed);
    student.copy_params_from(teacher)?;

    let mut opt = Sgd::with_momentum(DISTILL_LR, DISTILL_MOMENTUM).clip_norm(5.0);
    let mut rng = SplitMix64::new(seed ^ 0xD157);
    let mut order: Vec<usize> = (0..unlabeled.len()).collect();
    for epoch in 0..config.epochs {
        rng.shuffle(&mut order);
        opt.lr = DISTILL_LR / (1.0 + 0.3 * epoch as f32);
        for chunk in order.chunks(config.batch_size.max(1)) {
            let batch_frames: Vec<Frame> = chunk.iter().map(|&i| unlabeled[i].clone()).collect();
            // Step 1: teacher on original frames (device side).
            let full_tensor = frames_to_tensor(&batch_frames)?;
            let teacher_logits = teacher.logits(&full_tensor)?;
            // Steps 2–4: student on distorted frames, L2 against teacher.
            let distorted = downsampler.roundtrip_tensor(&batch_frames, level)?;
            student.distill_step_with_temperature(
                &distorted,
                &teacher_logits,
                &mut opt,
                config.temperature,
            )?;
        }
    }
    Ok(student)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::CnnConfig;
    use darnet_sim::{CanonicalBehavior, DriverProfile, FrameRenderer};

    #[test]
    fn levels_have_paper_ratios() {
        assert_eq!(PrivacyLevel::Low.target_size(48), 16);
        assert_eq!(PrivacyLevel::Medium.target_size(48), 8);
        assert_eq!(PrivacyLevel::High.target_size(48), 4);
        assert_eq!(PrivacyLevel::Low.data_reduction(), 9);
        assert_eq!(PrivacyLevel::Medium.data_reduction(), 36);
        assert_eq!(PrivacyLevel::High.data_reduction(), 144);
        // Matches the paper's 300 → 100/50/25.
        assert_eq!(PrivacyLevel::Low.target_size(300), 100);
        assert_eq!(PrivacyLevel::Medium.target_size(300), 50);
        assert_eq!(PrivacyLevel::High.target_size(300), 25);
    }

    #[test]
    fn model_names_match_table3() {
        assert_eq!(PrivacyLevel::Low.to_string(), "dCNN-L");
        assert_eq!(PrivacyLevel::Medium.to_string(), "dCNN-M");
        assert_eq!(PrivacyLevel::High.to_string(), "dCNN-H");
    }

    #[test]
    fn distortion_loses_information_monotonically() {
        let renderer = FrameRenderer::new(5).with_noise(0.0);
        let driver = DriverProfile::generate(0, 42);
        let frame = renderer.render(&driver, CanonicalBehavior::Texting, 1.0);
        let ds = Downsampler::new(48);
        let l1 = |a: &Frame, b: &Frame| -> f32 {
            a.pixels()
                .iter()
                .zip(b.pixels())
                .map(|(x, y)| (x - y).abs())
                .sum()
        };
        let err_low = l1(&frame, &ds.roundtrip(&frame, PrivacyLevel::Low));
        let err_med = l1(&frame, &ds.roundtrip(&frame, PrivacyLevel::Medium));
        let err_high = l1(&frame, &ds.roundtrip(&frame, PrivacyLevel::High));
        assert!(err_low < err_med, "{err_low} vs {err_med}");
        assert!(err_med < err_high, "{err_med} vs {err_high}");
    }

    #[test]
    fn roundtrip_tensor_has_full_shape() {
        let ds = Downsampler::new(48);
        let frames = vec![Frame::new(48, 48); 2];
        let t = ds.roundtrip_tensor(&frames, PrivacyLevel::Medium).unwrap();
        assert_eq!(t.dims(), &[2, 1, 48, 48]);
    }

    #[test]
    fn distillation_trains_student_toward_teacher() {
        let config = CnnConfig {
            input_size: 24,
            classes: 3,
            width: 0.5,
            batch_size: 8,
        };
        let mut teacher = FrameCnn::new(config, 1);
        let renderer = FrameRenderer::new(9).with_size(24);
        let driver = DriverProfile::generate(0, 42);
        let frames: Vec<Frame> = (0..24)
            .map(|i| renderer.render(&driver, CanonicalBehavior::TABLE1[i % 6], i as f64 * 0.4))
            .collect();
        let d_config = DistillConfig {
            epochs: 4,
            batch_size: 8,
            ..DistillConfig::default()
        };
        let mut student =
            distill_dcnn(&mut teacher, &frames, PrivacyLevel::Low, &d_config, 7).unwrap();
        // The student should agree with the teacher on most frames.
        let ds = Downsampler::new(24);
        let full = frames_to_tensor(&frames).unwrap();
        let distorted = ds.roundtrip_tensor(&frames, PrivacyLevel::Low).unwrap();
        let t_pred = teacher.predict(&full).unwrap();
        let s_pred = student.predict(&distorted).unwrap();
        let agree = t_pred.iter().zip(&s_pred).filter(|(a, b)| a == b).count();
        assert!(
            agree as f32 / t_pred.len() as f32 > 0.6,
            "agreement {agree}/{}",
            t_pred.len()
        );
    }
}
