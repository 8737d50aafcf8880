//! The modular analytics engine (paper §3.3): a 1-to-1 mapping between
//! device data-streams and models, combined at a later stage, classifying
//! at each time-step for near-real-time detection.

use darnet_collect::runtime::AlignedTuple;
use darnet_collect::StreamId;
use darnet_sim::{Behavior, Frame};
use darnet_tensor::{Parallelism, Tensor};

use crate::batching::tuples_to_inputs;
use crate::dataset::{frames_to_tensor, IMU_FEATURES, WINDOW_LEN};
use crate::ensemble::{BayesianCombiner, CombinerKind};
use crate::error::CoreError;
use crate::health::ModalityStatus;
use crate::models::FrameCnn;
use crate::privacy::{Downsampler, PrivacyLevel};
use crate::registry::{FusedRow, MultiModalEngine, StreamInput, StreamModelSlot};
use crate::Result;

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// How the two modalities are fused.
    pub combiner: CombinerKind,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            combiner: CombinerKind::Bayesian,
        }
    }
}

/// The IMU model slot: the engine's stream→model mapping is modular, so
/// either the paper's RNN (`ImuModelSlot::Rnn`) or the SVM baseline
/// (`ImuModelSlot::Svm`) can serve the IMU stream. It is the registry's
/// slot type under the two-stream API's name.
pub type ImuModelSlot = StreamModelSlot;

/// Which posteriors a classification was computed from. Anything other
/// than [`FusionSource::Fused`] means the ensemble degraded gracefully to
/// the surviving modality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FusionSource {
    /// Both modalities contributed (the normal ensemble path).
    Fused,
    /// IMU stream was unavailable: the CNN posterior alone decided.
    CnnOnly,
    /// Camera stream was unavailable: the IMU posterior alone decided,
    /// expanded from 3 IMU classes to the 6-class taxonomy.
    ImuOnly,
}

/// Running counts of which path each classification took.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FallbackCounters {
    /// Classifications fused from both modalities.
    pub fused: u64,
    /// CNN-only fallbacks (IMU stream down).
    pub cnn_only: u64,
    /// IMU-only fallbacks (camera stream down).
    pub imu_only: u64,
    /// Classifications (any source) computed from a degraded stream.
    pub degraded: u64,
}

/// One per-time-step classification result.
#[derive(Debug, Clone, PartialEq)]
pub struct StepClassification {
    /// The fused 6-class decision.
    pub behavior: Behavior,
    /// Fused class scores (normalized).
    pub scores: Vec<f32>,
    /// The CNN's 6-class probabilities (empty on an IMU-only fallback).
    pub cnn_probs: Vec<f32>,
    /// The IMU model's 3-class probabilities (empty on a CNN-only
    /// fallback).
    pub imu_probs: Vec<f32>,
    /// Which posteriors produced the decision.
    pub source: FusionSource,
    /// `true` if a contributing stream was lossy enough to be flagged
    /// degraded (but still used).
    pub degraded: bool,
}

impl StepClassification {
    /// The two-stream row writer: updates entry `row.index` of a reused
    /// output vector in place (its inner vectors keep their capacity),
    /// growing the vector by one while it is still shorter than the
    /// batch. `row.parents` is `[camera, imu]`, the pair's registry
    /// order; both are present on this path.
    // darlint: hot
    fn write_row(out: &mut Vec<Self>, row: FusedRow<'_>) -> Result<()> {
        let behavior = Behavior::from_index(row.class)
            .ok_or_else(|| CoreError::Dataset(format!("class index {} out of range", row.class)))?;
        let &[Some(cnn_probs), Some(imu_probs)] = row.parents else {
            return Err(CoreError::NotReady(
                "pair engine fused a step without both posteriors".into(),
            ));
        };
        if out.len() <= row.index {
            // Growth path: only taken during warm-up or at a larger
            // batch shape; the empty vectors are filled just below.
            out.push(StepClassification {
                behavior,
                scores: Vec::new(),
                cnn_probs: Vec::new(),
                imu_probs: Vec::new(),
                source: FusionSource::Fused,
                degraded: false,
            });
        }
        if let Some(slot) = out.get_mut(row.index) {
            slot.behavior = behavior;
            slot.scores.clear();
            slot.scores.extend_from_slice(row.scores);
            slot.cnn_probs.clear();
            slot.cnn_probs.extend_from_slice(cnn_probs);
            slot.imu_probs.clear();
            slot.imu_probs.extend_from_slice(imu_probs);
            slot.source = FusionSource::Fused;
            slot.degraded = false;
        }
        Ok(())
    }
}

/// The assembled two-stream engine: frame CNN + IMU model + combiner,
/// with optional per-privacy-level dCNN students for distorted input.
///
/// It is the N=2 configuration of the registry engine, kept as its own
/// type for two reasons. The `classify_*_into` methods are thin
/// delegations to an inner [`MultiModalEngine`] — the crate's only
/// zero-alloc classify implementation — with a row writer that fills
/// [`StepClassification`]s. The allocating `classify_step` /
/// `classify_batch` / `classify_step_degraded` / `classify_step_private`
/// methods are the *reference path*: they run each model's allocating
/// `predict_proba` and build fresh vectors per step, sharing no
/// workspace with the `_into` path, and are what the N=2 bitwise
/// proptests compare the registry against. That is why they stay.
pub struct AnalyticsEngine {
    /// The registry engine over `[CAMERA_FRONT, IMU]` (the pair CPT's
    /// parent order). It owns both models, the fitted combiner, and every
    /// session buffer of the zero-alloc path.
    inner: MultiModalEngine,
    downsampler: Downsampler,
    students: Vec<(PrivacyLevel, FrameCnn)>,
    fallbacks: FallbackCounters,
}

impl AnalyticsEngine {
    /// Assembles an engine from trained components.
    pub fn new(
        cnn: FrameCnn,
        imu: ImuModelSlot,
        combiner: BayesianCombiner,
        config: EngineConfig,
    ) -> Self {
        let full = cnn.config().input_size;
        AnalyticsEngine {
            // The pair CPT is carried over verbatim into its N-ary form,
            // so N=2 fusion is bit-for-bit the historical pair combiner.
            inner: MultiModalEngine::darnet_pair(config.combiner, cnn, imu, combiner.to_nary()),
            downsampler: Downsampler::new(full),
            students: Vec::new(),
            fallbacks: FallbackCounters::default(),
        }
    }

    /// Installs a [`Parallelism`] handle on the inner registry engine
    /// ([`MultiModalEngine::set_parallelism`]): a non-serial one lets the
    /// `classify_*_into` paths run the CNN and IMU streams of a batch on
    /// concurrent workers. The models and students themselves, and the
    /// whole allocating reference path, always run inline on the caller's
    /// thread.
    pub fn set_parallelism(&mut self, par: Parallelism) {
        self.inner.set_parallelism(par);
    }

    /// Running counts of fused vs fallback classifications.
    pub fn fallback_counters(&self) -> FallbackCounters {
        self.fallbacks
    }

    /// `(pool_hits, cold_misses)` of the engine's session workspace.
    /// Once the `_into` paths are warm at a given batch shape, the cold
    /// misses stay constant across calls — the observable form of the
    /// zero-alloc steady state (DESIGN.md §12).
    pub fn workspace_stats(&self) -> (u64, u64) {
        self.inner.workspace_stats()
    }

    /// Registers a distilled dCNN student for a privacy level. Like every
    /// model in an engine it runs its kernels inline from here on.
    pub fn register_dcnn(&mut self, level: PrivacyLevel, mut student: FrameCnn) {
        student.set_parallelism(Parallelism::serial());
        self.students.retain(|(l, _)| *l != level);
        self.students.push((level, student));
    }

    /// Privacy levels with registered students.
    pub fn privacy_levels(&self) -> Vec<PrivacyLevel> {
        self.students.iter().map(|(l, _)| *l).collect()
    }

    /// The pair's models in registry order: (front-camera CNN, IMU model).
    fn models(&mut self) -> Result<(&mut StreamModelSlot, &mut StreamModelSlot)> {
        let mut models = self.inner.models_mut();
        match (models.next(), models.next()) {
            (Some(cnn), Some(imu)) => Ok((cnn, imu)),
            _ => Err(CoreError::NotReady(
                "pair engine is missing a stream model".into(),
            )),
        }
    }

    fn cnn_probs(&mut self, frame: &Frame) -> Result<Vec<f32>> {
        let frames = frames_to_tensor(std::slice::from_ref(frame))?;
        Ok(self.models()?.0.predict_proba(&frames)?.into_vec())
    }

    fn imu_probs(&mut self, window: &Tensor) -> Result<Vec<f32>> {
        if window.dims() != [1, WINDOW_LEN, IMU_FEATURES] {
            return Err(CoreError::Dataset(format!(
                "expected [1, {WINDOW_LEN}, {IMU_FEATURES}] window, got {:?}",
                window.dims()
            )));
        }
        Ok(self.models()?.1.predict_proba(window)?.into_vec())
    }

    /// Fuses one step's posteriors through the registry's fusion policy:
    /// both present → the configured pair combiner; one absent → the
    /// survivor's class-map expansion (the CNN posterior verbatim, or
    /// each IMU class's mass split uniformly across the behaviours
    /// mapping to it).
    fn fuse(&self, cnn_probs: Option<&[f32]>, imu_probs: Option<&[f32]>) -> Result<Vec<f32>> {
        let mut scores = Vec::with_capacity(6);
        self.inner.fuse_row(&[cnn_probs, imu_probs], &mut scores)?;
        Ok(scores)
    }

    fn decide(
        &mut self,
        scores: Vec<f32>,
        cnn_probs: Vec<f32>,
        imu_probs: Vec<f32>,
        source: FusionSource,
        degraded: bool,
    ) -> Result<StepClassification> {
        let best = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0);
        let behavior = Behavior::from_index(best)
            .ok_or_else(|| CoreError::Dataset(format!("class index {best} out of range")))?;
        match source {
            FusionSource::Fused => self.fallbacks.fused += 1,
            FusionSource::CnnOnly => self.fallbacks.cnn_only += 1,
            FusionSource::ImuOnly => self.fallbacks.imu_only += 1,
        }
        if degraded {
            self.fallbacks.degraded += 1;
        }
        Ok(StepClassification {
            behavior,
            scores,
            cnn_probs,
            imu_probs,
            source,
            degraded,
        })
    }

    fn classify_with_cnn_probs(
        &mut self,
        cnn_probs: Vec<f32>,
        window: &Tensor,
    ) -> Result<StepClassification> {
        let imu_probs = self.imu_probs(window)?;
        let scores = self.fuse(Some(&cnn_probs), Some(&imu_probs))?;
        self.decide(scores, cnn_probs, imu_probs, FusionSource::Fused, false)
    }

    /// Degradation-tolerant classification: classifies from whichever
    /// modalities are present, falling back to the surviving model's
    /// posterior when one is `None`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotReady`] when both modalities are absent;
    /// propagates model errors otherwise.
    pub fn classify_step_degraded(
        &mut self,
        frame: Option<&Frame>,
        window: Option<&Tensor>,
        flag_degraded: bool,
    ) -> Result<StepClassification> {
        let source = match (frame, window) {
            (Some(_), Some(_)) => FusionSource::Fused,
            (Some(_), None) => FusionSource::CnnOnly,
            (None, Some(_)) => FusionSource::ImuOnly,
            (None, None) => {
                return Err(CoreError::NotReady(
                    "both modality streams unavailable — nothing to classify from".into(),
                ))
            }
        };
        let cnn_probs = frame.map(|f| self.cnn_probs(f)).transpose()?;
        let imu_probs = window.map(|w| self.imu_probs(w)).transpose()?;
        let scores = self.fuse(cnn_probs.as_deref(), imu_probs.as_deref())?;
        self.decide(
            scores,
            cnn_probs.unwrap_or_default(),
            imu_probs.unwrap_or_default(),
            source,
            flag_degraded,
        )
    }

    /// Health-aware classification: both inputs are physically present,
    /// but each stream's [`ModalityStatus`] (from
    /// [`crate::health::HealthPolicy::assess`] over the controller's
    /// delivery accounting) gates whether it participates. An
    /// `Unavailable` stream's posterior is dropped entirely; a `Degraded`
    /// one still fuses but flags the result.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotReady`] when both streams are unavailable.
    pub fn classify_step_checked(
        &mut self,
        frame: &Frame,
        window: &Tensor,
        camera: ModalityStatus,
        imu: ModalityStatus,
    ) -> Result<StepClassification> {
        let use_frame = (camera != ModalityStatus::Unavailable).then_some(frame);
        let use_window = (imu != ModalityStatus::Unavailable).then_some(window);
        let degraded = (use_frame.is_some() && camera == ModalityStatus::Degraded)
            || (use_window.is_some() && imu == ModalityStatus::Degraded);
        self.classify_step_degraded(use_frame, use_window, degraded)
    }

    /// Classifies one time-step: a full-resolution frame plus the IMU
    /// window ending at the same instant.
    ///
    /// # Errors
    ///
    /// Propagates model errors; returns a dataset error on a malformed
    /// window.
    pub fn classify_step(&mut self, frame: &Frame, window: &Tensor) -> Result<StepClassification> {
        self.classify_step_degraded(Some(frame), Some(window), false)
    }

    /// Classifies a batch of aligned time-steps in one pass: `frames[i]`
    /// pairs with window `i` of the `[n, WINDOW_LEN, IMU_FEATURES]`
    /// tensor. Each item's result is identical to what
    /// [`AnalyticsEngine::classify_step`] would produce for it alone; the
    /// batch amortizes the per-call model overhead.
    ///
    /// # Errors
    ///
    /// Propagates model errors; returns a dataset error when the window
    /// count does not match the frame count.
    pub fn classify_batch(
        &mut self,
        frames: &[Frame],
        windows: &Tensor,
    ) -> Result<Vec<StepClassification>> {
        let n = frames.len();
        check_windows(n, windows)?;
        if n == 0 {
            return Ok(Vec::new());
        }
        let frame_tensor = frames_to_tensor(frames)?;
        let (cnn, imu) = self.models()?;
        let cnn_probs = cnn.predict_proba(&frame_tensor)?;
        let imu_probs = imu.predict_proba(windows)?;
        let classes = cnn_probs.dims()[1];
        let imu_classes = imu_probs.dims()[1];
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let cp = cnn_probs.data()[i * classes..(i + 1) * classes].to_vec();
            let ip = imu_probs.data()[i * imu_classes..(i + 1) * imu_classes].to_vec();
            let scores = self.fuse(Some(&cp), Some(&ip))?;
            out.push(self.decide(scores, cp, ip, FusionSource::Fused, false)?);
        }
        Ok(out)
    }

    /// Classifies a flushed micro-batch of aligned tuples — the
    /// collect-to-engine feed path. Results are in tuple order and
    /// identical to classifying each tuple alone.
    ///
    /// # Errors
    ///
    /// Propagates model and window-shape errors.
    pub fn classify_tuples(&mut self, tuples: &[AlignedTuple]) -> Result<Vec<StepClassification>> {
        let (frames, windows) = tuples_to_inputs(tuples)?;
        self.classify_batch(&frames, &windows)
    }

    /// [`AnalyticsEngine::classify_step`] on the session's reused
    /// buffers: equivalent to calling
    /// [`AnalyticsEngine::classify_batch_into`] with a single-item batch.
    ///
    /// # Errors
    ///
    /// Propagates model errors; returns a dataset error on a malformed
    /// window.
    pub fn classify_step_into(
        &mut self,
        frame: &Frame,
        window: &Tensor,
        out: &mut Vec<StepClassification>,
    ) -> Result<()> {
        self.classify_batch_into(std::slice::from_ref(frame), window, out)
    }

    /// [`AnalyticsEngine::classify_batch`] writing results into a reused
    /// output vector: existing entries are updated in place (their inner
    /// vectors keep their capacity) and the vector is truncated or grown
    /// to the batch length. The work is the inner registry engine's
    /// [`MultiModalEngine::classify_batch_checked_into`]; after one
    /// warm-up call at a given batch shape, a steady-state call performs
    /// **zero heap allocations** end to end, and every result is
    /// bitwise-identical to [`AnalyticsEngine::classify_batch`].
    ///
    /// # Errors
    ///
    /// Propagates model errors; returns a dataset error when the window
    /// count does not match the frame count.
    // darlint: hot
    pub fn classify_batch_into(
        &mut self,
        frames: &[Frame],
        windows: &Tensor,
        out: &mut Vec<StepClassification>,
    ) -> Result<()> {
        check_windows(frames.len(), windows)?;
        if frames.is_empty() {
            out.clear();
            return Ok(());
        }
        let inputs = [
            (StreamId::CAMERA_FRONT, StreamInput::Frames(frames)),
            (StreamId::IMU, StreamInput::Windows(windows)),
        ];
        let n = self
            .inner
            .classify_rows(&inputs, &[], |row| StepClassification::write_row(out, row))?;
        out.truncate(n);
        self.fallbacks.fused += n as u64;
        Ok(())
    }

    /// [`AnalyticsEngine::classify_tuples`] on the session's reused
    /// buffers, through the registry's tuple feed path
    /// ([`MultiModalEngine::classify_tuples_into`]). After one warm-up
    /// call at a given batch shape the drain loop performs zero heap
    /// allocations per flush; results are bitwise-identical to
    /// [`AnalyticsEngine::classify_tuples`].
    ///
    /// # Errors
    ///
    /// Propagates model and window-shape errors.
    // darlint: hot
    pub fn classify_tuples_into(
        &mut self,
        tuples: &[AlignedTuple],
        out: &mut Vec<StepClassification>,
    ) -> Result<()> {
        let n = self.inner.classify_tuple_rows(
            StreamId::CAMERA_FRONT,
            StreamId::IMU,
            tuples,
            |row| StepClassification::write_row(out, row),
        )?;
        out.truncate(n);
        self.fallbacks.fused += n as u64;
        Ok(())
    }

    /// Classifies one time-step from a *distorted* frame tagged with its
    /// privacy level (the paper's remote privacy path: "the analytics
    /// engine picks the appropriate classifier").
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotReady`] if no student is registered for the
    /// level.
    pub fn classify_step_private(
        &mut self,
        distorted: &Frame,
        level: PrivacyLevel,
        window: &Tensor,
    ) -> Result<StepClassification> {
        let restored = self.downsampler.restore(distorted);
        let frames = frames_to_tensor(std::slice::from_ref(&restored))?;
        let student = self
            .students
            .iter_mut()
            .find(|(l, _)| *l == level)
            .map(|(_, s)| s)
            .ok_or_else(|| {
                CoreError::NotReady(format!("no dCNN registered for {}", level.model_name()))
            })?;
        let cnn_probs = student.predict_proba(&frames)?.into_vec();
        self.classify_with_cnn_probs(cnn_probs, window)
    }
}

/// The batch-shape check shared by the allocating and `_into` batch
/// entry points: one `[WINDOW_LEN, IMU_FEATURES]` window per frame.
fn check_windows(n: usize, windows: &Tensor) -> Result<()> {
    if windows.dims() != [n, WINDOW_LEN, IMU_FEATURES] {
        return Err(CoreError::Dataset(format!(
            "expected [{n}, {WINDOW_LEN}, {IMU_FEATURES}] windows, got {:?}",
            windows.dims()
        )));
    }
    Ok(())
}

impl std::fmt::Debug for AnalyticsEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalyticsEngine")
            .field("inner", &self.inner)
            .field("privacy_levels", &self.privacy_levels())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{CnnConfig, ImuRnn, ImuSvm, RnnConfig};

    fn tiny_engine(kind: CombinerKind) -> AnalyticsEngine {
        let rnn_config = RnnConfig {
            hidden: 4,
            depth: 1,
            ..RnnConfig::default()
        };
        let mut rnn = ImuRnn::new(rnn_config, 2);
        // Minimal fit so the standardizer exists.
        let x = Tensor::ones(&[6, WINDOW_LEN, IMU_FEATURES]);
        rnn.fit(&x, &[0, 1, 2, 0, 1, 2], 1).unwrap();
        tiny_engine_with(kind, ImuModelSlot::Rnn(rnn))
    }

    /// The same engine with the SVM baseline in the IMU slot.
    fn tiny_svm_engine(kind: CombinerKind) -> AnalyticsEngine {
        use darnet_nn::SvmConfig;
        let mut svm = ImuSvm::new(WINDOW_LEN, IMU_FEATURES, 3, SvmConfig::default());
        let mut x = Tensor::zeros(&[6, WINDOW_LEN, IMU_FEATURES]);
        for (i, v) in x.data_mut().iter_mut().enumerate() {
            *v = ((i * 7) % 11) as f32 * 0.1;
        }
        svm.fit(
            &x,
            &[0, 1, 2, 0, 1, 2],
            &mut darnet_tensor::SplitMix64::new(5),
        )
        .unwrap();
        tiny_engine_with(kind, ImuModelSlot::Svm(svm))
    }

    fn tiny_engine_with(kind: CombinerKind, imu: ImuModelSlot) -> AnalyticsEngine {
        let cnn_config = CnnConfig {
            input_size: 24,
            classes: 6,
            width: 0.5,
            ..CnnConfig::default()
        };
        let cnn = FrameCnn::new(cnn_config, 1);
        let mut combiner = BayesianCombiner::darnet();
        let cnn_probs = Tensor::full(&[6, 6], 1.0 / 6.0);
        let imu_probs = Tensor::full(&[6, 3], 1.0 / 3.0);
        combiner
            .fit(&cnn_probs, &imu_probs, &[0, 1, 2, 3, 4, 5])
            .unwrap();
        AnalyticsEngine::new(cnn, imu, combiner, EngineConfig { combiner: kind })
    }

    #[test]
    fn classify_step_returns_distribution() {
        let mut engine = tiny_engine(CombinerKind::Bayesian);
        let frame = Frame::new(24, 24);
        let window = Tensor::zeros(&[1, WINDOW_LEN, IMU_FEATURES]);
        let out = engine.classify_step(&frame, &window).unwrap();
        assert_eq!(out.scores.len(), 6);
        assert!((out.scores.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        assert_eq!(out.cnn_probs.len(), 6);
        assert_eq!(out.imu_probs.len(), 3);
    }

    #[test]
    fn classify_batch_matches_per_item_steps() {
        use darnet_sim::{DriverProfile, FrameRenderer};

        let renderer = FrameRenderer::new(7).with_size(24);
        let driver = DriverProfile::generate(0, 42);
        let behaviors = [
            Behavior::NormalDriving,
            Behavior::Reaching,
            Behavior::HairMakeup,
            Behavior::Talking,
            Behavior::Texting,
        ];
        let frames: Vec<Frame> = behaviors
            .iter()
            .enumerate()
            .map(|(i, &b)| renderer.render(&driver, b, i as f64 * 0.31))
            .collect();
        let n = frames.len();
        let mut windows = Tensor::zeros(&[n, WINDOW_LEN, IMU_FEATURES]);
        for (i, v) in windows.data_mut().iter_mut().enumerate() {
            *v = (i % 7) as f32 * 0.1;
        }

        let mut serial = tiny_engine(CombinerKind::Bayesian);
        let batch = serial.classify_batch(&frames, &windows).unwrap();
        assert_eq!(batch.len(), n);
        assert_eq!(serial.fallback_counters().fused, n as u64);

        // The reference path ignores the policy: bitwise-identical results.
        let mut parallel = tiny_engine(CombinerKind::Bayesian);
        parallel.set_parallelism(Parallelism::new(4).with_min_work(1));
        let par_batch = parallel.classify_batch(&frames, &windows).unwrap();

        // And the batch must match per-item classification exactly.
        let mut single = tiny_engine(CombinerKind::Bayesian);
        let row = WINDOW_LEN * IMU_FEATURES;
        for i in 0..n {
            let w = Tensor::from_vec(
                windows.data()[i * row..(i + 1) * row].to_vec(),
                &[1, WINDOW_LEN, IMU_FEATURES],
            )
            .unwrap();
            let step = single.classify_step(&frames[i], &w).unwrap();
            assert_eq!(batch[i], step, "serial batch item {i} diverged");
            assert_eq!(par_batch[i], step, "parallel batch item {i} diverged");
        }
    }

    #[test]
    fn classify_batch_into_matches_allocating_path() {
        use darnet_sim::{DriverProfile, FrameRenderer};

        let renderer = FrameRenderer::new(11).with_size(24);
        let driver = DriverProfile::generate(0, 42);
        let behaviors = [
            Behavior::NormalDriving,
            Behavior::Texting,
            Behavior::Reaching,
        ];
        let frames: Vec<Frame> = behaviors
            .iter()
            .enumerate()
            .map(|(i, &b)| renderer.render(&driver, b, i as f64 * 0.29))
            .collect();
        let n = frames.len();
        let mut windows = Tensor::zeros(&[n, WINDOW_LEN, IMU_FEATURES]);
        for (i, v) in windows.data_mut().iter_mut().enumerate() {
            *v = (i % 5) as f32 * 0.2;
        }

        let mut baseline = tiny_engine(CombinerKind::Bayesian);
        let expected = baseline.classify_batch(&frames, &windows).unwrap();

        // Serial engine: repeated calls reuse the session buffers and stay
        // bitwise-identical; the engine workspace stops allocating after
        // the first call.
        let mut engine = tiny_engine(CombinerKind::Bayesian);
        let mut out = Vec::new();
        engine
            .classify_batch_into(&frames, &windows, &mut out)
            .unwrap();
        assert_eq!(out, expected);
        let misses = engine.workspace_stats().1;
        for round in 0..2 {
            engine
                .classify_batch_into(&frames, &windows, &mut out)
                .unwrap();
            assert_eq!(out, expected, "round {round} diverged");
        }
        assert_eq!(engine.workspace_stats().1, misses, "engine workspace grew");
        assert_eq!(engine.fallback_counters().fused, 3 * n as u64);

        // Streams on concurrent workers: same results bitwise.
        let mut parallel = tiny_engine(CombinerKind::Bayesian);
        parallel.set_parallelism(Parallelism::new(4).with_min_work(1));
        let mut par_out = Vec::new();
        parallel
            .classify_batch_into(&frames, &windows, &mut par_out)
            .unwrap();
        assert_eq!(par_out, expected);

        // A shorter batch truncates the reused output vector.
        let short_windows = Tensor::from_vec(
            windows.data()[..WINDOW_LEN * IMU_FEATURES].to_vec(),
            &[1, WINDOW_LEN, IMU_FEATURES],
        )
        .unwrap();
        engine
            .classify_batch_into(&frames[..1], &short_windows, &mut out)
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0], expected[0]);
    }

    #[test]
    fn classify_tuples_into_matches_allocating_path() {
        use darnet_sim::{DriverProfile, FrameRenderer};

        let renderer = FrameRenderer::new(13).with_size(24);
        let driver = DriverProfile::generate(0, 42);
        let tuples: Vec<AlignedTuple> = (0..4)
            .map(|i| AlignedTuple {
                t: i as f64 * 0.25,
                frame: renderer.render(&driver, Behavior::ALL[i % 6], i as f64 * 0.27),
                window: (0..WINDOW_LEN * IMU_FEATURES)
                    .map(|k| ((k + i) % 9) as f32 * 0.1)
                    .collect(),
            })
            .collect();
        let bad = vec![AlignedTuple {
            t: 0.0,
            frame: Frame::new(24, 24),
            window: vec![0.0; 7],
        }];

        // The `_into` path is the inner registry engine's; the allocating
        // path is the reference. Bitwise equal for every combiner, and
        // with the SVM baseline in the IMU slot (whose non-workspace
        // fallback lives only in `StreamModelSlot`).
        type Build = fn(CombinerKind) -> AnalyticsEngine;
        for build in [tiny_engine as Build, tiny_svm_engine as Build] {
            for kind in [
                CombinerKind::Bayesian,
                CombinerKind::Product,
                CombinerKind::CnnOnly,
            ] {
                let expected = build(kind).classify_tuples(&tuples).unwrap();
                assert_eq!(expected.len(), tuples.len());

                let mut engine = build(kind);
                let mut out = Vec::new();
                for round in 0..3 {
                    engine.classify_tuples_into(&tuples, &mut out).unwrap();
                    assert_eq!(out, expected, "{kind:?} round {round} diverged");
                }
                assert_eq!(engine.fallback_counters().fused, 3 * tuples.len() as u64);

                // Malformed tuple windows are rejected without disturbing
                // state.
                assert!(engine.classify_tuples_into(&bad, &mut out).is_err());
                engine.classify_tuples_into(&tuples, &mut out).unwrap();
                assert_eq!(out, expected);
                // An empty flush clears the reused output.
                engine.classify_tuples_into(&[], &mut out).unwrap();
                assert!(out.is_empty());
            }
        }
    }

    #[test]
    fn classify_step_into_matches_classify_step() {
        let frame = Frame::new(24, 24);
        let window = Tensor::zeros(&[1, WINDOW_LEN, IMU_FEATURES]);
        let mut baseline = tiny_engine(CombinerKind::Bayesian);
        let expected = baseline.classify_step(&frame, &window).unwrap();
        let mut engine = tiny_engine(CombinerKind::Bayesian);
        let mut out = Vec::new();
        engine
            .classify_step_into(&frame, &window, &mut out)
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0], expected);
    }

    #[test]
    fn classify_batch_rejects_mismatched_windows() {
        let mut engine = tiny_engine(CombinerKind::Bayesian);
        let frames = vec![Frame::new(24, 24), Frame::new(24, 24)];
        let windows = Tensor::zeros(&[3, WINDOW_LEN, IMU_FEATURES]);
        assert!(engine.classify_batch(&frames, &windows).is_err());
        assert!(engine
            .classify_batch(&[], &Tensor::zeros(&[0, WINDOW_LEN, IMU_FEATURES]))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn malformed_window_is_rejected() {
        let mut engine = tiny_engine(CombinerKind::Bayesian);
        let frame = Frame::new(24, 24);
        let bad = Tensor::zeros(&[1, 5, IMU_FEATURES]);
        assert!(engine.classify_step(&frame, &bad).is_err());
    }

    #[test]
    fn cnn_only_mode_ignores_imu() {
        let mut engine = tiny_engine(CombinerKind::CnnOnly);
        let frame = Frame::new(24, 24);
        let window = Tensor::zeros(&[1, WINDOW_LEN, IMU_FEATURES]);
        let out = engine.classify_step(&frame, &window).unwrap();
        assert_eq!(out.scores, out.cnn_probs);
    }

    #[test]
    fn fused_path_reports_source_and_counts() {
        let mut engine = tiny_engine(CombinerKind::Bayesian);
        let frame = Frame::new(24, 24);
        let window = Tensor::zeros(&[1, WINDOW_LEN, IMU_FEATURES]);
        let out = engine.classify_step(&frame, &window).unwrap();
        assert_eq!(out.source, FusionSource::Fused);
        assert!(!out.degraded);
        assert_eq!(engine.fallback_counters().fused, 1);
    }

    #[test]
    fn missing_imu_falls_back_to_cnn_posterior() {
        let mut engine = tiny_engine(CombinerKind::Bayesian);
        let frame = Frame::new(24, 24);
        let out = engine
            .classify_step_degraded(Some(&frame), None, false)
            .unwrap();
        assert_eq!(out.source, FusionSource::CnnOnly);
        assert_eq!(out.scores, out.cnn_probs);
        assert!(out.imu_probs.is_empty());
        assert_eq!(engine.fallback_counters().cnn_only, 1);
    }

    #[test]
    fn missing_camera_falls_back_to_imu_posterior() {
        let mut engine = tiny_engine(CombinerKind::Bayesian);
        let window = Tensor::zeros(&[1, WINDOW_LEN, IMU_FEATURES]);
        let out = engine
            .classify_step_degraded(None, Some(&window), false)
            .unwrap();
        assert_eq!(out.source, FusionSource::ImuOnly);
        assert!(out.cnn_probs.is_empty());
        assert_eq!(out.scores.len(), 6);
        assert!((out.scores.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        // The expansion conserves each IMU class's mass: talking/texting map
        // 1-to-1, so their 6-class score equals the 3-class posterior.
        assert!((out.scores[1] - out.imu_probs[1]).abs() < 1e-6);
        assert!((out.scores[2] - out.imu_probs[2]).abs() < 1e-6);
        assert_eq!(engine.fallback_counters().imu_only, 1);
    }

    #[test]
    fn both_streams_down_is_an_error() {
        let mut engine = tiny_engine(CombinerKind::Bayesian);
        assert!(matches!(
            engine.classify_step_degraded(None, None, false),
            Err(CoreError::NotReady(_))
        ));
    }

    #[test]
    fn stale_stream_health_drives_fallback() {
        use crate::health::HealthPolicy;
        use darnet_collect::StreamHealth;

        let policy = HealthPolicy;
        let now = 30.0;
        // Camera stream went silent 20 s ago; IMU is fresh and gap-free.
        let camera_health = StreamHealth {
            agent_id: 1,
            delivered: 20,
            duplicates: 0,
            highest_seq: 19,
            gaps: 0,
            last_arrival: 10.0,
            shed: 0,
        };
        let imu_health = StreamHealth {
            agent_id: 0,
            last_arrival: 29.9,
            ..camera_health
        };
        let camera = policy.assess(Some(&camera_health), now);
        let imu = policy.assess(Some(&imu_health), now);
        assert_eq!(camera, ModalityStatus::Unavailable);
        assert_eq!(imu, ModalityStatus::Healthy);

        let mut engine = tiny_engine(CombinerKind::Bayesian);
        let frame = Frame::new(24, 24);
        let window = Tensor::zeros(&[1, WINDOW_LEN, IMU_FEATURES]);
        let out = engine
            .classify_step_checked(&frame, &window, camera, imu)
            .unwrap();
        assert_eq!(out.source, FusionSource::ImuOnly);
        assert_eq!(engine.fallback_counters().imu_only, 1);
        assert_eq!(engine.fallback_counters().fused, 0);
    }

    #[test]
    fn degraded_stream_still_fuses_but_flags() {
        let mut engine = tiny_engine(CombinerKind::Bayesian);
        let frame = Frame::new(24, 24);
        let window = Tensor::zeros(&[1, WINDOW_LEN, IMU_FEATURES]);
        let out = engine
            .classify_step_checked(
                &frame,
                &window,
                ModalityStatus::Degraded,
                ModalityStatus::Healthy,
            )
            .unwrap();
        assert_eq!(out.source, FusionSource::Fused);
        assert!(out.degraded);
        assert_eq!(engine.fallback_counters().degraded, 1);
        assert_eq!(engine.fallback_counters().fused, 1);
    }

    #[test]
    fn private_path_requires_registered_student() {
        let mut engine = tiny_engine(CombinerKind::Bayesian);
        let small = Frame::new(8, 8);
        let window = Tensor::zeros(&[1, WINDOW_LEN, IMU_FEATURES]);
        assert!(matches!(
            engine.classify_step_private(&small, PrivacyLevel::Medium, &window),
            Err(CoreError::NotReady(_))
        ));
        // Register and retry.
        let student = FrameCnn::new(
            CnnConfig {
                input_size: 24,
                classes: 6,
                width: 0.5,
                ..CnnConfig::default()
            },
            9,
        );
        engine.register_dcnn(PrivacyLevel::Medium, student);
        assert_eq!(engine.privacy_levels(), vec![PrivacyLevel::Medium]);
        let out = engine
            .classify_step_private(&small, PrivacyLevel::Medium, &window)
            .unwrap();
        assert_eq!(out.scores.len(), 6);
    }
}
