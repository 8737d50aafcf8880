//! The stream side of the registry: how a stream's classes map onto the
//! engine's ([`ClassMap`]), what identifies it ([`ModalityDescriptor`]),
//! the model that serves it ([`StreamModelSlot`]), a batch of its input
//! ([`StreamInput`]), product-rule fusion over any present subset, and
//! the engine's per-stream state.

use darnet_collect::StreamId;
use darnet_sim::Frame;
use darnet_tensor::{Tensor, Workspace};

use crate::dataset::frames_to_tensor_into;
use crate::error::CoreError;
use crate::health::ModalityStatus;
use crate::models::{FrameCnn, ImuRnn, ImuSvm};
use crate::privacy::{restore_frames_into, PrivacyLevel};
use crate::Result;

/// How a stream's native class space maps onto the engine's canonical
/// class space.
#[derive(Debug, Clone, PartialEq)]
pub enum ClassMap {
    /// The stream natively speaks the canonical class space.
    Identity,
    /// `map[c]` is the native class observed when the canonical class is
    /// `c` — a many-to-one projection (the IMU's 6→3 collapse). Expansion
    /// back onto the canonical space splits each native class's mass
    /// uniformly across the canonical classes projecting onto it.
    Projection(Vec<usize>),
}

impl ClassMap {
    /// The DarNet IMU projection: 6 behaviours onto 3 manipulation
    /// classes (mirrors the taxonomy's `imu_class` assignment).
    pub fn darnet_imu() -> ClassMap {
        ClassMap::Projection(vec![0, 1, 2, 0, 0, 0])
    }

    /// The stream's native class count given the canonical count.
    pub fn native_classes(&self, canonical_classes: usize) -> usize {
        match self {
            ClassMap::Identity => canonical_classes,
            ClassMap::Projection(m) => m.iter().copied().max().map_or(0, |x| x + 1),
        }
    }

    /// Expands a native posterior onto the canonical class space — the
    /// single-surviving-stream fallback. [`ClassMap::Identity`] passes the
    /// posterior through verbatim (the CNN-only fallback);
    /// [`ClassMap::Projection`] splits each native class's mass uniformly
    /// over its canonical preimage and renormalizes (the IMU-only
    /// fallback).
    ///
    /// # Errors
    ///
    /// Returns a dataset error on width mismatches.
    pub fn expand_into(
        &self,
        probs: &[f32],
        canonical_classes: usize,
        scores: &mut Vec<f32>,
    ) -> Result<()> {
        match self {
            ClassMap::Identity => {
                if probs.len() != canonical_classes {
                    return Err(CoreError::Dataset(format!(
                        "identity expansion expects {canonical_classes} probabilities, got {}",
                        probs.len()
                    )));
                }
                scores.clear();
                scores.extend_from_slice(probs);
            }
            ClassMap::Projection(m) => {
                if m.len() != canonical_classes
                    || probs.len() != self.native_classes(canonical_classes)
                {
                    return Err(CoreError::Dataset(format!(
                        "projection expansion: map {} / probs {} for {canonical_classes} classes",
                        m.len(),
                        probs.len()
                    )));
                }
                scores.clear();
                for c in 0..canonical_classes {
                    let native = m[c];
                    // Preimage size of this native class, by scan:
                    // O(classes²) on 6–8 classes, allocation-free.
                    let fanout = m.iter().filter(|&&x| x == native).count();
                    scores.push(probs[native] / fanout as f32);
                }
                let total: f32 = scores.iter().sum();
                if total > 0.0 {
                    for s in scores.iter_mut() {
                        *s /= total;
                    }
                }
            }
        }
        Ok(())
    }
}

/// Everything the engine needs to know about one registered stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ModalityDescriptor {
    /// The stream's collection-layer identity.
    pub id: StreamId,
    /// Human-readable name (defaults to the stream label).
    pub name: String,
    /// Native→canonical class mapping.
    pub class_map: ClassMap,
}

impl ModalityDescriptor {
    /// A descriptor with the default name.
    pub fn new(id: StreamId, class_map: ClassMap) -> Self {
        ModalityDescriptor {
            name: id.label(),
            id,
            class_map,
        }
    }

    /// The paper's front-camera descriptor (identity over the canonical
    /// classes).
    pub fn darnet_camera() -> Self {
        ModalityDescriptor::new(StreamId::CAMERA_FRONT, ClassMap::Identity)
    }

    /// The paper's IMU descriptor (6→3 projection).
    pub fn darnet_imu() -> Self {
        ModalityDescriptor::new(StreamId::IMU, ClassMap::darnet_imu())
    }

    /// Native class count given the canonical count.
    pub fn native_classes(&self, canonical_classes: usize) -> usize {
        self.class_map.native_classes(canonical_classes)
    }
}

/// Concrete storage for a registered stream's model — the registry's
/// slot type and the one model interface every registered stream
/// serves: a zero-alloc batch posterior over the stream's assembled
/// input tensor.
// One slot exists per registered stream and never moves after
// registration, so the size gap between variants doesn't justify boxing.
#[allow(clippy::large_enum_variant)]
pub enum StreamModelSlot {
    /// A frame CNN (camera streams).
    Cnn(FrameCnn),
    /// The deep bidirectional LSTM (IMU streams).
    Rnn(ImuRnn),
    /// The linear SVM baseline (IMU streams).
    Svm(ImuSvm),
}

impl std::fmt::Debug for StreamModelSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamModelSlot::Cnn(_) => f.write_str("StreamModelSlot::Cnn"),
            StreamModelSlot::Rnn(_) => f.write_str("StreamModelSlot::Rnn"),
            StreamModelSlot::Svm(_) => f.write_str("StreamModelSlot::Svm"),
        }
    }
}

impl StreamModelSlot {
    /// The allocating reference posterior, `[n, native_classes]`: each
    /// model's own `predict_proba`, sharing no workspace or buffer with
    /// [`Self::predict_proba_into`]. This is the side of the
    /// bitwise proptests the zero-alloc path is held to.
    ///
    /// # Errors
    ///
    /// Propagates model errors (e.g. not fitted, shape mismatch).
    pub fn predict_proba(&mut self, input: &Tensor) -> Result<Tensor> {
        match self {
            StreamModelSlot::Cnn(m) => m.predict_proba(input),
            StreamModelSlot::Rnn(m) => m.predict_proba(input),
            StreamModelSlot::Svm(m) => m.predict_proba(input),
        }
    }

    /// Forward FLOPs per sample — one frame or one window — computed from
    /// the model's configuration (see each model's own count). The engine
    /// weighs a stream by it when it schedules a call.
    pub fn flops_per_sample(&self) -> usize {
        match self {
            StreamModelSlot::Cnn(m) => m.flops_per_frame(),
            StreamModelSlot::Rnn(m) => m.flops_per_window(),
            StreamModelSlot::Svm(m) => m.flops_per_window(),
        }
    }

    /// The model's native class count.
    pub fn native_classes(&self) -> usize {
        match self {
            StreamModelSlot::Cnn(m) => m.classes(),
            StreamModelSlot::Rnn(m) => m.config().classes,
            StreamModelSlot::Svm(m) => m.classes(),
        }
    }

    /// Writes row-major class probabilities for the batch into `out`
    /// (cleared first), allocating nothing once `out` has capacity.
    ///
    /// # Errors
    ///
    /// Propagates model errors (e.g. not fitted, shape mismatch).
    pub fn predict_proba_into(&mut self, input: &Tensor, out: &mut Vec<f32>) -> Result<()> {
        match self {
            StreamModelSlot::Cnn(m) => m.predict_proba_into(input, out),
            StreamModelSlot::Rnn(m) => m.predict_proba_into(input, out),
            StreamModelSlot::Svm(m) => m.predict_proba_into(input, out),
        }
    }
}

/// One stream's raw observations for a batch of aligned time-steps.
#[derive(Debug, Clone, Copy)]
pub enum StreamInput<'a> {
    /// Camera frames, one per time-step.
    Frames(&'a [Frame]),
    /// A `[n, window, features]` tensor of per-step windows.
    Windows(&'a Tensor),
}

impl StreamInput<'_> {
    /// Batch length.
    pub fn len(&self) -> usize {
        match self {
            StreamInput::Frames(f) => f.len(),
            StreamInput::Windows(t) => t.dims().first().copied().unwrap_or(0),
        }
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Generalized product-rule fusion over any present subset of parents:
/// for each canonical class the present streams' (class-mapped) posterior
/// factors are multiplied in registry order, then the scores are
/// normalized. Projection-mapped factors are floored at `1e-6` so a
/// coarse modality cannot fully veto classes outside its resolution.
///
/// # Errors
///
/// Returns a dataset error on width mismatches or when every parent is
/// absent.
pub fn product_combine_subset_into(
    parents: &[(Option<&[f32]>, &ClassMap)],
    classes: usize,
    scores: &mut Vec<f32>,
) -> Result<()> {
    let mut present = 0usize;
    for (k, (probs, map)) in parents.iter().enumerate() {
        let Some(probs) = probs else { continue };
        present += 1;
        let want = map.native_classes(classes);
        let map_ok = match map {
            ClassMap::Identity => true,
            ClassMap::Projection(m) => m.len() == classes,
        };
        if !map_ok || probs.len() != want {
            return Err(CoreError::Dataset(format!(
                "product parent {k} expects {want} probabilities, got {}",
                probs.len()
            )));
        }
    }
    if present == 0 {
        return Err(CoreError::NotReady(
            "every parent stream is absent — nothing to fuse".into(),
        ));
    }
    scores.clear();
    for c in 0..classes {
        let mut acc: Option<f32> = None;
        for (probs, map) in parents {
            let Some(probs) = probs else { continue };
            let f = match map {
                ClassMap::Identity => probs[c],
                ClassMap::Projection(m) => probs[m[c]].max(1e-6),
            };
            acc = Some(match acc {
                None => f,
                Some(a) => a * f,
            });
        }
        scores.push(acc.unwrap_or(0.0));
    }
    let total: f32 = scores.iter().sum();
    if total > 0.0 {
        for s in scores.iter_mut() {
            *s /= total;
        }
    }
    Ok(())
}

/// One registered stream: descriptor + model + per-batch scratch.
pub(super) struct RegisteredStream {
    pub(super) descriptor: ModalityDescriptor,
    pub(super) model: StreamModelSlot,
    /// The model's [`StreamModelSlot::flops_per_sample`], read once at
    /// registration. A routed dCNN student is costed as its stream's model.
    pub(super) flops: usize,
    /// dCNN students of a camera stream, at most one per privacy level.
    pub(super) students: Vec<(PrivacyLevel, StreamModelSlot)>,
    /// The student serving the current batch's distorted frames, if any.
    pub(super) route: Option<usize>,
    /// Row-major posteriors for the current batch (reused).
    pub(super) probs: Vec<f32>,
    /// Whether the stream contributes to the current batch.
    pub(super) present: bool,
    /// The stream's health status for the current batch.
    pub(super) status: ModalityStatus,
    /// Makes [`RegisteredStream::run_model`] panic: the engine catches a
    /// model's panic, and no model in the tree panics to prove it.
    #[cfg(test)]
    pub(super) panics: bool,
}

impl RegisteredStream {
    /// Picks the model for a batch of `w`×`h` frames and returns the
    /// geometry to assemble the batch at. Frames at the stream model's
    /// own input geometry go to the model as they are (as would frames
    /// for a non-camera model, which the engine refuses first). Anything
    /// else is a distorted batch: it goes to the student whose
    /// [`PrivacyLevel::target_size`] is that geometry, restored to the
    /// full input edge.
    fn route_frames(&mut self, w: usize, h: usize) -> Result<(usize, usize)> {
        self.route = None;
        let StreamModelSlot::Cnn(model) = &self.model else {
            return Ok((w, h));
        };
        let full = model.config().input_size;
        if (w, h) == (full, full) {
            return Ok((w, h));
        }
        let serves = |level: PrivacyLevel| w == h && w == level.target_size(full);
        self.route = self.students.iter().position(|(level, _)| serves(*level));
        if self.route.is_none() {
            return Err(CoreError::NotReady(format!(
                "stream {} takes {full}×{full} frames and has no dCNN registered for {w}×{h} ones",
                self.descriptor.id
            )));
        }
        Ok((full, full))
    }

    /// This stream's input, if it takes part in the batch.
    pub(super) fn input<'a>(
        &self,
        inputs: &[(StreamId, StreamInput<'a>)],
    ) -> Option<StreamInput<'a>> {
        let id = self.descriptor.id;
        let input = inputs.iter().find(|(s, _)| self.present && *s == id);
        input.map(|(_, input)| *input)
    }

    /// Assembles this stream's camera batch from `frames` in a tensor
    /// checked out of `ws`, at the geometry [`Self::route_frames`] picks.
    /// On error nothing stays checked out.
    pub(super) fn assemble(
        &mut self,
        frames: &[Frame],
        n: usize,
        ws: &mut Workspace,
    ) -> Result<Tensor> {
        let (w, h) = self.route_frames(frames[0].width(), frames[0].height())?;
        let mut batch = ws.checkout(&[n, 1, h, w]);
        let built = match self.route {
            Some(_) => restore_frames_into(frames, &mut batch),
            None => frames_to_tensor_into(frames, &mut batch),
        };
        match built {
            Ok(()) => Ok(batch),
            Err(e) => {
                ws.restore(batch);
                Err(e)
            }
        }
    }

    /// Runs the stream's model — or the student its batch was routed to —
    /// over `input` into the stream's posterior buffer.
    pub(super) fn run_model(&mut self, input: &Tensor) -> Result<()> {
        #[cfg(test)]
        assert!(!self.panics, "a test made this stream's model panic");
        let model = match self.route.and_then(|s| self.students.get_mut(s)) {
            Some((_, student)) => student,
            None => &mut self.model,
        };
        model.predict_proba_into(input, &mut self.probs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::IMU_FEATURES;
    use crate::registry::tests::{
        assert_bitwise, frozen_imu_expansion, frozen_product, test_batch, tiny_svm,
    };
    use darnet_sim::CanonicalBehavior;

    #[test]
    fn identity_expansion_is_verbatim() {
        let probs = [0.25f32, 0.05, 0.1, 0.3, 0.2, 0.1];
        let mut scores = Vec::new();
        ClassMap::Identity
            .expand_into(&probs, 6, &mut scores)
            .unwrap();
        assert_bitwise(&scores, &probs, "identity");
        assert!(ClassMap::Identity
            .expand_into(&probs[..5], 6, &mut scores)
            .is_err());
    }

    #[test]
    fn projection_expansion_matches_legacy_imu_only_formula() {
        let map = ClassMap::darnet_imu();
        // The projection is the taxonomy's own 6→3 assignment.
        let taxonomy = CanonicalBehavior::TABLE1.map(|b| b.imu_class().index());
        assert_eq!(map, ClassMap::Projection(taxonomy.to_vec()));
        let imu = [0.5f32, 0.3, 0.2];
        let mut scores = Vec::new();
        map.expand_into(&imu, 6, &mut scores).unwrap();
        assert_bitwise(&scores, &frozen_imu_expansion(&imu), "projection expansion");
        // 1-to-1 classes keep their full mass.
        assert!((scores[1] - imu[1]).abs() < 1e-6);
        assert!((scores[2] - imu[2]).abs() < 1e-6);
        assert!(map.expand_into(&imu[..2], 6, &mut scores).is_err());
    }

    #[test]
    fn product_subset_pair_is_bitwise_the_frozen_formula() {
        let cnn = [0.4f32, 0.3, 0.1, 0.05, 0.05, 0.1];
        let imu = [0.2f32, 0.0, 0.8];
        let camera = ModalityDescriptor::darnet_camera();
        let imu_desc = ModalityDescriptor::darnet_imu();
        let mut scores = Vec::new();
        product_combine_subset_into(
            &[
                (Some(&cnn[..]), &camera.class_map),
                (Some(&imu[..]), &imu_desc.class_map),
            ],
            6,
            &mut scores,
        )
        .unwrap();
        assert_bitwise(&scores, &frozen_product(&cnn, &imu), "product pair");
        assert!((scores.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        // The floor: a zero IMU class cannot fully veto the CNN.
        assert!(scores[1] > 0.0);
        // Width mismatches and an all-absent parent list are errors.
        let short = [(Some(&cnn[..5]), &camera.class_map)];
        assert!(product_combine_subset_into(&short, 6, &mut scores).is_err());
        assert!(product_combine_subset_into(&[(None, &camera.class_map)], 6, &mut scores).is_err());
    }

    #[test]
    fn svm_slot_posterior_is_bitwise_the_allocating_one() {
        let (_, windows) = test_batch(3);
        let mut slot = StreamModelSlot::Svm(tiny_svm());
        let want = slot.predict_proba(&windows).unwrap();
        let mut got = vec![9.0];
        slot.predict_proba_into(&windows, &mut got).unwrap();
        assert_bitwise(&got, want.data(), "svm slot");
        assert!(slot
            .predict_proba_into(&Tensor::zeros(&[1, 5, IMU_FEATURES]), &mut got)
            .is_err());
    }
}
