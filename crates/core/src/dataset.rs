//! Dataset construction: from collection-campaign recordings to labeled
//! training data.
//!
//! There is one labeled dataset, [`Dataset`], over the canonical 8-class
//! taxonomy and keyed by the camera streams its recordings registered:
//! the paper's pair (`[IMU, CAMERA_FRONT]`, whose 6-class script only ever
//! produces the first six classes) and the three-stream multiview
//! campaign build it the same way.
//!
//! The paper divides its collected dataset into an 80/20 partition for
//! training and evaluation (§5.1); IMU windows are 20 points at 4 Hz
//! (5 seconds, §4.2).
#![expect(
    clippy::disallowed_methods,
    reason = "randomness owner: data splits and label-noise fault injection"
)]

use darnet_collect::runtime::{pair_frames_with_windows, Recording};
use darnet_collect::{FrameRecord, StreamId};
use darnet_sim::{CanonicalBehavior, DrivingWorld, ExtendedBehavior, Frame, Segment};
use darnet_tensor::{SplitMix64, Tensor};

use crate::error::CoreError;
use crate::experiment::canonical_imu_projection;
use crate::Result;

/// The paper's IMU window length: 4 Hz × 5 s.
pub const WINDOW_LEN: usize = 20;
/// IMU features per grid point.
pub const IMU_FEATURES: usize = 12;
/// Max |Δt| (seconds) when a sample adopts, for each camera other than
/// its anchor, that camera's frame nearest in time: a little over one
/// 4 fps frame period, so a camera that lost one batch still joins.
pub const CAMERA_JOIN_TOLERANCE: f64 = 0.3;

/// Looks up the scripted class at session time `t` within one driver's
/// segments, sorted by start: the segment containing `t`; normal driving
/// in a gap between segments or past the last one; and, for a `t` before
/// the first segment, that segment's class (a frame stamped by a clock
/// running slightly behind the controller's still belongs to the
/// session's opening segment).
pub fn label_at(segments: &[Segment<CanonicalBehavior>], t: f64) -> CanonicalBehavior {
    let idx = segments.partition_point(|s| s.start <= t);
    if idx == 0 {
        return segments
            .first()
            .map_or(CanonicalBehavior::NormalDriving, |s| s.behavior);
    }
    let seg = &segments[idx - 1];
    if seg.contains(t) {
        seg.behavior
    } else {
        CanonicalBehavior::NormalDriving
    }
}

/// The shuffled `(train, eval)` index partition behind every `split`:
/// `0..n` shuffled by `seed`, the first `round(n × train_frac)` to train.
fn shuffled_split(n: usize, train_frac: f64, seed: u64) -> Result<(Vec<usize>, Vec<usize>)> {
    if !(train_frac > 0.0 && train_frac < 1.0) {
        return Err(CoreError::Dataset(format!(
            "train fraction {train_frac} is not within (0, 1)"
        )));
    }
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = SplitMix64::new(seed);
    rng.shuffle(&mut idx);
    let eval = idx.split_off(((n as f64) * train_frac).round() as usize);
    non_empty_split(idx, eval)
}

/// Refuses a partition with an empty side: a model cannot be fitted on,
/// or scored against, nothing.
fn non_empty_split(train: Vec<usize>, eval: Vec<usize>) -> Result<(Vec<usize>, Vec<usize>)> {
    if train.is_empty() || eval.is_empty() {
        return Err(CoreError::Dataset(format!(
            "split leaves {} training and {} evaluation samples",
            train.len(),
            eval.len()
        )));
    }
    Ok((train, eval))
}

/// The frame of a timestamp-ordered stream nearest to `t`.
fn nearest_frame(frames: &[FrameRecord], t: f64) -> Option<&FrameRecord> {
    let at = frames.partition_point(|f| f.t < t);
    [at.checked_sub(1), Some(at)]
        .into_iter()
        .flatten()
        .filter_map(|i| frames.get(i))
        .min_by(|a, b| (a.t - t).abs().total_cmp(&(b.t - t).abs()))
}

/// One labeled sample: a frame per camera with the IMU window that ends
/// at the anchor frame's timestamp.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Controller timestamp of the anchor (first camera's) frame.
    pub t: f64,
    /// Driver id.
    pub driver: usize,
    /// Ground-truth class. A 6-class script only produces classes of
    /// [`CanonicalBehavior::TABLE1`].
    pub class: CanonicalBehavior,
    /// One frame per camera of [`Dataset::cameras`], in that order: the
    /// anchor frame, then each other camera's frame nearest in time.
    pub frames: Vec<Frame>,
    /// Flattened `[WINDOW_LEN × IMU_FEATURES]` window, time-major.
    pub imu_window: Vec<f32>,
}

/// A labeled dataset over the canonical taxonomy, built from campaign
/// recordings of any stream set: every sample joins the IMU and every
/// registered camera at one instant.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    samples: Vec<Sample>,
    cameras: Vec<StreamId>,
    frame_size: usize,
}

impl Dataset {
    /// Builds the dataset from campaign recordings plus the schedule that
    /// produced them (the schedule provides ground-truth labels — the
    /// paper's "each video was verified at a later point in time").
    ///
    /// The recordings' first camera anchors the join: for each of its
    /// frames, the IMU window is the last [`WINDOW_LEN`] aligned grid
    /// points not after the frame timestamp (front-padded with the
    /// earliest point at the session start; frames with no IMU data at
    /// all are skipped — the collect pipeline owns this pairing). Every
    /// other camera contributes its frame nearest in time, and an anchor
    /// with no such frame within [`CAMERA_JOIN_TOLERANCE`] is dropped —
    /// the dataset is complete across cameras, so single-stream
    /// ablations evaluate the exact same instants.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Dataset`] if the recordings disagree on their
    /// camera streams or contain frames of inconsistent sizes.
    pub fn from_recordings(
        recordings: &[Recording],
        segments: &[Segment<CanonicalBehavior>],
    ) -> Result<Self> {
        let cameras_of = |rec: &Recording| rec.frames.iter().map(|(s, _)| *s).collect::<Vec<_>>();
        let cameras = recordings.first().map(cameras_of).unwrap_or_default();
        let mut samples = Vec::new();
        let mut frame_size = 0usize;
        for rec in recordings {
            if cameras_of(rec) != cameras {
                return Err(CoreError::Dataset(format!(
                    "driver {} recorded cameras {:?}, not {cameras:?}",
                    rec.driver,
                    cameras_of(rec)
                )));
            }
            let Some(((_, anchor), others)) = rec.frames.split_first() else {
                continue;
            };
            let mut script: Vec<Segment<CanonicalBehavior>> = segments
                .iter()
                .filter(|s| s.driver == rec.driver)
                .copied()
                .collect();
            script.sort_by(|a, b| a.start.total_cmp(&b.start));
            for tup in pair_frames_with_windows(anchor, &rec.imu, WINDOW_LEN) {
                let joined: Option<Vec<Frame>> = others
                    .iter()
                    .map(|(_, frames)| {
                        nearest_frame(frames, tup.t)
                            .filter(|near| (near.t - tup.t).abs() <= CAMERA_JOIN_TOLERANCE)
                            .map(|near| near.frame.clone())
                    })
                    .collect();
                let Some(mut frames) = joined else { continue };
                if frame_size == 0 {
                    frame_size = tup.frame.width();
                }
                frames.insert(0, tup.frame);
                for f in &frames {
                    if f.width() != frame_size || f.height() != frame_size {
                        return Err(CoreError::Dataset(format!(
                            "inconsistent frame size {}x{} (expected {frame_size})",
                            f.width(),
                            f.height()
                        )));
                    }
                }
                samples.push(Sample {
                    t: tup.t,
                    driver: rec.driver,
                    class: label_at(&script, tup.t),
                    frames,
                    imu_window: tup.window,
                });
            }
        }
        Ok(Dataset {
            samples,
            cameras,
            frame_size,
        })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Square frame edge length.
    pub fn frame_size(&self) -> usize {
        self.frame_size
    }

    /// The samples.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// The camera streams every sample holds a frame of, anchor first.
    pub fn cameras(&self) -> &[StreamId] {
        &self.cameras
    }

    /// Per-class sample counts over the canonical taxonomy; the first six
    /// are Table 1's.
    pub fn class_counts(&self) -> [usize; 8] {
        let mut counts = [0usize; 8];
        for s in &self.samples {
            counts[s.class.index()] += 1;
        }
        counts
    }

    /// Canonical class labels (all samples); below 6 for a 6-class script.
    pub fn labels(&self) -> Vec<usize> {
        self.samples.iter().map(|s| s.class.index()).collect()
    }

    /// 3-class IMU labels (all samples), through
    /// [`canonical_imu_projection`].
    pub fn labels3(&self) -> Vec<usize> {
        let map = canonical_imu_projection();
        self.samples.iter().map(|s| map[s.class.index()]).collect()
    }

    /// Shuffled 80/20-style split: returns `(train, eval)` datasets.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Dataset`] if `train_frac` is not within
    /// `(0, 1)` or either side would be empty.
    pub fn split(&self, train_frac: f64, seed: u64) -> Result<(Dataset, Dataset)> {
        let (train, eval) = shuffled_split(self.len(), train_frac, seed)?;
        let take = |ids: Vec<usize>| Dataset {
            samples: ids.into_iter().map(|i| self.samples[i].clone()).collect(),
            cameras: self.cameras.clone(),
            frame_size: self.frame_size,
        };
        Ok((take(train), take(eval)))
    }

    fn camera_index(&self, camera: StreamId) -> Result<usize> {
        self.cameras
            .iter()
            .position(|&c| c == camera)
            .ok_or_else(|| CoreError::Dataset(format!("no frames of stream {camera}")))
    }

    /// One camera's frames (for the step-by-step engine path).
    ///
    /// # Errors
    ///
    /// Returns an error if the dataset holds no frames of `camera`.
    pub fn frames(&self, camera: StreamId) -> Result<Vec<Frame>> {
        let at = self.camera_index(camera)?;
        Ok(self.samples.iter().map(|s| s.frames[at].clone()).collect())
    }

    /// One camera's frames as a `[n, 1, h, w]` tensor for its CNN.
    ///
    /// # Errors
    ///
    /// Returns an error if the dataset is empty or holds no frames of
    /// `camera`.
    pub fn frames_tensor(&self, camera: StreamId) -> Result<Tensor> {
        let at = self.camera_index(camera)?;
        if self.is_empty() {
            return Err(CoreError::Dataset("empty frame batch".into()));
        }
        let hw = self.frame_size * self.frame_size;
        let mut data = Vec::with_capacity(self.len() * hw);
        for s in &self.samples {
            data.extend_from_slice(s.frames[at].pixels());
        }
        Ok(Tensor::from_vec(
            data,
            &[self.len(), 1, self.frame_size, self.frame_size],
        )?)
    }

    /// IMU windows as a `[n, WINDOW_LEN, IMU_FEATURES]` tensor.
    ///
    /// # Errors
    ///
    /// Returns an error if the dataset is empty.
    pub fn imu_tensor(&self) -> Result<Tensor> {
        if self.is_empty() {
            return Err(CoreError::Dataset("empty imu batch".into()));
        }
        let mut data = Vec::with_capacity(self.len() * WINDOW_LEN * IMU_FEATURES);
        for s in &self.samples {
            data.extend_from_slice(&s.imu_window);
        }
        Ok(Tensor::from_vec(
            data,
            &[self.len(), WINDOW_LEN, IMU_FEATURES],
        )?)
    }
}

/// Per-feature standardization (zero mean, unit variance), fitted on the
/// training split and applied everywhere — essential for LSTM convergence
/// when raw accelerometer channels sit near ±9.8.
#[derive(Debug, Clone, PartialEq)]
pub struct Standardizer {
    mean: Vec<f32>,
    std: Vec<f32>,
}

impl Standardizer {
    /// Fits per-feature statistics over the last axis of a `[n, t, f]` or
    /// `[n, f]` tensor.
    ///
    /// # Errors
    ///
    /// Returns an error for empty input.
    pub fn fit(data: &Tensor) -> Result<Standardizer> {
        let f = *data
            .dims()
            .last()
            .ok_or_else(|| CoreError::Dataset("cannot standardize a scalar".into()))?;
        if data.is_empty() || f == 0 {
            return Err(CoreError::Dataset("cannot standardize empty data".into()));
        }
        let rows = data.len() / f;
        let mut mean = vec![0.0f32; f];
        for r in 0..rows {
            for (m, &v) in mean.iter_mut().zip(&data.data()[r * f..(r + 1) * f]) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= rows as f32;
        }
        let mut var = vec![0.0f32; f];
        for r in 0..rows {
            for ((s, &v), &m) in var
                .iter_mut()
                .zip(&data.data()[r * f..(r + 1) * f])
                .zip(&mean)
            {
                *s += (v - m) * (v - m);
            }
        }
        let std = var
            .into_iter()
            .map(|v| (v / rows as f32).sqrt().max(1e-6))
            .collect();
        Ok(Standardizer { mean, std })
    }

    /// The `(mean, std)` rows as rank-1 tensors (for serialization).
    pub fn to_tensors(&self) -> (Tensor, Tensor) {
        (
            Tensor::from_slice(&self.mean),
            Tensor::from_slice(&self.std),
        )
    }

    /// Rebuilds a standardizer from `(mean, std)` rows.
    ///
    /// # Errors
    ///
    /// Returns an error if the rows have different lengths or are empty.
    pub fn from_tensors(mean: &Tensor, std: &Tensor) -> Result<Standardizer> {
        if mean.len() != std.len() || mean.is_empty() {
            return Err(CoreError::Dataset(format!(
                "standardizer rows mismatched: {} vs {}",
                mean.len(),
                std.len()
            )));
        }
        Ok(Standardizer {
            mean: mean.data().to_vec(),
            std: std.data().iter().map(|v| v.max(1e-6)).collect(),
        })
    }

    /// Applies the transform, returning a new tensor of the same shape.
    pub fn apply(&self, data: &Tensor) -> Tensor {
        let mut out = data.clone();
        self.apply_inplace(&mut out);
        out
    }

    /// Applies the transform in place — the workspace inference path
    /// copies the input into a checked-out buffer and standardizes it
    /// there. Bitwise-identical to [`Standardizer::apply`], which
    /// delegates here.
    // darlint: hot
    pub fn apply_inplace(&self, data: &mut Tensor) {
        let f = self.mean.len();
        let rows = data.len() / f;
        for r in 0..rows {
            for ((v, &m), &s) in data.data_mut()[r * f..(r + 1) * f]
                .iter_mut()
                .zip(&self.mean)
                .zip(&self.std)
            {
                *v = (*v - m) / s;
            }
        }
    }
}

/// A labeled frame-only dataset over the 18-class extended taxonomy — the
/// "previously collected distracted driver dataset" of the paper's privacy
/// study (§5.3), which has no IMU component.
#[derive(Debug, Clone, Default)]
pub struct ExtendedFrameDataset {
    frames: Vec<Frame>,
    labels: Vec<usize>,
    drivers: Vec<usize>,
    frame_size: usize,
}

impl ExtendedFrameDataset {
    /// Samples the dataset directly from the world at `fps` over an
    /// extended-behaviour schedule (this dataset predates the collection
    /// framework in the paper, so frames are taken straight from the
    /// camera).
    pub fn generate(
        world: &DrivingWorld,
        segments: &[Segment<ExtendedBehavior>],
        fps: f64,
    ) -> Self {
        let mut frames = Vec::new();
        let mut labels = Vec::new();
        let mut drivers = Vec::new();
        let mut frame_size = 0usize;
        let dt = 1.0 / fps;
        for seg in segments {
            let n = (seg.duration * fps).floor() as usize;
            for k in 0..n {
                let t = seg.start + k as f64 * dt;
                let frame = world.render_extended_frame(seg.driver, seg.behavior, t);
                frame_size = frame.width();
                frames.push(frame);
                labels.push(seg.behavior.index());
                drivers.push(seg.driver);
            }
        }
        ExtendedFrameDataset {
            frames,
            labels,
            drivers,
            frame_size,
        }
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Square frame edge length.
    pub fn frame_size(&self) -> usize {
        self.frame_size
    }

    /// The frames.
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// The labels (0..18).
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Driver ids per frame.
    pub fn drivers(&self) -> &[usize] {
        &self.drivers
    }

    /// Returns a copy with a fraction of labels flipped to random other
    /// classes — modelling the labelling noise of a hand-annotated video
    /// dataset (frames near scripted-segment boundaries are easily
    /// mis-tagged). The paper's §5.3 explains the dCNN results through the
    /// teacher "display\[ing\] effects of overfitting accrued during
    /// training"; memorized label noise is exactly such an effect, and the
    /// distilled students never see the labels.
    pub fn with_label_noise(&self, fraction: f64, seed: u64) -> ExtendedFrameDataset {
        let mut out = self.clone();
        let classes = ExtendedBehavior::ALL.len();
        let mut rng = SplitMix64::new(seed);
        for l in &mut out.labels {
            if (rng.next_f64()) < fraction {
                let flip = rng.next_usize(classes - 1);
                *l = if flip >= *l { flip + 1 } else { flip };
            }
        }
        out
    }

    /// The frames at `ids`, in that order, as a dataset of their own.
    fn subset(&self, ids: &[usize]) -> ExtendedFrameDataset {
        ExtendedFrameDataset {
            frames: ids.iter().map(|&i| self.frames[i].clone()).collect(),
            labels: ids.iter().map(|&i| self.labels[i]).collect(),
            drivers: ids.iter().map(|&i| self.drivers[i]).collect(),
            frame_size: self.frame_size,
        }
    }

    /// Driver-disjoint split: drivers with `id % holdout_mod == holdout_rem`
    /// go to evaluation, everyone else to training. The paper's privacy
    /// study evaluates generalization across its 10 participants; holding
    /// out whole drivers exposes the teacher's identity overfitting that
    /// §5.3 hypothesizes (and that down-sampling removes).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Dataset`] for a zero `holdout_mod` or if
    /// either side would be empty.
    pub fn split_by_driver(
        &self,
        holdout_mod: usize,
        holdout_rem: usize,
    ) -> Result<(ExtendedFrameDataset, ExtendedFrameDataset)> {
        if holdout_mod == 0 {
            return Err(CoreError::Dataset("driver holdout modulus is 0".into()));
        }
        let (eval, train): (Vec<usize>, Vec<usize>) =
            (0..self.len()).partition(|&i| self.drivers[i] % holdout_mod == holdout_rem);
        let (train, eval) = non_empty_split(train, eval)?;
        Ok((self.subset(&train), self.subset(&eval)))
    }

    /// Shuffled split into `(train, eval)`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Dataset`] if `train_frac` is not within
    /// `(0, 1)` or either side would be empty.
    pub fn split(
        &self,
        train_frac: f64,
        seed: u64,
    ) -> Result<(ExtendedFrameDataset, ExtendedFrameDataset)> {
        let (train, eval) = shuffled_split(self.len(), train_frac, seed)?;
        Ok((self.subset(&train), self.subset(&eval)))
    }
}

/// Converts a batch of frames (all the same square size) into a
/// `[n, 1, h, w]` tensor.
///
/// # Errors
///
/// Returns an error for an empty batch or inconsistent sizes.
pub fn frames_to_tensor(frames: &[Frame]) -> Result<Tensor> {
    let first = frames
        .first()
        .ok_or_else(|| CoreError::Dataset("empty frame batch".into()))?;
    let mut out = Tensor::zeros(&[frames.len(), 1, first.height(), first.width()]);
    frames_to_tensor_into(frames, &mut out)?;
    Ok(out)
}

/// [`frames_to_tensor`] writing into a caller-provided `[n, 1, h, w]`
/// tensor (typically a workspace checkout) instead of allocating one: the
/// one loop that packs pixels.
///
/// # Errors
///
/// Returns an error for an empty batch, inconsistent frame sizes, or an
/// `out` tensor whose shape does not match the batch.
// darlint: hot
pub fn frames_to_tensor_into(frames: &[Frame], out: &mut Tensor) -> Result<()> {
    let first = frames
        .first()
        .ok_or_else(|| CoreError::Dataset("empty frame batch".into()))?;
    let (w, h) = (first.width(), first.height());
    if out.dims() != [frames.len(), 1, h, w] {
        return Err(CoreError::Dataset(format!(
            "frame batch is [{}, 1, {h}, {w}] but output tensor is {:?}",
            frames.len(),
            out.dims()
        )));
    }
    let od = out.data_mut();
    let hw = h * w;
    for (i, f) in frames.iter().enumerate() {
        if f.width() != w || f.height() != h {
            return Err(CoreError::Dataset("inconsistent frame sizes".into()));
        }
        od[i * hw..(i + 1) * hw].copy_from_slice(f.pixels());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use darnet_collect::runtime::{run_campaign, CampaignConfig};
    use darnet_sim::WorldConfig;
    use std::sync::Arc;

    fn script(behaviors: &[CanonicalBehavior], each: f64) -> Vec<Segment<CanonicalBehavior>> {
        behaviors
            .iter()
            .enumerate()
            .map(|(i, &behavior)| Segment {
                driver: 0,
                behavior,
                start: i as f64 * each,
                duration: each,
            })
            .collect()
    }

    /// The paper's pair over an 18 s, three-class script.
    fn tiny_dataset() -> Dataset {
        let world = Arc::new(DrivingWorld::new(WorldConfig::default()));
        let segments = script(
            &[
                CanonicalBehavior::NormalDriving,
                CanonicalBehavior::Texting,
                CanonicalBehavior::Talking,
            ],
            6.0,
        );
        let config = CampaignConfig::default();
        let recs = run_campaign(&world, &segments, &config, &StreamId::DARNET_PAIR, &[]).unwrap();
        Dataset::from_recordings(&recs, &segments).unwrap()
    }

    #[test]
    fn canonical_dataset_joins_three_streams() {
        let world = Arc::new(DrivingWorld::new(WorldConfig {
            drivers: 1,
            frame_size: 24,
            ..WorldConfig::default()
        }));
        let segments = script(
            &[
                CanonicalBehavior::NormalDriving,
                CanonicalBehavior::EyesClosing,
                CanonicalBehavior::HeadDroop,
            ],
            5.0,
        );
        let streams = [StreamId::IMU, StreamId::CAMERA_FRONT, StreamId::CAMERA_SIDE];
        let config = CampaignConfig::default();
        let mut recs = run_campaign(&world, &segments, &config, &streams, &[]).unwrap();
        let ds = Dataset::from_recordings(&recs, &segments).unwrap();
        assert!(!ds.is_empty());
        assert_eq!(ds.frame_size(), 24);
        assert_eq!(ds.cameras(), &streams[1..]);
        for s in ds.samples() {
            assert_eq!(s.imu_window.len(), WINDOW_LEN * IMU_FEATURES);
            let [front, side] = &s.frames[..] else {
                panic!("{} frames in a two-camera sample", s.frames.len());
            };
            assert_eq!((front.width(), side.width()), (24, 24));
            // The adopted side frame differs from the front view at the
            // same instant (different camera geometry).
            assert_ne!(front.pixels(), side.pixels());
        }
        // The drowsy classes are labeled.
        let counts = ds.class_counts();
        assert!(counts[CanonicalBehavior::EyesClosing.index()] > 0);
        assert!(counts[CanonicalBehavior::HeadDroop.index()] > 0);
        assert_eq!(ds.labels().len(), ds.len());
        let front = ds.frames_tensor(StreamId::CAMERA_FRONT).unwrap();
        let side = ds.frames_tensor(StreamId::CAMERA_SIDE).unwrap();
        assert_eq!(front.dims(), &[ds.len(), 1, 24, 24]);
        assert_eq!(side.dims(), front.dims());
        assert_eq!(ds.frames(StreamId::CAMERA_SIDE).unwrap().len(), ds.len());
        assert!(ds.frames_tensor(StreamId::IMU).is_err());
        let (train, eval) = ds.split(0.8, 3).unwrap();
        assert_eq!(train.len() + eval.len(), ds.len());

        // A side camera dark over the middle segment: anchors farther
        // than the tolerance from every surviving side frame are dropped,
        // the rest join as before.
        recs[0].frames[1].1.retain(|f| !(5.0..10.0).contains(&f.t));
        let holed = Dataset::from_recordings(&recs, &segments).unwrap();
        assert!(!holed.is_empty() && holed.len() < ds.len());
        let inside =
            |t: f64| (5.0 + CAMERA_JOIN_TOLERANCE..10.0 - CAMERA_JOIN_TOLERANCE).contains(&t);
        assert!(ds.samples().iter().any(|s| inside(s.t)));
        assert!(!holed.samples().iter().any(|s| inside(s.t)));
        // Recordings that disagree on their cameras do not join at all.
        let mut odd = recs.clone();
        odd.push(Recording {
            frames: recs[0].frames[..1].to_vec(),
            ..recs[0].clone()
        });
        assert!(Dataset::from_recordings(&odd, &segments).is_err());
    }

    #[test]
    fn label_lookup_matches_schedule() {
        let mut segments = script(
            &[
                CanonicalBehavior::Texting,
                CanonicalBehavior::EyesClosing,
                CanonicalBehavior::Talking,
            ],
            3.0,
        );
        segments[0].duration = 2.0;
        segments[0].start = 0.5;
        assert_eq!(label_at(&segments, 1.0), CanonicalBehavior::Texting);
        assert_eq!(label_at(&segments, 5.0), CanonicalBehavior::EyesClosing);
        assert_eq!(label_at(&segments, 7.0), CanonicalBehavior::Talking);
        // The gap between segments and everything past the script are
        // normal driving; a stamp before the script is its first segment.
        assert_eq!(label_at(&segments, 2.75), CanonicalBehavior::NormalDriving);
        assert_eq!(label_at(&segments, 99.0), CanonicalBehavior::NormalDriving);
        assert_eq!(label_at(&segments, 0.25), CanonicalBehavior::Texting);
        assert_eq!(label_at(&[], 1.0), CanonicalBehavior::NormalDriving);
    }

    #[test]
    fn dataset_builds_with_windows() {
        let ds = tiny_dataset();
        assert!(ds.len() > 40, "only {} samples", ds.len());
        assert_eq!(ds.frame_size(), 48);
        assert_eq!(ds.cameras(), &[StreamId::CAMERA_FRONT]);
        for s in ds.samples() {
            assert_eq!(s.imu_window.len(), WINDOW_LEN * IMU_FEATURES);
            assert_eq!(s.frames.len(), 1);
        }
        // All three scripted classes appear, and no drowsy one.
        let counts = ds.class_counts();
        assert!(counts[0] > 0 && counts[1] > 0 && counts[2] > 0);
        assert_eq!(counts[3..], [0; 5]);
    }

    #[test]
    fn split_preserves_total_and_is_disjoint_in_size() {
        let ds = tiny_dataset();
        let (train, eval) = ds.split(0.8, 1).unwrap();
        assert_eq!(train.len() + eval.len(), ds.len());
        let expected_train = ((ds.len() as f64) * 0.8).round() as usize;
        assert_eq!(train.len(), expected_train);
    }

    #[test]
    fn splits_reject_bad_fractions_and_empty_sides() {
        let is_dataset_error = |e: CoreError| matches!(e, CoreError::Dataset(_));
        let ds = tiny_dataset();
        for frac in [0.0, 1.0, f64::NAN, -0.5, 1.5] {
            assert!(is_dataset_error(ds.split(frac, 1).unwrap_err()), "{frac}");
        }
        // One sample cannot fill both sides; nor can none.
        let one = Dataset {
            samples: ds.samples[..1].to_vec(),
            ..ds.clone()
        };
        assert!(is_dataset_error(one.split(0.8, 1).unwrap_err()));
        assert!(is_dataset_error(
            Dataset::default().split(0.8, 1).unwrap_err()
        ));

        let world = DrivingWorld::new(WorldConfig {
            drivers: 2,
            ..WorldConfig::default()
        });
        let segments = vec![
            Segment {
                driver: 0,
                behavior: ExtendedBehavior::ALL[0],
                start: 0.0,
                duration: 1.0,
            },
            Segment {
                driver: 1,
                behavior: ExtendedBehavior::ALL[1],
                start: 0.0,
                duration: 1.0,
            },
        ];
        let frames = ExtendedFrameDataset::generate(&world, &segments, 2.0);
        assert!(is_dataset_error(frames.split_by_driver(0, 0).unwrap_err()));
        assert!(is_dataset_error(frames.split(f64::NAN, 1).unwrap_err()));
        // Driver 1 held out; a remainder nobody has leaves eval empty.
        let (train, eval) = frames.split_by_driver(2, 1).unwrap();
        assert_eq!(
            (train.drivers(), eval.drivers()),
            (&[0, 0][..], &[1, 1][..])
        );
        assert!(is_dataset_error(frames.split_by_driver(5, 4).unwrap_err()));
        let (train, eval) = frames.split(0.5, 9).unwrap();
        assert_eq!((train.len(), eval.len()), (2, 2));
    }

    #[test]
    fn tensors_have_expected_shapes() {
        let ds = tiny_dataset();
        let frames = ds.frames_tensor(StreamId::CAMERA_FRONT).unwrap();
        assert_eq!(frames.dims(), &[ds.len(), 1, 48, 48]);
        let imu = ds.imu_tensor().unwrap();
        assert_eq!(imu.dims(), &[ds.len(), WINDOW_LEN, IMU_FEATURES]);
        assert_eq!(ds.labels().len(), ds.len());
        // The IMU labels are the 6 → 3 projection of the class labels.
        let expected: Vec<usize> = ds
            .samples()
            .iter()
            .map(|s| s.class.imu_class().index())
            .collect();
        assert_eq!(ds.labels3(), expected);
    }

    #[test]
    fn standardizer_normalizes_features() {
        let data = Tensor::from_vec(
            vec![
                10.0, 100.0, //
                12.0, 200.0, //
                8.0, 300.0, //
                10.0, 400.0,
            ],
            &[4, 2],
        )
        .unwrap();
        let std = Standardizer::fit(&data).unwrap();
        let out = std.apply(&data);
        // Column means ~0.
        let m0 = (0..4).map(|r| out.data()[r * 2]).sum::<f32>() / 4.0;
        let m1 = (0..4).map(|r| out.data()[r * 2 + 1]).sum::<f32>() / 4.0;
        assert!(m0.abs() < 1e-5 && m1.abs() < 1e-5);
        // Column stds ~1.
        let s1 = ((0..4).map(|r| out.data()[r * 2 + 1].powi(2)).sum::<f32>() / 4.0).sqrt();
        assert!((s1 - 1.0).abs() < 1e-4);
    }

    #[test]
    fn standardizer_handles_constant_features() {
        let data = Tensor::from_vec(vec![5.0, 5.0, 5.0, 5.0], &[4, 1]).unwrap();
        let std = Standardizer::fit(&data).unwrap();
        let out = std.apply(&data);
        assert!(out.all_finite());
    }

    #[test]
    fn extended_dataset_generates_balanced_classes() {
        let world = DrivingWorld::new(WorldConfig {
            drivers: 2,
            ..WorldConfig::default()
        });
        let config = darnet_sim::schedule::ExtendedScheduleConfig {
            drivers: 2,
            seconds_per_class: 2.0,
        };
        let segments = darnet_sim::schedule::build_extended_schedule(&config);
        let ds = ExtendedFrameDataset::generate(&world, &segments, 4.0);
        assert_eq!(ds.len(), 2 * 18 * 8); // 2 drivers × 18 classes × 2 s × 4 fps
        let mut counts = [0usize; 18];
        for &l in ds.labels() {
            counts[l] += 1;
        }
        assert!(counts.iter().all(|&c| c == 16));
    }

    #[test]
    fn frames_to_tensor_validates() {
        assert!(frames_to_tensor(&[]).is_err());
        let frames = vec![Frame::new(4, 4), Frame::new(5, 5)];
        assert!(frames_to_tensor(&frames).is_err());
        let ok = vec![Frame::new(4, 4); 3];
        assert_eq!(frames_to_tensor(&ok).unwrap().dims(), &[3, 1, 4, 4]);
    }
}
