//! The inference half of the closed loop: building the registry engine
//! from seeded initial weights (the timed set-up, no training anywhere),
//! the micro-batched labelling path every workload shares, and the
//! allocating reference path the shadow pass compares it against.

use std::collections::VecDeque;

use darnet_bench::alloc_counter;
use darnet_collect::runtime::AlignedTuple;
use darnet_collect::StreamId;
use darnet_core::dataset::{frames_to_tensor, Standardizer};
use darnet_core::experiment::canonical_imu_projection;
use darnet_core::{
    ClassMap, CnnConfig, CombinerKind, FrameCnn, ImuRnn, MicroBatchConfig, MicroBatcher,
    ModalityDescriptor, ModalityStatus, MultiModalEngine, MultiStepClassification,
    NaryBayesianCombiner, RnnConfig, StreamInput, StreamModelSlot, SubsetSelection,
};
use darnet_sim::{CanonicalBehavior, Frame};
use darnet_tensor::Tensor;

use crate::clock::SteadyClock;
use crate::fixture::{fnv1a, FitSet, FNV_INIT, IMU_FEATURES, WINDOW_LEN};
use crate::trace::Tracer;
use crate::Res;

/// Canonical classes every engine fuses over.
pub const CLASSES: usize = CanonicalBehavior::ALL.len();
/// The micro-batcher's size trigger on every workload.
pub const MAX_BATCH: usize = 8;
/// The micro-batcher's deadline, simulated seconds.
pub const MAX_DELAY_S: f64 = 0.25;
/// Posteriors kept from the start of a run for the golden comparison.
pub const GOLDEN_POSTERIORS: usize = 64;
/// Every this-many-th batch is captured for the shadow pass.
const SHADOW_EVERY: u64 = 16;
// Fixed model seeds: the engine is the same on every `--seed`.
const SEED_RNN: u64 = 0x44;
const SEED_FRONT: u64 = 0xC99;
const SEED_SIDE: u64 = 0x51DE;

/// Model scale of a workload's engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineSpec {
    /// Square frame edge, pixels.
    pub frame_size: usize,
    /// CNN channel-width multiplier.
    pub cnn_width: f32,
    /// LSTM hidden units per direction.
    pub rnn_hidden: usize,
    /// Stacked BiLSTM layers.
    pub rnn_depth: usize,
    /// Whether a side camera is registered as a third stream.
    pub side_view: bool,
}

impl EngineSpec {
    /// Paper scale: 48×48 frames, CNN width 1.0, BiLSTM 2×64, three
    /// streams (IMU, front and side camera).
    pub const CABIN: EngineSpec = EngineSpec {
        frame_size: 48,
        cnn_width: 1.0,
        rnn_hidden: 64,
        rnn_depth: 2,
        side_view: true,
    };
    /// Edge scale for one labelled vehicle in twenty: 8×8 frames, CNN
    /// width 0.25, BiLSTM 1×8, two streams.
    pub const FLEET: EngineSpec = EngineSpec {
        frame_size: 8,
        cnn_width: 0.25,
        rnn_hidden: 8,
        rnn_depth: 1,
        side_view: false,
    };

    fn cnn(&self) -> CnnConfig {
        CnnConfig {
            input_size: self.frame_size,
            classes: CLASSES,
            width: self.cnn_width,
            ..CnnConfig::default()
        }
    }

    fn rnn(&self) -> RnnConfig {
        RnnConfig {
            hidden: self.rnn_hidden,
            depth: self.rnn_depth,
            ..RnnConfig::default()
        }
    }
}

/// The per-stream models with the fit-set posteriors the combiner is
/// fitted on, in registry order (IMU, front, side).
struct Models {
    rnn: ImuRnn,
    front: FrameCnn,
    side: Option<FrameCnn>,
    parent_probs: Vec<Tensor>,
}

fn build_models(spec: &EngineSpec, fit: &FitSet) -> Res<Models> {
    let mut rnn = ImuRnn::new(spec.rnn(), SEED_RNN);
    let (mean, std) = Standardizer::fit(&fit.windows)?.to_tensors();
    rnn.set_standardizer_params(&mean, &std)?;
    let mut front = FrameCnn::new(spec.cnn(), SEED_FRONT);
    let mut parent_probs = vec![
        rnn.predict_proba(&fit.windows)?,
        front.predict_proba(&frames_to_tensor(&fit.front)?)?,
    ];
    let side = if spec.side_view {
        let mut side = FrameCnn::new(spec.cnn(), SEED_SIDE);
        parent_probs.push(side.predict_proba(&frames_to_tensor(&fit.side)?)?);
        Some(side)
    } else {
        None
    };
    Ok(Models {
        rnn,
        front,
        side,
        parent_probs,
    })
}

fn imu_class_map() -> ClassMap {
    ClassMap::Projection(canonical_imu_projection())
}

/// Builds and registers the workload's `MultiModalEngine`, fits its
/// combiner on the fit set, and makes one warm-up call at the workload's
/// batch shape. This is the engine part of `setup_s`.
pub fn build_engine(spec: &EngineSpec, fit: &FitSet) -> Res<MultiModalEngine> {
    let models = build_models(spec, fit)?;
    let mut engine = MultiModalEngine::new(CLASSES, CombinerKind::Bayesian);
    engine.register(
        ModalityDescriptor::new(StreamId::IMU, imu_class_map()),
        StreamModelSlot::Rnn(models.rnn),
    )?;
    engine.register(
        ModalityDescriptor::new(StreamId::CAMERA_FRONT, ClassMap::Identity),
        StreamModelSlot::Cnn(models.front),
    )?;
    if let Some(side) = models.side {
        engine.register(
            ModalityDescriptor::new(StreamId::CAMERA_SIDE, ClassMap::Identity),
            StreamModelSlot::Cnn(side),
        )?;
    }
    let parents: Vec<&Tensor> = models.parent_probs.iter().collect();
    engine.fit_combiner(&parents, &fit.labels)?;

    let row = WINDOW_LEN * IMU_FEATURES;
    let windows = Tensor::from_vec(
        fit.windows.data()[..MAX_BATCH * row].to_vec(),
        &[MAX_BATCH, WINDOW_LEN, IMU_FEATURES],
    )?;
    let mut inputs = vec![
        (StreamId::IMU, StreamInput::Windows(&windows)),
        (
            StreamId::CAMERA_FRONT,
            StreamInput::Frames(&fit.front[..MAX_BATCH]),
        ),
    ];
    if spec.side_view {
        inputs.push((
            StreamId::CAMERA_SIDE,
            StreamInput::Frames(&fit.side[..MAX_BATCH]),
        ));
    }
    engine.classify_batch_checked_into(&inputs, &[], &mut Vec::new())?;
    Ok(engine)
}

/// The inputs and outputs of one captured batch.
pub struct ShadowSample {
    front: Vec<Frame>,
    side: Vec<Frame>,
    windows: Tensor,
    scores: Vec<Vec<f32>>,
}

impl ShadowSample {
    /// The captured front frames and IMU windows.
    pub fn inputs(&self) -> (&[Frame], &Tensor) {
        (&self.front, &self.windows)
    }
}

/// The allocating reference path: the same seeded models run through
/// `predict_proba` and `NaryBayesianCombiner::combine_n`, which share no
/// workspace with the engine's `*_into` path.
pub struct Shadow {
    models: Models,
    combiner: NaryBayesianCombiner,
}

impl Shadow {
    /// Builds the reference models and combiner.
    pub fn build(spec: &EngineSpec, fit: &FitSet) -> Res<Shadow> {
        let models = build_models(spec, fit)?;
        let cards = models
            .parent_probs
            .iter()
            .map(|p| p.dims()[1])
            .collect::<Vec<_>>();
        let mut combiner = NaryBayesianCombiner::new(CLASSES, cards, 1.0);
        let parents: Vec<&Tensor> = models.parent_probs.iter().collect();
        combiner.fit(&parents, &fit.labels)?;
        Ok(Shadow { models, combiner })
    }

    /// Re-classifies the captured batches and counts posteriors whose
    /// bits differ from what the engine emitted.
    pub fn mismatches(&mut self, samples: &[ShadowSample]) -> Res<(u64, u64)> {
        let (mut checked, mut bad) = (0u64, 0u64);
        for s in samples {
            let mut parents = vec![
                self.models.rnn.predict_proba(&s.windows)?,
                self.models
                    .front
                    .predict_proba(&frames_to_tensor(&s.front)?)?,
            ];
            if let Some(side) = self.models.side.as_mut() {
                parents.push(side.predict_proba(&frames_to_tensor(&s.side)?)?);
            }
            for (i, emitted) in s.scores.iter().enumerate() {
                let rows: Vec<&[f32]> = parents
                    .iter()
                    .map(|p| {
                        let k = p.dims()[1];
                        &p.data()[i * k..(i + 1) * k]
                    })
                    .collect();
                let reference = self.combiner.combine_n(&rows)?;
                checked += 1;
                let same = reference.len() == emitted.len()
                    && reference
                        .iter()
                        .zip(emitted)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                bad += u64::from(!same);
            }
        }
        Ok((checked, bad))
    }
}

/// What the labelling path needs to know about one aligned step besides
/// its tensors.
#[derive(Debug, Clone, Copy)]
pub struct StepMeta {
    /// Bench-clock time at which the tick that delivered the step's last
    /// camera bytes was handed to `decode_batch`.
    pub handed_in_s: f64,
    /// Health of the step's streams, in registry order.
    pub statuses: [ModalityStatus; 3],
}

impl StepMeta {
    /// A step handed in at `handed_in_s` whose streams `selection`
    /// resolved, in registry order.
    pub fn new(handed_in_s: f64, selection: &SubsetSelection) -> Self {
        let mut statuses = [ModalityStatus::Healthy; 3];
        for (status, (_, resolved)) in statuses.iter_mut().zip(&selection.statuses) {
            *status = *resolved;
        }
        StepMeta {
            handed_in_s,
            statuses,
        }
    }
}

/// Counters of the labelling path.
#[derive(Default)]
pub struct LabelStats {
    /// Fused labels emitted.
    pub labels: u64,
    /// Batches classified.
    pub batches: u64,
    /// Batches the size trigger released.
    pub flush_by_size: u64,
    /// Batches the deadline released.
    pub flush_by_deadline: u64,
    /// Simulated milliseconds each step waited in the batcher.
    pub waits_sim_ms: Vec<f64>,
    /// Heap allocations during `classify_batch_checked_into`.
    pub classify_allocs: u64,
    /// Posterior entries that were NaN or infinite.
    pub non_finite: u64,
    /// Labels emitted with a class outside `0..CLASSES`.
    pub bad_class: u64,
    /// FNV-1a over every emitted class and posterior, in emission order.
    pub digest: u64,
    /// The run's first [`GOLDEN_POSTERIORS`] posteriors.
    pub first: Vec<Vec<f32>>,
    /// Batches captured for the shadow pass.
    pub shadow: Vec<ShadowSample>,
}

fn worse(a: ModalityStatus, b: ModalityStatus) -> ModalityStatus {
    use ModalityStatus::{Degraded, Healthy, Unavailable};
    match (a, b) {
        (Unavailable, _) | (_, Unavailable) => Unavailable,
        (Degraded, _) | (_, Degraded) => Degraded,
        _ => Healthy,
    }
}

/// Micro-batcher + engine: steps go in one at a time, fused labels come
/// out a batch at a time.
pub struct Labeler {
    /// The engine under test.
    pub engine: MultiModalEngine,
    batcher: MicroBatcher,
    side_view: bool,
    // Per queued step, in the batcher's FIFO order.
    side: VecDeque<Frame>,
    meta: VecDeque<(StepMeta, f64)>,
    out: Vec<MultiStepClassification>,
    /// Counters.
    pub stats: LabelStats,
}

impl Labeler {
    /// Wraps `engine` behind a fresh micro-batcher.
    pub fn new(engine: MultiModalEngine, spec: &EngineSpec) -> Self {
        Labeler {
            engine,
            batcher: MicroBatcher::new(MicroBatchConfig {
                max_batch: MAX_BATCH,
                max_delay: MAX_DELAY_S,
            }),
            side_view: spec.side_view,
            side: VecDeque::new(),
            meta: VecDeque::new(),
            out: Vec::new(),
            stats: LabelStats {
                digest: FNV_INIT,
                ..LabelStats::default()
            },
        }
    }

    /// Queues one aligned step arriving at simulated time `now`; classifies
    /// the batch if this push fills it.
    pub fn push(
        &mut self,
        tuple: AlignedTuple,
        side: Option<Frame>,
        meta: StepMeta,
        now: f64,
        clock: &mut SteadyClock,
        tracer: &mut Tracer,
    ) -> Res<()> {
        if let Some(side) = side {
            self.side.push_back(side);
        }
        self.meta.push_back((meta, now));
        let open = tracer.enter("batching.push");
        let full = self.batcher.push(tuple, now);
        tracer.exit(open);
        match full {
            Some(batch) => {
                self.stats.flush_by_size += 1;
                self.classify(batch, now, clock, tracer)
            }
            None => Ok(()),
        }
    }

    /// Simulated time at which the queued steps must flush, if any are
    /// queued: the event the loop wakes up for before the next tick.
    pub fn next_deadline(&self) -> Option<f64> {
        self.batcher.next_deadline()
    }

    /// Releases and classifies the queued steps if their deadline has
    /// passed at simulated time `now`.
    pub fn poll_deadline(
        &mut self,
        now: f64,
        clock: &mut SteadyClock,
        tracer: &mut Tracer,
    ) -> Res<()> {
        let open = tracer.enter("batching.take_ready");
        let ready = self.batcher.take_ready(now);
        tracer.exit(open);
        match ready {
            Some(batch) => {
                self.stats.flush_by_deadline += 1;
                self.classify(batch, now, clock, tracer)
            }
            None => Ok(()),
        }
    }

    fn classify(
        &mut self,
        batch: Vec<AlignedTuple>,
        now: f64,
        clock: &mut SteadyClock,
        tracer: &mut Tracer,
    ) -> Res<()> {
        let n = batch.len();
        let mut front = Vec::with_capacity(n);
        let mut windows = Vec::with_capacity(n * WINDOW_LEN * IMU_FEATURES);
        for tuple in batch {
            front.push(tuple.frame);
            windows.extend_from_slice(&tuple.window);
        }
        let windows = Tensor::from_vec(windows, &[n, WINDOW_LEN, IMU_FEATURES])?;
        let side: Vec<Frame> = if self.side_view {
            self.side.drain(..n).collect()
        } else {
            Vec::new()
        };
        let metas: Vec<(StepMeta, f64)> = self.meta.drain(..n).collect();
        let mut worst = [ModalityStatus::Healthy; 3];
        for (m, _) in &metas {
            for (w, s) in worst.iter_mut().zip(m.statuses) {
                *w = worse(*w, s);
            }
        }
        let mut inputs = vec![
            (StreamId::IMU, StreamInput::Windows(&windows)),
            (StreamId::CAMERA_FRONT, StreamInput::Frames(&front)),
        ];
        let mut statuses = vec![
            (StreamId::IMU, worst[0]),
            (StreamId::CAMERA_FRONT, worst[1]),
        ];
        if self.side_view {
            inputs.push((StreamId::CAMERA_SIDE, StreamInput::Frames(&side)));
            statuses.push((StreamId::CAMERA_SIDE, worst[2]));
        }

        let allocs_before = alloc_counter::allocation_count();
        let open = tracer.enter("engine.classify");
        let result = self
            .engine
            .classify_batch_checked_into(&inputs, &statuses, &mut self.out);
        tracer.exit(open);
        self.stats.classify_allocs += alloc_counter::allocation_count() - allocs_before;
        result?;

        let emitted = clock.now();
        for (label, (meta, pushed)) in self.out.iter().zip(&metas) {
            clock.record_latency(emitted - meta.handed_in_s);
            self.stats.waits_sim_ms.push((now - pushed) * 1e3);
            self.stats.bad_class += u64::from(label.class >= CLASSES);
            fnv1a(&mut self.stats.digest, &(label.class as u64).to_le_bytes());
            for s in &label.scores {
                self.stats.non_finite += u64::from(!s.is_finite());
                fnv1a(&mut self.stats.digest, &s.to_bits().to_le_bytes());
            }
            if self.stats.first.len() < GOLDEN_POSTERIORS {
                self.stats.first.push(label.scores.clone());
            }
        }
        if self.stats.batches.is_multiple_of(SHADOW_EVERY) {
            self.stats.shadow.push(ShadowSample {
                scores: self.out.iter().map(|l| l.scores.clone()).collect(),
                front,
                side,
                windows,
            });
        }
        self.stats.batches += 1;
        self.stats.labels += n as u64;
        Ok(())
    }
}
