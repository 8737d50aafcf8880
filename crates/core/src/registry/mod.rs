//! The modular analytics engine (paper §3.3): "a 1-to-1 mapping between
//! device data-streams and models, combined at a later stage". Streams
//! are an ordered registry, each described by a [`ModalityDescriptor`]
//! (identity and class mapping) and served by a
//! [`StreamModelSlot`]; the stream count is a parameter, and the paper's
//! camera + IMU pair is [`MultiModalEngine::darnet_pair`].
//!
//! Identity flows up from the collection layer: a stream is named by its
//! [`StreamId`] (the same tag the controller's health accounting and the
//! canonical multi-stream sessions use), and registry order fixes the
//! parent order of the combiner's CPTs.
//!
//! [`MultiModalEngine`] is the crate's one engine and its `classify_*_into`
//! methods the one classify implementation. What it is held to is what it
//! does not share a workspace or a buffer with: each model's allocating
//! `predict_proba` fused by [`NaryBayesianCombiner::combine_n`] or
//! [`ClassMap::expand_into`]. The stream types live in `streams.rs`, the
//! schedule and the resident workers in `workers.rs`.

mod streams;
mod workers;

use std::panic::{self, AssertUnwindSafe};

use darnet_collect::StreamId;
use darnet_sim::{CanonicalBehavior, Frame};
use darnet_tensor::{argmax, Parallelism, Tensor, Workspace};

use crate::ensemble::{CombinerKind, NaryBayesianCombiner};
use crate::error::CoreError;
use crate::health::ModalityStatus;
use crate::models::FrameCnn;
use crate::privacy::PrivacyLevel;
use crate::Result;
use streams::RegisteredStream;
pub use streams::{
    product_combine_subset_into, ClassMap, ModalityDescriptor, StreamInput, StreamModelSlot,
};
pub use workers::FAN_OUT_MIN_FLOPS;
use workers::{plan_streams, Schedule, Worker};

/// Registry capacity: fusion scratch lives on the stack, so the number of
/// registered streams is capped (far above any plausible sensor roster).
pub const MAX_STREAMS: usize = 8;

/// Whether every value is finite: a fold, not a short-circuit, so that it
/// vectorises — it reads every input value of every call.
fn all_finite(values: &[f32]) -> bool {
    values.iter().fold(true, |ok, v| ok & v.is_finite())
}

/// Running counts of how N-stream classifications were fused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SubsetCounters {
    /// Steps fused from every registered stream.
    pub full: u64,
    /// Steps fused from a strict (but plural) subset.
    pub partial: u64,
    /// Steps decided by a single surviving stream's expansion.
    pub single: u64,
    /// Steps computed while some contributing stream was degraded.
    pub degraded: u64,
}

/// One per-time-step classification from the N-stream engine.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiStepClassification {
    /// The fused canonical class index.
    pub class: usize,
    /// Fused class scores (normalized).
    pub scores: Vec<f32>,
    /// The streams that contributed, in registry order.
    pub used: Vec<StreamId>,
    /// `true` if a contributing stream was degraded or a registered
    /// stream had to be dropped.
    pub degraded: bool,
}

impl MultiStepClassification {
    /// The fused class as a cabin behaviour: `None` when the index lies
    /// outside the 8-class taxonomy (an engine over another class space).
    pub fn behavior(&self) -> Option<CanonicalBehavior> {
        CanonicalBehavior::from_index(self.class)
    }
}

/// The analytics engine: an ordered set of [`StreamModelSlot`]s fused by
/// the [`NaryBayesianCombiner`] (or the product rule) over whichever
/// subset of streams is healthy, on session buffers that make a warm
/// call allocation-free.
pub struct MultiModalEngine {
    classes: usize,
    kind: CombinerKind,
    streams: Vec<RegisteredStream>,
    combiner: Option<NaryBayesianCombiner>,
    /// Threads a call may use, the caller's included: the host's at
    /// construction, or what [`MultiModalEngine::set_parallelism`]
    /// installed.
    threads: usize,
    /// Resident stream workers, at most `threads − 1`, started by the
    /// first call that fans out ([`MultiModalEngine::fan_out`]).
    workers: Vec<Worker>,
    /// Calls that fanned out ([`MultiModalEngine::fanned_calls`]).
    fanned: u64,
    counters: SubsetCounters,
    pub(crate) ws: Workspace,
    scores_buf: Vec<f32>,
    /// Output entries no caller's vector holds, inner vectors sized: the
    /// ones a shorter batch cut off ([`MultiModalEngine::truncate_out`])
    /// and the spare set a growing call stocks
    /// ([`MultiModalEngine::fuse_batch`]).
    spare_steps: Vec<MultiStepClassification>,
    /// An empty output vector with room for the largest batch, swapped in
    /// for a caller's fresh one.
    spare_out: Vec<MultiStepClassification>,
    /// Frame scratch of the tuple feed path
    /// ([`MultiModalEngine::classify_tuples_into`]).
    pub(crate) tuple_frames: Vec<Frame>,
}

impl MultiModalEngine {
    /// Creates an empty engine over `classes` canonical classes, allowed
    /// as many threads as the host has (read once, here: the read touches
    /// cgroup files and allocates).
    pub fn new(classes: usize, kind: CombinerKind) -> Self {
        MultiModalEngine {
            classes,
            kind,
            streams: Vec::new(),
            combiner: None,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            workers: Vec::new(),
            fanned: 0,
            counters: SubsetCounters::default(),
            ws: Workspace::new(),
            scores_buf: Vec::new(),
            spare_steps: Vec::new(),
            spare_out: Vec::new(),
            tuple_frames: Vec::new(),
        }
    }

    /// The paper's engine: the front-camera CNN and an IMU model (the
    /// BiLSTM or the SVM baseline) over the 6-class taxonomy, in the pair
    /// CPT's parent order — camera, then IMU — with `combiner` installed
    /// as fitted.
    ///
    /// # Errors
    ///
    /// As [`MultiModalEngine::register`] and
    /// [`MultiModalEngine::set_combiner`]: a model whose class count is
    /// not 6 / 3, or a combiner not over cards `[6, 3]`.
    pub fn darnet_pair(
        kind: CombinerKind,
        cnn: FrameCnn,
        imu: StreamModelSlot,
        combiner: NaryBayesianCombiner,
    ) -> Result<Self> {
        let mut engine = MultiModalEngine::new(6, kind);
        engine.register(
            ModalityDescriptor::darnet_camera(),
            StreamModelSlot::Cnn(cnn),
        )?;
        engine.register(ModalityDescriptor::darnet_imu(), imu)?;
        engine.set_combiner(combiner)?;
        Ok(engine)
    }

    /// Canonical class count.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Registered stream ids in registry order.
    pub fn stream_ids(&self) -> Vec<StreamId> {
        self.streams.iter().map(|s| s.descriptor.id).collect()
    }

    /// The descriptor of a registered stream.
    pub fn descriptor(&self, id: StreamId) -> Option<&ModalityDescriptor> {
        self.streams
            .iter()
            .find(|s| s.descriptor.id == id)
            .map(|s| &s.descriptor)
    }

    /// Running fusion-path counters.
    pub fn counters(&self) -> SubsetCounters {
        self.counters
    }

    /// How many calls so far ran their streams on more than one thread
    /// (see [`MultiModalEngine::classify_batch_checked_into`]). An
    /// observation, like [`MultiModalEngine::counters`]: it sets nothing.
    pub fn fanned_calls(&self) -> u64 {
        self.fanned
    }

    /// `(pool_hits, cold_misses)` of the engine's session workspace.
    pub fn workspace_stats(&self) -> (u64, u64) {
        (self.ws.pool_hits(), self.ws.cold_misses())
    }

    /// Overrides the thread count the engine schedules its streams with —
    /// by default the host's hardware threads, read at construction.
    /// [`Parallelism::serial`] runs every call inline; a larger count lets
    /// a call split its present streams into up to that many groups, one
    /// run by the caller and each other one by a resident worker, when
    /// every group carries at least [`FAN_OUT_MIN_FLOPS`]
    /// ([`MultiModalEngine::classify_batch_checked_into`]). Workers beyond
    /// the new count's `threads − 1` are stopped and joined here. It is
    /// the only thread policy a product caller can set: models, layers
    /// and kernels have none and always run inline, so no worker starts
    /// another. Results never depend on the count.
    pub fn set_parallelism(&mut self, par: Parallelism) {
        self.threads = par.threads();
        self.workers.truncate(self.threads - 1);
    }

    /// Registers a stream. Registration order is registry order: it
    /// fixes the parent order of the combiner's CPTs and the order of
    /// product factors (new registries conventionally register in
    /// ascending [`StreamId`]; the paper's pair order — camera before
    /// IMU — is equally valid). The model's native class count must
    /// match the descriptor's class map. Registering a stream
    /// invalidates any installed combiner (its parent cardinalities
    /// changed).
    ///
    /// # Errors
    ///
    /// Returns a dataset error on duplicate ids, capacity, or
    /// class-count violations.
    pub fn register(
        &mut self,
        descriptor: ModalityDescriptor,
        model: StreamModelSlot,
    ) -> Result<()> {
        if self.streams.len() >= MAX_STREAMS {
            return Err(CoreError::Dataset(format!(
                "registry full: {MAX_STREAMS} streams"
            )));
        }
        if self
            .streams
            .iter()
            .any(|s| s.descriptor.id == descriptor.id)
        {
            return Err(CoreError::Dataset(format!(
                "stream {} is already registered",
                descriptor.id
            )));
        }
        if let ClassMap::Projection(m) = &descriptor.class_map {
            if m.len() != self.classes || m.is_empty() {
                return Err(CoreError::Dataset(format!(
                    "projection map has {} entries for {} classes",
                    m.len(),
                    self.classes
                )));
            }
            // A native class no canonical class projects onto would have
            // its posterior mass dropped by every fusion.
            let native = descriptor.native_classes(self.classes);
            if let Some(lost) = (0..native).find(|n| !m.contains(n)) {
                return Err(CoreError::Dataset(format!(
                    "projection map of stream {} has no canonical class for native class {lost}",
                    descriptor.id
                )));
            }
        }
        let want = descriptor.native_classes(self.classes);
        let got = model.native_classes();
        if want != got {
            return Err(CoreError::Dataset(format!(
                "stream {} model emits {got} classes but its descriptor maps {want}",
                descriptor.id
            )));
        }
        self.streams.push(RegisteredStream {
            descriptor,
            flops: model.flops_per_sample(),
            model,
            students: Vec::new(),
            route: None,
            probs: Vec::new(),
            present: false,
            status: ModalityStatus::Healthy,
            #[cfg(test)]
            panics: false,
        });
        self.combiner = None;
        Ok(())
    }

    /// Registers a distilled dCNN student (paper §4.3) on camera stream
    /// `id` for one privacy level, replacing any earlier student at that
    /// level. From then on a batch that arrives on the stream at the
    /// level's distorted geometry — [`PrivacyLevel::target_size`] of the
    /// stream model's input edge — is restored to the full edge inside
    /// the engine workspace and classified by the student: "the analytics
    /// engine picks the appropriate classifier". A distorted batch no
    /// student serves is a [`CoreError::NotReady`].
    ///
    /// # Errors
    ///
    /// Returns a dataset error when `id` is not a registered camera
    /// stream or the student's input size or class count differs from
    /// the stream model's.
    pub fn register_dcnn(
        &mut self,
        id: StreamId,
        level: PrivacyLevel,
        student: FrameCnn,
    ) -> Result<()> {
        let stream = self.streams.iter_mut().find(|s| s.descriptor.id == id);
        let Some(RegisteredStream {
            model: StreamModelSlot::Cnn(teacher),
            students,
            ..
        }) = stream
        else {
            return Err(CoreError::Dataset(format!(
                "stream {id} is not a registered camera stream"
            )));
        };
        let geometry = |m: &FrameCnn| (m.config().input_size, m.classes());
        if geometry(&student) != geometry(teacher) {
            return Err(CoreError::Dataset(format!(
                "{level} student (input, classes) {:?} does not match stream {id}'s {:?}",
                geometry(&student),
                geometry(teacher)
            )));
        }
        students.retain(|(l, _)| *l != level);
        students.push((level, StreamModelSlot::Cnn(student)));
        Ok(())
    }

    /// Installs a fitted N-ary combiner whose parent cardinalities must
    /// match the registered streams in order.
    ///
    /// # Errors
    ///
    /// Returns a dataset error on a cardinality mismatch.
    pub fn set_combiner(&mut self, combiner: NaryBayesianCombiner) -> Result<()> {
        let cards: Vec<usize> = self
            .streams
            .iter()
            .map(|s| s.descriptor.native_classes(self.classes))
            .collect();
        if combiner.classes() != self.classes || combiner.parent_cards() != cards.as_slice() {
            return Err(CoreError::Dataset(format!(
                "combiner over {:?} parents does not match registry {:?}",
                combiner.parent_cards(),
                cards
            )));
        }
        self.combiner = Some(combiner);
        Ok(())
    }

    /// Fits a fresh N-ary combiner from per-stream training posteriors
    /// (`[n, native_k]`, registry order) and installs it.
    ///
    /// # Errors
    ///
    /// Propagates fit errors.
    pub fn fit_combiner(&mut self, parent_probs: &[&Tensor], labels: &[usize]) -> Result<()> {
        let cards: Vec<usize> = self
            .streams
            .iter()
            .map(|s| s.descriptor.native_classes(self.classes))
            .collect();
        let mut combiner = NaryBayesianCombiner::new(self.classes, cards, 1.0);
        combiner.fit(parent_probs, labels)?;
        self.combiner = Some(combiner);
        Ok(())
    }

    /// Classifies a batch of aligned time-steps, all provided streams
    /// assumed healthy.
    ///
    /// # Errors
    ///
    /// As [`MultiModalEngine::classify_batch_checked_into`].
    pub fn classify_batch_into(
        &mut self,
        inputs: &[(StreamId, StreamInput<'_>)],
        out: &mut Vec<MultiStepClassification>,
    ) -> Result<()> {
        self.classify_batch_checked_into(inputs, &[], out)
    }

    /// Health-aware batch classification over whichever subset of
    /// registered streams is usable. A stream participates when its
    /// input is provided *and* its status (default
    /// [`ModalityStatus::Healthy`]; typically from
    /// [`crate::health::HealthPolicy::select_subset`]) is not
    /// [`ModalityStatus::Unavailable`]. Fusion follows the healthy-subset
    /// policy: every registered stream → N-ary fusion; a plural strict
    /// subset → the same combiner with absent parents marginalized out; a
    /// single survivor → its class-map expansion (the CNN-only / IMU-only
    /// fallbacks).
    ///
    /// The engine schedules the call itself: the present streams are split
    /// into at most as many groups as it has threads
    /// ([`MultiModalEngine::set_parallelism`]; the host's by default),
    /// the caller runs one group and a resident worker each of the others —
    /// but only when every group carries at least [`FAN_OUT_MIN_FLOPS`] of
    /// forward work over the batch. A single survivor, a serial engine and
    /// every call below that floor (edge-scale models) run inline. After
    /// one warm-up call at a given batch shape, a steady-state call
    /// performs zero heap allocations end to end, inline or fanned out
    /// (the first fanned call starts the workers). The output never
    /// depends on the schedule.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotReady`] when no stream is usable (or the
    /// Bayesian combiner is missing); a dataset error on shape
    /// mismatches, unknown stream ids or a stream id given twice in
    /// `inputs` or in `statuses`; otherwise propagates model errors.
    pub fn classify_batch_checked_into(
        &mut self,
        inputs: &[(StreamId, StreamInput<'_>)],
        statuses: &[(StreamId, ModalityStatus)],
        out: &mut Vec<MultiStepClassification>,
    ) -> Result<()> {
        if self.streams.is_empty() {
            return Err(CoreError::NotReady("no streams registered".into()));
        }
        for (i, (id, _)) in inputs.iter().enumerate() {
            if !self.streams.iter().any(|s| s.descriptor.id == *id) {
                return Err(CoreError::Dataset(format!("unknown stream {id}")));
            }
            if inputs[..i].iter().any(|(s, _)| s == id) {
                return Err(CoreError::Dataset(format!("stream {id} has two inputs")));
            }
        }
        for (i, (id, _)) in statuses.iter().enumerate() {
            if statuses[..i].iter().any(|(s, _)| s == id) {
                return Err(CoreError::Dataset(format!("stream {id} has two statuses")));
            }
        }
        // Resolve each stream's participation and the batch length.
        let mut n: Option<usize> = None;
        for stream in &mut self.streams {
            let id = stream.descriptor.id;
            let status = statuses
                .iter()
                .find(|(s, _)| *s == id)
                .map(|(_, st)| *st)
                .unwrap_or(ModalityStatus::Healthy);
            let input = inputs.iter().find(|(s, _)| *s == id).map(|(_, i)| i);
            stream.status = status;
            stream.present = status != ModalityStatus::Unavailable && input.is_some();
            if !stream.present {
                stream.probs.clear();
                continue;
            }
            if let Some(input) = input {
                let len = input.len();
                match n {
                    None => n = Some(len),
                    Some(m) if m != len => {
                        return Err(CoreError::Dataset(format!(
                            "stream {id} batch length {len} disagrees with {m}"
                        )));
                    }
                    _ => {}
                }
            }
        }
        let Some(n) = n else {
            return Err(CoreError::NotReady(
                "every registered stream is unavailable — nothing to classify from".into(),
            ));
        };
        if n > 0 {
            self.predict_streams(inputs, n)?;
            self.fuse_batch(n, out)?;
        }
        self.truncate_out(out, n);
        Ok(())
    }

    /// Shortens `out` to `n` steps, keeping the entries it cuts — and
    /// their inner vectors' capacity — for the next call that grows an
    /// output, so a caller alternating batch sizes (8, 6, 8, 2 off a
    /// micro-batcher) allocates nothing once the largest has been seen.
    pub(crate) fn truncate_out(&mut self, out: &mut Vec<MultiStepClassification>, n: usize) {
        if out.len() > n {
            self.spare_steps.extend(out.drain(n..));
        }
    }

    /// Runs every present stream's model over its assembled input,
    /// filling the per-stream posterior buffers. The schedule is decided
    /// here, once per call, by [`plan_streams`] from the engine's thread
    /// count, the present streams' FLOPs and the batch length. Inline,
    /// each stream in registry order has its camera batch assembled
    /// (checked out of the workspace; a distorted batch is restored here
    /// and routed to its dCNN student, [`MultiModalEngine::register_dcnn`]),
    /// its model run and the batch returned, so one camera batch is out at
    /// a time. Fanned out, see [`MultiModalEngine::fan_out`]; a host that
    /// will not give a worker thread runs the call inline. Either way the
    /// first error in registry order is the one returned. Before any model
    /// runs, a present stream handed frames for a window model or windows
    /// for a frame model is a [`CoreError::Dataset`], and one whose input
    /// holds a NaN or an infinity is [`CoreError::NonFinitePosterior`].
    fn predict_streams(&mut self, inputs: &[(StreamId, StreamInput<'_>)], n: usize) -> Result<()> {
        // tanh and the sigmoid saturate ±inf to ±1 and 0, which would
        // launder a poisoned input into a confident posterior.
        for stream in &self.streams {
            let finite = match (stream.input(inputs), &stream.model) {
                (Some(StreamInput::Frames(frames)), StreamModelSlot::Cnn(_)) => {
                    frames.iter().all(|f| all_finite(f.pixels()))
                }
                (Some(StreamInput::Windows(windows)), StreamModelSlot::Cnn(_)) => {
                    return Err(CoreError::Dataset(format!(
                        "stream {} takes frames, got {:?} windows",
                        stream.descriptor.id,
                        windows.dims()
                    )));
                }
                (Some(StreamInput::Frames(_)), _) => {
                    return Err(CoreError::Dataset(format!(
                        "stream {} takes windows, got frames",
                        stream.descriptor.id
                    )));
                }
                (Some(StreamInput::Windows(windows)), _) => all_finite(windows.data()),
                (None, _) => true,
            };
            if !finite {
                return Err(CoreError::NonFinitePosterior {
                    stream: stream.descriptor.id,
                });
            }
        }
        let classes = self.classes;
        let mut flops = [None; MAX_STREAMS];
        for (cost, stream) in flops.iter_mut().zip(&self.streams) {
            *cost = stream.present.then_some(stream.flops);
        }
        let plan = plan_streams(self.threads, &flops[..self.streams.len()], n);
        match plan.filter(|plan| self.hire(plan.groups - 1)) {
            Some(plan) => self.fan_out(&plan, inputs, n)?,
            None => {
                let MultiModalEngine { streams, ws, .. } = self;
                for stream in streams.iter_mut() {
                    match stream.input(inputs) {
                        Some(StreamInput::Windows(windows)) => stream.run_model(windows)?,
                        Some(StreamInput::Frames(frames)) => {
                            let batch = stream.assemble(frames, n, ws)?;
                            let run = stream.run_model(&batch);
                            ws.restore(batch);
                            run?;
                        }
                        None => {}
                    }
                }
            }
        }
        // Posterior checks. Width catches a model/descriptor mismatch
        // that slipped past registration (e.g. a refit model). Finiteness
        // stops a poisoned window here: the label's `argmax` compares
        // with `>`, false against a NaN, so a poisoned row would still
        // come out labelled.
        for stream in self.streams.iter().filter(|s| s.present) {
            let id = stream.descriptor.id;
            let native = stream.descriptor.native_classes(classes);
            if stream.probs.len() != n * native {
                return Err(CoreError::Dataset(format!(
                    "stream {id} produced {} probabilities for {n}×{native}",
                    stream.probs.len()
                )));
            }
            if !stream.probs.iter().all(|p| p.is_finite()) {
                return Err(CoreError::NonFinitePosterior { stream: id });
            }
        }
        Ok(())
    }

    /// Starts resident workers until the engine has `count`; whether it
    /// has them.
    fn hire(&mut self, count: usize) -> bool {
        while self.workers.len() < count {
            match Worker::start() {
                Some(worker) => self.workers.push(worker),
                None => return false,
            }
        }
        true
    }

    /// Runs a call's streams by `plan` on the caller and the resident
    /// workers. Every input is made an owned batch first, in registry
    /// order on the caller's thread: camera batches are assembled, and
    /// the windows of a stream bound for a worker are copied, into
    /// workspace checkouts. An assembly error stops that stream and every
    /// later one from running, as inline. Each worker's streams then move
    /// out of the registry, highest index first, to that worker with
    /// their batches; the caller runs the last group in place, then takes
    /// every worker's streams back into their registry places and every
    /// batch back to the workspace — on a model error and on a panic too,
    /// so the registry is whole again before anything returns. The error
    /// returned is the first in registry order across groups; a worker's
    /// panic is its group's [`CoreError::WorkerPanicked`], and one in the
    /// caller's group resumes once everything is back.
    fn fan_out(
        &mut self,
        plan: &Schedule,
        inputs: &[(StreamId, StreamInput<'_>)],
        n: usize,
    ) -> Result<()> {
        self.fanned += 1;
        let MultiModalEngine {
            streams,
            workers,
            ws,
            ..
        } = self;
        let caller = plan.groups - 1;
        let mut batches: [Option<Tensor>; MAX_STREAMS] = [const { None }; MAX_STREAMS];
        let mut failed = None;
        for (k, (stream, batch)) in streams.iter_mut().zip(&mut batches).enumerate() {
            let assembled = match stream.input(inputs) {
                Some(StreamInput::Frames(frames)) => stream.assemble(frames, n, ws),
                Some(StreamInput::Windows(windows)) if plan.group[k] != caller => {
                    let mut copy = ws.checkout(windows.dims());
                    copy.data_mut().copy_from_slice(windows.data());
                    Ok(copy)
                }
                _ => continue,
            };
            match assembled {
                Ok(assembled) => *batch = Some(assembled),
                Err(e) => {
                    failed = Some((k, e));
                    break;
                }
            }
        }
        let runnable = failed.as_ref().map_or(streams.len(), |(k, _)| *k);
        // Hand each worker its streams, highest registry index first, so
        // the indices still to move stay put.
        let mut moved = [false; MAX_STREAMS];
        for k in (0..runnable).rev() {
            let group = plan.group[k];
            if group == caller {
                continue;
            }
            if let Some(batch) = batches[k].take() {
                let job = (k, streams.remove(k), batch);
                workers[group].give(job);
                moved[k] = true;
            }
        }
        let workers = &workers[..caller];
        for worker in workers {
            worker.run();
        }
        // The caller's group: the streams that stayed, still in registry
        // order, paired with their registry places.
        let ran = panic::catch_unwind(AssertUnwindSafe(|| {
            let stayed = (0..runnable).filter(|&k| !moved[k]);
            stayed.zip(streams.iter_mut()).find_map(|(k, stream)| {
                let input = match (stream.input(inputs), &batches[k]) {
                    (_, Some(batch)) => batch,
                    (Some(StreamInput::Windows(windows)), None) => windows,
                    _ => return None,
                };
                stream.run_model(input).err().map(|e| (k, e))
            })
        }));
        let earliest =
            |a: Option<(usize, CoreError)>, b| a.into_iter().chain(b).min_by_key(|(k, _)| *k);
        let panicked = match ran {
            Ok(error) => {
                failed = earliest(failed, error);
                None
            }
            Err(payload) => Some(payload),
        };
        for worker in workers {
            failed = earliest(failed, worker.finish());
        }
        // Every stream back to its registry place, lowest first, and every
        // batch back to the workspace.
        for k in (0..runnable).filter(|&k| moved[k]) {
            if let Some((_, stream, batch)) = workers[plan.group[k]].take() {
                streams.insert(k, stream);
                ws.restore(batch);
            }
        }
        for batch in batches.into_iter().flatten() {
            ws.restore(batch);
        }
        if let Some(payload) = panicked {
            panic::resume_unwind(payload);
        }
        failed.map_or(Ok(()), |(_, e)| Err(e))
    }

    /// Fuses one time-step's posteriors (`parents[k]` is registered
    /// stream `k`'s native row, `None` if it sits this step out) by the
    /// healthy-subset policy: a single survivor → its class-map
    /// expansion; otherwise the configured combiner over the present
    /// subset, absent parents marginalized out.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotReady`] when every parent is absent or the
    /// Bayesian combiner is missing; a dataset error on width mismatches.
    fn fuse_row(&self, parents: &[Option<&[f32]>], scores: &mut Vec<f32>) -> Result<()> {
        let classes = self.classes;
        let mut present = self
            .streams
            .iter()
            .zip(parents)
            .filter_map(|(stream, row)| row.map(|row| (stream, row)));
        let Some((first, first_row)) = present.next() else {
            return Err(CoreError::NotReady(
                "every registered stream is unavailable — nothing to classify from".into(),
            ));
        };
        if present.next().is_none() {
            return first
                .descriptor
                .class_map
                .expand_into(first_row, classes, scores);
        }
        match self.kind {
            CombinerKind::Bayesian => match &self.combiner {
                Some(c) => c.combine_subset_into(parents, scores),
                None => Err(CoreError::NotReady(
                    "no n-ary combiner installed — call fit_combiner or set_combiner".into(),
                )),
            },
            CombinerKind::Product => {
                let mut factors: [(Option<&[f32]>, &ClassMap); MAX_STREAMS] =
                    [(None, &ClassMap::Identity); MAX_STREAMS];
                let n = self.streams.len().min(parents.len());
                for (factor, (stream, row)) in
                    factors.iter_mut().zip(self.streams.iter().zip(parents))
                {
                    *factor = (*row, &stream.descriptor.class_map);
                }
                product_combine_subset_into(&factors[..n], classes, scores)
            }
            // Primary-stream-only fusion: expand the first *present*
            // stream (the paper's CNN-only baseline when the front
            // camera is up).
            CombinerKind::CnnOnly => first
                .descriptor
                .class_map
                .expand_into(first_row, classes, scores),
        }
    }

    /// Fuses step `i` of the batch from the present streams' posterior
    /// rows and writes it into entry `i` of the reused output vector (its
    /// inner vectors keep their capacity).
    fn fuse_step(
        &self,
        i: usize,
        degraded: bool,
        scores: &mut Vec<f32>,
        out: &mut [MultiStepClassification],
    ) -> Result<()> {
        let mut parents: [Option<&[f32]>; MAX_STREAMS] = [None; MAX_STREAMS];
        for (parent, stream) in parents.iter_mut().zip(&self.streams) {
            if !stream.present {
                continue;
            }
            let native = stream.descriptor.native_classes(self.classes);
            *parent = Some(&stream.probs[i * native..(i + 1) * native]);
        }
        self.fuse_row(&parents[..self.streams.len()], scores)?;
        let step = &mut out[i];
        step.class = argmax(scores);
        step.scores.clear();
        step.scores.extend_from_slice(scores);
        step.used.clear();
        let present = self.streams.iter().filter(|s| s.present);
        step.used.extend(present.map(|s| s.descriptor.id));
        step.degraded = degraded;
        Ok(())
    }

    /// Fuses the per-stream posteriors item by item into `out`, grown to
    /// the batch first from the spare entries
    /// ([`MultiModalEngine::truncate_out`]). Only a step count no entry
    /// covers allocates, and that call also stocks a spare set — `n`
    /// entries and an output vector with room for them — so a caller that
    /// then brings a fresh vector (a labeller after a warm-up call into a
    /// temporary) allocates nothing either.
    fn fuse_batch(&mut self, n: usize, out: &mut Vec<MultiStepClassification>) -> Result<()> {
        let degraded = self
            .streams
            .iter()
            .any(|s| !s.present || s.status == ModalityStatus::Degraded);
        if out.capacity() == 0 {
            std::mem::swap(out, &mut self.spare_out);
        }
        let held = out.len() + self.spare_steps.len();
        if held < n {
            let (classes, streams) = (self.classes, self.streams.len());
            // Room for every entry to come back through `truncate_out`.
            self.spare_steps.reserve(2 * n - self.spare_steps.len());
            self.spare_steps
                .extend((held..2 * n).map(|_| MultiStepClassification {
                    class: 0,
                    scores: Vec::with_capacity(classes),
                    used: Vec::with_capacity(streams),
                    degraded,
                }));
            self.spare_out.reserve(n);
        }
        let from = self.spare_steps.len() - n.saturating_sub(out.len());
        out.extend(self.spare_steps.drain(from..));
        let mut scores = std::mem::take(&mut self.scores_buf);
        let fused = (0..n).try_for_each(|i| self.fuse_step(i, degraded, &mut scores, out));
        self.scores_buf = scores;
        fused?;
        // Every step of a batch fuses the same subset of streams.
        let counter = match self.streams.iter().filter(|s| s.present).count() {
            used if used == self.streams.len() => &mut self.counters.full,
            1 => &mut self.counters.single,
            _ => &mut self.counters.partial,
        };
        *counter += n as u64;
        if degraded {
            self.counters.degraded += n as u64;
        }
        Ok(())
    }
}

impl std::fmt::Debug for MultiModalEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiModalEngine")
            .field("classes", &self.classes)
            .field("kind", &self.kind)
            .field("streams", &self.stream_ids())
            .field("fitted", &self.combiner.as_ref().map(|c| c.is_fitted()))
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
    use crate::dataset::{frames_to_tensor, IMU_FEATURES, WINDOW_LEN};
    use crate::models::{CnnConfig, ImuRnn, ImuSvm, RnnConfig};
    use crate::privacy::Downsampler;
    use darnet_sim::{DriverProfile, FrameRenderer};

    fn tiny_cnn(seed: u64) -> FrameCnn {
        let cnn_config = CnnConfig {
            input_size: 24,
            classes: 6,
            width: 0.5,
            ..CnnConfig::default()
        };
        FrameCnn::new(cnn_config, seed)
    }

    /// Seeded, so two calls build weight-identical twins.
    fn tiny_models() -> (FrameCnn, ImuRnn, NaryBayesianCombiner) {
        let rnn_config = RnnConfig {
            hidden: 4,
            depth: 1,
            ..RnnConfig::default()
        };
        let mut rnn = ImuRnn::new(rnn_config, 2);
        let x = Tensor::ones(&[6, WINDOW_LEN, IMU_FEATURES]);
        rnn.fit(&x, &[0, 1, 2, 0, 1, 2], 1).unwrap();
        let mut combiner = NaryBayesianCombiner::new(6, vec![6, 3], 1.0);
        let cnn_probs = Tensor::full(&[6, 6], 1.0 / 6.0);
        let imu_probs = Tensor::full(&[6, 3], 1.0 / 3.0);
        combiner
            .fit(&[&cnn_probs, &imu_probs], &[0, 1, 2, 3, 4, 5])
            .unwrap();
        (tiny_cnn(1), rnn, combiner)
    }

    /// The SVM baseline for the pair's IMU slot.
    pub(super) fn tiny_svm() -> ImuSvm {
        let mut svm = ImuSvm::new(WINDOW_LEN, IMU_FEATURES, 3);
        let mut x = Tensor::zeros(&[6, WINDOW_LEN, IMU_FEATURES]);
        for (i, v) in x.data_mut().iter_mut().enumerate() {
            *v = ((i * 7) % 11) as f32 * 0.1;
        }
        let mut rng = darnet_tensor::SplitMix64::new(5);
        svm.fit(&x, &[0, 1, 2, 0, 1, 2], &mut rng).unwrap();
        svm
    }

    /// The paper's pair: camera before IMU, the pair CPT's parent order.
    fn pair_engine(kind: CombinerKind) -> MultiModalEngine {
        let (cnn, rnn, combiner) = tiny_models();
        MultiModalEngine::darnet_pair(kind, cnn, StreamModelSlot::Rnn(rnn), combiner).unwrap()
    }

    fn pair_inputs<'a>(
        frames: &'a [Frame],
        windows: &'a Tensor,
    ) -> [(StreamId, StreamInput<'a>); 2] {
        [
            (StreamId::CAMERA_FRONT, StreamInput::Frames(frames)),
            (StreamId::IMU, StreamInput::Windows(windows)),
        ]
    }

    pub(super) fn test_batch(n: usize) -> (Vec<Frame>, Tensor) {
        let renderer = FrameRenderer::new(7).with_size(24);
        let driver = DriverProfile::generate(0, 42);
        let behaviors = [
            CanonicalBehavior::NormalDriving,
            CanonicalBehavior::Reaching,
            CanonicalBehavior::HairMakeup,
            CanonicalBehavior::Talking,
            CanonicalBehavior::Texting,
            CanonicalBehavior::EatingDrinking,
        ];
        let frames: Vec<Frame> = (0..n)
            .map(|i| renderer.render(&driver, behaviors[i % behaviors.len()], i as f64 * 0.31))
            .collect();
        let mut windows = Tensor::zeros(&[n, WINDOW_LEN, IMU_FEATURES]);
        for (i, v) in windows.data_mut().iter_mut().enumerate() {
            *v = (i % 7) as f32 * 0.1;
        }
        (frames, windows)
    }

    fn window_row(windows: &Tensor, i: usize) -> Tensor {
        let row = WINDOW_LEN * IMU_FEATURES;
        let data = windows.data()[i * row..(i + 1) * row].to_vec();
        Tensor::from_vec(data, &[1, WINDOW_LEN, IMU_FEATURES]).unwrap()
    }

    pub(super) fn assert_bitwise(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: lane {i}: {x} vs {y}");
        }
    }

    /// The pair product rule, frozen: `cnn[c] · max(imu[imu_class(c)], 1e-6)`,
    /// normalized.
    pub(super) fn frozen_product(cnn: &[f32], imu: &[f32]) -> Vec<f32> {
        let m = [0usize, 1, 2, 0, 0, 0];
        let mut scores: Vec<f32> = (0..6).map(|c| cnn[c] * imu[m[c]].max(1e-6)).collect();
        let total: f32 = scores.iter().sum();
        if total > 0.0 {
            scores.iter_mut().for_each(|s| *s /= total);
        }
        scores
    }

    /// The IMU-only expansion, frozen: fanout-split then total-normalize.
    pub(super) fn frozen_imu_expansion(imu: &[f32]) -> Vec<f32> {
        let fanout = [4.0f32, 1.0, 1.0];
        let m = [0usize, 1, 2, 0, 0, 0];
        let mut scores: Vec<f32> = (0..6).map(|c| imu[m[c]] / fanout[m[c]]).collect();
        let total: f32 = scores.iter().sum();
        scores.iter_mut().for_each(|s| *s /= total);
        scores
    }

    /// What the engine is held to: fresh twins' allocating `predict_proba`
    /// per stream — no engine, no workspace — as `(cnn, imu)` row pairs.
    fn reference_posteriors(frames: &[Frame], windows: &Tensor) -> Vec<(Vec<f32>, Vec<f32>)> {
        let (mut cnn, mut rnn, _) = tiny_models();
        let cnn_probs = cnn
            .predict_proba(&frames_to_tensor(frames).unwrap())
            .unwrap();
        let imu_probs = rnn.predict_proba(windows).unwrap();
        let rows = cnn_probs.data().chunks(6).zip(imu_probs.data().chunks(3));
        rows.map(|(c, m)| (c.to_vec(), m.to_vec())).collect()
    }

    #[test]
    fn pair_engine_is_bitwise_the_reference_for_every_combiner() {
        let (frames, windows) = test_batch(5);
        let inputs = pair_inputs(&frames, &windows);
        let reference = reference_posteriors(&frames, &windows);
        let (_, _, combiner) = tiny_models();
        for kind in [
            CombinerKind::Bayesian,
            CombinerKind::Product,
            CombinerKind::CnnOnly,
        ] {
            let mut engine = pair_engine(kind);
            let mut out = Vec::new();
            engine.classify_batch_into(&inputs, &mut out).unwrap();
            assert_eq!(out.len(), frames.len());
            for (i, (got, (cnn, imu))) in out.iter().zip(&reference).enumerate() {
                let want = match kind {
                    CombinerKind::Bayesian => combiner.combine_n(&[cnn, imu]).unwrap(),
                    CombinerKind::Product => frozen_product(cnn, imu),
                    CombinerKind::CnnOnly => cnn.clone(),
                };
                assert_bitwise(&got.scores, &want, &format!("{kind:?} item {i}"));
                assert!((got.scores.iter().sum::<f32>() - 1.0).abs() < 1e-4);
                assert_eq!(
                    got.scores[got.class],
                    want.iter().copied().fold(0.0, f32::max)
                );
                assert_eq!(got.behavior(), CanonicalBehavior::from_index(got.class));
                assert_eq!(got.used, vec![StreamId::CAMERA_FRONT, StreamId::IMU]);
                assert!(!got.degraded);
            }
            assert_eq!(engine.counters().full, frames.len() as u64);

            // Repeat calls reuse buffers and stay identical; the session
            // workspace stops allocating after warm-up.
            let misses = engine.workspace_stats().1;
            let snapshot = out.clone();
            engine.classify_batch_into(&inputs, &mut out).unwrap();
            assert_eq!(out, snapshot);
            assert_eq!(engine.workspace_stats().1, misses, "workspace grew");

            // A shorter batch truncates the reused output vector.
            let first = window_row(&windows, 0);
            engine
                .classify_batch_into(&pair_inputs(&frames[..1], &first), &mut out)
                .unwrap();
            assert_eq!(out, snapshot[..1]);
        }
    }

    #[test]
    fn batch_is_bitwise_its_per_item_steps() {
        let (frames, windows) = test_batch(5);
        let mut batch = Vec::new();
        pair_engine(CombinerKind::Bayesian)
            .classify_batch_into(&pair_inputs(&frames, &windows), &mut batch)
            .unwrap();
        let mut single = pair_engine(CombinerKind::Bayesian);
        let mut step = Vec::new();
        for (i, frame) in frames.iter().enumerate() {
            let window = window_row(&windows, i);
            let inputs = pair_inputs(std::slice::from_ref(frame), &window);
            single.classify_batch_into(&inputs, &mut step).unwrap();
            assert_eq!(step.len(), 1);
            assert_eq!(step[0], batch[i], "batch item {i} diverged");
        }
        assert_eq!(single.counters().full, frames.len() as u64);
    }

    #[test]
    fn tuple_feed_is_bitwise_the_batch_path() {
        use darnet_collect::runtime::AlignedTuple;

        let (frames, windows) = test_batch(4);
        let row = WINDOW_LEN * IMU_FEATURES;
        let tuples: Vec<AlignedTuple> = (0..frames.len())
            .map(|i| AlignedTuple {
                t: i as f64 * 0.25,
                frame: frames[i].clone(),
                window: windows.data()[i * row..(i + 1) * row].to_vec(),
            })
            .collect();
        let bad = vec![AlignedTuple {
            t: 0.0,
            frame: Frame::new(24, 24),
            window: vec![0.0; 7],
        }];
        let (camera, imu) = (StreamId::CAMERA_FRONT, StreamId::IMU);
        // Every combiner, and both IMU models the slot can hold.
        for svm_slot in [false, true] {
            for kind in [
                CombinerKind::Bayesian,
                CombinerKind::Product,
                CombinerKind::CnnOnly,
            ] {
                let build = || {
                    let (cnn, rnn, combiner) = tiny_models();
                    let slot = match svm_slot {
                        true => StreamModelSlot::Svm(tiny_svm()),
                        false => StreamModelSlot::Rnn(rnn),
                    };
                    MultiModalEngine::darnet_pair(kind, cnn, slot, combiner).unwrap()
                };
                let mut expected = Vec::new();
                build()
                    .classify_batch_into(&pair_inputs(&frames, &windows), &mut expected)
                    .unwrap();
                assert_eq!(expected.len(), tuples.len());

                let mut engine = build();
                let mut out = Vec::new();
                for round in 0..3 {
                    engine
                        .classify_tuples_into(camera, imu, &tuples, &mut out)
                        .unwrap();
                    assert_eq!(out, expected, "{kind:?} round {round} diverged");
                }
                assert_eq!(engine.counters().full, 3 * tuples.len() as u64);

                // Malformed tuple windows are rejected without
                // disturbing state.
                assert!(engine
                    .classify_tuples_into(camera, imu, &bad, &mut out)
                    .is_err());
                engine
                    .classify_tuples_into(camera, imu, &tuples, &mut out)
                    .unwrap();
                assert_eq!(out, expected);
                // An empty flush clears the reused output.
                engine
                    .classify_tuples_into(camera, imu, &[], &mut out)
                    .unwrap();
                assert!(out.is_empty());
            }
        }
    }

    #[test]
    fn malformed_batches_are_rejected() {
        let mut engine = pair_engine(CombinerKind::Bayesian);
        let frames = vec![Frame::new(24, 24), Frame::new(24, 24)];
        let mut out = Vec::new();
        // Three windows for two frames.
        let windows = Tensor::zeros(&[3, WINDOW_LEN, IMU_FEATURES]);
        assert!(matches!(
            engine.classify_batch_into(&pair_inputs(&frames, &windows), &mut out),
            Err(CoreError::Dataset(_))
        ));
        // Windows of five features: the stream's model rejects them.
        let narrow = Tensor::zeros(&[2, WINDOW_LEN, 5]);
        assert!(engine
            .classify_batch_into(&pair_inputs(&frames, &narrow), &mut out)
            .is_err());
        // A model whose class count is not the pair's, or a combiner over
        // other cards, never becomes an engine.
        let (cnn, rnn, combiner) = tiny_models();
        let wrong_cards = NaryBayesianCombiner::new(6, vec![3, 6], 1.0);
        assert!(MultiModalEngine::darnet_pair(
            CombinerKind::Bayesian,
            cnn,
            StreamModelSlot::Rnn(rnn),
            wrong_cards
        )
        .is_err());
        assert!(MultiModalEngine::darnet_pair(
            CombinerKind::Bayesian,
            tiny_cnn(1),
            StreamModelSlot::Cnn(tiny_cnn(2)),
            combiner
        )
        .is_err());
    }

    #[test]
    fn nan_window_is_an_error_not_a_label() {
        let (frames, windows) = test_batch(3);
        let mut engine = pair_engine(CombinerKind::Bayesian);
        let mut out = Vec::new();
        engine
            .classify_batch_into(&pair_inputs(&frames, &windows), &mut out)
            .unwrap();
        // One NaN accelerometer sample in the second step's window.
        let mut poisoned = windows.clone();
        poisoned.data_mut()[WINDOW_LEN * IMU_FEATURES + 3] = f32::NAN;
        let inputs = pair_inputs(&frames, &poisoned);
        assert_eq!(
            engine.classify_batch_into(&inputs, &mut out),
            Err(CoreError::NonFinitePosterior {
                stream: StreamId::IMU
            })
        );
        // No step of the poisoned batch was counted, and with the IMU
        // stream sitting out the camera decides alone.
        assert_eq!(engine.counters().full, 3);
        let imu_down = [(StreamId::IMU, ModalityStatus::Unavailable)];
        engine
            .classify_batch_checked_into(&inputs, &imu_down, &mut out)
            .unwrap();
        assert!(out.iter().all(|o| o.used == vec![StreamId::CAMERA_FRONT]));
    }

    #[test]
    fn infinite_window_is_an_error_not_a_label() {
        let (frames, windows) = test_batch(3);
        let mut engine = pair_engine(CombinerKind::Bayesian);
        let mut out = Vec::new();
        for poison in [f32::INFINITY, f32::NEG_INFINITY] {
            // One infinite feature in the third step's window.
            let mut poisoned = windows.clone();
            poisoned.data_mut()[2 * WINDOW_LEN * IMU_FEATURES + 4] = poison;
            assert_eq!(
                engine.classify_batch_into(&pair_inputs(&frames, &poisoned), &mut out),
                Err(CoreError::NonFinitePosterior {
                    stream: StreamId::IMU
                }),
                "{poison}"
            );
        }
        assert_eq!(engine.counters().full, 0);
    }

    #[test]
    fn non_finite_pixel_is_an_error_not_a_label() {
        let (frames, windows) = test_batch(3);
        let mut engine = pair_engine(CombinerKind::Bayesian);
        let mut out = Vec::new();
        for poison in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
            let mut poisoned = frames.clone();
            // One pixel of the second frame, one whose ±inf the tiny CNN
            // would turn into a finite posterior without the input check.
            poisoned[1].pixels_mut()[0] = poison;
            assert_eq!(
                engine.classify_batch_into(&pair_inputs(&poisoned, &windows), &mut out),
                Err(CoreError::NonFinitePosterior {
                    stream: StreamId::CAMERA_FRONT
                }),
                "{poison}"
            );
        }
        assert_eq!(engine.counters().full, 0);
        // With the front camera sitting out, the IMU decides alone.
        let mut poisoned = frames.clone();
        poisoned[0].pixels_mut()[0] = f32::INFINITY;
        let camera_down = [(StreamId::CAMERA_FRONT, ModalityStatus::Unavailable)];
        engine
            .classify_batch_checked_into(&pair_inputs(&poisoned, &windows), &camera_down, &mut out)
            .unwrap();
        assert!(out.iter().all(|o| o.used == vec![StreamId::IMU]));
    }

    /// A three-stream engine in ascending `StreamId` order: IMU, front
    /// camera, side camera.
    pub(super) fn three_stream_engine() -> MultiModalEngine {
        let (cnn, rnn, _) = tiny_models();
        let side_cnn = FrameCnn::new(
            CnnConfig {
                input_size: 24,
                classes: 6,
                width: 0.5,
                ..CnnConfig::default()
            },
            3,
        );
        let mut engine = MultiModalEngine::new(6, CombinerKind::Bayesian);
        engine
            .register(ModalityDescriptor::darnet_imu(), StreamModelSlot::Rnn(rnn))
            .unwrap();
        engine
            .register(
                ModalityDescriptor::darnet_camera(),
                StreamModelSlot::Cnn(cnn),
            )
            .unwrap();
        engine
            .register(
                ModalityDescriptor::new(StreamId::CAMERA_SIDE, ClassMap::Identity),
                StreamModelSlot::Cnn(side_cnn),
            )
            .unwrap();
        let imu_rows = Tensor::full(&[6, 3], 1.0 / 3.0);
        let cam_rows = Tensor::full(&[6, 6], 1.0 / 6.0);
        engine
            .fit_combiner(&[&imu_rows, &cam_rows, &cam_rows], &[0, 1, 2, 3, 4, 5])
            .unwrap();
        engine
    }

    /// The batch length at which every present stream of `engine` alone
    /// carries [`FAN_OUT_MIN_FLOPS`], so any schedule of it fans out.
    pub(super) fn fanned_batch(engine: &MultiModalEngine) -> usize {
        let lightest = engine.streams.iter().map(|s| s.flops).min().unwrap();
        FAN_OUT_MIN_FLOPS.div_ceil(lightest)
    }

    #[test]
    fn parallel_registry_engine_is_bitwise_serial() {
        let mut serial = three_stream_engine();
        serial.set_parallelism(Parallelism::serial());
        let mut parallel = three_stream_engine();
        parallel.set_parallelism(Parallelism::new(4));
        let n = fanned_batch(&parallel);
        let (frames, windows) = test_batch(n);
        let all = [
            (StreamId::IMU, StreamInput::Windows(&windows)),
            (StreamId::CAMERA_FRONT, StreamInput::Frames(&frames)),
            (StreamId::CAMERA_SIDE, StreamInput::Frames(&frames)),
        ];
        let side_down = [(StreamId::CAMERA_SIDE, ModalityStatus::Unavailable)];
        let cameras_down = [
            (StreamId::CAMERA_FRONT, ModalityStatus::Unavailable),
            (StreamId::CAMERA_SIDE, ModalityStatus::Unavailable),
        ];
        let (mut expected, mut out) = (Vec::new(), Vec::new());

        // Every way a stream takes part or sits out: all three in a group
        // each; two of three with the third unavailable, or its input
        // omitted; a single survivor (which runs inline — `zero_alloc.rs`
        // holds that call to 0 allocations).
        type Case<'a> = (
            &'a [(StreamId, StreamInput<'a>)],
            &'a [(StreamId, ModalityStatus)],
            usize,
        );
        let cases: [Case<'_>; 5] = [
            (&all, &[], 3),
            (&all, &side_down, 2),
            (&all[..2], &[], 2),
            (&all, &cameras_down, 1),
            (&all[..1], &[], 1),
        ];
        for (inputs, statuses, used) in cases {
            let flops: Vec<_> = parallel.streams.iter().map(|s| Some(s.flops)).collect();
            let fans_out = plan_streams(4, &flops[..used], n).is_some();
            assert_eq!(fans_out, used > 1, "{used} streams at n = {n}");
            serial
                .classify_batch_checked_into(inputs, statuses, &mut expected)
                .unwrap();
            parallel
                .classify_batch_checked_into(inputs, statuses, &mut out)
                .unwrap();
            assert!(expected.iter().all(|step| step.used.len() == used));
            assert_eq!(out, expected);
        }
        assert_eq!(parallel.counters(), serial.counters());

        // A model error: both camera models reject their (differently
        // mis-sized) frames. The error returned is the first in registry
        // order — the front camera's — with workers as without; every
        // worker is joined and every batch restored, so the next call is
        // bitwise serial again. A worker's model error (IMU windows its
        // BiLSTM rejects) beats a later stream's assembly error.
        let resized = |size: usize| vec![Frame::new(size, size); frames.len()];
        let (front_bad, side_bad) = (resized(32), resized(48));
        let both_bad = [
            all[0],
            (StreamId::CAMERA_FRONT, StreamInput::Frames(&front_bad)),
            (StreamId::CAMERA_SIDE, StreamInput::Frames(&side_bad)),
        ];
        let side_only_bad = [all[0], all[1], both_bad[2]];
        let front_err = serial.classify_batch_into(&both_bad, &mut expected);
        let side_err = serial.classify_batch_into(&side_only_bad, &mut expected);
        assert!(front_err.is_err() && side_err.is_err());
        assert_ne!(front_err, side_err);
        assert_eq!(parallel.classify_batch_into(&both_bad, &mut out), front_err);
        assert_eq!(
            parallel.classify_batch_into(&side_only_bad, &mut out),
            side_err
        );
        let narrow = Tensor::zeros(&[n, WINDOW_LEN, 5]);
        let imu_and_side_bad = [
            (StreamId::IMU, StreamInput::Windows(&narrow)),
            all[1],
            both_bad[2],
        ];
        let imu_err = serial.classify_batch_into(&imu_and_side_bad, &mut expected);
        assert!(imu_err.is_err() && imu_err != side_err);
        assert_eq!(
            parallel.classify_batch_into(&imu_and_side_bad, &mut out),
            imu_err
        );
        serial.classify_batch_into(&all, &mut expected).unwrap();
        parallel.classify_batch_into(&all, &mut out).unwrap();
        assert_eq!(out, expected);
    }

    /// An input of the wrong kind for its stream's model is refused
    /// before any stream runs or fans out, and the engine stays usable.
    #[test]
    fn an_input_of_the_wrong_kind_is_refused_before_fan_out() {
        let mut serial = three_stream_engine();
        serial.set_parallelism(Parallelism::serial());
        let mut parallel = three_stream_engine();
        parallel.set_parallelism(Parallelism::new(4));
        let n = fanned_batch(&parallel);
        let (frames, windows) = test_batch(n);
        let mut out = Vec::new();
        for swapped in [
            [
                (StreamId::IMU, StreamInput::Windows(&windows)),
                (StreamId::CAMERA_FRONT, StreamInput::Frames(&frames)),
                (StreamId::CAMERA_SIDE, StreamInput::Windows(&windows)),
            ],
            [
                (StreamId::IMU, StreamInput::Frames(&frames)),
                (StreamId::CAMERA_FRONT, StreamInput::Frames(&frames)),
                (StreamId::CAMERA_SIDE, StreamInput::Frames(&frames)),
            ],
        ] {
            for engine in [&mut serial, &mut parallel] {
                let got = engine.classify_batch_into(&swapped, &mut out);
                assert!(matches!(got, Err(CoreError::Dataset(_))), "{got:?}");
            }
        }
        assert_eq!(parallel.fanned_calls(), 0);
        let all = [
            (StreamId::IMU, StreamInput::Windows(&windows)),
            (StreamId::CAMERA_FRONT, StreamInput::Frames(&frames)),
            (StreamId::CAMERA_SIDE, StreamInput::Frames(&frames)),
        ];
        let mut expected = Vec::new();
        serial.classify_batch_into(&all, &mut expected).unwrap();
        parallel.classify_batch_into(&all, &mut out).unwrap();
        assert_eq!(out, expected);
        assert_eq!(parallel.fanned_calls(), 1);
    }

    /// Fewer threads drop the surplus workers; more start them again; the
    /// bits never move.
    #[test]
    fn set_parallelism_stops_and_restarts_workers_bitwise() {
        let mut serial = three_stream_engine();
        serial.set_parallelism(Parallelism::serial());
        let mut engine = three_stream_engine();
        engine.set_parallelism(Parallelism::new(2));
        let n = fanned_batch(&engine);
        let (frames, windows) = test_batch(n);
        let inputs = [
            (StreamId::IMU, StreamInput::Windows(&windows)),
            (StreamId::CAMERA_FRONT, StreamInput::Frames(&frames)),
            (StreamId::CAMERA_SIDE, StreamInput::Frames(&frames)),
        ];
        let (mut expected, mut out) = (Vec::new(), Vec::new());
        serial.classify_batch_into(&inputs, &mut expected).unwrap();
        for (par, workers, fanned) in [
            (Parallelism::new(2), 1, 1),
            (Parallelism::serial(), 0, 1),
            (Parallelism::new(2), 1, 2),
        ] {
            engine.set_parallelism(par);
            engine.classify_batch_into(&inputs, &mut out).unwrap();
            assert_eq!(out, expected, "{par:?}");
            assert_eq!(
                (engine.workers.len(), engine.fanned_calls()),
                (workers, fanned)
            );
        }
    }

    #[test]
    fn unavailable_stream_falls_back_to_survivor_bitwise() {
        let (frames, windows) = test_batch(1);
        let (cnn_probs, imu_probs) = reference_posteriors(&frames, &windows).remove(0);
        let mut engine = pair_engine(CombinerKind::Bayesian);
        let inputs = pair_inputs(&frames, &windows);
        let mut out = Vec::new();

        // Camera down → the IMU posterior's expansion: each IMU class's
        // mass split uniformly across the behaviours mapping to it.
        let statuses = [(StreamId::CAMERA_FRONT, ModalityStatus::Unavailable)];
        engine
            .classify_batch_checked_into(&inputs, &statuses, &mut out)
            .unwrap();
        assert_eq!(out.len(), 1);
        let want = frozen_imu_expansion(&imu_probs);
        assert_bitwise(&out[0].scores, &want, "imu-only fallback");
        assert!((out[0].scores.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        assert_eq!(out[0].used, vec![StreamId::IMU]);
        assert!(out[0].degraded);
        assert_eq!(engine.counters().single, 1);
        // Omitting the camera's input is the same fallback.
        let mut omitted = Vec::new();
        engine
            .classify_batch_into(&inputs[1..], &mut omitted)
            .unwrap();
        assert_eq!(omitted, out);

        // IMU down → the CNN posterior verbatim.
        let statuses = [(StreamId::IMU, ModalityStatus::Unavailable)];
        engine
            .classify_batch_checked_into(&inputs, &statuses, &mut out)
            .unwrap();
        assert_bitwise(&out[0].scores, &cnn_probs, "cnn-only fallback");
        assert_eq!(out[0].used, vec![StreamId::CAMERA_FRONT]);
        assert_eq!(engine.counters().single, 3);
        assert_eq!(engine.counters().full, 0);

        // Everything down → NotReady.
        let statuses = [
            (StreamId::CAMERA_FRONT, ModalityStatus::Unavailable),
            (StreamId::IMU, ModalityStatus::Unavailable),
        ];
        assert!(matches!(
            engine.classify_batch_checked_into(&inputs, &statuses, &mut out),
            Err(CoreError::NotReady(_))
        ));
    }

    /// The IMU-only fallback splits the wheel class's mass evenly over
    /// every canonical class that maps to it, so a confident wheel window
    /// ties those classes exactly. The label is the first of the tie,
    /// Normal Driving, in the paper's 6-class pair and in the 8-class
    /// taxonomy alike.
    #[test]
    fn a_confident_wheel_window_alone_labels_normal_driving() {
        // Class `c` lifts feature `c`: three separable orientations.
        let svm = || {
            let mut x = Tensor::zeros(&[6, WINDOW_LEN, IMU_FEATURES]);
            for (i, row) in x.data_mut().chunks_mut(IMU_FEATURES).enumerate() {
                row[(i / WINDOW_LEN) % 3] = 1.0;
            }
            let mut svm = ImuSvm::new(WINDOW_LEN, IMU_FEATURES, 3);
            let mut rng = darnet_tensor::SplitMix64::new(6);
            svm.fit(&x, &[0, 1, 2, 0, 1, 2], &mut rng).unwrap();
            svm
        };
        let mut wheel = Tensor::zeros(&[1, WINDOW_LEN, IMU_FEATURES]);
        for row in wheel.data_mut().chunks_mut(IMU_FEATURES) {
            row[0] = 4.0;
        }
        let imu = svm().predict_proba(&wheel).unwrap();
        assert!(imu.data()[0] > 0.99, "not a confident wheel window: {imu}");

        let (cnn, _, combiner) = tiny_models();
        let imu_slot = StreamModelSlot::Svm(svm());
        let pair = MultiModalEngine::darnet_pair(CombinerKind::Bayesian, cnn, imu_slot, combiner);
        let mut canonical = MultiModalEngine::new(8, CombinerKind::Bayesian);
        let projection = ClassMap::Projection(crate::experiment::canonical_imu_projection());
        canonical
            .register(
                ModalityDescriptor::new(StreamId::IMU, projection),
                StreamModelSlot::Svm(svm()),
            )
            .unwrap();
        for (mut engine, classes) in [(pair.unwrap(), 6), (canonical, 8)] {
            let mut out = Vec::new();
            let inputs = [(StreamId::IMU, StreamInput::Windows(&wheel))];
            engine.classify_batch_into(&inputs, &mut out).unwrap();
            let scores = &out[0].scores;
            assert_eq!(scores.len(), classes);
            assert!(scores[3..]
                .iter()
                .all(|s| s.to_bits() == scores[0].to_bits()));
            assert_eq!(out[0].class, CanonicalBehavior::NormalDriving.index());
        }
    }

    #[test]
    fn a_stream_given_twice_is_refused_before_any_model_runs() {
        let (frames, windows) = test_batch(2);
        let mut engine = pair_engine(CombinerKind::Bayesian);
        for stream in &mut engine.streams {
            stream.panics = true;
        }
        let mut out = Vec::new();
        let [front, imu] = pair_inputs(&frames, &windows);
        let twice = [front, imu, (StreamId::IMU, StreamInput::Windows(&windows))];
        assert!(matches!(
            engine.classify_batch_into(&twice, &mut out),
            Err(CoreError::Dataset(_))
        ));
        let statuses = [
            (StreamId::IMU, ModalityStatus::Unavailable),
            (StreamId::IMU, ModalityStatus::Healthy),
        ];
        assert!(matches!(
            engine.classify_batch_checked_into(&twice[..2], &statuses, &mut out),
            Err(CoreError::Dataset(_))
        ));
    }

    #[test]
    fn stale_stream_health_drives_fallback() {
        use crate::health::HealthPolicy;
        use darnet_collect::StreamHealth;

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
        let selection = HealthPolicy.select_subset(
            &[
                (StreamId::CAMERA_FRONT, Some(&camera_health)),
                (StreamId::IMU, Some(&imu_health)),
            ],
            30.0,
        );
        let statuses = [
            (
                StreamId::CAMERA_FRONT,
                selection.status_of(StreamId::CAMERA_FRONT),
            ),
            (StreamId::IMU, selection.status_of(StreamId::IMU)),
        ];
        assert_eq!(statuses[0].1, ModalityStatus::Unavailable);
        assert_eq!(statuses[1].1, ModalityStatus::Healthy);

        let (frames, windows) = test_batch(1);
        let mut engine = pair_engine(CombinerKind::Bayesian);
        let mut out = Vec::new();
        engine
            .classify_batch_checked_into(&pair_inputs(&frames, &windows), &statuses, &mut out)
            .unwrap();
        assert_eq!(out[0].used, vec![StreamId::IMU]);
        assert_eq!(engine.counters().single, 1);
        assert_eq!(engine.counters().full, 0);
    }

    #[test]
    fn degraded_stream_still_fuses_but_flags() {
        let (frames, windows) = test_batch(2);
        let inputs = [
            (StreamId::CAMERA_FRONT, StreamInput::Frames(&frames)),
            (StreamId::IMU, StreamInput::Windows(&windows)),
        ];
        let mut engine = pair_engine(CombinerKind::Bayesian);
        let statuses = [(StreamId::CAMERA_FRONT, ModalityStatus::Degraded)];
        let mut out = Vec::new();
        engine
            .classify_batch_checked_into(&inputs, &statuses, &mut out)
            .unwrap();
        assert!(out.iter().all(|o| o.degraded));
        assert_eq!(out[0].used.len(), 2);
        assert_eq!(engine.counters().full, 2);
        assert_eq!(engine.counters().degraded, 2);
    }

    #[test]
    fn distorted_frames_route_to_the_registered_student() {
        let (frames, windows) = test_batch(2);
        let level = PrivacyLevel::Low;
        let downsampler = Downsampler::new(24);
        let distorted: Vec<Frame> = frames
            .iter()
            .map(|f| downsampler.distort(f, level))
            .collect();
        assert_eq!(distorted[0].width(), 8);
        let inputs = pair_inputs(&distorted, &windows);
        let mut engine = pair_engine(CombinerKind::Bayesian);
        let mut out = Vec::new();

        // No student serves 8×8 frames yet: typed, and naming the stream.
        let err = engine.classify_batch_into(&inputs, &mut out).unwrap_err();
        assert!(
            matches!(&err, CoreError::NotReady(msg) if msg.contains("8×8")),
            "{err}"
        );
        // A student must match the stream model's geometry and classes,
        // and sit on a registered camera stream.
        let wide = FrameCnn::new(
            CnnConfig {
                input_size: 48,
                classes: 6,
                ..CnnConfig::default()
            },
            9,
        );
        assert!(engine
            .register_dcnn(StreamId::CAMERA_FRONT, level, wide)
            .is_err());
        assert!(engine
            .register_dcnn(StreamId::IMU, level, tiny_cnn(9))
            .is_err());
        assert!(engine
            .register_dcnn(StreamId::CAMERA_SIDE, level, tiny_cnn(9))
            .is_err());
        engine
            .register_dcnn(StreamId::CAMERA_FRONT, level, tiny_cnn(9))
            .unwrap();
        // Another level's geometry still has no student.
        let tiny: Vec<Frame> = vec![Frame::new(4, 4); 2];
        assert!(matches!(
            engine.classify_batch_into(&pair_inputs(&tiny, &windows), &mut out),
            Err(CoreError::NotReady(_))
        ));

        // Routed: exactly what the student says about the restored
        // frames, fused with the IMU posterior.
        engine.classify_batch_into(&inputs, &mut out).unwrap();
        let (_, mut rnn, combiner) = tiny_models();
        let restored = downsampler.roundtrip_tensor(&frames, level).unwrap();
        let student_probs = tiny_cnn(9).predict_proba(&restored).unwrap();
        let imu_probs = rnn.predict_proba(&windows).unwrap();
        let rows = student_probs
            .data()
            .chunks(6)
            .zip(imu_probs.data().chunks(3));
        for (got, (c, m)) in out.iter().zip(rows) {
            assert_bitwise(
                &got.scores,
                &combiner.combine_n(&[c, m]).unwrap(),
                "student",
            );
        }
        // Full-resolution frames still go to the stream's own model.
        let mut full = Vec::new();
        engine
            .classify_batch_into(&pair_inputs(&frames, &windows), &mut full)
            .unwrap();
        let mut plain = Vec::new();
        pair_engine(CombinerKind::Bayesian)
            .classify_batch_into(&pair_inputs(&frames, &windows), &mut plain)
            .unwrap();
        assert_eq!(full, plain);
        assert_ne!(full, out);
    }

    #[test]
    fn three_stream_registry_fuses_any_subset() {
        let mut engine = three_stream_engine();

        let (frames, windows) = test_batch(3);
        let inputs = [
            (StreamId::IMU, StreamInput::Windows(&windows)),
            (StreamId::CAMERA_FRONT, StreamInput::Frames(&frames)),
            (StreamId::CAMERA_SIDE, StreamInput::Frames(&frames)),
        ];
        let mut out = Vec::new();
        engine.classify_batch_into(&inputs, &mut out).unwrap();
        assert_eq!(out.len(), 3);
        for o in &out {
            assert_eq!(o.scores.len(), 6);
            assert!((o.scores.iter().sum::<f32>() - 1.0).abs() < 1e-4);
            assert_eq!(o.used.len(), 3);
        }
        assert_eq!(engine.counters().full, 3);

        // Drop the side camera (no input at all): plural strict subset.
        let two = [
            (StreamId::IMU, StreamInput::Windows(&windows)),
            (StreamId::CAMERA_FRONT, StreamInput::Frames(&frames)),
        ];
        engine.classify_batch_into(&two, &mut out).unwrap();
        assert!(out.iter().all(|o| o.used.len() == 2 && o.degraded));
        assert_eq!(engine.counters().partial, 3);

        // Single survivor: expansion path.
        let one = [(StreamId::IMU, StreamInput::Windows(&windows))];
        engine.classify_batch_into(&one, &mut out).unwrap();
        assert!(out.iter().all(|o| o.used == vec![StreamId::IMU]));
        assert_eq!(engine.counters().single, 3);
    }

    #[test]
    fn registration_is_validated() {
        let (cnn, rnn, _) = tiny_models();
        let mut engine = MultiModalEngine::new(6, CombinerKind::Bayesian);
        // A 6-class model cannot serve a 3-class projection descriptor.
        assert!(engine
            .register(ModalityDescriptor::darnet_imu(), StreamModelSlot::Cnn(cnn))
            .is_err());
        // A projection no canonical class reads native class 1 through:
        // fusion would drop that class's mass.
        let (_, lossy_rnn, _) = tiny_models();
        let lossy =
            ModalityDescriptor::new(StreamId::IMU, ClassMap::Projection(vec![0, 2, 0, 0, 0, 2]));
        assert!(matches!(
            engine.register(lossy, StreamModelSlot::Rnn(lossy_rnn)),
            Err(CoreError::Dataset(_))
        ));
        engine
            .register(ModalityDescriptor::darnet_imu(), StreamModelSlot::Rnn(rnn))
            .unwrap();
        // Duplicate id.
        let (_, rnn2, _) = tiny_models();
        assert!(engine
            .register(ModalityDescriptor::darnet_imu(), StreamModelSlot::Rnn(rnn2))
            .is_err());
        // A combiner with the wrong parent cards is rejected.
        let wrong = NaryBayesianCombiner::new(6, vec![6, 3], 1.0);
        assert!(engine.set_combiner(wrong).is_err());
        // Nothing registered at all → NotReady.
        let mut empty = MultiModalEngine::new(6, CombinerKind::Bayesian);
        let mut out = Vec::new();
        assert!(matches!(
            empty.classify_batch_into(&[], &mut out),
            Err(CoreError::NotReady(_))
        ));
        // Unknown input id → Dataset error.
        let windows = Tensor::zeros(&[1, WINDOW_LEN, IMU_FEATURES]);
        let unknown = [(StreamId(9), StreamInput::Windows(&windows))];
        assert!(matches!(
            engine.classify_batch_into(&unknown, &mut out),
            Err(CoreError::Dataset(_))
        ));
        // No usable stream (inputs empty) → NotReady.
        assert!(matches!(
            engine.classify_batch_into(&[], &mut out),
            Err(CoreError::NotReady(_))
        ));
    }

    #[test]
    fn empty_batch_clears_output() {
        let mut engine = pair_engine(CombinerKind::Bayesian);
        let frames: Vec<Frame> = Vec::new();
        let windows = Tensor::zeros(&[0, WINDOW_LEN, IMU_FEATURES]);
        let inputs = [
            (StreamId::CAMERA_FRONT, StreamInput::Frames(&frames)),
            (StreamId::IMU, StreamInput::Windows(&windows)),
        ];
        let mut out = vec![MultiStepClassification {
            class: 0,
            scores: vec![1.0],
            used: vec![StreamId::IMU],
            degraded: false,
        }];
        engine.classify_batch_into(&inputs, &mut out).unwrap();
        assert!(out.is_empty());
    }
}
