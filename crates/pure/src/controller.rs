//! The centralized controller: ingests agent batches into the
//! time-series database — which keeps the IMU stream ordered by timestamp,
//! one row per reading — and interpolates that stream onto a uniform grid
//! and smooths it on demand (paper §3.2, §4.1).
//!
//! Ingestion is duplicate- and reorder-tolerant: batches carry per-agent
//! sequence numbers, a batch seen twice (retransmission racing its ack) is
//! acked again but not re-ingested, and the set of sequence numbers seen
//! per agent yields gap accounting — how many batches a stream has lost —
//! which feeds the per-stream health report consumed by the analytics
//! engine's degradation logic.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write;

use crate::align::GridCache;
use crate::error::CollectError;
use crate::sensor::SensorReading;
use crate::stream::StreamId;
use crate::tsdb::TsDb;
use crate::wire::{Ack, Batch};
use crate::{Frame, ImuSample, Result};

/// Controller configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// Uniform grid frequency the IMU stream is aligned to (paper: 4 Hz).
    pub grid_hz: f64,
    /// Sliding moving-average window in grid samples.
    pub smoothing_window: usize,
    /// Ingest admission control (off by default — the pre-overload
    /// behaviour admits everything).
    pub admission: AdmissionConfig,
    /// Key TSDB series per agent (`imu.<agent>.<ch>` instead of the
    /// session-scoped `imu.<ch>`). A single driver session shares series
    /// across its agents, but at fleet scale a shared series turns
    /// every insert into an O(points) binary insertion among interleaved
    /// agent timestamps; per-agent keys make each series append-only
    /// because one agent's stream is timestamp-monotone (DESIGN.md §14).
    /// [`Controller::aligned_imu`] then aligns [`StreamId::IMU`]'s series,
    /// which is the whole IMU stream of a session with one IMU agent.
    pub per_agent_series: bool,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            grid_hz: 4.0,
            smoothing_window: 3,
            admission: AdmissionConfig::default(),
            per_agent_series: false,
        }
    }
}

/// Token-bucket admission control over the controller's ingest queue.
///
/// Each offered batch costs its readings' processing weight (an IMU
/// reading costs 1, a camera frame [`AdmissionConfig::FRAME_COST`] — the
/// heavy payloads). The bucket drains at `drain_per_sec` cost units;
/// when it runs low, *low-priority* batches (any batch carrying frames)
/// are shed first: they must leave `low_priority_reserve` tokens behind,
/// a reserve only IMU batches may dip into. A shed batch is **not**
/// acked, so the agent's backoff retransmission retries it after the
/// burst — shedding under transient overload is deferral, not loss.
/// Persistent shedding surfaces in [`StreamHealth::shed`] and degrades
/// the modality via the health policy (IMU-only fallback).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Whether admission control runs at all.
    pub enabled: bool,
    /// Token-bucket capacity, in cost units.
    pub capacity: f64,
    /// Bucket refill rate, cost units per second of arrival time.
    pub drain_per_sec: f64,
    /// Tokens a low-priority (frame-bearing) batch must leave in the
    /// bucket; the reserve keeps the light, latency-critical IMU stream
    /// flowing through an overload burst.
    pub low_priority_reserve: f64,
}

impl AdmissionConfig {
    /// Admission cost of one camera frame relative to one IMU reading.
    pub const FRAME_COST: f64 = 16.0;
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            enabled: false,
            capacity: 512.0,
            drain_per_sec: 1024.0,
            low_priority_reserve: 128.0,
        }
    }
}

/// Admission cost of one batch, in IMU-reading-equivalent units.
fn batch_cost(batch: &Batch) -> f64 {
    batch
        .readings
        .iter()
        .map(|r| match r.reading {
            SensorReading::Imu(_) => 1.0,
            SensorReading::Frame(_) => AdmissionConfig::FRAME_COST,
        })
        .sum()
}

/// Whether a batch may dip into the low-priority reserve (IMU-only
/// batches are high priority; anything carrying frames is shed first).
fn is_high_priority(batch: &Batch) -> bool {
    !batch
        .readings
        .iter()
        .any(|r| matches!(r.reading, SensorReading::Frame(_)))
}

/// One aligned, smoothed IMU grid point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlignedImuPoint {
    /// Grid timestamp, seconds (controller time base).
    pub t: f64,
    /// The 12 smoothed IMU features.
    pub features: [f32; ImuSample::FEATURES],
}

/// One received camera frame with its (sync-corrected agent) timestamp.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameRecord {
    /// Frame timestamp, seconds.
    pub t: f64,
    /// The frame as received over the wire.
    pub frame: Frame,
}

/// Result of ingesting one batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestOutcome {
    /// First delivery of this `(agent, seq)`: readings were ingested.
    Accepted,
    /// Already seen: readings were discarded (the ack should still be
    /// re-sent, since a duplicate usually means the first ack was lost).
    Duplicate,
    /// Admission control refused the batch under overload. It was
    /// neither ingested nor logged and must **not** be acked — the
    /// agent's retransmission schedule re-offers it after the burst.
    Shed,
}

/// Liveness/completeness report for one agent's stream, as observed by the
/// controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamHealth {
    /// The agent this stream belongs to.
    pub agent_id: u32,
    /// Distinct batches accepted.
    pub delivered: u64,
    /// Duplicate deliveries discarded.
    pub duplicates: u64,
    /// Highest sequence number seen so far.
    pub highest_seq: u32,
    /// Sequence numbers at or below `highest_seq` never delivered — the
    /// stream's accounted gaps.
    pub gaps: u64,
    /// Arrival time of the most recent accepted batch (controller clock).
    pub last_arrival: f64,
    /// Batch deliveries refused by admission control (overload shedding).
    pub shed: u64,
}

impl StreamHealth {
    /// Fraction of the sequence space `[0, highest_seq]` that is missing.
    pub fn gap_ratio(&self) -> f64 {
        let expected = self.highest_seq as f64 + 1.0;
        self.gaps as f64 / expected
    }

    /// Fraction of offered deliveries (accepted + shed) that admission
    /// control refused — sustained shedding is the overload signal the
    /// health policy degrades a modality on.
    pub fn shed_ratio(&self) -> f64 {
        let offered = self.delivered + self.shed;
        if offered == 0 {
            return 0.0;
        }
        self.shed as f64 / offered as f64
    }

    /// Seconds since the last accepted batch, at observation time `t`.
    pub fn staleness(&self, t: f64) -> f64 {
        (t - self.last_arrival).max(0.0)
    }
}

#[derive(Debug, Default)]
struct StreamState {
    seen: BTreeSet<u32>,
    delivered: u64,
    duplicates: u64,
    last_arrival: f64,
    shed: u64,
    // This agent's frames by `(t, acceptance order)` — what a stable sort
    // of them by `t` yields, kept at insert — and the one place a frame
    // is kept: `frames_sorted_for` lends them out as they lie.
    frames: Vec<FrameRecord>,
    // Beside each frame, its place in the controller-wide acceptance
    // order, which `state_digest` folds frames in. `u32` because a fleet
    // shard holds thousands of streams nobody reads (`admitted` refuses a
    // frame that would outgrow it).
    accepted: Vec<u32>,
}

/// Token-bucket state for admission control.
#[derive(Debug, Clone, Copy)]
struct AdmissionState {
    tokens: f64,
    last_refill: f64,
}

/// The centralized controller for one collection session.
#[derive(Debug)]
pub struct Controller {
    config: ControllerConfig,
    // Frames accepted so far, of every stream: the next acceptance index.
    frames_accepted: usize,
    // The one store of IMU readings (a row each) and of the cameras'
    // mean intensities.
    tsdb: TsDb,
    // The row series `aligned_imu` reads, and its aligned grid, brought
    // up to date by each read (hence the cell: reads take `&self`).
    // Derived state: ingest never touches it.
    imu_series: String,
    aligned: RefCell<GridCache>,
    // The series names `admitted` writes under: rebuilt per batch under
    // `per_agent_series`, in place so that a warm controller allocates
    // for neither.
    keys: (String, String),
    streams: BTreeMap<u32, StreamState>,
    batches: u64,
    readings: u64,
    admission: AdmissionState,
}

impl Controller {
    /// Creates a controller.
    pub fn new(config: ControllerConfig) -> Self {
        Controller {
            config,
            frames_accepted: 0,
            tsdb: TsDb::new(),
            imu_series: if config.per_agent_series {
                format!("imu.{}", StreamId::IMU.agent_id())
            } else {
                "imu".to_string()
            },
            aligned: RefCell::new(GridCache::new(config.grid_hz, config.smoothing_window)),
            keys: ("imu".to_string(), "camera.mean_intensity".to_string()),
            streams: BTreeMap::new(),
            batches: 0,
            readings: 0,
            admission: AdmissionState {
                tokens: config.admission.capacity,
                last_refill: 0.0,
            },
        }
    }

    /// Controller configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// Offers one batch arriving at controller time `arrival` — the
    /// controller's one ingest door: admission control, then the
    /// crate-internal `admitted` (duplicate detection, the durable WAL
    /// append when `wal` is provided, and only then the state mutation
    /// an ack promises). The caller acks `Accepted` and `Duplicate`
    /// outcomes only; a [`IngestOutcome::Shed`] batch is left to the
    /// agent's retransmission schedule.
    ///
    /// # Errors
    ///
    /// Propagates [`CollectError::Wal`] when the durable append fails,
    /// and returns [`CollectError::Overload`] when the acceptance order has
    /// no index left for the batch's readings (it holds 2^32) and
    /// [`CollectError::NonFiniteTimestamp`] when a reading's timestamp is
    /// not finite; the batch is then neither ingested nor acked.
    pub fn offer_at(
        &mut self,
        arrival: f64,
        batch: &Batch,
        wal: Option<&mut crate::wal::Wal>,
    ) -> Result<IngestOutcome> {
        // Admission first, so duplicate storms exert genuine pressure on
        // the bucket: a retransmission flood costs tokens whether or not
        // its batches turn out to be duplicates.
        if self.config.admission.enabled && !self.admit(arrival, batch) {
            self.streams.entry(batch.agent_id).or_default().shed += 1;
            return Ok(IngestOutcome::Shed);
        }
        self.admitted(arrival, batch, wal)
    }

    /// Token-bucket admission decision for one batch at arrival time `t`.
    fn admit(&mut self, t: f64, batch: &Batch) -> bool {
        let cfg = self.config.admission;
        let elapsed = (t - self.admission.last_refill).max(0.0);
        self.admission.tokens = cfg
            .capacity
            .min(self.admission.tokens + elapsed * cfg.drain_per_sec);
        self.admission.last_refill = self.admission.last_refill.max(t);
        let cost = batch_cost(batch);
        let floor = if is_high_priority(batch) {
            0.0
        } else {
            cfg.low_priority_reserve
        };
        if self.admission.tokens - cost < floor {
            return false;
        }
        self.admission.tokens -= cost;
        true
    }

    /// The door past admission, where WAL replay enters (a logged batch
    /// was admitted once already and must not be shed on the way back).
    ///
    /// Duplicate `(agent, seq)` deliveries — retransmissions whose
    /// original arrived after all, or link-level duplication — are
    /// detected and discarded; out-of-order delivery is harmless because
    /// readings are stored by timestamp, not arrival: an IMU reading as
    /// one row of the TSDB, which is the only place it is kept.
    pub(crate) fn admitted(
        &mut self,
        arrival: f64,
        batch: &Batch,
        wal: Option<&mut crate::wal::Wal>,
    ) -> Result<IngestOutcome> {
        // Looked up, not `entry`-created: a failed append below must
        // leave no trace of the batch, not even an empty stream.
        if let Some(stream) = self.streams.get_mut(&batch.agent_id) {
            if stream.seen.contains(&batch.seq) {
                stream.duplicates += 1;
                return Ok(IngestOutcome::Duplicate);
            }
        }
        // Streams tag each frame with a `u32` acceptance index; refused
        // here, before the append, so that a refusal leaves no trace either.
        let held = self.frames_accepted;
        if u32::try_from(held + batch.readings.len()).is_err() {
            return Err(CollectError::Overload {
                agent_id: batch.agent_id,
                buffered: held,
                capacity: u32::MAX as usize,
            });
        }
        // The wire's line (`decode_batch`), held in process too: a NaN
        // stamp has no place in a series ordered by timestamp.
        if batch.readings.iter().any(|r| !r.timestamp.is_finite()) {
            return Err(CollectError::NonFiniteTimestamp {
                agent_id: batch.agent_id,
                seq: batch.seq,
            });
        }
        if let Some(wal) = wal {
            wal.append(arrival, batch)?;
        }
        let stream = self.streams.entry(batch.agent_id).or_default();
        stream.seen.insert(batch.seq);
        stream.delivered += 1;
        stream.last_arrival = stream.last_arrival.max(arrival);
        self.batches += 1;
        let (imu_key, camera_key) = &mut self.keys;
        if self.config.per_agent_series {
            imu_key.clear();
            camera_key.clear();
            // Writing to a `String` cannot fail.
            let _ = write!(imu_key, "imu.{}", batch.agent_id);
            let _ = write!(camera_key, "camera.mean_intensity.{}", batch.agent_id);
        }
        for r in &batch.readings {
            self.readings += 1;
            match &r.reading {
                SensorReading::Imu(sample) => {
                    self.tsdb
                        .insert_vector(imu_key, r.timestamp, &sample.to_features());
                }
                SensorReading::Frame(frame) => {
                    self.tsdb.insert(camera_key, r.timestamp, frame.mean());
                    // After every frame of this stream not later than
                    // it: the end, unless it arrived late.
                    let slot = stream
                        .frames
                        .partition_point(|fr| fr.t.total_cmp(&r.timestamp).is_le());
                    let record = FrameRecord {
                        t: r.timestamp,
                        frame: frame.clone(),
                    };
                    stream.frames.insert(slot, record);
                    // Fits: checked for the whole batch before the append.
                    stream.accepted.insert(slot, self.frames_accepted as u32);
                    self.frames_accepted += 1;
                }
            }
        }
        Ok(IngestOutcome::Accepted)
    }

    /// The ack to return to the sender for a just-ingested batch. Issued
    /// for duplicates too: a duplicate delivery usually means the original
    /// ack was lost, and re-acking is what lets the agent retire the
    /// batch.
    pub fn ack_for(batch: &Batch) -> Ack {
        Ack {
            agent_id: batch.agent_id,
            seq: batch.seq,
        }
    }

    /// Health report for one agent's stream, if any batch from it has been
    /// seen.
    pub fn stream_health(&self, agent_id: u32) -> Option<StreamHealth> {
        let s = self.streams.get(&agent_id)?;
        let highest = *s.seen.iter().next_back()?;
        StreamHealth {
            agent_id,
            delivered: s.delivered,
            duplicates: s.duplicates,
            highest_seq: highest,
            gaps: (highest as u64 + 1) - s.seen.len() as u64,
            last_arrival: s.last_arrival,
            shed: s.shed,
        }
        .into()
    }

    /// Health report addressed by [`StreamId`] instead of raw agent id —
    /// the stream-generic entry point the core modality registry uses, so
    /// N-stream health assessment never hard-codes which agent carries
    /// which modality.
    pub fn stream_health_by_id(&self, stream: StreamId) -> Option<StreamHealth> {
        self.stream_health(stream.agent_id())
    }

    /// Whether `(agent_id, seq)` has been accepted — the durability
    /// invariant's probe: every batch whose ack an agent received must
    /// satisfy `has_seen` on the (possibly crash-recovered) controller.
    pub fn has_seen(&self, agent_id: u32, seq: u32) -> bool {
        self.streams
            .get(&agent_id)
            .is_some_and(|s| s.seen.contains(&seq))
    }

    /// Per-stream `(agent_id, duplicates, shed)` counters — the state a
    /// WAL checkpoint must carry explicitly because it is *not* derivable
    /// from replaying accepted batches (duplicates and shed deliveries
    /// never enter the log).
    pub fn stream_meta(&self) -> Vec<(u32, u64, u64)> {
        self.streams
            .iter()
            .map(|(&id, s)| (id, s.duplicates, s.shed))
            .collect()
    }

    /// Restores checkpoint-carried stream counters during WAL replay (the
    /// inverse of [`Controller::stream_meta`]). Counters are assigned, not
    /// added: every checkpoint stays in the log and carries the totals
    /// as of its position, so the last one replayed wins.
    pub fn restore_stream_meta(&mut self, agent_id: u32, duplicates: u64, shed: u64) {
        let stream = self.streams.entry(agent_id).or_default();
        stream.duplicates = duplicates;
        stream.shed = shed;
    }

    /// Health reports for every stream the controller has seen.
    pub fn stream_healths(&self) -> Vec<StreamHealth> {
        self.streams
            .keys()
            .filter_map(|&id| self.stream_health(id))
            .collect()
    }

    /// `(batches, readings)` ingest counters (accepted only).
    pub fn ingest_stats(&self) -> (u64, u64) {
        (self.batches, self.readings)
    }

    /// A bitwise-exact digest of the controller's replayable state —
    /// what accepted batches alone determine: stream seen-sets, delivery
    /// counts and last arrivals, ingest counters, frames in acceptance
    /// order, and the TSDB fingerprint, which covers every IMU reading's
    /// stamp and channels bitwise. Recovery is correct iff the recovered
    /// controller digests identically to the controller that wrote the
    /// log. The per-stream `duplicates`/`shed`
    /// tallies are deliberately left out: refused deliveries never enter
    /// the log (only checkpoints carry the tallies), so a recovery loses
    /// whatever accumulated since the last checkpoint (DESIGN.md §13).
    pub fn state_digest(&self) -> u64 {
        use crate::tsdb::{fnv1a, fnv1a_init};
        let mut h = fnv1a_init();
        for (&id, s) in &self.streams {
            fnv1a(&mut h, &id.to_le_bytes());
            fnv1a(&mut h, &s.delivered.to_le_bytes());
            fnv1a(&mut h, &s.last_arrival.to_bits().to_le_bytes());
            fnv1a(&mut h, &(s.seen.len() as u64).to_le_bytes());
            for &seq in &s.seen {
                fnv1a(&mut h, &seq.to_le_bytes());
            }
        }
        fnv1a(&mut h, &self.batches.to_le_bytes());
        fnv1a(&mut h, &self.readings.to_le_bytes());
        let mut log = self.tagged_frames();
        log.sort_by_key(|&(i, _)| i);
        for (_, fr) in log {
            fnv1a(&mut h, &fr.t.to_bits().to_le_bytes());
            for &p in fr.frame.pixels() {
                fnv1a(&mut h, &p.to_bits().to_le_bytes());
            }
        }
        fnv1a(&mut h, &self.tsdb.fingerprint().to_le_bytes());
        h
    }

    /// Approximate resident bytes of the controller's retained state:
    /// per-stream seen-sets, frame pixels, and the TSDB (an IMU reading
    /// is one row there: 8 + 4·12 bytes). Logical payload bytes only
    /// (container overhead is ignored), so the figure is deterministic
    /// for a given traffic history — the basis of the gated
    /// bytes-per-agent fleet metric.
    pub fn approx_bytes(&self) -> u64 {
        let mut total = 0u64;
        for s in self.streams.values() {
            // Fixed counters (delivered/duplicates/shed/last_arrival)
            // plus 4 bytes per recorded sequence number.
            total += 32 + s.seen.len() as u64 * 4;
        }
        for fr in self.streams.values().flat_map(|s| &s.frames) {
            total += 8 + fr.frame.pixels().len() as u64 * 4;
        }
        total + self.tsdb.approx_bytes()
    }

    /// The controller's time-series store. It is the aligner's input,
    /// not a mirror of it: a row inserted into the IMU series through this
    /// handle shows up in the next [`Controller::aligned_imu`], and a
    /// scalar inserted under one of that series' channel names (`imu.3`)
    /// turns its rows back into scalar series, leaving nothing to align;
    /// so does an IMU series created here with rows of another width.
    pub fn tsdb(&self) -> &TsDb {
        &self.tsdb
    }

    /// Every stream's frames with their acceptance indices: one run per
    /// stream in `(t, acceptance)` order, which is why the callers' sorts
    /// are the stable ones (they merge natural runs).
    fn tagged_frames(&self) -> Vec<(u32, &FrameRecord)> {
        self.streams
            .values()
            .flat_map(|s| s.accepted.iter().copied().zip(&s.frames))
            .collect()
    }

    /// Received frames of every stream, sorted by timestamp (ties in
    /// acceptance order).
    pub fn frames_sorted(&self) -> Vec<FrameRecord> {
        let mut all = self.tagged_frames();
        all.sort_by(|(i, a), (j, b)| a.t.total_cmp(&b.t).then(i.cmp(j)));
        all.into_iter().map(|(_, fr)| fr.clone()).collect()
    }

    /// Received frames of one camera stream, sorted by timestamp (ties in
    /// acceptance order): the stream's own store, lent out as it lies. A
    /// multi-camera session ingests every view; this is the
    /// stream-generic read side that keeps each view separable for the
    /// per-modality models.
    pub fn frames_sorted_for(&self, stream: StreamId) -> &[FrameRecord] {
        self.streams
            .get(&stream.agent_id())
            .map_or(&[], |s| &s.frames)
    }

    /// Number of raw IMU observations held: the TSDB's rows.
    pub fn imu_observation_count(&self) -> usize {
        self.tsdb.row_count()
    }

    /// Produces the aligned, smoothed IMU stream over the observation span
    /// (paper §3.2: interpolation to consistent intervals + sliding moving
    /// average).
    ///
    /// # Errors
    ///
    /// Returns [`CollectError::NoData`] if no IMU observations were
    /// ingested, or if the IMU series holds rows of another width than
    /// [`ImuSample::FEATURES`] (only a write through
    /// [`Controller::tsdb`] makes one).
    pub fn aligned_imu(&self) -> Result<Vec<AlignedImuPoint>> {
        let mut cache = self.aligned.borrow_mut();
        let aligned = self.tsdb.read_rows(&self.imu_series, |rows, dirty| {
            cache.read(rows, dirty).map(<[AlignedImuPoint]>::to_vec)
        });
        match aligned {
            Some(Some(points)) => Ok(points),
            Some(None) => Err(CollectError::NoData(format!(
                "imu rows are not {} wide",
                ImuSample::FEATURES
            ))),
            None => Err(CollectError::NoData("no imu observations".into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::StampedReading;

    fn imu_batch(agent: u32, seq: u32, stamps: &[f64]) -> Batch {
        Batch {
            agent_id: agent,
            seq,
            readings: stamps
                .iter()
                .map(|&t| StampedReading {
                    timestamp: t,
                    reading: SensorReading::Imu(ImuSample {
                        accel: [t as f32, 0.0, 9.8],
                        gyro: [0.0; 3],
                        gravity: [0.0, 0.0, 9.8],
                        rotation: [0.0; 3],
                    }),
                })
                .collect(),
        }
    }

    fn multi_frame_batch(agent: u32, seq: u32, stamps: &[f64]) -> Batch {
        Batch {
            agent_id: agent,
            seq,
            readings: stamps
                .iter()
                .map(|&t| StampedReading {
                    timestamp: t,
                    reading: SensorReading::Frame(crate::Frame::from_pixels(
                        2,
                        2,
                        vec![t as f32, agent as f32, 0.0, 1.0],
                    )),
                })
                .collect(),
        }
    }

    #[test]
    fn multi_camera_frames_separate_by_stream() {
        let mut c = Controller::new(ControllerConfig::default());
        // Interleaved deliveries from two camera agents.
        c.offer_at(0.5, &multi_frame_batch(1, 0, &[0.25, 0.5]), None)
            .unwrap();
        c.offer_at(0.6, &multi_frame_batch(2, 0, &[0.3, 0.55]), None)
            .unwrap();
        c.offer_at(1.0, &multi_frame_batch(1, 1, &[0.75]), None)
            .unwrap();
        let front = c.frames_sorted_for(crate::StreamId::CAMERA_FRONT);
        let side = c.frames_sorted_for(crate::StreamId::CAMERA_SIDE);
        assert_eq!(front.len(), 3);
        assert_eq!(side.len(), 2);
        assert!(front.windows(2).all(|w| w[0].t <= w[1].t));
        assert!(side.windows(2).all(|w| w[0].t <= w[1].t));
        // Per-agent tone encodes the agent id in pixel 1.
        assert!(front.iter().all(|fr| fr.frame.pixels()[1] == 1.0));
        assert!(side.iter().all(|fr| fr.frame.pixels()[1] == 2.0));
        // The merged view is the union of the per-stream views.
        assert_eq!(c.frames_sorted().len(), 5);
        // An unknown stream has no frames.
        assert!(c.frames_sorted_for(crate::StreamId(7)).is_empty());
    }

    #[test]
    fn ingest_counts_and_one_tsdb_row_per_imu_reading() {
        let mut c = Controller::new(ControllerConfig::default());
        c.offer_at(0.0, &imu_batch(0, 0, &[0.0, 0.025, 0.05]), None)
            .unwrap();
        assert_eq!(c.ingest_stats(), (1, 3));
        assert_eq!(c.imu_observation_count(), 3);
        assert_eq!(c.tsdb().len("imu.0"), 3);
        assert_eq!(c.tsdb().point_count(), 3 * 12);
    }

    #[test]
    fn non_finite_reading_timestamp_is_refused_without_a_trace() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut c = Controller::new(ControllerConfig::default());
            let empty = c.state_digest();
            let err = c.offer_at(0.0, &imu_batch(4, 9, &[0.0, bad, 0.5]), None);
            assert_eq!(
                err,
                Err(CollectError::NonFiniteTimestamp {
                    agent_id: 4,
                    seq: 9
                })
            );
            assert!(c.offer_at(0.0, &frame_batch(1, 0, bad), None).is_err());
            assert_eq!(c.state_digest(), empty);
            assert!(!c.has_seen(4, 9) && c.stream_health(4).is_none());
            assert_eq!(c.tsdb().point_count(), 0);
        }
    }

    #[test]
    fn duplicate_batches_are_discarded_but_reacked() {
        let mut c = Controller::new(ControllerConfig::default());
        let b = imu_batch(0, 0, &[0.0, 0.025]);
        assert_eq!(c.offer_at(0.5, &b, None).unwrap(), IngestOutcome::Accepted);
        assert_eq!(c.offer_at(0.6, &b, None).unwrap(), IngestOutcome::Duplicate);
        assert_eq!(c.ingest_stats(), (1, 2));
        assert_eq!(c.imu_observation_count(), 2);
        let ack = Controller::ack_for(&b);
        assert_eq!((ack.agent_id, ack.seq), (0, 0));
        let h = c.stream_health(0).unwrap();
        assert_eq!(h.delivered, 1);
        assert_eq!(h.duplicates, 1);
        assert_eq!(h.gaps, 0);
    }

    #[test]
    fn gap_accounting_tracks_missing_sequences() {
        let mut c = Controller::new(ControllerConfig::default());
        // Seqs 0, 2, 5 arrive (out of order, too): 1, 3, 4 are gaps.
        for &(seq, at) in &[(5u32, 1.4), (0, 0.5), (2, 0.9)] {
            c.offer_at(at, &imu_batch(3, seq, &[at]), None).unwrap();
        }
        let h = c.stream_health(3).unwrap();
        assert_eq!(h.highest_seq, 5);
        assert_eq!(h.delivered, 3);
        assert_eq!(h.gaps, 3);
        assert!((h.gap_ratio() - 0.5).abs() < 1e-12);
        assert!((h.last_arrival - 1.4).abs() < 1e-12);
        assert!((h.staleness(2.0) - 0.6).abs() < 1e-12);
        // A late gap-filling retransmission closes the accounting.
        c.offer_at(2.1, &imu_batch(3, 1, &[0.7]), None).unwrap();
        assert_eq!(c.stream_health(3).unwrap().gaps, 2);
        assert!(c.stream_health(99).is_none());
        assert_eq!(c.stream_healths().len(), 1);
    }

    #[test]
    fn aligned_imu_interpolates_to_grid() {
        let mut c = Controller::new(ControllerConfig {
            grid_hz: 4.0,
            smoothing_window: 1,
            ..ControllerConfig::default()
        });
        // accel.x = t, sampled at 40 Hz over 1 second.
        let stamps: Vec<f64> = (0..=40).map(|i| i as f64 * 0.025).collect();
        c.offer_at(0.0, &imu_batch(0, 0, &stamps), None).unwrap();
        let aligned = c.aligned_imu().unwrap();
        assert_eq!(aligned.len(), 5); // 0, 0.25, 0.5, 0.75, 1.0
        for p in &aligned {
            assert!(
                (p.features[0] as f64 - p.t).abs() < 1e-3,
                "t={} f={}",
                p.t,
                p.features[0]
            );
        }
    }

    #[test]
    fn out_of_order_batches_align_identically() {
        let make = |order: &[(u32, &[f64])]| {
            let mut c = Controller::new(ControllerConfig::default());
            for &(seq, stamps) in order {
                c.offer_at(0.0, &imu_batch(0, seq, stamps), None).unwrap();
            }
            c.aligned_imu().unwrap()
        };
        let in_order = make(&[(0, &[0.0, 0.1, 0.2]), (1, &[0.3, 0.4, 0.5])]);
        let reordered = make(&[(1, &[0.3, 0.4, 0.5]), (0, &[0.0, 0.1, 0.2])]);
        assert_eq!(in_order, reordered);
    }

    #[test]
    fn degenerate_grids_align_to_nothing() {
        // `grid_hz` is a public field: no value of it may panic a read.
        for grid_hz in [0.0, -4.0, f64::NAN, f64::INFINITY, 1e300] {
            let mut c = Controller::new(ControllerConfig {
                grid_hz,
                ..ControllerConfig::default()
            });
            c.offer_at(0.0, &imu_batch(0, 0, &[0.0, 0.5, 1.0]), None)
                .unwrap();
            assert_eq!(c.aligned_imu().unwrap(), vec![], "grid_hz {grid_hz}");
        }
        // A grid that degenerates after it was read empties the cache too.
        let mut c = Controller::new(ControllerConfig::default());
        c.offer_at(0.0, &imu_batch(0, 0, &[0.0, 0.5, 1.0]), None)
            .unwrap();
        assert_eq!(c.aligned_imu().unwrap().len(), 5);
        c.offer_at(0.0, &imu_batch(0, 1, &[1e300]), None).unwrap();
        assert_eq!(c.aligned_imu().unwrap(), vec![]);
    }

    #[test]
    fn an_imu_series_of_another_width_reads_as_no_data() {
        for per_agent_series in [false, true] {
            for width in [1, 2, 11, 13] {
                let c = Controller::new(ControllerConfig {
                    per_agent_series,
                    ..ControllerConfig::default()
                });
                let series = if per_agent_series { "imu.0" } else { "imu" };
                let row: Vec<f32> = (0..width).map(|k| k as f32 + 1.0).collect();
                for t in [0.0, 0.5, 1.0] {
                    c.tsdb().insert_vector(series, t, &row);
                }
                assert_eq!(c.imu_observation_count(), 3, "width {width}");
                // Neither cut to nor padded out to twelve features.
                assert!(
                    matches!(c.aligned_imu(), Err(CollectError::NoData(_))),
                    "width {width}"
                );
            }
        }
    }

    #[test]
    fn empty_controller_errors_on_alignment() {
        let c = Controller::new(ControllerConfig::default());
        assert!(matches!(c.aligned_imu(), Err(CollectError::NoData(_))));
    }

    #[test]
    fn frames_are_sorted_by_timestamp() {
        let mut c = Controller::new(ControllerConfig::default());
        let frame = crate::Frame::new(2, 2);
        for (seq, &t) in [0.5, 0.1, 0.3].iter().enumerate() {
            c.offer_at(
                0.0,
                &Batch {
                    agent_id: 1,
                    seq: seq as u32,
                    readings: vec![StampedReading {
                        timestamp: t,
                        reading: SensorReading::Frame(frame.clone()),
                    }],
                },
                None,
            )
            .unwrap();
        }
        let frames = c.frames_sorted();
        let times: Vec<f64> = frames.iter().map(|f| f.t).collect();
        assert_eq!(times, vec![0.1, 0.3, 0.5]);
        assert_eq!(c.tsdb().len("camera.mean_intensity"), 3);
    }

    fn frame_batch(agent: u32, seq: u32, t: f64) -> Batch {
        Batch {
            agent_id: agent,
            seq,
            readings: vec![StampedReading {
                timestamp: t,
                reading: SensorReading::Frame(crate::Frame::new(4, 4)),
            }],
        }
    }

    fn admission_config() -> ControllerConfig {
        ControllerConfig {
            admission: AdmissionConfig {
                enabled: true,
                capacity: 60.0,
                drain_per_sec: 10.0,
                low_priority_reserve: 20.0,
            },
            ..ControllerConfig::default()
        }
    }

    #[test]
    fn admission_sheds_low_priority_first_and_recovers() {
        let mut c = Controller::new(admission_config());
        // A frame costs 16: two frame batches drain the bucket from 60
        // to 28 tokens; a third would leave 12, under the 20-token
        // reserve — it is shed.
        for seq in 0..2 {
            assert_eq!(
                c.offer_at(0.0, &frame_batch(1, seq, 0.0), None).unwrap(),
                IngestOutcome::Accepted
            );
        }
        assert_eq!(
            c.offer_at(0.0, &frame_batch(1, 2, 0.0), None).unwrap(),
            IngestOutcome::Shed
        );
        // The light IMU stream may dip into the reserve and keeps flowing.
        assert_eq!(
            c.offer_at(0.0, &imu_batch(0, 0, &[0.0, 0.01]), None)
                .unwrap(),
            IngestOutcome::Accepted
        );
        // Shed is deferral: once the bucket refills, the same batch is
        // admitted — nothing was recorded as seen.
        assert!(!c.has_seen(1, 2));
        assert_eq!(
            c.offer_at(5.0, &frame_batch(1, 2, 5.0), None).unwrap(),
            IngestOutcome::Accepted
        );
        let h = c.stream_health(1).unwrap();
        assert_eq!(h.shed, 1);
        assert_eq!(h.delivered, 3);
        assert!((h.shed_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn offer_at_detects_duplicates_and_disabled_admission_admits_all() {
        let mut c = Controller::new(ControllerConfig::default());
        let b = imu_batch(0, 0, &[0.0]);
        assert_eq!(c.offer_at(0.1, &b, None).unwrap(), IngestOutcome::Accepted);
        assert_eq!(c.offer_at(0.2, &b, None).unwrap(), IngestOutcome::Duplicate);
        assert!(c.has_seen(0, 0));
        assert!(!c.has_seen(0, 1));
        // Without admission even a huge burst is admitted.
        for seq in 1..200 {
            assert_eq!(
                c.offer_at(0.2, &frame_batch(0, seq, 0.2), None).unwrap(),
                IngestOutcome::Accepted
            );
        }
    }

    #[test]
    fn stream_meta_roundtrips_through_restore() {
        let mut c = Controller::new(admission_config());
        let b = imu_batch(4, 0, &[0.0]);
        c.offer_at(0.0, &b, None).unwrap();
        c.offer_at(0.1, &b, None).unwrap(); // duplicate
        for seq in 0..3 {
            c.offer_at(0.0, &frame_batch(5, seq, 0.0), None).unwrap();
        }
        let meta = c.stream_meta();
        let mut fresh = Controller::new(admission_config());
        for (agent, dup, shed) in meta {
            fresh.restore_stream_meta(agent, dup, shed);
        }
        assert_eq!(
            fresh.stream_meta(),
            c.stream_meta(),
            "meta must restore verbatim"
        );
    }

    #[test]
    fn state_digest_tracks_durable_state() {
        let mut a = Controller::new(ControllerConfig::default());
        let mut b = Controller::new(ControllerConfig::default());
        assert_eq!(a.state_digest(), b.state_digest());
        a.offer_at(0.5, &imu_batch(0, 0, &[0.0, 0.025]), None)
            .unwrap();
        assert_ne!(a.state_digest(), b.state_digest());
        b.offer_at(0.5, &imu_batch(0, 0, &[0.0, 0.025]), None)
            .unwrap();
        assert_eq!(a.state_digest(), b.state_digest());
        // A duplicate delivery is not replayable state: it bumps the
        // stream's tally but must leave the digest alone, or a recovered
        // controller could never match the one that wrote the log.
        assert_eq!(
            a.offer_at(0.6, &imu_batch(0, 0, &[0.0, 0.025]), None)
                .unwrap(),
            IngestOutcome::Duplicate
        );
        assert_ne!(a.stream_meta(), b.stream_meta());
        assert_eq!(a.state_digest(), b.state_digest());
        // Anything accepted moves it.
        a.offer_at(0.7, &imu_batch(0, 1, &[0.05]), None).unwrap();
        assert_ne!(a.state_digest(), b.state_digest());
    }

    #[test]
    fn per_agent_series_keys_by_agent() {
        let mut c = Controller::new(ControllerConfig {
            per_agent_series: true,
            ..ControllerConfig::default()
        });
        c.offer_at(0.0, &imu_batch(7, 0, &[0.0]), None).unwrap();
        c.offer_at(0.0, &frame_batch(9, 0, 0.5), None).unwrap();
        assert_eq!(c.tsdb().len("imu.7.0"), 1);
        assert_eq!(c.tsdb().len("imu.0"), 0);
        assert_eq!(c.tsdb().len("camera.mean_intensity.9"), 1);
        assert_eq!(c.tsdb().len("camera.mean_intensity"), 0);
    }

    #[test]
    fn approx_bytes_grows_with_ingest() {
        let mut c = Controller::new(ControllerConfig::default());
        assert_eq!(c.approx_bytes(), 0);
        c.offer_at(0.0, &imu_batch(0, 0, &[0.0]), None).unwrap();
        let after_imu = c.approx_bytes();
        // One stream (32 + 4), one TSDB row (8 + 12 × 4).
        assert_eq!(after_imu, 36 + 56);
        c.offer_at(0.0, &frame_batch(0, 1, 0.5), None).unwrap();
        assert!(c.approx_bytes() > after_imu);
    }

    #[test]
    fn smoothing_window_is_applied() {
        let config = ControllerConfig {
            smoothing_window: 4,
            ..ControllerConfig::default()
        };
        let mut c = Controller::new(config);
        let stamps: Vec<f64> = (0..=40).map(|i| i as f64 * 0.025).collect();
        c.offer_at(0.0, &imu_batch(0, 0, &stamps), None).unwrap();
        let smooth = c.aligned_imu().unwrap();
        // With accel.x = t linear, the trailing average lags below t.
        let last = smooth.last().unwrap();
        assert!((last.features[0] as f64) < last.t);
    }
}
