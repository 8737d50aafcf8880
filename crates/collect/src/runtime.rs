//! Discrete-event simulation driving full collection campaigns.
//!
//! A session is N collection agents — one per registered [`StreamId`]
//! (phone IMU, front camera, side camera) — each with a lossy data link
//! and an equally lossy ack link, and one controller. Events — sensor
//! polls, batch flushes, network deliveries, ack deliveries,
//! retransmission timers, periodic clock syncs, and injected controller
//! kills/restarts — are processed in timestamp order from one
//! [`EventQueue`], so campaigns are fully deterministic for a given seed.
//! There is one such loop ([`run_streams`]); the paper's two-agent
//! deployment ([`run_session`]) is its `[IMU, CAMERA_FRONT]` case.
//!
//! With the reliable transport enabled (the default), every data delivery
//! is answered with an ack over the reverse link; unacked batches
//! retransmit on the agent's backoff schedule until acked or abandoned.
//! After the session ends the loop keeps running for
//! [`CampaignConfig::drain_grace`] seconds so in-flight retransmissions can
//! complete.

use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap};
use std::sync::Arc;

use darnet_sim::{Behavior, CanonicalBehavior, DrivingWorld, Segment};
use darnet_tensor::SplitMix64;

use crate::agent::{
    AgentConfig, CollectionAgent, RetransmitConfig, SpillConfig, SpillStats, TransportStats,
};
use crate::clock::{ClockConfig, DriftClock};
use crate::controller::{AlignedImuPoint, Controller, ControllerConfig, FrameRecord, StreamHealth};
use crate::network::{Link, LinkConfig, LinkStats};
use crate::sensor::{canonical_script, CameraView, ScriptedSensor, Sensor};
use crate::shard::Door;
use crate::stream::StreamId;
use crate::wal::{RecoveryReport, WalConfig, WalStats, WalStorage};
use crate::wire::{decode_ack, decode_batch, encode_ack, encode_batch, Batch};
use crate::{CollectError, Result};

/// A timestamped discrete event with a deterministic tie-break.
struct TimedEvent<K> {
    time: f64,
    // Tie-break so heap order is deterministic.
    seq: u64,
    kind: K,
}

impl<K> PartialEq for TimedEvent<K> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<K> Eq for TimedEvent<K> {}
impl<K> PartialOrd for TimedEvent<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<K> Ord for TimedEvent<K> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert for earliest-first. total_cmp
        // keeps the ordering panic-free even if a NaN timestamp ever
        // slipped in (it would sort last instead of aborting the loop).
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The discrete-event scheduler shared by the session loop and the fleet
/// load generator ([`crate::loadgen`]), generic over the event
/// vocabulary: events pop earliest first, equal times in push order.
pub(crate) struct EventQueue<K> {
    heap: BinaryHeap<TimedEvent<K>>,
    pushed: u64,
}

impl<K> EventQueue<K> {
    pub(crate) fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            pushed: 0,
        }
    }

    /// Schedules `kind` at `time`.
    pub(crate) fn push(&mut self, time: f64, kind: K) {
        self.heap.push(TimedEvent {
            time,
            seq: self.pushed,
            kind,
        });
        self.pushed += 1;
    }

    /// The next event and its time.
    pub(crate) fn pop(&mut self) -> Option<(f64, K)> {
        self.heap.pop().map(|e| (e.time, e.kind))
    }
}

/// One collection agent with its data link (agent → controller) and its
/// ack link (controller → agent, suffering the same faults): the
/// transport endpoint every event loop drives. Transmitted batches are
/// parked in the loop's `pending` list and stay allocated, so duplicated
/// arrivals (link-level duplication) can read them again; the
/// controller's sequence dedupe keeps re-delivery harmless.
pub(crate) struct LinkedAgent {
    pub(crate) agent: CollectionAgent,
    pub(crate) data_link: Link,
    pub(crate) ack_link: Link,
}

impl LinkedAgent {
    /// Parks `batch` and schedules one `deliver(id)` per arrival the data
    /// link yields: none if lost, several if duplicated.
    fn transmit<K>(
        &mut self,
        t: f64,
        batch: Batch,
        pending: &mut Vec<Batch>,
        queue: &mut EventQueue<K>,
        deliver: fn(u32) -> K,
    ) {
        let id = pending.len() as u32;
        pending.push(batch);
        for arrival in self.data_link.transmit_all(t) {
            queue.push(arrival, deliver(id));
        }
    }

    /// Scheduled flush at `t`: transmits what the agent releases (returned
    /// for the caller's accounting) and schedules the `retry` ack-timeout
    /// check if anything is in flight.
    pub(crate) fn flush<'p, K>(
        &mut self,
        t: f64,
        pending: &'p mut Vec<Batch>,
        queue: &mut EventQueue<K>,
        deliver: fn(u32) -> K,
        retry: K,
    ) -> Result<Option<&'p Batch>> {
        let first = pending.len();
        if let Some(batch) = self.agent.flush_at(t)? {
            self.transmit(t, batch, pending, queue, deliver);
        }
        if let Some(deadline) = self.agent.next_deadline() {
            queue.push(deadline, retry);
        }
        Ok(pending.get(first))
    }

    /// Ack-timeout check at `t`: retransmits every overdue batch
    /// (returned for the caller's accounting) and reschedules itself
    /// while anything is still in flight.
    pub(crate) fn retry<'p, K>(
        &mut self,
        t: f64,
        pending: &'p mut Vec<Batch>,
        queue: &mut EventQueue<K>,
        deliver: fn(u32) -> K,
        retry: K,
    ) -> Result<&'p [Batch]> {
        let first = pending.len();
        for batch in self.agent.due_retransmits(t)? {
            self.transmit(t, batch, pending, queue, deliver);
        }
        if let Some(deadline) = self.agent.next_deadline() {
            queue.push(deadline, retry);
        }
        Ok(&pending[first..])
    }

    /// Sends one ack down the reverse link at `t`, scheduling `delivered`
    /// per arrival.
    pub(crate) fn ack<K: Copy>(&mut self, t: f64, queue: &mut EventQueue<K>, delivered: K) {
        for arrival in self.ack_link.transmit_all(t) {
            queue.push(arrival, delivered);
        }
    }
}

/// Camera frame period, seconds (reproduction default: 4 fps).
const CAMERA_PERIOD: f64 = 0.25;
/// Clock re-synchronization period, seconds (paper §3.2: 5 s).
const SYNC_PERIOD: f64 = 5.0;

/// Campaign configuration: sensor cadences, batching, network, clocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignConfig {
    /// IMU poll period (paper: 25 ms).
    pub imu_period: f64,
    /// Batch transmit period.
    pub transmit_period: f64,
    /// Controller behaviour (grid, smoothing, admission).
    pub controller: ControllerConfig,
    /// Network link model (applied to data, ack, and sync links).
    pub link: LinkConfig,
    /// Agent clock imperfection model.
    pub clock: ClockConfig,
    /// Reliable-delivery configuration for both agents.
    pub retransmit: RetransmitConfig,
    /// Agent-side spill-buffer bound (hold-and-resume across controller
    /// blackouts and restarts).
    pub spill: SpillConfig,
    /// Seconds past the final flush the event loop keeps draining, so
    /// retransmissions of late losses can still complete.
    pub drain_grace: f64,
    /// Master seed.
    pub seed: u64,
    /// If `false`, clock synchronization is disabled (for the ablation
    /// experiment on sync necessity).
    pub sync_enabled: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            imu_period: 0.025,
            transmit_period: 0.5,
            controller: ControllerConfig::default(),
            link: LinkConfig::default(),
            clock: ClockConfig::default(),
            retransmit: RetransmitConfig::default(),
            spill: SpillConfig::default(),
            drain_grace: 5.0,
            seed: 0xC0FFEE,
            sync_enabled: true,
        }
    }
}

/// One controller outage: the process dies at `kill_t` and a fresh
/// process recovers from the WAL at `restart_t`. Windows must be
/// disjoint and ordered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashWindow {
    /// When the controller process is killed (seconds).
    pub kill_t: f64,
    /// When the replacement process starts recovery (seconds).
    pub restart_t: f64,
}

/// Durability configuration for a session: where the controller's
/// write-ahead log lives and what chaos (crashes, torn tail writes) the
/// run injects. The default — no storage, no crashes — is the plain
/// in-memory pipeline.
#[derive(Debug, Clone, Default)]
pub struct Durability {
    /// WAL backing store shared across controller incarnations. `None`
    /// disables durability: a crash then loses all controller state (the
    /// chaos harness's negative control).
    pub storage: Option<Arc<dyn WalStorage>>,
    /// WAL tuning (segment roll and checkpoint cadence).
    pub wal: WalConfig,
    /// Controller outages to inject, in time order.
    pub crashes: Vec<CrashWindow>,
    /// Garbage bytes appended to the WAL tail at each kill — the torn
    /// write a real crash leaves behind. Recovery must truncate them.
    pub torn_tail_bytes: usize,
}

impl Durability {
    /// WAL-backed durability on a fresh in-memory store with default
    /// tuning and no injected chaos — the "durable but hermetic" setup
    /// used by tests and the fleet load generator.
    pub fn in_memory() -> Self {
        Durability {
            storage: Some(Arc::new(crate::wal::MemStorage::new())),
            ..Durability::default()
        }
    }
}

/// What the chaos machinery observed over one session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosReport {
    /// Controller recoveries performed (restarts plus a final recovery if
    /// the session ended mid-outage).
    pub recoveries: u64,
    /// WAL batch records re-ingested across all recoveries.
    pub replayed_records: u64,
    /// Torn-tail garbage bytes recovery truncated away.
    pub torn_tail_bytes_discarded: u64,
    /// Batch deliveries that arrived while the controller was down
    /// (dropped on the floor; the transport retries them).
    pub deliveries_while_down: u64,
    /// Distinct `(agent, seq)` acks the agents received.
    pub acked: u64,
    /// Acked batches missing from the final controller state. The
    /// recovery invariant: **with a WAL this is zero** — an ack is only
    /// sent after the WAL append.
    pub acked_lost: u64,
    /// Batch offers shed by admission control (deferred, not acked).
    pub shed_batches: u64,
    /// Cumulative WAL appends across incarnations.
    pub wal_appends: u64,
    /// Cumulative WAL bytes appended.
    pub wal_bytes: u64,
    /// Cumulative WAL segment rolls.
    pub wal_segments_rolled: u64,
    /// Cumulative WAL checkpoints taken ([`crate::wal::Wal::snapshot`]).
    pub wal_snapshots: u64,
    /// Readings agents dropped oldest-first at the spill bound.
    pub spill_dropped: u64,
    /// High-water mark of either agent's spill buffer.
    pub spill_peak: usize,
}

/// End-of-session reliability accounting for one driver recording.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SessionTransportReport {
    /// IMU agent transport counters.
    pub imu: TransportStats,
    /// Camera agent transport counters.
    pub camera: TransportStats,
    /// IMU data-link fault counters.
    pub imu_link: LinkStats,
    /// Camera data-link fault counters.
    pub camera_link: LinkStats,
    /// Controller-side health of the IMU stream.
    pub imu_stream: Option<StreamHealth>,
    /// Controller-side health of the camera stream.
    pub camera_stream: Option<StreamHealth>,
    /// Readings polled by both agents over the session.
    pub readings_polled: u64,
    /// Distinct readings the controller accepted.
    pub readings_ingested: u64,
    /// IMU agent spill-buffer counters.
    pub imu_spill: SpillStats,
    /// Camera agent spill-buffer counters.
    pub camera_spill: SpillStats,
}

impl SessionTransportReport {
    /// `true` when every reading either arrived or is accounted as a gap
    /// of an abandoned batch — and with retransmission on and nothing
    /// abandoned, that means zero data loss.
    pub fn lossless(&self) -> bool {
        self.readings_ingested == self.readings_polled
    }
}

/// The collected output of one driver's session.
#[derive(Debug, Clone, PartialEq)]
pub struct DriverRecording {
    /// Driver id.
    pub driver: usize,
    /// Aligned, smoothed 4 Hz IMU stream.
    pub imu: Vec<AlignedImuPoint>,
    /// Camera frames in timestamp order.
    pub frames: Vec<FrameRecord>,
    /// Maximum absolute agent clock error observed at poll instants
    /// (diagnostic for the sync ablation).
    pub max_clock_error: f64,
    /// Transport-layer accounting for the session.
    pub transport: SessionTransportReport,
}

/// One frame paired with the IMU window ending at its timestamp — the
/// aligned multimodal unit the analytics engine consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct AlignedTuple {
    /// Frame timestamp, seconds (controller time base).
    pub t: f64,
    /// The camera frame.
    pub frame: darnet_sim::Frame,
    /// Flattened `[window_len × features]` IMU window, time-major: the
    /// last `window_len` aligned grid points not after `t`, front-padded
    /// with the earliest included point when the session is younger than
    /// the window.
    pub window: Vec<f32>,
}

/// Pairs every frame with its trailing IMU window of `window_len` grid
/// points — the alignment shared by the two-stream recording and
/// every camera stream of a canonical multi-stream recording. Frames
/// that precede all IMU data are skipped (no context to classify from
/// yet).
pub fn pair_frames_with_windows(
    frames: &[FrameRecord],
    imu: &[AlignedImuPoint],
    window_len: usize,
) -> Vec<AlignedTuple> {
    let mut tuples = Vec::with_capacity(frames.len());
    if imu.is_empty() || window_len == 0 {
        return tuples;
    }
    let features = imu[0].features.len();
    for fr in frames {
        let hi = imu.partition_point(|p| p.t <= fr.t);
        if hi == 0 {
            continue;
        }
        let lo = hi.saturating_sub(window_len);
        let mut window = Vec::with_capacity(window_len * features);
        for _ in 0..window_len - (hi - lo) {
            window.extend_from_slice(&imu[lo].features);
        }
        for p in &imu[lo..hi] {
            window.extend_from_slice(&p.features);
        }
        tuples.push(AlignedTuple {
            t: fr.t,
            frame: fr.frame.clone(),
            window,
        });
    }
    tuples
}

impl DriverRecording {
    /// Pairs every received frame with its trailing IMU window of
    /// `window_len` grid points. Frames that precede all IMU data are
    /// skipped (no context to classify from yet).
    pub fn aligned_tuples(&self, window_len: usize) -> Vec<AlignedTuple> {
        pair_frames_with_windows(&self.frames, &self.imu, window_len)
    }
}

/// Event vocabulary of the session loop. Agents are addressed by index
/// into the session's stream registration order, so any number of
/// streams share one loop.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SessionEvent {
    Poll(usize),
    Flush(usize),
    Sync,
    Deliver(u32),                          // delivery id into pending batch storage
    DeliverAck { agent: usize, seq: u32 }, // controller ack reaching an agent
    Retry(usize),                          // ack-timeout check for one agent
    Crash,                                 // kill the controller
    Restart,                               // recover a fresh controller from the WAL
}

/// Builds the agent for one registered stream. The front
/// camera shares the controller tablet in the paper's deployment, so its
/// clock is nearly perfect (tiny residual drift); the IMU phone and the
/// side camera are independent devices with the full clock imperfection.
fn session_agent(
    world: &Arc<DrivingWorld>,
    driver: usize,
    script: &[Segment<CanonicalBehavior>],
    stream: StreamId,
    config: &CampaignConfig,
    rng: &mut SplitMix64,
) -> Result<CollectionAgent> {
    let world = Arc::clone(world);
    let script = script.to_vec();
    let (sensor, clock) = match stream {
        StreamId::IMU => (
            ScriptedSensor::imu(world, driver, script, config.imu_period),
            DriftClock::random(&config.clock, rng),
        ),
        StreamId::CAMERA_FRONT => (
            ScriptedSensor::camera(world, driver, script, CAMERA_PERIOD, CameraView::Front),
            DriftClock::new(1e-6, 0.0),
        ),
        StreamId::CAMERA_SIDE => (
            ScriptedSensor::camera(world, driver, script, CAMERA_PERIOD, CameraView::Side),
            DriftClock::random(&config.clock, rng),
        ),
        other => {
            return Err(CollectError::InvalidConfig(format!(
                "no canonical sensor registered for stream {other}"
            )))
        }
    };
    let agent_config = AgentConfig {
        poll_period: sensor.period(),
        transmit_period: config.transmit_period,
        spill: config.spill,
    };
    Ok(
        CollectionAgent::new(stream.agent_id(), Box::new(sensor), clock, agent_config)
            .with_transport(config.retransmit, rng.next_u64()),
    )
}

/// What [`run_streams`] leaves behind for a front-end to project into
/// its recording type.
struct SessionEnd {
    /// The final (possibly crash-recovered) controller.
    controller: Controller,
    /// The session's agents and links, in stream registration order.
    agents: Vec<LinkedAgent>,
    /// Per agent: maximum absolute clock error at its poll instants.
    clock_errors: Vec<f64>,
    chaos: ChaosReport,
}

/// The session loop: one agent per entry of `streams` over one driver's
/// `script`, into one controller that appends accepted batches to the
/// WAL *before* acking them and is killed/restarted per
/// `durability.crashes` (recovery replays the log into a fresh
/// controller).
///
/// `seed_domain` is XORed into the per-driver seed so front-ends never
/// alias. The draw order is fixed — per stream its clock then its
/// retransmission-jitter seed, then every data link, the sync link, every
/// ack link — which, with the event order, is what keeps every seeded
/// recording bit-identical (pinned by `tests/golden.rs`).
#[allow(clippy::too_many_arguments)]
fn run_streams(
    world: &Arc<DrivingWorld>,
    driver: usize,
    script: &[Segment<CanonicalBehavior>],
    config: &CampaignConfig,
    streams: &[StreamId],
    link_overrides: &[(StreamId, LinkConfig)],
    seed_domain: u64,
    durability: &Durability,
) -> Result<SessionEnd> {
    let session_end = script.iter().map(|s| s.end()).fold(0.0f64, f64::max);
    let link_for = |stream: StreamId| {
        link_overrides
            .iter()
            .find(|(s, _)| *s == stream)
            .map(|(_, l)| *l)
            .unwrap_or(config.link)
    };

    let mut rng =
        SplitMix64::new(config.seed ^ (driver as u64).wrapping_mul(0x9E37_79B9) ^ seed_domain);
    let mut built = Vec::with_capacity(streams.len());
    for &stream in streams {
        built.push(session_agent(
            world, driver, script, stream, config, &mut rng,
        )?);
    }
    let data_links: Vec<Link> = streams
        .iter()
        .map(|&s| Link::new(link_for(s), rng.next_u64()))
        .collect();
    let mut sync_link = Link::new(config.link, rng.next_u64());
    let mut agents = Vec::with_capacity(streams.len());
    for ((agent, data_link), &stream) in built.into_iter().zip(data_links).zip(streams) {
        agents.push(LinkedAgent {
            agent,
            data_link,
            ack_link: Link::new(link_for(stream), rng.next_u64()),
        });
    }
    let mut clock_errors = vec![0.0f64; agents.len()];

    let mut chaos = ChaosReport::default();
    // What every controller incarnation of this session replayed on open
    // and logged before it died.
    let mut recovered = RecoveryReport::default();
    let mut logged = WalStats::default();
    let mut open = || -> Result<Door> {
        let (door, report) = Door::open(
            config.controller,
            durability.storage.clone(),
            durability.wal,
        )?;
        recovered.absorb(&report);
        Ok(door)
    };
    // A pre-populated store replays here (resuming a prior incarnation's
    // session), an empty one starts clean.
    let mut door = open()?;
    // Controller liveness: while down, deliveries drop and syncs stop.
    let mut down = false;
    // Every (agent id, seq) the agents saw acked — the promise the
    // recovery invariant is checked against.
    let mut acked_set: BTreeSet<(u32, u32)> = BTreeSet::new();

    let mut queue = EventQueue::new();
    for i in 0..agents.len() {
        queue.push(0.0, SessionEvent::Poll(i));
        queue.push(config.transmit_period, SessionEvent::Flush(i));
    }
    if config.sync_enabled {
        // Startup handshake: when the controller opens the two-way channel
        // it immediately distributes its UTC, so agents begin the session
        // already synchronized (§4.1). Periodic re-syncs then follow.
        let measured = sync_link.mean_delay();
        if let Some(arrival) = sync_link.transmit(-measured) {
            for a in &mut agents {
                a.agent.handle_sync(arrival, -measured, measured);
            }
        }
        queue.push(SYNC_PERIOD, SessionEvent::Sync);
    }
    for window in &durability.crashes {
        queue.push(window.kill_t, SessionEvent::Crash);
        queue.push(window.restart_t, SessionEvent::Restart);
    }

    let mut pending: Vec<Batch> = Vec::new();
    let reliable = config.retransmit.enabled;

    while let Some((t, event)) = queue.pop() {
        if t > session_end + config.transmit_period + config.drain_grace {
            break;
        }
        match event {
            SessionEvent::Poll(i) => {
                if t <= session_end {
                    agents[i].agent.poll(t)?;
                    clock_errors[i] = clock_errors[i].max(agents[i].agent.clock_error(t).abs());
                    let period = agents[i].agent.config().poll_period;
                    queue.push(t + period, SessionEvent::Poll(i));
                }
            }
            SessionEvent::Flush(i) => {
                agents[i].flush(
                    t,
                    &mut pending,
                    &mut queue,
                    SessionEvent::Deliver,
                    SessionEvent::Retry(i),
                )?;
                if t <= session_end {
                    queue.push(t + config.transmit_period, SessionEvent::Flush(i));
                }
            }
            SessionEvent::Retry(i) => {
                agents[i].retry(
                    t,
                    &mut pending,
                    &mut queue,
                    SessionEvent::Deliver,
                    SessionEvent::Retry(i),
                )?;
            }
            SessionEvent::Sync => {
                // Controller (master) sends its UTC; the agent applies
                // master UTC + empirically measured delay on receipt. A
                // dead controller sends nothing (agents coast on drift).
                if !down {
                    if let Some(arrival) = sync_link.transmit(t) {
                        // Deliver synchronously here: sync messages are
                        // tiny and modelled without reordering against
                        // data.
                        let measured = sync_link.mean_delay();
                        for a in &mut agents {
                            a.agent.handle_sync(arrival, t, measured);
                        }
                    }
                }
                if t <= session_end {
                    queue.push(t + SYNC_PERIOD, SessionEvent::Sync);
                }
            }
            SessionEvent::Deliver(id) => {
                if down {
                    // The controller process is dead: the delivery is
                    // lost and never acked — the agent's retransmission
                    // schedule will offer it again after the restart.
                    chaos.deliveries_while_down += 1;
                    continue;
                }
                // Round-trip through the wire format, as the real system
                // would.
                let decoded = decode_batch(encode_batch(&pending[id as usize]))?;
                let Some(acked) = door.offer(t, &decoded)? else {
                    // Shed = deferred, not lost: no ack, so the agent's
                    // backoff schedule retries once pressure drains.
                    chaos.shed_batches += 1;
                    continue;
                };
                if reliable {
                    // Ack every accepted or duplicate delivery —
                    // duplicates included, since a duplicate usually
                    // means the previous ack was lost.
                    let ack = decode_ack(encode_ack(&acked.ack))?;
                    if let Some(agent) = streams.iter().position(|s| s.agent_id() == ack.agent_id) {
                        let delivered = SessionEvent::DeliverAck {
                            agent,
                            seq: ack.seq,
                        };
                        agents[agent].ack(t, &mut queue, delivered);
                    }
                }
            }
            SessionEvent::DeliverAck { agent, seq } => {
                agents[agent].agent.handle_ack(seq);
                // The agent now believes this batch is durable — exactly
                // the promise the recovery invariant checks.
                acked_set.insert((streams[agent].agent_id(), seq));
            }
            SessionEvent::Crash => {
                if down {
                    continue;
                }
                // A real crash can tear the tail of the segment being
                // written; model it with seeded garbage, which recovery
                // must truncate away.
                if durability.torn_tail_bytes > 0 && durability.storage.is_some() {
                    let garbage: Vec<u8> = (0..durability.torn_tail_bytes)
                        .map(|_| (rng.next_u64() & 0xFF) as u8)
                        .collect();
                    door.simulate_torn_tail(&garbage)?;
                }
                // The process dies: all in-memory controller state is
                // gone. Only the WAL storage (held by `durability`)
                // survives.
                logged.absorb(&door.wal_stats());
                door = Door::new(config.controller);
                down = true;
            }
            SessionEvent::Restart => {
                if !down {
                    continue;
                }
                down = false;
                chaos.recoveries += 1;
                // Without storage the fresh (empty) controller from the
                // crash simply resumes — the negative control that shows
                // what the WAL is for.
                if durability.storage.is_some() {
                    door = open()?;
                }
            }
        }
    }

    // Session ended mid-outage: run the recovery that the next controller
    // incarnation would, so the recording reflects the durable state.
    if down && durability.storage.is_some() {
        chaos.recoveries += 1;
        door = open()?;
    }
    logged.absorb(&door.wal_stats());
    chaos.replayed_records = recovered.records_replayed;
    chaos.torn_tail_bytes_discarded = recovered.torn_tail_bytes;
    chaos.wal_appends = logged.appends;
    chaos.wal_bytes = logged.bytes_appended;
    chaos.wal_segments_rolled = logged.segments_rolled;
    chaos.wal_snapshots = logged.snapshots_taken;
    let controller = door.into_controller();

    // The recovery invariant: every batch an agent saw acked must be in
    // the final controller state.
    chaos.acked = acked_set.len() as u64;
    chaos.acked_lost = acked_set
        .iter()
        .filter(|&&(agent, s)| !controller.has_seen(agent, s))
        .count() as u64;
    for a in &agents {
        let spill = a.agent.spill_stats();
        chaos.spill_dropped += spill.dropped_oldest;
        chaos.spill_peak = chaos.spill_peak.max(spill.peak_buffered);
    }
    Ok(SessionEnd {
        controller,
        agents,
        clock_errors,
        chaos,
    })
}

/// The drivers a schedule covers, ascending.
fn drivers_of<B>(segments: &[Segment<B>]) -> Vec<usize> {
    let mut drivers: Vec<usize> = segments.iter().map(|s| s.driver).collect();
    drivers.sort_unstable();
    drivers.dedup();
    drivers
}

/// Runs one driver's session and returns its recording.
///
/// # Errors
///
/// Propagates alignment errors (e.g. a session so short no IMU data was
/// collected) and, in strict transport mode, [`crate::CollectError::Transport`]
/// failures.
pub fn run_session(
    world: &Arc<DrivingWorld>,
    driver: usize,
    segments: &[Segment<Behavior>],
    config: &CampaignConfig,
) -> Result<DriverRecording> {
    run_session_durable(world, driver, segments, config, &Durability::default()).map(|(rec, _)| rec)
}

/// Like [`run_session`], with durability and chaos: accepted batches are
/// appended to the WAL *before* being acked, controller kills/restarts
/// from `durability.crashes` are injected as events (recovery replays the
/// log into a fresh controller), and the returned [`ChaosReport`] carries
/// the recovery invariants — most importantly `acked_lost`, which must be
/// zero whenever a WAL is configured.
///
/// This is the paper's deployment as one configuration of the N-stream
/// session: streams `[IMU, CAMERA_FRONT]` over the 6-class script
/// embedded in the canonical taxonomy.
///
/// # Errors
///
/// Everything [`run_session`] returns, plus [`crate::CollectError::Wal`]
/// and [`crate::CollectError::Recovery`] from the durability layer, and
/// [`crate::CollectError::Overload`] if an agent's spill buffer hits its
/// bound in strict (non-`drop_oldest`) mode.
pub fn run_session_durable(
    world: &Arc<DrivingWorld>,
    driver: usize,
    segments: &[Segment<Behavior>],
    config: &CampaignConfig,
    durability: &Durability,
) -> Result<(DriverRecording, ChaosReport)> {
    let end = run_streams(
        world,
        driver,
        &canonical_script(segments, driver),
        config,
        &[StreamId::IMU, StreamId::CAMERA_FRONT],
        &[],
        0,
        durability,
    )?;
    let (imu, cam) = (&end.agents[0], &end.agents[1]);
    let transport = SessionTransportReport {
        imu: imu.agent.transport_stats(),
        camera: cam.agent.transport_stats(),
        imu_link: imu.data_link.link_stats(),
        camera_link: cam.data_link.link_stats(),
        imu_stream: end.controller.stream_health_by_id(StreamId::IMU),
        camera_stream: end.controller.stream_health_by_id(StreamId::CAMERA_FRONT),
        readings_polled: imu.agent.poll_count() + cam.agent.poll_count(),
        readings_ingested: end.controller.ingest_stats().1,
        imu_spill: imu.agent.spill_stats(),
        camera_spill: cam.agent.spill_stats(),
    };
    Ok((
        DriverRecording {
            driver,
            imu: end.controller.aligned_imu()?,
            frames: end.controller.frames_sorted(),
            // The sync-ablation diagnostic follows the phone: the camera
            // shares the controller's tablet.
            max_clock_error: end.clock_errors[0],
            transport,
        },
        end.chaos,
    ))
}

/// Runs the full campaign (every driver session in the schedule).
///
/// # Errors
///
/// Propagates per-session errors.
pub fn run_campaign(
    world: &Arc<DrivingWorld>,
    segments: &[Segment<Behavior>],
    config: &CampaignConfig,
) -> Result<Vec<DriverRecording>> {
    drivers_of(segments)
        .into_iter()
        .map(|d| run_session(world, d, segments, config))
        .collect()
}

/// Runs the full campaign with durability and chaos. Each driver session
/// is an independent controller, so `durability_for` supplies a
/// [`Durability`] (typically with its own storage) per driver.
///
/// # Errors
///
/// Propagates per-session errors, including the durability layer's
/// [`crate::CollectError::Wal`] / [`crate::CollectError::Recovery`].
pub fn run_campaign_durable(
    world: &Arc<DrivingWorld>,
    segments: &[Segment<Behavior>],
    config: &CampaignConfig,
    mut durability_for: impl FnMut(usize) -> Durability,
) -> Result<Vec<(DriverRecording, ChaosReport)>> {
    drivers_of(segments)
        .into_iter()
        .map(|d| {
            let durability = durability_for(d);
            run_session_durable(world, d, segments, config, &durability)
        })
        .collect()
}

/// The collected output of one driver's canonical multi-stream session:
/// one aligned IMU stream plus any number of camera streams, each tagged
/// with its [`StreamId`] so the analytics registry can address them
/// generically.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiStreamRecording {
    /// Driver id.
    pub driver: usize,
    /// Aligned, smoothed IMU stream (empty if the IMU stream was absent
    /// or delivered nothing).
    pub imu: Vec<AlignedImuPoint>,
    /// Per-camera-stream frames in timestamp order, keyed by stream and
    /// sorted by [`StreamId`].
    pub frame_streams: Vec<(StreamId, Vec<FrameRecord>)>,
    /// Controller-side health per registered stream (in registration
    /// order; `None` if the stream never delivered a batch).
    pub health: Vec<(StreamId, Option<StreamHealth>)>,
    /// Maximum absolute agent clock error observed at poll instants.
    pub max_clock_error: f64,
}

impl MultiStreamRecording {
    /// Frames of one camera stream (empty slice if not registered).
    pub fn frames_for(&self, stream: StreamId) -> &[FrameRecord] {
        self.frame_streams
            .iter()
            .find(|(s, _)| *s == stream)
            .map(|(_, frames)| frames.as_slice())
            .unwrap_or(&[])
    }

    /// Controller health of one stream, if it delivered anything.
    pub fn health_for(&self, stream: StreamId) -> Option<StreamHealth> {
        self.health
            .iter()
            .find(|(s, _)| *s == stream)
            .and_then(|(_, h)| *h)
    }

    /// Pairs one camera stream's frames with trailing IMU windows — the
    /// same alignment as [`DriverRecording::aligned_tuples`], applied per
    /// stream.
    pub fn aligned_tuples_for(&self, stream: StreamId, window_len: usize) -> Vec<AlignedTuple> {
        pair_frames_with_windows(self.frames_for(stream), &self.imu, window_len)
    }
}

/// Runs one driver's canonical multi-stream session: any subset of
/// {IMU, front camera, side camera} over the 8-class script, with an
/// optional per-stream [`LinkConfig`] override (fault injection on one
/// stream while the others run clean — the multi-view ablation's knob).
///
/// # Errors
///
/// [`crate::CollectError::InvalidConfig`] for an unknown stream id, plus
/// everything the transport/alignment layers return.
pub fn run_canonical_session(
    world: &Arc<DrivingWorld>,
    driver: usize,
    segments: &[Segment<CanonicalBehavior>],
    config: &CampaignConfig,
    streams: &[StreamId],
    link_overrides: &[(StreamId, LinkConfig)],
) -> Result<MultiStreamRecording> {
    run_canonical_session_durable(
        world,
        driver,
        segments,
        config,
        streams,
        link_overrides,
        &Durability::default(),
    )
    .map(|(rec, _)| rec)
}

/// Like [`run_canonical_session`], with the durability and chaos of
/// [`run_session_durable`]: it is the same loop, so N-stream sessions get
/// WAL-before-ack, crash injection and the [`ChaosReport`] invariants
/// from the same code.
///
/// # Errors
///
/// Everything [`run_canonical_session`] and the durability layer return.
pub fn run_canonical_session_durable(
    world: &Arc<DrivingWorld>,
    driver: usize,
    segments: &[Segment<CanonicalBehavior>],
    config: &CampaignConfig,
    streams: &[StreamId],
    link_overrides: &[(StreamId, LinkConfig)],
    durability: &Durability,
) -> Result<(MultiStreamRecording, ChaosReport)> {
    let script: Vec<Segment<CanonicalBehavior>> = segments
        .iter()
        .filter(|s| s.driver == driver)
        .copied()
        .collect();
    // A distinct seed domain from the two-stream session so the two
    // front-ends never alias, while staying per-driver deterministic.
    let end = run_streams(
        world,
        driver,
        &script,
        config,
        streams,
        link_overrides,
        0xCA40_0515_0A11_ED00,
        durability,
    )?;
    let controller = &end.controller;
    let imu = match controller.aligned_imu() {
        Ok(points) => points,
        Err(CollectError::NoData(_)) => Vec::new(),
        Err(e) => return Err(e),
    };
    let mut frame_streams: Vec<(StreamId, Vec<FrameRecord>)> = streams
        .iter()
        .filter(|&&s| s != StreamId::IMU)
        .map(|&s| (s, controller.frames_sorted_for(s)))
        .collect();
    frame_streams.sort_by_key(|(s, _)| *s);
    let health = streams
        .iter()
        .map(|&s| (s, controller.stream_health_by_id(s)))
        .collect();
    Ok((
        MultiStreamRecording {
            driver,
            imu,
            frame_streams,
            health,
            max_clock_error: end.clock_errors.iter().copied().fold(0.0, f64::max),
        },
        end.chaos,
    ))
}

/// Runs a canonical multi-stream campaign: one
/// [`run_canonical_session`] per driver in the schedule.
///
/// # Errors
///
/// Propagates per-session errors.
pub fn run_canonical_campaign(
    world: &Arc<DrivingWorld>,
    segments: &[Segment<CanonicalBehavior>],
    config: &CampaignConfig,
    streams: &[StreamId],
    link_overrides: &[(StreamId, LinkConfig)],
) -> Result<Vec<MultiStreamRecording>> {
    drivers_of(segments)
        .into_iter()
        .map(|d| run_canonical_session(world, d, segments, config, streams, link_overrides))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::FaultConfig;
    use darnet_sim::WorldConfig;

    fn short_schedule() -> Vec<Segment<Behavior>> {
        vec![
            Segment {
                driver: 0,
                behavior: Behavior::NormalDriving,
                start: 0.0,
                duration: 5.0,
            },
            Segment {
                driver: 0,
                behavior: Behavior::Texting,
                start: 5.0,
                duration: 5.0,
            },
        ]
    }

    fn world() -> Arc<DrivingWorld> {
        Arc::new(DrivingWorld::new(WorldConfig::default()))
    }

    #[test]
    fn session_produces_aligned_imu_and_frames() {
        let rec = run_session(&world(), 0, &short_schedule(), &CampaignConfig::default()).unwrap();
        // 10 s at 4 Hz ≈ 40 grid points; 10 s at 4 fps ≈ 40 frames.
        assert!(rec.imu.len() >= 35, "imu points {}", rec.imu.len());
        assert!(rec.frames.len() >= 35, "frames {}", rec.frames.len());
        assert_eq!(rec.driver, 0);
        // Grid is strictly increasing.
        assert!(rec.imu.windows(2).all(|w| w[0].t < w[1].t));
    }

    #[test]
    fn aligned_tuples_pair_frames_with_trailing_windows() {
        let rec = run_session(&world(), 0, &short_schedule(), &CampaignConfig::default()).unwrap();
        let window_len = 20;
        let features = rec.imu[0].features.len();
        let tuples = rec.aligned_tuples(window_len);
        assert!(!tuples.is_empty());
        assert!(tuples.len() <= rec.frames.len());
        for tup in &tuples {
            assert_eq!(tup.window.len(), window_len * features);
            // The window ends at the last grid point not after the frame.
            let hi = rec.imu.partition_point(|p| p.t <= tup.t);
            let last = &rec.imu[hi - 1];
            assert_eq!(
                &tup.window[(window_len - 1) * features..],
                &last.features[..]
            );
        }
        // Early frames (grid younger than the window) are front-padded
        // with a repeated earliest point, never zeros.
        let first = &tuples[0];
        assert_eq!(
            &first.window[..features],
            &first.window[features..2 * features]
        );
        // Degenerate inputs produce no tuples rather than panicking.
        assert!(rec.aligned_tuples(0).is_empty());
        let empty = DriverRecording {
            imu: Vec::new(),
            ..rec.clone()
        };
        assert!(empty.aligned_tuples(window_len).is_empty());
    }

    #[test]
    fn campaign_is_deterministic() {
        let config = CampaignConfig::default();
        let a = run_campaign(&world(), &short_schedule(), &config).unwrap();
        let b = run_campaign(&world(), &short_schedule(), &config).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn sync_keeps_clock_error_small() {
        let config = CampaignConfig::default();
        let rec = run_session(&world(), 0, &short_schedule(), &config).unwrap();
        // With 5 s re-sync, error is bounded by drift × period + jitter.
        assert!(
            rec.max_clock_error < 0.02,
            "clock error {}",
            rec.max_clock_error
        );
    }

    #[test]
    fn disabling_sync_leaves_large_clock_error() {
        let config = CampaignConfig {
            sync_enabled: false,
            ..CampaignConfig::default()
        };
        let rec = run_session(&world(), 0, &short_schedule(), &config).unwrap();
        // Initial offset up to 0.25 s is never corrected.
        let synced =
            run_session(&world(), 0, &short_schedule(), &CampaignConfig::default()).unwrap();
        assert!(rec.max_clock_error > synced.max_clock_error);
    }

    #[test]
    fn lossy_network_without_retransmission_drops_data() {
        // The legacy fire-and-forget mode: losses become gaps the
        // controller merely accounts for.
        let mut config = CampaignConfig::default();
        config.link.loss = 0.2;
        config.retransmit = RetransmitConfig::disabled();
        let rec = run_session(&world(), 0, &short_schedule(), &config).unwrap();
        let lossless =
            run_session(&world(), 0, &short_schedule(), &CampaignConfig::default()).unwrap();
        // Fewer frames arrive, but the pipeline interpolates through gaps.
        assert!(rec.frames.len() < lossless.frames.len());
        assert!(!rec.imu.is_empty());
        assert!(!rec.transport.lossless());
        // The controller's gap accounting notices the missing batches.
        let gaps = rec.transport.imu_stream.map(|h| h.gaps).unwrap_or(0)
            + rec.transport.camera_stream.map(|h| h.gaps).unwrap_or(0);
        assert!(gaps > 0, "expected accounted gaps at 20% loss");
    }

    #[test]
    fn retransmission_recovers_every_sample_at_heavy_loss() {
        // The acceptance scenario: ≥10% loss plus a 2-second blackout mid
        // session, yet every polled sample reaches the controller.
        let mut config = CampaignConfig::default();
        config.link.loss = 0.1;
        config.link.faults = FaultConfig {
            blackout: Some((3.0, 5.0)),
            ..FaultConfig::default()
        };
        let rec = run_session(&world(), 0, &short_schedule(), &config).unwrap();
        assert!(
            rec.transport.imu_link.lost + rec.transport.imu_link.blackout_drops > 0,
            "fault injection should actually drop transmissions"
        );
        assert!(
            rec.transport.lossless(),
            "retransmission must recover all samples: polled {} ingested {}",
            rec.transport.readings_polled,
            rec.transport.readings_ingested
        );
        assert_eq!(rec.transport.imu.abandoned, 0);
        assert_eq!(rec.transport.camera.abandoned, 0);
        assert_eq!(rec.transport.imu_stream.unwrap().gaps, 0);
        assert_eq!(rec.transport.camera_stream.unwrap().gaps, 0);
        assert!(
            rec.transport.imu.retransmits > 0,
            "blackout must force retries"
        );
        // And the recovered recording matches a lossless run's volume.
        let lossless =
            run_session(&world(), 0, &short_schedule(), &CampaignConfig::default()).unwrap();
        assert_eq!(rec.frames.len(), lossless.frames.len());
    }

    #[test]
    fn faulty_campaign_is_deterministic() {
        let mut config = CampaignConfig::default();
        config.link.loss = 0.15;
        config.link.faults = FaultConfig::bursty(0.05, 0.3);
        config.link.faults.duplicate = 0.1;
        let a = run_campaign(&world(), &short_schedule(), &config).unwrap();
        let b = run_campaign(&world(), &short_schedule(), &config).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn duplicated_deliveries_do_not_inflate_the_recording() {
        let mut config = CampaignConfig::default();
        config.link.faults.duplicate = 0.5;
        let rec = run_session(&world(), 0, &short_schedule(), &config).unwrap();
        let clean =
            run_session(&world(), 0, &short_schedule(), &CampaignConfig::default()).unwrap();
        assert_eq!(rec.frames.len(), clean.frames.len());
        assert_eq!(
            rec.transport.readings_ingested,
            clean.transport.readings_ingested
        );
        let dups = rec.transport.imu_stream.unwrap().duplicates
            + rec.transport.camera_stream.unwrap().duplicates;
        assert!(
            dups > 0,
            "50% duplication should produce duplicate deliveries"
        );
    }

    fn chaos_durability(storage: Option<Arc<crate::wal::MemStorage>>) -> Durability {
        Durability {
            storage: storage.map(|s| s as Arc<dyn WalStorage>),
            wal: WalConfig {
                segment_max_records: 8,
                snapshot_every: 20,
            },
            crashes: vec![
                CrashWindow {
                    kill_t: 3.0,
                    restart_t: 4.0,
                },
                CrashWindow {
                    kill_t: 7.0,
                    restart_t: 7.75,
                },
            ],
            torn_tail_bytes: 13,
        }
    }

    #[test]
    fn crash_without_wal_loses_acked_data() {
        // Negative control: no WAL, so a controller crash erases state
        // the agents were already told was safe.
        let (rec, chaos) = run_session_durable(
            &world(),
            0,
            &short_schedule(),
            &CampaignConfig::default(),
            &chaos_durability(None),
        )
        .unwrap();
        assert_eq!(chaos.recoveries, 2);
        assert!(chaos.deliveries_while_down > 0);
        assert!(
            chaos.acked_lost > 0,
            "without a WAL, acked pre-crash batches must be gone \
             (acked {} lost {})",
            chaos.acked,
            chaos.acked_lost
        );
        assert!(!rec.transport.lossless());
    }

    #[test]
    fn wal_recovery_loses_no_acked_samples() {
        // The tentpole invariant: crashes, torn tail writes, and link
        // loss together lose nothing that was ever acked.
        let storage = Arc::new(crate::wal::MemStorage::new());
        let mut config = CampaignConfig::default();
        config.link.loss = 0.05;
        let (rec, chaos) = run_session_durable(
            &world(),
            0,
            &short_schedule(),
            &config,
            &chaos_durability(Some(Arc::clone(&storage))),
        )
        .unwrap();
        assert_eq!(chaos.recoveries, 2);
        assert!(chaos.replayed_records > 0, "replay must do real work");
        assert!(
            chaos.torn_tail_bytes_discarded >= 13,
            "each kill tears the tail; recovery must repair it (got {})",
            chaos.torn_tail_bytes_discarded
        );
        assert_eq!(
            chaos.acked_lost, 0,
            "WAL recovery must preserve every acked batch ({} acked)",
            chaos.acked
        );
        assert!(chaos.wal_appends > 0 && chaos.wal_snapshots > 0);
        // Hold-and-resume: with retransmission across the outages, the
        // recording ends complete.
        assert!(
            rec.transport.lossless(),
            "polled {} ingested {}",
            rec.transport.readings_polled,
            rec.transport.readings_ingested
        );
        // Recovery is bitwise-deterministic: an identical re-run against
        // a fresh store leaves a log that recovers to the same digest.
        let storage2 = Arc::new(crate::wal::MemStorage::new());
        let _ = run_session_durable(
            &world(),
            0,
            &short_schedule(),
            &config,
            &chaos_durability(Some(Arc::clone(&storage2))),
        )
        .unwrap();
        let (recovered_a, _, _) = crate::wal::open(
            config.controller,
            storage as Arc<dyn WalStorage>,
            WalConfig::default(),
        )
        .unwrap();
        let (recovered_b, _, _) = crate::wal::open(
            config.controller,
            storage2 as Arc<dyn WalStorage>,
            WalConfig::default(),
        )
        .unwrap();
        assert_eq!(recovered_a.state_digest(), recovered_b.state_digest());
    }

    #[test]
    fn durable_chaos_runs_are_deterministic() {
        let run = || {
            let storage = Arc::new(crate::wal::MemStorage::new());
            run_session_durable(
                &world(),
                0,
                &short_schedule(),
                &CampaignConfig::default(),
                &chaos_durability(Some(storage)),
            )
            .unwrap()
        };
        let (rec_a, chaos_a) = run();
        let (rec_b, chaos_b) = run();
        assert_eq!(rec_a, rec_b);
        assert_eq!(chaos_a, chaos_b);
    }

    #[test]
    fn admission_pressure_sheds_then_recovers() {
        let mut config = CampaignConfig::default();
        // A starved token bucket: frames (low priority) get shed under
        // pressure, IMU (high priority) keeps flowing.
        config.controller.admission = crate::controller::AdmissionConfig {
            enabled: true,
            capacity: 64.0,
            drain_per_sec: 24.0,
            low_priority_reserve: 32.0,
        };
        let (rec, chaos) = run_session_durable(
            &world(),
            0,
            &short_schedule(),
            &config,
            &Durability::default(),
        )
        .unwrap();
        assert!(chaos.shed_batches > 0, "starved bucket must shed");
        let cam = rec.transport.camera_stream.unwrap();
        assert!(cam.shed > 0 && cam.shed_ratio() > 0.0);
        // Lowest priority sheds first: the frame stream bears the brunt
        // while the IMU stream stays comparatively whole, so the aligned
        // stream the ensemble degrades onto still exists.
        let imu = rec.transport.imu_stream.unwrap();
        assert!(
            imu.shed_ratio() < cam.shed_ratio(),
            "imu {} vs cam {}",
            imu.shed_ratio(),
            cam.shed_ratio()
        );
        assert!(!rec.imu.is_empty());
    }

    fn canonical_schedule_short() -> Vec<Segment<darnet_sim::CanonicalBehavior>> {
        use darnet_sim::CanonicalBehavior;
        vec![
            Segment {
                driver: 0,
                behavior: CanonicalBehavior::NormalDriving,
                start: 0.0,
                duration: 4.0,
            },
            Segment {
                driver: 0,
                behavior: CanonicalBehavior::HeadDroop,
                start: 4.0,
                duration: 4.0,
            },
            Segment {
                driver: 0,
                behavior: CanonicalBehavior::Texting,
                start: 8.0,
                duration: 4.0,
            },
        ]
    }

    const THREE_STREAMS: [StreamId; 3] =
        [StreamId::IMU, StreamId::CAMERA_FRONT, StreamId::CAMERA_SIDE];

    #[test]
    fn canonical_session_collects_all_three_streams() {
        let rec = run_canonical_session(
            &world(),
            0,
            &canonical_schedule_short(),
            &CampaignConfig::default(),
            &THREE_STREAMS,
            &[],
        )
        .unwrap();
        assert!(rec.imu.len() >= 40, "imu points {}", rec.imu.len());
        let front = rec.frames_for(StreamId::CAMERA_FRONT);
        let side = rec.frames_for(StreamId::CAMERA_SIDE);
        assert!(front.len() >= 40, "front frames {}", front.len());
        assert!(side.len() >= 40, "side frames {}", side.len());
        // Views are genuinely different images of the same session.
        assert_ne!(front[10].frame, side[10].frame);
        // Per-stream health exists for every registered stream.
        for s in THREE_STREAMS {
            assert!(rec.health_for(s).is_some(), "no health for {s}");
        }
        // Each camera stream aligns against the shared IMU grid.
        let tuples = rec.aligned_tuples_for(StreamId::CAMERA_SIDE, 20);
        assert!(!tuples.is_empty());
        assert_eq!(tuples[0].window.len(), 20 * rec.imu[0].features.len());
    }

    #[test]
    fn canonical_campaign_is_deterministic() {
        let run = || {
            run_canonical_campaign(
                &world(),
                &canonical_schedule_short(),
                &CampaignConfig::default(),
                &THREE_STREAMS,
                &[],
            )
            .unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn per_stream_blackout_silences_only_that_stream() {
        // The multi-view ablation's knob: a dead side-camera link must not
        // perturb the front camera or the IMU.
        let dead = LinkConfig {
            faults: FaultConfig {
                blackout: Some((0.0, 1e9)),
                ..FaultConfig::default()
            },
            ..LinkConfig::default()
        };
        let rec = run_canonical_session(
            &world(),
            0,
            &canonical_schedule_short(),
            &CampaignConfig::default(),
            &THREE_STREAMS,
            &[(StreamId::CAMERA_SIDE, dead)],
        )
        .unwrap();
        let clean = run_canonical_session(
            &world(),
            0,
            &canonical_schedule_short(),
            &CampaignConfig::default(),
            &THREE_STREAMS,
            &[],
        )
        .unwrap();
        assert!(rec.frames_for(StreamId::CAMERA_SIDE).is_empty());
        assert!(rec.health_for(StreamId::CAMERA_SIDE).is_none());
        assert_eq!(
            rec.frames_for(StreamId::CAMERA_FRONT).len(),
            clean.frames_for(StreamId::CAMERA_FRONT).len()
        );
        assert_eq!(rec.imu.len(), clean.imu.len());
    }

    #[test]
    fn canonical_session_with_crash_window_loses_no_acked_batch() {
        // Crash tolerance used to live only in the two-agent loop; the
        // one loop gives it to any stream set.
        let storage = Arc::new(crate::wal::MemStorage::new());
        let mut config = CampaignConfig::default();
        config.link.loss = 0.05;
        let (rec, chaos) = run_canonical_session_durable(
            &world(),
            0,
            &canonical_schedule_short(),
            &config,
            &THREE_STREAMS,
            &[],
            &chaos_durability(Some(storage)),
        )
        .unwrap();
        assert_eq!(chaos.recoveries, 2);
        assert!(chaos.deliveries_while_down > 0 && chaos.replayed_records > 0);
        assert!(chaos.torn_tail_bytes_discarded >= 13);
        assert!(chaos.acked > 0);
        assert_eq!(chaos.acked_lost, 0, "{} acked", chaos.acked);
        // Hold-and-resume across the outages: every stream ends gap-free.
        for s in THREE_STREAMS {
            assert_eq!(rec.health_for(s).unwrap().gaps, 0, "gaps on {s}");
        }

        // And without a WAL the same windows lose acked side-camera
        // batches like anyone else's.
        let (_, lossy) = run_canonical_session_durable(
            &world(),
            0,
            &canonical_schedule_short(),
            &config,
            &THREE_STREAMS,
            &[],
            &chaos_durability(None),
        )
        .unwrap();
        assert!(lossy.acked_lost > 0);
    }

    #[test]
    fn event_queue_pops_by_time_then_push_order() {
        let mut q = EventQueue::new();
        q.push(2.0, 'c');
        q.push(f64::NAN, 'z');
        q.push(1.0, 'a');
        q.push(2.0, 'd');
        q.push(f64::INFINITY, 'y');
        q.push(1.0, 'b');
        let order: String = std::iter::from_fn(|| q.pop()).map(|(_, k)| k).collect();
        // Equal times keep push order; a NaN time sorts after everything.
        assert_eq!(order, "abcdyz");
        assert!(q.pop().is_none());
    }

    #[test]
    fn canonical_session_rejects_unknown_streams() {
        let err = run_canonical_session(
            &world(),
            0,
            &canonical_schedule_short(),
            &CampaignConfig::default(),
            &[StreamId(9)],
            &[],
        )
        .unwrap_err();
        assert!(matches!(err, crate::CollectError::InvalidConfig(_)));
    }

    #[test]
    fn multi_driver_campaign_covers_all_drivers() {
        let mut schedule = short_schedule();
        schedule.push(Segment {
            driver: 1,
            behavior: Behavior::Talking,
            start: 0.0,
            duration: 6.0,
        });
        let recs = run_campaign(&world(), &schedule, &CampaignConfig::default()).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].driver, 0);
        assert_eq!(recs[1].driver, 1);
    }
}
