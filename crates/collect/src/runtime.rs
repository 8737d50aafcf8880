//! Discrete-event simulation driving full collection campaigns.
//!
//! A session is N collection agents — one per registered [`StreamId`]
//! (phone IMU, front camera, side camera) — each with a lossy data link
//! and an equally lossy ack link, and one controller. Events — sensor
//! polls, batch flushes, network deliveries, ack deliveries,
//! retransmission timers, periodic clock syncs, and injected controller
//! kills/restarts — are processed in timestamp order from one
//! [`EventQueue`], so campaigns are fully deterministic for a given seed.
//! There is one such loop behind one door, [`run_session`], which returns
//! one [`Recording`] whatever the stream set; the paper's two-agent
//! deployment is the stream set [`StreamId::DARNET_PAIR`], and
//! [`run_campaign`] is a session per driver.
//!
//! With the reliable transport on (the default), every data delivery
//! is answered with an ack over the reverse link; unacked batches
//! retransmit on the agent's backoff schedule until acked or abandoned.
//! After the session ends the loop keeps running for
//! [`CampaignConfig::drain_grace`] seconds so in-flight retransmissions can
//! complete.
#![expect(
    clippy::disallowed_methods,
    reason = "randomness owner: seeded session transports and fault injection"
)]

use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap};
use std::sync::Arc;

use darnet_sim::schedule::CAMERA_PERIOD;
use darnet_sim::{CanonicalBehavior, DrivingWorld, Segment};
use darnet_tensor::SplitMix64;

use crate::agent::{AgentConfig, CollectionAgent, SpillStats, TransportStats};
use crate::clock::{ClockConfig, DriftClock};
use crate::network::{Link, LinkConfig, LinkStats};
use crate::sensor::{driver_script, CameraView, ScriptedSensor, Sensor};
use crate::shard::Door;
use crate::wal::{RecoveryReport, WalConfig, WalStats, WalStorage};
use crate::{
    decode_ack, decode_batch, encode_ack, encode_batch, AlignedImuPoint, Batch, CollectError,
    ControllerConfig, FrameRecord, Result, StreamHealth, StreamId,
};

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
    ) -> Option<&'p Batch> {
        let first = pending.len();
        if let Some(batch) = self.agent.flush_at(t) {
            self.transmit(t, batch, pending, queue, deliver);
        }
        if let Some(deadline) = self.agent.next_deadline() {
            queue.push(deadline, retry);
        }
        pending.get(first)
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
    ) -> &'p [Batch] {
        let first = pending.len();
        for batch in self.agent.due_retransmits(t) {
            self.transmit(t, batch, pending, queue, deliver);
        }
        if let Some(deadline) = self.agent.next_deadline() {
            queue.push(deadline, retry);
        }
        &pending[first..]
    }

    /// Sends one ack down the reverse link at `t`, scheduling `delivered`
    /// per arrival.
    pub(crate) fn ack<K: Copy>(&mut self, t: f64, queue: &mut EventQueue<K>, delivered: K) {
        for arrival in self.ack_link.transmit_all(t) {
            queue.push(arrival, delivered);
        }
    }
}

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
    /// Whether the agents run the ack/retransmit protocol. With it off, a
    /// flushed batch is fire-and-forget and losses become gaps the
    /// controller merely accounts for.
    pub retransmit: bool,
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
            retransmit: true,
            drain_grace: 5.0,
            seed: 0xC0FFEE,
            sync_enabled: true,
        }
    }
}

/// One controller outage: the process dies at `kill_t` and a fresh
/// process recovers from the WAL at `restart_t`. [`run_session`] rejects
/// windows that are not finite, ordered and disjoint.
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
    /// High-water mark of either agent's spill buffer.
    pub spill_peak: usize,
}

/// End-of-session accounting for one registered stream: its agent, its
/// data link and the controller's view of it.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamReport {
    /// The stream.
    pub stream: StreamId,
    /// Its agent's transport counters.
    pub transport: TransportStats,
    /// Its data link's fault counters.
    pub link: LinkStats,
    /// Its agent's spill-buffer counters.
    pub spill: SpillStats,
    /// Controller-side health (`None` if it never delivered a batch).
    pub health: Option<StreamHealth>,
    /// Readings its agent polled over the session.
    pub polled: u64,
    /// Maximum absolute clock error of its agent at poll instants (the
    /// sync ablation reads the phone's: the front camera shares the
    /// controller's tablet).
    pub max_clock_error: f64,
}

/// The collected output of one driver's session over any stream set: one
/// aligned IMU stream plus the frames of every registered camera, each
/// tagged with its [`StreamId`] so the analytics registry can address
/// them generically.
#[derive(Debug, Clone, PartialEq)]
pub struct Recording {
    /// Driver id.
    pub driver: usize,
    /// Aligned, smoothed 4 Hz IMU stream (empty if the IMU stream was
    /// not registered or delivered nothing).
    pub imu: Vec<AlignedImuPoint>,
    /// Per camera stream, its frames in timestamp order; cameras in
    /// registration order.
    pub frames: Vec<(StreamId, Vec<FrameRecord>)>,
    /// One accounting row per registered stream, in registration order.
    pub streams: Vec<StreamReport>,
    /// Distinct readings the controller accepted.
    pub readings_ingested: u64,
    /// What the durability and chaos machinery observed — most
    /// importantly `acked_lost`, which must be zero whenever a WAL is
    /// configured.
    pub chaos: ChaosReport,
}

impl Recording {
    /// Frames of one camera stream (empty slice if not registered).
    pub fn frames_for(&self, stream: StreamId) -> &[FrameRecord] {
        self.frames
            .iter()
            .find(|(s, _)| *s == stream)
            .map_or(&[], |(_, frames)| frames.as_slice())
    }

    /// The accounting row of one stream, if it was registered.
    pub fn stream(&self, stream: StreamId) -> Option<&StreamReport> {
        self.streams.iter().find(|r| r.stream == stream)
    }

    /// Readings polled by every agent over the session.
    pub fn readings_polled(&self) -> u64 {
        self.streams.iter().map(|r| r.polled).sum()
    }

    /// `true` when every reading either arrived or is accounted as a gap
    /// of an abandoned batch — and with retransmission on and nothing
    /// abandoned, that means zero data loss.
    pub fn lossless(&self) -> bool {
        self.readings_ingested == self.readings_polled()
    }
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
/// points — the alignment every camera stream of a [`Recording`] gets.
/// Frames that precede all IMU data are skipped (no context to classify
/// from yet).
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
    };
    Ok(
        CollectionAgent::new(stream.agent_id(), Box::new(sensor), clock, agent_config)
            .with_transport(config.retransmit, rng.next_u64()),
    )
}

/// Rejects what the loop would silently mis-run: an empty stream set
/// records nothing, two agents of one stream share an agent id and the
/// controller discards the second's batches as duplicates, and a crash
/// window that is not finite, ordered and disjoint from the previous one
/// turns its restart into a no-op and leaves the controller down.
fn validate(streams: &[StreamId], crashes: &[CrashWindow]) -> Result<()> {
    if streams.is_empty() {
        return Err(CollectError::InvalidConfig(
            "a session needs at least one stream".into(),
        ));
    }
    for (i, stream) in streams.iter().enumerate() {
        if streams[..i].contains(stream) {
            return Err(CollectError::InvalidConfig(format!(
                "stream {stream} is registered twice"
            )));
        }
    }
    let mut up_since = f64::NEG_INFINITY;
    for w in crashes {
        let finite = w.kill_t.is_finite() && w.restart_t.is_finite();
        if !finite || w.kill_t < up_since || w.restart_t < w.kill_t {
            return Err(CollectError::InvalidConfig(format!(
                "crash window [{}, {}] is not finite, ordered and after the previous one",
                w.kill_t, w.restart_t
            )));
        }
        up_since = w.restart_t;
    }
    Ok(())
}

/// Runs one driver's session — one agent per entry of `streams` (any
/// subset of {IMU, front camera, side camera}) over the driver's slice
/// of `segments`, each stream's links taken from `link_overrides` where
/// it is named (fault injection on one stream while the others run
/// clean) and from `config.link` otherwise — into one controller that
/// appends accepted batches to the WAL *before* acking them and is
/// killed/restarted per `durability.crashes` (recovery replays the log
/// into a fresh controller). The paper's deployment is
/// [`StreamId::DARNET_PAIR`] over `build_schedule`'s default 6-class
/// script; a script with a drowsiness budget passes in the same way.
///
/// The draw order is fixed — per stream its clock then its
/// retransmission-jitter seed, then every data link, the sync link, every
/// ack link — which, with the event order, is what keeps every seeded
/// recording bit-identical (pinned by `tests/golden.rs`).
///
/// # Errors
///
/// [`CollectError::InvalidConfig`] for an empty stream set, a stream
/// registered twice or without a scripted sensor, or a crash window that
/// is not finite, ordered and disjoint from the one before it;
/// [`CollectError::Wal`] / [`CollectError::Recovery`] from the durability
/// layer; [`CollectError::Overload`] if an agent's spill buffer hits its
/// bound.
pub fn run_session(
    world: &Arc<DrivingWorld>,
    driver: usize,
    segments: &[Segment<CanonicalBehavior>],
    config: &CampaignConfig,
    streams: &[StreamId],
    link_overrides: &[(StreamId, LinkConfig)],
    durability: &Durability,
) -> Result<Recording> {
    validate(streams, &durability.crashes)?;
    let script = driver_script(segments, driver);
    run_streams(
        world,
        driver,
        &script,
        config,
        streams,
        link_overrides,
        durability,
    )
}

/// The session loop behind [`run_session`], over an already validated
/// stream set and one driver's script.
fn run_streams(
    world: &Arc<DrivingWorld>,
    driver: usize,
    script: &[Segment<CanonicalBehavior>],
    config: &CampaignConfig,
    streams: &[StreamId],
    link_overrides: &[(StreamId, LinkConfig)],
    durability: &Durability,
) -> Result<Recording> {
    let session_end = script.iter().map(|s| s.end()).fold(0.0f64, f64::max);
    let link_for = |stream: StreamId| {
        link_overrides
            .iter()
            .find(|(s, _)| *s == stream)
            .map(|(_, l)| *l)
            .unwrap_or(config.link)
    };

    let mut rng = SplitMix64::new(config.seed ^ (driver as u64).wrapping_mul(0x9E37_79B9));
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
                );
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
                );
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
                if config.retransmit {
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
    let imu = match controller.aligned_imu() {
        Ok(points) => points,
        Err(CollectError::NoData(_)) => Vec::new(),
        Err(e) => return Err(e),
    };
    let mut frames = Vec::new();
    let mut reports = Vec::with_capacity(streams.len());
    for ((&stream, a), max_clock_error) in streams.iter().zip(&agents).zip(clock_errors) {
        let spill = a.agent.spill_stats();
        chaos.spill_peak = chaos.spill_peak.max(spill.peak_buffered);
        if stream != StreamId::IMU {
            frames.push((stream, controller.frames_sorted_for(stream).to_vec()));
        }
        reports.push(StreamReport {
            stream,
            transport: a.agent.transport_stats(),
            link: a.data_link.link_stats(),
            spill,
            health: controller.stream_health_by_id(stream),
            polled: a.agent.poll_count(),
            max_clock_error,
        });
    }
    Ok(Recording {
        driver,
        imu,
        frames,
        streams: reports,
        readings_ingested: controller.ingest_stats().1,
        chaos,
    })
}

/// Runs the full campaign: one [`run_session`] per driver in the
/// schedule, ascending, each into its own in-memory controller.
///
/// # Errors
///
/// Propagates per-session errors.
pub fn run_campaign(
    world: &Arc<DrivingWorld>,
    segments: &[Segment<CanonicalBehavior>],
    config: &CampaignConfig,
    streams: &[StreamId],
    link_overrides: &[(StreamId, LinkConfig)],
) -> Result<Vec<Recording>> {
    let mut drivers: Vec<usize> = segments.iter().map(|s| s.driver).collect();
    drivers.sort_unstable();
    drivers.dedup();
    let durability = Durability::default();
    drivers
        .into_iter()
        .map(|d| {
            run_session(
                world,
                d,
                segments,
                config,
                streams,
                link_overrides,
                &durability,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::FaultConfig;
    use crate::wal::MemStorage;
    use darnet_sim::WorldConfig;

    fn short_schedule() -> Vec<Segment<CanonicalBehavior>> {
        vec![
            Segment {
                driver: 0,
                behavior: CanonicalBehavior::NormalDriving,
                start: 0.0,
                duration: 5.0,
            },
            Segment {
                driver: 0,
                behavior: CanonicalBehavior::Texting,
                start: 5.0,
                duration: 5.0,
            },
        ]
    }

    fn canonical_schedule_short() -> Vec<Segment<CanonicalBehavior>> {
        [
            CanonicalBehavior::NormalDriving,
            CanonicalBehavior::HeadDroop,
            CanonicalBehavior::Texting,
        ]
        .iter()
        .enumerate()
        .map(|(i, &behavior)| Segment {
            driver: 0,
            behavior,
            start: i as f64 * 4.0,
            duration: 4.0,
        })
        .collect()
    }

    fn world() -> Arc<DrivingWorld> {
        Arc::new(DrivingWorld::new(WorldConfig::default()))
    }

    const PAIR: [StreamId; 2] = StreamId::DARNET_PAIR;
    const THREE_STREAMS: [StreamId; 3] =
        [StreamId::IMU, StreamId::CAMERA_FRONT, StreamId::CAMERA_SIDE];

    /// The paper's pair over the 6-class script, no overrides.
    fn pair_session(config: &CampaignConfig, durability: &Durability) -> Recording {
        run_session(
            &world(),
            0,
            &short_schedule(),
            config,
            &PAIR,
            &[],
            durability,
        )
        .unwrap()
    }

    /// Any stream set over the 8-class script.
    fn canonical_session(
        config: &CampaignConfig,
        streams: &[StreamId],
        link_overrides: &[(StreamId, LinkConfig)],
        durability: &Durability,
    ) -> Result<Recording> {
        run_session(
            &world(),
            0,
            &canonical_schedule_short(),
            config,
            streams,
            link_overrides,
            durability,
        )
    }

    fn clean_pair_session() -> Recording {
        pair_session(&CampaignConfig::default(), &Durability::default())
    }

    fn health(rec: &Recording, stream: StreamId) -> StreamHealth {
        rec.stream(stream).unwrap().health.unwrap()
    }

    #[test]
    fn session_produces_aligned_imu_and_frames() {
        let rec = clean_pair_session();
        let frames = rec.frames_for(StreamId::CAMERA_FRONT);
        // 10 s at 4 Hz ≈ 40 grid points; 10 s at 4 fps ≈ 40 frames.
        assert!(rec.imu.len() >= 35, "imu points {}", rec.imu.len());
        assert!(frames.len() >= 35, "frames {}", frames.len());
        assert_eq!(rec.driver, 0);
        // Grid is strictly increasing.
        assert!(rec.imu.windows(2).all(|w| w[0].t < w[1].t));
        // One accounting row per registered stream, in registration order.
        let rows: Vec<StreamId> = rec.streams.iter().map(|r| r.stream).collect();
        assert_eq!(rows, PAIR);
    }

    #[test]
    fn aligned_tuples_pair_frames_with_trailing_windows() {
        let rec = clean_pair_session();
        let frames = rec.frames_for(StreamId::CAMERA_FRONT);
        let window_len = 20;
        let features = rec.imu[0].features.len();
        let tuples = pair_frames_with_windows(frames, &rec.imu, window_len);
        assert!(!tuples.is_empty());
        assert!(tuples.len() <= frames.len());
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
        assert!(pair_frames_with_windows(frames, &rec.imu, 0).is_empty());
        assert!(pair_frames_with_windows(frames, &[], window_len).is_empty());
    }

    #[test]
    fn campaign_is_deterministic() {
        // Clean and faulty links, the pair and the three-stream set.
        let mut faulty = CampaignConfig::default();
        faulty.link.loss = 0.15;
        faulty.link.faults.duplicate = 0.1;
        for config in [CampaignConfig::default(), faulty] {
            let pair = || run_campaign(&world(), &short_schedule(), &config, &PAIR, &[]).unwrap();
            assert_eq!(pair(), pair());
            let three = || {
                let schedule = canonical_schedule_short();
                run_campaign(&world(), &schedule, &config, &THREE_STREAMS, &[]).unwrap()
            };
            assert_eq!(three(), three());
        }
    }

    #[test]
    fn sync_keeps_clock_error_small() {
        let rec = clean_pair_session();
        // With 5 s re-sync, error is bounded by drift × period + jitter.
        let error = rec.stream(StreamId::IMU).unwrap().max_clock_error;
        assert!(error < 0.02, "clock error {error}");
    }

    #[test]
    fn disabling_sync_leaves_large_clock_error() {
        let config = CampaignConfig {
            sync_enabled: false,
            ..CampaignConfig::default()
        };
        let rec = pair_session(&config, &Durability::default());
        // Initial offset up to 0.25 s is never corrected.
        let error = |rec: &Recording| rec.stream(StreamId::IMU).unwrap().max_clock_error;
        assert!(error(&rec) > error(&clean_pair_session()));
    }

    #[test]
    fn lossy_network_without_retransmission_drops_data() {
        // The legacy fire-and-forget mode: losses become gaps the
        // controller merely accounts for.
        let mut config = CampaignConfig::default();
        config.link.loss = 0.2;
        config.retransmit = false;
        let rec = pair_session(&config, &Durability::default());
        let lossless = clean_pair_session();
        // Fewer frames arrive, but the pipeline interpolates through gaps.
        assert!(
            rec.frames_for(StreamId::CAMERA_FRONT).len()
                < lossless.frames_for(StreamId::CAMERA_FRONT).len()
        );
        assert!(!rec.imu.is_empty());
        assert!(!rec.lossless());
        // The controller's gap accounting notices the missing batches.
        let gaps: u64 = rec
            .streams
            .iter()
            .map(|r| r.health.map_or(0, |h| h.gaps))
            .sum();
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
        let rec = pair_session(&config, &Durability::default());
        let imu = rec.stream(StreamId::IMU).unwrap();
        assert!(
            imu.link.lost + imu.link.blackout_drops > 0,
            "fault injection should actually drop transmissions"
        );
        assert!(
            rec.lossless(),
            "retransmission must recover all samples: polled {} ingested {}",
            rec.readings_polled(),
            rec.readings_ingested
        );
        for row in &rec.streams {
            assert_eq!(row.transport.abandoned, 0);
            assert_eq!(row.health.unwrap().gaps, 0);
        }
        assert!(imu.transport.retransmits > 0, "blackout must force retries");
        // And the recovered recording matches a lossless run's volume.
        assert_eq!(
            rec.frames_for(StreamId::CAMERA_FRONT).len(),
            clean_pair_session()
                .frames_for(StreamId::CAMERA_FRONT)
                .len()
        );
    }

    #[test]
    fn duplicated_deliveries_do_not_inflate_the_recording() {
        let mut config = CampaignConfig::default();
        config.link.faults.duplicate = 0.5;
        let rec = pair_session(&config, &Durability::default());
        let clean = clean_pair_session();
        assert_eq!(
            rec.frames_for(StreamId::CAMERA_FRONT).len(),
            clean.frames_for(StreamId::CAMERA_FRONT).len()
        );
        assert_eq!(rec.readings_ingested, clean.readings_ingested);
        let dups: u64 = PAIR.iter().map(|&s| health(&rec, s).duplicates).sum();
        assert!(
            dups > 0,
            "50% duplication should produce duplicate deliveries"
        );
    }

    fn chaos_durability(storage: Option<Arc<MemStorage>>) -> Durability {
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

    /// The pair and the three-stream set, each through the same crash
    /// windows at 5% link loss, each onto its own store (if any).
    fn chaos_sessions([pair, three]: [Option<Arc<MemStorage>>; 2]) -> [Recording; 2] {
        let mut config = CampaignConfig::default();
        config.link.loss = 0.05;
        [
            pair_session(&config, &chaos_durability(pair)),
            canonical_session(&config, &THREE_STREAMS, &[], &chaos_durability(three)).unwrap(),
        ]
    }

    fn fresh_stores() -> [Option<Arc<MemStorage>>; 2] {
        [(); 2].map(|()| Some(Arc::new(MemStorage::new())))
    }

    #[test]
    fn crash_without_wal_loses_acked_data() {
        // Negative control: no WAL, so a controller crash erases state
        // the agents were already told was safe — whatever the stream set.
        for rec in chaos_sessions([None, None]) {
            let chaos = rec.chaos;
            assert_eq!(chaos.recoveries, 2);
            assert!(chaos.deliveries_while_down > 0);
            assert!(
                chaos.acked_lost > 0,
                "without a WAL, acked pre-crash batches must be gone \
                 (acked {} lost {})",
                chaos.acked,
                chaos.acked_lost
            );
            assert!(!rec.lossless());
        }
    }

    #[test]
    fn wal_recovery_loses_no_acked_samples() {
        // The tentpole invariant: crashes, torn tail writes, and link
        // loss together lose nothing that was ever acked, over the pair
        // and over three streams alike.
        let (stores, twins) = (fresh_stores(), fresh_stores());
        for rec in chaos_sessions(stores.clone()) {
            let chaos = rec.chaos;
            assert_eq!(chaos.recoveries, 2);
            assert!(chaos.deliveries_while_down > 0);
            assert!(chaos.replayed_records > 0, "replay must do real work");
            assert!(
                chaos.torn_tail_bytes_discarded >= 13,
                "each kill tears the tail; recovery must repair it (got {})",
                chaos.torn_tail_bytes_discarded
            );
            assert!(chaos.acked > 0);
            assert_eq!(
                chaos.acked_lost, 0,
                "WAL recovery must preserve every acked batch ({} acked)",
                chaos.acked
            );
            assert!(chaos.wal_appends > 0 && chaos.wal_snapshots > 0);
            // Hold-and-resume: with retransmission across the outages, the
            // recording ends complete and every stream gap-free.
            assert!(
                rec.lossless(),
                "polled {} ingested {}",
                rec.readings_polled(),
                rec.readings_ingested
            );
            for row in &rec.streams {
                assert_eq!(row.health.unwrap().gaps, 0, "gaps on {}", row.stream);
            }
        }
        // Recovery is bitwise-deterministic: an identical re-run against
        // fresh stores leaves logs that recover to the same digests.
        let _ = chaos_sessions(twins.clone());
        let digests: Vec<u64> = stores
            .into_iter()
            .chain(twins)
            .flatten()
            .map(|storage| {
                let (recovered, _, _) = crate::wal::open(
                    ControllerConfig::default(),
                    storage as Arc<dyn WalStorage>,
                    WalConfig::default(),
                )
                .unwrap();
                recovered.state_digest()
            })
            .collect();
        assert_eq!(digests[..2], digests[2..]);
        assert_ne!(digests[0], digests[1]);
    }

    #[test]
    fn durable_chaos_runs_are_deterministic() {
        let run = || chaos_sessions(fresh_stores());
        assert_eq!(run(), run());
    }

    #[test]
    fn admission_pressure_sheds_then_recovers() {
        let mut config = CampaignConfig::default();
        // A starved token bucket: frames (low priority) get shed under
        // pressure, IMU (high priority) keeps flowing.
        config.controller.admission = crate::AdmissionConfig {
            enabled: true,
            capacity: 64.0,
            drain_per_sec: 24.0,
            low_priority_reserve: 32.0,
        };
        let rec = pair_session(&config, &Durability::default());
        assert!(rec.chaos.shed_batches > 0, "starved bucket must shed");
        let cam = health(&rec, StreamId::CAMERA_FRONT);
        assert!(cam.shed > 0 && cam.shed_ratio() > 0.0);
        // Lowest priority sheds first: the frame stream bears the brunt
        // while the IMU stream stays comparatively whole, so the aligned
        // stream the ensemble degrades onto still exists.
        let imu = health(&rec, StreamId::IMU);
        assert!(
            imu.shed_ratio() < cam.shed_ratio(),
            "imu {} vs cam {}",
            imu.shed_ratio(),
            cam.shed_ratio()
        );
        assert!(!rec.imu.is_empty());
    }

    #[test]
    fn canonical_session_collects_all_three_streams() {
        let rec = canonical_session(
            &CampaignConfig::default(),
            &THREE_STREAMS,
            &[],
            &Durability::default(),
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
            assert!(rec.stream(s).unwrap().health.is_some(), "no health for {s}");
        }
        // Each camera stream aligns against the shared IMU grid.
        let tuples = pair_frames_with_windows(side, &rec.imu, 20);
        assert!(!tuples.is_empty());
        assert_eq!(tuples[0].window.len(), 20 * rec.imu[0].features.len());
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
        let session = |overrides: &[(StreamId, LinkConfig)]| {
            canonical_session(
                &CampaignConfig::default(),
                &THREE_STREAMS,
                overrides,
                &Durability::default(),
            )
            .unwrap()
        };
        let rec = session(&[(StreamId::CAMERA_SIDE, dead)]);
        let clean = session(&[]);
        assert!(rec.frames_for(StreamId::CAMERA_SIDE).is_empty());
        assert!(rec.stream(StreamId::CAMERA_SIDE).unwrap().health.is_none());
        assert_eq!(
            rec.frames_for(StreamId::CAMERA_FRONT).len(),
            clean.frames_for(StreamId::CAMERA_FRONT).len()
        );
        assert_eq!(rec.imu.len(), clean.imu.len());
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
    fn session_rejects_invalid_stream_sets_and_crash_windows() {
        let rejected = |streams: &[StreamId], crashes: &[(f64, f64)]| {
            let durability = Durability {
                crashes: crashes
                    .iter()
                    .map(|&(kill_t, restart_t)| CrashWindow { kill_t, restart_t })
                    .collect(),
                ..Durability::default()
            };
            let result = canonical_session(&CampaignConfig::default(), streams, &[], &durability);
            matches!(result, Err(CollectError::InvalidConfig(_)))
        };
        // Stream sets: unknown, empty, registered twice.
        assert!(rejected(&[StreamId(9)], &[]));
        assert!(rejected(&[], &[]));
        assert!(rejected(&[StreamId::IMU, StreamId::IMU], &[]));
        assert!(rejected(
            &[StreamId::IMU, StreamId::CAMERA_SIDE, StreamId::IMU],
            &[]
        ));
        // Crash windows: reversed, overlapping, out of order, non-finite.
        assert!(rejected(&PAIR, &[(4.0, 3.0)]));
        assert!(rejected(&PAIR, &[(3.0, 5.0), (4.0, 6.0)]));
        assert!(rejected(&PAIR, &[(7.0, 8.0), (3.0, 4.0)]));
        assert!(rejected(&PAIR, &[(3.0, f64::INFINITY)]));
        assert!(rejected(&PAIR, &[(f64::NAN, 4.0)]));
        // Back-to-back windows are ordered and disjoint.
        assert!(!rejected(&PAIR, &[(3.0, 4.0), (4.0, 5.0)]));
    }

    #[test]
    fn multi_driver_campaign_covers_all_drivers() {
        let mut schedule = short_schedule();
        schedule.push(Segment {
            driver: 1,
            behavior: CanonicalBehavior::Talking,
            start: 0.0,
            duration: 6.0,
        });
        let config = CampaignConfig::default();
        let recs = run_campaign(&world(), &schedule, &config, &PAIR, &[]).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].driver, 0);
        assert_eq!(recs[1].driver, 1);
    }
}
