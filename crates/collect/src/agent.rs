//! The collection agent: polls one sensor, timestamps with its local
//! (drifting) clock, and transmits batches to the controller — reliably,
//! when the transport layer is enabled: flushed batches stay in a bounded
//! in-flight window until acked, and unacked batches are retransmitted on
//! an exponential-backoff-with-jitter schedule.
#![expect(
    clippy::disallowed_methods,
    reason = "randomness owner: sensor sampling jitter and retransmission backoff"
)]

use std::collections::VecDeque;

use darnet_tensor::SplitMix64;

use crate::clock::DriftClock;
use crate::sensor::Sensor;
use crate::{Batch, CollectError, Result, StampedReading};

/// Agent configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgentConfig {
    /// Sensor poll period, seconds (paper: 25 ms for IMU listeners).
    pub poll_period: f64,
    /// Batch transmission period, seconds — chosen "based on the latency
    /// and bandwidth between the agent and the controller" (§3.1).
    pub transmit_period: f64,
}

impl Default for AgentConfig {
    fn default() -> Self {
        AgentConfig {
            poll_period: 0.025,
            transmit_period: 0.5,
        }
    }
}

/// Bound on the agent-side spill buffer: readings accumulated while
/// flushes are deferred (full in-flight window, controller blackout or
/// restart). Embedded devices have finite memory, so a poll at the bound
/// fails with the typed [`CollectError::Overload`] instead of growing the
/// buffer.
const SPILL_CAPACITY: usize = 100_000;

/// Initial ack timeout (RTO), seconds: comfortably above one round trip.
const ACK_TIMEOUT: f64 = 0.25;
/// RTO multiplier applied per retry (exponential backoff).
const BACKOFF: f64 = 2.0;
/// Uniform jitter applied to each RTO as a fraction of its value, so a
/// fleet of agents recovering from the same blackout doesn't retransmit
/// in lockstep.
const JITTER_FRAC: f64 = 0.25;
/// Retries before a batch is abandoned (counted in
/// [`TransportStats::abandoned`]).
const MAX_RETRIES: u32 = 8;
/// Maximum unacked batches in flight. A full window exerts backpressure:
/// flushes are deferred and readings keep buffering in the bounded spill
/// buffer.
const WINDOW: usize = 16;

/// Cumulative spill-buffer counters for one agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpillStats {
    /// High-water mark of buffered readings.
    pub peak_buffered: usize,
}

/// Cumulative transport counters for one agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransportStats {
    /// Batches handed to the link at least once.
    pub transmitted: u64,
    /// Retransmission attempts.
    pub retransmits: u64,
    /// Batches retired by an ack.
    pub acked: u64,
    /// Batches abandoned after exhausting retries.
    pub abandoned: u64,
    /// Flush attempts deferred because the window was full.
    pub backpressure_events: u64,
    /// Duplicate acks received (ack for a batch no longer in flight).
    pub duplicate_acks: u64,
}

#[derive(Debug, Clone)]
struct InFlight {
    batch: Batch,
    retries: u32,
    deadline: f64,
}

/// A collection agent embedded in one IoT device.
///
/// The agent's responsibilities mirror §3.1 of the paper: periodically poll
/// the device's sensor, maintain an internal clock for timestamping, and
/// transmit data to the centralized controller at a configured frequency.
/// On top of that sits the reliable transport: [`CollectionAgent::flush_at`]
/// admits batches into a bounded in-flight window,
/// [`CollectionAgent::handle_ack`] retires them, and
/// [`CollectionAgent::due_retransmits`] yields the batches whose ack
/// timeout has expired.
pub struct CollectionAgent {
    id: u32,
    sensor: Box<dyn Sensor>,
    clock: DriftClock,
    config: AgentConfig,
    reliable: bool,
    buffer: VecDeque<StampedReading>,
    in_flight: VecDeque<InFlight>,
    stats: TransportStats,
    spill_stats: SpillStats,
    rng: SplitMix64,
    next_seq: u32,
    polls: u64,
}

impl CollectionAgent {
    /// Creates an agent around a sensor with the given local clock and the
    /// default reliable transport.
    pub fn new(id: u32, sensor: Box<dyn Sensor>, clock: DriftClock, config: AgentConfig) -> Self {
        CollectionAgent {
            id,
            sensor,
            clock,
            config,
            reliable: true,
            buffer: VecDeque::new(),
            in_flight: VecDeque::new(),
            stats: TransportStats::default(),
            spill_stats: SpillStats::default(),
            rng: SplitMix64::new(0xA6E7 ^ id as u64),
            next_seq: 0,
            polls: 0,
        }
    }

    /// Sets the transport, chaining on a new agent: `reliable` runs the
    /// ack/retransmit protocol; without it a flushed batch is
    /// fire-and-forget and losses become gaps the controller merely
    /// accounts for. `seed` drives the retransmission jitter.
    pub fn with_transport(mut self, reliable: bool, seed: u64) -> Self {
        self.reliable = reliable;
        self.rng = SplitMix64::new(seed);
        self
    }

    /// Agent identifier.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Agent configuration.
    pub fn config(&self) -> &AgentConfig {
        &self.config
    }

    /// Cumulative transport counters.
    pub fn transport_stats(&self) -> TransportStats {
        self.stats
    }

    /// Unacked batches currently in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// The agent's current clock error at true time `t` (diagnostic).
    pub fn clock_error(&self, t: f64) -> f64 {
        self.clock.error(t)
    }

    /// Number of polls performed.
    pub fn poll_count(&self) -> u64 {
        self.polls
    }

    /// Cumulative spill-buffer counters.
    pub fn spill_stats(&self) -> SpillStats {
        self.spill_stats
    }

    /// Readings currently held in the spill buffer.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Polls the sensor at true time `t`, stamping the reading with the
    /// agent's *local* clock (which is what the paper's system must
    /// correct for via synchronization). The reading lands in the bounded
    /// spill buffer until the next successful flush.
    ///
    /// # Errors
    ///
    /// Returns [`CollectError::Overload`] when the spill buffer is at its
    /// bound — the typed give-up: the reading is *discarded*, the
    /// buffered backlog is kept intact for when the controller returns.
    pub fn poll(&mut self, t: f64) -> Result<()> {
        let reading = self.sensor.sample(t);
        self.polls += 1;
        if self.buffer.len() >= SPILL_CAPACITY {
            return Err(CollectError::Overload {
                agent_id: self.id,
                buffered: self.buffer.len(),
                capacity: SPILL_CAPACITY,
            });
        }
        self.buffer.push_back(StampedReading {
            timestamp: self.clock.now(t),
            reading,
        });
        self.spill_stats.peak_buffered = self.spill_stats.peak_buffered.max(self.buffer.len());
        Ok(())
    }

    fn make_batch(&mut self) -> Batch {
        let batch = Batch {
            agent_id: self.id,
            seq: self.next_seq,
            readings: std::mem::take(&mut self.buffer).into(),
        };
        self.next_seq += 1;
        batch
    }

    fn rto(&mut self, retries: u32) -> f64 {
        let base = ACK_TIMEOUT * BACKOFF.powi(retries as i32);
        let jitter = JITTER_FRAC * base;
        base + (2.0 * self.rng.next_f64() - 1.0) * jitter
    }

    /// Drains buffered readings into a transmission batch; returns `None`
    /// if nothing was buffered. Fire-and-forget: the batch is *not*
    /// entered into the in-flight window (use [`CollectionAgent::flush_at`]
    /// for reliable delivery).
    pub fn flush(&mut self) -> Option<Batch> {
        if self.buffer.is_empty() {
            return None;
        }
        Some(self.make_batch())
    }

    /// Transport-aware flush at true time `t`. With the reliable
    /// transport, the returned batch also enters the in-flight window with
    /// its first ack deadline; a full window defers the flush and returns
    /// `None` — readings keep accumulating in the bounded spill buffer
    /// (backpressure), whose bound is enforced at the *poll*, not here.
    pub fn flush_at(&mut self, t: f64) -> Option<Batch> {
        if !self.reliable {
            return self.flush();
        }
        if self.buffer.is_empty() {
            return None;
        }
        if self.in_flight.len() >= WINDOW {
            self.stats.backpressure_events += 1;
            return None;
        }
        let batch = self.make_batch();
        let deadline = t + self.rto(0);
        self.in_flight.push_back(InFlight {
            batch: batch.clone(),
            retries: 0,
            deadline,
        });
        self.stats.transmitted += 1;
        Some(batch)
    }

    /// Records a flush deferred by an *external* backpressure signal —
    /// the fleet admission rollup telling agents to hold off — so the
    /// deferral shows up in [`TransportStats::backpressure_events`]
    /// alongside window-full deferrals. Readings keep accumulating in
    /// the bounded spill buffer exactly as for a window-full deferral.
    pub fn note_deferred_flush(&mut self) {
        self.stats.backpressure_events += 1;
    }

    /// Handles a controller ack for `seq`: retires the matching in-flight
    /// entry (idempotent — re-acks for already-retired batches are counted
    /// and ignored).
    pub fn handle_ack(&mut self, seq: u32) {
        let before = self.in_flight.len();
        self.in_flight.retain(|e| e.batch.seq != seq);
        if self.in_flight.len() < before {
            self.stats.acked += 1;
        } else {
            self.stats.duplicate_acks += 1;
        }
    }

    /// The earliest ack deadline among in-flight batches, if any — when
    /// the event loop should next call
    /// [`CollectionAgent::due_retransmits`].
    pub fn next_deadline(&self) -> Option<f64> {
        self.in_flight
            .iter()
            .map(|e| e.deadline)
            .min_by(|a, b| a.total_cmp(b))
    }

    /// Collects every in-flight batch whose ack deadline has passed at
    /// time `t`, advancing each one's backoff schedule. Batches that have
    /// exhausted their retries are abandoned (dropped from the window and
    /// counted in [`TransportStats::abandoned`]).
    pub fn due_retransmits(&mut self, t: f64) -> Vec<Batch> {
        let mut due = Vec::new();
        let window = std::mem::take(&mut self.in_flight);
        for mut entry in window {
            if entry.deadline > t + 1e-12 {
                self.in_flight.push_back(entry);
                continue;
            }
            if entry.retries >= MAX_RETRIES {
                self.stats.abandoned += 1;
                continue;
            }
            entry.retries += 1;
            entry.deadline = t + self.rto(entry.retries);
            due.push(entry.batch.clone());
            self.in_flight.push_back(entry);
        }
        self.stats.retransmits += due.len() as u64;
        due
    }

    /// Handles a clock-sync message from the controller, received at true
    /// time `t`: the master's UTC plus the measured network delay become
    /// the agent's new local time (§4.1).
    pub fn handle_sync(&mut self, t: f64, master_utc: f64, measured_delay: f64) {
        self.clock.apply_sync(t, master_utc, measured_delay);
    }
}

impl std::fmt::Debug for CollectionAgent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CollectionAgent")
            .field("id", &self.id)
            .field("sensor", &self.sensor.name())
            .field("buffered", &self.buffer.len())
            .field("in_flight", &self.in_flight.len())
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensor::ScriptedSensor;
    use crate::SensorReading;
    use darnet_sim::{CanonicalBehavior, DrivingWorld, Segment, WorldConfig};
    use std::sync::Arc;

    fn make_agent(clock: DriftClock) -> CollectionAgent {
        let world = Arc::new(DrivingWorld::new(WorldConfig::default()));
        let script = vec![Segment {
            driver: 0,
            behavior: CanonicalBehavior::Texting,
            start: 0.0,
            duration: 60.0,
        }];
        CollectionAgent::new(
            7,
            Box::new(ScriptedSensor::imu(world, 0, script, 0.025)),
            clock,
            AgentConfig::default(),
        )
    }

    #[test]
    fn poll_stamps_with_local_clock() {
        let mut agent = make_agent(DriftClock::new(0.0, 0.5));
        agent.poll(1.0).unwrap();
        let batch = agent.flush().unwrap();
        assert_eq!(batch.readings.len(), 1);
        // Local clock = true + 0.5.
        assert!((batch.readings[0].timestamp - 1.5).abs() < 1e-9);
        assert!(matches!(batch.readings[0].reading, SensorReading::Imu(_)));
    }

    #[test]
    fn flush_returns_none_when_empty_and_drains_buffer() {
        let mut agent = make_agent(DriftClock::perfect());
        assert!(agent.flush().is_none());
        agent.poll(0.0).unwrap();
        agent.poll(0.025).unwrap();
        let b = agent.flush().unwrap();
        assert_eq!(b.readings.len(), 2);
        assert!(agent.flush().is_none());
    }

    #[test]
    fn sequence_numbers_increase() {
        let mut agent = make_agent(DriftClock::perfect());
        agent.poll(0.0).unwrap();
        let b0 = agent.flush().unwrap();
        agent.poll(1.0).unwrap();
        let b1 = agent.flush().unwrap();
        assert_eq!(b0.seq, 0);
        assert_eq!(b1.seq, 1);
        assert_eq!(agent.poll_count(), 2);
    }

    #[test]
    fn sync_corrects_future_timestamps() {
        let mut agent = make_agent(DriftClock::new(0.0, 2.0));
        assert!(agent.clock_error(0.0).abs() > 1.0);
        agent.handle_sync(10.0, 9.98, 0.02);
        assert!(agent.clock_error(10.0).abs() < 1e-9);
        agent.poll(10.5).unwrap();
        let b = agent.flush().unwrap();
        assert!((b.readings[0].timestamp - 10.5).abs() < 1e-9);
    }

    #[test]
    fn tracked_flush_enters_window_and_ack_retires() {
        let mut agent = make_agent(DriftClock::perfect());
        agent.poll(0.0).unwrap();
        let batch = agent.flush_at(0.5).unwrap();
        assert_eq!(agent.in_flight(), 1);
        assert!(agent.next_deadline().unwrap() > 0.5);
        agent.handle_ack(batch.seq);
        assert_eq!(agent.in_flight(), 0);
        assert_eq!(agent.next_deadline(), None);
        let stats = agent.transport_stats();
        assert_eq!(stats.transmitted, 1);
        assert_eq!(stats.acked, 1);
        // Re-ack is idempotent.
        agent.handle_ack(batch.seq);
        assert_eq!(agent.transport_stats().duplicate_acks, 1);
    }

    #[test]
    fn retransmit_schedule_backs_off_exponentially() {
        // The retry contract: RTO 0.25 s × 2^retries, each jittered by
        // ±25 %, and a batch abandoned after its 8th retry.
        let within = |rto: f64, retries: i32| {
            let nominal = 0.25 * 2f64.powi(retries);
            (rto - nominal).abs() <= 0.25 * nominal + 1e-12
        };
        let mut agent = make_agent(DriftClock::perfect()).with_transport(true, 99);
        agent.poll(0.0).unwrap();
        agent.flush_at(0.0).unwrap();
        let mut t = agent.next_deadline().unwrap();
        assert!(within(t, 0), "first rto {t}");
        // Nothing due before the deadline.
        assert!(agent.due_retransmits(t - 0.01).is_empty());
        for retries in 1..=8 {
            assert_eq!(agent.due_retransmits(t).len(), 1);
            let next = agent.next_deadline().unwrap();
            assert!(
                within(next - t, retries),
                "retry {retries}: rto {}",
                next - t
            );
            t = next;
        }
        // Retries exhausted: the batch is abandoned.
        assert!(agent.due_retransmits(t).is_empty());
        assert_eq!(agent.in_flight(), 0);
        assert_eq!(agent.transport_stats().abandoned, 1);
        assert_eq!(agent.transport_stats().retransmits, 8);
    }

    #[test]
    fn full_window_defers_flush_and_spill_bound_gives_up_typed() {
        let mut agent = make_agent(DriftClock::perfect()).with_transport(true, 7);
        for i in 0..16 {
            agent.poll(i as f64 * 0.025).unwrap();
            assert!(agent.flush_at(0.5).is_some());
        }
        assert_eq!(agent.in_flight(), 16);
        // Window full: flush defers, readings keep spilling.
        let mut t = 0.5;
        agent.poll(t).unwrap();
        assert!(agent.flush_at(1.0).is_none());
        assert_eq!(agent.transport_stats().backpressure_events, 1);
        // Fill the spill buffer to its bound...
        while agent.buffered() < 100_000 {
            t += 0.025;
            agent.poll(t).unwrap();
        }
        // ...the next poll is the typed give-up, with full context.
        let err = agent.poll(t + 0.025).unwrap_err();
        assert_eq!(
            err,
            CollectError::Overload {
                agent_id: 7,
                buffered: 100_000,
                capacity: 100_000,
            }
        );
        // The backlog itself is preserved: an ack frees the window and
        // every held reading flushes as one batch.
        agent.handle_ack(0);
        let batch = agent.flush_at(t + 1.0).unwrap();
        assert_eq!(batch.readings.len(), 100_000);
        assert_eq!(agent.spill_stats().peak_buffered, 100_000);
    }

    #[test]
    fn jitter_spreads_retransmit_deadlines() {
        let mut deadlines = Vec::new();
        for seed in 0..20 {
            let mut agent = make_agent(DriftClock::perfect()).with_transport(true, seed);
            agent.poll(0.0).unwrap();
            agent.flush_at(0.0);
            deadlines.push(agent.next_deadline().unwrap());
        }
        let min = deadlines.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = deadlines.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(max - min > 0.05, "jitter spread {min}..{max}");
        assert!(deadlines.iter().all(|&d| (0.1875..=0.3125).contains(&d)));
    }
}
