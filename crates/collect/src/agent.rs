//! The collection agent: polls one sensor, timestamps with its local
//! (drifting) clock, and transmits batches to the controller — reliably,
//! when the transport layer is enabled: flushed batches stay in a bounded
//! in-flight window until acked, and unacked batches are retransmitted on
//! an exponential-backoff-with-jitter schedule.

use std::collections::VecDeque;

use darnet_tensor::SplitMix64;

use crate::clock::DriftClock;
use crate::error::CollectError;
use crate::sensor::Sensor;
use crate::wire::{Batch, StampedReading};
use crate::Result;

/// Agent configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgentConfig {
    /// Sensor poll period, seconds (paper: 25 ms for IMU listeners).
    pub poll_period: f64,
    /// Batch transmission period, seconds — chosen "based on the latency
    /// and bandwidth between the agent and the controller" (§3.1).
    pub transmit_period: f64,
    /// Bound and policy for the agent-side spill buffer that holds
    /// readings while the controller is unreachable or backpressuring.
    pub spill: SpillConfig,
}

impl Default for AgentConfig {
    fn default() -> Self {
        AgentConfig {
            poll_period: 0.025,
            transmit_period: 0.5,
            spill: SpillConfig::default(),
        }
    }
}

/// Bound on the agent-side spill buffer: readings accumulated while
/// flushes are deferred (full in-flight window, controller blackout or
/// restart). Embedded devices have finite memory, so the buffer is
/// explicitly bounded and hitting the bound has *typed* semantics
/// instead of unbounded growth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpillConfig {
    /// Maximum readings held in the spill buffer.
    pub max_readings: usize,
    /// What to do at the bound: `true` drops the *oldest* buffered
    /// reading to admit the new one (graceful degradation — recent data
    /// is worth more to a live detector than stale data); `false` makes
    /// the poll fail with [`CollectError::Overload`] (strict give-up).
    pub drop_oldest: bool,
}

impl Default for SpillConfig {
    fn default() -> Self {
        SpillConfig {
            max_readings: 100_000,
            drop_oldest: false,
        }
    }
}

/// Cumulative spill-buffer counters for one agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpillStats {
    /// High-water mark of buffered readings.
    pub peak_buffered: usize,
    /// Readings dropped (oldest-first) to stay under the bound.
    pub dropped_oldest: u64,
}

/// Reliable-delivery configuration for one agent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetransmitConfig {
    /// Whether the ack/retransmit protocol runs at all. With it off, a
    /// flushed batch is fire-and-forget (the pre-transport behaviour) and
    /// losses become gaps the controller merely accounts for.
    pub enabled: bool,
    /// Initial ack timeout (RTO), seconds. Should comfortably exceed one
    /// round trip.
    pub ack_timeout: f64,
    /// RTO multiplier applied per retry (exponential backoff).
    pub backoff: f64,
    /// Uniform jitter applied to each RTO as a fraction of its value, so a
    /// fleet of agents recovering from the same blackout doesn't
    /// retransmit in lockstep.
    pub jitter_frac: f64,
    /// Retries before a batch is abandoned (counted, and an error in
    /// strict mode).
    pub max_retries: u32,
    /// Maximum unacked batches in flight. A full window exerts
    /// backpressure: flushes are deferred and readings keep buffering in
    /// the spill buffer (bounded by [`SpillConfig`]).
    pub window: usize,
    /// When `true`, abandoning a batch (retries exhausted) is an error
    /// instead of a counter bump.
    pub strict: bool,
}

impl Default for RetransmitConfig {
    fn default() -> Self {
        RetransmitConfig {
            enabled: true,
            ack_timeout: 0.25,
            backoff: 2.0,
            jitter_frac: 0.25,
            max_retries: 8,
            window: 16,
            strict: false,
        }
    }
}

impl RetransmitConfig {
    /// The legacy fire-and-forget transport.
    pub fn disabled() -> Self {
        RetransmitConfig {
            enabled: false,
            ..RetransmitConfig::default()
        }
    }
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
    transport: RetransmitConfig,
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
            transport: RetransmitConfig::default(),
            buffer: VecDeque::new(),
            in_flight: VecDeque::new(),
            stats: TransportStats::default(),
            spill_stats: SpillStats::default(),
            rng: SplitMix64::new(0xA6E7 ^ id as u64),
            next_seq: 0,
            polls: 0,
        }
    }

    /// Replaces the transport configuration (builder style). `seed` drives
    /// the retransmission jitter.
    pub fn with_transport(mut self, transport: RetransmitConfig, seed: u64) -> Self {
        self.transport = transport;
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
    /// bound and `drop_oldest` is off — the typed give-up: the reading is
    /// *discarded*, the buffered backlog is kept intact for when the
    /// controller returns.
    pub fn poll(&mut self, t: f64) -> Result<()> {
        let reading = self.sensor.sample(t);
        self.polls += 1;
        if self.buffer.len() >= self.config.spill.max_readings {
            if !self.config.spill.drop_oldest {
                return Err(CollectError::Overload {
                    agent_id: self.id,
                    buffered: self.buffer.len(),
                    capacity: self.config.spill.max_readings,
                });
            }
            // Graceful mode: age out the stalest reading to admit the
            // fresh one.
            self.buffer.pop_front();
            self.spill_stats.dropped_oldest += 1;
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
        let base = self.transport.ack_timeout * self.transport.backoff.powi(retries as i32);
        let jitter = self.transport.jitter_frac * base;
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

    /// Transport-aware flush at true time `t`. With the transport enabled,
    /// the returned batch also enters the in-flight window with its first
    /// ack deadline; a full window defers the flush and returns
    /// `Ok(None)` — readings keep accumulating in the bounded spill
    /// buffer (backpressure), whose overflow policy lives at the *poll*
    /// ([`SpillConfig`]), not here.
    pub fn flush_at(&mut self, t: f64) -> Result<Option<Batch>> {
        if !self.transport.enabled {
            return Ok(self.flush());
        }
        if self.buffer.is_empty() {
            return Ok(None);
        }
        if self.in_flight.len() >= self.transport.window {
            self.stats.backpressure_events += 1;
            return Ok(None);
        }
        let batch = self.make_batch();
        let deadline = t + self.rto(0);
        self.in_flight.push_back(InFlight {
            batch: batch.clone(),
            retries: 0,
            deadline,
        });
        self.stats.transmitted += 1;
        Ok(Some(batch))
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
    /// exhausted `max_retries` are abandoned (dropped from the window).
    ///
    /// # Errors
    ///
    /// In strict mode, abandoning a batch returns
    /// [`CollectError::Transport`] ("ack timeout exhausted") instead.
    pub fn due_retransmits(&mut self, t: f64) -> Result<Vec<Batch>> {
        let mut due = Vec::new();
        let mut abandoned = 0u64;
        let mut strict_err = None;
        let window = std::mem::take(&mut self.in_flight);
        for mut entry in window {
            if entry.deadline > t + 1e-12 {
                self.in_flight.push_back(entry);
                continue;
            }
            if entry.retries >= self.transport.max_retries {
                abandoned += 1;
                if self.transport.strict && strict_err.is_none() {
                    strict_err = Some(CollectError::Transport(format!(
                        "agent {}: ack timeout exhausted after {} retries for batch seq {}",
                        self.id, entry.retries, entry.batch.seq
                    )));
                }
                continue;
            }
            entry.retries += 1;
            entry.deadline = t + self.rto(entry.retries);
            due.push(entry.batch.clone());
            self.in_flight.push_back(entry);
        }
        self.stats.abandoned += abandoned;
        self.stats.retransmits += due.len() as u64;
        match strict_err {
            Some(e) => Err(e),
            None => Ok(due),
        }
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
    use crate::sensor::{ScriptedSensor, SensorReading};
    use darnet_sim::{CanonicalBehavior, DrivingWorld, Segment, WorldConfig};
    use std::sync::Arc;

    fn make_agent_with(clock: DriftClock, config: AgentConfig) -> CollectionAgent {
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
            config,
        )
    }

    fn make_agent(clock: DriftClock) -> CollectionAgent {
        make_agent_with(clock, AgentConfig::default())
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
        let batch = agent.flush_at(0.5).unwrap().unwrap();
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
        let transport = RetransmitConfig {
            ack_timeout: 1.0,
            backoff: 2.0,
            jitter_frac: 0.0, // deterministic deadlines for the assertion
            max_retries: 3,
            ..RetransmitConfig::default()
        };
        let mut agent = make_agent(DriftClock::perfect()).with_transport(transport, 99);
        agent.poll(0.0).unwrap();
        agent.flush_at(0.0).unwrap().unwrap();
        // First deadline at t = 1.
        assert!((agent.next_deadline().unwrap() - 1.0).abs() < 1e-9);
        // Nothing due before the deadline.
        assert!(agent.due_retransmits(0.5).unwrap().is_empty());
        // Each retry multiplies the RTO by 2: deadlines 1, 3, 7, 15.
        let mut t = 1.0;
        let mut expected_rto = 2.0;
        for _ in 0..3 {
            let due = agent.due_retransmits(t).unwrap();
            assert_eq!(due.len(), 1);
            let next = agent.next_deadline().unwrap();
            assert!(
                (next - (t + expected_rto)).abs() < 1e-9,
                "next {next} t {t}"
            );
            t = next;
            expected_rto *= 2.0;
        }
        // Retries exhausted: the batch is abandoned.
        assert!(agent.due_retransmits(t).unwrap().is_empty());
        assert_eq!(agent.in_flight(), 0);
        assert_eq!(agent.transport_stats().abandoned, 1);
        assert_eq!(agent.transport_stats().retransmits, 3);
    }

    #[test]
    fn strict_mode_errors_on_exhaustion() {
        let transport = RetransmitConfig {
            ack_timeout: 0.1,
            max_retries: 0,
            strict: true,
            ..RetransmitConfig::default()
        };
        let mut agent = make_agent(DriftClock::perfect()).with_transport(transport, 5);
        agent.poll(0.0).unwrap();
        agent.flush_at(0.0).unwrap().unwrap();
        let err = agent.due_retransmits(10.0).unwrap_err();
        assert!(matches!(err, CollectError::Transport(_)));
        assert!(err.to_string().contains("ack timeout exhausted"));
    }

    #[test]
    fn full_window_defers_flush_and_spill_bound_gives_up_typed() {
        let config = AgentConfig {
            spill: SpillConfig {
                max_readings: 3,
                drop_oldest: false,
            },
            ..AgentConfig::default()
        };
        let transport = RetransmitConfig {
            window: 2,
            ..RetransmitConfig::default()
        };
        let mut agent = make_agent_with(DriftClock::perfect(), config).with_transport(transport, 7);
        for i in 0..2 {
            agent.poll(i as f64 * 0.025).unwrap();
            assert!(agent.flush_at(0.5).unwrap().is_some());
        }
        assert_eq!(agent.in_flight(), 2);
        // Window full: flush defers, readings keep spilling.
        agent.poll(0.075).unwrap();
        assert!(agent.flush_at(1.0).unwrap().is_none());
        assert_eq!(agent.transport_stats().backpressure_events, 1);
        // Fill the spill buffer to its bound...
        agent.poll(0.1).unwrap();
        agent.poll(0.125).unwrap();
        assert_eq!(agent.buffered(), 3);
        // ...the next poll is the typed give-up, with full context.
        let err = agent.poll(0.15).unwrap_err();
        assert_eq!(
            err,
            CollectError::Overload {
                agent_id: 7,
                buffered: 3,
                capacity: 3,
            }
        );
        // The backlog itself is preserved: an ack frees the window and
        // the three held readings flush as one batch.
        agent.handle_ack(0);
        let batch = agent.flush_at(2.0).unwrap().unwrap();
        assert_eq!(batch.readings.len(), 3);
        assert_eq!(agent.spill_stats().peak_buffered, 3);
        assert_eq!(agent.spill_stats().dropped_oldest, 0);
    }

    #[test]
    fn drop_oldest_spill_keeps_freshest_readings() {
        let config = AgentConfig {
            spill: SpillConfig {
                max_readings: 2,
                drop_oldest: true,
            },
            ..AgentConfig::default()
        };
        let transport = RetransmitConfig {
            window: 1,
            ..RetransmitConfig::default()
        };
        let mut agent = make_agent_with(DriftClock::perfect(), config).with_transport(transport, 7);
        agent.poll(0.0).unwrap();
        assert!(agent.flush_at(0.0).unwrap().is_some());
        // Window (size 1) is now full; polls spill, bound 2, oldest ages out.
        for i in 0..4 {
            agent.poll(0.1 + i as f64 * 0.1).unwrap();
        }
        assert_eq!(agent.buffered(), 2);
        assert_eq!(agent.spill_stats().dropped_oldest, 2);
        agent.handle_ack(0);
        let batch = agent.flush_at(1.0).unwrap().unwrap();
        // The two *freshest* readings survived (t = 0.3, 0.4).
        assert_eq!(batch.readings.len(), 2);
        assert!((batch.readings[0].timestamp - 0.3).abs() < 1e-9);
        assert!((batch.readings[1].timestamp - 0.4).abs() < 1e-9);
    }

    #[test]
    fn jitter_spreads_retransmit_deadlines() {
        let transport = RetransmitConfig {
            ack_timeout: 1.0,
            jitter_frac: 0.5,
            ..RetransmitConfig::default()
        };
        let mut deadlines = Vec::new();
        for seed in 0..20 {
            let mut agent = make_agent(DriftClock::perfect()).with_transport(transport, seed);
            agent.poll(0.0).unwrap();
            agent.flush_at(0.0).unwrap();
            deadlines.push(agent.next_deadline().unwrap());
        }
        let min = deadlines.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = deadlines.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(max - min > 0.2, "jitter spread {min}..{max}");
        assert!(deadlines.iter().all(|&d| (0.5..=1.5).contains(&d)));
    }
}
