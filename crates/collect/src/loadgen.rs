//! Deterministic fleet-scale load generator: drives thousands of
//! simulated vehicles — each a real [`CollectionAgent`] with the full
//! reliable transport (bounded windows, backoff retransmission, seeded
//! link faults) — into a [`ShardedController`] through one shared
//! discrete-event queue, the session runtime's `EventQueue` (DESIGN.md
//! §14).
//!
//! Traffic *shapes* come from the sim's session protocol: every vehicle
//! follows one of the [`build_schedule`] driver scripts (offset by a
//! seeded per-agent phase), and its synthetic sensor emits
//! behaviour-dependent IMU features at a fleet reporting cadence with
//! periodic camera frames — IMU-dominant traffic punctuated by heavy
//! frame batches, the same mix the single-session runtime produces,
//! scaled out. Everything is seeded: the same [`FleetConfig`] yields a
//! bit-identical [`FleetReport`], which is what lets a golden test pin
//! a 10 000-agent fleet's counts and digest.
//!
//! The fleet admission signal closes the loop: each drain tick
//! recomputes [`ShardedController::pressure`], and (when
//! [`FleetConfig::honor_backpressure`] is set) agents defer flushes on
//! [`FleetAdmission::Shed`] and halve their flush rate on
//! [`FleetAdmission::Throttle`] — backpressure as deferral, with the
//! spill buffer and retransmission schedule absorbing the slack.
#![expect(
    clippy::disallowed_methods,
    reason = "randomness owner: the seeded fleet load generator"
)]

use std::collections::BTreeMap;
use std::sync::Arc;

use darnet_sim::schedule::build_schedule;
use darnet_sim::{CanonicalBehavior, Frame, ImuSample, ScheduleConfig, Segment};
use darnet_tensor::SplitMix64;

use crate::agent::CollectionAgent;
use crate::clock::DriftClock;
use crate::network::{FaultConfig, Link, LinkConfig};
use crate::runtime::{check_period, EventQueue, LinkedAgent};
use crate::sensor::{scripted_at, Sensor};
use crate::shard::{FleetAdmission, ShardConfig, ShardedController};
use crate::wal::WalStats;
use crate::{decode_ack, decode_batch, encode_ack, encode_batch, Batch, Result, SensorReading};

/// Controller drain-tick period, seconds: how often shard queues are
/// drained, acks sent, and the fleet pressure rollup refreshed.
const DRAIN_PERIOD: f64 = 0.25;

/// Configuration of one fleet load-generation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Simulated vehicles (each one collection agent).
    pub agents: usize,
    /// Session length in seconds of simulated time.
    pub session_seconds: f64,
    /// Fleet IMU reporting period, seconds. Deliberately coarser than
    /// the in-session 25 ms: a fleet uplink reports condensed features,
    /// not raw sensor ticks.
    pub imu_period: f64,
    /// Camera frame period, seconds (`0` disables frames).
    pub frame_period: f64,
    /// Side length of the synthetic (square) frames.
    pub frame_side: usize,
    /// Batch transmission period, seconds.
    pub transmit_period: f64,
    /// Extra post-session time for retransmissions and final drains.
    pub drain_grace: f64,
    /// Master seed; everything (sensors, clocks, links, jitter) derives
    /// from it.
    pub seed: u64,
    /// Session protocol whose driver scripts shape the traffic; vehicle
    /// `i` follows script `i % drivers` at a seeded phase offset.
    pub schedule: ScheduleConfig,
    /// Per-direction link model (applied to every agent's data and ack
    /// links, independently seeded).
    pub link: LinkConfig,
    /// Feed the fleet admission signal back to agents (defer on `Shed`,
    /// slow down on `Throttle`). Off for traffic-equivalence runs, where
    /// offered traffic must not depend on controller state.
    pub honor_backpressure: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            agents: 1000,
            session_seconds: 10.0,
            imu_period: 0.25,
            frame_period: 2.0,
            frame_side: 8,
            transmit_period: 1.0,
            drain_grace: 5.0,
            seed: 0xF1EE7,
            schedule: ScheduleConfig::default(),
            link: LinkConfig {
                loss: 0.01,
                faults: FaultConfig {
                    duplicate: 0.005,
                    ..FaultConfig::default()
                },
                ..LinkConfig::default()
            },
            honor_backpressure: true,
        }
    }
}

/// Deterministic summary of one fleet run — the ChaosReport analogue for
/// the load harness. Two runs with the same [`FleetConfig`] and shard
/// configuration produce equal reports, bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Vehicles simulated.
    pub agents: u64,
    /// Shards the controller ran with.
    pub shards: u64,
    /// Sensor readings polled fleet-wide.
    pub readings_polled: u64,
    /// Batches entered into in-flight windows (first transmissions).
    pub batches_flushed: u64,
    /// Batch deliveries offered to the sharded front door (loss and
    /// duplication included).
    pub deliveries: u64,
    /// Offers shed at full shard queues.
    pub queue_shed: u64,
    /// Offers shed by per-shard admission control.
    pub admission_shed: u64,
    /// Duplicate deliveries the controllers discarded.
    pub duplicates: u64,
    /// Distinct batches accepted across shards.
    pub batches_accepted: u64,
    /// Distinct readings ingested across shards.
    pub readings_ingested: u64,
    /// Retransmission attempts fleet-wide.
    pub retransmits: u64,
    /// Batches abandoned after exhausting retries.
    pub abandoned: u64,
    /// Batches retired by acks.
    pub acked: u64,
    /// Flushes deferred by the fleet `Shed` signal.
    pub deferred_flushes: u64,
    /// Flush cycles slowed by the fleet `Throttle` signal.
    pub throttled_flushes: u64,
    /// Most severe admission signal observed at any drain tick.
    pub peak_signal: FleetAdmission,
    /// Peak total queued batches observed at a drain tick.
    pub peak_queue_depth: usize,
    /// High-water mark of any agent's spill buffer.
    pub spill_peak: usize,
    /// Bytes pushed through the wire format (batches + acks, dups and
    /// retransmissions included).
    pub wire_bytes: u64,
    /// Approximate resident bytes of all controller state at the end.
    pub approx_bytes: u64,
    /// `approx_bytes / agents` — the gated memory-per-agent figure.
    pub bytes_per_agent: u64,
    /// Median ack latency, simulated seconds (first flush → ack receipt).
    pub ack_latency_p50: f64,
    /// 99th-percentile ack latency, simulated seconds.
    pub ack_latency_p99: f64,
    /// Worst ack latency, simulated seconds.
    pub ack_latency_max: f64,
    /// Shard-order fold of per-shard controller digests.
    pub state_digest: u64,
    /// Canonical merged TSDB digest (shard-count invariant).
    pub tsdb_digest: u64,
    /// The shards' WAL counters, summed (all 0 without durability).
    pub wal: WalStats,
}

/// The synthetic fleet sensor: behaviour-shaped IMU features at the
/// fleet reporting cadence, with a camera frame replacing the IMU sample
/// whenever the frame period elapses. Cheap enough to run tens of
/// thousands of instances, deterministic per seed, and shaped by the
/// same scripts the single-session sensors follow.
struct FleetSensor {
    script: Arc<Vec<Segment<CanonicalBehavior>>>,
    /// Script span in seconds (behaviour lookups wrap modulo this).
    span: f64,
    /// Per-agent phase offset into the script.
    phase: f64,
    rng: SplitMix64,
    imu_period: f64,
    frame_period: f64,
    frame_side: usize,
    next_frame_t: f64,
}

impl FleetSensor {
    fn behavior(&self, t: f64) -> CanonicalBehavior {
        let local = if self.span > 0.0 {
            (t + self.phase).rem_euclid(self.span)
        } else {
            0.0
        };
        scripted_at(&self.script, local, CanonicalBehavior::NormalDriving)
    }
}

impl Sensor for FleetSensor {
    fn name(&self) -> &str {
        "fleet"
    }

    fn period(&self) -> f64 {
        self.imu_period
    }

    fn sample(&mut self, t: f64) -> SensorReading {
        let bi = self.behavior(t).index() as f32;
        if self.frame_period > 0.0 && t + 1e-9 >= self.next_frame_t {
            while self.next_frame_t <= t + 1e-9 {
                self.next_frame_t += self.frame_period;
            }
            let n = self.frame_side * self.frame_side;
            let base = 0.15 + 0.1 * bi;
            let mut pixels = Vec::with_capacity(n);
            for _ in 0..n {
                pixels.push(base + 0.05 * self.rng.next_f32());
            }
            return SensorReading::Frame(Frame::from_pixels(
                self.frame_side,
                self.frame_side,
                pixels,
            ));
        }
        let mut feats = [0.0f32; ImuSample::FEATURES];
        for (i, f) in feats.iter_mut().enumerate() {
            // A distinct deterministic level per (behaviour, channel),
            // plus sensor noise — enough structure that downstream
            // alignment and TSDB content differ per behaviour.
            *f = (bi * 0.7 + i as f32 * 0.31).sin() + 0.05 * self.rng.normal();
        }
        SensorReading::Imu(ImuSample::from_features(&feats))
    }
}

#[derive(Debug, Clone, Copy)]
enum FleetEventKind {
    /// Sensor poll for one agent.
    Poll(u32),
    /// Scheduled flush for one agent.
    Flush(u32),
    /// Ack-timeout check for one agent.
    Retry(u32),
    /// A batch transmission arriving at the controller (pending id).
    Deliver(u32),
    /// An ack arriving back at an agent.
    DeliverAck { agent: u32, seq: u32 },
    /// Controller drain tick: drain shard queues, send acks, refresh the
    /// fleet pressure rollup.
    Drain,
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted.get(pos).copied().unwrap_or(0.0)
}

/// Runs a fleet load-generation session into a fresh
/// [`ShardedController`] and returns it with the run's report.
///
/// # Errors
///
/// Propagates configuration, spill-bound, and WAL errors.
pub fn run_fleet(
    config: &FleetConfig,
    shard_config: ShardConfig,
) -> Result<(ShardedController, FleetReport)> {
    let mut sharded = ShardedController::new(shard_config)?;
    let report = run_fleet_into(config, &mut sharded)?;
    Ok((sharded, report))
}

/// Runs a fleet load-generation session into an existing sharded
/// controller (e.g. one opened over per-shard WALs). Shards drain on
/// scoped threads ([`ShardedController::drain_parallel`]) when there is
/// more than one, serially otherwise; state and report are identical
/// either way.
///
/// # Errors
///
/// [`crate::CollectError::InvalidConfig`] for an IMU or transmit period
/// that is not finite and positive; propagates spill-bound and WAL errors.
pub fn run_fleet_into(
    config: &FleetConfig,
    sharded: &mut ShardedController,
) -> Result<FleetReport> {
    check_period("imu_period", config.imu_period)?;
    check_period("transmit_period", config.transmit_period)?;
    let mut master_rng = SplitMix64::new(config.seed);
    let schedule = build_schedule(&config.schedule);
    let drivers = config.schedule.drivers.max(1);
    let mut scripts: Vec<Vec<Segment<CanonicalBehavior>>> = vec![Vec::new(); drivers];
    for seg in schedule {
        if let Some(script) = scripts.get_mut(seg.driver) {
            script.push(seg);
        }
    }
    let scripts: Vec<Arc<Vec<Segment<CanonicalBehavior>>>> =
        scripts.into_iter().map(Arc::new).collect();
    let spans: Vec<f64> = scripts
        .iter()
        .map(|s| s.last().map(|seg| seg.end()).unwrap_or(1.0))
        .collect();

    let mut queue = EventQueue::new();
    // One vehicle = one agent with its data and ack links.
    let mut vehicles: Vec<LinkedAgent> = Vec::with_capacity(config.agents);
    for i in 0..config.agents {
        let id = i as u32;
        let driver = i % drivers;
        let mut agent_rng = master_rng.fork();
        let span = spans.get(driver).copied().unwrap_or(1.0);
        let sensor = FleetSensor {
            script: scripts
                .get(driver)
                .cloned()
                .unwrap_or_else(|| Arc::new(Vec::new())),
            span,
            phase: agent_rng.next_f64() * span,
            rng: agent_rng.fork(),
            imu_period: config.imu_period,
            frame_period: config.frame_period,
            frame_side: config.frame_side,
            next_frame_t: if config.frame_period > 0.0 {
                agent_rng.next_f64() * config.frame_period
            } else {
                f64::INFINITY
            },
        };
        // Fleet clocks: small residual drift/offset (no sync protocol in
        // the load generator; per-agent series tolerate the skew).
        let clock = DriftClock::new(
            (agent_rng.next_f64() - 0.5) * 2e-5,
            (agent_rng.next_f64() - 0.5) * 0.02,
        );
        let agent = CollectionAgent::new(id, Box::new(sensor), clock)
            .with_transport(true, agent_rng.next_u64());
        let data_link = Link::new(config.link, agent_rng.next_u64());
        let ack_link = Link::new(config.link, agent_rng.next_u64());
        vehicles.push(LinkedAgent {
            agent,
            data_link,
            ack_link,
        });
        // Spread polls and flushes across the period so the fleet does
        // not thunder in lockstep.
        let poll_jitter = agent_rng.next_f64() * config.imu_period;
        let flush_jitter = agent_rng.next_f64() * config.transmit_period;
        queue.push(poll_jitter, FleetEventKind::Poll(id));
        queue.push(
            config.transmit_period + flush_jitter,
            FleetEventKind::Flush(id),
        );
    }
    queue.push(DRAIN_PERIOD, FleetEventKind::Drain);

    let session_end = config.session_seconds;
    let end_time = session_end + config.transmit_period + config.drain_grace;
    let parallel = sharded.shard_count() > 1;
    let mut pending: Vec<Batch> = Vec::new();
    let mut first_flush: BTreeMap<(u32, u32), f64> = BTreeMap::new();
    let mut latencies: Vec<f64> = Vec::new();
    let mut deliveries = 0u64;
    let mut wire_bytes = 0u64;
    let mut deferred_flushes = 0u64;
    let mut throttled_flushes = 0u64;
    let mut peak_queue_depth = 0usize;
    let mut signal = FleetAdmission::Accept;
    let mut peak_signal = FleetAdmission::Accept;

    while let Some((t, event)) = queue.pop() {
        if t > end_time {
            break;
        }
        match event {
            FleetEventKind::Poll(id) => {
                let Some(v) = vehicles.get_mut(id as usize) else {
                    continue;
                };
                if t <= session_end {
                    v.agent.poll(t)?;
                    queue.push(t + config.imu_period, FleetEventKind::Poll(id));
                }
            }
            FleetEventKind::Flush(id) => {
                let Some(v) = vehicles.get_mut(id as usize) else {
                    continue;
                };
                let mut next_flush = t + config.transmit_period;
                if config.honor_backpressure && signal == FleetAdmission::Shed {
                    // Overload: hold the data locally; the spill buffer
                    // and a later cycle absorb it.
                    v.agent.note_deferred_flush();
                    deferred_flushes += 1;
                } else {
                    if config.honor_backpressure && signal == FleetAdmission::Throttle {
                        // Pressure building: halve this agent's flush
                        // rate for the cycle.
                        throttled_flushes += 1;
                        next_flush = t + 2.0 * config.transmit_period;
                    }
                    let flushed = v.flush(
                        t,
                        &mut pending,
                        &mut queue,
                        FleetEventKind::Deliver,
                        FleetEventKind::Retry(id),
                    );
                    if let Some(batch) = flushed {
                        first_flush.insert((batch.agent_id, batch.seq), t);
                        wire_bytes += encode_batch(batch).len() as u64;
                    }
                }
                if t <= session_end {
                    queue.push(next_flush, FleetEventKind::Flush(id));
                }
            }
            FleetEventKind::Retry(id) => {
                let Some(v) = vehicles.get_mut(id as usize) else {
                    continue;
                };
                let resent = v.retry(
                    t,
                    &mut pending,
                    &mut queue,
                    FleetEventKind::Deliver,
                    FleetEventKind::Retry(id),
                );
                for batch in resent {
                    wire_bytes += encode_batch(batch).len() as u64;
                }
            }
            FleetEventKind::Deliver(id) => {
                let Some(batch) = pending.get(id as usize) else {
                    continue;
                };
                // Round-trip through the wire format, as a real uplink
                // would.
                let decoded = decode_batch(encode_batch(batch))?;
                deliveries += 1;
                // Queued or queue-shed; acks only materialize at drain.
                let _ = sharded.offer_at(t, &decoded);
            }
            FleetEventKind::DeliverAck { agent, seq: acked } => {
                let Some(v) = vehicles.get_mut(agent as usize) else {
                    continue;
                };
                v.agent.handle_ack(acked);
                if let Some(sent) = first_flush.remove(&(agent, acked)) {
                    latencies.push(t - sent);
                }
            }
            FleetEventKind::Drain => {
                peak_queue_depth = peak_queue_depth.max(sharded.queued());
                let acks = if parallel {
                    sharded.drain_parallel()?
                } else {
                    sharded.drain()?
                };
                for shard_ack in acks {
                    let encoded = encode_ack(&shard_ack.ack);
                    wire_bytes += encoded.len() as u64;
                    let ack = decode_ack(encoded)?;
                    let Some(v) = vehicles.get_mut(ack.agent_id as usize) else {
                        continue;
                    };
                    let delivered = FleetEventKind::DeliverAck {
                        agent: ack.agent_id,
                        seq: ack.seq,
                    };
                    v.ack(t, &mut queue, delivered);
                }
                let pressure = sharded.pressure();
                signal = pressure.signal;
                peak_signal = peak_signal.max(signal);
                if t <= end_time - DRAIN_PERIOD {
                    queue.push(t + DRAIN_PERIOD, FleetEventKind::Drain);
                }
            }
        }
    }
    // Final drain: whatever is still queued gets ingested (acks at this
    // point have no one scheduled to carry them; the accounting below
    // reads controller state directly).
    peak_queue_depth = peak_queue_depth.max(sharded.queued());
    if parallel {
        sharded.drain_parallel()?;
    } else {
        sharded.drain()?;
    }

    let mut report = FleetReport {
        agents: config.agents as u64,
        shards: sharded.shard_count() as u64,
        readings_polled: 0,
        batches_flushed: 0,
        deliveries,
        queue_shed: 0,
        admission_shed: 0,
        duplicates: 0,
        batches_accepted: 0,
        readings_ingested: 0,
        retransmits: 0,
        abandoned: 0,
        acked: 0,
        deferred_flushes,
        throttled_flushes,
        peak_signal,
        peak_queue_depth,
        spill_peak: 0,
        wire_bytes,
        approx_bytes: 0,
        bytes_per_agent: 0,
        ack_latency_p50: 0.0,
        ack_latency_p99: 0.0,
        ack_latency_max: 0.0,
        state_digest: 0,
        tsdb_digest: 0,
        wal: sharded.wal_stats(),
    };
    for v in &vehicles {
        let stats = v.agent.transport_stats();
        report.readings_polled += v.agent.poll_count();
        report.batches_flushed += stats.transmitted;
        report.retransmits += stats.retransmits;
        report.abandoned += stats.abandoned;
        report.acked += stats.acked;
        report.spill_peak = report.spill_peak.max(v.agent.spill_stats().peak_buffered);
    }
    let pressure = sharded.pressure();
    for shard in &pressure.shards {
        report.queue_shed += shard.queue_shed;
        report.admission_shed += shard.admission_shed;
    }
    for health in sharded.stream_healths() {
        report.duplicates += health.duplicates;
    }
    let (batches, readings) = sharded.ingest_stats();
    report.batches_accepted = batches;
    report.readings_ingested = readings;
    report.approx_bytes = sharded.approx_bytes();
    report.bytes_per_agent = report.approx_bytes / config.agents.max(1) as u64;
    latencies.sort_by(|a, b| a.total_cmp(b));
    report.ack_latency_p50 = percentile(&latencies, 0.50);
    report.ack_latency_p99 = percentile(&latencies, 0.99);
    report.ack_latency_max = latencies.last().copied().unwrap_or(0.0);
    report.state_digest = sharded.state_digest();
    report.tsdb_digest = sharded.tsdb_digest();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CollectError, ControllerConfig};

    fn small_config() -> FleetConfig {
        FleetConfig {
            agents: 60,
            session_seconds: 6.0,
            ..FleetConfig::default()
        }
    }

    fn fleet_shards(shards: usize) -> ShardConfig {
        ShardConfig {
            shards,
            controller: ControllerConfig {
                per_agent_series: true,
                ..ControllerConfig::default()
            },
            ..ShardConfig::default()
        }
    }

    /// A period of zero, below zero or not finite is refused; at zero or
    /// below the loop would re-push its poll or flush at the same time
    /// forever.
    #[test]
    fn fleet_rejects_a_period_that_never_advances_time() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            for config in [
                FleetConfig {
                    imu_period: bad,
                    ..small_config()
                },
                FleetConfig {
                    transmit_period: bad,
                    ..small_config()
                },
            ] {
                let got = run_fleet(&config, fleet_shards(1));
                assert!(
                    matches!(got, Err(CollectError::InvalidConfig(_))),
                    "{bad}: {:?}",
                    got.map(|(_, report)| report.readings_polled)
                );
            }
        }
    }

    #[test]
    fn fleet_run_is_deterministic() {
        let config = small_config();
        let (_, a) = run_fleet(&config, fleet_shards(4)).unwrap();
        let (_, b) = run_fleet(&config, fleet_shards(4)).unwrap();
        assert_eq!(a, b);
        assert!(a.readings_polled > 0);
        assert!(a.batches_accepted > 0);
        assert!(a.acked > 0);
        assert!(a.ack_latency_p99 >= a.ack_latency_p50);
        assert!(a.bytes_per_agent > 0);
        // A different seed produces different traffic.
        let (_, c) = run_fleet(
            &FleetConfig {
                seed: 0xDEAD,
                ..config
            },
            fleet_shards(4),
        )
        .unwrap();
        assert_ne!(a.tsdb_digest, c.tsdb_digest);
    }

    #[test]
    fn sharded_tsdb_matches_single_controller_on_identical_traffic() {
        // Feedback off so the offered traffic cannot depend on shard
        // count; the single-shard run's controller IS a single
        // controller processing in offer order.
        let config = FleetConfig {
            honor_backpressure: false,
            ..small_config()
        };
        let (single, single_report) = run_fleet(&config, fleet_shards(1)).unwrap();
        let (sharded, sharded_report) = run_fleet(&config, fleet_shards(8)).unwrap();
        let single_controller = single.shard_controller(0).unwrap();
        assert_eq!(
            sharded.tsdb_digest(),
            single_controller.tsdb().canonical_fingerprint()
        );
        assert_eq!(sharded_report.tsdb_digest, single_report.tsdb_digest);
        assert_eq!(
            sharded_report.readings_ingested,
            single_report.readings_ingested
        );
    }

    #[test]
    fn backpressure_engages_under_tiny_queues() {
        let config = small_config();
        let squeezed = ShardConfig {
            queue_limit: 2,
            ..fleet_shards(2)
        };
        let (_, report) = run_fleet(&config, squeezed).unwrap();
        assert_eq!(report.peak_signal, FleetAdmission::Shed);
        assert!(report.queue_shed > 0);
        assert!(report.deferred_flushes > 0, "agents must honor the signal");
    }

    #[test]
    fn traffic_mixes_imu_and_frames() {
        let (sharded, report) = run_fleet(&small_config(), fleet_shards(2)).unwrap();
        assert!(report.readings_ingested > 0);
        // Per-agent series exist for both modalities.
        let metrics = (0..sharded.shard_count())
            .filter_map(|i| sharded.shard_controller(i))
            .flat_map(|c| c.tsdb().metrics())
            .collect::<Vec<_>>();
        assert!(metrics.iter().any(|m| m.starts_with("imu.")));
        assert!(metrics.iter().any(|m| m.starts_with("camera.")));
    }
}
