//! Live (threaded) collection mode: agents on real OS threads (scoped —
//! see DESIGN.md §11, scoped-threads-only) stream encoded batches to the
//! controller over crossbeam channels — the shape of the paper's deployed
//! system, useful for the example binaries and for validating that the
//! pipeline is `Send`-clean under real concurrency.
//!
//! The faulty variant ([`run_live_session_faulty`]) puts a seeded [`Link`]
//! in front of each agent's channel: a transmission the link drops is
//! immediately retried (the channel itself is reliable, so a successful
//! link draw doubles as the ack), duplicated transmissions are sent twice
//! and deduplicated by the controller's sequence tracking.

use std::sync::Arc;
use std::thread;

use crossbeam::channel::{bounded, Sender};
use darnet_sim::{Behavior, DrivingWorld, Segment};

use crate::agent::{AgentConfig, CollectionAgent, RetransmitConfig, TransportStats};
use crate::clock::DriftClock;
use crate::controller::{Controller, ControllerConfig};
use crate::network::{Link, LinkConfig, LinkStats};
use crate::sensor::{canonical_script, CameraView, ScriptedSensor, Sensor};
use crate::shard::{Door, ShardConfig, ShardedController};
use crate::wal::{RecoveryReport, WalConfig, WalStorage};
use crate::wire::{decode_batch, encode_batch, Batch};
use crate::{CollectError, Result};

/// Output of a live run.
#[derive(Debug)]
pub struct LiveRunReport {
    /// The controller after ingesting every batch.
    pub controller: Controller,
    /// Total encoded bytes that crossed the channel (bandwidth proxy).
    pub bytes_transferred: usize,
    /// Number of batches delivered (duplicates included).
    pub batches: usize,
    /// Per-agent `(transport, link)` counters, indexed by agent id, when
    /// the faulty mode ran. Empty for the plain reliable-channel mode.
    pub transports: Vec<(TransportStats, LinkStats)>,
}

struct FaultySend {
    link: Link,
    retransmit: RetransmitConfig,
    stats: TransportStats,
}

impl FaultySend {
    /// Pushes one encoded batch through the faulty link into the channel.
    /// A drop is retried immediately (virtual time, real channel): with the
    /// channel reliable, "the link let it through" is the ack.
    fn send(&mut self, t: f64, encoded: &[u8], tx: &Sender<Vec<u8>>) -> bool {
        self.stats.transmitted += 1;
        let mut attempts = 0u32;
        loop {
            let arrivals = self.link.transmit_all(t);
            if !arrivals.is_empty() {
                self.stats.acked += 1;
                for _ in arrivals {
                    if tx.send(encoded.to_vec()).is_err() {
                        return false; // controller hung up
                    }
                }
                return true;
            }
            if !self.retransmit.enabled || attempts >= self.retransmit.max_retries {
                self.stats.abandoned += 1;
                return true; // dropped: becomes a controller-side gap
            }
            attempts += 1;
            self.stats.retransmits += 1;
        }
    }
}

/// Drives one collection agent to completion on the calling thread —
/// invoked from a scoped worker inside [`run_live`] (the project's
/// scoped-threads-only invariant: no detached `thread::spawn`, workers
/// cannot outlive the session).
fn run_agent(
    agent_id: u32,
    sensor: Box<dyn Sensor>,
    clock: DriftClock,
    duration: f64,
    transmit_period: f64,
    mut faulty: Option<FaultySend>,
    tx: Sender<Vec<u8>>,
) -> Option<(TransportStats, LinkStats)> {
    let poll_period = sensor.period();
    let mut agent = CollectionAgent::new(
        agent_id,
        sensor,
        clock,
        AgentConfig {
            poll_period,
            transmit_period,
            ..AgentConfig::default()
        },
    );
    let deliver = |t: f64, encoded: &[u8], faulty: &mut Option<FaultySend>| match faulty {
        Some(f) => f.send(t, encoded, &tx),
        None => tx.send(encoded.to_vec()).is_ok(),
    };
    let mut t = 0.0f64;
    let mut next_flush = transmit_period;
    while t <= duration {
        if agent.poll(t).is_err() {
            // Spill bound hit in strict mode: the agent gives up polling
            // but still drains what it holds (channel flushes below keep
            // the buffer far from the default bound in practice).
            break;
        }
        if t >= next_flush {
            if let Some(batch) = agent.flush() {
                let encoded = encode_batch(&batch);
                if !deliver(t, &encoded, &mut faulty) {
                    return faulty.map(|f| (f.stats, f.link.link_stats()));
                }
            }
            next_flush += transmit_period;
        }
        t += poll_period;
    }
    if let Some(batch) = agent.flush() {
        let _ = deliver(t, &encode_batch(&batch), &mut faulty);
    }
    faulty.map(|f| (f.stats, f.link.link_stats()))
}

/// Channel-level accounting of one live run.
struct LiveTraffic {
    bytes_transferred: usize,
    batches: usize,
    /// Per faulty agent, in spawn order; empty over reliable channels.
    transports: Vec<(TransportStats, LinkStats)>,
}

/// The live runtime every `run_live_session*` fronts: for each
/// `(driver, imu_agent_id)` an IMU agent and a front-camera agent
/// (`imu_agent_id + 1`) on scoped threads, all streaming encoded batches
/// over one channel into `ingest` on the calling thread, which sees each
/// decoded batch with its arrival time — the batch's own newest stamp,
/// live mode's arrival time base.
fn run_live(
    world: &Arc<DrivingWorld>,
    segments: &[Segment<Behavior>],
    duration: f64,
    agents: &[(usize, u32)],
    faults: Option<(LinkConfig, RetransmitConfig, u64)>,
    mut ingest: impl FnMut(f64, &Batch) -> Result<()>,
) -> Result<LiveTraffic> {
    let (tx, rx) = bounded::<Vec<u8>>(64);
    // Scoped threads: ingest runs on this thread while the agents stream
    // from workers that provably terminate before the scope (and thus
    // this function) returns. If the ingest loop aborts early on an
    // error, dropping `rx` makes the workers' sends fail and they exit —
    // the scope cannot deadlock.
    thread::scope(|scope| {
        let mut handles = Vec::with_capacity(agents.len() * 2);
        for &(driver, imu_id) in agents {
            let script = canonical_script(segments, driver);
            for (agent_id, camera) in [(imu_id, false), (imu_id + 1, true)] {
                let (world, script, tx) = (Arc::clone(world), script.clone(), tx.clone());
                let faulty = faults.map(|(link, retransmit, seed)| FaultySend {
                    link: Link::new(link, seed ^ u64::from(agent_id).wrapping_mul(0x9E37_79B9)),
                    retransmit,
                    stats: TransportStats::default(),
                });
                handles.push(scope.spawn(move || {
                    let (sensor, clock) = if camera {
                        (
                            ScriptedSensor::camera(world, driver, script, 0.25, CameraView::Front),
                            DriftClock::new(1e-6, 0.0),
                        )
                    } else {
                        (
                            ScriptedSensor::imu(world, driver, script, 0.025),
                            DriftClock::new(50e-6, 0.01),
                        )
                    };
                    run_agent(agent_id, Box::new(sensor), clock, duration, 0.5, faulty, tx)
                }));
            }
        }
        // The spawning thread's clone of `tx` must drop, or `rx` never
        // closes and the ingest loop below spins forever.
        drop(tx);

        let mut traffic = LiveTraffic {
            bytes_transferred: 0,
            batches: 0,
            transports: Vec::new(),
        };
        for encoded in rx {
            traffic.bytes_transferred += encoded.len();
            traffic.batches += 1;
            let batch = decode_batch(bytes::Bytes::from(encoded))?;
            let arrival = batch
                .readings
                .last()
                .map(|r| r.timestamp)
                .unwrap_or_default();
            ingest(arrival, &batch)?;
        }
        for handle in handles {
            let transport = handle
                .join()
                .map_err(|_| CollectError::InvalidConfig("agent thread panicked".into()))?;
            traffic.transports.extend(transport);
        }
        Ok(traffic)
    })
}

/// The single-controller front-end: one driver's two agents into one
/// [`Door`], which the caller opened (replaying any prior incarnation's
/// WAL) before the agent threads start streaming.
fn run_live_single(
    world: &Arc<DrivingWorld>,
    driver: usize,
    segments: &[Segment<Behavior>],
    duration: f64,
    mut door: Door,
    faults: Option<(LinkConfig, RetransmitConfig, u64)>,
) -> Result<LiveRunReport> {
    // Acks are meaningless over a reliable channel and are dropped.
    let ingest = |arrival: f64, batch: &Batch| door.offer(arrival, batch).map(drop);
    let traffic = run_live(world, segments, duration, &[(driver, 0)], faults, ingest)?;
    Ok(LiveRunReport {
        controller: door.into_controller(),
        bytes_transferred: traffic.bytes_transferred,
        batches: traffic.batches,
        transports: traffic.transports,
    })
}

/// Runs a two-agent (camera + IMU) session on real threads over channels,
/// simulating `duration` seconds of virtual time as fast as possible.
///
/// # Errors
///
/// Returns a decode error if a batch is corrupted in transit (which would
/// indicate a bug — the channel is reliable).
pub fn run_live_session(
    world: &Arc<DrivingWorld>,
    driver: usize,
    segments: &[Segment<Behavior>],
    duration: f64,
    controller_config: ControllerConfig,
) -> Result<LiveRunReport> {
    let door = Door::new(controller_config);
    run_live_single(world, driver, segments, duration, door, None)
}

/// Like [`run_live_session`], but every accepted batch is appended to a
/// write-ahead log in `storage` before it mutates controller state, and
/// any state a previous session left in `storage` is replayed on open —
/// kill the process mid-run and the next call resumes from the durable
/// state. The replay accounting is returned alongside the report.
///
/// # Errors
///
/// Everything [`run_live_session`] returns, plus
/// [`crate::CollectError::Wal`] / [`crate::CollectError::Recovery`] from
/// the durability layer.
pub fn run_live_session_durable(
    world: &Arc<DrivingWorld>,
    driver: usize,
    segments: &[Segment<Behavior>],
    duration: f64,
    controller_config: ControllerConfig,
    storage: Arc<dyn WalStorage>,
    wal_config: WalConfig,
) -> Result<(LiveRunReport, RecoveryReport)> {
    let (door, recovery) = Door::open(controller_config, Some(storage), wal_config)?;
    let live = run_live_single(world, driver, segments, duration, door, None)?;
    Ok((live, recovery))
}

/// Like [`run_live_session`], but every agent sends through a seeded faulty
/// [`Link`]: drops are retried up to the retransmit budget (then surface as
/// controller-side gaps), duplicated transmissions really are sent twice.
///
/// # Errors
///
/// Returns a decode error if a batch is corrupted in transit.
#[allow(clippy::too_many_arguments)] // the session args plus the three fault knobs
pub fn run_live_session_faulty(
    world: &Arc<DrivingWorld>,
    driver: usize,
    segments: &[Segment<Behavior>],
    duration: f64,
    controller_config: ControllerConfig,
    link: LinkConfig,
    retransmit: RetransmitConfig,
    seed: u64,
) -> Result<LiveRunReport> {
    let door = Door::new(controller_config);
    let faults = Some((link, retransmit, seed));
    run_live_single(world, driver, segments, duration, door, faults)
}

/// Output of a sharded live run: the fleet front door after ingesting
/// every stream, plus channel-level accounting.
#[derive(Debug)]
pub struct LiveFleetReport {
    /// The sharded controller after the final drain.
    pub sharded: ShardedController,
    /// Total encoded bytes that crossed the channel.
    pub bytes_transferred: usize,
    /// Batches delivered over the channel.
    pub batches: usize,
}

/// Runs a multi-driver session on real threads — two agents (IMU +
/// camera) per driver, all streaming over one channel into a
/// [`ShardedController`] that is drained as traffic arrives. The live
/// analogue of the event-driven fleet load generator: agent `2*d` is
/// driver `d`'s IMU, `2*d + 1` its camera, and the hash partition routes
/// both to whatever shards own them.
///
/// # Errors
///
/// Returns a decode error if a batch is corrupted in transit, and
/// propagates shard-drain errors.
pub fn run_live_session_sharded(
    world: &Arc<DrivingWorld>,
    drivers: &[usize],
    segments: &[Segment<Behavior>],
    duration: f64,
    shard_config: ShardConfig,
) -> Result<LiveFleetReport> {
    let mut sharded = ShardedController::new(shard_config)?;
    let agents: Vec<(usize, u32)> = drivers.iter().map(|&d| (d, d as u32 * 2)).collect();
    let mut undrained = 0usize;
    let traffic = run_live(
        world,
        segments,
        duration,
        &agents,
        None,
        |arrival, batch| {
            // Queue-shed offers are fine here: the channel is reliable, so
            // a shed batch simply surfaces as a controller-side gap, the
            // same contract as a lossy link.
            let _ = sharded.offer_at(arrival, batch);
            // Drain opportunistically so queues stay shallow (acks are
            // meaningless over a reliable channel and are dropped).
            undrained += 1;
            if undrained == 64 {
                undrained = 0;
                sharded.drain()?;
            }
            Ok(())
        },
    )?;
    sharded.drain()?;
    Ok(LiveFleetReport {
        sharded,
        bytes_transferred: traffic.bytes_transferred,
        batches: traffic.batches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::FaultConfig;
    use darnet_sim::WorldConfig;

    #[test]
    fn live_session_collects_both_modalities() {
        let world = Arc::new(DrivingWorld::new(WorldConfig::default()));
        let segments = vec![Segment {
            driver: 0,
            behavior: Behavior::Talking,
            start: 0.0,
            duration: 4.0,
        }];
        let report =
            run_live_session(&world, 0, &segments, 4.0, ControllerConfig::default()).unwrap();
        assert!(report.batches > 0);
        assert!(report.bytes_transferred > 1000);
        assert!(report.transports.is_empty());
        let (b, r) = report.controller.ingest_stats();
        assert!(b > 0 && r > 0);
        // Both modalities arrived.
        assert!(report.controller.imu_observation_count() > 100);
        assert!(!report.controller.frames_sorted().is_empty());
        // And the stream aligns.
        let aligned = report.controller.aligned_imu().unwrap();
        assert!(aligned.len() > 10);
    }

    #[test]
    fn live_matches_event_driven_grid_density() {
        let world = Arc::new(DrivingWorld::new(WorldConfig::default()));
        let segments = vec![Segment {
            driver: 0,
            behavior: Behavior::Texting,
            start: 0.0,
            duration: 3.0,
        }];
        let report =
            run_live_session(&world, 0, &segments, 3.0, ControllerConfig::default()).unwrap();
        let aligned = report.controller.aligned_imu().unwrap();
        // 3 s at 4 Hz ≈ 13 points (inclusive grid, small edge effects).
        assert!((10..=14).contains(&aligned.len()), "{}", aligned.len());
    }

    #[test]
    fn sharded_live_session_collects_every_driver() {
        let world = Arc::new(DrivingWorld::new(WorldConfig::default()));
        let segments = vec![
            Segment {
                driver: 0,
                behavior: Behavior::Talking,
                start: 0.0,
                duration: 3.0,
            },
            Segment {
                driver: 1,
                behavior: Behavior::Texting,
                start: 0.0,
                duration: 3.0,
            },
        ];
        let report = run_live_session_sharded(
            &world,
            &[0, 1],
            &segments,
            3.0,
            ShardConfig {
                shards: 3,
                ..ShardConfig::default()
            },
        )
        .unwrap();
        assert!(report.batches > 0);
        assert!(report.bytes_transferred > 1000);
        assert_eq!(report.sharded.queued(), 0, "final drain empties queues");
        // All four agents (2 drivers × IMU + camera) reached a shard.
        let healths = report.sharded.stream_healths();
        assert_eq!(healths.len(), 4);
        for h in &healths {
            assert!(h.delivered > 0, "agent {} silent", h.agent_id);
        }
        let (b, r) = report.sharded.ingest_stats();
        assert!(b > 0 && r > 0);
        assert_ne!(report.sharded.tsdb_digest(), 0);
    }

    #[test]
    fn durable_live_session_resumes_from_the_log() {
        use crate::wal::MemStorage;
        let world = Arc::new(DrivingWorld::new(WorldConfig::default()));
        let segments = vec![Segment {
            driver: 0,
            behavior: Behavior::Talking,
            start: 0.0,
            duration: 3.0,
        }];
        let config = ControllerConfig::default();
        let storage = Arc::new(MemStorage::new());
        let run = || {
            let store = Arc::clone(&storage) as Arc<dyn WalStorage>;
            run_live_session_durable(
                &world,
                0,
                &segments,
                3.0,
                config,
                store,
                WalConfig::default(),
            )
            .unwrap()
        };
        let (first, fresh) = run();
        assert_eq!(
            fresh,
            RecoveryReport::default(),
            "empty store: nothing to replay"
        );
        let logged = storage.total_bytes();
        assert!(logged > 0);

        // The next incarnation replays the log once — the report is the
        // open's own — and the re-sent session is all duplicates: nothing
        // is logged twice and the state is the uninterrupted run's.
        let (second, recovery) = run();
        assert_eq!(recovery.records_replayed, first.controller.ingest_stats().0);
        assert_eq!(recovery.duplicates_skipped, 0);
        assert_eq!(storage.total_bytes(), logged);
        let uninterrupted = run_live_session(&world, 0, &segments, 3.0, config).unwrap();
        assert_eq!(
            second.controller.state_digest(),
            uninterrupted.controller.state_digest()
        );
        assert_eq!(
            second.controller.ingest_stats(),
            first.controller.ingest_stats()
        );
    }

    #[test]
    fn faulty_live_session_recovers_losses_and_dedupes() {
        let world = Arc::new(DrivingWorld::new(WorldConfig::default()));
        let segments = vec![Segment {
            driver: 0,
            behavior: Behavior::Texting,
            start: 0.0,
            duration: 4.0,
        }];
        let link = LinkConfig {
            loss: 0.3,
            faults: FaultConfig {
                duplicate: 0.3,
                ..FaultConfig::default()
            },
            ..LinkConfig::default()
        };
        let report = run_live_session_faulty(
            &world,
            0,
            &segments,
            4.0,
            ControllerConfig::default(),
            link,
            RetransmitConfig::default(),
            0xFA11,
        )
        .unwrap();
        assert_eq!(report.transports.len(), 2);
        let retransmits: u64 = report.transports.iter().map(|(t, _)| t.retransmits).sum();
        assert!(retransmits > 0, "30% loss should force retries");
        for (t, _) in &report.transports {
            assert_eq!(t.abandoned, 0, "retry budget should cover 30% loss");
        }
        // Every stream is gap-free after retries, duplicates discarded.
        for h in report.controller.stream_healths() {
            assert_eq!(h.gaps, 0, "agent {} had gaps", h.agent_id);
        }
        let clean =
            run_live_session(&world, 0, &segments, 4.0, ControllerConfig::default()).unwrap();
        assert_eq!(
            report.controller.ingest_stats().1,
            clean.controller.ingest_stats().1,
            "faulty run must ingest exactly the clean run's readings"
        );
    }
}
