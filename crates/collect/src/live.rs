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
use crate::controller::{Controller, ControllerConfig, IngestOutcome};
use crate::network::{Link, LinkConfig, LinkStats};
use crate::sensor::{canonical_script, CameraView, ScriptedSensor, Sensor};
use crate::shard::{ShardConfig, ShardedController};
use crate::wal::{self, RecoveryReport, Wal, WalConfig, WalStorage};
use crate::wire::{decode_batch, encode_batch};
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
/// invoked from a scoped worker inside [`run_live_inner`] (the project's
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

fn run_live_inner(
    world: &Arc<DrivingWorld>,
    driver: usize,
    segments: &[Segment<Behavior>],
    duration: f64,
    controller_config: ControllerConfig,
    faults: Option<(LinkConfig, RetransmitConfig, u64)>,
    durable: Option<(Arc<dyn WalStorage>, WalConfig)>,
) -> Result<LiveRunReport> {
    let script = canonical_script(segments, driver);
    let (tx, rx) = bounded::<Vec<u8>>(64);

    // Open the durable controller (replaying any prior incarnation's WAL)
    // before the agent threads start streaming.
    let (mut controller, mut wal): (Controller, Option<Wal>) = match durable {
        Some((storage, wal_config)) => {
            let (c, w, _) = wal::open(controller_config, storage, wal_config)?;
            (c, Some(w))
        }
        None => (Controller::new(controller_config), None),
    };

    let make_faulty = |agent_id: u64| {
        faults.map(|(link, retransmit, seed)| FaultySend {
            link: Link::new(link, seed ^ agent_id.wrapping_mul(0x9E37_79B9)),
            retransmit,
            stats: TransportStats::default(),
        })
    };

    // Scoped threads: the controller ingests on this thread while both
    // agents stream from workers that provably terminate before the scope
    // (and thus this function) returns. If the ingest loop aborts early on
    // a decode error, dropping `rx` makes the workers' sends fail and they
    // exit — the scope cannot deadlock.
    let tx_imu = tx.clone();
    let script_imu = script.clone();
    let faulty_imu = make_faulty(0);
    let faulty_cam = make_faulty(1);
    thread::scope(|scope| {
        let imu_handle = scope.spawn(move || {
            run_agent(
                0,
                Box::new(ScriptedSensor::imu(
                    Arc::clone(world),
                    driver,
                    script_imu,
                    0.025,
                )),
                DriftClock::new(50e-6, 0.01),
                duration,
                0.5,
                faulty_imu,
                tx_imu,
            )
        });
        let cam_handle = scope.spawn(move || {
            run_agent(
                1,
                Box::new(ScriptedSensor::camera(
                    Arc::clone(world),
                    driver,
                    script,
                    0.25,
                    CameraView::Front,
                )),
                DriftClock::new(1e-6, 0.0),
                duration,
                0.5,
                faulty_cam,
                tx,
            )
        });

        let mut bytes_transferred = 0usize;
        let mut batches = 0usize;
        for encoded in rx {
            bytes_transferred += encoded.len();
            batches += 1;
            let batch = decode_batch(bytes::Bytes::from(encoded))?;
            // Live mode's arrival time base is the batch's own newest
            // stamp (matching `Controller::ingest`); the durable path
            // appends to the WAL before mutating state.
            let arrival = batch
                .readings
                .last()
                .map(|r| r.timestamp)
                .unwrap_or_default();
            let outcome = controller.offer_at(arrival, &batch, wal.as_mut())?;
            if outcome != IngestOutcome::Shed {
                if let Some(w) = wal.as_mut() {
                    if w.needs_snapshot() {
                        w.snapshot(&controller)?;
                    }
                }
            }
        }
        let imu_transport = imu_handle
            .join()
            .map_err(|_| CollectError::InvalidConfig("imu agent thread panicked".into()))?;
        let cam_transport = cam_handle
            .join()
            .map_err(|_| CollectError::InvalidConfig("camera agent thread panicked".into()))?;

        Ok(LiveRunReport {
            controller,
            bytes_transferred,
            batches,
            transports: [imu_transport, cam_transport]
                .into_iter()
                .flatten()
                .collect(),
        })
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
    run_live_inner(
        world,
        driver,
        segments,
        duration,
        controller_config,
        None,
        None,
    )
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
    // Probe the replay separately so the caller sees what recovery did
    // (run_live_inner then re-opens; replay is idempotent and cheap at
    // live-session scale).
    let mut probe = Controller::new(controller_config);
    let report = wal::replay_into(&mut probe, storage.as_ref())?;
    drop(probe);
    run_live_inner(
        world,
        driver,
        segments,
        duration,
        controller_config,
        None,
        Some((storage, wal_config)),
    )
    .map(|live| (live, report))
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
    run_live_inner(
        world,
        driver,
        segments,
        duration,
        controller_config,
        Some((link, retransmit, seed)),
        None,
    )
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
    let (tx, rx) = bounded::<Vec<u8>>(64);
    thread::scope(|scope| {
        let mut handles = Vec::with_capacity(drivers.len() * 2);
        for &driver in drivers {
            let script = canonical_script(segments, driver);
            let imu_id = (driver as u32) * 2;
            let tx_imu = tx.clone();
            let tx_cam = tx.clone();
            let script_cam = script.clone();
            let world_imu = Arc::clone(world);
            let world_cam = Arc::clone(world);
            handles.push(scope.spawn(move || {
                run_agent(
                    imu_id,
                    Box::new(ScriptedSensor::imu(world_imu, driver, script, 0.025)),
                    DriftClock::new(50e-6, 0.01),
                    duration,
                    0.5,
                    None,
                    tx_imu,
                )
            }));
            handles.push(scope.spawn(move || {
                run_agent(
                    imu_id + 1,
                    Box::new(ScriptedSensor::camera(
                        world_cam,
                        driver,
                        script_cam,
                        0.25,
                        CameraView::Front,
                    )),
                    DriftClock::new(1e-6, 0.0),
                    duration,
                    0.5,
                    None,
                    tx_cam,
                )
            }));
        }
        // The spawning thread's clone of `tx` must drop, or `rx` never
        // closes and the ingest loop below spins forever.
        drop(tx);

        let mut bytes_transferred = 0usize;
        let mut batches = 0usize;
        for encoded in rx {
            bytes_transferred += encoded.len();
            batches += 1;
            let batch = decode_batch(bytes::Bytes::from(encoded))?;
            let arrival = batch
                .readings
                .last()
                .map(|r| r.timestamp)
                .unwrap_or_default();
            // Queue-shed offers are fine here: the channel is reliable, so
            // a shed batch simply surfaces as a controller-side gap, the
            // same contract as a lossy link.
            let _ = sharded.offer_at(arrival, &batch);
            // Drain opportunistically so queues stay shallow (acks are
            // meaningless over a reliable channel and are dropped).
            if batches.is_multiple_of(64) {
                sharded.drain()?;
            }
        }
        sharded.drain()?;
        for handle in handles {
            handle
                .join()
                .map_err(|_| CollectError::InvalidConfig("agent thread panicked".into()))?;
        }
        Ok(LiveFleetReport {
            sharded,
            bytes_transferred,
            batches,
        })
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
