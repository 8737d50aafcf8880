//! Live (threaded) collection mode: agents on real OS threads (scoped —
//! see DESIGN.md §11, scoped-threads-only) stream encoded batches to the
//! controller over one bounded `std::sync::mpsc` channel — the shape of
//! the paper's deployed system, useful for the example binaries and for
//! validating that the pipeline is `Send`-clean under real concurrency.

use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::thread;

use bytes::Bytes;
use darnet_sim::schedule::CAMERA_PERIOD;
use darnet_sim::{CanonicalBehavior, DrivingWorld, Segment};

use crate::agent::{AgentConfig, CollectionAgent};
use crate::clock::DriftClock;
use crate::sensor::{driver_script, CameraView, ScriptedSensor, Sensor};
use crate::shard::Door;
use crate::{decode_batch, encode_batch, CollectError, Controller, ControllerConfig, Result};

/// Output of a live run.
#[derive(Debug)]
pub struct LiveRunReport {
    /// The controller after ingesting every batch.
    pub controller: Controller,
    /// Total encoded bytes that crossed the channel (bandwidth proxy).
    pub bytes_transferred: usize,
    /// Number of batches delivered.
    pub batches: usize,
}

/// Drives one collection agent to completion on the calling thread —
/// invoked from a scoped worker inside [`run_live_session`] (the project's
/// scoped-threads-only invariant: no detached `thread::spawn`, workers
/// cannot outlive the session).
fn run_agent(
    agent_id: u32,
    sensor: Box<dyn Sensor>,
    clock: DriftClock,
    duration: f64,
    transmit_period: f64,
    tx: SyncSender<Bytes>,
) {
    let poll_period = sensor.period();
    let mut agent = CollectionAgent::new(
        agent_id,
        sensor,
        clock,
        AgentConfig {
            poll_period,
            transmit_period,
        },
    );
    let mut t = 0.0f64;
    let mut next_flush = transmit_period;
    while t <= duration {
        if agent.poll(t).is_err() {
            // Spill bound hit: the agent gives up polling but still
            // drains what it holds (channel flushes below keep the buffer
            // far from the bound in practice).
            break;
        }
        if t >= next_flush {
            if let Some(batch) = agent.flush() {
                if tx.send(encode_batch(&batch)).is_err() {
                    return; // controller hung up
                }
            }
            next_flush += transmit_period;
        }
        t += poll_period;
    }
    if let Some(batch) = agent.flush() {
        let _ = tx.send(encode_batch(&batch));
    }
}

/// Runs a two-agent (camera + IMU) session on real threads over channels,
/// simulating `duration` seconds of virtual time as fast as possible: an
/// IMU agent (id 0) and a front-camera agent (id 1) on scoped threads
/// stream encoded batches over one channel into a [`Door`] on the calling
/// thread, which sees each decoded batch with its arrival time — the
/// batch's own newest stamp, live mode's arrival time base.
///
/// # Errors
///
/// Returns a decode error if a batch is corrupted in transit (which would
/// indicate a bug — the channel is reliable).
pub fn run_live_session(
    world: &Arc<DrivingWorld>,
    driver: usize,
    segments: &[Segment<CanonicalBehavior>],
    duration: f64,
    controller_config: ControllerConfig,
) -> Result<LiveRunReport> {
    let mut door = Door::new(controller_config);
    let (tx, rx) = sync_channel::<Bytes>(64);
    let script = driver_script(segments, driver);
    // Scoped threads: ingest runs on this thread while the agents stream
    // from workers that provably terminate before the scope (and thus
    // this function) returns. If the ingest loop aborts early on an
    // error, dropping `rx` makes the workers' sends fail and they exit —
    // the scope cannot deadlock.
    let (bytes_transferred, batches) = thread::scope(|scope| {
        let mut handles = Vec::with_capacity(2);
        for (agent_id, camera) in [(0, false), (1, true)] {
            let (world, script, tx) = (Arc::clone(world), script.clone(), tx.clone());
            handles.push(scope.spawn(move || {
                let (sensor, clock) = if camera {
                    (
                        ScriptedSensor::camera(
                            world,
                            driver,
                            script,
                            CAMERA_PERIOD,
                            CameraView::Front,
                        ),
                        DriftClock::new(1e-6, 0.0),
                    )
                } else {
                    (
                        ScriptedSensor::imu(world, driver, script, 0.025),
                        DriftClock::new(50e-6, 0.01),
                    )
                };
                run_agent(agent_id, Box::new(sensor), clock, duration, 0.5, tx)
            }));
        }
        // The spawning thread's clone of `tx` must drop, or `rx` never
        // closes and the ingest loop below spins forever.
        drop(tx);

        let (mut bytes, mut batches) = (0usize, 0usize);
        for encoded in rx {
            bytes += encoded.len();
            batches += 1;
            let batch = decode_batch(encoded)?;
            let arrival = batch
                .readings
                .last()
                .map(|r| r.timestamp)
                .unwrap_or_default();
            // Acks are meaningless over a reliable channel and are dropped.
            door.offer(arrival, &batch)?;
        }
        for handle in handles {
            handle
                .join()
                .map_err(|_| CollectError::InvalidConfig("agent thread panicked".into()))?;
        }
        Ok::<_, CollectError>((bytes, batches))
    })?;
    Ok(LiveRunReport {
        controller: door.into_controller(),
        bytes_transferred,
        batches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use darnet_sim::WorldConfig;

    #[test]
    fn live_session_collects_both_modalities() {
        let world = Arc::new(DrivingWorld::new(WorldConfig::default()));
        let segments = vec![Segment {
            driver: 0,
            behavior: CanonicalBehavior::Talking,
            start: 0.0,
            duration: 4.0,
        }];
        let report =
            run_live_session(&world, 0, &segments, 4.0, ControllerConfig::default()).unwrap();
        assert!(report.batches > 0);
        assert!(report.bytes_transferred > 1000);
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
            behavior: CanonicalBehavior::Texting,
            start: 0.0,
            duration: 3.0,
        }];
        let report =
            run_live_session(&world, 0, &segments, 3.0, ControllerConfig::default()).unwrap();
        let aligned = report.controller.aligned_imu().unwrap();
        // 3 s at 4 Hz ≈ 13 points (inclusive grid, small edge effects).
        assert!((10..=14).contains(&aligned.len()), "{}", aligned.len());
    }
}
