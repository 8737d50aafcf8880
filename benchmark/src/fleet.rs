//! The fleet closed loop: thousands of single-agent vehicles into a
//! sharded controller. Per tick every vehicle's bytes go wire → shard
//! queue → serial drain (controller, TSDB, WAL) → ack; one vehicle in
//! twenty is then labelled from `TsDb::query_range` windows and its newest
//! frame, through the same micro-batcher and an edge-scale engine.

use std::sync::Arc;
use std::time::Instant;

use darnet_collect::runtime::AlignedTuple;
use darnet_collect::wal::{MemStorage, WalConfig, WalStats, WalStorage};
use darnet_collect::{
    decode_ack, decode_batch, encode_ack, IngestOutcome, OfferOutcome, SensorReading,
    ShardedController, StreamId,
};
use darnet_core::HealthPolicy;
use darnet_sim::{DrivingWorld, WorldConfig};
use darnet_tensor::SplitMix64;

use crate::clock::{Steady, SteadyClock};
use crate::engine::{EngineSpec, Labeler, StepMeta};
use crate::fixture::{
    fleet_session, Message, FLEET_FRAME_EVERY, FLEET_LABEL_EVERY, FLEET_TICK_S, IMU_FEATURES,
    WINDOW_LEN,
};
use crate::trace::{records_slice, Tracer, TICK};
use crate::workload::{
    absorb_wal, fleet_digest, fleet_shard_config, Counters, Durable, FleetWork, SteadyOutcome,
    FLEET_TRACE_TOGGLE,
};
use crate::Res;

/// The world fleet vehicles are rendered from: 8×8 frames.
pub fn world() -> DrivingWorld {
    DrivingWorld::new(WorldConfig {
        frame_size: EngineSpec::FLEET.frame_size,
        ..WorldConfig::default()
    })
}

/// Opens a fresh durable sharded controller, one `MemStorage` per shard.
pub fn open(shards: usize) -> Res<(ShardedController, Vec<Arc<MemStorage>>)> {
    let storages: Vec<Arc<MemStorage>> = (0..shards).map(|_| Arc::new(MemStorage::new())).collect();
    let (sharded, _) = ShardedController::open(
        fleet_shard_config(shards),
        storages
            .iter()
            .map(|s| Arc::clone(s) as Arc<dyn WalStorage>)
            .collect(),
        WalConfig::default(),
    )?;
    Ok((sharded, storages))
}

/// One session's loop state.
struct Session {
    sharded: ShardedController,
    storages: Vec<Arc<MemStorage>>,
    acked: Vec<(u32, u32)>,
    /// Per labelled vehicle: bench-clock time its newest unlabelled frame
    /// was handed in, if one is waiting.
    pending: Vec<Option<f64>>,
}

/// Runs the steady phase of the fleet workload.
pub fn run(
    work: &FleetWork,
    seed: u64,
    mut labeler: Labeler,
    mut clock: SteadyClock,
    tracer: &mut Tracer,
    trace: bool,
) -> Res<SteadyOutcome> {
    let world = world();
    let mut rng = SplitMix64::new(seed ^ 0xF1EE_7000);
    let session_seeds: Vec<u64> = (0..work.sessions).map(|_| rng.next_u64()).collect();
    let labelled = work.vehicles.div_ceil(FLEET_LABEL_EVERY);
    let frames_per_session = work.ticks.div_ceil(FLEET_FRAME_EVERY);

    let policy = HealthPolicy::default();
    let mut counters = Counters::default();
    let mut wal_stats = WalStats::default();
    let mut durable = Vec::new();
    let mut drain_pass_s = Vec::new();
    let mut state_bytes = 0;
    let mut fixture_s = 0.0;
    let mut tick_id = 0u32;
    let mut sample_messages = Vec::new();

    for (index, &session_seed) in session_seeds.iter().enumerate() {
        let gap_start = Instant::now();
        let (mut session, ticks) = clock.gap(|| -> Res<_> {
            let (sharded, storages) = open(work.shards)?;
            let session = Session {
                sharded,
                storages,
                acked: Vec::new(),
                pending: vec![None; labelled],
            };
            Ok((
                session,
                fleet_session(&world, session_seed, work.vehicles, work.ticks),
            ))
        })?;
        fixture_s += gap_start.elapsed().as_secs_f64();

        if index == 0 {
            sample_messages = ticks[0].clone();
        }
        let readings_before_session = counters.readings;
        for (k, messages) in ticks.iter().enumerate() {
            // Two slices per tick (a tick is ~0.1 s of ingest).
            tracer.set_recording(trace && records_slice(clock.slice_index(), FLEET_TRACE_TOGGLE));
            let labels_before = labeler.stats.labels;
            let mut readings_before = counters.readings;

            tracer.set_tick(tick_id);
            let root = tracer.enter(TICK);
            let handed_in_s = clock.now();
            let mut now = (k + 1) as f64 * FLEET_TICK_S;
            for (i, m) in messages.iter().enumerate() {
                now = now.max(m.arrival);
                offer(&mut session, m, handed_in_s, &mut counters, tracer);
                if (i + 1) % work.drain_every == 0 {
                    drain(&mut session, &mut counters, &mut drain_pass_s, tracer)?;
                }
                if i + 1 == messages.len() / 2 {
                    counters.readings = readings_before_session + session.sharded.ingest_stats().1;
                    let probe_s =
                        clock.end_slice(0, counters.readings - readings_before, tracer.recording());
                    tracer.skip(probe_s);
                    readings_before = counters.readings;
                }
            }
            drain(&mut session, &mut counters, &mut drain_pass_s, tracer)?;
            let pressure = tracer.span("shard.pressure", || session.sharded.pressure());
            for shard in &pressure.shards {
                counters.queue_peak = counters.queue_peak.max(shard.queue_peak as u64);
            }
            counters.readings = readings_before_session + session.sharded.ingest_stats().1;
            label_pending(
                &mut session,
                now,
                &policy,
                &mut labeler,
                &mut counters,
                &mut clock,
                tracer,
            )?;
            if let Some(deadline) = labeler.next_deadline() {
                labeler.poll_deadline(deadline, &mut clock, tracer)?;
            }
            tracer.exit(root);

            tick_id += 1;
            clock.end_slice(
                labeler.stats.labels - labels_before,
                counters.readings - readings_before,
                tracer.recording(),
            );
        }
        tracer.set_recording(false);

        let gap_start = Instant::now();
        clock.gap(|| {
            absorb_wal(&mut wal_stats, session.sharded.wal_stats());
            // Admission control is off by default; a shed here is a failure.
            counters.shed += session
                .sharded
                .pressure()
                .shards
                .iter()
                .map(|s| s.admission_shed)
                .sum::<u64>();
            if index + 1 == work.sessions {
                state_bytes = session.sharded.approx_bytes();
                let per_shard: Vec<u64> = (0..work.shards)
                    .filter_map(|s| session.sharded.shard_controller(s))
                    .map(|c| {
                        counters.tsdb_points += c.tsdb().point_count() as u64;
                        c.ingest_stats().0
                    })
                    .collect();
                let mean = per_shard.iter().sum::<u64>() as f64 / per_shard.len().max(1) as f64;
                let max = per_shard.iter().copied().max().unwrap_or(0) as f64;
                counters.shard_skew = if mean > 0.0 { max / mean } else { 0.0 };
                // Only the last session's WALs are kept for `recover_s`:
                // reopening all of them would replay the whole run.
                durable.push(Durable::Fleet {
                    digest: fleet_digest(&session.sharded),
                    storages: std::mem::take(&mut session.storages),
                    acked: std::mem::take(&mut session.acked),
                });
            }
        });
        fixture_s += gap_start.elapsed().as_secs_f64();
    }

    let Steady {
        probe,
        slices,
        latencies,
        matmul_peak_gflops,
    } = clock.finish();
    Ok(SteadyOutcome {
        labeler,
        probe,
        slices,
        latencies,
        matmul_peak_gflops,
        counters,
        expected_labels: (work.sessions * labelled * frames_per_session) as u64,
        state_bytes,
        wal: wal_stats,
        durable,
        fixture_s,
        drain_pass_s,
        sample_messages,
    })
}

/// Wire → shard queue for one message.
fn offer(
    session: &mut Session,
    m: &Message,
    handed_in_s: f64,
    counters: &mut Counters,
    tracer: &mut Tracer,
) {
    counters.offered += 1;
    counters.wire_bytes += m.bytes.len() as u64;
    let Ok(batch) = tracer.span("wire.decode_batch", || decode_batch(m.bytes.clone())) else {
        counters.decode_failed += 1;
        return;
    };
    let vehicle = batch.agent_id as usize;
    if vehicle.is_multiple_of(FLEET_LABEL_EVERY)
        && batch
            .readings
            .iter()
            .any(|r| matches!(r.reading, SensorReading::Frame(_)))
    {
        // A duplicate delivery lands in the same tick, so it re-marks the
        // same frame with the same time.
        session.pending[vehicle / FLEET_LABEL_EVERY] = Some(handed_in_s);
    }
    let outcome = tracer.span("shard.offer_at", || {
        session.sharded.offer_at(m.arrival, &batch)
    });
    counters.shed += u64::from(outcome == OfferOutcome::QueueShed);
}

/// One serial drain pass and the acks it produces.
fn drain(
    session: &mut Session,
    counters: &mut Counters,
    drain_pass_s: &mut Vec<f64>,
    tracer: &mut Tracer,
) -> Res<()> {
    let start = Instant::now();
    let acks = tracer.span("shard.drain", || session.sharded.drain())?;
    drain_pass_s.push(start.elapsed().as_secs_f64());
    let open = tracer.enter("wire.ack_roundtrip");
    for shard_ack in &acks {
        match shard_ack.outcome {
            IngestOutcome::Accepted => counters.accepted += 1,
            IngestOutcome::Duplicate => counters.duplicates += 1,
            IngestOutcome::Shed => {}
        }
        let ack = decode_ack(encode_ack(&shard_ack.ack))?;
        session.acked.push((ack.agent_id, ack.seq));
    }
    tracer.exit(open);
    Ok(())
}

/// The read side: for every labelled vehicle with a new frame, read the
/// frame and its IMU window back out of the owning shard's stores.
fn label_pending(
    session: &mut Session,
    now: f64,
    policy: &HealthPolicy,
    labeler: &mut Labeler,
    counters: &mut Counters,
    clock: &mut SteadyClock,
    tracer: &mut Tracer,
) -> Res<()> {
    for slot in 0..session.pending.len() {
        let Some(handed_in_s) = session.pending[slot].take() else {
            continue;
        };
        let vehicle = (slot * FLEET_LABEL_EVERY) as u32;
        let controller = session
            .sharded
            .shard_controller(session.sharded.shard_for(vehicle))
            .ok_or("vehicle routed to a missing shard")?;
        let frames = tracer.span("controller.frames_sorted_for", || {
            controller.frames_sorted_for(StreamId::from_agent(vehicle))
        });
        let Some(newest) = frames.last() else {
            // Its batch is still behind admission control; next tick.
            session.pending[slot] = Some(handed_in_s);
            continue;
        };
        // The newest five seconds of each condensed IMU channel.
        let newest_imu = newest.t + 0.75;
        let mut window = vec![0.0f32; WINDOW_LEN * IMU_FEATURES];
        let open = tracer.enter("tsdb.query_range");
        for ch in 0..IMU_FEATURES {
            let points = controller.tsdb().query_range(
                &format!("imu.{vehicle}.{ch}"),
                newest_imu - (WINDOW_LEN - 1) as f64 * 0.25 - 1e-6,
                newest_imu + 1e-6,
            )?;
            counters.points_returned += points.len() as u64;
            counters.points_used += points.len().min(WINDOW_LEN) as u64;
            // The last WINDOW_LEN points, front-padded with the earliest
            // of them when the vehicle is younger than the window.
            let used = &points[points.len().saturating_sub(WINDOW_LEN)..];
            let pad = WINDOW_LEN - used.len();
            for step in 0..WINDOW_LEN {
                let point = used.get(step.saturating_sub(pad));
                window[step * IMU_FEATURES + ch] = point.map_or(0.0, |p| p.1);
            }
        }
        tracer.exit(open);
        counters.points_returned += frames.len() as u64;
        counters.points_used += 1;

        let health = session.sharded.stream_health(vehicle);
        let selection = tracer.span("health.select_subset", || {
            policy.select_subset(
                &[
                    (StreamId::IMU, health.as_ref()),
                    (StreamId::CAMERA_FRONT, health.as_ref()),
                ],
                now,
            )
        });
        let tuple = AlignedTuple {
            t: newest.t,
            frame: newest.frame.clone(),
            window,
        };
        let meta = StepMeta::new(handed_in_s, &selection);
        labeler.push(tuple, None, meta, now, clock, tracer)?;
    }
    Ok(())
}
