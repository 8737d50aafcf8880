//! The cabin closed loop, shared by `cabin_stream` and `cabin_long`: per
//! tick, every cabin's bytes go wire → controller (+WAL), then the read
//! side re-derives the aligned IMU grid and the sorted camera views, pairs
//! the new frames with their windows and pushes them through the shared
//! micro-batcher and engine. Tick k+1 is offered only after every label
//! of tick k is emitted.

use std::sync::Arc;
use std::time::Instant;

use darnet_collect::runtime::pair_frames_with_windows;
use darnet_collect::wal::{self, MemStorage, Wal, WalConfig, WalStats, WalStorage};
use darnet_collect::{
    decode_ack, decode_batch, encode_ack, CollectError, Controller, ControllerConfig,
    IngestOutcome, StreamId,
};
use darnet_core::HealthPolicy;
use darnet_sim::{DrivingWorld, WorldConfig};
use darnet_tensor::SplitMix64;

use crate::clock::{Steady, SteadyClock};
use crate::engine::{Labeler, StepMeta};
use crate::fixture::{cabin_session, Message, CABIN_TICK_S, FRAMES_PER_TICK, WINDOW_LEN};
use crate::trace::{records_slice, Tracer, TICK};
use crate::workload::{
    absorb_wal, replayable_digest, CabinWork, Counters, Durable, SteadyOutcome, CABIN_TRACE_TOGGLE,
};
use crate::Res;

const STREAMS: [StreamId; 3] = [StreamId::IMU, StreamId::CAMERA_FRONT, StreamId::CAMERA_SIDE];

/// One cabin: a durable controller and what the loop remembers about it.
struct Cabin {
    controller: Controller,
    wal: Wal,
    storage: Arc<MemStorage>,
    acked: Vec<(u32, u32)>,
    /// Timestamp of the newest labelled frame.
    labelled_until: f64,
    /// Global tick of the session's first tick (sequence numbers start
    /// here).
    first_tick: usize,
    /// Bench-clock time each front/side batch was handed in, by local
    /// sequence number; NaN until it arrives.
    handed_in: [Vec<f64>; 2],
}

fn open(storage: Arc<MemStorage>, first_tick: usize, ticks: usize) -> Res<Cabin> {
    let (controller, wal, _) = wal::open(
        ControllerConfig::default(),
        Arc::clone(&storage) as Arc<dyn WalStorage>,
        WalConfig::default(),
    )?;
    Ok(Cabin {
        controller,
        wal,
        storage,
        acked: Vec::new(),
        // Half a frame period before the session's first frame.
        labelled_until: first_tick as f64 * CABIN_TICK_S - 0.125,
        first_tick,
        handed_in: [vec![f64::NAN; ticks], vec![f64::NAN; ticks]],
    })
}

/// A cabin on empty storage: the controller part of `setup_s`.
pub fn open_empty() -> Res<impl Sized> {
    open(Arc::new(MemStorage::new()), 0, 0)
}

/// Builds one cabin's history WAL by streaming `ticks` clean transmit
/// periods through a durable controller, exactly as a live session would
/// have written it.
fn history_storage(world: &DrivingWorld, seed: u64, ticks: usize) -> Res<Arc<MemStorage>> {
    let storage = Arc::new(MemStorage::new());
    let mut cabin = open(Arc::clone(&storage), 0, 0)?;
    for tick in cabin_session(world, seed, 0, ticks, false) {
        for m in tick {
            let batch = decode_batch(m.bytes)?;
            cabin
                .controller
                .offer_at(m.arrival, &batch, Some(&mut cabin.wal))?;
            if cabin.wal.needs_snapshot() {
                cabin.wal.snapshot(&cabin.controller)?;
            }
        }
    }
    Ok(storage)
}

fn copy_storage(from: &MemStorage) -> Res<Arc<MemStorage>> {
    let to = Arc::new(MemStorage::new());
    for object in from.list()? {
        to.append(&object, &from.read(&object)?)?;
    }
    Ok(to)
}

/// Runs the steady phase of a cabin workload.
pub fn run(
    work: &CabinWork,
    seed: u64,
    mut labeler: Labeler,
    mut clock: SteadyClock,
    tracer: &mut Tracer,
    trace: bool,
) -> Res<SteadyOutcome> {
    let fixture_start = Instant::now();
    let world = DrivingWorld::new(WorldConfig::default());
    let mut rng = SplitMix64::new(seed ^ 0xCAB1_4E00);
    // Drawn up front, so a session's traffic does not depend on when it
    // is generated.
    let history_seed = rng.next_u64();
    let session_seeds: Vec<u64> = (0..work.rounds * work.cabins)
        .map(|_| rng.next_u64())
        .collect();
    // Every cabin resumes the same recorded drive; their live traffic
    // differs.
    let history = match work.history_ticks {
        0 => None,
        ticks => Some(history_storage(&world, history_seed, ticks)?),
    };
    let mut fixture_s = fixture_start.elapsed().as_secs_f64();

    let policy = HealthPolicy::default();
    let mut counters = Counters::default();
    let mut wal_stats = WalStats::default();
    let mut durable = Vec::new();
    let mut state_bytes = 0;
    let mut expected_labels = 0;
    let mut tick_id = 0u32;
    let mut sample_messages = Vec::new();

    for round in 0..work.rounds {
        let gap_start = Instant::now();
        let (mut cabins, ticks) = clock.gap(|| -> Res<_> {
            let mut cabins = Vec::with_capacity(work.cabins);
            // One tick: every cabin's messages of one transmit period, in
            // arrival order.
            let mut ticks: Vec<Vec<(usize, Message)>> = vec![Vec::new(); work.ticks];
            for c in 0..work.cabins {
                let storage = match &history {
                    Some(h) => copy_storage(h)?,
                    None => Arc::new(MemStorage::new()),
                };
                cabins.push(open(storage, work.history_ticks, work.ticks)?);
                let session = cabin_session(
                    &world,
                    session_seeds[round * work.cabins + c],
                    work.history_ticks,
                    work.ticks,
                    true,
                );
                if round == 0 && c == 0 {
                    sample_messages = session.iter().flatten().cloned().collect();
                }
                for (tick, messages) in ticks.iter_mut().zip(session) {
                    tick.extend(messages.into_iter().map(|m| (c, m)));
                }
            }
            for tick in &mut ticks {
                tick.sort_by(|a, b| a.1.arrival.total_cmp(&b.1.arrival));
            }
            Ok((cabins, ticks))
        })?;
        fixture_s += gap_start.elapsed().as_secs_f64();
        expected_labels += (work.cabins * work.ticks * FRAMES_PER_TICK) as u64;

        let (mut slice_labels, mut slice_readings, mut slice_ticks) = (0, 0, 0);
        tracer.set_recording(trace && records_slice(clock.slice_index(), CABIN_TRACE_TOGGLE));
        for (k, arrivals) in ticks.iter().enumerate() {
            let labels_before = labeler.stats.labels;
            let readings_before = counters.readings;

            tracer.set_tick(tick_id);
            let root = tracer.enter(TICK);
            let handed_in_s = clock.now();
            let mut now = (work.history_ticks + k + 1) as f64 * CABIN_TICK_S;
            for (c, m) in arrivals {
                now = now.max(m.arrival);
                ingest(&mut cabins[*c], m, handed_in_s, &mut counters, tracer)?;
            }
            for cabin in &mut cabins {
                label_new_frames(
                    cabin,
                    now,
                    &policy,
                    &mut labeler,
                    &mut counters,
                    &mut clock,
                    tracer,
                )?;
            }
            // The next tick is half a simulated second away, the batcher's
            // deadline a quarter: the loop wakes for the deadline first.
            if let Some(deadline) = labeler.next_deadline() {
                labeler.poll_deadline(deadline, &mut clock, tracer)?;
            }
            tracer.exit(root);

            tick_id += 1;
            slice_labels += labeler.stats.labels - labels_before;
            slice_readings += counters.readings - readings_before;
            slice_ticks += 1;
            if slice_ticks == work.ticks_per_slice || k + 1 == work.ticks {
                clock.end_slice(slice_labels, slice_readings, tracer.recording());
                (slice_labels, slice_readings, slice_ticks) = (0, 0, 0);
                tracer
                    .set_recording(trace && records_slice(clock.slice_index(), CABIN_TRACE_TOGGLE));
            }
        }
        tracer.set_recording(false);

        let gap_start = Instant::now();
        clock.gap(|| {
            let last = round + 1 == work.rounds;
            for cabin in cabins.drain(..) {
                absorb_wal(&mut wal_stats, cabin.wal.stats());
                if last {
                    state_bytes += cabin.controller.approx_bytes();
                    counters.tsdb_points += cabin.controller.tsdb().point_count() as u64;
                }
                durable.push(Durable::Cabin {
                    digest: replayable_digest(&cabin.controller),
                    storage: cabin.storage,
                    acked: cabin.acked,
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
        expected_labels,
        state_bytes,
        wal: wal_stats,
        durable,
        fixture_s,
        drain_pass_s: Vec::new(),
        sample_messages,
    })
}

/// Wire → controller → WAL → ack for one message.
fn ingest(
    cabin: &mut Cabin,
    m: &Message,
    handed_in_s: f64,
    counters: &mut Counters,
    tracer: &mut Tracer,
) -> Res<()> {
    counters.offered += 1;
    counters.wire_bytes += m.bytes.len() as u64;
    let Ok(batch) = tracer.span("wire.decode_batch", || decode_batch(m.bytes.clone())) else {
        counters.decode_failed += 1;
        return Ok(());
    };
    let outcome = tracer.span("controller.offer_at", || {
        cabin
            .controller
            .offer_at(m.arrival, &batch, Some(&mut cabin.wal))
    })?;
    // The snapshot cadence of `run_session_durable`.
    if cabin.wal.needs_snapshot() {
        let start = Instant::now();
        tracer.span("wal.snapshot", || cabin.wal.snapshot(&cabin.controller))?;
        let took = start.elapsed().as_secs_f64();
        counters.snapshot_s += took;
        counters.snapshot_max_s = counters.snapshot_max_s.max(took);
    }
    match outcome {
        IngestOutcome::Shed => {
            counters.shed += 1;
            return Ok(());
        }
        IngestOutcome::Duplicate => counters.duplicates += 1,
        IngestOutcome::Accepted => {
            counters.accepted += 1;
            counters.readings += batch.readings.len() as u64;
            if let Some(view) = (batch.agent_id as usize).checked_sub(1) {
                let local = batch.seq as usize - cabin.first_tick;
                cabin.handed_in[view][local] = handed_in_s;
            }
        }
    }
    // Accepted and duplicate deliveries are both acked, over the wire.
    let ack = tracer.span("wire.ack_roundtrip", || {
        decode_ack(encode_ack(&Controller::ack_for(&batch)))
    })?;
    cabin.acked.push((ack.agent_id, ack.seq));
    Ok(())
}

/// The read side: re-derive the cabin's aligned streams through the
/// controller's public API and push every frame that became labelable.
fn label_new_frames(
    cabin: &mut Cabin,
    now: f64,
    policy: &HealthPolicy,
    labeler: &mut Labeler,
    counters: &mut Counters,
    clock: &mut SteadyClock,
    tracer: &mut Tracer,
) -> Res<()> {
    let imu = match tracer.span("controller.aligned_imu", || cabin.controller.aligned_imu()) {
        Ok(imu) => imu,
        // Nothing to align against yet: the frames wait for the next tick.
        Err(CollectError::NoData(_)) => return Ok(()),
        Err(e) => return Err(e.into()),
    };
    let front = tracer.span("controller.frames_sorted_for", || {
        cabin.controller.frames_sorted_for(StreamId::CAMERA_FRONT)
    });
    let side = tracer.span("controller.frames_sorted_for", || {
        cabin.controller.frames_sorted_for(StreamId::CAMERA_SIDE)
    });
    counters.points_returned += (imu.len() + front.len() + side.len()) as u64;

    // New front frames, up to the first whose side view has not arrived.
    let lo = front.partition_point(|f| f.t <= cabin.labelled_until);
    let mut views = Vec::new();
    for f in &front[lo..] {
        match side.binary_search_by(|s| s.t.total_cmp(&f.t)) {
            Ok(i) => views.push(side[i].frame.clone()),
            Err(_) => break,
        }
    }
    if views.is_empty() {
        return Ok(());
    }
    let ready = &front[lo..lo + views.len()];
    let tuples = tracer.span("runtime.pair_frames_with_windows", || {
        pair_frames_with_windows(ready, &imu, WINDOW_LEN)
    });
    if tuples.len() != ready.len() {
        return Err("a frame preceded every IMU observation and was dropped".into());
    }
    counters.points_used += (tuples.len() * (WINDOW_LEN + 2)) as u64;

    let healths = STREAMS.map(|s| cabin.controller.stream_health_by_id(s));
    let selection = tracer.span("health.select_subset", || {
        policy.select_subset(
            &[
                (STREAMS[0], healths[0].as_ref()),
                (STREAMS[1], healths[1].as_ref()),
                (STREAMS[2], healths[2].as_ref()),
            ],
            now,
        )
    });

    for (tuple, view) in tuples.into_iter().zip(views) {
        let frame_index = (tuple.t / 0.25).round() as usize;
        let local = frame_index / FRAMES_PER_TICK - cabin.first_tick;
        let handed_in_s = cabin.handed_in[0][local].max(cabin.handed_in[1][local]);
        let meta = StepMeta::new(handed_in_s, &selection);
        cabin.labelled_until = tuple.t;
        labeler.push(tuple, Some(view), meta, now, clock, tracer)?;
    }
    Ok(())
}
