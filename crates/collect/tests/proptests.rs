//! Property-based tests for middleware invariants: interpolation bounds,
//! smoothing bounds, clock-sync convergence, wire-format roundtrips.
#![expect(
    clippy::disallowed_methods,
    reason = "tests seed their inputs from a SplitMix64"
)]

use bytes::Bytes;
use darnet_collect::{
    decode_batch, encode_batch, interpolate_grid, moving_average, Batch, CollectError, DriftClock,
    GridSpec, SensorReading, StampedReading,
};
use darnet_sim::ImuSample;
use proptest::prelude::*;

fn imu_batch(agent_id: u32, seq: u32, stamps: &[f64]) -> Batch {
    Batch {
        agent_id,
        seq,
        readings: stamps
            .iter()
            .map(|&t| StampedReading {
                timestamp: t,
                reading: SensorReading::Imu(ImuSample {
                    accel: [t as f32, -1.0, 9.8],
                    gyro: [0.1, 0.2, 0.3],
                    gravity: [0.0, 0.0, 9.81],
                    rotation: [1.0, 0.5, -0.5],
                }),
            })
            .collect(),
    }
}

proptest! {
    #[test]
    fn interpolation_is_bounded_by_observations(
        values in prop::collection::vec(-50.0f32..50.0, 2..40),
        hz in 1.0f64..20.0,
    ) {
        let obs: Vec<(f64, Vec<f32>)> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as f64 * 0.1, vec![v]))
            .collect();
        let lo = values.iter().cloned().fold(f32::INFINITY, f32::min);
        let hi = values.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let grid = GridSpec { start: 0.0, end: (values.len() - 1) as f64 * 0.1, hz };
        for row in interpolate_grid(&obs, &grid) {
            prop_assert!(row[0] >= lo - 1e-4 && row[0] <= hi + 1e-4);
        }
    }

    #[test]
    fn interpolation_order_invariance(
        values in prop::collection::vec(-10.0f32..10.0, 3..20),
        perm_seed in 0u64..100,
    ) {
        let obs: Vec<(f64, Vec<f32>)> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as f64 * 0.25, vec![v]))
            .collect();
        let mut shuffled = obs.clone();
        let mut rng = darnet_tensor::SplitMix64::new(perm_seed);
        rng.shuffle(&mut shuffled);
        let grid = GridSpec { start: 0.0, end: (values.len() - 1) as f64 * 0.25, hz: 4.0 };
        prop_assert_eq!(interpolate_grid(&obs, &grid), interpolate_grid(&shuffled, &grid));
    }

    #[test]
    fn moving_average_is_bounded_and_length_preserving(
        values in prop::collection::vec(-100.0f32..100.0, 1..50),
        window in 1usize..8,
    ) {
        let series: Vec<Vec<f32>> = values.iter().map(|&v| vec![v]).collect();
        let out = moving_average(&series, window);
        prop_assert_eq!(out.len(), series.len());
        let lo = values.iter().cloned().fold(f32::INFINITY, f32::min);
        let hi = values.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        for row in out {
            prop_assert!(row[0] >= lo - 1e-3 && row[0] <= hi + 1e-3);
        }
    }

    #[test]
    fn clock_sync_bounds_error_regardless_of_initial_state(
        drift_ppm in -500.0f64..500.0,
        offset in -5.0f64..5.0,
        delay in 0.001f64..0.1,
    ) {
        let mut clock = DriftClock::new(drift_ppm * 1e-6, offset);
        // Sync every 5 s for a minute with a perfect delay estimate.
        for k in 1..=12 {
            let t = k as f64 * 5.0;
            clock.apply_sync(t, t - delay, delay);
        }
        // After the last sync, error re-accumulates only through drift.
        let err = clock.error(60.0 + 5.0).abs();
        prop_assert!(err <= drift_ppm.abs() * 1e-6 * 5.0 + 1e-9);
    }

    #[test]
    fn wire_roundtrip_preserves_imu_batches(
        agent in 0u32..100,
        seq in 0u32..1000,
        stamps in prop::collection::vec(0.0f64..100.0, 0..20),
    ) {
        let batch = imu_batch(agent, seq, &stamps);
        prop_assert_eq!(decode_batch(encode_batch(&batch)).unwrap(), batch);
    }

    #[test]
    fn decoder_never_panics_on_garbage(
        stamps in prop::collection::vec(0.0f64..100.0, 0..4),
        keep in 0usize..300,
        bytes in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        // Garbage, alone or after a valid encoding cut anywhere: the
        // decoder returns Ok or Err — never panics — and bytes it
        // accepts are exactly the encoding of what it returned, so
        // nothing after the last reading slips through.
        let mut data = encode_batch(&imu_batch(0xA5, 1, &stamps)).to_vec();
        data.truncate(keep);
        data.extend(bytes);
        if let Ok(batch) = decode_batch(Bytes::from(data.clone())) {
            prop_assert_eq!(encode_batch(&batch).to_vec(), data);
        }
    }

    #[test]
    fn decoder_rejects_a_non_finite_stamp_wherever_it_sits(
        stamps in prop::collection::vec(0.0f64..100.0, 1..20),
        victim in 0usize..20,
        // 0 is the reading's stamp, 1..=12 one of its IMU features.
        slot in 0usize..13,
        poison in 0usize..3,
    ) {
        let batch = imu_batch(7, 3, &stamps);
        let mut poisoned = batch.clone();
        let reading = &mut poisoned.readings[victim % stamps.len()];
        match (slot.checked_sub(1), &mut reading.reading) {
            (Some(feature), SensorReading::Imu(sample)) => {
                let mut feats = sample.to_features();
                feats[feature] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][poison];
                *sample = ImuSample::from_features(&feats);
            }
            _ => reading.timestamp = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][poison],
        }
        prop_assert!(matches!(
            decode_batch(encode_batch(&poisoned)),
            Err(CollectError::Decode(_))
        ));
        prop_assert_eq!(decode_batch(encode_batch(&batch)).unwrap(), batch);
    }
}

// ---------------------------------------------------------------------------
// Transport-layer invariants: for ANY seed × loss × jitter × duplication
// combination, the set of samples the controller ingests is exactly the set
// the agents polled — retransmission recovers every loss, sequence dedupe
// discards every duplicate, and alignment leaves timestamps sorted.
// ---------------------------------------------------------------------------

mod transport_props {
    use darnet_collect::runtime::{run_session, CampaignConfig, Durability, Recording};
    use darnet_collect::StreamId;
    use darnet_sim::{CanonicalBehavior, DrivingWorld, Segment, WorldConfig};
    use proptest::prelude::*;
    use std::sync::Arc;

    fn schedule() -> Vec<Segment<CanonicalBehavior>> {
        vec![
            Segment {
                driver: 0,
                behavior: CanonicalBehavior::NormalDriving,
                start: 0.0,
                duration: 2.0,
            },
            Segment {
                driver: 0,
                behavior: CanonicalBehavior::Texting,
                start: 2.0,
                duration: 2.0,
            },
        ]
    }

    fn faulty_config(seed: u64, loss: f64, jitter: f64, duplicate: f64) -> CampaignConfig {
        // A drain that outlasts the whole retry chain — RTOs of 0.25 s
        // doubling over 8 retries, each up to 25 % late, sum to < 160 s —
        // so every batch is either acked or abandoned before the loop ends.
        let mut config = CampaignConfig {
            seed,
            drain_grace: 160.0,
            ..CampaignConfig::default()
        };
        config.link.loss = loss;
        config.link.jitter = jitter;
        config.link.faults.duplicate = duplicate;
        config
    }

    /// The paper's pair over [`schedule`]. Not a `#[test]` fn, so clippy's
    /// allow-unwrap-in-tests does not reach it; a failed unwrap here IS the
    /// property failing.
    #[allow(clippy::unwrap_used)]
    fn pair_session(config: &CampaignConfig) -> Recording {
        let world = Arc::new(DrivingWorld::new(WorldConfig::default()));
        let durability = Durability::default();
        run_session(
            &world,
            0,
            &schedule(),
            config,
            &StreamId::DARNET_PAIR,
            &[],
            &durability,
        )
        .unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn ingested_set_equals_polled_set_under_any_faults(
            seed in 0u64..1_000_000,
            loss in 0.0f64..0.25,
            jitter in 0.0f64..0.05,
            duplicate in 0.0f64..0.5,
        ) {
            let rec = pair_session(&faulty_config(seed, loss, jitter, duplicate));

            // No loss: with retransmission on, everything polled arrives.
            prop_assert_eq!(
                rec.readings_ingested,
                rec.readings_polled(),
                "seed {} loss {} jitter {} dup {}",
                seed, loss, jitter, duplicate
            );
            // No duplicates: every stream's gap accounting closes at zero
            // and duplicate deliveries were discarded, not ingested.
            for row in &rec.streams {
                let h = row.health.expect("both streams delivered");
                prop_assert_eq!(h.gaps, 0);
                prop_assert_eq!(h.delivered, h.highest_seq as u64 + 1);
            }
            // Sorted after alignment, despite jitter-induced reordering.
            prop_assert!(rec.imu.windows(2).all(|w| w[0].t < w[1].t));
            let frames = rec.frames_for(StreamId::CAMERA_FRONT);
            prop_assert!(frames.windows(2).all(|w| w[0].t <= w[1].t));
        }

        #[test]
        fn fire_and_forget_never_ingests_more_than_polled(
            seed in 0u64..1_000_000,
            loss in 0.0f64..0.4,
            duplicate in 0.0f64..0.5,
        ) {
            let mut config = faulty_config(seed, loss, 0.01, duplicate);
            config.retransmit = false;
            let rec = pair_session(&config);
            // Dedupe holds even without acks: duplication can never inflate
            // the recording past what was polled.
            prop_assert!(rec.readings_ingested <= rec.readings_polled());
            prop_assert!(rec.imu.windows(2).all(|w| w[0].t < w[1].t));
        }

        /// The retry budget as a contract: a blackout shorter than 3 s,
        /// starting anywhere in the session, loses nothing. Retries fall
        /// 0.25, 0.75, 1.75, 3.75 and 7.75 s (±25 % per RTO) after a
        /// batch's first send, so the fifth at the latest lands after the
        /// blackout, well inside the budget of 8.
        #[test]
        fn any_short_blackout_is_healed_within_the_retry_budget(
            seed in 0u64..1_000_000,
            start in 0.0f64..4.0,
            len in 0.0f64..3.0,
        ) {
            let mut config = faulty_config(seed, 0.0, 0.01, 0.0);
            config.link.faults.blackout = Some((start, start + len));
            let rec = pair_session(&config);
            prop_assert_eq!(
                rec.readings_ingested,
                rec.readings_polled(),
                "seed {} blackout [{}, {})",
                seed, start, start + len
            );
            for row in &rec.streams {
                prop_assert_eq!(row.transport.abandoned, 0);
                prop_assert_eq!(row.health.expect("both streams delivered").gaps, 0);
            }
        }

        #[test]
        fn faulty_sessions_replay_identically_from_their_seed(
            seed in 0u64..1_000_000,
            loss in 0.0f64..0.3,
            duplicate in 0.0f64..0.4,
        ) {
            let config = faulty_config(seed, loss, 0.02, duplicate);
            prop_assert_eq!(pair_session(&config), pair_session(&config));
        }
    }
}

// ---------------------------------------------------------------------------
// Read-side invariants: the controller keeps derived state between reads
// (a per-stream frame index, a cached aligned grid). For ANY arrival order
// and ANY interleaving of reads with offers, each read door returns what
// recomputing from the acceptance log alone returns — bit for bit — and a
// controller recovered from the WAL of the same traffic does too.
// ---------------------------------------------------------------------------

mod read_side_props {
    use std::sync::Arc;

    use darnet_collect::wal;
    use darnet_collect::{
        decode_batch, encode_batch, interpolate_grid, moving_average, AlignedImuPoint, Batch,
        Controller, ControllerConfig, FrameRecord, GridSpec, IngestOutcome, MemStorage,
        SensorReading, StampedReading, StreamId, TsDb, WalConfig, WalStorage,
    };
    use darnet_sim::{Frame, ImuSample};
    use darnet_tensor::SplitMix64;
    use proptest::prelude::*;

    type Observation = (f64, Vec<f32>);

    /// The reference: the batch pipeline over the accepted observations,
    /// through the public batch functions only.
    fn batch_aligned(log: &[Observation], config: &ControllerConfig) -> Vec<AlignedImuPoint> {
        let (start, end) = log
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), (t, _)| {
                (lo.min(*t), hi.max(*t))
            });
        let grid = GridSpec {
            start,
            end,
            hz: config.grid_hz,
        };
        let smoothed = moving_average(&interpolate_grid(log, &grid), config.smoothing_window);
        grid.points()
            .into_iter()
            .zip(smoothed)
            .map(|(t, row)| {
                let mut features = [0.0; ImuSample::FEATURES];
                features.copy_from_slice(&row);
                AlignedImuPoint { t, features }
            })
            .collect()
    }

    fn bits(points: &[AlignedImuPoint]) -> Vec<(u64, Vec<u32>)> {
        points
            .iter()
            .map(|p| {
                (
                    p.t.to_bits(),
                    p.features.iter().map(|v| v.to_bits()).collect(),
                )
            })
            .collect()
    }

    fn imu_sample(rng: &mut SplitMix64, scale: f32) -> ImuSample {
        let mut feats = [0.0f32; ImuSample::FEATURES];
        for f in &mut feats {
            *f = rng.uniform(-scale, scale);
        }
        ImuSample::from_features(&feats)
    }

    /// Seeded IMU batches in arrival order, holding what an incrementally
    /// kept grid has to survive: shuffled arrival, timestamps equal to and
    /// 5e-13 s from earlier ones (inside the interpolation's 1e-12 guard),
    /// constant runs, retransmitted `(agent, seq)`s, and — never first —
    /// one batch older than everything else, which moves the grid start.
    fn imu_traffic(rng: &mut SplitMix64, batches: usize, scale: f32) -> Vec<Batch> {
        let mut used: Vec<f64> = Vec::new();
        let mut clock = 10.0f64;
        let mut out: Vec<Batch> = Vec::new();
        for seq in 0..batches as u32 {
            let held = (rng.next_usize(4) == 0).then(|| imu_sample(rng, scale));
            let readings = (0..1 + rng.next_usize(6))
                .map(|_| {
                    let timestamp = match rng.next_usize(8) {
                        0 if !used.is_empty() => used[rng.next_usize(used.len())],
                        1 if !used.is_empty() => used[rng.next_usize(used.len())] + 5e-13,
                        _ => {
                            clock += rng.next_f64() * 0.2;
                            clock
                        }
                    };
                    used.push(timestamp);
                    StampedReading {
                        timestamp,
                        reading: SensorReading::Imu(held.unwrap_or_else(|| imu_sample(rng, scale))),
                    }
                })
                .collect();
            out.push(Batch {
                agent_id: 0,
                seq,
                readings,
            });
        }
        rng.shuffle(&mut out);
        let oldest = Batch {
            agent_id: 0,
            seq: batches as u32,
            readings: vec![StampedReading {
                timestamp: 7.0 - rng.next_f64(),
                reading: SensorReading::Imu(imu_sample(rng, scale)),
            }],
        };
        out.insert(1 + rng.next_usize(out.len()), oldest);
        for _ in 0..batches / 3 {
            let again = out[rng.next_usize(out.len())].clone();
            out.insert(rng.next_usize(out.len() + 1), again);
        }
        out
    }

    /// Offers `traffic` through a WAL-backed controller, keeping what
    /// `record` makes of each accepted reading as the reference log, and
    /// calls `check` with the controller and that log after each offer a
    /// coin picks, after the last offer, and on a controller recovered
    /// from the WAL.
    #[allow(clippy::expect_used)] // test helper: a failed expect IS the test failing
    fn drive<T>(
        rng: &mut SplitMix64,
        config: ControllerConfig,
        traffic: &[Batch],
        record: impl Fn(&Batch, &StampedReading) -> Option<T>,
        check: impl Fn(&Controller, &[T]),
    ) {
        let storage: Arc<dyn WalStorage> = Arc::new(MemStorage::new());
        let open = || wal::open(config, Arc::clone(&storage), WalConfig::default()).expect("open");
        let (mut live, mut wal, _) = open();
        let mut log: Vec<T> = Vec::new();
        for (i, batch) in traffic.iter().enumerate() {
            let outcome = live
                .offer_at(i as f64 * 0.1, batch, Some(&mut wal))
                .expect("offer");
            if outcome == IngestOutcome::Accepted {
                log.extend(batch.readings.iter().filter_map(|r| record(batch, r)));
            }
            if rng.next_usize(2) == 0 {
                check(&live, &log);
            }
        }
        check(&live, &log);
        let (recovered, _, _) = open();
        check(&recovered, &log);
    }

    fn observation(_: &Batch, r: &StampedReading) -> Option<Observation> {
        match r.reading {
            SensorReading::Imu(s) => Some((r.timestamp, s.to_features().to_vec())),
            SensorReading::Frame(_) => None,
        }
    }

    fn frame_record(batch: &Batch, r: &StampedReading) -> Option<(u32, FrameRecord)> {
        match &r.reading {
            SensorReading::Frame(frame) => Some((
                batch.agent_id,
                FrameRecord {
                    t: r.timestamp,
                    frame: frame.clone(),
                },
            )),
            SensorReading::Imu(_) => None,
        }
    }

    /// Two cameras' single-frame batches in arrival order: every timestamp
    /// is shared by both cameras and some by several frames of one (ties),
    /// arrival is shuffled (late frames), some batches arrive twice. Each
    /// frame's pixels name it, so ties cannot hide a swap. Sent through
    /// the wire codec, so the WAL replays exactly what was ingested.
    #[allow(clippy::expect_used)] // test helper: a failed expect IS the test failing
    fn frame_traffic(rng: &mut SplitMix64, per_camera: usize) -> Vec<Batch> {
        let mut out = Vec::new();
        for seq in 0..per_camera as u32 {
            let timestamp = rng.next_usize(per_camera.div_ceil(2)) as f64 * 0.25;
            for agent_id in [1u32, 2] {
                let id = (seq * 2 + agent_id) as f32 / 255.0;
                let batch = Batch {
                    agent_id,
                    seq,
                    readings: vec![StampedReading {
                        timestamp,
                        reading: SensorReading::Frame(Frame::from_pixels(2, 1, vec![id, 1.0])),
                    }],
                };
                out.push(decode_batch(encode_batch(&batch)).expect("wire round-trip"));
            }
        }
        rng.shuffle(&mut out);
        for _ in 0..per_camera / 3 {
            let again = out[rng.next_usize(out.len())].clone();
            out.insert(rng.next_usize(out.len() + 1), again);
        }
        out
    }

    /// What the frame doors returned before they kept an index: filter
    /// the acceptance log, then a stable sort by timestamp.
    fn sorted_from_log(log: &[(u32, FrameRecord)], agent: Option<u32>) -> Vec<FrameRecord> {
        let mut out: Vec<FrameRecord> = log
            .iter()
            .filter(|(a, _)| agent.is_none_or(|want| *a == want))
            .map(|(_, fr)| fr.clone())
            .collect();
        out.sort_by(|a, b| a.t.total_cmp(&b.t));
        out
    }

    /// The reference `state_digest`, FNV-1a over the streams' replayable
    /// counters (read back through the public API), the ingest counters,
    /// the frames in the order of the test's own acceptance log, and the
    /// TSDB fingerprint `tsdb`.
    fn digest_from_log(controller: &Controller, log: &[(u32, FrameRecord)], tsdb: u64) -> u64 {
        fn fold(h: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (id, _, _) in controller.stream_meta() {
            let health = controller.stream_health(id);
            let seen: Vec<u32> = health.map_or(Vec::new(), |s| {
                (0..=s.highest_seq)
                    .filter(|&seq| controller.has_seen(id, seq))
                    .collect()
            });
            fold(&mut h, &id.to_le_bytes());
            fold(&mut h, &health.map_or(0, |s| s.delivered).to_le_bytes());
            let last_arrival = health.map_or(0.0, |s| s.last_arrival);
            fold(&mut h, &last_arrival.to_bits().to_le_bytes());
            fold(&mut h, &(seen.len() as u64).to_le_bytes());
            for seq in seen {
                fold(&mut h, &seq.to_le_bytes());
            }
        }
        let (batches, readings) = controller.ingest_stats();
        fold(&mut h, &batches.to_le_bytes());
        fold(&mut h, &readings.to_le_bytes());
        for (_, fr) in log {
            fold(&mut h, &fr.t.to_bits().to_le_bytes());
            for &p in fr.frame.pixels() {
                fold(&mut h, &p.to_bits().to_le_bytes());
            }
        }
        fold(&mut h, &tsdb.to_le_bytes());
        h
    }

    /// Mixed batches in arrival order: IMU readings from agents 0 and 3,
    /// frames among agent 1's. Inside a batch, stamps run out of order,
    /// repeat, and equal earlier batches' stamps; some batches arrive
    /// twice.
    fn mixed_traffic(rng: &mut SplitMix64, batches: usize) -> Vec<Batch> {
        let mut used: Vec<f64> = Vec::new();
        let mut clock = 10.0f64;
        let mut out: Vec<Batch> = Vec::new();
        for seq in 0..batches as u32 {
            let agent_id = [0u32, 1, 3][rng.next_usize(3)];
            let readings = (0..1 + rng.next_usize(6))
                .map(|_| {
                    let timestamp = match rng.next_usize(6) {
                        0 if !used.is_empty() => used[rng.next_usize(used.len())],
                        1 => clock - rng.next_f64(),
                        _ => {
                            clock += rng.next_f64() * 0.2;
                            clock
                        }
                    };
                    used.push(timestamp);
                    let reading = if agent_id == 1 && rng.next_usize(3) == 0 {
                        let pixels = vec![rng.uniform(0.0, 1.0), timestamp as f32];
                        SensorReading::Frame(Frame::from_pixels(2, 1, pixels))
                    } else {
                        SensorReading::Imu(imu_sample(rng, 20.0))
                    };
                    StampedReading { timestamp, reading }
                })
                .collect();
            out.push(Batch {
                agent_id,
                seq,
                readings,
            });
        }
        for _ in 0..batches / 3 {
            let again = out[rng.next_usize(out.len())].clone();
            out.insert(rng.next_usize(out.len() + 1), again);
        }
        out
    }

    /// A write through `Controller::tsdb()`, made to both stores: a
    /// scalar under a name that is, or is not quite, a channel of an IMU
    /// row series, or a row of another or the same width into one.
    fn outside_write(rng: &mut SplitMix64, stores: [&TsDb; 2]) {
        const SCALARS: [&str; 7] = [
            "imu.3",
            "imu.12",
            "imu.01",
            "imu.0.3",
            "imu.3.11",
            "imu.3.12",
            "camera.mean_intensity.1",
        ];
        const ROWS: [&str; 4] = ["imu", "imu.0", "imu.3", "camera.mean_intensity"];
        let t = 8.0 + rng.next_f64() * 4.0;
        if rng.next_usize(2) == 0 {
            let (metric, value) = (SCALARS[rng.next_usize(SCALARS.len())], rng.normal());
            for db in stores {
                db.insert(metric, t, value);
            }
        } else {
            let metric = ROWS[rng.next_usize(ROWS.len())];
            let width = [1, 3, 12, 12, 13][rng.next_usize(5)];
            let row: Vec<f32> = (0..width).map(|_| rng.normal()).collect();
            for db in stores {
                db.insert_vector(metric, t, &row);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn aligned_imu_read_at_any_point_equals_batch_recomputation_bitwise(
            seed in any::<u64>(),
            batches in 1usize..14,
            grid_hz in 1.0f64..50.0,
            smoothing_window in 1usize..=8,
        ) {
            let mut rng = SplitMix64::new(seed);
            let config = ControllerConfig { grid_hz, smoothing_window, ..ControllerConfig::default() };
            let traffic = imu_traffic(&mut rng, batches, 20.0);
            drive(&mut rng, config, &traffic, observation, |controller, log| {
                let read = controller.aligned_imu().expect("observations were accepted");
                assert!(!read.is_empty());
                assert_eq!(bits(&read), bits(&batch_aligned(log, &config)), "seed {seed}");
            });
        }

        // ROADMAP item 1, the aligner's slice: finite readings in, finite
        // grid out, inside what was observed. The bound on `scale` is the
        // moving average's: it sums up to `window` values before dividing.
        #[test]
        fn aligned_imu_of_finite_readings_is_finite_and_within_observed_range(
            seed in any::<u64>(),
            batches in 1usize..14,
            grid_hz in 1.0f64..50.0,
            smoothing_window in 1usize..=8,
            magnitude in 0usize..3,
        ) {
            let scale = [1.0f32, 1e3, 1e30][magnitude];
            let mut rng = SplitMix64::new(seed);
            let config = ControllerConfig { grid_hz, smoothing_window, ..ControllerConfig::default() };
            let traffic = imu_traffic(&mut rng, batches, scale);
            drive(&mut rng, config, &traffic, observation, |controller, log| {
                let slack = scale * 1e-5;
                for point in controller.aligned_imu().expect("observations were accepted") {
                    assert!(point.t.is_finite());
                    for (channel, value) in point.features.iter().enumerate() {
                        let seen = log.iter().map(|(_, feats)| feats[channel]);
                        let lo = seen.clone().fold(f32::INFINITY, f32::min);
                        let hi = seen.fold(f32::NEG_INFINITY, f32::max);
                        assert!(
                            value.is_finite() && (lo - slack..=hi + slack).contains(value),
                            "seed {seed} channel {channel}: {value} outside [{lo}, {hi}]"
                        );
                    }
                }
            });
        }

        // The same property where the IMU series is keyed by agent: the
        // aligner reads `StreamId::IMU`'s series, which `imu_traffic`'s one
        // IMU agent writes.
        #[test]
        fn aligned_imu_under_per_agent_series_equals_batch_recomputation_bitwise(
            seed in any::<u64>(),
            batches in 1usize..14,
            grid_hz in 1.0f64..50.0,
            smoothing_window in 1usize..=8,
        ) {
            let mut rng = SplitMix64::new(seed);
            let config = ControllerConfig {
                grid_hz,
                smoothing_window,
                per_agent_series: true,
                ..ControllerConfig::default()
            };
            let traffic = imu_traffic(&mut rng, batches, 20.0);
            drive(&mut rng, config, &traffic, observation, |controller, log| {
                assert_eq!(controller.tsdb().len("imu.0.11"), log.len());
                let read = controller.aligned_imu().expect("observations were accepted");
                assert_eq!(bits(&read), bits(&batch_aligned(log, &config)), "seed {seed}");
            });
        }

        // The TSDB is the aligner's input, not a copy of it: a row written
        // through `Controller::tsdb()` between two reads — late, early or
        // newest — invalidates like an accepted reading.
        #[test]
        fn a_row_inserted_through_the_tsdb_handle_shows_up_in_the_next_read(
            seed in any::<u64>(),
            batches in 1usize..8,
            grid_hz in 1.0f64..50.0,
            smoothing_window in 1usize..=8,
            stamp in 5.0f64..14.0,
        ) {
            let mut rng = SplitMix64::new(seed);
            let config = ControllerConfig { grid_hz, smoothing_window, ..ControllerConfig::default() };
            let mut controller = Controller::new(config);
            let mut log: Vec<Observation> = Vec::new();
            for batch in imu_traffic(&mut rng, batches, 20.0) {
                if controller.offer_at(0.0, &batch, None).expect("offer") == IngestOutcome::Accepted {
                    log.extend(batch.readings.iter().filter_map(|r| observation(&batch, r)));
                }
            }
            let before = controller.aligned_imu().expect("observations were accepted");
            prop_assert_eq!(bits(&before), bits(&batch_aligned(&log, &config)));
            let row = imu_sample(&mut rng, 20.0).to_features();
            controller.tsdb().insert_vector("imu", stamp, &row);
            log.push((stamp, row.to_vec()));
            prop_assert_eq!(controller.imu_observation_count(), log.len());
            let after = controller.aligned_imu().expect("observations were accepted");
            prop_assert_eq!(bits(&after), bits(&batch_aligned(&log, &config)), "seed {}", seed);
        }

        #[test]
        fn frame_doors_equal_a_stable_sort_of_the_acceptance_log(
            seed in any::<u64>(),
            per_camera in 1usize..16,
        ) {
            let mut rng = SplitMix64::new(seed);
            let traffic = frame_traffic(&mut rng, per_camera);
            drive(&mut rng, ControllerConfig::default(), &traffic, frame_record, |controller, log| {
                for agent in [1u32, 2] {
                    assert_eq!(
                        controller.frames_sorted_for(StreamId::from_agent(agent)),
                        sorted_from_log(log, Some(agent)),
                        "seed {seed}"
                    );
                }
                assert_eq!(controller.frames_sorted(), sorted_from_log(log, None), "seed {seed}");
                assert!(controller.frames_sorted_for(StreamId(9)).is_empty());
                // Frames live in their streams; the digest folds them in
                // acceptance order all the same.
                let tsdb = controller.tsdb().fingerprint();
                assert_eq!(controller.state_digest(), digest_from_log(controller, log, tsdb), "seed {seed}");
            });
        }

        // The write side against the one it replaced. The controller
        // writes a batch under one guard, through the series its stream
        // found when it first appeared; the reference writes each reading
        // on its own, by name, into a second controller's store. Writes
        // through the handle between batches split the kept series or
        // add rows beside them.
        #[test]
        fn a_batch_written_at_once_stores_what_reading_by_reading_does(
            seed in any::<u64>(),
            batches in 1usize..24,
            per_agent_series in any::<bool>(),
            outside_every in 0usize..6,
        ) {
            let mut rng = SplitMix64::new(seed);
            let config = ControllerConfig { per_agent_series, ..ControllerConfig::default() };
            let (mut batched, single) = (Controller::new(config), Controller::new(config));
            let mut frames: Vec<(u32, FrameRecord)> = Vec::new();
            for batch in mixed_traffic(&mut rng, batches) {
                if outside_every > 0 && rng.next_usize(outside_every) == 0 {
                    outside_write(&mut rng, [batched.tsdb(), single.tsdb()]);
                }
                let outcome = batched.offer_at(0.0, &batch, None).expect("offer");
                if outcome == IngestOutcome::Accepted {
                    let agent = batch.agent_id;
                    let (imu, camera) = if per_agent_series {
                        (format!("imu.{agent}"), format!("camera.mean_intensity.{agent}"))
                    } else {
                        ("imu".to_string(), "camera.mean_intensity".to_string())
                    };
                    for r in &batch.readings {
                        match &r.reading {
                            SensorReading::Imu(s) => {
                                single.tsdb().insert_vector(&imu, r.timestamp, &s.to_features());
                            }
                            SensorReading::Frame(f) => single.tsdb().insert(&camera, r.timestamp, f.mean()),
                        }
                    }
                    frames.extend(batch.readings.iter().filter_map(|r| frame_record(&batch, r)));
                }
                if rng.next_usize(3) == 0 {
                    prop_assert_eq!(
                        batched.aligned_imu().map(|p| bits(&p)),
                        single.aligned_imu().map(|p| bits(&p)),
                        "seed {}", seed
                    );
                }
            }
            let tsdb = single.tsdb().fingerprint();
            prop_assert_eq!(batched.tsdb().fingerprint(), tsdb, "seed {}", seed);
            prop_assert_eq!(batched.tsdb().metrics(), single.tsdb().metrics());
            prop_assert_eq!(batched.state_digest(), digest_from_log(&batched, &frames, tsdb), "seed {}", seed);
            prop_assert_eq!(
                batched.aligned_imu().map(|p| bits(&p)),
                single.aligned_imu().map(|p| bits(&p)),
                "seed {}", seed
            );
        }
    }
}

/// The row store against the store it replaced: every vector sample as
/// one scalar point per channel.
mod tsdb_model_props {
    use std::collections::BTreeMap;

    use darnet_collect::{canonical_fingerprint_merged, Aggregation, SeriesStats, TsDb};
    use darnet_tensor::SplitMix64;
    use proptest::prelude::*;

    /// The scalar store as it was before rows: a sorted point list per
    /// name, a vector sample fanned out to `metric.<channel>`.
    #[derive(Default)]
    struct Model(BTreeMap<String, Vec<(f64, f32)>>);

    impl Model {
        fn insert(&mut self, metric: &str, t: f64, value: f32) {
            let series = self.0.entry(metric.to_string()).or_default();
            let idx = series.partition_point(|&(st, _)| st <= t);
            series.insert(idx, (t, value));
        }

        fn insert_vector(&mut self, metric: &str, t: f64, values: &[f32]) {
            for (i, &v) in values.iter().enumerate() {
                self.insert(&format!("{metric}.{i}"), t, v);
            }
        }

        fn fingerprint(&self, canonical: bool) -> u64 {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            let mut fold = |bytes: &[u8]| {
                for &b in bytes {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            };
            for (name, points) in &self.0 {
                let mut bits: Vec<(u64, u32)> = points
                    .iter()
                    .map(|&(t, v)| (t.to_bits(), v.to_bits()))
                    .collect();
                if canonical {
                    bits.sort_unstable();
                }
                fold(name.as_bytes());
                fold(&(bits.len() as u64).to_le_bytes());
                for (t, v) in bits {
                    fold(&t.to_le_bytes());
                    fold(&v.to_le_bytes());
                }
            }
            h
        }

        fn stats(points: &[(f64, f32)]) -> SeriesStats {
            let values = points.iter().map(|p| p.1);
            SeriesStats {
                count: points.len(),
                mean: (values.clone().map(f64::from).sum::<f64>() / points.len() as f64) as f32,
                min: values.clone().fold(f32::INFINITY, f32::min),
                max: values.fold(f32::NEG_INFINITY, f32::max),
                first_t: points[0].0,
                last_t: points[points.len() - 1].0,
            }
        }

        /// Point counts per 1 s bucket over `[0, 2)`, empty ones left out.
        fn counts(points: &[(f64, f32)]) -> Vec<(f64, f32)> {
            let count = |lo: f64| {
                points
                    .iter()
                    .filter(|p| (lo..lo + 1.0).contains(&p.0))
                    .count()
            };
            let buckets = [0.0, 1.0].into_iter().map(|lo| (lo, count(lo) as f32));
            buckets.filter(|b| b.1 > 0.0).collect()
        }
    }

    // Scalar names that are, are not quite, and are not a row's channel
    // name; vector names whose channels those are. `a.10` and `imu.11`
    // are channels of a 12-wide row and of no narrower one.
    const SCALARS: [&str; 11] = [
        "a", "a.1", "a.01", "a.+1", "a.1.0", "a.10", "a.12", "b", "imu.3", "imu.11", "b.",
    ];
    const VECTORS: [&str; 4] = ["a", "a.1", "b", "imu"];
    const WIDTHS: [usize; 5] = [0, 1, 2, 3, 12];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn row_store_reads_as_the_scalar_store_it_replaced(seed in any::<u64>(), ops in 1usize..60) {
            let mut rng = SplitMix64::new(seed);
            let mut model = Model::default();
            // Every op goes to `whole`, and to one of the two `halves`.
            let (whole, halves) = (TsDb::new(), [TsDb::new(), TsDb::new()]);
            for _ in 0..ops {
                // Few distinct stamps: ties and late arrivals are the rule.
                let t = rng.next_usize(8) as f64 * 0.25;
                let half = &halves[rng.next_usize(2)];
                if rng.next_usize(3) == 0 {
                    let (metric, value) = (SCALARS[rng.next_usize(SCALARS.len())], rng.normal());
                    model.insert(metric, t, value);
                    whole.insert(metric, t, value);
                    half.insert(metric, t, value);
                } else {
                    let metric = VECTORS[rng.next_usize(VECTORS.len())];
                    let width = WIDTHS[rng.next_usize(WIDTHS.len())];
                    let values: Vec<f32> = (0..width).map(|_| rng.normal()).collect();
                    model.insert_vector(metric, t, &values);
                    whole.insert_vector(metric, t, &values);
                    half.insert_vector(metric, t, &values);
                }
            }
            let names: Vec<String> = model.0.keys().cloned().collect();
            prop_assert_eq!(whole.metrics(), names, "seed {}", seed);
            prop_assert_eq!(whole.point_count(), model.0.values().map(Vec::len).sum::<usize>());
            prop_assert_eq!(whole.fingerprint(), model.fingerprint(false), "seed {}", seed);
            prop_assert_eq!(whole.canonical_fingerprint(), model.fingerprint(true), "seed {}", seed);
            let [left, right] = &halves;
            prop_assert_eq!(
                canonical_fingerprint_merged(&[left, right]),
                model.fingerprint(true),
                "seed {}", seed
            );
            for (name, points) in &model.0 {
                prop_assert_eq!(whole.len(name), points.len(), "seed {} {}", seed, name);
                prop_assert!(!whole.is_empty(name));
                prop_assert_eq!(&whole.query_range(name, -1.0, 9.0).expect("series"), points);
                let inner: Vec<_> =
                    points.iter().copied().filter(|p| (0.5..=1.25).contains(&p.0)).collect();
                prop_assert_eq!(whole.query_range(name, 0.5, 1.25).expect("series"), inner);
                prop_assert_eq!(whole.stats(name).expect("series"), Model::stats(points));
                prop_assert_eq!(
                    whole.rollup(name, 0.0, 2.0, 1.0, Aggregation::Count).expect("series"),
                    Model::counts(points)
                );
            }
            // Names nothing was stored under read as absent.
            for name in SCALARS.iter().chain(&["imu.12", "imu.03", "a.0.0", "imu"]) {
                if !model.0.contains_key(*name) {
                    prop_assert_eq!(whole.len(name), 0, "seed {} {}", seed, name);
                    prop_assert!(whole.is_empty(name) && whole.query_range(name, 0.0, 9.0).is_err());
                    prop_assert!(whole.stats(name).is_err());
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Byte identity of the write side: the run-wise encoder, decoder and
// slice-by-8 CRC against the per-byte formulations they replaced, kept
// here as references.
// ---------------------------------------------------------------------------

mod byte_identity {
    use bytes::{Buf, BufMut, Bytes, BytesMut};
    use darnet_collect::wal::crc32;
    use darnet_collect::{
        decode_batch, encode_batch, Batch, CollectError, SensorReading, StampedReading,
    };
    use darnet_sim::{Frame, ImuSample};
    use darnet_tensor::SplitMix64;
    use proptest::prelude::*;

    /// The per-byte encoder: one `put` and one `round` per pixel.
    fn reference_encode(batch: &Batch) -> Vec<u8> {
        let mut buf = BytesMut::new();
        buf.put_u32(batch.agent_id);
        buf.put_u32(batch.seq);
        buf.put_u32(batch.readings.len() as u32);
        for r in &batch.readings {
            buf.put_f64(r.timestamp);
            match &r.reading {
                SensorReading::Imu(s) => {
                    buf.put_u8(0);
                    for v in s.to_features() {
                        buf.put_f32(v);
                    }
                }
                SensorReading::Frame(f) => {
                    buf.put_u8(1);
                    buf.put_u16(f.width() as u16);
                    buf.put_u16(f.height() as u16);
                    for &p in f.pixels() {
                        buf.put_u8((p.clamp(0.0, 1.0) * 255.0).round() as u8);
                    }
                }
            }
        }
        buf.to_vec()
    }

    /// The per-byte decoder, messages and all.
    fn reference_decode(mut data: Bytes) -> Result<Batch, String> {
        fn need(data: &Bytes, n: usize, what: &str) -> Result<(), String> {
            if data.remaining() < n {
                Err(format!("truncated batch while reading {what}"))
            } else {
                Ok(())
            }
        }
        need(&data, 12, "header")?;
        let agent_id = data.get_u32();
        let seq = data.get_u32();
        let count = data.get_u32() as usize;
        let mut readings = Vec::new();
        for _ in 0..count {
            need(&data, 9, "reading header")?;
            let timestamp = data.get_f64();
            if !timestamp.is_finite() {
                return Err(format!("non-finite reading timestamp {timestamp}"));
            }
            let reading = match data.get_u8() {
                0 => {
                    need(&data, 12 * 4, "imu payload")?;
                    let mut feats = [0.0f32; ImuSample::FEATURES];
                    for f in &mut feats {
                        *f = data.get_f32();
                    }
                    if !feats.iter().all(|f| f.is_finite()) {
                        return Err(format!("non-finite imu features {feats:?}"));
                    }
                    SensorReading::Imu(ImuSample::from_features(&feats))
                }
                1 => {
                    need(&data, 4, "frame header")?;
                    let w = data.get_u16() as usize;
                    let h = data.get_u16() as usize;
                    need(&data, w * h, "frame pixels")?;
                    let mut pixels = Vec::with_capacity(w * h);
                    for _ in 0..w * h {
                        pixels.push(data.get_u8() as f32 / 255.0);
                    }
                    SensorReading::Frame(Frame::from_pixels(w, h, pixels))
                }
                other => return Err(format!("unknown reading kind {other}")),
            };
            readings.push(StampedReading { timestamp, reading });
        }
        Ok(Batch {
            agent_id,
            seq,
            readings,
        })
    }

    /// The bytewise one-table CRC-32 (IEEE).
    fn reference_crc32(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    /// Every bit a decoded batch carries, so `-0.0` and `0.0` differ.
    fn bits(batch: &Batch) -> Vec<u64> {
        let mut out = vec![u64::from(batch.agent_id), u64::from(batch.seq)];
        for r in &batch.readings {
            out.push(r.timestamp.to_bits());
            match &r.reading {
                SensorReading::Imu(s) => {
                    out.extend(s.to_features().iter().map(|f| u64::from(f.to_bits())));
                }
                SensorReading::Frame(f) => {
                    out.extend([f.width() as u64, f.height() as u64]);
                    out.extend(f.pixels().iter().map(|p| u64::from(p.to_bits())));
                }
            }
        }
        out
    }

    /// Bit patterns an IMU feature or a stamp takes: arbitrary bits, the
    /// non-finite values, signed zeros and subnormals.
    fn any_f32(rng: &mut SplitMix64) -> f32 {
        match rng.next_usize(8) {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            3 => -0.0,
            4 => f32::from_bits(rng.next_u64() as u32 & 0x807F_FFFF),
            5 => rng.uniform(-20.0, 20.0),
            _ => f32::from_bits(rng.next_u64() as u32),
        }
    }

    /// A pixel: arbitrary bits, or within 4 ulps of a quantisation level
    /// `k/255` or of a tie `(k + 0.5)/255`.
    fn any_pixel(rng: &mut SplitMix64) -> f32 {
        let k = rng.next_usize(256) as f32;
        let centre = match rng.next_usize(4) {
            0 => return f32::from_bits(rng.next_u64() as u32),
            1 => k / 255.0,
            _ => (k + 0.5) / 255.0,
        };
        let ulps = rng.next_usize(9) as i32 - 4;
        f32::from_bits(centre.to_bits().wrapping_add_signed(ulps))
    }

    fn any_batch(rng: &mut SplitMix64) -> Batch {
        let readings = (0..rng.next_usize(6))
            .map(|_| {
                let timestamp = if rng.next_usize(4) == 0 {
                    f64::from(any_f32(rng))
                } else {
                    rng.next_f64() * 100.0
                };
                let reading = if rng.next_usize(2) == 0 {
                    let mut feats = [0.0f32; ImuSample::FEATURES];
                    for f in &mut feats {
                        *f = any_f32(rng);
                    }
                    SensorReading::Imu(ImuSample::from_features(&feats))
                } else {
                    let (w, h) = (rng.next_usize(65), rng.next_usize(65));
                    let pixels = (0..w * h).map(|_| any_pixel(rng)).collect();
                    SensorReading::Frame(Frame::from_pixels(w, h, pixels))
                };
                StampedReading { timestamp, reading }
            })
            .collect();
        Batch {
            agent_id: rng.next_u64() as u32,
            seq: rng.next_u64() as u32,
            readings,
        }
    }

    /// The new decoder's result in the reference's terms.
    fn decoded(data: Bytes) -> Result<Vec<u64>, String> {
        match decode_batch(data) {
            Ok(batch) => Ok(bits(&batch)),
            Err(CollectError::Decode(msg)) => Err(msg),
            Err(other) => Err(format!("not a decode error: {other}")),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn encoding_equals_the_per_byte_reference(seed in any::<u64>()) {
            let batch = any_batch(&mut SplitMix64::new(seed));
            let expected = reference_encode(&batch);
            prop_assert_eq!(&encode_batch(&batch)[..], &expected[..]);
        }

        #[test]
        fn decoding_equals_the_per_byte_reference_at_any_cut_or_poison(
            seed in any::<u64>(),
            cuts in prop::collection::vec(any::<usize>(), 8),
            poison in any::<u64>(),
        ) {
            let mut rng = SplitMix64::new(seed);
            let wire = reference_encode(&any_batch(&mut rng));
            // The whole batch, a prefix of it, and one byte overwritten.
            let mut inputs = vec![wire.clone()];
            inputs.extend(cuts.iter().map(|c| wire[..c % (wire.len() + 1)].to_vec()));
            let mut poisoned = wire.clone();
            let at = (poison as usize) % poisoned.len();
            poisoned[at] = (poison >> 32) as u8;
            inputs.push(poisoned);
            for input in inputs {
                let expected = reference_decode(Bytes::from(input.clone())).map(|b| bits(&b));
                prop_assert_eq!(decoded(Bytes::from(input)), expected);
            }
        }
    }

    #[test]
    fn every_tie_neighbourhood_quantises_as_round_does() {
        let mut pixels = Vec::new();
        for k in 0..256 {
            for centre in [k as f32 / 255.0, (k as f32 + 0.5) / 255.0] {
                for ulps in -4..=4 {
                    pixels.push(f32::from_bits(centre.to_bits().wrapping_add_signed(ulps)));
                }
            }
        }
        pixels.extend([f32::NAN, -f32::NAN, -0.0, 1.5, -1.5, f32::INFINITY]);
        let batch = Batch {
            agent_id: 1,
            seq: 2,
            readings: vec![StampedReading {
                timestamp: 0.5,
                reading: SensorReading::Frame(Frame::from_pixels(pixels.len(), 1, pixels)),
            }],
        };
        assert_eq!(&encode_batch(&batch)[..], &reference_encode(&batch)[..]);
    }

    #[test]
    fn each_byte_decodes_to_its_level_bit_for_bit() {
        let mut wire = BytesMut::new();
        wire.put_u32(0);
        wire.put_u32(0);
        wire.put_u32(1);
        wire.put_f64(0.0);
        wire.put_u8(1);
        wire.put_u16(256);
        wire.put_u16(1);
        for b in 0..=255u8 {
            wire.put_u8(b);
        }
        let batch = decode_batch(wire.freeze()).unwrap();
        let frame = batch.readings[0].reading.as_frame().unwrap();
        for (b, p) in (0..=255u8).zip(frame.pixels()) {
            assert_eq!(p.to_bits(), (b as f32 / 255.0).to_bits(), "byte {b}");
        }
    }

    #[test]
    fn crc32_equals_the_bytewise_reference_at_every_length_and_offset() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(&[]), 0);
        let mut rng = SplitMix64::new(0xC4C32);
        let data: Vec<u8> = (0..4096 + 8).map(|_| rng.next_u64() as u8).collect();
        for start in 0..8 {
            for len in 0..=4096 {
                let run = &data[start..start + len];
                assert_eq!(crc32(run), reference_crc32(run), "start {start} len {len}");
            }
        }
    }
}
