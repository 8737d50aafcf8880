//! Property-based tests for middleware invariants: interpolation bounds,
//! smoothing bounds, clock-sync convergence, wire-format roundtrips.

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
    fn decoder_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        // Must return Ok or Err — never panic.
        let _ = decode_batch(Bytes::from(bytes));
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
    use darnet_collect::{RetransmitConfig, StreamId};
    use darnet_sim::{Behavior, DrivingWorld, Segment, WorldConfig};
    use proptest::prelude::*;
    use std::sync::Arc;

    fn schedule() -> Vec<Segment<Behavior>> {
        vec![
            Segment {
                driver: 0,
                behavior: Behavior::NormalDriving,
                start: 0.0,
                duration: 2.0,
            },
            Segment {
                driver: 0,
                behavior: Behavior::Texting,
                start: 2.0,
                duration: 2.0,
            },
        ]
    }

    fn faulty_config(seed: u64, loss: f64, jitter: f64, duplicate: f64) -> CampaignConfig {
        // Generous drain so worst-case backoff chains can finish; a faster
        // initial RTO keeps the chains short.
        let mut config = CampaignConfig {
            seed,
            drain_grace: 25.0,
            ..CampaignConfig::default()
        };
        config.link.loss = loss;
        config.link.jitter = jitter;
        config.link.faults.duplicate = duplicate;
        config.retransmit.ack_timeout = 0.15;
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
            config.retransmit = RetransmitConfig::disabled();
            let rec = pair_session(&config);
            // Dedupe holds even without acks: duplication can never inflate
            // the recording past what was polled.
            prop_assert!(rec.readings_ingested <= rec.readings_polled());
            prop_assert!(rec.imu.windows(2).all(|w| w[0].t < w[1].t));
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
