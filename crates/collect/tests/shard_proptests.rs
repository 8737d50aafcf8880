//! Property-based tests for the sharding invariants of DESIGN.md §14:
//! routing stability, shard-count transparency of the merged canonical
//! TSDB digest, and the backpressure rollup's monotonicity.

use std::collections::BTreeMap;

use darnet_collect::{
    fleet_signal, shard_of, Batch, Controller, ControllerConfig, FleetAdmission, SensorReading,
    ShardConfig, ShardedController, StampedReading,
};
use darnet_sim::ImuSample;
use proptest::prelude::*;

fn imu_batch(agent: u32, seq: u32, t: f64) -> Batch {
    Batch {
        agent_id: agent,
        seq,
        readings: vec![
            StampedReading {
                timestamp: t,
                reading: SensorReading::Imu(ImuSample {
                    accel: [t as f32, agent as f32, 9.8],
                    gyro: [seq as f32 * 0.1, 0.0, 0.0],
                    gravity: [0.0, 0.0, 9.8],
                    rotation: [0.0; 3],
                }),
            },
            StampedReading {
                timestamp: t + 0.1,
                reading: SensorReading::Imu(ImuSample {
                    accel: [t as f32 + 1.0, agent as f32, 9.8],
                    gyro: [0.0; 3],
                    gravity: [0.0, 0.0, 9.8],
                    rotation: [0.0; 3],
                }),
            },
        ],
    }
}

/// Seeded arbitrary traffic: per-agent monotone seq, arbitrary
/// interleaving across agents.
fn traffic_from(plan: &[(u8, u8)]) -> Vec<(f64, Batch)> {
    let mut next_seq: BTreeMap<u32, u32> = BTreeMap::new();
    let mut out = Vec::with_capacity(plan.len());
    for (i, &(agent, jitter)) in plan.iter().enumerate() {
        let agent = agent as u32;
        let seq = *next_seq.entry(agent).or_insert(0);
        next_seq.insert(agent, seq + 1);
        let at = i as f64 * 0.05 + jitter as f64 * 1e-4;
        out.push((at, imu_batch(agent, seq, at)));
    }
    out
}

proptest! {
    /// The same agent always routes to the same shard, and the result is
    /// always in range — for any shard count.
    #[test]
    fn routing_is_stable_and_in_range(
        agents in prop::collection::vec(any::<u32>(), 1..64),
        shards in 1usize..32,
    ) {
        for &agent in &agents {
            let s = shard_of(agent, shards);
            prop_assert!(s < shards);
            prop_assert_eq!(s, shard_of(agent, shards));
        }
    }

    /// Shard-count transparency: for ANY interleaved per-agent traffic
    /// and ANY shard count, the merged canonical TSDB digest, ingest
    /// counters, and per-stream healths equal a single controller's fed
    /// the same offers in the same order. Per-agent sample ordering
    /// survives sharding because each agent's stream lives wholly inside
    /// one shard's FIFO.
    #[test]
    fn merged_digest_matches_single_controller(
        plan in prop::collection::vec((0u8..12, 0u8..50), 1..80),
        shards in 1usize..9,
    ) {
        let traffic = traffic_from(&plan);

        let mut single = Controller::new(ControllerConfig::default());
        for (at, batch) in &traffic {
            single.offer_at(*at, batch, None).expect("single ingest");
        }

        let mut sharded = ShardedController::new(ShardConfig {
            shards,
            ..ShardConfig::default()
        }).expect("config");
        for (at, batch) in &traffic {
            sharded.offer_at(*at, batch);
        }
        sharded.drain().expect("drain");

        prop_assert_eq!(
            sharded.tsdb_digest(),
            single.tsdb().canonical_fingerprint()
        );
        prop_assert_eq!(sharded.ingest_stats(), single.ingest_stats());
        let mut single_healths = single.stream_healths();
        single_healths.sort_by_key(|h| h.agent_id);
        prop_assert_eq!(sharded.stream_healths(), single_healths);
    }

    /// The backpressure rollup is monotone: more queue fill or more
    /// shedding never yields a LESS severe signal.
    #[test]
    fn backpressure_signal_is_monotone(
        q1 in 0.0f64..1.0, q2 in 0.0f64..1.0,
        s1 in 0.0f64..1.0, s2 in 0.0f64..1.0,
    ) {
        let (qlo, qhi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let (slo, shi) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
        prop_assert!(fleet_signal(qlo, slo) <= fleet_signal(qhi, shi));
        prop_assert_eq!(fleet_signal(0.0, 0.0), FleetAdmission::Accept);
        prop_assert_eq!(fleet_signal(1.0, 1.0), FleetAdmission::Shed);
    }
}
