//! Golden digests of seeded runs of the three discrete-event loops.
//!
//! Every other determinism test in this crate compares two runs of the
//! same binary, so it cannot see a change that reorders events or RNG
//! draws consistently. These digests are pinned constants: a refactor of
//! the session or fleet loop must reproduce them bit for bit.

use std::sync::Arc;

use darnet_collect::runtime::{
    run_session, CampaignConfig, ChaosReport, CrashWindow, Durability, Recording,
};
use darnet_collect::wal::{MemStorage, WalConfig, WalStorage};
use darnet_collect::{
    run_fleet, AlignedImuPoint, ControllerConfig, FaultConfig, FleetConfig, FrameRecord,
    LinkConfig, LinkStats, ShardConfig, SpillStats, StreamHealth, StreamId, TransportStats,
};
use darnet_sim::{CanonicalBehavior, DrivingWorld, Segment, WorldConfig};

/// FNV-1a accumulator over the little-endian bytes of whatever is fed in.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn imu(&mut self, points: &[AlignedImuPoint]) {
        self.u64(points.len() as u64);
        for p in points {
            self.f64(p.t);
            for v in &p.features {
                self.bytes(&v.to_bits().to_le_bytes());
            }
        }
    }

    fn frames(&mut self, frames: &[FrameRecord]) {
        self.u64(frames.len() as u64);
        for fr in frames {
            self.f64(fr.t);
            for p in fr.frame.pixels() {
                self.bytes(&p.to_bits().to_le_bytes());
            }
        }
    }

    fn transport(&mut self, s: &TransportStats) {
        for v in [
            s.transmitted,
            s.retransmits,
            s.acked,
            s.abandoned,
            s.backpressure_events,
            s.duplicate_acks,
        ] {
            self.u64(v);
        }
    }

    fn link(&mut self, s: &LinkStats) {
        for v in [s.sent, s.lost, s.duplicated, s.blackout_drops] {
            self.u64(v);
        }
    }

    fn spill(&mut self, s: &SpillStats) {
        self.u64(s.peak_buffered as u64);
        self.u64(0); // readings dropped oldest-first: always zero, policy retired
    }

    fn health(&mut self, h: &Option<StreamHealth>) {
        match h {
            None => self.u64(u64::MAX),
            Some(h) => {
                self.u64(u64::from(h.agent_id));
                self.u64(h.delivered);
                self.u64(h.duplicates);
                self.u64(u64::from(h.highest_seq));
                self.u64(h.gaps);
                self.f64(h.last_arrival);
                self.u64(h.shed);
            }
        }
    }

    fn chaos(&mut self, c: &ChaosReport) {
        for v in [
            c.recoveries,
            c.replayed_records,
            c.torn_tail_bytes_discarded,
            c.deliveries_while_down,
            c.acked,
            c.acked_lost,
            c.shed_batches,
            c.wal_appends,
            c.wal_bytes,
            c.wal_segments_rolled,
            c.wal_snapshots,
            0, // readings dropped oldest-first: always zero, policy retired
            c.spill_peak as u64,
        ] {
            self.u64(v);
        }
    }

    /// The pair's transport accounting, counter family by counter
    /// family across the per-stream rows.
    fn session_transport(&mut self, rec: &Recording) {
        for row in &rec.streams {
            self.transport(&row.transport);
        }
        for row in &rec.streams {
            self.link(&row.link);
        }
        for row in &rec.streams {
            self.health(&row.health);
        }
        self.u64(rec.readings_polled());
        self.u64(rec.readings_ingested);
        for row in &rec.streams {
            self.spill(&row.spill);
        }
    }
}

fn world() -> Arc<DrivingWorld> {
    Arc::new(DrivingWorld::new(WorldConfig::default()))
}

fn segments(behaviors: &[CanonicalBehavior], each: f64) -> Vec<Segment<CanonicalBehavior>> {
    behaviors
        .iter()
        .enumerate()
        .map(|(i, &behavior)| Segment {
            driver: 0,
            behavior,
            start: i as f64 * each,
            duration: each,
        })
        .collect()
}

#[test]
fn durable_pair_session_digest_is_pinned() {
    // Loss and duplication on every link; two controller kills with torn
    // tails on the WAL.
    let mut config = CampaignConfig {
        seed: 0x60_1D_E2,
        ..CampaignConfig::default()
    };
    config.link.loss = 0.08;
    config.link.faults.duplicate = 0.1;
    let durability = Durability {
        storage: Some(Arc::new(MemStorage::new()) as Arc<dyn WalStorage>),
        wal: WalConfig {
            segment_max_records: 8,
            snapshot_every: 20,
        },
        crashes: vec![
            CrashWindow {
                kill_t: 3.0,
                restart_t: 4.0,
            },
            CrashWindow {
                kill_t: 7.0,
                restart_t: 7.75,
            },
        ],
        torn_tail_bytes: 13,
    };
    let script = segments(
        &[
            CanonicalBehavior::NormalDriving,
            CanonicalBehavior::Texting,
            CanonicalBehavior::Reaching,
        ],
        4.0,
    );
    let rec = run_session(
        &world(),
        0,
        &script,
        &config,
        &StreamId::DARNET_PAIR,
        &[],
        &durability,
    )
    .unwrap();
    let chaos = rec.chaos;
    let imu = &rec.streams[0];
    assert_eq!(chaos.recoveries, 2);
    assert_eq!(chaos.acked_lost, 0);
    assert!(chaos.deliveries_while_down > 0 && imu.transport.retransmits > 0);

    let mut h = Fnv::new();
    h.imu(&rec.imu);
    h.frames(rec.frames_for(StreamId::CAMERA_FRONT));
    h.f64(imu.max_clock_error);
    h.chaos(&chaos);
    h.session_transport(&rec);
    assert_eq!(
        h.0, 0xE467_7FED_CEE0_1F2A,
        "durable pair session digest {:#018X}",
        h.0
    );
}

#[test]
fn canonical_three_stream_session_digest_is_pinned() {
    // The seed carries the constant the retired 3-stream front-end mixed
    // in, so the pinned digest below is the one it produced.
    let mut config = CampaignConfig {
        seed: 0x60_1D_E3 ^ 0xCA40_0515_0A11_ED00,
        ..CampaignConfig::default()
    };
    config.link.loss = 0.03;
    let noisy_front = LinkConfig {
        loss: 0.2,
        faults: FaultConfig {
            blackout: Some((5.0, 6.5)),
            duplicate: 0.15,
        },
        ..LinkConfig::default()
    };
    let script = segments(
        &[
            CanonicalBehavior::NormalDriving,
            CanonicalBehavior::HeadDroop,
            CanonicalBehavior::Texting,
        ],
        4.0,
    );
    let streams = [StreamId::IMU, StreamId::CAMERA_FRONT, StreamId::CAMERA_SIDE];
    let rec = run_session(
        &world(),
        0,
        &script,
        &config,
        &streams,
        &[(StreamId::CAMERA_FRONT, noisy_front)],
        &Durability::default(),
    )
    .unwrap();
    let front = rec.stream(StreamId::CAMERA_FRONT).unwrap();
    assert!(front.health.unwrap().duplicates > 0);

    let mut h = Fnv::new();
    h.imu(&rec.imu);
    for (stream, frames) in &rec.frames {
        h.u64(u64::from(stream.0));
        h.frames(frames);
    }
    for row in &rec.streams {
        h.u64(u64::from(row.stream.0));
        h.health(&row.health);
    }
    h.f64(
        rec.streams
            .iter()
            .map(|r| r.max_clock_error)
            .fold(0.0, f64::max),
    );
    assert_eq!(
        h.0, 0x9C9B_5974_67E7_D7CE,
        "canonical session digest {:#018X}",
        h.0
    );
}

#[test]
fn small_fleet_digest_is_pinned() {
    // The scale of loadgen's own `small_config()` unit tests.
    let config = FleetConfig {
        agents: 60,
        session_seconds: 6.0,
        ..FleetConfig::default()
    };
    let shards = ShardConfig {
        shards: 4,
        controller: ControllerConfig {
            per_agent_series: true,
            ..ControllerConfig::default()
        },
        ..ShardConfig::default()
    };
    let (_, report) = run_fleet(&config, shards).unwrap();
    assert_eq!(
        report.tsdb_digest, 0x6451_612A_8C88_0AD2,
        "fleet tsdb digest {:#018X}",
        report.tsdb_digest
    );
    // The transport side of the same run: event order decides every one
    // of these.
    let mut h = Fnv::new();
    for v in [
        report.readings_polled,
        report.batches_flushed,
        report.deliveries,
        report.duplicates,
        report.batches_accepted,
        report.readings_ingested,
        report.retransmits,
        report.acked,
        report.wire_bytes,
    ] {
        h.u64(v);
    }
    h.f64(report.ack_latency_p50);
    h.f64(report.ack_latency_p99);
    h.f64(report.ack_latency_max);
    assert_eq!(
        h.0, 0xC7D8_F8DA_4DE3_765E,
        "fleet transport digest {:#018X}",
        h.0
    );
}
