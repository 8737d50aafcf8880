//! Golden digests and counts of seeded runs of the three discrete-event
//! loops.
//!
//! Every other determinism test in this crate compares two runs of the
//! same binary, so it cannot see a change that reorders events or RNG
//! draws consistently. These digests and counts are pinned constants: a
//! refactor of the session or fleet loop must reproduce them bit for bit.
//! Two of them are the scenarios of the crash-recovery timing harness
//! (`bench_chaos`) and of the fleet-scale ingest run, whose every
//! seeded number is held here.

use std::sync::Arc;

use darnet_collect::runtime::{
    run_session, CampaignConfig, ChaosReport, CrashWindow, Durability, Recording,
};
use darnet_collect::wal::{self, MemStorage, WalConfig, WalStorage};
use darnet_collect::{
    decode_batch, encode_batch, replay_into, run_fleet, AdmissionConfig, AlignedImuPoint, Batch,
    Controller, ControllerConfig, FaultConfig, FleetAdmission, FleetConfig, FleetReport,
    FrameRecord, LinkConfig, LinkStats, SensorReading, ShardConfig, SpillStats, StampedReading,
    StreamHealth, StreamId, TransportStats,
};
use darnet_sim::{CanonicalBehavior, DrivingWorld, Frame, ImuSample, Segment, WorldConfig};

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
            c.recovery.records_replayed,
            c.recovery.torn_tail_bytes,
            c.deliveries_while_down,
            c.acked,
            c.acked_lost,
            c.shed_batches,
            c.wal.appends,
            c.wal.bytes_appended,
            c.wal.segments_rolled,
            c.wal.snapshots_taken,
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

/// Two controller outages, a 1 s one mid-session and a shorter one near
/// the end, each torn by 13 garbage bytes at the tail of the log, which
/// rolls every 8 records and checkpoints every 20.
fn two_crashes(storage: Option<Arc<MemStorage>>) -> Durability {
    Durability {
        storage: storage.map(|s| s as Arc<dyn WalStorage>),
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
    }
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
    let durability = two_crashes(Some(Arc::new(MemStorage::new())));
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
fn chaos_session_counts_are_pinned() {
    // `bench_chaos`'s scenario: the pair at the default seed over 5 % loss
    // on every link, through two torn crashes; then, without crashes, a
    // starved admission bucket.
    let world = world();
    let script = segments(
        &[CanonicalBehavior::NormalDriving, CanonicalBehavior::Texting],
        5.0,
    );
    let session = |config: &CampaignConfig, durability: &Durability| {
        let streams = StreamId::DARNET_PAIR;
        run_session(&world, 0, &script, config, &streams, &[], durability).unwrap()
    };
    let mut config = CampaignConfig::default();
    config.link.loss = 0.05;

    let storage = Arc::new(MemStorage::new());
    let rec = session(&config, &two_crashes(Some(Arc::clone(&storage))));
    let c = rec.chaos;
    // Both outages recovered, and each repaired its 13 torn bytes.
    assert_eq!((c.recoveries, c.recovery.torn_tail_bytes), (2, 26));
    // Every batch an agent saw acked survived both crashes, and
    // retransmission closed every gap.
    assert_eq!((c.acked, c.acked_lost), (41, 0));
    assert!(rec.lossless());
    assert_eq!(
        (c.recovery.records_replayed, c.deliveries_while_down),
        (36, 15)
    );
    assert_eq!(
        (c.wal.appends, c.wal.bytes_appended, c.wal.snapshots_taken),
        (41, 118_986, 2)
    );

    // Determinism: a second run against a fresh store records the same
    // session, and the two logs replay to the same controller state.
    let twin_storage = Arc::new(MemStorage::new());
    let twin = session(&config, &two_crashes(Some(Arc::clone(&twin_storage))));
    assert!(twin == rec, "the chaos session is not deterministic");
    let replayed = |storage: &MemStorage| {
        let mut controller = Controller::new(config.controller);
        replay_into(&mut controller, storage).unwrap();
        controller.state_digest()
    };
    assert_eq!(replayed(&storage), replayed(&twin_storage));

    // The control: the same crashes without a WAL lose acked batches, so
    // the zero above is the log's doing.
    assert_eq!(session(&config, &two_crashes(None)).chaos.acked_lost, 26);

    // Overload: the starved bucket sheds, frames before IMU batches.
    let mut overload = CampaignConfig::default();
    overload.controller.admission = AdmissionConfig {
        enabled: true,
        capacity: 64.0,
        drain_per_sec: 24.0,
        low_priority_reserve: 32.0,
    };
    let rec = session(&overload, &Durability::default());
    assert_eq!(rec.chaos.shed_batches, 132);
    let shed = |stream| rec.stream(stream).unwrap().health.unwrap().shed_ratio();
    let (imu, camera) = (shed(StreamId::IMU), shed(StreamId::CAMERA_FRONT));
    assert!(imu < camera, "IMU shed {imu} ≥ camera shed {camera}");
    assert_eq!((imu, camera), (76.0 / 110.0, 94.0 / 95.0));
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

/// The fleet-scale run: 10 000 vehicles for 6 s on the default fleet
/// seed and links, into `shards` shards behind queues that absorb a whole
/// drain tick, each vehicle on series of its own.
fn ten_thousand_agents(shards: usize) -> (FleetConfig, ShardConfig) {
    let config = FleetConfig {
        agents: 10_000,
        session_seconds: 6.0,
        ..FleetConfig::default()
    };
    let shard_config = ShardConfig {
        shards,
        queue_limit: 65_536,
        controller: ControllerConfig {
            per_agent_series: true,
            ..ControllerConfig::default()
        },
    };
    (config, shard_config)
}

/// What the fleet-scale run pins at any shard count.
fn assert_fleet_ingest(r: &FleetReport) {
    let ingest = (r.readings_ingested, r.deliveries, r.queue_shed);
    assert_eq!(ingest, (240_000, 69_373, 0));
    assert_eq!(
        (r.peak_signal, r.wire_bytes),
        (FleetAdmission::Accept, 18_369_523)
    );
    // The merged TSDB is the same at any shard count.
    assert_eq!(
        r.tsdb_digest, 0x7452_34DE_DF42_5207,
        "tsdb digest {:#018X}",
        r.tsdb_digest
    );
}

#[test]
fn ten_thousand_agent_fleet_on_one_shard_is_pinned() {
    let (config, shards) = ten_thousand_agents(1);
    let (_, r) = run_fleet(&config, shards).unwrap();
    assert_fleet_ingest(&r);
}

#[test]
fn ten_thousand_agent_fleet_on_eight_shards_is_pinned() {
    let (config, shards) = ten_thousand_agents(8);
    let (_, r) = run_fleet(&config, shards).unwrap();
    assert_fleet_ingest(&r);
    // The retry budget covers the baseline loss at fleet scale.
    assert_eq!((r.acked, r.retransmits, r.abandoned), (58_772, 10_908, 0));
    assert_eq!((r.deferred_flushes, r.bytes_per_agent), (0, 2045));
    // Simulated seconds, so exact.
    let latency = (r.ack_latency_p50, r.ack_latency_p99, r.ack_latency_max);
    let pinned = (
        0.169_449_985_102_457_57,
        0.412_963_036_845_605_2,
        1.147_239_959_252_102_5,
    );
    assert_eq!(latency, pinned);
}

#[test]
fn lossy_fleet_spends_its_retry_budget() {
    // At 30 % loss each way a round trip fails about half the time, so
    // one batch in eight needs a third retry: these counts move with the
    // agents' retry budget, which the fleet runs above at 1 % loss never
    // reach. The grace outlasts every backoff, so no batch is left in
    // flight: each one is acked or abandoned.
    let mut config = FleetConfig {
        agents: 60,
        session_seconds: 6.0,
        drain_grace: 200.0,
        ..FleetConfig::default()
    };
    config.link.loss = 0.3;
    let (_, r) = run_fleet(&config, ShardConfig::default()).unwrap();
    let counts = (r.retransmits, r.abandoned, r.acked);
    assert_eq!(counts, (351, 0, 348), "{counts:?}");
    assert_eq!(r.acked + r.abandoned, r.batches_flushed);
}

/// IMU features of reading `k`: ordinary values plus `-0.0`, a
/// subnormal and values near `f32::MAX`.
fn golden_features(k: u32) -> [f32; ImuSample::FEATURES] {
    let mut f = [0.0f32; ImuSample::FEATURES];
    for (c, v) in f.iter_mut().enumerate() {
        let x = (k * 12 + c as u32) as f32;
        *v = (x * 0.173).fract() * 19.6 - 9.8;
    }
    match k % 4 {
        0 => f[1] = -0.0,
        1 => f[4] = f32::from_bits(0x0000_0003),
        2 => f[7] = f32::MAX * 0.75,
        _ => f[10] = -1e-38,
    }
    f
}

/// A 48×48 frame whose pixels run below 0, above 1, and through every
/// `(k + 0.5) / 255` tie of the 8-bit quantiser.
fn golden_frame(seed: u32) -> Frame {
    const EDGE: usize = 48;
    let pixels = (0..EDGE * EDGE)
        .map(|i| {
            let i = i as u32 + seed * 131;
            if i.is_multiple_of(3) {
                ((i / 3 % 256) as f32 + 0.5) / 255.0
            } else {
                (i * 7 % 600) as f32 / 510.0 - 0.05
            }
        })
        .collect();
    Frame::from_pixels(EDGE, EDGE, pixels)
}

#[test]
fn wal_object_bytes_are_pinned() {
    // IMU batches from agent 0, one 48×48 frame a batch from agent 1:
    // twelve records, one roll at six records and one checkpoint at ten.
    let storage = Arc::new(MemStorage::new());
    let (mut controller, mut log, _) = wal::open(
        ControllerConfig::default(),
        Arc::clone(&storage) as Arc<dyn WalStorage>,
        WalConfig {
            segment_max_records: 6,
            snapshot_every: 10,
        },
    )
    .unwrap();
    for n in 0..12u32 {
        let (agent_id, seq) = (n % 2, n / 2);
        let readings = if agent_id == 0 {
            (0..20)
                .map(|i| StampedReading {
                    timestamp: f64::from(seq * 20 + i) * 0.025,
                    reading: SensorReading::Imu(ImuSample::from_features(&golden_features(
                        seq * 20 + i,
                    ))),
                })
                .collect()
        } else {
            vec![StampedReading {
                timestamp: f64::from(seq) * 0.25,
                reading: SensorReading::Frame(golden_frame(seq)),
            }]
        };
        // What the controller is handed: the batch as the wire decodes it.
        let batch = decode_batch(encode_batch(&Batch {
            agent_id,
            seq,
            readings,
        }))
        .unwrap();
        let arrival = f64::from(n) * 0.125;
        controller
            .offer_at(arrival, &batch, Some(&mut log))
            .unwrap();
        // A redelivery is deduplicated, not logged.
        controller
            .offer_at(arrival, &batch, Some(&mut log))
            .unwrap();
        if log.needs_snapshot() {
            log.snapshot(&controller).unwrap();
        }
    }
    let stats = log.stats();
    assert_eq!((stats.appends, stats.segments_rolled), (12, 1));
    assert_eq!(stats.snapshots_taken, 1);

    let mut h = Fnv::new();
    let names = storage.list().unwrap();
    assert_eq!(names, ["seg-00000000", "seg-00000001", "seg-00000002"]);
    for name in &names {
        let bytes = storage.read(name).unwrap();
        h.bytes(name.as_bytes());
        h.u64(bytes.len() as u64);
        h.bytes(&bytes);
    }
    assert_eq!(
        h.0, 0x3734_29F2_ACC6_FCFF,
        "wal object digest {:#018X}",
        h.0
    );

    // And the log reads back as the state that wrote it.
    let (replayed, _, report) = wal::open(
        ControllerConfig::default(),
        storage as Arc<dyn WalStorage>,
        WalConfig::default(),
    )
    .unwrap();
    assert_eq!(report.records_replayed, 12);
    assert_eq!(replayed.state_digest(), controller.state_digest());
}
