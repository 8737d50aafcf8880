//! Property-based tests for the WAL: append→replay round-trip identity,
//! idempotent double replay, crash-at-any-byte truncation tolerance
//! (checkpoint records included), and the premise the append-only log
//! rests on — a log written through the ingest door never holds one
//! `(agent, seq)` twice.
//!
//! All properties run over [`MemStorage`] so a "crash" is just byte
//! surgery on the stored segment — no filesystem, fully deterministic.

use std::sync::Arc;

use darnet_collect::wal;
use darnet_collect::{
    decode_batch, encode_batch, replay_into, AdmissionConfig, Batch, Controller, ControllerConfig,
    IngestOutcome, MemStorage, SensorReading, StampedReading, WalConfig, WalStorage,
};
use darnet_sim::{Frame, ImuSample};
use proptest::prelude::*;

const AGENT: u32 = 7;

/// An IMU batch sent through the wire codec, so the bytes the WAL stores
/// are exactly what a real delivery would carry (replay is then bitwise
/// identical to live ingestion).
#[allow(clippy::expect_used)] // test helper: a failed expect IS the test failing
fn imu_batch(seq: u32, t0: f64, n: usize) -> Batch {
    let batch = Batch {
        agent_id: AGENT,
        seq,
        readings: (0..n)
            .map(|i| StampedReading {
                timestamp: t0 + i as f64 * 0.025,
                reading: SensorReading::Imu(ImuSample {
                    accel: [t0 as f32, seq as f32, 9.8],
                    gyro: [0.1, 0.2, 0.3],
                    gravity: [0.0, 0.0, 9.81],
                    rotation: [1.0, 0.0, 0.0],
                }),
            })
            .collect(),
    };
    decode_batch(encode_batch(&batch)).expect("wire round-trip")
}

/// Builds a log on `storage`: one batch per entry in `sizes`, snapshotting
/// whenever the cadence asks. Every third batch is delivered twice, as a
/// lossy ack link makes routine: the duplicate is refused, never logged,
/// and only a snapshot carries its tally — so a recovery sees fewer
/// duplicates than the live controller did. Returns the live controller
/// for digest comparison.
#[allow(clippy::expect_used)] // test helper: a failed expect IS the test failing
fn build_log(storage: &Arc<dyn WalStorage>, config: WalConfig, sizes: &[usize]) -> Controller {
    let (mut live, mut wal, _) =
        wal::open(ControllerConfig::default(), Arc::clone(storage), config).expect("open");
    for (i, &n) in sizes.iter().enumerate() {
        let arrival = i as f64 * 0.2;
        let batch = imu_batch(i as u32, arrival, n);
        live.offer_at(arrival, &batch, Some(&mut wal))
            .expect("offer");
        if i % 3 == 0 {
            let again = live
                .offer_at(arrival + 0.05, &batch, Some(&mut wal))
                .expect("duplicate offer");
            assert_eq!(again, IngestOutcome::Duplicate);
        }
        if wal.needs_snapshot() {
            wal.snapshot(&live).expect("snapshot");
        }
    }
    live
}

/// Builds a single-segment, no-snapshot log and returns the live
/// controller, the segment's object name, and the byte offset at which
/// each append ended (so properties can cut/corrupt at exact frames).
#[allow(clippy::expect_used)] // test helper: a failed expect IS the test failing
fn single_segment_log(
    storage: &Arc<dyn WalStorage>,
    sizes: &[usize],
) -> (Controller, String, Vec<u64>) {
    let config = WalConfig {
        segment_max_records: u64::MAX,
        snapshot_every: 0,
    };
    let (mut live, mut wal, _) =
        wal::open(ControllerConfig::default(), Arc::clone(storage), config).expect("open");
    let mut ends = Vec::with_capacity(sizes.len());
    for (i, &n) in sizes.iter().enumerate() {
        let arrival = i as f64 * 0.2;
        let batch = imu_batch(i as u32, arrival, n);
        live.offer_at(arrival, &batch, Some(&mut wal))
            .expect("offer");
        let name = storage.list().expect("list").pop().expect("segment exists");
        ends.push(storage.read(&name).expect("read").len() as u64);
    }
    let name = storage.list().expect("list").pop().expect("segment exists");
    (live, name, ends)
}

/// Frames come from their own agent and, under [`lossy_door_config`],
/// are what admission sheds.
const CAMERA: u32 = 8;

#[allow(clippy::expect_used)] // test helper: a failed expect IS the test failing
fn frame_batch(seq: u32, t: f64) -> Batch {
    let batch = Batch {
        agent_id: CAMERA,
        seq,
        readings: vec![StampedReading {
            timestamp: t,
            reading: SensorReading::Frame(Frame::new(4, 4)),
        }],
    };
    decode_batch(encode_batch(&batch)).expect("wire round-trip")
}

/// A bucket that admits roughly every other frame batch (cost 16 against
/// 8 tokens refilled per 0.1 s step), so a generated life sees sheds,
/// their retransmissions, and IMU traffic that always passes.
fn lossy_door_config() -> ControllerConfig {
    ControllerConfig {
        admission: AdmissionConfig {
            enabled: true,
            capacity: 40.0,
            drain_per_sec: 80.0,
            low_priority_reserve: 20.0,
        },
        ..ControllerConfig::default()
    }
}

/// Runs one generated life of a durable controller over `storage` through
/// the public door (`offer_at` + due checkpoints, as `shard::Door` and the
/// ledger sequence them) and returns the last incarnation's controller
/// with `Σ WalStats::appends` over all incarnations. Each op is
/// `(kind, arg)`: a new IMU or frame batch, a re-delivery of an earlier
/// one (a duplicate if it was accepted — in this incarnation or one
/// before — else the retransmission of a shed batch), a checkpoint off
/// cadence, or a kill that leaves `arg % 16` garbage bytes as the torn
/// final write, followed by reopen.
#[allow(clippy::expect_used)] // test helper: a failed expect IS the test failing
fn live_a_life(
    storage: &Arc<dyn WalStorage>,
    config: WalConfig,
    ops: &[(u8, u8)],
) -> (Controller, u64) {
    let open = || wal::open(lossy_door_config(), Arc::clone(storage), config).expect("open");
    let (mut live, mut wal, _) = open();
    let mut appends = 0;
    let mut offered: Vec<Batch> = Vec::new();
    for (step, &(kind, arg)) in ops.iter().enumerate() {
        let arrival = step as f64 * 0.1;
        let batch = match kind {
            0..=2 => imu_batch(offered.len() as u32, arrival, 1 + arg as usize % 3),
            3..=5 => frame_batch(offered.len() as u32, arrival),
            6..=7 if !offered.is_empty() => offered[arg as usize % offered.len()].clone(),
            8 => {
                wal.snapshot(&live).expect("checkpoint off cadence");
                continue;
            }
            9 => {
                wal.simulate_torn_tail(&[0xA5; 16][..arg as usize % 16])
                    .expect("torn write");
                appends += wal.stats().appends;
                (live, wal, _) = open();
                continue;
            }
            _ => continue,
        };
        if kind < 6 {
            offered.push(batch.clone());
        }
        let outcome = live
            .offer_at(arrival, &batch, Some(&mut wal))
            .expect("offer");
        if outcome != IngestOutcome::Shed && wal.needs_snapshot() {
            wal.snapshot(&live).expect("checkpoint");
        }
    }
    (live, appends + wal.stats().appends)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The premise of the append-only log: whatever mix of deliveries,
    /// duplicates, sheds, retransmissions, checkpoints and crash/reopen
    /// cycles a controller lives through, every append it ever made is in
    /// the log exactly once — replaying into a FRESH controller skips
    /// nothing as a duplicate, so no compaction pass could ever drop a
    /// record.
    #[test]
    fn a_log_written_through_the_door_never_holds_a_seq_twice(
        ops in prop::collection::vec((0u8..10, any::<u8>()), 1..80),
        segment_max in 1u64..12,
        snapshot_every in 0u64..12,
    ) {
        let storage: Arc<dyn WalStorage> = Arc::new(MemStorage::new());
        let config = WalConfig { segment_max_records: segment_max, snapshot_every };
        let (live, appends) = live_a_life(&storage, config, &ops);

        let mut fresh = Controller::new(lossy_door_config());
        let report = replay_into(&mut fresh, storage.as_ref()).expect("replay");
        prop_assert_eq!(report.duplicates_skipped, 0);
        prop_assert_eq!(report.records_replayed, appends);
        prop_assert_eq!(fresh.state_digest(), live.state_digest());
    }

    /// Round-trip identity: for ANY batch sequence × segment size ×
    /// snapshot cadence, replaying the log into a fresh controller
    /// rebuilds bit-identical state.
    #[test]
    fn append_then_replay_rebuilds_identical_state(
        sizes in prop::collection::vec(1usize..5, 1..40),
        segment_max in 1u64..16,
        snapshot_every in 0u64..40,
    ) {
        let storage: Arc<dyn WalStorage> = Arc::new(MemStorage::new());
        let config = WalConfig { segment_max_records: segment_max, snapshot_every };
        let live = build_log(&storage, config, &sizes);

        let mut recovered = Controller::new(ControllerConfig::default());
        let report = replay_into(&mut recovered, storage.as_ref()).expect("replay");
        prop_assert_eq!(report.torn_tail_bytes, 0, "clean log has no torn tail");
        prop_assert_eq!(recovered.state_digest(), live.state_digest());
    }

    /// Replaying the same log twice into the same controller ingests
    /// nothing new: the `(agent, seq)` dedup classifies every record of
    /// the second pass as a duplicate, so the ingested data (counters and
    /// TSDB contents) is unchanged — only the duplicate tallies move.
    #[test]
    fn double_replay_is_idempotent(
        sizes in prop::collection::vec(1usize..4, 1..25),
        segment_max in 1u64..8,
    ) {
        let storage: Arc<dyn WalStorage> = Arc::new(MemStorage::new());
        let config = WalConfig { segment_max_records: segment_max, snapshot_every: 0 };
        build_log(&storage, config, &sizes);

        let mut recovered = Controller::new(ControllerConfig::default());
        let first = replay_into(&mut recovered, storage.as_ref()).expect("first replay");
        let stats = recovered.ingest_stats();
        let fingerprint = recovered.tsdb().fingerprint();
        let second = replay_into(&mut recovered, storage.as_ref()).expect("second replay");
        prop_assert_eq!(first.records_replayed, sizes.len() as u64);
        prop_assert_eq!(second.records_replayed, 0, "nothing new on the second pass");
        prop_assert_eq!(second.duplicates_skipped, first.records_replayed);
        prop_assert_eq!(recovered.ingest_stats(), stats);
        prop_assert_eq!(recovered.tsdb().fingerprint(), fingerprint);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Crash-at-any-byte: truncating the live segment at an arbitrary
    /// offset (a torn final write) loses exactly the un-acked suffix —
    /// every record wholly below the cut survives, nothing else does, and
    /// the log reopens for appending.
    #[test]
    fn truncation_at_any_byte_preserves_the_acked_prefix(
        sizes in prop::collection::vec(1usize..4, 1..20),
        cut_frac in 0.0f64..1.0,
    ) {
        let storage: Arc<dyn WalStorage> = Arc::new(MemStorage::new());
        let (_, name, ends) = single_segment_log(&storage, &sizes);
        let total = *ends.last().expect("non-empty log");
        let cut = ((cut_frac * total as f64) as u64).min(total);
        storage.truncate(&name, cut).expect("truncate");

        let survivors = ends.iter().filter(|&&e| e <= cut).count();
        let prefix_end = ends.iter().copied().filter(|&e| e <= cut).max().unwrap_or(0);
        let mut recovered = Controller::new(ControllerConfig::default());
        let report = replay_into(&mut recovered, storage.as_ref()).expect("replay");
        prop_assert_eq!(report.records_replayed, survivors as u64);
        prop_assert_eq!(report.torn_tail_bytes, cut - prefix_end);
        for seq in 0..sizes.len() as u32 {
            prop_assert_eq!(recovered.has_seen(AGENT, seq), (seq as usize) < survivors);
        }

        // Recovery repaired the tail: the log reopens clean and accepts
        // new appends.
        let config = WalConfig { segment_max_records: u64::MAX, snapshot_every: 0 };
        let (mut resumed, mut wal, reopened) =
            wal::open(ControllerConfig::default(), Arc::clone(&storage), config).expect("reopen");
        prop_assert_eq!(reopened.torn_tail_bytes, 0, "tail already repaired");
        let next_seq = sizes.len() as u32;
        let extra = imu_batch(next_seq, 99.0, 2);
        resumed.offer_at(99.0, &extra, Some(&mut wal)).expect("append after recovery");
        prop_assert!(resumed.has_seen(AGENT, next_seq));
    }

    /// Crash at any byte of a checkpoint: a checkpoint is one record at
    /// the head of the newest segment, so tearing it anywhere recovers
    /// exactly the pre-checkpoint state with the PREVIOUS checkpoint's
    /// counters, and the checkpoint is due again.
    #[test]
    fn truncation_at_any_byte_of_a_checkpoint_keeps_the_previous_one(
        sizes in prop::collection::vec(1usize..4, 2..20),
        earlier_frac in 0.0f64..1.0,
    ) {
        let storage: Arc<dyn WalStorage> = Arc::new(MemStorage::new());
        let config = WalConfig { segment_max_records: 5, snapshot_every: 0 };
        let (mut live, mut wal, _) =
            wal::open(ControllerConfig::default(), Arc::clone(&storage), config).expect("open");
        // 0 = no earlier checkpoint; otherwise at least one (duplicated)
        // record separates the two.
        let earlier = (earlier_frac * (sizes.len() - 1) as f64) as usize;
        let mut previous = Vec::new();
        for (i, &n) in sizes.iter().enumerate() {
            let arrival = i as f64 * 0.2;
            let batch = imu_batch(i as u32, arrival, n);
            // Every delivery arrives twice, so each checkpoint carries a
            // different duplicate tally.
            for _ in 0..2 {
                live.offer_at(arrival, &batch, Some(&mut wal)).expect("offer");
            }
            if i + 1 == earlier {
                wal.snapshot(&live).expect("earlier checkpoint");
                previous = live.stream_meta();
            }
        }
        if previous.is_empty() {
            // No earlier checkpoint: replay alone rebuilds zeroed tallies.
            previous = vec![(AGENT, 0, 0)];
        }
        wal.snapshot(&live).expect("checkpoint");
        prop_assert_ne!(&live.stream_meta(), &previous);
        let name = storage.list().expect("list").pop().expect("segment exists");
        prop_assert_eq!(&name, &format!("seg-{:08}", wal.segment_index()));
        let record = storage.read(&name).expect("read");

        let check = WalConfig { snapshot_every: 1, ..config };
        for cut in 0..record.len() {
            // Recovery repairs the tear durably, so rebuild it each time.
            storage.truncate(&name, 0).expect("truncate");
            storage.append(&name, &record[..cut]).expect("torn checkpoint");
            let (recovered, reopened, report) =
                wal::open(ControllerConfig::default(), Arc::clone(&storage), check)
                    .expect("reopen");
            prop_assert_eq!(report.torn_tail_bytes, cut as u64);
            prop_assert_eq!(report.records_replayed, sizes.len() as u64);
            prop_assert_eq!(recovered.state_digest(), live.state_digest());
            prop_assert_eq!(&recovered.stream_meta(), &previous, "cut {}", cut);
            prop_assert!(reopened.needs_snapshot(), "cut {}", cut);
        }
        // Whole again, the last checkpoint's counters stand.
        storage.truncate(&name, 0).expect("truncate");
        storage.append(&name, &record).expect("restore");
        let mut recovered = Controller::new(ControllerConfig::default());
        replay_into(&mut recovered, storage.as_ref()).expect("replay");
        prop_assert_eq!(recovered.stream_meta(), live.stream_meta());
    }

    /// Corrupting any single byte of the live segment is tolerated: the
    /// records before the damaged frame replay intact, the damaged suffix
    /// is truncated away, and a second replay sees a clean log.
    #[test]
    fn corrupting_any_tail_byte_never_loses_earlier_records(
        sizes in prop::collection::vec(1usize..4, 2..15),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let storage: Arc<dyn WalStorage> = Arc::new(MemStorage::new());
        let (_, name, ends) = single_segment_log(&storage, &sizes);
        let total = *ends.last().expect("non-empty log");
        let data = storage.read(&name).expect("read");
        let pos = ((pos_frac * (total - 1) as f64) as u64).min(total - 1);
        // MemStorage has no write-at, so splice: keep the prefix, append
        // the flipped byte, then the untouched suffix.
        storage.truncate(&name, pos).expect("truncate");
        storage
            .append(&name, &[data[pos as usize] ^ flip])
            .expect("append flipped byte");
        storage.append(&name, &data[pos as usize + 1..]).expect("append suffix");

        let survivors = ends.iter().filter(|&&e| e <= pos).count();
        let mut recovered = Controller::new(ControllerConfig::default());
        let report = replay_into(&mut recovered, storage.as_ref()).expect("replay");
        prop_assert_eq!(report.records_replayed, survivors as u64);
        prop_assert!(report.torn_tail_bytes > 0, "the damaged frame is truncated");
        for seq in 0..sizes.len() as u32 {
            prop_assert_eq!(recovered.has_seen(AGENT, seq), (seq as usize) < survivors);
        }
        let digest = recovered.state_digest();

        let mut again = Controller::new(ControllerConfig::default());
        let clean = replay_into(&mut again, storage.as_ref()).expect("replay after repair");
        prop_assert_eq!(clean.torn_tail_bytes, 0);
        prop_assert_eq!(again.state_digest(), digest);
    }
}
