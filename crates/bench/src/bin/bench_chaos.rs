//! Deterministic chaos benchmark: crash-tolerant collection under fire.
//!
//! Drives one seeded collection session through two controller
//! kill/restart windows (with torn tail writes at each kill), 5% link
//! loss, and — in a separate measurement — a starved admission bucket,
//! then gates the recovery invariants of DESIGN.md §13:
//!
//! * **zero acked loss** — every batch whose ack an agent received is in
//!   the recovered controller (`chaos_acked_lost == 0`), while the
//!   negative control without a WAL demonstrably loses acked data;
//! * **bounded replay** — recovering state from the WAL stays under an
//!   absolute time budget and beats re-running the session from scratch
//!   (`speedup_recovery_vs_rerun`, the regression-compared metric);
//! * **determinism** — two runs against fresh stores produce identical
//!   recordings, chaos reports, and recovered state digests;
//! * **graceful shedding** — overload sheds low-priority frame batches
//!   first and the IMU stream stays comparatively whole.
//!
//! Flags (the shared bench conventions):
//!
//! * `--fast`, `--json`, `--out PATH`, `--compare PATH` — the shared
//!   gated-bench conventions, see [`darnet_bench::gate`].
//! * `--check` — enforce the invariant gates listed above.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use darnet_bench::gate::{self, Gate};
use darnet_collect::runtime::{run_session, CampaignConfig, CrashWindow, Durability, Recording};
use darnet_collect::{
    replay_into, AdmissionConfig, Controller, MemStorage, StreamId, WalConfig, WalStorage,
};
use darnet_sim::{CanonicalBehavior, DrivingWorld, Segment, WorldConfig};

/// Garbage bytes appended at each kill (the torn final write).
const TORN_BYTES: u64 = 13;
/// Absolute budget for replaying the full session log, milliseconds.
/// Replay of a 10 s session is sub-millisecond on any host; the budget
/// only has to catch a catastrophic regression (e.g. quadratic replay).
const REPLAY_BUDGET_MS: f64 = 50.0;
/// Replaying the log must beat re-collecting the session outright by at
/// least this factor, or durability is not paying for its complexity.
const SPEEDUP_FLOOR: f64 = 2.0;
/// The counts the session seed fully determines: `--compare` holds them
/// to the baseline exactly.
const SEEDED: &[&str] = &[
    "chaos_acked",
    "chaos_acked_lost",
    "chaos_recoveries",
    "chaos_replayed_records",
    "chaos_torn_bytes",
    "chaos_deliveries_while_down",
    "chaos_wal_appends",
    "chaos_wal_bytes",
    "chaos_wal_snapshots",
    "acked_lost_no_wal",
    "overload_shed_batches",
];

fn schedule() -> Vec<Segment<CanonicalBehavior>> {
    vec![
        Segment {
            driver: 0,
            behavior: CanonicalBehavior::NormalDriving,
            start: 0.0,
            duration: 5.0,
        },
        Segment {
            driver: 0,
            behavior: CanonicalBehavior::Texting,
            start: 5.0,
            duration: 5.0,
        },
    ]
}

/// The chaos session: 5% loss on every link on top of the crash windows.
fn chaos_config() -> CampaignConfig {
    let mut config = CampaignConfig::default();
    config.link.loss = 0.05;
    config
}

/// Two controller outages — a 1 s blackout mid-collection and a shorter
/// one near the end — each preceded by a torn tail write.
fn chaos_durability(storage: Option<Arc<MemStorage>>) -> Durability {
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
        torn_tail_bytes: TORN_BYTES as usize,
    }
}

/// Best (minimum) seconds per call over `reps` measured calls.
fn min_time<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn run(fast: bool) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let world = Arc::new(DrivingWorld::new(WorldConfig::default()));
    let schedule = schedule();
    let config = chaos_config();
    // The paper's pair, whatever the links and the controller go through.
    let session = |config: &CampaignConfig, durability: &Durability| -> Recording {
        let streams = StreamId::DARNET_PAIR;
        run_session(&world, 0, &schedule, config, &streams, &[], durability).expect("session")
    };

    // The chaos session proper, twice against fresh stores: the second
    // run exists purely to prove bitwise determinism.
    let storage_a = Arc::new(MemStorage::new());
    let rec_a = session(&config, &chaos_durability(Some(Arc::clone(&storage_a))));
    let chaos = rec_a.chaos;
    let storage_b = Arc::new(MemStorage::new());
    let rec_b = session(&config, &chaos_durability(Some(Arc::clone(&storage_b))));

    for (key, count) in [
        ("chaos_acked", chaos.acked),
        ("chaos_acked_lost", chaos.acked_lost),
        ("chaos_recoveries", chaos.recoveries),
        ("chaos_replayed_records", chaos.replayed_records),
        ("chaos_torn_bytes", chaos.torn_tail_bytes_discarded),
        ("chaos_deliveries_while_down", chaos.deliveries_while_down),
        ("chaos_wal_appends", chaos.wal_appends),
        ("chaos_wal_bytes", chaos.wal_bytes),
        ("chaos_wal_snapshots", chaos.wal_snapshots),
    ] {
        out.insert(key.to_string(), count as f64);
    }
    out.insert(
        "chaos_lossless".to_string(),
        f64::from(u8::from(rec_a.lossless())),
    );

    // Determinism: identical recordings and chaos reports, and the two
    // logs recover to the same controller state digest.
    let digest = |storage: Arc<MemStorage>| {
        let mut controller = Controller::new(config.controller);
        replay_into(&mut controller, storage.as_ref()).expect("replay");
        controller.state_digest()
    };
    let deterministic = rec_a == rec_b && digest(Arc::clone(&storage_a)) == digest(storage_b);
    out.insert(
        "chaos_deterministic".to_string(),
        f64::from(u8::from(deterministic)),
    );

    // Negative control: the same chaos without a WAL must lose acked
    // data — it proves the harness actually kills state, so the zero-loss
    // gate above is meaningful.
    let no_wal = session(&config, &chaos_durability(None)).chaos;
    out.insert("acked_lost_no_wal".to_string(), no_wal.acked_lost as f64);

    // Overload burst: a starved token bucket sheds low-priority frame
    // batches first while the IMU stream keeps flowing.
    let mut overload_config = CampaignConfig::default();
    overload_config.controller.admission = AdmissionConfig {
        enabled: true,
        capacity: 64.0,
        drain_per_sec: 24.0,
        low_priority_reserve: 32.0,
    };
    let overload = session(&overload_config, &Durability::default());
    out.insert(
        "overload_shed_batches".to_string(),
        overload.chaos.shed_batches as f64,
    );
    let shed_ratio = |stream| {
        let health = overload.stream(stream).and_then(|row| row.health);
        health.map_or(1.0, |h| h.shed_ratio())
    };
    let imu_shed = shed_ratio(StreamId::IMU);
    let cam_shed = shed_ratio(StreamId::CAMERA_FRONT);
    out.insert("overload_imu_shed_ratio".to_string(), imu_shed);
    out.insert("overload_camera_shed_ratio".to_string(), cam_shed);
    out.insert(
        "overload_priority_ordered".to_string(),
        f64::from(u8::from(imu_shed < cam_shed)),
    );

    // Bounded replay: rebuilding controller state from the WAL vs
    // re-collecting the session from scratch (the only alternative when
    // the TSDB dies without a log). The in-session recoveries already
    // repaired the tail, so repeated replays see a clean, stable log.
    let replay_reps = if fast { 10 } else { 30 };
    let t_replay = min_time(replay_reps, || {
        let mut controller = Controller::new(config.controller);
        replay_into(&mut controller, storage_a.as_ref()).expect("timed replay");
    });
    let rerun_reps = if fast { 3 } else { 8 };
    let t_rerun = min_time(rerun_reps, || {
        session(&config, &Durability::default());
    });
    out.insert("recovery_replay_ms".to_string(), t_replay * 1e3);
    out.insert("session_rerun_ms".to_string(), t_rerun * 1e3);
    out.insert("speedup_recovery_vs_rerun".to_string(), t_rerun / t_replay);

    out
}

fn main() {
    Gate::start(
        "crash-tolerant collection chaos harness",
        run,
        gate::print_metrics,
    )
    .finish(SEEDED, |results, failures| {
        // (key, minimum, human meaning); equality gates use min == max.
        failures.floors(
            results,
            &[
                ("chaos_recoveries", 2.0, "both crash windows must recover"),
                ("chaos_replayed_records", 1.0, "replay must do real work"),
                (
                    "chaos_torn_bytes",
                    2.0 * TORN_BYTES as f64,
                    "each kill tears the tail; recovery must repair both",
                ),
                (
                    "acked_lost_no_wal",
                    1.0,
                    "the no-WAL control must demonstrably lose acked data",
                ),
                ("overload_shed_batches", 1.0, "starved bucket must shed"),
                (
                    "overload_priority_ordered",
                    1.0,
                    "frames shed before the IMU stream",
                ),
                (
                    "chaos_deterministic",
                    1.0,
                    "seeded chaos must replay bitwise",
                ),
                ("chaos_lossless", 1.0, "retransmission must close the gaps"),
            ],
        );
        if results["chaos_acked_lost"] != 0.0 {
            failures.fail(format_args!(
                "chaos_acked_lost = {} ≠ 0 — WAL recovery must preserve every acked batch",
                results["chaos_acked_lost"]
            ));
        }
        if results["recovery_replay_ms"] > REPLAY_BUDGET_MS {
            failures.fail(format_args!(
                "recovery_replay_ms = {:.3} > {REPLAY_BUDGET_MS} — replay must stay bounded",
                results["recovery_replay_ms"]
            ));
        }
        if results["speedup_recovery_vs_rerun"] < SPEEDUP_FLOOR {
            failures.fail(format_args!(
                "speedup_recovery_vs_rerun = {:.3} < {SPEEDUP_FLOOR}",
                results["speedup_recovery_vs_rerun"]
            ));
        }
    });
}
