//! What the three workloads share: their fixed work sizes, the counters a
//! steady phase hands back, and the durable state the recovery phase
//! reopens.

use std::sync::Arc;

use darnet_collect::wal::{self, MemStorage, WalConfig, WalStats, WalStorage};
use darnet_collect::{
    Controller, ControllerConfig, RecoveryReport, ShardConfig, ShardedController,
};

use crate::clock::{Blend, Probe, Slice};
use crate::engine::{EngineSpec, Labeler};
use crate::fixture::{fnv1a, Message, FNV_INIT};
use crate::Res;

/// `run_seconds` of `BENCHMARK.json`: the `--seconds` value at which a
/// workload does exactly its nominal work. Other values scale the work in
/// whole sessions; the work never depends on how fast it runs.
pub const NOMINAL_SECONDS: f64 = 20.0;

/// Tracing toggles every two slices on the cabin workloads, whose slices
/// all hold the same kind of ticks.
pub const CABIN_TRACE_TOGGLE: usize = 2;
/// On the fleet a slice is half a tick and only even ticks carry frames:
/// four slices are one tick of each kind.
pub const FLEET_TRACE_TOGGLE: usize = 4;

/// A workload and its fixed work size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    /// Concurrent cabins cycling through short durable sessions.
    CabinStream(CabinWork),
    /// Cabins resumed from a long recovered history.
    CabinLong(CabinWork),
    /// A fleet of single-agent vehicles into a sharded controller.
    FleetIngest(FleetWork),
}

/// Work size of a cabin workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CabinWork {
    /// Cabins streaming concurrently, one controller + WAL each.
    pub cabins: usize,
    /// Sessions each cabin runs one after another, each on fresh state.
    pub rounds: usize,
    /// Transmit periods (0.5 s simulated) per session.
    pub ticks: usize,
    /// Transmit periods of history each cabin recovers before streaming.
    pub history_ticks: usize,
    /// Ticks per slice of the calibrated clock (≤ 0.25 s of work).
    pub ticks_per_slice: usize,
}

/// Work size of the fleet workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetWork {
    /// Vehicles, one agent each.
    pub vehicles: usize,
    /// Sessions, each on a fresh sharded controller.
    pub sessions: usize,
    /// Transmit periods (1 s simulated) per session.
    pub ticks: usize,
    /// Shards of the controller.
    pub shards: usize,
    /// Offers between two serial drain passes.
    pub drain_every: usize,
}

impl Workload {
    /// Names accepted by `--workload`.
    pub const NAMES: [&'static str; 3] = ["cabin_stream", "cabin_long", "fleet_ingest"];

    /// The workload called `name`, sized for `--seconds seconds`.
    pub fn parse(name: &str, seconds: f64) -> Option<Workload> {
        let scale = |n: usize| ((n as f64 * seconds / NOMINAL_SECONDS).round() as usize).max(1);
        match name {
            // 4 cabins × 10 sessions × 30 s × 4 Hz = 4 800 labels.
            "cabin_stream" => Some(Workload::CabinStream(CabinWork {
                cabins: 4,
                rounds: scale(10),
                ticks: 60,
                history_ticks: 0,
                ticks_per_slice: 2,
            })),
            // 2 cabins on a 15-minute history, 400 ticks = 1 600 labels.
            "cabin_long" => Some(Workload::CabinLong(CabinWork {
                cabins: 2,
                rounds: 1,
                ticks: scale(400),
                history_ticks: 1_800,
                ticks_per_slice: 1,
            })),
            // 2 000 vehicles × 45 readings × 20 sessions = 1.8 M readings.
            "fleet_ingest" => Some(Workload::FleetIngest(FleetWork {
                vehicles: 2_000,
                sessions: scale(20),
                ticks: 10,
                shards: 2,
                drain_every: 500,
            })),
            _ => None,
        }
    }

    /// The `--workload` name.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::CabinStream(_) => Workload::NAMES[0],
            Workload::CabinLong(_) => Workload::NAMES[1],
            Workload::FleetIngest(_) => Workload::NAMES[2],
        }
    }

    /// Model scale of the workload's engine.
    pub fn engine_spec(&self) -> EngineSpec {
        match self {
            Workload::FleetIngest(_) => EngineSpec::FLEET,
            _ => EngineSpec::CABIN,
        }
    }

    /// The steady phase's blend on the calibrated clock. The engine's
    /// arithmetic follows the compute kernel most; `cabin_long`'s cloning
    /// of a 33 MB history follows the memory kernel alone, and a little
    /// more than proportionally (it streams through DRAM, the kernel
    /// mostly through the last-level cache); fleet ingest sits between.
    pub fn steady_blend(&self) -> Blend {
        let (compute, memory) = match self {
            Workload::CabinStream(_) => (0.6, 0.3),
            Workload::CabinLong(_) => (0.0, 1.1),
            Workload::FleetIngest(_) => (0.5, 0.5),
        };
        Blend { compute, memory }
    }

    /// Slices a traced run records spans for before it stops for as many
    /// (`trace::records_slice`).
    pub fn trace_toggle_slices(&self) -> usize {
        match self {
            Workload::FleetIngest(_) => FLEET_TRACE_TOGGLE,
            _ => CABIN_TRACE_TOGGLE,
        }
    }

    /// Times `setup_s` and `recover_s` are each repeated. The fleet's
    /// set-up is a few milliseconds of edge-scale models, so it takes more
    /// repetitions to give a steady median.
    pub fn short_phase_reps(&self) -> usize {
        match self {
            Workload::FleetIngest(_) => 9,
            _ => 5,
        }
    }
}

/// Controller configuration of the fleet shards: library defaults apart
/// from `per_agent_series`, which the library documents as the fleet
/// setting.
pub fn fleet_shard_config(shards: usize) -> ShardConfig {
    ShardConfig {
        shards,
        controller: ControllerConfig {
            per_agent_series: true,
            ..ControllerConfig::default()
        },
        ..ShardConfig::default()
    }
}

/// Ingest-side counters of a steady phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Messages handed to `decode_batch`.
    pub offered: u64,
    /// Encoded bytes handed to `decode_batch`.
    pub wire_bytes: u64,
    /// Messages `decode_batch` rejected.
    pub decode_failed: u64,
    /// Batches accepted.
    pub accepted: u64,
    /// Duplicate deliveries discarded.
    pub duplicates: u64,
    /// Batches shed by admission control or a full shard queue.
    pub shed: u64,
    /// Readings in accepted batches.
    pub readings: u64,
    /// Points the read side used for the labels it produced.
    pub points_used: u64,
    /// Points the read side was handed to find them.
    pub points_returned: u64,
    /// Wall seconds inside `Wal::snapshot`.
    pub snapshot_s: f64,
    /// Longest single `Wal::snapshot`, wall seconds.
    pub snapshot_max_s: f64,
    /// Highest shard queue depth.
    pub queue_peak: u64,
    /// Largest shard's share of accepted batches over the mean share.
    pub shard_skew: f64,
    /// TSDB points held when the steady phase ended.
    pub tsdb_points: u64,
}

/// Durable state a session left behind: what `recover_s` reopens and the
/// promises the reopened state must keep.
pub enum Durable {
    /// One cabin session's WAL.
    Cabin {
        /// The session's WAL storage.
        storage: Arc<MemStorage>,
        /// [`replayable_digest`] of the controller that wrote it.
        digest: u64,
        /// Every `(agent, seq)` acked during the session.
        acked: Vec<(u32, u32)>,
    },
    /// One fleet session's per-shard WALs.
    Fleet {
        /// One WAL storage per shard.
        storages: Vec<Arc<MemStorage>>,
        /// [`fleet_digest`] of the sharded controller that wrote them.
        digest: u64,
        /// Every `(agent, seq)` acked during the session.
        acked: Vec<(u32, u32)>,
    },
}

/// Bitwise digest of everything a controller holds that its WAL can
/// rebuild: per-stream delivery accounting, ingest counters, every frame
/// and every TSDB point (which mirror every IMU reading).
///
/// `Controller::state_digest` also folds in the per-stream `duplicates`
/// counter, which the WAL persists only inside snapshots: after duplicate
/// deliveries since the last snapshot it differs across a recovery that
/// lost nothing. The ledger therefore digests the replayable state through
/// the public read API instead.
pub fn replayable_digest(c: &Controller) -> u64 {
    let mut h = FNV_INIT;
    for s in c.stream_healths() {
        fnv1a(&mut h, &s.agent_id.to_le_bytes());
        fnv1a(&mut h, &s.delivered.to_le_bytes());
        fnv1a(&mut h, &s.highest_seq.to_le_bytes());
        fnv1a(&mut h, &s.gaps.to_le_bytes());
        fnv1a(&mut h, &s.last_arrival.to_bits().to_le_bytes());
    }
    let (batches, readings) = c.ingest_stats();
    fnv1a(&mut h, &batches.to_le_bytes());
    fnv1a(&mut h, &readings.to_le_bytes());
    fnv1a(&mut h, &(c.imu_observation_count() as u64).to_le_bytes());
    for f in c.frames_sorted() {
        fnv1a(&mut h, &f.t.to_bits().to_le_bytes());
        for p in f.frame.pixels() {
            fnv1a(&mut h, &p.to_bits().to_le_bytes());
        }
    }
    fnv1a(&mut h, &c.tsdb().fingerprint().to_le_bytes());
    h
}

/// [`replayable_digest`] folded over a sharded controller's shards.
pub fn fleet_digest(s: &ShardedController) -> u64 {
    let mut h = FNV_INIT;
    for shard in 0..s.shard_count() {
        if let Some(c) = s.shard_controller(shard) {
            fnv1a(&mut h, &replayable_digest(c).to_le_bytes());
        }
    }
    h
}

fn as_dyn(storage: &Arc<MemStorage>) -> Arc<dyn WalStorage> {
    Arc::clone(storage) as Arc<dyn WalStorage>
}

/// State reopened from a [`Durable`].
pub enum Recovered {
    /// A cabin controller (its WAL handle is dropped: nothing is appended).
    Cabin(Box<Controller>),
    /// A sharded fleet controller.
    Fleet(Box<ShardedController>),
}

impl Durable {
    /// Reopens the durable state as a restarted process would.
    pub fn recover(&self) -> Res<(Recovered, RecoveryReport)> {
        match self {
            Durable::Cabin { storage, .. } => {
                let (controller, _wal, report) = wal::open(
                    ControllerConfig::default(),
                    as_dyn(storage),
                    WalConfig::default(),
                )?;
                Ok((Recovered::Cabin(Box::new(controller)), report))
            }
            Durable::Fleet { storages, .. } => {
                let (sharded, report) = ShardedController::open(
                    fleet_shard_config(storages.len()),
                    storages.iter().map(as_dyn).collect(),
                    WalConfig::default(),
                )?;
                Ok((Recovered::Fleet(Box::new(sharded)), report))
            }
        }
    }

    /// Checks `recovered` against what was promised before the kill:
    /// returns `(acks checked, acks lost, digest mismatches)`.
    pub fn verify(&self, recovered: &Recovered) -> (u64, u64, u64) {
        match (self, recovered) {
            (Durable::Cabin { digest, acked, .. }, Recovered::Cabin(c)) => (
                acked.len() as u64,
                acked.iter().filter(|&&(a, s)| !c.has_seen(a, s)).count() as u64,
                u64::from(replayable_digest(c) != *digest),
            ),
            (Durable::Fleet { digest, acked, .. }, Recovered::Fleet(s)) => (
                acked.len() as u64,
                acked.iter().filter(|&&(a, q)| !s.has_seen(a, q)).count() as u64,
                u64::from(fleet_digest(s) != *digest),
            ),
            // Mismatched kinds: everything promised is lost.
            (Durable::Cabin { acked, .. } | Durable::Fleet { acked, .. }, _) => {
                (acked.len() as u64, acked.len() as u64, 1)
            }
        }
    }
}

/// Adds `b` into `a`.
pub fn absorb_wal(a: &mut WalStats, b: WalStats) {
    a.appends += b.appends;
    a.bytes_appended += b.bytes_appended;
    a.segments_rolled += b.segments_rolled;
    a.snapshots_taken += b.snapshots_taken;
}

/// Everything a steady phase hands back.
pub struct SteadyOutcome {
    /// The labelling path with its engine and counters.
    pub labeler: Labeler,
    /// The probe, for the phases after the steady loop.
    pub probe: Probe,
    /// Slices of the calibrated clock.
    pub slices: Vec<Slice>,
    /// `(slice, raw seconds)` per label.
    pub latencies: Vec<(u32, f64)>,
    /// Fastest probe matmul seen, GFLOP/s.
    pub matmul_peak_gflops: f64,
    /// Ingest-side counters.
    pub counters: Counters,
    /// Labels the schedule must produce.
    pub expected_labels: u64,
    /// Σ `approx_bytes()` of the live controllers at the end.
    pub state_bytes: u64,
    /// WAL counters summed over every session.
    pub wal: WalStats,
    /// What the recovery phase reopens.
    pub durable: Vec<Durable>,
    /// Wall seconds spent generating and pre-loading inputs off the clock.
    pub fixture_s: f64,
    /// Wall duration of each serial drain pass, seconds (fleet only).
    pub drain_pass_s: Vec<f64>,
    /// A sample of the offered messages, for the standalone layer replays.
    pub sample_messages: Vec<Message>,
}
