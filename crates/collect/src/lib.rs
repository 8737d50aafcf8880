//! # darnet-collect
//!
//! The DarNet *data collection framework* (paper §3–4.1): collection agents
//! embedded in IoT devices stream sensor tuples to a centralized controller
//! that synchronizes clocks, orders and interpolates multi-rate data,
//! smooths it, and stores it in a time-series database for the analytics
//! engine.
//!
//! The paper runs on two Android devices over Bluetooth/802.11; this
//! reproduction runs the *same algorithms* over a deterministic
//! discrete-event simulation ([`runtime`]) with drifting local clocks
//! ([`DriftClock`]) and a lossy/jittery/reordering network ([`Link`]) — plus
//! a threaded "live" mode ([`live`]) using real channels for the example
//! binaries.
//!
//! Key pieces:
//!
//! * [`DriftClock`] — an agent's local clock (offset + drift) and the
//!   master–slave sync protocol (§4.1: agent sets its clock to the
//!   controller's UTC plus the measured network delay, every 5 s).
//! * [`Link`] — latency/jitter/loss/reordering model.
//! * [`CollectionAgent`] — polls a [`Sensor`] every 25 ms, timestamps with
//!   its local clock, transmits batches.
//! * [`Controller`] — ingests batches (duplicate/reorder-tolerant, with
//!   per-stream gap accounting and [`StreamHealth`] reports), re-orders by
//!   timestamp, linearly interpolates onto a uniform grid, applies a
//!   sliding moving average, and writes to the [`TsDb`].
//! * Reliable transport — per-agent sequence numbers and [`Ack`]s on the
//!   wire, a bounded in-flight window with exponential-backoff
//!   retransmission (fixed constants; [`runtime::CampaignConfig::retransmit`]
//!   switches to fire-and-forget), and seeded fault injection on every
//!   [`Link`] (i.i.d. loss, and [`FaultConfig`]'s blackouts and
//!   duplication).
//! * [`runtime::run_session`] — the one door of the session loop: any
//!   set of streams ([`StreamId::DARNET_PAIR`] is the paper's) over one
//!   driver's script, with per-stream link overrides and a
//!   [`runtime::Durability`], into one [`runtime::Recording`];
//!   [`runtime::run_campaign`] runs it for every driver of a
//!   [`darnet_sim`] schedule.
//!
//! The effect-free half — wire format, controller, TSDB, alignment, WAL
//! and shards — is [`darnet_pure`]'s, re-exported here at its old paths;
//! this crate adds what reads a clock, draws from an RNG, spawns a
//! thread or writes a file: agents, clocks, links, the session loop,
//! live mode and [`wal::DirStorage`] (DESIGN.md §11).

mod agent;
mod clock;
mod decision;
pub mod live;
pub mod loadgen;
mod network;
pub mod runtime;
mod sensor;
pub mod wal;

pub use agent::{AgentConfig, CollectionAgent, SpillStats, TransportStats};
pub use clock::{ClockConfig, DriftClock};
pub use darnet_pure::shard;
pub use darnet_pure::{
    canonical_fingerprint_merged, decode_ack, decode_batch, encode_ack, encode_batch, fleet_signal,
    interpolate_grid, moving_average, shard_of, Ack, AdmissionConfig, Aggregation, AlignedImuPoint,
    Batch, CollectError, Controller, ControllerConfig, FleetAdmission, FleetPressure, FrameRecord,
    GridSpec, IngestOutcome, OfferOutcome, Result, SensorReading, SeriesStats, ShardAck,
    ShardConfig, ShardPressure, ShardedController, StampedReading, StreamHealth, StreamId, TsDb,
};
pub use decision::{
    decide_processing, LinkObservation, PrivacyPreference, ProcessingSite, SiteCapabilities,
};
pub use loadgen::{run_fleet, run_fleet_into, FleetConfig, FleetReport};
pub use network::{FaultConfig, Link, LinkConfig, LinkStats};
pub use sensor::{CameraView, ScriptedSensor, Sensor};
pub use wal::{
    replay_into, DirStorage, MemStorage, RecoveryReport, Wal, WalConfig, WalStats, WalStorage,
};
