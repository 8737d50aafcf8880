//! # darnet-pure
//!
//! Everything a replay, a digest or a gate comparison computes, in one
//! crate that can hold no effect: the wire format ([`encode_batch`],
//! [`decode_batch`]), the write-ahead log ([`wal`]), the TSDB
//! ([`TsDb`]), the controller ([`Controller`]: dedup, alignment,
//! smoothing), the sharded ingest door ([`shard`]), the values they
//! carry ([`Frame`], [`ImuSample`], [`SensorReading`]) and the flat
//! bench-metrics format ([`metrics`]).
//!
//! Replay, the shard digests and every golden depend on this code never
//! reading a clock, drawing from an RNG, spawning a thread or touching
//! the filesystem. Two facts hold that, with no analyzer of its own
//! (DESIGN.md §11):
//!
//! * the crate depends on `bytes` alone, so no workspace crate — the
//!   seeded PRNG's, the simulator's — is reachable from it
//!   (`tests/boundary.rs` holds `Cargo.toml` to that);
//! * the attribute below forbids clippy's `disallowed_methods` and
//!   `disallowed_types` lints, so each `clippy.toml` ban (wall clock,
//!   `thread::spawn`, `std::fs`, `HashMap`/`HashSet`) is an error here,
//!   and an `#[expect]` grant inside the crate is one too (E0453).
//!
//! The one door an effect comes through is a [`WalStorage`] handed in
//! from outside: `darnet_collect::wal::DirStorage` writes files, and
//! this crate only calls it.
//!
//! `darnet-collect` re-exports every item here at its old path.
#![cfg_attr(
    not(test),
    forbid(clippy::disallowed_methods, clippy::disallowed_types)
)]

mod align;
mod controller;
mod error;
mod frame;
mod imu;
pub mod metrics;
mod sensor;
pub mod shard;
mod stream;
mod tsdb;
pub mod wal;
mod wire;

pub use align::{interpolate_grid, moving_average, GridSpec};
pub use controller::{
    AdmissionConfig, AlignedImuPoint, Controller, ControllerConfig, FrameRecord, IngestOutcome,
    StreamHealth,
};
pub use error::CollectError;
pub use frame::{Canvas, Frame};
pub use imu::ImuSample;
pub use sensor::SensorReading;
pub use shard::{
    fleet_signal, shard_of, FleetAdmission, FleetPressure, OfferOutcome, ShardAck, ShardConfig,
    ShardPressure, ShardedController,
};
pub use stream::StreamId;
pub use tsdb::{canonical_fingerprint_merged, Aggregation, SeriesStats, TsDb};
pub use wal::{replay_into, MemStorage, RecoveryReport, Wal, WalConfig, WalStats, WalStorage};
pub use wire::{decode_ack, decode_batch, encode_ack, encode_batch, Ack, Batch, StampedReading};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CollectError>;
