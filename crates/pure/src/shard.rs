//! Fleet-scale sharded ingestion: hash-partitions agents across N
//! shards, each a bounded ingest queue in front of the crate's one
//! durable ingest door — a full [`Controller`] (alignment, per-stream
//! health, admission control) and optionally its own WAL. Per-shard pressure (queue depth +
//! shed ratio) rolls up to a fleet-level admission signal that the load
//! generator and live mode feed back to agents (DESIGN.md §14).
//!
//! Sharding is by *agent*, so every property the single controller
//! guarantees per stream — dedup, gap accounting, ordering within an
//! agent — holds unchanged: an agent's batches always land on the same
//! shard and drain in FIFO order. The only cross-shard difference is
//! the interleaving of *different* agents' equal-timestamp points,
//! which is exactly what [`TsDb::canonical_fingerprint`] quotients out;
//! [`ShardedController::tsdb_digest`] therefore matches a single
//! controller's canonical digest over identical traffic.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::controller::{Controller, ControllerConfig, IngestOutcome, StreamHealth};
use crate::error::CollectError;
use crate::tsdb::{canonical_fingerprint_merged, fnv1a, fnv1a_init, TsDb};
use crate::wal::{self, RecoveryReport, Wal, WalConfig, WalStats, WalStorage};
use crate::wire::{Ack, Batch};
use crate::Result;

/// Deterministic agent → shard routing: a SplitMix64-style finalizer
/// avalanches the id so consecutive agent ids spread uniformly instead
/// of striping, then reduces modulo the shard count. Stable across
/// processes and platforms — the property the routing proptests pin.
pub fn shard_of(agent_id: u32, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mut z = (agent_id as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % shards as u64) as usize
}

/// Worst-shard queue fill fraction at which the fleet signal turns
/// [`FleetAdmission::Throttle`].
const THROTTLE_QUEUE_FRAC: f64 = 0.5;
/// Worst-shard queue fill fraction at which the signal turns
/// [`FleetAdmission::Shed`].
const SHED_QUEUE_FRAC: f64 = 0.9;
/// Fleet shed ratio at which the signal turns `Throttle`.
const THROTTLE_SHED_RATIO: f64 = 0.25;
/// Fleet shed ratio at which the signal turns `Shed`.
const SHED_SHED_RATIO: f64 = 0.75;

/// The rollup of per-shard pressure into a fleet-level admission signal:
/// worst-shard queue fill and fleet shed ratio in, signal out. Queue
/// fractions are `queued / queue_limit` of the *worst* shard (one hot
/// shard must be able to throttle the fleet; half full throttles, nine
/// tenths sheds); shed ratios are fleet-aggregate `shed / offered` (a
/// quarter throttles, three quarters sheds). Shed thresholds dominate
/// throttle thresholds; either axis alone can escalate.
pub fn fleet_signal(max_queue_frac: f64, shed_ratio: f64) -> FleetAdmission {
    if max_queue_frac >= SHED_QUEUE_FRAC || shed_ratio >= SHED_SHED_RATIO {
        FleetAdmission::Shed
    } else if max_queue_frac >= THROTTLE_QUEUE_FRAC || shed_ratio >= THROTTLE_SHED_RATIO {
        FleetAdmission::Throttle
    } else {
        FleetAdmission::Accept
    }
}

/// Fleet-level admission signal, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FleetAdmission {
    /// Normal operation: agents flush on schedule.
    Accept,
    /// Pressure building: agents should slow discretionary traffic.
    Throttle,
    /// Overload: agents should defer flushes entirely; the transport's
    /// retransmission schedule re-offers the data after the burst.
    Shed,
}

/// Configuration for a [`ShardedController`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardConfig {
    /// Number of shards agents are hash-partitioned across.
    pub shards: usize,
    /// Bound on each shard's ingest queue; an offer to a full queue is
    /// shed (unacked, so the agent retransmits it later).
    pub queue_limit: usize,
    /// Per-shard controller configuration. Fleet deployments should set
    /// [`ControllerConfig::per_agent_series`] so TSDB inserts stay
    /// append-only.
    pub controller: ControllerConfig,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 4,
            queue_limit: 1024,
            controller: ControllerConfig::default(),
        }
    }
}

impl ShardConfig {
    fn validate(&self) -> Result<()> {
        if self.shards == 0 {
            return Err(CollectError::InvalidConfig(
                "shard count must be at least 1".into(),
            ));
        }
        if self.queue_limit == 0 {
            return Err(CollectError::InvalidConfig(
                "shard queue limit must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// Outcome of offering a batch to the sharded front door.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OfferOutcome {
    /// Enqueued on the owning shard; an ack (or admission shed) is
    /// decided at the next drain.
    Queued,
    /// The owning shard's queue was full: the batch was dropped unacked
    /// and the agent's retransmission schedule will re-offer it.
    QueueShed,
}

/// One ack produced by a drain pass, with the ingest outcome that
/// justified it (admission-shed batches produce no ack).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardAck {
    /// The ack to route back to the sending agent.
    pub ack: Ack,
    /// Why it is being sent: first acceptance or duplicate re-ack.
    pub outcome: IngestOutcome,
}

/// Pressure observed on one shard at rollup time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardPressure {
    /// Shard index.
    pub shard: usize,
    /// Batches currently queued.
    pub queued: usize,
    /// The configured queue bound.
    pub queue_limit: usize,
    /// High-water mark of the queue since creation.
    pub queue_peak: usize,
    /// Batches shed at the queue (never reached the controller).
    pub queue_shed: u64,
    /// Batches shed by the shard controller's admission control.
    pub admission_shed: u64,
    /// Batches offered to this shard (queued + queue-shed).
    pub offered: u64,
}

impl ShardPressure {
    /// Queue fill fraction, `queued / queue_limit`.
    pub fn queue_frac(&self) -> f64 {
        if self.queue_limit == 0 {
            return 0.0;
        }
        self.queued as f64 / self.queue_limit as f64
    }

    /// Fraction of offered batches shed at either the queue or the
    /// controller's admission bucket.
    pub fn shed_ratio(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        (self.queue_shed + self.admission_shed) as f64 / self.offered as f64
    }
}

/// Fleet-wide pressure rollup: per-shard detail plus the derived
/// admission signal.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetPressure {
    /// Per-shard pressure, indexed by shard.
    pub shards: Vec<ShardPressure>,
    /// Worst shard's queue fill fraction.
    pub max_queue_frac: f64,
    /// Fleet-aggregate shed ratio (queue + admission sheds over offers).
    pub shed_ratio: f64,
    /// The rolled-up admission signal.
    pub signal: FleetAdmission,
}

/// The one durable ingest door: a [`Controller`] and, when the session
/// is durable, the [`Wal`] its acks are promises about. Sessions and
/// live mode (`darnet_collect::runtime`, `darnet_collect::live`) and
/// every shard ingest through [`Door::offer`], so the policy — admission
/// → dedup → WAL append → mutate → checkpoint if due → ack iff not shed
/// — is written here and nowhere else in the workspace.
#[derive(Debug)]
pub struct Door {
    controller: Controller,
    wal: Option<Wal>,
}

impl Door {
    /// A door with no log behind it: acks promise nothing past a crash.
    pub fn new(config: ControllerConfig) -> Self {
        Door {
            controller: Controller::new(config),
            wal: None,
        }
    }

    /// Opens the door over `storage`, replaying whatever a prior
    /// incarnation logged ([`wal::open`]); without storage, [`Door::new`]
    /// and an empty report.
    pub fn open(
        config: ControllerConfig,
        storage: Option<Arc<dyn WalStorage>>,
        wal_config: WalConfig,
    ) -> Result<(Self, RecoveryReport)> {
        let Some(storage) = storage else {
            return Ok((Door::new(config), RecoveryReport::default()));
        };
        let (controller, wal, report) = wal::open(config, storage, wal_config)?;
        let wal = Some(wal);
        Ok((Door { controller, wal }, report))
    }

    /// Offers one batch arriving at `arrival`. `Some` is the ack the
    /// caller may now send (first acceptance or duplicate re-ack): the
    /// batch is in the log, if there is one, and in controller state.
    /// `None` means admission shed it — deferral, not loss: nothing was
    /// logged or mutated, and the unacked agent retransmits later.
    pub fn offer(&mut self, arrival: f64, batch: &Batch) -> Result<Option<ShardAck>> {
        let outcome = self
            .controller
            .offer_at(arrival, batch, self.wal.as_mut())?;
        if outcome == IngestOutcome::Shed {
            return Ok(None);
        }
        if let Some(wal) = self.wal.as_mut() {
            if wal.needs_snapshot() {
                wal.snapshot(&self.controller)?;
            }
        }
        Ok(Some(ShardAck {
            ack: Controller::ack_for(batch),
            outcome,
        }))
    }

    /// Appends garbage to the log's tail — the torn write a kill leaves
    /// behind ([`Wal::simulate_torn_tail`]); a no-op without a log.
    pub fn simulate_torn_tail(&mut self, garbage: &[u8]) -> Result<()> {
        match self.wal.as_mut() {
            Some(wal) => wal.simulate_torn_tail(garbage),
            None => Ok(()),
        }
    }

    /// This incarnation's WAL counters (zeros without a log).
    pub fn wal_stats(&self) -> WalStats {
        self.wal.as_ref().map(Wal::stats).unwrap_or_default()
    }

    pub(crate) fn controller(&self) -> &Controller {
        &self.controller
    }

    /// Closes the door, keeping the controller (and dropping the log
    /// handle; the storage keeps what was appended).
    pub fn into_controller(self) -> Controller {
        self.controller
    }
}

/// One shard: a [`Door`] and the bounded FIFO ingest queue in front of
/// it.
#[derive(Debug)]
struct Shard {
    door: Door,
    queue: VecDeque<(f64, Batch)>,
    queue_shed: u64,
    offered: u64,
    queue_peak: usize,
}

impl Shard {
    fn new(door: Door) -> Self {
        Shard {
            door,
            queue: VecDeque::new(),
            queue_shed: 0,
            offered: 0,
            queue_peak: 0,
        }
    }

    fn drain_queue(&mut self) -> Result<Vec<ShardAck>> {
        let mut acks = Vec::with_capacity(self.queue.len());
        while let Some((arrival, batch)) = self.queue.pop_front() {
            acks.extend(self.door.offer(arrival, &batch)?);
        }
        Ok(acks)
    }
}

/// The fleet front door: agents hash-partitioned across N independent
/// [`Controller`] shards with per-shard queues, WALs, and pressure
/// rollup. See the module docs for the equivalence guarantees.
#[derive(Debug)]
pub struct ShardedController {
    config: ShardConfig,
    shards: Vec<Shard>,
}

impl ShardedController {
    /// Creates a sharded controller with no durability.
    ///
    /// # Errors
    ///
    /// Returns [`CollectError::InvalidConfig`] for a zero shard count or
    /// queue limit.
    pub fn new(config: ShardConfig) -> Result<Self> {
        config.validate()?;
        let shards = (0..config.shards)
            .map(|_| Shard::new(Door::new(config.controller)))
            .collect();
        Ok(ShardedController { config, shards })
    }

    /// Opens a sharded controller over one WAL storage per shard,
    /// replaying whatever each shard's log holds — the fleet-scale
    /// analogue of [`wal::open`]. The combined [`RecoveryReport`] is the
    /// sum of the per-shard replays.
    ///
    /// # Errors
    ///
    /// Returns [`CollectError::InvalidConfig`] when the storage count
    /// does not match the shard count, and propagates per-shard WAL
    /// open/replay errors.
    pub fn open(
        config: ShardConfig,
        storages: Vec<Arc<dyn WalStorage>>,
        wal_config: WalConfig,
    ) -> Result<(Self, RecoveryReport)> {
        config.validate()?;
        if storages.len() != config.shards {
            return Err(CollectError::InvalidConfig(format!(
                "{} WAL storages for {} shards",
                storages.len(),
                config.shards
            )));
        }
        let mut report = RecoveryReport::default();
        let mut shards = Vec::with_capacity(config.shards);
        for storage in storages {
            let (door, shard_report) = Door::open(config.controller, Some(storage), wal_config)?;
            report.absorb(&shard_report);
            shards.push(Shard::new(door));
        }
        Ok((ShardedController { config, shards }, report))
    }

    /// The configuration this controller was built with.
    pub fn config(&self) -> &ShardConfig {
        &self.config
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard that owns `agent_id`.
    pub fn shard_for(&self, agent_id: u32) -> usize {
        shard_of(agent_id, self.shards.len())
    }

    /// Offers one batch to the owning shard's queue. Bounded: a full
    /// queue sheds the offer (unacked — the agent retransmits later).
    pub fn offer_at(&mut self, arrival: f64, batch: &Batch) -> OfferOutcome {
        let limit = self.config.queue_limit;
        let idx = shard_of(batch.agent_id, self.shards.len());
        let Some(shard) = self.shards.get_mut(idx) else {
            return OfferOutcome::QueueShed;
        };
        shard.offered += 1;
        if shard.queue.len() >= limit {
            shard.queue_shed += 1;
            return OfferOutcome::QueueShed;
        }
        shard.queue.push_back((arrival, batch.clone()));
        shard.queue_peak = shard.queue_peak.max(shard.queue.len());
        OfferOutcome::Queued
    }

    /// Drains every shard's queue serially (shard 0 first), running the
    /// full resilient ingest path — admission, dedup, WAL append,
    /// checkpoint cadence — and returns the acks to route back, in shard
    /// then FIFO order. [`ShardedController::drain_parallel`] produces
    /// byte-identical state and the same ack sequence.
    ///
    /// # Errors
    ///
    /// Propagates WAL append/checkpoint failures.
    pub fn drain(&mut self) -> Result<Vec<ShardAck>> {
        let mut acks = Vec::new();
        for shard in &mut self.shards {
            acks.extend(shard.drain_queue()?);
        }
        Ok(acks)
    }

    /// Drains every shard concurrently on scoped threads — shards share
    /// no state, so this is the embarrassingly-parallel version of
    /// [`ShardedController::drain`] with identical results (acks are
    /// still concatenated in shard order).
    ///
    /// # Errors
    ///
    /// Propagates per-shard WAL failures and reports a panicked drain
    /// worker as [`CollectError::WorkerPanicked`].
    pub fn drain_parallel(&mut self) -> Result<Vec<ShardAck>> {
        let results: Vec<Result<Vec<ShardAck>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter_mut()
                .map(|shard| scope.spawn(move || shard.drain_queue()))
                .collect();
            handles
                .into_iter()
                .enumerate()
                .map(|(i, handle)| match handle.join() {
                    Ok(result) => result,
                    Err(_) => Err(CollectError::WorkerPanicked { shard: i }),
                })
                .collect()
        });
        let mut acks = Vec::new();
        for result in results {
            acks.extend(result?);
        }
        Ok(acks)
    }

    /// Batches currently queued across all shards.
    pub fn queued(&self) -> usize {
        self.shards.iter().map(|s| s.queue.len()).sum()
    }

    /// The fleet pressure rollup: per-shard queue depth and shed
    /// accounting, folded into the fleet admission signal via
    /// [`fleet_signal`].
    pub fn pressure(&self) -> FleetPressure {
        let mut shards = Vec::with_capacity(self.shards.len());
        let mut max_queue_frac = 0.0f64;
        let mut offered_total = 0u64;
        let mut shed_total = 0u64;
        for (i, s) in self.shards.iter().enumerate() {
            let p = ShardPressure {
                shard: i,
                queued: s.queue.len(),
                queue_limit: self.config.queue_limit,
                queue_peak: s.queue_peak,
                queue_shed: s.queue_shed,
                admission_shed: s.door.controller().admission_shed(),
                offered: s.offered,
            };
            max_queue_frac = max_queue_frac.max(p.queue_frac());
            offered_total += p.offered;
            shed_total += p.queue_shed + p.admission_shed;
            shards.push(p);
        }
        let shed_ratio = if offered_total == 0 {
            0.0
        } else {
            shed_total as f64 / offered_total as f64
        };
        FleetPressure {
            shards,
            max_queue_frac,
            shed_ratio,
            signal: fleet_signal(max_queue_frac, shed_ratio),
        }
    }

    /// Health report for one agent's stream, routed to its shard.
    pub fn stream_health(&self, agent_id: u32) -> Option<StreamHealth> {
        self.shards
            .get(self.shard_for(agent_id))?
            .door
            .controller()
            .stream_health(agent_id)
    }

    /// Health reports for every stream any shard has seen, sorted by
    /// agent id (shard-count independent).
    pub fn stream_healths(&self) -> Vec<StreamHealth> {
        let mut out: Vec<StreamHealth> = self
            .shards
            .iter()
            .flat_map(|s| s.door.controller().stream_healths())
            .collect();
        out.sort_by_key(|h| h.agent_id);
        out
    }

    /// Whether `(agent_id, seq)` has been accepted by its owning shard.
    pub fn has_seen(&self, agent_id: u32, seq: u32) -> bool {
        self.shards
            .get(self.shard_for(agent_id))
            .is_some_and(|s| s.door.controller().has_seen(agent_id, seq))
    }

    /// `(batches, readings)` accepted across all shards.
    pub fn ingest_stats(&self) -> (u64, u64) {
        let mut batches = 0;
        let mut readings = 0;
        for s in &self.shards {
            let (b, r) = s.door.controller().ingest_stats();
            batches += b;
            readings += r;
        }
        (batches, readings)
    }

    /// Approximate resident bytes of controller state across shards,
    /// including batches still sitting in ingest queues. Deterministic —
    /// the fleet bytes-per-agent gate divides this by the agent count.
    pub fn approx_bytes(&self) -> u64 {
        let mut total = 0u64;
        for s in &self.shards {
            total += s.door.controller().approx_bytes();
            for (_, batch) in &s.queue {
                total += 16 + batch.readings.len() as u64 * 16;
            }
        }
        total
    }

    /// Aggregate WAL counters across shards (zeros when opened without
    /// durability).
    pub fn wal_stats(&self) -> WalStats {
        let mut out = WalStats::default();
        for s in &self.shards {
            out.absorb(&s.door.wal_stats());
        }
        out
    }

    /// Folds each shard's [`Controller::state_digest`] (with its shard
    /// index) into one fleet digest. Shard-count *dependent* — use
    /// [`ShardedController::tsdb_digest`] for cross-shard-count
    /// comparisons.
    pub fn state_digest(&self) -> u64 {
        let mut h = fnv1a_init();
        for (i, s) in self.shards.iter().enumerate() {
            fnv1a(&mut h, &(i as u64).to_le_bytes());
            fnv1a(&mut h, &s.door.controller().state_digest().to_le_bytes());
        }
        h
    }

    /// Canonical digest of the union of all shard TSDBs — equal to a
    /// single controller's [`TsDb::canonical_fingerprint`] over the same
    /// accepted traffic, for *any* shard count. The sharding-correctness
    /// invariant the proptests and the 10 000-agent fleet golden pin.
    pub fn tsdb_digest(&self) -> u64 {
        let stores: Vec<&TsDb> = self
            .shards
            .iter()
            .map(|s| s.door.controller().tsdb())
            .collect();
        canonical_fingerprint_merged(&stores)
    }

    /// Borrow one shard's controller (diagnostics and tests; `None` out
    /// of range).
    pub fn shard_controller(&self, shard: usize) -> Option<&Controller> {
        self.shards.get(shard).map(|s| s.door.controller())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensor::SensorReading;
    use crate::wal::MemStorage;
    use crate::wire::StampedReading;
    use crate::ImuSample;

    /// Wire round-trip so WAL replay re-encodes bitwise-identical values
    /// (same convention as the wal.rs tests).
    fn canonical(batch: &Batch) -> Batch {
        crate::wire::decode_batch(crate::wire::encode_batch(batch)).unwrap()
    }

    fn imu_batch(agent: u32, seq: u32, stamps: &[f64]) -> Batch {
        canonical(&Batch {
            agent_id: agent,
            seq,
            readings: stamps
                .iter()
                .map(|&t| StampedReading {
                    timestamp: t,
                    reading: SensorReading::Imu(ImuSample {
                        accel: [t as f32, agent as f32, 9.8],
                        gyro: [0.0; 3],
                        gravity: [0.0, 0.0, 9.8],
                        rotation: [0.0; 3],
                    }),
                })
                .collect(),
        })
    }

    #[test]
    fn routing_is_deterministic_in_range_and_spread() {
        for shards in [1usize, 2, 7, 16] {
            let mut hit = vec![false; shards];
            for agent in 0..1000u32 {
                let s = shard_of(agent, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(agent, shards), "routing must be stable");
                hit[s] = true;
            }
            assert!(hit.iter().all(|&h| h), "every shard should own agents");
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(ShardedController::new(ShardConfig {
            shards: 0,
            ..ShardConfig::default()
        })
        .is_err());
        assert!(ShardedController::new(ShardConfig {
            queue_limit: 0,
            ..ShardConfig::default()
        })
        .is_err());
        assert!(ShardedController::open(
            ShardConfig::default(),
            vec![Arc::new(MemStorage::new())],
            WalConfig::default(),
        )
        .is_err());
    }

    /// The traffic used by the equivalence tests: interleaved agents,
    /// an out-of-order delivery, and a duplicate.
    fn traffic() -> Vec<(f64, Batch)> {
        let mut t = Vec::new();
        for step in 0..20u32 {
            for agent in 0..6u32 {
                let at = step as f64 * 0.5 + agent as f64 * 0.01;
                t.push((at, imu_batch(agent, step, &[at, at + 0.1])));
            }
        }
        // A duplicate delivery and a late out-of-order one.
        t.push((10.2, imu_batch(2, 5, &[2.6, 2.7])));
        t.push((10.3, imu_batch(3, 0, &[0.03, 0.13])));
        t
    }

    #[test]
    fn single_shard_matches_plain_controller_exactly() {
        let config = ShardConfig {
            shards: 1,
            ..ShardConfig::default()
        };
        let mut sharded = ShardedController::new(config).unwrap();
        let mut single = Controller::new(config.controller);
        let mut door = Door::new(config.controller);
        let mut door_acks = Vec::new();
        for (at, batch) in traffic() {
            assert_eq!(sharded.offer_at(at, &batch), OfferOutcome::Queued);
            single.offer_at(at, &batch, None).unwrap();
            door_acks.extend(door.offer(at, &batch).unwrap());
        }
        let acks = sharded.drain().unwrap();
        assert!(!acks.is_empty());
        // A shard is a queue in front of the door: same acks, same state.
        assert_eq!(acks, door_acks);
        let c0 = sharded.shard_controller(0).unwrap();
        assert_eq!(c0.state_digest(), door.controller().state_digest());
        assert_eq!(c0.state_digest(), single.state_digest());
        assert_eq!(sharded.tsdb_digest(), single.tsdb().canonical_fingerprint());
    }

    #[test]
    fn merged_tsdb_digest_matches_single_controller_across_shard_counts() {
        let mut single = Controller::new(ControllerConfig::default());
        for (at, batch) in traffic() {
            single.offer_at(at, &batch, None).unwrap();
        }
        for shards in [2usize, 3, 8] {
            let mut sharded = ShardedController::new(ShardConfig {
                shards,
                ..ShardConfig::default()
            })
            .unwrap();
            for (at, batch) in traffic() {
                sharded.offer_at(at, &batch);
            }
            sharded.drain().unwrap();
            assert_eq!(
                sharded.tsdb_digest(),
                single.tsdb().canonical_fingerprint(),
                "shards={shards}"
            );
            assert_eq!(sharded.ingest_stats(), single.ingest_stats());
            // Stream-level accounting is sharding-invariant too.
            assert_eq!(sharded.stream_healths(), single.stream_healths());
        }
    }

    fn frame_batch(agent: u32, seq: u32, t: f64) -> Batch {
        canonical(&Batch {
            agent_id: agent,
            seq,
            readings: vec![StampedReading {
                timestamp: t,
                reading: SensorReading::Frame(crate::Frame::new(4, 4)),
            }],
        })
    }

    /// A bucket of 30 with a low-priority reserve of 20: every frame
    /// batch (cost 16) is shed, IMU batches (cost 1 per reading) pass.
    fn frames_shed_config() -> ControllerConfig {
        ControllerConfig {
            admission: crate::controller::AdmissionConfig {
                enabled: true,
                capacity: 30.0,
                drain_per_sec: 0.0,
                low_priority_reserve: 20.0,
            },
            ..ControllerConfig::default()
        }
    }

    #[test]
    fn door_shed_means_no_ack_no_append_no_snapshot() {
        let storage = Arc::new(MemStorage::new());
        let store = || Some(Arc::clone(&storage) as Arc<dyn WalStorage>);
        let cadence = |snapshot_every| WalConfig {
            snapshot_every,
            ..WalConfig::default()
        };
        // Log two batches with snapshots off, then reopen with a cadence
        // of two: a snapshot is due the moment the door opens.
        let (mut door, _) = Door::open(frames_shed_config(), store(), cadence(0)).unwrap();
        for seq in 0..2 {
            assert!(door
                .offer(0.0, &imu_batch(0, seq, &[0.0]))
                .unwrap()
                .is_some());
        }
        drop(door);
        let (mut door, report) = Door::open(frames_shed_config(), store(), cadence(2)).unwrap();
        assert_eq!(report.records_replayed, 2);
        let logged = storage.total_bytes();

        assert_eq!(door.offer(0.1, &frame_batch(1, 0, 0.1)).unwrap(), None);
        assert_eq!(door.wal_stats(), WalStats::default());
        assert_eq!(storage.total_bytes(), logged);
        assert!(!door.controller().has_seen(1, 0));
        assert_eq!(door.controller().stream_health(0).unwrap().shed, 0);
        assert_eq!(door.controller().stream_meta(), vec![(0, 0, 0), (1, 0, 1)]);

        // The due snapshot rides on the next acked delivery instead.
        let acked = door.offer(0.2, &imu_batch(0, 2, &[0.2])).unwrap().unwrap();
        assert_eq!(acked.outcome, IngestOutcome::Accepted);
        let stats = door.wal_stats();
        assert_eq!((stats.appends, stats.snapshots_taken), (1, 1));
    }

    /// A store whose appends fail while `broken` is set.
    #[derive(Debug, Default)]
    struct FlakyStorage {
        inner: MemStorage,
        broken: std::sync::atomic::AtomicBool,
    }

    impl WalStorage for FlakyStorage {
        fn list(&self) -> Result<Vec<String>> {
            self.inner.list()
        }
        fn read(&self, object: &str) -> Result<Vec<u8>> {
            self.inner.read(object)
        }
        fn append(&self, object: &str, data: &[u8]) -> Result<()> {
            if self.broken.load(std::sync::atomic::Ordering::SeqCst) {
                return Err(CollectError::Wal {
                    object: object.to_string(),
                    op: "append",
                    kind: std::io::ErrorKind::Other,
                });
            }
            self.inner.append(object, data)
        }
        fn truncate(&self, object: &str, len: u64) -> Result<()> {
            self.inner.truncate(object, len)
        }
    }

    #[test]
    fn failed_checkpoint_stays_due_and_rides_the_next_ack() {
        let storage = Arc::new(FlakyStorage::default());
        let store = || Some(Arc::clone(&storage) as Arc<dyn WalStorage>);
        let cadence = |snapshot_every| WalConfig {
            snapshot_every,
            ..WalConfig::default()
        };
        // As in `door_shed_means_…`: a checkpoint is due at open.
        let (mut door, _) = Door::open(ControllerConfig::default(), store(), cadence(0)).unwrap();
        let batch = imu_batch(0, 0, &[0.0]);
        door.offer(0.0, &batch).unwrap();
        door.offer(0.0, &imu_batch(0, 1, &[0.0])).unwrap();
        drop(door);
        let (mut door, _) = Door::open(ControllerConfig::default(), store(), cadence(2)).unwrap();
        let position = |door: &Door| {
            let wal = door.wal.as_ref().unwrap();
            (wal.segment_index(), wal.needs_snapshot())
        };
        assert_eq!(position(&door), (0, true));
        let logged = storage.inner.total_bytes();

        // A duplicate needs no batch append, so the only append this
        // offer makes is the checkpoint — and it fails.
        storage
            .broken
            .store(true, std::sync::atomic::Ordering::SeqCst);
        assert!(matches!(
            door.offer(0.1, &batch),
            Err(CollectError::Wal { op: "append", .. })
        ));
        assert_eq!(position(&door), (0, true), "the log position did not move");
        assert_eq!(door.wal_stats().snapshots_taken, 0);
        assert_eq!(storage.inner.total_bytes(), logged);

        storage
            .broken
            .store(false, std::sync::atomic::Ordering::SeqCst);
        let acked = door.offer(0.2, &batch).unwrap().unwrap();
        assert_eq!(acked.outcome, IngestOutcome::Duplicate);
        assert_eq!(position(&door), (1, false));
        assert_eq!(door.wal_stats().snapshots_taken, 1);
        let meta = door.controller().stream_meta();
        drop(door);
        let (door, _) = Door::open(ControllerConfig::default(), store(), cadence(2)).unwrap();
        assert_eq!(door.controller().stream_meta(), meta);
    }

    /// A store that counts its listings and logs every object read.
    #[derive(Debug, Default)]
    struct CountingStorage {
        inner: MemStorage,
        lists: std::sync::atomic::AtomicUsize,
        reads: std::sync::Mutex<Vec<String>>,
    }

    impl WalStorage for CountingStorage {
        fn list(&self) -> Result<Vec<String>> {
            self.lists.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            self.inner.list()
        }
        fn read(&self, object: &str) -> Result<Vec<u8>> {
            self.reads.lock().unwrap().push(object.to_string());
            self.inner.read(object)
        }
        fn append(&self, object: &str, data: &[u8]) -> Result<()> {
            self.inner.append(object, data)
        }
        fn truncate(&self, object: &str, len: u64) -> Result<()> {
            self.inner.truncate(object, len)
        }
    }

    #[test]
    fn open_lists_once_and_reads_each_object_once() {
        let storage = Arc::new(CountingStorage::default());
        let store = || Some(Arc::clone(&storage) as Arc<dyn WalStorage>);
        let wal_config = WalConfig {
            segment_max_records: 4,
            snapshot_every: 10,
        };
        let (mut door, _) = Door::open(ControllerConfig::default(), store(), wal_config).unwrap();
        for seq in 0..25 {
            door.offer(0.0, &imu_batch(0, seq, &[0.0])).unwrap();
        }
        door.simulate_torn_tail(&[0xEE; 5]).unwrap();
        drop(door);
        let objects = storage.inner.list().unwrap();
        assert!(objects.len() > 2, "{objects:?}");
        storage.lists.store(0, std::sync::atomic::Ordering::SeqCst);
        storage.reads.lock().unwrap().clear();

        let (_, report) = Door::open(ControllerConfig::default(), store(), wal_config).unwrap();
        assert_eq!((report.records_replayed, report.torn_tail_bytes), (25, 5));
        assert_eq!(storage.lists.load(std::sync::atomic::Ordering::SeqCst), 1);
        let mut reads = storage.reads.lock().unwrap().clone();
        reads.sort();
        assert_eq!(reads, objects, "each object read exactly once");
    }

    #[test]
    fn door_logs_before_it_mutates_or_acks() {
        let storage = Arc::new(FlakyStorage::default());
        let store = || Some(Arc::clone(&storage) as Arc<dyn WalStorage>);
        let config = ControllerConfig::default();
        let (mut door, _) = Door::open(config, store(), WalConfig::default()).unwrap();
        let empty = door.controller().state_digest();

        // The append fails: no ack, and state never got ahead of the log.
        storage
            .broken
            .store(true, std::sync::atomic::Ordering::SeqCst);
        let batch = imu_batch(0, 0, &[0.0, 0.025]);
        assert!(matches!(
            door.offer(0.5, &batch),
            Err(CollectError::Wal { op: "append", .. })
        ));
        assert!(!door.controller().has_seen(0, 0));
        assert_eq!(door.controller().state_digest(), empty);

        // The retransmission is logged, then acked. Kill the process
        // right there, mid-write of whatever came next: the ack's
        // promise holds in the next incarnation.
        storage
            .broken
            .store(false, std::sync::atomic::Ordering::SeqCst);
        let acked = door.offer(0.7, &batch).unwrap().unwrap();
        assert_eq!(acked.ack, Controller::ack_for(&batch));
        let digest = door.controller().state_digest();
        door.simulate_torn_tail(&[0xAB; 11]).unwrap();
        drop(door);
        let (door, report) = Door::open(config, store(), WalConfig::default()).unwrap();
        assert_eq!(report.torn_tail_bytes, 11);
        assert!(door.controller().has_seen(0, 0));
        assert_eq!(door.controller().state_digest(), digest);
    }

    #[test]
    fn door_reacks_duplicates_without_a_second_append() {
        let storage = Arc::new(MemStorage::new());
        let store = Some(Arc::clone(&storage) as Arc<dyn WalStorage>);
        let (mut door, _) =
            Door::open(ControllerConfig::default(), store, WalConfig::default()).unwrap();
        let batch = imu_batch(3, 7, &[1.0]);
        let first = door.offer(1.0, &batch).unwrap().unwrap();
        let logged = storage.total_bytes();
        let again = door.offer(1.4, &batch).unwrap().unwrap();
        assert_eq!(first.outcome, IngestOutcome::Accepted);
        assert_eq!(again.outcome, IngestOutcome::Duplicate);
        assert_eq!(again.ack, first.ack);
        assert_eq!(door.wal_stats().appends, 1);
        assert_eq!(storage.total_bytes(), logged);
        assert_eq!(door.controller().stream_health(3).unwrap().duplicates, 1);
    }

    #[test]
    fn parallel_drain_equals_serial_drain() {
        let build = || {
            let mut s = ShardedController::new(ShardConfig {
                shards: 4,
                ..ShardConfig::default()
            })
            .unwrap();
            for (at, batch) in traffic() {
                s.offer_at(at, &batch);
            }
            s
        };
        let mut serial = build();
        let mut parallel = build();
        let a = serial.drain().unwrap();
        let b = parallel.drain_parallel().unwrap();
        assert_eq!(a, b);
        assert_eq!(serial.state_digest(), parallel.state_digest());
    }

    #[test]
    fn full_queue_sheds_and_pressure_reports_it() {
        let mut s = ShardedController::new(ShardConfig {
            shards: 1,
            queue_limit: 4,
            ..ShardConfig::default()
        })
        .unwrap();
        let mut queued = 0;
        let mut shed = 0;
        for seq in 0..10u32 {
            match s.offer_at(0.0, &imu_batch(0, seq, &[0.0])) {
                OfferOutcome::Queued => queued += 1,
                OfferOutcome::QueueShed => shed += 1,
            }
        }
        assert_eq!((queued, shed), (4, 6));
        let p = s.pressure();
        assert_eq!(p.shards[0].queued, 4);
        assert_eq!(p.shards[0].queue_shed, 6);
        assert_eq!(p.signal, FleetAdmission::Shed);
        // Draining empties the queue; shed history keeps the ratio high.
        s.drain().unwrap();
        let p = s.pressure();
        assert_eq!(p.shards[0].queued, 0);
        assert!(p.shed_ratio > 0.5);
    }

    #[test]
    fn pressure_counts_sheds_of_a_stream_nothing_was_accepted_from() {
        // A new camera agent whose every delivery is shed has no health
        // report (no accepted batch); its sheds still reach the rollup.
        let mut s = ShardedController::new(ShardConfig {
            shards: 1,
            controller: frames_shed_config(),
            ..ShardConfig::default()
        })
        .unwrap();
        for seq in 0..5 {
            assert_eq!(
                s.offer_at(0.0, &frame_batch(1, seq, 0.0)),
                OfferOutcome::Queued
            );
        }
        assert!(s.drain().unwrap().is_empty());
        assert_eq!(s.stream_health(1), None);
        let p = s.pressure();
        assert_eq!(p.shards[0].admission_shed, 5);
        assert_eq!(p.shed_ratio, 1.0);
        assert_eq!(p.signal, FleetAdmission::Shed);
    }

    #[test]
    fn backpressure_rollup_thresholds() {
        assert_eq!(fleet_signal(0.0, 0.0), FleetAdmission::Accept);
        assert_eq!(fleet_signal(0.49, 0.24), FleetAdmission::Accept);
        // Either axis crossing its throttle threshold throttles.
        assert_eq!(fleet_signal(0.5, 0.0), FleetAdmission::Throttle);
        assert_eq!(fleet_signal(0.0, 0.25), FleetAdmission::Throttle);
        // Either axis crossing its shed threshold sheds.
        assert_eq!(fleet_signal(0.9, 0.0), FleetAdmission::Shed);
        assert_eq!(fleet_signal(0.0, 0.75), FleetAdmission::Shed);
        // Severity is ordered, so rollups can take a max.
        assert!(FleetAdmission::Shed > FleetAdmission::Throttle);
        assert!(FleetAdmission::Throttle > FleetAdmission::Accept);
    }

    #[test]
    fn sharded_wal_recovery_restores_every_shard() {
        let config = ShardConfig {
            shards: 3,
            ..ShardConfig::default()
        };
        let storages: Vec<Arc<dyn WalStorage>> = (0..3)
            .map(|_| Arc::new(MemStorage::new()) as Arc<dyn WalStorage>)
            .collect();
        let (mut live, first) =
            ShardedController::open(config, storages.clone(), WalConfig::default()).unwrap();
        assert_eq!(first.records_replayed, 0);
        // Duplicate-free prefix: duplicate tallies are ephemeral
        // observability counters, not durable state (same convention as
        // the WAL round-trip proptests).
        for (at, batch) in traffic().into_iter().take(120) {
            live.offer_at(at, &batch);
        }
        live.drain().unwrap();
        let digest = live.state_digest();
        assert!(live.wal_stats().appends > 0);
        drop(live);

        let (recovered, report) =
            ShardedController::open(config, storages, WalConfig::default()).unwrap();
        assert!(report.records_replayed > 0);
        assert_eq!(recovered.state_digest(), digest);
        assert!(recovered.has_seen(0, 19));
    }

    #[test]
    fn routing_queries_and_bytes_accounting() {
        let mut s = ShardedController::new(ShardConfig::default()).unwrap();
        assert_eq!(s.approx_bytes(), 0);
        let b = imu_batch(5, 0, &[0.0]);
        s.offer_at(0.0, &b);
        assert!(s.approx_bytes() > 0, "queued batches count");
        s.drain().unwrap();
        assert!(s.has_seen(5, 0));
        assert!(!s.has_seen(5, 1));
        assert_eq!(s.shard_for(5), shard_of(5, 4));
        assert_eq!(s.stream_health(5).unwrap().delivered, 1);
        assert!(s.stream_health(6).is_none());
        assert_eq!(s.queued(), 0);
        assert!(s.shard_controller(99).is_none());
    }
}
