//! Segment-based write-ahead log for the controller's durable ingest
//! state (DESIGN.md §13).
//!
//! Every accepted batch is appended — *before* it is acked — as one
//! CRC-framed record to the current segment object; segments roll at a
//! configured record count. The log is append-only: nothing is ever
//! rewritten or deleted, so replay-on-open is O(history). A periodic
//! **checkpoint** ([`Wal::snapshot`]) rolls to a fresh segment and heads
//! it with one record of the per-stream counters that replay cannot
//! rederive (duplicates, shed). Replay re-ingests every segment in order
//! through the controller's normal dedup path — the last checkpoint's
//! counters win — which makes recovery **idempotent** (a record applied
//! twice is a duplicate, not a double-insert) and
//! **bitwise-deterministic** (records replay in acceptance order with the
//! exact bytes that were acked — see [`Controller::state_digest`]).
//!
//! A crash can tear the tail of the newest segment: an incomplete or
//! corrupt record *at the tail* is truncated away (it was never acked —
//! the append happens before the ack; a torn checkpoint is the same
//! tear). The same corruption anywhere else is real damage and surfaces
//! as [`CollectError::Recovery`].
//!
//! Storage is abstracted behind [`WalStorage`]: [`MemStorage`] backs the
//! deterministic simulation and chaos harness. The directory backend,
//! `darnet_collect::wal::DirStorage`, lives outside this crate: it is
//! the one durable-I/O owner, and this crate touches no filesystem
//! (DESIGN.md §11).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::controller::{Controller, ControllerConfig};
use crate::error::CollectError;
use crate::wire::{decode_batch, encode_batch_into, Batch};
use crate::Result;

/// Record tag: one accepted batch (`[tag][arrival f64][batch wire bytes]`).
const REC_BATCH: u8 = 1;
/// Record tag: checkpoint stream-counter metadata
/// (`[tag][u32 n]{[u32 agent][u64 duplicates][u64 shed]}*n`).
const REC_META: u8 = 2;
/// Bytes of record framing: `[u32 payload_len][u32 crc32(payload)]`.
const FRAME_BYTES: usize = 8;
/// Sanity bound on a single record payload (a 48×48 frame batch is ~2.4
/// KiB per frame; a full flush is far below this). Oversized lengths are
/// treated as corruption, keeping torn-tail garbage from provoking huge
/// speculative reads.
const MAX_PAYLOAD: u32 = 64 << 20;

/// CRC-32 (IEEE, reflected) slice-by-8 lookup tables, built at compile
/// time so the framing needs no external dependency: `T[0]` is the
/// classic bytewise table, and `T[k][b]` is byte `b`'s remainder pushed
/// through `k` further zero bytes, so one step folds eight input bytes.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let c = tables[k - 1][i];
            tables[k][i] = (c >> 8) ^ tables[0][(c & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32 (IEEE) of `data` — the checksum in every record's frame
/// header. Eight bytes a step, then the tail bytewise.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Storage backend for WAL objects (segments). Objects are flat named
/// byte blobs supporting append and truncate-to-length — the minimal
/// contract both an in-memory store and a directory of files satisfy.
pub trait WalStorage: fmt::Debug + Send + Sync {
    /// Names of all existing objects, in unspecified order.
    ///
    /// # Errors
    ///
    /// Returns [`CollectError::Wal`] when the backing store cannot be
    /// enumerated.
    fn list(&self) -> Result<Vec<String>>;

    /// Full contents of `object`.
    ///
    /// # Errors
    ///
    /// Returns [`CollectError::Wal`] when the object cannot be read.
    fn read(&self, object: &str) -> Result<Vec<u8>>;

    /// Appends `data` to `object`, creating it if absent.
    ///
    /// # Errors
    ///
    /// Returns [`CollectError::Wal`] when the write fails.
    fn append(&self, object: &str, data: &[u8]) -> Result<()>;

    /// Truncates `object` to `len` bytes (torn-tail repair).
    ///
    /// # Errors
    ///
    /// Returns [`CollectError::Wal`] when the truncate fails.
    fn truncate(&self, object: &str, len: u64) -> Result<()>;
}

/// In-memory [`WalStorage`], the backend for the deterministic simulation
/// and the chaos harness. Share one store across controller "processes"
/// via `Arc` — it survives the simulated crash exactly as a disk would.
#[derive(Debug, Default)]
pub struct MemStorage {
    objects: Mutex<BTreeMap<String, Vec<u8>>>,
}

impl MemStorage {
    /// Creates an empty store.
    pub fn new() -> Self {
        MemStorage::default()
    }

    /// Total bytes across all objects (diagnostic).
    pub fn total_bytes(&self) -> usize {
        self.objects().values().map(Vec::len).sum()
    }

    /// The object map. A poisoned lock is taken as it is: no code that
    /// holds this guard panics, so the map is never left half-written.
    fn objects(&self) -> MutexGuard<'_, BTreeMap<String, Vec<u8>>> {
        self.objects.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl WalStorage for MemStorage {
    fn list(&self) -> Result<Vec<String>> {
        Ok(self.objects().keys().cloned().collect())
    }

    fn read(&self, object: &str) -> Result<Vec<u8>> {
        self.objects()
            .get(object)
            .cloned()
            .ok_or_else(|| CollectError::Wal {
                object: object.to_string(),
                op: "read",
                kind: std::io::ErrorKind::NotFound,
            })
    }

    fn append(&self, object: &str, data: &[u8]) -> Result<()> {
        // Looked up by `&str`: an append allocates only when the object's
        // buffer grows.
        let mut objects = self.objects();
        match objects.get_mut(object) {
            Some(bytes) => bytes.extend_from_slice(data),
            None => create_object(&mut objects, object, data),
        }
        Ok(())
    }

    fn truncate(&self, object: &str, len: u64) -> Result<()> {
        match self.objects().get_mut(object) {
            Some(data) => {
                data.truncate(len as usize);
                Ok(())
            }
            None => Err(CollectError::Wal {
                object: object.to_string(),
                op: "truncate",
                kind: std::io::ErrorKind::NotFound,
            }),
        }
    }
}

fn create_object(objects: &mut BTreeMap<String, Vec<u8>>, object: &str, data: &[u8]) {
    objects.insert(object.to_string(), data.to_vec());
}

/// WAL tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalConfig {
    /// Records per segment before rolling to a new segment object.
    pub segment_max_records: u64,
    /// Batch records appended since the last checkpoint before
    /// [`Wal::needs_snapshot`] turns true; `0` disables checkpointing.
    pub snapshot_every: u64,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            segment_max_records: 256,
            snapshot_every: 1024,
        }
    }
}

/// Cumulative WAL counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalStats {
    /// Batch records appended.
    pub appends: u64,
    /// Bytes appended (framing included).
    pub bytes_appended: u64,
    /// Segment rolls at `segment_max_records` (a checkpoint's roll is
    /// counted in `snapshots_taken` instead).
    pub segments_rolled: u64,
    /// Checkpoints taken.
    pub snapshots_taken: u64,
}

impl WalStats {
    /// Folds another log's counters into this one: a session sums its
    /// controller incarnations, a sharded controller its shards.
    pub fn absorb(&mut self, other: &WalStats) {
        self.appends += other.appends;
        self.bytes_appended += other.bytes_appended;
        self.segments_rolled += other.segments_rolled;
        self.snapshots_taken += other.snapshots_taken;
    }
}

/// What replay-on-open found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Whether the log held a checkpoint, i.e. the per-stream
    /// duplicate/shed counters were restored from one.
    pub snapshot_used: bool,
    /// Batch records applied (controller accepted them).
    pub records_replayed: u64,
    /// Batch records the controller's dedup skipped — nonzero only when
    /// replaying over a non-empty controller (idempotent re-replay).
    pub duplicates_skipped: u64,
    /// Garbage bytes truncated off the newest segment's tail.
    pub torn_tail_bytes: u64,
    /// Segment objects scanned.
    pub segments_scanned: u64,
}

impl RecoveryReport {
    /// Folds another report into this one — a sharded controller opens
    /// one WAL per shard and reports fleet recovery as the sum of the
    /// per-shard replays (`snapshot_used` is true if any shard's log held a checkpoint).
    pub fn absorb(&mut self, other: &RecoveryReport) {
        self.snapshot_used |= other.snapshot_used;
        self.records_replayed += other.records_replayed;
        self.duplicates_skipped += other.duplicates_skipped;
        self.torn_tail_bytes += other.torn_tail_bytes;
        self.segments_scanned += other.segments_scanned;
    }
}

fn seg_name(index: u64) -> String {
    format!("seg-{index:08}")
}

/// One parsed WAL record.
enum Record {
    /// `(arrival, batch)` — an accepted batch to re-ingest.
    Batch(f64, Batch),
    /// Checkpoint stream counters: `(agent, duplicates, shed)`.
    Meta(Vec<(u32, u64, u64)>),
}

/// Why parsing stopped mid-object.
struct TornTail {
    /// Byte offset of the first invalid record.
    offset: u64,
    /// What was wrong.
    reason: String,
}

/// Parses every complete, CRC-valid record in `data`. Returns the
/// records and — when the object ends in an incomplete or corrupt
/// record — where the valid prefix ends and what was wrong there. A
/// batch record decodes from a view into `data`, not a copy.
fn parse_records(data: &Bytes) -> (Vec<Record>, Option<TornTail>) {
    let mut records = Vec::new();
    let mut offset = 0usize;
    while offset < data.len() {
        let torn = |reason: String| TornTail {
            offset: offset as u64,
            reason,
        };
        let rest = &data[offset..];
        if rest.len() < FRAME_BYTES {
            return (
                records,
                Some(torn(format!(
                    "truncated frame header ({} bytes)",
                    rest.len()
                ))),
            );
        }
        let len = u32::from_be_bytes([rest[0], rest[1], rest[2], rest[3]]);
        let crc = u32::from_be_bytes([rest[4], rest[5], rest[6], rest[7]]);
        if len > MAX_PAYLOAD {
            return (
                records,
                Some(torn(format!("implausible payload length {len}"))),
            );
        }
        let len = len as usize;
        if rest.len() < FRAME_BYTES + len {
            return (
                records,
                Some(torn(format!(
                    "truncated payload ({} of {len} bytes)",
                    rest.len() - FRAME_BYTES
                ))),
            );
        }
        let at = offset + FRAME_BYTES;
        let payload = data.slice(at..at + len);
        if crc32(&payload) != crc {
            return (records, Some(torn("crc mismatch".into())));
        }
        match parse_payload(payload) {
            Ok(record) => records.push(record),
            Err(reason) => return (records, Some(torn(reason))),
        }
        offset += FRAME_BYTES + len;
    }
    (records, None)
}

/// Parses one CRC-validated record payload, a view into its segment.
fn parse_payload(mut payload: Bytes) -> std::result::Result<Record, String> {
    let (&tag, body) = payload
        .split_first()
        .ok_or_else(|| "empty payload".to_string())?;
    match tag {
        REC_BATCH => {
            if body.len() < 8 {
                return Err("batch record shorter than its arrival stamp".into());
            }
            let arrival = f64::from_be_bytes([
                body[0], body[1], body[2], body[3], body[4], body[5], body[6], body[7],
            ]);
            payload.advance(1 + 8);
            let batch = decode_batch(payload).map_err(|e| format!("batch decode: {e}"))?;
            Ok(Record::Batch(arrival, batch))
        }
        REC_META => {
            if body.len() < 4 {
                return Err("meta record shorter than its count".into());
            }
            let n = u32::from_be_bytes([body[0], body[1], body[2], body[3]]) as usize;
            let mut meta = Vec::with_capacity(n.min(1 << 16));
            let mut at = 4usize;
            for _ in 0..n {
                if body.len() < at + 20 {
                    return Err("truncated meta entry".into());
                }
                let agent =
                    u32::from_be_bytes([body[at], body[at + 1], body[at + 2], body[at + 3]]);
                let mut dup = [0u8; 8];
                dup.copy_from_slice(&body[at + 4..at + 12]);
                let mut shed = [0u8; 8];
                shed.copy_from_slice(&body[at + 12..at + 20]);
                meta.push((agent, u64::from_be_bytes(dup), u64::from_be_bytes(shed)));
                at += 20;
            }
            if body.len() > at {
                return Err(format!(
                    "{} trailing bytes after {n} meta entries",
                    body.len() - at
                ));
            }
            Ok(Record::Meta(meta))
        }
        other => Err(format!("unknown record tag {other}")),
    }
}

/// Back-patches the reserved `[len][crc]` header of the one record in
/// `scratch`; everything past the header is its payload.
fn seal(scratch: &mut BytesMut) {
    let payload_len = (scratch.len() - FRAME_BYTES) as u32;
    let crc = crc32(&scratch[FRAME_BYTES..]);
    scratch[0..4].copy_from_slice(&payload_len.to_be_bytes());
    scratch[4..8].copy_from_slice(&crc.to_be_bytes());
}

/// Where the log ends — what [`open`] needs to position the write side.
#[derive(Debug, Default)]
struct Tail {
    /// Index of the newest segment.
    seg_index: u64,
    /// Batch records in the newest segment.
    seg_records: u64,
    /// Batch records since the last checkpoint.
    since_snapshot: u64,
}

/// The write side of the log: appends CRC-framed batch records to the
/// current segment, rolls segments, and takes checkpoints. Obtain one
/// positioned at the log's tail via [`open`].
#[derive(Debug)]
pub struct Wal {
    storage: Arc<dyn WalStorage>,
    config: WalConfig,
    tail: Tail,
    /// Object name of segment `tail.seg_index`, rebuilt only when the
    /// index moves.
    seg_object: String,
    /// Reused scratch for record framing (hot path: zero steady-state
    /// allocation per append).
    scratch: BytesMut,
    stats: WalStats,
}

impl Wal {
    /// Cumulative counters.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Index of the segment currently appended to.
    pub fn segment_index(&self) -> u64 {
        self.tail.seg_index
    }

    /// Appends one accepted batch (arriving at `arrival`) as a durable
    /// record. Call *before* acking — the ack promise is exactly "this
    /// record is in the log".
    ///
    /// # Errors
    ///
    /// Returns [`CollectError::Wal`] when the storage append fails; the
    /// caller must then neither ingest nor ack the batch.
    pub fn append(&mut self, arrival: f64, batch: &Batch) -> Result<()> {
        if self.tail.seg_records >= self.config.segment_max_records {
            self.tail.seg_index += 1;
            self.tail.seg_records = 0;
            self.seg_object = seg_name(self.tail.seg_index);
            self.stats.segments_rolled += 1;
        }
        self.scratch.clear();
        // Payload: tag + arrival + wire-encoded batch. Reserve the frame
        // header, fill the payload, then back-patch length and CRC.
        self.scratch.put_u64(0);
        self.scratch.put_u8(REC_BATCH);
        self.scratch.put_f64(arrival);
        encode_batch_into(&mut self.scratch, batch);
        seal(&mut self.scratch);
        self.storage.append(&self.seg_object, &self.scratch)?;
        self.tail.seg_records += 1;
        self.tail.since_snapshot += 1;
        self.stats.appends += 1;
        self.stats.bytes_appended += self.scratch.len() as u64;
        Ok(())
    }

    /// Whether enough batch records have accumulated since the last
    /// checkpoint that the caller should take one.
    pub fn needs_snapshot(&self) -> bool {
        self.config.snapshot_every > 0 && self.tail.since_snapshot >= self.config.snapshot_every
    }

    /// Takes a checkpoint: rolls to a fresh segment headed by one record
    /// of the live controller's per-stream duplicate/shed counters — the
    /// state replay cannot rederive. One append, O(streams). The log
    /// position moves only once that append succeeds, so a failed
    /// checkpoint stays due, and a torn one is the ordinary torn tail of
    /// the newest segment: recovery truncates it and the previous
    /// checkpoint's counters stand.
    ///
    /// # Errors
    ///
    /// Returns [`CollectError::Wal`] when the storage append fails.
    pub fn snapshot(&mut self, controller: &Controller) -> Result<()> {
        let meta = controller.stream_meta();
        self.scratch.clear();
        self.scratch.put_u64(0);
        self.scratch.put_u8(REC_META);
        self.scratch.put_u32(meta.len() as u32);
        for (agent, duplicates, shed) in meta {
            self.scratch.put_u32(agent);
            self.scratch.put_u64(duplicates);
            self.scratch.put_u64(shed);
        }
        seal(&mut self.scratch);
        let next = self.tail.seg_index + 1;
        let object = seg_name(next);
        self.storage.append(&object, &self.scratch)?;
        self.tail = Tail {
            seg_index: next,
            ..Tail::default()
        };
        self.seg_object = object;
        self.stats.snapshots_taken += 1;
        Ok(())
    }

    /// Appends raw garbage bytes to the current segment — the chaos
    /// harness's model of a torn write at crash time. Recovery must
    /// truncate exactly these bytes away.
    ///
    /// # Errors
    ///
    /// Returns [`CollectError::Wal`] when the storage append fails.
    pub fn simulate_torn_tail(&mut self, garbage: &[u8]) -> Result<()> {
        if garbage.is_empty() {
            return Ok(());
        }
        self.storage.append(&self.seg_object, garbage)
    }
}

/// The one pass over the log that replay and [`open`] share: lists
/// storage once, reads and parses each segment once, in index order,
/// applies its records to `controller`, and returns where the log ends
/// along with the report.
fn scan(controller: &mut Controller, storage: &dyn WalStorage) -> Result<(RecoveryReport, Tail)> {
    let mut segments = Vec::new();
    for name in storage.list()? {
        if let Some(index) = name
            .strip_prefix("seg-")
            .and_then(|i| i.parse::<u64>().ok())
        {
            segments.push(index);
        } else if name.starts_with("snap-") {
            // An earlier build's compacted snapshot is the only copy of
            // the records it covers; opening without it would silently
            // drop them.
            return Err(CollectError::Recovery {
                object: name,
                offset: 0,
                reason:
                    "snapshot object from an earlier log format; this build reads segments only"
                        .into(),
            });
        }
    }
    segments.sort_unstable();
    let last = segments.last().copied();
    let mut report = RecoveryReport::default();
    let mut tail = Tail::default();
    for seg in segments {
        let name = seg_name(seg);
        let data = Bytes::from(storage.read(&name)?);
        let (records, torn) = parse_records(&data);
        if let Some(t) = torn {
            if Some(seg) != last {
                return Err(CollectError::Recovery {
                    object: name,
                    offset: t.offset,
                    reason: t.reason,
                });
            }
            // Torn tail on the newest segment: those bytes were never
            // acked (append-before-ack), so truncating them loses nothing
            // acknowledged.
            report.torn_tail_bytes += data.len() as u64 - t.offset;
            storage.truncate(&name, t.offset)?;
        }
        report.segments_scanned += 1;
        tail.seg_index = seg;
        tail.seg_records = 0;
        for record in records {
            match record {
                // Past admission and with no log to append to: the record
                // was admitted when it was first logged.
                Record::Batch(arrival, batch) => {
                    match controller.admitted(arrival, &batch, None)? {
                        crate::controller::IngestOutcome::Accepted => {
                            report.records_replayed += 1;
                        }
                        _ => report.duplicates_skipped += 1,
                    }
                    tail.seg_records += 1;
                    tail.since_snapshot += 1;
                }
                Record::Meta(meta) => {
                    for (agent, duplicates, shed) in meta {
                        controller.restore_stream_meta(agent, duplicates, shed);
                    }
                    report.snapshot_used = true;
                    tail.since_snapshot = 0;
                }
            }
        }
    }
    Ok((report, tail))
}

/// Replays the log into an existing controller: every segment in index
/// order, batch records through the controller's dedup, each checkpoint
/// assigning the stream counters it carries (the last one wins). Torn
/// tails on the newest segment are truncated; any other corruption, and
/// any snapshot object of an earlier log format, is a
/// [`CollectError::Recovery`]. Replaying twice is idempotent: the
/// controller's `(agent, seq)` dedup skips records it already holds.
///
/// # Errors
///
/// Returns [`CollectError::Wal`] on storage failures and
/// [`CollectError::Recovery`] on non-tail corruption.
pub fn replay_into(
    controller: &mut Controller,
    storage: &dyn WalStorage,
) -> Result<RecoveryReport> {
    scan(controller, storage).map(|(report, _)| report)
}

/// Opens the log: builds a fresh [`Controller`] with `config`, replays
/// storage into it, and returns the controller, a [`Wal`] positioned at
/// the log's tail — rolls and checkpoints fall due on the same records
/// as if the log had never been closed — and the replay report. An
/// empty store yields an empty controller — this is also how a
/// brand-new durable session starts.
///
/// # Errors
///
/// Returns [`CollectError::Wal`]/[`CollectError::Recovery`] as in
/// [`replay_into`].
pub fn open(
    config: ControllerConfig,
    storage: Arc<dyn WalStorage>,
    wal_config: WalConfig,
) -> Result<(Controller, Wal, RecoveryReport)> {
    let mut controller = Controller::new(config);
    let (report, tail) = scan(&mut controller, storage.as_ref())?;
    Ok((
        controller,
        Wal {
            storage,
            config: wal_config,
            seg_object: seg_name(tail.seg_index),
            tail,
            scratch: BytesMut::with_capacity(4096),
            stats: WalStats::default(),
        },
        report,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensor::SensorReading;
    use crate::wire::StampedReading;
    use crate::{Frame, ImuSample};

    /// Wire round-trip: batches reach the controller decoded from wire
    /// bytes, so frame pixels are already u8-quantized. Replay re-encodes
    /// those canonical values bitwise-identically.
    fn canonical(batch: &Batch) -> Batch {
        decode_batch(crate::wire::encode_batch(batch)).unwrap()
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
                        accel: [t as f32, 0.5, 9.8],
                        gyro: [0.0; 3],
                        gravity: [0.0, 0.0, 9.8],
                        rotation: [0.1, 0.0, 0.0],
                    }),
                })
                .collect(),
        })
    }

    fn frame_batch(agent: u32, seq: u32, t: f64) -> Batch {
        let mut frame = Frame::new(4, 4);
        frame.put(1, 1, 0.5);
        canonical(&Batch {
            agent_id: agent,
            seq,
            readings: vec![StampedReading {
                timestamp: t,
                reading: SensorReading::Frame(frame),
            }],
        })
    }

    /// Ingest a deterministic little workload through a durable
    /// controller; returns `(controller, wal, storage)`.
    fn durable_workload(wal_config: WalConfig) -> (Controller, Wal, Arc<MemStorage>) {
        let storage = Arc::new(MemStorage::new());
        let (controller, wal) = durable_workload_on(&storage, wal_config);
        (controller, wal, storage)
    }

    /// [`durable_workload`] logged into a store the caller owns.
    fn durable_workload_on(storage: &Arc<MemStorage>, wal_config: WalConfig) -> (Controller, Wal) {
        let (mut controller, mut wal, _) = open(
            ControllerConfig::default(),
            Arc::<MemStorage>::clone(storage) as Arc<dyn WalStorage>,
            wal_config,
        )
        .unwrap();
        for seq in 0..30u32 {
            let t = seq as f64 * 0.5;
            controller
                .offer_at(t, &imu_batch(0, seq, &[t, t + 0.1]), Some(&mut wal))
                .unwrap();
            controller
                .offer_at(t, &frame_batch(1, seq, t), Some(&mut wal))
                .unwrap();
            if wal.needs_snapshot() {
                wal.snapshot(&controller).unwrap();
            }
        }
        (controller, wal)
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn poisoned_storage_logs_and_replays_like_a_clean_one() {
        // A thread that panics while holding the object map poisons the
        // mutex; the store takes it as it is and carries on unchanged.
        let poisoned = Arc::new(MemStorage::new());
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _guard = poisoned.objects();
                panic!("panics while holding the object map");
            });
            assert!(holder.join().is_err());
        });
        assert!(poisoned.objects.is_poisoned());
        let clean = Arc::new(MemStorage::new());
        let config = WalConfig {
            segment_max_records: 8,
            snapshot_every: 20,
        };
        let (controller, _) = durable_workload_on(&poisoned, config);
        let (twin, _) = durable_workload_on(&clean, config);
        assert_eq!(controller.state_digest(), twin.state_digest());
        assert_eq!(poisoned.list().unwrap(), clean.list().unwrap());
        for object in clean.list().unwrap() {
            assert_eq!(
                poisoned.read(&object).unwrap(),
                clean.read(&object).unwrap()
            );
        }
        assert_eq!(poisoned.total_bytes(), clean.total_bytes());
        let recover = |storage: &Arc<MemStorage>| {
            let storage = Arc::<MemStorage>::clone(storage) as Arc<dyn WalStorage>;
            let (recovered, ..) = open(ControllerConfig::default(), storage, config).unwrap();
            (recovered.state_digest(), recovered.tsdb().fingerprint())
        };
        assert_eq!(recover(&poisoned), recover(&clean));
        assert_eq!(recover(&poisoned).0, controller.state_digest());
    }

    #[test]
    fn replay_rebuilds_identical_state() {
        let (controller, _wal, storage) = durable_workload(WalConfig::default());
        let (recovered, _, report) = open(
            ControllerConfig::default(),
            storage as Arc<dyn WalStorage>,
            WalConfig::default(),
        )
        .unwrap();
        assert_eq!(report.records_replayed, 60);
        assert_eq!(report.torn_tail_bytes, 0);
        assert_eq!(recovered.state_digest(), controller.state_digest());
        assert_eq!(recovered.ingest_stats(), controller.ingest_stats());
    }

    #[test]
    fn segments_roll_and_checkpoints_replay() {
        let (controller, wal, storage) = durable_workload(WalConfig {
            segment_max_records: 8,
            snapshot_every: 20,
        });
        assert!(wal.stats().segments_rolled > 0);
        assert!(wal.stats().snapshots_taken > 0);
        let (recovered, _, report) = open(
            ControllerConfig::default(),
            storage as Arc<dyn WalStorage>,
            WalConfig::default(),
        )
        .unwrap();
        assert!(report.snapshot_used);
        assert_eq!(recovered.state_digest(), controller.state_digest());
    }

    #[test]
    fn snapshot_preserves_duplicate_and_shed_counters() {
        let storage = Arc::new(MemStorage::new());
        let config = ControllerConfig {
            admission: crate::controller::AdmissionConfig {
                enabled: true,
                capacity: 40.0,
                drain_per_sec: 1.0,
                low_priority_reserve: 20.0,
            },
            ..ControllerConfig::default()
        };
        let (mut controller, mut wal, _) = open(
            config,
            Arc::<MemStorage>::clone(&storage) as Arc<dyn WalStorage>,
            WalConfig::default(),
        )
        .unwrap();
        let b = imu_batch(0, 0, &[0.0]);
        controller.offer_at(0.0, &b, Some(&mut wal)).unwrap();
        controller.offer_at(0.1, &b, Some(&mut wal)).unwrap(); // duplicate
                                                               // Frames drain 40 → 24; the second leaves 8 < 20: shed.
        controller
            .offer_at(0.1, &frame_batch(1, 0, 0.1), Some(&mut wal))
            .unwrap();
        assert_eq!(
            controller
                .offer_at(0.1, &frame_batch(1, 1, 0.1), Some(&mut wal))
                .unwrap(),
            crate::controller::IngestOutcome::Shed
        );
        wal.snapshot(&controller).unwrap();
        let (recovered, _, _) =
            open(config, storage as Arc<dyn WalStorage>, WalConfig::default()).unwrap();
        assert_eq!(recovered.stream_meta(), controller.stream_meta());
        assert_eq!(recovered.state_digest(), controller.state_digest());
    }

    #[test]
    fn torn_tail_is_truncated_and_acked_records_survive() {
        let (controller, mut wal, storage) = durable_workload(WalConfig::default());
        wal.simulate_torn_tail(&[0xDE, 0xAD, 0xBE, 0xEF, 0x01])
            .unwrap();
        let (recovered, _, report) = open(
            ControllerConfig::default(),
            Arc::<MemStorage>::clone(&storage) as Arc<dyn WalStorage>,
            WalConfig::default(),
        )
        .unwrap();
        assert_eq!(report.torn_tail_bytes, 5);
        assert_eq!(recovered.state_digest(), controller.state_digest());
        // The repair is durable: a second open sees a clean log.
        let (_, _, again) = open(
            ControllerConfig::default(),
            storage as Arc<dyn WalStorage>,
            WalConfig::default(),
        )
        .unwrap();
        assert_eq!(again.torn_tail_bytes, 0);
    }

    #[test]
    fn double_replay_is_idempotent() {
        let (controller, _, storage) = durable_workload(WalConfig::default());
        let mut recovered = Controller::new(ControllerConfig::default());
        let first = replay_into(&mut recovered, storage.as_ref()).unwrap();
        let second = replay_into(&mut recovered, storage.as_ref()).unwrap();
        assert_eq!(first.records_replayed, 60);
        assert_eq!(second.records_replayed, 0);
        assert_eq!(second.duplicates_skipped, 60);
        // Modulo the duplicate counters the double replay inflates, the
        // ingested data is identical — counters prove it.
        assert_eq!(recovered.ingest_stats(), controller.ingest_stats());
        assert_eq!(
            recovered.tsdb().fingerprint(),
            controller.tsdb().fingerprint()
        );
    }

    #[test]
    fn corruption_before_the_tail_is_a_recovery_error() {
        let (_, _, storage) = durable_workload(WalConfig {
            segment_max_records: 8,
            snapshot_every: 0,
        });
        // Flip a byte in the middle of the FIRST segment: not a tail tear.
        let name = seg_name(0);
        let mut data = storage.read(&name).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0xFF;
        storage.truncate(&name, 0).unwrap();
        storage.append(&name, &data).unwrap();
        let err = open(
            ControllerConfig::default(),
            storage as Arc<dyn WalStorage>,
            WalConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, CollectError::Recovery { .. }), "got {err:?}");
    }

    #[test]
    fn meta_record_with_a_trailing_byte_is_refused() {
        // A checkpoint in one segment and a batch in the next: the
        // checkpoint is not in the newest segment, so it is no tail a
        // crash could have torn.
        let log = |trailing: &[u8]| {
            let storage = Arc::new(MemStorage::new());
            let mut record = BytesMut::new();
            record.put_u64(0);
            record.put_u8(REC_META);
            record.put_u32(1);
            record.put_u32(7);
            record.put_u64(2);
            record.put_u64(3);
            record.put_slice(trailing);
            seal(&mut record);
            storage.append(&seg_name(0), &record).unwrap();
            record.clear();
            record.put_u64(0);
            record.put_u8(REC_BATCH);
            record.put_f64(0.5);
            encode_batch_into(&mut record, &imu_batch(7, 0, &[0.5]));
            seal(&mut record);
            storage.append(&seg_name(1), &record).unwrap();
            open(
                ControllerConfig::default(),
                storage as Arc<dyn WalStorage>,
                WalConfig::default(),
            )
        };
        let (controller, _, report) = log(&[]).unwrap();
        assert_eq!(report.records_replayed, 1);
        assert_eq!(controller.ingest_stats().0, 1);
        let err = log(&[0]).unwrap_err();
        assert!(
            matches!(
                &err,
                CollectError::Recovery { offset: 0, reason, .. } if reason.contains("trailing")
            ),
            "got {err:?}"
        );
    }

    /// Logs `records` IMU batches from `streams` agents (duplicating every
    /// fifth delivery), then returns how many bytes one checkpoint adds.
    fn checkpoint_bytes(records: u32, streams: u32) -> (usize, Arc<MemStorage>) {
        let storage = Arc::new(MemStorage::new());
        let (mut controller, mut wal, _) = open(
            ControllerConfig::default(),
            Arc::<MemStorage>::clone(&storage) as Arc<dyn WalStorage>,
            WalConfig {
                segment_max_records: 16,
                snapshot_every: 0,
            },
        )
        .unwrap();
        for i in 0..records {
            let batch = imu_batch(i % streams, i / streams, &[i as f64]);
            for _ in 0..1 + u32::from(i % 5 == 0) {
                controller
                    .offer_at(i as f64, &batch, Some(&mut wal))
                    .unwrap();
            }
        }
        let before = storage.total_bytes();
        wal.snapshot(&controller).unwrap();
        (storage.total_bytes() - before, storage)
    }

    #[test]
    fn checkpoint_cost_depends_on_streams_not_history() {
        let (short, _) = checkpoint_bytes(40, 2);
        let (long, storage) = checkpoint_bytes(400, 2);
        assert_eq!(short, long, "a checkpoint rewrites no history");
        assert_eq!(short, FRAME_BYTES + 1 + 4 + 2 * 20);
        assert_eq!(checkpoint_bytes(40, 3).0, short + 20);
        let names = storage.list().unwrap();
        assert!(names.iter().all(|n| n.starts_with("seg-")), "{names:?}");
    }

    #[test]
    fn last_checkpoint_wins_not_the_sum() {
        let storage = Arc::new(MemStorage::new());
        let (mut controller, mut wal, _) = open(
            ControllerConfig::default(),
            Arc::<MemStorage>::clone(&storage) as Arc<dyn WalStorage>,
            WalConfig::default(),
        )
        .unwrap();
        let deliver_twice = |controller: &mut Controller, wal: &mut Wal, seq: u32| {
            let batch = imu_batch(0, seq, &[seq as f64]);
            for _ in 0..2 {
                controller
                    .offer_at(seq as f64, &batch, Some(&mut *wal))
                    .unwrap();
            }
        };
        deliver_twice(&mut controller, &mut wal, 0);
        wal.snapshot(&controller).unwrap();
        deliver_twice(&mut controller, &mut wal, 1);
        deliver_twice(&mut controller, &mut wal, 2);
        wal.snapshot(&controller).unwrap();
        assert_eq!(controller.stream_meta(), vec![(0, 3, 0)]);
        let (recovered, _, report) = open(
            ControllerConfig::default(),
            storage as Arc<dyn WalStorage>,
            WalConfig::default(),
        )
        .unwrap();
        assert!(report.snapshot_used);
        assert_eq!(recovered.stream_meta(), controller.stream_meta());
    }

    #[test]
    fn snap_object_from_an_earlier_build_is_refused() {
        let (controller, _, storage) = durable_workload(WalConfig::default());
        // Names the log does not own are none of its business...
        storage.append("lost+found", &[0xFF; 9]).unwrap();
        let reopen = || {
            open(
                ControllerConfig::default(),
                Arc::<MemStorage>::clone(&storage) as Arc<dyn WalStorage>,
                WalConfig::default(),
            )
        };
        let (recovered, _, _) = reopen().unwrap();
        assert_eq!(recovered.state_digest(), controller.state_digest());
        // ...but an old compacted snapshot is the only copy of the records
        // it covers: opening an emptier controller would be silent loss.
        storage.append("snap-00000003", &[]).unwrap();
        let err = reopen().unwrap_err();
        assert!(
            matches!(&err, CollectError::Recovery { object, .. } if object == "snap-00000003"),
            "got {err:?}"
        );
    }

    /// Offers `range` one record at a time through the door policy and
    /// returns, per record, `(segment index after it, checkpoints so far)`.
    fn positions(
        controller: &mut Controller,
        wal: &mut Wal,
        range: std::ops::Range<u32>,
    ) -> Vec<(u64, u64)> {
        range
            .map(|seq| {
                let t = seq as f64;
                controller
                    .offer_at(t, &imu_batch(0, seq, &[t]), Some(&mut *wal))
                    .unwrap();
                if wal.needs_snapshot() {
                    wal.snapshot(controller).unwrap();
                }
                (wal.segment_index(), wal.stats().snapshots_taken)
            })
            .collect()
    }

    #[test]
    fn reopening_mid_segment_keeps_roll_and_checkpoint_cadence() {
        let config = WalConfig {
            segment_max_records: 7,
            snapshot_every: 10,
        };
        let open_on = |storage: &Arc<MemStorage>| {
            open(
                ControllerConfig::default(),
                Arc::<MemStorage>::clone(storage) as Arc<dyn WalStorage>,
                config,
            )
            .unwrap()
        };
        let (mut controller, mut wal, _) = open_on(&Arc::new(MemStorage::new()));
        let uninterrupted = positions(&mut controller, &mut wal, 0..40);

        // Close and reopen after every prefix length: mid-segment, right
        // after a roll, right after a checkpoint.
        for stop in 0..40u32 {
            let storage = Arc::new(MemStorage::new());
            let (mut controller, mut wal, _) = open_on(&storage);
            positions(&mut controller, &mut wal, 0..stop);
            let taken = wal.stats().snapshots_taken;
            drop((controller, wal));
            let (mut controller, mut wal, _) = open_on(&storage);
            let resumed: Vec<_> = positions(&mut controller, &mut wal, stop..40)
                .into_iter()
                .map(|(seg, checkpoints)| (seg, checkpoints + taken))
                .collect();
            assert_eq!(resumed, uninterrupted[stop as usize..], "stop {stop}");
        }
    }

    #[test]
    fn storage_errors_are_typed() {
        let storage = MemStorage::new();
        let err = storage.read("seg-00000000").unwrap_err();
        assert!(matches!(
            err,
            CollectError::Wal {
                op: "read",
                kind: std::io::ErrorKind::NotFound,
                ..
            }
        ));
        assert!(storage.truncate("nope", 0).is_err());
    }
}
