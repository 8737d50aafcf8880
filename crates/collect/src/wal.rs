//! Segment-based write-ahead log + snapshot for the controller's durable
//! ingest state (DESIGN.md §13).
//!
//! Every accepted batch is appended — *before* it is acked — as one
//! CRC-framed record to the current segment object; segments roll at a
//! configured record count, and a periodic **snapshot** compacts all
//! records so far (deduplicated by `(agent, seq)`, preserving acceptance
//! order byte-for-byte) plus the per-stream counters that replay cannot
//! rederive (duplicates, shed). Replay-on-open re-ingests the newest
//! valid snapshot followed by the surviving segments through the
//! controller's normal dedup path, which makes recovery **idempotent**
//! (a record applied twice is a duplicate, not a double-insert) and
//! **bitwise-deterministic** (records replay in acceptance order with the
//! exact bytes that were acked — see [`Controller::state_digest`]).
//!
//! A crash can tear the tail of the newest segment: an incomplete or
//! corrupt record *at the tail* is truncated away (it was never acked —
//! the append happens before the ack). The same corruption anywhere else
//! is real damage and surfaces as [`CollectError::Recovery`].
//!
//! Storage is abstracted behind [`WalStorage`]: [`MemStorage`] backs the
//! deterministic simulation and chaos harness, [`DirStorage`] puts
//! segments in a real directory for live mode. This module is the only
//! place in the hot-path crates allowed to touch `std::fs` (darlint's
//! `durable-io` rule).

use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

use bytes::{BufMut, Bytes, BytesMut};
use parking_lot::Mutex;

use crate::controller::{Controller, ControllerConfig};
use crate::error::CollectError;
use crate::wire::{decode_batch, encode_batch_into, Batch};
use crate::Result;

/// Record tag: one accepted batch (`[tag][arrival f64][batch wire bytes]`).
const REC_BATCH: u8 = 1;
/// Record tag: snapshot stream-counter metadata
/// (`[tag][u32 n]{[u32 agent][u64 duplicates][u64 shed]}*n`).
const REC_META: u8 = 2;
/// Bytes of record framing: `[u32 payload_len][u32 crc32(payload)]`.
const FRAME_BYTES: usize = 8;
/// Sanity bound on a single record payload (a 48×48 frame batch is ~2.4
/// KiB per frame; a full flush is far below this). Oversized lengths are
/// treated as corruption, keeping torn-tail garbage from provoking huge
/// speculative reads.
const MAX_PAYLOAD: u32 = 64 << 20;

/// CRC-32 (IEEE, reflected) lookup table, built at compile time so the
/// framing needs no external dependency.
const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
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
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of `data`.
fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Storage backend for WAL objects (segments and snapshots). Objects are
/// flat named byte blobs supporting append, truncate-to-length, and
/// delete — the minimal contract both an in-memory store and a directory
/// of files satisfy.
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

    /// Deletes `object`; deleting a missing object is not an error.
    ///
    /// # Errors
    ///
    /// Returns [`CollectError::Wal`] when an existing object cannot be
    /// removed.
    fn delete(&self, object: &str) -> Result<()>;
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
        self.objects.lock().values().map(Vec::len).sum()
    }
}

impl WalStorage for MemStorage {
    fn list(&self) -> Result<Vec<String>> {
        Ok(self.objects.lock().keys().cloned().collect())
    }

    fn read(&self, object: &str) -> Result<Vec<u8>> {
        self.objects
            .lock()
            .get(object)
            .cloned()
            .ok_or_else(|| CollectError::Wal {
                object: object.to_string(),
                op: "read",
                kind: std::io::ErrorKind::NotFound,
            })
    }

    fn append(&self, object: &str, data: &[u8]) -> Result<()> {
        self.objects
            .lock()
            .entry(object.to_string())
            .or_default()
            .extend_from_slice(data);
        Ok(())
    }

    fn truncate(&self, object: &str, len: u64) -> Result<()> {
        match self.objects.lock().get_mut(object) {
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

    fn delete(&self, object: &str) -> Result<()> {
        self.objects.lock().remove(object);
        Ok(())
    }
}

/// Directory-backed [`WalStorage`] for live mode: each object is one file
/// under the root directory.
#[derive(Debug)]
pub struct DirStorage {
    dir: PathBuf,
}

/// Maps one I/O failure into the typed [`CollectError::Wal`] variant.
fn wal_io(object: &str, op: &'static str, e: &std::io::Error) -> CollectError {
    CollectError::Wal {
        object: object.to_string(),
        op,
        kind: e.kind(),
    }
}

impl DirStorage {
    /// Opens (creating if needed) a directory-backed store.
    ///
    /// # Errors
    ///
    /// Returns [`CollectError::Wal`] when the directory cannot be
    /// created.
    pub fn create(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| wal_io(&dir.to_string_lossy(), "create", &e))?;
        Ok(DirStorage { dir })
    }
}

impl WalStorage for DirStorage {
    fn list(&self) -> Result<Vec<String>> {
        let entries = std::fs::read_dir(&self.dir)
            .map_err(|e| wal_io(&self.dir.to_string_lossy(), "list", &e))?;
        let mut names = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| wal_io(&self.dir.to_string_lossy(), "list", &e))?;
            if entry.path().is_file() {
                names.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        Ok(names)
    }

    fn read(&self, object: &str) -> Result<Vec<u8>> {
        std::fs::read(self.dir.join(object)).map_err(|e| wal_io(object, "read", &e))
    }

    fn append(&self, object: &str, data: &[u8]) -> Result<()> {
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.dir.join(object))
            .map_err(|e| wal_io(object, "append", &e))?;
        file.write_all(data)
            .map_err(|e| wal_io(object, "append", &e))
    }

    fn truncate(&self, object: &str, len: u64) -> Result<()> {
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(self.dir.join(object))
            .map_err(|e| wal_io(object, "truncate", &e))?;
        file.set_len(len)
            .map_err(|e| wal_io(object, "truncate", &e))
    }

    fn delete(&self, object: &str) -> Result<()> {
        match std::fs::remove_file(self.dir.join(object)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(wal_io(object, "delete", &e)),
        }
    }
}

/// WAL tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalConfig {
    /// Records per segment before rolling to a new segment object.
    pub segment_max_records: u64,
    /// Records appended since the last snapshot before
    /// [`Wal::needs_snapshot`] turns true; `0` disables snapshotting.
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
    /// Segment rolls.
    pub segments_rolled: u64,
    /// Snapshots taken.
    pub snapshots_taken: u64,
}

impl WalStats {
    /// Folds another log's counters into this one: a session sums its
    /// controller incarnations, a sharded controller its shards.
    pub(crate) fn absorb(&mut self, other: &WalStats) {
        self.appends += other.appends;
        self.bytes_appended += other.bytes_appended;
        self.segments_rolled += other.segments_rolled;
        self.snapshots_taken += other.snapshots_taken;
    }
}

/// What replay-on-open found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Whether a snapshot seeded the replay.
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
    /// per-shard replays (`snapshot_used` is true if any shard used one).
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

fn snap_name(index: u64) -> String {
    format!("snap-{index:08}")
}

/// Parses `seg-N`/`snap-N` object names; `(is_snapshot, index)`.
fn parse_object(name: &str) -> Option<(bool, u64)> {
    if let Some(idx) = name.strip_prefix("seg-") {
        return idx.parse().ok().map(|i| (false, i));
    }
    if let Some(idx) = name.strip_prefix("snap-") {
        return idx.parse().ok().map(|i| (true, i));
    }
    None
}

/// One parsed WAL record.
enum Record {
    /// `(arrival, batch)` — an accepted batch to re-ingest.
    Batch(f64, Batch),
    /// Snapshot stream counters: `(agent, duplicates, shed)`.
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
/// records, the byte length of the valid prefix, and — when the object
/// ends in an incomplete or corrupt record — a description of the tear.
fn parse_records(data: &[u8]) -> (Vec<Record>, u64, Option<TornTail>) {
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
                offset as u64,
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
                offset as u64,
                Some(torn(format!("implausible payload length {len}"))),
            );
        }
        let len = len as usize;
        if rest.len() < FRAME_BYTES + len {
            return (
                records,
                offset as u64,
                Some(torn(format!(
                    "truncated payload ({} of {len} bytes)",
                    rest.len() - FRAME_BYTES
                ))),
            );
        }
        let payload = &rest[FRAME_BYTES..FRAME_BYTES + len];
        if crc32(payload) != crc {
            return (records, offset as u64, Some(torn("crc mismatch".into())));
        }
        match parse_payload(payload) {
            Ok(record) => records.push(record),
            Err(reason) => return (records, offset as u64, Some(torn(reason))),
        }
        offset += FRAME_BYTES + len;
    }
    (records, offset as u64, None)
}

/// Parses one CRC-validated record payload.
fn parse_payload(payload: &[u8]) -> std::result::Result<Record, String> {
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
            let batch = decode_batch(Bytes::copy_from_slice(&body[8..]))
                .map_err(|e| format!("batch decode: {e}"))?;
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
            Ok(Record::Meta(meta))
        }
        other => Err(format!("unknown record tag {other}")),
    }
}

/// Frames `payload` (length + CRC) onto the tail of `buf`.
fn frame_into(buf: &mut BytesMut, payload: &[u8]) {
    buf.put_u32(payload.len() as u32);
    buf.put_u32(crc32(payload));
    buf.put_slice(payload);
}

/// The write side of the log: appends CRC-framed batch records to the
/// current segment, rolls segments, and takes compacting snapshots.
/// Obtain one positioned at the log's tail via [`open`].
#[derive(Debug)]
pub struct Wal {
    storage: Arc<dyn WalStorage>,
    config: WalConfig,
    /// Index of the segment currently being appended to.
    seg_index: u64,
    /// Records already in the current segment.
    seg_records: u64,
    /// Batch records appended since the last snapshot.
    since_snapshot: u64,
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
        self.seg_index
    }

    /// Appends one accepted batch (arriving at `arrival`) as a durable
    /// record. Call *before* acking — the ack promise is exactly "this
    /// record is in the log".
    ///
    /// # Errors
    ///
    /// Returns [`CollectError::Wal`] when the storage append fails; the
    /// caller must then neither ingest nor ack the batch.
    // darlint: hot
    pub fn append(&mut self, arrival: f64, batch: &Batch) -> Result<()> {
        if self.seg_records >= self.config.segment_max_records {
            self.seg_index += 1;
            self.seg_records = 0;
            self.stats.segments_rolled += 1;
        }
        self.scratch.clear();
        // Payload: tag + arrival + wire-encoded batch. Reserve the frame
        // header, fill the payload, then back-patch length and CRC.
        self.scratch.put_u32(0);
        self.scratch.put_u32(0);
        self.scratch.put_u8(REC_BATCH);
        self.scratch.put_f64(arrival);
        encode_batch_into(&mut self.scratch, batch);
        let payload_len = (self.scratch.len() - FRAME_BYTES) as u32;
        let crc = crc32(&self.scratch[FRAME_BYTES..]);
        self.scratch[0..4].copy_from_slice(&payload_len.to_be_bytes());
        self.scratch[4..8].copy_from_slice(&crc.to_be_bytes());
        let name = seg_name(self.seg_index);
        self.storage.append(&name, &self.scratch)?;
        self.seg_records += 1;
        self.since_snapshot += 1;
        self.stats.appends += 1;
        self.stats.bytes_appended += self.scratch.len() as u64;
        Ok(())
    }

    /// Whether enough records have accumulated since the last snapshot
    /// that the caller should take one.
    pub fn needs_snapshot(&self) -> bool {
        self.config.snapshot_every > 0 && self.since_snapshot >= self.config.snapshot_every
    }

    /// Takes a compacting snapshot: rolls to a fresh segment, writes a
    /// `snap-<n>` object covering every segment `< n` — the live
    /// controller's stream counters first, then all logged batch records
    /// deduplicated by `(agent, seq)` with their payload bytes preserved
    /// verbatim — and deletes the segments and snapshots it supersedes.
    /// Crash-safe at every step: until the old objects are deleted, the
    /// newest *valid* snapshot plus surviving segments always reproduce
    /// the same state.
    ///
    /// # Errors
    ///
    /// Returns [`CollectError::Wal`] on storage failures and
    /// [`CollectError::Recovery`] if a non-tail record in a covered
    /// segment is corrupt.
    pub fn snapshot(&mut self, controller: &Controller) -> Result<()> {
        let cover = self.seg_index + 1;
        let (snapshots, segments) = existing_objects(self.storage.as_ref())?;

        // Meta record: counters replay cannot rederive.
        let meta = controller.stream_meta();
        let mut payload = BytesMut::new();
        payload.put_u8(REC_META);
        payload.put_u32(meta.len() as u32);
        for (agent, duplicates, shed) in &meta {
            payload.put_u32(*agent);
            payload.put_u64(*duplicates);
            payload.put_u64(*shed);
        }
        let mut out = BytesMut::new();
        frame_into(&mut out, &payload);

        // Compact: newest valid snapshot first, then covered segments in
        // order, keeping the first occurrence of each (agent, seq) with
        // its original record bytes.
        let mut seen: BTreeMap<(u32, u32), ()> = BTreeMap::new();
        let mut sources: Vec<String> = Vec::new();
        if let Some(&snap) = snapshots.iter().rev().find(|&&s| s <= self.seg_index) {
            sources.push(snap_name(snap));
        }
        sources.extend(
            segments
                .iter()
                .filter(|&&s| s < cover)
                .map(|&s| seg_name(s)),
        );
        for source in &sources {
            let data = self.storage.read(source)?;
            let (records, valid_len, torn) = parse_records(&data);
            if let Some(t) = torn {
                // Tears are only forgivable at the tail of the newest
                // segment; during compaction every covered object must be
                // whole — except a final segment whose tear was not yet
                // repaired, which recovery would also truncate.
                let is_final_segment = Some(source) == sources.last();
                if !is_final_segment {
                    return Err(CollectError::Recovery {
                        object: source.clone(),
                        offset: t.offset,
                        reason: t.reason,
                    });
                }
                self.storage.truncate(source, valid_len)?;
            }
            for record in records {
                if let Record::Batch(arrival, batch) = record {
                    if seen.insert((batch.agent_id, batch.seq), ()).is_none() {
                        // Re-frame the canonical record bytes. Re-encoding
                        // is bitwise-stable (u8 frame quantization is
                        // idempotent), so recovered replay stays exact.
                        let mut p = BytesMut::new();
                        p.put_u8(REC_BATCH);
                        p.put_f64(arrival);
                        encode_batch_into(&mut p, &batch);
                        frame_into(&mut out, &p);
                    }
                }
            }
        }

        let name = snap_name(cover);
        // A torn snapshot with this name can exist if an earlier snapshot
        // attempt crashed mid-write; start it over.
        self.storage.delete(&name)?;
        self.storage.append(&name, &out)?;
        // Only after the snapshot is fully written: retire what it covers.
        for &s in segments.iter().filter(|&&s| s < cover) {
            self.storage.delete(&seg_name(s))?;
        }
        for &s in snapshots.iter().filter(|&&s| s < cover) {
            self.storage.delete(&snap_name(s))?;
        }
        self.seg_index = cover;
        self.seg_records = 0;
        self.since_snapshot = 0;
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
        self.storage.append(&seg_name(self.seg_index), garbage)
    }
}

/// Sorted `(snapshot_indices, segment_indices)` present in storage.
fn existing_objects(storage: &dyn WalStorage) -> Result<(Vec<u64>, Vec<u64>)> {
    let mut snapshots = Vec::new();
    let mut segments = Vec::new();
    for name in storage.list()? {
        match parse_object(&name) {
            Some((true, i)) => snapshots.push(i),
            Some((false, i)) => segments.push(i),
            None => {}
        }
    }
    snapshots.sort_unstable();
    segments.sort_unstable();
    Ok((snapshots, segments))
}

/// Replays the log into an existing controller: newest *valid* snapshot
/// first (a torn snapshot — crash during compaction — falls back to its
/// predecessor), then every segment at or above the snapshot's cover
/// index, in order. Torn tails on the newest segment are truncated; any
/// other corruption is a [`CollectError::Recovery`]. Replaying twice is
/// idempotent: the controller's `(agent, seq)` dedup skips records it
/// already holds.
///
/// # Errors
///
/// Returns [`CollectError::Wal`] on storage failures and
/// [`CollectError::Recovery`] on non-tail corruption.
// darlint: pure-root
pub fn replay_into(
    controller: &mut Controller,
    storage: &dyn WalStorage,
) -> Result<RecoveryReport> {
    let (snapshots, segments) = existing_objects(storage)?;
    let mut report = RecoveryReport::default();

    // Choose the newest snapshot that parses end-to-end.
    let mut base = 0u64;
    let mut snap_records = None;
    for &snap in snapshots.iter().rev() {
        let data = storage.read(&snap_name(snap))?;
        let (records, _, torn) = parse_records(&data);
        if torn.is_none() {
            base = snap;
            snap_records = Some(records);
            break;
        }
        // Torn snapshot: the compaction crashed before deleting what it
        // covered, so the predecessor snapshot + segments are intact.
    }

    let mut apply = |records: Vec<Record>, report: &mut RecoveryReport| -> Result<()> {
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
                }
                Record::Meta(meta) => {
                    for (agent, duplicates, shed) in meta {
                        controller.restore_stream_meta(agent, duplicates, shed);
                    }
                }
            }
        }
        Ok(())
    };

    if let Some(records) = snap_records {
        report.snapshot_used = true;
        apply(records, &mut report)?;
    }

    let live: Vec<u64> = segments.into_iter().filter(|&s| s >= base).collect();
    let last = live.last().copied();
    for &seg in &live {
        let name = seg_name(seg);
        let data = storage.read(&name)?;
        let (records, valid_len, torn) = parse_records(&data);
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
            report.torn_tail_bytes += data.len() as u64 - valid_len;
            storage.truncate(&name, valid_len)?;
        }
        report.segments_scanned += 1;
        apply(records, &mut report)?;
    }
    Ok(report)
}

/// Opens the log: builds a fresh [`Controller`] with `config`, replays
/// storage into it, and returns the controller, a [`Wal`] positioned at
/// the log's tail, and the replay report. An empty store yields an empty
/// controller — this is also how a brand-new durable session starts.
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
    let report = replay_into(&mut controller, storage.as_ref())?;
    let (snapshots, segments) = existing_objects(storage.as_ref())?;
    let snap_base = snapshots.last().copied().unwrap_or(0);
    let seg_index = segments.last().copied().unwrap_or(snap_base).max(snap_base);
    let seg_records = if segments.last() == Some(&seg_index) {
        let data = storage.read(&seg_name(seg_index))?;
        let (records, _, _) = parse_records(&data);
        records.len() as u64
    } else {
        0
    };
    // Snapshot cadence resumes from the live (uncovered) segments only:
    // records already compacted into the snapshot don't count against the
    // next snapshot.
    let mut segment_records = 0u64;
    for &seg in segments.iter().filter(|&&s| s >= snap_base) {
        let data = storage.read(&seg_name(seg))?;
        segment_records += parse_records(&data).0.len() as u64;
    }
    Ok((
        controller,
        Wal {
            storage,
            config: wal_config,
            seg_index,
            seg_records,
            since_snapshot: segment_records,
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
    use darnet_sim::{Frame, ImuSample};

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
        let (mut controller, mut wal, _) = open(
            ControllerConfig::default(),
            Arc::<MemStorage>::clone(&storage) as Arc<dyn WalStorage>,
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
        (controller, wal, storage)
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
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
    fn segments_roll_and_snapshots_compact() {
        let (controller, wal, storage) = durable_workload(WalConfig {
            segment_max_records: 8,
            snapshot_every: 20,
        });
        assert!(wal.stats().segments_rolled > 0);
        assert!(wal.stats().snapshots_taken > 0);
        let (snapshots, segments) = existing_objects(storage.as_ref()).unwrap();
        assert_eq!(snapshots.len(), 1, "old snapshots are retired");
        assert!(
            segments.iter().all(|&s| s >= snapshots[0]),
            "covered segments are retired: {segments:?} vs snap {snapshots:?}"
        );
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
        let (_, segments) = existing_objects(storage.as_ref()).unwrap();
        let name = seg_name(segments[0]);
        let mut data = storage.read(&name).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0xFF;
        storage.delete(&name).unwrap();
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
    fn torn_snapshot_falls_back_to_predecessor_state() {
        let (controller, wal, storage) = durable_workload(WalConfig {
            segment_max_records: 8,
            snapshot_every: 20,
        });
        drop(wal);
        // Corrupt the (only) snapshot's tail: recovery must still rebuild
        // identical state? No — the covered segments were deleted after
        // the snapshot committed. A torn snapshot only happens when the
        // compaction crashed BEFORE deletion. Model that: tear a snapshot
        // while its sources still exist.
        let storage2 = Arc::new(MemStorage::new());
        let (mut c2, mut w2, _) = open(
            ControllerConfig::default(),
            Arc::<MemStorage>::clone(&storage2) as Arc<dyn WalStorage>,
            WalConfig::default(),
        )
        .unwrap();
        for seq in 0..10u32 {
            let t = seq as f64;
            c2.offer_at(t, &imu_batch(0, seq, &[t]), Some(&mut w2))
                .unwrap();
        }
        let digest = c2.state_digest();
        // A half-written snapshot that crashed before retiring segments.
        storage2
            .append(&snap_name(w2.segment_index() + 1), &[0x01, 0x02, 0x03])
            .unwrap();
        let (recovered, _, report) = open(
            ControllerConfig::default(),
            storage2 as Arc<dyn WalStorage>,
            WalConfig::default(),
        )
        .unwrap();
        assert!(!report.snapshot_used);
        assert_eq!(recovered.state_digest(), digest);
        // And the original workload's state still digests stable.
        let (r0, _, _) = open(
            ControllerConfig::default(),
            storage as Arc<dyn WalStorage>,
            WalConfig::default(),
        )
        .unwrap();
        assert_eq!(r0.state_digest(), controller.state_digest());
    }

    #[test]
    fn dir_storage_roundtrips_and_repairs() {
        let dir = std::env::temp_dir().join(format!("darnet-wal-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let storage = Arc::new(DirStorage::create(&dir).unwrap());
            let (mut controller, mut wal, _) = open(
                ControllerConfig::default(),
                Arc::<DirStorage>::clone(&storage) as Arc<dyn WalStorage>,
                WalConfig::default(),
            )
            .unwrap();
            for seq in 0..5u32 {
                let t = seq as f64;
                controller
                    .offer_at(t, &imu_batch(0, seq, &[t]), Some(&mut wal))
                    .unwrap();
            }
            wal.simulate_torn_tail(&[0xFF; 3]).unwrap();
        }
        // "Restart the process": reopen from the directory alone.
        let storage = Arc::new(DirStorage::create(&dir).unwrap());
        let (recovered, _, report) = open(
            ControllerConfig::default(),
            storage as Arc<dyn WalStorage>,
            WalConfig::default(),
        )
        .unwrap();
        assert_eq!(report.records_replayed, 5);
        assert_eq!(report.torn_tail_bytes, 3);
        assert_eq!(recovered.ingest_stats().0, 5);
        let _ = std::fs::remove_dir_all(&dir);
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
        assert!(storage.delete("nope").is_ok());
    }
}
