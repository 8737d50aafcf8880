//! A small in-memory time-series store, in the spirit of the statsd-style
//! database the paper's controller writes aligned tuples into (§4.1).

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::error::CollectError;
use crate::Result;

/// Summary statistics for one series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesStats {
    /// Number of points.
    pub count: usize,
    /// Mean value.
    pub mean: f32,
    /// Minimum value.
    pub min: f32,
    /// Maximum value.
    pub max: f32,
    /// Earliest timestamp.
    pub first_t: f64,
    /// Latest timestamp.
    pub last_t: f64,
}

/// One series: timestamps — ascending by `total_cmp`, ties in insertion
/// order — and row-major values, `width` to a row (a scalar series is the
/// width-1 case).
#[derive(Debug, Default)]
pub(crate) struct Series {
    width: usize,
    t: Vec<f64>,
    values: Vec<f32>,
    /// Lowest slot written since `TsDb::read_rows` last looked (0 before
    /// it ever did) — every row below it is as that read saw it.
    dirty: usize,
}

impl Series {
    fn of_width(width: usize) -> Self {
        Series {
            width,
            ..Series::default()
        }
    }

    /// Values to a row.
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// The row timestamps.
    pub(crate) fn stamps(&self) -> &[f64] {
        &self.t
    }

    /// Row `k`: its timestamp and channel values.
    pub(crate) fn row(&self, k: usize) -> (f64, &[f32]) {
        (self.t[k], &self.values[k * self.width..][..self.width])
    }

    /// Stores one row after every row not later than it: an append for
    /// in-order arrival, a binary insertion otherwise.
    fn insert(&mut self, t: f64, row: &[f32]) {
        let not_later = |st: &f64| st.total_cmp(&t).is_le();
        if self.t.last().is_none_or(not_later) {
            self.dirty = self.dirty.min(self.t.len());
            self.t.push(t);
            self.values.extend_from_slice(row);
            return;
        }
        let slot = self.t.partition_point(not_later);
        self.dirty = self.dirty.min(slot);
        self.t.insert(slot, t);
        let at = slot * self.width;
        self.values.splice(at..at, row.iter().copied());
    }

    /// The points of column `k`, in stored order.
    fn column(&self, k: usize) -> impl Iterator<Item = (f64, f32)> + '_ {
        let values = self.values.iter().skip(k).step_by(self.width);
        self.t.iter().copied().zip(values.copied())
    }
}

/// `(m, k)` if `name` is what column `k` of a row series `m` answers to:
/// `m.k`, with `k` in plain decimal.
fn column_name(name: &str) -> Option<(&str, usize)> {
    let (owner, index) = name.rsplit_once('.')?;
    let plain =
        index.bytes().all(|b| b.is_ascii_digit()) && (index.len() == 1 || !index.starts_with('0'));
    Some((owner, index.parse().ok().filter(|_| plain)?))
}

#[derive(Debug, Default)]
struct Store {
    /// Every series made, each in the slot it was made in for good. A row
    /// series that splits leaves its slot empty and zero wide, so a slot
    /// kept from an earlier write (`KeptSeries`) still holds the row
    /// series it was found for iff it still has a row's width.
    slots: Vec<Series>,
    /// Scalar series by name. None is ever removed.
    scalars: BTreeMap<String, usize>,
    /// Row series by name: vector samples, one row each. Column `k` of
    /// series `m` answers to the name `m.k`, and no scalar series has such
    /// a name: the insert that would make one splits the row series first.
    rows: BTreeMap<String, usize>,
}

impl Store {
    fn series(&self) -> impl Iterator<Item = &Series> {
        // A split row series' slot is empty: it adds no point and no byte.
        self.slots.iter()
    }

    /// The series and column `name` addresses.
    fn column(&self, name: &str) -> Option<(&Series, usize)> {
        if let Some(&slot) = self.scalars.get(name) {
            return Some((&self.slots[slot], 0));
        }
        let (owner, k) = column_name(name)?;
        let rows = &self.slots[*self.rows.get(owner)?];
        (k < rows.width).then_some((rows, k))
    }

    /// Every column as `(name, series, column)`, sorted by name — the one
    /// order fingerprints and listings walk (`clippy.toml` bans the hash
    /// maps whose order would vary from run to run).
    fn columns(&self) -> Vec<(String, &Series, usize)> {
        let scalars = self
            .scalars
            .iter()
            .map(|(name, &slot)| (name.clone(), &self.slots[slot], 0));
        let rows = self.rows.iter().flat_map(|(name, &slot)| {
            let s = &self.slots[slot];
            (0..s.width).map(move |k| (format!("{name}.{k}"), s, k))
        });
        let mut out: Vec<_> = scalars.chain(rows).collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// A new series in a slot of its own.
    fn make(&mut self, width: usize) -> usize {
        self.slots.push(Series::of_width(width));
        self.slots.len() - 1
    }

    /// Turns the row series `metric` back into one scalar series per
    /// column, each with the points and order it had, and empties its slot.
    fn split(&mut self, metric: &str) {
        let Some(slot) = self.rows.remove(metric) else {
            return;
        };
        let rows = std::mem::take(&mut self.slots[slot]);
        for k in 0..rows.width {
            let column = self.make(1);
            self.slots[column].t = rows.t.clone();
            self.slots[column].values = rows.column(k).map(|(_, v)| v).collect();
            self.scalars.insert(format!("{metric}.{k}"), column);
        }
    }

    /// The slot of the scalar series `metric`, made if it does not exist.
    fn scalar(&mut self, metric: &str) -> usize {
        // Looked up by `&str`: the key is allocated once per series, not
        // once per point.
        if let Some(&slot) = self.scalars.get(metric) {
            return slot;
        }
        // A new scalar name that a row series' column answers to: from
        // here on the name means a series of its own, as do its siblings.
        if let Some((owner, k)) = column_name(metric) {
            let width = self.rows.get(owner).map_or(0, |&s| self.slots[s].width);
            if k < width {
                self.split(owner);
                return self.scalars[metric];
            }
        }
        let slot = self.make(1);
        self.scalars.insert(metric.to_string(), slot);
        slot
    }

    /// Whether a series already answers to one of the names
    /// `{metric}.0` … `{metric}.{width - 1}`, given `prefix` = `{metric}.`:
    /// what `column` says of any of them, in one probe. `column` finds
    /// such a name as a scalar of exactly that name, or as a column of the
    /// row series `metric` — which, never zero wide, then has column 0.
    /// Those scalars are the ones `column_name` reads as `(metric, k)`
    /// with `k < width`, and they sort together after `prefix`.
    fn taken(&self, prefix: &str, width: usize) -> bool {
        let metric = &prefix[..prefix.len() - 1];
        self.rows.contains_key(metric)
            || self
                .scalars
                .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
                .take_while(|(name, _)| name.starts_with(prefix))
                .filter_map(|(name, _)| column_name(name))
                .any(|(owner, k)| owner == metric && k < width)
    }

    /// Stores `points` in the scalar series `metric`, one after another,
    /// and returns its slot (`kept` if `Some`: a scalar series keeps its
    /// slot for good). The one scalar insert body.
    fn insert_points(
        &mut self,
        metric: &str,
        mut kept: Option<usize>,
        points: impl IntoIterator<Item = (f64, f32)>,
    ) -> Option<usize> {
        for (t, value) in points {
            let slot = match kept {
                Some(slot) => slot,
                None => *kept.insert(self.scalar(metric)),
            };
            self.slots[slot].insert(t, &[value]);
        }
        kept
    }

    /// Stores each of `rows` as [`TsDb::insert_vector`] does, one after
    /// another, and returns the slot of the row series `metric` names
    /// afterwards, if any. `kept` is where that series was found before:
    /// a row goes there while the slot has the row's width — and so still
    /// holds that series — and is looked up by name otherwise. The one
    /// row insert body.
    fn insert_rows<R: AsRef<[f32]>>(
        &mut self,
        metric: &str,
        mut kept: Option<usize>,
        rows: impl IntoIterator<Item = (f64, R)>,
    ) -> Option<usize> {
        for (t, values) in rows {
            let values = values.as_ref();
            if values.is_empty() {
                continue;
            }
            let fits = |slot: &usize| self.slots[*slot].width == values.len();
            let found = kept
                .filter(fits)
                .or_else(|| self.rows.get(metric).copied().filter(fits));
            if let Some(slot) = found {
                self.slots[slot].insert(t, values);
                kept = Some(slot);
                continue;
            }
            let mut key = format!("{metric}.");
            if !self.taken(&key, values.len()) {
                let slot = self.make(values.len());
                self.slots[slot].insert(t, values);
                // The probe's prefix, less its dot, is the new key.
                key.pop();
                self.rows.insert(key, slot);
                kept = Some(slot);
                continue;
            }
            // A channel name is taken, by a scalar series or by rows of
            // another width: each channel goes where a scalar of its name
            // does, and the rows, if any, are split by the first.
            for (k, &v) in values.iter().enumerate() {
                let name = format!("{metric}.{k}");
                self.insert_points(&name, None, [(t, v)]);
            }
            kept = None;
        }
        kept
    }
}

/// The two series one writer comes back to batch after batch — a row
/// series and a scalar series — named once, and the slots the store last
/// found them in, so that a later batch is written without building or
/// looking up either name. A slot is checked under the write guard (see
/// `Store::insert_rows`); one that no longer holds its series sends the
/// write back to the name.
#[derive(Debug)]
pub(crate) struct KeptSeries {
    rows: (String, Option<usize>),
    points: (String, Option<usize>),
}

impl KeptSeries {
    /// The row series `rows` and the scalar series `points`, not yet
    /// looked up. Their names must leave neither a column name of the
    /// other nor a row series whose column the other is: then neither
    /// series' write splits the other, and [`TsDb::insert_batch`] may
    /// write one before the other.
    pub(crate) fn new(rows: String, points: String) -> Self {
        KeptSeries {
            rows: (rows, None),
            points: (points, None),
        }
    }
}

/// A thread-safe, in-memory, multi-series time-series database.
///
/// Points are kept sorted by timestamp per series; insertion keeps order
/// (fast append for the common in-order case, binary insertion otherwise).
/// A vector sample ([`TsDb::insert_vector`]) is stored as one row of a row
/// series — one timestamp, its channels side by side — and every read
/// addresses a channel as the series `metric.<channel>`; nothing a read
/// returns tells the two layouts apart. Every traversal — fingerprints,
/// metric listings — walks those names in sorted order regardless of
/// insertion order (`clippy.toml` bans the hash maps whose order would
/// vary from run to run).
///
/// ```
/// use darnet_pure::TsDb;
///
/// let db = TsDb::new();
/// db.insert("imu.accel.x", 0.0, 1.0);
/// db.insert("imu.accel.x", 0.5, 2.0);
/// let pts = db.query_range("imu.accel.x", 0.0, 1.0)?;
/// assert_eq!(pts.len(), 2);
/// # Ok::<(), darnet_pure::CollectError>(())
/// ```
#[derive(Debug, Default)]
pub struct TsDb {
    store: RwLock<Store>,
}

impl TsDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        TsDb::default()
    }

    /// Shared access to the store. A poisoned lock is taken as it is: no
    /// code that holds a guard of this store panics, so it is never torn.
    fn read(&self) -> RwLockReadGuard<'_, Store> {
        self.store.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Exclusive access to the store; poison is taken as in [`TsDb::read`].
    fn write(&self) -> RwLockWriteGuard<'_, Store> {
        self.store.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Inserts a point into `metric`, creating the series if needed.
    pub fn insert(&self, metric: &str, t: f64, value: f32) {
        self.write().insert_points(metric, None, [(t, value)]);
    }

    /// Inserts a multi-channel sample, readable as the series `metric.0`,
    /// `metric.1`, ... — under one guard, as one row. The first sample
    /// fixes the row width; a sample of another width, or a scalar
    /// inserted under one of the channel names, turns the rows back into
    /// one scalar series per channel, which is what they read as anyway.
    /// The one-row case of the body a controller's batch goes through.
    pub fn insert_vector(&self, metric: &str, t: f64, values: &[f32]) {
        self.write().insert_rows(metric, None, [(t, values)]);
    }

    /// Writes one batch under one guard, finding each series once:
    /// `rows` into `series`' row series as [`TsDb::insert_vector`] one
    /// row after another would — a row of another width still splits the
    /// rows where it comes — and `points` into its scalar series as
    /// [`TsDb::insert`] would, each through the slot kept from the
    /// previous batch while it holds its series.
    pub(crate) fn insert_batch<R: AsRef<[f32]>>(
        &self,
        series: &mut KeptSeries,
        rows: impl IntoIterator<Item = (f64, R)>,
        points: impl IntoIterator<Item = (f64, f32)>,
    ) {
        let store = &mut *self.write();
        let (name, slot) = &mut series.rows;
        *slot = store.insert_rows(name, *slot, rows);
        let (name, slot) = &mut series.points;
        *slot = store.insert_points(name, *slot, points);
    }

    /// Runs `read` over the row series `metric` and the lowest row slot
    /// written since the previous `read_rows` of it (`usize::MAX` if
    /// none): what the one reader that keeps state derived from the rows
    /// has to redo. `None` if no such row series exists.
    pub(crate) fn read_rows<R>(
        &self,
        metric: &str,
        read: impl FnOnce(&Series, usize) -> R,
    ) -> Option<R> {
        let store = &mut *self.write();
        let series = &mut store.slots[*store.rows.get(metric)?];
        let dirty = std::mem::replace(&mut series.dirty, usize::MAX);
        Some(read(series, dirty))
    }

    /// Number of vector samples held as rows.
    pub(crate) fn row_count(&self) -> usize {
        let store = self.read();
        store.rows.values().map(|&s| store.slots[s].t.len()).sum()
    }

    /// Names of all series, sorted.
    pub fn metrics(&self) -> Vec<String> {
        let store = self.read();
        store.columns().into_iter().map(|(name, ..)| name).collect()
    }

    /// Number of points in `metric` (0 if absent).
    pub fn len(&self, metric: &str) -> usize {
        let store = self.read();
        store.column(metric).map_or(0, |(s, _)| s.t.len())
    }

    /// Whether `metric` exists and has points.
    pub fn is_empty(&self, metric: &str) -> bool {
        self.len(metric) == 0
    }

    /// Points of `metric` with `t0 <= t <= t1`, in timestamp order.
    ///
    /// # Errors
    ///
    /// Returns [`CollectError::NoData`] if the series does not exist.
    pub fn query_range(&self, metric: &str, t0: f64, t1: f64) -> Result<Vec<(f64, f32)>> {
        let store = self.read();
        let (series, k) = store
            .column(metric)
            .ok_or_else(|| CollectError::NoData(format!("unknown series {metric}")))?;
        let lo = series.t.partition_point(|&t| t < t0);
        let hi = series.t.partition_point(|&t| t <= t1);
        Ok((lo..hi)
            .map(|i| (series.t[i], series.values[i * series.width + k]))
            .collect())
    }

    /// Summary statistics for `metric`.
    ///
    /// # Errors
    ///
    /// Returns [`CollectError::NoData`] if the series is missing or empty.
    pub fn stats(&self, metric: &str) -> Result<SeriesStats> {
        let store = self.read();
        let (series, k) = store
            .column(metric)
            .filter(|(s, _)| !s.t.is_empty())
            .ok_or_else(|| CollectError::NoData(format!("empty series {metric}")))?;
        let count = series.t.len();
        let mut sum = 0.0f64;
        let mut min = f32::INFINITY;
        let mut max = f32::NEG_INFINITY;
        for (_, v) in series.column(k) {
            sum += v as f64;
            min = min.min(v);
            max = max.max(v);
        }
        Ok(SeriesStats {
            count,
            mean: (sum / count as f64) as f32,
            min,
            max,
            first_t: series.t[0],
            last_t: series.t[count - 1],
        })
    }

    /// An order-independent-across-series, bitwise-exact fingerprint of
    /// the whole store: series are folded in sorted-name order, points in
    /// their stored (timestamp) order, hashing the exact f64/f32 bit
    /// patterns. Two stores fingerprint equal iff they hold identical
    /// data — the equality check behind the WAL recovery invariant
    /// (replay must rebuild the TSDB *bitwise*, DESIGN.md §13).
    pub fn fingerprint(&self) -> u64 {
        let store = self.read();
        let mut h = fnv1a_init();
        for (name, series, k) in store.columns() {
            fnv1a(&mut h, name.as_bytes());
            fnv1a(&mut h, &(series.t.len() as u64).to_le_bytes());
            for (t, v) in series.column(k) {
                fnv1a(&mut h, &t.to_bits().to_le_bytes());
                fnv1a(&mut h, &v.to_bits().to_le_bytes());
            }
        }
        h
    }

    /// Canonical fingerprint: like [`TsDb::fingerprint`], but points
    /// within each series are first sorted by (timestamp bits, value
    /// bits), making the digest independent of insertion order among
    /// equal-timestamp points. Shards ingest each agent's stream
    /// independently, so equal-timestamp points from different agents can
    /// land in a different relative order than a single controller would
    /// produce; the canonical form is what sharded and unsharded stores
    /// are compared under (DESIGN.md §14).
    pub fn canonical_fingerprint(&self) -> u64 {
        canonical_fingerprint_merged(&[self])
    }

    /// Total number of points across every series.
    pub fn point_count(&self) -> usize {
        self.read().series().map(|s| s.values.len()).sum()
    }

    /// Approximate resident bytes of the stored samples (an `f64`
    /// timestamp and an `f32` per channel: 12 bytes for a scalar point,
    /// `8 + 4·width` for a row), ignoring container overhead.
    /// Deterministic, so it can participate in gated memory-per-agent
    /// accounting.
    pub fn approx_bytes(&self) -> u64 {
        let bytes = |s: &Series| (s.t.len() * 8 + s.values.len() * 4) as u64;
        self.read().series().map(bytes).sum()
    }

    /// Rolls `metric` up into fixed-width buckets over `[t0, t1)` with the
    /// given aggregation — the statsd-style query a dashboard over the
    /// controller's store would issue. Bucket `k` starts at
    /// `t0 + k·bucket` and holds the points whose `(t − t0) / bucket`
    /// floors to `k`; buckets with no points are omitted, and never
    /// visited.
    ///
    /// # Errors
    ///
    /// Returns [`CollectError::NoData`] if the series does not exist, or
    /// an invalid-config error for a bucket width that is not positive
    /// or a `bucket`, `t0` or `t1` that is not finite.
    pub fn rollup(
        &self,
        metric: &str,
        t0: f64,
        t1: f64,
        bucket: f64,
        agg: Aggregation,
    ) -> Result<Vec<(f64, f32)>> {
        if !(bucket > 0.0 && bucket.is_finite() && t0.is_finite() && t1.is_finite()) {
            return Err(CollectError::InvalidConfig(
                "rollup needs a positive finite bucket width and a finite range".into(),
            ));
        }
        let points = self.query_range(metric, t0, t1)?;
        let bucket_of = |t: f64| ((t - t0) / bucket).floor();
        let mut out: Vec<(f64, f32)> = Vec::new();
        for slice in points.chunk_by(|a, b| bucket_of(a.0) == bucket_of(b.0)) {
            let bucket_start = t0 + bucket_of(slice[0].0) * bucket;
            if bucket_start >= t1 {
                break;
            }
            let value = match agg {
                Aggregation::Mean => {
                    slice.iter().map(|&(_, v)| v as f64).sum::<f64>() as f32 / slice.len() as f32
                }
                Aggregation::Min => slice.iter().map(|&(_, v)| v).fold(f32::INFINITY, f32::min),
                Aggregation::Max => slice
                    .iter()
                    .map(|&(_, v)| v)
                    .fold(f32::NEG_INFINITY, f32::max),
                Aggregation::Count => slice.len() as f32,
                Aggregation::P95 => {
                    let mut vals: Vec<f32> = slice.iter().map(|&(_, v)| v).collect();
                    vals.sort_by(|a, b| a.total_cmp(b));
                    vals[((vals.len() as f64 - 1.0) * 0.95).round() as usize]
                }
            };
            out.push((bucket_start, value));
        }
        Ok(out)
    }
}

/// Canonical fingerprint of the *union* of several stores, as if every
/// point had been inserted into one database. Series are folded in
/// sorted-name order; within a series, points from all stores are pooled
/// and sorted by (timestamp bits, value bits) before hashing, so the
/// digest depends only on the multiset of points per series. This is how
/// a sharded controller's per-shard TSDBs are compared against a single
/// controller's store over the same traffic.
pub fn canonical_fingerprint_merged(stores: &[&TsDb]) -> u64 {
    let guards: Vec<_> = stores.iter().map(|s| s.read()).collect();
    let mut columns: Vec<_> = guards.iter().flat_map(|g| g.columns()).collect();
    columns.sort_by(|a, b| a.0.cmp(&b.0));
    let mut h = fnv1a_init();
    for same_name in columns.chunk_by(|a, b| a.0 == b.0) {
        let mut points: Vec<(u64, u32)> = same_name
            .iter()
            .flat_map(|(_, series, k)| series.column(*k))
            .map(|(t, v)| (t.to_bits(), v.to_bits()))
            .collect();
        points.sort_unstable();
        fnv1a(&mut h, same_name[0].0.as_bytes());
        fnv1a(&mut h, &(points.len() as u64).to_le_bytes());
        for (t, v) in points {
            fnv1a(&mut h, &t.to_le_bytes());
            fnv1a(&mut h, &v.to_le_bytes());
        }
    }
    h
}

/// FNV-1a 64-bit offset basis.
pub(crate) fn fnv1a_init() -> u64 {
    0xcbf2_9ce4_8422_2325
}

/// Folds `bytes` into the running FNV-1a 64-bit hash `h`. Shared by the
/// TSDB fingerprint and the controller's state digest; FNV keeps the
/// digest dependency-free and byte-order stable across platforms.
pub(crate) fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Rollup aggregation functions (statsd-style).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Aggregation {
    /// Arithmetic mean per bucket.
    Mean,
    /// Minimum per bucket.
    Min,
    /// Maximum per bucket.
    Max,
    /// Point count per bucket.
    Count,
    /// 95th percentile per bucket (nearest-rank).
    P95,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_fingerprint_merged_is_insertion_order_invariant() {
        // The same multiset of points, fed in three different insertion
        // orders (and two different shardings), must digest identically:
        // the fingerprint may depend only on the data, never on map
        // iteration or arrival order.
        let points = [
            ("imu.accel.x", 0.5, 1.0f32),
            ("imu.accel.x", 0.5, 2.0),
            ("imu.accel.x", 0.25, 3.0),
            ("cam.frame.lum", 0.5, 9.0),
            ("cam.frame.lum", 0.125, 4.0),
            ("gps.speed", 2.0, 60.0),
        ];
        let forward = TsDb::new();
        for &(m, t, v) in &points {
            forward.insert(m, t, v);
        }
        let reverse = TsDb::new();
        for &(m, t, v) in points.iter().rev() {
            reverse.insert(m, t, v);
        }
        let interleaved = TsDb::new();
        for &(m, t, v) in points.iter().skip(1).chain(points.iter().take(1)) {
            interleaved.insert(m, t, v);
        }
        let expected = canonical_fingerprint_merged(&[&forward]);
        assert_eq!(canonical_fingerprint_merged(&[&reverse]), expected);
        assert_eq!(canonical_fingerprint_merged(&[&interleaved]), expected);
        assert_eq!(forward.canonical_fingerprint(), expected);

        // Sharded: split the stream across two stores both ways.
        let (a, b) = (TsDb::new(), TsDb::new());
        for (i, &(m, t, v)) in points.iter().enumerate() {
            if i % 2 == 0 { &a } else { &b }.insert(m, t, v);
        }
        assert_eq!(canonical_fingerprint_merged(&[&a, &b]), expected);
        assert_eq!(canonical_fingerprint_merged(&[&b, &a]), expected);
    }

    #[test]
    fn insert_and_query_roundtrip() {
        let db = TsDb::new();
        db.insert("m", 1.0, 10.0);
        db.insert("m", 2.0, 20.0);
        db.insert("m", 3.0, 30.0);
        let pts = db.query_range("m", 1.5, 3.0).unwrap();
        assert_eq!(pts, vec![(2.0, 20.0), (3.0, 30.0)]);
    }

    #[test]
    fn out_of_order_inserts_stay_sorted() {
        let db = TsDb::new();
        db.insert("m", 3.0, 3.0);
        db.insert("m", 1.0, 1.0);
        db.insert("m", 2.0, 2.0);
        let pts = db.query_range("m", 0.0, 10.0).unwrap();
        let times: Vec<f64> = pts.iter().map(|p| p.0).collect();
        assert_eq!(times, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn unknown_series_errors() {
        let db = TsDb::new();
        assert!(matches!(
            db.query_range("nope", 0.0, 1.0),
            Err(CollectError::NoData(_))
        ));
        assert!(db.stats("nope").is_err());
    }

    #[test]
    fn stats_are_correct() {
        let db = TsDb::new();
        for (t, v) in [(0.0, 1.0), (1.0, 3.0), (2.0, 2.0)] {
            db.insert("m", t, v);
        }
        let s = db.stats("m").unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.first_t, 0.0);
        assert_eq!(s.last_t, 2.0);
    }

    #[test]
    fn vector_insert_creates_channel_series() {
        let db = TsDb::new();
        db.insert_vector("imu", 0.5, &[1.0, 2.0, 3.0]);
        assert_eq!(db.metrics(), vec!["imu.0", "imu.1", "imu.2"]);
        assert_eq!(db.len("imu.1"), 1);
    }

    #[test]
    fn concurrent_inserts_are_safe() {
        let db = TsDb::new();
        std::thread::scope(|scope| {
            for k in 0..4 {
                let db = &db;
                scope.spawn(move || {
                    for i in 0..250 {
                        db.insert("shared", (k * 250 + i) as f64, i as f32);
                    }
                });
            }
        });
        assert_eq!(db.len("shared"), 1000);
        // Sorted invariant holds.
        let pts = db.query_range("shared", 0.0, 1e9).unwrap();
        assert!(pts.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn rollup_means_buckets_correctly() {
        let db = TsDb::new();
        for i in 0..10 {
            db.insert("m", i as f64, i as f32);
        }
        // Buckets of 5 s: [0,5) mean 2, [5,10) mean 7.
        let out = db.rollup("m", 0.0, 10.0, 5.0, Aggregation::Mean).unwrap();
        assert_eq!(out, vec![(0.0, 2.0), (5.0, 7.0)]);
    }

    #[test]
    fn rollup_min_max_count() {
        let db = TsDb::new();
        for (t, v) in [(0.0, 3.0), (1.0, -1.0), (2.0, 8.0), (6.0, 5.0)] {
            db.insert("m", t, v);
        }
        assert_eq!(
            db.rollup("m", 0.0, 10.0, 5.0, Aggregation::Min).unwrap(),
            vec![(0.0, -1.0), (5.0, 5.0)]
        );
        assert_eq!(
            db.rollup("m", 0.0, 10.0, 5.0, Aggregation::Max).unwrap(),
            vec![(0.0, 8.0), (5.0, 5.0)]
        );
        assert_eq!(
            db.rollup("m", 0.0, 10.0, 5.0, Aggregation::Count).unwrap(),
            vec![(0.0, 3.0), (5.0, 1.0)]
        );
    }

    #[test]
    fn rollup_p95_takes_high_value() {
        let db = TsDb::new();
        for i in 0..100 {
            db.insert("m", i as f64 * 0.01, i as f32);
        }
        let out = db.rollup("m", 0.0, 1.0, 1.0, Aggregation::P95).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out[0].1 >= 90.0);
    }

    #[test]
    fn rollup_skips_empty_buckets_and_validates() {
        let db = TsDb::new();
        db.insert("m", 0.5, 1.0);
        db.insert("m", 20.5, 2.0);
        let out = db.rollup("m", 0.0, 30.0, 10.0, Aggregation::Mean).unwrap();
        assert_eq!(out.len(), 2);
        assert!(db.rollup("m", 0.0, 1.0, 0.0, Aggregation::Mean).is_err());
        for nan in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for (t0, t1, bucket) in [(nan, 1.0, 1.0), (0.0, nan, 1.0), (0.0, 1.0, nan)] {
                assert!(matches!(
                    db.rollup("m", t0, t1, bucket, Aggregation::Mean),
                    Err(CollectError::InvalidConfig(_))
                ));
            }
        }
        assert!(db
            .rollup("absent", 0.0, 1.0, 1.0, Aggregation::Mean)
            .is_err());
    }

    #[test]
    fn rollup_returns_for_a_bucket_below_the_ulp_of_t0() {
        // `bucket_start + bucket == bucket_start` used to spin forever.
        let db = TsDb::new();
        db.insert("m", 1e6 + 0.5, 1.0);
        db.insert("m", 1e6 + 1.0, 3.0);
        let out = db
            .rollup("m", 1e6, 1e6 + 2.0, 1e-12, Aggregation::Mean)
            .unwrap();
        assert_eq!(out, vec![(1e6 + 0.5, 1.0), (1e6 + 1.0, 3.0)]);
    }

    #[test]
    fn rollup_jumps_over_empty_buckets() {
        // 10^12 empty buckets between the two points: walking them would
        // not end; the keys are the buckets' own starts.
        let db = TsDb::new();
        db.insert("m", 0.5, 1.0);
        db.insert("m", 0.75, 2.0);
        db.insert("m", 1e12 + 0.5, 5.0);
        let out = db.rollup("m", 0.0, 2e12, 1.0, Aggregation::Count).unwrap();
        assert_eq!(out, vec![(0.0, 2.0), (1e12, 1.0)]);
    }

    #[test]
    fn fingerprint_is_content_addressed() {
        let a = TsDb::new();
        let b = TsDb::new();
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Same content, different insertion interleaving across series.
        a.insert("x", 0.0, 1.0);
        a.insert("y", 0.5, 2.0);
        a.insert("x", 1.0, 3.0);
        b.insert("y", 0.5, 2.0);
        b.insert("x", 0.0, 1.0);
        b.insert("x", 1.0, 3.0);
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Any value difference changes the fingerprint.
        b.insert("x", 2.0, 4.0);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn canonical_fingerprint_ignores_equal_timestamp_order() {
        let a = TsDb::new();
        let b = TsDb::new();
        // Two points share t=1.0; insertion order differs, so the plain
        // fingerprint diverges but the canonical one must not.
        a.insert("m", 1.0, 10.0);
        a.insert("m", 1.0, 20.0);
        b.insert("m", 1.0, 20.0);
        b.insert("m", 1.0, 10.0);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.canonical_fingerprint(), b.canonical_fingerprint());
        // A value difference still shows up.
        b.insert("m", 1.0, 30.0);
        assert_ne!(a.canonical_fingerprint(), b.canonical_fingerprint());
    }

    #[test]
    fn merged_fingerprint_matches_union_store() {
        let whole = TsDb::new();
        let left = TsDb::new();
        let right = TsDb::new();
        for i in 0..50 {
            let t = (i % 7) as f64;
            let v = i as f32;
            whole.insert("s", t, v);
            if i % 2 == 0 {
                left.insert("s", t, v);
            } else {
                right.insert("s", t, v);
            }
        }
        whole.insert("only", 0.0, 1.0);
        right.insert("only", 0.0, 1.0);
        assert_eq!(
            whole.canonical_fingerprint(),
            canonical_fingerprint_merged(&[&left, &right])
        );
        // Dropping a store's points breaks equality.
        assert_ne!(
            whole.canonical_fingerprint(),
            canonical_fingerprint_merged(&[&right])
        );
    }

    /// The row series `m`: its stamps, values and the slot `read_rows`
    /// would redo from.
    type Rows = Option<(Vec<f64>, Vec<f32>, usize)>;

    /// What a write leaves: the fingerprint, the names, and what the one
    /// reader that keeps state sees of `m` (read, so it resets on both
    /// sides of a comparison).
    fn written(db: &TsDb) -> (u64, Vec<String>, Rows) {
        let rows = db.read_rows("m", |s, dirty| (s.t.clone(), s.values.clone(), dirty));
        (db.fingerprint(), db.metrics(), rows)
    }

    #[test]
    fn rows_written_at_once_store_what_insert_vector_does_row_by_row() {
        type Batch<'a> = &'a [(f64, &'a [f32])];
        let batches: [Batch<'_>; 4] = [
            // Out of order, with equal stamps both ways round.
            &[
                (1.0, &[1.0, 2.0]),
                (0.5, &[3.0, 4.0]),
                (1.0, &[5.0, 6.0]),
                (0.5, &[7.0, 8.0]),
            ],
            // An append, then a row earlier than every one.
            &[(2.0, &[1.0, 1.0]), (0.25, &[2.0, 2.0])],
            // A row of another width splits the rows mid-batch; the rows
            // after it, and an empty one, follow it as scalars.
            &[
                (3.0, &[9.0, 9.0]),
                (3.0, &[1.0, 2.0, 3.0]),
                (2.5, &[4.0, 4.0]),
                (0.0, &[]),
            ],
            &[(0.75, &[5.0, 5.0, 5.0])],
        ];
        let (batched, single) = (TsDb::new(), TsDb::new());
        for rows in batches {
            batched.write().insert_rows("m", None, rows.iter().copied());
            for &(t, values) in rows {
                single.insert_vector("m", t, values);
            }
            assert_eq!(written(&batched), written(&single));
        }
        assert_eq!(written(&batched).2, None, "the third batch split the rows");
    }

    #[test]
    fn a_kept_slot_writes_where_the_name_would() {
        let rows = |t0: f64| [(t0 + 0.5, [1.0f32, 2.0]), (t0, [3.0, 4.0])];
        let (kept, named) = (TsDb::new(), TsDb::new());
        let mut series = KeptSeries::new("m".into(), "p".into());
        let write = |series: &mut KeptSeries, t0: f64| {
            kept.insert_batch(series, rows(t0), [(t0, 1.0), (t0 - 1.0, 2.0)]);
            for (t, row) in rows(t0) {
                named.insert_vector("m", t, &row);
            }
            named.insert("p", t0, 1.0);
            named.insert("p", t0 - 1.0, 2.0);
            assert_eq!(written(&kept), written(&named), "batch at {t0}");
        };
        write(&mut series, 1.0);
        // Rows written by name between two batches, another series made.
        for db in [&kept, &named] {
            db.insert_vector("m", 1.25, &[7.0, 7.0]);
            db.insert_vector("q", 0.0, &[1.0]);
        }
        write(&mut series, 2.0);
        // A scalar under a channel name splits the rows: the slot kept
        // for them holds nothing now, and the rows go by name.
        for db in [&kept, &named] {
            db.insert("m.1", 0.0, 9.0);
        }
        write(&mut series, 3.0);
        write(&mut series, 0.0);
        assert_eq!(kept.len("m.0"), 9);
        assert_eq!(kept.len("p"), 8);
    }

    #[test]
    fn one_probe_finds_what_every_channel_name_would() {
        // Scalars that are, are not quite, and are not a channel of `m`.
        const NAMES: [&str; 7] = ["m.3", "m.03", "m.3.1", "m.30", "m.11", "m.+1", "m."];
        // Names that sort next to the probe's prefix `m.` on either side.
        const NEIGHBOURS: [&str; 5] = ["l.3", "m-3", "m0.3", "mm.3", "n.0"];
        for subset in 0..1u32 << NAMES.len() {
            for rows in [0, 1, 4, 12] {
                let mut store = Store::default();
                if rows > 0 {
                    store.insert_rows("m", None, [(0.0, vec![1.0; rows])]);
                }
                let picked = (0..NAMES.len()).filter(|i| subset >> i & 1 == 1);
                for name in picked.map(|i| NAMES[i]).chain(NEIGHBOURS) {
                    store.insert_points(name, None, [(0.0, 2.0)]);
                }
                for width in 1..=40 {
                    let per_channel = (0..width).any(|k| store.column(&format!("m.{k}")).is_some());
                    assert_eq!(
                        store.taken("m.", width),
                        per_channel,
                        "scalars {subset:#b}, rows {rows} wide, width {width}"
                    );
                }
            }
        }
    }

    #[test]
    fn point_count_and_bytes_accounting() {
        let db = TsDb::new();
        assert_eq!(db.point_count(), 0);
        db.insert_vector("v", 0.0, &[1.0, 2.0, 3.0]);
        db.insert("w", 1.0, 4.0);
        assert_eq!(db.point_count(), 4);
        // One row (8 + 3 × 4) and one scalar point (8 + 4).
        assert_eq!(db.approx_bytes(), 20 + 12);
    }

    #[test]
    fn poisoned_store_reads_and_writes_like_a_clean_one() {
        // A thread that panics while holding the write guard poisons the
        // lock; the store takes it as it is and carries on unchanged.
        let poisoned = TsDb::new();
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _guard = poisoned.write();
                panic!("panics while holding the store");
            });
            assert!(holder.join().is_err());
        });
        assert!(poisoned.store.is_poisoned());
        let clean = TsDb::new();
        for db in [&poisoned, &clean] {
            db.insert("gps.speed", 0.5, 60.0);
            db.insert_vector("imu", 0.25, &[1.0, 2.0, 3.0]);
            db.insert_vector("imu", 0.5, &[4.0, 5.0, 6.0]);
        }
        assert_eq!(
            poisoned.query_range("imu.1", 0.0, 1.0).unwrap(),
            [(0.25, 2.0), (0.5, 5.0)]
        );
        assert_eq!(poisoned.metrics(), clean.metrics());
        for metric in clean.metrics() {
            assert_eq!(
                poisoned.query_range(&metric, 0.0, 1.0).unwrap(),
                clean.query_range(&metric, 0.0, 1.0).unwrap()
            );
        }
        let rows = |db: &TsDb| db.read_rows("imu", |s, dirty| (s.t.clone(), dirty));
        let read = rows(&poisoned);
        assert_eq!(read, Some((vec![0.25, 0.5], 0)));
        assert_eq!(read, rows(&clean));
        assert_eq!(poisoned.fingerprint(), clean.fingerprint());
    }
}
