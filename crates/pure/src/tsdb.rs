//! A small in-memory time-series store, in the spirit of the statsd-style
//! database the paper's controller writes aligned tuples into (§4.1).

use std::collections::BTreeMap;
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
    scalars: BTreeMap<String, Series>,
    /// Vector samples, one row each. Column `k` of series `m` answers to
    /// the name `m.k`, and no scalar series has such a name: the insert
    /// that would make one splits the row series first.
    rows: BTreeMap<String, Series>,
}

impl Store {
    fn series(&self) -> impl Iterator<Item = &Series> {
        self.scalars.values().chain(self.rows.values())
    }

    /// The series and column `name` addresses.
    fn column(&self, name: &str) -> Option<(&Series, usize)> {
        if let Some(series) = self.scalars.get(name) {
            return Some((series, 0));
        }
        let (owner, k) = column_name(name)?;
        let rows = self.rows.get(owner)?;
        (k < rows.width).then_some((rows, k))
    }

    /// Every column as `(name, series, column)`, sorted by name — the one
    /// order fingerprints and listings walk (`clippy.toml` bans the hash
    /// maps whose order would vary from run to run).
    fn columns(&self) -> Vec<(String, &Series, usize)> {
        let scalars = self.scalars.iter().map(|(name, s)| (name.clone(), s, 0));
        let rows = self
            .rows
            .iter()
            .flat_map(|(name, s)| (0..s.width).map(move |k| (format!("{name}.{k}"), s, k)));
        let mut out: Vec<_> = scalars.chain(rows).collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Turns the row series `metric` back into one scalar series per
    /// column, each with the points and order it had.
    fn split(&mut self, metric: &str) {
        let Some(rows) = self.rows.remove(metric) else {
            return;
        };
        for k in 0..rows.width {
            let column = Series {
                width: 1,
                t: rows.t.clone(),
                values: rows.column(k).map(|(_, v)| v).collect(),
                dirty: 0,
            };
            self.scalars.insert(format!("{metric}.{k}"), column);
        }
    }

    fn insert_scalar(&mut self, metric: &str, t: f64, value: f32) {
        // Looked up by `&str`: the key is allocated once per series, not
        // once per point.
        if let Some(series) = self.scalars.get_mut(metric) {
            return series.insert(t, &[value]);
        }
        // A new scalar name that a row series' column answers to: from
        // here on the name means a series of its own, as do its siblings.
        if let Some((owner, _)) = column_name(metric).filter(|_| self.column(metric).is_some()) {
            self.split(owner);
        }
        self.scalars
            .entry(metric.to_string())
            .or_insert_with(|| Series::of_width(1))
            .insert(t, &[value]);
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
        self.write().insert_scalar(metric, t, value);
    }

    /// Inserts a multi-channel sample, readable as the series `metric.0`,
    /// `metric.1`, ... — under one guard, as one row. The first sample
    /// fixes the row width; a sample of another width, or a scalar
    /// inserted under one of the channel names, turns the rows back into
    /// one scalar series per channel, which is what they read as anyway.
    pub fn insert_vector(&self, metric: &str, t: f64, values: &[f32]) {
        if values.is_empty() {
            return;
        }
        let store = &mut *self.write();
        let same_width = |rows: &&mut Series| rows.width == values.len();
        if let Some(rows) = store.rows.get_mut(metric).filter(same_width) {
            return rows.insert(t, values);
        }
        let taken = |k| store.column(&format!("{metric}.{k}")).is_some();
        if !(0..values.len()).any(taken) {
            let mut rows = Series::of_width(values.len());
            rows.insert(t, values);
            store.rows.insert(metric.to_string(), rows);
            return;
        }
        // A channel name is taken, by a scalar series or by rows of
        // another width: each channel goes where a scalar of its name does.
        for (k, &v) in values.iter().enumerate() {
            store.insert_scalar(&format!("{metric}.{k}"), t, v);
        }
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
        let mut store = self.write();
        let series = store.rows.get_mut(metric)?;
        let dirty = std::mem::replace(&mut series.dirty, usize::MAX);
        Some(read(series, dirty))
    }

    /// Number of vector samples held as rows.
    pub(crate) fn row_count(&self) -> usize {
        self.read().rows.values().map(|s| s.t.len()).sum()
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
