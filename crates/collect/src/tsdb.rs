//! A small in-memory time-series store, in the spirit of the statsd-style
//! database the paper's controller writes aligned tuples into (§4.1).

use std::collections::BTreeMap;

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

use crate::error::CollectError;
use crate::Result;

/// Summary statistics for one series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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

/// A thread-safe, in-memory, multi-series time-series database.
///
/// Points are kept sorted by timestamp per series; insertion keeps order
/// (fast append for the common in-order case, binary insertion otherwise).
/// Series live in a `BTreeMap` so every traversal — fingerprints, metric
/// listings, point counts — walks names in one deterministic order
/// regardless of insertion order (darlint `nondet-order`).
///
/// ```
/// use darnet_collect::TsDb;
///
/// let db = TsDb::new();
/// db.insert("imu.accel.x", 0.0, 1.0);
/// db.insert("imu.accel.x", 0.5, 2.0);
/// let pts = db.query_range("imu.accel.x", 0.0, 1.0)?;
/// assert_eq!(pts.len(), 2);
/// # Ok::<(), darnet_collect::CollectError>(())
/// ```
#[derive(Debug, Default)]
pub struct TsDb {
    series: RwLock<BTreeMap<String, Vec<(f64, f32)>>>,
}

impl TsDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        TsDb::default()
    }

    /// Inserts a point into `metric`, creating the series if needed.
    pub fn insert(&self, metric: &str, t: f64, value: f32) {
        let mut guard = self.series.write();
        // Looked up by `&str`: the key is allocated once per series, not
        // once per point.
        let Some(series) = guard.get_mut(metric) else {
            guard.insert(metric.to_string(), vec![(t, value)]);
            return;
        };
        if series.last().is_none_or(|&(lt, _)| lt <= t) {
            series.push((t, value));
        } else {
            let idx = series.partition_point(|&(st, _)| st <= t);
            series.insert(idx, (t, value));
        }
    }

    /// Inserts a multi-channel sample as `metric.0`, `metric.1`, ...
    pub fn insert_vector(&self, metric: &str, t: f64, values: &[f32]) {
        for (i, &v) in values.iter().enumerate() {
            self.insert(&format!("{metric}.{i}"), t, v);
        }
    }

    /// Names of all series, sorted (the map is ordered by name).
    pub fn metrics(&self) -> Vec<String> {
        self.series.read().keys().cloned().collect()
    }

    /// Number of points in `metric` (0 if absent).
    pub fn len(&self, metric: &str) -> usize {
        self.series.read().get(metric).map_or(0, Vec::len)
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
        let guard = self.series.read();
        let series = guard
            .get(metric)
            .ok_or_else(|| CollectError::NoData(format!("unknown series {metric}")))?;
        let lo = series.partition_point(|&(t, _)| t < t0);
        let hi = series.partition_point(|&(t, _)| t <= t1);
        Ok(series[lo..hi].to_vec())
    }

    /// Summary statistics for `metric`.
    ///
    /// # Errors
    ///
    /// Returns [`CollectError::NoData`] if the series is missing or empty.
    pub fn stats(&self, metric: &str) -> Result<SeriesStats> {
        let guard = self.series.read();
        let series = guard
            .get(metric)
            .filter(|s| !s.is_empty())
            .ok_or_else(|| CollectError::NoData(format!("empty series {metric}")))?;
        let count = series.len();
        let mut sum = 0.0f64;
        let mut min = f32::INFINITY;
        let mut max = f32::NEG_INFINITY;
        for &(_, v) in series {
            sum += v as f64;
            min = min.min(v);
            max = max.max(v);
        }
        Ok(SeriesStats {
            count,
            mean: (sum / count as f64) as f32,
            min,
            max,
            first_t: series[0].0,
            last_t: series[count - 1].0,
        })
    }

    /// Removes every series.
    pub fn clear(&self) {
        self.series.write().clear();
    }

    /// An order-independent-across-series, bitwise-exact fingerprint of
    /// the whole store: series are folded in sorted-name order, points in
    /// their stored (timestamp) order, hashing the exact f64/f32 bit
    /// patterns. Two stores fingerprint equal iff they hold identical
    /// data — the equality check behind the WAL recovery invariant
    /// (replay must rebuild the TSDB *bitwise*, DESIGN.md §13).
    pub fn fingerprint(&self) -> u64 {
        let guard = self.series.read();
        let mut h = fnv1a_init();
        for (name, points) in guard.iter() {
            fnv1a(&mut h, name.as_bytes());
            fnv1a(&mut h, &(points.len() as u64).to_le_bytes());
            for &(t, v) in points {
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
    // darlint: pure-root
    pub fn canonical_fingerprint(&self) -> u64 {
        canonical_fingerprint_merged(&[self])
    }

    /// Total number of points across every series.
    pub fn point_count(&self) -> usize {
        self.series.read().values().map(Vec::len).sum()
    }

    /// Approximate resident bytes of the stored points (12 bytes per
    /// point: an `f64` timestamp and an `f32` value), ignoring container
    /// overhead. Deterministic, so it can participate in gated
    /// memory-per-agent accounting.
    pub fn approx_bytes(&self) -> u64 {
        self.point_count() as u64 * 12
    }

    /// Rolls `metric` up into fixed-width buckets over `[t0, t1)` with the
    /// given aggregation — the statsd-style query a dashboard over the
    /// controller's store would issue. Buckets with no points are omitted.
    ///
    /// # Errors
    ///
    /// Returns [`CollectError::NoData`] if the series does not exist, or
    /// an invalid-config error for a non-positive bucket width.
    pub fn rollup(
        &self,
        metric: &str,
        t0: f64,
        t1: f64,
        bucket: f64,
        agg: Aggregation,
    ) -> Result<Vec<(f64, f32)>> {
        if bucket <= 0.0 {
            return Err(CollectError::InvalidConfig(
                "rollup bucket width must be positive".into(),
            ));
        }
        let points = self.query_range(metric, t0, t1)?;
        let mut out: Vec<(f64, f32)> = Vec::new();
        let mut idx = 0usize;
        let mut bucket_start = t0;
        while bucket_start < t1 && idx < points.len() {
            let bucket_end = bucket_start + bucket;
            let lo = idx;
            while idx < points.len() && points[idx].0 < bucket_end {
                idx += 1;
            }
            let slice = &points[lo..idx];
            if !slice.is_empty() {
                let value = match agg {
                    Aggregation::Mean => {
                        slice.iter().map(|&(_, v)| v as f64).sum::<f64>() as f32
                            / slice.len() as f32
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
            bucket_start = bucket_end;
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
// darlint: pure-root
pub fn canonical_fingerprint_merged(stores: &[&TsDb]) -> u64 {
    use std::collections::BTreeSet;
    let guards: Vec<_> = stores.iter().map(|s| s.series.read()).collect();
    let mut names: BTreeSet<&str> = BTreeSet::new();
    for guard in &guards {
        names.extend(guard.keys().map(String::as_str));
    }
    let mut h = fnv1a_init();
    for name in names {
        let mut points: Vec<(u64, u32)> = Vec::new();
        for guard in &guards {
            if let Some(series) = guard.get(name) {
                points.extend(series.iter().map(|&(t, v)| (t.to_bits(), v.to_bits())));
            }
        }
        points.sort_unstable();
        fnv1a(&mut h, name.as_bytes());
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
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
        assert!(db
            .rollup("absent", 0.0, 1.0, 1.0, Aggregation::Mean)
            .is_err());
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
        // Dropping a point breaks equality.
        left.clear();
        assert_ne!(
            whole.canonical_fingerprint(),
            canonical_fingerprint_merged(&[&left, &right])
        );
    }

    #[test]
    fn point_count_and_bytes_accounting() {
        let db = TsDb::new();
        assert_eq!(db.point_count(), 0);
        db.insert_vector("v", 0.0, &[1.0, 2.0, 3.0]);
        db.insert("w", 1.0, 4.0);
        assert_eq!(db.point_count(), 4);
        assert_eq!(db.approx_bytes(), 48);
    }

    #[test]
    fn clear_empties_everything() {
        let db = TsDb::new();
        db.insert("a", 0.0, 0.0);
        db.clear();
        assert!(db.metrics().is_empty());
        assert!(db.is_empty("a"));
    }
}
