//! Flat-JSON metric files for bench-regression tracking.
//!
//! The CI pipeline commits a baseline `BENCH_parallel.json` and compares
//! every run's metrics against it. Files are a single flat object of
//! numeric values — hand-rolled here, so the harness needs no JSON
//! library. Three key prefixes participate in regression
//! comparison: `speedup_*` and `rate_*` are higher-is-better, `cost_*`
//! is lower-is-better. Speedups are ratios of two timings taken on the
//! same machine in the same run, so they are comparable across machines;
//! `rate_`/`cost_` keys must likewise be machine-portable (simulated-time
//! latencies, deterministic byte counts, 0/1 invariant checks — or
//! wall-clock rates whose committed baselines are deliberately
//! conservative). Each seeded bench also names its *seeded counts* —
//! integers its seed fully determines (batches acked, WAL bytes,
//! deliveries) — which must equal the baseline exactly: a refactor that
//! re-rolls a seeded session moves them long before any ratio. Everything
//! else is recorded for humans but would make the gate flaky across
//! hardware.

use std::collections::BTreeMap;

/// Higher-is-better metric prefix subject to regression comparison.
pub const COMPARED_PREFIX: &str = "speedup_";
/// Higher-is-better prefix for throughputs and invariant indicators.
pub const RATE_PREFIX: &str = "rate_";
/// Lower-is-better prefix for latencies and footprints.
pub const COST_PREFIX: &str = "cost_";

/// Serializes metrics as a flat JSON object (sorted keys, one per
/// line — diff-friendly for a committed baseline).
pub fn to_json(metrics: &BTreeMap<String, f64>) -> String {
    let mut out = String::from("{\n");
    let mut first = true;
    for (k, v) in metrics {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!("  {k:?}: {v}"));
    }
    out.push_str("\n}\n");
    out
}

/// Parses a flat JSON object of numbers (the subset [`to_json`]
/// emits, whitespace-insensitive).
///
/// # Errors
///
/// Returns a description of the first malformed entry.
pub fn parse_json(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let body = text
        .trim()
        .strip_prefix('{')
        .and_then(|t| t.strip_suffix('}'))
        .ok_or_else(|| "metrics file is not a JSON object".to_string())?;
    let mut out = BTreeMap::new();
    for entry in body.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (key, value) = entry
            .split_once(':')
            .ok_or_else(|| format!("malformed entry {entry:?}"))?;
        let key = key
            .trim()
            .strip_prefix('"')
            .and_then(|k| k.strip_suffix('"'))
            .ok_or_else(|| format!("unquoted key in {entry:?}"))?;
        let value: f64 = value
            .trim()
            .parse()
            .map_err(|e| format!("bad number for {key:?}: {e}"))?;
        out.insert(key.to_string(), value);
    }
    Ok(out)
}

/// Compares a run against a committed baseline: every `speedup_*` or
/// `rate_*` key present in both must not fall below
/// `baseline × (1 − tolerance)`, and every `cost_*` key must not rise
/// above `baseline × (1 + tolerance)`. Improvements never fail.
/// A baseline key ending with an entry of `seeded` (a whole name, or
/// the suffix a family shares) is a seeded count instead: any
/// difference fails, in either direction.
/// Returns the list of regression descriptions (empty = pass).
pub fn compare(
    baseline: &BTreeMap<String, f64>,
    current: &BTreeMap<String, f64>,
    tolerance: f64,
    seeded: &[&str],
) -> Vec<String> {
    let mut regressions = Vec::new();
    for (key, &base) in baseline {
        if seeded.iter().any(|s| key.ends_with(s)) {
            match current.get(key) {
                Some(&cur) if cur == base => {}
                Some(&cur) => regressions.push(format!(
                    "{key}: seeded count {cur} differs from baseline {base}"
                )),
                None => regressions.push(format!("{key}: missing from current run")),
            }
            continue;
        }
        let higher_better = key.starts_with(COMPARED_PREFIX) || key.starts_with(RATE_PREFIX);
        let lower_better = key.starts_with(COST_PREFIX);
        if (!higher_better && !lower_better) || base <= 0.0 {
            continue;
        }
        match current.get(key) {
            Some(&cur) if higher_better && cur < base * (1.0 - tolerance) => {
                regressions.push(format!(
                    "{key}: {cur:.3} is below baseline {base:.3} − {:.0}% tolerance",
                    tolerance * 100.0
                ));
            }
            Some(&cur) if lower_better && cur > base * (1.0 + tolerance) => {
                regressions.push(format!(
                    "{key}: {cur:.3} is above baseline {base:.3} + {:.0}% tolerance",
                    tolerance * 100.0
                ));
            }
            Some(_) => {}
            None => regressions.push(format!("{key}: missing from current run")),
        }
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_json_roundtrips() {
        let mut m = std::collections::BTreeMap::new();
        m.insert("speedup_matmul_threads".to_string(), 2.125);
        m.insert("threads_available".to_string(), 4.0);
        m.insert("throughput_matmul_serial".to_string(), 1.5e9);
        let text = to_json(&m);
        assert_eq!(parse_json(&text).unwrap(), m);
    }

    #[test]
    fn metrics_parser_rejects_garbage() {
        assert!(parse_json("not json").is_err());
        assert!(parse_json("{\"a\": nope}").is_err());
        assert!(parse_json("{a: 1}").is_err());
        assert_eq!(parse_json("{}").unwrap().len(), 0);
    }

    #[test]
    fn compare_flags_only_speedup_regressions() {
        let mut base = std::collections::BTreeMap::new();
        base.insert("speedup_matmul_threads".to_string(), 2.0);
        base.insert("speedup_engine_batch32".to_string(), 1.8);
        base.insert("throughput_matmul_serial".to_string(), 1e9);

        // Within tolerance, absolute throughput halved: pass.
        let mut cur = base.clone();
        cur.insert("speedup_matmul_threads".to_string(), 1.75);
        cur.insert("throughput_matmul_serial".to_string(), 5e8);
        assert!(compare(&base, &cur, 0.15, &[]).is_empty());

        // Speedup collapsed: fail.
        cur.insert("speedup_matmul_threads".to_string(), 1.0);
        let regressions = compare(&base, &cur, 0.15, &[]);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].contains("speedup_matmul_threads"));

        // Missing compared key: fail.
        cur.remove("speedup_engine_batch32");
        cur.insert("speedup_matmul_threads".to_string(), 2.0);
        let regressions = compare(&base, &cur, 0.15, &[]);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].contains("missing"));

        // Improvements never fail.
        cur.insert("speedup_engine_batch32".to_string(), 3.0);
        assert!(compare(&base, &cur, 0.15, &[]).is_empty());
    }

    #[test]
    fn compare_gates_rates_up_and_costs_down() {
        let mut base = std::collections::BTreeMap::new();
        base.insert("rate_ingest_rps".to_string(), 100_000.0);
        base.insert("cost_ack_p99_s".to_string(), 0.20);
        base.insert("cost_bytes_per_agent".to_string(), 4096.0);
        base.insert("agents".to_string(), 10_000.0);

        // Within tolerance both ways; the unprefixed key is ignored.
        let mut cur = base.clone();
        cur.insert("rate_ingest_rps".to_string(), 90_000.0);
        cur.insert("cost_ack_p99_s".to_string(), 0.22);
        cur.insert("agents".to_string(), 1.0);
        assert!(compare(&base, &cur, 0.15, &[]).is_empty());

        // Throughput collapse fails.
        cur.insert("rate_ingest_rps".to_string(), 50_000.0);
        let regressions = compare(&base, &cur, 0.15, &[]);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].contains("rate_ingest_rps"));

        // Cost blow-up fails (lower-is-better inverts the check).
        cur.insert("rate_ingest_rps".to_string(), 100_000.0);
        cur.insert("cost_bytes_per_agent".to_string(), 9000.0);
        let regressions = compare(&base, &cur, 0.15, &[]);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].contains("cost_bytes_per_agent"));

        // Cost improvements never fail; missing gated cost key does.
        cur.insert("cost_bytes_per_agent".to_string(), 100.0);
        assert!(compare(&base, &cur, 0.15, &[]).is_empty());
        cur.remove("cost_ack_p99_s");
        assert_eq!(compare(&base, &cur, 0.15, &[]).len(), 1);
    }

    #[test]
    fn compare_holds_seeded_counts_to_equality() {
        let mut base = std::collections::BTreeMap::new();
        base.insert("chaos_acked".to_string(), 41.0);
        base.insert("chaos_acked_lost".to_string(), 0.0);
        base.insert("fleet10000_shards8_deliveries".to_string(), 69_373.0);
        base.insert("session_rerun_ms".to_string(), 5.6);
        let seeded = ["chaos_acked", "chaos_acked_lost", "_deliveries"];

        // Equal counts pass whatever the wall clock did; unnamed, the
        // counts are recorded for humans only.
        let mut cur = base.clone();
        cur.insert("session_rerun_ms".to_string(), 50.0);
        assert!(compare(&base, &cur, 0.15, &seeded).is_empty());
        cur.insert("chaos_acked".to_string(), 40.0);
        assert!(compare(&base, &cur, 0.15, &[]).is_empty());

        // One batch fewer, one delivery more, a zero that moved: each
        // fails, in either direction and far inside the tolerance.
        cur.insert("fleet10000_shards8_deliveries".to_string(), 69_374.0);
        cur.insert("chaos_acked_lost".to_string(), 1.0);
        let regressions = compare(&base, &cur, 0.15, &seeded);
        assert_eq!(regressions.len(), 3, "{regressions:?}");
        assert!(regressions.iter().all(|r| r.contains("seeded count")));

        // A seeded count the run no longer reports fails too.
        cur = base.clone();
        cur.remove("chaos_acked");
        let regressions = compare(&base, &cur, 0.15, &seeded);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].contains("missing"));
    }
}
