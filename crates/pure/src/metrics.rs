//! Flat-JSON metric files for bench-regression tracking.
//!
//! The CI pipeline commits the baselines `BENCH_parallel.json` and
//! `BENCH_chaos.json` and compares every run's metrics against them.
//! Files are a single flat object of numeric values — hand-rolled here, so
//! the harness needs no JSON library. Only `speedup_*` keys take part in
//! the comparison, higher being better: a speedup is a ratio of two
//! timings taken on the same machine in the same run, so it is comparable
//! across machines. Every other key is recorded for humans, since it
//! would make the gate flaky across hardware. A count the seed fixes is
//! no baseline key: it is pinned by a test.

use std::collections::BTreeMap;

/// Higher-is-better metric prefix subject to regression comparison.
pub const COMPARED_PREFIX: &str = "speedup_";

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

/// Compares a run against a committed baseline: every `speedup_*` key
/// of the baseline must be in the run at no less than
/// `baseline × (1 − tolerance)`. Improvements never fail.
/// Returns the list of regression descriptions (empty = pass).
pub fn compare(
    baseline: &BTreeMap<String, f64>,
    current: &BTreeMap<String, f64>,
    tolerance: f64,
) -> Vec<String> {
    let mut regressions = Vec::new();
    for (key, &base) in baseline {
        if !key.starts_with(COMPARED_PREFIX) || base <= 0.0 {
            continue;
        }
        match current.get(key) {
            Some(&cur) if cur < base * (1.0 - tolerance) => {
                regressions.push(format!(
                    "{key}: {cur:.3} is below baseline {base:.3} − {:.0}% tolerance",
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
        assert!(compare(&base, &cur, 0.15).is_empty());

        // Speedup collapsed: fail.
        cur.insert("speedup_matmul_threads".to_string(), 1.0);
        let regressions = compare(&base, &cur, 0.15);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].contains("speedup_matmul_threads"));

        // Missing compared key: fail.
        cur.remove("speedup_engine_batch32");
        cur.insert("speedup_matmul_threads".to_string(), 2.0);
        let regressions = compare(&base, &cur, 0.15);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].contains("missing"));

        // Improvements never fail.
        cur.insert("speedup_engine_batch32".to_string(), 3.0);
        assert!(compare(&base, &cur, 0.15).is_empty());
    }
}
