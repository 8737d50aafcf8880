//! The darlint ratchet: a committed baseline of per-rule violation
//! counts and per-hatch allow counts that may only move *down*.
//!
//! The workspace is held at zero violations by `--check`, so the live
//! debt currency is the escape hatches: every
//! `// darlint: allow(...) — reason` is justified tech debt, and the
//! ratchet stops it from accumulating silently. CI compares the current
//! run against `darlint.ratchet.json`; any count above the baseline
//! fails the build with a delta print. Paying debt down makes the run
//! *better* than the baseline, which CI reports as available tightening
//! — re-baseline with `--write-ratchet` to bank it.
//!
//! This module is pure (string → struct → string): the CLI owns file
//! I/O. The parser handles exactly the subset of JSON the renderer
//! emits — flat string→integer objects under `violations`/`allows` —
//! and rejects anything else, so a hand-edited baseline cannot be
//! half-read.

use std::collections::BTreeMap;

use crate::report::LintReport;

/// Baseline schema version stamped into the ratchet file.
pub const RATCHET_SCHEMA_VERSION: usize = 1;

/// A ratchet baseline (or the current run, summarized the same way).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Ratchet {
    /// Violation count per rule id.
    pub violations: BTreeMap<String, usize>,
    /// Justified-allow count per hatch name.
    pub allows: BTreeMap<String, usize>,
}

impl Ratchet {
    /// Summarizes a lint run into ratchet counts.
    pub fn from_report(report: &LintReport) -> Self {
        let mut violations: BTreeMap<String, usize> = BTreeMap::new();
        for v in &report.violations {
            *violations.entry(v.rule.to_owned()).or_insert(0) += 1;
        }
        Ratchet {
            violations,
            allows: report.allows.clone(),
        }
    }

    /// Renders the stable JSON form (sorted keys, trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"schema_version\": {RATCHET_SCHEMA_VERSION},\n"
        ));
        render_map(&mut out, "violations", &self.violations);
        out.push_str(",\n");
        render_map(&mut out, "allows", &self.allows);
        out.push_str("\n}\n");
        out
    }

    /// Parses a baseline previously written by [`Ratchet::render`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed construct.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            i: 0,
        };
        let mut ratchet = Ratchet::default();
        p.skip_ws();
        p.require(b'{')?;
        loop {
            p.skip_ws();
            if p.eat(b'}') {
                break;
            }
            let key = p.string()?;
            p.skip_ws();
            p.require(b':')?;
            p.skip_ws();
            match key.as_str() {
                "violations" => ratchet.violations = p.count_map()?,
                "allows" => ratchet.allows = p.count_map()?,
                "schema_version" => {
                    let v = p.number()?;
                    if v != RATCHET_SCHEMA_VERSION {
                        return Err(format!(
                            "unsupported ratchet schema_version {v} (expected \
                             {RATCHET_SCHEMA_VERSION})"
                        ));
                    }
                }
                other => return Err(format!("unexpected ratchet key `{other}`")),
            }
            p.skip_ws();
            if !p.eat(b',') {
                p.skip_ws();
                p.require(b'}')?;
                break;
            }
        }
        Ok(ratchet)
    }
}

/// One side of a baseline comparison: `counts["kind/name"]`.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Delta {
    /// Counts above the baseline — these fail CI.
    pub regressions: Vec<String>,
    /// Counts below the baseline — available tightening.
    pub improvements: Vec<String>,
}

/// Compares the current run against the baseline. Every key present on
/// either side participates; a missing key counts as zero.
pub fn compare(baseline: &Ratchet, current: &Ratchet) -> Delta {
    let mut delta = Delta::default();
    compare_maps(
        "violations",
        &baseline.violations,
        &current.violations,
        &mut delta,
    );
    compare_maps("allows", &baseline.allows, &current.allows, &mut delta);
    delta
}

fn compare_maps(
    kind: &str,
    baseline: &BTreeMap<String, usize>,
    current: &BTreeMap<String, usize>,
    delta: &mut Delta,
) {
    let mut keys: Vec<&String> = baseline.keys().chain(current.keys()).collect();
    keys.sort();
    keys.dedup();
    for key in keys {
        let base = baseline.get(key).copied().unwrap_or(0);
        let cur = current.get(key).copied().unwrap_or(0);
        if cur > base {
            delta.regressions.push(format!(
                "{kind}/{key}: {cur} (baseline {base}, +{})",
                cur - base
            ));
        } else if cur < base {
            delta.improvements.push(format!(
                "{kind}/{key}: {cur} (baseline {base}, -{})",
                base - cur
            ));
        }
    }
}

fn render_map(out: &mut String, name: &str, map: &BTreeMap<String, usize>) {
    out.push_str(&format!("  \"{name}\": {{"));
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    \"{k}\": {v}"));
    }
    if !map.is_empty() {
        out.push_str("\n  ");
    }
    out.push('}');
}

/// Minimal cursor over the renderer's JSON subset.
struct Parser<'a> {
    bytes: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.i)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.bytes.get(self.i) == Some(&b) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn require(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(format!(
                "ratchet parse error at byte {}: expected `{}`",
                self.i, b as char
            ))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.require(b'"')?;
        let start = self.i;
        while let Some(&b) = self.bytes.get(self.i) {
            if b == b'"' {
                let s = String::from_utf8_lossy(&self.bytes[start..self.i]).into_owned();
                self.i += 1;
                return Ok(s);
            }
            if b == b'\\' {
                return Err(format!(
                    "ratchet parse error at byte {}: escapes are not supported in keys",
                    self.i
                ));
            }
            self.i += 1;
        }
        Err("ratchet parse error: unterminated string".to_owned())
    }

    fn number(&mut self) -> Result<usize, String> {
        let start = self.i;
        while self.bytes.get(self.i).is_some_and(u8::is_ascii_digit) {
            self.i += 1;
        }
        if self.i == start {
            return Err(format!(
                "ratchet parse error at byte {}: expected a number",
                start
            ));
        }
        let text = String::from_utf8_lossy(&self.bytes[start..self.i]);
        text.parse::<usize>()
            .map_err(|e| format!("ratchet parse error: bad number `{text}`: {e}"))
    }

    fn count_map(&mut self) -> Result<BTreeMap<String, usize>, String> {
        let mut map = BTreeMap::new();
        self.require(b'{')?;
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(map);
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.require(b':')?;
            self.skip_ws();
            let n = self.number()?;
            map.insert(key, n);
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            self.require(b'}')?;
            return Ok(map);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ratchet {
        let mut r = Ratchet::default();
        r.allows.insert("hot-alloc".into(), 7);
        r.allows.insert("time".into(), 2);
        r.violations.insert("deterministic-time".into(), 0);
        r
    }

    #[test]
    fn render_parse_round_trips() {
        let r = sample();
        let parsed = Ratchet::parse(&r.render()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn empty_round_trips() {
        let r = Ratchet::default();
        assert_eq!(Ratchet::parse(&r.render()).unwrap(), r);
    }

    #[test]
    fn parse_rejects_wrong_schema() {
        let text = "{\n  \"schema_version\": 99,\n  \"violations\": {},\n  \"allows\": {}\n}\n";
        assert!(Ratchet::parse(text).is_err());
    }

    #[test]
    fn parse_rejects_unknown_keys() {
        let text = "{\"surprise\": 1}";
        assert!(Ratchet::parse(text).is_err());
    }

    #[test]
    fn compare_flags_increases_only_as_regressions() {
        let base = sample();
        let mut cur = sample();
        cur.allows.insert("hot-alloc".into(), 9); // worse
        cur.allows.insert("time".into(), 1); // better
        cur.violations.insert("nondet-order".into(), 3); // new debt
        let delta = compare(&base, &cur);
        assert_eq!(
            delta.regressions,
            vec![
                "violations/nondet-order: 3 (baseline 0, +3)",
                "allows/hot-alloc: 9 (baseline 7, +2)",
            ]
        );
        assert_eq!(delta.improvements, vec!["allows/time: 1 (baseline 2, -1)"]);
    }

    #[test]
    fn missing_keys_count_as_zero() {
        let base = Ratchet::default();
        let mut cur = Ratchet::default();
        cur.allows.insert("io".into(), 1);
        let delta = compare(&base, &cur);
        assert_eq!(delta.regressions, vec!["allows/io: 1 (baseline 0, +1)"]);
        // And the reverse is an improvement, not an error.
        let delta = compare(&cur, &base);
        assert_eq!(delta.improvements, vec!["allows/io: 0 (baseline 1, -1)"]);
    }
}
