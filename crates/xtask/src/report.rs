//! Rendering of lint results: human-readable diagnostics and the JSON
//! report consumed by CI.
//!
//! The JSON report is deterministic and diffable: violations are sorted
//! by `(file, line, rule)` before rendering, map keys are emitted in
//! sorted order, and `schema_version` gates consumers. Version 2 added
//! the per-hatch `allows` object (the ratchet's debt currency).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::rules::Violation;

/// JSON report schema version.
pub const SCHEMA_VERSION: usize = 2;

/// Aggregated outcome of a full workspace lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Every diagnostic, in (file, line, rule) order.
    pub violations: Vec<Violation>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Matches suppressed by justified escape hatches.
    pub allowed: usize,
    /// Suppressions by hatch name (`time`, `hot-alloc`, `order`, ...).
    pub allows: BTreeMap<String, usize>,
    /// Per-pass wall-clock timings in microseconds, in execution order.
    /// Rendered to stderr (human output) only — never into the JSON
    /// report, which must stay byte-identical across runs.
    pub timings: Vec<(&'static str, u128)>,
}

impl LintReport {
    /// Whether the run is clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable diagnostics, one block per violation plus a summary
    /// line.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            let _ = writeln!(
                out,
                "darlint[{}] {}:{}: {}",
                v.rule, v.file, v.line, v.message
            );
            if !v.snippet.is_empty() {
                let _ = writeln!(out, "    {}", v.snippet);
            }
        }
        let _ = writeln!(
            out,
            "darlint: {} violation(s), {} justified allow(s), {} file(s) scanned",
            self.violations.len(),
            self.allowed,
            self.files_scanned
        );
        if !self.timings.is_empty() {
            let total: u128 = self.timings.iter().map(|(_, us)| us).sum();
            let parts: Vec<String> = self
                .timings
                .iter()
                .map(|(name, us)| format!("{name} {:.1}ms", *us as f64 / 1000.0))
                .collect();
            let _ = writeln!(
                out,
                "darlint: pass timings: {} (total {:.1}ms)",
                parts.join(", "),
                total as f64 / 1000.0
            );
        }
        out
    }

    /// The JSON report (stable schema, sorted keys — byte-identical for
    /// identical runs).
    pub fn render_json(&self) -> String {
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        for v in &self.violations {
            *counts.entry(v.rule).or_insert(0) += 1;
        }
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"tool\": \"darlint\",");
        let _ = writeln!(out, "  \"schema_version\": {SCHEMA_VERSION},");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(out, "  \"allowed\": {},", self.allowed);
        out.push_str("  \"allows\": {");
        for (i, (hatch, n)) in self.allows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    {}: {n}", json_str(hatch));
        }
        if !self.allows.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n");
        out.push_str("  \"counts\": {");
        for (i, (rule, n)) in counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{rule}\": {n}");
        }
        if !counts.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n");
        out.push_str("  \"violations\": [");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}, \"snippet\": {}}}",
                json_str(v.rule),
                json_str(&v.file),
                v.line,
                json_str(&v.message),
                json_str(&v.snippet)
            );
        }
        if !self.violations.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Escapes a string as a JSON literal.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::rule;

    fn sample() -> LintReport {
        let mut allows = BTreeMap::new();
        allows.insert("time".to_owned(), 2);
        LintReport {
            violations: vec![Violation {
                rule: rule::TIME,
                file: "crates/nn/src/a.rs".into(),
                line: 3,
                message: "`Instant::now` — no".into(),
                snippet: "Instant::now()".into(),
            }],
            files_scanned: 7,
            allowed: 2,
            allows,
            timings: Vec::new(),
        }
    }

    #[test]
    fn human_mentions_rule_file_line() {
        let h = sample().render_human();
        assert!(h.contains("darlint[deterministic-time] crates/nn/src/a.rs:3"));
        assert!(h.contains("1 violation(s), 2 justified allow(s), 7 file(s) scanned"));
    }

    #[test]
    fn json_is_well_formed_enough() {
        let j = sample().render_json();
        assert!(j.contains("\"schema_version\": 2"));
        assert!(j.contains("\"deterministic-time\": 1"));
        assert!(j.contains("\"files_scanned\": 7"));
        assert!(j.contains("\"time\": 2"));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn json_is_deterministic() {
        assert_eq!(sample().render_json(), sample().render_json());
    }

    #[test]
    fn json_escapes_specials() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
