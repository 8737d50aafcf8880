//! The outcome of a lint run and its rendering: one diagnostic block per
//! violation, a summary line, and the per-pass timings.

use std::fmt::Write as _;

use crate::rules::Violation;

/// Aggregated outcome of a full workspace lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Every diagnostic, in (file, line, rule) order.
    pub violations: Vec<Violation>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Per-pass wall-clock timings in microseconds, in execution order.
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
            "darlint: {} violation(s), {} file(s) scanned",
            self.violations.len(),
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::rule;

    #[test]
    fn human_mentions_rule_file_line() {
        let report = LintReport {
            violations: vec![Violation {
                rule: rule::HOT_ALLOC,
                file: "crates/nn/src/a.rs".into(),
                line: 3,
                message: "`vec!` allocates on the hot path".into(),
                snippet: "let v = vec![0u8; 4];".into(),
            }],
            files_scanned: 7,
            timings: Vec::new(),
        };
        let h = report.render_human();
        assert!(h.contains("darlint[hot-alloc] crates/nn/src/a.rs:3"));
        assert!(h.contains("1 violation(s), 7 file(s) scanned"));
    }
}
