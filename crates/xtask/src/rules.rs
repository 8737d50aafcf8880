//! The darlint rule set and its application to scanned files.
//!
//! Policy lives here as data; DESIGN.md §11 and §15 are the prose
//! counterpart. darlint keeps only what a compiler cannot do: the
//! transitive replay-purity constraint and its own marker grammar. The
//! name bans (wall clock, detached threads, filesystem, seeded PRNG,
//! hash-ordered containers) are clippy's, in `clippy.toml`, and the
//! zero-alloc contract is a runtime gate, `crates/bench/tests/zero_alloc.rs`.
//! Every rule matches the *token stream* produced by [`crate::scan`], so
//! comments, strings, and char literals can never trigger a diagnostic,
//! and matching is layout-insensitive: a call split across lines or
//! spelled with a turbofish (`.shuffle::<u32>(…)`) matches the same as
//! its compact form.

use crate::lex::Token;
use crate::scan::{parse_marker, scan, Marker, ScannedFile};

/// Rule identifiers (stable: diagnostics print them as `darlint[<id>]`
/// and DESIGN.md §11 is keyed by them).
pub mod rule {
    /// A `// darlint:` comment that is not the one marker, `pure-root`:
    /// a typo, a retired `hot`/`cold` marker or `allow(<rule>)` hatch.
    pub const MARKER: &str = "marker";
    /// A nondeterminism effect (Time/Io/Rng/ThreadSpawn) on a path
    /// reachable from a `// darlint: pure-root` function: WAL replay,
    /// `state_digest`, `canonical_fingerprint*`, and `metrics::compare`
    /// must stay bitwise-reproducible.
    pub const REPLAY_PURE: &str = "replay-pure";
}

/// A token pattern that seeds one effect.
#[derive(Clone, Copy)]
pub(crate) struct Pat {
    pub(crate) kind: PatKind,
    /// Canonical display form for diagnostics (e.g. `.next_u64()`).
    pub(crate) display: &'static str,
}

/// The shapes a forbidden construct can take.
#[derive(Clone, Copy)]
pub(crate) enum PatKind {
    /// `.name(...)` — a method call, turbofish-tolerant
    /// (`.shuffle::<u32>(…)` matches `shuffle`). With `empty_args`, the
    /// argument list must be `()`.
    Method {
        name: &'static str,
        empty_args: bool,
    },
    /// `a::b` — a `::`-joined path suffix (`std::time::Instant::now`
    /// matches `Instant::now`).
    Path(&'static [&'static str]),
}

/// Seeds of the `Time` effect: wall-clock reads.
pub(crate) const TIME_PATS: &[Pat] = &[
    Pat {
        kind: PatKind::Path(&["Instant", "now"]),
        display: "Instant::now",
    },
    Pat {
        kind: PatKind::Path(&["SystemTime", "now"]),
        display: "SystemTime::now",
    },
];

/// Seeds of the `ThreadSpawn` effect: a detached thread.
pub(crate) const THREAD_PATS: &[Pat] = &[Pat {
    kind: PatKind::Path(&["thread", "spawn"]),
    display: "thread::spawn",
}];

/// Seeds of the `Rng` effect: constructing or advancing the seeded
/// PRNG. The method list mirrors `SplitMix64`'s public API in
/// `crates/tensor/src/init.rs` (and the `clippy.toml` ban on it).
pub(crate) const RNG_PATS: &[Pat] = &[
    Pat {
        kind: PatKind::Path(&["SplitMix64", "new"]),
        display: "SplitMix64::new",
    },
    Pat {
        kind: PatKind::Method {
            name: "next_u64",
            empty_args: true,
        },
        display: ".next_u64()",
    },
    Pat {
        kind: PatKind::Method {
            name: "next_f32",
            empty_args: true,
        },
        display: ".next_f32()",
    },
    Pat {
        kind: PatKind::Method {
            name: "next_f64",
            empty_args: true,
        },
        display: ".next_f64()",
    },
    Pat {
        kind: PatKind::Method {
            name: "next_usize",
            empty_args: false,
        },
        display: ".next_usize(",
    },
    Pat {
        kind: PatKind::Method {
            name: "uniform",
            empty_args: false,
        },
        display: ".uniform(",
    },
    Pat {
        kind: PatKind::Method {
            name: "normal",
            empty_args: true,
        },
        display: ".normal()",
    },
    Pat {
        kind: PatKind::Method {
            name: "shuffle",
            empty_args: false,
        },
        display: ".shuffle(",
    },
    Pat {
        kind: PatKind::Method {
            name: "fork",
            empty_args: true,
        },
        display: ".fork()",
    },
];

/// Seeds of the `Io` effect: direct filesystem access.
pub(crate) const IO_PATS: &[Pat] = &[
    Pat {
        kind: PatKind::Path(&["std", "fs"]),
        display: "std::fs",
    },
    Pat {
        kind: PatKind::Path(&["File", "open"]),
        display: "File::open",
    },
    Pat {
        kind: PatKind::Path(&["File", "create"]),
        display: "File::create",
    },
    Pat {
        kind: PatKind::Path(&["OpenOptions", "new"]),
        display: "OpenOptions::new",
    },
];

/// One diagnostic produced by the lint pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule identifier (one of the [`rule`] constants).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

/// Per-file lint outcome.
#[derive(Debug, Default)]
pub struct FileLint {
    /// Diagnostics for this file.
    pub violations: Vec<Violation>,
}

/// Skips a `<...>` group starting at `start` (which must be `<`),
/// tolerant of `->`/`=>` arrows inside; returns the index past `>`.
pub(crate) fn skip_angles(tokens: &[Token], start: usize) -> usize {
    let mut depth = 0usize;
    let mut i = start;
    while i < tokens.len() {
        if tokens[i].is_punct('<') {
            depth += 1;
        } else if tokens[i].is_punct('>')
            && !(i > 0 && (tokens[i - 1].is_punct('-') || tokens[i - 1].is_punct('=')))
        {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    i
}

/// Tries to match `pat` at token index `i`; returns the 1-based line of
/// the match on success.
pub(crate) fn match_pat(tokens: &[Token], i: usize, pat: &Pat) -> Option<usize> {
    match pat.kind {
        PatKind::Method { name, empty_args } => {
            if !tokens[i].is_punct('.') || !tokens.get(i + 1).is_some_and(|t| t.is_ident(name)) {
                return None;
            }
            let mut j = i + 2;
            // Optional turbofish: `.shuffle::<u32>(…)`.
            if tokens.get(j).is_some_and(|t| t.is_punct(':'))
                && tokens.get(j + 1).is_some_and(|t| t.is_punct(':'))
                && tokens.get(j + 2).is_some_and(|t| t.is_punct('<'))
            {
                j = skip_angles(tokens, j + 2);
            }
            if !tokens.get(j).is_some_and(|t| t.is_punct('(')) {
                return None;
            }
            if empty_args && !tokens.get(j + 1).is_some_and(|t| t.is_punct(')')) {
                return None;
            }
            Some(tokens[i].line)
        }
        PatKind::Path(segs) => {
            if !tokens[i].is_ident(segs[0]) {
                return None;
            }
            let mut j = i + 1;
            for seg in &segs[1..] {
                if !(tokens.get(j).is_some_and(|t| t.is_punct(':'))
                    && tokens.get(j + 1).is_some_and(|t| t.is_punct(':'))
                    && tokens.get(j + 2).is_some_and(|t| t.is_ident(seg)))
                {
                    return None;
                }
                j += 3;
            }
            Some(tokens[i].line)
        }
    }
}

/// Lints one file as a workspace of its own: the marker rule plus the
/// reachability pass over the file's own call graph. `path` must be
/// workspace-relative with `/` separators (it decides which files own
/// durable I/O).
pub fn lint_file(path: &str, source: &str) -> FileLint {
    let files = [(path.to_owned(), scan(source))];
    let mut out = lint_markers(path, &files[0].1);
    crate::callgraph::analyze(&files, |_| {}, &mut out);
    out
}

/// The `marker` rule over an already-scanned file. There is no escape
/// hatch: `pure-root` is the one marker, so any other comment addressed
/// to darlint is a finding, wherever it sits.
pub fn lint_markers(path: &str, scanned: &ScannedFile) -> FileLint {
    let violations = scanned
        .comments
        .iter()
        .filter(|c| parse_marker(c) == Some(Marker::Malformed))
        .map(|c| Violation {
            rule: rule::MARKER,
            file: path.to_owned(),
            line: c.line,
            message: "not a darlint marker, so it marks nothing; darlint reads \
                      one marker, `// darlint: pure-root`, on its own line above a fn"
                .to_owned(),
            snippet: snippet(&scanned.lines, c.line),
        })
        .collect();
    FileLint { violations }
}
/// Is 1-based `line` inside a test-gated region?
pub(crate) fn is_test(scanned: &ScannedFile, line: usize) -> bool {
    scanned.is_test_line.get(line - 1).copied().unwrap_or(false)
}

/// The offending line, trimmed, for diagnostics.
pub(crate) fn snippet(lines: &[String], line: usize) -> String {
    lines
        .get(line - 1)
        .map(|l| l.trim().to_owned())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Marks `src`'s one fn a replay-purity root and returns the lines
    /// of its `replay-pure` findings.
    fn pure_leaks(src: &str) -> Vec<usize> {
        let lint = lint_file(
            "crates/nn/src/a.rs",
            &format!("// darlint: pure-root\n{src}"),
        );
        assert!(lint.violations.iter().all(|v| v.rule == rule::REPLAY_PURE));
        lint.violations.iter().map(|v| v.line).collect()
    }

    #[test]
    fn method_patterns_match_whole_identifiers_and_arity() {
        // `.next_u64_below(n)` is not `.next_u64()`, and a `.normal()`
        // that takes arguments is some other method.
        let src = "fn f(r: &mut R) -> u64 { r.next_u64_below(3) + r.normal(1.0) }\n";
        assert!(pure_leaks(src).is_empty());
    }

    #[test]
    fn multiline_method_chain_still_fires() {
        let src = "fn f(r: &mut SplitMix64) -> u64 {\n    r\n        .next_u64()\n}\n";
        assert_eq!(pure_leaks(src), vec![4]);
    }

    #[test]
    fn bare_cold_marker_rejected() {
        let src = "// darlint: cold\nfn helper() {}\n";
        let lint = lint_file("crates/tensor/src/a.rs", src);
        assert_eq!(lint.violations.len(), 1);
        assert_eq!(lint.violations[0].rule, rule::MARKER);
    }

    #[test]
    fn turbofish_method_call_still_fires() {
        // The v1 substring matcher missed a turbofish call.
        let src = "fn f(r: &mut SplitMix64, v: &mut [u32]) {\n    r.shuffle::<u32>(v);\n}\n";
        assert_eq!(pure_leaks(src), vec![3]);
    }

    #[test]
    fn marker_skips_fn_in_identifier_names() {
        // `fn` appearing inside an identifier between the marker and the
        // real function must not derail extent detection.
        let src = "\
pub fn pure_fn_like(defn_count: usize) -> usize {
    let _t = std::time::Instant::now();
    defn_count
}
";
        assert_eq!(pure_leaks(src), vec![3]);
    }
}
