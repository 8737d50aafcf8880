//! The darlint rule set and its application to scanned files.
//!
//! Policy lives here as data; DESIGN.md §11 and §15 are the prose
//! counterpart. darlint keeps only what a compiler cannot do: the
//! transitive hot-path and replay-purity constraints and its own marker
//! grammar. The name bans (wall clock, detached threads, filesystem,
//! seeded PRNG, hash-ordered containers) are clippy's, in `clippy.toml`.
//! Every rule matches the *token stream* produced by [`crate::scan`], so
//! comments, strings, and char literals can never trigger a diagnostic,
//! and matching is layout-insensitive: a call split across lines or
//! spelled with a turbofish (`.collect::<Vec<_>>()`) matches the same as
//! its compact form.

use crate::lex::Token;
use crate::scan::{parse_marker, scan, Marker, ScannedFile};

/// Rule identifiers (stable: diagnostics print them as `darlint[<id>]`
/// and DESIGN.md §11 is keyed by them).
pub mod rule {
    /// A `// darlint:` comment that is none of the three markers (`hot`,
    /// `cold — <reason>`, `pure-root`): a `cold` without its reason, a
    /// typo, a retired `allow(<rule>)` hatch.
    pub const MARKER: &str = "marker";
    /// Allocating constructs inside a function annotated `// darlint: hot`
    /// (the zero-alloc inference path).
    pub const HOT_ALLOC: &str = "hot-alloc";
    /// Allocation in a function *transitively reachable* from a hot root
    /// via the call graph.
    pub const HOT_PROPAGATE: &str = "hot-propagate";
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
    /// Canonical display form for diagnostics (e.g. `.collect()`).
    pub(crate) display: &'static str,
}

/// The shapes a forbidden construct can take.
#[derive(Clone, Copy)]
pub(crate) enum PatKind {
    /// `.name(...)` — a method call, turbofish-tolerant
    /// (`.collect::<Vec<_>>()` matches `collect`). With `empty_args`,
    /// the argument list must be `()`.
    Method {
        name: &'static str,
        empty_args: bool,
    },
    /// `a::b` — a `::`-joined path suffix (`std::time::Instant::now`
    /// matches `Instant::now`).
    Path(&'static [&'static str]),
    /// `name!` — a macro invocation.
    MacroCall(&'static str),
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

/// Constructs forbidden by [`rule::HOT_ALLOC`] (and flagged by
/// [`rule::HOT_PROPAGATE`]) on the hot path. Each one
/// heap-allocates on the success path of the steady state; hot code
/// must go through workspace checkouts and the `_into` kernels instead.
/// (Error-path `format!`/`.into()` construction is deliberately not
/// banned — errors are the cold path by definition.)
pub(crate) const ALLOC_PATS: &[Pat] = &[
    Pat {
        kind: PatKind::Path(&["Tensor", "zeros"]),
        display: "Tensor::zeros",
    },
    Pat {
        kind: PatKind::MacroCall("vec"),
        display: "vec!",
    },
    Pat {
        kind: PatKind::Method {
            name: "collect",
            empty_args: true,
        },
        display: ".collect()",
    },
    Pat {
        kind: PatKind::Method {
            name: "to_vec",
            empty_args: true,
        },
        display: ".to_vec()",
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
            // Optional turbofish: `.collect::<Vec<_>>()`.
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
        PatKind::MacroCall(name) => (tokens[i].is_ident(name)
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('!')))
        .then_some(tokens[i].line),
    }
}

/// Lints one file as a workspace of its own: the marker rule plus the
/// reachability pass over the file's own call graph. `path` must be
/// workspace-relative with `/` separators (it decides which `*_into`
/// functions are implicit hot roots and which files own durable I/O).
pub fn lint_file(path: &str, source: &str) -> FileLint {
    let files = [(path.to_owned(), scan(source))];
    let mut out = lint_markers(path, &files[0].1);
    crate::callgraph::analyze(&files, |_| {}, &mut out);
    out
}

/// The `marker` rule over an already-scanned file. There is no per-line
/// escape hatch: an exception is a `cold — <reason>` marker, so any other
/// comment addressed to darlint is a finding, wherever it sits.
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
                      `// darlint: hot`, `// darlint: cold — <reason>` and \
                      `// darlint: pure-root`, each on its own line above a fn"
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
    fn hot_alloc_fires_only_inside_hot_functions() {
        let src = "\
fn cold() -> Vec<u32> { (0..4).collect() }

// darlint: hot
fn hot(t: &Tensor, ws: &mut Workspace) -> Vec<f32> {
    let x = Tensor::zeros(&[2, 2]);
    let v = vec![0.0f32; 4];
    let c: Vec<f32> = v.iter().copied().collect();
    t.data().to_vec()
}

fn also_cold() -> Vec<u32> { vec![1, 2] }
";
        let lint = lint_file("crates/tensor/src/a.rs", src);
        let lines: Vec<usize> = lint
            .violations
            .iter()
            .filter(|v| v.rule == rule::HOT_ALLOC)
            .map(|v| v.line)
            .collect();
        assert_eq!(lines, vec![5, 6, 7, 8], "zeros, vec!, collect, to_vec");
    }

    #[test]
    fn turbofish_collect_is_caught_in_hot_fn() {
        // The v1 substring matcher missed `.collect::<Vec<_>>()`.
        let src = "// darlint: hot\nfn hot(v: &[f32]) -> Vec<f32> {\n    v.iter().copied().collect::<Vec<_>>()\n}\n";
        let lint = lint_file("crates/tensor/src/a.rs", src);
        let rules: Vec<_> = lint.violations.iter().map(|v| v.rule).collect();
        assert!(rules.contains(&rule::HOT_ALLOC), "{:?}", lint.violations);
    }

    #[test]
    fn hot_marker_skips_fn_in_identifier_names() {
        // `fn` appearing inside an identifier between the marker and the
        // real function must not derail extent detection.
        let src = "\
// darlint: hot
pub fn hot_fn_like(defn_count: usize) -> usize {
    let v = vec![0u8; defn_count];
    v.len()
}
";
        let lint = lint_file("crates/tensor/src/a.rs", src);
        assert_eq!(lint.violations.len(), 1);
        assert_eq!(lint.violations[0].line, 3);
    }
}
