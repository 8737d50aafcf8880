//! File scanner underpinning every darlint rule: lexes the source into
//! tokens ([`crate::lex`]), parses the item structure ([`crate::parse`]),
//! and resolves the `// darlint: pure-root` function marker so the rules
//! (and the call-graph pass) operate on a uniform per-file view.
//!
//! Because rules match *tokens* — never raw text — comments, string
//! literals (plain, raw, byte), and char literals can never trigger a
//! diagnostic, and matching is whitespace/newline-insensitive: a call
//! chain split across lines, or a turbofish like `.shuffle::<u32>(…)`,
//! matches the same as its compact spelling.

use crate::lex::{lex, LineComment, Token};
use crate::parse::{parse, test_line_flags, FnItem};

/// One function with its darlint marker resolved.
#[derive(Debug)]
pub struct FnInfo {
    /// The parsed item.
    pub item: FnItem,
    /// Annotated with an own-line `// darlint: pure-root` marker: the
    /// author declares this function a replay-purity contract root —
    /// everything transitively reachable from it must be free of the
    /// nondeterminism effects (`replay-pure` rule).
    pub pure_root: bool,
}

/// The result of scanning one source file.
#[derive(Debug)]
pub struct ScannedFile {
    /// Code tokens (comments and literal *contents* excluded).
    pub tokens: Vec<Token>,
    /// Original source lines (for diagnostics snippets).
    pub lines: Vec<String>,
    /// All `//` comments, in file order.
    pub comments: Vec<LineComment>,
    /// `is_test_line[i]` is true when 1-based line `i + 1` sits inside a
    /// `#[cfg(test)]`-gated item (or a `#[test]` function).
    pub is_test_line: Vec<bool>,
    /// Every `fn` item with its marker attached.
    pub fns: Vec<FnInfo>,
}

/// Scans `source`: lex, parse, resolve markers and test regions.
pub fn scan(source: &str) -> ScannedFile {
    let lexed = lex(source);
    let parsed = parse(&lexed);
    let lines: Vec<String> = source.lines().map(str::to_owned).collect();
    let is_test_line = test_line_flags(&parsed, lines.len());

    let mut fns: Vec<FnInfo> = parsed
        .fns
        .into_iter()
        .map(|item| FnInfo {
            item,
            pure_root: false,
        })
        .collect();
    // A marker annotates the nearest `fn` item declared after it
    // (attributes and other modifiers may sit in between).
    for c in lexed.comments.iter().filter(|c| c.own_line) {
        if parse_marker(c) != Some(Marker::PureRoot) {
            continue;
        }
        if let Some(f) = fns
            .iter_mut()
            .filter(|f| f.item.line > c.line)
            .min_by_key(|f| f.item.line)
        {
            f.pure_root = true;
        }
    }

    ScannedFile {
        tokens: lexed.tokens,
        lines,
        comments: lexed.comments,
        is_test_line,
        fns,
    }
}

/// What a `// darlint: …` comment says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Marker {
    /// `pure-root`: a replay-purity contract root. It declares a contract,
    /// not an exception, so it carries no reason.
    PureRoot,
    /// Addressed to darlint but not `pure-root` — a typo, a retired
    /// `hot`/`cold` marker or `allow(<rule>)` hatch. It marks nothing, and
    /// the `marker` rule reports it so it cannot look as if it did.
    Malformed,
}

/// Reads a comment as a darlint marker; `None` when it is not addressed
/// to darlint at all.
pub(crate) fn parse_marker(c: &LineComment) -> Option<Marker> {
    let body = c.text.trim_start_matches('/').trim();
    let rest = body.strip_prefix("darlint:")?.trim();
    Some(if rest == "pure-root" {
        Marker::PureRoot
    } else {
        Marker::Malformed
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_produce_no_tokens() {
        let s =
            scan("let x = 1; // trailing .unwrap()\n/* block\npanic! */ let y = \".unwrap()\";\n");
        assert!(!s.tokens.iter().any(|t| t.text == "unwrap"));
        assert!(!s.tokens.iter().any(|t| t.text == "panic"));
        assert_eq!(s.comments.len(), 1);
        assert!(!s.comments[0].own_line);
    }

    #[test]
    fn marker_attaches_to_next_fn_only() {
        let src = "\
fn before() {}

// darlint: pure-root
pub fn digest(&self) {}

fn after() {}
";
        let s = scan(src);
        let flags: Vec<(String, bool)> = s
            .fns
            .iter()
            .map(|f| (f.item.name.clone(), f.pure_root))
            .collect();
        assert_eq!(
            flags,
            vec![
                ("before".into(), false),
                ("digest".into(), true),
                ("after".into(), false),
            ]
        );
    }

    #[test]
    fn marker_skips_attributes_between_marker_and_fn() {
        let src = "// darlint: pure-root\n#[inline]\nfn digest() {}\n";
        let s = scan(src);
        assert!(s.fns[0].pure_root);
    }

    #[test]
    fn markers_parse_and_everything_else_addressed_to_darlint_is_malformed() {
        let marker = |text: &str| {
            parse_marker(&LineComment {
                line: 1,
                text: text.into(),
                own_line: true,
            })
        };
        assert_eq!(marker("// darlint: pure-root"), Some(Marker::PureRoot));
        for not_a_marker in [
            "// darlint: hot",
            "// darlint: cold — startup only",
            "// darlint: cold - startup only",
            "// darlint: cold",
            "// darlint: pure-root — with a reason",
            "// darlint: allow(time) — startup banner stamp",
        ] {
            assert_eq!(
                marker(not_a_marker),
                Some(Marker::Malformed),
                "{not_a_marker}"
            );
        }
        assert_eq!(marker("// the darlint: pure-root marker, in prose"), None);
    }

    #[test]
    fn trailing_marker_is_not_attached() {
        // Markers must be own-line; a trailing `// darlint: pure-root` is
        // inert.
        let src = "fn a() {} // darlint: pure-root\nfn b() {}\n";
        let s = scan(src);
        assert!(s.fns.iter().all(|f| !f.pure_root));
    }

    #[test]
    fn cfg_test_regions_resolved() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let s = scan(src);
        assert_eq!(s.is_test_line, vec![false, true, true, true, true, false]);
    }
}
