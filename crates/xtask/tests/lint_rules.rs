//! Integration tests for darlint: each fixture under `tests/fixtures/`
//! exercises one rule, and the assertions pin the exact (rule, line)
//! pairs so a scanner regression cannot silently widen or narrow a rule.
#![expect(
    clippy::disallowed_methods,
    reason = "tests read their fixtures from disk"
)]

use xtask::rules::{lint_file, rule, FileLint, Violation};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path);
    assert!(text.is_ok(), "cannot read {path}: {text:?}");
    text.unwrap_or_default()
}

fn workspace(files: &[(&str, &str)]) -> Vec<(String, String)> {
    files
        .iter()
        .map(|(p, s)| ((*p).to_owned(), (*s).to_owned()))
        .collect()
}

/// (rule, line) pairs, sorted, for compact comparisons.
fn fired(lint: &FileLint) -> Vec<(&'static str, usize)> {
    let mut v: Vec<_> = lint.violations.iter().map(|x| (x.rule, x.line)).collect();
    v.sort_unstable();
    v
}

#[test]
fn comments_strings_docs_and_test_code_never_fire() {
    let lint = lint_file("crates/tensor/src/fixture.rs", &fixture("decoys_clean.rs"));
    assert!(lint.violations.is_empty(), "{:?}", lint.violations);
}

#[test]
fn retired_allow_hatch_suppresses_nothing_and_is_itself_a_finding() {
    // There is no per-line suppression: a comment in the retired hatch
    // grammar, reason and all, must not look as if it still worked.
    let src = "// darlint: hot\nfn f() {\n    // darlint: allow(hot-alloc) — warm-up only, never in steady state\n    let _ = vec![0u8; 4];\n}\n";
    let lint = lint_file("crates/nn/src/fixture.rs", src);
    assert_eq!(fired(&lint), vec![(rule::HOT_ALLOC, 4), (rule::MARKER, 3)]);
}

#[test]
fn hot_alloc_fixture_fires_inside_hot_fn_and_spares_cold_fn() {
    let lint = lint_file(
        "crates/tensor/src/fixture.rs",
        &fixture("hot_alloc_violations.rs"),
    );
    assert_eq!(
        fired(&lint),
        vec![
            (rule::HOT_ALLOC, 5), // Tensor::zeros
            (rule::HOT_ALLOC, 6), // vec!
            (rule::HOT_ALLOC, 7), // .collect()
            (rule::HOT_ALLOC, 8), // .to_vec()
        ]
    );
}

#[test]
fn propagation_flags_two_hop_cross_file_alloc() {
    // The ISSUE's acceptance fixture: a hot root in one file, an unmarked
    // allocating helper two hops away in another. The call-graph pass
    // must flag the allocation site and name the whole chain.
    let files = vec![
        (
            "crates/tensor/src/prop_root.rs".to_owned(),
            fixture("propagate_root.rs"),
        ),
        (
            "crates/tensor/src/prop_helpers.rs".to_owned(),
            fixture("propagate_helpers.rs"),
        ),
    ];
    let report = xtask::lint_workspace(&files);
    let hits: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == rule::HOT_PROPAGATE)
        .collect();
    assert_eq!(hits.len(), 1, "{:?}", report.violations);
    assert_eq!(hits[0].file, "crates/tensor/src/prop_helpers.rs");
    assert_eq!(hits[0].line, 10); // the vec! in alloc_helper
    assert!(
        hits[0]
            .message
            .contains("transform_into → mid_helper → alloc_helper"),
        "diagnostic must name the full chain: {}",
        hits[0].message
    );
}

#[test]
fn propagation_stops_at_a_cold_marker() {
    // Same pair of files, but the first hop carries a justified cold
    // marker: traversal prunes there and the allocation is not reached.
    let helpers = fixture("propagate_helpers.rs").replace(
        "pub fn mid_helper",
        "// darlint: cold — fixture: pruned from traversal\npub fn mid_helper",
    );
    let files = vec![
        (
            "crates/tensor/src/prop_root.rs".to_owned(),
            fixture("propagate_root.rs"),
        ),
        ("crates/tensor/src/prop_helpers.rs".to_owned(), helpers),
    ];
    let report = xtask::lint_workspace(&files);
    assert!(
        report
            .violations
            .iter()
            .all(|v| v.rule != rule::HOT_PROPAGATE),
        "{:?}",
        report.violations
    );
}

/// The `replay-pure` findings of a workspace lint.
fn replay_leaks(files: &[(String, String)]) -> Vec<Violation> {
    let mut leaks = xtask::lint_workspace(files).violations;
    leaks.retain(|v| v.rule == rule::REPLAY_PURE);
    leaks
}

#[test]
fn time_leak_into_pure_root_fails_the_lint() {
    let files = workspace(&[(
        "crates/collect/src/digest.rs",
        &fixture("pure_root_time_leak.rs"),
    )]);
    let leaks = replay_leaks(&files);
    assert_eq!(leaks.len(), 1, "{leaks:?}");
    let v = &leaks[0];
    assert_eq!(v.line, 21, "the Instant::now seed line");
    assert!(
        v.message.contains("via digest → fold → stamp_cache"),
        "full root-to-site chain: {}",
        v.message
    );
    assert!(v.message.contains("time effect"), "{}", v.message);
}

#[test]
fn fixing_the_leak_makes_the_fixture_clean() {
    // The same fixture with the wall-clock read removed passes, so the
    // failure above is attributable to the leak alone.
    let fixed = fixture("pure_root_time_leak.rs").replace("let _ = std::time::Instant::now();", "");
    let files = workspace(&[("crates/collect/src/digest.rs", &fixed)]);
    assert!(replay_leaks(&files).is_empty());
}

#[test]
fn cold_marker_does_not_prune_the_replay_pure_walk() {
    // `cold` is a claim about the hot path only. With one engine behind
    // both constraints, letting it prune the purity walk too would be
    // the easy mistake — and would hide this leak.
    let src = fixture("pure_root_time_leak.rs").replace(
        "fn fold(",
        "// darlint: cold — fixture: off the hot path, still on the replay path\nfn fold(",
    );
    let files = workspace(&[("crates/collect/src/digest.rs", &src)]);
    let leaks = replay_leaks(&files);
    assert_eq!(leaks.len(), 1, "{leaks:?}");
    assert!(
        leaks[0].message.contains("via digest → fold → stamp_cache"),
        "{}",
        leaks[0].message
    );
}

#[test]
fn hot_root_and_its_helper_yield_one_finding_per_site() {
    // The marked function's own allocation is `hot-alloc`, the unmarked
    // helper's is `hot-propagate`, and neither site is reported twice.
    let src = "\
// darlint: hot
pub fn step_into(out: &mut [f32]) {
    let scratch = vec![0.0f32; out.len()];
    helper(out, &scratch);
}

fn helper(out: &mut [f32], scratch: &[f32]) {
    let copy = scratch.to_vec();
    out.copy_from_slice(&copy);
}
";
    let lint = lint_file("crates/nn/src/fixture.rs", src);
    assert_eq!(
        fired(&lint),
        vec![(rule::HOT_ALLOC, 3), (rule::HOT_PROPAGATE, 8)]
    );
}

#[test]
fn pure_root_inside_a_recursive_cycle_terminates_and_reports_once() {
    // `even` ⇄ `odd` is a mutual cycle with the Io seed in `odd`; rooting
    // the contract at `even` must visit each function once.
    let src = fixture("effects_recursion.rs")
        .replace("pub fn even(", "// darlint: pure-root\npub fn even(");
    let files = workspace(&[("crates/core/src/rec.rs", &src)]);
    let leaks = replay_leaks(&files);
    assert_eq!(leaks.len(), 1, "{leaks:?}");
    assert_eq!(leaks[0].line, 23, "the std::fs seed in `odd`");
    assert!(
        leaks[0].message.contains("via even → odd;"),
        "{}",
        leaks[0].message
    );
}

#[test]
fn lexer_edge_cases_never_fire() {
    // Nested block comments, raw strings, char literals, multi-line
    // items, and a cfg(test) module delivered through a macro: none of
    // the pattern-looking text inside them is real code.
    let src = fixture("lex_edge_cases.rs");
    for path in [
        "crates/tensor/src/fixture.rs",
        "crates/nn/src/fixture.rs",
        "crates/collect/src/fixture.rs",
    ] {
        let lint = lint_file(path, &src);
        assert!(lint.violations.is_empty(), "{path}: {:?}", lint.violations);
    }
}

#[test]
fn clean_file_is_clean_everywhere() {
    let src = fixture("clean.rs");
    for path in [
        "crates/tensor/src/fixture.rs",
        "crates/nn/src/fixture.rs",
        "crates/core/src/fixture.rs",
        "crates/collect/src/fixture.rs",
    ] {
        let lint = lint_file(path, &src);
        assert!(lint.violations.is_empty(), "{path}: {:?}", lint.violations);
    }
}

#[test]
fn violations_carry_snippets_and_stable_fields() {
    let lint = lint_file(
        "crates/nn/src/fixture.rs",
        &fixture("hot_alloc_violations.rs"),
    );
    let v: &Violation = &lint.violations[0];
    assert_eq!(v.file, "crates/nn/src/fixture.rs");
    assert!(v.snippet.contains("Tensor::zeros(&[4])"));
    assert!(v.message.contains("Tensor::zeros"));
}

#[test]
fn whole_workspace_lint_is_clean() {
    // The acceptance bar for this PR: the real tree has zero violations.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(std::path::Path::to_path_buf)
        .unwrap_or_else(|| panic!("workspace root not found"));
    let report = xtask::run_lint(&root).unwrap_or_else(|e| panic!("lint failed to run: {e}"));
    assert!(
        report.is_clean(),
        "workspace has darlint violations:\n{}",
        report.render_human()
    );
    assert!(report.files_scanned > 50, "suspiciously few files scanned");
}
