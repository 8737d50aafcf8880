//! Integration tests for darlint: each fixture under `tests/fixtures/`
//! exercises one rule, and the assertions pin the exact (rule, line)
//! pairs so a scanner regression cannot silently widen or narrow a rule.

use xtask::rules::{check_crate_root, lint_file, rule, FileLint, Violation};

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
fn time_rule_fires_outside_allowlist_only() {
    let src = fixture("time_violation.rs");
    let lint = lint_file("crates/core/src/fixture.rs", &src);
    assert_eq!(fired(&lint), vec![(rule::TIME, 6), (rule::TIME, 10)]);
    // The same source inside the allowlist is clean.
    for allowed in [
        "crates/bench/src/bin/bench_parallel.rs",
        "crates/bench/src/bin/bench_fleet.rs",
    ] {
        let lint = lint_file(allowed, &src);
        assert!(
            lint.violations.iter().all(|v| v.rule != rule::TIME),
            "{allowed} must be allowlisted: {:?}",
            lint.violations
        );
    }
}

#[test]
fn all_of_collect_is_held_to_deterministic_time() {
    // No file of collect may read a clock: the fleet load generator is
    // event-driven virtual time (the bench crate wall-clocks a whole run
    // from outside), and the session loop and live mode take time as
    // injected data.
    let src = fixture("time_violation.rs");
    for held in [
        "crates/collect/src/loadgen.rs",
        "crates/collect/src/shard.rs",
        "crates/collect/src/controller.rs",
        "crates/collect/src/runtime.rs",
        "crates/collect/src/live.rs",
    ] {
        let lint = lint_file(held, &src);
        assert_eq!(
            fired(&lint),
            vec![(rule::TIME, 6), (rule::TIME, 10)],
            "{held}"
        );
    }
}

#[test]
fn durable_io_fires_per_token_outside_allowlist() {
    let src = fixture("durable_io_violation.rs");
    let lint = lint_file("crates/collect/src/fixture.rs", &src);
    assert_eq!(
        fired(&lint),
        vec![
            (rule::DURABLE_IO, 6),  // std::fs
            (rule::DURABLE_IO, 10), // File::open
            (rule::DURABLE_IO, 14), // File::create
            (rule::DURABLE_IO, 18), // OpenOptions::new
        ]
    );
    // The sanctioned durable-I/O owners may touch the filesystem freely.
    for allowed in [
        "crates/collect/src/wal.rs",
        "crates/core/src/model_io.rs",
        "crates/core/src/experiment.rs",
        "crates/bench/src/bin/bench_chaos.rs",
        "crates/xtask/src/lib.rs",
    ] {
        let lint = lint_file(allowed, &src);
        assert!(
            lint.violations.iter().all(|v| v.rule != rule::DURABLE_IO),
            "{allowed} must be allowlisted: {:?}",
            lint.violations
        );
    }
}

#[test]
fn wal_module_is_held_to_the_deterministic_time_rule() {
    // The WAL is a durable-I/O owner but *not* a time owner: replay must
    // be deterministic, so wall-clock reads there are violations.
    let src = fixture("time_violation.rs");
    let lint = lint_file("crates/collect/src/wal.rs", &src);
    assert_eq!(fired(&lint), vec![(rule::TIME, 6), (rule::TIME, 10)]);
}

#[test]
fn thread_rule_fires_on_detached_spawn_not_scoped() {
    let src = fixture("thread_violation.rs");
    // No file is a thread owner: every concurrent path (the kernels'
    // `Parallelism`, the micro-batcher, the sharded controller's parallel
    // drain) uses `std::thread::scope`, so a detached spawn fires there
    // as it does anywhere else.
    for held in [
        "crates/collect/src/fixture.rs",
        "crates/tensor/src/parallel.rs",
        "crates/core/src/batching.rs",
        "crates/collect/src/shard.rs",
        "crates/collect/src/loadgen.rs",
    ] {
        let lint = lint_file(held, &src);
        assert_eq!(fired(&lint), vec![(rule::THREAD, 4)], "{held}");
    }
}

#[test]
fn retired_allow_hatch_suppresses_nothing_and_is_itself_a_finding() {
    // There is no per-line suppression: a comment in the retired hatch
    // grammar, reason and all, must not look as if it still worked.
    let src = "fn f() {\n    // darlint: allow(time) — startup banner stamp, never enters a digest\n    let _ = std::time::Instant::now();\n}\n";
    let lint = lint_file("crates/nn/src/fixture.rs", src);
    assert_eq!(fired(&lint), vec![(rule::TIME, 3), (rule::MARKER, 2)]);
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
fn nondet_order_fires_on_order_paths_only() {
    let src = fixture("nondet_order_violation.rs");
    let lint = lint_file("crates/collect/src/wire.rs", &src);
    assert_eq!(
        fired(&lint),
        vec![
            (rule::ORDER, 2),  // use ... HashMap
            (rule::ORDER, 5),  // HashMap in the signature
            (rule::ORDER, 7),  // counts.iter()
            (rule::ORDER, 15), // HashSet initializer
        ]
    );
    // The same source off the order-sensitive paths is clean.
    let lint = lint_file("crates/nn/src/fixture.rs", &src);
    assert!(
        lint.violations.iter().all(|v| v.rule != rule::ORDER),
        "{:?}",
        lint.violations
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
fn hygiene_good_root_is_clean_bad_root_lists_each_missing_attr() {
    let good = check_crate_root("crates/nn/src/lib.rs", &fixture("hygiene_good.rs"));
    assert!(good.violations.is_empty(), "{:?}", good.violations);

    let bad = check_crate_root("crates/nn/src/lib.rs", &fixture("hygiene_bad.rs"));
    assert_eq!(bad.violations.len(), 2);
    assert!(bad.violations.iter().all(|v| v.rule == rule::HYGIENE));
    let missing: Vec<&str> = bad.violations.iter().map(|v| v.message.as_str()).collect();
    assert!(missing.iter().any(|m| m.contains("missing_docs")));
    assert!(missing.iter().any(|m| m.contains("rust_2018_idioms")));
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
    let lint = lint_file("crates/nn/src/fixture.rs", &fixture("time_violation.rs"));
    let v: &Violation = &lint.violations[0];
    assert_eq!(v.file, "crates/nn/src/fixture.rs");
    assert!(v.snippet.contains("Instant::now()"));
    assert!(v.message.contains("Instant::now"));
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
