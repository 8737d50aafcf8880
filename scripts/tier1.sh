#!/usr/bin/env bash
# Tier-1 gate: formatting, release build, full test suite, a check of
# every target and of the frozen ledger package, a warnings-as-errors
# clippy pass over the whole workspace (escalated with panic-hunting
# lints on six crates; both passes enforce the clippy.toml bans on the
# wall clock, thread::spawn, std::fs, the seeded PRNG and
# HashMap/HashSet), and the darlint invariant pass (see DESIGN.md §11).
# Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

# A stale lockfile would make every cargo invocation below resolve (or
# refuse to run) differently than CI sees it; fail loudly up front
# instead of letting a later step die with a confusing message.
if ! cargo metadata --locked --format-version 1 >/dev/null 2>&1; then
  echo "tier1: Cargo.lock is stale or missing — regenerate it (cargo update -w) and commit it" >&2
  exit 1
fi

cargo fmt --all --check
cargo build --release --locked
# --workspace: at the root a bare `cargo test` covers only the `darnet`
# facade package; the per-crate suites (zero_alloc.rs, the N=2 bitwise
# proptests, the WAL proptests, the golden session digests) live in the
# member crates.
cargo test -q --locked --workspace
# Check every target (examples, bins, tests) so an API change cannot rot
# one silently.
cargo check --workspace --all-targets --locked
# The frozen ledger (benchmark/, BENCHMARK.json) is a package of its own
# that nothing above compiles: check it against these crates here, so an
# API deletion that breaks it fails in the first CI step, not the last.
cargo check --offline --all-targets --manifest-path benchmark/Cargo.toml
# The clippy.toml bans fire here and in the escalated pass below; an
# owner's `#[expect(clippy::disallowed_methods)]` grant that no longer
# covers a banned call is an unfulfilled expectation, so it fails too.
# A clippy.toml path that resolves to nothing is a warning clippy prints
# but -D warnings cannot deny (it is not a lint), so fail on it here: a
# typo must not switch a ban off quietly.
cargo clippy --workspace --locked -- -D warnings 2>&1 | tee target/clippy.log
if grep -q "does not refer to" target/clippy.log; then
  echo "tier1: a clippy.toml path does not resolve (see above)" >&2
  exit 1
fi

# Escalated pass on the pipeline crates, the simulator AND the linter
# itself: panics in non-test code are build errors (clippy.toml exempts
# tests). This is the only panic gate — it sees types, so it catches
# what a token-level rule cannot, and darlint no longer carries one.
cargo clippy --locked -p darnet-tensor -p darnet-nn -p darnet-core -p darnet-collect \
  -p darnet-sim -p xtask \
  --all-targets -- -D warnings \
  -D clippy::unwrap_used -D clippy::expect_used -D clippy::dbg_macro \
  -D clippy::panic -D clippy::unreachable -D clippy::todo -D clippy::unimplemented

# darlint: the in-repo invariant lint for what clippy cannot check
# (hot-alloc, hot-propagate, replay-pure, marker). It is
# deny-by-default: any violation exits 1. Per-pass timings print to
# stderr so analyzer cost regressions show up.
cargo run --locked -q -p xtask -- lint
