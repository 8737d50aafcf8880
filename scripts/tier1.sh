#!/usr/bin/env bash
# Tier-1 gate: the external-package allowlist (bytes and proptest, both
# vendored), formatting, release build, full test suite, a check of
# every target and of the frozen ledger package, a warnings-as-errors
# clippy pass over the whole workspace (escalated with panic-hunting
# lints on six crates; both passes enforce the clippy.toml bans on the
# wall clock, thread::spawn, std::fs, the seeded PRNG and
# HashMap/HashSet, which darnet-pure forbids outright: replay purity,
# DESIGN.md §11), and a check that every DESIGN.md section the code
# cites exists. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

# A stale lockfile would make every cargo invocation below resolve (or
# refuse to run) differently than CI sees it; fail loudly up front
# instead of letting a later step die with a confusing message.
if ! cargo metadata --locked --format-version 1 >/dev/null 2>&1; then
  echo "tier1: Cargo.lock is stale or missing — regenerate it (cargo update -w) and commit it" >&2
  exit 1
fi

# The only packages outside the workspace are the two vendored stubs,
# bytes and proptest (DESIGN.md §3): channels and locks come from std.
members=$(cargo tree --workspace --locked --depth 0 --prefix none)
tree=$(cargo tree --workspace --locked -e normal,build,dev --prefix none)
extra=$(sed -e '/^$/d' -e 's/ (\*)$//' <<<"$tree" | sort -u \
  | grep -vxF -f <(sed '/^$/d' <<<"$members") | grep -Ev '^(bytes|proptest) v' || true)
if [ -n "$extra" ]; then
  echo "tier1: packages beyond the workspace, bytes and proptest:" >&2
  echo "$extra" >&2
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
# Cargo prunes the entries of benchmark/Cargo.lock that name packages the
# workspace no longer vendors; the lock is frozen with the rest of the
# ledger, so it is put back byte for byte however the check ends, and
# then any edit under benchmark/ or to BENCHMARK.json fails here: only a
# benchmark refresh changes them.
frozen_lock=$(mktemp)
cp benchmark/Cargo.lock "$frozen_lock"
trap 'cp "$frozen_lock" benchmark/Cargo.lock; rm -f "$frozen_lock"' EXIT
cargo check --offline --all-targets --manifest-path benchmark/Cargo.toml
cp "$frozen_lock" benchmark/Cargo.lock
git diff --exit-code -- benchmark BENCHMARK.json
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

# Escalated pass on the pipeline crates, the effect-free core and the
# simulator: panics in non-test code are build errors (clippy.toml
# exempts tests). This is the only panic gate; it sees types.
cargo clippy --locked -p darnet-tensor -p darnet-nn -p darnet-core -p darnet-collect \
  -p darnet-sim -p darnet-pure \
  --all-targets -- -D warnings \
  -D clippy::unwrap_used -D clippy::expect_used -D clippy::dbg_macro \
  -D clippy::panic -D clippy::unreachable -D clippy::todo -D clippy::unimplemented

# Every `DESIGN.md §n` (or `DESIGN §n`) cited in the code, the scripts
# and clippy.toml names a numbered DESIGN.md heading, so a section that
# is renumbered or retired cannot leave a dangling citation. A citation
# may wrap onto the next comment line. The frozen benchmark/ is not
# searched.
headings=$(grep -oE '^#+ [0-9]+(\.[0-9]+)*' DESIGN.md | sed -E 's/^#+ //')
dangling=$(grep -rhozE 'DESIGN(\.md)?[[:space:]/!#]*§ ?[0-9]+(\.[0-9]+)*' \
    crates src tests examples scripts clippy.toml \
  | tr '\0' '\n' | grep -oE '§ ?[0-9]+(\.[0-9]+)*$' | tr -d '§ ' | sort -u \
  | grep -vxF -f <(printf '%s\n' "$headings") || true)
if [ -n "$dangling" ]; then
  echo "tier1: DESIGN.md has no heading for cited section(s):" $dangling >&2
  exit 1
fi
