#!/usr/bin/env bash
# Non-test Rust lines per crate: every file under crates/<name>/src, cut at
# its first `#[cfg(test)]` that opens a line (the in-file test modules sit
# at the bottom; an indented one gates a single item, and one inside a
# comment or string gates nothing).
set -euo pipefail
cd "$(dirname "$0")/.."
for dir in crates/*/src; do
  find "$dir" -name '*.rs' -print0 | sort -z | xargs -0 awk -v crate="${dir%/src}" '
    FNR == 1 { cut = 0 } /^#\[cfg\(test\)\]/ { cut = 1 } !cut { n++ }
    END { printf "%-16s %6d\n", crate, n }'
done | awk '{ print; sum += $2 } END { printf "%-16s %6d\n", "total", sum }'
