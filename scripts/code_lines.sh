#!/usr/bin/env bash
# code-lines: non-test code lines of Rust sources, by the ROADMAP rule.
#
# A line counts when it is neither blank nor a comment (`//`, `///`, `//!`
# after leading whitespace), and counting stops at a file's first
# `#[cfg(test)]`: the unit-test module and everything after it are test
# code. Files under a `tests/` directory are not sources and are skipped.
# Prints one row per file, then the total. A report, not a gate.
#
# Usage: scripts/code_lines.sh [<file or directory>...]
#   With no argument: crates/*/src, from the repository root.
#   scripts/code_lines.sh crates/mapreduce/src/{engine,jobtracker,speculate}.rs
set -euo pipefail

cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
if [ "$#" -eq 0 ]; then
  set -- crates/*/src
fi

find "$@" -name '*.rs' -not -path '*/tests/*' | LC_ALL=C sort | while read -r file; do
  awk '
    /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
    /^[[:space:]]*$/ { next }
    /^[[:space:]]*\/\// { next }
    { n++ }
    END { printf "%7d %s\n", n, FILENAME }
  ' "$file"
done | awk '{ print; total += $1 } END { printf "%7d total\n", total }'
