#!/bin/sh
# Prints the non-test lines of every Rust file under crates/*/src, then
# their total. A file's non-test lines are the lines above its first
# `#[cfg(test)]`, or all of its lines if it has none.
#
# Usage: ci/nontest_lines.sh [REPO_ROOT]   (default: this script's repo)
#
# A measuring tool for change descriptions, not a CI gate.
set -eu
root=${1:-$(dirname "$0")/..}
cd "$root"
find crates/*/src -name '*.rs' | LC_ALL=C sort | xargs awk '
    FNR == 1 { if (NR > 1) report(); counting = 1; n = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
    counting { n++ }
    function report() { printf "%7d %s\n", n, file; total += n }
    { file = FILENAME }
    END { if (NR > 0) report(); printf "%7d total\n", total }
'
