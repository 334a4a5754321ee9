#!/usr/bin/env bash
# Non-test lines of each crates/*/src crate and their total: the lines of
# every .rs file up to its first column-0 `#[cfg(test)]` (the whole file
# when it has none).  Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for src in crates/*/src; do
  crate=$(basename "$(dirname "$src")")
  lines=$(find "$src" -name '*.rs' -print0 |
    xargs -0 awk 'FNR == 1 {done = 0} /^#\[cfg\(test\)\]/ {done = 1} !done {n++} END {print n + 0}' |
    awk '{sum += $1} END {print sum + 0}')
  printf '%-10s %6d\n' "$crate" "$lines"
  total=$((total + lines))
done
printf '%-10s %6d\n' total "$total"
