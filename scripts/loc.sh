#!/usr/bin/env bash
# Non-test Rust lines per crate, with a total: the line target
# made measurable (scripts/check.sh holds this report to baselines/loc.txt,
# line for line). Counts every .rs file under crates/<crate>/src/, each cut
# at its first column-0 `#[cfg(test)]`; tests/, benches/, examples/, vendor/
# and benchmark/ are not product code and are left out (as is the root
# package, which is a re-export and the CLI).
# Usage: scripts/loc.sh [checkout-root]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

for crate in crates/*/; do
    find "${crate}src" -name '*.rs' -exec \
        awk '/^#\[cfg\(test\)\]/ { nextfile } { n++ } END { printf "%7d  %s\n", n, c }' \
        c="$(basename "$crate")" {} +
done | awk '{ print; total += $1 } END { printf "%7d  total\n", total }'
