#!/usr/bin/env bash
# Independently settable values: one line per `pub` field of each
# `pub struct …Params` under crates/*/src, as `crate: Struct.field`.
# The knob rule (DESIGN.md §28) made checkable: scripts/check.sh holds this
# list to baselines/knobs.txt, so a change that adds a setting commits a
# line there for a reviewer to weigh, and one that removes a setting
# removes its line.
# Usage: scripts/knobs.sh [checkout-root]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

find crates/*/src -name '*.rs' | sort | xargs awk '
FNR == 1 {
    crate = FILENAME
    sub(/^crates\//, "", crate)
    sub(/\/.*/, "", crate)
    params = ""
}
/^#\[cfg\(test\)\]/ { nextfile }
/^[ \t]*pub struct [A-Za-z0-9_]*Params[ \t]*\{/ {
    params = $0
    sub(/^[ \t]*pub struct /, "", params)
    sub(/[ \t]*\{.*/, "", params)
    next
}
params != "" && /^[ \t]*\}/ { params = "" }
params != "" && /^[ \t]*pub [A-Za-z_][A-Za-z0-9_]*:/ {
    field = $0
    sub(/^[ \t]*pub /, "", field)
    sub(/:.*/, "", field)
    printf "%s: %s.%s\n", crate, params, field
}' | sort
