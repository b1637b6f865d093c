#!/usr/bin/env bash
# Public functions nobody calls: every `pub fn` under crates/*/src that is
# named nowhere except at its own definition and in its own crate's unit
# tests (the part of a file from its first column-0 `#[cfg(test)]` on).
# References are looked for, by name, in crates/ src/ tests/ examples/ and
# benchmark/src — so a function the benchmark or an integration test uses is
# called, and so is one whose name another function shares: the scan only
# says "callerless" when it is sure. scripts/check.sh holds the output to
# baselines/callerless.txt, so a new entry is either given a caller, deleted,
# or committed there with the reason in the change that adds it.
# Usage: scripts/callerless.sh [checkout-root]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

find crates src tests examples benchmark/src -name '*.rs' | sort | xargs awk '
FNR == 1 {
    # The crate a file under crates/<crate>/src/ belongs to; "" elsewhere.
    crate = ""
    in_tests = 0
    if (FILENAME ~ /^crates\/[^\/]+\/src\//) {
        crate = FILENAME
        sub(/^crates\//, "", crate)
        sub(/\/.*/, "", crate)
    }
}
crate != "" && /^#\[cfg\(test\)\]/ { in_tests = 1 }
{
    is_pub = !in_tests && crate != "" && $0 ~ /^[ \t]*pub[ \t]+((async|const|unsafe)[ \t]+)*fn[ \t]/
    n = split($0, tok, /[^A-Za-z0-9_]+/)
    for (i = 1; i <= n; i++) {
        name = tok[i]
        if (name == "") continue
        if (i > 1 && tok[i - 1] == "fn" && !in_tests) {
            # A definition is not a reference to itself.
            if (is_pub) defined_in[crate SUBSEP name] = FILENAME
        } else if (in_tests) {
            in_unit_tests[crate SUBSEP name]++
            named[name]++
        } else {
            named[name]++
        }
    }
}
END {
    for (key in defined_in) {
        split(key, part, SUBSEP)
        if (named[part[2]] - in_unit_tests[key] == 0)
            printf "%s: %s\n", defined_in[key], part[2]
    }
}' | sort
