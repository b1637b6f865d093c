#!/usr/bin/env bash
# Public functions nobody calls: every `pub fn` under crates/*/src that is
# called nowhere except in its own crate's unit tests (the part of a file
# from its first column-0 `#[cfg(test)]` on). A call is `.f(`, `.f::<`,
# `::f` (a path, called or passed as a value) or a bare `f(`; a field
# `.f`, a variable `f` and a comment are not, so a function cannot hide
# behind a name that is also a common field or variable (nor behind a word
# in a string: string literals are blanked out first). Calls are looked
# for in crates/ src/ tests/ examples/ and benchmark/src, so a function
# the benchmark or an integration test calls is called. scripts/check.sh
# holds the output to baselines/callerless.txt, so a new entry is either
# given a caller, deleted, or committed there with the reason in the change
# that adds it.
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
    line = $0
    gsub(/"([^"\\]|\\.)*"/, "\"\"", line)
    sub(/\/\/.*/, "", line)
    is_pub = !in_tests && crate != "" && line ~ /^[ \t]*pub[ \t]+((async|const|unsafe)[ \t]+)*fn[ \t]/
    at = 0
    while (match(substr(line, at + 1), /[A-Za-z_][A-Za-z0-9_]*/)) {
        start = at + RSTART
        name = substr(line, start, RLENGTH)
        at = start + RLENGTH - 1
        before = substr(line, 1, start - 1)
        after = substr(line, at + 1)
        sub(/^[ \t]+/, "", after)
        called = after ~ /^(\(|::<)/
        if (before ~ /(^|[^A-Za-z0-9_])fn[ \t]+$/) {
            # A definition is not a call of itself.
            if (is_pub) defined_in[crate SUBSEP name] = FILENAME
        } else if (before ~ /::$/ || called) {
            if (in_tests) in_unit_tests[crate SUBSEP name]++
            calls[name]++
        }
    }
}
END {
    for (key in defined_in) {
        split(key, part, SUBSEP)
        if (calls[part[2]] - in_unit_tests[key] == 0)
            printf "%s: %s\n", defined_in[key], part[2]
    }
}' | sort
