#!/usr/bin/env bash
# A/B the end-to-end benchmark metrics of two revisions on some workloads.
#
#   scripts/ab.sh <rev-a> <rev-b> <workloads> [pairs] [--seconds S] [--seed N]
#
# <workloads> is one workload, a comma-separated list of them, or `all`
# for every workload BENCHMARK.json names.
#
# Each revision's `spritely-benchmark` is built from `git archive` of that
# commit under ${TMPDIR:-/tmp}/spritely-ab/<commit>, with its own
# CARGO_TARGET_DIR there; the checkout's own target/ is never used, and a
# commit built once is reused. The two binaries then make the benchmark's
# own measurement, `--workload W --seed N --seconds S --trace 0` (what
# benchmark/run.sh runs; each metric is already a median over the run's
# repetitions), `pairs` pairs (default 10), S seconds each (default 5), at
# seed N (default 42). Each pair runs every listed workload in turn, A then
# B in even pairs and B then A in odd ones.
#
# A run that fails or is not correct stops the script (exit 1), and so
# does a pair whose A and B differ on a `sim_*` metric (simulated time or a
# simulated count, one value per workload and seed). Otherwise it prints,
# per workload and per other metric (`setup_s`, `host_*`, lower is
# better), A's and B's median and quartiles over the runs, the change of
# the medians, how many pairs B won (read lower in), and a verdict by the
# benchmark's claim rule: `win` when B won at least 9 pairs in 10 and the
# medians are further apart than A's q3 - q1, `loss` when B lost (read
# higher in) at least 9 in 10 and the medians are as far apart the other
# way, `unresolved` otherwise, with the condition that failed.
set -euo pipefail

usage() {
    echo "usage: $0 <rev-a> <rev-b> <workload[,workload…]|all> [pairs] [--seconds S] [--seed N]" >&2
    exit 2
}
[[ $# -ge 3 ]] || usage
rev_a=$1 rev_b=$2 workloads=$3
shift 3
pairs=10 seconds=5 seed=42
if [[ $# -gt 0 && $1 != --* ]]; then
    pairs=$1
    shift
fi
while [[ $# -gt 0 ]]; do
    [[ $# -ge 2 ]] || usage
    case $1 in
        --seconds) seconds=$2 ;;
        --seed) seed=$2 ;;
        *) usage ;;
    esac
    shift 2
done
[[ $pairs =~ ^[1-9][0-9]*$ && $seconds =~ ^[0-9]+(\.[0-9]+)?$ && $seed =~ ^[0-9]+$ ]] || usage

repo="$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)"
root="${TMPDIR:-/tmp}/spritely-ab"
if [[ $workloads == all ]]; then
    workloads=$(grep -o '"name": "[a-z0-9_]*", "why"' "$repo/BENCHMARK.json" | cut -d'"' -f4 | paste -sd,)
fi
IFS=, read -ra names <<<"$workloads"
[[ ${#names[@]} -gt 0 ]] || usage

# The benchmark binary of `rev`, built on first use.
build() {
    local commit dir
    commit="$(git -C "$repo" rev-parse --verify "$1^{commit}")"
    dir="$root/$commit"
    if [[ ! -x $dir/target/release/spritely-benchmark ]]; then
        rm -rf "$dir/src"
        mkdir -p "$dir/src"
        git -C "$repo" archive "$commit" | tar -x -C "$dir/src"
        echo "ab: building $1 ($commit)" >&2
        CARGO_TARGET_DIR="$dir/target" cargo build --release --offline --quiet \
            --manifest-path "$dir/src/benchmark/Cargo.toml" >&2
    fi
    echo "$dir/target/release/spritely-benchmark"
}
bin_a="$(build "$rev_a")"
bin_b="$(build "$rev_b")"

out="$(mktemp -d "${TMPDIR:-/tmp}/spritely-ab-run.XXXXXX")"
trap 'rm -rf "$out"' EXIT

# One run of side `1` (a or b) on workload `2`, pair `3`: its
# `metric value` lines, from the JSON object on its last line.
run() {
    local bin=$bin_a
    [[ $1 == b ]] && bin=$bin_b
    if ! "$bin" --workload "$2" --seed "$seed" --seconds "$seconds" --trace 0 \
        2>"$out/err" | tail -n 1 >"$out/$1.$2.$3.json" ||
        ! grep -q '"correct": true' "$out/$1.$2.$3.json"; then
        echo "ab: $2, pair $3: the $1 run failed or was not correct:" >&2
        tail -n 3 "$out/err" >&2
        exit 1
    fi
    grep -o '"[a-z0-9_]*": {"value": [^,}]*' "$out/$1.$2.$3.json" |
        sed 's/^"\([^"]*\)": {"value": /\1 /' >"$out/$1.$2.$3"
}
echo "ab: ${names[*]}, seed $seed, $seconds s, $pairs pairs: A = $rev_a, B = $rev_b" >&2
for ((i = 0; i < pairs; i++)); do
    for w in "${names[@]}"; do
        if ((i % 2 == 0)); then
            run a "$w" "$i"
            run b "$w" "$i"
        else
            run b "$w" "$i"
            run a "$w" "$i"
        fi
        # The simulated side must not have moved.
        if ! diff <(grep '^sim_' "$out/a.$w.$i") <(grep '^sim_' "$out/b.$w.$i") >"$out/diff"; then
            echo "ab: $w, pair $i: sim_* metrics differ (< A, > B):" >&2
            cat "$out/diff" >&2
            exit 1
        fi
        echo "ab: $w, pair $i: host_run_ms $(awk '$1 == "host_run_ms" { print $2 }' \
            "$out/a.$w.$i" "$out/b.$w.$i" | paste -sd' ')" >&2
    done
done

# Metric `3`'s values on side `1` of workload `2`, one per pair in pair order.
col() {
    for ((i = 0; i < pairs; i++)); do awk -v m="$3" '$1 == m { print $2 }' "$out/$1.$2.$i"; done
}
# The median and the nearest-rank quartiles of a column.
quartiles() {
    sort -g | awk '{ x[NR] = $1 }
        END { print (x[int((NR + 1) / 2)] + x[int(NR / 2) + 1]) / 2, x[int((NR + 3) / 4)],
            x[NR + 1 - int((NR + 3) / 4)] }'
}
for w in "${names[@]}"; do
    echo "$w"
    printf "%-20s %32s %32s %8s %7s  %s\n" metric "A median [q1, q3]" "B median [q1, q3]" change "B won" verdict
    for metric in $(grep -v '^sim_' "$out/a.$w.0" | cut -d' ' -f1); do
        read -r ma qa1 qa3 < <(col a "$w" "$metric" | quartiles)
        read -r mb qb1 qb3 < <(col b "$w" "$metric" | quartiles)
        read -r won lost < <(paste <(col a "$w" "$metric") <(col b "$w" "$metric") |
            awk '{ won += $2 < $1; lost += $2 > $1 } END { print won + 0, lost + 0 }')
        awk -v m="$metric" -v ma="$ma" -v qa1="$qa1" -v qa3="$qa3" -v mb="$mb" -v qb1="$qb1" \
            -v qb3="$qb3" -v won="$won" -v lost="$lost" -v pairs="$pairs" 'BEGIN {
            need = int((9 * pairs + 9) / 10)
            if (mb < ma) {
                side = "win"; count = "won"; n = won; gap = ma - mb
            } else {
                side = "loss"; count = "lost"; n = lost; gap = mb - ma
            }
            why = ""
            if (n < need) why = sprintf("%s %d of %d, needs %d", count, n, pairs, need)
            if (gap <= qa3 - qa1)
                why = why (why == "" ? "" : "; ") sprintf("medians %.3g apart, A q3 - q1 %.3g", gap, qa3 - qa1)
            verdict = why == "" ? side : "unresolved (" why ")"
            printf "%-20s %10.6g [%9.6g, %9.6g] %10.6g [%9.6g, %9.6g] %+7.1f%% %3d/%d  %s\n",
                m, ma, qa1, qa3, mb, qb1, qb3, (ma > 0 ? 100 * (mb - ma) / ma : 0), won, pairs, verdict }'
    done
done
