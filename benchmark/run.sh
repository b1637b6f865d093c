#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it.
#
#   benchmark/run.sh [--seed N] [--seconds S]      the whole suite, every metric, writes benchmark/out/
#   benchmark/run.sh --selfcheck [--seed N]        the suite twice, compared against the bounds
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                  one workload; last line is the JSON result (driver contract)
#
# Run it from the root of the checkout. See benchmark/README.md.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
# The build output goes where the caller's CARGO_TARGET_DIR says, else
# next to the package; a relative CARGO_TARGET_DIR is relative to the
# current directory, for cargo and for this script alike.
target="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/spritely-benchmark"

# BENCHMARK.json is generated from the registry in src/metrics.rs; a
# stale copy would make the driver ask for metrics under other names.
if [[ -f BENCHMARK.json ]] && ! "$bin" --manifest | cmp -s - BENCHMARK.json; then
    echo "benchmark: BENCHMARK.json is stale; regenerate it with: $bin --manifest > BENCHMARK.json" >&2
    exit 2
fi

exec "$bin" "$@"
