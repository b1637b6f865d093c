#!/usr/bin/env bash
# Tier-1 gate: everything a change must pass before it lands.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> traced Andrew run (invariant checker gate)"
cargo run --release --quiet --example traced_andrew

echo "==> server I/O pipeline smoke run (pipelined must beat paper)"
cargo run --release --quiet --example server_io_smoke

echo "==> transport pipeline smoke run (pipelined must beat paper)"
cargo run --release --quiet --example transport_smoke

echo "==> chaos smoke run (faulted runs must converge to fault-free contents)"
cargo run --release --quiet --example chaos_smoke

echo "==> delegation smoke run (open churn must shed messages, trace must stay clean)"
cargo run --release --quiet --example delegation_smoke

echo "==> sim-core smoke run (>= 1.5x pre-PR events/sec, cancelled sleeps leave no timers)"
cargo run --release --quiet --example sim_speed_smoke

echo "==> latency profiler smoke run (phase accounting must be exact, >= 99% attributed)"
cargo run --release --quiet --example profile_smoke

echo "==> shard smoke run (paper mode inert, deterministic, >= 1.5x at 8 shards, chaos converges)"
cargo run --release --quiet --example shard_smoke

echo "==> snapshot regression gate (fresh Andrew profile vs baselines/)"
cargo run --release --quiet --bin spritely -- profile andrew > /dev/null
cargo run --release --quiet --bin spritely -- compare \
    baselines/profile_andrew_snfs.json artifacts/profile_andrew_snfs.json

# The benchmark is its own workspace, so nothing above compiles it: an API
# break it depends on (Proc, Testbed, BlockCache, ...) would otherwise
# surface only when the driver runs it.
echo "==> benchmark: cargo test --release --offline"
(cd benchmark && cargo test --release --offline --quiet)

echo "==> benchmark: sort_nfs, 2 s, traced (exit 2 = traced and untraced passes disagree on a simulated-clock number)"
bash benchmark/run.sh --workload sort_nfs --seed 42 --seconds 2 --trace 1 > /dev/null

# The other end of the one testbed construction: sort_nfs is NFS over one
# server, fleet is 8 shards x 512 SNFS clients.
echo "==> benchmark: fleet, 2 s, traced (same exit-2 rule, sharded end of the builder)"
bash benchmark/run.sh --workload fleet --seed 42 --seconds 2 --trace 1 > /dev/null

echo "==> OK"
