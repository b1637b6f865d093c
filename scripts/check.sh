#!/usr/bin/env bash
# Tier-1 gate: everything a change must pass before it lands.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

# The benchmark is its own workspace and names harness fields and
# constructors; building it here fails a renamed one in a minute, not
# after the whole gate (its tests run further down).
echo "==> benchmark: cargo build --release --offline"
(cd benchmark && cargo build --release --offline)

echo "==> cargo test --workspace -q"
cargo test --workspace -q

# The data oracle's whole layer lattice (tests/data_oracle.rs): ten
# columns of concurrent sharing, 120 runs, too slow for a debug run, so
# tier-1 holds three of its columns and this holds all ten.
echo "==> data oracle, every layer lattice column (release)"
cargo test --release -q --test data_oracle -- --ignored

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Docs link to public names by path; a deleted or renamed type otherwise
# leaves a dead link nothing notices.
echo "==> cargo doc (intra-doc links must resolve)"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D rustdoc::private_intra_doc_links" \
    cargo doc --no-deps --offline --workspace --quiet

# Every experiment in the catalogue, once, at seed 42: its own gate
# conditions (trace checker clean, each layer's speedup floor, chaos
# convergence), its artifacts against baselines/ byte for byte, its
# ledger against BENCH_<name>.json key for key. Prints per-experiment
# wall time. Two worker threads, so the parallel path `spritely run` and
# `spritely gate` take by default is held to the same record as a serial
# run (tests/catalog.rs holds the serial one).
echo "==> spritely gate --threads 2 (21 experiments vs baselines/ and BENCH_*.json)"
cargo run --release --quiet --bin spritely -- gate --threads 2

# The benchmark is its own workspace, so nothing above compiles it: an API
# break it depends on (Proc, Testbed, BlockCache, ...) would otherwise
# surface only when the driver runs it.
echo "==> benchmark: cargo test --release --offline"
(cd benchmark && cargo test --release --offline --quiet)

# The number a benchmark run's JSON line ($2) gives for metric $1; empty if
# the line has no such metric.
metric() {
    sed -n "s/.*\"$1\": {\"value\": \([0-9.e+-]*\).*/\1/p" <<<"$2"
}

# All five benchmark workloads: both ends of the one testbed
# construction, sort_nfs (NFS over one server) and fleet (8 shards x 512
# SNFS clients); sharing, where batched background calls meet callbacks
# and delegation recalls; scale16, sixteen clients contending for one
# server's queues; and andrew, one SNFS client on its own, where the
# client's cache, write-behind pool and delegations decide the time.
# Each runs twice. `--trace 1`
# exercises the per-layer pass (kernels, span files) and prints the
# per-layer JSON line: the checker must have found nothing, the profiler
# must have attributed every microsecond and the trace must hold as many
# events as baselines/trace_events.txt says, so a checker that starts
# firing, a profiler that drops a claim or an emit site that changes what
# it records fails here. `--trace 0` prints
# the end-to-end JSON line, whose host_allocs_per_run is held to
# baselines/allocs.txt within the benchmark's own 2 % bound, like the line
# count below: more is a regression, fewer is a stale file, so a layer
# cannot silently give back what the hot path's allocation diet won.
for w in sort_nfs fleet sharing scale16 andrew; do
    echo "==> benchmark: $w, 2 s, traced (exit 2 = traced and untraced passes disagree on a simulated-clock number)"
    traced=$(bash benchmark/run.sh --workload "$w" --seed 42 --seconds 2 --trace 1 | tail -1)
    for want in trace.violations=0 trace.attributed_share=1; do
        live=$(metric "${want%=*}" "$traced")
        if [ -z "$live" ]; then
            echo "FAIL: could not read ${want%=*} from the last line $w printed"
            exit 1
        elif [ "$live" != "${want#*=}" ]; then
            echo "FAIL: $w, traced: ${want%=*} is $live, must be ${want#*=}"
            exit 1
        fi
    done
    # What a run records is part of the format: an event added, dropped or
    # emitted twice moves this count (a mean over the run's fixed cycles,
    # exact at one seed) before it moves any digest.
    events=$(metric trace.events "$traced")
    recorded=$(awk -v w="$w" '$1 == w { print $2 }' baselines/trace_events.txt)
    if [ -z "$events" ] || [ "$events" != "$recorded" ]; then
        echo "FAIL: $w, traced: trace.events is '$events'; baselines/trace_events.txt has '$recorded'"
        exit 1
    fi
    echo "    trace.violations 0, trace.attributed_share 1, trace.events $events"
    echo "==> benchmark: $w, 2 s, host_allocs_per_run vs baselines/allocs.txt"
    untraced=$(bash benchmark/run.sh --workload "$w" --seed 42 --seconds 2 --trace 0 | tail -1)
    # A median of an even number of runs can end in .5; the shell counts whole.
    live=$(metric host_allocs_per_run "$untraced")
    live=${live%.*}
    allowed=$(awk -v w="$w" '$1 == w { print $2 }' baselines/allocs.txt)
    # An empty number would read as 0 below and blame the ratchet.
    if [ -z "$live" ]; then
        echo "FAIL: could not read host_allocs_per_run from the last line $w printed"
        exit 1
    elif [ -z "$allowed" ]; then
        echo "FAIL: baselines/allocs.txt has no line for $w"
        exit 1
    fi
    echo "    $live allocations per run; baselines/allocs.txt has $allowed"
    if [ "$((live * 100))" -gt "$((allowed * 102))" ]; then
        echo "FAIL: $w allocates $live times per run, more than 2 % above $allowed"
        exit 1
    elif [ "$((live * 100))" -lt "$((allowed * 98))" ]; then
        echo "FAIL: $w allocates $live times per run; lower baselines/allocs.txt from $allowed"
        exit 1
    fi
done

# Host time has one owner, benchmark/: a library crate that reads the host
# clock or counts cores makes some artifact depend on the machine.
echo "==> no crate reads the host clock"
if grep -rnE 'std::time|available_parallelism' crates/*/src; then
    echo "FAIL: the lines above read the host clock; host cost is measured in benchmark/"
    exit 1
fi

# Every block a client sends in the background leaves through one ledgered
# send, ClientBase::write_bg (DESIGN.md §10), so an fsync return or a
# callback's `ok` can wait out everything on the wire. The only other write
# request a client builds is SnfsClient::write's synchronous write-through
# of a write-shared file; a third would be a write the ledger cannot see.
echo "==> one background write send (two NfsRequest::Write in the clients)"
sends=$(git grep -n 'NfsRequest::Write' -- crates/nfs/src/base.rs crates/nfs/src/client.rs crates/core/src/client)
echo "$sends"
if [ "$(wc -l <<<"$sends")" -ne 2 ]; then
    echo "FAIL: the clients build NfsRequest::Write other than in ClientBase::write_bg and the write-through"
    exit 1
fi

# The VFS names a remote protocol only where Spritely NFS differs from NFS
# (§3): open, close, read, write, fsync and getattr, two arms each. Every
# other procedure is the clients' shared base (DESIGN.md §20), one arm
# over FsBackend::Remote. An Nfs(/Snfs( arm in any other function, or a
# seventh function that dispatches on the protocol, fails here.
echo "==> the VFS names a protocol in six procedures (twelve Nfs(/Snfs( arms)"
arms=$(awk '/fn [a-z_]+[(<]/ { match($0, /fn [a-z_]+/); f = substr($0, RSTART + 3, RLENGTH - 3) }
    /(Nfs|Snfs)\(/ { print FILENAME ":" FNR ": " f }' crates/vfs/src/*.rs)
echo "$arms"
if awk '$NF !~ /^(open|close|read|write|fsync|getattr)$/ { bad = 1 } END { exit !bad }' <<<"$arms" ||
    [ "$(wc -l <<<"$arms")" -ne 12 ]; then
    echo "FAIL: crates/vfs/src names Nfs/Snfs outside open, close, read, write, fsync and getattr, or not twice in each"
    exit 1
fi

# Every dirty block reaches the server's disk through one run flusher,
# LocalFs::flush_run, which writes each run of consecutive addresses as one
# request (DESIGN.md §12, §25); the only other disk write in the file
# system is the inode/directory update, structural_write. A third would
# be a data path that writes block by block again.
echo "==> one run flusher (two disk.write calls in localfs)"
writes=$(git grep -n 'disk.write(' -- crates/localfs/src)
echo "$writes"
if [ "$(wc -l <<<"$writes")" -ne 2 ]; then
    echo "FAIL: localfs writes to the disk other than in flush_run and structural_write"
    exit 1
fi

# Unearned code, held like the line count: a public function that only its
# own crate's unit tests name is listed by scripts/callerless.sh, and the list
# may only be what baselines/callerless.txt says (its '#' lines give each
# entry's reason). A new entry gets a caller, goes, or is committed there.
echo "==> scripts/callerless.sh (pub fns with no caller) vs baselines/callerless.txt"
if ! moved=$(diff <(grep -v '^#' baselines/callerless.txt) <(scripts/callerless.sh)); then
    echo "$moved"
    echo "FAIL: callerless public functions changed ('<' committed, '>' found)"
    exit 1
fi

# The knob rule (DESIGN.md §28) as a ratchet: every independently settable
# value — a `pub` field of a `pub struct …Params` — is a line of
# scripts/knobs.sh, held to baselines/knobs.txt. A change that adds a
# setting commits its line for a reviewer to weigh; one that removes a
# setting removes its line.
echo "==> scripts/knobs.sh (settable Params fields) vs baselines/knobs.txt"
if ! moved=$(diff baselines/knobs.txt <(scripts/knobs.sh)); then
    echo "$moved"
    echo "FAIL: the settable Params fields changed ('<' committed, '>' found): scripts/knobs.sh > baselines/knobs.txt"
    exit 1
fi

# The line target as a ratchet: baselines/loc.txt is the whole
# scripts/loc.sh report, so a difference names the crate that moved. The
# total may not rise above the committed one, and a change that lowers it
# — or moves lines between crates — regenerates the file with it: a stale
# file fails too, so the committed numbers are always the measured ones
# and the next change is held to them.
echo "==> scripts/loc.sh (non-test Rust lines per crate) vs baselines/loc.txt"
report=$(scripts/loc.sh)
echo "$report"
if ! moved=$(diff baselines/loc.txt - <<<"$report"); then
    echo "$moved"
    live=$(awk '$2 == "total" { print $1 }' <<<"$report")
    allowed=$(awk '$2 == "total" { print $1 }' baselines/loc.txt)
    if [ "$live" -gt "$allowed" ]; then
        echo "FAIL: $live non-test lines; baselines/loc.txt allows $allowed ('<' committed, '>' measured)"
    else
        echo "FAIL: baselines/loc.txt is stale ('<' committed, '>' measured): scripts/loc.sh > baselines/loc.txt"
    fi
    exit 1
fi

echo "==> OK"
