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

# The timer queue against a sorted map (crates/sim/src/timer.rs): tier-1
# runs 256 cases of register, cancel, pop and drain steps; this runs the
# same property at 20,000.
echo "==> timer queue vs a sorted map, 20,000 cases (release)"
cargo test --release -q -p spritely-sim --lib timer::tests -- --ignored

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
# it records fails here, and so does one whose profile of the run moves
# (baselines/profile_phases.txt). `--trace 0` prints
# the end-to-end JSON line, whose host_allocs_per_run is held to
# baselines/allocs.txt within the benchmark's own 2 % bound, like the line
# count below: more is a regression, fewer is a stale file, so a layer
# cannot silently give back what the hot path's allocation diet won. Its
# host_peak_heap_mb is held to baselines/peak_heap.txt the same way within
# the benchmark's 5 % bound, so memory kept to save allocations (the
# executor's free task cells) cannot grow unseen either.
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
    # What the profiler makes of a real trace: its ten phase totals, means
    # over the same fixed cycles, are exact too, so a profiler that charges
    # one microsecond of a real run to another phase fails here, where the
    # synthetic traces and the one digest of its unit tests would not see it.
    phases=$(awk -v w="$w" '$1 == w { print $2, $3 }' baselines/profile_phases.txt)
    if [ "$(wc -l <<<"$phases")" -ne 10 ]; then
        echo "FAIL: baselines/profile_phases.txt has no ten lines for $w"
        exit 1
    fi
    while read -r key held; do
        live=$(metric "$key" "$traced")
        if [ -z "$live" ] || [ "$live" != "$held" ]; then
            echo "FAIL: $w, traced: $key is '$live'; baselines/profile_phases.txt has '$held'"
            exit 1
        fi
    done <<<"$phases"
    echo "    trace.violations 0, trace.attributed_share 1, trace.events $events, ten phase totals as recorded"
    echo "==> benchmark: $w, 2 s, host_allocs_per_run and host_peak_heap_mb vs baselines/"
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
    heap=$(metric host_peak_heap_mb "$untraced")
    held=$(awk -v w="$w" '$1 == w { print $2 }' baselines/peak_heap.txt)
    if [ -z "$heap" ] || [ -z "$held" ]; then
        echo "FAIL: no host_peak_heap_mb in the last line $w printed ('$heap'), or no line for it in baselines/peak_heap.txt ('$held')"
        exit 1
    fi
    echo "    $heap MB peak heap; baselines/peak_heap.txt has $held"
    if awk -v a="$heap" -v b="$held" 'BEGIN { exit !(a > b * 1.05) }'; then
        echo "FAIL: $w peaks at $heap MB of heap, more than 5 % above $held"
        exit 1
    elif awk -v a="$heap" -v b="$held" 'BEGIN { exit !(a < b * 0.95) }'; then
        echo "FAIL: $w peaks at $heap MB of heap; lower baselines/peak_heap.txt from $held"
        exit 1
    fi
done

# Host allocations repeat exactly: one repetition of a seed is one
# deterministic simulation, so its allocation count is a number, not a
# distribution. A map hashed under a per-process key grew at other moments
# in every process and made it one (sharing once read nine values in
# fifteen runs). Two repetitions of sharing must print one count.
echo "==> benchmark: sharing, one repetition twice, equal host allocations"
allocs=()
for _ in 1 2; do
    allocs+=("$(bash benchmark/run.sh --workload sharing --seed 42 --rep --trace 0 | grep '^host allocs ')")
done
echo "    ${allocs[0]} / ${allocs[1]}"
if [ -z "${allocs[0]}" ] || [ "${allocs[0]}" != "${allocs[1]}" ]; then
    echo "FAIL: two repetitions of one seed allocated differently"
    exit 1
fi

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

# The clients are hard-mounted (DESIGN.md §20): ClientBase::call_retx calls
# the server again after a ladder runs out, so no workload or test re-issues
# an op that failed. An `insist`, a `while … .is_err()` / `.is_ok()` loop or
# an `Err(_) => … sleep` arm would be a second place that does. rpcnet's own
# tests drive the soft caller beneath the hard mount and are not held.
echo "==> one hard mount (no insist or re-issue loop in crates/*/src or tests)"
if git grep -nE '\binsist\b|while .*\.is_(err|ok)\(\)|Err\(_\) => .*\.sleep\(' -- \
    'crates/*/src/*' tests ':!crates/rpcnet'; then
    echo "FAIL: the lines above re-issue a failed op; ClientBase::call_retx is the hard mount"
    exit 1
fi

# JSON, once (DESIGN.md §23): every document the crates write goes through
# metrics::json::Writer, which places the quotes, colons and commas. A string
# literal holding a JSON key (\"name\":) in product code — a file of
# crates/*/src before its first column-0 #[cfg(test)], as scripts/loc.sh
# counts it — is a document formatted by hand. json.rs is the writer.
echo "==> JSON, once (no hand-written JSON key in crates/*/src)"
keys=$(find crates/*/src -name '*.rs' ! -path crates/metrics/src/json.rs -exec \
    awk '/^#\[cfg\(test\)\]/ { nextfile } /\\"[A-Za-z0-9_.]+\\":/ { print FILENAME ":" FNR ": " $0 }' {} +)
if [ -n "$keys" ]; then
    echo "$keys"
    echo "FAIL: the lines above write JSON by hand; use spritely_metrics::json::Writer"
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

# Every disk request, whatever the policy, parks in the scheduler queue and
# waits for dispatch_next's grant in one poll_fn in Disk::access; FIFO is the
# same pick with an aging bound of 0 (DESIGN.md §25). A Resource or an
# acquire in blockdev would be a second way to wait for the arm, the FIFO
# fast path that leaked queue depth when a queued request was dropped.
echo "==> one wait for the disk arm (one poll_fn, no Resource in blockdev)"
waits=$(git grep -n 'poll_fn' -- crates/blockdev/src)
echo "$waits"
if [ "$(wc -l <<<"$waits")" -ne 1 ] || git grep -q -e 'Resource' -e '\.acquire(' -- crates/blockdev/src; then
    echo "FAIL: blockdev waits for the arm other than in Disk::access's grant"
    exit 1
fi

# One hasher (DESIGN.md §15): every map in the simulation is spritely_sim's
# Map or Set, over the unseeded Mix. A std HashMap or HashSet hashes with
# SipHash under a key drawn per process: slower on the handles, ids and
# names the simulation makes, which need no flood resistance, and it
# iterates in a new order in every process, so anything that walks it
# unsorted (NFS's cold boot once did) and every allocation count that
# depends on its growth differ from run to run. crates/sim/src/hash.rs
# defines the alias and is the one file allowed to name them.
echo "==> one hasher (no std HashMap, HashSet or RandomState outside spritely_sim's alias)"
if git grep -nE 'collections::.*Hash(Map|Set)|RandomState' -- 'crates/*/src/*' src \
    ':!crates/sim/src/hash.rs'; then
    echo "FAIL: the lines above use a std hash map; use spritely_sim::{Map, Set}"
    exit 1
fi

# One thread in the executor (DESIGN.md §15): a simulation, its tasks and
# its wakers live on the thread that runs it, so crates/sim/src needs no
# lock, no shared count and no atomic. A Mutex, Arc or Atomic* there puts a
# cross-thread read-modify-write back on every wake and poll, where the
# Mutex'd ready queue and Arc'd wakers once paid about eight a poll. A
# waker checks its thread instead: off it, a wake panics and a drop leaks.
# Product code is each file before its first column-0 #[cfg(test)], as
# scripts/loc.sh counts it; tests may hand a waker to another thread.
echo "==> one thread in the executor (no Mutex, Arc or Atomic in crates/sim/src)"
shared=$(find crates/sim/src -name '*.rs' -exec \
    awk '/^#\[cfg\(test\)\]/ { nextfile }
        /(^|[^A-Za-z0-9_])(Mutex|Arc([^A-Za-z0-9_]|$)|Atomic)/ { print FILENAME ":" FNR ": " $0 }' {} +)
if [ -n "$shared" ]; then
    echo "$shared"
    echo "FAIL: the lines above share executor state across threads; use Rc and Cell"
    exit 1
fi

# Table 4-1, once: crates/trace/src/transitions.rs states the server state
# machine of §4.3.4 as one relation, a row per (from, cause, opener's role)
# with its to-state and the callbacks the open asks for. StateTable::open
# expands its rows, the trace checker's legal() looks edges up in it and the
# proptest checks opens against it. A (from, to) pair of states or a match
# arm on a state anywhere else in crates/*/src would be a second copy that
# can drift from it. (git's pathspec 'crates/*/src' matches no file; the
# trailing /* reaches the files under it.)
echo "==> Table 4-1, once (no state edge list or per-state match outside transitions.rs)"
states='(FState|FileState)::[A-Za-z]+|Closed|ClosedDirty|OneReader|OneRdrDirty|MultReaders|OneWriter|WriteShared'
if git grep -nE -e "\\(($states), *($states)\\)" -e "(FState|FileState)::[A-Za-z]+ *(=>|[|])" -- \
    'crates/*/src/*' ':!crates/trace/src/transitions.rs'; then
    echo "FAIL: the lines above spell Table 4-1 again; add a row to crates/trace/src/transitions.rs"
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
