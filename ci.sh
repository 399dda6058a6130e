#!/usr/bin/env bash
# CI entry point: formatting, lints, then the ROADMAP tier-1 verify line.
#
#   ./ci.sh          full profile
#   ./ci.sh --fast   reduced property-test case counts + CI scenario horizons
set -euo pipefail
cd "$(dirname "$0")"

if [[ "${1:-}" == "--fast" ]]; then
    export PROPTEST_CASES="${PROPTEST_CASES:-32}"
    export PRESENCE_TEST_PROFILE="${PRESENCE_TEST_PROFILE:-ci}"
    shift
else
    # The default gate validates the paper-exact horizons; the in-process
    # default (Profile::Ci) is for quick local `cargo test` loops.
    export PRESENCE_TEST_PROFILE="${PRESENCE_TEST_PROFILE:-full}"
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, all targets, -D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

# A deleted or renamed item leaves [`links`] to it behind in prose that
# nothing compiles; rustdoc resolves them, so a dead link fails here. So
# does a public item's link to a private one, which renders as dead text.
echo "==> cargo doc (presence crates + facade, broken or private intra-doc links are errors)"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D rustdoc::private_intra_doc_links" \
    cargo doc --no-deps --offline --workspace \
    --exclude proptest --exclude serde --exclude serde_derive --exclude serde_json

# The repo benchmark (benchmark/, BENCHMARK.json) is a package of its own
# outside the workspace, so nothing above notices when a public item it
# uses is renamed or removed. Compile it against this tree.
echo "==> benchmark compile gate (benchmark/Cargo.toml against this tree)"
cargo build --release --offline --manifest-path benchmark/Cargo.toml

# Then run it once, shortened (~40 s on a 2-core box): every workload
# checks its own outputs (sim-hub's events_processed against the golden
# counts and a byte-identical repeat, the UDP workloads zero failed
# operations) and exits non-zero on a miss, so an event-queue or
# shard-loop change that alters what gets scheduled stops here, not in
# the driver.
echo "==> benchmark smoke (--smoke: every workload once, own correctness checks)"
cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- --smoke

# Tier-1 runs with two replication workers so the parallel fan-out path
# (PRESENCE_JOBS → thread::scope pool → seed-ordered merge) is exercised
# by every replication-touching test, not just the dedicated ones.
export PRESENCE_JOBS="${PRESENCE_JOBS:-2}"

echo "==> tier-1: cargo build --release && cargo test -q (PRESENCE_JOBS=$PRESENCE_JOBS)"
cargo build --release
cargo test -q

# A filter that matches nothing passes on zero tests, so a moved or renamed
# test or module would silently leave its stage: where a stage names tests
# by filter, an empty run is a failure.
test_nonempty() {
    local log
    log="$(mktemp)"
    cargo test "$@" 2>&1 | tee "$log"
    if grep -q '^running 0 tests' "$log"; then
        rm -f "$log"
        echo "ci.sh: 'cargo test $*' ran 0 tests in a target — stale filter?" >&2
        return 1
    fi
    rm -f "$log"
}

# Engine soak: the event queue and the dispatch loop get a deeper
# property-test pass than the tier-1 default (256 cases) — the EventQueue
# model-based suites plus the dispatch-semantics regression battery
# (including the arm that holds step()/run(n)/run_until to one trace,
# resumed at random budgets and horizons), at 1024 cases — and the
# queue's white-box unit tests (the invariant checker after every step of
# a seeded walk) run optimised, as the simulator runs them. So do the
# engine's unit tests, among them the stale-handle ones: a handle names
# its event's queue slot, and only the seq check keeps a handle whose slot
# was reused from reaching the event that took it. The run methods return
# nothing, so that arm reads `queue_len` to see that a budget or a horizon
# left events, and a run that ends with 0 drained the queue.
echo "==> engine soak: des proptests + dispatch semantics (PROPTEST_CASES=1024) + white-box queue and engine tests (release)"
PROPTEST_CASES=1024 cargo test --release -q -p presence-des --test proptests --test dispatch
test_nonempty --release -q -p presence-des --lib queue::
test_nonempty --release -q -p presence-des --lib engine::

# Release replay of the golden fixtures: tier-1 replays `sapp`, `dcpp`,
# `churn` (each from `golden_trio()` and from its `paper-*` catalog entry,
# with the single-hop event-count and events-per-message records) and
# `lab-mixed` in the debug profile; this is the same suite optimised, as
# the benchmark and the bins run the simulator.
echo "==> golden replay (release)"
test_nonempty --release -q --test golden_equivalence

# The committed fixtures must be what `golden_fixtures` writes from this
# tree: regenerate all five into a scratch directory and compare each
# with `tests/golden/` byte for byte, so a fixture left stale by a change
# that moved a count (or edited by hand) stops here and is named.
echo "==> golden fixtures: golden_fixtures output cmp tests/golden/"
fixtures_dir="$(mktemp -d)"
cargo run --release -q -p presence-bench --bin golden_fixtures -- "$fixtures_dir" >/dev/null
# Every file either side has (five today), so a missing one fails too.
for fixture in $( (ls "$fixtures_dir"; ls tests/golden) | sort -u); do
    if ! cmp "$fixtures_dir/$fixture" "tests/golden/$fixture"; then
        echo "ci.sh: tests/golden/$fixture differs from what golden_fixtures writes" >&2
        exit 1
    fi
done
rm -rf "$fixtures_dir"

# The mega shard's unit tests optimised, as the benchmark and the bins run
# it: overflow is where debug and release builds disagree (a debug build
# panics where a release build wraps), and the shard counts transmissions
# in a `u8`.
echo "==> mega shard tests (release)"
test_nonempty --release -q -p presence-sim --lib mega::

# The host's own loopback tests optimised, as the benchmark and the bins
# run the host: a burst of replies must leave as runs (UDP GSO sends) and
# still arrive in probe order over IPv4 and IPv6, a queued burst of runs
# must be received whole (UDP GRO), counted per datagram; and the socket
# calls under them (`sys::`) must send and receive a 64-segment run.
# This stage is also the shard loop's idle-path gate: with no CP, and
# with five CPs at the paper's own 10 probes/s, a shard must block rather
# than poll (loop-iteration budgets of 120/s per idle shard and 400/s for
# the paper-rate pair), still fire every timer and answer every probe,
# and `join` must not wait for a blocked shard (< 250 ms). `-- --nocapture`
# prints their iterations/s, join latency and shard CPU. The same filter
# takes in the shard's socket-free core tests: two `ShardCore`s stepped
# back to back by hand must reproduce conformance's pinned counts.
echo "==> sharded host loopback, socket and idle-path tests (release)"
test_nonempty --release -q -p presence-runtime --lib shard::
test_nonempty --release -q -p presence-runtime --lib sys::

# Conformance stage: the simulator is the oracle for the sharded UDP
# serving runtime, and the conformance suite is the gate. It drives
# identical machine populations through the simulator's own actors
# (zero-delay lossless fabric) and through real loopback sockets under a
# lockstep virtual clock, requiring verdict-for-verdict agreement and the
# oracle's pinned counts — at one shard and at four, so both the
# single-socket path and the cross-shard routing/demux paths are proven.
# The hosts run with the shard loop's own 1 ms coalescing window: the
# controller closes each quiescence window only once every shard has
# iterated, so no host setting is tuned for the suite (~1.4 s per run on
# a 2-core guest). Then the stress gate: the sharded host must sustain
# 10k devices + 10k probers on the wall clock with zero backpressure
# drops, zero decode errors, zero receive or send errors, zero unroutable
# datagrams, and zero false verdicts.
echo "==> conformance: sim oracle vs UDP runtime at RUNTIME_SHARDS=1 and =4"
RUNTIME_SHARDS=1 cargo test --release -q -p presence-bench --test conformance
RUNTIME_SHARDS=4 cargo test --release -q -p presence-bench --test conformance
echo "==> conformance stress: 10k devices on loopback, zero-drop gate (RUNTIME_SHARDS=4)"
RUNTIME_SHARDS=4 cargo run --release -q -p presence-bench --bin conformance

# Mega-scale smoke: the 100k-device calendar-queue configuration (mega-ci)
# must finish with sane physics (wait mean within 10 % of the spec's d_min
# floor, zero failed cycles) inside a bounded peak RSS, enforced via VmHWM.
# The recorders are constant-size; what the budget guards is the shard's
# per-pair vectors and its calendar queue, whose drained buckets give their
# capacity back: the run peaks at about 14 MiB, 18 MiB under the budget. The run
# must also reproduce the mega trajectory's pinned event count, so a change
# that moves it fails here instead of only contradicting the docs.
echo "==> mega smoke: 100k-device shard, bounded RSS, pinned count (mega_smoke --budget-mb 32)"
mega_out="$(cargo run --release -q -p presence-bench --bin mega_smoke -- --budget-mb 32)"
echo "$mega_out"
if ! grep -q 'mega-ci: 2787770 events' <<<"$mega_out"; then
    echo "ci.sh: mega_smoke's mega-ci trajectory moved: want 2787770 events" >&2
    exit 1
fi

# Scenario-lab gate: every embedded catalog file (catalog/*.json is the
# catalog) parses, validates, and is named after its stem, then the
# mixed-regime acceptance scenario (delay + loss + churn all switching
# mid-run) smoke-runs with per-regime metric slices — under the same
# 2-worker pool as tier-1. Then a spec file with a bad protocol block, and
# two with a key that names no field (the retired `sapp_auto_tune`, once at
# the top level and once inside `config`), must each be an error message
# and exit status 1, not a panic and not a run that ignores the key. So
# must a flag `lab` or `experiments` would ignore, and a flag with a
# malformed value (`lab --seeds 1,x`, a repeated seed as in `lab --seeds
# 1,1`, which would count one run twice, `lab --jobs 0`, `experiments
# --seed x`), whose message names it; and `golden_fixtures --bogus`,
# which must not take the flag for its output directory. The flags the
# option census deleted (`lab --replications`, `spotter --top`,
# `experiments --csv`, `conformance --stress`) must each be such an
# error too, not be silently accepted.
echo "==> scenario lab: catalog validation + mixed-regime smoke + bad-spec rejection (lab --check, PRESENCE_JOBS=$PRESENCE_JOBS)"
cargo run --release -q -p presence-bench --bin lab -- --check
bad_spec="$(mktemp --suffix=.json)"
sed 's/"delta_min": [0-9]*/"delta_min": 0/' catalog/paper-dcpp.json >"$bad_spec"
{ cargo run --release -q -p presence-bench --bin lab -- "$bad_spec" 2>&1 >/dev/null || [[ $? -eq 1 ]]; } | grep -q 'invalid scenario spec'
sed 's/^  "crash_at": null,$/&\n  "sapp_auto_tune": {"max_doublings": 6},/' catalog/paper-sapp.json >"$bad_spec"
{ cargo run --release -q -p presence-bench --bin lab -- "$bad_spec" 2>&1 >/dev/null || [[ $? -eq 1 ]]; } | grep -q 'unknown field'
sed 's/^    "seed": 11,$/&\n    "sapp_auto_tune": {"max_doublings": 6},/' catalog/paper-sapp.json >"$bad_spec"
{ cargo run --release -q -p presence-bench --bin lab -- "$bad_spec" 2>&1 >/dev/null || [[ $? -eq 1 ]]; } | grep -q 'unknown field'
{ cargo run --release -q -p presence-bench --bin lab -- paper-dcpp --trace-engine 2>&1 >/dev/null || [[ $? -eq 1 ]]; } | grep -q -- '--trace-engine needs --trace'
{ cargo run --release -q -p presence-bench --bin lab -- paper-dcpp --seeds 1,x 2>&1 >/dev/null || [[ $? -eq 1 ]]; } | grep -q -- 'lab: --seeds'
{ cargo run --release -q -p presence-bench --bin lab -- paper-dcpp --seeds 1,1 2>&1 >/dev/null || [[ $? -eq 1 ]]; } | grep -q -- 'lab: --seeds'
{ cargo run --release -q -p presence-bench --bin lab -- paper-dcpp --jobs 0 2>&1 >/dev/null || [[ $? -eq 1 ]]; } | grep -q -- 'lab: --jobs'
{ cargo run --release -q -p presence-bench --bin experiments -- all --json 2>&1 >/dev/null || [[ $? -eq 1 ]]; } | grep -q -- 'experiments all: --json is not supported'
{ cargo run --release -q -p presence-bench --bin experiments -- e2 --seed x 2>&1 >/dev/null || [[ $? -eq 1 ]]; } | grep -q -- 'experiments: --seed'
{ cargo run --release -q -p presence-bench --bin lab -- paper-dcpp --replications 5 2>&1 >/dev/null || [[ $? -eq 1 ]]; } | grep -q -- 'lab: unknown flag --replications'
{ cargo run --release -q -p presence-bench --bin spotter -- trace.json --top 10 2>&1 >/dev/null || [[ $? -eq 1 ]]; } | grep -q -- 'spotter: unknown flag --top'
{ cargo run --release -q -p presence-bench --bin experiments -- e2 --csv 2>&1 >/dev/null || [[ $? -eq 1 ]]; } | grep -q -- 'experiments: unknown argument --csv'
{ cargo run --release -q -p presence-bench --bin conformance -- --stress 10000 2>&1 >/dev/null || [[ $? -eq 1 ]]; } | grep -q -- 'conformance: unexpected argument --stress'
{ cargo run --release -q -p presence-bench --bin golden_fixtures -- --bogus 2>&1 >/dev/null || [[ $? -eq 1 ]]; } | grep -q -- 'golden_fixtures: usage'
[[ ! -e ./--bogus ]]
rm -f "$bad_spec"

# The cross-seed study lives in `lab`: from two seeds on, a report ends
# with the whole-run 95 % intervals of device load, fairness and
# frequency spread (the block the deleted `replications` bin printed);
# one seed has no interval and prints none.
echo "==> lab cross-seed intervals: paper-dcpp at --seeds 1,2,3 prints the block, at --seeds 1 none"
cargo run --release -q -p presence-bench --bin lab -- paper-dcpp --seeds 1,2,3 | grep -q '^replications: n = 3$'
if cargo run --release -q -p presence-bench --bin lab -- paper-dcpp --seeds 1 | grep -q 'replications\|inf'; then
    echo "ci.sh: a one-seed lab report printed an interval block" >&2
    exit 1
fi

# A reader that closes stdout early ends the printing, not the run: every
# bin prints through `presence_bench::{out!, outln!}`, which drop a write
# to a broken pipe instead of panicking. The exit status stays the one
# the run's own checks decide: `lab` exits 0, and `mega_smoke` over its
# budget still exits 1 and names the budget on stderr (`pipefail` is on,
# so the bin's status is the pipeline's).
echo "==> broken pipe: lab --all | head -2 exits 0, mega_smoke --budget-mb 1 | head -1 still exits 1"
pipe_err="$(mktemp)"
cargo run --release -q -p presence-bench --bin lab -- --all --seeds 1 2>"$pipe_err" | head -2 >/dev/null
if grep -q panicked "$pipe_err"; then
    cat "$pipe_err" >&2
    exit 1
fi
if cargo run --release -q -p presence-bench --bin mega_smoke -- --budget-mb 1 2>"$pipe_err" | head -1 >/dev/null; then
    echo "ci.sh: mega_smoke over its budget exited 0" >&2
    exit 1
fi
grep -q 'exceeds the 1 MiB budget' "$pipe_err"
if grep -q panicked "$pipe_err"; then
    cat "$pipe_err" >&2
    exit 1
fi
rm -f "$pipe_err"

# Experiments stage: `experiments all` is documented as byte-identical at
# any worker count (reports merge in catalog order); run it serially and
# on two workers at its default reduced scale (~1 s on two cores) and
# compare.
echo "==> experiments all: byte-identical at --jobs 1 and --jobs 2"
serial="$(mktemp)"
pooled="$(mktemp)"
cargo run --release -q -p presence-bench --bin experiments -- all --jobs 1 >"$serial"
cargo run --release -q -p presence-bench --bin experiments -- all --jobs 2 >"$pooled"
cmp "$serial" "$pooled"
rm -f "$serial" "$pooled"

# Examples stage: `cargo test` compiles examples/ but never runs them, and
# they are the only callers of a few public items (`BatchMeans::batches`
# and `verdict`, `kv_table`, `ascii_chart`). Run every one in release
# (~2.5 s together, most of it the UDP demo's wall-clock wait); a
# non-zero exit fails the stage.
echo "==> examples: run every example (release)"
for example in examples/*.rs; do
    name="$(basename "$example" .rs)"
    echo "--> $name"
    cargo run --release -q --example "$name" >/dev/null
done

# Trace stage: export a Perfetto trace from the mixed-regime acceptance
# scenario, engine stream included, and put it through the full read-back
# path — `spotter` parses it, checks every structural invariant (events at
# all, named tracks, flow begin ≤ end, counter monotonicity), and prints
# the digest with `lab`'s regime windows read from the trace; a malformed
# or empty trace exits non-zero. The 260 s cap takes in the delay switch
# at 200 s and the loss switch at 250 s, so the read-back crosses regime
# boundaries of both network kinds, each a `dispatch` on `net0`
# (release, 2-core guest: `lab` 0.1 s, `spotter` 0.3 s, a 5.1 MB trace).
echo "==> trace stage: lab --trace --trace-engine + spotter validation (mixed-regime-stress, first 260 s)"
cargo run --release -q -p presence-bench --bin lab -- \
    mixed-regime-stress --seeds 1 --trace target/trace_ci.json --trace-until 260 --trace-engine
cargo run --release -q -p presence-bench --bin spotter -- target/trace_ci.json
rm -f target/trace_ci.json

# Zero-cost-when-off: with tracing disarmed (the default everywhere
# else), the steady-state loop must allocate nothing — in release mode
# too, where tier-1's debug-profile run of the same suite does not reach.
# The host's row: a warm UDP shard pair (64 DCPP CPs on 8 devices, wall
# clock) must serve a steady probe load without allocating either.
echo "==> tracing-off re-check: alloc steady-state gates, simulator and UDP host (release)"
cargo test --release -q --test alloc_steady_state
cargo test --release -q --test alloc_host_steady_state

# Size ledger (ROADMAP aim 2): the non-test lines under crates/*/src,
# shims excluded, beside it the shims' whole line count (every build
# compiles them), and the test lines: the in-file test modules the tree
# line cuts plus the out-of-line test files. It prints and does not gate.
# A file is cut at the `#[cfg(test)]` that opens a `mod`, not at its
# first `#[cfg(test)]` (a `#[cfg(test)]` field, as in `mega.rs`'s shard,
# would stop the count mid-file).
echo "==> size ledger (prints, does not gate)"
read -r tree_lines inline_test_lines < <(
    find crates -path crates/shims -prune -o -path '*/src/*' -name '*.rs' -print0 |
    xargs -0 awk '
        FNR == 1 { cut = 0; cfg = 0 }
        cut { t++; next }
        cfg && /^[[:space:]]*(pub(\([a-z]+\))? )?mod / { cut = 1; n--; t += 2; next }
        { n++; cfg = /^[[:space:]]*#\[cfg\(test\)\]/ }
        END { print n, t }')
shim_lines="$(cat crates/shims/*/src/*.rs | wc -l)"
test_file_lines="$(cat tests/*.rs crates/*/tests/*.rs | wc -l)"
echo "tree: $tree_lines non-test lines under crates/*/src (shims excluded)"
echo "shims: $shim_lines lines under crates/shims/*/src"
echo "tests: $((inline_test_lines + test_file_lines)) test lines ($inline_test_lines in-file test modules under crates/*/src, $test_file_lines in tests/*.rs and crates/*/tests/*.rs)"

echo "==> ci.sh: all green"
