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
# was reused from reaching the event that took it.
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
# prints their iterations/s, join latency and shard CPU.
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
# Then the stress gate: the sharded host must sustain 10k devices + 10k
# probers on the wall clock with zero backpressure drops, zero decode
# errors, zero receive or send errors, zero unroutable datagrams, and zero
# false verdicts.
echo "==> conformance: sim oracle vs UDP runtime at RUNTIME_SHARDS=1 and =4"
RUNTIME_SHARDS=1 cargo test --release -q -p presence-bench --test conformance
RUNTIME_SHARDS=4 cargo test --release -q -p presence-bench --test conformance
echo "==> conformance stress: 10k devices on loopback, zero-drop gate (RUNTIME_SHARDS=4)"
RUNTIME_SHARDS=4 cargo run --release -q -p presence-bench --bin conformance -- --stress 10000

# Mega-scale smoke: the 100k-device calendar-queue + streaming-recorder
# configuration (mega-ci) must finish with sane physics (wait mean within
# 10 % of the spec's d_min floor, zero failed cycles) inside a bounded peak
# RSS — the flat-memory claim of the streaming recorders, enforced via VmHWM.
echo "==> mega smoke: 100k-device shard, bounded RSS (mega_smoke --budget-mb 512)"
cargo run --release -q -p presence-bench --bin mega_smoke -- --budget-mb 512

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
# --seed x`, `conformance --stress 0`), whose message names it; and
# `golden_fixtures --bogus`, which must not take the flag for its output
# directory.
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
{ cargo run --release -q -p presence-bench --bin conformance -- --stress 0 2>&1 >/dev/null || [[ $? -eq 1 ]]; } | grep -q -- 'conformance: --stress'
{ cargo run --release -q -p presence-bench --bin golden_fixtures -- --bogus 2>&1 >/dev/null || [[ $? -eq 1 ]]; } | grep -q -- 'golden_fixtures: usage'
[[ ! -e ./--bogus ]]
rm -f "$bad_spec"

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
# boundaries of both kinds a network model makes without an event
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

echo "==> ci.sh: all green"
