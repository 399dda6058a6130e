#!/usr/bin/env bash
# A/A check: the same code measured as two independent sets of runs must
# agree with itself. Runs every workload RUNS times per set, prints each
# set's median and quartiles per end-to-end metric, and fails if the two
# medians of any metric differ by more than the bound BENCHMARK.json fixes
# for it, or if any operation of any run failed (the workloads are chosen so
# that none does). The sets are interleaved run by run (A then B of one workload,
# the set that goes first alternating) and every run has its own seed: this
# box slows memory- and kernel-bound code by up to 1.9x for half a minute
# after any sustained load, so two sets only see the same box if their runs
# sit next to each other.
#
#   benchmark/aa.sh [RUNS=5] [SECONDS=run_seconds of BENCHMARK.json]
set -euo pipefail
cd "$(dirname "$0")/.."

RUNS="${1:-5}"
SECS="${2:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml
BIN="$CARGO_TARGET_DIR/release/presence-benchmark"
OUT=benchmark/out/aa
mkdir -p "$OUT"
rm -f "$OUT"/*.jsonl

WORKLOADS=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for i in $(seq 1 "$RUNS"); do
    if (( i % 2 )); then order="A B"; else order="B A"; fi
    for workload in $WORKLOADS; do
        for set in $order; do
            if [[ $set == A ]]; then seed=$((1000 + i)); else seed=$((2000 + i)); fi
            echo "set $set run $i/$RUNS: $workload (seed $seed)" >&2
            "$BIN" --workload "$workload" --seed "$seed" --seconds "$SECS" --trace 0 \
                | tail -n 1 >> "$OUT/$set-$workload.jsonl"
        done
    done
done

python3 - "$OUT" <<'EOF'
import json, statistics, sys

out = sys.argv[1]
bench = json.load(open("BENCHMARK.json"))
failed = False

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3

for workload in (w["name"] for w in bench["workloads"]):
    runs = {s: [json.loads(l) for l in open(f"{out}/{s}-{workload}.jsonl")] for s in "AB"}
    print(f"\n{workload}")
    print(f"  {'metric':<16} {'set':>3} {'n':>3} {'q1':>12} {'median':>12} {'q3':>12} {'iqr/med':>8}")
    for s in "AB":
        wrong = [r for r in runs[s] if not r["correct"]]
        if wrong:
            failed = True
            print(f"  set {s}: {len(wrong)} run(s) not correct")
        lost = sum(r["failed"] for r in runs[s])
        if lost:
            failed = True
            print(f"  set {s}: {lost} of {sum(r['attempted'] for r in runs[s])} operations FAILED")
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        med = {}
        for s in "AB":
            values = [r["metrics"][name]["value"] for r in runs[s]]
            q1, q2, q3 = quartiles(values)
            med[s] = q2
            print(f"  {name:<16} {s:>3} {len(values):>3} {q1:>12.5g} {q2:>12.5g} {q3:>12.5g} {(q3 - q1) / q2:>8.3f}")
        gap = abs(med["A"] - med["B"]) / min(med["A"], med["B"])
        verdict = "ok" if gap <= bound else "DISAGREE"
        failed |= gap > bound
        print(f"  {name:<16} A vs B medians differ by {gap:.3f} (bound {bound}) {verdict}")

sys.exit(1 if failed else 0)
EOF
