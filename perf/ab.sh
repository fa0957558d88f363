#!/usr/bin/env bash
# Paired A/B comparison of two revisions on the repo benchmark
# (perf/README.md, "Comparing two revisions").
#
#   perf/ab.sh REV_A REV_B [PAIRS]        PAIRS defaults to 10
#
# Exports each revision with `git archive` into build-perf-<rev>/src,
# replaces its perf/ with this checkout's perf/ so that both sides run the
# same benchmark code, and builds mac3d_perf in build-perf-<rev>/build.
# Then runs PAIRS pairs of every workload in BENCHMARK.json: pair i uses
# seed i, and the side that runs first alternates from pair to pair.
# Prints, per workload and end-to-end metric, each side's median and
# quartiles, the fraction of pairs B wins, and a verdict: "gain" needs at
# least 10 pairs, B winning 9 in 10 of them, and medians that differ by
# more than A's own quartile spread; "regression" means B's median is
# worse than A's by more than the metric's bound; "unresolved" means A's
# spread is wider than the bound and the runs overlap.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 3 ]]; then
  echo "usage: perf/ab.sh REV_A REV_B [PAIRS]" >&2
  exit 2
fi
root=$(git rev-parse --show-toplevel)
pairs=${3:-10}
bench="$root/BENCHMARK.json"
seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$bench")
workloads=$(python3 -c 'import json, sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$bench")

build_rev() {
  local rev=$1 dir
  dir="$root/build-perf-$(git -C "$root" rev-parse --short "$rev")"
  rm -rf "$dir/src"
  mkdir -p "$dir/src"
  git -C "$root" archive "$rev" | tar -x -C "$dir/src"
  rm -rf "$dir/src/perf"
  cp -R "$root/perf" "$dir/src/perf"
  cmake -S "$dir/src/perf" -B "$dir/build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
  cmake --build "$dir/build" --target mac3d_perf -j 4 >&2
  echo "$dir/build/mac3d_perf"
}

bin_a=$(build_rev "$1")
bin_b=$(build_rev "$2")
out="$root/build-perf-ab"
rm -rf "$out"
mkdir -p "$out"

for ((i = 1; i <= pairs; ++i)); do
  for workload in $workloads; do
    if ((i % 2)); then order="A B"; else order="B A"; fi
    for side in $order; do
      if [[ $side == A ]]; then bin=$bin_a; else bin=$bin_b; fi
      if ! "$bin" --workload "$workload" --seed "$i" --seconds "$seconds" \
          --json "$out/$workload.$i.$side.json" > "$out/$workload.$i.$side.log"; then
        echo "perf/ab.sh: $side ($workload, seed $i) failed; see $out/$workload.$i.$side.log" >&2
        exit 1
      fi
    done
  done
  echo "pair $i of $pairs done" >&2
done

python3 - "$bench" "$out" "$pairs" "$1" "$2" <<'EOF'
import json
import statistics
import sys

bench = json.load(open(sys.argv[1]))
out, pairs, rev_a, rev_b = sys.argv[2], int(sys.argv[3]), sys.argv[4], sys.argv[5]


def load(workload, i, side):
    return json.load(open(f"{out}/{workload}.{i}.{side}.json"))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


print(f"A = {rev_a}, B = {rev_b}, {pairs} pairs")
for workload in (w["name"] for w in bench["workloads"]):
    runs = {side: [load(workload, i, side) for i in range(1, pairs + 1)]
            for side in "AB"}
    failed = {side: sum(r["failed"] for r in runs[side]) for side in "AB"}
    print(f"\n{workload}  (ops_failed A {failed['A']}, B {failed['B']})")
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1 if metric["better"] == "higher" else -1
        a = [r["metrics"][name]["value"] for r in runs["A"]]
        b = [r["metrics"][name]["value"] for r in runs["B"]]
        med_a, med_b = statistics.median(a), statistics.median(b)
        qa, qb = quartiles(a), quartiles(b)
        wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
        change = (med_b - med_a) / med_a if med_a else 0.0
        if (pairs >= 10 and failed["B"] <= failed["A"]
                and wins >= 0.9 * pairs
                and sign * (med_b - med_a) > qa[1] - qa[0]):
            verdict = "gain"
        elif sign * change < -bound:
            verdict = "regression"
        elif qa[1] - qa[0] > bound * abs(med_a) and not (
                min(sign * y for y in b) > max(sign * x for x in a)):
            verdict = "unresolved"
        else:
            verdict = "within bound"
        print(f"  {name:12s} A {med_a:.6g} [{qa[0]:.6g}, {qa[1]:.6g}]"
              f"  B {med_b:.6g} [{qb[0]:.6g}, {qb[1]:.6g}]"
              f"  {100 * change:+.1f}%  B wins {wins}/{pairs}  {verdict}")
EOF
