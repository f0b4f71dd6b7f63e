#!/usr/bin/env bash
# Alternated benchmark pairs of a commit and the working tree.
#
# Usage, from anywhere inside a git checkout:
#
#     scripts/bench_pairs.sh REF PAIRS [WORKLOAD]
#
# REF's src/ is exported with `git archive` to .bench_build/pairs/ref/, beside
# copies of the working tree's perfbench/ and BENCHMARK.json, so both sides run
# one harness.  Pair i runs `perfbench/run.py --workload WORKLOAD --seed i
# --seconds 34 --trace 0` once on each side, REF first in odd pairs and the
# working tree first in even ones.  WORKLOAD defaults to `all`.  Each run's
# per-workload results are kept under .bench_build/pairs/{ref,tree}/seedI/.
#
# For every workload and end-to-end metric the summary prints REF's median and
# quartiles, the working tree's median and its change in percent, the number
# of pairs in which the working tree reads lower (ties count for neither), and
# the failed operations of each side.  Tracked files are left unchanged.  One
# pair of `all` takes about 5 minutes on a 2-core VM.
set -euo pipefail

if [ "$#" -lt 2 ] || [ "$#" -gt 3 ]; then
    echo "usage: $0 REF PAIRS [WORKLOAD]" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
commit=$(git -C "$root" rev-parse --verify --quiet "$1^{commit}") \
    || { echo "$0: $1 is not a commit" >&2; exit 2; }
pairs=$2
case "$pairs" in
    ''|*[!0-9]*|0) echo "$0: PAIRS must be a positive integer" >&2; exit 2 ;;
esac
workload=${3:-all}

work="$root/.bench_build/pairs"
rm -rf "$work"
mkdir -p "$work/ref" "$work/tree"
git -C "$root" archive "$commit" src | tar -x -C "$work/ref"
cp -r "$root/perfbench" "$root/BENCHMARK.json" "$work/ref/"

# run SIDE DIR SEED: one benchmark run from DIR; keeps its per-workload results
run() {
    local side=$1 dir=$2 seed=$3
    local out="$work/$side/seed$seed"
    mkdir -p "$out"
    (cd "$dir" && python3 perfbench/run.py --workload "$workload" --seed "$seed" \
            --seconds 34 --trace 0 > "$out/stdout.txt" \
        && cp .bench_build/results/*-seed"$seed"-trace0.json "$out/")
    echo "pair $seed: $side done ($(tail -n 1 "$out/stdout.txt" | cut -c1-60)...)"
}

for seed in $(seq 1 "$pairs"); do
    if [ $((seed % 2)) -eq 1 ]; then
        run ref "$work/ref" "$seed"
        run tree "$root" "$seed"
    else
        run tree "$root" "$seed"
        run ref "$work/ref" "$seed"
    fi
done

python3 - "$work" "$pairs" "${commit:0:7}" <<'EOF'
import glob
import json
import os
import sys

work, pairs, ref = sys.argv[1], int(sys.argv[2]), sys.argv[3]
with open(os.path.join(work, "ref", "BENCHMARK.json"), encoding="utf-8") as handle:
    metrics = [m["name"] for m in json.load(handle)["end_to_end"]]


def load(side):
    """{workload: [result per pair]} of one side."""
    runs = {}
    for seed in range(1, pairs + 1):
        for path in sorted(glob.glob(os.path.join(work, side, f"seed{seed}", "*-trace0.json"))):
            with open(path, encoding="utf-8") as handle:
                details = json.load(handle)
            runs.setdefault(details["workload"], []).append(details["result"])
    return runs


def quantile(values, q):
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (pos - low) * (ordered[high] - ordered[low])


before, after = load("ref"), load("tree")
print(f"{pairs} alternated pair(s): {ref} against the working tree")
print(f"{'workload':16s} {'metric':12s} {'median [q1, q3] of ' + ref:>34s} "
      f"{'tree median':>12s} {'change':>8s} {'lower':>6s}")
for name in before:
    for metric in metrics:
        a = [r["metrics"][metric]["value"] for r in before[name]]
        b = [r["metrics"][metric]["value"] for r in after.get(name, [])]
        if None in a or None in b or len(a) != len(b):
            print(f"{name:16s} {metric:12s} not measured on every run")
            continue
        med_a, med_b = quantile(a, 0.5), quantile(b, 0.5)
        spread = f"{med_a:.4g} [{quantile(a, 0.25):.4g}, {quantile(a, 0.75):.4g}]"
        change = 100.0 * (med_b - med_a) / med_a if med_a else float("nan")
        lower = sum(y < x for x, y in zip(a, b))
        print(f"{name:16s} {metric:12s} {spread:>34s} {med_b:12.4g} {change:+7.1f}% "
              f"{lower:3d}/{len(a)}")
    for side, runs in ((ref, before[name]), ("tree", after.get(name, []))):
        failed = [r["failed"] for r in runs]
        attempted = sum(r["attempted"] for r in runs)
        print(f"{name:16s} failed operations of {side}: {sum(failed)} of {attempted} "
              f"(per pair {failed})")
EOF
