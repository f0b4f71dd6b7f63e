#!/usr/bin/env bash
# Alternated benchmark pairs of a commit and the working tree.
#
# Usage, from anywhere inside a git checkout:
#
#     scripts/bench_pairs.sh REF PAIRS [WORKLOAD [FIRST]]
#
# REF's src/ is exported with `git archive` to .bench_build/pairs/ref/, beside
# copies of the working tree's perfbench/ and BENCHMARK.json, so both sides run
# one harness.  The pairs use the seeds FIRST to FIRST + PAIRS - 1 (FIRST
# defaults to 1, so a claim can be confirmed on seeds not used before).  Pair
# i runs `perfbench/run.py --workload WORKLOAD --seed i --seconds 34 --trace 0`
# once on each side, REF first at odd seeds and the working tree first at even
# ones.  WORKLOAD defaults to `all`.  Each run's per-workload results, and only
# that run's, are kept under .bench_build/pairs/{ref,tree}/seedI/.
#
# For every workload and end-to-end metric the summary prints REF's median and
# quartiles, the working tree's median and its change in percent, the number
# of pairs in which the working tree reads better (ties count for neither), a
# verdict, and the failed operations of each side.  "Better" is the metric's
# `better` direction in BENCHMARK.json; every end-to-end metric there is
# better lower.  The verdict is the first that holds of:
#
#     worse         the tree's median is worse than REF's by more than the
#                   metric's `bound` in BENCHMARK.json (a fraction of REF's)
#     gain          the tree reads better in at least 9 of 10 pairs and its
#                   median is better by more than REF's interquartile range
#     unresolved    REF's interquartile range exceeds the bound, and some
#                   run of the tree is no better than some run of REF
#     within bound  otherwise
#
# A gain also needs failed operations no higher than REF's; compare the
# failed-operation lines.
#
# The summary is also written to BENCH_<REF's short sha>.json at the root of
# the checkout: for every workload and end-to-end metric, REF's and the
# tree's medians and interquartile ranges, the number of pairs the tree won,
# the number of pairs and the verdict, and for every workload each side's
# failed operations per pair.  Other tracked files are left unchanged.  On a
# 2-core VM one pair of `all` takes about 25 s and ten pairs about 4 minutes
# (`time scripts/bench_pairs.sh REF 1 all` read 25.2 s, and with 10 pairs
# 3 min 41 s); ten pairs of one workload take about 1 minute.
set -euo pipefail

if [ "$#" -lt 2 ] || [ "$#" -gt 4 ]; then
    echo "usage: $0 REF PAIRS [WORKLOAD [FIRST]]" >&2
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
first=${4:-1}
case "$first" in
    ''|*[!0-9]*) echo "$0: FIRST must be a nonnegative integer" >&2; exit 2 ;;
esac
last=$((first + pairs - 1))

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
    # results of earlier runs at this seed, of any workload, must not be copied
    rm -f "$dir"/.bench_build/results/*-seed"$seed"-trace0.json
    (cd "$dir" && python3 perfbench/run.py --workload "$workload" --seed "$seed" \
            --seconds 34 --trace 0 > "$out/stdout.txt" \
        && cp .bench_build/results/*-seed"$seed"-trace0.json "$out/")
    echo "pair $seed: $side done ($(tail -n 1 "$out/stdout.txt" | cut -c1-60)...)"
}

for seed in $(seq "$first" "$last"); do
    if [ $((seed % 2)) -eq 1 ]; then
        run ref "$work/ref" "$seed"
        run tree "$root" "$seed"
    else
        run tree "$root" "$seed"
        run ref "$work/ref" "$seed"
    fi
done

python3 - "$work" "$first" "$last" "${commit:0:7}" "$root" <<'EOF'
import glob
import json
import os
import sys

work, first, last, ref, root = (sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4],
                                sys.argv[5])
with open(os.path.join(work, "ref", "BENCHMARK.json"), encoding="utf-8") as handle:
    metrics = json.load(handle)["end_to_end"]


def load(side):
    """{workload: [result per pair]} of one side."""
    runs = {}
    for seed in range(first, last + 1):
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


def verdict(a, b, bound):
    """One verdict for REF's runs ``a`` and the tree's ``b``, paired, of a lower-is-better metric."""
    med_a, med_b = quantile(a, 0.5), quantile(b, 0.5)
    iqr = quantile(a, 0.75) - quantile(a, 0.25)
    if med_b - med_a > bound * abs(med_a):
        return "worse"
    if 10 * sum(y < x for x, y in zip(a, b)) >= 9 * len(a) and med_a - med_b > iqr:
        return "gain"
    if iqr > bound * abs(med_a) and max(b) >= min(a):
        return "unresolved"
    return "within bound"


before, after = load("ref"), load("tree")
record = {"ref": ref, "seeds": [first, last], "workloads": {}}
print(f"{last - first + 1} alternated pair(s), seeds {first}-{last}: {ref} against the working tree")
print(f"{'workload':16s} {'metric':12s} {'median [q1, q3] of ' + ref:>34s} "
      f"{'tree median':>12s} {'change':>8s} {'better':>7s}  verdict")
for name in before:
    summary = record["workloads"][name] = {"metrics": {}}
    for metric in metrics:
        key, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        a = [r["metrics"][key]["value"] for r in before[name]]
        b = [r["metrics"][key]["value"] for r in after.get(name, [])]
        if None in a or None in b or len(a) != len(b):
            print(f"{name:16s} {key:12s} not measured on every run")
            continue
        med_a, med_b = quantile(a, 0.5), quantile(b, 0.5)
        iqr_a, iqr_b = (quantile(x, 0.75) - quantile(x, 0.25) for x in (a, b))
        spread = f"{med_a:.4g} [{quantile(a, 0.25):.4g}, {quantile(a, 0.75):.4g}]"
        change = 100.0 * (med_b - med_a) / med_a if med_a else float("nan")
        # the verdict reads every metric as lower-is-better
        a, b = [sign * x for x in a], [sign * y for y in b]
        better = sum(y < x for x, y in zip(a, b))
        ruling = verdict(a, b, metric["bound"])
        print(f"{name:16s} {key:12s} {spread:>34s} {med_b:12.4g} {change:+7.1f}% "
              f"{better:4d}/{len(a)}  {ruling}")
        summary["metrics"][key] = {
            "ref_median": med_a, "ref_iqr": iqr_a, "tree_median": med_b, "tree_iqr": iqr_b,
            "tree_better": better, "pairs": len(a), "verdict": ruling,
        }
    for side, label, runs in ((ref, "ref", before[name]), ("tree", "tree", after.get(name, []))):
        failed = [r["failed"] for r in runs]
        attempted = sum(r["attempted"] for r in runs)
        summary[f"failed_{label}"] = failed
        print(f"{name:16s} failed operations of {side}: {sum(failed)} of {attempted} "
              f"(per pair {failed})")
path = os.path.join(root, f"BENCH_{ref}.json")
with open(path, "w", encoding="utf-8") as handle:
    json.dump(record, handle, indent=1)
    handle.write("\n")
print(f"summary written to {path}")
EOF
