#!/usr/bin/env python3
"""Alternated benchmark pairs of a commit and the working tree.

Usage, from anywhere inside a git checkout:

    python3 scripts/bench_pairs.py REF PAIRS [WORKLOAD [FIRST]]

REF's src/ is exported with ``git archive`` to .bench_build/pairs/ref/, beside
copies of the working tree's perfbench/ and BENCHMARK.json, so both sides run
one harness.  The pairs use the seeds FIRST to FIRST + PAIRS - 1 (FIRST
defaults to 1, so a claim can be confirmed on seeds not used before).  WORKLOAD
defaults to ``all``, every workload of BENCHMARK.json in its order.  Pair i
runs ``perfbench/run.py --workload W --seed i --seconds S --trace 0`` once per
workload W on each side, from that side's root, REF first at odd seeds and the
working tree first at even ones; S is BENCHMARK.json's ``run_seconds``.  The
result of a run is the last line of its output, the JSON object that run.py
documents as its result; the whole output is kept as
.bench_build/pairs/{ref,tree}/seedI/W.txt.

For every workload and end-to-end metric the summary prints REF's median and
quartiles, the working tree's median and its change in percent, the number
of pairs in which the working tree reads better (ties count for neither), a
verdict, and the failed operations of each side.  "Better" is the metric's
``better`` direction in BENCHMARK.json.  The verdict is the first that holds of:

    worse         the tree's median is worse than REF's by more than the
                  metric's ``bound`` in BENCHMARK.json (a fraction of REF's)
    gain          the tree reads better in at least 9 of 10 pairs and its
                  median is better by more than REF's interquartile range
    unresolved    REF's interquartile range exceeds the bound, and some
                  run of the tree is no better than some run of REF
    within bound  otherwise

A gain also needs failed operations no higher than REF's; compare the
failed-operation lines.  Below those, each side's incorrect runs are named by
seed: the runs whose result reads ``"correct": false`` because one of the
workload's own checks failed.

The summary is also written at the root of the checkout, to
BENCH_<REF's short sha>.json for the pairs of ``all`` from seed 1 and to
BENCH_<REF's short sha>_<WORKLOAD>_<FIRST>.json for any other set: for every
workload and end-to-end metric, REF's and the tree's medians and
interquartile ranges, the number of pairs the tree won, the number of pairs,
the verdict and each side's values in pair order and in the metric's unit
(``ref_values`` and ``tree_values``), so a pair that lost can be found and
read, and for every workload each side's failed operations per
pair and the seeds of its incorrect runs.  Other tracked files are left
unchanged.

Exits 0 when every run finished, 2 on bad usage or a REF that is not a
commit, and with a failing run's own status.  On a 2-core VM one pair of
``all`` takes about 20 s and ten pairs about 3.5 minutes; ten pairs of one
workload take about 1 minute (``time`` read 18.9 s for ``REF 1 all``, 3 min 24 s
for ``REF 10 all`` and 51 s for ``REF 10 safeucb-branin 101``).  Of that, each
run.py start-up takes about 70 ms, so running the workloads one by one costs
about 0.4 s per pair of ``all`` over one ``--workload all`` run per side.
"""
from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_build" / "pairs"


def export_commit(ref: str, paths: list[str], dest: Path) -> str:
    """Resolve ``ref`` to a commit and extract its ``paths`` into ``dest``, emptied first.

    Returns the commit's full sha.  Raises ``LookupError`` when ``ref`` names no commit,
    before ``dest`` is touched, and ``subprocess.CalledProcessError`` when ``git archive``
    fails.
    """
    found = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet",
                            f"{ref}^{{commit}}"], capture_output=True, text=True)
    if found.returncode != 0:
        raise LookupError(f"{ref} is not a commit")
    commit = found.stdout.strip()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit, *paths],
                             stdout=subprocess.PIPE, check=True)
    shutil.rmtree(dest, ignore_errors=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def quantile(values: list[float], q: float) -> float:
    """The ``q`` quantile of ``values``, interpolated linearly between order statistics."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (pos - low) * (ordered[high] - ordered[low])


def verdict(a: list[float], b: list[float], bound: float) -> str:
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


def summarize(ref: str, first: int, metrics: list[dict], before: dict[str, list[dict]],
              after: dict[str, list[dict]]) -> tuple[list[str], dict]:
    """The printed summary and the record of REF's results ``before`` and the tree's
    ``after``, each {workload: [run.py result per pair]} of the pairs from seed ``first``;
    ``metrics`` are BENCHMARK.json's end-to-end metrics."""
    last = first + max(len(runs) for runs in before.values()) - 1
    record = {"ref": ref, "seeds": [first, last], "workloads": {}}
    lines = [f"{last - first + 1} alternated pair(s), seeds {first}-{last}: "
             f"{ref} against the working tree",
             f"{'workload':16s} {'metric':12s} {'median [q1, q3] of ' + ref:>34s} "
             f"{'tree median':>12s} {'change':>8s} {'better':>7s}  verdict"]
    for name in before:
        summary = record["workloads"][name] = {"metrics": {}}
        for metric in metrics:
            key, sign = metric["name"], 1 if metric["better"] == "lower" else -1
            a = [r["metrics"][key]["value"] for r in before[name]]
            b = [r["metrics"][key]["value"] for r in after.get(name, [])]
            if None in a or None in b or len(a) != len(b):
                lines.append(f"{name:16s} {key:12s} not measured on every run")
                continue
            med_a, med_b = quantile(a, 0.5), quantile(b, 0.5)
            iqr_a, iqr_b = (quantile(x, 0.75) - quantile(x, 0.25) for x in (a, b))
            spread = f"{med_a:.4g} [{quantile(a, 0.25):.4g}, {quantile(a, 0.75):.4g}]"
            change = 100.0 * (med_b - med_a) / med_a if med_a else float("nan")
            # the verdict reads every metric as lower-is-better
            lower_a, lower_b = [sign * x for x in a], [sign * y for y in b]
            better = sum(y < x for x, y in zip(lower_a, lower_b))
            ruling = verdict(lower_a, lower_b, metric["bound"])
            lines.append(f"{name:16s} {key:12s} {spread:>34s} {med_b:12.4g} {change:+7.1f}% "
                         f"{better:4d}/{len(a)}  {ruling}")
            summary["metrics"][key] = {
                "ref_median": med_a, "ref_iqr": iqr_a, "tree_median": med_b, "tree_iqr": iqr_b,
                "tree_better": better, "pairs": len(a), "verdict": ruling,
                "ref_values": a, "tree_values": b,
            }
        for side, label, runs in ((ref, "ref", before[name]), ("tree", "tree", after.get(name, []))):
            failed = [r["failed"] for r in runs]
            attempted = sum(r["attempted"] for r in runs)
            incorrect = [first + i for i, r in enumerate(runs) if not r["correct"]]
            summary[f"failed_{label}"] = failed
            summary[f"incorrect_{label}"] = incorrect
            lines.append(f"{name:16s} failed operations of {side}: {sum(failed)} of {attempted} "
                         f"(per pair {failed})")
            lines.append(f"{name:16s} incorrect runs of {side}: "
                         f"{f'seeds {incorrect}' if incorrect else 'none'}")
    return lines, record


def record_name(ref: str, workload: str, first: int) -> str:
    """The file name of the record of the pairs of ``workload`` from seed ``first``."""
    if workload == "all" and first == 1:
        return f"BENCH_{ref}.json"
    return f"BENCH_{ref}_{workload}_{first}.json"


def run(side: str, root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run.py run of ``workload`` from ``root``; keeps its output and returns its result."""
    out = WORK / side / f"seed{seed}" / f"{workload}.txt"
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", encoding="utf-8") as handle:
        subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                       cwd=root, stdout=handle, check=True)
    last = out.read_text(encoding="utf-8").splitlines()[-1]
    print(f"pair {seed}: {side} {workload} done ({last[:60]}...)", flush=True)
    return json.loads(last)


def _count(text: str) -> int | None:
    return int(text) if text.isascii() and text.isdigit() else None


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not 2 <= len(argv) <= 4:
        print(f"usage: {sys.argv[0]} REF PAIRS [WORKLOAD [FIRST]]", file=sys.stderr)
        return 2
    ref, pairs, workload, first = argv + ["all", "1"][len(argv) - 2:]
    pairs, first = _count(pairs), _count(first)
    if not pairs:
        print(f"{sys.argv[0]}: PAIRS must be a positive integer", file=sys.stderr)
        return 2
    if first is None:
        print(f"{sys.argv[0]}: FIRST must be a nonnegative integer", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]] if workload == "all" else [workload]
    sides = {"ref": WORK / "ref", "tree": ROOT}
    try:
        label = export_commit(ref, ["src"], sides["ref"])[:7]
    except LookupError as error:
        print(f"{sys.argv[0]}: {error}", file=sys.stderr)
        return 2
    except subprocess.CalledProcessError as error:
        return error.returncode
    shutil.rmtree(WORK / "tree", ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", sides["ref"] / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", sides["ref"])
    results = {side: {name: [] for name in names} for side in sides}
    try:
        for seed in range(first, first + pairs):
            for side in ("ref", "tree") if seed % 2 else ("tree", "ref"):
                for name in names:
                    results[side][name].append(
                        run(side, sides[side], name, seed, bench["run_seconds"]))
    except subprocess.CalledProcessError as error:
        return error.returncode
    lines, record = summarize(label, first, bench["end_to_end"], results["ref"], results["tree"])
    path = ROOT / record_name(label, workload, first)
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("\n".join(lines))
    print(f"summary written to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
