"""samsbo benchmark: four workloads, calibration-normalized timings, layer trace.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload branin-samsbo --seed 1 --seconds 34 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 34 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics of a traced run.  Each workload runs a fixed number of
repetitions (spec.json), sized so that the longest untraced run measures about
BENCHMARK.json's ``run_seconds``; ``--seconds`` is recorded, not used.  Every
timing is divided by a calibration unit measured next to it (see calib.py)
and multiplied by the nominal unit in spec.json, so the figures are seconds
on a machine whose unit takes the nominal time.  Set-up is timed in several fresh interpreters and
reported as their median.  The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; details, including raw
seconds and calibration samples, go to .bench_build/results/.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
sys.path.insert(0, HERE)

from harness import median, normalize, tail  # noqa: E402

BUILD_DIR = ".bench_build"
SETUP_PROCESSES = 3
DEADLINE_S = 170  # per workload: set-ups plus run, so a run ends within 180 s


def child_env() -> dict:
    """This process's environment (BLAS pinned above) with ./src importable."""
    return {**os.environ, "PYTHONPATH": os.path.abspath("src")}


def call_worker(args: list[str], deadline: float) -> dict:
    """Run the worker to completion and parse its last line of output.

    A worker still running at ``deadline`` (a ``time.monotonic()`` value) is
    killed and waited for, and ``subprocess.TimeoutExpired`` is raised.
    """
    proc = subprocess.run([sys.executable, WORKER, *args], env=child_env(),
                          timeout=max(1.0, deadline - time.monotonic()),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(name: str, seed: int, nominal: float, deadline: float) -> list[dict]:
    """Fresh-interpreter set-ups, each normalized by units before and after it."""
    import calib
    calibrator = calib.Calibrator()
    probes = []
    for _ in range(SETUP_PROCESSES):
        before = calibrator.now()
        out = call_worker(["setup", "--workload", name, "--seed", str(seed)], deadline)
        unit = (before + out["unit_after_s"]) / 2.0
        out["unit_before_s"] = before
        out["normalized"] = {k: normalize(v, unit, nominal) for k, v in out["parts"].items()}
        probes.append(out)
    return probes


def end_to_end(run: dict, probes: list[dict]) -> tuple[dict, dict]:
    """End-to-end metric values and the tail's percentile and sample count.

    The median step is taken within each repetition and then across them:
    step cost grows with the dataset, so pooled steps of a short loop cluster
    by iteration and a pooled median falls on the edge between two clusters.
    The tail is pooled over repetitions.  ``rep_s`` counts the repetitions
    that ran every step; one cut short by a raise is a failure, not a campaign.
    A metric with nothing to measure is None, and the run is then not correct.
    """
    reps = [rep for rep in run["repetitions"] if rep["op_s"]]
    complete = [rep for rep in reps if rep["completed"]]
    steps = [s for rep in reps for s in rep["op_s"]]
    tail_value, tail_pct, tail_n = tail(steps) if steps else (None, None, 0)
    values = {
        "setup_s": median([p["normalized"]["total_s"] for p in probes]),
        "rep_s": median([rep["rep_s"] for rep in complete]) if complete else None,
        "step_s.p50": median([median(rep["op_s"]) for rep in reps]) if reps else None,
        "step_s.tail": tail_value,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    return values, {"tail_percentile": tail_pct, "tail_samples": tail_n}


def _layer(layers: list[dict], name: str) -> tuple[float, float, float]:
    """Calls and self seconds per repetition, and the median ms per call."""
    recs = [lay.get(name, {"calls": 0, "self_s": 0.0, "durations_ms": []}) for lay in layers]
    calls = sum(r["calls"] for r in recs) / len(recs)
    self_s = sum(r["self_s"] for r in recs) / len(recs)
    return calls, self_s, median([d for r in recs for d in r["durations_ms"]])


def per_layer(run: dict, probes: list[dict], metric_names: list[str]) -> dict:
    layers = run["layers"]
    values = {}
    for metric in metric_names:
        if metric.startswith("setup."):
            values[metric] = median([p["normalized"][metric[6:]] for p in probes])
        elif metric == "trace.overhead":
            pairs = zip(run["traced_repetitions"], run["warm_repetitions"])
            values[metric] = median([t["rep_s"] / u["rep_s"] for t, u in pairs])
        elif metric.endswith((".calls", ".ms", ".self_s")):
            layer, _, field = metric.rpartition(".")
            calls, self_s, ms = _layer(layers, layer)
            values[metric] = {"calls": calls, "ms": ms, "self_s": self_s}[field]
        else:  # ratio counters
            nums = [lay.get(metric, {}).get("numerator", 0.0) for lay in layers]
            dens = [lay.get(metric, {}).get("denominator", 0.0) for lay in layers]
            values[metric] = sum(nums) / sum(dens) if sum(dens) else 0.0
    return values


def trace_checks(run: dict, wl: dict) -> dict[str, bool]:
    fired = {name for lay in run["layers"] for name, rec in lay.items() if rec.get("calls")}
    missing = sorted(set(wl["expect_spans"]) - fired)
    loud = sorted(set(wl["expect_silent"]) & fired)
    same = all(t["digest"] == u["digest"] == w["digest"] for t, u, w in zip(
        run["traced_repetitions"], run["repetitions"], run["warm_repetitions"]))
    checks = {"trace_digest_matches_untraced": same and bool(run["traced_repetitions"]),
              "expected_spans_fired": not missing, "silent_spans_silent": not loud}
    if missing:
        print(f"  spans that never fired: {', '.join(missing)}")
    if loud:
        print(f"  spans that should not fire: {', '.join(loud)}")
    return checks


def planned_operations(wl: dict, traced: bool) -> int:
    """Operations a run attempts: iterations, or coverage trials of both suites."""
    per_rep = (wl["iterations"] if wl["kind"] == "loop"
               else wl["bayesian_trials"] + wl["frequentist_trials"])
    # a traced run makes its first repetition untraced, traced and untraced again
    return per_rep * (3 if traced else wl["repetitions"])


def timed_out(name: str, wl: dict, traced: bool, listed: list[dict]) -> dict:
    """The result of a run cut at its deadline: every planned operation failed."""
    ops = planned_operations(wl, traced)
    print(f"== {name}: not finished within {DEADLINE_S} s; all {ops} operations count as failed")
    return {"correct": False, "attempted": ops, "failed": ops,
            "metrics": {m["name"]: {"value": None, "unit": m["unit"]} for m in listed}}


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 spec: dict, bench: dict) -> dict:
    wl = spec["workloads"][name]
    nominal = spec["nominal_unit_s"]
    listed = bench["per_layer" if traced else "end_to_end"]
    deadline = time.monotonic() + DEADLINE_S
    try:
        probes = measure_setup(name, seed, nominal, deadline)
        run = call_worker(["run", "--workload", name, "--seed", str(seed),
                           "--trace", "1" if traced else "0"], deadline)
    except subprocess.TimeoutExpired:
        return timed_out(name, wl, traced, listed)
    reps = run["repetitions"] + run["traced_repetitions"] + run["warm_repetitions"]
    checks = {}
    for rep in reps:
        for key, ok in rep["checks"].items():
            checks[key] = checks.get(key, True) and ok
    extra = {}
    if traced:
        checks.update(trace_checks(run, wl))
        values = per_layer(run, probes, [m["name"] for m in listed])
    else:
        values, extra = end_to_end(run, probes)
        checks["every_metric_measured"] = None not in values.values()
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["stalled"] + rep["unsafe"] + rep["raised"] for rep in reps)
    result = {
        "correct": all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }
    report(name, result, checks, reps, extra, run["environment"])
    details = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
               "result": result, "checks": checks, **extra, "setup_processes": probes, "run": run}
    os.makedirs(os.path.join(BUILD_DIR, "results"), exist_ok=True)
    path = os.path.join(BUILD_DIR, "results", f"{name}-seed{seed}-trace{int(traced)}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(details, handle)
    print(f"  details: {path}")
    return result


def report(name: str, result: dict, checks: dict, reps: list[dict], extra: dict, env: dict) -> None:
    print(f"== {name}: {len(reps)} repetition(s)")
    for metric, entry in result["metrics"].items():
        value = "not measured" if entry["value"] is None else f"{entry['value']:.6g}"
        print(f"  {metric:45s} {value:>14s} {entry['unit']}")
    if extra.get("tail_samples"):
        print(f"  step_s.tail is p{extra['tail_percentile']:.2f} of {extra['tail_samples']} samples")
    kinds = {k: sum(rep[k] for rep in reps) for k in ("stalled", "unsafe", "raised")}
    print(f"  operations: {result['attempted']} attempted, {result['failed']} failed "
          f"({', '.join(f'{v} {k}' for k, v in kinds.items())})")
    for rep in reps:
        for error in rep["errors"]:
            print(f"  error: {error}")
    for key, ok in checks.items():
        print(f"  check {key}: {'PASS' if ok else 'FAIL'}")
    for note in ("bayesian", "frequentist"):
        if note in reps[0]["notes"]:
            print(f"  {reps[0]['notes'][note]}")
    print(f"  environment: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}, BLAS threads {env['blas_threads']}, "
          f"BLAS {env['numpy_blas']['name']} {env['numpy_blas']['version']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="recorded with the results; the work of a run is fixed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "samsbo", "__init__.py")):
        print("run from the root of a samsbo checkout: src/samsbo is missing", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    names = list(spec["workloads"]) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in spec["workloads"]]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(spec['workloads'])}")
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), spec, bench)
               for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
