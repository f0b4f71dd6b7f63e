"""One workload process of the benchmark; ``run.py`` starts it.

    python3 perfbench/worker.py setup --workload W --seed N
    python3 perfbench/worker.py run --workload W --seed N --trace 0|1

``setup`` times ``import samsbo``, problem construction and model
initialization in this fresh interpreter.  ``run`` times the workload's fixed
number of repetitions (``--trace 0``) or, with ``--trace 1``, its first
repetition three times: untraced, traced, untraced again.  The first untraced run warms the process
up (allocator, caches) and gives the result the traced run must reproduce;
the second gives the warm untraced time the tracing overhead is taken
against.  Either role prints one JSON object as its last line of output.
BLAS is pinned to one thread before numpy is first imported.
"""
import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402 - the thread pins above must come first
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

SPEC_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "spec.json")


def environment() -> dict:
    """Thread settings, core count, BLAS builds and versions of this process."""
    import platform

    import numpy
    import scipy

    def blas(module) -> dict:
        deps = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {key: deps.get(key) for key in ("name", "version", "openblas configuration")}

    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = None
    return {
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "process_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
    }


def check_source(samsbo) -> None:
    """Refuse to measure any samsbo but the one under ./src."""
    expected = os.path.realpath(os.path.join("src", "samsbo"))
    found = os.path.realpath(os.path.dirname(samsbo.__file__))
    if found != expected:
        raise SystemExit(f"imported samsbo from {found}, expected {expected}")


def role_setup(spec: dict, seed: int) -> dict:
    start = time.perf_counter()
    import samsbo
    imported = time.perf_counter()
    check_source(samsbo)
    import calib
    import workloads
    parts = {"import_s": imported - start, **workloads.setup_after_import(spec, seed)}
    parts["total_s"] = sum(parts.values())
    return {"parts": parts, "unit_after_s": calib.Calibrator().now()}


def _repetition_summary(rep, samples, nominal) -> dict:
    from harness import normalize_spans
    op_norm = normalize_spans(rep.op_spans, samples, nominal)
    other_norm = normalize_spans(rep.other_spans, samples, nominal)
    op_raw = [end - start for start, end in rep.op_spans]
    other_raw = [end - start for start, end in rep.other_spans]
    return {
        "op_spans": rep.op_spans, "other_spans": rep.other_spans,
        "op_raw_s": op_raw, "op_s": op_norm,
        "other_raw_s": other_raw, "other_s": other_norm,
        "rep_raw_s": sum(op_raw) + sum(other_raw), "rep_s": sum(op_norm) + sum(other_norm),
        "completed": rep.completed, "attempted": rep.tally.attempted, "stalled": rep.tally.stalled,
        "unsafe": rep.tally.unsafe, "raised": rep.tally.raised,
        "digest": rep.digest, "checks": rep.checks, "errors": rep.errors, "notes": rep.notes,
    }


def _layer_summary(tracer, scale: float) -> dict:
    """Layer stats of one traced repetition, times scaled by calibration."""
    return {
        name: {"calls": rec.calls, "self_s": rec.self_s * scale,
               "durations_ms": [1000.0 * d * scale for d in rec.durations]}
        for name, rec in tracer.stats.items()
    } | {
        name: {"numerator": num, "denominator": den}
        for name, (num, den) in tracer.ratios.items()
    }


def role_run(spec: dict, name: str, seed: int, traced: bool) -> dict:
    import samsbo
    check_source(samsbo)
    import calib
    import layertrace
    import workloads

    wl = spec["workloads"][name]
    nominal = spec["nominal_unit_s"]
    calibrator = calib.Calibrator()
    untraced, traced_reps, rerun, layers = [], [], [], []

    def timed(rep: int):
        calibrator.now()
        started = len(calibrator.samples)
        result = workloads.repetition(wl, seed, rep, calibrator.maybe)
        calibrator.now()
        return result, [c for _, c in calibrator.samples[started - 1:]]

    if not traced:
        untraced = [timed(rep)[0] for rep in range(wl["repetitions"])]
    else:
        untraced.append(timed(0)[0])
        tracer = layertrace.Tracer()
        layertrace.install(tracer)
        try:
            result, units = timed(0)
        finally:
            tracer.unpatch()
        traced_reps.append(result)
        layers.append(_layer_summary(tracer, nominal * len(units) / sum(units)))
        rerun.append(timed(0)[0])
    samples = calibrator.samples
    return {
        "repetitions": [_repetition_summary(r, samples, nominal) for r in untraced],
        "traced_repetitions": [_repetition_summary(r, samples, nominal) for r in traced_reps],
        "warm_repetitions": [_repetition_summary(r, samples, nominal) for r in rerun],
        "layers": layers,
        "calibration_samples": samples,
        "nominal_unit_s": nominal,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("role", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(SPEC_PATH, encoding="utf-8") as handle:
        spec = json.load(handle)
    if args.workload not in spec["workloads"]:
        parser.error(f"unknown workload {args.workload!r}")
    if args.role == "setup":
        out = role_setup(spec["workloads"][args.workload], args.seed)
    else:
        out = role_run(spec, args.workload, args.seed, bool(args.trace))
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
