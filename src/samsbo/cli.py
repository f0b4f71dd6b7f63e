"""Command-line entry point: run campaigns, verify bounds, prepare plot data.

``run`` executes the configured repetitions (optionally across processes),
writing one raw CSV of evaluation rows and one aggregate CSV per algorithm
plus a JSON manifest with every seed needed for exact reproduction.  Wall
times live in the manifest only, so output CSVs are byte-identical across
reruns with the same seed.  ``verify-bounds`` runs the Monte Carlo coverage
suites; ``plotdata`` condenses raw CSVs into long-format summary rows.

Only ``run`` imports the ``scipy`` package (for the manifest's version) and
``concurrent.futures`` (for ``jobs`` > 1), inside :func:`cmd_run`, so
``verify-bounds`` and ``plotdata`` load neither scipy's package init nor
``multiprocessing``.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from contextlib import nullcontext
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, benchmarks, hyperposterior, verify
from .config import ConfigError, ExperimentConfig, parse_config, read_input, serialize_config
from .safeopt import TraceRecord, run_repetition

RAW_HEADER = [
    "algorithm", "repetition", "iteration", "task", "input", "observed",
    "best_so_far", "beta_bar", "confidence_set_size", "gamma", "nu",
    "safe_set_size", "violation",
]
AGGREGATE_HEADER = [
    "algorithm", "iteration", "best_median", "best_q10", "best_q90",
    "best_mean", "best_std", "violations",
]
PLOTDATA_HEADER = ["algorithm", "iteration", "median", "q10", "q90", "mean", "std"]


def build_problem(config: ExperimentConfig, disturbance_seed: int):
    """The configured problem at its own threshold; a zero dimension keeps its default."""
    settings = {}
    if config.dimension and config.problem not in benchmarks.FIXED_DIMENSIONS:
        settings["dimension"] = config.dimension
    return benchmarks.PROBLEMS[config.problem](
        disturbance=config.disturbance, n_tasks=config.n_tasks,
        disturbance_seed=disturbance_seed, **settings)


def _repetition_seeds(config: ExperimentConfig) -> list[int]:
    return [int(s.generate_state(1)[0])
            for s in np.random.SeedSequence(config.seed).spawn(config.repetitions)]


def _run_one(config: ExperimentConfig, algorithm: str, repetition: int,
             rep_seed: int) -> list[TraceRecord]:
    problem = build_problem(config, disturbance_seed=rep_seed)
    return run_repetition(problem, replace(config, algorithm=algorithm), rep_seed,
                          repetition=repetition)


def _format_float(value: float) -> str:
    return repr(float(value))


def _open_output(path: Path | str):
    """``path`` opened for writing; a file that cannot be opened is a ConfigError naming it."""
    try:
        return open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc


def _write_csv(path: Path | str, header: list[str], rows) -> None:
    with _open_output(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _raw_row(algorithm: str, r: TraceRecord) -> list:
    return [algorithm, r.repetition, r.iteration, r.task,
            ";".join(_format_float(v) for v in r.x),
            _format_float(r.observed), _format_float(r.best_so_far),
            _format_float(r.beta_bar), r.confidence_set_size,
            _format_float(r.gamma), _format_float(r.nu),
            r.safe_set_size, int(r.violation)]


def _forward_fill(best_by_iteration: list[dict[int, float]], iterations: int) -> np.ndarray:
    """Best-so-far per repetition at main-task iterations 1..iterations.

    Each repetition maps an iteration to the best-so-far of its main-task row;
    iteration 0 holds the seeds.  Stalled iterations carry the previous best
    forward.
    """
    curves = np.full((len(best_by_iteration), iterations), np.nan)
    for i, best in enumerate(best_by_iteration):
        running = best.get(0, np.inf)
        for t in range(1, iterations + 1):
            running = best.get(t, running)
            curves[i, t - 1] = running
    return curves


def best_curves(traces: list[list[TraceRecord]], iterations: int) -> np.ndarray:
    """Forward-filled best-so-far curves of traced repetitions."""
    return _forward_fill(
        [{r.iteration: r.best_so_far for r in rows if r.task == 1} for rows in traces],
        iterations)


def _summary(col: np.ndarray) -> list[str]:
    """Median, 10 % and 90 % quantiles, mean and std of one iteration's values."""
    return [_format_float(v) for v in (np.median(col), np.quantile(col, 0.10),
                                       np.quantile(col, 0.90), np.mean(col), np.std(col))]


def _aggregate_rows(algorithm: str, traces: list[list[TraceRecord]],
                    iterations: int) -> list[list]:
    curves = best_curves(traces, iterations)
    return [[algorithm, t, *_summary(curves[:, t - 1]),
             sum(r.violation for rep in traces for r in rep if r.iteration == t)]
            for t in range(1, iterations + 1)]


def _output_dir(path: str) -> Path:
    """The output directory, created; one that cannot be made is a ConfigError naming it."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc.strerror}") from exc
    return out


def cmd_run(config: ExperimentConfig) -> int:
    # imported here, not at the top: see the module notes
    from concurrent.futures import ProcessPoolExecutor

    import scipy

    rep_seeds = _repetition_seeds(config)
    problem = build_problem(config, disturbance_seed=rep_seeds[0])
    out = _output_dir(config.out)
    manifest = {
        "config": serialize_config(config),
        "master_seed": config.seed,
        "repetition_seeds": rep_seeds,
        "problem": {"threshold": problem.threshold, "dimension": problem.dimension},
        "versions": {
            "samsbo": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "algorithms": {},
    }
    any_success = False
    for algorithm in config.algorithms():
        started = time.perf_counter()
        traces: list[list[TraceRecord]] = [[] for _ in range(config.repetitions)]
        errors: dict[int, str] = {}
        runs = [partial(_run_one, config, algorithm, rep, rep_seeds[rep])
                for rep in range(config.repetitions)]
        jobs = min(config.jobs, config.repetitions)
        with (ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext()) as pool:
            if pool is not None:
                runs = [pool.submit(run).result for run in runs]
            for rep, run in enumerate(runs):
                try:
                    traces[rep] = run()
                except Exception as exc:  # noqa: BLE001 - repetition isolation
                    errors[rep] = str(exc)
        for rep, reason in errors.items():
            print(f"{algorithm}: repetition {rep} failed: {reason}", file=sys.stderr)
        succeeded = [t for t in traces if t]
        any_success = any_success or bool(succeeded)
        _write_csv(out / f"{algorithm}_raw.csv", RAW_HEADER,
                   (_raw_row(algorithm, r) for rows in succeeded for r in rows))
        _write_csv(out / f"{algorithm}_aggregate.csv", AGGREGATE_HEADER,
                   _aggregate_rows(algorithm, succeeded, config.iterations) if succeeded else [])
        manifest["algorithms"][algorithm] = {
            "wall_time_seconds": time.perf_counter() - started,
            "errors": errors,
            "violations": sum(r.violation for t in succeeded for r in t),
            "evaluations": sum(len(t) for t in succeeded),
        }
    with _open_output(out / "manifest.json") as handle:
        json.dump(manifest, handle, indent=2)
    return 0 if any_success else 1


def cmd_verify_bounds(config: ExperimentConfig) -> int:
    if config.bayesian_trials:      # the loop runs with any positive eta; the prior draw may not
        try:
            hyperposterior.truncated_prior_mass(config.eta)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    out = _output_dir(config.out)
    reports = [
        verify.frequentist_coverage(trials=config.frequentist_trials,
                                    delta=config.delta, seed=config.seed),
        verify.bayesian_coverage(trials=config.bayesian_trials, delta=config.delta,
                                 rho=config.rho, eta=config.eta, seed=config.seed),
    ]
    payload = []
    for report in reports:
        print(report.line())
        payload.append({
            "suite": report.name, "trials": report.trials,
            "successes": report.successes, "empirical": report.empirical,
            "target": report.target, "slack": report.slack, "passed": report.passed,
        })
    with _open_output(out / "coverage.json") as handle:
        json.dump(payload, handle, indent=2)
    return 0 if all(r.passed for r in reports) else 1


def cmd_plotdata(raw_paths: list[str], out_path: str) -> int:
    best_by_alg: dict[str, dict[int, dict[int, float]]] = {}
    source: dict[tuple[str, int], str] = {}     # the file each (algorithm, repetition) is from
    for path in raw_paths:
        reader = csv.reader(read_input(path).splitlines())
        header = next(reader, None)
        if header != RAW_HEADER:
            raise ConfigError(f"{path}: unexpected raw CSV schema {header}")
        for row in reader:
            where = f"{path}: line {reader.line_num}"
            if len(row) != len(RAW_HEADER):
                raise ConfigError(f"{where}: expected {len(RAW_HEADER)} fields, got {len(row)}")
            record = dict(zip(RAW_HEADER, row))
            try:
                task, rep, iteration = (int(record[k]) for k in ("task", "repetition", "iteration"))
                best = float(record["best_so_far"])
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from exc
            earlier = source.setdefault((record["algorithm"], rep), path)
            if earlier != path:
                raise ConfigError(f"{where}: {record['algorithm']} repetition {rep} is already"
                                  f" in {earlier}")
            if task == 1:
                best_by_alg.setdefault(record["algorithm"], {}).setdefault(rep, {})[iteration] = best
    out_rows = []
    for alg in sorted(best_by_alg):
        reps = best_by_alg[alg]
        max_iter = max(max(best) for best in reps.values())
        curves = _forward_fill([reps[rep] for rep in sorted(reps)], max_iter)
        out_rows.extend([alg, t, *_summary(curves[:, t - 1])] for t in range(1, max_iter + 1))
    _write_csv(out_path, PLOTDATA_HEADER, out_rows)
    return 0


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    config = parse_config(args.config) if args.config else ExperimentConfig()
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "algorithm", None):
        overrides["algorithm"] = args.algorithm
    if getattr(args, "jobs", None) is not None:
        overrides["jobs"] = args.jobs
    out = os.environ.get("SAMSBO_OUT") or getattr(args, "out", None)
    if out:
        overrides["out"] = out
    if overrides:
        config = replace(config, **overrides)
    return config


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="samsbo",
        description="Safe multi-task Bayesian optimization benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="path to a key = value configuration file")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--out", help="output directory (SAMSBO_OUT overrides)")
        p.add_argument("--algorithm", help="algorithm name or comma-separated list")
        p.add_argument("--jobs", type=int, help="concurrent repetitions")

    add_common(sub.add_parser("run", help="execute an optimization campaign"))
    add_common(sub.add_parser("verify-bounds", help="Monte Carlo coverage of the bounds"))
    plot = sub.add_parser("plotdata", help="summarize raw CSVs for plotting")
    plot.add_argument("raw", nargs="+", help="raw CSV files produced by run")
    plot.add_argument("--out", default="plotdata.csv", help="output CSV path")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(_load_config(args))
        if args.command == "verify-bounds":
            return cmd_verify_bounds(_load_config(args))
        out = os.environ.get("SAMSBO_OUT")
        out_path = str(_output_dir(out) / "plotdata.csv") if out else args.out
        return cmd_plotdata(args.raw, out_path)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
