"""The benchmark's layer trace must find every name it wraps.

``perfbench/layertrace.py`` patches samsbo functions at each module attribute
they are bound to and raises if one is missing or bound to another object.
Moving a name between modules breaks it; this test catches that in seconds
instead of in a traced benchmark run.
"""
import importlib
import json
from pathlib import Path

import pytest

import samsbo
from samsbo import benchmarks, bounds, gp, hyperposterior, kernels, safeopt, verify

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _bindings() -> dict:
    owners = [samsbo, benchmarks, bounds, gp, hyperposterior, kernels, safeopt, verify,
              gp.Posterior, kernels.CorrelationMatrix, benchmarks.SyntheticProblem,
              benchmarks.LaserChainProblem]
    return {(id(o), name): value for o in owners for name, value in vars(o).items()}


def _traced_spans(monkeypatch, run) -> set[str]:
    """Names of the layers that fired while ``run`` executed under the trace."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layertrace = importlib.import_module("layertrace")
    before = _bindings()
    tracer = layertrace.Tracer()
    try:
        layertrace.install(tracer)
        run()
    finally:
        tracer.unpatch()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    return {name for name, stats in tracer.stats.items() if stats.calls}


def _spec(workload: str) -> dict:
    return json.loads((PERFBENCH / "spec.json").read_text())["workloads"][workload]


def _loop(problem, **config):
    def run():
        safeopt.run_repetition(problem(disturbance_seed=1), safeopt.LoopConfig(**config), seed=0)
    return run


def _coverage_suites():
    verify.bayesian_coverage(trials=1)
    verify.frequentist_coverage(trials=1)


SHORT_RUNS = {
    "branin-samsbo": _loop(benchmarks.branin_problem, iterations=1, seed_points=2),
    "laser-samsbo": _loop(benchmarks.laser_problem, iterations=1, seed_points=2),
    "safeucb-branin": _loop(benchmarks.branin_problem, algorithm="safe-ucb", iterations=2,
                            seed_points=3),
    "verify-bounds": _coverage_suites,
}
SMALL_GRID_RUNS = {"branin-samsbo", "laser-samsbo"}     # these run on a 64-point grid


@pytest.mark.parametrize("workload", sorted(json.loads((PERFBENCH / "spec.json").read_text())
                                            ["workloads"]))
def test_short_run_fires_expected_spans_and_no_silent_one(workload, monkeypatch):
    """One short operation of each workload fires every ``expect_spans`` layer and no
    ``expect_silent`` one."""
    if workload in SMALL_GRID_RUNS:
        monkeypatch.setattr(safeopt, "GRID_SIZE", 64)
    fired = _traced_spans(monkeypatch, SHORT_RUNS[workload])
    spec = _spec(workload)
    assert set(spec["expect_spans"]) <= fired
    assert not set(spec["expect_silent"]) & fired
