"""The benchmark's layer trace must find every name it wraps.

``perfbench/layertrace.py`` patches samsbo functions at each module attribute
they are bound to and raises if one is missing or bound to another object.
Moving a name between modules breaks it; this test catches that in seconds
instead of in a traced benchmark run.
"""
import importlib
import json
from pathlib import Path

import samsbo
from samsbo import benchmarks, bounds, gp, hyperposterior, kernels, safeopt, verify

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _bindings() -> dict:
    owners = [samsbo, benchmarks, bounds, gp, hyperposterior, kernels, safeopt, verify,
              gp.Posterior, kernels.CorrelationMatrix, benchmarks.SyntheticProblem,
              benchmarks.LaserChainProblem]
    return {(id(o), name): value for o in owners for name, value in vars(o).items()}


def test_install_binds_every_site_and_unpatch_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layertrace = importlib.import_module("layertrace")
    expected = json.loads((PERFBENCH / "spec.json").read_text())[
        "workloads"]["branin-samsbo"]["expect_spans"]
    before = _bindings()
    tracer = layertrace.Tracer()
    try:
        layertrace.install(tracer)
        cfg = safeopt.LoopConfig(iterations=1, mcmc_samples=10, grid_size=64, seed_points=2)
        safeopt.run_repetition(benchmarks.branin_problem(disturbance_seed=1), cfg, seed=0)
    finally:
        tracer.unpatch()
    fired = {name for name, stats in tracer.stats.items() if stats.calls}
    assert set(expected) <= fired
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
