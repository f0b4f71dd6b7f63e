"""The benchmark's workloads, driven through samsbo's public functions.

Every call goes through a module attribute (``safeopt.step``, not a name
imported from it), so the layer trace sees the same calls the timed run makes.
A repetition's seed is derived from the run seed and the repetition index
only, which makes the timed and the traced run of one seed compute the same
trace.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from harness import OK, RAISED, Tally, digest, run_ops

SEED_POINTS = 3


@dataclass
class Repetition:
    """What one repetition did: op spans, spans outside ops, outcome and checks."""

    op_spans: list[tuple[float, float]]
    other_spans: list[tuple[float, float]]
    tally: Tally
    digest: str
    checks: dict[str, bool]
    completed: bool
    errors: list[str] = field(default_factory=list)
    notes: dict = field(default_factory=dict)


def repetition_seed(seed: int, rep: int) -> int:
    return int(np.random.SeedSequence([seed, rep]).generate_state(1)[0])


def build_problem(spec: dict, rep_seed: int):
    from samsbo import benchmarks
    make = {"branin": benchmarks.branin_problem, "laser": benchmarks.laser_problem}[spec["problem"]]
    return make(disturbance_seed=rep_seed)


def loop_config(spec: dict):
    from samsbo import safeopt
    return safeopt.LoopConfig(algorithm=spec["algorithm"], iterations=spec["iterations"],
                              seed_points=SEED_POINTS)


def initial_state(problem, cfg, rng, rep: int):
    """Safe-seed search plus model initialization, as ``safeopt.run_repetition`` does."""
    from samsbo import benchmarks, safeopt
    seed_inputs = np.array([benchmarks.find_safe_seed(problem, rng)
                            for _ in range(cfg.seed_points)])
    return safeopt.initialize_state(problem, cfg, rng, seed_inputs, rep)


def _row(record) -> tuple:
    return (record.repetition, record.iteration, record.task, *record.x.tolist(),
            record.observed, record.best_so_far, record.beta_bar,
            record.confidence_set_size, record.gamma, record.nu,
            record.safe_set_size, record.violation)


def loop_repetition(spec: dict, seed: int, rep: int, between) -> Repetition:
    """One optimization run; each ``safeopt.step`` call is one operation."""
    from samsbo import safeopt
    rep_seed = repetition_seed(seed, rep)
    problem = build_problem(spec, rep_seed)
    cfg = loop_config(spec)
    rng = np.random.default_rng(rep_seed)
    try:
        state, rows = initial_state(problem, cfg, rng, rep)
    except Exception as exc:  # noqa: BLE001 - benchmark boundary: record and count
        # no step can run, so every iteration of the repetition fails
        tally = Tally()
        tally.add(RAISED, cfg.iterations)
        return Repetition(op_spans=[], other_spans=[], tally=tally, digest=digest([(repr(exc),)]),
                          checks={"no_unsafe_evaluation": True}, completed=False,
                          errors=[f"initialization: {exc!r}"], notes={"stalls": 0})
    seed_violations = state.violation_count

    def op(_i):
        stalled = state.stalled_iterations
        new = safeopt.step(state, problem, cfg, rng, rep)
        rows.extend(new)
        unsafe = any(r.violation for r in new if r.task == 1)
        return state.stalled_iterations > stalled, unsafe

    spans, tally, errors = run_ops(op, cfg.iterations, between)
    main_evals = sum(1 for r in rows if r.task == 1) - cfg.seed_points
    return Repetition(
        op_spans=spans, other_spans=[], tally=tally,
        digest=digest([_row(r) for r in rows] + [(state.stalled_iterations, state.dataset.n)]),
        checks={"no_unsafe_evaluation": state.violation_count == 0 and seed_violations == 0},
        completed=len(spans) == cfg.iterations, errors=errors,
        notes={"n_final": state.dataset.n, "main_evaluations": main_evals,
               "stalls": state.stalled_iterations},
    )


def verify_repetition(spec: dict, seed: int, rep: int, between) -> Repetition:
    """One pass of both coverage suites; each Bayesian trial is one operation.

    The Bayesian suite runs one trial per call, each with its own seed, so
    every trial is timed on its own and a trial that raises fails alone.  A
    trial that raised counts as not covered: coverage is successes over all
    trials attempted.  Each call rebuilds the suite's grid kernel matrix, one
    ``se_kernel_matrix`` call per trial where the whole suite makes one.  The
    frequentist suite runs as one call; its trials fail together if it raises.
    """
    from samsbo import verify
    trials = spec["bayesian_trials"]
    seeds = np.random.SeedSequence([seed, rep]).generate_state(trials + 1)
    reports = []

    def op(i):
        reports.append(verify.bayesian_coverage(trials=1, seed=int(seeds[i])))
        return False, False

    spans, tally, errors = run_ops(op, trials, between, independent=True)
    bayes = verify.CoverageReport(
        "bayesian", trials, sum(r.successes for r in reports),
        reports[0].target if reports else 1.0, reports[0].slack if reports else 0.0,
    )
    between()
    start = time.perf_counter()
    try:
        freq = verify.frequentist_coverage(trials=spec["frequentist_trials"], seed=int(seeds[-1]))
        tally.add(OK, spec["frequentist_trials"])
    except Exception as exc:  # noqa: BLE001 - benchmark boundary: record and count
        freq = None
        errors.append(f"frequentist suite: {exc!r}")
        tally.add(RAISED, spec["frequentist_trials"])
    other = [(start, time.perf_counter())]
    rows = [(r.trials, r.successes) for r in reports]
    if freq is not None:
        rows.append((freq.trials, freq.successes))
    return Repetition(
        op_spans=spans, other_spans=other, tally=tally, digest=digest(rows),
        checks={
            "bayesian_coverage": bool(reports) and bayes.passed,
            "frequentist_coverage": freq is not None and freq.passed,
        },
        completed=True, errors=errors,
        notes={"bayesian": bayes.line(), "frequentist": freq.line() if freq else "raised"},
    )


def repetition(spec: dict, seed: int, rep: int, between) -> Repetition:
    run = loop_repetition if spec["kind"] == "loop" else verify_repetition
    return run(spec, seed, rep, between)


def setup_after_import(spec: dict, seed: int) -> dict[str, float]:
    """The set-up that follows ``import samsbo``, timed in parts.

    Problem construction, then safe-seed search plus
    ``safeopt.initialize_state``.  The coverage suites need neither.  An
    initialization that raises is timed up to the raise, as in the run.
    """
    if spec["kind"] != "loop":
        return {"problem_s": 0.0, "init_s": 0.0}
    start = time.perf_counter()
    rep_seed = repetition_seed(seed, 0)
    problem = build_problem(spec, rep_seed)
    built = time.perf_counter()
    try:
        initial_state(problem, loop_config(spec), np.random.default_rng(rep_seed), 0)
    except Exception:  # noqa: BLE001 - the run reports this failure, set-up only times it
        pass
    return {"problem_s": built - start, "init_s": time.perf_counter() - built}
