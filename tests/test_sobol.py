import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import qmc

from samsbo import sobol
from samsbo.benchmarks import (
    BRANIN_DOMAIN,
    NOISE_SCALE_SAMPLES,
    POWELL_DOMAIN,
    branin,
    branin_problem,
    powell,
    powell_problem,
)
from samsbo.safeopt import make_grid
from samsbo.sobol import MAX_DIMENSION, MAX_POINTS, scrambled_sobol

SRC = Path(__file__).resolve().parents[1] / "src"


def reference(d, n, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return qmc.Sobol(d, scramble=True, seed=seed).random(n)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 10, 12, 40, 100])
@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
def test_bit_identical_to_scipy(d, seed):
    for n in (1, 2, 3, 5, 129, 512, 2048, 4097):
        got = scrambled_sobol(d, n, seed)
        assert got.dtype == np.float64
        assert np.array_equal(got, reference(d, n, seed)), (d, seed, n)


@pytest.mark.parametrize("d", [2, 4, 10])
def test_make_grid_matches_qmc(d):
    extra = np.full((2, d), 0.5)
    extra[1, 0] = 1.5
    grid = make_grid(d, 2048, extra_points=extra)
    points = np.unique(np.vstack([reference(d, 2048, 0), np.clip(extra, 0.0, 1.0)]), axis=0)
    assert np.array_equal(grid.points, points)


def output_scale(base, domain):
    unit = reference(domain.shape[0], NOISE_SCALE_SAMPLES, 7)
    points = domain[:, 0] + unit * (domain[:, 1] - domain[:, 0])
    return float(np.std(np.array([base(p) for p in points])))


def test_noise_scale_matches_qmc():
    assert branin_problem().noise_sd == 0.01 * output_scale(branin, BRANIN_DOMAIN)
    domain = np.tile(np.array(POWELL_DOMAIN), (4, 1))
    assert powell_problem().noise_sd == 0.01 * output_scale(powell, domain)


@pytest.mark.parametrize("d, n, name", [
    (0, 4, "d"), (MAX_DIMENSION + 1, 4, "d"), (2, -1, "n"), (2, MAX_POINTS + 1, "n"),
])
def test_out_of_range_arguments_raise(d, n, name):
    with pytest.raises(ValueError, match=f"^{name} must"):
        scrambled_sobol(d, n, 0)


@pytest.mark.parametrize("d", [1, 2, 10, 40, MAX_DIMENSION])
def test_rows_read_are_the_tables_first_rows(d):
    """The first d polynomials, and of vinit the first d rows of the columns their degrees
    reach, past which those rows hold zeros."""
    poly, vinit = sobol._joe_kuo_rows(d)
    with np.load(sobol.TABLE_PATH) as table:
        full_poly, full_vinit = table["poly"], table["vinit"]
    degree = max(int(p).bit_length() - 1 for p in full_poly[:d])
    assert vinit.shape == (d, degree)
    assert np.array_equal(poly, full_poly[:d]) and poly.dtype == full_poly.dtype
    assert np.array_equal(vinit, full_vinit[:d, :degree]) and vinit.dtype == full_vinit.dtype
    assert not np.any(full_vinit[1:d, degree:])      # dimension 0 reads none: all ones


def test_a_call_holds_no_copy_of_the_table():
    """Reading the whole table allocates about 4.4 MB; d = 10 reads 5 of 18 columns."""
    import tracemalloc

    sobol._direction_numbers.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        points = scrambled_sobol(10, 4, 0)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held - before < 100_000 and peak - before < 1_500_000
    assert np.array_equal(points, reference(10, 4, 0))
    assert not sobol._direction_numbers(10).flags.writeable


def test_missing_table_names_its_path(tmp_path, monkeypatch):
    missing = tmp_path / "missing.npz"
    monkeypatch.setattr(sobol, "TABLE_PATH", str(missing))
    sobol._direction_numbers.cache_clear()
    try:
        with pytest.raises(FileNotFoundError, match="missing.npz"):
            scrambled_sobol(2, 4, 0)
    finally:
        sobol._direction_numbers.cache_clear()


def test_package_does_not_import_scipy_stats():
    """Nor any other scipy module, in a run's every stage and the CLI's import.

    The runs cover one, two and three tasks, so every route of the model
    refresh (identity set, closed forms, general path) is reached.

    Only the two compiled modules that samsbo._scipy registers are loaded: not
    the scipy package itself, nor logging (the clamp warning imports it) or
    multiprocessing (``samsbo run`` imports it).
    """
    # pytest itself imports scipy.stats (above), so only a fresh interpreter
    # shows what the package loads
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import samsbo, samsbo.cli\n"
        "from samsbo import (LoopConfig, branin_problem, laser_problem, make_grid,\n"
        "                    powell_problem, safeopt, verify)\n"
        "from samsbo.benchmarks import find_safe_seed\n"
        "branin_problem(); powell_problem(); laser_problem(); make_grid(10, 2048)\n"
        "safeopt.GRID_SIZE = 64\n"
        "for problem, algorithm in ((branin_problem(), 'samsbo'), (laser_problem(), 'samsbo'),\n"
        "                           (branin_problem(), 'safe-ucb'),\n"
        "                           (branin_problem(n_tasks=3), 'samsbo')):\n"
        "    cfg = LoopConfig(algorithm=algorithm, iterations=1)\n"
        "    rng = np.random.default_rng(0)\n"
        "    seeds = np.array([find_safe_seed(problem, rng) for _ in range(cfg.seed_points)])\n"
        "    state, _ = safeopt.initialize_state(problem, cfg, rng, seeds)\n"
        "    safeopt.step(state, problem, cfg, rng)\n"
        "verify.bayesian_coverage(trials=1); verify.frequentist_coverage(trials=2)\n"
        "allowed = {'scipy.linalg._flapack', 'scipy.spatial._distance_pybind'}\n"
        "assert allowed <= set(sys.modules)\n"
        "print(sorted(m for m in set(sys.modules) - allowed\n"
        "             if m.split('.')[0] in ('scipy', 'logging', 'multiprocessing')))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_runs_do_not_import_numpy_ma():
    """numpy's ``unique`` imports ``numpy.ma``; the grid's dedup, its distinctness check
    and nu's distinct r do without it."""
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from samsbo import bounds, gp, make_grid\n"
        "from samsbo.kernels import KernelParams\n"
        "from samsbo.sobol import scrambled_sobol\n"
        "rng = np.random.default_rng(0)\n"
        "ds = gp.MultiTaskDataset(rng.random((12, 1)), np.tile([1, 2], 6),\n"
        "                         rng.standard_normal(12))\n"
        "params = KernelParams(1.0, [0.3], noise_variance=0.05)\n"
        "model = bounds.robust_model(ds, 2, 0.1, 0.15, 1000, params, 0.05)\n"
        "assert np.ptp(model.confidence_set.offdiagonals) > 0.0 and model.bundle.nu > 0.0\n"
        "loaded = 'numpy.ma' in sys.modules\n"
        "extra = scrambled_sobol(10, 64, 0)[[5, 5, 9]]    # grid points, one of them twice\n"
        "assert len(make_grid(10, 64, extra_points=extra)) == 64\n"
        "print(loaded, 'numpy.ma' in sys.modules)\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False False"
