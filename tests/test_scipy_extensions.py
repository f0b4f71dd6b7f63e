import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg.lapack
from scipy.linalg import get_lapack_funcs
from scipy.special import betainc

from samsbo import _scipy, benchmarks, gp, hyperposterior, kernels

SRC = Path(__file__).resolve().parents[1] / "src"


def test_lapack_bindings_are_scipys_own():
    assert gp.dtrtri is scipy.linalg.lapack.dtrtri
    assert gp.dtrtrs is scipy.linalg.lapack.dtrtrs
    assert gp.dpotrf is scipy.linalg.lapack.dpotrf
    assert gp.dpotrs is scipy.linalg.lapack.dpotrs
    gees, trsyl = get_lapack_funcs(("gees", "trsyl"), dtype=np.float64)
    assert benchmarks._gees is gees and benchmarks._trsyl is trsyl


def test_distance_binding_is_the_one_cdist_dispatches_to():
    from scipy.spatial import distance

    assert kernels._cdist_sqeuclidean is distance._METRIC_ALIAS["sqeuclidean"].cdist_func


def test_a_loaded_module_is_returned_as_it_is():
    module = _scipy.extension("linalg", "_flapack")
    assert module is sys.modules["scipy.linalg._flapack"] is gp._flapack
    assert _scipy.extension("linalg", "_flapack") is module


def test_missing_module_names_its_path():
    name = "_no_such_module"
    path = _scipy.path("linalg", name + _scipy.EXTENSION_SUFFIX)
    with pytest.raises(FileNotFoundError, match=re.escape(path)):
        _scipy.extension("linalg", name)
    assert f"scipy.linalg.{name}" not in sys.modules


ETAS = (1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 37.3, 100.0)
# either side of the floor on the truncated prior mass: totals 9.4e-7 and 1.09e-6
ETAS_AT_THE_FLOOR = (1e-8, 1.3e-7, 1.5e-7, 1e-6)


def test_prior_tails_are_betaincs_within_1e_12():
    """The continued fraction at every cell edge, against scipy's betainc; a tail that
    underflows does so on both sides."""
    x = 0.5 * (1.0 - hyperposterior.CELL_EDGES)
    for eta in ETAS:
        tails = hyperposterior._prior_tails.__wrapped__(eta)
        np.testing.assert_allclose(tails, betainc(eta, eta, x), rtol=1e-12, atol=0.0,
                                   err_msg=f"eta = {eta}")


def test_log_cell_masses_are_betaincs_within_1e_9():
    x = 0.5 * (1.0 - hyperposterior.CELL_EDGES)
    for eta in ETAS:
        tail = betainc(eta, eta, x)
        with np.errstate(divide="ignore"):      # at eta = 37.3 and 100 the last cells hold 0
            expected = np.log(tail[:-1] - tail[1:])
        masses = hyperposterior._log_cell_masses.__wrapped__(eta)
        np.testing.assert_allclose(masses, expected, rtol=0.0, atol=1e-9,
                                   err_msg=f"eta = {eta}")


def test_truncated_prior_mass_refuses_exactly_what_betaincs_total_would():
    for eta in ETAS + ETAS_AT_THE_FLOOR:
        upper, lower = betainc(eta, eta, 0.5 * (1.0 - hyperposterior.CELL_EDGES[[0, -1]]))
        if upper - lower >= hyperposterior.PRIOR_MASS_FLOOR:
            mass = hyperposterior.truncated_prior_mass.__wrapped__(eta)
            assert mass == pytest.approx(upper - lower, rel=1e-12, abs=1e-15), eta
        else:
            with pytest.raises(ValueError, match="below"):
                hyperposterior.truncated_prior_mass.__wrapped__(eta)


def test_prior_tails_past_the_term_cap_raise_naming_eta(monkeypatch):
    monkeypatch.setattr(hyperposterior, "CF_ITERATIONS", 1)
    with pytest.raises(ValueError, match=r"eta = 37\.3 did not converge in 1 terms"):
        hyperposterior._prior_tails.__wrapped__(37.3)


def test_scipy_packages_import_after_the_package():
    """Importing the package initializes no scipy package; a later import of scipy.linalg
    or scipy.spatial reuses the registered modules, and scipy.special then agrees with
    the prior tails."""
    # pytest has imported both packages already, so only a fresh interpreter
    # imports them after samsbo
    code = (
        "import numpy as np\n"
        "import samsbo\n"
        "from samsbo import benchmarks, gp, hyperposterior, kernels\n"
        "import sys\n"
        "assert 'scipy' not in sys.modules\n"
        "x = 0.5 * (1.0 - hyperposterior.CELL_EDGES)\n"
        "tails = {eta: hyperposterior._prior_tails(eta) for eta in (0.01, 0.5, 1.0, 37.3)}\n"
        "import scipy.linalg, scipy.spatial.distance, scipy.special\n"
        "for eta, tail in tails.items():\n"
        "    np.testing.assert_allclose(tail, scipy.special.betainc(eta, eta, x),\n"
        "                               rtol=1e-12, atol=0.0)\n"
        "from scipy.linalg import _flapack\n"
        "from scipy.spatial import _distance_pybind\n"
        "assert _flapack is gp._flapack is benchmarks._flapack\n"
        "assert scipy.linalg.lapack.dtrtrs is gp.dtrtrs\n"
        "assert _distance_pybind.cdist_sqeuclidean is kernels._cdist_sqeuclidean\n"
        "a, b = np.random.default_rng(0).random((2, 5, 3))\n"
        "assert np.array_equal(scipy.spatial.distance.cdist(a, b, 'sqeuclidean'),\n"
        "                      kernels._cdist_sqeuclidean(a, b))\n"
        "m = a[:3] @ a[:3].T + 3 * np.eye(3)\n"
        "assert np.allclose(scipy.linalg.solve(m, b[:3]), np.linalg.solve(m, b[:3]))\n"
        "print('ok')\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "ok"
