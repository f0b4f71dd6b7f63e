import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.linalg.lapack
from scipy.linalg import get_lapack_funcs
from scipy.special import betainc

from samsbo import _scipy, benchmarks, gp, hyperposterior, kernels

SRC = Path(__file__).resolve().parents[1] / "src"


def test_lapack_bindings_are_scipys_own():
    assert gp.dtrtri is scipy.linalg.lapack.dtrtri
    assert gp.dtrtrs is scipy.linalg.lapack.dtrtrs
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


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


def _ibeta(a, b, x) -> np.ndarray:
    return np.array([_scipy.ibeta(*abx) for abx in zip(a.tolist(), b.tolist(), x.tolist())])


def test_ibeta_is_betaincs_float64_loop_bit_for_bit():
    x = 0.5 * (1.0 - hyperposterior.CELL_EDGES)
    for eta in ETAS:
        a = np.full_like(x, eta)
        assert np.array_equal(_bits(_ibeta(a, a, x)), _bits(betainc(eta, eta, x))), eta
    rng = np.random.default_rng(0)
    a, b = rng.exponential(3.0, (2, 20_000))
    x = rng.random(20_000)
    assert np.array_equal(_bits(_ibeta(a, a, x)), _bits(betainc(a, a, x)))
    assert np.array_equal(_bits(_ibeta(a, b, x)), _bits(betainc(a, b, x)))
    # the ends of [0, 1], and arguments outside the domain, where betainc gives NaN
    a = np.array([1.0, 1.0, 0.5, 2.0, 0.0, np.inf, np.nan, 1.0, -1.0, 1.0, 1.0, 0.0])
    b = np.array([2.0, 2.0, 0.5, 3.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 0.0])
    x = np.array([0.0, 1.0, 0.0, 1.0, 0.5, 0.5, 0.5, np.nan, 0.5, 1.5, -0.1, 0.5])
    expected = betainc(a, b, x)
    assert np.isnan(expected[6:]).all()
    assert np.array_equal(_bits(_ibeta(a, b, x)), _bits(expected))


def test_missing_export_names_module_export_and_version():
    modules = set(sys.modules)
    prototype = type(_scipy.ibeta)
    with pytest.raises(LookupError) as raised:
        _scipy.c_function("special", "_ufuncs_cxx", "_export_no_such_double", prototype)
    for name in ("scipy.special._ufuncs_cxx", "_export_no_such_double", scipy.__version__):
        assert name in str(raised.value)
    # a module that is not Cython's exports nothing
    with pytest.raises(LookupError, match="scipy.spatial._distance_pybind"):
        _scipy.c_function("spatial", "_distance_pybind", "_export_ibeta_double", prototype)
    assert set(sys.modules) == modules


def test_prior_masses_are_the_betainc_formulas_bits():
    for eta in ETAS:
        tail = betainc(eta, eta, 0.5 * (1.0 - hyperposterior.CELL_EDGES))
        masses = hyperposterior._log_cell_masses.__wrapped__(eta)
        assert np.array_equal(_bits(masses), _bits(np.log(tail[:-1] - tail[1:]))), eta
        upper, lower = betainc(eta, eta, 0.5 * (1.0 - hyperposterior.CELL_EDGES[[0, -1]]))
        if upper - lower >= hyperposterior.PRIOR_MASS_FLOOR:
            mass = hyperposterior.truncated_prior_mass.__wrapped__(eta)
            assert _bits(mass) == _bits(float(upper - lower)), eta
        else:
            with pytest.raises(ValueError, match="below"):
                hyperposterior.truncated_prior_mass.__wrapped__(eta)


def test_scipy_packages_import_after_the_package():
    """A later import of scipy.linalg, scipy.spatial or scipy.special reuses the registered
    modules."""
    # pytest has imported both packages already, so only a fresh interpreter
    # imports them after samsbo
    code = (
        "import numpy as np\n"
        "import samsbo\n"
        "from samsbo import benchmarks, gp, hyperposterior, kernels\n"
        "import sys\n"
        "cxx = sys.modules['scipy.special._ufuncs_cxx']\n"
        "import scipy.linalg, scipy.spatial.distance, scipy.special\n"
        "from scipy.special import _ufuncs_cxx\n"
        "assert _ufuncs_cxx is cxx is sys.modules['scipy.special._ufuncs_cxx']\n"
        "x = 0.5 * (1.0 - hyperposterior.CELL_EDGES)\n"
        "for eta in (0.01, 0.5, 1.0, 37.3):\n"
        "    assert np.array_equal(scipy.special.betainc(eta, eta, x).view(np.int64),\n"
        "                          hyperposterior._prior_tails(eta).view(np.int64))\n"
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
