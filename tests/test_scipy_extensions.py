import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg.lapack
from scipy.linalg import get_lapack_funcs

from samsbo import _scipy, benchmarks, gp, kernels

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


def test_scipy_packages_import_after_the_package():
    """A later import of scipy.linalg or scipy.spatial reuses the registered modules."""
    # pytest has imported both packages already, so only a fresh interpreter
    # imports them after samsbo
    code = (
        "import numpy as np\n"
        "import samsbo\n"
        "from samsbo import benchmarks, gp, kernels\n"
        "import scipy.linalg, scipy.spatial.distance\n"
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
