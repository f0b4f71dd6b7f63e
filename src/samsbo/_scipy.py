"""The compiled scipy modules the package calls, without any of scipy's package inits.

samsbo calls six LAPACK routines (``dtrtri``, ``dtrtrs``, ``dpotrf``,
``dpotrs``, ``dgees``, ``dtrsyl``) and ``cdist_sqeuclidean``.  Importing them
the usual way runs ``scipy/linalg/__init__.py`` and
``scipy/spatial/__init__.py``, which pull in ``scipy.sparse``, qhull, the
kd-trees and scipy's array-API layer (which itself loads ``numpy.f2py``,
``numpy.testing``, ``numpy.ma`` and ``numpy.random``).  :func:`extension`
loads the compiled module file alone, so a call reaches the same C function
that ``scipy.linalg.lapack`` or ``scipy.spatial.distance.cdist`` would reach.

The installed scipy's files are found with ``importlib.util.find_spec``, which
reads the package's location without running ``scipy/__init__.py``; that
init loads 13 scipy modules and, through ``scipy._lib._testutils``,
``subprocess``, ``sysconfig`` and ``locale``.  The one exception is Windows:
there the wheel's DLL-directory set-up (delvewheel's) lives in that init, so
``scipy`` is imported before any extension is loaded.  That branch is not
exercised on the Linux machines this package is tested on.

This is the only module that knows scipy's file layout: :func:`path` names
a file of the installed scipy, which :mod:`samsbo.sobol` reads for its
direction-number table.

An extension is registered in ``sys.modules`` under its own name (for
example ``scipy.linalg._flapack``), so a later ``import scipy.linalg`` reuses
the same module object, and a module already there is returned as it is.  A
missing file raises ``FileNotFoundError`` naming its path; there is no
fallback.

The files and their module names are scipy's private layout, and
:mod:`samsbo.sobol` reads the Joe–Kuo table's private npz member by member;
all of it is verified on scipy 1.17.1 only.  So ``pyproject.toml`` asks for
``scipy>=1.17.1``: an older scipy may lack a file or store the table in
another layout.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from types import ModuleType

if sys.platform == "win32":
    import scipy    # noqa: F401  (its init adds the wheel's DLL directory; unverified here)

_spec = importlib.util.find_spec("scipy")
if _spec is None:
    raise ModuleNotFoundError("samsbo needs scipy, which is not installed", name="scipy")
ROOT = _spec.submodule_search_locations[0]
# the platform tag compiled modules carry, ".cpython-311-x86_64-linux-gnu.so" on CPython 3.11
EXTENSION_SUFFIX = importlib.machinery.EXTENSION_SUFFIXES[0]


def path(package: str, name: str) -> str:
    """Path of the file ``name`` in the subpackage ``package`` of the installed scipy."""
    return os.path.join(ROOT, package, name)


def extension(package: str, name: str) -> ModuleType:
    """The compiled module ``scipy.<package>.<name>``, loaded from its file alone."""
    qualified = f"scipy.{package}.{name}"
    if qualified in sys.modules:
        return sys.modules[qualified]
    location = path(package, name + EXTENSION_SUFFIX)
    if not os.path.isfile(location):
        raise FileNotFoundError(f"no compiled module {qualified} at {location}")
    spec = importlib.util.spec_from_file_location(qualified, location)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[qualified] = module     # registered once it has loaded without error
    return module
