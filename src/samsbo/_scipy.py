"""The compiled scipy modules the package calls, without their packages' inits.

samsbo calls four LAPACK routines (``dtrtri``, ``dtrtrs``, ``dgees``,
``dtrsyl``) and one distance kernel (``cdist_sqeuclidean``).  Importing them
the usual way runs ``scipy/linalg/__init__.py`` and
``scipy/spatial/__init__.py``, which pull in ``scipy.sparse``, qhull, the
kd-trees and scipy's array-API layer.  :func:`extension` loads the compiled
module file alone, so a call reaches the same C function that
``scipy.linalg.lapack`` or ``scipy.spatial.distance.cdist`` would reach.

This is the only module that knows scipy's file layout: :func:`path` names
a file of the installed scipy, which :mod:`samsbo.sobol` reads for its
direction-number table.  The top-level ``scipy`` package does not import its
subpackages.

An extension is registered in ``sys.modules`` under its own name (for
example ``scipy.linalg._flapack``), so a later ``import scipy.linalg`` reuses
the same module object, and a module already there is returned as it is.  A
missing file raises ``FileNotFoundError`` naming its path; there is no
fallback.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from types import ModuleType

import scipy

ROOT = os.path.dirname(scipy.__file__)
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
