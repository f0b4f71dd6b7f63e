"""The compiled scipy modules the package calls, without their packages' inits.

samsbo calls four LAPACK routines (``dtrtri``, ``dtrtrs``, ``dgees``,
``dtrsyl``), one distance kernel (``cdist_sqeuclidean``) and the regularized
incomplete beta function (:data:`ibeta`).  Importing them the usual way runs
``scipy/linalg/__init__.py``, ``scipy/spatial/__init__.py`` and
``scipy/special/__init__.py``, which pull in ``scipy.sparse``, qhull, the
kd-trees and scipy's array-API layer (which itself loads ``numpy.f2py``,
``numpy.testing``, ``numpy.ma`` and ``numpy.random``).  :func:`extension`
loads the compiled module file alone, so a call reaches the same C function
that ``scipy.linalg.lapack``, ``scipy.spatial.distance.cdist`` or
``scipy.special.betainc`` would reach.

``betainc`` is a ufunc of ``scipy.special._ufuncs``, which cannot be loaded
outside its package; its float64 loop calls one C function, ``ibeta_double``,
which the Cython module ``scipy.special._ufuncs_cxx`` exports.
:func:`c_function` reads such an export: ``__pyx_capi__[name]`` is a capsule
named ``"void *"`` holding the *address of* the function pointer, so the
capsule's pointer is dereferenced once and the pointer it holds is wrapped as
a ctypes function.  :data:`ibeta` is therefore ``betainc``'s float64 loop
body, bit for bit (verified on scipy 1.17.1, ``tests/test_scipy_extensions.py``).

This is the only module that knows scipy's file layout: :func:`path` names
a file of the installed scipy, which :mod:`samsbo.sobol` reads for its
direction-number table.  The top-level ``scipy`` package does not import its
subpackages.

An extension is registered in ``sys.modules`` under its own name (for
example ``scipy.linalg._flapack``), so a later ``import scipy.linalg`` reuses
the same module object, and a module already there is returned as it is.  A
missing file raises ``FileNotFoundError`` naming its path; there is no
fallback, and a missing export raises ``LookupError`` naming the module,
the export and the scipy version.

The files, their module names and the export are scipy's private layout, and
:mod:`samsbo.sobol` reads the Joe–Kuo table's private npz member by member;
all of it is verified on scipy 1.17.1 only.  So ``pyproject.toml`` asks for
``scipy>=1.17.1``: an older scipy may lack a file or the export, or store the
table in another layout.
"""
from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import os
import sys
from types import ModuleType

import scipy

ROOT = os.path.dirname(scipy.__file__)
# the platform tag compiled modules carry, ".cpython-311-x86_64-linux-gnu.so" on CPython 3.11
EXTENSION_SUFFIX = importlib.machinery.EXTENSION_SUFFIXES[0]

# the C API's PyCapsule_GetPointer, with its own signature: ctypes.pythonapi's is shared
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


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


def c_function(package: str, name: str, export: str, prototype: type) -> ctypes._CFuncPtr:
    """The C function that the Cython module ``scipy.<package>.<name>`` exports as
    ``export``, called through the ctypes function type ``prototype``."""
    module = extension(package, name)
    capsule = getattr(module, "__pyx_capi__", {}).get(export)
    if capsule is None:
        raise LookupError(f"{module.__name__} of scipy {scipy.__version__} exports no {export}")
    # the capsule holds the address of the function pointer, not the pointer itself
    return prototype(ctypes.c_void_p.from_address(_capsule_pointer(capsule, b"void *")).value)


# I_x(a, b) = ibeta(a, b, x): the C function of scipy.special.betainc's float64 loop
ibeta = c_function("special", "_ufuncs_cxx", "_export_ibeta_double",
                   ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_double, ctypes.c_double,
                                    ctypes.c_double))
