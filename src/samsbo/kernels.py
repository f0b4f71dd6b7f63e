"""Squared-exponential base kernel and its separable multi-task extension.

The multi-task covariance between task/input pairs factorizes as

    K((x, z), (x', z')) = Sigma[z, z'] * k(x, x'),

where ``k`` is a scalar anisotropic squared-exponential kernel and ``Sigma``
is a symmetric positive definite inter-task matrix with nonnegative entries
and unit diagonal (intrinsic coregionalization with standardized outputs).

Kernel matrices.  :func:`se_kernel_matrix` divides both row stacks by the
lengthscales and hands them to :func:`se_kernel_scaled`, which callers that
keep a scaled copy of their points (the grid cache of :mod:`samsbo.gp`) call
directly, so a grid is divided once per kernel rather than once per call.
The squared distances come from one call of ``cdist_sqeuclidean``, the C
function of scipy's ``_distance_pybind`` module that
``scipy.spatial.distance.cdist(A, B, "sqeuclidean")`` dispatches to, so the
result is ``cdist``'s bit for bit without importing ``scipy.spatial`` (see
:mod:`samsbo._scipy`).  Its first operand is never the taller: the function
pays per row of its first operand, so a G x 1 column costs about six times a
1 x G row.  When the second stack is the shorter one the product is computed
that way round and returned as a C-contiguous transpose.  Each entry is the
same sequential sum of squared coordinate differences either way, and
(a - b)^2 = (b - a)^2, so the result is bit-identical to the other
orientation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._scipy import extension

__all__ = [
    "KernelParams",
    "CorrelationMatrix",
    "se_kernel_matrix",
    "se_kernel_scaled",
    "gram",
]

SYMMETRY_TOL = 1e-12
# the C function scipy.spatial.distance.cdist(A, B, "sqeuclidean") dispatches to
_cdist_sqeuclidean = extension("spatial", "_distance_pybind").cdist_sqeuclidean


class _ByKey:
    """Equality and hashing of an immutable value through its ``key()``."""

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())


@dataclass(frozen=True, eq=False)
class KernelParams(_ByKey):
    """Hyperparameters of the squared-exponential kernel.

    ``signal_variance`` is the prior variance at zero distance, ``lengthscales``
    holds one positive scale per input dimension and ``noise_variance`` is the
    observation noise added to the Gram diagonal during inference.  Every
    value must be finite; a ``ValueError`` names the field that is not.
    Instances are immutable; equality and hashing go through :meth:`key`.
    """

    signal_variance: float
    lengthscales: np.ndarray
    noise_variance: float = 0.0

    def __post_init__(self):
        ls = np.atleast_1d(np.array(self.lengthscales, dtype=float))
        ls.setflags(write=False)
        object.__setattr__(self, "lengthscales", ls)
        object.__setattr__(self, "signal_variance", float(self.signal_variance))
        object.__setattr__(self, "noise_variance", float(self.noise_variance))
        for name, value in (("signal_variance", self.signal_variance), ("lengthscales", ls),
                            ("noise_variance", self.noise_variance)):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite, got {value}")
        if self.signal_variance <= 0.0:
            raise ValueError("signal_variance must be strictly positive")
        if ls.ndim != 1 or ls.size == 0 or np.any(ls <= 0.0):
            raise ValueError("lengthscales must be a vector of strictly positive reals")
        if self.noise_variance < 0.0:
            raise ValueError("noise_variance must be nonnegative")

    @property
    def dim(self) -> int:
        return self.lengthscales.size

    def key(self) -> tuple[float, bytes, float]:
        return self.signal_variance, self.lengthscales.tobytes(), self.noise_variance


@dataclass(frozen=True, eq=False)
class CorrelationMatrix(_ByKey):
    """Symmetric positive definite inter-task matrix with nonnegative entries and unit diagonal.

    The unit diagonal is the regime of standardized outputs.  Every entry
    must be finite; a ``ValueError`` says so otherwise.  Instances are
    immutable; equality and hashing go through :meth:`key`, which makes
    deduplication of repeated MCMC samples cheap.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        m = np.atleast_2d(m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("correlation matrix must be square")
        if not np.isfinite(m).all():
            raise ValueError("correlation matrix entries must be finite")
        if np.max(np.abs(m - m.T)) > SYMMETRY_TOL:
            raise ValueError("correlation matrix must be symmetric within 1e-12")
        m = 0.5 * (m + m.T)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        if np.min(m) < 0.0:
            raise ValueError("correlation matrix entries must be nonnegative")
        if np.min(np.linalg.eigvalsh(m)) <= 0.0:
            raise ValueError("correlation matrix must be positive definite")
        if np.max(np.abs(np.diag(m) - 1.0)) > 1e-9:
            raise ValueError("correlation matrix must have unit diagonal")

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def key(self) -> bytes:
        return self.matrix.tobytes()

    @classmethod
    def identity(cls, u: int) -> "CorrelationMatrix":
        return cls(np.eye(u))

    @classmethod
    def two_task(cls, r: float) -> "CorrelationMatrix":
        return cls(np.array([[1.0, r], [r, 1.0]]))


def se_kernel_matrix(X: np.ndarray, Y: np.ndarray, params: KernelParams) -> np.ndarray:
    """Cross Gram matrix of the squared-exponential kernel for row stacks X, Y."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[1] != params.dim or Y.shape[1] != params.dim:
        raise ValueError("input dimension does not match lengthscales")
    return se_kernel_scaled(X / params.lengthscales, Y / params.lengthscales, params)


def se_kernel_scaled(A: np.ndarray, B: np.ndarray, params: KernelParams) -> np.ndarray:
    """Cross Gram matrix of row stacks already divided by the lengthscales.

    It equals ``se_kernel_matrix`` of the unscaled stacks bit for bit; the
    shorter stack goes first to the distance function (see the module notes).
    """
    if B.shape[0] < A.shape[0]:
        return np.ascontiguousarray(se_kernel_scaled(B, A, params).T)
    return params.signal_variance * np.exp(-0.5 * _cdist_sqeuclidean(A, B))


def gram(dataset, sigma: CorrelationMatrix, params: KernelParams,
         base_gram: np.ndarray | None = None) -> np.ndarray:
    """Multi-task Gram matrix of a dataset, entry (i, j) = Sigma[z_i, z_j] k(x_i, x_j).

    ``dataset`` only needs ``inputs`` (n x d) and ``tasks`` (length n, 1-based)
    attributes; see :class:`samsbo.gp.MultiTaskDataset`.  ``base_gram``
    optionally supplies the precomputed single-task matrix k(x_i, x_j).
    """
    if dataset.inputs.shape[0] == 0:
        raise ValueError("gram requires a nonempty dataset")
    zi = np.asarray(dataset.tasks, dtype=int) - 1
    if zi.min() < 0 or zi.max() >= sigma.size:
        raise ValueError(f"task indices must lie in 1..{sigma.size}")
    base = se_kernel_matrix(dataset.inputs, dataset.inputs, params) if base_gram is None else base_gram
    return sigma.matrix[np.ix_(zi, zi)] * base

