"""Exact multi-task Gaussian process regression.

Posterior mean and variance follow the standard closed form with the
single-task Gram matrix replaced by its multi-task counterpart.  The fitted
state is a Cholesky factor L of the regularized Gram matrix, the jitter that
factor carries, the weight vector and the whitened observations L^-1 y.

Growing data.  :func:`fit` given the ``previous`` posterior extends its factor
by the new rows (Seeger 2004) when the correlation matrix and the kernel
parameters are unchanged and the old inputs and tasks are an exact prefix of
the new ones; observations may differ entirely.  With K the new regularized
Gram split at the old size,

    L21' = L11^-1 K12,   L22 = chol(K22 - L21 L21'),

using the jitter of the previous factor.  Only the kernel columns of the new
rows, K12 and K22, are computed; the full Gram is never formed on this path.
Anything else, including a Schur complement that is not positive definite,
takes the full factorization.

Grid cache.  For a read-only array of query points, :meth:`Posterior.predict_batch`
keeps per task the whitened cross-Gram V = L^-1 k_z(data, points) and its
column sums of squares, so the mean is V' L^-1 y and the variance the prior
minus those sums.  A repeated query is a lookup, and an extended posterior
inherits its predecessor's entries and grows V by the new rows only,
L22^-1 (k_z(new, points) - L21 V).  Row i of V is the same for every posterior
whose data agree on their first i + 1 rows, so the entries of a chain of
extensions share one row buffer: an extension writes its rows in place when
its predecessor's rows are the last ones written, and copies them into a new
buffer otherwise (a sibling extended first).  Each V is a read-only view of
the leading rows of a buffer, which only ever appends behind every view and
grows its capacity by GRID_GROWTH.  The check and the append happen under the
buffer's lock.  Each posterior also memoizes its last mean and variance per
task for a read-only point array; the memo is not inherited.

The factor, weights and dataset never change after :func:`fit`; the cache and
the memo are the only mutable state.  Their entries are replaced whole and
computed deterministically, so threads that race on one fill compute the
same value.
"""
from __future__ import annotations

import logging
import math
import threading
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from .kernels import CorrelationMatrix, KernelParams, gram, se_kernel_matrix

__all__ = [
    "MultiTaskDataset",
    "Posterior",
    "NumericalError",
    "clamp_variances",
    "fit",
    "log_marginal_likelihood",
]

logger = logging.getLogger(__name__)

JITTER_START = 1e-10
JITTER_MAX = 1e-6
VARIANCE_WARN = -1e-8
GRID_GROWTH = 1.25        # capacity factor of a full grid row buffer


class NumericalError(RuntimeError):
    """Raised when the regularized Gram matrix stays non positive definite."""


@dataclass(frozen=True)
class MultiTaskDataset:
    """Stacked observations from several tasks.

    ``inputs`` is n x d, ``tasks`` holds 1-based task indices per row, and
    ``observations`` the scalar measurements.  Instances are immutable;
    :meth:`extended` returns a grown copy.
    """

    inputs: np.ndarray
    tasks: np.ndarray
    observations: np.ndarray

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        z = np.atleast_1d(np.asarray(self.tasks, dtype=int))
        y = np.atleast_1d(np.asarray(self.observations, dtype=float))
        if X.shape[0] != z.shape[0] or X.shape[0] != y.shape[0]:
            raise ValueError("inputs, tasks and observations must have equal length")
        if z.size and z.min() < 1:
            raise ValueError("task indices are 1-based")
        for a in (X, z, y):
            a.setflags(write=False)
        object.__setattr__(self, "inputs", X)
        object.__setattr__(self, "tasks", z)
        object.__setattr__(self, "observations", y)

    @classmethod
    def empty(cls, dim: int) -> "MultiTaskDataset":
        return cls(np.zeros((0, dim)), np.zeros(0, dtype=int), np.zeros(0))

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]

    def extended(self, inputs, tasks, observations) -> "MultiTaskDataset":
        X = np.atleast_2d(np.asarray(inputs, dtype=float))
        z = np.atleast_1d(np.asarray(tasks, dtype=int))
        y = np.atleast_1d(np.asarray(observations, dtype=float))
        return MultiTaskDataset(
            np.vstack([self.inputs, X]),
            np.concatenate([self.tasks, z]),
            np.concatenate([self.observations, y]),
        )


def _chol_with_jitter(system: np.ndarray, scale: float) -> tuple[np.ndarray, float]:
    """Cholesky factor of ``system``; escalating diagonal jitter on failure."""
    n = system.shape[0]
    if n == 0:
        return np.zeros((0, 0)), 0.0
    jitter = JITTER_START
    while jitter <= JITTER_MAX * 1.001:
        try:
            return np.linalg.cholesky(system + jitter * scale * np.eye(n)), jitter
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise NumericalError(
        f"system matrix not positive definite after jitter up to {JITTER_MAX:g} * signal_variance"
    )


def clamp_variances(variances: np.ndarray) -> np.ndarray:
    """Posterior variances floored at zero; a warning counts those below VARIANCE_WARN."""
    bad = variances < VARIANCE_WARN
    if np.any(bad):
        logger.warning(
            "clamping %d negative posterior variances (min %.3e)",
            int(bad.sum()), float(variances.min()),
        )
    return np.maximum(variances, 0.0)


def _frozen(points: np.ndarray) -> bool:
    """Whether ``points`` and every array it views are read-only."""
    a = points
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return a is None


class _RowBuffer:
    """Row-appendable storage of whitened cross-Grams shared along a chain of extensions."""

    def __init__(self, capacity: int, width: int):
        self.data = np.empty((capacity, width))
        self.filled = 0
        self.lock = threading.Lock()

    def append(self, covered: int, block: np.ndarray) -> np.ndarray | None:
        """Read-only view of the first ``covered`` rows followed by ``block``.

        None when rows past ``covered`` are already written, by an extension
        that does not share the caller's new rows.
        """
        with self.lock:
            if self.filled != covered:
                return None
            end = covered + block.shape[0]
            if end > self.data.shape[0]:
                capacity = max(end, math.ceil(GRID_GROWTH * self.data.shape[0]))
                grown = np.empty((capacity, self.data.shape[1]))
                grown[:covered] = self.data[:covered]
                self.data = grown
            self.data[covered:end] = block
            self.filled = end
            view = self.data[:end]
        view.setflags(write=False)
        return view


@dataclass(frozen=True)
class _GridEntry:
    """Whitened cross-Gram of one task at one read-only point array."""

    points: np.ndarray
    rows: int                   # leading data rows covered by ``whitened``
    buffer: _RowBuffer          # ``whitened`` is a view of its leading rows
    whitened: np.ndarray        # rows x len(points)
    sumsq: np.ndarray           # column sums of squares of ``whitened``

    @classmethod
    def extended(cls, entry: "_GridEntry | None", points: np.ndarray, block: np.ndarray,
                 sumsq: np.ndarray) -> "_GridEntry":
        """``entry`` grown by ``block`` (whose column sums of squares are ``sumsq``).

        Appends to ``entry``'s buffer when its rows are the last written there,
        and copies them into a new buffer otherwise.
        """
        covered = 0 if entry is None else entry.rows
        whitened = None if entry is None else entry.buffer.append(covered, block)
        if whitened is not None:
            buffer = entry.buffer
        else:
            buffer = _RowBuffer(covered + block.shape[0], block.shape[1])
            if entry is not None:
                buffer.append(0, entry.whitened)
            whitened = buffer.append(covered, block)
        if entry is not None:
            sumsq = entry.sumsq + sumsq
        sumsq.setflags(write=False)
        return cls(points, whitened.shape[0], buffer, whitened, sumsq)


@dataclass(frozen=True)
class Posterior:
    """Fitted multi-task GP state supporting mean/variance queries per task.

    ``jitter`` is the multiple of the signal variance that :func:`fit` added
    to the diagonal before factoring, and ``whitened_obs`` is L^-1 y.
    """

    dataset: MultiTaskDataset
    sigma_used: CorrelationMatrix
    params: KernelParams
    chol: np.ndarray
    alpha: np.ndarray
    jitter: float
    whitened_obs: np.ndarray
    _grid: dict = field(default_factory=dict, repr=False, compare=False)
    _predictions: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def gram_noiseless(self) -> np.ndarray:
        """Multi-task Gram matrix of the data without noise or jitter, computed on each access."""
        if self.dataset.n == 0:
            return np.zeros((0, 0))
        return gram(self.dataset, self.sigma_used, self.params)

    def predict_batch(self, points: np.ndarray, z: int) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized posterior mean/variance of one task at many inputs.

        Memoized per task for a read-only ``points`` (see the module notes);
        the returned arrays are then shared and read-only.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        u = self.sigma_used.size
        if not 1 <= z <= u:
            raise ValueError(f"task index must lie in 1..{u}")
        prior_var = self.sigma_used.matrix[z - 1, z - 1] * self.params.signal_variance
        if self.dataset.n == 0:
            return np.zeros(points.shape[0]), np.full(points.shape[0], prior_var)
        frozen = _frozen(points)
        memo = self._predictions.get(z) if frozen else None
        if memo is not None and memo[0] is points:
            return memo[1], memo[2]
        whitened, sumsq = self.whitened(points, z)
        means, variances = whitened.T @ self.whitened_obs, clamp_variances(prior_var - sumsq)
        if frozen:
            means.setflags(write=False)
            variances.setflags(write=False)
            self._predictions[z] = (points, means, variances)
        return means, variances

    def whitened(self, points: np.ndarray, z: int) -> tuple[np.ndarray, np.ndarray]:
        """L^-1 k_z(data, points) and its column sums of squares.

        Cached per task when ``points`` is read-only (see the module notes);
        the returned arrays are then shared and read-only.
        """
        if not 1 <= z <= self.sigma_used.size:
            raise ValueError(f"task index must lie in 1..{self.sigma_used.size}")
        if not _frozen(points):
            return self._new_rows(None, points, z)
        entry = self._grid.get(z)
        if entry is not None and entry.points is not points:
            entry = None
        if entry is None or entry.rows < self.dataset.n:
            entry = _GridEntry.extended(entry, points, *self._new_rows(entry, points, z))
            self._grid[z] = entry
        return entry.whitened, entry.sumsq

    def _new_rows(self, entry: _GridEntry | None, points: np.ndarray,
                  z: int) -> tuple[np.ndarray, np.ndarray]:
        """Rows of V past those ``entry`` covers (all rows when None) and their column sums of squares."""
        m = 0 if entry is None else entry.rows
        rhs = self._cross_gram(points, z, m).T
        if m:
            rhs -= self.chol[m:, :m] @ entry.whitened
        block = solve_triangular(self.chol[m:, m:], rhs, lower=True)
        return block, np.sum(block * block, axis=0)

    def mean_rkhs_norm(self) -> float:
        """RKHS norm sqrt(alpha' K alpha) of the posterior mean function."""
        if self.dataset.n == 0:
            return 0.0
        val = float(self.alpha @ self.gram_noiseless @ self.alpha)
        return float(np.sqrt(max(val, 0.0)))

    def _cross_gram(self, points: np.ndarray, z: int, start: int = 0) -> np.ndarray:
        base = se_kernel_matrix(points, self.dataset.inputs[start:], self.params)
        return self.sigma_used.matrix[z - 1, self.dataset.tasks[start:] - 1] * base


def _same_params(a: KernelParams, b: KernelParams) -> bool:
    return (a.signal_variance == b.signal_variance and a.noise_variance == b.noise_variance
            and np.array_equal(a.lengthscales, b.lengthscales))


def _extended_factor(previous: Posterior, dataset: MultiTaskDataset, sigma: CorrelationMatrix,
                     params: KernelParams, base_gram: np.ndarray | None = None
                     ) -> np.ndarray | None:
    """Cholesky factor of ``dataset``'s system grown from ``previous``'s, or None when that does not apply.

    Applies when the correlation matrix and the kernel parameters are equal and
    the previous inputs and tasks are an exact prefix of ``dataset``'s.  The
    new rows' kernel columns [K12; K22] come from one cross-kernel call, or
    from the new columns of ``base_gram`` when given.  The new block carries
    the previous factor's jitter; a Schur complement that is not positive
    definite at that jitter returns None.
    """
    old = previous.dataset
    m, n = old.n, dataset.n
    if not (0 < m <= n and previous.sigma_used.key() == sigma.key()
            and _same_params(previous.params, params)
            and np.array_equal(old.tasks, dataset.tasks[:m])
            and np.array_equal(old.inputs, dataset.inputs[:m])):
        return None
    if m == n:
        return previous.chol
    zi = dataset.tasks - 1
    if zi[m:].max() >= sigma.size:
        raise ValueError(f"task indices must lie in 1..{sigma.size}")
    if base_gram is None:
        base = se_kernel_matrix(dataset.inputs, dataset.inputs[m:], params)
    else:
        base = base_gram[:, m:]
    columns = sigma.matrix[np.ix_(zi, zi[m:])] * base               # [K12; K22]
    cross = solve_triangular(previous.chol, columns[:m], lower=True)   # L21'
    # noise, then jitter: the order of a full fit's K + noise I and its jitter
    schur = (columns[m:] + params.noise_variance * np.eye(n - m)
             + previous.jitter * params.signal_variance * np.eye(n - m)
             - cross.T @ cross)
    try:
        lower = np.linalg.cholesky(schur)
    except np.linalg.LinAlgError:
        return None
    L = np.zeros((n, n))
    L[:m, :m] = previous.chol
    L[m:, :m] = cross.T
    L[m:, m:] = lower
    return L


def fit(dataset: MultiTaskDataset, sigma: CorrelationMatrix, params: KernelParams,
        base_gram: np.ndarray | None = None, previous: Posterior | None = None) -> Posterior:
    """Fit the exact multi-task GP posterior.

    ``base_gram`` optionally supplies a precomputed squared-exponential Gram
    matrix of the inputs so that refits across different correlation matrices
    only pay for the Cholesky factorization.  ``previous``, a posterior of an
    earlier dataset, lets the factor and the grid cache grow by the new rows
    instead of being rebuilt when that applies (see the module notes); the
    result agrees with a fresh fit to rounding.
    """
    if dataset.n == 0:
        return Posterior(dataset, sigma, params, np.zeros((0, 0)), np.zeros(0), 0.0, np.zeros(0))
    L = None if previous is None else _extended_factor(previous, dataset, sigma, params,
                                                       base_gram)
    if L is None:
        system = gram(dataset, sigma, params, base_gram) + params.noise_variance * np.eye(dataset.n)
        L, jitter = _chol_with_jitter(system, params.signal_variance)
        grid = {}
    else:
        jitter, grid = previous.jitter, dict(previous._grid)
    y = dataset.observations
    alpha = cho_solve((L, True), y)
    whitened_obs = solve_triangular(L, y, lower=True)
    return Posterior(dataset, sigma, params, L, alpha, jitter, whitened_obs, grid)


def log_marginal_likelihood(dataset: MultiTaskDataset, sigma: CorrelationMatrix,
                            params: KernelParams, base_gram: np.ndarray | None = None) -> float:
    """Log density of the observations under the zero-mean GP prior plus noise.

    Reads the factor and the weights of :func:`fit`, so both factor the same
    regularized system.
    """
    if dataset.n == 0:
        return 0.0
    posterior = fit(dataset, sigma, params, base_gram)
    y = dataset.observations
    return float(
        -0.5 * y @ posterior.alpha - np.sum(np.log(np.diag(posterior.chol)))
        - 0.5 * dataset.n * np.log(2.0 * np.pi)
    )
