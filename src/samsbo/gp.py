"""Exact multi-task Gaussian process regression.

Posterior mean and variance follow the standard closed form with the
single-task Gram matrix replaced by its multi-task counterpart.  The fitted
state is a Cholesky factor L of the regularized Gram matrix, the jitter that
factor carries and the whitened observations L^-1 y, which the mean and the
log marginal likelihood read in place of a weight vector K^-1 y.  A jitter is
a multiple of the signal variance, here and in :mod:`samsbo.twotask`: the
diagonal carries noise variance + jitter * signal variance.

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
keeps per task the whitened cross-Gram V_z = L^-1 k_z(data, points) and its
column sums of squares, so the mean is V_z' L^-1 y and the variance the prior
minus those sums.  A repeated query is a lookup, and an extended posterior
inherits its predecessor's entries and grows them by the new rows only.

A fill of rows m.. serves every task at once, so all tasks' entries cover the
same rows.  It inverts the factor's trailing block, M = L[m:, m:]^-1 (LAPACK
``dtrtri``: the whole factor for a fresh fill, m = 0, and the k x k block of
the new rows for a grown one), evaluates the base kernel k(data[m:], points)
once, and computes per task one matrix product

    V_z[m:] = M diag(s_z) k(data[m:], points) - (M L[m:, :m]) V_z[:m],

with s_z the correlations Sigma[z, task] of task z with those rows; only the
cache entries outlive it.  Against a triangular solve, V_z agrees to about
cond(L) times the unit roundoff: 2e-14 at noise 0.01 and 1e-12 at cond(L) =
2.5e4 (a jitter-escalated factor); the tests hold it to 1e-10.

Row i of V_z is the same for every posterior whose data agree on their first
i + 1 rows, so a task's entries along a chain of extensions share one row
buffer: a fresh fill's product becomes the buffer's storage, and an extension
writes its rows in place when its predecessor's rows are the last ones
written, and copies them into a new buffer otherwise (a sibling extended
first).  Each V_z is a read-only view of the leading rows of a buffer, which
only ever appends behind every view and grows its capacity by GRID_GROWTH.
The check and the append happen under the buffer's lock.

Posterior types.  :meth:`Posterior.predict_batch` clamps the mean and
variance of the ``_moments`` hook, and :meth:`Posterior.pick_covariance` is
the covariance a fantasized pick downdates with.  The two-task posterior of
:mod:`samsbo.twotask` subclasses :class:`Posterior` and overrides both: it has
no joint factor and reads its grid moments from two single-task fits of this
module, one per task, whose grid caches grow as above.  So :func:`fit` serves
one task, three or more tasks, the frequentist coverage suite, the per-task
fits of a two-task factor and the hyper-posterior's Cholesky cross-check; no
two-task model refresh factors the joint n x n system at sigma-prime.

The factor, whitened observations and dataset never change after :func:`fit`;
the grid cache is the only mutable state.  A fill empties it and then stores
every task's entry at once, so a reader sees one fill's entries or none; fills
are deterministic, so threads that race on one compute the same value.
"""
from __future__ import annotations

import logging
import math
import threading
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dtrtri

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

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

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


def inverse_factor(chol: np.ndarray) -> np.ndarray:
    """L^-1 of a lower-triangular factor (LAPACK ``dtrtri``); an empty factor is its own."""
    if chol.size == 0:
        return chol
    inverse, info = dtrtri(chol, lower=1)
    if info != 0:
        raise NumericalError(f"triangular factor is singular (dtrtri info {info})")
    return inverse


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

    def __init__(self, rows: np.ndarray):
        self.data = rows            # owned: its leading ``filled`` rows are never rewritten
        self.filled = rows.shape[0]
        self.lock = threading.Lock()

    def view(self) -> np.ndarray:
        """Read-only view of the filled rows."""
        view = self.data[:self.filled]
        view.setflags(write=False)
        return view

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
            return self.view()


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
        """``entry`` grown by ``block`` (C-contiguous; its column sums of squares are ``sumsq``).

        Appends to ``entry``'s buffer when its rows are the last written there.
        Otherwise a new buffer takes ``block`` itself as its storage, behind a
        copy of ``entry``'s rows when there is an entry (a sibling extended first).
        """
        whitened = None if entry is None else entry.buffer.append(entry.rows, block)
        if whitened is not None:
            buffer = entry.buffer
        else:
            buffer = _RowBuffer(block if entry is None else np.vstack([entry.whitened, block]))
            whitened = buffer.view()
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
    jitter: float
    whitened_obs: np.ndarray
    _grid: list = field(default_factory=list, repr=False, compare=False)

    def predict_batch(self, points: np.ndarray, z: int) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized posterior mean/variance of one task at many inputs.

        For a read-only ``points`` the whitened cross-Gram comes from the grid
        cache (see the module notes); the returned arrays are new each call.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        u = self.sigma_used.size
        if not 1 <= z <= u:
            raise ValueError(f"task index must lie in 1..{u}")
        if self.dataset.n == 0:
            prior_var = self.sigma_used.matrix[z - 1, z - 1] * self.params.signal_variance
            return np.zeros(points.shape[0]), np.full(points.shape[0], prior_var)
        mean, variance = self._moments(points, z)
        return mean, clamp_variances(variance)

    def _moments(self, points: np.ndarray, z: int) -> tuple[np.ndarray, np.ndarray]:
        """Mean and unclamped variance of task ``z`` at ``points``, for nonempty data."""
        whitened, sumsq = self.whitened(points, z)
        prior_var = self.sigma_used.matrix[z - 1, z - 1] * self.params.signal_variance
        return whitened.T @ self.whitened_obs, prior_var - sumsq

    def pick_covariance(self, points: np.ndarray, z: int, task: int, idx: int) -> np.ndarray:
        """Posterior covariance of task ``z`` at every point with task ``task`` at ``points[idx]``.

        It is Sigma[z, task] k(x, x_idx) - V_z(x)' V_task(x_idx), the whitened
        cross-Grams V coming from the grid cache.
        """
        prior = se_kernel_matrix(points, points[idx:idx + 1], self.params)[:, 0]
        at_pick = self.whitened(points, task)[0][:, idx]
        whitened = self.whitened(points, z)[0]
        return self.sigma_used.matrix[z - 1, task - 1] * prior - whitened.T @ at_pick

    def whitened(self, points: np.ndarray, z: int) -> tuple[np.ndarray, np.ndarray]:
        """L^-1 k_z(data, points) and its column sums of squares.

        For a read-only ``points`` every task is filled at once and cached (see
        the module notes); the returned arrays are then shared and read-only.
        """
        if not 1 <= z <= self.sigma_used.size:
            raise ValueError(f"task index must lie in 1..{self.sigma_used.size}")
        if not _frozen(points):
            return self._new_rows([], points)[z - 1]
        grid = [entry for entry in self._grid[:] if entry.points is points]   # one fill's, or none
        if not grid or grid[0].rows < self.dataset.n:
            rows = self._new_rows(grid, points)
            self._grid.clear()      # each old entry dies once grown; a racing reader refills
            grid = grid or [None] * len(rows)
            for i, new in enumerate(rows):
                grid[i] = _GridEntry.extended(grid[i], points, *new)
            self._grid[:] = grid
        return grid[z - 1].whitened, grid[z - 1].sumsq

    def _new_rows(self, entries: list[_GridEntry],
                  points: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per task, the rows of V_z past the m rows ``entries`` cover and their sums of squares.

        ``entries`` holds every task's entry, or none for a fresh fill (m = 0);
        the module notes give the product.
        """
        m = entries[0].rows if entries else 0
        inverse = inverse_factor(self.chol[m:, m:])
        base = se_kernel_matrix(points, self.dataset.inputs[m:], self.params)
        blocks = [(inverse * scale) @ base.T
                  for scale in self.sigma_used.matrix[:, self.dataset.tasks[m:] - 1]]
        del base        # so the squares below never coexist with it: u + 1 blocks at most
        if m:
            projection = inverse @ self.chol[m:, :m]
            for block, entry in zip(blocks, entries):
                block -= projection @ entry.whitened
        return [(block, np.sum(block * block, axis=0)) for block in blocks]


def _extended_factor(previous: Posterior, dataset: MultiTaskDataset, sigma: CorrelationMatrix,
                     params: KernelParams, base_gram: np.ndarray | None = None
                     ) -> np.ndarray | None:
    """Cholesky factor of ``dataset``'s system grown from ``previous``'s, or None when that does not apply.

    Applies when ``previous`` has a factor (a two-task posterior has none), the
    correlation matrix and the kernel parameters are equal and the previous
    inputs and tasks are an exact prefix of ``dataset``'s.  The
    new rows' kernel columns [K12; K22] come from one cross-kernel call, or
    from the new columns of ``base_gram`` when given.  The new block carries
    the previous factor's jitter; a Schur complement that is not positive
    definite at that jitter returns None.
    """
    old = previous.dataset
    m, n = old.n, dataset.n
    if not (0 < m <= n and previous.chol is not None
            and previous.sigma_used == sigma and previous.params == params
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
        return Posterior(dataset, sigma, params, np.zeros((0, 0)), 0.0, np.zeros(0))
    L = None if previous is None else _extended_factor(previous, dataset, sigma, params,
                                                       base_gram)
    if L is None:
        system = gram(dataset, sigma, params, base_gram) + params.noise_variance * np.eye(dataset.n)
        L, jitter = _chol_with_jitter(system, params.signal_variance)
        grid = []
    else:
        jitter, grid = previous.jitter, list(previous._grid)
    whitened_obs = solve_triangular(L, dataset.observations, lower=True)
    return Posterior(dataset, sigma, params, L, jitter, whitened_obs, grid)


def log_marginal_likelihood(dataset: MultiTaskDataset, sigma: CorrelationMatrix,
                            params: KernelParams, base_gram: np.ndarray | None = None) -> float:
    """Log density of the observations under the zero-mean GP prior plus noise.

    Reads the factor and the whitened observations w = L^-1 y of :func:`fit`,
    so both factor the same regularized system: y' K^-1 y = |w|^2.
    """
    if dataset.n == 0:
        return 0.0
    posterior = fit(dataset, sigma, params, base_gram)
    w = posterior.whitened_obs
    return float(
        -0.5 * w @ w - np.sum(np.log(np.diag(posterior.chol)))
        - 0.5 * dataset.n * np.log(2.0 * np.pi)
    )
