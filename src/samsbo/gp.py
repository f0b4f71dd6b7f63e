"""Exact multi-task Gaussian process regression.

Posterior mean and variance follow the standard closed form with the
single-task Gram matrix replaced by its multi-task counterpart.  The fitted
state is a Cholesky factor L of the regularized Gram matrix, the jitter that
factor carries and the whitened observations L^-1 y, which the mean and the
log marginal likelihood read in place of a weight vector K^-1 y; the caller
of :func:`log_marginal_likelihood` names the fit it reads.  A jitter is a
multiple of the signal variance, here and in :mod:`samsbo.twotask`: the
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

Grid cache.  For an array of query points, :meth:`Posterior.predict_batch`
keeps per task the whitened cross-Gram V_z = L^-1 k_z(data, points), its
column sums of squares and the mean V_z' w, w = L^-1 y, so the variance is
the prior minus those sums.  A repeated query is a lookup, and an extended
posterior inherits its predecessor's entries and grows them by the new rows
only.  Beside them the cache keeps the points divided by the lengthscales,
made once per point array and kernel and inherited along the chain, so a
fill and the prior covariance of a fantasized pick (``_GridEntry.kernel_row``)
each pay one short distance call and one ``exp`` (:func:`samsbo.kernels.se_kernel_scaled`).

Entries are found by the identity of a read-only point array.  ``_entries``,
the one lookup, converts a query to a float row stack, refuses one whose width
is not the model's input count, and freezes a writable ``points`` into a
read-only copy, so a writable query is a fresh fill (m = 0 below) whose
entries replace the cached ones.  The loop and the coverage suites pass
read-only grids only, which keep their identity.

One fill path.  A fill of rows m.. serves every task at once, so all tasks'
entries cover the same rows.  It inverts the factor's trailing block,
M = L[m:, m:]^-1 (LAPACK ``dtrtri``: the whole factor for a fresh fill, m = 0,
and the k x k block of the new rows for a grown one), evaluates the base
kernel k(data[m:], points) once, and computes per task one matrix product

    V_z[m:] = M diag(s_z) k(data[m:], points) - (M L[m:, :m]) V_z[:m],

with s_z the correlations Sigma[z, task] of task z with those rows; only the
cache entries outlive it.  Against a triangular solve, V_z agrees to about
cond(L) times the unit roundoff: 2e-14 at noise 0.01 and 1e-12 at cond(L) =
2.5e4 (a jitter-escalated factor); the tests hold it to 1e-10.

Every fill also gives every task's mean V_z' w without a second read of the
grid: w[:m]' rides under M L[m:, :m] as one extra row of the product above,
which then also yields w[:m]' V_z[:m], and the mean is that row plus
V_z[m:]' w[m:] over the new rows (a fresh fill computes V_z' w over its own
block).  The entry keeps the mean with the w it belongs to.  A posterior
reads the kept mean when that w is its own (``is``) and computes V_z' w
otherwise, which happens when inherited entries already cover its rows but
its observations differ: the per-task fit of a two-task factor whose task
gained no rows (:mod:`samsbo.twotask`).

The product with the extra row runs over blocks of GRID_BLOCK grid rows.  On
OpenBLAS a product of two rows with more than about 250 grid rows at G = 2,051
leaves ``gemm``'s small-matrix kernel for its packed path, which copies the
grid before reading it and costs as much as the two separate products; in
blocks it costs about one.  A tall block pays for it: laser's two-task fits
grow by k = 20 rows a step, and at m = 200 and G = 2,051 (one thread of a
2-core Xeon VM) their 21-row blocked product takes about 570 us against 475 us
for the 20-row single product without the mean; the two-task posterior then
runs no product over the grids for its means.
The split sums round differently from one product over all rows: the mean
agrees with V_z' w to about 1e-14 relative (the tests hold it to 1e-12).
The extra row can also move the last bits of the new rows, and so of the
variances: numpy computes a one-row product (k = 1, every step of a one-task
loop) with BLAS ``gemv`` and a taller one with ``gemm``, whose sums are
ordered differently.  In the benchmark's loops on OpenBLAS the means moved by
at most 2e-14 and the variances by at most 5e-14 against single products; no
decision changed and the fixed-seed outputs are byte-identical.

Row i of V_z is the same for every posterior whose data agree on their first
i + 1 rows, so a task's entries along a chain of extensions share one row
buffer: a fresh fill's product becomes the buffer's storage, and an extension
writes its rows in place when its predecessor's rows are the last ones
written, and copies them into a new buffer otherwise (a sibling extended
first).  Each V_z is a read-only view of the leading rows of a buffer, which
only ever appends behind every view and grows its capacity by GRID_GROWTH.
The check and the append happen under the buffer's lock.

Posterior types.  :meth:`Posterior.predict_batch` checks the task index and
clamps the variance of the ``_moments`` hook; :meth:`Posterior.pick_covariance`,
the covariance a fantasized pick downdates with, checks both task indices and
returns the ``_pick_covariance`` hook's.  The two-task posterior of
:mod:`samsbo.twotask` overrides both hooks: it has no joint factor and reads
its grid moments, means included, from the entries of two single-task fits
of this module, one per task, which grow as above.  So :func:`fit` serves one
task, three or more tasks, the frequentist coverage suite, the per-task fits
of a two-task factor and that factor's Cholesky cross-check; no two-task
model refresh factors the joint n x n system at sigma-prime.

LAPACK.  The whitened observations and the growth's L21' call ``dtrtrs`` as
``scipy.linalg.solve_triangular`` would, and :func:`solve_positive` calls
``dpotrf`` and ``dpotrs`` as ``solve(assume_a="pos")`` (``lower=0``) or
``cho_solve(cho_factor(lower=True))`` (``lower=1``) would: bit-identical,
without their finiteness scans.  These and ``dtrtri`` are the objects
``scipy.linalg.lapack`` exports, loaded without its package init
(:mod:`samsbo._scipy`).  Non-finite values are refused where they enter: a
dataset holds finite inputs and observations, and a factor whose diagonal is
not finite is refused where it is made.  A fresh fit adds the noise and the
jitter to its Gram's diagonal in place.

Logging.  :func:`clamp_variances` warns, on the logger ``samsbo.gp``, when a
variance lies below ``VARIANCE_WARN``; that warning is the package's only log
record, and ``logging`` is imported in its branch, so importing the package
does not load it.

The factor, whitened observations and dataset never change after :func:`fit`;
the grid cache is the only mutable state.  A fill empties the cache and then
stores every task's entry, mean included, in one list assignment, so a reader
sees one fill's entries or none; fills are deterministic, so threads that race
on one compute the same value.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from ._scipy import extension
from .kernels import CorrelationMatrix, KernelParams, gram, se_kernel_matrix, se_kernel_scaled

__all__ = [
    "MultiTaskDataset",
    "Posterior",
    "NumericalError",
    "clamp_variances",
    "fit",
    "log_marginal_likelihood",
]

_flapack = extension("linalg", "_flapack")
dtrtri, dtrtrs, dpotrf, dpotrs = _flapack.dtrtri, _flapack.dtrtrs, _flapack.dpotrf, _flapack.dpotrs

JITTER_START = 1e-10
JITTER_MAX = 1e-6
VARIANCE_WARN = -1e-8
GRID_GROWTH = 2.0         # capacity factor of a full grid row buffer
GRID_BLOCK = 64           # grid rows per product of a grown fill


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
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise ValueError("inputs and observations must be finite")
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


def _finite_factor(chol: np.ndarray) -> bool:
    """Whether a Cholesky factor is finite.

    A NaN or infinite entry of the factored system reaches the diagonal of its
    row, and OpenBLAS returns such a factor without an error.
    """
    return bool(np.isfinite(chol.diagonal()).all())


def _chol_with_jitter(system: np.ndarray, scale: float) -> tuple[np.ndarray, float]:
    """Cholesky factor of ``system``, consumed by jitter added in place; escalating on failure."""
    unshifted = system.diagonal().copy()
    jitter = JITTER_START
    while jitter <= JITTER_MAX * 1.001:
        np.fill_diagonal(system, unshifted + jitter * scale)
        try:
            chol = np.linalg.cholesky(system)
        except np.linalg.LinAlgError:
            jitter *= 10.0
            continue
        if not _finite_factor(chol):
            raise NumericalError("system matrix has non-finite entries")
        return chol, jitter
    raise NumericalError(f"system matrix not positive definite after jitter up to "
                         f"{JITTER_MAX:g} * signal_variance")


def inverse_factor(chol: np.ndarray) -> np.ndarray:
    """L^-1 of a lower-triangular factor (LAPACK ``dtrtri``); an empty factor is its own."""
    if chol.size == 0:
        return chol
    inverse, info = dtrtri(chol, lower=1)
    if info != 0:
        raise NumericalError(f"triangular factor is singular (dtrtri info {info})")
    return inverse


def solve_positive(system: np.ndarray, rhs: np.ndarray, lower: int) -> np.ndarray:
    """system^-1 rhs, positive definite, as scipy solves it (module notes); empty gives rhs."""
    chol, info = dpotrf(system, lower=lower, clean=0)
    solution, info = dpotrs(chol, rhs, lower=lower) if info == 0 and system.size else (rhs, info)
    if info != 0:
        raise NumericalError(f"system not positive definite (dpotrf/dpotrs info {info})")
    return solution


def _solve_lower(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """L^-1 rhs for a nonempty lower-triangular factor, bit-identical to scipy's solve.

    As ``solve_triangular(chol, rhs, lower=True)`` does with the C-ordered factors
    this module makes, it passes the transpose with the triangle and the
    transposition flipped, which is correct for any layout.
    """
    solution, info = dtrtrs(chol.T, rhs, lower=0, trans=1)
    if info != 0:
        raise NumericalError(f"triangular solve failed (dtrtrs info {info})")
    return solution


def clamp_variances(variances: np.ndarray) -> np.ndarray:
    """Posterior variances floored at zero; a warning counts those below VARIANCE_WARN."""
    bad = variances < VARIANCE_WARN
    if np.any(bad):
        import logging      # see the module notes

        logging.getLogger(__name__).warning(
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
    """Whitened cross-Gram of one task at one read-only point array, and its mean."""

    points: np.ndarray
    scaled: np.ndarray          # points / lengthscales, read-only and shared by every task
    buffer: _RowBuffer          # ``whitened`` is a view of its leading rows
    whitened: np.ndarray        # rows x len(points)
    sumsq: np.ndarray           # column sums of squares of ``whitened``
    obs: np.ndarray             # the whitened observations w of the fill's posterior
    mean: np.ndarray            # whitened' obs, read-only

    @classmethod
    def extended(cls, entry: "_GridEntry | None", points: np.ndarray, scaled: np.ndarray,
                 block: np.ndarray, sumsq: np.ndarray, obs: np.ndarray, mean: np.ndarray
                 ) -> "_GridEntry":
        """``entry`` grown by ``block`` (C-contiguous; its column sums of squares are ``sumsq``),
        with the mean ``mean`` of the grown rows against ``obs``.

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
        return cls(points, scaled, buffer, whitened, sumsq, obs, mean)

    @property
    def rows(self) -> int:
        """Leading data rows covered by ``whitened``."""
        return self.whitened.shape[0]

    def mean_of(self, obs: np.ndarray) -> np.ndarray:
        """whitened' obs as a new array: a copy of the kept mean when it belongs to ``obs``."""
        return self.mean.copy() if obs is self.obs else self.whitened.T @ obs

    def kernel_row(self, idx: int, params: KernelParams) -> np.ndarray:
        """k(points[idx], x) at every x of the points, from the scaled copy."""
        return se_kernel_scaled(self.scaled[idx:idx + 1], self.scaled, params)[0]


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

        The whitened cross-Gram and the mean come from the grid cache (see the
        module notes); the returned arrays are new each call.
        """
        u = self.sigma_used.size
        if not 1 <= z <= u:
            raise ValueError(f"task index must lie in 1..{u}")
        mean, variance = self._moments(points, z)
        return mean, clamp_variances(variance)

    def _moments(self, points: np.ndarray, z: int) -> tuple[np.ndarray, np.ndarray]:
        """Mean and unclamped variance of task ``z`` at ``points``; empty data give the prior.

        The mean is the one the entry keeps when a fill of this posterior made
        it, and V_z' w otherwise (see the module notes).
        """
        entry = self._entries(points)[z - 1]
        prior_var = self.sigma_used.matrix[z - 1, z - 1] * self.params.signal_variance
        return entry.mean_of(self.whitened_obs), prior_var - entry.sumsq

    def pick_covariance(self, points: np.ndarray, z: int, task: int, idx: int) -> np.ndarray:
        """Posterior covariance of task ``z`` at every point with task ``task`` at ``points[idx]``."""
        u = self.sigma_used.size
        if not (1 <= z <= u and 1 <= task <= u):
            raise ValueError(f"task indices must lie in 1..{u}")
        return self._pick_covariance(points, z, task, idx)

    def _pick_covariance(self, points: np.ndarray, z: int, task: int, idx: int) -> np.ndarray:
        """Sigma[z, task] k(x, x_idx) - V_z(x)' V_task(x_idx), the V from the grid cache."""
        grid = self._entries(points)
        at_pick = grid[task - 1].whitened[:, idx]
        return (self.sigma_used.matrix[z - 1, task - 1] * grid[0].kernel_row(idx, self.params)
                - grid[z - 1].whitened.T @ at_pick)

    def _entries(self, points: np.ndarray) -> list[_GridEntry]:
        """Every task's grid cache entry at ``points``, filled up to the data's rows.

        ``points`` is taken as a float row stack of the model's input width; a
        writable one is first frozen into a read-only copy, whose fresh entries
        replace the cached ones (see the module notes).
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != self.params.dim:
            raise ValueError("input dimension does not match lengthscales")
        if not _frozen(points):
            points = points.copy()
            points.setflags(write=False)
        grid = [entry for entry in self._grid[:] if entry.points is points]   # one fill's, or none
        if not grid or grid[0].rows < self.dataset.n:
            if grid:
                scaled = grid[0].scaled
            else:
                scaled = points / self.params.lengthscales
                scaled.setflags(write=False)
            rows = self._new_rows(grid, scaled)
            self._grid.clear()      # each old entry dies once grown; a racing reader refills
            grid = grid or [None] * len(rows)
            for i, (block, sumsq, mean) in enumerate(rows):
                grid[i] = _GridEntry.extended(grid[i], points, scaled, block, sumsq,
                                              self.whitened_obs, mean)
            self._grid[:] = grid
        return grid

    def _new_rows(self, entries: list[_GridEntry], scaled: np.ndarray
                  ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per task, the rows of V_z past the m rows ``entries`` cover, their sums of squares
        and the read-only mean V_z' w.

        ``entries`` holds every task's entry, or none for a fresh fill (m = 0);
        ``scaled`` is the query points divided by the lengthscales.  The
        module notes give the product and the mean's extra row.
        """
        m = entries[0].rows if entries else 0
        inverse = inverse_factor(self.chol[m:, m:])
        base = se_kernel_scaled(scaled, self.dataset.inputs[m:] / self.params.lengthscales,
                                self.params)
        blocks = [(inverse * scale) @ base.T
                  for scale in self.sigma_used.matrix[:, self.dataset.tasks[m:] - 1]]
        del base        # so the squares below never coexist with it: u + 1 blocks at most
        if m:
            projection = np.vstack([inverse @ self.chol[m:, :m], self.whitened_obs[:m]])
            k = self.dataset.n - m
        rows = []
        for i, block in enumerate(blocks):
            if m:
                product = _blocked_product(projection, entries[i].whitened)
                block -= product[:k]
            mean = block.T @ self.whitened_obs[m:]
            if m:
                mean += product[k]              # w[:m]' V_z[:m], from the extra row
            mean.setflags(write=False)
            rows.append((block, np.sum(block * block, axis=0), mean))
        return rows


def _blocked_product(rows: np.ndarray, whitened: np.ndarray) -> np.ndarray:
    """``rows @ whitened``, summed over blocks of GRID_BLOCK rows of ``whitened``.

    Each block is one product, so the grid is still read once (see the module notes).
    """
    product = rows[:, :GRID_BLOCK] @ whitened[:GRID_BLOCK]
    for start in range(GRID_BLOCK, whitened.shape[0], GRID_BLOCK):
        product += rows[:, start:start + GRID_BLOCK] @ whitened[start:start + GRID_BLOCK]
    return product


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
    definite at that jitter, or whose factor is not finite, returns None.
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
    cross = _solve_lower(previous.chol, columns[:m])   # L21'
    schur = columns[m:]
    # noise, then jitter: the order of a full fit's K + noise I and its jitter
    diagonal = np.arange(n - m)
    schur[diagonal, diagonal] += params.noise_variance
    schur[diagonal, diagonal] += previous.jitter * params.signal_variance
    schur -= cross.T @ cross
    try:
        lower = np.linalg.cholesky(schur)
    except np.linalg.LinAlgError:
        return None
    if not _finite_factor(lower):
        return None
    L = np.empty((n, n))
    L[:m, :m] = previous.chol
    L[:m, m:] = 0.0
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
        system = gram(dataset, sigma, params, base_gram)
        system.flat[::dataset.n + 1] += params.noise_variance
        L, jitter = _chol_with_jitter(system, params.signal_variance)
        grid = []
    else:
        jitter, grid = previous.jitter, list(previous._grid)
    whitened_obs = _solve_lower(L, dataset.observations)
    return Posterior(dataset, sigma, params, L, jitter, whitened_obs, grid)


def log_marginal_likelihood(posterior: Posterior) -> float:
    """Log density of a fit's observations under its zero-mean GP prior plus noise.

    Reads the factor and the whitened observations w = L^-1 y of a
    :func:`fit`, so both factor the same regularized system: y' K^-1 y = |w|^2.
    It factors nothing itself; an empty fit gives 0.  A posterior without a
    joint factor raises ``TypeError``.
    """
    if posterior.chol is None:
        raise TypeError("a posterior without a joint factor has no Cholesky log likelihood; "
                        "read TwoTaskFactor.log_likelihood")
    w = posterior.whitened_obs
    return float(-0.5 * w @ w - np.sum(np.log(np.diag(posterior.chol)))
                 - 0.5 * posterior.dataset.n * np.log(2.0 * np.pi))
