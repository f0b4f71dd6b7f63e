"""Exact multi-task Gaussian process regression.

Posterior mean and variance follow the standard closed form with the
single-task Gram matrix replaced by its multi-task counterpart.  The fitted
state is a Cholesky factor of the regularized Gram matrix plus the weight
vector, both immutable after :func:`fit`, so concurrent predictions need no
coordination.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Posterior:
    """Fitted multi-task GP state supporting mean/variance queries per task."""

    dataset: MultiTaskDataset
    sigma_used: CorrelationMatrix
    params: KernelParams
    chol: np.ndarray
    alpha: np.ndarray
    gram_noiseless: np.ndarray

    def predict(self, x: np.ndarray, z: int) -> tuple[float, float]:
        """Posterior mean and variance of task ``z`` at a single input."""
        means, variances = self.predict_batch(np.atleast_2d(np.asarray(x, dtype=float)), z)
        return float(means[0]), float(variances[0])

    def predict_batch(self, points: np.ndarray, z: int) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized posterior mean/variance of one task at many inputs."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        u = self.sigma_used.size
        if not 1 <= z <= u:
            raise ValueError(f"task index must lie in 1..{u}")
        prior_var = self.sigma_used.matrix[z - 1, z - 1] * self.params.signal_variance
        if self.dataset.n == 0:
            return np.zeros(points.shape[0]), np.full(points.shape[0], prior_var)
        k_star = self._cross_gram(points, z)
        means = k_star @ self.alpha
        v = solve_triangular(self.chol, k_star.T, lower=True)
        return means, clamp_variances(prior_var - np.sum(v * v, axis=0))

    def mean_values(self, points, z: int = 1) -> np.ndarray:
        """Posterior means of task ``z`` at a list of inputs."""
        points = np.asarray(points, dtype=float)
        if points.size == 0:
            return np.zeros(0)
        return self.predict_batch(np.atleast_2d(points), z)[0]

    def mean_rkhs_norm(self) -> float:
        """RKHS norm sqrt(alpha' K alpha) of the posterior mean function."""
        if self.dataset.n == 0:
            return 0.0
        val = float(self.alpha @ self.gram_noiseless @ self.alpha)
        return float(np.sqrt(max(val, 0.0)))

    def _cross_gram(self, points: np.ndarray, z: int) -> np.ndarray:
        base = se_kernel_matrix(points, self.dataset.inputs, self.params)
        return self.sigma_used.matrix[z - 1, self.dataset.tasks - 1] * base


def fit(dataset: MultiTaskDataset, sigma: CorrelationMatrix, params: KernelParams,
        base_gram: np.ndarray | None = None) -> Posterior:
    """Fit the exact multi-task GP posterior.

    ``base_gram`` optionally supplies a precomputed squared-exponential Gram
    matrix of the inputs so that refits across different correlation matrices
    only pay for the Cholesky factorization.
    """
    if dataset.n == 0:
        return Posterior(dataset, sigma, params, np.zeros((0, 0)), np.zeros(0), np.zeros((0, 0)))
    K = gram(dataset, sigma, params, base_gram)
    system = K + params.noise_variance * np.eye(dataset.n)
    L, _ = _chol_with_jitter(system, params.signal_variance)
    alpha = cho_solve((L, True), dataset.observations)
    return Posterior(dataset, sigma, params, L, alpha, K)


def log_marginal_likelihood(dataset: MultiTaskDataset, sigma: CorrelationMatrix,
                            params: KernelParams, base_gram: np.ndarray | None = None) -> float:
    """Log density of the observations under the zero-mean GP prior plus noise."""
    if dataset.n == 0:
        return 0.0
    K = gram(dataset, sigma, params, base_gram)
    system = K + params.noise_variance * np.eye(dataset.n)
    L, _ = _chol_with_jitter(system, params.signal_variance)
    y = dataset.observations
    alpha = cho_solve((L, True), y)
    return float(
        -0.5 * y @ alpha - np.sum(np.log(np.diag(L))) - 0.5 * dataset.n * np.log(2.0 * np.pi)
    )
