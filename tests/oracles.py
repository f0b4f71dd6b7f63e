"""Independent reference computations the tests check the package against.

Nothing in the package calls these: they are the plain, per-point or
Cholesky-per-node forms of what the package computes in batches or through
closed forms, kept here so a test does not share the code it checks.
"""
from __future__ import annotations

import numpy as np

from samsbo.gp import log_marginal_likelihood
from samsbo.hyperposterior import R_MAX
from samsbo.kernels import CorrelationMatrix, KernelParams, se_kernel_matrix


def se_kernel(x: np.ndarray, x_prime: np.ndarray, params: KernelParams) -> float:
    """Squared-exponential kernel value sf2 * exp(-0.5 * sum(((x-x')/ell)^2))."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    x_prime = np.atleast_1d(np.asarray(x_prime, dtype=float))
    if x.shape != x_prime.shape or x.size != params.dim:
        raise ValueError(
            f"dimension mismatch: x {x.shape}, x' {x_prime.shape}, lengthscales ({params.dim},)"
        )
    r = (x - x_prime) / params.lengthscales
    return float(params.signal_variance * np.exp(-0.5 * np.dot(r, r)))


def multitask_kernel(x: np.ndarray, z: int, x_prime: np.ndarray, z_prime: int,
                     sigma: CorrelationMatrix, params: KernelParams) -> float:
    """Separable covariance Sigma[z, z'] * k(x, x') with 1-based task indices."""
    u = sigma.size
    if not (1 <= z <= u and 1 <= z_prime <= u):
        raise ValueError(f"task indices must lie in 1..{u}")
    return float(sigma.matrix[z - 1, z_prime - 1]) * se_kernel(x, x_prime, params)


def predict(posterior, x: np.ndarray, z: int) -> tuple[float, float]:
    """Posterior mean and variance of task ``z`` at a single input."""
    means, variances = posterior.predict_batch(np.atleast_2d(np.asarray(x, dtype=float)), z)
    return float(means[0]), float(variances[0])


def mean_values(posterior, points, z: int = 1) -> np.ndarray:
    """Posterior means of task ``z`` at a list of inputs."""
    points = np.asarray(points, dtype=float)
    if points.size == 0:
        return np.zeros(0)
    return posterior.predict_batch(np.atleast_2d(points), z)[0]


def two_task_log_likelihoods(dataset, params: KernelParams, rs: np.ndarray) -> np.ndarray:
    """Log marginal likelihood at each Sigma(r), one Cholesky factorization per r."""
    if dataset.n == 0:
        return np.zeros(len(rs))
    base = se_kernel_matrix(dataset.inputs, dataset.inputs, params)
    return np.array([log_marginal_likelihood(dataset, CorrelationMatrix.two_task(float(r)),
                                             params, base_gram=base) for r in rs])


def posterior_grid_two_task(dataset, params: KernelParams, eta: float,
                            nodes: int = 2000) -> tuple[np.ndarray, np.ndarray]:
    """Dense-grid quadrature of the two-task hyper-posterior over r in [0, R_MAX].

    Returns grid nodes and normalized weights proportional to likelihood times
    the LKJ prior density (1 - r^2)^(eta - 1), every node evaluated by Cholesky.
    """
    r = np.linspace(0.0, R_MAX, nodes)
    logs = two_task_log_likelihoods(dataset, params, r) + (eta - 1.0) * np.log1p(-r * r)
    w = np.exp(logs - logs.max())
    return r, w / w.sum()
