"""Monte Carlo verification of the probabilistic bound claims.

The frequentist suite builds a function as a finite kernel expansion with an
exactly known RKHS norm, repeatedly regenerates the observation noise, and
counts how often the scaled posterior band contains the function on a dense
grid.  The design and Sigma are fixed, so every trial after the first passes
the previous trial's posterior to :func:`samsbo.gp.fit` as ``previous``: all
trials share the first trial's Cholesky factor and whitened grid, and a
trial's band check costs one G x n product per task.

The Bayesian suite draws the correlation matrix from its prior and the
function from the corresponding multi-task GP, runs the optimization loop's
own model refresh, :func:`samsbo.bounds.robust_model`, on the noisy
observations, and checks the robust band the same way.  The ICM prior
covariance of the function on the G-point grid is the Kronecker product
Sigma (x) K, so one call factors the grid kernel once, L_K = chol(K + eps I)
with eps = DRAW_JITTER, and each trial draws (L_Sigma (x) L_K) xi: no 2G x 2G
matrix is formed.

Each suite queries its own read-only grid, so the posterior's grid cache
applies and the two tasks of one posterior share one base kernel.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bounds, gp, hyperposterior
from .kernels import CorrelationMatrix, KernelParams, gram, se_kernel_matrix

__all__ = ["CoverageReport", "frequentist_coverage", "bayesian_coverage"]

NUMERIC_SLACK = 1e-9
COVERAGE_SLACK = 0.05       # how far below its target a suite's empirical coverage may fall
DRAW_JITTER = 1e-10         # diagonal added to the grid kernel before factoring it
FREQUENTIST_OBSERVATIONS = 30   # design size of the frequentist suite, half on each task


@dataclass(frozen=True)
class CoverageReport:
    name: str
    trials: int
    successes: int
    target: float
    slack: float

    @property
    def empirical(self) -> float:
        return self.successes / self.trials if self.trials else 1.0

    @property
    def passed(self) -> bool:
        return self.trials == 0 or self.empirical >= self.target - self.slack

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{self.name}: {self.successes}/{self.trials} covered "
                f"({self.empirical:.4f} vs target {self.target:.4f} - {self.slack:.2f}) {status}")


def _expansion_values(grid: np.ndarray, centers: np.ndarray, center_tasks: np.ndarray,
                      coefficients: np.ndarray, sigma: CorrelationMatrix,
                      params: KernelParams, task: int) -> np.ndarray:
    """Values of f_task(x) = sum_j c_j Sigma[task, z_j] k(x, x_j) on the grid."""
    base = se_kernel_matrix(grid, centers, params)
    weights = sigma.matrix[task - 1, center_tasks - 1] * coefficients
    return base @ weights


def _read_only_grid(size: int) -> np.ndarray:
    """``size`` equispaced points of [0, 1] as a column array that owns its read-only data.

    A read-only view of a writable array does not count as read-only for the
    grid cache, so the points are copied.
    """
    grid = np.linspace(0.0, 1.0, size).reshape(-1, 1).copy()
    grid.setflags(write=False)
    return grid


def _two_task_draw(chol_grid: np.ndarray, r: float,
                   xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both tasks' values of (L_Sigma (x) L_K) xi, Sigma = [[1, r], [r, 1]].

    With ``chol_grid`` = L_K of size G and xi of length 2G, f_1 = L_K xi_1 and
    f_2 = r f_1 + sqrt(1 - r^2) L_K xi_2, so standard normal xi gives a draw
    with covariance Sigma (x) L_K L_K'.
    """
    g = chol_grid.shape[0]
    first = chol_grid @ xi[:g]
    second = r * first + np.sqrt(1.0 - r * r) * (chol_grid @ xi[g:])
    return first, second


def _covers(posterior: gp.Posterior, grid: np.ndarray, f_grid: dict[int, np.ndarray],
            beta: float) -> bool:
    """Whether |f - mean| <= sqrt(beta) std at every grid point, task 1 first."""
    for z in (1, 2):
        means, variances = posterior.predict_batch(grid, z)
        band = np.sqrt(beta) * np.sqrt(variances)
        if np.any(np.abs(f_grid[z] - means) > band + NUMERIC_SLACK):
            return False
    return True


def frequentist_coverage(trials: int = 500, delta: float = 0.05, grid_size: int = 200,
                         seed: int = 0) -> CoverageReport:
    """Coverage of the frequentist band around a fixed finite kernel expansion.

    One-dimensional two-task setup; only the observation noise is redrawn per
    trial, so every trial reuses the first trial's factor and whitened grid
    through ``gp.fit(previous=)``.  The RKHS norm entering the scaling factor
    is exact through the Gram quadratic form of the expansion coefficients.
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    rng = np.random.default_rng(seed)
    params = KernelParams(1.0, [0.25], noise_variance=0.01)
    sigma = CorrelationMatrix.two_task(0.6)

    m = 8
    centers = rng.random((m, 1))
    center_tasks = rng.integers(1, 3, size=m)
    coefficients = 0.5 * rng.standard_normal(m)
    expansion = gp.MultiTaskDataset(centers, center_tasks, np.zeros(m))
    norm = float(np.sqrt(coefficients @ gram(expansion, sigma, params) @ coefficients))

    n_obs = FREQUENTIST_OBSERVATIONS
    half = n_obs // 2
    design = np.vstack([rng.random((half, 1)), rng.random((n_obs - half, 1))])
    design_tasks = np.concatenate([np.ones(half, dtype=int), np.full(n_obs - half, 2, dtype=int)])
    f_design = np.array([
        _expansion_values(design[i:i + 1], centers, center_tasks, coefficients, sigma,
                          params, int(design_tasks[i]))[0]
        for i in range(n_obs)
    ])

    grid = _read_only_grid(grid_size)
    f_grid = {z: _expansion_values(grid, centers, center_tasks, coefficients, sigma, params, z)
              for z in (1, 2)}
    beta = bounds.beta_freq(norm, n_obs, delta)
    noise_sd = np.sqrt(params.noise_variance)

    successes = 0
    posterior = None
    for _ in range(trials):
        y = f_design + noise_sd * rng.standard_normal(n_obs)
        posterior = gp.fit(gp.MultiTaskDataset(design, design_tasks, y), sigma, params,
                           previous=posterior)
        successes += _covers(posterior, grid, f_grid, beta)
    return CoverageReport("frequentist", trials, successes, 1.0 - delta, COVERAGE_SLACK)


def bayesian_coverage(trials: int = 200, n_per_task: int = 20, delta: float = 0.05,
                      rho: float = 0.15, eta: float = 0.1, grid_size: int = 200,
                      seed: int = 0) -> CoverageReport:
    """Coverage of the robust Bayesian band under prior-drawn correlation matrices.

    Each trial draws the true correlation r from the LKJ prior restricted to
    nonnegative entries, samples the function from the matching multi-task GP
    on the grid, refreshes the model with :func:`samsbo.bounds.robust_model`
    as the loop does, and checks the band with the robust scaling factor at
    every grid point.  beta_b counts |I| = G, the points checked.

    The function is drawn as (L_Sigma (x) L_K) xi for one standard normal xi
    of length 2G, with L_K = chol(K + DRAW_JITTER I) of the G x G grid kernel
    factored once per call.  Its covariance is Sigma(r) (x) (K + DRAW_JITTER I).
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    master = np.random.SeedSequence(seed).spawn(trials)
    params = KernelParams(1.0, [0.2], noise_variance=0.01)
    grid = _read_only_grid(grid_size)
    noise_sd = np.sqrt(params.noise_variance)
    chol_grid = np.linalg.cholesky(se_kernel_matrix(grid, grid, params)
                                   + DRAW_JITTER * np.eye(grid_size))

    successes = 0
    for trial_seed in master:
        rng = np.random.default_rng(trial_seed)
        r_true = hyperposterior.sample_prior_offdiagonal(eta, rng)
        f1, f2 = _two_task_draw(chol_grid, r_true, rng.standard_normal(2 * grid_size))
        f_grid = {1: f1, 2: f2}

        idx1 = rng.choice(grid_size, size=n_per_task, replace=False)
        idx2 = rng.choice(grid_size, size=n_per_task, replace=False)
        inputs = np.vstack([grid[idx1], grid[idx2]])
        tasks = np.concatenate([np.ones(n_per_task, dtype=int),
                                np.full(n_per_task, 2, dtype=int)])
        values = np.concatenate([f_grid[1][idx1], f_grid[2][idx2]])
        y = values + noise_sd * rng.standard_normal(2 * n_per_task)
        dataset = gp.MultiTaskDataset(inputs, tasks, y)

        _, bundle, posterior = bounds.robust_model(dataset, 2, eta, rho, grid_size, params, delta)
        successes += _covers(posterior, grid, f_grid, bundle.beta_bar)
    return CoverageReport("bayesian", trials, successes, (1.0 - delta) * (1.0 - rho),
                          COVERAGE_SLACK)
