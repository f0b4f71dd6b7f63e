"""Monte Carlo verification of the probabilistic bound claims.

The frequentist suite builds a function as a finite kernel expansion with an
exactly known RKHS norm, repeatedly regenerates the observation noise, and
counts how often the scaled posterior band contains the function on a dense
grid.  The Bayesian suite draws the correlation matrix from its prior and the
function from the corresponding multi-task GP, runs the optimization loop's
own model refresh, :func:`samsbo.bounds.robust_model`, on the noisy
observations, and checks the robust band the same way.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bounds, gp, hyperposterior
from .kernels import CorrelationMatrix, KernelParams, gram, se_kernel_matrix

__all__ = ["CoverageReport", "frequentist_coverage", "bayesian_coverage"]

NUMERIC_SLACK = 1e-9


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


def _covers(posterior: gp.Posterior, grid: np.ndarray, f_grid: dict[int, np.ndarray],
            beta: float, psi: float = 0.0) -> bool:
    """Whether |f - mean| <= sqrt(beta) std + psi at every grid point, task 1 first."""
    for z in (1, 2):
        means, variances = posterior.predict_batch(grid, z)
        band = np.sqrt(beta) * np.sqrt(variances) + psi
        if np.any(np.abs(f_grid[z] - means) > band + NUMERIC_SLACK):
            return False
    return True


def frequentist_coverage(trials: int = 500, n_obs: int = 30, delta: float = 0.05,
                         grid_size: int = 200, seed: int = 0) -> CoverageReport:
    """Coverage of the frequentist band around a fixed finite kernel expansion.

    One-dimensional two-task setup; only the observation noise is redrawn per
    trial.  The RKHS norm entering the scaling factor is exact through the
    Gram quadratic form of the expansion coefficients.
    """
    if trials == 0:
        return CoverageReport("frequentist", 0, 0, 1.0 - delta, 0.05)
    rng = np.random.default_rng(seed)
    params = KernelParams(1.0, [0.25], noise_variance=0.01)
    sigma = CorrelationMatrix.two_task(0.6)

    m = 8
    centers = rng.random((m, 1))
    center_tasks = rng.integers(1, 3, size=m)
    coefficients = 0.5 * rng.standard_normal(m)
    expansion = gp.MultiTaskDataset(centers, center_tasks, np.zeros(m))
    norm = float(np.sqrt(coefficients @ gram(expansion, sigma, params) @ coefficients))

    half = n_obs // 2
    design = np.vstack([rng.random((half, 1)), rng.random((n_obs - half, 1))])
    design_tasks = np.concatenate([np.ones(half, dtype=int), np.full(n_obs - half, 2, dtype=int)])
    f_design = np.array([
        _expansion_values(design[i:i + 1], centers, center_tasks, coefficients, sigma,
                          params, int(design_tasks[i]))[0]
        for i in range(n_obs)
    ])

    grid = np.linspace(0.0, 1.0, grid_size).reshape(-1, 1)
    f_grid = {z: _expansion_values(grid, centers, center_tasks, coefficients, sigma, params, z)
              for z in (1, 2)}
    beta = bounds.beta_freq(norm, n_obs, delta)
    noise_sd = np.sqrt(params.noise_variance)

    successes = 0
    for _ in range(trials):
        y = f_design + noise_sd * rng.standard_normal(n_obs)
        posterior = gp.fit(gp.MultiTaskDataset(design, design_tasks, y), sigma, params)
        successes += _covers(posterior, grid, f_grid, beta)
    return CoverageReport("frequentist", trials, successes, 1.0 - delta, 0.05)


def bayesian_coverage(trials: int = 200, n_per_task: int = 20, delta: float = 0.05,
                      rho: float = 0.15, eta: float = 0.1, grid_size: int = 200,
                      seed: int = 0) -> CoverageReport:
    """Coverage of the robust Bayesian band under prior-drawn correlation matrices.

    Each trial draws the true correlation from the LKJ prior restricted to
    nonnegative entries, samples the function from the matching multi-task GP
    on the grid, refreshes the model with :func:`samsbo.bounds.robust_model`
    as the loop does, and checks the band with the robust scaling factor on
    the grid (where the discretization correction vanishes).
    """
    target = (1.0 - delta) * (1.0 - rho)
    if trials == 0:
        return CoverageReport("bayesian", 0, 0, target, 0.05)
    master = np.random.SeedSequence(seed).spawn(trials)
    params = KernelParams(1.0, [0.2], noise_variance=0.01)
    grid = np.linspace(0.0, 1.0, grid_size).reshape(-1, 1)
    tau = 1.0 / (2.0 * (grid_size - 1))
    disc = bounds.DiscretizationSpec(tau, 1)
    noise_sd = np.sqrt(params.noise_variance)
    base_grid = se_kernel_matrix(grid, grid, params)

    successes = 0
    for trial_seed in master:
        rng = np.random.default_rng(trial_seed)
        r_true = hyperposterior.sample_prior_offdiagonal(eta, rng)
        sigma_true = CorrelationMatrix.two_task(r_true)

        cov = np.kron(sigma_true.matrix, base_grid)
        chol = np.linalg.cholesky(cov + 1e-10 * np.eye(2 * grid_size))
        sample = chol @ rng.standard_normal(2 * grid_size)
        f_grid = {1: sample[:grid_size], 2: sample[grid_size:]}

        idx1 = rng.choice(grid_size, size=n_per_task, replace=False)
        idx2 = rng.choice(grid_size, size=n_per_task, replace=False)
        inputs = np.vstack([grid[idx1], grid[idx2]])
        tasks = np.concatenate([np.ones(n_per_task, dtype=int),
                                np.full(n_per_task, 2, dtype=int)])
        values = np.concatenate([f_grid[1][idx1], f_grid[2][idx2]])
        y = values + noise_sd * rng.standard_normal(2 * n_per_task)
        dataset = gp.MultiTaskDataset(inputs, tasks, y)

        _, bundle, posterior = bounds.robust_model(dataset, 2, eta, rho, disc, params, delta)
        successes += _covers(posterior, grid, f_grid, bundle.beta_bar, bundle.psi)
    return CoverageReport("bayesian", trials, successes, target, 0.05)
