"""Monte Carlo verification of the probabilistic bound claims.

The frequentist suite builds a function as a finite kernel expansion with an
exactly known RKHS norm, repeatedly regenerates the observation noise, and
counts how often the scaled posterior band contains the function on a dense
grid.  The design, Sigma and the kernel are fixed, so one :func:`samsbo.gp.fit`
of the design serves every trial: the variances, and so the band, are the
same for all of them, and a trial's mean is linear in its observations y,
S_z y with task z's G x n smoother S_z = V_z' L^-1 from the fit's factor L
and whitened grid V_z.  The suite forms both smoothers once, with L^-1 from
LAPACK ``dtrtri``, and runs the trials in blocks of ``FREQUENTIST_BLOCK``,
each drawn and compared before the next: a block costs two products, S_z Y'
for each task, and per task one vectorized comparison of the means with the
band.  The products round differently from a fit and a solve per trial: on
seeds 0-3 at 500 trials the means agree with those of per-trial fits to
1.8e-15 (the tests hold them to 1e-12 and the covered flags to equality).
The expansion's values at the design come from one kernel call and one
row product per design point, so they are those of one-row evaluations, bit
for bit.

The suite's memory stays at what a fit per trial touched.  After 200
Bayesian trials, the 500 default frequentist trials lift the process's
high-water mark by 48-84 kB (``VmHWM``, seeds 1-4; a fit per trial lifted it
by 44-92 kB).  The two smoothers take 48 kB each, and at 32 trials a block's
G x b means take 51 kB, where blocks of 64 lifted the mark by about 170 kB.
L^-1 comes from ``dtrtri`` on the 30 x 30 factor, the routine every grid
fill runs: a ``dtrtrs`` solve with many right-hand sides runs OpenBLAS's
level-3 ``trsm``, which touched about 270 kB of memory nothing else in
verify-bounds touches.  A block's noise is one ``standard_normal((b, n))``
call, which fills its rows in C order with the values of b successive
``standard_normal(n)`` calls, so the suite draws the stream a trial-by-trial
loop draws.

The Bayesian suite draws the correlation matrix from its prior and the
function from the corresponding multi-task GP, runs the optimization loop's
own model refresh, :func:`samsbo.bounds.robust_model`, on the noisy
observations, and checks the robust band the same way.  The ICM prior
covariance of the function on the G-point grid is the Kronecker product
Sigma (x) K, so the grid kernel is factored once per process,
L_K = chol(K + eps I) with eps = ``gp.JITTER_START`` times the signal
variance (:func:`_draw_factor`), and each trial draws (L_Sigma (x) L_K) xi:
no 2G x 2G matrix is formed.

Both suites check the band on the read-only ``make_grid(1, GRID_SIZE).points``,
so the posterior's grid cache applies and the two tasks of one posterior
share one base kernel.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from . import bounds, gp, hyperposterior
from .config import ExperimentConfig, kernel_params
from .kernels import CorrelationMatrix, KernelParams, gram, se_kernel_matrix
from .safeopt import make_grid

__all__ = ["CoverageReport", "frequentist_coverage", "bayesian_coverage"]

NUMERIC_SLACK = 1e-9
COVERAGE_SLACK = 0.05       # how far below its target a suite's empirical coverage may fall
GRID_SIZE = 200             # points of the 1-D grid on which both suites check the band
FREQUENTIST_OBSERVATIONS = 30   # design size of the frequentist suite, half on each task
BAYESIAN_OBSERVATIONS_PER_TASK = 20     # grid points the Bayesian suite observes on each task
FREQUENTIST_BLOCK = 32      # frequentist trials per block of products
DEFAULTS = ExperimentConfig()   # the suites' delta, rho, eta, trial counts and seed


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


@cache
def _draw_factor() -> tuple[np.ndarray, np.ndarray]:
    """The read-only points of ``make_grid(1, GRID_SIZE)`` and L_K on them.

    L_K = chol(K + eps I) of the grid kernel under ``kernel_params(1)``, with
    eps = ``gp.JITTER_START`` times its signal variance.  The grid size, the
    kernel parameters and the jitter are constants, so a process factors the
    grid once.
    """
    grid = make_grid(1, GRID_SIZE).points
    params = kernel_params(1)
    chol = np.linalg.cholesky(se_kernel_matrix(grid, grid, params)
                              + gp.JITTER_START * params.signal_variance * np.eye(GRID_SIZE))
    chol.setflags(write=False)
    return grid, chol


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


def _block_covered(smoothers: dict[int, np.ndarray], f_grid: dict[int, np.ndarray],
                   bands: dict[int, np.ndarray], observations: np.ndarray) -> np.ndarray:
    """Per row y of ``observations``, whether |f - S_z y| <= band at every grid point.

    ``smoothers`` holds per task z the G x n smoother S_z of the design's fit,
    so S_z Y' holds the block's means, one column per row, overwritten here by
    |f - mean|; ``bands`` holds per task sqrt(beta) std + ``NUMERIC_SLACK``.
    """
    covered = np.ones(observations.shape[0], dtype=bool)
    for z, smoother in smoothers.items():
        deviations = smoother @ observations.T
        deviations -= f_grid[z][:, None]
        np.abs(deviations, out=deviations)
        covered &= ~np.any(deviations > bands[z][:, None], axis=0)
    return covered


def frequentist_coverage(trials: int = DEFAULTS.frequentist_trials, delta: float = DEFAULTS.delta,
                         seed: int = DEFAULTS.seed) -> CoverageReport:
    """Coverage of the frequentist band around a fixed finite kernel expansion.

    One-dimensional two-task setup; only the observation noise is redrawn per
    trial.  One fit of the design gives each task's smoother S_z = V_z' L^-1
    and the variances of every trial, and the trials run in blocks of
    ``FREQUENTIST_BLOCK``, each predicted by one product S_z Y' per task (see
    the module notes).  The means agree with those of a fit per trial to about
    2e-15, and the noise is the stream a draw per trial gives.  The RKHS norm
    entering the scaling factor is exact through the Gram quadratic form of the
    expansion coefficients.
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
    # one row product per design point, so f_design has the bits of one-row expansions
    weights = sigma.matrix[design_tasks[:, None] - 1, center_tasks - 1] * coefficients
    base = se_kernel_matrix(design, centers, params)
    f_design = (base[:, None, :] @ weights[:, :, None])[:, 0, 0]

    grid = make_grid(1, GRID_SIZE).points
    f_grid = {z: _expansion_values(grid, centers, center_tasks, coefficients, sigma, params, z)
              for z in (1, 2)}
    beta = bounds.beta_freq(norm, n_obs, delta)
    noise_sd = np.sqrt(params.noise_variance)

    posterior = gp.fit(gp.MultiTaskDataset(design, design_tasks, f_design), sigma, params)
    bands = {z: np.sqrt(beta) * np.sqrt(posterior.predict_batch(grid, z)[1]) + NUMERIC_SLACK
             for z in (1, 2)}
    inverse = gp.inverse_factor(posterior.chol)
    # S_z in Fortran order, the layout in which a block's product runs fastest
    smoothers = {z: (inverse.T @ entry.whitened).T
                 for z, entry in enumerate(posterior._entries(grid), start=1)}
    successes = 0
    for start in range(0, trials, FREQUENTIST_BLOCK):
        noise = rng.standard_normal((min(FREQUENTIST_BLOCK, trials - start), n_obs))
        covered = _block_covered(smoothers, f_grid, bands, f_design + noise_sd * noise)
        successes += int(np.count_nonzero(covered))
    return CoverageReport("frequentist", trials, successes, 1.0 - delta, COVERAGE_SLACK)


def bayesian_coverage(trials: int = DEFAULTS.bayesian_trials, delta: float = DEFAULTS.delta,
                      rho: float = DEFAULTS.rho, eta: float = DEFAULTS.eta,
                      seed: int = DEFAULTS.seed) -> CoverageReport:
    """Coverage of the robust Bayesian band under prior-drawn correlation matrices.

    Each trial draws the true correlation r from the LKJ prior restricted to
    nonnegative entries, samples the function from the matching multi-task GP
    on the grid, refreshes the model with :func:`samsbo.bounds.robust_model`
    as the loop does, and checks the band with the robust scaling factor at
    every grid point.  beta_b counts |I| = G, the points checked.

    The function is drawn as (L_Sigma (x) L_K) xi for one standard normal xi
    of length 2G, with L_K = chol(K + eps I) of the G x G grid kernel
    factored once per process (:func:`_draw_factor`).  Its
    covariance is Sigma(r) (x) (K + eps I).  Each task observes
    ``BAYESIAN_OBSERVATIONS_PER_TASK`` distinct grid points.
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    master = np.random.SeedSequence(seed).spawn(trials)
    params = kernel_params(1)
    grid_size, n_per_task = GRID_SIZE, BAYESIAN_OBSERVATIONS_PER_TASK
    grid, chol_grid = _draw_factor()
    noise_sd = np.sqrt(params.noise_variance)

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

        model = bounds.robust_model(dataset, 2, eta, rho, grid_size, params, delta)
        successes += _covers(model.posterior, grid, f_grid, model.bundle.beta_bar)
    return CoverageReport("bayesian", trials, successes, (1.0 - delta) * (1.0 - rho),
                          COVERAGE_SLACK)
