"""Independent reference computations the tests check the package against.

Nothing in the package calls these: they are the plain, per-point or
Cholesky-per-node forms of what the package computes in batches or through
closed forms, kept here so a test does not share the code it checks.

The frequentist robust route (Fiedler, Scherer and Trimpe 2021, AAAI) lives
here too: the operator norm lambda between the RKHSs of two correlation
matrices, the exact RKHS norm from latent inner products, the lambda-inflated
beta_f and the kernel-dominance criterion.  No run calls it, since the
frequentist coverage suite fits at the true correlation matrix; it stays here,
with its tests, until ROADMAP item 5 gives it a suite that fits at a
sigma-prime other than Sigma.

Helpers only tests call live here as well: :func:`empty_dataset`,
:func:`stage_factor` and the Lyapunov reference.  :func:`lyapunov_solution` is scipy's
``solve_continuous_lyapunov`` with the residual check of
:func:`samsbo.benchmarks.h2_cost`; :func:`lyapunov_solve` checks stability
before it.  :func:`h2_cost_reference` computes the laser cost from a separate
``geev`` stability check and that solve, which factors the closed loop again,
where the package reads both from one Schur factorization.
:func:`closed_loop_reference` builds the laser closed loop entry by entry,
where the package fills the gain entries of a per-task skeleton.
:func:`frequentist_trials_reference` runs the frequentist coverage suite one
trial at a time, a fit and a prediction per trial, where the package whitens
and predicts a block of trials with one product each.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.linalg import solve, solve_continuous_lyapunov
from scipy.spatial.distance import cdist

from samsbo import bounds, verify
from samsbo.benchmarks import (
    INSTABILITY_PENALTY_FACTOR,
    LASER_FILTER_POLES,
    LASER_OMEGA,
    LASER_OUTPUT_SCALE,
    LASER_SUBSYSTEMS,
    LASER_ZETA,
    LaserChainProblem,
    StabilityError,
)
from samsbo.bounds import beta_freq
from samsbo.gp import MultiTaskDataset, fit, log_marginal_likelihood
from samsbo.hyperposterior import R_MAX
from samsbo.kernels import CorrelationMatrix, KernelParams, gram, se_kernel_matrix
from samsbo.safeopt import make_grid
from samsbo.twotask import TwoTaskFactor


def empty_dataset(dim: int) -> MultiTaskDataset:
    """A dataset of no rows on ``dim`` inputs."""
    return MultiTaskDataset(np.zeros((0, dim)), np.zeros(0, dtype=int), np.zeros(0))


def stage_factor(dataset: MultiTaskDataset, n_tasks: int,
                 params: KernelParams) -> TwoTaskFactor | None:
    """The ``factor`` a refresh stage takes for ``dataset``: its own two-task factor, or None."""
    return TwoTaskFactor.build(dataset, params) if n_tasks == 2 else None


def lyapunov_solution(A: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Symmetric PSD P solving A P + P A' + Q = 0 for an A the caller has checked is Hurwitz."""
    P = solve_continuous_lyapunov(A, -Q)
    P = 0.5 * (P + P.T)
    residual = np.linalg.norm(A @ P + P @ A.T + Q)
    # backward-error criterion: near-marginal systems have large ||P|| and the
    # attainable residual scales with ||A|| ||P||, not with ||Q|| alone
    bound = 1e-8 * max(np.linalg.norm(Q) + 2.0 * np.linalg.norm(A) * np.linalg.norm(P), 1e-30)
    if residual > bound:
        raise StabilityError(f"Lyapunov residual too large: {residual:.3e}")
    return P


def lyapunov_solve(A: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Solve A P + P A' + Q = 0 for a Hurwitz A; P is symmetric PSD.

    Checks stability first, at -1e-12; :func:`h2_cost_reference` makes its
    own check, at -1e-9, before the same solve.
    """
    A = np.asarray(A, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if np.max(np.linalg.eigvals(A).real) >= -1e-12:
        raise StabilityError("matrix is not Hurwitz")
    return lyapunov_solution(A, Q)


def h2_cost_reference(pi_params: np.ndarray, problem: LaserChainProblem, z: int) -> float:
    """:func:`samsbo.benchmarks.h2_cost` with its stability check and solve factored apart.

    The margin reads ``np.linalg.eigvals`` (LAPACK ``geev``) and the solve is
    scipy's, which computes its own Schur form; the penalty and clip are the same.
    """
    A, B, C = problem.closed_loop(pi_params, z)
    penalty = INSTABILITY_PENALTY_FACTOR * problem.threshold
    if np.max(np.linalg.eigvals(A).real) >= -1e-9:
        return penalty
    P = lyapunov_solution(A, B @ B.T)
    return min(LASER_OUTPUT_SCALE * float(np.sqrt(max(np.trace(C @ P @ C.T), 0.0))), penalty)


def se_kernel_oracle(X: np.ndarray, Y: np.ndarray, params: KernelParams) -> np.ndarray:
    """sf2 * exp(-0.5 * cdist(X / ell, Y / ell)) with the operands in the order given."""
    d2 = cdist(X / params.lengthscales, Y / params.lengthscales, metric="sqeuclidean")
    return params.signal_variance * np.exp(-0.5 * d2)


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
    return np.array([log_marginal_likelihood(fit(dataset, CorrelationMatrix.two_task(float(r)),
                                                 params, base_gram=base)) for r in rs])


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


def gamma_at(sigma_prime: CorrelationMatrix, members) -> float:
    """Variance-ratio factor sqrt(max over ``members`` of |S'^-1 S|_2) at any sigma-prime.

    2x2 members take the closed form in their off-diagonals r, since S(r) has
    eigenvalues 1 + r and 1 - r; larger ones take one solve and 2-norm per
    unique member.  A set whose every member is sigma_prime gives exactly 1.
    """
    if all(member.key() == sigma_prime.key() for member in members):
        return 1.0
    if sigma_prime.size == 2:
        rs, r_prime = np.array([m.matrix[0, 1] for m in members]), sigma_prime.matrix[0, 1]
        ratios = np.maximum((1.0 + rs) / (1.0 + r_prime), (1.0 - rs) / (1.0 - r_prime))
        return float(np.sqrt(np.max(ratios)))
    unique = {member.key(): member for member in members}.values()
    return math.sqrt(max(
        float(np.linalg.norm(solve(sigma_prime.matrix, m.matrix, assume_a="pos"), 2))
        for m in unique))


def operator_norm_lambda(sigma: CorrelationMatrix, sigma_prime: CorrelationMatrix) -> float:
    """Norm of the operator mapping expansions between the two RKHSs, sqrt(|S'^-1 S|_2)."""
    return math.sqrt(float(np.linalg.norm(np.linalg.solve(sigma_prime.matrix, sigma.matrix), 2)))


def rkhs_norm_exact(sigma: CorrelationMatrix, inner_products: np.ndarray) -> float:
    """Exact RKHS norm sqrt(sum_ij [S^-1]_ij <h_i, h_j>) from latent inner products."""
    g = np.asarray(inner_products, dtype=float)
    if np.min(np.linalg.eigvalsh(0.5 * (g + g.T))) < -1e-10:
        raise ValueError("inner product matrix must be positive semidefinite")
    val = float(np.sum(np.linalg.inv(sigma.matrix) * g))
    return float(np.sqrt(max(val, 0.0)))


def beta_freq_robust(latent_norms: np.ndarray, sigma_prime: CorrelationMatrix,
                     n_obs: int, delta: float) -> float:
    """Robust frequentist factor with the norm inflated by lambda = sqrt(|S'^-1|_2).

    ``latent_norms`` holds the nonnegative RKHS norm of each latent
    single-task function.  Specializes the norm transport to the identity
    correlation matrix, where the stacked latent norm sqrt(sum of squares) is
    the exact RKHS norm.
    """
    norms = np.atleast_1d(np.asarray(latent_norms, dtype=float))
    if np.any(norms < 0.0):
        raise ValueError("latent norms must be nonnegative")
    lam = operator_norm_lambda(CorrelationMatrix.identity(sigma_prime.size), sigma_prime)
    return beta_freq(lam * float(np.linalg.norm(norms)), n_obs, delta)


def kernel_dominance(sigma: CorrelationMatrix, sigma_prime: CorrelationMatrix,
                     beta: float) -> bool:
    """Whether beta^2 * Sigma - Sigma' is positive semidefinite.

    For a positive semidefinite base kernel this is equivalent to
    beta^2 K_Sigma - K_Sigma' being a positive definite kernel, the inclusion
    criterion between the two RKHSs.
    """
    diff = beta ** 2 * sigma.matrix - sigma_prime.matrix
    scale = max(float(np.max(np.abs(diff))), 1.0)
    return bool(np.min(np.linalg.eigvalsh(diff)) >= -1e-10 * scale)


def frequentist_trials_reference(trials: int, delta: float, seed: int
                                 ) -> list[tuple[np.ndarray, dict[int, np.ndarray], bool]]:
    """Each trial of ``verify.frequentist_coverage(trials, delta, seed)``, fitted on its own.

    Draws what the suite draws, one ``standard_normal(n)`` per trial, fits each
    trial's observations with ``fit(previous=)`` of the trial before, and
    returns per trial its observations, both tasks' means on the grid and
    whether |f - mean| <= sqrt(beta) std + ``verify.NUMERIC_SLACK`` at every
    grid point.  beta is ``bounds.beta_freq``, looked up at the call.
    """
    rng = np.random.default_rng(seed)
    params = KernelParams(1.0, [0.25], noise_variance=0.01)
    sigma = CorrelationMatrix.two_task(0.6)
    m = 8
    centers = rng.random((m, 1))
    center_tasks = rng.integers(1, 3, size=m)
    coefficients = 0.5 * rng.standard_normal(m)
    expansion = MultiTaskDataset(centers, center_tasks, np.zeros(m))
    norm = float(np.sqrt(coefficients @ gram(expansion, sigma, params) @ coefficients))

    def values(points, z):
        weights = sigma.matrix[z - 1, center_tasks - 1] * coefficients
        return se_kernel_matrix(points, centers, params) @ weights

    n_obs = verify.FREQUENTIST_OBSERVATIONS
    half = n_obs // 2
    design = np.vstack([rng.random((half, 1)), rng.random((n_obs - half, 1))])
    design_tasks = np.concatenate([np.ones(half, dtype=int), np.full(n_obs - half, 2, dtype=int)])
    f_design = np.array([values(design[i:i + 1], int(design_tasks[i]))[0] for i in range(n_obs)])
    grid = make_grid(1, verify.GRID_SIZE).points
    f_grid = {z: values(grid, z) for z in (1, 2)}
    beta = bounds.beta_freq(norm, n_obs, delta)

    out = []
    posterior = None
    for _ in range(trials):
        y = f_design + np.sqrt(params.noise_variance) * rng.standard_normal(n_obs)
        posterior = fit(MultiTaskDataset(design, design_tasks, y), sigma, params,
                        previous=posterior)
        means, covered = {}, True
        for z in (1, 2):
            means[z], variances = posterior.predict_batch(grid, z)
            band = np.sqrt(beta) * np.sqrt(variances)
            covered &= not np.any(np.abs(f_grid[z] - means[z]) > band + verify.NUMERIC_SLACK)
        out.append((y, means, covered))
    return out


def closed_loop_reference(problem: LaserChainProblem, pi_params: np.ndarray,
                          z: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:meth:`LaserChainProblem.closed_loop`'s (A, B, C), built entry by entry in loops."""
    n = LASER_SUBSYSTEMS
    pi_params = np.asarray(pi_params, dtype=float)
    kp, ki = pi_params[:n], pi_params[n:]
    poles = LASER_FILTER_POLES
    if z > 1:
        poles = LASER_FILTER_POLES * (1.0 + problem.signs[z - 2] * problem.disturbance)
    dim = 1 + 4 * n
    A = np.zeros((dim, dim))
    B = np.zeros((dim, n + 1))
    C = np.zeros((n, dim))
    A[0, 0] = -poles[0]
    B[0, 0] = 1.0
    for i in range(n):
        b = 1 + 4 * i
        w = LASER_OMEGA[i]
        w2 = w * w
        # predecessor timing: reference filter output for the first subsystem
        pred_col = 0 if i == 0 else b - 4
        A[b, b + 1] = 1.0
        A[b + 1, b] = -w2 * (1.0 + kp[i])
        A[b + 1, b + 1] = -2.0 * LASER_ZETA * w
        A[b + 1, b + 2] = w2 * ki[i]
        A[b + 1, b + 3] = w2
        A[b + 1, pred_col] += w2 * kp[i]
        A[b + 2, b] = -1.0
        A[b + 2, pred_col] += 1.0
        A[b + 3, b + 3] = -poles[1 + i]
        B[b + 3, 1 + i] = 1.0
        C[i, b] = -1.0
        C[i, pred_col] += 1.0
    return A, B, C
