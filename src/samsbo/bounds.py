"""Scaling factors turning posterior standard deviations into uniform error bounds.

Frequentist route: beta_f from a known RKHS norm plus a concentration term on
the noise vector, made robust to the correlation matrix used for inference via
the operator norm linking the two reproducing kernel Hilbert spaces.

Bayesian route: beta_b = 2 log(|I| / delta) on a discretization of the input
space, made robust over a confidence set of correlation matrices through a
mean-shift term nu, a variance-ratio factor gamma and the discretization
correction psi built from moduli of continuity and a sampled Lipschitz
constant.  The robust factor is beta_bar = (nu + gamma * sqrt(beta_b))^2.

When the dataset, sigma-prime and every member are two-task with unit
diagonal, sigma-prime selection, gamma and nu take the closed forms of
:mod:`samsbo.twotask`: nu then costs O(n^2) per unique member from one shared
:class:`~samsbo.twotask.TwoTaskFactor` instead of a Cholesky factorization
each.  Other sets take the general path, one factorization per member.

:func:`robust_model` is the one model refresh of the optimization loop and of
the Bayesian coverage suite, and the one place that builds that factor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve

from . import gp, hyperposterior, twotask
from .config import ConfigError
from .hyperposterior import ConfidenceSet
from .kernels import CorrelationMatrix, KernelParams, kernel_lipschitz, se_kernel_matrix

__all__ = [
    "DiscretizationSpec",
    "ScalingBundle",
    "LatentNormSpec",
    "beta_freq",
    "operator_norm_lambda",
    "rkhs_norm_exact",
    "beta_freq_robust",
    "covering_number",
    "beta_bayes",
    "modulus_mu",
    "modulus_sigma",
    "estimate_feature_lipschitz",
    "sample_lipschitz_bound",
    "select_sigma_prime",
    "gamma_factor",
    "nu_factor",
    "scaling_bundle",
    "robust_model",
    "kernel_dominance",
]


@dataclass(frozen=True)
class DiscretizationSpec:
    """Covering of the unit hypercube at radius tau in the infinity norm."""

    tau: float
    dimension: int

    def __post_init__(self):
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie in (0, 1)")
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")

    @property
    def cardinality(self) -> int:
        return covering_number(self.tau, self.dimension)


@dataclass(frozen=True)
class ScalingBundle:
    """All bound ingredients for one iteration.

    Satisfies beta_bar = (nu + gamma * sqrt(beta_b))^2 and
    psi = lipschitz_f * tau + omega_mu + sqrt(beta_b) * omega_sigma exactly.
    When the discretization correction is neglected all psi constituents are
    zero so the identities still hold.
    """

    beta_b: float
    nu: float
    gamma: float
    beta_bar: float
    omega_mu: float
    omega_sigma: float
    lipschitz_f: float
    psi: float
    delta: float
    rho: float
    tau: float


@dataclass(frozen=True)
class LatentNormSpec:
    """Known norms of the latent single-task functions, or their full inner products."""

    norms: np.ndarray | None = None
    inner_products: np.ndarray | None = None

    def __post_init__(self):
        if (self.norms is None) == (self.inner_products is None):
            raise ValueError("provide exactly one of norms or inner_products")
        if self.norms is not None:
            v = np.atleast_1d(np.asarray(self.norms, dtype=float))
            if np.any(v < 0.0):
                raise ValueError("latent norms must be nonnegative")
            object.__setattr__(self, "norms", v)
        else:
            g = np.asarray(self.inner_products, dtype=float)
            if g.ndim != 2 or g.shape[0] != g.shape[1]:
                raise ValueError("inner product matrix must be square")
            if np.min(np.linalg.eigvalsh(0.5 * (g + g.T))) < -1e-10:
                raise ValueError("inner product matrix must be positive semidefinite")
            object.__setattr__(self, "inner_products", g)

    def stacked_norm(self) -> float:
        """Norm of the stacked latent vector, sqrt(sum of squared norms)."""
        if self.norms is not None:
            return float(np.sqrt(np.sum(self.norms ** 2)))
        return float(np.sqrt(max(np.trace(self.inner_products), 0.0)))


def _noise_term(n_obs: int, delta: float) -> float:
    log_inv = math.log(1.0 / delta)
    return math.sqrt(n_obs + 2.0 * math.sqrt(n_obs * log_inv) + 2.0 * log_inv)


def beta_freq(rkhs_norm: float, n_obs: int, delta: float) -> float:
    """Frequentist scaling factor (|f| + sqrt(N + 2 sqrt(N ln 1/d) + 2 ln 1/d))^2."""
    if rkhs_norm < 0.0:
        raise ValueError("rkhs_norm must be nonnegative")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return (rkhs_norm + _noise_term(n_obs, delta)) ** 2


def operator_norm_lambda(sigma: CorrelationMatrix, sigma_prime: CorrelationMatrix) -> float:
    """Norm of the operator mapping expansions between the two RKHSs, sqrt(|S'^-1 S|_2)."""
    product = solve(sigma_prime.matrix, sigma.matrix, assume_a="pos")
    return float(np.sqrt(np.linalg.norm(product, 2)))


def rkhs_norm_exact(sigma: CorrelationMatrix, inner_products: np.ndarray) -> float:
    """Exact RKHS norm sqrt(sum_ij [S^-1]_ij <h_i, h_j>) from latent inner products."""
    g = np.asarray(inner_products, dtype=float)
    if np.min(np.linalg.eigvalsh(0.5 * (g + g.T))) < -1e-10:
        raise ValueError("inner product matrix must be positive semidefinite")
    inv = np.linalg.inv(sigma.matrix)
    val = float(np.sum(inv * g))
    return float(np.sqrt(max(val, 0.0)))


def beta_freq_robust(latent_norms: LatentNormSpec, sigma_prime: CorrelationMatrix,
                     n_obs: int, delta: float) -> float:
    """Robust frequentist factor with the norm inflated by lambda = sqrt(|S'^-1|_2).

    Specializes the norm transport to the identity correlation matrix, where
    the stacked latent norm is the exact RKHS norm.
    """
    lam = operator_norm_lambda(CorrelationMatrix.identity(sigma_prime.size), sigma_prime)
    return beta_freq(lam * latent_norms.stacked_norm(), n_obs, delta)


def covering_number(tau: float, d: int) -> int:
    """Covering number (ceil(1/(2 tau) + 1))^d of the unit cube in the infinity norm."""
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie in (0, 1)")
    if d < 1:
        raise ValueError("d must be at least 1")
    return int(math.ceil(1.0 / (2.0 * tau) + 1.0)) ** d


def beta_bayes(cardinality: int, delta: float) -> float:
    """Bayesian scaling factor 2 ln(|I| / delta) on a finite discretization."""
    if cardinality < 1:
        raise ValueError("cardinality must be at least 1")
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    return 2.0 * math.log(cardinality / delta)


def modulus_mu(tau: float, l_k: float, confidence_set: ConfidenceSet,
               posteriors_per_member) -> float:
    """Modulus of continuity of the posterior mean within one discretization cell.

    max over the confidence set of sqrt(2 tau q L_k) * |mean|_H with q the
    largest diagonal entry of the member and the norm taken from the posterior
    fitted with that member.
    """
    best = 0.0
    for member, posterior in zip(confidence_set.members, posteriors_per_member):
        q = float(np.max(np.diag(member.matrix)))
        best = max(best, math.sqrt(2.0 * tau * q * l_k) * posterior.mean_rkhs_norm())
    return best


def modulus_sigma(tau: float, l_k: float, confidence_set: ConfidenceSet) -> float:
    """Modulus of continuity of the posterior standard deviation, max sqrt(2 tau q L_k)."""
    if tau == 0.0:
        return 0.0
    q = max(float(np.max(np.diag(m.matrix))) for m in confidence_set.members)
    return math.sqrt(2.0 * tau * q * l_k)


def estimate_feature_lipschitz(
    params: KernelParams,
    delta: float,
    n_paths: int = 500,
    grid_spec: int = 200,
    seed: int = 0,
    safety_factor: float = 1.2,
) -> float:
    """Sampled Lipschitz constant of single-task GP draws on the unit cube.

    Draws exact sample paths on a tensor grid with ``grid_spec`` points per
    axis, records each path's maximum finite-difference slope between axis
    neighbors, and returns the (1 - delta) quantile inflated by the safety
    factor.  The grid must resolve the shortest lengthscale.
    """
    d = params.dim
    if grid_spec < 2:
        raise ConfigError("grid_spec must provide at least 2 points per axis")
    spacing = 1.0 / (grid_spec - 1)
    if spacing > float(np.min(params.lengthscales)) / 4.0:
        raise ConfigError(
            f"grid spacing {spacing:.4g} exceeds a quarter of the shortest lengthscale"
        )
    if grid_spec ** d > 4096:
        raise ConfigError("tensor grid too large; reduce grid_spec or dimension")
    axes = [np.linspace(0.0, 1.0, grid_spec)] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)
    cov = se_kernel_matrix(points, points, params)
    chol = np.linalg.cholesky(cov + 1e-10 * params.signal_variance * np.eye(len(points)))
    rng = np.random.default_rng(seed)
    draws = chol @ rng.standard_normal((len(points), n_paths))

    shape = (grid_spec,) * d
    slopes = np.zeros(n_paths)
    field = draws.reshape(shape + (n_paths,))
    for axis in range(d):
        diffs = np.abs(np.diff(field, axis=axis)) / spacing
        slopes = np.maximum(slopes, diffs.reshape(-1, n_paths).max(axis=0))
    return safety_factor * float(np.quantile(slopes, 1.0 - delta))


def sample_lipschitz_bound(confidence_set: ConfidenceSet, l_h: float,
                           norm_q: float = 2) -> float:
    """Lipschitz bound for vector-valued samples, max |S^(1/2) 1|_q * L_h."""
    best = 0.0
    for member in confidence_set.members:
        w, v = np.linalg.eigh(member.matrix)
        root = (v * np.sqrt(np.maximum(w, 0.0))) @ v.T
        best = max(best, float(np.linalg.norm(root @ np.ones(member.size), ord=norm_q)))
    return best * l_h


def _unique_members(members):
    seen = {}
    for m in members:
        seen.setdefault(m.key(), m)
    return list(seen.values())


def select_sigma_prime(confidence_set: ConfidenceSet) -> CorrelationMatrix:
    """Member minimizing the worst-case spectral ratio over the set (smallest gamma).

    Ties resolve toward the highest recorded posterior density, which is the
    set's ordering.
    """
    members = confidence_set.members
    if len(members) == 1:
        return members[0]
    rs = twotask.offdiagonals(members)
    if rs is not None:
        return members[twotask.minimax_index(rs)]
    unique = _unique_members(members)
    best, best_val = unique[0], np.inf
    for candidate in unique:
        worst = max(
            np.linalg.norm(np.linalg.solve(candidate.matrix, other.matrix), 2)
            for other in unique
        )
        if worst < best_val - 1e-15:
            best, best_val = candidate, worst
    return best


def gamma_factor(sigma_prime: CorrelationMatrix, confidence_set: ConfidenceSet) -> float:
    """Variance-ratio factor sqrt(max over the set of |S'^-1 S|_2).

    Normalized 2x2 members share eigenvectors, so their spectral ratios reduce
    to scalar arithmetic on the off-diagonal entries; the general path
    decomposes each member.  A set whose every member is sigma_prime has
    ratio one: gamma is exactly 1.
    """
    if all(member.key() == sigma_prime.key() for member in confidence_set.members):
        return 1.0
    rs = twotask.offdiagonals(confidence_set.members)
    if rs is not None and twotask.offdiagonals([sigma_prime]) is not None:
        return twotask.gamma(rs, sigma_prime.matrix[0, 1])
    best = 0.0
    for member in _unique_members(confidence_set.members):
        product = solve(sigma_prime.matrix, member.matrix, assume_a="pos")
        best = max(best, float(np.linalg.norm(product, 2)))
    return float(np.sqrt(best))


def nu_factor(dataset: gp.MultiTaskDataset, sigma_prime: CorrelationMatrix,
              confidence_set: ConfidenceSet, params: KernelParams,
              base_gram: np.ndarray | None = None,
              factor: twotask.TwoTaskFactor | None = None) -> float:
    """Mean-shift term bounding |mean_S'(x) - mean_S(x)| by nu * std_S'(x).

    nu is the posterior-kernel RKHS norm of the mean difference, evaluated in
    closed Gram form.  The prior part expands to
    a' G_S' a' - 2 a' G_S a + a G_{S S'^-1 S} a with a the weight vector of the
    respective fit; the data part reduces through the smoother identity
    mean(  x_n, z_n) = y_n - noise_variance * a_n to
    noise_variance * |a_S - a_S'|^2.  The maximum is taken over the set.
    Two-task sets go through ``factor`` (built here when not supplied), the
    weight vectors of both paths solving the same unjittered systems.  A set
    whose every member is sigma_prime has no mean shift: nu is exactly 0.
    """
    if dataset.n == 0:
        return 0.0
    if params.noise_variance <= 0.0:
        raise ValueError("nu requires positive noise variance")
    if all(member.key() == sigma_prime.key() for member in confidence_set.members):
        return 0.0
    zi = dataset.tasks - 1
    base = se_kernel_matrix(dataset.inputs, dataset.inputs, params) if base_gram is None else base_gram
    rs = twotask.offdiagonals(confidence_set.members)
    if (rs is not None and twotask.offdiagonals([sigma_prime]) is not None
            and zi.max() <= 1):
        if factor is None:
            factor = twotask.TwoTaskFactor.build(dataset, params, base)
        return factor.nu(float(sigma_prime.matrix[0, 1]), np.unique(rs))
    y = dataset.observations
    sn2 = params.noise_variance
    eye = np.eye(dataset.n)

    def scaled(task_matrix: np.ndarray) -> np.ndarray:
        return task_matrix[np.ix_(zi, zi)] * base

    g_prime = scaled(sigma_prime.matrix)
    factor_prime = cho_factor(g_prime + sn2 * eye, lower=True)
    alpha_prime = cho_solve(factor_prime, y)
    prime_inv = np.linalg.inv(sigma_prime.matrix)
    head = float(alpha_prime @ g_prime @ alpha_prime)

    worst = 0.0
    for member in _unique_members(confidence_set.members):
        s = member.matrix
        g_s = scaled(s)
        alpha = cho_solve(cho_factor(g_s + sn2 * eye, lower=True), y)
        cross = scaled(s @ prime_inv @ s)
        term1 = head - 2.0 * float(alpha_prime @ g_s @ alpha) + float(alpha @ cross @ alpha)
        term2 = sn2 * float(np.sum((alpha - alpha_prime) ** 2))
        worst = max(worst, max(term1, 0.0) + term2)
    return float(np.sqrt(worst))


def scaling_bundle(
    dataset: gp.MultiTaskDataset,
    sigma_prime: CorrelationMatrix,
    confidence_set: ConfidenceSet,
    spec: DiscretizationSpec,
    params: KernelParams,
    delta: float,
    include_psi: bool = False,
    l_h: float | None = None,
    base_gram: np.ndarray | None = None,
    factor: twotask.TwoTaskFactor | None = None,
) -> ScalingBundle:
    """Assemble every bound ingredient for the current iteration.

    The resulting bound holds with probability (1 - delta)(1 - rho).  With
    ``include_psi=False`` the discretization correction is neglected and all
    its constituents are reported as zero.  ``factor`` passes the two-task
    decomposition of ``dataset`` on to :func:`nu_factor`.
    """
    b_bayes = beta_bayes(spec.cardinality, delta)
    gam = gamma_factor(sigma_prime, confidence_set)
    nu = nu_factor(dataset, sigma_prime, confidence_set, params, base_gram=base_gram,
                   factor=factor)
    beta_bar = (nu + gam * math.sqrt(b_bayes)) ** 2
    if include_psi:
        l_k = kernel_lipschitz(params)
        posteriors = [
            gp.fit(dataset, member, params, base_gram=base_gram)
            for member in confidence_set.members
        ]
        om_mu = modulus_mu(spec.tau, l_k, confidence_set, posteriors)
        om_sigma = modulus_sigma(spec.tau, l_k, confidence_set)
        if l_h is None:
            l_h = estimate_feature_lipschitz(params, delta)
        l_f = sample_lipschitz_bound(confidence_set, l_h)
        psi = l_f * spec.tau + om_mu + math.sqrt(b_bayes) * om_sigma
    else:
        om_mu = om_sigma = l_f = psi = 0.0
    return ScalingBundle(
        beta_b=b_bayes, nu=nu, gamma=gam, beta_bar=beta_bar,
        omega_mu=om_mu, omega_sigma=om_sigma, lipschitz_f=l_f, psi=psi,
        delta=delta, rho=confidence_set.rho, tau=spec.tau,
    )


def robust_model(dataset: gp.MultiTaskDataset, n_tasks: int, eta: float, rho: float,
                 spec: DiscretizationSpec, params: KernelParams, delta: float, seed: int = 0,
                 previous: gp.Posterior | None = None,
                 ) -> tuple[ConfidenceSet, ScalingBundle, gp.Posterior]:
    """Confidence set, scaling bundle (psi neglected) and posterior at sigma-prime.

    One task takes the identity set, so nu = 0, gamma = 1 and beta_bar =
    beta_b.  More tasks keep the 1 - ``rho`` set of the LKJ(``eta``) hyper-
    posterior; ``seed`` drives the angle walk of three or more.  Every stage
    of a multi-task refresh shares one base Gram, and two tasks one factor; a
    single task needs none, so a grown fit computes only the new rows' kernel
    columns.  ``previous`` goes to :func:`samsbo.gp.fit`.
    """
    base = se_kernel_matrix(dataset.inputs, dataset.inputs, params) if n_tasks > 1 else None
    factor = twotask.TwoTaskFactor.build(dataset, params, base) if n_tasks == 2 else None
    if n_tasks == 1:
        cset = ConfidenceSet((CorrelationMatrix.identity(1),), rho, np.zeros(1))
    else:
        hyper = hyperposterior.sample_hyperposterior(dataset, n_tasks, eta, params, seed=seed,
                                                     factor=factor, base_gram=base)
        cset = hyperposterior.confidence_set(hyper, rho)
    sigma_prime = select_sigma_prime(cset)
    bundle = scaling_bundle(dataset, sigma_prime, cset, spec, params, delta,
                            base_gram=base, factor=factor)
    posterior = gp.fit(dataset, sigma_prime, params, base_gram=base, previous=previous)
    return cset, bundle, posterior


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
