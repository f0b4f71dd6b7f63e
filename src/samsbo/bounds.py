"""Scaling factors turning posterior standard deviations into uniform error bounds.

The Bayesian route, plus the plain frequentist factor :func:`beta_freq` (a
known RKHS norm plus a concentration term on the noise vector) that the
frequentist coverage suite checks at the true correlation matrix.

Bayesian route: beta_b = 2 log(|I| / delta) on the finite discretization I
whose points are certified, made robust over a confidence set of correlation
matrices through a mean-shift term nu and a variance-ratio factor gamma.  The
robust factor is beta_bar = (nu + gamma * sqrt(beta_b))^2.  The bound covers
the points of I only; nothing here extends it off them.  Its centre
sigma-prime is the member with the smallest worst spectral ratio; gamma is the
root of that minimum, so one minimax gives both, and :class:`ScalingBundle`
holds both.

Sigma's size selects the route: sets of 2x2 members take the closed forms of
:mod:`samsbo.twotask` for that minimax and for nu, so nu costs O(n^2) per
unique member from one shared :class:`~samsbo.twotask.TwoTaskFactor` (per-task
factors and the singular values +-s of the whitened cross block) instead of a
Cholesky factorization each; larger sets take the general path.
The closed forms read r alone, so for a member whose diagonal is off 1 by up
to the 1e-9 :class:`~samsbo.kernels.CorrelationMatrix` allows they differ from
the general path by O(1e-9) relative.  A sigma-prime given to :func:`nu_factor`
of another size than the members raises ``ValueError``.

:func:`robust_model` is the one model refresh of the optimization loop and of
the Bayesian coverage suite, and the one place that builds that factor.  A
two-task refresh grows the factor's per-task fits from the previous refresh's
and returns the factor's posterior at sigma-prime, so it factors no n x n
system besides the hyper-posterior's one-node cross-check; one task and three
or more fit at sigma-prime with :func:`samsbo.gp.fit`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve

from . import gp, hyperposterior, twotask
from .hyperposterior import ConfidenceSet
from .kernels import CorrelationMatrix, KernelParams, se_kernel_matrix

__all__ = [
    "ScalingBundle",
    "beta_freq",
    "covering_number",
    "beta_bayes",
    "select_sigma_prime",
    "nu_factor",
    "scaling_bundle",
    "robust_model",
]


@dataclass(frozen=True)
class ScalingBundle:
    """All bound ingredients for one iteration, with beta_bar = (nu + gamma * sqrt(beta_b))^2."""

    sigma_prime: CorrelationMatrix      # the gamma-minimizing member, centre of the bound
    beta_b: float
    nu: float
    gamma: float
    beta_bar: float


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


def _check_size(sigma_prime: CorrelationMatrix, confidence_set: ConfidenceSet) -> None:
    u, size = sigma_prime.size, confidence_set.members[0].size
    if u != size:
        raise ValueError(f"sigma-prime is {u}x{u} but the set's members are {size}x{size}")


def _spectral_ratio(sigma_prime: CorrelationMatrix, sigma: CorrelationMatrix) -> float:
    """|S'^-1 S|_2, the largest variance ratio of the two kernels."""
    return float(np.linalg.norm(solve(sigma_prime.matrix, sigma.matrix, assume_a="pos"), 2))


def select_sigma_prime(confidence_set: ConfidenceSet) -> tuple[CorrelationMatrix, float]:
    """Member S' minimizing the worst spectral ratio, and gamma = sqrt(max_S |S'^-1 S|_2).

    2x2 members share eigenvectors, so their ratios reduce to scalar arithmetic
    on the off-diagonals; the general path decomposes each pair of unique
    members.  A set of one matrix gives gamma exactly 1.  Ties resolve toward
    the highest recorded posterior density, which is the set's ordering.
    """
    members = confidence_set.members
    if len(set(members)) == 1:
        return members[0], 1.0
    rs = confidence_set.offdiagonals
    if rs is not None:
        index, worst = twotask.minimax(rs)
        return members[index], math.sqrt(worst)
    unique = list(dict.fromkeys(members))
    best, best_val = unique[0], np.inf
    for candidate in unique:
        worst = max(_spectral_ratio(candidate, other) for other in unique)
        if worst < best_val - 1e-15:
            best, best_val = candidate, worst
    return best, math.sqrt(best_val)


def nu_factor(dataset: gp.MultiTaskDataset, sigma_prime: CorrelationMatrix,
              confidence_set: ConfidenceSet, params: KernelParams,
              factor: twotask.TwoTaskFactor | None = None) -> float:
    """Mean-shift term bounding |mean_S'(x) - mean_S(x)| by nu * std_S'(x).

    nu is the posterior-kernel RKHS norm of the mean difference, evaluated in
    closed Gram form.  The prior part expands to
    a' G_S' a' - 2 a' G_S a + a G_{S S'^-1 S} a with a the weight vector of the
    respective fit; the data part reduces through the smoother identity
    mean(  x_n, z_n) = y_n - noise_variance * a_n to
    noise_variance * |a_S - a_S'|^2.  The maximum is taken over the set.
    Sets of 2x2 members go through ``factor`` (built here when not supplied),
    the weight vectors of both paths solving the same unjittered systems.  A
    set whose every member is sigma_prime has no mean shift: nu is exactly 0.
    """
    _check_size(sigma_prime, confidence_set)
    if dataset.n == 0:
        return 0.0
    if params.noise_variance <= 0.0:
        raise ValueError("nu requires positive noise variance")
    if set(confidence_set.members) == {sigma_prime}:
        return 0.0
    base = (factor.base if factor is not None
            else se_kernel_matrix(dataset.inputs, dataset.inputs, params))
    rs = confidence_set.offdiagonals
    if rs is not None:
        if factor is None:
            factor = twotask.TwoTaskFactor.build(dataset, params, base)
        return factor.nu(float(sigma_prime.matrix[0, 1]), np.unique(rs))
    zi = dataset.tasks - 1
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
    for member in dict.fromkeys(confidence_set.members):
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
    confidence_set: ConfidenceSet,
    cardinality: int,
    params: KernelParams,
    delta: float,
    factor: twotask.TwoTaskFactor | None = None,
) -> ScalingBundle:
    """Assemble every bound ingredient for the current iteration.

    Sigma-prime and gamma come from :func:`select_sigma_prime`, nu at that
    sigma-prime.  The bound holds at the ``cardinality`` points of the finite
    set I it certifies with probability (1 - delta)(1 - rho).  ``factor``
    passes the two-task decomposition of ``dataset`` on to :func:`nu_factor`.
    """
    b_bayes = beta_bayes(cardinality, delta)
    sigma_prime, gam = select_sigma_prime(confidence_set)
    nu = nu_factor(dataset, sigma_prime, confidence_set, params, factor=factor)
    beta_bar = (nu + gam * math.sqrt(b_bayes)) ** 2
    return ScalingBundle(sigma_prime=sigma_prime, beta_b=b_bayes, nu=nu, gamma=gam,
                         beta_bar=beta_bar)


def robust_model(dataset: gp.MultiTaskDataset, n_tasks: int, eta: float, rho: float,
                 cardinality: int, params: KernelParams, delta: float, seed: int = 0,
                 previous: gp.Posterior | None = None,
                 ) -> tuple[ConfidenceSet, ScalingBundle, gp.Posterior]:
    """Confidence set, scaling bundle and posterior at sigma-prime.

    One task takes the identity set, so nu = 0, gamma = 1 and beta_bar =
    beta_b.  More tasks keep the 1 - ``rho`` set of the LKJ(``eta``) hyper-
    posterior; ``seed`` drives the angle walk of three or more.  The stages
    of a two-task refresh share one factor and its base Gram, and the
    posterior is the factor's :class:`~samsbo.twotask.TwoTaskPosterior`; a
    single task needs no base Gram, so a grown fit computes only the new
    rows' kernel columns.  ``cardinality`` is |I| of beta_b.  ``previous``,
    the posterior of an earlier refresh, goes to :func:`samsbo.gp.fit`, or for
    two tasks lends its factor's per-task fits to the new factor.
    """
    base = se_kernel_matrix(dataset.inputs, dataset.inputs, params) if n_tasks > 1 else None
    factor = None
    if n_tasks == 2:
        grown = previous.factor if isinstance(previous, twotask.TwoTaskPosterior) else None
        factor = twotask.TwoTaskFactor.build(dataset, params, base, previous=grown)
    if n_tasks == 1:
        cset = ConfidenceSet((CorrelationMatrix.identity(1),))
    else:
        hyper = hyperposterior.sample_hyperposterior(dataset, n_tasks, eta, params, seed=seed,
                                                     factor=factor)
        cset = hyperposterior.confidence_set(hyper, rho)
    bundle = scaling_bundle(dataset, cset, cardinality, params, delta, factor=factor)
    if factor is not None:
        return cset, bundle, factor.posterior(bundle.sigma_prime)
    posterior = gp.fit(dataset, bundle.sigma_prime, params, base_gram=base, previous=previous)
    return cset, bundle, posterior
