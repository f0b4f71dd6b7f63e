"""Bayesian inference over the unknown inter-task correlation matrix.

The hyper-posterior p(Sigma | data) is proportional to the GP marginal
likelihood times an LKJ prior, restricted to correlation matrices with
nonnegative entries.  It is approximated by an empirical distribution from
adaptive random-walk Metropolis chains; the confidence set keeps the highest
posterior density fraction of the samples.

Two parameterizations are used.  For two tasks the walk acts directly on the
single off-diagonal entry r in [0, 1), with proposals reflected at the
boundaries so the chain mixes well even under a flat target.  Its likelihood
comes from one :class:`samsbo.twotask.TwoTaskFactor` per call, O(n) per
proposal after a single O(n^3) decomposition.  Each call first evaluates the
exact Cholesky likelihood at the start state and raises
:class:`samsbo.gp.NumericalError` if the factorized value disagrees by more
than ``CROSS_CHECK_RTOL``, so a wrong target is never sampled silently.  For
more tasks the walk acts on the hyperspherical angles of the correlation
Cholesky factor, with the change-of-variables Jacobian included in the target
and proposals violating the nonnegativity constraint rejected; every proposal
there pays one Cholesky factorization.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gp import MultiTaskDataset, NumericalError, log_marginal_likelihood
from .kernels import CorrelationMatrix, KernelParams, se_kernel_matrix
from .twotask import TwoTaskFactor

__all__ = [
    "HyperPrior",
    "McmcConfig",
    "McmcDiagnostics",
    "EmpiricalHyperPosterior",
    "ConfidenceSet",
    "ChainDivergenceError",
    "lkj_log_density",
    "sample_hyperposterior",
    "confidence_set",
    "angles_to_correlation",
    "posterior_grid_two_task",
    "sample_prior_offdiagonal",
]

R_MAX = 1.0 - 1e-6
CROSS_CHECK_RTOL = 1e-8     # relative to max(|log likelihood|, 1 nat)
ANGLE_MARGIN = 1e-6
MIN_SAMPLES = 10


class ChainDivergenceError(RuntimeError):
    """Raised when a chain's acceptance rate collapses after adaptation."""


@dataclass(frozen=True)
class HyperPrior:
    """LKJ prior with shape ``eta``; support restricted to nonnegative entries."""

    eta: float = 0.1
    nonnegative: bool = True

    def __post_init__(self):
        if self.eta <= 0.0:
            raise ValueError("eta must be positive")


@dataclass(frozen=True)
class McmcConfig:
    chains: int = 2
    samples_per_chain: int = 100
    burn_in_fraction: float = 0.5
    seed: int = 0
    target_acceptance: float = 0.3

    def __post_init__(self):
        if not 0.0 < self.burn_in_fraction < 1.0:
            raise ValueError("burn_in_fraction must lie in (0, 1)")
        if not 0.0 < self.target_acceptance < 1.0:
            raise ValueError("target_acceptance must lie in (0, 1)")
        if self.chains < 1 or self.samples_per_chain < 1:
            raise ValueError("chains and samples_per_chain must be positive")


@dataclass(frozen=True)
class McmcDiagnostics:
    acceptance_rate: float
    chain_length: int
    burn_in: int
    n_chains: int

    def __post_init__(self):
        if not 0.0 <= self.acceptance_rate <= 1.0:
            raise ValueError("acceptance rate must lie in [0, 1]")


@dataclass(frozen=True)
class EmpiricalHyperPosterior:
    """MCMC approximation of p(Sigma | data): samples with unnormalized log densities."""

    samples: tuple[CorrelationMatrix, ...]
    log_densities: np.ndarray
    diagnostics: McmcDiagnostics

    def __post_init__(self):
        if len(self.samples) == 0:
            raise ValueError("empirical hyper-posterior must contain samples")
        if len(self.samples) != len(self.log_densities):
            raise ValueError("samples and log densities must align")


@dataclass(frozen=True)
class ConfidenceSet:
    """Highest posterior density subset covering the true Sigma w.p. 1 - rho."""

    members: tuple[CorrelationMatrix, ...]
    rho: float
    log_densities: np.ndarray

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (0, 1)")
        if len(self.members) == 0:
            raise ValueError("confidence set must be nonempty")

    def __len__(self) -> int:
        return len(self.members)


def lkj_log_density(sigma: CorrelationMatrix, eta: float) -> float:
    """Unnormalized LKJ log density (eta - 1) * log det(Sigma).

    Requires a unit-diagonal correlation matrix; the normalizing constant is
    fixed to zero.
    """
    if np.max(np.abs(np.diag(sigma.matrix) - 1.0)) > 1e-9:
        raise ValueError("LKJ density requires a unit-diagonal correlation matrix")
    sign, logdet = np.linalg.slogdet(sigma.matrix)
    if sign <= 0:
        raise ValueError("correlation matrix must be positive definite")
    return float((eta - 1.0) * logdet)


def _reflect(value: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Fold proposals back into [lo, hi] by reflection at the boundaries."""
    width = hi - lo
    t = (value - lo) % (2.0 * width)
    return lo + np.where(t <= width, t, 2.0 * width - t)


def angles_to_correlation(angles: np.ndarray, u: int) -> np.ndarray:
    """Correlation matrix from hyperspherical Cholesky angles in (0, pi).

    Row i of the lower-triangular factor is the unit vector with coordinates
    cos(theta_ij) * prod_{k<j} sin(theta_ik) and trailing product of sines, so
    the product L L' always has unit diagonal and is positive definite.
    """
    L = np.zeros((u, u))
    L[0, 0] = 1.0
    idx = 0
    for i in range(1, u):
        prod = 1.0
        for j in range(i):
            theta = angles[idx + j]
            L[i, j] = np.cos(theta) * prod
            prod *= np.sin(theta)
        L[i, i] = prod
        idx += i
    return L @ L.T


def _angle_log_jacobian(angles: np.ndarray, u: int) -> float:
    """Log |det d(sigma_offdiag)/d(theta)| of the angle parameterization."""
    # diag entries of the (triangular) Jacobian: L_jj * sin(theta_ij) * prod_{k<j} sin(theta_ik)
    log_sin = np.log(np.sin(angles))
    L = np.zeros(u)
    L[0] = 0.0  # log L_11
    total = 0.0
    idx = 0
    for i in range(1, u):
        row = log_sin[idx:idx + i]
        csum = np.concatenate([[0.0], np.cumsum(row[:-1])])
        total += float(np.sum(L[:i] + row + csum))
        L[i] = float(np.sum(row))
        idx += i
    return total


def _run_chain(start: np.ndarray, log_target, n_keep: int, burn_in_fraction: float,
               target_acceptance: float, rng: np.random.Generator,
               bounds: tuple[float, float]) -> tuple[np.ndarray, np.ndarray, float]:
    """Adaptive reflected random-walk Metropolis over a box.

    Returns retained states, their recorded log densities (without the
    parameterization Jacobian) and the post-adaptation acceptance rate.
    """
    total = int(np.ceil(n_keep / (1.0 - burn_in_fraction)))
    burn = total - n_keep
    dim = start.size
    state = start.copy()
    log_pi, log_record = log_target(state)
    width = bounds[1] - bounds[0]
    step = 0.1 * width
    kept = np.zeros((n_keep, dim))
    kept_log = np.zeros(n_keep)
    accepted_tail = 0
    for t in range(total):
        proposal = _reflect(state + step * rng.standard_normal(dim), *bounds)
        new_pi, new_record = log_target(proposal)
        accepted = np.log(rng.random()) < new_pi - log_pi
        if accepted:
            state, log_pi, log_record = proposal, new_pi, new_record
            if t >= burn:
                accepted_tail += 1
        if t < burn:
            # Robbins-Monro scale adaptation toward the target acceptance rate
            gain = 1.0 / np.sqrt(1.0 + t)
            step *= float(np.exp(gain * ((1.0 if accepted else 0.0) - target_acceptance)))
            step = float(np.clip(step, 1e-6 * width, width))
        else:
            kept[t - burn] = state
            kept_log[t - burn] = log_record
    return kept, kept_log, accepted_tail / max(n_keep, 1)


def sample_hyperposterior(
    dataset: MultiTaskDataset,
    n_tasks: int,
    prior: HyperPrior,
    params: KernelParams,
    n_samples: int | None = None,
    config: McmcConfig | None = None,
    factor: TwoTaskFactor | None = None,
) -> EmpiricalHyperPosterior:
    """Draw correlation matrices approximately distributed as p(Sigma | data).

    The target combines the GP log marginal likelihood of the dataset with the
    LKJ log prior.  ``n_samples`` overrides the total retained count implied by
    the config; samples are merged across chains.  ``factor`` optionally
    supplies the two-task decomposition of ``dataset`` so a caller that also
    needs it for nu builds it once; two-task calls without one build their
    own.  Repeated states share one :class:`CorrelationMatrix`.  Fixed seeds
    give bit-identical output.
    """
    if n_tasks < 2:
        raise ValueError("hyper-posterior sampling needs at least two tasks")
    cfg = config or McmcConfig()
    total_keep = n_samples if n_samples is not None else cfg.chains * cfg.samples_per_chain
    if total_keep < MIN_SAMPLES:
        raise ValueError(f"request at least {MIN_SAMPLES} samples")
    per_chain = int(np.ceil(total_keep / cfg.chains))

    base = factor.base if factor is not None else se_kernel_matrix(
        dataset.inputs, dataset.inputs, params)

    def loglik(matrix: np.ndarray) -> float:
        if dataset.n == 0:
            return 0.0
        sigma = CorrelationMatrix(matrix)
        return log_marginal_likelihood(dataset, sigma, params, base_gram=base)

    eta = prior.eta
    if n_tasks == 2:
        if factor is None:
            factor = TwoTaskFactor.build(dataset, params, base)
        start = np.array([0.5])
        exact = loglik(np.array([[1.0, start[0]], [start[0], 1.0]]))
        fast = factor.log_likelihood(float(start[0]))
        if abs(fast - exact) > CROSS_CHECK_RTOL * max(abs(exact), 1.0):
            raise NumericalError(
                f"factorized log likelihood {fast!r} differs from the Cholesky value "
                f"{exact!r} at r = {start[0]}"
            )

        def log_target(state: np.ndarray) -> tuple[float, float]:
            r = float(state[0])
            value = factor.log_likelihood(r) + (eta - 1.0) * np.log1p(-r * r)
            return value, value

        bounds = (0.0, R_MAX)
        to_matrix = lambda s: CorrelationMatrix.two_task(float(s[0]))
    else:
        n_angles = n_tasks * (n_tasks - 1) // 2

        def log_target(state: np.ndarray) -> tuple[float, float]:
            matrix = angles_to_correlation(state, n_tasks)
            if prior.nonnegative and np.min(matrix) < 0.0:
                return -np.inf, -np.inf
            sign, logdet = np.linalg.slogdet(matrix)
            if sign <= 0:
                return -np.inf, -np.inf
            record = loglik(matrix) + (eta - 1.0) * logdet
            return record + _angle_log_jacobian(state, n_tasks), record

        bounds = (ANGLE_MARGIN, np.pi - ANGLE_MARGIN)
        # start at the identity matrix; nonnegativity is enforced by rejection
        start = np.full(n_angles, np.pi / 2.0)
        to_matrix = lambda s: CorrelationMatrix(angles_to_correlation(s, n_tasks))

    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.chains)
    states, log_records, rates = [], [], []
    for chain_seed in seeds:
        rng = np.random.default_rng(chain_seed)
        kept, kept_log, rate = _run_chain(
            start, log_target, per_chain, cfg.burn_in_fraction, cfg.target_acceptance, rng, bounds
        )
        states.append(kept)
        log_records.append(kept_log)
        rates.append(rate)

    acceptance = float(np.mean(rates))
    if acceptance < 0.01:
        raise ChainDivergenceError(
            f"acceptance rate {acceptance:.4f} below 0.01 after adaptation"
        )
    all_states = np.vstack(states)[:total_keep]
    all_logs = np.concatenate(log_records)[:total_keep]
    distinct: dict[bytes, CorrelationMatrix] = {}
    for s in all_states:
        if s.tobytes() not in distinct:
            distinct[s.tobytes()] = to_matrix(s)
    samples = tuple(distinct[s.tobytes()] for s in all_states)
    diag = McmcDiagnostics(
        acceptance_rate=acceptance,
        chain_length=int(np.ceil(per_chain / (1.0 - cfg.burn_in_fraction))),
        burn_in=int(np.ceil(per_chain / (1.0 - cfg.burn_in_fraction))) - per_chain,
        n_chains=cfg.chains,
    )
    return EmpiricalHyperPosterior(samples, all_logs, diag)


def confidence_set(posterior: EmpiricalHyperPosterior, rho: float) -> ConfidenceSet:
    """Keep the ceil((1 - rho) * m) samples of highest recorded log density."""
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    m = len(posterior.samples)
    keep = int(np.ceil((1.0 - rho) * m))
    order = np.argsort(-posterior.log_densities, kind="stable")[:keep]
    members = tuple(posterior.samples[i] for i in order)
    return ConfidenceSet(members, rho, posterior.log_densities[order])


def posterior_grid_two_task(
    dataset: MultiTaskDataset,
    params: KernelParams,
    eta: float,
    nodes: int = 2000,
) -> tuple[np.ndarray, np.ndarray]:
    """Dense-grid quadrature of the two-task hyper-posterior over r in [0, 1).

    Independent oracle for the MCMC: returns grid nodes and normalized weights
    proportional to likelihood times LKJ prior.  It evaluates every node by
    Cholesky, not through :class:`TwoTaskFactor`, so it does not share the code
    it checks.
    """
    r = np.linspace(0.0, R_MAX, nodes)
    base = se_kernel_matrix(dataset.inputs, dataset.inputs, params) if dataset.n else None
    logs = np.empty(nodes)
    for i, ri in enumerate(r):
        sigma = CorrelationMatrix.two_task(float(ri))
        ll = log_marginal_likelihood(dataset, sigma, params, base_gram=base) if dataset.n else 0.0
        logs[i] = ll + (eta - 1.0) * np.log1p(-ri * ri)
    logs -= logs.max()
    w = np.exp(logs)
    return r, w / w.sum()


def sample_prior_offdiagonal(eta: float, rng: np.random.Generator) -> float:
    """Draw r from the LKJ(eta) marginal restricted to [0, R_MAX].

    For two tasks the off-diagonal satisfies (r + 1) / 2 ~ Beta(eta, eta);
    restriction to nonnegative r is a symmetric truncation.  Draws beyond
    R_MAX are rejected rather than clamped: for small eta the prior carries
    substantial mass arbitrarily close to 1, and the model support must match
    the sampler's support for coverage statements to be well posed.
    """
    while True:
        b = rng.beta(eta, eta)
        r = 2.0 * b - 1.0
        if 0.0 <= r <= R_MAX:
            return r
