"""Bayesian inference over the unknown inter-task correlation matrix.

The hyper-posterior p(Sigma | data) is proportional to the GP marginal
likelihood times an LKJ prior, restricted to correlation matrices with
nonnegative entries.  It is represented by weighted samples; the confidence
set keeps the samples of highest posterior density until they hold 1 - rho of
the weight.

Two tasks.  Sigma has the single free entry r in [0, R_MAX), so the posterior
is computed exactly on ``QUADRATURE_CELLS`` equal cells of that interval.  A
cell's log weight is the log likelihood at its midpoint plus the exact log
prior mass of the cell.  The likelihoods come from one
:class:`samsbo.twotask.TwoTaskFactor` in one vectorized pass, O(min(n1, n2))
per cell for n1 and n2 rows of the two tasks.
The LKJ marginal is (r + 1) / 2 ~ Beta(eta, eta) (Lewandowski, Kurowicka and
Joe 2009).  Cell masses rather than midpoint densities keep the integrable
singularity of a small eta at r -> 1 from handing the last cell most of the
prior.  The confidence set keeps whole cells: each run of kept cells adds its
outer edges as members, so its range holds all of the kept mass.  Each call
first evaluates the exact Cholesky likelihood at r = 0.5 and raises
:class:`samsbo.gp.NumericalError` if the factorized value disagrees by more
than ``CROSS_CHECK_RTOL``, so a wrong likelihood is never used silently.

More tasks.  Adaptive random-walk Metropolis chains act on the hyperspherical
angles of the correlation Cholesky factor, with the change-of-variables
Jacobian included in the target and proposals violating the nonnegativity
constraint rejected; every proposal pays one Cholesky factorization.  The
samples weigh equally.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
from scipy.special import betainc

from .gp import MultiTaskDataset, NumericalError, log_marginal_likelihood
from .kernels import CorrelationMatrix, KernelParams, se_kernel_matrix
from .twotask import TwoTaskFactor

__all__ = [
    "McmcDiagnostics",
    "EmpiricalHyperPosterior",
    "ConfidenceSet",
    "ChainDivergenceError",
    "sample_hyperposterior",
    "confidence_set",
    "angles_to_correlation",
    "sample_prior_offdiagonal",
]

R_MAX = 1.0 - 1e-6
CROSS_CHECK_RTOL = 1e-8     # relative to max(|log likelihood|, 1 nat)
ANGLE_MARGIN = 1e-6
MIN_SAMPLES = 10
PRIOR_MASS_FLOOR = 1e-6     # least truncated prior mass to draw from: about 1e6 proposals

# two tasks: equal cells of [0, R_MAX)
QUADRATURE_CELLS = 200
CELL_EDGES = np.linspace(0.0, R_MAX, QUADRATURE_CELLS + 1)
CELL_MIDPOINTS = 0.5 * (CELL_EDGES[:-1] + CELL_EDGES[1:])

# three or more tasks: the angle walk
CHAINS = 2
SAMPLES_PER_CHAIN = 100
BURN_IN_FRACTION = 0.5
TARGET_ACCEPTANCE = 0.3


class ChainDivergenceError(RuntimeError):
    """Raised when a chain's acceptance rate collapses after adaptation."""


@dataclass(frozen=True)
class McmcDiagnostics:
    """Health of the angle walk.

    The two-task quadrature has nothing to reject: it reports acceptance 1.0.
    """

    acceptance_rate: float

    def __post_init__(self):
        if not 0.0 <= self.acceptance_rate <= 1.0:
            raise ValueError("acceptance rate must lie in [0, 1]")


@dataclass(frozen=True)
class EmpiricalHyperPosterior:
    """Weighted samples of p(Sigma | data) with unnormalized log densities.

    ``log_weights`` are each sample's unnormalized log share of the posterior
    mass: a cell's mass for the two-task quadrature, zero for every MCMC
    sample.  ``edges`` are the cell boundaries of the quadrature, sample i
    standing for the cell from ``edges[i]`` to ``edges[i + 1]``; MCMC samples
    have none.
    """

    samples: tuple[CorrelationMatrix, ...]
    log_densities: np.ndarray
    log_weights: np.ndarray
    diagnostics: McmcDiagnostics
    edges: tuple[CorrelationMatrix, ...] | None = None

    def __post_init__(self):
        if len(self.samples) == 0:
            raise ValueError("empirical hyper-posterior must contain samples")
        if not len(self.samples) == len(self.log_densities) == len(self.log_weights):
            raise ValueError("samples, log densities and log weights must align")
        if self.edges is not None and len(self.edges) != len(self.samples) + 1:
            raise ValueError("cell edges must bound every sample")


@dataclass(frozen=True)
class ConfidenceSet:
    """Densest samples covering Sigma w.p. 1 - rho, densest first, then any cell edges."""

    members: tuple[CorrelationMatrix, ...]

    def __post_init__(self):
        if len(self.members) == 0:
            raise ValueError("confidence set must be nonempty")
        if len({m.size for m in self.members}) > 1:
            raise ValueError("confidence set members must share one size")

    def __len__(self) -> int:
        return len(self.members)

    @cached_property
    def offdiagonals(self) -> np.ndarray | None:
        """Read-only off-diagonals r when the members are 2x2, else None.

        Computed on first access; the sigma-prime minimax and nu share it.
        """
        if self.members[0].size != 2:
            return None
        rs = np.array([m.matrix[0, 1] for m in self.members])
        rs.setflags(write=False)
        return rs


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


def _run_chain(start: np.ndarray, log_target, n_keep: int,
               rng: np.random.Generator,
               bounds: tuple[float, float]) -> tuple[np.ndarray, np.ndarray, float]:
    """Adaptive reflected random-walk Metropolis over a box.

    Returns retained states, their recorded log densities (without the
    parameterization Jacobian) and the post-adaptation acceptance rate.
    """
    total = int(np.ceil(n_keep / (1.0 - BURN_IN_FRACTION)))
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
            step *= float(np.exp(gain * ((1.0 if accepted else 0.0) - TARGET_ACCEPTANCE)))
            step = float(np.clip(step, 1e-6 * width, width))
        else:
            kept[t - burn] = state
            kept_log[t - burn] = log_record
    return kept, kept_log, accepted_tail / max(n_keep, 1)


@cache
def cell_matrices() -> tuple[tuple[CorrelationMatrix, ...], tuple[CorrelationMatrix, ...]]:
    """The quadrature's midpoint and edge matrices, built once on first use."""
    return (tuple(CorrelationMatrix.two_task(float(r)) for r in CELL_MIDPOINTS),
            tuple(CorrelationMatrix.two_task(float(r)) for r in CELL_EDGES))


def _log_cell_masses(eta: float) -> np.ndarray:
    """Log LKJ prior mass of each quadrature cell.

    (r + 1) / 2 ~ Beta(eta, eta) gives P(r > e) = I_{(1 - e)/2}(eta, eta), so a
    cell [e_i, e_i+1) holds the difference of two upper tails; tails rather
    than the CDF keep the small masses near r = 1 free of cancellation.
    """
    tail = betainc(eta, eta, 0.5 * (1.0 - CELL_EDGES))
    return np.log(tail[:-1] - tail[1:])


def sample_hyperposterior(
    dataset: MultiTaskDataset,
    n_tasks: int,
    eta: float,
    params: KernelParams,
    n_samples: int | None = None,
    seed: int = 0,
    factor: TwoTaskFactor | None = None,
) -> EmpiricalHyperPosterior:
    """Weighted correlation matrices representing p(Sigma | data).

    The target combines the GP log marginal likelihood of the dataset with the
    LKJ prior of shape ``eta`` > 0, restricted to nonnegative entries.  Two
    tasks give the ``QUADRATURE_CELLS`` cells of the module notes and their
    edges, the same matrix objects on every call.  More tasks run the angle
    walk: ``n_samples`` (default ``CHAINS * SAMPLES_PER_CHAIN``) states
    merged across chains seeded from ``seed``, repeated states sharing one
    :class:`CorrelationMatrix`; fixed seeds give bit-identical output.
    ``factor`` optionally supplies the two-task decomposition of ``dataset``
    so a caller that also needs it for nu builds it once; two-task calls
    without one build their own.  The squared-exponential Gram matrix of the
    inputs is the factor's when given, and computed here otherwise.
    """
    if n_tasks < 2:
        raise ValueError("hyper-posterior sampling needs at least two tasks")
    if not 0.0 < eta < np.inf:          # a NaN eta makes every cell mass NaN
        raise ValueError(f"eta must be positive and finite, got {eta}")
    base = (factor.base if factor is not None
            else se_kernel_matrix(dataset.inputs, dataset.inputs, params))

    def loglik(matrix: np.ndarray) -> float:
        if dataset.n == 0:
            return 0.0
        sigma = CorrelationMatrix(matrix)
        return log_marginal_likelihood(dataset, sigma, params, base_gram=base)

    if n_tasks == 2:
        if factor is None:
            factor = TwoTaskFactor.build(dataset, params, base)
        exact = loglik(np.array([[1.0, 0.5], [0.5, 1.0]]))
        fast = factor.log_likelihood(0.5)
        if abs(fast - exact) > CROSS_CHECK_RTOL * max(abs(exact), 1.0):
            raise NumericalError(
                f"factorized log likelihood {fast!r} differs from the Cholesky value "
                f"{exact!r} at r = 0.5"
            )
        # equal cells: a cell's mass is its density up to one constant
        log_weights = factor.log_likelihood(CELL_MIDPOINTS) + _log_cell_masses(eta)
        midpoints, edges = cell_matrices()
        return EmpiricalHyperPosterior(midpoints, log_weights, log_weights, McmcDiagnostics(1.0),
                                       edges)

    total_keep = n_samples if n_samples is not None else CHAINS * SAMPLES_PER_CHAIN
    if total_keep < MIN_SAMPLES:
        raise ValueError(f"request at least {MIN_SAMPLES} samples")
    n_angles = n_tasks * (n_tasks - 1) // 2

    def log_target(state: np.ndarray) -> tuple[float, float]:
        matrix = angles_to_correlation(state, n_tasks)
        if np.min(matrix) < 0.0:
            return -np.inf, -np.inf
        sign, logdet = np.linalg.slogdet(matrix)
        if sign <= 0:
            return -np.inf, -np.inf
        record = loglik(matrix) + (eta - 1.0) * logdet
        return record + _angle_log_jacobian(state, n_tasks), record

    bounds = (ANGLE_MARGIN, np.pi - ANGLE_MARGIN)
    # start at the identity matrix; nonnegativity is enforced by rejection
    start = np.full(n_angles, np.pi / 2.0)
    per_chain = int(np.ceil(total_keep / CHAINS))
    states, log_records, rates = [], [], []
    for chain_seed in np.random.SeedSequence(seed).spawn(CHAINS):
        rng = np.random.default_rng(chain_seed)
        kept, kept_log, rate = _run_chain(start, log_target, per_chain, rng, bounds)
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
            distinct[s.tobytes()] = CorrelationMatrix(angles_to_correlation(s, n_tasks))
    samples = tuple(distinct[s.tobytes()] for s in all_states)
    return EmpiricalHyperPosterior(samples, all_logs, np.zeros(len(samples)),
                                   McmcDiagnostics(acceptance))


def confidence_set(posterior: EmpiricalHyperPosterior, rho: float) -> ConfidenceSet:
    """The densest samples that together hold at least 1 - rho of the weight.

    Samples are taken by decreasing log density, ties in sample order, until
    their weight reaches 1 - rho of the total.  Equal weights keep the
    ceil((1 - rho) m) densest of m samples: the cumulative weights are then
    the exact integers 1..m.

    Cells stand for their whole extent: each run of adjacent kept cells also
    contributes its two outer edges, after the cells and in the order of r,
    so the members' range of r holds every r whose mass was kept.  Weights
    that do not normalize (a NaN or +inf log weight, or none above -inf)
    raise ``ValueError``.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    order = np.argsort(-posterior.log_densities, kind="stable")
    log_w = posterior.log_weights[order]
    top = np.max(log_w)
    if not np.isfinite(top):
        raise ValueError("log weights must not be NaN or +inf, nor all -inf")
    cumulative = np.cumsum(np.exp(log_w - top))
    keep = int(np.searchsorted(cumulative, (1.0 - rho) * cumulative[-1])) + 1
    order = order[:keep]
    members = tuple(posterior.samples[i] for i in order)
    if posterior.edges is None:
        return ConfidenceSet(members)
    cells = np.sort(order)
    breaks = np.flatnonzero(np.diff(cells) > 1)
    firsts = cells[np.r_[0, breaks + 1]]
    lasts = cells[np.r_[breaks, len(cells) - 1]]
    edges = tuple(posterior.edges[e] for e in np.column_stack([firsts, lasts + 1]).ravel())
    return ConfidenceSet(members + edges)


def sample_prior_offdiagonal(eta: float, rng: np.random.Generator) -> float:
    """Draw r from the LKJ(eta) marginal restricted to [0, R_MAX].

    For two tasks the off-diagonal satisfies (r + 1) / 2 ~ Beta(eta, eta);
    restriction to nonnegative r is a symmetric truncation.  Draws beyond
    R_MAX are rejected rather than clamped: for small eta the prior carries
    substantial mass arbitrarily close to 1, and the model support must match
    the sampler's support for coverage statements to be well posed.  An eta
    whose truncated mass is below ``PRIOR_MASS_FLOOR`` raises ``ValueError``.
    """
    if not 0.0 < eta < np.inf:          # rng.beta(inf, inf) is NaN, which no draw accepts
        raise ValueError(f"eta must be positive and finite, got {eta}")
    mass = betainc(eta, eta, 0.5) - betainc(eta, eta, 0.5 * (1.0 - R_MAX))
    if mass < PRIOR_MASS_FLOOR:
        raise ValueError(f"eta = {eta:g} leaves the prior mass {mass:.3g} on [0, R_MAX], below "
                         f"{PRIOR_MASS_FLOOR:g}: about {1.0 / mass:.3g} draws per accepted r")
    while True:
        b = rng.beta(eta, eta)
        r = 2.0 * b - 1.0
        if 0.0 <= r <= R_MAX:
            return r
