"""Bayesian inference over the unknown inter-task correlation matrix.

The hyper-posterior p(Sigma | data) is proportional to the GP marginal
likelihood times an LKJ prior, restricted to correlation matrices with
nonnegative entries.  It is represented by weighted samples; the confidence
set keeps the samples of highest posterior density until they hold 1 - rho of
the weight.

Two tasks.  Sigma has the single free entry r in [0, R_MAX), so the posterior
is computed exactly on ``QUADRATURE_CELLS`` equal cells of that interval.  A
cell's log weight is the log likelihood at its midpoint plus the exact log
prior mass of the cell.  The likelihoods come from the refresh's own
:class:`samsbo.twotask.TwoTaskFactor` in one vectorized pass, O(min(n1, n2))
per cell for n1 and n2 rows of the two tasks.
The LKJ marginal is (r + 1) / 2 ~ Beta(eta, eta) (Lewandowski, Kurowicka and
Joe 2009).  Cell masses rather than midpoint densities keep the integrable
singularity of a small eta at r -> 1 from handing the last cell most of the
prior.  The confidence set keeps whole cells: each run of kept cells adds its
outer edges as members, so its range holds all of the kept mass.  The cells
are the read-only arrays ``CELL_MIDPOINTS`` and ``CELL_EDGES`` of r, and a
two-task confidence set is an array of r too
(:meth:`ConfidenceSet.of_offdiagonals`): sigma-prime's minimax and nu, all
that reads it, read r alone.  The one matrix a refresh builds from it is
sigma-prime, taken from a cache of Sigma(r) per r that also serves the set's
``members`` when they are asked for, so equal r are one object.  The cache
has room for the 401 cell values, all that the quadrature's sets hold.  The
factor's closed form is checked against a Cholesky fit of the data in
:mod:`samsbo.twotask` (see its module notes).  The prior tails at the cell
edges, which give both the cells' masses and their total, are computed once
per eta per process, all edges at once in numpy, by the continued fraction
of the regularized incomplete beta function (modified Lentz, Numerical
Recipes section 6.4), so the package does not import ``scipy.special``.
For the eta of 1e-3 to 100 that the tests try, the tails are within 1.5e-13
relative of ``scipy.special.betainc`` and the log cell masses within 3e-10
absolute, the largest at eta = 1e-3.  The fraction needs about
sqrt(eta) / 2 + 10 terms; past ``CF_ITERATIONS`` (eta of about 4e8) it
raises ``ValueError`` naming eta.

More tasks.  Adaptive random-walk Metropolis chains act on the hyperspherical
angles of the correlation Cholesky factor, with the change-of-variables
Jacobian included in the target and proposals violating the nonnegativity
constraint rejected; every proposal pays one Cholesky factorization.  The
samples weigh equally.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from . import gp
from .gp import MultiTaskDataset, log_marginal_likelihood
from .kernels import CorrelationMatrix, KernelParams, se_kernel_matrix
from .twotask import TwoTaskFactor, own_factor

__all__ = [
    "McmcDiagnostics",
    "EmpiricalHyperPosterior",
    "ConfidenceSet",
    "ChainDivergenceError",
    "sample_hyperposterior",
    "confidence_set",
    "angles_to_correlation",
    "sample_prior_offdiagonal",
    "truncated_prior_mass",
]

R_MAX = 1.0 - 1e-6
ANGLE_MARGIN = 1e-6
PRIOR_MASS_FLOOR = 1e-6     # least truncated prior mass to draw from: about 1e6 proposals

# two tasks: equal cells of [0, R_MAX)
QUADRATURE_CELLS = 200
CELL_EDGES = np.linspace(0.0, R_MAX, QUADRATURE_CELLS + 1)
CELL_MIDPOINTS = 0.5 * (CELL_EDGES[:-1] + CELL_EDGES[1:])
CELL_EDGES.setflags(write=False)
CELL_MIDPOINTS.setflags(write=False)
CF_ITERATIONS = 10_000      # most terms of the prior tails' continued fraction
CF_TOLERANCE = 1e-15        # a term that moves no tail by more than this ends the fraction

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

    ``edges`` are the cell boundaries of the quadrature, sample i standing for
    the cell from ``edges[i]`` to ``edges[i + 1]``; MCMC samples have none.
    The route fixes each sample's share of the posterior mass: a cell's log
    density is the log of its unnormalized mass, and the states of the angle
    walk weigh equally (see :func:`confidence_set`).  The quadrature's samples
    and edges are the arrays of r ``CELL_MIDPOINTS`` and ``CELL_EDGES``; the
    angle walk's samples are correlation matrices.
    """

    samples: tuple[CorrelationMatrix, ...] | np.ndarray
    log_densities: np.ndarray
    diagnostics: McmcDiagnostics
    edges: np.ndarray | None = None

    def __post_init__(self):
        if len(self.samples) == 0:
            raise ValueError("empirical hyper-posterior must contain samples")
        if len(self.samples) != len(self.log_densities):
            raise ValueError("samples and log densities must align")
        if self.edges is not None and len(self.edges) != len(self.samples) + 1:
            raise ValueError("cell edges must bound every sample")


@lru_cache(maxsize=2 * QUADRATURE_CELLS + 1)
def _two_task(r: float) -> CorrelationMatrix:
    """Sigma(r), one object per r; the cache holds every cell midpoint and edge."""
    return CorrelationMatrix.two_task(r)


class ConfidenceSet:
    """Densest samples covering Sigma w.p. 1 - rho, densest first, then any cell edges.

    A set is made of its members, or for two tasks of their off-diagonals r
    alone (:meth:`of_offdiagonals`).  ``offdiagonals`` holds the r of a set of
    2x2 members, read-only, and is None for any other size.  A set made of r
    builds its ``members`` on first access, and :meth:`member` one at a time,
    from one Sigma(r) per r (see the module notes), so equal r are one object.
    """

    def __init__(self, members: tuple[CorrelationMatrix, ...]):
        members = tuple(members)
        if len(members) == 0:
            raise ValueError("confidence set must be nonempty")
        if len({m.size for m in members}) > 1:
            raise ValueError("confidence set members must share one size")
        self._members = members
        self.offdiagonals = None
        if members[0].size == 2:
            self.offdiagonals = np.array([m.matrix[0, 1] for m in members])
            self.offdiagonals.setflags(write=False)

    @classmethod
    def of_offdiagonals(cls, rs: np.ndarray) -> "ConfidenceSet":
        """The set of the matrices Sigma(r), r in ``rs``; each r must lie in [0, 1)."""
        rs = np.array(rs, dtype=float)
        if rs.ndim != 1 or rs.size == 0:
            raise ValueError("confidence set must be a nonempty vector of r")
        if not np.all((rs >= 0.0) & (rs < 1.0)):
            raise ValueError("every r of a confidence set must lie in [0, 1)")
        rs.setflags(write=False)
        cset = cls.__new__(cls)
        cset._members, cset.offdiagonals = None, rs
        return cset

    @property
    def members(self) -> tuple[CorrelationMatrix, ...]:
        if self._members is None:
            self._members = tuple(map(_two_task, self.offdiagonals.tolist()))
        return self._members

    def member(self, index: int) -> CorrelationMatrix:
        """Member ``index``, the only one built when the set is made of r."""
        if self._members is None:
            return _two_task(float(self.offdiagonals[index]))
        return self._members[index]

    @property
    def size(self) -> int:
        """The members' size u."""
        return 2 if self.offdiagonals is not None else self._members[0].size

    def __len__(self) -> int:
        return len(self.offdiagonals) if self._members is None else len(self._members)


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
def _prior_tails(eta: float) -> np.ndarray:
    """LKJ(eta) upper tail P(r > e) at each cell edge e, read-only and computed once per eta.

    (r + 1) / 2 ~ Beta(eta, eta) gives P(r > e) = I_x(eta, eta) with
    x = (1 - e) / 2 in (0, 1/2], where the continued fraction of I_x(a, b)
    converges (x <= (a + 1) / (a + b + 2)).  Every edge's fraction is evaluated
    by the modified Lentz method until its next term moves it by less than
    ``CF_TOLERANCE``; ValueError naming eta if an edge needs more than
    ``CF_ITERATIONS`` terms.
    """
    x = 0.5 * (1.0 - CELL_EDGES)
    tiny = 1e-300       # keeps Lentz's d and c off zero
    a = eta
    d = 1.0 - (a + a) * x / (a + 1.0)
    d = 1.0 / np.where(np.abs(d) < tiny, tiny, d)
    c = np.ones_like(x)
    fraction = d
    active = np.ones(len(x), dtype=bool)
    for m in range(1, CF_ITERATIONS + 1):
        # the fraction's even and odd coefficients d_2m and d_2m+1
        for coefficient in (m * (a - m) * x / ((a - 1.0 + 2 * m) * (a + 2 * m)),
                            -(a + m) * (a + a + m) * x / ((a + 2 * m) * (a + 1.0 + 2 * m))):
            d = 1.0 + coefficient * d
            d = 1.0 / np.where(np.abs(d) < tiny, tiny, d)
            c = 1.0 + coefficient / c
            c = np.where(np.abs(c) < tiny, tiny, c)
            step = d * c
            fraction = np.where(active, fraction * step, fraction)
        active &= ~(np.abs(step - 1.0) <= CF_TOLERANCE)     # a NaN stays active
        if not active.any():
            break
    else:
        raise ValueError(f"the LKJ prior tails at eta = {eta:g} did not converge in "
                         f"{CF_ITERATIONS} terms of their continued fraction")
    # x^a (1 - x)^a / (a B(a, a)), with log B(a, a) = 2 log Gamma(a) - log Gamma(2a)
    front = np.exp(a * np.log(x) + a * np.log1p(-x) - (2.0 * math.lgamma(a) - math.lgamma(a + a)))
    tails = front * fraction / a
    tails.setflags(write=False)
    return tails


@cache
def _log_cell_masses(eta: float) -> np.ndarray:
    """Log LKJ prior mass of each quadrature cell, read-only and computed once per eta.

    A cell [e_i, e_i+1) holds the difference of the two upper tails at its
    edges; tails rather than the CDF keep the small masses near r = 1 free of
    cancellation.
    """
    tail = _prior_tails(eta)
    masses = np.log(tail[:-1] - tail[1:])
    masses.setflags(write=False)
    return masses


@cache
def truncated_prior_mass(eta: float) -> float:
    """LKJ(eta) mass of r in [0, R_MAX], the cells' total, computed once per eta.

    ValueError naming eta if the mass is too small.
    """
    if not 0.0 < eta < np.inf:          # rng.beta(inf, inf) is NaN, which no draw accepts
        raise ValueError(f"eta must be positive and finite, got {eta}")
    tail = _prior_tails(eta)
    mass = float(tail[0] - tail[-1])
    if mass < PRIOR_MASS_FLOOR:
        raise ValueError(f"eta = {eta:g} leaves the prior mass {mass:.3g} on [0, R_MAX], below "
                         f"{PRIOR_MASS_FLOOR:g}: about {1.0 / mass:.3g} draws per accepted r")
    return mass


def sample_hyperposterior(
    dataset: MultiTaskDataset,
    n_tasks: int,
    eta: float,
    params: KernelParams,
    seed: int = 0,
    *, factor: TwoTaskFactor | None,
) -> EmpiricalHyperPosterior:
    """Weighted samples of p(Sigma | data): correlation matrices, or for two tasks their r.

    The target combines the GP log marginal likelihood of the dataset with the
    LKJ prior of shape ``eta`` > 0, restricted to nonnegative entries.  Two
    tasks give the ``QUADRATURE_CELLS`` cells of the module notes, as the
    arrays ``CELL_MIDPOINTS`` and ``CELL_EDGES`` of r.  More tasks run the angle
    walk: ``CHAINS * SAMPLES_PER_CHAIN`` states merged across chains seeded
    from ``seed``, repeated states sharing one :class:`CorrelationMatrix`;
    fixed seeds give bit-identical output.
    ``factor`` is the refresh's two-task factor, built on ``dataset`` itself
    (:func:`~samsbo.twotask.own_factor`), or None for more tasks, which form
    the squared-exponential Gram matrix of the inputs here.
    """
    if n_tasks < 2:
        raise ValueError("hyper-posterior sampling needs at least two tasks")
    if not 0.0 < eta < np.inf:          # a NaN eta makes every cell mass NaN
        raise ValueError(f"eta must be positive and finite, got {eta}")

    if n_tasks == 2:
        # equal cells: a cell's mass is its density up to one constant
        log_masses = (own_factor(factor, dataset).log_likelihood(CELL_MIDPOINTS)
                      + _log_cell_masses(eta))
        return EmpiricalHyperPosterior(CELL_MIDPOINTS, log_masses, McmcDiagnostics(1.0),
                                       CELL_EDGES)

    n_angles = n_tasks * (n_tasks - 1) // 2
    base = se_kernel_matrix(dataset.inputs, dataset.inputs, params)

    def log_target(state: np.ndarray) -> tuple[float, float]:
        matrix = angles_to_correlation(state, n_tasks)
        if np.min(matrix) < 0.0:
            return -np.inf, -np.inf
        sign, logdet = np.linalg.slogdet(matrix)
        if sign <= 0:
            return -np.inf, -np.inf
        loglik = log_marginal_likelihood(gp.fit(dataset, CorrelationMatrix(matrix), params,
                                                base_gram=base))
        record = loglik + (eta - 1.0) * logdet
        return record + _angle_log_jacobian(state, n_tasks), record

    bounds = (ANGLE_MARGIN, np.pi - ANGLE_MARGIN)
    # start at the identity matrix; nonnegativity is enforced by rejection
    start = np.full(n_angles, np.pi / 2.0)
    states, log_records, rates = [], [], []
    for chain_seed in np.random.SeedSequence(seed).spawn(CHAINS):
        rng = np.random.default_rng(chain_seed)
        kept, kept_log, rate = _run_chain(start, log_target, SAMPLES_PER_CHAIN, rng, bounds)
        states.append(kept)
        log_records.append(kept_log)
        rates.append(rate)

    acceptance = float(np.mean(rates))
    if acceptance < 0.01:
        raise ChainDivergenceError(
            f"acceptance rate {acceptance:.4f} below 0.01 after adaptation"
        )
    all_states = np.vstack(states)
    all_logs = np.concatenate(log_records)
    distinct: dict[bytes, CorrelationMatrix] = {}
    for s in all_states:
        if s.tobytes() not in distinct:
            distinct[s.tobytes()] = CorrelationMatrix(angles_to_correlation(s, n_tasks))
    samples = tuple(distinct[s.tobytes()] for s in all_states)
    return EmpiricalHyperPosterior(samples, all_logs, McmcDiagnostics(acceptance))


def confidence_set(posterior: EmpiricalHyperPosterior, rho: float) -> ConfidenceSet:
    """The densest samples that together hold at least 1 - rho of the weight.

    Samples are taken by decreasing log density, ties in sample order, until
    their weight reaches 1 - rho of the total.  The route gives the weights:
    the m states of the angle walk weigh equally, so the ceil((1 - rho) m)
    densest are kept, and a cell weighs its mass, the exponential of its log
    density.

    Cells stand for their whole extent: each run of adjacent kept cells also
    contributes its two outer edges, after the cells and in the order of r,
    so the members' range of r holds every r whose mass was kept.  A
    quadrature's set is made of those r (:meth:`ConfidenceSet.of_offdiagonals`).
    Cell weights that do not normalize (a NaN or +inf log density, or none
    above -inf) raise ``ValueError``.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    order = np.argsort(-posterior.log_densities, kind="stable")
    if posterior.edges is None:
        keep = math.ceil((1.0 - rho) * len(order))
        return ConfidenceSet(tuple(posterior.samples[i] for i in order[:keep]))
    log_w = posterior.log_densities[order]
    top = np.max(log_w)
    if not np.isfinite(top):
        raise ValueError("log weights must not be NaN or +inf, nor all -inf")
    cumulative = np.cumsum(np.exp(log_w - top))
    keep = int(np.searchsorted(cumulative, (1.0 - rho) * cumulative[-1])) + 1
    order = order[:keep]
    cells = np.sort(order)
    breaks = np.flatnonzero(np.diff(cells) > 1)
    firsts = cells[np.r_[0, breaks + 1]]
    lasts = cells[np.r_[breaks, len(cells) - 1]]
    edges = np.column_stack([firsts, lasts + 1]).ravel()
    return ConfidenceSet.of_offdiagonals(np.concatenate([posterior.samples[order],
                                                         posterior.edges[edges]]))


def sample_prior_offdiagonal(eta: float, rng: np.random.Generator) -> float:
    """Draw r from the LKJ(eta) marginal restricted to [0, R_MAX].

    For two tasks the off-diagonal satisfies (r + 1) / 2 ~ Beta(eta, eta);
    restriction to nonnegative r is a symmetric truncation.  Draws beyond
    R_MAX are rejected rather than clamped: for small eta the prior carries
    substantial mass arbitrarily close to 1, and the model support must match
    the sampler's support for coverage statements to be well posed.  An eta
    that :func:`truncated_prior_mass` refuses raises its ``ValueError``.
    """
    truncated_prior_mass(eta)
    while True:
        b = rng.beta(eta, eta)
        r = 2.0 * b - 1.0
        if 0.0 <= r <= R_MAX:
            return r
