"""The two-task special case: closed forms in the single correlation r.

With two tasks and a unit-diagonal correlation matrix Sigma(r) = [[1, r], [r, 1]]
the regularized Gram matrix splits as K(r) + noise I = A + r B.  ``A`` is
block diagonal over the tasks: each task's own block of the base Gram plus
the diagonal shift that :func:`samsbo.gp.fit` factors (noise variance plus
the jitter ``gp.JITTER_START`` times the signal variance; a jitter is such a
multiple everywhere).  ``B`` holds the cross-task blocks K12 and K21 alone.

Per-task factors.  Each task's rows get a single-task :func:`samsbo.gp.fit`
at Sigma = identity(1), so its factor L_z is the Cholesky factor of task z's
block of A; given the previous refresh's factor, each fit grows by its task's
new rows.  With L_A = diag(L1, L2) and w = L_A^-1 y = (w1, w2) the per-task
whitened observations,

    L_A^-1 B L_A^-T = C = [[0, M], [M', 0]],   M = L1^-1 K12 L2^-T   (n1 x n2),

so the thin SVD M = U diag(s) V' (p = min(n1, n2) singular values) gives the
whole spectrum of the pencil: +-s_i and n - 2p zeros.  Per singular value let

    c1 = r^2 s^2 / (1 - r^2 s^2),   c2 = -r s / (1 - r^2 s^2).

For q = (q1, q2) in the whitened basis, with alpha = U' q1 and beta = V' q2,

    q' (I + r C)^-1 q = |q|^2 + sum_i [c1_i (alpha_i^2 + beta_i^2) + 2 c2_i alpha_i beta_i],

and log det(A + r B) = log det A + sum_i log(1 - r^2 s_i^2).  With a = U' w1
and b = V' w2 the log likelihood is therefore O(p) per r,

    log p(y | r) = -1/2 (|w|^2 + sum c1 (a^2 + b^2) + 2 c2 a b)
                   - 1/2 (log det A + sum log(1 - r^2 s^2)) - n/2 log(2 pi),

and a weight vector (A + r B)^-1 y = L_A^-T (I + r C)^-1 w costs O(n p) plus
two products with the per-task inverse factors L_z^-1.  No n x n factor or
eigendecomposition is formed.
:class:`TwoTaskFactor` holds these pieces; the hyper-posterior quadrature
over r, the mean-shift term nu and the posterior at sigma-prime share one per
model refresh.

The posterior at Sigma(r') (:class:`TwoTaskPosterior`) reads the per-task
whitened grids W_z = L_z^-1 k(X_z, grid) from the grid caches of the per-task
fits.  They do not depend on r, so along a chain of refreshes they grow by the
new rows only, even when sigma-prime moves.  A refresh recomputes only the
projections U' W1 and V' W2, O(p n G) for G points.

2x2 correlation matrices also share their eigenvectors, so their spectral
ratios reduce to scalar arithmetic on the off-diagonal entries, and one
minimax gives both sigma-prime and the variance-ratio factor gamma.  Every
function here reads r alone and takes the diagonal as exactly 1;
:mod:`samsbo.bounds` routes a confidence set here by its members' size (see
its module notes).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gp, kernels
from .kernels import CorrelationMatrix, KernelParams

__all__ = ["TwoTaskFactor", "TwoTaskPosterior", "minimax"]

_ONE_TASK = CorrelationMatrix.identity(1)


def minimax(rs: np.ndarray) -> tuple[int, float]:
    """Index of the r minimizing the worst ratio max_i |S(r)^-1 S(r_i)|_2, and that ratio.

    The eigenvalues of S(r) are 1 + r and 1 - r, so the worst ratio is set by
    the largest and the smallest off-diagonal.  Ties resolve to the first index.
    """
    r_lo, r_hi = float(np.min(rs)), float(np.max(rs))
    worst = np.maximum((1.0 + r_hi) / (1.0 + rs), (1.0 - r_lo) / (1.0 - rs))
    index = int(np.argmin(worst))
    return index, float(worst[index])


def _coefficients(singular: np.ndarray, r) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """c1, c2 and 1 - r^2 s^2 per singular value s; an array of r adds leading axes.

    Raises ``gp.NumericalError`` where A + r B is not positive definite.
    """
    rs = np.multiply.outer(r, singular)
    det = (1.0 - rs) * (1.0 + rs)
    if det.size and det.min() <= 0.0:
        raise gp.NumericalError(f"A + r B not positive definite at r = {r!r}")
    return rs * rs / det, -rs / det, det


@dataclass(frozen=True)
class TwoTaskFactor:
    """Per-task factors of the two-task Gram pencil (A, B) and the thin SVD of its cross block.

    ``tasks`` holds the single-task fits of each task's rows, whose factors
    are L1 and L2, and ``inverses`` their inverses; ``rows`` the dataset rows
    of each task.  ``base`` is the
    caller's squared-exponential Gram matrix of all rows, kept for the block
    products of :meth:`nu` and the hyper-posterior's cross-check.  Build it
    with :meth:`build`.
    """

    dataset: gp.MultiTaskDataset
    params: KernelParams
    base: np.ndarray
    second: np.ndarray                          # rows observed on task 2
    rows: tuple[np.ndarray, np.ndarray]         # row indices of each task
    tasks: tuple[gp.Posterior, gp.Posterior]
    inverses: tuple[np.ndarray, np.ndarray]     # L1^-1 and L2^-1
    left: np.ndarray                            # U, n1 x p
    right: np.ndarray                           # V, n2 x p
    singular: np.ndarray                        # s
    projected: tuple[np.ndarray, np.ndarray]    # a = U' w1, b = V' w2
    log_det_a: float

    @classmethod
    def build(cls, dataset: gp.MultiTaskDataset, params: KernelParams, base_gram: np.ndarray,
              previous: "TwoTaskFactor | None" = None) -> "TwoTaskFactor":
        """Fit each task's rows and take the thin SVD of the whitened cross block.

        ``previous``, the factor of an earlier dataset, lets each task's fit
        grow by its new rows when :func:`samsbo.gp.fit` can extend it.  Raises
        ``gp.NumericalError`` when a task's block is not positive definite at
        the starting jitter, where the fit would escalate its jitter and no
        longer factor the system of the Cholesky path.
        """
        if dataset.n and dataset.tasks.max() > 2:
            raise ValueError("a two-task factor needs task indices in 1..2")
        second = dataset.tasks == 2
        rows = (np.flatnonzero(~second), np.flatnonzero(second))
        fits = []
        for z, index in enumerate(rows):
            task_data = gp.MultiTaskDataset(dataset.inputs[index], np.ones(index.size, dtype=int),
                                            dataset.observations[index])
            fit = gp.fit(task_data, _ONE_TASK, params, base_gram=base_gram[np.ix_(index, index)],
                         previous=None if previous is None else previous.tasks[z])
            if index.size and fit.jitter != gp.JITTER_START:
                raise gp.NumericalError(
                    f"same-task block not positive definite at jitter {gp.JITTER_START:g}"
                    " * signal_variance")
            fits.append(fit)
        one, two = fits
        inverses = (gp.inverse_factor(one.chol), gp.inverse_factor(two.chol))
        cross = inverses[0] @ base_gram[np.ix_(*rows)] @ inverses[1].T  # M = L1^-1 K12 L2^-T
        left, singular, right = np.linalg.svd(cross, full_matrices=False)
        right = right.T
        log_diag = sum(float(np.sum(np.log(np.diag(fit.chol)))) for fit in fits)
        return cls(
            dataset=dataset, params=params, base=base_gram, second=second, rows=rows,
            tasks=(one, two), inverses=inverses, left=left, right=right, singular=singular,
            projected=(left.T @ one.whitened_obs, right.T @ two.whitened_obs),
            log_det_a=2.0 * log_diag,
        )

    @property
    def n(self) -> int:
        return self.second.size

    def log_likelihood(self, r):
        """Log marginal likelihood at Sigma(r), O(p) per r; an array of r gives an array."""
        rs = np.asarray(r, dtype=float)
        c1, c2, det = _coefficients(self.singular, rs)
        a, b = self.projected
        whitened = sum(float(fit.whitened_obs @ fit.whitened_obs) for fit in self.tasks)
        quadratic = whitened + c1 @ (a * a + b * b) + c2 @ (2.0 * a * b)
        value = (-0.5 * quadratic - 0.5 * (self.log_det_a + np.sum(np.log(det), axis=-1))
                 - 0.5 * self.n * math.log(2.0 * math.pi))
        return float(value) if rs.ndim == 0 else value

    def posterior(self, sigma_prime: CorrelationMatrix) -> "TwoTaskPosterior":
        """The GP posterior at ``sigma_prime``, which must be 2x2, without a joint factor."""
        c1, c2, _ = _coefficients(self.singular, float(sigma_prime.matrix[0, 1]))
        one, two = self.tasks
        weights = self._solve_whitened(one.whitened_obs, two.whitened_obs, c1, c2)
        return TwoTaskPosterior(self.dataset, sigma_prime, self.params, None, gp.JITTER_START,
                                None, factor=self, weights=weights, coefficients=(c1, c2))

    def _solve_whitened(self, top: np.ndarray, bottom: np.ndarray, c1: np.ndarray,
                        c2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(I + r C)^-1 (top, bottom) in the whitened basis, split by task.

        ``c1`` and ``c2`` are the coefficients at one r, or p x k arrays with
        one r per column of ``top`` and ``bottom``.
        """
        a, b = self.left.T @ top, self.right.T @ bottom
        return top + self.left @ (c1 * a + c2 * b), bottom + self.right @ (c2 * a + c1 * b)

    def _weights(self, rs: np.ndarray) -> np.ndarray:
        """Columns (A0 + r B + noise I)^-1 y, one per r, without the jitter shift.

        The pencil P = A + r B inverts as L_A^-T (I + r C)^-1 L_A^-1, through
        the per-task inverse factors and :meth:`_solve_whitened`.  It carries
        the fits' shift e = gp.JITTER_START * signal_variance on its diagonal;
        one correction step P^-1 y + e P^-2 y removes it up to a relative (e/noise)^2.
        """
        shift = gp.JITTER_START * self.params.signal_variance
        c1, c2, _ = (c.T for c in _coefficients(self.singular, rs))
        (l1, l2), (one, two) = self.inverses, self.tasks
        t1, t2 = self._solve_whitened(one.whitened_obs[:, None], two.whitened_obs[:, None],
                                      c1, c2)
        first = (l1.T @ t1, l2.T @ t2)                                  # P^-1 y
        t1, t2 = self._solve_whitened(l1 @ first[0], l2 @ first[1], c1, c2)
        out = np.empty((self.n, rs.size))
        out[self.rows[0]] = first[0] + shift * (l1.T @ t1)
        out[self.rows[1]] = first[1] + shift * (l2.T @ t2)
        return out

    def _blocks(self, columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(A0 a, B a) for each column a, with A0 the unshifted same-task block."""
        two = self.second[:, None]
        from_two = self.base @ np.where(two, columns, 0.0)
        from_one = self.base @ np.where(two, 0.0, columns)
        return np.where(two, from_two, from_one), np.where(two, from_one, from_two)

    def nu(self, r_prime: float, rs: np.ndarray) -> float:
        """Mean-shift term of :func:`samsbo.bounds.nu_factor` for Sigma(r') and members Sigma(r_i).

        Each Gram product G_S a splits as A0 a + r B a, and
        S S'^-1 S = [[p, q], [q, p]] gives G = p A0 + q B, so every member
        costs O(n^2).
        """
        if self.n == 0:
            return 0.0
        rs = np.asarray(rs, dtype=float)
        weights = self._weights(np.concatenate([[r_prime], rs]))
        same, cross = self._blocks(weights)
        a_p, a = weights[:, 0], weights[:, 1:]
        same_p, cross_p = same[:, 0], cross[:, 0]
        same, cross = same[:, 1:], cross[:, 1:]
        # eigenvalues (1 + r)^2 / (1 + r') and (1 - r)^2 / (1 - r') of S S'^-1 S
        e_plus = (1.0 + rs) ** 2 / (1.0 + r_prime)
        e_minus = (1.0 - rs) ** 2 / (1.0 - r_prime)
        p, q = 0.5 * (e_plus + e_minus), 0.5 * (e_plus - e_minus)
        head = float(a_p @ (same_p + r_prime * cross_p))
        term1 = (head - 2.0 * (same_p @ a + rs * (cross_p @ a))
                 + np.sum(a * (p * same + q * cross), axis=0))
        term2 = self.params.noise_variance * np.sum((a - a_p[:, None]) ** 2, axis=0)
        return float(np.sqrt(np.max(np.maximum(term1, 0.0) + term2)))


@dataclass(frozen=True, kw_only=True)
class TwoTaskPosterior(gp.Posterior):
    """The GP posterior at Sigma(r') read from a :class:`TwoTaskFactor`.

    It has no joint factor: ``chol`` and ``whitened_obs`` are None and
    :meth:`whitened` raises ``TypeError``.  ``weights`` are the two tasks' parts of
    t = (I + r' C)^-1 w, so a mean is q' t for q = L_A^-1 k, and
    ``coefficients`` are c1 and c2 at r'.  For each point array the grid cache
    holds the per-task whitened grids of the factor's fits and the column sums
    the variances read, which take the projections U' W1 and V' W2 (see the
    module notes).
    """

    factor: TwoTaskFactor
    weights: tuple[np.ndarray, np.ndarray]
    coefficients: tuple[np.ndarray, np.ndarray]

    def whitened(self, points: np.ndarray, z: int):
        raise TypeError("a two-task posterior has no joint factor to whiten with; "
                        "read predict_batch or pick_covariance")

    def _grids(self, points: np.ndarray) -> tuple:
        """The whitened grids W1 and W2 at ``points`` and the column sums S11,
        S22 and S12 of W1^2 + c1 P1^2, W2^2 + c1 P2^2 and c2 P1 P2, where
        P1 = U' W1 and P2 = V' W2.

        An entry is reused while the fits return the same whitened grids, that
        is for a read-only ``points`` whose grids the fits cache.
        """
        (w1, sq1), (w2, sq2) = (fit.whitened(points, 1) for fit in self.factor.tasks)
        for entry in self._grid[:]:
            if entry[0] is w1 and entry[1] is w2:
                return entry
        c1, c2 = self.coefficients
        p1, p2 = self.factor.left.T @ w1, self.factor.right.T @ w2
        entry = (w1, w2, sq1 + c1 @ (p1 * p1), sq2 + c1 @ (p2 * p2), c2 @ (p1 * p2))
        self._grid[:] = [entry]
        return entry

    def _moments(self, points: np.ndarray, z: int) -> tuple[np.ndarray, np.ndarray]:
        w1, w2, s11, s22, s12 = self._grids(points)
        t1, t2 = self.weights
        # the whitened cross-covariance of task z is q = (S[z, 1] W1, S[z, 2] W2)
        g1, g2 = self.sigma_used.matrix[z - 1]
        mean = g1 * (w1.T @ t1) + g2 * (w2.T @ t2)
        explained = g1 * g1 * s11 + g2 * g2 * s22 + 2.0 * g1 * g2 * s12
        return mean, self.sigma_used.matrix[z - 1, z - 1] * self.params.signal_variance - explained

    def pick_covariance(self, points: np.ndarray, z: int, task: int, idx: int) -> np.ndarray:
        w1, w2 = self._grids(points)[:2]
        h1, h2 = self.sigma_used.matrix[task - 1]
        # q_z' (I + r' C)^-1 q_task at the pick, with the inverse applied on the pick's side
        t1, t2 = self.factor._solve_whitened(h1 * w1[:, idx], h2 * w2[:, idx],
                                             *self.coefficients)
        g1, g2 = self.sigma_used.matrix[z - 1]
        prior = kernels.se_kernel_matrix(points, points[idx:idx + 1], self.params)[:, 0]
        return self.sigma_used.matrix[z - 1, task - 1] * prior - (g1 * (w1.T @ t1)
                                                                  + g2 * (w2.T @ t2))
