"""The two-task special case: closed forms in the single correlation r.

With two tasks and a unit-diagonal correlation matrix Sigma(r) = [[1, r], [r, 1]]
the regularized Gram matrix splits as K(r) + noise I = A + r B.  ``A`` is the
same-task block of the base Gram plus the diagonal shift that
:func:`samsbo.gp.fit` and :func:`samsbo.gp.log_marginal_likelihood` factor
(noise variance plus ``gp.JITTER_START`` times the signal variance); ``B`` is
the cross-task block.  One generalized eigendecomposition B V = A V diag(lam)
with V' A V = I diagonalizes every A + r B at once, so with c = V' y

    log p(y | r) = -1/2 sum c^2 / (1 + r lam) - 1/2 sum log(1 + r lam)
                   - 1/2 log det A - n/2 log(2 pi)

costs O(n) per r and the weight vector (A + r B)^-1 y = V (c / (1 + r lam))
costs O(n^2).  :class:`TwoTaskFactor` holds that decomposition; the hyper-
posterior quadrature over r and the mean-shift term nu share one per model
refresh.

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
from scipy.linalg import solve_triangular

from . import gp
from .kernels import KernelParams

__all__ = ["TwoTaskFactor", "minimax"]


def minimax(rs: np.ndarray) -> tuple[int, float]:
    """Index of the r minimizing the worst ratio max_i |S(r)^-1 S(r_i)|_2, and that ratio.

    The eigenvalues of S(r) are 1 + r and 1 - r, so the worst ratio is set by
    the largest and the smallest off-diagonal.  Ties resolve to the first index.
    """
    r_lo, r_hi = float(np.min(rs)), float(np.max(rs))
    worst = np.maximum((1.0 + r_hi) / (1.0 + rs), (1.0 - r_lo) / (1.0 - rs))
    index = int(np.argmin(worst))
    return index, float(worst[index])


@dataclass(frozen=True)
class TwoTaskFactor:
    """Generalized eigendecomposition of the two-task Gram pencil (A, B).

    ``vectors`` (V) is the only n x n matrix the factor adds; ``base`` is the
    caller's squared-exponential Gram matrix, kept for the block products of
    :meth:`nu`.  Build it with :meth:`build`.
    """

    base: np.ndarray
    second: np.ndarray          # rows observed on task 2
    vectors: np.ndarray
    eigenvalues: np.ndarray
    projected: np.ndarray       # c = V' y
    log_det_a: float
    noise_variance: float
    jitter: float               # gp.JITTER_START * signal_variance, part of A's shift

    @classmethod
    def build(cls, dataset: gp.MultiTaskDataset, params: KernelParams,
              base_gram: np.ndarray) -> "TwoTaskFactor":
        """Factor A and reduce B to a symmetric eigenproblem: O(n^3), once.

        Raises ``gp.NumericalError`` when A is not positive definite at the
        starting jitter, where the Cholesky path would escalate its jitter and
        no longer factor the same system.
        """
        n = dataset.n
        if n and dataset.tasks.max() > 2:
            raise ValueError("a two-task factor needs task indices in 1..2")
        second = dataset.tasks == 2
        jitter = gp.JITTER_START * params.signal_variance
        cross = np.where(second[:, None] != second[None, :], base_gram, 0.0)
        a = base_gram - cross
        a[np.diag_indices(n)] += params.noise_variance
        a[np.diag_indices(n)] += jitter
        try:
            chol = np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            raise gp.NumericalError(
                f"same-task block not positive definite at jitter {gp.JITTER_START:g}"
                " * signal_variance") from None
        # L^-1 B L^-T has the eigenvalues of the pencil; V = L^-T W
        half = solve_triangular(chol, cross, lower=True)
        reduced = solve_triangular(chol, half.T, lower=True)
        eigenvalues, w = np.linalg.eigh(0.5 * (reduced + reduced.T))
        vectors = solve_triangular(chol, w, lower=True, trans="T")
        return cls(
            base=base_gram, second=second,
            vectors=vectors, eigenvalues=eigenvalues,
            projected=vectors.T @ dataset.observations,
            log_det_a=float(2.0 * np.sum(np.log(np.diag(chol)))),
            noise_variance=params.noise_variance, jitter=jitter,
        )

    @property
    def n(self) -> int:
        return self.eigenvalues.size

    def log_likelihood(self, r):
        """Log marginal likelihood at Sigma(r), O(n) per r; an array of r gives an array."""
        rs = np.asarray(r, dtype=float)
        d = 1.0 + np.multiply.outer(rs, self.eigenvalues)
        if self.n and d.min() <= 0.0:
            raise gp.NumericalError(f"A + r B not positive definite at r = {r!r}")
        c = self.projected
        value = (-0.5 * np.sum(c * c / d, axis=-1) - 0.5 * np.sum(np.log(d), axis=-1)
                 - 0.5 * self.log_det_a - 0.5 * self.n * math.log(2.0 * math.pi))
        return float(value) if rs.ndim == 0 else value

    def _weights(self, rs: np.ndarray) -> np.ndarray:
        """Columns (A0 + r B + noise I)^-1 y, one per r, without the jitter shift.

        The pencil carries ``jitter`` on its diagonal; one correction step
        M^-1 y + jitter M^-2 y removes it up to a relative (jitter/noise)^2.
        """
        scale = 1.0 / (1.0 + np.outer(self.eigenvalues, rs))
        first = self.vectors @ (self.projected[:, None] * scale)
        return first + self.jitter * (self.vectors @ (scale * (self.vectors.T @ first)))

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
        term2 = self.noise_variance * np.sum((a - a_p[:, None]) ** 2, axis=0)
        return float(np.sqrt(np.max(np.maximum(term1, 0.0) + term2)))
