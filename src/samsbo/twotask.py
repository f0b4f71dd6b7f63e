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
eigendecomposition is formed for these.
:class:`TwoTaskFactor` holds these pieces; the hyper-posterior quadrature
over r, the mean-shift term nu and the posterior at sigma-prime share one per
model refresh.  It forms the base Gram k(X, X) itself, the one kernel matrix
of a two-task refresh, and given the previous refresh's factor grows it by
the new rows' kernel entries, O(n k d) for k new rows.

A factor checks itself where it is made: :meth:`TwoTaskFactor.build` raises
:class:`samsbo.gp.NumericalError` when its closed-form log likelihood at
Sigma(``CHECK_R``) is off the Cholesky value of the refresh's one joint fit
there by more than ``CROSS_CHECK_RTOL``.  That fit grows from the previous
factor's like the per-task fits, O(n^2 k), so only a fresh factor pays O(n^3)
for it.  The stages of a refresh take that factor and no other:
:func:`own_factor` raises ``ValueError`` for none or for a factor whose
``dataset`` is not the stage's own object, an O(1) check.

The posterior at Sigma(r') (:class:`TwoTaskPosterior`) reads the per-task
whitened grids W_z = L_z^-1 k(X_z, grid) from the grid caches of the per-task
fits.  They do not depend on r, so along a chain of refreshes they grow by the
new rows only, even when sigma-prime moves.  A posterior computes only the
projections P1 = U' W1 and P2 = V' W2, one product each, O(p n G) for G
points.  Its means need no further read of a grid: with t = (I + r' C)^-1 w
split by task, t1 = w1 + U (c1 a + c2 b) and t2 = w2 + V (c2 a + c1 b), so

    W1' t1 = W1' w1 + P1' (c1 a + c2 b),   W2' t2 = W2' w2 + P2' (c2 a + c1 b).

W_z' w_z is the mean the fit's grid entry keeps (see :mod:`samsbo.gp`), or
computed from the entry when the fit inherited it with other observations:
a task that gains no rows keeps its factor and grid, but standardizing the
grown data changes its w_z.  The rest is O(p G), and a prediction from the
posterior's cached entry is O(G).  The means differ from W_z' t_z computed
directly in their last bits (about 1e-14); the variances are formed from P1
and P2 themselves.

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
CHECK_R = 0.5               # the r of the joint Cholesky fit a factor checks itself against
CROSS_CHECK_RTOL = 1e-8     # relative to max(|log likelihood|, 1 nat)


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


def _base_gram(inputs: np.ndarray, params: KernelParams,
               previous: "TwoTaskFactor | None") -> np.ndarray:
    """The squared-exponential Gram of ``inputs``, grown from ``previous``'s where it applies."""
    n, m = inputs.shape[0], 0 if previous is None else previous.dataset.n
    if not (previous is not None and previous.params == params and m <= n
            and np.array_equal(previous.dataset.inputs, inputs[:m])):
        return kernels.se_kernel_matrix(inputs, inputs, params)
    rows = kernels.se_kernel_matrix(inputs[m:], inputs, params)
    base = np.empty((n, n))
    base[:m, :m] = previous.base
    base[m:] = rows
    base[:m, m:] = rows[:, :m].T
    return base


@dataclass(frozen=True)
class TwoTaskFactor:
    """Per-task factors of the two-task Gram pencil (A, B) and the thin SVD of its cross block.

    It stores only what costs more than O(n p) to recompute or what the next
    refresh grows.  ``tasks`` holds the single-task fits of each task's rows,
    whose factors are L1 and L2, and ``inverses`` their inverses (two O(n^3)
    ``dtrtri``).  ``base`` is the squared-exponential Gram matrix of all rows,
    which :meth:`build` forms or grows and :meth:`nu`'s block products read,
    and ``check`` the joint Cholesky fit at Sigma(``CHECK_R``) it checks itself
    against.  Each task's rows (the mask ``dataset.tasks == 2``), log det A and
    (a, b) are formed where they are read.  :func:`samsbo.bounds.robust_model`
    builds it with :meth:`build`.
    """

    dataset: gp.MultiTaskDataset
    params: KernelParams
    base: np.ndarray
    tasks: tuple[gp.Posterior, gp.Posterior]
    inverses: tuple[np.ndarray, np.ndarray]     # L1^-1 and L2^-1
    left: np.ndarray                            # U, n1 x p
    right: np.ndarray                           # V, n2 x p
    singular: np.ndarray                        # s
    check: gp.Posterior                         # the joint fit at Sigma(CHECK_R)

    @classmethod
    def build(cls, dataset: gp.MultiTaskDataset, params: KernelParams,
              previous: "TwoTaskFactor | None" = None) -> "TwoTaskFactor":
        """Form the base Gram, fit each task's rows and take the thin SVD of the cross block.

        ``previous``, the factor of an earlier dataset, lends its base Gram,
        per-task fits and joint fit at Sigma(``CHECK_R``) to grow by the new
        rows.  The base Gram grows when the kernel parameters are equal and
        ``previous``'s inputs are a prefix of ``dataset``'s: only the k new
        rows' kernel entries are computed, O(n k d) against O(n^2 d), and they
        are bit-identical to a fresh Gram's (see :mod:`samsbo.kernels`).  The
        fits grow when :func:`samsbo.gp.fit` can extend them: O(n^2 k) where a
        fresh joint fit costs O(n^3).  The factor checks itself against the
        joint fit (see the module notes) and raises ``gp.NumericalError`` when
        that check fails, or when a task's block is not positive definite at
        the starting jitter, where the fit would escalate its jitter and no
        longer factor the system of the Cholesky path.
        """
        if dataset.n and dataset.tasks.max() > 2:
            raise ValueError("a two-task factor needs task indices in 1..2")
        base_gram = _base_gram(dataset.inputs, params, previous)
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
        check = gp.fit(dataset, CorrelationMatrix.two_task(CHECK_R), params, base_gram=base_gram,
                       previous=None if previous is None else previous.check)
        factor = cls(dataset=dataset, params=params, base=base_gram, tasks=(one, two),
                     inverses=inverses, left=left, right=right, singular=singular, check=check)
        exact, fast = gp.log_marginal_likelihood(check), factor.log_likelihood(CHECK_R)
        if abs(fast - exact) > CROSS_CHECK_RTOL * max(abs(exact), 1.0):
            raise gp.NumericalError(f"factorized log likelihood {fast!r} differs from the "
                                    f"Cholesky value {exact!r} at r = {CHECK_R}")
        return factor

    def _projected(self) -> tuple[np.ndarray, np.ndarray]:
        """a = U' w1 and b = V' w2, O(n p)."""
        one, two = self.tasks
        return self.left.T @ one.whitened_obs, self.right.T @ two.whitened_obs

    def log_likelihood(self, r):
        """Log marginal likelihood at Sigma(r), O(n p) and O(p) per r; an array of r gives one."""
        rs = np.asarray(r, dtype=float)
        c1, c2, det = _coefficients(self.singular, rs)
        a, b = self._projected()
        whitened = sum(float(fit.whitened_obs @ fit.whitened_obs) for fit in self.tasks)
        log_det_a = 2.0 * sum(float(np.sum(np.log(np.diag(fit.chol)))) for fit in self.tasks)
        quadratic = whitened + c1 @ (a * a + b * b) + c2 @ (2.0 * a * b)
        value = (-0.5 * quadratic - 0.5 * (log_det_a + np.sum(np.log(det), axis=-1))
                 - 0.5 * self.dataset.n * math.log(2.0 * math.pi))
        return float(value) if rs.ndim == 0 else value

    def posterior(self, sigma_prime: CorrelationMatrix) -> "TwoTaskPosterior":
        """The GP posterior at ``sigma_prime``, which must be 2x2, without a joint factor."""
        c1, c2, _ = _coefficients(self.singular, float(sigma_prime.matrix[0, 1]))
        return TwoTaskPosterior(self.dataset, sigma_prime, self.params, None, gp.JITTER_START,
                                None, factor=self, coefficients=(c1, c2))

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
        second = self.dataset.tasks == 2
        out = np.empty((self.dataset.n, rs.size))
        out[~second] = first[0] + shift * (l1.T @ t1)
        out[second] = first[1] + shift * (l2.T @ t2)
        return out

    def _blocks(self, columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(A0 a, B a) for each column a, with A0 the unshifted same-task block."""
        two = (self.dataset.tasks == 2)[:, None]
        from_two = self.base @ np.where(two, columns, 0.0)
        from_one = self.base @ np.where(two, 0.0, columns)
        return np.where(two, from_two, from_one), np.where(two, from_one, from_two)

    def nu(self, r_prime: float, rs: np.ndarray) -> float:
        """Mean-shift term of :func:`samsbo.bounds.nu_factor` for Sigma(r') and members Sigma(r_i).

        Each Gram product G_S a splits as A0 a + r B a, and
        S S'^-1 S = [[p, q], [q, p]] gives G = p A0 + q B, so every member
        costs O(n^2).
        """
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


def own_factor(factor: TwoTaskFactor | None, dataset: gp.MultiTaskDataset) -> TwoTaskFactor:
    """``factor`` when it was built on ``dataset`` itself; ``ValueError`` otherwise."""
    if factor is None or factor.dataset is not dataset:
        raise ValueError("a two-task stage takes the factor built on its own dataset")
    return factor


@dataclass(frozen=True, kw_only=True)
class TwoTaskPosterior(gp.Posterior):
    """The GP posterior at Sigma(r') read from a :class:`TwoTaskFactor`.

    It has no joint factor: ``chol`` and ``whitened_obs`` are None.  With
    t = (I + r' C)^-1 w, a mean is q' t for q = L_A^-1 k; each task's part is
    t_z = w_z + U_z shift_z (U_1 = U, U_2 = V), with shift_1 = c1 a + c2 b
    and shift_2 = c2 a + c1 b formed once per grid fill.  ``coefficients``
    are c1 and c2 at r'.  For each point array the grid cache holds the fits'
    entries, the column sums the variances read, which take the projections
    U' W1 and V' W2, and the mean parts W1' t1 and W2' t2 (see the module notes).
    """

    factor: TwoTaskFactor
    coefficients: tuple[np.ndarray, np.ndarray]

    def _grids(self, points: np.ndarray) -> tuple:
        """The fits' grid entries at ``points``, whose whitened grids are W1 and W2, the
        column sums S11, S22 and S12 of W1^2 + c1 P1^2, W2^2 + c1 P2^2 and
        c2 P1 P2, where P1 = U' W1 and P2 = V' W2, and the mean parts W1' t1
        and W2' t2.

        W_z' t_z is the fit's mean W_z' w_z plus P_z' shift_z (see the module
        notes).  The result is reused while the fits return the same entries.
        """
        fits = self.factor.tasks
        e1, e2 = (fit._entries(points)[0] for fit in fits)
        for grids in self._grid[:]:
            if grids[0] is e1 and grids[1] is e2:
                return grids
        c1, c2 = self.coefficients
        p1, p2 = self.factor.left.T @ e1.whitened, self.factor.right.T @ e2.whitened
        m1, m2 = (entry.mean_of(fit.whitened_obs) for entry, fit in zip((e1, e2), fits))
        a, b = self.factor._projected()
        s1, s2 = c1 * a + c2 * b, c2 * a + c1 * b
        grids = (e1, e2, e1.sumsq + c1 @ (p1 * p1), e2.sumsq + c1 @ (p2 * p2), c2 @ (p1 * p2),
                 m1 + p1.T @ s1, m2 + p2.T @ s2)
        self._grid[:] = [grids]
        return grids

    def _moments(self, points: np.ndarray, z: int) -> tuple[np.ndarray, np.ndarray]:
        _, _, s11, s22, s12, m1, m2 = self._grids(points)
        # the whitened cross-covariance of task z is q = (S[z, 1] W1, S[z, 2] W2)
        g1, g2 = self.sigma_used.matrix[z - 1]
        mean = g1 * m1 + g2 * m2
        explained = g1 * g1 * s11 + g2 * g2 * s22 + 2.0 * g1 * g2 * s12
        return mean, self.sigma_used.matrix[z - 1, z - 1] * self.params.signal_variance - explained

    def _pick_covariance(self, points: np.ndarray, z: int, task: int, idx: int) -> np.ndarray:
        e1, e2 = self._grids(points)[:2]
        w1, w2 = e1.whitened, e2.whitened
        h1, h2 = self.sigma_used.matrix[task - 1]
        # q_z' (I + r' C)^-1 q_task at the pick, with the inverse applied on the pick's side
        t1, t2 = self.factor._solve_whitened(h1 * w1[:, idx], h2 * w2[:, idx],
                                             *self.coefficients)
        g1, g2 = self.sigma_used.matrix[z - 1]
        return (self.sigma_used.matrix[z - 1, task - 1] * e1.kernel_row(idx, self.params)
                - (g1 * (w1.T @ t1) + g2 * (w2.T @ t2)))
