"""Ground-truth optimization problems for the benchmark harness.

Synthetic problems wrap the Powell and Branin functions; supplementary tasks
evaluate the base function at a shifted input, with per-coordinate shift
magnitude equal to the disturbance factor times half the domain width along a
seeded random sign direction.  The controller problem tunes the PI gains of a
serial chain of second-order subsystems under colored disturbances, with the
root-mean-square performance cost computed through a Lyapunov equation.  One
real Schur factorization of the closed loop (LAPACK ``dgees``) serves both
steps of an evaluation: its eigenvalues decide stability against
``HURWITZ_MARGIN``, and its factors feed the Bartels-Stewart solve
(``dtrsyl``).  Both routines come from scipy's compiled ``_flapack`` module,
loaded without the package init of ``scipy.linalg`` (:mod:`samsbo._scipy`);
they are what ``get_lapack_funcs`` returns.  Unstable and near-marginal
closed loops map to a finite penalty above the safety threshold, and a LAPACK
failure raises ``StabilityError``.

Problem facts are module constants, and a problem holds only what a caller
varies.  ``PROBLEMS`` maps each problem name to its factory, and
``FIXED_DIMENSIONS`` holds the dimension of each problem whose factory takes
none.  ``DISTURBANCE`` and ``N_TASKS``, the protocol's disturbance factor and
task count, are the defaults of the factories and of ``config.ExperimentConfig``.
``BRANIN_DOMAIN`` and ``POWELL_DOMAIN`` are the functions' standard boxes.  Each
factory gives its problem the safety threshold ``*_THRESHOLD``.  The
thresholds and the laser chain's ``LASER_*`` plant, filters, gain box, output
scale and known-safe gains ``LASER_SAFE_SEED`` are chosen in this package, the
scale so that those gains land well below the threshold while a sizable part
of ``LASER_BOX`` is unstable or above it.  The module's arrays and the problems'
domains are read-only, because problems share them.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from ._scipy import extension
from .sobol import scrambled_sobol

__all__ = [
    "StabilityError",
    "SyntheticProblem",
    "LaserChainProblem",
    "powell",
    "branin",
    "h2_cost",
    "branin_problem",
    "powell_problem",
    "laser_problem",
    "find_safe_seed",
]


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


DISTURBANCE = 0.3
N_TASKS = 2
POWELL_DOMAIN = (-4.0, 5.0)
BRANIN_DOMAIN = _read_only(np.array([[-5.0, 10.0], [0.0, 15.0]]))
POWELL_THRESHOLD = 35_000.0
BRANIN_THRESHOLD = 150.0
LASER_THRESHOLD = 40.0
INSTABILITY_PENALTY_FACTOR = 10.0
HURWITZ_MARGIN = -1e-9          # a loop is stable when every eigenvalue real part lies below
NOISE_SCALE_SAMPLES = 512
NOISE_MULTIPLIER = 0.01         # noise standard deviation as a share of the output scale
SAFE_SEED_DRAWS = 10_000

LASER_SUBSYSTEMS = 5
LASER_OMEGA = _read_only(2.0 + 0.25 * np.arange(LASER_SUBSYSTEMS))  # plant natural frequencies
LASER_ZETA = 0.7                                                     # plant damping ratio
# a_r of the reference filter, then a_1..a_N of the subsystems' disturbance filters
LASER_FILTER_POLES = _read_only(np.concatenate([[0.2], 0.3 + 0.05 * np.arange(LASER_SUBSYSTEMS)]))
LASER_BOX = _read_only(np.repeat([[0.05, 6.0], [0.05, 8.0]], LASER_SUBSYSTEMS, axis=0))
LASER_OUTPUT_SCALE = 10.0
LASER_SAFE_SEED = _read_only(np.repeat([2.0, 1.0], LASER_SUBSYSTEMS))


class StabilityError(RuntimeError):
    """Raised when a Lyapunov solution fails or cannot be trusted."""


def _no_select(real: float, imag: float) -> int:
    """``dgees``'s eigenvalue-ordering callback; unused, since no ordering is asked for."""
    return 0


_flapack = extension("linalg", "_flapack")
_gees, _trsyl = _flapack.dgees, _flapack.dtrsyl     # get_lapack_funcs(("gees", "trsyl"))
# the workspace scipy.linalg.schur queries before each dgees; it depends on the
# order alone, and the same size keeps the Schur factors bit-identical to scipy's
_GEES_LWORK = int(_gees(_no_select, np.zeros((1 + 4 * LASER_SUBSYSTEMS,) * 2), lwork=-1)[-2][0])


def powell(x: np.ndarray) -> float:
    """Powell singular function summed over consecutive 4-tuples; minimum 0 at the origin."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size % 4 != 0 or x.size == 0:
        raise ValueError("powell requires a dimension that is a positive multiple of 4")
    total = 0.0
    for g in range(x.size // 4):
        x1, x2, x3, x4 = x[4 * g: 4 * g + 4]
        total += (x1 + 10.0 * x2) ** 2 + 5.0 * (x3 - x4) ** 2 \
            + (x2 - 2.0 * x3) ** 4 + 10.0 * (x1 - x4) ** 4
    return float(total)


def branin(x: np.ndarray) -> float:
    """Branin function with the standard constants; three global minima of 0.397887."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size != 2:
        raise ValueError("branin is two-dimensional")
    a, b, c = 1.0, 5.1 / (4.0 * np.pi ** 2), 5.0 / np.pi
    r, s, t = 6.0, 10.0, 1.0 / (8.0 * np.pi)
    return float(a * (x[1] - b * x[0] ** 2 + c * x[0] - r) ** 2
                 + s * (1.0 - t) * np.cos(x[0]) + s)


@dataclass(frozen=True)
class SyntheticProblem:
    """Multi-task view of a base function with shifted supplementary tasks."""

    base: Callable[[np.ndarray], float]
    domain: np.ndarray          # (d, 2) rows of [lower, upper]
    threshold: float
    disturbance: float
    n_tasks: int
    signs: np.ndarray           # (n_tasks - 1, d) shift signs
    noise_sd: float

    @property
    def dimension(self) -> int:
        return self.domain.shape[0]

    def shift(self, z: int) -> np.ndarray:
        """Input shift of supplementary task z; the main task is unshifted."""
        if z == 1:
            return np.zeros(self.dimension)
        width = self.domain[:, 1] - self.domain[:, 0]
        return self.signs[z - 2] * self.disturbance * width / 2.0

    def true_value(self, z: int, x: np.ndarray) -> float:
        if not 1 <= z <= self.n_tasks:
            raise ValueError(f"task must lie in 1..{self.n_tasks}")
        return self.base(np.asarray(x, dtype=float) + self.shift(z))

    def evaluate(self, z: int, x: np.ndarray, rng: np.random.Generator) -> float:
        return self.true_value(z, x) + self.noise_sd * rng.standard_normal()


def _signs(seed: int, n_tasks: int, cols: int) -> np.ndarray:
    """One seeded sign vector per supplementary task."""
    return np.random.default_rng(seed).choice([-1.0, 1.0], size=(n_tasks - 1, cols))


def _output_scale(base: Callable[[np.ndarray], float], domain: np.ndarray) -> float:
    """Deterministic scale proxy, the standard deviation over a Sobol sample.

    The sample is :func:`samsbo.sobol.scrambled_sobol` at seed 7, bit-identical
    to ``qmc.Sobol(d, scramble=True, seed=7).random(NOISE_SCALE_SAMPLES)``.
    """
    unit = scrambled_sobol(domain.shape[0], NOISE_SCALE_SAMPLES, 7)
    points = domain[:, 0] + unit * (domain[:, 1] - domain[:, 0])
    values = np.array([base(p) for p in points])
    return float(np.std(values))


def branin_problem(disturbance: float = DISTURBANCE, n_tasks: int = N_TASKS,
                   disturbance_seed: int = 0) -> SyntheticProblem:
    noise = NOISE_MULTIPLIER * _output_scale(branin, BRANIN_DOMAIN)
    return SyntheticProblem(branin, BRANIN_DOMAIN, BRANIN_THRESHOLD, disturbance, n_tasks,
                            _signs(disturbance_seed, n_tasks, 2), noise)


def powell_problem(dimension: int = 4, disturbance: float = DISTURBANCE,
                   n_tasks: int = N_TASKS, disturbance_seed: int = 0) -> SyntheticProblem:
    domain = _read_only(np.tile(np.array(POWELL_DOMAIN), (dimension, 1)))
    noise = NOISE_MULTIPLIER * _output_scale(powell, domain)
    return SyntheticProblem(powell, domain, POWELL_THRESHOLD, disturbance, n_tasks,
                            _signs(disturbance_seed, n_tasks, dimension), noise)


_LASER_OMEGA2 = _read_only(LASER_OMEGA * LASER_OMEGA)


def _laser_loop_constants() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """What no gain changes in the laser closed loop, all read-only: A without its
    gain and filter-pole entries, B, C, and the flat indices into A of its gain entries.

    Subsystem i's states start at b = 1 + 4 i (position, velocity, integrator,
    disturbance filter).  Row b + 1 of A holds its gains, at columns b (kp),
    b + 2 (ki) and its predecessor's position (kp), the reference filter's
    state 0 for the first subsystem.
    """
    n, dim = LASER_SUBSYSTEMS, 1 + 4 * LASER_SUBSYSTEMS
    starts = 1 + 4 * np.arange(n)
    predecessors = np.concatenate([[0], starts[:-1]])
    A = np.zeros((dim, dim))
    A[starts, starts + 1] = 1.0
    A[starts + 1, starts + 1] = -2.0 * LASER_ZETA * LASER_OMEGA
    A[starts + 1, starts + 3] = _LASER_OMEGA2
    A[starts + 2, starts] = -1.0
    A[starts + 2, predecessors] = 1.0
    B = np.zeros((dim, n + 1))
    B[0, 0] = 1.0
    B[starts + 3, 1 + np.arange(n)] = 1.0
    C = np.zeros((n, dim))
    C[np.arange(n), starts] = -1.0
    C[np.arange(n), predecessors] = 1.0
    gains = np.ravel_multi_index((np.tile(starts + 1, 3),
                                  np.concatenate([starts, starts + 2, predecessors])), (dim, dim))
    return _read_only(A), _read_only(B), _read_only(C), _read_only(gains)


_LASER_A, _LASER_B, _LASER_C, _LASER_GAIN_INDEX = _laser_loop_constants()
_LASER_Q = _read_only(_LASER_B @ _LASER_B.T)       # the Lyapunov equation's B B'
_LASER_Q_NORM = float(np.linalg.norm(_LASER_Q))


@dataclass(frozen=True)
class LaserChainProblem:
    """PI tuning of a serial synchronization chain with an H2 performance cost.

    Each of the N = ``LASER_SUBSYSTEMS`` subsystems is a second-order low-pass
    plant with a PI controller tracking the output of its predecessor; the
    first tracks a colored reference disturbance.  First-order filters with
    unit gain colorize one white noise input per subsystem plus one for the
    reference.  The cost is the root-mean-square norm of the stacked tracking
    errors.  Supplementary tasks perturb the filter state matrices element-wise
    by the disturbance factor with seeded random signs.  The plant, the filters,
    the gain box and the output scale are the module's ``LASER_*`` constants.
    """

    threshold: float
    disturbance: float
    n_tasks: int
    signs: np.ndarray           # (n_tasks - 1, N + 1) filter perturbation signs
    noise_sd: float

    @property
    def dimension(self) -> int:
        return 2 * LASER_SUBSYSTEMS

    @property
    def domain(self) -> np.ndarray:
        """(2N, 2) bounds: kp_1..kp_N then ki_1..ki_N."""
        return LASER_BOX

    def _poles_for_task(self, z: int) -> np.ndarray:
        if z == 1:
            return LASER_FILTER_POLES
        return LASER_FILTER_POLES * (1.0 + self.signs[z - 2] * self.disturbance)

    @cached_property
    def _skeletons(self) -> tuple[np.ndarray, ...]:
        """Per task, the closed loop's A with its gain entries zero, read-only and built once."""
        filters = np.arange(0, _LASER_A.shape[0], 4)       # the states of the filters' poles
        skeletons = []
        for z in range(1, self.n_tasks + 1):
            A = _LASER_A.copy()
            A[filters, filters] = -self._poles_for_task(z)
            skeletons.append(_read_only(A))
        return tuple(skeletons)

    def closed_loop(self, pi_params: np.ndarray, z: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """State matrices (A, B, C) of the closed loop for task ``z``.

        State order: reference filter, then per subsystem (position, velocity,
        integrator, disturbance filter); outputs are the tracking errors, and
        each subsystem tracks its predecessor's position, the first the
        reference filter's output.  B and C are the same read-only arrays for
        every gain and task.  A is the task's gain-free skeleton with its 3N
        gain entries filled in.
        """
        if not 1 <= z <= self.n_tasks:
            raise ValueError(f"task must lie in 1..{self.n_tasks}")
        n = LASER_SUBSYSTEMS
        pi_params = np.asarray(pi_params, dtype=float)
        if pi_params.size != 2 * n:
            raise ValueError(f"expected {2 * n} PI parameters")
        kp, ki = pi_params[:n], pi_params[n:]
        A = self._skeletons[z - 1].copy()
        # + 0.0: the predecessor's kp entry is a sum into a zero, which turns -0.0 into 0.0
        A.flat[_LASER_GAIN_INDEX] = np.concatenate([
            -_LASER_OMEGA2 * (1.0 + kp), _LASER_OMEGA2 * ki, _LASER_OMEGA2 * kp + 0.0])
        return A, _LASER_B, _LASER_C

    def true_value(self, z: int, pi_params: np.ndarray) -> float:
        return h2_cost(pi_params, self, z)

    def evaluate(self, z: int, pi_params: np.ndarray, rng: np.random.Generator) -> float:
        return self.true_value(z, pi_params) + self.noise_sd * rng.standard_normal()


def h2_cost(pi_params: np.ndarray, problem: LaserChainProblem, z: int) -> float:
    """Root-mean-square cost sqrt(trace(C P C')) of the closed loop.

    P solves A P + P A' + B B' = 0 by Bartels-Stewart from one real Schur
    factorization A = U T U' (``dgees``): T's eigenvalues decide stability,
    then ``dtrsyl`` solves T Y + Y T' = -U' B B' U and P = U Y U'.  The steps
    are those of ``scipy.linalg.solve_continuous_lyapunov``, so P is the same
    to the last bit.  A loop whose largest eigenvalue real part is at least
    ``HURWITZ_MARGIN`` returns the finite penalty 10 * threshold, which always
    violates the safety constraint while keeping the surrogate model
    numerically sane; near the margin, rounding decides the side, and both
    sides clip to the penalty.  Costs above the penalty clip to it too.  A
    LAPACK failure or a residual beyond backward-error size raises
    :class:`StabilityError`.
    """
    A, _, C = problem.closed_loop(pi_params, z)
    if not np.isfinite(A).all():
        raise ValueError("PI gains must be finite")
    penalty = INSTABILITY_PENALTY_FACTOR * problem.threshold
    T, _, real_parts, _, U, _, info = _gees(_no_select, A, lwork=_GEES_LWORK)
    if info != 0:
        raise StabilityError(f"dgees failed with info = {info}")
    if real_parts.max() >= HURWITZ_MARGIN:
        return penalty
    Q = _LASER_Q
    Y, scale, info = _trsyl(T, T, U.T.dot((-Q).dot(U)), tranb="T")
    if info != 0:
        # info = 1: eigenvalues of T and -T nearly meet and LAPACK perturbed the solve
        raise StabilityError(f"dtrsyl failed with info = {info}")
    Y *= scale                  # scipy's step; LAPACK sets scale < 1 only against overflow
    P = U.dot(Y).dot(U.T)
    P = 0.5 * (P + P.T)
    residual = np.linalg.norm(A @ P + P @ A.T + Q)
    # backward-error criterion: near-marginal systems have large ||P|| and the
    # attainable residual scales with ||A|| ||P||, not with ||Q|| alone
    bound = 1e-8 * max(_LASER_Q_NORM + 2.0 * np.linalg.norm(A) * np.linalg.norm(P), 1e-30)
    if residual > bound:
        raise StabilityError(f"Lyapunov residual too large: {residual:.3e}")
    value = LASER_OUTPUT_SCALE * float(np.sqrt(max(np.trace(C @ P @ C.T), 0.0)))
    return min(value, penalty)


def laser_problem(disturbance: float = DISTURBANCE, n_tasks: int = N_TASKS,
                  disturbance_seed: int = 0) -> LaserChainProblem:
    """The laser chain at ``LASER_THRESHOLD``, with noise sd ``NOISE_MULTIPLIER`` times it."""
    return LaserChainProblem(
        threshold=LASER_THRESHOLD, disturbance=disturbance, n_tasks=n_tasks,
        signs=_signs(disturbance_seed, n_tasks, LASER_SUBSYSTEMS + 1),
        noise_sd=NOISE_MULTIPLIER * LASER_THRESHOLD,
    )


def find_safe_seed(problem, rng: np.random.Generator) -> np.ndarray:
    """Rejection-sample an input whose noise-free main-task value is below threshold."""
    domain = problem.domain
    for _ in range(SAFE_SEED_DRAWS):
        x = domain[:, 0] + rng.random(domain.shape[0]) * (domain[:, 1] - domain[:, 0])
        if problem.true_value(1, x) <= problem.threshold:
            return x
    raise RuntimeError("no safe seed found within the draw budget")


PROBLEMS = {"branin": branin_problem, "powell": powell_problem, "laser": laser_problem}
FIXED_DIMENSIONS = {"branin": len(BRANIN_DOMAIN), "laser": len(LASER_BOX)}
