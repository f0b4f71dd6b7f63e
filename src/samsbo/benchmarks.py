"""Ground-truth optimization problems for the benchmark harness.

Synthetic problems wrap the Powell and Branin functions; supplementary tasks
evaluate the base function at a shifted input, with per-coordinate shift
magnitude equal to the disturbance factor times half the domain width along a
seeded random sign direction.  The controller problem tunes the PI gains of a
serial chain of second-order subsystems under colored disturbances, with the
root-mean-square performance cost computed through a Lyapunov equation;
unstable closed loops map to a finite penalty above the safety threshold.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import solve_continuous_lyapunov

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

POWELL_DOMAIN = (-4.0, 5.0)
BRANIN_DOMAIN = np.array([[-5.0, 10.0], [0.0, 15.0]])
POWELL_THRESHOLD = 35_000.0
BRANIN_THRESHOLD = 150.0
LASER_THRESHOLD = 40.0
INSTABILITY_PENALTY_FACTOR = 10.0
NOISE_SCALE_SAMPLES = 512


class StabilityError(RuntimeError):
    """Raised when a Lyapunov equation is requested for a non-Hurwitz matrix."""


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

    name: str
    base: Callable[[np.ndarray], float]
    domain: np.ndarray          # (d, 2) rows of [lower, upper]
    threshold: float
    shift_factor: float
    n_tasks: int
    directions: np.ndarray      # (n_tasks - 1, d) sign vectors
    noise_sd: float
    disturbance_seed: int

    @property
    def dimension(self) -> int:
        return self.domain.shape[0]

    def shift(self, z: int) -> np.ndarray:
        """Input shift of supplementary task z; the main task is unshifted."""
        if z == 1:
            return np.zeros(self.dimension)
        width = self.domain[:, 1] - self.domain[:, 0]
        return self.directions[z - 2] * self.shift_factor * width / 2.0

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


def branin_problem(shift_factor: float = 0.3, n_tasks: int = 2,
                   threshold: float = BRANIN_THRESHOLD,
                   noise_multiplier: float = 0.01,
                   disturbance_seed: int = 0) -> SyntheticProblem:
    noise = noise_multiplier * _output_scale(branin, BRANIN_DOMAIN)
    return SyntheticProblem("branin", branin, BRANIN_DOMAIN, threshold, shift_factor, n_tasks,
                            _signs(disturbance_seed, n_tasks, 2), noise, disturbance_seed)


def powell_problem(dimension: int = 4, shift_factor: float = 0.3, n_tasks: int = 2,
                   threshold: float = POWELL_THRESHOLD,
                   noise_multiplier: float = 0.01,
                   disturbance_seed: int = 0) -> SyntheticProblem:
    domain = np.tile(np.array(POWELL_DOMAIN), (dimension, 1))
    noise = noise_multiplier * _output_scale(powell, domain)
    return SyntheticProblem("powell", powell, domain, threshold, shift_factor, n_tasks,
                            _signs(disturbance_seed, n_tasks, dimension), noise,
                            disturbance_seed)


def lyapunov_solve(A: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Solve A P + P A' + Q = 0 for a Hurwitz A; P is symmetric PSD.

    Checks stability first.  :func:`h2_cost` makes a stricter check of its own
    and calls the solve behind this one, so no run calls this; it is not
    exported.
    """
    A = np.asarray(A, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if np.max(np.linalg.eigvals(A).real) >= -1e-12:
        raise StabilityError("matrix is not Hurwitz")
    return _lyapunov_solution(A, Q)


def _lyapunov_solution(A: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """:func:`lyapunov_solve` after its stability check, which the caller has made."""
    P = solve_continuous_lyapunov(A, -Q)
    P = 0.5 * (P + P.T)
    residual = np.linalg.norm(A @ P + P @ A.T + Q)
    # backward-error criterion: near-marginal systems have large ||P|| and the
    # attainable residual scales with ||A|| ||P||, not with ||Q|| alone
    bound = 1e-8 * max(np.linalg.norm(Q) + 2.0 * np.linalg.norm(A) * np.linalg.norm(P), 1e-30)
    if residual > bound:
        raise StabilityError(f"Lyapunov residual too large: {residual:.3e}")
    return P


@dataclass(frozen=True)
class LaserChainProblem:
    """PI tuning of a serial synchronization chain with an H2 performance cost.

    Each of the N subsystems is a second-order low-pass plant with a PI
    controller tracking the output of its predecessor; the first tracks a
    colored reference disturbance.  First-order filters colorize one white
    noise input per subsystem plus one for the reference.  The cost is the
    root-mean-square norm of the stacked tracking errors.  Supplementary tasks
    perturb the filter state matrices element-wise by the disturbance factor
    with seeded random signs.
    """

    n_subsystems: int
    omega: np.ndarray           # plant natural frequencies
    zeta: float
    filter_poles: np.ndarray    # a_r followed by a_1..a_N (all positive)
    filter_gain: float
    output_scale: float
    threshold: float
    box: np.ndarray             # (2N, 2) bounds: kp_1..kp_N then ki_1..ki_N
    disturbance_factor: float
    n_tasks: int
    filter_signs: np.ndarray    # (n_tasks - 1, N + 1) perturbation signs
    noise_sd: float
    disturbance_seed: int

    @property
    def dimension(self) -> int:
        return 2 * self.n_subsystems

    @property
    def domain(self) -> np.ndarray:
        return self.box

    def _poles_for_task(self, z: int) -> np.ndarray:
        if z == 1:
            return self.filter_poles
        signs = self.filter_signs[z - 2]
        return self.filter_poles * (1.0 + signs * self.disturbance_factor)

    def closed_loop(self, pi_params: np.ndarray, z: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """State matrices (A, B, C) of the closed loop for task ``z``.

        State order: reference filter, then per subsystem (position, velocity,
        integrator, disturbance filter); outputs are the tracking errors.
        """
        n = self.n_subsystems
        pi_params = np.asarray(pi_params, dtype=float)
        if pi_params.size != 2 * n:
            raise ValueError(f"expected {2 * n} PI parameters")
        kp, ki = pi_params[:n], pi_params[n:]
        poles = self._poles_for_task(z)
        dim = 1 + 4 * n
        A = np.zeros((dim, dim))
        B = np.zeros((dim, n + 1))
        C = np.zeros((n, dim))
        A[0, 0] = -poles[0]
        B[0, 0] = 1.0
        cf = self.filter_gain
        for i in range(n):
            b = 1 + 4 * i
            w = self.omega[i]
            w2 = w * w
            # predecessor timing: reference filter output for the first subsystem
            if i == 0:
                pred_col, pred_gain = 0, cf
            else:
                pred_col, pred_gain = 1 + 4 * (i - 1), 1.0
            A[b, b + 1] = 1.0
            A[b + 1, b] = -w2 * (1.0 + kp[i])
            A[b + 1, b + 1] = -2.0 * self.zeta * w
            A[b + 1, b + 2] = w2 * ki[i]
            A[b + 1, b + 3] = w2 * cf
            A[b + 1, pred_col] += w2 * kp[i] * pred_gain
            A[b + 2, b] = -1.0
            A[b + 2, pred_col] += pred_gain
            A[b + 3, b + 3] = -poles[1 + i]
            B[b + 3, 1 + i] = 1.0
            C[i, b] = -1.0
            C[i, pred_col] += pred_gain
        return A, B, C

    def true_value(self, z: int, pi_params: np.ndarray) -> float:
        return h2_cost(pi_params, self, z)

    def evaluate(self, z: int, pi_params: np.ndarray, rng: np.random.Generator) -> float:
        return self.true_value(z, pi_params) + self.noise_sd * rng.standard_normal()

    def default_safe_seed(self) -> np.ndarray:
        n = self.n_subsystems
        return np.concatenate([np.full(n, 2.0), np.full(n, 1.0)])


def h2_cost(pi_params: np.ndarray, problem: LaserChainProblem, z: int = 1) -> float:
    """Root-mean-square cost sqrt(trace(C P C')) of the closed loop.

    Unstable configurations return the finite penalty 10 * threshold, which
    always violates the safety constraint while keeping the surrogate model
    numerically sane.
    """
    if not 1 <= z <= problem.n_tasks:
        raise ValueError(f"task must lie in 1..{problem.n_tasks}")
    A, B, C = problem.closed_loop(pi_params, z)
    # stricter than lyapunov_solve's own check, so the solve can skip it
    if np.max(np.linalg.eigvals(A).real) >= -1e-9:
        return INSTABILITY_PENALTY_FACTOR * problem.threshold
    P = _lyapunov_solution(A, B @ B.T)
    value = problem.output_scale * float(np.sqrt(max(np.trace(C @ P @ C.T), 0.0)))
    return min(value, INSTABILITY_PENALTY_FACTOR * problem.threshold)


def laser_problem(n_subsystems: int = 5, disturbance_factor: float = 0.3,
                  n_tasks: int = 2, threshold: float = LASER_THRESHOLD,
                  noise_multiplier: float = 0.01,
                  disturbance_seed: int = 0) -> LaserChainProblem:
    omega = 2.0 + 0.25 * np.arange(n_subsystems)
    filter_poles = np.concatenate([[0.2], 0.3 + 0.05 * np.arange(n_subsystems)])
    n = n_subsystems
    box = np.vstack([
        np.tile([0.05, 6.0], (n, 1)),   # proportional gains
        np.tile([0.05, 8.0], (n, 1)),   # integral gains
    ])
    problem = LaserChainProblem(
        n_subsystems=n, omega=omega, zeta=0.7, filter_poles=filter_poles,
        filter_gain=1.0, output_scale=OUTPUT_SCALE_LASER, threshold=threshold,
        box=box, disturbance_factor=disturbance_factor, n_tasks=n_tasks,
        filter_signs=_signs(disturbance_seed, n_tasks, n + 1),
        noise_sd=noise_multiplier * threshold, disturbance_seed=disturbance_seed,
    )
    seed_cost = h2_cost(problem.default_safe_seed(), problem, 1)
    if not seed_cost <= threshold:
        raise StabilityError(f"default seed cost {seed_cost:.2f} exceeds threshold")
    return problem


# Calibrated so the default stabilizing gains land well below the threshold
# while a sizable part of the gain box is unstable or above it.
OUTPUT_SCALE_LASER = 10.0


def find_safe_seed(problem, rng: np.random.Generator, max_draws: int = 10_000) -> np.ndarray:
    """Rejection-sample an input whose noise-free main-task value is below threshold."""
    domain = problem.domain
    for _ in range(max_draws):
        x = domain[:, 0] + rng.random(domain.shape[0]) * (domain[:, 1] - domain[:, 0])
        if problem.true_value(1, x) <= problem.threshold:
            return x
    raise RuntimeError("no safe seed found within the draw budget")
