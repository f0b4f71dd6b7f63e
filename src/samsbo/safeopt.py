"""Safe multi-task Bayesian optimization loops.

One iteration evaluates a batch of supplementary-task inputs chosen by greedy
fantasized-variance maximization, refits the normalization, refreshes the
model with :func:`samsbo.bounds.robust_model` (the refresh the Bayesian
coverage suite checks) and the safe set, and finally evaluates the main task
at the safe candidate with the lowest optimistic value.  The state keeps the
refresh as one :class:`~samsbo.bounds.RobustModel`.  The single-task variant
skips everything involving supplementary tasks, which reduces the loop to the
safe upper confidence bound baseline; non-safe variants take the safe set at
an infinite threshold, which holds the whole candidate grid.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import benchmarks, bounds, gp
from .config import ALGORITHMS, TAU, ConfigError, LoopConfig, kernel_params
from .kernels import se_kernel_matrix  # noqa: F401  (perfbench/layertrace.py wraps this binding)
from .sobol import scrambled_sobol

__all__ = [
    "Transforms",
    "CandidateGrid",
    "SafeSet",
    "TraceRecord",
    "OptimizationState",
    "NoSafeActionError",
    "fit_transforms",
    "make_grid",
    "safe_set",
    "acquire_main",
    "acquire_supplementary",
    "initialize_state",
    "step",
    "run_repetition",
]

STD_FLOOR = 1e-8
SUPPLEMENTARY_PER_INPUT = 2     # supplementary evaluations per iteration and input: 2 * d
GRID_SIZE = 2048                # Sobol points of the candidate grid, before the seeds
GRID_SEED = 0                   # scrambling seed of the candidate grid's Sobol points


class NoSafeActionError(RuntimeError):
    """Raised when the safe set is empty at acquisition time."""


def _is_multitask(algorithm: str) -> bool:
    return algorithm in ("samsbo", "multi-task-ucb")


def _is_safe(algorithm: str) -> bool:
    return algorithm in ("samsbo", "safe-ucb")


@dataclass(frozen=True)
class Transforms:
    """Affine input normalization to the unit cube and output standardization."""

    lower: np.ndarray
    upper: np.ndarray
    y_mean: float
    y_std: float

    def normalize(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=float) - self.lower) / (self.upper - self.lower)

    def denormalize(self, X: np.ndarray) -> np.ndarray:
        return self.lower + np.asarray(X, dtype=float) * (self.upper - self.lower)

    def standardize(self, y: np.ndarray) -> np.ndarray:
        return (np.asarray(y, dtype=float) - self.y_mean) / self.y_std

    def threshold_std(self, threshold: float) -> float:
        return (threshold - self.y_mean) / self.y_std


THRESHOLD_SIGMA_CAP = 3.0


def fit_transforms(dataset: gp.MultiTaskDataset, domain_box: np.ndarray,
                   threshold: float | None = None) -> Transforms:
    """Transforms mapping the domain box to the unit cube and pooled outputs to z-scores.

    Observations gathered safely are biased low, so their standard deviation can
    wildly understate the objective's scale; a threshold that then standardizes
    to many sigmas above the data would make the whole domain look provably
    safe.  When a threshold is given, the output scale is floored so the
    standardized threshold never exceeds THRESHOLD_SIGMA_CAP, which keeps
    unexplored regions (prior band sqrt(beta) >= 4.3 sigma for every default
    discretization) outside the safe set until data vouches for them.
    """
    if dataset.n == 0:
        raise ValueError("transforms require a nonempty dataset")
    box = np.asarray(domain_box, dtype=float)
    mean = float(np.mean(dataset.observations))
    std = max(float(np.std(dataset.observations)), STD_FLOOR)
    if threshold is not None and threshold > mean:
        std = max(std, (threshold - mean) / THRESHOLD_SIGMA_CAP)
    return Transforms(lower=box[:, 0], upper=box[:, 1], y_mean=mean, y_std=std)


def _unique_rows(points: np.ndarray) -> np.ndarray:
    """The distinct rows of ``points`` in lexicographic order, as ``np.unique(points, axis=0)``
    gives them, without the ``numpy.ma`` import that numpy's ``unique`` makes."""
    ordered = points[np.lexsort(points.T[::-1])]
    return ordered[np.concatenate([[True], np.any(ordered[1:] != ordered[:-1], axis=1)])]


@dataclass(frozen=True)
class CandidateGrid:
    """Finite acquisition grid in the normalized unit cube.

    A point outside the cube, NaN included, raises ``ValueError``.
    """

    points: np.ndarray

    def __post_init__(self):
        # an owned read-only copy: posteriors cache their whitened grids by identity
        pts = np.array(self.points, dtype=float, ndmin=2)
        if not np.isfinite(pts).all() or np.min(pts) < 0.0 or np.max(pts) > 1.0:
            raise ValueError("grid points must lie in the unit cube")
        if _unique_rows(pts).shape[0] != pts.shape[0]:
            raise ValueError("grid points must be pairwise distinct")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]


def make_grid(dimension: int, size: int,
              extra_points: np.ndarray | None = None) -> CandidateGrid:
    """Lattice grid in one dimension, scrambled Sobol points otherwise.

    The Sobol points are :func:`samsbo.sobol.scrambled_sobol` of ``GRID_SEED``,
    bit-identical to ``qmc.Sobol(dimension, scramble=True, seed=GRID_SEED)``.
    ``extra_points`` (normalized) are appended and deduplicated; the loop adds
    the known-safe seed inputs this way so the safe set can never start empty
    merely because no candidate lies near a seed; clipping keeps a NaN, which
    the grid refuses.  Raises ``ValueError`` when ``dimension`` or ``size`` is
    below 1.
    """
    if dimension < 1:
        raise ValueError(f"dimension must be at least 1, got {dimension}")
    if size < 1:
        raise ValueError(f"size must be at least 1, got {size}")
    if dimension == 1:
        points = np.linspace(0.0, 1.0, size).reshape(-1, 1)
    else:
        points = scrambled_sobol(dimension, size, GRID_SEED)
    if extra_points is not None and len(extra_points):
        extra = np.clip(np.atleast_2d(np.asarray(extra_points, dtype=float)), 0.0, 1.0)
        points = _unique_rows(np.vstack([points, extra]))
    return CandidateGrid(points=points)


@dataclass(frozen=True)
class SafeSet:
    """Mask of grid candidates whose upper bound stays below threshold.

    ``lower`` holds every candidate's optimistic value mean - sqrt(beta_bar) std.
    """

    grid: CandidateGrid
    mask: np.ndarray
    lower: np.ndarray

    def size(self) -> int:
        return int(np.sum(self.mask))


def safe_set(model: bounds.RobustModel, threshold_std: float, grid: CandidateGrid) -> SafeSet:
    """Candidates with mean + sqrt(beta_bar) std below the standardized threshold.

    The model's one main-task prediction gives both bounds; an infinite threshold keeps all.
    """
    means, variances = model.posterior.predict_batch(grid.points, 1)
    band = np.sqrt(model.bundle.beta_bar) * np.sqrt(variances)
    return SafeSet(grid=grid, mask=means + band <= threshold_std, lower=means - band)


@dataclass(frozen=True)
class TraceRecord:
    """One row per evaluation of the objective."""

    repetition: int
    iteration: int
    task: int
    x: np.ndarray               # raw input units
    observed: float
    best_so_far: float
    beta_bar: float
    confidence_set_size: int
    gamma: float
    nu: float
    safe_set_size: int
    violation: bool


@dataclass
class OptimizationState:
    """Mutable per-repetition state of the optimization loop."""

    dataset: gp.MultiTaskDataset        # raw units
    transforms: Transforms
    model: bounds.RobustModel           # the last refresh, of standardized data
    grid: CandidateGrid
    iteration: int = 0
    best_so_far: float = np.inf         # lowest main-task observation
    violation_count: int = 0
    stalled_iterations: int = 0


def _standardized_dataset(state_dataset: gp.MultiTaskDataset, transforms: Transforms) -> gp.MultiTaskDataset:
    return gp.MultiTaskDataset(
        transforms.normalize(state_dataset.inputs),
        state_dataset.tasks,
        transforms.standardize(state_dataset.observations),
    )


def _refresh_model(state: OptimizationState, problem, cfg: LoopConfig,
                   rng: np.random.Generator) -> None:
    """Refit the transforms, then the model; non-multi-task loops model one task."""
    n_tasks = problem.n_tasks if _is_multitask(cfg.algorithm) else 1
    threshold = problem.threshold if _is_safe(cfg.algorithm) else None
    state.transforms = fit_transforms(state.dataset, problem.domain, threshold)
    # two tasks ignore the seed; drawing it for every task count keeps one RNG stream
    seed = int(rng.integers(2 ** 63)) if n_tasks > 1 else 0
    state.model = bounds.robust_model(
        _standardized_dataset(state.dataset, state.transforms), n_tasks, cfg.eta, cfg.rho,
        bounds.covering_number(TAU, problem.dimension),
        kernel_params(problem.dimension), cfg.delta, seed=seed,
        previous=state.model,
    )


def acquire_main(current_safe_set: SafeSet) -> np.ndarray:
    """Safe candidate minimizing the optimistic value ``current_safe_set.lower``.

    Ties break toward the lowest candidate index.  Raises when nothing is safe.
    """
    if current_safe_set.size() == 0:
        raise NoSafeActionError("safe set is empty")
    masked = np.where(current_safe_set.mask, current_safe_set.lower, np.inf)
    return current_safe_set.grid.points[int(np.argmin(masked))]


def acquire_supplementary(state: OptimizationState,
                          batch_size: int) -> list[tuple[np.ndarray, int]]:
    """Greedy batch maximizing supplementary-task variance with fantasized updates.

    Each pick conditions the posterior on a zero-valued fantasy observation at
    the chosen point (variance does not depend on the observed value), so later
    picks spread out.  Supplementary tasks are cycled when there are several.
    Every point of ``state.grid`` is admissible, since :func:`step` evaluates
    the picks without a safety check; so a one-task model (Sigma of size 1),
    which would leave only main-task picks, is refused.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    n_tasks = state.model.posterior.sigma_used.size
    if n_tasks < 2:
        raise ValueError(f"supplementary picks need a model of 2 or more tasks, got {n_tasks}")
    tasks = [2 + j % (n_tasks - 1) for j in range(batch_size)]
    picks = _greedy_variance_picks(state.model.posterior, state.grid.points, tasks)
    return [(state.grid.points[idx], task) for (idx, _), task in zip(picks, tasks)]


def _greedy_variance_picks(posterior: gp.Posterior, points: np.ndarray,
                           tasks: list[int]) -> list[tuple[int, np.ndarray]]:
    """Index of each greedy pick and the clamped variances it maximized.

    Conditioning on a pick is the rank-1 variance downdate of GP-BUCB
    (Desautels et al. 2014): with c_j(x) the covariance of x with pick j given
    the earlier picks, var(x) -= c_j(x)^2 / (var(x_j) + noise + jitter), the
    Schur complement a refit on the extended data would factor.  The
    variances come from ``predict_batch`` and each c_j from the posterior's
    ``pick_covariance``, which both posterior types serve from their grid
    caches.
    """
    params = posterior.params
    used = sorted(set(tasks))
    variances = {z: posterior.predict_batch(points, z)[1] for z in used}
    shift = params.noise_variance + posterior.jitter * params.signal_variance
    downdates: dict[int, list[np.ndarray]] = {z: [] for z in used}   # c_i(., z) per pick
    schurs: list[float] = []
    picks: list[tuple[int, np.ndarray]] = []
    for j, task in enumerate(tasks):
        clamped = gp.clamp_variances(variances[task])
        idx = int(np.argmax(clamped))
        picks.append((idx, clamped))
        if j + 1 == len(tasks):
            break
        schur = float(variances[task][idx]) + shift
        at_pick = [c[idx] for c in downdates[task]]
        for z in used:
            c = posterior.pick_covariance(points, z, task, idx)
            for c_i, a_i, s_i in zip(downdates[z], at_pick, schurs):
                c -= c_i * (a_i / s_i)
            downdates[z].append(c)
            variances[z] = variances[z] - c * c / schur
        schurs.append(schur)
    return picks


def _record(state: OptimizationState, repetition: int, task: int, x_raw: np.ndarray,
            observed: float, violation: bool, safe_size: int) -> TraceRecord:
    model = state.model
    return TraceRecord(
        repetition=repetition, iteration=state.iteration, task=task,
        x=np.array(x_raw), observed=float(observed), best_so_far=state.best_so_far,
        beta_bar=model.bundle.beta_bar, confidence_set_size=len(model.confidence_set),
        gamma=model.bundle.gamma, nu=model.bundle.nu,
        safe_set_size=safe_size, violation=violation,
    )


def _record_main(state: OptimizationState, problem, repetition: int, x_raw: np.ndarray,
                 observed: float, safe_size: int) -> TraceRecord:
    """Trace row of a main-task evaluation, counting a violation and updating the incumbent."""
    violation = problem.true_value(1, x_raw) > problem.threshold
    state.violation_count += int(violation)
    state.best_so_far = min(state.best_so_far, float(observed))
    return _record(state, repetition, 1, x_raw, observed, violation, safe_size)


def initialize_state(problem, cfg: LoopConfig, rng: np.random.Generator,
                     seed_inputs: np.ndarray, repetition: int = 0) -> tuple[OptimizationState, list[TraceRecord]]:
    """Evaluate the safe seed inputs on the main task and build the initial model."""
    if cfg.algorithm not in ALGORITHMS:
        raise ConfigError(f"the loop runs one algorithm at a time, got {cfg.algorithm!r}")
    seed_inputs = np.atleast_2d(np.asarray(seed_inputs, dtype=float))
    observations = [problem.evaluate(1, x, rng) for x in seed_inputs]
    dataset = gp.MultiTaskDataset(
        seed_inputs, np.ones(len(observations), dtype=int), observations
    )
    # normalizing reads only the box, and make_grid draws from no RNG
    grid = make_grid(problem.dimension, GRID_SIZE,
                     extra_points=fit_transforms(dataset, problem.domain).normalize(seed_inputs))
    state = OptimizationState(dataset=dataset, transforms=None, model=None, grid=grid)
    _refresh_model(state, problem, cfg, rng)
    trace = [_record_main(state, problem, repetition, x, y, -1)
             for x, y in zip(seed_inputs, observations)]
    return state, trace


def step(state: OptimizationState, problem, cfg: LoopConfig,
         rng: np.random.Generator, repetition: int = 0) -> list[TraceRecord]:
    """Advance the loop by one iteration and return the new trace rows."""
    state.iteration += 1
    trace: list[TraceRecord] = []
    multitask = _is_multitask(cfg.algorithm) and problem.n_tasks > 1

    if multitask:
        picks = acquire_supplementary(state, SUPPLEMENTARY_PER_INPUT * problem.dimension)
        new_x, new_z, new_y = [], [], []
        for x_norm, task in picks:
            x_raw = state.transforms.denormalize(x_norm)
            y_raw = problem.evaluate(task, x_raw, rng)
            new_x.append(x_raw)
            new_z.append(task)
            new_y.append(y_raw)
        state.dataset = state.dataset.extended(new_x, new_z, new_y)

    # without new rows the model stays: a single-task refresh of the same data
    # reproduces it and draws nothing from the RNG (a multi-task step always adds rows)
    if state.dataset.n != state.model.posterior.dataset.n:
        _refresh_model(state, problem, cfg, rng)

    if multitask:
        for x_raw, task, y_raw in zip(new_x, new_z, new_y):
            trace.append(_record(state, repetition, task, x_raw, y_raw, False, -1))

    threshold_std = (state.transforms.threshold_std(problem.threshold)
                     if _is_safe(cfg.algorithm) else np.inf)
    current = safe_set(state.model, threshold_std, state.grid)

    try:
        x_norm = acquire_main(current)
    except NoSafeActionError:
        state.stalled_iterations += 1
        return trace

    x_raw = state.transforms.denormalize(x_norm)
    y_raw = problem.evaluate(1, x_raw, rng)
    state.dataset = state.dataset.extended([x_raw], [1], [y_raw])
    trace.append(_record_main(state, problem, repetition, x_raw, y_raw, current.size()))
    return trace


def run_repetition(problem, cfg: LoopConfig, seed: int, repetition: int = 0) -> list[TraceRecord]:
    """One full optimization run: seed evaluations plus ``cfg.iterations`` steps."""
    rng = np.random.default_rng(seed)
    seed_inputs = np.array([benchmarks.find_safe_seed(problem, rng)
                            for _ in range(cfg.seed_points)])
    state, trace = initialize_state(problem, cfg, rng, seed_inputs, repetition)
    for _ in range(cfg.iterations):
        trace.extend(step(state, problem, cfg, rng, repetition))
    return trace

