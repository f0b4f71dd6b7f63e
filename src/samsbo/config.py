"""Settings: the loop's knobs, the campaign around them, and their key-value file format."""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .kernels import KernelParams

__all__ = [
    "ALGORITHMS",
    "ConfigError",
    "LoopConfig",
    "ExperimentConfig",
    "parse_config",
    "parse_config_text",
    "read_input",
    "serialize_config",
]

ALGORITHMS = ("samsbo", "safe-ucb", "ucb", "multi-task-ucb")
FIXED_DIMENSIONS = {"branin": 2, "laser": 10}     # powell takes any positive multiple of 4

TAU = 0.001
LENGTHSCALE = 0.2
SIGNAL_VARIANCE = 1.0
NOISE_VARIANCE = 0.01               # nu needs it positive


class ConfigError(ValueError):
    """Unusable setting, named by its key (and its line when read from a file)."""


@dataclass(frozen=True)
class LoopConfig:
    """Everything one optimization run needs besides the problem itself."""

    algorithm: str = "samsbo"
    iterations: int = 40
    delta: float = 0.05
    rho: float = 0.15
    eta: float = 0.1
    grid_size: int = 2048
    seed_points: int = 3

    def __post_init__(self):
        self._check_algorithms()
        for name in ("delta", "rho"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ConfigError(f"{name} must lie in (0, 1), got {value}")
        if not 0.0 < self.eta < np.inf:
            raise ConfigError(f"eta must be positive and finite, got {self.eta}")
        if self.iterations < 0:
            raise ConfigError(f"iterations must be >= 0, got {self.iterations}")
        for name in ("grid_size", "seed_points"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")

    def _check_algorithms(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")

    def batch_size(self, dimension: int) -> int:
        """Supplementary evaluations per iteration: 2 * dimension, the standard protocol."""
        return 2 * dimension


@dataclass(frozen=True)
class ExperimentConfig(LoopConfig):
    """One benchmark campaign: the loop settings plus problem, repetitions and outputs.

    ``algorithm`` may list several loops separated by commas; each runs on a
    copy naming that loop alone, ``dataclasses.replace(config, algorithm=name)``,
    since the loop refuses a list.  Defaults follow the standard protocol: 40
    iterations, 15 repetitions, delta 0.05, rho 0.15, eta 0.1, one
    supplementary task evaluated 2 * dimension times per iteration,
    disturbance factor 0.3.

    ``threshold`` and ``dimension`` are sentinels: 0 keeps the problem's own
    default, so a threshold of exactly 0 cannot be set, and a negative
    threshold is refused because every objective is nonnegative.  The
    manifest of ``samsbo run`` records the threshold and dimension in use.

    The protocol's other values are constants, not keys: ``TAU`` (0.001), the
    resolution of the cube's cover whose size |I| enters beta_b;
    ``LENGTHSCALE`` (0.2 per input), ``SIGNAL_VARIANCE`` (1.0) and
    ``NOISE_VARIANCE`` (0.01), the fixed kernel of the standardized GP
    (:func:`kernel_params`); ``benchmarks.NOISE_MULTIPLIER`` (0.01), the noise
    standard deviation as a share of each problem's output scale.
    """

    problem: str = "branin"
    dimension: int = 0                  # 0 keeps the problem's default; only powell has a choice
    threshold: float = 0.0              # 0 keeps the problem's default
    n_tasks: int = 2
    disturbance: float = 0.3
    repetitions: int = 15
    seed: int = 0
    frequentist_trials: int = 500
    bayesian_trials: int = 200
    jobs: int = 1
    out: str = "results"

    def __post_init__(self):
        super().__post_init__()
        if self.problem not in ("branin", "powell", "laser"):
            raise ConfigError(f"unknown problem {self.problem!r}")
        for name in ("threshold", "disturbance"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.threshold < 0.0:
            raise ConfigError(f"threshold must be >= 0, got {self.threshold}")
        if self.n_tasks < 1:
            raise ConfigError(f"n_tasks must be >= 1, got {self.n_tasks}")
        if self.dimension != 0:
            own = FIXED_DIMENSIONS.get(self.problem)
            if own is None and (self.dimension < 0 or self.dimension % 4):
                raise ConfigError(
                    f"dimension must be 0 or a positive multiple of 4 for powell, got {self.dimension}")
            if own is not None and self.dimension != own:
                raise ConfigError(
                    f"dimension must be 0 or {own} for {self.problem}, got {self.dimension}")
        for name in ("repetitions", "jobs"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        for name in ("seed", "frequentist_trials", "bayesian_trials"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigError(f"{name} must be >= 0, got {value}")

    def _check_algorithms(self) -> None:
        names = self.algorithms()
        if not names or len(set(names)) < len(names):
            raise ConfigError(f"algorithm must name each loop once, got {self.algorithm!r}")
        for name in names:
            if name not in ALGORITHMS:
                raise ConfigError(f"unknown algorithm {name!r}")

    def algorithms(self) -> list[str]:
        return [a.strip() for a in self.algorithm.split(",") if a.strip()]


def kernel_params(dimension: int) -> KernelParams:
    """The fixed kernel of the standardized GP on ``dimension`` inputs."""
    return KernelParams(SIGNAL_VARIANCE, np.full(dimension, LENGTHSCALE), NOISE_VARIANCE)


def _coerce(name: str, kind: type, raw: str, line_no: int):
    raw = raw.strip()
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(f"line {line_no}: cannot parse {name} value {raw!r} as {kind.__name__}")


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse ``key = value`` lines; '#' starts a comment, blank lines are ignored."""
    defaults = ExperimentConfig()
    kinds = {f.name: type(getattr(defaults, f.name)) for f in fields(ExperimentConfig)}
    values = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in kinds:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        values[key] = _coerce(key, kinds[key], raw, line_no)
    return ExperimentConfig(**values)


def read_input(path: str) -> str:
    """Text of an input file; a path that cannot be read is a ConfigError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from exc


def parse_config(path: str) -> ExperimentConfig:
    return parse_config_text(read_input(path))


def serialize_config(config: ExperimentConfig) -> str:
    """Key-value text that parses back to an equal configuration."""
    lines = []
    for f in fields(ExperimentConfig):
        lines.append(f"{f.name} = {getattr(config, f.name)}")
    return "\n".join(lines) + "\n"
