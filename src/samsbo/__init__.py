"""Safe multi-task Bayesian optimization with robust uniform error bounds."""

__version__ = "0.1.0"

from .kernels import CorrelationMatrix, KernelParams, gram
from .gp import MultiTaskDataset, Posterior, fit, log_marginal_likelihood
from .hyperposterior import (
    ConfidenceSet,
    EmpiricalHyperPosterior,
    confidence_set,
    sample_hyperposterior,
)
from .bounds import (
    ScalingBundle,
    beta_bayes,
    beta_freq,
    covering_number,
    nu_factor,
    scaling_bundle,
    select_sigma_prime,
)
from .safeopt import (
    CandidateGrid,
    SafeSet,
    TraceRecord,
    Transforms,
    acquire_main,
    acquire_supplementary,
    fit_transforms,
    make_grid,
    run_repetition,
    safe_set,
    step,
)
from .benchmarks import (
    LaserChainProblem,
    SyntheticProblem,
    branin,
    branin_problem,
    h2_cost,
    laser_problem,
    lyapunov_solve,
    powell,
    powell_problem,
)
from .verify import CoverageReport, bayesian_coverage, frequentist_coverage
from .config import (
    ConfigError,
    ExperimentConfig,
    LoopConfig,
    parse_config,
    serialize_config,
)
