"""Bayesian optimization with dynamic acquisition-function schedules.

A small engine (GP surrogate, EI/PI acquisition, schedule portfolio,
acquisition maximizer) plus seeded benchmark landscapes and an experiment
harness that emits normalized log-regret statistics.
"""

from .acquisition import AcquisitionKind, scores
from .afopt import initial_design, maximize_af
from .benchfn import FUNCTION_IDS, BenchInstance, from_unit, make_instance, to_unit
from .gp import GpFitError, GpModel, KernelParams, fit, predict_batch
from .runner import (
    AggregateReport,
    CellFailure,
    ExperimentConfig,
    TrialTrajectory,
    aggregate,
    log_regret,
    run_grid,
    run_trial,
)
from .schedule import SCHEDULE_NAMES, kind_at

__version__ = "0.1.0"
