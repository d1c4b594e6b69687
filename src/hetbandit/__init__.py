"""Variance-aware pure-exploration linear bandits.

Estimate structured heteroskedastic noise with adaptive designs, then use
the estimates to drive near-optimal best-arm and level-set identification.
"""

from .core import (
    DegenerateGap,
    Design,
    DimensionMismatch,
    HetBanditError,
    HeteroInstance,
    InsufficientBudget,
    RankDeficientLift,
    SpanViolation,
    VarianceEstimate,
    lift_arms,
    unvech,
    vech,
)
from .design import DesignProblem, RoundSchedule, round_design, solve_design
from .env import Environment
from .ident import (
    ComplexityReport,
    IdentTask,
    RunConfig,
    RunTrace,
    hrage_run,
    oracle_run,
    psi_star,
    rage_run,
)
from .presets import ConfigError, ExperimentConfig, PresetBundle, VarEstTask, build_preset
from .runner import emit_design_table, run_suite
from .varest import (
    DEFAULT_C_PRIME,
    head_budget_for_half,
    head_estimate,
    mae,
    separate_arm_estimate,
    uniform_estimate,
)

__all__ = [
    "ComplexityReport",
    "ConfigError",
    "DEFAULT_C_PRIME",
    "DegenerateGap",
    "Design",
    "DesignProblem",
    "DimensionMismatch",
    "Environment",
    "ExperimentConfig",
    "HetBanditError",
    "HeteroInstance",
    "IdentTask",
    "InsufficientBudget",
    "PresetBundle",
    "RankDeficientLift",
    "RoundSchedule",
    "RunConfig",
    "RunTrace",
    "SpanViolation",
    "VarEstTask",
    "VarianceEstimate",
    "build_preset",
    "emit_design_table",
    "head_budget_for_half",
    "head_estimate",
    "hrage_run",
    "lift_arms",
    "mae",
    "oracle_run",
    "psi_star",
    "rage_run",
    "round_design",
    "run_suite",
    "separate_arm_estimate",
    "solve_design",
    "uniform_estimate",
    "unvech",
    "vech",
]

__version__ = "0.1.0"
