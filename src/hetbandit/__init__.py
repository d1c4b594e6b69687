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
    LiftedArm,
    RankDeficientLift,
    SingularInformation,
    SpanViolation,
    VarianceEstimate,
    lift_arms,
    lift_phi,
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
    gap_delta,
    hrage_run,
    oracle_run,
    psi_star,
    rage_run,
    wls_estimate,
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
    "LiftedArm",
    "PresetBundle",
    "RankDeficientLift",
    "RoundSchedule",
    "RunConfig",
    "RunTrace",
    "SingularInformation",
    "SpanViolation",
    "VarEstTask",
    "VarianceEstimate",
    "build_preset",
    "emit_design_table",
    "gap_delta",
    "head_budget_for_half",
    "head_estimate",
    "hrage_run",
    "lift_arms",
    "lift_phi",
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
    "wls_estimate",
]

__version__ = "0.1.0"
