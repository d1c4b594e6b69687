"""Experiment presets: canned instances, tasks, and their default parameters.

Each preset builds a ground-truth instance plus either an identification
task or a variance-estimation comparison task. The sphere-sampling preset
redraws its arm set per replication seed; the others are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .core import HetBanditError, HeteroInstance
from .ident import IdentTask


class ConfigError(HetBanditError):
    """Bad preset name, parameter, or configuration file."""


@dataclass(frozen=True)
class VarEstTask:
    """Variance-estimation comparison on a budget ladder."""

    budgets: tuple[int, ...]


@dataclass(frozen=True)
class PresetBundle:
    name: str
    instance: HeteroInstance
    task: IdentTask | VarEstTask
    params: dict[str, Any]
    # Per-arm variances for design/complexity computations when they differ
    # from the quadratic-form model values (None means use the model).
    variances: np.ndarray | None = None


@dataclass
class ExperimentConfig:
    preset: str
    replications: int = 32
    base_seed: int = 0
    delta: float = 0.05
    overrides: dict[str, Any] = field(default_factory=dict)
    output_path: str | None = None
    jobs: int = 1
    algorithms: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.replications < 1:
            raise ConfigError("replications must be at least 1")
        if not 0 < self.delta < 1:
            raise ConfigError("delta must lie in (0, 1)")
        if self.jobs < 1:
            raise ConfigError("jobs must be at least 1")
        if self.base_seed < 0:
            raise ConfigError("base_seed must be nonnegative")
        self.preset = canonical_preset(self.preset)


_PRESET_ALIASES = {
    "intro": "intro",
    "introkappa": "intro",
    "example1": "example1",
    "example2": "example2",
    "multivariate": "multivariate",
    "multivariatetest": "multivariate",
    "varest": "varest",
    "varestcompare": "varest",
    "custom": "custom",
}

PRESET_DEFAULTS: dict[str, dict[str, Any]] = {
    "intro": {"kappa": 20.0},
    "example1": {"d": 4, "omega": 0.02, "q": 0.4},
    "example2": {"d": 3, "omega": 0.02, "alpha_sq": 1.0, "beta_sq": 0.2},
    "multivariate": {},
    "varest": {"d": 6, "n_sphere": 200, "n_small": 300,
               "budgets": (10_000, 20_000, 40_000, 80_000)},
    "custom": {"instance_file": None, "objective": "bai", "alpha": 0.0},
}


def canonical_preset(name: str) -> str:
    """Preset name for ``name``, ignoring case, ``-`` and ``_``."""
    key = _PRESET_ALIASES.get(name.strip().lower().replace("-", "").replace("_", ""))
    if key is None:
        raise ConfigError(f"unknown preset {name!r}")
    return key


def _basis(d: int, i: int) -> np.ndarray:
    e = np.zeros(d)
    e[i] = 1.0
    return e


def _build_intro(params, delta) -> PresetBundle:
    kappa = float(params["kappa"])
    if kappa < 1:
        raise ConfigError("kappa must be at least 1")
    arms = np.array([[1.0, 0.0], [0.0, 1.0], [math.cos(0.5), math.sin(0.5)]])
    sigma = np.diag([1.0, kappa])
    instance = HeteroInstance(arms, arms, np.array([1.0, 0.0]), sigma, 1.0, kappa)
    task = IdentTask(objective="bai", delta=delta, instance=instance)
    # The motivating allocation story treats the bent arm as quiet even when
    # the axis arm is loud; the quadratic-form model cannot decouple them, so
    # design and complexity computations use these per-arm values directly.
    variances = np.array([1.0, kappa, 1.0])
    return PresetBundle("intro", instance, task, params, variances=variances)


def _build_example1(params, delta) -> PresetBundle:
    d = int(params["d"])
    omega = float(params["omega"])
    q = float(params["q"])
    if d < 4:
        raise ConfigError("example1 needs d >= 4")
    if not 0 < omega < math.pi / 4:
        raise ConfigError("omega must lie in (0, pi/4)")
    if not 0 < q < 1:
        raise ConfigError("q must lie in (0, 1)")
    vectors = [_basis(d, 0), _basis(d, 1)]
    vectors += [q * _basis(d, i) for i in range(2, d)]
    vectors += [math.cos(omega) * _basis(d, 0) + math.sin(omega) * _basis(d, i) for i in range(1, d)]
    vectors += [
        0.5 * (_basis(d, 0) + _basis(d, 1)) + 0.1 * _basis(d, 2),
        0.5 * (_basis(d, 0) + _basis(d, 1)) + 0.1 * (_basis(d, 2) + _basis(d, 3)),
    ]
    arms = np.array(vectors)
    instance = HeteroInstance.from_truth(arms, arms, _basis(d, 0), np.eye(d))
    task = IdentTask(objective="bai", delta=delta, instance=instance)
    return PresetBundle("example1", instance, task, params)


def _build_example2(params, delta) -> PresetBundle:
    d = int(params["d"])
    omega = float(params["omega"])
    alpha_sq = float(params["alpha_sq"])
    beta_sq = float(params["beta_sq"])
    if d < 3:
        raise ConfigError("example2 needs d >= 3")
    if alpha_sq <= 0 or beta_sq <= 0:
        raise ConfigError("alpha_sq and beta_sq must be positive")
    vectors = [_basis(d, 0), math.cos(omega) * _basis(d, 0) + math.sin(omega) * _basis(d, 1)]
    vectors += [_basis(d, i) for i in range(2, d)]
    vectors += [
        (_basis(d, i) + _basis(d, j)) / math.sqrt(2.0)
        for i in range(d)
        for j in range(i + 1, d)
    ]
    arms = np.array(vectors)
    diag = np.full(d, alpha_sq)
    diag[1:3] = beta_sq
    instance = HeteroInstance.from_truth(arms, arms, _basis(d, 0), np.diag(diag))
    task = IdentTask(objective="bai", delta=delta, instance=instance)
    return PresetBundle("example2", instance, task, params)


def _build_multivariate(params, delta) -> PresetBundle:
    # Three content dimensions, two variations each: feature layout is
    # [bias, pick_1, pick_2, pick_3, pick_1*pick_2, pick_1*pick_3, pick_2*pick_3].
    d = 7
    layouts = []
    for bits in range(8):
        x = [(bits >> k) & 1 for k in range(3)]
        layouts.append([1, x[0], x[1], x[2], x[0] * x[1], x[0] * x[2], x[1] * x[2]])
    arms = np.array(layouts, dtype=np.float64)
    theta = np.array([0.0, 0.01, 0.015, 0.02, -0.1, -0.1, -0.1])
    sigma = np.diag([0.3, 0.7] + [1e-3] * (d - 2))
    instance = HeteroInstance.from_truth(arms, arms, theta, sigma)
    task = IdentTask(objective="bai", delta=delta, instance=instance)
    return PresetBundle("multivariate", instance, task, params)


def _sample_sphere(rng: np.random.Generator, n: int, d: int, radius: float) -> np.ndarray:
    pts = rng.standard_normal((n, d))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return radius * pts


def build_varest_instance(params, seed: int) -> HeteroInstance:
    d = int(params["d"])
    n_sphere = int(params["n_sphere"])
    n_small = int(params["n_small"])
    if d < 2:
        raise ConfigError("varest needs d >= 2")
    if n_sphere + n_small < d * (d + 1) // 2:
        raise ConfigError("varest needs at least d(d+1)/2 arms")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    arms = np.vstack(
        [_sample_sphere(rng, n_sphere, d, 1.0), _sample_sphere(rng, n_small, d, 0.1)]
    )
    pattern = np.where(np.arange(d) % 2 == 0, 1.0, 0.1)
    sigma = np.diag(pattern)
    return HeteroInstance.from_truth(arms, arms, np.ones(d), sigma)


def _build_varest(params, delta, seed: int) -> PresetBundle:
    budgets = tuple(int(b) for b in params["budgets"])
    if any(b < 2 for b in budgets):
        raise ConfigError("budgets must be at least 2")
    instance = build_varest_instance(params, seed)
    return PresetBundle("varest", instance, VarEstTask(budgets=budgets), params)


def _build_custom(params, delta) -> PresetBundle:
    path = params.get("instance_file")
    if not path:
        raise ConfigError("custom preset needs instance_file=<path to .npz>")
    try:
        data = np.load(path)
        arms = data["arms"]
        targets = data["targets"] if "targets" in data else arms
        theta = data["theta_star"]
        sigma = data["sigma_star"]
    except Exception as exc:
        raise ConfigError(f"could not load custom instance from {path}: {exc}") from exc
    instance = HeteroInstance.from_truth(arms, targets, theta, sigma)
    objective = str(params.get("objective", "bai"))
    task = IdentTask(
        objective=objective,
        delta=delta,
        instance=instance,
        alpha=float(params.get("alpha", 0.0)),
    )
    return PresetBundle("custom", instance, task, params)


def build_preset(config: ExperimentConfig, seed: int | None = None) -> PresetBundle:
    """Materialize a preset; ``seed`` selects the arm draw for random presets."""
    name = config.preset
    params = {**PRESET_DEFAULTS[name], **config.overrides}
    try:
        if name == "intro":
            return _build_intro(params, config.delta)
        if name == "example1":
            return _build_example1(params, config.delta)
        if name == "example2":
            return _build_example2(params, config.delta)
        if name == "multivariate":
            return _build_multivariate(params, config.delta)
        if name == "varest":
            return _build_varest(params, config.delta, config.base_seed if seed is None else seed)
        if name == "custom":
            return _build_custom(params, config.delta)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad parameters for preset {name}: {exc}") from exc
    raise ConfigError(f"unknown preset {name!r}")
