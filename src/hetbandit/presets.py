"""Experiment presets: canned instances, tasks, and their default parameters.

Each preset builds a ground-truth instance plus either an identification
task or a variance-estimation comparison task. The sphere-sampling preset
redraws its arm set per replication seed; the others are deterministic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
from typing import Any

import numpy as np

from .core import HetBanditError, HeteroInstance
from .ident import IdentTask, RunConfig


class ConfigError(HetBanditError):
    """Bad preset name, parameter, or configuration file."""


@dataclass(frozen=True)
class VarEstTask:
    """Variance-estimation comparison on a budget ladder."""

    budgets: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "budgets", tuple(_as(int, b) for b in self.budgets))
        if any(b < 2 for b in self.budgets):
            raise ConfigError("budgets must be at least 2")


@dataclass(frozen=True)
class PresetBundle:
    name: str
    instance: HeteroInstance
    task: IdentTask | VarEstTask
    # Per-arm variances for design/complexity computations when they differ
    # from the quadratic-form model values (None means use the model).
    variances: np.ndarray | None = None


COMMANDS = ("run", "design", "complexity")
# Each task's algorithms in canonical order. A cell's random stream is numbered
# by its algorithm's place here, so it does not depend on which others run.
IDENT_ALGORITHMS = ("hrage", "rage", "oracle-het", "oracle-hom")
VAREST_ALGORITHMS = ("head", "uniform", "separate_arm")
RUN_SETTINGS = tuple(f.name for f in fields(RunConfig))
# Experiment drivers default to a practical burn-in constant; the theoretical
# one is far too conservative to simulate and stays the library default.
PRACTICAL_C_PRIME = 1.0


def _as(kind, value):
    """``value`` as ``kind``; an int must be integral, so 3.0 passes and 2.5 does not."""
    out = kind(value)
    if kind is int and float(value) != out:
        raise ValueError(f"{value!r} is not an integer")
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    """A preset, its overrides and the replication settings of one command.

    Construction coerces each field to its type, puts ``algorithms`` in the
    task's canonical order (all of them by default) and builds ``run_config``
    from the run settings. It raises :class:`ConfigError` on a bad value and
    on any setting that ``command`` does not read for this preset: only
    ``run`` on an identification preset reads the run settings, and only
    ``run`` reads algorithms, replications, base_seed and jobs, which must
    keep their defaults elsewhere. The config is frozen, so these derived
    fields cannot go stale; ``dataclasses.replace`` derives them afresh."""

    preset: str
    replications: int = 32
    base_seed: int = 0
    delta: float = 0.05
    overrides: dict[str, Any] = field(default_factory=dict)
    output_path: str | None = None
    jobs: int = 1
    algorithms: tuple[str, ...] | None = None
    command: str = "run"
    run_config: RunConfig = field(init=False)

    def __post_init__(self):
        set_ = functools.partial(object.__setattr__, self)
        names = self.algorithms
        try:
            set_("preset", canonical_preset(str(self.preset)))
            for name in ("replications", "base_seed", "jobs"):
                set_(name, _as(int, getattr(self, name)))
            set_("delta", float(self.delta))
            set_("overrides", dict(self.overrides))
            if self.output_path is not None:
                set_("output_path", str(self.output_path))
            if isinstance(names, str):
                names = [a.strip() for a in names.split(",") if a.strip()]
            names = tuple(map(str, names)) if names else ()
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad configuration value: {exc}") from exc
        if self.replications < 1:
            raise ConfigError("replications must be at least 1")
        if not 0 < self.delta < 1:
            raise ConfigError("delta must lie in (0, 1)")
        if self.jobs < 1:
            raise ConfigError("jobs must be at least 1")
        if self.base_seed < 0:
            raise ConfigError("base_seed must be nonnegative")
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        unread = [f.name for f in fields(self) if f.name in ("replications", "base_seed", "jobs", "algorithms")
                  and getattr(self, f.name) != f.default]
        if self.command != "run" and unread:
            raise ConfigError(f"unknown setting {', '.join(unread)} for {self.command}; only run reads it")
        varest = self.preset == "varest"
        run_settings = RUN_SETTINGS if self.command == "run" and not varest else ()
        known = {*PRESET_DEFAULTS[self.preset], *run_settings}
        unknown = sorted(map(str, set(self.overrides) - known))
        if unknown:
            raise ConfigError(f"unknown setting {', '.join(unknown)} for {self.command} on preset "
                              f"{self.preset}; it accepts {', '.join(sorted(known)) or 'none'}")
        settings = {"c_prime": PRACTICAL_C_PRIME, **{k: self.overrides[k] for k in run_settings
                                                     if k in self.overrides}}
        try:
            set_("run_config", RunConfig(**{f.name: _as(type(f.default), settings[f.name])
                                            for f in fields(RunConfig) if f.name in settings}))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad run setting: {exc}") from exc
        canonical = VAREST_ALGORITHMS if varest else IDENT_ALGORITHMS
        unknown = [a for a in names if a not in canonical]
        if unknown:
            raise ConfigError(f"unknown algorithm {', '.join(unknown)} for preset {self.preset}; "
                              f"it runs {', '.join(canonical)}")
        if len(set(names)) < len(names):
            raise ConfigError(f"repeated algorithm in {', '.join(names)}")
        set_("algorithms", tuple(a for a in canonical if not names or a in names))


_PRESET_ALIASES = {"introkappa": "intro", "multivariatetest": "multivariate", "varestcompare": "varest"}

PRESET_DEFAULTS: dict[str, dict[str, Any]] = {
    "intro": {"kappa": 20.0, "objective": "bai", "alpha": 0.0},
    "example1": {"d": 4, "omega": 0.02, "q": 0.4, "objective": "bai", "alpha": 0.0},
    "example2": {"d": 3, "omega": 0.02, "alpha_sq": 1.0, "beta_sq": 0.2, "objective": "bai", "alpha": 0.0},
    "multivariate": {"objective": "bai", "alpha": 0.0},
    "varest": {"d": 6, "n_sphere": 200, "n_small": 300,
               "budgets": (10_000, 20_000, 40_000, 80_000)},
    "custom": {"instance_file": None, "objective": "bai", "alpha": 0.0},
}


def canonical_preset(name: str) -> str:
    """Preset name for ``name``, ignoring case, ``-`` and ``_``."""
    key = name.strip().lower().replace("-", "").replace("_", "")
    key = _PRESET_ALIASES.get(key, key)
    if key not in PRESET_DEFAULTS:
        raise ConfigError(f"unknown preset {name!r}")
    return key


def _basis(d: int, i: int) -> np.ndarray:
    e = np.zeros(d)
    e[i] = 1.0
    return e


def _build_intro(params, seed):
    kappa = float(params["kappa"])
    if kappa < 1:
        raise ConfigError("kappa must be at least 1")
    arms = np.array([[1.0, 0.0], [0.0, 1.0], [math.cos(0.5), math.sin(0.5)]])
    sigma = np.diag([1.0, kappa])
    instance = HeteroInstance(arms, arms, np.array([1.0, 0.0]), sigma, 1.0, kappa)
    # The motivating allocation story treats the bent arm as quiet even when
    # the axis arm is loud; the quadratic-form model cannot decouple them, so
    # design and complexity computations use these per-arm values directly.
    return instance, np.array([1.0, kappa, 1.0])


def _build_example1(params, seed):
    d = _as(int, params["d"])
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
    return instance, None


def _build_example2(params, seed):
    d = _as(int, params["d"])
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
    return instance, None


def _build_multivariate(params, seed):
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
    return instance, None


def _sample_sphere(rng: np.random.Generator, n: int, d: int, radius: float) -> np.ndarray:
    pts = rng.standard_normal((n, d))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return radius * pts


def build_varest_instance(params, seed: int) -> HeteroInstance:
    d = _as(int, params["d"])
    n_sphere = _as(int, params["n_sphere"])
    n_small = _as(int, params["n_small"])
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


def _build_custom(params, seed):
    path = params["instance_file"]
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
    return HeteroInstance.from_truth(arms, targets, theta, sigma), None


# Builders map (params, arm seed) to the instance and the per-arm variances
# that design and complexity computations use (None: the model's values).
_BUILDERS = {"intro": _build_intro, "example1": _build_example1, "example2": _build_example2,
             "multivariate": _build_multivariate, "custom": _build_custom,
             "varest": lambda params, seed: (build_varest_instance(params, seed), None)}


def build_preset(config: ExperimentConfig, seed: int | None = None) -> PresetBundle:
    """Materialize a preset; ``seed`` selects the arm draw for random presets."""
    name = config.preset
    params = {**PRESET_DEFAULTS[name], **config.overrides}
    try:
        instance, variances = _BUILDERS[name](params, config.base_seed if seed is None else seed)
        task = VarEstTask(params["budgets"]) if name == "varest" else IdentTask(
            str(params["objective"]), config.delta, instance, float(params["alpha"]))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad parameters for preset {name}: {exc}") from exc
    return PresetBundle(name, instance, task, variances)
