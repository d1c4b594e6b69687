"""Best-arm and level-set identification under heteroskedastic noise.

Contains the variance-aware elimination algorithm (burn-in variance
estimation followed by weighted adaptive designs), its homoskedastic
counterpart, fixed-design oracle runs, and the instance complexity
functionals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import DegenerateGap, Design, HeteroInstance, fit_arm_sums, quad_forms
from .core import solve_psd  # not called here; bench/probe.py counts calls through this name
from .design import DesignProblem, round_design, solve_design
from .env import Environment
from .varest import DEFAULT_C_PRIME, DEFAULT_FW_TOL, head_budget_for_half, head_estimate

OBJECTIVES = ("bai", "ls")


@dataclass(frozen=True)
class IdentTask:
    """An identification objective over a fixed instance.

    ``bai`` asks for the unique target maximizing the mean reward; ``ls``
    asks for the set of targets whose mean exceeds ``alpha``. Construction
    rejects tasks whose answer is not unique / well separated.
    """

    objective: str
    delta: float
    instance: HeteroInstance
    alpha: float = 0.0

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if not abs(self.alpha) < math.inf:
            raise ValueError("alpha must be finite")
        values = self.instance.target_values()
        if self.objective == "bai":
            order = np.sort(values)[::-1]
            if len(values) > 1 and order[0] - order[1] <= 0:
                raise ValueError("best-arm task needs a unique maximizer")
        else:
            if np.min(np.abs(values - self.alpha)) <= 0:
                raise ValueError("level-set task needs every target off the threshold")

    @property
    def best_index(self) -> int:
        return int(np.argmax(self.instance.target_values()))

    def true_answer(self):
        return _answer(self, self.instance.target_values())


def _answer(task: IdentTask, scores: np.ndarray) -> int | frozenset[int]:
    """The task's answer if the targets' mean rewards were ``scores``: the
    first maximizer for ``bai``, the targets above ``alpha`` for ``ls``."""
    if task.objective == "bai":
        return int(np.argmax(scores))
    return frozenset(int(i) for i in np.flatnonzero(scores > task.alpha))


# Callers may keep one record per round of every run, so no per-instance dict.
@dataclass(frozen=True, slots=True)
class RoundRecord:
    round_index: int
    epsilon: float
    tau: float
    active_size: int
    pulls: int
    design_value: float
    active_indices: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class RunTrace:
    """Per-round log of an identification run plus the final answer."""

    rounds: tuple[RoundRecord, ...]
    burn_in_pulls: int
    total_pulls: int
    answer: int | frozenset[int]
    correct: bool
    non_terminated: bool = False


@dataclass(frozen=True)
class RunConfig:
    """Knobs for the adaptive runs. The burn-in constant defaults to the
    conservative theoretical value; experiment drivers typically override it.
    Round budgets are computed from the solved design's own certified value,
    so the design tolerance only affects sample counts, not correctness."""

    c_prime: float = DEFAULT_C_PRIME
    fw_tol: float = DEFAULT_FW_TOL
    max_rounds: int = 40

    def __post_init__(self):
        if not 0 < self.c_prime < math.inf:
            raise ValueError("c_prime must be finite and positive")
        if not 0 < self.fw_tol < 1:
            raise ValueError("fw_tol must lie in (0, 1)")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")


@lru_cache(maxsize=16)  # read-only pair indices, built once per active-set size
def _pair_indices(m: int) -> tuple[np.ndarray, np.ndarray]:
    iu, ju = np.triu_indices(m, k=1)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


def round_budget(epsilon: float, design_value: float, n_targets: int, delta: float, ell: int, scale: float) -> float:
    """Per-round sample budget: scale * eps^-2 * q * log(8 ell^2 |Z| / delta)."""
    return scale * design_value / epsilon**2 * math.log(8 * ell**2 * n_targets / delta)


def _elimination_run(task: IdentTask, env: Environment, config: RunConfig, weighted: bool) -> RunTrace:
    inst = task.instance
    Z = inst.targets
    n_targets = Z.shape[0]

    burn_in = 0
    if task.objective == "bai" and n_targets <= 1:
        return RunTrace(rounds=(), burn_in_pulls=0, total_pulls=0,
                        answer=0, correct=True)

    if weighted:
        gamma = head_budget_for_half(inst, task.delta, config.c_prime)
        estimate = head_estimate(inst, env, gamma, fw_tol=config.fw_tol)
        sigma_sq = np.asarray(estimate.per_arm)
        burn_in = estimate.budget_used
        tau_scale = 3.0
    else:
        sigma_sq = np.ones(inst.n_arms)
        tau_scale = 2.0 * inst.sigma_max_sq
    precisions = 1.0 / sigma_sq

    active = np.arange(n_targets)
    # Shared by the records of consecutive rounds with the same active set.
    active_indices = tuple(range(n_targets))
    in_good: set[int] = set()
    rounds: list[RoundRecord] = []
    total = burn_in
    theta_hat = np.zeros(inst.dimension)
    non_terminated = False

    ell = 0
    while True:
        ell += 1
        if task.objective == "bai" and active.size <= 1:
            break
        if task.objective == "ls" and active.size == 0:
            break
        if ell > config.max_rounds:
            non_terminated = True
            break

        if task.objective == "bai":  # unordered pairwise differences of the active targets
            iu, ju = _pair_indices(active.size)
            directions = Z[active[iu]] - Z[active[ju]]
        else:
            directions = Z[active]
        design = solve_design(
            DesignProblem(
                inst.arms,
                directions,
                variances=sigma_sq if weighted else None,
                tolerance=config.fw_tol,
            )
        )
        epsilon = 2.0 ** (-ell)
        tau = round_budget(epsilon, design.value, n_targets, task.delta, ell, tau_scale)
        schedule = round_design(design, tau)
        counts, sums = env.sample_schedule_sums(schedule)
        theta_hat, _ = fit_arm_sums(inst.arms, counts, sums, precisions)

        rounds.append(
            RoundRecord(
                round_index=ell,
                epsilon=epsilon,
                tau=tau,
                active_size=int(active.size),
                pulls=schedule.total,
                design_value=design.value,
                active_indices=active_indices,
            )
        )
        total += schedule.total

        scores = Z[active] @ theta_hat
        if task.objective == "bai":
            keep = scores.max() - scores <= epsilon
            active = active[keep]
        else:
            to_good = scores - epsilon > task.alpha
            to_bad = scores + epsilon < task.alpha
            in_good.update(int(i) for i in active[to_good])
            active = active[~(to_good | to_bad)]
        if active.size < len(active_indices):
            active_indices = tuple(int(i) for i in active)

    # Classified targets score beyond either side of any threshold; targets
    # still active when the run stops score their last estimate.
    scores = np.full(n_targets, -math.inf)
    scores[list(in_good)] = math.inf
    scores[active] = Z[active] @ theta_hat
    answer = _answer(task, scores)

    return RunTrace(
        rounds=tuple(rounds),
        burn_in_pulls=burn_in,
        total_pulls=total,
        answer=answer,
        correct=answer == task.true_answer(),
        non_terminated=non_terminated,
    )


def hrage_run(task: IdentTask, env: Environment, config: RunConfig | None = None) -> RunTrace:
    """Variance-aware elimination: estimate noise once, then run weighted rounds.

    A burn-in phase sizes and runs the two-phase variance estimator so every
    clamped per-arm estimate is within a constant factor of the truth; the
    estimates then weight every design and least-squares solve. Each round
    halves the error radius, samples a rounded weighted design, and
    eliminates (or classifies) targets whose margin exceeds the radius.
    Burn-in pulls count toward ``total_pulls``.
    """
    return _elimination_run(task, env, config or RunConfig(), weighted=True)


def rage_run(task: IdentTask, env: Environment, config: RunConfig | None = None) -> RunTrace:
    """Homoskedastic baseline: identical skeleton, no burn-in, unweighted
    designs, and a worst-case variance multiplier in each round budget."""
    return _elimination_run(task, env, config or RunConfig(), weighted=False)


@dataclass(frozen=True)
class ComplexityReport:
    """Instance complexity under true variances vs the worst-case bound."""

    psi_star: float
    rho_star: float
    kappa: float
    psi_design: Design
    rho_design: Design

    @property
    def ratio(self) -> float:
        return self.psi_star / self.rho_star

    def lower_bound_samples(self, delta: float) -> float:
        """``2 psi* log(1 / (2.4 delta))``, clamped at 0 for ``delta > 1/2.4``."""
        return max(0.0, 2.0 * self.psi_star * math.log(1.0 / (2.4 * delta)))


def _identification_pairs(task: IdentTask) -> tuple[np.ndarray, np.ndarray]:
    """Directions (h - q) and their positive gaps for the task objective.

    Best-arm: the best target against every other. Level-set: every target
    against the threshold, using the absolute distance as the gap (items on
    both sides of the threshold must be verified).
    """
    Z = task.instance.targets
    values = task.instance.target_values()
    if task.objective == "bai":
        best = task.best_index
        others = np.delete(np.arange(Z.shape[0]), best)
        directions = Z[best][None, :] - Z[others]
        gaps = values[best] - values[others]
    else:
        directions = Z
        gaps = np.abs(values - task.alpha)
    if gaps.size == 0:
        raise DegenerateGap("a best-arm task with one target has no pair to identify")
    if np.any(np.abs(gaps) < 1e-12):
        raise DegenerateGap("an identification gap is numerically zero")
    return directions, gaps


def psi_star(
    task: IdentTask,
    variances: np.ndarray | None = None,
    fw_tol: float = 1e-3,
) -> ComplexityReport:
    """Minimax identification complexity and its worst-case counterpart.

    Scaling each direction by its gap turns the ratio objective into a plain
    minimax design problem, solved by the same certified design solver. The
    weighted value uses the given per-arm variances (true model variances by
    default); the unweighted value times the variance upper bound gives the
    worst-case complexity.
    """
    inst = task.instance
    if variances is None:
        variances = inst.arm_variances()
    variances = np.asarray(variances, dtype=np.float64)
    directions, gaps = _identification_pairs(task)
    scaled = directions / gaps[:, None]

    psi_design = solve_design(
        DesignProblem(inst.arms, scaled, variances=variances, tolerance=fw_tol)
    )
    rho_design = solve_design(DesignProblem(inst.arms, scaled, tolerance=fw_tol))
    return ComplexityReport(
        psi_star=psi_design.value,
        rho_star=inst.sigma_max_sq * rho_design.value,
        kappa=inst.kappa(),
        psi_design=psi_design,
        rho_design=rho_design,
    )


SIGMA_SOURCES = ("truth", "max")


def oracle_run(
    task: IdentTask,
    env: Environment,
    sigma_source: str = "truth",
    variances: np.ndarray | None = None,
    config: RunConfig | None = None,
) -> RunTrace:
    """Fixed-design verification run with known variances.

    Computes the complexity-optimal design (variance-weighted for ``truth``,
    unweighted worst-case for ``max``), then draws doubling batches from the
    rounded design until every identification pair passes its verification
    inequality: the empirical margin must exceed the union-bound confidence
    width, from ``v' A^+ v`` for the pulled information matrix ``A``: a pair
    outside the span of the pulled arms never verifies. Gives up (flagged)
    once 64x the nominal budget is spent.
    """
    if sigma_source not in SIGMA_SOURCES:
        raise ValueError(f"sigma_source must be one of {SIGMA_SOURCES}")
    config = config or RunConfig()
    inst = task.instance
    report = psi_star(task, variances=variances, fw_tol=config.fw_tol)
    if sigma_source == "truth":
        design = report.psi_design
        size = report.psi_star
        arm_vars = inst.arm_variances() if variances is None else np.asarray(variances, float)
        precisions = 1.0 / arm_vars
        width_scale = 1.0
    else:
        design = report.rho_design
        size = report.rho_star
        precisions = np.ones(inst.n_arms)
        width_scale = inst.sigma_max_sq

    n_targets = inst.targets.shape[0]
    log_term = math.log(2 * n_targets / task.delta)
    nominal = int(math.ceil(2.0 * size * log_term))
    directions, gaps = _identification_pairs(task)

    counts = np.zeros(inst.n_arms)
    sums = np.zeros(inst.n_arms)
    total = 0
    rounds: list[RoundRecord] = []
    verified = False
    theta_hat = np.zeros(inst.dimension)

    for batch in range(7):  # cumulative targets: nominal * 2^0 .. 2^6
        target_total = nominal * 2**batch
        increment = target_total - total
        pulls = 0
        # Ceiling overshoot can already cover the next target; such a batch
        # draws nothing but is still verified and recorded.
        if increment > 0:
            schedule = round_design(design, increment)
            c_inc, s_inc = env.sample_schedule_sums(schedule)
            counts += c_inc
            sums += s_inc
            pulls = schedule.total
        total += pulls

        theta_hat, _ = fit_arm_sums(inst.arms, counts, sums, precisions)
        quad = quad_forms(inst.arms, directions, counts * precisions)
        widths = np.sqrt(2.0 * width_scale * quad * log_term)

        margins = directions @ theta_hat
        if task.objective == "ls":
            sides = np.sign(task.instance.target_values() - task.alpha)
            margins = sides * (margins - task.alpha)
        rounds.append(
            RoundRecord(
                round_index=batch + 1,
                epsilon=math.nan,
                tau=float(target_total),
                active_size=n_targets,
                pulls=pulls,
                design_value=design.value,
                active_indices=(),
            )
        )
        if np.all(margins >= widths):
            verified = True
            break

    answer = _answer(task, inst.targets @ theta_hat)
    return RunTrace(
        rounds=tuple(rounds),
        burn_in_pulls=0,
        total_pulls=total,
        answer=answer,
        correct=answer == task.true_answer(),
        non_terminated=not verified,
    )
