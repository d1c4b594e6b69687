"""Variance estimators for the structured heteroskedastic noise model.

Three strategies are provided:

* :func:`head_estimate` - two-phase adaptive design: a minimax design over
  the arms fits the mean parameter, then a second minimax design over the
  lifted arms regresses squared residuals to recover the noise matrix. The
  two phases draw from disjoint random sub-streams so their errors are
  independent.
* :func:`uniform_estimate` - uniform arm sampling, no sample splitting.
* :func:`separate_arm_estimate` - per-arm sample variances on a
  well-conditioned square subset of lifted arms.

Every estimator reads only per-arm sufficient statistics (count, sum and
centred sum of squares), drawn directly from their exact distribution by
:meth:`~hetbandit.env.Environment.sample_schedule_moments`, or by
``sample_schedule_sums`` where no sum of squares is read; no pull is drawn
or stored one by one, so a call costs the same at any budget. Each regression
has one row per pulled arm rather than one per pull. The sum of squared
residuals of arm i about any fit is ``SS_i + n_i (mean_i - fit_i)^2``, which
makes the per-arm regressions equal to the per-pull ones. Every fit, of the
mean parameter and of the noise matrix alike, is
:func:`~hetbandit.core.fit_arm_sums`: where the pulled arms or their lifts
span less than the space it returns the minimum-norm solution, and the
estimate is flagged ``rank_deficient`` when the lifts do not span the full
d(d+1)/2-dimensional lift space.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .core import (
    HeteroInstance,
    InsufficientBudget,
    RankDeficientLift,
    VarianceEstimate,
    fit_arm_sums,
    instance_lift,
    solve_psd,  # not called here; bench/probe.py counts calls through this name
    unvech,
)
from .design import DesignProblem, RoundSchedule, round_design, solve_design
from .env import Environment

# Default multiplicative-error constant: 2e3 * (1 + 6 * (1/3)), combining the
# concentration constant with the rounding slack at epsilon = 1/3.
DEFAULT_C_PRIME = 6000.0
# Default design tolerance of HEAD's solves and of the identification runs.
DEFAULT_FW_TOL = 1e-2


def head_budget_for_half(inst: HeteroInstance, delta: float, c_prime: float = DEFAULT_C_PRIME) -> int:
    """Smallest even budget driving the multiplicative variance error below 1/2.

    Solves sqrt(c' * log(|X|/delta) * kappa^2 d^2 / Gamma) <= 1/2 for Gamma.
    """
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    n, d = inst.n_arms, inst.dimension
    kappa = inst.kappa()
    return 2 * math.ceil(2.0 * c_prime * math.log(n / delta) * kappa**2 * d**2)


def _clamp_all(raw: np.ndarray, inst: HeteroInstance) -> np.ndarray:
    return np.clip(raw, inst.sigma_min_sq, inst.sigma_max_sq)


def _lifted_estimate(
    inst: HeteroInstance, phi: np.ndarray, counts, sums, ss, theta_hat=None, **fields
) -> VarianceEstimate:
    """Regress per-arm residual sums of squares on the lifts into an estimate.
    About the fit ``X @ theta_hat`` arm i's is ``SS_i + (s_i - n_i x_i'theta_hat)^2
    / n_i``; about its own mean (no ``theta_hat``) it is ``SS_i``."""
    if theta_hat is not None:
        ss = ss + (sums - counts * (inst.arms @ theta_hat)) ** 2 / np.maximum(counts, 1)
    coeffs, rank = fit_arm_sums(phi, counts, ss)
    return VarianceEstimate(
        sigma_hat_matrix=unvech(coeffs, inst.dimension),
        per_arm=_clamp_all(phi @ coeffs, inst),
        theta_hat=theta_hat,
        rank_deficient=rank < phi.shape[1],
        **fields,
    )


def head_estimate(
    inst: HeteroInstance,
    env: Environment,
    gamma: int,
    fw_tol: float = DEFAULT_FW_TOL,
) -> VarianceEstimate:
    """Two-phase design-based estimate of the noise matrix.

    Phase one spends half the budget on an unweighted minimax design over the
    arms and fits the mean parameter by least squares. Phase two solves the
    same design problem over the lifted arms (restricted to their span),
    spends the other half there, and regresses the squared residuals about
    the phase-one fit on the lifts. Both fits are count-weighted regressions
    with one row per pulled arm, which give the same solution and rank as
    regressions with one row per pull. If the lifted pulls do not span the
    full lift space the minimum-norm solution is taken and the estimate is
    flagged ``rank_deficient`` (per-arm values stay identified because every
    arm's lift lies in the sampled span).
    """
    if gamma % 2 != 0:
        warnings.warn("odd budget decremented by one to allow an even split")
        gamma -= 1
    if gamma < 2:
        raise InsufficientBudget(f"budget {gamma} cannot be split across two stages")
    half = gamma // 2
    X, phi = inst.arms, instance_lift(inst)
    totals, draws = [], []
    for stage, (rows, stage_env) in enumerate(zip((X, phi), env.split(2)), 1):
        design = solve_design(DesignProblem(rows, rows, tolerance=fw_tol))
        if half < design.support_size:
            raise InsufficientBudget(
                f"half budget {half} below stage-{stage} design support {design.support_size}"
            )
        schedule = round_design(design, half)
        totals.append(schedule.total)
        # Only the stage-2 fit reads sums of squares.
        draw = stage_env.sample_schedule_sums if stage == 1 else stage_env.sample_schedule_moments
        draws.append(draw(schedule))
    (n1, sums1), (n2, sums2, ss2) = draws
    theta_hat, _ = fit_arm_sums(X, n1, sums1)
    return _lifted_estimate(
        inst, phi, n2, sums2, ss2, theta_hat,
        budget_used=sum(totals),
        estimator_kind="head",
        stage_totals=tuple(totals),
    )


def uniform_estimate(inst: HeteroInstance, env: Environment, gamma: int) -> VarianceEstimate:
    """Uniform-sampling baseline: one pooled sample, no splitting.

    The arms of the ``gamma`` pulls are picked uniformly at random, by one
    multinomial draw from ``env.rng`` before the responses. The mean
    parameter is fit on all draws and the squared residuals of the same draws
    are regressed on the lifted arms, both by count-weighted least squares on
    per-arm sufficient statistics. A pool whose lifts do not span the lift
    space (a small budget misses arms) gets minimum-norm fits and is flagged
    ``rank_deficient``.
    """
    if gamma < 1:
        raise InsufficientBudget("uniform estimator needs at least one sample")
    X, phi = inst.arms, instance_lift(inst)
    counts = env.rng.multinomial(gamma, np.full(inst.n_arms, 1.0 / inst.n_arms))
    schedule = RoundSchedule(tuple(counts.tolist()))
    n, sums, ss = env.sample_schedule_moments(schedule)
    theta_hat, _ = fit_arm_sums(X, n, sums)
    return _lifted_estimate(
        inst, phi, n, sums, ss, theta_hat, budget_used=schedule.total, estimator_kind="uniform"
    )


def separate_arm_estimate(
    inst: HeteroInstance,
    env: Environment,
    gamma: int,
) -> VarianceEstimate:
    """Per-arm sample-variance baseline on a square set of lifted arms.

    Splits the budget evenly over d(d+1)/2 arms whose lifts form a
    well-conditioned square system, and regresses each arm's centred sum of
    squares on its lift, which solves the square system of sample variances.
    """
    phi = instance_lift(inst)
    m_dim = phi.shape[1]
    chosen = list(inst.lift_spanning_subset)
    if len(chosen) < m_dim:
        raise RankDeficientLift(
            f"only {len(chosen)} independent lifted arms available, need {m_dim}"
        )
    n_per = gamma // m_dim
    if n_per < 2:
        raise InsufficientBudget(
            f"budget {gamma} leaves fewer than two samples per selected arm"
        )

    counts = np.zeros(inst.n_arms, dtype=np.int64)
    counts[chosen] = n_per
    schedule = RoundSchedule(tuple(counts.tolist()))
    n, sums, ss = env.sample_schedule_moments(schedule)
    return _lifted_estimate(
        inst, phi, n, sums, ss, budget_used=schedule.total, estimator_kind="separate_arm"
    )


def mae(est: VarianceEstimate, inst: HeteroInstance) -> float:
    """Worst-case absolute error of the clamped per-arm variance estimates."""
    truth = inst.arm_variances()
    return float(np.max(np.abs(est.per_arm - truth)))
