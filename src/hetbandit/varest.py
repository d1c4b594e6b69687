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

Every estimator reduces its pulls to per-arm sufficient statistics (count,
mean and centred sum of squares) as soon as they are drawn, so each
regression has one row per pulled arm rather than one per pull. The sum of
squared residuals of arm i about any fit is ``SS_i + n_i (mean_i - fit_i)^2``,
which makes the per-arm regressions equal to the per-pull ones.
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
    greedy_spanning_subset,
    lift_arms,
    solve_psd,
    unvech,
)
from .design import DesignProblem, RoundSchedule, round_design, solve_design
from .env import Environment

# Default multiplicative-error constant: 2e3 * (1 + 6 * (1/3)), combining the
# concentration constant with the rounding slack at epsilon = 1/3.
DEFAULT_C_PRIME = 6000.0


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


def _arm_moments(env: Environment, schedule: RoundSchedule) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pull a schedule and reduce it to per-arm (counts, means, SS).

    ``SS`` is each arm's sum of squared deviations from its own mean, taken
    in a second pass over the centred pulls so that it never cancels the
    way ``sum y^2 - n mean^2`` does. Arms without pulls read zero.
    """
    n_arms = len(schedule.counts)
    idx, ys = env.sample_schedule(schedule)
    counts = np.bincount(idx, minlength=n_arms)
    sums = np.bincount(idx, weights=ys, minlength=n_arms)
    means = np.divide(sums, counts, out=np.zeros(n_arms), where=counts > 0)
    ss = np.bincount(idx, weights=(ys - means[idx]) ** 2, minlength=n_arms)
    return counts, means, ss


def head_estimate(
    inst: HeteroInstance,
    env: Environment,
    gamma: int,
    fw_tol: float = 1e-2,
) -> VarianceEstimate:
    """Two-phase design-based estimate of the noise matrix.

    Phase one spends half the budget on an unweighted minimax design over the
    arms and fits the mean parameter by least squares. Phase two solves the
    same design problem over the lifted arms (restricted to their span),
    spends the other half there, and regresses the squared residuals about
    the phase-one fit on the lifts. Both fits run on per-arm sufficient
    statistics: phase one is count-weighted least squares on the arm means,
    and phase two has one row per pulled arm, weighted by its pull count,
    whose target is the arm's mean squared residual; this gives the same
    solution and the same rank as a regression with one row per pull. If the
    lifted pulls do not span the full lift space the minimum-norm solution is
    taken and the estimate is flagged ``rank_deficient`` (per-arm values stay
    identified because every arm's lift lies in the sampled span).
    """
    if gamma % 2 != 0:
        warnings.warn("odd budget decremented by one to allow an even split")
        gamma -= 1
    if gamma < 2:
        raise InsufficientBudget(f"budget {gamma} cannot be split across two stages")
    half = gamma // 2
    X = inst.arms
    phi = lift_arms(X)
    env1, env2 = env.split(2)

    des1 = solve_design(DesignProblem(X, X, tolerance=fw_tol))
    if half < des1.support_size:
        raise InsufficientBudget(
            f"half budget {half} below stage-1 design support {des1.support_size}"
        )
    sched1 = round_design(des1, half, "ceiling")
    n1, mean1, _ = _arm_moments(env1, sched1)
    theta_hat = solve_psd((X.T * n1) @ X, X.T @ (n1 * mean1))

    des2 = solve_design(DesignProblem(phi, phi, tolerance=fw_tol))
    if half < des2.support_size:
        raise InsufficientBudget(
            f"half budget {half} below stage-2 design support {des2.support_size}"
        )
    sched2 = round_design(des2, half, "ceiling")
    n2, mean2, ss2 = _arm_moments(env2, sched2)
    pulled = n2 > 0
    n2, mean2, ss2 = n2[pulled], mean2[pulled], ss2[pulled]
    mean_resid_sq = ss2 / n2 + (mean2 - X[pulled] @ theta_hat) ** 2
    root_n = np.sqrt(n2)
    m_dim = phi.shape[1]
    # The rank cutoff of the equivalent one-row-per-pull regression.
    rcond = np.finfo(np.float64).eps * max(sched2.total, m_dim)
    coeffs, _, rank, _ = np.linalg.lstsq(
        phi[pulled] * root_n[:, None], mean_resid_sq * root_n, rcond=rcond
    )

    raw = phi @ coeffs
    return VarianceEstimate(
        sigma_hat_matrix=unvech(coeffs, inst.dimension),
        per_arm=_clamp_all(raw, inst),
        budget_used=sched1.total + sched2.total,
        estimator_kind="head",
        theta_hat=theta_hat,
        rank_deficient=rank < m_dim,
        stage_totals=(sched1.total, sched2.total),
    )


def uniform_estimate(
    inst: HeteroInstance,
    env: Environment,
    gamma: int,
    rng_seed: int = 0,
) -> VarianceEstimate:
    """Uniform-sampling baseline: one pooled sample, no splitting.

    The mean parameter is fit on all draws and the squared residuals of the
    same draws are regressed on the lifted arms, both through count-weighted
    normal equations on per-arm sufficient statistics. Rank-deficient pools
    fall back to a ridge-regularized solve and are flagged.
    """
    if gamma < 1:
        raise InsufficientBudget("uniform estimator needs at least one sample")
    X = inst.arms
    phi = lift_arms(X)
    pick_rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(rng_seed)))
    indices = pick_rng.integers(0, inst.n_arms, size=gamma)
    counts = np.bincount(indices, minlength=inst.n_arms)
    schedule = RoundSchedule(counts=tuple(int(c) for c in counts), total=int(counts.sum()), mode="ceiling")
    n, means, ss = _arm_moments(env, schedule)

    gram = (X.T * n) @ X
    ridge_used = np.linalg.matrix_rank(gram) < inst.dimension
    theta_hat = solve_psd(gram, X.T @ (n * means))

    resid_ss = ss + n * (means - X @ theta_hat) ** 2
    lgram = (phi.T * n) @ phi
    m_dim = phi.shape[1]
    rank_deficient = np.linalg.matrix_rank(lgram) < m_dim
    coeffs = solve_psd(lgram, phi.T @ resid_ss)

    raw = phi @ coeffs
    return VarianceEstimate(
        sigma_hat_matrix=unvech(coeffs, inst.dimension),
        per_arm=_clamp_all(raw, inst),
        budget_used=schedule.total,
        estimator_kind="uniform",
        theta_hat=theta_hat,
        rank_deficient=rank_deficient,
        ridge_used=ridge_used or rank_deficient,
    )


def separate_arm_estimate(
    inst: HeteroInstance,
    env: Environment,
    gamma: int,
) -> VarianceEstimate:
    """Per-arm sample-variance baseline on a square set of lifted arms.

    Splits the budget evenly over d(d+1)/2 arms whose lifts form a
    well-conditioned square system, computes each arm's sample variance, and
    solves the square system for the noise matrix.
    """
    X = inst.arms
    phi = lift_arms(X)
    m_dim = phi.shape[1]
    chosen = greedy_spanning_subset(phi, m_dim)
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
    schedule = RoundSchedule(counts=tuple(int(c) for c in counts), total=int(counts.sum()), mode="ceiling")
    n, _, ss = _arm_moments(env, schedule)
    sample_vars = ss[chosen] / n[chosen]

    phi_subset = phi[chosen]
    try:
        coeffs = np.linalg.solve(phi_subset, sample_vars)
    except np.linalg.LinAlgError:
        coeffs, _, _, _ = np.linalg.lstsq(phi_subset, sample_vars, rcond=None)

    raw = phi @ coeffs
    return VarianceEstimate(
        sigma_hat_matrix=unvech(coeffs, inst.dimension),
        per_arm=_clamp_all(raw, inst),
        budget_used=schedule.total,
        estimator_kind="separate_arm",
    )


def oracle_truth_estimate(inst: HeteroInstance) -> VarianceEstimate:
    """Zero-budget estimate holding the true noise matrix (for baselines)."""
    raw = inst.arm_variances()
    return VarianceEstimate(
        sigma_hat_matrix=inst.sigma_star,
        per_arm=_clamp_all(raw, inst),
        budget_used=0,
        estimator_kind="oracle_truth",
    )


def mae(est: VarianceEstimate, inst: HeteroInstance) -> float:
    """Worst-case absolute error of the clamped per-arm variance estimates."""
    truth = inst.arm_variances()
    return float(np.max(np.abs(est.per_arm - truth)))
