import math

import numpy as np
import pytest

from hetbandit import (
    DEFAULT_C_PRIME,
    Environment,
    HeteroInstance,
    InsufficientBudget,
    RankDeficientLift,
    head_budget_for_half,
    head_estimate,
    mae,
    oracle_truth_estimate,
    separate_arm_estimate,
    uniform_estimate,
)
from hetbandit.core import greedy_spanning_subset, lift_arms, solve_psd, vech
from hetbandit.presets import build_varest_instance


def basis_instance(d=3, noise=2.0):
    arms = np.eye(d)
    sigma = noise * np.eye(d)
    return HeteroInstance(arms, arms, np.arange(1.0, d + 1.0), sigma, 0.5, 4.0)


def three_arm_instance():
    arms = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]) / np.array([[1.0], [1.0], [np.sqrt(2)]])
    sigma = np.diag([1.0, 0.25])
    return HeteroInstance.from_truth(arms, arms, np.array([0.3, -0.2]), sigma)


class TestBudgetFormula:
    def test_plugin_example(self):
        arms = np.eye(1)
        inst = HeteroInstance(
            np.array([[1.0], [2.0]]), arms, np.zeros(1), np.eye(1), 1.0, 4.0
        )
        # kappa forced to 1 via equal bounds on a fresh instance
        inst = HeteroInstance(np.array([[1.0], [-1.0]]), arms, np.zeros(1), np.eye(1), 1.0, 1.0)
        assert head_budget_for_half(inst, delta=0.5, c_prime=1.0) == 6

    def test_linear_in_c_prime(self):
        inst = basis_instance()
        one = head_budget_for_half(inst, 0.1, c_prime=1.0)
        two = head_budget_for_half(inst, 0.1, c_prime=2.0)
        assert abs(two - 2 * one) <= 2

    def test_default_constant(self):
        assert DEFAULT_C_PRIME == 2e3 * (1 + 6 * (1 / 3))


class TestZeroNoiseFixedPoint:
    def test_head_returns_zero_matrix(self):
        inst = basis_instance()
        env = Environment.from_instance(inst, seed=0, noise_mode="silent")
        est = head_estimate(inst, env, 60)
        assert np.allclose(est.sigma_hat_matrix, 0.0, atol=1e-18)
        assert np.allclose(est.per_arm, inst.sigma_min_sq)
        assert est.rank_deficient  # basis lifts span only the diagonal

    def test_uniform_returns_zero_matrix(self):
        inst = three_arm_instance()
        env = Environment.from_instance(inst, seed=0, noise_mode="silent")
        est = uniform_estimate(inst, env, 500, rng_seed=1)
        assert np.allclose(est.sigma_hat_matrix, 0.0, atol=1e-12)

    def test_separate_arm_returns_zero_matrix(self):
        inst = three_arm_instance()
        env = Environment.from_instance(inst, seed=0, noise_mode="silent")
        est = separate_arm_estimate(inst, env, 300)
        assert np.allclose(est.sigma_hat_matrix, 0.0, atol=1e-12)


class TestHeadEstimate:
    def test_budget_used_at_least_requested(self):
        inst = three_arm_instance()
        env = Environment.from_instance(inst, seed=3)
        est = head_estimate(inst, env, 400)
        assert est.budget_used >= 400
        assert est.stage_totals[0] >= 200 and est.stage_totals[1] >= 200
        assert est.estimator_kind == "head"

    def test_odd_budget_warns_and_decrements(self):
        inst = three_arm_instance()
        env = Environment.from_instance(inst, seed=3)
        with pytest.warns(UserWarning):
            est = head_estimate(inst, env, 401)
        assert est.stage_totals[0] >= 200

    def test_insufficient_budget(self):
        inst = three_arm_instance()
        env = Environment.from_instance(inst, seed=3)
        with pytest.raises(InsufficientBudget):
            head_estimate(inst, env, 2)

    def test_sample_splitting_structural(self):
        # Stage-2 residuals regress against the stage-1 fit only: both stages
        # are exactly reconstructable from the instrumented call log.
        inst = three_arm_instance()
        log: list = []
        env = Environment.from_instance(inst, seed=9, recorder=log)
        est = head_estimate(inst, env, 600)

        stage1 = [(a, y) for label, a, y in log if label.endswith("/0")]
        stage2 = [(a, y) for label, a, y in log if label.endswith("/1")]
        assert len(stage1) == est.stage_totals[0]
        assert len(stage2) == est.stage_totals[1]
        assert len(stage1) + len(stage2) == len(log) == est.budget_used

        arms = inst.arms
        x1 = arms[[a for a, _ in stage1]]
        y1 = np.array([y for _, y in stage1])
        theta = np.linalg.solve(x1.T @ x1, x1.T @ y1)
        assert np.allclose(theta, est.theta_hat, atol=1e-10)

        phi = lift_arms(arms)
        rows = phi[[a for a, _ in stage2]]
        y2 = np.array([y for _, y in stage2])
        resid = (y2 - arms[[a for a, _ in stage2]] @ theta) ** 2
        coeffs, _, _, _ = np.linalg.lstsq(rows, resid, rcond=None)
        assert np.allclose(coeffs, vech(est.sigma_hat_matrix), atol=1e-10)

    def test_per_arm_recomputable_and_clamped(self):
        inst = three_arm_instance()
        env = Environment.from_instance(inst, seed=5)
        est = head_estimate(inst, env, 2000)
        phi = lift_arms(inst.arms)
        raw = phi @ vech(est.sigma_hat_matrix)
        clamped = np.clip(raw, inst.sigma_min_sq, inst.sigma_max_sq)
        assert np.allclose(est.per_arm, clamped)

    def test_beats_uniform_on_scaled_instance(self):
        # Monte-Carlo ordering at a matched budget on a small version of the
        # mixed-radius sphere setting, where the design advantage shows.
        params = {"d": 4, "n_sphere": 30, "n_small": 60}
        head_maes, unif_maes = [], []
        for seed in range(12):
            inst = build_varest_instance(params, seed=seed)
            env = Environment.from_instance(inst, seed=seed)
            head_maes.append(mae(head_estimate(inst, env, 10_000), inst))
            env2 = Environment.from_instance(inst, seed=10_000 + seed)
            unif_maes.append(mae(uniform_estimate(inst, env2, 10_000, rng_seed=seed), inst))
        assert np.mean(head_maes) < np.mean(unif_maes)


class TestUniformEstimate:
    def test_zero_budget_raises(self):
        inst = three_arm_instance()
        env = Environment.from_instance(inst, seed=0)
        with pytest.raises(InsufficientBudget):
            uniform_estimate(inst, env, 0)

    def test_deterministic_given_seeds(self):
        inst = three_arm_instance()
        a = uniform_estimate(inst, Environment.from_instance(inst, seed=4), 300, rng_seed=2)
        b = uniform_estimate(inst, Environment.from_instance(inst, seed=4), 300, rng_seed=2)
        assert np.array_equal(a.per_arm, b.per_arm)


class TestSeparateArm:
    def test_full_subset_when_unique(self):
        inst = three_arm_instance()
        env = Environment.from_instance(inst, seed=1)
        est = separate_arm_estimate(inst, env, 300)
        # all three arms pulled (the lift space needs all of them)
        assert est.budget_used == 3 * (300 // 3)

    def test_rank_deficient_lift_raises(self):
        arms = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        inst = HeteroInstance.from_truth(arms, arms, np.zeros(2), np.eye(2))
        env = Environment.from_instance(inst, seed=0)
        with pytest.raises(RankDeficientLift):
            separate_arm_estimate(inst, env, 300)

    def test_insufficient_budget(self):
        inst = three_arm_instance()
        env = Environment.from_instance(inst, seed=0)
        with pytest.raises(InsufficientBudget):
            separate_arm_estimate(inst, env, 3)


class TestMae:
    def test_oracle_truth_is_exact(self):
        inst = three_arm_instance()
        assert mae(oracle_truth_estimate(inst), inst) == 0.0

    def test_matches_loop_oracle(self):
        inst = three_arm_instance()
        env = Environment.from_instance(inst, seed=8)
        est = head_estimate(inst, env, 1000)
        truth = inst.arm_variances()
        expected = max(abs(est.per_arm[i] - truth[i]) for i in range(inst.n_arms))
        assert mae(est, inst) == pytest.approx(expected)

    def test_clamping_never_increases_error(self):
        inst = three_arm_instance()
        rng = np.random.default_rng(0)
        phi = lift_arms(inst.arms)
        truth = inst.arm_variances()
        for _ in range(20):
            coeffs = vech(inst.sigma_star) + 0.5 * rng.standard_normal(3)
            raw = phi @ coeffs
            clamped = np.clip(raw, inst.sigma_min_sq, inst.sigma_max_sq)
            assert np.max(np.abs(clamped - truth)) <= np.max(np.abs(raw - truth)) + 1e-12


class TestEstimatorProperties:
    def test_clamped_range_all_estimators(self):
        inst = three_arm_instance()
        for seed in range(4):
            for kind, runner in (
                ("head", lambda e: head_estimate(inst, e, 600)),
                ("uniform", lambda e: uniform_estimate(inst, e, 600, rng_seed=seed)),
                ("separate", lambda e: separate_arm_estimate(inst, e, 600)),
            ):
                env = Environment.from_instance(inst, seed=seed)
                est = runner(env)
                assert np.all(est.per_arm >= inst.sigma_min_sq - 1e-12), kind
                assert np.all(est.per_arm <= inst.sigma_max_sq + 1e-12), kind

    def test_mean_mae_shrinks_with_budget(self):
        # Doubling ladder; tolerate one small Monte-Carlo inversion.
        inst = three_arm_instance()
        budgets = [2_000, 4_000, 8_000, 16_000]
        means = []
        for b_index, gamma in enumerate(budgets):
            errs = [
                mae(head_estimate(inst, Environment.from_instance(inst, seed=100 * b_index + s), gamma), inst)
                for s in range(16)
            ]
            means.append(np.mean(errs))
        inversions = [
            (means[i + 1] - means[i]) / means[i]
            for i in range(len(means) - 1)
            if means[i + 1] > means[i]
        ]
        assert len(inversions) <= 1
        assert all(rel <= 0.05 for rel in inversions)


# Per-pull reference implementations: each rebuilds, from a recorder log,
# the regression the estimator would run with one row per pull.
def _log_pulls(log, suffix=""):
    pulls = [(a, y) for label, a, y in log if label.endswith(suffix)]
    idx = np.array([a for a, _ in pulls], dtype=np.int64)
    ys = np.array([y for _, y in pulls])
    return idx, ys


def _per_pull_head(inst, log):
    X, phi = inst.arms, lift_arms(inst.arms)
    idx1, y1 = _log_pulls(log, "/0")
    rows1 = X[idx1]
    theta = solve_psd(rows1.T @ rows1, rows1.T @ y1)
    idx2, y2 = _log_pulls(log, "/1")
    resid_sq = (y2 - X[idx2] @ theta) ** 2
    coeffs, _, rank, _ = np.linalg.lstsq(phi[idx2], resid_sq, rcond=None)
    return theta, coeffs, rank < phi.shape[1], False


def _per_pull_uniform(inst, log):
    X, phi = inst.arms, lift_arms(inst.arms)
    idx, ys = _log_pulls(log)
    rows = X[idx]
    gram = rows.T @ rows
    ridge_used = np.linalg.matrix_rank(gram) < inst.dimension
    theta = solve_psd(gram, rows.T @ ys)
    lrows = phi[idx]
    resid_sq = (ys - rows @ theta) ** 2
    lgram = lrows.T @ lrows
    rank_deficient = np.linalg.matrix_rank(lgram) < phi.shape[1]
    coeffs = solve_psd(lgram, lrows.T @ resid_sq)
    return theta, coeffs, rank_deficient, ridge_used or rank_deficient


def _per_pull_separate(inst, log):
    phi = lift_arms(inst.arms)
    chosen = greedy_spanning_subset(phi, phi.shape[1])
    idx, ys = _log_pulls(log)
    sample_vars = np.empty(len(chosen))
    for pos, arm in enumerate(chosen):
        obs = ys[idx == arm]
        sample_vars[pos] = np.mean((obs - obs.mean()) ** 2)
    return None, np.linalg.solve(phi[chosen], sample_vars), False, False


class TestPerPullEquivalence:
    """Sufficient-statistic estimators match the one-row-per-pull regressions."""

    ESTIMATORS = {
        "head": (lambda inst, env, seed: head_estimate(inst, env, 4000), _per_pull_head),
        "uniform": (
            lambda inst, env, seed: uniform_estimate(inst, env, 4000, rng_seed=seed),
            _per_pull_uniform,
        ),
        "separate_arm": (
            lambda inst, env, seed: separate_arm_estimate(inst, env, 4000),
            _per_pull_separate,
        ),
    }

    def _check(self, inst, est, reference, log):
        theta, coeffs, rank_deficient, _ = reference(inst, log)
        if theta is None:
            assert est.theta_hat is None
        else:
            assert np.allclose(est.theta_hat, theta, rtol=0, atol=1e-10)
        assert np.allclose(vech(est.sigma_hat_matrix), coeffs, rtol=0, atol=1e-10)
        per_arm = np.clip(lift_arms(inst.arms) @ coeffs, inst.sigma_min_sq, inst.sigma_max_sq)
        assert np.allclose(est.per_arm, per_arm, rtol=0, atol=1e-10)
        assert est.rank_deficient == rank_deficient

    @pytest.mark.parametrize("kind", sorted(ESTIMATORS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_pull_regression(self, kind, seed):
        inst = build_varest_instance({"d": 4, "n_sphere": 30, "n_small": 60}, seed)
        log: list = []
        env = Environment.from_instance(inst, seed=seed, recorder=log)
        estimate, reference = self.ESTIMATORS[kind]
        est = estimate(inst, env, seed)
        assert len(log) == est.budget_used
        self._check(inst, est, reference, log)

    def test_head_rank_deficient_lift_keeps_min_norm(self):
        # Basis arms lift onto the diagonal only, so the stage-2 pulls span
        # three of the six lift directions.
        inst = basis_instance()
        log: list = []
        env = Environment.from_instance(inst, seed=4, recorder=log)
        est = head_estimate(inst, env, 600)
        assert est.rank_deficient
        self._check(inst, est, _per_pull_head, log)

    @pytest.mark.parametrize("rng_seed", [0, 1, 2, 4])
    def test_uniform_rank_deficient_keeps_min_norm(self, rng_seed):
        # Two pulls reach at most two of the three lift directions; the seeds
        # cover one arm pulled twice and two different arms.
        inst = three_arm_instance()
        log: list = []
        env = Environment.from_instance(inst, seed=6, recorder=log)
        est = uniform_estimate(inst, env, 2, rng_seed=rng_seed)
        assert est.rank_deficient
        X, phi = inst.arms, lift_arms(inst.arms)
        idx, ys = _log_pulls(log)
        theta = np.linalg.lstsq(X[idx], ys, rcond=None)[0]
        coeffs = np.linalg.lstsq(phi[idx], (ys - X[idx] @ theta) ** 2, rcond=None)[0]
        assert np.allclose(est.theta_hat, theta, rtol=0, atol=1e-10)
        assert np.allclose(vech(est.sigma_hat_matrix), coeffs, rtol=0, atol=1e-10)
