import math

import numpy as np
import pytest

from conftest import silent_env
from hetbandit import (
    DEFAULT_C_PRIME,
    Environment,
    ExperimentConfig,
    HeteroInstance,
    IdentTask,
    InsufficientBudget,
    RankDeficientLift,
    RunConfig,
    head_budget_for_half,
    head_estimate,
    hrage_run,
    mae,
    run_suite,
    separate_arm_estimate,
    uniform_estimate,
)
from hetbandit import core
from hetbandit.core import greedy_spanning_subset, lift_arms, vech
from hetbandit.presets import PRESET_DEFAULTS, build_varest_instance


def per_pull_moments(env, schedule, draws):
    """Reference per-arm moments from individual pulls: every pull is drawn
    through ``sample_schedule``, the call's (arm indices, observations) are
    appended to ``draws``, and the pulls are reduced to (counts, sums, SS)
    with ``SS`` taken about each arm's own mean."""
    n_arms = len(schedule.counts)
    idx, ys = env.sample_schedule(schedule)
    draws.append((idx, ys))
    counts = np.bincount(idx, minlength=n_arms)
    sums = np.bincount(idx, weights=ys, minlength=n_arms)
    means = np.divide(sums, counts, out=np.zeros(n_arms), where=counts > 0)
    ss = np.bincount(idx, weights=(ys - means[idx]) ** 2, minlength=n_arms)
    return counts, sums, ss


@pytest.fixture
def per_pull_sampling(monkeypatch):
    """Draw the estimators' sums and moments pull by pull; returns the list
    of each call's (arm indices, observations), in call order."""
    draws: list = []
    monkeypatch.setattr(
        Environment, "sample_schedule_moments",
        lambda env, schedule: per_pull_moments(env, schedule, draws),
    )
    monkeypatch.setattr(
        Environment, "sample_schedule_sums",
        lambda env, schedule: per_pull_moments(env, schedule, draws)[:2],
    )
    return draws


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
        est = head_estimate(inst, silent_env(inst), 60)
        assert np.allclose(est.sigma_hat_matrix, 0.0, atol=1e-18)
        assert np.allclose(est.per_arm, inst.sigma_min_sq)
        assert est.rank_deficient  # basis lifts span only the diagonal

    def test_uniform_returns_zero_matrix(self):
        inst = three_arm_instance()
        est = uniform_estimate(inst, silent_env(inst), 500)
        assert np.allclose(est.sigma_hat_matrix, 0.0, atol=1e-12)

    def test_separate_arm_returns_zero_matrix(self):
        inst = three_arm_instance()
        est = separate_arm_estimate(inst, silent_env(inst), 300)
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

    def test_sample_splitting_structural(self, per_pull_sampling):
        # Stage-2 residuals regress against the stage-1 fit only: both stages
        # are exactly reconstructable from the captured draws, stage 1 being
        # the first call and stage 2 the second.
        inst = three_arm_instance()
        est = head_estimate(inst, Environment.from_instance(inst, seed=9), 600)

        (idx1, y1), (idx2, y2) = per_pull_sampling
        assert idx1.size == est.stage_totals[0]
        assert idx2.size == est.stage_totals[1]
        assert idx1.size + idx2.size == est.budget_used

        arms = inst.arms
        x1 = arms[idx1]
        theta = np.linalg.solve(x1.T @ x1, x1.T @ y1)
        assert np.allclose(theta, est.theta_hat, atol=1e-10)

        resid = (y2 - arms[idx2] @ theta) ** 2
        coeffs, _, _, _ = np.linalg.lstsq(lift_arms(arms)[idx2], resid, rcond=None)
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
            unif_maes.append(mae(uniform_estimate(inst, env2, 10_000), inst))
        assert np.mean(head_maes) < np.mean(unif_maes)


class TestUniformEstimate:
    def test_zero_budget_raises(self):
        inst = three_arm_instance()
        env = Environment.from_instance(inst, seed=0)
        with pytest.raises(InsufficientBudget):
            uniform_estimate(inst, env, 0)

    def test_picks_follow_the_environment(self, monkeypatch):
        counts = []
        draw = Environment.sample_schedule_moments
        monkeypatch.setattr(Environment, "sample_schedule_moments",
                            lambda env, schedule: counts.append(schedule.counts) or draw(env, schedule))
        inst = three_arm_instance()
        for seed in (0, 1):
            uniform_estimate(inst, Environment.from_instance(inst, seed=seed), 300)
        assert counts[0] != counts[1]

    def test_deterministic_given_seeds(self):
        inst = three_arm_instance()
        a = uniform_estimate(inst, Environment.from_instance(inst, seed=4), 300)
        b = uniform_estimate(inst, Environment.from_instance(inst, seed=4), 300)
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

    def test_lifts_not_kept(self):
        # The instance and its environment keep no d(d+1)/2-column array,
        # so per-instance memory stays that of the arms.
        d = 15
        inst = build_varest_instance({**PRESET_DEFAULTS["varest"], "d": d}, 0)
        env = Environment.from_instance(inst, seed=0)
        separate_arm_estimate(inst, env, 10_000)
        held = [*vars(inst).values(), *(getattr(env, name) for name in env.__slots__)]
        m_dim = d * (d + 1) // 2
        assert not [a for a in held if isinstance(a, np.ndarray) and a.ndim == 2 and a.shape[1] == m_dim]

    def test_one_lift_per_replication(self, monkeypatch):
        # One replication of the benchmark's varest workload: the estimator
        # cells and the separate-arm subset all read one cached lift, and the
        # cache keeps that lift and its arms array, not the instance.
        lift, calls = core.lift_arms, []

        def counting(arms):
            calls.append(arms)
            return lift(arms)

        monkeypatch.setattr(core, "lift_arms", counting)
        monkeypatch.setattr(core, "_last_lift", [None, None])
        config = ExperimentConfig("varest", replications=1, base_seed=11,
                                  overrides={"d": 15, "budgets": (10_000, 40_000, 95_000)})
        rows, failed = run_suite(config)
        assert not failed
        assert sum(not row.split(",")[2] == "summary" for row in rows) == 9
        assert len(calls) == 1
        arms, lifted = core._last_lift
        assert not isinstance(arms, HeteroInstance) and arms is calls[0] and arms.shape == (500, 15)
        assert lifted.shape == (500, 120) and not lifted.flags.writeable


class TestMae:
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
                ("uniform", lambda e: uniform_estimate(inst, e, 600)),
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


# Per-pull reference implementations: each rebuilds, from the captured
# draws, the regression the estimator would run with one row per pull.
def _per_pull_head(inst, draws):
    X, phi = inst.arms, lift_arms(inst.arms)
    (idx1, y1), (idx2, y2) = draws
    rows1 = X[idx1]
    theta = np.linalg.solve(rows1.T @ rows1, rows1.T @ y1)
    resid_sq = (y2 - X[idx2] @ theta) ** 2
    coeffs, _, rank, _ = np.linalg.lstsq(phi[idx2], resid_sq, rcond=None)
    return theta, coeffs, rank < phi.shape[1], False


def _per_pull_uniform(inst, draws):
    X, phi = inst.arms, lift_arms(inst.arms)
    ((idx, ys),) = draws
    rows = X[idx]
    gram = rows.T @ rows
    ridge_used = np.linalg.matrix_rank(gram) < inst.dimension
    theta = np.linalg.solve(gram, rows.T @ ys)
    lrows = phi[idx]
    resid_sq = (ys - rows @ theta) ** 2
    lgram = lrows.T @ lrows
    rank_deficient = np.linalg.matrix_rank(lgram) < phi.shape[1]
    coeffs = np.linalg.solve(lgram, lrows.T @ resid_sq)
    return theta, coeffs, rank_deficient, ridge_used or rank_deficient


def _per_pull_separate(inst, draws):
    phi = lift_arms(inst.arms)
    chosen = greedy_spanning_subset(phi, phi.shape[1])
    ((idx, ys),) = draws
    sample_vars = np.empty(len(chosen))
    for pos, arm in enumerate(chosen):
        obs = ys[idx == arm]
        sample_vars[pos] = np.mean((obs - obs.mean()) ** 2)
    return None, np.linalg.solve(phi[chosen], sample_vars), False, False


class TestPerPullEquivalence:
    """Sufficient-statistic estimators match the one-row-per-pull regressions.

    The moments are reduced from captured pulls (``per_pull_moments``), so
    both forms see the same data.
    """

    ESTIMATORS = {
        "head": (lambda inst, env, seed: head_estimate(inst, env, 4000), _per_pull_head),
        "uniform": (lambda inst, env, seed: uniform_estimate(inst, env, 4000), _per_pull_uniform),
        "separate_arm": (
            lambda inst, env, seed: separate_arm_estimate(inst, env, 4000),
            _per_pull_separate,
        ),
    }

    def _check(self, inst, est, reference, draws):
        theta, coeffs, rank_deficient, _ = reference(inst, draws)
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
    def test_matches_per_pull_regression(self, per_pull_sampling, kind, seed):
        inst = build_varest_instance({"d": 4, "n_sphere": 30, "n_small": 60}, seed)
        env = Environment.from_instance(inst, seed=seed)
        estimate, reference = self.ESTIMATORS[kind]
        est = estimate(inst, env, seed)
        assert sum(idx.size for idx, _ in per_pull_sampling) == est.budget_used
        self._check(inst, est, reference, per_pull_sampling)

    def test_head_rank_deficient_lift_keeps_min_norm(self, per_pull_sampling):
        # Basis arms lift onto the diagonal only, so the stage-2 pulls span
        # three of the six lift directions.
        inst = basis_instance()
        est = head_estimate(inst, Environment.from_instance(inst, seed=4), 600)
        assert est.rank_deficient
        self._check(inst, est, _per_pull_head, per_pull_sampling)

    @pytest.mark.parametrize("seed", [0, 1, 2, 4])
    def test_uniform_rank_deficient_keeps_min_norm(self, per_pull_sampling, seed):
        # Two pulls reach at most two of the three lift directions; the seeds
        # cover one arm pulled twice (1) and two different arms.
        inst = three_arm_instance()
        est = uniform_estimate(inst, Environment.from_instance(inst, seed=seed), 2)
        assert est.rank_deficient
        X, phi = inst.arms, lift_arms(inst.arms)
        ((idx, ys),) = per_pull_sampling
        theta = np.linalg.lstsq(X[idx], ys, rcond=None)[0]
        coeffs = np.linalg.lstsq(phi[idx], (ys - X[idx] @ theta) ** 2, rcond=None)[0]
        assert np.allclose(est.theta_hat, theta, rtol=0, atol=1e-10)
        assert np.allclose(vech(est.sigma_hat_matrix), coeffs, rtol=0, atol=1e-10)


class TestNoPerPullDraws:
    def test_library_never_draws_single_pulls(self, monkeypatch):
        # Every estimator, and the H-RAGE burn-in, reads per-arm moments only.
        def refuse(env, schedule):
            raise AssertionError("per-pull sample_schedule called")

        monkeypatch.setattr(Environment, "sample_schedule", refuse)
        inst = build_varest_instance({"d": 4, "n_sphere": 30, "n_small": 60}, 0)
        for estimate in (
            lambda env: head_estimate(inst, env, 4000),
            lambda env: uniform_estimate(inst, env, 4000),
            lambda env: separate_arm_estimate(inst, env, 4000),
        ):
            assert estimate(Environment.from_instance(inst, seed=3)).budget_used >= 4000
        task = IdentTask("bai", 0.05, three_arm_instance())
        trace = hrage_run(task, Environment.from_instance(task.instance, seed=2), RunConfig(c_prime=1.0))
        assert trace.burn_in_pulls > 0 and trace.correct
