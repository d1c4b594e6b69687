import math

import numpy as np
import pytest

from conftest import grid_psi_value, random_bai_instance, silent_env
from hetbandit import (
    DegenerateGap,
    Environment,
    ExperimentConfig,
    HeteroInstance,
    IdentTask,
    RunConfig,
    build_preset,
    hrage_run,
    oracle_run,
    psi_star,
    rage_run,
)
from hetbandit import ident
from hetbandit.core import fit_arm_sums
from hetbandit.ident import _identification_pairs, round_budget


def two_target_instance(gap=0.1):
    arms = np.eye(2)
    targets = np.array([[1.0, 0.0], [1.0 - gap, 0.0]])
    return HeteroInstance(arms, targets, np.array([1.0, 0.0]), np.eye(2), 1.0, 1.0)


def single_target_instance():
    return HeteroInstance(np.eye(2), np.array([[1.0, 0.0]]), np.array([1.0, 0.0]), np.eye(2), 1.0, 1.0)


def wls(xs, ys, weights=None):
    """Weighted least squares with one pull per row, through ``fit_arm_sums``."""
    return fit_arm_sums(xs, np.ones(len(ys)), ys, weights)[0]


def min_gap(task):
    """Smallest gap of the pairs a complexity report scales by."""
    return _identification_pairs(task)[1].min()


def ladder_ls_instance():
    arms = np.eye(2)
    targets = np.array([[1.0, 0.0], [0.4, 0.0], [0.0, 1.0]])
    # values 1.0, 0.4, 0.0 against threshold 0.7: gaps 0.3, 0.3, 0.7
    return HeteroInstance(arms, targets, np.array([1.0, 0.0]), np.eye(2), 1.0, 1.0)


class TestWls:
    def test_exact_recovery_noiseless(self):
        xs = np.eye(3)
        theta = np.array([0.5, -1.0, 2.0])
        assert np.allclose(wls(xs, xs @ theta), theta)

    def test_weights_equal_duplication(self):
        rng = np.random.default_rng(1)
        xs = rng.standard_normal((4, 2))
        ys = rng.standard_normal(4)
        doubled = wls(np.vstack([xs, xs[:1]]), np.append(ys, ys[0]))
        weighted = wls(xs, ys, weights=[2.0, 1.0, 1.0, 1.0])
        assert np.allclose(doubled, weighted, atol=1e-12)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(2)
        xs = rng.standard_normal((30, 4))
        ys = rng.standard_normal(30)
        w = rng.uniform(0.5, 2.0, 30)
        expected = np.linalg.solve((xs * w[:, None]).T @ xs, (xs * w[:, None]).T @ ys)
        assert np.allclose(wls(xs, ys, weights=w), expected, rtol=1e-9)

    def test_rank_deficient_rows_give_min_norm_fit(self):
        # Two pulled arms in R^4, as a sparse design with a singular optimum
        # leaves them: only directions in their span are identified.
        xs = np.array([[1.0, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 1.0]])
        ys = np.array([0.015, 0.02])
        w = np.array([4.0e6, 2.5e6])
        theta = wls(xs, ys, weights=w)
        np.testing.assert_allclose(theta, np.linalg.pinv(xs) @ ys, rtol=0, atol=1e-15)
        assert (xs[0] - xs[1]) @ theta == pytest.approx(-0.005, rel=1e-12)


class TestTaskAndGap:
    def test_two_arm_gap(self):
        task = IdentTask("bai", 0.05, two_target_instance(0.5))
        assert min_gap(task) == pytest.approx(0.5)

    def test_ls_gap_all_above(self):
        inst = ladder_ls_instance()
        task = IdentTask("ls", 0.05, inst, alpha=-0.5)
        assert min_gap(task) == pytest.approx(0.5)

    def test_random_gap_matches_loop(self):
        rng = np.random.default_rng(3)
        task = random_bai_instance(rng, 3, 6)
        values = task.instance.target_values()
        best = values.max()
        expected = min(best - v for v in values if v < best)
        assert min_gap(task) == pytest.approx(expected)

    def test_bai_requires_unique_max(self):
        arms = np.eye(2)
        targets = np.array([[1.0, 0.0], [1.0, 0.0]])
        inst = HeteroInstance(arms, targets, np.array([1.0, 0.0]), np.eye(2), 1.0, 1.0)
        with pytest.raises(ValueError):
            IdentTask("bai", 0.05, inst)

    def test_ls_rejects_on_threshold(self):
        inst = ladder_ls_instance()
        with pytest.raises(ValueError):
            IdentTask("ls", 0.05, inst, alpha=0.4)

    def test_objective_and_delta_validation(self):
        inst = two_target_instance()
        with pytest.raises(ValueError):
            IdentTask("rank", 0.05, inst)
        with pytest.raises(ValueError):
            IdentTask("bai", 0.0, inst)
        for alpha in (math.nan, math.inf):
            with pytest.raises(ValueError):
                IdentTask("ls", 0.05, inst, alpha=alpha)


class TestSilentRuns:
    def test_bai_terminates_at_round_four(self):
        # gap 0.1 falls to the elimination rule exactly when the error radius
        # drops below it: rounds 1..3 keep both targets, round 4 decides.
        task = IdentTask("bai", 0.05, two_target_instance(0.1))
        trace = hrage_run(task, silent_env(task.instance), RunConfig(c_prime=1.0))
        assert len(trace.rounds) == 4
        assert trace.answer == 0 and trace.correct
        assert [r.epsilon for r in trace.rounds] == [0.5, 0.25, 0.125, 0.0625]
        for record in trace.rounds:
            assert 0 in record.active_indices

    def test_ls_classifies_by_round_two(self):
        inst = ladder_ls_instance()
        task = IdentTask("ls", 0.05, inst, alpha=0.7)
        trace = hrage_run(task, silent_env(inst), RunConfig(c_prime=1.0))
        assert len(trace.rounds) <= 2
        assert trace.answer == task.true_answer() == frozenset({0})
        assert trace.correct

    def test_ls_partition_exact_in_silent_mode(self):
        inst = ladder_ls_instance()
        task = IdentTask("ls", 0.05, inst, alpha=0.2)
        trace = hrage_run(task, silent_env(inst), RunConfig(c_prime=1.0))
        assert trace.answer == frozenset({0, 1})
        assert trace.correct

    def test_elimination_progress_bound(self):
        # After round l no survivor's gap exceeds twice the error radius.
        arms = np.eye(2)
        targets = np.array([[1.0, 0.0], [0.9, 0.0], [0.6, 0.0], [0.2, 0.0]])
        inst = HeteroInstance(arms, targets, np.array([1.0, 0.0]), np.eye(2), 1.0, 1.0)
        task = IdentTask("bai", 0.05, inst)
        trace = hrage_run(task, silent_env(inst), RunConfig(c_prime=1.0))
        values = inst.target_values()
        best = values.max()
        for record, nxt in zip(trace.rounds, trace.rounds[1:]):
            survivors = np.array(nxt.active_indices)
            assert np.all(best - values[survivors] <= 2 * record.epsilon + 1e-12)

    def test_burn_in_counted_in_totals(self):
        task = IdentTask("bai", 0.05, two_target_instance(0.1))
        trace = hrage_run(task, silent_env(task.instance), RunConfig(c_prime=1.0))
        assert trace.burn_in_pulls > 0
        assert trace.total_pulls == trace.burn_in_pulls + sum(r.pulls for r in trace.rounds)

    def test_rage_has_no_burn_in(self):
        task = IdentTask("bai", 0.05, two_target_instance(0.1))
        trace = rage_run(task, silent_env(task.instance))
        assert trace.burn_in_pulls == 0
        assert trace.correct and len(trace.rounds) == 4

    def test_single_target_returns_immediately(self):
        inst = single_target_instance()
        task = IdentTask("bai", 0.05, inst)
        for runner in (rage_run, hrage_run):
            trace = runner(task, silent_env(inst))
            assert trace.total_pulls == 0 and trace.correct and trace.answer == 0

    def test_non_terminated_flag(self):
        task = IdentTask("bai", 0.05, two_target_instance(0.1))
        trace = hrage_run(task, silent_env(task.instance), RunConfig(c_prime=1.0, max_rounds=2))
        assert trace.non_terminated
        assert trace.correct  # the post-hoc answer still picks the leader

    def test_counts_beyond_int64_run_to_max_rounds(self):
        # A target 1e-13 from the threshold keeps rage running to round 40;
        # a round's pull count passes 2**64 from about round 32 and still draws.
        inst = two_target_instance(0.5)
        task = IdentTask("ls", 0.05, inst, alpha=1.0 + 1e-13)
        trace = rage_run(task, silent_env(inst))
        assert trace.non_terminated and len(trace.rounds) == 40
        assert trace.rounds[-1].pulls > 2**64


class TestNoisyRuns:
    def test_hrage_correct_with_noise(self):
        arms = np.eye(2)
        targets = np.array([[1.0, 0.0], [0.55, 0.0], [0.0, 1.0]])
        inst = HeteroInstance.from_truth(arms, targets, np.array([1.0, 0.2]), np.diag([1.0, 0.3]))
        task = IdentTask("bai", 0.05, inst)
        wins = 0
        for seed in range(8):
            trace = hrage_run(task, Environment.from_instance(inst, seed=seed), RunConfig(c_prime=1.0))
            wins += trace.correct
        assert wins >= 7

    @pytest.mark.parametrize("preset_name, alpha", [("example1", 0.99), ("example2", 0.99),
                                                    ("multivariate", 0.005)])
    def test_hrage_level_set_delta_pac(self, preset_name, alpha):
        # Level-set identification under noise on the fixed-arm presets'
        # instances, gated like criterion 8: correct on 30 of 32 seeds.
        bundle = build_preset(ExperimentConfig(preset=preset_name))
        task = IdentTask("ls", bundle.task.delta, bundle.instance, alpha)
        config = RunConfig(c_prime=1.0)
        hits = sum(hrage_run(task, Environment.from_instance(bundle.instance, seed=seed), config).correct
                   for seed in range(32))
        assert hits >= 30

    def test_weight_scaling_leaves_design_support(self):
        from hetbandit.design import DesignProblem, solve_design

        rng = np.random.default_rng(5)
        arms = rng.standard_normal((6, 3))
        diffs = rng.standard_normal((4, 3))
        sig = rng.uniform(0.5, 2.0, 6)
        base = solve_design(DesignProblem(arms, diffs, variances=sig, tolerance=1e-3))
        scaled = solve_design(DesignProblem(arms, diffs, variances=2.0 * sig, tolerance=1e-3))
        assert np.array_equal(base.support, scaled.support)
        assert scaled.value == pytest.approx(2.0 * base.value, rel=1e-4)

    def test_round_budget_monotone(self):
        base = round_budget(0.25, 3.0, 8, 0.05, 2, 3.0)
        assert round_budget(0.25, 3.0, 16, 0.05, 2, 3.0) > base
        assert round_budget(0.25, 3.0, 8, 0.01, 2, 3.0) > base

    @pytest.mark.parametrize("runner, objective, alpha", [(hrage_run, "bai", 0.0), (rage_run, "bai", 0.0),
                                                          (hrage_run, "ls", 0.99)])
    def test_one_solve_per_active_set(self, monkeypatch, runner, objective, alpha):
        # Rounds that keep the active set of the round before reuse its
        # design: one solve per distinct active set, one value across its rounds.
        problems = []
        solve = ident.solve_design
        monkeypatch.setattr(ident, "solve_design", lambda problem: problems.append(problem) or solve(problem))
        bundle = build_preset(ExperimentConfig(preset="example1"))
        task = IdentTask(objective, bundle.task.delta, bundle.instance, alpha)
        trace = runner(task, Environment.from_instance(bundle.instance, seed=5), RunConfig(c_prime=1.0))
        values = {}
        for record in trace.rounds:
            values.setdefault(record.active_indices, set()).add(record.design_value)
        assert trace.correct and len(trace.rounds) > len(values) > 1
        assert len(problems) == len(values)
        assert all(len(shared) == 1 for shared in values.values())


class TestComplexity:
    def test_two_arm_closed_form(self):
        arms = np.eye(2)
        inst = HeteroInstance(arms, arms, np.array([1.0, 0.5]), np.eye(2), 1.0, 1.0)
        task = IdentTask("bai", 0.05, inst)
        report = psi_star(task)
        assert report.psi_star == pytest.approx(16.0, rel=0.01)
        assert report.rho_star == pytest.approx(16.0, rel=0.01)

    def test_constant_variance_means_equal_functionals(self):
        rng = np.random.default_rng(11)
        task = random_bai_instance(rng, 3, 5)
        inst = task.instance
        sig_max = inst.sigma_max_sq
        report = psi_star(task, variances=np.full(inst.n_arms, sig_max))
        assert report.ratio == pytest.approx(1.0, abs=1e-9)

    def test_matches_grid_search_random_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(3):
            task = random_bai_instance(rng, 2, 3)
            report = psi_star(task)
            oracle = grid_psi_value(task, task.instance.arm_variances(), step=1e-2)
            assert report.psi_star == pytest.approx(oracle, rel=0.01)

    def test_sandwich_small_batch(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            task = random_bai_instance(rng, int(rng.integers(2, 5)), int(rng.integers(4, 8)))
            report = psi_star(task)
            kappa = task.instance.kappa()
            assert report.ratio >= 1.0 / kappa - 1e-6
            assert report.ratio <= 1.0 + 1e-4

    def test_degenerate_gap_raises(self):
        arms = np.eye(2)
        targets = np.array([[1.0, 0.0], [1.0 - 1e-13, 0.0]])
        inst = HeteroInstance(arms, targets, np.array([1.0, 0.0]), np.eye(2), 1.0, 1.0)
        task = IdentTask("bai", 0.05, inst)
        with pytest.raises(DegenerateGap):
            psi_star(task)

    def test_single_target_raises(self):
        # One target leaves no pair to identify, so no complexity is defined.
        task = IdentTask("bai", 0.05, single_target_instance())
        with pytest.raises(DegenerateGap, match="one target"):
            psi_star(task)

    def test_lower_bound_formula(self):
        rng = np.random.default_rng(29)
        task = random_bai_instance(rng, 2, 4)
        report = psi_star(task)
        delta = 0.05
        expected = 2.0 * report.psi_star * math.log(1.0 / (2.4 * delta))
        assert report.lower_bound_samples(delta) == pytest.approx(expected)
        # Above delta = 1/2.4 the logarithm is negative, and the bound is 0.
        assert report.lower_bound_samples(0.5) == 0.0


class TestOracleRuns:
    def test_silent_verifies_first_batch(self):
        task = IdentTask("bai", 0.05, two_target_instance(0.2))
        trace = oracle_run(task, silent_env(task.instance), "truth")
        assert len(trace.rounds) == 1
        assert not trace.non_terminated
        assert trace.correct

    def test_silent_ls_verifies(self):
        inst = ladder_ls_instance()
        task = IdentTask("ls", 0.05, inst, alpha=0.7)
        trace = oracle_run(task, silent_env(inst), "max")
        assert len(trace.rounds) == 1 and trace.correct

    def test_truth_oracle_no_more_pulls_than_max(self):
        rng = np.random.default_rng(31)
        task = random_bai_instance(rng, 2, 4)
        truth_pulls, max_pulls = [], []
        for seed in range(6):
            env = Environment.from_instance(task.instance, seed=seed)
            truth_pulls.append(oracle_run(task, env, "truth").total_pulls)
            env = Environment.from_instance(task.instance, seed=100 + seed)
            max_pulls.append(oracle_run(task, env, "max").total_pulls)
        assert np.mean(truth_pulls) <= np.mean(max_pulls)

    def test_batch_covered_by_overshoot_draws_nothing(self):
        # Understated variances make the nominal budget one pull, so the
        # ceiling overshoot of batch 1 already covers the target of batch 2.
        inst = HeteroInstance(np.eye(2), np.eye(2), np.array([1.0, 0.0]), np.eye(2), 1.0, 1.0)
        task = IdentTask("bai", 0.05, inst)
        env = Environment.from_instance(inst, seed=2)
        trace = oracle_run(task, env, "truth", variances=np.full(2, 1e-9))
        assert [r.pulls for r in trace.rounds] == [2, 0, 2]
        assert trace.total_pulls == env.pull_count == 4

    @pytest.mark.parametrize("source", ["truth", "max"])
    def test_solves_only_the_design_it_samples(self, monkeypatch, source):
        problems = []
        solve = ident.solve_design
        monkeypatch.setattr(ident, "solve_design", lambda problem: problems.append(problem) or solve(problem))
        task = IdentTask("bai", 0.05, two_target_instance(0.2))
        oracle_run(task, silent_env(task.instance), source)
        assert len(problems) == 1

    def test_bad_source_rejected(self):
        task = IdentTask("bai", 0.05, two_target_instance(0.2))
        with pytest.raises(ValueError):
            oracle_run(task, silent_env(task.instance), "guess")
