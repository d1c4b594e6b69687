import gc
import math
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import grid_minimax_value
from hetbandit import (
    DesignProblem,
    ExperimentConfig,
    SpanViolation,
    build_preset,
    round_design,
    solve_design,
)
from hetbandit import design as design_module
from hetbandit.core import quad_form_inv
from hetbandit.design import MEMO_SIZE, _psd_inverse_cond, _psd_solve_cond, _solve_design


def kw_problem(arms, tolerance=1e-3):
    return DesignProblem(arms, arms, tolerance=tolerance)


class TestSolveDesign:
    def test_basis_symmetry(self):
        design = solve_design(kw_problem(np.eye(4)))
        assert design.value == pytest.approx(4.0, rel=1e-3)
        assert np.allclose(design.weights, 0.25, atol=1e-3)
        assert design.certified

    def test_random_spanning_sets_reach_dimension(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            d = int(rng.integers(2, 7))
            arms = rng.standard_normal((int(rng.integers(d, 25)), d))
            design = solve_design(kw_problem(arms, tolerance=5e-3))
            assert design.certified
            assert design.value == pytest.approx(d, rel=0.01)

    def test_transductive_matches_grid_search(self):
        arms = np.array([[1.0, 0.0], [0.0, 1.0], [np.cos(0.5), np.sin(0.5)]])
        diffs = np.array([arms[0] - arms[1], arms[0] - arms[2], arms[1] - arms[2]])
        design = solve_design(DesignProblem(arms, diffs, tolerance=1e-3))
        oracle = grid_minimax_value(arms, diffs, None, step=1e-3)
        assert design.value == pytest.approx(oracle, rel=5e-3)

    def test_weighted_matches_grid_search(self):
        arms = np.array([[1.0, 0.0], [0.0, 1.0], [np.cos(0.5), np.sin(0.5)]])
        diffs = np.array([arms[0] - arms[1], arms[0] - arms[2]])
        variances = np.array([1.0, 4.0, 0.5])
        design = solve_design(DesignProblem(arms, diffs, variances=variances, tolerance=1e-3))
        oracle = grid_minimax_value(arms, diffs, variances, step=1e-3)
        assert design.value == pytest.approx(oracle, rel=5e-3)

    def test_span_violation_at_construction(self):
        arms = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(SpanViolation):
            DesignProblem(arms, np.array([[0.0, 0.0, 1.0]]))

    def test_rank_deficient_samples_solved_in_span(self):
        arms = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
        design = solve_design(kw_problem(arms))
        assert design.value == pytest.approx(2.0, rel=1e-2)

    def test_weight_covariance(self):
        rng = np.random.default_rng(9)
        arms = rng.standard_normal((8, 3))
        diffs = arms[:4] - arms[4:]
        w = rng.uniform(0.5, 2.0, size=8)
        base = solve_design(DesignProblem(arms, diffs, variances=w, tolerance=1e-3))
        scaled = solve_design(DesignProblem(arms, diffs, variances=2.0 * w, tolerance=1e-3))
        assert scaled.value == pytest.approx(2.0 * base.value, rel=1e-4)
        assert np.array_equal(base.support, scaled.support)

    def test_monotone_in_eval_set(self):
        rng = np.random.default_rng(13)
        arms = rng.standard_normal((10, 3))
        evals = rng.standard_normal((4, 3))
        small = solve_design(DesignProblem(arms, evals[:3], tolerance=1e-3))
        grown = solve_design(DesignProblem(arms, evals, tolerance=1e-3))
        assert grown.value >= small.value * (1 - 2e-3)

    def test_deterministic(self):
        # The uncached engine twice, then the memo: a hit must equal both.
        rng = np.random.default_rng(21)
        arms = rng.standard_normal((12, 4))
        evals = rng.standard_normal((6, 4))
        one = _solve_design(DesignProblem(arms, evals, tolerance=1e-3))
        two = _solve_design(DesignProblem(arms, evals, tolerance=1e-3))
        assert np.array_equal(one.weights, two.weights)
        assert one.value == two.value
        solve_design(DesignProblem(arms, evals, tolerance=1e-3))
        hit = solve_design(DesignProblem(arms, evals, tolerance=1e-3))
        assert np.array_equal(hit.weights, one.weights)
        assert hit.value == one.value

    def test_non_certified_flag_on_iteration_cap(self):
        rng = np.random.default_rng(2)
        arms = rng.standard_normal((15, 4))
        design = solve_design(DesignProblem(arms, arms, tolerance=1e-9, max_iters=3))
        assert not design.certified

    def test_support_pruned(self):
        rng = np.random.default_rng(4)
        arms = rng.standard_normal((20, 3))
        design = solve_design(kw_problem(arms))
        nonzero = design.weights[design.weights > 0]
        assert np.all(nonzero >= 1e-7)
        assert design.support_size == nonzero.size

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            DesignProblem(np.eye(2), np.eye(2), variances=np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            DesignProblem(np.eye(2), np.eye(2), tolerance=0.0)
        with pytest.raises(Exception):
            DesignProblem(np.eye(2), np.eye(3))


def random_spd(rng, k):
    g = rng.standard_normal((k, k + 2))
    return g @ g.T + 0.1 * np.eye(k)


class TestPsdInverse:
    def test_matches_numpy_inverse(self):
        rng = np.random.default_rng(17)
        for k in (1, 2, 3, 4, 7, 12):
            a = random_spd(rng, k)
            a_inv, _ = _psd_inverse_cond(a)
            expected = np.linalg.inv(a)
            assert np.linalg.norm(a_inv - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_condition_proxy_matches_solve(self):
        rng = np.random.default_rng(18)
        for k in (2, 4, 9):
            a = random_spd(rng, k)
            _, cond = _psd_inverse_cond(a)
            _, solve_cond = _psd_solve_cond(a, np.eye(k))
            assert cond == solve_cond

    def test_singular_psd(self):
        for a in (np.ones((2, 2)), np.zeros((3, 3)), np.diag([1.0, 0.0, 2.0])):
            assert _psd_inverse_cond(a) == (None, math.inf)
            assert _psd_solve_cond(a, np.eye(a.shape[0])) == (None, math.inf)


class TestSolveDesignPinned:
    """Weights and values of two certified solves, as computed before the
    engines factored each information matrix only once per step."""

    def test_example1_hrage_round(self):
        # Round 2 of an H-RAGE run on example1: six arms still active, with
        # the burn-in variance estimates as weights.
        arms = build_preset(ExperimentConfig("example1")).instance.arms
        active = arms[[0, 4, 5, 6, 7, 8]]
        iu, ju = np.triu_indices(active.shape[0], k=1)
        variances = [
            0.9556498000478895, 0.9566403625143718, 0.16980203844239408,
            0.16896311864239094, 1.0, 0.9980605277551038, 0.9311481089437686,
            0.5793892044281415, 0.5393462861808552,
        ]
        design = _solve_design(
            DesignProblem(arms, active[iu] - active[ju], variances=variances, tolerance=1e-2)
        )
        pinned = [
            0.41495269440605786, 0.41358469804858883, 0.0858450502499384,
            0.08560567143836206, 0.0, 0.0, 1.1885857052892691e-05, 0.0, 0.0,
        ]
        assert design.certified
        np.testing.assert_allclose(design.weights, pinned, rtol=0, atol=1e-7)
        assert design.value == pytest.approx(1.40098751299929, rel=1e-7)

    def test_weighted_three_arms(self):
        arms = np.array([[1.0, 0.0], [0.0, 1.0], [np.cos(0.5), np.sin(0.5)]])
        diffs = np.array([arms[0] - arms[1], arms[0] - arms[2]])
        design = _solve_design(
            DesignProblem(arms, diffs, variances=np.array([1.0, 4.0, 0.5]), tolerance=1e-3)
        )
        assert design.certified
        np.testing.assert_allclose(
            design.weights, [0.3333052658170322, 0.6666947341829678, 0.0], rtol=0, atol=1e-7
        )
        assert design.value == pytest.approx(9.000000031906655, rel=1e-7)


class GreedyCalled(Exception):
    pass


class TestGreedyStartOnDemand:
    @pytest.fixture
    def no_greedy(self, monkeypatch):
        def refuse(vectors, size):
            raise GreedyCalled

        monkeypatch.setattr(design_module, "greedy_spanning_subset", refuse)

    def test_d_optimal_skips_it(self, no_greedy):
        arms = np.random.default_rng(6).standard_normal((10, 3))
        design = _solve_design(kw_problem(arms))
        assert design.certified
        assert design.value == pytest.approx(3.0, rel=1e-3)

    def test_certified_transductive_skips_it(self, no_greedy):
        rng = np.random.default_rng(9)
        arms = rng.standard_normal((8, 3))
        variances = rng.uniform(0.5, 2.0, size=8)
        design = _solve_design(
            DesignProblem(arms, arms[:4] - arms[4:], variances=variances, tolerance=1e-3)
        )
        assert design.certified

    def test_weighted_self_evaluating_reads_it(self, no_greedy):
        arms = np.random.default_rng(10).standard_normal((6, 2))
        with pytest.raises(GreedyCalled):
            _solve_design(DesignProblem(arms, arms, variances=np.linspace(0.5, 2.0, 6)))


def memo_problem(seed=31, **kwargs):
    rng = np.random.default_rng(seed)
    arms = rng.standard_normal((8, 3))
    evals = rng.standard_normal((4, 3))
    kwargs.setdefault("tolerance", 1e-3)
    return DesignProblem(arms, evals, **kwargs)


@pytest.fixture
def empty_memo():
    design_module._memo.clear()
    yield design_module._memo
    design_module._memo.clear()


class TestSolveDesignMemo:
    def test_repeat_matches_engine(self, empty_memo):
        fresh = _solve_design(memo_problem())
        first = solve_design(memo_problem())
        again = solve_design(memo_problem())
        assert again is first
        assert len(empty_memo) == 1
        for design in (first, again):
            assert np.array_equal(design.weights, fresh.weights)
            assert design.value == fresh.value
            assert design.certified == fresh.certified
            assert np.array_equal(design.support, fresh.support)

    def test_changed_inputs_miss(self, empty_memo):
        base = memo_problem()
        arms, evals = base.sample_vectors, base.eval_vectors
        nudged = arms.copy()
        nudged[2, 1] = np.nextafter(nudged[2, 1], np.inf)
        variants = [
            base,
            DesignProblem(arms, evals, variances=np.full(8, 2.0), tolerance=1e-3),
            DesignProblem(arms, evals, tolerance=2e-3),
            DesignProblem(arms, evals, tolerance=1e-3, max_iters=19_999),
            DesignProblem(arms, evals[::-1], tolerance=1e-3),
            DesignProblem(nudged, evals, tolerance=1e-3),
        ]
        designs = [solve_design(problem) for problem in variants]
        assert len(empty_memo) == len(variants)
        assert len({id(design) for design in designs}) == len(variants)

    def test_oldest_entry_evicted(self, empty_memo, monkeypatch):
        calls = []

        def fake_engine(problem):
            calls.append(problem)
            return design_module.Design(weights=np.full(2, 0.5), value=1.0, support_size=2)

        monkeypatch.setattr(design_module, "_solve_design", fake_engine)
        problems = [DesignProblem(np.eye(2), np.eye(2), tolerance=1e-3 * (k + 1))
                    for k in range(MEMO_SIZE + 1)]
        for problem in problems:
            solve_design(problem)
        assert len(empty_memo) == MEMO_SIZE
        solve_design(problems[-1])
        assert len(calls) == MEMO_SIZE + 1
        solve_design(problems[0])
        assert len(calls) == MEMO_SIZE + 2

    def test_failed_solve_not_stored(self, empty_memo, monkeypatch):
        def failing_engine(problem):
            raise design_module.SingularInformation(0.0)

        monkeypatch.setattr(design_module, "_solve_design", failing_engine)
        with pytest.raises(design_module.SingularInformation):
            solve_design(memo_problem())
        assert len(empty_memo) == 0

    def test_threads_share_memo(self, empty_memo, monkeypatch):
        # A small memo with one problem more than fits: threads keep hitting
        # entries that others are evicting.
        def fake_engine(problem):
            return design_module.Design(weights=np.full(2, 0.5), value=problem.tolerance,
                                        support_size=2)

        monkeypatch.setattr(design_module, "_solve_design", fake_engine)
        monkeypatch.setattr(design_module, "MEMO_SIZE", 4)
        problems = [DesignProblem(np.eye(2), np.eye(2), tolerance=1e-3 * (k + 1)) for k in range(5)]
        errors = []

        def worker(offset):
            try:
                for k in range(4000):
                    problem = problems[(k * offset) % len(problems)]
                    if solve_design(problem).value != problem.tolerance:
                        errors.append(k)
            except Exception as exc:  # reported through the list below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i + 1,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(empty_memo) <= 4

    def test_problem_not_kept_alive(self, empty_memo):
        problem = memo_problem()
        solve_design(problem)
        refs = [weakref.ref(obj) for obj in (problem, problem.sample_vectors,
                                             problem.eval_vectors, problem.variances)]
        del problem
        gc.collect()
        assert all(ref() is None for ref in refs)


def realized_value(schedule, arms, evals, variances=None):
    w = np.ones(arms.shape[0]) if variances is None else variances
    counts = np.asarray(schedule.counts, dtype=np.float64)
    info = (arms * (counts / w)[:, None]).T @ arms
    return max(quad_form_inv(info, v) for v in evals)


class TestRoundDesign:
    def test_even_split_ceiling(self):
        design = solve_design(kw_problem(np.eye(2)))
        schedule = round_design(design, 10, "ceiling")
        assert schedule.counts == (5, 5)
        assert schedule.total == 10

    def test_ceiling_overshoot_on_thirds(self):
        design = solve_design(kw_problem(np.eye(3)))
        schedule = round_design(design, 10, "ceiling")
        assert schedule.counts == (4, 4, 4)
        assert schedule.total == 12

    def test_efficient_total_exact(self):
        rng = np.random.default_rng(17)
        arms = rng.standard_normal((6, 3))
        design = solve_design(kw_problem(arms))
        schedule = round_design(design, 100, "efficient")
        assert schedule.total == 100
        assert all(c >= 0 for c in schedule.counts)

    def test_efficient_factor_contract(self):
        # Realized value within (1 + 6 eps) of the continuous value at the
        # same budget, for eps = 1/3 and N >= 5 d / eps^2.
        rng = np.random.default_rng(23)
        eps = 1.0 / 3.0
        for trial in range(3):
            d = 3
            arms = rng.standard_normal((5 + trial, d))
            design = solve_design(kw_problem(arms, tolerance=1e-4))
            n = int(np.ceil(5 * d / eps**2))
            schedule = round_design(design, n, "efficient")
            realized = realized_value(schedule, arms, arms)
            continuous = design.value / n
            assert realized <= (1 + 6 * eps) * continuous

    def test_efficient_loose_triple_bound_at_200(self):
        rng = np.random.default_rng(29)
        arms = rng.standard_normal((5, 3))
        design = solve_design(kw_problem(arms, tolerance=1e-4))
        schedule = round_design(design, 200, "efficient")
        realized = realized_value(schedule, arms, arms)
        assert realized <= 3 * design.value / 200

    def test_fractional_budget_ceiling(self):
        design = solve_design(kw_problem(np.eye(2)))
        schedule = round_design(design, 10.5, "ceiling")
        assert schedule.total >= 10.5

    def test_rejects_nonpositive_budget(self):
        design = solve_design(kw_problem(np.eye(2)))
        with pytest.raises(ValueError):
            round_design(design, 0)

    def test_rejects_unknown_mode(self):
        design = solve_design(kw_problem(np.eye(2)))
        with pytest.raises(ValueError):
            round_design(design, 5, "exotic")

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 500), st.integers(0, 2**32 - 1))
    def test_ceiling_bounds_property(self, n, seed):
        rng = np.random.default_rng(seed)
        weights = rng.dirichlet(np.ones(4))
        from hetbandit import Design

        design = Design(weights=weights, value=1.0, support_size=int((weights > 0).sum()))
        schedule = round_design(design, n, "ceiling")
        assert n <= schedule.total <= n + design.support_size
