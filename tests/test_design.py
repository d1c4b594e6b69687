import dataclasses
import gc
import logging
import math
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import grid_minimax_value
from hetbandit import (
    DesignProblem,
    ExperimentConfig,
    SpanViolation,
    build_preset,
    round_design,
    run_suite,
    solve_design,
)
from hetbandit import design as design_module
from hetbandit.core import Design, fit_arm_sums, lift_arms, quad_forms
from hetbandit.design import (
    MEMO_SIZE,
    _d_optimal_solve,
    _floored_eg_solve,
    _solve_design,
    _whiten,
)
from hetbandit.presets import PRESET_DEFAULTS, build_varest_instance
from hetbandit.varest import DEFAULT_FW_TOL


def kw_problem(arms, tolerance=1e-3):
    return DesignProblem(arms, arms, tolerance=tolerance)


class EngineCalled(Exception):
    pass


@pytest.fixture
def refuse_engine(monkeypatch):
    """Replaces the transductive engine by a stub that fails on any call."""

    def refuse(*args):
        raise EngineCalled

    monkeypatch.setattr(design_module, "_floored_eg_solve", refuse)


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
        # Construction only validates; the solve finds the span.
        arms = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        problem = DesignProblem(arms, np.array([[0.0, 0.0, 1.0]]))
        with pytest.raises(SpanViolation):
            solve_design(problem)

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

    def test_invariant_under_ill_conditioned_map(self, monkeypatch):
        # The value v' A^-1 v does not change under an invertible map of the
        # space, so neither may the solve. The first map squeezes one axis of
        # a transductive problem by 1e-4; the others squeeze one axis of a
        # self-evaluating problem by 1e-8, beyond what the Gram resolves, so
        # its whitening takes the SVD. Each solve certifies within 500 steps.
        monkeypatch.setattr(design_module, "MAX_STEPS", 500)
        rng = np.random.default_rng(31)
        arms = rng.standard_normal((8, 3))
        evals = rng.standard_normal((4, 3))
        variances = rng.uniform(0.5, 2.0, size=8)
        q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        cases = ((evals, variances, q @ np.diag([1.0, 1e-2, 1e-4])),
                 (arms, None, np.diag([1.0, 1.0, 1e-8])),
                 (arms, variances, q @ np.diag([1.0, 1e-4, 1e-8])))
        for evals, variances, t in cases:
            base = _solve_design(DesignProblem(arms, evals, variances=variances, tolerance=1e-3))
            mapped = _solve_design(DesignProblem(arms @ t, evals @ t, variances=variances, tolerance=1e-3))
            assert base.certified and mapped.certified
            np.testing.assert_allclose(mapped.weights, base.weights, rtol=0, atol=1e-12)
            assert mapped.value == pytest.approx(base.value, rel=1e-12)
        squeezed = np.array([[1.0, 0.0], [0.0, 1e-8]])
        assert _solve_design(DesignProblem(squeezed, squeezed)).value == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.uncertified
    def test_non_certified_flag_on_iteration_cap(self, refuse_engine, monkeypatch):
        monkeypatch.setattr(design_module, "MAX_STEPS", 3)
        rng = np.random.default_rng(2)
        arms = rng.standard_normal((15, 4))
        design = solve_design(DesignProblem(arms, arms, tolerance=1e-9))
        assert not design.certified

    @pytest.mark.uncertified
    def test_uncertified_solve_logs_its_gap(self, caplog, refuse_engine, monkeypatch):
        monkeypatch.setattr(design_module, "MAX_STEPS", 3)
        rng = np.random.default_rng(2)
        arms = rng.standard_normal((15, 4))
        with caplog.at_level(logging.WARNING, logger="hetbandit"):
            design = _solve_design(DesignProblem(arms, arms, tolerance=1e-9))
        assert not design.certified
        records = [r for r in caplog.records if r.name == "hetbandit"]
        assert len(records) == 1
        assert records[0].levelno == logging.WARNING
        gap = design.value / 4.0 - 1.0  # the known D-optimal bound is the rank
        assert f"gap {gap:.3g}" in records[0].getMessage()

    def test_certified_solve_logs_nothing(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="hetbandit"):
            assert _solve_design(DesignProblem(np.eye(2), [[1.0, 1.0]])).certified
        assert not [r for r in caplog.records if r.name == "hetbandit"]

    def test_support_pruned(self):
        rng = np.random.default_rng(4)
        arms = rng.standard_normal((20, 3))
        design = solve_design(kw_problem(arms))
        nonzero = design.weights[design.weights > 0]
        assert np.all(nonzero >= 1e-7)
        assert design.support_size == nonzero.size

    def test_rejects_bad_inputs(self):
        for variances in ([1.0, -1.0], [1.0, math.nan], [1.0, math.inf]):
            with pytest.raises(ValueError):
                DesignProblem(np.eye(2), np.eye(2), variances=np.array(variances))
        for tolerance in (0.0, math.nan, 1.0, math.inf):
            with pytest.raises(ValueError):
                DesignProblem(np.eye(2), np.eye(2), tolerance=tolerance)
        for weights in ([math.nan, 1.0], [math.inf, 1.0]):
            with pytest.raises(ValueError):
                Design(weights=weights, value=1.0)
        with pytest.raises(Exception):
            DesignProblem(np.eye(2), np.eye(3))
        with pytest.raises(ValueError, match="evaluation vector"):
            DesignProblem(np.eye(2), np.empty((0, 2)))


def cholesky_inverse_engine(X, V, prec, tolerance, max_steps):
    """Reference: the engine's gap rule, written as the engine stood before
    it solved for ``A^-1 V'`` directly. Every step inverts ``A`` through its
    Cholesky factor and forms ``C``, the quadratic forms and ``f`` afresh;
    a design update takes the 3/4 power of ``t``, and the last step is a
    mixture step.
    Returns the bound, the weights and the number of design updates."""
    n, m = X.shape[0], V.shape[0]
    eta = tolerance / 10.0
    mu = np.full(m, 1.0 / m)
    lam = np.full(n, 1.0 / n)
    best_bound, best_value, best_lam = -math.inf, math.inf, lam
    updates = 0
    for step in range(max_steps):
        A = (X * (((1.0 - eta) * lam + eta / n) * prec)[:, None]).T @ X
        c_inv = np.linalg.inv(np.linalg.cholesky(A))
        C = (c_inv.T @ c_inv) @ V.T
        quads = np.einsum("mr,rm->m", V, C)
        f = float(quads.max())
        if not np.isfinite(f) or f <= 0:
            break
        t = prec * ((X @ C) ** 2 @ mu)
        lam_t = float(lam @ t)
        phi = float(mu @ quads)
        design_gap = float(t.max()) - lam_t
        if step + 1 < max_steps and lam_t > 0 and design_gap > 0.5 * (f - phi) + 0.5 * tolerance * phi:
            lam = lam * t ** 0.75
            lam /= lam.sum()
            updates += 1
            continue
        best_bound = max(best_bound, (1.0 - eta) * (phi - (1.0 - eta) * design_gap))
        if f < best_value:
            best_value, best_lam = f, lam
        if best_value <= best_bound * (1.0 + tolerance):
            break
        mu = mu * np.exp(2.0 * (quads - f) / f)
        mu /= mu.sum()
    return best_bound, best_lam, updates


def count_solves(monkeypatch) -> list:
    """The arguments of every ``np.linalg.solve`` call from here on."""
    solve = np.linalg.solve
    calls = []

    def counting_solve(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    return calls


def weighted_transductive_problems(count=50, seed=60):
    """Whitened engine inputs: pairwise differences of random arms, with
    random variances and tolerances."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(d + 1, 10))
        arms = rng.standard_normal((n, d))
        iu, ju = np.triu_indices(n, k=1)
        pick = rng.choice(iu.size, size=int(rng.integers(1, min(iu.size, 6) + 1)), replace=False)
        problem = DesignProblem(arms, arms[iu[pick]] - arms[ju[pick]],
                                variances=rng.uniform(0.5, 2.0, size=n),
                                tolerance=float(rng.choice([1e-2, 1e-3])))
        X, V = _whiten(problem.sample_vectors, problem.eval_vectors, problem.variances)
        yield X, V, 1.0 / problem.variances, problem.tolerance, 2000


class TestFlooredEngine:
    def test_matches_cholesky_inverse_reference(self):
        for X, V, prec, tolerance, max_steps in weighted_transductive_problems():
            bound, lam = _floored_eg_solve(X, V, prec, tolerance, max_steps)
            ref_bound, ref_lam, _ = cholesky_inverse_engine(X, V, prec, tolerance, max_steps)
            assert abs(bound - ref_bound) <= 1e-12 * abs(ref_bound)
            np.testing.assert_allclose(lam, ref_lam, rtol=0, atol=1e-12)

    def test_one_solve_per_design_update(self, monkeypatch):
        # One factorization for the uniform start, then one after each design
        # update; mixture steps reuse the factor of the design they start on.
        calls = count_solves(monkeypatch)
        for X, V, prec, tolerance, max_steps in weighted_transductive_problems():
            _, _, updates = cholesky_inverse_engine(X, V, prec, tolerance, max_steps)
            calls.clear()
            _floored_eg_solve(X, V, prec, tolerance, max_steps)
            assert len(calls) == 1 + updates

    def test_solve_count_on_example1_rounds(self, monkeypatch):
        # Work, not time: five fixed design updates per mixture step made 690
        # solves on these H-RAGE rounds, and square-root design steps 336; the
        # 3/4-power steps take 236.
        calls = count_solves(monkeypatch)
        for rows in (range(9), [0, 4, 5, 6, 7, 8], [0, 4, 5], [0, 4, 5, 6], [4, 5, 6, 7, 8]):
            problem = example1_round_problem(list(rows))
            X, V = _whiten(problem.sample_vectors, problem.eval_vectors, problem.variances)
            _floored_eg_solve(X, V, 1.0 / problem.variances, problem.tolerance, design_module.MAX_STEPS)
        assert len(calls) <= 290

    def test_design_steps_stop_at_the_cap(self, monkeypatch):
        # One evaluation vector leaves no mixture side, and at a tolerance of
        # 1e-16 the design side never falls below its threshold, so the gap
        # rule alone would take design steps forever. The cap ends them with
        # a mixture step, whose bound certifies the last design after all.
        rng = np.random.default_rng(6)
        arms = rng.standard_normal((15, 4))
        monkeypatch.setattr(design_module, "MAX_STEPS", 500)
        problem = DesignProblem(arms, rng.standard_normal((1, 4)), tolerance=1e-16)
        X, V = _whiten(problem.sample_vectors, problem.eval_vectors, problem.variances)
        calls = count_solves(monkeypatch)
        bound, lam = _floored_eg_solve(X, V, np.ones(15), problem.tolerance, 500)
        assert len(calls) == 500
        assert 0 < bound < math.inf
        assert lam.max() > 10 * lam.min()
        assert _solve_design(problem).certified

    def test_example1_runs_certify_at_tolerance_1e4(self, caplog):
        # With square-root design steps one engine solve of these runs ended
        # all of MAX_STEPS 2e-4 from its bound.
        design_module._memo.clear()
        config = ExperimentConfig("example1", replications=2, base_seed=5, overrides={"fw_tol": 1e-4})
        with caplog.at_level(logging.WARNING, logger="hetbandit"):
            _, failed = run_suite(config)
        assert not failed
        assert not [r for r in caplog.records if r.name == "hetbandit" and "not certified" in r.getMessage()]

    def test_singular_information_ends_the_solve(self):
        # Unwhitened samples with a zero coordinate: the first A is singular.
        X = np.array([[1.0, 0.0], [2.0, 0.0]])
        bound, lam = _floored_eg_solve(X, np.array([[1.0, 0.0]]), np.ones(2), 1e-3, 100)
        assert bound == -math.inf
        np.testing.assert_array_equal(lam, [0.5, 0.5])

    def test_whitened_floor_bounds_condition(self):
        # Whitening gives the uniform design A = I, so every floored design
        # lam_eff = (1 - eta) lam + eta / n has eta I <= A <= n I.
        rng = np.random.default_rng(18)
        for n, d, squeeze in ((3, 3, 1e-4), (9, 4, 1e-6), (20, 5, 1.0)):
            arms = rng.standard_normal((n, d)) * np.geomspace(1.0, squeeze, d)
            variances = rng.uniform(0.5, 2.0, size=n)
            tolerance = 1e-3
            X, prec = _whiten(arms, arms[:2], variances)[0], 1.0 / variances
            uniform = (X * (prec / n)[:, None]).T @ X
            np.testing.assert_allclose(uniform, np.eye(d), rtol=0, atol=1e-12)
            eta = tolerance / 10.0
            for lam in (np.eye(n)[0], rng.dirichlet(np.full(n, 0.1))):
                lam_eff = (1.0 - eta) * lam + eta / n
                A = (X * (lam_eff * prec)[:, None]).T @ X
                eig = np.linalg.eigvalsh(A)
                assert eta * (1 - 1e-9) <= eig[0] and eig[-1] <= n * (1 + 1e-9)


def cholesky_inverse_d_optimal(X, prec, target, tolerance, max_iters):
    """Reference: the guarded accelerated D-optimal updates with each
    ``x' A^-1 x`` read as the squared norm of ``L^-1 x``, from the Cholesky
    factor ``L`` of ``A`` and its triangular inverse. The uniform design's
    ``A`` is the identity, so its forms are the squared row norms. Each
    step raises the forms' ratio to the rank to the power 2; one that raises
    the max form, or whose ``A`` does not factor, is retaken at power 1 from
    the previous weights. Returns the weights and the number of factors."""
    n, rank = X.shape
    lam = best_lam = np.full(n, 1.0 / n)
    quads = np.einsum("ij,ij->i", X, X)
    f = best_value = float(quads.max())
    steps, power = 0, 2
    while steps < max_iters and best_value > target * (1.0 + 0.8 * tolerance):
        step = lam * (prec * quads / rank) ** power
        step /= step.sum()
        steps += 1
        try:
            root = X @ np.linalg.inv(np.linalg.cholesky((X * (step * prec)[:, None]).T @ X)).T
            step_quads = np.einsum("ij,ij->i", root, root)
            step_f = float(step_quads.max())
        except np.linalg.LinAlgError:
            step_f = math.nan
        if power == 2 and not step_f <= f:
            power = 1
            continue
        if not 0 < step_f < math.inf:
            break
        lam, quads, f, power = step, step_quads, step_f, 2
        if f < best_value:
            best_value, best_lam = f, lam
    return best_lam, steps


class TestDOptimalWarmstart:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("lifted", [False, True])
    @pytest.mark.parametrize("tolerance", [DEFAULT_FW_TOL, 1e-3])
    def test_matches_cholesky_inverse_reference(self, monkeypatch, seed, lifted, tolerance):
        # HEAD's two D-optimal problems at d=15: the 500 arms and their
        # 120-column lifts, whitened as the solve whitens them.
        arms = build_varest_instance({**PRESET_DEFAULTS["varest"], "d": 15}, seed).arms
        rows = lift_arms(arms) if lifted else arms
        X, _ = _whiten(rows, rows, np.ones(rows.shape[0]))
        prec, target = np.ones(X.shape[0]), float(X.shape[1])
        max_iters = design_module.MAX_STEPS
        ref_lam, ref_steps = cholesky_inverse_d_optimal(X, prec, target, tolerance, max_iters)
        calls = []

        def counting(name):
            kernel = getattr(np.linalg, name)

            def wrapper(a):
                calls.append(name)
                return kernel(a)

            return wrapper

        with monkeypatch.context() as patch:
            for name in ("inv", "cholesky"):
                patch.setattr(np.linalg, name, counting(name))
            lam = _d_optimal_solve(X, prec, target, tolerance, max_iters)
        # One inverse of A and no factor per step, and as many steps as the
        # reference takes factors.
        assert calls == ["inv"] * ref_steps
        np.testing.assert_allclose(lam, ref_lam, rtol=1e-12, atol=0)
        assert (lam >= 0).all()


def count_inverses(monkeypatch, fail_on=()):
    """Records the matrix of each ``np.linalg.inv`` call; the calls numbered
    in ``fail_on`` (from 1) raise ``LinAlgError`` as a singular ``A`` would."""
    calls = []
    real = np.linalg.inv

    def inv(a):
        calls.append(np.array(a))
        if len(calls) in fail_on:
            raise np.linalg.LinAlgError("Singular matrix")
        return real(a)

    monkeypatch.setattr(np.linalg, "inv", inv)
    return calls


class TestDOptimalGuard:
    def test_example1_arms_certify_where_unguarded_steps_cycle(self, monkeypatch):
        # The H-RAGE burn-in's arm design on example1 (9 arms in R^4). Taken
        # unguarded, the squared steps cycle without entering the band (they
        # ran to the 20 000 cap); the guard retakes the steps that raise f
        # and certifies in a handful of inverses.
        arms = build_preset(ExperimentConfig("example1")).instance.arms
        X, _ = _whiten(arms, arms, np.ones(9))
        band = 4.0 * (1.0 + 0.8 * DEFAULT_FW_TOL)
        lam, quads = np.full(9, 1.0 / 9), np.einsum("ij,ij->i", X, X)
        for _ in range(200):
            lam = lam * (quads / 4.0) ** 2
            lam /= lam.sum()
            quads = np.einsum("ij,ij->i", X @ np.linalg.inv((X * lam[:, None]).T @ X), X)
            assert quads.max() > band
        calls = count_inverses(monkeypatch)
        design = _solve_design(kw_problem(arms, tolerance=DEFAULT_FW_TOL))
        assert design.certified
        assert design.value == pytest.approx(4.0, rel=DEFAULT_FW_TOL)
        assert len(calls) <= 10

    def test_singular_accelerated_step_is_retaken_plain(self, monkeypatch):
        # The first step's A fails to invert: the step is retaken at power 1
        # from the uniform design, and the solve goes on to certify.
        arms = np.random.default_rng(6).standard_normal((10, 3))
        X, _ = _whiten(arms, arms, np.ones(10))
        quads = np.einsum("ij,ij->i", X, X)
        calls = count_inverses(monkeypatch, fail_on=(1,))
        lam = _d_optimal_solve(X, np.ones(10), 3.0, 1e-3, 500)
        for call, power in zip(calls, (2, 1)):
            step = quads ** power / (quads ** power).sum()
            np.testing.assert_allclose(call, (X * step[:, None]).T @ X, rtol=1e-12, atol=1e-15)
        assert 2 < len(calls) < 500
        assert float(quad_forms(X, X, lam).max()) <= 3.0 * (1.0 + 1e-3)

    def test_inverse_count_on_head_problems(self, monkeypatch):
        # Work, not time: HEAD's two D-optimal problems in one d=15 varest
        # replication, the 500 arms and their 500x120 lifts. Plain updates,
        # with an inverse for the uniform start, took 88 + 5 = 93 inverses;
        # the guarded squared steps need at most 60 % of that.
        arms = build_varest_instance({**PRESET_DEFAULTS["varest"], "d": 15}, 0).arms
        calls = count_inverses(monkeypatch)
        for rows in (arms, lift_arms(arms)):
            assert _solve_design(kw_problem(rows, tolerance=DEFAULT_FW_TOL)).certified
        assert len(calls) <= 55


def example1_round_problem(active_rows, variances=None, tolerance=1e-2):
    """An H-RAGE round on example1: difference directions of the active arms,
    with the burn-in variance estimates of one run as weights."""
    arms = build_preset(ExperimentConfig("example1")).instance.arms
    active = arms[active_rows]
    iu, ju = np.triu_indices(active.shape[0], k=1)
    if variances is None:
        variances = [
            0.9556498000478895, 0.9566403625143718, 0.16980203844239408,
            0.16896311864239094, 1.0, 0.9980605277551038, 0.9311481089437686,
            0.5793892044281415, 0.5393462861808552,
        ]
    return DesignProblem(arms, active[iu] - active[ju], variances=variances, tolerance=tolerance)


class TestSolveDesignPinned:
    """Two certified solves: within tolerance of the optimum pinned before
    the floored engine, in both directions, and pinned to its own output."""

    def test_example1_hrage_round(self):
        # Round 2 of an H-RAGE run on example1: six arms still active.
        design = _solve_design(example1_round_problem([0, 4, 5, 6, 7, 8]))
        assert design.certified
        assert abs(design.value / 1.40098751299929 - 1.0) <= 1e-2
        pinned = [
            0.2708197891889631, 0.41298345689109395, 0.08643950305172493,
            0.08909665213532766, 0.0032776027275434653, 0.003315002905971436,
            0.13406799309937545, 0.0, 0.0,
        ]
        np.testing.assert_allclose(design.weights, pinned, rtol=0, atol=1e-7)
        assert design.value == pytest.approx(1.404860601453295, rel=1e-7)

    def test_weighted_three_arms(self):
        arms = np.array([[1.0, 0.0], [0.0, 1.0], [np.cos(0.5), np.sin(0.5)]])
        diffs = np.array([arms[0] - arms[1], arms[0] - arms[2]])
        design = _solve_design(
            DesignProblem(arms, diffs, variances=np.array([1.0, 4.0, 0.5]), tolerance=1e-3)
        )
        assert design.certified
        assert abs(design.value / 9.000000031906655 - 1.0) <= 1e-3
        np.testing.assert_allclose(
            design.weights, [0.3334223625226399, 0.6665776374773601, 0.0],
            rtol=0, atol=1e-7,
        )
        assert design.value == pytest.approx(9.000000320968109, rel=1e-7)


class TestSolvePaths:
    def test_d_optimal_skips_the_engine(self, refuse_engine):
        arms = np.random.default_rng(6).standard_normal((10, 3))
        design = _solve_design(kw_problem(arms))
        assert design.certified
        assert design.value == pytest.approx(3.0, rel=1e-3)
        # HEAD's two designs at a tight tolerance, which once ran past a
        # private cap into the engine: the d=15 arms (500x15) and the d=6
        # lifts (500x21), each certified against the rank.
        for rows in (build_varest_instance({**PRESET_DEFAULTS["varest"], "d": 15}, 0).arms,
                     lift_arms(build_varest_instance({**PRESET_DEFAULTS["varest"], "d": 6}, 0).arms)):
            design = _solve_design(kw_problem(rows, tolerance=1e-4))
            assert design.certified
            assert design.value == pytest.approx(rows.shape[1], rel=1e-4)

    def test_unpruned_d_optimal_weights_returned_when_pruned_do_not_certify(self, monkeypatch, refuse_engine):
        # The optimum puts 1/3 on each axis, so the two copies of e3 share
        # theirs at 1/6 each; pruning below 1/5 leaves e3 out of the span.
        monkeypatch.setattr(design_module, "PRUNE_THRESHOLD", 0.2)
        arms = np.vstack([np.eye(3), [[0.0, 0.0, 1.0]]])
        design = _solve_design(kw_problem(arms))
        assert design.certified
        np.testing.assert_allclose(design.weights, [1 / 3, 1 / 3, 1 / 6, 1 / 6], rtol=1e-3)
        assert design.value == pytest.approx(3.0, rel=1e-3)

    def test_weighted_self_evaluating_uses_the_engine(self, refuse_engine):
        arms = np.random.default_rng(10).standard_normal((6, 2))
        with pytest.raises(EngineCalled):
            _solve_design(DesignProblem(arms, arms, variances=np.linspace(0.5, 2.0, 6)))

    def test_self_evaluating_problem_whitens_one_array(self):
        # V is X: one product with the whitening map serves both sides, on
        # the Gram path (full rank) and on the SVD path (rank 2 in R^3).
        rng = np.random.default_rng(11)
        variances = rng.uniform(0.5, 2.0, 8)
        for arms in (rng.standard_normal((8, 3)), rng.standard_normal((8, 2)) @ rng.standard_normal((2, 3))):
            X, V = _whiten(arms, arms, variances)
            assert V is X
            X_copy, V_copy = _whiten(arms, arms.copy(), variances)
            assert V_copy is not X_copy
            np.testing.assert_array_equal(X_copy, X)
            np.testing.assert_array_equal(V_copy, X)

    def test_sparse_weights_returned_when_they_certify(self, monkeypatch):
        # The single-direction problem has a singular optimum: all weight on e1,
        # certified within 50 steps.
        monkeypatch.setattr(design_module, "MAX_STEPS", 50)
        design = _solve_design(DesignProblem(np.eye(2), [[0.1, 0.0]]))
        assert design.certified
        assert np.array_equal(design.weights, [1.0, 0.0])
        assert design.value == pytest.approx(0.01, rel=1e-12)

    def test_floored_design_returned_when_sparse_does_not_certify(self):
        # The engine leaves arm 3 near zero, where pruning it misses the bound.
        rng = np.random.default_rng(16)
        arms = rng.standard_normal((4, 2))
        diffs = np.array([arms[0] - arms[1], arms[0] - arms[2]])
        variances = rng.uniform(0.5, 2.0, 4)
        tolerance = 1e-2
        design = _solve_design(DesignProblem(arms, diffs, variances=variances, tolerance=tolerance))
        assert design.certified
        assert design.support_size == 4
        # Every arm keeps the floor eta / n with eta = tolerance / 10.
        assert design.weights.min() >= tolerance / 10 / 4 * (1 - 1e-12)
        oracle = grid_minimax_value(arms, diffs, variances, step=1e-2)
        assert design.value <= oracle * (1 + tolerance)

    def test_value_on_span_of_support(self):
        X = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
        prec = np.array([1.0, 0.5, 1.0])
        lam = np.array([0.25, 0.75, 0.0])
        # A restricted to the first two axes is diag(0.25, 0.375): a finite
        # value for the row inside its range, inf for the row outside it.
        rows = quad_forms(X, np.array([[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]]), lam * prec)
        assert rows[0] == pytest.approx(4.0 + 1.0 / 0.375, rel=1e-12)
        assert rows[1] == math.inf
        # Against the SVD reference pinv_value, for full-rank weights and
        # for singular weights whose range holds every row.
        rng = np.random.default_rng(40)
        arms = rng.standard_normal((6, 3))
        variances = rng.uniform(0.5, 2.0, size=6)
        for weights, evals in (
            (rng.dirichlet(np.ones(6)), rng.standard_normal((4, 3))),
            (np.array([0.3, 0.7, 0.0, 0.0, 0.0, 0.0]), rng.standard_normal((4, 2)) @ arms[:2]),
        ):
            got = quad_forms(arms, evals, weights / variances)
            expected = [pinv_value(arms, v[None, :], variances, weights) for v in evals]
            np.testing.assert_allclose(got, expected, rtol=1e-9, atol=0)


def pinv_value(arms, evals, variances, weights):
    """max_v v' A(w)^+ v from an SVD of the root-weighted arms, independent of
    the solver. Singular values of the rows keep the relative accuracy that
    the small eigenvalues of an ill-conditioned ``A`` lose."""
    _, s, vt = np.linalg.svd(arms * np.sqrt(weights / variances)[:, None])
    s = np.concatenate([s, np.zeros(vt.shape[0] - s.size)])
    keep = s > s.max() * 1e-6
    coords = evals @ vt.T
    assert np.abs(coords[:, ~keep]).max(initial=0.0) <= 1e-9
    return float(((coords[:, keep] / s[keep]) ** 2).sum(axis=1).max())


class TestSingularOptimum:
    """Evaluation directions spanning less than the arms: the optimal design
    leaves the information matrix singular."""

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(2, 3),
        st.integers(1, 3),
        st.sampled_from([1e-2, 1e-3]),
        st.integers(0, 2**32 - 1),
    )
    # Arm singular values 2.25, 0.70 and 1e-4: never certified without whitening.
    @example(n_arms=3, n_evals=1, tolerance=1e-2, seed=564)
    def test_certified_value_within_tolerance_of_grid(self, n_arms, n_evals, tolerance, seed):
        rng = np.random.default_rng(seed)
        arms = rng.standard_normal((n_arms, 2))
        if n_arms == 3:
            arms = np.hstack([arms, rng.standard_normal((3, 1))])
        # Every direction is a multiple of one vector in the arms' span.
        direction = rng.standard_normal(n_arms) @ arms
        evals = rng.uniform(0.2, 2.0, size=(n_evals, 1)) * direction
        variances = rng.uniform(0.5, 2.0, size=n_arms)
        design = _solve_design(DesignProblem(arms, evals, variances=variances, tolerance=tolerance))
        assert design.certified
        assert design.value == pytest.approx(pinv_value(arms, evals, variances, design.weights),
                                             rel=1e-9)
        grid = grid_minimax_value(arms, evals, variances, step=1e-3 if n_arms == 2 else 2e-3)
        # The grid skips singular designs, so its optimum sits slightly above
        # the true one; the certified value may fall below it by that much.
        assert grid * (1 - 5e-3) <= design.value <= grid * (1 + tolerance)

    def test_one_ulp_change_of_variances(self):
        # Three active arms of example1: difference directions of rank 2 in R^4.
        rows = [0, 5, 6]
        base = example1_round_problem(rows)
        nudged = base.variances.copy()
        nudged[2] = np.nextafter(nudged[2], np.inf)
        one = _solve_design(base)
        two = _solve_design(example1_round_problem(rows, variances=nudged))
        assert one.certified and two.certified
        assert abs(one.value / two.value - 1.0) <= base.tolerance


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

    def test_changed_inputs_miss(self, empty_memo, monkeypatch):
        base = memo_problem()
        arms, evals = base.sample_vectors, base.eval_vectors
        nudged = arms.copy()
        nudged[2, 1] = np.nextafter(nudged[2, 1], np.inf)
        variants = [
            base,
            DesignProblem(arms, evals, variances=np.full(8, 2.0), tolerance=1e-3),
            DesignProblem(arms, evals, tolerance=2e-3),
            DesignProblem(arms, evals[::-1], tolerance=1e-3),
            DesignProblem(nudged, evals, tolerance=1e-3),
        ]
        designs = [solve_design(problem) for problem in variants]
        assert len(empty_memo) == len(variants)
        assert len({id(design) for design in designs}) == len(variants)
        # The step cap is part of the key: a patched cap never hits a design
        # solved under another.
        monkeypatch.setattr(design_module, "MAX_STEPS", 19_999)
        capped = solve_design(DesignProblem(arms, evals, tolerance=1e-3))
        assert len(empty_memo) == len(variants) + 1
        assert all(capped is not design for design in designs)

    def test_self_evaluating_digest_differs(self, empty_memo):
        # A D-optimal problem hashes its vectors once, under a flag of its own.
        base = memo_problem()
        arms = base.sample_vectors
        dopt = DesignProblem(arms, arms.copy(), tolerance=1e-3)
        assert dopt._digest == DesignProblem(arms, arms, tolerance=1e-3)._digest
        assert dopt._digest != base._digest
        assert dopt._digest != DesignProblem(arms, arms[:4], tolerance=1e-3)._digest

    def test_oldest_entry_evicted(self, empty_memo, monkeypatch):
        calls = []

        def fake_engine(problem):
            calls.append(problem)
            return design_module.Design(weights=np.full(2, 0.5), value=1.0)

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
            raise SpanViolation("the engine failed")

        monkeypatch.setattr(design_module, "_solve_design", failing_engine)
        with pytest.raises(SpanViolation):
            solve_design(memo_problem())
        assert len(empty_memo) == 0

    def test_threads_share_memo(self, empty_memo, monkeypatch):
        # A small memo with one problem more than fits: threads keep hitting
        # entries that others are evicting.
        def fake_engine(problem):
            return design_module.Design(weights=np.full(2, 0.5), value=problem.tolerance)

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

    def test_seen_problem_constructed_without_svd(self, empty_memo, monkeypatch):
        # A memo hit factors nothing. Full-rank sample sets take no SVD: a
        # fresh solve, an example1 round and the lifted varest problem, and a
        # fit on the lifts read every Gram spectrum from one eigh.
        lifted = lift_arms(build_preset(ExperimentConfig("varest")).instance.arms)
        calls = {"eigh": 0, "svd": 0}
        for name in calls:
            def counting(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counting)
        first = solve_design(memo_problem())
        assert calls["eigh"] > 0
        seen = dict(calls)
        assert solve_design(memo_problem()) is first
        assert calls == seen
        assert solve_design(example1_round_problem([0, 4, 5, 6, 7, 8])).certified
        design = solve_design(DesignProblem(lifted, lifted, tolerance=1e-2))
        assert design.certified
        counts = np.array(round_design(design, 10 * lifted.shape[1]).counts)
        _, rank = fit_arm_sums(lifted, counts, counts * 1.5)
        assert rank == lifted.shape[1]
        assert calls["svd"] == 0

    def test_unseen_problem_checked_at_construction(self, empty_memo):
        # Construction only validates; each check fails at the solve, which
        # stores nothing.
        solve_design(memo_problem())
        arms = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        outside = DesignProblem(arms, np.array([[0.0, 0.0, 1.0]]))
        zero = DesignProblem(np.zeros((2, 3)), np.zeros((1, 3)))
        with pytest.raises(SpanViolation):
            solve_design(outside)
        with pytest.raises(ValueError, match="all zero"):
            solve_design(zero)
        assert len(empty_memo) == 1

    def test_entry_evicted_after_construction(self, empty_memo, monkeypatch):
        # Built while the memo holds it, then evicted: the solve starts afresh.
        fresh = _solve_design(memo_problem())
        solve_design(memo_problem())
        problem = memo_problem()
        engine = design_module._solve_design
        monkeypatch.setattr(design_module, "_solve_design", lambda p: design_module.Design(
            weights=np.full(2, 0.5), value=1.0))
        for k in range(MEMO_SIZE + 1):
            solve_design(DesignProblem(np.eye(2), np.eye(2), tolerance=1e-3 * (k + 1)))
        monkeypatch.setattr(design_module, "_solve_design", engine)
        assert problem._digest not in empty_memo
        design = solve_design(problem)
        assert np.array_equal(design.weights, fresh.weights)
        assert design.value == fresh.value
        assert design.certified == fresh.certified

    def test_problem_not_kept_alive(self, empty_memo):
        problem = memo_problem()
        solve_design(problem)
        refs = [weakref.ref(obj) for obj in (problem, problem.sample_vectors,
                                             problem.eval_vectors, problem.variances)]
        del problem
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_caller_arrays_changed_after_construction(self, empty_memo):
        # The problem holds read-only copies: changing the caller's arrays
        # afterwards changes neither the problem nor the design it solves to.
        rng = np.random.default_rng(31)
        arms, evals, variances = rng.standard_normal((8, 3)), rng.standard_normal((4, 3)), np.ones(8)
        problem = DesignProblem(arms, evals, variances=variances)
        first = solve_design(problem)
        arms[2, 2], evals[0, 0], variances[1] = 10.0, 5.0, 4.0
        assert solve_design(problem) is first
        assert _solve_design(problem).value == first.value
        changed = solve_design(DesignProblem(arms, evals, variances=variances))
        assert changed.value != pytest.approx(first.value)
        for array in (problem.sample_vectors, problem.eval_vectors, problem.variances):
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            problem.sample_vectors[2, 2] = 10.0

        # So does an array the caller hands over read-only and unlocks later:
        # the new arms key a new design, not the stale uniform one.
        a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        a.flags.writeable = False
        stale = solve_design(DesignProblem(a, a))
        a.flags.writeable = True
        a[2] = [5.0, -3.0]
        a.flags.writeable = False
        design = solve_design(DesignProblem(a, a))
        assert design is not stale
        assert design.certified and design.value == pytest.approx(2.0, rel=1e-3)
        assert quad_forms(a, a, stale.weights).max() > 2.9
        assert np.allclose(design.weights, [0.0, 0.5, 0.5], atol=1e-3)

    def test_read_only_view_copied(self, empty_memo):
        # A read-only view of a writeable array can change under the problem,
        # so the problem keeps a copy.
        base = np.random.default_rng(5).standard_normal((6, 3))
        view = base.view()
        view.flags.writeable = False
        problem = DesignProblem(view, view)
        assert problem.sample_vectors is not view
        first = solve_design(problem)
        base[0, 0] = 10.0
        assert view[0, 0] == 10.0 and problem.sample_vectors[0, 0] != 10.0
        assert solve_design(problem) is first

    def test_fields_not_reassignable(self, empty_memo):
        problem = memo_problem()
        first = solve_design(problem)
        with pytest.raises(dataclasses.FrozenInstanceError):
            problem.variances = np.full(8, 4.0)
        assert np.array_equal(problem.variances, np.ones(8))
        assert solve_design(problem) is first

    def test_self_evaluating_problem_keeps_one_copy(self):
        arms = np.random.default_rng(5).standard_normal((6, 3))
        problem = DesignProblem(arms, arms)
        assert problem.eval_vectors is problem.sample_vectors
        assert problem.sample_vectors is not arms
        assert np.array_equal(problem.sample_vectors, arms)


def realized_value(schedule, arms, evals, variances):
    """``max_v v' A(counts)^+ v`` for the pull counts of ``schedule``."""
    counts = np.asarray(schedule.counts, dtype=np.float64)
    return float(quad_forms(arms, evals, counts / variances).max())


class TestRoundDesign:
    def test_even_split_ceiling(self):
        design = solve_design(kw_problem(np.eye(2)))
        schedule = round_design(design, 10)
        assert schedule.counts == (5, 5)
        assert schedule.total == 10

    def test_ceiling_overshoot_on_thirds(self):
        design = solve_design(kw_problem(np.eye(3)))
        schedule = round_design(design, 10)
        assert schedule.counts == (4, 4, 4)
        assert schedule.total == 12

    def test_efficient_factor_contract(self):
        # Ceiling rounding keeps the factor contract that exact-apportionment
        # rounding was held to: realized value within (1 + 6 eps) of the
        # continuous value at the same budget, for eps = 1/3 and N >= 5 d / eps^2.
        rng = np.random.default_rng(23)
        eps = 1.0 / 3.0
        for trial in range(3):
            d = 3
            arms = rng.standard_normal((5 + trial, d))
            design = solve_design(kw_problem(arms, tolerance=1e-4))
            n = int(np.ceil(5 * d / eps**2))
            schedule = round_design(design, n)
            realized = realized_value(schedule, arms, arms, np.ones(arms.shape[0]))
            continuous = design.value / n
            assert realized <= (1 + 6 * eps) * continuous

    def test_efficient_loose_triple_bound_at_200(self):
        rng = np.random.default_rng(29)
        arms = rng.standard_normal((5, 3))
        design = solve_design(kw_problem(arms, tolerance=1e-4))
        schedule = round_design(design, 200)
        realized = realized_value(schedule, arms, arms, np.ones(arms.shape[0]))
        assert realized <= 3 * design.value / 200

    def test_fractional_budget_ceiling(self):
        design = solve_design(kw_problem(np.eye(2)))
        schedule = round_design(design, 10.5)
        assert schedule.total >= 10.5

    def test_rejects_nonpositive_budget(self):
        design = solve_design(kw_problem(np.eye(2)))
        with pytest.raises(ValueError):
            round_design(design, 0)

    def test_rejects_unknown_mode(self):
        # Ceiling rounding is the only rule, so round_design takes no mode.
        design = solve_design(kw_problem(np.eye(2)))
        for mode in ("ceiling", "efficient", "exotic"):
            with pytest.raises(TypeError):
                round_design(design, 5, mode)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 500), st.integers(0, 2**32 - 1))
    def test_ceiling_bounds_property(self, n, seed):
        rng = np.random.default_rng(seed)
        weights = rng.dirichlet(np.ones(4))
        design = Design(weights=weights, value=1.0)
        schedule = round_design(design, n)
        assert n <= schedule.total <= n + design.support_size

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 500), st.integers(0, 2**32 - 1))
    def test_ceiling_value_bound_property(self, n, seed):
        # n_i >= n lam_i on the support gives A(counts) >= n A(lam) with the
        # same range, so the realized value is at most design.value / n.
        rng = np.random.default_rng(seed)
        arms = rng.standard_normal((6, 3))
        variances = rng.uniform(0.5, 2.0, size=6)
        weights = rng.dirichlet(np.ones(6)) * (rng.random(6) < 0.7)
        weights[0] += weights.sum() == 0
        weights /= weights.sum()
        support = np.flatnonzero(weights)
        evals = rng.standard_normal((4, support.size)) @ arms[support]
        value = float(quad_forms(arms, evals, weights / variances).max())
        design = Design(weights=weights, value=value)
        schedule = round_design(design, n)
        assert realized_value(schedule, arms, evals, variances) <= value / n * (1 + 1e-9)
