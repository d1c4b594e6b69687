import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetbandit import (
    Design,
    DesignProblem,
    DimensionMismatch,
    Environment,
    HeteroInstance,
    lift_arms,
    unvech,
    vech,
)
from hetbandit.core import fit_arm_sums, gram_eigh, greedy_spanning_subset, quad_forms, solve_psd
from hetbandit.presets import PRESET_DEFAULTS, build_varest_instance
from hetbandit.varest import _clamp_all


def random_symmetric(rng, d):
    s = rng.standard_normal((d, d))
    return 0.5 * (s + s.T)


class TestLift:
    def test_basis_vector(self):
        phi = lift_arms(np.array([1.0, 0.0]))[0]
        assert np.array_equal(phi, [1.0, 0.0, 0.0])
        assert phi @ vech(np.eye(2)) == 1.0

    def test_identity_matrix_case(self):
        phi = lift_arms(np.array([1.0, 2.0]))[0]
        assert phi @ vech(np.eye(2)) == pytest.approx(5.0, abs=1e-12)

    def test_matches_direct_product(self):
        rng = np.random.default_rng(3)
        x = np.array([0.3, -1.1, 2.0])
        sigma = random_symmetric(rng, 3)
        got = lift_arms(x)[0] @ vech(sigma)
        assert got == pytest.approx(x @ sigma @ x, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_lift_identity_fuzz(self, d, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(d)
        sigma = random_symmetric(rng, d)
        direct = x @ sigma @ x
        lifted = lift_arms(x)[0] @ vech(sigma)
        assert abs(lifted - direct) <= 1e-10 * (1 + abs(direct))

    def test_bulk_lift_matches_single(self):
        rng = np.random.default_rng(0)
        arms = rng.standard_normal((5, 4))
        bulk = lift_arms(arms)
        for i in range(5):
            assert np.allclose(bulk[i], lift_arms(arms[i])[0])

    def test_lift_rejects_matrix_input(self):
        # One arm is a vector and a stack of arms a matrix; a stack of matrices is neither.
        with pytest.raises(DimensionMismatch):
            lift_arms(np.ones((2, 2, 2)))

    @pytest.mark.parametrize("arms", [np.array([]), np.ones((3, 0))])
    def test_lift_rejects_empty_arm(self, arms):
        with pytest.raises(DimensionMismatch):
            lift_arms(arms)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_vech_roundtrip(self, d, seed):
        sigma = random_symmetric(np.random.default_rng(seed), d)
        assert np.allclose(unvech(vech(sigma), d), sigma)


class TestInfoMatrix:
    """The information matrix ``A = sum_i lam_i x_i x_i' / sigma_i^2``, seen
    through the quadratic forms ``v' A^+ v`` that ``quad_forms`` takes of it
    and the inputs ``DesignProblem`` accepts for it."""

    def test_uniform_basis(self):
        # A = diag(0.5, 0.5).
        got = quad_forms(np.eye(2), np.eye(2), np.array([0.5, 0.5]))
        np.testing.assert_allclose(got, [2.0, 2.0], rtol=1e-12)

    def test_weight_scaling(self):
        # Variances (2, 1) divide the weights: A = diag(0.25, 0.5).
        w = np.array([0.5, 0.5]) / np.array([2.0, 1.0])
        np.testing.assert_allclose(quad_forms(np.eye(2), np.eye(2), w), [4.0, 2.0], rtol=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        vecs = rng.standard_normal((3, 2))
        lam = np.array([0.2, 0.5, 0.3])
        w = np.array([1.5, 0.7, 2.2])
        expected = np.zeros((2, 2))
        for v, l, ww in zip(vecs, lam, w):
            expected += l * np.outer(v, v) / ww
        probes = rng.standard_normal((4, 2))
        oracle = [p @ np.linalg.inv(expected) @ p for p in probes]
        np.testing.assert_allclose(quad_forms(vecs, probes, lam / w), oracle, rtol=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            DesignProblem(np.eye(2), np.eye(3))
        with pytest.raises(DimensionMismatch):
            DesignProblem(np.eye(2), np.eye(2), variances=[1.0])

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(ValueError):
            DesignProblem(np.eye(2), np.eye(2), variances=[1.0, 0.0])


class TestQuadFormInv:
    """``v' A^-1 v``: ``quad_forms`` through one ``eigh``, ``solve_psd``
    through a Cholesky factor."""

    def test_identity(self):
        got = quad_forms(np.eye(2), np.array([[3.0, 4.0]]), np.ones(2))
        assert got[0] == pytest.approx(25.0, rel=1e-12)

    def test_diagonal(self):
        # A = diag(2, 5).
        got = quad_forms(np.eye(2), np.array([[1.0, 1.0]]), np.array([2.0, 5.0]))
        assert got[0] == pytest.approx(0.7, abs=1e-12)

    def test_matches_explicit_inverse(self):
        rng = np.random.default_rng(11)
        b = rng.standard_normal((4, 4))
        a = b @ b.T + 0.1 * np.eye(4)
        v = rng.standard_normal(4)
        np.testing.assert_allclose(solve_psd(a, v), np.linalg.inv(a) @ v, rtol=1e-9)

    def test_singular_raises_with_pivot(self):
        # No ridge: a semidefinite matrix raises numpy's own error, like the
        # zero matrix.
        for a in (np.zeros((2, 2)), np.diag([1.0, 0.0])):
            with pytest.raises(np.linalg.LinAlgError):
                solve_psd(a, np.ones(2))

    def test_ridge_fallback_on_near_singular(self):
        # A tiny positive pivot still factors, so no ridge is needed and the
        # solve is exact rather than perturbed.
        a = np.diag([1.0, 1e-300])
        np.testing.assert_array_equal(solve_psd(a, np.array([1.0, 0.0])), [1.0, 0.0])


def _unit_instance():
    return HeteroInstance(
        np.eye(2), np.eye(2), np.array([1.0, 0.0]), np.eye(2), 0.1, 4.0
    )


class TestGramEigh:
    """``delta`` bounds how far each eigenvalue of the computed Gram matrix
    sits from the squared singular value of the rows."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kappa", [1.0, 1e4, 1e8])
    def test_bound_holds_on_full_rank_rows(self, seed, kappa):
        rng = np.random.default_rng(seed)
        m, p = 40, 7
        left = np.linalg.qr(rng.standard_normal((m, p)))[0]
        right = np.linalg.qr(rng.standard_normal((p, p)))[0]
        A = left @ np.diag(np.geomspace(1.0, 1.0 / kappa, p)) @ right.T
        lam, V, delta = gram_eigh(A)
        s = np.linalg.svd(A, compute_uv=False)
        assert lam[0] - delta <= s[-1] ** 2
        assert lam[-1] - delta <= s[0] ** 2 <= lam[-1] + delta
        np.testing.assert_allclose(V.T @ V, np.eye(p), rtol=0, atol=1e-12)

    def test_rank_deficient_rows_leave_an_eigenvalue_at_or_below_delta(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((12, 4))
        repeated = np.hstack([X, X[:, [1]]])
        for A, nonzero in ((np.zeros((6, 3)), 0), (repeated, 4)):
            lam, _, delta = gram_eigh(A)
            assert np.count_nonzero(lam > delta) == nonzero


def _greedy_reference(vectors, size):
    """The pivoting loop with a fresh outer product and norms vector per step."""
    resid = np.array(vectors, dtype=np.float64)
    chosen = []
    scale = float(np.einsum("ij,ij->i", resid, resid).max())
    for _ in range(size):
        norms = np.einsum("ij,ij->i", resid, resid)
        idx = int(np.argmax(norms))
        if norms[idx] <= 1e-20 * max(scale, 1e-300):
            break
        chosen.append(idx)
        q = resid[idx] / math.sqrt(norms[idx])
        resid -= np.outer(resid @ q, q)
    return chosen


class TestGreedySpanningSubset:
    """The downdated-norm pivoting picks exactly the reference loop's rows."""

    @staticmethod
    def assert_matches(vectors, size, expected_len):
        before = vectors.copy()
        got = greedy_spanning_subset(vectors, size)
        assert got == _greedy_reference(vectors, size)
        assert len(got) == expected_len
        assert np.array_equal(vectors, before)

    @pytest.mark.parametrize("seed", [0, 1, 2, *range(3000, 3010)])
    def test_varest_lift(self, seed):
        inst = build_varest_instance({**PRESET_DEFAULTS["varest"], "d": 15}, seed)
        phi = lift_arms(inst.arms)
        self.assert_matches(phi, phi.shape[1], phi.shape[1])

    def test_rank_deficient_stops_at_rank(self):
        rng = np.random.default_rng(7)
        vectors = rng.standard_normal((30, 3)) @ rng.standard_normal((3, 8))
        self.assert_matches(vectors, 8, 3)

    def test_all_zero_returns_empty(self):
        self.assert_matches(np.zeros((5, 4)), 4, 0)

    def test_size_above_rank(self):
        vectors = np.random.default_rng(8).standard_normal((12, 5))
        self.assert_matches(vectors, 9, 5)

    @pytest.mark.parametrize("rank", [10, 40])
    def test_wide_low_rank_stops_at_rank(self, rank):
        rng = np.random.default_rng(rank)
        vectors = rng.standard_normal((500, rank)) @ rng.standard_normal((rank, 120))
        self.assert_matches(vectors, 120, rank)

    @pytest.mark.parametrize("seed", range(3))
    def test_graded_rows_take_the_exact_recompute(self, monkeypatch, seed):
        # Row norms run from 1e-6 to 1. Every row lies in one 40-dimensional
        # subspace, except that the 50 smallest reach 20 more directions with
        # a relative weight of 1e-3. After 40 picks the downdated norms of the
        # large rows (rounding, about k eps) outrank the small rows' exact
        # squared residuals (2e-19 to 6e-18), so pick 41 goes through the exact
        # recompute, and with a size above the rank the loop stops through it.
        rng = np.random.default_rng(seed)
        vectors = rng.standard_normal((500, 40)) @ rng.standard_normal((40, 60))
        small = vectors[:50]
        small += 1e-3 * np.linalg.norm(small, axis=1, keepdims=True) * rng.standard_normal((50, 60)) / np.sqrt(60)
        vectors *= (np.geomspace(1e-6, 1, 500) / np.linalg.norm(vectors, axis=1))[:, None]
        einsum, norm_passes = np.einsum, []

        def counting(*args, **kwargs):
            norm_passes.append(args[0])
            return einsum(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(np, "einsum", counting)
            greedy_spanning_subset(vectors, 80)
        # One pass for the input's row norms, one exact recompute that goes
        # on at pick 41 and one that stops the loop.
        assert norm_passes == ["ij,ij->i"] * 3
        self.assert_matches(vectors, 80, 60)


class TestFitArmSums:
    """The per-arm fit equals least squares with one row per pull, and takes
    the normal-equation path exactly when that regression is well
    conditioned and full rank."""

    @staticmethod
    def per_pull(X, counts, ys, precision):
        # One row per pull, root-weighted by its arm's precision.
        idx = np.repeat(np.arange(X.shape[0]), counts)
        root = np.sqrt(precision[idx])
        coef, _, rank, _ = np.linalg.lstsq(X[idx] * root[:, None], ys * root, rcond=None)
        return coef, rank

    @staticmethod
    def fit_counting(monkeypatch, *args):
        """``fit_arm_sums(*args)`` and how many ``lstsq``, ``cholesky`` and
        ``eigh`` calls it made, by name."""
        calls = Counter()

        def counting(name):
            kernel = getattr(np.linalg, name)

            def wrapper(*a, **k):
                calls[name] += 1
                return kernel(*a, **k)

            return wrapper

        with monkeypatch.context() as patch:
            for name in ("lstsq", "cholesky", "eigh"):
                patch.setattr(np.linalg, name, counting(name))
            coef, rank = fit_arm_sums(*args)
        return coef, rank, calls

    @staticmethod
    def assert_matches(coef, rank, ref_coef, ref_rank):
        assert rank == ref_rank
        assert np.linalg.norm(coef - ref_coef) <= 1e-10 * np.linalg.norm(ref_coef)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("support_rank", [None, 2, 0])
    def test_matches_one_row_per_pull(self, monkeypatch, seed, weighted, support_rank):
        rng = np.random.default_rng(seed)
        n_arms, d = 9, 4
        X = rng.standard_normal((n_arms, d))
        counts = rng.integers(0, 6, n_arms)
        counts[rng.choice(n_arms, 3, replace=False)] = 0
        if support_rank is not None:
            # The pulled arms span a subspace of dimension support_rank
            # (all-zero rows for 0).
            pulled = np.flatnonzero(counts)
            basis = rng.standard_normal((support_rank, d))
            X[pulled] = rng.standard_normal((pulled.size, support_rank)) @ basis
        precision = rng.uniform(0.2, 5.0, n_arms) if weighted else np.ones(n_arms)
        idx = np.repeat(np.arange(n_arms), counts)
        ys = rng.standard_normal(idx.size)
        sums = np.bincount(idx, weights=ys, minlength=n_arms)

        coef, rank, calls = self.fit_counting(
            monkeypatch, X, counts, sums, precision if weighted else None
        )
        ref_coef, ref_rank = self.per_pull(X, counts, ys, precision)
        np.testing.assert_allclose(coef, ref_coef, rtol=0, atol=1e-10)
        assert rank == ref_rank
        if support_rank is not None:
            assert rank == support_rank
            assert calls["lstsq"] == 1

    @pytest.mark.parametrize("weighted", [False, True])
    def test_lifted_size_multinomial_counts(self, monkeypatch, weighted):
        # HEAD's stage-2 shape at d=15: 500 arms, 120 lifted columns.
        rng = np.random.default_rng(15)
        phi = lift_arms(rng.standard_normal((500, 15)))
        counts = rng.multinomial(3000, rng.dirichlet(np.ones(500)))
        assert (counts == 0).any() and (counts > 0).sum() >= phi.shape[1]
        precision = rng.uniform(0.2, 5.0, 500) if weighted else np.ones(500)
        idx = np.repeat(np.arange(500), counts)
        ys = rng.standard_normal(idx.size) ** 2
        sums = np.bincount(idx, weights=ys, minlength=500)

        coef, rank, calls = self.fit_counting(
            monkeypatch, phi, counts, sums, precision if weighted else None
        )
        self.assert_matches(coef, rank, *self.per_pull(phi, counts, ys, precision))
        assert rank == phi.shape[1]
        # One Cholesky proves the lifted fit full rank; no eigendecomposition.
        assert calls == {"cholesky": 1}

    @pytest.mark.parametrize("kappa", [1.0, 1e3, 1e6, 1e9, 1e12])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_conditioning_sweep(self, monkeypatch, kappa, weighted):
        # The root-weighted rows have condition number kappa. One pull per
        # arm makes them the per-pull rows themselves, so the reference
        # solves the same problem and any difference is the solver's (two
        # different ill-conditioned matrices would differ by kappa * eps).
        rng = np.random.default_rng(int(np.log10(kappa)))
        m, p = 30, 8
        counts = np.ones(m, dtype=int)
        precision = rng.uniform(0.2, 5.0, m) if weighted else np.ones(m)
        left = np.linalg.qr(rng.standard_normal((m, p)))[0]
        right = np.linalg.qr(rng.standard_normal((p, p)))[0]
        rows = left @ np.diag(np.geomspace(1.0, 1.0 / kappa, p)) @ right.T
        X = rows / np.sqrt(precision)[:, None]
        ys = rng.standard_normal(m)

        coef, rank, calls = self.fit_counting(
            monkeypatch, X, counts, ys, precision if weighted else None
        )
        self.assert_matches(coef, rank, *self.per_pull(X, counts, ys, precision))
        assert rank == p
        if kappa <= 1e3:
            assert calls["lstsq"] == 0
        if kappa >= 1e9:
            assert calls["lstsq"] == 1

    def test_cholesky_certificate_implies_eigenvalue_certificate(self, monkeypatch):
        # Root-weighted rows whose Gram condition number is log-uniform in
        # [1e5, 1e9], across the 1e8 cutoff. Every fit that the shifted
        # Cholesky accepts (no lstsq) must pass the eigenvalue inequality
        # that certified fits before it, checked here on eigvalsh of the same
        # Gram: lam_min - delta > max(1e-8 lam_max, rcond^2 (lam_max + delta)).
        rng = np.random.default_rng(99)
        eps = np.finfo(np.float64).eps
        accepted = rejected = 0
        for _ in range(240):
            p = int(rng.choice([3, 8, 30, 120]))
            m = p + int(rng.integers(0, 3 * p))
            kappa = 10.0 ** rng.uniform(2.5, 4.5)
            sing = np.sort(np.exp(rng.uniform(-np.log(kappa), 0.0, p)))[::-1]
            sing[[0, -1]] = 1.0, 1.0 / kappa
            left = np.linalg.qr(rng.standard_normal((m, p)))[0]
            right = np.linalg.qr(rng.standard_normal((p, p)))[0]
            counts = rng.integers(1, 6, m)
            precision = rng.uniform(0.2, 5.0, m)
            w = counts * precision
            X = (left * sing) @ right.T / np.sqrt(w)[:, None]
            sums = rng.standard_normal(m) * counts

            coef, rank, calls = self.fit_counting(monkeypatch, X, counts, sums, precision)
            A = X * np.sqrt(w)[:, None]
            gram = A.T @ A
            if calls["lstsq"]:
                rejected += 1
                continue
            accepted += 1
            lam = np.linalg.eigvalsh(gram)
            delta = (m + p) * eps * np.trace(gram)
            rcond = eps * max(counts.sum(), p)
            assert lam[0] - delta > max(1e-8 * lam[-1], rcond**2 * (lam[-1] + delta))
            assert rank == p
            ref = np.linalg.lstsq(A, sums / counts * np.sqrt(w), rcond=rcond)[0]
            assert np.linalg.norm(coef - ref) <= 1e-8 * np.linalg.norm(ref)
        assert accepted >= 40 and rejected >= 40

    def test_all_zero_rows_and_wide_fits_take_lstsq(self, monkeypatch):
        rng = np.random.default_rng(5)
        counts = np.array([2, 3, 1, 4, 2])
        sums = rng.standard_normal(5) * counts
        # All-zero rows: the Cholesky of the shifted zero Gram fails.
        coef, rank, calls = self.fit_counting(monkeypatch, np.zeros((5, 3)), counts, sums)
        assert calls == {"cholesky": 1, "lstsq": 1}
        assert rank == 0 and not coef.any()
        # Fewer pulled arms than columns: lstsq at once, minimum-norm.
        X = rng.standard_normal((5, 8))
        coef, rank, calls = self.fit_counting(monkeypatch, X, counts, sums)
        assert calls == {"lstsq": 1}
        assert rank == 5
        ys = np.repeat(sums / counts, counts)
        self.assert_matches(coef, rank, *self.per_pull(X, counts, ys, np.ones(5)))


class TestClampVariance:
    @pytest.mark.parametrize("raw,expected", [(-3.0, 0.1), (2.0, 2.0), (9.0, 4.0)])
    def test_cases(self, raw, expected):
        assert _clamp_all(np.array([raw]), _unit_instance()).tolist() == [expected]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=5))
    def test_idempotent(self, raw):
        inst = _unit_instance()
        once = _clamp_all(np.array(raw), inst)
        assert np.array_equal(_clamp_all(once, inst), once)


class TestHeteroInstance:
    def test_kappa(self):
        assert _unit_instance().kappa() == pytest.approx(40.0)

    def test_rejects_variance_outside_bounds(self):
        with pytest.raises(ValueError, match="variance"):
            HeteroInstance(np.eye(2), np.eye(2), np.zeros(2), np.diag([1.0, 9.0]), 0.5, 4.0)

    def test_rejects_asymmetric_sigma(self):
        sigma = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            HeteroInstance(np.eye(2), np.eye(2), np.zeros(2), sigma, 0.5, 2.0)

    def test_rejects_indefinite_sigma(self):
        sigma = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError, match="semidefinite"):
            HeteroInstance(np.eye(2), np.eye(2), np.zeros(2), sigma, 0.1, 4.0)

    def test_rejects_rank_deficient_arms(self):
        arms = np.array([[1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="span"):
            HeteroInstance(arms, arms, np.zeros(2), np.eye(2), 0.5, 2.0)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            HeteroInstance(np.eye(2), np.eye(2), np.zeros(2), np.eye(2), 2.0, 1.0)
        with pytest.raises(ValueError):
            HeteroInstance(np.eye(2), np.eye(2), np.zeros(2), np.eye(2), 0.0, 1.0)

    def test_from_truth_sets_tight_bounds(self):
        arms = np.array([[1.0, 0.0], [0.0, 2.0]])
        inst = HeteroInstance.from_truth(arms, arms, np.zeros(2), np.eye(2))
        assert inst.sigma_min_sq == pytest.approx(1.0)
        assert inst.sigma_max_sq == pytest.approx(4.0)

    def test_arrays_frozen(self):
        inst = _unit_instance()
        with pytest.raises(ValueError):
            inst.arms[0, 0] = 5.0

    def test_targets_given_as_arms_share_one_copy(self):
        arms = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        inst = HeteroInstance.from_truth(arms, arms, np.array([1.0, 0.0]), np.eye(2))
        assert inst.targets is inst.arms
        assert not inst.targets.flags.writeable
        arms[0, 0] = 5.0  # the caller's array was copied
        assert inst.arms[0, 0] == 1.0
        other = HeteroInstance.from_truth(arms, arms.copy(), np.array([1.0, 0.0]), np.eye(2))
        assert other.targets is not other.arms
        assert np.array_equal(other.targets, other.arms)


class TestDesignType:
    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            Design(weights=np.array([-0.1, 1.1]), value=1.0)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            Design(weights=np.array([0.5, 0.4]), value=1.0)

    def test_support(self):
        d = Design(weights=np.array([0.5, 0.0, 0.5]), value=1.0)
        assert list(d.support) == [0, 2]
        assert d.support_size == 2


def _valid_arguments():
    """Valid keyword arguments of each checked constructor, on a 2-d space."""
    return {
        HeteroInstance: dict(arms=np.eye(2), targets=np.eye(2), theta_star=np.zeros(2),
                             sigma_star=np.eye(2), sigma_min_sq=0.5, sigma_max_sq=2.0),
        DesignProblem: dict(sample_vectors=np.eye(2), eval_vectors=np.eye(2), variances=np.ones(2)),
        Design: dict(weights=np.array([0.5, 0.5]), value=1.0),
        Environment: dict(means=np.zeros(2), variances=np.ones(2)),
    }


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind, field", [
    (HeteroInstance, "arms"), (HeteroInstance, "targets"), (HeteroInstance, "theta_star"),
    (HeteroInstance, "sigma_star"), (DesignProblem, "sample_vectors"), (DesignProblem, "eval_vectors"),
    (DesignProblem, "variances"), (Design, "weights"), (Environment, "means"), (Environment, "variances"),
])
def test_non_finite_input_rejected(kind, field, bad):
    kwargs = _valid_arguments()[kind]
    kwargs[field] = kwargs[field].copy()
    kwargs[field].flat[0] = bad
    with pytest.raises(ValueError, match="finite"):
        kind(**kwargs)
