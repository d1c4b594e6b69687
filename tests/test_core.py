import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetbandit import (
    Design,
    DimensionMismatch,
    HeteroInstance,
    SingularInformation,
    info_matrix,
    lift_arms,
    lift_phi,
    quad_form_inv,
    unvech,
    vech,
)
from hetbandit.core import solve_psd
from hetbandit.varest import _clamp_all


def random_symmetric(rng, d):
    s = rng.standard_normal((d, d))
    return 0.5 * (s + s.T)


class TestLift:
    def test_basis_vector(self):
        arm = lift_phi(np.array([1.0, 0.0]))
        assert np.array_equal(arm.phi, [1.0, 0.0, 0.0])
        assert arm.phi @ vech(np.eye(2)) == 1.0

    def test_identity_matrix_case(self):
        arm = lift_phi(np.array([1.0, 2.0]))
        assert arm.phi @ vech(np.eye(2)) == pytest.approx(5.0, abs=1e-12)

    def test_matches_direct_product(self):
        rng = np.random.default_rng(3)
        x = np.array([0.3, -1.1, 2.0])
        sigma = random_symmetric(rng, 3)
        got = lift_phi(x).phi @ vech(sigma)
        assert got == pytest.approx(x @ sigma @ x, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_lift_identity_fuzz(self, d, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(d)
        sigma = random_symmetric(rng, d)
        direct = x @ sigma @ x
        lifted = lift_phi(x).phi @ vech(sigma)
        assert abs(lifted - direct) <= 1e-10 * (1 + abs(direct))

    def test_bulk_lift_matches_single(self):
        rng = np.random.default_rng(0)
        arms = rng.standard_normal((5, 4))
        bulk = lift_arms(arms)
        for i in range(5):
            assert np.allclose(bulk[i], lift_phi(arms[i]).phi)

    def test_lift_rejects_matrix_input(self):
        with pytest.raises(DimensionMismatch):
            lift_phi(np.eye(2))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_vech_roundtrip(self, d, seed):
        sigma = random_symmetric(np.random.default_rng(seed), d)
        assert np.allclose(unvech(vech(sigma), d), sigma)


class TestInfoMatrix:
    def test_uniform_basis(self):
        got = info_matrix(np.eye(2), [0.5, 0.5])
        assert np.allclose(got, np.diag([0.5, 0.5]))

    def test_weight_scaling(self):
        got = info_matrix(np.eye(2), [0.5, 0.5], weights=[2.0, 1.0])
        assert np.allclose(got, np.diag([0.25, 0.5]))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        vecs = rng.standard_normal((3, 2))
        lam = np.array([0.2, 0.5, 0.3])
        w = np.array([1.5, 0.7, 2.2])
        expected = np.zeros((2, 2))
        for v, l, ww in zip(vecs, lam, w):
            expected += l * np.outer(v, v) / ww
        assert np.allclose(info_matrix(vecs, lam, weights=w), expected, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_linearity_in_design(self, alpha, seed):
        rng = np.random.default_rng(seed)
        vecs = rng.standard_normal((4, 3))
        l1 = rng.dirichlet(np.ones(4))
        l2 = rng.dirichlet(np.ones(4))
        mixed = info_matrix(vecs, alpha * l1 + (1 - alpha) * l2)
        combo = alpha * info_matrix(vecs, l1) + (1 - alpha) * info_matrix(vecs, l2)
        assert np.allclose(mixed, combo, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            info_matrix(np.eye(2), [1.0])
        with pytest.raises(DimensionMismatch):
            info_matrix(np.eye(2), [0.5, 0.5], weights=[1.0])

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(ValueError):
            info_matrix(np.eye(2), [0.5, 0.5], weights=[1.0, 0.0])


class TestQuadFormInv:
    def test_identity(self):
        assert quad_form_inv(np.eye(2), np.array([3.0, 4.0])) == pytest.approx(25.0)

    def test_diagonal(self):
        got = quad_form_inv(np.diag([2.0, 5.0]), np.array([1.0, 1.0]))
        assert got == pytest.approx(0.7, abs=1e-12)

    def test_matches_explicit_inverse(self):
        rng = np.random.default_rng(11)
        b = rng.standard_normal((4, 4))
        a = b @ b.T + 0.1 * np.eye(4)
        v = rng.standard_normal(4)
        expected = v @ np.linalg.inv(a) @ v
        assert quad_form_inv(a, v) == pytest.approx(expected, rel=1e-9)

    def test_singular_raises_with_pivot(self):
        with pytest.raises(SingularInformation) as err:
            quad_form_inv(np.zeros((2, 2)), np.ones(2))
        assert hasattr(err.value, "smallest_pivot")

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            quad_form_inv(np.eye(2), np.ones(3))

    def test_ridge_fallback_on_near_singular(self):
        a = np.diag([1.0, 1e-300])
        v = np.array([1.0, 0.0])
        assert solve_psd(a, v) is not None


def _unit_instance():
    return HeteroInstance(
        np.eye(2), np.eye(2), np.array([1.0, 0.0]), np.eye(2), 0.1, 4.0
    )


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


class TestDesignType:
    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            Design(weights=np.array([-0.1, 1.1]), value=1.0, support_size=2)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            Design(weights=np.array([0.5, 0.4]), value=1.0, support_size=2)

    def test_support(self):
        d = Design(weights=np.array([0.5, 0.0, 0.5]), value=1.0, support_size=2)
        assert list(d.support) == [0, 2]
