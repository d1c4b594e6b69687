import math

import numpy as np
import pytest

from conftest import silent_env
from hetbandit import (
    DimensionMismatch,
    Environment,
    HeteroInstance,
    RoundSchedule,
    head_estimate,
    mae,
    separate_arm_estimate,
    uniform_estimate,
)


def make_instance():
    arms = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    sigma = np.diag([4.0, 1.0])
    return HeteroInstance.from_truth(arms, arms, np.array([1.0, 0.5]), sigma)


def schedule(counts):
    return RoundSchedule(tuple(counts))


def pull(env, arm):
    """One noisy observation of ``arm``: a one-pull schedule."""
    counts = [0] * env.means.size
    counts[arm] = 1
    _, ys = env.sample_schedule(schedule(counts))
    return float(ys[0])


class TestSample:
    def test_silent_mode_exact(self):
        env = silent_env(make_instance(), seed=0)
        assert pull(env, 0) == 1.0
        assert env.pull_count == 1

    def test_zero_noise_matrix_exact(self):
        # Zero variances are allowed at the simulator level only.
        env = Environment(np.array([0.7, 0.1]), np.zeros(2), seed=3)
        assert pull(env, 0) == pytest.approx(0.7, abs=0.0)

    def test_large_sample_moments(self):
        env = Environment.from_instance(make_instance(), seed=42)
        _, ys = env.sample_schedule(schedule([10**6, 0, 0]))
        assert abs(ys.mean() - 1.0) < 0.02
        assert abs(ys.var() / 4.0 - 1.0) < 0.03


class TestDeterminism:
    def test_equal_seeds_equal_streams(self):
        inst = make_instance()
        env_a = Environment.from_instance(inst, seed=7)
        env_b = Environment.from_instance(inst, seed=7)
        seq_a = [pull(env_a, i % 3) for i in range(20)]
        seq_b = [pull(env_b, i % 3) for i in range(20)]
        assert seq_a == seq_b

    def test_schedule_matches_call_sequence(self):
        inst = make_instance()
        env_a = Environment.from_instance(inst, seed=5)
        env_b = Environment.from_instance(inst, seed=5)
        idx, ys = env_a.sample_schedule(schedule([2, 1, 0]))
        manual = [pull(env_b, 0), pull(env_b, 0), pull(env_b, 1)]
        assert list(idx) == [0, 0, 1]
        assert np.allclose(ys, manual)

    def test_split_streams_disjoint(self):
        inst = make_instance()
        parent = Environment.from_instance(inst, seed=11)
        child_a, child_b = parent.split(2)
        draws_a = [pull(child_a, 0) for _ in range(5)]
        draws_b = [pull(child_b, 0) for _ in range(5)]
        draws_p = [pull(parent, 0) for _ in range(5)]
        assert draws_a != draws_b
        assert draws_a != draws_p

    def test_split_reproducible(self):
        inst = make_instance()
        one = Environment.from_instance(inst, seed=11).split(2)[1]
        two = Environment.from_instance(inst, seed=11).split(2)[1]
        assert [pull(one, 2) for _ in range(4)] == [pull(two, 2) for _ in range(4)]


class TestBookkeeping:
    def test_pull_count_conservation(self):
        env = Environment.from_instance(make_instance(), seed=1)
        env.sample_schedule(schedule([3, 2, 1]))
        env.sample_schedule(schedule([0, 4, 0]))
        assert env.pull_count == 10

    def test_sums_path_advances_pull_count(self):
        env = Environment.from_instance(make_instance(), seed=1)
        counts, sums = env.sample_schedule_sums(schedule([5, 0, 2]))
        assert env.pull_count == 7
        assert counts[0] == 5 and counts[2] == 2 and counts[1] == 0

    def test_sums_exact_in_silent_mode(self):
        env = silent_env(make_instance(), seed=1)
        counts, sums = env.sample_schedule_sums(schedule([4, 3, 0]))
        assert sums[0] == pytest.approx(4 * 1.0)
        assert sums[1] == pytest.approx(3 * 0.5)

    def test_sums_match_distribution(self):
        # Mean/variance of per-arm sums over replications track count*mu and
        # count*sigma^2.
        inst = make_instance()
        totals = []
        for seed in range(400):
            env = Environment.from_instance(inst, seed=seed)
            _, sums = env.sample_schedule_sums(schedule([10, 0, 0]))
            totals.append(sums[0])
        totals = np.array(totals)
        assert abs(totals.mean() - 10.0) < 0.7
        assert abs(totals.var() / 40.0 - 1.0) < 0.3


class TestSharedArrays:
    def test_environments_hold_the_instance_arrays(self):
        # No environment owns a per-arm array: the instance's frozen means and
        # variances are shared, not copied, by every split child too.
        inst = make_instance()
        env = Environment.from_instance(inst, seed=4)
        for e in [env, *env.split(3), *env.split(2)[0].split(2)]:
            assert e.means is inst.arm_means
            assert e.variances is inst.arm_variances()
        assert not inst.arm_means.flags.writeable
        assert not inst.arm_variances().flags.writeable
        assert np.array_equal(inst.arm_means, inst.arms @ inst.theta_star)
        assert np.array_equal(
            inst.arm_variances(), np.einsum("ij,jk,ik->i", inst.arms, inst.sigma_star, inst.arms)
        )

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(DimensionMismatch):
            Environment(np.zeros(3), np.ones(2))


def _draw(counts, method="sample_schedule_sums"):
    env = Environment(np.zeros(2), np.ones(2))
    return getattr(env, method)(RoundSchedule(counts))


class TestMalformedInput:
    # Malformed input raises rather than being read as something else: a
    # negative variance as a noiseless arm, a negative count as pulls taken
    # back, a fractional count as a fractional pull.
    @pytest.mark.parametrize("make, error", [
        (lambda: Environment(np.zeros(2), [-1.0, 1.0]), ValueError),
        (lambda: RoundSchedule((-1, 3)), ValueError),
        (lambda: RoundSchedule((1.5, 2)), ValueError),
        (lambda: RoundSchedule(((1, 2),)), ValueError),
        (lambda: _draw((1, 2, 3)), DimensionMismatch),
        (lambda: _draw((1,)), DimensionMismatch),
        (lambda: _draw((1, 2, 3), "sample_schedule"), DimensionMismatch),
        (lambda: _draw((1, 2, 3), "sample_schedule_moments"), DimensionMismatch),
    ], ids=["negative-variance", "negative-count", "fractional-count", "nested-counts",
            "long-sums", "short-sums", "long-pulls", "long-moments"])
    def test_rejected(self, make, error):
        with pytest.raises(error):
            make()


class TestBoundaryInput:
    def test_counts_beyond_int64_draw(self):
        env = Environment(np.zeros(2), np.ones(2))
        counts, sums = env.sample_schedule_sums(RoundSchedule((2**70, 1)))
        assert counts[0] == 2.0**70 and np.isfinite(sums).all()
        assert env.pull_count == 2**70 + 1

    def test_drawn_counts_are_the_schedules_float_array(self):
        # Converted once, when the schedule is built: every draw reads that array.
        schedule = RoundSchedule((3, 0, 2))
        counts, _ = Environment(np.zeros(3), np.ones(3)).sample_schedule_sums(schedule)
        assert counts is schedule._draw_counts and counts.dtype == np.float64
        assert not counts.flags.writeable and counts.tolist() == [3.0, 0.0, 2.0]

    def test_rounding_negative_variance_simulates_as_zero(self):
        # A rank-2 sigma_star with one arm along its null vector: x' Sigma x
        # rounds below zero, inside the instance's tolerance.
        u = np.ones(3) / np.sqrt(3.0)
        arms = np.vstack([np.eye(3), u])
        sigma = np.eye(3) - np.outer(u, u)
        assert np.einsum("ij,jk,ik->i", arms, sigma, arms)[3] < 0
        inst = HeteroInstance(arms, arms, np.zeros(3), sigma, 1e-300, 1.0)
        assert inst.arm_variances()[3] == 0.0
        _counts, sums = Environment.from_instance(inst).sample_schedule_sums(RoundSchedule((1, 1, 1, 2)))
        assert sums[3] == 0.0


class LoopReference:
    """The per-arm loop the environment's sampling must match bit for bit.

    Draws from its own Philox stream over the same seed, one arm at a time
    and one scalar per ``sample`` call, with each arm's variance scaled by
    ``noise`` (1 for the instance's, 0 for none).
    """

    def __init__(self, inst, seed, noise):
        self.means = inst.arms @ inst.theta_star
        var = noise * np.einsum("ij,jk,ik->i", inst.arms, inst.sigma_star, inst.arms)
        self.stds = np.sqrt(np.maximum(var, 0.0))
        self.rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        self.pull_count = 0

    def sample(self, arm):
        y = self.means[arm] + self.stds[arm] * self.rng.standard_normal()
        self.pull_count += 1
        return float(y)

    def sample_schedule(self, counts):
        idx_parts, y_parts = [np.empty(0, dtype=np.int64)], [np.empty(0)]
        for arm, count in enumerate(counts):
            if count <= 0:
                continue
            ys = self.means[arm] + self.stds[arm] * self.rng.standard_normal(count)
            idx_parts.append(np.full(count, arm, dtype=np.int64))
            y_parts.append(ys)
        idx, ys = np.concatenate(idx_parts), np.concatenate(y_parts)
        self.pull_count += sum(counts)
        return idx, ys

    def sample_schedule_sums(self, counts):
        out_counts, sums = np.zeros(len(counts)), np.zeros(len(counts))
        for arm, count in enumerate(counts):
            if count <= 0:
                continue
            out_counts[arm] = float(count)
            sums[arm] = float(count) * self.means[arm]
            sums[arm] += math.sqrt(count) * self.stds[arm] * self.rng.standard_normal()
        self.pull_count += sum(counts)
        return out_counts, sums

    def sample_schedule_moments(self, counts):
        out_counts, sums = self.sample_schedule_sums(counts)
        ss = np.zeros(len(counts))
        for arm, count in enumerate(counts):
            if count > 1:
                ss[arm] = self.stds[arm] ** 2 * self.rng.chisquare(count - 1)
        return out_counts, sums, ss


# The instance's variances, or none: a noiseless environment draws the same
# stream and reads every response at its mean.
NOISE_LEVELS = pytest.mark.parametrize("noise", [1.0, 0.0], ids=["gaussian", "silent"])


class TestLoopFreeSampling:
    CALLS = (
        ("schedule", [3, 0, 2]),
        ("sample", 1),
        ("sums", [4, 0, 1]),
        ("schedule", [0, 0, 0]),
        ("sums", [0, 0, 0]),
        ("sample", 2),
        ("schedule", [0, 5, 0]),
        ("sums", [7, 2, 9]),
        ("schedule", [1, 1, 1]),
        ("sample", 0),
    )

    @NOISE_LEVELS
    @pytest.mark.parametrize("seed", [0, 3])
    def test_bit_identical_to_per_arm_loop(self, noise, seed):
        inst = make_instance()
        env = Environment(inst.arm_means, noise * inst.arm_variances(), seed=seed)
        ref = LoopReference(inst, seed, noise)
        for kind, arg in self.CALLS:
            if kind == "sample":
                assert pull(env, arg) == ref.sample(arg)
            elif kind == "schedule":
                idx, ys = env.sample_schedule(schedule(arg))
                ref_idx, ref_ys = ref.sample_schedule(arg)
                assert idx.dtype == ref_idx.dtype and np.array_equal(idx, ref_idx)
                assert np.array_equal(ys, ref_ys)
            else:
                counts, sums = env.sample_schedule_sums(schedule(arg))
                ref_counts, ref_sums = ref.sample_schedule_sums(arg)
                assert np.array_equal(counts, ref_counts)
                assert np.array_equal(sums, ref_sums)
            assert env.pull_count == ref.pull_count
        # The streams are still in step after every call.
        assert pull(env, 1) == ref.sample(1)


class TestMomentSampling:
    SCHEDULES = ([1, 0, 5], [0, 0, 0], [0, 1, 1], [2, 0, 0], [7, 3, 9], [1, 1, 1])

    @pytest.mark.parametrize("seed", [0, 3])
    def test_counts_and_sums_match_sums_path(self, seed):
        inst = make_instance()
        for counts in self.SCHEDULES:
            env = Environment.from_instance(inst, seed=seed)
            ref = Environment.from_instance(inst, seed=seed)
            got_counts, got_sums, _ = env.sample_schedule_moments(schedule(counts))
            ref_counts, ref_sums = ref.sample_schedule_sums(schedule(counts))
            assert np.array_equal(got_counts, ref_counts)
            assert np.array_equal(got_sums, ref_sums)
            assert env.pull_count == ref.pull_count == sum(counts)

    @NOISE_LEVELS
    @pytest.mark.parametrize("seed", [0, 3])
    def test_bit_identical_to_per_arm_loop(self, noise, seed):
        # Arms with zero or one pull read SS = 0 and take no draw, so the
        # streams stay in step after every call.
        inst = make_instance()
        env = Environment(inst.arm_means, noise * inst.arm_variances(), seed=seed)
        ref = LoopReference(inst, seed, noise)
        for counts in self.SCHEDULES:
            got = env.sample_schedule_moments(schedule(counts))
            want = ref.sample_schedule_moments(counts)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
            assert np.all(got[2][np.asarray(counts) <= 1] == 0.0)
            assert env.pull_count == ref.pull_count
        assert pull(env, 1) == ref.sample(1)

    def test_arm_moments_computed_once(self, monkeypatch):
        einsum = np.einsum
        calls = []

        def counting_einsum(*args, **kwargs):
            calls.append(args[0])
            return einsum(*args, **kwargs)

        # The instance computes each arm's x' Sigma x once, at construction;
        # no environment or draw computes it again.
        truth = make_instance()
        monkeypatch.setattr(np, "einsum", counting_einsum)
        inst = HeteroInstance(truth.arms, truth.targets, truth.theta_star, truth.sigma_star,
                              truth.sigma_min_sq, truth.sigma_max_sq)
        assert len(calls) == 1
        # from_truth sets the bounds from the constructor's own pass.
        calls.clear()
        tight = HeteroInstance.from_truth(truth.arms, truth.targets, truth.theta_star, truth.sigma_star)
        assert len(calls) == 1
        var = inst.arm_variances()
        assert (tight.sigma_min_sq, tight.sigma_max_sq) == (var.min(), var.max())
        env = Environment.from_instance(inst, seed=2)
        env.sample_schedule_moments(schedule([3, 1, 4]))
        env.split(2)[1].sample_schedule_sums(schedule([1, 1, 1]))
        env.sample_schedule(schedule([2, 0, 1]))
        assert len(calls) == 1

    def test_silent_mode_exact(self):
        inst = make_instance()
        env = silent_env(inst, seed=1)
        counts, sums, ss = env.sample_schedule_moments(schedule([4, 0, 3]))
        assert np.array_equal(counts, [4.0, 0.0, 3.0])
        assert np.array_equal(sums, counts * inst.arm_means)
        assert np.array_equal(ss, np.zeros(3))
        assert env.pull_count == 7

    @pytest.mark.parametrize("n", [2, 10])
    def test_chi_square_moments(self, n):
        # 20 000 identical arms with variance 4: SS / 4 ~ chi^2_{n-1}, so
        # E[SS] = 4 (n-1) and Var[SS] = 32 (n-1). The tolerances (4 % on the
        # mean, 10 % on the variance) are at least 3.8 standard errors.
        env = Environment(np.full(20_000, 0.5), np.full(20_000, 4.0), seed=17)
        _, _, ss = env.sample_schedule_moments(schedule([n] * 20_000))
        assert abs(ss.mean() / (4.0 * (n - 1)) - 1.0) < 0.04
        assert abs(ss.var() / (32.0 * (n - 1)) - 1.0) < 0.10

    def test_budget_of_1e8(self):
        inst = make_instance()
        gamma = 10**8
        env = Environment.from_instance(inst, seed=5)
        counts, _, ss = env.sample_schedule_moments(schedule([gamma, 0, 0]))
        assert env.pull_count == gamma and counts[0] == gamma
        assert abs(ss[0] / (4.0 * (gamma - 1)) - 1.0) < 1e-3
        head = head_estimate(inst, Environment.from_instance(inst, seed=6), gamma)
        assert head.budget_used == sum(head.stage_totals) >= gamma
        assert min(head.stage_totals) >= gamma // 2
        uniform = uniform_estimate(inst, Environment.from_instance(inst, seed=7), gamma)
        assert uniform.budget_used == gamma
        separate = separate_arm_estimate(inst, Environment.from_instance(inst, seed=8), gamma)
        assert separate.budget_used == 3 * (gamma // 3)
        for est in (head, uniform, separate):
            assert mae(est, inst) < 0.01
