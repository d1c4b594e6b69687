"""Seeded simulator of the noisy linear response model.

Uses a counter-based Philox generator behind numpy's Generator API so that
split sub-streams (replications, algorithm stages) are provably disjoint.
One Environment is owned by one worker at a time.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from .core import HeteroInstance, _as_matrix
from .design import RoundSchedule

NOISE_MODES = ("gaussian", "silent")


class Environment:
    """Noisy responses ``x' theta + N(0, x' Sigma x)``. Library algorithms draw per-arm
    sums or moments, never single pulls, so they do not log to ``recorder``."""

    # Callers may keep many environments (one per run), so no per-instance dict.
    __slots__ = ("arms", "theta_star", "sigma_star", "noise_mode", "recorder", "label",
                 "_seed_seq", "_rng", "pull_count", "_held_moments")

    def __init__(
        self,
        arms,
        theta_star,
        sigma_star,
        seed=0,
        noise_mode: str = "gaussian",
        recorder: list | None = None,
        label: str = "env",
        _seed_seq: np.random.SeedSequence | None = None,
    ):
        if noise_mode not in NOISE_MODES:
            raise ValueError(f"noise_mode must be one of {NOISE_MODES}")
        self.arms = _as_matrix(arms, "arms")
        self.theta_star = np.asarray(theta_star, dtype=np.float64).ravel()
        self.sigma_star = np.asarray(sigma_star, dtype=np.float64)
        self.noise_mode = noise_mode
        self.recorder = recorder
        self.label = label
        self._seed_seq = _seed_seq if _seed_seq is not None else np.random.SeedSequence(seed)
        self._rng = np.random.Generator(np.random.Philox(self._seed_seq))
        self.pull_count = 0
        self._held_moments: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def from_instance(
        cls,
        instance: HeteroInstance,
        seed=0,
        noise_mode: str = "gaussian",
        recorder: list | None = None,
    ) -> "Environment":
        return cls(
            instance.arms,
            instance.theta_star,
            instance.sigma_star,
            seed=seed,
            noise_mode=noise_mode,
            recorder=recorder,
        )

    def split(self, n: int) -> list["Environment"]:
        """Spawn n child environments with disjoint random streams.

        Children share the recorder (if any) but keep their own pull counts.
        """
        children = []
        for i, child_seq in enumerate(self._seed_seq.spawn(n)):
            children.append(
                Environment(
                    self.arms,
                    self.theta_star,
                    self.sigma_star,
                    noise_mode=self.noise_mode,
                    recorder=self.recorder,
                    label=f"{self.label}/{i}",
                    _seed_seq=child_seq,
                )
            )
        return children

    def _moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-arm means and noise standard deviations, computed per call
        rather than kept on every environment; a draw that needs them twice
        holds them for its duration."""
        if self._held_moments is not None:
            return self._held_moments
        var = np.einsum("ij,jk,ik->i", self.arms, self.sigma_star, self.arms)
        return self.arms @ self.theta_star, np.sqrt(np.maximum(var, 0.0))

    def _check_index(self, arm_index: int):
        if not 0 <= arm_index < self.arms.shape[0]:
            raise IndexError(f"arm index {arm_index} out of range")

    def sample(self, arm_index: int) -> float:
        """One noisy observation of the indexed arm: a one-pull schedule."""
        self._check_index(arm_index)
        counts = [0] * self.arms.shape[0]
        counts[arm_index] = 1
        _, ys = self.sample_schedule(RoundSchedule(tuple(counts), 1))
        return float(ys[0])

    def sample_schedule(self, schedule: RoundSchedule) -> tuple[np.ndarray, np.ndarray]:
        """Execute a pull schedule in ascending arm order.

        Returns parallel arrays of arm indices and observations, one entry
        per pull. All pulls share one ``standard_normal`` call, which leaves
        the stream as it would be drawn one arm at a time.
        """
        means, stds = self._moments()
        idx = np.repeat(np.arange(self.arms.shape[0]), schedule.counts)
        ys = means[idx]
        if self.noise_mode == "gaussian":
            ys = ys + stds[idx] * self._rng.standard_normal(idx.size)
        self.pull_count += schedule.total
        if self.recorder is not None:
            self.recorder.extend(zip(repeat(self.label), idx.tolist(), ys.tolist()))
        return idx, ys

    def sample_schedule_sums(self, schedule: RoundSchedule) -> tuple[np.ndarray, np.ndarray]:
        """Per-arm observation sums for a schedule, one Gaussian draw per pulled arm.

        The sum of n i.i.d. responses is drawn directly from its exact
        distribution, so estimators that only need per-arm totals avoid
        materializing every pull. Counts are returned as floats to survive
        very large budgets.
        """
        means, stds = self._moments()
        counts = np.asarray(schedule.counts, dtype=np.float64)
        pulled = counts > 0
        sums = np.zeros(counts.size)
        sums[pulled] = counts[pulled] * means[pulled]
        if self.noise_mode == "gaussian":
            draws = self._rng.standard_normal(np.count_nonzero(pulled))
            sums[pulled] += np.sqrt(counts[pulled]) * stds[pulled] * draws
        self.pull_count += schedule.total
        return counts, sums

    def sample_schedule_moments(self, schedule: RoundSchedule) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-arm (counts, sums, SS) for a schedule, in O(arms) whatever its total.

        ``SS`` is each arm's centred sum of squares. For Gaussian pulls it is
        independent of the sum and distributed as ``sigma^2 chi^2_{n-1}``, so
        it is drawn in one ``chisquare`` call after the sums, which are those of
        :meth:`sample_schedule_sums`. Arms with at most one pull read zero and
        take no draw.
        """
        # The sums go through the public method, so that its wrappers (the
        # benchmark probe counts pulls there) see these pulls too.
        moments = self._held_moments = self._moments()
        try:
            counts, sums = self.sample_schedule_sums(schedule)
        finally:
            self._held_moments = None
        ss = np.zeros(counts.size)
        if self.noise_mode == "gaussian":
            many = counts > 1
            ss[many] = moments[1][many] ** 2 * self._rng.chisquare(counts[many] - 1)
        return counts, sums, ss
