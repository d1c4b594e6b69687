"""Seeded simulator of the noisy linear response model.

Uses a counter-based Philox generator behind numpy's Generator API so that
split sub-streams (replications, algorithm stages) are provably disjoint.
One Environment is owned by one worker at a time.
"""

from __future__ import annotations

import numpy as np

from .core import DimensionMismatch, HeteroInstance
from .design import RoundSchedule


class Environment:
    """Noisy responses ``N(means[i], variances[i])`` of each arm ``i``: under
    the linear model, ``x_i' theta`` and ``x_i' Sigma x_i``. Zero variances
    make it noiseless: every response is then its mean exactly; a negative
    variance raises ``ValueError``, and a schedule whose length is not the
    number of arms raises :class:`DimensionMismatch`.

    The per-arm arrays are kept by reference, not copied, so every environment
    built from one instance (and every ``split`` child) shares that instance's
    arrays. ``seed`` is an integer or a :class:`numpy.random.SeedSequence`.
    ``rng`` is the one generator behind every draw: the responses, and any
    random choice an algorithm makes (the uniform baseline's arm picks).
    Library algorithms draw per-arm sums or moments; ``sample_schedule`` draws
    single pulls for users.
    """

    # Callers may keep many environments (one per run), so no per-instance dict.
    __slots__ = ("means", "variances", "_seed_seq", "rng", "pull_count")

    def __init__(self, means, variances, seed=0):
        self.means = np.asarray(means, dtype=np.float64)
        self.variances = np.asarray(variances, dtype=np.float64)
        if self.means.ndim != 1 or self.variances.shape != self.means.shape:
            raise DimensionMismatch("means and variances must be 1-d arrays of one length")
        if not (np.isfinite(self.means).all() and np.isfinite(self.variances).all()):
            raise ValueError("means and variances must be finite")
        if (self.variances < 0).any():
            raise ValueError("variances must be nonnegative")
        self._seed_seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        self.rng = np.random.Generator(np.random.Philox(self._seed_seq))
        self.pull_count = 0

    @classmethod
    def from_instance(cls, instance: HeteroInstance, seed=0) -> "Environment":
        return cls(instance.arm_means, instance.arm_variances(), seed=seed)

    def split(self, n: int) -> list["Environment"]:
        """Spawn n child environments with disjoint random streams over the
        same per-arm arrays; each keeps its own pull count."""
        return [Environment(self.means, self.variances, seed=seq) for seq in self._seed_seq.spawn(n)]

    def _check_length(self, schedule: RoundSchedule) -> None:
        if len(schedule.counts) != self.means.size:
            raise DimensionMismatch(f"schedule has {len(schedule.counts)} counts for {self.means.size} arms")

    def sample_schedule(self, schedule: RoundSchedule) -> tuple[np.ndarray, np.ndarray]:
        """Execute a pull schedule in ascending arm order.

        Returns parallel arrays of arm indices and observations, one entry
        per pull. All pulls share one ``standard_normal`` call, which leaves
        the stream as it would be drawn one arm at a time.
        """
        self._check_length(schedule)
        idx = np.repeat(np.arange(self.means.size), schedule.counts)
        ys = self.means[idx] + np.sqrt(self.variances)[idx] * self.rng.standard_normal(idx.size)
        self.pull_count += schedule.total
        return idx, ys

    def sample_schedule_sums(self, schedule: RoundSchedule) -> tuple[np.ndarray, np.ndarray]:
        """Per-arm observation sums for a schedule, one Gaussian draw per pulled arm.

        The sum of n i.i.d. responses is drawn directly from its exact
        distribution, so estimators that only need per-arm totals avoid
        materializing every pull. Counts are returned as floats to survive
        very large budgets.
        """
        self._check_length(schedule)
        counts = np.asarray(schedule.counts, dtype=np.float64)
        pulled = counts > 0
        sums = np.zeros(counts.size)
        sums[pulled] = counts[pulled] * self.means[pulled]
        draws = self.rng.standard_normal(np.count_nonzero(pulled))
        sums[pulled] += np.sqrt(counts[pulled]) * np.sqrt(self.variances)[pulled] * draws
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
        counts, sums = self.sample_schedule_sums(schedule)
        ss = np.zeros(counts.size)
        many = counts > 1
        ss[many] = np.sqrt(self.variances)[many] ** 2 * self.rng.chisquare(counts[many] - 1)
        return counts, sums, ss
