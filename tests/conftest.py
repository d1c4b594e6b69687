"""Shared oracles and instance generators for the test suite."""

from __future__ import annotations

import logging

import numpy as np
import pytest

from hetbandit import Environment, HeteroInstance, IdentTask

UNCERTIFIED_MESSAGE = "design solve not certified"


class _UncertifiedSolves(logging.Handler):
    """Collects the solver's uncertified-solve warnings."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages: list[str] = []

    def emit(self, record):
        message = record.getMessage()
        if message.startswith(UNCERTIFIED_MESSAGE):
            self.messages.append(message)


@pytest.fixture(autouse=True)
def no_uncertified_solves(request):
    """Fail a test whose design solves do not all certify, unless it is
    marked ``uncertified`` (it expects such a solve)."""
    handler = _UncertifiedSolves()
    logger = logging.getLogger("hetbandit")
    logger.addHandler(handler)
    try:
        yield
    finally:
        logger.removeHandler(handler)
    if handler.messages and request.node.get_closest_marker("uncertified") is None:
        pytest.fail(f"{len(handler.messages)} design solve(s) not certified: {handler.messages[0]}")


def silent_env(inst: HeteroInstance, seed=0) -> Environment:
    """A noiseless environment over ``inst``: its arm means, with zero variances."""
    return Environment(inst.arm_means, np.zeros(inst.n_arms), seed=seed)


def simplex_grid(n_points: int, step: float) -> np.ndarray:
    """All probability vectors on the n-point simplex with the given step."""
    scale = int(round(1.0 / step))
    if n_points == 2:
        i = np.arange(scale + 1)
        grid = np.stack([i, scale - i], axis=1)
    elif n_points == 3:
        i, j = np.meshgrid(np.arange(scale + 1), np.arange(scale + 1), indexing="ij")
        mask = i + j <= scale
        grid = np.stack([i[mask], j[mask], scale - i[mask] - j[mask]], axis=1)
    elif n_points == 4:
        blocks = []
        for i in range(scale + 1):
            j, k = np.meshgrid(
                np.arange(scale + 1 - i), np.arange(scale + 1 - i), indexing="ij"
            )
            mask = j + k <= scale - i
            blocks.append(
                np.stack(
                    [
                        np.full(mask.sum(), i),
                        j[mask],
                        k[mask],
                        scale - i - j[mask] - k[mask],
                    ],
                    axis=1,
                )
            )
        grid = np.vstack(blocks)
    else:
        raise ValueError("simplex_grid supports 2 to 4 points")
    return grid / float(scale)


def grid_minimax_value(samples, evals, variances, step) -> float:
    """Brute-force minimax design value over a simplex grid.

    Independent of the solver: batched explicit inverses, with near-singular
    information matrices masked out.
    """
    X = np.asarray(samples, dtype=np.float64)
    V = np.asarray(evals, dtype=np.float64)
    w = np.ones(X.shape[0]) if variances is None else np.asarray(variances, float)
    lams = simplex_grid(X.shape[0], step)
    outers = np.einsum("ni,nj->nij", X, X) / w[:, None, None]
    mats = np.einsum("gn,nij->gij", lams, outers)
    eigs = np.linalg.eigvalsh(mats)
    ok = eigs[:, 0] > 1e-9 * np.maximum(eigs[:, -1], 1e-30)
    inv = np.linalg.inv(mats[ok])
    quads = np.einsum("mi,gij,mj->gm", V, inv, V)
    return float(quads.max(axis=1).min())


def grid_psi_value(task: IdentTask, variances, step) -> float:
    """Grid-search oracle for the weighted identification complexity."""
    inst = task.instance
    Z = inst.targets
    values = inst.target_values()
    if task.objective == "bai":
        best = int(np.argmax(values))
        others = np.delete(np.arange(Z.shape[0]), best)
        directions = Z[best][None, :] - Z[others]
        gaps = values[best] - values[others]
    else:
        directions = Z
        gaps = np.abs(values - task.alpha)
    scaled = directions / gaps[:, None]
    return grid_minimax_value(inst.arms, scaled, variances, step)


def random_bai_instance(rng: np.random.Generator, d: int, n_arms: int,
                        min_gap: float = 0.05) -> IdentTask:
    """Random instance with spanning arms, PSD noise matrix, unique best arm."""
    while True:
        arms = rng.standard_normal((n_arms, d))
        arms /= np.linalg.norm(arms, axis=1, keepdims=True)
        if np.linalg.matrix_rank(arms) < d:
            continue
        theta = rng.standard_normal(d)
        basis = np.linalg.qr(rng.standard_normal((d, d)))[0]
        eigvals = rng.uniform(0.2, 2.0, size=d)
        sigma = basis @ np.diag(eigvals) @ basis.T
        sigma = 0.5 * (sigma + sigma.T)
        values = arms @ theta
        order = np.sort(values)[::-1]
        if len(values) > 1 and order[0] - order[1] < min_gap:
            continue
        inst = HeteroInstance.from_truth(arms, arms, theta, sigma)
        return IdentTask(objective="bai", delta=0.05, instance=inst)
