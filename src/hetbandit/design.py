"""Certified solver for weighted minimax designs, plus integer rounding.

Over the probability simplex on a finite set of sample vectors, minimize the
worst predictive variance ``max_v v' A(lam)^{-1} v`` with
``A(lam) = sum_x lam_x x x' / var_x``. Evaluation vectors may differ from
the sample vectors (transductive case) but must lie in their span.

Self-evaluating problems with one common variance have a known optimum (the
span dimension times the variance), which multiplicative D-optimal updates
approach. Everything else goes to one engine: exponentiated gradient on a
mixture of the evaluation vectors, run on the floored design
``(1 - eta) lam + eta / n`` with ``eta = tolerance / 3``. The floor keeps
``A`` well conditioned where the optimum leaves it singular, and the dual
bound, scaled by ``1 - eta``, bounds the original optimum, so a design
returned ``certified`` is within ``tolerance`` of it. Pruned unfloored weights
are returned whenever they certify too, so designs stay sparse.
"""

from __future__ import annotations

import hashlib
import logging
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Design,
    DimensionMismatch,
    SingularInformation,
    SpanViolation,
    _as_matrix,
    _cholesky_ridged,
    solve_psd,
)

PRUNE_THRESHOLD = 1e-7
# Beyond this condition proxy the dual bound drowns in solve error.
BOUND_COND_LIMIT = 1e8
# Damped multiplicative design steps per mixture step of the engine.
INNER_STEPS = 5

logger = logging.getLogger("hetbandit")


def _span_basis(X: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the row span of ``X``."""
    u, s, _ = np.linalg.svd(X.T, full_matrices=False)
    rank = int(np.sum(s > s[0] * max(X.shape) * np.finfo(float).eps)) if s.size else 0
    return u[:, :rank]


def _in_span(V: np.ndarray, basis: np.ndarray) -> bool:
    """Whether every row of ``V`` lies in the span of ``basis``' columns."""
    resid = np.linalg.norm(V - (V @ basis) @ basis.T, axis=1)
    return bool(np.all(resid <= 1e-9 * (1.0 + np.linalg.norm(V, axis=1))))


@dataclass
class DesignProblem:
    """A minimax design problem over a finite sample set.

    ``variances`` are per-sample noise variances dividing each outer product
    (all ones for the unweighted problem); ``max_iters`` caps the engine's
    mixture steps. Construction fails with :class:`SpanViolation` if any
    evaluation vector leaves the sample span; internally the problem is
    reduced to an orthonormal basis of that span so rank-deficient sample
    sets are handled uniformly.
    """

    sample_vectors: np.ndarray
    eval_vectors: np.ndarray
    variances: np.ndarray | None = None
    tolerance: float = 1e-3
    max_iters: int = 20_000
    _basis: np.ndarray = field(init=False, repr=False)
    _samples_r: np.ndarray = field(init=False, repr=False)
    _evals_r: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        X = _as_matrix(self.sample_vectors, "sample_vectors")
        V = _as_matrix(self.eval_vectors, "eval_vectors")
        if V.shape[1] != X.shape[1]:
            raise DimensionMismatch("sample and eval vectors must share a dimension")
        if self.variances is None:
            w = np.ones(X.shape[0])
        else:
            w = np.asarray(self.variances, dtype=np.float64)
            if w.shape != (X.shape[0],):
                raise DimensionMismatch("one variance per sample vector required")
            if np.any(w <= 0):
                raise ValueError("variances must be strictly positive")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        self.sample_vectors = X
        self.eval_vectors = V
        self.variances = w

        # Reduce to the sample span so singular directions never enter solves.
        basis = _span_basis(X)
        if basis.shape[1] == 0:
            raise ValueError("sample vectors are all zero")
        if not _in_span(V, basis):
            raise SpanViolation("evaluation vector outside span of sample vectors")
        self._basis = basis
        self._samples_r = X @ basis
        self._evals_r = V @ basis
        self._self_eval = X.shape == V.shape and np.array_equal(X, V)


def _psd_inverse_cond(A: np.ndarray) -> tuple[np.ndarray | None, float]:
    """``A^-1`` from one Cholesky factor and the squared ratio of its extreme
    pivots as a condition proxy; ``(None, inf)`` if the factorization fails."""
    try:
        c = np.linalg.cholesky(A)
        c_inv = np.linalg.inv(c)
    except np.linalg.LinAlgError:
        return None, math.inf
    diag = c.diagonal()
    cond = float((diag.max() / diag.min()) ** 2)
    return c_inv.T @ c_inv, cond


def _d_optimal_warmstart(X, prec, target, tolerance, iters=3000):
    """Pure multiplicative updates for constant-variance self-evaluating
    problems: lam <- lam * score / rank, monotone toward the equivalence
    optimum. Runs until the minimax value enters the tolerance band."""
    n, rank = X.shape
    lam = np.full(n, 1.0 / n)
    best_lam, best_value = lam.copy(), math.inf
    for _ in range(iters):
        A = (X * (lam * prec)[:, None]).T @ X
        try:
            c = _cholesky_ridged(A)
        except SingularInformation:
            break
        # x' A^-1 x is the squared norm of L^-1 x.
        root = X @ np.linalg.inv(c).T
        quads = np.einsum("ij,ij->i", root, root)
        f = float(quads.max())
        if not np.isfinite(f) or f <= 0:
            break
        if f < best_value:
            best_value, best_lam = f, lam.copy()
            if best_value <= target * (1.0 + 0.8 * tolerance):
                break
        lam = lam * (prec * quads) / rank
        lam /= lam.sum()
    return best_lam


def _floored_eg_solve(X, V, prec, tolerance, max_steps):
    """Exponentiated-gradient ascent on the evaluation mixture ``mu``, with
    ``INNER_STEPS`` damped multiplicative design steps per mixture step, on
    the floored design ``lam_eff = (1 - eta) lam + eta / n``.

    For ``M = sum_m mu_m v_m v_m'`` and ``t_x = prec_x x' A^-1 M A^-1 x`` at
    ``lam_eff``, linearizing ``phi = tr(M A^-1)`` in ``lam`` bounds the
    floored optimum below by ``phi - (1 - eta) (max t - lam . t)``. Since
    ``A(lam_eff) >= (1 - eta) A(lam)``, the original optimum is at least
    ``1 - eta`` times the floored one, so ``(1 - eta)`` times that bound is a
    lower bound on it. Each step factors its ``A`` once. Stops once the best
    floored value is within ``tolerance`` of the bound, or after
    ``max_steps`` mixture steps; returns the bound and the unfloored weights
    of the best floored design seen.
    """
    n, m = X.shape[0], V.shape[0]
    eta = tolerance / 3.0
    mu = np.full(m, 1.0 / m)
    lam = np.full(n, 1.0 / n)
    best_bound, best_value, best_lam = -math.inf, math.inf, lam
    for _ in range(max_steps):
        for step in range(INNER_STEPS + 1):
            A = (X * (((1.0 - eta) * lam + eta / n) * prec)[:, None]).T @ X
            A_inv, cond = _psd_inverse_cond(A)
            if A_inv is None:
                return best_bound, best_lam
            # t = prec x' A^-1 M A^-1 x as a weighted sum of squares, never negative.
            C = A_inv @ V.T
            t = prec * ((X @ C) ** 2 @ mu)
            lam_t = float(lam @ t)
            if step == INNER_STEPS or not np.isfinite(lam_t) or lam_t <= 0:
                break
            # Square-root damping keeps the fixed point from oscillating.
            lam = lam * np.sqrt(t / lam_t)
            lam /= lam.sum()

        quads = np.einsum("mr,rm->m", V, C)
        f = float(quads.max())
        if not np.isfinite(f) or f <= 0:
            break
        if cond <= BOUND_COND_LIMIT:
            phi = float(mu @ quads)
            bound = (1.0 - eta) * (phi - (1.0 - eta) * (float(t.max()) - lam_t))
            best_bound = max(best_bound, bound)
        if f < best_value:
            best_value, best_lam = f, lam
        if best_value <= best_bound * (1.0 + tolerance):
            break
        mu = mu * np.exp(2.0 * (quads - f) / f)
        mu /= mu.sum()
    return best_bound, best_lam


def _design_value(X: np.ndarray, V: np.ndarray, prec: np.ndarray, lam: np.ndarray) -> float:
    """``max_v v' A(lam)^+ v``. A singular ``A`` is solved on the span of the
    design's support, and the value is infinite if ``V`` leaves that span."""
    A = (X * (lam * prec)[:, None]).T @ X
    if _psd_inverse_cond(A)[1] > BOUND_COND_LIMIT:
        basis = _span_basis(X[lam > 0])
        if not _in_span(V, basis):
            return math.inf
        X, V = X @ basis, V @ basis
        A = (X * (lam * prec)[:, None]).T @ X
    return float(np.einsum("mr,rm->m", V, solve_psd(A, V.T)).max())


# Solved designs kept per process, least recently used first out.
MEMO_SIZE = 256
_memo: OrderedDict[bytes, Design] = OrderedDict()
_memo_lock = threading.Lock()


def _problem_digest(problem: DesignProblem) -> bytes:
    """Digest of everything the solver reads: the arrays, tolerance and cap."""
    digest = hashlib.blake2b(digest_size=16)
    for part in (problem.sample_vectors, problem.eval_vectors, problem.variances):
        digest.update(repr(part.shape).encode())
        digest.update(part.tobytes())
    digest.update(repr((float(problem.tolerance), int(problem.max_iters))).encode())
    return digest.digest()


def solve_design(problem: DesignProblem) -> Design:
    """Minimax design for ``problem``; see :func:`_solve_design`.

    The solver is deterministic and :class:`Design` is frozen, so a problem
    already solved in this process (same arrays bit for bit, same tolerance
    and iteration cap) returns the stored design. The memo holds digests and
    designs only, never the problem's arrays, and at most ``MEMO_SIZE`` of
    them. Failed solves are not stored.
    """
    key = _problem_digest(problem)
    with _memo_lock:
        design = _memo.get(key)
        if design is not None:
            _memo.move_to_end(key)
            return design
    design = _solve_design(problem)
    with _memo_lock:
        _memo[key] = design
        if len(_memo) > MEMO_SIZE:
            _memo.popitem(last=False)
    return design


def _solve_design(problem: DesignProblem) -> Design:
    """Certified minimax design; see the module docstring for the engines.

    Candidates, each valued by :func:`_design_value`: the D-optimal weights
    where that path applies, the engine's weights pruned below
    ``PRUNE_THRESHOLD``, then its floored design. The first within
    ``tolerance`` of the bound is returned ``certified``; otherwise the best,
    uncertified, with a warning of its gap ``value / bound - 1`` logged.
    """
    X, V = problem._samples_r, problem._evals_r
    prec = 1.0 / problem.variances
    n, r = X.shape
    if V.shape[0] == 0:
        raise ValueError("need at least one evaluation vector")
    tol = problem.tolerance
    bound = -math.inf
    tried: list[Design] = []

    def attempt(lam: np.ndarray) -> bool:
        value = _design_value(X, V, prec, lam)
        tried.append(Design(weights=lam, value=value, support_size=int(np.count_nonzero(lam)),
                            certified=value <= bound * (1.0 + tol)))
        return tried[-1].certified

    def pruned(lam: np.ndarray) -> np.ndarray:
        lam = np.where(lam < PRUNE_THRESHOLD, 0.0, lam)
        return lam / lam.sum()

    variance = float(problem.variances[0])
    if problem._self_eval and np.all(problem.variances == variance):
        bound = r * variance
        lam = _d_optimal_warmstart(X, prec, bound, tol, iters=min(3000, problem.max_iters))
        if attempt(pruned(lam)):
            return tried[-1]

    eg_bound, lam = _floored_eg_solve(X, V, prec, tol, problem.max_iters)
    bound = max(bound, eg_bound)
    eta = tol / 3.0
    if attempt(pruned(lam)) or attempt((1.0 - eta) * lam + eta / n):
        return tried[-1]
    design = min(tried, key=lambda d: d.value)
    logger.warning(
        "design solve not certified within %d steps: value %.6g, bound %.6g, gap %.3g",
        problem.max_iters, design.value, bound,
        design.value / bound - 1.0 if bound > 0 else math.inf,
    )
    return design


@dataclass(frozen=True)
class RoundSchedule:
    """Integer pull counts derived from a continuous design."""

    counts: tuple[int, ...]
    total: int


def round_design(design: Design, n_samples, mode: str = "ceiling") -> RoundSchedule:
    """Turn a continuous design into integer pull counts.

    ``ceiling`` takes ceil(N * lam) on the support, overshooting by at most
    the support size. ``efficient`` apportions exactly N pulls
    (Pukelsheim-style largest-remainder adjustment) and requires integer N.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be at least 1")
    lam = design.weights
    support = np.flatnonzero(lam)
    counts = np.zeros(lam.shape[0], dtype=np.float64)
    if mode == "ceiling":
        counts[support] = np.ceil(n_samples * lam[support])
    elif mode == "efficient":
        n_samples = int(n_samples)
        p = support.size
        counts[support] = np.ceil((n_samples - 0.5 * p) * lam[support])
        while counts.sum() != n_samples:
            if counts.sum() < n_samples:
                j = support[int(np.argmin(counts[support] / lam[support]))]
                counts[j] += 1
            else:
                j = support[int(np.argmax((counts[support] - 1) / lam[support]))]
                counts[j] -= 1
    else:
        raise ValueError(f"unknown rounding mode {mode!r}")
    as_ints = tuple(int(c) for c in counts)
    return RoundSchedule(counts=as_ints, total=sum(as_ints))
