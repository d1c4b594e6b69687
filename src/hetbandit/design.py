"""Certified solver for weighted minimax designs, plus integer rounding.

Over the probability simplex on a finite set of sample vectors, minimize the
worst predictive variance ``max_v v' A(lam)^{-1} v`` with
``A(lam) = sum_x lam_x x x' / var_x``. Evaluation vectors may differ from
the sample vectors (transductive case) but must lie in their span.

No invertible map of the space changes that value, so a problem is whitened
when it is solved, never on a memo hit: the uniform design has ``A = I``.
Self-evaluating problems with one common variance have a known optimum, the
span dimension times the variance (Kiefer & Wolfowitz), which guarded,
accelerated multiplicative updates approach and certify against by themselves.
Everything else goes to one engine: exponentiated gradient on a mixture of
the evaluation vectors, whose multiplicative design steps (power 3/4) end by
a gap rule, run on the floored design ``(1 - eta) lam + eta / n`` with
``eta = tolerance / 10``. Its ``A`` stays between ``eta I`` and ``n I``, so
the dual bound is formed at every step with no condition gate; scaled by
``1 - eta`` it bounds the original optimum, so a design returned
``certified`` is within ``tolerance`` of it. Pruned unfloored weights, valued
like every candidate through the pseudo-inverse, are returned whenever they
certify, so designs stay sparse.
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
    SpanViolation,
    _frozen,
    gram_eigh,
    quad_forms,
    solve_psd,  # not called here; bench/probe.py counts calls through this name
)

PRUNE_THRESHOLD = 1e-7
# Caps the D-optimal updates, or the engine's design and mixture steps together.
MAX_STEPS = 20_000

logger = logging.getLogger("hetbandit")


@dataclass(frozen=True)
class DesignProblem:
    """A minimax design problem over a finite sample set.

    ``variances`` are per-sample noise variances dividing each outer product
    (all ones for the unweighted problem). Construction checks shapes, signs,
    finiteness, the tolerance and that there is an evaluation vector, keeps a
    private read-only copy of each array (:func:`_frozen`), so no later write
    by the caller reaches the problem or its memo key, and takes the memo
    digest; solves check spans.
    """

    sample_vectors: np.ndarray
    eval_vectors: np.ndarray
    variances: np.ndarray | None = None
    tolerance: float = 1e-3

    def __post_init__(self):
        X = _frozen(self.sample_vectors, "sample_vectors", rows=True)
        # Eval vectors given as the sample array itself share its frozen copy.
        V = X if self.eval_vectors is self.sample_vectors else _frozen(
            self.eval_vectors, "eval_vectors", rows=True)
        if V.shape[1] != X.shape[1]:
            raise DimensionMismatch("sample and eval vectors must share a dimension")
        if V.shape[0] == 0:
            raise ValueError("need at least one evaluation vector")
        w = _frozen(np.ones(X.shape[0]) if self.variances is None else self.variances, "variances")
        if w.shape != (X.shape[0],):
            raise DimensionMismatch("one variance per sample vector required")
        if not np.all(w > 0):
            raise ValueError("variances must be strictly positive")
        if not 0 < self.tolerance < 1:
            raise ValueError("tolerance must lie in (0, 1)")
        object.__setattr__(self, "sample_vectors", X)
        object.__setattr__(self, "eval_vectors", V)
        object.__setattr__(self, "variances", w)
        object.__setattr__(self, "_self_eval", V is X or (X.shape == V.shape and np.array_equal(X, V)))
        object.__setattr__(self, "_digest", _problem_digest(self))


def _whiten(X: np.ndarray, V: np.ndarray, variances: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample and evaluation vectors (one array if ``V is X``) whitened on
    the sample span, so the uniform design has ``A = I``. If ``gram_eigh`` of
    the rows ``x_i / sqrt(var_i n)`` has ``lam_min > 2 delta``, its
    eigenvectors over ``sqrt(lam)`` whiten ``A`` to within ``I / 2`` of ``I``.
    Any other set, rank deficient or beyond what the Gram resolves, takes one
    SVD of the rows, keeping singular values above ``s_max max(n, d) eps``.
    Raises :class:`SpanViolation` if an evaluation vector has more than
    ``1e-9 (1 + ||v||)`` outside the span, and ``ValueError`` if it is empty.
    """
    rows = X * np.sqrt(1.0 / (variances * X.shape[0]))[:, None]
    lam, basis, delta = gram_eigh(rows)
    if lam.size and lam[0] > 2.0 * delta:
        s = np.sqrt(lam)
    else:
        basis, s, _ = np.linalg.svd(rows.T, full_matrices=False)
        rank = int(np.sum(s > s[0] * max(X.shape) * np.finfo(np.float64).eps)) if s.size else 0
        if rank == 0:
            raise ValueError("sample vectors are all zero")
        basis, s = basis[:, :rank], s[:rank]
        outside = np.linalg.norm(V - (V @ basis) @ basis.T, axis=1)
        if np.any(outside > 1e-9 * (1.0 + np.linalg.norm(V, axis=1))):
            raise SpanViolation("evaluation vector outside span of sample vectors")
    whiten = basis / s
    Xw = X @ whiten
    return Xw, Xw if V is X else V @ whiten


def _d_optimal_solve(X, prec, target, tolerance, max_iters):
    """Multiplicative updates for constant-variance self-evaluating problems,
    accelerated, toward the equivalence optimum ``target``: lam <- lam (prec
    x'A^-1 x / rank)^2, the first from ``A = I`` (:func:`_whiten`), each other
    from one ``inv`` of ``A``. Neither this nor the plain step (power 1) is
    monotone in ``f = max x'A^-1 x``, so a step that raises ``f`` or makes
    ``A`` singular is retaken plain from the previous weights. Stops once the
    best ``f`` is within ``target (1 + 0.8 tolerance)``, after ``max_iters``
    inverses, or at a singular plain step; returns the best weights seen."""
    n, rank = X.shape
    lam = best_lam = np.full(n, 1.0 / n)
    quads, power = np.einsum("ij,ij->i", X, X), 2
    f = best_value = float(quads.max())
    for _ in range(max_iters):
        if best_value <= target * (1.0 + 0.8 * tolerance):
            break
        step = lam * (prec * quads / rank) ** power
        step /= step.sum()
        try:
            step_quads = np.einsum("ij,ij->i", X @ np.linalg.inv((X * (step * prec)[:, None]).T @ X), X)
            step_f = float(step_quads.max())
        except np.linalg.LinAlgError:
            step_f = math.nan
        if power == 2 and not step_f <= f:
            power = 1
        elif 0 < step_f < math.inf:
            lam, quads, f, power = step, step_quads, step_f, 2
            if f < best_value:
                best_value, best_lam = f, lam
        else:
            break
    return best_lam


def _floored_eg_solve(X, V, prec, tolerance, max_steps):
    """Exponentiated-gradient ascent on the evaluation mixture ``mu``, with
    damped multiplicative design steps ``lam <- lam t^(3/4)``, on the floored
    design ``lam_eff = (1 - eta) lam + eta / n``, ``eta = tolerance / 10``.

    For ``M = sum_m mu_m v_m v_m'`` and ``t_x = prec_x x' A^-1 M A^-1 x`` at
    ``lam_eff``, linearizing ``phi = tr(M A^-1)`` in ``lam`` bounds the floored
    optimum below by ``phi - (1 - eta) (max t - lam . t)``. Since
    ``A(lam_eff) >= (1 - eta) A(lam)``, the original optimum is at least
    ``1 - eta`` times the floored one, so ``(1 - eta)`` times that bound is a
    lower bound on it. With ``X`` whitened by :func:`_whiten`, every floored
    ``A`` lies between about ``eta I`` and ``n I``, so the bound needs no
    condition gate. The gap of ``f = max_m v_m' A^-1 v_m`` to the bound has
    a mixture side ``f - phi``, which only ``mu`` closes, and a design side
    ``max t - lam . t``: ``lam`` takes a step while the design side exceeds
    ``(f - phi + tolerance phi) / 2``, and ``mu`` takes one otherwise. One
    ``np.linalg.solve`` per design step gives ``C = A^-1 V'``, and ``X C``,
    the quadratic forms and ``f`` from it serve every step until ``lam``
    moves. Stops once the best floored value is within ``tolerance`` of the
    bound, or after ``max_steps`` steps of either kind, the last a mixture
    step; returns the bound and the best design seen at a mixture step, as
    its unfloored weights and as the floored design the bound certifies.
    """
    n, m = X.shape[0], V.shape[0]
    eta = tolerance / 10.0
    VT = np.ascontiguousarray(V.T)
    XpT = (X * prec[:, None]).T
    mu = np.full(m, 1.0 / m)
    lam = np.full(n, 1.0 / n)
    best_bound, best_value, best = -math.inf, math.inf, None
    C = None
    for step in range(max_steps):
        if C is None:
            floored = (1.0 - eta) * lam + eta / n
            # The uniform start stands as the best until a mixture step.
            best = best or (lam, floored)
            try:
                C = np.linalg.solve((XpT * floored) @ X, VT)
            except np.linalg.LinAlgError:
                break
            XC = X @ C
            quads = np.einsum("mr,rm->m", V, C)
            f = float(quads.max())
            if not np.isfinite(f) or f <= 0:
                break
        # t = prec x' A^-1 M A^-1 x as a weighted sum of squares, never negative.
        t = prec * (XC ** 2 @ mu)
        lam_t = float(lam @ t)
        phi = float(mu @ quads)
        gap = float(t.max()) - lam_t
        if step + 1 < max_steps and lam_t > 0 and gap > 0.5 * (f - phi + tolerance * phi):
            # Power 1 oscillates about the fixed point; the 3/4 power still
            # damps it, in fewer steps than the square root.
            lam = lam * t ** 0.75
            lam /= lam.sum()
            C = None
            continue
        best_bound = max(best_bound, (1.0 - eta) * (phi - (1.0 - eta) * gap))
        if f < best_value:
            best_value, best = f, (lam, floored)
        if best_value <= best_bound * (1.0 + tolerance):
            break
        mu = mu * np.exp(2.0 * (quads - f) / f)
        mu /= mu.sum()
    return (best_bound, *best)


# Solved designs kept per process, least recently used first out.
MEMO_SIZE = 256
_memo: OrderedDict[bytes, Design] = OrderedDict()
_memo_lock = threading.Lock()


def _problem_digest(problem: DesignProblem) -> bytes:
    """Digest of everything the solver reads: the arrays' shapes and bytes,
    tolerance and ``MAX_STEPS``. A self-evaluating problem hashes its vectors
    once and says so in the digest."""
    digest = hashlib.sha256()
    parts = (problem.eval_vectors, problem.variances)
    if not problem._self_eval:
        parts = (problem.sample_vectors,) + parts
    for part in parts:
        digest.update(repr(part.shape).encode())
        digest.update(part.data)
    digest.update(repr((problem._self_eval, float(problem.tolerance), MAX_STEPS)).encode())
    return digest.digest()


def solve_design(problem: DesignProblem) -> Design:
    """Minimax design for ``problem``; see :func:`_solve_design`.

    The solver is deterministic and :class:`Design` is frozen, so a problem
    already solved in this process (same arrays bit for bit, same tolerance
    and ``MAX_STEPS``) returns the stored design, under the digest taken at
    construction. The memo holds digests and designs only, never the
    problem's arrays, and at most ``MEMO_SIZE`` of them. Failed solves are
    not stored.
    """
    key = problem._digest
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
    """Certified minimax design; see the module docstring for the solvers.

    Each problem class has one solver, one bound and two candidates, each
    valued ``max_v v' A(lam)^+ v`` by :func:`quad_forms` (infinite if ``V``
    leaves the range of ``A``): the solver's weights pruned below
    ``PRUNE_THRESHOLD``, then the D-optimal weights unpruned against the
    bound ``rank * variance``, or the engine's floored design against its
    dual bound. The first within ``tolerance`` of the bound is returned
    ``certified``; otherwise the better, uncertified, with a warning of its
    gap ``value / bound - 1`` logged. Raises :class:`SpanViolation` or
    ``ValueError`` from :func:`_whiten`.
    """
    X, V = _whiten(problem.sample_vectors, problem.eval_vectors, problem.variances)
    prec = 1.0 / problem.variances
    r = X.shape[1]
    tol = problem.tolerance
    variance = float(problem.variances[0])
    if problem._self_eval and np.all(problem.variances == variance):
        bound = r * variance
        lam = fallback = _d_optimal_solve(X, prec, bound, tol, MAX_STEPS)
    else:
        bound, lam, fallback = _floored_eg_solve(X, V, prec, tol, MAX_STEPS)
    pruned = np.where(lam < PRUNE_THRESHOLD, 0.0, lam)
    tried: list[Design] = []
    for weights in (pruned / pruned.sum(), fallback):
        value = float(quad_forms(X, V, weights * prec).max())
        tried.append(Design(weights=weights, value=value, certified=value <= bound * (1.0 + tol)))
        if tried[-1].certified:
            return tried[-1]
    design = min(tried, key=lambda d: d.value)
    logger.warning(
        "design solve not certified within %d steps: value %.6g, bound %.6g, gap %.3g",
        MAX_STEPS, design.value, bound,
        design.value / bound - 1.0 if bound > 0 else math.inf,
    )
    return design


@dataclass(frozen=True, eq=False)
class RoundSchedule:
    """Integer pull counts from a continuous design as one read-only float64
    array, which every draw reads; counts that are not a flat array of finite,
    nonnegative integers raise ``ValueError``. ``total`` is their exact sum as
    a Python int, past 2**64 too (late rounds). Schedules compare by identity."""

    counts: np.ndarray
    total: int = field(init=False)

    def __post_init__(self):
        counts = _frozen(self.counts, "pull counts")
        if counts.ndim != 1 or not ((counts >= 0) & (counts == np.floor(counts))).all():
            raise ValueError("pull counts must be a flat sequence of nonnegative integers")
        total = counts.sum()
        object.__setattr__(self, "counts", counts)
        # A float sum of integers below 2**53 is exact; past it, sum as Python ints.
        object.__setattr__(self, "total", int(total) if total < 2**53 else sum(map(int, counts)))


def round_design(design: Design, n_samples) -> RoundSchedule:
    """Pull counts ``ceil(N * lam)`` as that float64 array, zero off the support.

    Every arm gets at least ``N lam_i`` pulls, so ``A(counts) >= N A(lam)``
    and the realized value is at most ``design.value / N``; the total
    overshoots ``N`` by less than the support size. A budget outside
    ``(0, inf)``, NaN included, raises ``ValueError``.
    """
    if not 0 < n_samples < math.inf:
        raise ValueError("n_samples must be positive and finite")
    return RoundSchedule(np.ceil(n_samples * design.weights))
