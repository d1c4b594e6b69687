"""Certified solver for weighted minimax designs, plus integer rounding.

The problem solved here: over the probability simplex on a finite set of
sample vectors, minimize the worst predictive variance
``max_v v' A(lam)^{-1} v`` where ``A(lam) = sum_x lam_x x x' / var_x``.
Evaluation vectors may differ from the sample vectors (transductive case),
but must lie in their span.

Certified solves come from two engines: the multiplicative D-optimal path
for self-evaluating constant-variance problems, whose optimum is known, and
the exponentiated-gradient primal-dual engine for everything else. Each
factors the information matrix ``A`` once per step. A Frank-Wolfe loop
polishes what neither engine certifies.
"""

from __future__ import annotations

import hashlib
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
    greedy_spanning_subset,
    solve_psd,
)

PRUNE_THRESHOLD = 1e-7


@dataclass
class DesignProblem:
    """A minimax design problem over a finite sample set.

    ``variances`` are per-sample noise variances dividing each outer product
    (all ones for the unweighted problem). Construction fails with
    :class:`SpanViolation` if any evaluation vector leaves the sample span;
    internally the problem is reduced to an orthonormal basis of that span so
    rank-deficient sample sets are handled uniformly.
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
        u, s, _ = np.linalg.svd(X.T, full_matrices=False)
        rank = int(np.sum(s > s[0] * max(X.shape) * np.finfo(float).eps)) if s.size else 0
        if rank == 0:
            raise ValueError("sample vectors are all zero")
        basis = u[:, :rank]
        resid = V - (V @ basis) @ basis.T
        scale = 1.0 + np.linalg.norm(V, axis=1)
        if np.any(np.linalg.norm(resid, axis=1) > 1e-9 * scale):
            raise SpanViolation("evaluation vector outside span of sample vectors")
        self._basis = basis
        self._samples_r = X @ basis
        self._evals_r = V @ basis
        self._self_eval = X.shape == V.shape and np.array_equal(X, V)

    @property
    def rank(self) -> int:
        return self._basis.shape[1]


# Dual bounds are only trusted when the factorization behind them is well
# conditioned; beyond this the linearization identity drowns in solve error.
BOUND_COND_LIMIT = 1e8


def _psd_solve_cond(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray | None, float]:
    """Cholesky solve plus a cheap condition proxy (squared diagonal ratio)."""
    try:
        c = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return None, math.inf
    diag = np.diagonal(c)
    cond = float((diag.max() / diag.min()) ** 2)
    return np.linalg.solve(c.T, np.linalg.solve(c, B)), cond


def _psd_inverse_cond(A: np.ndarray) -> tuple[np.ndarray | None, float]:
    """``A^-1`` from one Cholesky factor, plus the condition proxy of
    :func:`_psd_solve_cond`; ``(None, inf)`` when the factorization fails."""
    try:
        c = np.linalg.cholesky(A)
        c_inv = np.linalg.inv(c)
    except np.linalg.LinAlgError:
        return None, math.inf
    diag = c.diagonal()
    cond = float((diag.max() / diag.min()) ** 2)
    return c_inv.T @ c_inv, cond


def _dual_lower_bound(
    mixtures: np.ndarray, vals: np.ndarray, G_sq: np.ndarray, lam: np.ndarray
) -> float:
    """Best lower bound on the optimal value from a batch of eval mixtures.

    For any distribution mu over evaluation vectors, linearizing the inner
    problem at the current design gives
    ``opt >= phi + sum_x lam_x t_x - max_x t_x`` with
    ``t_x = prec_x sum_m mu_m (v_m' A^-1 x)^2`` and ``phi = mu . vals``.
    (When the solve used no ridge, ``sum_x lam_x t_x == phi`` exactly; keeping
    the explicit sum stays valid when a ridge deflates the quadratics.)
    """
    phi = mixtures @ vals
    t_cols = G_sq @ mixtures.T
    worst = t_cols.max(axis=0)
    weighted = lam @ t_cols
    return float((phi + weighted - worst).max())


def _refined_dual_bound(X, V, prec, lam0, mixtures, steps=10):
    """Tighten the mixture bound by approaching each mixture's inner optimum.

    The linearized bound is exact at the design minimizing the mixed trace
    criterion, so damped multiplicative updates toward it (run on scratch
    copies of the design, one seeded at the current iterate and one at the
    uniform design) make the certificate second-order accurate. A
    fictitious-play alternation folds worst-case responses into the mixture,
    which explores active directions the main iterate has not encountered.

    Returns ``(bound, candidate_design, candidate_value)``: the refined inner
    designs are often good primal iterates, so the best one (by true minimax
    value) is handed back to the caller as a restart point.
    """
    best = -math.inf
    n = lam0.shape[0]
    uniform = np.full(n, 1.0 / n)
    cand_lam, cand_value = None, math.inf

    def true_value(lam):
        A = (X * (lam * prec)[:, None]).T @ X
        C, cond = _psd_solve_cond(A, V.T)
        if C is None or cond > BOUND_COND_LIMIT * 1e4:
            return math.inf
        return float(np.einsum("mr,rm->m", V, C).max())

    def consider(lam):
        nonlocal cand_lam, cand_value
        value = true_value(lam)
        if value < cand_value:
            cand_lam, cand_value = lam.copy(), value
        return value

    def descend(mu, lam, n_steps):
        nonlocal best
        mixed = (V * mu[:, None]).T @ V
        for _ in range(n_steps):
            A = (X * (lam * prec)[:, None]).T @ X
            half, cond_a = _psd_solve_cond(A, mixed)
            if half is None:
                return lam
            inner, cond_b = _psd_solve_cond(A, half.T)
            if inner is None:
                return lam
            t = prec * np.einsum("ij,ij->i", X @ inner, X)
            phi = float(np.sum(A * inner))  # tr(M A^-1) via tr(A inner)
            lam_t = float(lam @ t)
            if not np.isfinite(phi) or phi <= 0 or not np.isfinite(lam_t):
                return lam
            if max(cond_a, cond_b) <= BOUND_COND_LIMIT:
                best = max(best, phi + lam_t - float(t.max()))
            # Square-root damping keeps the fixed-point iteration from
            # oscillating around the inner optimum.
            lam = lam * np.sqrt(np.maximum(t, 0.0) / phi)
            total = lam.sum()
            if not np.isfinite(total) or total <= 0:
                return lam
            lam /= total
        return lam

    for mu in mixtures:
        consider(descend(mu, lam0.copy(), steps))
        consider(descend(mu, uniform.copy(), steps))

    # Fictitious-play alternation: refine the design for the running dual
    # average, then fold in the cold best response at the refined design.
    mu = mixtures[0].copy()
    lam = lam0.copy()
    for outer in range(1, 13):
        lam = descend(mu, lam, max(steps, 20))
        consider(lam)
        try:
            A = (X * (lam * prec)[:, None]).T @ X
            vals = np.einsum("mr,rm->m", V, solve_psd(A, V.T))
        except SingularInformation:
            break
        f = float(vals.max())
        if not np.isfinite(f) or f <= 0:
            break
        response = np.exp((vals - f) / (1e-3 * f))
        response /= response.sum()
        mu = (outer * mu + response) / (outer + 1.0)
    return best, cand_lam, cand_value


def _soft_weights(vals: np.ndarray, temperature: float) -> np.ndarray:
    soft = np.exp((vals - vals.max()) / temperature)
    return soft / soft.sum()


def _multiplicative_warmstart(X, V, prec, lam, tolerance, iters=200, target=None):
    """Classic multiplicative design updates lam <- lam * score / value.

    Cheap way to get near the optimum before the certified Frank-Wolfe
    polish; returns the best iterate seen by true minimax value. When the
    optimum is known (``target``), iterates until the value is safely inside
    the tolerance band around it or the iteration budget runs out.
    """
    log_m = math.log(V.shape[0] + 1.0)
    best_lam, best_value = lam.copy(), math.inf
    for _ in range(iters):
        try:
            A = (X * (lam * prec)[:, None]).T @ X
            C = solve_psd(A, V.T)
            vals = np.einsum("mr,rm->m", V, C)
        except SingularInformation:
            break
        f = float(vals.max())
        if not np.isfinite(f) or f <= 0:
            break
        if f < best_value:
            improved = f < best_value * (1.0 - tolerance / 10.0)
            best_value, best_lam = f, lam.copy()
            if target is not None and best_value <= target * (1.0 + 0.8 * tolerance):
                break
            if target is None and not improved and best_value < math.inf:
                break
        soft = _soft_weights(vals, tolerance * f / (2.0 * log_m) + f * 1e-3)
        mixed = (V * soft[:, None]).T @ V
        mixed_inv = solve_psd(A, solve_psd(A, mixed).T)
        t_scores = prec * np.einsum("ij,ij->i", X @ mixed_inv, X)
        phi = float(soft @ vals)
        if phi <= 0 or not np.isfinite(phi):
            break
        lam = lam * t_scores / phi
        total = lam.sum()
        if not np.isfinite(total) or total <= 0:
            break
        lam /= total
    return best_lam, best_value


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
        total = lam.sum()
        if not np.isfinite(total) or total <= 0:
            break
        lam /= total
    return best_lam, best_value


def _eg_dual_solve(X, V, prec, tolerance, outers=80, inner_steps=50):
    """Primal-dual engine: exponentiated-gradient ascent on the evaluation
    mixture with a damped multiplicative inner design solver.

    The dual function (inner trace criterion minimized over designs) is
    concave in the mixture; its supergradient is the vector of quadratic
    forms at the inner-optimal design. Warm-starting the inner iteration
    across outer steps makes each outer step cheap. Every step, inner or
    outer, factors its information matrix ``A`` once and works with the
    explicit ``A^-1``: the inner step needs ``A^-1 M A^-1`` for the mixed
    matrix ``M``, the outer step also the quadratic forms ``v' A^-1 v``, and
    its condition proxy gates both the dual bound and the incumbent. Returns
    ``(bound, best_design, best_value, certified)``.
    """
    n, r = X.shape
    m = V.shape[0]
    mu = np.full(m, 1.0 / m)
    lam = np.full(n, 1.0 / n)
    best_bound = -math.inf
    best_value, best_lam = math.inf, lam.copy()
    for _ in range(outers):
        mixed = (V * mu[:, None]).T @ V
        for _ in range(inner_steps):
            A = (X * (lam * prec)[:, None]).T @ X
            A_inv, _ = _psd_inverse_cond(A)
            if A_inv is None:
                break
            inner = A_inv @ mixed @ A_inv
            t = prec * np.einsum("ij,ij->i", X @ inner, X)
            phi = float(np.sum(A * inner))
            if not np.isfinite(phi) or phi <= 0:
                break
            lam = lam * np.sqrt(np.maximum(t, 0.0) / phi)
            total = lam.sum()
            if not np.isfinite(total) or total <= 0:
                lam = np.full(n, 1.0 / n)
                break
            lam /= total

        A = (X * (lam * prec)[:, None]).T @ X
        A_inv, cond = _psd_inverse_cond(A)
        if A_inv is None:
            break
        inner = A_inv @ mixed @ A_inv
        t = prec * np.einsum("ij,ij->i", X @ inner, X)
        phi = float(np.sum(A * inner))
        if cond <= BOUND_COND_LIMIT and np.isfinite(phi):
            best_bound = max(best_bound, phi + float(lam @ t) - float(t.max()))

        C = A_inv @ V.T
        quads = np.einsum("mr,rm->m", V, C)
        f = float(quads.max())
        if not np.isfinite(f) or f <= 0:
            break
        if f < best_value and cond <= BOUND_COND_LIMIT * 1e4:
            best_value, best_lam = f, lam.copy()
        if best_value <= best_bound * (1.0 + tolerance):
            return best_bound, best_lam, best_value, True
        mu = mu * np.exp(2.0 * (quads - f) / f)
        mu /= mu.sum()
    return best_bound, best_lam, best_value, False


# Solved designs kept per process, least recently used first out. Four
# replications of each of example1 and example2 meet about 40 distinct problems.
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
    """Frank-Wolfe iteration for the minimax design.

    The worst-case objective is smoothed entropically (softmax weights over
    evaluation vectors at a temperature tied to the tolerance), which removes
    the kink-induced zigzag of plain subgradient steps. After a multiplicative
    warm start, each iteration takes the steepest simplex vertex of the
    smoothed objective - or an away step from the least useful supported
    vertex - and moves with the classic 2/(k+2) step unless a
    one-dimensional line search (rank-one update formula on a fixed step
    grid) finds a better one. The iterate is certified against a dual lower
    bound built from mixtures of evaluation vectors (softmax weights, running
    argmax frequencies, uniform weight over the near-active set; exactly the
    span dimension for self-evaluating problems); the solve stops once the
    best value is within ``tolerance`` of that bound, relatively. If the
    iteration budget runs out first, the best iterate is returned flagged
    ``certified=False``. Support entries below 1e-7 are pruned and the value
    re-evaluated on the pruned design. Argmax ties always break to the
    lowest index, so solves are deterministic.
    """
    X = problem._samples_r
    V = problem._evals_r
    prec = 1.0 / problem.variances
    n, r = X.shape
    m = V.shape[0]
    if m == 0:
        raise ValueError("need at least one evaluation vector")

    def greedy_start() -> np.ndarray:
        # Uniform on a well-conditioned spanning subset; built only on the
        # paths that read it, since certified engine solves never do.
        start = np.zeros(n)
        init = greedy_spanning_subset(X, r)
        start[init] = 1.0 / len(init)
        return start

    lam = best_lam = None
    best_value = math.inf
    # Self-evaluating constant-variance problems have a known optimum (the
    # equivalence theorem): the span dimension times the common variance.
    const_var = float(problem.variances[0]) if np.all(problem.variances == problem.variances[0]) else None
    exact_bound_known = problem._self_eval and const_var is not None
    best_bound = r * const_var if exact_bound_known else 0.0
    certified = False

    if exact_bound_known:
        # Optimum known exactly: drive the classical multiplicative solver
        # straight into the tolerance band around it.
        lam, warm_value = _d_optimal_warmstart(
            X, prec, best_bound, problem.tolerance,
            iters=min(3000, problem.max_iters),
        )
        if warm_value < best_value:
            best_value, best_lam = warm_value, lam.copy()
        certified = best_value <= best_bound * (1.0 + problem.tolerance)
    elif problem._self_eval:
        lam, warm_value = _multiplicative_warmstart(
            X, V, prec, greedy_start(), problem.tolerance, iters=min(200, problem.max_iters)
        )
        lam = np.maximum(lam, 0.0)
        lam /= lam.sum()
        if warm_value < best_value:
            best_value, best_lam = warm_value, lam.copy()
    if not certified and not exact_bound_known and n * r * r <= 500_000:
        # Primal-dual engine: on moderate problems it usually reaches and
        # certifies the optimum outright; otherwise its iterate and bound
        # seed the Frank-Wolfe loop below.
        eg_bound, eg_lam, eg_value, eg_certified = _eg_dual_solve(
            X, V, prec, problem.tolerance, outers=min(80, problem.max_iters)
        )
        best_bound = max(best_bound, eg_bound)
        if eg_value < best_value:
            best_value, best_lam = eg_value, eg_lam.copy()
            lam = eg_lam.copy()
        certified = eg_certified or best_value <= best_bound * (1.0 + problem.tolerance)
    if best_lam is None:
        # No engine reached a finite value: fall back on the spanning start.
        best_lam = greedy_start()
    if lam is None:
        lam = best_lam.copy()
    fw_grid = np.geomspace(1e-6, 0.999, 24)
    away_frac = np.geomspace(1e-4, 1.0, 16)
    worst_freq = np.zeros(m)
    log_m = math.log(m + 1.0)
    temperature = math.inf  # set from the first value below
    # The mixture dual bound costs an n x m product; amortize it when large.
    bound_every = 1 if n * m * r <= 2_000_000 else 8
    next_refine = 8 * bound_every  # exponential backoff on the heavy refinement

    def _smoothed_value(vals_row: np.ndarray, temperature: float) -> float:
        peak = float(vals_row.max())
        if not math.isfinite(peak):
            return math.inf
        return peak + temperature * math.log(
            float(np.exp((vals_row - peak) / temperature).sum())
        )

    def smoothed_min(vals_next: np.ndarray, temperature: float) -> int:
        peak = vals_next.max(axis=1)
        finite = np.isfinite(peak)
        obj = np.full(peak.shape, np.inf)
        shifted = vals_next[finite] - peak[finite, None]
        obj[finite] = peak[finite] + temperature * np.log(
            np.exp(shifted / temperature).sum(axis=1)
        )
        return int(np.argmin(obj))

    for k in range(1, problem.max_iters + 1):
        if certified:
            break
        # Rebuilding the information matrix from the weights every iteration
        # keeps the dual certificate honest (it relies on sum lam_x t_x = phi
        # holding exactly; incremental updates drift).
        A = (X * (lam * prec)[:, None]).T @ X
        C, cond_main = _psd_solve_cond(A, V.T)
        if C is None:
            C = solve_psd(A, V.T)
        vals = np.einsum("mr,rm->m", V, C)
        f = float(vals.max())
        if f <= 0:
            break  # all evaluation vectors are zero
        if f < best_value:
            best_value = f
            best_lam = lam.copy()
        worst_freq[int(np.argmax(vals))] += 1.0

        # Continuation on the smoothing temperature: start warm, halve it
        # whenever the smoothed problem looks stationary, never below the
        # accuracy floor that certification needs.
        temp_floor = problem.tolerance * best_value / (2.0 * log_m)
        temperature = min(temperature, max(best_value / (2.0 * log_m), temp_floor))
        soft = np.exp((vals - f) / temperature)
        soft /= soft.sum()
        mixed = (V * soft[:, None]).T @ V
        half = solve_psd(A, mixed)
        mixed_inv = solve_psd(A, half.T)
        t_scores = prec * np.einsum("ij,ij->i", X @ mixed_inv, X)

        if (k % bound_every == 0 or k == 1) and cond_main <= BOUND_COND_LIMIT:
            G_sq = prec[:, None] * (X @ C) ** 2
            active = vals >= f * (1.0 - 8.0 * problem.tolerance)
            cold = np.exp((vals - f) / temp_floor)
            cold /= cold.sum()
            mixtures = np.vstack(
                [soft, cold, worst_freq / worst_freq.sum(), active / active.sum()]
            )
            best_bound = max(best_bound, _dual_lower_bound(mixtures, vals, G_sq, lam))
            uncertified = best_value > best_bound * (1.0 + problem.tolerance)
            if uncertified and not exact_bound_known and k >= next_refine:
                next_refine *= 2
                refine_steps = 60 if n * r * r <= 50_000 else 12
                refined, cand_lam, cand_value = _refined_dual_bound(
                    X, V, prec, lam, mixtures, steps=refine_steps
                )
                best_bound = max(best_bound, refined)
                if cand_lam is not None and cand_value < best_value:
                    # The refinement found a better design; record it as the
                    # incumbent (the loop keeps stepping from its own iterate).
                    best_value, best_lam = cand_value, cand_lam.copy()
        if best_value <= best_bound * (1.0 + problem.tolerance):
            certified = True
            break

        phi = float(soft @ vals)
        x_fw = int(np.argmax(t_scores))
        support = np.flatnonzero(lam > 0)
        x_aw = int(support[np.argmin(t_scores[support])])
        stationary = max(t_scores[x_fw] - phi, phi - t_scores[x_aw])
        if stationary <= 0.5 * temperature * log_m and temperature > temp_floor:
            temperature = max(temperature / 4.0, temp_floor)
            continue

        do_away = (
            support.size > 1
            and lam[x_aw] < 1.0
            and (phi - t_scores[x_aw]) > (t_scores[x_fw] - phi)
        )

        if do_away:
            # Move mass away from the least useful supported arm; the update
            # stays a rank-one downdate of the information matrix.
            x_idx = x_aw
            gamma_max = lam[x_idx] / (1.0 - lam[x_idx])
            w = solve_psd(A, X[x_idx])
            s_raw = float(X[x_idx] @ w)
            c_vec = (V @ w) ** 2

            def away_values(cand):
                coef = cand * prec[x_idx] / (1.0 + cand)
                denom = 1.0 - coef * s_raw
                ok = denom > 1e-12
                out = np.full((cand.size, m), np.inf)
                out[ok] = (
                    vals[None, :] + (coef[ok] / denom[ok])[:, None] * c_vec[None, :]
                ) / (1.0 + cand[ok])[:, None]
                return out

            cand = gamma_max * away_frac
            vals_next = away_values(cand)
            pick = smoothed_min(vals_next, temperature)
            # One local refinement around the chosen grid point sharpens the
            # terminal convergence beyond the coarse grid resolution.
            local = np.clip(cand[pick] * np.geomspace(0.5, 2.0, 9), 0.0, gamma_max)
            vals_local = away_values(local)
            pick_l = smoothed_min(vals_local, temperature)
            gamma = float(local[pick_l])
            step_obj = _smoothed_value(vals_local[pick_l], temperature)
            lam_step = lam * (1.0 + gamma)
            lam_step[x_idx] = max(lam_step[x_idx] - gamma, 0.0)
        else:
            x_idx = x_fw
            w = solve_psd(A, X[x_idx])
            s_quad = prec[x_idx] * float(X[x_idx] @ w)
            c_vec = prec[x_idx] * (V @ w) ** 2

            def fw_values(cand):
                beta = cand / (1.0 - cand)
                shrink = beta / (1.0 + beta * s_quad)
                return (vals[None, :] - shrink[:, None] * c_vec[None, :]) / (1.0 - cand)[:, None]

            cand = np.append(fw_grid, 2.0 / (k + 2.0))
            vals_next = fw_values(cand)
            pick = smoothed_min(vals_next, temperature)
            local = np.clip(cand[pick] * np.geomspace(0.5, 2.0, 9), 1e-9, 0.9999)
            vals_local = fw_values(local)
            pick_l = smoothed_min(vals_local, temperature)
            gamma = float(local[pick_l])
            step_obj = _smoothed_value(vals_local[pick_l], temperature)
            lam_step = lam * (1.0 - gamma)
            lam_step[x_idx] += gamma

        # Competing candidate: damped multiplicative reweighting of the whole
        # support, which equilibrates geometries where vertex steps crawl.
        use_mult = False
        if phi > 0:
            lam_mult = lam * np.sqrt(np.maximum(t_scores, 0.0) / phi)
            total = lam_mult.sum()
            if np.isfinite(total) and total > 0:
                lam_mult /= total
                try:
                    A_mult = (X * (lam_mult * prec)[:, None]).T @ X
                    vals_mult = np.einsum("mr,rm->m", V, solve_psd(A_mult, V.T))
                    use_mult = _smoothed_value(vals_mult, temperature) < step_obj
                except SingularInformation:
                    use_mult = False
        lam = lam_mult if use_mult else lam_step

    lam = best_lam
    lam[lam < PRUNE_THRESHOLD] = 0.0
    lam /= lam.sum()
    A = (X * (lam * prec)[:, None]).T @ X
    value = float(np.einsum("mr,rm->m", V, solve_psd(A, V.T)).max())
    return Design(
        weights=lam,
        value=value,
        support_size=int(np.count_nonzero(lam)),
        certified=certified,
    )


@dataclass(frozen=True)
class RoundSchedule:
    """Integer pull counts derived from a continuous design."""

    counts: tuple[int, ...]
    total: int
    mode: str


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
    return RoundSchedule(counts=as_ints, total=sum(as_ints), mode=mode)
