"""Domain types and linear-algebra primitives shared across the package.

Everything here is a pure function of its inputs; instances freeze their
arrays at construction so values can be shared across workers.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class HetBanditError(Exception):
    """Base class for structured errors raised by this package."""


class DimensionMismatch(HetBanditError, ValueError):
    """Vector/matrix shapes are inconsistent."""


class SingularInformation(HetBanditError):
    """An information matrix could not be factorized.

    Carries the smallest eigenvalue seen, for diagnostics.
    """

    def __init__(self, smallest_pivot: float):
        self.smallest_pivot = float(smallest_pivot)
        super().__init__(f"information matrix singular (smallest eigenvalue {smallest_pivot:.3e})")


class SpanViolation(HetBanditError):
    """An evaluation vector lies outside the span of the sample vectors."""


class InsufficientBudget(HetBanditError):
    """A sampling budget is too small to execute the requested procedure."""


class RankDeficientLift(HetBanditError):
    """No full-rank subset of lifted arms exists."""


class DegenerateGap(HetBanditError):
    """An identification gap is zero, so the complexity is undefined."""


def _frozen(values, name: str, rows: bool = False) -> np.ndarray:
    """A read-only C-ordered float64 copy of ``values``, always a copy: no
    caller can change it. A non-finite entry raises ``ValueError``. With
    ``rows`` it is a list of vectors: one vector is one row, and any other
    shape that is not 2-d with columns raises :class:`DimensionMismatch`."""
    out = np.array(values, dtype=np.float64, order="C")
    if rows and out.ndim == 1:
        out = out.reshape(1, -1)
    if rows and (out.ndim != 2 or out.shape[1] == 0):
        raise DimensionMismatch(f"{name} must be a list of equal-length, non-empty vectors")
    if not np.isfinite(out).all():
        raise ValueError(f"{name} must be finite")
    out.flags.writeable = False
    return out


def vech_indices(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Row/column indices of the lower triangle in column-major order."""
    cols, rows = np.triu_indices(d)  # the upper triangle's, in row-major order
    return rows, cols


def vech(mat: np.ndarray) -> np.ndarray:
    """Stack the lower triangle of a symmetric matrix, column by column."""
    mat = np.asarray(mat, dtype=np.float64)
    d = mat.shape[0]
    rows, cols = vech_indices(d)
    return mat[rows, cols]


def unvech(vec: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`vech`: rebuild the symmetric d x d matrix."""
    vec = np.asarray(vec, dtype=np.float64)
    if vec.shape != (d * (d + 1) // 2,):
        raise DimensionMismatch(f"expected length {d * (d + 1) // 2}, got {vec.shape}")
    rows, cols = vech_indices(d)
    out = np.zeros((d, d))
    out[rows, cols] = vec
    out[cols, rows] = vec
    return out


def lift_arms(arms: np.ndarray) -> np.ndarray:
    """Lift each arm into the d(d+1)/2-dimensional quadratic-form space: row i
    is the ``phi`` with ``phi @ vech(S) == x' S x`` for ``x = arms[i]`` and
    every symmetric ``S`` (diagonal entries of the outer product appear once,
    off-diagonal ones twice), in C order. A single 1-d arm lifts to one row."""
    arms = _frozen(arms, "arms", rows=True)
    d = arms.shape[1]
    rows, cols = vech_indices(d)
    coeff = np.where(rows == cols, 1.0, 2.0)
    return np.take(arms, rows, axis=1) * np.take(arms, cols, axis=1) * coeff


_last_lift = [None, None]  # [arms, lift], read and replaced whole; held arms keep a unique identity


def instance_lift(inst: "HeteroInstance") -> np.ndarray:
    """Read-only ``lift_arms(inst.arms)``; an instance's arms are frozen, so identity is a sound key."""
    arms, lift = _last_lift
    if arms is not inst.arms:
        lift = lift_arms(inst.arms)
        lift.flags.writeable = False
        _last_lift[:] = inst.arms, lift
    return lift


def greedy_spanning_subset(vectors: np.ndarray, size: int) -> list[int]:
    """Pick up to ``size`` rows by greedy orthogonal-residual pivoting.

    Each step takes the row with the largest residual norm after projecting
    out the rows already chosen (column-pivoted QR, Businger & Golub 1965).
    As in LAPACK's ``dgeqp3`` the squared norms are downdated by one gemv a
    step, but they bottom out near ``k eps`` of the largest and cannot reveal
    rank (Drmac & Bujanovic 2008): so when the pivot's residual (CGS2) is below
    ``1e-20`` times the largest squared row norm, every residual norm is
    recomputed, and the loop stops only if none is above that floor."""
    vecs = np.asarray(vectors, dtype=np.float64)
    norms = np.einsum("ij,ij->i", vecs, vecs)
    floor = 1e-20 * max(float(norms.max()), 1e-300)
    basis = np.empty((min(size, *vecs.shape), vecs.shape[1]))  # rank bounds the picks
    chosen: list[int] = []
    for k in range(size):
        idx, q = int(np.argmax(norms)), basis[:k]
        resid = vecs[idx] - (vecs[idx] @ q.T) @ q
        resid -= (resid @ q.T) @ q
        if resid @ resid <= floor:
            exact = vecs - (vecs @ q.T) @ q
            exact -= (exact @ q.T) @ q
            norms = np.einsum("ij,ij->i", exact, exact)
            idx = int(np.argmax(norms))
            if norms[idx] <= floor:
                break
            resid = exact[idx]
        chosen.append(idx)
        basis[k] = resid / math.sqrt(resid @ resid)
        norms -= (vecs @ basis[k]) ** 2
    return chosen


def solve_psd(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for symmetric positive definite A by Cholesky; raises
    :class:`SingularInformation` when A does not factorize."""
    A = np.asarray(A, dtype=np.float64)
    try:
        c = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        raise SingularInformation(float(np.linalg.eigvalsh(A).min())) from None
    return np.linalg.solve(c.T, np.linalg.solve(c, np.asarray(b, dtype=np.float64)))


def gram_eigh(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """``(lam, V, delta)``: the eigenpairs ``A'A = V diag(lam) V'`` of an
    m x p matrix ``A`` (one matmul, one ``eigh``; for :func:`quad_forms` and
    design whitening) and their rounding bound. Rounding in ``A'A`` (about
    ``m eps ||A||_F^2``) and the backward error of ``eigh`` (about
    ``p eps ||A'A||_2``) sum to at most ``delta = (m + p) eps trace(A'A)``,
    so by Weyl's inequality each ``s_k(A)^2`` lies within ``delta`` of
    ``lam_k`` (Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 20; Bjorck, Numerical Methods for Least Squares Problems, 2.2): an
    eigenvalue counts as nonzero exactly when it exceeds ``delta``.
    """
    gram = A.T @ A
    lam, V = np.linalg.eigh(gram)
    return lam, V, float(sum(A.shape) * np.finfo(np.float64).eps * np.trace(gram))


def quad_forms(X: np.ndarray, V: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``v' A^+ v`` for each row ``v`` of ``V``, with ``A = sum_i w_i x_i x_i'``,
    from :func:`gram_eigh` of the rows ``x_i sqrt(w_i)``: the eigenvalues
    above its ``delta`` span the range of ``A``, and a row more than ``1e-9``
    of its norm outside it gets ``inf``."""
    lam, vecs, delta = gram_eigh(X * np.sqrt(w)[:, None])
    keep = lam > delta
    coords = V @ vecs
    outside = np.linalg.norm(coords[:, ~keep], axis=1) > 1e-9 * np.linalg.norm(V, axis=1)
    return np.where(outside, math.inf, (coords[:, keep] ** 2 / lam[keep]).sum(axis=1))


def fit_arm_sums(X, counts, sums, precision=None) -> tuple[np.ndarray, int]:
    """Count-weighted least squares on per-arm sums: ``(coef, rank)``.

    Minimizes ``sum_i n_i p_i (x_i' b - s_i / n_i)^2`` over the arms with
    ``n_i > 0`` (``p_i = 1`` without ``precision``), which is the regression
    with one row ``x_i`` per pull when ``s_i`` sums arm i's targets. Its rank
    cutoff is that regression's, ``rcond = eps * max(sum n_i, p)``.

    With ``A`` the m x p root-weighted pulled rows, ``G = A'A``,
    ``u = trace(G) >= lam_max(G)`` and ``delta`` the Gram rounding bound of
    :func:`gram_eigh`, a fit with ``m >= p`` tries one Cholesky of ``G - s I``
    with ``s = delta + max(1e-8 u, rcond^2 (u + delta)) + (p + 1) eps u``.
    The last term bounds the factorization's backward error (Higham, Accuracy
    and Stability, Thm 10.3; Rump, BIT 46, 2006), so success proves
    ``s_min(A)^2 > max(1e-8 lam_max, rcond^2 (lam_max + delta))``: ``lstsq``
    would report full rank, and ``kappa(A)`` is near ``1e4`` at most, so the
    normal-equation error, about ``kappa^2 eps``, is at most about 2e-8 and
    one refinement step on ``y - A coef`` brings it to the ``lstsq`` level.
    That fit solves ``G coef = A'y`` plus the step, with rank ``p``; all-zero
    rows fail the factorization. Every other fit runs ``lstsq`` with the
    cutoff above, so rows that span less than the space still give the
    minimum-norm solution and a rank below ``p``.
    """
    X = np.asarray(X, dtype=np.float64)
    counts = np.asarray(counts)
    pulled = counts > 0
    pulled = slice(None) if pulled.all() else pulled  # every arm pulled: views, not copies
    n = counts[pulled]
    w = n if precision is None else n * np.asarray(precision, dtype=np.float64)[pulled]
    root = np.sqrt(w)
    A = X[pulled] * root[:, None]
    y = np.asarray(sums)[pulled] / n * root
    (m, p), eps = A.shape, np.finfo(np.float64).eps
    rcond = eps * max(n.sum(), p)
    if m >= p:
        gram = A.T @ A
        u = float(gram.trace())
        delta = (m + p) * eps * u
        shift = delta + max(1e-8 * u, rcond**2 * (u + delta)) + (p + 1) * eps * u
        with suppress(np.linalg.LinAlgError):
            np.linalg.cholesky(gram - shift * np.eye(p))
            coef = np.linalg.solve(gram, A.T @ y)
            coef += np.linalg.solve(gram, A.T @ (y - A @ coef))
            return coef, p
    coef, _, rank, _ = np.linalg.lstsq(A, y, rcond=rcond)
    return coef, int(rank)


@dataclass(frozen=True)
class HeteroInstance:
    """Ground-truth world: arms, targets, mean parameter, and noise matrix.

    Construction validates that the arms span the full space, that the noise
    matrix is symmetric PSD, and that every arm's variance lies within the
    declared bounds. It keeps the per-arm means ``arm_means`` and variances
    (:meth:`arm_variances`), frozen. ``kappa`` is the bound ratio.
    """

    arms: np.ndarray
    targets: np.ndarray
    theta_star: np.ndarray
    sigma_star: np.ndarray
    sigma_min_sq: float
    sigma_max_sq: float

    def __post_init__(self):
        arms = _frozen(self.arms, "arms", rows=True)
        # Targets given as the arms array itself share its frozen copy.
        targets = arms if self.targets is self.arms else _frozen(self.targets, "targets", rows=True)
        theta = _frozen(np.ravel(self.theta_star), "theta_star")
        sigma = _frozen(self.sigma_star, "sigma_star")
        d = arms.shape[1]
        if targets.shape[1] != d or theta.shape != (d,) or sigma.shape != (d, d):
            raise DimensionMismatch("arms, targets, theta_star, sigma_star disagree on dimension")
        if not (0 < self.sigma_min_sq <= self.sigma_max_sq):
            raise ValueError("need 0 < sigma_min_sq <= sigma_max_sq")
        if np.linalg.matrix_rank(arms) < d:
            raise ValueError("arms must span the full space")
        if np.max(np.abs(sigma - sigma.T)) > 1e-10:
            raise ValueError("sigma_star must be symmetric")
        if np.linalg.eigvalsh(sigma).min() < -1e-10:
            raise ValueError("sigma_star must be positive semidefinite")
        var = np.einsum("ij,jk,ik->i", arms, sigma, arms)
        lo = self.sigma_min_sq * (1 - 1e-9) - 1e-12
        hi = self.sigma_max_sq * (1 + 1e-9) + 1e-12
        if np.any(var < lo) or np.any(var > hi):
            raise ValueError("some arm variance falls outside [sigma_min_sq, sigma_max_sq]")
        object.__setattr__(self, "arms", arms)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "theta_star", theta)
        object.__setattr__(self, "sigma_star", sigma)
        # Every environment built from this instance shares these two arrays.
        object.__setattr__(self, "arm_means", _frozen(arms @ theta, "arm means"))
        object.__setattr__(self, "_arm_variances", _frozen(var, "arm variances"))

    @classmethod
    def from_truth(cls, arms, targets, theta_star, sigma_star) -> "HeteroInstance":
        """Build an instance with bounds set to the exact min/max arm variance.

        The constructor runs with bounds that admit every variance, and its
        stored variances then set the bounds, so ``x' Sigma x`` is computed
        once."""
        inst = cls(arms, targets, theta_star, sigma_star, math.ulp(0.0), math.inf)
        var = inst.arm_variances()
        if not var.min() > 0:
            raise ValueError("need 0 < sigma_min_sq <= sigma_max_sq")
        object.__setattr__(inst, "sigma_min_sq", float(var.min()))
        object.__setattr__(inst, "sigma_max_sq", float(var.max()))
        return inst

    @property
    def dimension(self) -> int:
        return self.arms.shape[1]

    @property
    def n_arms(self) -> int:
        return self.arms.shape[0]

    def kappa(self) -> float:
        return self.sigma_max_sq / self.sigma_min_sq

    @cached_property
    def lift_spanning_subset(self) -> tuple[int, ...]:
        """Indices of up to d(d+1)/2 arms whose lifts greedily span the lift space, computed once."""
        d = self.dimension
        return tuple(greedy_spanning_subset(instance_lift(self), d * (d + 1) // 2))

    def arm_variances(self) -> np.ndarray:
        """True per-arm noise variances x' Sigma x (the stored, frozen array)."""
        return self._arm_variances

    def target_values(self) -> np.ndarray:
        return self.targets @ self.theta_star


@dataclass(frozen=True)
class Design:
    """A probability vector over a vector set plus its attained minimax value."""

    weights: np.ndarray
    value: float
    certified: bool = True

    def __post_init__(self):
        w = _frozen(self.weights, "design weights")
        if not np.all(w >= 0):
            raise ValueError("design weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("design weights must sum to one")
        object.__setattr__(self, "weights", w)

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.weights)

    @property
    def support_size(self) -> int:
        return self.support.size


@dataclass(frozen=True)
class VarianceEstimate:
    """Output of a variance estimator: matrix estimate plus clamped per-arm values."""

    sigma_hat_matrix: np.ndarray
    per_arm: np.ndarray
    budget_used: int
    estimator_kind: str
    theta_hat: np.ndarray | None = None
    rank_deficient: bool = False
    stage_totals: tuple[int, int] = (0, 0)

    def __post_init__(self):
        object.__setattr__(self, "sigma_hat_matrix", _frozen(self.sigma_hat_matrix, "sigma_hat_matrix"))
        object.__setattr__(self, "per_arm", _frozen(self.per_arm, "per_arm"))
        if self.theta_hat is not None:
            object.__setattr__(self, "theta_hat", _frozen(self.theta_hat, "theta_hat"))
