"""Domain types and linear-algebra primitives shared across the package.

Everything here is a pure function of its inputs; instances freeze their
arrays at construction so values can be shared across workers.
"""

from __future__ import annotations

import math
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


def _as_matrix(vectors, name="vectors") -> np.ndarray:
    arr = np.asarray(vectors, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name} must be a list of equal-length vectors")
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.float64)
    out.flags.writeable = False
    return out


def vech_indices(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Row/column indices of the lower triangle in column-major order."""
    rows = np.concatenate([np.arange(j, d) for j in range(d)])
    cols = np.concatenate([np.full(d - j, j) for j in range(d)])
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


@dataclass(frozen=True)
class LiftedArm:
    """An arm mapped into the d(d+1)/2-dimensional quadratic-form space.

    The defining property is ``phi @ vech(S) == x' S x`` for every symmetric
    ``S``; diagonal entries of the outer product appear once, off-diagonal
    entries with a factor of two.
    """

    phi: np.ndarray
    source_index: int = -1


def lift_phi(x: np.ndarray, source_index: int = -1) -> LiftedArm:
    """Lift a single arm so quadratic forms in x become linear in vech space."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size < 1:
        raise DimensionMismatch("arm must be a nonempty 1-d vector")
    return LiftedArm(phi=_frozen(lift_arms(x[None, :])[0]), source_index=source_index)


def lift_arms(arms: np.ndarray) -> np.ndarray:
    """Vectorized lift of a stack of arms; row i is the lift of arms[i]."""
    arms = _as_matrix(arms, "arms")
    d = arms.shape[1]
    rows, cols = vech_indices(d)
    coeff = np.where(rows == cols, 1.0, 2.0)
    return arms[:, rows] * arms[:, cols] * coeff


def greedy_spanning_subset(vectors: np.ndarray, size: int) -> list[int]:
    """Pick up to ``size`` rows by greedy orthogonal-residual pivoting.

    Each step takes the row with the largest residual norm after projecting
    out the rows already chosen, which keeps the chosen system well
    conditioned without a combinatorial subset search. Stops early once
    every residual is below ``1e-20`` times the largest squared row norm.
    """
    resid = np.array(vectors, dtype=np.float64)
    chosen: list[int] = []
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


def solve_psd(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for symmetric positive definite A by Cholesky; raises
    :class:`SingularInformation` when A does not factorize."""
    A = np.asarray(A, dtype=np.float64)
    try:
        c = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        raise SingularInformation(float(np.linalg.eigvalsh(A).min())) from None
    return np.linalg.solve(c.T, np.linalg.solve(c, np.asarray(b, dtype=np.float64)))


def quad_forms(X: np.ndarray, V: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``v' A^+ v`` for each row ``v`` of ``V``, with ``A = sum_i w_i x_i x_i'``,
    from one ``eigh``: eigenvalues above ``lambda_max * r * eps`` span the
    range of ``A``, and a row more than ``1e-9`` of its norm outside it
    gets ``inf``."""
    eig, vecs = np.linalg.eigh((X * w[:, None]).T @ X)
    keep = eig > eig[-1] * eig.size * np.finfo(np.float64).eps
    coords = V @ vecs
    outside = np.linalg.norm(coords[:, ~keep], axis=1) > 1e-9 * np.linalg.norm(V, axis=1)
    return np.where(outside, math.inf, (coords[:, keep] ** 2 / eig[keep]).sum(axis=1))


def fit_arm_sums(X, counts, sums, precision=None) -> tuple[np.ndarray, int]:
    """Count-weighted least squares on per-arm sums: ``(coef, rank)``.

    Minimizes ``sum_i n_i p_i (x_i' b - s_i / n_i)^2`` over the arms with
    ``n_i > 0`` (``p_i = 1`` without ``precision``), which is the regression
    with one row ``x_i`` per pull when ``s_i`` sums arm i's targets. Solved by
    ``lstsq`` on the root-weighted rows with that regression's rank cutoff,
    ``eps * max(sum n_i, columns)``; rows that span less than the space give
    the minimum-norm solution and a rank below the column count.
    """
    X = np.asarray(X, dtype=np.float64)
    counts = np.asarray(counts)
    pulled = counts > 0
    n = counts[pulled]
    w = n if precision is None else n * np.asarray(precision, dtype=np.float64)[pulled]
    root = np.sqrt(w)
    rcond = np.finfo(np.float64).eps * max(n.sum(), X.shape[1])
    coef, _, rank, _ = np.linalg.lstsq(
        X[pulled] * root[:, None], np.asarray(sums)[pulled] / n * root, rcond=rcond
    )
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
        arms = _frozen(_as_matrix(self.arms, "arms"))
        # Targets given as the arms array itself share its frozen copy.
        targets = arms if self.targets is self.arms else _frozen(_as_matrix(self.targets, "targets"))
        theta = _frozen(np.asarray(self.theta_star, dtype=np.float64).ravel())
        sigma = _frozen(np.asarray(self.sigma_star, dtype=np.float64))
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
        object.__setattr__(self, "arm_means", _frozen(arms @ theta))
        object.__setattr__(self, "_arm_variances", _frozen(var))

    @classmethod
    def from_truth(cls, arms, targets, theta_star, sigma_star) -> "HeteroInstance":
        """Build an instance with bounds set to the exact min/max arm variance."""
        arms_m = _as_matrix(arms, "arms")
        sigma = np.asarray(sigma_star, dtype=np.float64)
        var = np.einsum("ij,jk,ik->i", arms_m, sigma, arms_m)
        return cls(arms_m, targets, theta_star, sigma, float(var.min()), float(var.max()))

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
        """Indices of up to d(d+1)/2 arms whose lifts greedily span the lift
        space, computed once per instance; the lifts themselves are not kept."""
        d = self.dimension
        return tuple(greedy_spanning_subset(lift_arms(self.arms), d * (d + 1) // 2))

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
    support_size: int
    certified: bool = True

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if np.any(w < 0):
            raise ValueError("design weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("design weights must sum to one")
        object.__setattr__(self, "weights", _frozen(w))

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.weights)


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
        object.__setattr__(self, "sigma_hat_matrix", _frozen(self.sigma_hat_matrix))
        object.__setattr__(self, "per_arm", _frozen(np.asarray(self.per_arm, dtype=np.float64)))
        if self.theta_hat is not None:
            object.__setattr__(self, "theta_hat", _frozen(self.theta_hat))
