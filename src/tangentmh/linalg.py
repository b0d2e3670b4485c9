"""Dense symmetric linear algebra and multivariate Gaussian primitives.

Everything here works in the *precision* parameterization: a Gaussian is
stored as a mean plus the Cholesky factor of its precision matrix.  The
sampler produces precisions directly (as negated Hessians), so factoring
the precision avoids ever forming an explicit covariance or inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

__all__ = [
    "NotPositiveDefinite",
    "SymMatrix",
    "CholeskyFactor",
    "MvnDistribution",
    "cholesky",
    "mvn_logpdf",
    "mvn_sample",
]

_LOG_2PI = float(np.log(2.0 * np.pi))

# A pivot counts as positive only if it exceeds this fraction of the largest
# diagonal entry; smaller pivots are treated as genuine indefiniteness
# rather than roundoff.
PIVOT_RTOL = 1e-12


class NotPositiveDefinite(Exception):
    """Raised when a symmetric matrix has no Cholesky factorization.

    Attributes
    ----------
    pivot : int
        Zero-based index of the pivot where positivity broke down.
    """

    def __init__(self, pivot: int, message: str | None = None):
        self.pivot = pivot
        super().__init__(message or f"matrix not positive definite (pivot {pivot})")


@dataclass(frozen=True)
class SymMatrix:
    """Validated symmetric real matrix; the lower triangle is authoritative.

    For matrices entering from outside (a prior precision, a BLAS-assembled
    Hessian): construction checks shape and finiteness and mirrors the lower
    triangle onto the upper one.  Derived matrices travel as plain arrays.
    """

    a: np.ndarray

    def __init__(self, entries):
        arr = np.asarray(entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("dimension must be >= 1")
        if not np.all(np.isfinite(np.tril(arr))):
            raise ValueError("matrix entries must be finite")
        lower = np.tril(arr)
        object.__setattr__(self, "a", lower + np.tril(arr, -1).T)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.a, dtype=dtype) if dtype else self.a


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular factor L with L @ L.T equal to the factored matrix."""

    lower: np.ndarray

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def log_det(self) -> float:
        """log-determinant of the factored matrix (twice the diagonal log-sum)."""
        return 2.0 * float(np.sum(np.log(np.diag(self.lower))))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve (L L^T) x = b by two triangular solves."""
        y = solve_triangular(self.lower, b, lower=True, check_finite=False)
        return solve_triangular(self.lower.T, y, lower=False, check_finite=False)

    def reconstruct(self) -> np.ndarray:
        return self.lower @ self.lower.T


def cholesky(m) -> CholeskyFactor:
    """Factor a symmetric matrix as L L^T with L lower triangular.

    Parameters
    ----------
    m : array_like or SymMatrix
        Square matrix; only its lower triangle (diagonal included) is read.

    Returns
    -------
    CholeskyFactor

    Raises
    ------
    NotPositiveDefinite
        If a pivot falls at or below ``PIVOT_RTOL`` times the largest
        diagonal entry of the input, or if a row of the lower triangle
        holds a non-finite entry.  ``pivot`` names the offending index.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a non-empty square matrix, got shape {a.shape}")
    # a non-finite lower entry never passes this fast path: the factorization
    # raises, or tol or some L[j, j] is not finite
    tol = PIVOT_RTOL * max(float(np.max(np.diag(a))), 0.0)
    try:
        L = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        L = None
    if L is not None and np.all(np.diag(L) ** 2 > tol):
        return CholeskyFactor(L)
    bad_rows = np.flatnonzero(~np.isfinite(np.tril(a)).all(axis=1))
    if bad_rows.size:
        raise NotPositiveDefinite(int(bad_rows[0]), f"non-finite entry in row {bad_rows[0]}")
    # failed or a pivot fell below the relative threshold: rerun column by
    # column to name the offending pivot
    n = a.shape[0]
    L = np.zeros_like(a)
    for j in range(n):
        pivot = a[j, j] - L[j, :j] @ L[j, :j]
        if pivot <= tol:
            raise NotPositiveDefinite(j)
        ljj = np.sqrt(pivot)
        L[j, j] = ljj
        if j + 1 < n:
            L[j + 1 :, j] = (a[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / ljj
    return CholeskyFactor(L)


@dataclass(frozen=True)
class MvnDistribution:
    """Multivariate Gaussian stored as mean plus precision Cholesky factor."""

    mean: np.ndarray
    factor: CholeskyFactor

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        if not np.all(np.isfinite(mean)):
            raise ValueError("mean must be finite")
        if mean.shape[0] != self.factor.dim:
            raise ValueError("mean length must match factor dimension")
        object.__setattr__(self, "mean", mean)

    @property
    def dim(self) -> int:
        return self.factor.dim


def mvn_logpdf(d: MvnDistribution, x: np.ndarray) -> float:
    """Log-density of ``d`` at ``x``.

    With L the precision factor, this is
    ``-(K/2) log 2*pi + sum_k log L_kk - 0.5 * ||L^T (x - mean)||^2``.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape[0] != d.dim:
        raise ValueError(f"point has length {x.shape[0]}, expected {d.dim}")
    z = d.factor.lower.T @ (x - d.mean)
    return (
        -0.5 * d.dim * _LOG_2PI
        + float(np.sum(np.log(np.diag(d.factor.lower))))
        - 0.5 * float(z @ z)
    )


def mvn_sample(d: MvnDistribution, rng: np.random.Generator) -> np.ndarray:
    """Draw one sample: mean + solve(L^T, z) with z standard normal.

    Deterministic given the generator state; consumes exactly ``d.dim``
    standard-normal variates.
    """
    z = rng.standard_normal(d.dim)
    return d.mean + solve_triangular(d.factor.lower.T, z, lower=False, check_finite=False)
