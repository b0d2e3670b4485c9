"""Dense symmetric linear algebra and multivariate Gaussian primitives.

Everything here works in the *precision* parameterization: a Gaussian is
stored as a mean plus the Cholesky factor of its precision matrix.  The
sampler produces precisions directly (as negated Hessians), so factoring
the precision avoids ever forming an explicit covariance or inverse.

A single matrix is factored by LAPACK ``dpotrf`` (``cholesky``).  A stack
of matrices, as the hierarchical model's stacked step and its conjugate
gamma draw make, is factored and its factors inverted by numpy's own
stacked kernels (``_cholesky_kernel`` and ``_inv_kernel``, the gufuncs
behind ``np.linalg.cholesky`` and ``np.linalg.inv``), called without
numpy's wrappers.  The kernels return a matrix they cannot factor or
invert as NaN and raise numpy's ``invalid`` flag, which the wrappers turn
into ``LinAlgError``; their callers here run them under
``np.errstate(all="ignore")`` instead, and ``cholesky``'s pivot rule,
which NaN never passes, gives each matrix its verdict: one comparison
for the whole stack when it passes, matrix by matrix when it does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.linalg import _umath_linalg
from scipy.linalg.lapack import dpotrf, dtrtrs

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

# numpy's stacked lower Cholesky and inverse gufuncs, bit for bit what
# np.linalg.cholesky and np.linalg.inv return, at a fraction of the cost for
# small matrices; a failure is a NaN matrix and a floating-point warning
_cholesky_kernel = _umath_linalg.cholesky_lo
_inv_kernel = _umath_linalg.inv


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

    For a matrix entering from outside, a prior precision: construction
    checks shape and finiteness and mirrors the lower triangle onto the
    upper one.  Derived matrices travel as plain arrays.
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


def _lower_solve(lower: np.ndarray, b: np.ndarray, trans: int) -> np.ndarray:
    """Solve ``L x = b`` (``trans=0``) or ``L^T x = b`` (``trans=1``) with
    LAPACK ``dtrtrs``, as ``scipy.linalg.solve_triangular`` does without its
    checks; ``cholesky``'s Fortran-ordered ``L`` is passed without a copy."""
    x, info = dtrtrs(lower, b, lower=1, trans=trans)
    if info != 0:
        raise np.linalg.LinAlgError(f"triangular solve failed (dtrtrs info {info})")
    return x


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular factor L, in LAPACK's Fortran order, with L @ L.T the factored matrix."""

    lower: np.ndarray

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @cached_property
    def half_log_det(self) -> float:
        """``sum_k log L_kk``, half the log-determinant; computed once."""
        return float(np.log(self.lower.diagonal()).sum())

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve (L L^T) x = b by two triangular solves."""
        return _lower_solve(self.lower, _lower_solve(self.lower, b, 0), 1)


def _pivots_pass(a_diagonal: list, l_diagonal: list) -> bool:
    """``cholesky``'s pivot rule for one matrix, on Python floats: every
    pivot ``L_jj`` squared exceeds ``PIVOT_RTOL`` times the largest
    diagonal entry of the factored matrix.  A NaN pivot fails the
    comparison, and a NaN diagonal entry of the matrix makes its own pivot
    NaN, so ``max`` may skip it."""
    tol = PIVOT_RTOL * max(0.0, *a_diagonal)
    for d in l_diagonal:
        if not d * d > tol:
            return False
    return True


def cholesky(m) -> CholeskyFactor:
    """Factor a symmetric matrix as L L^T with L lower triangular.

    The fast path is one LAPACK ``dpotrf`` call (not numpy's wrapper, four
    times its cost at 5x5), with the pivot rule checked on Python floats:
    every pivot squared must exceed the tolerance, so a NaN pivot (a
    non-finite lower entry) never passes.  Otherwise the matrix is
    refactored column by column to name the pivot.  ``m`` is never written.

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
    return CholeskyFactor(_factor_lower(a))


def _factor_lower(a: np.ndarray) -> np.ndarray:
    """``cholesky``'s factor of a square float matrix, unchecked."""
    lower, info = dpotrf(a, lower=1, clean=1, overwrite_a=0)
    if info == 0 and _pivots_pass(a.diagonal().tolist(), lower.diagonal().tolist()):
        return lower
    return _factor_by_columns(a)


def _factor_by_columns(a: np.ndarray) -> np.ndarray:
    """``cholesky``'s factor column by column, naming the first row with a
    non-finite lower entry or the first pivot at or below the tolerance."""
    bad_rows = np.flatnonzero(~np.isfinite(np.tril(a)).all(axis=1))
    if bad_rows.size:
        raise NotPositiveDefinite(int(bad_rows[0]), f"non-finite entry in row {bad_rows[0]}")
    tol = PIVOT_RTOL * max(0.0, *a.diagonal().tolist())
    n = a.shape[0]
    L = np.zeros((n, n), order="F")
    for j in range(n):
        pivot = a[j, j] - L[j, :j] @ L[j, :j]
        if pivot <= tol:
            raise NotPositiveDefinite(j)
        ljj = np.sqrt(pivot)
        L[j, j] = ljj
        if j + 1 < n:
            L[j + 1 :, j] = (a[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / ljj
    return L


def _cholesky_stack(stack: np.ndarray) -> tuple[np.ndarray, dict]:
    """The lower factors of a ``(K, n, n)`` stack of symmetric matrices in
    one ``_cholesky_kernel`` call, each equal bit for bit to numpy's
    ``np.linalg.cholesky(stack[k])`` (not to ``cholesky``'s LAPACK factor),
    and, keyed by index, the ``NotPositiveDefinite`` that ``cholesky``
    raises for each matrix that fails its pivot rule.  Call it under
    ``np.errstate(all="ignore")``: the kernel warns on a matrix it cannot
    factor.

    The stack passes whole when its smallest pivot squared exceeds
    ``PIVOT_RTOL`` times the larger of 0 and its largest diagonal entry:
    then every matrix passes its own rule, since its smallest pivot is no
    smaller and its largest diagonal entry no larger (the kernel's pivots
    are positive or NaN, and rounding is monotone).  A NaN pivot (a failed
    or non-finite factor) or a NaN diagonal entry fails this verdict.  Only
    then is each matrix checked by ``cholesky``'s own rule
    (``_pivots_pass``).  Only a matrix that fails goes to ``cholesky``,
    which names its pivot; a failed matrix's factor is the identity.
    Should ``cholesky`` pass one the kernel failed (the two LAPACKs
    disagree at the tolerance), its verdict and its factor stand."""
    lowers = _cholesky_kernel(stack)
    smallest = float(np.minimum.reduce(lowers.diagonal(0, 1, 2), None, initial=np.inf))
    largest = float(np.maximum.reduce(stack.diagonal(0, 1, 2), None, initial=0.0))
    if smallest * smallest > PIVOT_RTOL * largest:
        return lowers, {}
    errors = {}
    for k in range(stack.shape[0]):
        if _pivots_pass(stack[k].diagonal().tolist(), lowers[k].diagonal().tolist()):
            continue
        try:
            lowers[k] = cholesky(stack[k]).lower
        except NotPositiveDefinite as err:
            lowers[k] = np.eye(stack.shape[1])
            errors[k] = err
    return lowers, errors


def _cholesky_lowers(stack: np.ndarray) -> np.ndarray:
    """``_cholesky_stack``'s factors, under the same error state; the first
    matrix that fails ``cholesky``'s pivot rule raises its
    ``NotPositiveDefinite``."""
    lowers, errors = _cholesky_stack(stack)
    if errors:
        raise next(iter(errors.values()))
    return lowers


@dataclass(frozen=True)
class MvnDistribution:
    """Multivariate Gaussian stored as mean plus precision Cholesky factor."""

    mean: np.ndarray
    factor: CholeskyFactor

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        if not np.isfinite(mean).all():
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
    return -0.5 * d.dim * _LOG_2PI + d.factor.half_log_det - 0.5 * float(z @ z)


def mvn_sample(d: MvnDistribution, rng: np.random.Generator) -> np.ndarray:
    """Draw one sample: mean + solve(L^T, z) with z standard normal.

    Deterministic given the generator state; consumes exactly ``d.dim``
    standard-normal variates.
    """
    z = rng.standard_normal(d.dim)
    return d.mean + _lower_solve(d.factor.lower, z, 1)
