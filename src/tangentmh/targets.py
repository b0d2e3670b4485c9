"""Differentiable log-density targets.

A target is anything exposing ``dim`` and ``evaluate(x, gradient=, hessian=)``
returning the log-density value (always up to an additive constant; each
concrete target documents which constant it drops), optionally with gradient
and Hessian, plus evaluation-cost counters.  Targets are immutable after
construction, except for two tables a ``LogisticTarget`` builds from its
design on first use: its first Hessian builds the products of each row's
upper-triangle coordinate pairs (designs of at most 15 columns and a
32 MiB table), and its first ``coordinate_lines`` the transposed design
and column sums its lines read.  Both are the same whoever builds them,
so concurrent evaluation stays correct; the worst a race can do is build
one twice.
Counters are returned per call, never accumulated in shared state.  A
``LogisticTarget`` keeps ``1 - y`` with its responses.
``LinearProjectionTarget(base, designs)`` composes a per-observation
base family with one finite design matrix per argument.  An evaluation
writes only the arrays it creates, never one a target holds.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from functools import cached_property, reduce
from itertools import accumulate
from operator import add
from typing import NamedTuple

import numpy as np
from scipy.special import expit

from .linalg import SymMatrix, cholesky
from .trace import _is_integer

__all__ = [
    "EvalCost",
    "EvalResult",
    "DifferentiableTarget",
    "LogisticTarget",
    "PoissonLogRateTarget",
    "poisson_lograte_target",
    "replicated_poisson_target",
    "GaussianPriorTarget",
    "AdditiveTarget",
    "BernoulliBase",
    "ConcaveQuadraticBase",
    "LinearProjectionTarget",
]

_FLOAT = np.dtype(float)


class EvalCost(NamedTuple):
    """Per-call evaluation counters.  Immutable, so the leaf targets return
    shared instances rather than building one per call, and built at a
    tuple's cost where a sum needs a new one.  ``+`` adds field by field."""

    n_value: int = 0
    n_gradient: int = 0
    n_hessian: int = 0

    def __add__(self, other: "EvalCost") -> "EvalCost":
        v, g, h = self
        dv, dg, dh = other
        return EvalCost(v + dv, g + dg, h + dh)


# the counters of one leaf evaluation, keyed (value, gradient, hessian)
_COSTS = {(v, g, h): EvalCost(v, g, h) for v in (0, 1) for g in (0, 1) for h in (0, 1)}


class EvalResult(NamedTuple):
    """Log-density value with optional derivatives and the cost incurred.
    Immutable, and built at a tuple's cost: every evaluation returns one."""

    value: float
    gradient: np.ndarray | None = None
    hessian: np.ndarray | None = None
    cost: EvalCost = _COSTS[0, 0, 0]


def _index_array(block) -> np.ndarray:
    """``block`` as an integer index array.  Float and boolean indices are
    refused by ``trace._is_integer``'s rule (numpy integers pass), since a
    cast would truncate the one and read the other as 0 or 1."""
    idx = block if isinstance(block, np.ndarray) else np.asarray(block, dtype=object)
    kind = idx.dtype.kind
    if not (kind in "iu" or idx.size == 0 or (kind == "O" and all(map(_is_integer, idx.flat)))):
        raise ValueError(f"block indices must be integers, not floats or booleans, got {idx.tolist()}")
    return np.asarray(idx, dtype=int)


def _as_points(x) -> np.ndarray:
    """``np.atleast_1d(np.asarray(x, dtype=float))``, calling neither on a float array of 1 or more dims."""
    if type(x) is np.ndarray and x.dtype is _FLOAT and x.ndim:
        return x
    return np.atleast_1d(np.asarray(x, dtype=float))


class DifferentiableTarget(ABC):
    """Contract for a twice-differentiable log-density (up to a constant)."""

    @property
    @abstractmethod
    def dim(self) -> int: ...

    @abstractmethod
    def evaluate(
        self, x: np.ndarray, *, gradient: bool = False, hessian: bool = False
    ) -> EvalResult:
        """Evaluate at ``x``, computing only the requested parts."""

    def restrict(self, block: np.ndarray, full: np.ndarray) -> "DifferentiableTarget":
        """Target over the ``block`` coordinates with the rest frozen at ``full``.

        The conditional splices the block into a copy of ``full`` and
        evaluates the parent: values equal the parent's at the spliced
        vector exactly, the gradient is the block sub-gradient and the
        Hessian the principal submatrix, and each call costs a full parent
        evaluation.  The conditional holds no state beyond its block and
        frozen vector.  The block must be nonempty distinct integer
        indices in ``0..dim-1``; any other, a float or boolean index
        included, raises ``ValueError``.
        """
        block = _index_array(block)
        indices = block.tolist()
        if not (block.ndim == 1 and indices and 0 <= min(indices) and max(indices) < self.dim
                and len(set(indices)) == len(indices)):
            raise ValueError(f"block must be nonempty distinct indices in 0..{self.dim - 1}, got {indices}")
        return _Spliced(self, block, full)

    def coordinate_lines(self, x: np.ndarray):
        """The lines through ``x`` that a slice sweep (``slice_sweep``)
        walks, with ``x`` a float vector the sweep updates in place.

        Returns ``(line, value, cost)``: ``line(d)``, called once coordinate
        d - 1 has moved, is coordinate d's log-density ``v -> float`` with
        the other coordinates held at ``x``; ``value`` is the log-density at
        ``x`` and ``cost`` the counters of one value-only evaluation, the
        same for every point.  The default splices ``v`` into ``x`` and
        evaluates the target, so a line's values are the target's own.
        ``LogisticTarget``, ``PoissonLogRateTarget``, a ``GaussianPriorTarget``
        with a diagonal precision and ``AdditiveTarget`` have their own
        lines; a dense ``GaussianPriorTarget``, ``LinearProjectionTarget``
        and ``restrict``'s conditionals keep this one.
        """
        start = self.evaluate(x)

        def line(d):
            def logf(v):
                x[d] = v
                return self.evaluate(x).value

            return logf

        return line, start.value, start.cost

    def _check_point(self, x: np.ndarray) -> np.ndarray:
        """``x`` as one float point of length ``dim``; a stack is refused."""
        x = _as_points(x)
        if x.shape != (self.dim,):
            if x.ndim == 1:
                raise ValueError(f"point has length {x.shape[0]}, expected {self.dim}")
            raise ValueError(
                f"{type(self).__name__} takes one point of length {self.dim}, got an array of shape "
                f"{x.shape}; only AdditiveTarget and the hierarchical model's group conditionals "
                "take a (J, m) stack of points"
            )
        return x


def _is_diagonal(a: np.ndarray) -> bool:
    """Whether every off-diagonal entry of a positive-definite ``a`` is zero
    (its diagonal entries are positive, so nonzero)."""
    return np.count_nonzero(a) == a.shape[0]


def _built(cls, **attrs):
    """A ``cls`` instance from parts already validated by a parent target;
    ``__init__`` is skipped."""
    target = object.__new__(cls)
    target.__dict__.update(attrs)
    return target


def _block_result(res: EvalResult, block: np.ndarray) -> EvalResult:
    """A parent's result over ``block``: its value and cost, the
    sub-gradient and the principal sub-Hessian of the derivatives it holds."""
    grad = None if res.gradient is None else res.gradient[block]
    # np.ix_'s grid, without its per-call cost
    hess = None if res.hessian is None else res.hessian[block[:, None], block]
    return EvalResult(res.value, grad, hess, res.cost)


class _Spliced(DifferentiableTarget):
    """``parent`` over the ``block`` coordinates, the rest frozen at ``full``."""

    def __init__(self, parent: DifferentiableTarget, block, full):
        self._parent = parent
        self._block = np.asarray(block, dtype=int)
        self._full = np.array(full, dtype=float)
        if self._full.shape[0] != parent.dim:
            raise ValueError("frozen vector must have the parent's dimension")

    @property
    def dim(self) -> int:
        return self._block.size

    def _parent_result(self, x, gradient: bool, hessian: bool) -> EvalResult:
        """The parent's whole result at ``x`` spliced into the frozen vector."""
        full = self._full.copy()
        full[self._block] = self._check_point(x)
        return self._parent.evaluate(full, gradient=gradient, hessian=hessian)

    def evaluate(self, x, *, gradient=False, hessian=False) -> EvalResult:
        return _block_result(self._parent_result(x, gradient, hessian), self._block)


def _row_losses(t: np.ndarray, not_y: np.ndarray) -> np.ndarray:
    """Each logistic row's negative log-likelihood at ``t``, as
    ``log1p(exp(-|t|)) + (1 - y) t - min(t, 0)`` in two new buffers; ``t``
    is never written."""
    e = np.abs(t)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.log1p(e, out=e)
    u = np.multiply(not_y, t)
    e += u
    e -= np.minimum(t, 0.0, out=u)
    return e


# the row-product Hessian table's regime (``LogisticTarget``): timed against
# ``(X * w).T @ X`` at 1,000, 10,000 and 100,000 rows with single-thread
# BLAS, the table was faster at every row count up to 15 coefficients, and
# slower at 20 with 100,000 rows and at 30 from 10,000 rows; the byte bound
# caps its memory at tall designs
_TABLE_MAX_K = 15
_TABLE_MAX_BYTES = 32 << 20


def _table_fits(n_rows: int, k: int) -> bool:
    """Whether a ``(K (K + 1) / 2, N)`` row-product table is built."""
    return k <= _TABLE_MAX_K and k * (k + 1) // 2 * n_rows * _FLOAT.itemsize <= _TABLE_MAX_BYTES


class LogisticTarget(DifferentiableTarget):
    """Bernoulli-logit log-likelihood over coefficients.

    ``value(b) = -sum_i [(1 - y_i) t_i + log(1 + exp(-t_i))]`` with
    ``t = X b``; each row is evaluated in the stable form
    ``(1 - y) t + log1p(exp(-|t|)) + max(-t, 0)``, so coefficients with
    ``|t| > 700`` do not overflow; its last two terms are within 2 ulp of
    ``np.logaddexp(0, -t)``.
    Gradient is ``X^T (y - sigma(t))`` and Hessian
    ``-X^T diag(sigma (1 - sigma)) X``, negative semi-definite everywhere
    and negative definite when X has full column rank.  No constant is
    dropped.  The design must be finite.  The target keeps ``1 - y``
    beside ``y``.  Each evaluation forms the row terms in two N-vectors of
    its own.

    The Hessian is a sum over rows in which only the weight
    ``w = sigma (1 - sigma)`` moves: ``-sum_n w_n x_n x_n^T``.  For up to
    15 coefficients and a table of at most 32 MiB, the first Hessian
    builds a table of each row's upper-triangle products ``x_ni x_nj``
    (i <= j), a C-ordered ``(P, N)`` array with ``P = K (K + 1) / 2``, so
    a Hessian is one matrix-vector product ``rows @ w`` expanded to an
    exactly symmetric ``(K, K)`` matrix.  The table costs ``(K + 1) / 2``
    times the design's bytes, about 440 KB at 1000 rows and 10
    coefficients, and agrees with ``-(X * w[:, None]).T @ X`` to
    rounding.  Wider or taller designs, where the table would be slower
    or too large, form that product and its symmetric part instead.

    ``coordinate_lines`` evaluates a slice sweep's lines at the cost of
    their row arithmetic: the predictor at the sweep's start, moved by one
    column after each update, and per-target column sums cached on first
    use, with no matrix product per point.  Its start value is
    ``evaluate``'s; line values agree with it to rounding.
    """

    def __init__(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2:
            raise ValueError("design must be a 2-D array")
        if y.shape != (X.shape[0],):
            raise ValueError("responses must be one per design row")
        if not np.all(np.isfinite(X)):
            raise ValueError("design entries must be finite")
        if not np.all((y == 0.0) | (y == 1.0)):
            raise ValueError("responses must be 0 or 1")
        self._X = X
        self._y = y
        self._not_y = 1.0 - y

    @property
    def dim(self) -> int:
        return self._X.shape[1]

    def evaluate(self, x, *, gradient=False, hessian=False) -> EvalResult:
        b = self._check_point(x)
        t = self._X @ b
        value = -float(_row_losses(t, self._not_y).sum())
        p = expit(t) if gradient or hessian else None
        grad = self._X.T @ (self._y - p) if gradient else None
        hess = None
        if hessian:
            w = 1.0 - p
            w *= p
            table = self._hessian_rows
            if table is None:
                np.negative(w, out=w)
                hess = (self._X * w[:, None]).T @ self._X
                hess += hess.T
                hess *= 0.5
            else:
                rows, pairs = table
                h = rows @ w
                np.negative(h, out=h)
                hess = h[pairs]
        return EvalResult(value, grad, hess, _COSTS[1, gradient, hessian])

    @cached_property
    def _hessian_rows(self) -> tuple | None:
        """The ``(P, N)`` table of the rows' upper-triangle products
        ``x_ni x_nj``, pair by pair in ``np.triu_indices`` order, and the
        ``(K, K)`` index of each Hessian entry's pair, the same for
        ``(i, j)`` and ``(j, i)``; None outside ``_table_fits``."""
        if not _table_fits(*self._X.shape):
            return None
        i, j = np.triu_indices(self.dim)
        xt = self._X.T
        pairs = np.empty((self.dim, self.dim), dtype=np.intp)
        pairs[i, j] = pairs[j, i] = np.arange(i.size)
        return xt[i] * xt[j], pairs

    @cached_property
    def _line_columns(self) -> tuple:
        """``X^T`` in C order, so that each column is contiguous, ``(1 - y) X``
        and the column sums of ``X``, for ``coordinate_lines``."""
        return np.ascontiguousarray(self._X.T), self._not_y @ self._X, self._X.sum(axis=0)

    def coordinate_lines(self, x):
        """The lines from the predictor ``t = X x`` at the sweep's start,
        moved by the changed column after each update.  Coordinate d's line
        at ``v`` is the row terms at ``u = t + delta X_d``, ``delta = v -
        x_d``.  With ``A = (1 - y) . t`` and ``S_t = sum t`` formed once
        per coordinate, ``B_d = (1 - y) . X_d`` and ``S_d = sum X_d``
        cached, and ``sum min(u, 0) = (sum u - sum |u|) / 2``, it is
        ``-(sum log1p(exp(-|u|)) + A + delta B_d - (S_t + delta S_d - sum |u|) / 2)``:
        ``u`` formed in one buffer, then one ``|u|`` pass and its sum,
        ``exp`` and ``log1p`` in place and a sum.  The start value is
        ``evaluate``'s; line values agree with it to rounding, not bit for
        bit."""
        self._check_point(x)  # the lines never call evaluate, which checks it
        t = self._X @ x
        xt, col_not_y, col_sums = self._line_columns
        not_y, start, u = self._not_y, x.copy(), np.empty_like(t)

        def line(d):
            if d:
                np.add(t, xt[d - 1] * (x[d - 1] - start[d - 1]), out=t)
            column, x_d, b_d, s_d = xt[d], float(start[d]), float(col_not_y[d]), float(col_sums[d])
            a, s_t = float(not_y @ t), float(t.sum())

            def logf(v):
                delta = v - x_d
                np.multiply(column, delta, out=u)
                np.add(u, t, out=u)
                np.abs(u, out=u)
                s_u = float(u.sum())
                np.negative(u, out=u)
                np.exp(u, out=u)
                np.log1p(u, out=u)
                return -(float(u.sum()) + a + delta * b_d - 0.5 * (s_t + delta * s_d - s_u))

            return logf

        return line, -float(_row_losses(t, not_y).sum()), _COSTS[1, 0, 0]


class PoissonLogRateTarget(DifferentiableTarget):
    """Poisson log-likelihood in the log-rate parameterization.

    For counts ``y`` and log-rate ``u``: ``f(u) = sum_i (y_i u - exp(u))``,
    dropping the observation-dependent ``-log(y_i!)`` constants.  The
    parameterization keeps the domain unconstrained and puts the mode at
    ``log(mean(y))`` when the counts are not all zero.  All derivatives are
    available in closed form, including the third (``-N exp(u)``), which is
    what the mixing diagnostics need.  Its slice line is ``v -> total * v
    - n exp(v)`` (see ``coordinate_lines``), ``evaluate``'s own arithmetic.
    Above ``709 - log n`` the same arithmetic runs with numpy's overflow
    warning off, and once ``n exp(u)`` overflows (from about ``709.78 -
    log n``, and at ``u = inf``) value, gradient and Hessian are -inf.
    """

    def __init__(self, y):
        y = np.atleast_1d(np.asarray(y))
        if y.size < 1:
            raise ValueError("need at least one observation")
        # inf equals its own floor, so the integer check alone passes it
        if not np.all(np.isfinite(y)) or np.any(y < 0) or np.any(y != np.floor(y)):
            raise ValueError("observations must be non-negative integers")
        with np.errstate(over="ignore"):
            total = float(np.sum(y))
        if total == np.inf:
            raise ValueError("total count is not finite: the counts sum past the float range")
        self._n = int(y.size)
        self._total = total
        # below this log-rate n * exp(u) is finite
        self._exp_limit = 709.0 - math.log(self._n)

    @property
    def dim(self) -> int:
        return 1

    @property
    def total_count(self) -> float:
        return self._total

    def evaluate(self, x, *, gradient=False, hessian=False) -> EvalResult:
        # a float point of length 1 needs neither wrapping nor a length check
        if not (type(x) is np.ndarray and x.shape == (1,) and x.dtype is _FLOAT):
            x = self._check_point(x)
        u = float(x[0])
        if u > self._exp_limit:
            with np.errstate(over="ignore"):
                rate_sum = self._n * np.exp(u)
            # total * u may overflow too, and inf - inf is NaN
            value = -rate_sum if rate_sum == np.inf else self._total * u - rate_sum
        else:
            rate_sum = self._n * np.exp(u)
            value = self._total * u - rate_sum
        # ndmin builds the same arrays as a nested list, at half the cost
        grad = np.array(self._total - rate_sum, ndmin=1) if gradient else None
        hess = np.array(-rate_sum, ndmin=2) if hessian else None
        return EvalResult(value, grad, hess, _COSTS[1, gradient, hessian])

    def coordinate_lines(self, x):
        """The one line ``v -> total * v - n exp(v)``: ``evaluate``'s
        operations in its order, ``np.exp`` included (``math.exp`` does not
        always match it bit for bit), so line values equal ``evaluate``'s bit
        for bit, the start value included, and ``evaluate``'s overflow
        branch."""
        total, n, exp, limit = self._total, self._n, np.exp, self._exp_limit

        def logf(v):
            if v > limit:
                with np.errstate(over="ignore"):
                    rate_sum = n * exp(v)
                return -rate_sum if rate_sum == np.inf else total * v - rate_sum
            return total * v - n * exp(v)

        return lambda d: logf, logf(float(self._check_point(x)[0])), _COSTS[1, 0, 0]

    def third_derivative(self, x) -> float:
        u = float(np.atleast_1d(x)[0])
        return -self._n * float(np.exp(u))

    def mode(self) -> float:
        """Exact mode ``log(mean(y))``; rejects all-zero observations."""
        if self._total <= 0.0:
            raise ValueError("all-zero observations: mode is at -infinity")
        return float(np.log(self._total / self._n))


# kept only because the benchmark's workloads and probes import it
def poisson_lograte_target(y) -> PoissonLogRateTarget:
    """Poisson log-likelihood over the log-rate, given integer counts."""
    return PoissonLogRateTarget(y)


def replicated_poisson_target(obs: int, n_copies: int) -> PoissonLogRateTarget:
    """Poisson target whose data is one count value repeated ``n_copies`` times."""
    return PoissonLogRateTarget(np.full(n_copies, obs))


class GaussianPriorTarget(DifferentiableTarget):
    """Gaussian log-density ``-(1/2)(x - m)^T P (x - m)`` in precision form.

    The normalizing constant is dropped.  The mean must be a finite scalar
    or 1-D array; the precision is validated as a ``SymMatrix`` and checked
    to be positive definite at construction.
    """

    def __init__(self, mean, precision):
        self._mean = np.atleast_1d(np.asarray(mean, dtype=float))
        if self._mean.ndim != 1:
            raise ValueError(f"mean must be a scalar or a 1-D array, got shape {self._mean.shape}")
        if not np.isfinite(self._mean).all():
            raise ValueError("mean must be finite")
        prec = precision if isinstance(precision, SymMatrix) else SymMatrix(precision)
        self._precision = prec.a
        if self._precision.shape[0] != self._mean.shape[0]:
            raise ValueError("precision dimension must match mean length")
        cholesky(self._precision)  # raises NotPositiveDefinite
        self._diagonal = _is_diagonal(self._precision)

    @property
    def dim(self) -> int:
        return self._mean.shape[0]

    def evaluate(self, x, *, gradient=False, hessian=False) -> EvalResult:
        b = self._check_point(x)
        d = b - self._mean
        pd = self._precision @ d
        value = -0.5 * float(d @ pd)
        grad = -pd if gradient else None
        hess = -self._precision if hessian else None
        return EvalResult(value, grad, hess, _COSTS[1, gradient, hessian])

    def third_derivative(self, x) -> float:
        return 0.0

    def mode(self) -> np.ndarray:
        """The mode, which is the mean (a copy)."""
        return self._mean.copy()

    def coordinate_lines(self, x):
        """A diagonal precision ``diag(tau)``'s line is the scalar ``-0.5
        (rest + tau_d r_d^2)``, with ``r = x - mean`` and ``rest`` the other
        coordinates' ``tau_k r_k^2`` summed once per coordinate; its start
        value is ``evaluate``'s.  Any other precision keeps the default."""
        if not self._diagonal:
            return super().coordinate_lines(x)
        self._check_point(x)  # the lines never call evaluate, which checks it
        tau, mean = self._precision.diagonal(), self._mean

        def line(d):
            r = x - mean
            terms = tau * r * r
            terms[d] = 0.0
            rest, mean_d, tau_d = float(terms.sum()), float(mean[d]), float(tau[d])
            return lambda v: -0.5 * (rest + tau_d * (v - mean_d) * (v - mean_d))

        return line, -0.5 * float((x - mean) @ (tau * (x - mean))), _COSTS[1, 0, 0]


class AdditiveTarget(DifferentiableTarget):
    """Sum of targets sharing one dimension; values, derivatives and
    evaluation counters all add, in part order and starting from the first
    part's result (no zero arrays): a sum whose every term is ``-0.0``
    stays ``-0.0``."""

    def __init__(self, parts):
        parts = list(parts)
        if not parts:
            raise ValueError("need at least one part")
        dim = parts[0].dim
        for p in parts:
            if p.dim != dim:
                raise ValueError("all parts must share the same dimension")
        self._parts = parts
        self._dim = dim

    @property
    def dim(self) -> int:
        return self._dim

    def evaluate(self, x, *, gradient=False, hessian=False) -> EvalResult:
        x = _as_points(x)
        # a (J, dim) stack of points passes to parts that take one (see ``tangent_step``)
        if x.shape[-1] != self._dim:
            raise ValueError(f"point has length {x.shape[-1]}, expected {self._dim}")
        parts = iter(self._parts)
        value, grad, hess, cost = next(parts).evaluate(x, gradient=gradient, hessian=hessian)
        for p in parts:
            res = p.evaluate(x, gradient=gradient, hessian=hessian)
            value += res.value
            if gradient:
                grad = grad + res.gradient
            if hessian:
                hess = hess + res.hessian
            cost = cost + res.cost
        return EvalResult(value, grad, hess, cost)

    def coordinate_lines(self, x):
        """The parts' lines, start values and counters, each summed in part
        order as ``evaluate`` sums them."""
        lines, values, costs = zip(*(p.coordinate_lines(x) for p in self._parts))

        def line(d):
            first, *others = [part(d) for part in lines]

            def logf(v):
                value = first(v)
                for other in others:
                    value += other(v)
                return value

            return logf

        return line, reduce(add, values), reduce(add, costs)


class BernoulliBase:
    """Bernoulli-logit observations (a 1-D array of 0s and 1s), one argument."""

    def __init__(self, y):
        y = np.asarray(y, dtype=float)
        if y.ndim != 1:
            raise ValueError(f"responses must be a 1-D array, got shape {y.shape}")
        if not np.all((y == 0.0) | (y == 1.0)):
            raise ValueError("responses must be 0 or 1")
        self._y = y

    @property
    def n_args(self) -> int:
        return 1

    @property
    def n_obs(self) -> int:
        return self._y.shape[0]

    def evaluate(self, U, *, gradient=False, hessian=False):
        u = U[:, 0]
        values = self._y * u - np.logaddexp(0.0, u)
        grads = None
        hessians = None
        if gradient or hessian:
            p = expit(u)
        if gradient:
            grads = (self._y - p)[:, None]
        if hessian:
            hessians = (-(p * (1.0 - p)))[:, None, None]
        return values, grads, hessians


class ConcaveQuadraticBase:
    """Strictly concave quadratics f^i(u) = -(1/2)(u - c_i)^T A_i (u - c_i)."""

    def __init__(self, quad, centers):
        quad = np.asarray(quad, dtype=float)
        centers = np.asarray(centers, dtype=float)
        if quad.ndim != 3 or quad.shape[1] != quad.shape[2]:
            raise ValueError("quad must be N x J x J")
        if centers.shape != quad.shape[:2]:
            raise ValueError("centers must be N x J")
        if not np.all(np.isfinite(centers)):
            raise ValueError("centers must be finite")
        # values read the full A_i and Hessians its lower triangle: they agree
        # only for an exactly symmetric A_i
        if not np.array_equal(quad, quad.transpose(0, 2, 1), equal_nan=True):
            raise ValueError("each A_i must be exactly symmetric")
        for i in range(quad.shape[0]):
            cholesky(quad[i])  # each A_i must be positive definite
        self._A = quad
        self._c = centers

    @property
    def n_args(self) -> int:
        return self._A.shape[1]

    @property
    def n_obs(self) -> int:
        return self._A.shape[0]

    def evaluate(self, U, *, gradient=False, hessian=False):
        d = U - self._c
        Ad = np.einsum("ijk,ik->ij", self._A, d)
        values = -0.5 * np.einsum("ij,ij->i", d, Ad)
        grads = -Ad if gradient else None
        hessians = -self._A if hessian else None
        return values, grads, hessians


class LinearProjectionTarget(DifferentiableTarget):
    """Composed log-density ``sum_i f^i(<x_1^i, b_1>, ..., <x_J^i, b_J>)``
    of a base family and one finite design matrix per argument, over the
    stacked coefficient vector ``(b_1, ..., b_J)``, assembling block
    gradients and Hessians by the chain rule.  The base's ``evaluate(U,
    gradient=, hessian=)`` maps the N x J projections to per-observation
    values, gradients and Hessians of shapes (N,), (N, J) and (N, J, J)."""

    def __init__(self, base, designs):
        designs = tuple(np.asarray(X, dtype=float) for X in designs)
        if len(designs) != base.n_args:
            raise ValueError("need one design per base-family argument")
        for X in designs:
            if X.ndim != 2 or X.shape[0] != base.n_obs:
                raise ValueError("each design needs one row per observation")
            if not np.all(np.isfinite(X)):
                raise ValueError("design entries must be finite")
        self.base = base
        self.designs = designs
        # block j of the stacked coefficients is offsets[j]:offsets[j + 1]
        self._offsets = list(accumulate((X.shape[1] for X in designs), initial=0))

    @property
    def dim(self) -> int:
        return self._offsets[-1]

    def projections(self, beta: np.ndarray) -> np.ndarray:
        """The N x J matrix of per-observation linear projections; a
        ``beta`` of any length but ``dim`` raises ``ValueError``."""
        beta = self._check_point(beta)
        offs = self._offsets
        return np.column_stack([X @ beta[offs[j] : offs[j + 1]] for j, X in enumerate(self.designs)])

    def evaluate(self, x, *, gradient=False, hessian=False) -> EvalResult:
        designs, offs = self.designs, self._offsets
        U = self.projections(x)
        values, grads, hessians = self.base.evaluate(U, gradient=gradient, hessian=hessian)
        value = float(np.sum(values))
        grad = None
        hess = None
        if gradient:
            grad = np.concatenate([X.T @ grads[:, j] for j, X in enumerate(designs)])
        if hessian:
            hess_a = np.zeros((self.dim, self.dim))
            for j, Xj in enumerate(designs):
                for jp in range(j, len(designs)):
                    block = Xj.T @ (hessians[:, j, jp][:, None] * designs[jp])
                    hess_a[offs[jp] : offs[jp + 1], offs[j] : offs[j + 1]] = block if jp == j else block.T
            # a diagonal block's product need not be exactly symmetric: fill
            # the blocks on and below the diagonal, and mirror the lower triangle
            hess = np.tril(hess_a)
            hess += np.tril(hess_a, -1).T
        return EvalResult(value, grad, hess, _COSTS[1, gradient, hessian])
