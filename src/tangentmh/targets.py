"""Differentiable log-density targets.

A target is anything exposing ``dim`` and ``evaluate(x, gradient=, hessian=)``
returning the log-density value (always up to an additive constant; each
concrete target documents which constant it drops), optionally with gradient
and Hessian, plus evaluation-cost counters.  Targets are immutable after
construction, except for three exact caches on a ``LogisticTarget``:
the conditionals it builds share the linear predictor, value and
``sigma(t)`` of their two most recent derivative evaluations, its
``restrict`` keeps each block's design columns, and its first
``coordinate_lines`` keeps the transposed design and column sums its
lines read.  Concurrent evaluation stays correct, since a cached value
is reused only for a bit-identical linear predictor and a block's
columns and the line sums are the same whoever builds them; the worst a
race can do is a miss, or build them twice.
Counters are returned per call, never accumulated in shared state.  A
``LogisticTarget`` keeps ``1 - y`` with its responses; one built by its
constructor without an offset stores none, rather than an array of zeros.
An evaluation writes only the arrays it creates, never one a target or
the memo holds.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import add
from typing import NamedTuple

import numpy as np
from scipy.linalg import qr
from scipy.special import expit

from .linalg import SymMatrix, cholesky

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
    "BaseFamily",
    "BernoulliBase",
    "ConcaveQuadraticBase",
    "LinearProjectionModel",
    "LinearProjectionTarget",
    "column_rank",
]

RANK_RTOL = 1e-10
_FLOAT = np.dtype(float)


class EvalCost(NamedTuple):
    """Per-call evaluation counters.  Immutable, so the leaf targets return
    shared instances rather than building one per call, and built at a
    tuple's cost where a sum needs a new one.  ``+`` adds field by field."""

    n_value: int = 0
    n_gradient: int = 0
    n_hessian: int = 0

    def __add__(self, other: "EvalCost") -> "EvalCost":
        return EvalCost(
            self.n_value + other.n_value,
            self.n_gradient + other.n_gradient,
            self.n_hessian + other.n_hessian,
        )


# the counters of one leaf evaluation, keyed (value, gradient, hessian)
_COSTS = {(v, g, h): EvalCost(v, g, h) for v in (0, 1) for g in (0, 1) for h in (0, 1)}


class EvalResult(NamedTuple):
    """Log-density value with optional derivatives and the cost incurred.
    Immutable, and built at a tuple's cost: every evaluation returns one."""

    value: float
    gradient: np.ndarray | None = None
    hessian: np.ndarray | None = None
    cost: EvalCost = _COSTS[0, 0, 0]


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

        The default implementation splices the block into a copy of ``full``
        and evaluates the parent: values equal the parent's at the spliced
        vector exactly, the gradient is the block sub-gradient and the
        Hessian the principal submatrix, and each call costs a full parent
        evaluation.  Subclasses override this when the conditional admits a
        cheaper equivalent form (possibly shifted by an additive constant).
        """
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
        and the default ``restrict``'s conditionals keep this one.
        """
        start = self.evaluate(x)

        def line(d):
            def logf(v):
                x[d] = v
                return self.evaluate(x).value

            return logf

        return line, start.value, start.cost

    def _check_point(self, x: np.ndarray) -> np.ndarray:
        x = _as_points(x)
        # a stacked target (see ``tangent_step``) takes a (J, dim) stack
        if x.shape[-1] != self.dim:
            raise ValueError(f"point has length {x.shape[-1]}, expected {self.dim}")
        return x


def _complement(dim: int, block: np.ndarray) -> np.ndarray:
    """Boolean mask of the coordinates outside ``block``."""
    rest = np.ones(dim, dtype=bool)
    rest[block] = False
    return rest


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

    def evaluate(self, x, *, gradient=False, hessian=False) -> EvalResult:
        b = self._check_point(x)
        full = self._full.copy()
        full[self._block] = b
        res = self._parent.evaluate(full, gradient=gradient, hessian=hessian)
        grad = res.gradient[self._block] if gradient else None
        hess = res.hessian[np.ix_(self._block, self._block)] if hessian else None
        return EvalResult(res.value, grad, hess, res.cost)


class _PredictorMemo:
    """The linear predictor ``t``, value and ``sigma(t)`` of the two most
    recent derivative evaluations among one ``LogisticTarget``'s
    conditionals, newest last."""

    __slots__ = ("older", "newer")

    def __init__(self):
        self.older = self.newer = None

    def recall(self, t: np.ndarray):
        """The kept ``(t, value, p)`` whose ``t`` equals this one exactly,
        made the newest; None if there is none."""
        for kept in (self.newer, self.older):
            # one entry first: a proposal always misses, and cheaply
            if kept is not None and t.size and kept[0][0] == t[0] and np.array_equal(kept[0], t):
                if kept is self.older:
                    self.older, self.newer = self.newer, kept
                return kept
        return None

    def keep(self, entry: tuple) -> None:
        self.older, self.newer = self.newer, entry


def _row_losses(t: np.ndarray, not_y: np.ndarray) -> np.ndarray:
    """Each logistic row's negative log-likelihood at ``t``, as
    ``log1p(exp(-|t|)) + (1 - y) t - min(t, 0)`` in two new buffers; ``t``,
    which a memo may keep, is never written."""
    e = np.abs(t)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.log1p(e, out=e)
    u = np.multiply(not_y, t)
    e += u
    e -= np.minimum(t, 0.0, out=u)
    return e


class LogisticTarget(DifferentiableTarget):
    """Bernoulli-logit log-likelihood over coefficients.

    ``value(b) = -sum_i [(1 - y_i) t_i + log(1 + exp(-t_i))]`` with
    ``t = X b + offset``; each row is evaluated in the stable form
    ``(1 - y) t + log1p(exp(-|t|)) + max(-t, 0)``, so coefficients with
    ``|t| > 700`` do not overflow; its last two terms are within 2 ulp of
    ``np.logaddexp(0, -t)``.
    Gradient is ``X^T (y - sigma(t))`` and Hessian
    ``-X^T diag(sigma (1 - sigma)) X``, negative semi-definite everywhere
    and negative definite when X has full column rank.  No constant is
    dropped.  Design and offset must be finite.  The target keeps ``1 - y``
    beside ``y``; constructed without an offset it stores none (``t = X b``),
    and its conditionals start from ``X_c x_c`` alone.  Each evaluation
    forms the row terms in two N-vectors of its own and the Hessian in
    place, with every operation's operands and order as in
    ``-(X * w[:, None]).T @ X`` symmetrized by ``0.5 (h + h^T)``.

    ``restrict`` keeps each block's columns ``X[:, block]`` and
    ``X[:, rest]`` on the parent, keyed by the block, and reuses them for
    every later conditional over the same block; they are kept as numpy's
    fancy indexing returns them (Fortran order), since a C-ordered copy
    would make the matrix-vector products sum in another order.

    The conditionals that ``restrict`` builds share the ``t``, value and
    ``sigma(t)`` of their two most recent evaluations with derivatives.
    Asked for derivatives at a ``t`` equal to a kept one, a conditional
    reuses that value and ``sigma(t)``, computes only the gradient and
    Hessian, and counts no value evaluation (``EvalCost(0, ...)``).  A
    conditional's ``t`` is ``X_b b + (offset + X_c x_c)``; with one block,
    or two blocks and no offset, elementwise addition commuting makes each
    block step's current ``t`` the one the previous step kept, so a block
    sweep evaluates each block's likelihood once.  Results are those of a
    fresh evaluation bit for bit.  Value-only evaluations, and every
    evaluation of a constructed target, neither read nor write the memo.

    ``coordinate_lines`` evaluates a slice sweep's lines at the cost of
    their row arithmetic: the predictor at the sweep's start, moved by one
    column after each update, and per-target column sums cached on first
    use, with no matrix product per point.  Its start value is
    ``evaluate``'s; line values agree with it to rounding.
    """

    def __init__(self, X, y, offset=None):
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
        self._offset = None
        if offset is not None:
            self._offset = np.asarray(offset, dtype=float)
            if self._offset.shape != (X.shape[0],):
                raise ValueError("offset must be one entry per design row")
            if not np.all(np.isfinite(self._offset)):
                raise ValueError("offset entries must be finite")
        self._memo = None  # the memo this target reads: only a conditional has one
        self._conditional_memo = None  # made by the first restrict
        self._columns = {}  # block.tobytes() -> (X[:, block], X[:, rest], rest)

    @property
    def dim(self) -> int:
        return self._X.shape[1]

    def evaluate(self, x, *, gradient=False, hessian=False) -> EvalResult:
        b = self._check_point(x)
        t = self._X @ b
        if self._offset is not None:
            t += self._offset
        derivatives = gradient or hessian
        memo = self._memo if derivatives else None
        kept = memo.recall(t) if memo is not None else None
        if kept is None:
            value = -float(_row_losses(t, self._not_y).sum())
            p = expit(t) if derivatives else None
            if memo is not None:
                memo.keep((t, value, p))
        else:
            _, value, p = kept
        grad = self._X.T @ (self._y - p) if gradient else None
        hess = None
        if hessian:
            # -(1 - p) p: X (-w) is -(X w) bit for bit, signed zeros included
            w = 1.0 - p
            w *= p
            np.negative(w, out=w)
            hess = (self._X * w[:, None]).T @ self._X
            hess += hess.T
            hess *= 0.5
        return EvalResult(
            value,
            grad,
            hess,
            _COSTS[kept is None, gradient, hessian],
        )

    @cached_property
    def _line_columns(self) -> tuple:
        """``X^T`` in C order, so that each column is contiguous, ``(1 - y) X``
        and the column sums of ``X``, for ``coordinate_lines``."""
        return np.ascontiguousarray(self._X.T), self._not_y @ self._X, self._X.sum(axis=0)

    def coordinate_lines(self, x):
        """The lines from the predictor ``t = X x`` (+ offset) at the
        sweep's start, moved by the changed column after each update.
        Coordinate d's line at ``v`` is the row terms at ``u = t + delta
        X_d``, ``delta = v - x_d``.  With ``A = (1 - y) . t`` and ``S_t =
        sum t`` formed once per coordinate, ``B_d = (1 - y) . X_d`` and
        ``S_d = sum X_d`` cached, and ``sum min(u, 0) = (sum u - sum |u|) /
        2``, it is
        ``-(sum log1p(exp(-|u|)) + A + delta B_d - (S_t + delta S_d - sum |u|) / 2)``:
        ``u`` formed in one buffer, then one ``|u|`` pass and its sum,
        ``exp`` and ``log1p`` in place and a sum.  The start value is
        ``evaluate``'s; line values agree with it to rounding, not bit for
        bit."""
        self._check_point(x)  # the lines never call evaluate, which checks it
        t = self._X @ x
        if self._offset is not None:
            t += self._offset
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

    def restrict(self, block, full) -> "LogisticTarget":
        block = np.asarray(block, dtype=int)
        key = block.tobytes()
        columns = self._columns.get(key)
        if columns is None:
            # a race only builds the same columns twice
            rest = _complement(self.dim, block)
            columns = self._columns[key] = (self._X[:, block], self._X[:, rest], rest)
        x_b, x_rest, rest = columns
        offset = x_rest @ np.asarray(full, dtype=float)[rest]
        if self._offset is not None:
            offset = self._offset + offset
        # one memo per design and responses: a conditional passes on its own
        memo = self._memo
        if memo is None:
            memo = self._conditional_memo = self._conditional_memo or _PredictorMemo()
        # columns of a checked design and the same responses need no second check
        return _built(
            LogisticTarget, _X=x_b, _y=self._y, _not_y=self._not_y, _offset=offset, _memo=memo, _columns={}
        )


class PoissonLogRateTarget(DifferentiableTarget):
    """Poisson log-likelihood in the log-rate parameterization.

    For counts ``y`` and log-rate ``u``: ``f(u) = sum_i (y_i u - exp(u))``,
    dropping the observation-dependent ``-log(y_i!)`` constants.  The
    parameterization keeps the domain unconstrained and puts the mode at
    ``log(mean(y))`` when the counts are not all zero.  All derivatives are
    available in closed form, including the third (``-N exp(u)``), which is
    what the mixing diagnostics need.  Its slice line is ``v -> total * v
    - n exp(v)`` (see ``coordinate_lines``), ``evaluate``'s own arithmetic.
    """

    def __init__(self, y):
        y = np.atleast_1d(np.asarray(y))
        if y.size < 1:
            raise ValueError("need at least one observation")
        # inf equals its own floor, so the integer check alone passes it
        if not np.all(np.isfinite(y)) or np.any(y < 0) or np.any(y != np.floor(y)):
            raise ValueError("observations must be non-negative integers")
        self._n = int(y.size)
        self._total = float(np.sum(y))

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
        for bit, the start value included."""
        total, n, exp = self._total, self._n, np.exp

        def logf(v):
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
    return PoissonLogRateTarget(np.full(n_copies, obs, dtype=int))


class GaussianPriorTarget(DifferentiableTarget):
    """Gaussian log-density ``-(1/2)(x - m)^T P (x - m)`` in precision form.

    The normalizing constant is dropped.  The precision is validated as a
    ``SymMatrix`` and checked to be positive definite at construction.
    ``restrict`` factors the block precision once, for the conditional
    mean; a precision that is exactly diagonal restricts to the block mean
    and the block diagonal, with no factorization.
    """

    def __init__(self, mean, precision):
        self._mean = np.atleast_1d(np.asarray(mean, dtype=float))
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

    def restrict(self, block, full) -> "GaussianPriorTarget":
        block = np.asarray(block, dtype=int)
        mean = self._mean[block]
        if self._diagonal:
            # P_bc is zero, so the mean needs no shift; a positive diagonal
            # needs no factorization to be positive definite
            p_bb = np.diag(self._precision.diagonal()[block])
            return _built(GaussianPriorTarget, _mean=mean, _precision=p_bb, _diagonal=True)
        rest = _complement(self.dim, block)
        # a principal submatrix of a checked precision is symmetric; its
        # factorization is the positive-definiteness check
        p_bb = self._precision[np.ix_(block, block)]
        factor = cholesky(p_bb)
        if rest.any():
            full = np.asarray(full, dtype=float)
            # conditional mean m_b - P_bb^{-1} P_bc (x_c - m_c); value shifts by a constant
            r = self._precision[np.ix_(block, rest)] @ (full[rest] - self._mean[rest])
            mean = mean - factor.solve(r)
        return _built(GaussianPriorTarget, _mean=mean, _precision=p_bb, _diagonal=_is_diagonal(p_bb))


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
        x = self._check_point(x)
        parts = iter(self._parts)
        res = next(parts).evaluate(x, gradient=gradient, hessian=hessian)
        value, grad, hess, cost = res.value, res.gradient, res.hessian, res.cost
        n_value, n_gradient, n_hessian = cost.n_value, cost.n_gradient, cost.n_hessian
        for p in parts:
            res = p.evaluate(x, gradient=gradient, hessian=hessian)
            value += res.value
            if gradient:
                grad = grad + res.gradient
            if hessian:
                hess = hess + res.hessian
            cost = res.cost
            n_value += cost.n_value
            n_gradient += cost.n_gradient
            n_hessian += cost.n_hessian
        return EvalResult(value, grad, hess, EvalCost(n_value, n_gradient, n_hessian))

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

    def restrict(self, block, full) -> "AdditiveTarget":
        # every part's conditional has the block's dimension: nothing to check
        parts = [p.restrict(block, full) for p in self._parts]
        return _built(AdditiveTarget, _parts=parts, _dim=parts[0].dim)


class BaseFamily(ABC):
    """Per-observation density family f^i(u_1, ..., u_J) of scalar arguments."""

    @property
    @abstractmethod
    def n_args(self) -> int: ...

    @property
    @abstractmethod
    def n_obs(self) -> int: ...

    @abstractmethod
    def evaluate(self, U: np.ndarray, *, gradient: bool = False, hessian: bool = False):
        """Evaluate all observations at the N x J argument matrix ``U``.

        Returns ``(values, grads, hessians)`` with shapes (N,), (N, J) and
        (N, J, J); the derivative slots are None unless requested.
        """


class BernoulliBase(BaseFamily):
    """Bernoulli-logit observations as a single-argument base family."""

    def __init__(self, y):
        y = np.asarray(y, dtype=float)
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


class ConcaveQuadraticBase(BaseFamily):
    """Strictly concave quadratics f^i(u) = -(1/2)(u - c_i)^T A_i (u - c_i)."""

    def __init__(self, quad, centers):
        quad = np.asarray(quad, dtype=float)
        centers = np.asarray(centers, dtype=float)
        if quad.ndim != 3 or quad.shape[1] != quad.shape[2]:
            raise ValueError("quad must be N x J x J")
        if centers.shape != quad.shape[:2]:
            raise ValueError("centers must be N x J")
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


def column_rank(X: np.ndarray) -> int:
    """Numerical column rank via column-pivoted QR.

    A diagonal entry of R counts toward the rank when its magnitude exceeds
    ``RANK_RTOL`` times the spectral norm of X.
    """
    X = np.asarray(X, dtype=float)
    if X.size == 0:
        return 0
    _, R, _ = qr(X, mode="economic", pivoting=True)
    tol = RANK_RTOL * np.linalg.norm(X, 2)
    return int(np.sum(np.abs(np.diag(R)) > tol))


@dataclass(frozen=True)
class LinearProjectionModel:
    """Composition data: base family plus one design matrix per argument.

    The composed log-density is ``sum_i f^i(<x_1^i, b_1>, ..., <x_J^i, b_J>)``
    over the stacked coefficient vector ``(b_1, ..., b_J)``.  Column ranks of
    the designs are computed at construction; ``all_full_rank`` is the
    hypothesis under which the composed Hessian stays negative definite.
    """

    base: BaseFamily
    designs: tuple
    ranks: tuple = field(init=False)

    def __post_init__(self):
        designs = tuple(np.asarray(X, dtype=float) for X in self.designs)
        if len(designs) != self.base.n_args:
            raise ValueError("need one design per base-family argument")
        for X in designs:
            if X.ndim != 2 or X.shape[0] != self.base.n_obs:
                raise ValueError("each design needs one row per observation")
        object.__setattr__(self, "designs", designs)
        object.__setattr__(self, "ranks", tuple(column_rank(X) for X in designs))

    @property
    def n_groups(self) -> int:
        return len(self.designs)

    @property
    def group_dims(self) -> tuple:
        return tuple(X.shape[1] for X in self.designs)

    @property
    def dim(self) -> int:
        return sum(self.group_dims)

    @property
    def full_rank_flags(self) -> tuple:
        return tuple(r == X.shape[1] for r, X in zip(self.ranks, self.designs))

    @property
    def all_full_rank(self) -> bool:
        return all(self.full_rank_flags)

    def split(self, beta: np.ndarray) -> list:
        beta = np.asarray(beta, dtype=float)
        out = []
        start = 0
        for k in self.group_dims:
            out.append(beta[start : start + k])
            start += k
        return out

    def projections(self, beta: np.ndarray) -> np.ndarray:
        """The N x J matrix of per-observation linear projections."""
        blocks = self.split(beta)
        return np.column_stack([X @ b for X, b in zip(self.designs, blocks)])


class LinearProjectionTarget(DifferentiableTarget):
    """Composed log-density over the stacked coefficients of ``model``,
    assembling block gradients and Hessians by the chain rule."""

    def __init__(self, model: LinearProjectionModel):
        self._model = model

    @property
    def dim(self) -> int:
        return self._model.dim

    def evaluate(self, x, *, gradient=False, hessian=False) -> EvalResult:
        beta = self._check_point(x)
        m = self._model
        U = m.projections(beta)
        values, grads, hessians = m.base.evaluate(U, gradient=gradient, hessian=hessian)
        value = float(np.sum(values))
        grad = None
        hess = None
        if gradient:
            grad = np.concatenate(
                [X.T @ grads[:, j] for j, X in enumerate(m.designs)]
            )
        if hessian:
            dims = m.group_dims
            hess_a = np.zeros((m.dim, m.dim))
            offs = np.concatenate([[0], np.cumsum(dims)])
            for j, Xj in enumerate(m.designs):
                for jp in range(j, m.n_groups):
                    block = Xj.T @ (hessians[:, j, jp][:, None] * m.designs[jp])
                    hess_a[offs[jp] : offs[jp + 1], offs[j] : offs[j + 1]] = block if jp == j else block.T
            # a diagonal block's product need not be exactly symmetric: fill
            # the blocks on and below the diagonal, and mirror the lower triangle
            hess = np.tril(hess_a)
            hess += np.tril(hess_a, -1).T
        return EvalResult(value, grad, hess, _COSTS[1, gradient, hessian])
