"""Differentiable log-density targets.

A target is anything exposing ``dim`` and ``evaluate(x, gradient=, hessian=)``
returning the log-density value (always up to an additive constant; each
concrete target documents which constant it drops), optionally with gradient
and Hessian, plus evaluation-cost counters.  Targets are immutable after
construction and safe for concurrent evaluation: counters are returned per
call, never accumulated in shared state.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import null_space, qr
from scipy.special import expit

from .linalg import CholeskyFactor, SymMatrix, cholesky

__all__ = [
    "EvalCost",
    "EvalResult",
    "DifferentiableTarget",
    "LogisticTarget",
    "logistic_target",
    "PoissonLogRateTarget",
    "poisson_lograte_target",
    "replicated_poisson_target",
    "GaussianPriorTarget",
    "gaussian_prior",
    "AdditiveTarget",
    "additive_target",
    "BaseFamily",
    "BernoulliBase",
    "ConcaveQuadraticBase",
    "LinearProjectionModel",
    "linear_projection_target",
    "column_rank",
    "WitnessReport",
    "negative_definiteness_witness",
]

RANK_RTOL = 1e-10


@dataclass(frozen=True)
class EvalCost:
    """Per-call evaluation counters."""

    n_value: int = 0
    n_gradient: int = 0
    n_hessian: int = 0

    def __add__(self, other: "EvalCost") -> "EvalCost":
        return EvalCost(
            self.n_value + other.n_value,
            self.n_gradient + other.n_gradient,
            self.n_hessian + other.n_hessian,
        )


@dataclass(frozen=True)
class EvalResult:
    """Log-density value with optional derivatives and the cost incurred."""

    value: float
    gradient: np.ndarray | None = None
    hessian: np.ndarray | None = None
    cost: EvalCost = field(default_factory=EvalCost)


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

    def _check_point(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape[0] != self.dim:
            raise ValueError(f"point has length {x.shape[0]}, expected {self.dim}")
        return x


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


class LogisticTarget(DifferentiableTarget):
    """Bernoulli-logit log-likelihood over coefficients.

    ``value(b) = -sum_i [(1 - y_i) t_i + log(1 + exp(-t_i))]`` with
    ``t = X b + offset``; the log(1+exp) term is evaluated in the stable
    form ``log(1 + exp(-|t|)) + max(-t, 0)`` so coefficients with
    ``|t| > 700`` do not overflow.  Gradient is ``X^T (y - sigma(t))`` and
    Hessian ``-X^T diag(sigma (1 - sigma)) X``, negative semi-definite
    everywhere and negative definite when X has full column rank.  No
    constant is dropped.
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
        if offset is None:
            self._offset = np.zeros(X.shape[0])
        else:
            self._offset = np.asarray(offset, dtype=float)
            if self._offset.shape != (X.shape[0],):
                raise ValueError("offset must be one entry per design row")

    @property
    def dim(self) -> int:
        return self._X.shape[1]

    def evaluate(self, x, *, gradient=False, hessian=False) -> EvalResult:
        b = self._check_point(x)
        t = self._X @ b + self._offset
        # np.logaddexp(0, -t) == log(1 + exp(-|t|)) + max(-t, 0)
        value = -float(np.sum((1.0 - self._y) * t + np.logaddexp(0.0, -t)))
        grad = None
        hess = None
        if gradient or hessian:
            p = expit(t)
        if gradient:
            grad = self._X.T @ (self._y - p)
        if hessian:
            w = p * (1.0 - p)
            h = -(self._X * w[:, None]).T @ self._X
            hess = 0.5 * (h + h.T)
        return EvalResult(
            value,
            grad,
            hess,
            EvalCost(1, int(gradient), int(hessian)),
        )

    def restrict(self, block, full) -> "LogisticTarget":
        block = np.asarray(block, dtype=int)
        rest = np.setdiff1d(np.arange(self.dim), block)
        offset = self._offset + self._X[:, rest] @ np.asarray(full, dtype=float)[rest]
        return LogisticTarget(self._X[:, block], self._y, offset=offset)


def logistic_target(X, y) -> LogisticTarget:
    """Logistic-regression log-likelihood for binary responses ``y``."""
    return LogisticTarget(X, y)


class PoissonLogRateTarget(DifferentiableTarget):
    """Poisson log-likelihood in the log-rate parameterization.

    For counts ``y`` and log-rate ``u``: ``f(u) = sum_i (y_i u - exp(u))``,
    dropping the observation-dependent ``-log(y_i!)`` constants.  The
    parameterization keeps the domain unconstrained and puts the mode at
    ``log(mean(y))`` when the counts are not all zero.  All derivatives are
    available in closed form, including the third (``-N exp(u)``), which is
    what the mixing diagnostics need.
    """

    def __init__(self, y):
        y = np.atleast_1d(np.asarray(y))
        if y.size < 1:
            raise ValueError("need at least one observation")
        if np.any(y < 0) or np.any(y != np.floor(y)):
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
        u = float(self._check_point(x)[0])
        rate_sum = self._n * np.exp(u)
        value = self._total * u - rate_sum
        grad = np.array([self._total - rate_sum]) if gradient else None
        hess = np.array([[-rate_sum]]) if hessian else None
        return EvalResult(value, grad, hess, EvalCost(1, int(gradient), int(hessian)))

    def third_derivative(self, x) -> float:
        u = float(np.atleast_1d(x)[0])
        return -self._n * float(np.exp(u))

    def mode(self) -> float:
        """Exact mode ``log(mean(y))``; rejects all-zero observations."""
        if self._total <= 0.0:
            raise ValueError("all-zero observations: mode is at -infinity")
        return float(np.log(self._total / self._n))


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
    """

    def __init__(self, mean, precision):
        self._mean = np.atleast_1d(np.asarray(mean, dtype=float))
        prec = precision if isinstance(precision, SymMatrix) else SymMatrix(precision)
        self._precision = prec.a
        if self._precision.shape[0] != self._mean.shape[0]:
            raise ValueError("precision dimension must match mean length")
        cholesky(self._precision)  # raises NotPositiveDefinite

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
        return EvalResult(value, grad, hess, EvalCost(1, int(gradient), int(hessian)))

    def third_derivative(self, x) -> float:
        return 0.0

    def restrict(self, block, full) -> "GaussianPriorTarget":
        block = np.asarray(block, dtype=int)
        rest = np.setdiff1d(np.arange(self.dim), block)
        p_bb = self._precision[np.ix_(block, block)]
        if rest.size == 0:
            return GaussianPriorTarget(self._mean, p_bb)
        full = np.asarray(full, dtype=float)
        # conditional mean m_b - P_bb^{-1} P_bc (x_c - m_c); value shifts by a constant
        r = self._precision[np.ix_(block, rest)] @ (full[rest] - self._mean[rest])
        mean = self._mean[block] - cholesky(p_bb).solve(r)
        return GaussianPriorTarget(mean, p_bb)


def gaussian_prior(mean, precision) -> GaussianPriorTarget:
    """Gaussian target with the given mean and positive-definite precision."""
    return GaussianPriorTarget(mean, precision)


class AdditiveTarget(DifferentiableTarget):
    """Sum of targets sharing one dimension; values, derivatives and
    evaluation counters all add."""

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
        value = 0.0
        grad = np.zeros(self._dim) if gradient else None
        hess = np.zeros((self._dim, self._dim)) if hessian else None
        cost = EvalCost()
        for p in self._parts:
            res = p.evaluate(x, gradient=gradient, hessian=hessian)
            value += res.value
            if gradient:
                grad = grad + res.gradient
            if hessian:
                hess = hess + res.hessian
            cost = cost + res.cost
        return EvalResult(value, grad, hess, cost)

    def restrict(self, block, full) -> "AdditiveTarget":
        return AdditiveTarget([p.restrict(block, full) for p in self._parts])


def additive_target(parts) -> DifferentiableTarget:
    """Sum of log-densities; a single part is returned unchanged."""
    parts = list(parts)
    if len(parts) == 1:
        return parts[0]
    return AdditiveTarget(parts)


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
    ranks: tuple = ()

    def __init__(self, base: BaseFamily, designs):
        designs = tuple(np.asarray(X, dtype=float) for X in designs)
        if len(designs) != base.n_args:
            raise ValueError("need one design per base-family argument")
        for X in designs:
            if X.ndim != 2 or X.shape[0] != base.n_obs:
                raise ValueError("each design needs one row per observation")
        object.__setattr__(self, "base", base)
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


class _LinearProjectionTarget(DifferentiableTarget):
    """Composed target assembling block gradients and Hessians by chain rule."""

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
                    hess_a[offs[j] : offs[j + 1], offs[jp] : offs[jp + 1]] = block
                    if jp != j:
                        hess_a[offs[jp] : offs[jp + 1], offs[j] : offs[j + 1]] = block.T
            hess = SymMatrix(hess_a).a  # mirrors the lower triangle
        return EvalResult(value, grad, hess, EvalCost(1, int(gradient), int(hessian)))


def linear_projection_target(m: LinearProjectionModel) -> DifferentiableTarget:
    """Composed log-density over stacked coefficients for the given model."""
    return _LinearProjectionTarget(m)


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of a definiteness check on a composed Hessian.

    Either ``certified`` is True and ``factor`` holds the Cholesky
    certificate of -H, or a degenerate direction ``witness`` with
    ``|witness^T H witness| <= tol`` is supplied.  ``identity_max_err`` is
    the largest deviation of p^T H p from its per-observation decomposition
    across the randomized trials.
    """

    certified: bool
    witness: np.ndarray | None
    quad_form: float
    hessian_norm: float
    identity_max_err: float
    factor: CholeskyFactor | None = None


def _quadform_decomposition(m: LinearProjectionModel, hessians, p: np.ndarray) -> float:
    """sum_i q_i^T H_i q_i with q_i the per-observation projections of p."""
    blocks = m.split(p)
    Q = np.column_stack([X @ b for X, b in zip(m.designs, blocks)])
    return float(np.einsum("ij,ijk,ik->", Q, hessians, Q))


def negative_definiteness_witness(
    m: LinearProjectionModel, beta, trials: int, rng: np.random.Generator
) -> WitnessReport:
    """Certify the composed Hessian negative definite, or exhibit a flat direction.

    With every design of full column rank the negated Hessian is factored
    outright.  Otherwise the returned witness stacks one null-space vector
    per rank-deficient design (zeros on the full-rank blocks), which
    annihilates every per-observation term of the quadratic form: a single
    full-rank design does NOT rescue definiteness, because directions
    supported on the deficient blocks alone stay exactly flat.  Each of
    the ``trials`` random directions additionally checks that p^T H p
    matches its observation-wise decomposition sum_i q_i^T H_i q_i.
    """
    target = linear_projection_target(m)
    beta = np.asarray(beta, dtype=float)
    res = target.evaluate(beta, gradient=True, hessian=True)
    H = res.hessian
    _, _, hessians = m.base.evaluate(m.projections(beta), hessian=True)
    h_norm = float(np.linalg.norm(H, "fro"))

    identity_max_err = 0.0
    for _ in range(max(int(trials), 0)):
        p = rng.standard_normal(m.dim)
        p /= np.linalg.norm(p)
        lhs = float(p @ H @ p)
        rhs = _quadform_decomposition(m, hessians, p)
        identity_max_err = max(identity_max_err, abs(lhs - rhs))

    if m.all_full_rank:
        factor = cholesky(-H)
        return WitnessReport(True, None, float("nan"), h_norm, identity_max_err, factor)

    parts = []
    for X, full in zip(m.designs, m.full_rank_flags):
        if full:
            parts.append(np.zeros(X.shape[1]))
        else:
            parts.append(null_space(X, rcond=RANK_RTOL)[:, 0])
    p = np.concatenate(parts)
    quad = float(p @ H @ p)
    return WitnessReport(False, p, quad, h_norm, identity_max_err, None)
