"""Metropolis-Hastings kernel with tangent Gaussian proposals.

The proposal at a point x is the Gaussian matching the local second-order
expansion of the log-density: precision equal to the negated Hessian, mean
equal to the full Newton step.  Drawing from it and applying the usual MH
ratio gives a kernel that is exact (100% acceptance) on Gaussian targets
and needs no tuning elsewhere; running the same construction without the
accept/reject step is plain Newton iteration, which is how burn-in starts.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .linalg import (
    _LOG_2PI,
    NotPositiveDefinite,
    _cholesky_stack,
    _factor_lower,
    _inv_kernel,
    _lower_solve,
)
from .targets import DifferentiableTarget, EvalCost, EvalResult, _as_points
from .trace import ChainConfig, ChainTrace, run_sweeps

__all__ = [
    "HessianNotNegativeDefinite",
    "ChainConfig",
    "StepRecord",
    "build_proposal",
    "newton_step",
    "tangent_step",
    "run_chain",
]


class HessianNotNegativeDefinite(Exception):
    """The log-density Hessian failed to be negative definite at a point.

    Wraps the Cholesky failure on the negated Hessian; ``pivot`` is the
    index where positivity broke, ``point`` the offending location.
    """

    def __init__(self, point: np.ndarray, pivot: int):
        self.point = np.asarray(point, dtype=float)
        self.pivot = pivot
        super().__init__(
            f"Hessian not negative definite at "
            f"{np.array2string(self.point, max_line_width=sys.maxsize)} (pivot {pivot})"
        )


class _NonFiniteNewtonMean(ValueError):
    """The Newton step from a point is not finite (e.g. an infinite gradient)."""


class StepRecord(NamedTuple):
    """How one MH transition was decided; for a stack of points,
    ``accepted``, ``log_ratio`` and ``hessian_failure`` are ``(J,)`` arrays,
    one entry per group.  Immutable, and built at a tuple's cost: every
    step returns one."""

    accepted: bool
    log_ratio: float
    cost: EvalCost
    hessian_failure: bool = False


class _Proposal:
    """One fitted point: the tangent Gaussian at ``x`` plus the point's
    log-density ``value`` and evaluation ``cost``.  ``mean`` is the Newton
    step from ``x``; the precision, the negated Hessian, is held as its
    lower Cholesky factor ``L`` (``cholesky``'s, without its argument
    checks).  The fit checks the mean's finiteness and takes the half
    log-determinant once.  ``propose`` draws ``mean + L^{-T} z`` for one
    ``standard_normal(m)`` draw ``z`` with its log density
    ``-(m/2) log(2 pi) + half_log_det - |z|^2 / 2``; ``log_q(x)`` is the
    same with ``z = L^T (x - mean)``."""

    __slots__ = ("mean", "lower", "half_log_det", "value", "cost")

    def __init__(self, x: np.ndarray, res: EvalResult):
        try:
            lower = _factor_lower(-res.hessian)
        except NotPositiveDefinite as err:
            raise HessianNotNegativeDefinite(x, err.pivot) from err
        # Newton step: mean = x + (-H)^{-1} g, solved against the factor
        mean = x + _lower_solve(lower, _lower_solve(lower, res.gradient, 0), 1)
        if not all(map(math.isfinite, mean.tolist())):
            raise _NonFiniteNewtonMean(f"Newton step from {x} is not finite")
        self.mean = mean
        self.lower = lower
        self.half_log_det = float(np.log(lower.diagonal()).sum())
        self.value = res.value
        self.cost = res.cost

    def propose(self, rng: np.random.Generator) -> tuple[np.ndarray, float]:
        z = rng.standard_normal(self.mean.shape[0])
        y = self.mean + _lower_solve(self.lower, z, 1)
        return y, -0.5 * z.shape[0] * _LOG_2PI + self.half_log_det - 0.5 * float(z @ z)

    def log_q(self, x: np.ndarray) -> float:
        z = self.lower.T @ (x - self.mean)
        return -0.5 * self.mean.shape[0] * _LOG_2PI + self.half_log_det - 0.5 * float(z @ z)


class _ScalarProposal:
    """``_Proposal`` at dim 1 in float arithmetic, bit-identical to it:
    ``dpotrf`` of a 1x1 matrix is ``sqrt`` and a 1x1 ``dtrtrs`` divides by
    the factor (multiplying by its reciprocal is not identical).  ``mean``
    and ``lower`` are built as arrays only when read.  ``propose`` takes
    its log density from the draw, as ``log_q`` does, not from ``z``."""

    __slots__ = ("_m", "_l", "half_log_det", "value", "cost")

    def __init__(self, x: np.ndarray, res: EvalResult):
        a = -res.hessian.item()
        # cholesky's pivot rule: a non-finite entry or a failed factorization;
        # l * l > PIVOT_RTOL * a then holds for every finite a > 0
        if not (math.isfinite(a) and a > 0.0):
            raise HessianNotNegativeDefinite(x, 0)
        l = math.sqrt(a)
        m = x.item() + (res.gradient.item() / l) / l
        if not math.isfinite(m):
            raise _NonFiniteNewtonMean(f"Newton step from {x} is not finite")
        self._m = m
        self._l = l
        self.half_log_det = float(np.log(l))
        self.value = res.value
        self.cost = res.cost

    @property
    def mean(self) -> np.ndarray:
        return np.array([self._m])

    @property
    def lower(self) -> np.ndarray:
        return np.array([[self._l]])

    def propose(self, rng: np.random.Generator) -> tuple[np.ndarray, float]:
        y = rng.standard_normal(1)
        y[0] = self._m + y.item() / self._l
        z = self._l * (y.item() - self._m)
        return y, -0.5 * _LOG_2PI + self.half_log_det - 0.5 * (z * z)

    def log_q(self, x: np.ndarray) -> float:
        z = self._l * (x.item() - self._m)
        return -0.5 * _LOG_2PI + self.half_log_det - 0.5 * (z * z)


def _fit_proposal(x: np.ndarray, res: EvalResult) -> _Proposal | _ScalarProposal:
    return _ScalarProposal(x, res) if x.shape[0] == 1 else _Proposal(x, res)


class _StackedProposal:
    """``_Proposal`` for a ``(J, m)`` stack of points, one per independent
    target: Newton means ``mean`` (J, m), lower precision factors ``lower``
    and their inverses ``inverse`` (J, m, m), half log-determinants
    ``half_log_det`` (J,), the points' ``value`` (J,) and the evaluation
    ``cost``.  Each group's negated Hessian passes ``cholesky``'s pivot
    rule or fails alone.  ``failed`` (J,) marks a failed factor or a
    non-finite Newton mean; such a group's factor is the identity and its
    mean its point, so the stack's arithmetic stays finite.  ``any_failed``
    is True when some group failed.  ``raise_failure`` raises what
    ``_Proposal`` would raise for the first failed group.  A stacked step
    fits one at its current points, unless passed one, and one at its
    proposals, and returns neither.

    The factors come from ``_cholesky_stack`` and their inverses from
    numpy's stacked inverse kernel, each bit for bit what
    ``np.linalg.cholesky`` and ``np.linalg.inv`` return, without their
    wrappers' per-call checks; the fit runs under one
    ``np.errstate(all="ignore")``, which the kernels need (see ``linalg``).
    The means are tested for finiteness as one stack; the per-group flags
    are built from the rows only when that test or the pivot rule fails,
    and are all False otherwise."""

    __slots__ = ("x", "mean", "lower", "inverse", "half_log_det", "value", "cost", "failed", "any_failed",
                 "_errors")

    def __init__(self, x: np.ndarray, res: EvalResult):
        with np.errstate(all="ignore"):
            lower, self._errors = _cholesky_stack(-res.hessian)
            inverse = _inv_kernel(lower)
            # Newton step: (-H)^{-1} g = L^{-T} L^{-1} g; a non-finite gradient
            # makes a non-finite mean, which fails below
            w = np.matmul(inverse, res.gradient[:, :, None])
            mean = x + np.matmul(inverse.transpose(0, 2, 1), w)[:, :, 0]
            any_failed = bool(self._errors) or not np.isfinite(mean).all()
        if any_failed:
            failed = ~np.isfinite(mean).all(axis=1)
            failed[list(self._errors)] = True
            mean[failed] = x[failed]
        else:
            failed = np.zeros(x.shape[0], dtype=bool)
        self.x = x
        self.mean = mean
        self.lower = lower
        self.inverse = inverse
        self.half_log_det = np.log(lower.diagonal(0, 1, 2)).sum(axis=1)
        self.value = res.value
        self.cost = res.cost
        self.failed = failed
        self.any_failed = any_failed

    def raise_failure(self) -> None:
        if self.any_failed:
            j = int(np.flatnonzero(self.failed)[0])
            if j in self._errors:
                raise HessianNotNegativeDefinite(self.x[j], self._errors[j].pivot) from self._errors[j]
            raise _NonFiniteNewtonMean(f"Newton step from {self.x[j]} is not finite")


def _stacked_tangent_step(target, x, cached, rng):
    """``tangent_step`` on a ``(J, m)`` stack of points (see there)."""
    fit = cached
    if cached is None:
        fit = _StackedProposal(x, target.evaluate(x, gradient=True, hessian=True))
    fit.raise_failure()
    z = rng.standard_normal(x.shape)
    y = fit.mean + np.matmul(fit.inverse.transpose(0, 2, 1), z[:, :, None])[:, :, 0]
    res = target.evaluate(y, gradient=True, hessian=True)
    cost = res.cost if cached is not None else fit.cost + res.cost
    fit_y = _StackedProposal(y, res)
    # log q_y(x) - log q_x(y): L_x^T (y - mean_x) is z, and the constants cancel
    r = np.matmul(fit_y.lower.transpose(0, 2, 1), (x - fit_y.mean)[:, :, None])[:, :, 0]
    log_ratio = (fit_y.value - fit.value) + (fit_y.half_log_det - fit.half_log_det)
    log_ratio -= 0.5 * (np.einsum("ij,ij->i", r, r) - np.einsum("ij,ij->i", z, z))
    if fit_y.any_failed:
        log_ratio[fit_y.failed] = -math.inf
    u = rng.random(x.shape[0])
    accepted = (log_ratio >= 0.0) | (u < np.exp(np.minimum(log_ratio, 0.0)))
    x_new = np.where(accepted[:, None], y, x)
    return x_new, StepRecord(accepted, log_ratio, cost, fit_y.failed), None


def build_proposal(target: DifferentiableTarget, x) -> _Proposal | _ScalarProposal:
    """Evaluate the target at one point ``x`` and fit its record there:
    the tangent Gaussian (``mean`` the Newton step from ``x``, precision the
    negated Hessian as its lower factor ``lower``, ``propose``, ``log_q``)
    with the point's log-density ``value`` and evaluation ``cost``.

    Raises
    ------
    HessianNotNegativeDefinite
        If the negated Hessian at ``x`` has no Cholesky factor, i.e. the
        target is not verifiably log-concave there.
    ValueError
        If the Newton step is not finite, e.g. at an infinite gradient, or
        if ``x`` is a stack of points (a target that refuses a stack raises
        its own, from ``evaluate``).
    """
    x = _as_points(x)
    res = target.evaluate(x, gradient=True, hessian=True)
    if x.ndim != 1:
        raise ValueError(f"build_proposal fits one point, got an array of shape {x.shape}")
    return _fit_proposal(x, res)


def newton_step(target: DifferentiableTarget, x) -> np.ndarray:
    """One full Newton step (the tangent proposal mean); no randomness."""
    return build_proposal(target, x).mean


def tangent_step(
    target: DifferentiableTarget,
    x_old,
    cached_old: _Proposal | _ScalarProposal | None,
    rng: np.random.Generator,
) -> tuple[np.ndarray, StepRecord, _Proposal | _ScalarProposal | None]:
    """One MH transition with tangent Gaussian proposals.

    Returns ``(x_new, record, fitted)``, where ``fitted`` is the record
    fitted at ``x_new`` (as ``build_proposal`` returns it).  Passed back as
    ``cached_old`` with ``x_old = x_new``, it saves the next step from
    evaluating its current point, halving the cost relative to
    ``cached_old=None``, which re-evaluates it (the two are mathematically
    identical).  The acceptance ratio is formed in log space and a ratio
    >= 1 short-circuits before the uniform deviate is drawn, keeping the
    random stream layout reproducible.  ``log q`` at the draw comes from
    its normals (``_Proposal.propose``): on a Gaussian target, whose exact
    log ratio is 0, the sign of its rounding decides if a uniform is drawn.

    A Hessian failure or a non-finite Newton step at the *proposed* point
    rejects the proposal and flags the record as a Hessian failure
    (log_ratio -inf); either at the current point is fatal, since the chain
    cannot continue from unverifiable ground.

    A ``(J, m)`` stack of points steps J independent targets together:
    ``target.evaluate`` takes the stack and returns values ``(J,)``,
    gradients ``(J, m)`` and Hessians ``(J, m, m)``.  Each group proposes
    from its own tangent Gaussian.  The random stream holds one
    ``standard_normal((J, m))``, then one ``random(J)``, always drawn;
    group j accepts when its log ratio is >= 0 or its uniform is below
    ``exp`` of it.  A failure at a proposed point rejects and flags that
    group alone; one at a current point is fatal, as above.  A stacked
    step takes as ``cached_old`` a ``_StackedProposal`` fitted at
    ``x_old`` but returns None for ``fitted``: its one caller, the
    hierarchical model's Gibbs cycle, moves each group's prior between
    steps, so it fits its current points every cycle from the likelihood
    it carries.
    """
    x_old = _as_points(x_old)
    if x_old.ndim == 2:
        return _stacked_tangent_step(target, x_old, cached_old, rng)
    prop_old = cached_old
    if cached_old is None:
        prop_old = _fit_proposal(x_old, target.evaluate(x_old, gradient=True, hessian=True))

    x_prop, log_q_prop = prop_old.propose(rng)

    res_prop = target.evaluate(x_prop, gradient=True, hessian=True)
    # the current point's evaluation is paid here only when it was not cached
    cost = res_prop.cost if cached_old is not None else prop_old.cost + res_prop.cost
    try:
        prop_prop = _fit_proposal(x_prop, res_prop)
    except (HessianNotNegativeDefinite, _NonFiniteNewtonMean):
        # proposal landed outside the verifiably log-concave region
        return x_old, StepRecord(False, -math.inf, cost, hessian_failure=True), prop_old

    log_q_old = prop_prop.log_q(x_old)
    log_ratio = (res_prop.value - prop_old.value) + (log_q_old - log_q_prop)

    if log_ratio >= 0.0:
        accepted = True
    else:
        accepted = rng.random() < math.exp(log_ratio)

    record = StepRecord(accepted, float(log_ratio), cost)
    if accepted:
        return x_prop, record, prop_prop
    return x_old, record, prop_old


def run_chain(
    target: DifferentiableTarget,
    x0,
    cfg: ChainConfig,
    rng: np.random.Generator,
) -> ChainTrace:
    """Run Newton burn-in, MH burn-in, then record ``cfg.n_samples`` steps.

    The Newton phase has no reject-and-stay escape: a Hessian failure
    there propagates.  The MH steps carry the record fitted at the current
    point from one step to the next.  Counters and Hessian failures are
    totalled from the start of the run, burn-in included.
    """
    fitted = None

    def step(x, newton=False):
        nonlocal fitted
        if newton:
            fit = build_proposal(target, x)
            return fit.mean, 1, fit.cost, 0
        x, rec, fitted = tangent_step(target, x, fitted, rng)
        return x, rec.accepted, rec.cost, rec.hessian_failure

    return run_sweeps(step, x0, cfg)
