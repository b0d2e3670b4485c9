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
from dataclasses import dataclass

import numpy as np

from .linalg import MvnDistribution, NotPositiveDefinite, cholesky, mvn_logpdf, mvn_sample
from .targets import DifferentiableTarget, EvalCost, EvalResult
from .trace import ChainTrace, run_sweeps

__all__ = [
    "HessianNotNegativeDefinite",
    "ChainConfig",
    "StepRecord",
    "StepCache",
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
            f"Hessian not negative definite at {self.point} (pivot {pivot})"
        )


class _NonFiniteNewtonMean(ValueError):
    """The Newton step from a point is not finite (e.g. an infinite gradient)."""


@dataclass(frozen=True)
class ChainConfig:
    """Iteration plan for one chain.

    ``n_newton`` deterministic Newton iterations open the burn-in (default:
    half of it), the remaining burn-in steps are discarded MH transitions,
    then ``n_samples`` recorded ones.
    """

    n_burnin: int = 0
    n_samples: int = 0
    n_newton: int | None = None

    def __post_init__(self):
        if self.n_burnin < 0 or self.n_samples < 0:
            raise ValueError("iteration counts must be >= 0")
        if self.n_newton is not None and not 0 <= self.n_newton <= self.n_burnin:
            raise ValueError("n_newton must lie within the burn-in budget")

    @property
    def newton_iterations(self) -> int:
        if self.n_newton is None:
            return self.n_burnin // 2
        return self.n_newton


@dataclass(frozen=True)
class StepRecord:
    """One MH transition: what was proposed and how it was decided."""

    proposed: np.ndarray
    accepted: bool
    log_ratio: float
    cost: EvalCost
    hessian_failure: bool = False


@dataclass(frozen=True)
class StepCache:
    """Log-density and proposal at the chain's current point, carried
    between steps so each transition evaluates only the proposed point."""

    value: float
    proposal: MvnDistribution


def _fit_proposal(x: np.ndarray, res: EvalResult) -> MvnDistribution:
    try:
        factor = cholesky(-res.hessian)
    except NotPositiveDefinite as err:
        raise HessianNotNegativeDefinite(x, err.pivot) from err
    # Newton step: mean = x + (-H)^{-1} g, solved against the factor
    mean = x + factor.solve(res.gradient)
    if not np.isfinite(mean).all():
        raise _NonFiniteNewtonMean(f"Newton step from {x} is not finite")
    return MvnDistribution(mean, factor)


def build_proposal(target: DifferentiableTarget, x) -> MvnDistribution:
    """Fit the tangent Gaussian at ``x``: mean the Newton step from ``x``,
    precision the negated Hessian.

    Raises
    ------
    HessianNotNegativeDefinite
        If the negated Hessian at ``x`` has no Cholesky factor, i.e. the
        target is not verifiably log-concave there.
    ValueError
        If the Newton step is not finite, e.g. at an infinite gradient.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    res = target.evaluate(x, gradient=True, hessian=True)
    return _fit_proposal(x, res)


def newton_step(target: DifferentiableTarget, x) -> np.ndarray:
    """One full Newton step (the tangent proposal mean); no randomness."""
    return build_proposal(target, x).mean


def tangent_step(
    target: DifferentiableTarget,
    x_old,
    cached_old: StepCache | None,
    rng: np.random.Generator,
) -> tuple[np.ndarray, StepRecord, StepCache]:
    """One MH transition with tangent Gaussian proposals.

    When ``cached_old`` carries the evaluation at ``x_old`` from the
    previous step, only the proposed point is evaluated, halving the cost
    relative to re-evaluating the current point every iteration (the two
    are mathematically identical).  The acceptance ratio is formed in log
    space and a ratio >= 1 short-circuits before the uniform deviate is
    drawn, keeping the random stream layout reproducible.

    A Hessian failure or a non-finite Newton step at the *proposed* point
    rejects the proposal and flags the record as a Hessian failure
    (log_ratio -inf); either at the current point is fatal, since the chain
    cannot continue from unverifiable ground.
    """
    x_old = np.atleast_1d(np.asarray(x_old, dtype=float))
    cost = EvalCost()
    if cached_old is None:
        res_old = target.evaluate(x_old, gradient=True, hessian=True)
        cost = cost + res_old.cost
        f_old = res_old.value
        prop_old = _fit_proposal(x_old, res_old)
    else:
        f_old = cached_old.value
        prop_old = cached_old.proposal

    x_prop = mvn_sample(prop_old, rng)
    log_q_prop = mvn_logpdf(prop_old, x_prop)

    try:
        res_prop = target.evaluate(x_prop, gradient=True, hessian=True)
        cost = cost + res_prop.cost
        prop_prop = _fit_proposal(x_prop, res_prop)
    except (HessianNotNegativeDefinite, _NonFiniteNewtonMean):
        # proposal landed outside the verifiably log-concave region
        record = StepRecord(x_prop, False, -math.inf, cost, hessian_failure=True)
        return x_old, record, StepCache(f_old, prop_old)

    log_q_old = mvn_logpdf(prop_prop, x_old)
    log_ratio = (res_prop.value - f_old) + (log_q_old - log_q_prop)

    if log_ratio >= 0.0:
        accepted = True
    else:
        accepted = rng.random() < math.exp(log_ratio)

    record = StepRecord(x_prop, accepted, float(log_ratio), cost)
    if accepted:
        return x_prop, record, StepCache(res_prop.value, prop_prop)
    return x_old, record, StepCache(f_old, prop_old)


def run_chain(
    target: DifferentiableTarget,
    x0,
    cfg: ChainConfig,
    rng: np.random.Generator,
) -> ChainTrace:
    """Run Newton burn-in, MH burn-in, then record ``cfg.n_samples`` steps.

    The Newton phase has no reject-and-stay escape: a Hessian failure
    there propagates.  The MH steps carry the current point's evaluation
    in a ``StepCache``.  Counters and Hessian failures are totalled from
    the start of the run, burn-in included.
    """
    cache: StepCache | None = None

    def step(x, newton):
        nonlocal cache
        if newton:
            res = target.evaluate(x, gradient=True, hessian=True)
            return _fit_proposal(x, res).mean, 1, res.cost, 0
        x, rec, cache = tangent_step(target, x, cache, rng)
        return x, rec.accepted, rec.cost, rec.hessian_failure

    return run_sweeps(step, x0, cfg.n_burnin, cfg.n_samples, cfg.newton_iterations, "tangent-mh")
