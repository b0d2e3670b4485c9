"""Univariate slice sampler with stepout, plus a coordinate-wise Gibbs wrapper.

This is the tuning-light baseline the efficiency benchmark compares
against.  Each coordinate update evaluates the full target log-density
(value only), so one call costs exactly one value-unit in the evaluation
counters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .targets import DifferentiableTarget, EvalCost
from .trace import ChainTrace, run_sweeps

__all__ = ["SliceConfig", "SliceError", "slice_step_1d", "slice_sweep", "slice_gibbs_chain"]

MAX_SHRINKS = 1000


class SliceError(Exception):
    """Shrinkage failed to find an acceptable point; the target log-density
    is likely broken (non-finite or not an honest function)."""


@dataclass(frozen=True)
class SliceConfig:
    """Stepout parameters: initial bracket width and the expansion budget."""

    width: float = 1.0
    max_stepout: int = 10

    def __post_init__(self):
        if not (np.isfinite(self.width) and self.width > 0):
            raise ValueError("width must be finite and positive")
        if self.max_stepout < 1:
            raise ValueError("max_stepout must be >= 1")


def slice_step_1d(logf, x: float, cfg: SliceConfig, rng: np.random.Generator):
    """One stepout-then-shrink slice update leaving exp(logf) invariant.

    Returns ``(x_new, n_evals)`` where ``n_evals`` counts calls to
    ``logf`` (including the initial one at ``x``).  The expansion budget
    ``cfg.max_stepout`` is split randomly between the two sides, which
    keeps the update reversible even when the budget is exhausted.
    """
    x = float(x)
    f0 = float(logf(x))
    n_evals = 1
    if not np.isfinite(f0):
        raise SliceError(f"log-density not finite at current point {x}")
    log_y = f0 - rng.standard_exponential()

    w = cfg.width
    u = rng.random()
    left = x - w * u
    right = left + w
    j = int(np.floor(cfg.max_stepout * rng.random()))
    k = (cfg.max_stepout - 1) - j
    while j > 0:
        if logf(left) <= log_y:
            n_evals += 1
            break
        n_evals += 1
        left -= w
        j -= 1
    while k > 0:
        if logf(right) <= log_y:
            n_evals += 1
            break
        n_evals += 1
        right += w
        k -= 1

    for _ in range(MAX_SHRINKS):
        x1 = left + rng.random() * (right - left)
        f1 = float(logf(x1))
        n_evals += 1
        if f1 > log_y:
            return x1, n_evals
        if x1 < x:
            left = x1
        elif x1 > x:
            right = x1
        else:
            # the slice always contains the current point
            return x, n_evals
    raise SliceError(f"no acceptable point after {MAX_SHRINKS} shrinks at {x}")


def slice_sweep(
    target: DifferentiableTarget,
    x,
    cfg: SliceConfig,
    rng: np.random.Generator,
):
    """One coordinate-wise sweep over the target; returns (x_new, EvalCost).

    Coordinates are visited in index order; each update changes only its
    own coordinate and evaluates the target value-only.  The cost is
    accumulated from the target's own counters, so composite targets
    report the sum of their parts.
    """
    x = np.array(x, dtype=float)
    cost = EvalCost()
    work = x.copy()
    for d in range(target.dim):
        def logf(v, _d=d):
            nonlocal cost
            work[_d] = v
            res = target.evaluate(work)
            cost = cost + res.cost
            return res.value

        x_new, _ = slice_step_1d(logf, x[d], cfg, rng)
        x[d] = x_new
        work[d] = x_new
    return x, cost


def slice_gibbs_chain(
    target: DifferentiableTarget,
    x0,
    n_burnin: int,
    n_samples: int,
    cfg: SliceConfig,
    rng: np.random.Generator,
) -> ChainTrace:
    """Coordinate-wise slice sampling chain; one recorded row per sweep."""

    def sweep(x, newton):
        x, cost = slice_sweep(target, x, cfg, rng)
        return x, 1, cost, 0

    return run_sweeps(
        sweep, x0, n_burnin, n_samples, 0, "slice", width=cfg.width, max_stepout=cfg.max_stepout
    )
