"""Univariate slice sampler with stepout, plus a coordinate-wise Gibbs wrapper.

This is the tuning-light baseline the efficiency benchmark compares
against.  A coordinate update evaluates the full target log-density (value
only), one value-unit per evaluation in the counters.  It is handed the
value at its start point, which the sweep's previous update ended on, so
only a sweep's start point is evaluated outside an update.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .targets import DifferentiableTarget, EvalCost
from .trace import ChainConfig, ChainTrace, _is_integer, run_sweeps

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
        if isinstance(self.width, (bool, np.bool_)) or not (np.isfinite(self.width) and self.width > 0):
            raise ValueError("width must be finite and positive")
        # a fractional budget would split unevenly between the two sides
        # and break the reversibility of stepout
        if not (_is_integer(self.max_stepout) and self.max_stepout >= 1):
            raise ValueError("max_stepout must be an integer >= 1")


def slice_step_1d(logf, x: float, f0: float, cfg: SliceConfig, rng: np.random.Generator):
    """One stepout-then-shrink slice update leaving exp(logf) invariant.

    ``f0`` is ``logf(x)``, which the caller already holds.  Returns
    ``(x_new, logf(x_new))``.  The expansion budget ``cfg.max_stepout`` is
    split randomly between the two sides, which keeps the update reversible
    even when the budget is exhausted.
    """
    x = float(x)
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
            break
        left -= w
        j -= 1
    while k > 0:
        if logf(right) <= log_y:
            break
        right += w
        k -= 1

    for _ in range(MAX_SHRINKS):
        x1 = left + rng.random() * (right - left)
        f1 = float(logf(x1))
        if f1 > log_y:
            return x1, f1
        if x1 < x:
            left = x1
        elif x1 > x:
            right = x1
        else:
            # the slice always contains the current point
            return x, f0
    raise SliceError(f"no acceptable point after {MAX_SHRINKS} shrinks at {x}")


def _sweep(line, x: np.ndarray, cfg: SliceConfig, rng: np.random.Generator) -> EvalCost:
    """Slice-update ``x`` in place, one coordinate after another in index
    order, and return the summed cost.  ``line(d)``, called once coordinate
    d - 1 has moved, is coordinate d's log-density ``v -> (value, EvalCost)``
    with the others held at ``x``.  The start point is evaluated once, and
    each update hands the value at its end point to the next, which starts
    there."""
    n_value = n_gradient = n_hessian = 0
    logf = line(0)

    def counted(v):
        nonlocal n_value, n_gradient, n_hessian
        value, cost = logf(v)
        n_value += cost.n_value
        n_gradient += cost.n_gradient
        n_hessian += cost.n_hessian
        return value

    f = counted(x[0])
    for d in range(x.shape[0]):
        if d:
            logf = line(d)
        x[d], f = slice_step_1d(counted, x[d], f, cfg, rng)
    return EvalCost(n_value, n_gradient, n_hessian)


def slice_sweep(target: DifferentiableTarget, x, cfg: SliceConfig, rng: np.random.Generator):
    """One coordinate-wise sweep (``_sweep``) over the target, evaluated
    value-only; returns ``run_sweeps``' sweep outcome ``(x_new, 1, cost,
    0)``: a slice update never rejects and fits no Hessian.  The cost is
    accumulated from the target's own counters, so composite targets report
    the sum of their parts."""
    x = np.array(x, dtype=float)

    def line(d):
        def logf(v):
            x[d] = v
            res = target.evaluate(x)
            return res.value, res.cost

        return logf

    return x, 1, _sweep(line, x, cfg, rng), 0


def slice_gibbs_chain(
    target: DifferentiableTarget,
    x0,
    n_burnin: int,
    n_samples: int,
    cfg: SliceConfig,
    rng: np.random.Generator,
) -> ChainTrace:
    """Coordinate-wise slice sampling chain; one recorded row per sweep."""
    sweep = partial(slice_sweep, target, cfg=cfg, rng=rng)
    return run_sweeps(sweep, x0, ChainConfig(n_burnin, n_samples, 0))
