"""Univariate slice sampler with stepout, plus a coordinate-wise Gibbs wrapper.

This is the tuning-light baseline the efficiency benchmark compares
against.  A sweep updates one coordinate after another, each along its
line through the current point: ``DifferentiableTarget.coordinate_lines``
gives the lines, the log-density at the sweep's start point and the
counters of one value-only evaluation.  ``LogisticTarget``,
``PoissonLogRateTarget`` (the line ``v -> total * v - n exp(v)``), a
diagonal ``GaussianPriorTarget`` and ``AdditiveTarget`` have their own
lines; a dense ``GaussianPriorTarget``, ``LinearProjectionTarget`` and
the default ``restrict``'s conditionals evaluate the target at the
spliced point.  Every slice baseline, hb's per-group sweeps included,
runs ``slice_sweep``.  Each update (``slice_step_1d``) is handed the value at
its start point, which the previous update ended on, so only a sweep's
start point is evaluated outside an update.  An update returns how many
line evaluations it made; the sweep multiplies the counters once.
"""

from __future__ import annotations

import math
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
    ``(x_new, logf(x_new), n_calls)`` with ``n_calls`` the number of
    ``logf`` evaluations it made.  The expansion budget ``cfg.max_stepout``
    is split randomly between the two sides, which keeps the update
    reversible even when the budget is exhausted.
    """
    x = float(x)
    # math's scalar functions, not numpy's ufuncs: the same results on a
    # float at a fraction of the call cost
    if not math.isfinite(f0):
        raise SliceError(f"log-density not finite at current point {x}")
    log_y = f0 - rng.standard_exponential()

    w, m = cfg.width, cfg.max_stepout
    left = x - w * rng.random()
    right = left + w
    j = math.floor(m * rng.random())
    k = (m - 1) - j
    calls = 0
    while j > 0:
        calls += 1
        if logf(left) <= log_y:
            break
        left -= w
        j -= 1
    while k > 0:
        calls += 1
        if logf(right) <= log_y:
            break
        right += w
        k -= 1

    for shrinks in range(1, MAX_SHRINKS + 1):
        x1 = left + rng.random() * (right - left)
        f1 = float(logf(x1))
        if f1 > log_y:
            return x1, f1, calls + shrinks
        if x1 < x:
            left = x1
        elif x1 > x:
            right = x1
        else:
            # the slice always contains the current point
            return x, f0, calls + shrinks
    raise SliceError(f"no acceptable point after {MAX_SHRINKS} shrinks at {x}")


def slice_sweep(target: DifferentiableTarget, x, cfg: SliceConfig, rng: np.random.Generator):
    """One coordinate-wise sweep along the target's ``coordinate_lines``:
    ``slice_step_1d`` on each coordinate in index order, each update
    starting from the value at which the previous one ended.  Returns
    ``run_sweeps``' sweep outcome ``(x_new, 1, cost, 0)``: a slice update
    never rejects and fits no Hessian.  The cost is the start point's
    evaluation and each line evaluation, each counted as one value-only
    evaluation of the target, so composite targets report the sum of their
    parts."""
    x = np.array(x, dtype=float)
    line, f, cost = target.coordinate_lines(x)
    n = 1
    for d in range(x.shape[0]):
        x[d], f, calls = slice_step_1d(line(d), x[d], f, cfg, rng)
        n += calls
    return x, 1, EvalCost(n * cost.n_value, n * cost.n_gradient, n * cost.n_hessian), 0


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
