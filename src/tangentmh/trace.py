"""Chain trace container and the sweep loop shared by all samplers."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

__all__ = ["ChainConfig", "ChainTrace", "run_sweeps"]


def _is_integer(v) -> bool:
    """Whether ``v`` is a Python or numpy integer; booleans are not."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


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
        counts = (self.n_burnin, self.n_samples, 0 if self.n_newton is None else self.n_newton)
        if not all(_is_integer(c) for c in counts):
            raise ValueError("iteration counts must be integers")
        if self.n_burnin < 0 or self.n_samples < 0:
            raise ValueError("iteration counts must be >= 0")
        if self.n_newton is not None and not 0 <= self.n_newton <= self.n_burnin:
            raise ValueError("n_newton must lie within the burn-in budget")

    @property
    def newton_iterations(self) -> int:
        if self.n_newton is None:
            return self.n_burnin // 2
        return self.n_newton


@dataclass
class ChainTrace:
    """Recorded post-burn-in samples plus bookkeeping, as ``run_sweeps`` builds it.

    ``samples`` has one row per recorded sweep.  ``n_value``/``n_gradient``/
    ``n_hessian`` are cumulative counters at the time each sample was
    recorded (burn-in cost included in the running totals, so the arrays
    are monotone).  ``meta`` holds the run's totals: ``hessian_failures``,
    ``final_cost`` and, on Gibbs chains, ``block_acceptance_rate``.
    """

    samples: np.ndarray
    accepted: np.ndarray
    n_value: np.ndarray
    n_gradient: np.ndarray
    n_hessian: np.ndarray
    wall_time: float
    meta: dict

    @property
    def n_steps(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    def acceptance_rate(self) -> float:
        if self.n_steps == 0:
            return float("nan")
        return float(np.mean(self.accepted))

    def total_cost(self) -> dict:
        """Final cumulative evaluation counters, burn-in included."""
        return dict(self.meta["final_cost"])


def run_sweeps(sweep, x0, cfg: ChainConfig, n_blocks=None) -> ChainTrace:
    """Newton sweeps, MH burn-in sweeps, then ``cfg.n_samples`` recorded ones.

    ``sweep(x)`` returns ``(x_new, n_accepted, cost, hessian_failures)``,
    the outcome that ``tangent.run_chain``'s step and ``slicer.slice_sweep``
    return, and ``gibbs.block_sweep`` returns ahead of its carried
    evaluation.  The first
    ``cfg.newton_iterations`` of the ``cfg.n_burnin + cfg.n_samples`` calls
    are ``sweep(x, newton=True)``; a sampler without a Newton mode is run
    with ``cfg.newton_iterations == 0``.  Counters and Hessian failures are
    totalled over the whole run.

    On a Gibbs chain of ``n_blocks`` block updates per sweep, ``n_accepted``
    counts the accepted blocks; a recorded sweep counts as accepted when
    every block accepted, and ``meta["block_acceptance_rate"]`` is the
    accepted share of the block updates in recorded sweeps.  Otherwise
    ``n_accepted`` is 1 or 0 (a sampler that never rejects returns 1).
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    n_burnin, n, n_newton = cfg.n_burnin, cfg.n_samples, cfg.newton_iterations
    samples = np.empty((n, x.shape[0]))
    accepted = np.empty(n, dtype=bool)
    values = np.empty(n, dtype=np.int64)
    gradients = np.empty(n, dtype=np.int64)
    hessians = np.empty(n, dtype=np.int64)
    per_sweep = n_blocks or 1
    n_value = n_gradient = n_hessian = failures = block_accepts = 0
    t0 = time.perf_counter()
    for k in range(n_burnin + n):
        x, n_accepted, cost, failed = sweep(x, newton=True) if k < n_newton else sweep(x)
        dv, dg, dh = cost
        n_value, n_gradient, n_hessian = n_value + dv, n_gradient + dg, n_hessian + dh
        failures += failed
        i = k - n_burnin
        if i < 0:
            continue
        samples[i] = x
        accepted[i] = n_accepted == per_sweep
        block_accepts += n_accepted
        values[i] = n_value
        gradients[i] = n_gradient
        hessians[i] = n_hessian

    meta = {"hessian_failures": failures}
    if n_blocks is not None:
        meta["block_acceptance_rate"] = block_accepts / (n * n_blocks) if n else float("nan")
    meta["final_cost"] = {"n_value": n_value, "n_gradient": n_gradient, "n_hessian": n_hessian}
    return ChainTrace(samples, accepted, values, gradients, hessians, time.perf_counter() - t0, meta)
