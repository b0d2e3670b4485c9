"""Chain trace container and the sweep loop shared by all samplers."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

__all__ = ["ChainTrace", "run_sweeps"]


@dataclass
class ChainTrace:
    """Recorded post-burn-in samples plus bookkeeping, as ``run_sweeps`` builds it.

    ``samples`` has one row per recorded sweep.  ``n_value``/``n_gradient``/
    ``n_hessian`` are cumulative counters at the time each sample was
    recorded (burn-in cost included in the running totals, so the arrays
    are monotone).  ``meta`` echoes sampler id and config, and holds the
    run's totals.
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


def run_sweeps(
    sweep, x0, n_burnin, n_samples, n_newton, sampler, n_blocks=None, **config
) -> ChainTrace:
    """Newton sweeps, MH burn-in sweeps, then ``n_samples`` recorded ones.

    ``sweep(x, newton)`` returns ``(x_new, n_accepted, cost, failures)``;
    the first ``n_newton`` of the ``n_burnin + n_samples`` calls pass
    ``newton=True``.  Counters and Hessian failures are totalled over the
    whole run.

    On a Gibbs chain of ``n_blocks`` block updates per sweep, ``n_accepted``
    counts the accepted blocks; a recorded sweep counts as accepted when
    every block accepted, and ``meta["block_acceptance_rate"]`` is the
    accepted share of the block updates in recorded sweeps.  Otherwise
    ``n_accepted`` is 1 or 0 (a sampler that never rejects returns 1).
    ``config`` adds sampler settings to the iteration counts in ``meta``.
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    n = n_samples
    samples = np.empty((n, x.shape[0]))
    accepted = np.empty(n, dtype=bool)
    values = np.empty(n, dtype=np.int64)
    gradients = np.empty(n, dtype=np.int64)
    hessians = np.empty(n, dtype=np.int64)
    per_sweep = n_blocks or 1
    n_value = n_gradient = n_hessian = failures = block_accepts = 0
    t0 = time.perf_counter()
    for k in range(n_burnin + n):
        x, n_accepted, cost, failed = sweep(x, k < n_newton)
        n_value += cost.n_value
        n_gradient += cost.n_gradient
        n_hessian += cost.n_hessian
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

    meta = {
        "sampler": sampler,
        "config": dict(n_burnin=n_burnin, n_samples=n, n_newton=n_newton, **config),
        "hessian_failures": failures,
    }
    if n_blocks is not None:
        meta["block_acceptance_rate"] = block_accepts / (n * n_blocks) if n else float("nan")
    meta["final_cost"] = {"n_value": n_value, "n_gradient": n_gradient, "n_hessian": n_hessian}
    return ChainTrace(samples, accepted, values, gradients, hessians, time.perf_counter() - t0, meta)
