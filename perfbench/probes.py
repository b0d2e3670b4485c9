"""Per-call timings of single layers at the workloads' fixed shapes.

Each probe calls one public function in a loop and reports the median
per-call time over short batches, in microseconds.  Inputs are drawn from
the benchmark's ``--seed``; shapes are fixed: dim 1 (poisson-1d), N=1000
with blocks of 5 (logistic-blocks), and the hb group (N=400, K=10).
"""

from __future__ import annotations

import time

import numpy as np

from tangentmh import (
    MvnDistribution,
    SymMatrix,
    cholesky,
    mvn_logpdf,
    mvn_sample,
    poisson_lograte_target,
    simulate_hb,
    tangent_step,
)
from tangentmh.benchmark import simulate_logistic
from tangentmh.hb import draw_precisions, draw_upper_coeffs
from tangentmh.targets import AdditiveTarget, GaussianPriorTarget, LogisticTarget


def per_call_us(fn, budget_s: float = 0.2, n_batches: int = 15) -> float:
    """Median per-call time in microseconds over ``n_batches`` batches
    sized to share ``budget_s`` seconds."""
    fn()  # warm caches and lazy set-up
    t0 = time.perf_counter()
    fn()
    once = max(time.perf_counter() - t0, 1e-7)
    size = max(1, int(budget_s / n_batches / once))
    per_call = []
    for _ in range(n_batches):
        t0 = time.perf_counter()
        for _ in range(size):
            fn()
        per_call.append((time.perf_counter() - t0) / size)
    return float(np.median(per_call) * 1e6)


def _spd(rng, dim):
    a = rng.standard_normal((dim, dim + 2))
    return SymMatrix(a @ a.T / (dim + 2) + 0.5 * np.eye(dim))


def probe_metrics(rng: np.random.Generator) -> dict:
    out = {}
    p1 = SymMatrix([[2.0 + rng.random()]])
    p5 = _spd(rng, 5)
    out["linalg.cholesky_us.d1"] = per_call_us(lambda: cholesky(p1))
    out["linalg.cholesky_us.d5"] = per_call_us(lambda: cholesky(p5))
    dist = MvnDistribution(rng.standard_normal(5), cholesky(p5))
    x5 = rng.standard_normal(5)
    draw_rng = np.random.default_rng(rng.integers(2**63))
    out["linalg.mvn_sample_us.d5"] = per_call_us(lambda: mvn_sample(dist, draw_rng))
    out["linalg.mvn_logpdf_us.d5"] = per_call_us(lambda: mvn_logpdf(dist, x5))

    poisson = poisson_lograte_target([2])
    u = np.array([np.log(2.0) + 0.1 * rng.standard_normal()])
    out["targets.poisson_full_us"] = per_call_us(lambda: poisson.evaluate(u, gradient=True, hessian=True))
    state = list(tangent_step(poisson, u, None, draw_rng)[::2])  # [x, cache]

    def cached_step():
        state[0], _, state[1] = tangent_step(poisson, state[0], state[1], draw_rng)

    out["tangent.step_cached_us.d1"] = per_call_us(cached_step)

    X, y, beta = simulate_logistic(1000, 10, rng)
    logistic = LogisticTarget(X, y)
    block = np.arange(5)
    out["targets.logistic_value_us"] = per_call_us(lambda: logistic.evaluate(beta))
    out["targets.logistic_full_us"] = per_call_us(lambda: logistic.evaluate(beta, gradient=True, hessian=True))
    out["targets.logistic_restrict_us"] = per_call_us(lambda: logistic.restrict(block, beta))

    spec, truth = simulate_hb(5, 10, 2, rng, group_size=400)
    tau = rng.gamma(4.0, 1.0, size=10)
    prior = GaussianPriorTarget(truth["beta"][0] + 0.1, SymMatrix(np.diag(tau)))
    b0 = truth["beta"][0]
    out["targets.prior_restrict_us"] = per_call_us(lambda: prior.restrict(block, b0))
    group = AdditiveTarget([LogisticTarget(spec.designs[0], spec.responses[0]), prior])
    out["targets.hb_group_restrict_us"] = per_call_us(lambda: group.restrict(block, b0))
    out["hb.draw_upper_coeffs_us"] = per_call_us(lambda: draw_upper_coeffs(spec, truth["beta"], tau, draw_rng))
    out["hb.draw_precisions_us"] = per_call_us(lambda: draw_precisions(spec, truth["beta"], truth["gamma"], draw_rng))
    return out
