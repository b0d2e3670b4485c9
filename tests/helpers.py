"""Shared independent oracles for the test suite."""

import hashlib

import numpy as np


def poisson_quadrature(counts, lo=-10.0, hi=5.0, n=60001):
    """Grid, normalized pdf and CDF of the Poisson log-rate density by
    trapezoidal quadrature (independent of the sampler code paths)."""
    counts = np.atleast_1d(np.asarray(counts, dtype=float))
    grid = np.linspace(lo, hi, n)
    logp = float(np.sum(counts)) * grid - counts.size * np.exp(grid)
    pdf = np.exp(logp - logp.max())
    z = np.trapezoid(pdf, grid)
    pdf /= z
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * np.diff(grid))])
    cdf /= cdf[-1]
    return grid, pdf, cdf


def ks_statistic(samples, grid, cdf):
    """Kolmogorov-Smirnov distance between samples and a gridded CDF."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    F = np.interp(x, grid, cdf)
    above = np.max(np.arange(1, n + 1) / n - F)
    below = np.max(F - np.arange(0, n) / n)
    return max(above, below)


def gaussian_cdf(x):
    from math import erf

    x = np.asarray(x, dtype=float)
    return 0.5 * (1.0 + np.vectorize(erf)(x / np.sqrt(2.0)))


def random_spd(dim, rng, jitter=0.5):
    a = rng.standard_normal((dim, dim + 2))
    return a @ a.T / (dim + 2) + jitter * np.eye(dim)


def ar1_series(n, rho, rng):
    z = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = z[0]
    c = np.sqrt(1.0 - rho * rho)
    for i in range(1, n):
        x[i] = rho * x[i - 1] + c * z[i]
    return x


def trace_sha256(trace):
    """SHA-256 of a chain trace's samples, acceptance flags and cumulative
    counters, in that order."""
    h = hashlib.sha256()
    for a in (trace.samples, trace.accepted, trace.n_value, trace.n_gradient, trace.n_hessian):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def hb_trace_sha256(trace):
    """SHA-256 of a hierarchical chain's beta, gamma and tau draws and its
    final counters, in that order."""
    h = hashlib.sha256()
    for a in (trace.beta, trace.gamma, trace.tau):
        h.update(np.ascontiguousarray(a).tobytes())
    cost = trace.meta["final_cost"]
    h.update(np.array([cost["n_value"], cost["n_gradient"], cost["n_hessian"]], dtype=np.int64).tobytes())
    return h.hexdigest()
