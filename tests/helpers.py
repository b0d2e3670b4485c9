"""Shared independent oracles for the test suite."""

import csv
import hashlib

import numpy as np

from tangentmh.cli import ConfigError


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


def fd_gradient(f, x, scale=1e-5):
    """Central-difference gradient of a scalar function, the step of
    coordinate i ``scale * (1 + |x_i|)``."""
    x = np.asarray(x, dtype=float)
    h = scale * (1.0 + np.abs(x))
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h[i]
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h[i])
    return g


def fd_hessian_of_gradient(grad, x, scale=1e-6):
    """Hessian as central differences of a gradient function (symmetrized),
    the step of coordinate i ``scale * (1 + |x_i|)``."""
    x = np.asarray(x, dtype=float)
    h = scale * (1.0 + np.abs(x))
    H = np.empty((x.size, x.size))
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h[i]
        H[i] = (grad(x + e) - grad(x - e)) / (2.0 * h[i])
    return 0.5 * (H + H.T)


def read_csv_checked(path, schema):
    """The rows of a CLI output CSV after its ``#`` lines, header first;
    a first line naming another schema raises ``ConfigError``."""
    with open(path) as fh:
        first = fh.readline().strip()
        if first != f"# schema: {schema}":
            raise ConfigError(f"{path}: schema mismatch: {first!r} != {schema!r}")
        for line in fh:
            if not line.startswith("#"):
                rows = [next(csv.reader([line]))]
                rows.extend(csv.reader(fh))
                return rows
        return []


def logistic_data(kind):
    """A 100-row logistic design and its binary responses from
    ``default_rng(5)``: ``"full-rank"`` (x1, x2, responses drawn from the
    model), ``"rank-deficient"`` (a third covariate x1 + x2),
    ``"separated"`` (y = [x1 > 0], separated along (1, 0)) or
    ``"quasi-separated"`` (that plus two rows on x1 = 0 with both labels)."""
    rng = np.random.default_rng(5)
    X = rng.standard_normal((100, 2))
    y = (rng.random(100) < 1.0 / (1.0 + np.exp(X[:, 1] - X[:, 0]))).astype(int)
    if kind == "rank-deficient":
        X = np.column_stack([X, X[:, 0] + X[:, 1]])
    elif kind != "full-rank":
        y = (X[:, 0] > 0).astype(int)
        if kind == "quasi-separated":
            X, y = np.vstack([X, [[0.0, 1.0], [0.0, 1.0]]]), np.append(y, [1, 0])
    return X, y


def logistic_csv(X, y):
    """The ``chain`` verb's headered CSV text (columns y, x1..xK) of a
    design and its responses."""
    header = ",".join(["y"] + [f"x{k + 1}" for k in range(X.shape[1])])
    return header + "\n" + "".join(
        f"{int(y[i])}," + ",".join(repr(float(v)) for v in X[i]) + "\n" for i in range(len(y))
    )
