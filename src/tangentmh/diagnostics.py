"""Chain diagnostics: effective sample size, cost accounting, mixing index.

The headline efficiency figure is cost per *effective* sample: wall time
normalized by the measured cost of one plain log-density evaluation
("function evaluation equivalents"), divided by the autocorrelation-
adjusted sample count.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from .targets import DifferentiableTarget
from .trace import ChainTrace

__all__ = [
    "effective_size",
    "ess_per_dim",
    "CalibrationProfile",
    "calibrate",
    "fee",
    "ModeFindingError",
    "mixing_index",
]

# ESS may exceed the nominal sample count (antithetic chains), capped here.
ESS_CAP_FACTOR = 1.5


def _autocorrelations(x: np.ndarray) -> np.ndarray:
    """Biased-normalization autocorrelations via FFT."""
    n = x.shape[0]
    x = x - np.mean(x)
    nfft = int(2 ** np.ceil(np.log2(2 * n)))
    f = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(f * np.conjugate(f), nfft)[:n] / n
    return acov / acov[0]


def effective_size(series) -> float:
    """Effective sample size by the initial monotone positive-sequence rule.

    Autocorrelations are summed in adjacent pairs; pairs are retained while
    positive and forced non-increasing, and ESS = n / (1 + 2 * sum of
    retained correlations).  The estimate is capped at ``1.5 n`` and a
    constant series yields 0 (with a warning, since ESS is undefined for a
    degenerate chain).
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValueError("expected a 1-D series")
    n = x.shape[0]
    if n < 10:
        raise ValueError("need at least 10 points")
    if not np.all(np.isfinite(x)):
        raise ValueError("series must be finite")
    if np.var(x) == 0.0:
        warnings.warn("degenerate series: zero variance, ESS reported as 0")
        return 0.0

    rho = _autocorrelations(x)
    # tau = -1 + 2 * sum of retained pairs (rho_{2m} + rho_{2m+1}), which
    # equals 1 + 2 * sum of the retained correlations
    tau = -1.0
    prev = np.inf
    for m in range(n // 2):
        if 2 * m + 1 >= n:
            break
        pair = rho[2 * m] + rho[2 * m + 1]
        if pair <= 0.0:
            break
        pair = min(pair, prev)  # enforce monotone decrease
        tau += 2.0 * pair
        prev = pair
    tau = max(tau, 1.0 / ESS_CAP_FACTOR)
    return float(n / tau)


def ess_per_dim(samples: np.ndarray) -> np.ndarray:
    """Column-wise ESS of an (n, dim) sample matrix."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    return np.array([effective_size(samples[:, j]) for j in range(samples.shape[1])])


@dataclass(frozen=True)
class CalibrationProfile:
    """Measured cost of one value-only evaluation of a target."""

    seconds_per_value_eval: float
    n_reps: int


def calibrate(
    target: DifferentiableTarget, x_probe, n_reps: int = 200
) -> CalibrationProfile:
    """Median wall time of a value-only evaluation at jittered probe points.

    The jitter decorrelates the probe from any cached state; the median is
    robust to scheduler noise.  Repeat counts below 100 are rejected as too
    noisy to normalize against.
    """
    if n_reps < 100:
        raise ValueError("need at least 100 calibration repetitions")
    x_probe = np.atleast_1d(np.asarray(x_probe, dtype=float))
    rng = np.random.default_rng(0)
    points = x_probe + 0.01 * rng.standard_normal((n_reps, x_probe.shape[0]))
    times = np.empty(n_reps)
    for i in range(n_reps):
        t0 = time.perf_counter()
        target.evaluate(points[i])
        times[i] = time.perf_counter() - t0
    return CalibrationProfile(float(np.median(times)), n_reps)


def fee(trace: ChainTrace, calib: CalibrationProfile) -> float:
    """Function-evaluation equivalents per nominal sample.

    Wall time of the whole run (burn-in included) in units of one value
    evaluation, divided by the recorded sample count.  Raw counters stay
    available on the trace for weight-based re-analysis.
    """
    if calib is None:
        raise ValueError("calibration profile required")
    if trace.n_steps == 0:
        raise ValueError("trace has no recorded samples")
    return trace.wall_time / calib.seconds_per_value_eval / trace.n_steps


class ModeFindingError(Exception):
    """A univariate target has no mode, or is not concave at its mode."""


def mixing_index(target) -> float:
    """Third-derivative mixing index at the mode of a univariate target.

    The index is ``|f'''(m)| * (-f''(m))^(-3/2)`` at the target's own mode
    ``m = target.mode()``, from one evaluation with the Hessian.  Small
    values predict good mixing for the tangent-proposal kernel; Gaussians
    score exactly 0.

    Raises
    ------
    ModeFindingError
        If the target has no mode (``mode()`` raises ValueError, as for
        all-zero Poisson counts) or its curvature there is not negative.
    """
    if target.dim != 1:
        raise ValueError("mixing index is defined for univariate targets")
    try:
        mode = target.mode()
    except ValueError as err:
        raise ModeFindingError(str(err)) from err
    m = np.atleast_1d(np.asarray(mode, dtype=float))
    curv = target.evaluate(m, hessian=True).hessian[0, 0]
    if not curv < 0:
        raise ModeFindingError(f"curvature {curv} at the mode {m[0]} is not negative")
    return float(abs(target.third_derivative(m)) * (-curv) ** -1.5)
