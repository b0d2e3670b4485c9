"""Sampler efficiency benchmark on simulated logistic regression.

Mirrors the study design of the efficiency comparison: simulated binary
data (1000 observations, 10 covariates by default), matched nominal sample
counts, the tangent-proposal kernel stepping all coefficients as one block
(``run_chain``) against a tuned univariate slice baseline, averaged over
replicate runs.  ``run_benchmark``'s ``block_size`` runs the tangent
chains through the block layer instead (``run_block_chain`` on contiguous
blocks); only perfbench's blocks-of-5 workload passes it.

Two cost views are produced.  Counter-based figures (evaluations per
nominal/effective sample) are deterministic given the seed and are what
the CLI persists; wall-clock figures normalized by a measured value-eval
cost capture overhead honestly but vary by machine, so they are reported
to the console and used in the acceptance checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diagnostics import CalibrationProfile, calibrate, ess_per_dim, fee
from .gibbs import BlockPartition, run_block_chain
from .slicer import SliceConfig, slice_gibbs_chain
from .tangent import ChainConfig, run_chain
from .targets import LogisticTarget
from .trace import ChainTrace

__all__ = [
    "simulate_logistic",
    "RunStats",
    "tune_slice_width",
    "BenchmarkResult",
    "run_benchmark",
]

DEFAULT_WIDTHS = (0.05, 0.1, 0.25, 0.5, 1.0)
# pilot chain length for the slice-width tuning, in sweeps
PILOT_BURNIN = 50
PILOT_SAMPLES = 200


def simulate_logistic(n_obs: int, n_coeffs: int, rng: np.random.Generator):
    """Simulated design, responses and true coefficients.

    Coefficients are scaled so the linear predictor has roughly unit
    variance regardless of dimension.
    """
    X = rng.standard_normal((n_obs, n_coeffs))
    beta = rng.standard_normal(n_coeffs) / np.sqrt(n_coeffs)
    p = 1.0 / (1.0 + np.exp(-(X @ beta)))
    y = (rng.random(n_obs) < p).astype(float)
    return X, y, beta


@dataclass(frozen=True)
class RunStats:
    """Per-run cost and mixing figures for one sampler."""

    ess_mean: float
    acceptance_rate: float
    n_value: int
    n_gradient: int
    n_hessian: int
    evals_per_nominal: float
    effective_rate: float
    evals_per_effective: float
    wall_fee_per_effective: float


class _NoEffectiveSamples(ValueError):
    """A chain's draws have no variance, so it has no cost per effective sample."""


def _stats(trace: ChainTrace, calib: CalibrationProfile, name: str) -> RunStats:
    """Cost and mixing figures of the ``name`` chain; the effective rate
    ESS / n may exceed 1, and an ESS of 0 raises ``_NoEffectiveSamples``."""
    n = trace.n_steps
    ess_mean = float(np.mean(ess_per_dim(trace.samples)))
    if ess_mean == 0.0:
        raise _NoEffectiveSamples(f"the {name} chain's draws have no variance: effective sample size 0")
    rate = ess_mean / n
    cost = trace.total_cost()
    total_evals = cost["n_value"] + cost["n_gradient"] + cost["n_hessian"]
    return RunStats(
        ess_mean=ess_mean,
        acceptance_rate=float(trace.meta.get("block_acceptance_rate", trace.acceptance_rate())),
        n_value=cost["n_value"],
        n_gradient=cost["n_gradient"],
        n_hessian=cost["n_hessian"],
        evals_per_nominal=total_evals / n,
        effective_rate=rate,
        evals_per_effective=total_evals / n / rate,
        wall_fee_per_effective=fee(trace, calib) / rate,
    )


def tune_slice_width(
    target: LogisticTarget,
    x0,
    rng: np.random.Generator,
    widths=DEFAULT_WIDTHS,
):
    """Pick the width minimizing evaluations per effective sample.

    The pilot criterion is counter-based (deterministic given the seed);
    returns (best_width, sweep) where sweep maps width to the pilot
    figures.
    """
    sweep = []
    for w in widths:
        trace = slice_gibbs_chain(
            target, x0, PILOT_BURNIN, PILOT_SAMPLES, SliceConfig(width=w), rng
        )
        ess = float(np.mean(ess_per_dim(trace.samples)))
        evals = trace.total_cost()["n_value"]
        sweep.append(
            {
                "width": w,
                "evals_per_sweep": evals / (PILOT_BURNIN + PILOT_SAMPLES),
                "ess_mean": ess,
                "evals_per_effective": evals / max(ess, 1e-12),
            }
        )
    best = min(sweep, key=lambda row: row["evals_per_effective"])
    return best["width"], sweep


@dataclass
class BenchmarkResult:
    """Replicate-run figures for both samplers plus the tuning sweep."""

    tangent_runs: list = field(default_factory=list)
    slice_runs: list = field(default_factory=list)
    tuning: list = field(default_factory=list)
    slice_width: float = float("nan")

    @staticmethod
    def _mean(runs, attr):
        return float(np.mean([getattr(r, attr) for r in runs]))

    def table(self) -> dict:
        """The three comparison rows, averaged over runs (counter-based)."""
        rows = {}
        for name, runs in (("tangent-mh", self.tangent_runs), ("slice", self.slice_runs)):
            rows[name] = {
                "evals_per_nominal": self._mean(runs, "evals_per_nominal"),
                "effective_rate": self._mean(runs, "effective_rate"),
                "evals_per_effective": self._mean(runs, "evals_per_effective"),
            }
        return rows

    def wall_fee_ratio(self) -> float:
        """slice / tangent wall-clock cost per effective sample (higher
        means the tangent kernel wins by that factor)."""
        s = self._mean(self.slice_runs, "wall_fee_per_effective")
        t = self._mean(self.tangent_runs, "wall_fee_per_effective")
        return s / t


def run_benchmark(
    seed: int,
    n_runs: int = 10,
    n_obs: int = 1000,
    n_coeffs: int = 10,
    n_burnin: int = 200,
    n_samples: int = 500,
    block_size: int | None = None,
    widths=DEFAULT_WIDTHS,
    calibration_reps: int = 300,
) -> BenchmarkResult:
    """Full benchmark: simulate, tune the baseline, run matched chains.

    Every run draws fresh data and fresh chains from independent child
    streams of the root seed, so replicates are independent yet the whole
    procedure is reproducible.  The tangent chains step all coefficients
    as one block with ``run_chain``; an integer ``block_size`` runs them
    with ``run_block_chain`` on contiguous blocks of that size instead.
    """
    root = np.random.SeedSequence(seed)
    data_seeds = root.spawn(n_runs)
    result = BenchmarkResult()

    for i in range(n_runs):
        streams = data_seeds[i].spawn(4)
        rng_data = np.random.default_rng(streams[0])
        X, y, _ = simulate_logistic(n_obs, n_coeffs, rng_data)
        target = LogisticTarget(X, y)
        x0 = np.zeros(n_coeffs)
        calib = calibrate(target, x0, calibration_reps)

        if i == 0:
            result.slice_width, result.tuning = tune_slice_width(
                target, x0, np.random.default_rng(streams[1]), widths
            )

        cfg = ChainConfig(n_burnin=n_burnin, n_samples=n_samples)
        rng_t = np.random.default_rng(streams[2])
        if block_size is None:
            trace_t = run_chain(target, x0, cfg, rng_t)
        else:
            partition = BlockPartition.contiguous(n_coeffs, block_size)
            trace_t = run_block_chain(target, partition, x0, cfg, rng_t)
        result.tangent_runs.append(_stats(trace_t, calib, "tangent"))

        trace_s = slice_gibbs_chain(
            target,
            x0,
            n_burnin,
            n_samples,
            SliceConfig(width=result.slice_width),
            np.random.default_rng(streams[3]),
        )
        result.slice_runs.append(_stats(trace_s, calib, "slice"))

    return result
