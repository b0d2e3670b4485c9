"""The benchmark's three workloads, driven through tangentmh's public API.

Each workload builds its inputs, executes its sampler calls (the timed
region, which the traced run repeats under span recording), and then
summarizes: ESS, counters, SHA-256 digests and correctness checks.  The
chains are pinned to the acceptance-test seeds (c04, c07, c09) so that
ESS, counters and digests repeat exactly; see README.md for why
``--seed`` does not move them.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from tangentmh import (
    BlockPartition,
    ChainConfig,
    HbConfig,
    SliceConfig,
    calibrate,
    effective_size,
    ess_per_dim,
    hb_gibbs,
    poisson_lograte_target,
    run_block_chain,
    run_chain,
    simulate_hb,
    slice_gibbs_chain,
)
from tangentmh.benchmark import DEFAULT_WIDTHS, run_benchmark, simulate_logistic, tune_slice_width
from tangentmh.targets import AdditiveTarget, GaussianPriorTarget, LogisticTarget
from tangentmh.linalg import SymMatrix


@dataclass
class Call:
    """One sampler call of a workload's timed region."""

    sampler: str  # "tangent" or "slice"
    trace: object  # ChainTrace or HbTrace
    window: tuple  # perf_counter() at entry and exit, timed around the call from outside
    sweeps: int  # sweeps run, burn-in included
    steps: int  # transitions attempted: block/tangent steps or slice coordinate updates

    @property
    def wall(self) -> float:
        return self.window[1] - self.window[0]


@dataclass
class Executed:
    """Output of a workload's timed region."""

    calls: list
    wall: float  # whole timed region, seconds
    extras: dict = field(default_factory=dict)


@dataclass
class Chain:
    """Summary of one sampler call."""

    sampler: str
    wall: float
    sweeps: int
    steps: int
    ess: float  # mean over coordinates
    cost: dict  # final value/gradient/Hessian counters
    failures: int  # Hessian failures at proposed points
    accept: float  # tangent per-step (per-block on Gibbs) rate, NaN for slice
    digest: str

    @property
    def evals(self) -> int:
        return int(sum(self.cost.values()))


def timed(fn, *args, **kwargs):
    """``fn``'s result and its (entry, exit) perf_counter() window."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, (t0, time.perf_counter())


def digest(*arrays, meta=None) -> str:
    """SHA-256 of the arrays' bytes (float64/int64/bool) plus a JSON meta echo."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode() + str(a.shape).encode())
        h.update(a.tobytes())
    if meta is not None:
        h.update(json.dumps(meta, sort_keys=True).encode())
    return h.hexdigest()


def trace_cost(tr) -> dict:
    """Final value/gradient/Hessian counters of a ChainTrace or HbTrace."""
    return tr.meta["final_cost"] if hasattr(tr, "beta") else tr.total_cost()


def trace_digest(tr) -> str:
    """SHA-256 of a trace's sample and counter arrays."""
    if hasattr(tr, "beta"):
        return digest(tr.beta, tr.gamma, tr.tau, meta=trace_cost(tr))
    return digest(tr.samples, tr.accepted, tr.n_value, tr.n_gradient, tr.n_hessian, meta=trace_cost(tr))


def summary(call: Call, ess: float) -> Chain:
    tr = call.trace
    accept = math.nan
    if call.sampler == "tangent":
        block_rate = tr.meta.get("block_acceptance_rate")  # the true per-block rate on Gibbs chains
        accept = float(tr.acceptance_rate() if block_rate is None else block_rate)
    return Chain(call.sampler, call.wall, call.sweeps, call.steps, ess, trace_cost(tr),
                 int(tr.meta.get("hessian_failures", 0)), accept, trace_digest(tr))


def poisson_quadrature(count: float, lo=-10.0, hi=5.0, n=60001):
    """Grid and CDF of the single-count Poisson log-rate density by
    trapezoidal quadrature; independent of the sampler code paths."""
    grid = np.linspace(lo, hi, n)
    logp = count * grid - np.exp(grid)
    pdf = np.exp(logp - logp.max())
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * np.diff(grid))])
    return grid, cdf / cdf[-1]


def ks_statistic(samples, grid, cdf) -> float:
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    F = np.interp(x, grid, cdf)
    return float(max(np.max(np.arange(1, n + 1) / n - F), np.max(F - np.arange(n) / n)))


def chain_tables(tag: str, trace):
    """samples.csv and steps.csv rows of a ChainTrace, as the CLI's chain verb writes them."""
    n = trace.n_steps
    samples = (f"{tag}-samples", ["step"] + [f"x{j}" for j in range(trace.dim)],
               ([i] + list(trace.samples[i]) for i in range(n)))
    steps = (f"{tag}-steps", ["step", "accepted", "n_value", "n_gradient", "n_hessian"],
             ([i, trace.accepted[i], trace.n_value[i], trace.n_gradient[i], trace.n_hessian[i]]
              for i in range(n)))
    return [samples, steps]


def _mcse(samples: np.ndarray, ess: np.ndarray) -> np.ndarray:
    return samples.std(axis=0, ddof=1) / np.sqrt(ess)


class PoissonOneD:
    """W1, the c04 pair: tangent and slice chains on one Poisson count of 2."""

    name = "poisson-1d"
    default_seeds = (42, 41)  # tangent, slice (c04)
    # A tripwire for a broken kernel, not c04's 0.01 criterion: the tangent
    # chain's known left-tail deficit gives KS 0.0147 at seed 42 (c04 stays red).
    tangent_ks_max = 0.03
    slice_ks_max = 0.01  # c04's stated tolerance, which the slice half meets

    def __init__(self, seeds=None, n_burnin=500, n_newton=5, n_samples=100_000, width=1.0):
        self.seeds = tuple(seeds or self.default_seeds)
        self.n_burnin, self.n_newton, self.n_samples, self.width = n_burnin, n_newton, n_samples, width

    def build(self):
        return {"target": poisson_lograte_target([2]), "x0": np.array([np.log(2.0)])}

    def probe_target(self, inp):
        return inp["target"], inp["x0"]

    def execute(self, inp) -> Executed:
        target, x0 = inp["target"], inp["x0"]
        t0 = time.perf_counter()
        cfg = ChainConfig(n_burnin=self.n_burnin, n_samples=self.n_samples, n_newton=self.n_newton)
        tr_t, w_t = timed(run_chain, target, x0, cfg, np.random.default_rng(self.seeds[0]))
        tr_s, w_s = timed(
            slice_gibbs_chain, target, x0, self.n_burnin, self.n_samples,
            SliceConfig(width=self.width), np.random.default_rng(self.seeds[1]),
        )
        sweeps = self.n_burnin + self.n_samples
        calls = [Call("tangent", tr_t, w_t, sweeps, sweeps), Call("slice", tr_s, w_s, sweeps, sweeps)]
        return Executed(calls, time.perf_counter() - t0)

    def summarize(self, inp, ex: Executed):
        t0 = time.perf_counter()
        ess = [effective_size(c.trace.samples[:, 0]) for c in ex.calls]
        ess_s = time.perf_counter() - t0
        chains = [summary(c, e) for c, e in zip(ex.calls, ess)]
        grid, cdf = poisson_quadrature(2.0)
        ks_t = ks_statistic(ex.calls[0].trace.samples[:, 0], grid, cdf)
        ks_s = ks_statistic(ex.calls[1].trace.samples[:, 0], grid, cdf)
        checks = {
            "tangent_ks": (ks_t < self.tangent_ks_max, f"KS {ks_t:.4f} < {self.tangent_ks_max} (tripwire; c04's 0.01 stays red)"),
            "slice_ks": (ks_s < self.slice_ks_max, f"KS {ks_s:.4f} < {self.slice_ks_max}"),
        }
        extras = {"ks_tangent": ks_t, "ks_slice": ks_s}
        return chains, checks, ess_s, extras

    def csv_tables(self, ex: Executed):
        return chain_tables("tangent", ex.calls[0].trace)


class LogisticBlocks:
    """W2, c07's procedure: 10 replicates of 1000x10 logistic data, blocks of 5
    against a slice baseline tuned on the first replicate."""

    name = "logistic-blocks"
    default_seeds = (71,)  # c07
    # Tangent and slice means per replicate and coordinate, in MCSE units.
    # With 100 comparisons, 4.5 keeps the false-alarm rate of a correct pair
    # of samplers well under 1% while a biased kernel lands far above it.
    max_z = 4.5

    def __init__(self, seeds=None, n_runs=10, n_obs=1000, n_coeffs=10, n_burnin=200,
                 n_samples=500, block_size=5, widths=DEFAULT_WIDTHS, calibration_reps=300):
        self.seeds = tuple(seeds or self.default_seeds)
        self.n_runs, self.n_obs, self.n_coeffs = n_runs, n_obs, n_coeffs
        self.n_burnin, self.n_samples, self.block_size = n_burnin, n_samples, block_size
        self.widths, self.calibration_reps = tuple(widths), calibration_reps

    def build(self):
        # seeds spawned exactly as tangentmh.benchmark.run_benchmark does
        reps = []
        for child in np.random.SeedSequence(self.seeds[0]).spawn(self.n_runs):
            streams = child.spawn(4)
            X, y, _ = simulate_logistic(self.n_obs, self.n_coeffs, np.random.default_rng(streams[0]))
            reps.append((LogisticTarget(X, y), streams))
        return {"replicates": reps, "x0": np.zeros(self.n_coeffs)}

    def probe_target(self, inp):
        return inp["replicates"][0][0], inp["x0"]

    def execute(self, inp) -> Executed:
        x0 = inp["x0"]
        t0 = time.perf_counter()
        partition = BlockPartition.contiguous(self.n_coeffs, self.block_size)
        cfg = ChainConfig(n_burnin=self.n_burnin, n_samples=self.n_samples)
        sweeps = self.n_burnin + self.n_samples
        calls, spe, width, tune_s = [], [], None, 0.0
        for i, (target, streams) in enumerate(inp["replicates"]):
            spe.append(calibrate(target, x0, self.calibration_reps).seconds_per_value_eval)
            if i == 0:
                (width, _), (t_in, t_out) = timed(
                    tune_slice_width, target, x0, np.random.default_rng(streams[1]), self.widths
                )
                tune_s = t_out - t_in
            tr_t, w_t = timed(run_block_chain, target, partition, x0, cfg, np.random.default_rng(streams[2]))
            calls.append(Call("tangent", tr_t, w_t, sweeps, sweeps * partition.n_blocks))
            tr_s, w_s = timed(
                slice_gibbs_chain, target, x0, self.n_burnin, self.n_samples,
                SliceConfig(width=width), np.random.default_rng(streams[3]),
            )
            calls.append(Call("slice", tr_s, w_s, sweeps, sweeps * self.n_coeffs))
        extras = {"seconds_per_value_eval": spe, "slice_width": width, "tune_s": tune_s}
        return Executed(calls, time.perf_counter() - t0, extras)

    def summarize(self, inp, ex: Executed):
        t0 = time.perf_counter()
        ess = [ess_per_dim(c.trace.samples) for c in ex.calls]
        ess_s = time.perf_counter() - t0
        chains = [summary(c, float(np.mean(e))) for c, e in zip(ex.calls, ess)]
        z = []
        for i in range(0, len(ex.calls), 2):
            a, b = ex.calls[i].trace.samples, ex.calls[i + 1].trace.samples
            combo = np.sqrt(_mcse(a, ess[i]) ** 2 + _mcse(b, ess[i + 1]) ** 2)
            z.append(np.abs(a.mean(axis=0) - b.mean(axis=0)) / combo)
        max_z = float(np.max(z))
        checks = {"mean_agreement": (max_z <= self.max_z, f"max |z| {max_z:.2f} <= {self.max_z} MCSE")}
        checks["counters_match_run_benchmark"] = self._cross_check()

        # c07's conventions: per-run wall FEE and evaluations per effective sample
        spe = np.repeat(ex.extras["seconds_per_value_eval"], 2)
        fee = {s: [] for s in ("tangent", "slice")}
        per_eff = {s: [] for s in ("tangent", "slice")}
        for ch, sec in zip(chains, spe):
            fee[ch.sampler].append(ch.wall / sec / ch.ess)
            per_eff[ch.sampler].append(ch.evals / ch.ess)
        extras = {
            "wall_fee_ratio": float(np.mean(fee["slice"]) / np.mean(fee["tangent"])),
            "counter_ratio": float(np.mean(per_eff["slice"]) / np.mean(per_eff["tangent"])),
            "calibrate_us": float(np.median(ex.extras["seconds_per_value_eval"]) * 1e6),
            "tune_s": ex.extras["tune_s"],
            "max_z": max_z,
        }
        return chains, checks, ess_s, extras

    def _cross_check(self):
        """run_benchmark on the first two replicates at short length, against
        the same procedure driven here: exact counter equality shows the seed
        spawning and call order are the program's own."""
        short = dict(n_runs=min(2, self.n_runs), n_obs=self.n_obs, n_coeffs=self.n_coeffs,
                     n_burnin=4, n_samples=20, block_size=self.block_size, widths=self.widths[-1:])
        ref = run_benchmark(self.seeds[0], calibration_reps=100, **short)
        mine = LogisticBlocks(self.seeds, n_burnin=4, n_samples=20, calibration_reps=100,
                              **{k: short[k] for k in ("n_runs", "n_obs", "n_coeffs", "block_size", "widths")})
        calls = mine.execute(mine.build()).calls
        want = [(r.n_value, r.n_gradient, r.n_hessian) for pair in zip(ref.tangent_runs, ref.slice_runs) for r in pair]
        got = [tuple(c.trace.total_cost().values()) for c in calls]
        return want == got, f"{len(got)} chains, counters {'equal' if want == got else f'{got} != {want}'}"

    def csv_tables(self, ex: Executed):
        tangent = [c.trace for c in ex.calls if c.sampler == "tangent"]
        return [t for i, tr in enumerate(tangent) for t in chain_tables(f"tangent{i}", tr)]


class HbGroups:
    """W3, c09: 5 groups x 10 coefficients x 400 rows, tangent and slice betas."""

    name = "hb-groups"
    default_seeds = (2026, 101, 202)  # data, tangent chain, slice chain (c09)

    def __init__(self, seeds=None, n_groups=5, n_coeffs=10, n_upper=2, group_size=400,
                 n_burnin=500, n_samples=500):
        self.seeds = tuple(seeds or self.default_seeds)
        self.n_groups, self.n_coeffs, self.n_upper = n_groups, n_coeffs, n_upper
        self.group_size, self.n_burnin, self.n_samples = group_size, n_burnin, n_samples

    def build(self):
        spec, truth = simulate_hb(
            self.n_groups, self.n_coeffs, self.n_upper,
            np.random.default_rng(self.seeds[0]), group_size=self.group_size,
        )
        return {"spec": spec, "truth": truth}

    def probe_target(self, inp):
        """The first group's conditional at the zero start, as hb_gibbs builds it."""
        spec = inp["spec"]
        prior = GaussianPriorTarget(np.zeros(spec.n_coeffs), SymMatrix(np.eye(spec.n_coeffs)))
        return AdditiveTarget([LogisticTarget(spec.designs[0], spec.responses[0]), prior]), np.zeros(spec.n_coeffs)

    def execute(self, inp) -> Executed:
        spec = inp["spec"]
        t0 = time.perf_counter()
        cycles = self.n_burnin + self.n_samples
        n_blocks = BlockPartition.contiguous(spec.n_coeffs).n_blocks
        calls = []
        for sampler, seed, per_group in (
            ("tangent", self.seeds[1], n_blocks), ("slice", self.seeds[2], spec.n_coeffs)
        ):
            cfg = HbConfig(n_burnin=self.n_burnin, n_samples=self.n_samples, beta_sampler=sampler, seed=seed)
            tr, window = timed(hb_gibbs, spec, cfg)
            calls.append(Call(sampler, tr, window, cycles, cycles * spec.n_groups * per_group))
        return Executed(calls, time.perf_counter() - t0)

    def summarize(self, inp, ex: Executed):
        J, K = self.n_groups, self.n_coeffs
        t0 = time.perf_counter()
        ess = [
            np.array([[effective_size(c.trace.beta[:, j, k]) for k in range(K)] for j in range(J)])
            for c in ex.calls
        ]
        ess_s = time.perf_counter() - t0
        chains = [summary(c, float(np.mean(e))) for c, e in zip(ex.calls, ess)]
        # c09's three conditions, verbatim
        tr_t, tr_s = ex.calls[0].trace, ex.calls[1].trace
        truth = inp["truth"]["beta"]
        lo = np.quantile(tr_t.beta, 0.025, axis=0)
        hi = np.quantile(tr_t.beta, 0.975, axis=0)
        coverage = float(np.mean((truth >= lo) & (truth <= hi)))
        combo = np.sqrt(_mcse(tr_t.beta, ess[0]) ** 2 + _mcse(tr_s.beta, ess[1]) ** 2)
        max_z = float(np.max(np.abs(tr_t.beta.mean(axis=0) - tr_s.beta.mean(axis=0)) / combo))
        incidents = sum(ch.failures for ch in chains)
        checks = {
            "coverage": (coverage >= 0.90, f"coverage {coverage:.2f} >= 0.90"),
            "mean_agreement": (max_z <= 3.0, f"max |z| {max_z:.2f} <= 3 MCSE"),
            "hessian_incidents": (incidents == 0, f"{incidents} incidents == 0"),
        }
        return chains, checks, ess_s, {"coverage": coverage, "max_z": max_z}

    def csv_tables(self, ex: Executed):
        beta = ex.calls[0].trace.beta
        flat = beta.reshape(beta.shape[0], -1)
        header = ["cycle"] + [f"beta{j}_{k}" for j in range(beta.shape[1]) for k in range(beta.shape[2])]
        return [("tangent-beta", header, ([i] + list(flat[i]) for i in range(flat.shape[0])))]


WORKLOADS = {w.name: w for w in (PoissonOneD, LogisticBlocks, HbGroups)}
