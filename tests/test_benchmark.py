import numpy as np

from tangentmh.benchmark import run_benchmark, simulate_logistic
from tangentmh.diagnostics import ess_per_dim
from tangentmh.gibbs import BlockPartition, run_block_chain
from tangentmh.tangent import ChainConfig, run_chain
from tangentmh.targets import LogisticTarget

SEED, N_RUNS, N_OBS, N_COEFFS, N_BURNIN, N_SAMPLES = 3, 2, 200, 10, 10, 30


def figures(stats):
    """A RunStats' seed-determined figures: all but the wall-clock one."""
    return (stats.ess_mean, stats.acceptance_rate, stats.n_value, stats.n_gradient, stats.n_hessian,
            stats.evals_per_nominal, stats.effective_rate, stats.evals_per_effective)


def reference_figures(drive):
    """The tangent chain of each replicate, driven by ``drive(target, x0,
    cfg, rng)`` on the streams run_benchmark spawns, as RunStats figures;
    a block chain's acceptance is its block acceptance rate."""
    out = []
    for child in np.random.SeedSequence(SEED).spawn(N_RUNS):
        streams = child.spawn(4)
        X, y, _ = simulate_logistic(N_OBS, N_COEFFS, np.random.default_rng(streams[0]))
        trace = drive(LogisticTarget(X, y), np.zeros(N_COEFFS), ChainConfig(N_BURNIN, N_SAMPLES),
                      np.random.default_rng(streams[2]))
        ess = float(np.mean(ess_per_dim(trace.samples)))
        cost = trace.total_cost()
        evals = sum(cost.values()) / N_SAMPLES
        rate = ess / N_SAMPLES
        accept = trace.meta.get("block_acceptance_rate", trace.acceptance_rate())
        out.append((ess, accept, *cost.values(), evals, rate, evals / rate))
    return out


def short_benchmark(**kwargs):
    return run_benchmark(SEED, n_runs=N_RUNS, n_obs=N_OBS, n_coeffs=N_COEFFS, n_burnin=N_BURNIN,
                         n_samples=N_SAMPLES, widths=(1.0,), calibration_reps=100, **kwargs)


def test_tangent_chains_are_run_chain_by_default():
    res = short_benchmark()
    assert [figures(r) for r in res.tangent_runs] == reference_figures(run_chain)


def test_block_size_runs_the_block_chain():
    # perfbench's counters_match_run_benchmark check passes blocks of 5
    res = short_benchmark(block_size=5)
    partition = BlockPartition.contiguous(N_COEFFS, 5)

    def drive(target, x0, cfg, rng):
        return run_block_chain(target, partition, x0, cfg, rng)

    want = reference_figures(drive)
    assert [figures(r) for r in res.tangent_runs] == want
    assert want != reference_figures(run_chain)
