import numpy as np
import pytest

from tangentmh.gibbs import BlockPartition, run_block_chain
from tangentmh.hb import HbConfig, hb_gibbs, simulate_hb
from tangentmh.slicer import SliceConfig, slice_gibbs_chain
from tangentmh.tangent import ChainConfig, run_chain
from tangentmh.targets import GaussianPriorTarget

TOTALS = {"hessian_failures", "final_cost"}
GIBBS_TOTALS = TOTALS | {"block_acceptance_rate"}


def _target():
    return GaussianPriorTarget(np.zeros(4), np.eye(4))


def _hb(sampler):
    spec, _ = simulate_hb(2, 3, 2, np.random.default_rng(0), group_size=40)
    return hb_gibbs(spec, HbConfig(n_burnin=2, n_samples=3, beta_sampler=sampler, seed=1))


# each chain, short, and the exact key set of its meta
CHAINS = {
    "run_chain": (
        lambda: run_chain(_target(), np.zeros(4), ChainConfig(2, 3), np.random.default_rng(1)),
        TOTALS,
    ),
    "slice_gibbs_chain": (
        lambda: slice_gibbs_chain(_target(), np.zeros(4), 2, 3, SliceConfig(), np.random.default_rng(1)),
        TOTALS,
    ),
    "run_block_chain": (
        lambda: run_block_chain(
            _target(), BlockPartition.contiguous(4, 2), np.zeros(4), ChainConfig(2, 3),
            np.random.default_rng(1),
        ),
        GIBBS_TOTALS,
    ),
    "hb-tangent": (lambda: _hb("tangent"), GIBBS_TOTALS),
    "hb-slice": (lambda: _hb("slice"), TOTALS),
}


@pytest.mark.parametrize("name", CHAINS)
def test_meta_holds_only_the_run_totals(name):
    run, keys = CHAINS[name]
    assert set(run().meta) == keys


# (n_burnin, n_samples, n_newton) plans that are not integer counts
NOT_COUNTS = {
    "fractional burn-in": (2.5, 3, None),  # used to fail inside run_sweeps with a TypeError
    "fractional samples": (4, 3.5, None),
    "fractional newton": (4, 3, 1.5),  # used to run 2 Newton sweeps
    "integral float": (4.0, 3, None),
    "boolean burn-in": (True, 3, None),
    "boolean newton": (4, 3, False),
    "numpy float": (4, np.float64(3), None),
}


class TestChainConfig:
    @pytest.mark.parametrize("plan", NOT_COUNTS.values(), ids=list(NOT_COUNTS))
    def test_refuses_counts_that_are_not_integers(self, plan):
        with pytest.raises(ValueError, match="integers"):
            ChainConfig(*plan)
        with pytest.raises(ValueError, match="integers"):
            HbConfig(*plan)

    def test_numpy_integers_accepted(self):
        cfg = ChainConfig(np.int64(4), np.int32(3), np.int8(1))
        assert cfg.newton_iterations == 1
        got = run_chain(_target(), np.zeros(4), cfg, np.random.default_rng(2))
        ref = run_chain(_target(), np.zeros(4), ChainConfig(4, 3, 1), np.random.default_rng(2))
        assert np.array_equal(got.samples, ref.samples)
        assert HbConfig(np.int64(2), np.int64(3)).newton_iterations == 1
