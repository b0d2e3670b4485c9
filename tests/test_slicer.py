import numpy as np
import pytest

from tangentmh.slicer import SliceConfig, SliceError, slice_gibbs_chain, slice_step_1d
from tangentmh.targets import gaussian_prior, poisson_lograte_target

from helpers import ks_statistic, poisson_quadrature


class TestSliceConfig:
    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            SliceConfig(width=0.0)
        with pytest.raises(ValueError):
            SliceConfig(width=np.inf)

    def test_rejects_bad_stepout(self):
        with pytest.raises(ValueError):
            SliceConfig(max_stepout=0)


class TestStep1d:
    def test_standard_normal_moments(self):
        rng = np.random.default_rng(0)
        cfg = SliceConfig()
        x = 0.0
        vals = np.empty(100000)
        for i in range(vals.size):
            x, _ = slice_step_1d(lambda v: -0.5 * v * v, x, cfg, rng)
            vals[i] = x
        assert abs(vals.mean()) < 0.02
        assert abs(vals.var() - 1.0) < 0.05

    def test_eval_counter_counts_calls(self):
        calls = 0

        def logf(v):
            nonlocal calls
            calls += 1
            return -0.5 * v * v

        rng = np.random.default_rng(1)
        _, n = slice_step_1d(logf, 0.0, SliceConfig(), rng)
        assert n == calls

    def test_degenerate_width_returns_current_point_region(self):
        # with a sub-ulp width the bracket collapses onto x; the update
        # still terminates because the slice always contains x
        rng = np.random.default_rng(2)
        x, n = slice_step_1d(lambda v: -0.5 * v * v, 1.25, SliceConfig(width=1e-300), rng)
        assert x == pytest.approx(1.25, abs=1e-290)

    def test_nonfinite_current_point_raises(self):
        rng = np.random.default_rng(3)
        with pytest.raises(SliceError):
            slice_step_1d(lambda v: -np.inf, 0.0, SliceConfig(), rng)

    def test_poisson_ks_against_quadrature(self):
        t = poisson_lograte_target([2])
        rng = np.random.default_rng(4)
        cfg = SliceConfig(width=1.0)
        x = np.log(2.0)
        vals = np.empty(100000)
        for i in range(vals.size):
            x, _ = slice_step_1d(lambda v: t.evaluate([v]).value, x, cfg, rng)
            vals[i] = x
        grid, _, cdf = poisson_quadrature([2])
        assert ks_statistic(vals, grid, cdf) < 0.01


class TestGibbsChain:
    def test_independent_gaussian_moments(self):
        prec = np.diag([1.0, 4.0])
        t = gaussian_prior(np.array([0.5, -1.0]), prec)
        trace = slice_gibbs_chain(
            t, [0.0, 0.0], 100, 10000, SliceConfig(), np.random.default_rng(5)
        )
        m = trace.samples.mean(axis=0)
        v = trace.samples.var(axis=0)
        np.testing.assert_allclose(m, [0.5, -1.0], atol=0.05)
        np.testing.assert_allclose(v, [1.0, 0.25], rtol=0.08)

    def test_empty_trace(self):
        t = gaussian_prior([0.0], np.eye(1))
        trace = slice_gibbs_chain(t, [0.0], 5, 0, SliceConfig(), np.random.default_rng(6))
        assert trace.n_steps == 0

    def test_negative_burnin_refused(self):
        # used to record uninitialised memory as sample row 0
        t = poisson_lograte_target([2])
        with pytest.raises(ValueError):
            slice_gibbs_chain(t, [0.0], -1, 4, SliceConfig(), np.random.default_rng(1))

    def test_counters_value_only(self):
        t = gaussian_prior(np.zeros(2), np.eye(2))
        trace = slice_gibbs_chain(t, [0.0, 0.0], 0, 50, SliceConfig(), np.random.default_rng(7))
        cost = trace.total_cost()
        assert cost["n_gradient"] == 0
        assert cost["n_hessian"] == 0
        assert cost["n_value"] >= 3 * 50 * 2  # at least slice minimum per coordinate
        assert np.all(np.diff(trace.n_value) > 0)

    def test_coordinate_update_changes_only_that_coordinate(self):
        # freeze the second coordinate by spying on evaluate calls
        t = gaussian_prior(np.zeros(3), np.eye(3))
        rng = np.random.default_rng(8)
        from tangentmh.slicer import slice_sweep

        x0 = np.array([1.0, 2.0, 3.0])
        x1, n_accepted, _, failures = slice_sweep(t, x0, SliceConfig(), rng)
        assert (n_accepted, failures) == (1, 0)
        assert x1.shape == (3,)
        assert not np.array_equal(x0, x1)

    def test_determinism(self):
        t = gaussian_prior(np.zeros(2), np.eye(2))
        a = slice_gibbs_chain(t, [0.0, 0.0], 10, 100, SliceConfig(), np.random.default_rng(9))
        b = slice_gibbs_chain(t, [0.0, 0.0], 10, 100, SliceConfig(), np.random.default_rng(9))
        assert np.array_equal(a.samples, b.samples)
