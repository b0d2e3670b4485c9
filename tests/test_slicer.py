from functools import partial

import numpy as np
import pytest

import tangentmh.hb as hb
from tangentmh.slicer import SliceConfig, SliceError, slice_gibbs_chain, slice_step_1d, slice_sweep
from tangentmh.targets import (
    AdditiveTarget,
    EvalCost,
    GaussianPriorTarget,
    LogisticTarget,
    poisson_lograte_target,
)
from tangentmh.trace import ChainConfig, run_sweeps

from helpers import ks_statistic, poisson_quadrature


def reevaluating_sweep(target, x, cfg, rng):
    """The coordinate sweep without a kept value: every update evaluates the
    point it starts from, although the previous update ended there."""
    x = np.array(x, dtype=float)
    n_value = 0
    work = x.copy()
    for d in range(target.dim):
        def logf(v, _d=d):
            nonlocal n_value
            work[_d] = v
            res = target.evaluate(work)
            n_value += res.cost.n_value
            return res.value

        f0 = logf(x[d])
        x_new, _ = slice_step_1d(logf, x[d], f0, cfg, rng)
        x[d] = x_new
        work[d] = x_new
    return x, 1, EvalCost(n_value, 0, 0), 0


def reevaluating_chain(target, x0, n_burnin, n_samples, cfg, rng):
    sweep = partial(reevaluating_sweep, target, cfg=cfg, rng=rng)
    return run_sweeps(sweep, x0, ChainConfig(n_burnin, n_samples, 0))


def per_group_slice_cycles(spec, cfg, rng):
    """``hb_gibbs``'s slice cycles from beta = 0, gamma = 0, tau = 1, each
    group's coefficients by ``slice_sweep`` on the ``AdditiveTarget`` of its
    ``LogisticTarget`` and its ``GaussianPriorTarget``, then the conjugate
    draws.  Returns the recorded cycles' beta, gamma and tau, and the summed
    sweep cost."""
    J, K, L = spec.n_groups, spec.n_coeffs, spec.n_upper
    beta, gamma, tau = np.zeros((J, K)), np.zeros((K, L)), np.ones(K)
    likelihoods = [LogisticTarget(X, y) for X, y in zip(spec.designs, spec.responses)]
    kept = {"beta": [], "gamma": [], "tau": []}
    cost = EvalCost()
    for cycle in range(cfg.n_burnin + cfg.n_samples):
        means = spec.upper_design @ gamma.T
        for j in range(J):
            target = AdditiveTarget([likelihoods[j], GaussianPriorTarget(means[j], np.diag(tau))])
            beta[j], _, used, _ = slice_sweep(target, beta[j], cfg.slice_cfg, rng)
            cost = cost + used
        gamma = hb.draw_upper_coeffs(spec, beta, tau, rng)
        tau = hb.draw_precisions(spec, beta, gamma, rng)
        if cycle >= cfg.n_burnin:
            for name, value in (("beta", beta), ("gamma", gamma), ("tau", tau)):
                kept[name].append(value.copy())
    return {name: np.array(values) for name, values in kept.items()}, cost


def _logistic(dim, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((300, dim))
    y = (rng.random(300) < 1.0 / (1.0 + np.exp(-X @ rng.normal(0.0, 0.5, dim)))).astype(float)
    return LogisticTarget(X, y)


# name -> (target, start, values counted per evaluation)
KEPT_VALUE_TARGETS = {
    "logistic-10d": (lambda: _logistic(10, 31), np.zeros(10), 1),
    "logistic+diagonal-prior": (
        lambda: AdditiveTarget(
            [_logistic(6, 32), GaussianPriorTarget(np.full(6, 0.2), np.diag(np.linspace(0.5, 3.0, 6)))]
        ),
        np.zeros(6),
        2,
    ),
    "poisson-1d": (lambda: poisson_lograte_target([2]), np.array([0.3]), 1),
}


class TestSliceConfig:
    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            SliceConfig(width=0.0)
        with pytest.raises(ValueError):
            SliceConfig(width=np.inf)

    def test_rejects_bad_stepout(self):
        with pytest.raises(ValueError):
            SliceConfig(max_stepout=0)

    @pytest.mark.parametrize("m", [2.5, 1.5, 3.0, np.float64(4.0), True, np.True_, "3"])
    def test_rejects_stepout_that_is_not_an_integer(self, m):
        # max_stepout = 2.5 drew j = floor(2.5 u) in 0/1/2 with probabilities
        # 0.4/0.4/0.2 and left a fractional right-hand budget: the uneven
        # split that stepout's reversibility rests on
        with pytest.raises(ValueError, match="max_stepout"):
            SliceConfig(max_stepout=m)

    @pytest.mark.parametrize("w", [True, False, np.True_])
    def test_rejects_boolean_width(self, w):
        with pytest.raises(ValueError, match="width"):
            SliceConfig(width=w)

    def test_numpy_integer_stepout_accepted(self):
        t = poisson_lograte_target([2])
        a = slice_gibbs_chain(t, [0.0], 5, 20, SliceConfig(0.5, np.int64(4)), np.random.default_rng(3))
        b = slice_gibbs_chain(t, [0.0], 5, 20, SliceConfig(0.5, 4), np.random.default_rng(3))
        assert np.array_equal(a.samples, b.samples)


class TestStep1d:
    def test_standard_normal_moments(self):
        rng = np.random.default_rng(0)
        cfg = SliceConfig()
        x = f = 0.0
        vals = np.empty(100000)
        for i in range(vals.size):
            x, f = slice_step_1d(lambda v: -0.5 * v * v, x, f, cfg, rng)
            vals[i] = x
        assert abs(vals.mean()) < 0.02
        assert abs(vals.var() - 1.0) < 0.05

    def test_eval_counter_counts_calls(self):
        calls = []

        def logf(v):
            calls.append(v)
            return -0.5 * v * v

        rng = np.random.default_rng(1)
        x, f = slice_step_1d(logf, 0.0, 0.0, SliceConfig(), rng)
        # the start point's value is the caller's; the last call is at the
        # returned point, whose value comes back exactly
        assert calls and 0.0 not in calls and calls[-1] == x
        assert f == logf(x)

    def test_degenerate_width_returns_current_point_region(self):
        # with a sub-ulp width the bracket collapses onto x; the update
        # still terminates because the slice always contains x
        def logf(v):
            return -0.5 * v * v

        rng = np.random.default_rng(2)
        x, f = slice_step_1d(logf, 1.25, logf(1.25), SliceConfig(width=1e-300), rng)
        assert x == pytest.approx(1.25, abs=1e-290)
        assert f == logf(x)

        # an exponential draw of 0 puts the level at f(x): the first shrink
        # point is x itself, not above the level, and the update hands back
        # x with the caller's value
        class Draws:
            def standard_exponential(self):
                return 0.0

            def random(self):
                return 0.5

        assert slice_step_1d(logf, 1.25, logf(1.25), SliceConfig(1.0, 1), Draws()) == (1.25, logf(1.25))

    def test_nonfinite_current_point_raises(self):
        rng = np.random.default_rng(3)
        with pytest.raises(SliceError):
            slice_step_1d(lambda v: -np.inf, 0.0, -np.inf, SliceConfig(), rng)

    def test_poisson_ks_against_quadrature(self):
        t = poisson_lograte_target([2])
        rng = np.random.default_rng(4)
        cfg = SliceConfig(width=1.0)
        x = np.log(2.0)
        f = t.evaluate([x]).value
        vals = np.empty(100000)
        for i in range(vals.size):
            x, f = slice_step_1d(lambda v: t.evaluate([v]).value, x, f, cfg, rng)
            vals[i] = x
        grid, _, cdf = poisson_quadrature([2])
        assert ks_statistic(vals, grid, cdf) < 0.01


class TestGibbsChain:
    def test_independent_gaussian_moments(self):
        prec = np.diag([1.0, 4.0])
        t = GaussianPriorTarget(np.array([0.5, -1.0]), prec)
        trace = slice_gibbs_chain(
            t, [0.0, 0.0], 100, 10000, SliceConfig(), np.random.default_rng(5)
        )
        m = trace.samples.mean(axis=0)
        v = trace.samples.var(axis=0)
        np.testing.assert_allclose(m, [0.5, -1.0], atol=0.05)
        np.testing.assert_allclose(v, [1.0, 0.25], rtol=0.08)

    def test_empty_trace(self):
        t = GaussianPriorTarget([0.0], np.eye(1))
        trace = slice_gibbs_chain(t, [0.0], 5, 0, SliceConfig(), np.random.default_rng(6))
        assert trace.n_steps == 0

    def test_negative_burnin_refused(self):
        # used to record uninitialised memory as sample row 0
        t = poisson_lograte_target([2])
        with pytest.raises(ValueError):
            slice_gibbs_chain(t, [0.0], -1, 4, SliceConfig(), np.random.default_rng(1))

    def test_counters_value_only(self):
        t = GaussianPriorTarget(np.zeros(2), np.eye(2))
        trace = slice_gibbs_chain(t, [0.0, 0.0], 0, 50, SliceConfig(), np.random.default_rng(7))
        ref = reevaluating_chain(t, [0.0, 0.0], 0, 50, SliceConfig(), np.random.default_rng(7))
        cost = trace.total_cost()
        assert cost["n_gradient"] == 0
        assert cost["n_hessian"] == 0
        # the second coordinate's update starts from the value the first
        # one ended with: one evaluation fewer per sweep
        assert cost["n_value"] == ref.total_cost()["n_value"] - 50
        assert np.all(np.diff(trace.n_value) > 0)

    def test_coordinate_update_changes_only_that_coordinate(self):
        # freeze the second coordinate by spying on evaluate calls
        t = GaussianPriorTarget(np.zeros(3), np.eye(3))
        rng = np.random.default_rng(8)
        from tangentmh.slicer import slice_sweep

        x0 = np.array([1.0, 2.0, 3.0])
        x1, n_accepted, _, failures = slice_sweep(t, x0, SliceConfig(), rng)
        assert (n_accepted, failures) == (1, 0)
        assert x1.shape == (3,)
        assert not np.array_equal(x0, x1)

    def test_determinism(self):
        t = GaussianPriorTarget(np.zeros(2), np.eye(2))
        a = slice_gibbs_chain(t, [0.0, 0.0], 10, 100, SliceConfig(), np.random.default_rng(9))
        b = slice_gibbs_chain(t, [0.0, 0.0], 10, 100, SliceConfig(), np.random.default_rng(9))
        assert np.array_equal(a.samples, b.samples)


class TestKeptValue:
    """A sweep's coordinate update starts where the previous one ended and
    reuses that point's value: same samples and random stream as the
    re-evaluating sweep, (dim - 1) x parts fewer values per sweep."""

    @pytest.mark.parametrize("name", list(KEPT_VALUE_TARGETS))
    def test_same_chain_fewer_values(self, name):
        make, x0, parts = KEPT_VALUE_TARGETS[name]
        target = make()
        n_burnin, n_samples = 15, 60
        rng, rng_ref = np.random.default_rng(41), np.random.default_rng(41)
        got = slice_gibbs_chain(target, x0, n_burnin, n_samples, SliceConfig(0.7), rng)
        ref = reevaluating_chain(target, x0, n_burnin, n_samples, SliceConfig(0.7), rng_ref)
        assert np.array_equal(got.samples, ref.samples)
        assert rng.bit_generator.state == rng_ref.bit_generator.state
        sweeps = np.arange(n_burnin + 1, n_burnin + n_samples + 1)
        saved = (target.dim - 1) * parts
        assert np.array_equal(got.n_value, ref.n_value - saved * sweeps)
        assert got.total_cost() == {
            "n_value": ref.total_cost()["n_value"] - saved * (n_burnin + n_samples),
            "n_gradient": 0,
            "n_hessian": 0,
        }
        if target.dim == 1:
            assert np.array_equal(got.n_value, ref.n_value)

    def test_sweep_evaluates_each_start_point_once(self):
        target = _logistic(4, 33)
        seen = []
        evaluate = target.evaluate
        target.evaluate = lambda x, **kw: seen.append(np.array(x)) or evaluate(x, **kw)
        x, _, cost, _ = slice_sweep(target, np.zeros(4), SliceConfig(0.7), np.random.default_rng(2))
        assert cost.n_value == len(seen)
        # consecutive evaluations never repeat a vector
        assert not any(np.array_equal(a, b) for a, b in zip(seen, seen[1:]))
        assert np.array_equal(seen[-1], x)

    def test_return_to_the_start_point_is_evaluated_again(self):
        # scripted draws: bracket [-0.25, 0.75], no stepout, a rejected
        # 0.25, then exactly the start point 0.0 once more.  The kept value
        # then belongs to 0.25, so only a sweep's start point is reused.
        class Draws:
            def __init__(self):
                self.r = iter([0.25, 0.0, 0.5, 0.5] * 2)

            def standard_exponential(self):
                return 1e-9

            def random(self):
                return next(self.r)

        t = GaussianPriorTarget(np.zeros(2), np.eye(2))
        cfg = SliceConfig(1.0, 1)
        x, _, cost, _ = slice_sweep(t, np.zeros(2), cfg, Draws())
        x_ref, _, ref, _ = reevaluating_sweep(t, np.zeros(2), cfg, Draws())
        assert np.array_equal(x, x_ref) and np.array_equal(x, np.zeros(2))
        assert (ref.n_value, cost.n_value) == (6, 5)

    def test_hb_slice_run_bit_equal(self):
        # hb's slice cycle evaluates each line from the group's kept
        # predictor; it runs the chain, counters and random stream of one
        # slice_sweep per group on the group's public targets, at equal and
        # at log-uniform group sizes
        cfg = hb.HbConfig(n_burnin=6, n_samples=12, beta_sampler="slice")
        for group_size in (60, None):
            spec, _ = hb.simulate_hb(3, 4, 2, np.random.default_rng(12), group_size=group_size)
            rng = np.random.default_rng(13)
            got = hb.hb_gibbs(spec, cfg, rng)
            rng_ref = np.random.default_rng(13)
            ref, ref_cost = per_group_slice_cycles(spec, cfg, rng_ref)
            for name in ("beta", "gamma", "tau"):
                assert getattr(got, name).tobytes() == ref[name].tobytes(), (group_size, name)
            assert rng.bit_generator.state == rng_ref.bit_generator.state
            assert got.meta["final_cost"] == {"n_value": ref_cost.n_value, "n_gradient": 0, "n_hessian": 0}
