import numpy as np
import pytest

from tangentmh.diagnostics import effective_size
from tangentmh.linalg import cholesky
from tangentmh.targets import gaussian_prior, poisson_lograte_target
from tangentmh.tangent import (
    ChainConfig,
    HessianNotNegativeDefinite,
    build_proposal,
    newton_step,
    run_chain,
    tangent_step,
)

from helpers import ks_statistic, poisson_quadrature, random_spd


class TestBuildProposal:
    def test_gaussian_target_reproduces_itself_from_anywhere(self):
        rng = np.random.default_rng(0)
        mean = rng.standard_normal(3)
        prec = random_spd(3, rng)
        t = gaussian_prior(mean, prec)
        for _ in range(10):
            x = 3.0 * rng.standard_normal(3)
            prop = build_proposal(t, x)
            np.testing.assert_allclose(prop.mean, mean, atol=1e-10)
            np.testing.assert_allclose(
                prop.factor.reconstruct(), prec, rtol=1e-10
            )

    def test_poisson_at_zero_closed_form(self):
        # f'(0) = 2 - 1, f''(0) = -1: mean 1, precision 1
        t = poisson_lograte_target([2])
        prop = build_proposal(t, [0.0])
        assert prop.mean[0] == pytest.approx(1.0, abs=1e-14)
        assert prop.factor.reconstruct()[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_mode_is_fixed_point(self):
        t = poisson_lograte_target([2])
        prop = build_proposal(t, [np.log(2.0)])
        assert prop.mean[0] == pytest.approx(np.log(2.0), abs=1e-14)

    def test_nonconcave_point_raises(self):
        class Convex:
            dim = 1

            def evaluate(self, x, *, gradient=False, hessian=False):
                from tangentmh.targets import EvalCost, EvalResult

                v = float(x[0]) ** 2
                return EvalResult(
                    v,
                    np.array([2.0 * x[0]]) if gradient else None,
                    np.array([[2.0]]) if hessian else None,
                    EvalCost(1, 1, 1),
                )

        with pytest.raises(HessianNotNegativeDefinite) as exc:
            build_proposal(Convex(), [1.0])
        assert exc.value.pivot == 0


class TestNewton:
    def test_quadratic_one_step_from_anywhere(self):
        rng = np.random.default_rng(1)
        mean = rng.standard_normal(4)
        t = gaussian_prior(mean, random_spd(4, rng))
        x = newton_step(t, rng.standard_normal(4) * 5)
        np.testing.assert_allclose(x, mean, atol=1e-10)

    def test_poisson_iterates_match_recurrence(self):
        # u <- u + 2 exp(-u) - 1; from -1.5 the first step overshoots to
        # 6.4634 and convergence to 1e-6 takes 11 iterations
        t = poisson_lograte_target([2])
        u = -1.5
        xs = np.array([-1.5])
        expected = []
        for _ in range(12):
            u = u + 2.0 * np.exp(-u) - 1.0
            expected.append(u)
            xs = newton_step(t, xs)
            assert xs[0] == pytest.approx(u, abs=1e-12)
        assert expected[0] == pytest.approx(6.463378140676129, abs=1e-12)
        assert abs(expected[4] - np.log(2.0)) > 1.0  # not converged at 5
        assert abs(expected[10] - np.log(2.0)) < 1e-6  # converged at 11

    def test_mode_fixed_point(self):
        t = poisson_lograte_target([2])
        x = newton_step(t, [np.log(2.0)])
        assert x[0] == pytest.approx(np.log(2.0), abs=1e-14)


class TestStep:
    def test_gaussian_always_accepts_with_zero_log_ratio(self):
        rng = np.random.default_rng(2)
        t = gaussian_prior(np.zeros(2), random_spd(2, rng))
        x = np.array([3.0, -1.0])
        cache = None
        for _ in range(200):
            x, rec, cache = tangent_step(t, x, cache, rng)
            assert rec.accepted
            assert abs(rec.log_ratio) < 1e-9

    def test_cached_step_costs_one_evaluation(self):
        rng = np.random.default_rng(3)
        t = gaussian_prior(np.zeros(2), np.eye(2))
        x, rec, cache = tangent_step(t, np.ones(2), None, rng)
        assert rec.cost.n_value == 2  # first step pays for both endpoints
        x, rec, cache = tangent_step(t, x, cache, rng)
        assert rec.cost.n_value == 1
        assert rec.cost.n_hessian == 1

    def test_degenerate_proposal_at_current_point_accepts(self):
        # force the proposal draw to land exactly on x_old: log_ratio is 0
        t = poisson_lograte_target([2])

        class StubRng:
            def standard_normal(self, n):
                return np.zeros(n)

            def random(self):
                return 0.5

        x0 = np.array([np.log(2.0)])  # mode: proposal mean equals x_old
        x, rec, _ = tangent_step(t, x0, None, StubRng())
        assert rec.accepted
        assert rec.log_ratio == pytest.approx(0.0, abs=1e-14)
        assert x[0] == x0[0]

    def test_poisson_posterior_mean_matches_quadrature(self):
        t = poisson_lograte_target([2])
        rng = np.random.default_rng(4)
        cfg = ChainConfig(n_burnin=200, n_samples=10000, n_newton=5)
        trace = run_chain(t, [np.log(2.0)], cfg, rng)
        grid, pdf, _ = poisson_quadrature([2])
        true_mean = np.trapezoid(grid * pdf, grid)
        true_var = np.trapezoid((grid - true_mean) ** 2 * pdf, grid)
        ess = effective_size(trace.samples[:, 0])
        mc_se = np.sqrt(true_var / ess)
        assert abs(trace.samples.mean() - true_mean) < 3 * mc_se


class TestRunChain:
    def test_empty_trace(self):
        t = gaussian_prior([0.0], np.eye(1))
        trace = run_chain(t, [1.0], ChainConfig(n_burnin=10, n_samples=0), np.random.default_rng(1))
        assert trace.n_steps == 0
        assert trace.total_cost()["n_value"] > 0  # burn-in still ran

    def test_gaussian_all_accepted(self):
        rng = np.random.default_rng(5)
        t = gaussian_prior(np.zeros(3), random_spd(3, rng))
        trace = run_chain(t, np.ones(3), ChainConfig(10, 500, n_newton=1), rng)
        assert trace.acceptance_rate() == 1.0

    def test_default_newton_split_is_half_burnin(self):
        assert ChainConfig(n_burnin=501, n_samples=0).newton_iterations == 250

    def test_eval_count_exactly_n_plus_one_pure_mh(self):
        t = gaussian_prior(np.zeros(2), np.eye(2))
        n = 157
        trace = run_chain(t, np.ones(2), ChainConfig(0, n), np.random.default_rng(8))
        assert trace.acceptance_rate() == 1.0
        assert trace.total_cost() == {
            "n_value": n + 1,
            "n_gradient": n + 1,
            "n_hessian": n + 1,
        }

    def test_eval_count_bound_with_rejections(self):
        t = poisson_lograte_target([1])  # eta0 = 1: plenty of rejections
        n = 400
        trace = run_chain(t, [0.0], ChainConfig(0, n), np.random.default_rng(9))
        assert trace.acceptance_rate() < 1.0
        assert trace.total_cost()["n_hessian"] <= 2 * n + 1

    def test_counters_monotone(self):
        t = poisson_lograte_target([2])
        trace = run_chain(t, [0.0], ChainConfig(50, 200), np.random.default_rng(10))
        assert np.all(np.diff(trace.n_value) >= 0)
        assert np.all(np.diff(trace.n_hessian) >= 0)

    def test_determinism_bit_identical(self):
        t = poisson_lograte_target([2])
        cfg = ChainConfig(100, 500)
        a = run_chain(t, [-1.0], cfg, np.random.default_rng(2024))
        b = run_chain(t, [-1.0], cfg, np.random.default_rng(2024))
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.accepted, b.accepted)

    def test_newton_phase_failure_is_fatal(self):
        # all-zero counts leave the likelihood flat in the limit: Newton
        # marches toward -inf but stays concave, so build a convex stub
        from tangentmh.targets import EvalCost, EvalResult

        class Convex:
            dim = 1

            def evaluate(self, x, *, gradient=False, hessian=False):
                return EvalResult(
                    -float(x[0]) ** 2,
                    np.array([-2.0 * x[0]]) if gradient else None,
                    np.array([[2.0]]) if hessian else None,  # wrong sign: convex
                    EvalCost(1, 1, 1),
                )

        with pytest.raises(HessianNotNegativeDefinite):
            run_chain(Convex(), [1.0], ChainConfig(4, 2, n_newton=2), np.random.default_rng(1))

    def test_mh_burnin_hessian_failures_are_counted(self):
        # f(u) = -u^2/2 + u^4/12: f'' = u^2 - 1 is positive for |u| > 1, so
        # proposals landing there fail; all 200 steps are MH burn-in
        from tangentmh.gibbs import BlockPartition, run_block_chain
        from tangentmh.targets import EvalCost, EvalResult

        class Quartic:
            dim = 1

            def evaluate(self, x, *, gradient=False, hessian=False):
                u = float(x[0])
                return EvalResult(
                    -0.5 * u**2 + u**4 / 12.0,
                    np.array([-u + u**3 / 3.0]) if gradient else None,
                    np.array([[u**2 - 1.0]]) if hessian else None,
                    EvalCost(1, int(gradient), int(hessian)),
                )

            def restrict(self, block, full):
                return self

        cfg = ChainConfig(200, 0, n_newton=0)
        single = run_chain(Quartic(), [0.0], cfg, np.random.default_rng(0))
        blocked = run_block_chain(
            Quartic(), BlockPartition.single(1), [0.0], cfg, np.random.default_rng(0)
        )
        assert blocked.meta["hessian_failures"] > 0
        assert single.meta["hessian_failures"] == blocked.meta["hessian_failures"]

    def test_non_finite_gradient_at_proposal_rejects(self):
        # standard normal log-density whose gradient is inf for u > 0.5:
        # proposals there have no finite Newton step and are rejected
        from tangentmh.targets import EvalCost, EvalResult

        class InfGradient:
            dim = 1

            def evaluate(self, x, *, gradient=False, hessian=False):
                u = float(x[0])
                g = np.inf if u > 0.5 else -u
                return EvalResult(
                    -0.5 * u**2,
                    np.array([g]) if gradient else None,
                    np.array([[-1.0]]) if hessian else None,
                    EvalCost(1, int(gradient), int(hessian)),
                )

        trace = run_chain(InfGradient(), [0.0], ChainConfig(0, 200), np.random.default_rng(0))
        assert trace.meta["hessian_failures"] > 0
        assert np.all(trace.samples <= 0.5)
        # at the current point it stays fatal
        with pytest.raises(ValueError):
            run_chain(InfGradient(), [1.0], ChainConfig(0, 10), np.random.default_rng(0))

    def test_nan_hessian_at_proposal_rejects(self):
        # standard normal log-density whose Hessian is NaN for u > 0.5:
        # proposals there have no Cholesky factor and are rejected
        from tangentmh.targets import EvalCost, EvalResult

        class NanHessian:
            dim = 1

            def evaluate(self, x, *, gradient=False, hessian=False):
                u = float(x[0])
                return EvalResult(
                    -0.5 * u**2,
                    np.array([-u]) if gradient else None,
                    np.array([[np.nan if u > 0.5 else -1.0]]) if hessian else None,
                    EvalCost(1, int(gradient), int(hessian)),
                )

        trace = run_chain(NanHessian(), [0.0], ChainConfig(0, 200), np.random.default_rng(0))
        assert trace.meta["hessian_failures"] > 0
        assert np.all(trace.samples <= 0.5)


class TestDistributionalCorrectness:
    def test_kernel_leaves_target_invariant(self):
        # stationarity: chains started from exact draws of the target
        # (u = log Gamma(2,1) for counts {2}) stay marginally correct at
        # every step if the kernel preserves the density, independently of
        # how fast a single chain mixes into the tails
        t = poisson_lograte_target([2])
        rng = np.random.default_rng(42)
        n_chains, n_steps = 12000, 3
        starts = np.log(rng.gamma(2.0, 1.0, size=n_chains))
        pool = np.empty((n_chains, n_steps))
        for c in range(n_chains):
            x = np.array([starts[c]])
            cache = None
            for s in range(n_steps):
                x, _, cache = tangent_step(t, x, cache, rng)
                pool[c, s] = x[0]
        grid, _, cdf = poisson_quadrature([2])
        assert ks_statistic(pool.ravel(), grid, cdf) < 0.015
        assert ks_statistic(pool[:, -1], grid, cdf) < 0.02
