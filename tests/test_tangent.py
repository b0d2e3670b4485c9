import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tangentmh.diagnostics import effective_size
from tangentmh.linalg import MvnDistribution, cholesky, mvn_logpdf, mvn_sample
from tangentmh.targets import (
    EvalCost,
    EvalResult,
    GaussianPriorTarget,
    LogisticTarget,
    poisson_lograte_target,
)
from tangentmh.tangent import (
    ChainConfig,
    HessianNotNegativeDefinite,
    StepRecord,
    _fit_proposal,
    _NonFiniteNewtonMean,
    _Proposal,
    _ScalarProposal,
    _StackedProposal,
    build_proposal,
    newton_step,
    run_chain,
    tangent_step,
)

from helpers import ks_statistic, poisson_quadrature, random_spd, trace_sha256


class TestBuildProposal:
    def test_gaussian_target_reproduces_itself_from_anywhere(self):
        rng = np.random.default_rng(0)
        mean = rng.standard_normal(3)
        prec = random_spd(3, rng)
        t = GaussianPriorTarget(mean, prec)
        for _ in range(10):
            x = 3.0 * rng.standard_normal(3)
            prop = build_proposal(t, x)
            np.testing.assert_allclose(prop.mean, mean, atol=1e-10)
            np.testing.assert_allclose(prop.lower @ prop.lower.T, prec, rtol=1e-10)

    def test_poisson_at_zero_closed_form(self):
        # f'(0) = 2 - 1, f''(0) = -1: mean 1, precision 1
        t = poisson_lograte_target([2])
        prop = build_proposal(t, [0.0])
        assert prop.mean[0] == pytest.approx(1.0, abs=1e-14)
        assert (prop.lower @ prop.lower.T)[0, 0] == pytest.approx(1.0, abs=1e-14)

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


def _target_and_start(dim):
    """Poisson at dim 1 (the float record), logistic at dim 3 (the LAPACK one)."""
    if dim == 1:
        return poisson_lograte_target([2]), np.array([-0.5])
    rng = np.random.default_rng(31)
    X = rng.standard_normal((40, dim))
    y = (rng.random(40) < 0.5).astype(float)
    return LogisticTarget(X, y), np.zeros(dim)


class TestFittedRecord:
    """``build_proposal``'s record is also the chain's cache: it carries the
    point's value and evaluation cost."""

    @pytest.mark.parametrize("dim", [1, 3])
    def test_record_carries_value_and_cost(self, dim):
        t, x0 = _target_and_start(dim)
        rng = np.random.default_rng(dim)
        for _ in range(5):
            x = x0 + 0.5 * rng.standard_normal(x0.size)
            fit = build_proposal(t, x)
            assert fit.value == t.evaluate(x).value
            assert fit.cost == EvalCost(1, 1, 1)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_cached_record_steps_like_reevaluation(self, dim):
        # the record returned by a step, passed back, replaces evaluating
        # the current point; only the counters differ
        t, x0 = _target_and_start(dim)
        runs = []
        for reuse in (True, False):
            rng = np.random.default_rng(77)
            x, fitted, xs, ratios, n_value = x0, None, [], [], 0
            for _ in range(300):
                x, rec, fitted = tangent_step(t, x, fitted if reuse else None, rng)
                xs.append(x)
                ratios.append(rec.log_ratio)
                n_value += rec.cost.n_value
            runs.append((np.array(xs), ratios, n_value))
        (xs_a, ratios_a, n_a), (xs_b, ratios_b, n_b) = runs
        assert np.array_equal(xs_a, xs_b)
        assert ratios_a == ratios_b
        assert (n_a, n_b) == (301, 600)


def _fit_outcome(fit, x, res):
    """The fitted record, or the failure as (exception type, pivot)."""
    try:
        return fit(x, res)
    except HessianNotNegativeDefinite as err:
        return (HessianNotNegativeDefinite, err.pivot)
    except _NonFiniteNewtonMean:
        return (_NonFiniteNewtonMean, None)


class TestProposalRecord:
    """The kernel's proposal records against cholesky + solve + mvn_sample +
    mvn_logpdf, compared with ``==``."""

    @staticmethod
    def _check_equal(rec, x, g, h, seed, y):
        factor = cholesky(-h)
        dist = MvnDistribution(x + factor.solve(g), factor)
        draw = mvn_sample(dist, np.random.default_rng(seed))
        assert np.array_equal(rec.mean, dist.mean)
        assert np.array_equal(rec.propose(np.random.default_rng(seed))[0], draw)
        assert rec.log_q(draw) == mvn_logpdf(dist, draw)
        assert rec.log_q(y) == mvn_logpdf(dist, y)
        assert rec.log_q(x) == mvn_logpdf(dist, x)

    def test_scalar_record_bit_identical_to_general_path(self):
        rng = np.random.default_rng(6)
        n = 20000
        xs = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3, n)
        gs = rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 6, n)
        hs = -(10.0 ** rng.uniform(-8, 8, n))
        ys = xs + rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3, n)
        for i in range(n):
            x, g, h = np.array([xs[i]]), np.array([gs[i]]), np.array([[hs[i]]])
            rec = _fit_proposal(x, EvalResult(0.0, g, h))
            assert isinstance(rec, _ScalarProposal)
            self._check_equal(rec, x, g, h, i, np.array([ys[i]]))

    @pytest.mark.parametrize("dim", [2, 3, 5, 10])
    def test_general_record_equals_linalg_functions(self, dim):
        rng = np.random.default_rng(dim)
        for i in range(50):
            x = rng.standard_normal(dim)
            g = rng.standard_normal(dim)
            h = -random_spd(dim, rng)
            rec = _fit_proposal(x, EvalResult(0.0, g, h))
            assert isinstance(rec, _Proposal)
            # the record holds cholesky's factor in its own (Fortran) layout
            assert rec.lower.flags.f_contiguous
            assert rec.lower.tobytes(order="F") == cholesky(-h).lower.tobytes(order="F")
            self._check_equal(rec, x, g, h, i, rng.standard_normal(dim))

    @pytest.mark.parametrize("dim", range(2, 11))
    def test_log_q_at_own_draw_from_its_normals(self, dim):
        # propose's log q comes from the draw's normals, log_q's from the
        # draw itself: equal to rounding, with the same draw and stream
        rng = np.random.default_rng(100 + dim)
        for i in range(50):
            h = -random_spd(dim, rng) * 10.0 ** rng.uniform(-3, 3)
            rec = _fit_proposal(rng.standard_normal(dim), EvalResult(0.0, rng.standard_normal(dim), h))
            a, b = np.random.default_rng(i), np.random.default_rng(i)
            y, log_q_y = rec.propose(a)
            assert np.array_equal(y, rec.propose(b)[0])
            assert a.bit_generator.state == b.bit_generator.state
            np.testing.assert_allclose(log_q_y, rec.log_q(y), rtol=1e-12)

    def test_scalar_log_q_at_own_draw_bit_identical(self):
        rng = np.random.default_rng(16)
        for i in range(2000):
            x, g, h = rng.standard_normal(1), rng.standard_normal(1), -(10.0 ** rng.uniform(-8, 8, (1, 1)))
            rec = _fit_proposal(x, EvalResult(0.0, g, h))
            y, log_q_y = rec.propose(np.random.default_rng(i))
            assert np.array_equal(y, rec.propose(np.random.default_rng(i))[0])
            assert log_q_y == rec.log_q(y)

    @pytest.mark.parametrize(
        "g, h",
        [(1.0, np.nan), (1.0, np.inf), (1.0, -np.inf), (1.0, 0.0), (1.0, -0.0),
         (1.0, 2.0), (1.0, 5e-324), (np.inf, -1.0), (-np.inf, -1.0), (np.nan, -1.0),
         (1e300, -1e-300), (1.0, -5e-324), (1.0, -1e300)],
    )
    def test_scalar_record_fails_like_general_path(self, g, h):
        x, res = np.array([0.5]), EvalResult(0.0, np.array([g]), np.array([[h]]))
        scalar, general = _fit_outcome(_ScalarProposal, x, res), _fit_outcome(_Proposal, x, res)
        if isinstance(general, tuple):
            assert scalar == general
        else:
            self._check_equal(scalar, x, res.gradient, res.hessian, 0, np.array([0.25]))
        if not (np.isfinite(h) and h < 0.0):
            assert scalar == (HessianNotNegativeDefinite, 0)
        elif not np.isfinite(g):
            assert scalar == (_NonFiniteNewtonMean, None)


class TestRecordsImmutable:
    def test_step_record_fields_cannot_be_assigned(self):
        _, rec, _ = tangent_step(poisson_lograte_target([2]), [0.5], None, np.random.default_rng(0))
        assert isinstance(rec, StepRecord)
        for name in StepRecord._fields:
            with pytest.raises(AttributeError):
                setattr(rec, name, None)

    def test_step_record_construction(self):
        cost = EvalCost(1, 1, 1)
        rec = StepRecord(True, -0.5, cost)
        assert rec == StepRecord(accepted=True, log_ratio=-0.5, cost=cost, hessian_failure=False)
        assert (rec.accepted, rec.log_ratio, rec.cost, rec.hessian_failure) == (True, -0.5, cost, False)


class TestNewton:
    def test_quadratic_one_step_from_anywhere(self):
        rng = np.random.default_rng(1)
        mean = rng.standard_normal(4)
        t = GaussianPriorTarget(mean, random_spd(4, rng))
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
        t = GaussianPriorTarget(np.zeros(2), random_spd(2, rng))
        x = np.array([3.0, -1.0])
        cache = None
        for _ in range(200):
            x, rec, cache = tangent_step(t, x, cache, rng)
            assert rec.accepted
            assert abs(rec.log_ratio) < 1e-9

    def test_cached_step_costs_one_evaluation(self):
        rng = np.random.default_rng(3)
        t = GaussianPriorTarget(np.zeros(2), np.eye(2))
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
        t = GaussianPriorTarget([0.0], np.eye(1))
        trace = run_chain(t, [1.0], ChainConfig(n_burnin=10, n_samples=0), np.random.default_rng(1))
        assert trace.n_steps == 0
        assert trace.total_cost()["n_value"] > 0  # burn-in still ran

    def test_gaussian_all_accepted(self):
        rng = np.random.default_rng(5)
        t = GaussianPriorTarget(np.zeros(3), random_spd(3, rng))
        trace = run_chain(t, np.ones(3), ChainConfig(10, 500, n_newton=1), rng)
        assert trace.acceptance_rate() == 1.0

    def test_default_newton_split_is_half_burnin(self):
        assert ChainConfig(n_burnin=501, n_samples=0).newton_iterations == 250

    def test_eval_count_exactly_n_plus_one_pure_mh(self):
        t = GaussianPriorTarget(np.zeros(2), np.eye(2))
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

    def test_w1_chain_pinned(self):
        # W1's tangent chain (c04's target, start and seed, 5 Newton steps),
        # short: samples, acceptance flags and counters keep their bits
        t = poisson_lograte_target([2])
        trace = run_chain(t, np.array([np.log(2.0)]), ChainConfig(50, 2000, n_newton=5), np.random.default_rng(42))
        assert trace.total_cost() == {"n_value": 2051, "n_gradient": 2051, "n_hessian": 2051}
        assert trace_sha256(trace) == "ff63b1b20e74c18ad71fc1b0289454a167559bc9a7e1acfedbf1d461e8982469"

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

        cfg = ChainConfig(200, 0, n_newton=0)
        single = run_chain(Quartic(), [0.0], cfg, np.random.default_rng(0))
        blocked = run_block_chain(
            Quartic(), BlockPartition([np.arange(1)]), [0.0], cfg, np.random.default_rng(0)
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


class PoissonStack:
    """The count-2 Poisson log-rate density as a stacked target on a (J, 1)
    stack of points."""

    def evaluate(self, u, *, gradient=False, hessian=False):
        rate = np.exp(u[:, 0])
        return EvalResult(2.0 * u[:, 0] - rate, (2.0 - rate)[:, None], -rate[:, None, None])


class GaussianStack:
    """J Gaussian log-densities -(1/2)(x - mu_j)^T P_j (x - mu_j) as a
    stacked target; ``plant`` edits the results at every point but
    ``clean``."""

    def __init__(self, n_groups, dim, rng, plant=None, clean=None):
        self.mean = rng.standard_normal((n_groups, dim))
        self.precision = np.array([random_spd(dim, rng) for _ in range(n_groups)])
        self.plant, self.clean = plant, clean

    def evaluate(self, x, *, gradient=False, hessian=False):
        pd = np.matmul(self.precision, (x - self.mean)[:, :, None])[:, :, 0]
        res = (-0.5 * np.einsum("ij,ij->i", x - self.mean, pd), -pd, -self.precision.copy())
        if self.plant is not None and x is not self.clean:
            self.plant(*res)
        return EvalResult(*res, EvalCost(x.shape[0], x.shape[0], x.shape[0]))


class TestStackedStep:
    """``tangent_step`` on a (J, m) stack of points."""

    def test_kernel_leaves_each_target_invariant(self):
        # the stationarity test's 12,000 exact-start chains, as one stack
        rng = np.random.default_rng(42)
        n_chains, n_steps = 12000, 3
        x = np.log(rng.gamma(2.0, 1.0, size=n_chains))[:, None]
        target = PoissonStack()
        pool = np.empty((n_chains, n_steps))
        for s in range(n_steps):
            x, rec, _ = tangent_step(target, x, None, rng)
            assert not rec.hessian_failure.any()
            pool[:, s] = x[:, 0]
        grid, _, cdf = poisson_quadrature([2])
        assert ks_statistic(pool.ravel(), grid, cdf) < 0.015
        assert ks_statistic(pool[:, -1], grid, cdf) < 0.02

    def test_counts_both_evaluations_uncached(self):
        rng = np.random.default_rng(7)
        target = GaussianStack(4, 2, rng)
        x = rng.standard_normal((4, 2))
        _, rec, fitted = tangent_step(target, x, None, rng)
        assert rec.cost == EvalCost(8, 8, 8)
        # a stacked step returns no fitted record, but takes one
        assert fitted is None
        _, rec, fitted = tangent_step(target, x, build_proposal(target, x), rng)
        assert rec.cost == EvalCost(4, 4, 4)
        assert fitted is None

    @pytest.mark.parametrize("dim", [1, 3])
    def test_gaussian_stack_always_accepts_with_zero_log_ratio(self, dim):
        rng = np.random.default_rng(2)
        target = GaussianStack(6, dim, rng)
        x = 3.0 * rng.standard_normal((6, dim))
        for _ in range(200):
            x, rec, _ = tangent_step(target, x, None, rng)
            assert rec.accepted.all() and not rec.hessian_failure.any()
            assert np.abs(rec.log_ratio).max() < 1e-9

    def test_random_stream_layout(self):
        # one (J, m) normal draw, then J uniforms, drawn even when every
        # log ratio is >= 0
        rng, ref = np.random.default_rng(8), np.random.default_rng(8)
        target = GaussianStack(4, 3, np.random.default_rng(9))
        tangent_step(target, np.zeros((4, 3)), None, rng)
        ref.standard_normal((4, 3))
        ref.random(4)
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("plant", ["nan_hessian", "inf_gradient"])
    def test_failed_proposal_rejects_its_group_only(self, plant):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 3))

        def planted(values, grads, hessians):
            if plant == "nan_hessian":
                hessians[2, 1, 1] = np.nan
            else:
                grads[2, 0] = np.inf

        target = GaussianStack(5, 3, rng, planted, x)
        x_new, rec, _ = tangent_step(target, x, None, rng)
        failed = rec.hessian_failure
        assert failed.tolist() == [False, False, True, False, False]
        assert int(failed.sum()) == 1
        assert rec.accepted.tolist() == [True, True, False, True, True]
        assert rec.log_ratio[2] == -np.inf
        assert np.array_equal(x_new[2], x[2])
        assert np.abs(rec.log_ratio[~failed]).max() < 1e-9

    def test_stacked_fit_equals_numpy_per_group(self):
        # the fit's factors and inverses are numpy's wrappers' bytes, group by group
        rng = np.random.default_rng(5)
        target = GaussianStack(6, 4, rng)
        fit = build_proposal(target, rng.standard_normal((6, 4)))
        for precision, lower, inverse in zip(target.precision, fit.lower, fit.inverse):
            assert lower.tobytes() == np.linalg.cholesky(precision).tobytes()
            assert inverse.tobytes() == np.linalg.inv(lower).tobytes()

    def test_failed_factors_warn_nowhere(self):
        # an indefinite, a NaN and an infinite-diagonal negated Hessian:
        # rejected at the proposals and fatal at the current points, with
        # the pivot cholesky names and without a warning
        bad = {1: (np.diag([-1.0, -1.0, 1.0]), 2), 2: (np.full((3, 3), np.nan), 0),
               3: (np.diag([-1.0, -np.inf, -1.0]), 1)}

        def planted(groups):
            def plant(values, grads, hessians):
                for j in groups:
                    hessians[j] = bad[j][0]
            return plant

        rng = np.random.default_rng(6)
        x = rng.standard_normal((5, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x_new, rec, _ = tangent_step(GaussianStack(5, 3, rng, planted(bad), x), x, None, rng)
            assert rec.hessian_failure.tolist() == [False, True, True, True, False]
            assert np.array_equal(x_new[1:4], x[1:4])
            for j, (_, pivot) in bad.items():
                with pytest.raises(HessianNotNegativeDefinite) as exc:
                    build_proposal(GaussianStack(5, 3, rng, planted([j])), x)
                assert exc.value.pivot == pivot
                assert np.array_equal(exc.value.point, x[j])

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 6), st.integers(1, 4), st.integers(0, 2**32 - 1),
           st.lists(st.sampled_from(["ok", "ok", "inf", "-inf", "nan", "indefinite"]), min_size=6, max_size=6))
    def test_failed_flags_are_each_group_alone(self, n_groups, dim, seed, kinds):
        # a stacked fit with infinite or NaN gradient entries and indefinite
        # Hessians flags exactly the groups whose one-point fit raises, and
        # raises for the first of them what that fit raises
        rng = np.random.default_rng(seed)
        target = GaussianStack(n_groups, dim, rng)
        x = rng.standard_normal((n_groups, dim))
        values, grads, hessians, cost = target.evaluate(x, gradient=True, hessian=True)
        for j, kind in enumerate(kinds[:n_groups]):
            if kind == "indefinite":
                hessians[j, -1, -1] = -hessians[j, -1, -1]
            elif kind != "ok":
                grads[j, rng.integers(dim)] = float(kind)
        fit = _StackedProposal(x, EvalResult(values, grads, hessians, cost))
        alone = []
        for j in range(n_groups):
            try:
                _Proposal(x[j], EvalResult(values[j], grads[j], hessians[j], cost))
                alone.append(None)
            except (HessianNotNegativeDefinite, _NonFiniteNewtonMean) as err:
                alone.append(err)
        assert fit.failed.tolist() == [err is not None for err in alone]
        assert fit.any_failed is any(err is not None for err in alone)
        assert np.array_equal(fit.mean[fit.failed], x[fit.failed])
        first = next((err for err in alone if err is not None), None)
        if first is None:
            fit.raise_failure()
        else:
            with pytest.raises(type(first)) as exc:
                fit.raise_failure()
            assert str(exc.value) == str(first)

    def test_failure_at_current_point_is_fatal(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 2))

        def not_concave(values, grads, hessians):
            hessians[1] = -hessians[1]  # positive definite: not log-concave there

        target = GaussianStack(3, 2, rng, not_concave)
        with pytest.raises(HessianNotNegativeDefinite) as exc:
            tangent_step(target, x, None, rng)
        assert exc.value.pivot == 0
        assert np.array_equal(exc.value.point, x[1])
        with pytest.raises(HessianNotNegativeDefinite):
            build_proposal(target, x)

        def infinite_gradient(values, grads, hessians):
            grads[2, 1] = np.inf

        target.plant = infinite_gradient
        with pytest.raises(_NonFiniteNewtonMean):
            tangent_step(target, x, None, rng)
