import re
import sys
import threading
from functools import reduce
from operator import add

import numpy as np
import pytest
from scipy.special import expit

import tangentmh.targets as targets_module
from tangentmh.concavity import _fd_hessian_of_value
from tangentmh.linalg import NotPositiveDefinite, cholesky
from tangentmh.slicer import SliceConfig, slice_sweep
from tangentmh.tangent import build_proposal, newton_step, tangent_step
from tangentmh.targets import (
    AdditiveTarget,
    BernoulliBase,
    ConcaveQuadraticBase,
    EvalCost,
    EvalResult,
    GaussianPriorTarget,
    LinearProjectionTarget,
    LogisticTarget,
    PoissonLogRateTarget,
    poisson_lograte_target,
    replicated_poisson_target,
)

from helpers import fd_gradient, fd_hessian_of_gradient, random_spd


def random_logistic(rng, n=50, k=5):
    X = rng.standard_normal((n, k))
    beta = rng.standard_normal(k) / np.sqrt(k)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(X @ beta)))).astype(float)
    return X, y


def check_derivatives(target, x, grad_rtol=1e-5, hess_rtol=1e-4):
    res = target.evaluate(x, gradient=True, hessian=True)
    g_fd = fd_gradient(lambda v: target.evaluate(v).value, x)
    scale = max(np.linalg.norm(res.gradient), 1e-8)
    assert np.linalg.norm(res.gradient - g_fd) / scale < grad_rtol
    h_fd = fd_hessian_of_gradient(
        lambda v: target.evaluate(v, gradient=True).gradient, x
    )
    hscale = max(np.linalg.norm(res.hessian, "fro"), 1e-8)
    assert np.linalg.norm(res.hessian - h_fd, "fro") / hscale < hess_rtol


class TestEvalResult:
    def test_eval_result_is_immutable(self):
        res = GaussianPriorTarget(np.zeros(2), np.eye(2)).evaluate(np.ones(2), gradient=True, hessian=True)
        assert isinstance(res, EvalResult)
        for name in EvalResult._fields:
            with pytest.raises(AttributeError):
                setattr(res, name, None)

    def test_eval_result_construction(self):
        g, h = np.ones(1), -np.ones((1, 1))
        res = EvalResult(1.5, g, h, EvalCost(1, 1, 1))
        assert res == EvalResult(value=1.5, gradient=g, hessian=h, cost=EvalCost(1, 1, 1))
        bare = EvalResult(2.0)
        assert (bare.value, bare.gradient, bare.hessian, bare.cost) == (2.0, None, None, EvalCost(0, 0, 0))


class TestEvalCost:
    def test_fields_are_immutable(self):
        cost = EvalCost(1, 2, 3)
        for name in EvalCost._fields:
            with pytest.raises(AttributeError):
                setattr(cost, name, 5)
        assert cost == EvalCost(1, 2, 3)

    def test_sum_adds_field_by_field(self):
        # not tuple concatenation
        total = EvalCost(1, 2, 3) + EvalCost(10, 20, 30)
        assert type(total) is EvalCost
        assert total == EvalCost(11, 22, 33) and len(total) == 3
        assert EvalCost() + EvalCost(0, 1, 1) == EvalCost(0, 1, 1)
        assert reduce(add, [EvalCost(1, 0, 0)] * 3) == EvalCost(3, 0, 0)

    def test_summed_costs_are_eval_costs(self):
        # tuple equality would also pass a plain tuple: the sums' type is checked
        prior = GaussianPriorTarget(np.zeros(2), np.eye(2))
        target = AdditiveTarget([prior, prior])
        assert type(target.evaluate(np.zeros(2), gradient=True).cost) is EvalCost
        assert type(target.coordinate_lines(np.zeros(2))[2]) is EvalCost
        assert type(slice_sweep(target, np.zeros(2), SliceConfig(), np.random.default_rng(1))[2]) is EvalCost


class TestLogistic:
    def test_value_at_zero_is_minus_n_log2(self):
        rng = np.random.default_rng(0)
        X, y = random_logistic(rng, n=40, k=3)
        t = LogisticTarget(X, y)
        res = t.evaluate(np.zeros(3), gradient=True)
        assert res.value == pytest.approx(-40 * np.log(2.0), rel=1e-12)
        np.testing.assert_allclose(res.gradient, X.T @ (y - 0.5), rtol=1e-12)

    def test_single_observation_closed_form(self):
        t = LogisticTarget(np.array([[1.0]]), np.array([1.0]))
        res = t.evaluate([0.0], gradient=True, hessian=True)
        np.testing.assert_allclose(res.gradient, [0.5])
        np.testing.assert_allclose(res.hessian, [[-0.25]])

    def test_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(1)
        X, y = random_logistic(rng)
        t = LogisticTarget(X, y)
        for _ in range(5):
            check_derivatives(t, rng.standard_normal(5), grad_rtol=1e-6)

    def test_stable_for_extreme_linear_predictor(self):
        t = LogisticTarget(np.array([[1.0], [1.0]]), np.array([1.0, 0.0]))
        res = t.evaluate([900.0], gradient=True, hessian=True)
        assert np.isfinite(res.value)
        assert res.value == pytest.approx(-900.0)
        assert np.all(np.isfinite(res.gradient))

    def test_hessian_negative_semidefinite_everywhere(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            X, y = random_logistic(rng, n=30, k=4)
            t = LogisticTarget(X, y)
            h = t.evaluate(2.0 * rng.standard_normal(4), hessian=True).hessian
            assert np.max(np.linalg.eigvalsh(h)) <= 1e-12

    def test_rejects_bad_responses(self):
        with pytest.raises(ValueError):
            LogisticTarget(np.eye(2), np.array([0.0, 2.0]))

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("k", [1, 2, 10])
    def test_table_hessian_matches_the_weighted_product(self, k, order):
        rng = np.random.default_rng(40 + k)
        X, y = random_logistic(rng, n=200, k=k)
        X = np.asarray(X, order=order)
        target = LogisticTarget(X, y)
        assert target._X.flags.f_contiguous or order == "C"
        for _ in range(3):
            b = rng.standard_normal(k)
            h = target.evaluate(b, hessian=True).hessian
            w = expit(X @ b) * (1.0 - expit(X @ b))
            assert h.shape == (k, k) and np.array_equal(h, h.T)
            np.testing.assert_allclose(h, -(X * w[:, None]).T @ X, rtol=1e-12)
        rows, _ = target._hessian_rows
        assert rows.shape == (k * (k + 1) // 2, 200) and rows.flags.c_contiguous

    @pytest.mark.parametrize("k, max_bytes", [(16, None), (3, 3 * 200 * 8 - 1)])
    def test_designs_past_the_table_bound_build_no_table(self, k, max_bytes, monkeypatch):
        # a design wider than the measured table regime, or one whose
        # table would pass the byte bound (here lowered just below a
        # 200-row, 3-column table's 4,800 bytes), forms the weighted
        # product instead and keeps no table
        if max_bytes is not None:
            monkeypatch.setattr(targets_module, "_TABLE_MAX_BYTES", max_bytes)
        rng = np.random.default_rng(50 + k)
        X, y = random_logistic(rng, n=200, k=k)
        target = LogisticTarget(X, y)
        for _ in range(3):
            b = rng.standard_normal(k) / np.sqrt(k)
            h = target.evaluate(b, hessian=True).hessian
            w = expit(X @ b) * (1.0 - expit(X @ b))
            assert h.shape == (k, k) and np.array_equal(h, h.T)
            np.testing.assert_allclose(h, -(X * w[:, None]).T @ X, rtol=1e-12)
        assert target._hessian_rows is None

    def test_table_regime_bounds(self):
        # the largest table is 15 columns and 32 MiB: 120 pairs of 8 bytes
        # over 34,952 rows
        assert targets_module._table_fits(34_952, 15)
        assert not targets_module._table_fits(34_953, 15)
        assert not targets_module._table_fits(10, 16)
        assert not targets_module._table_fits(100_000, 100)

    def test_hessian_table_shared_across_threads_stays_exact(self):
        # threads racing on a fresh target's first Hessians may build the
        # row-product table twice, never read a partial one; rows enough
        # for numpy to release the interpreter lock
        rng = np.random.default_rng(20)
        X, y = random_logistic(rng, n=4000, k=6)
        points = rng.standard_normal((8, 6))
        want = [LogisticTarget(X, y).evaluate(b, hessian=True).hessian for b in points]
        for _ in range(3):
            target, mismatches = LogisticTarget(X, y), []

            def work(seed):
                pick = np.random.default_rng(seed)
                for _ in range(40):
                    i = pick.integers(len(points))
                    if not np.array_equal(target.evaluate(points[i], hessian=True).hessian, want[i]):
                        mismatches.append(seed)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=work, args=(s,)) for s in range(6)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            assert mismatches == []

    def test_value_within_2_ulp_of_logaddexp_per_row(self):
        # within 2 ulp of the row's larger term: for y = 0 the two terms
        # may cancel, and the rounding of each is all either form controls
        special = [0.0, 1e-300, 1.0, 36.0, 700.0, 800.0]
        rows = np.concatenate([special, np.negative(special), 40.0 * np.random.default_rng(4).standard_normal(200)])
        for t in rows:
            softplus = np.logaddexp(0.0, -t)
            for y in (0.0, 1.0):
                got = LogisticTarget(np.array([[1.0]]), np.array([y])).evaluate([t]).value
                want = -((1.0 - y) * t + softplus)
                assert abs(got - want) <= 2 * np.spacing(max(abs((1.0 - y) * t), softplus)), (t, y)

    def test_restrict_keeps_no_state(self):
        # a conditional may be shared: evaluating it writes none of its fields
        rng = np.random.default_rng(4)
        X, y = random_logistic(rng, n=30, k=6)
        r = LogisticTarget(X, y).restrict(np.array([0, 3]), rng.standard_normal(6))
        before = {name: np.copy(v) for name, v in vars(r).items() if isinstance(v, np.ndarray)}
        names = set(vars(r))
        r.evaluate(rng.standard_normal(2), gradient=True, hessian=True)
        assert set(vars(r)) == names
        assert all(np.array_equal(vars(r)[name], v) for name, v in before.items())

    def test_restrict_matches_splice(self):
        rng = np.random.default_rng(3)
        X, y = random_logistic(rng, n=30, k=6)
        t = LogisticTarget(X, y)
        full = rng.standard_normal(6)
        block = np.array([1, 4])
        r = t.restrict(block, full)
        b = rng.standard_normal(2)
        spliced = full.copy()
        spliced[block] = b
        res_r = r.evaluate(b, gradient=True, hessian=True)
        res_f = t.evaluate(spliced, gradient=True, hessian=True)
        assert res_r.value == pytest.approx(res_f.value, rel=1e-12)
        np.testing.assert_allclose(res_r.gradient, res_f.gradient[block], rtol=1e-10)
        np.testing.assert_allclose(
            res_r.hessian, res_f.hessian[np.ix_(block, block)], rtol=1e-10
        )


class TestPoissonLogRate:
    def test_mode_and_curvature_single_count_2(self):
        t = poisson_lograte_target([2])
        assert t.mode() == pytest.approx(np.log(2.0), abs=1e-15)
        res = t.evaluate([np.log(2.0)], gradient=True, hessian=True)
        assert res.gradient[0] == pytest.approx(0.0, abs=1e-12)
        assert res.hessian[0, 0] == pytest.approx(-2.0)
        assert t.third_derivative(np.log(2.0)) == pytest.approx(-2.0)

    def test_replicated_unit_counts(self):
        t = replicated_poisson_target(1, 7)
        assert t.mode() == 0.0
        assert t.evaluate([0.0], hessian=True).hessian[0, 0] == pytest.approx(-7.0)

    def test_replicated_fractional_count_refused(self):
        # an integer cast used to truncate 2.5 to counts [2, 2, 2]
        with pytest.raises(ValueError, match="non-negative integers"):
            replicated_poisson_target(2.5, 3)
        assert replicated_poisson_target(2, 3).total_count == 6.0

    def test_all_zero_counts_mode_rejected(self):
        t = poisson_lograte_target([0, 0])
        assert np.isfinite(t.evaluate([0.0]).value)
        with pytest.raises(ValueError):
            t.mode()

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            poisson_lograte_target([-1])

    @pytest.mark.parametrize("count", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_counts(self, count):
        # inf equals its own floor; accepted, it made every value NaN
        with pytest.raises(ValueError, match="non-negative integers"):
            poisson_lograte_target([2.0, count])

    def test_rejects_a_total_count_past_the_float_range(self):
        # each count is finite, their sum is not; accepted, every value was
        # NaN, after an overflow warning
        with pytest.raises(ValueError, match="total count is not finite"):
            PoissonLogRateTarget([1e308, 1e308])
        assert PoissonLogRateTarget([1e308, 7e307]).total_count == 1e308 + 7e307

    @pytest.mark.parametrize("counts", [[2], [3, 0, 2], [1] * 1000])
    def test_beyond_exp_range_is_minus_inf_without_a_warning(self, counts):
        # n exp(u) overflows past 709.78 - log n; evaluate([710.0]) warned, an
        # error under tier-1's warning filter
        t = PoissonLogRateTarget(counts)
        line, _, _ = t.coordinate_lines([0.0])
        logf = line(0)
        for u in (710.0, 800.0, 1e300):
            res = t.evaluate([u], gradient=True, hessian=True)
            assert (res.value, res.gradient[0], res.hessian[0, 0]) == (-np.inf, -np.inf, -np.inf)
            assert logf(u) == -np.inf
            assert t.coordinate_lines([u])[1] == -np.inf

    @pytest.mark.parametrize("counts", [[1e10], [1e306], [0]])
    @pytest.mark.parametrize("u", [1e300, np.inf])
    def test_total_times_u_overflowing_with_the_rates_is_minus_inf(self, counts, u):
        # total * u overflows to inf together with n exp(u), and inf - inf
        # was NaN with an 'invalid' warning
        t = PoissonLogRateTarget(counts)
        res = t.evaluate([u], gradient=True, hessian=True)
        assert (res.value, res.gradient[0], res.hessian[0, 0]) == (-np.inf, -np.inf, -np.inf)
        assert t.coordinate_lines([0.0])[0](0)(u) == -np.inf
        assert t.coordinate_lines([u])[1] == -np.inf

    @pytest.mark.parametrize("counts", [[2], [3, 0, 2], [1] * 1000])
    def test_below_and_across_the_overflow_branch_bit_for_bit(self, counts):
        # evaluate's and the line's arithmetic on both sides of 709 - log n,
        # against the formula computed here
        t = PoissonLogRateTarget(counts)
        n, total = len(counts), float(sum(counts))
        limit = 709.0 - np.log(n)
        logf = t.coordinate_lines([0.0])[0](0)
        points = np.concatenate([np.linspace(-40.0, 5.0, 201), [limit, np.nextafter(limit, np.inf)],
                                 np.linspace(limit - 1.0, limit + 0.7, 50)])
        for u in points.tolist():
            rate_sum = n * np.exp(u)
            want = (total * u - rate_sum, total - rate_sum, -rate_sum)
            res = t.evaluate([u], gradient=True, hessian=True)
            got = (res.value, res.gradient[0], res.hessian[0, 0])
            assert np.array(got).tobytes() == np.array(want).tobytes()
            assert np.float64(logf(u)).tobytes() == np.float64(want[0]).tobytes()

    def test_derivatives(self):
        rng = np.random.default_rng(4)
        t = poisson_lograte_target([3, 0, 2, 5])
        for _ in range(5):
            check_derivatives(t, rng.uniform(-2, 2, size=1))


class TestGaussianPrior:
    def test_value_gradient_at_mean(self):
        t = GaussianPriorTarget(np.array([1.0, 2.0]), np.eye(2))
        res = t.evaluate([1.0, 2.0], gradient=True)
        assert res.value == 0.0
        np.testing.assert_array_equal(res.gradient, [0.0, 0.0])

    def test_one_dim_precision_four(self):
        t = GaussianPriorTarget([0.5], np.array([[4.0]]))
        res = t.evaluate([1.5], gradient=True, hessian=True)
        assert res.value == pytest.approx(-2.0)
        np.testing.assert_allclose(res.gradient, [-4.0])
        np.testing.assert_allclose(res.hessian, [[-4.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_mean_rejected_at_construction(self, bad):
        # used to evaluate to a NaN or infinite value and gradient
        with pytest.raises(ValueError, match="mean must be finite"):
            GaussianPriorTarget([bad, 0.0], np.eye(2))

    def test_mean_of_two_dimensions_refused(self):
        # a (2, 1) mean built a dim-2 target whose evaluate raised TypeError
        with pytest.raises(ValueError, match=r"mean must be a scalar or a 1-D array, got shape \(2, 1\)"):
            GaussianPriorTarget([[0.0], [0.0]], np.eye(2))
        t = GaussianPriorTarget(0.5, np.array([[4.0]]))
        assert t.dim == 1 and t.evaluate([1.5]).value == pytest.approx(-2.0)

    def test_indefinite_precision_rejected_at_construction(self):
        with pytest.raises(NotPositiveDefinite):
            GaussianPriorTarget(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_derivatives_random_instance(self):
        rng = np.random.default_rng(5)
        t = GaussianPriorTarget(rng.standard_normal(5), random_spd(5, rng))
        res = t.evaluate(rng.standard_normal(5), gradient=True)
        x = rng.standard_normal(5)
        res = t.evaluate(x, gradient=True)
        g_fd = fd_gradient(lambda v: t.evaluate(v).value, x)
        assert np.linalg.norm(res.gradient - g_fd) / np.linalg.norm(res.gradient) < 1e-8

    def test_restrict_is_conditional_up_to_constant(self):
        rng = np.random.default_rng(6)
        prec = random_spd(5, rng)
        t = GaussianPriorTarget(rng.standard_normal(5), prec)
        full = rng.standard_normal(5)
        block = np.array([0, 3])
        r = t.restrict(block, full)
        # gradient and Hessian match the spliced parent exactly; the value
        # differs only by a constant
        deltas = []
        for _ in range(4):
            b = rng.standard_normal(2)
            spliced = full.copy()
            spliced[block] = b
            res_r = r.evaluate(b, gradient=True, hessian=True)
            res_f = t.evaluate(spliced, gradient=True, hessian=True)
            np.testing.assert_allclose(res_r.gradient, res_f.gradient[block], atol=1e-10)
            np.testing.assert_allclose(
                res_r.hessian, res_f.hessian[np.ix_(block, block)], rtol=1e-12
            )
            deltas.append(res_r.value - res_f.value)
        assert np.ptp(deltas) < 1e-9


class TestAdditive:
    def test_two_priors_hessian_adds(self):
        rng = np.random.default_rng(7)
        p1, p2 = random_spd(3, rng), random_spd(3, rng)
        t = AdditiveTarget(
            [GaussianPriorTarget(np.zeros(3), p1), GaussianPriorTarget(np.zeros(3), p2)]
        )
        h = t.evaluate(rng.standard_normal(3), hessian=True).hessian
        np.testing.assert_array_equal(h, -(p1 + p2))

    def test_costs_sum(self):
        t = AdditiveTarget(
            [GaussianPriorTarget(np.zeros(2), np.eye(2)), GaussianPriorTarget(np.zeros(2), np.eye(2))]
        )
        res = t.evaluate(np.zeros(2), gradient=True, hessian=True)
        assert res.cost == EvalCost(2, 2, 2)

    def test_evaluate_is_the_parts_sum_exactly(self):
        rng = np.random.default_rng(9)
        X, y = random_logistic(rng, n=30, k=4)
        parts = [LogisticTarget(X, y), GaussianPriorTarget(np.ones(4), random_spd(4, rng)),
                 GaussianPriorTarget(np.zeros(4), np.diag([1.0, 2.0, 3.0, 4.0]))]
        post = AdditiveTarget(parts)
        for x, gradient, hessian in [(rng.standard_normal(4), True, True), (rng.standard_normal(4), True, False),
                                     (rng.standard_normal(4), False, False)]:
            got = post.evaluate(x, gradient=gradient, hessian=hessian)
            r0, r1, r2 = (p.evaluate(x, gradient=gradient, hessian=hessian) for p in parts)
            assert got.value == r0.value + r1.value + r2.value
            assert got.cost == r0.cost + r1.cost + r2.cost == EvalCost(3, 3 * gradient, 3 * hessian)
            if gradient:
                assert np.array_equal(got.gradient, r0.gradient + r1.gradient + r2.gradient)
            else:
                assert got.gradient is None
            if hessian:
                assert np.array_equal(got.hessian, r0.hessian + r1.hessian + r2.hessian)
            else:
                assert got.hessian is None

    def test_shared_costs_are_immutable(self):
        t = GaussianPriorTarget(np.zeros(2), np.eye(2))
        a = t.evaluate(np.zeros(2), gradient=True)
        b = t.evaluate(np.ones(2), gradient=True)
        assert a.cost is b.cost
        with pytest.raises(AttributeError):
            a.cost.n_value = 5
        assert b.cost == EvalCost(1, 1, 0)

    def test_restrict_of_a_sum_is_the_sum_of_restricts(self):
        rng = np.random.default_rng(10)
        X, y = random_logistic(rng, n=30, k=4)
        parts = [LogisticTarget(X, y), GaussianPriorTarget(np.ones(4), random_spd(4, rng))]
        block, full = np.array([2, 0]), rng.standard_normal(4)
        got = AdditiveTarget(parts).restrict(block, full)
        assert got.dim == 2
        assert_same_evaluations(got, AdditiveTarget([p.restrict(block, full) for p in parts]), rng)

    def test_posterior_composition_logistic_plus_prior(self):
        rng = np.random.default_rng(8)
        X, y = random_logistic(rng, n=30, k=4)
        lik = LogisticTarget(X, y)
        prior = GaussianPriorTarget(np.zeros(4), 0.5 * np.eye(4))
        post = AdditiveTarget([lik, prior])
        x = rng.standard_normal(4)
        a = post.evaluate(x, gradient=True, hessian=True)
        b1 = lik.evaluate(x, gradient=True, hessian=True)
        b2 = prior.evaluate(x, gradient=True, hessian=True)
        assert a.value == pytest.approx(b1.value + b2.value, rel=1e-14)
        np.testing.assert_allclose(a.gradient, b1.gradient + b2.gradient)
        np.testing.assert_array_equal(a.hessian, b1.hessian + b2.hessian)

    def test_checked_point_passes_through(self):
        t = GaussianPriorTarget(np.zeros(3), np.eye(3))
        x = np.arange(3.0)
        assert t._check_point(x) is x
        for other in ([0.0, 1.0, 2.0], np.arange(3), x.astype(np.float32)):
            got = t._check_point(other)
            assert type(got) is np.ndarray and got.dtype == np.float64 and np.array_equal(got, x)
        with pytest.raises(ValueError):
            t._check_point(np.zeros(2))

    def test_leaf_targets_refuse_a_stack(self):
        # each used to fail inside numpy, with a message that named no shape
        rng = np.random.default_rng(9)
        X, y = random_logistic(rng, n=30, k=2)
        leaves = [(LogisticTarget(X, y), 2), (GaussianPriorTarget(np.zeros(3), np.eye(3)), 3),
                  (PoissonLogRateTarget([2, 3]), 1)]
        for target, dim in leaves:
            stack = np.zeros((30, dim))
            message = (rf"{type(target).__name__} takes one point of length {dim}, got an array of shape "
                       rf"\(30, {dim}\); only AdditiveTarget .* take a \(J, m\) stack")
            for call in (
                lambda: target.evaluate(stack),
                lambda: target.evaluate(stack, gradient=True, hessian=True),
                lambda: AdditiveTarget([target]).evaluate(stack),
                lambda: build_proposal(target, stack),
                lambda: tangent_step(target, stack, None, np.random.default_rng(0)),
            ):
                with pytest.raises(ValueError, match=message):
                    call()

    def test_one_part_returns_its_part_result(self):
        # the part's value, gradient and Hessian bytes and its counters,
        # after the sum's own length check
        rng = np.random.default_rng(11)
        X, y = random_logistic(rng, n=30, k=3)
        parts = [PoissonLogRateTarget([2, 3]), LogisticTarget(X, y),
                 GaussianPriorTarget(np.zeros(3), random_spd(3, rng)),
                 GaussianPriorTarget(np.ones(3), np.diag([1.0, 2.0, 3.0]))]
        for part in parts:
            x = rng.standard_normal(part.dim)
            for gradient, hessian in ((False, False), (True, False), (False, True), (True, True)):
                want = part.evaluate(x, gradient=gradient, hessian=hessian)
                got = AdditiveTarget([part]).evaluate(x, gradient=gradient, hessian=hessian)
                for a, b in zip(got[:3], want[:3]):
                    assert (a is None) == (b is None)
                    assert a is None or np.asarray(a).tobytes() == np.asarray(b).tobytes()
                assert type(got.cost) is EvalCost and got.cost == want.cost
            with pytest.raises(ValueError, match="point has length"):
                AdditiveTarget([part]).evaluate(np.zeros(part.dim + 1))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            AdditiveTarget(
                [GaussianPriorTarget([0.0], np.eye(1)), GaussianPriorTarget([0.0, 0.0], np.eye(2))]
            )

    def test_hessians_are_plain_arrays(self):
        rng = np.random.default_rng(6)
        X, y = random_logistic(rng, n=20, k=3)
        prior = GaussianPriorTarget(np.zeros(3), random_spd(3, rng))
        post = AdditiveTarget([LogisticTarget(X, y), prior])
        composed = LinearProjectionTarget(BernoulliBase(y), [X])
        block, full = np.array([0, 2]), rng.standard_normal(3)
        for t in (post, post.restrict(block, full), composed, composed.restrict(block, full),
                  poisson_lograte_target([2])):
            h = t.evaluate(np.zeros(t.dim), hessian=True).hessian
            assert type(h) is np.ndarray and h.shape == (t.dim, t.dim)


def assert_same_evaluations(a, b, rng, n_points=4):
    """Value, gradient and Hessian of ``a`` and ``b`` agree bit for bit."""
    for _ in range(n_points):
        x = rng.standard_normal(a.dim)
        ra = a.evaluate(x, gradient=True, hessian=True)
        rb = b.evaluate(x, gradient=True, hessian=True)
        assert ra.value == rb.value
        assert np.array_equal(ra.gradient, rb.gradient)
        assert np.array_equal(ra.hessian, rb.hessian)


def assert_close_evaluations(a, b, rng, rtol=1e-12, constant=False, n_points=4):
    """Gradient and Hessian of ``a`` and ``b`` agree to ``rtol``, and so do
    their values, or with ``constant`` their differences stay constant."""
    deltas = []
    for _ in range(n_points):
        x = rng.standard_normal(a.dim)
        ra = a.evaluate(x, gradient=True, hessian=True)
        rb = b.evaluate(x, gradient=True, hessian=True)
        np.testing.assert_allclose(ra.gradient, rb.gradient, rtol=rtol, atol=rtol * np.abs(rb.gradient).max())
        np.testing.assert_allclose(ra.hessian, rb.hessian, rtol=rtol, atol=rtol * np.abs(rb.hessian).max())
        deltas.append(ra.value - rb.value)
        if not constant:
            assert ra.value == pytest.approx(rb.value, rel=rtol)
    assert np.ptp(deltas) <= rtol * max(1.0, abs(deltas[0]))


# blocks with a remaining complement, and blocks covering every coordinate
RESTRICT_BLOCKS = [[1, 4], [5, 0, 2], [0, 1, 2, 3, 4, 5], [3, 1, 5, 0, 2, 4]]


class TestRestrictedTargets:
    """``restrict`` splices the block into the frozen point and evaluates
    the parent; its conditional must agree with the same conditional built
    through the public constructors, to rounding and, for a prior, up to
    an additive constant."""

    @pytest.mark.parametrize("block", [[], [0, 0], [2, 1, 2], [0, 3], [0, 5], [-1, 0], [[0, 1]]])
    def test_bad_block_refused(self, block):
        # a repeated index used to count its coordinate twice in the
        # gradient, an out-of-range one to fail at the first evaluate
        rng = np.random.default_rng(16)
        X, y = random_logistic(rng, n=20, k=3)
        prior = GaussianPriorTarget(np.zeros(3), np.eye(3))
        for parent in (LogisticTarget(X, y), prior, AdditiveTarget([LogisticTarget(X, y), prior])):
            with pytest.raises(ValueError, match=r"block must be nonempty distinct indices in 0\.\.2"):
                parent.restrict(block, np.zeros(3))

    @pytest.mark.parametrize("block", [
        [0.9, 1.7], [True, False], [0, True], np.array([0.0, 1.0]), np.array([True, False, True]), [1.0],
    ])
    def test_float_and_boolean_indices_refused(self, block):
        # a cast used to truncate the floats ([0.9, 1.7] conditioned on
        # [0, 1]) and read booleans as 0 and 1
        rng = np.random.default_rng(16)
        X, y = random_logistic(rng, n=20, k=3)
        prior = GaussianPriorTarget(np.zeros(3), np.eye(3))
        for parent in (LogisticTarget(X, y), prior, AdditiveTarget([LogisticTarget(X, y), prior])):
            with pytest.raises(ValueError, match="block indices must be integers, not floats or booleans"):
                parent.restrict(block, np.zeros(3))

    @pytest.mark.parametrize("block", [
        [np.int64(2), np.int32(0)], np.array([2, 0], dtype=np.uint8), (2, 0), range(2, -1, -2),
        np.array([2, 0], dtype=object),
    ])
    def test_integer_indices_of_any_kind_accepted(self, block):
        cond = GaussianPriorTarget(np.zeros(3), np.diag([1.0, 2.0, 3.0])).restrict(block, np.zeros(3))
        assert cond.dim == 2
        np.testing.assert_array_equal(cond.evaluate([1.0, 1.0], hessian=True).hessian, -np.diag([3.0, 1.0]))

    @pytest.mark.parametrize("block", RESTRICT_BLOCKS)
    def test_logistic_matches_public_construction(self, block):
        rng = np.random.default_rng(15)
        X, y = random_logistic(rng, n=40, k=6)
        full = rng.standard_normal(6)
        block = np.array(block)
        rest = np.setdiff1d(np.arange(6), block)
        # the frozen coordinates enter the block's predictor as an offset
        expected = ReferenceLogistic(X[:, block], y, offset=X[:, rest] @ full[rest])
        assert_close_evaluations(LogisticTarget(X, y).restrict(block, full), expected, rng)

    @pytest.mark.parametrize("block", RESTRICT_BLOCKS)
    def test_diagonal_prior_matches_public_construction(self, block, monkeypatch):
        # the block mean and the block diagonal, with no factorization
        rng = np.random.default_rng(22)
        mean, prec = rng.standard_normal(6), np.diag(rng.uniform(0.5, 2.0, 6))
        parent = GaussianPriorTarget(mean, prec)
        block = np.array(block)
        expected = GaussianPriorTarget(mean[block], prec[np.ix_(block, block)])
        monkeypatch.setattr(targets_module, "cholesky", None)
        assert_close_evaluations(parent.restrict(block, rng.standard_normal(6)), expected, rng, constant=True)

    def test_prior_with_one_off_diagonal_entry_shifts_the_mean(self):
        rng = np.random.default_rng(23)
        mean, prec = rng.standard_normal(6), np.diag(rng.uniform(0.5, 2.0, 6))
        prec[4, 1] = prec[1, 4] = 0.3
        full = rng.standard_normal(6)
        block, rest = np.array([1, 2]), np.array([0, 3, 4, 5])
        p_bb = prec[np.ix_(block, block)]
        r = prec[np.ix_(block, rest)] @ (full[rest] - mean[rest])
        shifted = mean[block] - cholesky(p_bb).solve(r)
        cond = GaussianPriorTarget(mean, prec).restrict(block, full)
        # the conditional's mode is the shifted mean, one Newton step away
        mode = newton_step(cond, np.zeros(2))
        np.testing.assert_allclose(mode, shifted, rtol=1e-12)
        assert not np.allclose(mode, mean[block])
        assert_close_evaluations(cond, GaussianPriorTarget(shifted, p_bb), rng, constant=True)

    @pytest.mark.parametrize("block", RESTRICT_BLOCKS)
    def test_prior_matches_public_construction(self, block):
        rng = np.random.default_rng(16)
        mean, prec = rng.standard_normal(6), random_spd(6, rng)
        full = rng.standard_normal(6)
        block = np.array(block)
        rest = np.setdiff1d(np.arange(6), block)
        p_bb = prec[np.ix_(block, block)]
        cond_mean = mean[block]
        if rest.size:
            r = prec[np.ix_(block, rest)] @ (full[rest] - mean[rest])
            cond_mean = cond_mean - cholesky(p_bb).solve(r)
        expected = GaussianPriorTarget(cond_mean, p_bb)
        assert_close_evaluations(GaussianPriorTarget(mean, prec).restrict(block, full), expected, rng,
                                 rtol=1e-10, constant=True)


class ReferenceLogistic:
    """``LogisticTarget``'s evaluation with the expressions it had while a
    constructed target stored a zero offset and ``1 - y`` was formed per
    call, each step allocating its own array, and with the Hessian as
    ``-(X * w[:, None]).T @ X`` symmetrized."""

    def __init__(self, X, y, offset=None):
        self.X, self.y = X, y
        self.offset = np.zeros(X.shape[0]) if offset is None else offset

    def evaluate(self, b, *, gradient=False, hessian=False):
        X, y = self.X, self.y
        t = X @ b + self.offset
        e = np.exp(-np.abs(t))
        np.log1p(e, out=e)
        e += (1.0 - y) * t
        e -= np.minimum(t, 0.0)
        value = -float(np.sum(e))
        p = expit(t) if gradient or hessian else None
        grad = X.T @ (y - p) if gradient else None
        hess = None
        if hessian:
            w = p * (1.0 - p)
            h = -(X * w[:, None]).T @ X
            hess = 0.5 * (h + h.T)
        return EvalResult(value, grad, hess, EvalCost(1, int(gradient), int(hessian)))


def bits(a):
    """The bytes of a float or an array; None stays None."""
    return None if a is None else np.asarray(a, dtype=float).tobytes()


def assert_same_evaluation(got, want):
    """Value, gradient and counters bit for bit; the Hessian exactly
    symmetric and equal to the reference's to rounding."""
    assert bits(got.value) == bits(want.value)
    assert bits(got.gradient) == bits(want.gradient)
    assert got.cost == want.cost
    if want.hessian is None:
        assert got.hessian is None
    else:
        assert np.array_equal(got.hessian, got.hessian.T)
        scale = np.abs(want.hessian).max()
        np.testing.assert_allclose(got.hessian, want.hessian, rtol=1e-12, atol=1e-12 * scale)


KINDS = [(False, False), (True, False), (False, True), (True, True)]


def sweep_both(target, reference, full, rng, n_sweeps=3):
    """Evaluate a target and its reference at the same points, as a block
    sweep moves them, for every combination of derivatives; every result
    must agree (``assert_same_evaluation``)."""
    k = full.size
    blocks = [np.arange(k // 2), np.arange(k // 2, k)]
    for _ in range(n_sweeps):
        for block in blocks:
            for gradient, hessian in KINDS:
                got = target.evaluate(full, gradient=gradient, hessian=hessian)
                assert_same_evaluation(got, reference.evaluate(full, gradient=gradient, hessian=hessian))
            full[block] += rng.standard_normal(block.size)


def logistic_cases():
    """(design, responses, point) triples: random, rows beyond exp's range,
    one-valued responses, and zero rows whose products are all -0.0 (with
    a zero column)."""
    rng = np.random.default_rng(31)
    X, y = random_logistic(rng, n=60, k=6)
    yield "random", X, y, rng.standard_normal(6)
    big = X.copy()
    big[::3] *= 2000.0  # |t| > 745 on those rows: exp(-|t|) underflows to 0
    yield "beyond exp", big, y, rng.standard_normal(6)
    yield "all 0", X, np.zeros(60), rng.standard_normal(6)
    yield "all 1", X, np.ones(60), rng.standard_normal(6)
    signed = X.copy()
    signed[:5] = 0.0
    signed[5:10] = 1e-200  # products underflow to -0.0
    signed[:, 0] = 0.0  # a zero Hessian row: its zeros' signs must match too
    yield "zero rows", signed, y, -np.abs(rng.standard_normal(6)) * 1e-200


LOGISTIC_CASES = {name: case for name, *case in logistic_cases()}


class TestLogisticAgainstReference:
    """The value and gradient keep every floating-point operation's
    operands and order: they and the counters equal the reference's bit
    for bit.  The Hessian, a matrix-vector product on the row-product
    table, equals the reference's product to rounding."""

    @pytest.mark.parametrize("restricted", [False, True], ids=["constructed", "restricted"])
    @pytest.mark.parametrize("case", LOGISTIC_CASES)
    def test_bit_equal_to_reference(self, case, restricted):
        # a conditional over every coordinate, in order, is its parent
        X, y, full = LOGISTIC_CASES[case]
        rng = np.random.default_rng(32)
        target = LogisticTarget(X, y)
        if restricted:
            target = target.restrict(np.arange(X.shape[1]), np.zeros(X.shape[1]))
        sweep_both(target, ReferenceLogistic(X, y), full.copy(), rng)

    def test_cases_reach_the_rows_they_name(self):
        X, _, full = LOGISTIC_CASES["beyond exp"]
        assert np.any(np.exp(-np.abs(X @ full)) == 0.0)
        # each product in the zero rows is -0.0; numpy sums them from +0.0
        X, _, full = LOGISTIC_CASES["zero rows"]
        products = X[:10] * full
        assert np.all(products == 0.0) and np.all(np.signbit(products))
        assert np.all(X[:10] @ full == 0.0)

    def test_constructed_target_stores_no_offset(self):
        # the design, the responses and 1 - y, nothing else until first use
        X, y, full = LOGISTIC_CASES["random"]
        target = LogisticTarget(X, y)
        assert sorted(vars(target)) == ["_X", "_not_y", "_y"]
        assert np.array_equal(target._not_y, 1.0 - y)

    def test_kept_arrays_are_never_written(self):
        # the arrays a target keeps, its Hessian table included, are shared
        # by every evaluation: each must keep its bytes through all of them
        X, y, full = LOGISTIC_CASES["random"]
        rng = np.random.default_rng(33)
        target = LogisticTarget(X, y)
        target.evaluate(full, hessian=True)
        kept = [target._X, target._y, target._not_y, *target._hessian_rows]
        before = [a.tobytes() for a in kept]
        sweep_both(target, ReferenceLogistic(X, y), full.copy(), rng)
        assert [a.tobytes() for a in kept] == before


def line_contract_targets():
    """Each kind of coordinate line's target, with whether its lines are
    evaluate's own arithmetic (bit-equal) or rearranged (equal to rounding)."""
    rng = np.random.default_rng(14)
    X, y = random_logistic(rng, n=200, k=4)
    diagonal = GaussianPriorTarget(rng.standard_normal(4), np.diag(rng.uniform(0.2, 4.0, 4)))
    return {
        "poisson": (poisson_lograte_target([3, 0, 2, 5]), True),
        "dense-prior": (GaussianPriorTarget(rng.standard_normal(4), random_spd(4, rng)), True),
        "linear-projection": (LinearProjectionTarget(BernoulliBase(y), [X]), True),
        "logistic": (LogisticTarget(X, y), False),
        "diagonal-prior": (diagonal, False),
        "additive": (AdditiveTarget([LogisticTarget(X, y), diagonal]), False),
    }


class TestCoordinateLines:
    """A slice sweep's coordinate lines against full evaluations at the
    same points, coordinate after coordinate as the sweep moves them."""

    @staticmethod
    def walk(target, x, rng):
        """(line value, evaluate value) pairs along every coordinate of a
        sweep from ``x``, each coordinate then moved to its last point."""
        x = np.array(x, dtype=float)
        line, value, cost = target.coordinate_lines(x)
        pairs = [(value, target.evaluate(x).value)]
        for d in range(target.dim):
            logf = line(d)
            for v in x[d] + rng.normal(0.0, 1.0, 4):
                point = x.copy()
                point[d] = v
                pairs.append((logf(v), target.evaluate(point).value))
            x[d] = v
        return pairs, cost

    @pytest.mark.parametrize("fortran", [False, True])
    @pytest.mark.parametrize("scale", [1.0, 30.0, 700.0])
    def test_logistic_line_matches_evaluate(self, fortran, scale):
        rng = np.random.default_rng(int(scale))
        X, y = random_logistic(rng, n=400, k=6)
        # the predictor's scale is set by the design's; a Fortran-ordered
        # design's transpose is already the contiguous X^T the lines read
        X = np.asfortranarray(scale * X) if fortran else scale * X
        target = LogisticTarget(X, y)
        pairs, cost = self.walk(target, rng.normal(0.0, 0.5, 6), rng)
        assert cost == EvalCost(1, 0, 0)
        # the start value is evaluate's own; the line's agree to rounding
        assert pairs[0][0] == pairs[0][1]
        got, ref = np.array(pairs).T
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)

    def test_conditional_line_matches_evaluate(self):
        rng = np.random.default_rng(5)
        X, y = random_logistic(rng, n=200, k=6)
        full = rng.normal(0.0, 0.5, 6)
        target = LogisticTarget(X, y).restrict(np.array([1, 4]), full)
        got, ref = np.array(self.walk(target, full[[1, 4]], rng)[0]).T
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)

    def test_default_line_is_evaluate(self):
        rng = np.random.default_rng(6)
        prior = GaussianPriorTarget(rng.standard_normal(3), random_spd(3, rng))
        target = AdditiveTarget([prior, prior])
        pairs, cost = self.walk(target, rng.standard_normal(3), rng)
        assert cost == EvalCost(2, 0, 0)
        assert all(a == b for a, b in pairs)

    def test_diagonal_prior_line_matches_evaluate(self):
        rng = np.random.default_rng(7)
        prior = GaussianPriorTarget(rng.standard_normal(5), np.diag(rng.uniform(0.1, 5.0, 5)))
        pairs, cost = self.walk(prior, rng.standard_normal(5), rng)
        assert cost == EvalCost(1, 0, 0)
        # the start value is evaluate's own; the scalar line's agree to rounding
        assert pairs[0][0] == pairs[0][1]
        got, ref = np.array(pairs).T
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)
        # as evaluate does, the lines refuse a point of another length
        # rather than broadcast it against the mean
        for length in (1, 6):
            with pytest.raises(ValueError, match="point has length"):
                prior.coordinate_lines(np.zeros(length))

    def test_logistic_lines_refuse_a_point_of_another_length(self):
        # a slice sweep from such a point used to fail inside numpy's matmul
        rng = np.random.default_rng(9)
        X, y = random_logistic(rng, n=20, k=3)
        target = LogisticTarget(X, y)
        for length in (1, 4):
            with pytest.raises(ValueError, match=f"point has length {length}, expected 3"):
                target.coordinate_lines(np.zeros(length))
        with pytest.raises(ValueError, match="point has length 1, expected 3"):
            slice_sweep(target, [0.0], SliceConfig(), np.random.default_rng(1))

    def test_dense_prior_and_its_restrict_keep_the_default_line(self):
        rng = np.random.default_rng(8)
        prior = GaussianPriorTarget(rng.standard_normal(4), random_spd(4, rng))
        full = rng.standard_normal(4)
        for target in (prior, prior.restrict(np.array([0, 2]), full)):
            pairs, cost = self.walk(target, full[: target.dim], rng)
            assert cost == EvalCost(1, 0, 0)
            assert all(a == b for a, b in pairs)

    def test_additive_line_sums_its_parts(self):
        # a group's slice target in hb: its likelihood plus a diagonal prior
        rng = np.random.default_rng(9)
        X, y = random_logistic(rng, n=300, k=5)
        parts = [LogisticTarget(X, y), GaussianPriorTarget(rng.standard_normal(5), np.diag(rng.uniform(0.5, 3.0, 5)))]
        target = AdditiveTarget(parts)
        x = rng.normal(0.0, 0.5, 5)
        # each walk moves its own copy of the point, as a sweep would
        points = [x.copy() for _ in range(3)]
        (line, value, cost), *part_lines = [t.coordinate_lines(p) for t, p in zip([target, *parts], points)]
        assert cost == EvalCost(2, 0, 0)
        assert value == target.evaluate(x).value
        assert value == part_lines[0][1] + part_lines[1][1]
        for d in range(target.dim):
            logf, lik, prior = line(d), part_lines[0][0](d), part_lines[1][0](d)
            for v in x[d] + rng.normal(0.0, 1.0, 4):
                assert logf(v) == lik(v) + prior(v)
            for point in points:
                point[d] = v

    @pytest.mark.parametrize("name", list(line_contract_targets()))
    def test_lines_agree_with_evaluate(self, name):
        # each target's lines against evaluate at the spliced point: bit
        # for bit where the line is evaluate's own arithmetic, to rounding
        # where it is rearranged
        target, exact = line_contract_targets()[name]
        rng = np.random.default_rng(13)
        x = rng.normal(0.0, 0.5, target.dim)
        cost = target.evaluate(x).cost
        pairs, line_cost = self.walk(target, x, rng)
        assert line_cost == cost
        assert pairs[0][0] == pairs[0][1]
        if exact:
            assert all(a == b for a, b in pairs)
        else:
            got, ref = np.array(pairs).T
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)

    def test_poisson_line_is_evaluate_bit_for_bit(self):
        target = poisson_lograte_target([3, 0, 2, 5])
        line, value, cost = target.coordinate_lines(np.array([0.3]))
        assert value == target.evaluate([0.3]).value
        assert cost == EvalCost(1, 0, 0)
        logf = line(0)
        for u in np.linspace(-20.0, 5.0, 2001).tolist():
            assert logf(u) == target.evaluate(np.array([u])).value
        # exp overflows to inf on both, and the value to -inf
        with np.errstate(over="ignore"):
            for u in (710.0, 800.0):
                assert logf(u) == target.evaluate(np.array([u])).value == -np.inf


# constructions refused at once, each with the message that names its fault
REFUSED = {
    "logistic 1-D design": (lambda: LogisticTarget(np.ones(3), np.ones(3)), "design must be a 2-D array"),
    "logistic responses of another row count": (
        lambda: LogisticTarget(np.ones((3, 2)), np.ones(2)), "responses must be one per design row"),
    "logistic non-finite design": (
        lambda: LogisticTarget(np.array([[1.0, np.inf], [0.0, 1.0]]), np.ones(2)), "design entries must be finite"),
    "poisson without counts": (lambda: PoissonLogRateTarget([]), "need at least one observation"),
    "prior precision of another dimension": (
        lambda: GaussianPriorTarget(np.zeros(2), np.eye(3)), "precision dimension must match mean length"),
    "additive without parts": (lambda: AdditiveTarget([]), "need at least one part"),
    "bernoulli non-binary responses": (lambda: BernoulliBase([0.0, 0.5]), "responses must be 0 or 1"),
    "quadratic matrices not square": (
        lambda: ConcaveQuadraticBase(np.ones((2, 1, 2)), np.zeros((2, 1))), "quad must be N x J x J"),
    "quadratic centers of another shape": (
        lambda: ConcaveQuadraticBase(np.ones((2, 1, 1)), np.zeros((2, 2))), "centers must be N x J"),
}


@pytest.mark.parametrize("case", REFUSED.values(), ids=list(REFUSED))
def test_construction_refused(case):
    build, message = case
    with pytest.raises(ValueError, match=message):
        build()


class TestLinearProjection:
    def test_rejects_asymmetric_quadratic(self):
        # values would read the full matrix and Hessians its lower triangle
        with pytest.raises(ValueError, match="symmetric"):
            ConcaveQuadraticBase(np.array([[[1.0, 5.0], [0.0, 1.0]]]), np.zeros((1, 2)))

    @pytest.mark.parametrize("y", [[[0.0], [1.0], [1.0]], 1.0])
    def test_bernoulli_base_refuses_responses_that_are_not_1d(self, y):
        # a column vector used to evaluate to a wrong value with a (1, 3)
        # gradient, and a scalar to raise IndexError from n_obs
        shape = np.shape(y)
        with pytest.raises(ValueError, match=re.escape(f"responses must be a 1-D array, got shape {shape}")):
            BernoulliBase(y)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_quadratic_base_refuses_non_finite_centers(self, bad):
        # a NaN center used to make every value NaN
        with pytest.raises(ValueError, match="centers must be finite"):
            ConcaveQuadraticBase(np.ones((2, 1, 1)), np.array([[0.0], [bad]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_refuses_a_non_finite_design_entry(self, bad):
        X = np.ones((3, 2))
        X[1, 0] = bad
        with pytest.raises(ValueError, match="design entries must be finite"):
            LinearProjectionTarget(BernoulliBase([0.0, 1.0, 1.0]), [X])

    def test_refuses_a_design_count_other_than_the_base_arguments(self):
        base = ConcaveQuadraticBase(np.ones((4, 2, 2)) + np.eye(2), np.zeros((4, 2)))
        for designs in ([np.eye(4)], [np.eye(4)] * 3):
            with pytest.raises(ValueError, match="one design per base-family argument"):
                LinearProjectionTarget(base, designs)

    def test_refuses_a_design_without_one_row_per_observation(self):
        base = BernoulliBase([0.0, 1.0, 1.0])
        for X in (np.ones((4, 2)), np.ones((2, 2)), np.ones(3)):
            with pytest.raises(ValueError, match="one row per observation"):
                LinearProjectionTarget(base, [X])

    @pytest.mark.parametrize("length", [1, 3, 5])
    def test_projections_refuse_a_point_of_another_length(self, length):
        # a longer vector's tail used to be dropped without a word
        base = BernoulliBase([0.0, 1.0, 1.0])
        t = LinearProjectionTarget(base, [np.ones((3, 2))])
        with pytest.raises(ValueError, match=f"point has length {length}, expected 2"):
            t.projections(np.ones(length))
        np.testing.assert_array_equal(t.projections([1.0, 2.0]), np.full((3, 1), 3.0))

    def test_identity_design_quadratic_base_is_standard_gaussian(self):
        n = 4
        base = ConcaveQuadraticBase(np.ones((n, 1, 1)), np.zeros((n, 1)))
        # X = I means each coordinate feeds one observation: H = -I
        t = LinearProjectionTarget(base, [np.eye(n)])
        res = t.evaluate(np.zeros(n), gradient=True, hessian=True)
        np.testing.assert_array_equal(res.hessian, -np.eye(n))
        assert res.value == 0.0

    def test_matches_logistic_target_exactly(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            X, y = random_logistic(rng, n=25, k=4)
            direct = LogisticTarget(X, y)
            composed = LinearProjectionTarget(BernoulliBase(y), [X])
            x = rng.standard_normal(4)
            a = direct.evaluate(x, gradient=True, hessian=True)
            b = composed.evaluate(x, gradient=True, hessian=True)
            assert a.value == pytest.approx(b.value, rel=1e-12)
            np.testing.assert_allclose(a.gradient, b.gradient, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(a.hessian, b.hessian, rtol=1e-12, atol=1e-12)

    def test_two_group_hessian_matches_value_differences(self):
        rng = np.random.default_rng(10)
        n = 3
        raw = rng.standard_normal((n, 2, 2))
        quad = np.einsum("ijk,ilk->ijl", raw, raw) + 0.5 * np.eye(2)
        base = ConcaveQuadraticBase(quad, rng.standard_normal((n, 2)))
        t = LinearProjectionTarget(
            base, [rng.standard_normal((n, 1)), rng.standard_normal((n, 1))]
        )
        x = rng.standard_normal(2)
        H = t.evaluate(x, hessian=True).hessian
        H_fd = _fd_hessian_of_value(lambda v: t.evaluate(v).value, x)
        assert np.linalg.norm(H - H_fd, "fro") / np.linalg.norm(H, "fro") < 1e-5

    def test_mixed_rank_hessian_has_no_cholesky_factor(self):
        # one full-rank design does not rescue definiteness: directions
        # supported on the deficient block alone stay exactly flat
        rng = np.random.default_rng(14)
        n = 20
        X1 = rng.standard_normal((n, 3))
        col = rng.standard_normal((n, 1))
        X2 = np.hstack([col, 2.0 * col])  # rank 1 of 2
        raw = rng.standard_normal((n, 2, 2))
        quad = np.einsum("ijk,ilk->ijl", raw, raw) + 0.1 * np.eye(2)
        base = ConcaveQuadraticBase(quad, rng.standard_normal((n, 2)))
        t = LinearProjectionTarget(base, [X1, X2])
        H = t.evaluate(rng.standard_normal(5), hessian=True).hessian
        with pytest.raises(NotPositiveDefinite):
            cholesky(-H)
