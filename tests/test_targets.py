import numpy as np
import pytest

from tangentmh.fdiff import fd_gradient, fd_hessian_of_gradient, fd_hessian_of_value
from tangentmh.linalg import NotPositiveDefinite, cholesky
from tangentmh.targets import (
    AdditiveTarget,
    BernoulliBase,
    ConcaveQuadraticBase,
    EvalCost,
    GaussianPriorTarget,
    LinearProjectionModel,
    LogisticTarget,
    additive_target,
    column_rank,
    gaussian_prior,
    linear_projection_target,
    logistic_target,
    negative_definiteness_witness,
    poisson_lograte_target,
    replicated_poisson_target,
)

from helpers import random_spd


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


class TestLogistic:
    def test_value_at_zero_is_minus_n_log2(self):
        rng = np.random.default_rng(0)
        X, y = random_logistic(rng, n=40, k=3)
        t = logistic_target(X, y)
        res = t.evaluate(np.zeros(3), gradient=True)
        assert res.value == pytest.approx(-40 * np.log(2.0), rel=1e-12)
        np.testing.assert_allclose(res.gradient, X.T @ (y - 0.5), rtol=1e-12)

    def test_single_observation_closed_form(self):
        t = logistic_target(np.array([[1.0]]), np.array([1.0]))
        res = t.evaluate([0.0], gradient=True, hessian=True)
        np.testing.assert_allclose(res.gradient, [0.5])
        np.testing.assert_allclose(res.hessian, [[-0.25]])

    def test_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(1)
        X, y = random_logistic(rng)
        t = logistic_target(X, y)
        for _ in range(5):
            check_derivatives(t, rng.standard_normal(5), grad_rtol=1e-6)

    def test_stable_for_extreme_linear_predictor(self):
        t = logistic_target(np.array([[1.0], [1.0]]), np.array([1.0, 0.0]))
        res = t.evaluate([900.0], gradient=True, hessian=True)
        assert np.isfinite(res.value)
        assert res.value == pytest.approx(-900.0)
        assert np.all(np.isfinite(res.gradient))

    def test_hessian_negative_semidefinite_everywhere(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            X, y = random_logistic(rng, n=30, k=4)
            t = logistic_target(X, y)
            h = t.evaluate(2.0 * rng.standard_normal(4), hessian=True).hessian
            assert np.max(np.linalg.eigvalsh(h)) <= 1e-12

    def test_rejects_bad_responses(self):
        with pytest.raises(ValueError):
            logistic_target(np.eye(2), np.array([0.0, 2.0]))

    def test_restrict_matches_splice(self):
        rng = np.random.default_rng(3)
        X, y = random_logistic(rng, n=30, k=6)
        t = logistic_target(X, y)
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

    def test_all_zero_counts_mode_rejected(self):
        t = poisson_lograte_target([0, 0])
        assert np.isfinite(t.evaluate([0.0]).value)
        with pytest.raises(ValueError):
            t.mode()

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            poisson_lograte_target([-1])

    def test_derivatives(self):
        rng = np.random.default_rng(4)
        t = poisson_lograte_target([3, 0, 2, 5])
        for _ in range(5):
            check_derivatives(t, rng.uniform(-2, 2, size=1))


class TestGaussianPrior:
    def test_value_gradient_at_mean(self):
        t = gaussian_prior(np.array([1.0, 2.0]), np.eye(2))
        res = t.evaluate([1.0, 2.0], gradient=True)
        assert res.value == 0.0
        np.testing.assert_array_equal(res.gradient, [0.0, 0.0])

    def test_one_dim_precision_four(self):
        t = gaussian_prior([0.5], np.array([[4.0]]))
        res = t.evaluate([1.5], gradient=True, hessian=True)
        assert res.value == pytest.approx(-2.0)
        np.testing.assert_allclose(res.gradient, [-4.0])
        np.testing.assert_allclose(res.hessian, [[-4.0]])

    def test_indefinite_precision_rejected_at_construction(self):
        with pytest.raises(NotPositiveDefinite):
            gaussian_prior(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_derivatives_random_instance(self):
        rng = np.random.default_rng(5)
        t = gaussian_prior(rng.standard_normal(5), random_spd(5, rng))
        res = t.evaluate(rng.standard_normal(5), gradient=True)
        x = rng.standard_normal(5)
        res = t.evaluate(x, gradient=True)
        g_fd = fd_gradient(lambda v: t.evaluate(v).value, x)
        assert np.linalg.norm(res.gradient - g_fd) / np.linalg.norm(res.gradient) < 1e-8

    def test_restrict_is_conditional_up_to_constant(self):
        rng = np.random.default_rng(6)
        prec = random_spd(5, rng)
        t = gaussian_prior(rng.standard_normal(5), prec)
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
    def test_single_part_identity(self):
        t = gaussian_prior([0.0], np.eye(1))
        assert additive_target([t]) is t

    def test_two_priors_hessian_adds(self):
        rng = np.random.default_rng(7)
        p1, p2 = random_spd(3, rng), random_spd(3, rng)
        t = additive_target(
            [gaussian_prior(np.zeros(3), p1), gaussian_prior(np.zeros(3), p2)]
        )
        h = t.evaluate(rng.standard_normal(3), hessian=True).hessian
        np.testing.assert_array_equal(h, -(p1 + p2))

    def test_costs_sum(self):
        t = additive_target(
            [gaussian_prior(np.zeros(2), np.eye(2)), gaussian_prior(np.zeros(2), np.eye(2))]
        )
        res = t.evaluate(np.zeros(2), gradient=True, hessian=True)
        assert res.cost == EvalCost(2, 2, 2)

    def test_posterior_composition_logistic_plus_prior(self):
        rng = np.random.default_rng(8)
        X, y = random_logistic(rng, n=30, k=4)
        lik = logistic_target(X, y)
        prior = gaussian_prior(np.zeros(4), 0.5 * np.eye(4))
        post = additive_target([lik, prior])
        x = rng.standard_normal(4)
        a = post.evaluate(x, gradient=True, hessian=True)
        b1 = lik.evaluate(x, gradient=True, hessian=True)
        b2 = prior.evaluate(x, gradient=True, hessian=True)
        assert a.value == pytest.approx(b1.value + b2.value, rel=1e-14)
        np.testing.assert_allclose(a.gradient, b1.gradient + b2.gradient)
        np.testing.assert_array_equal(a.hessian, b1.hessian + b2.hessian)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            AdditiveTarget(
                [gaussian_prior([0.0], np.eye(1)), gaussian_prior([0.0, 0.0], np.eye(2))]
            )

    def test_hessians_are_plain_arrays(self):
        rng = np.random.default_rng(6)
        X, y = random_logistic(rng, n=20, k=3)
        prior = gaussian_prior(np.zeros(3), random_spd(3, rng))
        post = additive_target([logistic_target(X, y), prior])
        model = LinearProjectionModel(BernoulliBase(y), [X])
        block, full = np.array([0, 2]), rng.standard_normal(3)
        for t in (post, post.restrict(block, full), linear_projection_target(model),
                  linear_projection_target(model).restrict(block, full),
                  poisson_lograte_target([2])):
            h = t.evaluate(np.zeros(t.dim), hessian=True).hessian
            assert type(h) is np.ndarray and h.shape == (t.dim, t.dim)


class TestLinearProjection:
    def test_identity_design_quadratic_base_is_standard_gaussian(self):
        n = 4
        base = ConcaveQuadraticBase(np.ones((n, 1, 1)), np.zeros((n, 1)))
        # X = I means each coordinate feeds one observation: H = -I
        m = LinearProjectionModel(base, [np.eye(n)])
        t = linear_projection_target(m)
        res = t.evaluate(np.zeros(n), gradient=True, hessian=True)
        np.testing.assert_array_equal(res.hessian, -np.eye(n))
        assert res.value == 0.0

    def test_matches_logistic_target_exactly(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            X, y = random_logistic(rng, n=25, k=4)
            direct = logistic_target(X, y)
            composed = linear_projection_target(
                LinearProjectionModel(BernoulliBase(y), [X])
            )
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
        m = LinearProjectionModel(
            base, [rng.standard_normal((n, 1)), rng.standard_normal((n, 1))]
        )
        t = linear_projection_target(m)
        x = rng.standard_normal(2)
        H = t.evaluate(x, hessian=True).hessian
        H_fd = fd_hessian_of_value(lambda v: t.evaluate(v).value, x)
        assert np.linalg.norm(H - H_fd, "fro") / np.linalg.norm(H, "fro") < 1e-5

    def test_column_rank(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((10, 4))
        assert column_rank(X) == 4
        X_def = np.hstack([X[:, :3], X[:, :1] * 2.0])
        assert column_rank(X_def) == 3


class TestWitness:
    def test_full_rank_certificate(self):
        rng = np.random.default_rng(12)
        X, y = random_logistic(rng, n=20, k=4)
        m = LinearProjectionModel(BernoulliBase(y), [X])
        rep = negative_definiteness_witness(m, rng.standard_normal(4), 10, rng)
        assert rep.certified
        assert rep.factor is not None
        assert rep.identity_max_err <= 1e-10 * max(1.0, rep.hessian_norm)

    def test_duplicated_column_yields_witness(self):
        rng = np.random.default_rng(13)
        X, y = random_logistic(rng, n=20, k=3)
        X_def = np.hstack([X, X[:, :1]])  # rank 3 of 4
        m = LinearProjectionModel(BernoulliBase(y), [X_def])
        rep = negative_definiteness_witness(m, rng.standard_normal(4), 10, rng)
        assert not rep.certified
        p = rep.witness
        assert np.linalg.norm(p) > 0
        assert abs(rep.quad_form) <= 1e-8 * rep.hessian_norm * float(p @ p)

    def test_mixed_rank_plan_yields_flat_direction(self):
        # one full-rank design does not rescue definiteness: a direction
        # supported on the deficient block alone keeps p^T H p at zero
        rng = np.random.default_rng(14)
        n = 20
        X1 = rng.standard_normal((n, 3))
        col = rng.standard_normal((n, 1))
        X2 = np.hstack([col, 2.0 * col])  # rank 1 of 2
        raw = rng.standard_normal((n, 2, 2))
        quad = np.einsum("ijk,ilk->ijl", raw, raw) + 0.1 * np.eye(2)
        base = ConcaveQuadraticBase(quad, rng.standard_normal((n, 2)))
        m = LinearProjectionModel(base, [X1, X2])
        assert m.full_rank_flags == (True, False)
        rep = negative_definiteness_witness(m, rng.standard_normal(5), 10, rng)
        assert not rep.certified
        p = rep.witness
        np.testing.assert_array_equal(p[:3], 0.0)
        assert abs(rep.quad_form) <= 1e-8 * rep.hessian_norm * float(p @ p)
        # and indeed the negated Hessian has no Cholesky factor
        t = linear_projection_target(m)
        H = t.evaluate(rng.standard_normal(5), hessian=True).hessian
        with pytest.raises(NotPositiveDefinite):
            cholesky(-H)
