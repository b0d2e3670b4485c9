import numpy as np
import pytest

from tangentmh.hb import (
    SIZE_RANGE,
    HbConfig,
    HbModelSpec,
    draw_precisions,
    draw_upper_coeffs,
    hb_gibbs,
    simulate_hb,
)
from tangentmh.linalg import NotPositiveDefinite, _upper_solve, cholesky


@pytest.fixture(scope="module")
def small_instance():
    rng = np.random.default_rng(0)
    return simulate_hb(4, 6, 2, rng, group_size=120)


class TestSpec:
    def test_simulator_shapes(self, small_instance):
        spec, truth = small_instance
        assert spec.n_groups == 4
        assert spec.n_coeffs == 6
        assert spec.n_upper == 2
        assert truth["beta"].shape == (4, 6)
        assert truth["gamma"].shape == (6, 2)

    def test_log_uniform_sizes_vary(self):
        rng = np.random.default_rng(1)
        spec, _ = simulate_hb(6, 3, 2, rng)
        sizes = spec.group_sizes
        assert min(sizes) >= SIZE_RANGE[0] and max(sizes) <= SIZE_RANGE[1]
        assert max(sizes) / min(sizes) > 2  # heterogeneous group sizes

    def test_rejects_mismatched_groups(self):
        with pytest.raises(ValueError):
            HbModelSpec(
                [np.zeros((5, 2))], [np.zeros(5), np.zeros(5)], np.ones((1, 1))
            )

    def test_rejects_empty_upper_design(self):
        with pytest.raises(ValueError):
            HbModelSpec([np.zeros((2, 1))], [np.zeros(2)], np.ones((1, 0)))

    def test_rejects_nonbinary(self):
        with pytest.raises(ValueError):
            HbModelSpec([np.zeros((2, 1))], [np.array([0.0, 2.0])], np.ones((1, 1)))


class TestConjugateUpdates:
    def test_precision_draw_matches_gamma_posterior_mean(self, small_instance):
        spec, truth = small_instance
        beta, gamma = truth["beta"], truth["gamma"]
        rng = np.random.default_rng(2)
        draws = np.array([draw_precisions(spec, beta, gamma, rng) for _ in range(100000)])
        resid = beta - spec.upper_design @ gamma.T
        expected = (spec.gamma_shape + 0.5 * spec.n_groups) / (
            spec.gamma_rate + 0.5 * np.sum(resid**2, axis=0)
        )
        np.testing.assert_allclose(draws.mean(axis=0), expected, rtol=0.01)

    def test_upper_draw_posterior_moments(self, small_instance):
        spec, truth = small_instance
        beta = truth["beta"]
        tau = np.full(spec.n_coeffs, 4.0)
        rng = np.random.default_rng(3)
        draws = np.array([draw_upper_coeffs(spec, beta, tau, rng) for _ in range(20000)])
        Z = spec.upper_design
        for k in range(spec.n_coeffs):
            prec = tau[k] * Z.T @ Z + spec.gamma_precision * np.eye(spec.n_upper)
            mean = np.linalg.solve(prec, tau[k] * Z.T @ beta[:, k])
            np.testing.assert_allclose(draws[:, k].mean(axis=0), mean, atol=0.03)


def upper_coeffs_loop(spec, beta, tau, rng):
    """``draw_upper_coeffs`` one coefficient at a time: one factor, one
    right-hand side and one ``standard_normal(L)`` draw per k."""
    Z = spec.upper_design
    ztz = Z.T @ Z
    eye = np.eye(spec.n_upper)
    gamma = np.empty((spec.n_coeffs, spec.n_upper))
    for k in range(spec.n_coeffs):
        factor = cholesky(tau[k] * ztz + spec.gamma_precision * eye)
        mean = factor.solve(tau[k] * (Z.T @ beta[:, k]))
        gamma[k] = mean + _upper_solve(factor.lower.T, rng.standard_normal(spec.n_upper), 0)
    return gamma


class TestStackedUpperDraw:
    @pytest.mark.parametrize("n_coeffs, n_upper", [(10, 2), (4, 1), (6, 3), (3, 4)])
    def test_equals_the_per_coefficient_loop(self, n_coeffs, n_upper):
        rng = np.random.default_rng(n_coeffs * 10 + n_upper)
        for n_groups in (5, 12):
            spec, truth = simulate_hb(n_groups, n_coeffs, n_upper, rng, group_size=20)
            for scale in (1e-3, 1.0, 1e3):
                beta = scale * rng.standard_normal((n_groups, n_coeffs))
                tau = rng.gamma(2.0, 1.0, size=n_coeffs) * scale
                got_rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
                got = draw_upper_coeffs(spec, beta, tau, got_rng)
                ref = upper_coeffs_loop(spec, beta, tau, ref_rng)
                assert got.tobytes() == ref.tobytes()
                assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("bad", [-1.0, -1e-3, -np.inf, np.nan])
    @pytest.mark.parametrize("k", [0, 3])
    def test_non_positive_tau_raises_the_loop_pivot(self, small_instance, bad, k):
        spec, truth = small_instance
        tau = np.full(spec.n_coeffs, 4.0)
        tau[k] = bad
        with pytest.raises(NotPositiveDefinite) as ref:
            upper_coeffs_loop(spec, truth["beta"], tau, np.random.default_rng(0))
        with pytest.raises(NotPositiveDefinite) as got:
            draw_upper_coeffs(spec, truth["beta"], tau, np.random.default_rng(0))
        assert got.value.pivot == ref.value.pivot
        assert str(got.value) == str(ref.value)


class TestGibbs:
    def test_zero_samples(self, small_instance):
        spec, _ = small_instance
        trace = hb_gibbs(spec, HbConfig(n_burnin=3, n_samples=0, seed=4))
        assert trace.n_samples == 0

    def test_short_run_both_samplers_no_failures(self, small_instance):
        spec, _ = small_instance
        for sampler in ("tangent", "slice"):
            trace = hb_gibbs(
                spec,
                HbConfig(n_burnin=30, n_samples=30, beta_sampler=sampler, seed=5),
            )
            assert trace.n_samples == 30
            assert trace.meta["hessian_failures"] == 0
            assert np.all(np.isfinite(trace.beta))
            assert np.all(trace.tau > 0)

    def test_determinism(self, small_instance):
        spec, _ = small_instance
        cfg = HbConfig(n_burnin=10, n_samples=20, seed=6)
        a = hb_gibbs(spec, cfg)
        b = hb_gibbs(spec, cfg)
        assert np.array_equal(a.beta, b.beta)
        assert np.array_equal(a.tau, b.tau)

    def test_strong_upper_prior_pins_gamma(self):
        # with a huge prior precision on gamma, its draws stay near zero
        # and the model degenerates to per-group logistic regression
        rng = np.random.default_rng(7)
        spec, _ = simulate_hb(1, 4, 2, rng, group_size=200)
        pinned = HbModelSpec(
            spec.designs, spec.responses, spec.upper_design, gamma_precision=1e8
        )
        trace = hb_gibbs(pinned, HbConfig(n_burnin=50, n_samples=100, seed=8))
        assert np.max(np.abs(trace.gamma)) < 0.01

    @pytest.mark.parametrize("sampler", ["tangent", "slice"])
    def test_prior_precision_factored_once_per_cycle(self, small_instance, sampler, monkeypatch):
        # diag(tau) is checked once per cycle, not once per group, and a
        # block restrict of a diagonal precision factors nothing
        import tangentmh.targets as targets

        calls = []
        real = targets.cholesky
        monkeypatch.setattr(targets, "cholesky", lambda m: calls.append(1) or real(m))
        spec, _ = small_instance
        hb_gibbs(spec, HbConfig(n_burnin=2, n_samples=3, beta_sampler=sampler, seed=9))
        assert len(calls) == 5

    def test_negative_burnin_refused(self, small_instance):
        # used to return uninitialised memory as tau row 0
        spec, _ = small_instance
        with pytest.raises(ValueError):
            hb_gibbs(spec, HbConfig(n_burnin=-1, n_samples=4, seed=1))

    def test_newton_cycles_within_burnin(self):
        # three Newton cycles in a two-cycle burn-in would record one
        with pytest.raises(ValueError):
            HbConfig(n_burnin=2, n_samples=4, n_newton=3)

    def test_invalid_sampler_name(self):
        with pytest.raises(ValueError):
            HbConfig(beta_sampler="nuts")
