import numpy as np
import pytest

from tangentmh.diagnostics import (
    CalibrationProfile,
    ModeFindingError,
    calibrate,
    effective_size,
    ess_per_dim,
    fee,
    mixing_index,
)
from tangentmh.targets import (
    DifferentiableTarget,
    EvalCost,
    EvalResult,
    GaussianPriorTarget,
    poisson_lograte_target,
    replicated_poisson_target,
)
from tangentmh.tangent import ChainConfig, run_chain

from helpers import ar1_series


class TestEffectiveSize:
    def test_iid_close_to_n(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(100000)
        assert 0.95 <= effective_size(x) / x.size <= 1.05

    def test_ar1_matches_analytic_sum(self):
        rng = np.random.default_rng(1)
        x = ar1_series(100000, 0.5, rng)
        # integrated autocorrelation of AR(1): (1+rho)/(1-rho) = 3
        assert abs(effective_size(x) / x.size - 1.0 / 3.0) < 0.15 / 3.0

    def test_constant_series_is_degenerate(self):
        with pytest.warns(UserWarning):
            assert effective_size(np.ones(100)) == 0.0

    def test_shift_scale_invariance(self):
        rng = np.random.default_rng(2)
        x = ar1_series(5000, 0.7, rng)
        base = effective_size(x)
        assert effective_size(3.5 * x - 11.0) == base

    def test_cap_at_one_point_five_n(self):
        # strongly antithetic series: ESS hits the cap, not below it
        x = np.tile([1.0, -1.0], 5000) + 0.01 * np.random.default_rng(3).standard_normal(10000)
        assert effective_size(x) <= 1.5 * x.size
        assert effective_size(x) > x.size  # super-efficient is allowed

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            effective_size(np.arange(5.0))

    def test_per_dim(self):
        rng = np.random.default_rng(4)
        s = rng.standard_normal((2000, 3))
        out = ess_per_dim(s)
        assert out.shape == (3,)
        assert np.all(out > 1000)


class TestFee:
    def _trace(self, n=200):
        t = GaussianPriorTarget(np.zeros(2), np.eye(2))
        return t, run_chain(t, np.ones(2), ChainConfig(20, n), np.random.default_rng(5))

    def test_requires_calibration(self):
        _, trace = self._trace()
        with pytest.raises(ValueError):
            fee(trace, None)

    def test_consistency_of_units(self):
        t, _ = self._trace()
        calib = calibrate(t, np.zeros(2), 200)
        # compare the fastest of interleaved repeats, the figure a busy
        # shared host disturbs least
        totals = {200: [], 400: []}
        for _ in range(5):
            for n, runs in totals.items():
                _, trace = self._trace(n)
                per_nominal = fee(trace, calib)
                assert per_nominal > 0
                runs.append(per_nominal * trace.n_steps)
        # a run twice as long costs roughly twice as much in total
        assert min(totals[400]) / min(totals[200]) == pytest.approx(2.0, rel=0.5)

    def test_calibration_repeatable(self):
        t = GaussianPriorTarget(np.zeros(2), np.eye(2))
        a, b = [], []
        # fastest of interleaved repeats, as above; 15 of them, so that one
        # burst of load on a shared host cannot catch every repeat of one side
        for _ in range(15):
            a.append(calibrate(t, np.zeros(2), 300).seconds_per_value_eval)
            b.append(calibrate(t, np.zeros(2), 300).seconds_per_value_eval)
        a, b = min(a), min(b)
        assert a > 0
        assert abs(a - b) / a < 0.2

    def test_calibration_needs_reps(self):
        t = GaussianPriorTarget(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError):
            calibrate(t, np.zeros(2), 50)


class OneDimTarget(DifferentiableTarget):
    """A 1-D log-density with value 0, a fixed gradient and Hessian
    ``curvature``, and its mode at 0.5; ``fail_hessian`` makes a Hessian
    evaluation raise ZeroDivisionError."""

    def __init__(self, gradient, fail_hessian=False, curvature=-1.0):
        self._gradient, self._fail, self._curvature = gradient, fail_hessian, curvature

    @property
    def dim(self):
        return 1

    def evaluate(self, x, *, gradient=False, hessian=False):
        if hessian and self._fail:
            raise ZeroDivisionError("no Hessian")
        return EvalResult(0.0, np.array([self._gradient]) if gradient else None,
                          np.array([[self._curvature]]) if hessian else None, EvalCost(1, gradient, hessian))

    def mode(self):
        return 0.5

    def third_derivative(self, x):
        return 1.0


class TestMixingIndex:
    def test_poisson_single_count_2(self):
        t = poisson_lograte_target([2])
        assert mixing_index(t) == pytest.approx(0.7071067811865476, abs=1e-3)

    @pytest.mark.parametrize("obs", [1, 2, 200, 1000, 10**6])
    @pytest.mark.parametrize("n", [1, 10, 100])
    def test_replicated_poisson_is_exact_at_its_mode(self, obs, n):
        # (obs N)^(-1/2): the mode log(obs) is the target's own, not a search's
        assert mixing_index(replicated_poisson_target(obs, n)) == pytest.approx((obs * n) ** -0.5, rel=1e-12)

    def test_replicated_scaling_law(self):
        # eta0 * sqrt(N) constant across replication counts
        vals = []
        for n in (1, 4, 16, 100):
            t = replicated_poisson_target(1, n)
            vals.append(mixing_index(t) * np.sqrt(n))
        assert np.ptp(vals) < 1e-10
        assert vals[0] == pytest.approx(1.0, abs=1e-10)

    def test_gaussian_is_zero(self):
        t = GaussianPriorTarget([3.0], np.array([[2.5]]))
        assert mixing_index(t) == 0.0
        np.testing.assert_array_equal(t.mode(), [3.0])

    def test_all_zero_counts_diverges(self):
        t = poisson_lograte_target([0, 0, 0])
        with pytest.raises(ModeFindingError):
            mixing_index(t)

    @pytest.mark.parametrize("curvature", [0.0, 2.0, np.nan])
    def test_curvature_not_negative_at_the_mode_is_a_mode_finding_error(self, curvature):
        with pytest.raises(ModeFindingError, match=r"not negative"):
            mixing_index(OneDimTarget(gradient=0.0, curvature=curvature))

    def test_one_evaluation_with_the_hessian_at_the_mode(self):
        calls = []

        class Recording(OneDimTarget):
            def evaluate(self, x, *, gradient=False, hessian=False):
                calls.append((np.asarray(x).tolist(), gradient, hessian))
                return super().evaluate(x, gradient=gradient, hessian=hessian)

        assert mixing_index(Recording(gradient=0.0)) == 1.0
        assert calls == [([0.5], False, True)]

    def test_other_errors_pass_through(self):
        with pytest.raises(ZeroDivisionError):
            mixing_index(OneDimTarget(gradient=1.0, fail_hessian=True))

    def test_multivariate_rejected(self):
        t = GaussianPriorTarget(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError):
            mixing_index(t)


class TestAcceptanceVsMixing:
    def test_rejection_rate_monotone_in_observations(self):
        rates = []
        for n_obs, seed in zip((1, 10, 100), (10, 11, 12)):
            t = replicated_poisson_target(1, n_obs)
            trace = run_chain(
                t, [t.mode()], ChainConfig(200, 10000), np.random.default_rng(seed)
            )
            rates.append(1.0 - trace.acceptance_rate())
        assert rates[0] > rates[1] > rates[2]
