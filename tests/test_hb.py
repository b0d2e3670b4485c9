import numpy as np
import pytest
from scipy.special import expit

import tangentmh.hb as hb
import tangentmh.tangent as tangent
import tangentmh.targets as targets
from tangentmh.diagnostics import effective_size
from tangentmh.hb import (
    SIZE_RANGE,
    HbConfig,
    HbModelSpec,
    HbState,
    draw_precisions,
    draw_upper_coeffs,
    hb_cycle,
    hb_gibbs,
    simulate_hb,
)
from tangentmh.linalg import NotPositiveDefinite, _lower_solve, cholesky
from tangentmh.tangent import tangent_step
from tangentmh.targets import AdditiveTarget, EvalCost, GaussianPriorTarget, LogisticTarget

from helpers import hb_trace_sha256


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

    @pytest.mark.parametrize("upper", [1.0, np.ones(1)], ids=["scalar", "1-D"])
    def test_rejects_upper_design_that_is_no_matrix(self, upper):
        # a scalar used to raise IndexError
        with pytest.raises(ValueError, match="upper design needs one row per group"):
            HbModelSpec([np.zeros((2, 1))], [np.zeros(2)], upper)

    def test_rejects_group_design_that_is_no_matrix(self):
        # used to raise IndexError
        with pytest.raises(ValueError, match=r"group 1's design has shape \(2,\)"):
            HbModelSpec([np.zeros((2, 1)), np.zeros(2)], [np.zeros(2)] * 2, np.ones((2, 1)))

    def test_rejects_groups_of_different_coefficient_counts(self):
        with pytest.raises(ValueError, match="all groups must share the coefficient dimension"):
            HbModelSpec([np.zeros((2, 1)), np.zeros((2, 2))], [np.zeros(2)] * 2, np.ones((2, 1)))

    def test_rejects_nonbinary(self):
        with pytest.raises(ValueError):
            HbModelSpec([np.zeros((2, 1))], [np.array([0.0, 2.0])], np.ones((1, 1)))

    @pytest.mark.parametrize("bad", [-10.0, -1.0, np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("name", ["gamma_shape", "gamma_rate", "gamma_precision"])
    def test_rejects_bad_hyperparameters(self, name, bad):
        # each used to fail mid-chain, under numpy's or another quantity's name
        spec, _ = simulate_hb(3, 4, 2, np.random.default_rng(1), group_size=50)
        with pytest.raises(ValueError, match=name):
            HbModelSpec(spec.designs, spec.responses, spec.upper_design, **{name: bad})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field, group", [("designs", 2), ("upper_design", 1)])
    def test_rejects_non_finite_design(self, field, group, bad):
        # a non-finite upper design used to fail in cycle 1 under the
        # sampler's name, a non-finite group design when the stacked data
        # was first built
        spec, _ = simulate_hb(3, 4, 2, np.random.default_rng(1), group_size=50)
        designs, upper = [X.copy() for X in spec.designs], spec.upper_design.copy()
        if field == "designs":
            designs[group][7, 1] = bad
        else:
            upper[group, 1] = bad
        with pytest.raises(ValueError, match=f"{field} must be finite: group {group}'s"):
            HbModelSpec(designs, spec.responses, upper)

    def test_zero_gamma_rate_runs(self):
        spec, _ = simulate_hb(3, 4, 2, np.random.default_rng(1), group_size=50)
        spec = HbModelSpec(spec.designs, spec.responses, spec.upper_design, gamma_rate=0.0)
        trace = hb_gibbs(spec, HbConfig(4, 6), np.random.default_rng(2))
        assert np.all(np.isfinite(trace.tau))


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
        gamma[k] = mean + _lower_solve(factor.lower, rng.standard_normal(spec.n_upper), 1)
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
                # the same square root through inverse factors: equal to rounding
                np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)
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


class TestKernelPath:
    """hb's stacked factorizations and inverses run on numpy's kernels,
    never through ``np.linalg.cholesky`` or ``np.linalg.inv``."""

    @pytest.mark.parametrize("sampler, newton", [("tangent", False), ("tangent", True), ("slice", False)])
    def test_cycle_calls_no_numpy_wrapper(self, small_instance, monkeypatch, sampler, newton):
        spec, _ = small_instance
        state = HbState(np.zeros((4, 6)), np.zeros((6, 2)), np.ones(6))
        ref, *_ = hb_cycle(spec, HbConfig(beta_sampler=sampler), state, np.random.default_rng(1), newton=newton)

        def refuse(*args, **kwargs):
            raise AssertionError("numpy's linalg wrapper called")

        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        monkeypatch.setattr(np.linalg, "inv", refuse)
        got, *_ = hb_cycle(spec, HbConfig(beta_sampler=sampler), state, np.random.default_rng(1), newton=newton)
        for field in ("beta", "gamma", "tau"):
            assert getattr(got, field).tobytes() == getattr(ref, field).tobytes()

    def test_gram_parts_cached_per_spec(self, small_instance):
        spec, _ = small_instance
        gram, ridge = spec._upper_gram
        Z = spec.upper_design
        assert spec._upper_gram[0] is gram
        assert gram.tobytes() == (Z.T @ Z).tobytes()
        assert ridge.tobytes() == (spec.gamma_precision * np.eye(spec.n_upper)).tobytes()


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

    def test_prior_precision_never_factored(self, small_instance, monkeypatch):
        # diag(tau) is checked as "every tau_k finite and > 0", so neither
        # its check nor a group's prior factors anything
        calls = []
        real = targets.cholesky
        monkeypatch.setattr(targets, "cholesky", lambda m: calls.append(1) or real(m))
        spec, _ = small_instance
        for sampler in ("tangent", "slice"):
            hb_gibbs(spec, HbConfig(n_burnin=2, n_samples=3, beta_sampler=sampler, seed=9))
        assert calls == []

    @pytest.fixture
    def no_group_target(self, monkeypatch):
        """Refuse to build, restrict or evaluate any per-group target;
        returns the list of the shapes ``AdditiveTarget`` is evaluated at,
        each with its parts' types."""

        def refuse(*args, **kwargs):
            raise AssertionError("a group target was built or evaluated")

        for cls in (LogisticTarget, GaussianPriorTarget):
            for name in ("__init__", "evaluate", "restrict"):
                monkeypatch.setattr(cls, name, refuse)
        monkeypatch.setattr(AdditiveTarget, "restrict", refuse)
        monkeypatch.setattr(targets, "_built", refuse)
        calls = []
        evaluate = AdditiveTarget.evaluate
        monkeypatch.setattr(
            AdditiveTarget, "evaluate",
            lambda self, x, **kw: calls.append((x.shape, [type(p) for p in self._parts])) or evaluate(self, x, **kw),
        )
        # the control: a per-group path cannot start
        with pytest.raises(AssertionError, match="a group target was built"):
            AdditiveTarget([LogisticTarget(np.eye(2), np.ones(2)), GaussianPriorTarget(np.zeros(2), np.eye(2))])
        return calls

    def test_tangent_path_builds_no_group_target(self, small_instance, no_group_target, monkeypatch):
        # the target is the J groups' stacked conditionals, the one part of
        # an AdditiveTarget: no per-group target is built, restricted or
        # evaluated, and every evaluation is at the (J, K) stack
        shapes = []
        likelihood = hb._StackedGroups.likelihood
        monkeypatch.setattr(hb._StackedGroups, "likelihood",
                            lambda self, b, *args: shapes.append(b.shape) or likelihood(self, b, *args))
        spec, _ = small_instance
        trace = hb_gibbs(spec, HbConfig(n_burnin=4, n_samples=4, seed=9))
        assert trace.n_samples == 4
        # each of the 6 MH cycles evaluates its proposals through the target
        assert no_group_target == [((4, 6), [hb._GroupConditionals])] * 6
        # the likelihood is evaluated there and at the current points of the
        # 2 Newton cycles and the first MH cycle, which nothing carries into
        assert shapes == [(4, 6)] * (2 + 1 + 6)

    def test_slice_path_is_one_slice_sweep_per_group(self, small_instance, monkeypatch):
        # each cycle calls slice_sweep, through hb's module global, once per
        # group on its likelihood plus a diagonal prior; their lines evaluate
        # no target, and the prior is never factored
        def refuse(*args, **kwargs):
            raise AssertionError("a target was evaluated or a precision factored")

        for cls in (LogisticTarget, GaussianPriorTarget, AdditiveTarget):
            monkeypatch.setattr(cls, "evaluate", refuse)
        monkeypatch.setattr(targets, "cholesky", refuse)
        with pytest.raises(AssertionError, match="factored"):
            GaussianPriorTarget(np.zeros(2), np.eye(2))
        swept, per_cycle = [], []
        sweep, draw = hb.slice_sweep, hb.draw_upper_coeffs
        monkeypatch.setattr(hb, "slice_sweep", lambda target, *args: swept.append(target) or sweep(target, *args))
        monkeypatch.setattr(hb, "draw_upper_coeffs", lambda *args: per_cycle.append(len(swept)) or draw(*args))
        spec, _ = small_instance
        trace = hb_gibbs(spec, HbConfig(n_burnin=4, n_samples=4, beta_sampler="slice", seed=9))
        assert trace.n_samples == 4
        assert np.all(np.isfinite(trace.beta))
        J = spec.n_groups
        assert per_cycle == [J * (c + 1) for c in range(8)]
        for i, target in enumerate(swept):
            likelihood, prior = target._parts
            assert likelihood is spec._stacked.targets[i % J]
            assert prior._diagonal

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
    @pytest.mark.parametrize("sampler", ["tangent", "slice"])
    def test_tau_must_be_finite_and_positive(self, small_instance, bad, sampler):
        spec, _ = small_instance
        tau = np.full(spec.n_coeffs, 2.0)
        tau[3] = bad
        state = HbState(np.zeros((4, 6)), np.zeros((6, 2)), tau)
        with pytest.raises(NotPositiveDefinite, match=r"tau\[3\]") as exc:
            hb_cycle(spec, HbConfig(beta_sampler=sampler), state, np.random.default_rng(0))
        assert exc.value.pivot == 3

    @pytest.mark.parametrize("sampler", ["tangent", "slice"])
    def test_tau_spread_over_many_magnitudes_runs(self, small_instance, sampler):
        # positive definite, though cholesky's relative pivot rule refuses it
        spec, _ = small_instance
        tau = np.array([4e-10, 1.0, 773.0, 1e-3, 5.0, 2.0])
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.diag(tau))
        state = HbState(np.zeros((4, 6)), np.zeros((6, 2)), tau)
        new, *_ = hb_cycle(spec, HbConfig(beta_sampler=sampler), state, np.random.default_rng(0))
        assert np.all(np.isfinite(new.beta))

    def test_random_stream_layout(self, monkeypatch):
        # an MH cycle draws one (J, K) normal and J uniforms, in one block
        # also at K = 12; a Newton cycle draws nothing before the conjugate
        # draws
        monkeypatch.setattr(hb, "draw_upper_coeffs", lambda spec, beta, tau, rng: np.zeros((12, 2)))
        monkeypatch.setattr(hb, "draw_precisions", lambda spec, beta, gamma, rng: np.ones(12))
        spec, _ = simulate_hb(4, 12, 2, np.random.default_rng(12), group_size=120)
        state = HbState(np.zeros((4, 12)), np.zeros((12, 2)), np.ones(12))
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        state, *_ = hb_cycle(spec, HbConfig(), state, rng, newton=True)
        assert rng.bit_generator.state == ref.bit_generator.state
        for _ in range(2):
            state, *_ = hb_cycle(spec, HbConfig(), state, rng)
            ref.standard_normal((4, 12))
            ref.random(4)
            assert rng.bit_generator.state == ref.bit_generator.state

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


def group_conditional(spec, j, beta, prior_means, tau):
    """Group j's conditional as the per-group path built it."""
    prior = GaussianPriorTarget(prior_means[j], np.diag(tau))
    target = AdditiveTarget([LogisticTarget(spec.designs[j], spec.responses[j]), prior])
    return target.evaluate(beta[j], gradient=True, hessian=True)


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


class TestStackedConditionals:
    """The stacked target, the groups' likelihoods plus their diagonal
    Gaussian priors, against each group's ``AdditiveTarget`` of a
    logistic likelihood and its prior, to 1e-12 relative, and against
    the stacked likelihood plus the prior's own terms, added as
    ``AdditiveTarget`` adds them, bit for bit."""

    @pytest.mark.parametrize("group_size, n_coeffs", [(120, 5), (None, 5), (None, 3), (None, 10)])
    def test_equals_the_group_targets(self, group_size, n_coeffs):
        rng = np.random.default_rng(21)
        spec, _ = simulate_hb(4, n_coeffs, 2, rng, group_size=group_size)
        assert (len(set(spec.group_sizes)) > 1) == (group_size is None)
        for scale in (0.1, 1.0, 5.0):
            beta = scale * rng.standard_normal((4, n_coeffs))
            prior_means = rng.standard_normal((4, n_coeffs))
            tau = rng.gamma(2.0, 1.0, size=n_coeffs)
            got = hb._GroupConditionals(spec._stacked, prior_means, tau).evaluate(
                beta, gradient=True, hessian=True
            )
            assert got.cost == EvalCost(8, 8, 8)
            for j in range(4):
                want = group_conditional(spec, j, beta, prior_means, tau)
                assert_close(got.value[j], want.value)
                assert_close(got.gradient[j], want.gradient)
                assert_close(got.hessian[j], want.hessian)

    @pytest.mark.parametrize("n_coeffs", [1, 3, 10])
    def test_equals_the_sum_of_its_parts_bit_for_bit(self, n_coeffs):
        # the prior's value, gradient -tau d and Hessian -diag(tau), whose
        # off-diagonal entries are -0.0, each added to the likelihood's
        rng = np.random.default_rng(22)
        spec, _ = simulate_hb(4, n_coeffs, 2, rng)
        for scale in (1e-3, 1.0, 5.0):
            beta = scale * rng.standard_normal((4, n_coeffs))
            prior_means = rng.standard_normal((4, n_coeffs))
            tau = rng.gamma(2.0, 1.0, size=n_coeffs) * 10.0 ** rng.uniform(-3, 3, n_coeffs)
            values, grads, hessians = spec._stacked.likelihood(beta)
            d = beta - prior_means
            pd = tau * d
            prior_hessian = np.full((4, n_coeffs, n_coeffs), -0.0)
            prior_hessian[:, np.arange(n_coeffs), np.arange(n_coeffs)] = -tau
            target = hb._GroupConditionals(spec._stacked, prior_means, tau)
            got = target.evaluate(beta, gradient=True, hessian=True)
            # the likelihood's terms are held as last, and the priors added to
            # the terms held give the same bytes at the count asked for
            for held, want in zip(target.last, (values, grads, hessians)):
                assert held.tobytes() == want.tobytes()
            added = target.add_priors(beta, target.last, 4)
            assert got.cost == EvalCost(8, 8, 8) and added.cost == EvalCost(4, 4, 4)
            for res in (got, added):
                assert res.value.tobytes() == (values + -0.5 * np.einsum("ij,ij->i", d, pd)).tobytes()
                assert res.gradient.tobytes() == (grads + -pd).tobytes()
                assert res.hessian.tobytes() == (hessians + prior_hessian).tobytes()


def cycle_cost(spec, cfg, state, newton=False):
    new, _, cost, _ = hb_cycle(spec, cfg, state, np.random.default_rng(5), newton=newton)
    return new, cost


class SteeredRng:
    """Draws as ``rng`` draws, except in an MH cycle's stacked step: its
    uniforms are 0, so that every group with a finite log ratio accepts,
    and its normals of shape ``step_shape`` are NaN in the ``rejected``
    groups, whose proposals then fail their fit and are rejected."""

    def __init__(self, rng, step_shape, rejected):
        self._rng, self._shape, self._rejected = rng, step_shape, rejected

    def standard_normal(self, size):
        z = self._rng.standard_normal(size)
        if size == self._shape:
            z[self._rejected] = np.nan
        return z

    def random(self, size):
        self._rng.random(size)
        return np.zeros(size)

    def standard_gamma(self, *args, **kwargs):
        return self._rng.standard_gamma(*args, **kwargs)


class TestCarry:
    @pytest.mark.parametrize("sampler, seed, digest", [
        ("tangent", 101, "f7de4dfd808357dd9fa953d8e91ab304d446bf2e572117881bc67fd1aabce50b"),
        ("slice", 202, "15e2ff46445bfeea74d0f67270d62b2beffebf0aa762a40a40a03eef36ab3bc4"),
    ])
    def test_w3_chain_pinned(self, sampler, seed, digest):
        # W3's chains (c09's data and chain seeds), short: beta, gamma, tau
        # and the final counters keep their bits
        spec, _ = simulate_hb(5, 10, 2, np.random.default_rng(2026), group_size=400)
        trace = hb_gibbs(spec, HbConfig(n_burnin=20, n_samples=30, beta_sampler=sampler, seed=seed))
        assert hb_trace_sha256(trace) == digest

    @pytest.mark.parametrize("sampler, seed, digest", [
        ("tangent", 3702, "c1d595d2c359919f15ac630b2dbced5104487e7328fcfa96aef2538668d3ca50"),
        ("slice", 3703, "b7dea7936e5ba2d9652b74618a08ba8411d281d65579bb790bd54854b1605d26"),
    ])
    def test_log_uniform_chain_pinned(self, sampler, seed, digest):
        # W3's shape with log-uniform group sizes (167 to 819 rows), so the
        # stacked likelihood pads the smaller groups with zero-weight rows;
        # seeds of their own, none of c09's
        spec, _ = simulate_hb(5, 10, 2, np.random.default_rng(3701))
        assert spec.group_sizes == (167, 257, 157, 124, 819)
        trace = hb_gibbs(spec, HbConfig(n_burnin=20, n_samples=30, beta_sampler=sampler, seed=seed))
        assert hb_trace_sha256(trace) == digest

    def test_w3_counters_in_one_block(self):
        # c09's configuration: one block per group, 250 Newton cycles of
        # (2J, 2J, 2J), then 750 MH cycles of (3J, 3J, 3J), plus J values at
        # the first MH cycle's current points, whose carry the last Newton
        # move dropped, and J gradients and Hessians there
        spec, _ = simulate_hb(5, 10, 2, np.random.default_rng(2026), group_size=400)
        trace = hb_gibbs(spec, HbConfig(n_burnin=500, n_samples=500, seed=101))
        assert trace.meta["final_cost"] == {"n_value": 13755, "n_gradient": 13755, "n_hessian": 13755}

    @pytest.mark.parametrize("n_coeffs", [3, 5, 6, 10, 12])
    def test_value_counted_only_where_not_evaluated(self, n_coeffs):
        # J groups of K coefficients in one block, whatever K (K = 12 too):
        # a cycle evaluates J (1, 1, 1) priors at the current points in
        # either mode, and J (2, 2, 2) at the proposals of an MH step, plus
        # J (1, 1, 1) likelihoods where the current points were not
        # evaluated: after a Newton move, and at a state that carries none
        # (built by hand, or for another spec)
        spec, _ = simulate_hb(4, n_coeffs, 2, np.random.default_rng(n_coeffs), group_size=120)
        J, cfg = spec.n_groups, HbConfig()
        state = HbState(np.zeros((J, n_coeffs)), np.zeros((n_coeffs, 2)), np.ones(n_coeffs))
        state, cost = cycle_cost(spec, cfg, state, newton=True)
        assert cost == EvalCost(2 * J, 2 * J, 2 * J)
        state, cost = cycle_cost(spec, cfg, state)
        assert cost == EvalCost(4 * J, 4 * J, 4 * J)
        carried, cost = cycle_cost(spec, cfg, state)
        assert cost == EvalCost(3 * J, 3 * J, 3 * J)
        rebuilt = HbState(carried.beta, carried.gamma, carried.tau)
        assert cycle_cost(spec, cfg, rebuilt)[1] == EvalCost(4 * J, 4 * J, 4 * J)
        # a carry belongs to the spec it was evaluated under
        other = HbModelSpec(spec.designs, spec.responses, spec.upper_design)
        assert cycle_cost(other, cfg, carried)[1] == EvalCost(4 * J, 4 * J, 4 * J)
        # a Newton cycle from a carrying state evaluates only the priors, and
        # carries nothing
        state, cost = cycle_cost(spec, cfg, carried, newton=True)
        assert cost == EvalCost(J, J, J)
        assert cycle_cost(spec, cfg, state)[1] == EvalCost(4 * J, 4 * J, 4 * J)

    @pytest.mark.parametrize("n_coeffs", [3, 2, 6])
    def test_carry_is_the_likelihood_at_beta(self, small_instance, n_coeffs):
        # the value, gradient and Hessian carried from the last proposal
        # evaluated equal a fresh LogisticTarget evaluation at the state's
        # beta (summed in another order: 1e-12 relative), and a fresh
        # stacked evaluation at beta bit for bit; on the first K columns of
        # the small instance
        spec, _ = small_instance
        spec = HbModelSpec([X[:, :n_coeffs] for X in spec.designs], spec.responses, spec.upper_design)
        state = HbState(np.zeros((4, n_coeffs)), np.zeros((n_coeffs, 2)), np.ones(n_coeffs))
        rng = np.random.default_rng(5)
        n_rejected = 0
        for _ in range(4):
            state, accepted, *_ = hb_cycle(spec, HbConfig(), state, rng)
            carry = state._carry[1]
            assert len(carry) == 3
            for j in range(4):
                want = LogisticTarget(spec.designs[j], spec.responses[j]).evaluate(
                    state.beta[j], gradient=True, hessian=True
                )
                for got, expected in zip(carry, want[:3]):
                    assert_close(got[j], expected)
            fresh = spec._stacked.likelihood(state.beta.copy())
            for got, want in zip(carry, fresh):
                assert got.tobytes() == want.tobytes()
            n_rejected += 4 - accepted
        # at K = 6 the carry took rejected groups' arrays as well
        assert n_coeffs < 6 or 0 < n_rejected < 16

    @pytest.mark.parametrize("rejected", [[], [0, 1, 2, 3], [1, 3], [0]])
    def test_carry_is_where_of_last_and_known_whatever_accepts(self, small_instance, monkeypatch, rejected):
        # every group accepting, none, and a mix: the carried arrays are
        # np.where's choice between the proposals' likelihood terms and the
        # ones the state carried in, byte for byte, and a fresh evaluation
        # at beta
        spec, _ = small_instance
        J = spec.n_groups
        state = HbState(np.zeros((J, 6)), np.zeros((6, 2)), np.ones(6))
        rng = np.random.default_rng(9)
        for _ in range(3):
            state, *_ = hb_cycle(spec, HbConfig(), state, rng)
        known = state._carry[1]
        steps = []

        def watched(target, x, cached, rng):
            out = tangent_step(target, x, cached, rng)
            steps.append((target._parts[0], out[1]))
            return out

        monkeypatch.setattr(hb, "tangent_step", watched)
        new, n_accepted, _, failures = hb_cycle(spec, HbConfig(), state, SteeredRng(rng, (J, 6), rejected))
        ((conditionals, record),) = steps
        assert record.accepted.tolist() == [j not in rejected for j in range(J)]
        assert (n_accepted, failures) == (J - len(rejected), len(rejected))
        assert type(n_accepted) is int and type(failures) is int
        want = [np.where(record.accepted.reshape((-1,) + (1,) * (a.ndim - 1)), a, b)
                for a, b in zip(conditionals.last, known)]
        fresh = spec._stacked.likelihood(new.beta.copy())
        for got, where, evaluated in zip(new._carry[1], want, fresh):
            assert got.tobytes() == where.tobytes() == evaluated.tobytes()

    @pytest.mark.parametrize("dtype", [int, np.float32])
    @pytest.mark.parametrize("sampler, newton, n_evals", [
        ("tangent", False, 4), ("tangent", True, 2), ("slice", False, None),
    ])
    def test_beta_of_another_dtype_steps_as_float64(self, small_instance, dtype, sampler, newton, n_evals):
        # a hand-built state whose beta is int or float32 takes the cycle of
        # the float64 state of the same values, bit for bit and at the same
        # cost: 4J evaluations of each kind for an MH cycle, 2J for a Newton
        # one (the tangent MH cycle used to raise a TypeError, and the slice
        # path to write its sweeps back into the state's dtype)
        spec, _ = small_instance
        J, cfg = spec.n_groups, HbConfig(beta_sampler=sampler)
        beta = np.random.default_rng(6).integers(-2, 3, size=(J, 6)).astype(dtype)
        if dtype is np.float32:
            beta = beta + np.float32(0.375)
        want = hb_cycle(spec, cfg, HbState(beta.astype(float), np.zeros((6, 2)), np.ones(6)),
                        np.random.default_rng(5), newton=newton)
        got = hb_cycle(spec, cfg, HbState(beta, np.zeros((6, 2)), np.ones(6)), np.random.default_rng(5), newton=newton)
        for field in ("beta", "gamma", "tau"):
            assert getattr(got[0], field).dtype == np.float64
            assert getattr(got[0], field).tobytes() == getattr(want[0], field).tobytes()
        assert got[1:] == want[1:]
        if n_evals is not None:
            assert got[2] == EvalCost(n_evals * J, n_evals * J, n_evals * J)

    def test_samples_do_not_depend_on_point_identity(self, monkeypatch):
        # the carry and the current points' fit are handed on, not found by
        # the identity of the arrays the targets and the step convert: with
        # every conversion a copy, the run keeps its samples and counters
        spec, _ = simulate_hb(4, 5, 2, np.random.default_rng(3), group_size=120)
        cfg = HbConfig(n_burnin=6, n_samples=10, seed=4)
        want = hb_gibbs(spec, cfg)
        copy = lambda x: np.array(x, dtype=float, ndmin=1)  # noqa: E731
        for module in (targets, tangent):
            monkeypatch.setattr(module, "_as_points", copy)
        got = hb_gibbs(spec, cfg)
        for field in ("beta", "gamma", "tau"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
        assert got.meta == want.meta

    def test_one_block_samples_do_not_depend_on_the_carry(self, small_instance):
        # MH cycles from a state carrying the likelihood's fit and from the
        # state rebuilt by hand each cycle: the same draws, the same beta,
        # gamma and tau bit for bit; per cycle the carry spares J values, J
        # gradients and J Hessians
        spec, _ = small_instance
        J, cfg = spec.n_groups, HbConfig()
        start = HbState(np.zeros((J, 6)), np.zeros((6, 2)), np.ones(6))
        start, *_ = hb_cycle(spec, cfg, start, np.random.default_rng(4))
        chains = {"fit": start, "none": start}
        rebuild = {"fit": lambda s: s, "none": lambda s: HbState(s.beta, s.gamma, s.tau)}
        rngs = {name: np.random.default_rng(8) for name in chains}
        for _ in range(20):
            costs = {}
            for name in chains:
                state = rebuild[name](chains[name])
                chains[name], _, costs[name], _ = hb_cycle(spec, cfg, state, rngs[name])
            for field in ("beta", "gamma", "tau"):
                assert getattr(chains["none"], field).tobytes() == getattr(chains["fit"], field).tobytes()
            assert rngs["none"].bit_generator.state == rngs["fit"].bit_generator.state
            assert costs["fit"] == EvalCost(3 * J, 3 * J, 3 * J)
            assert costs["none"] == costs["fit"] + EvalCost(J, J, J)


def successive_conditional_z(seed, n, cycles, beta_sampler="tangent"):
    """Geweke's successive-conditional chain on ``hb_cycle``: J = 3
    groups of 20 rows, K = 2, L = 2, the hyperprior gamma_shape = 3,
    gamma_rate = 2, gamma_precision = 1.  Started from an exact prior draw,
    each of ``n`` iterations takes ``cycles`` ``hb_cycle``s given y, then a
    fresh y | beta.  Returns the z-scores of the chain means of beta,
    beta^2, gamma, gamma^2, tau and tau^2 against their exact prior
    moments, each scaled by its ESS-based MCSE, and the total cost."""
    rng = np.random.default_rng(seed)
    J, K, L, a, b = 3, 2, 2, 3.0, 2.0
    base, _ = simulate_hb(J, K, L, rng, group_size=20)
    X, Z = base.designs, base.upper_design
    cfg = HbConfig(beta_sampler=beta_sampler)

    def fresh_y(beta):
        return [(rng.random(20) < expit(X[j] @ beta[j])).astype(float) for j in range(J)]

    gamma = rng.standard_normal((K, L))
    tau = rng.gamma(a, 1.0 / b, size=K)
    beta = Z @ gamma.T + rng.standard_normal((J, K)) / np.sqrt(tau)
    state = HbState(beta, gamma, tau)
    cost = EvalCost()
    draws = np.empty((n, J * K + K * L + K))
    for i in range(n):
        spec = HbModelSpec(X, fresh_y(state.beta), Z, gamma_shape=a, gamma_rate=b, gamma_precision=1.0)
        for _ in range(cycles):
            state, _, used, _ = hb_cycle(spec, cfg, state, rng)
            cost = cost + used
        draws[i] = np.concatenate([state.beta.ravel(), state.gamma.ravel(), state.tau])
    stats = np.hstack([draws, draws**2])
    beta_sq = np.repeat(np.sum(Z**2, axis=1) + b / (a - 1.0), K)  # |z_j|^2 / 1 + E[1/tau]
    exact = np.concatenate([
        np.zeros(J * K), np.zeros(K * L), np.full(K, a / b),
        beta_sq, np.ones(K * L), np.full(K, a * (a + 1.0) / b**2),
    ])
    mcse = np.array([s.std(ddof=1) / np.sqrt(effective_size(s)) for s in stats.T])
    return (stats.mean(axis=0) - exact) / mcse, cost


class TestGeweke:
    """Geweke's joint-distribution test of the tangent cycle (Geweke 2004).

    A successive-conditional chain alternates ``hb_cycle``s given y with a
    fresh y | beta.  Started from an exact prior draw, every state of it
    is distributed as the prior, so the chain means of beta, beta^2,
    gamma, gamma^2, tau and tau^2 must match their exact prior moments
    (``successive_conditional_z``).  Each iteration takes one cycle, so
    every cycle starts from a state that carries no likelihood fit.  Seed
    606, 8,000 iterations, K = 2 coefficients and the bound max |z| < 4
    over the 24 statistics were fixed before its first run, when the cycle
    stepped blocks of 1; it now steps each group's coefficients as one
    block.
    """

    def test_successive_conditional_chain_keeps_the_prior(self):
        z, cost = successive_conditional_z(606, 8000, cycles=1)
        # J = 3: each cycle (4J, 4J, 4J), as y is new
        assert cost == EvalCost(8000 * 12, 8000 * 12, 8000 * 12)
        assert np.max(np.abs(z)) < 4.0, np.round(z, 2)


class TestGewekeOneBlock:
    """``TestGeweke``'s chain with the likelihood's fit carried: each
    iteration takes two cycles given y, and the second starts from the
    first's carry.  Fixed before the first run: seed 707, 5,000 iterations
    of two cycles, K = 2 coefficients, and the bound max |z| < 4 over the
    24 statistics.
    """

    def test_carried_fit_keeps_the_prior(self):
        z, cost = successive_conditional_z(707, 5000, cycles=2)
        # J = 3: a first cycle (4J, 4J, 4J), as y is new; a carrying one (3J, 3J, 3J)
        assert cost == EvalCost(5000 * 21, 5000 * 21, 5000 * 21)
        assert np.max(np.abs(z)) < 4.0, np.round(z, 2)


class TestGewekeSlice:
    """``TestGeweke``'s chain on the slice cycle, whose line log-densities
    are evaluated from each group's kept predictor and prior terms.  Fixed
    before the first run: seed 808, 5,000 iterations of one cycle, K = 2,
    and the bound max |z| < 4 over the 24 statistics.
    """

    def test_slice_cycle_keeps_the_prior(self):
        z, cost = successive_conditional_z(808, 5000, cycles=1, beta_sampler="slice")
        # value-only: 2 values per line evaluation
        assert cost.n_gradient == cost.n_hessian == 0 and cost.n_value % 2 == 0
        assert np.max(np.abs(z)) < 4.0, np.round(z, 2)
