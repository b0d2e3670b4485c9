import numpy as np
import pytest
from scipy.special import expit

import tangentmh.hb as hb
import tangentmh.targets as targets
from tangentmh.diagnostics import effective_size
from tangentmh.gibbs import BlockPartition
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
from tangentmh.linalg import NotPositiveDefinite, _upper_solve, cholesky
from tangentmh.targets import AdditiveTarget, EvalCost, GaussianPriorTarget, LogisticTarget


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

    def test_tangent_path_builds_no_group_target(self, small_instance, monkeypatch):
        # each block's target is the AdditiveTarget of the J groups' stacked
        # likelihoods and priors: no per-group target is built, restricted or
        # evaluated, and every evaluation is at the (J, m) stack of a block
        def refuse(*args, **kwargs):
            raise AssertionError("a group target was built or evaluated")

        for cls in (LogisticTarget, GaussianPriorTarget):
            for name in ("__init__", "evaluate", "restrict"):
                monkeypatch.setattr(cls, name, refuse)
        monkeypatch.setattr(AdditiveTarget, "restrict", refuse)
        monkeypatch.setattr(hb, "_built", refuse)
        shapes = []
        evaluate = AdditiveTarget.evaluate
        monkeypatch.setattr(
            AdditiveTarget, "evaluate", lambda self, x, **kw: shapes.append(x.shape) or evaluate(self, x, **kw)
        )
        spec, _ = small_instance
        fresh = HbModelSpec(spec.designs, spec.responses, spec.upper_design)
        trace = hb_gibbs(fresh, HbConfig(n_burnin=4, n_samples=4, block_size=4, seed=9))
        assert trace.n_samples == 4
        # 2 Newton cycles evaluate once per block, 6 MH cycles twice
        assert shapes == [(4, 4), (4, 2)] * 2 + [(4, 4), (4, 4), (4, 2), (4, 2)] * 6
        with pytest.raises(AssertionError, match="a group target was built"):
            hb_gibbs(fresh, HbConfig(n_burnin=4, n_samples=4, beta_sampler="slice", seed=9))

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

    def test_random_stream_layout(self, small_instance, monkeypatch):
        # an MH cycle draws, per block in order, one (J, m) normal and J
        # uniforms; a Newton cycle draws nothing before the conjugate draws
        monkeypatch.setattr(hb, "draw_upper_coeffs", lambda spec, beta, tau, rng: np.zeros((6, 2)))
        monkeypatch.setattr(hb, "draw_precisions", lambda spec, beta, gamma, rng: np.ones(6))
        spec, _ = small_instance
        state = HbState(np.zeros((4, 6)), np.zeros((6, 2)), np.ones(6))
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        state, *_ = hb_cycle(spec, HbConfig(block_size=4), state, rng, newton=True)
        assert rng.bit_generator.state == ref.bit_generator.state
        hb_cycle(spec, HbConfig(block_size=4), state, rng)
        for m in (4, 2):
            ref.standard_normal((4, m))
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


def group_conditional(spec, j, block, beta, prior_means, tau):
    """Group j's block conditional as the per-group path built it."""
    prior = GaussianPriorTarget(prior_means[j], np.diag(tau))
    target = AdditiveTarget([LogisticTarget(spec.designs[j], spec.responses[j]), prior])
    return target.restrict(block, beta[j]).evaluate(beta[j][block], gradient=True, hessian=True)


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


class TestStackedConditionals:
    """Each block's stacked target, the ``AdditiveTarget`` of the groups'
    likelihoods and diagonal Gaussian priors, against each group's
    ``AdditiveTarget`` of a logistic likelihood and its prior, restricted
    to the block, to 1e-12 relative."""

    @pytest.mark.parametrize("group_size, block_size", [(120, 5), (None, 5), (None, 3), (None, 10)])
    def test_equals_the_group_targets(self, group_size, block_size):
        rng = np.random.default_rng(21)
        spec, _ = simulate_hb(4, 10, 2, rng, group_size=group_size)
        assert (len(set(spec.group_sizes)) > 1) == (group_size is None)
        groups = spec._stacked
        for scale in (0.1, 1.0, 5.0):
            beta = scale * rng.standard_normal((4, 10))
            prior_means = rng.standard_normal((4, 10))
            tau = rng.gamma(2.0, 1.0, size=10)
            for block in BlockPartition.contiguous(10, block_size).blocks:
                rest = np.delete(np.arange(10), block)
                offset = np.einsum("jk,jkn->jn", beta[:, rest], groups.xt[:, rest])
                b = beta[:, block]
                parts = [
                    hb._BlockLikelihoods(groups, block, offset, b, None),
                    hb._BlockPriors(prior_means[:, block], tau[block]),
                ]
                got = AdditiveTarget(parts).evaluate(b, gradient=True, hessian=True)
                assert got.cost == EvalCost(8, 8, 8)
                for j in range(4):
                    want = group_conditional(spec, j, block, beta, prior_means, tau)
                    assert_close(got.value[j], want.value)
                    assert_close(got.gradient[j], want.gradient)
                    assert_close(got.hessian[j], want.hessian)


def cycle_cost(spec, cfg, state, newton=False):
    new, _, cost, _ = hb_cycle(spec, cfg, state, np.random.default_rng(5), newton=newton)
    return new, cost


def without_derivatives(state):
    """``state`` rebuilt by hand, carrying only the likelihood's value and
    ``sigma(t)`` at beta (as a cycle on two or more blocks leaves it)."""
    rebuilt = HbState(state.beta, state.gamma, state.tau)
    spec, carry = state._carry
    object.__setattr__(rebuilt, "_carry", (spec, carry[:2]))
    return rebuilt


class TestCarry:
    def test_w3_counters(self):
        # c09's configuration in blocks of 5: the counters of one block_sweep
        # per group, whose conditionals shared their linear predictor, exactly
        spec, _ = simulate_hb(5, 10, 2, np.random.default_rng(2026), group_size=400)
        trace = hb_gibbs(spec, HbConfig(n_burnin=500, n_samples=500, block_size=5, seed=101))
        assert trace.meta["final_cost"] == {"n_value": 27505, "n_gradient": 35000, "n_hessian": 35000}

    def test_w3_counters_in_one_block(self):
        # c09's configuration: one block per group, 250 Newton cycles of
        # (2J, 2J, 2J), then 750 MH cycles of (3J, 3J, 3J), plus J values at
        # the first MH cycle's current points, whose carry the last Newton
        # move dropped, and J gradients and Hessians there
        spec, _ = simulate_hb(5, 10, 2, np.random.default_rng(2026), group_size=400)
        trace = hb_gibbs(spec, HbConfig(n_burnin=500, n_samples=500, seed=101))
        assert trace.meta["final_cost"] == {"n_value": 13755, "n_gradient": 13755, "n_hessian": 13755}

    @pytest.mark.parametrize("block_size", [3, 5, 6, 10])
    def test_value_counted_only_where_not_evaluated(self, small_instance, block_size):
        # J groups, B blocks: each block evaluates J (1, 2, 2) at the current
        # points in either mode, and J (2, 2, 2) at the proposals of an MH
        # step, plus J likelihood values where the current points were not
        # evaluated: every block after a Newton move, and the first block
        # of a state that carries none (built by hand, or for another spec).
        # In one block (K = 6) a carrying state also spares the J
        # likelihood gradients and Hessians at the current points
        spec, _ = small_instance
        cfg = HbConfig(block_size=block_size)
        J, B = spec.n_groups, BlockPartition.contiguous(spec.n_coeffs, block_size).n_blocks
        d = J if B == 1 else 0
        state = HbState(np.zeros((J, 6)), np.zeros((6, 2)), np.ones(6))
        state, cost = cycle_cost(spec, cfg, state, newton=True)
        assert cost == EvalCost(2 * J * B, 2 * J * B, 2 * J * B)
        state, cost = cycle_cost(spec, cfg, state)
        assert cost == EvalCost(3 * J * B + J, 4 * J * B, 4 * J * B)
        carried, cost = cycle_cost(spec, cfg, state)
        assert cost == EvalCost(3 * J * B, 4 * J * B - d, 4 * J * B - d)
        rebuilt = HbState(carried.beta, carried.gamma, carried.tau)
        assert cycle_cost(spec, cfg, rebuilt)[1] == EvalCost(3 * J * B + J, 4 * J * B, 4 * J * B)
        # a carry belongs to the spec it was evaluated under
        other = HbModelSpec(spec.designs, spec.responses, spec.upper_design)
        assert cycle_cost(other, cfg, carried)[1] == EvalCost(3 * J * B + J, 4 * J * B, 4 * J * B)
        # a Newton cycle from a carrying state skips its first block's value
        # (and in one block the likelihood's derivatives), and carries nothing
        state, cost = cycle_cost(spec, cfg, carried, newton=True)
        assert cost == EvalCost(2 * J * B - J, 2 * J * B - d, 2 * J * B - d)
        assert cycle_cost(spec, cfg, state)[1] == EvalCost(3 * J * B + J, 4 * J * B, 4 * J * B)

    def test_derivatives_carried_only_in_one_block(self, small_instance):
        # a state carrying a one-block cycle's derivatives, stepped in blocks
        # of 3, uses only the value carry, and leaves the value carry only
        spec, _ = small_instance
        J = spec.n_groups
        state = HbState(np.zeros((J, 6)), np.zeros((6, 2)), np.ones(6))
        state, _ = cycle_cost(spec, HbConfig(), state)
        assert len(state._carry[1]) == 4
        state, cost = cycle_cost(spec, HbConfig(block_size=3), state)
        assert cost == EvalCost(6 * J, 8 * J, 8 * J)
        assert len(state._carry[1]) == 2

    @pytest.mark.parametrize("block_size", [3, 2, 6])
    def test_carry_is_the_likelihood_at_beta(self, small_instance, block_size):
        # the value and sigma(t) carried from the last proposal evaluated
        # equal a fresh evaluation at the state's beta (summed in another
        # order: 1e-12 relative); in one block (K = 6) the carry also holds
        # the gradients and Hessians, and all four equal a fresh stacked
        # evaluation at beta bit for bit
        spec, _ = small_instance
        cfg = HbConfig(block_size=block_size)
        state = HbState(np.zeros((4, 6)), np.zeros((6, 2)), np.ones(6))
        rng = np.random.default_rng(5)
        n_rejected = 0
        for _ in range(4):
            state, accepted, *_ = hb_cycle(spec, cfg, state, rng)
            carry = state._carry[1]
            values, p = carry[:2]
            for j in range(4):
                want = LogisticTarget(spec.designs[j], spec.responses[j]).evaluate(state.beta[j])
                assert_close(values[j], want.value)
                assert_close(p[j, : spec.group_sizes[j]], expit(spec.designs[j] @ state.beta[j]))
            if block_size < 6:
                assert len(carry) == 2
                continue
            groups = spec._stacked
            offset = np.matmul(np.zeros((4, 1, 6)), groups.xt)[:, 0]
            fresh = hb._BlockLikelihoods(groups, slice(0, 6), offset, None, None)
            fresh.evaluate(state.beta.copy(), gradient=True, hessian=True)
            assert len(carry) == 4
            for got, want in zip(carry, fresh.last):
                assert got.tobytes() == want.tobytes()
            n_rejected += 4 - accepted
        # the one-block carry took rejected groups' arrays as well
        assert block_size < 6 or 0 < n_rejected < 16

    def test_one_block_samples_do_not_depend_on_the_carry(self, small_instance):
        # MH cycles in one block from a state carrying the likelihood's fit,
        # from the same state carrying only its value, and from the state
        # rebuilt by hand each cycle: the same draws, the same beta, gamma
        # and tau bit for bit; per cycle the carry spares J gradients and J
        # Hessians, and the value carry J values more
        spec, _ = small_instance
        J, cfg = spec.n_groups, HbConfig()
        start = HbState(np.zeros((J, 6)), np.zeros((6, 2)), np.ones(6))
        start, *_ = hb_cycle(spec, cfg, start, np.random.default_rng(4))
        chains = {"fit": start, "value": start, "none": start}
        rebuild = {
            "fit": lambda s: s,
            "value": without_derivatives,
            "none": lambda s: HbState(s.beta, s.gamma, s.tau),
        }
        rngs = {name: np.random.default_rng(8) for name in chains}
        for _ in range(20):
            costs = {}
            for name in chains:
                state = rebuild[name](chains[name])
                chains[name], _, costs[name], _ = hb_cycle(spec, cfg, state, rngs[name])
            for name in ("value", "none"):
                for field in ("beta", "gamma", "tau"):
                    assert getattr(chains[name], field).tobytes() == getattr(chains["fit"], field).tobytes()
                assert rngs[name].bit_generator.state == rngs["fit"].bit_generator.state
            assert costs["fit"] == EvalCost(3 * J, 3 * J, 3 * J)
            assert costs["value"] == costs["fit"] + EvalCost(0, J, J)
            assert costs["none"] == costs["fit"] + EvalCost(J, J, J)


def successive_conditional_z(seed, n, block_size, cycles):
    """Geweke's successive-conditional chain on the tangent cycle: J = 3
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
    cfg = HbConfig(block_size=block_size)

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
    (``successive_conditional_z``).  Fixed before the first run: seed 606,
    8,000 iterations of one cycle, K = 2 coefficients in blocks of 1, and
    the bound max |z| < 4 over the 24 statistics.
    """

    def test_successive_conditional_chain_keeps_the_prior(self):
        z, _ = successive_conditional_z(606, 8000, block_size=1, cycles=1)
        assert np.max(np.abs(z)) < 4.0, np.round(z, 2)


class TestGewekeOneBlock:
    """``TestGeweke``'s chain in one block, so that the likelihood's fit
    is carried: each iteration takes two cycles given y, and the second
    starts from the first's carry.  Fixed before the first run: seed 707,
    5,000 iterations of two cycles, K = 2 coefficients in one block of 2,
    and the bound max |z| < 4 over the 24 statistics.
    """

    def test_carried_fit_keeps_the_prior(self):
        z, cost = successive_conditional_z(707, 5000, block_size=2, cycles=2)
        # J = 3: a first cycle (4J, 4J, 4J), as y is new; a carrying one (3J, 3J, 3J)
        assert cost == EvalCost(5000 * 21, 5000 * 21, 5000 * 21)
        assert np.max(np.abs(z)) < 4.0, np.round(z, 2)
