import numpy as np
import pytest
from scipy.special import expit

from tangentmh.diagnostics import effective_size
from tangentmh.gibbs import BlockPartition, block_sweep, run_block_chain
from tangentmh.fdiff import fd_gradient
from tangentmh.slicer import SliceConfig, slice_gibbs_chain, slice_sweep
from tangentmh.tangent import ChainConfig, build_proposal, run_chain, tangent_step
from tangentmh.trace import run_sweeps
from tangentmh.targets import (
    AdditiveTarget,
    DifferentiableTarget,
    EvalCost,
    GaussianPriorTarget,
    LogisticTarget,
)

from helpers import gaussian_cdf, random_spd, trace_sha256


class TestBlockPartition:
    def test_contiguous_default(self):
        p = BlockPartition.contiguous(12, 5)
        assert [list(b) for b in p.blocks] == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9], [10, 11]]

    def test_fifty_dims_make_ten_blocks_of_five(self):
        p = BlockPartition.contiguous(50, 5)
        assert p.n_blocks == 10
        assert all(b.size == 5 for b in p.blocks)

    def test_rejects_gaps_and_overlaps(self):
        with pytest.raises(ValueError):
            BlockPartition([[0, 1], [3]])
        with pytest.raises(ValueError):
            BlockPartition([[0, 1], [1, 2]])

    @pytest.mark.parametrize("blocks", [[[0.5, 1.2], [2.9]], [[True, False], [2]], [[0, 1], [2.0]],
                                        [np.array([0.0, 1.0]), [2]]])
    def test_rejects_float_and_boolean_indices(self, blocks):
        # a cast used to accept [[0.5, 1.2], [2.9]] as [[0, 1], [2]]
        with pytest.raises(ValueError, match="block indices must be integers, not floats or booleans"):
            BlockPartition(blocks)

    def test_accepts_numpy_integer_indices(self):
        p = BlockPartition([[np.int64(1), np.int32(0)], np.array([2], dtype=np.uint16)])
        assert [b.tolist() for b in p.blocks] == [[1, 0], [2]]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BlockPartition([[0, 1], []])

    # True used to give blocks of 1, and 2.5 a TypeError
    @pytest.mark.parametrize("size", [True, False, 2.5, 2.0, np.float64(2), "2", 0, -1])
    def test_contiguous_refuses_sizes_that_are_not_positive_integers(self, size):
        with pytest.raises(ValueError, match="integer >= 1"):
            BlockPartition.contiguous(6, size)

    def test_contiguous_accepts_numpy_integers(self):
        p = BlockPartition.contiguous(np.int64(5), np.int32(2))
        assert [list(b) for b in p.blocks] == [[0, 1], [2, 3], [4]]


class TestConditionalTarget:
    def test_full_block_is_identity(self):
        rng = np.random.default_rng(0)
        t = GaussianPriorTarget(rng.standard_normal(4), random_spd(4, rng))
        c = DifferentiableTarget.restrict(t, np.arange(4), np.zeros(4))
        x = rng.standard_normal(4)
        assert c.evaluate(x).value == t.evaluate(x).value

    def test_splice_is_exact(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((30, 6))
        y = (rng.random(30) < 0.5).astype(float)
        t = LogisticTarget(X, y)
        for _ in range(10):
            block = rng.choice(6, size=rng.integers(1, 6), replace=False)
            full = rng.standard_normal(6)
            b = rng.standard_normal(block.size)
            spliced = full.copy()
            spliced[block] = b
            c = DifferentiableTarget.restrict(t, block, full)
            assert c.evaluate(b).value == t.evaluate(spliced).value

    def test_gaussian_conditional_hessian_is_principal_submatrix(self):
        rng = np.random.default_rng(2)
        prec = random_spd(5, rng)
        t = GaussianPriorTarget(np.zeros(5), prec)
        block = np.array([1, 3])
        c = DifferentiableTarget.restrict(t, block, rng.standard_normal(5))
        h = c.evaluate(np.zeros(2), hessian=True).hessian
        np.testing.assert_array_equal(h, -prec[np.ix_(block, block)])

    def test_conditional_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((40, 5))
        y = (rng.random(40) < 0.5).astype(float)
        t = LogisticTarget(X, y)
        block = np.array([0, 2, 4])
        c = DifferentiableTarget.restrict(t, block, rng.standard_normal(5))
        b = rng.standard_normal(3)
        g = c.evaluate(b, gradient=True).gradient
        g_fd = fd_gradient(lambda v: c.evaluate(v).value, b)
        assert np.linalg.norm(g - g_fd) / np.linalg.norm(g) < 1e-6


class TestBlockSweep:
    def test_gaussian_blocks_all_accept(self):
        rng = np.random.default_rng(4)
        t = GaussianPriorTarget(np.zeros(10), random_spd(10, rng))
        part = BlockPartition.contiguous(10, 5)
        x = np.ones(10)
        for _ in range(50):
            x, n_accepted, _, failures, _ = block_sweep(t, part, x, rng)
            assert n_accepted == part.n_blocks
            assert failures == 0

    def test_sweep_equals_manual_per_block_updates(self):
        # a sweep is exactly the sequence of per-block conditional updates,
        # each refitting its current point through restrict: each block
        # update touches only its own coordinates
        rng = np.random.default_rng(5)
        t = GaussianPriorTarget(np.zeros(4), random_spd(4, rng))
        part = BlockPartition([[0, 1], [2, 3]])
        x0 = np.array([1.0, 2.0, 3.0, 4.0])

        x_sweep, _, _, _, _ = block_sweep(t, part, x0, np.random.default_rng(77))
        rng_manual = np.random.default_rng(77)
        x_manual = x0.copy()
        for block in part.blocks:
            cond = t.restrict(block, x_manual)
            b_new, _, _ = tangent_step(cond, x_manual[block], None, rng_manual)
            x_manual[block] = b_new
        np.testing.assert_array_equal(x_sweep, x_manual)

    def test_composite_target_sweep(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((100, 10))
        y = (rng.random(100) < 0.5).astype(float)
        t = AdditiveTarget(
            [LogisticTarget(X, y), GaussianPriorTarget(np.zeros(10), 0.01 * np.eye(10))]
        )
        part = BlockPartition.contiguous(10, 5)
        x = np.zeros(10)
        for _ in range(20):
            x, _, _, failures, _ = block_sweep(t, part, x, rng)
            assert failures == 0

    def test_newton_sweep_moves_to_mode(self):
        rng = np.random.default_rng(7)
        prec = np.diag([2.0, 1.0, 3.0, 0.5])  # block-diagonal: newton exact per block
        t = GaussianPriorTarget(np.array([1.0, 2.0, 3.0, 4.0]), prec)
        part = BlockPartition([[0, 1], [2, 3]])
        x, _, _, _, current = block_sweep(t, part, np.zeros(4), rng, newton=True)
        np.testing.assert_allclose(x, [1.0, 2.0, 3.0, 4.0], atol=1e-12)
        # a Newton sweep moves its last block after its last evaluation
        assert current is None


class TestRunBlockChain:
    def test_singleton_partition_matches_full_block_margins(self):
        # both are exact samplers on a correlated 2-D gaussian
        rng = np.random.default_rng(8)
        prec = np.array([[2.0, 0.9], [0.9, 1.0]])
        t = GaussianPriorTarget(np.zeros(2), prec)
        cfg = ChainConfig(n_burnin=100, n_samples=20000)
        tr_single = run_block_chain(
            t, BlockPartition([[0], [1]]), np.zeros(2), cfg, np.random.default_rng(9)
        )
        tr_full = run_block_chain(
            t, BlockPartition.single(2), np.zeros(2), cfg, np.random.default_rng(10)
        )
        cov = np.linalg.inv(prec)
        for j in range(2):
            s = np.sqrt(cov[j, j])
            a = np.sort(tr_single.samples[:, j]) / s
            b = np.sort(tr_full.samples[:, j]) / s
            # KS of each margin against the exact normal CDF
            for samp in (a, b):
                n = samp.size
                F = gaussian_cdf(samp)
                d = max(
                    np.max(np.arange(1, n + 1) / n - F),
                    np.max(F - np.arange(0, n) / n),
                )
                assert d < 0.02

    def test_block_acceptance_rate_is_the_replayed_share(self):
        # replaying block_sweep with the chain's seed and plan gives the
        # accepted blocks of every recorded sweep
        rng = np.random.default_rng(13)
        X = 3.0 * rng.standard_normal((30, 4))
        y = (rng.random(30) < 0.5).astype(float)
        t = AdditiveTarget([LogisticTarget(X, y), GaussianPriorTarget(np.zeros(4), np.eye(4))])
        part = BlockPartition.contiguous(4, 2)
        cfg = ChainConfig(n_burnin=6, n_samples=60)
        trace = run_block_chain(t, part, np.zeros(4), cfg, np.random.default_rng(14))

        replay = np.random.default_rng(14)
        x, current, recorded = np.zeros(4), None, []
        for k in range(cfg.n_burnin + cfg.n_samples):
            x, n_accepted, _, _, current = block_sweep(
                t, part, x, replay, newton=k < cfg.newton_iterations, current=current
            )
            if k >= cfg.n_burnin:
                recorded.append(n_accepted)
        np.testing.assert_array_equal(trace.samples[-1], x)
        np.testing.assert_array_equal(trace.accepted, np.array(recorded) == part.n_blocks)
        share = sum(recorded) / (cfg.n_samples * part.n_blocks)
        assert 0 < share < 1
        assert trace.meta["block_acceptance_rate"] == share

    def test_counters_and_determinism(self):
        rng = np.random.default_rng(11)
        t = GaussianPriorTarget(np.zeros(6), random_spd(6, rng))
        part = BlockPartition.contiguous(6, 3)
        cfg = ChainConfig(n_burnin=20, n_samples=50)
        a = run_block_chain(t, part, np.zeros(6), cfg, np.random.default_rng(12))
        b = run_block_chain(t, part, np.zeros(6), cfg, np.random.default_rng(12))
        assert np.array_equal(a.samples, b.samples)
        assert np.all(np.diff(a.n_value) >= 0)
        # one evaluation per block step, Newton or MH, and one at the
        # first MH sweep's start point
        n_newton, n_mh = 10, 60
        expected = n_newton * 2 + 1 + n_mh * 2
        assert a.total_cost()["n_hessian"] == expected


def spliced_refits(target, partition, x0, cfg, rng):
    """Reference block chain: every block step refits its current point
    through ``DifferentiableTarget.restrict``'s conditional, with no
    carried evaluation."""

    def sweep(x, newton=False):
        x = np.array(x, dtype=float)
        n_accepted = failures = 0
        for block in partition.blocks:
            cond = DifferentiableTarget.restrict(target, block, x)
            if newton:
                x[block] = build_proposal(cond, x[block]).mean
                n_accepted += 1
                continue
            x[block], rec, _ = tangent_step(cond, x[block], None, rng)
            n_accepted += rec.accepted
            failures += rec.hessian_failure
        return x, n_accepted, EvalCost(), failures

    return run_sweeps(sweep, x0, cfg, partition.n_blocks)


def logistic_data(seed, n=300, k=6):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, k)) / np.sqrt(k)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-X @ np.ones(k)))).astype(float)
    return X, y


class TestLogisticPredictorReuse:
    """Block chains on one logistic target reuse the parent's evaluation at
    the current point, carried from the previous block step, instead of
    evaluating it again."""

    @pytest.mark.parametrize("block_size", [6, 3])
    def test_pure_mh_evaluates_each_block_value_once(self, block_size):
        # the block form of c08's n + 1 rule: only the first current point
        # and each proposal pay an evaluation
        n = 200
        part = BlockPartition.contiguous(6, block_size)
        tr = run_block_chain(LogisticTarget(*logistic_data(21)), part, np.zeros(6),
                             ChainConfig(0, n), np.random.default_rng(22))
        n_steps = n * part.n_blocks
        assert tr.total_cost() == {"n_value": n_steps + 1, "n_gradient": n_steps + 1,
                                   "n_hessian": n_steps + 1}
        assert 0 < tr.meta["block_acceptance_rate"] < 1

    @pytest.mark.parametrize("block_size", [3, 2])
    def test_samples_equal_the_memo_free_reference(self, block_size):
        # the reference refits every block's current point: the same
        # proposals, decisions and samples at half the evaluations
        X, y = logistic_data(23)
        part = BlockPartition.contiguous(6, block_size)
        cfg = ChainConfig(20, 100)
        got = run_block_chain(LogisticTarget(X, y), part, np.zeros(6), cfg, np.random.default_rng(24))
        ref = spliced_refits(LogisticTarget(X, y), part, np.zeros(6), cfg, np.random.default_rng(24))
        np.testing.assert_array_equal(got.samples, ref.samples)
        np.testing.assert_array_equal(got.accepted, ref.accepted)
        assert 0 < got.meta["block_acceptance_rate"] < 1

    def test_slice_chain_is_untouched(self):
        # value-only evaluations build no Hessian table and read none, even
        # one that a block chain has just built
        X, y = logistic_data(25)
        target = LogisticTarget(X, y)
        run_block_chain(target, BlockPartition.contiguous(6, 3), np.zeros(6),
                        ChainConfig(0, 20), np.random.default_rng(26))
        cfg = SliceConfig(width=1.0)
        got = slice_gibbs_chain(target, np.zeros(6), 5, 30, cfg, np.random.default_rng(27))
        ref = slice_gibbs_chain(LogisticTarget(X, y), np.zeros(6), 5, 30, cfg, np.random.default_rng(27))
        np.testing.assert_array_equal(got.samples, ref.samples)
        assert got.total_cost() == ref.total_cost()
        assert got.total_cost()["n_gradient"] == 0

    def test_two_chains_on_one_target_agree(self):
        target = LogisticTarget(*logistic_data(28))
        part = BlockPartition.contiguous(6, 3)
        a, b = (run_block_chain(target, part, np.zeros(6), ChainConfig(20, 60), np.random.default_rng(29))
                for _ in range(2))
        np.testing.assert_array_equal(a.samples, b.samples)
        assert a.total_cost() == b.total_cost()
        np.testing.assert_array_equal(a.n_value, b.n_value)


class CostLog(DifferentiableTarget):
    """``inner`` with every evaluation's counters appended to ``log``."""

    def __init__(self, inner, log):
        self._inner, self.log = inner, log

    @property
    def dim(self):
        return self._inner.dim

    def evaluate(self, x, *, gradient=False, hessian=False):
        res = self._inner.evaluate(x, gradient=gradient, hessian=hessian)
        self.log.append(res.cost)
        return res


class TestSweepCosts:
    """A sweep's counters are the sum of its evaluations' counters, the
    carried evaluation's included where the sweep makes it."""

    def _target(self):
        X, y = logistic_data(30)
        return CostLog(AdditiveTarget([LogisticTarget(X, y), GaussianPriorTarget(np.zeros(6), np.eye(6))]), [])

    @staticmethod
    def _summed(log):
        return EvalCost(*(sum(getattr(c, f) for c in log) for f in ("n_value", "n_gradient", "n_hessian")))

    @pytest.mark.parametrize("newton", [True, False])
    def test_block_sweep(self, newton):
        target, rng = self._target(), np.random.default_rng(31)
        part, x, current = BlockPartition.contiguous(6, 3), np.zeros(6), None
        for k in range(8):
            target.log.clear()
            x, _, cost, _, current = block_sweep(target, part, x, rng, newton=newton, current=current)
            assert cost == self._summed(target.log)
            # one evaluation per block step, and the first MH sweep's start point
            assert len(target.log) == part.n_blocks + (k == 0 and not newton)

    def test_slice_sweep(self):
        target, rng = self._target(), np.random.default_rng(32)
        x = np.zeros(6)
        for _ in range(8):
            target.log.clear()
            x, _, cost, _ = slice_sweep(target, x, SliceConfig(), rng)
            assert cost == self._summed(target.log)
            # value-only evaluations of two parts
            assert cost == EvalCost(2 * len(target.log), 0, 0)


def posterior(seed, n=60, k=6):
    """A logistic likelihood plus a dense Gaussian prior, so every block's
    conditional couples to the others through both parts."""
    X, y = logistic_data(seed, n, k)
    rng = np.random.default_rng(seed + 1)
    return AdditiveTarget([LogisticTarget(X, y), GaussianPriorTarget(rng.standard_normal(k), random_spd(k, rng))])


class TestCarriedEvaluation:
    """A sweep reads each block's current fit from the parent's evaluation
    carried from the previous step, across blocks and sweeps: its chain
    must equal one that refits every block through ``restrict``."""

    @pytest.mark.parametrize("blocks", [
        [[0, 3], [5, 1], [2, 4]],
        [[4], [0, 2, 5], [1, 3]],
        [[0], [1], [2], [3], [4], [5]],
    ], ids=["pairs", "mixed", "singletons"])
    def test_agrees_with_spliced_refits(self, blocks):
        part, cfg = BlockPartition(blocks), ChainConfig(10, 150, n_newton=3)
        got = run_block_chain(posterior(40), part, np.zeros(6), cfg, np.random.default_rng(41))
        ref = spliced_refits(posterior(40), part, np.zeros(6), cfg, np.random.default_rng(41))
        np.testing.assert_allclose(got.samples, ref.samples, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(got.accepted, ref.accepted)
        assert 0 < got.meta["block_acceptance_rate"] < 1
        # one evaluation per block step, and one at the first MH sweep's
        # start point; two parts each
        n_evals = 3 * part.n_blocks + 1 + 157 * part.n_blocks
        assert got.total_cost() == {"n_value": 2 * n_evals, "n_gradient": 2 * n_evals, "n_hessian": 2 * n_evals}

    def test_one_block_chain_is_run_chain(self):
        # a single block carries the parent's evaluation as run_chain
        # carries its fitted record: the same chain, counters included
        cfg = ChainConfig(10, 200, n_newton=4)
        got = run_block_chain(posterior(42), BlockPartition.single(6), np.zeros(6), cfg, np.random.default_rng(43))
        ref = run_chain(posterior(42), np.zeros(6), cfg, np.random.default_rng(43))
        assert trace_sha256(got) == trace_sha256(ref)
        assert got.total_cost() == ref.total_cost()

    def test_rejected_step_keeps_the_current_evaluation(self):
        # after every sweep the carried evaluation is the parent's at the
        # sweep's end point, rejected proposals and all
        target, part = posterior(44), BlockPartition.contiguous(6, 2)
        rng, x, current, rejected = np.random.default_rng(45), np.zeros(6), None, 0
        for k in range(40):
            x, n_accepted, _, _, current = block_sweep(target, part, x, rng, current=current)
            rejected += part.n_blocks - n_accepted
            want = target.evaluate(x, gradient=True, hessian=True)
            assert current.value == want.value
            assert np.array_equal(current.gradient, want.gradient)
            assert np.array_equal(current.hessian, want.hessian)
        assert rejected > 0


class TestGewekeBlockTangent:
    """Geweke's joint-distribution test of the block-tangent sweep (Geweke
    2004): a successive-conditional chain alternates block sweeps given y
    with a fresh y | beta.  Started from an exact prior draw, every state
    is distributed as the prior, so the chain means of beta and of every
    product beta_i beta_j (i <= j) must match their exact prior moments.
    A logistic likelihood over N = 20 rows plus a dense Gaussian prior,
    dim 4, blocks of 2; each iteration runs ``run_block_chain`` for two MH
    sweeps, so the carried evaluation crosses blocks and sweeps.  The
    design's entries have scale 2, which keeps the block acceptance near
    0.78: a carry error that acts on rejected steps shows only there, and
    at smaller scales (acceptance 0.8-0.97) a sweep that adopted a
    rejected proposal's evaluation often passed.  The scale was chosen on
    seeds 11-13; fixed before the first run at it: seed 911, 10,000
    iterations and the bound max |z| < 4 over the 14 statistics, each z
    scaled by its ESS-based MCSE."""

    def test_successive_conditional_chain_keeps_the_prior(self):
        rng = np.random.default_rng(911)
        n, k, n_obs = 10_000, 4, 20
        mean = np.array([0.5, -0.5, 0.0, 1.0])
        precision = np.array([[2.0, 0.6, 0.0, 0.3], [0.6, 1.5, 0.4, 0.0],
                              [0.0, 0.4, 1.0, 0.2], [0.3, 0.0, 0.2, 1.2]])
        cov = np.linalg.inv(precision)
        X = 2.0 * rng.standard_normal((n_obs, k))
        prior = GaussianPriorTarget(mean, precision)
        part, cfg = BlockPartition.contiguous(k, 2), ChainConfig(1, 1, n_newton=0)
        i, j = np.triu_indices(k)

        beta = mean + np.linalg.cholesky(cov) @ rng.standard_normal(k)
        n_hessian, draws = 0, np.empty((n, k))
        for it in range(n):
            y = (rng.random(n_obs) < expit(X @ beta)).astype(float)
            trace = run_block_chain(AdditiveTarget([LogisticTarget(X, y), prior]), part, beta, cfg, rng)
            beta = trace.samples[-1]
            draws[it] = beta
            n_hessian += trace.total_cost()["n_hessian"]
        # per iteration: the start point and 2 sweeps of 2 block steps, two parts each
        assert n_hessian == n * 2 * 5
        stats = np.hstack([draws, draws[:, i] * draws[:, j]])
        exact = np.concatenate([mean, cov[i, j] + mean[i] * mean[j]])
        mcse = np.array([s.std(ddof=1) / np.sqrt(effective_size(s)) for s in stats.T])
        z = (stats.mean(axis=0) - exact) / mcse
        assert np.max(np.abs(z)) < 4.0, np.round(z, 2)
