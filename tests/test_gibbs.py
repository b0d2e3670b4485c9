import numpy as np
import pytest

from tangentmh.gibbs import BlockPartition, block_sweep, run_block_chain
from tangentmh.fdiff import fd_gradient
from tangentmh.slicer import SliceConfig, slice_gibbs_chain, slice_sweep
from tangentmh.tangent import ChainConfig
from tangentmh.targets import (
    AdditiveTarget,
    DifferentiableTarget,
    EvalCost,
    GaussianPriorTarget,
    LogisticTarget,
)

from helpers import gaussian_cdf, random_spd


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
            x, n_accepted, _, failures = block_sweep(t, part, x, rng)
            assert n_accepted == part.n_blocks
            assert failures == 0

    def test_sweep_equals_manual_per_block_updates(self):
        # a sweep is exactly the sequence of per-block conditional updates:
        # each block update touches only its own coordinates
        from tangentmh.tangent import tangent_step

        rng = np.random.default_rng(5)
        t = GaussianPriorTarget(np.zeros(4), random_spd(4, rng))
        part = BlockPartition([[0, 1], [2, 3]])
        x0 = np.array([1.0, 2.0, 3.0, 4.0])

        x_sweep, _, _, _ = block_sweep(t, part, x0, np.random.default_rng(77))
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
            x, _, _, failures = block_sweep(t, part, x, rng)
            assert failures == 0

    def test_newton_sweep_moves_to_mode(self):
        rng = np.random.default_rng(7)
        prec = np.diag([2.0, 1.0, 3.0, 0.5])  # block-diagonal: newton exact per block
        t = GaussianPriorTarget(np.array([1.0, 2.0, 3.0, 4.0]), prec)
        part = BlockPartition([[0, 1], [2, 3]])
        x, _, _, _ = block_sweep(t, part, np.zeros(4), rng, newton=True)
        np.testing.assert_allclose(x, [1.0, 2.0, 3.0, 4.0], atol=1e-12)


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
        x, recorded = np.zeros(4), []
        for k in range(cfg.n_burnin + cfg.n_samples):
            x, n_accepted, _, _ = block_sweep(t, part, x, replay, newton=k < cfg.newton_iterations)
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
        # two evaluations per block per MH sweep, one per block per newton sweep
        n_newton, n_mh = 10, 60
        expected = n_newton * 2 * 1 + n_mh * 2 * 2
        assert a.total_cost()["n_hessian"] == expected


class FreshConditionals(LogisticTarget):
    """Reference without the shared memo: each conditional is built through
    the public constructor, with ``restrict``'s offset arithmetic."""

    def __init__(self, X, y):
        super().__init__(X, y)
        self.X, self.y = np.asarray(X, dtype=float), np.asarray(y, dtype=float)

    def restrict(self, block, full):
        rest = np.ones(self.dim, dtype=bool)
        rest[block] = False
        offset = np.zeros(self.y.size) + self.X[:, rest] @ np.asarray(full, dtype=float)[rest]
        return LogisticTarget(self.X[:, block], self.y, offset=offset)


def logistic_data(seed, n=300, k=6):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, k)) / np.sqrt(k)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-X @ np.ones(k)))).astype(float)
    return X, y


class TestLogisticPredictorReuse:
    """Conditionals of one logistic target reuse the value and sigma(t) of a
    bit-identical linear predictor; only the value counter may move."""

    @pytest.mark.parametrize("block_size", [6, 3])
    def test_pure_mh_evaluates_each_block_value_once(self, block_size):
        # the block form of c08's n + 1 rule: only the first current point
        # and each proposal pay a value evaluation
        n = 200
        part = BlockPartition.contiguous(6, block_size)
        tr = run_block_chain(LogisticTarget(*logistic_data(21)), part, np.zeros(6),
                             ChainConfig(0, n), np.random.default_rng(22))
        n_steps = n * part.n_blocks
        assert tr.total_cost() == {"n_value": n_steps + 1, "n_gradient": 2 * n_steps,
                                   "n_hessian": 2 * n_steps}
        assert 0 < tr.meta["block_acceptance_rate"] < 1

    @pytest.mark.parametrize("block_size", [3, 2])
    def test_samples_equal_the_memo_free_reference(self, block_size):
        X, y = logistic_data(23)
        part = BlockPartition.contiguous(6, block_size)
        cfg = ChainConfig(20, 100)
        got = run_block_chain(LogisticTarget(X, y), part, np.zeros(6), cfg, np.random.default_rng(24))
        ref = run_block_chain(FreshConditionals(X, y), part, np.zeros(6), cfg, np.random.default_rng(24))
        np.testing.assert_array_equal(got.samples, ref.samples)
        np.testing.assert_array_equal(got.accepted, ref.accepted)
        np.testing.assert_array_equal(got.n_gradient, ref.n_gradient)
        np.testing.assert_array_equal(got.n_hessian, ref.n_hessian)
        assert np.all(got.n_value <= ref.n_value)
        if part.n_blocks == 2:
            assert got.total_cost()["n_value"] < 0.6 * ref.total_cost()["n_value"]

    def test_slice_chain_is_untouched(self):
        # value-only evaluations neither read nor write the memo, even one
        # that a block chain has just filled
        X, y = logistic_data(25)
        target = LogisticTarget(X, y)
        run_block_chain(target, BlockPartition.contiguous(6, 3), np.zeros(6),
                        ChainConfig(0, 20), np.random.default_rng(26))
        cfg = SliceConfig(width=1.0)
        got = slice_gibbs_chain(target, np.zeros(6), 5, 30, cfg, np.random.default_rng(27))
        ref = slice_gibbs_chain(FreshConditionals(X, y), np.zeros(6), 5, 30, cfg, np.random.default_rng(27))
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
    """``inner`` with every evaluation's counters appended to ``log``; its
    conditionals log to the same list."""

    def __init__(self, inner, log):
        self._inner, self.log = inner, log

    @property
    def dim(self):
        return self._inner.dim

    def evaluate(self, x, *, gradient=False, hessian=False):
        res = self._inner.evaluate(x, gradient=gradient, hessian=hessian)
        self.log.append(res.cost)
        return res

    def restrict(self, block, full):
        return CostLog(self._inner.restrict(block, full), self.log)


class TestSweepCosts:
    """A sweep's counters are the sum of its evaluations' counters, memo
    hits (``EvalCost(0, 1, 1)``) included."""

    def _target(self):
        X, y = logistic_data(30)
        return CostLog(AdditiveTarget([LogisticTarget(X, y), GaussianPriorTarget(np.zeros(6), np.eye(6))]), [])

    @staticmethod
    def _summed(log):
        return EvalCost(*(sum(getattr(c, f) for c in log) for f in ("n_value", "n_gradient", "n_hessian")))

    @pytest.mark.parametrize("newton", [True, False])
    def test_block_sweep(self, newton):
        target, rng = self._target(), np.random.default_rng(31)
        part, x = BlockPartition.contiguous(6, 3), np.zeros(6)
        for _ in range(8):
            target.log.clear()
            x, _, cost, _ = block_sweep(target, part, x, rng, newton=newton)
            assert cost == self._summed(target.log)

    def test_slice_sweep(self):
        target, rng = self._target(), np.random.default_rng(32)
        x = np.zeros(6)
        for _ in range(8):
            target.log.clear()
            x, _, cost, _ = slice_sweep(target, x, SliceConfig(), rng)
            assert cost == self._summed(target.log)
            # value-only evaluations of two parts
            assert cost == EvalCost(2 * len(target.log), 0, 0)
