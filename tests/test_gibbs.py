import numpy as np
import pytest

from tangentmh.gibbs import BlockPartition, block_sweep, run_block_chain
from tangentmh.fdiff import fd_gradient
from tangentmh.tangent import ChainConfig
from tangentmh.targets import DifferentiableTarget, additive_target, gaussian_prior, logistic_target

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


class TestConditionalTarget:
    def test_full_block_is_identity(self):
        rng = np.random.default_rng(0)
        t = gaussian_prior(rng.standard_normal(4), random_spd(4, rng))
        c = DifferentiableTarget.restrict(t, np.arange(4), np.zeros(4))
        x = rng.standard_normal(4)
        assert c.evaluate(x).value == t.evaluate(x).value

    def test_splice_is_exact(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((30, 6))
        y = (rng.random(30) < 0.5).astype(float)
        t = logistic_target(X, y)
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
        t = gaussian_prior(np.zeros(5), prec)
        block = np.array([1, 3])
        c = DifferentiableTarget.restrict(t, block, rng.standard_normal(5))
        h = c.evaluate(np.zeros(2), hessian=True).hessian
        np.testing.assert_array_equal(h, -prec[np.ix_(block, block)])

    def test_conditional_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((40, 5))
        y = (rng.random(40) < 0.5).astype(float)
        t = logistic_target(X, y)
        block = np.array([0, 2, 4])
        c = DifferentiableTarget.restrict(t, block, rng.standard_normal(5))
        b = rng.standard_normal(3)
        g = c.evaluate(b, gradient=True).gradient
        g_fd = fd_gradient(lambda v: c.evaluate(v).value, b)
        assert np.linalg.norm(g - g_fd) / np.linalg.norm(g) < 1e-6


class TestBlockSweep:
    def test_gaussian_blocks_all_accept(self):
        rng = np.random.default_rng(4)
        t = gaussian_prior(np.zeros(10), random_spd(10, rng))
        part = BlockPartition.contiguous(10, 5)
        x = np.ones(10)
        for _ in range(50):
            x, rec = block_sweep(t, part, x, rng)
            assert np.all(rec.accepted)
            assert rec.hessian_failures == 0

    def test_sweep_equals_manual_per_block_updates(self):
        # a sweep is exactly the sequence of per-block conditional updates:
        # each block update touches only its own coordinates
        from tangentmh.tangent import tangent_step

        rng = np.random.default_rng(5)
        t = gaussian_prior(np.zeros(4), random_spd(4, rng))
        part = BlockPartition([[0, 1], [2, 3]])
        x0 = np.array([1.0, 2.0, 3.0, 4.0])

        x_sweep, _ = block_sweep(t, part, x0, np.random.default_rng(77))
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
        t = additive_target(
            [logistic_target(X, y), gaussian_prior(np.zeros(10), 0.01 * np.eye(10))]
        )
        part = BlockPartition.contiguous(10, 5)
        x = np.zeros(10)
        for _ in range(20):
            x, rec = block_sweep(t, part, x, rng)
            assert rec.hessian_failures == 0

    def test_newton_sweep_moves_to_mode(self):
        rng = np.random.default_rng(7)
        prec = np.diag([2.0, 1.0, 3.0, 0.5])  # block-diagonal: newton exact per block
        t = gaussian_prior(np.array([1.0, 2.0, 3.0, 4.0]), prec)
        part = BlockPartition([[0, 1], [2, 3]])
        x, rec = block_sweep(t, part, np.zeros(4), rng, newton=True)
        np.testing.assert_allclose(x, [1.0, 2.0, 3.0, 4.0], atol=1e-12)


class TestRunBlockChain:
    def test_singleton_partition_matches_full_block_margins(self):
        # both are exact samplers on a correlated 2-D gaussian
        rng = np.random.default_rng(8)
        prec = np.array([[2.0, 0.9], [0.9, 1.0]])
        t = gaussian_prior(np.zeros(2), prec)
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

    def test_counters_and_determinism(self):
        rng = np.random.default_rng(11)
        t = gaussian_prior(np.zeros(6), random_spd(6, rng))
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
