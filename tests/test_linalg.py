import numpy as np
import pytest

from tangentmh.linalg import (
    CholeskyFactor,
    MvnDistribution,
    NotPositiveDefinite,
    SymMatrix,
    cholesky,
    mvn_logpdf,
    mvn_sample,
)

from helpers import random_spd


class TestSymMatrix:
    def test_mirrors_lower_triangle(self):
        m = SymMatrix([[1.0, 99.0], [2.0, 3.0]])
        np.testing.assert_array_equal(m.a, [[1.0, 2.0], [2.0, 3.0]])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SymMatrix([[np.nan, 0.0], [0.0, 1.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            SymMatrix(np.zeros((2, 3)))

    def test_symmetry_exact_after_construction(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            raw = rng.standard_normal((6, 6))
            m = SymMatrix(raw)
            assert np.array_equal(m.a, m.a.T)


class TestCholesky:
    def test_identity(self):
        f = cholesky(np.eye(3))
        np.testing.assert_array_equal(f.lower, np.eye(3))

    def test_two_by_two_by_hand(self):
        # [[4,2],[2,3]] factors as [[2,0],[1,sqrt(2)]]
        f = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
        np.testing.assert_allclose(f.lower, [[2.0, 0.0], [1.0, np.sqrt(2.0)]], rtol=1e-15)

    def test_indefinite_reports_pivot(self):
        # eigenvalues 3 and -1: breaks at the second pivot
        with pytest.raises(NotPositiveDefinite) as exc:
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert exc.value.pivot == 1

    def test_first_pivot_failure(self):
        with pytest.raises(NotPositiveDefinite) as exc:
            cholesky(np.array([[-1.0, 0.0], [0.0, 1.0]]))
        assert exc.value.pivot == 0

    def test_tiny_pivot_relative_to_scale_rejected(self):
        # second pivot is positive but far below 1e-12 * max diagonal
        m = np.diag([1.0, 1e-30])
        with pytest.raises(NotPositiveDefinite) as exc:
            cholesky(m)
        assert exc.value.pivot == 1

    def test_reconstruction_random_spd(self):
        rng = np.random.default_rng(42)
        for dim in range(1, 21):
            m = random_spd(dim, rng)
            f = cholesky(m)
            rel = np.linalg.norm(f.reconstruct() - m, "fro") / np.linalg.norm(m, "fro")
            assert rel <= 1e-10
            assert np.all(np.diag(f.lower) > 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row, col", [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)])
    def test_nonfinite_lower_entry_names_its_row(self, bad, row, col):
        m = 4.0 * np.eye(3)
        m[row, col] = bad
        with pytest.raises(NotPositiveDefinite) as exc:
            cholesky(m)
        assert exc.value.pivot == row

    def test_infinite_last_diagonal_names_last_pivot(self):
        # an inf on the diagonal must not inflate the pivot tolerance
        with pytest.raises(NotPositiveDefinite) as exc:
            cholesky(np.array([[4.0, 0.0], [0.0, np.inf]]))
        assert exc.value.pivot == 1

    def test_nonfinite_upper_entry_ignored(self):
        f = cholesky(np.array([[4.0, np.nan], [2.0, 3.0]]))
        np.testing.assert_allclose(f.lower, [[2.0, 0.0], [1.0, np.sqrt(2.0)]], rtol=1e-15)

    def test_accepts_symmatrix(self):
        m = SymMatrix([[4.0, 99.0], [2.0, 3.0]])
        np.testing.assert_array_equal(cholesky(m).lower, cholesky(m.a).lower)

    def test_solve_matches_numpy(self):
        rng = np.random.default_rng(3)
        m = random_spd(6, rng)
        b = rng.standard_normal(6)
        x = cholesky(m).solve(b)
        np.testing.assert_allclose(x, np.linalg.solve(m, b), rtol=1e-10)


class TestMvn:
    def test_logpdf_standard_normal_at_zero(self):
        d = MvnDistribution(np.zeros(1), cholesky(np.eye(1)))
        assert mvn_logpdf(d, [0.0]) == pytest.approx(-0.9189385332046727, abs=1e-14)

    def test_logpdf_at_mean_any_dim(self):
        for dim in (1, 2, 5):
            d = MvnDistribution(np.arange(dim, dtype=float), cholesky(np.eye(dim)))
            expected = -0.5 * dim * np.log(2 * np.pi)
            assert mvn_logpdf(d, np.arange(dim, dtype=float)) == pytest.approx(expected)

    def test_logpdf_precision_four(self):
        # sigma = 0.5, half a unit from the mean
        d = MvnDistribution(np.zeros(1), cholesky(np.array([[4.0]])))
        assert mvn_logpdf(d, [0.5]) == pytest.approx(-0.7257913526447274, abs=1e-12)

    def test_logpdf_integrates_to_one_1d(self):
        d = MvnDistribution(np.array([0.3]), cholesky(np.array([[2.5]])))
        sigma = 1.0 / np.sqrt(2.5)
        x = np.linspace(0.3 - 8 * sigma, 0.3 + 8 * sigma, 20001)
        p = np.exp([mvn_logpdf(d, [v]) for v in x])
        assert np.trapezoid(p, x) == pytest.approx(1.0, abs=1e-6)

    def test_logpdf_integrates_to_one_2d(self):
        prec = np.array([[2.0, 0.6], [0.6, 1.5]])
        d = MvnDistribution(np.array([0.1, -0.2]), cholesky(prec))
        cov = np.linalg.inv(prec)
        s0, s1 = np.sqrt(cov[0, 0]), np.sqrt(cov[1, 1])
        gx = np.linspace(0.1 - 8 * s0, 0.1 + 8 * s0, 401)
        gy = np.linspace(-0.2 - 8 * s1, -0.2 + 8 * s1, 401)
        X, Y = np.meshgrid(gx, gy, indexing="ij")
        diff = np.stack([X - 0.1, Y + 0.2], axis=-1)
        quad = np.einsum("...i,ij,...j->...", diff, prec, diff)
        logdet = cholesky(prec).log_det()
        p = np.exp(-np.log(2 * np.pi) + 0.5 * logdet - 0.5 * quad)
        total = np.trapezoid(np.trapezoid(p, gy, axis=1), gx)
        assert total == pytest.approx(1.0, abs=1e-6)
        # spot-check the gridded density against mvn_logpdf
        assert p[200, 200] == pytest.approx(np.exp(mvn_logpdf(d, [gx[200], gy[200]])))

    def test_sample_deterministic_given_seed(self):
        d = MvnDistribution(np.zeros(1), cholesky(np.eye(1)))
        a = mvn_sample(d, np.random.default_rng(123))
        b = mvn_sample(d, np.random.default_rng(123))
        assert np.array_equal(a, b)

    def test_sample_huge_precision_pins_to_mean(self):
        d = MvnDistribution(np.array([2.0, -1.0]), cholesky(1e12 * np.eye(2)))
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = mvn_sample(d, rng)
            assert np.all(np.abs(x - d.mean) < 1e-5)

    def test_sample_moments_match_parameters(self):
        prec = np.array([[2.0, 0.8], [0.8, 1.0]])
        mean = np.array([1.0, -2.0])
        d = MvnDistribution(mean, cholesky(prec))
        rng = np.random.default_rng(7)
        draws = np.array([mvn_sample(d, rng) for _ in range(100000)])
        cov = np.linalg.inv(prec)
        np.testing.assert_allclose(draws.mean(axis=0), mean, atol=0.02)
        np.testing.assert_allclose(np.cov(draws.T), cov, rtol=0.05)

    def test_dimension_mismatch_raises(self):
        d = MvnDistribution(np.zeros(2), cholesky(np.eye(2)))
        with pytest.raises(ValueError):
            mvn_logpdf(d, [0.0])

    def test_mean_factor_dim_mismatch(self):
        with pytest.raises(ValueError):
            MvnDistribution(np.zeros(3), cholesky(np.eye(2)))
