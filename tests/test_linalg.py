import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from tangentmh.hb import simulate_hb
from tangentmh.linalg import (
    PIVOT_RTOL,
    CholeskyFactor,
    MvnDistribution,
    NotPositiveDefinite,
    SymMatrix,
    _cholesky_kernel,
    _cholesky_lowers,
    _cholesky_stack,
    _factor_by_columns,
    _inv_kernel,
    _pivots_pass,
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
            rel = np.linalg.norm(f.lower @ f.lower.T - m, "fro") / np.linalg.norm(m, "fro")
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


@st.composite
def square_matrices(draw):
    """A (kind, matrix, expected pivot) triple: a symmetric positive
    definite matrix, an indefinite one, one whose pivot ``j`` is positive
    but below ``PIVOT_RTOL`` times its largest diagonal entry, or a
    positive definite one with a non-finite lower entry in row ``j``;
    in C or Fortran order, scaled by a power of ten."""
    kind = draw(st.sampled_from(["spd", "indefinite", "tiny_pivot", "non_finite"]))
    n = draw(st.integers(2 if kind == "tiny_pivot" else 1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    j = draw(st.integers(0, n - 1))
    pivot = None
    if kind == "indefinite":
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        eig = rng.uniform(0.5, 2.0, n)
        eig[j] = -eig[j]
        a = (q * eig) @ q.T
    elif kind == "tiny_pivot":
        lower = np.tril(rng.standard_normal((n, n)), -1) + np.diag(rng.uniform(1.0, 2.0, n))
        lower[j, j] = np.sqrt(PIVOT_RTOL * 10.0 ** rng.uniform(-18.0, -1.0))
        a, pivot = lower @ lower.T, j
    else:
        a = random_spd(n, rng)
    if kind == "non_finite":
        a[j, draw(st.integers(0, j))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        pivot = j
    a = a * 10.0 ** draw(st.integers(-6, 6))
    return kind, np.asarray(a, order=draw(st.sampled_from("CF"))), pivot


def _factor_outcome(factor, a):
    """The factor, or the failure as (exception type, pivot, message)."""
    try:
        return factor(a)
    except NotPositiveDefinite as err:
        return (type(err), err.pivot, str(err))


class TestCholeskyProperties:
    """The LAPACK fast path against the column-by-column path that names
    failing pivots, and against numpy's factor."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(square_matrices())
    def test_fast_path_agrees_with_column_path(self, case):
        kind, a, pivot = case
        before = a.copy(order="A")
        got = _factor_outcome(lambda m: cholesky(m).lower, a)
        ref = _factor_outcome(_factor_by_columns, a)
        assert a.flags.f_contiguous == before.flags.f_contiguous
        assert a.tobytes(order="A") == before.tobytes(order="A")
        if kind == "spd":
            assert not isinstance(ref, tuple)
            expected = np.linalg.cholesky(a)
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())
            assert got.flags.f_contiguous
        else:
            assert isinstance(ref, tuple) and got == ref
            if pivot is not None:
                assert got[1] == pivot


def _stack_outcome(stack):
    """``_cholesky_stack`` under the error state its callers set."""
    with np.errstate(all="ignore"):
        return _cholesky_stack(stack)


class TestStackedCholesky:
    """The stacked factors and inverses from numpy's kernels, against
    numpy's public wrappers and ``cholesky``'s verdicts, matrix by matrix."""

    @staticmethod
    def assert_numpy_bytes(stack, lowers):
        for m, lower in zip(stack, lowers):
            assert lower.tobytes() == np.linalg.cholesky(m).tobytes()
        inverses = _inv_kernel(lowers)
        for lower, inverse in zip(lowers, inverses):
            assert inverse.tobytes() == np.linalg.inv(lower).tobytes()

    def test_equals_each_factor(self):
        # factors and raw inverses, matrix by matrix, at dims 1-10
        rng = np.random.default_rng(12)
        for dim in range(1, 11):
            stack = np.array([random_spd(dim, rng) * s for s in (1e-3, 1.0, 1e3, 2.0) for _ in range(5)])
            self.assert_numpy_bytes(stack, _cholesky_lowers(stack))

    def test_gamma_precision_stack_equals_numpy(self):
        # the hierarchical demo's (K, L, L) = (10, 2, 2) gamma precisions
        spec, _ = simulate_hb(5, 10, 2, np.random.default_rng(2026), group_size=400)
        tau = np.random.default_rng(3).gamma(4.0, 1.0, size=10)
        gram, ridge = spec._upper_gram
        stack = tau[:, None, None] * gram + ridge
        assert stack.shape == (10, 2, 2)
        self.assert_numpy_bytes(stack, _cholesky_lowers(stack))

    def test_failure_keeps_numpy_factors(self):
        # at 10x10 numpy's factor and cholesky's LAPACK one differ in the
        # last bit for some matrices; a failure elsewhere in the stack
        # keeps numpy's for each passing matrix
        rng = np.random.default_rng(15)
        good = [random_spd(10, rng) for _ in range(40)]
        lowers, errors = _stack_outcome(np.array(good + [-np.eye(10)]))
        assert sorted(errors) == [40]
        assert lowers[:40].tobytes() == np.array([np.linalg.cholesky(m) for m in good]).tobytes()

    @pytest.mark.parametrize("bad, pivot", [
        (np.array([[1.0, 2.0], [2.0, 1.0]]), 1),  # indefinite
        (np.diag([1.0, 1e-30]), 1),  # factors, but below the relative tolerance
        (np.array([[4.0, 0.0], [np.nan, 4.0]]), 1),  # non-finite lower entry
    ])
    def test_first_failing_matrix_raises_its_pivot(self, bad, pivot):
        stack = np.array([np.eye(2), bad, -np.eye(2)])
        with pytest.raises(NotPositiveDefinite) as exc, np.errstate(all="ignore"):
            _cholesky_lowers(stack)
        assert exc.value.pivot == pivot

    @pytest.mark.parametrize("bad, pivot", [
        (np.array([[1.0, 2.0], [2.0, 1.0]]), 1),
        (np.diag([1.0, 1e-30]), 1),
        (np.array([[4.0, 0.0], [np.nan, 4.0]]), 1),
        (np.full((2, 2), np.nan), 0),
    ])
    def test_each_failure_named_alone(self, bad, pivot):
        # every failing matrix gets cholesky's error and the identity; the
        # others keep their factors bit for bit
        rng = np.random.default_rng(13)
        good = [random_spd(2, rng) for _ in range(3)]
        stack = np.array([good[0], bad, good[1], -np.eye(2), good[2]])
        lowers, errors = _stack_outcome(stack)
        assert sorted(errors) == [1, 3]
        assert (errors[1].pivot, errors[3].pivot) == (pivot, 0)
        for k in (1, 3):
            with pytest.raises(NotPositiveDefinite) as exc:
                cholesky(stack[k])
            assert str(errors[k]) == str(exc.value)
            assert np.array_equal(lowers[k], np.eye(2))
        for k, m in zip((0, 2, 4), good):
            assert lowers[k].tobytes() == np.linalg.cholesky(m).tobytes()

    def test_indefinite_nan_and_inf_named_as_cholesky_names_them(self):
        # the pivots and messages the parent's wrapper path gave
        rng = np.random.default_rng(16)
        good = [random_spd(3, rng) for _ in range(2)]
        stack = np.array([good[0], np.diag([1.0, 1.0, -1.0]), np.full((3, 3), np.nan),
                          np.diag([1.0, np.inf, 1.0]), good[1]])
        lowers, errors = _stack_outcome(stack)
        assert {k: (e.pivot, str(e)) for k, e in errors.items()} == {
            1: (2, "matrix not positive definite (pivot 2)"),
            2: (0, "non-finite entry in row 0"),
            3: (1, "non-finite entry in row 1"),
        }
        for k in (1, 2, 3):
            with pytest.raises(NotPositiveDefinite) as exc:
                cholesky(stack[k])
            assert (errors[k].pivot, str(errors[k])) == (exc.value.pivot, str(exc.value))
            assert np.array_equal(lowers[k], np.eye(3))
        self.assert_numpy_bytes(stack[[0, 4]], lowers[[0, 4]])

    def test_no_failure_no_errors(self):
        stack = np.array([random_spd(3, np.random.default_rng(14)), np.eye(3)])
        lowers, errors = _cholesky_stack(stack)
        assert errors == {}
        assert lowers.tobytes() == _cholesky_lowers(stack).tobytes()


@st.composite
def mixed_stacks(draw):
    """A ``(K, n, n)`` stack at a common scale from 1e-8 to 1e8 whose
    matrices differ in scale by none, up to 10 or up to 1e8 either way:
    positive definite ones, and among them, by kind, one whose
    last pivot squared lies within a factor of 2 of ``PIVOT_RTOL`` times
    its largest diagonal entry, one full of NaN, one with an infinite
    diagonal entry and one with a zero or negative diagonal entry."""
    n = draw(st.integers(1, 6))
    kinds = draw(st.lists(st.sampled_from(["spd"] * 3 + ["near_tol", "nan", "inf_diag", "non_positive_diag"]),
                          min_size=1, max_size=6))
    spread = draw(st.sampled_from([0.0, 1.0, 8.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** rng.uniform(-8.0, 8.0)
    stack = []
    for kind in kinds:
        j = int(rng.integers(n))
        if kind == "near_tol":
            lower = np.tril(rng.standard_normal((n, n)), -1) * 1e-3 + np.eye(n)
            lower[-1, -1] = np.sqrt(PIVOT_RTOL * rng.uniform(0.5, 2.0))
            a = lower @ lower.T
        else:
            a = random_spd(n, rng)
        if kind == "nan":
            a[:] = np.nan
        elif kind == "inf_diag":
            a[j, j] = np.inf
        elif kind == "non_positive_diag":
            a[j, j] = -rng.uniform(0.0, 1.0) if rng.random() < 0.5 else 0.0
        stack.append(a * (scale * 10.0 ** rng.uniform(-spread, spread)))
    return np.array(stack)


def _matrix_by_matrix(stack):
    """``_cholesky_stack``'s contract, one matrix at a time: the kernel's
    factor where ``_pivots_pass`` passes it, else ``cholesky``'s factor or
    the identity and its error as (pivot, message)."""
    lowers, errors = [], {}
    with np.errstate(all="ignore"):
        for k, a in enumerate(stack):
            lower = _cholesky_kernel(a)
            if not _pivots_pass(a.diagonal().tolist(), lower.diagonal().tolist()):
                try:
                    lower = cholesky(a).lower
                except NotPositiveDefinite as err:
                    lower, errors[k] = np.eye(a.shape[0]), (err.pivot, str(err))
            lowers.append(lower)
    return np.array(lowers), errors


class TestStackVerdict:
    """The one verdict for a whole stack against the pivot rule applied
    matrix by matrix."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(mixed_stacks())
    def test_same_factors_and_errors_as_each_matrix_alone(self, stack):
        lowers, errors = _stack_outcome(stack)
        want_lowers, want_errors = _matrix_by_matrix(stack)
        assert lowers.tobytes() == want_lowers.tobytes()
        assert {k: (e.pivot, str(e)) for k, e in errors.items()} == want_errors

    def test_scales_far_apart_each_pass_alone(self):
        # 1e-8 against 1e8: the stack's verdict fails, each matrix's rule passes
        rng = np.random.default_rng(17)
        stack = np.array([random_spd(4, rng) * 1e-8, random_spd(4, rng) * 1e8])
        lowers, errors = _stack_outcome(stack)
        assert errors == {}
        assert lowers.tobytes() == _cholesky_kernel(stack).tobytes()

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_pivot_at_the_tolerance(self, factor):
        # a last pivot squared of factor * PIVOT_RTOL against a largest diagonal
        # entry of 1: refused below the tolerance, accepted above it
        stack = np.array([np.eye(3), np.diag([1.0, 1.0, factor * PIVOT_RTOL])])
        lowers, errors = _stack_outcome(stack)
        assert sorted(errors) == ([1] if factor < 1.0 else [])
        assert _matrix_by_matrix(stack)[0].tobytes() == lowers.tobytes()


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
        logdet = 2.0 * cholesky(prec).half_log_det
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


class TestBitIdentity:
    """The direct LAPACK calls and the stored log-determinant reproduce
    ``solve_triangular`` on the factor's own (Fortran) layout and the
    diagonal sum bit for bit."""

    def _factors(self):
        rng = np.random.default_rng(8)
        for dim in range(1, 11):
            for _ in range(20):
                yield cholesky(random_spd(dim, rng)), rng

    def test_solve_and_sample_match_solve_triangular(self):
        for f, rng in self._factors():
            assert f.lower.flags.f_contiguous
            b = rng.standard_normal(f.dim) * 10.0 ** rng.uniform(-3, 3)
            y = solve_triangular(f.lower, b, lower=True, check_finite=False)
            expected = solve_triangular(f.lower, y, trans="T", lower=True, check_finite=False)
            assert np.array_equal(f.solve(b), expected)
            d = MvnDistribution(rng.standard_normal(f.dim), f)
            seed = int(rng.integers(2**32))
            z = np.random.default_rng(seed).standard_normal(f.dim)
            expected = d.mean + solve_triangular(f.lower, z, trans="T", lower=True, check_finite=False)
            assert np.array_equal(mvn_sample(d, np.random.default_rng(seed)), expected)

    def test_log_det_and_logpdf_match_diagonal_sum(self):
        for f, rng in self._factors():
            diag_sum = float(np.sum(np.log(np.diag(f.lower))))
            assert 2.0 * f.half_log_det == 2.0 * diag_sum
            d = MvnDistribution(rng.standard_normal(f.dim), f)
            x = rng.standard_normal(f.dim)
            z = f.lower.T @ (x - d.mean)
            expected = -0.5 * f.dim * float(np.log(2.0 * np.pi)) + diag_sum - 0.5 * float(z @ z)
            assert mvn_logpdf(d, x) == expected

    def test_zero_on_diagonal_raises(self):
        f = CholeskyFactor(np.array([[1.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(np.linalg.LinAlgError):
            f.solve(np.ones(2))
        with pytest.raises(np.linalg.LinAlgError):
            mvn_sample(MvnDistribution(np.zeros(2), f), np.random.default_rng(0))
