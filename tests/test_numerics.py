from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awilt import numerics
from awilt.errors import NumericalError
from awilt.numerics import (U, DoubleDouble, _split, _two_prod, _two_sum,
                            dense_eigenvalues, horner, matrix_exponential,
                            newton_polish, polynomial_roots,
                            smallest_singular_vector)

import mp_reference
from mp_reference import DPS


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestSmallestSingularVector:
    def test_known_null_vector(self):
        # rows are orthogonal to (1, -1)/sqrt(2)
        A = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        u = smallest_singular_vector(A)
        assert np.linalg.norm(A @ u) < 1e-14
        assert abs(np.linalg.norm(u) - 1.0) < 8 * U

    def test_matches_svd_minimum(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            A = _random_complex(rng, (7, 4))
            u = smallest_singular_vector(A)
            smin = np.linalg.svd(A, compute_uv=False)[-1]
            assert abs(np.linalg.norm(A @ u) - smin) <= 1e-12 * max(smin, 1)

    def test_rejects_wide_matrix(self):
        with pytest.raises(ValueError):
            smallest_singular_vector(np.ones((2, 3)))

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_unit_norm_and_optimality(self, seed):
        rng = np.random.default_rng(seed)
        A = _random_complex(rng, (6, 3))
        u = smallest_singular_vector(A)
        assert abs(np.linalg.norm(u) - 1.0) < 1e-12
        # no unit vector does much better
        v = _random_complex(rng, 3)
        v = v / np.linalg.norm(v)
        assert np.linalg.norm(A @ u) <= np.linalg.norm(A @ v) + 1e-10

    @pytest.mark.parametrize("draw", [
        _random_complex, lambda rng, shape: rng.standard_normal(shape)],
        ids=["complex", "real"])
    @given(n=st.integers(1, 70), extra=st.integers(0, 140),
           seed=st.integers(0, 2 ** 32 - 1), log_scale=st.floats(-3.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_tall_matches_plain_svd_bitwise(self, draw, n, extra, seed,
                                            log_scale):
        # zgesdd (dgesdd) itself factors A by QR first from
        # m >= floor(17n/9) (floor(11n/6)) < 2n; a real A gives a real u
        A = 10.0 ** log_scale * draw(np.random.default_rng(seed),
                                     (2 * n + extra, n))
        want = np.linalg.svd(A, full_matrices=False)[2][-1].conj()
        u = smallest_singular_vector(A)
        assert u.dtype == A.dtype
        assert u.tobytes() == want.tobytes()

    @given(n=st.integers(1, 70), extra=st.integers(0, 69),
           seed=st.integers(0, 2 ** 32 - 1), log_scale=st.floats(-3.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_near_square_is_minimal_to_rounding(self, n, extra, seed,
                                                log_scale):
        A = 10.0 ** log_scale * _random_complex(
            np.random.default_rng(seed), (n + extra % n, n))
        u = smallest_singular_vector(A)
        s = np.linalg.svd(A, compute_uv=False)
        assert np.linalg.norm(A @ u) <= s[-1] + 100 * n * U * s[0]
        # LAPACK normalises v to a few u; random draws reached 12u
        assert abs(np.linalg.norm(u) - 1.0) <= 32 * U


class TestDenseEigenvalues:
    def test_standard_problem_matches_numpy(self):
        rng = np.random.default_rng(1)
        A = _random_complex(rng, (5, 5))
        vals = dense_eigenvalues(A, np.eye(5))
        got = np.sort_complex(vals)
        want = np.sort_complex(np.linalg.eigvals(A))
        assert np.max(np.abs(got - want)) < 1e-10

    def test_singular_b_leaves_out_infinite(self):
        A = np.diag([1.0, 2.0, 3.0])
        B = np.diag([1.0, 1.0, 0.0])
        vals = dense_eigenvalues(A, B)
        assert sorted(np.real(vals)) == pytest.approx([1.0, 2.0])

    def test_arrowhead_single_pole(self):
        # det(A - x B) = x - 1: one finite eigenvalue 1, two infinite
        A = np.array([[0.0, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 0.0]],
                     dtype=complex)
        B = np.diag([0.0, 0.0, 1.0]).astype(complex)
        vals = dense_eigenvalues(A, B)
        assert len(vals) == 1
        assert vals[0] == pytest.approx(1.0, abs=1e-10)


class TestMatrixExponential:
    def test_diagonal_exact(self):
        A = np.diag([0.0, -1.0, 2.0])
        E = matrix_exponential(A)
        assert np.allclose(np.diag(E), np.exp(np.diag(A)), rtol=1e-14)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_inverse_identity(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((4, 4))
        A = A / max(np.linalg.norm(A), 1.0)
        P = matrix_exponential(A) @ matrix_exponential(-A)
        assert np.linalg.norm(P - np.eye(4)) < 1e-12


class TestHorner:
    def test_binary64_coefficients(self):
        # 1 + 2 z + 3 z^2 at z = 2 and at the double-double 1 + 2^-60
        z = DoubleDouble(np.array([2.0, 1.0]), np.array([0.0, 2.0 ** -60]))
        p = horner([1.0, 2.0, 3.0], z)
        assert p.hi.tolist() == [17.0, 6.0]
        assert p.lo.tolist() == [0.0, 8 * 2.0 ** -60]

    def test_double_double_coefficients(self):
        # 1/3 + z/7 + z^2/11, its coefficients to 106 bits, at 1/2 + i/4
        q = [Fraction(1, 3), Fraction(1, 7), Fraction(1, 11)]
        cs = [DoubleDouble(float(c), float(c - Fraction(float(c))))
              for c in q]
        p = horner(cs, np.array([0.5 + 0.25j]))
        with mpmath.workdps(DPS):
            z = mpmath.mpc(0.5, 0.25)
            exact = sum(mpmath.mpf(c.numerator) / c.denominator * z ** k
                        for k, c in enumerate(q))
            assert abs(_mp(p[0]) - exact) <= 2.0 ** -100 * abs(exact)


class TestPolynomialRoots:
    def test_known_cubic(self):
        # (z - 1)(z - 2)(z + 3) = -6 + 7 z - 0 z^2 ... expand explicitly
        coeffs = np.polynomial.polynomial.polyfromroots([1.0, 2.0, -3.0])
        roots = polynomial_roots(list(coeffs))
        assert sorted(np.real(roots)) == pytest.approx([-3.0, 1.0, 2.0],
                                                       abs=1e-10)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_mpmath_polyroots(self, seed):
        # real and complex coefficients spread over 6 decades; the noise
        # imaginary parts of real roots (below 2^-100 |r|) are dropped
        rng = np.random.default_rng(seed)
        deg = int(rng.integers(1, 13))
        c = rng.standard_normal(deg + 1) * 10.0 ** rng.uniform(-3, 3, deg + 1)
        if seed % 2:
            c = c + 1j * rng.standard_normal(deg + 1)

        def roots(r):
            r = np.where(np.abs(r.imag) <= 2.0 ** -100 * np.abs(r),
                         r.real + 0j, r)
            return np.sort_complex(r)

        got = roots(polynomial_roots(list(c)))
        want = roots(mp_reference.polynomial_roots(list(c)))
        assert np.array_equal(got, want)

    def test_zero_leading_coefficient(self):
        with pytest.raises(ValueError, match="leading coefficient is zero"):
            polynomial_roots([1.0, 2.0, 0.0])

    @pytest.mark.filterwarnings("error")
    def test_overflowing_companion_matrix(self):
        # 1e300 / 1e-10 overflows in the companion matrix's first row
        with pytest.raises(NumericalError,
                           match="companion matrix is not finite"):
            polynomial_roots([1.0, 1e300, 1e-10])

    def test_non_finite_root(self, monkeypatch):
        monkeypatch.setattr(np, "roots", lambda p: np.array([np.nan]))
        with pytest.raises(NumericalError, match="root that is not finite"):
            polynomial_roots([-1.0, 1.0])

    def test_residual_check(self, monkeypatch):
        # a polish that reports convergence off the root of z - 1
        monkeypatch.setattr(numerics, "newton_polish", lambda f, guesses: (
            np.asarray(guesses) + 1e-3, np.zeros(len(guesses), dtype=int)))
        with pytest.raises(NumericalError, match="root residual too large"):
            polynomial_roots([-1.0, 1.0])

    def test_extended_agrees(self):
        # np.roots (binary64 companion matrix) as the reference
        coeffs = [1.0, 3.0, -2.0, 0.5, 1.0]
        a = np.sort_complex(np.roots(np.asarray(coeffs, dtype=complex)[::-1]))
        b = np.sort_complex(polynomial_roots(coeffs))
        assert np.max(np.abs(a - b)) < 1e-10


def _mp(x):
    """The complex value hi + lo of a DoubleDouble entry, exactly."""
    return (mpmath.mpc(complex(x.hi)) + mpmath.mpc(complex(x.lo)))


def _random_dd(rng, n):
    """n complex double-doubles of magnitude 1e-3..1e3 with full low
    parts."""
    hi = _random_complex(rng, n) * 10.0 ** rng.uniform(-3, 3, n)
    return DoubleDouble(hi) + DoubleDouble(hi * U * _random_complex(rng, n))


class TestDoubleDouble:
    @given(st.floats(-1e150, 1e150), st.floats(-1e150, 1e150))
    def test_error_free_transformations(self, a, b):
        s, e = _two_sum(a, b)
        assert s == a + b
        assert Fraction(s) + Fraction(e) == Fraction(a) + Fraction(b)
        exact = Fraction(a) * Fraction(b)
        if exact == 0 or abs(exact) >= 2.0 ** -960:  # the normal range
            p, e = _two_prod(_split(a), _split(b))
            assert p == a * b and Fraction(p) + Fraction(e) == exact

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_error_free_on_full_significands(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal((2, 50)) * 10.0 ** rng.uniform(-100, 100,
                                                                  (2, 50))
        p, e = _two_prod(_split(a), _split(b))
        for ai, bi, pi, ei in zip(a, b, p, e):
            assert Fraction(pi) + Fraction(ei) == Fraction(ai) * Fraction(bi)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(20, 50))
    @settings(max_examples=40, deadline=None)
    def test_add_keeps_relative_accuracy_under_cancellation(self, seed, k):
        # y = -x (1 - 2^-k r): the parts of x + y keep ~2^-100 relative
        # accuracy, which a sum of the low parts in binary64 loses
        rng = np.random.default_rng(seed)
        x = _random_dd(rng, 8)
        y = -x + DoubleDouble(x.hi * 2.0 ** -k * _random_complex(rng, 8))
        got = x + y
        with mpmath.workdps(DPS):
            for i in range(8):
                want = _mp(x[i]) + _mp(y[i])
                for g, w in ((_mp(got[i]).real, want.real),
                             (_mp(got[i]).imag, want.imag)):
                    assert abs(g - w) <= 2.0 ** -100 * abs(w)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_operations_match_mpmath(self, seed):
        rng = np.random.default_rng(seed)
        x, y = _random_dd(rng, 8), _random_dd(rng, 8)
        with mpmath.workdps(DPS):
            for i in range(8):
                a, b = _mp(x[i]), _mp(y[i])
                for got, want, scale in (
                        (x + y, a + b, abs(a) + abs(b)),
                        (x - y, a - b, abs(a) + abs(b)),
                        (x * y, a * b, abs(a * b)),
                        (x / y, a / b, abs(a / b))):
                    assert abs(_mp(got[i]) - want) <= 2.0 ** -100 * scale
                    # normalised: hi is the rounding of hi + lo
                    assert got.hi[i] == got.to_complex()[i]

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 70))
    @settings(max_examples=40, deadline=None)
    def test_pairwise_sum(self, seed, n):
        rng = np.random.default_rng(seed)
        x = _random_dd(rng, n)
        x = DoubleDouble(np.stack([x.hi, -x.hi]), np.stack([x.lo, x.lo]))
        # rows: x, and -x.hi + x.lo, whose sum cancels to 2 x.lo
        got = x.sum(axis=0).sum()
        with mpmath.workdps(DPS):
            terms = [_mp(x[j, i]) for j in range(2) for i in range(n)]
            want = mpmath.fsum(terms)
            scale = mpmath.fsum(abs(t) for t in terms)
            assert abs(_mp(got) - want) <= 2.0 ** -100 * scale
            assert abs(_mp(x[0].sum()) - mpmath.fsum(terms[:n])) <= (
                2.0 ** -100 * scale)

    def test_division_by_zero_is_not_finite(self):
        with np.errstate(all="ignore"):
            q = 1.0 / DoubleDouble(np.array([0j, 2.0]))
        assert not np.isfinite(q.hi[0]) and q.to_complex()[1] == 0.5


class TestNewtonPolish:
    @staticmethod
    def _square_minus_two(sizes):
        """f(z) = z^2 - 2, recording how many iterates each call gets."""
        def f(z):
            sizes.append(len(z))
            return z * z - 2.0, 2.0 * z.hi
        return f

    def test_converged_iterates_are_frozen(self):
        sizes = []
        roots, status = newton_polish(self._square_minus_two(sizes),
                                      [1.5, 4.0, -1.0])
        assert list(status) == [0, 0, 0]
        assert list(roots) == [2 ** 0.5, 2 ** 0.5, -2 ** 0.5]
        # 1.5 and -1.0 are done before 4.0, and leave the sweep
        assert sizes[0] == 3 and sizes[-1] == 1 and sizes == sorted(
            sizes, reverse=True)

    def test_status_codes(self):
        # a zero of f' gives a non-finite step (1); 1e30 needs ~100
        # halvings (2); 1.5 converges (0)
        roots, status = newton_polish(self._square_minus_two([]),
                                      [0.0, 1e30, 1.5])
        assert list(status) == [1, 2, 0] and roots[2] == 2 ** 0.5
