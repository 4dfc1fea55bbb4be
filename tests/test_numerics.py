import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awilt.numerics import (EXTENDED_DPS, U, dense_eigenvalues,
                            matrix_exponential, polynomial_roots,
                            smallest_singular_vector, symmetric_eigen_range)


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

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            smallest_singular_vector(np.array([[np.nan, 0], [0, 1.0]]))

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


class TestDenseEigenvalues:
    def test_standard_problem_matches_numpy(self):
        rng = np.random.default_rng(1)
        A = _random_complex(rng, (5, 5))
        vals, n_inf = dense_eigenvalues(A)
        assert n_inf == 0
        got = np.sort_complex(vals)
        want = np.sort_complex(np.linalg.eigvals(A))
        assert np.max(np.abs(got - want)) < 1e-10

    def test_singular_b_counts_infinite(self):
        A = np.diag([1.0, 2.0, 3.0])
        B = np.diag([1.0, 1.0, 0.0])
        vals, n_inf = dense_eigenvalues(A, B)
        assert n_inf == 1
        assert sorted(np.real(vals)) == pytest.approx([1.0, 2.0])

    def test_arrowhead_single_pole(self):
        # det(A - x B) = x - 1: one finite eigenvalue 1, two infinite
        A = np.array([[0.0, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 0.0]],
                     dtype=complex)
        B = np.diag([0.0, 0.0, 1.0]).astype(complex)
        vals, n_inf = dense_eigenvalues(A, B)
        assert len(vals) == 1
        assert vals[0] == pytest.approx(1.0, abs=1e-10)


class TestSymmetricEigenRange:
    def test_known_matrix(self):
        S = np.array([[2.0, 1.0], [1.0, 2.0]])
        lo, hi = symmetric_eigen_range(S)
        assert lo == pytest.approx(1.0, abs=1e-12)
        assert hi == pytest.approx(3.0, abs=1e-12)

    def test_hermitian_complex(self):
        S = np.array([[0.0, 1j], [-1j, 0.0]])
        lo, hi = symmetric_eigen_range(S)
        assert (lo, hi) == pytest.approx((-1.0, 1.0), abs=1e-12)


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


class TestPolynomialRoots:
    def test_known_cubic(self):
        # (z - 1)(z - 2)(z + 3) = -6 + 7 z - 0 z^2 ... expand explicitly
        coeffs = np.polynomial.polynomial.polyfromroots([1.0, 2.0, -3.0])
        roots = polynomial_roots(list(coeffs))
        assert sorted(np.real(roots)) == pytest.approx([-3.0, 1.0, 2.0],
                                                       abs=1e-10)

    def test_extended_agrees(self):
        # np.roots (binary64 companion matrix) as the reference
        coeffs = [1.0, 3.0, -2.0, 0.5, 1.0]
        a = np.sort_complex(np.roots(np.asarray(coeffs, dtype=complex)[::-1]))
        b = np.sort_complex(polynomial_roots(coeffs))
        assert np.max(np.abs(a - b)) < 1e-10
