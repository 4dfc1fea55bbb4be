"""Dense small-matrix and scalar kernels.

Matrix kernels run in binary64 through numpy/scipy; polynomial roots
are found in extended precision (mpmath).  The other extended-precision
work is scalar and opens mpmath.workdps(EXTENDED_DPS) where it runs: the
Newton polish of the binary64 pole eigenvalues and the residues
(`tame`), the moments (`diagnostics`) and the Zakian residues
(`methods`).  EXTENDED_DPS, defined here, is the one precision they share.
"""

import numpy as np
import mpmath

from .errors import NumericalError

#: unit roundoff of binary64
U = 2.0 ** -52

#: decimal digits of the extended-precision scalar work (>= 32 required,
#: i.e. at least twice binary64)
EXTENDED_DPS = 40


def smallest_singular_vector(A):
    """Unit-norm vector u minimizing ||A u||_2.

    A must have at least as many rows as columns and finite entries.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] < A.shape[1]:
        raise ValueError("need a matrix with rows >= cols")
    if not np.all(np.isfinite(A)):
        raise ValueError("non-finite entries")
    _, _, Vh = np.linalg.svd(A, full_matrices=False)
    return Vh[-1].conj()


def dense_eigenvalues(A, B=None):
    """Generalized eigenvalues of the pencil (A, B) in binary64.

    Returns ``(finite, n_infinite)`` where ``finite`` is an array of the
    finite eigenvalues and ``n_infinite`` counts infinite eigenvalues
    (from a singular B), which are excluded.  Callers that need more than
    binary64 accuracy polish the eigenvalues themselves, as
    ``tame.extract_poles`` does.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    n = A.shape[0]
    if B is None:
        B = np.eye(n)
    B = np.asarray(B, dtype=complex)
    if B.shape != A.shape:
        raise ValueError("A and B must have the same shape")
    import scipy.linalg
    alpha, beta = scipy.linalg.eig(A, B, right=False, homogeneous_eigvals=True)
    infinite = np.abs(beta) < 1e3 * U * np.maximum(np.abs(alpha), 1.0)
    finite = alpha[~infinite] / beta[~infinite]
    return finite, int(np.count_nonzero(infinite))


def symmetric_eigen_range(S):
    """(lambda_min, lambda_max) of a real symmetric (or Hermitian) matrix."""
    S = np.asarray(S)
    if np.isrealobj(S):
        S = S.astype(float)
    scale = np.linalg.norm(S)
    if np.linalg.norm(S - S.conj().T) > 1e-12 * max(scale, 1.0):
        raise ValueError("matrix is not symmetric within tolerance")
    w = np.linalg.eigvalsh(0.5 * (S + S.conj().T))
    return float(w[0]), float(w[-1])


def matrix_exponential(A):
    """exp(A) for a square matrix (scipy.linalg.expm)."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    import scipy.linalg
    return scipy.linalg.expm(A)


def polynomial_roots(coeffs):
    """Roots of sum_k coeffs[k] z^k (ascending order, leading coeff nonzero),
    found by mpmath at EXTENDED_DPS digits and rounded to binary64."""
    coeffs = list(coeffs)
    if len(coeffs) < 2:
        raise ValueError("need degree >= 1")
    if coeffs[-1] == 0:
        raise ValueError("leading coefficient is zero")
    with mpmath.workdps(EXTENDED_DPS):
        desc = [mpmath.mpmathify(c) for c in reversed(coeffs)]
        roots = mpmath.polyroots(desc, maxsteps=200, extraprec=80)
        out = np.array([complex(r) for r in roots])

    maxc = max(abs(complex(c)) for c in coeffs)
    p = np.polynomial.Polynomial(np.asarray(coeffs, dtype=complex))
    for r in out:
        if abs(p(r)) > 1e-10 * maxc * max(1.0, abs(r)) ** (len(coeffs) - 1):
            raise NumericalError("root residual too large")
    return out
