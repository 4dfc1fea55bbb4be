"""Dense small-matrix and scalar kernels.

Matrix kernels run in binary64 through numpy/scipy: the AAA least-squares
vector, the pole pencil and the matrix exponential.  The last two take
the square matrices their callers build or have validated, and do not
check their shapes again.  The extended-precision work runs on one
complex double-double kernel, `DoubleDouble`: the Newton polish of the
binary64 pole eigenvalues and the residues (`tame`), the moments
(`diagnostics`), the polynomial roots here and the Zakian residues
(`methods`).  A double-double holds a value as an unevaluated sum hi + lo
of two binary64 numbers per component, about 106 bits; its operations are
built on error-free transformations (Dekker, Numer. Math. 18, 1971; Ogita,
Rump & Oishi, SIAM J. Sci. Comput. 26, 2005) and act on whole arrays.
Every result is rounded to binary64 only at the end.  An error of a few
units of 2^-106, even after a cancellation of 1e8, leaves a value within
about 2^-24 of an ulp of binary64 from the exact one.  So it rounds to
the same binary64 number as the exact value, and as any result of 40 or
more digits, unless the exact value lies that close to a midpoint
between two binary64 numbers (an exact tie, or a sum that cancels by
more than about 2^50).  The parts must stay in the normal range: a
result below about 2^-969 in magnitude has no room for its low part.
"""

import numpy as np

from .errors import NumericalError

#: unit roundoff of binary64
U = 2.0 ** -52

#: Dekker's splitter 2^27 + 1: splits a binary64 into two 26-bit halves
_SPLITTER = 134217729.0

#: Newton steps allowed per guess before `newton_polish` gives up
POLISH_STEPS = 8


def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth).

    Works per component on complex arrays, as complex addition does."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _fast_two_sum(a, b):
    """`_two_sum` for |a| >= |b| per component (or a = 0)."""
    s = a + b
    return s, b - (s - a)


def _split(a):
    """(a, hi, lo) with hi + lo = a and 26 significant bits in each."""
    t = _SPLITTER * a
    hi = t - (t - a)
    return a, hi, a - hi


def _two_prod(a, b):
    """(p, e) with p = fl(a b) and p + e = a b exactly (Dekker), for real
    a and b given as their `_split`s; numpy has no fma."""
    (a, ah, al), (b, bh, bl) = a, b
    p = a * b
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _complex(re, im):
    """The complex array re + i im, exactly."""
    out = np.empty(np.broadcast_shapes(np.shape(re), np.shape(im)), complex)
    out.real, out.imag = re, im
    return out


def _multiply(a, b):
    """a b for complex arrays, from real products each rounded on its own.

    numpy's complex multiply may fuse a product into the sum (FMA), so
    that the real part of z z for Re z = Im z is not zero."""
    return _complex(a.real * b.real - a.imag * b.imag,
                    a.real * b.imag + a.imag * b.real)


class DoubleDouble:
    """Complex double-double arrays: the value is hi + lo, per component,
    with hi = fl(hi + lo).

    Supports +, -, * and / by another DoubleDouble or by a binary64
    number or array (taken as exact), x / DoubleDouble for a binary64 x,
    numpy indexing and broadcasting, a pairwise `sum` along an axis and
    rounding to complex128 by `to_complex`.  Each operation has a
    relative error of a few 2^-106 (normwise for * and /).  Overflow and
    division by zero give non-finite parts.
    """

    __slots__ = ("hi", "lo")
    #: numpy defers binary64 / DoubleDouble to __rtruediv__
    __array_ufunc__ = None

    def __init__(self, hi, lo=None):
        self.hi = np.asarray(hi, dtype=complex)
        self.lo = (np.zeros_like(self.hi) if lo is None
                   else np.asarray(lo, dtype=complex))

    def __getitem__(self, key):
        return DoubleDouble(self.hi[key], self.lo[key])

    def __len__(self):
        return len(self.hi)

    def __neg__(self):
        return DoubleDouble(-self.hi, -self.lo)

    def __add__(self, other):
        other = _as_dd(other)
        s, e = _two_sum(self.hi, other.hi)
        t, f = _two_sum(self.lo, other.lo)
        s, e = _fast_two_sum(s, e + t)
        return DoubleDouble(*_fast_two_sum(s, e + f))

    def __sub__(self, other):
        return self + -_as_dd(other)

    def __mul__(self, other):
        other = _as_dd(other)
        x, y = self.hi, other.hi
        xr, xi, yr, yi = map(_split, (x.real, x.imag, y.real, y.imag))
        rr, rre = _two_prod(xr, yr)
        ii, iie = _two_prod(xi, yi)
        ri, rie = _two_prod(xr, yi)
        ir, ire = _two_prod(xi, yr)
        # re = rr - ii and im = ri + ir, both in one complex addition
        p = (DoubleDouble(_complex(rr, ri), _complex(rre, rie))
             + DoubleDouble(_complex(-ii, ir), _complex(-iie, ire)))
        return DoubleDouble(*_fast_two_sum(
            p.hi, p.lo + (_multiply(x, other.lo) + _multiply(self.lo, y))))

    def __truediv__(self, other):
        # a binary64 quotient and one correction from the remainder
        other = _as_dd(other)
        q = self.hi / other.hi
        r = self - other * q
        return DoubleDouble(*_fast_two_sum(q, r.hi / other.hi))

    def __rtruediv__(self, other):
        return _as_dd(other) / self

    def sum(self, axis=-1):
        """Pairwise sum along axis."""
        hi, lo = np.moveaxis(self.hi, axis, 0), np.moveaxis(self.lo, axis, 0)
        if len(hi) == 0:
            return DoubleDouble(np.zeros(hi.shape[1:], complex))
        x = DoubleDouble(hi, lo)
        while len(x) > 1:
            half = len(x) // 2
            y = x[:half] + x[half:2 * half]
            if len(x) % 2:
                y = DoubleDouble(np.concatenate([y.hi, x.hi[-1:]]),
                                 np.concatenate([y.lo, x.lo[-1:]]))
            x = y
        return x[0]

    def to_complex(self):
        """The nearest complex128, per component."""
        return self.hi + self.lo


def _as_dd(x):
    return x if isinstance(x, DoubleDouble) else DoubleDouble(x)


def newton_polish(f, guesses):
    """Newton's method from each guess, all at once, in double-double.

    ``f(z)`` takes a `DoubleDouble` array of iterates and returns f(z) as
    a `DoubleDouble` and f'(z) as a binary64 array of the same shape.  A
    binary64 derivative suffices: with its relative error d, a step
    shrinks the error by a factor of about d or better, so the step after
    the iterate reaches binary64 accuracy takes it far below.  An iterate
    stops, and is frozen, after a step of at most 1e-32 (1 + |z|) or
    2^-60 |z|, which leaves it far more accurate than binary64 can hold.  Returns ``(roots,
    status)``: the iterates rounded to binary64, and per guess 0
    (converged), 1 (a non-finite step: an iterate on a singularity of f
    or a zero of f') or 2 (not converged within POLISH_STEPS steps).
    """
    z = DoubleDouble(np.array(guesses, dtype=complex))
    status = np.full(len(z), 2)
    active = np.arange(len(z))
    for _ in range(POLISH_STEPS):
        if not len(active):
            break
        zi = z[active]
        with np.errstate(all="ignore"):
            value, slope = f(zi)
            step = value / slope
        singular = ~np.isfinite(step.hi)
        zi = zi - step
        size, mod = np.abs(step.hi), np.abs(zi.hi)
        done = (size <= 1e-32 * (1.0 + mod)) | (size <= 2.0 ** -60 * mod)
        z.hi[active], z.lo[active] = zi.hi, zi.lo
        status[active[singular]] = 1
        status[active[done & ~singular]] = 0
        active = active[~done & ~singular]
    return z.to_complex(), status


def smallest_singular_vector(A):
    """Unit-norm vector u minimizing ||A u||_2.

    A must have at least as many rows as columns and finite entries
    (not checked here: `tame.aaa_fit` checks each column it adds).

    u is the last right singular vector of the R factor of A = QR (Chan's
    R-SVD), so Q and the left singular vectors are never formed.  LAPACK's
    zgesdd factors A by QR first itself when m >= floor(17 n / 9), so
    from there (in particular for m >= 2n, as in every AAA step of a
    TAME build) u has the bits of the last right singular vector of a
    plain SVD of A; below that ratio it agrees to rounding.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] < A.shape[1]:
        raise ValueError("need a matrix with rows >= cols")
    _, _, Vh = np.linalg.svd(np.linalg.qr(A, mode="r"), full_matrices=False)
    return Vh[-1].conj()


def dense_eigenvalues(A, B):
    """Finite generalized eigenvalues of the square pencil (A, B) in
    binary64.

    An eigenvalue alpha/beta with |beta| < 1e3 u max(|alpha|, 1) counts
    as infinite (from a singular B) and is left out.  Callers that need
    more than binary64 accuracy polish the eigenvalues themselves, as
    ``tame.extract_poles`` does.
    """
    import scipy.linalg
    alpha, beta = scipy.linalg.eig(A, B, right=False, homogeneous_eigvals=True)
    infinite = np.abs(beta) < 1e3 * U * np.maximum(np.abs(alpha), 1.0)
    return alpha[~infinite] / beta[~infinite]


def matrix_exponential(A):
    """exp(A) for a square matrix (scipy.linalg.expm)."""
    import scipy.linalg
    return scipy.linalg.expm(np.asarray(A, dtype=complex))


def polynomial_roots(coeffs):
    """Roots of sum_k coeffs[k] z^k, for at least two coefficients in
    ascending order; a zero leading coefficient raises ValueError.

    The binary64 roots of `np.roots` are polished by `newton_polish` with
    a double-double Horner scheme on the same binary64 coefficients, so
    each root is the binary64 rounding of an exact root of that
    polynomial.  Raises NumericalError if the companion matrix of
    `np.roots` or a root it returns is not finite (numpy warns of
    nothing), if a root does not converge within POLISH_STEPS steps, or if
    its binary64 residual is too large.
    """
    c = np.asarray(list(coeffs), dtype=complex)
    if c[-1] == 0:
        raise ValueError("leading coefficient is zero")
    dc = c[1:] * np.arange(1, len(c))

    def horner(z):
        p = DoubleDouble(np.full(len(z), c[-1]))
        for ck in c[-2::-1]:
            p = p * z + ck
        return p, np.polynomial.polynomial.polyval(z.hi, dc)

    with np.errstate(all="ignore"):
        # the first row of np.roots' companion matrix: -c[k] / c[-1]
        if not np.isfinite(c[:-1] / c[-1]).all():
            raise NumericalError("companion matrix is not finite")
        guesses = np.roots(c[::-1])
    if not np.isfinite(guesses).all():
        raise NumericalError("np.roots returned a root that is not finite")
    out, status = newton_polish(horner, guesses)
    if np.any(status):
        raise NumericalError("root polish did not converge")
    maxc = float(np.max(np.abs(c)))
    p = np.polynomial.Polynomial(c)
    for r in out:
        if abs(p(r)) > 1e-10 * maxc * max(1.0, abs(r)) ** (len(c) - 1):
            raise NumericalError("root residual too large")
    return out
