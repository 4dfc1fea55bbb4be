"""40-digit mpmath references for the double-double kernels.

Scalar loops that evaluate the pole polish, the residues, the moments, the
polynomial roots and the Zakian residues one value at a time at DPS
decimal digits, each rounded to binary64 at the end; the residues and
the moments are returned unrounded, with an error bound.  They are the
code the library ran before its double-double kernel, and the tests
compare the kernel's results with them bit for bit.
"""

import math

import mpmath
import numpy as np

from awilt.errors import NumericalError
from awilt.methods import _pade_exp_coeffs, pair_conjugates, to_full
from awilt.numerics import POLISH_STEPS

#: decimal digits of the references: more than the ~32 of double-double
DPS = 40


def polish_poles(b, guesses):
    """Newton on the barycentric denominator, one guess at a time."""
    out = np.empty(len(guesses), dtype=complex)
    with mpmath.workdps(DPS):
        u0 = mpmath.mpc(b.weights[0])
        us = [mpmath.mpc(x) for x in b.weights[1:]]
        zs = [mpmath.mpc(x) for x in b.support]
        tol = mpmath.mpf(10) ** (8 - DPS)
        trim = mpmath.mpf(2) ** -60
        for i, guess in enumerate(guesses):
            z = mpmath.mpc(guess)
            for _ in range(POLISH_STEPS):
                try:
                    inv = [1 / (z - zk) for zk in zs]
                    d = u0 + mpmath.fsum(uk * q for uk, q in zip(us, inv))
                    step = -d / mpmath.fsum(uk * q * q
                                            for uk, q in zip(us, inv))
                except ZeroDivisionError:
                    raise NumericalError(
                        f"pole polish hit a singularity from {guess}") from None
                z -= step
                if (abs(step) <= tol * (1 + abs(z))
                        or abs(step) <= trim * abs(z)):
                    break
            else:
                raise NumericalError(
                    f"pole polish did not converge from {guess}")
            out[i] = complex(z)
    return out


def residues(b, poles):
    """w = -n / d' at each pole, one pole at a time, as mpc values, with
    the error bound of an evaluation in ~2^-104 arithmetic:
    2^-98 (sum |u f q| + |w| sum |u q^2|) / |d'|."""
    out = []
    with mpmath.workdps(DPS):
        us = [mpmath.mpc(x) for x in b.weights[1:]]
        fs = [mpmath.mpc(x) for x in b.values]
        zs = [mpmath.mpc(x) for x in b.support]
        for p in poles:
            pp = mpmath.mpc(p)
            inv = [1 / (pp - z) for z in zs]
            n = mpmath.fsum(u * f * q for u, f, q in zip(us, fs, inv))
            dprime = -mpmath.fsum(u * q * q for u, q in zip(us, inv))
            w = -n / dprime
            size = (mpmath.fsum(abs(u * f * q) for u, f, q in zip(us, fs, inv))
                    + abs(w) * mpmath.fsum(abs(u * q * q)
                                           for u, q in zip(us, inv)))
            out.append((w, mpmath.mpf(2) ** -98 * size / abs(dprime)))
    return out


def near_midpoint(x, tol):
    """Whether the real mpf x lies within tol of a midpoint between two
    adjacent binary64 numbers, where rounding to the nearest one may go
    either way for a value known to within tol."""
    d = float(x)
    n = math.nextafter(d, math.inf if x >= d else -math.inf)
    with mpmath.workdps(DPS):
        return abs(x - (mpmath.mpf(d) + n) / 2) <= tol


def moment_sums(m):
    """(mu0, mu1, mu2) = (sum w/beta, sum w/beta^2, 2 sum w/beta^3), each
    as (value, bound): the real part of the sum, unrounded, and the error
    bound of the double-double kernel.  The kernel's k-th sum takes one
    division, k products and ceil(log2 n) levels of pairwise additions;
    the error of each, carried to the sum, is at most a few (here 4)
    units of 2^-106 of the size sum |w/beta^k| (normwise), and the
    division's is carried k times.  So the bound is
    2^-104 (2k + ceil(log2 n)) sum |w/beta^k|."""
    full = to_full(m)
    depth = math.ceil(math.log2(len(full.nodes)))
    out = []
    with mpmath.workdps(DPS):
        terms = [(mpmath.mpc(w), mpmath.mpc(b))
                 for w, b in zip(full.weights, full.nodes)]
        for k, scale in ((1, 1), (2, 1), (3, 2)):
            value = scale * mpmath.fsum(w / b ** k for w, b in terms)
            size = scale * mpmath.fsum(abs(w / b ** k) for w, b in terms)
            out.append((mpmath.re(value),
                        mpmath.mpf(2) ** -104 * (2 * k + depth) * size))
    return out


def polynomial_roots(coeffs):
    """Roots of sum_k coeffs[k] z^k by mpmath.polyroots."""
    with mpmath.workdps(DPS):
        desc = [mpmath.mpmathify(c) for c in reversed(coeffs)]
        roots = mpmath.polyroots(desc, maxsteps=200, extraprec=80)
        return np.array([complex(r) for r in roots])


def zakian(n):
    """(nodes, weights) of the Zakian method, residues by mpmath.polyval."""
    num, den = _pade_exp_coeffs(n)
    roots = polynomial_roots([float(c) for c in den])
    with mpmath.workdps(DPS):
        num_mp = [mpmath.mpf(c.numerator) / c.denominator for c in num]
        den_mp = [mpmath.mpf(c.numerator) / c.denominator for c in den]
        dden = [j * den_mp[j] for j in range(1, len(den_mp))]
        ws = []
        for r in roots:
            rr = mpmath.mpc(r)
            p = mpmath.polyval(list(reversed(num_mp)), rr)
            dq = mpmath.polyval(list(reversed(dden)), rr)
            ws.append(complex(-p / dq))
    return pair_conjugates(roots, np.array(ws))
