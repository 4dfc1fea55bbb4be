"""Built-in test transforms with analytic ground truth.

Each entry bundles a Laplace transform, the exact time-domain function
and a recommended domain recipe t -> Omega for building adapted methods.

Each transform is one numpy formula, its ``evaluator``: it takes an array
of s and gives the values at all of them at once, so an inversion over a
whole t-grid is one call.  A call at one s goes through the same
formula.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .domains import ImagSegment, RealSegment, Rectangle, select_domain
from .invert import Transform
from .numerics import matrix_exponential

_JUMP_TOL = 1e-9


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    transform: Transform
    f: object                     # ground truth t -> value
    domain_recipe: object = None  # t -> Domain suggestion


def _conj_closed(pairs):
    """True when the multiset of (c, a) pairs is closed under conjugation,
    each entry to within 1e-12 (1 + |entry|)."""
    left = list(pairs)
    for c, a in pairs:
        for j, (c2, a2) in enumerate(left):
            if (abs(c2 - c.conjugate()) <= 1e-12 * (1 + abs(c))
                    and abs(a2 - a.conjugate()) <= 1e-12 * (1 + abs(a))):
                left.pop(j)
                break
        else:
            return False
    return True


def _maybe_real(z, scale=1.0):
    z = complex(z)
    if abs(z.imag) <= 1e-12 * max(abs(z), scale):
        return z.real
    return z


def _bounding_rectangle(points):
    """Conjugate-symmetric rectangle covering the given points, widened a
    little so none of them sits exactly on the boundary."""
    pts = [complex(p) for p in points]
    x0 = min(p.real for p in pts)
    x1 = max(p.real for p in pts)
    ymax = max(abs(p.imag) for p in pts)
    pad = 1e-6 * (1.0 + max(abs(x0), abs(x1), ymax))
    return Rectangle(x0 - pad, x1 + pad, -ymax - pad, ymax + pad)


def exp_sum(c, a):
    """f(t) = sum c_m exp(a_m t), transform sum c_m / (s - a_m)."""
    cs = [complex(x) for x in np.atleast_1d(c)]
    As = [complex(x) for x in np.atleast_1d(a)]
    if len(cs) != len(As):
        raise ValueError("c and a must have the same length")
    symmetric = _conj_closed(list(zip(cs, As)))
    scale = sum(abs(x) for x in cs)

    def F(S):
        return sum(cm / (S - am) for cm, am in zip(cs, As))

    def f(t):
        return _maybe_real(sum(cm * cmath.exp(am * t)
                               for cm, am in zip(cs, As)), scale)

    return CatalogEntry(
        name="exp_sum", f=f,
        transform=Transform(evaluator=F, conjugate_symmetric=symmetric,
                            singularities=tuple(As), name="exp_sum"),
        domain_recipe=lambda t: _bounding_rectangle([am * t for am in As]))


def monomial_exp(b, a):
    """f(t) = t^b exp(a t) / b!, transform 1 / (s - a)^(b+1), for an
    integer 0 <= b <= 170: 171! overflows binary64."""
    if b not in range(171):
        raise ValueError(f"b must be an integer from 0 to 170, not b={b!r}")
    b = int(b)
    a = complex(a)
    fact = float(math.factorial(b))

    def F(S):
        return 1.0 / (S - a) ** (b + 1)

    def f(t):
        return _maybe_real(t ** b * cmath.exp(a * t) / fact)

    return CatalogEntry(
        name="monomial_exp", f=f,
        transform=Transform(evaluator=F,
                            conjugate_symmetric=a.imag == 0.0,
                            singularities=(a,), name="monomial_exp"),
        domain_recipe=lambda t: _bounding_rectangle([a * t, 0.0]))


def resolvent(v, Q, u):
    """The array evaluator of s -> v^T (sI - Q)^{-1} u: one stacked solve
    over all of its s."""
    eye = np.eye(len(Q))

    def F(S):
        x = np.linalg.solve(S.reshape(-1, 1, 1) * eye - Q, u[:, None])
        return (x[:, :, 0] @ v).reshape(S.shape)

    return F


def matrix_exp(v, Q, u):
    """f(t) = v^T exp(tQ) u, transform v^T (sI - Q)^{-1} u."""
    v = np.asarray(v, dtype=float)
    u = np.asarray(u, dtype=float)
    Q = np.asarray(Q, dtype=float)
    d = Q.shape[0]
    if Q.shape != (d, d) or v.shape != (d,) or u.shape != (d,):
        raise ValueError("shape mismatch between v, Q, u")
    eigs = tuple(np.linalg.eigvals(Q))

    def f(t):
        return float(v @ matrix_exponential(t * Q).real @ u)

    return CatalogEntry(
        name="matrix_exp", f=f,
        transform=Transform(evaluator=resolvent(v, Q, u),
                            conjugate_symmetric=True, singularities=eigs,
                            name="matrix_exp"),
        domain_recipe=lambda t: select_domain("matrix_exponential", Q=Q,
                                              t=t))


def _wave(name, F, f):
    """A wave entry: its transform F has poles at 0 and i pi (2k + 1), of
    which those with |k| < 40 are declared, and its Omega is i[-80, 80]
    for every t."""
    poles = (0.0,) + tuple(1j * math.pi * (2 * k + 1) * sgn
                           for k in range(40) for sgn in (1, -1))
    return CatalogEntry(
        name=name, f=f,
        transform=Transform(evaluator=F, conjugate_symmetric=True,
                            singularities=poles, name=name),
        domain_recipe=lambda t: ImagSegment(80.0))


def triangular_wave():
    """Period-2 triangular wave on [0, 1]; transform tanh(s/2) / s^2."""

    def F(S):
        # (1 - e^{-s}) / (1 + e^{-s}) = tanh(s/2), overflow-free form
        return np.tanh(0.5 * S) / (S * S)

    def f(t):
        frac = t - math.floor(t)
        return frac if math.floor(t) % 2 == 0 else 1.0 - frac

    return _wave("triangular_wave", F, f)


def square_wave():
    """f(t) = floor(t) mod 2; transform 1 / (s (1 + e^s))."""

    def F(S):
        # 1 / (1 + e^s) = (1 - tanh(s/2)) / 2, overflow-free form
        return (1.0 - np.tanh(0.5 * S)) / (2.0 * S)

    def f(t):
        if abs(t - round(t)) < _JUMP_TOL:
            raise ValueError(f"value undefined this close to the jump t={t}")
        return float(math.floor(t) % 2)

    return _wave("square_wave", F, f)


def _norm_cdf(x):
    # Max relative error of erfc is a few ulps (SUN libm-derived
    # implementation), so Phi is accurate to ~1e-16 absolute.
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def bs_call(q_price, strike, rate, sigma):
    """European call price C(t) and its Laplace transform.

    C(t) = Q Phi(d+) - K exp(-R t) Phi(d-) with
    d+- = (log(Q/K) + (R +- sigma^2/2) t) / (sigma sqrt(t)).  The
    transform splits on Q >= K vs Q < K and uses the exponents
    g+-(s) = (-(R - sigma^2/2) +- sqrt((R - sigma^2/2)^2
    + 2 sigma^2 (R + s))) / sigma^2 with the principal square root, which
    makes Re(g+) >= Re(g-) and matches the real branch for real s > 0.
    """
    Q = float(q_price)
    K = float(strike)
    R = float(rate)
    sig = float(sigma)
    if Q <= 0 or K <= 0 or sig <= 0 or R < 0:
        raise ValueError("need Q, K, sigma > 0 and R >= 0")
    m = R - 0.5 * sig * sig
    log_qk = math.log(Q / K)
    s_branch = -R - m * m / (2.0 * sig * sig)

    def gammas(S):
        root = np.sqrt(m * m + 2.0 * sig * sig * (R + S))
        return (-m + root) / (sig * sig), (-m - root) / (sig * sig)

    if Q >= K:
        def F(S):
            gp, gm = gammas(S)
            return (K / (gp - gm) * np.exp(gm * log_qk)
                    * (gp / (R + S) - (gp - 1.0) / S)
                    + Q / S - K / (R + S))
    else:
        def F(S):
            gp, gm = gammas(S)
            return (K / (gp - gm) * np.exp(gp * log_qk)
                    * (gm / (R + S) - (gm - 1.0) / S))

    def f(t):
        if not t > 0:
            raise ValueError("t must be positive")
        sq = sig * math.sqrt(t)
        d_plus = (log_qk + (R + 0.5 * sig * sig) * t) / sq
        d_minus = d_plus - sq
        return Q * _norm_cdf(d_plus) - K * math.exp(-R * t) * _norm_cdf(d_minus)

    return CatalogEntry(
        name="bs_call", f=f,
        transform=Transform(evaluator=F, conjugate_symmetric=True,
                            singularities=(0.0, -R, s_branch),
                            name="bs_call"),
        domain_recipe=lambda t: RealSegment(max(1.0, 2.0 * t)))


def _exp_e1(S):
    """e^s E1(s) at each s of S.  For |s| > 50 the asymptotic series
    (1/s) sum_k (-1)^k k!/s^k, each s summed until its term is below
    2^-53 of its sum; it never forms e^s, which overflows for Re s > 709.
    At |s| > 50 the smallest term, about e^-|s| of the sum, is far below
    that."""
    out = np.empty_like(S)
    near = np.abs(S) <= 50.0
    if near.any():
        import scipy.special
        z = S[near]
        out[near] = np.exp(z) * scipy.special.exp1(z)
    z = S[~near]
    term = total = 1.0 / z
    live = np.abs(term) > 2.0 ** -53 * np.abs(total)
    k = 1
    while live.any():
        # whole-array steps, so that no s's rounding depends on the others
        term = np.where(live, term * (-k / z), term)
        total = np.where(live, total + term, total)
        live &= np.abs(term) > 2.0 ** -53 * np.abs(total)
        k += 1
    out[~near] = total
    return out


def completely_monotone_demo():
    """f(t) = 1/(1+t) = integral exp(-x t) exp(-x) dx; transform e^s E1(s).

    A completely monotone example whose mixing measure exp(-x) dx has
    total mass 1 (relevant for the Laplace-Stieltjes error bound).
    """

    def f(t):
        return 1.0 / (1.0 + t)

    return CatalogEntry(
        name="completely_monotone_demo", f=f,
        transform=Transform(evaluator=_exp_e1, conjugate_symmetric=True,
                            singularities=(0.0,),
                            name="completely_monotone_demo"),
        domain_recipe=lambda t: select_domain("laplace_stieltjes",
                                              L=10.0 * max(1.0, t)))


_BUILDERS = {
    "exp_sum": exp_sum,
    "monomial_exp": monomial_exp,
    "matrix_exp": matrix_exp,
    "triangular_wave": triangular_wave,
    "square_wave": square_wave,
    "bs_call": bs_call,
    "completely_monotone_demo": completely_monotone_demo,
}


def entry(name, params=None):
    """Look up a catalog entry by name with a parameter dict."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown catalog entry {name!r}; "
                         f"known: {sorted(_BUILDERS)}")
    return _BUILDERS[name](**(params or {}))


def parse_kv(blob, complex_ok=False):
    """The CLI's ``k=v,k=a|b,...`` as a dict.  A value is a float, or a
    list of them when it holds '|'; with complex_ok, an item holding j is
    complex.  An item that is not finite raises ValueError."""
    out = {}
    for kv in blob.split(","):
        if "=" not in kv:
            raise ValueError(f"bad key=value pair {kv!r}")
        k, v = kv.split("=", 1)
        items = [complex(p) if complex_ok and ("j" in p or "J" in p)
                 else float(p) for p in v.strip().split("|")]
        if not all(map(cmath.isfinite, items)):
            raise ValueError(f"value not finite in {kv!r}")
        out[k.strip()] = items if len(items) > 1 else items[0]
    return out


def parse_transform(text):
    """CLI grammar builtin:name[:k=v,k=v,...]; list values use '|'.

    Examples: ``builtin:exp_sum:c=1,a=-1``,
    ``builtin:bs_call:q_price=80,strike=100,rate=0.05,sigma=0.1``,
    ``builtin:exp_sum:c=1|1,a=-1|-2``.  ``matrix_exp`` takes array
    arguments and is available through the library API only.
    """
    parts = text.split(":")
    if parts[0] != "builtin" or len(parts) < 2:
        raise ValueError(f"bad transform spec {text!r}: expected "
                         "builtin:name[:k=v,...]")
    name = parts[1]
    params = (parse_kv(":".join(parts[2:]), complex_ok=True)
              if len(parts) > 2 else {})
    if name == "matrix_exp":
        raise ValueError("matrix_exp needs array arguments; use the "
                         "library API")
    try:
        return entry(name, params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for {name!r}: {exc}") from None
