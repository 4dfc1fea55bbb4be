"""Quality measures and rigorous error bounds for Abate-Whitt methods.

epsilon-accuracy on a domain boundary, Dirac-approximant analysis
(oscillation, L1 norm, shifted second moment), closed-form moments and
the first-order moment estimate, the floating-point error proxy eta, and
the per-class bounds (single exponentials, matrix exponentials,
phase-type, fluid queues, Laplace-Stieltjes, Lipschitz).
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .domains import discretize
from .errors import NumericalError
from .invert import Transform, invert, pointwise
from .methods import MethodMetadata, to_full
from .numerics import DoubleDouble, U

_SQRT2P1 = 1.0 + math.sqrt(2.0)


@dataclass(frozen=True)
class MomentSet:
    mu0: float
    mu1: float
    mu2: float
    nu2: float
    scv: float = None
    mu1_error: float = 0.0   # error bound of mu1 (see `moments`)


def _pole_sum(w, D):
    """sum_n w_n / D[:, n] of each row of D = beta - z (points x nodes)."""
    return (w / D).sum(axis=1)


def rational_approximant(m, z):
    """sum w_n / (beta_n - z) of the full-form method.

    For a scalar z this is :func:`awilt.invert.invert` of F(s) = 1/(s - z)
    at t = 1, each 1/(s - z) divided as CPython divides complex numbers,
    so a z on a node raises ZeroDivisionError.  For an array z it is one
    pass over the points x nodes array beta - z, and a z on a node raises
    ZeroDivisionError naming the first such z.  numpy warns of nothing.
    """
    full = to_full(m)
    zs = np.asarray(z, dtype=complex)
    if zs.ndim == 0:
        zz = complex(zs)
        return invert(full, Transform(pointwise(lambda s: 1.0 / (s - zz))),
                      1.0)
    D = np.asarray(full.nodes) - zs[:, None]
    on_node = (D == 0).any(axis=1)
    if on_node.any():
        raise ZeroDivisionError(
            f"z={complex(zs[on_node.argmax()])} is a node of the method")
    with np.errstate(all="ignore"):
        return _pole_sum(np.asarray(full.weights), D)


def epsilon_accuracy(m, Z):
    """max over the points Z of |e^z - sum w/(beta - z)| (full-form
    evaluation).

    Z is an array of points, as `domains.discretize` returns.  One pass
    over one points x nodes array D = beta - z.  Its smallest |D| gates
    the on-grid check: a node within 1e-13 (1 + |beta|) of a grid point
    raises ValueError, naming the lowest-index such node, before any
    division.  The pole sum then divides the weights by D itself.  An
    empty grid raises ValueError, and a grid point where e^z - r(z) is
    not finite (e^z overflows, say) raises NumericalError naming the
    first such point; the on-grid check comes first.  numpy warns of
    nothing.
    """
    pts = np.asarray(Z, dtype=complex)
    if pts.size == 0:
        raise ValueError("empty evaluation grid")
    full = to_full(m)
    b = np.asarray(full.nodes)
    with np.errstate(all="ignore"):
        D = b - pts[:, None]
        absD = np.abs(D)
        tol = 1e-13 * (1.0 + np.abs(b))
        if absD.min() <= tol.max():
            on_grid = (absD <= tol).any(axis=0)
            if on_grid.any():
                node = full.nodes[int(np.argmax(on_grid))]
                raise ValueError(f"node {node} lies on the evaluation grid")
        err = np.abs(np.exp(pts) - _pole_sum(np.asarray(full.weights), D))
    eps = float(err.max())  # inf or nan where any err is
    if not math.isfinite(eps):
        first = int(np.argmax(~np.isfinite(err)))
        raise NumericalError("e^z - r(z) is not finite at the grid point "
                             f"{complex(pts[first])}")
    return eps


def method_metadata(m, domain, count):
    """The accuracy figures of m on ``count`` points of the domain's
    boundary (`domains.discretize`), as a `MethodMetadata`: epsilon
    (`epsilon_accuracy`), the largest |w| of the full form, and eta
    (`eta_proxy`)."""
    full = to_full(m)
    eps = epsilon_accuracy(full, discretize(domain, count))
    maxw = max(abs(w) for w in full.weights)
    return MethodMetadata(eps, maxw, eta_proxy(eps, maxw), domain)


# -- Dirac approximant -------------------------------------------------------

def _full_right_halfplane(m):
    full = to_full(m)
    w = np.asarray(full.weights)
    b = np.asarray(full.nodes)
    if np.any(b.real <= 0):
        raise ValueError("method has nodes with Re(beta) <= 0; the Dirac "
                         "approximant does not decay")
    return w, b


def _dirac_sum(w, b, ys):
    """delta_hat at each y of the 1-d array ys: sum_n w_n exp(-beta_n y)
    over each row of one points x nodes array, real part."""
    return (w * np.exp(-b * ys[:, None])).sum(axis=1).real


def dirac_eval(m, y):
    """delta_hat(y) = sum w_n exp(-beta_n y); requires Re(beta_n) > 0.

    The full form is conjugate-symmetric with real weights on real nodes,
    so the sum is real up to rounding and its real part is returned.
    Each row of the kernel `_dirac_sum` is summed on its own, so a y gets
    the same bits in an array of any length; `_dirac_quad` relies on it.
    A y where delta_hat is not finite (e^(-beta y) overflows at a negative
    y, say) raises NumericalError naming the first such y; numpy warns of
    nothing.
    """
    w, b = _full_right_halfplane(m)
    ys = np.asarray(y, dtype=float)
    with np.errstate(all="ignore"):
        out = _dirac_sum(w, b, np.atleast_1d(ys))
    if not np.isfinite(out).all():
        bad = float(np.atleast_1d(ys)[np.argmin(np.isfinite(out))])
        raise NumericalError(f"delta_hat is not finite at y={bad!r}")
    return float(out[0]) if ys.ndim == 0 else out


#: QUADPACK dqk21's abscissae on [-1, 1] (Piessens et al., QUADPACK,
#: Springer 1983): the 10-point Gauss ones, then the Kronrod ones.
_DQK21_X = np.array([
    0.973906528517171720077964012084452, 0.865063366688984510732096688423493,
    0.679409568299024406234327365114874, 0.433395394129247190799265943165784,
    0.148874338981631210884826001129720, 0.995657163025808080735527280689003,
    0.930157491355708226001207180059508, 0.780817726586416897063717578345042,
    0.562757134668604683339000099272694, 0.294392862701460198131126603103866])
#: c + h * _DQK21_OFFSETS are the 21 points dqk21 takes on the interval of
#: centre c and half-length h, bit for bit: h (-x) is -(h x), so c + h (-x)
#: is dqk21's c - h x
_DQK21_OFFSETS = np.concatenate(([0.0], -_DQK21_X, _DQK21_X))


class _QuadTable(dict):
    """quad's integrand as a lookup: y -> |delta_hat(y)|, times (y - 1)^2
    if ``shifted``, at the points of the intervals evaluated last.

    ``pending`` maps the first point quad asks for in each evaluation it
    has yet to make, an interval's centre c = 0.5 (lo + hi), to the
    intervals that evaluation covers: (0, Y*) alone, then the two halves
    of an evaluated interval.  A y missing from the table is such a
    centre, whose intervals' 21 points each go through one `_dirac_sum`
    call and replace the table, or a y no interval predicts, which is
    evaluated on its own.
    """

    def __init__(self, w, b, ystar, shifted):
        super().__init__()
        self.w, self.b, self.shifted = w, b, shifted
        self.pending = {0.5 * (0.0 + ystar): ((0.0, ystar),)}

    def _values(self, ys):
        values = np.abs(_dirac_sum(self.w, self.b, ys)).tolist()
        if not self.shifted:
            return values
        return [(y - 1.0) ** 2 * v for y, v in zip(ys.tolist(), values)]

    def __missing__(self, y):
        spans = self.pending.pop(y, None)
        if spans is None:
            return self._values(np.array([y]))[0]
        centres, halves = [], []
        for lo, hi in spans:
            c = 0.5 * (lo + hi)
            centres.append(c)
            halves.append(0.5 * (hi - lo))
            # QAGS bisects at c and evaluates both halves, left first
            self.pending[0.5 * (lo + c)] = ((lo, c), (c, hi))
        ys = (np.array(centres)[:, None]
              + np.array(halves)[:, None] * _DQK21_OFFSETS).ravel()
        self.clear()
        self.update(zip(ys.tolist(), self._values(ys)))
        return self[y]


def _dirac_quad(m, shifted=False):
    """quad of |delta_hat(y)|, times (y - 1)^2 if `shifted`, on (0, Y*]:
    the value and quad's estimate of its absolute error.

    Y* puts the envelope sum |w| exp(-Re(beta) Y*) below 1e-14.  quad
    (QUADPACK QAGS) applies the 21-point rule dqk21 to (0, Y*], then
    bisects an evaluated interval at its centre c = 0.5 (lo + hi) and
    applies dqk21 to both halves, one after the other; dqk21 asks for an
    interval's centre before its other points.  So quad is handed the
    C-level lookup of a `_QuadTable`, which evaluates (0, Y*] when asked
    for its centre, and both halves of a bisection, 42 points in one
    kernel call, when asked for the left half's centre; every later point
    is a dict hit on the exact float y, with no Python call.  A row of the
    kernel does not depend on the other rows, so every value quad sees is
    |dirac_eval(m, y)| (times (y - 1)^2) bit for bit, and a change in
    quad's point order costs speed only.  The closed form between sign
    changes planned in ROADMAP.md deletes this together with quad.
    """
    w, b = _full_right_halfplane(m)
    total = float(np.abs(w).sum())
    ystar = math.log(max(total, 1.0) / 1e-14) / float(b.real.min())
    table = _QuadTable(w, b, ystar, shifted)
    import scipy.integrate
    return scipy.integrate.quad(table.__getitem__, 0.0, ystar, limit=2000,
                                epsabs=1e-12, full_output=1)[:2]


def dirac_l1_estimate(m):
    """(||delta_hat||_1, abserr): the L1 norm of the Dirac approximant on
    (0, infinity), and quad's estimate of its absolute error.

    scipy's quad (QUADPACK QAGS) of |dirac_eval(m, y)| on (0, Y*]; the
    tail beyond Y* is below 1e-14 / min Re(beta).  quad reads the
    integrand from a table (`_dirac_quad`) that evaluates both halves of
    each bisection in one kernel call, with the bits of one dirac_eval
    call per point.  quad is asked for an absolute error of 1e-12 but
    does not always meet it, and then says so in abserr alone, without a
    warning: on the r=7 preset abserr is 3.9e-2, and the norm is 9.4e-5
    relative off the integral.
    """
    return _dirac_quad(m)


def dirac_l1_norm(m):
    """L1 norm of the Dirac approximant on (0, infinity): the norm of
    :func:`dirac_l1_estimate` (no warning), without its error
    estimate."""
    return _dirac_quad(m)[0]


def nu2_tilde(m):
    """Integral of (y-1)^2 |delta_hat(y)| dy, the robust second moment.

    The quadrature of :func:`dirac_l1_estimate`, its integrand times
    (y - 1)^2.  The requested 1e-12 is not always met here either; quad
    does not warn, and its error estimate is not returned.
    """
    return _dirac_quad(m, shifted=True)[0]


# -- moments -----------------------------------------------------------------

def moments(m):
    """Closed-form moments mu_k = integral y^k delta_hat(y) dy.

    The sums of w/beta^k (k = 1, 2, 3) over all nodes are evaluated in
    double-double (`numerics.DoubleDouble`) and rounded to binary64: the
    terms are large and of mixed sign, and the acceptance tolerances sit
    below the binary64 cancellation noise.  The weights are scaled by the
    power of two that brings the largest |w| into [1/2, 1), so that the
    sums keep their low parts, as they do for weights in the normal
    range, and each mu is scaled back and rounded once.  The full form is
    conjugate-symmetric with real weights on real nodes, so the sums are
    real up to rounding.

    The k-th sum, over n nodes, is off the exact one by at most
    2^-104 (2k + ceil(log2 n)) sum |w/beta^k| before its final rounding:
    one division, k products and ceil(log2 n) levels of pairwise
    additions, each a few units of 2^-106.  ``mu1_error`` is that bound
    for mu1 (k = 2).  ``scv`` is None when |mu1| is within it, as when
    mu1 = 0: such a mu1 may be nothing but rounding.
    """
    full = to_full(m)
    if any(b == 0 for b in full.nodes):
        raise ValueError("zero node")
    w = np.array(full.weights, dtype=complex)
    e = math.frexp(float(np.abs(w).max()))[1]
    w.real, w.imag = np.ldexp(w.real, -e), np.ldexp(w.imag, -e)
    inv = 1.0 / DoubleDouble(np.array(full.nodes, dtype=complex))
    terms = [DoubleDouble(w) * inv]
    for _ in range(2):
        terms.append(terms[-1] * inv)
    # mu2 is twice the third sum: its scale 2^(e + 1), in one rounding
    mu0, mu1, mu2 = (_unscaled(t.sum(), e + k)
                     for t, k in zip(terms, (0, 0, 1)))
    nu2 = mu2 - 2.0 * mu1 + mu0
    units = 4 + (len(full.nodes) - 1).bit_length()  # 4 + ceil(log2 n)
    mu1_error = math.ldexp(units * float(np.abs(terms[1].hi).sum()), e - 104)
    scv = None
    if abs(mu1) > mu1_error:
        if 2.0 ** -511 <= abs(mu1) <= 2.0 ** 511:
            scv = mu0 * mu2 / mu1 ** 2 - 1.0
        else:  # mu1^2 would under- or overflow
            scv = (mu0 / mu1) * (mu2 / mu1) - 1.0
    return MomentSet(mu0=mu0, mu1=mu1, mu2=mu2, nu2=nu2, scv=scv,
                     mu1_error=mu1_error)


def _unscaled(x, e):
    """The real part of the double-double scalar x, times 2^e, rounded
    once to binary64 (a subnormal result too; an exact 0 is +0)."""
    parts = (Fraction(float(x.hi.real)), Fraction(float(x.lo.real)))
    return float(sum(parts) * Fraction(2) ** e)


def moment_error_estimate(m, f_value, f_derivative, t):
    """First-order estimate |mu0 - 1||f(t)| + t |f'(t)||mu1 - mu0|."""
    if not t > 0:
        raise ValueError("t must be positive")
    mom = moments(m)
    return (abs(mom.mu0 - 1.0) * abs(f_value)
            + t * abs(f_derivative) * abs(mom.mu1 - mom.mu0))


def moment_error_bound_second_order(m, f_value, f_derivative, f_second_sup, t):
    """Second-order bound: the first-order `moment_error_estimate` (which
    needs t > 0) plus half t^2 ||f''|| nu2~; computed for completeness.

    The half t^2 ||f''|| nu2~ term usually dominates by orders of
    magnitude, making this a very pessimistic bound in practice.
    """
    return (moment_error_estimate(m, f_value, f_derivative, t)
            + 0.5 * t * t * abs(f_second_sup) * nu2_tilde(m))


# -- class-wise bounds -------------------------------------------------------

def bound_se(eps, coeffs):
    """Sum of exponentials: sum |c_m| * eps."""
    return float(sum(abs(complex(c)) for c in coeffs)) * eps


def bound_me(eps, norm_v, norm_u):
    """Matrix exponential entry v* exp(tQ) u: (1+sqrt2) eps ||v|| ||u||."""
    return _SQRT2P1 * eps * norm_v * norm_u


@dataclass(frozen=True)
class PhaseTypeBounds:
    pdf: float
    cdf_dimension: float = None   # needs the dimension d
    cdf_moment: float = None      # needs alpha^T (-Q)^{-1} 1 (the mean)


def bound_phase_type(eps, q_l1, d=None, alpha_Qinv_one=None):
    pdf = _SQRT2P1 * eps * q_l1
    cdf_a = None if d is None else eps + _SQRT2P1 * eps * math.sqrt(d)
    cdf_b = (None if alpha_Qinv_one is None
             else eps + _SQRT2P1 * eps * alpha_Qinv_one * q_l1)
    return PhaseTypeBounds(pdf=pdf, cdf_dimension=cdf_a, cdf_moment=cdf_b)


def bound_fluid(eps, lam, psi_inf_entry):
    """First-return density entry: (1+sqrt2) eps lambda Psi_inf[i,j]."""
    return _SQRT2P1 * eps * lam * psi_inf_entry


def bound_fluid_cdf(eps, lam, F_inf_entry, first_moment):
    """First-return CDF entry: eps F(inf) + (1+sqrt2) eps lambda E[tau]."""
    return eps * F_inf_entry + _SQRT2P1 * eps * lam * first_moment


def bound_ls(eps, eta, mu_total, dirac_l1):
    """Laplace-Stieltjes class: (1 + ||delta_hat||_1) eta + mu(R+) eps."""
    return (1.0 + dirac_l1) * eta + mu_total * eps


def bound_lipschitz(H, L, t, scv):
    """Lipschitz-class bound 3 (2 H L^2 t^2)^(1/3) scv^(1/3), valid for
    methods normalized to mu0 = mu1 = 1."""
    if scv < 0:
        raise ValueError("scv must be nonnegative")
    return 3.0 * (2.0 * H * L * L * t * t) ** (1.0 / 3.0) * scv ** (1.0 / 3.0)


def eta_proxy(eps, max_abs_w):
    """Floating-point-aware error proxy eps + u max|w|, u = 2^-52."""
    return eps + U * max_abs_w
