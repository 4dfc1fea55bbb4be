"""Quality measures and rigorous error bounds for Abate-Whitt methods.

epsilon-accuracy on a domain boundary, Dirac-approximant analysis
(oscillation, L1 norm, shifted second moment), closed-form moments and
the first-order moment estimate, the floating-point error proxy eta, and
the per-class bounds (single exponentials, matrix exponentials,
phase-type, fluid queues, Laplace-Stieltjes, Lipschitz).
"""

import math
from dataclasses import dataclass

import mpmath
import numpy as np
import scipy.integrate

from .domains import Discretization
from .methods import to_full
from .numerics import EXTENDED_DPS, U

_SQRT2P1 = 1.0 + math.sqrt(2.0)


@dataclass(frozen=True)
class MomentSet:
    mu0: float
    mu1: float
    mu2: float
    nu2: float
    nu2_tilde: float = None
    scv: float = None


def rational_approximant(m, z):
    """sum w_n / (beta_n - z) of the full-form method.

    The scalar path multiplies each weight by the reciprocal in exactly
    the same operation order as :func:`awilt.invert.invert`, so that for
    F(s) = 1/(s - z) the two agree bit for bit.
    """
    full = to_full(m)
    zs = np.asarray(z, dtype=complex)
    if zs.ndim == 0:
        zz = complex(zs)
        vals = np.array([1.0 / (complex(b) - zz) for b in full.nodes])
        return complex(np.sum(np.asarray(full.weights) * vals))
    w = np.asarray(full.weights)
    b = np.asarray(full.nodes)
    return (w[None, :] / (b[None, :] - zs[:, None])).sum(axis=1)


def epsilon_accuracy(m, Z):
    """max over Z of |e^z - sum w/(beta - z)| (full-form evaluation)."""
    pts = Z.points if isinstance(Z, Discretization) else np.asarray(Z, complex)
    pts = np.asarray(pts, dtype=complex)
    full = to_full(m)
    for b in full.nodes:
        if np.min(np.abs(pts - b)) <= 1e-13 * (1.0 + abs(b)):
            raise ValueError(f"node {b} lies on the evaluation grid")
    R = rational_approximant(full, pts)
    return float(np.max(np.abs(np.exp(pts) - R)))


# -- Dirac approximant -------------------------------------------------------

def _full_right_halfplane(m):
    full = to_full(m)
    w = np.asarray(full.weights)
    b = np.asarray(full.nodes)
    if np.any(b.real <= 0):
        raise ValueError("method has nodes with Re(beta) <= 0; the Dirac "
                         "approximant does not decay")
    return w, b


def dirac_eval(m, y):
    """delta_hat(y) = sum w_n exp(-beta_n y); requires Re(beta_n) > 0."""
    w, b = _full_right_halfplane(m)
    ys = np.asarray(y, dtype=float)
    scalar = ys.ndim == 0
    pts = np.atleast_1d(ys)
    terms = w[None, :] * np.exp(-b[None, :] * pts[:, None])
    vals = terms.sum(axis=1)
    # the sum cancels heavily near zero crossings, so judge the imaginary
    # residue against the cancellation envelope sum |w| e^(-Re(beta) y)
    envelope = np.abs(terms).sum(axis=1)
    if np.any(np.abs(vals.imag) > 1e-10 * np.maximum(envelope, 1e-300)):
        raise ValueError("imaginary residue of the Dirac approximant "
                         "exceeds tolerance")
    out = vals.real
    return float(out[0]) if scalar else out


def _upper_window(m, floor=1e-14):
    """Y* with the envelope sum |w| exp(-Re(beta) Y*) below `floor`."""
    w, b = _full_right_halfplane(m)
    total = float(np.abs(w).sum())
    rmin = float(b.real.min())
    return math.log(max(total, 1.0) / floor) / rmin, total, rmin


def _dirac_quad(m, integrand):
    ystar, total, rmin = _upper_window(m)
    val, err = scipy.integrate.quad(integrand, 0.0, ystar,
                                    limit=2000, epsabs=1e-12)
    tail = total * math.exp(-rmin * ystar) / rmin
    return val, err + tail


def dirac_l1_norm(m):
    """L1 norm of the Dirac approximant on (0, infinity).

    Quadrature with absolute tolerance 1e-12 on (0, Y*]; the analytic
    tail bound beyond Y* is below 1e-14 by construction of Y*.
    """
    val, _ = _dirac_quad(m, lambda y: abs(dirac_eval(m, y)))
    return val


def nu2_tilde(m):
    """Integral of (y-1)^2 |delta_hat(y)| dy, the robust second moment."""
    val, _ = _dirac_quad(m, lambda y: (y - 1.0) ** 2 * abs(dirac_eval(m, y)))
    return val


# -- moments -----------------------------------------------------------------

def moments(m):
    """Closed-form moments mu_k = integral y^k delta_hat(y) dy.

    Evaluated in extended precision: the terms w/beta^k are large and of
    mixed sign, and the acceptance tolerances sit below the binary64
    cancellation noise.
    """
    full = to_full(m)
    if any(b == 0 for b in full.nodes):
        raise ValueError("zero node")
    with mpmath.workdps(EXTENDED_DPS):
        terms = [(mpmath.mpc(w), mpmath.mpc(b))
                 for w, b in zip(full.weights, full.nodes)]
        mu0 = mpmath.fsum(w / b for w, b in terms)
        mu1 = mpmath.fsum(w / b ** 2 for w, b in terms)
        mu2 = 2 * mpmath.fsum(w / b ** 3 for w, b in terms)
        scale = mpmath.fsum(abs(w / b) for w, b in terms)
        for mu in (mu0, mu1, mu2):
            if abs(mpmath.im(mu)) > 1e-10 * max(1.0, float(scale)):
                raise ValueError("imaginary residue in moments")
        mu0, mu1, mu2 = (float(mpmath.re(x)) for x in (mu0, mu1, mu2))
    nu2 = mu2 - 2.0 * mu1 + mu0
    scv = mu0 * mu2 / mu1 ** 2 - 1.0 if mu1 != 0 else None
    return MomentSet(mu0=mu0, mu1=mu1, mu2=mu2, nu2=nu2, scv=scv)


def moment_error_estimate(m, f_value, f_derivative, t):
    """First-order estimate |mu0 - 1||f(t)| + t |f'(t)||mu1 - mu0|."""
    if not t > 0:
        raise ValueError("t must be positive")
    mom = moments(m)
    return (abs(mom.mu0 - 1.0) * abs(f_value)
            + t * abs(f_derivative) * abs(mom.mu1 - mom.mu0))


def moment_error_bound_second_order(m, f_value, f_derivative, f_second_sup, t):
    """Second-order bound; computed for completeness.

    The half t^2 ||f''|| nu2~ term usually dominates by orders of
    magnitude, making this a very pessimistic bound in practice.
    """
    mom = moments(m)
    return (abs(mom.mu0 - 1.0) * abs(f_value)
            + t * abs(f_derivative) * abs(mom.mu1 - mom.mu0)
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


def bound_lipschitz(H, L, t, scv, method_moments=None):
    """Lipschitz-class bound 3 (2 H L^2 t^2)^(1/3) scv^(1/3).

    Valid for methods normalized to mu0 = mu1 = 1; pass the method's
    MomentSet to have that hypothesis checked.
    """
    if method_moments is not None:
        if (abs(method_moments.mu0 - 1.0) > 1e-10
                or abs(method_moments.mu1 - 1.0) > 1e-10):
            raise ValueError("bound requires mu0 = mu1 = 1 within 1e-10")
    if scv < 0:
        raise ValueError("scv must be nonnegative")
    return 3.0 * (2.0 * H * L * L * t * t) ** (1.0 / 3.0) * scv ** (1.0 / 3.0)


def eta_proxy(eps, max_abs_w):
    """Floating-point-aware error proxy eps + u max|w|, u = 2^-52."""
    return eps + U * max_abs_w
