"""Scalar cmath closed forms of the catalog transforms.

The one-s-at-a-time formulas the catalog evaluated before its numpy
forms, with each term of a sum also returned, so that the tests can
compare the numpy forms with them to a few ulp of the summed term
magnitudes.  Each function takes the entry's parameters and one complex
s and returns ``(value, terms)``.
"""

import cmath
import math


def exp_sum(c, a, s):
    terms = [cm / (s - am) for cm, am in zip(c, a)]
    return sum(terms), terms


def monomial_exp(b, a, s):
    value = 1.0 / (s - a) ** (b + 1)
    return value, [value]


def triangular_wave(s):
    value = cmath.tanh(0.5 * s) / (s * s)
    return value, [value]


def square_wave(s):
    t = cmath.tanh(0.5 * s)
    return (1.0 - t) / (2.0 * s), [1.0 / (2.0 * s), t / (2.0 * s)]


def bs_call(q_price, strike, rate, sigma, s):
    Q, K, R, sig = q_price, strike, rate, sigma
    m = R - 0.5 * sig * sig
    log_qk = math.log(Q / K)
    root = cmath.sqrt(m * m + 2.0 * sig * sig * (R + s))
    gp, gm = (-m + root) / (sig * sig), (-m - root) / (sig * sig)
    if Q >= K:
        lead = K / (gp - gm) * cmath.exp(gm * log_qk)
        terms = [lead * gp / (R + s), -lead * (gp - 1.0) / s, Q / s,
                 -K / (R + s)]
        value = (lead * (gp / (R + s) - (gp - 1.0) / s)
                 + Q / s - K / (R + s))
    else:
        lead = K / (gp - gm) * cmath.exp(gp * log_qk)
        terms = [lead * gm / (R + s), -lead * (gm - 1.0) / s]
        value = lead * (gm / (R + s) - (gm - 1.0) / s)
    return value, terms


def exp_e1(s):
    """e^s E1(s); for |s| > 50 the asymptotic series, its terms summed
    until one is below 2^-53 of the sum."""
    s = complex(s)
    if abs(s) <= 50.0:
        import scipy.special
        value = complex(cmath.exp(s) * scipy.special.exp1(s))
        return value, [value]
    term = total = 1.0 / s
    terms = [term]
    k = 1
    while abs(term) > 2.0 ** -53 * abs(total):
        term *= -k / s
        total += term
        terms.append(term)
        k += 1
    return total, terms
