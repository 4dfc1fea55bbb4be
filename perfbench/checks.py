"""Reference computations made apart from the program under test.

Nothing here imports ``awilt``: method files are parsed from their JSON,
domains from their CLI spec, and every reference value comes from a
closed form, from scipy, or from a bound the paper states in terms of
quantities this module computes itself.
"""

import json
import math

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.special

U = 2.0 ** -52
SQRT2P1 = 1.0 + math.sqrt(2.0)
#: boundary points used to re-measure epsilon (16x the CLI default of 1000)
FINE_COUNT = 16000
#: points evaluated at a time, so that the points x nodes temporaries of
#: the checks stay well below the program's own memory
CHUNK = 1000


def digits(err, scale):
    """Correct decimal digits -log10(err / scale), capped at binary64."""
    return -math.log10(max(err / scale, U))


# -- methods -------------------------------------------------------------------

class Method:
    """Full-form nodes and weights read straight from a parameter file."""

    def __init__(self, obj):
        nodes = [complex(float(o["re"]), float(o["im"])) for o in obj["nodes"]]
        weights = [complex(float(o["re"]), float(o["im"]))
                   for o in obj["weights"]]
        self.name = obj["name"]
        if obj["reduced"]:
            full_b, full_w = [], []
            for b, w, paired in zip(nodes, weights, obj["paired"]):
                if paired:
                    if b.imag == 0.0:
                        raise AssertionError(f"paired entry {b} is real")
                    full_b += [b, b.conjugate()]
                    full_w += [0.5 * w, 0.5 * w.conjugate()]
                else:
                    if b.imag != 0.0 or w.imag != 0.0:
                        raise AssertionError(f"unpaired entry {b} not real")
                    full_b.append(b)
                    full_w.append(w)
            nodes, weights = full_b, full_w
        self.nodes = np.array(nodes, dtype=complex)
        self.weights = np.array(weights, dtype=complex)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls(json.load(fh))

    def conjugate_closed(self):
        """Every non-real node has its conjugate, with the conjugate weight."""
        for b, w in zip(self.nodes, self.weights):
            if b.imag == 0.0:
                continue
            k = np.flatnonzero(self.nodes == b.conjugate())
            if k.size != 1 or abs(self.weights[k[0]] - w.conjugate()) > \
                    1e-12 * abs(w):
                return False
        return True

    def rational(self, z):
        """r(z) = sum w / (beta - z) over the full form."""
        z = np.asarray(z, dtype=complex).ravel()
        out = np.empty(z.size, dtype=complex)
        for k in range(0, z.size, CHUNK):
            out[k:k + CHUNK] = (self.weights / (self.nodes
                                                - z[k:k + CHUNK, None])
                                ).sum(axis=1)
        return out

    def max_abs_weight(self):
        return float(np.max(np.abs(self.weights)))

    def eta(self, eps):
        """The paper's floating-point proxy eps + u max|w|."""
        return eps + U * self.max_abs_weight()


# -- domains -------------------------------------------------------------------

class Domain:
    """A region given by its CLI spec: disc, rect, rseg or iseg."""

    def __init__(self, spec):
        kind, *args = spec.split(":")
        vals = [float(a) for a in args]
        if kind == "disc":
            self.kind, self.c, self.R = kind, vals[0], vals[1]
        elif kind == "rect":
            self.kind = kind
            self.x0, self.x1, self.y0, self.y1 = vals
        elif kind == "rseg":
            self.kind, self.x0, self.x1, self.y0, self.y1 = \
                "rect", -vals[0], 0.0, 0.0, 0.0
        elif kind == "iseg":
            self.kind, self.x0, self.x1, self.y0, self.y1 = \
                "rect", 0.0, 0.0, -vals[0], vals[0]
        else:
            raise ValueError(f"unknown domain spec {spec!r}")
        self.spec = spec

    def boundary(self, count=FINE_COUNT):
        if self.kind == "disc":
            th = 2.0 * math.pi * np.arange(count) / count
            return self.c + self.R * np.exp(1j * th)
        wx, wy = self.x1 - self.x0, self.y1 - self.y0
        if wy == 0.0:
            return np.linspace(self.x0, self.x1, count).astype(complex)
        if wx == 0.0:
            return self.x0 + 1j * np.linspace(self.y0, self.y1, count)
        per = 2.0 * (wx + wy)
        s = per * np.arange(count) / count
        out = np.empty(count, dtype=complex)
        for lo, length, start, step in (
                (0.0, wx, complex(self.x0, self.y0), 1.0),
                (wx, wy, complex(self.x1, self.y0), 1j),
                (wx + wy, wx, complex(self.x1, self.y1), -1.0),
                (2 * wx + wy, wy, complex(self.x0, self.y1), -1j)):
            sel = (s >= lo) & (s < lo + length)
            out[sel] = start + step * (s[sel] - lo)
        return np.concatenate([out, [complex(self.x0, self.y0)]])

    def distance(self, z):
        z = np.asarray(z, dtype=complex)
        if self.kind == "disc":
            return np.maximum(0.0, np.abs(z - self.c) - self.R)
        dx = np.maximum(0.0, np.maximum(self.x0 - z.real, z.real - self.x1))
        dy = np.maximum(0.0, np.maximum(self.y0 - z.imag, z.imag - self.y1))
        return np.hypot(dx, dy)

    def contains(self, z):
        return bool(self.distance(np.array([z]))[0] == 0.0)

    def scale(self):
        """Characteristic length, for the node-on-domain test."""
        if self.kind == "disc":
            return max(abs(self.c), self.R)
        return max(abs(self.x0), abs(self.x1), abs(self.y0), abs(self.y1))


def epsilon_on(method, domain, count=FINE_COUNT):
    """(eps, scale): max |e^z - r(z)| on the boundary, and max |e^z| there.

    Every node must lie strictly outside the closed domain, so that the
    maximum principle carries the boundary value to all of Omega.
    """
    if np.any(domain.distance(method.nodes) <= 1e-10 * domain.scale()):
        raise AssertionError(f"{method.name}: node inside {domain.spec}")
    pts = domain.boundary(count)
    ez = np.exp(pts)
    eps = float(np.max(np.abs(ez - method.rational(pts))))
    return eps, float(np.max(np.abs(ez)))


def disc_radius_covering(points):
    """Smallest r with every point in the disc |z + r| <= r."""
    z = np.asarray(points, dtype=complex)
    if np.any(z.real >= 0.0):
        raise ValueError("points must lie in the open left half-plane")
    return float(np.max(np.abs(z) ** 2 / (-2.0 * z.real)))


# -- Dirac approximant ---------------------------------------------------------

_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)


def dirac_l1(method):
    """Integral over (0, inf) of |sum w exp(-beta y)|.

    Brackets the sign changes of the (real) Dirac approximant on a grid,
    refines each root with brentq and integrates every piece between
    roots with 20-point Gauss-Legendre panels; the tail past Y* is below
    1e-16 by the envelope sum |w| exp(-Re(beta) y).
    """
    b, w = method.nodes, method.weights
    rmin = float(b.real.min())
    if rmin <= 0.0:
        raise ValueError("Dirac approximant needs Re(beta) > 0")
    total = float(np.abs(w).sum())
    ystar = math.log(max(total, 1.0) / 1e-16) / rmin

    def g(y):
        y = np.asarray(y, dtype=float).ravel()
        out = np.empty(y.size)
        for k in range(0, y.size, CHUNK):
            out[k:k + CHUNK] = (w * np.exp(-b * y[k:k + CHUNK, None])) \
                .sum(axis=1).real
        return out

    h = min(0.05, 0.25 / float(np.abs(b.imag).max() + 1.0))
    grid = np.linspace(0.0, ystar, int(ystar / h) + 2)
    vals = g(grid)
    cuts = [0.0]
    for k in np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0):
        cuts.append(scipy.optimize.brentq(lambda y: float(g(y)[0]),
                                          grid[k], grid[k + 1], xtol=1e-15))
    cuts.append(ystar)
    total_l1 = 0.0
    for a, c in zip(cuts[:-1], cuts[1:]):
        n = max(1, int(math.ceil((c - a) / 0.05)))
        edges = np.linspace(a, c, n + 1)
        mid = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * (edges[1:] - edges[:-1])
        y = (mid[:, None] + half[:, None] * _GL_X[None, :]).ravel()
        total_l1 += float(np.sum(np.abs(g(y)).reshape(n, -1)
                                 * _GL_W[None, :] * half[:, None]))
    return total_l1


# -- closed forms ----------------------------------------------------------------

def black_scholes(q_price, strike, rate, sigma, t):
    sq = sigma * math.sqrt(t)
    d_plus = (math.log(q_price / strike) + (rate + 0.5 * sigma ** 2) * t) / sq
    return (q_price * scipy.special.ndtr(d_plus)
            - strike * math.exp(-rate * t) * scipy.special.ndtr(d_plus - sq))


def exp_sum(c, a, t):
    return sum(cm * np.exp(am * t) for cm, am in zip(c, a)).real


def triangular_wave(t):
    k = math.floor(t)
    return t - k if k % 2 == 0 else 1.0 - (t - k)


def square_wave(t):
    return float(math.floor(t) % 2)


def jump_distance(t):
    return abs(t - round(t))


def completely_monotone(t):
    return 1.0 / (1.0 + t)


def phase_type(alpha, Q, t):
    """(pdf, cdf) of PH(alpha, Q) at t from scipy.linalg.expm."""
    E = scipy.linalg.expm(t * Q)
    q = -Q.sum(axis=1)
    return float(alpha @ E @ q), 1.0 - float(alpha @ E @ np.ones(len(alpha)))


def fluid_two_state_psi(t):
    """psi(t) = e^-t I_1(t) / t for Q = [[-1, 1], [1, -1]], rates +-1."""
    return float(scipy.special.ive(1, t) / t)


def fluid_two_state_Psi(t):
    """Psi(t) = 1 - e^-t (I_0(t) + I_1(t)), whose derivative is psi(t)."""
    return float(1.0 - scipy.special.ive(0, t) - scipy.special.ive(1, t))


# -- bounds --------------------------------------------------------------------

def numerical_range_rectangle(A):
    """[x0, x1] x [-y, y] containing the field of values of a real matrix."""
    H = 0.5 * (A + A.T)
    S = (A - A.T) / 2j
    x = np.linalg.eigvalsh(H)
    y = np.linalg.eigvalsh(S)
    return float(x[0]), float(x[-1]), float(np.max(np.abs(y)))


def curve_rows(text):
    """(t, value or None) rows from `aw invert --t-grid` CSV output."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != "t,value":
        raise AssertionError("invert output lacks its CSV header")
    rows = []
    for line in lines[1:]:
        t, _, v = line.partition(",")
        rows.append((float(t), float(v) if v else None))
    return rows


def matrix_csv(text):
    """Matrix from `aw fluid --entry all` CSV output."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != "i,j,value":
        raise AssertionError("fluid output lacks its CSV header")
    cells = [line.split(",") for line in lines[1:]]
    n = 1 + max(int(i) for i, _, _ in cells)
    m = 1 + max(int(j) for _, j, _ in cells)
    out = np.full((n, m), np.nan)
    for i, j, v in cells:
        out[int(i), int(j)] = float(v)
    return out
