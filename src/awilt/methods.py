"""Abate-Whitt methods: the AWMethod type, classical generators, persistence.

An Abate-Whitt method approximates f(t) by sum_n (w_n / t) * Lf(beta_n / t).
Methods are stored either in *full* form (all N nodes listed, non-real ones
in exact conjugate pairs) or in *reduced* form, where each conjugate pair is
collapsed to a single entry with doubled weight and only Re(w' * Lf) is
summed during inversion.
"""

import cmath
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath
import numpy as np

from . import domains
from .domains import _fmt
from .numerics import EXTENDED_DPS, U, polynomial_roots

#: |Im| <= REAL_SNAP_TOL * (1 + |Re|) counts as real for reduced entries
REAL_SNAP_TOL = 1e2 * U


def _is_real(z, tol=REAL_SNAP_TOL):
    return abs(z.imag) <= tol * (1.0 + abs(z.real))


@dataclass(frozen=True)
class AWMethod:
    name: str
    weights: tuple
    nodes: tuple
    reduced: bool
    paired: tuple = None  # per-entry conjugate-pair flags (reduced form only)

    def __post_init__(self):
        w = tuple(complex(x) for x in self.weights)
        b = tuple(complex(x) for x in self.nodes)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "nodes", b)
        if len(w) != len(b) or not w:
            raise ValueError("weights and nodes must be equal-length, nonempty")
        if self.reduced:
            if self.paired is None or len(self.paired) != len(b):
                raise ValueError("reduced methods need a paired flag per entry")
            object.__setattr__(self, "paired", tuple(bool(p) for p in self.paired))
            for wi, bi, pi in zip(w, b, self.paired):
                if not pi and not (_is_real(bi) and _is_real(wi)):
                    raise ValueError("unpaired reduced entry is not real")
        else:
            object.__setattr__(self, "paired", None)
            conj_pool = {}
            for wi, bi in zip(w, b):
                if bi.imag != 0.0:
                    conj_pool[bi] = wi
            for bi, wi in conj_pool.items():
                partner = conj_pool.get(bi.conjugate())
                if partner is None or partner != wi.conjugate():
                    raise ValueError("non-real node without an exact "
                                     "conjugate partner")
        for i, bi in enumerate(b):
            for bj in b[i + 1:]:
                if bi == bj:
                    raise ValueError("nodes must be pairwise distinct")

    @property
    def n_full(self):
        """Number of nodes in the expanded (full) form."""
        if not self.reduced:
            return len(self.nodes)
        return sum(2 if p else 1 for p in self.paired)

    @property
    def n_entries(self):
        return len(self.nodes)


@dataclass(frozen=True)
class MethodMetadata:
    epsilon: float = None
    max_abs_weight: float = None
    eta: float = None
    domain: object = None


def make_metadata(epsilon, max_abs_weight, domain=None):
    eta = None
    if epsilon is not None and max_abs_weight is not None:
        eta = epsilon + U * max_abs_weight
    return MethodMetadata(epsilon=epsilon, max_abs_weight=max_abs_weight,
                          eta=eta, domain=domain)


# -- classical generators ----------------------------------------------------

def euler_method(n_reduced):
    """Euler-summation method in reduced form (n_reduced odd, >= 3)."""
    np_ = n_reduced
    if np_ < 3 or np_ % 2 == 0:
        raise ValueError("euler_method needs odd n_reduced >= 3")
    a = math.log(10.0) / 6.0 * (np_ - 1)
    half = (np_ - 1) // 2
    xi = [Fraction(1, 2)] + [Fraction(1)] * (half - 1 + 1)  # n = 1 .. (np+1)/2
    # indices (np+3)/2 + j for j = 0 .. (np-3)/2
    acc = Fraction(0)
    pow2 = Fraction(1, 2 ** half)
    for j in range((np_ - 1) // 2):
        acc += math.comb(half, j)
        xi.append(1 - pow2 * acc)
    assert len(xi) == np_
    scale = 10.0 ** ((np_ - 1) / 6.0)
    # sign (-1)^(n-1): with 1-based n this makes the first weight positive,
    # which is required for the method to recover f (check: F(s)=1/s -> 1)
    weights = tuple(scale * (-1) ** (n - 1) * float(xi[n - 1])
                    for n in range(1, np_ + 1))
    nodes = tuple(complex(a, math.pi * (n - 1)) for n in range(1, np_ + 1))
    paired = tuple(n > 1 for n in range(1, np_ + 1))
    return AWMethod(name=f"euler{np_}", weights=weights, nodes=nodes,
                    reduced=True, paired=paired)


def talbot_method(n_reduced):
    """Fixed-Talbot method in reduced form (n_reduced >= 2)."""
    np_ = n_reduced
    if np_ < 2:
        raise ValueError("talbot_method needs n_reduced >= 2")
    b1 = 2.0 * np_ / 5.0
    weights = [cmath.exp(b1) / 5.0]
    nodes = [complex(b1)]
    for n in range(2, np_ + 1):
        theta = (n - 1) * math.pi / np_
        cot = math.cos(theta) / math.sin(theta)
        beta = (2.0 * (n - 1) * math.pi / 5.0) * complex(cot, 1.0)
        w = 0.4 * complex(1.0, theta * (1.0 + cot * cot) - cot) * cmath.exp(beta)
        nodes.append(beta)
        weights.append(w)
    paired = tuple(n > 1 for n in range(1, np_ + 1))
    return AWMethod(name=f"talbot{np_}", weights=tuple(weights),
                    nodes=tuple(nodes), reduced=True, paired=paired)


def gaver_method(n_reduced):
    """Gaver-Stehfest method (all real) in reduced form (n_reduced even)."""
    np_ = n_reduced
    if np_ < 2 or np_ % 2:
        raise ValueError("gaver_method needs even n_reduced >= 2")
    m = np_ // 2
    ln2 = math.log(2.0)
    weights = []
    for n in range(1, np_ + 1):
        acc = Fraction(0)
        for j in range((n + 1) // 2, min(n, m) + 1):
            acc += (Fraction(j ** (m + 1), math.factorial(m))
                    * math.comb(m, j) * math.comb(2 * j, j)
                    * math.comb(j, n - j))
        weights.append((-1) ** (m + n) * ln2 * float(acc))
    nodes = tuple(complex(n * ln2) for n in range(1, np_ + 1))
    paired = (False,) * np_
    return AWMethod(name=f"gaver{np_}", weights=tuple(weights), nodes=nodes,
                    reduced=True, paired=paired)


def _pade_exp_coeffs(n):
    """Ascending coefficients (exact rationals) of the (n-1, n) Pade of e^z."""
    m = n - 1
    num = [Fraction(math.factorial(m + n - j) * math.factorial(m),
                    math.factorial(m + n) * math.factorial(j)
                    * math.factorial(m - j)) for j in range(m + 1)]
    den = [(-1) ** j * Fraction(math.factorial(m + n - j) * math.factorial(n),
                                math.factorial(m + n) * math.factorial(j)
                                * math.factorial(n - j)) for j in range(n + 1)]
    return num, den


def zakian_method(n):
    """Zakian method (full form): poles/residues of the (N-1,N) Pade of e^z."""
    if n < 1:
        raise ValueError("zakian_method needs n >= 1")
    num, den = _pade_exp_coeffs(n)
    roots = polynomial_roots([float(c) for c in den])
    with mpmath.workdps(EXTENDED_DPS):
        num_mp = [mpmath.mpf(c.numerator) / c.denominator for c in num]
        den_mp = [mpmath.mpf(c.numerator) / c.denominator for c in den]
        dden = [j * den_mp[j] for j in range(1, len(den_mp))]
        ws = []
        for r in roots:
            rr = mpmath.mpc(r)
            p = mpmath.polyval(list(reversed(num_mp)), rr)
            dq = mpmath.polyval(list(reversed(dden)), rr)
            ws.append(complex(-p / dq))
    nodes, weights = pair_conjugates(roots, np.array(ws))
    return AWMethod(name=f"zakian{n}", weights=tuple(weights),
                    nodes=tuple(nodes), reduced=False)


def pair_conjugates(nodes, weights, tol=1e-8):
    """Snap near-real entries to real and enforce exact conjugate pairing.

    Input (node, weight) pairs must come from a real-coefficient structure
    so that conjugate partners exist up to solver noise; the output lists
    real entries first (ascending by real part) followed by conjugate
    pairs, each pair adjacent with the +Im member first.
    """
    items = sorted(zip(map(complex, nodes), map(complex, weights)),
                   key=lambda p: (p[0].real, abs(p[0].imag), p[0].imag))
    reals, plus, minus = [], [], []
    for z, w in items:
        if _is_real(z, 1e-12):
            reals.append((complex(z.real), complex(_snap_real(w))))
        elif z.imag > 0:
            plus.append((z, w))
        else:
            minus.append((z, w))
    if len(plus) != len(minus):
        raise ValueError("conjugate pairing failed: unbalanced half-planes")
    out_nodes, out_weights = [z for z, _ in reals], [w for _, w in reals]
    for z, w in plus:
        best = min(range(len(minus)),
                   key=lambda i: abs(minus[i][0] - z.conjugate()))
        zc, wc = minus.pop(best)
        if abs(zc - z.conjugate()) > tol * (1.0 + abs(z)):
            raise ValueError("conjugate pairing failed: partner too far")
        zm = 0.5 * (z + zc.conjugate())
        wm = 0.5 * (w + wc.conjugate())
        out_nodes += [zm, zm.conjugate()]
        out_weights += [wm, wm.conjugate()]
    return out_nodes, out_weights


def _snap_real(w):
    return complex(w.real) if _is_real(w, 1e-12) else w


# -- reduced <-> full --------------------------------------------------------

def to_reduced(m):
    """Reduced form of m: each conjugate pair (exact in a full-form AWMethod)
    becomes its +Im entry with doubled weight."""
    if m.reduced:
        return m
    weights, nodes, paired = [], [], []
    for w, b in zip(m.weights, m.nodes):
        if b.imag == 0.0:
            weights.append(w)
            nodes.append(b)
            paired.append(False)
        elif b.imag > 0:
            weights.append(2.0 * w)
            nodes.append(b)
            paired.append(True)
    return AWMethod(name=m.name, weights=tuple(weights), nodes=tuple(nodes),
                    reduced=True, paired=tuple(paired))


def to_full(m):
    if not m.reduced:
        return m
    weights, nodes = [], []
    for w, b, p in zip(m.weights, m.nodes, m.paired):
        if p:
            half = 0.5 * w
            weights += [half, half.conjugate()]
            nodes += [b, b.conjugate()]
        else:
            weights.append(complex(w.real))
            nodes.append(complex(b.real))
    return AWMethod(name=m.name, weights=tuple(weights), nodes=tuple(nodes),
                    reduced=False)


# -- persistence -------------------------------------------------------------

_SCHEMA = 1


def _scalar_json(z):
    return {"re": _fmt(z.real), "im": _fmt(z.imag)}


def _scalar_from_json(obj):
    return complex(float(obj["re"]), float(obj["im"]))


def method_to_json(m, metadata=None):
    meta = metadata or MethodMetadata()
    return {
        "schema": _SCHEMA,
        "name": m.name,
        "reduced": m.reduced,
        "nodes": [_scalar_json(b) for b in m.nodes],
        "weights": [_scalar_json(w) for w in m.weights],
        "paired": list(m.paired) if m.reduced else [],
        "metadata": {
            "epsilon": None if meta.epsilon is None else _fmt(meta.epsilon),
            "max_abs_weight": (None if meta.max_abs_weight is None
                               else _fmt(meta.max_abs_weight)),
            "eta": None if meta.eta is None else _fmt(meta.eta),
            "domain": domains.domain_to_json(meta.domain),
        },
    }


def method_from_json(obj):
    if obj.get("schema") != _SCHEMA:
        raise ValueError(f"unsupported schema version {obj.get('schema')!r}")
    nodes = tuple(_scalar_from_json(o) for o in obj["nodes"])
    weights = tuple(_scalar_from_json(o) for o in obj["weights"])
    reduced = bool(obj["reduced"])
    m = AWMethod(name=obj["name"], weights=weights, nodes=nodes,
                 reduced=reduced,
                 paired=tuple(obj["paired"]) if reduced else None)
    md = obj.get("metadata") or {}
    meta = MethodMetadata(
        epsilon=None if md.get("epsilon") is None else float(md["epsilon"]),
        max_abs_weight=(None if md.get("max_abs_weight") is None
                        else float(md["max_abs_weight"])),
        eta=None if md.get("eta") is None else float(md["eta"]),
        domain=domains.domain_from_json(md.get("domain")),
    )
    return m, meta


def save_method(path, m, metadata=None):
    with open(path, "w") as fh:
        json.dump(method_to_json(m, metadata), fh, indent=1)
        fh.write("\n")


def load_method(path):
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed parameter file {path}: {exc}") from None
    return method_from_json(obj)
