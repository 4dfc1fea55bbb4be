"""Abate-Whitt methods: the AWMethod type, classical generators, persistence.

An Abate-Whitt method approximates f(t) by sum_n (w_n / t) * Lf(beta_n / t).
Methods are stored either in *full* form (all N nodes listed, non-real ones
in exact conjugate pairs) or in *reduced* form, where each conjugate pair is
collapsed to a single entry with doubled weight and only Re(w' * Lf) is
summed during inversion.  A real node has a real weight in both forms, so
in reduced form an entry stands for a conjugate pair exactly when its node
is not real.
"""

import cmath
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import domains
from .domains import _fmt
from .numerics import DoubleDouble, polynomial_roots


def _is_real(z):
    """|Im z| <= 1e-12 (1 + |Re z|): real up to solver noise."""
    return abs(z.imag) <= 1e-12 * (1.0 + abs(z.real))


@dataclass(frozen=True)
class AWMethod:
    name: str
    weights: tuple
    nodes: tuple
    reduced: bool

    def __post_init__(self):
        w = tuple(complex(x) for x in self.weights)
        b = tuple(complex(x) for x in self.nodes)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "nodes", b)
        if len(w) != len(b) or not w:
            raise ValueError("weights and nodes must be equal-length, nonempty")
        for wi, bi in zip(w, b):
            if bi.imag == 0.0 and wi.imag != 0.0:
                raise ValueError(f"real node {bi.real!r} has a non-real "
                                 f"weight {wi!r}")
        if not self.reduced:
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
    def paired(self):
        """Per-entry conjugate-pair flags of the reduced form (None in full
        form): an entry is paired exactly when its node is not real."""
        if not self.reduced:
            return None
        return tuple(b.imag != 0.0 for b in self.nodes)

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
    return AWMethod(name=f"euler{np_}", weights=weights, nodes=nodes,
                    reduced=True)


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
    return AWMethod(name=f"talbot{np_}", weights=tuple(weights),
                    nodes=tuple(nodes), reduced=True)


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
    return AWMethod(name=f"gaver{np_}", weights=tuple(weights), nodes=nodes,
                    reduced=True)


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
    """Zakian method (full form): poles/residues of the (N-1,N) Pade of e^z.

    The poles are the roots of the binary64-rounded Pade denominator
    (`polynomial_roots`).  The residues -p(r)/q'(r) are evaluated at all
    roots at once by double-double Horner schemes on double-double values
    of the exact rational coefficients, and rounded to binary64."""
    if n < 1:
        raise ValueError("zakian_method needs n >= 1")
    num, den = _pade_exp_coeffs(n)
    roots = polynomial_roots([float(c) for c in den])
    dden = [j * c for j, c in enumerate(den)][1:]
    p, dq = (_horner_dd(cs, roots) for cs in (num, dden))
    nodes, weights = pair_conjugates(roots, (-(p / dq)).to_complex())
    return AWMethod(name=f"zakian{n}", weights=tuple(weights),
                    nodes=tuple(nodes), reduced=False)


def _horner_dd(coeffs, z):
    """sum_k coeffs[k] z^k in double-double for Fraction coefficients."""
    acc = DoubleDouble(np.zeros(len(z), dtype=complex))
    for c in reversed(coeffs):
        hi = float(c)
        acc = acc * z + DoubleDouble(hi, float(c - Fraction(hi)))
    return acc


def pair_conjugates(nodes, weights):
    """Snap near-real entries to real and enforce exact conjugate pairing.

    Input (node, weight) pairs must come from a real-coefficient structure
    so that conjugate partners exist up to solver noise (a partner more
    than 1e-8 (1 + |node|) away raises ValueError); the output lists
    real entries first (ascending by real part) followed by conjugate
    pairs, each pair adjacent with the +Im member first.
    """
    items = sorted(zip(map(complex, nodes), map(complex, weights)),
                   key=lambda p: (p[0].real, abs(p[0].imag), p[0].imag))
    reals, plus, minus = [], [], []
    for z, w in items:
        if _is_real(z):
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
        if abs(zc - z.conjugate()) > 1e-8 * (1.0 + abs(z)):
            raise ValueError("conjugate pairing failed: partner too far")
        zm = 0.5 * (z + zc.conjugate())
        wm = 0.5 * (w + wc.conjugate())
        out_nodes += [zm, zm.conjugate()]
        out_weights += [wm, wm.conjugate()]
    return out_nodes, out_weights


def _snap_real(w):
    return complex(w.real) if _is_real(w) else w


# -- reduced <-> full --------------------------------------------------------

def to_reduced(m):
    """Reduced form of m: each conjugate pair (exact in a full-form AWMethod)
    becomes its +Im entry with doubled weight."""
    if m.reduced:
        return m
    weights, nodes = [], []
    for w, b in zip(m.weights, m.nodes):
        if b.imag >= 0.0:
            weights.append(w if b.imag == 0.0 else 2.0 * w)
            nodes.append(b)
    return AWMethod(name=m.name, weights=tuple(weights), nodes=tuple(nodes),
                    reduced=True)


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
    m = AWMethod(name=obj["name"], weights=weights, nodes=nodes,
                 reduced=bool(obj["reduced"]))
    if m.reduced and obj.get("paired") != list(m.paired):
        raise ValueError(f"paired flags {obj.get('paired')!r} disagree with "
                         "the nodes")
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
