"""Scalar references for the boundary set-up of a TAME build, and the
hand-written text forms of the four domain shapes.

The one-point-at-a-time loops that built disc and rectangle boundaries,
and paired conjugate points, before their numpy forms: `cmath.exp` per
disc point, CPython's ``x + 1j*y`` per rectangle point with an
order-keeping ``set``, and a dict of first indices.  The tests compare
the library's arrays with them bit for bit, signed zeros included.

`domain_to_json`, `domain_from_json`, `parse_domain` and `format_domain`
spell out each shape, as the library did before it read and wrote the
dataclass fields by one rule; the tests compare the two.
"""

import cmath
import math

import numpy as np

from awilt.domains import (Disc, ImagSegment, RealSegment, Rectangle, _fmt,
                           _mirrored_linspace)


def disc_points(d, count):
    m = count + (count % 2)
    c, R = d.center, d.radius
    upper = [c + R * cmath.exp(2j * math.pi * j / m) for j in range(1, m // 2)]
    pts = [c + R] + upper + [c - R]
    if c.imag == 0.0:
        pts += [z.conjugate() for z in reversed(upper)]
    else:
        pts += [c + R * cmath.exp(2j * math.pi * j / m)
                for j in range(m // 2 + 1, m)]
    return np.array(pts, dtype=complex)


def rectangle_points(d, count):
    wx = d.x_max - d.x_min
    wy = d.y_max - d.y_min
    per = 2.0 * (wx + wy)
    nx = max(1, round(count * wx / per)) if wx > 0 else 0
    ny = max(1, round(count * wy / per)) if wy > 0 else 0
    xs = np.linspace(d.x_min, d.x_max, nx + 1) if nx else np.array([d.x_min])
    symmetric = d.y_min == -d.y_max
    if symmetric:
        ys = _mirrored_linspace(d.y_max, ny + 1) if ny else np.array([0.0])
    else:
        ys = np.linspace(d.y_min, d.y_max, ny + 1) if ny else np.array([d.y_min])
    pts = []
    pts.extend(x + 1j * d.y_max for x in xs)              # top edge
    pts.extend(d.x_max + 1j * y for y in ys[-2::-1])      # right edge, down
    if wy > 0:
        pts.extend(x + 1j * d.y_min for x in xs[-2::-1])  # bottom edge
        pts.extend(d.x_min + 1j * y for y in ys[1:-1])    # left edge, up
    seen = set()
    out = []
    for z in pts:
        if z not in seen:
            seen.add(z)
            out.append(z)
    return np.array(out, dtype=complex)


def conjugate_partners(pts):
    """For each point the index of the first point equal to its
    conjugate, or None if some point has no conjugate among them."""
    first_index = {}
    for i, z in enumerate(pts.tolist()):
        first_index.setdefault(z, i)
    partner = [first_index.get(z.conjugate()) for z in pts.tolist()]
    return None if None in partner else partner


def domain_to_json(d):
    if d is None:
        return None
    if isinstance(d, Disc):
        return {"kind": "disc", "center_re": _fmt(d.center.real),
                "center_im": _fmt(d.center.imag), "radius": _fmt(d.radius)}
    if isinstance(d, RealSegment):
        return {"kind": "real_segment", "length": _fmt(d.length)}
    if isinstance(d, ImagSegment):
        return {"kind": "imag_segment", "half_width": _fmt(d.half_width)}
    if isinstance(d, Rectangle):
        return {"kind": "rectangle", "x_min": _fmt(d.x_min),
                "x_max": _fmt(d.x_max), "y_min": _fmt(d.y_min),
                "y_max": _fmt(d.y_max)}
    raise TypeError(f"not a domain: {d!r}")


def domain_from_json(obj):
    if obj is None:
        return None
    kind = obj.get("kind")
    if kind == "disc":
        return Disc(complex(float(obj["center_re"]),
                            float(obj.get("center_im", "0"))),
                    float(obj["radius"]))
    if kind == "real_segment":
        return RealSegment(float(obj["length"]))
    if kind == "imag_segment":
        return ImagSegment(float(obj["half_width"]))
    if kind == "rectangle":
        return Rectangle(float(obj["x_min"]), float(obj["x_max"]),
                         float(obj["y_min"]), float(obj["y_max"]))
    raise ValueError(f"unknown domain kind {kind!r}")


def parse_domain(text):
    parts = text.split(":")
    kind, args = parts[0], parts[1:]
    try:
        if kind == "disc" and len(args) == 2:
            return Disc(complex(float(args[0])), float(args[1]))
        if kind == "rseg" and len(args) == 1:
            return RealSegment(float(args[0]))
        if kind == "iseg" and len(args) == 1:
            return ImagSegment(float(args[0]))
        if kind == "rect" and len(args) == 4:
            return Rectangle(*map(float, args))
    except ValueError as exc:
        raise ValueError(f"bad domain spec {text!r}: {exc}") from None
    raise ValueError(f"bad domain spec {text!r}")


def format_domain(d):
    if isinstance(d, Disc):
        return f"disc:{d.center.real:g}:{d.radius:g}"
    if isinstance(d, RealSegment):
        return f"rseg:{d.length:g}"
    if isinstance(d, ImagSegment):
        return f"iseg:{d.half_width:g}"
    if isinstance(d, Rectangle):
        return f"rect:{d.x_min:g}:{d.x_max:g}:{d.y_min:g}:{d.y_max:g}"
    raise TypeError(f"not a domain: {d!r}")
