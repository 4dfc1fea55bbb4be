"""Scalar references for the boundary set-up of a TAME build.

The one-point-at-a-time loops that built disc and rectangle boundaries,
and paired conjugate points, before their numpy forms: `cmath.exp` per
disc point, CPython's ``x + 1j*y`` per rectangle point with an
order-keeping ``set``, and a dict of first indices.  The tests compare
the library's arrays with them bit for bit, signed zeros included.
"""

import cmath
import math

import numpy as np

from awilt.domains import _mirrored_linspace


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
