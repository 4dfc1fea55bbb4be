"""Complex regions Omega, boundary discretizations, and field-of-values bounds.

Four region shapes are supported: a disc B(c, R), a real segment [-L, 0],
an imaginary segment i[-r, r], and an axis-aligned rectangle.  Every
field of a shape must be finite.  Boundary discretizations of regions
that are symmetric about the real axis are closed under conjugation
*exactly* (points are constructed by mirroring), which downstream code
relies on when pairing conjugate support points.
"""

import cmath
import dataclasses
import math
from dataclasses import dataclass

import numpy as np


class _Shape:
    """The rule of every domain shape: each field must be finite, and the
    field named ``_positive`` (if any) positive.  A ValueError names the
    first field that is not."""
    _positive = None

    def __post_init__(self):
        for name, v in vars(self).items():
            if not cmath.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
        if self._positive and not getattr(self, self._positive) > 0:
            raise ValueError(f"{self._positive} must be positive")


@dataclass(frozen=True)
class Disc(_Shape):
    center: complex
    radius: float
    _positive = "radius"


@dataclass(frozen=True)
class RealSegment(_Shape):
    """The segment [-length, 0] on the real axis."""
    length: float
    _positive = "length"


@dataclass(frozen=True)
class ImagSegment(_Shape):
    """The segment i[-half_width, half_width] on the imaginary axis."""
    half_width: float
    _positive = "half_width"


@dataclass(frozen=True)
class Rectangle(_Shape):
    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        super().__post_init__()
        if self.x_min > self.x_max or self.y_min > self.y_max:
            raise ValueError("empty rectangle")
        if self.x_min == self.x_max and self.y_min == self.y_max:
            raise ValueError("rectangle degenerate in both axes")


def domain_scale(d):
    """Characteristic length used in relative tolerances."""
    if isinstance(d, Disc):
        return max(abs(d.center), d.radius)
    if isinstance(d, RealSegment):
        return d.length
    if isinstance(d, ImagSegment):
        return d.half_width
    if isinstance(d, Rectangle):
        return max(abs(d.x_min), abs(d.x_max), abs(d.y_min), abs(d.y_max))
    raise TypeError(f"not a domain: {d!r}")


def distance_to(d, z):
    """Euclidean distance from z to the closed region (0 if inside)."""
    x, y = z.real, z.imag
    if isinstance(d, Disc):
        return max(0.0, abs(z - d.center) - d.radius)
    if isinstance(d, RealSegment):
        return math.hypot(_interval_dist(x, -d.length, 0.0), y)
    if isinstance(d, ImagSegment):
        return math.hypot(x, _interval_dist(y, -d.half_width, d.half_width))
    if isinstance(d, Rectangle):
        return math.hypot(_interval_dist(x, d.x_min, d.x_max),
                          _interval_dist(y, d.y_min, d.y_max))
    raise TypeError(f"not a domain: {d!r}")


def contains(d, z):
    return distance_to(d, z) == 0.0


def _interval_dist(x, a, b):
    if x < a:
        return a - x
    if x > b:
        return x - b
    return 0.0


def discretize(d, count=1000):
    """Equispaced boundary points, conjugate-closed for symmetric domains.

    Returns the points as a complex array.  ``count`` is the requested
    number of points.  A disc B(c, R) gets c + R e^(2 pi i j/m), j < m,
    with m the count rounded up to even so that both real points c +- R
    are present; the lower half mirrors the upper half when c is real.
    A rectangle gets its edges clockwise from the top-left corner,
    corners included, so its count can differ slightly; a repeated point
    is kept where it first occurs.  The arrays equal the scalar loops of
    ``tests/domain_reference.py`` bit for bit.
    """
    if count < 3:
        raise ValueError("count must be at least 3")
    if isinstance(d, Disc):
        return _disc_points(d, count)
    if isinstance(d, RealSegment):
        return np.linspace(-d.length, 0.0, count).astype(complex)
    if isinstance(d, ImagSegment):
        return 1j * _mirrored_linspace(d.half_width, count)
    if isinstance(d, Rectangle):
        return _rectangle_points(d, count)
    raise TypeError(f"not a domain: {d!r}")


def _disc_points(d, count):
    m = count + (count % 2)
    c, R = d.center, d.radius
    # the angle 2 pi j / m rounded as CPython rounds 2j * math.pi * j / m
    pts = c + R * np.exp(1j * (2.0 * math.pi * np.arange(m) / m))
    pts[0], pts[m // 2] = c + R, c - R
    if c.imag == 0.0:
        pts[m // 2 + 1:] = pts[m // 2 - 1:0:-1].conj()
    return pts


def _mirrored_linspace(r, count):
    """Equispaced points on [-r, r], exactly antisymmetric about 0."""
    ys = np.linspace(-r, r, count)
    return 0.5 * (ys - ys[::-1])


def _rectangle_points(d, count):
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
    edges = [xs + 1j * d.y_max,                  # top edge
             d.x_max + 1j * ys[-2::-1]]          # right edge, down
    if wy > 0:
        edges += [xs[-2::-1] + 1j * d.y_min,     # bottom edge
                  d.x_min + 1j * ys[1:-1]]       # left edge, up
    # Exact conjugate closure for symmetric rectangles: the mirrored y-grid
    # makes top/bottom and the vertical edges mirror images already.
    # Duplicates (the corners of a degenerate side) keep their first
    # occurrence: np.unique's index sort is stable, and it counts -0.0 and
    # 0.0 equal.
    pts = np.concatenate(edges)
    first = np.unique(pts, return_index=True)[1]
    return pts[np.sort(first)]


# -- field-of-values bounds ------------------------------------------------

def fov_circle_bound(d, lam):
    """Disc containing the numerical range of any uniformizable generator."""
    if d < 1 or lam <= 0:
        raise ValueError("need d >= 1 and lam > 0")
    return Disc(center=complex(-lam), radius=lam * math.sqrt(d))


def fov_rectangle_bound(d, lam):
    """Smallest dimension-only rectangle containing the numerical range."""
    if d < 2 or lam <= 0:
        raise ValueError("need d >= 2 and lam > 0")
    if d == 2:
        return Rectangle(-2.0 * lam, 0.5 * lam * (math.sqrt(2) - 1),
                         -0.5 * lam, 0.5 * lam)
    if d == 3:
        h = 0.5 * math.sqrt(3) * lam
        return Rectangle(-(1 + 0.5 * math.sqrt(5)) * lam,
                         0.5 * lam * (math.sqrt(3) - 1), -h, h)
    if d == 4:
        return Rectangle(-(1 + 0.5 * math.sqrt(6)) * lam, 0.5 * lam,
                         -lam, lam)
    h = 0.25 * math.sqrt(2) * lam * math.sqrt(d + math.sqrt(d * d - 4 * d + 12))
    return Rectangle(-(1 + 0.5 * math.sqrt(d + 2)) * lam,
                     0.5 * lam * (math.sqrt(d) - 1), -h, h)


def fov_hermitian_bound(A, generator=False):
    """Rectangle [range of (A+A*)/2] + i[range of (A-A*)/2i].

    Each range is that of the eigenvalues (`np.linalg.eigvalsh`) of the
    Hermitian matrix, re-symmetrised as 0.5 (S + S*) against rounding.
    With ``generator=True`` the caller certifies A is a (sub)generator
    (times a positive scalar), and the real part is clipped to Re <= 0.
    Degenerate axes are widened outward by a small floor so the result is
    always a usable 2-D domain.
    """
    real_input = np.isrealobj(np.asarray(A))
    A = np.asarray(A, dtype=complex)
    X = 0.5 * (A + A.conj().T)
    Y = (A - A.conj().T) / 2j
    x = np.linalg.eigvalsh(0.5 * (X + X.conj().T))
    y = np.linalg.eigvalsh(0.5 * (Y + Y.conj().T))
    x0, x1, y0, y1 = float(x[0]), float(x[-1]), float(y[0]), float(y[-1])
    if real_input:
        # For real A the skew part has an exactly +-paired spectrum; snap
        # the range so downstream discretizations are conjugate-closed.
        ym = max(-y0, y1)
        y0, y1 = -ym, ym
    if generator:
        x1 = min(x1, 0.0)
        x0 = min(x0, x1)
    floor = 1e-8 * (1.0 + abs(x0))
    if x1 - x0 < floor:
        x0, x1 = x0 - floor, x1 + floor
    if y1 - y0 < floor:
        y0, y1 = y0 - floor, y1 + floor
    return Rectangle(x0, x1, y0, y1)


def select_domain(problem_class, *, lam=None, t=None, Q=None, d=None,
                  L=None, generator=False):
    """Omega per problem class.

    fluid_queue: the disc B(-lam t, lam t).  matrix_exponential: the
    Hermitian box of t Q (`fov_hermitian_bound`), or from the dimension d
    and the uniformization rate lam alone `fov_rectangle_bound(d, lam t)`;
    t defaults to 1.  laplace_stieltjes: [-L, 0].  Any other class raises
    ValueError.
    """
    if problem_class == "fluid_queue":
        if lam is None or t is None or lam <= 0 or t <= 0:
            raise ValueError("fluid_queue needs lam > 0 and t > 0")
        rr = lam * t
        return Disc(complex(-rr), rr)
    if problem_class == "matrix_exponential":
        tt = 1.0 if t is None else t
        if Q is not None:
            return fov_hermitian_bound(tt * np.asarray(Q), generator=generator)
        if d is None or lam is None:
            raise ValueError("matrix_exponential needs Q or (d, lam)")
        return fov_rectangle_bound(d, lam * tt)
    if problem_class == "laplace_stieltjes":
        if L is None or L <= 0:
            raise ValueError("laplace_stieltjes needs L > 0")
        return RealSegment(L)
    raise ValueError(f"unknown problem class {problem_class!r}")


# -- serialization ---------------------------------------------------------

def _fmt(x):
    return format(float(x), ".17g")


# Each shape's JSON kind and CLI spec tag, and its dataclass fields in
# order as (name, is complex).  The text functions below read and write
# the fields in that order: a complex field as <name>_re and <name>_im in
# JSON (_im "0" when missing) and as its real part in a spec.
_FORMS = tuple((cls, kind, tag, tuple((f.name, f.type is complex)
                                      for f in dataclasses.fields(cls)))
               for cls, kind, tag in ((Disc, "disc", "disc"),
                                      (RealSegment, "real_segment", "rseg"),
                                      (ImagSegment, "imag_segment", "iseg"),
                                      (Rectangle, "rectangle", "rect")))


def _form(i, key):
    """The (class, kind, tag, fields) entry of `_FORMS` whose item i
    equals key, or None."""
    return next((form for form in _FORMS if form[i] == key), None)


def _form_of(d):
    form = _form(0, type(d))
    if form is None:
        raise TypeError(f"not a domain: {d!r}")
    return form


def domain_to_json(d):
    if d is None:
        return None
    _, kind, _, fields = _form_of(d)
    obj = {"kind": kind}
    for name, is_complex in fields:
        v = getattr(d, name)
        if is_complex:
            obj[name + "_re"], obj[name + "_im"] = _fmt(v.real), _fmt(v.imag)
        else:
            obj[name] = _fmt(v)
    return obj


def domain_from_json(obj):
    if obj is None:
        return None
    form = _form(1, obj.get("kind"))
    if form is None:
        raise ValueError(f"unknown domain kind {obj.get('kind')!r}")
    cls, _, _, fields = form
    return cls(*(complex(float(obj[name + "_re"]),
                         float(obj.get(name + "_im", "0")))
                 if is_complex else float(obj[name])
                 for name, is_complex in fields))


def parse_domain(text):
    """CLI grammar: disc:c_re:R | rseg:L | iseg:r | rect:x0:x1:y0:y1."""
    tag, *args = text.split(":")
    form = _form(2, tag)
    if form is None or len(args) != len(form[3]):
        raise ValueError(f"bad domain spec {text!r}")
    cls, _, _, fields = form
    try:
        return cls(*(complex(float(a)) if is_complex else float(a)
                     for a, (_, is_complex) in zip(args, fields)))
    except ValueError as exc:
        raise ValueError(f"bad domain spec {text!r}: {exc}") from None


def format_domain(d):
    _, _, tag, fields = _form_of(d)
    return tag + "".join(
        f":{getattr(d, name).real if is_complex else getattr(d, name):g}"
        for name, is_complex in fields)
