import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from awilt.domains import (Disc, ImagSegment, RealSegment, Rectangle,
                           contains, discretize, distance_to,
                           domain_from_json, domain_scale, domain_to_json,
                           format_domain, fov_circle_bound,
                           fov_hermitian_bound, fov_rectangle_bound,
                           parse_domain, select_domain)
from awilt.queueing import make_experiment_model

import domain_reference


def _random_generator(rng, d):
    """Random CTMC generator with uniformization rate <= 1."""
    R = rng.uniform(0.0, 1.0, size=(d, d))
    np.fill_diagonal(R, 0.0)
    R = R / max(R.sum(axis=1).max(), 1.0)
    Q = R.copy()
    np.fill_diagonal(Q, -R.sum(axis=1))
    return Q


def _numerical_range_samples(A, n=400, seed=0):
    rng = np.random.default_rng(seed)
    d = A.shape[0]
    v = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    v = v / np.linalg.norm(v, axis=1, keepdims=True)
    return np.einsum("ni,ij,nj->n", v.conj(), A, v)


class TestGeometry:
    def test_distance_disc(self):
        d = Disc(complex(-2.0), 1.0)
        assert distance_to(d, -2.0 + 0.5j) == 0.0
        assert distance_to(d, 0.0 + 0.0j) == pytest.approx(1.0)
        assert contains(d, -1.0 + 0j)
        assert not contains(d, -0.9 + 0j)

    def test_distance_real_segment(self):
        d = RealSegment(3.0)
        assert contains(d, -3.0 + 0j) and contains(d, 0.0 + 0j)
        assert distance_to(d, 1.0 + 0j) == pytest.approx(1.0)
        assert distance_to(d, -1.0 + 2.0j) == pytest.approx(2.0)
        assert distance_to(d, -4.0 + 1.0j) == pytest.approx(math.sqrt(2.0))

    def test_distance_imag_segment(self):
        d = ImagSegment(2.0)
        assert contains(d, 2.0j) and contains(d, -2.0j)
        assert distance_to(d, 1.0 + 0j) == pytest.approx(1.0)
        assert distance_to(d, 3.0j) == pytest.approx(1.0)

    def test_distance_rectangle(self):
        d = Rectangle(-2.0, 0.0, -1.0, 1.0)
        assert contains(d, -1.0 + 0.5j)
        assert distance_to(d, 1.0 + 2.0j) == pytest.approx(math.sqrt(2.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            Disc(0.0, 0.0)
        with pytest.raises(ValueError):
            RealSegment(-1.0)
        with pytest.raises(ValueError):
            ImagSegment(0.0)
        with pytest.raises(ValueError):
            Rectangle(1.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            Rectangle(1.0, 1.0, 0.0, 0.0)

    @pytest.mark.parametrize("cls,args,field", [
        (Disc, (complex("nan"), 1.0), "center"),
        (Disc, (complex(1.0, math.inf), 1.0), "center"),
        (Disc, (0j, math.nan), "radius"),
        (Disc, (0j, math.inf), "radius"),
        (RealSegment, (math.inf,), "length"),
        (ImagSegment, (math.nan,), "half_width"),
        (Rectangle, (math.nan, 0.0, -1.0, 1.0), "x_min"),
        (Rectangle, (-1.0, math.inf, -1.0, 1.0), "x_max"),
        (Rectangle, (-1.0, 0.0, -math.inf, 1.0), "y_min"),
        (Rectangle, (-1.0, 0.0, -1.0, math.nan), "y_max"),
    ])
    def test_non_finite_field(self, cls, args, field):
        with pytest.raises(ValueError, match=f"^{field} must be finite, "):
            cls(*args)

    @pytest.mark.parametrize("obj,field", [
        ({"kind": "disc", "center_re": "-1", "center_im": "nan",
          "radius": "1"}, "center"),
        ({"kind": "imag_segment", "half_width": "inf"}, "half_width"),
        ({"kind": "rectangle", "x_min": "-inf", "x_max": "0",
          "y_min": "-1", "y_max": "1"}, "x_min"),
    ])
    def test_non_finite_field_in_json(self, obj, field):
        with pytest.raises(ValueError, match=f"^{field} must be finite, "):
            domain_from_json(obj)

    def test_scale(self):
        assert domain_scale(Disc(complex(-4.0), 4.0)) == 4.0
        assert domain_scale(RealSegment(7.0)) == 7.0
        assert domain_scale(Rectangle(-3.0, 1.0, -2.0, 2.0)) == 3.0


@pytest.mark.parametrize("call", [
    domain_scale, lambda d: distance_to(d, 0j), discretize, domain_to_json,
    format_domain,
], ids=["domain_scale", "distance_to", "discretize", "domain_to_json",
        "format_domain"])
def test_not_a_domain(call):
    with pytest.raises(TypeError, match="not a domain: 'disc:-4:4'"):
        call("disc:-4:4")


class TestDiscretize:
    @pytest.mark.parametrize("dom", [
        Disc(complex(-4.0), 4.0),
        Disc(complex(-0.5), 0.5),
        ImagSegment(8.0),
        Rectangle(-3.0, 0.0, -2.0, 2.0),
        RealSegment(5.0),
    ])
    def test_exact_conjugate_closure(self, dom):
        Z = discretize(dom, 137)
        pts = set(map(complex, Z))
        for z in pts:
            assert z.conjugate() in pts

    def test_points_on_boundary(self):
        dom = Disc(complex(-1.0), 2.0)
        Z = discretize(dom, 64)
        assert np.max(np.abs(np.abs(Z + 1.0) - 2.0)) < 1e-12

    def test_disc_contains_both_real_extremes(self):
        Z = discretize(Disc(complex(-3.0), 2.0), 50)
        pts = set(map(complex, Z))
        assert complex(-1.0) in pts and complex(-5.0) in pts

    def test_minimum_count(self):
        with pytest.raises(ValueError):
            discretize(Disc(0.0, 1.0), 2)

    def test_rectangle_corners_present(self):
        dom = Rectangle(-2.0, 0.0, -1.0, 1.0)
        pts = set(map(complex, discretize(dom, 40)))
        for corner in (-2 - 1j, -2 + 1j, 0 - 1j, 0 + 1j):
            assert complex(corner) in pts

    @given(st.integers(3, 400))
    @settings(max_examples=30, deadline=None)
    def test_disc_closure_any_count(self, n):
        Z = discretize(Disc(complex(-2.0), 1.5), n)
        pts = set(map(complex, Z))
        assert all(z.conjugate() in pts for z in pts)


def _bits(z):
    """The bits of a complex array, so that -0.0 and 0.0 differ."""
    return np.asarray(z, dtype=complex).view(np.uint64)


def _assert_same_points(d, count, reference):
    got, want = discretize(d, count), reference(d, count)
    assert got.shape == want.shape
    np.testing.assert_array_equal(_bits(got), _bits(want))


_radii = st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e)
_signed_zeros = st.sampled_from([0.0, -0.0])


class TestDiscretizeMatchesScalarLoops:
    """discretize's arrays equal the one-point-at-a-time construction of
    `domain_reference` bit for bit, signed zeros included."""

    @given(st.floats(-1e3, 1e3), _signed_zeros, _radii, st.integers(3, 9000))
    @settings(max_examples=60, deadline=None)
    def test_disc_on_axis(self, x, y, radius, count):
        _assert_same_points(Disc(complex(x, y), radius), count,
                            domain_reference.disc_points)

    @given(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3).filter(bool), _radii,
           st.integers(3, 9000))
    @settings(max_examples=40, deadline=None)
    def test_disc_off_axis(self, x, y, radius, count):
        _assert_same_points(Disc(complex(x, y), radius), count,
                            domain_reference.disc_points)

    @pytest.mark.parametrize("r", [0.6, 1.8, 4.0, 7.0, 11.2, 16.8, 22.7,
                                   31.6])
    @pytest.mark.parametrize("count", [1000, 4000])
    def test_preset_discs(self, r, count):
        _assert_same_points(Disc(complex(-r), r), count,
                            domain_reference.disc_points)

    @given(st.floats(-50.0, 0.0), st.one_of(_signed_zeros,
                                             st.floats(-10.0, 10.0)),
           st.floats(0.0, 20.0), st.floats(-20.0, 20.0),
           st.booleans(), st.integers(3, 5000))
    @settings(max_examples=80, deadline=None)
    def test_rectangle(self, x_min, x_max, height, y_min, symmetric, count):
        if symmetric:
            y_min = -height / 2
        y_max = y_min + height
        assume(x_min <= x_max and not (x_min == x_max and y_min == y_max))
        d = Rectangle(x_min, x_max, y_min, y_max)
        _assert_same_points(d, count, domain_reference.rectangle_points)

    @pytest.mark.parametrize("d", [
        Rectangle(-3.0, -0.0, -2.0, 2.0),
        Rectangle(-3.0, 0.0, -0.0, 0.0),
        Rectangle(-3.0, -0.0, 0.0, -0.0),
        Rectangle(-3.0, -0.0, 0.0, 0.0),
        Rectangle(-0.0, 0.0, -2.0, 1.0),
        Rectangle(-1.0, -1.0, -2.0, 3.0),
    ], ids=format_domain)
    @pytest.mark.parametrize("count", [3, 4, 137, 1000])
    def test_rectangle_signed_zeros_and_degenerate_sides(self, d, count):
        _assert_same_points(d, count, domain_reference.rectangle_points)

    @given(st.integers(0, 39), st.integers(3, 4000))
    @settings(max_examples=40, deadline=None)
    def test_field_of_values_rectangles(self, seed, count):
        gen = make_experiment_model(5, 10, seed).gen
        for d in (fov_rectangle_bound(gen.dim, gen.lam),
                  fov_hermitian_bound(gen.Q, generator=True)):
            _assert_same_points(d, count, domain_reference.rectangle_points)


class TestFieldOfValuesBounds:
    def test_circle_bound_formula(self):
        d = fov_circle_bound(4, 2.0)
        assert d.center == complex(-2.0)
        assert d.radius == pytest.approx(4.0)

    def test_rectangle_bound_small_dims(self):
        lam = 1.0
        r2 = fov_rectangle_bound(2, lam)
        assert (r2.x_min, r2.x_max) == pytest.approx(
            (-2.0, 0.5 * (math.sqrt(2) - 1)))
        assert (r2.y_min, r2.y_max) == pytest.approx((-0.5, 0.5))
        r3 = fov_rectangle_bound(3, lam)
        assert r3.x_min == pytest.approx(-(1 + 0.5 * math.sqrt(5)))
        assert r3.y_max == pytest.approx(0.5 * math.sqrt(3))
        r4 = fov_rectangle_bound(4, lam)
        assert (r4.x_min, r4.x_max) == pytest.approx(
            (-(1 + 0.5 * math.sqrt(6)), 0.5))
        assert r4.y_max == pytest.approx(1.0)

    def test_rectangle_bound_large_dim_growth(self):
        r = fov_rectangle_bound(9, 1.0)
        assert r.x_min == pytest.approx(-(1 + 0.5 * math.sqrt(11)))
        assert r.x_max == pytest.approx(0.5 * (3 - 1))
        want = 0.25 * math.sqrt(2) * math.sqrt(9 + math.sqrt(81 - 36 + 12))
        assert r.y_max == pytest.approx(want)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_numerical_range_contained(self, seed, d):
        rng = np.random.default_rng(seed)
        Q = _random_generator(rng, d)
        rect = fov_rectangle_bound(d, 1.0)
        disc = fov_circle_bound(d, 1.0)
        herm = fov_hermitian_bound(Q)
        tol = 1e-9
        for z in _numerical_range_samples(Q, seed=seed % 1000):
            assert distance_to(rect, complex(z)) <= tol
            assert distance_to(disc, complex(z)) <= tol
            assert distance_to(herm, complex(z)) <= tol

    def test_hermitian_bound_real_input_symmetric(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((6, 6))
        r = fov_hermitian_bound(A)
        assert r.y_min == -r.y_max

    def test_hermitian_bound_hermitian_input_thin(self):
        A = np.array([[2.0, 1.0], [1.0, -1.0]])
        r = fov_hermitian_bound(A)
        lo, hi = np.linalg.eigvalsh(A)
        assert r.x_min == pytest.approx(lo)
        assert r.x_max == pytest.approx(hi)
        assert r.y_max - r.y_min < 1e-6  # widened only by the floor

    def test_hermitian_bound_ranges_of_both_parts(self):
        # the real range of a real symmetric A, and the imaginary range of
        # i S for a Hermitian S: both are the eigenvalue ranges
        r = fov_hermitian_bound(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert (r.x_min, r.x_max) == pytest.approx((1.0, 3.0), abs=1e-12)
        S = np.array([[0.0, 1j], [-1j, 0.0]])
        r = fov_hermitian_bound(S)
        assert (r.x_min, r.x_max) == pytest.approx((-1.0, 1.0), abs=1e-12)
        r = fov_hermitian_bound(1j * S)
        assert (r.y_min, r.y_max) == pytest.approx((-1.0, 1.0), abs=1e-12)

    def test_scalar_hermitian_part_is_widened(self):
        # (A + A*)/2 = -I: a zero-width real range, widened by the floor
        # 1e-8 (1 + |x0|) to each side
        r = fov_hermitian_bound(np.array([[-1.0, 1.0], [-1.0, -1.0]]))
        assert (r.x_min, r.x_max) == (-1.0 - 2e-8, -1.0 + 2e-8)
        assert (r.y_min, r.y_max) == pytest.approx((-1.0, 1.0), abs=1e-12)

    def test_generator_clips_to_left_half_plane(self):
        Q = np.array([[-1.0, 1.0], [2.0, -2.0]])
        r = fov_hermitian_bound(Q, generator=True)
        assert r.x_max <= 0.0

    def test_bad_args(self):
        with pytest.raises(ValueError):
            fov_circle_bound(0, 1.0)
        with pytest.raises(ValueError):
            fov_rectangle_bound(1, 1.0)
        with pytest.raises(ValueError):
            fov_rectangle_bound(3, 0.0)


class TestSelectDomain:
    def test_fluid_queue_disc(self):
        d = select_domain("fluid_queue", lam=2.0, t=3.0)
        assert d == Disc(complex(-6.0), 6.0)

    def test_matrix_exponential_paths(self):
        d = select_domain("matrix_exponential", d=5, lam=1.5)
        assert d == fov_rectangle_bound(5, 1.5)
        Q = np.array([[-1.0, 1.0], [0.5, -0.5]])
        d2 = select_domain("matrix_exponential", Q=Q, t=2.0, generator=True)
        assert isinstance(d2, Rectangle) and d2.x_max <= 0.0

    def test_dimension_only_rectangle_scales_with_t(self):
        # e^{tQ} has the numerical range of tQ, whose rate is lam t
        d = select_domain("matrix_exponential", d=5, lam=1.5, t=2.0)
        assert d == fov_rectangle_bound(5, 3.0)
        assert d != select_domain("matrix_exponential", d=5, lam=1.5)

    def test_laplace_stieltjes(self):
        assert select_domain("laplace_stieltjes", L=4.0) == RealSegment(4.0)

    def test_unknown_class(self):
        with pytest.raises(ValueError):
            select_domain("nope")
        with pytest.raises(ValueError,
                           match="^unknown problem class 'generic'$"):
            select_domain("generic")
        with pytest.raises(ValueError):
            select_domain("fluid_queue", lam=1.0)

    @pytest.mark.parametrize("problem_class,kwargs", [
        ("matrix_exponential", {"d": 5}),
        ("laplace_stieltjes", {"L": 0.0}),
    ])
    def test_missing_or_bad_arguments(self, problem_class, kwargs):
        with pytest.raises(ValueError, match=f"{problem_class} needs"):
            select_domain(problem_class, **kwargs)


class TestSerialization:
    @pytest.mark.parametrize("dom", [
        Disc(complex(-4.0, 0.25), 4.0),
        RealSegment(100.0),
        ImagSegment(80.0),
        Rectangle(-3.5, 0.0, -2.25, 2.25),
    ])
    def test_json_round_trip(self, dom):
        assert domain_from_json(domain_to_json(dom)) == dom

    def test_none_round_trip(self):
        assert domain_to_json(None) is None
        assert domain_from_json(None) is None

    @pytest.mark.parametrize("text,dom", [
        ("disc:-4:4", Disc(complex(-4.0), 4.0)),
        ("rseg:100", RealSegment(100.0)),
        ("iseg:80", ImagSegment(80.0)),
        ("rect:-3:0:-2:2", Rectangle(-3.0, 0.0, -2.0, 2.0)),
    ])
    def test_parse_and_format(self, text, dom):
        assert parse_domain(text) == dom
        assert parse_domain(format_domain(dom)) == dom

    @pytest.mark.parametrize("text", ["disc:-4", "disc:a:b", "blob:1",
                                      "rect:0:1", "rseg:-3"])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_domain(text)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            domain_from_json({"kind": "blob"})


# -- the text rules against the hand-written forms of each shape ----------

def _outcome(call, *args):
    """repr of the result, which tells signed zeros apart, or the error."""
    try:
        return repr(call(*args))
    except (TypeError, ValueError, KeyError) as exc:
        return type(exc).__name__, str(exc)


_coords = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.floats(-1e3, 1e3))
_lengths = st.one_of(st.sampled_from([1.0, 5e-324]),
                     st.floats(0.0, exclude_min=True, allow_infinity=False))


@st.composite
def _domains(draw):
    shape = draw(st.sampled_from(["disc", "rseg", "iseg", "rect"]))
    if shape == "disc":
        return Disc(complex(draw(_coords), draw(_coords)), draw(_lengths))
    if shape == "rseg":
        return RealSegment(draw(_lengths))
    if shape == "iseg":
        return ImagSegment(draw(_lengths))
    x0, x1 = sorted([draw(_coords), draw(_coords)])
    y0, y1 = sorted([draw(_coords), draw(_coords)])
    assume(x0 != x1 or y0 != y1)
    return Rectangle(x0, x1, y0, y1)


class TestTextRulesMatchReference:
    @given(_domains())
    @settings(max_examples=400, deadline=None)
    def test_json_and_format(self, dom):
        obj = domain_to_json(dom)
        assert obj == domain_reference.domain_to_json(dom)
        assert format_domain(dom) == domain_reference.format_domain(dom)
        records = [obj, {k: v for k, v in obj.items() if k != "center_im"}]
        for rec in records:
            assert (_outcome(domain_from_json, rec)
                    == _outcome(domain_reference.domain_from_json, rec))
        assert repr(domain_from_json(obj)) == repr(dom)

    @given(_domains())
    @settings(max_examples=200, deadline=None)
    def test_parse_the_formatted_spec(self, dom):
        text = format_domain(dom)
        assert (_outcome(parse_domain, text)
                == _outcome(domain_reference.parse_domain, text))

    @given(st.sampled_from(["disc", "rseg", "iseg", "rect", "blob", ""]),
           st.lists(st.one_of(_coords.map(repr),
                              st.sampled_from(["-0", "0", "nan", "inf", "a",
                                               "", " 2 ", "1e400"])),
                    max_size=5))
    @settings(max_examples=400, deadline=None)
    def test_parse_any_spec(self, tag, args):
        text = ":".join([tag, *args])
        assert (_outcome(parse_domain, text)
                == _outcome(domain_reference.parse_domain, text))

    @pytest.mark.parametrize("obj", [
        {"kind": "disc", "center_re": "-0", "radius": "2"},
        {"kind": "disc", "center_re": "1", "center_im": "-0", "radius": "1"},
        {"kind": "rectangle", "x_min": "-0", "x_max": "0", "y_min": "-1",
         "y_max": "1"},
        {"kind": "disc", "radius": "1"},
        {"kind": "real_segment", "length": "-1"},
        {"kind": ["disc"]},
        {},
    ])
    def test_records(self, obj):
        assert (_outcome(domain_from_json, obj)
                == _outcome(domain_reference.domain_from_json, obj))
