import cmath
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awilt.errors import NodeCollisionError, NumericalError
from awilt.invert import (_COLLISION_BLOCK, Transform, _collisions,
                          _scaled_nodes, invert, invert_curve, pointwise)
from awilt.methods import (euler_method, gaver_method, talbot_method, to_full,
                           zakian_method)
from awilt.numerics import U
from awilt.tame import PRESET_ROWS, preset_tame

ONE_OVER_S = Transform(pointwise(lambda s: 1.0 / s),
                       conjugate_symmetric=True, singularities=(0.0,))
EXP_DECAY = Transform(pointwise(lambda s: 1.0 / (s + 1.0)),
                      conjugate_symmetric=True, singularities=(-1.0,))


class TestInvert:
    def test_zakian_one_constant_exact(self):
        # zakian(1) has node = weight = 1, so F(s)=1/s gives exactly 1
        val = invert(zakian_method(1), ONE_OVER_S, 1.0)
        assert val == 1.0 + 0.0j

    def test_gaver2_constant_any_t(self):
        m = gaver_method(2)
        for t in (0.1, 1.0, 7.3, 250.0):
            assert invert(m, ONE_OVER_S, t) == pytest.approx(1.0, abs=8 * U)

    def test_preset_exponential(self):
        m = preset_tame(1.0)
        val = invert(m, EXP_DECAY, 1.0)
        assert abs(val - math.exp(-1.0)) < 1e-11

    def test_full_and_reduced_agree(self):
        m = euler_method(9)
        f = to_full(m)
        a = invert(m, EXP_DECAY, 2.0)
        b = invert(f, EXP_DECAY, 2.0)
        scale = sum(abs(w * EXP_DECAY(bb / 2.0)) for w, bb in
                    zip(f.weights, f.nodes)) / 2.0
        assert abs(b.imag) <= 1e2 * U * scale
        assert abs(a - b.real) <= 1e2 * U * scale

    def test_linearity(self):
        m = talbot_method(8)
        Fa = EXP_DECAY
        Fb = Transform(pointwise(lambda s: 1.0 / (s + 2.0)),
                       conjugate_symmetric=True)
        Fab = Transform(pointwise(lambda s: 3.0 / (s + 1.0) - 0.5 / (s + 2.0)),
                        conjugate_symmetric=True)
        lhs = invert(m, Fab, 1.5)
        rhs = 3.0 * invert(m, Fa, 1.5) - 0.5 * invert(m, Fb, 1.5)
        assert lhs == pytest.approx(rhs, abs=64 * U * max(1.0, abs(rhs)))

    @given(st.floats(0.25, 4.0), st.floats(0.5, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_scaling_law(self, c, t):
        # if g(t) = f(t/c) then Lg(s) = c Lf(cs); the method value obeys
        # the same scaling identically (node/weight structure is t-free)
        m = talbot_method(6)
        F = EXP_DECAY
        G = Transform(pointwise(lambda s: c * F(c * s)),
                      conjugate_symmetric=True)
        a = invert(m, G, t)
        b = invert(m, F, t / c)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    def test_t_must_be_positive(self):
        with pytest.raises(ValueError):
            invert(zakian_method(1), ONE_OVER_S, 0.0)
        with pytest.raises(ValueError):
            invert(zakian_method(1), ONE_OVER_S, -1.0)

    def test_reduced_needs_symmetry_flag(self):
        F = Transform(pointwise(lambda s: 1.0 / s))  # symmetry not declared
        with pytest.raises(ValueError):
            invert(euler_method(3), F, 1.0)
        # full-form methods do not need the flag
        invert(zakian_method(1), F, 1.0)

    def test_node_collision_detected(self):
        # zakian(1) node is 1, so t=|node|/|sing| puts 1/t on s = -1? no:
        # use a singularity placed exactly at node/t
        m = zakian_method(1)
        F = Transform(pointwise(lambda s: 1.0 / (s - 0.5)),
                      singularities=(0.5,))
        with pytest.raises(NodeCollisionError):
            invert(m, F, 2.0)  # node/t = 0.5 hits the pole

    def test_reduced_collision_checks_conjugate(self):
        m = euler_method(3)  # nodes a, a + i pi
        a = m.nodes[0].real
        sing = complex(a, -math.pi)  # conjugate of the second node at t=1
        F = Transform(pointwise(lambda s: 1.0 / (s - sing)),
                      conjugate_symmetric=True, singularities=(sing,))
        with pytest.raises(NodeCollisionError):
            invert(m, F, 1.0)

    def test_matrix_transform(self):
        Q = np.array([[-2.0, 2.0], [1.0, -1.0]])
        I = np.eye(2)
        F = Transform(pointwise(lambda s: np.linalg.inv(s * I - Q)),
                      conjugate_symmetric=True)
        m = preset_tame(2.0)
        got = invert(m, F, 1.0)
        import scipy.linalg
        want = scipy.linalg.expm(Q)
        assert got.shape == (2, 2)
        assert np.linalg.norm(got - want, 2) < 1e-10


class TestInvertCurve:
    def test_values_match_pointwise(self):
        m = talbot_method(8)
        ts = [0.5, 1.0, 2.0]
        pts = invert_curve(m, EXP_DECAY, ts)
        for p, t in zip(pts, ts):
            assert p.error is None
            assert p.value == pytest.approx(invert(m, EXP_DECAY, t))

    def test_error_isolation(self):
        calls = []

        def F(s):
            calls.append(s)
            if abs(s - 1.0) < 1e-6:
                raise ZeroDivisionError("synthetic failure")
            return 1.0 / s

        m = zakian_method(1)  # node 1: fails exactly at t = 1
        pts = invert_curve(m, Transform(pointwise(F)), [0.5, 1.0, 2.0])
        assert pts[0].error is None and pts[2].error is None
        assert pts[1].error is not None and pts[1].value is None

    def test_empty_and_invalid_grids(self):
        m = zakian_method(1)
        with pytest.raises(ValueError):
            invert_curve(m, ONE_OVER_S, [])
        with pytest.raises(ValueError):
            invert_curve(m, ONE_OVER_S, [1.0, -2.0])

    def test_collision_flags_only_its_row(self):
        m = zakian_method(1)  # node 1: 1/t hits the pole 0.5 at t = 2 only
        F = Transform(pointwise(lambda s: 1.0 / (s - 0.5)),
                      singularities=(0.5,))
        pts = invert_curve(m, F, [1.0, 2.0, 4.0])
        assert [p.error is None for p in pts] == [True, False, True]
        assert pts[1].error == ("node (1+0j)/t collides with singularity "
                                "0.5 at t=2.0")

    def test_conjugate_collision_flags_only_its_row(self):
        m = euler_method(3)  # nodes a, a + i pi
        sing = m.nodes[1].conjugate() / 2.0  # conj(node)/t at t = 2
        F = Transform(pointwise(lambda s: 1.0 / (s - sing)),
                      conjugate_symmetric=True, singularities=(sing,))
        pts = invert_curve(m, F, [1.0, 2.0, 3.0])
        assert [p.error is None for p in pts] == [True, False, True]
        assert pts[1].error.startswith(f"node conj({m.nodes[1]})/t collides")

    def test_non_finite_value_is_flagged(self):
        m = zakian_method(1)  # node 1: s = 1 exactly at t = 1
        F = Transform(pointwise(lambda s: math.nan if s == 1.0 else 1.0 / s))
        pts = invert_curve(m, F, [0.5, 1.0, 2.0])
        assert [p.error is None for p in pts] == [True, False, True]
        assert pts[1].value is None and "not finite" in pts[1].error
        with pytest.raises(NumericalError, match="not finite"):
            invert(m, F, 1.0)
        Q = np.array([[-1.0, 1.0], [0.0, -2.0]])
        G = Transform(pointwise(lambda s: np.full((2, 2), math.inf) if s == 1.0
                                else np.linalg.inv(s * np.eye(2) - Q)))
        pts = invert_curve(m, G, [0.5, 1.0, 2.0])
        assert [p.error is None for p in pts] == [True, False, True]


# -- the per-t loop that invert_curve replaced, kept as the reference -------

def _old_check_collisions(m, transform, t):
    sing = transform.singularities
    if not sing:
        return
    for b in m.nodes:
        s = b / t
        for s0 in sing:
            if abs(s - s0) <= 1e-10 * max(1.0, abs(s0)):
                raise NodeCollisionError(
                    f"node {b}/t collides with singularity {s0} at t={t}")
        if m.reduced:
            sc = s.conjugate()
            for s0 in sing:
                if abs(sc - s0) <= 1e-10 * max(1.0, abs(s0)):
                    raise NodeCollisionError(
                        f"node conj({b})/t collides with singularity {s0} "
                        f"at t={t}")


def _old_invert(m, transform, t, cache):
    _old_check_collisions(m, transform, t)
    vals = []
    for b in m.nodes:
        s = complex(b) / t
        key = (s.real, s.imag)
        if key not in cache:
            cache[key] = np.asarray(transform(s))
        vals.append(cache[key])
    w = np.asarray(m.weights)
    if vals[0].ndim == 0:
        terms = w * np.array([complex(v) for v in vals])
        if m.reduced:
            return float(np.sum(terms.real) / t)
        return complex(np.sum(terms) / t)
    stack = np.stack([np.asarray(v, dtype=complex) for v in vals])
    terms = w.reshape((-1,) + (1,) * vals[0].ndim) * stack
    if m.reduced:
        return np.sum(terms.real, axis=0) / t
    return np.sum(terms, axis=0) / t


def _old_curve(m, transform, ts):
    cache = {}
    out = []
    for t in ts:
        try:
            with np.errstate(invalid="ignore"):
                out.append((_old_invert(m, transform, t, cache), None))
        except (NumericalError, FloatingPointError, ZeroDivisionError,
                OverflowError) as exc:
            out.append((None, str(exc)))
    return out


_METHODS = st.one_of(
    st.integers(1, 7).map(lambda k: euler_method(2 * k + 1)),
    st.integers(2, 20).map(talbot_method),
    st.integers(1, 6).map(lambda k: gaver_method(2 * k)),
    st.integers(1, 8).map(zakian_method),
    st.sampled_from([r for r, _ in PRESET_ROWS]).map(preset_tame))

_Q = np.array([[-2.0, 1.5], [0.5, -1.0]])


def _scalar(s):
    if s.real > 40.0:
        raise OverflowError(f"synthetic overflow at {s}")
    if s.imag > 25.0:
        return complex(math.nan, 0.0)
    return 1.0 / (s + 1.0) - 0.5 / (s + 2.0)


def _matrix(s):
    if s.real > 40.0:
        raise ZeroDivisionError(f"synthetic failure at {s}")
    if s.imag > 25.0:
        return np.full((2, 2), math.inf)
    return np.linalg.inv(s * np.eye(2) - _Q)


_TRANSFORMS = {
    "scalar": Transform(pointwise(_scalar), conjugate_symmetric=True,
                        singularities=(-1.0, -2.0)),
    "matrix": Transform(pointwise(_matrix), conjugate_symmetric=True,
                        singularities=tuple(np.linalg.eigvals(_Q))),
}


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


@given(_METHODS, st.booleans(), st.sampled_from(sorted(_TRANSFORMS)),
       st.lists(st.one_of(st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0]),
                          st.floats(0.02, 30.0)), min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_curve_matches_per_t_loop(m, full, kind, ts):
    """invert_curve equals the old per-t loop bit for bit, flags included;
    where that loop returned a non-finite value, the point is flagged."""
    if full:
        m = to_full(m)
    F = _TRANSFORMS[kind]
    got = invert_curve(m, F, ts)
    want = _old_curve(m, F, ts)
    for t, p, (value, error) in zip(ts, got, want):
        assert p.t == t
        if p.error is not None and "not finite" in p.error:
            assert error is None and not np.all(np.isfinite(value))
            continue
        assert p.error == error
        if error is None:
            assert type(p.value) is type(value)
            assert _same_bits(p.value, value)


# -- the collision check: a real-part window against the dense test ---------

def _dense_collisions(m, transform, S, ts, errors):
    """Every scaled node against every singularity, in blocks of rows: the
    collision check before its real-part window."""
    sing = list(transform.singularities)
    if not sing:
        return
    tol = np.array([1e-10 * max(1.0, abs(s0)) for s0 in sing])
    targets = np.asarray(sing, dtype=complex)
    if m.reduced:
        targets = np.concatenate([targets, targets.conjugate()])
        tol = np.concatenate([tol, tol])
    T, N = S.shape
    rows = max(1, _COLLISION_BLOCK // (N * len(targets)))
    for lo in range(0, T, rows):
        near = np.abs(S[lo:lo + rows, :, None] - targets) <= tol
        for i in np.flatnonzero(near.any(axis=(1, 2))):
            r = lo + i
            j = int(np.argmax(near[i].any(axis=1)))
            k = int(np.argmax(near[i, j]))
            b, t = m.nodes[j], ts[r]
            if k < len(sing):
                msg = f"node {b}/t collides with singularity {sing[k]}"
            else:
                msg = (f"node conj({b})/t collides with singularity "
                       f"{sing[k - len(sing)]}")
            errors[r] = NodeCollisionError(f"{msg} at t={t}")


@given(_METHODS, st.booleans(),
       st.lists(st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0]), min_size=1,
                max_size=6),
       st.lists(st.tuples(st.integers(0, 100), st.integers(0, 5),
                          st.sampled_from([0.0, 0.5, 0.999999, 1.0, 1.000001,
                                           2.0, 1e6]),
                          st.floats(-math.pi, math.pi), st.booleans()),
                max_size=12),
       st.lists(st.complex_numbers(max_magnitude=1e3, allow_nan=False),
                max_size=6))
@settings(max_examples=300, deadline=None)
def test_collisions_match_dense_check(m, full, ts, near, far):
    """The windowed check flags the rows of the dense check, with the same
    messages.  Singularities are placed on scaled nodes or their
    conjugates, at 0 to 1e6 collision radii in any direction."""
    if full:
        m = to_full(m)
    S = _scaled_nodes(m, np.array(ts))
    sing = list(far)
    for j, r, radii, phi, conj in near:
        s = S[r % len(ts), j % len(m.nodes)]
        s = s.conjugate() if conj else s
        sing.append(complex(s + radii * 1e-10 * max(1.0, abs(s))
                            * cmath.exp(1j * phi)))
    F = Transform(pointwise(lambda s: 1.0 / s), conjugate_symmetric=True,
                  singularities=tuple(sing))
    got, want = [None] * len(ts), [None] * len(ts)
    _collisions(m, F, S, ts, got)
    _dense_collisions(m, F, S, ts, want)
    assert [e and str(e) for e in got] == [e and str(e) for e in want]


# -- evaluator calls: a numpy form beside the pointwise one -----------------

def _matrix_nodes(S):
    """_matrix on a 2-D array of s: the same values and failures."""
    bad = np.flatnonzero(S.real > 40.0)
    if len(bad):
        raise ZeroDivisionError(
            f"synthetic failure at {complex(S.flat[bad[0]])}")
    values = np.linalg.inv(S[..., None, None] * np.eye(2) - _Q)
    values[S.imag > 25.0] = math.inf
    return values


_MATRIX_NODES = Transform(_matrix_nodes, conjugate_symmetric=True,
                          singularities=tuple(np.linalg.eigvals(_Q)))


@given(_METHODS, st.booleans(),
       st.lists(st.one_of(st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0]),
                          st.floats(0.02, 30.0)), min_size=1, max_size=12))
@settings(max_examples=100, deadline=None)
def test_array_evaluator_matches_scalar_loop(m, full, ts):
    """A numpy evaluator flags the t the pointwise one flags, with the
    same messages, and its values agree to a few ulp of sum |w F|."""
    if full:
        m = to_full(m)
    got = invert_curve(m, _MATRIX_NODES, ts)
    want = invert_curve(m, _TRANSFORMS["matrix"], ts)
    w = np.abs(np.asarray(m.weights))[:, None, None]
    for t, p, q in zip(ts, got, want):
        assert p.error == q.error
        if q.error is None:
            F = np.stack([_matrix(complex(b) / t) for b in m.nodes])
            scale = np.sum(w * np.abs(F), axis=0) / t
            assert np.all(np.abs(p.value - q.value) <= 4 * U * scale)


def test_array_evaluator_failure_flags_only_its_t():
    calls = []

    def recorded(evaluator):
        def record(S):
            calls.append(S.tolist())
            return evaluator(S)
        return record

    def nodes(S):
        if np.any(S == 1.0):
            raise NumericalError("synthetic failure")
        return 1.0 / S

    m = zakian_method(1)  # node 1: s = 1 exactly at t = 1
    F = Transform(recorded(nodes))
    pts = invert_curve(m, F, [0.5, 1.0, 2.0, 1.0])
    assert [p.error for p in pts] == [None, "synthetic failure", None,
                                      "synthetic failure"]
    assert pts[0].value == invert(m, ONE_OVER_S, 0.5)
    # one call with every t, then, as it failed, one call per t
    assert calls == [[[2.0], [1.0], [0.5], [1.0]],
                     [[2.0]], [[1.0]], [[0.5]], [[1.0]]]

    # a function of one s: a row stops at its first s that raises
    def one(s):
        if s.imag > 5.0:
            raise ZeroDivisionError(f"synthetic failure at {s}")
        return 1.0 / s

    calls.clear()
    m = euler_method(3)  # imaginary parts 0, pi and 2 pi
    G = Transform(recorded(pointwise(one)), conjugate_symmetric=True)
    pts = invert_curve(m, G, [2.0, 0.5, 1.5])
    assert [p.error for p in pts] == [
        None, f"synthetic failure at {complex(m.nodes[1]) / 0.5}", None]
    assert pts[2].value == invert(m, ONE_OVER_S, 1.5)
    assert len(calls) == 4 and calls[1:] == [[row] for row in calls[0]]


def test_array_evaluator_calls_in_blocks(monkeypatch):
    shapes = []

    def nodes(S):
        shapes.append(S.shape)
        return _matrix_nodes(S)

    m = talbot_method(6)
    ts = list(np.linspace(0.5, 3.0, 7))
    want = invert_curve(m, Transform(nodes, conjugate_symmetric=True), ts)
    assert shapes == [(7, 6)]
    # at most two rows of 6 s per call: blocks of 2, 2, 2 and 1 rows
    monkeypatch.setattr(sys.modules["awilt.invert"], "_EVAL_BLOCK", 13)
    shapes.clear()
    got = invert_curve(m, Transform(nodes, conjugate_symmetric=True), ts)
    assert shapes == [(2, 6), (2, 6), (2, 6), (1, 6)]
    for p, q in zip(got, want):
        assert p.error is None and p.value.tobytes() == q.value.tobytes()


def test_array_evaluator_value_count_checked():
    F = Transform(lambda S: [1.0], conjugate_symmetric=True)
    m = euler_method(3)
    with pytest.raises(ValueError,
                       match=rf"values of shape \(1,\) for s of shape "
                             rf"\(1, {len(m.nodes)}\)"):
        invert(m, F, 1.0)
