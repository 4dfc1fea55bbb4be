import cmath
import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

import cmath_reference as ref
from awilt.catalog import (bs_call, completely_monotone_demo, entry, exp_sum,
                           matrix_exp, monomial_exp, parse_kv, parse_transform,
                           square_wave, triangular_wave)
from awilt.domains import (ImagSegment, RealSegment, Rectangle, contains,
                           fov_hermitian_bound)
from awilt.invert import invert_curve
from awilt.methods import talbot_method
from awilt.numerics import U


def _nudge(t):
    """Move t off exact jump/kink abscissas (where f may be undefined)."""
    if abs(t - round(t)) < 3e-9:
        return t + 3e-9
    return t


def _transform_by_quadrature(e, s, upper=60.0):
    """Independent oracle: numerically integrate e^{-st} f(t)."""

    def real_part(t):
        return math.exp(-s * t) * float(np.real(e.f(_nudge(t))))

    total = 0.0
    # integrate in unit chunks so integer jump points are interval ends
    t0 = 0.0
    while t0 < upper:
        t1 = min(t0 + 1.0, upper)
        val, _ = scipy.integrate.quad(real_part, t0 + 1e-12, t1 - 1e-12,
                                      limit=200)
        total += val
        t0 = t1
    return total


@pytest.mark.parametrize("e", [
    exp_sum([1.0], [-1.0]),
    exp_sum([1.0, 0.5], [-1.0, -3.0]),
    monomial_exp(2, -1.0),
    triangular_wave(),
    square_wave(),
    completely_monotone_demo(),
])
@pytest.mark.parametrize("s", [0.7, 1.0, 2.3])
def test_transform_matches_quadrature(e, s):
    got = complex(e.transform(complex(s)))
    want = _transform_by_quadrature(e, s)
    assert abs(got.imag) < 1e-12 * max(1.0, abs(got))
    assert got.real == pytest.approx(want, abs=2e-8)


class TestExpSum:
    def test_values(self):
        e = exp_sum([1.0], [-1.0])
        assert e.f(1.0) == pytest.approx(math.exp(-1.0))
        assert e.transform(1.0) == pytest.approx(0.5)
        assert e.transform.singularities == ((-1 + 0j),)

    def test_conjugate_closure_detection(self):
        closed = exp_sum([1.0 + 1.0j, 1.0 - 1.0j], [-1.0 + 2.0j, -1.0 - 2.0j])
        assert closed.transform.conjugate_symmetric
        assert abs(complex(closed.f(0.7)).imag) == 0.0  # value snaps real
        open_ = exp_sum([1.0 + 1.0j], [-1.0 + 2.0j])
        assert not open_.transform.conjugate_symmetric

    def test_complex_ground_truth_stays_complex(self):
        # f(t) = e^{it} is not real, so the value is not snapped
        e = exp_sum(1.0, 1.0j)
        assert not e.transform.conjugate_symmetric
        assert e.f(1.0) == cmath.exp(1.0j)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            exp_sum([1.0, 2.0], [-1.0])

    def test_domain_recipe_covers_scaled_poles(self):
        e = exp_sum([1.0, 1.0], [-1.0 + 2.0j, -1.0 - 2.0j])
        dom = e.domain_recipe(3.0)
        assert isinstance(dom, Rectangle)
        assert contains(dom, complex(-3.0, 6.0))
        assert dom.y_min == -dom.y_max


class TestMonomialExp:
    def test_values(self):
        e = monomial_exp(1, -1.0)  # f = t e^{-t}
        assert e.f(2.0) == pytest.approx(2.0 * math.exp(-2.0))
        assert e.transform(1.0) == pytest.approx(0.25)  # 1/(s+1)^2

    def test_b_validation(self):
        for b in (-1, 2.5, -0.5, 171):
            with pytest.raises(ValueError, match=f"not b={b!r}$"):
                monomial_exp(b, -1.0)


class TestMatrixExp:
    def test_resolvent_matches_expm(self):
        Q = np.array([[-2.0, 2.0], [0.5, -0.5]])
        v = np.array([1.0, 0.0])
        u = np.array([0.0, 1.0])
        e = matrix_exp(v, Q, u)
        import scipy.linalg
        want = float(v @ scipy.linalg.expm(1.5 * Q) @ u)
        assert e.f(1.5) == pytest.approx(want, rel=1e-12)
        # transform at a right-half-plane point vs explicit resolvent
        s = 1.0 + 1.0j
        want_F = complex(v @ np.linalg.inv(s * np.eye(2) - Q) @ u)
        assert e.transform(s) == pytest.approx(want_F)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            matrix_exp(np.ones(2), -np.eye(3), np.ones(3))

    def test_domain_recipe_is_the_hermitian_box_of_tq(self):
        Q = np.array([[-2.0, 2.0], [0.5, -0.5]])
        e = matrix_exp(np.ones(2), Q, np.ones(2))
        assert e.domain_recipe(1.5) == fov_hermitian_bound(1.5 * Q)


class TestWaves:
    def test_triangular_values(self):
        e = triangular_wave()
        assert e.f(0.25) == pytest.approx(0.25)
        assert e.f(1.25) == pytest.approx(0.75)  # descending segment
        assert e.f(2.25) == pytest.approx(0.25)  # period 2

    def test_triangular_kink_flagged(self):
        e = triangular_wave()
        assert e.f(1.0) == 1.0  # the value itself is defined at kinks

    def test_square_values_and_jumps(self):
        e = square_wave()
        assert e.f(0.5) == 0.0 and e.f(1.5) == 1.0 and e.f(2.5) == 0.0
        for t in (1.0, 3.0 - 1e-10):
            with pytest.raises(ValueError):
                e.f(t)

    def test_square_transform_exact_point(self):
        # F(1) = 1/(1 + e) exactly
        e = square_wave()
        got = complex(e.transform(1.0 + 0j))
        assert got.real == pytest.approx(1.0 / (1.0 + math.e), rel=1e-15)
        assert got.imag == 0.0

    def test_transforms_stable_at_large_real_part(self):
        # small t puts beta/t far into the right half-plane; the tanh
        # forms must not overflow there
        for e in (triangular_wave(), square_wave()):
            val = complex(e.transform(800.0 + 10.0j))
            assert np.isfinite(val.real) and np.isfinite(val.imag)

    def test_singularities_on_imaginary_axis(self):
        e = square_wave()
        sing = set(e.transform.singularities)
        assert 0.0 in sing
        assert 1j * math.pi in sing and -1j * math.pi in sing

    def test_domain_recipe(self):
        assert triangular_wave().domain_recipe(1.0) == ImagSegment(80.0)


class TestBSCall:
    def test_price_limits(self):
        e = bs_call(80.0, 100.0, 0.05, 0.1)
        # deep out-of-the-money at tiny t, approaches Q - K e^{-Rt} for large t
        assert e.f(1e-4) < 1e-10
        big = e.f(200.0)
        assert big == pytest.approx(80.0 - 100.0 * math.exp(-0.05 * 200.0),
                                    abs=1e-6)

    def test_transform_against_quadrature(self):
        e = bs_call(80.0, 100.0, 0.05, 0.1)
        for s in (0.5, 1.0):
            val, _ = scipy.integrate.quad(
                lambda t: math.exp(-s * t) * e.f(t), 1e-12, 400.0, limit=400)
            assert complex(e.transform(complex(s))).real == pytest.approx(
                val, rel=1e-8)

    def test_in_the_money_branch(self):
        e = bs_call(120.0, 100.0, 0.05, 0.2)
        for s in (0.7, 1.3):
            val, _ = scipy.integrate.quad(
                lambda t: math.exp(-s * t) * e.f(t), 1e-12, 300.0, limit=400)
            assert complex(e.transform(complex(s))).real == pytest.approx(
                val, rel=1e-8)

    def test_conjugate_symmetry_numeric(self):
        e = bs_call(80.0, 100.0, 0.05, 0.1)
        s = 0.3 + 2.0j
        assert complex(e.transform(np.conj(s))) == pytest.approx(
            complex(e.transform(s)).conjugate())

    def test_singularities(self):
        R, sig = 0.05, 0.1
        e = bs_call(80.0, 100.0, R, sig)
        m = R - 0.5 * sig * sig
        want_branch = -R - m * m / (2 * sig * sig)
        assert e.transform.singularities == (0.0, -R, want_branch)

    def test_validation(self):
        with pytest.raises(ValueError):
            bs_call(-1.0, 100.0, 0.05, 0.1)
        with pytest.raises(ValueError):
            bs_call(80.0, 100.0, 0.05, 0.0)
        e = bs_call(80.0, 100.0, 0.05, 0.1)
        with pytest.raises(ValueError):
            e.f(0.0)


class TestCompletelyMonotone:
    def test_values(self):
        e = completely_monotone_demo()
        assert e.f(1.0) == 0.5
        # E1(1) * e = 0.5963473623...
        assert complex(e.transform(1.0 + 0j)).real == pytest.approx(
            math.e * 0.21938393439552026, rel=1e-12)

    @given(st.one_of(st.floats(0.5, 50.0), st.floats(50.0, 1e5)),
           st.floats(-math.pi, math.pi))
    @settings(max_examples=300, deadline=None)
    def test_transform_matches_mpmath(self, r, phi):
        # |s| > 50 takes the asymptotic series; |s| <= 50 scipy's exp1,
        # which is off by up to about 1e-12 near |s| = 5
        s = cmath.rect(r, phi)
        with mpmath.workdps(40):
            want = complex(mpmath.exp(s) * mpmath.e1(s))
        got = completely_monotone_demo().transform(s)
        tol = 4e-15 if abs(s) > 50.0 else 1e-11
        assert abs(got - want) <= tol * abs(want)

    @pytest.mark.parametrize("t", [1e-3, 0.5, 1.0, 2.5, 1e4])
    def test_domain_recipe_is_the_laplace_stieltjes_segment(self, t):
        # select_domain's laplace_stieltjes segment, L = 10 max(1, t)
        e = completely_monotone_demo()
        assert e.domain_recipe(t) == RealSegment(10.0 * max(1.0, t))

    def test_talbot_small_t(self):
        # beta/t reaches Re s > 709 here, where e^s alone overflows
        e = completely_monotone_demo()
        ts = np.linspace(0.001, 0.2, 50)
        points = invert_curve(talbot_method(20), e.transform, ts)
        assert all(p.error is None for p in points)
        assert max(abs(p.value - e.f(p.t)) for p in points) <= 1e-12


class TestRegistry:
    def test_entry_lookup(self):
        e = entry("exp_sum", {"c": [1.0], "a": [-1.0]})
        assert e.name == "exp_sum"
        with pytest.raises(ValueError):
            entry("nope")

    def test_parse_simple(self):
        e = parse_transform("builtin:exp_sum:c=1,a=-1")
        assert e.transform(1.0) == pytest.approx(0.5)

    def test_parse_lists_and_complex(self):
        e = parse_transform("builtin:exp_sum:c=1|1,a=-1+2j|-1-2j")
        assert e.transform.conjugate_symmetric

    def test_parse_no_params(self):
        e = parse_transform("builtin:square_wave")
        assert e.name == "square_wave"

    def test_parse_kv(self):
        assert parse_kv(" c = 1|2 ,a=-1") == {"c": [1.0, 2.0], "a": -1.0}
        got = parse_kv("a=-1+2j|3", complex_ok=True)["a"]
        assert got == [-1 + 2j, 3.0] and type(got[1]) is float
        with pytest.raises(ValueError, match="could not convert"):
            parse_kv("a=-1+2j")
        for blob in ("a=nan", "a=1|-inf", "a=infj"):
            with pytest.raises(ValueError) as exc:
                parse_kv(blob, complex_ok=True)
            assert str(exc.value) == f"value not finite in {blob!r}"
        with pytest.raises(ValueError, match=r"^bad key=value pair 'c'$"):
            parse_transform("builtin:exp_sum:c")

    @pytest.mark.parametrize("text", [
        "exp_sum:c=1,a=-1",            # missing builtin: prefix
        "builtin:",                    # missing name
        "builtin:nope",                # unknown entry
        "builtin:exp_sum:c",           # malformed k=v
        "builtin:exp_sum:zz=1",        # unknown parameter
        "builtin:matrix_exp:v=1",      # library-API only
    ])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_transform(text)


# -- the numpy forms against the scalar cmath closed forms --------------------

def _polar(r_min, r_max):
    """Complex s with log-uniform |s| in [r_min, r_max], any angle."""
    return st.builds(lambda x, phi: cmath.rect(10.0 ** x, phi),
                     st.floats(math.log10(r_min), math.log10(r_max)),
                     st.floats(-math.pi, math.pi))


_S = st.one_of(_polar(1e-2, 1e4),
               st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                  allow_infinity=False))


def _assert_matches(e, oracle, ss, ulps=8.0, cond=lambda s: 1.0):
    """The entry's numpy form, on ss as one 2-D array, within ulps times
    the summed magnitudes of the oracle's terms (times cond(s), the
    amplification of a rounding inside a term) of the cmath form; and at
    each s alone, the same value bit for bit.  An s that an inversion
    would flag as a collision with a declared singularity is left out."""
    sing = e.transform.singularities
    ss = [s for s in ss
          if all(abs(s - s0) > 1e-10 * max(1.0, abs(s0)) for s0 in sing)]
    S = np.array(ss, dtype=complex).reshape(1, -1)
    got = e.transform.at_rows(S)[0]
    for s, g in zip(ss, got):
        try:
            want, terms = oracle(s)
        except (ZeroDivisionError, OverflowError):
            continue  # past the range of binary64
        if not cmath.isfinite(want):
            continue
        tol = ulps * U * sum(abs(x) for x in terms) * cond(s)
        assert abs(g - want) <= tol, s
        assert e.transform(s) == g, s


class TestNumpyForms:
    @given(st.lists(st.tuples(_S.filter(lambda z: abs(z) > 0),
                              _polar(1e-2, 1e2)), min_size=1, max_size=4),
           st.lists(_S, min_size=1, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_exp_sum(self, ca, ss):
        c, a = zip(*ca)
        _assert_matches(exp_sum(c, a), lambda s: ref.exp_sum(c, a, s), ss)

    @given(st.integers(0, 10), _polar(1e-2, 1e2),
           st.lists(_S, min_size=1, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_monomial_exp(self, b, a, ss):
        # (s - a)^(b+1) by b or so roundings of products
        _assert_matches(monomial_exp(b, a),
                        lambda s: ref.monomial_exp(b, a, s), ss,
                        ulps=4.0 * (b + 2))

    @given(st.sampled_from(["triangular_wave", "square_wave"]),
           st.lists(st.one_of(
               _S,
               # large |Re s|: tanh(s/2) saturates, e^s would overflow
               st.builds(complex, st.floats(-2e3, 2e3), st.floats(-2e3, 2e3)),
               # next to the poles i pi (2k + 1)
               st.builds(lambda k, d: 1j * math.pi * (2 * k + 1) + d,
                         st.integers(-40, 39), _polar(1e-7, 1.0))),
               min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_waves(self, name, ss):
        _assert_matches(entry(name), getattr(ref, name), ss)

    @given(st.floats(20.0, 200.0), st.floats(50.0, 150.0),
           st.floats(0.0, 0.1), st.floats(0.05, 0.5),
           st.lists(_S, min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_bs_call(self, q, k, r, sig, ss):
        # both branches: Q >= K and Q < K.  g+- = (-m +- root) / sigma^2
        # carry roundings of |m| + |root|, which g+ - g- (~ root) and
        # exp(g log(Q/K)) amplify
        m = r - 0.5 * sig * sig
        log_qk = math.log(q / k)

        def cond(s):
            root = abs(cmath.sqrt(m * m + 2.0 * sig * sig * (r + s)))
            return 1.0 + (abs(m) + root) * (1.0 / root
                                            + abs(log_qk) / sig ** 2)

        _assert_matches(bs_call(q, k, r, sig),
                        lambda s: ref.bs_call(q, k, r, sig, s), ss,
                        cond=cond)

    @given(st.lists(st.one_of(_polar(1e-2, 1e5),
                              # both sides of the |s| = 50 switch
                              _polar(49.0, 51.0)),
                    min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_completely_monotone_demo(self, ss):
        _assert_matches(completely_monotone_demo(), ref.exp_e1, ss)
