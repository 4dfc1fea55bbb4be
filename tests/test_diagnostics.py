import math
import types
import warnings

import mpmath
import numpy as np
import pytest
import scipy.integrate
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from awilt import diagnostics
from awilt.diagnostics import (bound_fluid, bound_fluid_cdf,
                               bound_lipschitz, bound_ls, bound_me,
                               bound_phase_type, bound_se, dirac_eval,
                               dirac_l1_estimate, dirac_l1_norm,
                               epsilon_accuracy, eta_proxy, method_metadata,
                               moment_error_bound_second_order,
                               moment_error_estimate, moments, nu2_tilde,
                               rational_approximant)
from awilt.domains import Disc, discretize
from awilt.errors import NumericalError
from awilt.invert import Transform, invert, pointwise
from awilt.methods import (AWMethod, MethodMetadata, euler_method,
                           gaver_method, talbot_method, to_full,
                           zakian_method)
from awilt.numerics import U
from awilt.tame import preset_entry, preset_tame
from epsilon_reference import (epsilon_accuracy_reference,
                               rational_approximant_reference)
from mp_reference import DPS, moment_sums, near_midpoint

SQRT2P1 = 1.0 + math.sqrt(2.0)


class TestEpsilonAccuracy:
    def test_zakian1_closed_form(self):
        m = zakian_method(1)  # r(z) = 1/(1 - z)
        assert epsilon_accuracy(m, np.array([0.0 + 0j])) == 0.0
        want = abs(math.exp(-1.0) - 0.5)
        got = epsilon_accuracy(m, np.array([-1.0 + 0j]))
        assert got == pytest.approx(want, abs=1e-15)
        assert got == pytest.approx(0.13212056, abs=1e-7)

    def test_node_on_grid_rejected(self):
        m = zakian_method(1)
        with pytest.raises(ValueError):
            epsilon_accuracy(m, np.array([1.0 + 0j]))

    def test_names_the_first_node_on_the_grid(self):
        full = to_full(zakian_method(4))
        grid = np.array([full.nodes[3], 0.5, full.nodes[1]])
        with pytest.raises(ValueError) as info:
            epsilon_accuracy(full, grid)
        want = f"node {full.nodes[1]} lies on the evaluation grid"
        assert str(info.value) == want

    def test_matches_invert_bitwise(self):
        # rational_approximant at z equals inverting F(s) = 1/(s - z) at
        # t = 1 with the full-form method, operation for operation
        m = preset_tame(1.0)
        from awilt.methods import to_full
        full = to_full(m)
        for z in (0.0 + 0j, -1.0 + 0.5j, 0.3 - 0.2j):
            F = Transform(pointwise(lambda s, z=z: 1.0 / (s - z)))
            assert rational_approximant(full, z) == invert(full, F, 1.0)

    def test_scalar_on_a_node_raises_as_invert(self):
        full = to_full(zakian_method(2))
        with pytest.raises(ZeroDivisionError):
            rational_approximant(full, full.nodes[0])

    def test_array_on_a_node_raises_without_a_warning(self):
        full = to_full(zakian_method(2))
        z = np.array([0.5, full.nodes[1], full.nodes[0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ZeroDivisionError) as info:
                rational_approximant(full, z)
        assert str(info.value).startswith(f"z={complex(full.nodes[1])} ")

    def test_array_matches_reference_bitwise(self):
        full = to_full(preset_tame(4.0))
        z = discretize(Disc(-4.0, 4.0), 1000)
        assert (rational_approximant(full, z).tobytes()
                == rational_approximant_reference(full, z).tobytes())

    @pytest.mark.filterwarnings("error")
    def test_non_finite_names_the_first_point(self):
        # e^800 overflows; r(z) stays finite
        with pytest.raises(NumericalError) as info:
            epsilon_accuracy(zakian_method(1), np.array([0.5, 800.0, 900.0]))
        assert str(info.value) == ("e^z - r(z) is not finite at the grid "
                                   "point (800+0j)")

    @pytest.mark.filterwarnings("error")
    def test_non_finite_pole_sum(self):
        # a point just outside the on-grid tolerance of a node with a huge
        # weight: w / (beta - z) overflows
        m = AWMethod(name="big", weights=(1e300,), nodes=(1.0,),
                     reduced=False)
        with pytest.raises(NumericalError, match=r"\(1\+3e-13j\)"):
            epsilon_accuracy(m, np.array([0.0, 1.0 + 3e-13j]))

    def test_empty_grid(self):
        with pytest.raises(ValueError) as info:
            epsilon_accuracy(zakian_method(1), np.array([], dtype=complex))
        assert str(info.value) == "empty evaluation grid"

    @pytest.mark.filterwarnings("error")
    def test_on_grid_precedes_non_finite(self):
        full = to_full(zakian_method(2))
        with pytest.raises(ValueError, match="lies on the evaluation grid"):
            epsilon_accuracy(full, np.array([800.0, full.nodes[1]]))

    def test_gate_holds_the_largest_tolerance(self):
        # |beta - z| equals the largest tolerance exactly: on the grid
        b = 30.0
        tol = 1e-13 * (1.0 + b)
        m = AWMethod(name="edge", weights=(1.0, 2.0), nodes=(0.5, b),
                     reduced=False)
        with pytest.raises(ValueError, match="node \\(30\\+0j\\)"):
            epsilon_accuracy(m, np.array([-1.0, complex(b, tol)]))
        assert math.isfinite(epsilon_accuracy(
            m, np.array([-1.0, complex(b, 2.0 * tol)])))


@st.composite
def epsilon_cases(draw):
    """(method, grid): a conjugate-closed full-form method of at most 40
    nodes, and a grid of at most 5000 points in a box of the same scale.
    The grid may hold points on one or two nodes, points just inside or
    just outside the on-grid tolerance 1e-13 (1 + |beta|) of a node, or a
    point at exactly the largest tolerance from an added real node of the
    largest modulus.  A scale of 1000 puts grid points where e^z
    overflows."""
    mode = draw(st.sampled_from(("none", "none", "none", "outside",
                                 "outside", "one", "two", "inside",
                                 "boundary")))
    cap = 40 - (mode == "boundary")
    n_pairs = draw(st.integers(0, cap // 2))
    n_real = draw(st.integers(0 if n_pairs else 1, cap - 2 * n_pairs))
    size = draw(st.integers(1, 5000))
    scale = 10.0 ** draw(st.integers(-2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def weights(n):
        return rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0, n)

    pairs = scale * (rng.uniform(-1.0, 1.0, n_pairs)
                     + 1j * rng.uniform(0.0, 1.0, n_pairs))
    reals = scale * rng.uniform(-1.0, 1.0, n_real)
    wp = weights(n_pairs) + 1j * weights(n_pairs)
    nodes = [*reals, *pairs, *pairs.conj()]
    ws = [*weights(n_real), *wp, *wp.conj()]
    if mode == "boundary":
        nodes.append(float(rng.choice((-1.0, 1.0)))
                     * (2.0 * max(abs(complex(b)) for b in nodes) + 1.0))
        ws.append(float(weights(1)[0]))
    assume(len(set(nodes)) == len(nodes) and all(b.imag for b in pairs))
    m = AWMethod(name="random", weights=ws, nodes=nodes, reduced=False)
    b = np.asarray(m.nodes)
    tol = 1e-13 * (1.0 + np.abs(b))
    pts = scale * (rng.uniform(-1.0, 1.0, size)
                   + 1j * rng.uniform(-1.0, 1.0, size))
    if mode in ("one", "two"):
        k = min(len(b), size, 1 if mode == "one" else 2)
        pts[rng.choice(size, k, replace=False)] = b[rng.choice(len(b), k,
                                                               replace=False)]
    elif mode in ("inside", "outside"):
        n = rng.integers(len(b))
        f = 1.0 - 1e-6 if mode == "inside" else 1.0 + 1e-6
        pts[rng.integers(size)] = (b[n] + tol[n] * f
                                   * np.exp(1j * rng.uniform(0.0, 2 * np.pi)))
    elif mode == "boundary":
        # beta - z = -i tol exactly, so |beta - z| == tol
        pts[rng.integers(size)] = complex(b[-1].real, tol[-1])
    return m, pts


class TestMethodMetadata:
    def test_figures_of_the_full_form(self):
        m = euler_method(9)
        dom = Disc(complex(-1.0), 1.0)
        meta = method_metadata(m, dom, 300)
        eps = epsilon_accuracy(m, discretize(dom, 300))
        maxw = max(abs(w) for w in to_full(m).weights)
        assert meta == MethodMetadata(eps, maxw, eta_proxy(eps, maxw), dom)
        assert maxw < max(abs(w) for w in m.weights)  # halved pairs

    @pytest.mark.parametrize("r", [0.6, 7.0, 31.6])
    def test_reproduces_the_stored_preset_figures(self, r):
        m, meta, _ = preset_entry(r)
        assert method_metadata(m, meta.domain, 4000) == meta


class TestEpsilonMatchesReference:
    """epsilon_accuracy returns the reference's float bit for bit, or
    raises its ValueError with the same message; where the reference's
    value is not finite, it raises NumericalError.  It never warns."""

    @given(epsilon_cases())
    @settings(max_examples=150, deadline=None)
    def test_same_bits(self, case):
        m, pts = case
        with np.errstate(all="ignore"):
            try:
                want = epsilon_accuracy_reference(m, pts)
            except ValueError as exc:
                want = exc
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if isinstance(want, ValueError):
                with pytest.raises(ValueError) as info:
                    epsilon_accuracy(m, pts)
                assert str(info.value) == str(want)
            elif math.isfinite(want):
                assert epsilon_accuracy(m, pts).hex() == want.hex()
            else:
                with pytest.raises(NumericalError):
                    epsilon_accuracy(m, pts)

    @pytest.mark.parametrize("r", [0.6, 1.8, 4.0, 7.0, 11.2, 16.8, 22.7,
                                   31.6])
    def test_presets_on_their_discs(self, r):
        m = preset_tame(r)
        grid = discretize(Disc(-r, r), 4000)
        assert (epsilon_accuracy(m, grid).hex()
                == epsilon_accuracy_reference(m, grid).hex())


class TestDirac:
    def test_zakian1_is_pure_exponential(self):
        m = zakian_method(1)
        ys = np.linspace(0.0, 5.0, 21)
        assert np.max(np.abs(dirac_eval(m, ys) - np.exp(-ys))) < 1e-14

    def test_zakian1_l1_norm_is_one(self):
        assert dirac_l1_norm(zakian_method(1)) == pytest.approx(1.0, abs=1e-9)

    def test_euler_oscillates(self):
        m = euler_method(35)
        ys = np.linspace(1e-3, 1.0, 400)
        vals = dirac_eval(m, ys)
        signs = np.sign(vals)
        changes = np.count_nonzero(signs[:-1] * signs[1:] < 0)
        assert changes >= 2
        assert dirac_l1_norm(m) > 1.0

    @pytest.mark.filterwarnings("error")
    def test_non_finite_value_raises(self):
        # e^(-beta y) overflows at a negative y; numpy warns of nothing
        m = euler_method(15)
        with pytest.raises(NumericalError,
                           match=r"^delta_hat is not finite at y=-1000\.0$"):
            dirac_eval(m, np.array([0.5, -1000.0, -2000.0]))
        with pytest.raises(NumericalError, match="at y=-800.0"):
            dirac_eval(m, -800.0)

    def test_left_halfplane_nodes_rejected(self):
        # the Talbot contour crosses into Re < 0 for larger sizes
        with pytest.raises(ValueError):
            dirac_eval(talbot_method(8), 1.0)
        with pytest.raises(ValueError):
            dirac_l1_norm(talbot_method(8))

    def test_nu2_tilde_dominates_nu2(self):
        for m in (zakian_method(3), gaver_method(4), euler_method(5)):
            mom = moments(m)
            nt = nu2_tilde(m)
            assert nt >= abs(mom.nu2) - 1e-9


def _quad_of_dirac_eval(m, shifted=False):
    """Reference: quad over |dirac_eval(m, y)|, one scalar dirac_eval call
    per y, on dirac_l1_norm's window (0, Y*].  dirac_eval starts with
    to_full, so dirac_eval(to_full(m), y) is dirac_eval(m, y).
    """
    full = to_full(m)
    w, b = np.asarray(full.weights), np.asarray(full.nodes)
    total = float(np.abs(w).sum())
    ystar = math.log(max(total, 1.0) / 1e-14) / float(b.real.min())
    if shifted:
        def f(y):
            return (y - 1.0) ** 2 * abs(dirac_eval(full, y))
    else:
        def f(y):
            return abs(dirac_eval(full, y))
    return scipy.integrate.quad(f, 0.0, ystar, limit=2000, epsabs=1e-12)[0]


@st.composite
def right_halfplane_methods(draw):
    """Full-form methods: real nodes, exact conjugate pairs, Re(beta) > 0."""
    re = st.floats(2.0, 5.0)
    coef = st.floats(-3.0, 3.0)
    reals = draw(st.lists(st.tuples(re, coef), max_size=3))
    pairs = draw(st.lists(st.tuples(re, st.floats(0.1, 3.0), coef, coef),
                          min_size=0 if reals else 1, max_size=3))
    weights = [complex(c) for _, c in reals]
    nodes = [complex(r) for r, _ in reals]
    for r, i, wr, wi in pairs:
        weights += [complex(wr, wi), complex(wr, -wi)]
        nodes += [complex(r, i), complex(r, -i)]
    try:
        return AWMethod(name="random", weights=weights, nodes=nodes,
                        reduced=False)
    except ValueError:  # two equal nodes
        return draw(st.nothing())


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
class TestDiracQuadBitwise:
    """dirac_l1_norm and nu2_tilde return the floats of quad over
    |dirac_eval| bit for bit: the prepared integrand changes no number."""

    @given(right_halfplane_methods())
    @settings(max_examples=25, deadline=None)
    def test_random_methods(self, m):
        assert dirac_l1_norm(m).hex() == _quad_of_dirac_eval(m).hex()
        assert nu2_tilde(m).hex() == _quad_of_dirac_eval(m, True).hex()

    @pytest.mark.parametrize("m", [
        preset_tame(0.6), preset_tame(1.8), preset_tame(4.0), preset_tame(7.0),
        euler_method(15), gaver_method(12), zakian_method(6),
        zakian_method(10)], ids=lambda m: m.name)
    def test_classical_and_preset_methods(self, m):
        assert dirac_l1_norm(m).hex() == _quad_of_dirac_eval(m).hex()
        assert nu2_tilde(m).hex() == _quad_of_dirac_eval(m, True).hex()


@pytest.fixture
def kernel_rows(monkeypatch):
    """The row count of each call of the shared Dirac kernel."""
    rows = []
    kernel = diagnostics._dirac_sum

    def spy(w, b, ys):
        rows.append(len(ys))
        return kernel(w, b, ys)

    monkeypatch.setattr(diagnostics, "_dirac_sum", spy)
    return rows


class TestDiracQuadBatching:
    """quad's integrand is the C-level lookup of a table that evaluates
    (0, Y*) in one kernel call, and both halves of each later bisection,
    42 points, in one kernel call, when quad asks for the left half's
    centre."""

    @pytest.mark.parametrize("m", [preset_tame(7.0), euler_method(15)],
                             ids=lambda m: m.name)
    @pytest.mark.parametrize("f", [dirac_l1_norm, nu2_tilde])
    def test_every_point_comes_from_a_batch(self, m, f, kernel_rows,
                                            monkeypatch):
        runs = []
        quad = scipy.integrate.quad

        def counted(func, *args, **kwargs):
            out = quad(func, *args, **kwargs)
            runs.append((func, out[2]["neval"], out[2]["last"]))
            return out

        monkeypatch.setattr(scipy.integrate, "quad", counted)
        f(m)
        [(func, neval, last)] = runs
        assert isinstance(func, types.BuiltinMethodType)
        assert kernel_rows[0] == 21 and set(kernel_rows[1:]) == {42}
        # each of the last - 1 bisections evaluates two intervals
        intervals = 2 * last - 1
        assert neval == 21 * intervals
        assert len(kernel_rows) == last

    @staticmethod
    def _stand_in(points, seen, integrands):
        """A stand-in for quad that asks for points(a, b), in order."""
        def quad(f, a, b, **kwargs):
            integrands.append(f)
            for y in points(a, b):
                seen.append((y, f(y)))
            return 0.0, 0.0, {}
        return quad

    @pytest.mark.parametrize("shifted", [False, True])
    def test_unpredicted_point_is_evaluated_alone(self, shifted, kernel_rows,
                                                  monkeypatch):
        # an unknown y, the centre of (0, Y*), one of its Kronrod points,
        # then the unknown y again
        m = euler_method(15)
        seen, integrands = [], []

        def points(a, b):
            c, h = 0.5 * (a + b), 0.5 * (b - a)
            return 0.3, c, c + h * 0.995657163025808080735527280689003, 0.3

        monkeypatch.setattr(scipy.integrate, "quad",
                            self._stand_in(points, seen, integrands))
        f = nu2_tilde if shifted else dirac_l1_estimate
        assert f(m) in (0.0, (0.0, 0.0))
        assert kernel_rows == [1, 21, 1]
        assert isinstance(integrands[0], types.BuiltinMethodType)
        for y, value in seen:
            want = abs(dirac_eval(m, y))
            if shifted:
                want = (y - 1.0) ** 2 * want
            assert value.hex() == want.hex()

    def test_half_whose_sibling_is_never_asked(self, kernel_rows,
                                               monkeypatch):
        # quad bisects (0, Y*) and then the left half, without asking for
        # the right half's points; when it later asks for the right
        # half's centre, the next table has replaced it (one row), and
        # that half's own bisection is still predicted (42 rows, then a
        # dict hit)
        m = preset_tame(7.0)
        seen, integrands = [], []

        def points(a, b):
            c = 0.5 * (a + b)
            left, right = 0.5 * (a + c), 0.5 * (c + b)
            return (c, left, 0.5 * (a + left), right, 0.5 * (c + right),
                    0.5 * (c + right))

        monkeypatch.setattr(scipy.integrate, "quad",
                            self._stand_in(points, seen, integrands))
        dirac_l1_estimate(m)
        assert kernel_rows == [21, 42, 42, 1, 42]
        for y, value in seen:
            assert value.hex() == abs(dirac_eval(m, y)).hex()

    @given(st.one_of(right_halfplane_methods(),
                     st.sampled_from([preset_tame(7.0), euler_method(35)])),
           st.lists(st.floats(0.0, 50.0), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_rows_do_not_depend_on_each_other(self, m, ys):
        values = dirac_eval(m, np.array(ys))
        for y, value in zip(ys, values):
            assert value.hex() == dirac_eval(m, y).hex()

    def test_imaginary_residue_raises(self):
        # a real node with a non-real weight, the one source of an
        # imaginary residue, is refused where the method is made
        with pytest.raises(ValueError, match="non-real weight"):
            AWMethod(name="x", weights=(1j,), nodes=(1.0,), reduced=False)


class TestMoments:
    def test_zakian1_closed_form(self):
        mom = moments(zakian_method(1))
        assert mom.mu0 == pytest.approx(1.0, abs=1e-15)
        assert mom.mu1 == pytest.approx(1.0, abs=1e-15)
        assert mom.mu2 == pytest.approx(2.0, abs=1e-15)
        assert mom.nu2 == pytest.approx(1.0, abs=1e-14)
        assert mom.scv == pytest.approx(1.0, abs=1e-14)

    def test_closed_form_matches_quadrature(self):
        m = zakian_method(3)
        mom = moments(m)
        for k, want in ((0, mom.mu0), (1, mom.mu1)):
            val, _ = scipy.integrate.quad(
                lambda y, k=k: y ** k * dirac_eval(m, y), 0.0, 60.0,
                limit=400, epsabs=1e-12)
            assert val == pytest.approx(want, abs=1e-8)

    def test_presets_normalized(self):
        m = preset_tame(4.0)
        mom = moments(m)
        assert abs(mom.mu0 - 1.0) < 1e-9
        assert abs(mom.mu1 - 1.0) < 1e-9

    def test_zero_node_rejected(self):
        from awilt.methods import AWMethod
        m = AWMethod("x", (1.0,), (0.0,), reduced=False)
        with pytest.raises(ValueError):
            moments(m)

    @pytest.mark.parametrize("scale", [1e-270, 1e270])
    def test_scv_scale_invariant(self, scale):
        # mu1^2 under- or overflows at these scales; scv does not depend
        # on the scale of the weights
        def method(c):
            return AWMethod("x", (c * 1j, -c * 1j), (2 + 1j, 2 - 1j),
                            reduced=False)
        want = moments(method(1.0)).scv
        assert moments(method(scale)).scv == pytest.approx(want, rel=1e-14)

    def test_subnormal_weights_round_once(self):
        # the exact mu0 is 8.90029543402881344e-310; without the scaling
        # the double-double parts lose their bits below 2^-1022, and the
        # sum rounds to ...287e-310
        m = AWMethod("x", (SUBNORMAL_W, -SUBNORMAL_W), (2 + 1j, 2 - 1j),
                     reduced=False)
        assert moments(m).mu0 == 8.9002954340288e-310

    def test_conjugate_pair_sum_cancels(self):
        # Re((1/(3+3i))^2) = 0: the real products of a double-double
        # product are rounded one by one, so the two squares cancel
        m = AWMethod("x", (1.0, 1.0), (3 + 3j, 3 - 3j), reduced=False)
        mom = moments(m)
        assert mom.mu1 == 0.0 and mom.scv is None

    def test_scv_none_when_mu1_is_rounding(self):
        # (10 + 2.25i)/(2 + 2.5i)^2 = -i, so the exact mu1 is 0; the
        # double-double sum leaves about 1e-32, within its error bound
        m = AWMethod("x", (10 + 2.25j, 10 - 2.25j), (2 + 2.5j, 2 - 2.5j),
                     reduced=False)
        mom = moments(m)
        assert 0.0 < abs(mom.mu1) <= mom.mu1_error
        assert mom.scv is None


#: a subnormal weight part: 2^-1022 less one unit in the last place
SUBNORMAL_W = 2.225073858507203e-309j


class TestMomentsMatchMpmath:
    """The double-double moment sums equal the 40-digit ones bit for bit,
    unless the exact sum lies within the kernel's error bound of a
    rounding midpoint."""

    @staticmethod
    def _check(m):
        mom = moments(m)
        assert (mom.mu0, mom.mu1, mom.mu2) == tuple(
            float(value) for value, _ in moment_sums(m))

    @given(right_halfplane_methods())
    @example(AWMethod(name="fma", weights=(1.0, 1.0),
                      nodes=(3 + 3j, 3 - 3j), reduced=False))
    @example(AWMethod(name="subnormal", weights=(SUBNORMAL_W, -SUBNORMAL_W),
                      nodes=(2 + 1j, 2 - 1j), reduced=False))
    @example(AWMethod(name="cancel", weights=(1 + 6.04e-64j, 1 - 6.04e-64j),
                      nodes=(3 + 3j, 3 - 3j), reduced=False))
    @example(AWMethod(name="normwise", weights=(2.5 - 2j, 2.5 + 2j),
                      nodes=(2 + 2.5j, 2 - 2.5j), reduced=False))
    @settings(max_examples=60, deadline=None)
    def test_random_methods(self, m):
        # weights of any size, subnormal ones too: moments scales them
        # into the kernel's range and rounds each sum once
        mom, sums = moments(m), moment_sums(m)
        for got, (exact, bound) in zip((mom.mu0, mom.mu1, mom.mu2), sums):
            with mpmath.workdps(DPS):
                # half an ulp in mpmath: it underflows in binary64
                assert (abs(got - exact)
                        <= bound + mpmath.mpf(math.ulp(got)) / 2)
            assert got == float(exact) or near_midpoint(exact, bound)
        # mu1_error, about 2^-100 of the sums, may itself be subnormal
        assert mom.mu1_error == pytest.approx(float(sums[1][1]), rel=1e-12,
                                              abs=2.0 ** -1073)

    @pytest.mark.parametrize("m", [
        *(euler_method(n) for n in (3, 7, 11, 15, 21)),
        *(gaver_method(n) for n in (2, 8, 12, 16)),
        *(zakian_method(n) for n in (1, 2, 5, 10, 16, 24)),
        *(talbot_method(n) for n in (2, 10, 20, 32)),
        *(preset_tame(r) for r in (0.6, 1.8, 4.0, 7.0, 11.2, 16.8, 22.7,
                                   31.6))], ids=lambda m: m.name)
    def test_classical_and_preset_methods(self, m):
        self._check(m)


class TestMomentEstimate:
    def test_zakian1_estimate_vanishes(self):
        # mu0 = mu1 = 1 exactly, so the first-order estimate is zero even
        # though the true error at t=1 for f = e^-t is ~0.132
        m = zakian_method(1)
        est = moment_error_estimate(m, math.exp(-1.0), -math.exp(-1.0), 1.0)
        assert est < 1e-14

    def test_estimate_formula(self):
        m = gaver_method(4)
        mom = moments(m)
        fv, fd, t = 0.5, -0.25, 2.0
        want = (abs(mom.mu0 - 1.0) * abs(fv)
                + t * abs(fd) * abs(mom.mu1 - mom.mu0))
        assert moment_error_estimate(m, fv, fd, t) == pytest.approx(want)

    def test_second_order_adds_curvature_term(self):
        m = zakian_method(2)
        first = moment_error_estimate(m, 1.0, 1.0, 1.0)
        second = moment_error_bound_second_order(m, 1.0, 1.0, 1.0, 1.0)
        assert second >= first
        assert second - first == pytest.approx(0.5 * nu2_tilde(m), rel=1e-6)

    def test_t_positive(self):
        with pytest.raises(ValueError, match="t must be positive"):
            moment_error_estimate(zakian_method(1), 1.0, 1.0, 0.0)
        # the second-order bound adds a term to the same estimate
        with pytest.raises(ValueError, match="t must be positive"):
            moment_error_bound_second_order(zakian_method(1), 1.0, 1.0, 1.0,
                                            -1.0)


class TestClassBounds:
    def test_se(self):
        assert bound_se(1e-12, [2.0, 3.0]) == pytest.approx(5e-12)
        assert bound_se(1e-12, [1.0 + 1.0j]) == pytest.approx(
            math.sqrt(2.0) * 1e-12)

    def test_me(self):
        assert bound_me(1e-13, 2.0, 3.0) == pytest.approx(SQRT2P1 * 6e-13)

    def test_phase_type_zero_eps(self):
        b = bound_phase_type(0.0, 5.0, d=4, alpha_Qinv_one=2.0)
        assert b.pdf == 0.0 and b.cdf_dimension == 0.0 and b.cdf_moment == 0.0

    def test_phase_type_formulas(self):
        eps, q = 1e-12, 3.0
        b = bound_phase_type(eps, q, d=9, alpha_Qinv_one=0.5)
        assert b.pdf == pytest.approx(SQRT2P1 * eps * q)
        assert b.cdf_dimension == pytest.approx(eps + SQRT2P1 * eps * 3.0)
        assert b.cdf_moment == pytest.approx(eps + SQRT2P1 * eps * 0.5 * q)

    def test_fluid(self):
        assert bound_fluid(1e-12, 2.0, 0.25) == pytest.approx(
            SQRT2P1 * 1e-12 * 0.5)
        assert bound_fluid_cdf(1e-12, 2.0, 1.0, 0.75) == pytest.approx(
            1e-12 + SQRT2P1 * 1e-12 * 1.5)

    def test_ls(self):
        assert bound_ls(1e-12, 0.0, 2.0, 3.0) == pytest.approx(2e-12)
        assert bound_ls(0.0, 1e-13, 2.0, 3.0) == pytest.approx(4e-13)

    def test_lipschitz_value(self):
        got = bound_lipschitz(1.0, 1.0, 1.0, 1.0)
        assert got == pytest.approx(3.0 * 2.0 ** (1.0 / 3.0))
        assert got == pytest.approx(3.77976315, abs=1e-7)

    def test_lipschitz_precondition(self):
        with pytest.raises(ValueError):
            bound_lipschitz(1.0, 1.0, 1.0, -0.5)

    def test_eta_proxy(self):
        assert eta_proxy(1e-12, 1e4) == pytest.approx(1e-12 + U * 1e4)
        assert eta_proxy(0.0, 0.0) == 0.0
