"""End-to-end acceptance checks at fixed tolerances.

Reference epsilon / max-weight columns for the shipped preset family are
frozen from an independent high-precision construction of the same
methods; the checks accept order-of-magnitude agreement (epsilon within
100x, max weight within [0.01x, 100x]).
"""

import math
import time

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from awilt.catalog import bs_call, entry
from awilt.diagnostics import (dirac_eval, epsilon_accuracy, moments,
                               rational_approximant)
from awilt.domains import (Disc, ImagSegment, RealSegment, discretize,
                           distance_to, fov_circle_bound,
                           fov_hermitian_bound, fov_rectangle_bound)
from awilt.invert import Transform, invert, pointwise
from awilt.methods import (euler_method, gaver_method, talbot_method,
                           to_full, zakian_method)
from awilt.numerics import U
from awilt.queueing import (FluidQueueModel, GeneratorMatrix,
                            fluid_psi_transform, make_experiment_model,
                            solve_psi)
from awilt.tame import PRESET_ROWS, build_tame, preset_entry, preset_tame

# reference columns for the preset family: (r_max, n_reduced, epsilon,
# max |w|) from an independent construction of the same quasi-optimal
# methods
REFERENCE_TABLE = (
    (0.6, 3, 1.637909e-14, 5.462668e+02),
    (1.8, 4, 8.229408e-14, 3.402665e+03),
    (4.0, 5, 3.973128e-13, 7.669538e+03),
    (7.0, 6, 1.420889e-12, 1.684302e+04),
    (11.2, 7, 1.983229e-12, 3.981692e+04),
    (16.8, 8, 1.140301e-11, 5.302010e+04),
    (22.7, 9, 6.075754e-12, 1.296546e+05),
    (31.6, 10, 3.192135e-11, 1.495150e+05),
)


def _random_subgenerator(rng, d):
    R = rng.uniform(0.0, 1.0, size=(d, d))
    np.fill_diagonal(R, 0.0)
    exit_rates = rng.uniform(0.0, 0.5, size=d)
    Q = R.copy()
    np.fill_diagonal(Q, -(R.sum(axis=1) + exit_rates))
    return Q / max(np.abs(np.diag(Q)).max(), 1.0)


def _random_generator(rng, d):
    R = rng.uniform(0.0, 1.0, size=(d, d))
    np.fill_diagonal(R, 0.0)
    Q = R.copy()
    np.fill_diagonal(Q, -R.sum(axis=1))
    return Q / max(np.abs(np.diag(Q)).max(), 1.0)


class TestCriterion01PresetTable:
    @pytest.mark.parametrize("r_max,nprime,eps_ref,maxw_ref", REFERENCE_TABLE)
    def test_row(self, r_max, nprime, eps_ref, maxw_ref):
        start = time.monotonic()
        m, meta, _ = build_tame(Disc(complex(-r_max), r_max), nprime)
        elapsed = time.monotonic() - start
        assert elapsed < 10.0
        assert meta.epsilon <= 100.0 * eps_ref
        maxw = max(abs(w) for w in to_full(m).weights)
        assert 0.01 * maxw_ref <= maxw <= 100.0 * maxw_ref


class TestCriterion02SumOfExponentialsBound:
    def test_two_hundred_random_cases(self):
        m, meta, r_max = preset_entry(4.0)
        assert m.n_entries == 5
        full = to_full(m)
        eps = meta.epsilon
        rng = np.random.default_rng(2024)
        violations = 0
        for _ in range(200):
            M = int(rng.integers(1, 6))
            t = float(rng.uniform(0.5, 2.0))
            # poles scaled so that alpha * t stays inside the disc
            z = (rng.uniform(0.0, 0.98 * r_max, M)
                 * np.exp(2j * np.pi * rng.random(M)) - r_max)
            alphas = z / t
            cs = rng.standard_normal(M) + 1j * rng.standard_normal(M)
            F = Transform(pointwise(
                lambda s: complex(np.sum(cs / (s - alphas)))))
            truth = complex(np.sum(cs * np.exp(alphas * t)))
            approx = invert(full, F, t)
            bound = float(np.sum(np.abs(cs))) * eps
            if abs(approx - truth) > bound:
                violations += 1
        assert violations == 0


class TestCriterion03EqualityCase:
    def test_error_equals_pointwise_epsilon(self):
        m, meta, r_max = preset_entry(4.0)
        full = to_full(m)
        dom = Disc(complex(-r_max), r_max)
        grid = discretize(dom, 100).points
        for z in grid:
            z = complex(z)
            F = Transform(pointwise(lambda s, z=z: 1.0 / (s - z)))
            # single exponential f(t) = e^{z t} at t = 1
            err = abs(invert(full, F, 1.0) - np.exp(z))
            ptwise = abs(np.exp(z) - rational_approximant(full, z))
            assert abs(err - ptwise) <= 1e2 * U * abs(np.exp(z))


class TestCriterion04MatrixExponentialBound:
    def test_fifty_random_subgenerators(self):
        rng = np.random.default_rng(7)
        sqrt2p1 = 1.0 + math.sqrt(2.0)
        violations = 0
        for _ in range(50):
            d = int(rng.integers(2, 9))
            t = float(rng.uniform(0.5, 2.0))
            Q = _random_subgenerator(rng, d)
            dom = fov_hermitian_bound(t * Q)
            m, meta, _ = build_tame(dom, 5, count=600)
            full = to_full(m)
            eye = np.eye(d)
            approx = sum(w * np.linalg.inv(b * eye - t * Q)
                         for w, b in zip(full.weights, full.nodes))
            err = np.linalg.norm(scipy.linalg.expm(t * Q) - approx.real, 2)
            if err > sqrt2p1 * meta.epsilon:
                violations += 1
        assert violations == 0


class TestCriterion05ZakianPolynomialExactness:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_monomials(self, n):
        m = zakian_method(n)
        for k in range(2 * n):
            F = Transform(pointwise(
                lambda s, k=k: math.factorial(k) / s ** (k + 1)))
            val = invert(m, F, 1.0)
            assert abs(complex(val) - 1.0) <= 1e-9  # t^k at t = 1


class TestCriterion06ConstantRecovery:
    ONE_OVER_S = Transform(pointwise(lambda s: 1.0 / s),
                           conjugate_symmetric=True)

    @pytest.mark.parametrize("m,tol", [
        (zakian_method(1), 1e-13),
        (zakian_method(2), 1e-13),
        (zakian_method(3), 1e-13),
        (zakian_method(4), 1e-13),
        (gaver_method(16), 1e-7),
        # the fixed-Talbot contour reaches 1e-12 from n_reduced = 16 on
        # (its truncation error is ~1.6e-7 at n_reduced = 10; see notes)
        (talbot_method(16), 1e-11),
        (talbot_method(20), 1e-12),
        (talbot_method(24), 1e-12),
        (euler_method(31), 1e-10),
        (euler_method(41), 1e-10),
    ])
    def test_one_recovered(self, m, tol):
        assert abs(complex(invert(m, self.ONE_OVER_S, 1.0)) - 1.0) <= tol


class TestCriterion07FluidScalarOracle:
    MODEL = FluidQueueModel(
        gen=GeneratorMatrix(np.array([[-1.0, 1.0], [1.0, -1.0]])),
        rates=np.array([1.0, -1.0]))

    def test_closed_form_fifty_points(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(0.05, 5.0, 50) + 1j * rng.uniform(-5.0, 5.0, 50)
        for s in pts:
            s = complex(s)
            x = complex(solve_psi(self.MODEL, s)[0, 0])
            want = (1.0 + s) - np.sqrt((1.0 + s) ** 2 - 1.0)
            assert abs(x - want) <= 1e-12

    @pytest.mark.parametrize("t", [1.0, 3.0])
    def test_cdf_inversion_cross_method(self, t):
        lam = self.MODEL.gen.lam
        _, Psi = fluid_psi_transform(self.MODEL)
        a = invert(preset_tame(lam * t), Psi, t)
        b = invert(talbot_method(20), Psi, t)
        assert np.max(np.abs(a - b)) <= 1e-8


class TestCriterion08RadiusCoverage:
    def test_radius_vs_horizon(self):
        start = time.monotonic()
        model = make_experiment_model(5, 10, seed=1)
        lam = model.gen.lam
        psi, _ = fluid_psi_transform(model)
        ref_m = talbot_method(24)
        # adequate radius: preset with r_max >= lam * t succeeds
        for t in (1.0, 3.0, 10.0):
            ref = invert(ref_m, psi, t)
            got = invert(preset_tame(lam * t), psi, t)
            assert np.max(np.abs(got - ref)) <= 1e-6
        # inadequate radius: r = 0.5 method cannot reach t = 100.  The
        # density itself has decayed to ~2e-4 by then, so the failure is
        # measured relative to its scale: the small-radius method gets no
        # significant digits (relative error > 1) while the adequate-radius
        # presets above sit at <= 1e-6 absolute.
        t = 100.0
        ref = invert(ref_m, psi, t)
        small, _, _ = build_tame(Disc(complex(-0.5), 0.5), 4)
        got = invert(small, psi, t)
        rel = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
        assert rel >= 1e-2
        assert time.monotonic() - start < 60.0


class TestCriterion09MomentIdentities:
    def test_preset_zeroth_moment(self):
        for r_max, nprime in PRESET_ROWS:
            m, meta, _ = preset_entry(r_max)
            mom = moments(m)
            assert abs(mom.mu0 - 1.0) <= 2.0 * meta.epsilon

    @pytest.mark.parametrize("m", [zakian_method(3), gaver_method(4),
                                   euler_method(5)])
    def test_closed_form_vs_quadrature(self, m):
        mom = moments(m)
        for k, want in ((0, mom.mu0), (1, mom.mu1)):
            val, _ = scipy.integrate.quad(
                lambda y, k=k: y ** k * dirac_eval(m, y), 0.0, 80.0,
                limit=600, epsabs=1e-12)
            assert val == pytest.approx(want, abs=1e-8)


class TestCriterion10OptionPricingCurve:
    def test_call_price_curve(self):
        e = bs_call(80.0, 100.0, 0.05, 0.1)
        ts = 50.0 * (np.arange(500) + 0.5) / 500.0
        truth = np.array([e.f(t) for t in ts])

        def max_err(m):
            vals = np.array([complex(invert(m, e.transform, float(t))).real
                             for t in ts])
            return float(np.max(np.abs(vals - truth)))

        err_talbot = max_err(talbot_method(20))
        tame, _, _ = build_tame(RealSegment(100.0), 33)
        err_tame = max_err(tame)
        assert err_talbot <= 5e-2
        assert err_tame <= 5e-2
        assert err_tame <= 10.0 * err_talbot


@pytest.fixture(scope="module")
def wave_method():
    m, _, _ = build_tame(ImagSegment(80.0), 20, count=4000)
    return m


class TestCriterion11WaveCurves:
    def _max_err(self, m, name, safe_distance, tol):
        e = entry(name)
        ts = 6.0 * (np.arange(600) + 0.5) / 600.0
        worst = 0.0
        for t in ts:
            t = float(t)
            if abs(t - round(t)) < safe_distance:
                continue
            val = float(invert(m, e.transform, t))
            worst = max(worst, abs(val - e.f(t)))
        assert worst <= tol

    def test_triangular(self, wave_method):
        self._max_err(wave_method, "triangular_wave", 0.1, 0.05)

    def test_square(self, wave_method):
        self._max_err(wave_method, "square_wave", 0.1, 0.15)


class TestCriterion12FieldOfValuesContainment:
    def test_hundred_random_generators(self):
        rng = np.random.default_rng(99)
        violations = 0
        for _ in range(100):
            d = int(rng.integers(2, 9))
            Q = _random_generator(rng, d)
            rect = fov_rectangle_bound(d, 1.0)
            disc = fov_circle_bound(d, 1.0)
            herm = fov_hermitian_bound(Q)
            v = rng.standard_normal((200, d)) + 1j * rng.standard_normal(
                (200, d))
            v = v / np.linalg.norm(v, axis=1, keepdims=True)
            samples = np.einsum("ni,ij,nj->n", v.conj(), Q, v)
            for z in samples:
                z = complex(z)
                if (distance_to(rect, z) > 1e-9
                        or distance_to(disc, z) > 1e-9
                        or distance_to(herm, z) > 1e-9):
                    violations += 1
        assert violations == 0


class TestCriterion13WeightStability:
    def test_weight_growth_bounded(self):
        dom = Disc(complex(-5.0), 5.0)
        m_small, meta_small, _ = build_tame(dom, 6)
        m_large, meta_large, _ = build_tame(dom, 10)
        w_small = max(abs(w) for w in to_full(m_small).weights)
        w_large = max(abs(w) for w in to_full(m_large).weights)
        assert w_large < 10.0 * w_small
        assert meta_small.epsilon <= 1e-11
        assert meta_large.epsilon <= 1e-11
