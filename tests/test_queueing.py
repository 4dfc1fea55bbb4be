import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awilt import queueing
from awilt.errors import RiccatiError, SpectralGapError
from awilt.invert import invert, invert_curve
from awilt.methods import talbot_method, to_full
from awilt.queueing import (MAX_ARC_STEPS, FluidQueueModel, GeneratorMatrix,
                            PhaseType, _newton_refine, _riccati_blocks,
                            _solve_psi_sorted, fluid_psi_transform,
                            make_experiment_model, phase_type_ground_truth,
                            phase_type_transform, psi_infinity, solve_psi)
from awilt.tame import preset_tame


def _scalar_model(a=1.0, b=1.0):
    Q = np.array([[-a, a], [b, -b]])
    return FluidQueueModel(gen=GeneratorMatrix(Q), rates=np.array([1.0, -1.0]))


def _nare_residual(model, s, X):
    Q = model.gen.Q
    C_inv = 1.0 / np.abs(model.rates)
    A = C_inv[:, None] * (Q - s * np.eye(model.gen.dim))
    ip, im = model.plus_idx, model.minus_idx
    App = A[np.ix_(ip, ip)]
    Apm = A[np.ix_(ip, im)]
    Amp = A[np.ix_(im, ip)]
    Amm = A[np.ix_(im, im)]
    return np.linalg.norm(Apm + App @ X + X @ Amm + X @ Amp @ X, np.inf)


def _residual_ok(model, s, X):
    # The check of test_residual_small_left_halfplane, on the scale of
    # A = C^-1 (Q - sI) rather than of Q - sI: random models have rates
    # near 0, so C^-1 can be large.
    scale = (np.linalg.norm(model.gen.Q, np.inf) + abs(s)) / np.min(
        np.abs(model.rates))
    nx = np.linalg.norm(X, np.inf)
    return _nare_residual(model, s, X) < 1e-10 * scale * max(1.0, nx) ** 2


def _cold_start_arc(model, s):
    """The continuation as it was before it started on the imaginary axis:
    sorted solve at |s|, then 16 (or, halving, more) steps along the arc."""
    radius = abs(s)
    theta = np.angle(s)
    X = _solve_psi_sorted(model, complex(radius))
    steps = 16
    k = 0
    while k < steps:
        k += 1
        sk = radius * np.exp(1j * theta * k / steps)
        blocks = _riccati_blocks(model, sk)[:4]
        try:
            X = _newton_refine(blocks, X, sk, max_steps=12, min_steps=1)
        except RiccatiError:
            if steps >= 4096:
                raise
            k = 2 * (k - 1)
            steps *= 2
    return X


def _condition(model, s, X):
    """NARE term scale over sep of the Newton (Sylvester) operator, per
    max(1, ||X||): how far a residual within the Newton gate can move X."""
    App, Apm, Amp, Amm, _ = _riccati_blocks(model, s)
    A, B = App + X @ Amp, Amm + Amp @ X
    L = np.kron(np.eye(len(B)), A) + np.kron(B.T, np.eye(len(A)))
    sep = np.linalg.svd(L, compute_uv=False)[-1]
    nx = np.linalg.norm(X, np.inf)
    n_pm, n_pp, n_mm, n_mp = (np.linalg.norm(M, np.inf)
                              for M in (Apm, App, Amm, Amp))
    scale = n_pm + n_pp * nx + nx * n_mm + nx * n_mp * nx
    return scale / sep / max(1.0, nx)


class TestGeneratorMatrix:
    def test_valid_generator(self):
        g = GeneratorMatrix(np.array([[-2.0, 2.0], [1.0, -1.0]]))
        assert g.dim == 2
        assert g.lam == 2.0  # defaults to max |Q_ii|

    def test_row_sums_checked(self):
        with pytest.raises(ValueError):
            GeneratorMatrix(np.array([[-2.0, 1.0], [1.0, -1.0]]))

    def test_negative_offdiagonal_rejected(self):
        with pytest.raises(ValueError):
            GeneratorMatrix(np.array([[1.0, -1.0], [1.0, -1.0]]))

    def test_subgenerator(self):
        g = GeneratorMatrix(np.array([[-3.0, 1.0], [0.5, -1.0]]),
                            kind="subgenerator")
        assert g.lam == 3.0
        with pytest.raises(ValueError):
            GeneratorMatrix(np.array([[-1.0, 2.0], [0.0, -1.0]]),
                            kind="subgenerator")

    def test_lam_floor(self):
        with pytest.raises(ValueError):
            GeneratorMatrix(np.array([[-2.0, 2.0], [1.0, -1.0]]), lam=1.0)


class TestPhaseType:
    def test_alpha_validated(self):
        Q = np.array([[-1.0]])
        with pytest.raises(ValueError):
            PhaseType(alpha=np.array([0.5]), Q=Q)
        with pytest.raises(ValueError):
            PhaseType(alpha=np.array([-1.0, 2.0]),
                      Q=np.array([[-1.0, 0.5], [0.0, -1.0]]))

    def test_exponential_transform(self):
        p = PhaseType(alpha=np.array([1.0]), Q=np.array([[-1.0]]))
        pdf, cdf = phase_type_transform(p)
        assert pdf(1.0) == pytest.approx(0.5)          # 1/(s+1) at s=1
        assert cdf(1.0) == pytest.approx(0.5)
        assert pdf.conjugate_symmetric

    def test_erlang2_ground_truth(self):
        # alpha = (1, 0), chain 1 -> 2 -> exit at rate 1: Erlang(2, 1)
        p = PhaseType(alpha=np.array([1.0, 0.0]),
                      Q=np.array([[-1.0, 1.0], [0.0, -1.0]]))
        pdf_t, cdf_t = phase_type_ground_truth(p, 2.0)
        assert pdf_t == pytest.approx(2.0 * math.exp(-2.0), rel=1e-13)
        assert cdf_t == pytest.approx(1.0 - 3.0 * math.exp(-2.0), rel=1e-13)

    def test_erlang2_inversion_matches_ground_truth(self):
        p = PhaseType(alpha=np.array([1.0, 0.0]),
                      Q=np.array([[-1.0, 1.0], [0.0, -1.0]]))
        pdf, cdf = phase_type_transform(p)
        assert pdf(1.0) == pytest.approx(0.25)         # 1/(s+1)^2 at s=1
        m = talbot_method(16)
        t = 2.0
        pdf_t, cdf_t = phase_type_ground_truth(p, t)
        assert invert(m, pdf, t) == pytest.approx(pdf_t, abs=1e-8)
        assert invert(m, cdf, t) == pytest.approx(cdf_t, abs=1e-8)


class TestSolvePsi:
    def test_scalar_closed_form(self):
        model = _scalar_model(1.0, 1.0)
        for s in (0.1, 1.0, 4.0, 2.0 + 1.0j, 0.5 - 2.0j):
            x = solve_psi(model, s)
            want = (1.0 + s) - np.sqrt((1.0 + s) ** 2 - 1.0)
            assert abs(complex(x[0, 0]) - want) < 1e-12

    def test_scalar_closed_form_asymmetric(self):
        a, b = 2.0, 0.5
        model = _scalar_model(a, b)
        for s in (0.3, 1.7):
            x = complex(solve_psi(model, s)[0, 0])
            c = a + b + 2.0 * s
            want = (c - math.sqrt(c * c - 4.0 * a * b)) / (2.0 * b)
            assert abs(x - want) < 1e-12

    def test_conjugate_symmetry(self):
        model = make_experiment_model(3, 4, seed=7)
        for s in (1.0 + 2.0j, -0.5 + 1.5j):
            X = solve_psi(model, s)
            Xc = solve_psi(model, np.conj(s))
            assert np.max(np.abs(Xc - X.conj())) < 1e-10

    def test_stochastic_structure_at_real_s(self):
        model = make_experiment_model(4, 5, seed=11)
        X = solve_psi(model, 0.5)
        assert np.max(np.abs(X.imag)) < 1e-12
        R = X.real
        assert np.min(R) >= -1e-12
        assert np.max(R.sum(axis=1)) <= 1.0 + 1e-12

    def test_residual_small_left_halfplane(self):
        model = make_experiment_model(3, 3, seed=5)
        for s in (2.0, 1.0 + 3.0j, -1.0 + 1.0j, -2.0 - 0.5j):
            X = solve_psi(model, s)
            scale = np.linalg.norm(model.gen.Q, np.inf) + abs(s)
            nx = np.linalg.norm(X, np.inf)
            assert _nare_residual(model, s, X) < 1e-10 * scale * max(
                1.0, nx) ** 2

    def test_left_halfplane_oracle(self):
        # (1+s) - sqrt(s) sqrt(s+2), a product of principal roots, is the
        # continuation of psi_hat to C minus [-2, 0]; the form
        # sqrt((1+s)^2 - 1) jumps on Re s = -1.  Its product with
        # (1+s) + sqrt(s) sqrt(s+2) is 1, so the reciprocal of that is the
        # same function without the cancellation at large |s|.
        model = _scalar_model(1.0, 1.0)
        pts = [-0.5 + 1e-3j, -3.0 + 0.1j, -10.0 - 5.0j, -100.0 + 0.5j]
        for t in (1.0, 3.0, 10.0, 30.0):
            for m in (talbot_method(24), preset_tame(model.gen.lam * t)):
                pts += [complex(b) / t for b in to_full(m).nodes
                        if complex(b).real < 0]
        assert len(pts) > 50
        for s in pts:
            x = complex(solve_psi(model, s)[0, 0])
            want = 1.0 / ((1.0 + s) + np.sqrt(s) * np.sqrt(s + 2.0))
            # The 1e-12 residual gate allows about 2.3e-12 relative at
            # s = -3+0.1j, where the error is 1.5e-12.
            assert abs(x - want) <= 2e-12 * abs(want), s

    @settings(max_examples=100, deadline=None)
    @given(d_plus=st.integers(1, 5), d_minus=st.integers(1, 5),
           seed=st.integers(0, 2**16),
           log_radius=st.floats(-1.5, 1.5),
           angle=st.one_of(st.floats(0.5 * math.pi, math.pi,
                                     exclude_min=True),
                           st.just(math.pi)),
           sign=st.sampled_from([1.0, -1.0]))
    def test_continuation_matches_cold_start(self, d_plus, d_minus, seed,
                                             log_radius, angle, sign):
        model = make_experiment_model(d_plus, d_minus, seed)
        r = 10.0 ** log_radius
        s = (complex(-r, sign * 0.0) if angle == math.pi
             else complex(r * math.cos(angle), sign * r * math.sin(angle)))
        X = solve_psi(model, s)
        ref = _cold_start_arc(model, s)
        nx = np.linalg.norm(X, np.inf)
        # Both solves pass the same 1e-12 residual gate, so they can differ
        # by about 1e-12 times the condition number; near a branch point of
        # psi_hat (condition 300 to 3000 in 4000 random draws) that reaches
        # 2e-10.
        tol = 1e-10 * max(1.0, nx) * max(1.0, _condition(model, s, X) / 50)
        assert np.max(np.abs(X - ref)) <= tol
        assert _residual_ok(model, s, X)

    def test_continuation_failure_names_both_points(self, monkeypatch):
        calls = []

        def failing(blocks, X, s, max_steps=5, min_steps=2):
            calls.append(s)
            raise RiccatiError(f"Newton step failed at s={s}")

        monkeypatch.setattr(queueing, "_solve_psi_sorted",
                            lambda model, s: np.zeros((1, 1), complex))
        monkeypatch.setattr(queueing, "_newton_refine", failing)
        s = complex(-2.0, 0.0)
        with pytest.raises(RiccatiError) as info:
            solve_psi(_scalar_model(), s)
        # a quarter arc starts at 8 steps: 8, 16, ..., 4096 is 10 attempts
        assert MAX_ARC_STEPS == 4096 and len(calls) == 10
        msg = str(info.value)
        assert f"s={s}" in msg
        assert f"z={calls[-1]}" in msg
        assert f"{MAX_ARC_STEPS} arc steps" in msg

    def test_spectral_gap_detected_at_zero(self):
        # symmetric scalar model: double root of the NARE at s = 0
        model = _scalar_model(1.0, 1.0)
        with pytest.raises(SpectralGapError):
            solve_psi(model, 0.0)

    def test_psi_infinity_substochastic(self):
        model = make_experiment_model(3, 4, seed=2)
        P = psi_infinity(model).real
        assert np.min(P) >= -1e-10
        assert np.max(P.sum(axis=1)) <= 1.0 + 1e-8


class TestFluidTransforms:
    def test_shapes_and_relation(self):
        model = make_experiment_model(2, 3, seed=1)
        psi, Psi = fluid_psi_transform(model)
        s = 1.5 + 0.5j
        a = psi(s)
        b = Psi(s)
        assert a.shape == (2, 3)
        assert np.max(np.abs(a / s - b)) < 1e-14

    def test_cdf_curve_monotone(self):
        model = make_experiment_model(2, 2, seed=3)
        _, Psi = fluid_psi_transform(model)
        m = talbot_method(16)
        ts = np.linspace(0.5, 10.0, 20)
        pts = invert_curve(m, Psi, ts)
        vals = np.stack([p.value for p in pts])
        assert all(p.error is None for p in pts)
        diffs = np.diff(vals, axis=0)
        assert np.min(diffs) > -1e-8  # CDF entries increase in t


class TestExperimentModel:
    def test_deterministic(self):
        a = make_experiment_model(5, 10, seed=42)
        b = make_experiment_model(5, 10, seed=42)
        assert np.array_equal(a.gen.Q, b.gen.Q)
        assert np.array_equal(a.rates, b.rates)
        c = make_experiment_model(5, 10, seed=43)
        assert not np.array_equal(a.gen.Q, c.gen.Q)

    def test_structure(self):
        m = make_experiment_model(5, 10, seed=0)
        assert m.gen.dim == 15
        assert m.d_plus == 5 and m.d_minus == 10
        assert m.gen.lam == pytest.approx(1.0)  # normalized time scale
        assert np.max(np.abs(m.gen.Q.sum(axis=1))) < 1e-12
        assert np.all(m.rates[:5] > 0) and np.all(m.rates[5:] < 0)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FluidQueueModel(gen=GeneratorMatrix(np.array([[-1.0, 1.0],
                                                          [1.0, -1.0]])),
                            rates=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            FluidQueueModel(gen=GeneratorMatrix(np.array([[-1.0, 1.0],
                                                          [1.0, -1.0]])),
                            rates=np.array([1.0, 0.0]))
