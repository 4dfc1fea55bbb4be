import math
import sys
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import psi_reference
from awilt import queueing
from awilt.errors import RiccatiError, SpectralGapError
from awilt.invert import invert, invert_curve
from awilt.methods import talbot_method, to_full
from awilt.queueing import (MAX_ARC_STEPS, FluidQueueModel, GeneratorMatrix,
                            PhaseType, _hamiltonian, _newton_refine,
                            _riccati_blocks, _solve_sylvester,
                            fluid_psi_transform, make_experiment_model,
                            phase_type_ground_truth,
                            phase_type_transform, psi_infinity, solve_psi,
                            sweep_psi)
from awilt.tame import PRESET_ROWS, preset_tame


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


def _blocks(model, s):
    """The NARE blocks (A_pp, A_pm, A_mp, A_mm) at one s."""
    return _riccati_blocks(_hamiltonian(model)([s])[0], model.d_minus)


def _residual_ok(model, s, X):
    # The check of test_residual_small_left_halfplane, on the scale of
    # A = C^-1 (Q - sI) rather than of Q - sI: random models have rates
    # near 0, so C^-1 can be large.
    scale = (np.linalg.norm(model.gen.Q, np.inf) + abs(s)) / np.min(
        np.abs(model.rates))
    nx = np.linalg.norm(X, np.inf)
    return _nare_residual(model, s, X) < 1e-10 * scale * max(1.0, nx) ** 2


def _cold_start_arc(model, s):
    """The continuation from the real axis: sorted solve at |s|, then 64
    (or, halving, more) steps along the arc.  With 16 steps it ends on
    another solution of the NARE at s = e^{3i} on
    make_experiment_model(2, 4, 4), 2.30 away."""
    radius = abs(s)
    theta = np.angle(s)
    X = solve_psi(model, complex(radius))
    steps = 64
    k = 0
    while k < steps:
        k += 1
        sk = radius * np.exp(1j * theta * k / steps)
        try:
            X = _newton_refine(_blocks(model, sk), X, sk)
        except RiccatiError:
            if steps >= 4096:
                raise
            k = 2 * (k - 1)
            steps *= 2
    return X


def _two_option_refine(blocks, X, s, max_steps, min_steps):
    """The Newton refinement when its policy was two options: at least
    min_steps and at most max_steps steps, then the 1e-12 gate."""
    App, Apm, Amp, Amm = blocks
    n_pm, n_pp, n_mm, n_mp = (np.linalg.norm(B, np.inf)
                              for B in (Apm, App, Amm, Amp))

    def residual(X):
        return Apm + App @ X + X @ Amm + X @ Amp @ X

    def term_scale(X):
        nx = np.linalg.norm(X, np.inf)
        return n_pm + n_pp * nx + nx * n_mm + nx * n_mp * nx

    for k in range(max_steps):
        R = residual(X)
        if (k >= min_steps
                and np.linalg.norm(R, np.inf) <= 1e-12 * term_scale(X)):
            break
        X = X + scipy.linalg.solve_sylvester(App + X @ Amp, Amm + Amp @ X,
                                             -R)
    res = np.linalg.norm(residual(X), np.inf)
    if not np.isfinite(res) or res > 1e-12 * term_scale(X):
        raise RiccatiError(f"Riccati residual {res:.3e} at s={s}")
    return X


def _two_option_solve_psi(model, s):
    """solve_psi under the two-option policy: 2 to 5 steps on the sorted
    path (the per-node one of `psi_reference`), 1 to 12 at each arc
    point."""
    def sorted_solve(model, z):
        return psi_reference.sorted_psi(
            model, z, lambda blocks, X, z: _two_option_refine(blocks, X, z,
                                                              5, 2))

    def refine(blocks, X, sk):
        return _two_option_refine(blocks, X, sk, 12, 1)

    if s.real >= 0:
        return sorted_solve(model, s)
    # the arc starts from queueing.solve_psi at +-i|s|
    with mock.patch.object(queueing, "solve_psi", sorted_solve), \
            mock.patch.object(queueing, "_newton_refine", refine):
        return solve_psi(model, s)


@pytest.fixture
def sylvester_calls(monkeypatch):
    """The arguments of every Sylvester solve of a Newton step."""
    calls = []
    solve = queueing._solve_sylvester

    def spy(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(queueing, "_solve_sylvester", spy)
    return calls


@pytest.fixture
def eigenbasis_steps(monkeypatch):
    """The number of nodes of each Newton step of the sorted solve (one
    stacked eigenbasis solve per step)."""
    sizes = []
    solve = queueing._solve_sylvester_eig

    def spy(a, mu, q):
        sizes.append(len(a))
        return solve(a, mu, q)

    monkeypatch.setattr(queueing, "_solve_sylvester_eig", spy)
    return sizes


def _condition(model, s, X):
    """NARE term scale over sep of the Newton (Sylvester) operator, per
    max(1, ||X||): how far a residual within the Newton gate can move X."""
    App, Apm, Amp, Amm = _blocks(model, s)
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

    def test_node_values_match_scalar(self):
        p = PhaseType(alpha=np.array([0.2, 0.5, 0.3]),
                      Q=np.array([[-3.0, 1.0, 0.5], [0.5, -2.0, 1.0],
                                  [0.0, 0.5, -1.0]]))
        ss = [complex(b) / 2.0 for b in to_full(talbot_method(16)).nodes]
        for F in phase_type_transform(p):
            values = F.at_rows(np.array([ss]))[0]
            assert len(values) == len(ss)
            for s, v in zip(ss, values):
                assert v == pytest.approx(F(s), rel=1e-13, abs=1e-16)


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
    @example(d_plus=2, d_minus=4, seed=4, log_radius=0.0, angle=3.0,
             sign=1.0)
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

        def failing(blocks, X, s):
            calls.append(s)
            raise RiccatiError(f"Newton step failed at s={s}")

        monkeypatch.setattr(queueing, "solve_psi",
                            lambda model, s: np.zeros((1, 1), complex))
        monkeypatch.setattr(queueing, "_newton_refine", failing)
        s = complex(-2.0, 0.0)
        with pytest.raises(RiccatiError) as info:
            solve_psi(_scalar_model(), s)
        # a quarter arc starts at 32 steps: 32, 64, ..., 4096 is 8 attempts
        assert MAX_ARC_STEPS == 4096 and len(calls) == 8
        msg = str(info.value)
        assert f"s={s}" in msg
        assert f"z={calls[-1]}" in msg
        assert f"{MAX_ARC_STEPS} arc steps" in msg

    @pytest.mark.parametrize("s", [0.5, 2.0 + 3.0j, 1e-3 + 40.0j])
    def test_sorted_solve_makes_one_newton_step(self, s, sylvester_calls,
                                                eigenbasis_steps):
        # the subspace solution plus one step meets the gate, so a second
        # step is not taken; the step is in the eigenbasis, not by
        # Bartels-Stewart
        model = make_experiment_model(5, 10, seed=1)
        X = solve_psi(model, s)
        assert eigenbasis_steps == [1]
        assert sylvester_calls == []
        assert _residual_ok(model, s, X)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_residual_raises_before_a_step(self, bad,
                                                      sylvester_calls):
        model = make_experiment_model(2, 3, seed=1)
        s = 1.0 + 1.0j
        X = np.full((2, 3), bad, dtype=complex)
        with pytest.raises(RiccatiError, match="Riccati residual"):
            _newton_refine(_blocks(model, s), X, s)
        assert sylvester_calls == []

    @settings(max_examples=100, deadline=None)
    @given(d_plus=st.integers(1, 5), d_minus=st.integers(1, 5),
           seed=st.integers(0, 2**16),
           log_radius=st.floats(-1.5, 1.5),
           angle=st.floats(0.0, math.pi),
           sign=st.sampled_from([1.0, -1.0]))
    def test_matches_two_option_policy(self, d_plus, d_minus, seed,
                                       log_radius, angle, sign):
        model = make_experiment_model(d_plus, d_minus, seed)
        r = 10.0 ** log_radius
        s = complex(r * math.cos(angle), sign * r * math.sin(angle))
        X = solve_psi(model, s)
        ref = _two_option_solve_psi(model, s)
        nx = np.linalg.norm(X, np.inf)
        # the gate of test_continuation_matches_cold_start
        tol = 1e-10 * max(1.0, nx) * max(1.0, _condition(model, s, X) / 50)
        assert np.max(np.abs(X - ref)) <= tol

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


class TestSolveSylvester:
    @settings(max_examples=150, deadline=None)
    @given(m=st.integers(1, 12), n=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1),
           log_scale=st.floats(-3.0, 3.0))
    def test_matches_scipy_bitwise(self, m, n, seed, log_scale):
        rng = np.random.default_rng(seed)
        a, b, q = (10.0 ** log_scale * (rng.standard_normal(shape)
                                       + 1j * rng.standard_normal(shape))
                   for shape in ((m, m), (n, n), (m, n)))
        got = _solve_sylvester(a, b, q)
        want = scipy.linalg.solve_sylvester(a, b, q)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_blocked_lapack_matches_scipy_bitwise(self):
        # from about n = 130 LAPACK takes blocked paths, whose results
        # depend on the workspace size
        rng = np.random.default_rng(0)
        a, b, q = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                   for shape in ((130, 130), (3, 3), (130, 3)))
        assert (_solve_sylvester(a, b, q).tobytes()
                == scipy.linalg.solve_sylvester(a, b, q).tobytes())

    def test_norm_is_the_inf_norm(self):
        rng = np.random.default_rng(1)
        for shape in ((1, 1), (3, 5), (5, 3), (10, 10)):
            B = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            assert queueing._norm_inf(B) == np.linalg.norm(B, np.inf)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("which", [0, 1])
    def test_non_finite_input_raises_as_scipy_does(self, bad, which):
        args = [np.eye(3, dtype=complex), 2.0 * np.eye(2, dtype=complex),
                np.ones((3, 2), dtype=complex)]
        args[which][0, 0] = bad
        with pytest.raises(ValueError) as want:
            scipy.linalg.solve_sylvester(*args)
        with pytest.raises(ValueError) as got:
            _solve_sylvester(*args)
        assert str(got.value) == str(want.value)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_operand_raises_riccati_error(self):
        # A finite residual whose Newton operand App + X Amp overflows:
        # Apm + App X cancels to 0, so R = X Amp X = 1e308.
        blocks = tuple(np.array([[v]], dtype=complex)
                       for v in (1e308, -1e308, 1e308, 0.0))
        X = np.ones((1, 1), dtype=complex)
        with pytest.raises(RiccatiError,
                           match="Newton step failed at s=1j: array must "
                                 "not contain infs or NaNs"):
            _newton_refine(blocks, X, 1j)


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


#: node sets in both half-planes: Talbot, the presets, and their full forms
_NODE_SETS = st.builds(
    lambda m, full: to_full(m) if full else m,
    st.one_of(st.integers(2, 32).map(talbot_method),
              st.sampled_from([r for r, _ in PRESET_ROWS]).map(preset_tame)),
    st.booleans())


@settings(max_examples=30, deadline=None)
@given(d_plus=st.integers(1, 4), d_minus=st.integers(1, 4),
       seed=st.integers(0, 2**16), m=_NODE_SETS,
       ts=st.lists(st.floats(0.2, 30.0), min_size=2, max_size=5))
def test_curve_matches_per_t_invert(d_plus, d_minus, seed, m, ts):
    """One array call sweeps each t's nodes on their own: the curve is
    per-t `invert`, bit for bit, flags included."""
    model = make_experiment_model(d_plus, d_minus, seed)
    for transform in fluid_psi_transform(model):
        for t, p in zip(ts, invert_curve(m, transform, ts)):
            try:
                want = invert(m, transform, t)
            except (RiccatiError, SpectralGapError) as exc:
                assert p.error == str(exc)
                continue
            assert p.error is None
            assert p.value.tobytes() == want.tobytes(), t


def _outcome(model, ss, sweep):
    """(solutions, None) of sweep(model, ss), or (None, its error)."""
    try:
        return sweep(model, ss), None
    except (RiccatiError, SpectralGapError) as exc:
        return None, exc


def _assert_matches_reference(model, ss):
    """sweep_psi and the per-node reference agree: the same error, or
    solutions within the gate of test_continuation_matches_cold_start."""
    got, error = _outcome(model, ss, sweep_psi)
    want, ref_error = _outcome(model, ss, psi_reference.sweep_psi)
    assert type(error) is type(ref_error)
    assert str(error) == str(ref_error)
    for s, X, ref in zip(ss, got or (), want or ()):
        if np.array_equal(X, ref):
            continue
        nx = np.linalg.norm(ref, np.inf)
        tol = 1e-10 * max(1.0, nx) * max(1.0, _condition(model, s, ref) / 50)
        assert np.max(np.abs(X - ref)) <= tol, s


def _structured_model(kind, d_plus, d_minus):
    """A model with repeated eigenvalues: the generator of an equal-rate
    birth-death chain, of a cycle, or 1 - nI (all jumps at rate 1), with
    fluid rates +1 on the first d_plus states and -1 on the rest."""
    n = d_plus + d_minus
    if kind == "birth_death":
        Q = np.eye(n, k=1) + np.eye(n, k=-1)
    elif kind == "cycle":
        Q = np.roll(np.eye(n), 1, axis=1)
    else:
        Q = np.ones((n, n)) - np.eye(n)
    Q -= np.diag(Q.sum(axis=1))
    return FluidQueueModel(GeneratorMatrix(Q),
                           np.array([1.0] * d_plus + [-1.0] * d_minus))


class TestSweepPsi:
    @settings(max_examples=60, deadline=None)
    @given(d_plus=st.integers(1, 5), d_minus=st.integers(1, 5),
           seed=st.integers(0, 2**16), t=st.floats(0.1, 30.0),
           m=_NODE_SETS)
    def test_matches_solve_psi(self, d_plus, d_minus, seed, t, m):
        model = make_experiment_model(d_plus, d_minus, seed)
        ss = [complex(b) / t for b in m.nodes]
        for s, X in zip(ss, sweep_psi(model, ss)):
            ref = solve_psi(model, s)
            if s.real >= 0:
                assert np.array_equal(X, ref), s
                continue
            nx = np.linalg.norm(ref, np.inf)
            # the gate of test_continuation_matches_cold_start
            tol = 1e-10 * max(1.0, nx) * max(1.0,
                                             _condition(model, s, ref) / 50)
            assert np.max(np.abs(X - ref)) <= tol, s

    @settings(max_examples=40, deadline=None)
    @given(d_plus=st.integers(1, 6), d_minus=st.integers(1, 6),
           seed=st.integers(0, 2**16),
           ss=st.lists(st.builds(complex, st.floats(0.0, 50.0),
                                 st.floats(-50.0, 50.0)),
                       min_size=1, max_size=8))
    def test_stacked_sorted_solve_matches_single_nodes(self, d_plus, d_minus,
                                                        seed, ss):
        # one stacked eigen-solve for k nodes, k eigen-solves of one node
        model = make_experiment_model(d_plus, d_minus, seed)
        for s, X in zip(ss, sweep_psi(model, ss)):
            assert X.tobytes() == sweep_psi(model, [s])[0].tobytes(), s

    def test_node_at_zero_raises_spectral_gap(self):
        # the symmetric scalar model has a double root of the NARE at s = 0
        model = _scalar_model(1.0, 1.0)
        ss = [1.0 + 1.0j, 0.5, 0.0, 2.0 - 1.0j, -1.0 + 1.0j]
        with pytest.raises(SpectralGapError,
                           match=r"ambiguous eigenvalue splitting at s=0j:"):
            sweep_psi(model, ss)

    @settings(max_examples=60, deadline=None)
    @given(d_plus=st.integers(1, 6), d_minus=st.integers(1, 6),
           seed=st.integers(0, 2**16), t=st.floats(0.1, 30.0),
           m=_NODE_SETS, zero=st.booleans())
    def test_matches_per_node_reference(self, d_plus, d_minus, seed, t, m,
                                        zero):
        model = make_experiment_model(d_plus, d_minus, seed)
        ss = [complex(b) / t for b in m.nodes] + [0j] * zero
        _assert_matches_reference(model, ss)

    @pytest.mark.parametrize("kind", ["birth_death", "cycle", "ones"])
    @pytest.mark.parametrize("d_plus, d_minus", [(1, 1), (2, 3), (3, 3),
                                                 (5, 2), (4, 6)])
    def test_repeated_eigenvalues_match_reference(self, kind, d_plus,
                                                  d_minus):
        # equal rates make H(s) have repeated eigenvalues; with d+ = d-
        # the drift is 0 and s = 0 has no spectral gap
        model = _structured_model(kind, d_plus, d_minus)
        for m in (to_full(talbot_method(24)), preset_tame(11.2)):
            for t in (0.3, 1.0, 10.0):
                _assert_matches_reference(
                    model, [complex(b) / t for b in m.nodes])
        _assert_matches_reference(model, [0.5, 2.0 + 1.0j, 0j, 1e-9j])

    def test_first_error_in_sweep_order(self):
        # the upper half-plane is walked first, so s = 0j fails before
        # s = -0j, which comes first in ss
        model = _scalar_model(1.0, 1.0)
        with pytest.raises(SpectralGapError,
                           match=r"ambiguous eigenvalue splitting at s=0j:"):
            sweep_psi(model, [complex(0.0, -0.0), 1.0 + 1.0j,
                              complex(0.0, 0.0)])

    def test_later_steps_converge(self, monkeypatch):
        # a first step off by 1e-6 leaves the gate unmet, so each node is
        # refined from X0 by _newton_refine, as the reference refines it
        model = make_experiment_model(3, 4, seed=2)
        ss = [complex(b) / 2.0 for b in to_full(talbot_method(16)).nodes
              if complex(b).real >= 0]
        want = psi_reference.sweep_psi(model, ss)
        solve = queueing._solve_sylvester_eig
        monkeypatch.setattr(queueing, "_solve_sylvester_eig",
                            lambda a, mu, q: solve(a, mu, q) + 1e-6)
        for s, X, ref in zip(ss, sweep_psi(model, ss), want):
            assert X.tobytes() == ref.tobytes(), s

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("spoil", [1e-6, np.nan])
    def test_unsettled_nodes_get_the_reference(self, monkeypatch, spoil):
        # node 0 is solved as it is alone; node 1's X0 residual overflows;
        # node 2's eigenbasis step is spoiled, by 1e-6 (an unmet gate) or
        # NaN (a failed shifted solve).  Nodes 1 and 2 are refined from X0
        # by _newton_refine, and so get what the per-node reference gives.
        huge = 0.5e308 * np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)
        H = _hamiltonian(_scalar_model(1.0, 2.0))
        Hs = np.array([H([1.0])[0], huge, H([2.0 + 1.0j])[0]])
        ss = [1.0, 3.0, 2.0 + 1.0j]
        lone = solve_psi(_scalar_model(1.0, 2.0), 1.0)
        solve = queueing._solve_sylvester_eig

        def spoiled_step(a, mu, q):
            y = solve(a, mu, q)
            y[2] += spoil
            return y

        monkeypatch.setattr(queueing, "_solve_sylvester_eig", spoiled_step)
        got = queueing._sorted_solve(Hs, ss, 1)
        assert got[0].tobytes() == lone.tobytes()
        with pytest.raises(RiccatiError, match="Riccati residual nan") as info:
            psi_reference.sorted_node(huge, ss[1], 1)
        assert type(got[1]) is RiccatiError
        assert str(got[1]) == str(info.value)
        want = psi_reference.sorted_node(Hs[2], ss[2], 1)
        assert got[2].tobytes() == want.tobytes()

    def test_defective_cluster_fails_as_the_reference(self):
        # on the 10-state cycle, the six eigenvalues of H(s) near -1 at
        # s = 738.1i have nearly parallel eigenvectors (cond T = 2.4e34):
        # the eigenbasis step leaves the gate unmet, and the refinement
        # from X0 raises as the reference's does (steps that kept the B
        # of X0 passed the gate with entries of X up to 1.6e15)
        model = _structured_model("cycle", 4, 6)
        s = 738.1060695286759j
        _assert_matches_reference(model, [s])
        with pytest.raises(RiccatiError, match="Riccati residual"):
            solve_psi(model, s)

    def test_singular_subspace_basis_fails_its_node_only(self):
        # the eigenvector of -1 is (0, 1), so its minus part T is 0; the
        # other node of the stack is solved as it is alone
        bad = np.array([[2.0, 0.0], [1.0, -1.0]], dtype=complex)
        good = _hamiltonian(_scalar_model())([1.0])[0]
        error, X = queueing._sorted_solve(np.array([bad, good]), [2j, 1.0],
                                          1)
        assert isinstance(error, RiccatiError)
        assert str(error) == "singular subspace basis at s=2j: Singular matrix"
        assert X.tobytes() == solve_psi(_scalar_model(), 1.0).tobytes()

    def test_subnormal_phase(self):
        # cmath.phase(2+5e-324j) raises OverflowError; the order of the
        # sweep does not depend on it
        model = make_experiment_model(1, 1, seed=0)
        X, = sweep_psi(model, [complex(2.0, 5e-324)])
        assert np.max(np.abs(X - solve_psi(model, 2.0))) <= 1e-15

    def test_failed_warm_start_falls_back_to_the_arc(self, monkeypatch):
        model = make_experiment_model(5, 10, seed=1)
        m = to_full(talbot_method(24))
        ss = [complex(b) / 3.0 for b in m.nodes]
        want = [solve_psi(model, s) for s in ss]
        refine = queueing._newton_refine
        forced = []

        def failing_warm_start(blocks, X, s):
            # the refinements sweep_psi itself makes are the warm starts
            if sys._getframe(1).f_code is sweep_psi.__code__:
                forced.append(s)
                raise RiccatiError(f"forced failure at s={s}")
            return refine(blocks, X, s)

        monkeypatch.setattr(queueing, "_newton_refine", failing_warm_start)
        got = sweep_psi(model, ss)
        # each Re s < 0 node has a predecessor: Talbot starts at Re s > 0
        assert len(forced) == sum(s.real < 0 for s in ss)
        for X, ref in zip(got, want):
            assert np.array_equal(X, ref)

    def test_half_planes_split_by_sign_of_imag(self):
        # psi_hat of the scalar model jumps across its cut [-2, 0]; a node
        # on the cut takes the side of the sign of its imaginary part
        model = _scalar_model(1.0, 1.0)
        ss = [0.5 + 0.5j, 0.5 - 0.5j, -1.0 + 1e-3j, -1.0 - 1e-3j,
              complex(-1.0, 0.0), complex(-1.0, -0.0)]
        got = sweep_psi(model, ss)
        for s, X in zip(ss, got):
            assert abs(X - solve_psi(model, s)).max() <= 1e-12, s
        assert abs(got[4] - got[5]).max() > 1.0

    def test_talbot24_sylvester_solves(self, sylvester_calls):
        model = make_experiment_model(5, 10, seed=1)
        for transform in fluid_psi_transform(model):
            sylvester_calls.clear()
            invert(talbot_method(24), transform, 1.0)
            # 144 when each node is solved on its own
            assert len(sylvester_calls) <= 40

    def test_psi_and_Psi_nodes(self):
        model = make_experiment_model(2, 3, seed=4)
        psi, Psi = fluid_psi_transform(model)
        ss = [complex(b) / 2.0 for b in to_full(talbot_method(12)).nodes]
        a = psi.at_rows(np.array([ss]))[0]
        b = Psi.at_rows(np.array([ss]))[0]
        for s, x, y in zip(ss, a, b):
            assert np.array_equal(x / s, y)


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
