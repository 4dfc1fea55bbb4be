import math
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

import psi_reference
from awilt import queueing
from awilt.errors import RiccatiError, SpectralGapError
from awilt.invert import invert, invert_curve
from awilt.methods import talbot_method, to_full
from awilt.queueing import (FluidQueueModel, GeneratorMatrix,
                            PhaseType, _hamiltonian, _newton_refine,
                            _riccati_blocks, fluid_psi_transform,
                            make_experiment_model, phase_type_ground_truth,
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


def _assert_matches_arc(d_plus, d_minus, seed, log_radius, angle, sign):
    """solve_psi at s = 10^log_radius e^{+-i angle} (-r +- 0.0j at angle
    pi) is the fixed-step continuation from |s| (`psi_reference.arc_psi`),
    within the gate that the condition of the NARE at s allows."""
    model = make_experiment_model(d_plus, d_minus, seed)
    r = 10.0 ** log_radius
    s = (complex(-r, sign * 0.0) if angle == math.pi
         else complex(r * math.cos(angle), sign * r * math.sin(angle)))
    X = solve_psi(model, s)
    ref = psi_reference.arc_psi(model, s)
    nx = np.linalg.norm(X, np.inf)
    # Both solves pass the same 1e-12 residual gate, so they can differ by
    # about 1e-12 times the condition number; near a branch point of psi_hat
    # (condition 300 to 3000 in 4000 random draws) that reaches 2e-10.
    tol = 1e-10 * max(1.0, nx) * max(1.0, _condition(model, s, X) / 50)
    assert np.max(np.abs(X - ref)) <= tol
    assert _residual_ok(model, s, X)


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
    """solve_psi at Re s >= 0 under the two-option policy: 2 to 5 steps on
    the sorted path (the per-node one of `psi_reference`)."""
    return psi_reference.sorted_psi(
        model, s, lambda blocks, X, z: _two_option_refine(blocks, X, z, 5, 2))


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
def schur_calls(monkeypatch):
    """The s of every node solved from its Schur basis."""
    calls = []
    solve = queueing._schur_solve

    def spy(H, mu, dm, s):
        calls.append(s)
        return solve(H, mu, dm, s)

    monkeypatch.setattr(queueing, "_schur_solve", spy)
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
        # same function without the cancellation at large |s|.  -2 + 1e-9j
        # is 1e-9 from the branch point -2.
        model = _scalar_model(1.0, 1.0)
        pts = [-0.5 + 1e-3j, -3.0 + 0.1j, -10.0 - 5.0j, -100.0 + 0.5j,
               -2.0 + 1e-9j]
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

    # each example's reference is a 1024-step Newton arc (about 0.1 s)
    @settings(max_examples=25, deadline=None)
    @given(d_plus=st.integers(1, 5), d_minus=st.integers(1, 5),
           seed=st.integers(0, 2**16),
           log_radius=st.floats(-1.5, 1.5),
           angle=st.one_of(st.floats(0.5 * math.pi, math.pi,
                                     exclude_min=True),
                           st.just(math.pi)),
           sign=st.sampled_from([1.0, -1.0]))
    @example(d_plus=2, d_minus=4, seed=4, log_radius=0.0, angle=3.0,
             sign=1.0)
    # two eigenvalues of H(z) come within 0.05 of each other near
    # arg z = 3.04 on this arc: a Newton walk along it with step halving,
    # from +-i|s| or from |s| at 64 steps, ends on another solution
    @example(d_plus=5, d_minus=5, seed=1, log_radius=0.0,
             angle=3.1404879563965915, sign=1.0)
    def test_continuation_matches_cold_start(self, d_plus, d_minus, seed,
                                             log_radius, angle, sign):
        _assert_matches_arc(d_plus, d_minus, seed, log_radius, angle, sign)

    @settings(max_examples=10, deadline=None)
    @given(d_plus=st.integers(1, 5), d_minus=st.integers(1, 5),
           seed=st.integers(0, 2**16),
           log_radius=st.floats(-1.5, 1.5),
           offset=st.one_of(st.just(0.0), st.floats(0.0, 0.05)),
           sign=st.sampled_from([1.0, -1.0]))
    @example(d_plus=2, d_minus=5, seed=2, log_radius=0.0, offset=0.0,
             sign=1.0)
    def test_near_negative_axis_matches_cold_start(self, d_plus, d_minus,
                                                   seed, log_radius, offset,
                                                   sign):
        # offset 0 is s = -r +- 0.0j
        _assert_matches_arc(d_plus, d_minus, seed, log_radius,
                            math.pi - offset, sign)

    def test_continuation_failure_names_both_points(self, monkeypatch):
        # every tracked choice is ambiguous, so the first step of the arc
        # from 2j is bisected PATH_DEPTH times, and then the path gives up
        ends = []
        stacked = queueing._stacked_solve

        def spy(Hs, ss, *args):
            ends.append(ss[-1])
            return stacked(Hs, ss, *args)

        monkeypatch.setattr(queueing, "_track", lambda U, V, dm: None)
        monkeypatch.setattr(queueing, "_stacked_solve", spy)
        s = complex(-2.0, 0.0)
        with pytest.raises(RiccatiError) as info:
            solve_psi(_scalar_model(), s)
        # the sweep's own stack, the sorted start 2j, then s and the 50
        # points that halve the step from 2j in log z, each alone
        assert queueing.PATH_DEPTH == 50
        assert ends[:3] == [s, 2j, s] and len(ends) == 53
        assert [abs(z) for z in ends[3:]] == pytest.approx([2.0] * 50,
                                                          rel=1e-15)
        args = [math.atan2(z.imag, z.real) for z in ends[2:]]
        assert args == pytest.approx([math.pi / 2 + math.pi / 2 ** (k + 1)
                                      for k in range(51)], rel=1e-15)
        assert str(info.value) == (
            f"no tracked path to s={s}: the step from z=2j to z={ends[-1]} "
            f"is in doubt after 50 bisections")

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
           angle=st.floats(0.0, 0.5 * math.pi),
           sign=st.sampled_from([1.0, -1.0]))
    def test_matches_two_option_policy(self, d_plus, d_minus, seed,
                                       log_radius, angle, sign):
        # Re s >= 0 only: at Re s < 0 no Newton refinement walks an arc
        # any more, and test_continuation_matches_cold_start compares with
        # the fixed-step one
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
    def test_norm_is_the_inf_norm(self):
        rng = np.random.default_rng(1)
        for shape in ((1, 1), (3, 5), (5, 3), (10, 10)):
            B = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            assert queueing._norm_inf(B) == np.linalg.norm(B, np.inf)

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

    def test_later_steps_converge(self, monkeypatch, schur_calls):
        # a first step off by 1e-6 leaves the gate unmet, so each node is
        # solved from its Schur basis, and gets the reference's value, the
        # refinement from its eigenvectors, within the gate
        model = make_experiment_model(3, 4, seed=2)
        ss = [complex(b) / 2.0 for b in to_full(talbot_method(16)).nodes
              if complex(b).real >= 0]
        solve = queueing._solve_sylvester_eig
        monkeypatch.setattr(queueing, "_solve_sylvester_eig",
                            lambda a, mu, q: solve(a, mu, q) + 1e-6)
        _assert_matches_reference(model, ss)
        assert sorted(schur_calls, key=ss.index) == ss

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("spoil", [1e-6, np.nan])
    def test_unsettled_nodes_take_the_schur_basis(self, monkeypatch, spoil):
        # node 0 is solved as it is alone; node 1's X0 residual overflows;
        # node 2's eigenbasis step is spoiled, by 1e-6 (an unmet gate) or
        # NaN (a failed shifted solve).  Nodes 1 and 2 are solved from
        # their Schur bases, alone: node 1's refinement fails as the
        # per-node reference's does, and node 2 gets what _schur_solve
        # gives it.
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
        got = queueing._stacked_solve(Hs, ss, 1, [[0, 1, 2]])
        assert got[0].tobytes() == lone.tobytes()
        with pytest.raises(RiccatiError, match="Riccati residual nan") as info:
            psi_reference.sorted_node(huge, ss[1], 1)
        assert type(got[1]) is RiccatiError
        assert str(got[1]) == str(info.value)
        vals = np.linalg.eigvals(Hs[2])
        mu = vals[np.argsort(vals.real, kind="stable")[:1]]
        want = queueing._schur_solve(Hs[2], mu, 1, ss[2])
        assert got[2].tobytes() == want.tobytes()
        ref = psi_reference.sorted_node(Hs[2], ss[2], 1)
        assert np.abs(got[2] - ref).max() <= 1e-15

    def test_defective_cluster_solves_from_the_schur_basis(self,
                                                          schur_calls):
        # on the 10-state cycle, the six eigenvalues of H(s) near -1 at
        # s = 738.1i have nearly parallel eigenvectors (cond T = 2.4e34):
        # the eigenbasis step leaves the gate unmet, and so does the
        # refinement from X0 = V_bot T^-1 (steps that kept the B of X0
        # passed the gate with entries of X up to 1.6e15).  The Schur basis
        # of the same eigenvalues has cond Q_top near 1, and its refinement
        # meets the gate.
        model = _structured_model("cycle", 4, 6)
        s = 738.1060695286759j
        with pytest.raises(RiccatiError, match="Riccati residual"):
            psi_reference.sorted_psi(model, s)
        X = solve_psi(model, s)
        assert schur_calls == [s]
        assert _residual_ok(model, s, X)
        # X is the minimal solution: A_mm + A_mp X has the d- eigenvalues
        # of H(s) of smallest real part (the cluster near -1 - 738.1i)
        App, Apm, Amp, Amm = _blocks(model, s)
        got = np.sort_complex(np.linalg.eigvals(Amm + Amp @ X))
        vals = np.linalg.eigvals(_hamiltonian(model)([s])[0])
        want = np.sort_complex(vals[np.argsort(vals.real)[:6]])
        assert np.abs(got - want).max() <= 1e-2

    def test_singular_subspace_basis_fails_its_node_only(self):
        # the eigenvector of -1 is (0, 1), so its minus part T is 0, and so
        # is Q_top of its Schur basis; the other node of the stack is
        # solved as it is alone
        bad = np.array([[2.0, 0.0], [1.0, -1.0]], dtype=complex)
        good = _hamiltonian(_scalar_model())([1.0])[0]
        error, X = queueing._stacked_solve(np.array([bad, good]), [2j, 1.0],
                                           1, [[1, 0]])
        assert isinstance(error, RiccatiError)
        assert str(error) == "no Schur basis at s=2j: Singular matrix"
        assert X.tobytes() == solve_psi(_scalar_model(), 1.0).tobytes()

    def test_subnormal_phase(self):
        # cmath.phase(2+5e-324j) raises OverflowError; the order of the
        # sweep does not depend on it
        model = make_experiment_model(1, 1, seed=0)
        X, = sweep_psi(model, [complex(2.0, 5e-324)])
        assert np.max(np.abs(X - solve_psi(model, 2.0))) <= 1e-15

    def test_path_after_a_node_at_zero_starts_on_the_arc(self, monkeypatch):
        # no path is linear in log z from 0: a node whose choice is in
        # doubt after s = 0 is tracked from +-i|s|, as if it were first
        model = make_experiment_model(2, 3, seed=1)
        s = -1.0 + 1.0j
        track, stacked = queueing._track, queueing._stacked_solve
        calls, ends = [], []

        def doubtful_once(U, V, dm):
            calls.append(None)
            return None if len(calls) == 1 else track(U, V, dm)

        def spy(Hs, ss, *args):
            ends.append(ss[-1])
            return stacked(Hs, ss, *args)

        monkeypatch.setattr(queueing, "_track", doubtful_once)
        monkeypatch.setattr(queueing, "_stacked_solve", spy)
        X = sweep_psi(model, [0j, s])[1]
        assert ends[:2] == [s, complex(0.0, abs(s))]
        monkeypatch.undo()
        assert np.abs(X - solve_psi(model, s)).max() <= 1e-12

    def test_failed_start_of_the_arc_raises(self, monkeypatch):
        # no route solves the sorted start 2j of the lone node's arc, and
        # its error is raised
        monkeypatch.setattr(queueing, "_solve_sylvester_eig",
                            lambda a, mu, q: np.full(q.shape, np.nan))

        def failing(H, mu, dm, s):
            raise RiccatiError(f"forced failure at s={s}")

        monkeypatch.setattr(queueing, "_schur_solve", failing)
        with pytest.raises(RiccatiError, match=r"^forced failure at s=2j$"):
            solve_psi(_scalar_model(), complex(-2.0, 0.0))

    def test_failed_schur_reordering_raises(self, monkeypatch):
        # ztrsen's info 1: eigenvalues too close to reorder
        import scipy.linalg.lapack
        reorder = scipy.linalg.lapack.ztrsen
        monkeypatch.setattr(scipy.linalg.lapack, "ztrsen",
                            lambda *args, **kw: (*reorder(*args, **kw)[:-1],
                                                 1))
        H = _hamiltonian(_scalar_model(1.0, 2.0))([1.0])[0]
        vals = np.linalg.eigvals(H)
        with pytest.raises(RiccatiError,
                           match=r"^no Schur basis at s=1.0: ztrsen info 1$"):
            queueing._schur_solve(H, vals[np.argsort(vals.real)[:1]], 1, 1.0)

    def test_unsolved_nodes_take_the_refined_path(self, monkeypatch):
        # every Re s < 0 node of the sweep's own stack is left unsolved, as
        # when its Schur basis raises, so each takes a refined path from
        # the node before it, and gets the value the sweep gives it
        model = make_experiment_model(5, 10, seed=1)
        m = to_full(talbot_method(24))
        ss = [complex(b) / 3.0 for b in m.nodes]
        want = sweep_psi(model, ss)
        stacked = queueing._stacked_solve
        paths = []

        def unsolved(Hs, path, dm, halves, start=None):
            out = stacked(Hs, path, dm, halves, start)
            if paths:
                paths[-1].append((path[-1], start))
            else:  # the sweep's own stack
                out = [RiccatiError(f"forced failure at s={s}")
                       if s.real < 0 else X for s, X in zip(path, out)]
            paths.append([])
            return out

        monkeypatch.setattr(queueing, "_stacked_solve", unsolved)
        got = sweep_psi(model, ss)
        ends = [end for call in paths for end, _ in call]
        # each Re s < 0 node has a predecessor (Talbot starts at Re s > 0),
        # and its path of 4 steps settles
        left = [s for s in ss if s.real < 0]
        assert sorted(ends, key=ss.index) == left
        assert all(start is not None for call in paths for _, start in call)
        for s, X, ref in zip(ss, got, want):
            nx = np.linalg.norm(ref, np.inf)
            tol = 1e-10 * max(1.0, nx) * max(1.0,
                                             _condition(model, s, ref) / 50)
            assert np.max(np.abs(X - ref)) <= tol, s

    def test_defective_cluster_takes_the_schur_basis(self, schur_calls):
        # Talbot-24 at t = 0.3 on the 10-state cycle: at s = -731.79
        # +- 96.34i the six tracked eigenvectors are nearly parallel
        # (cond T = 3e60), the eigenbasis step misses the gate, and these
        # two nodes alone are solved from their Schur bases.  They get the
        # warm start from the node before them in the walk (which the
        # sweep gave them before it had Schur bases) within 1e-15.
        model = _structured_model("cycle", 4, 6)
        ss = [complex(b) / 0.3 for b in to_full(talbot_method(24)).nodes]
        got = sweep_psi(model, ss)
        pair = [complex(-731.7914697830261, -96.342174710087),
                complex(-731.7914697830261, 96.342174710087)]
        assert sorted(schur_calls, key=lambda s: s.imag) == pair
        for s in pair:
            half = sorted((z for z in ss if z.imag * s.imag > 0),
                          key=lambda z: abs(math.atan2(z.imag, z.real)))
            before = got[ss.index(half[half.index(s) - 1])]
            warm = _newton_refine(_blocks(model, s), before, s)
            assert (np.abs(got[ss.index(s)] - warm).max()
                    <= 1e-15 * np.linalg.norm(warm, np.inf))
        _assert_matches_reference(model, ss)

    def test_ambiguous_selection_takes_the_refined_path(self, monkeypatch):
        # H(-1) of the symmetric scalar model is real with eigenvalues +-i:
        # its two eigenvectors are conjugate, so equally far from the real
        # one H(0.5) selects, and s = -1 takes a refined path from s = 0.5
        model = _scalar_model(1.0, 1.0)
        vals, vecs = np.linalg.eig(_hamiltonian(model)([0.5, -1.0]))
        assert queueing._select(vals, vecs, [0.5, -1.0 + 0j], [[0, 1]],
                                1)[1] is None
        refined = queueing._refined_path
        paths = []

        def spy(H, dm, s, before):
            paths.append((s, before[0]))
            return refined(H, dm, s, before)

        monkeypatch.setattr(queueing, "_refined_path", spy)
        X = sweep_psi(model, [0.5, complex(-1.0, 0.0)])[1]
        assert paths == [(complex(-1.0, 0.0), 0.5)]
        # the oracle of test_left_halfplane_oracle, -1j at s = -1 + 0.0j
        assert abs(X[0, 0] - (-1j)) <= 1e-12

    def test_singular_tracked_basis_is_left_to_the_refined_path(self):
        # the Re s < 0 node tracks the eigenvector (-0.05, 1) of the node
        # before it to its eigenvector (0, 1), whose minus part T is 0, as
        # is Q_top of its Schur basis: it gets that error, which sweep_psi
        # answers with a refined path
        before = np.array([[1.0, 0.1], [0.0, -1.0]], dtype=complex)
        bad = np.array([[2.0, 0.0], [1.0, -1.0]], dtype=complex)
        X, left = queueing._stacked_solve(np.array([before, bad]),
                                          [1.0, -1.0 + 1.0j], 1, [[0, 1]])
        assert type(left) is RiccatiError
        assert str(left) == ("no Schur basis at s=(-1+1j): "
                             "Singular matrix")
        alone, = queueing._stacked_solve(before[None], [1.0], 1, [[0]])
        assert X.tobytes() == alone.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(d_plus=st.integers(1, 5), d_minus=st.integers(1, 5),
           seed=st.integers(0, 2**16), t=st.floats(0.1, 30.0),
           m=_NODE_SETS)
    def test_tracked_eigenvalues_certify_the_warm_start(self, d_plus,
                                                        d_minus, seed, t, m):
        # at each Re s < 0 node the tracked path settles, the spectrum of
        # B = A_mm + A_mp X is the tracked set mu, for X the tracked
        # solution and for X the warm start from the node before it (the
        # per-node reference): both are on the branch mu names
        model = make_experiment_model(d_plus, d_minus, seed)
        ss = [complex(b) / t for b in m.nodes]
        select, stacked = queueing._select, queueing._stacked_solve
        tracked, settled, calls = {}, [], []

        def select_spy(vals, vecs, ss, halves, dm, start=None):
            sel = select(vals, vecs, ss, halves, dm, start)
            if len(calls) == 1:  # the sweep's own stack, not a path's
                tracked.update((k, vals[k][c]) for k, c in enumerate(sel)
                               if ss[k].real < 0
                               and isinstance(c, np.ndarray))
            return sel

        def stacked_spy(*args):
            calls.append(None)
            out = stacked(*args)
            if len(calls) == 1:
                settled.extend(k for k, X in enumerate(out)
                               if k in tracked and isinstance(X, np.ndarray))
            return out

        with mock.patch.object(queueing, "_select", select_spy), \
                mock.patch.object(queueing, "_stacked_solve", stacked_spy):
            got = sweep_psi(model, ss)
        want = psi_reference.sweep_psi(model, ss)
        for k in settled:
            s, mu = ss[k], tracked[k]
            App, Apm, Amp, Amm = _blocks(model, s)
            for X in (got[k], want[k]):
                lam, W = np.linalg.eig(Amm + Amp @ X)
                dist = np.abs(mu[:, None] - lam[None, :])
                rows, cols = scipy.optimize.linear_sum_assignment(dist)
                # a move of X within the gate moves B by ||A_mp|| times as
                # much, and its eigenvalues by cond(W) times that
                nx = np.linalg.norm(X, np.inf)
                tol = (1e-10 * max(1.0, nx)
                       * max(1.0, _condition(model, s, X) / 50)
                       * max(1.0, np.linalg.norm(Amp, np.inf))
                       * np.linalg.cond(W))
                assert dist[rows, cols].max() <= tol, s

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
            # every node is settled by the stacked eigenbasis step
            assert len(sylvester_calls) == 0

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
