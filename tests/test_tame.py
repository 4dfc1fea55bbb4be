import json
import math
import os
import shutil
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from awilt import tame
from awilt.diagnostics import epsilon_accuracy
from awilt.domains import (Disc, ImagSegment, RealSegment, Rectangle,
                           discretize, distance_to, format_domain,
                           fov_hermitian_bound)
from awilt.errors import NumericalError, PoleInsideDomainError
from awilt.methods import (AWMethod, load_method, pair_conjugates, to_full,
                           to_reduced)
from awilt.numerics import U
from awilt.queueing import make_experiment_model
from awilt.tame import (PRESET_ROWS, AAAReport, BarycentricApproximant,
                        aaa_fit, barycentric_eval, build_presets, build_tame,
                        extract_poles, extract_residues, preset_entry,
                        preset_filename, preset_tame)

import build_reference
import domain_reference
import mp_reference
from mp_reference import DPS


def _reference_poles(b):
    """Poles from mpmath.eig at DPS digits, rounded to binary64.

    The finite eigenvalues of the arrowhead pencil are those of its Schur
    complement diag(z) - 1 u^T / u0 on the support block.
    """
    K = len(b.support)
    with mpmath.workdps(DPS):
        u0 = mpmath.mpc(b.weights[0])
        M = mpmath.matrix(K, K)
        for i in range(K):
            for k in range(K):
                M[i, k] = -mpmath.mpc(b.weights[1 + k]) / u0
            M[i, i] += mpmath.mpc(b.support[i])
        vals = mpmath.eig(M, left=False, right=False)
        if isinstance(vals, tuple):  # 1x1 matrices ignore the flags
            vals = vals[0]
        return np.array([complex(v) for v in vals])


def _random_symmetric_approximant(rng):
    """1-2 real support points and 0-2 conjugate pairs, weights O(1)."""
    def signed(n):
        return rng.choice([-1.0, 1.0], n) * rng.uniform(0.2, 2.0, n)

    n_real, n_pair = int(rng.integers(1, 3)), int(rng.integers(0, 3))
    support = list(rng.uniform(-3, 3, n_real))
    weights = list(signed(n_real))
    for _ in range(n_pair):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.5, 3))
        w = complex(*signed(2))
        support += [z, z.conjugate()]
        weights += [w, w.conjugate()]
    u0 = float(signed(1)[0])
    return BarycentricApproximant(
        support=np.array(support, dtype=complex),
        values=np.ones(len(support), dtype=complex),
        weights=np.array([u0] + weights, dtype=complex))


def _single_pole_approximant(pole=1.0):
    """r(z) = 1/(pole - z) in barycentric form with support {0}."""
    # denominator -1 + pole/z = (pole - z)/z vanishes exactly at the pole
    return BarycentricApproximant(support=np.array([0.0 + 0j]),
                                  values=np.array([1.0 / pole + 0j]),
                                  weights=np.array([-1.0 + 0j, pole + 0j]))


class TestBarycentricEval:
    def test_single_support_point(self):
        b = BarycentricApproximant(support=np.array([0.0 + 0j]),
                                   values=np.array([1.0 + 0j]),
                                   weights=np.array([1.0 + 0j, 1.0 + 0j]))
        # r(z) = (1/z) / (1 + 1/z) = 1/(z + 1)
        assert barycentric_eval(b, 1.0) == pytest.approx(0.5)
        assert abs(barycentric_eval(b, 1e8)) < 1.01e-8  # vanishes at infinity
        assert barycentric_eval(b, 0.0) == 1.0  # interpolation is exact

    def test_denominator_zero_off_support(self):
        # d(z) = 1 + 1/z vanishes at z = -1, which is not a support point
        b = BarycentricApproximant(support=np.array([0.0 + 0j]),
                                   values=np.array([1.0 + 0j]),
                                   weights=np.array([1.0 + 0j, 1.0 + 0j]))
        with pytest.raises(NumericalError, match="denominator vanishes"):
            barycentric_eval(b, -1.0)

    def test_interpolation_near_support(self):
        b = _single_pole_approximant(2.0)
        z = 1e-9  # raw formula just off the support point
        want = 1.0 / (2.0 - z)
        assert abs(barycentric_eval(b, z) - want) < 1e-13

    def test_vectorized(self):
        b = _single_pole_approximant(3.0)
        zs = np.array([0.0, 1.0, 1.0j])
        out = barycentric_eval(b, zs)
        assert np.max(np.abs(out - 1.0 / (3.0 - zs))) < 1e-14


class TestAAAFit:
    def test_recovers_low_degree_rational(self):
        poles = np.array([5.0, 6.0, 7.0 + 2.0j, 7.0 - 2.0j])
        res = np.array([1.0, -2.0, 1.5 + 0.5j, 1.5 - 0.5j])

        def target(z):
            return complex(np.sum(res / (poles - z)))

        Z = discretize(Disc(complex(0.0), 2.0), 400)
        F = np.array([target(z) for z in Z])
        b, report = aaa_fit(F, Z, max_order=8, tol=1e-13)
        grid = discretize(Disc(complex(0.0), 2.0), 997)
        err = np.abs(barycentric_eval(b, grid)
                     - np.array([target(z) for z in grid]))
        assert np.max(err) < 1e-12
        assert report.termination == "tolerance"

    @pytest.mark.parametrize("radius,order,eps_max", [
        (4.0, 10, 1e-11),
        (0.6, 6, 1e-12),
    ])
    def test_exp_fit_accuracy(self, radius, order, eps_max):
        Z = discretize(Disc(complex(-radius), radius), 1000)
        b, report = aaa_fit(np.exp(Z), Z, max_order=order, tol=0.0)
        assert report.epsilon <= eps_max

    def test_residual_history_decreases(self):
        Z = discretize(Disc(complex(-2.0), 2.0), 600)
        _, report = aaa_fit(np.exp(Z), Z, max_order=10, tol=0.0)
        res = report.residuals
        # greedy progress: each step improves, up to a small slack factor
        for a, b_ in zip(res, res[1:]):
            assert b_ <= 10.0 * a

    def test_conjugate_pairs_added_together(self):
        Z = discretize(Disc(complex(-2.0), 2.0), 600)
        b, report = aaa_fit(np.exp(Z), Z, max_order=8, tol=0.0)
        sup = [complex(z) for z in report.support_order]
        k = 0
        while k < len(sup):
            if abs(sup[k].imag) > 1e-12:
                assert sup[k + 1] == sup[k].conjugate()
                k += 2
            else:
                k += 1

    def test_weights_conjugate_symmetric(self):
        Z = discretize(Disc(complex(-2.0), 2.0), 600)
        b, _ = aaa_fit(np.exp(Z), Z, max_order=8, tol=0.0)
        assert b.weights[0].imag == 0.0
        pool = {complex(z): w for z, w in zip(b.support, b.weights[1:])}
        for z, w in pool.items():
            assert pool[z.conjugate()] == w.conjugate()

    def test_odd_budget_stops_before_splitting_pair(self):
        # an imaginary segment has a single real point, so budget 3 can
        # strand one slot when the next candidate is non-real
        Z = discretize(ImagSegment(4.0), 601)
        _, report = aaa_fit(np.exp(Z), Z, max_order=3, tol=0.0)
        assert report.termination in ("no_room_for_pair", "max_order")

    def test_rejects_budget_below_two(self):
        Z = discretize(Disc(complex(-1.0), 1.0), 50)
        with pytest.raises(ValueError, match="max_order must be >= 2"):
            aaa_fit(np.exp(Z), Z, max_order=1)

    def test_rejects_value_count_mismatch(self):
        Z = discretize(Disc(complex(-1.0), 1.0), 50)
        with pytest.raises(ValueError, match="one value per point"):
            aaa_fit(np.exp(Z[:-1]), Z, max_order=4)

    def test_tolerance_met_before_any_iteration(self):
        # tol >= max|F|: no support point, so r = 0 and eps = max|F|, and
        # the approximant has no poles and no residues
        Z = discretize(Disc(complex(-1.0), 1.0), 50)
        F = np.exp(Z)
        fmax = float(np.max(np.abs(F)))
        b, report = aaa_fit(F, Z, max_order=4, tol=fmax)
        assert len(b.support) == 0 and b.weights.tolist() == [1.0]
        assert report.residuals == () and report.termination == "tolerance"
        assert report.epsilon == fmax
        assert barycentric_eval(b, 0.5) == 0.0
        assert not barycentric_eval(b, Z).any()
        assert extract_poles(b).shape == (0,)
        assert extract_residues(b, []).shape == (0,)

    @pytest.mark.parametrize("dom, k, iteration", [
        (RealSegment(4.0), 0, 1), (RealSegment(4.0), 2, 3),
        (Disc(complex(-2.0), 2.0), 1, 2),  # a conjugate pair
    ])
    def test_non_finite_column_raises_in_its_iteration(self, dom, k,
                                                       iteration,
                                                       monkeypatch):
        # Z holds the k-th support point of the plain fit (and its
        # conjugate) twice, so the column it gets is 1/0 on its twin's
        # row: the fit raises in the iteration that adds the point, after
        # the least-squares steps of the ones before, on finite matrices
        Z = discretize(dom, 200)
        z = complex(aaa_fit(np.exp(Z), Z, 8)[1].support_order[k])
        Z = np.concatenate([Z, [z, z.conjugate()] if z.imag else [z]])
        steps = []
        svd = tame.smallest_singular_vector

        def spy(A):
            steps.append(bool(np.all(np.isfinite(A))))
            return svd(A)

        monkeypatch.setattr(tame, "smallest_singular_vector", spy)
        with pytest.raises(ValueError, match="non-finite entries"):
            aaa_fit(np.exp(Z), Z, 8)
        assert steps == [True] * (iteration - 1)

    @pytest.mark.parametrize("dom,count", [
        (Disc(complex(0.0), 1.0), 10),
        # 2 * max_order points leave 10 rows for 11 unknowns at the end
        (RealSegment(4.0), 20),
    ])
    def test_rejects_small_grid(self, dom, count):
        Z = discretize(dom, count)
        with pytest.raises(ValueError, match=r"need \|Z\| >= 2 \* max_order"
                                             r" \+ 1"):
            aaa_fit(np.exp(Z), Z, max_order=10)

    @pytest.mark.parametrize("target,dom", [
        # boundary not closed under conjugation
        (np.exp, Disc(complex(-1.0, 0.5), 1.0)),
        # target with f(conj z) != conj f(z)
        (lambda z: np.exp(1j * z), Disc(complex(-1.0), 1.0)),
    ])
    def test_rejects_asymmetric_input(self, target, dom):
        with pytest.raises(ValueError, match="conjugat"):
            Z = discretize(dom, 200)
            aaa_fit(target(Z), Z, max_order=8)


class TestAAAMatchesReference:
    """`aaa_fit`, whose matrices gain a support point's columns once,
    against the loop that rebuilt them every iteration
    (`build_reference.aaa_fit_reference`), on the first fit of a build and
    on a fit at its refits' tolerance."""

    @pytest.mark.parametrize("dom, nprime", [
        *((Disc(complex(-r), r), n) for r, n in PRESET_ROWS),
        (ImagSegment(80.0), 20),
        (RealSegment(100.0), 33),
        (fov_hermitian_bound(make_experiment_model(5, 10, 1).gen.Q,
                             generator=True), 6),
    ])
    @pytest.mark.parametrize("at_floor", [False, True])
    def test_same_bits(self, dom, nprime, at_floor):
        Z = discretize(dom, 1000)
        F = np.exp(Z)
        tol = 1e2 * U * float(np.max(np.abs(F))) if at_floor else 0.0
        b, report = aaa_fit(F, Z, max_order=2 * nprime, tol=tol)
        want, ref = build_reference.aaa_fit_reference(F, Z, 2 * nprime, tol)
        assert report.support_order == ref.support_order
        assert b.weights.tobytes() == want.weights.tobytes()
        assert report.residuals == ref.residuals
        assert report.termination == ref.termination


_parts = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5])


class TestConjugatePartnersMatchDict:
    """_conjugate_partners pairs each point with the first point equal to
    its conjugate, -0.0 and 0.0 alike, as the dict of first indices in
    `domain_reference` did, and finds the same grids not closed under
    conjugation."""

    @staticmethod
    def _check(pts):
        got = tame._conjugate_partners(pts, np.ones(len(pts), complex))
        want = domain_reference.conjugate_partners(pts)
        assert (got is None) == (want is None)
        if want is not None:
            assert got.tolist() == want

    @given(st.lists(st.tuples(_parts, _parts), min_size=1, max_size=40),
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_grids_with_duplicates(self, parts, close):
        pts = np.array([complex(x, y) for x, y in parts])
        if close:
            pts = np.concatenate([pts, pts.conj()])
        self._check(pts)

    @pytest.mark.parametrize("d", [
        Disc(complex(-4.0), 4.0), Disc(complex(-1.0, 0.5), 1.0),
        ImagSegment(80.0), RealSegment(100.0),
        Rectangle(-3.0, -0.0, -2.0, 2.0), Rectangle(-5.0, 1.0, -2.0, 3.0),
        Rectangle(-3.0, 0.0, -0.0, 0.0)], ids=format_domain)
    @pytest.mark.parametrize("count", [3, 1000, 4000])
    def test_boundary_grids(self, d, count):
        self._check(discretize(d, count))


class TestExtractPoles:
    def test_single_pole(self):
        b = _single_pole_approximant(1.0)
        poles = extract_poles(b)
        assert len(poles) == 1
        assert poles[0] == pytest.approx(1.0, abs=1e-12)

    def test_imaginary_pair(self):
        # denominator u0 + u1/z + u2/(z-2) proportional to (z^2+1)/(z(z-2))
        b = BarycentricApproximant(
            support=np.array([0.0 + 0j, 2.0 + 0j]),
            values=np.array([1.0 + 0j, 1.0 + 0j]),
            weights=np.array([1.0 + 0j, -0.5 + 0j, 2.5 + 0j]))
        poles = np.sort_complex(extract_poles(b))
        assert np.max(np.abs(poles - np.array([-1j, 1j]))) < 1e-12
        # conjugate pairing is exact, not just close
        assert poles[0] == poles[1].conjugate()

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_extended_eig(self, seed):
        b = _random_symmetric_approximant(np.random.default_rng(seed))
        ref = _reference_poles(b)
        gaps = np.abs(ref[:, None] - ref[None, :]) + np.eye(len(ref))
        assume(np.min(gaps) > 1e-6)  # simple poles only
        want, _ = pair_conjugates(ref, ref)
        got = extract_poles(b)
        assert np.array_equal(got, np.asarray(want, dtype=complex))

    def test_double_pole_rejected(self):
        # d(z) = 1 - 0.5/z + 0.5/(z-2) = (z-1)^2 / (z(z-2))
        b = BarycentricApproximant(
            support=np.array([0.0 + 0j, 2.0 + 0j]),
            values=np.array([1.0 + 0j, 1.0 + 0j]),
            weights=np.array([1.0 + 0j, -0.5 + 0j, 0.5 + 0j]))
        with pytest.raises(NumericalError):
            extract_poles(b)

    def test_pole_counted_infinite_by_the_pencil(self):
        # d(z) = 1e-13 + 1/z has its pole at -1e13, where the pencil's
        # |beta| < 1e3 u |alpha| counts it as infinite
        b = BarycentricApproximant(support=np.array([0.0 + 0j]),
                                   values=np.array([1.0 + 0j]),
                                   weights=np.array([1e-13 + 0j, 1.0 + 0j]))
        with pytest.raises(NumericalError,
                           match="expected 1 finite eigenvalues, got 0"):
            extract_poles(b)

    def test_merged_poles_rejected(self, monkeypatch):
        # d(z) = 1 + 1/z + 1/(z - 2) has poles +-sqrt(2); both guesses
        # polish onto sqrt(2)
        b = BarycentricApproximant(
            support=np.array([0.0 + 0j, 2.0 + 0j]),
            values=np.array([1.0 + 0j, 1.0 + 0j]),
            weights=np.array([1.0 + 0j, 1.0 + 0j, 1.0 + 0j]))
        monkeypatch.setattr(tame, "_pencil_eigenvalues",
                            lambda b: np.array([1.4 + 0j, 1.42 + 0j]))
        with pytest.raises(NumericalError, match=r"poles merge near \(1\.41"):
            extract_poles(b)

    def test_u0_zero_rejected(self):
        b = BarycentricApproximant(support=np.array([0.0 + 0j]),
                                   values=np.array([1.0 + 0j]),
                                   weights=np.array([0.0 + 0j, 1.0 + 0j]))
        with pytest.raises(ValueError):
            extract_poles(b)


class TestExtractResidues:
    def test_single_pole_residue(self):
        b = _single_pole_approximant(2.0)  # r(z) = 1/(2 - z): residue 1
        w = extract_residues(b, np.array([2.0 + 0j]))
        assert w[0] == pytest.approx(1.0, abs=1e-12)

    def test_reconstruction_matches_fit(self):
        Z = discretize(Disc(complex(-1.0), 1.0), 800)
        b, _ = aaa_fit(np.exp(Z), Z, max_order=8, tol=0.0)
        poles = extract_poles(b)
        w = extract_residues(b, poles)
        probe = discretize(Disc(complex(-1.0), 1.0), 2003)
        r_bary = barycentric_eval(b, probe)
        r_pf = (w[None, :] / (poles[None, :] - probe[:, None])).sum(axis=1)
        scale = np.max(np.abs(r_bary))
        assert np.max(np.abs(r_bary - r_pf)) < 1e-9 * scale

    def test_duplicate_poles_rejected(self):
        b = _single_pole_approximant(2.0)
        with pytest.raises(ValueError):
            extract_residues(b, np.array([2.0 + 0j, 2.0 + 0j]))

    def test_pole_on_support_rejected(self):
        from awilt.errors import NumericalError
        b = _single_pole_approximant(2.0)
        with pytest.raises(NumericalError):
            extract_residues(b, np.array([0.0 + 0j]))

    def test_first_offending_pole_decides(self):
        # pole 0 repeats later, pole 1 sits on the support point 0: the
        # check of pole 0 comes first, and the other way round
        b = _single_pole_approximant(2.0)
        with pytest.raises(ValueError, match="distinct"):
            extract_residues(b, np.array([3.0 + 0j, 0.0 + 0j, 3.0 + 0j]))
        with pytest.raises(NumericalError, match="support point"):
            extract_residues(b, np.array([0.0 + 0j, 3.0 + 0j, 3.0 + 0j]))
        # one pole both on the support and repeated: the support check
        with pytest.raises(NumericalError, match="support point"):
            extract_residues(b, np.array([0.0 + 0j, 0.0 + 0j]))


def _two_point_approximant(w2):
    """d(z) = 1 - 0.5/z + w2/(z - 2): poles +-i for w2 = 2.5, a double
    pole at 1 for w2 = 0.5."""
    return BarycentricApproximant(
        support=np.array([0.0 + 0j, 2.0 + 0j]),
        values=np.array([1.0 + 0j, 1.0 + 0j]),
        weights=np.array([1.0 + 0j, -0.5 + 0j, w2 + 0j]))


def _polish_both(b, guesses):
    """The paired polished poles, or the error message, of the
    double-double polish and of the 40-digit reference."""
    out = []
    for polish in (tame._polish_poles, mp_reference.polish_poles):
        try:
            poles = polish(b, guesses)
        except NumericalError as e:
            out.append(str(e))
        else:
            out.append(tuple(pair_conjugates(poles, poles)[0]))
    return out


def _assert_residues_match(b, poles):
    """Each residue part lies within the double-double error bound, plus
    half an ulp, of the 40-digit value, and equals that value rounded to
    binary64 unless the value lies within the bound of a rounding
    midpoint.  There the 40-digit loop picks a side by its own rounding
    noise.  Such near-ties come from exact sums (w = p - z for one
    support point), from the noise parts of real weights, and from sums
    that cancel by more than 2^50, as in weights build_tame prunes."""
    got = extract_residues(b, poles)
    for g, (w, bound) in zip(got, mp_reference.residues(b, poles)):
        for part, exact in ((g.real, w.real), (g.imag, w.imag)):
            with mpmath.workdps(DPS):
                assert abs(part - exact) <= bound + math.ulp(part) / 2
            assert (part == float(exact)
                    or mp_reference.near_midpoint(exact, bound))


class TestPolishMatchesMpmath:
    """The double-double polish and residues against the scalar 40-digit
    loops they replace."""

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_approximants(self, seed):
        b = _random_symmetric_approximant(np.random.default_rng(seed))
        got, want = _polish_both(b, tame._pencil_eigenvalues(b))
        assert got == want
        if isinstance(got, tuple):
            poles = np.array(got)
            near = np.abs(poles[:, None] - b.support).min(axis=1)
            assume(np.all(near > 1e-12 * (1.0 + np.abs(poles))))
            _assert_residues_match(b, poles)

    @pytest.fixture(scope="class")
    def rseg100_fit(self):
        """The K = 66 fit on rseg:100 and its 65 pencil eigenvalues
        (u0 = 0, so build_tame refits it)."""
        Z = discretize(RealSegment(100.0), 1000)
        b, _ = aaa_fit(np.exp(Z), Z, 66)
        assert len(b.support) == 66
        return b, tame._pencil_eigenvalues(b)

    def test_rseg100_fit(self, rseg100_fit):
        b, guesses = rseg100_fit
        got, want = _polish_both(b, guesses)
        assert isinstance(got, tuple) and len(got) == len(guesses)
        assert got == want
        _assert_residues_match(b, np.array(got))

    @given(st.integers(0, 2 ** 32 - 1), st.floats(-12.0, -6.0))
    @settings(max_examples=5, deadline=None)
    def test_rseg100_perturbed_guesses(self, rseg100_fit, seed, log_rel):
        b, guesses = rseg100_fit
        rng = np.random.default_rng(seed)
        noise = (rng.standard_normal(len(guesses))
                 + 1j * rng.standard_normal(len(guesses)))
        got, want = _polish_both(
            b, guesses * (1.0 + 10.0 ** log_rel * noise))
        assert got == want

    def test_cancelling_denominator(self):
        # d(z) = 1e-6 + 1/z - 1/(z - 1e-6): at the poles z ~ +-1 its two
        # sums of 1 cancel to 1e-6
        b = BarycentricApproximant(
            support=np.array([0.0 + 0j, 1e-6 + 0j]),
            values=np.array([1.0 + 0j, 2.0 + 0j]),
            weights=np.array([1e-6 + 0j, 1.0 + 0j, -1.0 + 0j]))
        got, want = _polish_both(b, tame._pencil_eigenvalues(b))
        assert got == want and len(got) == 2
        _assert_residues_match(b, np.array(got))

    def test_singularity_message(self):
        b = _two_point_approximant(2.5)  # poles +-i
        # the second guess sits on a support point
        got, want = _polish_both(b, np.array([1j, 0j, -1j]))
        assert got == want == "pole polish hit a singularity from 0j"

    def test_no_convergence_message(self):
        # a double pole at 1: Newton converges only linearly
        b = _two_point_approximant(0.5)
        got, want = _polish_both(b, np.array([1.5 + 0j]))
        assert got == want == "pole polish did not converge from (1.5+0j)"

    def test_first_failing_guess_in_input_order(self):
        b = _two_point_approximant(0.5)  # the double pole at 1
        for guesses, message in (
                ([1.5, 0.0], "did not converge from (1.5+0j)"),
                ([0.0, 1.5], "hit a singularity from 0j")):
            got, want = _polish_both(b, np.array(guesses, dtype=complex))
            assert got == want == f"pole polish {message}"


class TestBuildTame:
    def test_disc_method_quality(self):
        dom = Disc(complex(-4.0), 4.0)
        m, meta, report = build_tame(dom, 5)
        assert m.reduced
        assert meta.epsilon <= 1e-11
        assert meta.eta >= meta.epsilon
        full = to_full(m)
        for b in full.nodes:
            assert distance_to(dom, complex(b)) > 0.0

    def test_nodes_conjugate_exact(self):
        m, _, _ = build_tame(Disc(complex(-2.0), 2.0), 4)
        full = to_full(m)
        pool = dict(zip(full.nodes, full.weights))
        for b, w in pool.items():
            assert pool[b.conjugate()] == w.conjugate()

    def test_real_segment_gives_reduced(self):
        m, meta, _ = build_tame(RealSegment(5.0), 4)
        assert m.reduced
        assert meta.epsilon < 1e-10

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            build_tame(Disc(complex(-1.0), 1.0), 0)

    @pytest.mark.parametrize("dom", [Rectangle(-5.0, 1.0, -2.0, 3.0),
                                     Disc(complex(-1.0, 0.5), 1.0)])
    def test_asymmetric_domain_rejected(self, dom):
        # the fit adds non-real support points in conjugate pairs, so a
        # domain not symmetric about the real axis is refused up front
        with pytest.raises(ValueError, match="not symmetric"):
            build_tame(dom, 4)

    def test_epsilon_is_diagnostics_epsilon(self):
        dom = Disc(complex(-4.0), 4.0)
        m, meta, _ = build_tame(dom, 5, count=500)
        assert meta.epsilon == epsilon_accuracy(m, discretize(dom, 2000))

    def test_oversized_budget_survives_degeneracy(self):
        # asking for far more entries than the roundoff floor supports
        # must still return a valid method, not crash on u0 -> 0
        m, meta, report = build_tame(Disc(complex(-0.5), 0.5), 12, count=600)
        assert meta.epsilon < 1e-12
        # the spurious poles are pruned, and counted: K support points
        # give K poles
        assert report.refits == ()
        assert report.pruned > 0
        assert report.pruned + len(to_full(m).nodes) == len(
            report.support_order)

    def test_refit_cap_counts_support_points(self):
        # The order-26 fit degenerates; the refit must be capped at the
        # support points (not the iterations) the residual history needed.
        dom = Disc(complex(-31.6), 31.6)
        _, meta10, report10 = build_tame(dom, 10)
        m, meta, report = build_tame(dom, 13)
        assert m.n_entries >= 10
        assert meta.epsilon <= 10 * meta10.epsilon
        # the abandoned 26-point budget is reported, not silent
        assert report10.refits == ()
        assert report.refits == (26,)
        assert len(report.support_order) == 24
        # the refit stops at the floor through AAA's own tolerance
        assert report.termination == "tolerance"

    def test_floor_after_one_support_point(self):
        # e^z on a disc of radius 1e-15 meets the floor after one point;
        # the refit stops there (the reference forced a second point,
        # whose pole solve failed)
        m, meta, report = build_tame(Disc(complex(-1e-15), 1e-15), 2)
        assert report.refits == (4,) and report.termination == "tolerance"
        assert m.n_entries == 1 and meta.epsilon <= 1e-15
        with pytest.raises(NumericalError):
            build_reference.build_tame(Disc(complex(-1e-15), 1e-15), 2)

    def test_failure_at_order_two_is_raised(self, monkeypatch):
        # every pole solve fails, so the refits go down to budget 2, whose
        # failure is raised; budgets 4 and 2 stop one short, with no room
        # for the next conjugate pair
        supports = []

        def fail(b):
            supports.append(len(b.support))
            raise NumericalError("no poles")

        monkeypatch.setattr(tame, "extract_poles", fail)
        with pytest.raises(NumericalError, match="no poles"):
            build_tame(Disc(complex(-4.0), 4.0), 3)
        assert supports == [6, 3, 1]

    def test_overflowing_domain_refused_without_a_warning(self):
        # e^z overflows on the right of the disc: the build raises before
        # the conjugate pairing would subtract inf from inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="F is non-finite on Z"):
                build_tame(Disc(complex(700.0), 20.0), 3)

    def test_pole_inside_domain_raises(self):
        with pytest.raises(PoleInsideDomainError, match=r"pole \(-8\.96"):
            build_tame(RealSegment(1000.0), 12)


class TestBuildMatchesReference:
    """`build_tame` against the refit loop that scanned the residual
    history for the floor (`build_reference`)."""

    @pytest.mark.parametrize("dom, nprime, refits", [
        (ImagSegment(40.0), 16, (32, 28)),
        # refits (40, 32, 30) with one BLAS thread, (40, 34, 32, 30) with 2
        (ImagSegment(50.0), 20, None),
        (Disc(complex(-31.6), 31.6), 13, (26,)),
        (RealSegment(100.0), 33, (66,)),
        (Disc(complex(-3.0), 3.0), 16, (32,)),
        (Disc(complex(-4.0), 4.0), 5, ()),
    ])
    def test_same_method(self, dom, nprime, refits):
        m, _, report = build_tame(dom, nprime)
        nodes, ws, ref = build_reference.build_tame(dom, nprime)
        want = to_reduced(AWMethod(name=m.name, weights=tuple(ws),
                                   nodes=tuple(nodes), reduced=False))
        assert (m.nodes, m.weights) == (want.nodes, want.weights)
        assert report.refits == ref.refits
        assert refits is None or report.refits == refits
        assert report.pruned == ref.pruned
        assert report.support_order == ref.support_order
        assert report.residuals == ref.residuals
        # only the reason the final fit stopped may differ
        if report.termination != ref.termination:
            assert report.refits and report.termination == "tolerance"


class TestRefitsReadOffTheFirstFit:
    """`build_tame` runs the AAA loop once, to the full budget, and reads
    each refit off it (`tame._read_fit`)."""

    @pytest.mark.parametrize("dom, nprime, steps", [
        # 27 and 80 steps when each refit ran its own loop
        (Disc(complex(-31.6), 31.6), 13, 14),
        (RealSegment(100.0), 33, 66),
    ])
    def test_only_the_first_fit_takes_least_squares_steps(self, dom, nprime,
                                                          steps, monkeypatch):
        Z = discretize(dom, 1000)
        _, first = aaa_fit(np.exp(Z), Z, 2 * nprime)
        assert len(first.residuals) == steps
        shapes = []
        svd = tame.smallest_singular_vector

        def spy(A):
            shapes.append(A.shape)
            return svd(A)

        monkeypatch.setattr(tame, "smallest_singular_vector", spy)
        _, _, report = build_tame(dom, nprime)
        assert report.refits == (2 * nprime,)
        assert len(shapes) == steps

    @given(dom=st.one_of(
        st.builds(lambda c, r: Disc(complex(c * r), r),
                  st.floats(-2.0, 0.2), st.floats(0.05, 40.0)),
        st.builds(RealSegment, st.floats(0.05, 120.0)),
        st.builds(ImagSegment, st.floats(0.05, 60.0))),
        nprime=st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_every_refit_budget_matches_its_own_fit(self, dom, nprime):
        Z = discretize(dom, 300)
        F = np.exp(Z)
        fmax = float(np.max(np.abs(F)))
        floor = 1e2 * U * fmax
        b0, first = aaa_fit(F, Z, 2 * nprime)
        run = (b0.support, b0.values, first.iterates, first.residuals, fmax)
        for budget in range(2, 2 * nprime + 1):
            b, report = tame._read_fit(*run, budget, floor)
            want_b, want = aaa_fit(F, Z, budget, tol=floor)
            assert b.support.tobytes() == want_b.support.tobytes()
            assert b.values.tobytes() == want_b.values.tobytes()
            assert b.weights.tobytes() == want_b.weights.tobytes()
            assert report == want
            assert [u.tobytes() for u in report.iterates] == [
                u.tobytes() for u in want.iterates]


class TestPresets:
    def test_rows_are_sorted(self):
        rs = [r for r, _ in PRESET_ROWS]
        ns = [n for _, n in PRESET_ROWS]
        assert rs == sorted(rs) and ns == sorted(ns)

    def test_selection_picks_smallest_covering(self):
        m, meta, r_max = preset_entry(1.0)
        assert r_max == 1.8
        assert m.n_entries == 4
        m2 = preset_tame(4.0)
        assert m2.n_entries == 5

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            preset_entry(50.0)
        with pytest.raises(ValueError):
            preset_entry(0.0)

    def test_metadata_present(self):
        for r_max, nprime in PRESET_ROWS:
            m, meta, _ = preset_entry(r_max)
            assert meta.epsilon is not None and meta.epsilon < 1e-9
            assert meta.max_abs_weight is not None
            assert meta.eta is not None
            assert meta.domain == Disc(complex(-r_max), r_max)

    def test_preset_dir_override(self, tmp_path, monkeypatch):
        import awilt
        src = os.path.join(os.path.dirname(awilt.__file__), "presets",
                           preset_filename(0.6, 3))
        dst = tmp_path / preset_filename(0.6, 3)
        with open(src) as fh:
            obj = json.load(fh)
        obj["name"] = "override-marker"
        dst.write_text(json.dumps(obj))
        monkeypatch.setenv("AW_PRESET_DIR", str(tmp_path))
        m, _, _ = preset_entry(0.5)
        assert m.name == "override-marker"

    def test_preset_dir_missing_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AW_PRESET_DIR", str(tmp_path))
        with pytest.raises(OSError):
            preset_entry(0.5)

    def test_rebuild_matches_shipped(self, tmp_path):
        # A rebuild can differ from the shipped files by up to ~5e-7
        # relative in the weights on another machine, so compare within
        # tolerances rather than byte for byte.
        import awilt
        shipped = os.path.join(os.path.dirname(awilt.__file__), "presets")
        for path in build_presets(str(tmp_path)):
            m, meta = load_method(path)
            m0, meta0 = load_method(
                os.path.join(shipped, os.path.basename(path)))
            assert m.n_entries == m0.n_entries
            for got, want, rtol in ((m.nodes, m0.nodes, 1e-6),
                                    (m.weights, m0.weights, 1e-5)):
                got, want = np.asarray(got), np.asarray(want)
                assert np.all(np.abs(got - want) <= rtol * np.abs(want))
            assert 0.5 <= meta.epsilon / meta0.epsilon <= 2.0
