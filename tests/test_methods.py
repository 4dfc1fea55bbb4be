import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awilt.diagnostics import eta_proxy
from awilt.methods import (AWMethod, MethodMetadata, euler_method,
                           gaver_method, load_method, method_from_json,
                           method_to_json, pair_conjugates, save_method,
                           talbot_method, to_full, to_reduced, zakian_method)

import mp_reference


class TestEuler:
    def test_reduced_weights_nprime3(self):
        m = euler_method(3)
        w = np.array([x.real for x in m.weights])
        # derived by hand from the Euler-summation coefficients at N' = 3:
        # scale 10^(1/3), xi = (1/2, 1, 1/2), alternating sign starting +
        scale = 10.0 ** (1.0 / 3.0)
        want = np.array([0.5 * scale, -scale, 0.5 * scale])
        assert np.max(np.abs(w - want)) < 1e-14
        assert np.max(np.abs(w - np.array([1.0772173450159418,
                                           -2.1544346900318834,
                                           1.0772173450159418]))) < 1e-12

    def test_node_layout(self):
        m = euler_method(7)
        a = math.log(10.0)  # ln(10)/6 * (7-1)
        assert m.nodes[0] == pytest.approx(complex(a, 0.0))
        # equally spaced on a vertical line, spacing pi
        for n, b in enumerate(m.nodes):
            assert b.real == pytest.approx(a)
            assert b.imag == pytest.approx(math.pi * n)
        assert m.paired == (False,) + (True,) * 6

    def test_parity_validation(self):
        with pytest.raises(ValueError):
            euler_method(4)
        with pytest.raises(ValueError):
            euler_method(1)

    def test_weights_sum_near_zero(self):
        # Euler weights telescope: full-form weights sum to ~0 for odd N'
        for np_ in (3, 5, 9, 15):
            f = to_full(euler_method(np_))
            total = sum(f.weights)
            assert abs(total) < 1e-9 * max(abs(w) for w in f.weights)


class TestTalbot:
    def test_first_node_real(self):
        m = talbot_method(5)
        assert m.nodes[0] == complex(2.0)
        assert m.weights[0] == pytest.approx(cmath.exp(2.0) / 5.0)

    def test_contour_formula(self):
        # independent re-derivation of node n on the cotangent contour
        np_ = 6
        m = talbot_method(np_)
        for n in range(2, np_ + 1):
            theta = (n - 1) * math.pi / np_
            sigma = 0.4 * np_ * theta * (1.0 / math.tan(theta) + 1j)
            assert m.nodes[n - 1] == pytest.approx(sigma, rel=1e-13)

    def test_min_size(self):
        with pytest.raises(ValueError):
            talbot_method(1)


class TestGaver:
    def test_nprime2_exact(self):
        m = gaver_method(2)
        ln2 = math.log(2.0)
        assert m.weights == (complex(2 * ln2), complex(-2 * ln2))
        assert m.nodes == (complex(ln2), complex(2 * ln2))
        assert m.paired == (False, False)

    def test_all_real_and_weight_signs_alternate_tail(self):
        m = gaver_method(8)
        assert all(b.imag == 0.0 for b in m.nodes)
        assert all(w.imag == 0.0 for w in m.weights)
        # nodes are n*ln2
        assert [b.real for b in m.nodes] == pytest.approx(
            [n * math.log(2.0) for n in range(1, 9)])

    def test_parity_validation(self):
        with pytest.raises(ValueError):
            gaver_method(3)


class TestZakian:
    def test_n1_exact(self):
        m = zakian_method(1)
        assert not m.reduced
        assert m.nodes == (complex(1.0),)
        assert m.weights == (complex(1.0),)

    def test_conjugate_pairs_exact(self):
        m = zakian_method(5)
        assert m.n_full == 5
        pool = dict(zip(m.nodes, m.weights))
        for b, w in pool.items():
            if b.imag != 0.0:
                assert pool[b.conjugate()] == w.conjugate()

    def test_min_size(self):
        with pytest.raises(ValueError):
            zakian_method(0)

    @pytest.mark.parametrize("n", range(1, 25))
    def test_matches_mpmath_bitwise(self, n):
        # np.roots polished in double-double, and double-double residues,
        # give the 40-digit polyroots/polyval results bit for bit
        m = zakian_method(n)
        nodes, weights = mp_reference.zakian(n)
        assert m.nodes == tuple(nodes)
        assert m.weights == tuple(weights)


class TestConstantRecovery:
    """Applying a method to F(s) = 1/s must reproduce f(t) = 1."""

    @pytest.mark.parametrize("m,tol", [
        (zakian_method(1), 0.0),
        (zakian_method(4), 1e-13),
        (gaver_method(16), 1e-7),
        # fixed-Talbot truncation error decays ~0.7 digits per node: 1e-12
        # first holds at n_reduced >= 16 (checked in 60-digit arithmetic)
        (talbot_method(16), 1e-11),
        (talbot_method(20), 1e-12),
        (euler_method(31), 1e-10),
    ])
    def test_one_over_s(self, m, tol):
        f = to_full(m)
        val = sum(w / b for w, b in zip(f.weights, f.nodes)).real
        assert abs(val - 1.0) <= tol


class TestPairConjugates:
    def test_snaps_noisy_pair(self):
        nodes = [1.0 + 1e-14j, 2.0 + 1.0j, 2.0 + 1e-13 - 1.0j]
        weights = [3.0 - 1e-15j, 1.0 + 2.0j, 1.0 - 2.0j + 1e-13]
        nn, ww = pair_conjugates(nodes, weights)
        assert nn[0] == complex(1.0) and ww[0] == complex(3.0)
        assert nn[1] == nn[2].conjugate()
        assert ww[1] == ww[2].conjugate()

    def test_unbalanced_raises(self):
        with pytest.raises(ValueError):
            pair_conjugates([1.0 + 1.0j], [1.0])

    def test_partner_too_far_raises(self):
        with pytest.raises(ValueError):
            pair_conjugates([1.0 + 1.0j, 1.0 - 2.0j], [1.0, 1.0])


class TestForms:
    def test_round_trip_reduced_full(self):
        for m in (euler_method(5), talbot_method(4), gaver_method(4)):
            back = to_reduced(to_full(m))
            assert back.nodes == m.nodes
            assert back.paired == m.paired
            assert np.max(np.abs(np.array(back.weights)
                                 - np.array(m.weights))) < 1e-15 * max(
                abs(w) for w in m.weights)

    def test_full_halves_paired_weights(self):
        m = talbot_method(3)
        f = to_full(m)
        assert f.n_entries == m.n_full == 5
        assert f.weights[1] == 0.5 * m.weights[1]
        assert f.nodes[2] == f.nodes[1].conjugate()

    def test_full_equivalence_on_transform(self):
        m = euler_method(7)
        f = to_full(m)
        F = lambda s: 1.0 / (s + 1.0)  # noqa: E731
        red = sum((w * F(b)).real for w, b in zip(m.weights, m.nodes))
        ful = sum(w * F(b) for w, b in zip(f.weights, f.nodes))
        assert abs(ful.imag) < 1e-12 * abs(ful.real)
        assert red == pytest.approx(ful.real, rel=1e-14)


class TestValidation:
    def test_duplicate_nodes(self):
        with pytest.raises(ValueError):
            AWMethod("x", (1.0, 1.0), (2.0, 2.0), reduced=False)

    def test_missing_conjugate_partner(self):
        with pytest.raises(ValueError):
            AWMethod("x", (1.0,), (1.0 + 1.0j,), reduced=False)

    def test_reduced_needs_paired_flags(self):
        # a reduced file's "paired" list must be the one its nodes imply
        good = method_to_json(euler_method(5))
        assert good["paired"] == [False, True, True, True, True]
        for flags in ([True] * 5, [False] * 5, [False, True], None):
            obj = dict(good, paired=flags)
            if flags is None:
                del obj["paired"]
            with pytest.raises(ValueError, match="paired flags"):
                method_from_json(obj)

    def test_reduced_unpaired_must_be_real(self):
        # an unpaired entry is a real node, and it needs a real weight
        for w in (1.0j, 1.0 + 1e-300j):
            with pytest.raises(ValueError, match="real node 1.0"):
                AWMethod("x", (w,), (1.0,), reduced=True)
        assert AWMethod("x", (2.0 - 0.0j,), (1.0,), reduced=True).paired == (
            False,)

    def test_full_real_node_must_have_real_weight(self):
        with pytest.raises(ValueError, match="non-real weight"):
            AWMethod("x", (1.0j,), (1.0,), reduced=False)
        with pytest.raises(ValueError, match="non-real weight"):
            AWMethod("x", (1.0, 1.0 + 1e-300j, 1.0),
                     (1.0 + 1.0j, 2.0, 1.0 - 1.0j), reduced=False)

    def test_paired_is_derived_from_the_nodes(self):
        m = AWMethod("x", (1.0, 2.0 + 1.0j, 3.0j),
                     (1.0, 1.0 + 1.0j, 2.0 - 1e-300j), reduced=True)
        assert m.paired == (False, True, True) and m.n_full == 5
        assert AWMethod("x", (1.0,), (1.0,), reduced=False).paired is None
        with pytest.raises(TypeError):
            AWMethod("x", (1.0,), (1.0,), reduced=True, paired=(False,))


class TestPersistence:
    def test_json_round_trip_is_exact(self, tmp_path):
        m = talbot_method(6)
        meta = MethodMetadata(epsilon=1.5e-13, max_abs_weight=123.25,
                              eta=eta_proxy(1.5e-13, 123.25))
        p = tmp_path / "m.json"
        save_method(p, m, meta)
        m2, meta2 = load_method(p)
        assert m2.nodes == m.nodes           # %.17g round-trips binary64
        assert m2.weights == m.weights
        assert m2.paired == m.paired
        assert meta2.epsilon == meta.epsilon
        assert meta2.max_abs_weight == meta.max_abs_weight
        assert meta2.eta == meta.eta

    def test_schema_version_checked(self):
        obj = method_to_json(zakian_method(2))
        obj["schema"] = 99
        with pytest.raises(ValueError):
            method_from_json(obj)

    def test_malformed_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ValueError):
            load_method(p)

    @given(st.integers(2, 10))
    @settings(max_examples=10, deadline=None)
    def test_round_trip_property(self, n):
        m = talbot_method(n)
        m2, _ = method_from_json(method_to_json(m))
        assert m2 == m
