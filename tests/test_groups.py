"""Tests for the finite-group machinery and the two equivariance wrappers."""

import itertools
import math
import re

import numpy as np
import pytest

from orbitcanon.groups import (
    CanonResult,
    FiniteGroup,
    GroupAxiomError,
    check_group_axioms,
    equivariant_average,
    equivariant_canon,
    finite_orbit_canonicalize,
    invariant_wrap,
    invert_permutation,
    permute,
    quarter_turn_group,
    symmetric_group,
)
from orbitcanon.vectors import mean_subtract, sort_canonicalize, sort_energy


# The one-element group acting as the identity.  Its action returns x itself,
# so a result that aliased the input would show.
_IDENTITY_GROUP = FiniteGroup(elements=(0,), apply=lambda g, x: x, compose=lambda g, h: 0,
                              inverse=lambda g: 0, identity=0)


def _unpermute(p, y):
    """Act on y with the inverse of the permutation p."""
    return permute(invert_permutation(p), y)


def _shift_canonicalize(x):
    """Mean subtraction as a CanonResult: the element is the shift -mean(x)."""
    centered, mu = mean_subtract(x)
    return CanonResult(canonical=centered, element=-mu)


def _dyadic_image(rng, shape=(8, 8)):
    """Pixels on the grid k/256 so sums and products stay exact in float64."""
    return rng.integers(0, 256, size=shape).astype(float) / 256.0


def _cross_correlate_3x3(img, kernel):
    """Zero-padded same-size 3x3 cross-correlation, plain shifted sums."""
    padded = np.pad(img, 1)
    out = np.zeros_like(img)
    for dr in range(3):
        for dc in range(3):
            out += kernel[dr, dc] * padded[dr:dr + img.shape[0],
                                           dc:dc + img.shape[1]]
    return out


class TestGroupAxioms:
    def test_shipped_groups_pass(self):
        rng = np.random.default_rng(11)
        check_group_axioms(quarter_turn_group(), [rng.random((5, 5))])
        for n in (2, 3, 4):
            check_group_axioms(symmetric_group(n), [rng.random(n)])

    def test_broken_compose_rejected(self):
        """A wrong composition table must trip the compatibility check."""
        bad = FiniteGroup(
            elements=(0, 1, 2, 3),
            apply=lambda g, x: np.rot90(x, g),
            compose=lambda g, h: (g + h + 1) % 4,
            inverse=lambda g: (-g) % 4,
            identity=0,
        )
        with pytest.raises(GroupAxiomError):
            check_group_axioms(bad, [np.arange(16.0).reshape(4, 4)])

    def test_broken_inverse_rejected(self):
        bad = FiniteGroup(
            elements=(0, 1, 2, 3),
            apply=lambda g, x: np.rot90(x, g),
            compose=lambda g, h: (g + h) % 4,
            inverse=lambda g: g,
            identity=0,
        )
        with pytest.raises(GroupAxiomError):
            check_group_axioms(bad, [np.arange(16.0).reshape(4, 4)])

    def test_identity_not_listed_rejected(self):
        bad = FiniteGroup(
            elements=(1, 2, 3),
            apply=lambda g, x: np.rot90(x, g),
            compose=lambda g, h: (g + h) % 4,
            inverse=lambda g: (-g) % 4,
            identity=0,
        )
        with pytest.raises(GroupAxiomError):
            check_group_axioms(bad, [np.ones((2, 2))])

    @pytest.mark.parametrize("elements, apply, message", [
        ((0, 1, 2, 3), lambda g, x: np.rot90(x, g + 1),
         "identity does not act as the identity map"),
        ((0, 1), lambda g, x: np.rot90(x, g), "inverse of 1 is not listed"),
        ((0, 1, 3), lambda g, x: np.rot90(x, g), "composition of 1, 1 is not listed"),
        ((0, 1, 2, 3), lambda g, x: np.rot90(x, g * g),
         "action is not compatible with composition at (1, 1)"),
    ], ids=["identity-action", "inverse-unlisted", "composition-unlisted", "incompatible"])
    def test_axiom_violation_messages(self, elements, apply, message):
        """Each violation check_group_axioms can find, on a group of quarter
        turns (compose adds mod 4) broken in one way."""
        bad = FiniteGroup(elements=elements, apply=apply, compose=lambda g, h: (g + h) % 4,
                          inverse=lambda g: (-g) % 4, identity=0)
        with pytest.raises(GroupAxiomError, match=f"^{re.escape(message)}$"):
            check_group_axioms(bad, [np.arange(16.0).reshape(4, 4)])

    def test_symmetric_group_of_nothing_refused(self):
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            symmetric_group(0)

    def test_symmetric_group_size(self):
        assert len(symmetric_group(4).elements) == 24
        assert len(quarter_turn_group().elements) == 4

    def test_invert_permutation_is_python_ints(self):
        for p in symmetric_group(4).elements:
            q = invert_permutation(p)
            assert all(type(i) is int for i in q)
            assert all(q[p[i]] == i for i in range(4))


class TestFiniteOrbitCanonicalize:
    def test_quarter_turn_argmax_corner(self):
        """The canonical form puts the largest corner at (0, 0)."""
        g4 = quarter_turn_group()
        x = np.array([[1.0, 2.0], [3.0, 9.0]])
        res = finite_orbit_canonicalize(x, g4, energy=lambda a: float(a[0, 0]))
        assert res.canonical[0, 0] == 9.0
        assert not res.degenerate
        np.testing.assert_array_equal(
            res.canonical, np.rot90(x, res.element))

    def test_invariance_over_orbit(self):
        """Every orbit member canonicalizes to the same representative."""
        g4 = quarter_turn_group()
        rng = np.random.default_rng(7)
        for _ in range(25):
            x = rng.random((6, 6))
            base = finite_orbit_canonicalize(
                x, g4, energy=lambda a: float(a[0, 0]))
            for k in range(4):
                res = finite_orbit_canonicalize(
                    np.rot90(x, k), g4, energy=lambda a: float(a[0, 0]))
                np.testing.assert_array_equal(res.canonical, base.canonical)

    def test_tie_between_distinct_forms_is_degenerate(self):
        """Two distinct rotations share the max energy -> flagged, lex tie-break."""
        g4 = quarter_turn_group()
        x = np.array([[1.0, 0.0], [1.0, 0.0]])
        res = finite_orbit_canonicalize(x, g4, energy=lambda a: float(a[0, 0]))
        assert res.degenerate
        # np.rot90(x, 3) = [[1,1],[0,0]] beats [[1,0],[1,0]] lexicographically.
        np.testing.assert_array_equal(
            res.canonical, np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_constant_input_not_degenerate(self):
        """Ties between bit-identical orbit members are not ambiguous."""
        g4 = quarter_turn_group()
        x = np.full((4, 4), 0.5)
        res = finite_orbit_canonicalize(x, g4, energy=lambda a: float(a.sum()))
        assert not res.degenerate
        np.testing.assert_array_equal(res.canonical, x)

    def test_energy_recorded(self):
        g4 = quarter_turn_group()
        x = np.array([[0.0, 0.0], [0.0, 4.0]])
        res = finite_orbit_canonicalize(x, g4, energy=lambda a: float(a[0, 0]))
        assert res.energy == 4.0


def _reference_finite_orbit(x, group, energy=None):
    """The running scan finite_orbit_canonicalize was first written as."""
    best = None
    best_key = None
    max_energy = None
    distinct_at_max = 0
    for g in group.elements:
        gx = group.apply(g, x)
        e = float(energy(gx)) if energy is not None else 0.0
        key = tuple(np.asarray(gx, dtype=float).ravel())
        if max_energy is None or e > max_energy:
            max_energy = e
            distinct_at_max = 1
            best = CanonResult(canonical=gx, element=g, energy=e)
            best_key = key
        elif e == max_energy and key != best_key:
            distinct_at_max += 1
            if key > best_key:
                best = CanonResult(canonical=gx, element=g, energy=e)
                best_key = key
    degenerate = energy is not None and distinct_at_max > 1
    return CanonResult(canonical=best.canonical, element=best.element,
                       degenerate=degenerate, energy=best.energy)


class TestFiniteOrbitMatchesScan:
    """The argmax form gives every field of the running scan on orbits built to tie."""

    @pytest.mark.parametrize("quantized", [False, True])
    def test_c4_small_integer_rasters(self, quantized):
        rng = np.random.default_rng(131)
        g4 = quarter_turn_group()
        energy = (lambda a: float(a[0].sum() // 2)) if quantized else None
        for _ in range(600):
            n = int(rng.integers(1, 4))
            x = rng.integers(0, 3, size=(n, n)).astype(float)
            self._assert_same(x, g4, energy)

    @pytest.mark.parametrize("quantized", [False, True])
    def test_s5_vectors_with_repeats(self, quantized):
        rng = np.random.default_rng(137)
        s5 = symmetric_group(5)
        energy = (lambda v: math.floor(sort_energy(v))) if quantized else None
        for _ in range(400):
            x = rng.integers(-2, 3, size=5).astype(float)
            self._assert_same(x, s5, energy)

    @staticmethod
    def _assert_same(x, group, energy):
        got = finite_orbit_canonicalize(x, group, energy=energy)
        want = _reference_finite_orbit(x, group, energy=energy)
        np.testing.assert_array_equal(got.canonical, want.canonical)
        assert got.element == want.element
        assert got.degenerate == want.degenerate
        assert got.energy == want.energy

    @pytest.mark.parametrize("corner", [0.0, 1.0, 2.0, 3.0])
    def test_nan_energy_raises(self, corner):
        """Wherever the NaN falls in the orbit, the call refuses it."""
        x = np.arange(4.0).reshape(2, 2)
        energy = lambda a: math.nan if a[0, 0] == corner else float(a[0, 0])
        with pytest.raises(ValueError, match="NaN"):
            finite_orbit_canonicalize(x, quarter_turn_group(), energy=energy)


class TestInvariantWrap:
    def test_identity_canonicalizer_passthrough(self):
        wrapped = invariant_wrap(
            lambda x: CanonResult(canonical=x, element=None),
            lambda x: float(np.sum(x)))
        x = np.arange(5.0)
        assert wrapped(x) == float(np.sum(x))

    def test_sort_wrap_constant_on_permutations(self):
        """A symmetric score through the sort canonicalizer is exactly constant."""
        wrapped = invariant_wrap(sort_canonicalize, lambda v: float(np.sum(v * v)))
        x = np.array([3.0, -1.0, 2.0])
        outputs = {wrapped(np.array(p)) for p in itertools.permutations(x)}
        assert len(outputs) == 1

    def test_wrap_constant_on_c4_orbit(self):
        """An asymmetric predictor becomes exactly invariant on C4 orbits."""
        g4 = quarter_turn_group()

        def canon(x):
            return finite_orbit_canonicalize(
                x, g4, energy=lambda a: float(a[0, 0]))

        wrapped = invariant_wrap(canon, lambda a: float(a[0, :].sum()))
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.random((5, 5))
            outs = {wrapped(np.rot90(x, k)) for k in range(4)}
            assert len(outs) == 1

    def test_wrap_constant_on_sn_orbit(self):
        """Exhaustive S_n orbits for n <= 6 give a single wrapped output."""
        rng = np.random.default_rng(5)
        for n in (2, 4, 6):
            sn = symmetric_group(n)

            def canon(v, sn=sn):
                return finite_orbit_canonicalize(
                    v, sn, energy=lambda a: float(a[0]))

            wrapped = invariant_wrap(canon, lambda v: float(v[0] - v[-1]))
            x = rng.permutation(np.arange(n) + 0.25)
            outs = {wrapped(np.array(p)) for p in itertools.permutations(x)}
            assert len(outs) == 1


class TestEquivariantAverage:
    def test_trivial_group_is_inner(self):
        x = np.arange(6.0)
        out = equivariant_average(x, _IDENTITY_GROUP, lambda v: v * 2.0)
        np.testing.assert_array_equal(out, x * 2.0)

    def test_c4_correlation_exact_equivariance(self):
        """Group-averaged correlation commutes with every quarter turn, exactly.

        Pixels live on k/256 and kernel weights on k/16, so every partial
        sum is a dyadic rational well inside float64 range and addition
        order cannot change the result.
        """
        rng = np.random.default_rng(17)
        g4 = quarter_turn_group()
        kernel = rng.integers(-8, 9, size=(3, 3)).astype(float) / 16.0
        inner = lambda a: _cross_correlate_3x3(a, kernel)
        for _ in range(30):
            x = _dyadic_image(rng)
            gx = equivariant_average(x, g4, inner)
            for h in range(4):
                lhs = equivariant_average(np.rot90(x, h), g4, inner)
                np.testing.assert_array_equal(lhs, np.rot90(gx, h))

    def test_s3_square_collapses_to_symmetric_sum(self):
        """Elementwise square commutes with permutations, so every conjugated
        term equals x**2 and the sum is 6 * x**2 — equal under relabeling."""
        s3 = symmetric_group(3)
        x = np.array([1.5, -2.0, 0.25])
        out = equivariant_average(x, s3, lambda v: v * v)
        np.testing.assert_array_equal(out, 6.0 * x * x)

    def test_s3_cumsum_exact_equivariance(self):
        """A position-dependent inner map exercises real conjugation."""
        rng = np.random.default_rng(23)
        s3 = symmetric_group(3)
        inner = np.cumsum
        for _ in range(40):
            x = rng.integers(-8, 9, size=3).astype(float)
            gx = equivariant_average(x, s3, inner)
            for p in s3.elements:
                lhs = equivariant_average(s3.apply(p, x), s3, inner)
                np.testing.assert_array_equal(lhs, s3.apply(p, gx))

    def test_result_is_a_new_array(self):
        """Writing the result leaves the input alone, even for the identity."""
        x = np.arange(4.0)
        out = equivariant_average(x, _IDENTITY_GROUP, lambda a: a)
        out[0] = 9.0
        np.testing.assert_array_equal(x, np.arange(4.0))

    def test_bad_group_rejected(self):
        bad = FiniteGroup(
            elements=(0, 1), apply=lambda g, x: x + g,
            compose=lambda g, h: g + h, inverse=lambda g: g, identity=0)
        with pytest.raises(GroupAxiomError):
            equivariant_average(np.ones(3), bad, lambda v: v)


class TestEquivariantCanon:
    def test_identity_inner_returns_input(self):
        x = np.array([4.0, -2.0, 7.0, 1.0])
        out = equivariant_canon(x, sort_canonicalize, lambda v: v, _unpermute)
        np.testing.assert_array_equal(out, x)

    def test_sort_cumsum_exact_over_all_permutations(self):
        """Length-5 brute force: G(p(x)) == p(G(x)) bit for bit."""
        s5 = symmetric_group(5)
        x = np.array([5.0, -3.0, 2.0, -7.0, 1.0])
        gx = equivariant_canon(x, sort_canonicalize, np.cumsum, _unpermute)
        for p in s5.elements:
            lhs = equivariant_canon(x[list(p)], sort_canonicalize, np.cumsum, _unpermute)
            np.testing.assert_array_equal(lhs, gx[list(p)])

    def test_mean_shift_exact_equivariance(self):
        """Dyadic data of power-of-two length keeps the mean exact, so the
        shift-canonicalized map commutes with translations bit for bit."""
        rng = np.random.default_rng(29)
        unshift = lambda c, y: y - c
        for _ in range(50):
            x = rng.integers(-64, 65, size=8).astype(float) / 16.0
            c = float(rng.integers(-64, 65)) / 16.0
            gx = equivariant_canon(x, _shift_canonicalize, np.cumsum, unshift)
            lhs = equivariant_canon(x + c, _shift_canonicalize, np.cumsum, unshift)
            np.testing.assert_array_equal(lhs, gx + c)
