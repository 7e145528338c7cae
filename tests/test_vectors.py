"""Tests for the mean-shift and magnitude-sort vector canonicalizers."""

import itertools

import numpy as np
import pytest

from orbitcanon.groups import invariant_wrap, invert_permutation, permute
from orbitcanon.vectors import (
    as_vector,
    mean_subtract,
    sort_canonicalize,
    sort_energy,
)


class TestAsVector:
    def test_copies_and_casts(self):
        x = [1, 2, 3]
        v = as_vector(x)
        assert v.dtype == np.float64
        np.testing.assert_array_equal(v, [1.0, 2.0, 3.0])

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            as_vector(np.ones((2, 2)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            as_vector([])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_vector([1.0, np.nan])


class TestMeanSubtract:
    def test_hand_example(self):
        centered, mu = mean_subtract([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(centered, [-1.0, 0.0, 1.0])
        assert mu == 2.0

    def test_already_centered(self):
        centered, mu = mean_subtract([-1.0, 1.0])
        np.testing.assert_array_equal(centered, [-1.0, 1.0])
        assert mu == 0.0

    def test_shift_invariance_property(self):
        """The centered output ignores any common shift, 1000 trials."""
        rng = np.random.default_rng(101)
        for _ in range(1000):
            n = int(rng.integers(1, 20))
            x = rng.normal(size=n)
            c = float(rng.uniform(-100.0, 100.0))
            a, _ = mean_subtract(x)
            b, _ = mean_subtract(x + c)
            np.testing.assert_allclose(b, a, atol=1e-12)

    def test_output_mean_is_zero(self):
        rng = np.random.default_rng(102)
        for _ in range(200):
            x = rng.uniform(-50, 50, size=int(rng.integers(1, 30)))
            centered, _ = mean_subtract(x)
            assert abs(centered.mean()) <= 1e-12 * max(1.0, abs(x).max())


class TestSortEnergy:
    def test_hand_example(self):
        # |3|/1 + |-1|/2 + |2|/3
        np.testing.assert_allclose(sort_energy([3.0, -1.0, 2.0]), 25.0 / 6.0,
                                   rtol=1e-15)

    def test_single_entry(self):
        assert sort_energy([-4.0]) == 4.0

    def test_maximized_by_descending_magnitude(self):
        """Positionally weighted 1/i energy peaks on the magnitude-sorted order."""
        rng = np.random.default_rng(103)
        for _ in range(50):
            x = rng.normal(size=5)
            best = sort_canonicalize(x)
            for p in itertools.permutations(range(5)):
                assert sort_energy(x[list(p)]) <= best.energy + 1e-12


class TestSortCanonicalize:
    def test_hand_example(self):
        res = sort_canonicalize([3.0, -1.0, 2.0])
        np.testing.assert_array_equal(res.canonical, [3.0, 2.0, -1.0])
        assert not res.degenerate
        np.testing.assert_allclose(res.energy, 3.0 + 2.0 / 2.0 + 1.0 / 3.0,
                                   rtol=1e-15)

    def test_element_reproduces_canonical(self):
        x = np.array([5.0, -7.0, 0.5, 2.0])
        res = sort_canonicalize(x)
        np.testing.assert_array_equal(x[list(res.element)], res.canonical)

    def test_opposite_signs_tie_is_degenerate(self):
        """|1| == |-1| but 1 != -1: flagged, positive entry first."""
        res = sort_canonicalize([-1.0, 1.0])
        np.testing.assert_array_equal(res.canonical, [1.0, -1.0])
        assert res.degenerate

    def test_equal_values_not_degenerate(self):
        """Bit-identical entries cannot change the canonical form."""
        res = sort_canonicalize([2.0, 2.0, -1.0])
        np.testing.assert_array_equal(res.canonical, [2.0, 2.0, -1.0])
        assert not res.degenerate

    def test_exhaustive_invariance_small_n(self):
        """All n! permutations map to one canonical form, n <= 6, exact."""
        rng = np.random.default_rng(104)
        for n in (2, 3, 4, 5, 6):
            x = rng.normal(size=n)
            base = sort_canonicalize(x).canonical
            for p in itertools.permutations(range(n)):
                np.testing.assert_array_equal(
                    sort_canonicalize(x[list(p)]).canonical, base)

    def test_sampled_invariance_larger_n(self):
        rng = np.random.default_rng(105)
        x = rng.normal(size=12)
        base = sort_canonicalize(x).canonical
        for _ in range(1000):
            np.testing.assert_array_equal(
                sort_canonicalize(rng.permutation(x)).canonical, base)

    def test_degenerate_detection_with_duplicated_magnitudes(self):
        """Signed pairs anywhere in the vector set the flag."""
        res = sort_canonicalize([4.0, -4.0, 1.0])
        assert res.degenerate
        np.testing.assert_array_equal(res.canonical, [4.0, -4.0, 1.0])


class TestSortMapping:
    """sort_canonicalize as an orbit mapping: a function returning a
    CanonResult whose element is the selecting permutation."""

    def test_call_matches_function(self):
        """invariant_wrap takes the function itself and calls it."""
        x = np.array([0.5, -2.0, 1.5])
        wrapped = invariant_wrap(sort_canonicalize, lambda v: v)
        np.testing.assert_array_equal(wrapped(x), sort_canonicalize(x).canonical)
        np.testing.assert_array_equal(permute(sort_canonicalize(x).element, x), [-2.0, 1.5, 0.5])

    def test_apply_inverse_roundtrip(self):
        x = np.array([3.0, 1.0, -5.0, 2.0])
        res = sort_canonicalize(x)
        back = permute(invert_permutation(res.element), res.canonical)
        np.testing.assert_array_equal(back, x)


class TestMeanShiftMapping:
    """mean_subtract as an orbit mapping: the removed mean undoes it."""

    def test_call_yields_centered_result(self):
        centered, mu = mean_subtract(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(centered, [-1.0, 0.0, 1.0])
        assert mu == 2.0

    def test_apply_inverse_roundtrip(self):
        x = np.array([4.0, 8.0, 12.0, 0.0])
        centered, mu = mean_subtract(x)
        np.testing.assert_allclose(centered + mu, x, atol=1e-12)
