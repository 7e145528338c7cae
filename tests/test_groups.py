"""Tests for the two orbit-mapping wrappers: invariant_wrap and equivariant_canon."""

import numpy as np

from orbitcanon.audit import rotation_grid_3d
from orbitcanon.cloud import canonicalize_clouds
from orbitcanon.groups import CanonResult, equivariant_canon, invariant_wrap


def _shift_canonicalize(x):
    """Mean subtraction as a CanonResult: the element is the shift -mean(x)."""
    return CanonResult(canonical=x - x.mean(), element=-x.mean())


def _unshift(c, y):
    """Act on y with the inverse of the shift c."""
    return y - c


class TestInvariantWrap:
    def test_identity_canonicalizer_passthrough(self):
        wrapped = invariant_wrap(
            lambda x: CanonResult(canonical=x, element=None),
            lambda x: float(np.sum(x)))
        x = np.arange(5.0)
        assert wrapped(x) == float(np.sum(x))

    def test_cloud_wrap_constant_on_rotation_grid(self):
        """An asymmetric predictor through the cloud canonicalizer reads the
        same, to 1e-8, on every rotation of the 256-point audit grid."""
        rng = np.random.default_rng(41)
        X = rng.normal(size=(24, 3)) * np.array([1.5, 1.0, 0.6])
        weights = rng.normal(size=(24, 3))
        wrapped = invariant_wrap(canonicalize_clouds,
                                 lambda clouds: np.einsum("npk,pk->n", clouds, weights))
        R = np.array([r for _, r in rotation_grid_3d()])
        assert len(R) == 256
        moved = wrapped(X @ R)
        assert np.abs(moved - wrapped(X[None])[0]).max() <= 1e-8
        # The raw predictor is far from invariant on the same grid.
        raw = np.einsum("npk,pk->n", X @ R, weights)
        assert np.ptp(raw) > 1.0


class TestEquivariantCanon:
    def test_identity_inner_returns_input(self):
        x = np.array([4.0, -2.0, 7.0, 1.0])
        out = equivariant_canon(x, _shift_canonicalize, lambda v: v, _unshift)
        np.testing.assert_array_equal(out, x)

    def test_mean_shift_exact_equivariance(self):
        """Dyadic data of power-of-two length keeps the mean exact, so the
        shift-canonicalized map commutes with translations bit for bit."""
        rng = np.random.default_rng(29)
        for _ in range(50):
            x = rng.integers(-64, 65, size=8).astype(float) / 16.0
            c = float(rng.integers(-64, 65)) / 16.0
            gx = equivariant_canon(x, _shift_canonicalize, np.cumsum, _unshift)
            lhs = equivariant_canon(x + c, _shift_canonicalize, np.cumsum, _unshift)
            np.testing.assert_array_equal(lhs, gx + c)
