"""Tests for the 2D rotation canonicalizer: blur, model, angle, resampling."""

import math
import re
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from orbitcanon import image
from orbitcanon.audit import gen_synthetic_images
from orbitcanon.image import (
    CHUNK_PIXELS,
    CIRCLE_RADII,
    CIRCLE_SAMPLES,
    GRADIENT_THRESHOLD,
    GrayImage,
    SCHEMES,
    SmoothImageModel,
    canonicalize_image,
    canonicalize_images,
    gaussian_blur,
    mean_gradient,
    rotate_image,
)
from orbitcanon.image import _catmull_rom_weights, _edge_index, _gradient_map, _offset_grids


def _wrap_angle(a):
    """Map an angle difference into (-pi, pi]."""
    return a - 2.0 * np.pi * np.floor((a + np.pi) / (2.0 * np.pi))


def _ramp_z1(n=32):
    """Pixels equal to the z1 (height) coordinate of their own center."""
    rows = (n - np.arange(n, dtype=float) - 0.5) / n
    return GrayImage(np.tile(rows[:, None], (1, n)))


def _ramp_z2(n=32):
    cols = (np.arange(n, dtype=float) + 0.5) / n
    return GrayImage(np.tile(cols[None, :], (n, 1)))


def _disc_mask(n, radius=0.35):
    idx = np.arange(n, dtype=float)
    z2 = (idx[None, :] + 0.5) / n
    z1 = (n - idx[:, None] - 0.5) / n
    return (z1 - 0.5) ** 2 + (z2 - 0.5) ** 2 <= radius * radius


def _gauss_taps(sigma):
    radius = math.ceil(3.0 * sigma)
    offs = np.arange(-radius, radius + 1, dtype=float)
    w = np.exp(-offs * offs / (2.0 * sigma * sigma))
    return w / w.sum()


class TestGrayImage:
    def test_clamps_to_unit_range(self):
        img = GrayImage(np.array([[-0.5, 0.2], [1.7, 1.0]]))
        np.testing.assert_array_equal(img.pixels,
                                      [[0.0, 0.2], [1.0, 1.0]])

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            GrayImage(np.zeros(4))
        with pytest.raises(ValueError):
            GrayImage(np.zeros((2, 2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            GrayImage(np.array([[0.1, np.nan]]))

    def test_immutability(self):
        img = GrayImage(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 1.0

    def test_dimensions(self):
        img = GrayImage(np.zeros((2, 5)))
        assert img.height == 2 and img.width == 5


class TestGaussianBlur:
    def test_rejects_nonpositive_sigma(self):
        img = GrayImage(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            gaussian_blur(img, 0.0)
        with pytest.raises(ValueError):
            gaussian_blur(img, -1.0)

    @pytest.mark.parametrize("sigma", [math.inf, math.nan])
    def test_rejects_non_finite_sigma(self, sigma):
        with pytest.raises(ValueError, match="finite"):
            gaussian_blur(GrayImage(np.zeros((4, 4))), sigma)

    def test_constant_invariance(self):
        img = GrayImage(np.full((7, 7), 0.5))
        for sigma in (0.5, 1.0, 2.5):
            out = gaussian_blur(img, sigma)
            np.testing.assert_allclose(out, 0.5, atol=1e-12)

    def test_interior_impulse(self):
        """Unit impulse at the center of 9x9: separable kernel outer product,
        total mass preserved to 1e-12."""
        p = np.zeros((9, 9))
        p[4, 4] = 1.0
        out = gaussian_blur(GrayImage(p), 1.0)
        taps = _gauss_taps(1.0)
        assert abs(out[4, 4] - taps[3] ** 2) <= 1e-15
        np.testing.assert_allclose(out[1:8, 1:8], np.outer(taps, taps),
                                   atol=1e-15)
        assert abs(out.sum() - 1.0) <= 1e-12

    def test_three_pixel_ramp_symmetry(self):
        """[0, 0.5, 1] with replicated edges keeps its middle value at 0.5."""
        out = gaussian_blur(GrayImage(np.array([[0.0, 0.5, 1.0]])), 1.0)
        assert abs(out[0, 1] - 0.5) <= 1e-12

    def test_linear_ramp_fixed_in_interior(self):
        """Symmetric taps on linear data reproduce the center sample, so the
        ramp survives the blur away from the replicated border band."""
        img = _ramp_z1(32)
        out = gaussian_blur(img, 1.0)
        np.testing.assert_allclose(out[3:-3, :], img.pixels[3:-3, :],
                                   atol=1e-12)

    @pytest.mark.parametrize("sigma", [1e-200, 5e-324])
    def test_tiny_sigma_is_the_identity(self, sigma):
        """Where 2 sigma^2 underflows, the taps are still [0, 1, 0]: the blur
        only clamps, as it does at sigma = 0.01."""
        img = np.random.default_rng(5).uniform(-0.5, 1.5, size=(6, 7))
        out = gaussian_blur(img, sigma)
        assert out.tobytes() == np.clip(img, 0.0, 1.0).tobytes()
        assert out.tobytes() == gaussian_blur(img, 0.01).tobytes()

    def test_preserves_shape(self):
        out = gaussian_blur(GrayImage(np.zeros((5, 8))), 1.5)
        assert out.shape == (5, 8)

    @pytest.mark.parametrize("shape", [(0, 5), (5,), (3, 0, 0)])
    def test_rejects_empty_rasters(self, shape):
        with pytest.raises(ValueError, match="at least one pixel"):
            gaussian_blur(np.zeros(shape), 1.0)


class TestSmoothImageModel:
    def test_interpolates_pixel_centers(self):
        """Center coordinates are not exactly representable in binary, so
        the reproduction is tight but not bitwise."""
        rng = np.random.default_rng(301)
        p = rng.random((6, 6))
        model = SmoothImageModel(GrayImage(p))
        n = 6
        for r in range(n):
            for c in range(n):
                z = np.array([(n - r - 0.5) / n, (c + 0.5) / n])
                np.testing.assert_allclose(model.value(z), p[r, c],
                                           rtol=0, atol=1e-14)

    def test_midpoint_average(self):
        p = np.array([[0.2, 0.8], [0.4, 0.6]])
        model = SmoothImageModel(GrayImage(p))
        # halfway between the two top-row centers (z1 = 0.75 band)
        v = model.value(np.array([0.75, 0.5]))
        np.testing.assert_allclose(v, 0.5, rtol=1e-15)

    def test_edge_clamp(self):
        p = np.array([[0.9, 0.1], [0.3, 0.7]])
        model = SmoothImageModel(GrayImage(p))
        # beyond the last pixel center the model extends constantly
        assert model.value(np.array([1.0, 0.0])) == 0.9
        g = model.gradient(np.array([1.0, 0.125]))
        assert g[0] == 0.0

    def test_refuses_points_without_two_coordinates(self):
        model = SmoothImageModel(GrayImage(np.zeros((4, 4))))
        with pytest.raises(ValueError, match=r"^points must have a trailing axis of size 2 "
                                             r"\(z1, z2\)$"):
            model.value(np.zeros((5, 3)))

    def test_vertical_ramp_gradient(self):
        model = SmoothImageModel(_ramp_z1(32))
        rng = np.random.default_rng(302)
        pts = rng.uniform(0.2, 0.8, size=(200, 2))
        np.testing.assert_allclose(model.gradient(pts),
                                   np.broadcast_to([1.0, 0.0], (200, 2)),
                                   atol=1e-9)

    def test_horizontal_ramp_gradient(self):
        model = SmoothImageModel(_ramp_z2(32))
        rng = np.random.default_rng(303)
        pts = rng.uniform(0.2, 0.8, size=(200, 2))
        np.testing.assert_allclose(model.gradient(pts),
                                   np.broadcast_to([0.0, 1.0], (200, 2)),
                                   atol=1e-9)

    def test_constant_gradient_zero(self):
        model = SmoothImageModel(GrayImage(np.full((8, 8), 0.3)))
        rng = np.random.default_rng(304)
        pts = rng.random((50, 2))
        np.testing.assert_array_equal(model.gradient(pts),
                                      np.zeros((50, 2)))

    def test_gradient_matches_finite_differences(self):
        """Central differences at step 1e-5 agree within 1e-6 away from the
        interpolation cell boundaries (where the surface is affine)."""
        rng = np.random.default_rng(305)
        img = GrayImage(rng.random((16, 16)))
        model = SmoothImageModel(gaussian_blur(img, 1.0))
        step = 1e-5
        pts = _interior_points(rng, 200, 16, margin=4.0 * step)
        g = model.gradient(pts)
        for axis in range(2):
            e = np.zeros(2)
            e[axis] = step
            fd = (model.value(pts + e) - model.value(pts - e)) / (2.0 * step)
            np.testing.assert_allclose(g[:, axis], fd, atol=1e-6)


def _interior_points(rng, count, n, margin):
    """Uniform interior points whose cells stay fixed under +-margin moves."""
    pts = []
    while len(pts) < count:
        z = rng.uniform(0.15, 0.85, size=2)
        row_f = (1.0 - z[0]) * n - 0.5
        col_f = z[1] * n - 0.5
        ok = True
        for f in (row_f, col_f):
            frac = f - math.floor(f)
            if min(frac, 1.0 - frac) < margin * n:
                ok = False
        if ok:
            pts.append(z)
    return np.array(pts)


class TestMeanGradient:
    def test_probe_circle_constants(self):
        assert CIRCLE_RADII == (0.05, 0.4)
        assert CIRCLE_SAMPLES == 1000

    def test_constant_image_degenerate(self):
        img = GrayImage(np.full((16, 16), 0.4))
        assert _bits(mean_gradient(img, 1.0)) == _bits([0.0, 0.0])
        res = canonicalize_image(img)
        assert res.element == 0.0 and res.degenerate and res.energy == 0.0

    def test_vertical_ramp(self):
        g1, g2 = mean_gradient(_ramp_z1(32), 1.0)
        np.testing.assert_allclose([g1, g2], [1.0, 0.0], atol=1e-3)
        np.testing.assert_allclose(np.hypot(g1, g2), 1.0, atol=1e-3)

    def test_horizontal_ramp(self):
        g = mean_gradient(_ramp_z2(32), 1.0)
        np.testing.assert_allclose(g, [0.0, 1.0], atol=1e-3)

    def test_rotation_commutation(self):
        """Rotating the image rotates the mean gradient, within 1 percent.

        The bound is discretization-limited: it needs a raster fine enough
        that resampling does not visibly smooth the content (64x64 here;
        32x32 sits near 2.6 percent on the sharpest class).
        """
        data = gen_synthetic_images(seed=31, n_per_class=1, size=64)
        for img, _ in data.samples[:3]:
            g1, g2 = mean_gradient(img, 1.0)
            for beta in (math.radians(20.0), math.radians(125.0)):
                rotated = rotate_image(img, beta, "bilinear")
                got1, got2 = mean_gradient(rotated, 1.0)
                want1 = g1 * math.cos(beta) + g2 * math.sin(beta)
                want2 = g2 * math.cos(beta) - g1 * math.sin(beta)
                err = np.hypot(got1 - want1, got2 - want2)
                assert err <= 1e-2 * np.hypot(g1, g2)

    def test_large_sigma_working_set(self):
        """The map of a 16 x 16 raster at sigma 1e5 (R = 300000) builds its 2 R + 1
        taps in one array and folds the edges from the prefix sums of R + 1 of them:
        measured 7.1 MiB, against 13.7 MiB with a temporary per step of the taps and
        a cumulative sum over all of them.  It stays O(R): the normalizing sum reads
        every tap."""
        _gradient_map.cache_clear()
        tracemalloc.start()
        try:
            _gradient_map(16, 1e5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 2**20


class TestCanonicalAngle:
    """The angle atan2(g2, g1) of the raster's mean gradient, and the
    degeneracy rule energy <= GRADIENT_THRESHOLD, through canonicalize_image(s)."""

    def test_up_is_zero(self):
        res = canonicalize_image(_ramp_z1(32))
        assert res.element == 0.0 and not res.degenerate

    def test_right_needs_quarter_turn(self):
        res = canonicalize_image(_ramp_z2(32))
        assert res.element == np.pi / 2 and not res.degenerate

    def test_quarter_turn_brings_gradient_up(self):
        """Rotating the horizontal ramp by its canonical angle yields an
        upward mean gradient."""
        img = _ramp_z2(32)
        turned = rotate_image(img, canonicalize_image(img).element, "bilinear")
        np.testing.assert_allclose(mean_gradient(turned, 1.0), [1.0, 0.0],
                                   atol=0.02)

    def test_down_maps_to_pi(self):
        res = canonicalize_image(_ramp_z1(32).pixels[::-1])
        assert res.element == np.pi and not res.degenerate

    @pytest.mark.parametrize("k", [-6, -3, -1, -0.01, 0, 0.01, 1, 3, 6])
    def test_threshold_flags_degenerate(self, k):
        """Ramps of slope GRADIENT_THRESHOLD * 10^k / E, E the energy at slope 1,
        so of energy 10^k times the threshold; at k = 0 the slope is moved by
        ulps until the z1 ramp's energy is the threshold itself.  The flag is
        set exactly when the energy is at or below the threshold, the energy
        is linear in the slope, and an unflagged z1, z2 or flipped z1 ramp
        gets the angle 0, pi/2 or pi exactly."""
        ramps = np.stack([_ramp_z1(32).pixels, _ramp_z2(32).pixels, _ramp_z1(32).pixels[::-1]])
        unit = canonicalize_images(ramps).energy
        slope = GRADIENT_THRESHOLD * 10.0 ** k / unit[0]
        if k == 0:
            slopes = slope + np.arange(-32, 33) * np.spacing(slope)
            at = canonicalize_images(slopes[:, None, None] * ramps[0]).energy == GRADIENT_THRESHOLD
            assert at.any()
            slope = slopes[at.argmax()]
        res = canonicalize_images(slope * ramps)
        np.testing.assert_array_equal(res.degenerate, res.energy <= GRADIENT_THRESHOLD)
        np.testing.assert_allclose(res.energy, slope * unit, rtol=1e-13)
        if k:
            np.testing.assert_array_equal(res.degenerate, k < 0)
        else:
            assert res.energy[0] == GRADIENT_THRESHOLD and res.degenerate[0]
        for flagged, alpha, want in zip(res.degenerate, res.element, [0.0, np.pi / 2, np.pi]):
            assert alpha == (0.0 if flagged else want)
        np.testing.assert_array_equal(res.canonical[res.degenerate],
                                      (slope * ramps)[res.degenerate])


class TestRotateImage:
    def test_zero_angle_bit_identical(self):
        rng = np.random.default_rng(306)
        img = GrayImage(rng.random((17, 17)))
        for scheme in SCHEMES:
            out = rotate_image(img, 0.0, scheme)
            np.testing.assert_array_equal(out, img.pixels)

    def test_nearest_quarter_turn_is_permutation(self):
        rng = np.random.default_rng(307)
        for n in (8, 9, 16):
            p = rng.random((n, n))
            out = rotate_image(GrayImage(p), np.pi / 2, "nearest")
            np.testing.assert_array_equal(out, np.rot90(p, 1))

    def test_quarter_turn_near_exact_all_schemes(self):
        """Pixel centers land on pixel centers at 90 degrees; nearest is an
        exact permutation, the interpolating schemes differ only by the
        rounding of cos(pi/2) to 6e-17 in the sample coordinates."""
        rng = np.random.default_rng(308)
        p = rng.random((12, 12))
        for scheme in ("bilinear", "bicubic"):
            out = rotate_image(GrayImage(p), np.pi / 2, scheme)
            np.testing.assert_allclose(out, np.rot90(p, 1),
                                       rtol=0, atol=1e-14)

    def test_half_turn_composition(self):
        """Two half turns reproduce the original within the documented
        2e-2 mean-absolute bound on the interior disc."""
        data = gen_synthetic_images(seed=32, n_per_class=1)
        mask = _disc_mask(32, 0.35)
        for img, _ in data.samples:
            twice = rotate_image(rotate_image(img, np.pi, "bilinear"),
                                 np.pi, "bilinear")
            err = np.abs(twice - img)[mask].mean()
            assert err <= 2e-2

    @pytest.mark.parametrize("n", [7, 16, 33])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_stack_matches_each_raster(self, scheme, n):
        """A stack (N, n, n) rotates bit for bit as its rasters one by one."""
        rng = np.random.default_rng(310 + n)
        stack = rng.random((5, n, n))
        angles = np.concatenate([[0.0, np.pi / 2], rng.uniform(-7.0, 7.0, 22)])
        for alpha in angles:
            out = rotate_image(stack, alpha, scheme)
            assert out.shape == stack.shape
            for img, got in zip(stack, out):
                np.testing.assert_array_equal(got, rotate_image(img, alpha, scheme))

    def test_corner_fill_zero(self):
        img = GrayImage(np.ones((16, 16)))
        out = rotate_image(img, np.pi / 4, "bilinear")
        assert out[0, 0] == 0.0
        assert out[0, -1] == 0.0
        assert out[8, 8] > 0.99

    def test_output_range_clamped(self):
        rng = np.random.default_rng(309)
        img = GrayImage(rng.random((20, 20)))
        for scheme in SCHEMES:
            out = rotate_image(img, 0.37, scheme)
            assert out.min() >= 0.0 and out.max() <= 1.0

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            rotate_image(GrayImage(np.zeros((4, 4))), 0.1, "lanczos")

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            rotate_image(GrayImage(np.zeros((4, 6))), 0.1, "bilinear")

    def test_stack_checks(self):
        """A stack is checked once: squareness, scheme and finite values."""
        with pytest.raises(ValueError, match="square raster, got 4 x 6"):
            rotate_image(np.zeros((3, 4, 6)), 0.1, "bilinear")
        with pytest.raises(ValueError, match="unknown interpolation scheme"):
            rotate_image(np.zeros((3, 4, 4)), 0.1, "lanczos")
        stack = np.zeros((3, 4, 4))
        stack[2, 1, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            rotate_image(stack, 0.0, "nearest")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, bad):
        """A NaN angle once gave an all-zero raster, and an infinite one a
        bare math domain error; both now name the angle."""
        img = np.full((4, 4), 0.5)
        with pytest.raises(ValueError, match=rf"rotation angles must be finite, got \[{bad}\]"):
            rotate_image(img, bad)
        with pytest.raises(ValueError, match=rf"rotation angles must be finite, got \[{bad}\]"):
            rotate_image(np.stack([img, img, img]), np.array([0.1, bad, 0.2]), "bicubic")


class TestCanonicalizeImage:
    def test_constant_image_degenerate_passthrough(self):
        img = GrayImage(np.full((16, 16), 0.7))
        res = canonicalize_image(img)
        assert res.degenerate
        assert res.element == 0.0
        np.testing.assert_array_equal(res.canonical, img.pixels)

    @pytest.mark.parametrize("img", [GrayImage(np.full((8, 8), 0.5)), _ramp_z1(8)],
                             ids=["degenerate", "textured"])
    def test_unknown_scheme_rejected(self, img):
        with pytest.raises(ValueError, match="unknown interpolation scheme"):
            canonicalize_image(img, scheme="bogus")

    def test_ramp_prerotated_30_degrees(self):
        """The recovered angle undoes a 30-degree pre-rotation and the two
        canonical forms agree on the interior disc."""
        img = _ramp_z1(32)
        beta = math.radians(30.0)
        rotated = rotate_image(img, beta, "bilinear")
        res0 = canonicalize_image(img)
        res30 = canonicalize_image(rotated)
        assert abs(_wrap_angle(res30.element + beta)) <= math.radians(2.0)
        mask = _disc_mask(32, 0.35)
        diff = np.abs(res30.canonical - res0.canonical)[mask]
        assert diff.mean() <= 0.03

    def test_already_canonical_fixed_point(self):
        data = gen_synthetic_images(seed=33, n_per_class=1)
        mask = _disc_mask(32, 0.35)
        for img, _ in data.samples:
            first = canonicalize_image(img)
            assert not first.degenerate
            again = canonicalize_image(first.canonical)
            if first.energy > 10.0 * GRADIENT_THRESHOLD:
                assert abs(again.element) <= 0.01
            diff = np.abs(again.canonical
                          - first.canonical)[mask]
            assert diff.mean() <= 0.03

    def test_angle_consistency_spot_check(self):
        """alpha(rot_beta(u)) == alpha(u) - beta within 2 degrees."""
        data = gen_synthetic_images(seed=34, n_per_class=1)
        img = data.samples[0][0]
        alpha0 = canonicalize_image(img).element
        for beta_deg in (10.0, 65.0, 140.0, 215.0, 305.0):
            beta = math.radians(beta_deg)
            alpha = canonicalize_image(rotate_image(img, beta,
                                                    "bilinear")).element
            resid = _wrap_angle(alpha - alpha0 + beta)
            assert abs(resid) <= math.radians(2.0)

    def test_energy_is_gradient_magnitude(self):
        """Exactly the magnitude of mean_gradient, and that of the blurred
        raster's model gradient to the energy bound."""
        img = _ramp_z1(32)
        res = canonicalize_image(img)
        assert res.energy == np.hypot(*mean_gradient(img, 1.0))
        energy = _reference_mean_gradient(gaussian_blur(img, 1.0))[2]
        assert abs(res.energy - energy) <= ENERGY_RTOL * energy

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            canonicalize_image(GrayImage(np.zeros((8, 12))))


class TestRotationMapping:
    """The image orbit mapping: the angle rotates a raster to canonical form."""

    def test_call_matches_function(self):
        """The stacked call gives the one-raster call's result, as arrays."""
        data = gen_synthetic_images(seed=35, n_per_class=1)
        img = data.samples[0][0]
        res = canonicalize_images(img[None], scheme="bilinear", sigma=1.0)
        ref = canonicalize_image(img, scheme="bilinear", sigma=1.0)
        np.testing.assert_array_equal(res.canonical[0], ref.canonical)
        assert res.element.shape == res.degenerate.shape == res.energy.shape == (1,)
        assert res.element[0] == ref.element

    def test_apply_inverse_near_identity(self):
        data = gen_synthetic_images(seed=36, n_per_class=1)
        img = data.samples[0][0]
        res = canonicalize_image(img)
        back = rotate_image(res.canonical, -res.element, "bilinear")
        mask = _disc_mask(32, 0.35)
        err = np.abs(back - img)[mask].mean()
        assert err <= 2e-2


# ---------------------------------------------------------------------------
# The one-raster path: edge padding by np.pad, the model gradient of the
# blurred raster point by point, circle by circle, and a resampler gathering
# with 2-D indices clamped tap by tap.  The stacked blur and resampler
# reproduce it bit for bit.  The program's mean gradient folds the blur into
# weights on the raw raster's differences and sums them cell by cell, so it
# agrees with the reference only to rounding.  Each bound below is the sum of
# the two paths' largest errors against exact rational arithmetic
# (_exact_mean_gradient) on the data of the tests that use it, so the
# difference of the paths stays under it by the triangle inequality:
# - MEAN_GRADIENT_RTOL, on test_mean_gradient_of_stack_is_reference_per_raster's
#   rasters: the reference errs by up to 3.381e-14 of max(|g|, 1) and the
#   program by 3.934e-15 (test_mean_gradient_is_exact_to_rounding), 3.77e-14;
# - ANGLE_ATOL and ENERGY_RTOL, on test_matches_one_raster_path's stacks and
#   the z1 ramp: angles err by up to 5.107e-15 rad (reference) and 5.218e-15
#   (program), 1.033e-14; energies by 1.605e-14 and 9.984e-15 relative, 2.60e-14;
# - LARGE_SIGMA_ANGLE_ATOL and LARGE_SIGMA_ENERGY_RTOL, on
#   test_radius_beyond_the_raster's rasters: the reference's long sums err by
#   up to 2.252e-12 rad and 1.181e-12 relative, the program by 7.550e-15 and
#   7.348e-15, 2.260e-12 and 1.188e-12.
# Each sum is rounded up at its second digit.

MEAN_GRADIENT_RTOL = 3.8e-14      # relative to max(|g|, 1)
ANGLE_ATOL = 1.1e-14              # radians
ENERGY_RTOL = 2.7e-14             # relative
LARGE_SIGMA_ANGLE_ATOL = 2.3e-12  # radians
LARGE_SIGMA_ENERGY_RTOL = 1.2e-12  # relative


def _reference_blur(img, sigma):
    taps = _gauss_taps(sigma)
    radius = len(taps) // 2
    out = np.asarray(img, dtype=float)
    for axis in (0, 1):
        pad = [(0, 0), (0, 0)]
        pad[axis] = (radius, radius)
        padded = np.pad(out, pad, mode="edge")
        acc = np.zeros_like(out)
        for k, t in enumerate(taps):
            acc += t * (padded[k:k + out.shape[0], :] if axis == 0
                        else padded[:, k:k + out.shape[1]])
        out = acc
    return np.clip(out, 0.0, 1.0)


def _probe_points():
    theta = 2.0 * np.pi * np.arange(CIRCLE_SAMPLES) / CIRCLE_SAMPLES
    return [np.stack([0.5 + r * np.cos(theta), 0.5 + r * np.sin(theta)], axis=-1)
            for r in CIRCLE_RADII]


def _reference_mean_gradient(blurred):
    model = SmoothImageModel(blurred)
    per_circle = [model.gradient(points).mean(axis=0) for points in _probe_points()]
    g1, g2 = np.mean(per_circle, axis=0)
    return float(g1), float(g2), float(np.hypot(g1, g2))


@lru_cache(maxsize=None)
def _exact_blur(n, sigma):
    """The edge-replicated blur of the reference as an exact n x n matrix: tap k
    of row i lands on the pixel clip(i + k - R)."""
    taps = [Fraction(t) for t in _gauss_taps(sigma).tolist()]
    radius = len(taps) // 2
    blur = np.full((n, n), Fraction(0), dtype=object)
    for i in range(n):
        for k, t in enumerate(taps):
            blur[i, min(max(i + k - radius, 0), n - 1)] += t
    return blur


def _exact_mean_gradient(img, sigma):
    """mean_gradient(img, sigma) in exact rational arithmetic, rounded once: the
    edge-replicated blur over the float taps of the reference blur, unclamped,
    then the model gradient at the probes' own cells and fractions, whose
    weights are summed per cell before they meet the pixels."""
    p = np.asarray(img, dtype=float)
    n = p.shape[0]
    blur = _exact_blur(n, sigma)
    y = blur @ np.array([[Fraction(v) for v in row] for row in p.tolist()], dtype=object) @ blur.T
    model = SmoothImageModel(p)
    row_f, col_f = model._fractional(np.concatenate(_probe_points()))
    (r0, tr, live_r), (c0, tc, live_c) = model._cell(row_f, n), model._cell(col_f, n)
    cells = {}
    for r, c, s, t, lr, lc in zip(r0.tolist(), c0.tolist(), *(
            map(Fraction, x.tolist()) for x in (tr, tc, live_r, live_c))):
        w = cells.setdefault((r, c), [0, 0, 0, 0])
        w[0] += lr * (1 - t)
        w[1] += lr * t
        w[2] += lc * (1 - s)
        w[3] += lc * s
    g1 = g2 = Fraction(0)
    for (r, c), (w0, w1, w2, w3) in cells.items():
        v00, v01, v10, v11 = y[r, c], y[r, c + 1], y[r + 1, c], y[r + 1, c + 1]
        g1 -= n * ((v10 - v00) * w0 + (v11 - v01) * w1)
        g2 += n * ((v01 - v00) * w2 + (v11 - v10) * w3)
    return float(g1 / len(tr)), float(g2 / len(tr))


def _reference_rotate(img, alpha, scheme):
    p = np.asarray(img, dtype=float)
    n = p.shape[0]
    m = (n - 1) / 2.0
    idx = np.arange(n, dtype=float)
    u, v = idx[None, :] - m, idx[:, None] - m
    ca, sa = math.cos(alpha), math.sin(alpha)
    col_f, row_f = m + ca * u - sa * v, m + sa * u + ca * v
    inside = ((col_f >= -0.5) & (col_f <= n - 0.5)
              & (row_f >= -0.5) & (row_f <= n - 0.5))
    if scheme == "nearest":
        out = p[np.clip(np.floor(row_f + 0.5), 0, n - 1).astype(int),
                np.clip(np.floor(col_f + 0.5), 0, n - 1).astype(int)]
    else:
        c0, r0 = np.floor(col_f).astype(int), np.floor(row_f).astype(int)
        tc, tr = col_f - c0, row_f - r0
        if scheme == "bilinear":
            taps, wr, wc = (0, 1), (1.0 - tr, tr), (1.0 - tc, tc)
        else:
            taps = (-1, 0, 1, 2)
            wr, wc = _catmull_rom_weights(tr), _catmull_rom_weights(tc)
        out = np.zeros(p.shape)
        for i, dr in enumerate(taps):
            for j, dc in enumerate(taps):
                out += wr[i] * wc[j] * p[np.clip(r0 + dr, 0, n - 1),
                                         np.clip(c0 + dc, 0, n - 1)]
    return np.clip(np.where(inside, out, 0.0), 0.0, 1.0)


def _reference_canonicalize(img, scheme, sigma):
    """(canonical, alpha, degenerate, energy) of one raster."""
    p = np.asarray(img, dtype=float)
    g1, g2, magnitude = _reference_mean_gradient(_reference_blur(p, sigma))
    if magnitude <= GRADIENT_THRESHOLD:
        return p, 0.0, True, magnitude
    alpha = math.atan2(g2, g1)
    return _reference_rotate(p, alpha, scheme), alpha, False, magnitude


def _bits(x):
    """The bytes of a float or float array, so -0.0 and 0.0 differ."""
    return np.asarray(x, dtype=float).tobytes()


def _test_stack(n, seed, flat_at=None):
    """Synthetic rasters at many angles, two noise rasters and optionally a
    flat one at index flat_at, above 1 so that only leaving it unrotated
    keeps its values."""
    rng = np.random.default_rng(seed)
    base = gen_synthetic_images(seed=seed, n_per_class=1, size=n).inputs
    stack = [_reference_rotate(img, a, "bilinear")
             for img in base for a in rng.uniform(-7.0, 7.0, 5)]
    stack += list(rng.random((2, n, n)))
    if flat_at is not None:
        stack.insert(flat_at, np.full((n, n), 1.5))
    return np.stack(stack)


def _crossing_count(*per_chunk):
    """A stack over two full chunks of the largest per_chunk and at least three
    rasters more, sized so that the last chunk is short under every per_chunk
    above 1."""
    count = 2 * max(per_chunk) + 3
    while not _short_last_chunk(count, *per_chunk):
        count += 1
    return count


def _short_last_chunk(count, *per_chunk):
    """Whether count rasters end in a short chunk under every per_chunk above 1."""
    return all(p == 1 or count % p for p in per_chunk)


class TestStackedImagePath:
    """gaussian_blur, mean_gradient and rotate_image over a leading axis, and the
    blur folded into mean_gradient against the blurred and the exact path."""

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.5])
    def test_blur_of_stack_is_reference_per_raster(self, sigma):
        stack = np.random.default_rng(320).random((2, 3, 17, 17))
        out = gaussian_blur(stack, sigma)
        for index in np.ndindex(stack.shape[:2]):
            assert _bits(out[index]) == _bits(_reference_blur(stack[index], sigma))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 16, 17, 32, 48])
    def test_mean_gradient_of_stack_is_reference_per_raster(self, n):
        """At three blur widths; small rasters clamp probes (live masks off);
        the flat raster's mean gradient is exactly zero, as is g1 of the
        raster with equal rows."""
        rng = np.random.default_rng(321 + n)
        stack = rng.random((6, n, n))
        stack[1] = 0.5
        stack[2, :, :] = rng.random(n)[None, :]
        for sigma in (0.5, 1.0, 2.5):
            g1, g2 = mean_gradient(stack, sigma)
            assert g1.shape == g2.shape == (6,)
            assert _bits([g1[1], g2[1], g1[2]]) == _bits([0.0] * 3)
            for i, img in enumerate(stack):
                want = _reference_mean_gradient(_reference_blur(img, sigma))
                got = [g1[i], g2[i], np.hypot(g1[i], g2[i])]
                np.testing.assert_allclose(got, want, rtol=0,
                                           atol=MEAN_GRADIENT_RTOL * max(want[2], 1.0))
                assert _bits(mean_gradient(img, sigma)) == _bits(got[:2])

    @pytest.mark.parametrize("n", [2, 7, 16, 17, 32])
    def test_mean_gradient_is_exact_to_rounding(self, n):
        """On the data above, at three blur widths, the program's mean gradient
        is within 4e-15 of max(|g|, 1) of exact arithmetic (measured 3.934e-15,
        at n = 32 and sigma = 0.5)."""
        rng = np.random.default_rng(321 + n)
        stack = rng.random((6, n, n))
        stack[2, :, :] = rng.random(n)[None, :]
        for sigma in (0.5, 1.0, 2.5):
            got = np.transpose(mean_gradient(stack[[0, 2]], sigma))
            for i, img in enumerate(stack[[0, 2]]):
                g1, g2 = _exact_mean_gradient(img, sigma)
                np.testing.assert_allclose(got[i], [g1, g2], rtol=0,
                                           atol=4e-15 * max(math.hypot(g1, g2), 1.0))

    @pytest.mark.parametrize("n, sigma", [(16, 40.0), (16, 1e3), (5, 1e3), (2, 40.0)])
    def test_radius_beyond_the_raster(self, n, sigma):
        """Blur radii of 120 and 3000 pixels: every tap past the raster folds
        onto an edge.  The program is within 7.6e-15 rad and 7.4e-15 relative
        of exact arithmetic (measured 7.550e-15 and 7.348e-15), and of the
        blurred path to the larger bounds its long sums need."""
        for img in np.random.default_rng(390 + n).random((3, n, n)):
            res = canonicalize_images(img[None], "bilinear", sigma)
            g1, g2 = _exact_mean_gradient(img, sigma)
            energy = math.hypot(g1, g2)
            assert abs(_wrap_angle(res.element[0] - math.atan2(g2, g1))) <= 7.6e-15
            assert abs(res.energy[0] - energy) <= 7.4e-15 * energy
            _, alpha, degenerate, energy = _reference_canonicalize(img, "bilinear", sigma)
            assert not degenerate and not res.degenerate[0]
            assert abs(_wrap_angle(res.element[0] - alpha)) <= LARGE_SIGMA_ANGLE_ATOL
            assert abs(res.energy[0] - energy) <= LARGE_SIGMA_ENERGY_RTOL * energy

    @pytest.mark.parametrize("sigma", [1e-200, 0.5, 1.0, 2.5])
    @pytest.mark.parametrize("n", [2, 3, 16, 17, 48])
    def test_exact_zeros(self, n, sigma):
        """Differences of equal pixels are exact zeros, so a flat raster has the
        mean gradient (0.0, 0.0) and a ramp along one axis exactly 0.0 across
        it: the angles of the z1 and z2 ramps are exactly 0 and +-pi/2."""
        up, right = _ramp_z1(n).pixels, _ramp_z2(n).pixels
        stack = np.stack([np.full((n, n), 0.3), up, right, right[:, ::-1]])
        g1, g2 = mean_gradient(stack, sigma)
        assert _bits([g1[0], g2[0], g2[1], g1[2], g1[3]]) == _bits([0.0] * 5)
        res = canonicalize_images(stack, "bilinear", sigma)
        assert res.degenerate.tolist() == [True, False, False, False]
        assert _bits(res.element) == _bits([0.0, 0.0, np.pi / 2, -np.pi / 2])

    def test_one_large_raster_working_set(self):
        """With its map cached, the mean gradient of one 1024 x 1024 raster reads
        only the probed differences: it peaks below one raster size, where
        blurring the raster first held four."""
        img = np.random.default_rng(381).random((1024, 1024))
        mean_gradient(img, 1.0)
        tracemalloc.start()
        try:
            mean_gradient(img, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < img.nbytes

    def test_canonical_angle_of_stack(self):
        """Up, right and down ramps and a faint right ramp (energy about 5e-9)."""
        up, right = _ramp_z1(32).pixels, _ramp_z2(32).pixels
        res = canonicalize_images(np.stack([up, right, up[::-1], 5e-9 * right]))
        np.testing.assert_array_equal(res.element, [0.0, np.pi / 2, np.pi, 0.0])
        np.testing.assert_array_equal(res.degenerate, [False, False, False, True])

    @pytest.mark.parametrize("n", [7, 16, 33])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_rotate_per_raster_angles(self, scheme, n):
        """One angle per raster rotates each raster as it rotates alone, across
        chunk boundaries and over two leading axes."""
        rng = np.random.default_rng(330 + n)
        count = _crossing_count(CHUNK_PIXELS // (n * n))
        assert _short_last_chunk(count, CHUNK_PIXELS // (n * n))
        stack = rng.random((count, n, n))
        angles = np.concatenate([[0.0, np.pi / 2, -np.pi], rng.uniform(-7.0, 7.0, count - 3)])
        out = rotate_image(stack, angles, scheme)
        assert out.shape == stack.shape
        for img, alpha, got in zip(stack, angles, out):
            want = _reference_rotate(img, alpha, scheme)
            assert _bits(got) == _bits(want)
            assert _bits(rotate_image(img, alpha, scheme)) == _bits(want)
        grid = stack[:6].reshape(2, 3, n, n)
        out = rotate_image(grid, angles[:6].reshape(2, 3), scheme)
        for index in np.ndindex(2, 3):
            assert _bits(out[index]) == _bits(
                _reference_rotate(grid[index], angles[:6].reshape(2, 3)[index], scheme))

    def test_rotate_rejects_angles_of_wrong_shape(self):
        with pytest.raises(ValueError, match=r"one angle per raster.*\(5,\).*\(4,\)"):
            rotate_image(np.zeros((5, 4, 4)), np.zeros(4))
        with pytest.raises(ValueError, match="one angle per raster"):
            rotate_image(np.zeros((2, 3, 4, 4)), np.zeros(6))
        with pytest.raises(ValueError, match="one angle per raster"):
            rotate_image(np.zeros((4, 4)), np.zeros(1))


def _signed_rasters(rng, shape):
    """Values in [-0.5, 1.5), a fifth of them -0.0, so clamping and signed
    zeros both show in the bits."""
    x = rng.uniform(-0.5, 1.5, shape)
    x[rng.random(shape) < 0.2] = -0.0
    return x


def _assert_same_bits(got, want):
    assert _bits(got) == _bits(want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestRotationTables:
    """rotate_image builds the geometry of an angle once (_rotation_taps) and
    gathers every tap at a fixed offset into an edge-padded chunk; it equals
    the per-tap clamped reference bit for bit."""

    @pytest.mark.parametrize("n", list(range(2, 13)) + [16, 17, 31, 32, 33, 48])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_sweep_against_reference(self, scheme, n):
        """Per-raster angles over a stack crossing chunk boundaries: the
        quarter and half turns, whole degrees and random angles.  A shared
        angle gives what the same angle given once per raster gives."""
        rng = np.random.default_rng(360 + n)
        count = _crossing_count(CHUNK_PIXELS // (n * n))
        assert _short_last_chunk(count, CHUNK_PIXELS // (n * n))
        stack = _signed_rasters(rng, (count, n, n))
        special = [0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi]
        degrees = np.radians(rng.integers(-360, 361, (count - len(special)) // 2))
        angles = np.concatenate([special, degrees,
                                 rng.uniform(-7.0, 7.0, count - len(special) - len(degrees))])
        out = rotate_image(stack, angles, scheme)
        for img, alpha, got in zip(stack, angles, out):
            _assert_same_bits(got, _reference_rotate(img, alpha, scheme))
        for alpha in special + [degrees[0], angles[-1]]:
            shared = rotate_image(stack, alpha, scheme)
            _assert_same_bits(shared, rotate_image(stack, np.full(count, alpha), scheme))
            _assert_same_bits(shared[-1], _reference_rotate(stack[-1], alpha, scheme))

    @pytest.mark.parametrize("n", [2, 5, 16, 33])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_two_leading_axes(self, scheme, n):
        rng = np.random.default_rng(370 + n)
        grid = _signed_rasters(rng, (3, 5, n, n))
        angles = rng.uniform(-7.0, 7.0, (3, 5))
        angles[0, :4] = [0.0, np.pi / 2, np.pi, np.radians(33.0)]
        out = rotate_image(grid, angles, scheme)
        shared = rotate_image(grid, angles[2, 2], scheme)
        assert out.shape == shared.shape == grid.shape
        for index in np.ndindex(3, 5):
            _assert_same_bits(out[index], _reference_rotate(grid[index], angles[index], scheme))
            _assert_same_bits(shared[index], _reference_rotate(grid[index], angles[2, 2], scheme))

    @pytest.mark.parametrize("n", [7, 16, 33, 40])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_shared_angle_across_chunks(self, scheme, n):
        """A shared angle over two full chunks and a short last one: the
        first-tap index, built once per call and read in its leading rasters
        by the short chunk, reads each raster as the reference does."""
        rng = np.random.default_rng(375 + n)
        count = _crossing_count(CHUNK_PIXELS // (n * n))
        assert _short_last_chunk(count, CHUNK_PIXELS // (n * n))
        stack = _signed_rasters(rng, (count, n, n))
        for alpha in (np.radians(33.0), rng.uniform(-7.0, 7.0)):
            out = rotate_image(stack, alpha, scheme)
            for img, got in zip(stack, out):
                _assert_same_bits(got, _reference_rotate(img, alpha, scheme))

    @pytest.mark.parametrize("n", [2, 5, 32, 33])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_one_angle_per_group(self, scheme, n):
        """A stack (G, N, n, n) with angles (G,) is one shared-angle call per
        group, bit for bit, with N and G N crossing chunk boundaries and
        ending in a short chunk, and with N = 2; so is a broadcast group, as
        the audits give, and a group of groups, (2, G, N, n, n) with angles
        (2,)."""
        rng = np.random.default_rng(385 + n)
        count = _crossing_count(CHUNK_PIXELS // (n * n))
        assert _short_last_chunk(count, CHUNK_PIXELS // (n * n))
        assert _short_last_chunk(3 * count, CHUNK_PIXELS // (n * n))
        stack = _signed_rasters(rng, (3, count, n, n))
        angles = np.array([np.pi / 2, rng.uniform(-7.0, 7.0), np.radians(33.0)])
        for groups in (stack, stack[:, :2]):
            out = rotate_image(groups, angles, scheme)
            for group, alpha, got in zip(groups, angles, out):
                _assert_same_bits(got, rotate_image(group, alpha, scheme))
        moved = rotate_image(np.broadcast_to(stack[1], stack.shape), angles, scheme)
        for alpha, got in zip(angles, moved):
            _assert_same_bits(got, rotate_image(stack[1], alpha, scheme))
        pair = np.stack([stack[:, :5], stack[::-1, :5]])
        out = rotate_image(pair, angles[:2], scheme)
        for groups, alpha, got in zip(pair, angles[:2], out):
            _assert_same_bits(got, rotate_image(groups, alpha, scheme))

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_many_small_groups(self, scheme, monkeypatch):
        """Groups (G, N, n, n) small enough that several share a chunk, over
        two full chunks of angles and a short last one: one table per chunk
        of angles, and each group as a call of its own gives it."""
        n, size, count = 16, 3, 23
        per_chunk = CHUNK_PIXELS // (size * n * n)
        assert per_chunk == 10 and _short_last_chunk(count, per_chunk)
        rng = np.random.default_rng(395)
        stack = _signed_rasters(rng, (count, size, n, n))
        angles = rng.uniform(-7.0, 7.0, count)
        angles[[0, 9, 10, 22]] = [0.0, np.pi / 2, np.radians(33.0), -np.pi]
        tables, built = image._rotation_taps, []
        monkeypatch.setattr(image, "_rotation_taps", lambda *args: built.append(args)
                            or tables(*args))
        out = rotate_image(stack, angles, scheme)
        assert len(built) == math.ceil(count / per_chunk)
        monkeypatch.undo()
        for group, alpha, got in zip(stack, angles, out):
            _assert_same_bits(got, rotate_image(group, alpha, scheme))

    @pytest.mark.parametrize("n", [1, 5])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_empty_stacks(self, scheme, n):
        """No raster, under one angle, no angle, or angles whose groups are
        empty: an empty array of the input's shape."""
        for stack, alpha in ((np.empty((0, n, n)), 0.3), (np.empty((0, n, n)), np.empty(0)),
                             (np.empty((2, 0, n, n)), np.zeros(2))):
            out = rotate_image(stack, alpha, scheme)
            assert out.shape == stack.shape and out.dtype == float

    @pytest.mark.parametrize("call", [
        *(lambda stack, scheme=scheme: rotate_image(stack, 0.3, scheme) for scheme in SCHEMES),
        lambda stack: mean_gradient(stack, 1.0), canonicalize_images,
    ], ids=[*SCHEMES, "mean_gradient", "canonicalize_images"])
    def test_raster_without_a_pixel(self, call):
        """A 0 x 0 raster is refused by the shape rule all three share: bilinear and
        bicubic used to fail inside numpy, nearest to return the empty stack, and the
        other two to ask for a 2 x 2 raster for a gradient."""
        message = "rotation needs a raster of at least one pixel, got 0 x 0"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(np.empty((3, 0, 0)))

    @pytest.mark.parametrize("shape", [(5, 4), (4,), (5,), (3, 5, 4)])
    def test_angles_that_lead_no_raster_axes(self, shape):
        """Angles for a stack (3, 5, 4, 4) must have the shape (), (3,) or
        (3, 5): (5, 4) names a raster axis, (4,) has one group too many,
        (5,) is not a prefix and (3, 5, 4) reaches into the raster."""
        with pytest.raises(ValueError, match=re.escape(
                f"expected one angle per raster, (3, 5), got {shape}")):
            rotate_image(np.zeros((3, 5, 4, 4)), np.zeros(shape))

    def test_cached_constants_are_read_only(self):
        """Every array cached per raster size refuses a write, which would
        reach every later call for that size."""
        rotate_image(np.zeros((2, 9, 9)), 0.3, "bicubic")
        mean_gradient(np.zeros((9, 9)), 1.0)
        _, u, v = _offset_grids(9)
        cached = [u, v, _edge_index(9, 1), _edge_index(9, 2)]
        cached += [a for component in _gradient_map(9, 1.0) for a in component]
        assert len(cached) == 10
        for a in cached:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1
            with pytest.raises(ValueError, match="read-only"):
                a += 1

    @pytest.mark.parametrize("scheme, rasters", [("nearest", 7), ("bilinear", 13), ("bicubic", 19)])
    def test_one_large_raster_working_set(self, scheme, rasters):
        """One 512 x 512 raster peaks under this many raster-sized arrays:
        measured 4.1, 11.1 and 16.1 with the sum written into the output
        and one reused gather buffer, 6.1, 12.1 and 18.1 before that, and
        8.1, 17.1 and 27.1 with per-tap index arrays."""
        img = np.random.default_rng(380).random((512, 512))
        rotate_image(img[:8, :8], 0.3, scheme)
        tracemalloc.start()
        try:
            rotate_image(img, 0.3, scheme)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= rasters * img.nbytes


class TestCanonicalizeImages:
    @pytest.mark.parametrize("n", [16, 17, 32, 48])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_matches_one_raster_path(self, scheme, n):
        """Every lane equals canonicalize_image bit for bit, and the one-raster
        reference to the angle and energy bounds, for three blur widths; the
        canonical raster is the reference rotation by the lane's own angle."""
        for sigma in (0.5, 1.0, 2.5):
            stack = _test_stack(n, seed=340 + n)
            res = canonicalize_images(stack, scheme, sigma)
            assert res.canonical.shape == stack.shape
            assert res.element.shape == res.degenerate.shape == res.energy.shape == (len(stack),)
            for i, img in enumerate(stack):
                _, alpha, degenerate, energy = _reference_canonicalize(img, scheme, sigma)
                assert abs(_wrap_angle(res.element[i] - alpha)) <= ANGLE_ATOL
                assert abs(res.energy[i] - energy) <= ENERGY_RTOL * energy
                assert res.degenerate[i] == degenerate
                canonical = img if degenerate else _reference_rotate(img, res.element[i], scheme)
                assert _bits(res.canonical[i]) == _bits(canonical)
                one = canonicalize_image(img, scheme, sigma)
                assert _bits(one.canonical) == _bits(canonical)
                assert _bits([one.element, one.energy]) == _bits([res.element[i], res.energy[i]])
                assert one.degenerate is degenerate
                assert type(one.element) is float and type(one.energy) is float

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_flat_raster_in_stack(self, scheme):
        """The flat lane comes back unrotated, with angle 0.0 and the flag;
        its neighbours are canonicalized as if it were not there."""
        stack = _test_stack(16, seed=350, flat_at=5)
        res = canonicalize_images(stack, scheme)
        assert res.degenerate.tolist() == [i == 5 for i in range(len(stack))]
        assert _bits(res.canonical[5]) == _bits(stack[5])
        assert _bits(res.element[5]) == _bits(0.0) and res.energy[5] == 0.0
        rest = canonicalize_images(np.delete(stack, 5, axis=0), scheme)
        assert _bits(np.delete(res.canonical, 5, axis=0)) == _bits(rest.canonical)
        assert _bits(np.delete(res.element, 5)) == _bits(rest.element)

    def test_stack_longer_than_a_chunk_and_stack_of_one(self):
        n = 16
        rng = np.random.default_rng(351)
        base = gen_synthetic_images(seed=351, n_per_class=1, size=n).inputs
        count = 2 * (CHUNK_PIXELS // (n * n)) + 5
        cells = max(len(component[0]) for component in _gradient_map(n, 1.0))
        assert _short_last_chunk(count, CHUNK_PIXELS // cells, CHUNK_PIXELS // (n * n))
        stack = np.stack([rotate_image(base[i % 4], a, "bilinear")
                          for i, a in enumerate(rng.uniform(0.0, 2.0 * np.pi, count))])
        res = canonicalize_images(stack, "bicubic", 1.0)
        for i in range(0, count, 7):
            one = canonicalize_images(stack[i:i + 1], "bicubic", 1.0)
            assert one.canonical.shape == (1, n, n)
            assert _bits(one.canonical[0]) == _bits(res.canonical[i])
            assert _bits([one.element[0], one.energy[0]]) == _bits([res.element[i], res.energy[i]])
            assert one.degenerate.tolist() == [bool(res.degenerate[i])]

    @pytest.mark.parametrize("n", [16, 32, 48, 90])
    def test_gradient_chunk_boundaries(self, n):
        """The orientation estimate goes CHUNK_PIXELS // cells rasters at a
        time, the rotation CHUNK_PIXELS // (n * n): over two full gradient
        chunks and a short last one of each kind (at 90 x 90 a rotation chunk
        is one raster) every raster is canonicalized as it is alone, bit for
        bit."""
        cells = max(len(component[0]) for component in _gradient_map(n, 1.0))
        per_chunk = CHUNK_PIXELS // cells, CHUNK_PIXELS // (n * n)
        count = _crossing_count(*per_chunk)
        assert per_chunk[0] > per_chunk[1]
        assert _short_last_chunk(count, *per_chunk)
        rng = np.random.default_rng(354 + n)
        base = gen_synthetic_images(seed=354, n_per_class=1, size=n).inputs
        stack = np.stack([rotate_image(base[i % len(base)], a, "bilinear")
                          for i, a in enumerate(rng.uniform(0.0, 2.0 * np.pi, count))])
        res = canonicalize_images(stack, "bilinear", 1.0)
        for i, img in enumerate(stack):
            one = canonicalize_images(img[None], "bilinear", 1.0)
            assert _bits(one.canonical[0]) == _bits(res.canonical[i])
            assert _bits([one.element[0], one.energy[0]]) == _bits([res.element[i], res.energy[i]])
            assert one.degenerate[0] == res.degenerate[i]

    def test_input_checks(self):
        """An unknown scheme raises for a stack, flat or not, as do a stack of
        the wrong rank, a non-square stack and non-finite values."""
        stack = _test_stack(16, seed=352, flat_at=0)
        with pytest.raises(ValueError, match="unknown interpolation scheme"):
            canonicalize_images(stack, scheme="bogus")
        with pytest.raises(ValueError, match="unknown interpolation scheme"):
            canonicalize_images(stack[:1], scheme="bogus")
        with pytest.raises(ValueError, match=r"stack \(N, n, n\)"):
            canonicalize_images(stack[0])
        with pytest.raises(ValueError, match="square raster, got 16 x 8"):
            canonicalize_images(stack[:, :, :8])
        bad = stack.copy()
        bad[3, 2, 2] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            canonicalize_images(bad)

    def test_one_pixel_raster_rejected(self):
        with pytest.raises(ValueError, match="need at least a 2 x 2 raster"):
            canonicalize_images(np.full((3, 1, 1), 0.5))
        with pytest.raises(ValueError, match="need at least a 2 x 2 raster"):
            canonicalize_image(np.full((1, 1), 0.5))

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_working_set_is_bounded(self, scheme):
        """64 rasters of 48 x 48 peak under the output plus 32 float arrays
        of 8192 pixels (3.3 MB); bicubic measured 2.1 MB at CHUNK_PIXELS =
        8192, with gradient chunks of 6 rasters, and 4.6 MB at 16384 before
        the rotation wrote into its output.  Without chunking the path held
        about 23 stack-sized temporaries, some 27 MB."""
        stack = gen_synthetic_images(seed=353, n_per_class=16, size=48).inputs
        canonicalize_images(stack[:1], scheme)  # probe geometry cached
        tracemalloc.start()
        try:
            canonicalize_images(stack, scheme)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= stack.nbytes + 32 * 8192 * 8
