"""Tests for the 2D rotation canonicalizer: blur, model, angle, resampling."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from orbitcanon.audit import gen_synthetic_images
from orbitcanon.image import (
    CHUNK_PIXELS,
    CIRCLE_RADII,
    CIRCLE_SAMPLES,
    GRADIENT_THRESHOLD,
    GrayImage,
    MeanGradient,
    RotationMapping,
    SCHEMES,
    SmoothImageModel,
    canonical_angle,
    canonicalize_image,
    canonicalize_images,
    gaussian_blur,
    mean_gradient,
    rotate_image,
    smooth_model,
)
from orbitcanon.image import _catmull_rom_weights


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
        assert not img.is_square
        assert GrayImage(np.zeros((4, 4))).is_square


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
        model = smooth_model(img, 1.0)
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
        mg = mean_gradient(smooth_model(GrayImage(np.full((16, 16), 0.4)), 1.0))
        assert mg.magnitude == 0.0
        alpha, degenerate = canonical_angle(mg)
        assert alpha == 0.0 and degenerate

    def test_vertical_ramp(self):
        mg = mean_gradient(smooth_model(_ramp_z1(32), 1.0))
        np.testing.assert_allclose([mg.g1, mg.g2], [1.0, 0.0], atol=1e-3)
        np.testing.assert_allclose(mg.magnitude, 1.0, atol=1e-3)
        assert mg.sample_count == 2 * CIRCLE_SAMPLES

    def test_horizontal_ramp(self):
        mg = mean_gradient(smooth_model(_ramp_z2(32), 1.0))
        np.testing.assert_allclose([mg.g1, mg.g2], [0.0, 1.0], atol=1e-3)

    def test_magnitude_consistency(self):
        mg = MeanGradient(g1=3.0, g2=4.0, magnitude=5.0, sample_count=2000)
        assert mg.magnitude == np.hypot(mg.g1, mg.g2)

    def test_rotation_commutation(self):
        """Rotating the image rotates the mean gradient, within 1 percent.

        The bound is discretization-limited: it needs a raster fine enough
        that resampling does not visibly smooth the content (64x64 here;
        32x32 sits near 2.6 percent on the sharpest class).
        """
        data = gen_synthetic_images(seed=31, n_per_class=1, size=64)
        for img, _ in data.samples[:3]:
            mg = mean_gradient(smooth_model(img, 1.0))
            for beta in (math.radians(20.0), math.radians(125.0)):
                rotated = rotate_image(img, beta, "bilinear")
                got = mean_gradient(smooth_model(rotated, 1.0))
                want1 = mg.g1 * math.cos(beta) + mg.g2 * math.sin(beta)
                want2 = mg.g2 * math.cos(beta) - mg.g1 * math.sin(beta)
                err = np.hypot(got.g1 - want1, got.g2 - want2)
                assert err <= 1e-2 * mg.magnitude


class TestCanonicalAngle:
    def test_up_is_zero(self):
        alpha, degenerate = canonical_angle(
            MeanGradient(1.0, 0.0, 1.0, 2000))
        assert alpha == 0.0 and not degenerate

    def test_right_needs_quarter_turn(self):
        alpha, degenerate = canonical_angle(
            MeanGradient(0.0, 1.0, 1.0, 2000))
        assert alpha == np.pi / 2 and not degenerate

    def test_quarter_turn_brings_gradient_up(self):
        """Rotating the horizontal ramp by its canonical angle yields an
        upward mean gradient."""
        img = _ramp_z2(32)
        mg = mean_gradient(smooth_model(img, 1.0))
        alpha, _ = canonical_angle(mg)
        turned = rotate_image(img, alpha, "bilinear")
        mg2 = mean_gradient(smooth_model(turned, 1.0))
        np.testing.assert_allclose([mg2.g1, mg2.g2], [1.0, 0.0], atol=0.02)

    def test_down_maps_to_pi(self):
        alpha, _ = canonical_angle(MeanGradient(-1.0, 0.0, 1.0, 2000))
        assert alpha == np.pi

    def test_threshold_flags_degenerate(self):
        weak = MeanGradient(0.0, 5e-9, 5e-9, 2000)
        alpha, degenerate = canonical_angle(weak, GRADIENT_THRESHOLD)
        assert alpha == 0.0 and degenerate
        alpha, degenerate = canonical_angle(weak, 1e-10)
        assert degenerate is False and alpha == np.pi / 2


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
        img = _ramp_z1(32)
        res = canonicalize_image(img)
        mg = mean_gradient(smooth_model(img, 1.0))
        assert res.energy == mg.magnitude

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            canonicalize_image(GrayImage(np.zeros((8, 12))))


class TestRotationMapping:
    def test_call_matches_function(self):
        data = gen_synthetic_images(seed=35, n_per_class=1)
        img = data.samples[0][0]
        mapping = RotationMapping(scheme="bilinear", sigma=1.0)
        res = mapping(img)
        ref = canonicalize_image(img, scheme="bilinear", sigma=1.0)
        np.testing.assert_array_equal(res.canonical,
                                      ref.canonical)
        assert res.element == ref.element

    def test_apply_inverse_near_identity(self):
        data = gen_synthetic_images(seed=36, n_per_class=1)
        img = data.samples[0][0]
        mapping = RotationMapping()
        res = mapping(img)
        back = mapping.apply(mapping.inverse(res.element), res.canonical)
        mask = _disc_mask(32, 0.35)
        err = np.abs(back - img)[mask].mean()
        assert err <= 2e-2


# ---------------------------------------------------------------------------
# The one-raster path: edge padding by np.pad, the model gradient point by
# point, circle by circle, and a resampler gathering with 2-D indices clamped
# tap by tap.  The stacked blur and resampler reproduce it bit for bit.  The
# program's mean gradient sums weighted differences cell by cell instead of
# probe by probe, so it agrees with the reference to the bounds below.  The
# reference is the less accurate of the two: against exact rational arithmetic
# on the mean-gradient tests' data it errs by up to 1.69e-14 relative to
# max(|g|, 1), the program by 2.6e-15 (test_mean_gradient_is_exact_to_rounding),
# so their difference, measured at 1.72e-14, stays under the sum, 2e-14.  On the
# canonicalization tests' data angles differ by at most 3.6e-15 rad and
# energies by 4.7e-15 relative.

MEAN_GRADIENT_RTOL = 2e-14        # relative to max(|g|, 1)
ANGLE_ATOL = 7.1e-15              # radians
ENERGY_RTOL = 1.6e-14             # relative


def _reference_blur(img, sigma):
    radius = math.ceil(3.0 * sigma)
    taps = np.exp(-(np.arange(-radius, radius + 1, dtype=float) ** 2)
                  / (2.0 * sigma * sigma))
    taps /= taps.sum()
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


def _reference_mean_gradient(blurred):
    model = SmoothImageModel(blurred)
    theta = 2.0 * np.pi * np.arange(CIRCLE_SAMPLES) / CIRCLE_SAMPLES
    per_circle = [model.gradient(np.stack([0.5 + r * np.cos(theta),
                                           0.5 + r * np.sin(theta)], axis=-1)).mean(axis=0)
                  for r in CIRCLE_RADII]
    g1, g2 = np.mean(per_circle, axis=0)
    return float(g1), float(g2), float(np.hypot(g1, g2))


def _exact_mean_gradient(blurred):
    """The model gradient's mean over the probes in exact rational arithmetic,
    rounded once; the probes' cells and fractions are the model's own."""
    n = blurred.shape[0]
    theta = 2.0 * np.pi * np.arange(CIRCLE_SAMPLES) / CIRCLE_SAMPLES
    model = SmoothImageModel(blurred)
    v00, v01, v10, v11, tr, tc, live_r, live_c = model._gather(np.concatenate(
        [np.stack([0.5 + r * np.cos(theta), 0.5 + r * np.sin(theta)], axis=-1)
         for r in CIRCLE_RADII]))
    g1 = g2 = Fraction(0)
    for a, b, c, d, s, t, lr, lc in zip(*(map(Fraction, x.tolist()) for x in
                                          (v00, v01, v10, v11, tr, tc, live_r, live_c))):
        g1 -= n * lr * ((c - a) * (1 - t) + (d - b) * t)
        g2 += n * lc * ((b - a) * (1 - s) + (d - c) * s)
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


class TestStackedImagePath:
    """gaussian_blur, mean_gradient and rotate_image over a leading axis."""

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.5])
    def test_blur_of_stack_is_reference_per_raster(self, sigma):
        stack = np.random.default_rng(320).random((2, 3, 17, 17))
        out = gaussian_blur(stack, sigma)
        for index in np.ndindex(stack.shape[:2]):
            assert _bits(out[index]) == _bits(_reference_blur(stack[index], sigma))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 16, 17, 32, 48])
    def test_mean_gradient_of_stack_is_reference_per_raster(self, n):
        """Small rasters clamp probes (live masks off); the flat raster's mean
        gradient is exactly zero, as is g1 of the raster with equal rows."""
        rng = np.random.default_rng(321 + n)
        stack = rng.random((6, n, n))
        stack[1] = 0.5
        stack[2, :, :] = rng.random(n)[None, :]
        mg = mean_gradient(SmoothImageModel(stack))
        assert mg.g1.shape == (6,) and mg.sample_count == 2 * CIRCLE_SAMPLES
        assert _bits([mg.g1[1], mg.g2[1], mg.magnitude[1], mg.g1[2]]) == _bits([0.0] * 4)
        for i, img in enumerate(stack):
            want = _reference_mean_gradient(img)
            got = [mg.g1[i], mg.g2[i], mg.magnitude[i]]
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=MEAN_GRADIENT_RTOL * max(want[2], 1.0))
            one = mean_gradient(SmoothImageModel(img))
            assert _bits([one.g1, one.g2, one.magnitude]) == _bits(got)
            assert type(one.g1) is float and type(one.magnitude) is float

    @pytest.mark.parametrize("n", [2, 7, 16, 17])
    def test_mean_gradient_is_exact_to_rounding(self, n):
        """On the data above, where the reference errs most, the program's mean
        gradient is within 4e-15 of max(|g|, 1) of exact arithmetic (measured
        2.6e-15, at n = 17)."""
        rng = np.random.default_rng(321 + n)
        stack = rng.random((6, n, n))
        stack[2, :, :] = rng.random(n)[None, :]
        mg = mean_gradient(SmoothImageModel(stack[[0, 2]]))
        for i, img in enumerate(stack[[0, 2]]):
            g1, g2 = _exact_mean_gradient(img)
            np.testing.assert_allclose([mg.g1[i], mg.g2[i]], [g1, g2], rtol=0,
                                       atol=4e-15 * max(math.hypot(g1, g2), 1.0))

    def test_canonical_angle_of_stack(self):
        mg = MeanGradient(g1=np.array([1.0, 0.0, -1.0, 0.0]),
                          g2=np.array([0.0, 1.0, 0.0, 5e-9]),
                          magnitude=np.array([1.0, 1.0, 1.0, 5e-9]),
                          sample_count=2000)
        alpha, degenerate = canonical_angle(mg)
        np.testing.assert_array_equal(alpha, [0.0, np.pi / 2, np.pi, 0.0])
        np.testing.assert_array_equal(degenerate, [False, False, False, True])

    @pytest.mark.parametrize("n", [7, 16, 33])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_rotate_per_raster_angles(self, scheme, n):
        """One angle per raster rotates each raster as it rotates alone, across
        chunk boundaries and over two leading axes."""
        rng = np.random.default_rng(330 + n)
        count = 2 * (CHUNK_PIXELS // (n * n)) + 3
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
        stack = np.stack([rotate_image(base[i % 4], a, "bilinear")
                          for i, a in enumerate(rng.uniform(0.0, 2.0 * np.pi, count))])
        res = canonicalize_images(stack, "bicubic", 1.0)
        for i in range(0, count, 7):
            one = canonicalize_images(stack[i:i + 1], "bicubic", 1.0)
            assert one.canonical.shape == (1, n, n)
            assert _bits(one.canonical[0]) == _bits(res.canonical[i])
            assert _bits([one.element[0], one.energy[0]]) == _bits([res.element[i], res.energy[i]])
            assert one.degenerate.tolist() == [bool(res.degenerate[i])]

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
        of 8192 pixels (3.3 MB); bicubic measured 2.6 MB at CHUNK_PIXELS =
        8192 and 4.6 MB at 16384.  Without chunking the path held about 23
        stack-sized temporaries, some 27 MB."""
        stack = gen_synthetic_images(seed=353, n_per_class=16, size=48).inputs
        canonicalize_images(stack[:1], scheme)  # probe geometry cached
        tracemalloc.start()
        try:
            canonicalize_images(stack, scheme)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= stack.nbytes + 32 * 8192 * 8
