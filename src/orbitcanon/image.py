"""Continuous-rotation canonicalization of square grayscale rasters.

The raster lives on the unit square with coordinates z = (z1, z2), z1
increasing upward and z2 increasing rightward, origin at the lower-left
corner.  Array row 0 is the top of the image, so the pixel at (row r,
col c) of an H x W raster has center z1 = (H - r - 0.5) / H,
z2 = (c + 0.5) / W.

A rotation by alpha turns the image content counter-clockwise about the
square's center.  The canonical orientation is found from a smoothed,
bilinearly interpolated model of the image: the model gradient is averaged
over two circles around the center, and the image is rotated so that this
mean gradient points along +z1 ("uphill is up").  Because the mean
gradient rotates with the image, alpha(rotated by beta) = alpha - beta,
which is what makes the composed map invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .groups import CanonResult

SCHEMES = ("nearest", "bilinear", "bicubic")

# Sampling pattern for the mean gradient: two centered circles, each
# probed at this many equally spaced points, averaged with equal weight.
CIRCLE_RADII = (0.05, 0.4)
CIRCLE_SAMPLES = 1000

GRADIENT_THRESHOLD = 1e-8

# Stacks are worked through this many pixels (at least one raster) at a time.
CHUNK_PIXELS = 8192


@dataclass(frozen=True)
class GrayImage:
    """One H x W raster with float values in [0, 1], from a PGM or IDX file.

    Values are clamped into [0, 1] on construction and the array is
    frozen; non-finite input is rejected.  It converts to its pixels
    wherever an array is expected, as by the functions of this module.
    """

    pixels: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.pixels, dtype=float)
        if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] < 1:
            raise ValueError("expected a 2-D raster with at least one pixel")
        if not np.all(np.isfinite(p)):
            raise ValueError("raster contains non-finite values")
        p = np.clip(p, 0.0, 1.0)
        p.flags.writeable = False
        object.__setattr__(self, "pixels", p)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.pixels, dtype=dtype, copy=copy)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def is_square(self) -> bool:
        return self.height == self.width


def _require_rasters(pixels: np.ndarray) -> int:
    if pixels.ndim < 2 or pixels.shape[-1] != pixels.shape[-2]:
        raise ValueError("rotation needs a square raster, got "
                         + " x ".join(str(d) for d in pixels.shape[-2:]))
    if not np.all(np.isfinite(pixels)):
        raise ValueError("raster contains non-finite values")
    return pixels.shape[-1]


def _check_scheme(scheme: str) -> str:
    if scheme not in SCHEMES:
        raise ValueError(f"unknown interpolation scheme {scheme!r}")
    return scheme


def _chunks(count: int, n: int) -> list[slice]:
    """Slices of a stack of count n x n rasters, CHUNK_PIXELS at a time."""
    step = max(1, CHUNK_PIXELS // max(1, n * n))
    return [slice(start, start + step) for start in range(0, count, step)]


def gaussian_blur(img, sigma: float) -> np.ndarray:
    """Separable Gaussian blur with edge replication of a raster (h, w) or stack (..., h, w).

    Kernel radius is ceil(3 * sigma); taps are normalized to sum to 1, so
    a constant image stays exactly flat, its value kept to rounding.  The
    result is clamped into [0, 1].  sigma must be positive and finite.
    """
    if not 0.0 < sigma < math.inf:
        raise ValueError("sigma must be positive and finite")
    radius = int(math.ceil(3.0 * sigma))
    offsets = np.arange(-radius, radius + 1, dtype=float)
    # the floor keeps the taps [0, 1, 0] where 2 sigma^2 underflows (sigma < ~1.5e-162)
    taps = np.exp(-(offsets ** 2) / max(2.0 * sigma * sigma, np.finfo(float).tiny))
    taps /= taps.sum()

    out = np.asarray(img, dtype=float)
    if out.ndim < 2 or 0 in out.shape[-2:]:
        raise ValueError(f"expected rasters (..., h, w) of at least one pixel, got {out.shape}")
    for axis in (-2, -1):
        size = out.shape[axis]
        edge = np.clip(np.arange(-radius, size + radius), 0, size - 1)
        padded = out.take(edge, axis=axis)
        acc = np.zeros_like(out)
        for k, t in enumerate(taps):
            if axis == -2:
                acc += t * padded[..., k:k + size, :]
            else:
                acc += t * padded[..., k:k + size]
        out = acc
    return np.clip(out, 0.0, 1.0)


class SmoothImageModel:
    """Bilinear continuous model u(z1, z2) of a raster, with exact gradients.

    Between pixel centers the model interpolates bilinearly; beyond the
    outermost centers the value is clamped to the edge, where the gradient
    is zero.  On cell boundaries the lower-left-closed cell is used, so
    value and gradient are total deterministic functions of z.
    """

    def __init__(self, image):
        self.image = np.asarray(image, dtype=float)

    def _fractional(self, points):
        z = np.asarray(points, dtype=float)
        if z.shape[-1] != 2:
            raise ValueError("points must have a trailing axis of size 2 (z1, z2)")
        h, w = self.image.shape
        row_f = (1.0 - z[..., 0]) * h - 0.5
        col_f = z[..., 1] * w - 0.5
        return row_f, col_f

    @staticmethod
    def _cell(f, n):
        # Clamp to the pixel-center band [0, n-1]; 'live' marks points whose
        # coordinate actually varies the value (gradient factor 1 vs 0).
        live = (f >= 0.0) & (f <= n - 1.0)
        fc = np.clip(f, 0.0, n - 1.0)
        i0 = np.minimum(np.floor(fc), n - 2.0).astype(int)
        t = fc - i0
        return i0, t, live

    def _gather(self, points):
        p = self.image
        h, w = p.shape
        row_f, col_f = self._fractional(points)
        r0, tr, live_r = self._cell(row_f, h)
        c0, tc, live_c = self._cell(col_f, w)
        v00 = p[r0, c0]
        v01 = p[r0, c0 + 1]
        v10 = p[r0 + 1, c0]
        v11 = p[r0 + 1, c0 + 1]
        return v00, v01, v10, v11, tr, tc, live_r, live_c

    def value(self, points) -> np.ndarray:
        """Model value at points (..., 2) given as (z1, z2)."""
        v00, v01, v10, v11, tr, tc, _, _ = self._gather(points)
        top = v00 * (1.0 - tc) + v01 * tc
        bottom = v10 * (1.0 - tc) + v11 * tc
        return top * (1.0 - tr) + bottom * tr

    def gradient(self, points) -> np.ndarray:
        """Exact model gradient (du/dz1, du/dz2) at points (..., 2).

        Within a cell the bilinear surface is differentiated analytically;
        in clamped regions the corresponding component is zero.  du/dz1
        carries a factor -height because z1 runs against the row index.
        """
        h, w = self.image.shape
        v00, v01, v10, v11, tr, tc, live_r, live_c = self._gather(points)
        d_row = (v10 - v00) * (1.0 - tc) + (v11 - v01) * tc
        d_col = (v01 - v00) * (1.0 - tr) + (v11 - v10) * tr
        g1 = -h * d_row * live_r
        g2 = w * d_col * live_c
        return np.stack([g1, g2], axis=-1)


@dataclass(frozen=True)
class MeanGradient:
    """Mean model gradient over the probe circles, (z1, z2) components; arrays for a stack."""

    g1: float
    g2: float
    magnitude: float
    sample_count: int


def smooth_model(img, sigma: float = 1.0) -> SmoothImageModel:
    """Blur the raster and wrap it in the continuous model."""
    return SmoothImageModel(gaussian_blur(img, sigma))


@lru_cache(maxsize=None)
def _gradient_map(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """mean_gradient of an n x n raster X as weights on its differences X[r + 1, c] - X[r, c]
    (g1) and X[r, c + 1] - X[r, c] (g2) at the cells r n + c, ascending, that the probes read."""
    if n < 2:
        raise ValueError("need at least a 2 x 2 raster for a gradient")
    theta = 2.0 * np.pi * np.arange(CIRCLE_SAMPLES) / CIRCLE_SAMPLES
    model = SmoothImageModel(np.empty((n, n)))
    row_f, col_f = model._fractional(np.concatenate(
        [np.stack([0.5 + r * np.cos(theta), 0.5 + r * np.sin(theta)], axis=-1)
         for r in CIRCLE_RADII]))
    (r0, tr, live_r), (c0, tc, live_c) = model._cell(row_f, n), model._cell(col_f, n)
    at, maps = r0 * n + c0, []
    # Row differences at (r0, c0 + 0 or 1), column ones at (r0 + 0 or 1, c0); all of one sign.
    for step, d, t in ((1, -n * live_r / len(r0), tc), (n, n * live_c / len(r0), tr)):
        cells, where = np.unique(np.concatenate([at, at + step]), return_inverse=True)
        maps.append((cells, np.bincount(where, np.concatenate([d * (1.0 - t), d * t]))))
    return maps


def mean_gradient(model: SmoothImageModel) -> MeanGradient:
    """Average the model gradient over the two probe circles.

    Each circle contributes the mean of its CIRCLE_SAMPLES gradient
    samples; the circles are then averaged with equal weight.  The small
    circle reads orientation near the center, the large one near the
    border, and both lie inside the square so rotation moves their probe
    values with the image.  It is one contraction with weights cached per
    size; a stack's model gives each raster's own mean, bit for bit.
    """
    image, n = model.image, _require_rasters(model.image)
    flat = image.reshape(image.shape[:-2] + (-1,))
    # einsum (numpy's own summation, not BLAS) gives a raster the same bits in a stack as alone.
    g1, g2 = (np.einsum("j,...j->...", weights, flat.take(cells + step, -1) - flat.take(cells, -1))
              for (cells, weights), step in zip(_gradient_map(n), (n, 1)))
    magnitude = np.hypot(g1, g2)
    if image.ndim == 2:
        g1, g2, magnitude = float(g1), float(g2), float(magnitude)
    return MeanGradient(g1, g2, magnitude, len(CIRCLE_RADII) * CIRCLE_SAMPLES)


def canonical_angle(mg: MeanGradient, threshold: float = GRADIENT_THRESHOLD):
    """Angle that rotates the mean gradient onto the +z1 axis.

    Returns (alpha, degenerate).  alpha = atan2(g2, g1) lies in (-pi, pi];
    rotating the image content counter-clockwise by alpha turns the mean
    gradient to point "up".  When the mean gradient magnitude is at or
    below the threshold the orientation is undefined and (0.0, True) is
    returned.  A stack's mean gradient gives arrays of both.
    """
    degenerate = np.asarray(mg.magnitude) <= threshold
    alpha = np.where(degenerate, 0.0, np.vectorize(math.atan2, otypes=[float])(mg.g2, mg.g1))
    return (alpha, degenerate) if degenerate.ndim else (float(alpha), bool(degenerate))


def rotate_image(img, alpha, scheme: str = "bilinear") -> np.ndarray:
    """Rotate image content counter-clockwise by alpha about the center.

    img is a square raster (n, n) or a stack of them (..., n, n), rotated
    CHUNK_PIXELS at a time; alpha is one angle, or one per raster (shape
    img.shape[:-2]), and each raster comes out as it would alone, bit for bit.
    Resamples by inverse mapping: each output pixel center is rotated back
    by alpha and the source raster is sampled there with the requested
    scheme (nearest, bilinear, or bicubic with the Catmull-Rom kernel).
    Source samples falling outside the unit square give 0; interpolation
    stencils reaching past the raster clamp to the border row/column.
    Output values are clamped to [0, 1], and alpha = 0 reproduces a
    raster in [0, 1] bit for bit under every scheme.
    """
    _check_scheme(scheme)
    p = np.asarray(img, dtype=float)
    n = _require_rasters(p)
    alpha = np.asarray(alpha, dtype=float)
    if not np.all(np.isfinite(alpha)):
        raise ValueError(f"rotation angles must be finite, got {alpha[~np.isfinite(alpha)]}")
    if alpha.ndim and alpha.shape != p.shape[:-2]:
        raise ValueError(f"expected one angle per raster, {p.shape[:-2]}, got {alpha.shape}")
    # math's cos and sin, as for one angle: numpy's may round differently.
    ca, sa = (np.array([f(a) for a in alpha.flat])[:, None, None] for f in (math.cos, math.sin))
    stack = p.reshape(-1, n, n)
    out = np.empty(stack.shape)
    for s in _chunks(len(stack), n):
        angles = s if alpha.ndim else slice(None)
        out[s] = _resample(stack[s], ca[angles], sa[angles], scheme)
    return out.reshape(p.shape)


def _resample(p, ca, sa, scheme: str) -> np.ndarray:
    """rotate_image of p (L, n, n) by angles of cosine ca and sine sa, (L or 1, 1, 1)."""
    n = p.shape[-1]
    # Inverse map in index space.  With center m = (n - 1) / 2 the source
    # index of output pixel (r, c) is
    #   col_f = m + cos(a) (c - m) + sin(a) (m - r)
    #   row_f = m + sin(a) (c - m) + cos(a) (r - m)
    # (derived from the unit-square rotation; z1 runs against rows).  At
    # alpha = 0 this is exactly (r, c) in floating point, which is what
    # makes the zero rotation the bit-exact identity for every scheme.
    m = (n - 1) / 2.0
    idx = np.arange(n, dtype=float)
    u = idx[None, :] - m                 # signed column offset
    v = idx[:, None] - m                 # signed row offset
    col_f = m + ca * u - sa * v
    row_f = m + sa * u + ca * v

    # Source position inside the unit square <=> index within [-1/2, n-1/2].
    inside = ((col_f >= -0.5) & (col_f <= n - 0.5)
              & (row_f >= -0.5) & (row_f <= n - 0.5))

    # Pixels are gathered by flat index: raster offset, row, column.
    src, base = p.reshape(-1), np.arange(len(p))[:, None, None] * (n * n)
    if scheme == "nearest":
        c = np.clip(np.floor(col_f + 0.5), 0, n - 1).astype(int)
        r = np.clip(np.floor(row_f + 0.5), 0, n - 1).astype(int)
        out = src.take(base + r * n + c)
    else:
        c0 = np.floor(col_f).astype(int)
        r0 = np.floor(row_f).astype(int)
        tc = col_f - c0
        tr = row_f - r0
        if scheme == "bilinear":
            taps, wr, wc = (0, 1), (1.0 - tr, tr), (1.0 - tc, tc)
        else:
            taps = (-1, 0, 1, 2)
            wr, wc = _catmull_rom_weights(tr), _catmull_rom_weights(tc)
        rows = [base + np.clip(r0 + dr, 0, n - 1) * n for dr in taps]
        cols = [np.clip(c0 + dc, 0, n - 1) for dc in taps]
        out = np.zeros(p.shape)
        for i, row in enumerate(rows):
            for j, col in enumerate(cols):
                out += wr[i] * wc[j] * src.take(row + col)
    return np.clip(np.where(inside, out, 0.0), 0.0, 1.0)


def _catmull_rom_weights(t):
    """Catmull-Rom (a = -1/2) cubic weights for taps at offsets -1, 0, 1, 2.

    At t = 0 the weights are exactly (0, 1, 0, 0), which is what makes a
    zero-angle rotation reproduce the input exactly.
    """
    t2 = t * t
    t3 = t2 * t
    return (
        -0.5 * t3 + t2 - 0.5 * t,
        1.5 * t3 - 2.5 * t2 + 1.0,
        -1.5 * t3 + 2.0 * t2 + 0.5 * t,
        0.5 * t3 - 0.5 * t2,
    )


def canonicalize_image(img, scheme: str = "bilinear",
                       sigma: float = 1.0) -> CanonResult:
    """Rotate a raster (n, n) into its canonical orientation.

    Estimates the orientation angle from the blurred model's mean gradient
    and resamples the original (unblurred) image by that angle; the blur
    feeds only the angle estimate.  Degenerate images (mean gradient at or
    below GRADIENT_THRESHOLD) are returned unrotated with the flag set.
    The element of the result is the applied angle alpha; its energy is
    the mean gradient magnitude.  An unknown scheme raises ValueError for
    every image, degenerate or not.  This is canonicalize_images on a
    stack of one.
    """
    res = canonicalize_images(np.asarray(img, dtype=float)[None], scheme, sigma)
    return CanonResult(res.canonical[0], float(res.element[0]), bool(res.degenerate[0]),
                       float(res.energy[0]))


def canonicalize_images(stack, scheme: str = "bilinear",
                        sigma: float = 1.0) -> CanonResult:
    """canonicalize_image of each raster of a stack (N, n, n), bit for bit.

    Returns one CanonResult whose fields carry the leading axis: canonical
    rasters, angles, degenerate flags and mean gradient magnitudes.  The
    stack goes CHUNK_PIXELS at a time; a non-finite raster raises ValueError.
    """
    p = np.asarray(stack, dtype=float)
    n = _require_rasters(p)
    _check_scheme(scheme)
    if p.ndim != 3:
        raise ValueError(f"expected a stack (N, n, n) of rasters, got shape {p.shape}")
    alpha, degenerate, energy = np.empty(len(p)), np.empty(len(p), bool), np.empty(len(p))
    for s in _chunks(len(p), n):
        mg = mean_gradient(smooth_model(p[s], sigma))
        (alpha[s], degenerate[s]), energy[s] = canonical_angle(mg), mg.magnitude
    canonical = rotate_image(p, alpha, scheme)
    canonical[degenerate] = p[degenerate]
    return CanonResult(canonical, alpha, degenerate, energy)


class RotationMapping:
    """Image canonicalizer in the interface the equivariant wrapper expects.

    Elements are rotation angles in radians acting by
    apply(alpha, img) = rotate_image(img, alpha, scheme).
    """

    def __init__(self, scheme: str = "bilinear", sigma: float = 1.0):
        self.scheme = _check_scheme(scheme)
        self.sigma = sigma

    def __call__(self, img) -> CanonResult:
        return canonicalize_image(img, scheme=self.scheme, sigma=self.sigma)

    def apply(self, alpha: float, img) -> np.ndarray:
        return rotate_image(img, alpha, self.scheme)

    @staticmethod
    def inverse(alpha: float) -> float:
        return -alpha
