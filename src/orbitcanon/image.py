"""Continuous-rotation canonicalization of square grayscale rasters.

The raster lives on the unit square with coordinates z = (z1, z2), z1
increasing upward and z2 increasing rightward, origin at the lower-left
corner.  Array row 0 is the top of the image, so the pixel at (row r,
col c) of an H x W raster has center z1 = (H - r - 0.5) / H,
z2 = (c + 0.5) / W.

A rotation by alpha turns the image content counter-clockwise about the
square's center.  The canonical orientation is found from a smoothed,
bilinearly interpolated model of the image: the model gradient of the
raster blurred by a Gaussian of width sigma is averaged over two circles
around the center, and the image is rotated so that this mean gradient
points along +z1 ("uphill is up").  Because the mean gradient rotates with
the image, alpha(rotated by beta) = alpha - beta, which is what makes the
composed map invariant.

Blur and model gradient are both linear, so mean_gradient takes the raw
raster and reads it through one sparse map per (n, sigma), built once:
the probes' weights pushed through the blur onto the raster's row and
column differences.  gaussian_blur and SmoothImageModel compute the same
mean gradient the long way and are kept as its reference.  gaussian_blur
clamps its output into [0, 1] and the map does not; for rasters in
[0, 1], which is every GrayImage and dataset, the clamp acts only at
rounding.
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
    """One H x W raster with float values in [0, 1], from a PGM file.

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


def _square_side(pixels: np.ndarray) -> int:
    if pixels.ndim < 2 or pixels.shape[-1] != pixels.shape[-2]:
        raise ValueError("rotation needs a square raster, got "
                         + " x ".join(str(d) for d in pixels.shape[-2:]))
    return pixels.shape[-1]


def _require_rasters(pixels: np.ndarray) -> int:
    n = _square_side(pixels)
    if not np.all(np.isfinite(pixels)):
        raise ValueError("raster contains non-finite values")
    return n


def _check_scheme(scheme: str) -> str:
    if scheme not in SCHEMES:
        raise ValueError(f"unknown interpolation scheme {scheme!r}")
    return scheme


def _chunks(count: int, size: int) -> list[slice]:
    """Slices of a stack of count items of size floats each, CHUNK_PIXELS floats
    (at least one item) at a time."""
    step = max(1, CHUNK_PIXELS // max(1, size))
    return [slice(start, start + step) for start in range(0, count, step)]


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """arrays made read-only, for the caches: a write into one would reach every later call."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _blur_taps(sigma: float) -> np.ndarray:
    """The 2 R + 1 taps of gaussian_blur, R = ceil(3 sigma), normalized to sum to 1."""
    if not 0.0 < sigma < math.inf:
        raise ValueError("sigma must be positive and finite")
    radius = int(math.ceil(3.0 * sigma))
    # One array of 2 R + 1 floats, worked in place: the normalizing sum needs every tap.
    taps = np.arange(-radius, radius + 1, dtype=float)
    np.square(taps, out=taps)
    np.negative(taps, out=taps)
    # the floor keeps the taps [0, 1, 0] where 2 sigma^2 underflows (sigma < ~1.5e-162)
    taps /= max(2.0 * sigma * sigma, np.finfo(float).tiny)
    np.exp(taps, out=taps)
    taps /= taps.sum()
    return taps


def gaussian_blur(img, sigma: float) -> np.ndarray:
    """Separable Gaussian blur with edge replication of a raster (h, w) or stack (..., h, w).

    Kernel radius is ceil(3 * sigma); taps are normalized to sum to 1, so
    a constant image stays exactly flat, its value kept to rounding.  The
    result is clamped into [0, 1].  sigma must be positive and finite.
    canonicalize_images does not call it: mean_gradient folds the blur into
    its weights.  It stays as the reference for that fold.
    """
    taps = _blur_taps(sigma)
    radius = len(taps) // 2
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


@lru_cache(maxsize=None)
def _gradient_map(n: int, sigma: float) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """mean_gradient of an n x n raster X blurred by sigma as weights on the raw raster's
    differences X[r + 1, c] - X[r, c] (g1) and X[r, c + 1] - X[r, c] (g2): one read-only
    (cells, high, weights) per component, over the flat cells r n + c, ascending, whose
    weight is not zero, and the cells high = cells + n (g1) or cells + 1 (g2) they are
    differenced with."""
    if n < 2:
        raise ValueError("need at least a 2 x 2 raster for a gradient")
    taps = _blur_taps(sigma)
    theta = 2.0 * np.pi * np.arange(CIRCLE_SAMPLES) / CIRCLE_SAMPLES
    model = SmoothImageModel(np.broadcast_to(0.0, (n, n)))
    row_f, col_f = model._fractional(np.concatenate(
        [np.stack([0.5 + r * np.cos(theta), 0.5 + r * np.sin(theta)], axis=-1)
         for r in CIRCLE_RADII]))
    (r0, tr, live_r), (c0, tc, live_c) = model._cell(row_f, n), model._cell(col_f, n)
    at = r0 * n + c0
    # The probes read the blurred row differences at (r0, c0 + 0 or 1) and the column ones at
    # (r0 + 0 or 1, c0), with weights all of one sign.  Their dense n x n array is left
    # unnamed, so that each is freed as soon as it is folded.
    maps = []
    for step, d, t in ((1, -n * live_r / len(r0), tc), (n, n * live_c / len(r0), tr)):
        weights = np.concatenate([d * (1.0 - t), d * t])
        columns = step == n
        cells, folded = _fold(np.bincount(np.concatenate([at, at + step]), weights,
                                          minlength=n * n).reshape(n, n), taps, columns)
        maps.append(_frozen(cells, cells + (1 if columns else n), folded))
    return tuple(maps)


def _fold(probed, taps, columns: bool) -> tuple[np.ndarray, np.ndarray]:
    """(cells, weights) on a raw n x n raster's row differences, or column ones if columns,
    of the weights probed puts on the blurred raster's, through the blur by taps.

    Along a difference's own axis, the difference of the edge-replicated blur is the
    zero-padded blur of the raw differences: a tap past the edge reads two equal replicated
    pixels.  Along the other axis the blur commutes with the difference.  So the weights
    go through the adjoints of those two blurs, each in O(n^2 min(R, n)) for radius R."""
    n = len(probed)
    along = probed.T if columns else probed
    folded = _edge_blur_adjoint(_zero_padded_blur(along[:-1], taps).T, taps).T
    folded = folded.T if columns else folded
    rows, cols = np.nonzero(folded)
    return rows * n + cols, folded[rows, cols]


def _zero_padded_blur(w, taps) -> np.ndarray:
    """The blur by symmetric taps along axis 0 of w, reading zero past its ends; its own adjoint."""
    size, radius = len(w), len(taps) // 2
    out = np.zeros_like(w)
    for d in range(-min(radius, size - 1), min(radius, size - 1) + 1):
        out[max(0, d):size + min(0, d)] += taps[radius + d] * w[max(0, -d):size - max(0, d)]
    return out


def _edge_blur_adjoint(w, taps) -> np.ndarray:
    """The adjoint of gaussian_blur's edge-replicated blur by symmetric taps along axis 0 of w.

    An interior row c takes tap c - i of row i, as the zero-padded blur does; an edge row
    takes every tap that clamps onto it, so row 0 takes sum(taps[:R + 1 - i]) of row i and
    the last row the mirror image."""
    radius, reach = len(taps) // 2, min(len(taps) // 2, len(w) - 1)
    out = _zero_padded_blur(w, taps)
    folded = np.cumsum(taps[:radius + 1])[radius - np.arange(reach + 1)]
    out[0] = np.einsum("i,i...->...", folded, w[:reach + 1])
    out[-1] = np.einsum("i,i...->...", folded, w[::-1][:reach + 1])
    return out


def mean_gradient(rasters, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Mean SmoothImageModel gradient (g1, g2) of raw rasters (..., n, n) blurred
    by gaussian_blur(rasters, sigma), over the two probe circles, one value of each
    per raster.

    Each circle contributes the mean of its CIRCLE_SAMPLES gradient samples;
    the circles are then averaged with equal weight.  The small circle reads
    orientation near the center, the large one near the border, and both lie
    inside the square so rotation moves their probe values with the image.
    Blur and gradient are both linear, so this is one contraction of the raw
    raster's differences with weights cached per (n, sigma) (_gradient_map),
    and each raster of a stack gets its own mean, bit for bit.  It equals
    the blurred path to rounding, with one difference: gaussian_blur clamps
    its output into [0, 1] and the map does not.  For rasters in [0, 1] the
    clamp acts only at rounding.  A library caller's raster with values
    outside [0, 1] gets the gradient of the unclamped blur, linear in the
    raster (a X + b gives a times the gradient of X, to rounding), where the
    blurred path would read the clipped blur, flattened wherever it leaves
    [0, 1].  Canonical rasters are still clamped by rotate_image.  A raster
    constant along an axis gets exactly 0.0 in that component, since its
    differences are exact zeros.  The canonical angle is atan2(g2, g1);
    canonicalize_images takes an image with hypot(g1, g2) <=
    GRADIENT_THRESHOLD as having no orientation.
    """
    image = np.asarray(rasters, dtype=float)
    n = _require_rasters(image)
    flat = image.reshape(image.shape[:-2] + (-1,))
    # einsum (numpy's own summation, not BLAS) gives a raster the same bits in a stack as alone.
    g1, g2 = (np.einsum("j,...j->...", weights, flat.take(high, -1) - flat.take(cells, -1))
              for cells, high, weights in _gradient_map(n, sigma))
    return g1, g2


def rotate_image(img, alpha, scheme: str = "bilinear") -> np.ndarray:
    """Rotate image content counter-clockwise by alpha about the center.

    img is a square raster (n, n) or a stack of them (..., n, n), rotated
    CHUNK_PIXELS at a time.  alpha is one angle, or an array whose shape
    leads img.shape[:-2]: one angle per raster (shape img.shape[:-2]) or
    per group of rasters (shape img.shape[:k], each angle turning the
    rasters under it).  Each raster comes out as it would alone, bit for bit.
    Resamples by inverse mapping: each output pixel center is rotated back
    by alpha and the source raster is sampled there with the requested
    scheme (nearest, bilinear, or bicubic with the Catmull-Rom kernel).
    Source samples falling outside the unit square give 0; interpolation
    stencils reaching past the raster clamp to the border row/column.
    Output values are clamped to [0, 1], and alpha = 0 reproduces a
    raster in [0, 1] bit for bit under every scheme.  The geometry of the
    angles (_rotation_taps) and the index of each pixel's first tap are
    built once per chunk of angles: whole groups of rasters, or one angle
    whose group is taken in chunks of rasters.
    Only constants of the raster size are cached across calls, read-only:
    the centred offset grids and the edge-pad index.
    """
    _check_scheme(scheme)
    p = np.asarray(img, dtype=float)
    n = _require_rasters(p)
    alpha = np.asarray(alpha, dtype=float)
    if not np.all(np.isfinite(alpha)):
        raise ValueError(f"rotation angles must be finite, got {alpha[~np.isfinite(alpha)]}")
    if alpha.ndim > p.ndim - 2 or alpha.shape != p.shape[:alpha.ndim]:
        raise ValueError(f"expected one angle per raster, {p.shape[:-2]}, got {alpha.shape}")
    # math's cos and sin, as for one angle: numpy's may round differently.
    ca, sa = (np.array([f(a) for a in alpha.flat])[:, None, None, None]
              for f in (math.cos, math.sin))
    # The rasters of each angle; a broadcast stack stays a view.
    groups = p.reshape((alpha.size, math.prod(p.shape[alpha.ndim:-2]), n, n))
    out = np.empty(groups.shape)
    # Angles share a chunk only when their whole groups fit, so each out[g, s] is contiguous.
    for g in _chunks(len(groups), groups.shape[1] * n * n):
        taps, at = _rotation_taps(n, ca[g], sa[g], scheme), None
        for s in _chunks(groups.shape[1], n * n):
            # The first chunk of rasters is the longest; the index is built for it.
            at = _tap_index(taps, groups[g, s].shape[:2]) if at is None else at
            _resample(groups[g, s], taps, out[g, s], at)
        # No chunk's table outlives its resampling.
        del taps, at
    return out.reshape(p.shape)


@lru_cache(maxsize=None)
def _offset_grids(n: int) -> tuple[float, np.ndarray, np.ndarray]:
    """(m, u, v) of an n x n raster: its center index m = (n - 1) / 2 and the signed
    column offsets u (1, n) and row offsets v (n, 1) from it, read-only."""
    m = (n - 1) / 2.0
    idx = np.arange(n, dtype=float)
    return (m, *_frozen(idx[None, :] - m, idx[:, None] - m))


@lru_cache(maxsize=None)
def _edge_index(n: int, pad: int) -> np.ndarray:
    """Flat index into an n x n raster of each pixel of it edge-padded by pad, read-only."""
    edge = np.clip(np.arange(-pad, n + pad), 0, n - 1)
    return _frozen((edge[:, None] * n + edge).ravel())[0]


def _rotation_taps(n: int, ca, sa, scheme: str):
    """(pad, outside, first, wr, wc) for n x n rasters and angles of cosine ca and sine sa,
    (A, 1, 1, 1): first indexes each output pixel's first tap in a raster edge-padded by
    pad (0 nearest, 1 bilinear, 2 bicubic), tap (i, j) lies i rows and j columns on, of
    weight wr[i] * wc[j], and outside marks the pixels whose source lies outside the
    square.  Floors clamp to [-1, n - 1], which moves only those pixels: inside the square
    every tap reads what clamping the tap itself would read.  The offset grids come from a
    cache per n; fractions, clamps and the index are computed in place."""
    # Inverse map in index space.  With center m = (n - 1) / 2 the source
    # index of output pixel (r, c) is
    #   col_f = m + cos(a) (c - m) + sin(a) (m - r)
    #   row_f = m + sin(a) (c - m) + cos(a) (r - m)
    # (derived from the unit-square rotation; z1 runs against rows).  At
    # alpha = 0 this is exactly (r, c) in floating point, which is what
    # makes the zero rotation the bit-exact identity for every scheme.
    m, u, v = _offset_grids(n)
    col_f = m + ca * u - sa * v
    row_f = m + sa * u + ca * v

    # Source position inside the unit square <=> index within [-1/2, n-1/2].
    outside = ((col_f < -0.5) | (col_f > n - 0.5)
               | (row_f < -0.5) | (row_f > n - 0.5))
    if scheme == "nearest":
        col_f += 0.5
        row_f += 0.5
        c, r = (_clamped_floor(f, 0, n - 1) for f in (col_f, row_f))
        r *= n
        r += c
        return 0, outside, r.astype(np.intp), (), ()
    c0, r0 = np.floor(col_f), np.floor(row_f)
    tc, tr = col_f, row_f
    tc -= c0
    tr -= r0
    if scheme == "bilinear":
        pad, wr, wc = 1, (1.0 - tr, tr), (1.0 - tc, tc)
    else:
        pad, wr, wc = 2, _catmull_rom_weights(tr), _catmull_rom_weights(tc)
    # The first tap sits at offset 0 (bilinear) or -1 (bicubic): padded index floor + 1.
    # Every value is an integer far inside float precision, so the order of operations is free.
    first = _clamped_floor(r0, -1, n - 1)
    first += 1
    first *= n + 2 * pad
    first += _clamped_floor(c0, -1, n - 1)
    first += 1
    return pad, outside, first.astype(np.intp), wr, wc


def _clamped_floor(f: np.ndarray, low: int, high: int) -> np.ndarray:
    """floor(f) clamped to [low, high], in place in f."""
    np.floor(f, out=f)
    np.maximum(f, low, out=f)
    return np.minimum(f, high, out=f)


def _tap_index(taps, shape: tuple[int, int]) -> np.ndarray:
    """Where each output pixel's first tap sits in a chunk (A, L) of rasters edge-padded
    for a table of _rotation_taps, laid end to end."""
    pad, _, first, _, _ = taps
    side = first.shape[-1] + 2 * pad
    return np.arange(math.prod(shape)).reshape(shape + (1, 1)) * (side * side) + first


def _resample(p, taps, out, at) -> None:
    """rotate_image of p (A, L, n, n) by a table of _rotation_taps into out (A, L, n, n):
    one gather per tap at a fixed offset from at, the _tap_index of this chunk or of a
    longer one of one angle, into one reused buffer, summed in row-major tap order."""
    pad, outside, _, wr, wc = taps
    n, side = p.shape[-1], p.shape[-1] + 2 * pad
    at = at[:, :p.shape[1]]
    src = (p.reshape(-1, n * n).take(_edge_index(n, pad), axis=1) if pad else p).ravel()
    # Every index is in range, as the floors are clamped to [-1, n - 1] and the chunk is
    # padded by the stencil's reach.  Any mode but the default "raise" lets take write
    # into its out= directly, where "raise" first gathers into a copy.
    if not pad:
        src.take(at, out=out, mode="wrap")
    else:
        out.fill(0.0)
        value = np.empty_like(out)
        for i, w_r in enumerate(wr):
            for j, w_c in enumerate(wc):
                # (w_r * w_c) * value, as one product, in place: multiplication commutes.
                src[i * side + j:].take(at, out=value, mode="wrap")
                value *= w_r * w_c
                out += value
    np.copyto(out, 0.0, where=outside)
    np.clip(out, 0.0, 1.0, out=out)


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

    Estimates the orientation angle from the mean gradient of the model of
    the raster blurred by sigma, mean_gradient(img, sigma), and resamples
    the original (unblurred) image by that angle; the blur feeds only the
    angle estimate.  Degenerate images (mean gradient at or below
    GRADIENT_THRESHOLD) are returned unrotated with the flag set.
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
    rasters, angles, degenerate flags and mean gradient magnitudes.  With
    (g1, g2) = mean_gradient(raster, sigma), the mean model gradient of the
    raw raster blurred by sigma (unclamped: see mean_gradient for values
    outside [0, 1]), the energy is hypot(g1, g2) and the angle atan2(g2, g1),
    in (-pi, pi]: rotating the content counter-clockwise by it turns the
    mean gradient onto +z1.  A raster whose energy is at or below
    GRADIENT_THRESHOLD has no orientation; it gets angle 0.0 and the
    degenerate flag, and is returned unrotated.  The orientation estimate
    goes CHUNK_PIXELS of the map's cells at a time (6 rasters of 48 x 48 at
    sigma 1), the rotation CHUNK_PIXELS pixels at a time.

    This function checks only what its callees do not: the shape, which
    sizes the chunks, and the rank.  Bad input raises ValueError, in this
    order: a raster that is not square, not a stack (N, n, n), smaller than
    2 x 2, a sigma that is not positive and finite, non-finite values
    (mean_gradient's check), an unknown scheme (rotate_image's check).
    """
    p = np.asarray(stack, dtype=float)
    n = _square_side(p)
    if p.ndim != 3:
        raise ValueError(f"expected a stack (N, n, n) of rasters, got shape {p.shape}")
    cells = max(len(component[0]) for component in _gradient_map(n, sigma))
    g1, g2 = np.empty(len(p)), np.empty(len(p))
    for s in _chunks(len(p), cells):
        g1[s], g2[s] = mean_gradient(p[s], sigma)
    energy = np.hypot(g1, g2)
    degenerate = energy <= GRADIENT_THRESHOLD
    alpha = np.where(degenerate, 0.0, np.vectorize(math.atan2, otypes=[float])(g2, g1))
    canonical = rotate_image(p, alpha, scheme)
    canonical[degenerate] = p[degenerate]
    return CanonResult(canonical, alpha, degenerate, energy)
