"""Similarity canonicalization of 3-D point clouds.

Clouds are N x 3 arrays of row points.  Canonicalization removes, in
order: translation (subtract the centroid), scale (divide by the mean
point norm), and rotation (align to the principal axes of X^T X with a
deterministic sign choice).  The rotation step is the delicate one: the
eigenvectors of the second-moment matrix are only defined up to column
signs, so the signs are pinned to make the first point's canonical
coordinates non-negative, with a determinant correction so the aligning
map is always a proper rotation and never a reflection.

canonicalize_clouds runs all of this on a stack (N, P, 3) of clouds with
whole-array work, np.linalg.eigh included, and returns a CanonResult
whose element is the stacked PCAFrame; canonicalize_similarity is that
work on a stack of one.  Each cloud is divided by the power of two at its
largest coordinate, and again after centering, exactly, so clouds anywhere
in the float range canonicalize as they do near unit size.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .groups import CanonResult

# Relative eigenvalue gap below which axis order is considered ambiguous,
# and relative magnitude below which a coordinate cannot pin a sign.
EIG_TIE_RTOL = 1e-9
SIGN_RTOL = 1e-12


class DegenerateCloudError(ValueError):
    """The cloud carries no usable scale (every point at the origin)."""


def as_cloud(points) -> np.ndarray:
    """Validate an N x 3 finite float array of points and return a copy."""
    X = np.asarray(points, dtype=float)
    if X.ndim != 2 or X.shape[1] != 3 or X.shape[0] < 1:
        raise ValueError("expected an N x 3 point array with N >= 1")
    if not np.all(np.isfinite(X)):
        raise ValueError("point cloud contains non-finite coordinates")
    return X.copy()


def _first_bad(bad: np.ndarray, error: type, problem: str) -> None:
    """Raise error naming the first cloud flagged bad, by index in a stack of
    more than one."""
    flat = np.flatnonzero(bad)
    if flat.size:
        where = f"cloud {flat[0]}: " if len(bad) > 1 else ""
        raise error(f"{where}{problem}")


def _point_norms(X: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """np.linalg.norm(X, axis=2), bit for bit, without its length-3 reduce; the
    squares go into work, an array of X's shape, when given."""
    s = np.multiply(X, X, out=work)
    norms = s[..., 0] + s[..., 1]
    norms += s[..., 2]
    return np.sqrt(norms, out=norms)


def _centroid(X: np.ndarray) -> np.ndarray:
    """X.mean(axis=1) of a stack (N, P, 3), bit for bit: both add the points in
    order, and einsum does it in about a quarter of the time."""
    return np.einsum("npk->nk", X) / X.shape[1]


def eig3_sym(C) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of symmetric 3x3 matrices by np.linalg.eigh.

    C is one matrix or a stack (N, 3, 3) of them.  Returns (w, V) with
    eigenvalues w sorted descending and unit eigenvectors in the columns
    of V, so C = V @ diag(w) @ V.T, with C's leading axis.  The sort is
    stable, so exactly equal eigenvalues keep eigh's order and a zero or
    identity matrix gives V = I.  Input must be symmetric to 1e-10
    relative in Frobenius norm; its symmetric part is decomposed.  eigh
    solves each matrix of a stack on its own, so each result equals that
    of the matrix solved alone.
    """
    C = np.asarray(C, dtype=float)
    single = C.shape == (3, 3)
    if not single and (C.ndim != 3 or C.shape[1:] != (3, 3)):
        raise ValueError("expected a 3 x 3 matrix or a stack of them")
    C = C.reshape(-1, 3, 3)
    _check_lanes(~np.isfinite(C).all(axis=(1, 2)), single, "contains non-finite entries")
    _check_lanes(np.linalg.norm(C - C.transpose(0, 2, 1), axis=(1, 2))
                 > 1e-10 * np.maximum(np.linalg.norm(C, axis=(1, 2)), 1e-300),
                 single, "is not symmetric")
    w, V = _eigh_descending(C)
    return (w[0], V[0]) if single else (w, V)


def _check_lanes(bad: np.ndarray, single: bool, problem: str) -> None:
    """Raise ValueError naming the first matrix of a stack flagged bad."""
    lanes = np.flatnonzero(bad)
    if lanes.size:
        raise ValueError(f"matrix{'' if single else f' {lanes[0]}'} {problem}")


def _eigh_descending(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eig3_sym of a checked stack (N, 3, 3): eigh of the symmetric part, then
    a stable sort by descending eigenvalue."""
    w, V = np.linalg.eigh((C + C.transpose(0, 2, 1)) / 2.0)
    order = np.argsort(-w, axis=1, kind="stable")
    lanes = np.arange(len(w))[:, None]
    return w[lanes, order], V[lanes[:, None], np.arange(3)[:, None], order[:, None, :]]


@dataclass(frozen=True)
class PCAFrame:
    """The similarity transform that canonicalized a cloud, or a stack of them.

    The canonical cloud is ((X - centroid) / scale) @ basis @ diag(signs).
    `basis` holds unit principal axes as columns in descending eigenvalue
    order, `signs` the per-axis sign choices; basis * signs always has
    determinant +1.  `singular_values` are those of the centered, scaled
    cloud, and `degenerate` records whether an eigenvalue tie or a sign
    ambiguity forced a tie-break.  The frame of a stack (N, P, 3) gives
    every field a leading axis of N, scale and degenerate included; that
    of one cloud has a float scale and a bool degenerate.

    A frame is also the canonicalizing group element: `transform` applies
    it to clouds and `inverted` gives the frame of the inverse map.  The
    frame of one cloud acts on a cloud (P, 3), that of a stack of N on a
    stack (N, P, 3), lane by lane; other shapes raise ValueError.
    """

    centroid: np.ndarray
    scale: float | np.ndarray
    basis: np.ndarray
    signs: np.ndarray
    singular_values: np.ndarray
    degenerate: bool | np.ndarray

    @property
    def rotation(self) -> np.ndarray:
        """The proper rotation basis @ diag(signs) applied by the frame."""
        return self.basis * self.signs[..., None, :]

    def transform(self, points) -> np.ndarray:
        """Run clouds through the frame: ((X - centroid) / scale) @ rotation."""
        X = np.asarray(points, dtype=float)
        lead = np.shape(self.centroid)[:-1]
        if X.ndim != len(lead) + 2 or X.shape[:-2] != lead or X.shape[-1] != 3:
            raise ValueError("this frame takes points of shape "
                             f"{' x '.join([*map(str, lead), 'P', '3'])}, "
                             f"got {' x '.join(map(str, X.shape))}")
        if not np.all(np.isfinite(X)):
            raise ValueError("point cloud contains non-finite coordinates")
        return ((X - self.centroid[..., None, :]) / np.asarray(self.scale)[..., None, None]
                ) @ self.rotation

    def inverted(self) -> PCAFrame:
        """The frame of the inverse map, Y -> scale * (Y @ rotation.T) +
        centroid; singular_values and degenerate are carried over."""
        R = self.rotation
        return replace(self, centroid=-(self.centroid[..., None, :] @ R)[..., 0, :]
                       / np.asarray(self.scale)[..., None],
                       scale=1.0 / self.scale, basis=np.swapaxes(R, -1, -2),
                       signs=np.ones_like(self.signs))


def _align(X: np.ndarray, centroid: np.ndarray, scale: np.ndarray,
           work: np.ndarray) -> tuple[np.ndarray, PCAFrame]:
    """Rotate each centered, unit-scaled cloud of a validated stack (N, P, 3)
    onto its principal axes, deterministically; the frame records the
    centroids and scales already removed from X.  The canonical clouds are
    made in work, an array of X's shape, which is returned.

    The eigenvectors V of X^T X (descending eigenvalues) fix the axes; the
    leftover per-axis sign freedom is pinned by one rule: point 0 projects
    positively onto each axis.  On an axis where point 0's projection is
    within SIGN_RTOL of zero relative to the cloud's mean norm, the first
    point with a decisive projection pins the sign instead and the result
    is flagged degenerate, as it is when adjacent eigenvalues agree to
    EIG_TIE_RTOL.

    If the signed choice would make basis @ diag(signs) a reflection, the
    sign on the weakest axis is flipped so the aligning map is a proper
    rotation.  For any rotation R, X and X @ R produce the same canonical
    cloud: the eigenvectors of (XR)^T (XR) are R^T V up to column signs,
    and the sign rule cancels that remaining freedom.
    """
    norms = _point_norms(X, work)
    w, V = _eigh_descending(X.transpose(0, 2, 1) @ X)  # symmetric to rounding
    P = np.matmul(X, V, out=work)
    sign_tol = SIGN_RTOL * np.maximum(norms.mean(axis=1), 1e-300)[:, None]

    degenerate = np.any(w[:, :-1] - w[:, 1:]
                        < EIG_TIE_RTOL * np.maximum(w[:, :1], 1e-300), axis=1)

    # Each axis takes the sign of point 0's projection or, when that is
    # within sign_tol of zero (a loose cloud), of the first decisive one.
    pinned = P[:, 0].copy()
    settled = np.abs(pinned) > sign_tol
    loose = np.flatnonzero(~settled.all(axis=1))
    if loose.size:
        decisive = np.abs(P[loose]) > sign_tol[loose, None]
        first = P[loose[:, None], decisive.argmax(axis=1), np.arange(3)]
        pinned[loose] = np.where(settled[loose], pinned[loose],
                                 np.where(decisive.any(axis=1), first, 1.0))
        degenerate[loose] = True
    signs = np.where(pinned > 0.0, 1.0, -1.0)
    reflected = np.linalg.det(V * signs[:, None, :]) < 0.0
    signs[reflected, 2] = -signs[reflected, 2]

    # P * signs, in place: x * -1 is -x exactly, so the columns of sign -1 are negated.
    for k in range(3):
        np.negative(P[:, :, k], out=P[:, :, k], where=signs[:, k, None] < 0.0)
    frame = PCAFrame(
        centroid=centroid,
        scale=scale,
        basis=V,
        signs=signs,
        singular_values=np.sqrt(np.maximum(w, 0.0)),
        degenerate=degenerate,
    )
    return P, frame


def canonicalize_similarity(points) -> tuple[np.ndarray, PCAFrame]:
    """Full similarity canonicalization of one cloud: center, unit-scale,
    then rotate.

    Returns the canonical cloud and the frame that produced it, with a
    float scale and a bool degenerate; frame.transform(original)
    reproduces the canonical cloud.  This is canonicalize_clouds on a
    stack of one.
    """
    res = canonicalize_clouds(as_cloud(points)[None])
    f = res.element
    return res.canonical[0], PCAFrame(
        centroid=f.centroid[0], scale=float(f.scale[0]), basis=f.basis[0], signs=f.signs[0],
        singular_values=f.singular_values[0], degenerate=bool(f.degenerate[0]))


def canonicalize_clouds(clouds) -> CanonResult:
    """Similarity canonicalization of every cloud of a stack (N, P, 3) at once.

    Returns a CanonResult whose fields all carry the leading axis N: the
    canonical clouds, the canonicalizing PCAFrame (element), its
    degenerate flags, and the variance along each leading canonical axis
    (energy, the quantity the axis alignment maximizes).  Clouds related
    by any combination of rotation, uniform scaling and translation map to
    the same canonical cloud up to rounding, over the whole float range:
    each cloud is first divided by 2^e, e the exponent of its largest
    |coordinate|, and the centered cloud by 2^e2, e2 that of its largest
    centered |coordinate|, both exact, so a spread far below the cloud's
    offset does not underflow either.  The frame's centroid is multiplied
    back by 2^e and its scale by 2^(e + e2); a scale that overflows there
    raises ValueError.  Each cloud's result does not depend on the other
    clouds of the stack, bit for bit.  A cloud whose points all coincide
    raises DegenerateCloudError, also where their mean rounds; errors name
    the cloud's index when the stack holds more than one.  The centered
    cloud is not re-checked for being centered, which rounding breaks at
    offsets far beyond its spread.
    """
    X = np.asarray(clouds, dtype=float)
    if X.ndim != 3 or X.shape[2] != 3 or X.shape[1] < 1:
        raise ValueError("expected an N x P x 3 stack of point clouds")
    top = np.abs(X).max(axis=(1, 2))
    if not np.all(np.isfinite(top)):
        raise ValueError("point cloud contains non-finite coordinates")
    e = np.frexp(top)[1]
    X = np.ldexp(X, -e[:, None, None])
    centroid = _centroid(X)
    # One coordinate at a time: an (N, 1, 3) operand would be looped 3 floats at a time.
    for k in range(3):
        X[:, :, k] -= centroid[:, k, None]
    # Coincident points center to zeros, or to +-1 ulp where their mean rounds.
    _first_bad(np.all(X[:, 1:] == X[:, :-1], axis=(1, 2)), DegenerateCloudError,
               "every point is at the origin; no scale to remove")
    spread = np.frexp(np.abs(X).max(axis=(1, 2)))[1]
    np.ldexp(X, -spread[:, None, None], out=X)
    work = np.empty_like(X)
    scale = _point_norms(X, work).mean(axis=1)
    with np.errstate(over="ignore"):
        restored = np.ldexp(scale, e + spread)
    _first_bad(np.isinf(restored), ValueError,
               "the mean distance from the centroid overflows the float range")
    if X.shape[1] < 3:
        raise ValueError("need at least 3 points to fix a rotation")
    X /= scale[:, None, None]
    canonical, frame = _align(X, np.ldexp(centroid, e[:, None]), restored, work)
    return CanonResult(canonical, frame, frame.degenerate, frame.singular_values[:, 0] ** 2)
