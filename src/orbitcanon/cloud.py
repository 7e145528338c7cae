"""Similarity canonicalization of 3-D point clouds.

Clouds are N x 3 arrays of row points.  Canonicalization removes, in
order: translation (subtract the centroid), scale (divide by the mean
point norm), and rotation (align to the principal axes of X^T X with a
deterministic sign choice).  The rotation step is the delicate one: the
eigenvectors of the second-moment matrix are only defined up to column
signs, so the signs are pinned to make the first point's canonical
coordinates non-negative, with a determinant correction so the aligning
map is always a proper rotation and never a reflection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import CanonResult

# Relative eigenvalue gap below which axis order is considered ambiguous,
# and relative magnitude below which a coordinate cannot pin a sign.
EIG_TIE_RTOL = 1e-9
SIGN_RTOL = 1e-12

_JACOBI_TOL = 1e-12
_JACOBI_MAX_SWEEPS = 50


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


def center_cloud(points) -> tuple[np.ndarray, np.ndarray]:
    """Subtract the centroid; returns (centered points, centroid)."""
    X = as_cloud(points)
    centroid = X.mean(axis=0)
    return X - centroid, centroid


def normalize_scale(points) -> tuple[np.ndarray, float]:
    """Divide by the mean distance of the points from the origin.

    Returns (scaled points, the removed scale).  The scale of the output
    is 1 up to rounding, and rescaled copies of the same cloud map to the
    same output because the mean norm is absolutely homogeneous.  A cloud
    whose points all sit at the origin has no scale and raises
    DegenerateCloudError.
    """
    return _unit_scale(as_cloud(points))


def _unit_scale(X: np.ndarray) -> tuple[np.ndarray, float]:
    scale = float(np.linalg.norm(X, axis=1).mean())
    if scale == 0.0:
        raise DegenerateCloudError("every point is at the origin; no scale to remove")
    return X / scale, scale


def eig3_sym(C) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric 3x3 matrix by cyclic Jacobi sweeps.

    Returns (w, V) with eigenvalues w sorted descending and unit
    eigenvectors in the columns of V, so C = V @ diag(w) @ V.T.  Sweeps
    visit the pivots (0,1), (0,2), (1,2) in that fixed order and stop once
    the off-diagonal Frobenius norm falls below 1e-12 relative to ||C||_F,
    which keeps the result bit-deterministic for identical input.  The
    sort is stable, so exactly equal eigenvalues keep their sweep order.
    Input must be symmetric to 1e-10 relative in Frobenius norm.
    """
    C = np.asarray(C, dtype=float)
    if C.shape != (3, 3):
        raise ValueError("expected a 3 x 3 matrix")
    if not np.all(np.isfinite(C)):
        raise ValueError("matrix contains non-finite entries")
    norm = float(np.linalg.norm(C))
    if float(np.linalg.norm(C - C.T)) > 1e-10 * max(norm, 1e-300):
        raise ValueError("matrix is not symmetric")

    A = (C + C.T) / 2.0
    V = np.eye(3)
    if norm == 0.0:
        return np.zeros(3), V

    tol = _JACOBI_TOL * norm
    for _ in range(_JACOBI_MAX_SWEEPS):
        off = np.sqrt(2.0 * (A[0, 1] ** 2 + A[0, 2] ** 2 + A[1, 2] ** 2))
        if off < tol:
            break
        for p, q in ((0, 1), (0, 2), (1, 2)):
            apq = A[p, q]
            if apq == 0.0:
                continue
            tau = (A[q, q] - A[p, p]) / (2.0 * apq)
            if tau >= 0.0:
                t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
            else:
                t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            app, aqq = A[p, p], A[q, q]
            A[p, p] = app - t * apq
            A[q, q] = aqq + t * apq
            A[p, q] = A[q, p] = 0.0
            r = 3 - p - q  # the one index that is neither p nor q
            arp, arq = A[r, p], A[r, q]
            A[r, p] = A[p, r] = c * arp - s * arq
            A[r, q] = A[q, r] = s * arp + c * arq
            for i in range(3):
                vip, viq = V[i, p], V[i, q]
                V[i, p] = c * vip - s * viq
                V[i, q] = s * vip + c * viq

    w = np.diag(A).copy()
    order = np.argsort(-w, kind="stable")
    return w[order], V[:, order]


@dataclass(frozen=True)
class PCAFrame:
    """The similarity transform that canonicalized a cloud.

    The canonical cloud is ((X - centroid) / scale) @ basis @ diag(signs).
    `basis` holds unit principal axes as columns in descending eigenvalue
    order, `signs` the per-axis sign choices; basis * signs always has
    determinant +1.  `singular_values` are those of the centered, scaled
    cloud, and `degenerate` records whether an eigenvalue tie or a sign
    ambiguity forced a tie-break.
    """

    centroid: np.ndarray
    scale: float
    basis: np.ndarray
    signs: np.ndarray
    singular_values: np.ndarray
    degenerate: bool


def rotation_of(frame: PCAFrame) -> np.ndarray:
    """The proper rotation basis @ diag(signs) applied by the frame."""
    return frame.basis * frame.signs


def apply_frame(frame: PCAFrame, points) -> np.ndarray:
    """Run a cloud through a previously computed canonicalizing frame."""
    X = as_cloud(points)
    return ((X - frame.centroid) / frame.scale) @ rotation_of(frame)


def canonicalize_rotation(points, sign_reference: str = "first"
                          ) -> tuple[np.ndarray, PCAFrame]:
    """Rotate a centered cloud onto its principal axes, deterministically.

    The eigenvectors V of X^T X (descending eigenvalues) fix the axes; the
    leftover per-axis sign freedom is pinned by requiring the reference
    point's projection onto each axis to be positive.  With
    sign_reference="first" the reference is point 0, which matches clouds
    whose row order is meaningful; "max_norm" uses the farthest point from
    the origin (ties broken by lexicographically largest coordinates) and
    is insensitive to row order.  If the chosen projection is within
    SIGN_RTOL of zero relative to the cloud's mean norm, the first point
    with a decisive projection is used instead and the result is flagged
    degenerate, as it is when adjacent eigenvalues agree to EIG_TIE_RTOL.

    If the signed choice would make basis @ diag(signs) a reflection, the
    sign on the weakest axis is flipped so the aligning map is a proper
    rotation.  For any rotation R, X and X @ R produce the same canonical
    cloud: the eigenvectors of (XR)^T (XR) are R^T V up to column signs,
    and the sign rule cancels that remaining freedom.
    """
    X = as_cloud(points)
    _check_rotatable(X, sign_reference)
    mean_norm = float(np.linalg.norm(X, axis=1).mean())
    if float(np.linalg.norm(X.mean(axis=0))) > 1e-9 * max(mean_norm, 1e-300):
        raise ValueError("cloud is not centered; subtract the centroid first")
    return _align(X, sign_reference, np.zeros(3), 1.0)


def _check_rotatable(X: np.ndarray, sign_reference: str) -> None:
    if X.shape[0] < 3:
        raise ValueError("need at least 3 points to fix a rotation")
    if sign_reference not in ("first", "max_norm"):
        raise ValueError(f"unknown sign_reference {sign_reference!r}")


def _align(X: np.ndarray, sign_reference: str, centroid: np.ndarray,
           scale: float) -> tuple[np.ndarray, PCAFrame]:
    """The rotation step of canonicalize_rotation on a validated cloud;
    the frame records the centroid and scale already removed from X."""
    norms = np.linalg.norm(X, axis=1)
    mean_norm = float(norms.mean())
    w, V = eig3_sym(X.T @ X)
    P = X @ V
    sign_tol = SIGN_RTOL * max(mean_norm, 1e-300)

    degenerate = bool(np.any(w[:-1] - w[1:] < EIG_TIE_RTOL * max(w[0], 1e-300)))

    if sign_reference == "first":
        ref = 0
    else:
        ref = max(range(X.shape[0]), key=lambda i: (norms[i], tuple(X[i])))

    signs = np.ones(3)
    for j in range(3):
        v = P[ref, j]
        if abs(v) > sign_tol:
            signs[j] = 1.0 if v > 0.0 else -1.0
        else:
            degenerate = True
            decisive = np.nonzero(np.abs(P[:, j]) > sign_tol)[0]
            if decisive.size:
                signs[j] = 1.0 if P[decisive[0], j] > 0.0 else -1.0
    if float(np.linalg.det(V * signs)) < 0.0:
        signs[2] = -signs[2]

    canonical = P * signs
    frame = PCAFrame(
        centroid=centroid,
        scale=scale,
        basis=V,
        signs=signs,
        singular_values=np.sqrt(np.maximum(w, 0.0)),
        degenerate=degenerate,
    )
    return canonical, frame


def canonicalize_similarity(points, sign_reference: str = "first"
                            ) -> tuple[np.ndarray, PCAFrame]:
    """Full similarity canonicalization: center, unit-scale, then rotate.

    Returns the canonical cloud and the frame that produced it;
    apply_frame(frame, original) reproduces the canonical cloud.  Clouds
    related by any combination of rotation, uniform scaling and
    translation map to the same canonical cloud up to rounding.  The input
    is validated once; the centered cloud is not re-checked for being
    centered, which rounding breaks at offsets far beyond its spread.
    """
    X = as_cloud(points)
    centroid = X.mean(axis=0)
    scaled, scale = _unit_scale(X - centroid)
    _check_rotatable(scaled, sign_reference)
    return _align(scaled, sign_reference, centroid, scale)


@dataclass(frozen=True)
class Similarity:
    """A similarity map x -> scale * (x @ matrix) + offset on row points."""

    matrix: np.ndarray
    scale: float
    offset: np.ndarray

    def transform(self, points) -> np.ndarray:
        return self.scale * (as_cloud(points) @ self.matrix) + self.offset

    def inverted(self) -> "Similarity":
        inv = self.matrix.T
        return Similarity(matrix=inv, scale=1.0 / self.scale,
                          offset=-(self.offset @ inv) / self.scale)


class SimilarityMapping:
    """Cloud canonicalizer in the interface the equivariant wrapper expects.

    The element is the canonicalizing Similarity itself; its energy is the
    variance captured along the leading canonical axis, the quantity the
    axis alignment maximizes.
    """

    def __init__(self, sign_reference: str = "first"):
        self.sign_reference = sign_reference

    def __call__(self, points) -> CanonResult:
        canonical, frame = canonicalize_similarity(
            points, sign_reference=self.sign_reference)
        rot = rotation_of(frame)
        element = Similarity(matrix=rot, scale=1.0 / frame.scale,
                             offset=-(frame.centroid @ rot) / frame.scale)
        return CanonResult(canonical=canonical, element=element,
                           degenerate=frame.degenerate,
                           energy=float(frame.singular_values[0] ** 2))

    @staticmethod
    def apply(element: Similarity, points) -> np.ndarray:
        return element.transform(points)

    @staticmethod
    def inverse(element: Similarity) -> Similarity:
        return element.inverted()
