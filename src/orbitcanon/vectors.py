"""Orbit mappings on plain real vectors: mean shift and magnitude sorting.

Two worked examples of canonicalization where everything is exact.  Shifts
are canonicalized by subtracting the mean (the unique shift landing on the
zero-mean representative); permutations are canonicalized by sorting under
a weighted-magnitude energy whose argmax is the descending-magnitude
arrangement.
"""

from __future__ import annotations

import numpy as np

from .groups import CanonResult


def as_vector(x) -> np.ndarray:
    """Validate a length >= 1 finite 1-D float vector and return a copy."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("expected a 1-D vector with at least one entry")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector contains non-finite entries")
    return v.copy()


def mean_subtract(x) -> tuple[np.ndarray, float]:
    """Canonicalize a vector under entrywise shifts.

    Returns (x - mean(x), mean(x)); the mean is the shift that was removed
    and the returned vector always has mean within one rounding error of
    zero.  Every shifted copy of x maps to the same representative because
    mean(x + c) == mean(x) + c exactly in the reals.
    """
    v = as_vector(x)
    mu = float(v.mean())
    return v - mu, mu


def sort_energy(x) -> float:
    """Weighted magnitude sum E(x) = sum_i |x_i| / (i + 1), 0-based.

    The weights are strictly decreasing, so by the rearrangement
    inequality E is maximized over all permutations of x exactly by the
    descending-magnitude arrangements.
    """
    v = as_vector(x)
    return float(np.sum(np.abs(v) / np.arange(1.0, v.size + 1.0)))


def sort_canonicalize(x) -> CanonResult:
    """Canonicalize a vector under entry permutations.

    Orders entries by descending magnitude.  Ties in magnitude are broken
    by descending signed value, then by ascending original index, which
    makes the canonical vector identical for every permutation of the same
    multiset: (1, -1) and (-1, 1) both canonicalize to (1, -1).

    The returned element is the selecting permutation p as a tuple, acting
    by canonical[i] = x[p[i]].  `degenerate` is set when the energy alone
    did not single out the canonical vector, i.e. when two entries of
    different value share a magnitude.
    """
    v = as_vector(x)
    order = sorted(range(v.size), key=lambda i: (-abs(v[i]), -v[i], i))
    canonical = v[order]
    mags = np.abs(canonical)
    degenerate = bool(
        np.any((mags[:-1] == mags[1:]) & (canonical[:-1] != canonical[1:]))
    )
    return CanonResult(canonical=canonical, element=tuple(order),
                       degenerate=degenerate, energy=sort_energy(canonical))
