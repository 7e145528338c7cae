"""Group actions, orbit mappings, and invariant/equivariant wrappers.

A canonicalizer (orbit mapping) picks one fixed element out of the set of
all transformed versions of a datum.  Composing any predictor with it makes
the predictor invariant to those transformations; applying the inverse
transform after an inner map makes it equivariant.  Finite groups are kept
around mostly because their actions on rasters and vectors are exact
(pure permutations), which lets the wrapper properties be tested to
machine precision.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class CanonResult:
    """Outcome of canonicalizing one datum, or a stack of them.

    canonical  -- the selected orbit element (same space as the input)
    element    -- the group element that maps the input to `canonical`
    degenerate -- True when the selection criterion had no unique maximizer
                  and a documented tie-break was used
    energy     -- value of the selection criterion at the canonical element

    A canonicalizer is a function from data to a CanonResult.  On a stack
    every field carries the stack's leading axis: canonical forms,
    elements (an array of angles, a stacked PCAFrame), flags and energies.
    """

    canonical: Any
    element: Any
    degenerate: bool = False
    energy: float = 0.0


class GroupAxiomError(ValueError):
    """A listed group action failed the identity/compatibility/inverse check."""


@dataclass(frozen=True)
class FiniteGroup:
    """An explicitly enumerated group together with its action on data.

    `apply(g, x)` acts on a datum, `compose(g, h)` is the element acting as
    "first h, then g", `inverse(g)` the inverse element.  Elements must be
    hashable for dict-based lookups but are otherwise opaque.
    """

    elements: tuple
    apply: Callable[[Any, Any], Any] = field(repr=False)
    compose: Callable[[Any, Any], Any] = field(repr=False)
    inverse: Callable[[Any], Any] = field(repr=False)
    identity: Any


def _same(a, b) -> bool:
    return np.array_equal(np.asarray(a), np.asarray(b))


def check_group_axioms(group: FiniteGroup, probes: Sequence[Any]) -> None:
    """Verify the group-action axioms exactly on the given probe data.

    Checks, for every listed element: the identity acts as the identity
    map, apply(compose(g, h), x) == apply(g, apply(h, x)), and
    compose(g, inverse(g)) is the identity.  Raises GroupAxiomError on the
    first violation.  Equality is exact; shipped groups act by permutation,
    so no tolerance is needed.
    """
    listed = frozenset(group.elements)
    if group.identity not in listed:
        raise GroupAxiomError("identity element is not listed")
    for x in probes:
        if not _same(group.apply(group.identity, x), x):
            raise GroupAxiomError("identity does not act as the identity map")
    for g in group.elements:
        if group.compose(g, group.inverse(g)) != group.identity:
            raise GroupAxiomError(f"inverse of {g!r} does not compose to identity")
        if group.inverse(g) not in listed:
            raise GroupAxiomError(f"inverse of {g!r} is not listed")
    for g, h in itertools.product(group.elements, repeat=2):
        gh = group.compose(g, h)
        if gh not in listed:
            raise GroupAxiomError(f"composition of {g!r}, {h!r} is not listed")
        for x in probes:
            if not _same(group.apply(gh, x), group.apply(g, group.apply(h, x))):
                raise GroupAxiomError(
                    f"action is not compatible with composition at ({g!r}, {h!r})"
                )


def invariant_wrap(canonicalize: Callable[[Any], CanonResult],
                   predictor: Callable[[Any], Any]) -> Callable[[Any], Any]:
    """Compose a predictor with an orbit mapping, making it invariant.

    canonicalize is any function returning a CanonResult, such as
    sort_canonicalize, and must be deterministic and total; degenerate
    canonicalizations do not abort, the predictor simply runs on the
    tie-broken canonical form.
    """

    def wrapped(x):
        return predictor(canonicalize(x).canonical)

    return wrapped


def equivariant_average(x, group: FiniteGroup, inner: Callable[[Any], Any]):
    """Symmetrize `inner` over a finite group by summation.

    Returns sum over g of g(inner(g^-1(x))), added left to right from a
    copy of the first term, so a -0.0 stays and the result never aliases x.
    The elementwise sum commutes with any linear group action, so for the
    shipped groups (array quarter turns, permutations) the result commutes
    exactly with every group element.  The group is axiom-checked against
    x before use.
    """
    check_group_axioms(group, [x])
    terms = (np.asarray(group.apply(g, inner(group.apply(group.inverse(g), x))))
             for g in group.elements)
    return sum(terms, next(terms).copy())


def equivariant_canon(x, canonicalize: Callable[[Any], CanonResult],
                      inner: Callable[[Any], Any], undo: Callable[[Any, Any], Any]):
    """Make `inner` equivariant via an orbit mapping: undo(g, inner(g x)).

    canonicalize returns the canonical form g x and the element g as a
    CanonResult; undo(g, y) maps y back by the inverse of g.  For
    permutations it is permute(invert_permutation(g), y); for clouds,
    lambda f, y: f.inverted().transform(y), which also runs a whole stack
    through canonicalize_clouds' stacked frame in one call.
    """
    res = canonicalize(x)
    return undo(res.element, inner(res.canonical))


def finite_orbit_canonicalize(x, group: FiniteGroup,
                              energy: Callable[[Any], float] | None = None) -> CanonResult:
    """Canonicalize by enumerating a finite orbit and taking an argmax.

    Selects the orbit element with the highest energy; exact ties are
    broken by the lexicographically largest flattened value sequence,
    which makes the choice independent of the input's position in its
    orbit, and equal sequences by the order of `group.elements`.  With no
    energy the selection is purely lexicographic; a NaN energy raises
    ValueError.  The group is trusted here (validate separately with
    check_group_axioms); enumeration only needs `elements` and `apply`.
    """
    orbit = [group.apply(g, x) for g in group.elements]
    energies = [float(energy(gx)) if energy is not None else 0.0 for gx in orbit]
    if any(map(math.isnan, energies)):
        raise ValueError("energy is NaN on the orbit")
    top = max(energies)
    keys = {i: tuple(np.asarray(orbit[i], dtype=float).ravel())
            for i, e in enumerate(energies) if e == top}
    best = max(keys, key=keys.get)
    return CanonResult(canonical=orbit[best], element=group.elements[best],
                       degenerate=energy is not None and len(set(keys.values())) > 1,
                       energy=energies[best])


def quarter_turn_group() -> FiniteGroup:
    """C4 acting on square arrays by exact array quarter turns.

    Element k rotates the raster counter-clockwise by k * 90 degrees via
    index permutation, so the action is exact on any dtype.
    """
    return FiniteGroup(
        elements=(0, 1, 2, 3),
        apply=lambda k, x: np.rot90(np.asarray(x), k),
        compose=lambda g, h: (g + h) % 4,
        inverse=lambda g: (-g) % 4,
        identity=0,
    )


def symmetric_group(n: int) -> FiniteGroup:
    """S_n acting on length-n vectors by entry permutation.

    A permutation p sends x to x[p]; composition matches the action
    convention apply(compose(g, h), x) == apply(g, apply(h, x)).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return FiniteGroup(elements=tuple(itertools.permutations(range(n))),
                       apply=permute, compose=lambda g, h: tuple(h[i] for i in g),
                       inverse=invert_permutation, identity=tuple(range(n)))


def permute(p, x):
    """Act with the permutation p (a tuple of indices) on x: x -> x[p]."""
    return np.asarray(x)[list(p)]


def invert_permutation(p) -> tuple:
    """The permutation q with q[p[i]] == i."""
    return tuple(np.argsort(p).tolist())
