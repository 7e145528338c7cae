"""Orbit mappings and the invariant/equivariant wrappers built on them.

A canonicalizer (orbit mapping) picks one fixed element out of the set of
all transformed versions of a datum.  Composing any predictor with it makes
the predictor invariant to those transformations; applying the inverse
transform after an inner map makes it equivariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable


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


def invariant_wrap(canonicalize: Callable[[Any], CanonResult],
                   predictor: Callable[[Any], Any]) -> Callable[[Any], Any]:
    """Compose a predictor with an orbit mapping, making it invariant.

    canonicalize is any function returning a CanonResult, such as
    canonicalize_clouds, and must be deterministic and total; degenerate
    canonicalizations do not abort, the predictor simply runs on the
    tie-broken canonical form.
    """

    def wrapped(x):
        return predictor(canonicalize(x).canonical)

    return wrapped


def equivariant_canon(x, canonicalize: Callable[[Any], CanonResult],
                      inner: Callable[[Any], Any], undo: Callable[[Any, Any], Any]):
    """Make `inner` equivariant via an orbit mapping: undo(g, inner(g x)).

    canonicalize returns the canonical form g x and the element g as a
    CanonResult; undo(g, y) maps y back by the inverse of g.  For shifts
    it is lambda c, y: y - c; for clouds, lambda f, y:
    f.inverted().transform(y), which also runs a whole stack through
    canonicalize_clouds' stacked frame in one call.
    """
    res = canonicalize(x)
    return undo(res.element, inner(res.canonical))
