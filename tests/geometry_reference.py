"""Pairwise arc geometry, the slow and obviously correct reference for the tests.

The package reads crossings and triangles off index structures (the bracket
pass and ``tilting._flank``, the oracle's index ranges).  This module decides
them one pair at a time from the cyclic order of the endpoints, so the tests
can check the fast paths against it.  It also holds the two arc helpers only
the tests use: ``maybe_arc`` and the shift functor ``suspend``.
"""

from dataclasses import dataclass
from typing import Optional

from arck0 import Arc
from arck0.arcs import is_degenerate_pair
from arck0.circle import check_point


def maybe_arc(p: tuple[int, int], q: tuple[int, int]) -> Optional[Arc]:
    """The arc {p, q}, or None when the pair is degenerate (a zero object)."""
    if is_degenerate_pair(p, q):
        return None
    return Arc(p, q)


def suspend(arc: Arc, k: int = 1) -> Arc:
    """Rotate both endpoints k marked points clockwise (the shift functor).

    Validity is translation invariant, so the result is always an arc.
    """
    return Arc((arc.a[0], arc.a[1] - k), (arc.b[0], arc.b[1] - k))


def cyclic_key(origin: tuple[int, int], p: tuple[int, int], n: int) -> tuple[int, int]:
    """Sort key for the linear order obtained by cutting the circle at ``origin``.

    Smaller keys come first when walking anticlockwise from ``origin``.
    ``p`` must differ from ``origin``.
    """
    d = (p[0] - origin[0]) % n
    if d == 0 and p[1] < origin[1]:
        # same segment but clockwise of the origin: reached last, after the wrap
        d = n
    return (d, p[1])


def shares_endpoint(x: Arc, y: Arc) -> bool:
    return bool({x.a, x.b} & {y.a, y.b})


def ext1_dim(n: int, x: Arc, y: Arc) -> int:
    """1 if the arcs cross (endpoints strictly interleave), else 0.

    Arcs sharing an endpoint never cross.
    """
    for p in (x.a, x.b, y.a, y.b):
        check_point(n, p)
    if shares_endpoint(x, y):
        return 0
    end = cyclic_key(x.a, x.b, n)
    inside_a = cyclic_key(x.a, y.a, n) < end
    inside_b = cyclic_key(x.a, y.b, n) < end
    return 1 if inside_a != inside_b else 0


def quadrilateral_vertices(
    n: int, m: Arc, other: Arc
) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int], tuple[int, int]]:
    """The four endpoints of a crossing pair in anticlockwise order.

    The walk starts at the lexicographically smaller endpoint of ``m``, so
    the result (v0, v1, v2, v3) has m = {v0, v2} and other = {v1, v3}.
    """
    if ext1_dim(n, m, other) != 1:
        raise ValueError("arcs do not cross")
    v0, v2 = m.a, m.b
    if cyclic_key(v0, other.a, n) < cyclic_key(v0, v2, n):
        v1, v3 = other.a, other.b
    else:
        v1, v3 = other.b, other.a
    return v0, v1, v2, v3


def quadrilateral_sides(n: int, m: Arc, other: Arc) -> list[Optional[Arc]]:
    """Sides [{v0,v1}, {v1,v2}, {v2,v3}, {v3,v0}] of the crossing quadrilateral.

    Degenerate sides (adjacent endpoints) are returned as None.
    """
    v0, v1, v2, v3 = quadrilateral_vertices(n, m, other)
    return [maybe_arc(v0, v1), maybe_arc(v1, v2), maybe_arc(v2, v3), maybe_arc(v3, v0)]


@dataclass(frozen=True)
class InducedTriangle:
    """Distinguished triangle first -> (+)middle -> third -> shift(first)."""

    first: Arc
    middle: tuple[Arc, ...]
    third: Arc


def induced_triangles(
    n: int, m: Arc, other: Arc
) -> tuple[InducedTriangle, InducedTriangle]:
    """The two triangles induced by a crossing pair.

    The first runs m -> (+)mids -> other, with mids the opposite side pair
    ({v1,v2}, {v3,v0}); the second runs other -> (+)mids -> m with the
    remaining pair.  Zero sides are dropped from the middles.
    """
    sides = quadrilateral_sides(n, m, other)
    first_mid = tuple(s for s in (sides[1], sides[3]) if s is not None)
    second_mid = tuple(s for s in (sides[0], sides[2]) if s is not None)
    return (
        InducedTriangle(m, first_mid, other),
        InducedTriangle(other, second_mid, m),
    )
