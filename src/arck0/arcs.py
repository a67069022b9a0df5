"""Arcs between marked points: validity and suspension.

An arc joins two marked points that are neither equal nor neighbours; pairs
of adjacent points are boundary segments and count as zero objects.  Which
arcs cross, and the triangles a crossing pair induces, are read off index
structures where they are needed (``tilting``, ``k0.euler_oracle``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .circle import MarkedPoint


def is_degenerate_pair(p: MarkedPoint, q: MarkedPoint) -> bool:
    """True when {p, q} is a zero object: equal or adjacent marked points."""
    return p[0] == q[0] and abs(p[1] - q[1]) <= 1


@dataclass(frozen=True, order=True)
class Arc:
    """Unordered pair of non-adjacent marked points, stored lex-sorted."""

    a: MarkedPoint
    b: MarkedPoint

    def __post_init__(self) -> None:
        # the package passes MarkedPoints; only other pairs are wrapped
        p, q = self.a, self.b
        if type(p) is not MarkedPoint:
            p = MarkedPoint(*p)
        if type(q) is not MarkedPoint:
            q = MarkedPoint(*q)
        if q < p:
            p, q = q, p
        if is_degenerate_pair(p, q):
            raise ValueError(f"degenerate arc between {p} and {q}")
        object.__setattr__(self, "a", p)
        object.__setattr__(self, "b", q)

    @property
    def same_segment(self) -> bool:
        return self.a[0] == self.b[0]

    def to_json(self) -> list[list[int]]:
        return [self.a.to_json(), self.b.to_json()]

    @classmethod
    def from_json(cls, data) -> "Arc":
        (s0, o0), (s1, o1) = data
        return cls(MarkedPoint(s0, o0), MarkedPoint(s1, o1))


def maybe_arc(p: MarkedPoint, q: MarkedPoint) -> Optional[Arc]:
    """The arc {p, q}, or None when the pair is degenerate (a zero object)."""
    if is_degenerate_pair(p, q):
        return None
    return Arc(p, q)


def suspend(arc: Arc, k: int = 1) -> Arc:
    """Rotate both endpoints k marked points clockwise (the shift functor).

    Validity is translation invariant, so the result is always an arc.
    """
    return Arc(
        MarkedPoint(arc.a[0], arc.a[1] - k),
        MarkedPoint(arc.b[0], arc.b[1] - k),
    )
