"""Arcs between marked points and their validity.

An arc joins two marked points that are neither equal nor neighbours; pairs
of adjacent points are boundary segments and count as zero objects.  Which
arcs cross, and the triangles a crossing pair induces, are read off index
structures where they are needed (``tilting``, ``k0.euler_oracle``).
"""

from __future__ import annotations

from typing import NamedTuple

from .circle import MarkedPoint


def is_degenerate_pair(p: MarkedPoint, q: MarkedPoint) -> bool:
    """True when {p, q} is a zero object: equal or adjacent marked points."""
    return p[0] == q[0] and abs(p[1] - q[1]) <= 1


class _Endpoints(NamedTuple):
    a: MarkedPoint
    b: MarkedPoint


class Arc(_Endpoints):
    """Unordered pair of non-adjacent marked points, stored lex-sorted.

    A validated named tuple: hashing, equality, ordering and the ``a``/``b``
    getters are the tuple's own, so an arc equals the plain pair of its
    endpoints.  Every construction, ``_make`` and ``_replace`` included,
    goes through ``__new__``.  Its str is its JSON form, as the CLI reads it.
    """

    __slots__ = ()

    def __new__(cls, a, b) -> "Arc":
        # the package passes MarkedPoints; only other pairs are wrapped
        if type(a) is not MarkedPoint:
            a = MarkedPoint(*a)
        if type(b) is not MarkedPoint:
            b = MarkedPoint(*b)
        if b < a:
            a, b = b, a
        if is_degenerate_pair(a, b):
            raise ValueError(f"degenerate arc between {a} and {b}")
        return tuple.__new__(cls, (a, b))

    @classmethod
    def _make(cls, iterable) -> "Arc":
        return cls(*iterable)

    def to_json(self) -> list[list[int]]:
        return [self.a.to_json(), self.b.to_json()]

    def __str__(self) -> str:
        return str(self.to_json())
