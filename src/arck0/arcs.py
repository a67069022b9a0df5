"""Arcs between marked points and their validity.

A marked point is a ``(segment, offset)`` tuple of ints (``circle.as_point``).
An arc joins two marked points that are neither equal nor neighbours; pairs
of adjacent points are boundary segments and count as zero objects.  Which
arcs cross, and the triangles a crossing pair induces, are read off index
structures where they are needed (``tilting``, ``k0.euler_oracle``).
"""

from __future__ import annotations

from typing import NamedTuple

from .circle import as_point


def is_degenerate_pair(p: tuple[int, int], q: tuple[int, int]) -> bool:
    """True when {p, q} is a zero object: equal or adjacent marked points."""
    return p[0] == q[0] and abs(p[1] - q[1]) <= 1


class _Endpoints(NamedTuple):
    a: tuple[int, int]
    b: tuple[int, int]


class Arc(_Endpoints):
    """Unordered pair of non-adjacent marked points, stored lex-sorted.

    A validated named tuple: hashing, equality, ordering and the ``a``/``b``
    getters are the tuple's own, so an arc equals the plain pair of its
    endpoints.  Every construction, ``_make`` and ``_replace`` included, reads
    its endpoints in order through ``as_point``.  Its str is its JSON form.
    """

    __slots__ = ()

    def __new__(cls, a, b) -> "Arc":
        a, b = as_point(a), as_point(b)
        if b < a:
            a, b = b, a
        if is_degenerate_pair(a, b):
            raise ValueError(f"degenerate arc between {list(a)} and {list(b)}")
        return tuple.__new__(cls, (a, b))

    @classmethod
    def _make(cls, iterable) -> "Arc":
        return cls(*iterable)

    def to_json(self) -> list[list[int]]:
        return [list(self.a), list(self.b)]

    def __str__(self) -> str:
        return str(self.to_json())
