"""Arcs between marked points and their validity.

A marked point is a plain ``(segment, offset)`` tuple of ints.  An arc joins
two marked points that are neither equal nor neighbours; pairs of adjacent
points are boundary segments and count as zero objects.  Which arcs cross,
and the triangles a crossing pair induces, are read off index structures
where they are needed (``tilting``, ``k0.euler_oracle``).
"""

from __future__ import annotations

from typing import NamedTuple


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
    endpoints.  Every construction, ``_make`` and ``_replace`` included,
    goes through ``__new__``.  Its str is its JSON form, as the CLI reads it.
    """

    __slots__ = ()

    def __new__(cls, a, b) -> "Arc":
        # a point that is not a pair of ints raises ValueError; tuple
        # endpoints are kept as given, other pairs (JSON lists) are repacked
        (s, o), (t, u) = a, b
        if not type(s) is type(o) is type(t) is type(u) is int:
            bad = a if type(s) is not int or type(o) is not int else b
            raise ValueError(f"marked point {list(bad)} needs integer coordinates")
        if type(a) is not tuple:
            a = s, o
        if type(b) is not tuple:
            b = t, u
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
